//! The fabric-edge codec: how a batch is encoded when it crosses a
//! `Fabric` edge of the pipeline graph.
//!
//! The paper's currency is bytes moved (§2.2): a cloud plan should carry
//! compression as explicit, offloadable stages rather than an implicit
//! transport property. This module defines the per-edge menu — plain,
//! per-column light encodings (dict/RLE/delta/bit-packing), LZ block
//! compression, or both — as a self-describing frame so the consumer end
//! of an edge needs no out-of-band configuration. The pipeline-graph IR
//! places the paired `Compress`/`Decompress` stages
//! (`df_core::pipeline::CodecStage`) and the executors call [`encode`] /
//! [`decode`] at the single fabric-edge charging site, so the movement
//! ledger accounts *encoded* bytes.
//!
//! A `DFE1` frame is the one frame grammar of [`crate::wire`]'s `DFW1`
//! frames, with the encoding as its tag: `plain` and `lz` lay columns out
//! raw, `columnar` and `columnar+lz` encoded with bit-packing (see
//! [the crate docs](crate#frames)). The crate-private frame codec builds,
//! sizes and parses both.

use df_data::Batch;

use crate::frame::{self, Format, Header};
use crate::{CodecError, Result};

/// How batches are encoded on one fabric edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum EdgeEncoding {
    /// Raw little-endian columns. No codec stages; bytes on the wire equal
    /// the frame overhead plus the in-memory column data.
    #[default]
    Plain,
    /// Per-column light encodings: dict for strings, the best of
    /// RLE/delta/bit-packing/plain per integer column.
    Columnar,
    /// LZ-lite block compression over the raw column payload.
    Lz,
    /// Per-column encodings, then LZ over the result.
    ColumnarLz,
}

impl EdgeEncoding {
    /// Every encoding, in tag order (the cost selector's search space).
    pub const ALL: [EdgeEncoding; 4] = [
        EdgeEncoding::Plain,
        EdgeEncoding::Columnar,
        EdgeEncoding::Lz,
        EdgeEncoding::ColumnarLz,
    ];

    /// Stable lower-case name (decision logs, bench JSON, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            EdgeEncoding::Plain => "plain",
            EdgeEncoding::Columnar => "columnar",
            EdgeEncoding::Lz => "lz",
            EdgeEncoding::ColumnarLz => "columnar+lz",
        }
    }

    /// Parse a name produced by [`EdgeEncoding::name`].
    pub fn from_name(name: &str) -> Option<EdgeEncoding> {
        EdgeEncoding::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Whether this encoding needs Compress/Decompress stages on the edge.
    pub fn is_plain(self) -> bool {
        self == EdgeEncoding::Plain
    }

    /// The frame tag: the encoding's place in [`EdgeEncoding::ALL`].
    pub(crate) fn tag(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_tag(tag: u8) -> Result<EdgeEncoding> {
        EdgeEncoding::ALL
            .get(usize::from(tag))
            .copied()
            .ok_or_else(|| CodecError::Corrupt(format!("bad edge encoding tag {tag}")))
    }
}

impl std::fmt::Display for EdgeEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Encode `batch` into a self-describing edge frame.
pub fn encode(batch: &Batch, encoding: EdgeEncoding) -> Vec<u8> {
    frame::encode(batch, Format::Edge(encoding))
}

/// Size of the frame [`encode`] would produce — the number the movement
/// ledger charges when this batch crosses an edge with this encoding.
/// `Plain` and `Columnar` frames are counted, not built; the LZ encodings
/// need the real payload to compress.
pub fn encoded_size(batch: &Batch, encoding: EdgeEncoding) -> usize {
    frame::size(batch, Format::Edge(encoding))
}

/// Which encoding a frame carries, without decoding the payload. A DFW1
/// frame carries none.
pub fn frame_encoding(frame: &[u8]) -> Result<EdgeEncoding> {
    match Header::read(frame, &mut 0)? {
        Header::Edge(encoding) => Ok(encoding),
        Header::Wire { .. } => Err(CodecError::Corrupt("not an edge frame".into())),
    }
}

/// Decode a frame produced by [`encode`] (or an unencrypted DFW1 frame,
/// see [the crate docs](crate#frames)). The encoding is read from the
/// frame itself; corruption (bad magic, checksum mismatch, truncation,
/// structural damage) returns a [`CodecError`] — never panics.
pub fn decode(frame: &[u8]) -> Result<Batch> {
    frame::decode(frame, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;
    use df_data::Column;

    fn sample() -> Batch {
        batch_of(vec![
            ("ts", Column::from_i64((1_000_000..1_000_200).collect())),
            (
                "level",
                Column::from_strs(
                    &(0..200)
                        .map(|i| ["INFO", "WARN", "ERROR"][i % 3])
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "latency",
                Column::from_opt_f64(
                    &(0..200)
                        .map(|i| {
                            if i % 9 == 0 {
                                None
                            } else {
                                Some(i as f64 * 0.25)
                            }
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "ok",
                Column::from_bools(&(0..200).map(|i| i % 5 != 0).collect::<Vec<_>>()),
            ),
        ])
    }

    #[test]
    fn every_encoding_roundtrips_bit_identically() {
        let b = sample();
        for enc in EdgeEncoding::ALL {
            let frame = encode(&b, enc);
            assert_eq!(frame_encoding(&frame).unwrap(), enc);
            assert_eq!(frame.len(), encoded_size(&b, enc), "{enc}");
            let back = decode(&frame).unwrap();
            assert_eq!(b.schema().as_ref(), back.schema().as_ref(), "{enc}");
            assert_eq!(b.canonical_rows(), back.canonical_rows(), "{enc}");
        }
    }

    #[test]
    fn columnar_beats_plain_on_log_strings() {
        let b = sample();
        let plain = encoded_size(&b, EdgeEncoding::Plain);
        let columnar = encoded_size(&b, EdgeEncoding::Columnar);
        assert!(
            columnar * 2 < plain,
            "dict+delta should halve the log batch: {columnar} vs {plain}"
        );
    }

    #[test]
    fn sliced_view_roundtrips() {
        let b = sample();
        let views = b.split(64).unwrap();
        // The middle morsel has non-zero buffer offsets.
        let mid = &views[1];
        for enc in EdgeEncoding::ALL {
            let back = decode(&encode(mid, enc)).unwrap();
            assert_eq!(mid.canonical_rows(), back.canonical_rows(), "{enc}");
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let b = batch_of(vec![
            ("x", Column::from_i64(vec![])),
            ("s", Column::from_strs(&[] as &[&str])),
        ]);
        for enc in EdgeEncoding::ALL {
            let back = decode(&encode(&b, enc)).unwrap();
            assert_eq!(back.rows(), 0);
            assert_eq!(back.schema().as_ref(), b.schema().as_ref());
        }
    }

    #[test]
    fn corruption_is_detected_never_panics() {
        let b = sample();
        for enc in EdgeEncoding::ALL {
            let frame = encode(&b, enc);
            for cut in 0..frame.len() {
                assert!(decode(&frame[..cut]).is_err(), "{enc} truncated at {cut}");
            }
            let mut flipped = frame.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x04;
            assert!(decode(&flipped).is_err(), "{enc} bit flip undetected");
        }
        assert!(decode(b"DFE1").is_err());
        assert!(frame_encoding(&[0, 1, 2, 3, 4]).is_err());
        // Unknown encoding tag.
        let mut frame = encode(&b, EdgeEncoding::Plain);
        frame[4] = 9;
        assert!(decode(&frame).is_err());
    }

    #[test]
    fn names_roundtrip() {
        for enc in EdgeEncoding::ALL {
            assert_eq!(EdgeEncoding::from_name(enc.name()), Some(enc));
        }
        assert_eq!(EdgeEncoding::from_name("zstd"), None);
    }
}
