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
//! Frame layout (checksum discipline matches the storage wire format):
//!
//! ```text
//! "DFE1" | encoding tag | payload len varint | payload | crc32(payload)
//! ```

use df_data::{Batch, Column, DataType};

use crate::checksum::crc32;
use crate::sink::{counted, put_le, Sink};
use crate::wire::{
    decode_schema, read_bitmap, read_validity, write_bitmap, write_column, write_payload,
    write_validity,
};
use crate::{lz, varint, wire};
use crate::{CodecError, Result};

const MAGIC: &[u8; 4] = b"DFE1";

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

    fn tag(self) -> u8 {
        match self {
            EdgeEncoding::Plain => 0,
            EdgeEncoding::Columnar => 1,
            EdgeEncoding::Lz => 2,
            EdgeEncoding::ColumnarLz => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<EdgeEncoding> {
        EdgeEncoding::ALL
            .into_iter()
            .find(|e| e.tag() == tag)
            .ok_or_else(|| CodecError::Corrupt(format!("bad edge encoding tag {tag}")))
    }
}

impl std::fmt::Display for EdgeEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Raw little-endian column: the `Plain` payload, also the baseline the
/// ratio of every other encoding is measured against.
fn write_column_raw<S: Sink>(sink: &mut S, column: &Column) {
    match column {
        Column::Int64 { values, validity } => {
            sink.put_varint(values.len() as u64);
            put_le(sink, values, i64::to_le_bytes);
            write_validity(sink, validity.as_ref());
        }
        Column::Float64 { values, validity } => {
            sink.put_varint(values.len() as u64);
            put_le(sink, values, f64::to_le_bytes);
            write_validity(sink, validity.as_ref());
        }
        Column::Utf8 {
            offsets,
            data,
            validity,
        } => {
            // Sliced views keep absolute offsets into a shared buffer; the
            // wire carries the view's bytes with offsets rebased to 0.
            let base = offsets.first().copied().unwrap_or(0);
            let end = offsets.last().copied().unwrap_or(0);
            sink.put_varint(offsets.len() as u64);
            put_le(sink, offsets, |o| (o - base).to_le_bytes());
            sink.put_varint(u64::from(end - base));
            sink.put_slice(&data[base as usize..end as usize]);
            write_validity(sink, validity.as_ref());
        }
        Column::Bool { values, validity } => {
            write_bitmap(sink, values);
            write_validity(sink, validity.as_ref());
        }
    }
}

fn decode_column_raw(buf: &[u8], pos: &mut usize, dtype: DataType) -> Result<Column> {
    match dtype {
        DataType::Int64 | DataType::Float64 => {
            let n = varint::read_u64(buf, pos)? as usize;
            let end = n
                .checked_mul(8)
                .and_then(|b| pos.checked_add(b))
                .ok_or_else(|| CodecError::Corrupt("raw column overflow".into()))?;
            let raw = buf
                .get(*pos..end)
                .ok_or_else(|| CodecError::Corrupt("raw column past end".into()))?;
            *pos = end;
            let column = if dtype == DataType::Int64 {
                Column::Int64 {
                    values: raw
                        .chunks_exact(8)
                        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect::<Vec<_>>()
                        .into(),
                    validity: read_validity(buf, pos)?,
                }
            } else {
                Column::Float64 {
                    values: raw
                        .chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect::<Vec<_>>()
                        .into(),
                    validity: read_validity(buf, pos)?,
                }
            };
            Ok(column)
        }
        DataType::Utf8 => {
            let n = varint::read_u64(buf, pos)? as usize;
            if n == 0 {
                return Err(CodecError::Corrupt("utf8 needs >= 1 offset".into()));
            }
            let end = n
                .checked_mul(4)
                .and_then(|b| pos.checked_add(b))
                .ok_or_else(|| CodecError::Corrupt("utf8 offsets overflow".into()))?;
            let raw = buf
                .get(*pos..end)
                .ok_or_else(|| CodecError::Corrupt("utf8 offsets past end".into()))?;
            *pos = end;
            let offsets: Vec<u32> = raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect();
            let data = varint::read_bytes(buf, pos)?.to_vec();
            // Structural validation before trusting the offsets.
            if offsets.first() != Some(&0)
                || offsets.windows(2).any(|w| w[0] > w[1])
                || offsets.last().copied().unwrap_or(0) as usize != data.len()
            {
                return Err(CodecError::Corrupt("bad utf8 offsets".into()));
            }
            wire::check_utf8_rows(&offsets, &data)?;
            Ok(Column::Utf8 {
                offsets: offsets.into(),
                data: data.into(),
                validity: read_validity(buf, pos)?,
            })
        }
        DataType::Bool => {
            let values = read_bitmap(buf, pos)?;
            let validity = read_validity(buf, pos)?;
            Ok(Column::Bool { values, validity })
        }
    }
}

/// The payload before LZ: schema, row count, then every column, raw or
/// with per-column encodings.
fn write_columns<S: Sink>(sink: &mut S, batch: &Batch, encoding: EdgeEncoding) {
    if matches!(encoding, EdgeEncoding::Columnar | EdgeEncoding::ColumnarLz) {
        write_payload(sink, batch, |s, column| write_column(s, column, true));
    } else {
        write_payload(sink, batch, write_column_raw);
    }
}

fn is_lz(encoding: EdgeEncoding) -> bool {
    matches!(encoding, EdgeEncoding::Lz | EdgeEncoding::ColumnarLz)
}

fn encode_payload(batch: &Batch, encoding: EdgeEncoding) -> Vec<u8> {
    let mut payload = Vec::with_capacity(batch.byte_size() / 2 + 64);
    write_columns(&mut payload, batch, encoding);
    if is_lz(encoding) {
        payload = lz::compress(&payload);
    }
    payload
}

/// Encode `batch` into a self-describing edge frame.
pub fn encode(batch: &Batch, encoding: EdgeEncoding) -> Vec<u8> {
    let payload = encode_payload(batch, encoding);
    let mut frame = Vec::with_capacity(payload.len() + 16);
    write_header(&mut frame, encoding, payload.len());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame
}

/// Magic, encoding tag, and the payload length.
fn write_header<S: Sink>(sink: &mut S, encoding: EdgeEncoding, payload_len: usize) {
    sink.put_slice(MAGIC);
    sink.put(encoding.tag());
    sink.put_varint(payload_len as u64);
}

/// Size of the frame [`encode`] would produce — the number the movement
/// ledger charges when this batch crosses an edge with this encoding.
/// `Plain` and `Columnar` frames are counted, not built; the LZ encodings
/// need the real payload to compress.
pub fn encoded_size(batch: &Batch, encoding: EdgeEncoding) -> usize {
    let payload = if is_lz(encoding) {
        encode_payload(batch, encoding).len()
    } else {
        counted(|c| write_columns(c, batch, encoding))
    };
    counted(|c| write_header(c, encoding, payload)) + payload + 4
}

/// Which encoding a frame carries, without decoding the payload.
pub fn frame_encoding(frame: &[u8]) -> Result<EdgeEncoding> {
    if frame.get(..4) != Some(MAGIC.as_slice()) {
        return Err(CodecError::Corrupt("bad edge frame magic".into()));
    }
    let tag = *frame
        .get(4)
        .ok_or_else(|| CodecError::Corrupt("edge tag past end".into()))?;
    EdgeEncoding::from_tag(tag)
}

/// Decode a frame produced by [`encode`]. The encoding is read from the
/// frame itself; corruption (bad magic, checksum mismatch, truncation,
/// structural damage) returns a [`CodecError`] — never panics.
pub fn decode(frame: &[u8]) -> Result<Batch> {
    let encoding = frame_encoding(frame)?;
    let mut pos = 5usize;
    let payload_len = varint::read_u64(frame, &mut pos)? as usize;
    let payload_end = pos
        .checked_add(payload_len)
        .ok_or_else(|| CodecError::Corrupt("edge payload overflow".into()))?;
    let payload = frame
        .get(pos..payload_end)
        .ok_or_else(|| CodecError::Corrupt("edge payload past end".into()))?;
    let crc_bytes = frame
        .get(payload_end..payload_end + 4)
        .ok_or_else(|| CodecError::Corrupt("edge crc past end".into()))?;
    if payload_end + 4 != frame.len() {
        return Err(CodecError::Corrupt(
            "trailing bytes after edge frame".into(),
        ));
    }
    let expected = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte crc"));
    let actual = crc32(payload);
    if expected != actual {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }

    let decompressed;
    let payload: &[u8] = match encoding {
        EdgeEncoding::Lz | EdgeEncoding::ColumnarLz => {
            decompressed = lz::decompress(payload)?;
            &decompressed
        }
        _ => payload,
    };
    let columnar = matches!(encoding, EdgeEncoding::Columnar | EdgeEncoding::ColumnarLz);

    let mut p = 0usize;
    let schema = decode_schema(payload, &mut p)?.into_ref();
    let rows = varint::read_u64(payload, &mut p)? as usize;
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let col = if columnar {
            wire::decode_column(payload, &mut p, field.dtype)?
        } else {
            decode_column_raw(payload, &mut p, field.dtype)?
        };
        if col.len() != rows {
            return Err(CodecError::Corrupt(format!(
                "column '{}' length {} != rows {}",
                field.name,
                col.len(),
                rows
            )));
        }
        columns.push(col);
    }
    if p != payload.len() {
        return Err(CodecError::Corrupt("trailing edge payload bytes".into()));
    }
    Batch::new(schema, columns).map_err(CodecError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;

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
