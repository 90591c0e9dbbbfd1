//! The one frame codec: the only code that writes or parses a frame
//! header, and that builds, counts and decodes a frame, `DFW1`
//! ([`crate::wire`]) and `DFE1` ([`crate::edge`]) alike. The grammar, both
//! tag tables and the decode caps are in the crate docs.

use std::borrow::Cow;

use df_data::Batch;

use crate::checksum::crc32;
use crate::crypto::{self, Key, Nonce};
use crate::edge::EdgeEncoding;
use crate::sink::{counted, Sink};
use crate::wire::{self, WireOptions};
use crate::{declared, lz, varint, CodecError, Result};

/// How a payload lays out its columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Fixed-width little-endian values.
    Raw,
    /// Per-column light encodings; `packed` puts bit-packing in the running
    /// for Int64 columns (a reader accepts it either way).
    Encoded { packed: bool },
}

/// What a front asks a frame to be.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Format {
    /// A `DFW1` frame under these options.
    Wire(WireOptions),
    /// A `DFE1` frame in this encoding.
    Edge(EdgeEncoding),
}

impl Format {
    /// The header asked for; DFW1 may yet drop its LZ bit.
    fn header(self) -> Header {
        match self {
            Format::Wire(opts) => Header::Wire {
                lz: opts.compress,
                nonce: opts.encrypt.map(|(_, counter)| counter),
            },
            Format::Edge(encoding) => Header::Edge(encoding),
        }
    }
}

/// A frame header short of its payload length: the row of the tag table
/// its magic selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Header {
    /// `DFW1`: a flags byte (bit 0 LZ, bit 1 encrypted), then the nonce
    /// counter when encrypted.
    Wire { lz: bool, nonce: Option<u64> },
    /// `DFE1`: the encoding's tag.
    Edge(EdgeEncoding),
}

impl Header {
    fn layout(self) -> Layout {
        match self {
            Header::Wire { .. } => Layout::Encoded { packed: false },
            Header::Edge(EdgeEncoding::Columnar | EdgeEncoding::ColumnarLz) => {
                Layout::Encoded { packed: true }
            }
            Header::Edge(_) => Layout::Raw,
        }
    }

    fn lz(self) -> bool {
        match self {
            Header::Wire { lz, .. } => lz,
            Header::Edge(e) => matches!(e, EdgeEncoding::Lz | EdgeEncoding::ColumnarLz),
        }
    }

    fn write<S: Sink>(self, sink: &mut S, payload_len: usize) {
        match self {
            Header::Wire { lz, nonce } => {
                sink.put_slice(b"DFW1");
                sink.put(u8::from(lz) | u8::from(nonce.is_some()) << 1);
                if let Some(counter) = nonce {
                    sink.put_varint(counter);
                }
            }
            Header::Edge(encoding) => {
                sink.put_slice(b"DFE1");
                sink.put(encoding.tag());
            }
        }
        sink.put_varint(payload_len as u64);
    }

    /// Parse a header of either magic, leaving `pos` at the payload length.
    pub(crate) fn read(frame: &[u8], pos: &mut usize) -> Result<Header> {
        let magic = varint::take(frame, pos, 4)?;
        let tag = varint::take(frame, pos, 1)?[0];
        match (magic, tag) {
            (b"DFE1", _) => EdgeEncoding::from_tag(tag).map(Header::Edge),
            (b"DFW1", 0..=3) => Ok(Header::Wire {
                lz: tag & 1 != 0,
                nonce: match tag & 2 {
                    0 => None,
                    _ => Some(varint::read_u64(frame, pos)?),
                },
            }),
            (b"DFW1", _) => Err(CodecError::Corrupt(format!("bad DFW1 flags {tag:#x}"))),
            _ => Err(CodecError::Corrupt("bad frame magic".into())),
        }
    }
}

/// Schema, row count, then every column in `layout`.
fn write_payload<S: Sink>(sink: &mut S, batch: &Batch, layout: Layout) {
    wire::write_schema(sink, batch.schema());
    sink.put_varint(batch.rows() as u64);
    for column in batch.columns() {
        wire::write_column(sink, column, layout);
    }
}

/// The payload under `header`, short of encryption, and the header that
/// describes it: DFW1 keeps LZ only if it shrinks the payload.
fn payload(batch: &Batch, header: Header) -> (Header, Vec<u8>) {
    let mut payload = Vec::with_capacity(batch.byte_size() / 2 + 64);
    write_payload(&mut payload, batch, header.layout());
    if !header.lz() {
        return (header, payload);
    }
    let compressed = lz::compress(&payload);
    match header {
        Header::Wire { nonce, .. } if compressed.len() >= payload.len() => {
            (Header::Wire { lz: false, nonce }, payload)
        }
        _ => (header, compressed),
    }
}

/// Build `format`'s frame.
pub(crate) fn encode(batch: &Batch, format: Format) -> Vec<u8> {
    let (header, mut payload) = payload(batch, format.header());
    if let Format::Wire(WireOptions {
        encrypt: Some((key, counter)),
        ..
    }) = format
    {
        crypto::apply_keystream(&key, &Nonce::from_counter(counter), &mut payload);
    }
    let mut frame = Vec::with_capacity(payload.len() + 24);
    header.write(&mut frame, payload.len());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame
}

/// The length of the frame [`encode`] builds. Without LZ nothing is built:
/// a counter runs the payload and header writers (encryption keeps the
/// length), plus the 4-byte CRC. LZ needs the real payload.
pub(crate) fn size(batch: &Batch, format: Format) -> usize {
    let header = format.header();
    let (header, len) = if header.lz() {
        let (header, payload) = payload(batch, header);
        (header, payload.len())
    } else {
        (
            header,
            counted(|c| write_payload(c, batch, header.layout())),
        )
    };
    counted(|c| header.write(c, len)) + len + 4
}

/// Decode a frame of either magic: check its CRC and that nothing trails
/// it, decrypt with `key`, undo LZ, then read the payload.
pub(crate) fn decode(frame: &[u8], key: Option<&Key>) -> Result<Batch> {
    let mut pos = 0;
    let header = Header::read(frame, &mut pos)?;
    let payload = varint::read_bytes(frame, &mut pos)?;
    let crc = varint::take(frame, &mut pos, 4)?;
    if pos != frame.len() {
        return Err(CodecError::Corrupt("trailing bytes after frame".into()));
    }
    let expected = u32::from_le_bytes(crc.try_into().expect("4-byte crc"));
    let actual = crc32(payload);
    if expected != actual {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    let mut payload = Cow::Borrowed(payload);
    if let Header::Wire {
        nonce: Some(counter),
        ..
    } = header
    {
        let key = key
            .ok_or_else(|| CodecError::Corrupt("frame is encrypted but no key supplied".into()))?;
        crypto::apply_keystream(key, &Nonce::from_counter(counter), payload.to_mut());
    }
    if header.lz() {
        payload = Cow::Owned(lz::decompress(&payload)?);
    }
    read_payload(&payload, header.layout())
}

/// Read a payload: schema, row count, then every column in `layout`, each
/// checked against the row count before it allocates. No byte may follow.
fn read_payload(payload: &[u8], layout: Layout) -> Result<Batch> {
    let mut pos = 0;
    let schema = wire::decode_schema(payload, &mut pos)?.into_ref();
    let rows = declared(varint::read_u64(payload, &mut pos)?, None, payload.len())?;
    let columns = schema
        .fields()
        .iter()
        .map(|field| wire::read_column(payload, &mut pos, field.dtype, layout, Some(rows)))
        .collect::<Result<Vec<_>>>()?;
    if pos != payload.len() {
        return Err(CodecError::Corrupt("trailing payload bytes".into()));
    }
    Ok(Batch::new(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge;
    use df_data::batch::batch_of;
    use df_data::Column;

    #[test]
    fn every_header_row_reads_back() {
        let mut rows: Vec<Header> = EdgeEncoding::ALL.map(Header::Edge).to_vec();
        for lz in [false, true] {
            for nonce in [None, Some(0), Some(300)] {
                rows.push(Header::Wire { lz, nonce });
            }
        }
        for header in rows {
            let mut bytes = Vec::new();
            header.write(&mut bytes, 0);
            let mut pos = 0;
            assert_eq!(Header::read(&bytes, &mut pos).unwrap(), header);
            assert_eq!(pos, bytes.len() - 1, "{header:?} stops at the length");
        }
        for bad in [&b"DFW1\x04"[..], b"DFE1\x04", b"DFX1\x00", b"DFW"] {
            assert!(matches!(
                Header::read(bad, &mut 0),
                Err(CodecError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn either_front_decodes_either_magic() {
        let batch = batch_of(vec![
            ("k", Column::from_i64((0..300).map(|i| i % 7).collect())),
            (
                "s",
                Column::from_strs(&(0..300).map(|i| ["a", "bb"][i % 2]).collect::<Vec<_>>()),
            ),
        ]);
        let key = Key::from_seed(3);
        for encoding in EdgeEncoding::ALL {
            let frame = edge::encode(&batch, encoding);
            assert_eq!(wire::decode_batch(&frame, None).unwrap(), batch);
            assert_eq!(wire::decode_batch(&frame, Some(&key)).unwrap(), batch);
        }
        for opts in [WireOptions::plain(), WireOptions::compressed()] {
            let frame = wire::encode_batch(&batch, &opts);
            assert_eq!(edge::decode(&frame).unwrap(), batch);
            // A DFW1 frame has no edge encoding to report.
            assert!(edge::frame_encoding(&frame).is_err());
        }
        // Only the key opens an encrypted DFW1 frame, whichever front reads it.
        let sealed = wire::encode_batch(
            &batch,
            &WireOptions {
                compress: false,
                encrypt: Some((key, 9)),
            },
        );
        assert!(matches!(edge::decode(&sealed), Err(CodecError::Corrupt(_))));
        assert_eq!(wire::decode_batch(&sealed, Some(&key)).unwrap(), batch);
    }
}
