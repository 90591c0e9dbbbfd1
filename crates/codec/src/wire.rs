//! The batch wire format: what actually crosses links between devices.
//!
//! A frame layers the cloud data-path operations in the order a smart NIC
//! would apply them: columnar encoding → block compression → encryption →
//! checksum. Each layer is optional and flagged, so experiments can toggle
//! the stages (ablation A4) and the movement ledger can charge the *encoded*
//! size rather than the in-memory size.

use df_data::{Batch, Bitmap, Column, DataType, Field, Schema};

use crate::checksum::crc32;
use crate::crypto::{self, Key, Nonce};
use crate::dict::{self, Dict};
use crate::sink::{counted, put_le, Sink};
use crate::{int, lz, varint};
use crate::{CodecError, Result};

const MAGIC: &[u8; 4] = b"DFW1";

const FLAG_COMPRESSED: u8 = 0b01;
const FLAG_ENCRYPTED: u8 = 0b10;

/// Options controlling the wire transformations.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireOptions {
    /// Apply LZ-lite block compression (kept only if it shrinks the frame).
    pub compress: bool,
    /// Encrypt with this key; the nonce counter must be unique per frame
    /// within a stream.
    pub encrypt: Option<(Key, u64)>,
}

impl WireOptions {
    /// No transformation: plain encoded columns + checksum.
    pub fn plain() -> Self {
        WireOptions::default()
    }

    /// Compression only.
    pub fn compressed() -> Self {
        WireOptions {
            compress: true,
            encrypt: None,
        }
    }
}

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        other => return Err(CodecError::Corrupt(format!("bad dtype tag {other}"))),
    })
}

pub(crate) fn write_bitmap<S: Sink>(sink: &mut S, bitmap: &Bitmap) {
    sink.put_varint(bitmap.len() as u64);
    sink.put_with(bitmap.len().div_ceil(8), |dst| {
        for (bytes, word) in dst.chunks_mut(8).zip(bitmap.words()) {
            let n = bytes.len();
            bytes.copy_from_slice(&word.to_le_bytes()[..n]);
        }
    });
}

pub(crate) fn read_bitmap(buf: &[u8], pos: &mut usize) -> Result<Bitmap> {
    let len = varint::read_u64(buf, pos)? as usize;
    let nbytes = len.div_ceil(8);
    let end = pos
        .checked_add(nbytes)
        .ok_or_else(|| CodecError::Corrupt("bitmap overflow".into()))?;
    let bytes = buf
        .get(*pos..end)
        .ok_or_else(|| CodecError::Corrupt("bitmap past end".into()))?;
    *pos = end;
    let words = bytes
        .chunks(8)
        .map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        })
        .collect();
    // Padding bits past `len` are ignored.
    Ok(Bitmap::from_words(words, len))
}

pub(crate) fn write_validity<S: Sink>(sink: &mut S, validity: Option<&Bitmap>) {
    match validity {
        Some(v) => {
            sink.put(1);
            write_bitmap(sink, v);
        }
        None => sink.put(0),
    }
}

pub(crate) fn read_validity(buf: &[u8], pos: &mut usize) -> Result<Option<Bitmap>> {
    let present = *buf
        .get(*pos)
        .ok_or_else(|| CodecError::Corrupt("validity marker past end".into()))?;
    *pos += 1;
    match present {
        0 => Ok(None),
        1 => Ok(Some(read_bitmap(buf, pos)?)),
        other => Err(CodecError::Corrupt(format!("bad validity marker {other}"))),
    }
}

/// Check a decoded Utf8 column whose offsets are already known to be
/// monotonic and to end at `data.len()`: the payload must be valid UTF-8
/// and every offset must fall on a character boundary, so each row alone
/// is valid UTF-8. Byte-level LIKE and the Utf8 `gather`/`filter` rely on
/// this and never re-check a row.
pub(crate) fn check_utf8_rows(offsets: &[u32], data: &[u8]) -> Result<()> {
    let text = std::str::from_utf8(data).map_err(|_| CodecError::Corrupt("utf8 payload".into()))?;
    if offsets.iter().all(|&o| text.is_char_boundary(o as usize)) {
        Ok(())
    } else {
        Err(CodecError::Corrupt("utf8 offset splits a character".into()))
    }
}

/// Write one column (without its schema entry). `packed` puts
/// bit-packing in the running for integer columns.
pub(crate) fn write_column<S: Sink>(sink: &mut S, column: &Column, packed: bool) {
    match column {
        Column::Int64 { values, validity } => {
            let (tag, len) = int::choose(values, packed);
            sink.put(tag);
            sink.put_varint(len as u64);
            sink.put_counted(len, |s| int::write_tagged(s, tag, values));
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
            write_utf8(sink, offsets, data);
            write_validity(sink, validity.as_ref());
        }
        Column::Bool { values, validity } => {
            write_bitmap(sink, values);
            write_validity(sink, validity.as_ref());
        }
    }
}

/// A Utf8 column's values: dictionary-coded (tag 1) if the dictionary
/// stream is shorter than the whole plain block, else plain (tag 0).
fn write_utf8<S: Sink>(sink: &mut S, offsets: &[u32], data: &[u8]) {
    let plain = PlainUtf8::new(offsets, data);
    let plain_len = counted(|c| plain.write(c));
    let dict = Dict::build(offsets, data);
    let dict_len = counted(|c| dict.write(c));
    if dict_len < plain_len {
        sink.put(1);
        sink.put_varint(dict_len as u64);
        sink.put_counted(dict_len, |s| dict.write(s));
    } else {
        sink.put(0);
        sink.put_counted(plain_len, |s| plain.write(s));
    }
}

/// The plain Utf8 block: delta-coded offsets (monotone), then the raw
/// bytes, each length-prefixed.
struct PlainUtf8<'a> {
    offsets: &'a [u32],
    base: u32,
    bytes: &'a [u8],
    /// Length of the delta-coded offsets.
    offsets_len: usize,
}

impl<'a> PlainUtf8<'a> {
    fn new(offsets: &'a [u32], data: &'a [u8]) -> Self {
        // A sliced view keeps absolute offsets into a shared (possibly
        // larger) data buffer; the wire carries only the view's bytes,
        // with offsets rebased to start at 0.
        let base = offsets.first().copied().unwrap_or(0);
        let end = offsets.last().copied().unwrap_or(0);
        PlainUtf8 {
            offsets,
            base,
            bytes: &data[base as usize..end as usize],
            offsets_len: counted(|c| write_rebased(c, offsets, base)),
        }
    }

    fn write<S: Sink>(&self, sink: &mut S) {
        sink.put_varint(self.offsets_len as u64);
        sink.put_counted(self.offsets_len, |s| {
            write_rebased(s, self.offsets, self.base)
        });
        sink.put_varint(self.bytes.len() as u64);
        sink.put_slice(self.bytes);
    }
}

fn write_rebased<S: Sink>(sink: &mut S, offsets: &[u32], base: u32) {
    int::write_delta(sink, offsets.iter().map(|&o| i64::from(o - base)));
}

/// Encode one column (without its schema entry).
pub fn encode_column(out: &mut Vec<u8>, column: &Column) {
    write_column(out, column, false);
}

/// Decode one column of the given type.
pub fn decode_column(buf: &[u8], pos: &mut usize, dtype: DataType) -> Result<Column> {
    match dtype {
        DataType::Int64 => {
            let tag = *buf
                .get(*pos)
                .ok_or_else(|| CodecError::Corrupt("int tag past end".into()))?;
            *pos += 1;
            let bytes = varint::read_bytes(buf, pos)?;
            let values = int::decode_tagged(tag, bytes)?;
            let validity = read_validity(buf, pos)?;
            Ok(Column::Int64 {
                values: values.into(),
                validity,
            })
        }
        DataType::Float64 => {
            let n = varint::read_u64(buf, pos)? as usize;
            let end = n
                .checked_mul(8)
                .and_then(|len| pos.checked_add(len))
                .ok_or_else(|| CodecError::Corrupt("float overflow".into()))?;
            let raw = buf
                .get(*pos..end)
                .ok_or_else(|| CodecError::Corrupt("floats past end".into()))?;
            *pos = end;
            let values = raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let validity = read_validity(buf, pos)?;
            Ok(Column::Float64 { values, validity })
        }
        DataType::Utf8 => {
            let tag = *buf
                .get(*pos)
                .ok_or_else(|| CodecError::Corrupt("utf8 tag past end".into()))?;
            *pos += 1;
            let column = match tag {
                0 => {
                    let off_bytes = varint::read_bytes(buf, pos)?;
                    let offs = int::delta_decode(off_bytes)?;
                    let data = varint::read_bytes(buf, pos)?.to_vec();
                    let offsets: Vec<u32> = offs
                        .iter()
                        .map(|&o| {
                            u32::try_from(o)
                                .map_err(|_| CodecError::Corrupt("negative offset".into()))
                        })
                        .collect::<Result<_>>()?;
                    // Structural validation before trusting the offsets.
                    if offsets.first() != Some(&0)
                        || offsets.windows(2).any(|w| w[0] > w[1])
                        || offsets.last().copied().unwrap_or(0) as usize != data.len()
                        || offsets.is_empty()
                    {
                        return Err(CodecError::Corrupt("bad utf8 offsets".into()));
                    }
                    check_utf8_rows(&offsets, &data)?;
                    Column::Utf8 {
                        offsets: offsets.into(),
                        data: data.into(),
                        validity: None,
                    }
                }
                1 => dict::decode(varint::read_bytes(buf, pos)?)?,
                other => return Err(CodecError::Corrupt(format!("bad utf8 tag {other}"))),
            };
            let validity = read_validity(buf, pos)?;
            Ok(match (column, validity) {
                (Column::Utf8 { offsets, data, .. }, validity) => Column::Utf8 {
                    offsets,
                    data,
                    validity,
                },
                _ => unreachable!("utf8 decode produces utf8"),
            })
        }
        DataType::Bool => {
            let values = read_bitmap(buf, pos)?;
            let validity = read_validity(buf, pos)?;
            Ok(Column::Bool { values, validity })
        }
    }
}

/// Serialize a scalar with a one-byte type tag (segment footers, zone maps).
pub fn encode_scalar(out: &mut Vec<u8>, scalar: &df_data::Scalar) {
    use df_data::Scalar;
    match scalar {
        Scalar::Null => out.push(0),
        Scalar::Int(v) => {
            out.push(1);
            varint::write_i64(out, *v);
        }
        Scalar::Float(v) => {
            out.push(2);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Scalar::Str(s) => {
            out.push(3);
            varint::write_bytes(out, s.as_bytes());
        }
        Scalar::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
    }
}

/// Deserialize a scalar written by [`encode_scalar`].
pub fn decode_scalar(buf: &[u8], pos: &mut usize) -> Result<df_data::Scalar> {
    use df_data::Scalar;
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| CodecError::Corrupt("scalar tag past end".into()))?;
    *pos += 1;
    Ok(match tag {
        0 => Scalar::Null,
        1 => Scalar::Int(varint::read_i64(buf, pos)?),
        2 => {
            let raw = buf
                .get(*pos..*pos + 8)
                .ok_or_else(|| CodecError::Corrupt("float scalar past end".into()))?;
            *pos += 8;
            Scalar::Float(f64::from_le_bytes(raw.try_into().unwrap()))
        }
        3 => {
            let bytes = varint::read_bytes(buf, pos)?;
            Scalar::Str(
                std::str::from_utf8(bytes)
                    .map_err(|_| CodecError::Corrupt("scalar not utf8".into()))?
                    .to_string(),
            )
        }
        4 => {
            let b = *buf
                .get(*pos)
                .ok_or_else(|| CodecError::Corrupt("bool scalar past end".into()))?;
            *pos += 1;
            Scalar::Bool(b != 0)
        }
        other => return Err(CodecError::Corrupt(format!("bad scalar tag {other}"))),
    })
}

fn write_schema<S: Sink>(sink: &mut S, schema: &Schema) {
    sink.put_varint(schema.len() as u64);
    for field in schema.fields() {
        sink.put_varint(field.name.len() as u64);
        sink.put_slice(field.name.as_bytes());
        sink.put(dtype_tag(field.dtype));
        sink.put(field.nullable as u8);
    }
}

/// Serialize a schema (field names, types, nullability).
pub fn encode_schema(out: &mut Vec<u8>, schema: &Schema) {
    write_schema(out, schema);
}

/// Write a batch payload: schema, row count, then every column as
/// `column_writer` lays it out.
pub(crate) fn write_payload<S: Sink>(
    sink: &mut S,
    batch: &Batch,
    column_writer: impl Fn(&mut S, &Column),
) {
    write_schema(sink, batch.schema());
    sink.put_varint(batch.rows() as u64);
    for column in batch.columns() {
        column_writer(sink, column);
    }
}

/// Deserialize a schema written by [`encode_schema`].
pub fn decode_schema(buf: &[u8], pos: &mut usize) -> Result<Schema> {
    let n = varint::read_u64(buf, pos)? as usize;
    if n > buf.len() {
        return Err(CodecError::Corrupt("field count implausible".into()));
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name_bytes = varint::read_bytes(buf, pos)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| CodecError::Corrupt("field name not utf8".into()))?
            .to_string();
        let dtype = dtype_from_tag(
            *buf.get(*pos)
                .ok_or_else(|| CodecError::Corrupt("dtype past end".into()))?,
        )?;
        *pos += 1;
        let nullable = *buf
            .get(*pos)
            .ok_or_else(|| CodecError::Corrupt("nullable past end".into()))?
            != 0;
        *pos += 1;
        fields.push(Field {
            name,
            dtype,
            nullable,
        });
    }
    Ok(Schema::new(fields))
}

/// Serialize a batch to a wire frame.
pub fn encode_batch(batch: &Batch, opts: &WireOptions) -> Vec<u8> {
    let mut payload = Vec::with_capacity(batch.byte_size() / 2 + 64);
    write_payload(&mut payload, batch, |s, c| write_column(s, c, false));

    let mut flags = 0u8;
    if opts.compress {
        let compressed = lz::compress(&payload);
        if compressed.len() < payload.len() {
            payload = compressed;
            flags |= FLAG_COMPRESSED;
        }
    }
    if let Some((key, counter)) = &opts.encrypt {
        crypto::apply_keystream(key, &Nonce::from_counter(*counter), &mut payload);
        flags |= FLAG_ENCRYPTED;
    }

    let mut frame = Vec::with_capacity(payload.len() + 24);
    write_header(&mut frame, flags, opts, payload.len());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame
}

/// Magic, flags, the nonce counter when encrypted, and the payload length.
fn write_header<S: Sink>(sink: &mut S, flags: u8, opts: &WireOptions, payload_len: usize) {
    sink.put_slice(MAGIC);
    sink.put(flags);
    if let Some((_, counter)) = opts.encrypt {
        sink.put_varint(counter);
    }
    sink.put_varint(payload_len as u64);
}

/// Deserialize a wire frame. `key` must be supplied iff the frame is
/// encrypted.
pub fn decode_batch(frame: &[u8], key: Option<&Key>) -> Result<Batch> {
    let mut pos = 0usize;
    let magic = frame
        .get(..4)
        .ok_or_else(|| CodecError::Corrupt("frame too short".into()))?;
    if magic != MAGIC {
        return Err(CodecError::Corrupt("bad magic".into()));
    }
    pos += 4;
    let flags = *frame
        .get(pos)
        .ok_or_else(|| CodecError::Corrupt("flags past end".into()))?;
    pos += 1;
    let nonce_counter = if flags & FLAG_ENCRYPTED != 0 {
        varint::read_u64(frame, &mut pos)?
    } else {
        0
    };
    let payload_len = varint::read_u64(frame, &mut pos)? as usize;
    let payload_end = pos
        .checked_add(payload_len)
        .ok_or_else(|| CodecError::Corrupt("payload overflow".into()))?;
    let mut payload = frame
        .get(pos..payload_end)
        .ok_or_else(|| CodecError::Corrupt("payload past end".into()))?
        .to_vec();
    pos = payload_end;
    let crc_bytes = frame
        .get(pos..pos + 4)
        .ok_or_else(|| CodecError::Corrupt("crc past end".into()))?;
    let expected = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let actual = crc32(&payload);
    if expected != actual {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }

    if flags & FLAG_ENCRYPTED != 0 {
        let key = key
            .ok_or_else(|| CodecError::Corrupt("frame is encrypted but no key supplied".into()))?;
        crypto::apply_keystream(key, &Nonce::from_counter(nonce_counter), &mut payload);
    }
    if flags & FLAG_COMPRESSED != 0 {
        payload = lz::decompress(&payload)?;
    }

    let mut p = 0usize;
    let schema = decode_schema(&payload, &mut p)?.into_ref();
    let rows = varint::read_u64(&payload, &mut p)? as usize;
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let col = decode_column(&payload, &mut p, field.dtype)?;
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
        return Err(CodecError::Corrupt("trailing payload bytes".into()));
    }
    Batch::new(schema, columns).map_err(CodecError::from)
}

/// Encoded size of a batch under the given options — the number the
/// movement ledger charges to a link when this stage's output crosses it.
///
/// Without compression nothing is built: a counter runs the writers
/// [`encode_batch`] runs, for the payload and then the header (encryption
/// keeps the length), plus the 4-byte CRC. Compression needs the real
/// payload.
pub fn wire_size(batch: &Batch, opts: &WireOptions) -> usize {
    if opts.compress {
        return encode_batch(batch, opts).len();
    }
    let payload = counted(|c| write_payload(c, batch, |s, col| write_column(s, col, false)));
    counted(|c| write_header(c, 0, opts, payload)) + payload + 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;

    fn sample() -> Batch {
        batch_of(vec![
            ("id", Column::from_i64((0..200).collect())),
            (
                "region",
                Column::from_strs(
                    &(0..200)
                        .map(|i| format!("region-{}", i % 4))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "score",
                Column::from_opt_f64(
                    &(0..200)
                        .map(|i| {
                            if i % 7 == 0 {
                                None
                            } else {
                                Some(i as f64 * 0.5)
                            }
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
            ("flag", Column::from_bools(&[true; 200])),
        ])
    }

    #[test]
    fn plain_roundtrip() {
        let b = sample();
        let frame = encode_batch(&b, &WireOptions::plain());
        let back = decode_batch(&frame, None).unwrap();
        assert_eq!(b.canonical_rows(), back.canonical_rows());
        assert_eq!(b.schema().as_ref(), back.schema().as_ref());
    }

    #[test]
    fn compressed_roundtrip_and_shrinks() {
        let b = sample();
        let plain = encode_batch(&b, &WireOptions::plain());
        let comp = encode_batch(&b, &WireOptions::compressed());
        assert!(comp.len() < plain.len());
        let back = decode_batch(&comp, None).unwrap();
        assert_eq!(b.canonical_rows(), back.canonical_rows());
    }

    #[test]
    fn encrypted_roundtrip() {
        let b = sample();
        let key = Key::from_seed(99);
        let opts = WireOptions {
            compress: true,
            encrypt: Some((key, 42)),
        };
        let frame = encode_batch(&b, &opts);
        let back = decode_batch(&frame, Some(&key)).unwrap();
        assert_eq!(b.canonical_rows(), back.canonical_rows());
    }

    #[test]
    fn encrypted_without_key_errors() {
        let b = sample();
        let key = Key::from_seed(99);
        let frame = encode_batch(
            &b,
            &WireOptions {
                compress: false,
                encrypt: Some((key, 1)),
            },
        );
        assert!(decode_batch(&frame, None).is_err());
    }

    #[test]
    fn wrong_key_fails_decode() {
        let b = sample();
        let frame = encode_batch(
            &b,
            &WireOptions {
                compress: true,
                encrypt: Some((Key::from_seed(1), 7)),
            },
        );
        let wrong = Key::from_seed(2);
        // CRC still passes (it covers ciphertext), but the decompression or
        // structural decode must fail.
        assert!(decode_batch(&frame, Some(&wrong)).is_err());
    }

    #[test]
    fn bit_flip_detected_by_crc() {
        let b = sample();
        for opts in [WireOptions::plain(), WireOptions::compressed()] {
            let mut frame = encode_batch(&b, &opts);
            let mid = frame.len() / 2;
            frame[mid] ^= 0x10;
            let decoded = decode_batch(&frame, None);
            assert!(matches!(decoded, Err(CodecError::ChecksumMismatch { .. })));
        }
    }

    #[test]
    fn utf8_dict_must_be_strictly_shorter() {
        // Dictionary and plain block both take 8 bytes: plain (tag 0) wins.
        let mut out = Vec::new();
        encode_column(&mut out, &Column::from_strs(&["a", "b"]));
        assert_eq!(out[0], 0);
        // One repeat more and the dictionary is shorter.
        out.clear();
        encode_column(&mut out, &Column::from_strs(&["a", "b", "a"]));
        assert_eq!(out[0], 1);
    }

    #[test]
    fn float_count_overflow_is_corrupt() {
        // 2^61 declared values: an unchecked `n * 8` wraps to 0 bytes.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1 << 61);
        write_validity(&mut buf, None);
        let decoded = decode_column(&buf, &mut 0, DataType::Float64);
        assert!(matches!(decoded, Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn truncation_never_panics() {
        let b = sample();
        let frame = encode_batch(&b, &WireOptions::compressed());
        for cut in 0..frame.len().min(200) {
            let _ = decode_batch(&frame[..cut], None);
        }
        let _ = decode_batch(&frame[..frame.len() - 1], None);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let b = batch_of(vec![("x", Column::from_i64(vec![]))]);
        let frame = encode_batch(&b, &WireOptions::plain());
        let back = decode_batch(&frame, None).unwrap();
        assert_eq!(back.rows(), 0);
        assert_eq!(back.schema().field(0).name, "x");
    }

    #[test]
    fn wire_size_smaller_than_memory_for_compressible() {
        let b = batch_of(vec![("k", Column::from_i64(vec![5; 10_000]))]);
        assert!(wire_size(&b, &WireOptions::compressed()) < b.byte_size() / 10);
    }
}
