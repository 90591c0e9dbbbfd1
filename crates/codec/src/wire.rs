//! The batch wire format, `DFW1`: what crosses links between devices and
//! what the serve protocol carries, and the column, schema and scalar
//! codecs that every frame and storage segment lays out.
//!
//! A frame layers the cloud data-path operations in the order a smart NIC
//! would apply them: columnar encoding → block compression → encryption →
//! checksum. Each layer is optional and flagged, so experiments can toggle
//! the stages (ablation A4) and the movement ledger can charge the *encoded*
//! size rather than the in-memory size. DFW1 and [`crate::edge`]'s DFE1
//! frames are one grammar, built, sized and parsed by one crate-private
//! frame codec; see [the crate docs](crate#frames) for the grammar and the
//! two tag tables. Here, each column type has one writer and one reader,
//! for both the raw and the encoded layout.

use df_data::{Batch, Bitmap, Column, DataType, Field, Schema};

use crate::crypto::Key;
use crate::dict::{self, Dict};
use crate::frame::{self, Format, Layout};
use crate::sink::{counted, put_le, Sink};
use crate::{declared, int, varint};
use crate::{CodecError, Result};

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

/// The layout of DFW1 payloads and segment blocks.
const ENCODED: Layout = Layout::Encoded { packed: false };

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

fn write_bitmap<S: Sink>(sink: &mut S, bitmap: &Bitmap) {
    sink.put_varint(bitmap.len() as u64);
    sink.put_with(bitmap.len().div_ceil(8), |dst| {
        for (bytes, word) in dst.chunks_mut(8).zip(bitmap.words()) {
            let n = bytes.len();
            bytes.copy_from_slice(&word.to_le_bytes()[..n]);
        }
    });
}

/// A bitmap of `rows` bits (see [`declared`]).
fn read_bitmap(buf: &[u8], pos: &mut usize, rows: Option<usize>) -> Result<Bitmap> {
    let len = declared(varint::read_u64(buf, pos)?, rows, buf.len())?;
    let words = varint::take(buf, pos, len.div_ceil(8))?
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

fn write_validity<S: Sink>(sink: &mut S, validity: Option<&Bitmap>) {
    match validity {
        Some(v) => {
            sink.put(1);
            write_bitmap(sink, v);
        }
        None => sink.put(0),
    }
}

fn read_validity(buf: &[u8], pos: &mut usize, rows: usize) -> Result<Option<Bitmap>> {
    match varint::take(buf, pos, 1)?[0] {
        0 => Ok(None),
        1 => Ok(Some(read_bitmap(buf, pos, Some(rows))?)),
        other => Err(CodecError::Corrupt(format!("bad validity marker {other}"))),
    }
}

/// Write one column (without its schema entry) in `layout`.
pub(crate) fn write_column<S: Sink>(sink: &mut S, column: &Column, layout: Layout) {
    match (column, layout) {
        (Column::Int64 { values, .. }, Layout::Raw) => {
            int::write_tagged(sink, int::TAG_PLAIN, values);
        }
        (Column::Int64 { values, .. }, Layout::Encoded { packed }) => {
            let (tag, len) = int::choose(values, packed);
            sink.put(tag);
            sink.put_varint(len as u64);
            sink.put_counted(len, |s| int::write_tagged(s, tag, values));
        }
        (Column::Float64 { values, .. }, _) => {
            sink.put_varint(values.len() as u64);
            put_le(sink, values, f64::to_le_bytes);
        }
        (Column::Utf8 { offsets, data, .. }, Layout::Raw) => {
            PlainUtf8::new(offsets, data).write_raw(sink);
        }
        (Column::Utf8 { offsets, data, .. }, Layout::Encoded { .. }) => {
            write_utf8(sink, offsets, data);
        }
        (Column::Bool { values, .. }, _) => write_bitmap(sink, values),
    }
    write_validity(sink, column.validity());
}

/// An encoded Utf8 column's values: dictionary-coded (tag 1) if the
/// dictionary stream is shorter than the whole plain block, else plain
/// (tag 0).
fn write_utf8<S: Sink>(sink: &mut S, offsets: &[u32], data: &[u8]) {
    let plain = PlainUtf8::new(offsets, data);
    let deltas_len = counted(|c| int::write_delta(c, plain.deltas()));
    let plain_len = counted(|c| plain.write(c, deltas_len));
    let dict = Dict::build(offsets, data);
    let dict_len = counted(|c| dict.write(c));
    if dict_len < plain_len {
        sink.put(1);
        sink.put_varint(dict_len as u64);
        sink.put_counted(dict_len, |s| dict.write(s));
    } else {
        sink.put(0);
        sink.put_counted(plain_len, |s| plain.write(s, deltas_len));
    }
}

/// A Utf8 view's rows as a frame carries them. A sliced view keeps
/// absolute offsets into a shared (possibly larger) data buffer; the frame
/// carries only the view's bytes, with offsets rebased to start at 0.
struct PlainUtf8<'a> {
    offsets: &'a [u32],
    base: u32,
    bytes: &'a [u8],
}

impl<'a> PlainUtf8<'a> {
    fn new(offsets: &'a [u32], data: &'a [u8]) -> Self {
        let base = offsets.first().copied().unwrap_or(0);
        let end = offsets.last().copied().unwrap_or(0);
        PlainUtf8 {
            offsets,
            base,
            bytes: &data[base as usize..end as usize],
        }
    }

    fn deltas(&self) -> impl ExactSizeIterator<Item = i64> + '_ {
        self.offsets.iter().map(|&o| i64::from(o - self.base))
    }

    /// The encoded plain block: the offsets delta-coded into `deltas_len`
    /// bytes, length-prefixed, then the bytes, length-prefixed.
    fn write<S: Sink>(&self, sink: &mut S, deltas_len: usize) {
        sink.put_varint(deltas_len as u64);
        sink.put_counted(deltas_len, |s| int::write_delta(s, self.deltas()));
        sink.put_varint(self.bytes.len() as u64);
        sink.put_slice(self.bytes);
    }

    /// The raw layout: the offset count and the offsets as `u32` words,
    /// then the bytes, length-prefixed.
    fn write_raw<S: Sink>(&self, sink: &mut S) {
        sink.put_varint(self.offsets.len() as u64);
        put_le(sink, self.offsets, |o| (o - self.base).to_le_bytes());
        sink.put_varint(self.bytes.len() as u64);
        sink.put_slice(self.bytes);
    }
}

/// Encode one column (without its schema entry).
pub fn encode_column(out: &mut Vec<u8>, column: &Column) {
    write_column(out, column, ENCODED);
}

/// Decode one column of the given type. It may declare at most
/// [`MAX_EXPANSION`](crate::MAX_EXPANSION) values per byte of `buf`.
pub fn decode_column(buf: &[u8], pos: &mut usize, dtype: DataType) -> Result<Column> {
    read_column(buf, pos, dtype, ENCODED, None)
}

/// Decode one column that must hold `rows` values, as a segment page's
/// does: a row count over [`MAX_EXPANSION`](crate::MAX_EXPANSION) per byte
/// of `buf`, or a column declaring another count, is corrupt before
/// anything is allocated.
pub fn decode_page_column(
    buf: &[u8],
    pos: &mut usize,
    dtype: DataType,
    rows: u64,
) -> Result<Column> {
    let rows = declared(rows, None, buf.len())?;
    read_column(buf, pos, dtype, ENCODED, Some(rows))
}

/// Read one column of `dtype` in `layout`. Every count it declares must
/// match `rows` ([`declared`]) before anything is allocated for it.
pub(crate) fn read_column(
    buf: &[u8],
    pos: &mut usize,
    dtype: DataType,
    layout: Layout,
    rows: Option<usize>,
) -> Result<Column> {
    let offsets = rows.map(|rows| rows + 1);
    let mut column = match (dtype, layout) {
        (DataType::Int64, Layout::Raw) => {
            Column::from_i64(read_words(buf, pos, rows, i64::from_le_bytes)?)
        }
        (DataType::Int64, Layout::Encoded { .. }) => {
            let tag = varint::take(buf, pos, 1)?[0];
            Column::from_i64(int::decode_rows(tag, varint::read_bytes(buf, pos)?, rows)?)
        }
        (DataType::Float64, _) => Column::from_f64(read_words(buf, pos, rows, f64::from_le_bytes)?),
        (DataType::Utf8, Layout::Raw) => {
            let offsets = read_words(buf, pos, offsets, u32::from_le_bytes)?;
            plain_utf8(offsets, varint::read_bytes(buf, pos)?)?
        }
        (DataType::Utf8, Layout::Encoded { .. }) => match varint::take(buf, pos, 1)?[0] {
            0 => {
                let deltas = varint::read_bytes(buf, pos)?;
                let offsets = int::decode_rows(int::TAG_DELTA, deltas, offsets)?
                    .into_iter()
                    .map(|o| {
                        u32::try_from(o).map_err(|_| CodecError::Corrupt("bad utf8 offset".into()))
                    })
                    .collect::<Result<_>>()?;
                plain_utf8(offsets, varint::read_bytes(buf, pos)?)?
            }
            1 => dict::decode(varint::read_bytes(buf, pos)?, rows)?,
            other => return Err(CodecError::Corrupt(format!("bad utf8 tag {other}"))),
        },
        (DataType::Bool, _) => Column::Bool {
            values: read_bitmap(buf, pos, rows)?,
            validity: None,
        },
    };
    let nulls = read_validity(buf, pos, column.len())?;
    match &mut column {
        Column::Int64 { validity, .. }
        | Column::Float64 { validity, .. }
        | Column::Utf8 { validity, .. }
        | Column::Bool { validity, .. } => *validity = nulls,
    }
    Ok(column)
}

/// A `count` varint, then that many little-endian words of `N` bytes.
fn read_words<T, const N: usize>(
    buf: &[u8],
    pos: &mut usize,
    rows: Option<usize>,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>> {
    let n = declared(varint::read_u64(buf, pos)?, rows, buf.len())?;
    let len = n
        .checked_mul(N)
        .ok_or_else(|| CodecError::Corrupt("word count overflow".into()))?;
    Ok(varint::take(buf, pos, len)?
        .chunks_exact(N)
        .map(|word| from_le(word.try_into().expect("N-byte word")))
        .collect())
}

/// A plain Utf8 column's values. The offsets must start at 0, never fall
/// and end at the byte count, and fall on character boundaries of valid
/// UTF-8, so each row alone is valid UTF-8: byte-level LIKE and the Utf8
/// `gather`/`filter` rely on this and never re-check a row.
fn plain_utf8(offsets: Vec<u32>, data: &[u8]) -> Result<Column> {
    if offsets.first() != Some(&0)
        || offsets.windows(2).any(|w| w[0] > w[1])
        || offsets.last().map(|&end| end as usize) != Some(data.len())
    {
        return Err(CodecError::Corrupt("bad utf8 offsets".into()));
    }
    let text = std::str::from_utf8(data).map_err(|_| CodecError::Corrupt("utf8 payload".into()))?;
    if !offsets.iter().all(|&o| text.is_char_boundary(o as usize)) {
        return Err(CodecError::Corrupt("utf8 offset splits a character".into()));
    }
    Ok(Column::Utf8 {
        offsets: offsets.into(),
        data: data.to_vec().into(),
        validity: None,
    })
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
    Ok(match varint::take(buf, pos, 1)?[0] {
        0 => Scalar::Null,
        1 => Scalar::Int(varint::read_i64(buf, pos)?),
        2 => Scalar::Float(f64::from_le_bytes(
            varint::take(buf, pos, 8)?.try_into().expect("8 bytes"),
        )),
        3 => Scalar::Str(
            std::str::from_utf8(varint::read_bytes(buf, pos)?)
                .map_err(|_| CodecError::Corrupt("scalar not utf8".into()))?
                .to_string(),
        ),
        4 => Scalar::Bool(varint::take(buf, pos, 1)?[0] != 0),
        other => return Err(CodecError::Corrupt(format!("bad scalar tag {other}"))),
    })
}

pub(crate) fn write_schema<S: Sink>(sink: &mut S, schema: &Schema) {
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

/// Deserialize a schema written by [`encode_schema`].
pub fn decode_schema(buf: &[u8], pos: &mut usize) -> Result<Schema> {
    let n = varint::read_u64(buf, pos)? as usize;
    if n > buf.len() {
        return Err(CodecError::Corrupt("field count implausible".into()));
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = std::str::from_utf8(varint::read_bytes(buf, pos)?)
            .map_err(|_| CodecError::Corrupt("field name not utf8".into()))?
            .to_string();
        let dtype = dtype_from_tag(varint::take(buf, pos, 1)?[0])?;
        let nullable = varint::take(buf, pos, 1)?[0] != 0;
        fields.push(Field {
            name,
            dtype,
            nullable,
        });
    }
    // `Schema::new` panics on a repeated name: reject one first.
    let mut names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
    names.sort_unstable();
    if let Some(twice) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(CodecError::Corrupt(format!(
            "duplicate field name '{}'",
            twice[0]
        )));
    }
    Ok(Schema::new(fields))
}

/// Serialize a batch to a DFW1 frame.
pub fn encode_batch(batch: &Batch, opts: &WireOptions) -> Vec<u8> {
    frame::encode(batch, Format::Wire(*opts))
}

/// Deserialize a frame; `key` must be supplied iff the frame is encrypted.
/// A DFE1 frame decodes too (see [the crate docs](crate#frames)).
pub fn decode_batch(frame: &[u8], key: Option<&Key>) -> Result<Batch> {
    frame::decode(frame, key)
}

/// Encoded size of a batch under the given options — the number the
/// movement ledger charges to a link when this stage's output crosses it.
/// Without compression it is counted, with no frame built and no CRC
/// computed.
pub fn wire_size(batch: &Batch, opts: &WireOptions) -> usize {
    frame::size(batch, Format::Wire(*opts))
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
    fn duplicate_field_names_are_corrupt() {
        // `Schema::new` panics on a repeated name.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 2);
        for _ in 0..2 {
            varint::write_bytes(&mut buf, b"a");
            buf.extend_from_slice(&[dtype_tag(DataType::Int64), 0]);
        }
        assert!(matches!(
            decode_schema(&buf, &mut 0),
            Err(CodecError::Corrupt(_))
        ));
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
    fn trailing_bytes_after_a_frame_are_corrupt() {
        let b = sample();
        let mut wire = encode_batch(&b, &WireOptions::plain());
        wire.extend_from_slice(&[0xAB; 4]);
        assert!(matches!(
            decode_batch(&wire, None),
            Err(CodecError::Corrupt(_))
        ));
        let mut edge = crate::edge::encode(&b, crate::edge::EdgeEncoding::Plain);
        edge.extend_from_slice(&[0xAB; 4]);
        assert!(matches!(
            crate::edge::decode(&edge),
            Err(CodecError::Corrupt(_))
        ));
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
