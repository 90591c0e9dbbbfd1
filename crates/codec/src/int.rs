//! Integer column codecs: run-length, delta, and bit-packing.
//!
//! These are the "keep data in memory compressed, decompress on demand"
//! codecs (§5.4): cheap enough that a near-memory functional unit can decode
//! at streaming rate, and effective on the sorted/clustered key columns the
//! workloads produce.
//!
//! Each codec is one writer, generic over the crate's byte sink: [`choose`]
//! runs the candidates into a counter and only the winner writes bytes.

use crate::sink::{counted, put_le, Sink};
use crate::varint;
use crate::{declared, CodecError, Result};

/// Tag of raw little-endian values: `count` varint, then 8 bytes a value.
pub const TAG_PLAIN: u8 = 0;
/// Tag of [`rle_encode`] streams.
pub const TAG_RLE: u8 = 1;
/// Tag of [`delta_encode`] streams.
pub const TAG_DELTA: u8 = 2;
/// Tag of [`bitpack_encode`] streams.
pub const TAG_BITPACK: u8 = 3;

fn write_plain<S: Sink>(sink: &mut S, values: &[i64]) {
    sink.put_varint(values.len() as u64);
    put_le(sink, values, i64::to_le_bytes);
}

fn write_rle<S: Sink>(sink: &mut S, values: &[i64]) {
    sink.put_varint(values.len() as u64);
    let mut rest = values;
    while let Some(&v) = rest.first() {
        let run = rest.iter().position(|&x| x != v).unwrap_or(rest.len());
        sink.put_varint_i64(v);
        sink.put_varint(run as u64);
        rest = &rest[run..];
    }
}

/// Write `values` as a count plus zigzag-varint deltas from the previous
/// value (the first from 0).
pub(crate) fn write_delta<S: Sink>(sink: &mut S, values: impl ExactSizeIterator<Item = i64>) {
    sink.put_varint(values.len() as u64);
    let mut prev = 0i64;
    for v in values {
        sink.put_varint_i64(v.wrapping_sub(prev));
        prev = v;
    }
}

fn write_bitpack<S: Sink>(sink: &mut S, values: &[i64]) {
    sink.put_varint(values.len() as u64);
    let Some(&first) = values.first() else {
        sink.put_varint_i64(0);
        sink.put(0);
        return;
    };
    let (min, max) = values
        .iter()
        .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    // wrapping_sub keeps the full-range case (MIN..MAX) correct: the
    // offset always fits u64 even when the i64 subtraction would overflow.
    let width = 64 - (max.wrapping_sub(min) as u64).leading_zeros();
    sink.put_varint_i64(min);
    sink.put(width as u8);
    if width == 0 {
        return;
    }
    let nbytes = (values.len() * width as usize).div_ceil(8);
    sink.put_with(nbytes, |dst| {
        // Offsets enter a 128-bit accumulator at its fill level; every 64
        // bits accumulated leave as one little-endian word.
        let mut acc = 0u128;
        let mut bits = 0u32;
        let mut words = dst.chunks_mut(8);
        for &v in values {
            acc |= u128::from(v.wrapping_sub(min) as u64) << bits;
            bits += width;
            if bits >= 64 {
                let word = words.next().expect("packed length covers every value");
                word.copy_from_slice(&(acc as u64).to_le_bytes());
                acc >>= 64;
                bits -= 64;
            }
        }
        if let Some(tail) = words.next() {
            let len = tail.len();
            tail.copy_from_slice(&(acc as u64).to_le_bytes()[..len]);
        }
    });
}

/// Write `values` with the codec `tag` names.
pub(crate) fn write_tagged<S: Sink>(sink: &mut S, tag: u8, values: &[i64]) {
    match tag {
        TAG_RLE => write_rle(sink, values),
        TAG_DELTA => write_delta(sink, values.iter().copied()),
        TAG_BITPACK => write_bitpack(sink, values),
        _ => write_plain(sink, values),
    }
}

/// Pick the codec for `values` from exact counted lengths, returning
/// `(tag, encoded length)`: RLE if it is no longer than delta and shorter
/// than 8 bytes a value, else delta if shorter than 8 bytes a value, else
/// plain. With `packed`, bit-packing replaces that winner only if strictly
/// shorter. No candidate is written.
pub fn choose(values: &[i64], packed: bool) -> (u8, usize) {
    let raw = values.len() * 8;
    let delta = counted(|c| write_delta(c, values.iter().copied()));
    // Every RLE run takes at least two bytes: when that floor already
    // loses, RLE cannot win and is not counted.
    let runs = values.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!values.is_empty());
    let rle_floor = varint::len_u64(values.len() as u64) + 2 * runs;
    let rle = (rle_floor <= delta && rle_floor < raw).then(|| counted(|c| write_rle(c, values)));
    let best = match rle {
        Some(rle) if rle <= delta && rle < raw => (TAG_RLE, rle),
        _ if delta < raw => (TAG_DELTA, delta),
        _ => (TAG_PLAIN, counted(|c| write_plain(c, values))),
    };
    if packed {
        let bitpack = counted(|c| write_bitpack(c, values));
        if bitpack < best.1 {
            return (TAG_BITPACK, bitpack);
        }
    }
    best
}

/// Encode `values` with the codec `tag` names ([`TAG_PLAIN`] for an
/// unknown tag).
pub fn encode_tagged(tag: u8, values: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_tagged(&mut out, tag, values);
    out
}

/// Encode `values` as (value, run-length) pairs, zigzag-varint packed.
pub fn rle_encode(values: &[i64]) -> Vec<u8> {
    encode_tagged(TAG_RLE, values)
}

/// Decode an RLE stream produced by [`rle_encode`].
pub fn rle_decode(buf: &[u8]) -> Result<Vec<i64>> {
    decode_tagged(TAG_RLE, buf)
}

/// Encode `values` as a first value plus zigzag-varint deltas.
pub fn delta_encode(values: &[i64]) -> Vec<u8> {
    encode_tagged(TAG_DELTA, values)
}

/// Decode a delta stream produced by [`delta_encode`].
pub fn delta_decode(buf: &[u8]) -> Result<Vec<i64>> {
    decode_tagged(TAG_DELTA, buf)
}

/// Encode `values` as frame-of-reference bit-packing: every value is
/// stored as an unsigned offset from the column minimum, packed at the
/// smallest bit width that holds the largest offset (§5.4's "keep data
/// compressed in memory" codec for clustered integer columns).
///
/// Layout: `count` varint, `min` zigzag varint, `width` byte (0..=64),
/// then `ceil(count * width / 8)` bytes of little-endian-packed offsets.
pub fn bitpack_encode(values: &[i64]) -> Vec<u8> {
    encode_tagged(TAG_BITPACK, values)
}

/// Decode a stream produced by [`bitpack_encode`]. Never panics on
/// truncated or bit-flipped input: every structural violation (bad width,
/// wrong byte count, non-zero padding bits) returns [`CodecError::Corrupt`].
pub fn bitpack_decode(buf: &[u8]) -> Result<Vec<i64>> {
    decode_tagged(TAG_BITPACK, buf)
}

/// Decode a `(tag, bytes)` pair: bytes from [`encode_tagged`] under the
/// tag [`choose`] picked. A stream may declare at most
/// [`MAX_EXPANSION`](crate::MAX_EXPANSION) values per byte.
pub fn decode_tagged(tag: u8, buf: &[u8]) -> Result<Vec<i64>> {
    decode_rows(tag, buf, None)
}

/// [`decode_tagged`] for a column of a container that declared `rows`: a
/// stream declaring another count is corrupt before anything is allocated.
pub(crate) fn decode_rows(tag: u8, buf: &[u8], rows: Option<usize>) -> Result<Vec<i64>> {
    let body: fn(&[u8], usize) -> Result<Vec<i64>> = match tag {
        TAG_PLAIN => plain_body,
        TAG_RLE => rle_body,
        TAG_DELTA => delta_body,
        TAG_BITPACK => bitpack_body,
        other => {
            return Err(CodecError::Corrupt(format!(
                "unknown int codec tag {other}"
            )))
        }
    };
    let mut pos = 0;
    let n = declared(varint::read_u64(buf, &mut pos)?, rows, buf.len())?;
    body(&buf[pos..], n)
}

fn plain_body(buf: &[u8], n: usize) -> Result<Vec<i64>> {
    if n.checked_mul(8) != Some(buf.len()) {
        return Err(CodecError::Corrupt("plain int payload size".into()));
    }
    Ok(buf
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

fn rle_body(buf: &[u8], n: usize) -> Result<Vec<i64>> {
    let mut pos = 0;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = varint::read_i64(buf, &mut pos)?;
        let run = varint::read_u64(buf, &mut pos)?;
        if run == 0 || run > (n - out.len()) as u64 {
            return Err(CodecError::Corrupt("rle run overruns length".into()));
        }
        out.resize(out.len() + run as usize, v);
    }
    if pos != buf.len() {
        return Err(CodecError::Corrupt("trailing bytes after rle".into()));
    }
    Ok(out)
}

fn delta_body(buf: &[u8], n: usize) -> Result<Vec<i64>> {
    if n > buf.len() {
        // Every delta takes at least one byte.
        return Err(CodecError::Corrupt("delta length implausible".into()));
    }
    let mut pos = 0;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        let d = varint::read_i64(buf, &mut pos)?;
        prev = prev.wrapping_add(d);
        out.push(prev);
    }
    if pos != buf.len() {
        return Err(CodecError::Corrupt("trailing bytes after delta".into()));
    }
    Ok(out)
}

fn bitpack_body(buf: &[u8], n: usize) -> Result<Vec<i64>> {
    let mut pos = 0;
    let min = varint::read_i64(buf, &mut pos)?;
    let width =
        *buf.get(pos)
            .ok_or_else(|| CodecError::Corrupt("bitpack width past end".into()))? as u32;
    pos += 1;
    if width > 64 {
        return Err(CodecError::Corrupt(format!("bitpack width {width} > 64")));
    }
    if width == 0 {
        if pos != buf.len() {
            return Err(CodecError::Corrupt("trailing bytes after bitpack".into()));
        }
        return Ok(vec![min; n]);
    }
    let nbits = n
        .checked_mul(width as usize)
        .ok_or_else(|| CodecError::Corrupt("bitpack length implausible".into()))?;
    let nbytes = nbits.div_ceil(8);
    let packed = pos
        .checked_add(nbytes)
        .and_then(|end| buf.get(pos..end))
        .ok_or_else(|| CodecError::Corrupt("bitpack payload truncated".into()))?;
    if pos + nbytes != buf.len() {
        return Err(CodecError::Corrupt("trailing bytes after bitpack".into()));
    }
    // Padding bits past the last value (all in the final byte) must be
    // zero, so a flipped bit in the tail is caught here rather than
    // silently ignored.
    if nbits % 8 != 0 && packed[nbytes - 1] >> (nbits % 8) != 0 {
        return Err(CodecError::Corrupt("bitpack padding bits set".into()));
    }
    let mask = u64::MAX >> (64 - width);
    let mut out = Vec::with_capacity(n);
    // Words enter a 128-bit accumulator above the bits still unread;
    // each value is the low `width` bits.
    let mut acc = 0u128;
    let mut have = 0u32;
    let mut words = packed.chunks(8);
    for _ in 0..n {
        if have < width {
            let mut word = [0u8; 8];
            if let Some(chunk) = words.next() {
                word[..chunk.len()].copy_from_slice(chunk);
            }
            acc |= u128::from(u64::from_le_bytes(word)) << have;
            have += 64;
        }
        out.push(min.wrapping_add((acc as u64 & mask) as i64));
        acc >>= width;
        have -= width;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrip() {
        let values = vec![5i64, 5, 5, -2, -2, 9, 9, 9, 9, 0];
        assert_eq!(rle_decode(&rle_encode(&values)).unwrap(), values);
    }

    #[test]
    fn rle_compresses_runs() {
        let values = vec![42i64; 10_000];
        let enc = rle_encode(&values);
        assert!(
            enc.len() < 16,
            "RLE of constant run should be tiny, got {}",
            enc.len()
        );
    }

    #[test]
    fn rle_empty() {
        assert_eq!(rle_decode(&rle_encode(&[])).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn delta_roundtrip() {
        let values: Vec<i64> = (0..1000).map(|i| i * 3 + 7).collect();
        assert_eq!(delta_decode(&delta_encode(&values)).unwrap(), values);
    }

    #[test]
    fn delta_compresses_monotonic() {
        let values: Vec<i64> = (1_000_000..1_010_000).collect();
        let enc = delta_encode(&values);
        // ~1.x bytes per value instead of 8.
        assert!(enc.len() < values.len() * 2);
    }

    #[test]
    fn delta_handles_extremes() {
        let values = vec![i64::MIN, i64::MAX, 0, -1, i64::MAX];
        assert_eq!(delta_decode(&delta_encode(&values)).unwrap(), values);
    }

    #[test]
    fn best_picks_rle_for_runs() {
        let values = vec![7i64; 1000];
        assert_eq!(choose(&values, false).0, TAG_RLE);
    }

    #[test]
    fn best_picks_delta_for_sequences() {
        let values: Vec<i64> = (0..1000).collect();
        assert_eq!(choose(&values, false).0, TAG_DELTA);
    }

    #[test]
    fn ties_keep_the_earlier_codec() {
        // RLE and delta both take 3 bytes: RLE wins the tie.
        assert_eq!(choose(&[5, 5], false), (TAG_RLE, 3));
        // Bit-packing ties RLE at 3 bytes: it must be strictly shorter.
        assert_eq!(choose(&[7, 7, 7], true), (TAG_RLE, 3));
    }

    #[test]
    fn best_picks_plain_for_wide_noise() {
        let mut state = 1u64;
        let values: Vec<i64> = (0..100)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state as i64
            })
            .collect();
        let (tag, len) = choose(&values, false);
        assert_eq!((tag, len), (TAG_PLAIN, 1 + 8 * values.len()));
    }

    #[test]
    fn tagged_roundtrip_all_shapes() {
        for values in [
            vec![7i64; 100],
            (0..100).collect::<Vec<i64>>(),
            vec![i64::MIN, 5, i64::MAX, -9, 0],
            vec![],
        ] {
            for packed in [false, true] {
                let (tag, len) = choose(&values, packed);
                let bytes = encode_tagged(tag, &values);
                assert_eq!(bytes.len(), len, "tag {tag}");
                assert_eq!(decode_tagged(tag, &bytes).unwrap(), values);
            }
        }
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        assert!(rle_decode(&[0xff]).is_err());
        assert!(delta_decode(&[5, 1]).is_err());
        assert!(decode_tagged(9, &[]).is_err());
        // Run overrunning declared length.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 2);
        varint::write_i64(&mut buf, 1);
        varint::write_u64(&mut buf, 5); // run of 5 > declared 2
        assert!(rle_decode(&buf).is_err());
    }

    #[test]
    fn bitpack_roundtrip_shapes() {
        for values in [
            vec![],
            vec![0i64],
            vec![7i64; 1000],
            (0..1000).collect::<Vec<i64>>(),
            vec![-5i64, 1000, 3, -5, 999],
            vec![i64::MIN, i64::MAX, 0, -1],
            vec![i64::MIN; 10],
        ] {
            assert_eq!(bitpack_decode(&bitpack_encode(&values)).unwrap(), values);
        }
    }

    #[test]
    fn bitpack_matches_per_bit_reference() {
        // The word-at-a-time packer must lay bits out exactly like packing
        // one bit at a time, at every width and every tail length.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for bits in 1..=64u32 {
            for n in [1usize, 7, 8, 9, 63, 64, 65, 130] {
                let values: Vec<i64> = (0..n)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (state >> (64 - bits)) as i64 - 3
                    })
                    .collect();
                let enc = bitpack_encode(&values);
                let min = *values.iter().min().unwrap();
                let max = *values.iter().max().unwrap();
                let width = 64 - (max.wrapping_sub(min) as u64).leading_zeros() as usize;
                let mut reference = vec![0u8; (n * width).div_ceil(8)];
                for (i, &v) in values.iter().enumerate() {
                    let diff = v.wrapping_sub(min) as u64;
                    for k in 0..width {
                        if diff >> k & 1 == 1 {
                            reference[(i * width + k) / 8] |= 1 << ((i * width + k) % 8);
                        }
                    }
                }
                assert_eq!(
                    &enc[enc.len() - reference.len()..],
                    &reference[..],
                    "width {width} n {n}"
                );
                assert_eq!(bitpack_decode(&enc).unwrap(), values, "width {width} n {n}");
            }
        }
    }

    #[test]
    fn bitpack_width_tracks_range() {
        // 0..1024 needs 10 bits/value: ~1280 bytes of payload, not 8000.
        let values: Vec<i64> = (0..1000).map(|i| i % 1024).collect();
        let enc = bitpack_encode(&values);
        assert!(
            enc.len() < 1300,
            "10-bit packing should need ~1.25 kB, got {}",
            enc.len()
        );
        // Constant columns collapse to the header alone.
        let constant = bitpack_encode(&vec![123_456i64; 100_000]);
        assert!(
            constant.len() < 16,
            "width-0 header only, got {}",
            constant.len()
        );
    }

    #[test]
    fn plain_count_overflow_is_corrupt() {
        // 2^61 + 1 declared values: an unchecked `n * 8` wraps to 8 bytes.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, (1 << 61) + 1);
        buf.extend_from_slice(&7i64.to_le_bytes());
        assert!(matches!(
            decode_tagged(0, &buf),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn bitpack_corruption_errors_not_panics() {
        let good = bitpack_encode(&(0..100).map(|i| i % 17).collect::<Vec<i64>>());
        for cut in 0..good.len() {
            assert!(bitpack_decode(&good[..cut]).is_err(), "truncation at {cut}");
        }
        // Width byte out of range.
        let mut bad = good.clone();
        // count varint (1 byte: 100), min varint (1 byte: 0), width byte next.
        bad[2] = 65;
        assert!(bitpack_decode(&bad).is_err());
        // A flipped padding bit in the final byte is detected.
        let mut padded = bitpack_encode(&[0i64, 1, 0]); // 1-bit width, 3 values
        let last = padded.len() - 1;
        padded[last] |= 0x80;
        assert!(bitpack_decode(&padded).is_err());
        // Trailing garbage after the packed payload.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(bitpack_decode(&trailing).is_err());
    }

    #[test]
    fn packed_chooser_wins_on_bounded_noise() {
        // Noisy values in a small range: RLE useless, delta ~6 bits/value
        // after zigzag rounds up to a byte, bit-packing takes 5 bits.
        let values: Vec<i64> = (0..4096).map(|i| (i * 2654435761u64 as i64) % 31).collect();
        let (tag, len) = choose(&values, true);
        assert_eq!(tag, TAG_BITPACK, "bounded-noise column should bit-pack");
        let bytes = encode_tagged(tag, &values);
        assert_eq!(bytes.len(), len);
        assert_eq!(decode_tagged(tag, &bytes).unwrap(), values);
        // And the packed chooser never loses to the unpacked one.
        assert!(len <= choose(&values, false).1);
    }
}
