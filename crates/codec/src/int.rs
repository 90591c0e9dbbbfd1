//! Integer column codecs: run-length and delta encoding.
//!
//! These are the "keep data in memory compressed, decompress on demand"
//! codecs (§5.4): cheap enough that a near-memory functional unit can decode
//! at streaming rate, and effective on the sorted/clustered key columns the
//! workloads produce.

use crate::varint;
use crate::{CodecError, Result};

/// Encode `values` as (value, run-length) pairs, zigzag-varint packed.
pub fn rle_encode(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, values.len() as u64);
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        varint::write_i64(&mut out, v);
        varint::write_u64(&mut out, run as u64);
        i += run;
    }
    out
}

/// Decode an RLE stream produced by [`rle_encode`].
pub fn rle_decode(buf: &[u8]) -> Result<Vec<i64>> {
    let mut pos = 0;
    let n = varint::read_u64(buf, &mut pos)? as usize;
    // Cap allocation by the input size: each run needs >= 2 bytes.
    if n > buf.len().saturating_mul(u32::MAX as usize) {
        return Err(CodecError::Corrupt("rle length implausible".into()));
    }
    let mut out = Vec::with_capacity(n.min(1 << 20));
    while out.len() < n {
        let v = varint::read_i64(buf, &mut pos)?;
        let run = varint::read_u64(buf, &mut pos)? as usize;
        if run == 0 || out.len() + run > n {
            return Err(CodecError::Corrupt("rle run overruns length".into()));
        }
        out.resize(out.len() + run, v);
    }
    if pos != buf.len() {
        return Err(CodecError::Corrupt("trailing bytes after rle".into()));
    }
    Ok(out)
}

/// Encode `values` as a first value plus zigzag-varint deltas.
pub fn delta_encode(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, values.len() as u64);
    let mut prev = 0i64;
    for &v in values {
        varint::write_i64(&mut out, v.wrapping_sub(prev));
        prev = v;
    }
    out
}

/// Decode a delta stream produced by [`delta_encode`].
pub fn delta_decode(buf: &[u8]) -> Result<Vec<i64>> {
    let mut pos = 0;
    let n = varint::read_u64(buf, &mut pos)? as usize;
    if n > buf.len() {
        // Every delta takes at least one byte.
        return Err(CodecError::Corrupt("delta length implausible".into()));
    }
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

/// Encode `values` as frame-of-reference bit-packing: every value is
/// stored as an unsigned offset from the column minimum, packed at the
/// smallest bit width that holds the largest offset (§5.4's "keep data
/// compressed in memory" codec for clustered integer columns).
///
/// Layout: `count` varint, `min` zigzag varint, `width` byte (0..=64),
/// then `ceil(count * width / 8)` bytes of little-endian-packed offsets.
pub fn bitpack_encode(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, values.len() as u64);
    if values.is_empty() {
        varint::write_i64(&mut out, 0);
        out.push(0);
        return out;
    }
    let min = values.iter().copied().min().expect("non-empty");
    // wrapping_sub keeps the full-range case (MIN..MAX) correct: the
    // offset always fits u64 even when the i64 subtraction would overflow.
    let max_diff = values
        .iter()
        .map(|&v| v.wrapping_sub(min) as u64)
        .max()
        .expect("non-empty");
    let width = (64 - max_diff.leading_zeros()) as u8;
    varint::write_i64(&mut out, min);
    out.push(width);
    if width == 0 {
        return out;
    }
    let nbytes = (values.len() * width as usize).div_ceil(8);
    let mut packed = vec![0u8; nbytes];
    let mut bit = 0usize;
    for &v in values {
        let diff = v.wrapping_sub(min) as u64;
        for k in 0..width as usize {
            if diff >> k & 1 == 1 {
                packed[(bit + k) / 8] |= 1 << ((bit + k) % 8);
            }
        }
        bit += width as usize;
    }
    out.extend_from_slice(&packed);
    out
}

/// Decode a stream produced by [`bitpack_encode`]. Never panics on
/// truncated or bit-flipped input: every structural violation (bad width,
/// wrong byte count, non-zero padding bits) returns [`CodecError::Corrupt`].
pub fn bitpack_decode(buf: &[u8]) -> Result<Vec<i64>> {
    let mut pos = 0;
    let n = varint::read_u64(buf, &mut pos)? as usize;
    let min = varint::read_i64(buf, &mut pos)?;
    let width =
        *buf.get(pos)
            .ok_or_else(|| CodecError::Corrupt("bitpack width past end".into()))? as usize;
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
        .checked_mul(width)
        .ok_or_else(|| CodecError::Corrupt("bitpack length implausible".into()))?;
    let nbytes = nbits.div_ceil(8);
    let packed = buf
        .get(pos..pos + nbytes)
        .ok_or_else(|| CodecError::Corrupt("bitpack payload truncated".into()))?;
    if pos + nbytes != buf.len() {
        return Err(CodecError::Corrupt("trailing bytes after bitpack".into()));
    }
    // Padding bits past the last value must be zero, so a flipped bit in
    // the tail is caught here rather than silently ignored.
    for k in nbits..nbytes * 8 {
        if packed[k / 8] >> (k % 8) & 1 == 1 {
            return Err(CodecError::Corrupt("bitpack padding bits set".into()));
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut bit = 0usize;
    for _ in 0..n {
        let mut diff = 0u64;
        for k in 0..width {
            if packed[(bit + k) / 8] >> ((bit + k) % 8) & 1 == 1 {
                diff |= 1 << k;
            }
        }
        bit += width;
        out.push(min.wrapping_add(diff as i64));
    }
    Ok(out)
}

/// Pick the better of RLE/delta/plain for `values` by trial encoding,
/// returning `(tag, bytes)`. Tags: 0 = plain LE, 1 = RLE, 2 = delta.
pub fn encode_best(values: &[i64]) -> (u8, Vec<u8>) {
    let plain_len = values.len() * 8;
    let rle = rle_encode(values);
    let delta = delta_encode(values);
    if rle.len() <= delta.len() && rle.len() < plain_len {
        (1, rle)
    } else if delta.len() < plain_len {
        (2, delta)
    } else {
        let mut out = Vec::with_capacity(plain_len + 10);
        varint::write_u64(&mut out, values.len() as u64);
        for &v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        (0, out)
    }
}

/// Like [`encode_best`] but with bit-packing (tag 3) in the running.
///
/// Kept separate from `encode_best` so the storage wire format and the
/// serve protocol stay byte-identical frame-for-frame: only the edge
/// codec ([`crate::edge`]) opts into the wider chooser.
pub fn encode_best_packed(values: &[i64]) -> (u8, Vec<u8>) {
    let (tag, bytes) = encode_best(values);
    let packed = bitpack_encode(values);
    if packed.len() < bytes.len() {
        (3, packed)
    } else {
        (tag, bytes)
    }
}

/// Decode a `(tag, bytes)` pair produced by [`encode_best`] or
/// [`encode_best_packed`].
pub fn decode_tagged(tag: u8, buf: &[u8]) -> Result<Vec<i64>> {
    match tag {
        0 => {
            let mut pos = 0;
            let n = varint::read_u64(buf, &mut pos)? as usize;
            if n.checked_mul(8) != Some(buf.len() - pos) {
                return Err(CodecError::Corrupt("plain int payload size".into()));
            }
            Ok(buf[pos..]
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
        1 => rle_decode(buf),
        2 => delta_decode(buf),
        3 => bitpack_decode(buf),
        other => Err(CodecError::Corrupt(format!(
            "unknown int codec tag {other}"
        ))),
    }
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
        let (tag, _) = encode_best(&values);
        assert_eq!(tag, 1);
    }

    #[test]
    fn best_picks_delta_for_sequences() {
        let values: Vec<i64> = (0..1000).collect();
        let (tag, _) = encode_best(&values);
        assert_eq!(tag, 2);
    }

    #[test]
    fn tagged_roundtrip_all_shapes() {
        for values in [
            vec![7i64; 100],
            (0..100).collect::<Vec<i64>>(),
            vec![i64::MIN, 5, i64::MAX, -9, 0],
            vec![],
        ] {
            let (tag, bytes) = encode_best(&values);
            assert_eq!(decode_tagged(tag, &bytes).unwrap(), values);
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
        let (tag, bytes) = encode_best_packed(&values);
        assert_eq!(tag, 3, "bounded-noise column should bit-pack");
        assert_eq!(decode_tagged(tag, &bytes).unwrap(), values);
        // And the chooser never loses to encode_best.
        let (_, best) = encode_best(&values);
        assert!(bytes.len() <= best.len());
    }
}
