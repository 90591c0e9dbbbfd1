//! LZ-lite: a byte-level LZ77 block compressor with a 4-byte hash matcher.
//!
//! This is the generic "compression" pipeline stage (§1) applied to whole
//! frames on the wire and to storage pages. The format is LZ4-like —
//! alternating literal runs and (length, distance) matches — chosen because
//! both encoder and decoder stream in one pass, which is exactly the
//! stateless, non-blocking property the paper requires of data-path
//! operators (§3.3).
//!
//! Frame layout: `varint uncompressed_len`, then repeated sequences of
//! `varint literal_len, literal bytes, varint match_len, varint distance`.
//! A `match_len` of 0 terminates a sequence without a match (only valid as
//! the final sequence). Minimum real match length is 4.

use crate::varint;
use crate::{CodecError, Result};

const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 15;

/// The 4-byte little-endian word at `at`.
#[inline]
fn word4(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("four bytes"))
}

/// The 8-byte little-endian word at `at`.
#[inline]
fn word8(input: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(input[at..at + 8].try_into().expect("eight bytes"))
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compress `input` into an LZ-lite frame.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    varint::write_u64(&mut out, input.len() as u64);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut literal_start = 0usize;
    while pos + MIN_MATCH <= input.len() {
        let v = word4(input, pos);
        let h = hash4(v);
        let candidate = table[h];
        table[h] = pos;
        if candidate != usize::MAX && candidate < pos && word4(input, candidate) == v {
            // Extend the match as far as it goes, eight bytes at a time:
            // the first differing byte is the lowest set byte of the XOR.
            let mut len = MIN_MATCH;
            while pos + len + 8 <= input.len() {
                let diff = word8(input, candidate + len) ^ word8(input, pos + len);
                if diff != 0 {
                    len += diff.trailing_zeros() as usize / 8;
                    break;
                }
                len += 8;
            }
            while pos + len < input.len() && input[candidate + len] == input[pos + len] {
                len += 1;
            }
            let distance = pos - candidate;
            varint::write_u64(&mut out, (pos - literal_start) as u64);
            out.extend_from_slice(&input[literal_start..pos]);
            varint::write_u64(&mut out, len as u64);
            varint::write_u64(&mut out, distance as u64);
            pos += len;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    // Trailing literals.
    varint::write_u64(&mut out, (input.len() - literal_start) as u64);
    out.extend_from_slice(&input[literal_start..]);
    varint::write_u64(&mut out, 0); // terminator: no match
    out
}

/// Decompress an LZ-lite frame.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let total = varint::read_u64(frame, &mut pos)? as usize;
    if total > frame.len().saturating_mul(1 << 16) {
        return Err(CodecError::Corrupt("decompressed size implausible".into()));
    }
    let mut out = Vec::with_capacity(total);
    loop {
        let lit_len = varint::read_u64(frame, &mut pos)? as usize;
        let lit_end = pos
            .checked_add(lit_len)
            .ok_or_else(|| CodecError::Corrupt("literal overflow".into()))?;
        let literals = frame
            .get(pos..lit_end)
            .ok_or_else(|| CodecError::Corrupt("literal run past end".into()))?;
        out.extend_from_slice(literals);
        pos = lit_end;
        let match_len = varint::read_u64(frame, &mut pos)? as usize;
        if match_len == 0 {
            break;
        }
        if match_len < MIN_MATCH {
            return Err(CodecError::Corrupt("match below minimum".into()));
        }
        let distance = varint::read_u64(frame, &mut pos)? as usize;
        if distance == 0 || distance > out.len() {
            return Err(CodecError::Corrupt("match distance out of range".into()));
        }
        // Bound the copy by the declared size before making it: the match
        // length is untrusted and a checksum is no bound.
        if out.len().saturating_add(match_len) > total {
            return Err(CodecError::Corrupt("output exceeds declared size".into()));
        }
        // Overlapping copies are legal (distance < match_len): the source
        // window repeats with period `distance`, so copy from its start in
        // chunks that double each round; a non-overlapping match is one copy.
        let start = out.len() - distance;
        let mut left = match_len;
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
    if out.len() != total {
        return Err(CodecError::Corrupt(format!(
            "decompressed {} != declared {}",
            out.len(),
            total
        )));
    }
    if pos != frame.len() {
        return Err(CodecError::Corrupt("trailing bytes after frame".into()));
    }
    Ok(out)
}

/// Compression ratio achieved on `input` (plain / compressed); >= 1.0 means
/// the codec helped. Used by the wire layer to decide whether to keep the
/// compressed form.
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    input.len() as f64 / compress(input).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog; \
the quick brown fox jumps again and again and again"
            .to_vec();
        let frame = compress(&data);
        assert_eq!(decompress(&frame).unwrap(), data);
        assert!(frame.len() < data.len());
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"abc"] {
            assert_eq!(decompress(&compress(data)).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_incompressible() {
        // Pseudo-random bytes: should round-trip even if it expands.
        let mut state = 0x12345u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn overlapping_match_rle_style() {
        // 10k of one byte compresses via self-referential matches.
        let data = vec![7u8; 10_000];
        let frame = compress(&data);
        assert!(frame.len() < 100, "frame {} too large", frame.len());
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn repetitive_structured_data() {
        let mut data = Vec::new();
        for i in 0..1000u32 {
            data.extend_from_slice(&(i % 10).to_le_bytes());
        }
        let frame = compress(&data);
        assert!(frame.len() < data.len() / 4);
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn corrupt_frames_error() {
        let good = compress(b"hello hello hello hello");
        // Truncation at every prefix must error, never panic.
        for cut in 0..good.len() {
            let _ = decompress(&good[..cut]); // must not panic
        }
        assert!(decompress(&[]).is_err());
        // Bogus distance.
        let mut bad = Vec::new();
        varint::write_u64(&mut bad, 100);
        varint::write_u64(&mut bad, 0); // no literals
        varint::write_u64(&mut bad, 8); // match of 8
        varint::write_u64(&mut bad, 3); // distance 3 with empty output
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn match_past_declared_size_is_corrupt_before_copying() {
        // Declared size 10, one literal, then a 2^40-byte match at
        // distance 1: rejected without allocating the match.
        let mut frame = Vec::new();
        varint::write_u64(&mut frame, 10);
        varint::write_u64(&mut frame, 1);
        frame.push(b'x');
        varint::write_u64(&mut frame, 1 << 40);
        varint::write_u64(&mut frame, 1);
        assert_eq!(frame.len(), 10);
        assert!(matches!(decompress(&frame), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn overlapping_matches_repeat_their_period() {
        for period in 1..=9usize {
            let mut data: Vec<u8> = (0..period as u8).map(|b| b.wrapping_mul(37)).collect();
            for i in 0..500 {
                data.push(data[i]);
            }
            data.extend_from_slice(b"tail");
            assert_eq!(
                decompress(&compress(&data)).unwrap(),
                data,
                "period {period}"
            );
        }
    }

    #[test]
    fn ratio_reports_gain() {
        assert!(ratio(&vec![0u8; 4096]) > 10.0);
    }
}
