//! LZ-lite: a byte-level LZ77 block compressor with a 4-byte hash matcher.
//!
//! This is the generic "compression" pipeline stage (§1), applied to whole
//! frame payloads: DFW1 with `compress`, DFE1 `lz` and `columnar+lz`. The
//! format is LZ4-like — alternating literal runs and (length, distance)
//! matches — chosen because both encoder and decoder stream in one pass,
//! which is exactly the stateless, non-blocking property the paper
//! requires of data-path operators (§3.3).
//!
//! Frame layout: `varint uncompressed_len`, then repeated sequences of
//! `varint literal_len, literal bytes, varint match_len, varint distance`.
//! A `match_len` of 0 terminates a sequence without a match (only valid as
//! the final sequence). Minimum real match length is 4.
//!
//! The parse is greedy and skips ahead on misses, as LZ4's acceleration
//! does. At each position it hashes the next 4-byte word, takes the last
//! position hashed to the same slot as the candidate, and on a verified
//! match extends it eight bytes at a time. On a miss it steps
//! `1 + misses / 32` bytes, where `misses` counts the misses since the last
//! match: a stretch with no repeats, such as a column of random doubles,
//! is hashed at a few positions per hundred bytes instead of at every one,
//! and a match resets the step to one byte. A match carries at most 2^16
//! bytes and a sequence takes at least three (literal length, match
//! length, distance), so no stream [`compress`] writes expands by more than
//! 2^16 / 3 bytes per byte: [`decompress`] accepts up to
//! [`MAX_EXPANSION`] (2^16). A longer run becomes several matches.

use crate::varint;
use crate::{CodecError, Result, MAX_EXPANSION};

const MIN_MATCH: usize = 4;
/// The longest match one sequence carries; a longer run becomes several.
const MAX_MATCH: usize = MAX_EXPANSION;
const HASH_BITS: u32 = 15;
/// Every `1 << SKIP_SHIFT` consecutive misses lengthen the parse's step by
/// one byte.
const SKIP_SHIFT: u32 = 5;

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
    parse(input, 0).0
}

/// The frame [`compress`] writes, and how many positions its parse hashed.
/// A table slot holds the low 32 bits of `origin` plus the last position
/// hashed to it, and an empty slot reads as position 0; the distance back
/// to a candidate is the wrapped difference. Past 4 GiB a slot may name a
/// position a multiple of 4 GiB after the one it was written for, which
/// the word comparison rejects like any other false candidate. `compress` starts
/// at origin 0; a test starts near `u32::MAX` to wrap within a small input.
fn parse(input: &[u8], origin: u32) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    varint::write_u64(&mut out, input.len() as u64);
    let mut table = vec![origin; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut literal_start = 0usize;
    let mut misses = 0usize;
    let mut hashed = 0usize;
    while pos + MIN_MATCH <= input.len() {
        let v = word4(input, pos);
        let h = hash4(v);
        let stamp = origin.wrapping_add(pos as u32);
        let candidate = pos - stamp.wrapping_sub(table[h]) as usize;
        table[h] = stamp;
        hashed += 1;
        if candidate < pos && word4(input, candidate) == v {
            // Extend the match as far as it goes, up to `MAX_MATCH`, eight
            // bytes at a time: the first differing byte is the lowest set
            // byte of the XOR.
            let end = input.len().min(pos + MAX_MATCH);
            let mut len = MIN_MATCH;
            while pos + len + 8 <= end {
                let diff = word8(input, candidate + len) ^ word8(input, pos + len);
                if diff != 0 {
                    len += diff.trailing_zeros() as usize / 8;
                    break;
                }
                len += 8;
            }
            while pos + len < end && input[candidate + len] == input[pos + len] {
                len += 1;
            }
            let distance = pos - candidate;
            varint::write_u64(&mut out, (pos - literal_start) as u64);
            out.extend_from_slice(&input[literal_start..pos]);
            varint::write_u64(&mut out, len as u64);
            varint::write_u64(&mut out, distance as u64);
            pos += len;
            literal_start = pos;
            misses = 0;
        } else {
            pos += 1 + (misses >> SKIP_SHIFT);
            misses += 1;
        }
    }
    // Trailing literals.
    varint::write_u64(&mut out, (input.len() - literal_start) as u64);
    out.extend_from_slice(&input[literal_start..]);
    varint::write_u64(&mut out, 0); // terminator: no match
    (out, hashed)
}

/// Decompress an LZ-lite frame.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let total = varint::read_u64(frame, &mut pos)? as usize;
    if total > frame.len().saturating_mul(MAX_EXPANSION) {
        return Err(CodecError::Corrupt("decompressed size implausible".into()));
    }
    // Reserve the declared size, but at most 256 bytes per input byte: a
    // size forged up to the cap then fails when the input runs out, not at
    // the reservation, and a frame that expands further grows as it writes.
    let mut out = Vec::with_capacity(total.min(frame.len().saturating_mul(1 << 8)));
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

    /// `len` pseudo-random bytes from `seed`.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn roundtrip_incompressible() {
        // Pseudo-random bytes: should round-trip even if it expands.
        let data = noise(4096, 0x12345);
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn parse_skips_over_incompressible_bytes() {
        // A per-byte parse hashes every position of 1 MiB of noise; the
        // skipping parse hashes under 1% of them.
        let data = noise(1 << 20, 7);
        let (frame, hashed) = parse(&data, 0);
        assert!(
            hashed <= data.len() / 8,
            "hashed {hashed} of {} positions",
            data.len()
        );
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn a_repeat_after_noise_is_still_found() {
        // 256 KiB of noise, then its first 64 KiB again: the step is long
        // by the end of the noise, yet the parse lands in the repeat and
        // matches the rest of it, so the repeat costs under 512 bytes.
        let mut data = noise(1 << 18, 9);
        data.extend_from_within(..1 << 16);
        let frame = compress(&data);
        assert!(
            frame.len() < (1 << 18) + 512,
            "frame {} for {} bytes",
            frame.len(),
            data.len()
        );
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn positions_past_4_gib_wrap_the_table() {
        // Started short of 2^32, the position stamps wrap inside the input,
        // as they do 4 GiB into a real one; the frame must not change.
        let mut data = noise(3000, 3);
        for i in 0..20_000 {
            data.push(data[i * 7 % 3000]);
        }
        data.extend(noise(5000, 4));
        let frame = compress(&data);
        for origin in [u32::MAX - 4000, u32::MAX - 20_000, u32::MAX] {
            assert_eq!(parse(&data, origin).0, frame, "origin {origin}");
        }
        assert_eq!(decompress(&frame).unwrap(), data);
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
}
