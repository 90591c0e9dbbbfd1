//! LEB128 varint and zigzag primitives shared by the integer codecs and the
//! wire format.

use crate::{CodecError, Result};

/// Append `value` as an unsigned LEB128 varint.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    if value < 0x80 {
        out.push(value as u8);
        return;
    }
    let mut bytes = [0u8; 10];
    let mut n = 0;
    while value >= 0x80 {
        bytes[n] = (value as u8) | 0x80;
        value >>= 7;
        n += 1;
    }
    bytes[n] = value as u8;
    out.extend_from_slice(&bytes[..=n]);
}

/// Bytes [`write_u64`] takes for `value`: one per started group of 7
/// significant bits.
#[inline]
pub fn len_u64(value: u64) -> usize {
    let bits = 64 - (value | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Read an unsigned LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos` past it.
#[inline]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    if let Some(&byte) = buf.get(*pos) {
        if byte < 0x80 {
            *pos += 1;
            return Ok(u64::from(byte));
        }
    }
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| CodecError::Corrupt("varint past end".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint too long".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // Reject non-canonical encodings that would overflow.
            if shift == 63 && (byte & 0x7e) != 0 {
                return Err(CodecError::Corrupt("varint overflows u64".into()));
            }
            return Ok(value);
        }
        shift += 7;
    }
}

/// Map a signed value to unsigned zigzag form (small magnitudes stay small).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed value as zigzag + varint.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag(value));
}

/// Read a zigzag-varint signed value.
#[inline]
pub fn read_i64(buf: &[u8], pos: &mut usize) -> Result<i64> {
    read_u64(buf, pos).map(unzigzag)
}

/// Append a `u32` length prefix as varint, then the raw bytes.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Read a varint-length-prefixed byte slice.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = read_u64(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| CodecError::Corrupt("length overflow".into()))?;
    let slice = buf
        .get(*pos..end)
        .ok_or_else(|| CodecError::Corrupt("byte run past end".into()))?;
    *pos = end;
    Ok(slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn len_matches_written_bytes() {
        let mut probes = vec![0u64, u64::MAX];
        for shift in 0..64 {
            probes.extend([(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1]);
        }
        for v in probes {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(len_u64(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn i64_roundtrip_edges() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -12345, 12345] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn overlong_varint_errors() {
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello");
        write_bytes(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), b"hello");
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), b"");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn bytes_truncated_errors() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello");
        buf.truncate(3);
        let mut pos = 0;
        assert!(read_bytes(&buf, &mut pos).is_err());
    }
}
