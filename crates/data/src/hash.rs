//! The in-tree Fx hasher: FxHash-style mixing, fast, deterministic and
//! dependency-free.
//!
//! Hash tables that must not depend on a per-process random seed (group
//! tables, dictionary indexes) key through [`FxHashMap`]. Callers resolve
//! equality on the keys themselves, so a collision only costs a probe,
//! never correctness.

use std::hash::{BuildHasherDefault, Hasher};

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fold one word into a running hash.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(FX_SEED)
}

/// Fold `bytes` into a running hash eight bytes at a time, then their
/// length.
///
/// A tail of 1-7 bytes is read with fixed-size loads rather than copied
/// into a padded word: two overlapping 4-byte loads for 4-7 bytes, or the
/// first, middle and last byte for 1-3. Either way every tail byte enters
/// the hash, and with the length folded in last, equal-length tails that
/// differ hash differently.
#[inline]
pub fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    let n = rem.len();
    if n >= 4 {
        let lo = u32::from_le_bytes(rem[..4].try_into().expect("4-byte head"));
        let hi = u32::from_le_bytes(rem[n - 4..].try_into().expect("4-byte tail"));
        h = mix(h, u64::from(lo) | u64::from(hi) << 32);
    } else if n > 0 {
        let v = u64::from(rem[0]) | u64::from(rem[n / 2]) << 8 | u64::from(rem[n - 1]) << 16;
        h = mix(h, v);
    }
    mix(h, bytes.len() as u64)
}

/// A [`Hasher`] over [`mix`] and [`hash_bytes`]. Integer writes take the
/// single-multiply path.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.hash = hash_bytes(self.hash, bytes);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = mix(self.hash, v);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.hash = mix(self.hash, v as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.hash = mix(self.hash, v as u64);
    }
}

/// Builds [`FxHasher`]s; every map built with it hashes identically in
/// every process.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A hash map keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_process_independent() {
        // Pinned values: a seed-stable hasher must not change between runs,
        // and two builders hash alike (std's RandomState would not).
        assert_eq!(mix(0, 1), FX_SEED);
        assert_eq!(hash_bytes(0, b""), 0);
        let h = |s: &str| FxBuildHasher::default().hash_one(s);
        assert_eq!(h("region"), h("region"));
        assert_ne!(h("region"), h("regiom"));
    }

    #[test]
    fn tail_bytes_and_length_both_count() {
        assert_ne!(hash_bytes(7, b"abcdefgh1"), hash_bytes(7, b"abcdefgh2"));
        assert_ne!(hash_bytes(7, b"ab"), hash_bytes(7, b"ab\0"));
        // Every byte of a 1-7 byte tail reaches the hash.
        for len in 1..8 {
            let base = vec![b'x'; 8 + len];
            for at in 8..8 + len {
                let mut other = base.clone();
                other[at] = b'y';
                assert_ne!(
                    hash_bytes(7, &base),
                    hash_bytes(7, &other),
                    "len {len} at {at}"
                );
            }
        }
    }

    #[test]
    fn map_round_trips_keys() {
        let mut m: FxHashMap<&[u8], u32> = FxHashMap::default();
        for (i, k) in [&b"eu"[..], b"us", b"ap"].into_iter().enumerate() {
            m.insert(k, i as u32);
        }
        assert_eq!(m.get(&b"us"[..]), Some(&1));
        assert_eq!(m.get(&b"xx"[..]), None);
    }
}
