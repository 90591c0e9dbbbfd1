//! CRC32 (IEEE 802.3 polynomial): carry-less-multiply folding where the
//! CPU has it, slice-by-8 everywhere else.
//!
//! Models the "decode (for error checking)" step the paper lists in the
//! cloud storage path (§2.1): segment pages and wire frames carry a CRC that
//! readers verify before use. A check slower than the data it sits on would
//! undo the placement it guards, so [`crc32_update`] runs at memory speed
//! where it can.
//!
//! On x86-64 with PCLMULQDQ and SSE4.1, detected at run time, it folds 64
//! bytes per step: four 128-bit lanes are each multiplied, carry-less, by
//! the constants for x^544 and x^480 mod P and XORed into the next 64
//! bytes. The lanes then fold into one, 16 bytes at a time, and a Barrett
//! reduction takes the last 64 bits to the 32-bit CRC (Gopal et al., *Fast
//! CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction*,
//! Intel, 2009). The polynomial is the same, so every checksum is the same.
//!
//! Slice-by-8 ([`crc32_update_sliced`]) runs inputs under 64 bytes, tails
//! under 16 bytes and CPUs without those instructions, and it is the
//! reference the folded kernel is tested against. It folds eight input
//! bytes per step through eight 256-entry tables: `TABLES[k][b]` is the CRC
//! contribution of byte `b` followed by `k` zero bytes. The values are the
//! standard reflected CRC-32.

const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// The shortest input the folded kernel takes: one 64-byte block.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

/// Whether [`crc32_update`] folds with carry-less multiplies on this CPU.
/// `false` means every input runs slice-by-8.
pub fn folded() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Streaming update: feed chunks with `state` starting at `0xFFFF_FFFF` and
/// finish by XORing with `0xFFFF_FFFF`.
#[allow(unsafe_code)] // the one call into the folded kernel, after detection
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN && folded() {
        // SAFETY: `folded()` has just confirmed that this CPU supports
        // PCLMULQDQ and SSE4.1, the only features `fold::update` enables;
        // its body is otherwise safe code.
        return unsafe { fold::update(state, bytes) };
    }
    crc32_update_sliced(state, bytes)
}

/// [`crc32_update`] by slice-by-8 alone, on every CPU: the fallback, and
/// the reference the folded kernel must match.
pub fn crc32_update_sliced(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xff) as usize];
    }
    state
}

/// The folded kernel. Its constants are bit-reflected remainders of
/// powers of x modulo the CRC polynomial, each shifted left by one; the
/// same values drive the Linux and zlib kernels.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// x^(4·128+32) and x^(4·128−32) mod P: fold a lane 64 bytes ahead.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32) mod P: fold a lane 16 bytes ahead.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: fold 64 bits to 32 plus a 32-bit carry.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P(x) and the Barrett constant μ = x^64 div P(x).
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The 16 bytes at the front of `bytes`, loaded little-endian.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte low half"));
        let hi = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte high half"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `lane · x^d mod P ^ next`, where `keys` holds the constants for
    /// the lane's low and high 64 bits.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// [`super::crc32_update`] over `bytes`, which must hold at least 64.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks
            .next()
            .expect("the folded kernel takes 64 bytes or more");
        // The running state is XORed into the first four bytes, as
        // slice-by-8 does.
        let state_lane = _mm_cvtsi32_si128(state as i32);
        let mut lanes = [
            _mm_xor_si128(load(&first[..16]), state_lane),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold_into(*lane, load(&block[16 * i..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [l0, l1, l2, l3] = lanes;
        let mut x = fold_into(fold_into(fold_into(l0, l1, k3k4), l2, k3k4), l3, k3k4);
        let mut rest = blocks.remainder().chunks_exact(16);
        for chunk in &mut rest {
            x = fold_into(x, load(chunk), k3k4);
        }

        // 128 → 64 bits: the low half times x^96 mod P, into the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 64 → 32 bits plus a 32-bit carry.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, bit-reflected: the CRC is the upper 32 bits
        // of x ^ ((x mod x^32) · μ mod x^32) · P.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let folded = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_update_sliced(folded, rest.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the sliced tables must agree with.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xff) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..data.len() {
            let sliced = crc32_update_sliced(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(sliced, bytewise(&data[..len]), "len {len}");
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn folded_matches_sliced_at_dispatch_boundaries() {
        if !folded() {
            eprintln!("no PCLMULQDQ/SSE4.1 on this CPU: only slice-by-8 is checked");
        }
        // A known vector at each boundary: "123456789" repeated, whose
        // CRC the byte-at-a-time definition gives independently.
        let data: Vec<u8> = b"123456789".iter().copied().cycle().take(129).collect();
        for len in [63, 64, 65, 127, 128, 129] {
            let bytes = &data[..len];
            assert_eq!(crc32(bytes), bytewise(bytes), "len {len}");
            for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
                assert_eq!(
                    crc32_update(state, bytes),
                    crc32_update_sliced(state, bytes),
                    "len {len}, state {state:#x}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = crc32(data);
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, oneshot);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 256];
        let clean = crc32(&data);
        data[100] ^= 0x04;
        assert_ne!(crc32(&data), clean);
    }
}
