//! Packed bitmaps used for validity (NULL) tracking and filter selections.
//!
//! A [`Bitmap`] stores one bit per row in `u64` words. Filters produce
//! selection bitmaps; `Batch::filter` consumes them. Accelerator kernels
//! (storage, NIC, near-memory) also exchange selections in this format, and
//! the predicate kernel's three-valued masks are pairs of bitmaps.

/// A fixed-length packed bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all unset (false).
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap of `len` bits, all set (true).
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Build from a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = Bitmap::zeros(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            if v {
                b.set(i);
            }
        }
        b
    }

    /// Collect an iterator of bools (also available via `FromIterator`).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bits)
    }

    /// Build from packed words in the layout [`Bitmap::words`] returns.
    /// Bits past `len` are cleared. Panics unless there are exactly
    /// `len.div_ceil(64)` words.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count for {len} bits");
        let mut b = Bitmap { words, len };
        b.mask_tail();
        b
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`, and
    /// bits past [`Bitmap::len`] are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds for {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to true.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of bounds for {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of bounds for {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Write bit `i`.
    #[inline]
    pub fn put(&mut self, i: usize, value: bool) {
        if value {
            self.set(i)
        } else {
            self.clear(i)
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND with another bitmap of the same length.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Bitwise OR with another bitmap of the same length.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Bitwise NOT (within the logical length).
    pub fn not(&self) -> Bitmap {
        let mut b = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        b.mask_tail();
        b
    }

    /// A new bitmap holding bits `[offset, offset+len)` of this one.
    ///
    /// Works word-at-a-time: each output word is stitched from at most two
    /// input words, so slicing costs O(len/64) regardless of bit alignment.
    pub fn slice(&self, offset: usize, len: usize) -> Bitmap {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "bitmap slice [{offset}, {offset}+{len}) out of bounds for {}",
            self.len
        );
        let base = offset / 64;
        let shift = offset % 64;
        let n_words = len.div_ceil(64);
        let mut words = vec![0u64; n_words];
        if shift == 0 {
            words.copy_from_slice(&self.words[base..base + n_words]);
        } else {
            for (i, w) in words.iter_mut().enumerate() {
                let lo = self.words[base + i] >> shift;
                let hi = self
                    .words
                    .get(base + i + 1)
                    .map_or(0, |next| next << (64 - shift));
                *w = lo | hi;
            }
        }
        let mut b = Bitmap { words, len };
        b.mask_tail();
        b
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterator over all bits as bools.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Approximate heap size in bytes (for movement accounting).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// True if every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// True if no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Bitmap::from_iter(iter)
    }
}

/// Iterator over set-bit indices produced by [`Bitmap::iter_ones`].
pub struct OnesIter<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                let idx = self.word_idx * 64 + bit;
                if idx < self.bitmap.len {
                    return Some(idx);
                }
                return None;
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(70);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none_set());
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.all_set());
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::zeros(100);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1));
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn logical_ops() {
        let a = Bitmap::from_bools(&[true, true, false, false]);
        let b = Bitmap::from_bools(&[true, false, true, false]);
        assert_eq!(a.and(&b), Bitmap::from_bools(&[true, false, false, false]));
        assert_eq!(a.or(&b), Bitmap::from_bools(&[true, true, true, false]));
        assert_eq!(a.not(), Bitmap::from_bools(&[false, false, true, true]));
    }

    #[test]
    fn not_does_not_leak_past_length() {
        let b = Bitmap::zeros(3).not();
        assert_eq!(b.count_ones(), 3);
        // Double negation restores all-zeros, including tail bits.
        assert_eq!(b.not().count_ones(), 0);
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut b = Bitmap::zeros(200);
        for i in [0usize, 5, 63, 64, 65, 127, 128, 199] {
            b.set(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn iter_ones_empty_and_full() {
        assert_eq!(Bitmap::zeros(130).iter_ones().count(), 0);
        assert_eq!(Bitmap::ones(130).iter_ones().count(), 130);
        assert_eq!(Bitmap::zeros(0).iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::zeros(5).get(5);
    }

    #[test]
    fn slice_matches_per_bit_reference() {
        let pattern: Vec<bool> = (0..300).map(|i| (i * 7 + 3) % 5 < 2).collect();
        let b = Bitmap::from_bools(&pattern);
        for (offset, len) in [
            (0, 300),
            (0, 0),
            (1, 63),
            (63, 2),
            (64, 64),
            (65, 130),
            (299, 1),
            (130, 170),
        ] {
            let s = b.slice(offset, len);
            let expect: Vec<bool> = pattern[offset..offset + len].to_vec();
            assert_eq!(
                s.iter().collect::<Vec<bool>>(),
                expect,
                "slice({offset}, {len})"
            );
            assert_eq!(s.len(), len);
            // Tail bits beyond len must be clean so count_ones stays honest.
            assert_eq!(s.count_ones(), expect.iter().filter(|&&v| v).count());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bitmap::zeros(10).slice(5, 6);
    }

    #[test]
    fn from_iter_roundtrip() {
        let pattern: Vec<bool> = (0..150).map(|i| i % 3 == 0).collect();
        let b = Bitmap::from_iter(pattern.iter().copied());
        let back: Vec<bool> = b.iter().collect();
        assert_eq!(pattern, back);
    }

    #[test]
    fn words_roundtrip_and_tail_is_cleared() {
        let b = Bitmap::from_bools(&(0..70).map(|i| i % 3 == 0).collect::<Vec<_>>());
        assert_eq!(Bitmap::from_words(b.words().to_vec(), 70), b);
        let dirty = Bitmap::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(dirty, Bitmap::ones(70));
        assert_eq!(dirty.words()[1], (1 << 6) - 1);
    }
}
