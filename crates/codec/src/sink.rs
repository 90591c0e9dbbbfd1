//! Where an encoder's bytes go.
//!
//! Every column writer is written once, generic over a [`Sink`]: a
//! `Vec<u8>` stores the bytes, a [`Counter`] only adds up their length.
//! Running a writer into a counter gives the exact size of the bytes it
//! would store, so codec choices and ledger sizes are counted by the same
//! code that writes frames, with no frame built.

use crate::varint;

/// A destination for encoded bytes.
pub(crate) trait Sink {
    /// Append one byte.
    fn put(&mut self, byte: u8);
    /// Append raw bytes.
    fn put_slice(&mut self, bytes: &[u8]);
    /// Append an unsigned LEB128 varint.
    fn put_varint(&mut self, value: u64);
    /// Append `len` bytes that `fill` writes into a zeroed slice. A
    /// counter adds `len` without calling `fill`.
    fn put_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8]));
    /// Append the bytes `write` produces, which the caller has already
    /// counted to be exactly `len`. A counter adds `len` without calling
    /// `write`.
    fn put_counted(&mut self, len: usize, write: impl FnOnce(&mut Self));

    /// Append a zigzag varint.
    #[inline]
    fn put_varint_i64(&mut self, value: i64) {
        self.put_varint(varint::zigzag(value));
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    #[inline]
    fn put_varint(&mut self, value: u64) {
        varint::write_u64(self, value);
    }
    #[inline]
    fn put_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        let start = self.len();
        self.resize(start + len, 0);
        fill(&mut self[start..]);
    }
    #[inline]
    fn put_counted(&mut self, len: usize, write: impl FnOnce(&mut Self)) {
        self.reserve(len);
        let start = self.len();
        write(self);
        debug_assert_eq!(
            self.len() - start,
            len,
            "counted length drifted from the writer"
        );
    }
}

/// A sink that stores nothing and counts the bytes put into it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counter(usize);

impl Sink for Counter {
    #[inline]
    fn put(&mut self, _byte: u8) {
        self.0 += 1;
    }
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    #[inline]
    fn put_varint(&mut self, value: u64) {
        self.0 += varint::len_u64(value);
    }
    #[inline]
    fn put_with(&mut self, len: usize, _fill: impl FnOnce(&mut [u8])) {
        self.0 += len;
    }
    #[inline]
    fn put_counted(&mut self, len: usize, _write: impl FnOnce(&mut Self)) {
        self.0 += len;
    }
}

/// Append `values` as fixed-width little-endian words, in one slice copy.
#[inline]
pub(crate) fn put_le<S: Sink, T: Copy, const N: usize>(
    sink: &mut S,
    values: &[T],
    le: impl Fn(T) -> [u8; N],
) {
    sink.put_with(values.len() * N, |dst| {
        for (word, &v) in dst.chunks_exact_mut(N).zip(values) {
            word.copy_from_slice(&le(v));
        }
    });
}

/// The number of bytes `write` puts into a sink.
#[inline]
pub(crate) fn counted(write: impl FnOnce(&mut Counter)) -> usize {
    let mut counter = Counter::default();
    write(&mut counter);
    counter.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<S: Sink>(sink: &mut S) {
        sink.put(7);
        sink.put_slice(b"abc");
        sink.put_varint(300);
        sink.put_varint_i64(-65);
        sink.put_with(5, |dst| dst[4] = 1);
        sink.put_counted(2, |s| s.put_slice(b"xy"));
    }

    #[test]
    fn counter_matches_stored_length() {
        let mut bytes = Vec::new();
        sample(&mut bytes);
        assert_eq!(counted(sample), bytes.len());
        assert_eq!(bytes[bytes.len() - 3], 1);
        assert_eq!(&bytes[bytes.len() - 2..], b"xy");
    }
}
