//! The key table every hash operator shares: column-at-a-time key
//! hashing, the type-tagged key-byte encoding, and the key → dense id
//! index behind the aggregation kernel's groups (`df_storage::agg`, run by
//! storage, NIC and CPU group-bys) and the hash join's build keys.
//!
//! Keys compare on their encoded bytes — a type tag, then the payload — so
//! an Int64 key never equals a Float64 one, floats compare by bits
//! (`-0.0 ≠ 0.0`; a NaN equals only the same bits), and a hash collision
//! only costs a chain walk. A single Int64 key skips the encoding and
//! probes an `i64 → id` map directly; a single Utf8 key compares its
//! payload bytes against the stored keys in place.

use crate::hash::{hash_bytes, mix, FxHashMap};
use crate::{Column, Scalar, ValueRef};

// ------------------------------------------------------------ hashing

/// The initial value of every row's key hash. Key hashes use the in-tree
/// Fx mixing; the key table resolves equality on key *bytes*, so hash
/// collisions only cost a chain walk, never correctness.
pub const HASH_INIT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Mix one key column into the per-row hash lane, column-at-a-time.
///
/// The mixed-in values mirror the key-byte encoding (tag, then payload), so
/// rows with equal key bytes always land in the same hash bucket.
pub fn hash_column(col: &Column, hashes: &mut [u64]) {
    match col {
        Column::Int64 { values, validity } => match validity {
            None => {
                for (h, &v) in hashes.iter_mut().zip(values.iter()) {
                    *h = mix(mix(*h, 1), v as u64);
                }
            }
            Some(valid) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = if valid.get(i) {
                        mix(mix(*h, 1), values[i] as u64)
                    } else {
                        mix(*h, 0)
                    };
                }
            }
        },
        Column::Float64 { values, validity } => match validity {
            None => {
                for (h, &v) in hashes.iter_mut().zip(values.iter()) {
                    *h = mix(mix(*h, 2), v.to_bits());
                }
            }
            Some(valid) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = if valid.get(i) {
                        mix(mix(*h, 2), values[i].to_bits())
                    } else {
                        mix(*h, 0)
                    };
                }
            }
        },
        Column::Utf8 {
            offsets,
            data,
            validity,
        } => {
            // Straight from offsets and bytes: the column already holds
            // valid UTF-8, so `str_at`'s per-row check would only cost.
            for (i, h) in hashes.iter_mut().enumerate() {
                *h = if validity.as_ref().is_some_and(|v| !v.get(i)) {
                    mix(*h, 0)
                } else {
                    let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                    hash_bytes(mix(*h, 3), &data[lo..hi])
                };
            }
        }
        Column::Bool { values, validity } => {
            for (i, h) in hashes.iter_mut().enumerate() {
                let null = validity.as_ref().is_some_and(|v| !v.get(i));
                *h = if null {
                    mix(*h, 0)
                } else {
                    mix(mix(*h, 4), values.get(i) as u64)
                };
            }
        }
    }
}

// ------------------------------------------------------------ key encoding

/// Append the key-byte encoding of one row value. Byte-compatible with the
/// original per-row `key_bytes(&[Scalar])` encoding: the aggregate's drain
/// sorts groups by these bytes, so keeping the encoding stable keeps
/// output order stable.
///
/// This and the table's per-row lookups are `#[inline]`: called once per
/// row from other crates, they otherwise stay out of line, and the
/// aggregate's Utf8-key loop measured ~8% slower that way.
#[inline]
pub fn encode_key_value(key: &mut Vec<u8>, col: &Column, row: usize) {
    match col.value_at(row) {
        ValueRef::Null => key.push(0),
        ValueRef::Int(v) => {
            key.push(1);
            key.extend_from_slice(&v.to_le_bytes());
        }
        ValueRef::Float(v) => {
            key.push(2);
            key.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        ValueRef::Str(s) => encode_str_key(key, Some(s.as_bytes())),
        ValueRef::Bool(v) => key.extend_from_slice(&[4, v as u8]),
    }
}

/// The key bytes of one Utf8 value (`None` is NULL): tag 3, the payload
/// length, the payload.
#[inline]
fn encode_str_key(key: &mut Vec<u8>, payload: Option<&[u8]>) {
    match payload {
        None => key.push(0),
        Some(s) => {
            key.push(3);
            key.extend_from_slice(&(s.len() as u32).to_le_bytes());
            key.extend_from_slice(s);
        }
    }
}

/// Decode one scalar from encoded key bytes; returns the value and how many
/// bytes it consumed. `bytes` starts at a value [`encode_key_value`] wrote,
/// so each payload is complete and string payloads are valid UTF-8 (the
/// lossy conversion copies them unchanged).
pub fn decode_key_scalar(bytes: &[u8]) -> (Scalar, usize) {
    let word = || {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[1..9]);
        w
    };
    match bytes[0] {
        0 => (Scalar::Null, 1),
        1 => (Scalar::Int(i64::from_le_bytes(word())), 9),
        2 => (Scalar::Float(f64::from_bits(u64::from_le_bytes(word()))), 9),
        3 => {
            let mut n = [0u8; 4];
            n.copy_from_slice(&bytes[1..5]);
            let len = u32::from_le_bytes(n) as usize;
            let s = String::from_utf8_lossy(&bytes[5..5 + len]).into_owned();
            (Scalar::Str(s), 5 + len)
        }
        4 => (Scalar::Bool(bytes[1] != 0), 2),
        other => unreachable!("bad key tag {other}"),
    }
}

// ------------------------------------------------------------ group table

const NO_GROUP: u32 = u32::MAX;

/// The vectorized key index: an arena of encoded key bytes, a `hash →
/// chain head` map for the generic path, and a direct `i64 → id` map for
/// the single fixed-width key fast path. Ids are dense `0..len`: the
/// aggregate's group ids, the join's build-key ids.
pub struct GroupTable {
    /// hash → first group id with that hash (generic path).
    by_hash: FxHashMap<u64, u32>,
    /// Per-group: next group id sharing the same hash, or `NO_GROUP`.
    chain: Vec<u32>,
    /// Arena of encoded key bytes for all groups, back to back.
    key_data: Vec<u8>,
    /// Per-group `(start, len)` into `key_data`.
    key_spans: Vec<(u32, u32)>,
    /// value → group id (single-Int64-key fast path).
    int_index: FxHashMap<i64, u32>,
    /// Group id of the NULL key in the fast path, or `NO_GROUP`.
    int_null: u32,
}

impl Default for GroupTable {
    fn default() -> GroupTable {
        GroupTable::new()
    }
}

impl GroupTable {
    /// An empty table.
    pub fn new() -> GroupTable {
        GroupTable {
            by_hash: FxHashMap::default(),
            chain: Vec::new(),
            key_data: Vec::new(),
            key_spans: Vec::new(),
            int_index: FxHashMap::default(),
            int_null: NO_GROUP,
        }
    }

    /// Number of distinct keys (ids `0..len`).
    pub fn len(&self) -> usize {
        self.key_spans.len()
    }

    /// Whether the table holds no key.
    pub fn is_empty(&self) -> bool {
        self.key_spans.is_empty()
    }

    /// The encoded key bytes of group `gi`.
    #[inline]
    pub fn key(&self, gi: u32) -> &[u8] {
        let (start, len) = self.key_spans[gi as usize];
        &self.key_data[start as usize..(start + len) as usize]
    }

    /// The id of the key with these encoded bytes, given their hash.
    #[inline]
    pub fn find(&self, hash: u64, key: &[u8]) -> Option<u32> {
        self.find_by(hash, |stored| stored == key)
    }

    /// The first id under `hash` whose stored key bytes satisfy `eq`.
    #[inline]
    fn find_by(&self, hash: u64, eq: impl Fn(&[u8]) -> bool) -> Option<u32> {
        let mut gi = self.by_hash.get(&hash).copied().unwrap_or(NO_GROUP);
        while gi != NO_GROUP {
            if eq(self.key(gi)) {
                return Some(gi);
            }
            gi = self.chain[gi as usize];
        }
        None
    }

    /// Add a key not in the table; returns its id.
    pub fn insert(&mut self, hash: u64, key: &[u8]) -> u32 {
        let start = self.key_data.len();
        self.key_data.extend_from_slice(key);
        self.link(hash, start)
    }

    /// Index the key bytes appended to the arena from `start` on as a new
    /// group under `hash`; returns its id.
    fn link(&mut self, hash: u64, start: usize) -> u32 {
        let gi = self.key_spans.len() as u32;
        let len = self.key_data.len() - start;
        self.key_spans.push((start as u32, len as u32));
        let head = self.by_hash.insert(hash, gi).unwrap_or(NO_GROUP);
        self.chain.push(head);
        gi
    }

    /// The id of a single Utf8 key (`None` is the NULL key), given its
    /// hash. Compares the payload against each candidate's stored bytes in
    /// place, without encoding the key first.
    #[inline]
    pub fn find_str(&self, hash: u64, value: Option<&[u8]>) -> Option<u32> {
        self.find_by(hash, |key| match value {
            // Tag 3 and a length that fits the stored bytes: the length
            // word then holds the payload's length.
            Some(s) => key.len() == 5 + s.len() && key[0] == 3 && key[5..] == *s,
            None => key == [0],
        })
    }

    /// Add a single Utf8 key not in the table; returns its id. Its encoded
    /// bytes are the ones [`encode_key_value`] writes.
    pub fn insert_str(&mut self, hash: u64, value: Option<&[u8]>) -> u32 {
        let start = self.key_data.len();
        encode_str_key(&mut self.key_data, value);
        self.link(hash, start)
    }

    /// The id of a single Int64 key (`None` is the NULL key).
    #[inline]
    pub fn find_int(&self, value: Option<i64>) -> Option<u32> {
        let gi = match value {
            Some(v) => self.int_index.get(&v).copied().unwrap_or(NO_GROUP),
            None => self.int_null,
        };
        (gi != NO_GROUP).then_some(gi)
    }

    /// Add a single Int64 key not in the table; returns its id. Its
    /// encoded bytes are the ones [`encode_key_value`] writes.
    pub fn insert_int(&mut self, value: Option<i64>) -> u32 {
        let gi = self.key_spans.len() as u32;
        let start = self.key_data.len() as u32;
        match value {
            Some(v) => {
                self.key_data.push(1);
                self.key_data.extend_from_slice(&v.to_le_bytes());
                self.key_spans.push((start, 9));
                self.int_index.insert(v, gi);
            }
            None => {
                self.key_data.push(0);
                self.key_spans.push((start, 1));
                self.int_null = gi;
            }
        }
        self.chain.push(NO_GROUP);
        gi
    }

    /// Remove every key; ids restart at 0.
    pub fn clear(&mut self) {
        self.by_hash.clear();
        self.chain.clear();
        self.key_data.clear();
        self.key_spans.clear();
        self.int_index.clear();
        self.int_null = NO_GROUP;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_codec_round_trips_every_type() {
        let cols = [
            Column::from_opt_i64(&[Some(-5), None]),
            Column::from_f64(vec![2.5, -0.0]),
            Column::from_strs(&["", "héllo"]),
            Column::from_bools(&[true, false]),
        ];
        for col in &cols {
            for row in 0..col.len() {
                let mut key = Vec::new();
                encode_key_value(&mut key, col, row);
                let (scalar, used) = decode_key_scalar(&key);
                assert_eq!(used, key.len());
                assert_eq!(scalar, col.scalar_at(row));
            }
        }
    }

    #[test]
    fn utf8_probe_matches_the_encoded_key() {
        let col = Column::from_opt_strs(&[Some("ab"), None, Some(""), Some("a"), Some("héllo")]);
        let mut hashes = vec![HASH_INIT; col.len()];
        hash_column(&col, &mut hashes);
        let payload = |row: usize| (!col.is_null(row)).then(|| col.str_at(row).as_bytes());
        let mut table = GroupTable::new();
        for (row, &hash) in hashes.iter().enumerate() {
            assert_eq!(table.find_str(hash, payload(row)), None);
            let gi = table.insert_str(hash, payload(row));
            let mut key = Vec::new();
            encode_key_value(&mut key, &col, row);
            assert_eq!(table.key(gi), key);
            assert_eq!(table.find(hash, &key), Some(gi));
        }
        for (row, &hash) in hashes.iter().enumerate() {
            assert_eq!(table.find_str(hash, payload(row)), Some(row as u32));
        }
        // A prefix, or the empty string under NULL's hash, is another key.
        assert_eq!(table.find_str(hashes[0], Some(b"a")), None);
        assert_eq!(table.find_str(hashes[1], Some(b"")), None);
    }
}
