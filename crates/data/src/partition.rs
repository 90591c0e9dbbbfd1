//! Deterministic hash partitioning — the canonical partition function for
//! every exchange in the system.
//!
//! The Exchange operator in the pipeline-graph IR (whose producer may run
//! on a NIC) and partitioned storage both route rows with *this* function,
//! so a row hashed on host 3's NIC lands in the same partition a storage
//! node computed when it laid out the table. The hash is FNV-1a over the
//! type-tagged canonical bytes of the key scalars; a seed is XORed into
//! the offset basis so independent exchanges in one plan decorrelate
//! (seed 0 reproduces the historical unseeded function bit-for-bit).

use crate::batch::Batch;
use crate::column::Column;
use crate::error::{DataError, Result};
use crate::types::ValueRef;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a hash of the canonical bytes of the key values of one row,
/// with `seed` folded into the offset basis. Deterministic across devices
/// and hosts, so every NIC and storage node partitions identically. Reads
/// each value as a borrowed [`ValueRef`], so a string key allocates
/// nothing.
pub fn hash_row_seeded(columns: &[&Column], row: usize, seed: u64) -> u64 {
    let mut hash = FNV_OFFSET_BASIS ^ seed;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for col in columns {
        match col.value_at(row) {
            ValueRef::Null => eat(&[0]),
            ValueRef::Int(v) => {
                eat(&[1]);
                eat(&v.to_le_bytes());
            }
            ValueRef::Float(v) => {
                eat(&[2]);
                eat(&v.to_bits().to_le_bytes());
            }
            ValueRef::Str(s) => {
                eat(&[3]);
                eat(s.as_bytes());
            }
            ValueRef::Bool(b) => eat(&[4, b as u8]),
        }
    }
    hash
}

/// The unseeded hash (seed 0) — what [`hash_row_seeded`] historically was.
pub fn hash_row(columns: &[&Column], row: usize) -> u64 {
    hash_row_seeded(columns, row, 0)
}

/// A total, deterministic hash partitioner over named key columns.
///
/// Every row is assigned to exactly one of `parts` partitions (nulls hash
/// like any other value, so they are accounted for too), and the
/// assignment depends only on the key values and the seed — not on batch
/// boundaries, row order within other columns, or which device computes
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashPartitioner {
    keys: Vec<String>,
    parts: usize,
    seed: u64,
}

impl HashPartitioner {
    /// Partitioner over `keys` into `parts` buckets with seed 0.
    pub fn new(keys: Vec<String>, parts: usize) -> Result<HashPartitioner> {
        HashPartitioner::with_seed(keys, parts, 0)
    }

    /// Partitioner with an explicit seed (decorrelates stacked exchanges).
    pub fn with_seed(keys: Vec<String>, parts: usize, seed: u64) -> Result<HashPartitioner> {
        if keys.is_empty() {
            return Err(DataError::Corrupt(
                "hash partitioner needs at least one key column".into(),
            ));
        }
        if parts == 0 {
            return Err(DataError::Corrupt(
                "hash partitioner fanout must be positive".into(),
            ));
        }
        Ok(HashPartitioner { keys, parts, seed })
    }

    /// Key column names.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The seed folded into the hash.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Partition index for every row of `batch`, in row order.
    pub fn assignments(&self, batch: &Batch) -> Result<Vec<usize>> {
        let key_cols: Vec<&Column> = self
            .keys
            .iter()
            .map(|n| batch.column_by_name(n))
            .collect::<Result<_>>()?;
        Ok((0..batch.rows())
            .map(|row| (hash_row_seeded(&key_cols, row, self.seed) % self.parts as u64) as usize)
            .collect())
    }

    /// Split `batch` into `parts` batches (index = partition). Partitions
    /// that receive no rows come back as empty batches with the input
    /// schema, so `result.len() == self.parts()` always holds and
    /// `sum(rows) == batch.rows()`.
    pub fn partition(&self, batch: &Batch) -> Result<Vec<Batch>> {
        let assignments = self.assignments(batch)?;
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.parts];
        for (row, part) in assignments.into_iter().enumerate() {
            buckets[part].push(row);
        }
        Ok(buckets
            .into_iter()
            .map(|rows| {
                if rows.is_empty() {
                    Batch::empty(batch.schema().clone())
                } else {
                    batch.gather(&rows)
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_of;
    use crate::bitmap::Bitmap;

    fn keyed(n: usize) -> Batch {
        batch_of(vec![
            ("k", Column::from_i64((0..n as i64).collect())),
            (
                "v",
                Column::from_strs(&(0..n).map(|i| format!("v{i}")).collect::<Vec<_>>()),
            ),
        ])
    }

    #[test]
    fn row_hashes_are_pinned() {
        // Every exchange, on a NIC or a CPU, and every storage layout
        // routes rows by this hash: a changed value moves partition
        // assignments and with them every ledger byte. Pinned per row for
        // the seed-0 function and the scale-out shuffle seed.
        let batch = batch_of(vec![
            (
                "i",
                Column::from_opt_i64(&[
                    Some(i64::MIN),
                    Some(i64::MAX),
                    Some(0),
                    Some(-1),
                    None,
                    None,
                ]),
            ),
            (
                "f",
                Column::from_opt_f64(&[
                    Some(-0.0),
                    Some(0.0),
                    Some(f64::NAN),
                    None,
                    Some(1.5),
                    None,
                ]),
            ),
            (
                "s",
                Column::from_opt_strs(&[
                    Some(""),
                    Some("héllo"),
                    Some("日本語"),
                    Some("a"),
                    None,
                    None,
                ]),
            ),
            (
                "b",
                Column::Bool {
                    values: Bitmap::from_bools(&[true, false, false, true, false, false]),
                    validity: Some(Bitmap::from_bools(&[true, true, false, true, true, false])),
                },
            ),
        ]);
        let cols: Vec<&Column> = batch.columns().iter().collect();
        let shuffle_seed = 0xE5_CA1E; // df_core::scaleout::SHUFFLE_SEED
        let pinned: [(u64, [u64; 6]); 2] = [
            (
                0,
                [
                    9_949_340_972_665_384_340,
                    14_075_460_361_561_817_650,
                    7_408_955_707_910_066_624,
                    17_668_673_467_277_764_771,
                    10_958_854_907_225_686_478,
                    15_876_414_090_542_715_893,
                ],
            ),
            (
                shuffle_seed,
                [
                    10_548_495_603_723_503_414,
                    12_561_621_372_002_288_972,
                    4_339_601_884_517_718_626,
                    8_287_331_684_204_315_525,
                    8_990_719_640_737_253_808,
                    12_314_774_903_025_397_355,
                ],
            ),
        ];
        for (seed, want) in pinned {
            let got: Vec<u64> = (0..batch.rows())
                .map(|row| hash_row_seeded(&cols, row, seed))
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn seed_zero_matches_unseeded_hash() {
        let batch = keyed(64);
        let cols: Vec<&Column> = vec![batch.column(0), batch.column(1)];
        for row in 0..batch.rows() {
            assert_eq!(hash_row(&cols, row), hash_row_seeded(&cols, row, 0));
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let batch = keyed(256);
        let a = HashPartitioner::with_seed(vec!["k".into()], 4, 1).unwrap();
        let b = HashPartitioner::with_seed(vec!["k".into()], 4, 2).unwrap();
        assert_ne!(
            a.assignments(&batch).unwrap(),
            b.assignments(&batch).unwrap()
        );
    }

    #[test]
    fn partition_is_total() {
        let batch = keyed(1000);
        let p = HashPartitioner::new(vec!["k".into()], 7).unwrap();
        let parts = p.partition(&batch).unwrap();
        assert_eq!(parts.len(), 7);
        assert_eq!(parts.iter().map(Batch::rows).sum::<usize>(), 1000);
    }

    #[test]
    fn null_keys_are_routed_deterministically() {
        let batch = batch_of(vec![(
            "k",
            Column::from_opt_i64(&[Some(1), None, Some(2), None]),
        )]);
        let p = HashPartitioner::new(vec!["k".into()], 3).unwrap();
        let a = p.assignments(&batch).unwrap();
        let b = p.assignments(&batch).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        // Both nulls land in the same bucket: same key bytes, same hash.
        assert_eq!(a[1], a[3]);
    }

    #[test]
    fn empty_batch_yields_empty_partitions() {
        let batch = keyed(0);
        let p = HashPartitioner::new(vec!["k".into()], 4).unwrap();
        let parts = p.partition(&batch).unwrap();
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(Batch::is_empty));
    }

    #[test]
    fn zero_fanout_and_no_keys_rejected() {
        assert!(HashPartitioner::new(vec!["k".into()], 0).is_err());
        assert!(HashPartitioner::new(vec![], 4).is_err());
    }

    #[test]
    fn missing_key_column_errors() {
        let p = HashPartitioner::new(vec!["nope".into()], 4).unwrap();
        assert!(p.assignments(&keyed(8)).is_err());
    }
}
