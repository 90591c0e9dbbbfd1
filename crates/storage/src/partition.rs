//! Partitioned tables: one logical table laid out as N physical tables,
//! one per partition, so each partition can live on (and be scanned by)
//! a different host's storage device.
//!
//! Partition `i` of logical table `t` is the ordinary table `t.p{i}` in
//! the same object store — every existing scan path (segments, zone maps,
//! smart-storage pushdown) works on a partition unchanged. The partition
//! function is persisted next to the data (`{table}/_partition`), so a
//! scan planner that reopens the table routes with exactly the function
//! the loader used. Hash partitioning routes with the canonical
//! [`df_data::partition`] hash — the same function Exchange edges use,
//! on a NIC or a CPU, which is what makes storage-side partitioning
//! composable with in-path shuffles (§4.4: the reduction can happen at
//! whichever device already owns the rows).

use df_data::partition::HashPartitioner;
use df_data::{Batch, SchemaRef};

use crate::segment::DEFAULT_PAGE_ROWS;
use crate::table::{TableStore, DEFAULT_SEGMENT_ROWS};
use crate::{Result, StorageError};

/// How rows of a logical table are assigned to partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Hash of the key columns, modulo `parts` (the exchange-compatible
    /// layout: co-partitioned tables join without a shuffle).
    Hash {
        /// Key column names.
        keys: Vec<String>,
        /// Number of partitions.
        parts: usize,
        /// Seed folded into the hash.
        seed: u64,
    },
    /// Range partitioning on one integer key: partition `i` holds rows
    /// with `bounds[i-1] <= key < bounds[i]` (`parts = bounds.len() + 1`).
    /// Null keys go to partition 0.
    Range {
        /// Key column name.
        key: String,
        /// Ascending split points.
        bounds: Vec<i64>,
    },
}

impl PartitionSpec {
    /// Number of partitions this spec produces.
    pub fn parts(&self) -> usize {
        match self {
            PartitionSpec::Hash { parts, .. } => *parts,
            PartitionSpec::Range { bounds, .. } => bounds.len() + 1,
        }
    }

    /// Partition index for every row of `batch`, in row order.
    pub fn assignments(&self, batch: &Batch) -> Result<Vec<usize>> {
        match self {
            PartitionSpec::Hash { keys, parts, seed } => {
                let p = HashPartitioner::with_seed(keys.clone(), *parts, *seed)
                    .map_err(StorageError::Data)?;
                p.assignments(batch).map_err(StorageError::Data)
            }
            PartitionSpec::Range { key, bounds } => {
                let col = batch.column_by_name(key).map_err(StorageError::Data)?;
                Ok((0..batch.rows())
                    .map(|row| match col.scalar_at(row).as_int() {
                        Some(v) => bounds.partition_point(|&b| b <= v),
                        None => 0,
                    })
                    .collect())
            }
        }
    }

    fn encode(&self) -> String {
        match self {
            PartitionSpec::Hash { keys, parts, seed } => {
                format!("hash\n{parts}\n{seed}\n{}", keys.join(","))
            }
            PartitionSpec::Range { key, bounds } => {
                let bounds: Vec<String> = bounds.iter().map(i64::to_string).collect();
                format!("range\n{key}\n{}", bounds.join(","))
            }
        }
    }

    fn decode(text: &str) -> Result<PartitionSpec> {
        let corrupt = || StorageError::Corrupt("malformed partition spec".into());
        let mut lines = text.lines();
        match lines.next().ok_or_else(corrupt)? {
            "hash" => {
                let parts = lines
                    .next()
                    .and_then(|l| l.parse().ok())
                    .ok_or_else(corrupt)?;
                let seed = lines
                    .next()
                    .and_then(|l| l.parse().ok())
                    .ok_or_else(corrupt)?;
                let keys: Vec<String> = lines
                    .next()
                    .ok_or_else(corrupt)?
                    .split(',')
                    .map(str::to_string)
                    .collect();
                Ok(PartitionSpec::Hash { keys, parts, seed })
            }
            "range" => {
                let key = lines.next().ok_or_else(corrupt)?.to_string();
                let bounds_line = lines.next().ok_or_else(corrupt)?;
                let bounds = if bounds_line.is_empty() {
                    Vec::new()
                } else {
                    bounds_line
                        .split(',')
                        .map(|b| b.parse().map_err(|_| corrupt()))
                        .collect::<Result<Vec<i64>>>()?
                };
                Ok(PartitionSpec::Range { key, bounds })
            }
            _ => Err(corrupt()),
        }
    }
}

/// A logical table stored as one physical table per partition.
#[derive(Clone)]
pub struct PartitionedTable {
    store: TableStore,
    name: String,
    spec: PartitionSpec,
}

impl PartitionedTable {
    /// Name of partition `i`'s physical table.
    pub fn partition_table_name(table: &str, index: usize) -> String {
        format!("{table}.p{index}")
    }

    fn spec_key(table: &str) -> String {
        format!("{table}/_partition")
    }

    /// Create (or replace) the partitioned table: one empty physical
    /// table per partition plus the persisted partition spec.
    pub fn create(
        store: &TableStore,
        table: &str,
        schema: &SchemaRef,
        spec: PartitionSpec,
    ) -> Result<PartitionedTable> {
        if spec.parts() == 0 {
            return Err(StorageError::Corrupt(
                "partitioned table needs at least one partition".into(),
            ));
        }
        for i in 0..spec.parts() {
            store.create(&Self::partition_table_name(table, i), schema)?;
        }
        store
            .object_store()
            .put(&Self::spec_key(table), spec.encode().into_bytes())?;
        Ok(PartitionedTable {
            store: store.clone(),
            name: table.to_string(),
            spec,
        })
    }

    /// Open an existing partitioned table from its persisted spec.
    pub fn open(store: &TableStore, table: &str) -> Result<PartitionedTable> {
        let raw = store.object_store().get(&Self::spec_key(table))?;
        let text =
            String::from_utf8(raw).map_err(|_| StorageError::Corrupt("spec not utf8".into()))?;
        Ok(PartitionedTable {
            store: store.clone(),
            name: table.to_string(),
            spec: PartitionSpec::decode(&text)?,
        })
    }

    /// The logical table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The partition function.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.spec.parts()
    }

    /// Physical table name of partition `i` — the name to scan (through
    /// any storage front-end over the same object store).
    pub fn part_name(&self, index: usize) -> String {
        Self::partition_table_name(&self.name, index)
    }

    /// Route `batches` through the partition function and append each
    /// partition's rows to its physical table.
    pub fn load(&self, batches: &[Batch]) -> Result<()> {
        self.load_with(batches, DEFAULT_SEGMENT_ROWS, DEFAULT_PAGE_ROWS)
    }

    /// [`PartitionedTable::load`] with explicit segment/page geometry.
    pub fn load_with(
        &self,
        batches: &[Batch],
        segment_rows: usize,
        page_rows: usize,
    ) -> Result<()> {
        let parts = self.parts();
        let mut pending: Vec<Vec<Batch>> = vec![Vec::new(); parts];
        for batch in batches {
            let assignments = self.spec.assignments(batch)?;
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); parts];
            for (row, part) in assignments.into_iter().enumerate() {
                buckets[part].push(row);
            }
            for (part, rows) in buckets.into_iter().enumerate() {
                if !rows.is_empty() {
                    pending[part].push(batch.gather(&rows));
                }
            }
        }
        for (part, batches) in pending.into_iter().enumerate() {
            if !batches.is_empty() {
                self.store
                    .append(&self.part_name(part), &batches, segment_rows, page_rows)?;
            }
        }
        Ok(())
    }

    /// Rows per partition (the skew report).
    pub fn part_rows(&self) -> Result<Vec<u64>> {
        (0..self.parts())
            .map(|i| Ok(self.store.stats(&self.part_name(i))?.rows))
            .collect()
    }

    /// Total rows across partitions.
    pub fn rows(&self) -> Result<u64> {
        Ok(self.part_rows()?.into_iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::MemObjectStore;
    use df_data::batch::batch_of;
    use df_data::Column;

    fn sample(n: usize) -> Batch {
        batch_of(vec![
            ("k", Column::from_i64((0..n as i64).collect())),
            (
                "grp",
                Column::from_strs(&(0..n).map(|i| format!("g{}", i % 3)).collect::<Vec<_>>()),
            ),
        ])
    }

    #[test]
    fn hash_partitioned_load_accounts_for_every_row() {
        let ts = TableStore::new(MemObjectStore::shared());
        let batch = sample(1000);
        let pt = PartitionedTable::create(
            &ts,
            "events",
            batch.schema(),
            PartitionSpec::Hash {
                keys: vec!["k".into()],
                parts: 4,
                seed: 0,
            },
        )
        .unwrap();
        pt.load(&[batch]).unwrap();
        let per = pt.part_rows().unwrap();
        assert_eq!(per.len(), 4);
        assert_eq!(per.iter().sum::<u64>(), 1000);
        assert!(
            per.iter().all(|&r| r > 0),
            "hash skewed a bucket empty: {per:?}"
        );
    }

    #[test]
    fn range_partitioning_respects_bounds() {
        let ts = TableStore::new(MemObjectStore::shared());
        let batch = sample(300);
        let pt = PartitionedTable::create(
            &ts,
            "events",
            batch.schema(),
            PartitionSpec::Range {
                key: "k".into(),
                bounds: vec![100, 200],
            },
        )
        .unwrap();
        pt.load(&[batch]).unwrap();
        assert_eq!(pt.part_rows().unwrap(), vec![100, 100, 100]);
        // Every partition is an ordinary table with correct zone maps.
        let stats = ts.stats(&pt.part_name(1)).unwrap();
        let zone = stats.column_zones[0].as_ref().unwrap();
        assert_eq!(zone.min, Some(df_data::Scalar::Int(100)));
        assert_eq!(zone.max, Some(df_data::Scalar::Int(199)));
    }

    #[test]
    fn reopen_recovers_the_partition_function() {
        let ts = TableStore::new(MemObjectStore::shared());
        let batch = sample(100);
        let spec = PartitionSpec::Hash {
            keys: vec!["k".into(), "grp".into()],
            parts: 3,
            seed: 7,
        };
        PartitionedTable::create(&ts, "t", batch.schema(), spec.clone()).unwrap();
        let reopened = PartitionedTable::open(&ts, "t").unwrap();
        assert_eq!(reopened.spec(), &spec);
        let range = PartitionSpec::Range {
            key: "k".into(),
            bounds: vec![10],
        };
        PartitionedTable::create(&ts, "r", batch.schema(), range.clone()).unwrap();
        assert_eq!(PartitionedTable::open(&ts, "r").unwrap().spec(), &range);
    }

    #[test]
    fn loads_agree_with_canonical_partitioner() {
        // Storage-side placement must match what an exchange would compute,
        // or co-partitioned joins silently lose rows.
        let ts = TableStore::new(MemObjectStore::shared());
        let batch = sample(500);
        let pt = PartitionedTable::create(
            &ts,
            "t",
            batch.schema(),
            PartitionSpec::Hash {
                keys: vec!["k".into()],
                parts: 5,
                seed: 3,
            },
        )
        .unwrap();
        pt.load(std::slice::from_ref(&batch)).unwrap();
        let exchange = HashPartitioner::with_seed(vec!["k".into()], 5, 3).unwrap();
        let expect = exchange.partition(&batch).unwrap();
        for (i, part) in expect.iter().enumerate() {
            assert_eq!(
                pt.part_rows().unwrap()[i],
                part.rows() as u64,
                "partition {i} differs from canonical routing"
            );
        }
    }

    #[test]
    fn null_range_keys_go_to_partition_zero() {
        let ts = TableStore::new(MemObjectStore::shared());
        let batch = batch_of(vec![(
            "k",
            Column::from_opt_i64(&[Some(150), None, Some(50), None]),
        )]);
        let pt = PartitionedTable::create(
            &ts,
            "t",
            batch.schema(),
            PartitionSpec::Range {
                key: "k".into(),
                bounds: vec![100],
            },
        )
        .unwrap();
        pt.load(&[batch]).unwrap();
        assert_eq!(pt.part_rows().unwrap(), vec![3, 1]);
    }

    #[test]
    fn open_missing_spec_errors() {
        let ts = TableStore::new(MemObjectStore::shared());
        assert!(PartitionedTable::open(&ts, "ghost").is_err());
    }
}
