//! Hash join (equi-join, Inner or Left), two-phase: build then probe.
//!
//! A pipeline breaker on the build side: the executor streams the build
//! child into [`HashJoinOp::build`], then the probe child flows through
//! `push` one batch at a time — the probe side never materializes.
//!
//! Build keys resolve through the key table the aggregation kernel uses
//! ([`df_data::keys`]): a single Int64 key probes an `i64 → id` map; any other
//! key is hashed column-at-a-time and compared on its type-tagged bytes.
//! So an Int64 key never equals a Float64 one, floats compare by bits
//! (`-0.0 ≠ 0.0`; a NaN equals only the same bits), and NULL keys never
//! join. Each key id heads a chain of build rows in arrival order: `head`
//! and `tail` per key id, `next` per build row, all indexed by the row's
//! position across every build batch.
//!
//! The build batches are concatenated once, when the first probe batch
//! arrives (or at `finish` for a Left join that saw none). A probe batch
//! looks up each key, walks its chain into two index vectors — build row
//! and probe row — and assembles its output a column at a time with
//! `gather`s: no per-row key allocation, `Scalar` or builder. Output rows
//! come in probe-row order, then build arrival order within a key; a Left
//! join emits its unmatched build rows in arrival order at `finish`.

use df_data::keys::{encode_key_value, hash_column, GroupTable, HASH_INIT};
use df_data::{Batch, Bitmap, Column, DataType, SchemaRef};

use crate::error::{EngineError, Result};
use crate::logical::JoinType;
use crate::ops::Operator;

/// End of a build-row chain.
const NO_ROW: u32 = u32::MAX;

/// Hash join operator.
pub struct HashJoinOp {
    on: Vec<(String, String)>,
    join_type: JoinType,
    /// Joined output schema (left fields then right, collisions prefixed).
    schema: SchemaRef,
    build_schema: SchemaRef,
    /// Build key → dense key id.
    keys: GroupTable,
    /// Whether the build key is one Int64 column (the table's fast path).
    int_key: bool,
    /// Per key id: its first and last build row.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per build row: the next build row with the same key, or `NO_ROW`.
    next: Vec<u32>,
    /// Build batches as received, until the probe side starts.
    pending: Vec<Batch>,
    /// Whether `pending` was concatenated into `build`.
    sealed: bool,
    /// The build side's columns, one row per build row.
    build: Vec<Column>,
    /// Build rows that matched at least one probe row (Left join).
    matched: Bitmap,
    keyed_rows: usize,
    build_bytes: usize,
    /// Per-row key hashes and one row's encoded key (generic path).
    scratch_hashes: Vec<u64>,
    scratch_key: Vec<u8>,
    /// One probe batch's matches: build rows and probe rows, pairwise.
    build_idx: Vec<usize>,
    probe_idx: Vec<usize>,
    probe_rows: u64,
    output_rows: u64,
}

impl HashJoinOp {
    /// Create an inner join; `schema` is the joined output schema from the
    /// logical plan, `build_schema` the left/build child's schema.
    pub fn new(
        on: Vec<(String, String)>,
        build_schema: SchemaRef,
        schema: SchemaRef,
    ) -> HashJoinOp {
        Self::with_type(on, JoinType::Inner, build_schema, schema)
    }

    /// Create a join with an explicit type.
    pub fn with_type(
        on: Vec<(String, String)>,
        join_type: JoinType,
        build_schema: SchemaRef,
        schema: SchemaRef,
    ) -> HashJoinOp {
        let int_key = match on.as_slice() {
            [(l, _)] => build_schema
                .field_by_name(l)
                .is_ok_and(|f| f.dtype == DataType::Int64),
            _ => false,
        };
        HashJoinOp {
            on,
            join_type,
            schema,
            build_schema,
            keys: GroupTable::new(),
            int_key,
            head: Vec::new(),
            tail: Vec::new(),
            next: Vec::new(),
            pending: Vec::new(),
            sealed: false,
            build: Vec::new(),
            matched: Bitmap::zeros(0),
            keyed_rows: 0,
            build_bytes: 0,
            scratch_hashes: Vec::new(),
            scratch_key: Vec::new(),
            build_idx: Vec::new(),
            probe_idx: Vec::new(),
            probe_rows: 0,
            output_rows: 0,
        }
    }

    /// Consume one build-side batch. Errors with [`EngineError::Internal`]
    /// once the probe side has started: the build side is complete by then.
    pub fn build(&mut self, batch: Batch) -> Result<()> {
        if self.sealed {
            return Err(EngineError::Internal(
                "hash join: build batch after the probe side started".into(),
            ));
        }
        let cols = key_columns(&batch, self.on.iter().map(|(l, _)| l))?;
        let base = self.next.len();
        let rows = batch.rows();
        if u32::try_from(base + rows).map_or(true, |n| n == NO_ROW) {
            return Err(EngineError::Internal(
                "hash join: build side exceeds u32 row ids".into(),
            ));
        }
        self.next.resize(base + rows, NO_ROW);
        if self.int_key {
            let col = cols[0];
            for (row, &v) in col.i64_values()?.iter().enumerate() {
                if !col.is_null(row) {
                    let id = match self.keys.find_int(Some(v)) {
                        Some(id) => id,
                        None => self.keys.insert_int(Some(v)),
                    };
                    self.link(id, base + row);
                }
            }
        } else {
            hash_rows(&mut self.scratch_hashes, &cols, rows);
            for row in 0..rows {
                if encode_row(&mut self.scratch_key, &cols, row) {
                    let hash = self.scratch_hashes[row];
                    let id = match self.keys.find(hash, &self.scratch_key) {
                        Some(id) => id,
                        None => self.keys.insert(hash, &self.scratch_key),
                    };
                    self.link(id, base + row);
                }
            }
        }
        self.build_bytes += batch.byte_size();
        self.pending.push(batch);
        Ok(())
    }

    /// Append build row `row` to the chain of key `id`.
    fn link(&mut self, id: u32, row: usize) {
        let (id, row) = (id as usize, row as u32);
        if id == self.head.len() {
            self.head.push(row);
            self.tail.push(row);
        } else {
            self.next[self.tail[id] as usize] = row;
            self.tail[id] = row;
        }
        self.keyed_rows += 1;
    }

    /// Concatenate the build batches, once: output gathers from one set of
    /// columns by build row.
    fn seal(&mut self) -> Result<()> {
        if self.sealed {
            return Ok(());
        }
        let mut pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            pending.push(Batch::empty(self.build_schema.clone()));
        }
        self.build = (0..self.build_schema.len())
            .map(|ci| {
                let parts: Vec<Column> = pending.iter().map(|b| b.column(ci).clone()).collect();
                Column::concat(&parts)
            })
            .collect::<df_data::Result<_>>()?;
        if self.join_type == JoinType::Left {
            self.matched = Bitmap::zeros(self.next.len());
        }
        self.sealed = true;
        Ok(())
    }

    /// Record every build row with key `id` as a match of `probe_row`.
    fn walk(&mut self, id: u32, probe_row: usize) {
        let mut row = self.head[id as usize];
        while row != NO_ROW {
            self.build_idx.push(row as usize);
            self.probe_idx.push(probe_row);
            row = self.next[row as usize];
        }
    }

    /// Rows currently in the build table.
    pub fn build_rows(&self) -> usize {
        self.keyed_rows
    }

    /// Approximate bytes of build-side state (the "unbounded state" that
    /// keeps joins off streaming devices): the received batches' payload.
    pub fn build_state_bytes(&self) -> usize {
        self.build_bytes
    }

    /// Observed join selectivity (output rows per probe row).
    pub fn observed_fanout(&self) -> f64 {
        if self.probe_rows == 0 {
            0.0
        } else {
            self.output_rows as f64 / self.probe_rows as f64
        }
    }
}

impl Operator for HashJoinOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    /// Probe with one batch.
    fn push(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        self.probe_rows += batch.rows() as u64;
        self.seal()?;
        let cols = key_columns(&batch, self.on.iter().map(|(_, r)| r))?;
        self.build_idx.clear();
        self.probe_idx.clear();
        if self.int_key {
            // Build keys are Int64: a probe key of another type carries
            // another type tag, so it matches nothing.
            let col = cols[0];
            if let Ok(values) = col.i64_values() {
                for (row, &v) in values.iter().enumerate() {
                    if !col.is_null(row) {
                        if let Some(id) = self.keys.find_int(Some(v)) {
                            self.walk(id, row);
                        }
                    }
                }
            }
        } else {
            hash_rows(&mut self.scratch_hashes, &cols, batch.rows());
            for row in 0..batch.rows() {
                if encode_row(&mut self.scratch_key, &cols, row) {
                    let hash = self.scratch_hashes[row];
                    if let Some(id) = self.keys.find(hash, &self.scratch_key) {
                        self.walk(id, row);
                    }
                }
            }
        }
        if self.build_idx.is_empty() {
            return Ok(vec![]);
        }
        self.output_rows += self.build_idx.len() as u64;
        if self.join_type == JoinType::Left {
            for &row in &self.build_idx {
                self.matched.set(row);
            }
        }
        let mut columns = Vec::with_capacity(self.schema.len());
        columns.extend(self.build.iter().map(|c| gather_build(c, &self.build_idx)));
        columns.extend(batch.columns().iter().map(|c| c.gather(&self.probe_idx)));
        Ok(vec![Batch::new(self.schema.clone(), columns)?])
    }

    fn finish(&mut self) -> Result<Vec<Batch>> {
        if self.join_type != JoinType::Left {
            return Ok(vec![]);
        }
        // Emit unmatched build rows with NULL probe-side columns.
        self.seal()?;
        let unmatched: Vec<usize> = self.matched.not().iter_ones().collect();
        if unmatched.is_empty() {
            return Ok(vec![]);
        }
        self.output_rows += unmatched.len() as u64;
        let mut columns: Vec<Column> = self
            .build
            .iter()
            .map(|c| gather_build(c, &unmatched))
            .collect();
        for field in &self.schema.fields()[self.build_schema.len()..] {
            columns.push(Column::nulls(field.dtype, unmatched.len()));
        }
        Ok(vec![Batch::new(self.schema.clone(), columns)?])
    }
}

/// The named key columns of `batch`.
fn key_columns<'b, 'n>(
    batch: &'b Batch,
    names: impl Iterator<Item = &'n String>,
) -> Result<Vec<&'b Column>> {
    names
        .map(|n| batch.column_by_name(n).map_err(EngineError::from))
        .collect()
}

/// Hash the key of every row into `hashes`, a column at a time.
fn hash_rows(hashes: &mut Vec<u64>, cols: &[&Column], rows: usize) {
    hashes.clear();
    hashes.resize(rows, HASH_INIT);
    for col in cols {
        hash_column(col, hashes);
    }
}

/// Encode the key of row `row` into `key`; false if any key is NULL.
fn encode_row(key: &mut Vec<u8>, cols: &[&Column], row: usize) -> bool {
    key.clear();
    for col in cols {
        if col.is_null(row) {
            return false;
        }
        encode_key_value(key, col, row);
    }
    true
}

/// Gather build rows, leaving off the validity bitmap when every gathered
/// row is valid, as a column built row by row would: the output's wire
/// bytes — which the movement ledger charges — depend on that layout.
fn gather_build(col: &Column, rows: &[usize]) -> Column {
    let out = col.gather(rows);
    if !out.validity().is_some_and(Bitmap::all_set) {
        return out;
    }
    match out {
        Column::Int64 { values, .. } => Column::Int64 {
            values,
            validity: None,
        },
        Column::Float64 { values, .. } => Column::Float64 {
            values,
            validity: None,
        },
        Column::Utf8 { offsets, data, .. } => Column::Utf8 {
            offsets,
            data,
            validity: None,
        },
        Column::Bool { values, .. } => Column::Bool {
            values,
            validity: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalPlan;
    use df_data::batch::batch_of;
    use df_data::Scalar;

    fn build_side() -> Batch {
        batch_of(vec![
            ("id", Column::from_i64(vec![1, 2, 3])),
            ("name", Column::from_strs(&["one", "two", "three"])),
        ])
    }

    fn probe_side() -> Batch {
        batch_of(vec![
            (
                "fk",
                Column::from_opt_i64(&[Some(2), Some(2), Some(9), None, Some(1)]),
            ),
            ("amount", Column::from_i64(vec![20, 21, 90, 0, 10])),
        ])
    }

    fn join_op() -> HashJoinOp {
        let plan = LogicalPlan::values(vec![build_side()])
            .unwrap()
            .join(
                LogicalPlan::values(vec![probe_side()]).unwrap(),
                vec![("id", "fk")],
            )
            .unwrap();
        HashJoinOp::new(
            vec![("id".into(), "fk".into())],
            build_side().schema().clone(),
            plan.schema(),
        )
    }

    #[test]
    fn inner_join_matches() {
        let mut op = join_op();
        op.build(build_side()).unwrap();
        let out = op.push(probe_side()).unwrap();
        let batch = &out[0];
        // fk=2 matches twice, fk=1 once; fk=9 and NULL do not match.
        assert_eq!(batch.rows(), 3);
        let rows = batch.canonical_rows();
        assert_eq!(rows[0][0], Scalar::Int(1));
        assert_eq!(rows[0][1], Scalar::Str("one".into()));
        assert_eq!(rows[0][3], Scalar::Int(10));
        assert_eq!(rows[1][0], Scalar::Int(2));
        assert_eq!(rows[2][0], Scalar::Int(2));
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let mut op = join_op();
        let dup = batch_of(vec![
            ("id", Column::from_i64(vec![2, 2])),
            ("name", Column::from_strs(&["x", "y"])),
        ]);
        op.build(dup).unwrap();
        let probe = batch_of(vec![
            ("fk", Column::from_i64(vec![2])),
            ("amount", Column::from_i64(vec![7])),
        ]);
        let out = op.push(probe).unwrap();
        assert_eq!(out[0].rows(), 2);
        assert!((op.observed_fanout() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn null_keys_never_join() {
        let mut op = join_op();
        let build = batch_of(vec![
            ("id", Column::from_opt_i64(&[None, Some(1)])),
            ("name", Column::from_strs(&["n", "o"])),
        ]);
        op.build(build).unwrap();
        assert_eq!(op.build_rows(), 1, "NULL build key must not enter table");
        let probe = batch_of(vec![
            ("fk", Column::from_opt_i64(&[None])),
            ("amount", Column::from_i64(vec![5])),
        ]);
        assert!(op.push(probe).unwrap().is_empty());
    }

    #[test]
    fn empty_probe_result() {
        let mut op = join_op();
        op.build(build_side()).unwrap();
        let probe = batch_of(vec![
            ("fk", Column::from_i64(vec![100])),
            ("amount", Column::from_i64(vec![1])),
        ]);
        assert!(op.push(probe).unwrap().is_empty());
        assert!(op.finish().unwrap().is_empty());
    }

    #[test]
    fn multi_key_join() {
        let build = batch_of(vec![
            ("a", Column::from_i64(vec![1, 1, 2])),
            ("b", Column::from_strs(&["x", "y", "x"])),
        ]);
        let probe = batch_of(vec![
            ("pa", Column::from_i64(vec![1, 1, 2])),
            ("pb", Column::from_strs(&["x", "z", "x"])),
        ]);
        let plan = LogicalPlan::values(vec![build.clone()])
            .unwrap()
            .join(
                LogicalPlan::values(vec![probe.clone()]).unwrap(),
                vec![("a", "pa"), ("b", "pb")],
            )
            .unwrap();
        let mut op = HashJoinOp::new(
            vec![("a".into(), "pa".into()), ("b".into(), "pb".into())],
            build.schema().clone(),
            plan.schema(),
        );
        op.build(build).unwrap();
        let out = op.push(probe).unwrap();
        // (1,x) and (2,x) match; (1,z) does not.
        assert_eq!(out[0].rows(), 2);
    }

    #[test]
    fn left_join_emits_unmatched_build_rows() {
        use crate::logical::{JoinType, LogicalPlan};
        let build = build_side(); // ids 1,2,3
        let probe = batch_of(vec![
            ("fk", Column::from_i64(vec![2, 2])),
            ("amount", Column::from_i64(vec![20, 21])),
        ]);
        let plan = LogicalPlan::values(vec![build.clone()])
            .unwrap()
            .join_with(
                LogicalPlan::values(vec![probe.clone()]).unwrap(),
                vec![("id", "fk")],
                JoinType::Left,
            )
            .unwrap();
        let mut op = HashJoinOp::with_type(
            vec![("id".into(), "fk".into())],
            JoinType::Left,
            build.schema().clone(),
            plan.schema(),
        );
        op.build(build).unwrap();
        let mut out = op.push(probe).unwrap();
        out.extend(op.finish().unwrap());
        let merged = Batch::concat(&out).unwrap();
        // id=2 matched twice; ids 1 and 3 appear once with NULL probe side.
        assert_eq!(merged.rows(), 4);
        let rows = merged.canonical_rows();
        assert_eq!(rows[0][0], Scalar::Int(1));
        assert!(rows[0][2].is_null() && rows[0][3].is_null());
        assert_eq!(rows[3][0], Scalar::Int(3));
        assert!(rows[3][3].is_null());
    }

    #[test]
    fn left_join_with_full_matches_equals_inner() {
        use crate::logical::{JoinType, LogicalPlan};
        let build = build_side();
        let probe = batch_of(vec![
            ("fk", Column::from_i64(vec![1, 2, 3])),
            ("amount", Column::from_i64(vec![10, 20, 30])),
        ]);
        let plan = LogicalPlan::values(vec![build.clone()])
            .unwrap()
            .join_with(
                LogicalPlan::values(vec![probe.clone()]).unwrap(),
                vec![("id", "fk")],
                JoinType::Left,
            )
            .unwrap();
        let mut op = HashJoinOp::with_type(
            vec![("id".into(), "fk".into())],
            JoinType::Left,
            build.schema().clone(),
            plan.schema(),
        );
        op.build(build).unwrap();
        let mut out = op.push(probe).unwrap();
        out.extend(op.finish().unwrap());
        let merged = Batch::concat(&out).unwrap();
        assert_eq!(merged.rows(), 3);
        assert_eq!(
            merged
                .canonical_rows()
                .iter()
                .filter(|r| r[3].is_null())
                .count(),
            0
        );
    }

    #[test]
    fn state_bytes_reported() {
        let mut op = join_op();
        assert_eq!(op.build_state_bytes(), 0);
        op.build(build_side()).unwrap();
        assert!(op.build_state_bytes() > 0);
    }
}
