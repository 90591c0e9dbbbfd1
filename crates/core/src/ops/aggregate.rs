//! Hash aggregation in three modes: bounded partial (for in-path devices),
//! final (full state on the compute node), and merge (combining partials
//! produced upstream — by storage, a NIC stage, or a switch).
//!
//! The partial/merge split is what makes the §4.4 cascade work: every stage
//! along the data path runs the *same* operator in `Partial` mode with a
//! bounded table, and the last stage runs `Merge`. `AVG` decomposes into
//! sum+count partials, which is why partial output schemas differ from
//! final ones (see [`partial_schema`]).
//!
//! The group table is the key table shared with the hash join
//! (`ops::keys`): group hashes are computed column-at-a-time into a
//! scratch buffer reused across pushes, encoded key bytes live in one arena
//! (not a `Vec<u8>` per row), and accumulators sit in a flat strided
//! vector. A single fixed-width `Int64` group key bypasses key encoding
//! entirely and probes an `i64 → group` index directly. Steady-state `push`
//! (all groups already present) performs no per-row heap allocation.
//!
//! Output order is unchanged from the scalar implementation: `drain` sorts
//! groups by their encoded key bytes, so results stay bit-identical across
//! the scalar, vectorized, and fast-path code.

use df_data::{Batch, Column, ColumnBuilder, DataType, Field, Scalar, Schema, SchemaRef, ValueRef};

use crate::error::{EngineError, Result};
use crate::logical::{AggCall, AggFn};
use crate::ops::keys::{decode_key_scalar, encode_key_value, hash_column, GroupTable, HASH_INIT};
use crate::ops::Operator;

/// Operating mode of the hash aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Bounded state: flush partial groups downstream when `max_groups` is
    /// exceeded (in-path device discipline, §3.3).
    Partial {
        /// Group-table bound.
        max_groups: usize,
    },
    /// Unbounded state over raw input rows; emits final values.
    Final,
    /// Unbounded state over *partial* batches; emits final values.
    Merge,
}

#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    SumInt {
        sum: i64,
        seen: bool,
    },
    SumFloat {
        sum: f64,
        seen: bool,
    },
    MinMax {
        current: Option<Scalar>,
        is_min: bool,
    },
    Avg {
        sum: f64,
        count: i64,
    },
}

/// The partial-output schema for a set of aggregate calls: group columns,
/// then per call either one column (`count_/sum_/min_/max_<alias>`) or two
/// for AVG (`avgsum_<alias>`, `avgcnt_<alias>`).
pub fn partial_schema(group_by: &[String], aggs: &[AggCall], input: &Schema) -> Result<Schema> {
    let mut fields = Vec::new();
    for g in group_by {
        fields.push(input.field_by_name(g)?.clone());
    }
    for agg in aggs {
        let input_type = match &agg.column {
            Some(c) => Some(input.field_by_name(c)?.dtype),
            None => None,
        };
        match agg.func {
            AggFn::Avg => {
                fields.push(Field::nullable(
                    format!("avgsum_{}", agg.alias),
                    DataType::Float64,
                ));
                fields.push(Field::nullable(
                    format!("avgcnt_{}", agg.alias),
                    DataType::Int64,
                ));
            }
            _ => {
                fields.push(Field::nullable(
                    format!("{}_{}", agg.func.name(), agg.alias),
                    agg.output_type(input_type)?,
                ));
            }
        }
    }
    Ok(Schema::new(fields))
}

/// The hash aggregation operator.
pub struct HashAggOp {
    group_by: Vec<String>,
    aggs: Vec<AggCall>,
    mode: AggMode,
    /// Output schema: partial layout for `Partial`, final for others.
    out_schema: SchemaRef,
    table: GroupTable,
    /// One slot per (group, call): `accs[gi * aggs.len() + call]`.
    accs: Vec<Acc>,
    /// Identity accumulators, cloned per new group.
    acc_template: Vec<Acc>,
    /// Whether the group key is a single non-encoded Int64 (fast path).
    single_int_key: bool,
    /// Per-row group hashes, reused across pushes.
    scratch_hashes: Vec<u64>,
    /// Row key encoding buffer, reused across rows and pushes.
    scratch_key: Vec<u8>,
    flushes: u64,
}

impl HashAggOp {
    /// Create an operator. `input_schema` is what `push` receives (raw rows
    /// for Partial/Final, partial batches for Merge). `final_schema` is the
    /// logical aggregate output schema.
    pub fn new(
        group_by: Vec<String>,
        aggs: Vec<AggCall>,
        mode: AggMode,
        input_schema: &SchemaRef,
        final_schema: SchemaRef,
    ) -> Result<HashAggOp> {
        let raw_input = input_schema.as_ref().clone();
        let mut sum_is_float = Vec::with_capacity(aggs.len());
        // In Merge mode the partial layout is positional: group columns,
        // then one column per call (two for AVG).
        let mut partial_col = group_by.len();
        for agg in &aggs {
            let is_float = match (&agg.func, &agg.column, mode) {
                (AggFn::Sum, Some(c), AggMode::Partial { .. } | AggMode::Final) => {
                    raw_input.field_by_name(c)?.dtype == DataType::Float64
                }
                (AggFn::Sum, _, AggMode::Merge) => {
                    if partial_col >= raw_input.len() {
                        return Err(EngineError::Internal(
                            "partial schema narrower than aggregate calls".into(),
                        ));
                    }
                    raw_input.field(partial_col).dtype == DataType::Float64
                }
                _ => false,
            };
            sum_is_float.push(is_float);
            partial_col += if agg.func == AggFn::Avg { 2 } else { 1 };
        }
        let single_int_key = group_by.len() == 1
            && match mode {
                AggMode::Partial { .. } | AggMode::Final => {
                    raw_input.field_by_name(&group_by[0])?.dtype == DataType::Int64
                }
                // Partial layout is positional: the key is column 0.
                AggMode::Merge => {
                    !raw_input.is_empty() && raw_input.field(0).dtype == DataType::Int64
                }
            };
        let out_schema = match mode {
            AggMode::Partial { .. } => partial_schema(&group_by, &aggs, &raw_input)?.into_ref(),
            AggMode::Final | AggMode::Merge => final_schema,
        };
        let acc_template = aggs
            .iter()
            .zip(&sum_is_float)
            .map(|(agg, &is_float)| match agg.func {
                AggFn::Count => Acc::Count(0),
                AggFn::Sum if is_float => Acc::SumFloat {
                    sum: 0.0,
                    seen: false,
                },
                AggFn::Sum => Acc::SumInt {
                    sum: 0,
                    seen: false,
                },
                AggFn::Min => Acc::MinMax {
                    current: None,
                    is_min: true,
                },
                AggFn::Max => Acc::MinMax {
                    current: None,
                    is_min: false,
                },
                AggFn::Avg => Acc::Avg { sum: 0.0, count: 0 },
            })
            .collect();
        Ok(HashAggOp {
            group_by,
            aggs,
            mode,
            out_schema,
            table: GroupTable::new(),
            accs: Vec::new(),
            acc_template,
            single_int_key,
            scratch_hashes: Vec::new(),
            scratch_key: Vec::new(),
            flushes: 0,
        })
    }

    /// Number of bounded-state flushes that occurred (Partial mode).
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Flush the table downstream if Partial mode is at its bound. Called
    /// *before* inserting a new group, preserving the original operator's
    /// drain-then-insert discipline.
    fn maybe_flush(&mut self, flushed: &mut Option<Batch>) -> Result<()> {
        if let AggMode::Partial { max_groups } = self.mode {
            if self.table.len() >= max_groups {
                let batch = self.drain()?;
                self.flushes += 1;
                *flushed = Some(match flushed.take() {
                    None => batch,
                    Some(prev) => Batch::concat(&[prev, batch])?,
                });
            }
        }
        Ok(())
    }

    fn consume_raw(&mut self, batch: &Batch) -> Result<Option<Batch>> {
        let group_cols: Vec<&Column> = self
            .group_by
            .iter()
            .map(|n| batch.column_by_name(n).map_err(EngineError::from))
            .collect::<Result<Vec<_>>>()?;
        let agg_cols: Vec<Option<&Column>> = self
            .aggs
            .iter()
            .map(|a| match &a.column {
                Some(c) => batch.column_by_name(c).map(Some).map_err(EngineError::from),
                None => Ok(None),
            })
            .collect::<Result<Vec<_>>>()?;
        let rows = batch.rows();
        let mut flushed: Option<Batch> = None;

        if self.single_int_key {
            let col = group_cols[0];
            let values = col.i64_values().map_err(EngineError::from)?;
            for (row, &v) in values.iter().enumerate() {
                let key = (!col.is_null(row)).then_some(v);
                let gi = match self.table.find_int(key) {
                    Some(gi) => gi,
                    None => {
                        self.maybe_flush(&mut flushed)?;
                        self.accs.extend_from_slice(&self.acc_template);
                        self.table.insert_int(key)
                    }
                };
                self.update_group(gi, row, &agg_cols);
            }
            return Ok(flushed);
        }

        self.scratch_hashes.clear();
        self.scratch_hashes.resize(rows, HASH_INIT);
        for col in &group_cols {
            hash_column(col, &mut self.scratch_hashes);
        }
        for row in 0..rows {
            self.scratch_key.clear();
            for col in &group_cols {
                encode_key_value(&mut self.scratch_key, col, row);
            }
            let hash = self.scratch_hashes[row];
            let gi = match self.table.find(hash, &self.scratch_key) {
                Some(gi) => gi,
                None => {
                    self.maybe_flush(&mut flushed)?;
                    self.accs.extend_from_slice(&self.acc_template);
                    self.table.insert(hash, &self.scratch_key)
                }
            };
            self.update_group(gi, row, &agg_cols);
        }
        Ok(flushed)
    }

    fn update_group(&mut self, gi: u32, row: usize, agg_cols: &[Option<&Column>]) {
        let base = gi as usize * self.aggs.len();
        for (i, col) in agg_cols.iter().enumerate() {
            let value = match col {
                Some(c) => c.value_at(row),
                None => ValueRef::Int(1), // COUNT(*): every row counts
            };
            update_raw(&mut self.accs[base + i], self.aggs[i].func, value);
        }
    }

    fn consume_partial(&mut self, batch: &Batch) -> Result<()> {
        // Column layout: groups, then partial columns per call.
        let ngroups = self.group_by.len();
        let mut col_idx = ngroups;
        // Precompute per-call partial column indices.
        let mut call_cols: Vec<(usize, Option<usize>)> = Vec::with_capacity(self.aggs.len());
        for agg in &self.aggs {
            match agg.func {
                AggFn::Avg => {
                    call_cols.push((col_idx, Some(col_idx + 1)));
                    col_idx += 2;
                }
                _ => {
                    call_cols.push((col_idx, None));
                    col_idx += 1;
                }
            }
        }
        if col_idx != batch.schema().len() {
            return Err(EngineError::Internal(format!(
                "partial batch has {} columns, expected {col_idx}",
                batch.schema().len()
            )));
        }
        let rows = batch.rows();

        if self.single_int_key {
            let col = batch.column(0);
            let values = col.i64_values().map_err(EngineError::from)?;
            for (row, &v) in values.iter().enumerate() {
                let key = (!col.is_null(row)).then_some(v);
                let gi = match self.table.find_int(key) {
                    Some(gi) => gi,
                    None => {
                        self.accs.extend_from_slice(&self.acc_template);
                        self.table.insert_int(key)
                    }
                };
                self.merge_group(gi, row, batch, &call_cols);
            }
            return Ok(());
        }

        self.scratch_hashes.clear();
        self.scratch_hashes.resize(rows, HASH_INIT);
        for c in 0..ngroups {
            hash_column(batch.column(c), &mut self.scratch_hashes);
        }
        for row in 0..rows {
            self.scratch_key.clear();
            for c in 0..ngroups {
                encode_key_value(&mut self.scratch_key, batch.column(c), row);
            }
            let hash = self.scratch_hashes[row];
            let gi = match self.table.find(hash, &self.scratch_key) {
                Some(gi) => gi,
                None => {
                    self.accs.extend_from_slice(&self.acc_template);
                    self.table.insert(hash, &self.scratch_key)
                }
            };
            self.merge_group(gi, row, batch, &call_cols);
        }
        Ok(())
    }

    fn merge_group(
        &mut self,
        gi: u32,
        row: usize,
        batch: &Batch,
        call_cols: &[(usize, Option<usize>)],
    ) {
        let base = gi as usize * self.aggs.len();
        for (i, (c0, c1)) in call_cols.iter().enumerate() {
            let v0 = batch.column(*c0).value_at(row);
            let v1 = c1.map(|c| batch.column(c).value_at(row));
            merge_partial(&mut self.accs[base + i], v0, v1);
        }
    }

    fn drain(&mut self) -> Result<Batch> {
        let ngroups_out = self.table.len();
        let mut order: Vec<u32> = (0..ngroups_out as u32).collect();
        // Sort by encoded key bytes — the same comparator as the original
        // `Vec<u8>`-keyed map drain, so output order is unchanged.
        {
            let table = &self.table;
            order.sort_unstable_by(|&a, &b| table.key(a).cmp(table.key(b)));
        }
        let emit_partial = matches!(self.mode, AggMode::Partial { .. });
        let mut builders: Vec<ColumnBuilder> = self
            .out_schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, ngroups_out))
            .collect();
        let stride = self.aggs.len();
        let nkeys = self.group_by.len();
        for &gi in &order {
            let key = self.table.key(gi);
            let mut p = 0usize;
            for builder in builders.iter_mut().take(nkeys) {
                let (scalar, used) = decode_key_scalar(&key[p..]);
                builder.push(scalar)?;
                p += used;
            }
            let mut b = nkeys;
            let base = gi as usize * stride;
            for acc in &self.accs[base..base + stride] {
                if emit_partial {
                    match acc {
                        Acc::Avg { sum, count } => {
                            builders[b].push(Scalar::Float(*sum))?;
                            builders[b + 1].push(Scalar::Int(*count))?;
                            b += 2;
                        }
                        other => {
                            builders[b].push(finish_acc(other))?;
                            b += 1;
                        }
                    }
                } else {
                    builders[b].push(finish_acc(acc))?;
                    b += 1;
                }
            }
        }
        self.table.clear();
        self.accs.clear();
        let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        Batch::new(self.out_schema.clone(), columns).map_err(EngineError::from)
    }
}

fn update_raw(acc: &mut Acc, func: AggFn, value: ValueRef<'_>) {
    match acc {
        Acc::Count(n) => {
            if !value.is_null() {
                *n += 1;
            }
        }
        Acc::SumInt { sum, seen } => {
            if let Some(v) = value.as_int() {
                *sum += v;
                *seen = true;
            }
        }
        Acc::SumFloat { sum, seen } => {
            if let Some(v) = value.as_float_lossy() {
                *sum += v;
                *seen = true;
            }
        }
        Acc::MinMax { current, is_min } => {
            if value.is_null() {
                return;
            }
            let better = match current {
                None => true,
                Some(c) => {
                    let ord = value.total_cmp_scalar(c);
                    (*is_min && ord == std::cmp::Ordering::Less)
                        || (!*is_min && ord == std::cmp::Ordering::Greater)
                }
            };
            if better {
                *current = Some(value.to_scalar());
            }
        }
        Acc::Avg { sum, count } => {
            if let Some(v) = value.as_float_lossy() {
                *sum += v;
                *count += 1;
            }
        }
    }
    debug_assert!(matches!(
        (func, acc),
        (AggFn::Count, Acc::Count(_))
            | (AggFn::Sum, Acc::SumInt { .. })
            | (AggFn::Sum, Acc::SumFloat { .. })
            | (AggFn::Min, Acc::MinMax { .. })
            | (AggFn::Max, Acc::MinMax { .. })
            | (AggFn::Avg, Acc::Avg { .. })
    ));
}

fn merge_partial(acc: &mut Acc, v0: ValueRef<'_>, v1: Option<ValueRef<'_>>) {
    match acc {
        Acc::Count(n) => {
            if let Some(c) = v0.as_int() {
                *n += c;
            }
        }
        Acc::SumInt { sum, seen } => {
            if let Some(v) = v0.as_int() {
                *sum += v;
                *seen = true;
            }
        }
        Acc::SumFloat { sum, seen } => {
            if let Some(v) = v0.as_float_lossy() {
                *sum += v;
                *seen = true;
            }
        }
        Acc::MinMax { current, is_min } => {
            if v0.is_null() {
                return;
            }
            let better = match current {
                None => true,
                Some(c) => {
                    let ord = v0.total_cmp_scalar(c);
                    (*is_min && ord == std::cmp::Ordering::Less)
                        || (!*is_min && ord == std::cmp::Ordering::Greater)
                }
            };
            if better {
                *current = Some(v0.to_scalar());
            }
        }
        Acc::Avg { sum, count } => {
            if let Some(s) = v0.as_float_lossy() {
                *sum += s;
            }
            if let Some(c) = v1.and_then(|v| v.as_int()) {
                *count += c;
            }
        }
    }
}

fn finish_acc(acc: &Acc) -> Scalar {
    match acc {
        Acc::Count(n) => Scalar::Int(*n),
        Acc::SumInt { sum, seen } => {
            if *seen {
                Scalar::Int(*sum)
            } else {
                Scalar::Null
            }
        }
        Acc::SumFloat { sum, seen } => {
            if *seen {
                Scalar::Float(*sum)
            } else {
                Scalar::Null
            }
        }
        Acc::MinMax { current, .. } => current.clone().unwrap_or(Scalar::Null),
        Acc::Avg { sum, count } => {
            if *count == 0 {
                Scalar::Null
            } else {
                Scalar::Float(*sum / *count as f64)
            }
        }
    }
}

impl Operator for HashAggOp {
    fn schema(&self) -> SchemaRef {
        self.out_schema.clone()
    }

    fn push(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        match self.mode {
            AggMode::Partial { .. } | AggMode::Final => {
                let flushed = self.consume_raw(&batch)?;
                Ok(flushed.into_iter().collect())
            }
            AggMode::Merge => {
                self.consume_partial(&batch)?;
                Ok(vec![])
            }
        }
    }

    fn finish(&mut self) -> Result<Vec<Batch>> {
        let out = self.drain()?;
        // A global aggregate (no groups) over zero rows still yields one
        // row of identity values under SQL.
        if out.is_empty() && self.group_by.is_empty() {
            let mut builders: Vec<ColumnBuilder> = self
                .out_schema
                .fields()
                .iter()
                .map(|f| ColumnBuilder::new(f.dtype, 1))
                .collect();
            let emit_partial = matches!(self.mode, AggMode::Partial { .. });
            let mut b = 0usize;
            for acc in self.acc_template.clone() {
                if emit_partial {
                    if let Acc::Avg { .. } = acc {
                        builders[b].push(Scalar::Float(0.0))?;
                        builders[b + 1].push(Scalar::Int(0))?;
                        b += 2;
                        continue;
                    }
                }
                builders[b].push(finish_acc(&acc))?;
                b += 1;
            }
            let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
            return Ok(vec![Batch::new(self.out_schema.clone(), columns)?]);
        }
        Ok(if out.is_empty() { vec![] } else { vec![out] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;

    fn sample() -> Batch {
        batch_of(vec![
            ("g", Column::from_strs(&["a", "b", "a", "b", "a"])),
            (
                "v",
                Column::from_opt_i64(&[Some(1), Some(2), Some(3), None, Some(5)]),
            ),
            ("f", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
        ])
    }

    fn calls() -> Vec<AggCall> {
        vec![
            AggCall::count_star("n"),
            AggCall::new(AggFn::Count, "v", "nv"),
            AggCall::new(AggFn::Sum, "v", "sv"),
            AggCall::new(AggFn::Min, "v", "minv"),
            AggCall::new(AggFn::Max, "v", "maxv"),
            AggCall::new(AggFn::Avg, "f", "avgf"),
        ]
    }

    fn final_schema(input: &Batch) -> SchemaRef {
        // Build via the logical layer for consistency.
        crate::logical::LogicalPlan::values(vec![input.clone()])
            .unwrap()
            .aggregate(vec!["g".into()], calls())
            .unwrap()
            .schema()
    }

    fn run_final(batch: Batch) -> Batch {
        let schema = final_schema(&batch);
        let mut op = HashAggOp::new(
            vec!["g".into()],
            calls(),
            AggMode::Final,
            batch.schema(),
            schema,
        )
        .unwrap();
        assert!(op.push(batch).unwrap().is_empty());
        Batch::concat(&op.finish().unwrap()).unwrap()
    }

    #[test]
    fn final_aggregation_values() {
        let out = run_final(sample());
        assert_eq!(out.rows(), 2);
        // Groups in deterministic key order: a then b.
        let a = out.row(0);
        assert_eq!(a[0], Scalar::Str("a".into()));
        assert_eq!(a[1], Scalar::Int(3)); // count(*)
        assert_eq!(a[2], Scalar::Int(3)); // count(v)
        assert_eq!(a[3], Scalar::Int(9)); // sum(v) = 1+3+5
        assert_eq!(a[4], Scalar::Int(1)); // min
        assert_eq!(a[5], Scalar::Int(5)); // max
        assert_eq!(a[6], Scalar::Float(3.0)); // avg(f) = (1+3+5)/3
        let b = out.row(1);
        assert_eq!(b[1], Scalar::Int(2)); // count(*) counts the NULL row
        assert_eq!(b[2], Scalar::Int(1)); // count(v) does not
        assert_eq!(b[3], Scalar::Int(2)); // sum(v)
    }

    #[test]
    fn partial_then_merge_equals_final() {
        let batch = sample();
        let schema = final_schema(&batch);
        // Partial with tiny bound to force flushes.
        let mut partial = HashAggOp::new(
            vec!["g".into()],
            calls(),
            AggMode::Partial { max_groups: 1 },
            batch.schema(),
            schema.clone(),
        )
        .unwrap();
        let mut partials = Vec::new();
        for chunk in batch.split(2).unwrap() {
            partials.extend(partial.push(chunk).unwrap());
        }
        partials.extend(partial.finish().unwrap());
        assert!(partial.flush_count() > 0, "bound should have flushed");

        let partial_schema_ref = partial.schema();
        let mut merge = HashAggOp::new(
            vec!["g".into()],
            calls(),
            AggMode::Merge,
            &partial_schema_ref,
            schema,
        )
        .unwrap();
        for p in partials {
            assert!(merge.push(p).unwrap().is_empty());
        }
        let merged = Batch::concat(&merge.finish().unwrap()).unwrap();
        let direct = run_final(sample());
        assert_eq!(merged.canonical_rows(), direct.canonical_rows());
    }

    #[test]
    fn global_aggregate_without_groups() {
        let batch = sample();
        let schema = crate::logical::LogicalPlan::values(vec![batch.clone()])
            .unwrap()
            .aggregate(vec![], vec![AggCall::count_star("n")])
            .unwrap()
            .schema();
        let mut op = HashAggOp::new(
            vec![],
            vec![AggCall::count_star("n")],
            AggMode::Final,
            batch.schema(),
            schema,
        )
        .unwrap();
        op.push(batch).unwrap();
        let out = Batch::concat(&op.finish().unwrap()).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0)[0], Scalar::Int(5));
    }

    #[test]
    fn empty_input_global_aggregate_yields_identities() {
        let batch = sample().slice(0, 0);
        let schema = crate::logical::LogicalPlan::values(vec![sample()])
            .unwrap()
            .aggregate(
                vec![],
                vec![AggCall::count_star("n"), AggCall::new(AggFn::Sum, "v", "s")],
            )
            .unwrap()
            .schema();
        let mut op = HashAggOp::new(
            vec![],
            vec![AggCall::count_star("n"), AggCall::new(AggFn::Sum, "v", "s")],
            AggMode::Final,
            batch.schema(),
            schema,
        )
        .unwrap();
        op.push(batch).unwrap();
        let out = Batch::concat(&op.finish().unwrap()).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0)[0], Scalar::Int(0));
        assert_eq!(out.row(0)[1], Scalar::Null); // SUM of nothing is NULL
    }

    #[test]
    fn empty_input_grouped_aggregate_yields_nothing() {
        let batch = sample().slice(0, 0);
        let schema = final_schema(&sample());
        let mut op = HashAggOp::new(
            vec!["g".into()],
            calls(),
            AggMode::Final,
            batch.schema(),
            schema,
        )
        .unwrap();
        op.push(batch).unwrap();
        assert!(op.finish().unwrap().is_empty());
    }

    #[test]
    fn null_group_keys_form_a_group() {
        let batch = batch_of(vec![
            ("g", Column::from_opt_i64(&[None, Some(1), None])),
            ("v", Column::from_i64(vec![10, 20, 30])),
        ]);
        let schema = crate::logical::LogicalPlan::values(vec![batch.clone()])
            .unwrap()
            .aggregate(vec!["g".into()], vec![AggCall::new(AggFn::Sum, "v", "s")])
            .unwrap()
            .schema();
        let mut op = HashAggOp::new(
            vec!["g".into()],
            vec![AggCall::new(AggFn::Sum, "v", "s")],
            AggMode::Final,
            batch.schema(),
            schema,
        )
        .unwrap();
        op.push(batch).unwrap();
        let out = Batch::concat(&op.finish().unwrap()).unwrap();
        assert_eq!(out.rows(), 2);
        // NULL group sums 10 + 30.
        let null_row = (0..2).find(|&r| out.row(r)[0].is_null()).unwrap();
        assert_eq!(out.row(null_row)[1], Scalar::Int(40));
    }

    #[test]
    fn int_fast_path_matches_generic_path() {
        // Same grouping computed through the Int64 fast path (group by one
        // int column) and the generic encoded-key path (int + constant bool
        // column) must agree on every aggregate value.
        let keys: Vec<i64> = (0..500).map(|i| i * 37 % 11).collect();
        let vals: Vec<i64> = (0..500).collect();
        let fast_in = batch_of(vec![
            ("k", Column::from_i64(keys.clone())),
            ("v", Column::from_i64(vals.clone())),
        ]);
        let generic_in = batch_of(vec![
            ("k", Column::from_i64(keys)),
            ("b", Column::from_bools(&vec![true; 500])),
            ("v", Column::from_i64(vals)),
        ]);
        let run = |batch: Batch, group_by: Vec<String>| {
            let schema = crate::logical::LogicalPlan::values(vec![batch.clone()])
                .unwrap()
                .aggregate(group_by.clone(), vec![AggCall::new(AggFn::Sum, "v", "s")])
                .unwrap()
                .schema();
            let mut op = HashAggOp::new(
                group_by,
                vec![AggCall::new(AggFn::Sum, "v", "s")],
                AggMode::Final,
                batch.schema(),
                schema,
            )
            .unwrap();
            op.push(batch).unwrap();
            Batch::concat(&op.finish().unwrap()).unwrap()
        };
        let fast = run(fast_in, vec!["k".into()]);
        let generic = run(generic_in, vec!["k".into(), "b".into()]);
        assert_eq!(fast.rows(), 11);
        assert_eq!(generic.rows(), 11);
        for r in 0..11 {
            // Key order is identical (int keys sort by LE bytes in both).
            assert_eq!(fast.row(r)[0], generic.row(r)[0]);
            assert_eq!(fast.row(r)[1], generic.row(r)[2]);
        }
    }

    #[test]
    fn int_key_partial_flush_preserves_totals() {
        let batch = batch_of(vec![
            ("k", Column::from_i64((0..100).map(|i| i % 10).collect())),
            ("v", Column::from_i64(vec![1; 100])),
        ]);
        let schema = crate::logical::LogicalPlan::values(vec![batch.clone()])
            .unwrap()
            .aggregate(vec!["k".into()], vec![AggCall::new(AggFn::Sum, "v", "s")])
            .unwrap()
            .schema();
        let mut partial = HashAggOp::new(
            vec!["k".into()],
            vec![AggCall::new(AggFn::Sum, "v", "s")],
            AggMode::Partial { max_groups: 3 },
            batch.schema(),
            schema.clone(),
        )
        .unwrap();
        let mut partials = Vec::new();
        for chunk in batch.split(7).unwrap() {
            partials.extend(partial.push(chunk).unwrap());
        }
        partials.extend(partial.finish().unwrap());
        assert!(partial.flush_count() > 0);
        let partial_schema_ref = partial.schema();
        let mut merge = HashAggOp::new(
            vec!["k".into()],
            vec![AggCall::new(AggFn::Sum, "v", "s")],
            AggMode::Merge,
            &partial_schema_ref,
            schema,
        )
        .unwrap();
        for p in partials {
            merge.push(p).unwrap();
        }
        let out = Batch::concat(&merge.finish().unwrap()).unwrap();
        assert_eq!(out.rows(), 10);
        for r in 0..10 {
            assert_eq!(out.row(r)[1], Scalar::Int(10)); // 100 rows / 10 keys
        }
    }
}
