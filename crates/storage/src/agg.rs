//! The aggregation kernel every device runs: one hash aggregate in three
//! modes over the shared key table ([`df_data::keys`]).
//!
//! §4.4's cascade runs the *same* bounded group-by stage at storage, on
//! the sending NIC and on the receiving NIC, and the CPU finishes it.
//! Smart-storage pre-aggregation ([`crate::smart::ScanRequest::preagg`])
//! and df-core's aggregate operator, on a NIC or a CPU, both run
//! [`HashAggOp`] here, so they cannot disagree.
//!
//! - [`AggMode::Partial`] folds raw rows into a bounded table and emits the
//!   positional *partial layout* ([`partial_schema`]): group columns, then
//!   one column per call, two for AVG (sum, count).
//! - [`AggMode::Final`] folds raw rows with unbounded state and emits final
//!   values.
//! - [`AggMode::Merge`] folds partial batches: counts and sums add, mins
//!   and maxes fold, AVG adds both halves. Unbounded, it emits final values;
//!   bounded, it emits the partial layout it consumes, so merge stages
//!   compose.
//!
//! A bounded table flushes drain-then-insert: a new group arriving at a
//! full table first emits every held group. Only the unbounded modes answer
//! a global aggregate over no rows, with SQL's identity row; a partial
//! stage over no rows emits nothing.
//!
//! Group hashes are computed column-at-a-time into a scratch buffer reused
//! across pushes, encoded key bytes live in one arena (not a `Vec<u8>` per
//! row), and accumulators sit in a flat strided vector. A single Int64
//! group key skips key encoding and probes an `i64 → group` index directly.
//! Steady-state `push` (all groups already present) performs no per-row
//! heap allocation. `drain` sorts groups by their encoded key bytes, so
//! every device emits the same rows in the same order.

use std::fmt;

use df_data::keys::{decode_key_scalar, encode_key_value, hash_column, GroupTable, HASH_INIT};
use df_data::{
    Batch, Column, ColumnBuilder, DataError, DataType, Field, Result, Scalar, Schema, SchemaRef,
    ValueRef,
};

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// `COUNT(col)` / `COUNT(*)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl AggFn {
    /// Lowercase SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Avg => "avg",
        }
    }
}

/// One aggregate call: function, input column (`None` = `COUNT(*)`), and
/// output name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The function.
    pub func: AggFn,
    /// Input column; `None` only for COUNT(*).
    pub column: Option<String>,
    /// Output column name.
    pub alias: String,
}

impl AggCall {
    /// `COUNT(*) AS alias`.
    pub fn count_star(alias: impl Into<String>) -> AggCall {
        AggCall {
            func: AggFn::Count,
            column: None,
            alias: alias.into(),
        }
    }

    /// `func(column) AS alias`.
    pub fn new(func: AggFn, column: impl Into<String>, alias: impl Into<String>) -> AggCall {
        AggCall {
            func,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// Output type given the input column's type.
    pub fn output_type(&self, input: Option<DataType>) -> Result<DataType> {
        Ok(match self.func {
            AggFn::Count => DataType::Int64,
            AggFn::Avg => DataType::Float64,
            AggFn::Sum | AggFn::Min | AggFn::Max => input.ok_or_else(|| {
                DataError::InvalidArgument(format!("{}(*) is not valid", self.func.name()))
            })?,
        })
    }
}

/// Operating mode of the hash aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Bounded state over raw rows: flush partial groups downstream when
    /// `max_groups` is exceeded (in-path device discipline, §3.3).
    Partial {
        /// Group-table bound.
        max_groups: usize,
    },
    /// Unbounded state over raw input rows; emits final values.
    Final,
    /// State over *partial* batches. Unbounded (`None`), it emits final
    /// values; bounded, it flushes like `Partial` and emits the partial
    /// layout.
    Merge {
        /// Group-table bound, if any.
        max_groups: Option<usize>,
    },
}

impl AggMode {
    /// The group-table bound of a streaming stage, whose output is the
    /// partial layout; `None` for the pipeline breakers (`Final`, unbounded
    /// `Merge`), which emit final values.
    fn max_groups(self) -> Option<usize> {
        match self {
            AggMode::Partial { max_groups } => Some(max_groups),
            AggMode::Merge { max_groups } => max_groups,
            AggMode::Final => None,
        }
    }
}

impl fmt::Display for AggMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggMode::Partial { max_groups } => write!(f, "partial(max={max_groups})"),
            AggMode::Final => f.write_str("final"),
            AggMode::Merge { max_groups: None } => f.write_str("merge"),
            AggMode::Merge {
                max_groups: Some(n),
            } => write!(f, "merge(max={n})"),
        }
    }
}

/// The partial-output schema for a set of aggregate calls: group columns,
/// then per call either one column (`count_/sum_/min_/max_<alias>`) or two
/// for AVG (`avgsum_<alias>`, `avgcnt_<alias>`). COUNT is Int64; SUM, MIN
/// and MAX keep their input's type.
///
/// The layout is positional, so names only label it. A name that repeats
/// an earlier one (say a pushed-down AVG's SUM next to an explicit SUM of
/// the same column) takes the suffix `__<position>`.
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
    for i in 0..fields.len() {
        if fields[..i].iter().any(|f| f.name == fields[i].name) {
            fields[i].name = format!("{}__{i}", fields[i].name);
        }
    }
    Ok(Schema::new(fields))
}

/// The output schema of an aggregate in `mode` over `input`: the partial
/// layout for a bounded stage (a bounded `Merge` emits the layout it
/// consumes), `final_schema` for the pipeline breakers.
pub fn output_schema(
    group_by: &[String],
    aggs: &[AggCall],
    mode: AggMode,
    input: &SchemaRef,
    final_schema: &SchemaRef,
) -> Result<SchemaRef> {
    Ok(match mode {
        AggMode::Partial { .. } => partial_schema(group_by, aggs, input)?.into_ref(),
        AggMode::Merge {
            max_groups: Some(_),
        } => input.clone(),
        AggMode::Final | AggMode::Merge { max_groups: None } => final_schema.clone(),
    })
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

/// The hash aggregation kernel.
pub struct HashAggOp {
    group_by: Vec<String>,
    aggs: Vec<AggCall>,
    mode: AggMode,
    /// Output schema: partial layout for bounded stages, final otherwise.
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
    /// Create a kernel. `input_schema` is what `push` receives (raw rows
    /// for Partial/Final, partial batches for Merge). `final_schema` is the
    /// logical aggregate output schema; the bounded stages emit the partial
    /// layout instead and ignore it.
    pub fn new(
        group_by: Vec<String>,
        aggs: Vec<AggCall>,
        mode: AggMode,
        input_schema: &SchemaRef,
        final_schema: SchemaRef,
    ) -> Result<HashAggOp> {
        let merge = matches!(mode, AggMode::Merge { .. });
        let mut acc_template = Vec::with_capacity(aggs.len());
        // In Merge mode the partial layout is positional: group columns,
        // then one column per call (two for AVG).
        let mut partial_col = group_by.len();
        for agg in &aggs {
            let sum_is_float = match (&agg.func, &agg.column) {
                (AggFn::Sum, _) if merge => {
                    if partial_col >= input_schema.len() {
                        return Err(DataError::InvalidArgument(
                            "partial schema narrower than aggregate calls".into(),
                        ));
                    }
                    input_schema.field(partial_col).dtype == DataType::Float64
                }
                (AggFn::Sum, Some(c)) => input_schema.field_by_name(c)?.dtype == DataType::Float64,
                _ => false,
            };
            partial_col += if agg.func == AggFn::Avg { 2 } else { 1 };
            acc_template.push(match agg.func {
                AggFn::Count => Acc::Count(0),
                AggFn::Sum if sum_is_float => Acc::SumFloat {
                    sum: 0.0,
                    seen: false,
                },
                AggFn::Sum => Acc::SumInt {
                    sum: 0,
                    seen: false,
                },
                AggFn::Min | AggFn::Max => Acc::MinMax {
                    current: None,
                    is_min: agg.func == AggFn::Min,
                },
                AggFn::Avg => Acc::Avg { sum: 0.0, count: 0 },
            });
        }
        let single_int_key = group_by.len() == 1
            && if merge {
                // Partial layout is positional: the key is column 0.
                !input_schema.is_empty() && input_schema.field(0).dtype == DataType::Int64
            } else {
                input_schema.field_by_name(&group_by[0])?.dtype == DataType::Int64
            };
        let out_schema = output_schema(&group_by, &aggs, mode, input_schema, &final_schema)?;
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

    /// Output schema.
    pub fn schema(&self) -> SchemaRef {
        self.out_schema.clone()
    }

    /// Number of bounded-state flushes that occurred.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Fold one batch in. A bounded stage returns the groups it flushed on
    /// the way as one batch; the unbounded modes return nothing until
    /// [`HashAggOp::finish`].
    pub fn push(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        let mut flushed = Vec::new();
        if let AggMode::Merge { .. } = self.mode {
            self.consume_partial(&batch, &mut flushed)?;
        } else {
            self.consume_raw(&batch, &mut flushed)?;
        }
        if flushed.len() > 1 {
            flushed = vec![Batch::concat(&flushed)?];
        }
        Ok(flushed)
    }

    /// End of input: drain every held group.
    pub fn finish(&mut self) -> Result<Vec<Batch>> {
        // A global aggregate over no rows still answers one row of identity
        // values under SQL, but only from a pipeline breaker.
        if self.table.is_empty() && self.group_by.is_empty() && self.mode.max_groups().is_none() {
            self.accs.extend_from_slice(&self.acc_template);
            self.table.insert(HASH_INIT, &[]);
        }
        let out = self.drain()?;
        Ok(if out.is_empty() { vec![] } else { vec![out] })
    }

    /// Drain the table into `flushed` if a bounded stage is at its bound.
    /// Called *before* inserting a new group (drain-then-insert).
    fn maybe_flush(&mut self, flushed: &mut Vec<Batch>) -> Result<()> {
        if let Some(max_groups) = self.mode.max_groups() {
            if self.table.len() >= max_groups {
                flushed.push(self.drain()?);
                self.flushes += 1;
            }
        }
        Ok(())
    }

    fn consume_raw(&mut self, batch: &Batch, flushed: &mut Vec<Batch>) -> Result<()> {
        let group_cols: Vec<&Column> = self
            .group_by
            .iter()
            .map(|n| batch.column_by_name(n))
            .collect::<Result<_>>()?;
        let agg_cols: Vec<Option<&Column>> = self
            .aggs
            .iter()
            .map(|a| {
                a.column
                    .as_ref()
                    .map(|c| batch.column_by_name(c))
                    .transpose()
            })
            .collect::<Result<_>>()?;
        self.fold_rows(&group_cols, batch.rows(), flushed, |accs, row| {
            for (acc, col) in accs.iter_mut().zip(&agg_cols) {
                let value = match col {
                    Some(c) => c.value_at(row),
                    None => ValueRef::Int(1), // COUNT(*): every row counts
                };
                update_raw(acc, value);
            }
        })
    }

    fn consume_partial(&mut self, batch: &Batch, flushed: &mut Vec<Batch>) -> Result<()> {
        // Column layout: groups, then one partial column per call (two for
        // AVG).
        let ngroups = self.group_by.len();
        let width = |agg: &AggCall| if agg.func == AggFn::Avg { 2 } else { 1 };
        let expected = ngroups + self.aggs.iter().map(width).sum::<usize>();
        if batch.schema().len() != expected {
            return Err(DataError::InvalidArgument(format!(
                "partial batch has {} columns, expected {expected}",
                batch.schema().len()
            )));
        }
        let mut col = ngroups;
        let call_cols: Vec<(&Column, Option<&Column>)> = self
            .aggs
            .iter()
            .map(|agg| {
                let cols = (
                    batch.column(col),
                    (width(agg) == 2).then(|| batch.column(col + 1)),
                );
                col += width(agg);
                cols
            })
            .collect();
        let key_cols: Vec<&Column> = (0..ngroups).map(|c| batch.column(c)).collect();
        self.fold_rows(&key_cols, batch.rows(), flushed, |accs, row| {
            for (acc, (c0, c1)) in accs.iter_mut().zip(&call_cols) {
                merge_partial(acc, c0.value_at(row), c1.map(|c| c.value_at(row)));
            }
        })
    }

    /// Resolve every row's group — inserting new groups, and flushing a
    /// full bounded table first — then `fold` the row into that group's
    /// accumulators.
    fn fold_rows(
        &mut self,
        key_cols: &[&Column],
        rows: usize,
        flushed: &mut Vec<Batch>,
        mut fold: impl FnMut(&mut [Acc], usize),
    ) -> Result<()> {
        let stride = self.aggs.len();
        if self.single_int_key {
            let col = key_cols[0];
            for (row, &v) in col.i64_values()?.iter().enumerate() {
                let key = (!col.is_null(row)).then_some(v);
                let gi = match self.table.find_int(key) {
                    Some(gi) => gi,
                    None => {
                        self.maybe_flush(flushed)?;
                        self.accs.extend_from_slice(&self.acc_template);
                        self.table.insert_int(key)
                    }
                } as usize;
                fold(&mut self.accs[gi * stride..(gi + 1) * stride], row);
            }
            return Ok(());
        }
        self.scratch_hashes.clear();
        self.scratch_hashes.resize(rows, HASH_INIT);
        for col in key_cols {
            hash_column(col, &mut self.scratch_hashes);
        }
        for row in 0..rows {
            self.scratch_key.clear();
            for col in key_cols {
                encode_key_value(&mut self.scratch_key, col, row);
            }
            let hash = self.scratch_hashes[row];
            let gi = match self.table.find(hash, &self.scratch_key) {
                Some(gi) => gi,
                None => {
                    self.maybe_flush(flushed)?;
                    self.accs.extend_from_slice(&self.acc_template);
                    self.table.insert(hash, &self.scratch_key)
                }
            } as usize;
            fold(&mut self.accs[gi * stride..(gi + 1) * stride], row);
        }
        Ok(())
    }

    /// Emit every held group, sorted by encoded key bytes, and clear the
    /// table.
    fn drain(&mut self) -> Result<Batch> {
        let ngroups_out = self.table.len();
        let mut order: Vec<u32> = (0..ngroups_out as u32).collect();
        {
            let table = &self.table;
            order.sort_unstable_by(|&a, &b| table.key(a).cmp(table.key(b)));
        }
        let emit_partial = self.mode.max_groups().is_some();
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
                match acc {
                    Acc::Avg { sum, count } if emit_partial => {
                        builders[b].push(Scalar::Float(*sum))?;
                        builders[b + 1].push(Scalar::Int(*count))?;
                        b += 2;
                    }
                    _ => {
                        builders[b].push(finish_acc(acc))?;
                        b += 1;
                    }
                }
            }
        }
        self.table.clear();
        self.accs.clear();
        let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        Batch::new(self.out_schema.clone(), columns)
    }
}

fn update_raw(acc: &mut Acc, value: ValueRef<'_>) {
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
}

/// Fold one partial row's column(s) for a call: counts add, AVG adds both
/// halves, and sums, mins and maxes fold exactly as over raw values.
fn merge_partial(acc: &mut Acc, v0: ValueRef<'_>, v1: Option<ValueRef<'_>>) {
    match acc {
        Acc::Count(n) => {
            if let Some(c) = v0.as_int() {
                *n += c;
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
        _ => update_raw(acc, v0),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_unbounded_modes_answer_a_global_aggregate_over_no_rows() {
        let raw = Schema::new(vec![Field::nullable("v", DataType::Int64)]).into_ref();
        let calls = vec![AggCall::count_star("n"), AggCall::new(AggFn::Sum, "v", "s")];
        let partial = partial_schema(&[], &calls, &raw).unwrap().into_ref();
        let final_schema = Schema::new(vec![
            Field::nullable("n", DataType::Int64),
            Field::nullable("s", DataType::Int64),
        ])
        .into_ref();
        let finish = |mode: AggMode, input: &SchemaRef| {
            let calls = calls.clone();
            let mut op = HashAggOp::new(vec![], calls, mode, input, final_schema.clone()).unwrap();
            op.finish().unwrap()
        };
        assert!(finish(AggMode::Partial { max_groups: 4 }, &raw).is_empty());
        let bounded_merge = AggMode::Merge {
            max_groups: Some(4),
        };
        assert!(finish(bounded_merge, &partial).is_empty());
        for (mode, input) in [
            (AggMode::Final, &raw),
            (AggMode::Merge { max_groups: None }, &partial),
        ] {
            let out = finish(mode, input);
            assert_eq!(out.len(), 1, "{mode}");
            assert_eq!(out[0].row(0), [Scalar::Int(0), Scalar::Null], "{mode}");
        }
    }
}
