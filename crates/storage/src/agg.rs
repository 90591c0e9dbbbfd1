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
//! A batch folds a column at a time. First its rows resolve to group ids
//! in one reused vector: a global aggregate maps every row to one id, a
//! single Int64 key probes an `i64 → group` index, a single Utf8 key
//! compares payload bytes in place, and any other key is hashed
//! column-at-a-time and encoded per row. Encoded key bytes live in one
//! arena, not a `Vec<u8>` per row. Then each call folds over the ids into
//! its own accumulator column: typed loops over the value slices and
//! validity for COUNT and for SUM over Float64, and a row at a time for
//! every other call and input. A bounded stage resolves up to the row
//! whose new key meets a full table, folds that run, drains, and resumes,
//! so each group still adds its values in row order. Steady-state `push`
//! (all groups already present) performs no per-row heap allocation.
//! `drain` sorts groups by their encoded key bytes, so every device emits
//! the same rows in the same order.

use std::fmt;
use std::ops::Range;

use df_data::keys::{decode_key_scalar, encode_key_value, hash_column, GroupTable, HASH_INIT};
use df_data::{
    Batch, Bitmap, Column, ColumnBuilder, DataError, DataType, Field, Result, Scalar, Schema,
    SchemaRef, ValueRef,
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

/// One call's accumulators, a column over group ids: `Count(n)` holds
/// group `gi`'s count at `n[gi]`.
#[derive(Debug, Clone)]
enum Acc {
    Count(Vec<i64>),
    SumInt {
        sum: Vec<i64>,
        seen: Vec<bool>,
    },
    SumFloat {
        sum: Vec<f64>,
        seen: Vec<bool>,
    },
    MinMax {
        current: Vec<Option<Scalar>>,
        is_min: bool,
    },
    Avg {
        sum: Vec<f64>,
        count: Vec<i64>,
    },
}

/// How a batch's rows find their group ids. Fixed at construction: the
/// table indexes every key through one path.
#[derive(Debug, Clone, Copy)]
enum KeyPath {
    /// No group key: every row is group 0.
    Global,
    /// One Int64 key, probed through the table's `i64 → id` index.
    Int,
    /// One Utf8 key, compared on its payload bytes in place.
    Str,
    /// Any other key: hashed column-at-a-time, then encoded per row.
    Encoded,
}

/// The hash aggregation kernel.
pub struct HashAggOp {
    group_by: Vec<String>,
    aggs: Vec<AggCall>,
    mode: AggMode,
    /// Output schema: partial layout for bounded stages, final otherwise.
    out_schema: SchemaRef,
    table: GroupTable,
    /// One accumulator column per call, each indexed by group id.
    accs: Vec<Acc>,
    key_path: KeyPath,
    /// Group ids of the rows being folded, reused across pushes.
    ids: Vec<u32>,
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
        let mut accs = Vec::with_capacity(aggs.len());
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
            accs.push(match agg.func {
                AggFn::Count => Acc::Count(Vec::new()),
                AggFn::Sum if sum_is_float => Acc::SumFloat {
                    sum: Vec::new(),
                    seen: Vec::new(),
                },
                AggFn::Sum => Acc::SumInt {
                    sum: Vec::new(),
                    seen: Vec::new(),
                },
                AggFn::Min | AggFn::Max => Acc::MinMax {
                    current: Vec::new(),
                    is_min: agg.func == AggFn::Min,
                },
                AggFn::Avg => Acc::Avg {
                    sum: Vec::new(),
                    count: Vec::new(),
                },
            });
        }
        let key_path = match group_by.as_slice() {
            [] => KeyPath::Global,
            [key] => {
                let dtype = if merge {
                    // Partial layout is positional: the key is column 0.
                    (!input_schema.is_empty()).then(|| input_schema.field(0).dtype)
                } else {
                    Some(input_schema.field_by_name(key)?.dtype)
                };
                match dtype {
                    Some(DataType::Int64) => KeyPath::Int,
                    Some(DataType::Utf8) => KeyPath::Str,
                    _ => KeyPath::Encoded,
                }
            }
            _ => KeyPath::Encoded,
        };
        let out_schema = output_schema(&group_by, &aggs, mode, input_schema, &final_schema)?;
        Ok(HashAggOp {
            group_by,
            aggs,
            mode,
            out_schema,
            table: GroupTable::new(),
            accs,
            key_path,
            ids: Vec::new(),
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
            self.table.insert(HASH_INIT, &[]);
            for acc in &mut self.accs {
                acc.resize(1);
            }
        }
        let out = self.drain()?;
        Ok(if out.is_empty() { vec![] } else { vec![out] })
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
        self.fold_batch(
            &group_cols,
            batch.rows(),
            flushed,
            |call, acc, ids, start| acc.fold_raw(ids, start, agg_cols[call]),
        )
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
        self.fold_batch(&key_cols, batch.rows(), flushed, |call, acc, ids, start| {
            let (c0, c1) = call_cols[call];
            acc.fold_partial(ids, start, c0, c1);
        })
    }

    /// Fold a batch in a column at a time: resolve a run of rows to group
    /// ids — inserting new groups — then hand `fold(call, acc, ids, start)`
    /// each call's accumulators and the run's ids (`ids[i]` is the group
    /// of row `start + i`).
    ///
    /// A bounded stage ends a run at the row whose new key meets a full
    /// table, folds the run, drains (drain-then-insert), and resumes at
    /// that row. Rows fold in order within each call, so every group adds
    /// its floats in the same order as a row-at-a-time fold.
    fn fold_batch(
        &mut self,
        key_cols: &[&Column],
        rows: usize,
        flushed: &mut Vec<Batch>,
        mut fold: impl FnMut(usize, &mut Acc, &[u32], usize),
    ) -> Result<()> {
        if matches!(self.key_path, KeyPath::Str | KeyPath::Encoded) {
            self.scratch_hashes.clear();
            self.scratch_hashes.resize(rows, HASH_INIT);
            for col in key_cols {
                hash_column(col, &mut self.scratch_hashes);
            }
        }
        let mut start = 0;
        let mut drained = false;
        loop {
            let end = self.resolve(key_cols, start..rows, drained)?;
            let groups = self.table.len();
            for (call, acc) in self.accs.iter_mut().enumerate() {
                acc.resize(groups);
                fold(call, acc, &self.ids, start);
            }
            if end == rows {
                return Ok(());
            }
            flushed.push(self.drain()?);
            self.flushes += 1;
            drained = true;
            start = end;
        }
    }

    /// Resolve the group ids of `rows` into `self.ids`, inserting new keys.
    /// Stops at a row whose new key meets a full bounded table, unless it
    /// is the first row after a drain, and returns the row it stopped at.
    fn resolve(
        &mut self,
        key_cols: &[&Column],
        rows: Range<usize>,
        drained: bool,
    ) -> Result<usize> {
        let bound = self.mode.max_groups();
        let (table, ids) = (&mut self.table, &mut self.ids);
        let end = match self.key_path {
            KeyPath::Global => resolve_run(table, ids, rows, bound, drained, |t, _, may_insert| {
                if t.is_empty() {
                    may_insert.then(|| t.insert(HASH_INIT, &[]))
                } else {
                    Some(0)
                }
            }),
            KeyPath::Int => {
                let (values, validity) = (key_cols[0].i64_values()?, key_cols[0].validity());
                resolve_run(table, ids, rows, bound, drained, |t, row, may_insert| {
                    let key = validity.is_none_or(|v| v.get(row)).then_some(values[row]);
                    t.find_int(key)
                        .or_else(|| may_insert.then(|| t.insert_int(key)))
                })
            }
            KeyPath::Str => {
                let Column::Utf8 {
                    offsets,
                    data,
                    validity,
                } = key_cols[0]
                else {
                    return Err(DataError::TypeMismatch {
                        expected: "utf8".into(),
                        actual: key_cols[0].data_type().to_string(),
                    });
                };
                let hashes = &self.scratch_hashes;
                resolve_run(table, ids, rows, bound, drained, |t, row, may_insert| {
                    let valid = validity.as_ref().is_none_or(|v| v.get(row));
                    let key =
                        valid.then(|| &data[offsets[row] as usize..offsets[row + 1] as usize]);
                    let hash = hashes[row];
                    t.find_str(hash, key)
                        .or_else(|| may_insert.then(|| t.insert_str(hash, key)))
                })
            }
            KeyPath::Encoded => {
                let (hashes, key) = (&self.scratch_hashes, &mut self.scratch_key);
                resolve_run(table, ids, rows, bound, drained, |t, row, may_insert| {
                    key.clear();
                    for col in key_cols {
                        encode_key_value(key, col, row);
                    }
                    let hash = hashes[row];
                    t.find(hash, key)
                        .or_else(|| may_insert.then(|| t.insert(hash, key)))
                })
            }
        };
        Ok(end)
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
        let nkeys = self.group_by.len();
        for &gi in &order {
            let key = self.table.key(gi);
            let mut p = 0usize;
            for builder in builders.iter_mut().take(nkeys) {
                let (scalar, used) = decode_key_scalar(&key[p..]);
                builder.push(scalar)?;
                p += used;
            }
            let gi = gi as usize;
            let mut b = nkeys;
            for acc in &self.accs {
                match acc {
                    Acc::Avg { sum, count } if emit_partial => {
                        builders[b].push(Scalar::Float(sum[gi]))?;
                        builders[b + 1].push(Scalar::Int(count[gi]))?;
                        b += 2;
                    }
                    _ => {
                        builders[b].push(acc.finish(gi))?;
                        b += 1;
                    }
                }
            }
        }
        self.table.clear();
        for acc in &mut self.accs {
            acc.resize(0);
        }
        let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        Batch::new(self.out_schema.clone(), columns)
    }
}

/// Push the group id of each row in `rows` onto `ids`, cleared first:
/// `lookup(table, row, may_insert)` finds it, or inserts a new key when
/// allowed. A new key may go in while the table is under `bound`, and the
/// run's first row always may after a drain (`drained`; a bound of 0
/// drains before every new key). Returns the row whose new key may not go
/// in, or the run's end.
#[inline]
fn resolve_run(
    table: &mut GroupTable,
    ids: &mut Vec<u32>,
    rows: Range<usize>,
    bound: Option<usize>,
    drained: bool,
    mut lookup: impl FnMut(&mut GroupTable, usize, bool) -> Option<u32>,
) -> usize {
    ids.clear();
    for row in rows.clone() {
        let may_insert =
            bound.is_none_or(|max| table.len() < max) || (drained && row == rows.start);
        match lookup(table, row, may_insert) {
            Some(gi) => ids.push(gi),
            None => return row,
        }
    }
    rows.end
}

/// Call `f(group, row)` for each row of a run whose `validity` bit is set
/// (every row, without a bitmap); `ids[i]` is the group of row `start + i`.
#[inline]
fn for_valid(
    ids: &[u32],
    start: usize,
    validity: Option<&Bitmap>,
    mut f: impl FnMut(usize, usize),
) {
    let rows = start..start + ids.len();
    match validity {
        None => {
            for (&gi, row) in ids.iter().zip(rows) {
                f(gi as usize, row);
            }
        }
        Some(valid) => {
            for (&gi, row) in ids.iter().zip(rows) {
                if valid.get(row) {
                    f(gi as usize, row);
                }
            }
        }
    }
}

impl Acc {
    /// Hold exactly `groups` groups: new ones start at the identity, and
    /// 0 clears.
    fn resize(&mut self, groups: usize) {
        match self {
            Acc::Count(n) => n.resize(groups, 0),
            Acc::SumInt { sum, seen } => {
                sum.resize(groups, 0);
                seen.resize(groups, false);
            }
            Acc::SumFloat { sum, seen } => {
                sum.resize(groups, 0.0);
                seen.resize(groups, false);
            }
            Acc::MinMax { current, .. } => current.resize(groups, None),
            Acc::Avg { sum, count } => {
                sum.resize(groups, 0.0);
                count.resize(groups, 0);
            }
        }
    }

    /// Fold a run of raw values in: `ids[i]` is the group of row `start +
    /// i` of `col` (`None` is COUNT(*)). Counts, and sums over Float64,
    /// run typed loops; [`Acc::update_raw`] takes every other input a row
    /// at a time.
    fn fold_raw(&mut self, ids: &[u32], start: usize, col: Option<&Column>) {
        match (self, col) {
            // COUNT(*) has no column, so no bitmap: every row counts.
            (Acc::Count(n), col) => {
                let validity = col.and_then(Column::validity);
                for_valid(ids, start, validity, |gi, _| n[gi] += 1);
            }
            (Acc::SumFloat { sum, seen }, Some(Column::Float64 { values, validity })) => {
                for_valid(ids, start, validity.as_ref(), |gi, row| {
                    sum[gi] += values[row];
                    seen[gi] = true;
                });
            }
            (acc, col) => {
                for (i, &gi) in ids.iter().enumerate() {
                    let value = col.map_or(ValueRef::Int(1), |c| c.value_at(start + i));
                    acc.update_raw(gi as usize, value);
                }
            }
        }
    }

    /// Fold a run of partial rows in: `c0` is the call's partial column,
    /// `c1` AVG's count column. Counts and both AVG halves add; sums, mins
    /// and maxes fold exactly as raw values do.
    fn fold_partial(&mut self, ids: &[u32], start: usize, c0: &Column, c1: Option<&Column>) {
        let rows = ids.iter().zip(start..).map(|(&gi, row)| (gi as usize, row));
        match self {
            Acc::Count(n) => {
                for (gi, row) in rows {
                    if let Some(c) = c0.value_at(row).as_int() {
                        n[gi] += c;
                    }
                }
            }
            Acc::Avg { sum, count } => {
                for (gi, row) in rows {
                    if let Some(s) = c0.value_at(row).as_float_lossy() {
                        sum[gi] += s;
                    }
                    if let Some(c) = c1.and_then(|c| c.value_at(row).as_int()) {
                        count[gi] += c;
                    }
                }
            }
            acc => acc.fold_raw(ids, start, Some(c0)),
        }
    }

    /// Fold one raw value into group `gi`.
    fn update_raw(&mut self, gi: usize, value: ValueRef<'_>) {
        match self {
            Acc::Count(n) => {
                if !value.is_null() {
                    n[gi] += 1;
                }
            }
            Acc::SumInt { sum, seen } => {
                if let Some(v) = value.as_int() {
                    sum[gi] += v;
                    seen[gi] = true;
                }
            }
            Acc::SumFloat { sum, seen } => {
                if let Some(v) = value.as_float_lossy() {
                    sum[gi] += v;
                    seen[gi] = true;
                }
            }
            Acc::MinMax { current, is_min } => {
                if value.is_null() {
                    return;
                }
                let better = match &current[gi] {
                    None => true,
                    Some(c) => {
                        let ord = value.total_cmp_scalar(c);
                        (*is_min && ord == std::cmp::Ordering::Less)
                            || (!*is_min && ord == std::cmp::Ordering::Greater)
                    }
                };
                if better {
                    current[gi] = Some(value.to_scalar());
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(v) = value.as_float_lossy() {
                    sum[gi] += v;
                    count[gi] += 1;
                }
            }
        }
    }

    /// Group `gi`'s final value.
    fn finish(&self, gi: usize) -> Scalar {
        match self {
            Acc::Count(n) => Scalar::Int(n[gi]),
            Acc::SumInt { sum, seen } => {
                if seen[gi] {
                    Scalar::Int(sum[gi])
                } else {
                    Scalar::Null
                }
            }
            Acc::SumFloat { sum, seen } => {
                if seen[gi] {
                    Scalar::Float(sum[gi])
                } else {
                    Scalar::Null
                }
            }
            Acc::MinMax { current, .. } => current[gi].clone().unwrap_or(Scalar::Null),
            Acc::Avg { sum, count } => {
                if count[gi] == 0 {
                    Scalar::Null
                } else {
                    Scalar::Float(sum[gi] / count[gi] as f64)
                }
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
