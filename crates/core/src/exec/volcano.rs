//! The tuple-at-a-time Volcano executor — the baseline the paper departs
//! from (§1: "execution models that are very different from the pull-based
//! Volcano model").
//!
//! Every operator exposes `next() -> Option<row>`; rows are `Vec<Scalar>`
//! and every expression is interpreted per tuple. This is the historically
//! accurate contrast for experiment E1/A1: same plans, same results,
//! per-tuple control flow and interpretation overhead instead of vectorized
//! batches.

use std::collections::HashMap;

use df_data::{Batch, ColumnBuilder, Scalar, SchemaRef};

use crate::error::{EngineError, Result};
use crate::logical::{AggCall, AggFn};
use crate::ops::AggMode;
use crate::physical::{PhysNode, PhysicalPlan};

use df_storage::smart::SmartStorage;

/// A pull-based row iterator.
pub trait TupleIterator {
    /// Output schema.
    fn schema(&self) -> SchemaRef;
    /// The next row, or `None` at end of stream.
    fn next(&mut self) -> Result<Option<Vec<Scalar>>>;
}

/// Compile a physical plan into a Volcano iterator tree. Storage scans
/// materialize their pages up front (a Volcano engine still reads pages;
/// per-tuple iteration is the contrast being measured, not I/O).
pub fn compile(node: &PhysNode, storage: Option<&SmartStorage>) -> Result<Box<dyn TupleIterator>> {
    Ok(match node {
        PhysNode::StorageScan { table, request, .. } => {
            let (batches, _) = crate::exec::source::scan_materialized(storage, table, request)?;
            let schema = node.schema();
            Box::new(RowsIter::from_batches(batches, schema))
        }
        PhysNode::Values {
            batches, schema, ..
        } => Box::new(RowsIter::from_batches(batches.clone(), schema.clone())),
        PhysNode::Filter {
            input, predicate, ..
        } => Box::new(FilterIter {
            input: compile(input, storage)?,
            predicate: predicate.clone(),
        }),
        PhysNode::Project {
            input,
            exprs,
            schema,
            ..
        } => Box::new(ProjectIter {
            input: compile(input, storage)?,
            exprs: exprs.clone(),
            schema: schema.clone(),
        }),
        PhysNode::Aggregate {
            input,
            group_by,
            aggs,
            mode,
            final_schema,
            ..
        } => {
            if !matches!(mode, AggMode::Final) {
                return Err(EngineError::Plan(
                    "volcano baseline only supports final aggregation".into(),
                ));
            }
            Box::new(AggIter::new(
                compile(input, storage)?,
                group_by.clone(),
                aggs.clone(),
                final_schema.clone(),
            ))
        }
        PhysNode::HashJoin {
            build,
            probe,
            on,
            join_type,
            schema,
            ..
        } => Box::new(JoinIter::new(
            compile(build, storage)?,
            compile(probe, storage)?,
            on.clone(),
            *join_type,
            schema.clone(),
        )),
        PhysNode::Sort { input, keys, .. } => {
            Box::new(SortIter::new(compile(input, storage)?, keys.clone()))
        }
        PhysNode::Limit { input, n } => Box::new(LimitIter {
            input: compile(input, storage)?,
            left: *n,
        }),
        // The Volcano baseline has no fused operator: sort then limit.
        PhysNode::TopK { input, keys, k, .. } => Box::new(LimitIter {
            input: Box::new(SortIter::new(compile(input, storage)?, keys.clone())),
            left: *k,
        }),
        PhysNode::Exchange { .. } => {
            return Err(EngineError::Plan(
                "volcano baseline does not execute exchange fragments".into(),
            ));
        }
        PhysNode::StreamScan { .. } | PhysNode::WindowAggregate { .. } => {
            return Err(EngineError::Plan(
                "volcano baseline does not execute streaming plans".into(),
            ));
        }
    })
}

/// Run a plan to completion, assembling a batch (test/benchmark harness).
pub fn execute(plan: &PhysicalPlan, storage: Option<&SmartStorage>) -> Result<Batch> {
    let mut iter = compile(&plan.root, storage)?;
    let schema = iter.schema();
    let mut builders: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::new(f.dtype, 1024))
        .collect();
    while let Some(row) = iter.next()? {
        for (b, v) in builders.iter_mut().zip(row) {
            b.push(v)?;
        }
    }
    let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
    Batch::new(schema, columns).map_err(EngineError::from)
}

// ------------------------------------------------------------------ leaves

struct RowsIter {
    batches: Vec<Batch>,
    batch: usize,
    row: usize,
    schema: SchemaRef,
}

impl RowsIter {
    fn from_batches(batches: Vec<Batch>, schema: SchemaRef) -> RowsIter {
        RowsIter {
            batches,
            batch: 0,
            row: 0,
            schema,
        }
    }
}

impl TupleIterator for RowsIter {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<Vec<Scalar>>> {
        loop {
            let Some(batch) = self.batches.get(self.batch) else {
                return Ok(None);
            };
            if self.row < batch.rows() {
                let row = batch.row(self.row);
                self.row += 1;
                return Ok(Some(row));
            }
            self.batch += 1;
            self.row = 0;
        }
    }
}

// --------------------------------------------------------------- operators

struct FilterIter {
    input: Box<dyn TupleIterator>,
    predicate: crate::expr::Expr,
}

impl TupleIterator for FilterIter {
    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Vec<Scalar>>> {
        let schema = self.input.schema();
        while let Some(row) = self.input.next()? {
            if matches!(self.predicate.eval_row(&schema, &row)?, Scalar::Bool(true)) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct ProjectIter {
    input: Box<dyn TupleIterator>,
    exprs: Vec<(crate::expr::Expr, String)>,
    schema: SchemaRef,
}

impl TupleIterator for ProjectIter {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<Vec<Scalar>>> {
        let input_schema = self.input.schema();
        match self.input.next()? {
            None => Ok(None),
            Some(row) => {
                let out = self
                    .exprs
                    .iter()
                    .map(|(e, _)| e.eval_row(&input_schema, &row))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Some(out))
            }
        }
    }
}

struct LimitIter {
    input: Box<dyn TupleIterator>,
    left: u64,
}

impl TupleIterator for LimitIter {
    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Vec<Scalar>>> {
        if self.left == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            None => Ok(None),
            Some(row) => {
                self.left -= 1;
                Ok(Some(row))
            }
        }
    }
}

struct SortIter {
    input: Box<dyn TupleIterator>,
    keys: Vec<(String, bool)>,
    sorted: Option<std::vec::IntoIter<Vec<Scalar>>>,
}

impl SortIter {
    fn new(input: Box<dyn TupleIterator>, keys: Vec<(String, bool)>) -> SortIter {
        SortIter {
            input,
            keys,
            sorted: None,
        }
    }
}

impl TupleIterator for SortIter {
    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Vec<Scalar>>> {
        if self.sorted.is_none() {
            let schema = self.input.schema();
            let mut rows = Vec::new();
            while let Some(row) = self.input.next()? {
                rows.push(row);
            }
            let key_idx: Vec<(usize, bool)> = self
                .keys
                .iter()
                .map(|(k, asc)| Ok((schema.index_of(k)?, *asc)))
                .collect::<Result<Vec<_>>>()?;
            rows.sort_by(|a, b| {
                for &(idx, asc) in &key_idx {
                    let ord = a[idx].total_cmp(&b[idx]);
                    let ord = if asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.sorted = Some(rows.into_iter());
        }
        Ok(self.sorted.as_mut().unwrap().next())
    }
}

struct AggIter {
    input: Box<dyn TupleIterator>,
    group_by: Vec<String>,
    aggs: Vec<AggCall>,
    schema: SchemaRef,
    done: Option<std::vec::IntoIter<Vec<Scalar>>>,
}

#[derive(Clone)]
enum RowAcc {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Min(Option<Scalar>),
    Max(Option<Scalar>),
    Avg(f64, i64),
}

impl AggIter {
    fn new(
        input: Box<dyn TupleIterator>,
        group_by: Vec<String>,
        aggs: Vec<AggCall>,
        schema: SchemaRef,
    ) -> AggIter {
        AggIter {
            input,
            group_by,
            aggs,
            schema,
            done: None,
        }
    }

    fn drain(&mut self) -> Result<Vec<Vec<Scalar>>> {
        let input_schema = self.input.schema();
        let group_idx: Vec<usize> = self
            .group_by
            .iter()
            .map(|g| input_schema.index_of(g).map_err(EngineError::from))
            .collect::<Result<Vec<_>>>()?;
        let agg_idx: Vec<Option<usize>> = self
            .aggs
            .iter()
            .map(|a| match &a.column {
                Some(c) => input_schema
                    .index_of(c)
                    .map(Some)
                    .map_err(EngineError::from),
                None => Ok(None),
            })
            .collect::<Result<Vec<_>>>()?;
        let sum_is_float: Vec<bool> = self
            .aggs
            .iter()
            .map(|a| {
                matches!(
                    (&a.func, &a.column),
                    (AggFn::Sum, Some(c))
                        if input_schema.field_by_name(c).map(|f| f.dtype)
                            == Ok(df_data::DataType::Float64)
                )
            })
            .collect();

        let mut groups: HashMap<String, (Vec<Scalar>, Vec<RowAcc>)> = HashMap::new();
        while let Some(row) = self.input.next()? {
            let key_scalars: Vec<Scalar> = group_idx.iter().map(|&i| row[i].clone()).collect();
            let key = format!("{key_scalars:?}");
            let entry = groups.entry(key).or_insert_with(|| {
                let accs = self
                    .aggs
                    .iter()
                    .zip(&sum_is_float)
                    .map(|(a, &is_f)| match a.func {
                        AggFn::Count => RowAcc::Count(0),
                        AggFn::Sum if is_f => RowAcc::SumFloat(0.0, false),
                        AggFn::Sum => RowAcc::SumInt(0, false),
                        AggFn::Min => RowAcc::Min(None),
                        AggFn::Max => RowAcc::Max(None),
                        AggFn::Avg => RowAcc::Avg(0.0, 0),
                    })
                    .collect();
                (key_scalars, accs)
            });
            for (acc, idx) in entry.1.iter_mut().zip(&agg_idx) {
                let value = match idx {
                    Some(i) => row[*i].clone(),
                    None => Scalar::Int(1),
                };
                match acc {
                    RowAcc::Count(n) => {
                        if !value.is_null() {
                            *n += 1
                        }
                    }
                    RowAcc::SumInt(s, seen) => {
                        if let Some(v) = value.as_int() {
                            *s += v;
                            *seen = true;
                        }
                    }
                    RowAcc::SumFloat(s, seen) => {
                        if let Some(v) = value.as_float_lossy() {
                            *s += v;
                            *seen = true;
                        }
                    }
                    RowAcc::Min(cur) => {
                        if !value.is_null()
                            && cur
                                .as_ref()
                                .is_none_or(|c| value.total_cmp(c) == std::cmp::Ordering::Less)
                        {
                            *cur = Some(value);
                        }
                    }
                    RowAcc::Max(cur) => {
                        if !value.is_null()
                            && cur
                                .as_ref()
                                .is_none_or(|c| value.total_cmp(c) == std::cmp::Ordering::Greater)
                        {
                            *cur = Some(value);
                        }
                    }
                    RowAcc::Avg(s, n) => {
                        if let Some(v) = value.as_float_lossy() {
                            *s += v;
                            *n += 1;
                        }
                    }
                }
            }
        }
        let mut entries: Vec<_> = groups.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        if entries.is_empty() && self.group_by.is_empty() {
            // SQL: a global aggregate over nothing yields identity values.
            let row: Vec<Scalar> = self
                .aggs
                .iter()
                .map(|a| match a.func {
                    AggFn::Count => Scalar::Int(0),
                    _ => Scalar::Null,
                })
                .collect();
            return Ok(vec![row]);
        }
        Ok(entries
            .into_iter()
            .map(|(_, (scalars, accs))| {
                let mut row = scalars;
                for acc in accs {
                    row.push(match acc {
                        RowAcc::Count(n) => Scalar::Int(n),
                        RowAcc::SumInt(s, true) => Scalar::Int(s),
                        RowAcc::SumFloat(s, true) => Scalar::Float(s),
                        RowAcc::SumInt(_, false) | RowAcc::SumFloat(_, false) => Scalar::Null,
                        RowAcc::Min(v) | RowAcc::Max(v) => v.unwrap_or(Scalar::Null),
                        RowAcc::Avg(_, 0) => Scalar::Null,
                        RowAcc::Avg(s, n) => Scalar::Float(s / n as f64),
                    });
                }
                row
            })
            .collect())
    }
}

impl TupleIterator for AggIter {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<Vec<Scalar>>> {
        if self.done.is_none() {
            let rows = self.drain()?;
            self.done = Some(rows.into_iter());
        }
        Ok(self.done.as_mut().unwrap().next())
    }
}

struct JoinIter {
    build: Box<dyn TupleIterator>,
    probe: Box<dyn TupleIterator>,
    on: Vec<(String, String)>,
    join_type: crate::logical::JoinType,
    schema: SchemaRef,
    table: Option<HashMap<String, Vec<Vec<Scalar>>>>,
    matched: std::collections::HashSet<(String, usize)>,
    pending: Vec<Vec<Scalar>>,
    drained: bool,
}

impl JoinIter {
    fn new(
        build: Box<dyn TupleIterator>,
        probe: Box<dyn TupleIterator>,
        on: Vec<(String, String)>,
        join_type: crate::logical::JoinType,
        schema: SchemaRef,
    ) -> JoinIter {
        JoinIter {
            build,
            probe,
            on,
            join_type,
            schema,
            table: None,
            matched: std::collections::HashSet::new(),
            pending: Vec::new(),
            drained: false,
        }
    }

    fn key_of(keys: &[usize], row: &[Scalar]) -> Option<String> {
        let mut parts = Vec::with_capacity(keys.len());
        for &i in keys {
            if row[i].is_null() {
                return None;
            }
            parts.push(format!("{:?}", row[i]));
        }
        Some(parts.join("\u{1}"))
    }
}

impl TupleIterator for JoinIter {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<Vec<Scalar>>> {
        if self.table.is_none() {
            let build_schema = self.build.schema();
            let keys: Vec<usize> = self
                .on
                .iter()
                .map(|(l, _)| build_schema.index_of(l).map_err(EngineError::from))
                .collect::<Result<Vec<_>>>()?;
            let mut table: HashMap<String, Vec<Vec<Scalar>>> = HashMap::new();
            while let Some(row) = self.build.next()? {
                if let Some(key) = Self::key_of(&keys, &row) {
                    table.entry(key).or_default().push(row);
                }
            }
            self.table = Some(table);
        }
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            let probe_schema = self.probe.schema();
            let keys: Vec<usize> = self
                .on
                .iter()
                .map(|(_, r)| probe_schema.index_of(r).map_err(EngineError::from))
                .collect::<Result<Vec<_>>>()?;
            match self.probe.next()? {
                None => {
                    if self.join_type == crate::logical::JoinType::Left && !self.drained {
                        // Emit every unmatched build row with NULL probe
                        // columns (arity from the output schema).
                        self.drained = true;
                        let nright = self.schema.len() - self.build.schema().len();
                        let table = self.table.as_ref().unwrap();
                        // Deterministic output order: drain unmatched
                        // rows sorted by key, not in HashMap order.
                        let mut keys_sorted: Vec<&String> = table.keys().collect();
                        keys_sorted.sort();
                        for key in keys_sorted {
                            let rows = &table[key];
                            for (i, build_row) in rows.iter().enumerate() {
                                if !self.matched.contains(&(key.clone(), i)) {
                                    let mut out = build_row.clone();
                                    out.extend(std::iter::repeat_n(Scalar::Null, nright));
                                    self.pending.push(out);
                                }
                            }
                        }
                        continue;
                    }
                    return Ok(None);
                }
                Some(row) => {
                    if let Some(key) = Self::key_of(&keys, &row) {
                        if let Some(hits) = self.table.as_ref().unwrap().get(&key) {
                            for (i, build_row) in hits.iter().enumerate() {
                                if self.join_type == crate::logical::JoinType::Left {
                                    self.matched.insert((key.clone(), i));
                                }
                                let mut out = build_row.clone();
                                out.extend(row.iter().cloned());
                                self.pending.push(out);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::push::{execute as push_execute, ExecEnv};
    use crate::expr::{col, lit};
    use crate::logical::LogicalPlan;
    use df_data::batch::batch_of;
    use df_data::Column;

    fn sample(n: usize) -> Batch {
        batch_of(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "grp",
                Column::from_strs(&(0..n).map(|i| format!("g{}", i % 3)).collect::<Vec<_>>()),
            ),
            (
                "v",
                Column::from_opt_i64(
                    &(0..n as i64)
                        .map(|i| if i % 7 == 0 { None } else { Some(i % 20) })
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    fn values(n: usize) -> PhysNode {
        let b = sample(n);
        PhysNode::Values {
            schema: b.schema().clone(),
            batches: b.split(13).unwrap(),
            device: None,
        }
    }

    /// The key property: Volcano and push executors agree on every plan.
    fn assert_agree(root: PhysNode) {
        let plan = PhysicalPlan::new(root, "volcano-test");
        let push = push_execute(&plan, &ExecEnv::in_memory()).unwrap();
        let volcano = execute(&plan, None).unwrap();
        let push_batch = if push.batches.is_empty() {
            Batch::empty(plan.schema())
        } else {
            push.collect().unwrap()
        };
        assert_eq!(
            push_batch.canonical_rows(),
            volcano.canonical_rows(),
            "push and volcano disagree"
        );
    }

    #[test]
    fn filter_agrees() {
        assert_agree(PhysNode::Filter {
            input: Box::new(values(200)),
            predicate: col("v").gt(lit(10)),
            device: None,
            use_kernel: false,
        });
    }

    #[test]
    fn project_agrees() {
        let schema = df_data::Schema::new(vec![df_data::Field::nullable(
            "x",
            df_data::DataType::Int64,
        )])
        .into_ref();
        assert_agree(PhysNode::Project {
            input: Box::new(values(100)),
            exprs: vec![(col("id").mul(lit(3)), "x".into())],
            schema,
            device: None,
        });
    }

    #[test]
    fn aggregate_agrees() {
        let calls = vec![
            AggCall::count_star("n"),
            AggCall::new(AggFn::Sum, "v", "s"),
            AggCall::new(AggFn::Avg, "v", "a"),
            AggCall::new(AggFn::Min, "v", "lo"),
            AggCall::new(AggFn::Max, "v", "hi"),
        ];
        let logical = LogicalPlan::values(vec![sample(100)])
            .unwrap()
            .aggregate(vec!["grp".into()], calls.clone())
            .unwrap();
        assert_agree(PhysNode::Aggregate {
            input: Box::new(values(100)),
            group_by: vec!["grp".into()],
            aggs: calls,
            mode: AggMode::Final,
            final_schema: logical.schema(),
            device: None,
        });
    }

    #[test]
    fn join_agrees() {
        let dims = batch_of(vec![
            ("gname", Column::from_strs(&["g0", "g2"])),
            ("label", Column::from_strs(&["zero", "two"])),
        ]);
        let logical = LogicalPlan::values(vec![dims.clone()])
            .unwrap()
            .join(
                LogicalPlan::values(vec![sample(50)]).unwrap(),
                vec![("gname", "grp")],
            )
            .unwrap();
        assert_agree(PhysNode::HashJoin {
            build: Box::new(PhysNode::Values {
                schema: dims.schema().clone(),
                batches: vec![dims],
                device: None,
            }),
            probe: Box::new(values(50)),
            on: vec![("gname".into(), "grp".into())],
            join_type: crate::logical::JoinType::Inner,
            schema: logical.schema(),
            device: None,
        });
    }

    #[test]
    fn sort_limit_agree() {
        assert_agree(PhysNode::Limit {
            input: Box::new(PhysNode::Sort {
                input: Box::new(values(100)),
                keys: vec![("v".into(), false), ("id".into(), true)],
                device: None,
            }),
            n: 10,
        });
    }

    #[test]
    fn empty_global_aggregate_agrees() {
        let logical = LogicalPlan::values(vec![sample(10)])
            .unwrap()
            .aggregate(vec![], vec![AggCall::count_star("n")])
            .unwrap();
        assert_agree(PhysNode::Aggregate {
            input: Box::new(PhysNode::Filter {
                input: Box::new(values(10)),
                predicate: col("id").gt(lit(1000)),
                device: None,
                use_kernel: false,
            }),
            group_by: vec![],
            aggs: vec![AggCall::count_star("n")],
            mode: AggMode::Final,
            final_schema: logical.schema(),
            device: None,
        });
    }

    #[test]
    fn partial_mode_rejected() {
        let plan = PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(values(10)),
                group_by: vec!["grp".into()],
                aggs: vec![AggCall::count_star("n")],
                mode: AggMode::Partial { max_groups: 4 },
                final_schema: sample(1).schema().clone(),
                device: None,
            },
            "bad",
        );
        assert!(execute(&plan, None).is_err());
    }
}
