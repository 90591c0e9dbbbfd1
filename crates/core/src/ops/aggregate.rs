//! Hash aggregation on the CPU: the aggregation kernel
//! ([`df_storage::agg`]) as a push operator.
//!
//! Storage pre-aggregation, the NIC's aggregate stages and this operator
//! run the same [`HashAggOp`], so every device groups, flushes, merges and
//! orders its output identically. The §4.4 cascade runs bounded `Partial`
//! (and bounded `Merge`) stages along the data path and an unbounded
//! `Merge` at the end; `Final` aggregates raw rows in one place. `AVG`
//! decomposes into sum+count partials, which is why partial output schemas
//! differ from final ones (see [`partial_schema`]).

use df_data::{Batch, SchemaRef};

use crate::error::Result;
use crate::ops::Operator;

pub use df_storage::agg::{partial_schema, AggMode, HashAggOp};

impl Operator for HashAggOp {
    fn schema(&self) -> SchemaRef {
        HashAggOp::schema(self)
    }

    fn push(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        Ok(HashAggOp::push(self, batch)?)
    }

    fn finish(&mut self) -> Result<Vec<Batch>> {
        Ok(HashAggOp::finish(self)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggCall, AggFn};
    use df_data::batch::batch_of;
    use df_data::{Column, Scalar};

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
            AggMode::Merge { max_groups: None },
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
            AggMode::Merge { max_groups: None },
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
