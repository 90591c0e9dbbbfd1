//! The accelerator programming model (§7.2).
//!
//! "Some accelerators ... are programmed directly — they lack an ISA —
//! simply by filling a small set of memory-mapped registers ... in addition
//! to the installation of some logic." Every device in the data path runs
//! one offload predicate language, [`StoragePredicate`]: its tree is the
//! installed logic and its literals (filter constants, LIKE patterns) are
//! the registers. Smart storage takes it pushed down (§3.3) and prunes
//! pages with it; NIC and near-memory filters run it on their batches.
//! [`StoragePredicate::evaluate`] calls the same predicate kernel
//! ([`df_storage::eval`]) as host filters, so offloaded and host execution
//! agree bit-for-bit.
//!
//! [`to_storage_predicate`] is the one lowering from `Expr`: a predicate
//! may leave the CPU exactly when it lowers.
//!
//! The [`regex`] module holds the streaming regular-expression engine that
//! backs accelerated pattern matching (§3.3's AQUA example).

pub mod regex;

use df_data::Scalar;
use df_storage::predicate::StoragePredicate;

use crate::expr::Expr;

/// Lower an expression into the offload predicate language, if it is
/// expressible there: column-vs-literal comparisons, LIKE, BETWEEN and IS
/// NULL over a column, `TRUE`, and boolean combinations of these. `None`
/// means the predicate stays on the host: storage does not take it and no
/// device filter runs it.
pub fn to_storage_predicate(expr: &Expr) -> Option<StoragePredicate> {
    match expr {
        Expr::Cmp { op, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => Some(StoragePredicate::Cmp {
                column: c.clone(),
                op: *op,
                literal: v.clone(),
            }),
            // literal OP col: flip the operator.
            (Expr::Lit(v), Expr::Col(c)) => Some(StoragePredicate::Cmp {
                column: c.clone(),
                op: op.flipped(),
                literal: v.clone(),
            }),
            _ => None,
        },
        Expr::And(children) => children
            .iter()
            .map(to_storage_predicate)
            .collect::<Option<Vec<_>>>()
            .map(StoragePredicate::And),
        Expr::Or(children) => children
            .iter()
            .map(to_storage_predicate)
            .collect::<Option<Vec<_>>>()
            .map(StoragePredicate::Or),
        Expr::Not(inner) => to_storage_predicate(inner).map(|p| StoragePredicate::Not(Box::new(p))),
        Expr::Like { expr, pattern } => match expr.as_ref() {
            Expr::Col(c) => Some(StoragePredicate::Like {
                column: c.clone(),
                pattern: pattern.clone(),
            }),
            _ => None,
        },
        Expr::IsNull { expr, negated } => match expr.as_ref() {
            Expr::Col(c) => Some(StoragePredicate::IsNull {
                column: c.clone(),
                negated: *negated,
            }),
            _ => None,
        },
        Expr::Between { expr, low, high } => match expr.as_ref() {
            Expr::Col(c) => Some(StoragePredicate::Between {
                column: c.clone(),
                low: low.clone(),
                high: high.clone(),
            }),
            _ => None,
        },
        Expr::Lit(Scalar::Bool(true)) => Some(StoragePredicate::True),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use df_data::batch::batch_of;
    use df_data::{Batch, Column};
    use df_storage::zonemap::CmpOp;

    fn sample() -> Batch {
        batch_of(vec![
            ("a", Column::from_i64(vec![1, 2, 3, 4, 5])),
            (
                "b",
                Column::from_opt_i64(&[Some(10), None, Some(30), None, Some(50)]),
            ),
            (
                "s",
                Column::from_strs(&["alpha", "beta", "gamma", "delta", "alphabet"]),
            ),
        ])
    }

    #[test]
    fn pushdown_lowering() {
        let p = to_storage_predicate(&col("a").gt(lit(2))).unwrap();
        assert_eq!(p, StoragePredicate::cmp("a", CmpOp::Gt, 2i64));
        // Flipped literal-first comparison.
        let q = to_storage_predicate(&lit(2).lt(col("a"))).unwrap();
        assert_eq!(q, StoragePredicate::cmp("a", CmpOp::Gt, 2i64));
        // Conjunction lowers recursively.
        let r = to_storage_predicate(&col("a").gt(lit(2)).and(col("s").like("a%"))).unwrap();
        assert!(matches!(r, StoragePredicate::And(v) if v.len() == 2));
        // Arithmetic blocks lowering entirely.
        assert!(to_storage_predicate(&col("a").add(lit(1)).gt(lit(2))).is_none());
        // Partial non-lowerable conjunct blocks the conjunction (the
        // planner splits conjunctions before calling this).
        assert!(
            to_storage_predicate(&col("a").gt(lit(2)).and(col("a").add(lit(1)).gt(lit(0))))
                .is_none()
        );
    }

    #[test]
    fn pushed_predicate_agrees_with_host() {
        let batch = sample();
        for expr in [
            col("a").between(2, 4),
            col("s").like("%eta"),
            col("b").is_null(),
            col("a").gt(lit(1)).and(col("a").lt(lit(5))),
            // NULL logic: `b` is NULL on rows 1 and 3.
            col("b").gt(lit(0)),
            col("b").gt(lit(0)).not(),
            col("b").is_not_null(),
            col("b").gt(lit(20)).and(col("a").lt(lit(5))),
            col("b").gt(lit(20)).or(col("a").lt(lit(2))),
            col("b").between(5, 35),
            // Strings.
            col("s").like("alpha%"),
            col("s").like("%a"),
            col("s").eq(lit("beta")),
            lit(3).lt(col("a")),
        ] {
            let host = expr.eval_predicate(&batch).unwrap();
            let pushed = to_storage_predicate(&expr).unwrap();
            let storage = pushed.evaluate(&batch).unwrap();
            assert_eq!(host, storage, "storage/host disagree for {expr}");
        }
    }
}
