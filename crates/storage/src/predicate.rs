//! The one offload predicate language: what the engine pushes down to
//! storage and installs on NIC and near-memory filters.
//!
//! Deliberately self-contained (no dependency on the engine's expression
//! tree): this is the "kernel" a smart storage server accepts over the wire
//! and an in-path device runs (§3.3, §7.2). It supports exactly the
//! operations the paper identifies as pushable — comparisons, ranges, LIKE,
//! null tests, and boolean combinations — and can both *evaluate* on a
//! batch and *prune* with zone maps. Evaluation runs on the shared kernel
//! in [`crate::eval`] with SQL's three-valued (Kleene) logic, so an
//! offloaded predicate selects exactly the rows the host's `Expr` selects.

use df_data::{Batch, Bitmap, Scalar};

use crate::eval::{self, Mask, Operand};
use crate::pattern::LikePattern;
use crate::zonemap::{CmpOp, ZoneMap};

/// A predicate evaluable by the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StoragePredicate {
    /// `column OP literal`.
    Cmp {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against.
        literal: Scalar,
    },
    /// `column BETWEEN low AND high` (inclusive).
    Between {
        /// Column name.
        column: String,
        /// Lower bound.
        low: Scalar,
        /// Upper bound.
        high: Scalar,
    },
    /// `column LIKE pattern`.
    Like {
        /// Column name.
        column: String,
        /// LIKE pattern with `%`/`_`/`\` semantics.
        pattern: String,
    },
    /// `column IS [NOT] NULL`.
    IsNull {
        /// Column name.
        column: String,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// Conjunction.
    And(Vec<StoragePredicate>),
    /// Disjunction.
    Or(Vec<StoragePredicate>),
    /// Kleene negation: a row whose operand is NULL (unknown) stays
    /// unknown, so it matches neither the inner predicate nor its NOT.
    Not(Box<StoragePredicate>),
    /// Matches every row.
    True,
}

impl StoragePredicate {
    /// Shorthand for a comparison.
    pub fn cmp(column: impl Into<String>, op: CmpOp, literal: impl Into<Scalar>) -> Self {
        StoragePredicate::Cmp {
            column: column.into(),
            op,
            literal: literal.into(),
        }
    }

    /// Shorthand for LIKE.
    pub fn like(column: impl Into<String>, pattern: impl Into<String>) -> Self {
        StoragePredicate::Like {
            column: column.into(),
            pattern: pattern.into(),
        }
    }

    /// Column names this predicate reads (deduplicated, sorted).
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            StoragePredicate::Cmp { column, .. }
            | StoragePredicate::Between { column, .. }
            | StoragePredicate::Like { column, .. }
            | StoragePredicate::IsNull { column, .. } => out.push(column.clone()),
            StoragePredicate::And(children) | StoragePredicate::Or(children) => {
                for c in children {
                    c.collect_columns(out);
                }
            }
            StoragePredicate::Not(inner) => inner.collect_columns(out),
            StoragePredicate::True => {}
        }
    }

    /// Evaluate over a batch, producing a selection bitmap: the rows where
    /// the predicate is TRUE under SQL's three-valued logic. Fails on a
    /// missing column or a LIKE over a non-string column.
    pub fn evaluate(&self, batch: &Batch) -> df_data::Result<Bitmap> {
        Ok(self.mask(batch)?.into_selection())
    }

    /// Three-valued evaluation on the shared predicate kernel.
    fn mask(&self, batch: &Batch) -> df_data::Result<Mask> {
        let rows = batch.rows();
        let col = |name: &str| batch.column_by_name(name).map(Operand::Col);
        Ok(match self {
            StoragePredicate::True => Mask::constant(rows, Some(true)),
            StoragePredicate::Cmp {
                column,
                op,
                literal,
            } => eval::compare(*op, col(column)?, Operand::Lit(literal), rows),
            StoragePredicate::Between { column, low, high } => {
                eval::between(col(column)?, low, high, rows)
            }
            StoragePredicate::Like { column, pattern } => {
                eval::like(col(column)?, &LikePattern::compile(pattern), rows)?
            }
            StoragePredicate::IsNull { column, negated } => {
                eval::is_null(col(column)?, *negated, rows)
            }
            StoragePredicate::And(children) => {
                let mut mask = Mask::constant(rows, Some(true));
                for c in children {
                    mask = mask.and(&c.mask(batch)?);
                }
                mask
            }
            StoragePredicate::Or(children) => {
                let mut mask = Mask::constant(rows, Some(false));
                for c in children {
                    mask = mask.or(&c.mask(batch)?);
                }
                mask
            }
            // Kleene NOT: a row whose inner predicate is NULL stays NULL,
            // so it matches neither the predicate nor its negation.
            StoragePredicate::Not(inner) => inner.mask(batch)?.not(),
        })
    }

    /// Conservative page pruning: `true` means the zone maps *prove* no row
    /// of the page can match. `lookup` maps a column name to its page zone
    /// map (absent means unknown → not skippable).
    pub fn can_skip_page(&self, lookup: &dyn Fn(&str) -> Option<ZoneMap>) -> bool {
        match self {
            StoragePredicate::True => false,
            StoragePredicate::Cmp {
                column,
                op,
                literal,
            } => lookup(column).is_some_and(|zm| zm.can_skip(*op, literal)),
            StoragePredicate::Between { column, low, high } => lookup(column)
                .is_some_and(|zm| zm.can_skip(CmpOp::Ge, low) || zm.can_skip(CmpOp::Le, high)),
            StoragePredicate::Like { column, pattern } => {
                // Prefix patterns prune like a range on the prefix.
                match LikePattern::compile(pattern).literal_prefix() {
                    Some(prefix) if !prefix.is_empty() => lookup(column).is_some_and(|zm| {
                        let lo = Scalar::Str(prefix.clone());
                        if zm.can_skip(CmpOp::Ge, &lo) {
                            return true;
                        }
                        prefix_successor(&prefix)
                            .is_some_and(|succ| zm.can_skip(CmpOp::Lt, &Scalar::Str(succ)))
                    }),
                    _ => false,
                }
            }
            StoragePredicate::IsNull { column, negated } => lookup(column).is_some_and(|zm| {
                if *negated {
                    zm.all_null()
                } else {
                    zm.null_count == 0
                }
            }),
            StoragePredicate::And(children) => children.iter().any(|c| c.can_skip_page(lookup)),
            StoragePredicate::Or(children) => {
                !children.is_empty() && children.iter().all(|c| c.can_skip_page(lookup))
            }
            StoragePredicate::Not(_) => false, // stay conservative
        }
    }
}

/// The smallest string strictly greater than every string with `prefix`:
/// increment the last character. `None` if the prefix is all U+10FFFF.
fn prefix_successor(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(last) = chars.pop() {
        let next = (last as u32 + 1..=0x10FFFF).find_map(char::from_u32);
        if let Some(n) = next {
            chars.push(n);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;
    use df_data::Column;

    fn sample() -> Batch {
        batch_of(vec![
            ("id", Column::from_i64(vec![1, 2, 3, 4, 5])),
            (
                "name",
                Column::from_opt_strs(&[
                    Some("apple"),
                    Some("banana"),
                    None,
                    Some("avocado"),
                    Some("cherry"),
                ]),
            ),
            (
                "qty",
                Column::from_opt_i64(&[Some(10), None, Some(30), Some(40), Some(50)]),
            ),
        ])
    }

    fn selected(pred: &StoragePredicate) -> Vec<usize> {
        pred.evaluate(&sample()).unwrap().iter_ones().collect()
    }

    #[test]
    fn cmp_basic() {
        let p = StoragePredicate::cmp("id", CmpOp::Gt, 3i64);
        assert_eq!(selected(&p), vec![3, 4]);
    }

    #[test]
    fn cmp_nulls_never_match() {
        let p = StoragePredicate::cmp("qty", CmpOp::Ge, 0i64);
        assert_eq!(selected(&p), vec![0, 2, 3, 4]); // row 1 is NULL
        let pnull = StoragePredicate::cmp("qty", CmpOp::Eq, Scalar::Null);
        assert!(selected(&pnull).is_empty());
    }

    #[test]
    fn between_inclusive() {
        let p = StoragePredicate::Between {
            column: "id".into(),
            low: Scalar::Int(2),
            high: Scalar::Int(4),
        };
        assert_eq!(selected(&p), vec![1, 2, 3]);
    }

    #[test]
    fn like_on_strings() {
        let p = StoragePredicate::like("name", "a%");
        assert_eq!(selected(&p), vec![0, 3]); // apple, avocado; NULL skipped
    }

    #[test]
    fn like_on_ints_errors() {
        let p = StoragePredicate::like("id", "a%");
        assert!(p.evaluate(&sample()).is_err());
    }

    #[test]
    fn is_null_and_not_null() {
        let p = StoragePredicate::IsNull {
            column: "qty".into(),
            negated: false,
        };
        assert_eq!(selected(&p), vec![1]);
        let n = StoragePredicate::IsNull {
            column: "qty".into(),
            negated: true,
        };
        assert_eq!(selected(&n), vec![0, 2, 3, 4]);
    }

    #[test]
    fn and_or_combinations() {
        let p = StoragePredicate::And(vec![
            StoragePredicate::cmp("id", CmpOp::Ge, 2i64),
            StoragePredicate::cmp("id", CmpOp::Le, 4i64),
        ]);
        assert_eq!(selected(&p), vec![1, 2, 3]);
        let q = StoragePredicate::Or(vec![
            StoragePredicate::cmp("id", CmpOp::Eq, 1i64),
            StoragePredicate::cmp("id", CmpOp::Eq, 5i64),
        ]);
        assert_eq!(selected(&q), vec![0, 4]);
    }

    #[test]
    fn not_respects_null_semantics() {
        // NOT (qty > 20): NULL qty rows match neither the inner nor the NOT.
        let p = StoragePredicate::Not(Box::new(StoragePredicate::cmp("qty", CmpOp::Gt, 20i64)));
        assert_eq!(selected(&p), vec![0]); // only qty=10; row 1 NULL excluded
    }

    #[test]
    fn not_of_a_nullable_conjunction_is_kleene() {
        // a < 3 is FALSE and b > 10 is NULL: the AND is FALSE (FALSE
        // dominates NULL), so its NOT is TRUE even though b is NULL.
        let batch = batch_of(vec![
            ("a", Column::from_i64(vec![5])),
            ("b", Column::from_opt_i64(&[None])),
        ]);
        let p = StoragePredicate::Not(Box::new(StoragePredicate::And(vec![
            StoragePredicate::cmp("a", CmpOp::Lt, 3i64),
            StoragePredicate::cmp("b", CmpOp::Gt, 10i64),
        ])));
        assert_eq!(
            p.evaluate(&batch).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn true_matches_all() {
        assert_eq!(selected(&StoragePredicate::True), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn columns_collected() {
        let p = StoragePredicate::And(vec![
            StoragePredicate::cmp("id", CmpOp::Gt, 1i64),
            StoragePredicate::like("name", "a%"),
            StoragePredicate::cmp("id", CmpOp::Lt, 9i64),
        ]);
        assert_eq!(p.columns(), vec!["id".to_string(), "name".to_string()]);
    }

    #[test]
    fn pruning_cmp() {
        let zm_for = |_: &str| Some(ZoneMap::of(&Column::from_i64(vec![10, 20])));
        assert!(StoragePredicate::cmp("id", CmpOp::Gt, 25i64).can_skip_page(&zm_for));
        assert!(!StoragePredicate::cmp("id", CmpOp::Gt, 15i64).can_skip_page(&zm_for));
        // Unknown column: not skippable.
        let unknown = |_: &str| None;
        assert!(!StoragePredicate::cmp("id", CmpOp::Gt, 25i64).can_skip_page(&unknown));
    }

    #[test]
    fn pruning_and_or() {
        let zm_for = |_: &str| Some(ZoneMap::of(&Column::from_i64(vec![10, 20])));
        let impossible = StoragePredicate::cmp("id", CmpOp::Gt, 99i64);
        let possible = StoragePredicate::cmp("id", CmpOp::Gt, 0i64);
        assert!(
            StoragePredicate::And(vec![possible.clone(), impossible.clone()])
                .can_skip_page(&zm_for)
        );
        assert!(!StoragePredicate::Or(vec![possible, impossible.clone()]).can_skip_page(&zm_for));
        assert!(StoragePredicate::Or(vec![impossible.clone(), impossible]).can_skip_page(&zm_for));
    }

    #[test]
    fn pruning_like_prefix() {
        let zm_for = |_: &str| {
            Some(ZoneMap::of(&Column::from_strs(&[
                "mango",
                "melon",
                "nectarine",
            ])))
        };
        assert!(StoragePredicate::like("name", "z%").can_skip_page(&zm_for));
        assert!(StoragePredicate::like("name", "a%").can_skip_page(&zm_for));
        assert!(!StoragePredicate::like("name", "m%").can_skip_page(&zm_for));
        // Non-prefix patterns never prune.
        assert!(!StoragePredicate::like("name", "%z%").can_skip_page(&zm_for));
    }

    #[test]
    fn pruning_never_drops_matches() {
        // Soundness spot-check: if a page can be skipped, evaluating the
        // predicate on that page must select nothing.
        let batch = sample();
        let preds = [
            StoragePredicate::cmp("id", CmpOp::Gt, 10i64),
            StoragePredicate::cmp("id", CmpOp::Lt, 0i64),
            StoragePredicate::like("name", "zz%"),
            StoragePredicate::cmp("id", CmpOp::Eq, 3i64),
            StoragePredicate::like("name", "a%"),
        ];
        let lookup = |name: &str| batch.column_by_name(name).ok().map(ZoneMap::of);
        for p in preds {
            if p.can_skip_page(&lookup) {
                assert_eq!(
                    p.evaluate(&batch).unwrap().count_ones(),
                    0,
                    "pruned page had matches for {p:?}"
                );
            }
        }
    }

    #[test]
    fn prefix_successor_edge_cases() {
        assert_eq!(prefix_successor("abc"), Some("abd".to_string()));
        assert_eq!(prefix_successor("a\u{10FFFF}"), Some("b".to_string()));
        assert_eq!(prefix_successor(""), None);
    }
}
