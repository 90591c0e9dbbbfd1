//! Zone maps: per-page min/max/null statistics.
//!
//! §2.1/§3.1: cloud-native engines "discard conventional indexes" and use
//! zone maps "to fetch as little data as possible". A zone map can prove a
//! page contains no qualifying row for a comparison predicate, letting the
//! smart-storage server skip the page without reading its blocks.

use std::cmp::Ordering;

use df_data::{Column, Scalar};

/// Comparison operators a zone map can reason about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate the operator on an ordering result.
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its operands swapped: `a OP b` is `b OP' a`.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }

    /// Short SQL-ish symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Min/max/null statistics for one column over one page.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-null value, if any non-null row exists.
    pub min: Option<Scalar>,
    /// Largest non-null value.
    pub max: Option<Scalar>,
    /// Number of NULL rows.
    pub null_count: u64,
    /// Total rows covered.
    pub rows: u64,
}

impl ZoneMap {
    /// Compute the zone map of a column.
    pub fn of(column: &Column) -> ZoneMap {
        let mut min: Option<Scalar> = None;
        let mut max: Option<Scalar> = None;
        let mut null_count = 0u64;
        for i in 0..column.len() {
            let v = column.scalar_at(i);
            if v.is_null() {
                null_count += 1;
                continue;
            }
            match &min {
                None => min = Some(v.clone()),
                Some(m) if v.total_cmp(m) == Ordering::Less => min = Some(v.clone()),
                _ => {}
            }
            match &max {
                None => max = Some(v),
                Some(m) if v.total_cmp(m) == Ordering::Greater => max = Some(v),
                _ => {}
            }
        }
        ZoneMap {
            min,
            max,
            null_count,
            rows: column.len() as u64,
        }
    }

    /// Whether every covered row is NULL.
    pub fn all_null(&self) -> bool {
        self.null_count == self.rows
    }

    /// Conservative check: can the page be skipped for `col OP literal`?
    /// `true` means *no row can match*; `false` means "must read the page".
    /// NULL comparisons never match, so all-null pages are always skippable.
    pub fn can_skip(&self, op: CmpOp, literal: &Scalar) -> bool {
        if literal.is_null() {
            // `col OP NULL` matches nothing under SQL semantics.
            return true;
        }
        if self.all_null() {
            return true;
        }
        let (min, max) = match (&self.min, &self.max) {
            (Some(min), Some(max)) => (min, max),
            _ => return false, // inconsistent map: be conservative
        };
        match op {
            CmpOp::Eq => {
                literal.total_cmp(min) == Ordering::Less
                    || literal.total_cmp(max) == Ordering::Greater
            }
            CmpOp::Ne => {
                // Skippable only if every row equals the literal.
                min.total_cmp(max) == Ordering::Equal
                    && literal.total_cmp(min) == Ordering::Equal
                    && self.null_count == 0
            }
            CmpOp::Lt => literal.total_cmp(min) != Ordering::Greater,
            CmpOp::Le => literal.total_cmp(min) == Ordering::Less,
            CmpOp::Gt => literal.total_cmp(max) != Ordering::Less,
            CmpOp::Ge => literal.total_cmp(max) == Ordering::Greater,
        }
    }

    /// Merge two zone maps covering disjoint row sets (segment-level stats).
    pub fn merge(&self, other: &ZoneMap) -> ZoneMap {
        let pick = |a: &Option<Scalar>, b: &Option<Scalar>, want: Ordering| match (a, b) {
            (Some(x), Some(y)) => {
                if x.total_cmp(y) == want {
                    Some(x.clone())
                } else {
                    Some(y.clone())
                }
            }
            (Some(x), None) => Some(x.clone()),
            (None, Some(y)) => Some(y.clone()),
            (None, None) => None,
        };
        ZoneMap {
            min: pick(&self.min, &other.min, Ordering::Less),
            max: pick(&self.max, &other.max, Ordering::Greater),
            null_count: self.null_count + other.null_count,
            rows: self.rows + other.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zm(values: &[Option<i64>]) -> ZoneMap {
        ZoneMap::of(&Column::from_opt_i64(values))
    }

    #[test]
    fn computes_min_max_nulls() {
        let z = zm(&[Some(5), None, Some(-3), Some(9)]);
        assert_eq!(z.min, Some(Scalar::Int(-3)));
        assert_eq!(z.max, Some(Scalar::Int(9)));
        assert_eq!(z.null_count, 1);
        assert_eq!(z.rows, 4);
    }

    #[test]
    fn eq_pruning() {
        let z = zm(&[Some(10), Some(20)]);
        assert!(z.can_skip(CmpOp::Eq, &Scalar::Int(5)));
        assert!(z.can_skip(CmpOp::Eq, &Scalar::Int(25)));
        assert!(!z.can_skip(CmpOp::Eq, &Scalar::Int(15)));
        assert!(!z.can_skip(CmpOp::Eq, &Scalar::Int(10)));
    }

    #[test]
    fn range_pruning() {
        let z = zm(&[Some(10), Some(20)]);
        assert!(z.can_skip(CmpOp::Lt, &Scalar::Int(10)));
        assert!(!z.can_skip(CmpOp::Lt, &Scalar::Int(11)));
        assert!(z.can_skip(CmpOp::Le, &Scalar::Int(9)));
        assert!(!z.can_skip(CmpOp::Le, &Scalar::Int(10)));
        assert!(z.can_skip(CmpOp::Gt, &Scalar::Int(20)));
        assert!(!z.can_skip(CmpOp::Gt, &Scalar::Int(19)));
        assert!(z.can_skip(CmpOp::Ge, &Scalar::Int(21)));
        assert!(!z.can_skip(CmpOp::Ge, &Scalar::Int(20)));
    }

    #[test]
    fn ne_pruning_needs_constant_page() {
        assert!(zm(&[Some(7), Some(7)]).can_skip(CmpOp::Ne, &Scalar::Int(7)));
        assert!(!zm(&[Some(7), Some(8)]).can_skip(CmpOp::Ne, &Scalar::Int(7)));
        // A NULL row does not equal 7, but it does not match `<> 7` either
        // under SQL semantics, so the page is still skippable... except our
        // conservative rule keeps it. Verify we only skip when provably safe.
        assert!(!zm(&[Some(7), None]).can_skip(CmpOp::Ne, &Scalar::Int(8)));
    }

    #[test]
    fn null_literal_always_skips() {
        let z = zm(&[Some(1), Some(2)]);
        assert!(z.can_skip(CmpOp::Eq, &Scalar::Null));
        assert!(z.can_skip(CmpOp::Lt, &Scalar::Null));
    }

    #[test]
    fn all_null_page_skips_everything() {
        let z = zm(&[None, None]);
        assert!(z.all_null());
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(z.can_skip(op, &Scalar::Int(0)), "{op:?}");
        }
    }

    #[test]
    fn string_zone_maps() {
        let z = ZoneMap::of(&Column::from_strs(&["banana", "apple", "cherry"]));
        assert_eq!(z.min, Some(Scalar::Str("apple".into())));
        assert_eq!(z.max, Some(Scalar::Str("cherry".into())));
        assert!(z.can_skip(CmpOp::Eq, &Scalar::Str("zebra".into())));
        assert!(!z.can_skip(CmpOp::Eq, &Scalar::Str("berry".into())));
    }

    #[test]
    fn merge_combines_ranges() {
        let a = zm(&[Some(1), Some(5)]);
        let b = zm(&[Some(3), Some(9), None]);
        let m = a.merge(&b);
        assert_eq!(m.min, Some(Scalar::Int(1)));
        assert_eq!(m.max, Some(Scalar::Int(9)));
        assert_eq!(m.null_count, 1);
        assert_eq!(m.rows, 5);
    }

    #[test]
    fn cmp_op_matches() {
        assert!(CmpOp::Le.matches(Ordering::Equal));
        assert!(CmpOp::Le.matches(Ordering::Less));
        assert!(!CmpOp::Le.matches(Ordering::Greater));
        assert!(CmpOp::Ne.matches(Ordering::Less));
    }
}
