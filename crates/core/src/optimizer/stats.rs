//! Table statistics and selectivity estimation.
//!
//! The cost model's inputs: table profiles built from segment footers (row
//! counts and whole-table zone maps — the statistics cloud-native engines
//! actually have, §3.1), plus standard selectivity heuristics with zone-map
//! range interpolation. Plans are priced on physical nodes, by
//! [`estimate_node`](crate::optimizer::cost::estimate_node).

use std::collections::HashMap;

use df_data::{Scalar, Schema};
use df_storage::table::TableStats;
use df_storage::zonemap::{CmpOp, ZoneMap};

use crate::expr::Expr;

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableProfile {
    /// Total rows.
    pub rows: u64,
    /// Stored (encoded) bytes.
    pub stored_bytes: u64,
    /// Whole-table zone map per column, aligned with the schema.
    pub zones: Vec<Option<ZoneMap>>,
    /// The table schema.
    pub schema: Schema,
}

impl TableProfile {
    /// Build from storage-layer stats.
    pub fn from_stats(stats: &TableStats, schema: Schema) -> TableProfile {
        TableProfile {
            rows: stats.rows,
            stored_bytes: stats.stored_bytes,
            zones: stats.column_zones.clone(),
            schema,
        }
    }

    fn zone_for(&self, column: &str) -> Option<&ZoneMap> {
        self.schema
            .index_of(column)
            .ok()
            .and_then(|i| self.zones.get(i).and_then(Option::as_ref))
    }
}

/// Average in-memory width of a row under a schema, in bytes.
pub fn avg_row_width(schema: &Schema) -> u64 {
    schema
        .fields()
        .iter()
        .map(|f| match f.dtype.fixed_width() {
            Some(w) => w as u64,
            None => 16, // strings: offsets + typical payload
        })
        .sum::<u64>()
        .max(1)
}

/// Default selectivities when nothing better is known.
mod defaults {
    pub const EQ: f64 = 0.05;
    pub const RANGE: f64 = 0.3;
    pub const LIKE_PREFIX: f64 = 0.05;
    pub const LIKE_CONTAINS: f64 = 0.1;
    pub const NULL_FRAC: f64 = 0.02;
}

/// Estimated selectivity of a predicate over a table profile (or defaults
/// when `profile` is `None`).
pub fn selectivity(expr: &Expr, profile: Option<&TableProfile>) -> f64 {
    let s = match expr {
        Expr::Lit(Scalar::Bool(true)) => 1.0,
        Expr::Lit(Scalar::Bool(false)) => 0.0,
        Expr::And(children) => children.iter().map(|c| selectivity(c, profile)).product(),
        Expr::Or(children) => {
            // Inclusion-exclusion under independence.
            1.0 - children
                .iter()
                .map(|c| 1.0 - selectivity(c, profile))
                .product::<f64>()
        }
        Expr::Not(inner) => 1.0 - selectivity(inner, profile),
        Expr::Cmp { op, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => cmp_selectivity(c, *op, v, profile),
            (Expr::Lit(v), Expr::Col(c)) => cmp_selectivity(c, op.flipped(), v, profile),
            _ => defaults::RANGE,
        },
        Expr::Between { expr, low, high } => match expr.as_ref() {
            Expr::Col(c) => {
                let ge = cmp_selectivity(c, CmpOp::Ge, low, profile);
                let le = cmp_selectivity(c, CmpOp::Le, high, profile);
                (ge + le - 1.0).max(0.001)
            }
            _ => defaults::RANGE,
        },
        Expr::Like { pattern, .. } => {
            if pattern.starts_with('%') {
                defaults::LIKE_CONTAINS
            } else {
                defaults::LIKE_PREFIX
            }
        }
        Expr::IsNull { negated, .. } => {
            if *negated {
                1.0 - defaults::NULL_FRAC
            } else {
                defaults::NULL_FRAC
            }
        }
        _ => defaults::RANGE,
    };
    s.clamp(0.0, 1.0)
}

fn cmp_selectivity(
    column: &str,
    op: CmpOp,
    literal: &Scalar,
    profile: Option<&TableProfile>,
) -> f64 {
    let Some(profile) = profile else {
        return default_for_op(op);
    };
    let Some(zone) = profile.zone_for(column) else {
        return default_for_op(op);
    };
    // Zone-map proof of emptiness.
    if zone.can_skip(op, literal) {
        return 0.0;
    }
    let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
        return default_for_op(op);
    };
    // Numeric interpolation on the [min, max] range.
    let interp = match (
        min.as_float_lossy(),
        max.as_float_lossy(),
        literal.as_float_lossy(),
    ) {
        (Some(lo), Some(hi), Some(v)) if hi > lo => Some(((v - lo) / (hi - lo)).clamp(0.0, 1.0)),
        _ => None,
    };
    match (op, interp) {
        (CmpOp::Eq, _) => {
            // Distinct-value estimate: integer span or row count.
            let ndv = match (min, max) {
                (Scalar::Int(a), Scalar::Int(b)) => {
                    ((b - a).unsigned_abs() + 1).min(profile.rows.max(1))
                }
                _ => (profile.rows as f64).sqrt().max(2.0) as u64,
            };
            1.0 / ndv.max(1) as f64
        }
        (CmpOp::Ne, _) => 1.0 - cmp_selectivity(column, CmpOp::Eq, literal, Some(profile)),
        (CmpOp::Lt, Some(f)) | (CmpOp::Le, Some(f)) => f.max(0.001),
        (CmpOp::Gt, Some(f)) | (CmpOp::Ge, Some(f)) => (1.0 - f).max(0.001),
        (op, None) => default_for_op(op),
    }
}

fn default_for_op(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => defaults::EQ,
        CmpOp::Ne => 1.0 - defaults::EQ,
        _ => defaults::RANGE,
    }
}

/// Table profiles by name.
pub type Profiles = HashMap<String, TableProfile>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use df_data::DataType;
    use df_data::{Column, Field};

    fn profile(rows: u64, lo: i64, hi: i64) -> TableProfile {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        let zone = ZoneMap::of(&Column::from_i64(vec![lo, hi]));
        TableProfile {
            rows,
            stored_bytes: rows * 20,
            zones: vec![Some(ZoneMap { rows, ..zone }), None],
            schema,
        }
    }

    #[test]
    fn range_interpolation() {
        let p = profile(1000, 0, 999);
        // id < 100 over [0, 999]: about 10%.
        let s = selectivity(&col("id").lt(lit(100)), Some(&p));
        assert!((s - 0.1).abs() < 0.01, "s={s}");
        let s_hi = selectivity(&col("id").gt(lit(899)), Some(&p));
        assert!((s_hi - 0.1).abs() < 0.01, "s={s_hi}");
    }

    #[test]
    fn zone_proven_empty_is_zero() {
        let p = profile(1000, 0, 999);
        assert_eq!(selectivity(&col("id").gt(lit(5000)), Some(&p)), 0.0);
        assert_eq!(selectivity(&col("id").eq(lit(-1)), Some(&p)), 0.0);
    }

    #[test]
    fn eq_uses_integer_span_ndv() {
        let p = profile(1000, 0, 99); // 100 distinct values possible
        let s = selectivity(&col("id").eq(lit(50)), Some(&p));
        assert!((s - 0.01).abs() < 1e-9, "s={s}");
    }

    #[test]
    fn and_or_compose() {
        let p = profile(1000, 0, 999);
        let a = col("id").lt(lit(500)); // ~0.5
        let b = col("id").ge(lit(500)); // ~0.5
        let and = selectivity(&a.clone().and(b.clone()), Some(&p));
        assert!((and - 0.25).abs() < 0.01);
        let or = selectivity(&a.or(b), Some(&p));
        assert!((or - 0.75).abs() < 0.01);
    }

    #[test]
    fn between_is_range_difference() {
        let p = profile(1000, 0, 999);
        let s = selectivity(&col("id").between(100, 299), Some(&p));
        assert!((s - 0.2).abs() < 0.02, "s={s}");
    }

    #[test]
    fn like_defaults() {
        let prefix = selectivity(&col("name").like("abc%"), None);
        let contains = selectivity(&col("name").like("%abc%"), None);
        assert!(prefix < contains);
    }

    #[test]
    fn row_width() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
            Field::new("c", DataType::Bool),
        ]);
        assert_eq!(avg_row_width(&schema), 8 + 16 + 1);
    }
}
