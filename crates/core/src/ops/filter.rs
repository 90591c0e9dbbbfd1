//! The filter operator: host-vectorized, or through the offload predicate
//! an in-path device runs.

use df_data::{Batch, SchemaRef};
use df_storage::predicate::StoragePredicate;

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::kernel::to_storage_predicate;
use crate::ops::Operator;

/// How the predicate is evaluated.
enum Mode {
    /// Native vectorized evaluation (CPU placement).
    Host(Expr),
    /// The lowered offload predicate (accelerator placement) — exercises
    /// the exact code path an in-path device would run (§7.2).
    Kernel(StoragePredicate),
}

/// Keep rows matching a predicate.
pub struct FilterOp {
    mode: Mode,
    schema: SchemaRef,
    rows_in: u64,
    rows_out: u64,
}

impl FilterOp {
    /// Host-evaluated filter.
    pub fn host(predicate: Expr, schema: SchemaRef) -> FilterOp {
        FilterOp {
            mode: Mode::Host(predicate),
            schema,
            rows_in: 0,
            rows_out: 0,
        }
    }

    /// Kernel-evaluated filter: lowers the predicate to the offload
    /// predicate language once. Fails if the predicate is not offloadable.
    pub fn kernel(predicate: &Expr, schema: SchemaRef) -> Result<FilterOp> {
        let lowered = to_storage_predicate(predicate).ok_or_else(|| {
            EngineError::Plan(format!("predicate '{predicate}' is not offloadable"))
        })?;
        Ok(FilterOp {
            mode: Mode::Kernel(lowered),
            schema,
            rows_in: 0,
            rows_out: 0,
        })
    }

    /// Observed selectivity so far (rows out / rows in).
    pub fn observed_selectivity(&self) -> f64 {
        if self.rows_in == 0 {
            1.0
        } else {
            self.rows_out as f64 / self.rows_in as f64
        }
    }
}

impl Operator for FilterOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn push(&mut self, batch: Batch) -> Result<Vec<Batch>> {
        self.rows_in += batch.rows() as u64;
        let selection = match &self.mode {
            Mode::Host(expr) => expr.eval_predicate(&batch)?,
            Mode::Kernel(predicate) => predicate.evaluate(&batch)?,
        };
        let out = if selection.all_set() {
            batch
        } else {
            batch.filter(&selection)?
        };
        self.rows_out += out.rows() as u64;
        Ok(if out.is_empty() { vec![] } else { vec![out] })
    }

    fn finish(&mut self) -> Result<Vec<Batch>> {
        Ok(vec![])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use df_data::batch::batch_of;
    use df_data::Column;

    fn sample() -> Batch {
        batch_of(vec![("x", Column::from_i64((0..100).collect()))])
    }

    #[test]
    fn host_filter_selects() {
        let b = sample();
        let mut op = FilterOp::host(col("x").lt(lit(10)), b.schema().clone());
        let out = op.push(b).unwrap();
        assert_eq!(out[0].rows(), 10);
        assert!(op.finish().unwrap().is_empty());
        assert!((op.observed_selectivity() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn kernel_filter_matches_host() {
        let b = sample();
        let pred = col("x").between(20, 29);
        let mut host = FilterOp::host(pred.clone(), b.schema().clone());
        let mut kern = FilterOp::kernel(&pred, b.schema().clone()).unwrap();
        let h = host.push(b.clone()).unwrap();
        let k = kern.push(b).unwrap();
        assert_eq!(h[0].canonical_rows(), k[0].canonical_rows());
    }

    #[test]
    fn empty_result_emits_nothing() {
        let b = sample();
        let mut op = FilterOp::host(col("x").gt(lit(1000)), b.schema().clone());
        assert!(op.push(b).unwrap().is_empty());
        assert_eq!(op.observed_selectivity(), 0.0);
    }

    #[test]
    fn non_offloadable_kernel_rejected() {
        let b = sample();
        assert!(FilterOp::kernel(&col("x").add(lit(1)).gt(lit(0)), b.schema().clone()).is_err());
    }
}
