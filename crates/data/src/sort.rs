//! Multi-key sort permutations over batches.
//!
//! Sorting is a pipeline breaker in the dataflow engine and one of the
//! operations the paper suggests staging along the data path (pre-sorting at
//! storage, §3.3). This module provides the order-computation primitive; the
//! operators wrap it.

use std::cmp::Ordering;

use crate::batch::Batch;
use crate::error::{DataError, Result};

/// One sort key: a column index and a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Index of the key column in the batch schema.
    pub column: usize,
    /// Ascending (`true`) or descending. NULLs sort first either way.
    pub ascending: bool,
}

impl SortKey {
    /// An ascending key on `column`.
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            ascending: true,
        }
    }

    /// A descending key on `column`.
    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            ascending: false,
        }
    }
}

/// Compute the stable permutation that orders `batch` by `keys`.
pub fn sort_indices(batch: &Batch, keys: &[SortKey]) -> Result<Vec<usize>> {
    for k in keys {
        if k.column >= batch.columns().len() {
            return Err(DataError::OutOfBounds {
                index: k.column,
                len: batch.columns().len(),
            });
        }
    }
    let mut indices: Vec<usize> = (0..batch.rows()).collect();
    indices.sort_by(|&a, &b| compare_rows(batch, keys, a, b));
    Ok(indices)
}

/// Compare two rows of `batch` under the sort keys.
pub fn compare_rows(batch: &Batch, keys: &[SortKey], a: usize, b: usize) -> Ordering {
    for k in keys {
        let col = batch.column(k.column);
        let ord = col.scalar_at(a).total_cmp(&col.scalar_at(b));
        let ord = if k.ascending { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort a batch by the given keys, returning a new batch.
pub fn sort_batch(batch: &Batch, keys: &[SortKey]) -> Result<Batch> {
    let indices = sort_indices(batch, keys)?;
    Ok(batch.gather(&indices))
}

/// Check whether `batch` is sorted under `keys` (test/debug helper and the
/// property-test oracle).
pub fn is_sorted(batch: &Batch, keys: &[SortKey]) -> bool {
    (1..batch.rows()).all(|i| compare_rows(batch, keys, i - 1, i) != Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_of;
    use crate::column::Column;
    use crate::types::Scalar;

    fn sample() -> Batch {
        batch_of(vec![
            ("g", Column::from_i64(vec![2, 1, 2, 1])),
            (
                "v",
                Column::from_opt_i64(&[Some(10), Some(5), None, Some(7)]),
            ),
        ])
    }

    #[test]
    fn single_key_ascending() {
        let sorted = sort_batch(&sample(), &[SortKey::asc(0)]).unwrap();
        assert_eq!(sorted.column(0).i64_values().unwrap(), &[1, 1, 2, 2]);
        assert!(is_sorted(&sorted, &[SortKey::asc(0)]));
    }

    #[test]
    fn two_keys_with_direction() {
        let keys = [SortKey::asc(0), SortKey::desc(1)];
        let sorted = sort_batch(&sample(), &keys).unwrap();
        // group 1: values 7, 5 desc; group 2: NULL sorts first => desc puts it last.
        assert_eq!(sorted.row(0), vec![Scalar::Int(1), Scalar::Int(7)]);
        assert_eq!(sorted.row(1), vec![Scalar::Int(1), Scalar::Int(5)]);
        assert_eq!(sorted.row(2), vec![Scalar::Int(2), Scalar::Int(10)]);
        assert_eq!(sorted.row(3), vec![Scalar::Int(2), Scalar::Null]);
        assert!(is_sorted(&sorted, &keys));
    }

    #[test]
    fn nulls_sort_first_ascending() {
        let sorted = sort_batch(&sample(), &[SortKey::asc(1)]).unwrap();
        assert_eq!(sorted.row(0)[1], Scalar::Null);
    }

    #[test]
    fn sort_is_stable() {
        let b = batch_of(vec![
            ("k", Column::from_i64(vec![1, 1, 1])),
            ("pos", Column::from_i64(vec![0, 1, 2])),
        ]);
        let sorted = sort_batch(&b, &[SortKey::asc(0)]).unwrap();
        assert_eq!(sorted.column(1).i64_values().unwrap(), &[0, 1, 2]);
    }

    #[test]
    fn bad_key_index_errors() {
        assert!(sort_indices(&sample(), &[SortKey::asc(9)]).is_err());
    }
}
