//! Typed columns: shared value buffers plus optional validity bitmaps.
//!
//! `Utf8` columns use the offsets+bytes layout (like Arrow) rather than
//! `Vec<String>`: it serializes to the wire with two `memcpy`s, which is what
//! makes the NIC/DMA byte accounting in the fabric model honest.
//!
//! Every variant stores its values in an `Arc`-shared [`Buffer`], so
//! [`Column::slice`] is an O(1) window adjustment and [`Column::concat`] of
//! adjacent windows re-merges them without touching the payload. A `Utf8`
//! view keeps its offsets *absolute* into the shared data buffer — only the
//! offsets window narrows; the data buffer rides along untouched. Equality
//! is logical (two views are `==` when their rows match), never positional.

use crate::bitmap::Bitmap;
use crate::buffer::Buffer;
use crate::error::{DataError, Result};
use crate::types::{DataType, Scalar, ValueRef};

/// A column of values, all of one [`DataType`].
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64 {
        /// The values; garbage where invalid.
        values: Buffer<i64>,
        /// Validity bitmap; `None` means all valid.
        validity: Option<Bitmap>,
    },
    /// 64-bit floats.
    Float64 {
        /// The values; garbage where invalid.
        values: Buffer<f64>,
        /// Validity bitmap; `None` means all valid.
        validity: Option<Bitmap>,
    },
    /// UTF-8 strings in offsets + bytes layout. `offsets.len() == len + 1`.
    Utf8 {
        /// Monotonic byte offsets into `data`. For a freshly built column the
        /// first is 0 and the last is the data length; a sliced view keeps
        /// absolute offsets into the shared buffer, so neither holds there.
        offsets: Buffer<u32>,
        /// Concatenated string bytes (the full shared buffer; views do not
        /// narrow it).
        data: Buffer<u8>,
        /// Validity bitmap; `None` means all valid.
        validity: Option<Bitmap>,
    },
    /// Booleans, bit-packed.
    Bool {
        /// The values; garbage where invalid.
        values: Bitmap,
        /// Validity bitmap; `None` means all valid.
        validity: Option<Bitmap>,
    },
}

impl Column {
    // ---------------------------------------------------------- constructors

    /// An all-valid Int64 column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::Int64 {
            values: values.into(),
            validity: None,
        }
    }

    /// An Int64 column from optional values (None => NULL).
    pub fn from_opt_i64(values: &[Option<i64>]) -> Self {
        let validity = Bitmap::from_iter(values.iter().map(|v| v.is_some()));
        let raw: Vec<i64> = values.iter().map(|v| v.unwrap_or(0)).collect();
        Column::Int64 {
            values: raw.into(),
            validity: Some(validity),
        }
    }

    /// An all-valid Float64 column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float64 {
            values: values.into(),
            validity: None,
        }
    }

    /// A Float64 column from optional values (None => NULL).
    pub fn from_opt_f64(values: &[Option<f64>]) -> Self {
        let validity = Bitmap::from_iter(values.iter().map(|v| v.is_some()));
        let raw: Vec<f64> = values.iter().map(|v| v.unwrap_or(0.0)).collect();
        Column::Float64 {
            values: raw.into(),
            validity: Some(validity),
        }
    }

    /// An all-valid Utf8 column from string slices.
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut offsets = Vec::with_capacity(values.len() + 1);
        let mut data = Vec::new();
        offsets.push(0u32);
        for s in values {
            data.extend_from_slice(s.as_ref().as_bytes());
            offsets.push(u32::try_from(data.len()).expect("utf8 column > 4GiB"));
        }
        Column::Utf8 {
            offsets: offsets.into(),
            data: data.into(),
            validity: None,
        }
    }

    /// A Utf8 column from optional strings (None => NULL).
    pub fn from_opt_strs(values: &[Option<&str>]) -> Self {
        let validity = Bitmap::from_iter(values.iter().map(|v| v.is_some()));
        let mut offsets = Vec::with_capacity(values.len() + 1);
        let mut data = Vec::new();
        offsets.push(0u32);
        for s in values {
            if let Some(s) = s {
                data.extend_from_slice(s.as_bytes());
            }
            offsets.push(u32::try_from(data.len()).expect("utf8 column > 4GiB"));
        }
        Column::Utf8 {
            offsets: offsets.into(),
            data: data.into(),
            validity: Some(validity),
        }
    }

    /// An all-valid Bool column.
    pub fn from_bools(values: &[bool]) -> Self {
        Column::Bool {
            values: Bitmap::from_bools(values),
            validity: None,
        }
    }

    /// A column of `len` NULLs of the given type.
    pub fn nulls(dtype: DataType, len: usize) -> Self {
        let validity = Some(Bitmap::zeros(len));
        match dtype {
            DataType::Int64 => Column::Int64 {
                values: vec![0; len].into(),
                validity,
            },
            DataType::Float64 => Column::Float64 {
                values: vec![0.0; len].into(),
                validity,
            },
            DataType::Utf8 => Column::Utf8 {
                offsets: vec![0; len + 1].into(),
                data: Vec::new().into(),
                validity,
            },
            DataType::Bool => Column::Bool {
                values: Bitmap::zeros(len),
                validity,
            },
        }
    }

    // ---------------------------------------------------------- basic shape

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { values, .. } => values.len(),
            Column::Float64 { values, .. } => values.len(),
            Column::Utf8 { offsets, .. } => offsets.len().saturating_sub(1),
            Column::Bool { values, .. } => values.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Utf8 { .. } => DataType::Utf8,
            Column::Bool { .. } => DataType::Bool,
        }
    }

    /// The validity bitmap, if any row may be NULL.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Utf8 { validity, .. }
            | Column::Bool { validity, .. } => validity.as_ref(),
        }
    }

    /// Whether row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.validity().is_some_and(|v| !v.get(i))
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity().map_or(0, |v| v.len() - v.count_ones())
    }

    /// The value at row `i` as a [`Scalar`] (NULL-aware). Copies string
    /// payloads; hot paths should prefer [`Column::value_at`].
    pub fn scalar_at(&self, i: usize) -> Scalar {
        self.value_at(i).to_scalar()
    }

    /// The value at row `i` as a borrowed [`ValueRef`] (NULL-aware). This is
    /// the allocation-free row accessor: `Utf8` rows come back as `&str`
    /// views into the shared data buffer.
    pub fn value_at(&self, i: usize) -> ValueRef<'_> {
        assert!(i < self.len(), "row {i} out of bounds for {}", self.len());
        if self.is_null(i) {
            return ValueRef::Null;
        }
        match self {
            Column::Int64 { values, .. } => ValueRef::Int(values[i]),
            Column::Float64 { values, .. } => ValueRef::Float(values[i]),
            Column::Utf8 { .. } => ValueRef::Str(self.str_at(i)),
            Column::Bool { values, .. } => ValueRef::Bool(values.get(i)),
        }
    }

    /// The string at row `i` (ignores validity; returns "" for NULL slots).
    /// Panics on non-Utf8 columns, and on a row that is not valid UTF-8,
    /// which no constructor or decoder produces: decoders reject payloads
    /// with invalid bytes or with an offset inside a character. Bulk paths
    /// (the predicate kernel, key hashing, the aggregation kernel's Utf8
    /// key probe, `gather`, `filter`) read rows as bytes and skip this
    /// per-row check.
    pub fn str_at(&self, i: usize) -> &str {
        match self {
            Column::Utf8 { offsets, data, .. } => {
                let lo = offsets[i] as usize;
                let hi = offsets[i + 1] as usize;
                std::str::from_utf8(&data[lo..hi]).expect("column holds valid utf8")
            }
            other => panic!("str_at on {} column", other.data_type()),
        }
    }

    /// The raw i64 values; error if the column is not Int64.
    pub fn i64_values(&self) -> Result<&[i64]> {
        match self {
            Column::Int64 { values, .. } => Ok(values),
            other => Err(DataError::TypeMismatch {
                expected: "int64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// The raw f64 values; error if the column is not Float64.
    pub fn f64_values(&self) -> Result<&[f64]> {
        match self {
            Column::Float64 { values, .. } => Ok(values),
            other => Err(DataError::TypeMismatch {
                expected: "float64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// The bool values as a bitmap; error if the column is not Bool.
    pub fn bool_values(&self) -> Result<&Bitmap> {
        match self {
            Column::Bool { values, .. } => Ok(values),
            other => Err(DataError::TypeMismatch {
                expected: "bool".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// In-memory payload size in bytes: values + offsets + validity. This is
    /// the figure the movement ledger charges when a batch crosses a link —
    /// the *logical* bytes of the view, not the (possibly larger) shared
    /// allocation behind it.
    pub fn byte_size(&self) -> usize {
        let validity = self.validity().map_or(0, Bitmap::byte_size);
        let body = match self {
            Column::Int64 { values, .. } => values.len() * 8,
            Column::Float64 { values, .. } => values.len() * 8,
            Column::Utf8 { offsets, .. } => {
                let span = match (offsets.first(), offsets.last()) {
                    (Some(&lo), Some(&hi)) => (hi - lo) as usize,
                    _ => 0,
                };
                offsets.len() * 4 + span
            }
            Column::Bool { values, .. } => values.byte_size(),
        };
        body + validity
    }

    // ---------------------------------------------------------- reshaping

    /// Keep only rows whose bit is set in `selection`.
    ///
    /// Works directly off the selection's packed words (via `iter_ones`)
    /// instead of materializing a `Vec<usize>` of indices; all-set and
    /// none-set selections short-circuit without touching the payload.
    /// `Utf8` rows are copied as byte ranges straight from the offsets
    /// (see [`Column::gather`] for why that needs no UTF-8 check).
    pub fn filter(&self, selection: &Bitmap) -> Result<Column> {
        if selection.len() != self.len() {
            return Err(DataError::LengthMismatch {
                left: self.len(),
                right: selection.len(),
            });
        }
        let keep = selection.count_ones();
        if keep == selection.len() {
            return Ok(self.clone());
        }
        let validity = self
            .validity()
            .map(|v| Bitmap::from_iter(selection.iter_ones().map(|i| v.get(i))));
        Ok(match self {
            Column::Int64 { values, .. } => {
                let mut out = Vec::with_capacity(keep);
                for i in selection.iter_ones() {
                    out.push(values[i]);
                }
                Column::Int64 {
                    values: out.into(),
                    validity,
                }
            }
            Column::Float64 { values, .. } => {
                let mut out = Vec::with_capacity(keep);
                for i in selection.iter_ones() {
                    out.push(values[i]);
                }
                Column::Float64 {
                    values: out.into(),
                    validity,
                }
            }
            Column::Utf8 { offsets, data, .. } => {
                let (offsets, data) = copy_utf8_rows(offsets, data, || selection.iter_ones(), keep);
                Column::Utf8 {
                    offsets,
                    data,
                    validity,
                }
            }
            Column::Bool { values, .. } => Column::Bool {
                values: Bitmap::from_iter(selection.iter_ones().map(|i| values.get(i))),
                validity,
            },
        })
    }

    /// Build a new column from the given row indices (may repeat/reorder).
    ///
    /// `Utf8` rows are copied as byte ranges straight from the offsets into
    /// a data buffer pre-sized to their total length, without the per-row
    /// UTF-8 check `str_at` runs. Skipping it is sound: no `&str` is formed
    /// here, only bytes move, so the copy cannot create an invalid `&str`;
    /// and every row already is valid UTF-8 on its own, whether the column
    /// was built (the constructors take `&str`s) or decoded (every decoder
    /// checks the payload and that each offset falls on a character
    /// boundary). `str_at` still validates any row it later reads.
    pub fn gather(&self, indices: &[usize]) -> Column {
        let validity = self
            .validity()
            .map(|v| Bitmap::from_iter(indices.iter().map(|&i| v.get(i))));
        match self {
            Column::Int64 { values, .. } => Column::Int64 {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity,
            },
            Column::Float64 { values, .. } => Column::Float64 {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity,
            },
            Column::Utf8 { offsets, data, .. } => {
                let (offsets, data) =
                    copy_utf8_rows(offsets, data, || indices.iter().copied(), indices.len());
                Column::Utf8 {
                    offsets,
                    data,
                    validity,
                }
            }
            Column::Bool { values, .. } => Column::Bool {
                values: Bitmap::from_iter(indices.iter().map(|&i| values.get(i))),
                validity,
            },
        }
    }

    /// A contiguous sub-range `[offset, offset+len)` of the column.
    ///
    /// O(1) for value buffers: the result shares the backing allocation and
    /// only the `(offset, len)` window changes. Validity and bit-packed Bool
    /// payloads are re-packed (O(len/64) words).
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len()),
            "slice out of bounds"
        );
        let validity = self.validity().map(|v| v.slice(offset, len));
        match self {
            Column::Int64 { values, .. } => Column::Int64 {
                values: values.slice(offset, len),
                validity,
            },
            Column::Float64 { values, .. } => Column::Float64 {
                values: values.slice(offset, len),
                validity,
            },
            Column::Utf8 { offsets, data, .. } => Column::Utf8 {
                // Offsets stay absolute; the window narrows to len+1 entries
                // and the data buffer is shared as-is.
                offsets: offsets.slice(offset, len + 1),
                data: data.clone(),
                validity,
            },
            Column::Bool { values, .. } => Column::Bool {
                values: values.slice(offset, len),
                validity,
            },
        }
    }

    /// Concatenate columns of the same type into one.
    ///
    /// When the inputs are adjacent views of one shared allocation (the
    /// common case: morsels produced by `Batch::split` coming back together),
    /// the values are re-merged into a single wider view without copying.
    /// Otherwise the payloads are bulk-copied type-wise.
    pub fn concat(columns: &[Column]) -> Result<Column> {
        if columns.is_empty() {
            return Err(DataError::InvalidArgument(
                "Column::concat requires at least one column".into(),
            ));
        }
        let dtype = columns[0].data_type();
        for c in columns {
            if c.data_type() != dtype {
                return Err(DataError::TypeMismatch {
                    expected: dtype.to_string(),
                    actual: c.data_type().to_string(),
                });
            }
        }
        let total: usize = columns.iter().map(Column::len).sum();
        let validity = concat_validity(columns, total);
        Ok(match dtype {
            DataType::Int64 => {
                let bufs: Vec<&Buffer<i64>> = columns
                    .iter()
                    .map(|c| match c {
                        Column::Int64 { values, .. } => values,
                        _ => unreachable!("type-checked above"),
                    })
                    .collect();
                let values =
                    merged_view(&bufs, total, 0).unwrap_or_else(|| bulk_copy(&bufs, total));
                Column::Int64 { values, validity }
            }
            DataType::Float64 => {
                let bufs: Vec<&Buffer<f64>> = columns
                    .iter()
                    .map(|c| match c {
                        Column::Float64 { values, .. } => values,
                        _ => unreachable!("type-checked above"),
                    })
                    .collect();
                let values =
                    merged_view(&bufs, total, 0).unwrap_or_else(|| bulk_copy(&bufs, total));
                Column::Float64 { values, validity }
            }
            DataType::Utf8 => concat_utf8(columns, total, validity),
            DataType::Bool => {
                let mut bits = Bitmap::zeros(total);
                let mut base = 0;
                for c in columns {
                    let Column::Bool { values, .. } = c else {
                        unreachable!("type-checked above")
                    };
                    for i in values.iter_ones() {
                        bits.set(base + i);
                    }
                    base += values.len();
                }
                Column::Bool {
                    values: bits,
                    validity,
                }
            }
        })
    }

    /// Iterate the rows as scalars.
    pub fn iter(&self) -> impl Iterator<Item = Scalar> + '_ {
        (0..self.len()).map(move |i| self.scalar_at(i))
    }
}

/// Columns compare by logical content: same type, length, validity, and
/// row values. Two views with different windows (e.g. a `Utf8` slice whose
/// absolute offsets differ from a freshly built copy) are equal when their
/// rows are.
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        if self.data_type() != other.data_type() || self.len() != other.len() {
            return false;
        }
        // Validity is compared per row, not structurally: an all-set bitmap
        // and an absent one describe the same logical column.
        match (self.validity(), other.validity()) {
            (None, None) => {}
            (a, b) => {
                let null_at = |v: Option<&Bitmap>, i: usize| v.is_some_and(|m| !m.get(i));
                if (0..self.len()).any(|i| null_at(a, i) != null_at(b, i)) {
                    return false;
                }
            }
        }
        match (self, other) {
            (Column::Int64 { values: a, .. }, Column::Int64 { values: b, .. }) => a == b,
            (Column::Float64 { values: a, .. }, Column::Float64 { values: b, .. }) => {
                // Bit-level equality (like the derived impl on Vec<f64>):
                // NaN payloads and signed zeros must round-trip exactly.
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Column::Bool { values: a, .. }, Column::Bool { values: b, .. }) => a == b,
            (Column::Utf8 { .. }, Column::Utf8 { .. }) => {
                (0..self.len()).all(|i| self.str_at(i) == other.str_at(i))
            }
            _ => false,
        }
    }
}

/// Copy the `count` Utf8 rows `rows()` yields, in order, into fresh offsets
/// (starting at 0) and a data buffer sized by a first pass over the rows'
/// byte spans. Rows move as raw byte ranges: see [`Column::gather`].
fn copy_utf8_rows<I: Iterator<Item = usize>>(
    offsets: &[u32],
    data: &[u8],
    rows: impl Fn() -> I,
    count: usize,
) -> (Buffer<u32>, Buffer<u8>) {
    let span = |i: usize| offsets[i] as usize..offsets[i + 1] as usize;
    let total: usize = rows().map(|i| span(i).len()).sum();
    // One check on the total covers every `u32` offset pushed below.
    assert!(u32::try_from(total).is_ok(), "utf8 column > 4GiB");
    let mut out_offsets = Vec::with_capacity(count + 1);
    let mut out = Vec::with_capacity(total);
    out_offsets.push(0u32);
    for i in rows() {
        out.extend_from_slice(&data[span(i)]);
        out_offsets.push(out.len() as u32);
    }
    (out_offsets.into(), out.into())
}

/// Merge adjacent views of one allocation into a single wider view, or
/// `None` if the inputs are not contiguous. `overlap` is 1 for Utf8 offset
/// buffers (adjacent views share their boundary offset) and 0 otherwise.
fn merged_view<T>(bufs: &[&Buffer<T>], total: usize, overlap: usize) -> Option<Buffer<T>> {
    let first = bufs[0];
    let mut prev = first;
    for &next in &bufs[1..] {
        if !prev.continues_into(next, overlap) {
            return None;
        }
        prev = next;
    }
    Some(first.view_at(first.offset(), total))
}

/// Fallback concat: one allocation, bulk `extend_from_slice` per input.
fn bulk_copy<T: Clone>(bufs: &[&Buffer<T>], total: usize) -> Buffer<T> {
    let mut out = Vec::with_capacity(total);
    for b in bufs {
        out.extend_from_slice(b.as_slice());
    }
    out.into()
}

/// Concatenated validity, normalized: all-valid inputs produce `None`.
fn concat_validity(columns: &[Column], total: usize) -> Option<Bitmap> {
    if columns.iter().all(|c| c.validity().is_none()) {
        return None;
    }
    let mut bits = Bitmap::ones(total);
    let mut base = 0;
    let mut any_null = false;
    for c in columns {
        if let Some(v) = c.validity() {
            for i in v.not().iter_ones() {
                bits.clear(base + i);
                any_null = true;
            }
        }
        base += c.len();
    }
    // Match ColumnBuilder semantics: a bitmap with every bit set is elided.
    if any_null {
        Some(bits)
    } else {
        None
    }
}

fn concat_utf8(columns: &[Column], total: usize, validity: Option<Bitmap>) -> Column {
    let parts: Vec<(&Buffer<u32>, &Buffer<u8>)> = columns
        .iter()
        .map(|c| match c {
            Column::Utf8 { offsets, data, .. } => (offsets, data),
            _ => unreachable!("type-checked above"),
        })
        .collect();
    // Zero-copy path: every part shares one data allocation and the offset
    // windows tile it back-to-back (adjacent views share a boundary offset).
    let offset_bufs: Vec<&Buffer<u32>> = parts.iter().map(|(o, _)| *o).collect();
    let same_data = parts
        .iter()
        .all(|(_, d)| d.same_allocation(parts[0].1) || d.is_empty());
    if same_data {
        if let Some(offsets) = merged_view(&offset_bufs, total + 1, 1) {
            return Column::Utf8 {
                offsets,
                data: parts[0].1.clone(),
                validity,
            };
        }
    }
    // Fallback: copy each part's byte span and rebase its offsets.
    let data_total: usize = parts
        .iter()
        .map(|(o, _)| match (o.first(), o.last()) {
            (Some(&lo), Some(&hi)) => (hi - lo) as usize,
            _ => 0,
        })
        .sum();
    let mut offsets = Vec::with_capacity(total + 1);
    let mut data = Vec::with_capacity(data_total);
    offsets.push(0u32);
    for (part_offsets, part_data) in parts {
        let Some((&lo, &hi)) = part_offsets.first().zip(part_offsets.last()) else {
            continue;
        };
        let base = data.len() as u32;
        data.extend_from_slice(&part_data[lo as usize..hi as usize]);
        for &off in &part_offsets[1..] {
            offsets.push(base + (off - lo));
        }
    }
    Column::Utf8 {
        offsets: offsets.into(),
        data: data.into(),
        validity,
    }
}

/// Incremental column construction from scalars.
///
/// Used by row-oriented producers: aggregate finalization, join output
/// assembly, workload generators, and the row-page→column transposition
/// unit.
#[derive(Debug)]
pub struct ColumnBuilder {
    dtype: DataType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    str_offsets: Vec<u32>,
    str_data: Vec<u8>,
    bools: Vec<bool>,
    validity: Vec<bool>,
    any_null: bool,
}

impl ColumnBuilder {
    /// A builder for `dtype` with room for `capacity` rows.
    pub fn new(dtype: DataType, capacity: usize) -> Self {
        let mut b = ColumnBuilder {
            dtype,
            ints: Vec::new(),
            floats: Vec::new(),
            str_offsets: Vec::new(),
            str_data: Vec::new(),
            bools: Vec::new(),
            validity: Vec::with_capacity(capacity),
            any_null: false,
        };
        match dtype {
            DataType::Int64 => b.ints.reserve(capacity),
            DataType::Float64 => b.floats.reserve(capacity),
            DataType::Utf8 => {
                b.str_offsets.reserve(capacity + 1);
                b.str_offsets.push(0);
            }
            DataType::Bool => b.bools.reserve(capacity),
        }
        b
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Append one scalar; NULL is accepted for any type, other scalars must
    /// match the builder's type (Int widens to Float builders).
    pub fn push(&mut self, value: Scalar) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        match (self.dtype, &value) {
            (DataType::Int64, Scalar::Int(v)) => self.ints.push(*v),
            (DataType::Float64, Scalar::Float(v)) => self.floats.push(*v),
            (DataType::Float64, Scalar::Int(v)) => self.floats.push(*v as f64),
            (DataType::Utf8, Scalar::Str(s)) => {
                self.str_data.extend_from_slice(s.as_bytes());
                self.str_offsets.push(self.str_data.len() as u32);
            }
            (DataType::Bool, Scalar::Bool(b)) => self.bools.push(*b),
            (expected, actual) => {
                return Err(DataError::TypeMismatch {
                    expected: expected.to_string(),
                    actual: actual
                        .data_type()
                        .map_or("null".to_string(), |t| t.to_string()),
                })
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Append a NULL row.
    pub fn push_null(&mut self) {
        match self.dtype {
            DataType::Int64 => self.ints.push(0),
            DataType::Float64 => self.floats.push(0.0),
            DataType::Utf8 => self.str_offsets.push(self.str_data.len() as u32),
            DataType::Bool => self.bools.push(false),
        }
        self.validity.push(false);
        self.any_null = true;
    }

    /// Consume the builder and produce the column.
    pub fn finish(self) -> Column {
        let validity = if self.any_null {
            Some(Bitmap::from_bools(&self.validity))
        } else {
            None
        };
        match self.dtype {
            DataType::Int64 => Column::Int64 {
                values: self.ints.into(),
                validity,
            },
            DataType::Float64 => Column::Float64 {
                values: self.floats.into(),
                validity,
            },
            DataType::Utf8 => Column::Utf8 {
                offsets: self.str_offsets.into(),
                data: self.str_data.into(),
                validity,
            },
            DataType::Bool => Column::Bool {
                values: Bitmap::from_bools(&self.bools),
                validity,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.scalar_at(1), Scalar::Int(2));
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn nullable_int() {
        let c = Column::from_opt_i64(&[Some(1), None, Some(3)]);
        assert_eq!(c.null_count(), 1);
        assert!(c.is_null(1));
        assert_eq!(c.scalar_at(1), Scalar::Null);
        assert_eq!(c.scalar_at(2), Scalar::Int(3));
    }

    #[test]
    fn utf8_layout() {
        let c = Column::from_strs(&["ab", "", "cde"]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.str_at(0), "ab");
        assert_eq!(c.str_at(1), "");
        assert_eq!(c.str_at(2), "cde");
        assert_eq!(c.scalar_at(2), Scalar::Str("cde".into()));
    }

    #[test]
    fn filter_keeps_selected() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let sel = Bitmap::from_bools(&[true, false, false, true]);
        let f = c.filter(&sel).unwrap();
        assert_eq!(f.i64_values().unwrap(), &[10, 40]);
    }

    #[test]
    fn filter_preserves_nulls() {
        let c = Column::from_opt_strs(&[Some("a"), None, Some("c")]);
        let sel = Bitmap::from_bools(&[false, true, true]);
        let f = c.filter(&sel).unwrap();
        assert_eq!(f.len(), 2);
        assert!(f.is_null(0));
        assert_eq!(f.str_at(1), "c");
    }

    #[test]
    fn filter_length_mismatch_errors() {
        let c = Column::from_i64(vec![1]);
        let sel = Bitmap::zeros(2);
        assert!(matches!(
            c.filter(&sel),
            Err(DataError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn filter_all_and_none() {
        let c = Column::from_opt_i64(&[Some(1), None, Some(3)]);
        let all = c.filter(&Bitmap::ones(3)).unwrap();
        assert_eq!(all, c);
        let none = c.filter(&Bitmap::zeros(3)).unwrap();
        assert_eq!(none.len(), 0);
        assert_eq!(none.data_type(), DataType::Int64);
    }

    #[test]
    fn gather_reorders_and_repeats() {
        let c = Column::from_strs(&["x", "y", "z"]);
        let g = c.gather(&[2, 0, 2]);
        assert_eq!(g.str_at(0), "z");
        assert_eq!(g.str_at(1), "x");
        assert_eq!(g.str_at(2), "z");
    }

    #[test]
    fn slice_is_contiguous_view() {
        let c = Column::from_i64(vec![0, 1, 2, 3, 4]);
        let s = c.slice(1, 3);
        assert_eq!(s.i64_values().unwrap(), &[1, 2, 3]);
        // Zero-copy: the view points into the parent's allocation.
        let base = c.i64_values().unwrap().as_ptr();
        // SAFETY: offset 1 is within the 5-element column above.
        assert_eq!(unsafe { base.add(1) }, s.i64_values().unwrap().as_ptr());
    }

    #[test]
    fn utf8_slice_is_zero_copy_and_logically_equal() {
        let c = Column::from_strs(&["aa", "b", "ccc", "dd"]);
        let s = c.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.str_at(0), "b");
        assert_eq!(s.str_at(1), "ccc");
        // The view equals a fresh deep copy despite different absolute offsets.
        assert_eq!(s, Column::from_strs(&["b", "ccc"]));
        // Logical byte size: 3 offsets * 4 + 4 string bytes.
        assert_eq!(s.byte_size(), 16);
    }

    #[test]
    fn concat_merges() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_opt_i64(&[None, Some(4)]);
        let c = Column::concat(&[a, b]).unwrap();
        assert_eq!(c.len(), 4);
        assert!(c.is_null(2));
        assert_eq!(c.scalar_at(3), Scalar::Int(4));
    }

    #[test]
    fn concat_of_adjacent_views_is_zero_copy() {
        let c = Column::from_i64((0..1000).collect());
        let parts: Vec<Column> = (0..4).map(|i| c.slice(i * 250, 250)).collect();
        let merged = Column::concat(&parts).unwrap();
        assert_eq!(merged, c);
        // Pointer identity: merged view reuses the original allocation.
        assert_eq!(
            merged.i64_values().unwrap().as_ptr(),
            c.i64_values().unwrap().as_ptr()
        );
    }

    #[test]
    fn concat_of_adjacent_utf8_views_is_zero_copy() {
        let strs: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let c = Column::from_strs(&strs);
        let parts: Vec<Column> = vec![c.slice(0, 40), c.slice(40, 60)];
        let merged = Column::concat(&parts).unwrap();
        assert_eq!(merged, c);
        assert_eq!(merged.str_at(99), "s99");
    }

    #[test]
    fn concat_of_unrelated_utf8_rebases_offsets() {
        let a = Column::from_strs(&["x", "yy"]);
        let b = Column::from_strs(&["zzz"]).slice(0, 1);
        let merged = Column::concat(&[a, b]).unwrap();
        assert_eq!(merged, Column::from_strs(&["x", "yy", "zzz"]));
    }

    #[test]
    fn concat_empty_input_errors() {
        assert!(matches!(
            Column::concat(&[]),
            Err(DataError::InvalidArgument(_))
        ));
    }

    #[test]
    fn concat_type_mismatch_errors() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_bools(&[true]);
        assert!(Column::concat(&[a, b]).is_err());
    }

    #[test]
    fn concat_elides_all_valid_bitmap() {
        // A validity bitmap with every bit set is normalized away, matching
        // ColumnBuilder; byte_size must agree with the builder-built column.
        let a = Column::from_opt_i64(&[Some(1), Some(2)]);
        let b = Column::from_i64(vec![3]);
        let c = Column::concat(&[a, b]).unwrap();
        assert!(c.validity().is_none());
        assert_eq!(c.byte_size(), Column::from_i64(vec![1, 2, 3]).byte_size());
    }

    #[test]
    fn value_at_borrows_strings() {
        let c = Column::from_opt_strs(&[Some("hi"), None]);
        assert_eq!(c.value_at(0), ValueRef::Str("hi"));
        assert!(c.value_at(1).is_null());
        assert_eq!(c.value_at(0).to_scalar(), Scalar::Str("hi".into()));
    }

    #[test]
    fn builder_int_then_null() {
        let mut b = ColumnBuilder::new(DataType::Int64, 2);
        b.push(Scalar::Int(7)).unwrap();
        b.push(Scalar::Null).unwrap();
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert!(c.is_null(1));
    }

    #[test]
    fn builder_widens_int_to_float() {
        let mut b = ColumnBuilder::new(DataType::Float64, 1);
        b.push(Scalar::Int(2)).unwrap();
        assert_eq!(b.finish().scalar_at(0), Scalar::Float(2.0));
    }

    #[test]
    fn builder_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(DataType::Int64, 1);
        assert!(b.push(Scalar::Str("no".into())).is_err());
    }

    #[test]
    fn byte_size_accounts_payload() {
        let c = Column::from_i64(vec![0; 100]);
        assert_eq!(c.byte_size(), 800);
        let s = Column::from_strs(&["abcd"]);
        // 2 offsets * 4 + 4 bytes of data
        assert_eq!(s.byte_size(), 12);
    }

    #[test]
    fn byte_size_of_view_charges_logical_bytes() {
        let big = Column::from_strs(&["aaaa"; 100]);
        let view = big.slice(10, 5);
        // 6 offsets * 4 + 20 string bytes, not the 400-byte shared buffer.
        assert_eq!(view.byte_size(), 44);
    }

    #[test]
    fn nulls_column() {
        let c = Column::nulls(DataType::Utf8, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 3);
    }

    #[test]
    fn bool_column_roundtrip() {
        let c = Column::from_bools(&[true, false, true]);
        assert_eq!(c.scalar_at(0), Scalar::Bool(true));
        assert_eq!(c.scalar_at(1), Scalar::Bool(false));
        assert_eq!(c.bool_values().unwrap().count_ones(), 2);
    }
}
