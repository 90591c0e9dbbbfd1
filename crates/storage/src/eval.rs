//! The predicate kernel every device runs: column-at-a-time, three-valued.
//!
//! §7.2 installs one kernel on every device in the data path. The offload
//! predicate ([`crate::predicate`]), which smart storage, the NIC and the
//! near-memory filters run, and host filters (`Expr`) both lower onto the
//! functions here, so they cannot disagree.
//!
//! A predicate evaluates to a [`Mask`]: a `(truth, known)` bitmap pair with
//! `truth ⊆ known`. A row is TRUE where `truth` is set, FALSE where only
//! `known` is set, and NULL where neither is. Leaves compare typed slices
//! and write 64 results per bitmap word; each ANDs its column's validity
//! once. Kleene AND/OR/NOT combine whole words. SQL `WHERE` keeps `truth`.
//!
//! Comparisons follow [`Scalar::total_cmp`] exactly: floats by IEEE total
//! order (so `-0.0 < 0.0` and a positive NaN sorts above +inf), Int64
//! against Float64 through `as f64`, strings by bytes (the order of
//! `str::cmp`), and values of different kinds by [`kind_rank`]. A
//! literal is never broadcast into a column: it stays an [`Operand::Lit`].

use df_data::{kind_rank, Bitmap, Column, DataError, Scalar};

use crate::pattern::LikePattern;
use crate::zonemap::CmpOp;

/// One side of a comparison: a column of the batch or a literal.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// A column, one value per row.
    Col(&'a Column),
    /// A literal (or a device register), the same for every row.
    Lit(&'a Scalar),
}

/// A three-valued predicate result over a batch: `truth ⊆ known`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    truth: Bitmap,
    known: Bitmap,
}

impl Mask {
    /// Every row TRUE (`Some(true)`), FALSE (`Some(false)`) or NULL (`None`).
    pub fn constant(rows: usize, value: Option<bool>) -> Mask {
        let bits = |set| Bitmap::from_words(constant_words(rows, set), rows);
        Mask {
            truth: bits(value == Some(true)),
            known: bits(value.is_some()),
        }
    }

    /// A Bool column read as a predicate: its NULL rows are unknown.
    pub fn from_bool_column(column: &Column) -> Result<Mask, DataError> {
        let values = column.bool_values()?.words().to_vec();
        Ok(Mask::leaf(values, column.len(), &[column]))
    }

    /// The SQL `WHERE` selection: NULL collapses to no match.
    pub fn into_selection(self) -> Bitmap {
        self.truth
    }

    /// The mask as a Bool column whose NULL rows are the unknown ones. An
    /// all-known mask carries no validity bitmap, like `ColumnBuilder`.
    pub fn into_bool_column(self) -> Column {
        let validity = (!self.known.all_set()).then_some(self.known);
        Column::Bool {
            values: self.truth,
            validity,
        }
    }

    /// Kleene AND: FALSE dominates NULL.
    pub fn and(&self, other: &Mask) -> Mask {
        Mask {
            truth: self.truth.and(&other.truth),
            known: zip4(self, other, |at, ak, bt, bk| {
                (ak & bk) | (ak & !at) | (bk & !bt)
            }),
        }
    }

    /// Kleene OR: TRUE dominates NULL.
    pub fn or(&self, other: &Mask) -> Mask {
        Mask {
            truth: self.truth.or(&other.truth),
            known: zip4(self, other, |at, ak, bt, bk| (ak & bk) | at | bt),
        }
    }

    /// Kleene NOT: NULL stays NULL.
    pub fn not(&self) -> Mask {
        Mask {
            truth: self.known.and(&self.truth.not()),
            known: self.known.clone(),
        }
    }

    /// TRUE where `truth` is set among the rows valid in every column of
    /// `valid`; unknown elsewhere.
    fn leaf(truth: Vec<u64>, rows: usize, valid: &[&Column]) -> Mask {
        let mut known = Bitmap::ones(rows);
        for column in valid {
            if let Some(v) = column.validity() {
                known = known.and(v);
            }
        }
        Mask {
            truth: Bitmap::from_words(truth, rows).and(&known),
            known,
        }
    }
}

/// One word-wise pass over both masks' `(truth, known)` words.
fn zip4(a: &Mask, b: &Mask, f: impl Fn(u64, u64, u64, u64) -> u64) -> Bitmap {
    assert_eq!(a.truth.len(), b.truth.len(), "mask length mismatch");
    let words = a
        .truth
        .words()
        .iter()
        .zip(a.known.words())
        .zip(b.truth.words().iter().zip(b.known.words()))
        .map(|((&at, &ak), (&bt, &bk))| f(at, ak, bt, bk))
        .collect();
    Bitmap::from_words(words, a.truth.len())
}

/// `left OP right` for every row. NULL on either side gives NULL.
pub fn compare(op: CmpOp, left: Operand<'_>, right: Operand<'_>, rows: usize) -> Mask {
    match (left, right) {
        (Operand::Lit(a), Operand::Lit(b)) => {
            let value = (!a.is_null() && !b.is_null()).then(|| op.matches(a.total_cmp(b)));
            Mask::constant(rows, value)
        }
        (Operand::Lit(lit), Operand::Col(column)) => compare_lit(op.flipped(), column, lit),
        (Operand::Col(column), Operand::Lit(lit)) => compare_lit(op, column, lit),
        (Operand::Col(a), Operand::Col(b)) => compare_cols(op, a, b),
    }
}

/// `value BETWEEN low AND high`, inclusive. A NULL bound makes every row
/// NULL.
pub fn between(value: Operand<'_>, low: &Scalar, high: &Scalar, rows: usize) -> Mask {
    if low.is_null() || high.is_null() {
        return Mask::constant(rows, None);
    }
    let ge = compare(CmpOp::Ge, value, Operand::Lit(low), rows);
    let le = compare(CmpOp::Le, value, Operand::Lit(high), rows);
    Mask {
        truth: ge.truth.and(&le.truth),
        known: ge.known,
    }
}

/// `value IS NULL` (or `IS NOT NULL` when `negated`); never NULL itself.
pub fn is_null(value: Operand<'_>, negated: bool, rows: usize) -> Mask {
    let null = match value {
        Operand::Lit(s) => return Mask::constant(rows, Some(s.is_null() != negated)),
        Operand::Col(c) => c
            .validity()
            .map_or_else(|| Bitmap::zeros(rows), Bitmap::not),
    };
    Mask {
        truth: if negated { null.not() } else { null },
        known: Bitmap::ones(rows),
    }
}

/// `value LIKE pattern`. Errors unless `value` is Utf8 (or NULL).
pub fn like(value: Operand<'_>, pattern: &LikePattern, rows: usize) -> Result<Mask, DataError> {
    let mismatch = |actual: String| DataError::TypeMismatch {
        expected: "utf8".into(),
        actual,
    };
    match value {
        Operand::Lit(Scalar::Null) => Ok(Mask::constant(rows, None)),
        Operand::Lit(Scalar::Str(s)) => Ok(Mask::constant(rows, Some(pattern.matches(s)))),
        Operand::Lit(other) => Err(mismatch(
            other.data_type().map(|t| t.to_string()).unwrap_or_default(),
        )),
        Operand::Col(column @ Column::Utf8 { offsets, data, .. }) => {
            let words = match pattern.contained_literal() {
                Some(needle) => contains_rows(offsets, data, &needle),
                None => pack_rows(offsets, data, |row| pattern.matches_bytes(row)),
            };
            Ok(Mask::leaf(words, rows, &[column]))
        }
        Operand::Col(other) => Err(mismatch(other.data_type().to_string())),
    }
}

// ------------------------------------------------------------ comparisons

/// `f64::total_cmp`'s key: ordering these `i64`s orders the floats.
#[inline]
fn float_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// An Int64 value's key against floats: `as f64`, as `total_cmp` widens.
#[inline]
fn widened_key(v: i64) -> i64 {
    float_key(v as f64)
}

fn compare_lit(op: CmpOp, column: &Column, lit: &Scalar) -> Mask {
    let rows = column.len();
    if lit.is_null() {
        return Mask::constant(rows, None);
    }
    let words = match (column, lit) {
        (Column::Int64 { values: v, .. }, Scalar::Int(x)) => pack_ord(v, op, |v| v, *x),
        (Column::Int64 { values: v, .. }, Scalar::Float(x)) => {
            pack_ord(v, op, widened_key, float_key(*x))
        }
        (Column::Float64 { values: v, .. }, Scalar::Float(x)) => {
            pack_ord(v, op, float_key, float_key(*x))
        }
        (Column::Float64 { values: v, .. }, Scalar::Int(x)) => {
            pack_ord(v, op, float_key, widened_key(*x))
        }
        (Column::Utf8 { offsets, data, .. }, Scalar::Str(x)) => {
            let x = x.as_bytes();
            pack_rows(offsets, data, |row| op.matches(row.cmp(x)))
        }
        (Column::Bool { values, .. }, Scalar::Bool(x)) => {
            let x = if *x { u64::MAX } else { 0 };
            values.words().iter().map(|&a| bool_cmp(op, a, x)).collect()
        }
        _ => {
            let ord = kind_rank(Some(column.data_type())).cmp(&kind_rank(lit.data_type()));
            constant_words(rows, op.matches(ord))
        }
    };
    Mask::leaf(words, rows, &[column])
}

fn compare_cols(op: CmpOp, a: &Column, b: &Column) -> Mask {
    let rows = a.len();
    assert_eq!(rows, b.len(), "compared columns differ in length");
    let words = match (a, b) {
        (Column::Int64 { values: x, .. }, Column::Int64 { values: y, .. }) => {
            pack_ord2(x, y, op, |v| v, |v| v)
        }
        (Column::Int64 { values: x, .. }, Column::Float64 { values: y, .. }) => {
            pack_ord2(x, y, op, widened_key, float_key)
        }
        (Column::Float64 { values: x, .. }, Column::Int64 { values: y, .. }) => {
            pack_ord2(x, y, op, float_key, widened_key)
        }
        (Column::Float64 { values: x, .. }, Column::Float64 { values: y, .. }) => {
            pack_ord2(x, y, op, float_key, float_key)
        }
        (
            Column::Utf8 {
                offsets: xo,
                data: xd,
                ..
            },
            Column::Utf8 {
                offsets: yo,
                data: yd,
                ..
            },
        ) => pack_with(rows, |i| {
            op.matches(utf8_row(xo, xd, i).cmp(utf8_row(yo, yd, i)))
        }),
        (Column::Bool { values: x, .. }, Column::Bool { values: y, .. }) => x
            .words()
            .iter()
            .zip(y.words())
            .map(|(&p, &q)| bool_cmp(op, p, q))
            .collect(),
        _ => {
            let ord = kind_rank(Some(a.data_type())).cmp(&kind_rank(Some(b.data_type())));
            constant_words(rows, op.matches(ord))
        }
    };
    Mask::leaf(words, rows, &[a, b])
}

/// Compare 64 booleans at once (`false < true`).
#[inline]
fn bool_cmp(op: CmpOp, a: u64, b: u64) -> u64 {
    match op {
        CmpOp::Eq => !(a ^ b),
        CmpOp::Ne => a ^ b,
        CmpOp::Lt => !a & b,
        CmpOp::Le => !a | b,
        CmpOp::Gt => a & !b,
        CmpOp::Ge => a | !b,
    }
}

fn constant_words(rows: usize, set: bool) -> Vec<u64> {
    vec![if set { u64::MAX } else { 0 }; rows.div_ceil(64)]
}

/// `key(v) OP x` for every value, 64 results per word. The operator is
/// resolved once, outside the loop.
fn pack_ord<T: Copy, K: Ord + Copy>(
    values: &[T],
    op: CmpOp,
    key: impl Fn(T) -> K,
    x: K,
) -> Vec<u64> {
    match op {
        CmpOp::Eq => pack(values, |v| key(v) == x),
        CmpOp::Ne => pack(values, |v| key(v) != x),
        CmpOp::Lt => pack(values, |v| key(v) < x),
        CmpOp::Le => pack(values, |v| key(v) <= x),
        CmpOp::Gt => pack(values, |v| key(v) > x),
        CmpOp::Ge => pack(values, |v| key(v) >= x),
    }
}

/// `ka(a) OP kb(b)` row by row over two equally long slices.
fn pack_ord2<A: Copy, B: Copy, K: Ord>(
    a: &[A],
    b: &[B],
    op: CmpOp,
    ka: impl Fn(A) -> K,
    kb: impl Fn(B) -> K,
) -> Vec<u64> {
    pack_with(a.len(), |i| op.matches(ka(a[i]).cmp(&kb(b[i]))))
}

/// `pred(v)` for every value, 64 results per word.
#[inline]
fn pack<T: Copy>(values: &[T], pred: impl Fn(T) -> bool) -> Vec<u64> {
    values
        .chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (j, &v)| w | (u64::from(pred(v)) << j))
        })
        .collect()
}

/// `pred(i)` for every row index, 64 results per word.
fn pack_with(rows: usize, mut pred: impl FnMut(usize) -> bool) -> Vec<u64> {
    let mut words = vec![0u64; rows.div_ceil(64)];
    for (w, word) in words.iter_mut().enumerate() {
        let base = w * 64;
        for i in base..(base + 64).min(rows) {
            *word |= u64::from(pred(i)) << (i - base);
        }
    }
    words
}

/// The bytes of Utf8 row `i`. Offsets are absolute into `data`, so views
/// need no rebasing.
#[inline]
fn utf8_row<'a>(offsets: &[u32], data: &'a [u8], i: usize) -> &'a [u8] {
    &data[offsets[i] as usize..offsets[i + 1] as usize]
}

/// `pred(row bytes)` for every Utf8 row.
fn pack_rows(offsets: &[u32], data: &[u8], pred: impl Fn(&[u8]) -> bool) -> Vec<u64> {
    let rows = offsets.len().saturating_sub(1);
    pack_with(rows, |i| pred(utf8_row(offsets, data, i)))
}

/// The first position of the non-empty `needle` in `haystack`. Candidate
/// starts are filtered 32 at a time by the needle's first and last byte,
/// in a loop without early exits (so it vectorizes); survivors are then
/// compared in full.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let (&first, &last) = (needle.first()?, needle.last()?);
    let span = needle.len() - 1;
    let starts = haystack.len().checked_sub(span)?;
    let found_at = |i: usize| haystack[i..i + needle.len()] == *needle;
    let mut base = 0;
    while base + 32 <= starts {
        let heads = &haystack[base..base + 32];
        let tails = &haystack[base + span..base + span + 32];
        let mut hits = heads
            .iter()
            .zip(tails)
            .enumerate()
            .fold(0u32, |m, (j, (&h, &t))| {
                m | (u32::from((h == first) & (t == last)) << j)
            });
        while hits != 0 {
            let at = base + hits.trailing_zeros() as usize;
            if found_at(at) {
                return Some(at);
            }
            hits &= hits - 1;
        }
        base += 32;
    }
    (base..starts).find(|&i| found_at(i))
}

/// `%needle%` over every row with one search across the view's byte
/// window. Each hit maps to its row through a forward cursor over the
/// offsets; a hit that runs past its row's end is not a match, and after
/// a match the search resumes at the next row.
fn contains_rows(offsets: &[u32], data: &[u8], needle: &[u8]) -> Vec<u64> {
    let rows = offsets.len().saturating_sub(1);
    let mut words = vec![0u64; rows.div_ceil(64)];
    let (Some(&lo), Some(&hi)) = (offsets.first(), offsets.last()) else {
        return words;
    };
    let window = &data[lo as usize..hi as usize];
    let end_of = |row: usize| (offsets[row + 1] - lo) as usize;
    let (mut row, mut at) = (0usize, 0usize);
    while let Some(hit) = find(&window[at..], needle) {
        let start = at + hit;
        while end_of(row) <= start {
            row += 1;
        }
        if start + needle.len() <= end_of(row) {
            words[row / 64] |= 1 << (row % 64);
            at = end_of(row);
            row += 1;
        } else {
            at = start + 1;
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(mask: &Mask) -> Vec<usize> {
        mask.truth.iter_ones().collect()
    }

    fn unknown(mask: &Mask) -> Vec<usize> {
        mask.known.not().iter_ones().collect()
    }

    #[test]
    fn kleene_truth_tables() {
        // Rows: (T,T) (T,F) (T,N) (F,F) (F,N) (N,N)
        let a = Mask {
            truth: Bitmap::from_bools(&[true, true, true, false, false, false]),
            known: Bitmap::from_bools(&[true, true, true, true, true, false]),
        };
        let b = Mask {
            truth: Bitmap::from_bools(&[true, false, false, false, false, false]),
            known: Bitmap::from_bools(&[true, true, false, true, false, false]),
        };
        let and = a.and(&b);
        assert_eq!(ones(&and), vec![0]);
        assert_eq!(unknown(&and), vec![2, 5]); // T AND N, N AND N
        let or = a.or(&b);
        assert_eq!(ones(&or), vec![0, 1, 2]);
        assert_eq!(unknown(&or), vec![4, 5]); // F OR N, N OR N
        let not = a.not();
        assert_eq!(ones(&not), vec![3, 4]);
        assert_eq!(unknown(&not), vec![5]);
    }

    #[test]
    fn float_order_is_total_cmp() {
        let column = Column::from_f64(vec![-0.0, 0.0, f64::NAN, f64::INFINITY, -f64::NAN]);
        let zero = Scalar::Float(0.0);
        let lt = compare(CmpOp::Lt, Operand::Col(&column), Operand::Lit(&zero), 5);
        assert_eq!(ones(&lt), vec![0, 4]); // -0.0 and -NaN sort below 0.0
        let inf = Scalar::Int(i64::MAX);
        let gt = compare(CmpOp::Gt, Operand::Col(&column), Operand::Lit(&inf), 5);
        assert_eq!(ones(&gt), vec![2, 3]);
    }

    #[test]
    fn cross_rank_and_null_literals() {
        let column = Column::from_opt_strs(&[Some("a"), None, Some("")]);
        let five = Scalar::Int(5);
        let gt = compare(CmpOp::Gt, Operand::Col(&column), Operand::Lit(&five), 3);
        assert_eq!(ones(&gt), vec![0, 2]); // strings rank above numbers
        assert_eq!(unknown(&gt), vec![1]);
        let null = compare(
            CmpOp::Eq,
            Operand::Col(&column),
            Operand::Lit(&Scalar::Null),
            3,
        );
        assert_eq!(unknown(&null), vec![0, 1, 2]);
    }

    #[test]
    fn contains_ignores_hits_across_rows() {
        // "ab|c" + "abc" : the first "abc" crosses a row boundary.
        let column = Column::from_strs(&["xab", "cz", "abc", "", "zabcab"]);
        let pattern = LikePattern::compile("%abc%");
        let m = like(Operand::Col(&column), &pattern, 5).unwrap();
        assert_eq!(ones(&m), vec![2, 4]);
        let view = column.slice(1, 4);
        let m = like(Operand::Col(&view), &pattern, 4).unwrap();
        assert_eq!(ones(&m), vec![1, 3]);
    }

    #[test]
    fn like_shapes_agree_with_the_matcher() {
        let column = Column::from_strs(&["", "ab", "ba", "aab", "abab", "é"]);
        for p in ["", "ab", "ab%", "%ab", "%ab%", "%", "a_", "%a%b", "_"] {
            let pattern = LikePattern::compile(p);
            let want: Vec<usize> = (0..column.len())
                .filter(|&i| pattern.matches(column.str_at(i)))
                .collect();
            let m = like(Operand::Col(&column), &pattern, column.len()).unwrap();
            assert_eq!(ones(&m), want, "LIKE '{p}'");
        }
        // Hits inside and after the 32-candidate blocks, and near misses.
        let mut hay = b"urgen ".repeat(12);
        assert_eq!(find(&hay, b"urgent"), None);
        hay.extend_from_slice(b"urgent");
        assert_eq!(find(&hay, b"urgent"), Some(72));
        assert_eq!(find(&hay[66..], b"urgent"), Some(6));
        assert_eq!(find(b"uurgent", b"urgent"), Some(1));
        assert_eq!(find(b"urgen", b"urgent"), None);
        assert_eq!(find(b"x", b"x"), Some(0));
    }

    #[test]
    fn like_rejects_non_strings() {
        let column = Column::from_i64(vec![1]);
        let pattern = LikePattern::compile("%");
        assert!(like(Operand::Col(&column), &pattern, 1).is_err());
        assert!(like(Operand::Lit(&Scalar::Int(1)), &pattern, 1).is_err());
    }
}
