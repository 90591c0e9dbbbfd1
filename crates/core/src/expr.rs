//! Expressions with vectorized evaluation over batches.
//!
//! Expressions are what the user writes; the kernel compiler (in
//! [`crate::kernel`]) lowers the offloadable subset into device programs,
//! and the host operators evaluate the rest with the vectorized paths here.
//! Predicates run on the same column-at-a-time kernel every device uses
//! ([`df_storage::eval`]). NULL semantics follow SQL: comparisons and
//! arithmetic over NULL yield NULL; predicates collapse NULL to "no match".

use std::borrow::Cow;
use std::fmt;

use df_data::{Batch, Bitmap, Column, ColumnBuilder, DataError, DataType, Scalar, Schema};
use df_storage::eval::{self, Mask, Operand};
use df_storage::pattern::LikePattern;
use df_storage::zonemap::CmpOp;

use crate::error::{EngineError, Result};

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division for two Int64 operands).
    Div,
}

impl ArithOp {
    /// SQL symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference by name.
    Col(String),
    /// A literal value.
    Lit(Scalar),
    /// Binary comparison producing a boolean.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Binary arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Conjunction (empty = TRUE).
    And(Vec<Expr>),
    /// Disjunction (empty = FALSE).
    Or(Vec<Expr>),
    /// Negation with SQL NULL semantics.
    Not(Box<Expr>),
    /// `expr LIKE 'pattern'`.
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// LIKE pattern.
        pattern: String,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// `true` for IS NOT NULL.
        negated: bool,
    },
    /// `expr BETWEEN low AND high` (inclusive; bounds are literals).
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound.
        low: Scalar,
        /// Upper bound.
        high: Scalar,
    },
}

/// Shorthand: a column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// Shorthand: a literal.
pub fn lit(value: impl Into<Scalar>) -> Expr {
    Expr::Lit(value.into())
}

impl Expr {
    /// `self OP other` comparison.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Eq, other)
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ne, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Lt, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Le, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Gt, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ge, other)
    }

    /// `self AND other` (flattens nested ANDs).
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), b) => {
                a.push(b);
                Expr::And(a)
            }
            (a, Expr::And(mut b)) => {
                b.insert(0, a);
                Expr::And(b)
            }
            (a, b) => Expr::And(vec![a, b]),
        }
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::Or(mut a), Expr::Or(b)) => {
                a.extend(b);
                Expr::Or(a)
            }
            (Expr::Or(mut a), b) => {
                a.push(b);
                Expr::Or(a)
            }
            (a, b) => Expr::Or(vec![a, b]),
        }
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)] // builder on owned Expr, not ops
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Sub,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Mul,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self LIKE pattern`.
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
        }
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: false,
        }
    }

    /// `self IS NOT NULL`.
    pub fn is_not_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: true,
        }
    }

    /// `self BETWEEN low AND high`.
    pub fn between(self, low: impl Into<Scalar>, high: impl Into<Scalar>) -> Expr {
        Expr::Between {
            expr: Box::new(self),
            low: low.into(),
            high: high.into(),
        }
    }

    /// Column names the expression reads (sorted, deduplicated).
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(name) => out.push(name.clone()),
            Expr::Lit(_) => {}
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(children) | Expr::Or(children) => {
                for c in children {
                    c.collect_columns(out);
                }
            }
            Expr::Not(inner) => inner.collect_columns(out),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::Between { expr, .. } => {
                expr.collect_columns(out)
            }
        }
    }

    /// Infer the output type against a schema.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        Ok(match self {
            Expr::Col(name) => schema.field_by_name(name)?.dtype,
            Expr::Lit(s) => s.data_type().unwrap_or(DataType::Int64),
            Expr::Cmp { .. }
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Like { .. }
            | Expr::IsNull { .. }
            | Expr::Between { .. } => DataType::Bool,
            Expr::Arith { op, left, right } => {
                let l = left.data_type(schema)?;
                let r = right.data_type(schema)?;
                match (l, r) {
                    // Int/Int stays Int (SQL integer division included).
                    (DataType::Int64, DataType::Int64) => DataType::Int64,
                    (DataType::Float64, DataType::Int64)
                    | (DataType::Int64, DataType::Float64)
                    | (DataType::Float64, DataType::Float64) => DataType::Float64,
                    (l, r) => {
                        return Err(EngineError::Plan(format!(
                            "cannot apply {} to {l} and {r}",
                            op.symbol()
                        )))
                    }
                }
            }
        })
    }

    /// Evaluate against a single row of scalars — the tuple-at-a-time path
    /// the Volcano baseline uses (§1's "pull-based Volcano model"). Boolean
    /// NULLs come back as `Scalar::Null`.
    pub fn eval_row(&self, schema: &Schema, row: &[Scalar]) -> Result<Scalar> {
        Ok(match self {
            Expr::Col(name) => row[schema.index_of(name)?].clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp { op, left, right } => {
                let l = left.eval_row(schema, row)?;
                let r = right.eval_row(schema, row)?;
                if l.is_null() || r.is_null() {
                    Scalar::Null
                } else {
                    Scalar::Bool(op.matches(l.total_cmp(&r)))
                }
            }
            Expr::Arith { op, left, right } => {
                let l = left.eval_row(schema, row)?;
                let r = right.eval_row(schema, row)?;
                if l.is_null() || r.is_null() {
                    return Ok(Scalar::Null);
                }
                match (l.data_type(), r.data_type()) {
                    (Some(DataType::Int64), Some(DataType::Int64)) => {
                        let (x, y) = (l.as_int().unwrap(), r.as_int().unwrap());
                        match op {
                            ArithOp::Add => Scalar::Int(x.wrapping_add(y)),
                            ArithOp::Sub => Scalar::Int(x.wrapping_sub(y)),
                            ArithOp::Mul => Scalar::Int(x.wrapping_mul(y)),
                            ArithOp::Div if y == 0 => Scalar::Null,
                            ArithOp::Div => Scalar::Int(x.wrapping_div(y)),
                        }
                    }
                    _ => {
                        let (x, y) = (
                            l.as_float_lossy().ok_or_else(|| {
                                EngineError::Plan("non-numeric arithmetic".into())
                            })?,
                            r.as_float_lossy().ok_or_else(|| {
                                EngineError::Plan("non-numeric arithmetic".into())
                            })?,
                        );
                        match op {
                            ArithOp::Add => Scalar::Float(x + y),
                            ArithOp::Sub => Scalar::Float(x - y),
                            ArithOp::Mul => Scalar::Float(x * y),
                            ArithOp::Div if y == 0.0 => Scalar::Null,
                            ArithOp::Div => Scalar::Float(x / y),
                        }
                    }
                }
            }
            Expr::And(children) => {
                let mut any_null = false;
                for c in children {
                    match c.eval_row(schema, row)? {
                        Scalar::Bool(false) => return Ok(Scalar::Bool(false)),
                        Scalar::Bool(true) => {}
                        Scalar::Null => any_null = true,
                        other => {
                            return Err(EngineError::Plan(format!("AND over non-boolean {other}")))
                        }
                    }
                }
                if any_null {
                    Scalar::Null
                } else {
                    Scalar::Bool(true)
                }
            }
            Expr::Or(children) => {
                let mut any_null = false;
                for c in children {
                    match c.eval_row(schema, row)? {
                        Scalar::Bool(true) => return Ok(Scalar::Bool(true)),
                        Scalar::Bool(false) => {}
                        Scalar::Null => any_null = true,
                        other => {
                            return Err(EngineError::Plan(format!("OR over non-boolean {other}")))
                        }
                    }
                }
                if any_null {
                    Scalar::Null
                } else {
                    Scalar::Bool(false)
                }
            }
            Expr::Not(inner) => match inner.eval_row(schema, row)? {
                Scalar::Bool(b) => Scalar::Bool(!b),
                Scalar::Null => Scalar::Null,
                other => return Err(EngineError::Plan(format!("NOT over non-boolean {other}"))),
            },
            Expr::Like { expr, pattern } => match expr.eval_row(schema, row)? {
                Scalar::Null => Scalar::Null,
                Scalar::Str(s) => Scalar::Bool(LikePattern::compile(pattern).matches(&s)),
                other => return Err(EngineError::Plan(format!("LIKE over {other}"))),
            },
            Expr::IsNull { expr, negated } => {
                let v = expr.eval_row(schema, row)?;
                Scalar::Bool(v.is_null() != *negated)
            }
            Expr::Between { expr, low, high } => {
                let v = expr.eval_row(schema, row)?;
                if v.is_null() || low.is_null() || high.is_null() {
                    Scalar::Null
                } else {
                    Scalar::Bool(
                        v.total_cmp(low) != std::cmp::Ordering::Less
                            && v.total_cmp(high) != std::cmp::Ordering::Greater,
                    )
                }
            }
        })
    }

    /// Evaluate to a column of `batch.rows()` values.
    pub fn eval(&self, batch: &Batch) -> Result<Column> {
        match self {
            Expr::Col(name) => Ok(batch.column_by_name(name)?.clone()),
            Expr::Lit(value) => {
                let dtype = value.data_type().unwrap_or(DataType::Int64);
                let mut b = ColumnBuilder::new(dtype, batch.rows());
                for _ in 0..batch.rows() {
                    b.push(value.clone())?;
                }
                Ok(b.finish())
            }
            Expr::Arith { op, left, right } => {
                let l = left.eval(batch)?;
                let r = right.eval(batch)?;
                eval_arith(*op, &l, &r)
            }
            // Boolean-valued expressions evaluate via the predicate kernel;
            // rows where the result is NULL become NULL booleans.
            _ => Ok(self.eval_predicate_3v(batch)?.into_bool_column()),
        }
    }

    /// Evaluate as a predicate: NULL collapses to false (SQL WHERE).
    pub fn eval_predicate(&self, batch: &Batch) -> Result<Bitmap> {
        Ok(self.eval_predicate_3v(batch)?.into_selection())
    }

    /// Three-valued evaluation on the shared predicate kernel
    /// ([`df_storage::eval`]): column and literal leaves are kernel
    /// operands, any other operand evaluates to a column first.
    fn eval_predicate_3v(&self, batch: &Batch) -> Result<Mask> {
        let rows = batch.rows();
        match self {
            Expr::Lit(Scalar::Bool(b)) => Ok(Mask::constant(rows, Some(*b))),
            Expr::Lit(Scalar::Null) => Ok(Mask::constant(rows, None)),
            Expr::Col(name) => Ok(Mask::from_bool_column(batch.column_by_name(name)?)?),
            Expr::Cmp { op, left, right } => {
                let (l, r) = (left.operand(batch)?, right.operand(batch)?);
                if let (Arg::Col(a), Arg::Col(b)) = (&l, &r) {
                    if a.len() != b.len() {
                        return Err(EngineError::Internal("cmp length mismatch".into()));
                    }
                }
                Ok(eval::compare(*op, l.get(), r.get(), rows))
            }
            Expr::And(children) => {
                let mut mask = Mask::constant(rows, Some(true));
                for c in children {
                    mask = mask.and(&c.eval_predicate_3v(batch)?);
                }
                Ok(mask)
            }
            Expr::Or(children) => {
                let mut mask = Mask::constant(rows, Some(false));
                for c in children {
                    mask = mask.or(&c.eval_predicate_3v(batch)?);
                }
                Ok(mask)
            }
            Expr::Not(inner) => Ok(inner.eval_predicate_3v(batch)?.not()),
            Expr::Like { expr, pattern } => {
                let value = expr.operand(batch)?;
                eval::like(value.get(), &LikePattern::compile(pattern), rows).map_err(|e| match e {
                    DataError::TypeMismatch { actual, .. } => {
                        EngineError::Plan(format!("LIKE requires utf8, got {actual}"))
                    }
                    other => other.into(),
                })
            }
            Expr::IsNull { expr, negated } => {
                Ok(eval::is_null(expr.operand(batch)?.get(), *negated, rows))
            }
            Expr::Between { expr, low, high } => {
                Ok(eval::between(expr.operand(batch)?.get(), low, high, rows))
            }
            Expr::Lit(other) => Err(EngineError::Plan(format!(
                "literal {other} is not a predicate"
            ))),
            Expr::Arith { .. } => Err(EngineError::Plan(
                "arithmetic expression used as predicate".into(),
            )),
        }
    }

    /// A kernel operand: a column borrowed from the batch, a literal, or
    /// any other expression evaluated to a column.
    fn operand<'a>(&'a self, batch: &'a Batch) -> Result<Arg<'a>> {
        Ok(match self {
            Expr::Col(name) => Arg::Col(Cow::Borrowed(batch.column_by_name(name)?)),
            Expr::Lit(value) => Arg::Lit(value),
            other => Arg::Col(Cow::Owned(other.eval(batch)?)),
        })
    }
}

/// An evaluated operand of a predicate leaf.
enum Arg<'a> {
    Col(Cow<'a, Column>),
    Lit(&'a Scalar),
}

impl Arg<'_> {
    fn get(&self) -> Operand<'_> {
        match self {
            Arg::Col(c) => Operand::Col(c),
            Arg::Lit(s) => Operand::Lit(s),
        }
    }
}

fn eval_arith(op: ArithOp, l: &Column, r: &Column) -> Result<Column> {
    use DataType::*;
    let rows = l.len();
    let out_type = match (l.data_type(), r.data_type()) {
        (Int64, Int64) => Int64,
        (Int64, Float64) | (Float64, Int64) | (Float64, Float64) => Float64,
        (a, b) => {
            return Err(EngineError::Plan(format!(
                "cannot apply {} to {a} and {b}",
                op.symbol()
            )))
        }
    };
    let mut builder = ColumnBuilder::new(out_type, rows);
    for i in 0..rows {
        let (a, b) = (l.scalar_at(i), r.scalar_at(i));
        if a.is_null() || b.is_null() {
            builder.push_null();
            continue;
        }
        match out_type {
            Int64 => {
                let (x, y) = (a.as_int().unwrap(), b.as_int().unwrap());
                let v = match op {
                    ArithOp::Add => x.wrapping_add(y),
                    ArithOp::Sub => x.wrapping_sub(y),
                    ArithOp::Mul => x.wrapping_mul(y),
                    ArithOp::Div => {
                        if y == 0 {
                            builder.push_null(); // SQL: division by zero -> NULL
                            continue;
                        }
                        x.wrapping_div(y)
                    }
                };
                builder.push(Scalar::Int(v))?;
            }
            Float64 => {
                let (x, y) = (a.as_float_lossy().unwrap(), b.as_float_lossy().unwrap());
                let v = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y == 0.0 {
                            builder.push_null();
                            continue;
                        }
                        x / y
                    }
                };
                builder.push(Scalar::Float(v))?;
            }
            _ => unreachable!(),
        }
    }
    Ok(builder.finish())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(name) => write!(f, "{name}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Arith { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::And(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Expr::Or(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Expr::Not(inner) => write!(f, "(NOT {inner})"),
            Expr::Like { expr, pattern } => write!(f, "({expr} LIKE '{pattern}')"),
            Expr::IsNull { expr, negated } => {
                if *negated {
                    write!(f, "({expr} IS NOT NULL)")
                } else {
                    write!(f, "({expr} IS NULL)")
                }
            }
            Expr::Between { expr, low, high } => {
                write!(f, "({expr} BETWEEN {low} AND {high})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;

    fn sample() -> Batch {
        batch_of(vec![
            ("a", Column::from_i64(vec![1, 2, 3, 4])),
            (
                "b",
                Column::from_opt_i64(&[Some(10), None, Some(30), Some(40)]),
            ),
            ("s", Column::from_strs(&["foo", "bar", "foobar", "baz"])),
            ("f", Column::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
        ])
    }

    fn matches(e: &Expr) -> Vec<usize> {
        e.eval_predicate(&sample()).unwrap().iter_ones().collect()
    }

    #[test]
    fn comparisons() {
        assert_eq!(matches(&col("a").gt(lit(2))), vec![2, 3]);
        assert_eq!(matches(&col("a").eq(lit(1))), vec![0]);
        assert_eq!(matches(&col("a").le(col("b").div(lit(10)))), vec![0, 2, 3]);
    }

    #[test]
    fn null_collapses_to_false() {
        // b is NULL in row 1: neither b > 0 nor NOT(b > 0) matches it.
        assert_eq!(matches(&col("b").gt(lit(0))), vec![0, 2, 3]);
        assert_eq!(matches(&col("b").gt(lit(0)).not()), vec![]);
        assert_eq!(matches(&col("b").is_null()), vec![1]);
        assert_eq!(matches(&col("b").is_not_null()), vec![0, 2, 3]);
    }

    #[test]
    fn kleene_and_or() {
        // (b > 100) is false,false(null),false,false -> AND with anything false.
        let p = col("b").gt(lit(100)).and(col("a").gt(lit(0)));
        assert_eq!(matches(&p), vec![]);
        // OR: true dominates NULL: a>3 OR b>0 -> row3 true, row1 has null b but a=2<3 -> null -> false.
        let q = col("a").gt(lit(3)).or(col("b").gt(lit(0)));
        assert_eq!(matches(&q), vec![0, 2, 3]);
    }

    #[test]
    fn arithmetic_types_and_nulls() {
        let c = col("a").add(col("b")).eval(&sample()).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.scalar_at(0), Scalar::Int(11));
        assert!(c.is_null(1));
        let f = col("a").mul(col("f")).eval(&sample()).unwrap();
        assert_eq!(f.data_type(), DataType::Float64);
        assert_eq!(f.scalar_at(3), Scalar::Float(14.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let c = col("a").div(lit(0)).eval(&sample()).unwrap();
        assert_eq!(c.null_count(), 4);
        let f = col("f").div(lit(0.0)).eval(&sample()).unwrap();
        assert_eq!(f.null_count(), 4);
    }

    #[test]
    fn like_and_between() {
        assert_eq!(matches(&col("s").like("foo%")), vec![0, 2]);
        assert_eq!(matches(&col("a").between(2, 3)), vec![1, 2]);
    }

    #[test]
    fn boolean_expr_as_column_keeps_nulls() {
        let c = col("b").gt(lit(0)).eval(&sample()).unwrap();
        assert_eq!(c.data_type(), DataType::Bool);
        assert_eq!(c.scalar_at(0), Scalar::Bool(true));
        assert!(c.is_null(1), "NULL comparison must stay NULL as a value");
    }

    #[test]
    fn type_inference() {
        let schema = sample().schema().clone();
        assert_eq!(
            col("a").add(lit(1)).data_type(&schema).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            col("a").add(col("f")).data_type(&schema).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            col("a").gt(lit(0)).data_type(&schema).unwrap(),
            DataType::Bool
        );
        assert!(col("s").add(lit(1)).data_type(&schema).is_err());
        assert!(col("ghost").data_type(&schema).is_err());
    }

    #[test]
    fn columns_collected_sorted() {
        let e = col("z").gt(lit(0)).and(col("a").eq(col("m")));
        assert_eq!(e.columns(), vec!["a", "m", "z"]);
    }

    #[test]
    fn display_roundtrippable_text() {
        let e = col("a").gt(lit(2)).and(col("s").like("f%"));
        assert_eq!(e.to_string(), "((a > 2) AND (s LIKE 'f%'))");
    }

    #[test]
    fn and_flattening() {
        let e = col("a")
            .gt(lit(0))
            .and(col("a").lt(lit(9)))
            .and(col("a").ne(lit(5)));
        match e {
            Expr::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flat AND, got {other}"),
        }
    }
}
