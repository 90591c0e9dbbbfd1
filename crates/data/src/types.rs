//! Logical data types and scalar values.

use std::fmt;

/// The logical type of a column.
///
/// The engine keeps the type lattice small on purpose: the paper's arguments
/// are about *where* operators run, not about type-system breadth. Four types
/// cover every workload in the evaluation (numeric measures, predicates,
/// string matching, and flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// Variable-length UTF-8 string.
    Utf8,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Fixed width in bytes for the in-memory element representation, or
    /// `None` for variable-width types.
    pub fn fixed_width(self) -> Option<usize> {
        match self {
            DataType::Int64 | DataType::Float64 => Some(8),
            DataType::Bool => Some(1),
            DataType::Utf8 => None,
        }
    }

    /// Short lowercase name, used in plan explain output.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int64 => "int64",
            DataType::Float64 => "float64",
            DataType::Utf8 => "utf8",
            DataType::Bool => "bool",
        }
    }
}

/// The rank of a value's kind in [`Scalar::total_cmp`]'s order, which
/// orders values of different kinds: NULL (`None`) < Bool < Int64/Float64 <
/// Utf8.
pub fn kind_rank(dtype: Option<DataType>) -> u8 {
    match dtype {
        None => 0,
        Some(DataType::Bool) => 1,
        Some(DataType::Int64 | DataType::Float64) => 2,
        Some(DataType::Utf8) => 3,
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single (possibly NULL) value of some [`DataType`].
///
/// Scalars appear in literals, filter bounds, aggregate results, and zone
/// maps. Ordering treats NULL as smaller than every non-null value, matching
/// the engine's `NULLS FIRST` sort convention.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// The NULL value (untyped; coerces to any column type).
    Null,
    /// An `Int64` value.
    Int(i64),
    /// A `Float64` value.
    Float(f64),
    /// A `Utf8` value.
    Str(String),
    /// A `Bool` value.
    Bool(bool),
}

impl Scalar {
    /// The data type of this scalar, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Scalar::Null => None,
            Scalar::Int(_) => Some(DataType::Int64),
            Scalar::Float(_) => Some(DataType::Float64),
            Scalar::Str(_) => Some(DataType::Utf8),
            Scalar::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Whether this is the NULL scalar.
    pub fn is_null(&self) -> bool {
        matches!(self, Scalar::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Scalar::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, widening `Int` to `f64` too (numeric contexts).
    pub fn as_float_lossy(&self) -> Option<f64> {
        match self {
            Scalar::Float(v) => Some(*v),
            Scalar::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes (for movement accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            Scalar::Null => 1,
            Scalar::Int(_) | Scalar::Float(_) => 8,
            Scalar::Bool(_) => 1,
            Scalar::Str(s) => s.len() + 4,
        }
    }

    /// Total order used by sorting and zone maps: NULL < Bool < Int/Float
    /// (numerically, cross-type) < Str. Floats use IEEE total order so NaN
    /// compares deterministically.
    pub fn total_cmp(&self, other: &Scalar) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use Scalar::*;
        match (self, other) {
            (Null, Null) => Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => kind_rank(a.data_type()).cmp(&kind_rank(b.data_type())),
        }
    }
}

/// A borrowed view of a column value — the allocation-free counterpart of
/// [`Scalar`].
///
/// Reading a `Utf8` row as a [`Scalar`] copies the string; hot paths (hash
/// aggregation, comparisons) read rows as `ValueRef`s instead and only
/// materialize an owned [`Scalar`] when a value must outlive the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// The NULL value.
    Null,
    /// An `Int64` value.
    Int(i64),
    /// A `Float64` value.
    Float(f64),
    /// A `Utf8` value, borrowed from the column's data buffer.
    Str(&'a str),
    /// A `Bool` value.
    Bool(bool),
}

impl ValueRef<'_> {
    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            ValueRef::Null => None,
            ValueRef::Int(_) => Some(DataType::Int64),
            ValueRef::Float(_) => Some(DataType::Float64),
            ValueRef::Str(_) => Some(DataType::Utf8),
            ValueRef::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Whether this is the NULL value.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ValueRef::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, widening `Int` to `f64` too (numeric contexts).
    pub fn as_float_lossy(&self) -> Option<f64> {
        match self {
            ValueRef::Float(v) => Some(*v),
            ValueRef::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Materialize an owned [`Scalar`] (copies string payloads).
    pub fn to_scalar(&self) -> Scalar {
        match self {
            ValueRef::Null => Scalar::Null,
            ValueRef::Int(v) => Scalar::Int(*v),
            ValueRef::Float(v) => Scalar::Float(*v),
            ValueRef::Str(s) => Scalar::Str((*s).to_string()),
            ValueRef::Bool(b) => Scalar::Bool(*b),
        }
    }

    /// [`Scalar::total_cmp`] against an owned scalar, without materializing
    /// this value.
    pub fn total_cmp_scalar(&self, other: &Scalar) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self, other) {
            (ValueRef::Null, Scalar::Null) => Equal,
            (ValueRef::Bool(a), Scalar::Bool(b)) => a.cmp(b),
            (ValueRef::Int(a), Scalar::Int(b)) => a.cmp(b),
            (ValueRef::Float(a), Scalar::Float(b)) => a.total_cmp(b),
            (ValueRef::Int(a), Scalar::Float(b)) => (*a as f64).total_cmp(b),
            (ValueRef::Float(a), Scalar::Int(b)) => a.total_cmp(&(*b as f64)),
            (ValueRef::Str(a), Scalar::Str(b)) => (*a).cmp(b.as_str()),
            (a, b) => kind_rank(a.data_type()).cmp(&kind_rank(b.data_type())),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Null => write!(f, "NULL"),
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Float(v) => write!(f, "{v}"),
            Scalar::Str(s) => write!(f, "'{s}'"),
            Scalar::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int(v)
    }
}
impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Float(v)
    }
}
impl From<&str> for Scalar {
    fn from(v: &str) -> Self {
        Scalar::Str(v.to_string())
    }
}
impl From<String> for Scalar {
    fn from(v: String) -> Self {
        Scalar::Str(v)
    }
}
impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn fixed_widths() {
        assert_eq!(DataType::Int64.fixed_width(), Some(8));
        assert_eq!(DataType::Float64.fixed_width(), Some(8));
        assert_eq!(DataType::Bool.fixed_width(), Some(1));
        assert_eq!(DataType::Utf8.fixed_width(), None);
    }

    #[test]
    fn scalar_types() {
        assert_eq!(Scalar::Int(1).data_type(), Some(DataType::Int64));
        assert_eq!(Scalar::Null.data_type(), None);
        assert!(Scalar::Null.is_null());
        assert!(!Scalar::Int(0).is_null());
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(
            Scalar::Null.total_cmp(&Scalar::Int(i64::MIN)),
            Ordering::Less
        );
        assert_eq!(Scalar::Int(1).total_cmp(&Scalar::Null), Ordering::Greater);
    }

    #[test]
    fn cross_numeric_compare() {
        assert_eq!(
            Scalar::Int(2).total_cmp(&Scalar::Float(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Scalar::Float(3.0).total_cmp(&Scalar::Int(3)),
            Ordering::Equal
        );
    }

    #[test]
    fn nan_compares_deterministically() {
        let nan = Scalar::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Scalar::Float(1.0).total_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn conversions() {
        assert_eq!(Scalar::from(5i64), Scalar::Int(5));
        assert_eq!(Scalar::from("x"), Scalar::Str("x".into()));
        assert_eq!(Scalar::from(true), Scalar::Bool(true));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Scalar::Str("a".into()).to_string(), "'a'");
        assert_eq!(Scalar::Null.to_string(), "NULL");
    }
}
