//! Fields and schemas describing batch shapes.

use std::fmt;
use std::sync::Arc;

use crate::error::{DataError, Result};
use crate::types::DataType;

/// A named, typed, possibly-nullable column slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.dtype)?;
        if self.nullable {
            write!(f, "?")?;
        }
        Ok(())
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Schemas are shared widely (every batch holds one); `Arc` keeps that cheap.
pub type SchemaRef = Arc<Schema>;

/// The widest schema [`Schema::try_new`] checks by comparing every pair.
const PAIRWISE_FIELDS: usize = 32;

impl Schema {
    /// A schema from fields. Panics on duplicate names — that is a
    /// programming error, not a data error; [`Schema::try_new`] is the
    /// check for fields read from outside.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema::try_new(fields).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A schema from fields, or [`DataError::InvalidArgument`] when a name
    /// repeats. Up to `PAIRWISE_FIELDS` fields compare every pair, which
    /// allocates nothing; wider schemas sort their names, so a crafted
    /// schema of many fields costs `n log n`, not `n²`.
    pub fn try_new(fields: Vec<Field>) -> Result<Self> {
        let repeated = if fields.len() <= PAIRWISE_FIELDS {
            fields
                .iter()
                .enumerate()
                .find(|(i, f)| fields[i + 1..].iter().any(|g| g.name == f.name))
                .map(|(_, f)| f.name.as_str())
        } else {
            let mut names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            names.sort_unstable();
            names.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
        };
        match repeated {
            Some(name) => Err(DataError::InvalidArgument(format!(
                "duplicate field name '{name}'"
            ))),
            None => Ok(Schema { fields }),
        }
    }

    /// The empty schema (zero columns).
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Wrap in an `Arc`.
    pub fn into_ref(self) -> SchemaRef {
        Arc::new(self)
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Index of the field named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| DataError::UnknownField(name.to_string()))
    }

    /// The field named `name`.
    pub fn field_by_name(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// A schema containing only the fields at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Concatenate two schemas (join output). Name collisions on the right
    /// side get a `right_` prefix, mirroring common engine behaviour.
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &right.fields {
            let name = if self.index_of(&f.name).is_ok() {
                format!("right_{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field {
                name,
                dtype: f.dtype,
                nullable: f.nullable,
            });
        }
        Schema::new(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("name", DataType::Utf8),
            Field::new("score", DataType::Float64),
        ])
    }

    #[test]
    fn index_lookup() {
        let s = sample();
        assert_eq!(s.index_of("name").unwrap(), 1);
        assert!(matches!(
            s.index_of("nope"),
            Err(DataError::UnknownField(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_names_rejected() {
        Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("x", DataType::Utf8),
        ]);
    }

    #[test]
    fn try_new_finds_a_repeat_by_pairs_and_by_sorting() {
        for width in [2, PAIRWISE_FIELDS, PAIRWISE_FIELDS + 1, 1000] {
            let distinct: Vec<Field> = (0..width)
                .map(|i| Field::new(format!("f{i}"), DataType::Int64))
                .collect();
            assert_eq!(Schema::try_new(distinct.clone()).unwrap().len(), width);
            // The last name repeats the first, or the middle one its neighbour.
            for (at, from) in [(width - 1, 0), (width / 2, width / 2 - 1)] {
                let mut repeated = distinct.clone();
                repeated[at].name = repeated[from].name.clone();
                assert!(
                    matches!(
                        Schema::try_new(repeated),
                        Err(DataError::InvalidArgument(msg)) if msg.contains("duplicate field name")
                    ),
                    "width {width}, {at} repeats {from}"
                );
            }
        }
    }

    #[test]
    fn projection_orders_fields() {
        let s = sample().project(&[2, 0]);
        assert_eq!(s.field(0).name, "score");
        assert_eq!(s.field(1).name, "id");
    }

    #[test]
    fn join_prefixes_collisions() {
        let left = sample();
        let right = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("extra", DataType::Bool),
        ]);
        let joined = left.join(&right);
        assert_eq!(joined.len(), 5);
        assert!(joined.index_of("right_id").is_ok());
        assert!(joined.index_of("extra").is_ok());
    }

    #[test]
    fn display_format() {
        assert_eq!(
            sample().to_string(),
            "[id: int64, name: utf8?, score: float64]"
        );
    }
}
