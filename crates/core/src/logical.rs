//! Logical query plans and the builder API.
//!
//! A [`LogicalPlan`] is the semantic description of a query, before any
//! decision about *where* operators run. Each node stores its resolved
//! output schema, so building a plan validates column references eagerly.

use std::fmt;

use df_data::{DataType, Field, Schema, SchemaRef};

use crate::error::{EngineError, Result};
use crate::expr::Expr;

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join: only matching pairs.
    Inner,
    /// Left outer: every build-side (left) row appears; unmatched rows get
    /// NULL right-side columns.
    Left,
}

impl JoinType {
    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            JoinType::Inner => "INNER",
            JoinType::Left => "LEFT",
        }
    }
}

pub use df_storage::agg::{AggCall, AggFn};

/// A logical plan node. Children are boxed; every constructor validates and
/// stores the output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Read a stored table.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Columns kept (None = all). Filled in by projection pruning.
        projection: Option<Vec<String>>,
        /// Output schema after projection.
        schema: SchemaRef,
    },
    /// Read in-memory batches (tests, VALUES).
    Values {
        /// The data.
        batches: Vec<df_data::Batch>,
        /// Shared schema.
        schema: SchemaRef,
    },
    /// Keep rows matching the predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean expression.
        predicate: Expr,
    },
    /// Compute expressions as output columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Group and aggregate.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by column names (empty = global aggregate).
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Output schema (groups then aggregates).
        schema: SchemaRef,
    },
    /// Equi-join.
    Join {
        /// Build side.
        left: Box<LogicalPlan>,
        /// Probe side.
        right: Box<LogicalPlan>,
        /// `(left column, right column)` equality pairs.
        on: Vec<(String, String)>,
        /// Inner or left-outer.
        join_type: JoinType,
        /// Output schema (left then right fields, collisions prefixed).
        schema: SchemaRef,
    },
    /// Order rows.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: u64,
    },
}

impl LogicalPlan {
    /// A scan of a table with a known schema.
    pub fn scan(table: impl Into<String>, schema: SchemaRef) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            projection: None,
            schema,
        }
    }

    /// In-memory values node.
    pub fn values(batches: Vec<df_data::Batch>) -> Result<LogicalPlan> {
        let schema = batches
            .first()
            .map(|b| b.schema().clone())
            .ok_or_else(|| EngineError::Plan("values requires at least one batch".into()))?;
        for b in &batches {
            if b.schema().as_ref() != schema.as_ref() {
                return Err(EngineError::Plan("values batches differ in schema".into()));
            }
        }
        Ok(LogicalPlan::Values { batches, schema })
    }

    /// The node's output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Join { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Add a filter. Validates that referenced columns exist.
    pub fn filter(self, predicate: Expr) -> Result<LogicalPlan> {
        let schema = self.schema();
        for name in predicate.columns() {
            schema.field_by_name(&name)?;
        }
        predicate.data_type(&schema)?;
        Ok(LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        })
    }

    /// Add a projection of expressions with output names.
    pub fn project_exprs(self, exprs: Vec<(Expr, String)>) -> Result<LogicalPlan> {
        if exprs.is_empty() {
            return Err(EngineError::Plan("projection cannot be empty".into()));
        }
        let input_schema = self.schema();
        let mut fields = Vec::with_capacity(exprs.len());
        for (expr, name) in &exprs {
            let dtype = expr.data_type(&input_schema)?;
            // Nullability: conservative (expressions can produce NULLs).
            fields.push(Field::nullable(name.clone(), dtype));
        }
        Ok(LogicalPlan::Project {
            input: Box::new(self),
            exprs,
            schema: Schema::new(fields).into_ref(),
        })
    }

    /// Project by column names.
    pub fn project(self, names: &[&str]) -> Result<LogicalPlan> {
        let exprs = names
            .iter()
            .map(|n| (crate::expr::col(*n), n.to_string()))
            .collect();
        self.project_exprs(exprs)
    }

    /// Group and aggregate.
    pub fn aggregate(self, group_by: Vec<String>, aggs: Vec<AggCall>) -> Result<LogicalPlan> {
        if aggs.is_empty() && group_by.is_empty() {
            return Err(EngineError::Plan(
                "aggregate needs groups or aggregates".into(),
            ));
        }
        let input_schema = self.schema();
        let mut fields = Vec::new();
        for g in &group_by {
            fields.push(input_schema.field_by_name(g)?.clone());
        }
        for agg in &aggs {
            let input_type = match &agg.column {
                Some(c) => Some(input_schema.field_by_name(c)?.dtype),
                None => None,
            };
            if let Some(c) = &agg.column {
                let dtype = input_schema.field_by_name(c)?.dtype;
                if matches!(agg.func, AggFn::Sum | AggFn::Avg)
                    && !matches!(dtype, DataType::Int64 | DataType::Float64)
                {
                    return Err(EngineError::Plan(format!(
                        "{}({c}) requires a numeric column, got {dtype}",
                        agg.func.name()
                    )));
                }
            }
            fields.push(Field::nullable(
                agg.alias.clone(),
                agg.output_type(input_type)?,
            ));
        }
        Ok(LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
            schema: Schema::new(fields).into_ref(),
        })
    }

    /// Inner equi-join with another plan.
    pub fn join(self, right: LogicalPlan, on: Vec<(&str, &str)>) -> Result<LogicalPlan> {
        self.join_with(right, on, JoinType::Inner)
    }

    /// Equi-join with an explicit join type.
    pub fn join_with(
        self,
        right: LogicalPlan,
        on: Vec<(&str, &str)>,
        join_type: JoinType,
    ) -> Result<LogicalPlan> {
        if on.is_empty() {
            return Err(EngineError::Plan(
                "join requires at least one key pair".into(),
            ));
        }
        let left_schema = self.schema();
        let right_schema = right.schema();
        for (l, r) in &on {
            let lf = left_schema.field_by_name(l)?;
            let rf = right_schema.field_by_name(r)?;
            if lf.dtype != rf.dtype {
                return Err(EngineError::Plan(format!(
                    "join key type mismatch: {l} is {}, {r} is {}",
                    lf.dtype, rf.dtype
                )));
            }
        }
        let mut schema = left_schema.join(&right_schema);
        if join_type == JoinType::Left {
            // Unmatched left rows carry NULL right columns.
            let fields: Vec<Field> = schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    if i >= left_schema.len() {
                        Field::nullable(f.name.clone(), f.dtype)
                    } else {
                        f.clone()
                    }
                })
                .collect();
            schema = Schema::new(fields);
        }
        Ok(LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on
                .into_iter()
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .collect(),
            join_type,
            schema: schema.into_ref(),
        })
    }

    /// Sort by `(column, ascending)` keys.
    pub fn sort(self, keys: Vec<(&str, bool)>) -> Result<LogicalPlan> {
        let schema = self.schema();
        for (k, _) in &keys {
            schema.field_by_name(k)?;
        }
        Ok(LogicalPlan::Sort {
            input: Box::new(self),
            keys: keys
                .into_iter()
                .map(|(k, asc)| (k.to_string(), asc))
                .collect(),
        })
    }

    /// Keep the first `n` rows.
    pub fn limit(self, n: u64) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Pretty indented plan text (EXPLAIN).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan {
                table, projection, ..
            } => {
                out.push_str(&format!("{pad}Scan: {table}"));
                if let Some(p) = projection {
                    out.push_str(&format!(" projection=[{}]", p.join(", ")));
                }
                out.push('\n');
            }
            LogicalPlan::Values { batches, .. } => {
                let rows: usize = batches.iter().map(df_data::Batch::rows).sum();
                out.push_str(&format!("{pad}Values: {rows} rows\n"));
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter: {predicate}\n"));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let items: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                out.push_str(&format!("{pad}Project: {}\n", items.join(", ")));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                let calls: Vec<String> = aggs
                    .iter()
                    .map(|a| {
                        format!(
                            "{}({}) AS {}",
                            a.func.name(),
                            a.column.as_deref().unwrap_or("*"),
                            a.alias
                        )
                    })
                    .collect();
                out.push_str(&format!(
                    "{pad}Aggregate: group=[{}] aggs=[{}]\n",
                    group_by.join(", "),
                    calls.join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
                ..
            } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                out.push_str(&format!(
                    "{pad}HashJoin[{}]: on [{}]\n",
                    join_type.name(),
                    keys.join(", ")
                ));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let items: Vec<String> = keys
                    .iter()
                    .map(|(k, asc)| format!("{k} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                out.push_str(&format!("{pad}Sort: {}\n", items.join(", ")));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit: {n}\n"));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use df_data::batch::batch_of;
    use df_data::Column;

    fn table_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Float64),
        ])
        .into_ref()
    }

    #[test]
    fn build_and_schema_propagation() {
        let plan = LogicalPlan::scan("orders", table_schema())
            .filter(col("amount").gt(lit(10.0)))
            .unwrap()
            .aggregate(
                vec!["region".into()],
                vec![
                    AggCall::count_star("n"),
                    AggCall::new(AggFn::Sum, "amount", "total"),
                ],
            )
            .unwrap();
        let schema = plan.schema();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.field(0).name, "region");
        assert_eq!(schema.field(1).dtype, DataType::Int64);
        assert_eq!(schema.field(2).dtype, DataType::Float64);
    }

    #[test]
    fn filter_validates_columns_and_types() {
        let plan = LogicalPlan::scan("orders", table_schema());
        assert!(plan.clone().filter(col("ghost").gt(lit(1))).is_err());
        assert!(plan.filter(col("amount").gt(lit(0.0))).is_ok());
    }

    #[test]
    fn projection_computes_types() {
        let plan = LogicalPlan::scan("orders", table_schema())
            .project_exprs(vec![
                (col("amount").mul(lit(2.0)), "double".into()),
                (col("id"), "id".into()),
            ])
            .unwrap();
        assert_eq!(plan.schema().field(0).dtype, DataType::Float64);
        assert_eq!(plan.schema().field(1).dtype, DataType::Int64);
    }

    #[test]
    fn aggregate_rejects_sum_of_strings() {
        let plan = LogicalPlan::scan("orders", table_schema());
        assert!(plan
            .aggregate(vec![], vec![AggCall::new(AggFn::Sum, "region", "bad")])
            .is_err());
    }

    #[test]
    fn join_validates_key_types() {
        let left = LogicalPlan::scan("orders", table_schema());
        let right_schema = Schema::new(vec![
            Field::new("rid", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .into_ref();
        let right = LogicalPlan::scan("regions", right_schema.clone());
        let joined = left.clone().join(right, vec![("id", "rid")]).unwrap();
        assert_eq!(joined.schema().len(), 5);
        let bad = LogicalPlan::scan("regions", right_schema);
        assert!(left.join(bad, vec![("id", "name")]).is_err());
    }

    #[test]
    fn values_requires_consistent_schemas() {
        let a = batch_of(vec![("x", Column::from_i64(vec![1]))]);
        let b = batch_of(vec![("y", Column::from_i64(vec![1]))]);
        assert!(LogicalPlan::values(vec![a.clone(), a.clone()]).is_ok());
        assert!(LogicalPlan::values(vec![a, b]).is_err());
        assert!(LogicalPlan::values(vec![]).is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let plan = LogicalPlan::scan("orders", table_schema())
            .filter(col("id").gt(lit(5)))
            .unwrap()
            .limit(10);
        let text = plan.explain();
        assert!(text.contains("Limit: 10"));
        assert!(text.contains("Filter: (id > 5)"));
        assert!(text.contains("Scan: orders"));
        // Indentation increases with depth.
        assert!(text.contains("\n  Filter"));
        assert!(text.contains("\n    Scan"));
    }
}
