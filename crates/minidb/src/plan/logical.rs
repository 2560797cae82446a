//! The logical plan tree.
//!
//! Every node knows its output [`Schema`]; expressions inside a node are
//! bound against its *input* schema. The tree is built by the binder,
//! rewritten by the optimizer, costed by the cost model, and interpreted by
//! the executor — there is no separate physical plan: every join is a hash
//! join, and its one physical choice, the build side, is the
//! [`LogicalPlan::Join`]'s right input.

use crate::expr::BoundExpr;
use crate::schema::Schema;
use crate::sql::ast::AggFunc;
use std::fmt;

/// Equi-join keys: pairs of (left ordinal, right ordinal), where the right
/// ordinal is relative to the right input's schema.
pub type JoinKeys = Vec<(usize, usize)>;

/// One aggregate in an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// The argument over the input schema; `None` only for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
    /// Output column name.
    pub name: String,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a base table.
    Scan {
        /// The catalog table name.
        table: String,
        /// The alias used in the query.
        alias: String,
        /// Output schema (qualified by the alias).
        schema: Schema,
    },
    /// Predicate filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The predicate over the input schema.
        predicate: BoundExpr,
    },
    /// Expression projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions over the input schema.
        exprs: Vec<BoundExpr>,
        /// Output schema (one column per expression).
        schema: Schema,
    },
    /// Hash join of two inputs; without equi keys, every row hashes to one
    /// bucket and the join is a nested loop.
    Join {
        /// Left (probe) input.
        left: Box<LogicalPlan>,
        /// Right (build) input.
        right: Box<LogicalPlan>,
        /// Equi-key pairs (left ordinal, right-relative ordinal).
        equi: JoinKeys,
        /// Non-equi residual predicate over the concatenated schema.
        residual: Option<BoundExpr>,
        /// Output schema (left ++ right).
        schema: Schema,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions over the input schema.
        group_by: Vec<BoundExpr>,
        /// Aggregates over the input schema.
        aggs: Vec<AggExpr>,
        /// Output schema: group columns then aggregate columns.
        schema: Schema,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys over the input schema with ascending flags.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows to emit.
        n: u64,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema,
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema,
            LogicalPlan::Join { schema, .. } => schema,
            LogicalPlan::Aggregate { schema, .. } => schema,
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Short operator name for EXPLAIN.
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Join { equi, .. } if equi.is_empty() => "NestedLoopJoin",
            LogicalPlan::Join { .. } => "HashJoin",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
        }
    }

    /// The node's children.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Details string for EXPLAIN (predicates, keys, …).
    pub fn details(&self) -> String {
        match self {
            LogicalPlan::Scan { table, alias, .. } => {
                if table == alias {
                    table.clone()
                } else {
                    format!("{table} AS {alias}")
                }
            }
            LogicalPlan::Filter { predicate, .. } => predicate.to_string(),
            LogicalPlan::Project { exprs, .. } => exprs
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            LogicalPlan::Join { equi, residual, .. } => {
                let mut parts: Vec<String> =
                    equi.iter().map(|(l, r)| format!("l#{l} = r#{r}")).collect();
                if let Some(res) = residual {
                    parts.push(res.to_string());
                }
                parts.join(" AND ")
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let g: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|x| match &x.arg {
                        Some(arg) => format!("{}({arg})", x.func),
                        None => format!("{}(*)", x.func),
                    })
                    .collect();
                format!("group=[{}] aggs=[{}]", g.join(", "), a.join(", "))
            }
            LogicalPlan::Sort { keys, .. } => keys
                .iter()
                .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                .collect::<Vec<_>>()
                .join(", "),
            LogicalPlan::Limit { n, .. } => n.to_string(),
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(plan: &LogicalPlan, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(
                f,
                "{}{} [{}]",
                "  ".repeat(depth),
                plan.op_name(),
                plan.details()
            )?;
            for c in plan.children() {
                rec(c, depth + 1, f)?;
            }
            Ok(())
        }
        rec(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn scan(alias: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            alias: alias.into(),
            schema: Schema::new(vec![Column::qualified(alias, "x", DataType::Int)]),
        }
    }

    #[test]
    fn schema_passes_through_filters_and_sorts() {
        let s = scan("a");
        let schema = s.schema().clone();
        let f = LogicalPlan::Filter {
            input: Box::new(s),
            predicate: BoundExpr::Literal(crate::value::Value::Bool(true)),
        };
        assert_eq!(f.schema(), &schema);
        let srt = LogicalPlan::Sort {
            input: Box::new(f),
            keys: vec![],
        };
        assert_eq!(srt.schema(), &schema);
    }

    #[test]
    fn display_renders_tree() {
        let j = LogicalPlan::Join {
            left: Box::new(scan("a")),
            right: Box::new(scan("b")),
            equi: vec![(0, 0)],
            residual: None,
            schema: scan("a").schema().join(scan("b").schema()),
        };
        let out = j.to_string();
        assert!(out.contains("HashJoin [l#0 = r#0]"));
        assert!(out.contains("  Scan [t AS a]"));
    }
}
