//! `EXPLAIN` rendering and plan fingerprints.
//!
//! [`Explain`] is the engine's equivalent of the paper's `EXPLAIN PLAN`
//! statement: the operator tree annotated with estimated rows and cost. The
//! [`Explain::fingerprint`] is a literal-insensitive structural hash — two
//! queries from the same template (§2.1: "differing only in some selection
//! constant(s)") produce the same fingerprint, which is exactly the key the
//! paper's corrected estimator needs ("past execution information
//! concerning queries with the same plan", §5.2).

use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::plan::cost::{estimate, PlanEstimate};
use crate::plan::logical::LogicalPlan;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The result of explaining a plan.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Rendered operator tree with per-node estimates.
    pub text: String,
    /// Root estimate (rows, cumulative cost, width).
    pub root: PlanEstimate,
    /// Literal-insensitive structural hash of the plan.
    pub fingerprint: u64,
}

impl Explain {
    /// Explains a plan against the catalog.
    pub fn of(plan: &LogicalPlan, catalog: &Catalog) -> Explain {
        let mut text = String::new();
        render(plan, catalog, 0, &mut text);
        let mut hasher = DefaultHasher::new();
        hash_plan(plan, &mut hasher);
        Explain {
            text,
            root: estimate(plan, catalog),
            fingerprint: hasher.finish(),
        }
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

fn render(plan: &LogicalPlan, catalog: &Catalog, depth: usize, out: &mut String) {
    let e = estimate(plan, catalog);
    out.push_str(&format!(
        "{}{} [{}] (rows={:.0} cost={:.0})\n",
        "  ".repeat(depth),
        plan.op_name(),
        plan.details(),
        e.rows,
        e.cost,
    ));
    for c in plan.children() {
        render(c, catalog, depth + 1, out);
    }
}

/// Hashes a plan's structure, ignoring literal values (but not literal
/// *types*): queries of the same template share a fingerprint.
fn hash_plan<H: Hasher>(plan: &LogicalPlan, h: &mut H) {
    plan.op_name().hash(h);
    match plan {
        LogicalPlan::Scan { table, alias, .. } => {
            table.hash(h);
            alias.hash(h);
        }
        LogicalPlan::Filter { predicate, .. } => hash_expr(predicate, h),
        LogicalPlan::Project { exprs, .. } => {
            for e in exprs {
                hash_expr(e, h);
            }
        }
        LogicalPlan::Join { equi, residual, .. } => {
            equi.hash(h);
            if let Some(r) = residual {
                hash_expr(r, h);
            }
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            for g in group_by {
                hash_expr(g, h);
            }
            for a in aggs {
                format!("{:?}", a.func).hash(h);
                if let Some(arg) = &a.arg {
                    hash_expr(arg, h);
                }
            }
        }
        LogicalPlan::Sort { keys, .. } => {
            for (e, asc) in keys {
                hash_expr(e, h);
                asc.hash(h);
            }
        }
        LogicalPlan::Limit { n, .. } => n.hash(h),
    }
    for c in plan.children() {
        hash_plan(c, h);
    }
}

fn hash_expr<H: Hasher>(e: &BoundExpr, h: &mut H) {
    match e {
        BoundExpr::Column { index, ty, .. } => {
            0u8.hash(h);
            index.hash(h);
            ty.hash(h);
        }
        BoundExpr::Literal(v) => {
            // Type tag only: `id = 5` and `id = 7` fingerprint identically.
            1u8.hash(h);
            format!("{:?}", v.data_type()).hash(h);
        }
        BoundExpr::Unary { op, expr } => {
            2u8.hash(h);
            format!("{op:?}").hash(h);
            hash_expr(expr, h);
        }
        BoundExpr::Binary { left, op, right } => {
            3u8.hash(h);
            format!("{op:?}").hash(h);
            hash_expr(left, h);
            hash_expr(right, h);
        }
        BoundExpr::IsNull { expr, negated } => {
            4u8.hash(h);
            negated.hash(h);
            hash_expr(expr, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::binder::bind_select;
    use crate::schema::{Column, Schema};
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse_statement;
    use crate::storage::Table;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Float),
            ]),
        );
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        c.create_table(t).unwrap();
        c
    }

    fn explain(sql: &str) -> Explain {
        let c = catalog();
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => Explain::of(&bind_select(&s, &c).unwrap(), &c),
            _ => unreachable!(),
        }
    }

    #[test]
    fn text_contains_operators_and_estimates() {
        let e = explain("SELECT id FROM t WHERE id > 10 ORDER BY id LIMIT 5");
        assert!(e.text.contains("Limit"));
        assert!(e.text.contains("Sort"));
        assert!(e.text.contains("Filter"));
        assert!(e.text.contains("Scan"));
        assert!(e.text.contains("rows="));
        assert!(e.text.contains("cost="));
    }

    #[test]
    fn same_template_same_fingerprint() {
        let a = explain("SELECT id FROM t WHERE id = 5");
        let b = explain("SELECT id FROM t WHERE id = 99");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn different_shape_different_fingerprint() {
        let a = explain("SELECT id FROM t WHERE id = 5");
        let b = explain("SELECT id FROM t WHERE id < 5");
        let c = explain("SELECT id FROM t WHERE v = 5.0");
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn literal_type_matters_to_fingerprint() {
        let a = explain("SELECT id FROM t WHERE id = 5");
        let b = explain("SELECT id FROM t WHERE id = 5.0");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn root_estimate_is_populated() {
        let e = explain("SELECT * FROM t");
        assert_eq!(e.root.rows, 100.0);
        assert!(e.root.cost > 0.0);
    }
}
