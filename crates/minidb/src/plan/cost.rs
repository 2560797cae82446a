//! Cardinality and cost estimation.
//!
//! The estimates feed two consumers: the optimizer (join build-side choice)
//! and `EXPLAIN` — whose cost number is exactly what the paper's allocators
//! use as a first-cut execution-time estimate (§5.2). Like the commercial
//! DBMS in the paper, the estimates are *deliberately imperfect*: they know
//! nothing about cache contents, so the cluster layer corrects them with
//! execution history, reproducing the paper's two-step estimator.
//!
//! Cost is in abstract work units: 1 unit ≈ one row of CPU handling;
//! byte-volume terms model I/O. Absolute values are meaningless; ratios
//! drive decisions.

use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::plan::logical::LogicalPlan;
use crate::sql::ast::{BinaryOp, UnaryOp};

/// Estimated output shape of a plan node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost (work units).
    pub cost: f64,
    /// Estimated bytes per output row.
    pub width: f64,
}

/// Heuristic selectivity of a predicate (no column histograms — the classic
/// System-R constants).
pub fn selectivity(pred: &BoundExpr) -> f64 {
    match pred {
        BoundExpr::Binary { left, op, right } => match op {
            BinaryOp::And => selectivity(left) * selectivity(right),
            BinaryOp::Or => (selectivity(left) + selectivity(right)).min(1.0),
            BinaryOp::Eq => 0.1,
            BinaryOp::NotEq => 0.9,
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => 0.3,
            _ => 1.0,
        },
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => 1.0 - selectivity(expr),
        BoundExpr::IsNull { negated, .. } => {
            if *negated {
                0.95
            } else {
                0.05
            }
        }
        BoundExpr::Literal(crate::value::Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        _ => 0.5,
    }
}

/// Estimates a plan bottom-up against the catalog's table statistics.
pub fn estimate(plan: &LogicalPlan, catalog: &Catalog) -> PlanEstimate {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            let (rows, width) = catalog
                .table(table)
                .map(|t| (t.stats().row_count as f64, t.stats().avg_row_bytes))
                .unwrap_or((0.0, 0.0));
            PlanEstimate {
                rows,
                // Sequential read: CPU per row plus byte volume.
                cost: rows * (1.0 + width / 100.0),
                width: width.max(8.0),
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = estimate(input, catalog);
            let sel = selectivity(predicate).clamp(0.0, 1.0);
            PlanEstimate {
                rows: (child.rows * sel).max(0.0),
                cost: child.cost + child.rows * 0.5,
                width: child.width,
            }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let child = estimate(input, catalog);
            PlanEstimate {
                rows: child.rows,
                cost: child.cost + child.rows * 0.2 * exprs.len().max(1) as f64,
                width: (child.width * exprs.len() as f64 / input.schema().len().max(1) as f64)
                    .max(8.0),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            let l = estimate(left, catalog);
            let r = estimate(right, catalog);
            let base_rows = if equi.is_empty() {
                l.rows * r.rows
            } else {
                // Foreign-key heuristic: one match per row of the bigger
                // side.
                l.rows.max(r.rows)
            };
            let res_sel = residual.as_ref().map_or(1.0, selectivity);
            let rows = (base_rows * res_sel).max(0.0);
            // A key-less join compares every pair: it is priced as the
            // nested loop it is, not as a hash join.
            let algo_cost = if equi.is_empty() {
                l.rows * r.rows * 0.5 + l.rows + r.rows
            } else {
                2.0 * l.rows.min(r.rows) + l.rows.max(r.rows)
            };
            PlanEstimate {
                rows,
                cost: l.cost + r.cost + algo_cost + rows * 0.5,
                width: l.width + r.width,
            }
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let child = estimate(input, catalog);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                // Square-root rule: group count grows sublinearly.
                child.rows.sqrt().max(1.0).min(child.rows.max(1.0))
            };
            PlanEstimate {
                rows: groups,
                cost: child.cost + child.rows * 1.5,
                width: child.width.max(16.0),
            }
        }
        LogicalPlan::Sort { input, .. } => {
            let child = estimate(input, catalog);
            let nlogn = if child.rows > 1.0 {
                child.rows * child.rows.log2()
            } else {
                child.rows
            };
            PlanEstimate {
                rows: child.rows,
                cost: child.cost + nlogn,
                width: child.width,
            }
        }
        LogicalPlan::Limit { input, n } => {
            let child = estimate(input, catalog);
            PlanEstimate {
                rows: child.rows.min(*n as f64),
                cost: child.cost,
                width: child.width,
            }
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

    fn catalog(emp_rows: usize, dept_rows: usize) -> Catalog {
        let mut c = Catalog::new();
        let mut emp = Table::new(
            "emp",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("dept", DataType::Int),
            ]),
        );
        for i in 0..emp_rows {
            emp.insert(vec![Value::Int(i as i64), Value::Int((i % 10) as i64)])
                .unwrap();
        }
        c.create_table(emp).unwrap();
        let mut dept = Table::new("dept", Schema::new(vec![Column::new("id", DataType::Int)]));
        for i in 0..dept_rows {
            dept.insert(vec![Value::Int(i as i64)]).unwrap();
        }
        c.create_table(dept).unwrap();
        c
    }

    fn plan(sql: &str, c: &Catalog) -> LogicalPlan {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => bind_select(&s, c).unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn scan_rows_match_table() {
        let c = catalog(500, 10);
        let p = plan("SELECT * FROM emp", &c);
        let e = estimate(&p, &c);
        assert_eq!(e.rows, 500.0);
        assert!(e.cost > 500.0);
    }

    #[test]
    fn filter_reduces_estimated_rows() {
        let c = catalog(1_000, 10);
        let scan = estimate(&plan("SELECT * FROM emp", &c), &c);
        let eq = estimate(&plan("SELECT * FROM emp WHERE id = 5", &c), &c);
        let range = estimate(&plan("SELECT * FROM emp WHERE id < 5", &c), &c);
        assert!(eq.rows < range.rows);
        assert!(range.rows < scan.rows);
    }

    #[test]
    fn conjunction_multiplies_selectivity() {
        let c = catalog(1_000, 10);
        let one = estimate(&plan("SELECT * FROM emp WHERE id = 5", &c), &c);
        let two = estimate(&plan("SELECT * FROM emp WHERE id = 5 AND dept = 3", &c), &c);
        assert!(two.rows < one.rows);
    }

    #[test]
    fn equi_join_estimates_fk_cardinality() {
        let c = catalog(1_000, 10);
        let p = plan("SELECT * FROM emp JOIN dept ON emp.dept = dept.id", &c);
        let e = estimate(&p, &c);
        // FK heuristic: ~max(1000, 10) rows before projection.
        assert!((900.0..1_100.0).contains(&e.rows), "rows {}", e.rows);
    }

    #[test]
    fn bigger_tables_cost_more() {
        let small = catalog(100, 10);
        let big = catalog(10_000, 10);
        let cost = |c: &Catalog| {
            estimate(
                &plan("SELECT * FROM emp JOIN dept ON emp.dept = dept.id", c),
                c,
            )
            .cost
        };
        assert!(cost(&big) > 10.0 * cost(&small));
    }

    #[test]
    fn sort_adds_superlinear_cost() {
        let c = catalog(10_000, 10);
        let flat = estimate(&plan("SELECT * FROM emp", &c), &c);
        let sorted = estimate(&plan("SELECT * FROM emp ORDER BY id", &c), &c);
        assert!(sorted.cost > flat.cost + 10_000.0);
    }

    #[test]
    fn limit_caps_rows() {
        let c = catalog(1_000, 10);
        let e = estimate(&plan("SELECT * FROM emp LIMIT 5", &c), &c);
        assert_eq!(e.rows, 5.0);
    }

    #[test]
    fn selectivity_constants_sane() {
        // Sanity on the System-R style constants.
        let col = BoundExpr::Column {
            index: 0,
            ty: DataType::Int,
            name: "x".into(),
        };
        let lit = BoundExpr::Literal(Value::Int(1));
        let eq = BoundExpr::Binary {
            left: Box::new(col.clone()),
            op: BinaryOp::Eq,
            right: Box::new(lit.clone()),
        };
        assert!(selectivity(&eq) < 0.2);
        let not = BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(eq),
        };
        assert!(selectivity(&not) > 0.8);
    }
}
