//! Filter, project, sort.

use crate::error::DbResult;
use crate::expr::BoundExpr;
use crate::value::Row;
use std::cmp::Ordering;

/// Keeps the rows where `predicate` is `TRUE` (SQL semantics: `NULL`
/// drops).
pub(crate) fn filter(rows: Vec<Row>, predicate: &BoundExpr) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    for row in rows {
        if predicate.eval_predicate(&row)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Evaluates `exprs` over every row.
pub(crate) fn project(rows: &[Row], exprs: &[BoundExpr]) -> DbResult<Vec<Row>> {
    rows.iter().map(|row| eval_all(exprs.iter(), row)).collect()
}

/// The values of `exprs` over one row. Collecting `DbResult`s would lose
/// the exact length and grow the row by reallocation.
pub(crate) fn eval_all<'a>(
    exprs: impl ExactSizeIterator<Item = &'a BoundExpr>,
    row: &Row,
) -> DbResult<Row> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(e.eval(row)?);
    }
    Ok(out)
}

/// Sorts by `keys` (expression, ascending). Stable, so equal keys keep
/// input order.
pub fn sort(rows: Vec<Row>, keys: &[(BoundExpr, bool)]) -> DbResult<Vec<Row>> {
    let mut keyed = Vec::with_capacity(rows.len());
    for row in rows {
        keyed.push((eval_all(keys.iter().map(|(e, _)| e), &row)?, row));
    }
    keyed.sort_by(|(a, _), (b, _)| {
        keys.iter()
            .zip(a.iter().zip(b))
            .map(|((_, asc), (x, y))| if *asc { x.cmp(y) } else { x.cmp(y).reverse() })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::exec::run;
    use crate::plan::logical::LogicalPlan;
    use crate::schema::{Column, Schema};
    use crate::sql::ast::BinaryOp;
    use crate::storage::Table;
    use crate::value::{DataType, Value};

    fn rows(vals: &[i64]) -> Vec<Row> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    fn col0() -> BoundExpr {
        BoundExpr::Column {
            index: 0,
            ty: DataType::Int,
            name: "x".into(),
        }
    }

    /// A catalog holding `data` as table `t`, and a scan of it.
    fn scan(data: &[Row]) -> (Catalog, LogicalPlan) {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let mut t = Table::new("t", schema.clone());
        for row in data {
            t.insert(row.clone()).unwrap();
        }
        let mut catalog = Catalog::default();
        catalog.create_table(t).unwrap();
        let plan = LogicalPlan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema,
        };
        (catalog, plan)
    }

    #[test]
    fn scan_yields_all_rows() {
        let data = rows(&[1, 2, 3]);
        let (catalog, plan) = scan(&data);
        assert_eq!(run(&plan, &catalog).unwrap(), data);
    }

    #[test]
    fn filter_keeps_matching() {
        let data = rows(&[1, 5, 2, 8]);
        let pred = BoundExpr::Binary {
            left: Box::new(col0()),
            op: BinaryOp::Gt,
            right: Box::new(BoundExpr::Literal(Value::Int(3))),
        };
        assert_eq!(filter(data, &pred).unwrap(), rows(&[5, 8]));
    }

    #[test]
    fn project_computes_expressions() {
        let data = rows(&[2, 3]);
        let double = BoundExpr::Binary {
            left: Box::new(col0()),
            op: BinaryOp::Mul,
            right: Box::new(BoundExpr::Literal(Value::Int(2))),
        };
        assert_eq!(project(&data, &[double]).unwrap(), rows(&[4, 6]));
    }

    #[test]
    fn sort_orders_ascending_and_descending() {
        let data = rows(&[3, 1, 2]);
        let asc = sort(data.clone(), &[(col0(), true)]).unwrap();
        assert_eq!(asc, rows(&[1, 2, 3]));
        let desc = sort(data, &[(col0(), false)]).unwrap();
        assert_eq!(desc, rows(&[3, 2, 1]));
    }

    #[test]
    fn sort_is_stable_on_equal_keys() {
        let data: Vec<Row> = vec![
            vec![Value::Int(1), Value::Str("first".into())],
            vec![Value::Int(1), Value::Str("second".into())],
            vec![Value::Int(0), Value::Str("zero".into())],
        ];
        let out = sort(data, &[(col0(), true)]).unwrap();
        assert_eq!(out[1][1], Value::Str("first".into()));
        assert_eq!(out[2][1], Value::Str("second".into()));
    }

    #[test]
    fn limit_truncates() {
        let (catalog, input) = scan(&rows(&[1, 2, 3, 4]));
        let limit = |n| LogicalPlan::Limit {
            input: Box::new(input.clone()),
            n,
        };
        assert_eq!(run(&limit(2), &catalog).unwrap(), rows(&[1, 2]));
        assert!(run(&limit(0), &catalog).unwrap().is_empty());
    }

    #[test]
    fn empty_input_flows_through() {
        assert!(sort(vec![], &[(col0(), true)]).unwrap().is_empty());
    }
}
