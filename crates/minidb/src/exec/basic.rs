//! Scan, filter, project, sort, limit.

use super::{BoxIter, RowIter};
use crate::error::DbResult;
use crate::expr::BoundExpr;
use crate::value::Row;
use std::cmp::Ordering;

/// Sequential scan over borrowed table rows.
pub struct Scan<'a> {
    rows: &'a [Row],
    pos: usize,
}

impl<'a> Scan<'a> {
    /// A scan over `rows`.
    pub fn new(rows: &'a [Row]) -> Scan<'a> {
        Scan { rows, pos: 0 }
    }
}

impl RowIter for Scan<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let row = self.rows[self.pos].clone();
        self.pos += 1;
        Ok(Some(row))
    }
}

/// Predicate filter (SQL semantics: keep only rows where the predicate is
/// `TRUE`; `NULL` drops).
pub struct Filter<'a> {
    input: BoxIter<'a>,
    predicate: BoundExpr,
}

impl<'a> Filter<'a> {
    /// A filter over `input`.
    pub fn new(input: BoxIter<'a>, predicate: BoundExpr) -> Filter<'a> {
        Filter { input, predicate }
    }
}

impl RowIter for Filter<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        while let Some(row) = self.input.next_row()? {
            if self.predicate.eval_predicate(&row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Expression projection.
pub struct Project<'a> {
    input: BoxIter<'a>,
    exprs: Vec<BoundExpr>,
}

impl<'a> Project<'a> {
    /// A projection over `input`.
    pub fn new(input: BoxIter<'a>, exprs: Vec<BoundExpr>) -> Project<'a> {
        Project { input, exprs }
    }
}

impl RowIter for Project<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        match self.input.next_row()? {
            None => Ok(None),
            Some(row) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(e.eval(&row)?);
                }
                Ok(Some(out))
            }
        }
    }
}

/// Blocking sort; materializes on first pull. Stable, so equal keys keep
/// input order.
pub struct Sort<'a> {
    input: Option<BoxIter<'a>>,
    keys: Vec<(BoundExpr, bool)>,
    sorted: Vec<Row>,
    pos: usize,
}

impl<'a> Sort<'a> {
    /// A sort of `input` by `keys` (expression, ascending).
    pub fn new(input: BoxIter<'a>, keys: Vec<(BoundExpr, bool)>) -> Sort<'a> {
        Sort {
            input: Some(input),
            keys,
            sorted: Vec::new(),
            pos: 0,
        }
    }

    fn materialize(&mut self) -> DbResult<()> {
        let Some(mut input) = self.input.take() else {
            return Ok(());
        };
        let mut keyed: Vec<(Vec<crate::value::Value>, Row)> = Vec::new();
        while let Some(row) = input.next_row()? {
            let mut key = Vec::with_capacity(self.keys.len());
            for (e, _) in &self.keys {
                key.push(e.eval(&row)?);
            }
            keyed.push((key, row));
        }
        let dirs: Vec<bool> = self.keys.iter().map(|(_, asc)| *asc).collect();
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, asc) in dirs.iter().enumerate() {
                let ord = ka[i].cmp(&kb[i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        self.sorted = keyed.into_iter().map(|(_, r)| r).collect();
        Ok(())
    }
}

impl RowIter for Sort<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        if self.input.is_some() {
            self.materialize()?;
        }
        if self.pos >= self.sorted.len() {
            return Ok(None);
        }
        let row = std::mem::take(&mut self.sorted[self.pos]);
        self.pos += 1;
        Ok(Some(row))
    }
}

/// Row-count limit (stops pulling from its input once satisfied).
pub struct Limit<'a> {
    input: BoxIter<'a>,
    remaining: u64,
}

impl<'a> Limit<'a> {
    /// A limit of `n` rows over `input`.
    pub fn new(input: BoxIter<'a>, n: u64) -> Limit<'a> {
        Limit {
            input,
            remaining: n,
        }
    }
}

impl RowIter for Limit<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next_row()? {
            None => Ok(None),
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::collect;
    use crate::sql::ast::BinaryOp;
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

    #[test]
    fn scan_yields_all_rows() {
        let data = rows(&[1, 2, 3]);
        let out = collect(Box::new(Scan::new(&data))).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn filter_keeps_matching() {
        let data = rows(&[1, 5, 2, 8]);
        let pred = BoundExpr::Binary {
            left: Box::new(col0()),
            op: BinaryOp::Gt,
            right: Box::new(BoundExpr::Literal(Value::Int(3))),
        };
        let out = collect(Box::new(Filter::new(Box::new(Scan::new(&data)), pred))).unwrap();
        assert_eq!(out, rows(&[5, 8]));
    }

    #[test]
    fn project_computes_expressions() {
        let data = rows(&[2, 3]);
        let double = BoundExpr::Binary {
            left: Box::new(col0()),
            op: BinaryOp::Mul,
            right: Box::new(BoundExpr::Literal(Value::Int(2))),
        };
        let out = collect(Box::new(Project::new(
            Box::new(Scan::new(&data)),
            vec![double],
        )))
        .unwrap();
        assert_eq!(out, rows(&[4, 6]));
    }

    #[test]
    fn sort_orders_ascending_and_descending() {
        let data = rows(&[3, 1, 2]);
        let asc = collect(Box::new(Sort::new(
            Box::new(Scan::new(&data)),
            vec![(col0(), true)],
        )))
        .unwrap();
        assert_eq!(asc, rows(&[1, 2, 3]));
        let desc = collect(Box::new(Sort::new(
            Box::new(Scan::new(&data)),
            vec![(col0(), false)],
        )))
        .unwrap();
        assert_eq!(desc, rows(&[3, 2, 1]));
    }

    #[test]
    fn sort_is_stable_on_equal_keys() {
        let data: Vec<Row> = vec![
            vec![Value::Int(1), Value::Str("first".into())],
            vec![Value::Int(1), Value::Str("second".into())],
            vec![Value::Int(0), Value::Str("zero".into())],
        ];
        let out = collect(Box::new(Sort::new(
            Box::new(Scan::new(&data)),
            vec![(col0(), true)],
        )))
        .unwrap();
        assert_eq!(out[1][1], Value::Str("first".into()));
        assert_eq!(out[2][1], Value::Str("second".into()));
    }

    #[test]
    fn limit_truncates() {
        let data = rows(&[1, 2, 3, 4]);
        let out = collect(Box::new(Limit::new(Box::new(Scan::new(&data)), 2))).unwrap();
        assert_eq!(out, rows(&[1, 2]));
        let zero = collect(Box::new(Limit::new(Box::new(Scan::new(&data)), 0))).unwrap();
        assert!(zero.is_empty());
    }

    #[test]
    fn empty_input_flows_through() {
        let data: Vec<Row> = vec![];
        let out = collect(Box::new(Sort::new(
            Box::new(Scan::new(&data)),
            vec![(col0(), true)],
        )))
        .unwrap();
        assert!(out.is_empty());
    }
}
