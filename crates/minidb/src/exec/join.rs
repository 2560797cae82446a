//! The join: one hash join.
//!
//! The right input is the build side and the left probes it in order, so
//! output rows follow the probe order, each probe row's matches in build
//! order. A join without equi keys hashes every row to the empty key —
//! one bucket — which makes it the nested loop `EXPLAIN` calls it. SQL
//! NULL semantics apply: a NULL join key never matches anything.

use crate::error::DbResult;
use crate::expr::BoundExpr;
use crate::value::{Row, Value};
use std::collections::HashMap;

/// The equi-key tuple of a row; `None` if any key is NULL (NULL never
/// joins).
fn key_of(row: &Row, cols: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(cols.len());
    for &c in cols {
        if row[c].is_null() {
            return None;
        }
        key.push(row[c].clone());
    }
    Some(key)
}

/// Joins `left` (probe) with `right` (build) on `equi` = (left ordinal,
/// right-relative ordinal) pairs, keeping the concatenated rows that pass
/// `residual`, which is bound over the concatenated schema.
pub fn hash_join(
    left: &[Row],
    right: &[Row],
    equi: &[(usize, usize)],
    residual: Option<&BoundExpr>,
) -> DbResult<Vec<Row>> {
    let (left_keys, right_keys): (Vec<usize>, Vec<usize>) = equi.iter().copied().unzip();
    let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for row in right {
        if let Some(key) = key_of(row, &right_keys) {
            table.entry(key).or_default().push(row);
        }
    }
    let mut out = Vec::new();
    for probe in left {
        let Some(matches) = key_of(probe, &left_keys).and_then(|key| table.get(&key)) else {
            continue;
        };
        for build in matches {
            let row: Row = probe.iter().chain(build.iter()).cloned().collect();
            if residual.map_or(Ok(true), |p| p.eval_predicate(&row))? {
                out.push(row);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::BinaryOp;
    use crate::value::DataType;

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    fn text(s: &str) -> Value {
        Value::Str(s.into())
    }

    fn left_rows() -> Vec<Row> {
        vec![
            vec![int(1), text("a")],
            vec![int(2), text("b")],
            vec![int(2), text("b2")],
            vec![int(3), text("c")],
            vec![Value::Null, text("n")],
        ]
    }

    fn right_rows() -> Vec<Row> {
        vec![
            vec![int(2), Value::Float(20.0)],
            vec![int(2), Value::Float(21.0)],
            vec![int(3), Value::Float(30.0)],
            vec![int(4), Value::Float(40.0)],
            vec![Value::Null, Value::Float(0.0)],
        ]
    }

    fn join(equi: &[(usize, usize)], residual: Option<&BoundExpr>) -> Vec<Row> {
        hash_join(&left_rows(), &right_rows(), equi, residual).unwrap()
    }

    #[test]
    fn equi_join_emits_probe_order_then_build_order() {
        let row = |k, l: &str, r| vec![int(k), text(l), int(k), Value::Float(r)];
        assert_eq!(
            join(&[(0, 0)], None),
            vec![
                row(2, "b", 20.0),
                row(2, "b", 21.0),
                row(2, "b2", 20.0),
                row(2, "b2", 21.0),
                row(3, "c", 30.0),
            ]
        );
    }

    #[test]
    fn null_keys_never_match() {
        let out = join(&[(0, 0)], None);
        assert!(out.iter().all(|row| !row[0].is_null() && !row[2].is_null()));
    }

    #[test]
    fn residual_filters_matches() {
        // key = key AND right.v > 20.0
        let residual = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column {
                index: 3,
                ty: DataType::Float,
                name: "v".into(),
            }),
            op: BinaryOp::Gt,
            right: Box::new(BoundExpr::Literal(Value::Float(20.0))),
        };
        // key 2 matches v=21 only (2 left rows × 1), key 3 matches v=30.
        let out = join(&[(0, 0)], Some(&residual));
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn key_less_join_is_one_bucket() {
        // Every pair, NULL keys included, left-major.
        let (l, r) = (left_rows(), right_rows());
        let pairs: Vec<Row> = l
            .iter()
            .flat_map(|a| r.iter().map(move |b| [a.as_slice(), b].concat()))
            .collect();
        assert_eq!(join(&[], None), pairs);
    }

    #[test]
    fn empty_sides_produce_empty_output() {
        let r = right_rows();
        assert!(hash_join(&[], &r, &[(0, 0)], None).unwrap().is_empty());
        assert!(hash_join(&r, &[], &[(0, 0)], None).unwrap().is_empty());
        assert!(hash_join(&r, &[], &[], None).unwrap().is_empty());
    }

    #[test]
    fn multi_key_join() {
        let l = vec![vec![int(1), text("x")], vec![int(1), text("y")]];
        let r = vec![
            vec![int(1), text("x"), Value::Float(1.0)],
            vec![int(1), text("z"), Value::Float(2.0)],
        ];
        let out = hash_join(&l, &r, &[(0, 0), (1, 1)], None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][1], text("x"));
    }
}
