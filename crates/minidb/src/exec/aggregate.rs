//! Hash aggregation.
//!
//! Standard SQL semantics: `COUNT(*)` counts rows, the other aggregates
//! skip NULL inputs; `SUM`/`MIN`/`MAX` over an all-NULL (or empty) group is
//! NULL, `COUNT` is 0; with no `GROUP BY` the operator emits exactly one
//! row even for empty input.

use super::basic::eval_all;
use crate::error::{DbError, DbResult};
use crate::expr::BoundExpr;
use crate::plan::logical::AggExpr;
use crate::sql::ast::AggFunc;
use crate::value::{Row, Value};
use std::collections::HashMap;

/// Accumulator for one aggregate within one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Feeds one value (`None` = COUNT(*) row tick).
    fn update(&mut self, v: Option<&Value>) -> DbResult<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts every row; COUNT(e) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::Sum(acc) => {
                let Some(val) = v else { return Ok(()) };
                if val.is_null() {
                    return Ok(());
                }
                if !val.is_numeric() {
                    return Err(DbError::type_err(format!("SUM over non-number {val}")));
                }
                *acc = Some(match acc.take() {
                    None => val.clone(),
                    Some(Value::Int(a)) => match val {
                        Value::Int(b) => Value::Int(
                            a.checked_add(*b)
                                .ok_or_else(|| DbError::execution("SUM integer overflow"))?,
                        ),
                        other => Value::Float(a as f64 + other.as_f64().expect("numeric")),
                    },
                    Some(Value::Float(a)) => Value::Float(a + val.as_f64().expect("numeric")),
                    Some(other) => {
                        return Err(DbError::type_err(format!("SUM accumulator {other}")))
                    }
                });
            }
            AggState::Min(acc) => {
                let Some(val) = v else { return Ok(()) };
                if val.is_null() {
                    return Ok(());
                }
                match acc {
                    None => *acc = Some(val.clone()),
                    Some(cur) => {
                        if val < cur {
                            *acc = Some(val.clone());
                        }
                    }
                }
            }
            AggState::Max(acc) => {
                let Some(val) = v else { return Ok(()) };
                if val.is_null() {
                    return Ok(());
                }
                match acc {
                    None => *acc = Some(val.clone()),
                    Some(cur) => {
                        if val > cur {
                            *acc = Some(val.clone());
                        }
                    }
                }
            }
            AggState::Avg { sum, count } => {
                let Some(val) = v else { return Ok(()) };
                if val.is_null() {
                    return Ok(());
                }
                let x = val
                    .as_f64()
                    .ok_or_else(|| DbError::type_err(format!("AVG over non-number {val}")))?;
                *sum += x;
                *count += 1;
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(acc) | AggState::Min(acc) | AggState::Max(acc) => {
                acc.unwrap_or(Value::Null)
            }
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
        }
    }
}

/// Hash aggregation of `rows` grouped by `group_by`: one output row per
/// group, in first-seen order, holding the group key then the aggregates.
pub fn hash_aggregate(
    rows: &[Row],
    group_by: &[BoundExpr],
    aggs: &[AggExpr],
) -> DbResult<Vec<Row>> {
    let fresh = || {
        aggs.iter()
            .map(|a| AggState::new(a.func))
            .collect::<Vec<_>>()
    };
    // Group key → index into `states`, which keeps first-seen order.
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut states: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
    for row in rows {
        let key = eval_all(group_by.iter(), row)?;
        let idx = match groups.get(&key) {
            Some(&i) => i,
            None => {
                groups.insert(key.clone(), states.len());
                states.push((key, fresh()));
                states.len() - 1
            }
        };
        for (a, st) in aggs.iter().zip(states[idx].1.iter_mut()) {
            match &a.arg {
                None => st.update(None)?,
                Some(e) => st.update(Some(&e.eval(row)?))?,
            }
        }
    }
    // Global aggregate over empty input still yields one row.
    if states.is_empty() && group_by.is_empty() {
        states.push((Vec::new(), fresh()));
    }
    Ok(states
        .into_iter()
        .map(|(mut row, sts)| {
            row.extend(sts.into_iter().map(AggState::finish));
            row
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn data() -> Vec<Row> {
        vec![
            vec![Value::Str("a".into()), Value::Int(1)],
            vec![Value::Str("a".into()), Value::Int(3)],
            vec![Value::Str("b".into()), Value::Int(5)],
            vec![Value::Str("a".into()), Value::Null],
        ]
    }

    fn col(i: usize, ty: DataType) -> BoundExpr {
        BoundExpr::Column {
            index: i,
            ty,
            name: format!("c{i}"),
        }
    }

    fn agg(func: AggFunc, arg: Option<BoundExpr>) -> AggExpr {
        AggExpr {
            func,
            arg,
            name: "agg".into(),
        }
    }

    /// Unsorted: the assertions read groups in first-seen order.
    fn run(group: Vec<BoundExpr>, aggs: Vec<AggExpr>, rows: &[Row]) -> Vec<Row> {
        hash_aggregate(rows, &group, &aggs).unwrap()
    }

    #[test]
    fn grouped_count_star_and_sum() {
        let d = data();
        let out = run(
            vec![col(0, DataType::Text)],
            vec![
                agg(AggFunc::Count, None),
                agg(AggFunc::Count, Some(col(1, DataType::Int))),
                agg(AggFunc::Sum, Some(col(1, DataType::Int))),
            ],
            &d,
        );
        assert_eq!(
            out,
            vec![
                vec![
                    Value::Str("a".into()),
                    Value::Int(3), // COUNT(*) counts the NULL row
                    Value::Int(2), // COUNT(v) skips it
                    Value::Int(4), // SUM skips it
                ],
                vec![
                    Value::Str("b".into()),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(5)
                ],
            ]
        );
    }

    #[test]
    fn min_max_avg() {
        let d = data();
        let out = run(
            vec![col(0, DataType::Text)],
            vec![
                agg(AggFunc::Min, Some(col(1, DataType::Int))),
                agg(AggFunc::Max, Some(col(1, DataType::Int))),
                agg(AggFunc::Avg, Some(col(1, DataType::Int))),
            ],
            &d,
        );
        assert_eq!(
            out[0],
            vec![
                Value::Str("a".into()),
                Value::Int(1),
                Value::Int(3),
                Value::Float(2.0),
            ]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input_emits_one_row() {
        let empty: Vec<Row> = vec![];
        let out = run(
            vec![],
            vec![
                agg(AggFunc::Count, None),
                agg(AggFunc::Sum, Some(col(0, DataType::Int))),
                agg(AggFunc::Avg, Some(col(0, DataType::Int))),
            ],
            &empty,
        );
        assert_eq!(out, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_emits_nothing() {
        let empty: Vec<Row> = vec![];
        let out = run(
            vec![col(0, DataType::Text)],
            vec![agg(AggFunc::Count, None)],
            &empty,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn null_group_keys_form_their_own_group() {
        let d = vec![
            vec![Value::Null, Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Str("x".into()), Value::Int(3)],
        ];
        let out = run(
            vec![col(0, DataType::Text)],
            vec![agg(AggFunc::Count, None)],
            &d,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![Value::Null, Value::Int(2)]);
    }

    #[test]
    fn sum_mixes_int_and_float() {
        let d = vec![
            vec![Value::Str("a".into()), Value::Int(1)],
            vec![Value::Str("a".into()), Value::Float(0.5)],
        ];
        let out = run(
            vec![col(0, DataType::Text)],
            vec![agg(AggFunc::Sum, Some(col(1, DataType::Float)))],
            &d,
        );
        assert_eq!(out[0][1], Value::Float(1.5));
    }

    #[test]
    fn sum_over_text_errors() {
        let d = vec![vec![Value::Str("a".into()), Value::Str("x".into())]];
        let sum = [agg(AggFunc::Sum, Some(col(1, DataType::Text)))];
        assert!(hash_aggregate(&d, &[], &sum).is_err());
    }
}
