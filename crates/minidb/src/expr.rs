//! Bound (resolved, typed) expressions and their evaluation.
//!
//! The binder turns `ast::Expr` into [`BoundExpr`]: column references become
//! ordinals into the input schema, types are inferred and checked once, and
//! evaluation is a pure match over values with SQL semantics — three-valued
//! logic for `AND`/`OR`/`NOT`, comparisons with NULL yielding NULL, and
//! NULL-propagating arithmetic. Aggregates never appear here; the planner
//! strips them into the aggregation operator first.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::sql::ast::{BinaryOp, Expr, UnaryOp};
use crate::value::{DataType, Row, Value};
use std::fmt;

/// A resolved, typed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Input column by ordinal.
    Column {
        /// Ordinal into the input row.
        index: usize,
        /// The column's type.
        ty: DataType,
        /// Display name (for EXPLAIN and output schemas).
        name: String,
    },
    /// A constant.
    Literal(Value),
    /// `NOT e` / `-e`.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<BoundExpr>,
    },
    /// Binary application.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `e IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<BoundExpr>,
        /// `true` for IS NOT NULL.
        negated: bool,
    },
}

impl BoundExpr {
    /// The expression's static type (`None` for the NULL literal).
    pub(crate) fn data_type(&self) -> Option<DataType> {
        match self {
            BoundExpr::Column { ty, .. } => Some(*ty),
            BoundExpr::Literal(v) => v.data_type(),
            BoundExpr::Unary { op, expr } => match op {
                UnaryOp::Not => Some(DataType::Bool),
                UnaryOp::Neg => expr.data_type(),
            },
            BoundExpr::Binary { left, op, right } => {
                if *op == BinaryOp::And || *op == BinaryOp::Or || op.is_comparison() {
                    Some(DataType::Bool)
                } else {
                    // Arithmetic: FLOAT if either side is FLOAT.
                    match (left.data_type(), right.data_type()) {
                        (Some(DataType::Float), _) | (_, Some(DataType::Float)) => {
                            Some(DataType::Float)
                        }
                        _ => Some(DataType::Int),
                    }
                }
            }
            BoundExpr::IsNull { .. } => Some(DataType::Bool),
        }
    }

    /// A display name for output columns: column names pass through,
    /// everything else pretty-prints.
    pub(crate) fn output_name(&self) -> String {
        match self {
            BoundExpr::Column { name, .. } => name.clone(),
            other => other.to_string(),
        }
    }

    /// Evaluates against a row.
    pub(crate) fn eval(&self, row: &Row) -> DbResult<Value> {
        match self {
            BoundExpr::Column { index, .. } => Ok(row[*index].clone()),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(DbError::type_err(format!("NOT applied to {other}"))),
                    },
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => {
                            Ok(Value::Int(i.checked_neg().ok_or_else(|| {
                                DbError::execution("integer negation overflow")
                            })?))
                        }
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(DbError::type_err(format!("negation applied to {other}"))),
                    },
                }
            }
            BoundExpr::Binary { left, op, right } => match op {
                BinaryOp::And => {
                    // Kleene: short-circuit false, propagate NULL otherwise.
                    let l = left.eval(row)?;
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = right.eval(row)?;
                    match (l, r) {
                        (_, Value::Bool(false)) => Ok(Value::Bool(false)),
                        (Value::Bool(true), Value::Bool(true)) => Ok(Value::Bool(true)),
                        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                        (l, r) => Err(DbError::type_err(format!("AND applied to {l} and {r}"))),
                    }
                }
                BinaryOp::Or => {
                    let l = left.eval(row)?;
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = right.eval(row)?;
                    match (l, r) {
                        (_, Value::Bool(true)) => Ok(Value::Bool(true)),
                        (Value::Bool(false), Value::Bool(false)) => Ok(Value::Bool(false)),
                        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                        (l, r) => Err(DbError::type_err(format!("OR applied to {l} and {r}"))),
                    }
                }
                cmp if cmp.is_comparison() => {
                    let l = left.eval(row)?;
                    let r = right.eval(row)?;
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    let ord = l.cmp(&r);
                    let b = match cmp {
                        BinaryOp::Eq => ord.is_eq(),
                        BinaryOp::NotEq => ord.is_ne(),
                        BinaryOp::Lt => ord.is_lt(),
                        BinaryOp::LtEq => ord.is_le(),
                        BinaryOp::Gt => ord.is_gt(),
                        BinaryOp::GtEq => ord.is_ge(),
                        _ => unreachable!("guarded by is_comparison"),
                    };
                    Ok(Value::Bool(b))
                }
                arith => {
                    let l = left.eval(row)?;
                    let r = right.eval(row)?;
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    eval_arith(*arith, l, r)
                }
            },
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluates as a predicate: `true` only when the result is
    /// `Bool(true)` (SQL filters discard NULL).
    pub fn eval_predicate(&self, row: &Row) -> DbResult<bool> {
        Ok(self.eval(row)? == Value::Bool(true))
    }

    /// All column ordinals referenced by this expression.
    pub(crate) fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            BoundExpr::Column { index, .. } => out.push(*index),
            BoundExpr::Literal(_) => {}
            BoundExpr::Unary { expr, .. } => expr.referenced_columns(out),
            BoundExpr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            BoundExpr::IsNull { expr, .. } => expr.referenced_columns(out),
        }
    }

    /// Rewrites every column ordinal through `map` (used when pushing
    /// expressions past projections or into join sides).
    pub(crate) fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> BoundExpr {
        match self {
            BoundExpr::Column { index, ty, name } => BoundExpr::Column {
                index: map(*index),
                ty: *ty,
                name: name.clone(),
            },
            BoundExpr::Literal(v) => BoundExpr::Literal(v.clone()),
            BoundExpr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(expr.remap_columns(map)),
            },
            BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(left.remap_columns(map)),
                op: *op,
                right: Box::new(right.remap_columns(map)),
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.remap_columns(map)),
                negated: *negated,
            },
        }
    }
}

fn eval_arith(op: BinaryOp, l: Value, r: Value) -> DbResult<Value> {
    if !l.is_numeric() || !r.is_numeric() {
        return Err(DbError::type_err(format!(
            "arithmetic {op} applied to {l} and {r}"
        )));
    }
    // Integer op integer stays integer; anything with a float widens.
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        let out = match op {
            BinaryOp::Add => a.checked_add(b),
            BinaryOp::Sub => a.checked_sub(b),
            BinaryOp::Mul => a.checked_mul(b),
            BinaryOp::Div => {
                if b == 0 {
                    return Err(DbError::execution("division by zero"));
                }
                a.checked_div(b)
            }
            _ => unreachable!("arith ops only"),
        };
        return out
            .map(Value::Int)
            .ok_or_else(|| DbError::execution("integer overflow"));
    }
    let a = l.as_f64().expect("numeric");
    let b = r.as_f64().expect("numeric");
    let out = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(DbError::execution("division by zero"));
            }
            a / b
        }
        _ => unreachable!("arith ops only"),
    };
    Ok(Value::Float(out))
}

/// Binds an AST expression against a schema. Aggregates are rejected —
/// callers must lower them first.
pub(crate) fn bind_expr(expr: &Expr, schema: &Schema) -> DbResult<BoundExpr> {
    match expr {
        Expr::Column { qualifier, name } => {
            let index = schema.resolve(qualifier.as_deref(), name)?;
            let col = schema.column(index);
            Ok(BoundExpr::Column {
                index,
                ty: col.ty,
                name: col.name.clone(),
            })
        }
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::Unary { op, expr } => {
            let inner = bind_expr(expr, schema)?;
            match op {
                UnaryOp::Not => expect_type(&inner, DataType::Bool, "NOT")?,
                UnaryOp::Neg => expect_numeric(&inner, "negation")?,
            }
            Ok(BoundExpr::Unary {
                op: *op,
                expr: Box::new(inner),
            })
        }
        Expr::Binary { left, op, right } => {
            let l = bind_expr(left, schema)?;
            let r = bind_expr(right, schema)?;
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    expect_type(&l, DataType::Bool, &op.to_string())?;
                    expect_type(&r, DataType::Bool, &op.to_string())?;
                }
                cmp if cmp.is_comparison() => {
                    check_comparable(&l, &r, &op.to_string())?;
                }
                _ => {
                    expect_numeric(&l, &op.to_string())?;
                    expect_numeric(&r, &op.to_string())?;
                }
            }
            Ok(BoundExpr::Binary {
                left: Box::new(l),
                op: *op,
                right: Box::new(r),
            })
        }
        Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
            expr: Box::new(bind_expr(expr, schema)?),
            negated: *negated,
        }),
        Expr::Agg { .. } => Err(DbError::binding(
            "aggregate function in a non-aggregate context",
        )),
    }
}

fn expect_type(e: &BoundExpr, ty: DataType, ctx: &str) -> DbResult<()> {
    match e.data_type() {
        None => Ok(()), // NULL literal fits anywhere
        Some(t) if t == ty => Ok(()),
        Some(t) => Err(DbError::type_err(format!("{ctx} expects {ty}, got {t}"))),
    }
}

fn expect_numeric(e: &BoundExpr, ctx: &str) -> DbResult<()> {
    match e.data_type() {
        None | Some(DataType::Int) | Some(DataType::Float) => Ok(()),
        Some(t) => Err(DbError::type_err(format!(
            "{ctx} expects a number, got {t}"
        ))),
    }
}

fn check_comparable(l: &BoundExpr, r: &BoundExpr, ctx: &str) -> DbResult<()> {
    let compatible = match (l.data_type(), r.data_type()) {
        (None, _) | (_, None) => true,
        (Some(a), Some(b)) => {
            a == b
                || (matches!(a, DataType::Int | DataType::Float)
                    && matches!(b, DataType::Int | DataType::Float))
        }
    };
    if compatible {
        Ok(())
    } else {
        Err(DbError::type_err(format!(
            "{ctx} compares incompatible types {:?} and {:?}",
            l.data_type(),
            r.data_type()
        )))
    }
}

impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundExpr::Column { name, index, .. } => write!(f, "{name}#{index}"),
            BoundExpr::Literal(v) => write!(f, "{v}"),
            BoundExpr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
            },
            BoundExpr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            BoundExpr::IsNull { expr, negated } => {
                if *negated {
                    write!(f, "({expr} IS NOT NULL)")
                } else {
                    write!(f, "({expr} IS NULL)")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::sql::ast::{SelectItem, Statement};
    use crate::sql::parser::parse_statement;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("t", "a", DataType::Int),
            Column::qualified("t", "b", DataType::Float),
            Column::qualified("t", "c", DataType::Text),
        ])
    }

    /// Parses the WHERE clause of `SELECT * FROM t WHERE <pred>` and binds
    /// it against the test schema.
    fn bind_pred(pred: &str) -> DbResult<BoundExpr> {
        let sql = format!("SELECT * FROM t WHERE {pred}");
        match parse_statement(&sql).unwrap() {
            Statement::Select(s) => bind_expr(&s.where_clause.unwrap(), &schema()),
            _ => unreachable!(),
        }
    }

    fn bind_proj(expr: &str) -> DbResult<BoundExpr> {
        let sql = format!("SELECT {expr} FROM t");
        match parse_statement(&sql).unwrap() {
            Statement::Select(s) => match &s.projections[0] {
                SelectItem::Expr { expr, .. } => bind_expr(expr, &schema()),
                _ => unreachable!(),
            },
            _ => unreachable!(),
        }
    }

    fn row(a: i64, b: f64, c: &str) -> Row {
        vec![Value::Int(a), Value::Float(b), Value::Str(c.into())]
    }

    #[test]
    fn binds_and_evaluates_comparison() {
        let e = bind_pred("a > 2").unwrap();
        assert!(e.eval_predicate(&row(3, 0.0, "")).unwrap());
        assert!(!e.eval_predicate(&row(2, 0.0, "")).unwrap());
    }

    #[test]
    fn arithmetic_typing_and_eval() {
        let e = bind_proj("a * 2 + 1").unwrap();
        assert_eq!(e.data_type(), Some(DataType::Int));
        assert_eq!(e.eval(&row(5, 0.0, "")).unwrap(), Value::Int(11));
        let f = bind_proj("a + b").unwrap();
        assert_eq!(f.data_type(), Some(DataType::Float));
        assert_eq!(f.eval(&row(1, 2.5, "")).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = bind_proj("a / 0").unwrap();
        assert!(matches!(
            e.eval(&row(1, 0.0, "")).unwrap_err(),
            DbError::Execution(m) if m.contains("division")
        ));
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let e = bind_proj("a * a").unwrap();
        assert!(e.eval(&row(i64::MAX, 0.0, "")).is_err());
    }

    #[test]
    fn null_propagates_through_comparisons_and_arithmetic() {
        let e = bind_pred("a > 2").unwrap();
        let null_row = vec![Value::Null, Value::Float(0.0), Value::Str("".into())];
        assert_eq!(e.eval(&null_row).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&null_row).unwrap(), "NULL filters out");
        let f = bind_proj("a + 1").unwrap();
        assert_eq!(f.eval(&null_row).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_and_or() {
        let e = bind_pred("a > 0 AND b > 0.0").unwrap();
        let null_a = vec![Value::Null, Value::Float(1.0), Value::Str("".into())];
        assert_eq!(e.eval(&null_a).unwrap(), Value::Null);
        // false AND NULL = false.
        let e2 = bind_pred("a > 100 AND b > 0.0").unwrap();
        let null_b = vec![Value::Int(1), Value::Null, Value::Str("".into())];
        assert_eq!(e2.eval(&null_b).unwrap(), Value::Bool(false));
        // true OR NULL = true.
        let e3 = bind_pred("a > 0 OR b > 0.0").unwrap();
        assert_eq!(e3.eval(&null_b).unwrap(), Value::Bool(true));
    }

    #[test]
    fn is_null_never_returns_null() {
        let e = bind_pred("a IS NULL").unwrap();
        let null_row = vec![Value::Null, Value::Float(0.0), Value::Str("".into())];
        assert_eq!(e.eval(&null_row).unwrap(), Value::Bool(true));
        assert_eq!(e.eval(&row(1, 0.0, "")).unwrap(), Value::Bool(false));
        let n = bind_pred("a IS NOT NULL").unwrap();
        assert_eq!(n.eval(&null_row).unwrap(), Value::Bool(false));
    }

    #[test]
    fn type_errors_caught_at_bind_time() {
        assert!(matches!(bind_pred("c > 1").unwrap_err(), DbError::Type(_)));
        assert!(matches!(bind_proj("c + 1").unwrap_err(), DbError::Type(_)));
        assert!(matches!(bind_pred("NOT a").unwrap_err(), DbError::Type(_)));
        assert!(matches!(
            bind_pred("a AND b > 0.0").unwrap_err(),
            DbError::Type(_)
        ));
    }

    #[test]
    fn unknown_column_caught_at_bind_time() {
        assert!(matches!(
            bind_pred("zzz = 1").unwrap_err(),
            DbError::Binding(_)
        ));
    }

    #[test]
    fn string_comparison_works() {
        let e = bind_pred("c = 'x'").unwrap();
        assert!(e.eval_predicate(&row(0, 0.0, "x")).unwrap());
        assert!(!e.eval_predicate(&row(0, 0.0, "y")).unwrap());
    }

    #[test]
    fn referenced_columns_and_remap() {
        let e = bind_pred("a > 0 AND b < 1.0").unwrap();
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1]);
        let shifted = e.remap_columns(&|i| i + 10);
        let mut cols2 = Vec::new();
        shifted.referenced_columns(&mut cols2);
        cols2.sort_unstable();
        assert_eq!(cols2, vec![10, 11]);
    }

    #[test]
    fn not_of_null_is_null() {
        let e = bind_pred("NOT (a > 0)").unwrap();
        let null_row = vec![Value::Null, Value::Float(0.0), Value::Str("".into())];
        assert_eq!(e.eval(&null_row).unwrap(), Value::Null);
    }
}
