//! Abstract syntax tree.
//!
//! [`Expr`] prints fully parenthesized, which is how the parser's tests
//! read back the precedence it parsed.

use crate::value::{DataType, Value};
use std::fmt;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE, …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
    },
    /// `CREATE VIEW name AS SELECT …`
    CreateView {
        /// View name.
        name: String,
        /// The defining query.
        select: SelectStmt,
    },
    /// `INSERT INTO name VALUES (…), (…)`
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<Value>>,
    },
    /// `SELECT …`
    Select(SelectStmt),
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The projection list.
    pub projections: Vec<SelectItem>,
    /// The `FROM` clause (absent for `SELECT 1`-style constants).
    pub from: Option<FromClause>,
    /// The `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `ORDER BY` expressions with ascending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

/// One projection-list entry.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional `AS` alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// The output alias.
        alias: Option<String>,
    },
}

/// A `FROM` clause: a table or a left-deep join tree.
#[derive(Debug, Clone, PartialEq)]
pub enum FromClause {
    /// A base table or view with an optional alias.
    Table {
        /// Relation name.
        name: String,
        /// Alias (defaults to the name).
        alias: Option<String>,
    },
    /// `left JOIN right ON condition`
    Join {
        /// Left input.
        left: Box<FromClause>,
        /// Right input.
        right: Box<FromClause>,
        /// Join condition.
        on: Expr,
    },
}

/// Binary operators, loosest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinaryOp {
    /// `true` for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::Count => write!(f, "COUNT"),
            AggFunc::Sum => write!(f, "SUM"),
            AggFunc::Min => write!(f, "MIN"),
            AggFunc::Max => write!(f, "MAX"),
            AggFunc::Avg => write!(f, "AVG"),
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, optionally qualified.
    Column {
        /// Table alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal value.
    Literal(Value),
    /// Unary application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Aggregate call; `None` argument means `COUNT(*)`.
    Agg {
        /// The function.
        func: AggFunc,
        /// The argument (`None` only for COUNT).
        arg: Option<Box<Expr>>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Expr {
    /// Fully parenthesized, so precedence never matters on re-parse.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
            },
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Agg { func, arg } => match arg {
                Some(a) => write!(f, "{func}({a})"),
                None => write!(f, "{func}(*)"),
            },
            Expr::IsNull { expr, negated } => {
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

    #[test]
    fn expr_display_is_fully_parenthesized() {
        let e = Expr::Binary {
            left: Box::new(Expr::Column {
                qualifier: Some("t".into()),
                name: "a".into(),
            }),
            op: BinaryOp::Add,
            right: Box::new(Expr::Binary {
                left: Box::new(Expr::Literal(Value::Int(2))),
                op: BinaryOp::Mul,
                right: Box::new(Expr::Column {
                    qualifier: None,
                    name: "b".into(),
                }),
            }),
        };
        assert_eq!(e.to_string(), "(t.a + (2 * b))");
    }
}
