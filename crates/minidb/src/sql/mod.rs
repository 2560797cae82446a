//! SQL front-end: lexer, AST and parser.
//!
//! Covers the dialect subset the paper's workload needs (§2.1 read-only
//! select-join-project-sort queries, plus the DDL/DML to set experiments
//! up):
//!
//! ```sql
//! CREATE TABLE t (a INT, b FLOAT, c TEXT);
//! CREATE VIEW v AS SELECT a, b FROM t WHERE a > 0;
//! INSERT INTO t VALUES (1, 2.0, 'x'), (2, 3.5, 'y');
//! SELECT t.a, SUM(u.b) FROM t JOIN u ON t.a = u.a
//!   WHERE u.b >= 10 AND c <> 'z'
//!   GROUP BY t.a ORDER BY t.a DESC LIMIT 5;
//! ```

pub mod ast;
pub mod parser;
pub mod token;

pub use ast::{AggFunc, BinaryOp, Expr, FromClause, SelectItem, SelectStmt, Statement, UnaryOp};
pub use parser::parse_statement;
pub use token::{tokenize, Token};
