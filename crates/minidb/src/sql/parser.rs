//! Recursive-descent parser with operator precedence.
//!
//! Precedence (loosest to tightest): `OR`, `AND`, `NOT`, comparisons /
//! `IS [NOT] NULL`, `+ -`, `* /`, unary `-`, primaries.

use super::ast::{AggFunc, BinaryOp, Expr, FromClause, SelectItem, SelectStmt, Statement, UnaryOp};
use super::token::{tokenize, Token};
use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};

/// How deep a statement may nest. Each parenthesis, `NOT`, unary minus and
/// aggregate call opens a level, and so does each further operator of a
/// chain (`a + b + c` is a tree two deep) and each `JOIN`. The parser,
/// binder, planner, evaluator and drop glue all recurse over these trees,
/// and a `qad` node parses SQL straight off the wire on its own thread:
/// past this bound a statement is a parse error, not a stack overflow. The
/// deployment's statements nest fewer than 5 levels.
const MAX_DEPTH: usize = 32;

/// Parses a single SQL statement (an optional trailing `;` is allowed).
pub(crate) fn parse_statement(input: &str) -> DbResult<Statement> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_symbol(";"); // optional
    if !p.at_end() {
        return Err(DbError::parse(format!(
            "unexpected trailing input at '{}'",
            p.peek_desc()
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels currently open (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    /// Opens one level of nesting; the caller closes it by lowering
    /// `depth` once the nested part is parsed. An error aborts the whole
    /// parse, so the count needs no unwinding.
    fn descend(&mut self) -> DbResult<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(DbError::parse(format!(
                "statement nests deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        self.peek().map_or("end of input".into(), |t| t.to_string())
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(DbError::parse(format!(
                "expected {kw}, found '{}'",
                self.peek_desc()
            )))
        }
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(sym)) if *sym == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> DbResult<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(DbError::parse(format!(
                "expected '{s}', found '{}'",
                self.peek_desc()
            )))
        }
    }

    fn expect_ident(&mut self) -> DbResult<String> {
        match self.advance() {
            Some(Token::Ident(i)) => Ok(i),
            other => Err(DbError::parse(format!(
                "expected identifier, found '{}'",
                other.map_or("end of input".into(), |t| t.to_string())
            ))),
        }
    }

    fn statement(&mut self) -> DbResult<Statement> {
        if self.eat_keyword("CREATE") {
            if self.eat_keyword("TABLE") {
                return self.create_table();
            }
            if self.eat_keyword("VIEW") {
                return self.create_view();
            }
            return Err(DbError::parse("expected TABLE or VIEW after CREATE"));
        }
        if self.eat_keyword("INSERT") {
            return self.insert();
        }
        if self.eat_keyword("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        Err(DbError::parse(format!(
            "expected a statement, found '{}'",
            self.peek_desc()
        )))
    }

    fn data_type(&mut self) -> DbResult<DataType> {
        match self.advance() {
            Some(Token::Keyword(k)) if k == "INT" => Ok(DataType::Int),
            Some(Token::Keyword(k)) if k == "FLOAT" => Ok(DataType::Float),
            Some(Token::Keyword(k)) if k == "TEXT" => Ok(DataType::Text),
            other => Err(DbError::parse(format!(
                "expected a type (INT/FLOAT/TEXT), found '{}'",
                other.map_or("end of input".into(), |t| t.to_string())
            ))),
        }
    }

    fn create_table(&mut self) -> DbResult<Statement> {
        let name = self.expect_ident()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident()?;
            let ty = self.data_type()?;
            columns.push((col, ty));
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_view(&mut self) -> DbResult<Statement> {
        let name = self.expect_ident()?;
        self.expect_keyword("AS")?;
        self.expect_keyword("SELECT")?;
        Ok(Statement::CreateView {
            name,
            select: self.select()?,
        })
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_keyword("INTO")?;
        let table = self.expect_ident()?;
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal_value()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            rows.push(row);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn literal_value(&mut self) -> DbResult<Value> {
        let negative = self.eat_symbol("-");
        match self.advance() {
            Some(Token::Int(i)) => Ok(Value::Int(if negative { -i } else { i })),
            Some(Token::Float(f)) => Ok(Value::Float(if negative { -f } else { f })),
            Some(Token::Str(s)) if !negative => Ok(Value::Str(s)),
            Some(Token::Keyword(k)) if k == "NULL" && !negative => Ok(Value::Null),
            other => Err(DbError::parse(format!(
                "expected a literal, found '{}'",
                other.map_or("end of input".into(), |t| t.to_string())
            ))),
        }
    }

    /// Parses the body of a SELECT (the keyword is already consumed).
    fn select(&mut self) -> DbResult<SelectStmt> {
        let mut projections = Vec::new();
        loop {
            if self.eat_symbol("*") {
                projections.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                projections.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        let from = if self.eat_keyword("FROM") {
            Some(self.parse_from_clause()?)
        } else {
            None
        };
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_keyword("DESC") {
                    false
                } else {
                    self.eat_keyword("ASC");
                    true
                };
                order_by.push((e, asc));
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => {
                    return Err(DbError::parse(format!(
                        "expected a non-negative LIMIT count, found '{}'",
                        other.map_or("end of input".into(), |t| t.to_string())
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            projections,
            from,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn parse_from_clause(&mut self) -> DbResult<FromClause> {
        let outer = self.depth;
        let mut left = self.table_ref()?;
        while self.eat_keyword("JOIN") {
            self.descend()?;
            let right = self.table_ref()?;
            self.expect_keyword("ON")?;
            let on = self.expr()?;
            left = FromClause::Join {
                left: Box::new(left),
                right: Box::new(right),
                on,
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn table_ref(&mut self) -> DbResult<FromClause> {
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else if let Some(Token::Ident(_)) = self.peek() {
            // Bare alias: FROM emp e
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(FromClause::Table { name, alias })
    }

    // ----- expressions, by descending precedence -----

    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let outer = self.depth;
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            self.descend()?;
            let right = self.and_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let outer = self.depth;
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            self.descend()?;
            let right = self.not_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_keyword("NOT") {
            self.descend()?;
            let inner = self.not_expr()?;
            self.depth -= 1;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> DbResult<Expr> {
        let left = self.additive()?;
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let op = match self.peek() {
            Some(Token::Symbol("=")) => Some(BinaryOp::Eq),
            Some(Token::Symbol("<>")) => Some(BinaryOp::NotEq),
            Some(Token::Symbol("<")) => Some(BinaryOp::Lt),
            Some(Token::Symbol("<=")) => Some(BinaryOp::LtEq),
            Some(Token::Symbol(">")) => Some(BinaryOp::Gt),
            Some(Token::Symbol(">=")) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> DbResult<Expr> {
        let outer = self.depth;
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol("+")) => BinaryOp::Add,
                Some(Token::Symbol("-")) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.descend()?;
            let right = self.multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn multiplicative(&mut self) -> DbResult<Expr> {
        let outer = self.depth;
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol("*")) => BinaryOp::Mul,
                Some(Token::Symbol("/")) => BinaryOp::Div,
                _ => break,
            };
            self.pos += 1;
            self.descend()?;
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn unary(&mut self) -> DbResult<Expr> {
        if self.eat_symbol("-") {
            self.descend()?;
            let inner = self.unary()?;
            self.depth -= 1;
            // Fold negation into numeric literals for cleaner ASTs.
            if let Expr::Literal(Value::Int(i)) = inner {
                return Ok(Expr::Literal(Value::Int(-i)));
            }
            if let Expr::Literal(Value::Float(f)) = inner {
                return Ok(Expr::Literal(Value::Float(-f)));
            }
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn agg_func(kw: &str) -> Option<AggFunc> {
        match kw {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    fn primary(&mut self) -> DbResult<Expr> {
        match self.advance() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::Keyword(k)) if k == "NULL" => Ok(Expr::Literal(Value::Null)),
            Some(Token::Keyword(k)) if Self::agg_func(&k).is_some() => {
                let func = Self::agg_func(&k).expect("checked");
                self.expect_symbol("(")?;
                let arg = if self.eat_symbol("*") {
                    if func != AggFunc::Count {
                        return Err(DbError::parse(format!("{func}(*) is not valid")));
                    }
                    None
                } else {
                    self.descend()?;
                    let arg = self.expr()?;
                    self.depth -= 1;
                    Some(Box::new(arg))
                };
                self.expect_symbol(")")?;
                Ok(Expr::Agg { func, arg })
            }
            Some(Token::Symbol("(")) => {
                self.descend()?;
                let e = self.expr()?;
                self.depth -= 1;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Some(Token::Ident(first)) => {
                if self.eat_symbol(".") {
                    let name = self.expect_ident()?;
                    Ok(Expr::Column {
                        qualifier: Some(first),
                        name,
                    })
                } else {
                    Ok(Expr::Column {
                        qualifier: None,
                        name: first,
                    })
                }
            }
            other => Err(DbError::parse(format!(
                "expected an expression, found '{}'",
                other.map_or("end of input".into(), |t| t.to_string())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parse_create_table() {
        let s = parse_statement("CREATE TABLE t (a INT, b FLOAT, c TEXT);").unwrap();
        assert_eq!(
            s,
            Statement::CreateTable {
                name: "t".into(),
                columns: vec![
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Float),
                    ("c".into(), DataType::Text),
                ],
            }
        );
    }

    #[test]
    fn parse_insert_multi_row_with_negatives_and_null() {
        let s = parse_statement("INSERT INTO t VALUES (1, -2.5, 'x'), (-3, NULL, 'y''z')").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(
                    rows[0],
                    vec![Value::Int(1), Value::Float(-2.5), Value::Str("x".into())]
                );
                assert_eq!(
                    rows[1],
                    vec![Value::Int(-3), Value::Null, Value::Str("y'z".into())]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_simple_select() {
        let s = sel("SELECT * FROM t");
        assert_eq!(s.projections, vec![SelectItem::Star]);
        assert_eq!(
            s.from,
            Some(FromClause::Table {
                name: "t".into(),
                alias: None
            })
        );
    }

    #[test]
    fn parse_join_chain_is_left_deep() {
        let s = sel("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y");
        match s.from.unwrap() {
            FromClause::Join { left, right, .. } => {
                assert!(matches!(*left, FromClause::Join { .. }));
                assert!(matches!(
                    *right,
                    FromClause::Table { ref name, .. } if name == "c"
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_aliases() {
        let s = sel("SELECT e.id AS emp_id FROM emp AS e JOIN dept d ON e.d = d.id");
        match &s.projections[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("emp_id")),
            other => panic!("{other:?}"),
        }
        match s.from.unwrap() {
            FromClause::Join { left, right, .. } => {
                assert!(
                    matches!(*left, FromClause::Table { ref alias, .. } if alias.as_deref() == Some("e"))
                );
                assert!(
                    matches!(*right, FromClause::Table { ref alias, .. } if alias.as_deref() == Some("d"))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        let w = s.where_clause.unwrap();
        assert_eq!(w.to_string(), "((a = 1) OR ((b = 2) AND (c = 3)))");
    }

    #[test]
    fn precedence_arithmetic() {
        let s = sel("SELECT a + b * 2 - c / 4 FROM t");
        match &s.projections[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "((a + (b * 2)) - (c / 4))");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_group_order_limit() {
        let s = sel(
            "SELECT dept, COUNT(*), AVG(salary) FROM emp WHERE salary > 0 \
             GROUP BY dept ORDER BY dept ASC, COUNT(*) DESC LIMIT 3",
        );
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].1);
        assert!(!s.order_by[1].1);
        assert_eq!(s.limit, Some(3));
    }

    #[test]
    fn parse_is_null_and_not() {
        let s = sel("SELECT * FROM t WHERE a IS NULL AND NOT b IS NOT NULL");
        assert_eq!(
            s.where_clause.unwrap().to_string(),
            "((a IS NULL) AND (NOT (b IS NOT NULL)))"
        );
    }

    #[test]
    fn parse_view() {
        assert!(matches!(
            parse_statement("CREATE VIEW v AS SELECT a FROM t WHERE a > 1").unwrap(),
            Statement::CreateView { name, .. } if name == "v"
        ));
    }

    #[test]
    fn count_star_only_for_count() {
        assert!(parse_statement("SELECT SUM(*) FROM t").is_err());
        assert!(parse_statement("SELECT COUNT(*) FROM t").is_ok());
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELEC * FROM t").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE").is_err());
        assert!(parse_statement("SELECT * FROM t extra garbage").is_err());
        assert!(parse_statement("SELECT * FROM t LIMIT -1").is_err());
        // Neither is part of the dialect.
        assert!(parse_statement("EXPLAIN SELECT * FROM t").is_err());
        assert!(parse_statement("SELECT DISTINCT a FROM t").is_err());
    }

    /// The three shapes that overflowed a default-sized thread stack —
    /// parentheses, an operator chain, joins — parse at the bound, and one
    /// level past it or at about 1 MiB they are a typed parse error on a
    /// thread with the default stack.
    #[test]
    fn nesting_is_bounded() {
        // Each shape nested n levels deep.
        let shapes: [fn(usize) -> String; 3] = [
            |n| format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n)),
            |n| format!("SELECT a{} FROM t", " + a".repeat(n)),
            |n| format!("SELECT * FROM t{}", " JOIN t AS x ON 1 = 1".repeat(n)),
        ];
        for shape in shapes {
            assert!(parse_statement(&shape(MAX_DEPTH)).is_ok());
            let bytes_per_level = shape(1).len() - shape(0).len();
            for n in [MAX_DEPTH + 1, (1 << 20) / bytes_per_level] {
                let sql = shape(n);
                let outcome = std::thread::spawn(move || parse_statement(&sql))
                    .join()
                    .expect("the parser returns");
                assert!(
                    matches!(&outcome, Err(DbError::Parse(m)) if m.contains("deeper than")),
                    "{n} levels: {:?}",
                    outcome.err()
                );
            }
        }
    }
}
