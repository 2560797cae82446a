//! The [`Database`] facade: parse → bind → optimize → execute.

use crate::catalog::{Catalog, View};
use crate::error::{DbError, DbResult};
use crate::exec;
use crate::plan::binder::bind_select;
use crate::plan::explain::Explain;
use crate::plan::logical::LogicalPlan;
use crate::plan::optimizer::{optimize, OptimizerConfig};
use crate::schema::{Column, Schema};
use crate::sql::ast::{SelectStmt, Statement};
use crate::sql::parser::parse_statement;
use crate::storage::Table;
use crate::value::{Row, Value};

/// The result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Output rows (empty for DDL/DML).
    pub rows: Vec<Row>,
    /// Rows affected by DML (INSERT).
    pub rows_affected: u64,
}

impl QueryResult {
    fn empty() -> QueryResult {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            rows_affected: 0,
        }
    }
}

/// An in-memory relational database instance.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    config: OptimizerConfig,
}

impl Database {
    /// An empty database with default (hash-join capable) configuration.
    pub fn new() -> Database {
        Database {
            catalog: Catalog::new(),
            config: OptimizerConfig::default(),
        }
    }

    /// An empty database with explicit physical capabilities — Table 3 of
    /// the paper gives only 95 of 100 nodes hash-join support; the others
    /// run with `enable_hash_join: false` and pay merge-join costs.
    pub fn with_config(config: OptimizerConfig) -> Database {
        Database {
            catalog: Catalog::new(),
            config,
        }
    }

    /// The optimizer configuration.
    pub fn config(&self) -> OptimizerConfig {
        self.config
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Executes one SQL statement.
    pub fn execute(&mut self, sql: &str) -> DbResult<QueryResult> {
        match parse_statement(sql)? {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, ty)| Column::new(n, ty))
                        .collect(),
                );
                self.catalog.create_table(Table::new(name, schema))?;
                Ok(QueryResult::empty())
            }
            Statement::CreateView { name, select } => {
                // Validate the definition now (bind against the current
                // catalog) and store its text.
                bind_select(&select, &self.catalog)?;
                self.catalog.create_view(View {
                    name,
                    query: select.to_string(),
                })?;
                Ok(QueryResult::empty())
            }
            Statement::Insert { table, rows } => {
                let t = self
                    .catalog
                    .table_mut(&table)
                    .ok_or_else(|| DbError::catalog(format!("unknown table '{table}'")))?;
                let n = rows.len() as u64;
                for row in rows {
                    t.insert(row)?;
                }
                Ok(QueryResult {
                    columns: Vec::new(),
                    rows: Vec::new(),
                    rows_affected: n,
                })
            }
            Statement::Select(select) => self.run_select(&select),
            Statement::Explain(select) => {
                let explain = self.explain_select(&select)?;
                Ok(QueryResult {
                    columns: vec!["plan".to_string()],
                    rows: explain
                        .text
                        .lines()
                        .map(|l| vec![Value::Str(l.to_string())])
                        .collect(),
                    rows_affected: 0,
                })
            }
        }
    }

    /// Executes a SELECT without mutating the database.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        match parse_statement(sql)? {
            Statement::Select(select) => self.run_select(&select),
            _ => Err(DbError::parse("query() accepts only SELECT statements")),
        }
    }

    /// Plans a SELECT and returns the optimized logical plan.
    pub fn plan(&self, sql: &str) -> DbResult<LogicalPlan> {
        match parse_statement(sql)? {
            Statement::Select(select) | Statement::Explain(select) => {
                let bound = bind_select(&select, &self.catalog)?;
                Ok(optimize(bound, &self.catalog, self.config))
            }
            _ => Err(DbError::parse("plan() accepts only SELECT statements")),
        }
    }

    /// `EXPLAIN` for a SELECT: plan tree, estimates, fingerprint.
    pub fn explain(&self, sql: &str) -> DbResult<Explain> {
        match parse_statement(sql)? {
            Statement::Select(select) | Statement::Explain(select) => self.explain_select(&select),
            _ => Err(DbError::parse("explain() accepts only SELECT statements")),
        }
    }

    fn explain_select(&self, select: &SelectStmt) -> DbResult<Explain> {
        let bound = bind_select(select, &self.catalog)?;
        let optimized = optimize(bound, &self.catalog, self.config);
        Ok(Explain::of(&optimized, &self.catalog))
    }

    fn run_select(&self, select: &SelectStmt) -> DbResult<QueryResult> {
        let bound = bind_select(select, &self.catalog)?;
        let optimized = optimize(bound, &self.catalog, self.config);
        let columns = optimized
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let iter = exec::build(&optimized, &self.catalog)?;
        let rows = exec::collect(iter)?;
        Ok(QueryResult {
            columns,
            rows,
            rows_affected: 0,
        })
    }

    /// Bulk-loads rows into a table without going through SQL parsing —
    /// used by experiment setup to load large synthetic tables quickly.
    pub fn load_rows(&mut self, table: &str, rows: Vec<Row>) -> DbResult<u64> {
        let t = self
            .catalog
            .table_mut(table)
            .ok_or_else(|| DbError::catalog(format!("unknown table '{table}'")))?;
        let n = rows.len() as u64;
        for row in rows {
            t.insert(row)?;
        }
        Ok(n)
    }
}

/// Convenience: builds a database pre-loaded from `(ddl, rows)` pairs.
pub fn database_from(statements: &[&str]) -> DbResult<Database> {
    let mut db = Database::new();
    for s in statements {
        db.execute(s)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        database_from(&[
            "CREATE TABLE emp (id INT, dept TEXT, salary FLOAT)",
            "INSERT INTO emp VALUES \
             (1, 'eng', 100.0), (2, 'eng', 120.0), (3, 'ops', 80.0), \
             (4, 'ops', 90.0), (5, 'hr', 70.0)",
            "CREATE TABLE dept (name TEXT, budget FLOAT)",
            "INSERT INTO dept VALUES ('eng', 1000.0), ('ops', 500.0), ('hr', 200.0)",
        ])
        .unwrap()
    }

    #[test]
    fn end_to_end_select_where_order() {
        let db = sample_db();
        let r = db
            .query("SELECT id, salary FROM emp WHERE salary >= 90.0 ORDER BY salary DESC")
            .unwrap();
        assert_eq!(r.columns, vec!["id", "salary"]);
        let ids: Vec<Value> = r.rows.iter().map(|row| row[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(2), Value::Int(1), Value::Int(4)]);
    }

    #[test]
    fn end_to_end_join() {
        let db = sample_db();
        let r = db
            .query(
                "SELECT emp.id, dept.budget FROM emp JOIN dept ON emp.dept = dept.name \
                 WHERE dept.budget > 300.0 ORDER BY emp.id",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 4); // eng ×2, ops ×2
        assert_eq!(r.rows[0], vec![Value::Int(1), Value::Float(1000.0)]);
    }

    #[test]
    fn end_to_end_group_by() {
        let db = sample_db();
        let r = db
            .query(
                "SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal \
                 FROM emp GROUP BY dept ORDER BY dept",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["dept", "n", "avg_sal"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Str("eng".into()), Value::Int(2), Value::Float(110.0)],
                vec![Value::Str("hr".into()), Value::Int(1), Value::Float(70.0)],
                vec![Value::Str("ops".into()), Value::Int(2), Value::Float(85.0)],
            ]
        );
    }

    #[test]
    fn views_behave_like_tables() {
        let mut db = sample_db();
        db.execute("CREATE VIEW well_paid AS SELECT id, salary FROM emp WHERE salary > 85.0")
            .unwrap();
        let r = db
            .query("SELECT w.id FROM well_paid AS w ORDER BY w.id")
            .unwrap();
        let ids: Vec<Value> = r.rows.iter().map(|row| row[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(1), Value::Int(2), Value::Int(4)]);
    }

    #[test]
    fn view_over_view() {
        let mut db = sample_db();
        db.execute("CREATE VIEW v1 AS SELECT id, salary FROM emp WHERE salary > 75.0")
            .unwrap();
        db.execute("CREATE VIEW v2 AS SELECT id FROM v1 WHERE salary > 95.0")
            .unwrap();
        let r = db.query("SELECT * FROM v2 ORDER BY id").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn view_definition_validated_at_creation() {
        let mut db = sample_db();
        assert!(db
            .execute("CREATE VIEW bad AS SELECT zzz FROM emp")
            .is_err());
    }

    #[test]
    fn explain_statement_returns_plan_rows() {
        let mut db = sample_db();
        let r = db
            .execute("EXPLAIN SELECT * FROM emp WHERE id = 1")
            .unwrap();
        assert_eq!(r.columns, vec!["plan"]);
        assert!(!r.rows.is_empty());
        let text = r
            .rows
            .iter()
            .map(|row| row[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("Scan"));
    }

    #[test]
    fn explain_api_gives_cost_and_fingerprint() {
        let db = sample_db();
        let a = db.explain("SELECT * FROM emp WHERE id = 1").unwrap();
        let b = db.explain("SELECT * FROM emp WHERE id = 2").unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.root.cost > 0.0);
    }

    #[test]
    fn insert_reports_rows_affected() {
        let mut db = sample_db();
        let r = db
            .execute("INSERT INTO dept VALUES ('x', 1.0), ('y', 2.0)")
            .unwrap();
        assert_eq!(r.rows_affected, 2);
        assert_eq!(db.query("SELECT * FROM dept").unwrap().rows.len(), 5);
    }

    #[test]
    fn merge_join_config_produces_same_results() {
        let mut db_merge = Database::with_config(OptimizerConfig {
            enable_hash_join: false,
        });
        for s in [
            "CREATE TABLE a (k INT)",
            "INSERT INTO a VALUES (1), (2), (3)",
            "CREATE TABLE b (k INT, v TEXT)",
            "INSERT INTO b VALUES (2, 'two'), (3, 'three'), (4, 'four')",
        ] {
            db_merge.execute(s).unwrap();
        }
        let r = db_merge
            .query("SELECT a.k, b.v FROM a JOIN b ON a.k = b.k ORDER BY a.k")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(2), Value::Str("two".into())],
                vec![Value::Int(3), Value::Str("three".into())],
            ]
        );
        assert!(db_merge
            .explain("SELECT a.k FROM a JOIN b ON a.k = b.k")
            .unwrap()
            .text
            .contains("MergeJoin"));
    }

    #[test]
    fn limit_applies_after_sort() {
        let db = sample_db();
        let r = db
            .query("SELECT id FROM emp ORDER BY salary DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], vec![Value::Int(2)]);
    }

    #[test]
    fn load_rows_bulk_path() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let n = db
            .load_rows("t", (0..1_000).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        assert_eq!(n, 1_000);
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1_000));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut db = sample_db();
        assert!(db.execute("SELECT * FROM nope").is_err());
        assert!(db.execute("INSERT INTO nope VALUES (1)").is_err());
        assert!(db.execute("CREATE TABLE emp (x INT)").is_err());
        assert!(db.query("INSERT INTO emp VALUES (9, 'x', 1.0)").is_err());
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let db = sample_db();
        let r = db
            .query("SELECT COUNT(*), MIN(salary), MAX(salary) FROM emp")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(5), Value::Float(70.0), Value::Float(120.0)]]
        );
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;

    fn db() -> Database {
        database_from(&[
            "CREATE TABLE t (a INT, b TEXT)",
            "INSERT INTO t VALUES (1, 'x'), (1, 'x'), (2, 'x'), (1, 'y'), (2, 'x')",
        ])
        .unwrap()
    }

    #[test]
    fn distinct_dedupes_projected_rows() {
        let r = db().query("SELECT DISTINCT a, b FROM t").unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn distinct_single_column() {
        let r = db().query("SELECT DISTINCT b FROM t").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn distinct_preserves_order_by() {
        let r = db()
            .query("SELECT DISTINCT a FROM t ORDER BY a DESC")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
    }

    #[test]
    fn distinct_with_limit() {
        let r = db()
            .query("SELECT DISTINCT a, b FROM t ORDER BY a, b LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], vec![Value::Int(1), Value::Str("x".into())]);
    }

    #[test]
    fn distinct_with_group_by_rejected() {
        assert!(db()
            .query("SELECT DISTINCT a, COUNT(*) FROM t GROUP BY a")
            .is_err());
    }

    #[test]
    fn distinct_round_trips_through_printer() {
        use crate::sql::ast::Statement;
        use crate::sql::parser::parse_statement;
        let sql = "SELECT DISTINCT a FROM t WHERE (a > 0) ORDER BY a ASC";
        let Statement::Select(ast) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(ast.distinct);
        let reparsed = parse_statement(&ast.to_string()).unwrap();
        assert_eq!(Statement::Select(ast), reparsed);
    }
}
