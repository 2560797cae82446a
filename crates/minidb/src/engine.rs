//! The [`Database`] facade: parse → bind → optimize → execute.

use crate::catalog::{Catalog, View};
use crate::error::{DbError, DbResult};
use crate::exec;
use crate::plan::binder::bind_select;
use crate::plan::explain::Explain;
use crate::plan::logical::LogicalPlan;
use crate::plan::optimizer::optimize;
use crate::schema::{Column, Schema};
use crate::sql::ast::{SelectStmt, Statement};
use crate::sql::parser::parse_statement;
use crate::storage::Table;
use crate::value::Row;

/// The result of executing a statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Output rows (empty for DDL/DML).
    pub rows: Vec<Row>,
    /// Rows affected by DML (INSERT).
    pub(crate) rows_affected: u64,
}

/// An in-memory relational database instance.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
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
                Ok(QueryResult::default())
            }
            Statement::CreateView { name, select } => {
                // Validate the definition now (bind against the current
                // catalog) and store it parsed.
                bind_select(&select, &self.catalog)?;
                self.catalog.create_view(View { name, select })?;
                Ok(QueryResult::default())
            }
            Statement::Insert { table, rows } => Ok(QueryResult {
                rows_affected: self.load_rows(&table, rows)?,
                ..QueryResult::default()
            }),
            Statement::Select(select) => self.run_select(&select),
        }
    }

    /// Executes a SELECT without mutating the database.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        match parse_statement(sql)? {
            Statement::Select(select) => self.run_select(&select),
            _ => Err(DbError::parse("query() accepts only SELECT statements")),
        }
    }

    /// `EXPLAIN` for a SELECT: plan tree, estimates, fingerprint.
    pub fn explain(&self, sql: &str) -> DbResult<Explain> {
        match parse_statement(sql)? {
            Statement::Select(select) => Ok(Explain::of(&self.optimized(&select)?, &self.catalog)),
            _ => Err(DbError::parse("explain() accepts only SELECT statements")),
        }
    }

    fn optimized(&self, select: &SelectStmt) -> DbResult<LogicalPlan> {
        Ok(optimize(bind_select(select, &self.catalog)?, &self.catalog))
    }

    fn run_select(&self, select: &SelectStmt) -> DbResult<QueryResult> {
        let plan = self.optimized(select)?;
        let columns = plan
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        Ok(QueryResult {
            columns,
            rows: exec::run(&plan, &self.catalog)?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_db() -> Database {
        let mut db = Database::new();
        for sql in [
            "CREATE TABLE emp (id INT, dept TEXT, salary FLOAT)",
            "INSERT INTO emp VALUES \
             (1, 'eng', 100.0), (2, 'eng', 120.0), (3, 'ops', 80.0), \
             (4, 'ops', 90.0), (5, 'hr', 70.0)",
            "CREATE TABLE dept (name TEXT, budget FLOAT)",
            "INSERT INTO dept VALUES ('eng', 1000.0), ('ops', 500.0), ('hr', 200.0)",
        ] {
            db.execute(sql).unwrap();
        }
        db
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
    fn views_keep_their_literals() {
        // Stored parsed, not printed: the quote inside the string literal
        // survives to the binder.
        let mut db = sample_db();
        db.execute(
            "CREATE VIEW odd AS SELECT id FROM emp WHERE dept <> 'it''s' AND salary > 100.0",
        )
        .unwrap();
        let r = db.query("SELECT id FROM odd").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn view_definition_validated_at_creation() {
        let mut db = sample_db();
        assert!(db
            .execute("CREATE VIEW bad AS SELECT zzz FROM emp")
            .is_err());
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
