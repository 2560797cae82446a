//! # qa-minidb — a from-scratch in-memory relational DBMS
//!
//! The real-deployment experiment of *Autonomic Query Allocation based on
//! Microeconomics Principles* (§5.2) runs QA-NT on five PCs hosting "the
//! latest version of a leading commercial RDBMS", estimating query costs
//! with `EXPLAIN PLAN` corrected by past-execution history. This crate is
//! the open substitute for that RDBMS: a small but real relational engine
//! that parses SQL, plans it with a cost-based optimizer, explains plans
//! with cost estimates, and executes them over in-memory tables — the two
//! things the deployment asks of it.
//!
//! The engine supports exactly the workload shape the paper uses —
//! read-only select-join-project-sort(-group) queries (§2.1) over base
//! tables and select-project views — plus the DDL/DML needed to set an
//! experiment up:
//!
//! * `CREATE TABLE` / `CREATE VIEW` / `INSERT` / `SELECT`
//! * one materializing executor: scans, filters, projections, one hash
//!   join (a join without equi keys is its one-bucket case, which
//!   `EXPLAIN` names `NestedLoopJoin` and costs as one), sorts, hash
//!   aggregation (`COUNT/SUM/MIN/MAX/AVG`, `GROUP BY`), `LIMIT`
//! * [`Database::explain`] with estimated cardinalities and cost, and a
//!   stable *plan fingerprint* that `qa-cluster` keys its
//!   execution-history estimator on (the paper's "past execution
//!   information concerning queries with the same plan").
//!
//! Entry point: [`Database`].
//!
//! ```
//! use qa_minidb::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE emp (id INT, dept TEXT, salary FLOAT)").unwrap();
//! db.execute("INSERT INTO emp VALUES (1, 'eng', 100.0), (2, 'ops', 80.0)").unwrap();
//! let result = db
//!     .execute("SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 2);
//! ```

pub(crate) mod catalog;
pub(crate) mod engine;
pub(crate) mod error;
pub mod exec;
pub mod expr;
pub(crate) mod plan;
pub(crate) mod schema;
pub mod sql;
pub(crate) mod storage;
pub mod value;

pub use engine::Database;
pub use error::DbError;
pub use plan::explain::Explain;
pub use value::Value;
