//! Execution: a materializing interpreter over the logical plan.
//!
//! [`run`] evaluates the optimized [`LogicalPlan`] bottom-up, one function
//! per operator, each taking its input's rows and returning its own. Row
//! order is fixed by construction: filters and projections keep input
//! order, the hash join emits probe rows in order with each one's matches
//! in build order, groups come out in first-seen order and the sort is
//! stable.
//!
//! Every operator runs over all of its input, `LIMIT` included: it
//! truncates a finished result. So an evaluation error (a division by zero,
//! an overflow) in a row past the limit fails the query, where a pull
//! pipeline stopped before reading that row.

pub mod aggregate;
pub mod basic;
pub mod join;

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::plan::logical::LogicalPlan;
use crate::value::Row;

/// Executes a plan against the catalog, returning its rows.
pub fn run(plan: &LogicalPlan, catalog: &Catalog) -> DbResult<Vec<Row>> {
    match plan {
        LogicalPlan::Scan { table, .. } => catalog
            .table(table)
            .map(|t| t.rows().to_vec())
            .ok_or_else(|| DbError::catalog(format!("table '{table}' vanished"))),
        LogicalPlan::Filter { input, predicate } => basic::filter(run(input, catalog)?, predicate),
        LogicalPlan::Project { input, exprs, .. } => basic::project(&run(input, catalog)?, exprs),
        LogicalPlan::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => join::hash_join(
            &run(left, catalog)?,
            &run(right, catalog)?,
            equi,
            residual.as_ref(),
        ),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => aggregate::hash_aggregate(&run(input, catalog)?, group_by, aggs),
        LogicalPlan::Sort { input, keys } => basic::sort(run(input, catalog)?, keys),
        LogicalPlan::Limit { input, n } => {
            let mut rows = run(input, catalog)?;
            rows.truncate(usize::try_from(*n).unwrap_or(usize::MAX));
            Ok(rows)
        }
    }
}
