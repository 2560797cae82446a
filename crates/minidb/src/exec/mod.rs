//! Execution: pull-based row iterators over the logical plan.
//!
//! The executor interprets the optimized [`LogicalPlan`] directly — each
//! node becomes a [`RowIter`]. Scans borrow table rows from the catalog
//! (no copies); blocking operators (sort, hash build, aggregation,
//! merge-join) materialize lazily on first pull.

pub mod aggregate;
pub mod basic;
pub mod join;

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::plan::logical::{JoinStrategy, LogicalPlan};
use crate::value::Row;

/// A pull-based row stream.
pub trait RowIter {
    /// The next row, or `None` when exhausted.
    fn next_row(&mut self) -> DbResult<Option<Row>>;
}

/// A boxed row stream borrowing from the catalog.
pub type BoxIter<'a> = Box<dyn RowIter + 'a>;

/// Builds an executor tree for a plan.
pub fn build<'a>(plan: &LogicalPlan, catalog: &'a Catalog) -> DbResult<BoxIter<'a>> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            let t = catalog
                .table(table)
                .ok_or_else(|| DbError::catalog(format!("table '{table}' vanished")))?;
            Ok(Box::new(basic::Scan::new(t.rows())))
        }
        LogicalPlan::Filter { input, predicate } => Ok(Box::new(basic::Filter::new(
            build(input, catalog)?,
            predicate.clone(),
        ))),
        LogicalPlan::Project { input, exprs, .. } => Ok(Box::new(basic::Project::new(
            build(input, catalog)?,
            exprs.clone(),
        ))),
        LogicalPlan::Join {
            left,
            right,
            equi,
            residual,
            strategy,
            ..
        } => {
            let l = build(left, catalog)?;
            let r = build(right, catalog)?;
            match strategy {
                JoinStrategy::Hash => Ok(Box::new(join::HashJoin::new(
                    l,
                    r,
                    equi.clone(),
                    residual.clone(),
                    left.schema().len(),
                ))),
                JoinStrategy::Merge => Ok(Box::new(join::MergeJoin::new(
                    l,
                    r,
                    equi.clone(),
                    residual.clone(),
                ))),
                JoinStrategy::NestedLoop => Ok(Box::new(join::NestedLoopJoin::new(
                    l,
                    r,
                    equi.clone(),
                    residual.clone(),
                    left.schema().len(),
                ))),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => Ok(Box::new(aggregate::HashAggregate::new(
            build(input, catalog)?,
            group_by.clone(),
            aggs.clone(),
        ))),
        LogicalPlan::Sort { input, keys } => Ok(Box::new(basic::Sort::new(
            build(input, catalog)?,
            keys.clone(),
        ))),
        LogicalPlan::Limit { input, n } => {
            Ok(Box::new(basic::Limit::new(build(input, catalog)?, *n)))
        }
    }
}

/// Drains an executor into a row vector.
pub fn collect(mut iter: BoxIter<'_>) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(row) = iter.next_row()? {
        out.push(row);
    }
    Ok(out)
}
