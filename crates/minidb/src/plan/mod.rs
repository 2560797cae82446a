//! Planning: logical plans, binding, optimization, costing, EXPLAIN.
//!
//! Pipeline: `ast::SelectStmt` → `binder::bind_select` → `LogicalPlan`
//! → `optimizer::optimize` → costed/explained ([`cost`], [`explain`]) →
//! executed (`crate::exec`).

pub(crate) mod binder;
pub(crate) mod cost;
pub(crate) mod explain;
pub(crate) mod logical;
pub(crate) mod optimizer;
