//! Rule-based optimizer.
//!
//! Three rewrites, applied in order:
//!
//! 1. **Predicate pushdown** — conjuncts of a `Filter` sitting above a join
//!    move into the side they reference; filters above projections stay put
//!    (projections here are always top-of-plan).
//! 2. **Join strategy selection** — equi joins use hash join when the
//!    engine allows it (Table 3: only 95 of 100 simulated nodes have
//!    hash-join capability), falling back to sort-merge; joins without equi
//!    keys use nested loops.
//! 3. **Build-side ordering** — for hash joins, the smaller estimated input
//!    becomes the right (build) side.

use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::plan::binder::flatten_and;
use crate::plan::cost::estimate;
use crate::plan::logical::{JoinStrategy, LogicalPlan};
use crate::sql::ast::BinaryOp;

/// Engine-level physical capabilities (per-node heterogeneity knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Whether hash join is available (all nodes can merge-scan, only some
    /// can hash-join — Table 3).
    pub enable_hash_join: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            enable_hash_join: true,
        }
    }
}

/// Optimizes a bound plan.
pub fn optimize(plan: LogicalPlan, catalog: &Catalog, config: OptimizerConfig) -> LogicalPlan {
    let plan = push_down_filters(plan);
    choose_join_strategies(plan, catalog, config)
}

/// Recursively pushes filter conjuncts toward the scans.
fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_down_filters(*input);
            push_predicate(input, predicate)
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(push_down_filters(*input)),
            exprs,
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            equi,
            residual,
            strategy,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(push_down_filters(*left)),
            right: Box::new(push_down_filters(*right)),
            equi,
            residual,
            strategy,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(push_down_filters(*input)),
            group_by,
            aggs,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(push_down_filters(*input)),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(push_down_filters(*input)),
            n,
        },
        leaf @ LogicalPlan::Scan { .. } => leaf,
    }
}

/// Pushes one predicate into `input` as deep as possible.
fn push_predicate(input: LogicalPlan, predicate: BoundExpr) -> LogicalPlan {
    match input {
        LogicalPlan::Join {
            left,
            right,
            equi,
            residual,
            strategy,
            schema,
        } => {
            let left_len = left.schema().len();
            let mut conjuncts = Vec::new();
            flatten_and(predicate, &mut conjuncts);
            let mut left_plan = *left;
            let mut right_plan = *right;
            let mut stay: Option<BoundExpr> = None;
            for c in conjuncts {
                let mut cols = Vec::new();
                c.referenced_columns(&mut cols);
                let all_left = cols.iter().all(|&i| i < left_len);
                let all_right = cols.iter().all(|&i| i >= left_len);
                if all_left && !cols.is_empty() {
                    left_plan = push_predicate(left_plan, c);
                } else if all_right && !cols.is_empty() {
                    let shifted = c.remap_columns(&|i| i - left_len);
                    right_plan = push_predicate(right_plan, shifted);
                } else {
                    stay = Some(and_combine(stay, c));
                }
            }
            let joined = LogicalPlan::Join {
                left: Box::new(left_plan),
                right: Box::new(right_plan),
                equi,
                residual,
                strategy,
                schema,
            };
            match stay {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(joined),
                    predicate: p,
                },
                None => joined,
            }
        }
        LogicalPlan::Filter {
            input,
            predicate: inner,
        } => {
            // Merge adjacent filters, keep pushing.
            push_predicate(*input, and_combine(Some(inner), predicate))
        }
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

fn and_combine(acc: Option<BoundExpr>, next: BoundExpr) -> BoundExpr {
    match acc {
        None => next,
        Some(prev) => BoundExpr::Binary {
            left: Box::new(prev),
            op: BinaryOp::And,
            right: Box::new(next),
        },
    }
}

/// Picks join algorithms and build sides bottom-up.
fn choose_join_strategies(
    plan: LogicalPlan,
    catalog: &Catalog,
    config: OptimizerConfig,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            mut equi,
            residual,
            schema,
            ..
        } => {
            let mut left = choose_join_strategies(*left, catalog, config);
            let mut right = choose_join_strategies(*right, catalog, config);
            let strategy = if equi.is_empty() {
                JoinStrategy::NestedLoop
            } else if config.enable_hash_join {
                JoinStrategy::Hash
            } else {
                JoinStrategy::Merge
            };
            let mut residual = residual;
            if strategy == JoinStrategy::Hash {
                // Put the smaller estimated input on the right (build side).
                let le = estimate(&left, catalog);
                let re = estimate(&right, catalog);
                if le.rows < re.rows {
                    let left_len = left.schema().len();
                    let right_len = right.schema().len();
                    std::mem::swap(&mut left, &mut right);
                    equi = equi.into_iter().map(|(l, r)| (r, l)).collect();
                    // The output schema column order is defined by the
                    // original query; re-map it with a projection-free
                    // trick: swap sides and fix column order with a
                    // remapping of the residual plus a Project above.
                    // To keep plans simple we instead keep the schema in
                    // new (right ++ left) order and add a Project restoring
                    // the original order.
                    let new_schema = left.schema().join(right.schema());
                    residual = residual.map(|r| {
                        r.remap_columns(&|i| {
                            if i < left_len {
                                // old-left column now lives after new-left
                                // (= old right) block
                                i + right_len
                            } else {
                                i - left_len
                            }
                        })
                    });
                    let exprs: Vec<BoundExpr> = (0..schema.len())
                        .map(|i| {
                            // Original order: old-left block then old-right.
                            let src = if i < left_len {
                                i + right_len
                            } else {
                                i - left_len
                            };
                            let col = new_schema.column(src);
                            BoundExpr::Column {
                                index: src,
                                ty: col.ty,
                                name: col.name.clone(),
                            }
                        })
                        .collect();
                    let join = LogicalPlan::Join {
                        left: Box::new(left),
                        right: Box::new(right),
                        equi,
                        residual,
                        strategy,
                        schema: new_schema,
                    };
                    return LogicalPlan::Project {
                        input: Box::new(join),
                        exprs,
                        schema,
                    };
                }
            }
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                equi,
                residual,
                strategy,
                schema,
            }
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(choose_join_strategies(*input, catalog, config)),
            predicate,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(choose_join_strategies(*input, catalog, config)),
            exprs,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(choose_join_strategies(*input, catalog, config)),
            group_by,
            aggs,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(choose_join_strategies(*input, catalog, config)),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(choose_join_strategies(*input, catalog, config)),
            n,
        },
        leaf @ LogicalPlan::Scan { .. } => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::binder::bind_select;
    use crate::schema::{Column, Schema};
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse_statement;
    use crate::storage::Table;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut big = Table::new(
            "big",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("k", DataType::Int),
            ]),
        );
        for i in 0..1_000 {
            big.insert(vec![Value::Int(i), Value::Int(i % 7)]).unwrap();
        }
        c.create_table(big).unwrap();
        let mut small = Table::new("small", Schema::new(vec![Column::new("k", DataType::Int)]));
        for i in 0..7 {
            small.insert(vec![Value::Int(i)]).unwrap();
        }
        c.create_table(small).unwrap();
        c
    }

    fn optimized(sql: &str, cfg: OptimizerConfig) -> LogicalPlan {
        let c = catalog();
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => optimize(bind_select(&s, &c).unwrap(), &c, cfg),
            _ => unreachable!(),
        }
    }

    fn render(p: &LogicalPlan) -> String {
        p.to_string()
    }

    #[test]
    fn filter_pushes_below_join() {
        let p = optimized(
            "SELECT * FROM big JOIN small ON big.k = small.k WHERE big.id < 10",
            OptimizerConfig::default(),
        );
        let text = render(&p);
        // The filter must appear below the join in the tree: the join line
        // comes before the filter line.
        let join_pos = text.find("Join").expect("join in plan");
        let filter_pos = text.find("Filter").expect("filter in plan");
        assert!(
            filter_pos > join_pos,
            "filter should be under the join:\n{text}"
        );
    }

    #[test]
    fn small_side_becomes_build_side() {
        let p = optimized(
            "SELECT * FROM big JOIN small ON big.k = small.k",
            OptimizerConfig::default(),
        );
        let text = render(&p);
        // After the swap, `small` must be the right (build) child, i.e. the
        // second scan listed under the join.
        let big_pos = text.find("Scan [big").expect("big scan");
        let small_pos = text.find("Scan [small").expect("small scan");
        assert!(
            big_pos < small_pos,
            "big should be probe (left), small build (right):\n{text}"
        );
        assert!(text.contains("HashJoin"));
    }

    #[test]
    fn hash_disabled_falls_back_to_merge() {
        let p = optimized(
            "SELECT * FROM big JOIN small ON big.k = small.k",
            OptimizerConfig {
                enable_hash_join: false,
            },
        );
        assert!(render(&p).contains("MergeJoin"));
    }

    #[test]
    fn no_equi_keys_uses_nested_loop() {
        let p = optimized(
            "SELECT * FROM big JOIN small ON big.k < small.k",
            OptimizerConfig::default(),
        );
        assert!(render(&p).contains("NestedLoopJoin"));
    }

    #[test]
    fn cross_side_predicate_stays_above_join() {
        let p = optimized(
            "SELECT * FROM big JOIN small ON big.k = small.k WHERE big.id + small.k > 3",
            OptimizerConfig::default(),
        );
        let text = render(&p);
        let join_pos = text.find("Join").unwrap();
        let filter_pos = text.find("Filter").unwrap();
        assert!(filter_pos < join_pos, "mixed filter stays above:\n{text}");
    }

    #[test]
    fn schema_is_preserved_by_optimization() {
        let c = catalog();
        let sql = "SELECT big.id, small.k FROM big JOIN small ON big.k = small.k WHERE big.id < 10";
        let bound = match parse_statement(sql).unwrap() {
            Statement::Select(s) => bind_select(&s, &c).unwrap(),
            _ => unreachable!(),
        };
        let before = bound.schema().clone();
        let after = optimize(bound, &c, OptimizerConfig::default());
        assert_eq!(&before, after.schema());
    }
}
