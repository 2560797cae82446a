//! Rule-based optimizer.
//!
//! Two rewrites, applied in order:
//!
//! 1. **Predicate pushdown** — conjuncts of a `Filter` sitting above a join
//!    move into the side they reference; filters above projections stay put
//!    (projections here are always top-of-plan).
//! 2. **Build-side ordering** — for joins with equi keys, the smaller
//!    estimated input becomes the right (build) side of the hash join.
//!    A key-less join keeps its order: it compares every pair either way.

use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::plan::binder::flatten_and;
use crate::plan::cost::estimate;
use crate::plan::logical::LogicalPlan;
use crate::sql::ast::BinaryOp;

/// Optimizes a bound plan.
pub fn optimize(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    choose_build_sides(push_down_filters(plan), catalog)
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
            schema,
        } => LogicalPlan::Join {
            left: Box::new(push_down_filters(*left)),
            right: Box::new(push_down_filters(*right)),
            equi,
            residual,
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

/// Puts the smaller estimated input of each equi join on the build side,
/// bottom-up.
fn choose_build_sides(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            mut equi,
            mut residual,
            schema,
        } => {
            let mut left = choose_build_sides(*left, catalog);
            let mut right = choose_build_sides(*right, catalog);
            if !equi.is_empty() && estimate(&left, catalog).rows < estimate(&right, catalog).rows {
                let left_len = left.schema().len();
                let right_len = right.schema().len();
                std::mem::swap(&mut left, &mut right);
                equi = equi.into_iter().map(|(l, r)| (r, l)).collect();
                // The swapped join outputs (old right ++ old left):
                // `new_index` maps an old column there. The residual is
                // remapped, and a Project on top restores the query's order.
                let new_schema = left.schema().join(right.schema());
                let new_index = |i: usize| {
                    if i < left_len {
                        i + right_len
                    } else {
                        i - left_len
                    }
                };
                residual = residual.map(|r| r.remap_columns(&new_index));
                let exprs: Vec<BoundExpr> = (0..schema.len())
                    .map(|i| {
                        let src = new_index(i);
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
                    schema: new_schema,
                };
                return LogicalPlan::Project {
                    input: Box::new(join),
                    exprs,
                    schema,
                };
            }
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                equi,
                residual,
                schema,
            }
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(choose_build_sides(*input, catalog)),
            predicate,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(choose_build_sides(*input, catalog)),
            exprs,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(choose_build_sides(*input, catalog)),
            group_by,
            aggs,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(choose_build_sides(*input, catalog)),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(choose_build_sides(*input, catalog)),
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

    fn optimized(sql: &str) -> LogicalPlan {
        let c = catalog();
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => optimize(bind_select(&s, &c).unwrap(), &c),
            _ => unreachable!(),
        }
    }

    fn render(p: &LogicalPlan) -> String {
        p.to_string()
    }

    #[test]
    fn filter_pushes_below_join() {
        let p = optimized("SELECT * FROM big JOIN small ON big.k = small.k WHERE big.id < 10");
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
        let p = optimized("SELECT * FROM big JOIN small ON big.k = small.k");
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
    fn no_equi_keys_uses_nested_loop() {
        let p = optimized("SELECT * FROM big JOIN small ON big.k < small.k");
        assert!(render(&p).contains("NestedLoopJoin"));
    }

    #[test]
    fn cross_side_predicate_stays_above_join() {
        let p =
            optimized("SELECT * FROM big JOIN small ON big.k = small.k WHERE big.id + small.k > 3");
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
        let after = optimize(bound, &c);
        assert_eq!(&before, after.schema());
    }
}
