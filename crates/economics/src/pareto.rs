//! Pareto dominance and optimality (Definition 1).
//!
//! A solution to the QA problem is a pair of per-node supply and consumption
//! vector lists `<[s⃗ᵢ], [c⃗ᵢ]>`. Solution A *Pareto dominates* B iff every
//! node weakly prefers its consumption in A and at least one strictly
//! prefers it. A solution is *Pareto optimal* if nothing feasible dominates
//! it. Every node holds §2.2's throughput preference, "all nodes prefer to
//! evaluate as many queries as possible": `c⃗ ⪰ᵢ c⃗′ iff Σₖ cₖ ≥ Σₖ c′ₖ`.
//!
//! Besides the two predicates, this module provides a brute-force enumerator
//! of all feasible solutions of a small economy — used by tests to verify
//! both the paper's worked example (LB is dominated by QA) and the
//! First-Theorem check in [`crate::welfare`].

use crate::supply::{enumerate_capacity_set, LinearCapacitySet};
use crate::vectors::QuantityVector;

/// A solution `<[s⃗ᵢ], [c⃗ᵢ]>`: one supply and one consumption vector per
/// node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Per-node supply vectors `s⃗ᵢ`.
    pub supplies: Vec<QuantityVector>,
    /// Per-node consumption vectors `c⃗ᵢ`.
    pub consumptions: Vec<QuantityVector>,
}

impl Solution {
    /// Number of nodes `I`.
    pub(crate) fn num_nodes(&self) -> usize {
        self.consumptions.len()
    }
}

/// `true` iff solution `a` Pareto dominates solution `b` (Definition 1):
/// no node consumes fewer queries in `a` than in `b`, and some node
/// consumes more.
pub fn dominates(a: &Solution, b: &Solution) -> bool {
    assert_eq!(a.num_nodes(), b.num_nodes(), "node count mismatch");
    let pairs = || a.consumptions.iter().zip(&b.consumptions);
    pairs().all(|(ca, cb)| ca.total() >= cb.total())
        && pairs().any(|(ca, cb)| ca.total() > cb.total())
}

/// `true` iff `sol` is not dominated by any solution in `candidates`.
pub fn is_pareto_optimal(sol: &Solution, candidates: &[Solution]) -> bool {
    !candidates.iter().any(|c| dominates(c, sol))
}

/// Brute-force enumeration of all feasible solutions of a small economy.
///
/// Feasibility means: each node's supply vector lies in its capacity set,
/// the aggregate supply does not exceed the aggregate demand (consumed
/// queries must have been asked for), and consumptions are a per-node split
/// of the aggregate supply with `c⃗ᵢ ≤ d⃗ᵢ` (a node cannot consume answers
/// to queries it never posed).
///
/// Exponential in nodes × classes × capacity — strictly for tests on
/// economies the size of the paper's worked example.
pub fn enumerate_solutions(
    supply_sets: &[LinearCapacitySet],
    demands: &[QuantityVector],
) -> Vec<Solution> {
    assert_eq!(supply_sets.len(), demands.len());
    let aggregate_demand = QuantityVector::aggregate(demands);

    // All feasible supply combinations.
    let per_node: Vec<Vec<QuantityVector>> = supply_sets
        .iter()
        .map(|s| enumerate_capacity_set(s, Some(&aggregate_demand)))
        .collect();

    let mut out = Vec::new();
    let mut chosen: Vec<QuantityVector> = Vec::with_capacity(per_node.len());
    fn rec_supplies(
        per_node: &[Vec<QuantityVector>],
        demands: &[QuantityVector],
        aggregate_demand: &QuantityVector,
        chosen: &mut Vec<QuantityVector>,
        out: &mut Vec<Solution>,
    ) {
        if chosen.len() == per_node.len() {
            let agg = QuantityVector::aggregate(chosen.iter());
            if !agg.le(aggregate_demand) {
                return;
            }
            // Split the aggregate supply into per-node consumptions with
            // cᵢ ≤ dᵢ and Σ cᵢ = agg.
            let mut consumption: Vec<QuantityVector> = demands
                .iter()
                .map(|d| QuantityVector::zeros(d.num_classes()))
                .collect();
            let supplies = chosen.clone();
            split_consumptions(&agg, demands, 0, &mut consumption, &supplies, out);
            return;
        }
        let i = chosen.len();
        for s in &per_node[i] {
            chosen.push(s.clone());
            rec_supplies(per_node, demands, aggregate_demand, chosen, out);
            chosen.pop();
        }
    }

    /// Distributes the aggregate supply class-by-class across nodes.
    fn split_consumptions(
        agg: &QuantityVector,
        demands: &[QuantityVector],
        class: usize,
        consumption: &mut Vec<QuantityVector>,
        supplies: &[QuantityVector],
        out: &mut Vec<Solution>,
    ) {
        if class == agg.num_classes() {
            out.push(Solution {
                supplies: supplies.to_vec(),
                consumptions: consumption.clone(),
            });
            return;
        }
        let total = agg.get(class);
        // Enumerate all compositions of `total` into per-node parts bounded
        // by each node's demand.
        #[allow(clippy::too_many_arguments)] // recursion threads the full search state
        fn comp(
            total: u64,
            node: usize,
            demands: &[QuantityVector],
            class: usize,
            consumption: &mut Vec<QuantityVector>,
            agg: &QuantityVector,
            supplies: &[QuantityVector],
            out: &mut Vec<Solution>,
        ) {
            if node == demands.len() {
                if total == 0 {
                    split_consumptions(agg, demands, class + 1, consumption, supplies, out);
                }
                return;
            }
            let cap = demands[node].get(class).min(total);
            for take in 0..=cap {
                consumption[node].set(class, take);
                comp(
                    total - take,
                    node + 1,
                    demands,
                    class,
                    consumption,
                    agg,
                    supplies,
                    out,
                );
            }
            consumption[node].set(class, 0);
        }
        comp(total, 0, demands, class, consumption, agg, supplies, out);
    }

    rec_supplies(&per_node, demands, &aggregate_demand, &mut chosen, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qv(v: &[u64]) -> QuantityVector {
        QuantityVector::from_counts(v.to_vec())
    }

    /// The paper's running example within one period T = 500 ms:
    /// N1 runs q1 in 400 ms / q2 in 100 ms; N2 runs q1 in 450 ms / q2 in
    /// 500 ms. Demands in period 1: N1 = (1,6), N2 = (1,0).
    fn example() -> (Vec<LinearCapacitySet>, Vec<QuantityVector>) {
        let n1 = LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0);
        let n2 = LinearCapacitySet::new(vec![Some(450.0), Some(500.0)], 500.0);
        (vec![n1, n2], vec![qv(&[1, 6]), qv(&[1, 0])])
    }

    fn lb_solution() -> Solution {
        // LB: N1 supplies (1,1) [q1 at 0-400, one q2], N2 supplies (1,0);
        // N1 consumes (1,1), N2 consumes (1,0).
        Solution {
            supplies: vec![qv(&[1, 1]), qv(&[1, 0])],
            consumptions: vec![qv(&[1, 1]), qv(&[1, 0])],
        }
    }

    fn qa_solution() -> Solution {
        // QA: N1 supplies only q2 (5 fit in 500ms), N2 supplies q1.
        // N1 consumes (1,4): its q1 answered by N2, 4 of its q2 answered
        // by itself. Wait — aggregate supply (1,5) vs aggregate demand
        // (2,6): N1 gets (0,5) of its own q2 plus N2's q1 answer goes to
        // N2's own query. Distribution: N1 consumes (0,5), N2 consumes
        // (1,0).
        Solution {
            supplies: vec![qv(&[0, 5]), qv(&[1, 0])],
            consumptions: vec![qv(&[0, 5]), qv(&[1, 0])],
        }
    }

    #[test]
    fn qa_dominates_lb_in_paper_example() {
        assert!(dominates(&qa_solution(), &lb_solution()));
        assert!(!dominates(&lb_solution(), &qa_solution()));
    }

    #[test]
    fn dominance_is_irreflexive() {
        assert!(!dominates(&qa_solution(), &qa_solution()));
    }

    #[test]
    fn dominance_is_asymmetric_on_enumeration() {
        let (sets, demands) = example();
        let all = enumerate_solutions(&sets, &demands);
        for a in all.iter().take(80) {
            for b in all.iter().take(80) {
                if dominates(a, b) {
                    assert!(!dominates(b, a), "asymmetry violated");
                }
            }
        }
    }

    #[test]
    fn lb_is_not_pareto_optimal_but_qa_is() {
        let (sets, demands) = example();
        let all = enumerate_solutions(&sets, &demands);
        assert!(!is_pareto_optimal(&lb_solution(), &all));
        assert!(is_pareto_optimal(&qa_solution(), &all));
    }

    #[test]
    fn balance_identity_holds_for_both_solutions() {
        // Eq. 3: s⃗ = c⃗ ≤ d⃗.
        let (_, demands) = example();
        let d = QuantityVector::aggregate(&demands);
        for sol in [lb_solution(), qa_solution()] {
            assert_eq!(
                QuantityVector::aggregate(&sol.supplies),
                QuantityVector::aggregate(&sol.consumptions)
            );
            assert!(QuantityVector::aggregate(&sol.consumptions).le(&d));
        }
    }

    #[test]
    fn enumeration_respects_feasibility() {
        let (sets, demands) = example();
        let d = QuantityVector::aggregate(&demands);
        for sol in enumerate_solutions(&sets, &demands) {
            for (i, s) in sol.supplies.iter().enumerate() {
                assert!(
                    crate::supply::SupplySet::contains(&sets[i], s),
                    "infeasible supply"
                );
            }
            assert_eq!(
                QuantityVector::aggregate(&sol.supplies),
                QuantityVector::aggregate(&sol.consumptions)
            );
            assert!(QuantityVector::aggregate(&sol.supplies).le(&d));
            for (c, dem) in sol.consumptions.iter().zip(&demands) {
                assert!(c.le(dem), "node consumed more than it demanded");
            }
        }
    }

    #[test]
    fn pareto_front_maximizes_total_under_throughput_preference() {
        let (sets, demands) = example();
        let all = enumerate_solutions(&sets, &demands);
        let best_total = all
            .iter()
            .map(|s| QuantityVector::aggregate(&s.consumptions).total())
            .max()
            .unwrap();
        // The QA allocation achieves the maximum feasible throughput (6).
        assert_eq!(best_total, 6);
        assert_eq!(
            QuantityVector::aggregate(&qa_solution().consumptions).total(),
            best_total
        );
        // Under throughput preferences a Pareto-optimal solution cannot be
        // beaten in total by more than redistribution allows: every optimal
        // solution has total == best among solutions comparable to it.
        for sol in all.iter().filter(|s| is_pareto_optimal(s, &all)) {
            // No other solution weakly improves every node and strictly one.
            assert!(all.iter().all(|other| !dominates(other, sol)));
        }
    }
}
