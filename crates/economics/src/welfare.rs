//! Empirical checks of the First Theorem of Welfare Economics (FTWE).
//!
//! FTWE is the paper's foundation: "market economies composed of
//! self-interested consumers and firms achieve allocations of resources and
//! goods that are Pareto optimal" (§3). We cannot prove the theorem in
//! code, but we can *check* it instance by instance: run the market
//! mechanism on a small economy, enumerate every feasible solution, and
//! verify no solution Pareto-dominates the market's. The test suite and the
//! property tests run this over many random economies.

use crate::pareto::{enumerate_solutions, is_pareto_optimal, Solution};
use crate::supply::LinearCapacitySet;
use crate::tatonnement::{Tatonnement, TatonnementOutcome};
use crate::vectors::{PriceVector, QuantityVector};

/// Distributes an aggregate supply to per-node consumptions, respecting
/// `c⃗ᵢ ≤ d⃗ᵢ` (greedy, in node order). Some split always exists because
/// aggregate supply ≤ aggregate demand.
pub(crate) fn split_supply_to_consumptions(
    aggregate_supply: &QuantityVector,
    demands: &[QuantityVector],
) -> Vec<QuantityVector> {
    let k = aggregate_supply.num_classes();
    let mut remaining = aggregate_supply.clone();
    let mut out = Vec::with_capacity(demands.len());
    for d in demands {
        let mut c = QuantityVector::zeros(k);
        for kk in 0..k {
            let take = remaining.get(kk).min(d.get(kk));
            c.set(kk, take);
            remaining.set(kk, remaining.get(kk) - take);
        }
        out.push(c);
    }
    debug_assert!(remaining.is_zero(), "supply exceeded demand");
    out
}

/// Outcome of one FTWE check.
#[derive(Debug, Clone)]
pub enum FtweCheck {
    /// The market converged and its allocation is Pareto optimal.
    Holds { solution: Solution },
    /// The market failed to reach equilibrium within the budget (FTWE only
    /// speaks about equilibria, so nothing is asserted).
    NoEquilibrium,
    /// The market converged but the allocation is dominated — a bug.
    Violated {
        solution: Solution,
        dominated_by: Box<Solution>,
    },
}

/// Runs tâtonnement on the given economy and checks the resulting
/// allocation for Pareto optimality by brute-force enumeration.
///
/// Only suitable for small economies (enumeration is exponential).
pub fn check_ftwe(
    sellers: &[LinearCapacitySet],
    demands: &[QuantityVector],
    process: &Tatonnement,
) -> FtweCheck {
    assert_eq!(sellers.len(), demands.len());
    let aggregate_demand = QuantityVector::aggregate(demands);
    let run = process.run(
        &aggregate_demand,
        sellers,
        PriceVector::uniform(aggregate_demand.num_classes(), 1.0),
    );
    if !matches!(run.outcome, TatonnementOutcome::Converged { .. }) {
        return FtweCheck::NoEquilibrium;
    }
    let agg_supply = QuantityVector::aggregate(&run.supplies);
    let consumptions = split_supply_to_consumptions(&agg_supply, demands);
    let solution = Solution {
        supplies: run.supplies,
        consumptions,
    };
    let all = enumerate_solutions(sellers, demands);
    if is_pareto_optimal(&solution, &all) {
        FtweCheck::Holds { solution }
    } else {
        let dominated_by = all
            .into_iter()
            .find(|c| crate::pareto::dominates(c, &solution))
            .expect("not optimal implies a dominator exists");
        FtweCheck::Violated {
            solution,
            dominated_by: Box::new(dominated_by),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qv(v: &[u64]) -> QuantityVector {
        QuantityVector::from_counts(v.to_vec())
    }

    #[test]
    fn split_respects_per_node_demand() {
        let agg = qv(&[2, 3]);
        let demands = [qv(&[1, 1]), qv(&[3, 2])];
        let cons = split_supply_to_consumptions(&agg, &demands);
        assert_eq!(cons[0], qv(&[1, 1]));
        assert_eq!(cons[1], qv(&[1, 2]));
        assert_eq!(QuantityVector::aggregate(&cons), agg);
    }

    #[test]
    fn ftwe_holds_on_paper_economy_with_clearable_demand() {
        let sellers = vec![
            LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0),
            LinearCapacitySet::new(vec![Some(450.0), Some(500.0)], 500.0),
        ];
        let demands = vec![qv(&[0, 5]), qv(&[1, 0])];
        match check_ftwe(&sellers, &demands, &Tatonnement::default()) {
            FtweCheck::Holds { solution } => {
                assert_eq!(QuantityVector::aggregate(&solution.consumptions).total(), 6);
            }
            other => panic!("FTWE should hold, got {other:?}"),
        }
    }

    #[test]
    fn ftwe_check_handles_single_node_economy() {
        let sellers = vec![LinearCapacitySet::new(vec![Some(100.0)], 500.0)];
        let demands = vec![qv(&[3])];
        match check_ftwe(&sellers, &demands, &Tatonnement::default()) {
            FtweCheck::Holds { solution } => {
                assert_eq!(QuantityVector::aggregate(&solution.consumptions), qv(&[3]));
            }
            other => panic!("expected Holds, got {other:?}"),
        }
    }

    #[test]
    fn ftwe_over_random_small_economies() {
        let mut rng = qa_simnet::DetRng::seed_from_u64(2007);
        let mut holds = 0;
        let mut no_eq = 0;
        for _ in 0..25 {
            let nodes = rng.int_in(1, 3) as usize;
            let classes = 2;
            let sellers: Vec<LinearCapacitySet> = (0..nodes)
                .map(|_| {
                    let costs = (0..classes)
                        .map(|_| {
                            if rng.chance(0.85) {
                                Some(rng.float_in(50.0, 400.0))
                            } else {
                                None
                            }
                        })
                        .collect();
                    LinearCapacitySet::new(costs, 500.0)
                })
                .collect();
            let demands: Vec<QuantityVector> = (0..nodes)
                .map(|_| {
                    QuantityVector::from_counts((0..classes).map(|_| rng.int_in(0, 3)).collect())
                })
                .collect();
            match check_ftwe(&sellers, &demands, &Tatonnement::default()) {
                FtweCheck::Holds { .. } => holds += 1,
                FtweCheck::NoEquilibrium => no_eq += 1,
                FtweCheck::Violated {
                    solution,
                    dominated_by,
                } => {
                    panic!("FTWE violated: market gave {solution:?}, dominated by {dominated_by:?}")
                }
            }
        }
        // Most random instances should actually clear; the check must never
        // report a violation.
        assert!(
            holds > 0,
            "no economy converged (holds={holds}, no_eq={no_eq})"
        );
    }
}
