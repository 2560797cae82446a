//! The classical centralized tâtonnement process (§3.3, eq. 6).
//!
//! A single *umpire* announces prices to all agents, collects their supply
//! responses, compares them with the (fixed, per-period) demand, and adjusts
//! `p(t+1) = p(t) + λ·z(p(t))` until the excess demand vanishes. The paper
//! rejects this mechanism for deployment — it needs a central authority and
//! trades only at equilibrium — but it is the reference point against which
//! QA-NT's decentralized process is defined, so we implement it both for
//! the test suite (convergence of the price dynamics) and for the ablation
//! benches (centralized vs decentralized).

use crate::market::ExcessVector;
use crate::supply::{solve_supply_greedy, LinearCapacitySet};
use crate::vectors::{PriceVector, QuantityVector};

/// Result of running the umpire iteration.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TatonnementOutcome {
    /// `z(p⃗*) = 0` was reached after the given number of iterations.
    Converged { iterations: usize },
    /// The iteration budget ran out; the best (lowest ‖z‖₁) state seen is
    /// reported.
    IterationBudgetExhausted { best_l1: u64 },
}

/// The centralized umpire.
#[derive(Debug, Clone)]
pub struct Tatonnement {
    /// Adjustment speed λ of eq. 6. "Higher values reduce the number of
    /// iterations but decrease the accuracy of the estimated vector p⃗*."
    pub lambda: f64,
    /// Prices never fall below this floor (multiplicative dynamics cannot
    /// recover from zero).
    pub price_floor: f64,
    /// Iteration budget.
    pub max_iterations: usize,
}

impl Default for Tatonnement {
    fn default() -> Self {
        Tatonnement {
            lambda: 0.05,
            price_floor: 1e-6,
            max_iterations: 10_000,
        }
    }
}

/// One full tâtonnement run: the state it ended in.
#[derive(Debug, Clone)]
pub struct TatonnementRun {
    /// How the run ended.
    pub(crate) outcome: TatonnementOutcome,
    /// Final prices.
    pub prices: PriceVector,
    /// Per-seller supply vectors at the final prices.
    pub(crate) supplies: Vec<QuantityVector>,
}

impl Tatonnement {
    /// Runs the umpire against a fixed aggregate demand and the given
    /// seller capacity sets, starting from `initial_prices`.
    ///
    /// Each seller responds to announced prices with its greedy
    /// profit-maximising supply (eq. 4), capped by the aggregate demand (no
    /// seller has a reason to produce more of a class than anyone asked
    /// for; without the cap, integer supplies oscillate around equilibrium
    /// forever).
    pub fn run(
        &self,
        demand: &QuantityVector,
        sellers: &[LinearCapacitySet],
        initial_prices: PriceVector,
    ) -> TatonnementRun {
        assert!(!sellers.is_empty(), "empty economy");
        let k = demand.num_classes();
        assert_eq!(initial_prices.num_classes(), k);
        let mut prices = initial_prices;
        let mut best_l1 = u64::MAX;
        let mut remaining_cap;

        for iter in 0..self.max_iterations {
            // Collect supply responses; each seller sees the demand still
            // unserved by sellers earlier in the round (sequential rationing
            // keeps aggregate supply ≤ demand, mirroring that a query is
            // evaluated once).
            remaining_cap = demand.clone();
            let mut supplies = Vec::with_capacity(sellers.len());
            for set in sellers {
                let s = solve_supply_greedy(&prices, set, Some(&remaining_cap));
                remaining_cap = remaining_cap.saturating_sub(&s);
                supplies.push(s);
            }
            let agg = QuantityVector::aggregate(&supplies);
            let z = ExcessVector::from_values(
                demand
                    .iter()
                    .zip(agg.iter())
                    .map(|((_, d), (_, s))| d as i64 - s as i64)
                    .collect(),
            );
            let l1 = z.l1_norm();
            best_l1 = best_l1.min(l1);
            if z.is_zero() {
                return TatonnementRun {
                    outcome: TatonnementOutcome::Converged {
                        iterations: iter + 1,
                    },
                    prices,
                    supplies,
                };
            }
            // eq. 6: p(t+1) = p(t) + λ z(p(t)); multiplicative-in-price form
            // keeps the dynamics scale-free across classes.
            for (kk, zk) in z.iter() {
                let p = prices.get(kk);
                prices.set(kk, p + self.lambda * p * zk as f64, self.price_floor);
            }
        }

        // Budget exhausted: recompute final supplies at last prices.
        remaining_cap = demand.clone();
        let supplies: Vec<QuantityVector> = sellers
            .iter()
            .map(|set| {
                let s = solve_supply_greedy(&prices, set, Some(&remaining_cap));
                remaining_cap = remaining_cap.saturating_sub(&s);
                s
            })
            .collect();
        TatonnementRun {
            outcome: TatonnementOutcome::IterationBudgetExhausted { best_l1 },
            prices,
            supplies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qv(v: &[u64]) -> QuantityVector {
        QuantityVector::from_counts(v.to_vec())
    }

    /// The paper's two-node economy.
    fn sellers() -> Vec<LinearCapacitySet> {
        vec![
            LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0),
            LinearCapacitySet::new(vec![Some(450.0), Some(500.0)], 500.0),
        ]
    }

    #[test]
    fn converges_on_satisfiable_demand() {
        // Demand (1,5) is exactly what QA achieves in one period: N2 does
        // the q1, N1 does five q2.
        let t = Tatonnement::default();
        let run = t.run(&qv(&[1, 5]), &sellers(), PriceVector::uniform(2, 1.0));
        assert!(
            matches!(run.outcome, TatonnementOutcome::Converged { .. }),
            "outcome {:?}",
            run.outcome
        );
        let agg = QuantityVector::aggregate(&run.supplies);
        assert_eq!(agg, qv(&[1, 5]));
    }

    #[test]
    fn price_of_scarce_class_rises() {
        // Demand (2,2) is infeasible (at most one q2-capable slot remains
        // once both q1 run), so q1 stays in excess demand and its price must
        // be bid up even though equilibrium is unreachable.
        let t = Tatonnement {
            max_iterations: 300,
            ..Tatonnement::default()
        };
        let p0 = PriceVector::from_prices(vec![0.001, 1.0]);
        let run = t.run(&qv(&[2, 2]), &sellers(), p0.clone());
        assert!(
            run.prices.get(0) > p0.get(0),
            "q1 price should have been bid up: {}",
            run.prices
        );
    }

    /// An economy that needs genuine price movement to clear: N1 can run
    /// either class (one query per period), N2 only class A. With B
    /// underpriced, N1 grabs A and B goes unserved until B's price
    /// overtakes A's.
    fn misprice_economy() -> (Vec<LinearCapacitySet>, QuantityVector, PriceVector) {
        let n1 = LinearCapacitySet::new(vec![Some(100.0), Some(100.0)], 100.0);
        let n2 = LinearCapacitySet::new(vec![Some(100.0), None], 100.0);
        (
            vec![n1, n2],
            qv(&[1, 1]),
            PriceVector::from_prices(vec![1.0, 0.5]),
        )
    }

    #[test]
    fn converges_only_after_price_correction() {
        let (sellers, demand, p0) = misprice_economy();
        let t = Tatonnement::default();
        let run = t.run(&demand, &sellers, p0.clone());
        match run.outcome {
            TatonnementOutcome::Converged { iterations } => {
                assert!(
                    iterations > 5,
                    "should take several corrections, took {iterations}"
                );
            }
            other => panic!("expected convergence, got {other:?}"),
        }
        assert!(run.prices.get(1) > p0.get(1), "B price must have risen");
        // Final assignment: N1 does B, N2 does A.
        assert_eq!(run.supplies[0], qv(&[0, 1]));
        assert_eq!(run.supplies[1], qv(&[1, 0]));
    }

    #[test]
    fn infeasible_demand_exhausts_budget_but_improves() {
        // Demand far beyond total capacity can never clear.
        let t = Tatonnement {
            max_iterations: 200,
            ..Tatonnement::default()
        };
        let run = t.run(&qv(&[50, 50]), &sellers(), PriceVector::uniform(2, 1.0));
        match run.outcome {
            TatonnementOutcome::IterationBudgetExhausted { best_l1 } => {
                // System capacity is ~2 queries of q1-scale per period;
                // z can never get near zero.
                assert!(best_l1 > 0);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn zero_demand_is_immediately_in_equilibrium() {
        let t = Tatonnement::default();
        let run = t.run(&qv(&[0, 0]), &sellers(), PriceVector::uniform(2, 1.0));
        assert_eq!(run.outcome, TatonnementOutcome::Converged { iterations: 1 });
        assert!(QuantityVector::aggregate(&run.supplies).is_zero());
    }

    #[test]
    fn higher_lambda_converges_in_fewer_iterations() {
        // The paper: "Higher values reduce the number of iterations".
        let slow = Tatonnement {
            lambda: 0.01,
            ..Tatonnement::default()
        };
        let fast = Tatonnement {
            lambda: 0.2,
            ..Tatonnement::default()
        };
        let (s, d, p0) = misprice_economy();
        let its = |r: &TatonnementRun| match r.outcome {
            TatonnementOutcome::Converged { iterations } => iterations,
            _ => usize::MAX,
        };
        let r_slow = slow.run(&d, &s, p0.clone());
        let r_fast = fast.run(&d, &s, p0);
        assert!(
            its(&r_fast) < its(&r_slow),
            "fast {:?} slow {:?}",
            r_fast.outcome,
            r_slow.outcome
        );
    }
}
