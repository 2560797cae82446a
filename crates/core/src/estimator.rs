//! Execution-time estimation with history correction (§5.2).
//!
//! The paper's deployment found raw `EXPLAIN PLAN` estimates "usually
//! incorrect as \[they\] did not take into account the contents of the DBMS
//! buffers", and settled on a two-step estimator: use `EXPLAIN` to identify
//! the plan, then "past execution information concerning queries with the
//! same plan to estimate the execution time of the new query".
//! [`PlanHistoryEstimator`] is that estimator: keyed by the plan
//! fingerprint (`qa-minidb`'s literal-insensitive plan hash), it blends the
//! optimizer's cost-derived prior with an exponentially weighted moving
//! average of observed execution times.

use std::collections::HashMap;

/// Aggregate statistics for one plan fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EstimatorStats {
    /// Observations recorded.
    pub(crate) observations: u64,
    /// Current EWMA of execution time in milliseconds.
    pub(crate) ewma_ms: f64,
}

/// History-corrected execution time estimator.
#[derive(Debug, Clone)]
pub struct PlanHistoryEstimator {
    history: HashMap<u64, EstimatorStats>,
    /// EWMA smoothing factor in `(0, 1]`: weight of the newest observation.
    alpha: f64,
    /// Multiplier converting optimizer cost units into a millisecond prior
    /// (calibrated per node; crude on purpose — history takes over).
    cost_to_ms: f64,
}

impl PlanHistoryEstimator {
    /// An estimator with the given smoothing factor and cost calibration.
    ///
    /// # Panics
    /// Panics unless `0 < alpha ≤ 1` and `cost_to_ms > 0`.
    pub fn new(alpha: f64, cost_to_ms: f64) -> PlanHistoryEstimator {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(cost_to_ms > 0.0 && cost_to_ms.is_finite());
        PlanHistoryEstimator {
            history: HashMap::new(),
            alpha,
            cost_to_ms,
        }
    }

    /// Estimated execution time (ms) for a query with plan `fingerprint`
    /// and optimizer `cost`: the history EWMA when available, the
    /// cost-derived prior otherwise.
    pub fn estimate_ms(&self, fingerprint: u64, cost: f64) -> f64 {
        match self.history.get(&fingerprint) {
            Some(s) if s.observations > 0 => s.ewma_ms,
            _ => cost * self.cost_to_ms,
        }
    }

    /// Records an observed execution time for a plan.
    pub fn observe_ms(&mut self, fingerprint: u64, actual_ms: f64) {
        assert!(actual_ms.is_finite() && actual_ms >= 0.0);
        let e = self.history.entry(fingerprint).or_insert(EstimatorStats {
            observations: 0,
            ewma_ms: actual_ms,
        });
        if e.observations == 0 {
            e.ewma_ms = actual_ms;
        } else {
            e.ewma_ms = self.alpha * actual_ms + (1.0 - self.alpha) * e.ewma_ms;
        }
        e.observations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_used_before_any_observation() {
        let e = PlanHistoryEstimator::new(0.5, 2.0);
        assert_eq!(e.estimate_ms(42, 100.0), 200.0);
    }

    #[test]
    fn first_observation_replaces_prior() {
        let mut e = PlanHistoryEstimator::new(0.5, 2.0);
        e.observe_ms(42, 50.0);
        assert_eq!(e.estimate_ms(42, 100.0), 50.0);
    }

    #[test]
    fn ewma_converges_toward_recent_truth() {
        let mut e = PlanHistoryEstimator::new(0.3, 1.0);
        e.observe_ms(1, 100.0);
        for _ in 0..30 {
            e.observe_ms(1, 20.0);
        }
        let est = e.estimate_ms(1, 999.0);
        assert!((est - 20.0).abs() < 1.0, "est {est}");
    }

    #[test]
    fn plans_are_tracked_independently() {
        let mut e = PlanHistoryEstimator::new(0.3, 1.0);
        e.observe_ms(1, 10.0);
        e.observe_ms(2, 1_000.0);
        assert_eq!(e.history.len(), 2);
        assert!(e.estimate_ms(1, 0.0) < e.estimate_ms(2, 0.0));
        assert_eq!(
            e.estimate_ms(1, 0.0),
            10.0,
            "one observation is the estimate"
        );
        assert_eq!(e.estimate_ms(3, 5.0), 5.0, "an unseen plan keeps its prior");
    }

    #[test]
    fn reproduces_paper_buffer_warmup_story() {
        // Cold estimate (from cost) is far off; after a few executions with
        // warm buffers the estimator tracks the much cheaper reality.
        let mut e = PlanHistoryEstimator::new(0.5, 1.0);
        let cold_prior = e.estimate_ms(7, 3_000.0);
        assert_eq!(cold_prior, 3_000.0);
        for warm in [2_500.0, 900.0, 400.0, 380.0, 390.0] {
            e.observe_ms(7, warm);
        }
        let warmed = e.estimate_ms(7, 3_000.0);
        assert!(warmed < 600.0, "estimator should have learned: {warmed}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = PlanHistoryEstimator::new(0.0, 1.0);
    }
}
