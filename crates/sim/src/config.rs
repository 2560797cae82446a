//! Simulation configuration (Table 3), plus the hierarchical-market
//! broker-tier configuration (DESIGN.md §12).
//!
//! The Table-3 hardware ranges are constants of `crate::node`; what a
//! run may vary is its seed, its size and its market.

use qa_core::QantConfig;
use qa_economics::parent::ParentMechanism;

/// Federation-level simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Number of nodes `I` (paper: 100).
    pub num_nodes: usize,
    /// QA-NT configuration. Its `period` is the run's time period `τ`
    /// length `T` (paper: 500 ms) under every mechanism.
    pub qant: QantConfig,
}

impl SimConfig {
    /// The Table-3 defaults. The market runs unconditionally, as in the
    /// paper's own experiments; the §5.1 threshold deployment mode is
    /// available via `qant.price_threshold`.
    pub fn paper_defaults() -> SimConfig {
        SimConfig {
            seed: 2007,
            num_nodes: 100,
            qant: QantConfig::default(),
        }
    }

    /// A small configuration for fast unit tests (same shape, 10 nodes).
    pub fn small_test(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            num_nodes: 10,
            ..SimConfig::paper_defaults()
        }
    }

    /// The paper defaults scaled to an arbitrary federation size — the
    /// `fig_scale` sweep worlds (100 → 10 000 nodes).
    pub fn scaled(num_nodes: usize, seed: u64) -> SimConfig {
        SimConfig {
            seed,
            num_nodes,
            ..SimConfig::paper_defaults()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on an empty federation or a zero period.
    pub(crate) fn validate(&self) {
        assert!(self.num_nodes > 0);
        assert!(!self.qant.period.is_zero());
    }
}

/// Two-tier market configuration: on a sharded run every shard gets a
/// broker that bids its aggregate supply/ln-price signals on a parent
/// market, which clears them and escalates the demand it could not place.
/// The cross-shard router reads the bids' supply, not the clearing result.
/// The default is the QA-NT parent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// The parent market's clearing mechanism.
    pub mechanism: ParentMechanism,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig::qant()
    }
}

impl BrokerConfig {
    /// QA-NT at the broker tier: one greedy cheapest-first clearing per
    /// window, parent prices adjusted from unmet demand / unsold capacity.
    pub fn qant() -> BrokerConfig {
        BrokerConfig {
            mechanism: ParentMechanism::QaNt,
        }
    }

    /// WALRAS-style tâtonnement at the broker tier: the parent iterates
    /// its ln-price against the brokers' aggregate supply curves until the
    /// window clears within tolerance.
    pub fn walras() -> BrokerConfig {
        BrokerConfig {
            mechanism: ParentMechanism::Walras,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::SimDuration;

    #[test]
    fn broker_presets_pick_their_mechanism() {
        let q = BrokerConfig::qant();
        assert_eq!(q.mechanism, ParentMechanism::QaNt);
        assert_eq!(BrokerConfig::walras().mechanism, ParentMechanism::Walras);
        assert_eq!(BrokerConfig::default(), q);
    }

    #[test]
    fn paper_defaults_match_table3() {
        let c = SimConfig::paper_defaults();
        c.validate();
        assert_eq!(c.num_nodes, 100);
        assert_eq!(c.qant.period, SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic]
    fn validate_rejects_a_zero_period() {
        let mut c = SimConfig::paper_defaults();
        c.qant.period = SimDuration::ZERO;
        c.validate();
    }
}
