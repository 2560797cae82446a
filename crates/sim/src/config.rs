//! Simulation configuration (Table 3), plus the hierarchical-market
//! broker-tier configuration (DESIGN.md §12).

use qa_core::QantConfig;
use qa_economics::parent::{ParentMarketConfig, ParentMechanism};
use qa_simnet::{LinkSpec, SimDuration};

/// Federation-level simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Number of nodes `I` (paper: 100).
    pub num_nodes: usize,
    /// Time period `τ` length `T` (paper: 500 ms).
    pub period: SimDuration,
    /// CPU speed range in GHz (paper: 1–3.5, avg 2.3).
    pub cpu_ghz: (f64, f64),
    /// Reference CPU speed the template base costs are calibrated to.
    pub reference_ghz: f64,
    /// I/O speed range in MB/s (paper: 5–80, avg 42.5).
    pub io_mbps: (f64, f64),
    /// Reference I/O speed.
    pub reference_io_mbps: f64,
    /// Sort/hash buffer size range in MB (paper: 2–10, avg 6).
    pub buffer_mb: (f64, f64),
    /// Fraction of nodes with hash-join capability (paper: 95/100; the
    /// rest merge-scan only and pay a join penalty).
    pub hash_join_fraction: f64,
    /// Inter-node link model used to charge allocation-protocol latency.
    pub link: LinkSpec,
    /// QA-NT configuration.
    pub qant: QantConfig,
    /// Relative error of the completion estimates the Greedy baseline
    /// collects (`±greedy_estimate_error`, multiplicative). Real clients
    /// never see perfectly fresh queue state (the paper's EXPLAIN-based
    /// estimates "were usually incorrect"); 0 would model an omniscient
    /// greedy.
    pub greedy_estimate_error: f64,
}

impl SimConfig {
    /// The Table-3 defaults. The market runs unconditionally, as in the
    /// paper's own experiments; the §5.1 threshold deployment mode is
    /// available via `qant.price_threshold`.
    pub fn paper_defaults() -> SimConfig {
        SimConfig {
            seed: 2007,
            num_nodes: 100,
            period: SimDuration::from_millis(500),
            cpu_ghz: (1.0, 3.5),
            reference_ghz: 2.3,
            io_mbps: (5.0, 80.0),
            reference_io_mbps: 42.5,
            buffer_mb: (2.0, 10.0),
            hash_join_fraction: 0.95,
            link: LinkSpec::fast_ethernet(),
            qant: QantConfig::default(),
            greedy_estimate_error: 0.25,
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

    /// Validates ranges.
    ///
    /// # Panics
    /// Panics on inverted ranges or out-of-range fractions.
    pub fn validate(&self) {
        assert!(self.num_nodes > 0);
        assert!(!self.period.is_zero());
        assert!(self.cpu_ghz.0 > 0.0 && self.cpu_ghz.0 <= self.cpu_ghz.1);
        assert!(self.io_mbps.0 > 0.0 && self.io_mbps.0 <= self.io_mbps.1);
        assert!(self.buffer_mb.0 > 0.0 && self.buffer_mb.0 <= self.buffer_mb.1);
        assert!((0.0..=1.0).contains(&self.hash_join_fraction));
        assert!(self.reference_ghz > 0.0 && self.reference_io_mbps > 0.0);
        assert!((0.0..1.0).contains(&self.greedy_estimate_error));
    }
}

/// Two-tier market configuration: on a sharded run every shard gets a
/// broker that bids its aggregate supply/ln-price signals on a parent
/// market, and the clearing result (quotas + clearing prices) drives the
/// cross-shard router. The default is the QA-NT parent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// The parent market's mechanism and price dynamics.
    pub market: ParentMarketConfig,
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
        BrokerConfig::with(ParentMechanism::QaNt)
    }

    /// WALRAS-style tâtonnement at the broker tier: the parent iterates
    /// its ln-price against the brokers' aggregate supply curves until the
    /// window clears within tolerance.
    pub fn walras() -> BrokerConfig {
        BrokerConfig::with(ParentMechanism::Walras)
    }

    /// The default parent-market tuning under `mechanism`.
    fn with(mechanism: ParentMechanism) -> BrokerConfig {
        BrokerConfig {
            market: ParentMarketConfig {
                mechanism,
                ..ParentMarketConfig::default()
            },
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on out-of-range market parameters.
    pub fn validate(&self) {
        self.market.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broker_presets_pick_their_mechanism() {
        let q = BrokerConfig::qant();
        q.validate();
        assert_eq!(q.market.mechanism, ParentMechanism::QaNt);
        let w = BrokerConfig::walras();
        w.validate();
        assert_eq!(w.market.mechanism, ParentMechanism::Walras);
        assert_eq!(BrokerConfig::default(), q);
    }

    #[test]
    fn paper_defaults_match_table3() {
        let c = SimConfig::paper_defaults();
        c.validate();
        assert_eq!(c.num_nodes, 100);
        assert_eq!(c.period, SimDuration::from_millis(500));
        assert_eq!(c.cpu_ghz, (1.0, 3.5));
        assert_eq!(c.io_mbps, (5.0, 80.0));
        assert_eq!(c.buffer_mb, (2.0, 10.0));
        assert!((c.hash_join_fraction - 0.95).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn validate_rejects_inverted_range() {
        let mut c = SimConfig::paper_defaults();
        c.cpu_ghz = (3.0, 1.0);
        c.validate();
    }
}
