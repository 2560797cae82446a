//! The broker tier of the two-tier market (DESIGN.md §12).
//!
//! Every shard of a [`crate::sharded::ShardPlan`] run gets a first-class
//! broker: at each period boundary the shard's aggregate per-class supply
//! and mean ln-price become the broker's sealed [`BrokerBid`] on a parent
//! market. The [`BrokerTier`] owns that market and, once per boundary:
//!
//! 1. submits the shards' bids (`broker_bid` telemetry, one per shard),
//! 2. clears the window's demand — the arrivals just routed plus the
//!    escalated carry from the previous window — through the parent
//!    mechanism (`parent_cleared` telemetry),
//! 3. escalates what could not be placed into the next window, capped at
//!    the tier's reported capacity (`demand_escalated` telemetry), and
//! 4. rewrites the router weights from the shards' reports, not from the
//!    clearing: each home shard's weight is the remaining class supply it
//!    bid, so the next window's arrivals of a class are split in
//!    proportion to the supply its home shards have left.
//!
//! Everything here runs serially at the boundary, so the tier is
//! byte-stable across thread budgets for free; cross-tier traffic stays at
//! 2·S messages per period (bids up, quotas + prices down — escalation is
//! parent-local state, not a message).

use crate::config::BrokerConfig;
use qa_economics::parent::{BrokerBid, ClearingOutcome, ParentMarket};
use qa_simnet::telemetry::{Telemetry, TelemetryEvent};

/// Parent-market state for one sharded run.
pub struct BrokerTier {
    market: ParentMarket,
    /// Demand per class the parent could not place last window, carried
    /// into the next clearing.
    escalated: Vec<u64>,
    /// Lifetime units escalated across all windows (diagnostics).
    pub(crate) total_escalated: u64,
    /// Lifetime price-adjustment rounds spent by the parent (diagnostics;
    /// internal to the parent, not cross-tier messages).
    pub(crate) total_rounds: u64,
    telemetry: Telemetry,
}

impl BrokerTier {
    /// A broker tier over `k` classes. The telemetry handle should carry
    /// the driver's sim-time clock; pass [`Telemetry::disabled`] when no
    /// trace is wanted.
    pub fn new(k: usize, config: &BrokerConfig, telemetry: Telemetry) -> BrokerTier {
        BrokerTier {
            market: ParentMarket::new(k, config.mechanism),
            escalated: vec![0; k],
            total_escalated: 0,
            total_rounds: 0,
            telemetry,
        }
    }

    /// One period boundary: clears `window_demand` (this window's routed
    /// arrivals, a one-window-lagged proxy for the next) plus the escalated
    /// carry against the shards' boundary signals, and rewrites the router
    /// `weights` over each class's home shards from the supply they report.
    ///
    /// `supply[s][k]` / `lnp[s][k]` are the boundary signals of shard `s`,
    /// bid as its capacity and reservation price; `weights[k][i]` indexes
    /// `home_shards[k][i]`, matching the router's layout. Classes with a
    /// single home shard keep their weight untouched (the router never
    /// reads it).
    pub fn clear_window(
        &mut self,
        home_shards: &[Vec<usize>],
        supply: &[Vec<u64>],
        lnp: &[Vec<f64>],
        window_demand: &[u64],
        weights: &mut [Vec<f64>],
    ) -> ClearingOutcome {
        let k = self.market.num_classes();
        assert_eq!(window_demand.len(), k, "demand class count mismatch");
        let bids: Vec<BrokerBid> = supply
            .iter()
            .zip(lnp)
            .enumerate()
            .map(|(s, (sup, prices))| {
                // The parent sorts brokers on these prices with
                // `total_cmp`, which would rank a NaN last without a word.
                assert!(
                    sup.len() == k && prices.len() == k && prices.iter().all(|p| p.is_finite()),
                    "shard {s}: a bid needs {k} supplies and finite ln-prices, \
                     got {sup:?} and {prices:?}"
                );
                self.telemetry.emit(|| TelemetryEvent::BrokerBid {
                    broker: s as u32,
                    supply: sup.clone(),
                    mean_ln_price: prices.clone(),
                });
                BrokerBid {
                    capacity: sup.clone(),
                    reservation_ln: prices.clone(),
                }
            })
            .collect();
        let demand: Vec<u64> = window_demand
            .iter()
            .zip(&self.escalated)
            .map(|(w, e)| w + e)
            .collect();
        let outcome = self.market.clear(&bids, &demand);
        self.total_rounds += u64::from(outcome.rounds);
        self.telemetry.emit(|| TelemetryEvent::ParentCleared {
            rounds: outcome.rounds,
            ln_prices: outcome.ln_prices.clone(),
            unserved: outcome.unserved.clone(),
        });
        self.escalated = escalation_cap(&outcome.unserved, &bids);
        for (kc, &units) in self.escalated.iter().enumerate() {
            if units > 0 {
                self.total_escalated += units;
                self.telemetry.emit(|| TelemetryEvent::DemandEscalated {
                    class: kc as u32,
                    units,
                });
            }
        }
        for (kc, homes) in home_shards.iter().enumerate() {
            if homes.len() <= 1 {
                continue;
            }
            for (w, &s) in weights[kc].iter_mut().zip(homes) {
                *w = supply[s][kc] as f64;
            }
        }
        outcome
    }
}

/// Bounds escalated demand at the tier's reported capacity: demand the
/// parent could not place re-enters the *next* window's clearing, but only
/// up to what the brokers collectively bid this window — anything beyond
/// that could never clear and would compound into an unbounded carry under
/// sustained overload (the excess stays queued at the shards, which is
/// where QA-NT's own back-pressure handles it).
fn escalation_cap(unserved: &[u64], bids: &[BrokerBid]) -> Vec<u64> {
    let mut capped = unserved.to_vec();
    for (k, u) in capped.iter_mut().enumerate() {
        let tier_supply: u64 = bids.iter().map(|b| b.capacity[k]).sum();
        *u = (*u).min(tier_supply);
    }
    capped
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::telemetry::read_trace;

    fn tier(k: usize) -> BrokerTier {
        BrokerTier::new(k, &BrokerConfig::qant(), Telemetry::disabled())
    }

    #[test]
    fn unplaced_demand_escalates_into_the_next_window() {
        let mut t = tier(1);
        let home_shards = vec![vec![0usize, 1]];
        let supply = vec![vec![3u64], vec![2u64]];
        let lnp = vec![vec![0.0], vec![0.0]];
        let mut weights = vec![vec![1.0, 1.0]];
        // 9 demanded, 5 available: 4 unserved, all within tier supply.
        let out = t.clear_window(&home_shards, &supply, &lnp, &[9], &mut weights);
        assert_eq!(out.unserved[0], 4);
        assert_eq!(t.escalated, &[4]);
        assert_eq!(t.total_escalated, 4);
        // Next window: 2 new arrivals + 4 carried = 6 demanded, 5 placed.
        let out = t.clear_window(&home_shards, &supply, &lnp, &[2], &mut weights);
        assert_eq!(out.unserved[0], 1);
        assert_eq!(t.escalated, &[1]);
    }

    #[test]
    fn escalation_is_bounded_by_reported_capacity() {
        let mut t = tier(1);
        let home_shards = vec![vec![0usize]];
        let supply = vec![vec![3u64]];
        let lnp = vec![vec![0.0]];
        let mut weights = vec![vec![1.0]];
        for _ in 0..50 {
            t.clear_window(&home_shards, &supply, &lnp, &[100], &mut weights);
        }
        assert!(
            t.escalated[0] <= 3,
            "carry must stay within tier capacity, got {}",
            t.escalated[0]
        );
    }

    #[test]
    fn escalation_is_capped_at_tier_supply() {
        let bid = |capacity: Vec<u64>| BrokerBid {
            reservation_ln: vec![0.0; capacity.len()],
            capacity,
        };
        let bids = vec![bid(vec![3, 10]), bid(vec![2, 0])];
        // Class 0: tier supply 5 caps the carry; class 1: carry fits.
        assert_eq!(escalation_cap(&[100, 4], &bids), vec![5, 4]);
        // No bids at all: nothing can be escalated.
        assert_eq!(escalation_cap(&[9], &[]), vec![0]);
    }

    #[test]
    #[should_panic(expected = "finite ln-prices")]
    fn validation_rejects_nan_prices() {
        let mut t = tier(1);
        let lnp = vec![vec![0.0], vec![f64::NAN]];
        let mut weights = vec![vec![1.0, 1.0]];
        t.clear_window(&[vec![0, 1]], &[vec![1], vec![1]], &lnp, &[2], &mut weights);
    }

    #[test]
    fn boundary_emits_the_broker_event_taxonomy_in_order() {
        let (tel, buf) = Telemetry::buffered();
        tel.set_now_us(500_000);
        let mut t = BrokerTier::new(1, &BrokerConfig::walras(), tel);
        let home_shards = vec![vec![0usize, 1]];
        let supply = vec![vec![2u64], vec![1u64]];
        let lnp = vec![vec![0.1], vec![0.4]];
        let mut weights = vec![vec![1.0, 1.0]];
        t.clear_window(&home_shards, &supply, &lnp, &[8], &mut weights);
        let records = buf.records();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "broker_bid",
                "broker_bid",
                "parent_cleared",
                "demand_escalated"
            ]
        );
        assert!(records.iter().all(|r| r.t_us == 500_000));
        // The records read back through the strict trace reader — the
        // trace contract for the broker-tier kinds.
        assert_eq!(read_trace(&buf.to_jsonl()), Ok(records));
    }
}
