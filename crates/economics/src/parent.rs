//! Parent-market clearing over broker bids — the hierarchical tier.
//!
//! A sharded federation (`qa_sim::sharded`) runs one complete QA-NT market
//! per shard. This module is the *second* tier: each shard's broker
//! aggregates its per-class supply and mean ln-price into a [`BrokerBid`],
//! and a [`ParentMarket`] clears the bids against the window's cross-shard
//! demand. Two mechanisms are offered behind [`ParentMechanism`]:
//!
//! * **QA-NT at the broker tier** — the parent keeps its own private
//!   [`NonTatonnementPricer`] over classes. Demand is rationed to the
//!   cheapest brokers first; unmet demand registers as rejections (price
//!   rises ×(1+λ)) and unsold broker capacity as period-end leftover
//!   (price falls). No iteration, no extra messages: one clearing per
//!   period window, exactly like a node's market step.
//! * **WALRAS-style tâtonnement** — following Wellman's multicommodity-flow
//!   decomposition, each broker is summarized by a log-linear supply curve
//!   anchored at its reservation ln-price, and the parent iterates
//!   `π ← π + λ·ẑ(π)` (relative excess demand, log-price space) until the
//!   market clears within tolerance. The iteration is *local to the
//!   parent* — brokers submitted their curves once, so cross-tier traffic
//!   stays O(S) messages per period regardless of the round count.
//!
//! Both mechanisms produce a [`ClearingOutcome`]: integer per-broker
//! allocations (never exceeding reported capacity), the parent's clearing
//! ln-prices (these flow *down* to bias per-shard routing credits), and the
//! unserved excess demand (this flows *up*, to be escalated into the next
//! window's clearing).

use crate::non_tatonnement::{NonTatonnementPricer, PriceRules, PricerConfig};
use crate::vectors::QuantityVector;

/// Which clearing mechanism the parent market runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentMechanism {
    /// Non-tâtonnement: one greedy cheapest-first rationing per window,
    /// prices adjusted from unmet demand / unsold capacity afterwards.
    QaNt,
    /// Tâtonnement: iterate the parent ln-price against the brokers'
    /// aggregate supply curves until relative excess demand is within
    /// tolerance, then ration at the clearing price.
    Walras,
}

/// WALRAS step size on relative excess demand (log-price space).
const WALRAS_LAMBDA: f64 = 0.5;
/// WALRAS round budget per class per window.
const MAX_ROUNDS: u32 = 64;
/// WALRAS stop tolerance on |excess demand| / demand.
const TOLERANCE: f64 = 0.05;
/// QA-NT leftover saturation: unsold parent-tier capacity scales with
/// shard size (thousands of units), not with a node's supply, so the
/// period-decay signal is capped here — without it one underloaded
/// window drives the parent price to the floor and the downward bias
/// loses all shape.
const LEFTOVER_CAP: u64 = 5;

/// One broker's sealed bid for a clearing window: per-class capacity on
/// offer and the reservation ln-price it was aggregated at (the mean
/// ln-price across the shard's nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerBid {
    /// Units of class-`k` supply the broker's shard reported.
    pub capacity: Vec<u64>,
    /// Mean ln-price of class `k` across the shard — the broker's
    /// reservation price for its capacity.
    pub reservation_ln: Vec<f64>,
}

/// The result of clearing one window.
#[derive(Debug, Clone, PartialEq)]
pub struct ClearingOutcome {
    /// `allocations[b][k]` — units of class `k` awarded to broker `b`.
    /// Never exceeds the broker's reported capacity.
    pub(crate) allocations: Vec<Vec<u64>>,
    /// The parent's clearing ln-price per class after this window.
    pub ln_prices: Vec<f64>,
    /// Demand the market could not place this window, per class. The
    /// caller escalates it into the next window.
    pub unserved: Vec<u64>,
    /// Price-adjustment rounds spent (0 or 1 per class for QA-NT, up to
    /// `MAX_ROUNDS` per class for WALRAS). Internal to the parent — not
    /// cross-tier messages.
    pub rounds: u32,
}

/// The parent market: persistent price state plus the clearing solver.
#[derive(Debug, Clone)]
pub struct ParentMarket {
    mechanism: ParentMechanism,
    /// QA-NT price state (used when `mechanism == QaNt`); its band
    /// ([`PriceRules`]' floor and ceiling) also clamps the WALRAS
    /// ln-price.
    pricer: NonTatonnementPricer,
    /// WALRAS ln-price state, warm-started across windows.
    walras_ln: Vec<f64>,
}

impl ParentMarket {
    /// A parent market over `k` classes, priced by
    /// [`PricerConfig::default`].
    pub fn new(k: usize, mechanism: ParentMechanism) -> Self {
        let pricer = NonTatonnementPricer::new(k, PricerConfig::default());
        ParentMarket {
            walras_ln: vec![PriceRules::INITIAL_PRICE.ln(); k],
            pricer,
            mechanism,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.walras_ln.len()
    }

    /// Clears one window: rations `demand` (per class) across the broker
    /// `bids` and adjusts the parent prices. Allocation is conservative —
    /// for every class, `Σ_b allocations[b][k] + unserved[k] == demand[k]`
    /// and `allocations[b][k] <= bids[b].capacity[k]`.
    ///
    /// # Panics
    /// Panics when `bids` is empty, a bid's class count differs from the
    /// market's, or `demand` is mis-sized.
    pub fn clear(&mut self, bids: &[BrokerBid], demand: &[u64]) -> ClearingOutcome {
        let k = self.num_classes();
        assert!(!bids.is_empty(), "cannot clear a market with no brokers");
        assert_eq!(demand.len(), k, "demand class count mismatch");
        for (b, bid) in bids.iter().enumerate() {
            assert_eq!(bid.capacity.len(), k, "broker {b} capacity class count");
            assert_eq!(
                bid.reservation_ln.len(),
                k,
                "broker {b} reservation class count"
            );
        }
        match self.mechanism {
            ParentMechanism::QaNt => self.clear_qant(bids, demand),
            ParentMechanism::Walras => self.clear_walras(bids, demand),
        }
    }

    /// Brokers ordered cheapest-first for class `k` (reservation ln-price,
    /// then index — deterministic under ties).
    fn order_for_class(bids: &[BrokerBid], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..bids.len()).collect();
        order.sort_by(|&a, &b| {
            bids[a].reservation_ln[k]
                .total_cmp(&bids[b].reservation_ln[k])
                .then(a.cmp(&b))
        });
        order
    }

    fn clear_qant(&mut self, bids: &[BrokerBid], demand: &[u64]) -> ClearingOutcome {
        let k = self.num_classes();
        let mut allocations = vec![vec![0u64; k]; bids.len()];
        let mut unserved = vec![0u64; k];
        let mut leftover = vec![0u64; k];
        let mut rounds = 0u32;
        for kk in 0..k {
            let mut remaining = demand[kk];
            for &b in &Self::order_for_class(bids, kk) {
                let take = remaining.min(bids[b].capacity[kk]);
                allocations[b][kk] = take;
                remaining -= take;
            }
            unserved[kk] = remaining;
            let total_cap: u64 = bids.iter().map(|b| b.capacity[kk]).sum();
            let sold: u64 = demand[kk] - remaining;
            leftover[kk] = (total_cap - sold).min(LEFTOVER_CAP);
            if remaining > 0 {
                // Excess demand at the broker tier: the parent infers the
                // tier is under-supplied and raises the class price, just
                // as a node does on a rejected request.
                self.pricer.on_rejections(kk, remaining);
                rounds += 1;
            } else if leftover[kk] > 0 {
                rounds += 1;
            }
        }
        self.pricer
            .on_period_end(&QuantityVector::from_counts(leftover));
        let mut ln_prices = vec![0.0; k];
        self.pricer.ln_prices_into(&mut ln_prices);
        ClearingOutcome {
            allocations,
            ln_prices,
            unserved,
            rounds,
        }
    }

    /// A broker's supply response at parent ln-price `pi`: full capacity at
    /// or above its reservation, an exponential ramp `c·e^{π−r}` below it
    /// (continuous at `π = r`, vanishing as the parent price falls far
    /// below what the shard charges).
    fn supply_at(bid: &BrokerBid, k: usize, pi: f64) -> f64 {
        let c = bid.capacity[k] as f64;
        let r = bid.reservation_ln[k];
        if pi >= r {
            c
        } else {
            c * (pi - r).exp()
        }
    }

    fn clear_walras(&mut self, bids: &[BrokerBid], demand: &[u64]) -> ClearingOutcome {
        let k = self.num_classes();
        let ln_floor = PriceRules::PRICE_FLOOR.ln();
        let ln_ceiling = PriceRules::PRICE_CEILING.ln();
        let mut allocations = vec![vec![0u64; k]; bids.len()];
        let mut unserved = vec![0u64; k];
        let mut rounds = 0u32;
        for kk in 0..k {
            let d = demand[kk];
            if d == 0 {
                // Nothing to place: leave the warm-started price alone so
                // an idle class does not drift to the floor.
                continue;
            }
            // Tâtonnement on relative excess demand, eq. (6) in log-price
            // space: π ← π + λ·(d − S(π))/d, clamped to the price bounds.
            let mut pi = self.walras_ln[kk];
            for _ in 0..MAX_ROUNDS {
                let supply: f64 = bids.iter().map(|b| Self::supply_at(b, kk, pi)).sum();
                let z_rel = (d as f64 - supply) / d as f64;
                if z_rel.abs() <= TOLERANCE {
                    break;
                }
                pi = (pi + WALRAS_LAMBDA * z_rel).clamp(ln_floor, ln_ceiling);
                rounds += 1;
                if pi == ln_floor && z_rel < 0.0 || pi == ln_ceiling && z_rel > 0.0 {
                    // Pinned at a bound with excess still pushing outward:
                    // further rounds cannot move the price.
                    break;
                }
            }
            self.walras_ln[kk] = pi;
            // Ration at the clearing price, cheapest brokers first; each
            // broker serves at most its supply response (and never more
            // than its reported capacity).
            let mut remaining = d;
            for &b in &Self::order_for_class(bids, kk) {
                let offer = Self::supply_at(&bids[b], kk, pi).floor() as u64;
                let take = remaining.min(offer.min(bids[b].capacity[kk]));
                allocations[b][kk] = take;
                remaining -= take;
            }
            unserved[kk] = remaining;
        }
        ClearingOutcome {
            allocations,
            ln_prices: self.walras_ln.clone(),
            unserved,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid(capacity: &[u64], reservation_ln: &[f64]) -> BrokerBid {
        BrokerBid {
            capacity: capacity.to_vec(),
            reservation_ln: reservation_ln.to_vec(),
        }
    }

    fn market(mechanism: ParentMechanism, k: usize) -> ParentMarket {
        ParentMarket::new(k, mechanism)
    }

    fn check_conservation(bids: &[BrokerBid], demand: &[u64], out: &ClearingOutcome) {
        for k in 0..demand.len() {
            let placed: u64 = out.allocations.iter().map(|a| a[k]).sum();
            assert_eq!(
                placed + out.unserved[k],
                demand[k],
                "class {k}: allocation + unserved must equal demand"
            );
            for (b, alloc) in out.allocations.iter().enumerate() {
                assert!(
                    alloc[k] <= bids[b].capacity[k],
                    "broker {b} over-allocated class {k}"
                );
            }
        }
    }

    #[test]
    fn qant_rations_cheapest_brokers_first() {
        let mut m = market(ParentMechanism::QaNt, 1);
        let bids = vec![
            bid(&[10], &[1.0]), // expensive
            bid(&[10], &[0.0]), // cheap
        ];
        let out = m.clear(&bids, &[12]);
        assert_eq!(out.allocations[1][0], 10, "cheap broker filled first");
        assert_eq!(out.allocations[0][0], 2, "expensive broker takes the rest");
        assert_eq!(out.unserved[0], 0);
        check_conservation(&bids, &[12], &out);
    }

    #[test]
    fn qant_tie_breaks_by_broker_index() {
        let mut m = market(ParentMechanism::QaNt, 1);
        let bids = vec![bid(&[5], &[0.5]), bid(&[5], &[0.5])];
        let out = m.clear(&bids, &[3]);
        assert_eq!(out.allocations[0][0], 3);
        assert_eq!(out.allocations[1][0], 0);
    }

    #[test]
    fn qant_excess_demand_raises_parent_price() {
        let mut m = market(ParentMechanism::QaNt, 1);
        let bids = vec![bid(&[4], &[0.0])];
        let before = {
            let mut p = [0.0];
            m.pricer.ln_prices_into(&mut p);
            p[0]
        };
        let out = m.clear(&bids, &[10]);
        assert_eq!(out.unserved[0], 6);
        assert!(out.ln_prices[0] > before, "unmet demand must raise price");
        check_conservation(&bids, &[10], &out);
    }

    #[test]
    fn qant_unsold_capacity_lowers_parent_price() {
        let mut m = market(ParentMechanism::QaNt, 1);
        let bids = vec![bid(&[100], &[0.0])];
        let out = m.clear(&bids, &[10]);
        assert_eq!(out.unserved[0], 0);
        assert!(
            out.ln_prices[0] < 0.0,
            "unsold capacity must lower the price below ln(1)=0"
        );
        // The leftover signal saturates: one idle window must not collapse
        // the price to the floor.
        assert!(out.ln_prices[0] > 1e-9f64.ln());
    }

    #[test]
    fn walras_converges_between_reservations() {
        let mut m = market(ParentMechanism::Walras, 1);
        let bids = vec![
            bid(&[100], &[0.0]),
            bid(&[100], &[10.0f64.ln()]), // 10× more expensive
        ];
        // Demand equals the cheap broker's capacity: the clearing price
        // settles near (below) the cheap reservation and most allocation
        // lands on the cheap broker.
        let out = m.clear(&bids, &[100]);
        assert!(out.rounds > 0, "tâtonnement must iterate");
        assert!(out.allocations[0][0] > out.allocations[1][0]);
        assert!(
            out.unserved[0] <= 10,
            "should clear within ~tolerance, unserved {}",
            out.unserved[0]
        );
        check_conservation(&bids, &[100], &out);
    }

    #[test]
    fn walras_overload_pins_ceiling_and_escalates() {
        let mut m = market(ParentMechanism::Walras, 1);
        let bids = vec![bid(&[10], &[0.0]), bid(&[10], &[0.5])];
        let out = m.clear(&bids, &[100]);
        assert_eq!(out.allocations[0][0] + out.allocations[1][0], 20);
        assert_eq!(out.unserved[0], 80);
        assert!(
            out.ln_prices[0] > 1.0,
            "sustained excess demand must push the price up"
        );
        check_conservation(&bids, &[100], &out);
    }

    #[test]
    fn walras_zero_demand_class_keeps_warm_price() {
        let mut m = market(ParentMechanism::Walras, 2);
        let bids = vec![bid(&[10, 10], &[0.3, 0.7])];
        let first = m.clear(&bids, &[8, 0]);
        assert_eq!(first.unserved[1], 0);
        let idle_price = first.ln_prices[1];
        let second = m.clear(&bids, &[8, 0]);
        assert_eq!(
            second.ln_prices[1], idle_price,
            "idle class price must not drift"
        );
    }

    #[test]
    fn walras_warm_start_converges_faster() {
        let mut m = market(ParentMechanism::Walras, 1);
        let bids = vec![bid(&[50], &[2.0]), bid(&[50], &[3.0])];
        let cold = m.clear(&bids, &[60]).rounds;
        let warm = m.clear(&bids, &[60]).rounds;
        assert!(
            warm <= cold,
            "warm start ({warm} rounds) must not exceed cold start ({cold})"
        );
    }

    #[test]
    fn both_mechanisms_conserve_on_mixed_load() {
        for mech in [ParentMechanism::QaNt, ParentMechanism::Walras] {
            let mut m = market(mech, 3);
            let bids = vec![
                bid(&[5, 0, 40], &[0.2, 0.0, 1.4]),
                bid(&[0, 9, 3], &[0.0, 2.2, 0.1]),
                bid(&[7, 7, 7], &[1.0, 1.0, 1.0]),
            ];
            for demand in [[0u64, 0, 0], [12, 3, 60], [1, 99, 2]] {
                let out = m.clear(&bids, &demand);
                check_conservation(&bids, &demand, &out);
            }
        }
    }

    #[test]
    fn clearing_is_deterministic() {
        for mech in [ParentMechanism::QaNt, ParentMechanism::Walras] {
            let run = || {
                let mut m = market(mech, 2);
                let bids = vec![bid(&[8, 2], &[0.1, 0.9]), bid(&[3, 11], &[0.6, 0.2])];
                let a = m.clear(&bids, &[5, 9]);
                let b = m.clear(&bids, &[9, 5]);
                format!("{a:?}|{b:?}")
            };
            assert_eq!(run(), run());
        }
    }

    #[test]
    #[should_panic(expected = "no brokers")]
    fn clearing_requires_brokers() {
        let mut m = market(ParentMechanism::QaNt, 1);
        let _ = m.clear(&[], &[1]);
    }
}
