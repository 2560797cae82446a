//! Decentralized non-tâtonnement price adjustment (§3.3, QA-NT steps 9 and
//! 12–14) and the Definition-4 trading rule.
//!
//! In the non-tâtonnement process there is no umpire and trade happens at
//! disequilibrium prices. Each node keeps a *private* price vector, never
//! disclosed on the network, and adjusts it from trading failures alone:
//!
//! * a request for class `k` arrives but the node's remaining supply is
//!   exhausted (`s_ik = 0`) → the node infers excess demand and raises
//!   `pₖ ← pₖ + λ·pₖ` (step 9);
//! * at period end, `s_ik > 0` units remain unsold → the node infers excess
//!   supply and lowers `pₖ ← pₖ − s_ik·λ·pₖ` (steps 12–14).
//!
//! [`NonTatonnementPricer`] is that private state machine. It is the heart
//! of QA-NT and is reused verbatim by the simulator (`qa-sim`) and by the
//! threaded cluster (`qa-cluster`).

use crate::vectors::{PriceVector, QuantityVector};
use qa_simnet::telemetry::{PriceReason, Telemetry, TelemetryEvent};

/// Tuning knobs of the price dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricerConfig {
    /// Adjustment speed λ.
    pub lambda: f64,
    /// Initial price of every class.
    pub initial_price: f64,
    /// Prices never fall below this (multiplicative dynamics cannot leave
    /// zero).
    pub price_floor: f64,
    /// Prices never rise above this (guards against runaway growth during
    /// long overloads).
    pub price_ceiling: f64,
}

impl Default for PricerConfig {
    fn default() -> Self {
        PricerConfig {
            lambda: 0.1,
            initial_price: 1.0,
            price_floor: 1e-9,
            price_ceiling: 1e12,
        }
    }
}

impl PricerConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on non-finite or non-positive values, λ outside `(0, 1)`, or
    /// an inverted floor/ceiling pair.
    pub fn validate(&self) {
        assert!(
            self.lambda.is_finite() && self.lambda > 0.0 && self.lambda < 1.0,
            "lambda must be in (0,1), got {}",
            self.lambda
        );
        assert!(
            self.price_floor.is_finite() && self.price_floor > 0.0,
            "bad floor"
        );
        assert!(
            self.price_ceiling.is_finite() && self.price_ceiling > self.price_floor,
            "bad ceiling"
        );
        assert!(
            self.initial_price >= self.price_floor && self.initial_price <= self.price_ceiling,
            "initial price outside [floor, ceiling]"
        );
    }
}

/// A node's private price state and its non-tâtonnement dynamics.
#[derive(Debug, Clone)]
pub struct NonTatonnementPricer {
    config: PricerConfig,
    prices: PriceVector,
    /// Rejections recorded this period, per class (diagnostics).
    rejections: Vec<u64>,
    /// Event sink for `PriceAdjusted` telemetry; disabled (a single
    /// branch per adjustment) unless [`NonTatonnementPricer::set_telemetry`]
    /// installs a labeled handle.
    telemetry: Telemetry,
}

impl NonTatonnementPricer {
    /// A pricer with explicit (already jittered) initial prices. Because
    /// the non-tâtonnement dynamics are multiplicative, initial log-price
    /// offsets between nodes persist forever — heterogeneous starting
    /// prices are what desynchronizes otherwise-identical sellers into a
    /// stable mix of specializations.
    pub fn with_prices(prices: PriceVector, config: PricerConfig) -> Self {
        config.validate();
        let k = prices.num_classes();
        NonTatonnementPricer {
            prices,
            rejections: vec![0; k],
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle (label it with the owning node id via
    /// [`Telemetry::with_label`] first); price adjustments emit
    /// [`TelemetryEvent::PriceAdjusted`] through it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Rescales all prices so their geometric mean is 1.
    ///
    /// A competitive market is invariant to a uniform price rescaling (only
    /// relative prices drive supply decisions), so this changes nothing
    /// economically — but it keeps long overloads from driving every price
    /// into the ceiling/floor clamps, which *would* destroy the relative
    /// structure.
    pub fn renormalize(&mut self) {
        let k = self.num_classes();
        if k == 0 {
            return;
        }
        let log_mean: f64 = self.prices.iter().map(|(_, p)| p.ln()).sum::<f64>() / k as f64;
        let scale = log_mean.exp();
        if !scale.is_finite() || scale <= 0.0 {
            return;
        }
        for kk in 0..k {
            let old = self.prices.get(kk);
            let p = old / scale;
            self.prices.set(
                kk,
                p.clamp(self.config.price_floor, self.config.price_ceiling),
                self.config.price_floor,
            );
            let new = self.prices.get(kk);
            if new != old {
                let telemetry = &self.telemetry;
                telemetry.emit(|| TelemetryEvent::PriceAdjusted {
                    node: telemetry.label(),
                    class: kk as u32,
                    old,
                    new,
                    reason: PriceReason::Renormalize,
                });
            }
        }
    }
}

impl NonTatonnementPricer {
    /// A pricer over `k` classes starting at the configured initial price.
    pub fn new(k: usize, config: PricerConfig) -> Self {
        config.validate();
        NonTatonnementPricer {
            prices: PriceVector::uniform(k, config.initial_price),
            rejections: vec![0; k],
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The current private prices.
    pub fn prices(&self) -> &PriceVector {
        &self.prices
    }

    /// Batched price read: writes `ln(price_k)` for every class into
    /// `out` (sized to the class count) in one call. The log domain is
    /// what aggregated price signals are exchanged in — the geometric
    /// mean over a region's pricers is an arithmetic mean of these — so
    /// the sharded engine's per-period reports read each market exactly
    /// once instead of taking `K` getter round-trips.
    ///
    /// # Panics
    /// Panics when `out` is not sized to the class count.
    pub fn ln_prices_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_classes(), "class count mismatch");
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.ln_price(k);
        }
    }

    /// `ln(price_k)`, the one-class form of [`Self::ln_prices_into`].
    pub fn ln_price(&self, k: usize) -> f64 {
        self.prices.get(k).max(f64::MIN_POSITIVE).ln()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.prices.num_classes()
    }

    /// The configuration.
    pub fn config(&self) -> &PricerConfig {
        &self.config
    }

    /// Step 9 of QA-NT: a class-`k` request had to be rejected because the
    /// node's supply for `k` is exhausted — price rises by a factor `1+λ`.
    pub fn on_rejection(&mut self, k: usize) {
        let p = self.prices.get(k);
        let raised = (p * (1.0 + self.config.lambda)).min(self.config.price_ceiling);
        self.prices.set(k, raised, self.config.price_floor);
        self.rejections[k] += 1;
        let new = self.prices.get(k);
        let telemetry = &self.telemetry;
        telemetry.emit(|| TelemetryEvent::PriceAdjusted {
            node: telemetry.label(),
            class: k as u32,
            old: p,
            new,
            reason: PriceReason::Rejection,
        });
    }

    /// Applies `count` consecutive [`NonTatonnementPricer::on_rejection`]s
    /// for class `k`. Bit-identical to calling `on_rejection` in a loop —
    /// the same stepwise `min(p·(1+λ), ceiling)` multiplications in the
    /// same order — but while telemetry is disabled the intermediate
    /// prices are unobservable, so the sequence runs in a register with a
    /// single store at the end (and stops early at a fixed point: the
    /// ceiling, where the remaining steps are no-ops). Enabled runs take
    /// the slow path and still emit one `PriceAdjusted` per rejection.
    ///
    /// Callers batch rejection storms: a client resubmission wave that
    /// was refused `count` times charges the price rise in one call
    /// instead of `count` market round-trips.
    pub fn on_rejections(&mut self, k: usize, count: u64) {
        if count == 0 {
            return;
        }
        if self.telemetry.is_enabled() {
            for _ in 0..count {
                self.on_rejection(k);
            }
            return;
        }
        // `raised` stays finite (min with a finite ceiling) and ≥ the
        // floor (prices never sit below it), so the one deferred
        // `set` is exactly the last of the per-step clamped sets.
        let factor = 1.0 + self.config.lambda;
        let ceiling = self.config.price_ceiling;
        let mut p = self.prices.get(k);
        for _ in 0..count {
            let raised = (p * factor).min(ceiling);
            if raised == p {
                break;
            }
            p = raised;
        }
        self.prices.set(k, p, self.config.price_floor);
        self.rejections[k] += count;
    }

    /// Replays per-pricer rejection counts for class `k` across many
    /// pricers at once. Result-identical to calling
    /// [`Self::on_rejections`] on each pricer — every pricer's price walks
    /// its own `min(p·(1+λ), ceiling)` chain — but the chains are
    /// *independent across pricers*, so running eight of them interleaved
    /// hides the multiply latency that makes a lone chain serial.
    ///
    /// Lanes that exhaust their count early multiply by exactly `1.0`
    /// (a bit-exact identity for finite values) until the widest lane in
    /// the chunk finishes; a lane saturated at the ceiling keeps taking
    /// `min(ceiling·(1+λ), ceiling) = ceiling`. Like the lone chain, a
    /// chunk stops at its fixed point: once a stride of steps moves no
    /// lane, every lane is at its ceiling or out of refusals and the rest
    /// of the replay is identities. A refusal storm long enough to
    /// saturate prices (a few hundred steps at the default λ and ceiling)
    /// costs those steps, not its length. Callers must only use
    /// this while telemetry is disabled on every pricer (the eager path
    /// emits one `PriceAdjusted` per rejection).
    pub fn on_rejections_batch(
        pricers: &mut [&mut NonTatonnementPricer],
        k: usize,
        counts: &[u64],
    ) {
        assert_eq!(pricers.len(), counts.len());
        const LANES: usize = 8;
        /// Steps between fixed-point checks.
        const STRIDE: u64 = 16;
        let mut i = 0;
        while i < pricers.len() {
            let n = LANES.min(pricers.len() - i);
            if n == 1 {
                pricers[i].on_rejections(k, counts[i]);
                break;
            }
            let chunk = &mut pricers[i..i + n];
            // Idle lanes (j ≥ n, or exhausted ones once s ≥ d[j]) multiply
            // by exactly 1.0 — a bit-exact identity for finite values — so
            // the inner loop can run all LANES unconditionally with a
            // constant bound, which lets it unroll and vectorize.
            let mut p = [0.0f64; LANES];
            let mut fac = [1.0f64; LANES];
            let mut ceil = [f64::INFINITY; LANES];
            let mut d = [0u64; LANES];
            for (j, pr) in chunk.iter().enumerate() {
                p[j] = pr.prices.get(k);
                fac[j] = 1.0 + pr.config.lambda;
                ceil[j] = pr.config.price_ceiling;
                d[j] = counts[i + j];
            }
            let dmax = d.iter().copied().max().unwrap_or(0);
            let mut done = 0;
            while done < dmax {
                let before = p;
                for s in done..dmax.min(done + STRIDE) {
                    for j in 0..LANES {
                        let f = if s < d[j] { fac[j] } else { 1.0 };
                        p[j] = (p[j] * f).min(ceil[j]);
                    }
                }
                // A lane never falls, so a stride that leaves all of them
                // where they were was identities throughout, and each
                // lane's step only ever repeats or turns into `× 1.0`.
                if p == before {
                    break;
                }
                done += STRIDE;
            }
            for (j, pr) in chunk.iter_mut().enumerate() {
                pr.prices.set(k, p[j], pr.config.price_floor);
                pr.rejections[k] += d[j];
            }
            i += n;
        }
    }

    /// Steps 12–14 of QA-NT: the period ended with `leftover` unsold supply;
    /// each class' price falls by `s_ik·λ·pₖ`, clamped so it stays positive.
    ///
    /// Also resets the per-period rejection counters.
    pub fn on_period_end(&mut self, leftover: &QuantityVector) {
        assert_eq!(leftover.num_classes(), self.num_classes());
        for (k, s) in leftover.iter() {
            if s > 0 {
                let p = self.prices.get(k);
                // p − s·λ·p can go negative for large leftovers; the price
                // floor (and a multiplicative clamp at 1−λ·s capped below 1)
                // keeps the dynamics sane.
                let factor = (1.0 - self.config.lambda * s as f64).max(0.0);
                self.prices.set(
                    k,
                    (p * factor).max(self.config.price_floor),
                    self.config.price_floor,
                );
                let new = self.prices.get(k);
                let telemetry = &self.telemetry;
                telemetry.emit(|| TelemetryEvent::PriceAdjusted {
                    node: telemetry.label(),
                    class: k as u32,
                    old: p,
                    new,
                    reason: PriceReason::PeriodDecay,
                });
            }
        }
        self.rejections.iter_mut().for_each(|r| *r = 0);
    }

    /// Rejections observed for class `k` in the current period.
    pub fn rejections(&self, k: usize) -> u64 {
        self.rejections[k]
    }

    /// `true` when the node should consider the system overloaded: §5.1
    /// suggests tracking prices and engaging QA-NT's supply restriction
    /// "only ... if they are above a specific threshold".
    pub fn any_price_above(&self, threshold: f64) -> bool {
        self.prices.iter().any(|(_, p)| p > threshold)
    }
}

/// Checks rule 1 of Definition 4 (feasibility): after the proposed
/// incremental trade `delta`, the seller's new supply vector must still lie
/// in its supply set.
pub fn trade_is_feasible<S: crate::supply::SupplySet>(
    seller_supply: &QuantityVector,
    delta: &QuantityVector,
    seller_set: &S,
) -> bool {
    let new_supply = seller_supply.clone() + delta;
    seller_set.contains(&new_supply)
}

/// Checks rule 2 of Definition 4 (exhaustion): the buyer's post-trade
/// consumption must be weakly preferred to any alternative single-step
/// extension the seller could still feasibly offer. Under the throughput
/// preference this reduces to: there is no class the seller could still
/// supply that the buyer still demands — i.e. the trade exhausted all
/// possibilities of further trade between the pair.
pub fn trade_exhausts_pair<S: crate::supply::SupplySet>(
    buyer_unmet_demand: &QuantityVector,
    seller_supply_after: &QuantityVector,
    seller_set: &S,
) -> bool {
    (0..buyer_unmet_demand.num_classes())
        .all(|k| buyer_unmet_demand.get(k) == 0 || !seller_set.can_add(seller_supply_after, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::LinearCapacitySet;

    fn qv(v: &[u64]) -> QuantityVector {
        QuantityVector::from_counts(v.to_vec())
    }

    #[test]
    fn rejection_raises_price_multiplicatively() {
        let mut p = NonTatonnementPricer::new(2, PricerConfig::default());
        let before = p.prices().get(0);
        p.on_rejection(0);
        assert!((p.prices().get(0) - before * 1.1).abs() < 1e-12);
        assert_eq!(p.prices().get(1), 1.0, "other classes untouched");
        assert_eq!(p.rejections(0), 1);
    }

    #[test]
    fn leftover_supply_lowers_price() {
        let mut p = NonTatonnementPricer::new(2, PricerConfig::default());
        p.on_period_end(&qv(&[3, 0]));
        // p ← p(1 − 3λ) = 1 × 0.7
        assert!((p.prices().get(0) - 0.7).abs() < 1e-12);
        assert_eq!(p.prices().get(1), 1.0);
    }

    #[test]
    fn huge_leftover_clamps_at_floor_not_negative() {
        let mut p = NonTatonnementPricer::new(1, PricerConfig::default());
        p.on_period_end(&qv(&[1_000]));
        let price = p.prices().get(0);
        assert!(price >= p.config().price_floor);
        assert!(price <= 1e-5, "price should have collapsed to the floor");
    }

    #[test]
    fn ceiling_stops_runaway_growth() {
        let cfg = PricerConfig {
            price_ceiling: 10.0,
            ..PricerConfig::default()
        };
        let mut p = NonTatonnementPricer::new(1, cfg);
        for _ in 0..1_000 {
            p.on_rejection(0);
        }
        assert!(p.prices().get(0) <= 10.0 + 1e-9);
    }

    #[test]
    fn batched_replay_matches_stepwise_rejections() {
        // Counts short of, at and far past the ~290 steps that take a
        // price from 1 to the ceiling; more pricers than one chunk; one
        // with a low ceiling of its own; and a lone tail lane.
        let counts = [
            0u64, 1, 15, 16, 17, 100, 289, 290, 291, 700, 5_000, 700, 3, 2, 40, 600, 1_000,
        ];
        assert_eq!(counts.len() % 8, 1);
        let tight = PricerConfig {
            price_ceiling: 50.0,
            ..PricerConfig::default()
        };
        let fresh = || -> Vec<NonTatonnementPricer> {
            (0..counts.len())
                .map(|i| {
                    let cfg = if i == 9 {
                        tight
                    } else {
                        PricerConfig::default()
                    };
                    let start = PriceVector::from_prices(vec![0.25 + 0.37 * i as f64, 1.0]);
                    NonTatonnementPricer::with_prices(start, cfg)
                })
                .collect()
        };
        let mut stepwise = fresh();
        for (p, &n) in stepwise.iter_mut().zip(&counts) {
            for _ in 0..n {
                p.on_rejection(0);
            }
        }
        let mut batched = fresh();
        let mut lanes: Vec<&mut NonTatonnementPricer> = batched.iter_mut().collect();
        NonTatonnementPricer::on_rejections_batch(&mut lanes, 0, &counts);
        for (i, (a, b)) in stepwise.iter().zip(&batched).enumerate() {
            assert_eq!(
                a.prices().get(0).to_bits(),
                b.prices().get(0).to_bits(),
                "lane {i}, {} refusals",
                counts[i]
            );
            assert_eq!(b.prices().get(1), 1.0, "other class untouched");
            assert_eq!(a.rejections(0), b.rejections(0));
        }
        assert_eq!(batched[10].prices().get(0), 1e12, "5 000 steps saturate");
    }

    #[test]
    fn period_end_resets_rejection_counters() {
        let mut p = NonTatonnementPricer::new(1, PricerConfig::default());
        p.on_rejection(0);
        p.on_rejection(0);
        assert_eq!(p.rejections(0), 2);
        p.on_period_end(&qv(&[0]));
        assert_eq!(p.rejections(0), 0);
    }

    #[test]
    fn balanced_period_leaves_prices_unchanged() {
        let mut p = NonTatonnementPricer::new(3, PricerConfig::default());
        let before = p.prices().clone();
        p.on_period_end(&qv(&[0, 0, 0]));
        assert_eq!(p.prices(), &before);
    }

    #[test]
    fn overload_detection_threshold() {
        let mut p = NonTatonnementPricer::new(2, PricerConfig::default());
        assert!(!p.any_price_above(2.0));
        for _ in 0..10 {
            p.on_rejection(1);
        }
        assert!(p.any_price_above(2.0));
    }

    #[test]
    fn sustained_rejections_beat_decay() {
        // A class rejected every period while another is left over must end
        // up relatively more expensive — that is the signal that shifts
        // supply in QA-NT.
        let mut p = NonTatonnementPricer::new(2, PricerConfig::default());
        for _ in 0..20 {
            p.on_rejection(0);
            p.on_period_end(&qv(&[0, 1]));
        }
        assert!(p.prices().get(0) > 5.0 * p.prices().get(1));
    }

    #[test]
    fn definition4_feasibility() {
        let set = LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0);
        let current = qv(&[0, 3]);
        assert!(trade_is_feasible(&current, &qv(&[0, 2]), &set)); // 500 total
        assert!(!trade_is_feasible(&current, &qv(&[1, 0]), &set)); // 700 > 500
    }

    #[test]
    fn definition4_exhaustion() {
        let set = LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0);
        // Seller already supplies (0,5): full. No further trade possible.
        assert!(trade_exhausts_pair(&qv(&[1, 2]), &qv(&[0, 5]), &set));
        // Seller at (0,3) could still add q2, and the buyer still wants q2:
        // the trade did NOT exhaust the pair.
        assert!(!trade_exhausts_pair(&qv(&[0, 2]), &qv(&[0, 3]), &set));
        // Buyer wants nothing: trivially exhausted.
        assert!(trade_exhausts_pair(&qv(&[0, 0]), &qv(&[0, 0]), &set));
    }

    #[test]
    fn adjustments_emit_labeled_telemetry() {
        let (tel, buf) = Telemetry::buffered();
        let mut p = NonTatonnementPricer::new(2, PricerConfig::default());
        p.set_telemetry(tel.with_label(7));
        p.on_rejection(0);
        p.on_period_end(&qv(&[0, 2]));
        let records = buf.records();
        assert_eq!(records.len(), 2);
        match &records[0].event {
            TelemetryEvent::PriceAdjusted {
                node,
                class,
                old,
                new,
                reason,
            } => {
                assert_eq!((*node, *class), (7, 0));
                assert_eq!(*reason, PriceReason::Rejection);
                assert!((new / old - 1.1).abs() < 1e-12);
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &records[1].event {
            TelemetryEvent::PriceAdjusted { class, reason, .. } => {
                assert_eq!(*class, 1);
                assert_eq!(*reason, PriceReason::PeriodDecay);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn config_validation_rejects_bad_lambda() {
        let cfg = PricerConfig {
            lambda: 1.5,
            ..PricerConfig::default()
        };
        let _ = NonTatonnementPricer::new(1, cfg);
    }
}
