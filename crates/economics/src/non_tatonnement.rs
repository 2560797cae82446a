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
//! The three price moves are functions over a price row —
//! [`RefusalChain`] (step 9, one step or a replayed batch),
//! [`PricerConfig::decay_leftover`] (steps 12–14) and
//! [`PricerConfig::renormalize`] — so a population of sellers can keep its
//! rows in one block (`qa_core::QantMarket`, which the simulator and the
//! threaded cluster run) and still share this one arithmetic.
//! [`NonTatonnementPricer`] is the same state machine over one owned row:
//! the parent market's pricer.

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

/// Lanes one [`RefusalChain::replay`] call takes: a block's gathered
/// prices and counts fit the stack.
pub const REPLAY_BLOCK: usize = 64;

/// What a [`RefusalChain::replay`] did, in lanes: a function of the prices
/// and counts alone, so a run's totals repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayWork {
    /// Lanes whose chain was walked step by step.
    pub walked: u64,
    /// Lanes settled at the ceiling without a walk.
    pub closed_form: u64,
    /// Refusals the walked lanes were owed, summed.
    pub steps: u64,
}

/// One refusal: `min(p·factor, ceiling)`, without `f64::min`'s NaN fix-up
/// (prices are finite) — a single `minpd`.
#[inline]
fn raise(p: f64, factor: f64, ceiling: f64) -> f64 {
    let raised = p * factor;
    if raised < ceiling {
        raised
    } else {
        ceiling
    }
}

/// The refusal chain `p ← min(p·(1+λ), ceiling)` (QA-NT step 9) of one
/// configuration, and what deciding its outcome without walking it needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefusalChain {
    factor: f64,
    ceiling: f64,
    log2_ceiling: f64,
    /// Refusals that double a price, `ln 2 / ln(1+λ)`, stretched by the
    /// share of a step's gain that rounding can eat (see
    /// [`RefusalChain::saturates`]); infinite when λ is too small to bound
    /// that share, and then every chain is walked.
    steps_per_octave: f64,
}

impl RefusalChain {
    /// The chain of `config`'s λ and ceiling.
    pub fn new(config: &PricerConfig) -> RefusalChain {
        let factor = 1.0 + config.lambda;
        let gain = factor.ln();
        RefusalChain {
            factor,
            ceiling: config.price_ceiling,
            log2_ceiling: config.price_ceiling.log2(),
            steps_per_octave: if gain >= 1e-8 {
                std::f64::consts::LN_2 / gain * (1.0 + 2e-8)
            } else {
                f64::INFINITY
            },
        }
    }

    /// Where one refusal leaves `p`.
    #[inline]
    pub fn step(&self, p: f64) -> f64 {
        raise(p, self.factor, self.ceiling)
    }

    /// `true` when `count` refusals provably leave `p` at the ceiling —
    /// and a chain that reaches the ceiling *is* the ceiling from there
    /// on, so the closed form is exact to the bit. `p = 2^e·(1+x)` has
    /// `log2 p ≥ e + x`, which makes `steps` an upper bound on the
    /// refusals the real-valued chain needs, two to spare. The float
    /// chain gains `ln(1+λ) − 2⁻⁵³` per step at worst; with
    /// `ln(1+λ) ≥ 10⁻⁸` that is the `1 + 2·10⁻⁸` stretch, and the spare
    /// steps dwarf the rounding of this arithmetic (under 10⁻⁴ step).
    fn saturates(&self, p: f64, count: u64) -> bool {
        let bits = p.to_bits();
        let mantissa = (bits & ((1 << 52) - 1)) as f64 / (1u64 << 52) as f64;
        let log2_p = (bits >> 52) as f64 - 1023.0 + mantissa;
        let steps = (self.log2_ceiling - log2_p) * self.steps_per_octave + 2.0;
        p >= f64::MIN_POSITIVE && count as f64 >= steps
    }

    /// Moves every `prices[i]` to where `counts[i]` refusals leave it:
    /// bit-identical to that many [`Self::step`]s each. Saturating lanes
    /// are settled in closed form; the rest are walked `LANES` at a time —
    /// the chains are independent, and interleaving them hides the
    /// multiply latency that makes a lone chain serial.
    /// What that took is added to `work`.
    ///
    /// # Panics
    /// Panics when the slices differ in length or exceed [`REPLAY_BLOCK`].
    pub fn replay(&self, prices: &mut [f64], counts: &[u64], work: &mut ReplayWork) {
        const LANES: usize = 16;
        assert!(prices.len() == counts.len() && prices.len() <= REPLAY_BLOCK);
        let mut walk = [(0u64, 0usize); REPLAY_BLOCK];
        let mut walked = 0;
        for (i, (p, &d)) in prices.iter_mut().zip(counts).enumerate() {
            if d == 0 {
                continue;
            }
            if self.saturates(*p, d) {
                *p = self.ceiling;
                work.closed_form += 1;
            } else {
                walk[walked] = (d, i);
                walked += 1;
                work.steps += d;
            }
        }
        work.walked += walked as u64;
        // Longest first: a group runs for its longest lane, so lanes of
        // similar length share one, and within it the lanes still owed
        // refusals are a prefix that only shrinks.
        let walk = &mut walk[..walked];
        walk.sort_unstable_by_key(|&(d, _)| std::cmp::Reverse(d));
        for group in walk.chunks(LANES) {
            // A retired lane (or one past the group) multiplies by exactly
            // 1.0 — a bit-exact identity for finite values — so the inner
            // loop has a constant bound and no branch, and vectorizes.
            let mut p = [0.0f64; LANES];
            let mut factor = [1.0f64; LANES];
            for (j, &(_, i)) in group.iter().enumerate() {
                (p[j], factor[j]) = (prices[i], self.factor);
            }
            let mut done = 0;
            for (j, &(d, _)) in group.iter().enumerate().rev() {
                for _ in done..d {
                    for l in 0..LANES {
                        p[l] = raise(p[l], factor[l], self.ceiling);
                    }
                }
                (done, factor[j]) = (d, 1.0);
            }
            for (j, &(_, i)) in group.iter().enumerate() {
                prices[i] = p[j];
            }
        }
    }
}

/// The period-end price moves over one price row. Each change is a
/// [`TelemetryEvent::PriceAdjusted`] of `node`.
impl PricerConfig {
    /// QA-NT steps 12–14: `leftover[k] > 0` unsold units lower `prices[k]`
    /// by `s·λ·p`, floored (`p − s·λ·p` goes negative for a large
    /// leftover; the factor is clamped at 0 and the floor keeps the
    /// multiplicative dynamics alive).
    #[inline]
    pub fn decay_leftover(&self, prices: &mut [f64], leftover: &[u64], t: &Telemetry, node: u32) {
        assert_eq!(prices.len(), leftover.len(), "class count mismatch");
        for (k, (p, &s)) in prices.iter_mut().zip(leftover).enumerate() {
            if s > 0 {
                let old = *p;
                let factor = (1.0 - self.lambda * s as f64).max(0.0);
                *p = (old * factor).max(self.price_floor);
                adjusted(t, node, k, old, *p, PriceReason::PeriodDecay);
            }
        }
    }

    /// Rescales the row so its geometric mean is 1.
    ///
    /// A competitive market is invariant to a uniform price rescaling (only
    /// relative prices drive supply decisions), so this changes nothing
    /// economically — but it keeps long overloads from driving every price
    /// into the ceiling/floor clamps, which *would* destroy the relative
    /// structure.
    #[inline]
    pub fn renormalize(&self, prices: &mut [f64], telemetry: &Telemetry, node: u32) {
        if prices.is_empty() {
            return;
        }
        let log_mean = prices.iter().map(|p| p.ln()).sum::<f64>() / prices.len() as f64;
        let scale = log_mean.exp();
        if !scale.is_finite() || scale <= 0.0 {
            return;
        }
        for (k, p) in prices.iter_mut().enumerate() {
            let old = *p;
            *p = (old / scale).clamp(self.price_floor, self.price_ceiling);
            if *p != old {
                adjusted(telemetry, node, k, old, *p, PriceReason::Renormalize);
            }
        }
    }
}

/// `ln(p)` the way aggregated price signals read it: the geometric mean
/// over a region's sellers is an arithmetic mean of these.
#[inline]
pub fn ln_price(p: f64) -> f64 {
    p.max(f64::MIN_POSITIVE).ln()
}

/// Emits `node`'s class-`k` price move as a
/// [`TelemetryEvent::PriceAdjusted`].
#[inline]
pub fn adjusted(
    telemetry: &Telemetry,
    node: u32,
    k: usize,
    old: f64,
    new: f64,
    reason: PriceReason,
) {
    telemetry.emit(|| TelemetryEvent::PriceAdjusted {
        node,
        class: k as u32,
        old,
        new,
        reason,
    });
}

/// A node's private price state and its non-tâtonnement dynamics: the row
/// kernels above over one owned row.
#[derive(Debug, Clone)]
pub struct NonTatonnementPricer {
    config: PricerConfig,
    chain: RefusalChain,
    prices: PriceVector,
    /// Rejections recorded this period, per class (diagnostics).
    rejections: Vec<u64>,
    /// Event sink for `PriceAdjusted` telemetry; disabled (a single
    /// branch per adjustment) unless [`NonTatonnementPricer::set_telemetry`]
    /// installs a labeled handle.
    telemetry: Telemetry,
}

impl NonTatonnementPricer {
    /// A pricer over `k` classes starting at the configured initial price.
    pub fn new(k: usize, config: PricerConfig) -> Self {
        Self::with_prices(PriceVector::uniform(k, config.initial_price), config)
    }

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
            chain: RefusalChain::new(&config),
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

    /// [`PricerConfig::renormalize`] over this pricer's row.
    pub fn renormalize(&mut self) {
        let (prices, node) = (self.prices.as_mut_slice(), self.telemetry.label());
        self.config.renormalize(prices, &self.telemetry, node);
    }

    /// The current private prices.
    pub fn prices(&self) -> &PriceVector {
        &self.prices
    }

    /// Batched price read: writes `ln(price_k)` for every class into
    /// `out` (sized to the class count) in one call.
    ///
    /// # Panics
    /// Panics when `out` is not sized to the class count.
    pub fn ln_prices_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_classes(), "class count mismatch");
        for (slot, &p) in out.iter_mut().zip(self.prices.as_slice()) {
            *slot = ln_price(p);
        }
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
        let old = self.prices.get(k);
        self.prices
            .set(k, self.chain.step(old), self.config.price_floor);
        self.rejections[k] += 1;
        let (node, new) = (self.telemetry.label(), self.prices.get(k));
        adjusted(&self.telemetry, node, k, old, new, PriceReason::Rejection);
    }

    /// Applies `count` consecutive [`NonTatonnementPricer::on_rejection`]s
    /// for class `k`, bit-identical to calling it in a loop: one lane of
    /// [`Self::on_rejections_batch`].
    pub fn on_rejections(&mut self, k: usize, count: u64) {
        Self::on_rejections_batch(&mut [self], k, &[count]);
    }

    /// Replays per-pricer rejection counts for class `k` across many
    /// pricers at once — gather, [`RefusalChain::replay`], scatter:
    /// result-identical to `counts[i]` stepwise [`Self::on_rejection`]s on
    /// each. A chain long enough to provably reach the ceiling costs
    /// nothing — a refusal storm is charged by its lanes, not its length.
    /// A traced pricer takes the stepwise path and emits every
    /// adjustment; so does one whose configuration differs from the
    /// first's.
    pub fn on_rejections_batch(
        pricers: &mut [&mut NonTatonnementPricer],
        k: usize,
        counts: &[u64],
    ) {
        assert_eq!(pricers.len(), counts.len());
        let mut chain = None;
        for (lanes, counts) in pricers
            .chunks_mut(REPLAY_BLOCK)
            .zip(counts.chunks(REPLAY_BLOCK))
        {
            let mut p = [0.0f64; REPLAY_BLOCK];
            let mut d = [0u64; REPLAY_BLOCK];
            for (j, (pr, &count)) in lanes.iter_mut().zip(counts).enumerate() {
                if count == 0 {
                    continue;
                }
                if pr.telemetry.is_enabled() || *chain.get_or_insert(pr.chain) != pr.chain {
                    for _ in 0..count {
                        pr.on_rejection(k);
                    }
                } else {
                    (p[j], d[j]) = (pr.prices.get(k), count);
                }
            }
            let Some(chain) = chain else { continue };
            let work = &mut ReplayWork::default();
            chain.replay(&mut p[..lanes.len()], &d[..lanes.len()], work);
            for (j, pr) in lanes.iter_mut().enumerate().filter(|(j, _)| d[*j] > 0) {
                // Finite and at or above the floor, so this one set is
                // exactly the last of the per-step clamped sets.
                pr.prices.set(k, p[j], pr.config.price_floor);
                pr.rejections[k] += d[j];
            }
        }
    }

    /// [`PricerConfig::decay_leftover`] over this pricer's row; also
    /// resets the per-period rejection counters.
    pub fn on_period_end(&mut self, leftover: &QuantityVector) {
        let (prices, node) = (self.prices.as_mut_slice(), self.telemetry.label());
        self.config
            .decay_leftover(prices, leftover.as_slice(), &self.telemetry, node);
        self.rejections.fill(0);
    }

    /// Rejections observed for class `k` in the current period.
    pub fn rejections(&self, k: usize) -> u64 {
        self.rejections[k]
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
    use qa_simnet::DetRng;

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

    /// Stepwise refusals from `p` until the price stops moving: the count
    /// that reaches the ceiling, or `None` when `limit` steps do not.
    fn steps_to_ceiling(p: f64, cfg: PricerConfig, limit: u64) -> Option<u64> {
        let mut pricer = NonTatonnementPricer::with_prices(PriceVector::from_prices(vec![p]), cfg);
        (0..=limit).find(|_| {
            let at_ceiling = pricer.prices().get(0) == cfg.price_ceiling;
            pricer.on_rejection(0);
            at_ceiling
        })
    }

    #[test]
    fn closed_form_replay_is_the_stepwise_loop_to_the_bit() {
        // (λ, whether its closed form may ever engage below the ceiling):
        // at λ = 1e-9 rounding could eat a step's gain, so nothing is
        // proven and every chain must be walked. λ < 1 by `validate`.
        let lambdas = [(1e-9, false), (1e-6, true), (0.1, true), (0.9, true)];
        let mut rng = DetRng::seed_from_u64(0x5A7).derive("closed-form");
        let mut proven = 0;
        for case in 0..400 {
            let (lambda, provable) = lambdas[case % lambdas.len()];
            let price_floor = 10f64.powf(rng.float_in(-12.0, -3.0));
            let price_ceiling = 10f64.powf(rng.float_in(0.5, 14.0));
            let cfg = PricerConfig {
                lambda,
                initial_price: price_floor,
                price_floor,
                price_ceiling,
            };
            let chain = RefusalChain::new(&cfg);
            // Start a drawn number of steps under the ceiling (few enough
            // to walk at any λ), at the floor, or at the ceiling.
            let under = rng.float_in(0.0, 4_000.0);
            let p = match case % 7 {
                0 => price_ceiling,
                1 if lambda >= 0.1 => price_floor,
                _ => (price_ceiling / (1.0 + lambda).powf(under)).max(price_floor),
            };
            let bound = steps_to_ceiling(p, cfg, 40_000).expect("reachable by construction");
            let far = bound + rng.int_in(4, 1 << 40);
            for count in (bound.saturating_sub(3)..=bound + 3).chain([1, bound / 2, far]) {
                let saturates = chain.saturates(p, count);
                proven += u32::from(saturates);
                assert!(!saturates || count >= bound, "λ={lambda} p={p}: unsound");
                assert!(provable || p == price_ceiling || !saturates);
                // Not proven only near the bound: the two spare steps and
                // the 0.086 octave `e + x` sits under `log2 p` at worst.
                let slack = 3.0 + 0.09 * std::f64::consts::LN_2 / lambda.ln_1p();
                assert!(!provable || saturates || (count as f64) < bound as f64 + slack);
                // Only a walk short enough to afford is replayed.
                if saturates || count <= 40_000 {
                    let fresh = || {
                        let start = PriceVector::from_prices(vec![p, 1.0]);
                        NonTatonnementPricer::with_prices(start, cfg)
                    };
                    let mut stepwise = fresh();
                    for _ in 0..count.min(bound + 3) {
                        stepwise.on_rejection(0);
                    }
                    let mut replayed = fresh();
                    replayed.on_rejections(0, count);
                    assert_eq!(
                        replayed.prices().get(0).to_bits(),
                        stepwise.prices().get(0).to_bits(),
                        "λ={lambda} p={p} count={count} bound={bound}"
                    );
                    assert_eq!(replayed.rejections(0), count);
                }
            }
        }
        assert!(proven > 500, "the closed form barely engaged: {proven}");
    }

    #[test]
    fn traced_pricers_replay_stepwise_and_emit_every_adjustment() {
        let (tel, buf) = Telemetry::buffered();
        let fresh = || NonTatonnementPricer::new(1, PricerConfig::default());
        let (mut lone, mut lane, mut quiet) = (fresh(), fresh(), fresh());
        lone.set_telemetry(tel.with_label(1));
        lane.set_telemetry(tel.with_label(2));
        // 400 refusals saturate from the initial price: the closed form
        // would apply, were nobody watching.
        lone.on_rejections(0, 400);
        NonTatonnementPricer::on_rejections_batch(&mut [&mut quiet, &mut lane], 0, &[400, 400]);
        for node in [1, 2] {
            let adjustments = buf
                .records()
                .iter()
                .filter(|r| matches!(r.event, TelemetryEvent::PriceAdjusted { node: n, .. } if n == node))
                .count();
            assert_eq!(adjustments, 400, "node {node}");
        }
        assert_eq!(buf.records().len(), 800);
        for p in [&lone, &lane, &quiet] {
            assert_eq!(p.prices().get(0), 1e12);
        }
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
