//! Decentralized non-tâtonnement price adjustment (§3.3, QA-NT steps 9 and
//! 12–14).
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
//! Both moves multiply, so prices live in the log domain: a price `p` is
//! the `i64` count of quanta nearest `ln p · 2⁴⁰` ([`QUANTA_PER_NAT`]), and
//! each rule of [`PriceRules`] is an exact integer add and a clamp:
//!
//! * a refusal adds `G = ln(1+λ)`, and `n` refusals add `n·G` — integer
//!   adds are associative, so charging `n` at once *is* charging them one
//!   at a time;
//! * a leftover of `s` units adds a tabulated `ln(1 − λs)`, or drops the
//!   price to the floor once `λs ≥ 1`;
//! * renormalizing subtracts the row's integer mean;
//! * the floor and the ceiling are integer clamps.
//!
//! A row of quanta cannot hold 0, ∞ or NaN. Linear prices are made only
//! where a price is read out ([`PriceRules::linear`]: a pricer's or a
//! node's `prices`, and `PriceAdjusted` telemetry). The rules act on rows,
//! so a population of sellers can keep its rows in one block
//! (`qa_core::QantMarket`, which the simulator and the threaded cluster
//! run) and still share this one arithmetic. [`NonTatonnementPricer`] is
//! the same state machine over one owned row: the parent market's pricer.

use crate::vectors::{PriceVector, QuantityVector};
use qa_simnet::telemetry::{Events, PriceReason, Silent, TelemetryEvent};

/// Tuning knob of the price dynamics; the band it moves in is
/// [`PriceRules`]' constant one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricerConfig {
    /// Adjustment speed λ.
    pub lambda: f64,
}

impl Default for PricerConfig {
    fn default() -> Self {
        PricerConfig { lambda: 0.1 }
    }
}

impl PricerConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on λ outside `(0, 1)`.
    pub(crate) fn validate(&self) {
        assert!(
            self.lambda.is_finite() && self.lambda > 0.0 && self.lambda < 1.0,
            "lambda must be in (0,1), got {}",
            self.lambda
        );
    }
}

/// Log-price quanta per nat. Every count a row can hold (`|q| < 2⁵³`: a
/// positive finite `f64` has `|ln p| < 745`) is an exact `f64`, and so is
/// `q / 2⁴⁰`.
pub(crate) const QUANTA_PER_NAT: f64 = (1u64 << 40) as f64;

/// `ln` in whole quanta, to the nearest (saturating; NaN reads 0).
#[inline]
pub fn to_quanta(ln: f64) -> i64 {
    (ln * QUANTA_PER_NAT).round() as i64
}

/// The `ln` that `q` quanta stand for, exactly.
#[inline]
pub fn ln_of_quanta(q: i64) -> f64 {
    q as f64 / QUANTA_PER_NAT
}

/// Entries of the leftover table at most: it holds every leftover with
/// `λ·s < 1` for λ ≥ 1/4 096. Under a smaller λ a leftover past the table
/// computes its entry.
const DECAY_TABLE: usize = 4096;

/// `ln(1 − λs)` in quanta, or `None` once `λs ≥ 1`: the factor is not
/// positive, and the price drops to the floor.
fn leftover_step(lambda: f64, s: u64) -> Option<i64> {
    let cut = lambda * s as f64;
    (cut < 1.0).then(|| to_quanta((-cut).ln_1p()))
}

/// The QA-NT price rules of one [`PricerConfig`], over rows of log-prices
/// in quanta: each rule an exact integer add and a clamp into
/// `[floor, ceiling]`.
#[derive(Debug, Clone)]
pub struct PriceRules {
    lambda: f64,
    floor: i64,
    ceiling: i64,
    /// One refusal's rise, `ln(1+λ)`; at least one quantum.
    gain: i64,
    /// `decay[s] = ln(1 − λs)` for the leftovers `s` with `λs < 1`.
    decay: Vec<i64>,
    /// The longest row whose sum cannot overflow an `i64`, every entry
    /// inside the band.
    longest_row: usize,
}

impl PriceRules {
    /// Every class's starting price.
    pub const INITIAL_PRICE: f64 = 1.0;
    /// Prices never fall below this (multiplicative dynamics cannot leave
    /// zero).
    pub const PRICE_FLOOR: f64 = 1e-9;
    /// Prices never rise above this (guards against runaway growth during
    /// long overloads): about 290 refusals from the initial price at
    /// λ = 0.1.
    pub const PRICE_CEILING: f64 = 1e12;

    /// The rules of `config`.
    ///
    /// # Panics
    /// Panics when `config` does not `PricerConfig::validate`.
    pub fn new(config: &PricerConfig) -> PriceRules {
        config.validate();
        let lambda = config.lambda;
        let mut decay = Vec::with_capacity(DECAY_TABLE.min(2 + (1.0 / lambda) as usize));
        decay.extend(
            (0..)
                .map_while(|s| leftover_step(lambda, s))
                .take(DECAY_TABLE),
        );
        let (floor, ceiling) = (
            to_quanta(Self::PRICE_FLOOR.ln()),
            to_quanta(Self::PRICE_CEILING.ln()),
        );
        let widest = floor.unsigned_abs().max(ceiling.unsigned_abs());
        PriceRules {
            lambda,
            floor,
            ceiling,
            gain: to_quanta(lambda.ln_1p()).max(1),
            decay,
            longest_row: (i64::MAX as u64 / widest) as usize,
        }
    }

    /// The initial price, in quanta.
    #[inline]
    pub fn initial(&self) -> i64 {
        to_quanta(Self::INITIAL_PRICE.ln())
    }

    /// A linear price `p` in quanta, clamped into the band: how an
    /// explicit starting price enters.
    pub fn quantize(&self, p: f64) -> i64 {
        to_quanta(p.ln()).clamp(self.floor, self.ceiling)
    }

    /// The price `q` stands for, `exp(q)`: exactly the band's bound at
    /// either clamp, and kept inside the band against `exp`'s last-bit
    /// rounding in between.
    #[inline]
    pub fn linear(&self, q: i64) -> f64 {
        if q <= self.floor {
            Self::PRICE_FLOOR
        } else if q >= self.ceiling {
            Self::PRICE_CEILING
        } else {
            ln_of_quanta(q)
                .exp()
                .clamp(Self::PRICE_FLOOR, Self::PRICE_CEILING)
        }
    }

    /// Where `count` refusals leave `q` (step 9 each): `q + count·G`, at
    /// most the ceiling — saturating, so any count is one add.
    #[inline]
    pub fn refuse(&self, q: i64, count: u64) -> i64 {
        let rise = i64::try_from(count)
            .unwrap_or(i64::MAX)
            .saturating_mul(self.gain);
        q.saturating_add(rise).min(self.ceiling)
    }

    /// Where a leftover of `s` unsold units leaves `q` (steps 12–14):
    /// `q + ln(1 − λs)`, at least the floor.
    #[inline]
    pub fn decay(&self, q: i64, s: u64) -> i64 {
        let entry = usize::try_from(s).ok().and_then(|s| self.decay.get(s));
        match entry.copied().or_else(|| leftover_step(self.lambda, s)) {
            Some(step) => (q + step).max(self.floor),
            None => self.floor,
        }
    }

    /// Steps 12–14 over one row: every class with `leftover[k] > 0` unsold
    /// units decays. Each change is a [`TelemetryEvent::PriceAdjusted`] of
    /// `node`.
    #[inline]
    pub fn decay_leftover(&self, row: &mut [i64], leftover: &[u64], t: &impl Events, node: u32) {
        assert_eq!(row.len(), leftover.len(), "class count mismatch");
        for (k, (q, &s)) in row.iter_mut().zip(leftover).enumerate() {
            if s > 0 {
                let old = *q;
                *q = self.decay(old, s);
                self.adjusted(t, node, k, old, *q, PriceReason::PeriodDecay);
            }
        }
    }

    /// Centres the row's geometric mean on 1: subtracts the row's integer
    /// mean (rounded down), within the floor and the ceiling.
    ///
    /// # Panics
    /// Panics on a row longer than its sum can be taken in an `i64`.
    ///
    /// A competitive market is invariant to a uniform price rescaling (only
    /// relative prices drive supply decisions), so this changes nothing
    /// economically — but it keeps long overloads from driving every price
    /// into the ceiling/floor clamps, which *would* destroy the relative
    /// structure.
    #[inline]
    pub fn renormalize(&self, row: &mut [i64], t: &impl Events, node: u32) {
        if row.is_empty() {
            return;
        }
        assert!(row.len() <= self.longest_row, "a row too long to sum");
        let mean = row.iter().sum::<i64>().div_euclid(row.len() as i64);
        for (k, q) in row.iter_mut().enumerate() {
            let old = *q;
            *q = (old - mean).clamp(self.floor, self.ceiling);
            if *q != old {
                self.adjusted(t, node, k, old, *q, PriceReason::Renormalize);
            }
        }
    }

    /// Emits `node`'s class-`k` move from `old` to `new` quanta as a
    /// [`TelemetryEvent::PriceAdjusted`] in linear prices.
    #[inline]
    pub fn adjusted(
        &self,
        telemetry: &impl Events,
        node: u32,
        k: usize,
        old: i64,
        new: i64,
        reason: PriceReason,
    ) {
        telemetry.emit(|| TelemetryEvent::PriceAdjusted {
            node,
            class: k as u32,
            old: self.linear(old),
            new: self.linear(new),
            reason,
        });
    }
}

/// A node's private price state and its non-tâtonnement dynamics: the row
/// rules above over one owned row, emitting nothing.
#[derive(Debug, Clone)]
pub struct NonTatonnementPricer {
    rules: PriceRules,
    /// Private log-prices, in quanta.
    prices: Vec<i64>,
}

impl NonTatonnementPricer {
    /// A pricer over `k` classes starting at [`PriceRules::INITIAL_PRICE`].
    pub fn new(k: usize, config: PricerConfig) -> Self {
        let rules = PriceRules::new(&config);
        NonTatonnementPricer {
            prices: vec![rules.initial(); k],
            rules,
        }
    }

    /// A pricer starting at explicit prices (clamped into the band): any
    /// point of it, for the properties that must hold from every start.
    pub fn with_prices(prices: PriceVector, config: PricerConfig) -> Self {
        let mut pricer = Self::new(prices.num_classes(), config);
        for (q, (_, p)) in pricer.prices.iter_mut().zip(prices.iter()) {
            *q = pricer.rules.quantize(p);
        }
        pricer
    }

    /// [`PriceRules::renormalize`] over this pricer's row.
    pub fn renormalize(&mut self) {
        self.rules.renormalize(&mut self.prices, &Silent, 0);
    }

    /// The current private prices.
    pub fn prices(&self) -> PriceVector {
        let linear = self.prices.iter().map(|&q| self.rules.linear(q));
        PriceVector::from_prices(linear.collect())
    }

    /// Batched price read: writes `ln(price_k)` for every class into
    /// `out` (sized to the class count) in one call.
    ///
    /// # Panics
    /// Panics when `out` is not sized to the class count.
    pub(crate) fn ln_prices_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_classes(), "class count mismatch");
        for (slot, &q) in out.iter_mut().zip(&self.prices) {
            *slot = ln_of_quanta(q);
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.prices.len()
    }

    /// Step 9 of QA-NT: a class-`k` request had to be rejected because the
    /// node's supply for `k` is exhausted — price rises by a factor `1+λ`.
    pub fn on_rejection(&mut self, k: usize) {
        self.on_rejections(k, 1);
    }

    /// Applies `count` consecutive [`NonTatonnementPricer::on_rejection`]s
    /// for class `k` as one add.
    pub(crate) fn on_rejections(&mut self, k: usize, count: u64) {
        self.prices[k] = self.rules.refuse(self.prices[k], count);
    }

    /// `Self::on_rejections` of `counts[i]` for class `k` on each of
    /// many pricers.
    pub fn on_rejections_batch(
        pricers: &mut [&mut NonTatonnementPricer],
        k: usize,
        counts: &[u64],
    ) {
        assert_eq!(pricers.len(), counts.len());
        for (pricer, &count) in pricers.iter_mut().zip(counts) {
            pricer.on_rejections(k, count);
        }
    }

    /// [`PriceRules::decay_leftover`] over this pricer's row.
    pub fn on_period_end(&mut self, leftover: &QuantityVector) {
        self.rules
            .decay_leftover(&mut self.prices, leftover.as_slice(), &Silent, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::telemetry::Telemetry;
    use qa_simnet::DetRng;

    fn qv(v: &[u64]) -> QuantityVector {
        QuantityVector::from_counts(v.to_vec())
    }

    /// The linear kernel the log-domain rules replaced, kept as their
    /// oracle: one refusal, one leftover and one renormalization of
    /// linear prices.
    mod linear {
        use super::PriceRules;
        const FLOOR: f64 = PriceRules::PRICE_FLOOR;
        const CEILING: f64 = PriceRules::PRICE_CEILING;

        pub(super) fn refuse(p: f64, lambda: f64) -> f64 {
            (p * (1.0 + lambda)).min(CEILING)
        }

        pub(super) fn decay(p: f64, s: u64, lambda: f64) -> f64 {
            let factor = (1.0 - lambda * s as f64).max(0.0);
            (p * factor).max(FLOOR)
        }

        /// `None` where the oracle's own scale is not a positive finite
        /// number: its old guard left such a row as it was.
        pub(super) fn renormalize(row: &[f64]) -> Option<Vec<f64>> {
            let ln_sum = row.iter().map(|p| p.ln()).sum::<f64>();
            let scale = (ln_sum / row.len() as f64).exp();
            (scale.is_finite() && scale > 0.0).then(|| {
                row.iter()
                    .map(|p| (p / scale).clamp(FLOOR, CEILING))
                    .collect()
            })
        }
    }

    #[test]
    fn rejection_raises_price_multiplicatively() {
        let mut p = NonTatonnementPricer::new(2, PricerConfig::default());
        let before = p.prices().get(0);
        p.on_rejection(0);
        assert!((p.prices().get(0) - before * 1.1).abs() < 1e-12);
        assert_eq!(p.prices().get(1), 1.0, "other classes untouched");
        assert_eq!(p.prices[0], p.rules.refuse(p.rules.initial(), 1));
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
        assert_eq!(p.prices().get(0), PriceRules::PRICE_FLOOR);
    }

    #[test]
    fn ceiling_stops_runaway_growth() {
        // ln 10¹² / ln 1.1 ≈ 289.9: the 290th refusal reaches the ceiling,
        // and further ones stay there.
        let mut p = NonTatonnementPricer::new(1, PricerConfig::default());
        for _ in 0..289 {
            p.on_rejection(0);
        }
        assert!(p.prices().get(0) < PriceRules::PRICE_CEILING);
        for _ in 0..1_000 {
            p.on_rejection(0);
        }
        assert_eq!(p.prices().get(0), PriceRules::PRICE_CEILING);
    }

    #[test]
    fn n_refusals_at_once_are_n_one_at_a_time() {
        // Pricers from drawn points of the band, owed counts from none to
        // far past the ceiling: the batch and the stepwise loop agree to
        // the bit, and each lane moved by its own count.
        let mut rng = DetRng::seed_from_u64(0x5A7).derive("at-once");
        for case in 0..200 {
            let cfg = PricerConfig {
                lambda: [1e-6, 0.1, 0.9][case % 3],
            };
            let counts: Vec<u64> = (0..17)
                .map(|_| [0, 1, rng.int_in(2, 400), rng.int_in(400, 5_000)][rng.index(4)])
                .collect();
            let fresh = |rng: &mut DetRng| -> Vec<NonTatonnementPricer> {
                (0..counts.len())
                    .map(|_| {
                        let start = 10f64.powf(rng.float_in(-10.0, 13.0));
                        let start = PriceVector::from_prices(vec![start, 1.0]);
                        NonTatonnementPricer::with_prices(start, cfg)
                    })
                    .collect()
            };
            let mut draws = rng.derive("starts");
            let starts = fresh(&mut draws.clone());
            let mut stepwise = fresh(&mut draws.clone());
            for (p, &n) in stepwise.iter_mut().zip(&counts) {
                for _ in 0..n {
                    p.on_rejection(0);
                }
            }
            let mut batched = fresh(&mut draws);
            let mut lanes: Vec<&mut NonTatonnementPricer> = batched.iter_mut().collect();
            NonTatonnementPricer::on_rejections_batch(&mut lanes, 0, &counts);
            for (i, (a, b)) in stepwise.iter().zip(&batched).enumerate() {
                assert_eq!(
                    a.prices, b.prices,
                    "case {case} lane {i}, {} refusals",
                    counts[i]
                );
                let start = starts[i].prices[0];
                assert_eq!(b.prices[0], b.rules.refuse(start, counts[i]), "lane {i}");
                assert_eq!(b.prices().get(1), 1.0, "other class untouched");
            }
        }
    }

    /// The rules at the edges of their inputs: λ = 1e-6 and 0.999, K = 1,
    /// rows pinned at the floor and at the ceiling, refusal counts up to
    /// `u64::MAX` and leftovers at and past `⌈1/λ⌉`. Every linear price
    /// read back is finite and inside the band, nothing panics, and each
    /// rule lands within one quantum of the linear oracle from the same
    /// state, plus the oracle's own rounding.
    #[test]
    fn the_rules_hold_the_band_and_the_oracle_at_the_edges() {
        let mut rng = DetRng::seed_from_u64(0xED6E).derive("edges");
        let band = PriceRules::PRICE_FLOOR..=PriceRules::PRICE_CEILING;
        let quantum = 1.0 / QUANTA_PER_NAT;
        let mut compared = [0u32; 3];
        for case in 0..540 {
            let lambda = [1e-6, 0.1, 0.999][case % 3];
            let rules = PriceRules::new(&PricerConfig { lambda });
            let (floor, ceiling) = (rules.floor, rules.ceiling);
            let k = [1, 2, 5][case / 9 % 3];
            let inside = |rng: &mut DetRng| floor + rng.int_in(0, (ceiling - floor) as u64) as i64;
            let mut row: Vec<i64> = match case / 27 % 4 {
                0 => vec![floor; k],
                1 => vec![ceiling; k],
                _ => (0..k)
                    .map(|_| [floor, ceiling, inside(&mut rng)][rng.index(3)])
                    .collect(),
            };
            let lambda_inverse = (1.0 / lambda).ceil() as u64;
            // How far the oracle's reading of the state or its result is
            // from a count of quanta; and its rounding over `terms` logs
            // as wide as `ln`.
            let off = |q: i64, p: f64| (ln_of_quanta(q) - p.ln()).abs();
            let rounding =
                |terms: usize, ln: f64| 4.0 * f64::EPSILON * terms as f64 * (1.0 + ln.abs());
            for step in 0..40 {
                let at = rng.index(k);
                let q = row[at];
                let p = rules.linear(q);
                let slack = quantum + off(q, p) + rounding(2, p.ln());
                match rng.index(3) {
                    0 => {
                        let n = [1, rng.int_in(2, 100), 1 << 40, u64::MAX][rng.index(4)];
                        row[at] = rules.refuse(q, n);
                        if n == 1 {
                            let want = linear::refuse(p, lambda);
                            assert!(
                                off(row[at], want) <= slack,
                                "case {case} step {step}: refusal from {p}"
                            );
                            compared[0] += 1;
                        } else if n <= 100 {
                            let one_at_a_time = (0..n).fold(q, |q, _| rules.refuse(q, 1));
                            assert_eq!(row[at], one_at_a_time, "case {case} step {step}");
                        } else if n == u64::MAX {
                            assert_eq!(row[at], ceiling, "case {case} step {step}");
                        }
                    }
                    1 => {
                        let s = [
                            1,
                            rng.int_in(1, lambda_inverse),
                            lambda_inverse,
                            lambda_inverse + rng.int_in(1, 1 << 20),
                            u64::MAX,
                        ][rng.index(5)];
                        row[at] = rules.decay(q, s);
                        let want = linear::decay(p, s, lambda);
                        if lambda * s as f64 >= 1.0 {
                            assert_eq!(row[at], floor, "case {case} step {step}: s = {s}");
                        }
                        assert!(
                            off(row[at], want) <= slack,
                            "case {case} step {step}: {s} left from {p}"
                        );
                        compared[1] += 1;
                    }
                    _ => {
                        let before: Vec<f64> = row.iter().map(|&q| rules.linear(q)).collect();
                        let read: Vec<f64> =
                            row.iter().zip(&before).map(|(&q, &p)| off(q, p)).collect();
                        let widest = before.iter().map(|p| p.ln().abs()).fold(0.0, f64::max);
                        // The mean's own reading is off by the rows' at most.
                        let mean_read = read.iter().copied().fold(0.0, f64::max);
                        rules.renormalize(&mut row, &Telemetry::disabled(), 0);
                        if let Some(want) = linear::renormalize(&before) {
                            for ((&q, &want), &read) in row.iter().zip(&want).zip(&read) {
                                let slack = quantum + read + mean_read + rounding(k + 3, widest);
                                assert!(
                                    off(q, want) <= slack,
                                    "case {case} step {step}: {before:?}"
                                );
                            }
                            compared[2] += 1;
                        }
                    }
                }
                for &q in &row {
                    assert!((floor..=ceiling).contains(&q), "case {case} step {step}");
                    let p = rules.linear(q);
                    assert!(p.is_finite() && band.contains(&p));
                }
            }
        }
        assert!(compared.iter().all(|&n| n > 1_000), "{compared:?}");
    }

    /// The longest row the rules take, with every price at the floor, at
    /// the ceiling, or split between them: the `i64` sum is the `i128`
    /// one. One class more is refused.
    #[test]
    fn renormalize_sums_the_longest_row_exactly() {
        let rules = PriceRules::new(&PricerConfig::default());
        let (floor, ceiling, n) = (rules.floor, rules.ceiling, rules.longest_row);
        assert!((300_000..310_000).contains(&n), "{n}");
        let split = |k: usize| if k.is_multiple_of(2) { floor } else { ceiling };
        for row in [
            vec![floor; n],
            vec![ceiling; n],
            (0..n).map(split).collect(),
        ] {
            let sum: i128 = row.iter().map(|&q| i128::from(q)).sum();
            let mean = sum.div_euclid(n as i128) as i64;
            let want: Vec<i64> = row
                .iter()
                .map(|&q| (q - mean).clamp(floor, ceiling))
                .collect();
            let mut got = row;
            rules.renormalize(&mut got, &Telemetry::disabled(), 0);
            assert_eq!(got, want);
        }
        let longer = std::panic::catch_unwind(|| {
            rules.renormalize(&mut vec![floor; n + 1], &Telemetry::disabled(), 0)
        });
        assert!(longer.is_err());
    }

    #[test]
    fn period_end_neither_undoes_nor_repeats_refusals() {
        let mut p = NonTatonnementPricer::new(1, PricerConfig::default());
        p.on_rejection(0);
        p.on_rejection(0);
        let risen = p.rules.refuse(p.rules.initial(), 2);
        assert_eq!(p.prices[0], risen);
        p.on_period_end(&qv(&[0]));
        assert_eq!(p.prices[0], risen);
    }

    #[test]
    fn balanced_period_leaves_prices_unchanged() {
        let mut p = NonTatonnementPricer::new(3, PricerConfig::default());
        let before = p.prices();
        p.on_period_end(&qv(&[0, 0, 0]));
        assert_eq!(p.prices(), before);
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

    /// A refusal's adjustment and a leftover's decay, each recorded once
    /// and labeled, and the row they leave the one a silent pass leaves.
    #[test]
    fn the_rules_emit_labeled_adjustments() {
        let (tel, buf) = Telemetry::buffered();
        let rules = PriceRules::new(&PricerConfig::default());
        let mut row = vec![rules.initial(); 2];
        let old = row[0];
        row[0] = rules.refuse(old, 1);
        rules.adjusted(&tel, 7, 0, old, row[0], PriceReason::Rejection);
        let mut silent = row.clone();
        rules.decay_leftover(&mut row, &[0, 2], &tel, 7);
        rules.decay_leftover(&mut silent, &[0, 2], &Silent, 7);
        assert_eq!(row, silent);
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
            TelemetryEvent::PriceAdjusted {
                node,
                class,
                reason,
                ..
            } => {
                assert_eq!((*node, *class), (7, 1));
                assert_eq!(*reason, PriceReason::PeriodDecay);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn config_validation_rejects_bad_lambda() {
        let _ = NonTatonnementPricer::new(1, PricerConfig { lambda: 1.5 });
    }
}
