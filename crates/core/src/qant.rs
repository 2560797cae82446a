//! The QA-NT algorithm (§3.3) — the server-side state machine, for a
//! whole population of sellers at once ([`QantMarket`]: one row of
//! node-major columns per seller) or for one ([`QantNode`], one row).
//!
//! Direct transcription of the paper's pseudo-code, per row:
//!
//! ```text
//! 1  Repeat for ever
//! 2    Given the current prices p⃗, solve (4). This calculates the
//!      optimal supply vector s⃗ᵢ of the node.
//! 3    While a time period τ has not elapsed do
//! 4      If a client asks to evaluate qₖ and s_ik > 0 then
//! 5        Offer to evaluate the query.
//! 6        If offer is accepted set s_ik = s_ik − 1.
//! 7      Else
//! 8        Do not offer to evaluate query qₖ.
//! 9        Set pₖ = pₖ + λpₖ.
//! 10     End If
//! 11   End while
//! 12   For each k s.t. s_ik > 0 do
//! 13     Set pₖ = pₖ − s_ik λ pₖ
//! 14   End For
//! 15 End Repeat
//! ```
//!
//! plus the §5.1 *price-threshold* refinement: a node "will properly track
//! query prices but will only use them to calculate the node's query supply
//! vectors if they are above a specific threshold" — below the threshold
//! the node behaves like an always-offer server (the market is a pure
//! overload-control mechanism).

use qa_economics::{
    adjusted, ln_price, PriceVector, PricerConfig, QuantityVector, RefusalChain, ReplayWork,
};
use qa_simnet::telemetry::{PriceReason, Telemetry, TelemetryEvent};
use qa_simnet::{DetRng, SimDuration};
use qa_workload::ClassId;
use std::ops::Range;

/// QA-NT tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QantConfig {
    /// Price dynamics (λ, floor, ceiling, initial).
    pub pricer: PricerConfig,
    /// Length of the time period τ (paper default: 500 ms).
    pub period: SimDuration,
    /// Optional §5.1 threshold: when `Some(t)` and every private price is
    /// ≤ `t × its initial value`, the node offers unconditionally (supply
    /// restriction off). Measured relative to the node's own initial
    /// prices so that per-node jitter does not count as market stress.
    pub price_threshold: Option<f64>,
    /// Log-space half-width of per-node initial price jitter (see
    /// [`QantMarket::with_jitter`]); 0 = no jitter.
    pub initial_price_jitter: f64,
    /// Renormalize private prices (geometric mean → 1) at every period
    /// end. Scale-invariant (only relative prices drive supply), it keeps
    /// long overloads from saturating the clamps and measurably improves
    /// near-capacity behaviour. **Do not combine with `price_threshold`**:
    /// the recentring lets decayed idle classes drag the mean down and
    /// catapult active classes across the threshold — threshold
    /// deployments must set this to `false`, and [`QantMarket`] refuses
    /// the combination.
    pub renormalize_prices: bool,
}

impl Default for QantConfig {
    fn default() -> Self {
        QantConfig {
            pricer: PricerConfig::default(),
            period: SimDuration::from_millis(500),
            price_threshold: None,
            initial_price_jitter: 1.5,
            renormalize_prices: true,
        }
    }
}

/// The QA-NT sellers of one run: `rows` nodes × `classes` query classes of
/// private state in node-major columns (`column[row * classes + class]`),
/// one configuration, one refusal chain and one telemetry handle for all
/// of them. Rows share nothing: every method touches the rows it names,
/// and touches each the way it would touch a lone seller, so a population
/// behaves exactly like that many independent sellers — [`QantNode`] is
/// the one-row case.
///
/// A row outside a period (before its first [`Self::begin_period`], after
/// a [`Self::roll`] that did not reopen it) has all-zero supply: it offers
/// nothing, an accept finds nothing to take, and its leftover decays no
/// price.
#[derive(Debug, Clone)]
pub struct QantMarket {
    config: QantConfig,
    chain: RefusalChain,
    classes: usize,
    /// Private prices (never sent over the network).
    prices: Vec<f64>,
    /// Supply still unsold this period.
    supply: Vec<u64>,
    /// Error-diffusion carry: the fractional part of the relaxed eq.-4
    /// solution, rolled into the next period's (see `solve`).
    carry: Vec<f64>,
    /// Estimated execution time in ms (`None` = cannot run), as of the
    /// row's last `begin_period` — estimates may improve over time.
    cost: Vec<Option<f64>>,
    /// Initial prices (post-jitter), the baseline for the §5.1 threshold.
    initial: Vec<f64>,
    /// Scratch of the supply solve: a row's capable classes as
    /// `(density, cost, class)`, in fill order.
    order: Vec<(f64, f64, usize)>,
    /// Scratch of the renormalization: each rolled row's `ln` sum.
    ln_sums: Vec<f64>,
    /// Scratch of the refusal walk: `(owed, slot)` lanes.
    lanes: Vec<(u64, usize)>,
    /// Market-event sink (disabled by default: one branch per emit site);
    /// row `r`'s events carry the node id `label + r`.
    telemetry: Telemetry,
}

impl QantMarket {
    /// `rows` sellers over `k` query classes whose initial prices are
    /// jittered per class by `exp(U(-σ, σ))` with
    /// `σ = config.initial_price_jitter`, drawn row by row.
    ///
    /// Under the multiplicative non-tâtonnement dynamics, log-price offsets
    /// between nodes never decay, so this one-time jitter permanently
    /// staggers the price ratios at which otherwise-identical nodes switch
    /// their supply between classes — the population splits into a stable
    /// mix of specializations instead of flip-flopping in lockstep.
    pub fn with_jitter(rows: usize, k: usize, config: QantConfig, rng: &mut DetRng) -> QantMarket {
        let sigma = config.initial_price_jitter;
        assert!(sigma >= 0.0 && sigma.is_finite());
        let pricer = config.pricer;
        let jittered = |_| {
            let factor = if sigma > 0.0 {
                rng.float_in(-sigma, sigma).exp()
            } else {
                1.0
            };
            (pricer.initial_price * factor).clamp(pricer.price_floor, pricer.price_ceiling)
        };
        QantMarket::with_prices(k, config, (0..rows * k).map(jittered).collect())
    }

    fn with_prices(k: usize, config: QantConfig, prices: Vec<f64>) -> QantMarket {
        config.pricer.validate();
        assert!(
            config.price_threshold.is_none() || !config.renormalize_prices,
            "price_threshold needs renormalize_prices: false"
        );
        QantMarket {
            chain: RefusalChain::new(&config.pricer),
            config,
            classes: k,
            supply: vec![0; prices.len()],
            carry: vec![0.0; prices.len()],
            cost: vec![None; prices.len()],
            initial: prices.clone(),
            prices,
            order: Vec::with_capacity(k),
            ln_sums: Vec::new(),
            lanes: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle: supply solves, request rejections and
    /// price adjustments of row `r` emit through it as node
    /// `telemetry.label() + r`. Install *before* the first `begin_period`
    /// to capture the initial supply solves.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn span(&self, row: usize) -> std::ops::Range<usize> {
        row * self.classes..(row + 1) * self.classes
    }

    fn node(&self, row: usize) -> u32 {
        self.telemetry.label() + row as u32
    }

    /// Row `row`'s private prices (exposed for diagnostics and tests only).
    #[inline]
    pub fn prices(&self, row: usize) -> &[f64] {
        &self.prices[self.span(row)]
    }

    /// Row `row`'s remaining supply for the current period.
    #[inline]
    pub fn supply(&self, row: usize) -> &[u64] {
        &self.supply[self.span(row)]
    }

    /// Every row's remaining supply, node-major: row `r`'s is
    /// [`Self::supply`]`(r)`.
    #[inline]
    pub fn supply_column(&self) -> &[u64] {
        &self.supply
    }

    /// Row `row`'s error-diffusion carry.
    #[inline]
    pub fn carry(&self, row: usize) -> &[f64] {
        &self.carry[self.span(row)]
    }

    /// `ln(price)` of one class of one row: the log domain is what the
    /// sharded engine's period reports aggregate, over the classes each
    /// node can run.
    #[inline]
    pub fn ln_price(&self, row: usize, class: ClassId) -> f64 {
        ln_price(self.prices[row * self.classes + class.index()])
    }

    /// Step 2 alone: row `row` starts a period — its first, or the next
    /// after a [`Self::roll`] that left it closed — with a capacity budget
    /// of `budget_ms` milliseconds. `unit_costs_ms[k]` is the node's
    /// estimated execution time for class `k` in milliseconds (`None` =
    /// cannot run), kept for the row's later rolls; `demand_caps`
    /// optionally bounds per-class supply by observed demand.
    pub fn begin_period(
        &mut self,
        row: usize,
        unit_costs_ms: &[Option<f64>],
        demand_caps: Option<&[u64]>,
        budget_ms: f64,
    ) {
        let at = row * self.classes;
        self.cost[at..at + self.classes].copy_from_slice(unit_costs_ms);
        self.solve(row..row + 1, demand_caps, &mut |_| Some(budget_ms));
    }

    /// The period boundary of every row in `rows` (§3.3 steps 12–14, then
    /// step 2): leftover supply lowers prices and is withdrawn, prices are
    /// renormalized, and a row for which `budget(row)` is `Some(ms)` solves
    /// eq. 4 for the next period under that capacity budget and its kept
    /// costs (`None` leaves it closed: a dead node goes quiet).
    /// `demand_caps` as in [`Self::begin_period`].
    ///
    /// The supply set "depends on [the node's] available hardware
    /// resources" (§2.2): an idle node can deliver up to two periods of
    /// work within the coming period-and-backlog window, a backlogged one
    /// proportionally less. Drivers pass `2T − current_backlog` so node
    /// queues stay bounded by `2T` while idle capacity is never refused —
    /// the work-conserving form of QA-NT admission control.
    ///
    /// The whole run is ended, a column pass at a time, before any row is
    /// solved. Only the telemetry could tell, so with it on each row is
    /// ended and solved before the next, its events in their own order.
    pub fn roll(
        &mut self,
        rows: Range<usize>,
        demand_caps: Option<&[u64]>,
        mut budget: impl FnMut(usize) -> Option<f64>,
    ) {
        if self.telemetry.is_enabled() {
            for row in rows {
                self.end(row..row + 1);
                self.solve(row..row + 1, demand_caps, &mut budget);
            }
        } else {
            self.end(rows.clone());
            self.solve(rows, demand_caps, &mut budget);
        }
    }

    /// Steps 12–14 and the renormalization over `rows`, in column order.
    /// A run of more than one row is only ended with telemetry off, where
    /// no event reads the node label the decay is handed.
    fn end(&mut self, rows: Range<usize>) {
        let _span = self.telemetry.span("qant.price_update");
        let (k, node) = (self.classes, self.node(rows.start));
        let run = rows.start * k..rows.end * k;
        let pricer = &self.config.pricer;
        let prices = &mut self.prices[run.clone()];
        let leftover = &mut self.supply[run];
        pricer.decay_leftover(prices, leftover, &self.telemetry, node);
        leftover.fill(0);
        if self.config.renormalize_prices {
            pricer.renormalize_rows(prices, k, &mut self.ln_sums, &self.telemetry, node);
        }
    }

    /// Step 2 for every row of `rows` that `budget` opens.
    fn solve(
        &mut self,
        rows: Range<usize>,
        demand_caps: Option<&[u64]>,
        budget: &mut impl FnMut(usize) -> Option<f64>,
    ) {
        let _span = self.telemetry.span("qant.supply_solve");
        let (k, label) = (self.classes, self.telemetry.label());
        for row in rows {
            let Some(budget_ms) = budget(row) else {
                continue;
            };
            assert!(budget_ms.is_finite() && budget_ms >= 0.0);
            let span = row * k..(row + 1) * k;
            let cost = &self.cost[span.clone()];
            let supply = &mut self.supply[span.clone()];
            let carry = &mut self.carry[span.clone()];
            // Integer-greedy fill by price density `p/t` (descending, ties
            // to the lower class), with two refinements over the plain
            // knapsack:
            //
            // * capacity left after the whole units of a denser class
            //   cascades to the next class — the paper's §3.2 example where
            //   a node supplies (1 q1, 1 q2) within one 500 ms period;
            // * the fractional remainder of each class rolls over to the
            //   next period (error diffusion), so a class whose equilibrium
            //   amount is e.g. 0.5/period (execution longer than `T`) is
            //   supplied every other period rather than never — the
            //   integer-rounding effect the paper analyses in §5.1.
            self.order.clear();
            let prices = &self.prices[span];
            for (class, (&p, &t)) in prices.iter().zip(cost).enumerate() {
                if let Some(t) = t {
                    self.order.push((p / t, t, class));
                }
            }
            self.order
                .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
            supply.fill(0);
            let mut remaining = budget_ms;
            for &(_, t, class) in &self.order {
                // Fractional allotment this period plus the rolled-over
                // carry.
                let alloc = remaining / t + carry[class];
                // `as` floors, and saturates a negative allotment to zero.
                let mut units = alloc as u64;
                if let Some(caps) = demand_caps {
                    units = units.min(caps[class]);
                }
                supply[class] = units;
                // Carry keeps the unreleased fraction, clamped to < 1 so a
                // demand-capped class cannot hoard unbounded future supply.
                carry[class] = (alloc - units as f64).clamp(0.0, 0.999_999);
                remaining = (remaining - units as f64 * t).max(0.0);
            }
            self.telemetry.emit(|| TelemetryEvent::SupplyComputed {
                node: label + row as u32,
                budget_ms,
                supply: supply.to_vec(),
            });
        }
    }

    /// Steps 4–10: a request for class `class` arrived at row `row`.
    /// Returns `true` when the node offers. A refusal raises the private
    /// price (step 9).
    ///
    /// In the §5.1 threshold mode the node "properly track\[s\] query
    /// prices" regardless: supply exhaustion still raises the price even
    /// while the node keeps offering — that is how a quiet market learns
    /// it is becoming overloaded and engages the restriction: no price has
    /// inflated past `threshold ×` its initial value.
    #[inline]
    pub fn on_request(&mut self, row: usize, class: ClassId) -> bool {
        let (k, at) = (class.index(), row * self.classes + class.index());
        if k >= self.classes || self.cost[at].is_none() {
            // No data for this class: not a market event, no price change.
            return false;
        }
        if self.supply[at] > 0 {
            return true;
        }
        let (node, old) = (self.node(row), self.prices[at]);
        self.prices[at] = self.chain.step(old);
        let new = self.prices[at];
        adjusted(&self.telemetry, node, k, old, new, PriceReason::Rejection);
        let span = self.span(row);
        let mut rises = self.prices[span.clone()].iter().zip(&self.initial[span]);
        let threshold = self.config.price_threshold;
        let bypass = threshold.is_some_and(|t| rises.all(|(p, initial)| *p <= t * initial));
        if !bypass {
            self.telemetry.emit(|| TelemetryEvent::RequestRejected {
                node,
                class: k as u32,
            });
        }
        bypass
    }

    /// Charges every `(row, count)` of `owed` that many refused
    /// class-`class` requests: exactly the rejection arm of
    /// [`Self::on_request`], batched — the price rises are bit-identical to
    /// that many eager calls (see [`RefusalChain::replay`], which also
    /// fills in `work`). Every lane of the class is pooled into that one
    /// walk. Rows incapable of the class are not charged: an eager
    /// `on_request` would not have been a market event either. No row may
    /// be named twice.
    ///
    /// The caller owns the equivalence argument: it may only defer
    /// refusals it has *proven* would each return `false` from
    /// `on_request` (supply exhausted, threshold bypass already off —
    /// prices are non-decreasing within a period, so a full refusal stays
    /// one), and only while telemetry is disabled (the eager path emits
    /// two events per refusal).
    pub fn charge_refusals(
        &mut self,
        class: ClassId,
        owed: impl IntoIterator<Item = (usize, u64)>,
        work: &mut ReplayWork,
    ) {
        debug_assert!(!self.telemetry.is_enabled());
        let (k, cost) = (self.classes, &self.cost);
        let lanes = owed.into_iter().map(|(row, count)| {
            let at = row * k + class.index();
            (if cost[at].is_some() { count } else { 0 }, at)
        });
        self.lanes.clear();
        self.lanes.extend(lanes);
        self.chain.replay(&mut self.prices, &mut self.lanes, work);
    }

    /// Step 6: row `row`'s offer was accepted — consume one supply unit
    /// (saturating: in bypass mode accepts may exceed the period supply).
    /// Returns what is left.
    #[inline]
    pub fn on_accept(&mut self, row: usize, class: ClassId) -> u64 {
        let left = &mut self.supply[row * self.classes + class.index()];
        *left = left.saturating_sub(1);
        *left
    }
}

/// Per-node QA-NT state: private prices + current-period supply vector —
/// a [`QantMarket`] of one row, for a node that keeps its own market (the
/// threaded cluster's, a `qad` process's).
#[derive(Debug, Clone)]
pub struct QantNode(QantMarket);

impl QantNode {
    /// A node over `k` query classes with uniform initial prices.
    pub fn new(k: usize, config: QantConfig) -> QantNode {
        let prices = vec![config.pricer.initial_price; k];
        QantNode(QantMarket::with_prices(k, config, prices))
    }

    /// A node with jittered initial prices: [`QantMarket::with_jitter`].
    pub fn with_jitter(k: usize, config: QantConfig, rng: &mut DetRng) -> QantNode {
        QantNode(QantMarket::with_jitter(1, k, config, rng))
    }

    /// Installs a telemetry handle (label it with this node's id via
    /// [`Telemetry::with_label`]): [`QantMarket::set_telemetry`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.0.set_telemetry(telemetry);
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.0.classes
    }

    /// The configuration.
    pub fn config(&self) -> &QantConfig {
        &self.0.config
    }

    /// The private prices (never sent over the network; exposed for
    /// diagnostics and tests only).
    pub fn prices(&self) -> PriceVector {
        PriceVector::from_prices(self.0.prices(0).to_vec())
    }

    /// Remaining supply for the current period (all zero outside one).
    pub fn supply(&self) -> QuantityVector {
        QuantityVector::from_counts(self.0.supply(0).to_vec())
    }

    /// [`Self::begin_period_with_budget`] with one period `T` of budget.
    pub fn begin_period(
        &mut self,
        unit_costs_ms: &[Option<f64>],
        demand_caps: Option<&QuantityVector>,
    ) {
        let budget = self.0.config.period.as_millis_f64();
        self.begin_period_with_budget(unit_costs_ms, demand_caps, budget);
    }

    /// Step 2, with an explicit budget: [`QantMarket::begin_period`].
    pub fn begin_period_with_budget(
        &mut self,
        unit_costs_ms: &[Option<f64>],
        demand_caps: Option<&QuantityVector>,
        budget_ms: f64,
    ) {
        let caps = demand_caps.map(QuantityVector::as_slice);
        self.0.begin_period(0, unit_costs_ms, caps, budget_ms);
    }

    /// Steps 4–10: [`QantMarket::on_request`].
    pub fn on_request(&mut self, class: ClassId) -> bool {
        self.0.on_request(0, class)
    }

    /// Step 6: [`QantMarket::on_accept`].
    pub fn on_accept(&mut self, class: ClassId) {
        self.0.on_accept(0, class);
    }

    /// Steps 12–14 alone: [`QantMarket::roll`] over this node's row,
    /// leaving it closed until the next [`Self::begin_period`].
    pub fn end_period(&mut self) {
        self.0.roll(0..1, None, |_| None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node N1 of the paper's example: q1 = 400 ms, q2 = 100 ms, T = 500 ms.
    fn n1() -> QantNode {
        let mut n = QantNode::new(2, QantConfig::default());
        n.begin_period(&[Some(400.0), Some(100.0)], None);
        n
    }

    #[test]
    fn initial_supply_prefers_denser_class() {
        // §3.3 walkthrough: at equal prices N1 supplies only q2.
        let n = n1();
        assert_eq!(n.supply().as_slice(), &[0, 5]);
    }

    #[test]
    fn offers_while_supply_lasts_then_rejects_and_raises_price() {
        let mut n = n1();
        let p_before = n.prices().get(0);
        // q1 supply is zero: reject and raise p1.
        assert!(!n.on_request(ClassId(0)));
        assert!(n.prices().get(0) > p_before);
        // q2 has 5 units: all five offers succeed.
        for _ in 0..5 {
            assert!(n.on_request(ClassId(1)));
            n.on_accept(ClassId(1));
        }
        // Sixth q2 request: supply exhausted, reject, p2 rises.
        let p2 = n.prices().get(1);
        assert!(!n.on_request(ClassId(1)));
        assert!(n.prices().get(1) > p2);
    }

    #[test]
    fn rejections_eventually_shift_supply_to_scarce_class() {
        // Sustained unmet q1 demand must make N1 start supplying q1 —
        // the paper's §3.3 narrative.
        let mut n = n1();
        for _ in 0..60 {
            let _ = n.on_request(ClassId(0)); // unmet q1 demand
            n.end_period();
            n.begin_period(&[Some(400.0), Some(100.0)], None);
            if n.supply().get(0) > 0 {
                break;
            }
        }
        assert!(
            n.supply().get(0) > 0,
            "q1 price never rose enough: prices {}",
            n.prices()
        );
    }

    #[test]
    fn leftover_supply_decays_prices() {
        let mut n = n1();
        let p2 = n.prices().get(1);
        // Nothing consumed: 5 leftover q2 units.
        n.end_period();
        assert!(n.prices().get(1) < p2);
    }

    #[test]
    fn incapable_class_neither_offers_nor_moves_price() {
        let mut n = QantNode::new(2, QantConfig::default());
        n.begin_period(&[None, Some(100.0)], None);
        let p_before = n.prices().get(0);
        assert!(!n.on_request(ClassId(0)));
        assert_eq!(
            n.prices().get(0),
            p_before,
            "no market event for missing data"
        );
    }

    #[test]
    fn demand_caps_bound_supply() {
        let mut n = QantNode::new(2, QantConfig::default());
        let caps = QuantityVector::from_counts(vec![0, 2]);
        n.begin_period(&[Some(400.0), Some(100.0)], Some(&caps));
        assert_eq!(n.supply().as_slice(), &[0, 2]);
    }

    #[test]
    fn threshold_mode_tracks_prices_and_engages_under_stress() {
        let cfg = QantConfig {
            price_threshold: Some(2.0),
            renormalize_prices: false,
            ..QantConfig::default()
        };
        let mut n = QantNode::new(1, cfg);
        n.begin_period(&[Some(400.0)], None);
        // Supply is 1; with the market quiet the node keeps offering
        // beyond it (bypass), but every over-supply acceptance is a
        // tracked rejection event that inflates the price…
        let mut offered_beyond_supply = 0;
        let mut engaged_at = None;
        for i in 0..20 {
            let offered = n.on_request(ClassId(0));
            if offered {
                n.on_accept(ClassId(0));
                if i > 0 {
                    offered_beyond_supply += 1;
                }
            } else {
                engaged_at = Some(i);
                break;
            }
        }
        // …until the price crosses 2× its initial value (1.1^8 ≈ 2.14)
        // and the restriction engages.
        assert!(offered_beyond_supply > 3, "bypass must have been active");
        let at = engaged_at.expect("restriction must eventually engage");
        assert!((5..=12).contains(&at), "engaged at request {at}");
        assert!(n.prices().get(0) > 2.0);
    }

    #[test]
    #[should_panic(expected = "renormalize_prices: false")]
    fn threshold_mode_refuses_renormalization() {
        let cfg = QantConfig {
            price_threshold: Some(2.0),
            ..QantConfig::default()
        };
        let _ = QantNode::new(1, cfg);
    }

    #[test]
    fn end_period_without_begin_is_safe() {
        let mut n = QantNode::new(3, QantConfig::default());
        n.end_period(); // no supply yet: all-zero leftover, prices unchanged
        assert_eq!(n.prices().get(0), 1.0);
    }

    #[test]
    fn node_emits_supply_and_rejection_events() {
        use qa_simnet::Telemetry;
        let (tel, buf) = Telemetry::buffered();
        let mut n = QantNode::new(2, QantConfig::default());
        n.set_telemetry(tel.with_label(4));
        n.begin_period(&[Some(400.0), Some(100.0)], None);
        let _ = n.on_request(ClassId(0)); // q1 supply is 0: refused
        let kinds: Vec<&str> = buf.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            vec!["supply_computed", "price_adjusted", "request_rejected"]
        );
        match &buf.records()[0].event {
            TelemetryEvent::SupplyComputed {
                node,
                budget_ms,
                supply,
            } => {
                assert_eq!(*node, 4);
                assert_eq!(*budget_ms, 500.0);
                assert_eq!(supply, &vec![0, 5]);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Spans landed in the registry, not the trace.
        let snap = tel.registry().unwrap().snapshot();
        assert!(snap
            .get("stats")
            .unwrap()
            .get("span.qant.supply_solve_us")
            .is_some());
    }

    #[test]
    fn accept_on_exhausted_supply_saturates() {
        let mut n = n1();
        for _ in 0..7 {
            n.on_accept(ClassId(1)); // more accepts than supply
        }
        assert_eq!(n.supply().get(1), 0);
    }

    /// The column store's bug class is a wrong stride or offset: an N-row
    /// market must stay equal, to the bit, to N one-row nodes driven by
    /// the same calls.
    #[test]
    fn rows_do_not_bleed() {
        let mut rng = DetRng::seed_from_u64(0xB1EED).derive("rows");
        let period_ms = QantConfig::default().period.as_millis_f64();
        for case in 0..48 {
            let k = [1, 2, 7][case % 3];
            let n = 1 + rng.index(if case % 4 == 0 { 150 } else { 12 });
            let threshold = case % 2 == 0;
            let config = QantConfig {
                price_threshold: threshold.then_some(2.0),
                renormalize_prices: !threshold,
                ..QantConfig::default()
            };
            let mut jitter = rng.derive("jitter");
            let mut market = QantMarket::with_jitter(n, k, config, &mut jitter.clone());
            let mut nodes: Vec<QantNode> = (0..n)
                .map(|_| QantNode::with_jitter(k, config, &mut jitter))
                .collect();
            let costs: Vec<Vec<Option<f64>>> = (0..n)
                .map(|_| {
                    (0..k)
                        .map(|_| rng.chance(0.8).then(|| rng.float_in(20.0, 900.0)))
                        .collect()
                })
                .collect();
            // The costs a row's rolls solve under, kept as its first
            // `begin_period` would keep them.
            market.cost = costs.concat();
            for (node, costs) in nodes.iter_mut().zip(&costs) {
                node.0.cost.clone_from(costs);
            }
            for step in 0..400 {
                let (row, class) = (rng.index(n), ClassId(rng.index(k) as u32));
                match rng.index(5) {
                    0 | 1 => assert_eq!(
                        market.on_request(row, class),
                        nodes[row].on_request(class),
                        "case {case} step {step}"
                    ),
                    2 => {
                        market.on_accept(row, class);
                        nodes[row].on_accept(class);
                    }
                    3 => {
                        // Refusals short of, near and far past saturation,
                        // and rows owed none.
                        let lo = rng.index(n);
                        let owed: Vec<(usize, u64)> = (lo..n.min(lo + 1 + rng.index(100)))
                            .map(|r| (r, [0, 1, rng.int_in(2, 400), 1 << 40][rng.index(4)]))
                            .collect();
                        let work = &mut ReplayWork::default();
                        market.charge_refusals(class, owed.iter().copied(), work);
                        for &(r, count) in &owed {
                            let before = nodes[r].prices().get(class.index());
                            nodes[r].0.charge_refusals(class, [(0, count)], work);
                            // Not a market event for a row that cannot run
                            // the class.
                            if costs[r][class.index()].is_none() {
                                assert_eq!(nodes[r].prices().get(class.index()), before);
                            }
                        }
                    }
                    _ => {
                        let caps: Vec<u64> = (0..k).map(|_| rng.int_in(0, 6)).collect();
                        let caps = rng.chance(0.5).then_some(caps);
                        let rows = if rng.chance(0.3) { 0..n } else { row..row + 1 };
                        let budgets: Vec<Option<f64>> = (0..n)
                            .map(|_| {
                                let budget = [0.0, rng.float_in(0.0, 2.0), 2.0][rng.index(3)];
                                rng.chance(0.9).then_some(budget * period_ms)
                            })
                            .collect();
                        market.roll(rows.clone(), caps.as_deref(), |r| budgets[r]);
                        let caps = caps.map(QuantityVector::from_counts);
                        for row in rows {
                            nodes[row].end_period();
                            if let Some(budget) = budgets[row] {
                                let caps = caps.as_ref();
                                nodes[row].begin_period_with_budget(&costs[row], caps, budget);
                            }
                        }
                    }
                }
                for (row, node) in nodes.iter().enumerate() {
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let of = |m: &QantMarket, r: usize| {
                        (bits(m.prices(r)), m.supply(r).to_vec(), bits(m.carry(r)))
                    };
                    assert_eq!(
                        of(&market, row),
                        of(&node.0, 0),
                        "case {case} (n={n}, k={k}) step {step}: row {row}"
                    );
                }
            }
        }
    }

    /// The period end one row at a time, as it stood before the boundary
    /// kernel: the reference [`QantMarket::roll`] is held to.
    fn end_period_per_row(m: &mut QantMarket, row: usize) {
        let (span, node) = (m.span(row), m.node(row));
        let prices = &mut m.prices[span.clone()];
        let leftover = &mut m.supply[span];
        let pricer = &m.config.pricer;
        pricer.decay_leftover(prices, leftover, &m.telemetry, node);
        if m.config.renormalize_prices {
            pricer.renormalize(prices, &m.telemetry, node);
        }
        leftover.fill(0);
    }

    /// The supply solve one row at a time, likewise.
    fn begin_period_per_row(
        m: &mut QantMarket,
        row: usize,
        unit_costs_ms: &[Option<f64>],
        demand_caps: Option<&[u64]>,
        budget_ms: f64,
    ) {
        let (span, node) = (m.span(row), m.node(row));
        m.cost[span.clone()].copy_from_slice(unit_costs_ms);
        let cost = &m.cost[span.clone()];
        let supply = &mut m.supply[span.clone()];
        let carry = &mut m.carry[span.clone()];
        let mut order = Vec::new();
        qa_economics::price_density_order_into(&m.prices[span], cost, &mut order);
        supply.fill(0);
        let mut remaining = budget_ms;
        for &k in &order {
            let t = cost[k].expect("filtered");
            let alloc = remaining / t + carry[k];
            let mut units = alloc as u64;
            if let Some(caps) = demand_caps {
                units = units.min(caps[k]);
            }
            supply[k] = units;
            carry[k] = (alloc - units as f64).clamp(0.0, 0.999_999);
            remaining = (remaining - units as f64 * t).max(0.0);
        }
        m.telemetry.emit(|| TelemetryEvent::SupplyComputed {
            node,
            budget_ms,
            supply: supply.to_vec(),
        });
    }

    /// The kernel against the per-row end → begin on the same random rows,
    /// at the edges: K = 1 and 5, `None` costs (whole rows of them),
    /// prices at the floor and the ceiling, leftover 0, 1 and huge, caps
    /// of 0, budget 0, dead rows and rows outside the rolled run. Prices,
    /// supply and carry must agree to the bit everywhere, and with the
    /// telemetry on the events must come in the same sequence.
    #[test]
    fn the_roll_kernel_is_the_per_row_boundary_to_the_bit() {
        let mut rng = DetRng::seed_from_u64(0x2011).derive("roll");
        let period_ms = QantConfig::default().period.as_millis_f64();
        let mut events = 0;
        for case in 0..240 {
            let k = [1, 2, 5][case % 3];
            let n = 1 + rng.index(40);
            let pricer = if case % 5 == 0 {
                // Tight clamps: the renormalization pins prices to both.
                PricerConfig {
                    price_floor: 0.5,
                    price_ceiling: 4.0,
                    ..PricerConfig::default()
                }
            } else {
                PricerConfig::default()
            };
            let config = QantConfig {
                pricer,
                renormalize_prices: case % 7 != 3,
                ..QantConfig::default()
            };
            let mut kernel = QantMarket::with_jitter(n, k, config, &mut rng.derive("jitter"));
            let (floor, ceiling) = (pricer.price_floor, pricer.price_ceiling);
            let capable = rng.chance(0.9);
            for at in 0..n * k {
                kernel.prices[at] = match rng.index(6) {
                    0 => floor,
                    1 => ceiling,
                    _ => (floor * (ceiling / floor).powf(rng.float_in(0.0, 1.0))).min(ceiling),
                };
                kernel.supply[at] = [0, 1, rng.int_in(2, 20), 1 << 40][rng.index(4)];
                kernel.carry[at] = rng.float_in(0.0, 0.999_999);
                let cost = [1e-3, rng.float_in(1.0, 900.0), 4_000.0][rng.index(3)];
                kernel.cost[at] = (capable && rng.chance(0.75)).then_some(cost);
            }
            let mut reference = kernel.clone();
            let traced = case % 2 == 0;
            let (tel, buf) = Telemetry::buffered();
            let (ref_tel, ref_buf) = Telemetry::buffered();
            if traced {
                kernel.set_telemetry(tel.with_label(100));
                reference.set_telemetry(ref_tel.with_label(100));
            }
            let lo = rng.index(n);
            let rows = lo..lo + 1 + rng.index(n - lo);
            let caps: Vec<u64> = (0..k).map(|_| rng.int_in(0, 4)).collect();
            let caps = rng.chance(0.5).then_some(caps);
            let budgets: Vec<Option<f64>> = (0..n)
                .map(|_| {
                    let budget = [0.0, rng.float_in(0.0, 2.0), 2.0][rng.index(3)];
                    rng.chance(0.85).then_some(budget * period_ms)
                })
                .collect();
            kernel.roll(rows.clone(), caps.as_deref(), |r| budgets[r]);
            for row in rows {
                end_period_per_row(&mut reference, row);
                if let Some(budget) = budgets[row] {
                    let costs = reference.cost[reference.span(row)].to_vec();
                    begin_period_per_row(&mut reference, row, &costs, caps.as_deref(), budget);
                }
            }
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&kernel.prices), bits(&reference.prices), "case {case}");
            assert_eq!(kernel.supply, reference.supply, "case {case}");
            assert_eq!(bits(&kernel.carry), bits(&reference.carry), "case {case}");
            let sequence = |records: Vec<qa_simnet::telemetry::TraceRecord>| {
                records
                    .iter()
                    .map(|r| format!("{:?}", r.event))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                sequence(buf.records()),
                sequence(ref_buf.records()),
                "case {case}"
            );
            events += buf.records().len();
        }
        assert!(events > 1_000, "the traced cases emitted {events} events");
    }
}
