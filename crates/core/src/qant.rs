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
//!
//! Prices are held as log-prices in quanta ([`qa_economics::PriceRules`]),
//! so steps 9 and 13 are integer adds, and so are the comparisons made
//! from prices: step 2's density order `ln p − ln t` (`ln t` is computed
//! when the costs are set) and the threshold's `ln p ≤ ln t`.
//! A linear price is made only where one is read out: [`QantNode::prices`]
//! and telemetry.

use qa_economics::{
    ln_of_quanta, to_quanta, PriceRules, PriceVector, PricerConfig, QuantityVector,
};
use qa_simnet::telemetry::{PriceReason, Telemetry, TelemetryEvent};
use qa_simnet::SimDuration;
use qa_workload::ClassId;
use std::convert::Infallible;
use std::ops::Range;

/// QA-NT tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QantConfig {
    /// Price dynamics (λ).
    pub pricer: PricerConfig,
    /// Length of the time period τ (paper default: 500 ms).
    pub period: SimDuration,
    /// Optional §5.1 threshold: when `Some(t)` and every private price is
    /// ≤ `t` (`t ×` the initial price of 1), the node offers
    /// unconditionally (supply restriction off). It also floors the
    /// period budget at `T/2` (see [`QantMarket::roll`]).
    pub price_threshold: Option<f64>,
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
            renormalize_prices: true,
        }
    }
}

/// The QA-NT sellers of one run: `rows` nodes × `classes` query classes of
/// private state in node-major columns (`column[row * classes + class]`),
/// one configuration, one set of price rules and one telemetry handle for
/// all of them. Rows share nothing: every method touches the rows it names,
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
    rules: PriceRules,
    /// The §5.1 threshold price `t`, in log-price quanta.
    threshold: Option<i64>,
    classes: usize,
    /// Private log-prices in quanta (never sent over the network).
    prices: Vec<i64>,
    /// Supply still unsold this period.
    supply: Vec<u64>,
    /// Error-diffusion carry: the fractional part of the relaxed eq.-4
    /// solution, rolled into the next period's (see `solve`).
    carry: Vec<f64>,
    /// Estimated execution time in ms and its `ln` in quanta (`None` =
    /// cannot run), as of the row's last `begin_period` — estimates may
    /// improve over time.
    cost: Vec<Option<(f64, i64)>>,
    /// Scratch of the supply solve: a row's capable classes as
    /// `(ln density, cost, class)`, in fill order.
    order: Vec<(i64, f64, usize)>,
    /// Market-event sink (disabled by default: one branch per emit site);
    /// row `r`'s events carry the node id `label + r`.
    telemetry: Telemetry,
}

impl QantMarket {
    /// `rows` sellers over `k` query classes, every price at
    /// [`PriceRules::INITIAL_PRICE`].
    pub fn new(rows: usize, k: usize, config: QantConfig) -> QantMarket {
        let rules = PriceRules::new(&config.pricer);
        assert!(
            config.price_threshold.is_none() || !config.renormalize_prices,
            "price_threshold needs renormalize_prices: false"
        );
        let n = rows * k;
        QantMarket {
            threshold: config.price_threshold.map(|t| to_quanta(t.ln())),
            prices: vec![rules.initial(); n],
            rules,
            config,
            classes: k,
            supply: vec![0; n],
            carry: vec![0.0; n],
            cost: vec![None; n],
            order: Vec::with_capacity(k),
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

    /// Row `row`'s private log-prices in quanta (exposed for diagnostics
    /// and tests only).
    #[inline]
    pub fn log_prices(&self, row: usize) -> &[i64] {
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

    /// `ln(price)` of one class of one row, exactly: the log domain is
    /// what the sharded engine's period reports aggregate, over the
    /// classes each node can run.
    #[inline]
    pub fn ln_price(&self, row: usize, class: ClassId) -> f64 {
        ln_of_quanta(self.prices[row * self.classes + class.index()])
    }

    /// Sets row `row`'s costs, each with its `ln` for the density order.
    fn set_costs(&mut self, row: usize, unit_costs_ms: &[Option<f64>]) {
        let span = self.span(row);
        for (cost, t) in self.cost[span].iter_mut().zip(unit_costs_ms) {
            *cost = t.map(|t| (t, to_quanta(t.ln())));
        }
    }

    /// Step 2 alone: row `row` opens its first period on one period `T`
    /// of budget. `unit_costs_ms[k]` is the node's estimated execution
    /// time for class `k` in milliseconds (`None` = cannot run), kept for
    /// the row's later rolls.
    pub fn begin_period(&mut self, row: usize, unit_costs_ms: &[Option<f64>]) {
        self.set_costs(row, unit_costs_ms);
        self.solve(row, self.config.period.as_millis_f64());
    }

    /// The period boundary of every row in `rows` (§3.3 steps 12–14, then
    /// step 2), the one seller rule every driver runs: leftover supply
    /// lowers prices and is withdrawn, prices are renormalized, and a row
    /// for which `backlog_ms(row)` is `Some(ms)` of queued work solves
    /// eq. 4 for the next period under its kept costs (`None` leaves it
    /// closed: a dead node goes quiet).
    ///
    /// The supply set "depends on [the node's] available hardware
    /// resources" (§2.2), and on nothing a buyer asked for: the budget is
    /// `(2T − backlog).clamp(floor, 2T)`. An idle node can deliver up to
    /// two periods of work within the coming period-and-backlog window, a
    /// backlogged one proportionally less, so queues stay bounded by `2T`
    /// while idle capacity is never refused — the work-conserving form of
    /// QA-NT admission control. The floor is `T/2` in the §5.1 threshold
    /// mode, so a node that queued work while the bypass was open does not
    /// refuse everything while it drains, and 0 otherwise.
    pub fn roll(&mut self, rows: Range<usize>, mut backlog_ms: impl FnMut(usize) -> Option<f64>) {
        let period = self.config.period.as_millis_f64();
        let floor = self.threshold.map_or(0.0, |_| 0.5 * period);
        for row in rows {
            self.end(row);
            if let Some(backlog) = backlog_ms(row) {
                self.solve(row, (2.0 * period - backlog).clamp(floor, 2.0 * period));
            }
        }
    }

    /// Steps 12–14 and the renormalization of row `row`.
    fn end(&mut self, row: usize) {
        let _span = self.telemetry.span("qant.price_update");
        let (span, node) = (self.span(row), self.node(row));
        let prices = &mut self.prices[span.clone()];
        let leftover = &mut self.supply[span];
        self.rules
            .decay_leftover(prices, leftover, &self.telemetry, node);
        leftover.fill(0);
        if self.config.renormalize_prices {
            self.rules.renormalize(prices, &self.telemetry, node);
        }
    }

    /// Step 2 for row `row` under a budget of `budget_ms`.
    fn solve(&mut self, row: usize, budget_ms: f64) {
        let _span = self.telemetry.span("qant.supply_solve");
        assert!(budget_ms.is_finite() && budget_ms >= 0.0);
        let span = self.span(row);
        let cost = &self.cost[span.clone()];
        let supply = &mut self.supply[span.clone()];
        let carry = &mut self.carry[span.clone()];
        // Integer-greedy fill by price density `p/t`, compared as
        // `ln p − ln t` (descending, ties to the lower class), with two
        // refinements over the plain knapsack:
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
        for (class, (&q, &cost)) in self.prices[span].iter().zip(cost).enumerate() {
            if let Some((t, ln_t)) = cost {
                self.order.push((q.saturating_sub(ln_t), t, class));
            }
        }
        self.order
            .sort_unstable_by_key(|&(density, _, class)| (std::cmp::Reverse(density), class));
        supply.fill(0);
        let mut remaining = budget_ms;
        for &(_, t, class) in &self.order {
            // Fractional allotment this period plus the rolled-over
            // carry.
            let alloc = remaining / t + carry[class];
            // `as` floors, and saturates a negative allotment to zero.
            let units = alloc as u64;
            supply[class] = units;
            // Carry keeps the unreleased fraction, held below 1.
            carry[class] = (alloc - units as f64).clamp(0.0, 0.999_999);
            remaining = (remaining - units as f64 * t).max(0.0);
        }
        self.telemetry.emit(|| TelemetryEvent::SupplyComputed {
            node: self.telemetry.label() + row as u32,
            budget_ms,
            supply: supply.to_vec(),
        });
    }

    /// Steps 4–10: a request for class `class` arrived at row `row`.
    /// Returns `true` when the node offers. A refusal raises the private
    /// price (step 9).
    ///
    /// In the §5.1 threshold mode the node "properly track\[s\] query
    /// prices" regardless: supply exhaustion still raises the price even
    /// while the node keeps offering — that is how a quiet market learns
    /// it is becoming overloaded and engages the restriction: the bypass
    /// holds while no price has inflated past `threshold ×` the initial
    /// price.
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
        self.prices[at] = self.rules.refuse(old, 1);
        let new = self.prices[at];
        self.rules
            .adjusted(&self.telemetry, node, k, old, new, PriceReason::Rejection);
        let bypass = self
            .threshold
            .is_some_and(|c| self.log_prices(row).iter().all(|&q| q <= c));
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
    /// [`Self::on_request`], batched — one add per row, equal to that many
    /// eager calls ([`PriceRules::refuse`]). Rows incapable of the class
    /// are not charged: an eager `on_request` would not have been a market
    /// event either.
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
    ) {
        debug_assert!(!self.telemetry.is_enabled());
        for (row, count) in owed {
            let at = row * self.classes + class.index();
            if self.cost[at].is_some() {
                self.prices[at] = self.rules.refuse(self.prices[at], count);
            }
        }
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
    /// A node over `k` query classes: [`QantMarket::new`].
    pub fn new(k: usize, config: QantConfig) -> QantNode {
        QantNode(QantMarket::new(1, k, config))
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

    /// The private prices (never sent over the network; exposed for
    /// diagnostics and tests only).
    pub fn prices(&self) -> PriceVector {
        let linear = self.0.log_prices(0).iter().map(|&q| self.0.rules.linear(q));
        PriceVector::from_prices(linear.collect())
    }

    /// Remaining supply for the current period (all zero outside one).
    pub fn supply(&self) -> QuantityVector {
        QuantityVector::from_counts(self.0.supply(0).to_vec())
    }

    /// Opens the first period on one period `T` of budget:
    /// [`QantMarket::begin_period`]. A seller reads no demand, so
    /// `_no_demand` can only be `None`; the parameter stays only because
    /// the repo benchmark (`benchmark/`) passes it, and its next revision
    /// (ROADMAP item 1) removes it.
    pub fn begin_period(&mut self, unit_costs_ms: &[Option<f64>], _no_demand: Option<Infallible>) {
        self.0.begin_period(0, unit_costs_ms);
    }

    /// The period boundary under fresh costs: [`QantMarket::roll`] of this
    /// node's row with `backlog_ms` of queued work (`None`: the row stays
    /// closed).
    pub fn roll(&mut self, unit_costs_ms: &[Option<f64>], backlog_ms: Option<f64>) {
        self.0.set_costs(0, unit_costs_ms);
        self.0.roll(0..1, |_| backlog_ms);
    }

    /// Steps 4–10: [`QantMarket::on_request`].
    pub fn on_request(&mut self, class: ClassId) -> bool {
        self.0.on_request(0, class)
    }

    /// Step 6: [`QantMarket::on_accept`].
    pub fn on_accept(&mut self, class: ClassId) {
        self.0.on_accept(0, class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::DetRng;

    /// Node N1 of the paper's example: q1 = 400 ms, q2 = 100 ms, T = 500 ms.
    const N1: [Option<f64>; 2] = [Some(400.0), Some(100.0)];

    fn n1() -> QantNode {
        let mut n = QantNode::new(2, QantConfig::default());
        n.begin_period(&N1, None);
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
            n.roll(&N1, Some(500.0)); // a backlog of T leaves T of budget
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
        n.roll(&N1, None);
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

    /// The one budget rule at its edges, in both modes: an idle row gets
    /// `2T`, a backlog past `2T` leaves the floor (`T/2` with a threshold,
    /// 0 without), and a dead row stays closed.
    #[test]
    fn the_budget_is_two_periods_less_the_backlog_above_the_floor() {
        let t = QantConfig::default().period.as_millis_f64();
        let backlogs = [Some(0.0), Some(1.5 * t), Some(2.0 * t), Some(3.0 * t), None];
        for (threshold, budgets) in [
            (None, [2.0 * t, 0.5 * t, 0.0, 0.0]),
            (Some(2.0), [2.0 * t, 0.5 * t, 0.5 * t, 0.5 * t]),
        ] {
            let config = QantConfig {
                price_threshold: threshold,
                renormalize_prices: threshold.is_none(),
                ..QantConfig::default()
            };
            let mut market = QantMarket::new(backlogs.len(), 1, config);
            for row in 0..backlogs.len() {
                market.begin_period(row, &[Some(50.0)]);
                assert_eq!(market.supply(row), [t as u64 / 50], "a first period is T");
            }
            market.roll(0..backlogs.len(), |row| backlogs[row]);
            let want = budgets.iter().map(|&b| b as u64 / 50).chain([0]);
            for (row, want) in want.enumerate() {
                assert_eq!(market.supply(row), [want], "{threshold:?}: row {row}");
            }
        }
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

        // The edge, against `ln 2`: a class at exactly ln 2 still lets an
        // empty-supply request through, one quantum above refuses it.
        let edge = to_quanta(2f64.ln());
        for (q0, offered) in [(edge, true), (edge + 1, false)] {
            let mut n = QantNode::new(2, cfg);
            n.begin_period(&N1, None);
            n.0.supply.fill(0);
            n.0.prices[0] = q0;
            assert_eq!(n.on_request(ClassId(1)), offered, "class 0 at {q0}");
            assert!(n.prices().get(1) > 1.0, "the refusal is tracked either way");
        }
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
        n.roll(&[None; 3], None); // no supply yet: all-zero leftover, prices unchanged
        assert_eq!(n.prices().get(0), 1.0);
    }

    #[test]
    fn node_emits_supply_and_rejection_events() {
        use qa_simnet::Telemetry;
        let (tel, buf) = Telemetry::buffered();
        let mut n = QantNode::new(2, QantConfig::default());
        n.set_telemetry(tel.with_label(4));
        n.begin_period(&N1, None);
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

    /// `n` rows' backlogs, mostly live: none, up to and past `2T`.
    fn draw_backlogs(rng: &mut DetRng, n: usize, period_ms: f64) -> Vec<Option<f64>> {
        (0..n)
            .map(|_| {
                let backlog = [0.0, rng.float_in(0.0, 3.0), 2.0][rng.index(3)];
                rng.chance(0.9).then_some(backlog * period_ms)
            })
            .collect()
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
            // Every row starts on prices of its own, so a stride bug shows.
            let mut market = QantMarket::new(n, k, config);
            let mut nodes: Vec<QantNode> = (0..n).map(|_| QantNode::new(k, config)).collect();
            for (row, node) in nodes.iter_mut().enumerate() {
                for class in 0..k {
                    let price = to_quanta(rng.float_in(-1.5, 1.5));
                    market.prices[row * k + class] = price;
                    node.0.prices[class] = price;
                }
            }
            let costs: Vec<Vec<Option<f64>>> = (0..n)
                .map(|_| {
                    (0..k)
                        .map(|_| rng.chance(0.8).then(|| rng.float_in(20.0, 900.0)))
                        .collect()
                })
                .collect();
            // The costs a row's rolls solve under, kept as its first
            // `begin_period` would keep them.
            for (row, (node, costs)) in nodes.iter_mut().zip(&costs).enumerate() {
                market.set_costs(row, costs);
                node.0.set_costs(0, costs);
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
                        market.charge_refusals(class, owed.iter().copied());
                        for &(r, count) in &owed {
                            let before = nodes[r].prices().get(class.index());
                            nodes[r].0.charge_refusals(class, [(0, count)]);
                            // Not a market event for a row that cannot run
                            // the class.
                            if costs[r][class.index()].is_none() {
                                assert_eq!(nodes[r].prices().get(class.index()), before);
                            }
                        }
                    }
                    _ => {
                        let rows = if rng.chance(0.3) { 0..n } else { row..row + 1 };
                        let backlogs = draw_backlogs(&mut rng, n, period_ms);
                        market.roll(rows.clone(), |r| backlogs[r]);
                        for row in rows {
                            nodes[row].roll(&costs[row], backlogs[row]);
                        }
                    }
                }
                for (row, node) in nodes.iter().enumerate() {
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let of = |m: &QantMarket, r: usize| {
                        (
                            m.log_prices(r).to_vec(),
                            m.supply(r).to_vec(),
                            bits(m.carry(r)),
                        )
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

    /// The period end of one row, written out from the price rules: the
    /// reference [`QantMarket::roll`] is held to.
    fn end_period_per_row(m: &mut QantMarket, row: usize) {
        let (span, node) = (m.span(row), m.node(row));
        let prices = &mut m.prices[span.clone()];
        let leftover = &mut m.supply[span];
        m.rules.decay_leftover(prices, leftover, &m.telemetry, node);
        if m.config.renormalize_prices {
            m.rules.renormalize(prices, &m.telemetry, node);
        }
        leftover.fill(0);
    }

    /// The supply solve of one row with `backlog_ms` of queued work,
    /// likewise: the budget `2T − backlog` within `[floor, 2T]`, then the
    /// capable classes by `ln p − ln t` descending, ties to the lower
    /// class.
    fn begin_period_per_row(m: &mut QantMarket, row: usize, backlog_ms: f64) {
        let (span, node) = (m.span(row), m.node(row));
        let period = m.config.period.as_millis_f64();
        let floor = m.config.price_threshold.map_or(0.0, |_| period / 2.0);
        let budget_ms = (2.0 * period - backlog_ms).clamp(floor, 2.0 * period);
        let cost = &m.cost[span.clone()];
        let supply = &mut m.supply[span.clone()];
        let carry = &mut m.carry[span.clone()];
        let prices = &m.prices[span];
        let mut order: Vec<usize> = (0..cost.len()).filter(|&k| cost[k].is_some()).collect();
        order.sort_by_key(|&k| (std::cmp::Reverse(prices[k] - cost[k].unwrap().1), k));
        supply.fill(0);
        let mut remaining = budget_ms;
        for &k in &order {
            let t = cost[k].expect("filtered").0;
            let alloc = remaining / t + carry[k];
            let units = alloc as u64;
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
    /// prices at the floor and the ceiling, leftover 0, 1 and huge,
    /// backlogs of 0 and past `2T` in both budget modes, dead rows and rows
    /// outside the rolled run. Prices, supply and carry must agree to the
    /// bit everywhere, and with the telemetry on the events must come in
    /// the same sequence.
    #[test]
    fn the_roll_kernel_is_the_per_row_boundary_to_the_bit() {
        let mut rng = DetRng::seed_from_u64(0x2011).derive("roll");
        let period_ms = QantConfig::default().period.as_millis_f64();
        let mut events = 0;
        for case in 0..240 {
            let k = [1, 2, 5][case % 3];
            let n = 1 + rng.index(40);
            let threshold = case % 7 == 3;
            let config = QantConfig {
                price_threshold: threshold.then_some(2.0),
                renormalize_prices: !threshold,
                ..QantConfig::default()
            };
            let mut kernel = QantMarket::new(n, k, config);
            let floor = kernel.rules.quantize(PriceRules::PRICE_FLOOR);
            let ceiling = kernel.rules.quantize(PriceRules::PRICE_CEILING);
            let capable = rng.chance(0.9);
            for row in 0..n {
                let mut costs = Vec::new();
                for at in row * k..(row + 1) * k {
                    kernel.prices[at] = match rng.index(6) {
                        0 => floor,
                        1 => ceiling,
                        _ => floor + ((ceiling - floor) as f64 * rng.float_in(0.0, 1.0)) as i64,
                    };
                    kernel.supply[at] = [0, 1, rng.int_in(2, 20), 1 << 40][rng.index(4)];
                    kernel.carry[at] = rng.float_in(0.0, 0.999_999);
                    let cost = [1e-3, rng.float_in(1.0, 900.0), 4_000.0][rng.index(3)];
                    costs.push((capable && rng.chance(0.75)).then_some(cost));
                }
                kernel.set_costs(row, &costs);
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
            let backlogs = draw_backlogs(&mut rng, n, period_ms);
            kernel.roll(rows.clone(), |r| backlogs[r]);
            for row in rows {
                end_period_per_row(&mut reference, row);
                if let Some(backlog) = backlogs[row] {
                    begin_period_per_row(&mut reference, row, backlog);
                }
            }
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(kernel.prices, reference.prices, "case {case}");
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
