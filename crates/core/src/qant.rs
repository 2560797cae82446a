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
    adjusted, ln_price, price_density_order_into, PriceVector, PricerConfig, QuantityVector,
    RefusalChain, ReplayWork, REPLAY_BLOCK,
};
use qa_simnet::telemetry::{PriceReason, Telemetry, TelemetryEvent};
use qa_simnet::{DetRng, SimDuration};
use qa_workload::ClassId;

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
    /// deployments should set this to `false`.
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
/// of them. Rows share nothing: every method touches the one row (or row
/// range) it names, so a population behaves exactly like that many
/// independent sellers — [`QantNode`] is the one-row case.
///
/// A row outside a period (before its first [`Self::begin_period`], after
/// [`Self::end_period`]) has all-zero supply: it offers nothing, an accept
/// finds nothing to take, and its leftover decays no price.
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
    /// solution, rolled into the next period's (see `begin_period`).
    carry: Vec<f64>,
    /// Estimated execution time in ms (`None` = cannot run), as of the
    /// row's last `begin_period` — estimates may improve over time.
    cost: Vec<Option<f64>>,
    /// Initial prices (post-jitter), the baseline for the §5.1 threshold.
    initial: Vec<f64>,
    /// Scratch of the supply solve's density ordering.
    order: Vec<usize>,
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

    /// Step 2: row `row` starts a period with a capacity budget of
    /// `budget_ms` milliseconds. `unit_costs_ms[k]` is the node's estimated
    /// execution time for class `k` in milliseconds (`None` = cannot run);
    /// `demand_caps` optionally bounds per-class supply by observed demand.
    ///
    /// The supply set "depends on [the node's] available hardware
    /// resources" (§2.2): an idle node can deliver up to two periods of
    /// work within the coming period-and-backlog window, a backlogged one
    /// proportionally less. Drivers pass `2T − current_backlog` so node
    /// queues stay bounded by `2T` while idle capacity is never refused —
    /// the work-conserving form of QA-NT admission control.
    pub fn begin_period(
        &mut self,
        row: usize,
        unit_costs_ms: &[Option<f64>],
        demand_caps: Option<&[u64]>,
        budget_ms: f64,
    ) {
        assert!(budget_ms.is_finite() && budget_ms >= 0.0);
        let _span = self.telemetry.span("qant.supply_solve");
        let (span, node) = (self.span(row), self.node(row));
        self.cost[span.clone()].copy_from_slice(unit_costs_ms);
        let cost = &self.cost[span.clone()];
        let supply = &mut self.supply[span.clone()];
        let carry = &mut self.carry[span.clone()];
        // Integer-greedy fill by price density, with two refinements over
        // the plain knapsack:
        //
        // * capacity left after the whole units of a denser class cascades
        //   to the next class — the paper's §3.2 example where a node
        //   supplies (1 q1, 1 q2) within one 500 ms period;
        // * the fractional remainder of each class rolls over to the next
        //   period (error diffusion), so a class whose equilibrium amount
        //   is e.g. 0.5/period (execution longer than `T`) is supplied
        //   every other period rather than never — the integer-rounding
        //   effect the paper analyses in §5.1.
        price_density_order_into(&self.prices[span], cost, &mut self.order);
        supply.fill(0);
        let mut remaining = budget_ms;
        for &k in &self.order {
            let t = cost[k].expect("filtered");
            // Fractional allotment this period plus the rolled-over carry.
            let alloc = remaining / t + carry[k];
            // `as` floors, and saturates a negative allotment to zero.
            let mut units = alloc as u64;
            if let Some(caps) = demand_caps {
                units = units.min(caps[k]);
            }
            supply[k] = units;
            // Carry keeps the unreleased fraction, clamped to < 1 so a
            // demand-capped class cannot hoard unbounded future supply.
            carry[k] = (alloc - units as f64).clamp(0.0, 0.999_999);
            remaining = (remaining - units as f64 * t).max(0.0);
        }
        self.telemetry.emit(|| TelemetryEvent::SupplyComputed {
            node,
            budget_ms,
            supply: supply.to_vec(),
        });
    }

    /// Steps 4–10: a request for class `class` arrived at row `row`.
    /// Returns `true` when the node offers. A refusal raises the private
    /// price (step 9).
    ///
    /// In the §5.1 threshold mode the node "properly track[s] query
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

    /// Charges `counts[i]` refused class-`class` requests to row `lo + i`:
    /// exactly the rejection arm of [`Self::on_request`], batched — the
    /// price rises are bit-identical to that many eager calls (see
    /// [`RefusalChain::replay`], which also fills in `work`). Rows
    /// incapable of the class are not charged: an eager `on_request` would
    /// not have been a market event either.
    ///
    /// The caller owns the equivalence argument: it may only defer
    /// refusals it has *proven* would each return `false` from
    /// `on_request` (supply exhausted, threshold bypass already off —
    /// prices are non-decreasing within a period, so a full refusal stays
    /// one), and only while telemetry is disabled (the eager path emits
    /// two events per refusal).
    ///
    /// # Panics
    /// Panics when `counts` names more than [`REPLAY_BLOCK`] rows.
    pub fn charge_refusals(
        &mut self,
        lo: usize,
        class: ClassId,
        counts: &[u64],
        work: &mut ReplayWork,
    ) {
        debug_assert!(!self.telemetry.is_enabled());
        let at = |j: usize| (lo + j) * self.classes + class.index();
        let mut p = [0.0f64; REPLAY_BLOCK];
        let mut d = [0u64; REPLAY_BLOCK];
        for (j, &count) in counts.iter().enumerate() {
            if count > 0 && self.cost[at(j)].is_some() {
                (p[j], d[j]) = (self.prices[at(j)], count);
            }
        }
        self.chain
            .replay(&mut p[..counts.len()], &d[..counts.len()], work);
        for j in (0..counts.len()).filter(|&j| d[j] > 0) {
            self.prices[at(j)] = p[j];
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

    /// Steps 12–14: row `row`'s period elapsed; leftover supply lowers
    /// prices and is withdrawn. Call `begin_period` afterwards to start
    /// the next round.
    pub fn end_period(&mut self, row: usize) {
        let _span = self.telemetry.span("qant.price_update");
        let (span, node) = (self.span(row), self.node(row));
        let prices = &mut self.prices[span.clone()];
        let leftover = &mut self.supply[span];
        let pricer = &self.config.pricer;
        pricer.decay_leftover(prices, leftover, &self.telemetry, node);
        if self.config.renormalize_prices {
            pricer.renormalize(prices, &self.telemetry, node);
        }
        leftover.fill(0);
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

    /// Steps 12–14: [`QantMarket::end_period`].
    pub fn end_period(&mut self) {
        self.0.end_period(0);
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
                        let counts: Vec<u64> = (lo..n.min(lo + REPLAY_BLOCK))
                            .map(|_| [0, 1, rng.int_in(2, 400), 1 << 40][rng.index(4)])
                            .collect();
                        let work = &mut ReplayWork::default();
                        market.charge_refusals(lo, class, &counts, work);
                        for (node, &count) in nodes[lo..].iter_mut().zip(&counts) {
                            node.0.charge_refusals(0, class, &[count], work);
                        }
                    }
                    _ => {
                        let caps: Vec<u64> = (0..k).map(|_| rng.int_in(0, 6)).collect();
                        let caps = rng.chance(0.5).then_some(caps);
                        let rows = if rng.chance(0.3) { 0..n } else { row..row + 1 };
                        for row in rows {
                            let budget =
                                [0.0, rng.float_in(0.0, 2.0), 2.0][rng.index(3)] * period_ms;
                            market.end_period(row);
                            nodes[row].end_period();
                            if rng.chance(0.9) {
                                market.begin_period(row, &costs[row], caps.as_deref(), budget);
                                nodes[row]
                                    .0
                                    .begin_period(0, &costs[row], caps.as_deref(), budget);
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
}
