//! The federation event loop.
//!
//! Drives one mechanism over one trace in one scenario. Arrivals trigger
//! the allocation protocol (messages are charged latency and counted, the
//! decision itself is instantaneous at the simulated timescale);
//! assignments occupy the chosen node's FIFO queue; completions free it;
//! period boundaries advance QA-NT's market (end period → price decay →
//! new supply vectors) and decay BNQRD's load reports.
//!
//! A query rejected by every QA-NT server is re-submitted at the start of
//! the next period (§2.2: "If all available servers reject a request for a
//! query, the respective client resubmits it in the next time period"). It
//! waits on the wait list (module `wait_list`), not in the event queue:
//! one `Event::Wake` per boundary retries the list's due members in the
//! order they were parked. The list keeps one line per class, so in
//! pure-market mode, where a member whose class no seller offers any more
//! is refused for two counters, a wake turns each dry class's due members
//! in one move per line — what a refusal costs under sustained overload,
//! where a query is refused 60 times before it runs.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] (see `qa_simnet::fault`) makes links lossy: any
//! negotiation message may be dropped, links may jitter, and scheduled
//! outage windows can take a link down entirely. Crash schedules
//! ([`Federation::kill_node_at`] / [`Federation::recover_node_at`]) kill
//! and revive nodes mid-run. The negotiation is loss-tolerant: clients
//! work with whatever offers actually arrive, a lost assignment message
//! turns into a next-period resubmission, and the queries a crashed node
//! owned re-enter the next period's demand (§2.2 semantics) instead of
//! silently vanishing — each with a bounded retry budget so nothing
//! livelocks. All fault randomness flows from its own seeded stream, so
//! faulty runs are exactly as reproducible as clean ones, and the
//! disabled plan never draws from it at all (the fault-free path is
//! bit-identical to a build without fault injection).

use crate::metrics::{BoundaryWork, RunMetrics, WaitWork};
use crate::node::NodeSoa;
use crate::offer_index::OfferIndex;
use crate::scenario::Scenario;
use crate::wait_list::WaitList;
use qa_core::messages::{OFFER_BYTES, REQUEST_BYTES, RESPONSE_BYTES};
use qa_core::{
    BnqrdCoordinator, MarkovAllocator, MechanismKind, QantMarket, RoundRobinState, TwoProbesChooser,
};
use qa_simnet::telemetry::{Telemetry, TelemetryEvent};
use qa_simnet::{DetRng, EventQueue, FaultPlan, LinkSpec, SimDuration, SimTime};
use qa_workload::{ClassId, NodeId, QueryEvent, Trace};

/// Cap on resubmissions per query (QA-NT rejections, fault losses, and
/// crash re-entries all count); beyond it the query counts as unserved.
/// High enough that in practice only a permanently-unservable query (all
/// capable nodes refusing forever) hits it — dropping queries early would
/// bias the mean-response comparison in QA-NT's favour.
const MAX_RETRIES: u32 = 20_000;

/// Relative error of the completion estimates the Greedy baseline
/// collects (`±GREEDY_ESTIMATE_ERROR`, multiplicative). Real clients never
/// see perfectly fresh queue state (the paper's EXPLAIN-based estimates
/// "were usually incorrect"); 0 would model an omniscient greedy.
const GREEDY_ESTIMATE_ERROR: f64 = 0.25;

/// Salt separating the fault-injection RNG stream from the mechanism's.
const FAULT_SALT: u64 = 0xFA17_0001;

/// How many entries the in-flight buffers (slots, free list, wait list)
/// are reserved for when a run is built. glibc serves a buffer's growth
/// from the malloc arena of its first block, and the sharded engine steps
/// each shard on a fresh worker thread every window: an empty buffer would
/// take its first block, and all its growth, in some worker's arena.
const IN_FLIGHT_RESERVE: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Event {
    /// The wait list's front members due now retry, up to the next fence.
    Wake,
    /// The query in `slot` finished on `node`. `gen` is the slot's
    /// generation at scheduling time: a crash that orphans the query bumps
    /// it, turning this into a stale no-op.
    Completion { slot: usize, node: NodeId, gen: u32 },
    /// A period boundary.
    PeriodStart,
    /// Failure injection: node dies.
    Kill { node: NodeId },
    /// Failure injection: node comes back (empty queue, same hardware).
    Recover { node: NodeId },
}

/// A query in flight, from its arrival until it completes or is given up;
/// then its slot is freed for the next arrival.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The arrival, its `id` renumbered to its place in this engine's
    /// arrival order: the ordinal telemetry names the query by.
    query: QueryEvent,
    /// The node it is assigned to, while it is.
    owner: Option<NodeId>,
    /// Allocation attempts it had spent when it was assigned (crash
    /// re-entry resumes from here).
    attempts: u32,
    /// Bumped when a crash orphans the query and when the slot is freed,
    /// so that a completion scheduled before either is stale.
    gen: u32,
}

/// QA-NT's state: node `n`'s seller is row `n` of `market`, whose supply
/// column is the only copy of what each still offers this period.
struct Sellers {
    market: QantMarket,
    /// `false` for a non-participating node, which always offers (the §4
    /// partial-deployment case); its row lies unused.
    member: Vec<bool>,
    /// Pure-market mode (set once per run, in `begin_run`): with no §5.1
    /// threshold, telemetry off and no fault or crash schedule, the
    /// candidate set is the static capable list and a within-period price
    /// rise is unobservable — `on_request` answers from supply alone.
    /// Allocation then reads the best offer off this index instead of
    /// polling, and a dry node's refusals are counted from the index's
    /// demand stamps and replayed at the period boundary: same final
    /// prices. `None` polls every candidate (§3.3 steps 4–10), paying each
    /// refusal as it happens.
    index: Option<OfferIndex>,
}

// One per run, matched on per query: boxing the market would put a
// pointer chase on that path.
#[allow(clippy::large_enum_variant)]
enum MechState {
    QaNt(Sellers),
    Greedy,
    Random,
    RoundRobin { per_client: Vec<RoundRobinState> },
    TwoProbes,
    Bnqrd { coordinator: BnqrdCoordinator },
    Markov { allocator: MarkovAllocator },
}

/// Result of one allocation attempt.
enum Allocation {
    /// Assigned to `node`; finishes at `finish`; assignment latency
    /// `delay`.
    Assigned {
        node: NodeId,
        finish: SimTime,
        delay: SimDuration,
    },
    /// Every server refused (QA-NT): resubmit next period.
    NoOffers,
    /// No capable node is alive: the query can never run.
    Impossible,
}

/// Outcome of one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The mechanism that ran.
    pub mechanism: MechanismKind,
    /// All measurements.
    pub metrics: RunMetrics,
    /// What the run's QA-NT period boundaries did, in counts.
    pub boundary: BoundaryWork,
    /// What the run's wait list did at its wakes, in counts.
    pub wait: WaitWork,
}

/// The simulator for one (scenario, mechanism) pair.
pub struct Federation<'a> {
    scenario: &'a Scenario,
    mechanism: MechanismKind,
    /// Dynamic per-node state, struct-of-arrays (see [`NodeSoa`]).
    nodes: NodeSoa,
    /// Flattened execution-time matrix, `exec[class * N + node]`
    /// (pre-converted from the scenario's `exec_times_ms`; incapable
    /// pairs hold a zero sentinel and are never read — `allocate` only
    /// looks up capable nodes).
    exec: Vec<SimDuration>,
    /// Arrivals injected and not yet arrived, one period window at a time
    /// (`push_arrivals`). They are time-ordered, so they never enter the
    /// event queue: a cursor takes them in order between dynamic events.
    arrivals: Vec<QueryEvent>,
    /// Cursor into `arrivals`: the next not-yet-processed arrival.
    next_arrival: usize,
    /// Arrivals taken so far: the next arrival's ordinal.
    arrived: u64,
    /// The queries in flight, one slot each from arrival to completion or
    /// unserved verdict: per-query state lives only while the query does.
    slots: Vec<Slot>,
    /// Freed slots, reused by the next arrivals.
    free: Vec<usize>,
    /// The dynamic event queue (completions, period boundaries, wakes,
    /// failure injections).
    queue: EventQueue<Event>,
    /// Queries waiting out a refusal, in the order they were parked: wake
    /// times never fall along the list, and the queue holds one
    /// [`Event::Wake`] per distinct one (two can be pending: a query
    /// refused at a boundary's own microsecond, before that boundary's wake
    /// fires, already waits for the following one), plus one per fence.
    waiting: WaitList,
    /// Further arrivals may be pushed, so the period chain must stay alive
    /// across boundaries even when the injected arrivals are exhausted.
    more_arrivals: bool,
    state: MechState,
    rng: DetRng,
    metrics: RunMetrics,
    /// Per-class request counts of the running period: the refusals the
    /// offer index owes dry sellers at the boundary.
    period_demand: Vec<u64>,
    /// Failure injections to schedule.
    kills: Vec<(SimTime, NodeId)>,
    /// Recovery injections to schedule.
    recoveries: Vec<(SimTime, NodeId)>,
    /// Link-fault schedule (disabled by default).
    faults: FaultPlan,
    /// Dedicated stream for fault draws; never touched while `faults` is
    /// the disabled plan, keeping fault-free runs bit-identical.
    fault_rng: DetRng,
    /// Structured event sink; disabled by default (one branch per emit
    /// site). The run loop stamps sim-time on its shared clock, so trace
    /// timestamps are exactly as deterministic as the simulation itself.
    telemetry: Telemetry,
    /// Scratch buffers reused across `allocate` calls so the per-query hot
    /// path stops allocating once they reach steady-state capacity.
    scratch_capable: Vec<NodeId>,
    scratch_reachable: Vec<NodeId>,
    /// Request + offer + response transfer times over the run's one link
    /// model, and the request's alone.
    rtt: SimDuration,
    one_way: SimDuration,
    boundary: BoundaryWork,
}

impl<'a> Federation<'a> {
    /// Builds a run. The trace is read at build time only by the Markov
    /// allocator, for its static per-class rates.
    pub fn new(scenario: &'a Scenario, mechanism: MechanismKind, trace: &Trace) -> Federation<'a> {
        Federation::with_telemetry(scenario, mechanism, trace, Telemetry::disabled())
    }

    /// [`Federation::new`] with a telemetry handle. Must be used (rather
    /// than installing a sink later) to capture the market's t=0 supply
    /// solves: QA-NT nodes begin their first period during construction.
    pub fn with_telemetry(
        scenario: &'a Scenario,
        mechanism: MechanismKind,
        trace: &Trace,
        telemetry: Telemetry,
    ) -> Federation<'a> {
        let cfg = &scenario.config;
        let link = LinkSpec::fast_ethernet();
        let one_way = link.transfer_time(REQUEST_BYTES);
        let rtt = one_way + link.transfer_time(OFFER_BYTES) + link.transfer_time(RESPONSE_BYTES);
        let nodes = NodeSoa::new(cfg.num_nodes);
        let k = scenario.templates.num_classes();
        let mut exec = vec![SimDuration::ZERO; k * cfg.num_nodes];
        for (n, row) in scenario.exec_times_ms.iter().enumerate() {
            for (c, t) in row.iter().enumerate() {
                if let Some(ms) = t {
                    exec[c * cfg.num_nodes + n] = SimDuration::from_millis_f64(*ms);
                }
            }
        }
        let state = match mechanism {
            MechanismKind::QaNt => {
                let mut market = QantMarket::new(cfg.num_nodes, k, cfg.qant);
                market.set_telemetry(telemetry.with_label(0));
                for (i, costs) in scenario.exec_times_ms.iter().enumerate() {
                    market.begin_period(i, costs);
                }
                MechState::QaNt(Sellers {
                    market,
                    member: vec![true; cfg.num_nodes],
                    index: None,
                })
            }
            MechanismKind::Greedy => MechState::Greedy,
            MechanismKind::Random => MechState::Random,
            MechanismKind::RoundRobin => MechState::RoundRobin {
                per_client: (0..cfg.num_nodes).map(|_| RoundRobinState::new()).collect(),
            },
            MechanismKind::TwoProbes => MechState::TwoProbes,
            MechanismKind::Bnqrd => MechState::Bnqrd {
                coordinator: BnqrdCoordinator::new(cfg.num_nodes),
            },
            MechanismKind::Markov => {
                let horizon_s = trace.horizon().as_secs_f64().max(1e-9);
                let rates: Vec<f64> = (0..k)
                    .map(|c| trace.count_class(ClassId(c as u32)) as f64 / horizon_s)
                    .collect();
                MechState::Markov {
                    allocator: MarkovAllocator::build(&rates, &scenario.exec_times_ms, 100),
                }
            }
        };
        Federation {
            scenario,
            mechanism,
            nodes,
            exec,
            arrivals: Vec::new(),
            next_arrival: 0,
            arrived: 0,
            slots: Vec::with_capacity(IN_FLIGHT_RESERVE),
            free: Vec::with_capacity(IN_FLIGHT_RESERVE),
            queue: EventQueue::new(),
            waiting: WaitList::new(k, MAX_RETRIES, IN_FLIGHT_RESERVE),
            more_arrivals: false,
            state,
            rng: DetRng::seed_from_u64(cfg.seed ^ mechanism_salt(mechanism)),
            metrics: RunMetrics::new(cfg.qant.period, k),
            period_demand: vec![0; k],
            kills: Vec::new(),
            recoveries: Vec::new(),
            faults: FaultPlan::none(),
            fault_rng: DetRng::seed_from_u64(cfg.seed ^ mechanism_salt(mechanism) ^ FAULT_SALT),
            telemetry,
            scratch_capable: Vec::new(),
            scratch_reachable: Vec::new(),
            rtt,
            one_way,
            boundary: BoundaryWork::default(),
        }
    }

    /// Schedules a node failure at `at` (failure-injection experiments).
    /// The node's queued work is lost; every query it owned re-enters the
    /// next period's demand (§2.2) with its retry budget decremented.
    pub fn kill_node_at(&mut self, node: NodeId, at: SimTime) {
        self.kills.push((at, node));
    }

    /// Schedules a node recovery at `at`: the node rejoins with an empty
    /// queue and resumes offering (its market re-arms at the next period
    /// boundary).
    pub fn recover_node_at(&mut self, node: NodeId, at: SimTime) {
        self.recoveries.push((at, node));
    }

    /// Installs a link-fault schedule. The default is [`FaultPlan::none`],
    /// which is a strict zero-cost path: no fault RNG draw is ever made
    /// and the run is bit-identical to one without fault injection.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Reseeds the fault stream independently of the scenario seed, so the
    /// same world can be replayed under different loss realizations.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = DetRng::seed_from_u64(seed ^ FAULT_SALT);
    }

    /// Converts a QA-NT run into a *partial deployment*: only nodes for
    /// which `participates` returns `true` run the market; the rest always
    /// offer (§4: QA-NT "can even work without problems in cases where
    /// only a subset of the nodes is using QA-NT").
    ///
    /// # Panics
    /// Panics when the mechanism is not QA-NT.
    pub fn restrict_market_to<F: Fn(NodeId) -> bool>(&mut self, participates: F) {
        let MechState::QaNt(sellers) = &mut self.state else {
            panic!("partial deployment applies to QA-NT only");
        };
        for (i, m) in sellers.member.iter_mut().enumerate() {
            *m &= participates(NodeId(i as u32));
        }
    }

    /// Runs the trace to completion and returns the measurements: the
    /// sharded engine's window loop at one shard, each period window of
    /// arrivals stepped through its boundary, then whatever is left.
    pub fn run(mut self, trace: &Trace) -> RunOutcome {
        self.begin_run();
        let period = self.scenario.config.qant.period;
        for (boundary, window, last) in period_windows(trace.events(), period) {
            self.push_arrivals(window, !last);
            self.step_through(boundary);
        }
        self.step_through(SimTime::MAX);
        self.finish()
    }

    /// `node`'s seller between events: its private log-prices in quanta,
    /// remaining supply and error-diffusion carry per class. `None` for a
    /// node outside the market and for other mechanisms.
    pub fn market_row(&self, node: NodeId) -> Option<(&[i64], &[u64], &[f64])> {
        let MechState::QaNt(Sellers { market, member, .. }) = &self.state else {
            return None;
        };
        let n = node.index();
        member[n].then(|| (market.log_prices(n), market.supply(n), market.carry(n)))
    }

    /// Appends arrivals (time-ordered within and across calls) to the
    /// run's pending buffer, dropping those already taken: the buffer holds
    /// one period window of not-yet-arrived queries at a time. `more` says
    /// whether further calls follow, which keeps the period chain alive
    /// when the buffer runs dry.
    ///
    /// # Panics
    /// Panics when the new arrivals start before already-buffered ones.
    pub fn push_arrivals(&mut self, events: &[QueryEvent], more: bool) {
        if let (Some(last), Some(first)) = (self.arrivals.last(), events.first()) {
            assert!(
                last.at <= first.at,
                "arrivals must be injected in time order"
            );
        }
        debug_assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        self.arrivals.drain(..self.next_arrival);
        self.next_arrival = 0;
        self.arrivals.extend_from_slice(events);
        self.more_arrivals = more;
    }

    /// Starts a run: fixes the pure-market mode and with it the wait
    /// list's lines, seeds the event queue with the failure schedule and
    /// the first period boundary.
    pub fn begin_run(&mut self) {
        let cfg_period = self.scenario.config.qant.period;
        // Fixed for the whole run: fault schedules and kill/recover
        // events are installed before `run`, and the telemetry handle at
        // construction.
        let pure_market = self.kills.is_empty()
            && self.recoveries.is_empty()
            && self.faults.is_none()
            && self.scenario.config.qant.price_threshold.is_none()
            && !self.telemetry.is_enabled();
        if let MechState::QaNt(q) = &mut self.state {
            q.index = pure_market.then(|| {
                let mut offers =
                    OfferIndex::new(&self.scenario.capable, &self.exec, self.nodes.len());
                offers.reseat(q.market.supply_column(), &q.member, &self.nodes);
                offers
            });
        }
        if !matches!(&self.state, MechState::QaNt(Sellers { index: Some(_), .. })) {
            // No class runs dry without the index: one line serves, with
            // no heads to choose between.
            self.waiting = WaitList::new(1, MAX_RETRIES, IN_FLIGHT_RESERVE);
        }
        for &(at, node) in &self.kills {
            self.queue.schedule(at, Event::Kill { node });
        }
        for &(at, node) in &self.recoveries {
            self.queue.schedule(at, Event::Recover { node });
        }
        // Periods matter for QA-NT (market) and BNQRD (report decay);
        // Greedy's chain does no work but marks `period_started` in
        // traces.
        if matches!(
            self.state,
            MechState::QaNt(_) | MechState::Bnqrd { .. } | MechState::Greedy
        ) {
            self.queue
                .schedule(SimTime::ZERO + cfg_period, Event::PeriodStart);
        }
    }

    /// Earliest pending event time — the arrival cursor head or the queue
    /// head, whichever the run loop would take next.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        let arrival = self.arrivals.get(self.next_arrival).map(|e| e.at);
        arrival.into_iter().chain(self.queue.peek_time()).min()
    }

    /// Processes every pending event with `time <= until`, in time order
    /// (the arrival cursor wins ties, then queue key order). The caller
    /// must have injected all arrivals belonging to the window first;
    /// `until` is normally a period boundary, so the `PeriodStart` at
    /// exactly `until` is processed before returning. `SimTime::MAX`
    /// processes everything that is left.
    pub fn step_through(&mut self, until: SimTime) {
        while self.process_next(until) {}
    }

    /// Ends the run and returns the measurements.
    pub fn finish(self) -> RunOutcome {
        RunOutcome {
            mechanism: self.mechanism,
            metrics: self.metrics,
            boundary: self.boundary,
            wait: self.waiting.work,
        }
    }

    /// Processes the single next event due by `until` — the arrival
    /// cursor head or the queue head; an arrival precedes any same-time
    /// dynamic event. Returns `false` when nothing is due.
    fn process_next(&mut self, until: SimTime) -> bool {
        let cfg_period = self.scenario.config.qant.period;
        let queued = self.queue.peek_time().filter(|&t| t <= until);
        if let Some(&q) = self
            .arrivals
            .get(self.next_arrival)
            .filter(|q| q.at <= until && queued.is_none_or(|t| q.at <= t))
        {
            self.next_arrival += 1;
            let slot = self.admit(q);
            self.telemetry.set_now_us(q.at.as_micros());
            if self.refuse_dry(q.class) || self.handle_arrival(q.at, slot, q.class, 0) {
                self.resubmit(wake_after(q.at, cfg_period), slot, q.class, 0);
            }
            return true;
        }
        if queued.is_none() {
            return false;
        }
        let ev = self.queue.pop().expect("a due event");
        let now = ev.time;
        self.telemetry.set_now_us(now.as_micros());
        match ev.payload {
            Event::Wake => {
                let next = wake_after(now, cfg_period);
                self.waiting.work.wakes += 1;
                loop {
                    // Members of dry classes are refused for the counters
                    // `refuse_dry` touches.
                    let (state, capable) = (&self.state, &self.scenario.capable);
                    let (demand, m) = (&mut self.period_demand, &mut self.metrics);
                    let (member, wake) = self.waiting.next_due(
                        (now, next),
                        |c| offers_none(state, capable, c),
                        |c, n| {
                            demand[c] += n;
                            m.messages += capable[c].len() as u64 * n;
                            m.retries += n;
                        },
                    );
                    if wake {
                        self.queue.schedule(next, Event::Wake);
                    }
                    let Some(w) = member else {
                        break;
                    };
                    let slot = w.slot as usize;
                    let class = self.slots[slot].query.class;
                    if self.handle_arrival(now, slot, class, w.tried) {
                        self.resubmit(next, slot, class, w.tried);
                    }
                }
            }
            Event::Completion { slot, node, gen } => {
                // Stale completion: the query was orphaned by a crash
                // (generation bumped), and its slot may since have been
                // freed and reused.
                if gen != self.slots[slot].gen {
                    return true;
                }
                self.nodes.complete(node.index());
                if self.nodes.queued(node.index()) == 0 {
                    if let MechState::QaNt(Sellers { index: Some(i), .. }) = &mut self.state {
                        i.idled(node);
                    }
                }
                let q = self.release(slot);
                self.metrics
                    .record_completion_from(q.class, q.origin, q.at, now);
                self.telemetry.emit(|| TelemetryEvent::QueryCompleted {
                    query: q.id,
                    class: q.class.0,
                    node: node.0,
                    response_ms: now.saturating_since(q.at).as_millis_f64(),
                });
                if let MechState::Bnqrd { coordinator } = &mut self.state {
                    let ref_cost = self
                        .scenario
                        .templates
                        .get(q.class)
                        .base_cost
                        .as_millis_f64();
                    coordinator.report_completion(node, ref_cost);
                }
            }
            Event::PeriodStart => {
                self.telemetry.emit(|| TelemetryEvent::PeriodStarted {
                    index: now.period_index(cfg_period),
                });
                let _span = self.telemetry.span("federation.period_update");
                self.roll_market_period(now);
                if let MechState::Bnqrd { coordinator } = &mut self.state {
                    coordinator.tick(0.9);
                }
                if !self.queue.is_empty()
                    || self.next_arrival < self.arrivals.len()
                    || self.more_arrivals
                {
                    self.queue.schedule(now + cfg_period, Event::PeriodStart);
                }
            }
            Event::Kill { node } => {
                self.nodes.kill(node.index());
                self.telemetry
                    .emit(|| TelemetryEvent::NodeCrashed { node: node.0 });
                // §2.2 semantics for crash victims: whatever the dead
                // node owned re-enters the next period's demand vector
                // as a fresh arrival, rather than silently vanishing, in
                // the order the queries arrived.
                let mut orphans: Vec<(u64, usize)> = (self.slots.iter().enumerate())
                    .filter(|(_, q)| q.owner == Some(node))
                    .map(|(slot, q)| (q.query.id, slot))
                    .collect();
                orphans.sort_unstable();
                let next = wake_after(now, cfg_period);
                for (_, slot) in orphans {
                    let q = &mut self.slots[slot];
                    (q.gen, q.owner) = (q.gen.wrapping_add(1), None);
                    let (class, attempts) = (q.query.class, q.attempts);
                    self.resubmit(next, slot, class, attempts);
                }
            }
            Event::Recover { node } => {
                self.nodes.revive(node.index(), now);
                self.telemetry
                    .emit(|| TelemetryEvent::NodeRecovered { node: node.0 });
            }
        }
        true
    }

    /// In pure-market mode a class nobody offers any more is refused
    /// without an allocation attempt: it stays dry until the boundary
    /// (within a period supply only falls) and every dry leaf carries its
    /// `dry_at` stamp already, so the refusal is the two counters a full
    /// attempt would touch on its way to an empty index. The index implies
    /// no faults and no dead node: the candidates are the static capable
    /// list. Returns whether the request was refused here.
    #[inline]
    fn refuse_dry(&mut self, class: ClassId) -> bool {
        let c = class.index();
        if !offers_none(&self.state, &self.scenario.capable, c) {
            return false;
        }
        self.period_demand[c] += 1;
        self.metrics.messages += self.scenario.capable[c].len() as u64;
        true
    }

    /// Takes a slot for an arriving query, numbered with the next ordinal.
    fn admit(&mut self, mut query: QueryEvent) -> usize {
        (query.id, self.arrived) = (self.arrived, self.arrived + 1);
        let slot = self.free.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(Slot {
                query,
                owner: None,
                attempts: 0,
                gen: 0,
            });
        }
        self.slots[slot].query = query;
        slot
    }

    /// Frees the slot of a query that completed or was given up, and
    /// returns the query.
    fn release(&mut self, slot: usize) -> QueryEvent {
        let q = &mut self.slots[slot];
        (q.gen, q.owner) = (q.gen.wrapping_add(1), None);
        self.free.push(slot);
        q.query
    }

    /// The query in `slot`, of `class`, asks for allocation at `now`,
    /// `tried` attempts behind it: one allocation attempt, then completion
    /// scheduling or an unserved verdict — or every server refused, which
    /// returns `true` for the caller to [`Federation::resubmit`].
    fn handle_arrival(&mut self, now: SimTime, slot: usize, class: ClassId, tried: u32) -> bool {
        match self.allocate(now, class, slot) {
            Allocation::Assigned {
                node,
                finish,
                delay,
            } => {
                let q = &mut self.slots[slot];
                (q.owner, q.attempts) = (Some(node), tried);
                let (ordinal, gen) = (q.query.id, q.gen);
                self.metrics.assign_latency.add(delay.as_millis_f64());
                self.telemetry.emit(|| TelemetryEvent::QueryAssigned {
                    query: ordinal,
                    class: class.0,
                    node: node.0,
                    retries: tried,
                });
                self.queue
                    .schedule(finish, Event::Completion { slot, node, gen });
                // Same-microsecond order is park and schedule order, as
                // when each retry was a queue event of its own: queries
                // parked for `finish` from here on retry after this
                // completion, behind a wake of their own.
                if self.waiting.fence(finish) {
                    self.queue.schedule(finish, Event::Wake);
                }
                false
            }
            Allocation::NoOffers => true,
            Allocation::Impossible => {
                self.give_up(slot, class, tried);
                false
            }
        }
    }

    /// The query in `slot` holds no assignment after `tried` attempts: it
    /// is parked until `next`, just past the next period boundary (§2.2),
    /// or counts as unserved when its retry budget is spent.
    fn resubmit(&mut self, next: SimTime, slot: usize, class: ClassId, tried: u32) {
        if tried >= MAX_RETRIES {
            return self.give_up(slot, class, tried);
        }
        self.metrics.retries += 1;
        if self.waiting.park(next, slot, class, tried + 1) {
            self.queue.schedule(next, Event::Wake);
        }
    }

    /// The query in `slot` can run nowhere, or has spent its retry budget.
    fn give_up(&mut self, slot: usize, class: ClassId, tried: u32) {
        let ordinal = self.release(slot).id;
        self.metrics.unserved += 1;
        self.telemetry.emit(|| TelemetryEvent::QueryUnserved {
            query: ordinal,
            class: class.0,
            retries: tried,
        });
    }

    /// QA-NT's period boundary (§3.3 steps 9–14, then step 2) as three
    /// passes over the whole market: the closing period's unpaid refusals,
    /// one add per dry row and class; one roll of the market's rows (leftover
    /// supply decays prices, each live row solves eq. 4 for the next
    /// period); and the index re-reading every leaf from the fresh supply.
    /// Per row that is the order the paper gives, the refusals ahead of
    /// the period-end price update; rows share nothing, so the order
    /// across rows is unobservable.
    fn roll_market_period(&mut self, now: SimTime) {
        let MechState::QaNt(Sellers {
            market,
            member,
            index,
        }) = &mut self.state
        else {
            return;
        };
        let soa = &self.nodes;
        // The refusals the closing period still owes in pure-market mode:
        // every dry capable node refused each class request made since it
        // ran dry. Ahead of the period-end price update: the rises belong
        // to that period.
        for (k, &demand) in self.period_demand.iter().enumerate() {
            let Some(index) = index.as_ref().filter(|_| demand > 0) else {
                continue;
            };
            let class = ClassId(k as u32);
            market.charge_refusals(class, index.rejections(class, demand));
        }
        // Each run of market rows ends its period; a live row opens the
        // next on the budget its backlog leaves, a dead one goes quiet.
        let mut solves = 0;
        let mut lo = 0;
        for run in member.chunk_by(|a, b| a == b) {
            let rows = lo..lo + run.len();
            lo = rows.end;
            if !run[0] {
                continue;
            }
            self.boundary.node_periods += run.len() as u64;
            market.roll(rows, |i| {
                soa.alive(i).then(|| {
                    solves += 1;
                    soa.backlog(i, now).as_millis_f64()
                })
            });
        }
        if let Some(index) = index {
            // The only place supply can rise.
            index.reseat(market.supply_column(), member, soa);
        }
        self.boundary.density_sorts += solves;
        self.period_demand.fill(0);
    }

    /// Per-class market signals for the sharded router, written into
    /// `supply[k]` / `ln_price[k]` (both sized to the class count):
    /// remaining supply units summed over this federation's capable
    /// nodes, and the mean log price over the same nodes (the log of the
    /// geometric-mean price — the aggregate each shard reports upward in
    /// the WALRAS-style decomposition). Reads only: calling this never
    /// perturbs the market.
    ///
    /// # Panics
    /// Panics for non-QA-NT mechanisms.
    pub(crate) fn qant_signals_into(&self, supply: &mut [u64], ln_price: &mut [f64]) {
        let MechState::QaNt(Sellers { market, member, .. }) = &self.state else {
            panic!("market signals apply to QA-NT only");
        };
        // One pass over the market rows: log prices sum in ascending node
        // order whatever order the scenario lists a class's capable nodes
        // in — float addition is not associative, and the signal must not
        // depend on the listing.
        supply.fill(0);
        ln_price.fill(0.0);
        let rows = self.scenario.exec_times_ms.iter().enumerate();
        for (n, exec_times) in rows.filter(|(n, _)| member[*n]) {
            for k in (0..exec_times.len()).filter(|&k| exec_times[k].is_some()) {
                supply[k] = supply[k].saturating_add(market.supply(n)[k]);
                ln_price[k] += market.ln_price(n, ClassId(k as u32));
            }
        }
        for (lnp, capable) in ln_price.iter_mut().zip(&self.scenario.capable) {
            let markets = capable.iter().filter(|node| member[node.index()]).count();
            *lnp = if markets > 0 {
                *lnp / markets as f64
            } else {
                0.0
            };
        }
    }

    /// Runs the allocation protocol at `now` for the query in `slot`.
    fn allocate(&mut self, now: SimTime, class: ClassId, slot: usize) -> Allocation {
        let _span = self.telemetry.span("federation.allocate");
        let scenario = self.scenario;
        // Fault injection: the polling mechanisms (QA-NT, Greedy,
        // two-probes) exchange a request/reply pair with every candidate;
        // either direction can be lost, removing that candidate from this
        // attempt. The client collects whatever actually arrives — it
        // never blocks on the full candidate set. `faults_on` gates every
        // draw so the disabled plan stays bit-identical to no-fault runs.
        let faults_on = !self.faults.is_none();
        // Common case — no link faults, no dead nodes: the scenario's
        // static capable list *is* both the capable and the reachable set,
        // so neither scratch copy is needed.
        let (capable, reachable): (&[NodeId], &[NodeId]) = if !faults_on && self.nodes.all_alive() {
            let c = scenario.capable[class.index()].as_slice();
            if c.is_empty() {
                return Allocation::Impossible;
            }
            (c, c)
        } else {
            self.scratch_capable.clear();
            let alive = self.nodes.alive_slice();
            self.scratch_capable.extend(
                scenario.capable[class.index()]
                    .iter()
                    .copied()
                    .filter(|n| alive[n.index()]),
            );
            if self.scratch_capable.is_empty() {
                return Allocation::Impossible;
            }
            let polls = matches!(
                self.state,
                MechState::QaNt(_) | MechState::Greedy | MechState::TwoProbes
            );
            self.scratch_reachable.clear();
            if faults_on && polls {
                for &n in &self.scratch_capable {
                    let request_ok = self.faults.delivers(n.index(), now, &mut self.fault_rng);
                    let reply_ok = self.faults.delivers(n.index(), now, &mut self.fault_rng);
                    if request_ok && reply_ok {
                        self.scratch_reachable.push(n);
                    } else {
                        self.metrics.lost_messages += 1;
                        self.telemetry.emit(|| TelemetryEvent::MessageDropped {
                            node: n.0,
                            context: "poll".to_string(),
                        });
                    }
                }
            } else {
                let capable = &self.scratch_capable;
                self.scratch_reachable.extend_from_slice(capable);
            }
            (&self.scratch_capable, &self.scratch_reachable)
        };

        let n_total = self.nodes.len();
        let exec_row = &self.exec[class.index() * n_total..(class.index() + 1) * n_total];
        let exec_of = move |n: NodeId| exec_row[n.index()];

        let (choice, mut delay) = match &mut self.state {
            MechState::QaNt(Sellers {
                market,
                member,
                index,
            }) => {
                self.period_demand[class.index()] += 1;
                // `leaf`: the winner's place in the index, when it answered.
                let (offers, winner, leaf) = match index {
                    // Nobody is polled: the index already holds every
                    // offering node, ranked.
                    Some(index) => {
                        let (winner, leaf) = index.best(class, now).unzip();
                        (index.offerers(class), winner, leaf)
                    }
                    // §3.3 steps 4–10: poll every candidate; a node out
                    // of supply refuses and raises its price. The winner
                    // is the first minimum under `(estimated completion,
                    // server)` over the offers — what
                    // `qa_core::client::choose_best_offer` picks from the
                    // materialized list.
                    None => {
                        let mut offers: u64 = 0;
                        let mut best: Option<(SimDuration, NodeId)> = None;
                        for &n in reachable {
                            if !member[n.index()] || market.on_request(n.index(), class) {
                                offers += 1;
                                let est =
                                    self.nodes.estimated_completion(n.index(), now, exec_of(n));
                                if best.is_none_or(|b| (est, n) < b) {
                                    best = Some((est, n));
                                }
                            }
                        }
                        (offers, best.map(|(_, n)| n), None)
                    }
                };
                // One call-for-offers per capable node (unreachable ones
                // were still sent, they just never produced an offer),
                // one offer back per offering node, then the accept plus
                // the declines.
                self.metrics.messages += capable.len() as u64 + 2 * offers;
                let Some(server) = winner else {
                    return Allocation::NoOffers;
                };
                if member[server.index()] && market.on_accept(server.index(), class) == 0 {
                    if let (Some(index), Some(leaf)) = (index, leaf) {
                        index.ran_dry(class, leaf, self.period_demand[class.index()]);
                    }
                }
                (server, self.rtt)
            }
            MechState::Greedy => {
                // §4: "immediately assign queries to server nodes that can
                // evaluate them in the least time. A small amount of
                // randomization may also be used." The client polls every
                // candidate for an EXPLAIN-style completion estimate —
                // live backlog plus execution time, each off by up to
                // ±`GREEDY_ESTIMATE_ERROR` — and assigns unilaterally:
                // the §4 autonomy violation.
                self.metrics.messages += 2 * capable.len() as u64 + 1;
                let err = GREEDY_ESTIMATE_ERROR;
                let mut best: Option<(SimDuration, NodeId)> = None;
                // Only nodes whose estimate round-trip survived the link
                // are candidates this attempt.
                for &n in reachable {
                    let raw = self.nodes.estimated_completion(n.index(), now, exec_of(n));
                    let noisy = raw * (1.0 + self.rng.float_in(-err, err));
                    if best.is_none_or(|b| (noisy, n) < b) {
                        best = Some((noisy, n));
                    }
                }
                match best {
                    Some((_, n)) => (n, self.rtt),
                    // Every estimate lost: the client learned nothing and
                    // tries again next period.
                    None => return Allocation::NoOffers,
                }
            }
            MechState::Random => {
                self.metrics.messages += 1;
                (
                    qa_core::client::choose_random(&mut self.rng, capable),
                    self.one_way,
                )
            }
            MechState::RoundRobin { per_client } => {
                self.metrics.messages += 1;
                let origin = self.slots[slot].query.origin;
                (per_client[origin.index()].choose(capable), self.one_way)
            }
            MechState::TwoProbes => {
                self.metrics.messages += 5;
                if reachable.is_empty() {
                    return Allocation::NoOffers;
                }
                let soa = &self.nodes;
                let pick = TwoProbesChooser::choose(&mut self.rng, reachable, |n| {
                    soa.backlog(n.index(), now).as_millis_f64()
                });
                (pick, self.rtt)
            }
            MechState::Bnqrd { coordinator } => {
                self.metrics.messages += 3;
                let ref_cost = self.scenario.templates.get(class).base_cost.as_millis_f64();
                (coordinator.assign(capable, ref_cost), self.rtt)
            }
            MechState::Markov { allocator } => {
                self.metrics.messages += 1;
                // The static distribution may name a dead node; fall back
                // to a random capable one.
                let pick = allocator.choose(class, &mut self.rng);
                let pick = if self.nodes.alive(pick.index()) && capable.contains(&pick) {
                    pick
                } else {
                    qa_core::client::choose_random(&mut self.rng, capable)
                };
                (pick, self.one_way)
            }
        };

        if faults_on {
            // The final assignment message can be lost too. The client
            // times out and resubmits next period; for QA-NT the accepted
            // supply stays committed on the server — the price a market of
            // autonomous nodes pays for an unreliable network.
            if !self
                .faults
                .delivers(choice.index(), now, &mut self.fault_rng)
            {
                self.metrics.lost_messages += 1;
                self.telemetry.emit(|| TelemetryEvent::MessageDropped {
                    node: choice.0,
                    context: "assign".to_string(),
                });
                return Allocation::NoOffers;
            }
            delay += self
                .faults
                .sample_jitter(choice.index(), &mut self.fault_rng);
        }

        let start = now + delay;
        self.metrics
            .chosen_exec_ms
            .add(exec_of(choice).as_millis_f64());
        self.metrics
            .chosen_backlog_ms
            .add(self.nodes.backlog(choice.index(), start).as_millis_f64());
        let finish = self.nodes.accept(choice.index(), start, exec_of(choice));
        if let MechState::QaNt(Sellers { index: Some(i), .. }) = &mut self.state {
            i.accepted(choice, finish);
        }
        Allocation::Assigned {
            node: choice,
            finish,
            delay,
        }
    }
}

/// Splits time-ordered `events` into the period windows
/// `(boundary - period, boundary]`, each with its boundary and whether it
/// is the last, until the events run out (a window may be empty).
pub(crate) fn period_windows(
    events: &[QueryEvent],
    period: SimDuration,
) -> impl Iterator<Item = (SimTime, &[QueryEvent], bool)> {
    let (mut rest, mut boundary) = (events, SimTime::ZERO);
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        boundary += period;
        let window;
        (window, rest) = rest.split_at(rest.partition_point(|e| e.at <= boundary));
        Some((boundary, window, rest.is_empty()))
    })
}

/// Whether, in pure-market mode, no seller offers class `c` any more
/// though some node can run it: a request of it is refused without an
/// allocation attempt (see `Federation::refuse_dry`).
#[inline]
fn offers_none(state: &MechState, capable: &[Vec<NodeId>], c: usize) -> bool {
    let MechState::QaNt(Sellers {
        index: Some(index), ..
    }) = state
    else {
        return false;
    };
    !capable[c].is_empty() && index.offerers(ClassId(c as u32)) == 0
}

/// When a query refused at `now` retries: the microsecond after the next
/// period boundary.
fn wake_after(now: SimTime, period: SimDuration) -> SimTime {
    SimTime::from_micros((now.period_index(period) + 1) * period.as_micros() + 1)
}

fn mechanism_salt(m: MechanismKind) -> u64 {
    match m {
        MechanismKind::QaNt => 0x9E37_79B9_0001,
        MechanismKind::Greedy => 0x9E37_79B9_0002,
        MechanismKind::Random => 0x9E37_79B9_0003,
        MechanismKind::RoundRobin => 0x9E37_79B9_0004,
        MechanismKind::TwoProbes => 0x9E37_79B9_0005,
        MechanismKind::Bnqrd => 0x9E37_79B9_0006,
        MechanismKind::Markov => 0x9E37_79B9_0007,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use qa_workload::arrival::{ArrivalProcess, SinusoidProcess};

    fn scenario() -> Scenario {
        Scenario::two_class(SimConfig::small_test(11))
    }

    /// A moderate two-class sinusoid trace over `secs` seconds at roughly
    /// `frac` of system capacity.
    fn trace_for(s: &Scenario, secs: u64, frac: f64) -> Trace {
        let mix = [2.0 / 3.0, 1.0 / 3.0];
        let capacity = s.capacity_qps(&mix);
        let peak_q1 = frac * capacity / 0.75;
        let (p1, p2) = SinusoidProcess::paper_pair(0.05, peak_q1);
        let mut rng = DetRng::seed_from_u64(s.config.seed).derive("trace");
        let horizon = SimTime::from_secs(secs);
        let mut arrivals = p1.generate(horizon, &mut rng);
        arrivals.extend(p2.generate(horizon, &mut rng));
        Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng)
    }

    fn run(s: &Scenario, m: MechanismKind, t: &Trace) -> RunOutcome {
        Federation::new(s, m, t).run(t)
    }

    /// The run's one period is `qant.period`: halve it and the same
    /// light run steps twice as many period boundaries by the same time
    /// (8 s, before its arrivals end, so the chain is alive throughout).
    #[test]
    fn a_run_follows_its_one_period() {
        let periods = |ms: u64| {
            let mut cfg = SimConfig::small_test(11);
            cfg.qant.period = SimDuration::from_millis(ms);
            let s = Scenario::two_class(cfg);
            let t = trace_for(&s, 10, 0.3);
            let mut f = Federation::new(&s, MechanismKind::QaNt, &t);
            f.push_arrivals(t.events(), false);
            f.begin_run();
            f.step_through(SimTime::from_secs(8));
            f.boundary.node_periods / s.config.num_nodes as u64
        };
        assert_eq!((periods(500), periods(250)), (16, 32));
    }

    #[test]
    fn all_mechanisms_complete_a_light_workload() {
        let s = scenario();
        let t = trace_for(&s, 20, 0.3);
        assert!(t.len() > 10);
        for m in MechanismKind::ALL {
            let out = run(&s, m, &t);
            assert_eq!(
                out.metrics.completed as usize,
                t.len(),
                "{m} left queries unserved: {:?}",
                out.metrics.unserved
            );
            assert!(out.metrics.mean_response_ms().unwrap() > 0.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let s = scenario();
        let t = trace_for(&s, 10, 0.4);
        let a = run(&s, MechanismKind::QaNt, &t);
        let b = run(&s, MechanismKind::QaNt, &t);
        assert_eq!(a.metrics.mean_response_ms(), b.metrics.mean_response_ms());
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }

    #[test]
    fn greedy_beats_random_under_heterogeneity() {
        let s = scenario();
        let t = trace_for(&s, 30, 0.7);
        let g = run(&s, MechanismKind::Greedy, &t);
        let r = run(&s, MechanismKind::Random, &t);
        let gm = g.metrics.mean_response_ms().unwrap();
        let rm = r.metrics.mean_response_ms().unwrap();
        assert!(rm > gm, "random {rm} should be slower than greedy {gm}");
    }

    #[test]
    fn qant_tracks_greedy_or_better_under_overload() {
        let s = scenario();
        let t = trace_for(&s, 40, 1.2);
        let q = run(&s, MechanismKind::QaNt, &t);
        let g = run(&s, MechanismKind::Greedy, &t);
        let qm = q.metrics.mean_response_ms().unwrap();
        let gm = g.metrics.mean_response_ms().unwrap();
        // The paper's central claim, in loose form for a small federation:
        // under overload QA-NT is competitive with greedy (within 25%) or
        // better.
        assert!(
            qm < gm * 1.25,
            "QA-NT {qm}ms should be competitive with Greedy {gm}ms"
        );
    }

    #[test]
    fn message_counts_reflect_protocols() {
        let s = scenario();
        let t = trace_for(&s, 10, 0.3);
        let per_query = |m: MechanismKind| {
            let out = run(&s, m, &t);
            out.metrics.messages as f64 / out.metrics.completed as f64
        };
        let random = per_query(MechanismKind::Random);
        let probes = per_query(MechanismKind::TwoProbes);
        let greedy = per_query(MechanismKind::Greedy);
        let qant = per_query(MechanismKind::QaNt);
        assert!(random < probes, "random {random} < probes {probes}");
        assert!(probes < greedy, "probes {probes} < greedy {greedy}");
        // QA-NT needs more messages than random/probes ("Although QA-NT
        // requires more network messages…", §4).
        assert!(qant > probes);
    }

    #[test]
    fn qant_defers_when_all_supply_exhausted() {
        // Strict market mode (no §5.1 threshold bypass): a burst must
        // exhaust the period supply and defer.
        let mut cfg = SimConfig::small_test(11);
        cfg.qant.price_threshold = None;
        let s = Scenario::two_class(cfg);
        // Huge burst at t=0: supply for the period runs out, retries occur.
        let mut rng = DetRng::seed_from_u64(3).derive("burst");
        let burst: Vec<(SimTime, ClassId)> = (0..200)
            .map(|i| (SimTime::from_micros(i), ClassId(0)))
            .collect();
        let t = Trace::from_arrivals(burst, s.config.num_nodes, &mut rng);
        let out = run(&s, MechanismKind::QaNt, &t);
        assert!(out.metrics.retries > 0, "burst should exceed period supply");
        assert!(out.metrics.completed > 0);
    }

    #[test]
    fn node_failure_orphans_queries_and_system_survives() {
        let s = scenario();
        let t = trace_for(&s, 20, 0.5);
        let mut f = Federation::new(&s, MechanismKind::Greedy, &t);
        f.kill_node_at(NodeId(0), SimTime::from_secs(5));
        let out = f.run(&t);
        assert_eq!(
            out.metrics.completed + out.metrics.unserved,
            t.len() as u64,
            "every query accounted for"
        );
        // The system keeps completing queries after the failure.
        assert!(out.metrics.completed > 0);
    }

    #[test]
    fn crash_reentry_resubmits_next_period_and_conserves() {
        let s = scenario();
        // Five Q1 queries arrive at t=100ms; every node dies at 101ms —
        // before anything can finish — and recovers at 400ms. §2.2: the
        // orphans re-enter the next period (500ms boundary) and complete.
        let mut rng = DetRng::seed_from_u64(9).derive("reentry");
        let arrivals: Vec<(SimTime, ClassId)> = (0..5)
            .map(|_| (SimTime::from_millis(100), ClassId(0)))
            .collect();
        let t = Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng);
        let mut f = Federation::new(&s, MechanismKind::Random, &t);
        for i in 0..s.config.num_nodes {
            f.kill_node_at(NodeId(i as u32), SimTime::from_millis(101));
            f.recover_node_at(NodeId(i as u32), SimTime::from_millis(400));
        }
        let out = f.run(&t);
        assert_eq!(out.metrics.completed, 5, "orphans complete after recovery");
        assert_eq!(out.metrics.unserved, 0);
        assert!(out.metrics.retries >= 5, "each orphan was resubmitted");
    }

    #[test]
    fn lossy_run_is_deterministic_per_fault_seed() {
        let s = scenario();
        let t = trace_for(&s, 15, 0.5);
        let run_with = |fault_seed: Option<u64>| {
            let mut f = Federation::new(&s, MechanismKind::QaNt, &t);
            f.set_fault_plan(FaultPlan::uniform(qa_simnet::LinkFaults::lossy(0.2)));
            if let Some(seed) = fault_seed {
                f.set_fault_seed(seed);
            }
            let out = f.run(&t);
            (
                out.metrics.mean_response_ms(),
                out.metrics.messages,
                out.metrics.lost_messages,
                out.metrics.completed,
            )
        };
        let a = run_with(None);
        let b = run_with(None);
        assert_eq!(a, b, "same seed + same plan ⇒ identical run");
        assert!(a.2 > 0, "a 20% plan must actually lose messages");
        let c = run_with(Some(0xDEAD));
        assert_ne!(a, c, "different fault seed ⇒ different loss realization");
    }

    #[test]
    fn disabled_fault_plan_is_bit_identical_to_no_plan() {
        let s = scenario();
        let t = trace_for(&s, 15, 0.6);
        for m in MechanismKind::ALL {
            let plain = run(&s, m, &t);
            let mut f = Federation::new(&s, m, &t);
            f.set_fault_plan(FaultPlan::none());
            f.set_fault_seed(0xF00D); // must be irrelevant: never drawn
            let gated = f.run(&t);
            assert_eq!(
                plain.metrics.mean_response_ms(),
                gated.metrics.mean_response_ms(),
                "{m}"
            );
            assert_eq!(plain.metrics.messages, gated.metrics.messages, "{m}");
            assert_eq!(gated.metrics.lost_messages, 0, "{m}");
            assert_eq!(plain.metrics.completed, gated.metrics.completed, "{m}");
        }
    }

    #[test]
    fn qant_completes_under_ten_percent_loss() {
        let s = scenario();
        let t = trace_for(&s, 20, 0.5);
        let mut f = Federation::new(&s, MechanismKind::QaNt, &t);
        f.set_fault_plan(FaultPlan::uniform(qa_simnet::LinkFaults::lossy(0.1)));
        let out = f.run(&t);
        assert_eq!(
            out.metrics.completed + out.metrics.unserved,
            t.len() as u64,
            "conservation under loss"
        );
        assert!(
            out.metrics.completed as f64 >= 0.95 * t.len() as f64,
            "QA-NT should complete ≥95% under 10% loss: {}/{}",
            out.metrics.completed,
            t.len()
        );
    }

    #[test]
    fn outage_window_defers_queries_until_link_returns() {
        let s = scenario();
        // All arrivals land inside a [1s, 2s) outage on every link; they
        // must retry until the network returns, then all complete.
        let mut rng = DetRng::seed_from_u64(4).derive("outage");
        let arrivals: Vec<(SimTime, ClassId)> = (0..8)
            .map(|i| (SimTime::from_millis(1_000 + i * 10), ClassId(0)))
            .collect();
        let t = Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng);
        let mut f = Federation::new(&s, MechanismKind::QaNt, &t);
        f.set_fault_plan(FaultPlan::uniform(qa_simnet::LinkFaults {
            drop_prob: 0.0,
            jitter: SimDuration::ZERO,
            outages: vec![qa_simnet::OutageWindow::new(
                SimTime::from_secs(1),
                SimTime::from_secs(2),
            )],
        }));
        f.push_arrivals(t.events(), false);
        f.begin_run();
        f.step_through(SimTime::from_millis(1_400));
        // Nothing executes: the parked queries' one wake is all that keeps
        // the period chain rolling until the link returns.
        assert_eq!((f.waiting.len(), f.queue.len()), (8, 2));
        f.step_through(SimTime::MAX);
        assert!(f.waiting.len() == 0 && f.queue.is_empty());
        let out = f.finish();
        assert_eq!(out.metrics.completed, 8);
        // Refused on arrival and again at 1.5 s; at 2 s the idle sellers'
        // fresh supply serves all eight.
        assert_eq!(out.metrics.retries, 16);
        assert!(out.metrics.lost_messages > 0);
    }

    #[test]
    fn telemetry_captures_market_and_query_lifecycle() {
        let s = scenario();
        let t = trace_for(&s, 10, 0.8);
        let (tel, buf) = Telemetry::buffered();
        let mut f = Federation::with_telemetry(&s, MechanismKind::QaNt, &t, tel);
        f.kill_node_at(NodeId(0), SimTime::from_secs(3));
        f.recover_node_at(NodeId(0), SimTime::from_secs(6));
        let out = f.run(&t);
        assert!(out.metrics.completed > 0);
        let records = buf.records();
        let kinds: std::collections::BTreeSet<&str> =
            records.iter().map(|r| r.event.kind()).collect();
        for expected in [
            "supply_computed",
            "price_adjusted",
            "query_assigned",
            "query_completed",
            "period_started",
            "node_crashed",
            "node_recovered",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        // Timestamps follow the event loop's sim-clock: non-decreasing.
        assert!(records.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        // The t=0 supply solves of all 10 nodes were captured (telemetry
        // was installed before construction's first begin_period).
        let t0_supplies = records
            .iter()
            .filter(|r| r.t_us == 0 && matches!(r.event, TelemetryEvent::SupplyComputed { .. }))
            .count();
        assert_eq!(t0_supplies, s.config.num_nodes);
    }

    #[test]
    fn telemetry_enabled_run_matches_disabled_run() {
        // Observing the market must not change it.
        let s = scenario();
        let t = trace_for(&s, 10, 0.6);
        let plain = run(&s, MechanismKind::QaNt, &t);
        let (tel, buf) = Telemetry::buffered();
        let traced = Federation::with_telemetry(&s, MechanismKind::QaNt, &t, tel).run(&t);
        assert!(!buf.is_empty());
        assert_eq!(
            plain.metrics.mean_response_ms(),
            traced.metrics.mean_response_ms()
        );
        assert_eq!(plain.metrics.messages, traced.metrics.messages);
        assert_eq!(plain.metrics.completed, traced.metrics.completed);
    }

    #[test]
    fn boundary_work_of_the_flat1k_rep_is_pinned() {
        // The repo benchmark's `flat1k` rep. The counts are functions of
        // the seed and the code: a change that moves them changed the
        // algorithm (how refusals are deferred, how waiters are turned),
        // not just its speed.
        use crate::experiments::{run_cell, scale_world, two_class_trace};
        let s = scale_world(1_000, 11);
        let t = two_class_trace(&s, 0.05, 0.75, 100);
        let out = run_cell(&s, &t, MechanismKind::QaNt);
        // For `scripts/work_gate.sh`, which runs this with `--nocapture`.
        println!("work-gate: flat1k {:?} {:?}", out.boundary, out.wait);
        assert_eq!(
            out.boundary,
            BoundaryWork {
                node_periods: 203_000,
                density_sorts: 203_000,
            }
        );
        assert_eq!(
            out.wait,
            WaitWork {
                wakes: 101,
                runs: 387,
                turned: 32_054,
                attempted: 34_681,
            }
        );
        // Nothing here for another mechanism to count.
        let greedy = run_cell(&s, &t, MechanismKind::Greedy);
        assert_eq!(greedy.boundary, BoundaryWork::default());
        assert_eq!(greedy.wait, WaitWork::default());
    }

    #[test]
    fn wait_work_of_the_paper100_overload_rep_is_pinned() {
        // The repo benchmark's `paper100_overload` rep: 60 refusals per
        // query, nearly all of them a waiter of a dry class turned in a
        // run. A run move that stops forming runs keeps every simulated
        // output and loses these counts.
        use crate::experiments::{run_cell, scale_world, two_class_trace};
        let s = scale_world(100, 11);
        let t = two_class_trace(&s, 0.05, 1.5, 150);
        let out = run_cell(&s, &t, MechanismKind::QaNt);
        println!("work-gate: paper100_overload {:?}", out.wait);
        assert_eq!(
            out.wait,
            WaitWork {
                wakes: 438,
                runs: 3_915,
                turned: 1_273_522,
                attempted: 21_496,
            }
        );
        // Everyone parked was woken, one way or the other.
        assert_eq!(out.wait.turned + out.wait.attempted, out.metrics.retries);
        // A run needs the offer index: polled, every waiter takes a full
        // attempt; Greedy parks nobody.
        let traced = Telemetry::metrics_only();
        let polled = Federation::with_telemetry(&s, MechanismKind::QaNt, &t, traced).run(&t);
        assert_eq!(polled.metrics.retries, out.metrics.retries);
        let all = out.metrics.retries;
        assert_eq!(
            polled.wait,
            WaitWork {
                wakes: 438,
                runs: 0,
                turned: 0,
                attempted: all,
            }
        );
        let greedy = run_cell(&s, &t, MechanismKind::Greedy);
        assert_eq!(greedy.wait, WaitWork::default());
    }

    #[test]
    fn impossible_class_counts_unserved() {
        let s = scenario();
        // Kill every Q2-capable node up front, then send Q2 queries.
        let q2_nodes = s.capable[1].clone();
        let mut rng = DetRng::seed_from_u64(5).derive("imp");
        let arrivals: Vec<(SimTime, ClassId)> = (0..5)
            .map(|i| (SimTime::from_secs(1 + i), ClassId(1)))
            .collect();
        let t = Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng);
        let mut f = Federation::new(&s, MechanismKind::Random, &t);
        for n in q2_nodes {
            f.kill_node_at(n, SimTime::from_millis(1));
        }
        let out = f.run(&t);
        assert_eq!(out.metrics.unserved, 5);
        assert_eq!(out.metrics.completed, 0);
    }
}

/// The offer index and the fused period boundary against the eager poll
/// loop: whole runs must agree to the last bit, at every boundary on the
/// way.
#[cfg(test)]
mod index_differential {
    use super::*;
    use crate::config::SimConfig;
    use crate::node::NodeHardware;
    use qa_workload::arrival::{ArrivalProcess, SinusoidProcess};
    use qa_workload::{Dataset, QueryTemplate, Relation, RelationId, TemplateSet};

    /// Everything a run leaves behind: the full metrics (every counter,
    /// `response_hist`, `assign_latency`, `chosen_exec_ms`, … — through
    /// `Debug`, which prints floats round-trip exact), the bit patterns
    /// of every market node's final ln-prices, and who served each query.
    #[derive(Debug, PartialEq)]
    struct Residue {
        metrics: String,
        ln_prices: Vec<Vec<u64>>,
        served: Served,
    }

    /// The completion log only tests keep: `(ordinal, node)` of every
    /// query a run completed, in completion order. The engine itself
    /// forgets a query when its slot is freed.
    pub(super) type Served = Vec<(u64, NodeId)>;

    /// [`Federation::process_next`], logging the query it completes, if
    /// it completes one.
    pub(super) fn step(f: &mut Federation, until: SimTime, served: &mut Served) -> bool {
        let arrival = f.arrivals.get(f.next_arrival).map(|q| q.at);
        if let Some(ev) = f.queue.peek() {
            let first = ev.time <= until && arrival.is_none_or(|a| ev.time < a);
            if let (true, Event::Completion { slot, node, gen }) = (first, ev.payload) {
                let q = f.slots[slot];
                served.extend((q.gen == gen).then_some((q.query.id, node)));
            }
        }
        f.process_next(until)
    }

    /// [`Federation::step_through`], logging what it completes.
    pub(super) fn step_through(f: &mut Federation, until: SimTime, served: &mut Served) {
        while step(f, until, served) {}
    }

    /// The in-flight query `ordinal`'s node, while it is assigned one.
    pub(super) fn owner(f: &Federation, ordinal: u64) -> Option<NodeId> {
        let live = |&(slot, q): &(usize, &Slot)| q.query.id == ordinal && !f.free.contains(&slot);
        f.slots
            .iter()
            .enumerate()
            .find(live)
            .and_then(|(_, q)| q.owner)
    }

    /// A QA-NT run over `trace`, ready to step. Telemetry off takes the
    /// offer index unless a §5.1 threshold is set; with
    /// `Telemetry::metrics_only()`, or a threshold, every candidate is
    /// polled and pays its refusal as it happens.
    fn start<'a>(
        s: &'a Scenario,
        trace: &Trace,
        traced: bool,
        participates: Option<fn(NodeId) -> bool>,
    ) -> Federation<'a> {
        let telemetry = if traced {
            Telemetry::metrics_only()
        } else {
            Telemetry::disabled()
        };
        let mut f = Federation::with_telemetry(s, MechanismKind::QaNt, trace, telemetry);
        if let Some(p) = participates {
            f.restrict_market_to(p);
        }
        f.push_arrivals(trace.events(), false);
        f.begin_run();
        let MechState::QaNt(Sellers { index, .. }) = &f.state else {
            unreachable!("a QA-NT run")
        };
        let indexed = !traced && s.config.qant.price_threshold.is_none();
        assert_eq!(index.is_some(), indexed, "the run took the other path");
        f
    }

    /// Whether node `n` answers a class-`c` request with an offer on
    /// supply alone: outside the market always, inside it while supply
    /// lasts.
    fn has_supply(f: &Federation, n: NodeId, c: usize) -> bool {
        f.market_row(n).is_none_or(|(_, supply, _)| supply[c] > 0)
    }

    /// The market between two periods: every market node's price bits,
    /// remaining supply and carry bits, and per class how many nodes offer
    /// and which offer a client would take at `now` — swept from the
    /// nodes' supply, and checked against the index's heads where there
    /// is one.
    type MarketState = (Vec<Vec<u64>>, Vec<(u64, Option<NodeId>)>);

    fn market_state(f: &Federation, now: SimTime) -> MarketState {
        let MechState::QaNt(Sellers { index, .. }) = &f.state else {
            unreachable!("a QA-NT run")
        };
        let (k, n) = (f.period_demand.len(), f.nodes.len());
        let rows = (0..n as u32)
            .filter_map(|m| f.market_row(NodeId(m)))
            .map(|(prices, supply, carry)| {
                let prices = prices.iter().map(|&q| q as u64).collect();
                let carry = carry.iter().map(|x| x.to_bits()).collect();
                [prices, supply.to_vec(), carry].concat()
            })
            .collect();
        let heads = (0..k)
            .map(|c| {
                let mut capable = f.scenario.capable[c].clone();
                capable.sort_unstable();
                let offering = capable.iter().filter(|&&m| has_supply(f, m, c));
                let best = offering
                    .clone()
                    .map(|&m| {
                        let exec = f.exec[c * n + m.index()];
                        (f.nodes.estimated_completion(m.index(), now, exec), m)
                    })
                    .min();
                let head = (offering.count() as u64, best.map(|(_, m)| m));
                if let Some(index) = index {
                    let class = ClassId(c as u32);
                    let indexed = (index.offerers(class), index.best(class, now).map(|b| b.0));
                    assert_eq!(indexed, head, "class {c}: the index lost the supply");
                }
                head
            })
            .collect();
        (rows, heads)
    }

    /// Runs what is left of `f`, logging on `served`, and one more
    /// boundary, which charges every node the refusals of the last period
    /// (an eager run has paid them already).
    fn residue(mut f: Federation, mut served: Served) -> Residue {
        step_through(&mut f, SimTime::MAX, &mut served);
        f.roll_market_period(SimTime::from_secs(1 << 20));
        let MechState::QaNt(Sellers { market, member, .. }) = &f.state else {
            unreachable!("a QA-NT run")
        };
        let k = f.period_demand.len();
        let ln_prices = (0..member.len())
            .filter(|&n| member[n])
            .map(|n| {
                (0..k)
                    .map(|c| market.ln_price(n, ClassId(c as u32)).to_bits())
                    .collect()
            })
            .collect();
        Residue {
            metrics: format!("{:?}", f.metrics),
            ln_prices,
            served,
        }
    }

    /// Steps the fast and the eager run a period at a time: the market
    /// must read the same after every boundary, and the runs leave the
    /// same residue. Returns whether the fast run ever refused a request
    /// outright: with the index, going into a boundary (so the boundary
    /// had refusals to replay); without it, at all.
    fn assert_paths_agree(
        s: &Scenario,
        trace: &Trace,
        participates: Option<fn(NodeId) -> bool>,
        what: &str,
    ) -> bool {
        let mut fast = start(s, trace, false, participates);
        let mut eager = start(s, trace, true, participates);
        let (mut fast_served, mut eager_served) = (Served::new(), Served::new());
        let mut boundary = SimTime::ZERO + s.config.qant.period;
        let mut owed = false;
        while fast.peek_next_time().is_some() {
            let before = SimTime::from_micros(boundary.as_micros() - 1);
            step_through(&mut fast, before, &mut fast_served);
            owed |= match &fast.state {
                MechState::QaNt(Sellers {
                    index: Some(index), ..
                }) => (0..fast.period_demand.len())
                    .any(|c| index.offerers(ClassId(c as u32)) == 0 && fast.period_demand[c] > 0),
                _ => fast.metrics.retries > 0,
            };
            step_through(&mut fast, boundary, &mut fast_served);
            step_through(&mut eager, boundary, &mut eager_served);
            assert!(
                market_state(&fast, boundary) == market_state(&eager, boundary),
                "{what}: the markets differ after the boundary at {boundary:?}"
            );
            boundary += s.config.qant.period;
        }
        assert!(eager.peek_next_time().is_none(), "{what}: eager runs on");
        assert!(
            residue(fast, fast_served) == residue(eager, eager_served),
            "{what}: residues differ"
        );
        owed
    }

    /// Horizon that yields about 3 000 arrivals at `rate_qps`.
    fn horizon_for(rate_qps: f64) -> SimTime {
        SimTime::from_micros(((3_000.0 / rate_qps).clamp(4.0, 40.0) * 1e6) as u64)
    }

    fn two_class_trace(s: &Scenario, load: f64) -> Trace {
        let peak_q1 = load * s.capacity_qps(&[2.0 / 3.0, 1.0 / 3.0]) / 0.75;
        let (p1, p2) = SinusoidProcess::paper_pair(0.05, peak_q1);
        let mut rng = DetRng::seed_from_u64(s.config.seed).derive("trace");
        let horizon = horizon_for(0.75 * peak_q1);
        let mut arrivals = p1.generate(horizon, &mut rng);
        arrivals.extend(p2.generate(horizon, &mut rng));
        Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng)
    }

    /// Uniform class mix, exponential gaps.
    fn table3_trace(s: &Scenario, load: f64) -> Trace {
        let k = s.templates.num_classes();
        let rate = load * s.capacity_qps(&vec![1.0 / k as f64; k]);
        let horizon = horizon_for(rate).as_micros() as f64 / 1e6;
        let mut rng = DetRng::seed_from_u64(s.config.seed).derive("trace");
        let mut arrivals = Vec::new();
        let mut at = 0.0;
        while at < horizon {
            arrivals.push((
                SimTime::from_micros((at * 1e6) as u64),
                ClassId(rng.index(k) as u32),
            ));
            at -= (1.0 - rng.unit()).ln() / rate;
        }
        Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng)
    }

    /// One drawn world per `(nodes, §5.1 threshold)` case, the whole
    /// federation in the market and then every third node outside it.
    /// Without a threshold the fast run is the offer index; with one both
    /// runs poll (loads past saturation, so the restriction engages) and
    /// only the telemetry differs. Returns how many index cases refused.
    fn assert_draws_agree(
        name: &str,
        cases: &[(usize, Option<f64>)],
        world: fn(SimConfig, f64) -> (Scenario, Trace),
    ) -> usize {
        let mut draw = DetRng::seed_from_u64(0x1DE).derive(name);
        let mut refused = 0;
        for (case, &(n, threshold)) in cases.iter().enumerate() {
            let load = draw.float_in(if threshold.is_some() { 1.5 } else { 0.3 }, 3.0);
            let mut cfg = SimConfig::small_test(draw.next_u64());
            cfg.num_nodes = n;
            cfg.qant.price_threshold = threshold;
            cfg.qant.renormalize_prices &= threshold.is_none();
            let (s, t) = world(cfg, load);
            let what = format!("{name} case {case}: N={n} load={load:.2} q={}", t.len());
            let case_refused = assert_paths_agree(&s, &t, None, &what);
            match threshold {
                None => refused += usize::from(case_refused),
                Some(_) => assert!(case_refused, "{what}: the restriction never engaged"),
            }
            // §4 partial deployment: the outsiders always offer and so
            // never leave the index.
            assert_paths_agree(&s, &t, Some(|n| n.index() % 3 != 0), &what);
        }
        refused
    }

    #[test]
    fn two_class_draws_agree_with_the_eager_path() {
        let mut cases = [1, 2, 10, 64, 300, 2, 10, 64, 130]
            .map(|n| (n, None))
            .to_vec();
        cases.push((70, Some(2.0)));
        let refused = assert_draws_agree("two-class-draws", &cases, |cfg, load| {
            let s = Scenario::two_class(cfg);
            let t = two_class_trace(&s, load);
            (s, t)
        });
        assert!(
            refused >= 4,
            "only {refused} draws replayed refusals at a boundary"
        );
    }

    #[test]
    fn table3_draws_agree_with_the_eager_path() {
        let cases = [(10, None), (64, None), (130, None), (10, Some(2.0))];
        assert_draws_agree("table3-draws", &cases, |cfg, load| {
            let s = Scenario::table3(cfg);
            assert_eq!(s.templates.num_classes(), 100);
            let t = table3_trace(&s, load);
            (s, t)
        });
    }

    /// Sustained overload: most wakes find a class dry and turn its
    /// waiters in runs, between members of classes still served. The polled
    /// engine retries every waiter by itself — the reference the run move
    /// must match to the last bit.
    #[test]
    fn overloaded_runs_turn_the_waiters_the_polled_path_attempts() {
        let cfg = SimConfig::small_test(0x0DD);
        let two_class = Scenario::two_class(cfg.clone());
        let table3 = Scenario::table3(cfg);
        let worlds = [
            (two_class_trace(&two_class, 1.5), two_class),
            (table3_trace(&table3, 1.5), table3),
        ];
        for (t, s) in &worlds {
            let k = s.templates.num_classes();
            let periods = t.horizon().period_index(s.config.qant.period);
            assert!(periods >= 20, "K={k}: {periods} periods");
            let run_out = |traced: bool| {
                let mut f = start(s, t, traced, None);
                let mut served = Served::new();
                step_through(&mut f, SimTime::MAX, &mut served);
                (f.waiting.work, residue(f, served))
            };
            let (fast, indexed) = run_out(false);
            let (slow, polled) = run_out(true);
            assert!(indexed == polled, "K={k}: residues differ");
            // Runs, and more than one a wake: served members part them.
            assert!(fast.turned > 0 && fast.runs > fast.wakes, "K={k}: {fast:?}");
            let all = fast.turned + fast.attempted;
            assert_eq!((slow.runs, slow.turned, slow.attempted), (0, 0, all));
            assert_eq!(slow.wakes, fast.wakes);
        }
    }

    /// One class over `n` identical nodes: equal queues give equal
    /// estimates.
    pub(super) fn identical_nodes(n: usize) -> Scenario {
        alike_nodes(n, &[(0..n as u32).collect()])
    }

    /// `n` identical nodes and one class per entry of `holders`, which
    /// lists the nodes that can run it; every class costs the same.
    pub(super) fn alike_nodes(n: usize, holders: &[Vec<u32>]) -> Scenario {
        let cfg = SimConfig {
            num_nodes: n,
            ..SimConfig::small_test(5)
        };
        let ids = 0..holders.len() as u32;
        let relations = ids.clone().zip(holders).map(|(c, nodes)| Relation {
            id: RelationId(c),
            size_bytes: 1 << 20,
            attributes: 4,
            mirrors: nodes.iter().copied().map(NodeId).collect(),
        });
        let dataset = Dataset::from_relations(n, relations.collect());
        let templates = ids.map(|c| QueryTemplate {
            id: ClassId(c),
            joins: 0,
            relations: vec![RelationId(c)],
            base_cost: SimDuration::from_millis(100),
            result_bytes: 1_024,
        });
        let templates = TemplateSet::from_templates(templates.collect());
        let hw = NodeHardware {
            cpu_ghz: 2.0,
            io_mbps: 40.0,
            buffer_mb: 6.0,
            hash_join: true,
        };
        Scenario::assemble(cfg, templates, dataset, vec![hw; n])
    }

    /// Two identical nodes: every estimate tie must fall to node 0, also
    /// when node 0 is ranked in the busy regime and node 1 in the idle
    /// one.
    #[test]
    fn estimate_ties_and_an_arrival_at_backlog_until_fall_to_the_lowest_node() {
        let s = identical_nodes(2);
        let mut rng = DetRng::seed_from_u64(1).derive("ties");
        let trace_of = |times: &[SimTime], rng: &mut DetRng| {
            Trace::from_arrivals(times.iter().map(|&t| (t, ClassId(0))).collect(), 2, rng)
        };
        // Learn when node 0 frees up after serving a query posed at t=0.
        let first = trace_of(&[SimTime::ZERO], &mut rng);
        let mut probe = Federation::new(&s, MechanismKind::QaNt, &first);
        probe.push_arrivals(first.events(), false);
        probe.begin_run();
        probe.process_next(SimTime::MAX);
        assert_eq!(
            owner(&probe, 0),
            Some(NodeId(0)),
            "idle tie falls to node 0"
        );
        let free_at = probe.nodes.backlog_until_slice()[0];

        // Query 1 lands exactly at `free_at`, ahead of query 0's
        // completion event: node 0 still ranks as busy with zero backlog
        // left, node 1 as idle, the estimates tie and node 0 wins. Query
        // 2, at the same instant, then sees node 0 truly busy.
        let t = trace_of(&[SimTime::ZERO, free_at, free_at], &mut rng);
        let indexed = residue(start(&s, &t, false, None), Served::new());
        let mut served = indexed.served.clone();
        served.sort_unstable();
        assert_eq!(served, [(0, NodeId(0)), (1, NodeId(0)), (2, NodeId(1))]);
        assert!(indexed == residue(start(&s, &t, true, None), Served::new()));
    }

    /// The poll loop is the paper's client: every first-time arrival goes
    /// to the offer `choose_best_offer` picks from the materialised list
    /// of the alive capable nodes that still have supply — over tied
    /// estimates, a partial deployment and a dead node.
    #[test]
    fn eager_poll_is_choose_best_offer() {
        use qa_core::messages::Offer;
        let twins = identical_nodes(6);
        let mixed = Scenario::two_class(SimConfig::small_test(0x1DE));
        let outsiders: Option<fn(NodeId) -> bool> = Some(|n| n.index() % 3 != 0);
        let (mut ties, mut refusals) = (0, 0);
        for (s, participates, dead) in [
            (&twins, None, None),
            (&twins, outsiders, Some(NodeId(1))),
            (&mixed, None, Some(NodeId(4))),
            (&mixed, outsiders, None),
        ] {
            let t = table3_trace(s, 1.6);
            let mut f = start(s, &t, true, participates);
            if let Some(node) = dead {
                f.queue
                    .schedule(SimTime::from_millis(700), Event::Kill { node });
            }
            let n = f.nodes.len();
            while let Some(at) = f.peek_next_time() {
                let ordinal = f.arrived;
                let fresh = f.arrivals.get(f.next_arrival).filter(|q| q.at == at);
                let expected = fresh.map(|q| {
                    let c = q.class.index();
                    let offers: Vec<Offer> = s.capable[c]
                        .iter()
                        .filter(|m| f.nodes.alive(m.index()) && has_supply(&f, **m, c))
                        .map(|&m| Offer {
                            query_id: ordinal,
                            server: m,
                            estimated_completion: f.nodes.estimated_completion(
                                m.index(),
                                at,
                                f.exec[c * n + m.index()],
                            ),
                        })
                        .collect();
                    let best = qa_core::client::choose_best_offer(&offers);
                    let tied = |o: &&Offer| {
                        Some(o.estimated_completion) == best.map(|b| b.estimated_completion)
                    };
                    ties += usize::from(offers.iter().filter(tied).count() > 1);
                    refusals += usize::from(best.is_none());
                    best.map(|o| o.server)
                });
                f.process_next(SimTime::MAX);
                if let Some(expected) = expected {
                    assert_eq!(owner(&f, ordinal), expected, "query {ordinal} at {at:?}");
                }
            }
        }
        assert!(ties > 0 && refusals > 0, "{ties} ties, {refusals} refusals");
    }
}

/// The wait list that holds refused queries between period boundaries.
#[cfg(test)]
mod wait_list {
    use super::index_differential::{alike_nodes, identical_nodes, owner, step, Served};
    use super::*;
    use crate::config::SimConfig;
    use qa_simnet::{LinkFaults, OutageWindow};

    const PERIOD_US: u64 = 500_000;
    const BOUNDARY: SimTime = SimTime::from_micros(PERIOD_US);
    /// When the first period's refusals retry, and the second's.
    const WAKE: SimTime = SimTime::from_micros(PERIOD_US + 1);
    const SECOND: SimTime = SimTime::from_micros(2 * PERIOD_US + 1);

    fn stepped<'a>(s: &'a Scenario, m: MechanismKind, t: &Trace) -> Federation<'a> {
        assert_eq!(s.config.qant.period.as_micros(), PERIOD_US);
        let mut f = Federation::new(s, m, t);
        f.push_arrivals(t.events(), false);
        f
    }

    /// A wait-list entry as [`list`] shows it: its query named by ordinal,
    /// or [`FENCE`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Waiter {
        due: SimTime,
        query: usize,
        tried: u32,
        class: ClassId,
    }

    /// The query of a fence, which holds none; its class reads 0.
    const FENCE: usize = usize::MAX;

    /// A class-0 wait-list entry.
    fn waiter(due: SimTime, query: usize, tried: u32) -> Waiter {
        Waiter {
            due,
            query,
            tried,
            class: ClassId(0),
        }
    }

    /// An indexed QA-NT run of `s`, begun, over a burst of `n` class-0
    /// queries a microsecond apart from t = 0 — more than node 0 offers in
    /// a period — and then the `later` `(µs, class)` arrivals.
    fn burst<'a>(s: &'a Scenario, n: u64, later: &[(u64, u32)]) -> Federation<'a> {
        let arrivals = (0..n).map(|at| (at, 0)).chain(later.iter().copied());
        let arrivals = arrivals.map(|(at, c)| (SimTime::from_micros(at), ClassId(c)));
        let mut rng = DetRng::seed_from_u64(4).derive("burst");
        let t = Trace::from_arrivals(arrivals.collect(), s.config.num_nodes, &mut rng);
        let mut f = stepped(s, MechanismKind::QaNt, &t);
        f.begin_run();
        assert!(matches!(
            f.state,
            MechState::QaNt(Sellers { index: Some(_), .. })
        ));
        f
    }

    /// Runs the arrival cursor dry, with whatever events fall in between.
    fn pose_all(f: &mut Federation) {
        while f.next_arrival < f.arrivals.len() {
            f.process_next(SimTime::MAX);
        }
    }

    /// What node 0 still offers of class 0.
    fn supply(f: &Federation) -> usize {
        f.market_row(NodeId(0)).expect("a market node").1[0] as usize
    }

    /// The wait list, each member named by its query's ordinal rather
    /// than its slot.
    fn list(f: &Federation) -> Vec<Waiter> {
        let entry = |(due, query, tried): crate::wait_list::Entry| match query {
            None => waiter(due, FENCE, tried),
            Some((slot, _)) => Waiter {
                class: f.slots[slot].query.class,
                ..waiter(due, f.slots[slot].query.id as usize, tried)
            },
        };
        f.waiting.members().into_iter().map(entry).collect()
    }

    /// The attempts the in-flight query `ordinal` had spent when it was
    /// assigned, while it is.
    fn assigned_after(f: &Federation, ordinal: u64) -> Option<u32> {
        owner(f, ordinal)?;
        f.slots
            .iter()
            .find(|q| q.query.id == ordinal)
            .map(|q| q.attempts)
    }

    /// `members` after one more refusal each.
    fn turned(members: &[Waiter], next: SimTime) -> Vec<Waiter> {
        let again = |w: &Waiter| Waiter {
            due: next,
            tried: w.tried + 1,
            ..*w
        };
        members.iter().map(again).collect()
    }

    /// Pending `Wake`s: what the queue holds besides the completions of
    /// running queries and the next period boundary.
    fn pending_wakes(f: &Federation) -> usize {
        let running = f.slots.iter().filter(|q| q.owner.is_some()).count();
        f.queue.len() - running - 1
    }

    fn wait_work(wakes: u64, runs: u64, turned: usize, attempted: usize) -> WaitWork {
        WaitWork {
            wakes,
            runs,
            turned: turned as u64,
            attempted: attempted as u64,
        }
    }

    #[test]
    fn a_run_over_the_whole_list_schedules_one_wake() {
        let s = identical_nodes(1);
        let mut f = burst(&s, 30, &[]);
        f.step_through(BOUNDARY);
        // Fresh arrivals on the wake's own microsecond go ahead of it and
        // take the whole of the new period's supply.
        let fresh = vec![(WAKE, ClassId(0)); supply(&f)];
        let mut rng = DetRng::seed_from_u64(4).derive("fresh");
        f.push_arrivals(Trace::from_arrivals(fresh, 1, &mut rng).events(), false);
        pose_all(&mut f);
        assert_eq!(supply(&f), 0);
        let before = list(&f);
        assert!(before.len() > 1 && before.iter().all(|w| w.due == WAKE));
        assert_eq!(pending_wakes(&f), 1);

        f.step_through(WAKE);
        assert_eq!(list(&f), turned(&before, SECOND));
        assert_eq!(f.waiting.work, wait_work(1, 1, before.len(), 0));
        assert_eq!(pending_wakes(&f), 1);
    }

    #[test]
    fn a_run_stops_at_a_spent_budget_and_resumes_behind_it() {
        let s = identical_nodes(1);
        let mut f = burst(&s, 30, &[]);
        f.step_through(BOUNDARY);
        let served = supply(&f);
        let mut before = list(&f);
        assert!(before.len() >= served + 3, "{} waiting", before.len());
        // The second member of what would be one run is on its last try.
        let spent = before.remove(served + 1);
        f.waiting.spend(served + 1);
        let (messages, retries) = (f.metrics.messages, f.metrics.retries);

        f.step_through(WAKE);
        assert_eq!(list(&f), turned(&before[served..], SECOND));
        let refused = before.len() - served;
        assert_eq!(f.waiting.work, wait_work(1, 2, refused, served + 1));
        assert_eq!(f.metrics.retries - retries, refused as u64);
        assert_eq!(
            (f.metrics.unserved, owner(&f, spent.query as u64)),
            (1, None)
        );
        // Every member asked once, whichever way it went: an offer and the
        // accept on top of the request for a served one.
        assert_eq!(f.period_demand, [before.len() as u64 + 1]);
        let asked = (3 * served + refused + 1) as u64;
        assert_eq!(f.metrics.messages - messages, asked);
    }

    #[test]
    fn a_run_turns_behind_a_member_parked_on_the_boundary() {
        let s = identical_nodes(1);
        let mut f = burst(&s, 30, &[(PERIOD_US, 0)]);
        f.step_through(BOUNDARY);
        let served = supply(&f);
        let mut before = list(&f);
        // Refused at the boundary's own microsecond, from the closing
        // period's supply: not due at this boundary's wake.
        let early = before.pop().expect("the last arrival");
        assert_eq!(early, waiter(SECOND, 30, 1));
        assert!(before.len() > served && before.iter().all(|w| w.due == WAKE));
        assert_eq!(pending_wakes(&f), 2);

        f.step_through(WAKE);
        let after = [vec![early], turned(&before[served..], SECOND)].concat();
        assert_eq!(list(&f), after);
        assert_eq!(
            f.waiting.work,
            wait_work(1, 1, before.len() - served, served)
        );
        // The run found its wake scheduled: `early` is at the back.
        assert_eq!(pending_wakes(&f), 1);
    }

    /// The fence test below on an indexed QA-NT run: the run ends at the
    /// fence, the completion fires, and the fence's own wake turns the
    /// rest.
    #[test]
    fn a_run_stops_at_a_fence_and_the_second_wake_turns_the_rest() {
        // Class 0 runs on node 0 alone, class 1 on node 1 alone.
        let s = alike_nodes(2, &[vec![0], vec![1]]);
        let probe = Federation::new(&s, MechanismKind::QaNt, &Trace::from_events(vec![]));
        // Posed here, query 20 completes on the idle node 1 exactly at
        // `WAKE`; class 0 has long run dry, and 21 and 22 park behind it.
        let posed = WAKE.as_micros() - (probe.rtt + probe.exec[3]).as_micros();
        let later = [(posed, 1), (posed + 1_000, 0), (posed + 2_000, 0)];
        let mut f = burst(&s, 20, &later);
        pose_all(&mut f);
        f.step_through(BOUNDARY);
        let served = supply(&f);
        let before = list(&f);
        let fence = before.len() - 3;
        assert!(fence > served, "no run ahead of the fence");
        let parted = waiter(WAKE, FENCE, 0);
        assert_eq!(
            before[fence..],
            [parted, waiter(WAKE, 21, 1), waiter(WAKE, 22, 1)]
        );

        let mut log = Served::new();
        step(&mut f, SimTime::MAX, &mut log);
        let ahead = turned(&before[served..fence], SECOND);
        let after = [before[fence + 1..].to_vec(), ahead.clone()].concat();
        assert_eq!(list(&f), after);
        assert_eq!(f.waiting.work, wait_work(1, 1, fence - served, served));
        assert_eq!((pending_wakes(&f), log.len()), (2, 0));
        step(&mut f, SimTime::MAX, &mut log);
        assert_eq!(log, [(20, NodeId(1))]);
        f.process_next(SimTime::MAX);
        let after = [ahead, turned(&before[fence + 1..], SECOND)].concat();
        assert_eq!(list(&f), after);
        assert_eq!(f.waiting.work, wait_work(2, 2, fence - served + 2, served));
        assert_eq!(pending_wakes(&f), 1);
    }

    #[test]
    fn a_refusal_on_the_boundary_waits_for_the_following_one() {
        let s = Scenario::two_class(SimConfig::small_test(11));
        // A burst that dries class 0 for the period, then one more query
        // at the boundary's own microsecond: the cursor serves it ahead of
        // the `PeriodStart`, from the closing period's (empty) supply.
        let mut arrivals: Vec<(SimTime, ClassId)> = (0..200)
            .map(|i| (SimTime::from_micros(i), ClassId(0)))
            .collect();
        arrivals.push((SimTime::from_micros(PERIOD_US), ClassId(0)));
        let mut rng = DetRng::seed_from_u64(3).derive("boundary");
        let t = Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng);
        let mut f = stepped(&s, MechanismKind::QaNt, &t);
        f.begin_run();
        pose_all(&mut f);
        let first = SimTime::from_micros(PERIOD_US + 1);
        let second = SimTime::from_micros(2 * PERIOD_US + 1);
        // Two wake times on the list at once, in order.
        assert_eq!(list(&f).last(), Some(&waiter(second, 200, 1)));
        let before = f.waiting.len() - 1;
        assert!(before > 0, "the burst fits the period's supply");
        assert!(list(&f).iter().take(before).all(|w| w.due == first));
        let early = list(&f)[0].query as u64;

        f.step_through(first);
        // Parked before the boundary: served at its first retry.
        assert_eq!(assigned_after(&f, early), Some(1));
        // Parked on it: not due yet.
        assert_eq!(list(&f).first(), Some(&waiter(second, 200, 1)));
        f.step_through(second);
        assert_eq!(assigned_after(&f, 200), Some(1));
        f.step_through(SimTime::MAX);
        let out = f.finish();
        assert_eq!(out.metrics.completed, 201);
        // What the same trace counted when every retry was a queue event.
        assert_eq!(out.metrics.retries, 4_652);
    }

    /// A completion that lands on a wake's microsecond, scheduled between
    /// two parks for it, runs between the two retries: the order of the
    /// queue when each retry was an event of its own. BNQRD shows it — the
    /// completion's load report decides where the second retry goes.
    #[test]
    fn a_completion_on_the_wake_microsecond_keeps_its_place_between_two_waiters() {
        let s = identical_nodes(4);
        let wake = SimTime::from_micros(PERIOD_US + 1);
        let probe = Federation::new(&s, MechanismKind::Bnqrd, &Trace::from_events(vec![]));
        // Posed here on an idle node, a query completes exactly at `wake`.
        let posed = wake.as_micros() - (probe.rtt + probe.exec[0]).as_micros();
        let mut rng = DetRng::seed_from_u64(1).derive("fence");
        let arrivals =
            [posed - 1_000, posed, posed + 1_000].map(|at| (SimTime::from_micros(at), ClassId(0)));
        let t = Trace::from_arrivals(arrivals.to_vec(), 4, &mut rng);
        let mut f = stepped(&s, MechanismKind::Bnqrd, &t);
        // Nodes 0 and 2 are cut off for the first period: the coordinator
        // picks the least-loaded node, 0 then 1 then 2, and the first and
        // third assignment messages are lost.
        let cut = LinkFaults {
            outages: vec![OutageWindow::new(
                SimTime::ZERO,
                SimTime::from_micros(PERIOD_US),
            )],
            ..LinkFaults::none()
        };
        f.set_fault_plan(
            FaultPlan::none()
                .with_link(0, cut.clone())
                .with_link(2, cut),
        );
        f.begin_run();
        pose_all(&mut f);
        let owners = |f: &Federation| [0, 1, 2].map(|q| owner(f, q));
        assert_eq!(owners(&f), [None, Some(NodeId(1)), None]);
        assert_eq!(
            list(&f),
            [
                waiter(wake, 0, 1),
                waiter(wake, FENCE, 0),
                waiter(wake, 2, 1)
            ]
        );
        let mut served = Served::new();
        super::index_differential::step_through(&mut f, SimTime::MAX, &mut served);
        // Query 0 retries first and takes the one node never charged, 3.
        // Then node 1 reports its completion and is the least loaded when
        // query 2 retries; retried ahead of the report, query 2 would have
        // gone to node 0.
        served.sort_unstable();
        assert_eq!(served, [(0, NodeId(3)), (1, NodeId(1)), (2, NodeId(1))]);
        let out = f.finish();
        let m = &out.metrics;
        assert_eq!(
            (
                m.completed,
                m.unserved,
                m.retries,
                m.lost_messages,
                m.messages
            ),
            (3, 0, 2, 2, 15)
        );
    }

    #[test]
    fn a_spent_retry_budget_is_unserved_and_not_parked_again() {
        let s = identical_nodes(2);
        let mut rng = DetRng::seed_from_u64(2).derive("budget");
        let t = Trace::from_arrivals(vec![(SimTime::from_secs(9), ClassId(0))], 2, &mut rng);
        let (telemetry, records) = Telemetry::buffered();
        let mut f = Federation::with_telemetry(&s, MechanismKind::Greedy, &t, telemetry);
        let slot = f.admit(t.events()[0]);
        let now = SimTime::from_millis(10);
        let wake = wake_after(now, s.config.qant.period);
        assert_eq!(wake, SimTime::from_micros(PERIOD_US + 1));
        f.resubmit(wake, slot, ClassId(0), MAX_RETRIES - 1);
        assert_eq!(list(&f), [waiter(wake, 0, MAX_RETRIES)]);
        assert_eq!((f.metrics.retries, f.metrics.unserved), (1, 0));
        assert!(records.is_empty());

        f.waiting.clear();
        f.resubmit(wake, slot, ClassId(0), MAX_RETRIES);
        assert!(f.waiting.len() == 0 && f.free == [slot]);
        assert_eq!((f.metrics.retries, f.metrics.unserved), (1, 1));
        let events: Vec<_> = records.records().into_iter().map(|r| r.event).collect();
        assert!(matches!(
            events[..],
            [TelemetryEvent::QueryUnserved {
                query: 0,
                class: 0,
                retries: MAX_RETRIES
            }]
        ));
    }

    /// The most events the queue of a run without crash schedules can hold
    /// between two of its events: a completion per assigned query, the
    /// next `PeriodStart`, and a `Wake` per distinct due time on the wait
    /// list plus one per fence (the wake that retries the members behind
    /// it). Waiting and not-yet-arrived queries hold no event of their own.
    fn queue_bound(f: &Federation) -> usize {
        let running = f.slots.iter().filter(|q| q.owner.is_some()).count();
        let (dues, fences) = f.waiting.dues();
        let mut distinct = Vec::new();
        for due in dues {
            if !distinct.contains(&due) {
                distinct.push(due);
            }
        }
        running + 1 + distinct.len() + fences
    }

    /// Steps a run window by window and event by event, holding the queue
    /// to [`queue_bound`] after every arrival push and every event; returns
    /// the longest queue and the longest wait list seen.
    fn assert_queue_holds_running_queries(s: &Scenario, t: &Trace) -> (usize, usize) {
        let mut f = Federation::new(s, MechanismKind::QaNt, t);
        f.begin_run();
        let (mut queued, mut parked) = (0, 0);
        let mut check = |f: &Federation| {
            let bound = queue_bound(f);
            assert!(f.queue.len() <= bound, "{} queued > {bound}", f.queue.len());
            (queued, parked) = (queued.max(f.queue.len()), parked.max(f.waiting.len()));
        };
        let windows = period_windows(t.events(), s.config.qant.period);
        for (boundary, window, last) in windows.chain([(SimTime::MAX, &[][..], true)]) {
            f.push_arrivals(window, !last);
            check(&f);
            while f.process_next(boundary) {
                check(&f);
            }
        }
        assert!(f.queue.is_empty() && f.waiting.len() == 0);
        (queued, parked)
    }

    #[test]
    fn the_queue_holds_running_queries_not_waiting_or_future_ones() {
        use crate::experiments::{scale_world, two_class_trace};
        // The `flat1k` rep's shape: about one retry per query.
        let s = scale_world(1_000, 11);
        let t = two_class_trace(&s, 0.05, 0.75, 100);
        let (queued, parked) = assert_queue_holds_running_queries(&s, &t);
        assert!(
            queued < t.len() / 20 && parked > 0,
            "{queued} queued, {parked} parked"
        );
        // The `paper100_overload` rep's: 60 retries per query, so the wait
        // list outgrows the queue.
        let s = scale_world(100, 11);
        let t = two_class_trace(&s, 0.05, 1.5, 150);
        let (queued, parked) = assert_queue_holds_running_queries(&s, &t);
        assert!(parked > 10 * queued, "{queued} queued, {parked} parked");
    }
}
