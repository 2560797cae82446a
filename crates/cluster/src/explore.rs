//! Model-checking harness for the cluster driver protocol.
//!
//! [`run_schedule`] executes one deterministic episode of the allocation
//! protocol — the [`Episode`] shell [`crate::driver::run_workload`] runs,
//! over the same [`crate::protocol::QueryProtocol`] machines, one per
//! query — against the [`SimTransport`] virtual network, whose nodes are the sellers
//! ([`crate::protocol::NodeProtocol`]) every node thread and `qad` process
//! runs, under the shipped market configuration, with **every**
//! nondeterministic decision (which message is delivered, what is dropped,
//! when a node crashes, when a collection deadline fires, when the driver
//! harvests a reply) resolved by one shared [`Schedule`]. After the
//! episode, four machine-checked invariants audit the final state:
//!
//! 1. **conservation** — every query ends exactly once (completed or
//!    unserved, totals match the workload), and each completed query's
//!    committed `(query, generation)` appears exactly once in its
//!    assignee's execution log;
//! 2. **double assignment** — across crash re-entry, no
//!    `(query, generation)` pair is ever executed twice, on any node or
//!    across nodes (re-allocation must bump the generation);
//! 3. **price consistency** — after recovering crashed nodes and
//!    reconnecting, each node's dumped price vector is finite, positive,
//!    stable across two consecutive dumps, and byte-identical to the
//!    node's internal market state;
//! 4. **termination** — the episode finishes within the action budget
//!    (the virtual watchdog): no schedule may wedge the driver.
//!
//! [`explore_random`] sweeps seeded-random schedules (each reproducible
//! from its printed seed via [`run_seed`]); [`explore_systematic`] runs
//! the bounded DFS enumeration from [`SystematicExplorer`]. A failing
//! schedule's seed or choice trail replays the identical interleaving.

use crate::driver::{qant_config_for, ClusterMechanism};
use crate::episode::{Arrival, Episode, Timer, Wait};
use crate::node::{NodeMsg, Reply};
use crate::protocol::Outcome;
use crate::simtransport::{encode_sql, NetStats, SharedSchedule, SimTransport};
use crate::transport::Transport;
use qa_simnet::sched::{ChoiceTrail, RandomSchedule, ReplaySchedule, Schedule, SystematicExplorer};
use qa_simnet::telemetry::{Telemetry, TelemetryEvent};
use qa_workload::ClassId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{channel, Receiver};
use std::time::Duration;

/// Shape of one explored episode. Small on purpose: model checking pays
/// for breadth in schedules, not size of any single run.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Fleet size.
    pub num_nodes: usize,
    /// Query classes (query `i` has class `i % num_classes`).
    pub num_classes: usize,
    /// Queries in the episode.
    pub num_queries: usize,
    /// The sellers' market period (what a period tick's eq.-4 budget is
    /// measured in).
    pub period: Duration,
    /// Re-allocation attempts before a query is declared unserved.
    pub max_retries: u32,
    /// Schedule-chosen crash injections available to the adversary.
    pub crash_budget: u32,
    /// A period tick is broadcast before every `tick_every`-th issue.
    pub tick_every: usize,
    /// Driver-action budget — the virtual watchdog behind invariant 4.
    pub max_actions: u64,
    /// The protocol under test.
    pub mechanism: ClusterMechanism,
    /// Harness self-test: arm the virtual nodes' deliberate double-commit
    /// bug; the invariant checker must flag every such run.
    pub inject_double_exec: bool,
}

impl ExploreConfig {
    /// The default episode: 3 nodes × 2 classes × 4 queries with one
    /// adversarial crash — small enough that systematic enumeration
    /// covers real depth, rich enough to exercise re-entry.
    pub fn small() -> ExploreConfig {
        ExploreConfig {
            num_nodes: 3,
            num_classes: 2,
            num_queries: 4,
            period: Duration::from_millis(40),
            max_retries: 3,
            crash_budget: 1,
            tick_every: 3,
            max_actions: 10_000,
            mechanism: ClusterMechanism::QaNt,
            inject_double_exec: false,
        }
    }
}

/// One failed invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

/// Everything observed under one schedule.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The schedule's self-description (`random seed N`, `systematic #K`).
    pub description: String,
    /// Full choice trail (replayable via [`run_trail`]).
    pub trail: ChoiceTrail,
    /// Queries that completed.
    pub completed: u64,
    /// Queries declared unserved.
    pub unserved: u64,
    /// Driver actions taken.
    pub actions: u64,
    /// Virtual-network counters (deliveries, drops, crash steps).
    pub net: NetStats,
    /// Invariant violations (empty = the schedule passed).
    pub violations: Vec<Violation>,
}

impl ScheduleOutcome {
    /// `true` iff every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A loop action whose turn order the schedule controls.
enum Choice {
    /// Let the virtual network take one step.
    Net,
    /// Issue the next query.
    Issue,
    /// Let query `i`'s collection deadline pass: the driver looks at what
    /// has reached its inbox for the query, then closes the round.
    Deadline(usize),
    /// Let the driver see the fate of query `i`'s execute.
    Harvest(usize),
}

/// The explorer's loop around the [`Episode`] — the shell
/// [`crate::driver::run_workload`] runs. Where that loop blocks on its
/// inbox until the next timer, this one lets the schedule say when the
/// driver gets to look: replies wait in `held` until their query's turn.
struct Explorer<'a> {
    cfg: &'a ExploreConfig,
    transport: &'a SimTransport,
    episode: Episode<'a>,
    inbox: Receiver<Arrival>,
    /// Arrivals the driver has not looked at yet, per query.
    held: Vec<Vec<Arrival>>,
}

impl Explorer<'_> {
    /// Builds the enabled-choice list in a fixed deterministic order.
    fn enabled(&mut self) -> Vec<Choice> {
        for arrival in self.inbox.try_iter() {
            self.held[arrival.query].push(arrival);
        }
        let mut choices = Vec::new();
        if self.transport.pending_messages() > 0 {
            choices.push(Choice::Net);
        }
        if self.episode.issued() < self.cfg.num_queries {
            choices.push(Choice::Issue);
        }
        for (i, held) in self.held.iter().enumerate() {
            match self.episode.waiting_on(i) {
                Some(Wait::Replies(_)) => choices.push(Choice::Deadline(i)),
                // The execute's fate is known and waits for the schedule
                // to pick the harvest.
                Some(execute) if held.iter().any(|a| a.wait == execute) => {
                    choices.push(Choice::Harvest(i));
                }
                _ => {}
            }
        }
        choices
    }

    /// Carries out one choice. Of the timers the episode names, only the
    /// round deadline is a choice point; a back-off elapses at once
    /// (virtual time), and no execute times out — its reply arrives or is
    /// lost.
    fn take(&mut self, choice: Choice) {
        // Virtual time: one millisecond per network step.
        let now = Duration::from_millis(self.transport.stats().steps);
        match choice {
            Choice::Net => {
                self.transport.step();
            }
            Choice::Issue => {
                let i = self.episode.issued();
                if i > 0 && i.is_multiple_of(self.cfg.tick_every) {
                    self.episode.tick(now, (i / self.cfg.tick_every) as u64);
                }
                let class = ClassId((i % self.cfg.num_classes) as u32);
                // The cost table lets every node evaluate every class.
                let capable = (0..self.cfg.num_nodes).collect();
                self.held.push(Vec::new());
                self.episode.issue(now, class, capable);
            }
            Choice::Deadline(i) | Choice::Harvest(i) => {
                let wait = self.episode.waiting_on(i);
                for arrival in std::mem::take(&mut self.held[i]) {
                    self.episode.deliver(now, arrival);
                }
                // A round its last arrival closed just now ignores this.
                if let Some(wait @ Wait::Replies(_)) = wait {
                    self.episode.fire(now, Timer { query: i, wait });
                }
            }
        }
        loop {
            let timers = self.episode.take_timers();
            if timers.is_empty() {
                break;
            }
            let backoffs = |t: &Timer| matches!(t.wait, Wait::Backoff(_));
            for timer in timers.into_iter().filter(backoffs) {
                self.episode.fire(now, timer);
            }
        }
    }
}

/// Runs one episode under `schedule` and audits the invariants. The
/// schedule is consumed; its full trail comes back in the outcome.
pub fn run_schedule(
    cfg: &ExploreConfig,
    schedule: Box<dyn Schedule + Send>,
    telemetry: &Telemetry,
    schedule_id: u64,
    mode: &str,
) -> ScheduleOutcome {
    telemetry.emit(|| TelemetryEvent::ScheduleStarted {
        schedule: schedule_id,
        mode: mode.to_string(),
    });
    let shared = SharedSchedule::new(schedule);
    let transport = SimTransport::new(
        cfg.num_nodes,
        cfg.num_classes,
        qant_config_for(cfg.mechanism, cfg.period),
        cfg.crash_budget,
        shared.clone(),
        telemetry.clone(),
    );
    if cfg.inject_double_exec {
        transport.inject_double_exec();
    }

    // Query identity crosses the transport seam in the SQL text.
    let sql = |i: usize, generation: u32| {
        encode_sql(i as u64, generation, ClassId((i % cfg.num_classes) as u32))
    };
    // Nodes the machines have written off (send failed = crash observed).
    let dead: Vec<AtomicBool> = (0..cfg.num_nodes).map(|_| AtomicBool::new(false)).collect();
    let (inbox_tx, inbox) = channel();
    let mechanism = cfg.mechanism;
    let mut explorer = Explorer {
        cfg,
        transport: &transport,
        episode: Episode::new(
            &transport,
            mechanism,
            cfg.max_retries,
            &sql,
            &dead,
            telemetry,
            inbox_tx,
        ),
        inbox,
        held: Vec::new(),
    };

    let mut actions = 0u64;
    while explorer.episode.finished() < cfg.num_queries && actions < cfg.max_actions {
        let mut enabled = explorer.enabled();
        if enabled.is_empty() {
            // Unreachable by construction (a non-done query always has a
            // deadline, a harvest, or an in-flight message) — but a model
            // checker must never trust "unreachable": fall through and
            // let the termination invariant report the wedge.
            break;
        }
        actions += 1;
        let pick = shared.choose("action", enabled.len());
        explorer.take(enabled.swap_remove(pick));
    }
    let episode = explorer.episode;

    let mut violations = check_invariants(cfg, &episode, &transport, actions);
    for v in &violations {
        let (invariant, detail) = (v.invariant.to_string(), v.detail.clone());
        telemetry.emit(|| TelemetryEvent::InvariantViolated { invariant, detail });
    }
    // Attach the trail to the first violation's detail so a printed
    // failure is self-contained.
    let trail_string = shared.trail_string();
    if let Some(first) = violations.first_mut() {
        first.detail = format!("{} [trail {}]", first.detail, trail_string);
    }

    let completed = episode
        .outcomes()
        .filter(|(_, o)| matches!(o, Outcome::Completed { .. }))
        .count() as u64;
    let unserved = episode.finished() as u64 - completed;
    let net = transport.stats();
    let description = shared.describe();
    drop(episode);
    drop(transport);
    let trail = shared.into_inner().trail().clone();
    ScheduleOutcome {
        description,
        trail,
        completed,
        unserved,
        actions,
        net,
        violations,
    }
}

/// The four invariant audits. Termination first: a wedged episode's
/// partial state would make the others report noise, so they only run on
/// episodes that finished.
fn check_invariants(
    cfg: &ExploreConfig,
    episode: &Episode<'_>,
    transport: &SimTransport,
    actions: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // 4. Termination under the (virtual) watchdog.
    let unfinished = cfg.num_queries - episode.finished();
    if unfinished > 0 {
        violations.push(Violation {
            invariant: "termination",
            detail: format!(
                "{unfinished}/{} queries unfinished after {actions} driver actions \
                 (budget {})",
                cfg.num_queries, cfg.max_actions
            ),
        });
        return violations;
    }

    // Quiesce before auditing: recover crashed nodes (reconnect) and
    // deliver whatever the schedule left in flight — in-flight ticks and
    // offers legitimately mutate prices, so the state snapshot must come
    // after the network settles.
    transport.recover_all();
    transport.drain();
    let nodes = transport.node_states();

    // 1. Conservation: every query has ended (checked above; a machine
    // accepts nothing after `Done`, so exactly once), and every committed
    // execution is present exactly once on its assignee.
    for (i, outcome) in episode.outcomes() {
        if let Outcome::Completed { node, generation } = outcome {
            let hits = nodes[*node]
                .executions
                .iter()
                .filter(|e| e.query == i as u64 && e.generation == *generation)
                .count();
            if hits != 1 {
                violations.push(Violation {
                    invariant: "conservation",
                    detail: format!(
                        "query {i} committed on node {node} gen {generation} \
                         appears {hits}× in its execution log (want exactly 1)"
                    ),
                });
            }
        }
    }

    // 2. No double assignment across crash re-entry: a (query, generation)
    // pair executes at most once, fleet-wide.
    let mut seen: BTreeMap<(u64, u32), Vec<usize>> = BTreeMap::new();
    for n in &nodes {
        for e in &n.executions {
            seen.entry((e.query, e.generation)).or_default().push(n.id);
        }
    }
    for ((query, generation), on_nodes) in &seen {
        if on_nodes.len() > 1 {
            violations.push(Violation {
                invariant: "double_assignment",
                detail: format!(
                    "query {query} gen {generation} executed {}× (nodes {on_nodes:?})",
                    on_nodes.len()
                ),
            });
        }
    }

    // 3. Price consistency after reconnect: the dumped vector must be
    // sane, stable across dumps, and identical to the node's internal
    // state (nodes were recovered and the network drained above).
    let dump = |node: usize| -> Option<Vec<f64>> {
        let (reply, rx) = Reply::channel();
        transport.send(node, NodeMsg::DumpPrices { reply }).ok()?;
        transport.drain();
        rx.try_recv().ok().map(|p| p.prices)
    };
    for n in &nodes {
        let id = n.id;
        let market = n.seller.market();
        let held = market.map_or(Vec::new(), |q| q.prices().as_slice().to_vec());
        let problem = match (dump(id), dump(id)) {
            (Some(a), Some(b)) if a != b => {
                format!("node {id} dumps differ across reconnect: {a:?} vs {b:?}")
            }
            (Some(a), Some(_)) if a != held => {
                format!("node {id} dumped {a:?} but market state holds {held:?}")
            }
            (Some(a), Some(_)) if a.iter().any(|p| !p.is_finite() || *p <= 0.0) => {
                format!("node {id} price vector not finite-positive: {a:?}")
            }
            (Some(_), Some(_)) => continue,
            _ => format!("node {id} did not answer the post-recovery price dump"),
        };
        violations.push(Violation {
            invariant: "price_consistency",
            detail: problem,
        });
    }

    violations
}

/// Replays a seeded-random schedule — the reproduction path for a printed
/// failure seed.
pub fn run_seed(cfg: &ExploreConfig, seed: u64) -> ScheduleOutcome {
    run_schedule(
        cfg,
        Box::new(RandomSchedule::new(seed)),
        &Telemetry::disabled(),
        seed,
        "random",
    )
}

/// Replays a recorded choice trail.
pub fn run_trail(cfg: &ExploreConfig, indices: Vec<u32>, label: &str) -> ScheduleOutcome {
    run_schedule(
        cfg,
        Box::new(ReplaySchedule::new(indices, label)),
        &Telemetry::disabled(),
        0,
        "replay",
    )
}

/// A schedule that failed, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FailedSchedule {
    /// The schedule's identity (`random seed N`, `systematic #K …`).
    pub description: String,
    /// Compact `point:chosen/arity` trail.
    pub trail: String,
    /// The violations it triggered.
    pub violations: Vec<Violation>,
}

/// Aggregates over an exploration sweep.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Schedules run.
    pub schedules: u64,
    /// Sum of completed queries.
    pub completed: u64,
    /// Sum of unserved queries.
    pub unserved: u64,
    /// Total requests dropped by the adversary.
    pub dropped_requests: u64,
    /// Total replies dropped by the adversary.
    pub dropped_replies: u64,
    /// Total crashes injected.
    pub crashes: u64,
    /// Distinct network-step indices at which a crash was injected —
    /// the crash-point coverage measure.
    pub crash_points: BTreeSet<u64>,
    /// Schedules that violated an invariant (capped at
    /// [`ExploreReport::MAX_FAILURES`]; `schedules_failed` keeps the
    /// true count).
    pub failures: Vec<FailedSchedule>,
    /// True number of failing schedules.
    pub schedules_failed: u64,
    /// `true` when a systematic sweep enumerated its whole bounded tree
    /// (as opposed to hitting the schedule budget).
    pub exhausted: bool,
}

impl ExploreReport {
    /// Failing schedules kept verbatim in [`ExploreReport::failures`].
    pub const MAX_FAILURES: usize = 8;

    fn absorb(&mut self, outcome: &ScheduleOutcome) {
        self.schedules += 1;
        self.completed += outcome.completed;
        self.unserved += outcome.unserved;
        self.dropped_requests += outcome.net.dropped_requests;
        self.dropped_replies += outcome.net.dropped_replies;
        self.crashes += outcome.net.crash_steps.len() as u64;
        self.crash_points.extend(outcome.net.crash_steps.iter());
        if !outcome.passed() {
            self.schedules_failed += 1;
            if self.failures.len() < Self::MAX_FAILURES {
                self.failures.push(FailedSchedule {
                    description: outcome.description.clone(),
                    trail: outcome.trail.to_string(),
                    violations: outcome.violations.clone(),
                });
            }
        }
    }

    /// `true` iff no schedule violated an invariant.
    pub fn passed(&self) -> bool {
        self.schedules_failed == 0
    }
}

/// Sweeps `count` seeded-random schedules starting at `base_seed`.
pub fn explore_random(cfg: &ExploreConfig, base_seed: u64, count: u64) -> ExploreReport {
    let mut report = ExploreReport::default();
    for i in 0..count {
        let outcome = run_seed(cfg, base_seed.wrapping_add(i));
        report.absorb(&outcome);
    }
    report
}

/// Bounded systematic enumeration: DFS over the first `depth_bound`
/// choice points, visiting at most `budget` schedules.
pub fn explore_systematic(cfg: &ExploreConfig, depth_bound: usize, budget: u64) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut explorer = SystematicExplorer::new(depth_bound, budget);
    while let Some(schedule) = explorer.begin() {
        let id = schedule.index();
        let outcome = run_schedule(
            cfg,
            Box::new(schedule),
            &Telemetry::disabled(),
            id,
            "systematic",
        );
        explorer.finish(&outcome.trail);
        report.absorb(&outcome);
    }
    report.exhausted = explorer.exhausted();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_schedule_completes_everything() {
        // All-zero choices: FIFO delivery, no drops, no crash.
        let cfg = ExploreConfig::small();
        let out = run_trail(&cfg, vec![], "benign");
        assert!(out.passed(), "{:?}", out.violations);
        assert_eq!(out.completed, cfg.num_queries as u64);
        assert_eq!(out.unserved, 0);
        assert!(out.net.crash_steps.is_empty());
    }

    #[test]
    fn seeded_runs_are_reproducible_and_seed_sensitive() {
        let cfg = ExploreConfig::small();
        let fingerprint = |seed: u64| {
            let o = run_seed(&cfg, seed);
            (
                o.completed,
                o.unserved,
                o.actions,
                o.net.clone(),
                o.trail.indices(),
                o.violations.clone(),
            )
        };
        assert_eq!(fingerprint(11), fingerprint(11), "same seed ⇒ same episode");
        let distinct: std::collections::BTreeSet<Vec<u32>> =
            (0..16).map(|s| fingerprint(s).4).collect();
        assert!(distinct.len() > 1, "seeds must vary the interleaving");
    }

    #[test]
    fn recorded_trail_replays_the_identical_episode() {
        let cfg = ExploreConfig::small();
        let original = run_seed(&cfg, 1234);
        let replayed = run_trail(&cfg, original.trail.indices(), "seed 1234");
        assert_eq!(replayed.completed, original.completed);
        assert_eq!(replayed.unserved, original.unserved);
        assert_eq!(replayed.actions, original.actions);
        assert_eq!(replayed.net, original.net);
        assert_eq!(replayed.trail.indices(), original.trail.indices());
    }

    #[test]
    fn random_sweep_holds_all_invariants_under_both_mechanisms() {
        for mechanism in [ClusterMechanism::QaNt, ClusterMechanism::Greedy] {
            let cfg = ExploreConfig {
                mechanism,
                ..ExploreConfig::small()
            };
            let report = explore_random(&cfg, 7, 150);
            assert!(
                report.passed(),
                "{mechanism:?}: {:#?}",
                report.failures.first()
            );
            assert_eq!(report.schedules, 150);
            assert!(
                report.crashes > 0,
                "{mechanism:?}: adversary never crashed a node"
            );
            assert!(
                report.dropped_requests + report.dropped_replies > 0,
                "{mechanism:?}: adversary never dropped anything"
            );
        }
    }

    /// The sellers are the shipped ones, so under the §5.1 threshold a
    /// refusal takes eight exhausted requests of one class on one node.
    /// The random sweep must still get there: the market's own
    /// `RequestRejected` (nothing in the shells emits one) shows up.
    #[test]
    fn random_sweep_reaches_real_refusals() {
        let cfg = ExploreConfig::small();
        let refusals = |seed: u64| {
            let (telemetry, buffer) = Telemetry::buffered();
            let schedule = Box::new(RandomSchedule::new(seed));
            let out = run_schedule(&cfg, schedule, &telemetry, seed, "random");
            assert!(out.passed(), "seed {seed}: {:?}", out.violations);
            let rejected = |r: &qa_simnet::telemetry::TraceRecord| {
                matches!(r.event, TelemetryEvent::RequestRejected { .. })
            };
            buffer.records().into_iter().filter(rejected).count()
        };
        let refusing = (7..157).filter(|&seed| refusals(seed) > 0).count();
        assert!(
            refusing >= 15,
            "only {refusing}/150 schedules saw a refusal"
        );
    }

    #[test]
    fn systematic_sweep_explores_and_passes() {
        let cfg = ExploreConfig::small();
        let report = explore_systematic(&cfg, 6, 400);
        assert!(report.passed(), "{:#?}", report.failures.first());
        assert!(
            report.schedules >= 100,
            "only {} schedules",
            report.schedules
        );
        assert!(
            !report.crash_points.is_empty(),
            "systematic sweep must cover crash injection points"
        );
    }

    #[test]
    fn injected_double_commit_is_caught() {
        // The checker must detect the deliberately broken node — on the
        // *benign* schedule, so detection cannot depend on adversarial luck.
        let cfg = ExploreConfig {
            inject_double_exec: true,
            ..ExploreConfig::small()
        };
        let out = run_trail(&cfg, vec![], "self-test");
        assert!(
            out.violations
                .iter()
                .any(|v| v.invariant == "double_assignment" || v.invariant == "conservation"),
            "checker missed the double commit: {:?}",
            out.violations
        );
    }

    #[test]
    fn starved_action_budget_reports_termination() {
        let cfg = ExploreConfig {
            max_actions: 3,
            ..ExploreConfig::small()
        };
        let out = run_trail(&cfg, vec![], "starved");
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].invariant, "termination");
    }

    #[test]
    fn schedule_events_flow_through_telemetry() {
        let (telemetry, buffer) = Telemetry::buffered();
        let cfg = ExploreConfig::small();
        let out = run_schedule(
            &cfg,
            Box::new(RandomSchedule::new(99)),
            &telemetry,
            99,
            "random",
        );
        assert!(out.passed(), "{:?}", out.violations);
        let records = buffer.records();
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TelemetryEvent::ScheduleStarted { schedule: 99, mode } if mode == "random")));
        // The records read back through the strict trace reader.
        assert_eq!(
            qa_simnet::telemetry::read_trace(&buffer.to_jsonl()),
            Ok(records)
        );
    }
}
