//! The §5.2 experiment driver.
//!
//! Replays a uniform-inter-arrival workload of star queries against the
//! node fleet under either allocation mechanism, measuring per query:
//!
//! * **assignment time** — from issue until a node is chosen (the paper's
//!   "time required by Greedy and QA-NT to assign a query to a node"; both
//!   protocols poll every capable node, so a busy slow node stretches
//!   this),
//! * **total time** — assignment plus execution ("time to assign + execute
//!   query").
//!
//! These are exactly Figure 7's two bars per mechanism.
//!
//! ## Resilience
//!
//! The driver never assumes the fleet is healthy. Negotiation replies are
//! collected under a deadline ([`ClusterConfig::reply_timeout`]), a node
//! whose mailbox disconnects (crash injection via
//! [`ClusterConfig::crashes`], or a dead worker) is routed around, and
//! failed attempts retry with capped exponential backoff within
//! [`ClusterConfig::max_retries`]. Those rules are [`crate::protocol`]'s,
//! carried out by the [`crate::episode`] shell; this module gives that
//! shell a clock, the workload and a [`Transport`]. All
//! environmental failures surface as [`ClusterError`] values in the
//! per-query outcomes — the request, offer and execute paths never panic.

use crate::episode::{Episode, Timer, Wait};
use crate::error::ClusterError;
use crate::node::{spawn_node, NodeHandle};
use crate::setup::ClusterSpec;
use crate::transport::{ChannelTransport, Transport};
use qa_core::QantConfig;
use qa_simnet::telemetry::Telemetry;
use qa_simnet::{DetRng, FaultPlan, SimDuration};
use qa_workload::ClassId;
use std::collections::BTreeSet;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard ceiling on one query execution (a node may legitimately be slow,
/// but past this the run must move on).
const EXEC_TIMEOUT: Duration = Duration::from_secs(60);

/// Which mechanism drives allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMechanism {
    /// Greedy: poll execution estimates from every capable node, assign to
    /// the minimum unilaterally.
    Greedy,
    /// QA-NT: call-for-offers; servers offer while market supply lasts;
    /// rejected queries resubmit next period.
    QaNt,
}

impl std::fmt::Display for ClusterMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterMechanism::Greedy => write!(f, "Greedy"),
            ClusterMechanism::QaNt => write!(f, "QA-NT"),
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Master seed.
    pub seed: u64,
    /// Queries to issue (paper: 300).
    pub num_queries: usize,
    /// Mean inter-arrival time (paper: 300 ms and 400 ms; scale down for
    /// CI).
    pub mean_interarrival: Duration,
    /// QA-NT market period (paper: 500 ms; scale with the workload).
    pub period: Duration,
    /// The mechanism under test.
    pub mechanism: ClusterMechanism,
    /// Maximum resubmissions before giving up on a query (QA-NT
    /// rejections, lost negotiations and crash re-allocations all spend
    /// from this budget).
    pub max_retries: u32,
    /// Deadline for collecting negotiation replies. Replies missing at the
    /// deadline count as non-offers; the protocol no longer blocks on the
    /// full candidate set.
    pub reply_timeout: Duration,
    /// Link-fault schedule keyed by node ([`FaultPlan::none`] = healthy).
    /// Outage-window offsets are measured from experiment start.
    pub faults: FaultPlan,
    /// Crash schedule: `(node, delay after start)`. Crashed nodes drop out
    /// of the candidate set; the run finishes without them.
    pub crashes: Vec<(usize, Duration)>,
    /// Telemetry sink observing the run ([`Telemetry::disabled`] by
    /// default). Market events carry per-node labels; timestamps are
    /// wall-clock microseconds since experiment start, so — unlike the
    /// simulator's traces — cluster traces are not byte-deterministic.
    pub telemetry: Telemetry,
}

impl ClusterConfig {
    /// CI-scale defaults (~100× smaller than the paper's deployment).
    pub fn ci_scale(mechanism: ClusterMechanism, seed: u64) -> ClusterConfig {
        ClusterConfig {
            seed,
            num_queries: 40,
            mean_interarrival: Duration::from_millis(5),
            period: Duration::from_millis(40),
            mechanism,
            max_retries: 100,
            reply_timeout: Duration::from_secs(60),
            faults: FaultPlan::none(),
            crashes: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Paper-shaped run (time-scaled ~10×: 300 queries at 30/40 ms mean
    /// inter-arrival against ~100 ms-class queries — the paper's 300/400 ms
    /// against 1–14 s queries, preserving the ~3× offered-load ratio).
    pub fn paper_scale(
        mechanism: ClusterMechanism,
        seed: u64,
        mean_interarrival_ms: u64,
    ) -> ClusterConfig {
        ClusterConfig {
            seed,
            num_queries: 300,
            mean_interarrival: Duration::from_millis(mean_interarrival_ms),
            period: Duration::from_millis(100),
            mechanism,
            max_retries: 2_000,
            reply_timeout: Duration::from_secs(60),
            faults: FaultPlan::none(),
            crashes: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Per-query measurement.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// Query index in issue order.
    pub query: usize,
    /// Its class.
    pub class: u32,
    /// The node that executed it, if any.
    pub node: Option<usize>,
    /// Time from issue to assignment decision (ms).
    pub assign_ms: f64,
    /// Time from issue to result (ms).
    pub total_ms: f64,
    /// Resubmissions needed (rejections, losses and re-allocations).
    pub retries: u32,
    /// Error text if the query failed or was never assigned.
    pub error: Option<String>,
}

qa_simnet::impl_to_json!(QueryOutcome {
    query,
    class,
    node,
    assign_ms,
    total_ms,
    retries,
    error
});

/// Aggregate experiment result (one Figure-7 bar pair).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Mechanism name.
    pub mechanism: String,
    /// Per-query outcomes.
    pub outcomes: Vec<QueryOutcome>,
    /// Mean assignment time over successful queries (ms).
    pub mean_assign_ms: f64,
    /// Mean total time over successful queries (ms).
    pub mean_total_ms: f64,
    /// Queries that never completed.
    pub failed: usize,
    /// Fraction of issued queries that completed.
    pub completion_rate: f64,
}

qa_simnet::impl_to_json!(ExperimentResult {
    mechanism,
    outcomes,
    mean_assign_ms,
    mean_total_ms,
    failed,
    completion_rate
});

/// Capped exponential backoff between allocation attempts: one period,
/// doubling per retry, never more than eight periods.
fn backoff(period: Duration, attempt: u32) -> Duration {
    let factor = 1u32 << attempt.min(3);
    period.saturating_mul(factor)
}

/// The [`QantConfig`] a fleet node runs under a given mechanism and
/// market period — `None` for Greedy. Shared by the in-process spawner
/// and the `qad` server so a multi-process federation prices exactly like
/// the threaded one.
pub fn qant_config_for(mechanism: ClusterMechanism, period: Duration) -> Option<QantConfig> {
    match mechanism {
        ClusterMechanism::QaNt => Some(QantConfig {
            period: SimDuration::from_millis(period.as_millis() as u64),
            // §5.1 deployment mode: restrict supply only once prices
            // inflate past 2× their initial level (renormalization is
            // incompatible with thresholds — see QantConfig docs).
            price_threshold: Some(2.0),
            renormalize_prices: false,
            ..QantConfig::default()
        }),
        ClusterMechanism::Greedy => None,
    }
}

/// Spawns the in-process fleet for a spec + config: one node thread per
/// fleet member, with the config's faults and telemetry wired in.
pub fn spawn_fleet(spec: &ClusterSpec, config: &ClusterConfig, epoch: Instant) -> ChannelTransport {
    let qant_cfg = qant_config_for(config.mechanism, config.period);
    let nodes: Vec<NodeHandle> = (0..spec.num_nodes)
        .map(|n| {
            spawn_node(
                spec,
                n,
                config.seed,
                qant_cfg,
                config.faults.link(n).clone(),
                epoch,
                config.telemetry.clone(),
            )
        })
        .collect();
    ChannelTransport::new(nodes)
}

/// Runs one experiment: builds the in-process fleet, replays the
/// workload, tears the fleet down, returns measurements.
///
/// # Errors
/// Returns [`ClusterError::NoCandidates`] when the spec has no evaluable
/// query class. Per-query environmental failures (crashes, losses,
/// timeouts) do *not* fail the experiment — they are recorded in the
/// outcomes.
pub fn run_experiment(
    spec: &ClusterSpec,
    config: &ClusterConfig,
) -> Result<ExperimentResult, ClusterError> {
    let transport: Arc<dyn Transport> = Arc::new(spawn_fleet(spec, config, Instant::now()));
    let result = run_workload(spec, config, Arc::clone(&transport));
    transport.shutdown();
    result
}

/// Replays the workload against an already-connected fleet — in-process
/// threads ([`ChannelTransport`]) or real `qad` processes
/// ([`crate::transport::TcpTransport`]) behave identically here. Does
/// **not** tear the transport down: the caller may keep using it (e.g. to
/// dump post-run price vectors) and owns the final
/// [`Transport::shutdown`].
///
/// One loop on the caller's thread: it blocks on the [`Episode`]'s inbox
/// until the next timer is due — an issue time, a period tick, a scheduled
/// crash, or one of the waits the episode names (reply deadline, back-off,
/// the execute ceiling) — and hands each arrival and each expired timer to the
/// episode, which does the rest.
///
/// # Errors
/// Returns [`ClusterError::NoCandidates`] when the spec has no evaluable
/// query class; per-query environmental failures are recorded in the
/// outcomes instead.
pub fn run_workload(
    spec: &ClusterSpec,
    config: &ClusterConfig,
    transport: Arc<dyn Transport>,
) -> Result<ExperimentResult, ClusterError> {
    // Pre-generate the workload: (delay-from-previous, class, sql).
    let mut rng = DetRng::seed_from_u64(config.seed).derive("cluster-workload");
    let usable: Vec<&crate::setup::QueryClassSpec> = spec
        .classes
        .iter()
        .filter(|c| !spec.capable_nodes(c.id).is_empty())
        .collect();
    if usable.is_empty() {
        return Err(ClusterError::NoCandidates);
    }
    let mean_ms = config.mean_interarrival.as_secs_f64() * 1e3;
    let workload: Vec<(Duration, ClassId, String)> = (0..config.num_queries)
        .map(|_| {
            let gap = Duration::from_secs_f64(rng.float_in(0.5 * mean_ms, 1.5 * mean_ms) / 1e3);
            let class = usable[rng.index(usable.len())];
            (gap, class.id, class.sample(&mut rng))
        })
        .collect();

    let epoch = Instant::now();
    let num_nodes = transport.num_nodes();
    let sql = |i: usize, _generation: u32| workload[i].2.clone();
    let dead: Vec<AtomicBool> = (0..num_nodes).map(|_| AtomicBool::new(false)).collect();
    let (inbox_tx, inbox) = channel();
    let mut episode = Episode::new(
        &*transport,
        config.mechanism,
        config.max_retries,
        &sql,
        &dead,
        &config.telemetry,
        inbox_tx,
    );

    // The loop's timers, earliest first. Nothing is ever cancelled: the
    // episode ignores a stale one.
    let mut wakes: BTreeSet<(Duration, Wake)> = BTreeSet::new();
    if let Some((gap, ..)) = workload.first() {
        wakes.insert((*gap, Wake::Issue));
    }
    if config.mechanism == ClusterMechanism::QaNt {
        wakes.insert((config.period, Wake::Tick(1)));
    }
    // Crash offsets are measured from experiment start.
    for &(node, delay) in config.crashes.iter().filter(|(node, _)| *node < num_nodes) {
        wakes.insert((delay, Wake::Crash(node)));
    }

    while episode.finished() < workload.len() {
        // What has arrived goes first, as a reply in hand always beat its
        // deadline; then the earliest timer, once due.
        let due = wakes.first().map_or(Duration::MAX, |&(at, _)| at);
        let arrived = inbox.recv_timeout(due.saturating_sub(epoch.elapsed()));
        let now = epoch.elapsed();
        match arrived {
            Ok(arrival) => episode.deliver(now, arrival),
            Err(_) if due > now => {}
            Err(_) => match wakes.pop_first().map(|(_, wake)| wake) {
                Some(Wake::Issue) => {
                    let (_, class, _) = workload[episode.issued()];
                    episode.issue(now, class, spec.capable_nodes(class));
                    // The next gap runs from when this issue actually
                    // happened (the clock is read again, after the
                    // fan-out), not from its due time — the sleep chain
                    // the issuing thread used to be — so oversleep
                    // accumulates and the offered load stays what every
                    // recorded run measured (about 97 queries/s at a 10 ms
                    // mean gap, not 100). The same holds for the period
                    // ticks below.
                    if let Some((gap, ..)) = workload.get(episode.issued()) {
                        wakes.insert((epoch.elapsed() + *gap, Wake::Issue));
                    }
                }
                Some(Wake::Tick(index)) => {
                    episode.tick(now, index);
                    wakes.insert((epoch.elapsed() + config.period, Wake::Tick(index + 1)));
                }
                Some(Wake::Crash(node)) => episode.crash(now, node),
                Some(Wake::Shell(timer)) => episode.fire(now, timer),
                None => {}
            },
        }
        for timer in episode.take_timers() {
            let delay = match timer.wait {
                Wait::Replies(_) => config.reply_timeout,
                Wait::Backoff(attempt) => backoff(config.period, attempt),
                Wait::Execute(_) => EXEC_TIMEOUT,
            };
            wakes.insert((now + delay, Wake::Shell(timer)));
        }
    }

    let outcomes = episode.into_measurements();
    let ok: Vec<&QueryOutcome> = outcomes.iter().filter(|o| o.error.is_none()).collect();
    let mean = |f: fn(&QueryOutcome) -> f64| {
        if ok.is_empty() {
            f64::NAN
        } else {
            ok.iter().map(|o| f(o)).sum::<f64>() / ok.len() as f64
        }
    };
    let completion_rate = if outcomes.is_empty() {
        1.0
    } else {
        ok.len() as f64 / outcomes.len() as f64
    };
    Ok(ExperimentResult {
        mechanism: config.mechanism.to_string(),
        mean_assign_ms: mean(|o| o.assign_ms),
        mean_total_ms: mean(|o| o.total_ms),
        failed: outcomes.len() - ok.len(),
        completion_rate,
        outcomes,
    })
}

/// What [`run_workload`]'s loop wakes up for (wakes due at the same instant
/// fire in this order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Wake {
    /// Issue the next query of the workload.
    Issue,
    /// Start QA-NT market period number `.0`.
    Tick(u64),
    /// Kill this node (the crash schedule).
    Crash(usize),
    /// A wait the episode named has run out.
    Shell(Timer),
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::telemetry::TelemetryEvent;

    fn spec() -> ClusterSpec {
        ClusterSpec::generate(5, 5, 8, 12, 6, 60)
    }

    #[test]
    fn greedy_experiment_completes_all_queries() {
        let s = spec();
        let cfg = ClusterConfig::ci_scale(ClusterMechanism::Greedy, 11);
        let r = run_experiment(&s, &cfg).expect("healthy spec");
        assert_eq!(r.outcomes.len(), cfg.num_queries);
        assert_eq!(
            r.failed,
            0,
            "{:?}",
            r.outcomes.iter().find(|o| o.error.is_some())
        );
        assert_eq!(r.completion_rate, 1.0);
        assert!(r.mean_assign_ms > 0.0);
        assert!(r.mean_total_ms >= r.mean_assign_ms);
    }

    #[test]
    fn qant_experiment_completes_all_queries() {
        let s = spec();
        let cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 11);
        let r = run_experiment(&s, &cfg).expect("healthy spec");
        assert_eq!(r.outcomes.len(), cfg.num_queries);
        assert_eq!(
            r.failed,
            0,
            "{:?}",
            r.outcomes.iter().find(|o| o.error.is_some())
        );
        assert!(r.mean_total_ms.is_finite());
    }

    #[test]
    fn both_mechanisms_use_only_capable_nodes() {
        let s = spec();
        for mech in [ClusterMechanism::Greedy, ClusterMechanism::QaNt] {
            let mut cfg = ClusterConfig::ci_scale(mech, 13);
            cfg.num_queries = 15;
            let r = run_experiment(&s, &cfg).expect("healthy spec");
            for o in &r.outcomes {
                if let Some(n) = o.node {
                    let capable = s.capable_nodes(ClassId(o.class));
                    assert!(
                        capable.contains(&n),
                        "query {} on incapable node {n}",
                        o.query
                    );
                }
            }
        }
    }

    #[test]
    fn backoff_is_capped() {
        let p = Duration::from_millis(40);
        assert_eq!(backoff(p, 0), p);
        assert_eq!(backoff(p, 1), p * 2);
        assert_eq!(backoff(p, 3), p * 8);
        assert_eq!(backoff(p, 30), p * 8, "cap at eight periods");
    }

    #[test]
    fn crashed_node_is_dropped_and_run_finishes() {
        let s = spec();
        let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::Greedy, 17);
        cfg.num_queries = 25;
        cfg.reply_timeout = Duration::from_secs(5);
        // Kill two nodes early; the rest of the fleet must finish the run.
        // (Inter-arrival gaps are ≥ 2.5 ms, so query 10 is provably issued
        // after both crashes.)
        cfg.crashes = vec![
            (0, Duration::from_millis(10)),
            (1, Duration::from_millis(20)),
        ];
        let r = run_experiment(&s, &cfg).expect("spec has classes");
        assert_eq!(r.outcomes.len(), cfg.num_queries);
        // Queries issued well after the crashes never land on the dead
        // nodes (index 15 is issued ≥ 40 ms in, leaving slack for the
        // injector's 5 ms poll granularity and scheduler jitter).
        for o in r.outcomes.iter().filter(|o| o.query >= 15) {
            if let Some(n) = o.node {
                assert!(n > 1, "query {} assigned to crashed node {n}", o.query);
            }
        }
        // Classes only nodes 0/1 could evaluate are correctly unservable;
        // everything else must finish.
        let stranded: Vec<u32> = s
            .classes
            .iter()
            .filter(|c| {
                let cap = s.capable_nodes(c.id);
                !cap.is_empty() && cap.iter().all(|&m| m <= 1)
            })
            .map(|c| c.id.0)
            .collect();
        let eligible: Vec<_> = r
            .outcomes
            .iter()
            .filter(|o| !stranded.contains(&o.class) && o.query >= 15)
            .collect();
        let ok = eligible.iter().filter(|o| o.error.is_none()).count();
        assert!(
            ok * 10 >= eligible.len() * 9,
            "servable post-crash queries must complete: {ok}/{}",
            eligible.len()
        );
    }

    #[test]
    fn lossy_links_degrade_gracefully() {
        use qa_simnet::LinkFaults;
        let s = spec();
        let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 19);
        cfg.num_queries = 20;
        cfg.reply_timeout = Duration::from_secs(5);
        cfg.faults = FaultPlan::uniform(LinkFaults::lossy(0.2));
        let r = run_experiment(&s, &cfg).expect("spec has classes");
        assert_eq!(r.outcomes.len(), cfg.num_queries);
        assert!(
            r.completion_rate >= 0.95,
            "QA-NT must ride out 20% negotiation loss: {}",
            r.completion_rate
        );
    }

    #[test]
    fn telemetry_captures_cluster_market_and_query_lifecycle() {
        let s = spec();
        let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 29);
        cfg.num_queries = 20;
        cfg.reply_timeout = Duration::from_secs(5);
        cfg.crashes = vec![(0, Duration::from_millis(30))];
        let (telemetry, buffer) = Telemetry::buffered();
        cfg.telemetry = telemetry.clone();
        let r = run_experiment(&s, &cfg).expect("healthy spec");
        assert_eq!(r.outcomes.len(), cfg.num_queries);

        let records = buffer.records();
        let kinds: std::collections::BTreeSet<&str> =
            records.iter().map(|r| r.event.kind()).collect();
        for expected in [
            "supply_computed",
            "query_assigned",
            "query_completed",
            "node_crashed",
            "period_started",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        // Market events carry the emitting node's label; the crash event
        // names the scheduled victim.
        assert!(records.iter().any(
            |rec| matches!(rec.event, TelemetryEvent::SupplyComputed { node, .. } if node > 0)
        ));
        assert!(records
            .iter()
            .any(|rec| matches!(rec.event, TelemetryEvent::NodeCrashed { node: 0 })));
        // Negotiation rounds were timed into the registry.
        let snapshot = telemetry.registry().expect("enabled handle").snapshot();
        let stats = snapshot.get("stats").expect("stats section");
        assert!(
            stats.get("span.cluster.poll_round_us").is_some(),
            "poll_round span missing: {}",
            snapshot.dump()
        );
    }

    #[test]
    fn all_classes_impossible_is_an_error() {
        // A spec whose only class has no capable nodes cannot run.
        let mut s = spec();
        s.classes.truncate(1);
        let id = s.classes[0].id;
        // Remove every copy of the tables the class needs.
        let needed: Vec<usize> = s.classes[0].tables.clone();
        for (i, t) in s.tables.iter_mut().enumerate() {
            if needed.contains(&i) {
                t.copies.clear();
            }
        }
        assert!(s.capable_nodes(id).is_empty());
        let cfg = ClusterConfig::ci_scale(ClusterMechanism::Greedy, 23);
        match run_experiment(&s, &cfg) {
            Err(ClusterError::NoCandidates) => {}
            other => panic!("expected NoCandidates, got {other:?}"),
        }
        // And it is one before anything is armed: no tick goes out and no
        // scheduled crash is carried out on the way to the error.
        let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 23);
        (cfg.period, cfg.crashes) = (Duration::ZERO, vec![(0, Duration::ZERO)]);
        let net = Arc::new(crate::episode::fake::FakeTransport::new(5, &[]));
        let got = run_workload(&s, &cfg, Arc::clone(&net) as Arc<dyn Transport>);
        assert!(matches!(got, Err(ClusterError::NoCandidates)), "{got:?}");
        assert_eq!(net.log(), "");
    }
}
