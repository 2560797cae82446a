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
//! [`ClusterConfig::max_retries`]. Those rules are [`crate::protocol`]'s;
//! this module gives them threads, clocks and a [`Transport`]. All
//! environmental failures surface as [`ClusterError`] values in the
//! per-query outcomes — the request, offer and execute paths never panic.

use crate::error::ClusterError;
use crate::node::{spawn_node, ExecReply, NodeHandle, NodeMsg};
use crate::protocol::{Action, Bid, Event, Outcome, QueryProtocol};
use crate::setup::ClusterSpec;
use crate::transport::{fan_out, ChannelTransport, Transport};
use qa_core::QantConfig;
use qa_simnet::telemetry::{HistogramHandle, Telemetry, TelemetryEvent};
use qa_simnet::{DetRng, FaultPlan, SimDuration};
use qa_workload::ClassId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
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
    /// Rows per base table (scale).
    pub rows_per_table: usize,
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
            rows_per_table: 80,
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
            rows_per_table: 50_000,
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
#[derive(Debug, Clone)]
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

/// Driver-side latency histograms, resolved once per run from the
/// telemetry registry (`None` without one). These go to the *registry
/// only* — never the event stream — so enabling them cannot perturb
/// trace byte-determinism.
struct DriverMetrics {
    /// Issue-to-assignment latency per query (ms).
    assign_ms: HistogramHandle,
    /// Issue-to-result latency per query (ms).
    total_ms: HistogramHandle,
    /// One negotiation round trip: fan-out to last collected reply (ms).
    rpc_ms: HistogramHandle,
}

impl DriverMetrics {
    fn resolve(telemetry: &Telemetry) -> Option<DriverMetrics> {
        let r = telemetry.registry()?;
        Some(DriverMetrics {
            assign_ms: r.histogram("driver.assign_ms"),
            total_ms: r.histogram("driver.total_ms"),
            rpc_ms: r.histogram("driver.rpc_ms"),
        })
    }
}

/// State shared by every per-query protocol thread.
struct Shared {
    transport: Arc<dyn Transport>,
    config: ClusterConfig,
    /// Nodes known to be gone; set by whichever query observes it (see
    /// [`QueryProtocol::step`]) and by the crash injector.
    dead: Vec<AtomicBool>,
    /// Registry-backed latency histograms (`None` without a registry).
    metrics: Option<DriverMetrics>,
    /// Wall-clock origin for trace timestamps.
    epoch: Instant,
}

impl Shared {
    /// Stamps the telemetry clock with wall-clock-µs-since-start and
    /// returns the handle, so call sites read
    /// `shared.telemetry().emit(..)`. One atomic store when enabled, one
    /// `Option` branch when not.
    fn telemetry(&self) -> &Telemetry {
        let telemetry = &self.config.telemetry;
        if telemetry.is_enabled() {
            telemetry.set_now_us(self.epoch.elapsed().as_micros() as u64);
        }
        telemetry
    }
}

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
/// # Errors
/// Returns [`ClusterError::NoCandidates`] when the spec has no evaluable
/// query class; per-query environmental failures are recorded in the
/// outcomes instead.
pub fn run_workload(
    spec: &ClusterSpec,
    config: &ClusterConfig,
    transport: Arc<dyn Transport>,
) -> Result<ExperimentResult, ClusterError> {
    let epoch = Instant::now();
    let num_nodes = transport.num_nodes();
    let shared = Arc::new(Shared {
        transport: Arc::clone(&transport),
        config: config.clone(),
        dead: (0..num_nodes).map(|_| AtomicBool::new(false)).collect(),
        metrics: DriverMetrics::resolve(&config.telemetry),
        epoch,
    });

    let stop = Arc::new(AtomicBool::new(false));

    // QA-NT period ticker.
    let ticker = {
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        let period = config.period;
        let ticking = matches!(config.mechanism, ClusterMechanism::QaNt);
        std::thread::spawn(move || {
            let mut index = 0u64;
            while ticking && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                index += 1;
                shared
                    .telemetry()
                    .emit(|| TelemetryEvent::PeriodStarted { index });
                for n in 0..shared.transport.num_nodes() {
                    let _ = shared.transport.send(n, NodeMsg::PeriodTick);
                }
            }
        })
    };

    // Crash injector: kills scheduled nodes through the transport —
    // shutting the mailbox in-process, terminating the remote process
    // over TCP — exactly like a process death: in-flight replies are lost
    // and every later send fails. Polls the stop flag so a schedule
    // reaching past the run's end cannot block teardown.
    let crash_injector = {
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        let mut crashes = config.crashes.clone();
        crashes.sort_by_key(|&(_, delay)| delay);
        std::thread::spawn(move || {
            for (node, delay) in crashes {
                while epoch.elapsed() < delay {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                if node < shared.transport.num_nodes() {
                    shared.dead[node].store(true, Ordering::Relaxed);
                    shared
                        .telemetry()
                        .emit(|| TelemetryEvent::NodeCrashed { node: node as u32 });
                    shared.transport.shutdown_node(node);
                }
            }
        })
    };

    // Pre-generate the workload: (delay-from-previous, class, sql).
    let mut rng = DetRng::seed_from_u64(config.seed).derive("cluster-workload");
    let usable: Vec<&crate::setup::QueryClassSpec> = spec
        .classes
        .iter()
        .filter(|c| !spec.capable_nodes(c.id).is_empty())
        .collect();
    if usable.is_empty() {
        stop.store(true, Ordering::Relaxed);
        let _ = ticker.join();
        let _ = crash_injector.join();
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

    // Issue queries on schedule; each runs its protocol on its own thread,
    // detached so that a finished query's stack is given back while the run
    // goes on. The outcome channel closing is the join: a thread lets go of
    // the transport before it reports, so none outlives this call holding it.
    let (done_tx, done_rx) = channel::<QueryOutcome>();
    for (i, (gap, class, sql)) in workload.into_iter().enumerate() {
        std::thread::sleep(gap);
        let capable = spec.capable_nodes(class);
        let done = done_tx.clone();
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let outcome = run_one(i, class, sql, capable, &shared);
            drop(shared);
            let _ = done.send(outcome);
        });
    }
    drop(done_tx);

    let mut outcomes: Vec<QueryOutcome> = done_rx.iter().collect();
    outcomes.sort_by_key(|o| o.query);

    stop.store(true, Ordering::Relaxed);
    let _ = ticker.join();
    let _ = crash_injector.join();

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

/// Carries out one [`Action::Poll`]: fans `send` out over `nodes` (a send
/// that fails is reported to `proto` on the spot, as `context`), gathers
/// the replies under the reply deadline, and returns the closing event.
fn poll_round<R: Into<Bid>>(
    shared: &Shared,
    proto: &mut QueryProtocol,
    nodes: &[usize],
    context: &str,
    send: impl Fn(usize, Sender<R>) -> Result<(), ClusterError>,
) -> Event {
    let _span = shared.config.telemetry.span("cluster.poll_round");
    let started = Instant::now();
    let (sent, rx) = fan_out(nodes, send, |node| {
        proto.poll_send_failed(node, context, &shared.dead, shared.telemetry())
    });
    // Stops once every successful send has answered, at the deadline, or
    // when every outstanding reply sender is gone (replies fault-dropped,
    // node died); missing replies are simply absent (loss tolerance).
    let deadline = started + shared.config.reply_timeout;
    let remaining = || deadline.saturating_duration_since(Instant::now());
    let bids = std::iter::from_fn(|| rx.recv_timeout(remaining()).ok())
        .take(sent)
        .map(Into::into)
        .collect();
    if let Some(m) = &shared.metrics {
        m.rpc_ms.observe(started.elapsed().as_secs_f64() * 1e3);
    }
    Event::RoundClosed { bids }
}

/// Runs one query: the blocking shell around its [`QueryProtocol`], which
/// makes every decision. Environmental failures end up in the outcome;
/// this function never panics.
fn run_one(
    idx: usize,
    class: ClassId,
    sql: String,
    capable: Vec<usize>,
    shared: &Shared,
) -> QueryOutcome {
    let issued = Instant::now();
    let elapsed_ms = || issued.elapsed().as_secs_f64() * 1e3;
    let (transport, config) = (&shared.transport, &shared.config);
    let mut proto = QueryProtocol::new(idx as u64, class, config.max_retries, capable);
    let mut outcome = QueryOutcome {
        query: idx,
        class: class.0,
        node: None,
        assign_ms: 0.0,
        total_ms: 0.0,
        retries: 0,
        error: None,
    };
    let mut event = Event::Ready;
    loop {
        event = match proto.step(event, &shared.dead, shared.telemetry()) {
            Action::Poll(nodes) => match config.mechanism {
                ClusterMechanism::Greedy => {
                    let send = |n, reply| {
                        let sql = sql.clone();
                        transport.send(n, NodeMsg::Estimate { sql, reply })
                    };
                    poll_round(shared, &mut proto, &nodes, "estimate_send", send)
                }
                ClusterMechanism::QaNt => {
                    let send = |n, reply| {
                        let sql = sql.clone();
                        transport.send(n, NodeMsg::CallForOffers { class, sql, reply })
                    };
                    poll_round(shared, &mut proto, &nodes, "offer_send", send)
                }
            },
            Action::Backoff { attempt } => {
                std::thread::sleep(backoff(config.period, attempt));
                Event::Ready
            }
            Action::Execute { node, .. } => {
                outcome.assign_ms = elapsed_ms();
                if let Some(m) = &shared.metrics {
                    m.assign_ms.observe(outcome.assign_ms);
                }
                let (reply, rx) = channel::<ExecReply>();
                let sql = sql.clone();
                let execute = NodeMsg::Execute { sql, class, reply };
                if transport.send(node, execute).is_err() {
                    Event::ExecuteSendFailed
                } else {
                    match rx.recv_timeout(EXEC_TIMEOUT) {
                        Ok(reply) => {
                            outcome.total_ms = elapsed_ms();
                            if let Some(m) = &shared.metrics {
                                m.total_ms.observe(outcome.total_ms);
                            }
                            outcome.error = reply.error;
                            let response_ms = outcome.total_ms;
                            Event::Executed { response_ms }
                        }
                        Err(RecvTimeoutError::Disconnected) => Event::ExecuteLost,
                        Err(RecvTimeoutError::Timeout) => Event::ExecuteTimedOut,
                    }
                }
            }
            Action::Done(Outcome::Completed { node, .. }) => {
                outcome.node = Some(node);
                break;
            }
            Action::Done(Outcome::Unserved(error)) => {
                outcome.assign_ms = elapsed_ms();
                outcome.total_ms = outcome.assign_ms;
                outcome.error = Some(error.to_string());
                break;
            }
        };
    }
    outcome.retries = proto.retries();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
