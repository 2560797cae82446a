//! The `fleet5_tcp` workload: five `qad` processes on loopback, driven
//! open-loop through `ctl::Federation::spawn` + `connect` +
//! `run_workload`. The only workload through `net::wire`, `net::conn`,
//! `cluster::transport` and `cluster::driver`.

use crate::alloc;
use crate::host::{self, ProcStat};
use crate::micro;
use crate::spans::Spans;
use crate::{hist_quantile, median, quantile, Outcome};
use qa_cluster::ctl::{collect_stats, Federation};
use qa_cluster::driver::QueryOutcome;
use qa_cluster::{
    run_workload, spawn_fleet, ClusterMechanism, ExperimentResult, FedConfig, TcpTransport,
    Transport,
};
use qa_simnet::json::Json;
use qa_simnet::stats::LogHistogram;
use qa_simnet::telemetry::{MetricsRegistry, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAME: &str = "fleet5_tcp";

/// Open-loop offered rate: 100 queries/s, a little over half the measured
/// knee (170–200 q/s, set by the slow node's modelled 3 ms link). Queueing
/// still amplifies a service-time change, but a slow phase of the host no
/// longer moves p90 by a third, as it did at 125 q/s. At 250 q/s the
/// fleet collapses and the driver runs out of threads.
const MEAN_INTERARRIVAL_MS: u64 = 10;

/// Set-ups (spawn + connect) per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Segments of consecutive queries the response statistics are taken over.
const SEGMENTS: usize = 5;

/// Most workloads one untraced run measures.
const MAX_ATTEMPTS: usize = 2;

/// A run that outlives this is killed, children first.
const WATCHDOG: Duration = Duration::from_secs(150);

/// The deployment: `FedConfig::example()`'s shape under QA-NT. Only the
/// data/workload seed follows `--seed`; the deployment seed stays, so
/// every seed measures the same five nodes under a different query
/// stream.
pub fn config(seed: u64, queries: usize) -> FedConfig {
    FedConfig {
        mechanism: ClusterMechanism::QaNt,
        seed,
        num_queries: queries,
        mean_interarrival_ms: MEAN_INTERARRIVAL_MS,
        ..FedConfig::example()
    }
}

/// Queries an open loop at the workload's rate issues in `seconds`.
pub fn queries_for(seconds: f64) -> usize {
    ((seconds * 1e3 / MEAN_INTERARRIVAL_MS as f64) as usize).max(50)
}

/// Owns the spawned children. Whatever happens — a panic, an error
/// return, the watchdog — `Drop` asks them to shut down, waits, and
/// `Federation::wait` kills and reaps whichever is still alive after
/// its deadline, so no `qad` outlives the run to poison the next one.
struct FleetGuard {
    federation: Arc<Mutex<Option<Federation>>>,
    transport: Option<Arc<TcpTransport>>,
    /// Dropping this stops the watchdog.
    _alive: Sender<()>,
}

impl FleetGuard {
    fn new(federation: Federation) -> FleetGuard {
        let federation = Arc::new(Mutex::new(Some(federation)));
        let (alive, gone) = channel::<()>();
        let watched = Arc::clone(&federation);
        // Detached on purpose: it must outlive a wedged main thread, and
        // it ends by itself when `_alive` drops.
        std::thread::spawn(move || {
            if gone.recv_timeout(WATCHDOG) == Err(RecvTimeoutError::Timeout) {
                eprintln!("fleet watchdog: run exceeded {WATCHDOG:?}; killing the fleet");
                reap(&watched);
                std::process::exit(3);
            }
        });
        FleetGuard {
            federation,
            transport: None,
            _alive: alive,
        }
    }

    /// Orderly teardown; `true` when every child exited cleanly by itself.
    fn finish(mut self) -> bool {
        self.teardown()
    }

    fn teardown(&mut self) -> bool {
        if let Some(t) = self.transport.take() {
            t.shutdown();
        }
        reap(&self.federation)
    }
}

impl Drop for FleetGuard {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Waits for (then kills) every child; `false` if one did not exit
/// cleanly or the fleet was already reaped.
fn reap(federation: &Mutex<Option<Federation>>) -> bool {
    // A poisoned lock still holds the children; reaping must go on.
    let taken = federation
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .take();
    taken.is_some_and(Federation::wait)
}

/// One fleet's life: spawn, connect, the workload, teardown.
struct FleetRun {
    spawn_s: f64,
    connect_s: f64,
    teardown_s: f64,
    wall_s: f64,
    /// User + system CPU of the driver and every child over the workload.
    cpu_s: f64,
    /// Share of the host's CPU time stolen during the workload.
    steal_share: f64,
    driver: ProcStat,
    /// Driver `VmHWM` plus every child's, read before shutdown.
    rss_mb: f64,
    result: ExperimentResult,
    /// Every node's registry snapshot, merged (`None` if a node was mute).
    fleet_stats: Option<Json>,
    clean: bool,
}

fn children_cpu_s(pids: &[u32]) -> f64 {
    pids.iter()
        .map(|&p| ProcStat::of(Some(p)).own_cpu_s())
        .sum()
}

fn run_fleet(
    fed: &FedConfig,
    config_path: &str,
    qad: &Path,
    telemetry: &Telemetry,
    spans: &mut Spans,
) -> Result<FleetRun, String> {
    let (federation, spawn_s) = spans.scope("ctl.spawn", |_| {
        Federation::spawn(fed, qad, config_path, None)
    });
    let mut guard = FleetGuard::new(federation?);
    let (transport, connect_s) = spans.scope("ctl.connect", |_| {
        let fleet = guard.federation.lock().expect("nothing panics holding it");
        fleet.as_ref().expect("just spawned").connect(telemetry)
    });
    let transport = Arc::new(transport.map_err(|e| format!("connect: {e}"))?);
    guard.transport = Some(Arc::clone(&transport));

    let spec = fed.spec();
    let cluster_cfg = fed.cluster_config(telemetry.clone());
    let children = host::child_pids();
    let (cpu0, children0) = (ProcStat::of(None), children_cpu_s(&children));
    let steal0 = host::host_ticks();
    let dynamic: Arc<dyn Transport> = transport.clone();
    let (result, wall_s) = spans.scope("driver.run_workload", |_| {
        run_workload(&spec, &cluster_cfg, dynamic)
    });
    let steal_share = host::steal_share_since(steal0);
    let driver = ProcStat::of(None).since(&cpu0);
    let cpu_s = driver.own_cpu_s() + children_cpu_s(&children) - children0;
    let result = result.map_err(|e| format!("workload: {e}"))?;

    let rss_mb = host::peak_rss_mb(None)
        + children
            .iter()
            .map(|&p| host::peak_rss_mb(Some(p)))
            .sum::<f64>();
    let (stats, _) = spans.scope("ctl.collect_stats", |_| {
        collect_stats(&transport, Duration::from_secs(10))
    });
    let merged = MetricsRegistry::new();
    let all_answered = stats.iter().all(|s| {
        s.as_ref()
            .and_then(|s| Json::parse(&s.json).ok())
            .map(|snap| merged.merge_snapshot(&snap))
            .is_some()
    });
    drop(transport);
    let (clean, teardown_s) = spans.scope("ctl.shutdown_reap", |_| guard.finish());
    Ok(FleetRun {
        spawn_s,
        connect_s,
        teardown_s,
        wall_s,
        cpu_s,
        steal_share,
        driver,
        rss_mb,
        result,
        fleet_stats: all_answered.then(|| merged.snapshot()),
        clean,
    })
}

/// Where the children's shared config goes, and the `qad` next to us.
fn prepare(fed: &FedConfig) -> Result<(String, PathBuf), String> {
    let dir = crate::out_dir()?;
    let config_path = dir.join(format!("fleet_{}.json", std::process::id()));
    std::fs::write(&config_path, fed.dump()).map_err(|e| format!("write config: {e}"))?;
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let qad = me.with_file_name("qad");
    if !qad.exists() {
        return Err(format!("no qad binary at {}", qad.display()));
    }
    Ok((config_path.to_string_lossy().into_owned(), qad))
}

fn ok_outcomes(result: &ExperimentResult) -> Vec<&QueryOutcome> {
    result
        .outcomes
        .iter()
        .filter(|o| o.error.is_none())
        .collect()
}

fn column(outcomes: &[&QueryOutcome], f: fn(&QueryOutcome) -> f64) -> Vec<f64> {
    let mut v: Vec<f64> = outcomes.iter().map(|o| f(o)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Checks shared by both runs: clean exits, nothing failed.
fn check(out: &mut Outcome, run: &FleetRun) {
    out.attempted = run.result.outcomes.len() as u64;
    out.failed = run.result.failed as u64;
    if !run.clean {
        out.fail("a qad child did not exit cleanly".to_string());
    }
    if run.result.failed > 0 {
        out.fail(format!(
            "{} of {} queries failed",
            run.result.failed,
            run.result.outcomes.len()
        ));
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, quick: bool) -> Result<(Outcome, Spans), String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let fed = config(seed, queries_for(seconds));
    let (config_path, qad) = prepare(&fed)?;
    let telemetry = Telemetry::disabled();

    // Extra set-ups: idle fleets brought up and torn straight down.
    let idle = FedConfig {
        num_queries: 0,
        ..fed.clone()
    };
    let mut setups = Vec::new();
    for _ in 1..if quick { 2 } else { SETUPS } {
        let fleet = run_fleet(&idle, &config_path, &qad, &telemetry, &mut spans)?;
        if !fleet.clean {
            out.fail("a qad child of a set-up fleet did not exit cleanly".to_string());
        }
        setups.push(fleet.spawn_s + fleet.connect_s);
    }
    // The hypervisor's steal counter marks the runs that read a third
    // slower than the rest: when it took more than `STEAL_LIMIT` of the
    // host's CPU during the workload, measure again on a fresh fleet and
    // keep the attempt it disturbed least. The choice never looks at the
    // measured latencies.
    let mut fleet = run_fleet(&fed, &config_path, &qad, &telemetry, &mut spans)?;
    setups.push(fleet.spawn_s + fleet.connect_s);
    let mut attempts = 1;
    while fleet.steal_share > host::STEAL_LIMIT && attempts < MAX_ATTEMPTS && !quick {
        let again = run_fleet(&fed, &config_path, &qad, &telemetry, &mut spans)?;
        setups.push(again.spawn_s + again.connect_s);
        attempts += 1;
        if again.steal_share < fleet.steal_share {
            fleet = again;
        }
    }
    let _ = std::fs::remove_file(&config_path);
    check(&mut out, &fleet);

    let ok = ok_outcomes(&fleet.result);
    out.set("setup_s", median(&setups));
    out.set("queries_per_s", ok.len() as f64 / fleet.wall_s);
    out.set("peak_rss_mb", fleet.rss_mb);
    // Each statistic is taken per segment of consecutive queries and the
    // median segment reported: a stall of the host lands in one segment
    // and would otherwise own the whole run's tail.
    let segments: Vec<Vec<f64>> = ok
        .chunks(ok.len().div_ceil(SEGMENTS).max(1))
        .map(|segment| column(segment, |o| o.total_ms))
        .collect();
    let over_segments =
        |f: &dyn Fn(&[f64]) -> f64| median(&segments.iter().map(|s| f(s)).collect::<Vec<f64>>());
    out.set(
        "response_ms",
        over_segments(&|s| s.iter().sum::<f64>() / s.len() as f64),
    );
    out.set("response_ms_p50", over_segments(&|s| quantile(s, 0.5)));
    out.set("response_ms_p90", over_segments(&|s| quantile(s, 0.9)));
    out.note(format!(
        "{} queries in {:.2}s, assign p50 {:.3} ms; attempt kept of {attempts}: steal share {:.4}",
        out.attempted,
        fleet.wall_s,
        quantile(&column(&ok, |o| o.assign_ms), 0.5),
        fleet.steal_share
    ));
    Ok((out, spans))
}

fn hist_p50(snapshot: &Json, name: &str) -> f64 {
    snapshot
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(LogHistogram::from_json)
        .map_or(0.0, |h| hist_quantile(&h, 0.5))
}

fn counter(snapshot: &Json, name: &str) -> f64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The traced run: an untraced base fleet at half length, the traced
/// fleet (driver registry on, allocator counting, stats scraped), and
/// the same workload over in-process channels.
pub fn run_traced(seed: u64, seconds: f64, threads: usize) -> Result<(Outcome, Spans), String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let fed = config(seed, queries_for(seconds));
    let half = FedConfig {
        num_queries: fed.num_queries / 2,
        ..fed.clone()
    };
    let (config_path, qad) = prepare(&fed)?;

    let (base, _) = spans.scope("base_fleet", |s| {
        run_fleet(&half, &config_path, &qad, &Telemetry::disabled(), s)
    });
    let base = base?;
    let telemetry = Telemetry::metrics_only();
    let ((fleet, _), calls, bytes) = alloc::counted(|| {
        spans.scope("traced_fleet", |s| {
            run_fleet(&fed, &config_path, &qad, &telemetry, s)
        })
    });
    let fleet = fleet?;
    out.set("host.steal_share", fleet.steal_share);
    let _ = std::fs::remove_file(&config_path);
    check(&mut out, &fleet);
    if !base.clean || base.result.failed > 0 {
        out.fail("the untraced base fleet failed queries or exited uncleanly".to_string());
    }

    let issued = fleet.result.outcomes.len() as f64;
    let ok = ok_outcomes(&fleet.result);
    let (assign, total) = (column(&ok, |o| o.assign_ms), column(&ok, |o| o.total_ms));
    out.set("ctl.spawn_s", fleet.spawn_s);
    out.set("ctl.connect_s", fleet.connect_s);
    out.set("ctl.shutdown_reap_s", fleet.teardown_s);
    out.set("driver.assign_ms_p50", quantile(&assign, 0.5));
    out.set("driver.assign_ms_p90", quantile(&assign, 0.9));
    out.set("driver.assign_ms_p99", quantile(&assign, 0.99));
    out.set("driver.total_ms_p99", quantile(&total, 0.99));
    out.set(
        "driver.retries_per_query",
        ok.iter().map(|o| f64::from(o.retries)).sum::<f64>() / issued,
    );
    // How late the open-loop generator ran: the workload's wall against
    // the schedule's expected length (gaps are U(0.5, 1.5) × the mean).
    let schedule_s = issued * MEAN_INTERARRIVAL_MS as f64 / 1e3;
    out.set(
        "driver.issue_overrun_share",
        fleet.wall_s / schedule_s - 1.0,
    );
    let registry = telemetry.registry().expect("metrics_only has a registry");
    let driver_stats = registry.snapshot();
    out.set(
        "driver.rpc_ms_p50",
        hist_p50(&driver_stats, "driver.rpc_ms"),
    );
    let poll = registry.welford("span.cluster.poll_round_us").snapshot();
    out.set("driver.poll_round_us", poll.mean().unwrap_or(0.0));
    match &fleet.fleet_stats {
        None => out.fail("a node did not answer the stats scrape".to_string()),
        Some(stats) => {
            out.set("qad.exec_ms_p50", hist_p50(stats, "qad.exec_ms"));
            out.set("qad.period_ms_p50", hist_p50(stats, "qad.period_ms"));
            // The nodes' side of every connection; each frame is counted
            // once where it is sent.
            let frames =
                counter(stats, "net.frames_sent") + counter(&driver_stats, "net.frames_sent");
            let wire_bytes =
                counter(stats, "net.bytes_sent") + counter(&driver_stats, "net.bytes_sent");
            out.set("net.frames_per_query", frames / issued);
            out.set("net.bytes_per_query", wire_bytes / issued);
        }
    }
    // The driver and all five children, over the workload.
    out.set("proc.cpu_us_per_query", fleet.cpu_s * 1e6 / issued);
    out.set("proc.user_s", fleet.driver.user_s);
    out.set("proc.sys_s", fleet.driver.sys_s);
    out.set("proc.minor_faults", fleet.driver.minor_faults as f64);
    // The driver process only: `qad` children have their own heaps.
    out.set("alloc.calls_per_query", calls as f64 / issued);
    out.set("alloc.bytes_per_query", bytes as f64 / issued);
    // Wall is fixed by the open loop, so overhead is read off CPU.
    let base_cpu = base.cpu_s / base.result.outcomes.len() as f64;
    out.set(
        "trace.overhead_share",
        (fleet.cpu_s / issued) / base_cpu - 1.0,
    );

    // Same spec, same workload, no sockets: TCP minus this is the wire's
    // share of the assignment latency.
    let cluster_cfg = half.cluster_config(Telemetry::disabled());
    let spec = half.spec();
    let (channel_result, _) = spans.scope("channel_fleet", |_| {
        let transport: Arc<dyn Transport> =
            Arc::new(spawn_fleet(&spec, &cluster_cfg, Instant::now()));
        let result = run_workload(&spec, &cluster_cfg, Arc::clone(&transport));
        transport.shutdown();
        result
    });
    let channel_result = channel_result.map_err(|e| format!("channel workload: {e}"))?;
    out.set(
        "transport.channel.assign_ms_p50",
        quantile(&column(&ok_outcomes(&channel_result), |o| o.assign_ms), 0.5),
    );

    micro::run_all(&mut out, threads, &fed);
    Ok((out, spans))
}
