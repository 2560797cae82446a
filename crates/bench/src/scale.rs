//! `fig_scale`: the sharded engine against the flat one, and the parent
//! markets against each other, from 100 to 10 000 nodes.
//!
//! Every size runs one trace through the flat engine (`S = 1`) and through
//! the sharded engine under each parent mechanism (QA-NT, WALRAS); the
//! 10 000-node trace holds ≥ 10 M queries. Reported per row: wall-clock
//! throughput (of the fastest run, where a row repeats until its runs
//! have taken 0.1 s), mean response, the market's convergence period,
//! cross-tier messages, escalated demand and inter-shard allocation
//! efficiency.
//!
//! Peak resident set per row: the peak count (`VmHWM`) is reset before
//! each cell and after each row, so a row's `peak_rss_mb` is its run with
//! the cell's world and trace resident, and a cell's first row also covers
//! building them. The sweep's peak is the largest row.
//!
//! Files:
//! * `fig_scale.json` — the full points, timings and peak resident sets
//!   included;
//! * `fig_scale_determinism.json` — the timing-free projection,
//!   byte-identical at any `QA_THREADS` and machine speed (at CI scale it
//!   is `goldens/fig_scale_quick_determinism.json`);
//! * `fig_scale_trace.jsonl`, the row of its own name — the broker
//!   telemetry of one sharded run.

use crate::{fmt_ms, Report, Scale};
use qa_economics::parent::ParentMechanism;
use qa_sim::config::BrokerConfig;
use qa_sim::experiments::{scale_trace, scale_world};
use qa_sim::scenario::Scenario;
use qa_sim::sharded::{ShardPlan, ShardRunOptions};
use qa_simnet::json::{Json, ToJson};
use qa_simnet::telemetry::Telemetry;
use qa_workload::Trace;
use std::time::Instant;

/// One row of the scaling sweep: the QA-NT federation at `nodes` nodes on
/// the sharded engine at `shards` shards, whose brokers clear on the
/// parent market `mode`. `S = 1` is the flat engine exactly: one broker
/// has nowhere else to route. The timing fields are stamped by
/// `fig_scale` — the simulation itself never reads a wall clock, so the
/// timing-free projection of a point is deterministic.
#[derive(Debug, Clone)]
struct ScalePoint {
    /// Federation size.
    nodes: u64,
    /// Shard count the engine used.
    shards: u64,
    /// The parent mechanism: `broker_qant` or `broker_walras`.
    mode: String,
    /// Arrivals in the trace.
    queries: u64,
    /// Period boundaries stepped.
    periods: u64,
    /// Completed queries.
    completed: u64,
    /// Unserved queries.
    unserved: u64,
    /// QA-NT resubmissions — each is a placement some node rejected.
    retries: u64,
    /// Mean response (ms).
    mean_response_ms: f64,
    /// First period whose mean |Δ ln p| fell below
    /// [`SCALE_CONVERGENCE_EPS`]; −1 when the run never settled.
    convergence_period: i64,
    /// Cross-tier signal messages (2 per shard per boundary: bids up,
    /// quotas and prices down).
    cross_messages: u64,
    /// Demand units the parent market escalated across windows.
    escalated_units: u64,
    /// Price-adjustment rounds the parent market spent (parent-local,
    /// not messages).
    parent_rounds: u64,
    /// Inter-shard allocation efficiency: completed placements per
    /// placement attempt, `completed / (completed + retries)`.
    alloc_efficiency: f64,
    /// Wall-clock seconds (0 in the determinism artifact).
    elapsed_s: f64,
    /// Simulated periods per wall-clock second.
    periods_per_s: f64,
    /// Queries per wall-clock second.
    queries_per_s: f64,
}

qa_simnet::impl_to_json!(ScalePoint {
    nodes,
    shards,
    mode,
    queries,
    periods,
    completed,
    unserved,
    retries,
    mean_response_ms,
    convergence_period,
    cross_messages,
    escalated_units,
    parent_rounds,
    alloc_efficiency,
    elapsed_s,
    periods_per_s,
    queries_per_s
});

/// A row runs again until its runs' wall time adds up to this many
/// seconds, and reports its fastest: a CI-scale row takes well under a
/// millisecond, so one run's throughput reads the host's noise. A
/// full-scale row takes longer and runs once.
const MIN_ROW_WALL_S: f64 = 0.1;

/// Price-settling threshold for the sweep's convergence-period column.
const SCALE_CONVERGENCE_EPS: f64 = 1e-2;

/// A scaling cell's trace length.
#[derive(Debug, Clone, Copy)]
enum ScaleHorizon {
    /// Simulated seconds.
    Secs(u64),
    /// Long enough for at least this many arrivals.
    Queries(u64),
}

/// One size of the scaling sweep: a world and its trace, run as three
/// like-for-like rows — the flat engine (S = 1) and `shards` shards under
/// each parent mechanism.
#[derive(Debug, Clone, Copy)]
struct ScaleCell {
    /// Federation size.
    nodes: usize,
    /// Shard count of the sharded rows.
    shards: usize,
    /// Trace length.
    horizon: ScaleHorizon,
}

impl ScaleCell {
    /// The cell's world and trace (seed 2007).
    fn inputs(&self) -> (Scenario, Trace) {
        let scenario = scale_world(self.nodes, 2007);
        let secs = match self.horizon {
            ScaleHorizon::Secs(s) => s,
            ScaleHorizon::Queries(q) => horizon_for_queries(&scenario, q),
        };
        let trace = scale_trace(&scenario, secs);
        (scenario, trace)
    }
}

/// The cells of `fig_scale` at `scale`. Above 3 000 nodes the horizon is
/// sized to ≥ 10 M queries, where the parents part ways.
fn scale_cells(scale: Scale) -> Vec<ScaleCell> {
    let cell = |nodes, shards, horizon| ScaleCell {
        nodes,
        shards,
        horizon,
    };
    use ScaleHorizon::{Queries, Secs};
    match scale {
        Scale::Ci => vec![cell(60, 4, Secs(10)), cell(200, 8, Secs(10))],
        Scale::Full => vec![
            cell(100, 8, Secs(60)),
            cell(300, 8, Secs(60)),
            cell(1_000, 16, Secs(120)),
            cell(3_000, 16, Secs(60)),
            cell(10_000, 32, Queries(10_000_000)),
        ],
    }
}

/// Seconds of sinusoid needed for at least `target` arrivals at this
/// world's offered load, derived from a probe trace spanning exactly two
/// full cycles of the 0.05 Hz waveform — whole cycles, or the probe would
/// catch only the crest and bias the rate estimate. The probe rate is
/// unbiased but discrete, so a 2 % pad makes `target` a floor rather
/// than a coin flip.
fn horizon_for_queries(scenario: &Scenario, target: u64) -> u64 {
    const PROBE_SECS: u64 = 40;
    let probe = scale_trace(scenario, PROBE_SECS);
    let qps = probe.len() as f64 / PROBE_SECS as f64;
    ((target as f64 * 1.02 / qps.max(1.0)).ceil() as u64).max(PROBE_SECS)
}

/// A parent mechanism's table/JSON label.
fn parent_label(parent: &BrokerConfig) -> &'static str {
    match parent.mechanism {
        ParentMechanism::QaNt => "broker_qant",
        ParentMechanism::Walras => "broker_walras",
    }
}

/// Runs one scaling row on `budget` shard workers and folds it into a
/// [`ScalePoint`] (timing fields zeroed). `telemetry` receives the broker
/// tier's events.
fn scale_point(
    scenario: &Scenario,
    trace: &Trace,
    shards: usize,
    parent: BrokerConfig,
    budget: usize,
    telemetry: Telemetry,
) -> ScalePoint {
    let options = ShardRunOptions {
        budget,
        broker: Some(parent),
        telemetry,
        ..ShardRunOptions::default()
    };
    let out = ShardPlan::build(scenario, shards).run_with_options(trace, &options);
    let m = &out.outcome.metrics;
    let attempts = m.completed + m.retries;
    ScalePoint {
        nodes: scenario.config.num_nodes as u64,
        shards: out.num_shards as u64,
        mode: parent_label(&parent).to_string(),
        queries: trace.len() as u64,
        periods: out.periods() as u64,
        completed: m.completed,
        unserved: m.unserved,
        retries: m.retries,
        mean_response_ms: m.mean_response_ms().unwrap_or(f64::NAN),
        convergence_period: out
            .convergence_period(SCALE_CONVERGENCE_EPS)
            .map_or(-1, |p| p as i64),
        cross_messages: out.cross_messages,
        escalated_units: out.escalated_units,
        parent_rounds: out.parent_rounds,
        alloc_efficiency: if attempts > 0 {
            m.completed as f64 / attempts as f64
        } else {
            0.0
        },
        elapsed_s: 0.0,
        periods_per_s: 0.0,
        queries_per_s: 0.0,
    }
}

/// Restarts the peak resident-set count: writing `5` to
/// `/proc/self/clear_refs` resets `VmHWM` to the current resident set.
/// Where that is unavailable the peak runs on from the last reset.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MB: the peak resident set since the last reset (0 without
/// `/proc`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| {
        let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
        kb.trim().parse::<f64>().ok()
    });
    kb.map_or(0.0, |kb| kb / 1024.0)
}

pub(crate) fn fig_scale(scale: Scale, budget: usize) -> Report {
    let mut points: Vec<ScalePoint> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    for cell in scale_cells(scale) {
        reset_peak_rss();
        let (scenario, trace) = cell.inputs();
        let (qant, walras) = (BrokerConfig::qant(), BrokerConfig::walras());
        for (shards, parent) in [(1, qant), (cell.shards, qant), (cell.shards, walras)] {
            let run = || {
                let start = Instant::now();
                let disabled = Telemetry::disabled();
                let p = scale_point(&scenario, &trace, shards, parent, budget, disabled);
                (p, start.elapsed().as_secs_f64())
            };
            // Timings are of the fastest run; a repeat must simulate
            // exactly what the first run did.
            let (mut p, mut elapsed) = run();
            let (mut total, mut runs) = (elapsed, 1);
            while total < MIN_ROW_WALL_S {
                let (again, t) = run();
                assert_eq!(
                    again.to_json().dump(),
                    p.to_json().dump(),
                    "run {runs} of a fig_scale row simulated something else"
                );
                (elapsed, total, runs) = (elapsed.min(t), total + t, runs + 1);
            }
            p.elapsed_s = elapsed;
            p.periods_per_s = p.periods as f64 / elapsed.max(1e-9);
            p.queries_per_s = p.queries as f64 / elapsed.max(1e-9);
            let peak = peak_rss_mb();
            reset_peak_rss();
            eprintln!(
                "  {} nodes x S={} [{}]: {} queries in {:.2}s (fastest of {runs}), peak RSS {peak:.1} MB",
                p.nodes, p.shards, p.mode, p.queries, elapsed
            );
            points.push(p);
            peaks.push(peak);
        }
    }

    let mut r =
        Report::titled("fig_scale — flat engine vs sharded engine under each parent market");
    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(&peaks)
        .map(|(p, peak)| {
            vec![
                p.nodes.to_string(),
                p.shards.to_string(),
                p.mode.clone(),
                p.queries.to_string(),
                format!("{:.2}", p.elapsed_s),
                format!("{:.0}", p.queries_per_s),
                fmt_ms(p.mean_response_ms),
                if p.convergence_period < 0 {
                    "-".into()
                } else {
                    p.convergence_period.to_string()
                },
                p.cross_messages.to_string(),
                p.escalated_units.to_string(),
                format!("{:.4}", p.alloc_efficiency),
                format!("{peak:.1}"),
            ]
        })
        .collect();
    r.table(
        "nodes|shards|parent|queries|wall (s)|queries/s|response|conv. period|x-tier msgs|\
         escalated|alloc eff.|peak RSS (MB)",
        &rows,
    );

    let sweep_peak = peaks.iter().copied().fold(0.0, f64::max);
    r.line(format!("sweep peak RSS: {sweep_peak:.1} MB\n"));

    // The timed artifact: each point with its row's peak resident set.
    let timed: Vec<Json> = points
        .iter()
        .zip(&peaks)
        .map(|(p, &peak)| {
            let Json::Obj(mut fields) = p.to_json() else {
                unreachable!("a point is an object")
            };
            fields.push(("peak_rss_mb".to_string(), Json::Float(peak)));
            Json::Obj(fields)
        })
        .collect();
    r.json("fig_scale", &timed);

    // Timing-free projection: what the determinism gates compare across
    // thread budgets and commits.
    let det: Vec<ScalePoint> = points
        .iter()
        .map(|p| ScalePoint {
            elapsed_s: 0.0,
            periods_per_s: 0.0,
            queries_per_s: 0.0,
            ..p.clone()
        })
        .collect();
    r.json("fig_scale_determinism", &det);
    r
}

/// The broker telemetry of the sharded QA-NT row of the CI sweep's first
/// cell (`broker_bid`, `parent_cleared`, `demand_escalated`) at either
/// scale: sim-time stamped and boundary-serial, hence byte-deterministic.
pub(crate) fn trace(_: Scale, budget: usize) -> Report {
    let cell = scale_cells(Scale::Ci)[0];
    let (scenario, trace) = cell.inputs();
    let (telemetry, buffer) = Telemetry::buffered();
    let qant = BrokerConfig::qant();
    scale_point(&scenario, &trace, cell.shards, qant, budget, telemetry);
    let mut r = Report::default();
    r.line(format!("fig_scale_trace — {} broker events", buffer.len()));
    let file = ("fig_scale_trace.jsonl".to_string(), buffer.to_jsonl());
    r.files.push(file);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_rows_conserve_queries_and_report_their_parent() {
        let scenario = scale_world(20, 2007);
        let trace = scale_trace(&scenario, 10);
        for (shards, parent) in [
            (1, BrokerConfig::qant()),
            (4, BrokerConfig::qant()),
            (4, BrokerConfig::walras()),
        ] {
            let p = scale_point(&scenario, &trace, shards, parent, 1, Telemetry::disabled());
            let label = parent_label(&parent);
            assert_eq!((p.mode.as_str(), p.shards), (label, shards as u64));
            assert_eq!(
                p.completed + p.unserved,
                p.queries,
                "{label} S={shards}: every arrival completes or is unserved exactly once"
            );
            assert!(p.completed > 0, "{label} S={shards}: nothing ran");
            assert!(
                p.alloc_efficiency > 0.0 && p.alloc_efficiency <= 1.0,
                "{label} S={shards}: alloc_efficiency {}",
                p.alloc_efficiency
            );
            // Cross-tier traffic stays O(S): bids up, quotas/prices down,
            // once per period window of the trace.
            let windows = trace
                .horizon()
                .as_micros()
                .div_ceil(scenario.config.qant.period.as_micros())
                .max(1);
            assert_eq!(
                (p.periods, p.cross_messages),
                (windows, 2 * p.shards * windows)
            );
            assert!(
                p.parent_rounds > 0,
                "{label} S={shards}: parent never priced"
            );
            let json = p.to_json().dump();
            assert!(json.contains(&format!("\"mode\":\"{label}\"")), "{json}");
        }
    }
}
