//! `fig_scale`: the sharded engine against the flat one, and the parent
//! markets against each other, from 100 to 10 000 nodes.
//!
//! Every size runs one trace through the flat engine (`S = 1`) and through
//! the sharded engine under each parent mechanism (QA-NT, WALRAS); the
//! 10 000-node trace holds ≥ 10 M queries. Reported per row: wall-clock
//! throughput, mean response, the market's convergence period, cross-tier
//! messages, escalated demand and inter-shard allocation efficiency.
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
use qa_sim::config::BrokerConfig;
use qa_sim::experiments::{scale_cells, scale_point, ScalePoint};
use qa_simnet::json::{Json, ToJson};
use qa_simnet::telemetry::Telemetry;
use std::time::Instant;

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

pub fn fig_scale(scale: Scale, budget: usize) -> Report {
    let mut points: Vec<ScalePoint> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    for cell in scale_cells(scale == Scale::Ci) {
        reset_peak_rss();
        let (scenario, trace) = cell.inputs();
        for &(shards, parent) in &cell.rows {
            let start = Instant::now();
            let mut p = scale_point(
                &scenario,
                &trace,
                shards,
                parent,
                budget,
                Telemetry::disabled(),
            );
            let elapsed = start.elapsed().as_secs_f64();
            p.elapsed_s = elapsed;
            p.periods_per_s = p.periods as f64 / elapsed.max(1e-9);
            p.queries_per_s = p.queries as f64 / elapsed.max(1e-9);
            let peak = peak_rss_mb();
            reset_peak_rss();
            eprintln!(
                "  {} nodes x S={} [{}]: {} queries in {:.2}s, peak RSS {peak:.1} MB",
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

/// The broker telemetry of the 60-node, 4-shard QA-NT row of the CI
/// sweep (`broker_bid`, `parent_cleared`, `demand_escalated`) at either
/// scale: sim-time stamped and boundary-serial, hence byte-deterministic.
pub fn trace(_: Scale, budget: usize) -> Report {
    let (scenario, trace) = scale_cells(true)[0].inputs();
    let (telemetry, buffer) = Telemetry::buffered();
    let qant = BrokerConfig::qant();
    scale_point(&scenario, &trace, 4, qant, budget, telemetry);
    let mut r = Report::default();
    r.line(format!("fig_scale_trace — {} broker events", buffer.len()));
    let file = ("fig_scale_trace.jsonl".to_string(), buffer.to_jsonl());
    r.files.push(file);
    r
}
