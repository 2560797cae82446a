//! `fig_scale`: the sharded engine against the flat one, and the parent
//! markets against each other, from 100 to 10 000 nodes.
//!
//! Every size runs one trace through the flat engine (`S = 1`) and through
//! the sharded engine under each parent mechanism (QA-NT, WALRAS); the
//! 10 000-node trace holds ≥ 10 M queries. Reported per row: wall-clock
//! throughput, mean response, the market's convergence period, cross-tier
//! messages, escalated demand and inter-shard allocation efficiency.
//!
//! Artifacts:
//! * `bench_results/fig_scale.json` — the full points, timings included;
//! * `bench_results/fig_scale_determinism.json` — the timing-free
//!   projection, byte-identical at any `QA_THREADS` and machine speed
//!   (`--quick` is `goldens/fig_scale_quick_determinism.json`);
//! * `bench_results/fig_scale_trace.jsonl` (with `--trace`) — the broker
//!   telemetry of the 60-node, 4-shard QA-NT row (`broker_bid`,
//!   `parent_cleared`, `demand_escalated`), byte-deterministic.
//!
//! `--quick` (or `QA_SCALE` unset) shrinks the sweep for CI.

use qa_bench::{fmt_ms, render_table, write_json, Scale};
use qa_sim::config::BrokerConfig;
use qa_sim::experiments::{scale_cells, scale_point, ScalePoint};
use qa_simnet::telemetry::Telemetry;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick") || qa_bench::scale() == Scale::Ci;
    let want_trace = args.iter().any(|a| a == "--trace");
    let budget = qa_simnet::thread_budget();

    let mut points: Vec<ScalePoint> = Vec::new();
    for cell in scale_cells(quick) {
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
            eprintln!(
                "  {} nodes x S={} [{}]: {} queries in {:.2}s",
                p.nodes, p.shards, p.mode, p.queries, elapsed
            );
            points.push(p);
        }
    }

    println!("fig_scale — flat engine vs sharded engine under each parent market\n");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
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
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "nodes",
                "shards",
                "parent",
                "queries",
                "wall (s)",
                "queries/s",
                "response",
                "conv. period",
                "x-tier msgs",
                "escalated",
                "alloc eff."
            ],
            &rows
        )
    );

    let path = write_json("fig_scale", &points).expect("write result");
    println!("wrote {}", path.display());

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
    let path = write_json("fig_scale_determinism", &det).expect("write determinism artifact");
    println!("wrote {}", path.display());

    // Sim-time stamped and boundary-serial, hence byte-deterministic.
    if want_trace {
        let (scenario, trace) = scale_cells(true)[0].inputs();
        let (telemetry, buffer) = Telemetry::buffered();
        scale_point(
            &scenario,
            &trace,
            4,
            BrokerConfig::qant(),
            budget,
            telemetry,
        );
        let path = std::path::Path::new("bench_results/fig_scale_trace.jsonl");
        std::fs::write(path, buffer.to_jsonl()).expect("write broker trace");
        println!("wrote {} ({} events)", path.display(), buffer.len());
    }
}
