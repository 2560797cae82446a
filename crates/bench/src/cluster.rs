//! The figures that run the threaded cluster: Fig. 7 and the resilience
//! extension. Their latencies are wall-clock, so their files change from
//! run to run.

use crate::{fmt_ms, Report, Scale};
use qa_cluster::{run_experiment, ClusterConfig, ClusterMechanism, ClusterSpec};
use qa_core::MechanismKind;
use qa_sim::config::SimConfig;
use qa_sim::experiments::two_class_trace;
use qa_sim::federation::Federation;
use qa_sim::scenario::Scenario;
use qa_simnet::{json_obj, par_map_indexed_with, FaultPlan, LinkFaults, SimTime};
use qa_workload::NodeId;
use std::time::Duration;

/// Figure 7: the real (threaded, live-DBMS) deployment — mean assignment
/// time and mean total time for Greedy and QA-NT at two inter-arrival
/// settings (the paper's 300 ms and 400 ms experiments, time-scaled).
pub(crate) fn fig7(scale: Scale, _: usize) -> Report {
    let (spec, configs): (ClusterSpec, Vec<(String, ClusterConfig, ClusterConfig)>) = match scale {
        Scale::Ci => {
            let spec = ClusterSpec::generate(2007, 5, 8, 16, 8, 80);
            let mk = |mech, seed| {
                let mut c = ClusterConfig::ci_scale(mech, seed);
                c.num_queries = 60;
                c
            };
            (
                spec,
                vec![(
                    "interarrival 5 ms (scaled)".to_string(),
                    mk(ClusterMechanism::Greedy, 1),
                    mk(ClusterMechanism::QaNt, 1),
                )],
            )
        }
        Scale::Full => {
            // 50 000 rows per base table: the paper's 1 GB, scaled down.
            let spec = ClusterSpec::paper(2007, 50_000);
            (
                spec,
                vec![
                    (
                        "300 queries @ 30 ms (paper: 300 ms)".to_string(),
                        ClusterConfig::paper_scale(ClusterMechanism::Greedy, 1, 30),
                        ClusterConfig::paper_scale(ClusterMechanism::QaNt, 1, 30),
                    ),
                    (
                        "300 queries @ 40 ms (paper: 400 ms)".to_string(),
                        ClusterConfig::paper_scale(ClusterMechanism::Greedy, 2, 40),
                        ClusterConfig::paper_scale(ClusterMechanism::QaNt, 2, 40),
                    ),
                ],
            )
        }
    };

    let mut r =
        Report::titled("Figure 7 — real implementation over live engines (5 threaded nodes)");
    let (mut rows, mut results) = (Vec::new(), Vec::new());
    for (label, greedy_cfg, qant_cfg) in configs {
        for cfg in [greedy_cfg, qant_cfg] {
            let e = run_experiment(&spec, &cfg).expect("spec has evaluable classes");
            rows.push(vec![
                label.clone(),
                e.mechanism.clone(),
                fmt_ms(e.mean_assign_ms),
                fmt_ms(e.mean_total_ms),
                e.failed.to_string(),
            ]);
            results.push(json_obj! {
                "experiment": label,
                "mechanism": e.mechanism,
                "mean_assign_ms": e.mean_assign_ms,
                "mean_total_ms": e.mean_total_ms,
                "failed": e.failed,
            });
        }
    }
    r.table("experiment|mechanism|assign (ms)|total (ms)|failed", &rows);
    r.line("paper shape: QA-NT total < Greedy total; assignment dominated by the slowest replier");
    r.json("fig7_real_cluster", &results);
    r
}

const DROP_PROBS: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];

/// Extension experiment: resilience under faults.
///
/// The paper's deployment story (autonomous nodes, a flaky wireless link,
/// machines that come and go) motivates the question its evaluation never
/// asks: *how does the market degrade when the network loses messages and
/// nodes crash mid-run?* This figure sweeps message-drop probability
/// (0–30%) and crash count for QA-NT vs Greedy in the simulator, then runs
/// the 5-node threaded cluster under 10% negotiation loss plus a crash.
///
/// Reported per condition: completion rate, mean response time, response
/// normalized by QA-NT's at the same condition, losses and retries. The
/// §2.2 resubmission rule is QA-NT's built-in retransmission: a lost
/// negotiation behaves exactly like a period with no offers.
pub(crate) fn resilience(scale: Scale, threads: usize) -> Report {
    let (config, secs) = match scale {
        Scale::Ci => {
            let mut c = SimConfig::small_test(2007);
            c.num_nodes = 20;
            (c, 25u64)
        }
        Scale::Full => (SimConfig::paper_defaults(), 60),
    };
    let scenario = Scenario::two_class(config);
    let trace = two_class_trace(&scenario, 0.05, 0.8, secs);
    let mut r = Report::titled(format!(
        "Resilience extension — {} queries over {secs}s, drop sweep × crash schedule",
        trace.len()
    ));

    // One cell per (crash schedule, drop probability); both mechanisms run
    // inside the cell because normalization is intra-cell (vs QA-NT at the
    // same condition).
    let mut conditions: Vec<(usize, f64)> = Vec::new();
    for &crashes in &[0usize, 2] {
        for &p in &DROP_PROBS {
            conditions.push((crashes, p));
        }
    }
    let cells = par_map_indexed_with(threads, &conditions, |_, &(crashes, p)| {
        let mut rows = Vec::with_capacity(2);
        let mut qant_mean = f64::NAN;
        for m in [MechanismKind::QaNt, MechanismKind::Greedy] {
            let mut f = Federation::new(&scenario, m, &trace);
            if p > 0.0 {
                f.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(p)));
            }
            if crashes > 0 {
                // Two crashes around one-third of the horizon; the
                // first victim recovers at two-thirds.
                f.kill_node_at(NodeId(0), SimTime::from_secs(secs / 3));
                f.kill_node_at(NodeId(1), SimTime::from_secs(secs / 3 + 1));
                f.recover_node_at(NodeId(0), SimTime::from_secs(2 * secs / 3));
            }
            let out = f.run(&trace);
            let mean = out.metrics.mean_response_ms().unwrap_or(f64::NAN);
            if m == MechanismKind::QaNt {
                qant_mean = mean;
            }
            let completion = out.metrics.completed as f64 / trace.len() as f64;
            // Mean response divided by QA-NT's at the same condition.
            let normalized = mean / qant_mean;
            let (lost, retries) = (out.metrics.lost_messages, out.metrics.retries);
            let row = vec![
                m.to_string(),
                format!("{:.0}%", p * 100.0),
                crashes.to_string(),
                format!("{:.1}%", completion * 100.0),
                fmt_ms(mean),
                format!("{normalized:.3}"),
                lost.to_string(),
                retries.to_string(),
            ];
            let json = json_obj! {
                "mechanism": m.to_string(),
                "drop_prob": p,
                "crashes": crashes,
                "completion_rate": completion,
                "mean_response_ms": mean,
                "normalized_response": normalized,
                "lost_messages": lost,
                "retries": retries,
            };
            rows.push((row, json));
        }
        rows
    });
    let (rows, sim): (Vec<_>, Vec<_>) = cells.into_iter().flatten().unzip();
    r.table(
        "mechanism|drop|crashes|completed|mean (ms)|vs QA-NT|lost|retries",
        &rows,
    );
    r.line(
        "Losses surface as retries (§2.2 resubmission), not as missing queries;\n\
         crashes re-enter their victims' queries into the next period's demand.\n",
    );

    // The threaded 5-node deployment under 10% negotiation loss + a crash.
    let cluster_drop = 0.10;
    let cluster_crashes = vec![(1usize, Duration::from_millis(80))];
    let spec = ClusterSpec::generate(2007, 5, 8, 16, 8, 80);
    let (mut rows, mut cluster) = (Vec::new(), Vec::new());
    for mech in [ClusterMechanism::Greedy, ClusterMechanism::QaNt] {
        let mut cfg = ClusterConfig::ci_scale(mech, 7);
        cfg.num_queries = match scale {
            Scale::Ci => 30,
            Scale::Full => 120,
        };
        cfg.reply_timeout = Duration::from_secs(5);
        cfg.faults = FaultPlan::uniform(LinkFaults::lossy(cluster_drop));
        cfg.crashes = cluster_crashes.clone();
        let e = run_experiment(&spec, &cfg).expect("spec has evaluable classes");
        rows.push(vec![
            e.mechanism.clone(),
            format!("{:.0}%", cluster_drop * 100.0),
            cluster_crashes.len().to_string(),
            format!("{:.1}%", e.completion_rate * 100.0),
            fmt_ms(e.mean_assign_ms),
            fmt_ms(e.mean_total_ms),
            e.failed.to_string(),
        ]);
        cluster.push(json_obj! {
            "mechanism": e.mechanism,
            "drop_prob": cluster_drop,
            "crashes": cluster_crashes.len(),
            "completion_rate": e.completion_rate,
            "mean_assign_ms": e.mean_assign_ms,
            "mean_total_ms": e.mean_total_ms,
            "failed": e.failed,
        });
    }
    r.line(format!(
        "5-node threaded cluster, {:.0}% negotiation loss, node 1 crashes at 80 ms\n\
         (driver drops it from the candidate set and finishes the run):\n",
        cluster_drop * 100.0
    ));
    r.table(
        "mechanism|drop|crashes|completed|assign (ms)|total (ms)|failed",
        &rows,
    );
    r.json(
        "ext_resilience",
        &json_obj! { "sim": sim, "cluster": cluster },
    );
    r
}
