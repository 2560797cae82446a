//! Figure 7: the real (threaded, live-DBMS) deployment — mean assignment
//! time and mean total time for Greedy and QA-NT at two inter-arrival
//! settings (the paper's 300 ms and 400 ms experiments, time-scaled).

use qa_bench::{fmt_ms, render_table, scale, write_json, Scale};
use qa_cluster::{run_experiment, ClusterConfig, ClusterMechanism, ClusterSpec};

struct Fig7Row {
    experiment: String,
    mechanism: String,
    mean_assign_ms: f64,
    mean_total_ms: f64,
    failed: usize,
}

qa_simnet::impl_to_json!(Fig7Row {
    experiment,
    mechanism,
    mean_assign_ms,
    mean_total_ms,
    failed
});

fn main() {
    let (spec, configs): (ClusterSpec, Vec<(String, ClusterConfig, ClusterConfig)>) = match scale()
    {
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

    println!("Figure 7 — real implementation over live engines (5 threaded nodes)\n");
    let mut out_rows = Vec::new();
    for (label, greedy_cfg, qant_cfg) in configs {
        let g = run_experiment(&spec, &greedy_cfg).expect("spec has evaluable classes");
        let q = run_experiment(&spec, &qant_cfg).expect("spec has evaluable classes");
        for r in [&g, &q] {
            out_rows.push(Fig7Row {
                experiment: label.clone(),
                mechanism: r.mechanism.clone(),
                mean_assign_ms: r.mean_assign_ms,
                mean_total_ms: r.mean_total_ms,
                failed: r.failed,
            });
        }
    }
    let rows: Vec<Vec<String>> = out_rows
        .iter()
        .map(|r| {
            vec![
                r.experiment.clone(),
                r.mechanism.clone(),
                fmt_ms(r.mean_assign_ms),
                fmt_ms(r.mean_total_ms),
                r.failed.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "experiment",
                "mechanism",
                "assign (ms)",
                "total (ms)",
                "failed"
            ],
            &rows
        )
    );
    println!(
        "paper shape: QA-NT total < Greedy total; assignment dominated by the slowest replier"
    );

    let path = write_json("fig7_real_cluster", &out_rows).expect("write result");
    println!("wrote {}", path.display());
}
