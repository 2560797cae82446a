//! Extension experiment: the market over real sockets.
//!
//! Every other experiment drives the threaded in-process cluster; this
//! one adds a **TCP-loopback column**: the same seeded federation runs as
//! five real `qad` child processes on `127.0.0.1` ephemeral ports, with
//! the driver talking `qa-net` frames over the [`TcpTransport`](qa_cluster::TcpTransport). The
//! sweep crosses negotiation-loss probability with a mid-run crash (the
//! crash is a real process exit, delivered as a wire `Shutdown`), so the
//! table answers: *does the market's fault story survive contact with an
//! actual network stack?*
//!
//! Per condition and transport: completion rate, mean assignment and
//! total latency, failed queries, and (TCP only) whether every server
//! process exited cleanly. Requires the workspace bins to be built
//! (`cargo build --release`) or `QAD_BIN` pointing at a `qad` binary.

use qa_bench::{fmt_ms, render_table, scale, write_json, Scale};
use qa_cluster::ctl::{find_qad, Federation};
use qa_cluster::{run_experiment, run_workload, ExperimentResult, FedConfig, Transport};
use qa_simnet::telemetry::Telemetry;
use qa_simnet::{par_map_indexed_with, thread_budget};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const DROPS: [f64; 3] = [0.0, 0.10, 0.20];

/// Which node dies and when (only in `crashes = 1` cells). Over TCP the
/// "crash" is the server process actually exiting.
const CRASH_NODE: usize = 1;
const CRASH_AT: Duration = Duration::from_millis(60);

struct Row {
    transport: String,
    drop_prob: f64,
    crashes: usize,
    completion_rate: f64,
    mean_assign_ms: f64,
    mean_total_ms: f64,
    failed: usize,
    clean_shutdown: bool,
}

struct Results {
    rows: Vec<Row>,
}

qa_simnet::impl_to_json!(Row {
    transport,
    drop_prob,
    crashes,
    completion_rate,
    mean_assign_ms,
    mean_total_ms,
    failed,
    clean_shutdown
});
qa_simnet::impl_to_json!(Results { rows });

/// The federation under test: the `qa-ctl init` template at bench scale.
fn fed_for(drop_prob: f64, queries: usize) -> FedConfig {
    let mut fed = FedConfig::example();
    fed.num_queries = queries;
    fed.drop_prob = drop_prob;
    fed
}

fn row(transport: &str, fed: &FedConfig, crashes: usize, r: &ExperimentResult, clean: bool) -> Row {
    Row {
        transport: transport.to_string(),
        drop_prob: fed.drop_prob,
        crashes,
        completion_rate: r.completion_rate,
        mean_assign_ms: r.mean_assign_ms,
        mean_total_ms: r.mean_total_ms,
        failed: r.failed,
        clean_shutdown: clean,
    }
}

/// One TCP cell: spawn the federation as child processes, replay the
/// workload over loopback sockets, tear everything down.
fn tcp_cell(
    fed: &FedConfig,
    crashes: usize,
    qad: &Path,
    scratch: &Path,
    idx: usize,
) -> (ExperimentResult, bool) {
    let config_path = scratch.join(format!("cell{idx}.json"));
    std::fs::write(&config_path, fed.dump()).expect("write federation config");
    let federation = Federation::spawn(fed, qad, config_path.to_str().expect("utf-8 path"), None)
        .expect("spawn federation");
    let telemetry = Telemetry::disabled();
    let transport: Arc<dyn Transport> =
        Arc::new(federation.connect(&telemetry).expect("connect to fleet"));
    let mut cfg = fed.cluster_config(telemetry);
    if crashes > 0 {
        cfg.crashes = vec![(CRASH_NODE, CRASH_AT)];
    }
    let result = run_workload(&fed.spec(), &cfg, Arc::clone(&transport)).expect("TCP-loopback run");
    transport.shutdown();
    let clean = federation.wait();
    (result, clean)
}

fn main() {
    let queries = match scale() {
        Ok(Scale::Ci) => 24,
        Ok(Scale::Full) => 96,
        Err(e) => {
            eprintln!("ext_net: {e}");
            std::process::exit(2)
        }
    };
    let qad = find_qad(None).unwrap_or_else(|e| {
        eprintln!("ext_net: {e}");
        std::process::exit(2)
    });
    let scratch = std::env::temp_dir().join(format!("qa-ext-net-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    println!(
        "Real-socket extension — {queries} queries per cell, 5-node federation,\n\
         drop × crash sweep, channel transport vs TCP loopback\n"
    );

    let mut conditions: Vec<(usize, f64)> = Vec::new();
    for &crashes in &[0usize, 1] {
        for &p in &DROPS {
            conditions.push((crashes, p));
        }
    }
    let rows: Vec<Row> =
        par_map_indexed_with(thread_budget(), &conditions, |idx, &(crashes, p)| {
            let fed = fed_for(p, queries);
            // Channel column: the same FedConfig through the in-process
            // transport (run_experiment spawns and reaps its own fleet).
            let mut cfg = fed.cluster_config(Telemetry::disabled());
            if crashes > 0 {
                cfg.crashes = vec![(CRASH_NODE, CRASH_AT)];
            }
            let chan = run_experiment(&fed.spec(), &cfg).expect("channel run");
            // TCP column: real processes, real sockets, same seed.
            let (tcp, clean) = tcp_cell(&fed, crashes, &qad, &scratch, idx);
            vec![
                row("channel", &fed, crashes, &chan, true),
                row("tcp-loopback", &fed, crashes, &tcp, clean),
            ]
        })
        .into_iter()
        .flatten()
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.transport.clone(),
                format!("{:.0}%", r.drop_prob * 100.0),
                r.crashes.to_string(),
                format!("{:.1}%", r.completion_rate * 100.0),
                fmt_ms(r.mean_assign_ms),
                fmt_ms(r.mean_total_ms),
                r.failed.to_string(),
                if r.clean_shutdown { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "transport",
                "drop",
                "crashes",
                "completed",
                "assign (ms)",
                "total (ms)",
                "failed",
                "clean exit"
            ],
            &table
        )
    );
    println!(
        "Allocation quality (completion, failures) must track the channel\n\
         column at every loss level — the market does not care which wire\n\
         carried the offer. Latency diverges under loss by design: the\n\
         in-process fleet hangs up a dropped reply's channel instantly,\n\
         while over real sockets the loss detector is the reply deadline,\n\
         so every lossy round costs one deadline before §2.2 resubmits.\n"
    );

    let results = Results { rows };
    let path = write_json("ext_net", &results).expect("write result");
    println!("wrote {}", path.display());
}
