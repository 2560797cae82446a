//! `qa-ctl` — operator tooling for a multi-process federation.
//!
//! Spawns N [`crate::qad`] server processes on loopback ephemeral ports,
//! connects a [`TcpTransport`] to them, and either replays the workload
//! (`run`) or scrapes the fleet's metrics (`stats`). The same JSON
//! federation config ([`FedConfig`]) is handed to every child, so driver
//! and servers agree on the deployment byte-for-byte.
//!
//! ```text
//! qa-ctl init                          # print a starter federation config
//! qa-ctl run    --config fed.json     # spawn, submit queries, report, stop
//! qa-ctl stats  --config fed.json     # spawn, scrape + merge metrics, stop
//! qa-ctl stats  --addrs a:p,b:p       # scrape an already-running fleet
//! ```
//!
//! `stats` is the fleet observability entry point: it scrapes every
//! node's metrics-registry snapshot over the wire
//! ([`qa_net::WireMsg::StatsRequest`]), merges them with
//! [`MetricsRegistry::merge_snapshot`], and prints the aggregate as JSON
//! on stdout plus a per-node liveness table on stderr. `--watch` repeats
//! the scrape on an interval, one JSON line per round.

use crate::driver::run_workload;
use crate::node::{NodeMsg, NodeStats, PricesReply, Reply};
use crate::qad::FedConfig;
use crate::transport::{TcpTransport, Transport};
use crate::ClusterError;
use qa_simnet::json::Json;
use qa_simnet::telemetry::{MetricsRegistry, Telemetry};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long `qa-ctl` waits for a child to bind and announce its address.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// How long children get to exit after `Shutdown` before being killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A spawned multi-process federation: one `qad` child per node.
pub struct Federation {
    children: Vec<Child>,
    /// The bound loopback address of each node, in node order.
    pub addrs: Vec<String>,
    /// Each node's bound `/metrics` endpoint, in node order (empty
    /// unless spawned via [`Federation::spawn_with_metrics`]).
    pub(crate) metrics_addrs: Vec<String>,
}

impl Federation {
    /// Spawns `fed.num_nodes` `qad` processes, each listening on an
    /// ephemeral loopback port, and collects their announced addresses.
    /// `config_path` is handed to every child verbatim. With `trace_dir`
    /// set, node `i` writes its JSONL telemetry to `trace_dir/node<i>.jsonl`.
    ///
    /// # Errors
    /// Spawn or address-discovery failures, as readable text (any
    /// already-started children are killed).
    pub fn spawn(
        fed: &FedConfig,
        qad_bin: &Path,
        config_path: &str,
        trace_dir: Option<&Path>,
    ) -> Result<Federation, String> {
        Federation::spawn_with_metrics(fed, qad_bin, config_path, trace_dir, false)
    }

    /// [`Federation::spawn`], optionally passing `--metrics-addr
    /// 127.0.0.1:0` to every child and collecting the announced
    /// `/metrics` endpoints into [`Federation::metrics_addrs`].
    ///
    /// # Errors
    /// Same as [`Federation::spawn`].
    pub(crate) fn spawn_with_metrics(
        fed: &FedConfig,
        qad_bin: &Path,
        config_path: &str,
        trace_dir: Option<&Path>,
        metrics: bool,
    ) -> Result<Federation, String> {
        let mut federation = Federation {
            children: Vec::new(),
            addrs: Vec::new(),
            metrics_addrs: Vec::new(),
        };
        for node in 0..fed.num_nodes {
            let mut cmd = Command::new(qad_bin);
            cmd.arg("--listen")
                .arg("127.0.0.1:0")
                .arg("--node-id")
                .arg(node.to_string())
                .arg("--config")
                .arg(config_path)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(dir) = trace_dir {
                cmd.arg("--trace")
                    .arg(dir.join(format!("node{node}.jsonl")));
            }
            if metrics {
                cmd.arg("--metrics-addr").arg("127.0.0.1:0");
            }
            let mut child = cmd.spawn().map_err(|e| {
                federation.kill();
                format!("spawn {}: {e}", qad_bin.display())
            })?;
            let stdout = child.stdout.take().expect("stdout was piped");
            federation.children.push(child);
            match read_announcements(stdout, metrics) {
                Ok((addr, metrics_addr)) => {
                    federation.addrs.push(addr);
                    federation.metrics_addrs.extend(metrics_addr);
                }
                Err(e) => {
                    federation.kill();
                    return Err(format!("node {node} never announced its address: {e}"));
                }
            }
        }
        Ok(federation)
    }

    /// Connects a driver transport to every node of the federation.
    ///
    /// # Errors
    /// [`ClusterError::Net`] naming the unreachable peer.
    pub fn connect(&self, telemetry: &Telemetry) -> Result<TcpTransport, ClusterError> {
        TcpTransport::connect(&self.addrs, &qa_net::ConnConfig::default(), telemetry)
    }

    /// Waits for every child to exit (they do after a transport
    /// `shutdown`); kills stragglers after a deadline. Returns `true`
    /// when all exited cleanly on their own.
    pub fn wait(mut self) -> bool {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let mut all_clean = true;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        all_clean &= status.success();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        all_clean = false;
                        break;
                    }
                }
            }
        }
        all_clean
    }

    /// Hard-kills every child (error-path cleanup).
    fn kill(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reads the `qad listening <addr>` announcement from a child's stdout —
/// plus, with `metrics`, the `qad metrics <addr>` line that follows it.
fn read_announcements(
    stdout: std::process::ChildStdout,
    metrics: bool,
) -> Result<(String, Option<String>), String> {
    // A dedicated reader thread bounds the wait: a child that wedges
    // before binding would otherwise hang the whole spawn.
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let mut reader = std::io::BufReader::new(stdout);
        let mut announced = |prefix: &str| -> Result<String, String> {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => Err("stdout closed before announcement".to_string()),
                Ok(_) => line
                    .trim()
                    .strip_prefix(prefix)
                    .map(str::to_string)
                    .ok_or_else(|| format!("unexpected announcement {line:?}")),
                Err(e) => Err(format!("read stdout: {e}")),
            }
        };
        let result = announced("qad listening ").and_then(|addr| {
            if metrics {
                announced("qad metrics ").map(|m| (addr, Some(m)))
            } else {
                Ok((addr, None))
            }
        });
        let _ = tx.send(result);
    });
    rx.recv_timeout(SPAWN_TIMEOUT)
        .map_err(|_| format!("no announcement within {SPAWN_TIMEOUT:?}"))?
}

/// Collects every node's price vector over the transport.
pub fn collect_prices(transport: &dyn Transport, timeout: Duration) -> Vec<Option<PricesReply>> {
    (0..transport.num_nodes())
        .map(|n| {
            let (reply, rx) = Reply::channel();
            transport.send(n, NodeMsg::DumpPrices { reply }).ok()?;
            rx.recv_timeout(timeout).ok()
        })
        .collect()
}

fn prices_json(prices: &[Option<PricesReply>]) -> Json {
    Json::Obj(
        prices
            .iter()
            .enumerate()
            .map(|(n, p)| {
                let value = match p {
                    None => Json::Null,
                    Some(r) => Json::Arr(r.prices.iter().map(|&v| Json::Float(v)).collect()),
                };
                (format!("node{n}"), value)
            })
            .collect(),
    )
}

/// Scrapes every node's metrics-registry snapshot over the transport.
/// `None` marks a node that never answered within `timeout` (dead, or
/// speaking a pre-v2 protocol without the stats scrape).
pub fn collect_stats(transport: &TcpTransport, timeout: Duration) -> Vec<Option<NodeStats>> {
    (0..transport.num_nodes())
        .map(|n| {
            let (tx, rx) = Reply::channel();
            if transport.request_stats(n, tx).is_err() {
                return None;
            }
            rx.recv_timeout(timeout).ok()
        })
        .collect()
}

/// Builds the fleet stats report: per-node digests plus the merged
/// registry. Counters add across nodes, Welford summaries and histograms
/// merge exactly; gauges are last-write-wins and therefore only
/// meaningful per node, which is why the per-node section carries them
/// too.
pub(crate) fn fleet_report(stats: &[Option<NodeStats>], prices: &[Option<PricesReply>]) -> Json {
    let merged = MetricsRegistry::new();
    let mut alive = 0i64;
    let nodes = Json::Obj(
        stats
            .iter()
            .enumerate()
            .map(|(n, s)| {
                let detail = match s {
                    None => Json::object([("alive", Json::Bool(false))]),
                    Some(s) => {
                        alive += 1;
                        let snap = Json::parse(&s.json).unwrap_or(Json::Null);
                        merged.merge_snapshot(&snap);
                        let counter = |name: &str| {
                            snap.get("counters")
                                .and_then(|c| c.get(name))
                                .and_then(Json::as_u64)
                                .unwrap_or(0)
                        };
                        let backlog = snap
                            .get("gauges")
                            .and_then(|g| g.get("qad.backlog_ms"))
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0);
                        let price_vec = match prices.get(n).and_then(Option::as_ref) {
                            None => Json::Null,
                            Some(p) => {
                                Json::Arr(p.prices.iter().map(|&v| Json::Float(v)).collect())
                            }
                        };
                        Json::object([
                            ("alive", Json::Bool(true)),
                            (
                                "queries_executed",
                                Json::Int(counter("qad.queries_executed") as i64),
                            ),
                            ("offers_made", Json::Int(counter("qad.offers_made") as i64)),
                            (
                                "offers_rejected",
                                Json::Int(counter("qad.offers_rejected") as i64),
                            ),
                            ("backlog_ms", Json::Float(backlog)),
                            ("prices", price_vec),
                        ])
                    }
                };
                (format!("node{n}"), detail)
            })
            .collect(),
    );
    Json::object([
        ("alive", Json::Int(alive)),
        ("nodes", Json::Int(stats.len() as i64)),
        ("per_node", nodes),
        ("fleet", merged.snapshot()),
    ])
}

/// Renders the per-node liveness table (the human half of `qa-ctl
/// stats`; stdout stays machine-readable JSON).
fn stats_table(report: &Json) -> String {
    let mut out = String::from(
        "node    alive  queries  rejected  backlog_ms  prices\n\
         ------  -----  -------  --------  ----------  ------\n",
    );
    let Some(Json::Obj(nodes)) = report.get("per_node") else {
        return out;
    };
    for (name, d) in nodes {
        let alive = matches!(d.get("alive"), Some(Json::Bool(true)));
        let num = |k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let prices = match d.get("prices") {
            Some(Json::Arr(p)) => p
                .iter()
                .filter_map(Json::as_f64)
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(","),
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{name:<6}  {:<5}  {:>7}  {:>8}  {:>10.1}  {prices}\n",
            if alive { "yes" } else { "NO" },
            num("queries_executed") as u64,
            num("offers_rejected") as u64,
            num("backlog_ms"),
        ));
    }
    out
}

/// Locates the `qad` binary: explicit flag, `QAD_BIN` env, or a sibling
/// of the running executable.
pub fn find_qad(explicit: Option<String>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
        return Ok(PathBuf::from(p));
    }
    if let Ok(p) = std::env::var("QAD_BIN") {
        return Ok(PathBuf::from(p));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name(if cfg!(windows) { "qad.exe" } else { "qad" });
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "cannot find qad (looked at {}); set QAD_BIN (qa-ctl also takes --qad PATH)",
            sibling.display()
        ))
    }
}

struct CtlArgs {
    config: Option<String>,
    qad: Option<String>,
    trace: Option<String>,
    trace_dir: Option<String>,
    /// `stats`: scrape these already-running nodes instead of spawning.
    addrs: Option<String>,
    /// `stats`: repeat the scrape on an interval.
    watch: bool,
    /// `stats --watch`: stop after this many rounds (default: forever).
    rounds: Option<u64>,
    /// `stats --watch`: milliseconds between rounds.
    interval_ms: u64,
    /// `stats` spawn mode: also bind per-node `/metrics` endpoints.
    metrics: bool,
}

fn parse_ctl_args(args: &[String]) -> Result<CtlArgs, String> {
    let mut out = CtlArgs {
        config: None,
        qad: None,
        trace: None,
        trace_dir: None,
        addrs: None,
        watch: false,
        rounds: None,
        interval_ms: 2000,
        metrics: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--config" => out.config = Some(take("--config")?),
            "--qad" => out.qad = Some(take("--qad")?),
            "--trace" => out.trace = Some(take("--trace")?),
            "--trace-dir" => out.trace_dir = Some(take("--trace-dir")?),
            "--addrs" => out.addrs = Some(take("--addrs")?),
            "--watch" => out.watch = true,
            "--rounds" => {
                out.rounds = Some(
                    take("--rounds")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?,
                )
            }
            "--interval-ms" => {
                out.interval_ms = take("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--metrics" => out.metrics = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn driver_telemetry(trace: &Option<String>) -> Result<Telemetry, String> {
    match trace {
        None => Ok(Telemetry::disabled()),
        Some(path) => Telemetry::to_file(path).map_err(|e| format!("trace {path}: {e}")),
    }
}

/// Spawns the federation, runs the configured workload over TCP, prints a
/// JSON report (Figure-7 aggregates plus per-node post-run price
/// vectors), and tears everything down.
fn cmd_run(args: CtlArgs) -> Result<(), String> {
    let config_path = args.config.ok_or("run requires --config FILE")?;
    let fed = FedConfig::load(&config_path)?;
    let qad_bin = find_qad(args.qad)?;
    let telemetry = driver_telemetry(&args.trace)?;
    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    }
    let federation = Federation::spawn(
        &fed,
        &qad_bin,
        &config_path,
        args.trace_dir.as_ref().map(Path::new),
    )?;
    let spec = fed.spec();
    let cluster_cfg = fed.cluster_config(telemetry.clone());
    let transport: Arc<dyn Transport> = Arc::new(
        federation
            .connect(&telemetry)
            .map_err(|e| format!("connect: {e}"))?,
    );
    let result = run_workload(&spec, &cluster_cfg, Arc::clone(&transport))
        .map_err(|e| format!("workload: {e}"))?;
    let prices = collect_prices(transport.as_ref(), Duration::from_secs(10));
    transport.shutdown();
    let clean = federation.wait();

    let report = Json::object([
        ("mechanism", Json::Str(result.mechanism.clone())),
        ("queries", Json::Int(result.outcomes.len() as i64)),
        ("failed", Json::Int(result.failed as i64)),
        ("completion_rate", Json::Float(result.completion_rate)),
        ("mean_assign_ms", Json::Float(result.mean_assign_ms)),
        ("mean_total_ms", Json::Float(result.mean_total_ms)),
        ("prices", prices_json(&prices)),
        ("clean_shutdown", Json::Bool(clean)),
    ]);
    println!("{}", report.pretty());
    Ok(())
}

/// One scrape round: stats + prices from every node, merged, printed.
/// `pretty` selects the single-shot pretty layout over watch-mode JSONL.
fn scrape_once(transport: &TcpTransport, timeout: Duration, pretty: bool) -> Json {
    let stats = collect_stats(transport, timeout);
    let prices = collect_prices(transport, timeout);
    let report = fleet_report(&stats, &prices);
    eprint!("{}", stats_table(&report));
    if pretty {
        println!("{}", report.pretty());
    } else {
        println!("{}", report.dump());
    }
    report
}

/// Scrapes the fleet's metrics registries and prints the merged view:
/// aggregate JSON on stdout, a per-node table on stderr. Spawns a fresh
/// federation from `--config`, or attaches to a running one via
/// `--addrs` (attach mode never sends `Shutdown` — observation must not
/// perturb the observed fleet).
fn cmd_stats(args: CtlArgs) -> Result<(), String> {
    let timeout = Duration::from_secs(10);
    let telemetry = driver_telemetry(&args.trace)?;
    let rounds = match (args.watch, args.rounds) {
        (false, _) => 1,
        (true, Some(n)) => n.max(1),
        (true, None) => u64::MAX,
    };
    let scrape_all = |transport: &TcpTransport, pretty: bool| {
        for round in 0..rounds {
            scrape_once(transport, timeout, pretty);
            if round + 1 < rounds {
                std::thread::sleep(Duration::from_millis(args.interval_ms));
            }
        }
    };
    if let Some(list) = &args.addrs {
        let addrs: Vec<String> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if addrs.is_empty() {
            return Err("--addrs needs at least one host:port".to_string());
        }
        let transport = TcpTransport::connect(&addrs, &qa_net::ConnConfig::default(), &telemetry)
            .map_err(|e| format!("connect: {e}"))?;
        scrape_all(&transport, !args.watch);
        // Attach mode must not perturb the observed fleet: sever the
        // connections *before* the transport drops, because `Drop` runs
        // `shutdown()` and would send `Shutdown` to every node.
        transport.disconnect();
        return Ok(());
    }
    let config_path = args
        .config
        .ok_or("stats requires --config FILE (or --addrs)")?;
    let fed = FedConfig::load(&config_path)?;
    let qad_bin = find_qad(args.qad)?;
    let federation =
        Federation::spawn_with_metrics(&fed, &qad_bin, &config_path, None, args.metrics)?;
    for addr in &federation.metrics_addrs {
        eprintln!("metrics endpoint http://{addr}/metrics");
    }
    let transport = federation
        .connect(&telemetry)
        .map_err(|e| format!("connect: {e}"))?;
    scrape_all(&transport, !args.watch);
    transport.shutdown();
    let clean = federation.wait();
    if !clean {
        return Err("federation did not shut down cleanly".to_string());
    }
    Ok(())
}

/// Entry point for the `qa-ctl` binary. Returns the process exit code.
pub fn ctl_main(args: &[String]) -> i32 {
    let usage = "usage: qa-ctl <init|run|stats> [--config FILE] [--qad PATH] \
                 [--trace FILE] [--trace-dir DIR]\n\
                 \x20      qa-ctl stats [--addrs A,B,...] [--watch] [--rounds N] \
                 [--interval-ms MS] [--metrics]";
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{usage}");
        return 2;
    };
    let result = match cmd.as_str() {
        "init" => {
            println!("{}", FedConfig::example().dump());
            Ok(())
        }
        "run" => parse_ctl_args(rest).and_then(cmd_run),
        "stats" => parse_ctl_args(rest).and_then(cmd_stats),
        "--help" | "-h" | "help" => {
            println!("{usage}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{usage}")),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("qa-ctl: {e}");
            1
        }
    }
}
