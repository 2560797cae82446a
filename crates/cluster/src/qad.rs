//! `qad` — one federation node as an OS process.
//!
//! The paper's deployment is five autonomous PCs; `qad` is that: a server
//! process owning one node's data shard, estimator and QA-NT market
//! state, reachable only over TCP. A federation is N `qad` processes plus
//! a driver (`qa-ctl`, or any [`crate::transport::TcpTransport`] user).
//!
//! ## Federation config
//!
//! Every process of a federation — servers and driver alike — is pointed
//! at the same JSON config file ([`FedConfig`]). The file carries the
//! *generation parameters*, not the data: each side regenerates the
//! deterministic [`ClusterSpec`] from `spec_seed`, so a node process
//! loads exactly the shard the in-process fleet would have given it, and
//! the driver prices/allocates identically. This is how the multi-process
//! federation stays seed-for-seed comparable with the threaded one.
//!
//! ## Process contract
//!
//! `qad --listen 127.0.0.1:0 --node-id 3 --config fed.json` binds,
//! prints `qad listening <addr>` on stdout (the ephemeral-port discovery
//! contract `qa-ctl` relies on), and serves drivers until a `Shutdown`
//! frame arrives. A driver that disconnects without `Shutdown` is not
//! fatal — the server goes back to accepting, so a crashed driver can
//! reconnect to a still-warm market.

use crate::driver::qant_config_for;
use crate::node::{spawn_node, EstimateReply, ExecReply, NodeMsg, OfferReply, PricesReply, Reply};
use crate::setup::ClusterSpec;
use crate::ClusterMechanism;
use qa_net::{ConnConfig, Connection, WireMsg};
use qa_simnet::json::{FromJson, Json, ToJson};
use qa_simnet::telemetry::Telemetry;
use qa_simnet::{FaultPlan, LinkFaults};
use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A federation description: everything needed to regenerate the
/// deterministic deployment ([`ClusterSpec`]) and drive the workload,
/// shared verbatim by every process of the federation.
#[derive(Debug, Clone, PartialEq)]
pub struct FedConfig {
    /// Seed for [`ClusterSpec::generate`] (tables, views, copies,
    /// classes, slowdowns).
    pub spec_seed: u64,
    /// Fleet size.
    pub num_nodes: usize,
    /// Base tables (paper: 20).
    pub num_tables: usize,
    /// Views (paper: 80).
    pub num_views: usize,
    /// Query classes.
    pub num_classes: usize,
    /// Rows per base table.
    pub rows_per_table: usize,
    /// Allocation mechanism.
    pub mechanism: ClusterMechanism,
    /// Workload/data seed ([`crate::ClusterConfig::seed`]).
    pub seed: u64,
    /// Queries to issue.
    pub num_queries: usize,
    /// Mean inter-arrival (ms).
    pub mean_interarrival_ms: u64,
    /// QA-NT market period (ms).
    pub period_ms: u64,
    /// Resubmission budget per query.
    pub max_retries: u32,
    /// Negotiation reply deadline (ms).
    pub reply_timeout_ms: u64,
    /// Uniform negotiation-reply loss probability on every node's link.
    pub drop_prob: f64,
}

// The wire schema: this list is the key set `parse` accepts and the
// order `dump` writes.
qa_simnet::impl_json!(FedConfig {
    spec_seed,
    num_nodes,
    num_tables,
    num_views,
    num_classes,
    rows_per_table,
    mechanism,
    seed,
    num_queries,
    mean_interarrival_ms,
    period_ms,
    max_retries,
    reply_timeout_ms,
    drop_prob,
});

impl ToJson for ClusterMechanism {
    fn to_json(&self) -> Json {
        match self {
            ClusterMechanism::QaNt => "qant",
            ClusterMechanism::Greedy => "greedy",
        }
        .to_json()
    }
}

impl FromJson for ClusterMechanism {
    fn from_json(v: &Json) -> Result<ClusterMechanism, String> {
        match v.as_str() {
            Some("qant") => Ok(ClusterMechanism::QaNt),
            Some("greedy") => Ok(ClusterMechanism::Greedy),
            _ => Err(format!("must be \"qant\" or \"greedy\", got {}", v.dump())),
        }
    }
}

impl FedConfig {
    /// A CI-scale example federation (the `qa-ctl init` template).
    pub fn example() -> FedConfig {
        FedConfig {
            spec_seed: 5,
            num_nodes: 5,
            num_tables: 8,
            num_views: 12,
            num_classes: 6,
            rows_per_table: 60,
            mechanism: ClusterMechanism::QaNt,
            seed: 11,
            num_queries: 40,
            mean_interarrival_ms: 5,
            period_ms: 40,
            max_retries: 100,
            // Over real sockets the reply deadline *is* the loss
            // detector (an in-process fleet hangs up dropped-reply
            // senders; a network cannot), so it stays at period scale:
            // a lost negotiation costs one deadline, then §2.2 resubmits.
            reply_timeout_ms: 250,
            drop_prob: 0.0,
        }
    }

    /// Parses a config from JSON text: the keys given are read over
    /// [`FedConfig::example`]'s. Unknown keys are rejected so a typo
    /// cannot silently fall back to a default.
    ///
    /// # Errors
    /// A human-readable description of the first problem found.
    pub fn parse(text: &str) -> Result<FedConfig, String> {
        let Json::Obj(given) = Json::parse(text)? else {
            return Err("config must be a JSON object".to_string());
        };
        let Json::Obj(mut pairs) = FedConfig::example().to_json() else {
            unreachable!("a struct serializes as an object")
        };
        for (key, value) in given {
            match pairs.iter_mut().find(|(known, _)| *known == key) {
                Some(slot) => slot.1 = value,
                None => return Err(format!("unknown config key {key:?}")),
            }
        }
        let cfg = FedConfig::from_json(&Json::Obj(pairs))?;
        if cfg.num_nodes < 2 {
            return Err("num_nodes must be at least 2".to_string());
        }
        if cfg.period_ms == 0 {
            return Err("period_ms must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&cfg.drop_prob) {
            return Err(format!(
                "drop_prob must be in [0, 1], got {}",
                cfg.drop_prob
            ));
        }
        Ok(cfg)
    }

    /// Reads and parses a config file.
    ///
    /// # Errors
    /// IO problems and parse problems, as readable text.
    pub fn load(path: &str) -> Result<FedConfig, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        FedConfig::parse(&text)
    }

    /// Serializes (the `qa-ctl init` output; `parse` round-trips it).
    pub fn dump(&self) -> String {
        self.to_json().pretty()
    }

    /// Regenerates the deterministic deployment this config describes.
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec::generate(
            self.spec_seed,
            self.num_nodes,
            self.num_tables,
            self.num_views,
            self.num_classes,
            self.rows_per_table,
        )
    }

    /// The fault plan every fleet node runs under (uniform loss).
    pub fn fault_plan(&self) -> FaultPlan {
        if self.drop_prob > 0.0 {
            FaultPlan::uniform(LinkFaults::lossy(self.drop_prob))
        } else {
            FaultPlan::none()
        }
    }

    /// The driver-side experiment config equivalent to this federation.
    pub fn cluster_config(&self, telemetry: Telemetry) -> crate::ClusterConfig {
        crate::ClusterConfig {
            seed: self.seed,
            num_queries: self.num_queries,
            mean_interarrival: Duration::from_millis(self.mean_interarrival_ms),
            period: Duration::from_millis(self.period_ms),
            mechanism: self.mechanism,
            max_retries: self.max_retries,
            reply_timeout: Duration::from_millis(self.reply_timeout_ms),
            faults: self.fault_plan(),
            crashes: Vec::new(),
            telemetry,
        }
    }
}

/// Why one driver session ended.
enum SessionEnd {
    /// The driver asked the whole node to shut down.
    Shutdown,
    /// The driver disconnected (or died); the node keeps serving.
    PeerGone,
}

/// Binds `listen`, announces the bound address on stdout, spawns the node
/// worker, and serves driver connections until a `Shutdown` frame.
///
/// With `metrics_addr` set, a second listener serves `GET /metrics`
/// (Prometheus text format) from this node's registry, announced as a
/// `qad metrics <addr>` stdout line after the listening announcement.
///
/// # Errors
/// Socket-level failures (bind/accept) as readable text. Per-session
/// failures are not fatal — the server returns to accepting.
pub fn serve(
    node: usize,
    listen: &str,
    metrics_addr: Option<&str>,
    fed: &FedConfig,
    telemetry: Telemetry,
) -> Result<(), String> {
    let spec = fed.spec();
    if node >= spec.num_nodes {
        return Err(format!(
            "node id {node} out of range (federation has {} nodes)",
            spec.num_nodes
        ));
    }
    let epoch = Instant::now();
    let qant_cfg = qant_config_for(fed.mechanism, Duration::from_millis(fed.period_ms));
    let fault_plan = fed.fault_plan();
    let handle = spawn_node(
        &spec,
        node,
        fed.seed,
        qant_cfg,
        fault_plan.link(node).clone(),
        epoch,
        telemetry.clone(),
    );

    let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // The discovery contract: qa-ctl (and the loopback tests) parse this
    // exact line to learn the ephemeral port. It must stay the *first*
    // line — `read_announced_addr` reads exactly one.
    println!("qad listening {bound}");
    let _ = std::io::stdout().flush();

    if let Some(addr) = metrics_addr {
        let registry = telemetry
            .registry()
            .cloned()
            .ok_or("--metrics-addr requires live telemetry (registry missing)")?;
        let metrics_bound = crate::metrics_http::serve_metrics(addr, registry)?;
        println!("qad metrics {metrics_bound}");
        let _ = std::io::stdout().flush();
    }

    let conn_cfg = ConnConfig {
        epoch,
        ..ConnConfig::default()
    };
    loop {
        let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let session = match Connection::accept(stream, node as u32, &conn_cfg, &telemetry) {
            Ok((conn, rx)) => {
                serve_session(Arc::new(conn), rx, &handle.sender, node as u32, &telemetry)
            }
            // A failed handshake (wrong version, port scanner, truncated
            // hello) poisons only that socket.
            Err(_) => SessionEnd::PeerGone,
        };
        if matches!(session, SessionEnd::Shutdown) {
            break;
        }
    }
    handle.shutdown();
    Ok(())
}

/// Pumps one driver connection: requests fan in to the node worker's
/// mailbox, and the worker answers each one straight onto this
/// connection's writer queue, under the request's token. The *node*
/// processes strictly in order; a reply it lets go of unanswered (a fault
/// draw) sends nothing, so it cannot wedge the session.
fn serve_session(
    conn: Arc<Connection>,
    rx: std::sync::mpsc::Receiver<WireMsg>,
    mailbox: &std::sync::mpsc::Sender<NodeMsg>,
    node: u32,
    telemetry: &Telemetry,
) -> SessionEnd {
    /// The reply that frames its answer with `wrap` and queues it on `conn`.
    fn over<T>(
        conn: &Arc<Connection>,
        wrap: impl FnOnce(T) -> WireMsg + Send + 'static,
    ) -> Reply<T> {
        let conn = Arc::clone(conn);
        Reply::new(move |answer: Option<T>| {
            if let Some(answer) = answer {
                let _ = conn.send(wrap(answer));
            }
        })
    }

    // The inverse of `TcpTransport::send`: each request frame becomes the
    // `NodeMsg` it encodes, answered over the wire under the frame's token.
    for wire in rx {
        let msg = match wire {
            WireMsg::Estimate { token, sql } => {
                let reply = over(&conn, move |r: EstimateReply| WireMsg::EstimateReply {
                    token,
                    node: r.node as u32,
                    exec_ms: r.exec_ms,
                });
                NodeMsg::Estimate { sql, reply }
            }
            WireMsg::CallForOffers { token, class, sql } => {
                let reply = over(&conn, move |r: OfferReply| WireMsg::OfferReply {
                    token,
                    node: r.node as u32,
                    offered: r.offered,
                    completion_ms: r.completion_ms,
                });
                let class = qa_workload::ClassId(class);
                NodeMsg::CallForOffers { class, sql, reply }
            }
            WireMsg::Execute { token, class, sql } => {
                let reply = over(&conn, move |r: ExecReply| WireMsg::ExecReply {
                    token,
                    node: r.node as u32,
                    rows: r.rows as u64,
                    exec_ms: r.exec_ms,
                    error: r.error,
                });
                let class = qa_workload::ClassId(class);
                NodeMsg::Execute { sql, class, reply }
            }
            WireMsg::DumpPrices { token } => {
                let reply = over(&conn, move |r: PricesReply| WireMsg::Prices {
                    token,
                    node: r.node as u32,
                    prices: r.prices,
                });
                NodeMsg::DumpPrices { reply }
            }
            WireMsg::PeriodTick => NodeMsg::PeriodTick,
            WireMsg::StatsRequest { token } => {
                // Answered inline from the registry, *not* via the node
                // mailbox: a stats scrape must stay responsive even when
                // the single-worker node is saturated by a long query.
                let json = telemetry
                    .registry()
                    .map(|r| r.snapshot().dump())
                    .unwrap_or_else(|| "{}".to_string());
                let _ = conn.send(WireMsg::StatsReply { token, node, json });
                continue;
            }
            WireMsg::Shutdown => return SessionEnd::Shutdown,
            // Handshake frames are consumed by Connection::accept; reply
            // frames are never driver → server. Ignore rather than die:
            // a confused peer costs nothing.
            _ => continue,
        };
        // A closed mailbox means the node worker is gone.
        if mailbox.send(msg).is_err() {
            return SessionEnd::Shutdown;
        }
    }
    SessionEnd::PeerGone
}

/// Entry point for the `qad` binary. Returns the process exit code.
///
/// Usage: `qad --listen ADDR --node-id N --config FILE [--trace FILE]
/// [--metrics-addr ADDR]`
pub fn qad_main(args: &[String]) -> i32 {
    let mut listen = None;
    let mut node_id = None;
    let mut config = None;
    let mut trace = None;
    let mut metrics_addr = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let parsed = match arg.as_str() {
            "--listen" => take("--listen").map(|v| listen = Some(v)),
            "--node-id" => take("--node-id").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| node_id = Some(n))
                    .map_err(|e| format!("--node-id: {e}"))
            }),
            "--config" => take("--config").map(|v| config = Some(v)),
            "--trace" => take("--trace").map(|v| trace = Some(v)),
            "--metrics-addr" => take("--metrics-addr").map(|v| metrics_addr = Some(v)),
            "--help" | "-h" => {
                println!(
                    "usage: qad --listen ADDR --node-id N --config FILE \
                     [--trace FILE] [--metrics-addr ADDR]"
                );
                return 0;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("qad: {e}");
            return 2;
        }
    }
    let (Some(listen), Some(node), Some(config)) = (listen, node_id, config) else {
        eprintln!("qad: --listen, --node-id and --config are required (see --help)");
        return 2;
    };
    let fed = match FedConfig::load(&config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("qad: config: {e}");
            return 2;
        }
    };
    // Metrics are always live (the stats scrape and `--metrics-addr`
    // both read the registry); only the *event stream* is opt-in.
    let telemetry = match &trace {
        None => Telemetry::metrics_only(),
        Some(path) => match Telemetry::to_file(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("qad: trace {path}: {e}");
                return 2;
            }
        },
    };
    match serve(node, &listen, metrics_addr.as_deref(), &fed, telemetry) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("qad: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_json() {
        let cfg = FedConfig::example();
        let parsed = FedConfig::parse(&cfg.dump()).expect("own dump must parse");
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn seeds_above_i64_max_round_trip() {
        for seed in [i64::MAX as u64 + 1, u64::MAX] {
            let cfg = FedConfig {
                spec_seed: seed,
                seed,
                ..FedConfig::example()
            };
            assert_eq!(FedConfig::parse(&cfg.dump()), Ok(cfg));
        }
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert!(FedConfig::parse("{\"num_nodez\": 5}").is_err(), "typo key");
        assert!(FedConfig::parse("{\"mechanism\": \"qnat\"}").is_err());
        assert!(FedConfig::parse("{\"drop_prob\": 1.5}").is_err());
        assert!(FedConfig::parse("{\"drop_prob\": 2}").is_err());
        assert!(FedConfig::parse("{\"num_nodes\": 1}").is_err());
        assert!(FedConfig::parse("{\"period_ms\": 0}").is_err());
        assert_eq!(
            FedConfig::parse("{\"max_retries\": 4294967296}"),
            Err("field \"max_retries\": exceeds u32".to_string())
        );
        assert!(FedConfig::parse("[]").is_err(), "must be an object");
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let cfg = FedConfig::parse("{\"mechanism\": \"greedy\", \"seed\": 77}").unwrap();
        assert_eq!(cfg.mechanism, ClusterMechanism::Greedy);
        assert_eq!(cfg.seed, 77);
        assert_eq!(cfg.num_nodes, FedConfig::example().num_nodes);
    }

    #[test]
    fn spec_regeneration_is_deterministic() {
        let cfg = FedConfig::example();
        let a = cfg.spec();
        let b = cfg.spec();
        assert_eq!(a.num_nodes, b.num_nodes);
        assert_eq!(a.slowdown, b.slowdown);
        assert_eq!(
            a.classes.iter().map(|c| c.id).collect::<Vec<_>>(),
            b.classes.iter().map(|c| c.id).collect::<Vec<_>>()
        );
    }
}
