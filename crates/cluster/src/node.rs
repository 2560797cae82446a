//! The node thread: the threaded shell around the seller
//! ([`NodeProtocol`]) — a live minidb instance, a mailbox and a link.
//!
//! Each node is one OS thread with a mailbox. It processes messages
//! strictly in order, exactly like a saturated single-worker DBMS: while a
//! query executes, `EXPLAIN`/estimate requests queue behind it — the
//! mechanism behind the paper's "the slowest of the PCs took up to 3
//! seconds to evaluate an EXPLAIN PLAN statement". What a request does to
//! prices, supply and backlog is the seller's business; this file
//! estimates costs, executes, sleeps the modelled latencies, draws the
//! link faults and sends the replies.
//!
//! Cost estimation is the paper's two-step §5.2 scheme: `EXPLAIN` the
//! query, then use per-plan-fingerprint execution history
//! ([`qa_core::PlanHistoryEstimator`]) to correct the optimizer's prior.

use crate::protocol::NodeProtocol;
use crate::setup::ClusterSpec;
use qa_core::{PlanHistoryEstimator, QantConfig};
use qa_minidb::Database;
use qa_simnet::telemetry::{Telemetry, TelemetryEvent};
use qa_simnet::{DetRng, LinkFaults, SimTime};
use qa_workload::ClassId;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Salt separating each node's fault stream from its price-jitter stream.
const FAULT_SALT: u64 = 0xFA17_0002;

/// One request's way back to whoever asked. The carrier owns the return
/// path: answering calls it with `Some(value)` on the answering thread, and
/// a reply dropped unanswered — a fault draw, a crashed node, a failed
/// pending table, a schedule's drop — calls it with `None`, so the asker
/// learns the reply is *lost* at that moment instead of waiting out a
/// deadline.
pub struct Reply<T>(Option<Box<dyn FnOnce(Option<T>) + Send>>);

impl<T> Reply<T> {
    /// A reply that ends in `deliver`: called exactly once, with the answer
    /// or with `None` when the reply was lost.
    pub fn new(deliver: impl FnOnce(Option<T>) + Send + 'static) -> Reply<T> {
        Reply(Some(Box::new(deliver)))
    }

    /// Answers the request.
    pub fn send(mut self, value: T) {
        if let Some(deliver) = self.0.take() {
            deliver(Some(value));
        }
    }
}

impl<T: Send + 'static> Reply<T> {
    /// A reply whose answer goes into `tx`; a lost one just lets go of it.
    pub(crate) fn to(tx: Sender<T>) -> Reply<T> {
        Reply::new(move |value| {
            if let Some(value) = value {
                let _ = tx.send(value);
            }
        })
    }

    /// A reply read from a channel: the receiver yields the answer, or
    /// disconnects when the reply is lost.
    pub fn channel() -> (Reply<T>, Receiver<T>) {
        let (tx, rx) = channel();
        (Reply::to(tx), rx)
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        if let Some(deliver) = self.0.take() {
            deliver(None);
        }
    }
}

/// A message to a node: the one request vocabulary every carrier speaks
/// (mailbox, wire, virtual network).
pub enum NodeMsg {
    /// Greedy's estimate poll: reply with the history-corrected execution
    /// estimate (EXPLAIN + history), *without* queue information — the
    /// client cannot see other clients' outstanding work (§4's greedy).
    Estimate {
        /// The SQL to estimate.
        sql: String,
        /// Where to send the reply.
        reply: Reply<EstimateReply>,
    },
    /// QA-NT's call-for-offers.
    CallForOffers {
        /// The query's class.
        class: ClassId,
        /// The SQL (for the execution-time estimate backing the offer).
        sql: String,
        /// Where to send the reply.
        reply: Reply<OfferReply>,
    },
    /// Execute a query (the accepted assignment).
    Execute {
        /// The SQL.
        sql: String,
        /// Class (for QA-NT supply bookkeeping).
        class: ClassId,
        /// Where to send the result.
        reply: Reply<ExecReply>,
    },
    /// A QA-NT period boundary.
    PeriodTick,
    /// Report the node's current per-class price vector (empty for a
    /// Greedy node, which has no market state). Used by operator tooling
    /// (`qa-ctl prices`) to inspect a live federation.
    DumpPrices {
        /// Where to send the reply.
        reply: Reply<PricesReply>,
    },
    /// Shut the node down.
    Shutdown,
}

impl NodeMsg {
    /// The request's name in errors and drop reports.
    pub fn phase(&self) -> &'static str {
        match self {
            NodeMsg::Estimate { .. } => "estimate",
            NodeMsg::CallForOffers { .. } => "offer",
            NodeMsg::Execute { .. } => "execute",
            NodeMsg::PeriodTick => "tick",
            NodeMsg::DumpPrices { .. } => "prices",
            NodeMsg::Shutdown => "shutdown",
        }
    }
}

/// Reply to [`NodeMsg::Estimate`].
#[derive(Debug, Clone, Copy)]
pub struct EstimateReply {
    /// The responding node.
    pub node: usize,
    /// History-corrected execution estimate (ms).
    pub exec_ms: f64,
}

/// Reply to [`NodeMsg::CallForOffers`].
#[derive(Debug, Clone, Copy)]
pub struct OfferReply {
    /// The responding node.
    pub node: usize,
    /// Whether the node offers (QA-NT supply available).
    pub offered: bool,
    /// Estimated completion (queue backlog + execution), ms. The server
    /// voluntarily includes its own backlog — autonomy-preserving.
    pub completion_ms: f64,
}

/// Reply to [`NodeMsg::Execute`].
#[derive(Debug, Clone)]
pub struct ExecReply {
    /// The executing node.
    pub node: usize,
    /// Rows returned (row count only; the driver does not need payloads).
    pub rows: usize,
    /// Measured execution time (ms, wall clock including slowdown).
    pub exec_ms: f64,
    /// Error text, if the query failed.
    pub error: Option<String>,
}

/// Reply to [`NodeMsg::DumpPrices`].
#[derive(Debug, Clone)]
pub struct PricesReply {
    /// The responding node.
    pub node: usize,
    /// Per-class private prices (empty when the node runs no market).
    pub prices: Vec<f64>,
}

/// A handle to a spawned node.
pub struct NodeHandle {
    /// The node index.
    pub id: usize,
    /// Its mailbox.
    pub sender: Sender<NodeMsg>,
    join: JoinHandle<()>,
}

impl NodeHandle {
    /// Requests shutdown and joins the thread.
    pub fn shutdown(self) {
        let _ = self.sender.send(NodeMsg::Shutdown);
        let _ = self.join.join();
    }
}

/// Internal node state.
struct NodeWorker {
    id: usize,
    db: Database,
    estimator: PlanHistoryEstimator,
    spec_classes: Vec<(ClassId, String)>,
    slowdown: f64,
    link_latency: Duration,
    inbox: Receiver<NodeMsg>,
    /// Fault behaviour of this node's link (negotiation replies only —
    /// see [`NodeWorker::run`]). [`LinkFaults::none`] is zero-cost.
    faults: LinkFaults,
    /// Dedicated fault stream; untouched when `faults` is disabled.
    fault_rng: DetRng,
    /// Wall-clock origin mapping outage windows (virtual [`SimTime`]
    /// offsets) onto this run's elapsed time.
    epoch: Instant,
    /// Telemetry handle labelled with this node's index. The shared clock
    /// is stamped from `epoch.elapsed()` per message, so cluster traces
    /// carry wall-clock timestamps (and are *not* byte-deterministic,
    /// unlike the simulator's).
    telemetry: Telemetry,
    /// Wall clock of the last period tick, for the period-duration
    /// histogram.
    last_tick: Instant,
}

/// Spawns a node thread: loads its share of the data, optionally arms the
/// QA-NT market (with jittered initial prices), and serves its mailbox.
///
/// Its *negotiation replies* traverse a link that may be faulty
/// ([`LinkFaults::none`] for a healthy one): estimate and offer replies
/// may be dropped (per `faults.drop_prob` and its outage windows, with
/// window offsets measured from `epoch`) or delayed by jitter. `Execute`
/// replies are never dropped — assignments travel over a reliable
/// (TCP-like) connection, matching the paper's deployment where only the
/// chatty estimate traffic crossed the flaky wireless link. The fault
/// stream is seeded from `data_seed` and the node index, so a run is
/// reproducible given its spec and seed.
///
/// `telemetry` observes the node's market events and reply losses; it is
/// relabelled with the node index, and its clock is stamped from
/// `epoch.elapsed()` (wall-clock) per message. Pass
/// [`Telemetry::disabled`] for a silent node.
pub fn spawn_node(
    spec: &ClusterSpec,
    node: usize,
    data_seed: u64,
    qant_config: Option<QantConfig>,
    faults: LinkFaults,
    epoch: Instant,
    telemetry: Telemetry,
) -> NodeHandle {
    let (tx, rx) = channel();
    let statements = spec.node_statements(node);
    let tables: Vec<(String, Vec<qa_minidb::value::Row>)> = spec
        .tables
        .iter()
        .filter(|t| t.copies.contains(&node))
        .map(|t| (t.name.clone(), spec.table_rows(t, data_seed)))
        .collect();
    // A representative instance of each locally-evaluable class, used to
    // refresh per-class execution estimates at each period tick.
    let spec_classes: Vec<(ClassId, String)> = spec
        .classes
        .iter()
        .filter(|c| spec.capable_nodes(c.id).contains(&node))
        .map(|c| (c.id, c.instantiate((c.const_range.0 + c.const_range.1) / 2)))
        .collect();
    let slowdown = spec.slowdown[node];
    let link_latency = Duration::from_micros(spec.link_latency_us[node]);
    let num_classes = spec.classes.len();
    let telemetry = telemetry.with_label(node as u32);
    let node_seed = data_seed ^ (node as u64).wrapping_mul(0x9E37);
    let mut seller = NodeProtocol::new(node, num_classes, qant_config, node_seed, &telemetry);
    let fault_rng = DetRng::seed_from_u64(node_seed ^ FAULT_SALT);
    let join = std::thread::Builder::new()
        .name(format!("qa-node-{node}"))
        .spawn(move || {
            let mut db = Database::new();
            for s in &statements {
                // Programmer-error invariant: `ClusterSpec` generates this
                // DDL itself; a parse/execution failure means the generator
                // and the engine disagree, which no retry can fix.
                db.execute(s).expect("spec-generated DDL must execute");
            }
            for (name, rows) in tables {
                // Same invariant: rows are generated to match the schema.
                db.load_rows(&name, rows)
                    .expect("spec-generated rows must match the schema");
            }
            let mut worker = NodeWorker {
                id: node,
                db,
                estimator: PlanHistoryEstimator::new(0.3, 0.01),
                spec_classes,
                slowdown,
                link_latency,
                inbox: rx,
                faults,
                fault_rng,
                epoch,
                telemetry,
                last_tick: Instant::now(),
            };
            worker.init_market(&mut seller);
            worker.run(&mut seller);
        })
        // Programmer-error invariant: thread spawning only fails on OS
        // resource exhaustion, which the experiment cannot run through.
        .expect("spawn node thread");
    NodeHandle {
        id: node,
        sender: tx,
        join,
    }
}

impl NodeWorker {
    /// Warms the plan-history estimator with one real execution per local
    /// class, then opens the market. The paper's two-step estimator is
    /// defined in terms of "past execution information"; without any, the
    /// optimizer-cost prior is in plan units, not milliseconds, and a cold
    /// market would reject everything until the first executions land.
    fn init_market(&mut self, seller: &mut NodeProtocol) {
        self.telemetry
            .set_now_us(self.epoch.elapsed().as_micros() as u64);
        for (_, sql) in &self.spec_classes {
            let started = Instant::now();
            if self.db.query(sql).is_ok() {
                let engine_ms = started.elapsed().as_secs_f64() * 1e3;
                if let Ok(ex) = self.db.explain(sql) {
                    self.estimator.observe_ms(ex.fingerprint, engine_ms);
                }
            }
        }
        seller.open_market(|k| self.class_costs(k));
    }

    /// Execution estimates (ms) of the `k` classes, `None` for those this
    /// node cannot evaluate.
    fn class_costs(&self, k: usize) -> Vec<Option<f64>> {
        let mut costs = vec![None; k];
        for (id, sql) in &self.spec_classes {
            costs[id.index()] = self.estimate_ms(sql).ok();
        }
        costs
    }

    /// The two-step estimate for one SQL string.
    fn estimate_ms(&self, sql: &str) -> Result<f64, qa_minidb::DbError> {
        Ok(self.estimate_of(&self.db.explain(sql)?))
    }

    /// The two-step estimate for one planned query.
    fn estimate_of(&self, plan: &qa_minidb::Explain) -> f64 {
        self.estimator
            .estimate_ms(plan.fingerprint, plan.root.cost)
            .max(0.01)
            * self.slowdown
    }

    /// Sends a negotiation reply over the link: the one-way latency plus
    /// jitter first, then the loss draw. A dropped reply is let go
    /// unanswered, which tells the client it is lost. A disabled fault
    /// plan draws nothing.
    fn reply_over_link<R>(&mut self, reply: Reply<R>, value: R, context: &'static str) {
        let faulty = !self.faults.is_none();
        let jitter = if faulty {
            Duration::from_micros(self.faults.sample_jitter(&mut self.fault_rng).as_micros())
        } else {
            Duration::ZERO
        };
        std::thread::sleep(self.link_latency + jitter);
        let delivered = !faulty || {
            let at = SimTime::from_micros(self.epoch.elapsed().as_micros() as u64);
            self.faults.delivers(at, &mut self.fault_rng)
        };
        if delivered {
            reply.send(value);
        } else {
            let telemetry = &self.telemetry;
            telemetry.emit(|| TelemetryEvent::MessageDropped {
                node: telemetry.label(),
                context: context.to_string(),
            });
        }
    }

    fn run(&mut self, seller: &mut NodeProtocol) {
        while let Ok(msg) = self.inbox.recv() {
            self.telemetry
                .set_now_us(self.epoch.elapsed().as_micros() as u64);
            match msg {
                NodeMsg::Estimate { sql, reply } => {
                    let exec_ms = self.estimate_ms(&sql).unwrap_or(f64::INFINITY);
                    self.reply_over_link(reply, seller.estimate(exec_ms), "estimate_reply");
                }
                NodeMsg::CallForOffers { class, sql, reply } => {
                    let estimate = || self.estimate_ms(&sql).unwrap_or(f64::INFINITY);
                    let offer = seller.offer(class, estimate);
                    self.reply_over_link(reply, offer, "offer_reply");
                }
                NodeMsg::Execute { sql, class, reply } => {
                    // Planned once: the estimate and the history both read
                    // this plan.
                    let plan = self.db.explain(&sql).ok();
                    let est = plan.as_ref().map_or(0.0, |p| self.estimate_of(p));
                    seller.accept(class, est);
                    let started = Instant::now();
                    let outcome = self.db.query(&sql);
                    let raw_ms = started.elapsed().as_secs_f64() * 1e3;
                    // Heterogeneous hardware: slow nodes take
                    // proportionally longer (real sleep, real wall time).
                    let extra = raw_ms * (self.slowdown - 1.0);
                    if extra > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(extra / 1e3));
                    }
                    let exec_ms = started.elapsed().as_secs_f64() * 1e3;
                    seller.executed(est, exec_ms, outcome.is_ok());
                    if let Some(plan) = plan {
                        // `estimate_of` multiplies by the slowdown, so the
                        // history learns the raw engine time: that keeps
                        // the two-step scheme consistent.
                        self.estimator
                            .observe_ms(plan.fingerprint, exec_ms / self.slowdown);
                    }
                    // Execute replies are never fault-dropped: assignments
                    // travel over a reliable (TCP-like) connection; only
                    // the chatty negotiation traffic is lossy. A node
                    // *crash* still loses them — the request is dropped.
                    std::thread::sleep(self.link_latency);
                    let (rows, error) = match outcome {
                        Ok(res) => (res.rows.len(), None),
                        Err(e) => (0, Some(e.to_string())),
                    };
                    reply.send(ExecReply {
                        node: self.id,
                        rows,
                        exec_ms,
                        error,
                    });
                }
                NodeMsg::PeriodTick => {
                    let since_last_ms = self.last_tick.elapsed().as_secs_f64() * 1e3;
                    self.last_tick = Instant::now();
                    seller.tick(since_last_ms, |k| self.class_costs(k));
                }
                NodeMsg::DumpPrices { reply } => {
                    reply.send(seller.prices());
                }
                NodeMsg::Shutdown => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::generate(3, 4, 6, 8, 4, 60)
    }

    /// A silent node on `faults`.
    fn spawn(
        s: &ClusterSpec,
        node: usize,
        cfg: Option<QantConfig>,
        faults: LinkFaults,
    ) -> NodeHandle {
        spawn_node(
            s,
            node,
            99,
            cfg,
            faults,
            Instant::now(),
            Telemetry::disabled(),
        )
    }

    #[test]
    fn a_reply_reports_exactly_once_answered_or_lost() {
        let (seen, reports) = channel();
        let reply = |tag| {
            let seen = seen.clone();
            Reply::new(move |answer: Option<u32>| seen.send((tag, answer)).unwrap())
        };
        reply("answered").send(7);
        drop(reply("dropped"));
        // Lost inside whatever owned it — a message, a pending table.
        drop(vec![Some(reply("owned"))]);
        let want = [("answered", Some(7)), ("dropped", None), ("owned", None)];
        assert_eq!(reports.try_iter().collect::<Vec<_>>(), want);

        let (reply, rx) = Reply::channel();
        reply.send(1);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [1]);
        let (reply, rx) = Reply::<u32>::channel();
        drop(reply);
        assert_eq!(rx.recv(), Err(std::sync::mpsc::RecvError));
    }

    #[test]
    fn node_answers_estimates_and_executes() {
        let s = spec();
        let class = &s.classes[0];
        let node = s.capable_nodes(class.id)[0];
        let h = spawn(&s, node, None, LinkFaults::none());
        let sql = class.instantiate(100);

        let (tx, rx) = Reply::channel();
        h.sender
            .send(NodeMsg::Estimate {
                sql: sql.clone(),
                reply: tx,
            })
            .unwrap();
        let est = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(est.node, node);
        assert!(est.exec_ms.is_finite() && est.exec_ms > 0.0);

        let (tx, rx) = Reply::channel();
        h.sender
            .send(NodeMsg::Execute {
                sql,
                class: class.id,
                reply: tx,
            })
            .unwrap();
        let res = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(res.error.is_none(), "{:?}", res.error);
        assert!(res.exec_ms > 0.0);
        h.shutdown();
    }

    /// A node thread parses SQL straight off the wire. About 1 MiB of
    /// nested parentheses, which overflowed its default-sized stack, gets
    /// an infinite estimate and an error reply, and the node then serves
    /// its next request.
    #[test]
    fn node_survives_deeply_nested_sql() {
        let s = spec();
        let class = &s.classes[0];
        let node = s.capable_nodes(class.id)[0];
        let h = spawn(&s, node, None, LinkFaults::none());
        let half = 1 << 19;
        let deep = format!("SELECT {}1{} FROM t00", "(".repeat(half), ")".repeat(half));
        let estimate = |sql: String| {
            let (tx, rx) = Reply::channel();
            h.sender.send(NodeMsg::Estimate { sql, reply: tx }).unwrap();
            rx.recv_timeout(Duration::from_secs(10)).unwrap().exec_ms
        };
        assert_eq!(estimate(deep.clone()), f64::INFINITY);

        let (tx, rx) = Reply::channel();
        h.sender
            .send(NodeMsg::Execute {
                sql: deep,
                class: class.id,
                reply: tx,
            })
            .unwrap();
        let res = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(
            res.error
                .as_deref()
                .is_some_and(|e| e.contains("deeper than")),
            "{:?}",
            res.error
        );

        assert!(estimate(class.instantiate(100)).is_finite());
        h.shutdown();
    }

    /// Measures the node's own estimate for the class so tests can size
    /// the market period to a handful of supply units.
    fn calibrated_period_ms(s: &ClusterSpec, node: usize, sql: &str) -> f64 {
        let h = spawn(s, node, None, LinkFaults::none());
        let (tx, rx) = Reply::channel();
        h.sender
            .send(NodeMsg::Estimate {
                sql: sql.to_string(),
                reply: tx,
            })
            .unwrap();
        let est = rx.recv_timeout(Duration::from_secs(10)).unwrap().exec_ms;
        h.shutdown();
        (est * 3.0).max(0.05)
    }

    #[test]
    fn lossy_link_drops_negotiation_but_not_execution() {
        let s = spec();
        let class = &s.classes[0];
        let node = s.capable_nodes(class.id)[0];
        let h = spawn(&s, node, None, LinkFaults::lossy(1.0));
        let sql = class.instantiate(100);

        // Negotiation reply is dropped: the reply is let go unanswered, so
        // the client observes a disconnect, not a value.
        let (tx, rx) = Reply::channel();
        h.sender
            .send(NodeMsg::Estimate {
                sql: sql.clone(),
                reply: tx,
            })
            .unwrap();
        assert!(
            rx.recv_timeout(Duration::from_secs(10)).is_err(),
            "estimate reply must be dropped on a fully lossy link"
        );

        // Execution replies ride the reliable connection regardless.
        let (tx, rx) = Reply::channel();
        h.sender
            .send(NodeMsg::Execute {
                sql,
                class: class.id,
                reply: tx,
            })
            .unwrap();
        let res = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(res.error.is_none(), "{:?}", res.error);
        h.shutdown();
    }

    #[test]
    fn qant_node_offers_then_exhausts() {
        let s = spec();
        let class = &s.classes[0];
        let node = s.capable_nodes(class.id)[0];
        let sql = class.instantiate(100);
        let period_ms = calibrated_period_ms(&s, node, &sql);
        let cfg = QantConfig {
            period: qa_simnet::SimDuration::from_millis_f64(period_ms),
            ..QantConfig::default()
        };
        let h = spawn(&s, node, Some(cfg), LinkFaults::none());
        // Alternate requests with period ticks: rejections raise the
        // class's private price until the node supplies it; sustained
        // requests then exhaust each period's supply again. Both market
        // events must occur.
        let mut offers = 0;
        let mut rejections = 0;
        for _ in 0..300 {
            let (tx, rx) = Reply::channel();
            h.sender
                .send(NodeMsg::CallForOffers {
                    class: class.id,
                    sql: sql.clone(),
                    reply: tx,
                })
                .unwrap();
            let o = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            if o.offered {
                offers += 1;
                let (tx, rx) = Reply::channel();
                h.sender
                    .send(NodeMsg::Execute {
                        sql: sql.clone(),
                        class: class.id,
                        reply: tx,
                    })
                    .unwrap();
                let _ = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            } else {
                rejections += 1;
                h.sender.send(NodeMsg::PeriodTick).unwrap();
            }
            if offers > 3 && rejections > 3 {
                break;
            }
        }
        assert!(offers > 0, "node must offer once prices adapt");
        assert!(rejections > 0, "supply must exhaust within periods");
        h.shutdown();
    }

    #[test]
    fn period_tick_replenishes_supply() {
        let s = spec();
        let class = &s.classes[0];
        let node = s.capable_nodes(class.id)[0];
        let sql = class.instantiate(100);
        let period_ms = calibrated_period_ms(&s, node, &sql);
        let cfg = QantConfig {
            period: qa_simnet::SimDuration::from_millis_f64(period_ms),
            ..QantConfig::default()
        };
        let h = spawn(&s, node, Some(cfg), LinkFaults::none());
        let offer = |h: &NodeHandle| {
            let (tx, rx) = Reply::channel();
            h.sender
                .send(NodeMsg::CallForOffers {
                    class: class.id,
                    sql: sql.clone(),
                    reply: tx,
                })
                .unwrap();
            rx.recv_timeout(Duration::from_secs(10)).unwrap().offered
        };
        // Exhaust (bounded: the calibrated period holds only a few units).
        let mut guard = 0;
        while offer(&h) && guard < 500 {
            guard += 1;
            let (tx, rx) = Reply::channel();
            h.sender
                .send(NodeMsg::Execute {
                    sql: sql.clone(),
                    class: class.id,
                    reply: tx,
                })
                .unwrap();
            let _ = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        // Several ticks (prices decay, supply recomputes with carry).
        for _ in 0..4 {
            h.sender.send(NodeMsg::PeriodTick).unwrap();
        }
        assert!(offer(&h), "supply must replenish after period ticks");
        h.shutdown();
    }

    #[test]
    fn estimator_learns_from_executions() {
        let s = spec();
        let class = &s.classes[0];
        let node = s.capable_nodes(class.id)[0];
        let h = spawn(&s, node, None, LinkFaults::none());
        let sql = class.instantiate(100);
        let estimate = |h: &NodeHandle| {
            let (tx, rx) = Reply::channel();
            h.sender
                .send(NodeMsg::Estimate {
                    sql: sql.clone(),
                    reply: tx,
                })
                .unwrap();
            rx.recv_timeout(Duration::from_secs(10)).unwrap().exec_ms
        };
        let cold = estimate(&h);
        for _ in 0..3 {
            let (tx, rx) = Reply::channel();
            h.sender
                .send(NodeMsg::Execute {
                    sql: sql.clone(),
                    class: class.id,
                    reply: tx,
                })
                .unwrap();
            let _ = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let warm = estimate(&h);
        // After observations, the estimate must track measured wall time
        // rather than the cost prior (which is in arbitrary units).
        assert!(warm.is_finite() && cold.is_finite());
        assert!(warm > 0.0);
        h.shutdown();
    }
}
