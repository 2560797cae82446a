//! A deterministic, schedule-driven [`Transport`]: the virtual network
//! under the model-checking harness in [`crate::explore`].
//!
//! Where [`crate::transport::ChannelTransport`] runs real node threads
//! and [`crate::transport::TcpTransport`] real sockets, `SimTransport`
//! runs **model nodes** (the market state machine without minidb or
//! threads) over an in-memory message queue, and resolves every piece of
//! nondeterminism — which in-flight message is delivered next, whether a
//! request or its reply is dropped, when a node crashes — through an
//! explicit [`Schedule`]. One schedule = one fully deterministic
//! interleaving; a seed or a recorded choice trail replays it exactly.
//!
//! The driver side stays the real [`Transport`] contract: requests are
//! asynchronous sends whose replies arrive on the caller's `Sender` or
//! never do, a send to a crashed node fails immediately, and a dropped
//! reply surfaces as a disconnected `Receiver`. The protocol under test
//! cannot tell this network from the threaded one — which is the point.
//!
//! Query identity crosses the seam the same way it does over TCP: encoded
//! in the SQL text. The harness formats requests as
//! `"q=<id> gen=<generation> class=<class>"` (see [`encode_sql`]), and
//! model nodes log every execution as a `(query, generation)` pair so the
//! invariant checks can audit double assignment across crash re-entry.

use crate::error::ClusterError;
use crate::node::{EstimateReply, ExecReply, OfferReply, PricesReply};
use crate::transport::Transport;
use qa_simnet::sched::Schedule;
use qa_simnet::telemetry::{PriceReason, Telemetry, TelemetryEvent};
use qa_workload::ClassId;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

/// Multiplicative price raise on rejection (§3.1's `×(1 + λ)`).
const LAMBDA: f64 = 0.25;
/// Multiplicative price decay on leftover supply at period end (§3.2).
const MU: f64 = 0.10;
/// Prices never decay below this floor.
const PRICE_FLOOR: f64 = 1e-6;
/// Virtual microseconds per delivered network step (telemetry clock).
const STEP_US: u64 = 1_000;

/// Formats the harness SQL carrying query identity across the transport
/// seam.
pub fn encode_sql(query: u64, generation: u32, class: ClassId) -> String {
    format!("q={query} gen={generation} class={}", class.0)
}

/// Parses one `key=value` field out of a harness SQL string.
fn sql_field(sql: &str, key: &str) -> Option<u64> {
    sql.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// One committed execution on a model node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// The query's trace index.
    pub query: u64,
    /// The assignment generation that executed it.
    pub generation: u32,
}

/// The market state machine of one model node: per-class private prices
/// and per-period supply, a backlog estimate, and an execution audit log.
#[derive(Debug, Clone)]
pub struct SimNodeState {
    /// Node index.
    pub id: usize,
    /// `true` once crashed (schedule-chosen or driver-injected).
    pub crashed: bool,
    /// Per-class private prices.
    pub prices: Vec<f64>,
    /// Per-class units still offered this period.
    pub supply: Vec<u32>,
    /// Per-class base execution estimate in milliseconds.
    pub exec_ms: Vec<f64>,
    /// Queued work in milliseconds (completion-time estimates add this).
    pub backlog_ms: f64,
    /// Every execution this node ever committed, in order.
    pub executions: Vec<Execution>,
    /// Per-class supply level restored at each period boundary.
    period_supply_level: u32,
}

impl SimNodeState {
    fn new(id: usize, num_classes: usize, supply_per_period: u32) -> SimNodeState {
        SimNodeState {
            id,
            crashed: false,
            prices: vec![1.0; num_classes],
            supply: vec![supply_per_period; num_classes],
            // Heterogeneous but deterministic: node i is (1 + i/4)× the
            // base cost, and each class is 10 ms heavier than the last.
            exec_ms: (0..num_classes)
                .map(|c| (10.0 + 10.0 * c as f64) * (1.0 + id as f64 / 4.0))
                .collect(),
            backlog_ms: 0.0,
            executions: Vec::new(),
            period_supply_level: supply_per_period,
        }
    }
}

/// A request parked in the virtual network, waiting for the schedule to
/// deliver or drop it.
enum SimMsg {
    Estimate {
        class: usize,
        reply: Sender<EstimateReply>,
    },
    Offer {
        class: usize,
        reply: Sender<OfferReply>,
    },
    Execute {
        class: usize,
        query: u64,
        generation: u32,
        reply: Sender<ExecReply>,
    },
    Prices {
        reply: Sender<PricesReply>,
    },
    Tick,
}

impl SimMsg {
    fn label(&self) -> &'static str {
        match self {
            SimMsg::Estimate { .. } => "estimate",
            SimMsg::Offer { .. } => "offer",
            SimMsg::Execute { .. } => "execute",
            SimMsg::Prices { .. } => "prices",
            SimMsg::Tick => "tick",
        }
    }
}

struct InFlight {
    node: usize,
    msg: SimMsg,
}

/// Counters the harness reports per schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Network steps taken (deliveries, drops, and crash injections).
    pub steps: u64,
    /// Requests delivered to a node.
    pub delivered: u64,
    /// Requests dropped by the schedule.
    pub dropped_requests: u64,
    /// Replies dropped by the schedule.
    pub dropped_replies: u64,
    /// Virtual steps at which a crash was injected.
    pub crash_steps: Vec<u64>,
}

struct SimWorld {
    nodes: Vec<SimNodeState>,
    inflight: Vec<InFlight>,
    crash_budget: u32,
    stats: NetStats,
    /// When set, every execution is committed twice — a deliberately
    /// broken node used to prove the invariant checker catches it.
    inject_double_exec: bool,
}

/// The schedule handle shared between the virtual network and the
/// harness driver: both resolve their choice points through the same
/// underlying [`Schedule`], so one trail replays the whole run.
#[derive(Clone)]
pub struct SharedSchedule(Arc<Mutex<Box<dyn Schedule + Send>>>);

impl SharedSchedule {
    /// Wraps a schedule for sharing.
    pub fn new(schedule: Box<dyn Schedule + Send>) -> SharedSchedule {
        SharedSchedule(Arc::new(Mutex::new(schedule)))
    }

    /// Resolves one choice point. Arity-1 points resolve to 0 without
    /// consulting (or recording in) the schedule: a forced move is not a
    /// choice, and skipping it keeps the systematic depth budget for
    /// positions that actually branch.
    pub fn choose(&self, point: &'static str, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        self.0.lock().unwrap().choose(point, n)
    }

    /// The schedule's self-description (seed, systematic index, …).
    pub fn describe(&self) -> String {
        self.0.lock().unwrap().describe()
    }

    /// The compact `point:chosen/arity` trail walked so far.
    pub fn trail_string(&self) -> String {
        self.0.lock().unwrap().trail().to_string()
    }

    /// Consumes the wrapper, returning the schedule (for
    /// [`qa_simnet::sched::SystematicExplorer::finish`]).
    ///
    /// # Panics
    /// Panics if other clones of this handle are still alive.
    pub fn into_inner(self) -> Box<dyn Schedule + Send> {
        Arc::try_unwrap(self.0)
            .map_err(|_| ())
            .expect("SharedSchedule still shared")
            .into_inner()
            .unwrap()
    }
}

/// The deterministic virtual-network transport. See the module docs.
pub struct SimTransport {
    world: Mutex<SimWorld>,
    schedule: SharedSchedule,
    telemetry: Telemetry,
}

impl SimTransport {
    /// A fleet of `num_nodes` model nodes, all pricing `num_classes`
    /// classes with `supply_per_period` units each, whose nondeterminism
    /// is resolved by `schedule`. Up to `crash_budget` schedule-chosen
    /// crashes are injected at network steps of the schedule's choosing.
    pub fn new(
        num_nodes: usize,
        num_classes: usize,
        supply_per_period: u32,
        crash_budget: u32,
        schedule: SharedSchedule,
        telemetry: Telemetry,
    ) -> SimTransport {
        SimTransport {
            world: Mutex::new(SimWorld {
                nodes: (0..num_nodes)
                    .map(|id| SimNodeState::new(id, num_classes, supply_per_period))
                    .collect(),
                inflight: Vec::new(),
                crash_budget,
                stats: NetStats::default(),
                inject_double_exec: false,
            }),
            schedule,
            telemetry,
        }
    }

    /// Arms the deliberate double-commit bug (harness self-test: the
    /// invariant checker must flag runs with this set).
    pub fn inject_double_exec(&self) {
        self.world.lock().unwrap().inject_double_exec = true;
    }

    /// Messages currently in the virtual network.
    pub fn pending_messages(&self) -> usize {
        self.world.lock().unwrap().inflight.len()
    }

    /// Snapshot of every model node's state.
    pub fn node_states(&self) -> Vec<SimNodeState> {
        self.world.lock().unwrap().nodes.clone()
    }

    /// Network counters so far.
    pub fn stats(&self) -> NetStats {
        self.world.lock().unwrap().stats.clone()
    }

    /// Un-crashes every node (driver reconnect after recovery). Market
    /// state survives — exactly like a `qad` server outliving its driver.
    pub fn recover_all(&self) {
        let mut world = self.world.lock().unwrap();
        for node in &mut world.nodes {
            if node.crashed {
                node.crashed = false;
                let id = node.id as u32;
                self.telemetry
                    .emit(|| TelemetryEvent::NodeRecovered { node: id });
            }
        }
    }

    /// Takes one schedule-chosen network step: possibly inject a crash,
    /// else pick an in-flight message, decide drop-vs-deliver, process it
    /// on the model node, and decide whether the reply survives. Returns
    /// `false` when the network is idle (nothing in flight, no step
    /// taken).
    pub fn step(&self) -> bool {
        let mut world = self.world.lock().unwrap();
        let world = &mut *world;
        if world.inflight.is_empty() {
            return false;
        }
        world.stats.steps += 1;
        self.telemetry.set_now_us(world.stats.steps * STEP_US);

        // Crash choice point: alternative 0 is "no crash"; alternative
        // 1 + k crashes the k-th live node. Only offered while budget
        // remains and more than one node is still alive.
        let live: Vec<usize> = world
            .nodes
            .iter()
            .filter(|n| !n.crashed)
            .map(|n| n.id)
            .collect();
        if world.crash_budget > 0 && live.len() > 1 {
            let pick = self.schedule.choose("crash", 1 + live.len());
            if pick > 0 {
                let victim = live[pick - 1];
                world.nodes[victim].crashed = true;
                world.crash_budget -= 1;
                let step = world.stats.steps;
                world.stats.crash_steps.push(step);
                // Everything in flight to the victim dies with it; the
                // dropped reply senders disconnect the waiting receivers.
                world.inflight.retain(|m| m.node != victim);
                self.telemetry.emit(|| TelemetryEvent::NodeCrashed {
                    node: victim as u32,
                });
                return true;
            }
        }

        let idx = self.schedule.choose("deliver", world.inflight.len());
        let InFlight { node, msg } = world.inflight.remove(idx);
        if self.schedule.choose("drop", 2) == 1 {
            world.stats.dropped_requests += 1;
            let context = format!("{} request dropped", msg.label());
            self.telemetry.emit(|| TelemetryEvent::MessageDropped {
                node: node as u32,
                context,
            });
            return true; // senders drop here → waiter disconnects
        }
        world.stats.delivered += 1;
        let drop_reply = |world: &mut SimWorld, this: &SimTransport, label: &str| -> bool {
            let dropped = this.schedule.choose("reply_drop", 2) == 1;
            if dropped {
                world.stats.dropped_replies += 1;
                let context = format!("{label} reply dropped");
                this.telemetry.emit(|| TelemetryEvent::MessageDropped {
                    node: node as u32,
                    context,
                });
            }
            dropped
        };
        match msg {
            SimMsg::Estimate { class, reply } => {
                let exec_ms = world.nodes[node].exec_ms[class] + world.nodes[node].backlog_ms;
                if !drop_reply(world, self, "estimate") {
                    let _ = reply.send(EstimateReply { node, exec_ms });
                }
            }
            SimMsg::Offer { class, reply } => {
                let n = &mut world.nodes[node];
                let offered = n.supply[class] > 0;
                let completion_ms = n.backlog_ms + n.exec_ms[class];
                if !offered {
                    // §3.1: a refusal raises the private price ×(1 + λ).
                    let old = n.prices[class];
                    n.prices[class] = old * (1.0 + LAMBDA);
                    let new = n.prices[class];
                    self.telemetry.emit(|| TelemetryEvent::RequestRejected {
                        node: node as u32,
                        class: class as u32,
                    });
                    self.telemetry.emit(|| TelemetryEvent::PriceAdjusted {
                        node: node as u32,
                        class: class as u32,
                        old,
                        new,
                        reason: PriceReason::Rejection,
                    });
                }
                if !drop_reply(world, self, "offer") {
                    let _ = reply.send(OfferReply {
                        node,
                        offered,
                        completion_ms,
                    });
                }
            }
            SimMsg::Execute {
                class,
                query,
                generation,
                reply,
            } => {
                let double = world.inject_double_exec;
                let n = &mut world.nodes[node];
                n.executions.push(Execution { query, generation });
                if double {
                    n.executions.push(Execution { query, generation });
                }
                n.supply[class] = n.supply[class].saturating_sub(1);
                let exec_ms = n.exec_ms[class];
                n.backlog_ms += exec_ms;
                if !drop_reply(world, self, "execute") {
                    let _ = reply.send(ExecReply {
                        node,
                        rows: 1,
                        exec_ms,
                        error: None,
                    });
                }
            }
            SimMsg::Prices { reply } => {
                let prices = world.nodes[node].prices.clone();
                if !drop_reply(world, self, "prices") {
                    let _ = reply.send(PricesReply { node, prices });
                }
            }
            SimMsg::Tick => {
                let n = &mut world.nodes[node];
                for class in 0..n.prices.len() {
                    if n.supply[class] > 0 {
                        // §3.2: leftover supply decays the price.
                        let old = n.prices[class];
                        n.prices[class] = (old * (1.0 - MU)).max(PRICE_FLOOR);
                        let new = n.prices[class];
                        self.telemetry.emit(|| TelemetryEvent::PriceAdjusted {
                            node: node as u32,
                            class: class as u32,
                            old,
                            new,
                            reason: PriceReason::PeriodDecay,
                        });
                    }
                }
                let fresh = n.tick_supply();
                n.backlog_ms = 0.0;
                let budget_ms = n.exec_ms.iter().sum::<f64>();
                let supply: Vec<u64> = fresh.iter().map(|&s| s as u64).collect();
                self.telemetry.emit(|| TelemetryEvent::SupplyComputed {
                    node: node as u32,
                    budget_ms,
                    supply,
                });
            }
        }
        true
    }

    /// Delivers everything still in flight with benign choices (no drops,
    /// FIFO order) and **without** consuming schedule choice points —
    /// the post-run drain the invariant checks use to quiesce the
    /// network before auditing state.
    pub fn drain(&self) {
        loop {
            let msg = {
                let mut world = self.world.lock().unwrap();
                if world.inflight.is_empty() {
                    break;
                }
                world.stats.steps += 1;
                world.stats.delivered += 1;
                world.inflight.remove(0)
            };
            self.deliver_benign(msg);
        }
    }

    /// Processes one message with no loss and no price side channels
    /// beyond the node's normal handling.
    fn deliver_benign(&self, InFlight { node, msg }: InFlight) {
        let mut world = self.world.lock().unwrap();
        let world = &mut *world;
        match msg {
            SimMsg::Estimate { class, reply } => {
                let exec_ms = world.nodes[node].exec_ms[class] + world.nodes[node].backlog_ms;
                let _ = reply.send(EstimateReply { node, exec_ms });
            }
            SimMsg::Offer { class, reply } => {
                let n = &mut world.nodes[node];
                let offered = n.supply[class] > 0;
                let completion_ms = n.backlog_ms + n.exec_ms[class];
                if !offered {
                    let old = n.prices[class];
                    n.prices[class] = old * (1.0 + LAMBDA);
                }
                let _ = reply.send(OfferReply {
                    node,
                    offered,
                    completion_ms,
                });
            }
            SimMsg::Execute {
                class,
                query,
                generation,
                reply,
            } => {
                let double = world.inject_double_exec;
                let n = &mut world.nodes[node];
                n.executions.push(Execution { query, generation });
                if double {
                    n.executions.push(Execution { query, generation });
                }
                n.supply[class] = n.supply[class].saturating_sub(1);
                let exec_ms = n.exec_ms[class];
                n.backlog_ms += exec_ms;
                let _ = reply.send(ExecReply {
                    node,
                    rows: 1,
                    exec_ms,
                    error: None,
                });
            }
            SimMsg::Prices { reply } => {
                let prices = world.nodes[node].prices.clone();
                let _ = reply.send(PricesReply { node, prices });
            }
            SimMsg::Tick => {
                let n = &mut world.nodes[node];
                for class in 0..n.prices.len() {
                    if n.supply[class] > 0 {
                        n.prices[class] = (n.prices[class] * (1.0 - MU)).max(PRICE_FLOOR);
                    }
                }
                n.tick_supply();
                n.backlog_ms = 0.0;
            }
        }
    }

    fn post(&self, phase: &'static str, node: usize, msg: SimMsg) -> Result<(), ClusterError> {
        let mut world = self.world.lock().unwrap();
        if world.nodes[node].crashed {
            return Err(ClusterError::ChannelClosed { phase, node });
        }
        world.inflight.push(InFlight { node, msg });
        Ok(())
    }

    fn class_of(sql: &str) -> usize {
        sql_field(sql, "class").unwrap_or(0) as usize
    }
}

impl SimNodeState {
    /// Period boundary: refills supply to the per-period level inferred
    /// from the starting configuration (uniform across classes). Returns
    /// the fresh supply vector.
    fn tick_supply(&mut self) -> Vec<u32> {
        let level = self.period_supply_level;
        for s in &mut self.supply {
            *s = level;
        }
        self.supply.clone()
    }
}

impl Transport for SimTransport {
    fn num_nodes(&self) -> usize {
        self.world.lock().unwrap().nodes.len()
    }

    fn estimate(
        &self,
        node: usize,
        sql: &str,
        reply: Sender<EstimateReply>,
    ) -> Result<(), ClusterError> {
        let class = Self::class_of(sql);
        self.post("estimate", node, SimMsg::Estimate { class, reply })
    }

    fn call_for_offers(
        &self,
        node: usize,
        class: ClassId,
        _sql: &str,
        reply: Sender<OfferReply>,
    ) -> Result<(), ClusterError> {
        self.post(
            "offer",
            node,
            SimMsg::Offer {
                class: class.0 as usize,
                reply,
            },
        )
    }

    fn execute(
        &self,
        node: usize,
        class: ClassId,
        sql: &str,
        reply: Sender<ExecReply>,
    ) -> Result<(), ClusterError> {
        let query = sql_field(sql, "q").unwrap_or(u64::MAX);
        let generation = sql_field(sql, "gen").unwrap_or(0) as u32;
        self.post(
            "execute",
            node,
            SimMsg::Execute {
                class: class.0 as usize,
                query,
                generation,
                reply,
            },
        )
    }

    fn period_tick(&self, node: usize) -> Result<(), ClusterError> {
        self.post("tick", node, SimMsg::Tick)
    }

    fn dump_prices(&self, node: usize, reply: Sender<PricesReply>) -> Result<(), ClusterError> {
        self.post("prices", node, SimMsg::Prices { reply })
    }

    fn shutdown_node(&self, node: usize) {
        let mut world = self.world.lock().unwrap();
        world.nodes[node].crashed = true;
        world.inflight.retain(|m| m.node != node);
    }

    fn shutdown(&self) {
        let mut world = self.world.lock().unwrap();
        world.inflight.clear();
    }
}
