//! A deterministic, schedule-driven [`Transport`]: the virtual network
//! under the model-checking harness in [`crate::explore`].
//!
//! Where [`crate::transport::ChannelTransport`] runs real node threads
//! and [`crate::transport::TcpTransport`] real sockets, `SimTransport`
//! runs the same sellers ([`NodeProtocol`], built from the shipped
//! [`crate::qant_config_for`]) with neither minidb nor threads: an
//! in-memory message queue carries the [`NodeMsg`]s, a fixed cost table
//! stands in for `EXPLAIN` plus history, an accepted query "runs" until
//! its node's next period tick, and every piece of nondeterminism — which
//! in-flight message is delivered next, whether a request or its reply is
//! dropped, when a node crashes — is resolved through an explicit
//! [`Schedule`]. One schedule = one fully deterministic interleaving; a
//! seed or a recorded choice trail replays it exactly.
//!
//! The driver side stays the real [`Transport`] contract: requests are
//! asynchronous sends whose [`crate::node::Reply`] is answered or never
//! is, a send to a crashed node fails immediately, and a dropped reply
//! reports itself lost. The protocol under test
//! cannot tell this network from the threaded one — which is the point.
//!
//! Query identity crosses the seam the same way it does over TCP: encoded
//! in the SQL text. The harness formats requests as
//! `"q=<id> gen=<generation> class=<class>"` (see [`encode_sql`]), and
//! every execution is logged as a `(query, generation)` pair so the
//! invariant checks can audit double assignment across crash re-entry.

use crate::error::ClusterError;
use crate::node::{ExecReply, NodeMsg};
use crate::protocol::NodeProtocol;
use crate::transport::Transport;
use qa_core::QantConfig;
use qa_simnet::sched::Schedule;
use qa_simnet::telemetry::{Telemetry, TelemetryEvent};
use qa_workload::ClassId;
use std::sync::{Arc, Mutex};

/// Virtual microseconds per delivered network step (telemetry clock).
const STEP_US: u64 = 1_000;
/// Seeds the fleet's initial price jitter: every schedule explores the
/// same three sellers.
const FLEET_SEED: u64 = 2007;

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

/// One committed execution on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// The query's trace index.
    pub query: u64,
    /// The assignment generation that executed it.
    pub generation: u32,
}

/// One node of the virtual fleet: the seller under test, and what this
/// shell models around it — a cost table for the estimator, a log for the
/// database.
#[derive(Debug, Clone)]
pub struct SimNodeState {
    /// Node index.
    pub id: usize,
    /// `true` once crashed (schedule-chosen or driver-injected).
    pub crashed: bool,
    /// Prices, supply and backlog: the seller [`crate::node`] runs.
    pub seller: NodeProtocol,
    /// Per-class execution estimate in milliseconds.
    pub exec_ms: Vec<f64>,
    /// Every execution this node ever committed, in order.
    pub executions: Vec<Execution>,
    /// Estimates of the accepted queries still running; they finish at the
    /// node's next period tick.
    running: Vec<f64>,
    /// Network step of the node's last period tick.
    ticked_at: u64,
}

impl SimNodeState {
    fn new(id: usize, num_classes: usize, seller: NodeProtocol) -> SimNodeState {
        let mut node = SimNodeState {
            id,
            crashed: false,
            seller,
            // Heterogeneous but deterministic: node i is (1 + i/4)× the
            // base cost, and each class is 10 ms heavier than the last.
            exec_ms: (0..num_classes)
                .map(|c| (10.0 + 10.0 * c as f64) * (1.0 + id as f64 / 4.0))
                .collect(),
            executions: Vec::new(),
            running: Vec::new(),
            ticked_at: 0,
        };
        let costs = node.costs();
        node.seller.open_market(|_| costs);
        node
    }

    /// The cost table as the market reads it: every class evaluable.
    fn costs(&self) -> Vec<Option<f64>> {
        self.exec_ms.iter().copied().map(Some).collect()
    }
}

struct InFlight {
    node: usize,
    msg: NodeMsg,
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
    /// A fleet of `num_nodes` sellers over `num_classes` classes, each
    /// keeping a market under `market` (none under Greedy), whose
    /// nondeterminism is resolved by `schedule`. Up to `crash_budget`
    /// schedule-chosen crashes are injected at network steps of the
    /// schedule's choosing.
    pub fn new(
        num_nodes: usize,
        num_classes: usize,
        market: Option<QantConfig>,
        crash_budget: u32,
        schedule: SharedSchedule,
        telemetry: Telemetry,
    ) -> SimTransport {
        let node = |id: usize| {
            let labelled = telemetry.with_label(id as u32);
            let seed = FLEET_SEED + id as u64;
            let seller = NodeProtocol::new(id, num_classes, market, seed, &labelled);
            SimNodeState::new(id, num_classes, seller)
        };
        SimTransport {
            world: Mutex::new(SimWorld {
                nodes: (0..num_nodes).map(node).collect(),
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

    /// Snapshot of every node's state.
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
    /// else pick an in-flight message, decide drop-vs-deliver, hand it to
    /// its node, and decide whether the reply survives. Returns `false`
    /// when the network is idle (nothing in flight, no step taken).
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
                // dropped replies report themselves lost.
                world.inflight.retain(|m| m.node != victim);
                self.telemetry.emit(|| TelemetryEvent::NodeCrashed {
                    node: victim as u32,
                });
                return true;
            }
        }

        let idx = self.schedule.choose("deliver", world.inflight.len());
        let flight = world.inflight.remove(idx);
        if self.schedule.choose("drop", 2) == 1 {
            world.stats.dropped_requests += 1;
            let node = flight.node as u32;
            let context = format!("{} request dropped", flight.msg.phase());
            self.telemetry
                .emit(|| TelemetryEvent::MessageDropped { node, context });
            return true; // the reply drops here → the waiter learns it is lost
        }
        self.deliver(world, flight, true);
        true
    }

    /// Delivers everything still in flight with benign choices (no drops,
    /// FIFO order) and **without** consuming schedule choice points —
    /// the post-run drain the invariant checks use to quiesce the
    /// network before auditing state.
    pub fn drain(&self) {
        let mut world = self.world.lock().unwrap();
        while !world.inflight.is_empty() {
            world.stats.steps += 1;
            let flight = world.inflight.remove(0);
            self.deliver(&mut world, flight, false);
        }
    }

    /// Hands one request to its node's seller and carries the reply back.
    /// Only an `adversarial` delivery lets the schedule drop the reply —
    /// the one choice point in here.
    fn deliver(&self, world: &mut SimWorld, flight: InFlight, adversarial: bool) {
        let InFlight { node, msg } = flight;
        world.stats.delivered += 1;
        let phase = msg.phase();
        let n = &mut world.nodes[node];
        let mut reply_survives = || {
            let dropped = adversarial && self.schedule.choose("reply_drop", 2) == 1;
            if dropped {
                world.stats.dropped_replies += 1;
                let context = format!("{phase} reply dropped");
                self.telemetry.emit(|| TelemetryEvent::MessageDropped {
                    node: node as u32,
                    context,
                });
            }
            !dropped
        };
        match msg {
            NodeMsg::Estimate { sql, reply } => {
                let class = sql_field(&sql, "class").unwrap_or(0) as usize;
                let estimate = n.seller.estimate(n.exec_ms[class]);
                if reply_survives() {
                    reply.send(estimate);
                }
            }
            NodeMsg::CallForOffers { class, reply, .. } => {
                let exec_ms = n.exec_ms[class.index()];
                let offer = n.seller.offer(class, || exec_ms);
                if reply_survives() {
                    reply.send(offer);
                }
            }
            NodeMsg::Execute { sql, class, reply } => {
                let query = sql_field(&sql, "q").unwrap_or(u64::MAX);
                let generation = sql_field(&sql, "gen").unwrap_or(0) as u32;
                for _ in 0..=usize::from(world.inject_double_exec) {
                    n.executions.push(Execution { query, generation });
                }
                let exec_ms = n.exec_ms[class.index()];
                n.seller.accept(class, exec_ms);
                n.running.push(exec_ms);
                if reply_survives() {
                    reply.send(ExecReply {
                        node,
                        rows: 1,
                        exec_ms,
                        error: None,
                    });
                }
            }
            NodeMsg::DumpPrices { reply } => {
                let prices = n.seller.prices();
                if reply_survives() {
                    reply.send(prices);
                }
            }
            NodeMsg::PeriodTick => {
                for exec_ms in n.running.drain(..) {
                    n.seller.executed(exec_ms, exec_ms, true);
                }
                let since_last_us = (world.stats.steps - n.ticked_at) * STEP_US;
                n.ticked_at = world.stats.steps;
                let costs = n.costs();
                n.seller.tick(since_last_us as f64 / 1e3, |_| costs);
            }
            // `send` turns a shutdown into a crash; none is ever parked.
            NodeMsg::Shutdown => {}
        }
    }
}

impl Transport for SimTransport {
    fn num_nodes(&self) -> usize {
        self.world.lock().unwrap().nodes.len()
    }

    fn send(&self, node: usize, msg: NodeMsg) -> Result<(), ClusterError> {
        if let NodeMsg::Shutdown = msg {
            self.shutdown_node(node);
            return Ok(());
        }
        let mut world = self.world.lock().unwrap();
        if world.nodes[node].crashed {
            let phase = msg.phase();
            return Err(ClusterError::ChannelClosed { phase, node });
        }
        world.inflight.push(InFlight { node, msg });
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Reply;
    use qa_simnet::sched::RandomSchedule;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// `drain` is `step`'s delivery under benign choices: everything in
    /// flight arrives, every reply comes back, and the schedule is never
    /// asked — so a post-run audit cannot perturb the trail it audits.
    #[test]
    fn drain_delivers_everything_and_consumes_no_choice_point() {
        let schedule = SharedSchedule::new(Box::new(RandomSchedule::new(5)));
        let market =
            crate::qant_config_for(crate::ClusterMechanism::QaNt, Duration::from_millis(40));
        let net = SimTransport::new(3, 2, market, 0, schedule.clone(), Telemetry::disabled());
        let class = ClassId(1);
        let (estimates, estimate_rx) = channel();
        let (offers, offer_rx) = channel();
        let (execs, exec_rx) = channel();
        let (prices, price_rx) = channel();
        let post = |node: usize| {
            let (sql, reply) = (encode_sql(9, 0, class), Reply::to(estimates.clone()));
            net.send(node, NodeMsg::Estimate { sql, reply }).unwrap();
            let (sql, reply) = (encode_sql(9, 0, class), Reply::to(offers.clone()));
            net.send(node, NodeMsg::CallForOffers { class, sql, reply })
                .unwrap();
            let (sql, reply) = (encode_sql(9, 0, class), Reply::to(execs.clone()));
            net.send(node, NodeMsg::Execute { sql, class, reply })
                .unwrap();
            net.send(node, NodeMsg::PeriodTick).unwrap();
            let reply = Reply::to(prices.clone());
            net.send(node, NodeMsg::DumpPrices { reply }).unwrap();
        };
        // A few adversarial steps first (drops, no crash budget), so the
        // trail is not empty.
        post(0);
        for _ in 0..3 {
            net.step();
        }
        (0..3).for_each(post);
        let in_flight = net.pending_messages();
        assert!(in_flight >= 12, "only {in_flight} messages in flight");
        let (trail, described, before) =
            (schedule.trail_string(), schedule.describe(), net.stats());

        net.drain();

        assert_eq!(net.pending_messages(), 0);
        assert_eq!(
            schedule.trail_string(),
            trail,
            "drain consumed a choice point"
        );
        assert_eq!(schedule.describe(), described);
        let after = net.stats();
        assert_eq!(after.delivered - before.delivered, in_flight as u64);
        assert_eq!(after.dropped_replies, before.dropped_replies);
        assert_eq!(after.crash_steps, before.crash_steps);
        // Each of the three nodes answered the drained requests (the
        // adversarial prefix may have added node 0's answers on top).
        for (what, got) in [
            ("estimates", estimate_rx.try_iter().count()),
            ("offers", offer_rx.try_iter().count()),
            ("executions", exec_rx.try_iter().count()),
            ("price dumps", price_rx.try_iter().count()),
        ] {
            assert!((3..=4).contains(&got), "{got} {what} came back");
        }
        // The tick retired the execution it followed: nothing is backlogged.
        for node in net.node_states() {
            assert_eq!(node.seller.backlog_ms(), 0.0, "node {}", node.id);
            assert!(!node.executions.is_empty(), "node {}", node.id);
        }
    }
}
