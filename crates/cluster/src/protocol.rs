//! Both sides of the allocation protocol, sans-IO: the query a client
//! places ([`QueryProtocol`]) and the seller that answers it
//! ([`NodeProtocol`], at the end of this file).
//!
//! [`QueryProtocol::step`] owns every protocol *decision* — which nodes a
//! round polls (the class's capable set minus the fleet's dead), who wins
//! it, what a send failure or a lost execute does to fleet liveness, the
//! retry budget, the assignment generation, and the query-lifecycle
//! telemetry — and performs no I/O: no channels, clocks, sleeps or
//! threads. A shell feeds it [`Event`]s and carries out the [`Action`]s it
//! answers with:
//!
//! ```text
//! Ready ─▶ Poll(nodes) ─▶ RoundClosed ─▶ Execute{node, generation} ─▶ Executed ─▶ Done
//!   ▲                        │ nobody bid          │ ExecuteLost     │ ExecuteSendFailed
//!   └──── Backoff{attempt} ◀─┴─────────────────────┘                 └▶ Poll at once
//! ```
//!
//! One shell runs it: [`crate::episode::Episode`] carries out the actions
//! of every live query of a run over any
//! [`crate::transport::Transport`]. [`crate::driver`] steps that shell
//! from one loop blocking on an inbox and a timer, [`crate::explore`] from
//! a schedule's choice points over
//! [`crate::simtransport::SimTransport`] — so the invariants the explorer
//! checks are checked about the code that serves traffic.

use crate::error::ClusterError;
use crate::node::{EstimateReply, OfferReply, PricesReply};
use qa_core::{QantConfig, QantNode};
use qa_simnet::telemetry::{Counter, Gauge, HistogramHandle, Telemetry, TelemetryEvent};
use qa_simnet::DetRng;
use qa_workload::ClassId;
use std::sync::atomic::{AtomicBool, Ordering};

/// One node's answer to a poll, mechanism-erased.
#[derive(Debug, Clone, Copy)]
pub struct Bid {
    /// The node the reply claims to come from.
    pub node: usize,
    /// Its cost in ms (Greedy: execution estimate; QA-NT: promised
    /// completion), `None` when the node declined to offer.
    pub cost_ms: Option<f64>,
}

impl From<EstimateReply> for Bid {
    fn from(r: EstimateReply) -> Bid {
        Bid {
            node: r.node,
            cost_ms: Some(r.exec_ms),
        }
    }
}

impl From<OfferReply> for Bid {
    fn from(r: OfferReply) -> Bid {
        Bid {
            node: r.node,
            cost_ms: r.offered.then_some(r.completion_ms),
        }
    }
}

/// What the shell observed.
#[derive(Debug)]
pub enum Event {
    /// The query was issued, or its back-off elapsed: open a poll round.
    Ready,
    /// The round [`Action::Poll`] opened is over: `bids` are the replies in
    /// hand once all were in or the reply deadline fired.
    RoundClosed { bids: Vec<Bid> },
    /// The send of [`Action::Execute`] returned an error.
    ExecuteSendFailed,
    /// The execute reply can no longer arrive (its channel disconnected):
    /// the reply was lost or the assignee died with the query.
    ExecuteLost,
    /// The execute reply did not arrive within the shell's hard ceiling.
    ExecuteTimedOut,
    /// The execute reply arrived, `response_ms` after issue by the shell's
    /// clock.
    Executed { response_ms: f64 },
}

/// What the shell must do next.
#[derive(Debug, PartialEq)]
pub enum Action {
    /// Send the mechanism's poll to each of these nodes, reporting a send
    /// that returns an error to [`QueryProtocol::poll_send_failed`] at
    /// once; gather the replies under the reply deadline, then report
    /// [`Event::RoundClosed`].
    Poll(Vec<usize>),
    /// Send the execute to the round's winner `node`; report
    /// [`Event::ExecuteSendFailed`], or await the reply and report its
    /// fate. `generation` tells this assignment from every earlier one of
    /// the same query (strictly increasing across re-allocations).
    Execute { node: usize, generation: u32 },
    /// Wait out back-off number `attempt` (0-based), then report
    /// [`Event::Ready`].
    Backoff { attempt: u32 },
    /// The query is finished; no further event is accepted.
    Done(Outcome),
}

/// How a query ended.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Executed on `node` under assignment `generation`.
    Completed { node: usize, generation: u32 },
    /// Given up on, and why.
    Unserved(ClusterError),
}

#[derive(Debug)]
enum State {
    /// Waiting for [`Event::Ready`] (a fresh query starts here).
    Backoff,
    /// A round is open; these nodes may still answer it.
    Polling(Vec<usize>),
    /// The execute of assignment `generation` is out on `node`.
    Executing {
        node: usize,
        generation: u32,
    },
    Done,
}

/// One query's allocation protocol; see the module docs.
#[derive(Debug)]
pub struct QueryProtocol {
    query: u64,
    class: ClassId,
    max_retries: u32,
    capable: Vec<usize>,
    retries: u32,
    /// Generation of the next [`Action::Execute`].
    generation: u32,
    state: State,
}

/// A send to `node` returned an error: the node is gone for the whole run.
fn write_off(node: usize, context: &str, dead: &[AtomicBool], telemetry: &Telemetry) {
    dead[node].store(true, Ordering::Relaxed);
    telemetry.emit(|| TelemetryEvent::MessageDropped {
        node: node as u32,
        context: context.to_string(),
    });
}

/// The round's winner: the cheapest real offer from a polled node, ties
/// to the lowest node. A refusal, a non-finite or negative cost (the wire
/// decodes any bit pattern) and a reply naming a node outside the round
/// are all non-offers.
fn winner(polled: &[usize], bids: &[Bid]) -> Option<usize> {
    bids.iter()
        .filter(|b| polled.contains(&b.node))
        .filter_map(|b| Some((b.cost_ms.filter(|c| c.is_finite() && *c >= 0.0)?, b.node)))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, node)| node)
}

impl QueryProtocol {
    /// The protocol for query number `query` of `class`, placeable on the
    /// `capable` nodes, with `max_retries` resubmissions to spend.
    pub fn new(query: u64, class: ClassId, max_retries: u32, capable: Vec<usize>) -> QueryProtocol {
        QueryProtocol {
            query,
            class,
            max_retries,
            capable,
            retries: 0,
            generation: 0,
            state: State::Backoff,
        }
    }

    /// Resubmissions spent so far (rejections, losses and re-allocations).
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// The open round's poll send to `node` returned an error (`context`
    /// names the send, `estimate_send` or `offer_send`): the node is
    /// written off while the rest of the round is still out, so no query
    /// polls it from here on, and no reply in its name can win the round.
    pub fn poll_send_failed(
        &mut self,
        node: usize,
        context: &str,
        dead: &[AtomicBool],
        telemetry: &Telemetry,
    ) {
        let State::Polling(polled) = &mut self.state else {
            panic!("protocol misuse: poll send failed while {:?}", self.state);
        };
        polled.retain(|&n| n != node);
        write_off(node, context, dead, telemetry);
    }

    /// Advances the protocol by one observation. `dead[n]` is the run-wide
    /// flag that node `n` is gone — read when a round opens, set on a
    /// failed send or a lost execute; lifecycle events go to `telemetry`
    /// (the shell stamps its clock first).
    ///
    /// # Panics
    /// On an event the current state cannot accept — a bug in the shell.
    pub fn step(&mut self, event: Event, dead: &[AtomicBool], telemetry: &Telemetry) -> Action {
        match (std::mem::replace(&mut self.state, State::Done), event) {
            (State::Backoff, Event::Ready) => self.open_round(dead, telemetry),
            (State::Polling(polled), Event::RoundClosed { bids }) => match winner(&polled, &bids) {
                Some(node) => {
                    telemetry.emit(|| TelemetryEvent::QueryAssigned {
                        query: self.query,
                        class: self.class.0,
                        node: node as u32,
                        retries: self.retries,
                    });
                    let generation = self.generation;
                    self.generation += 1;
                    self.state = State::Executing { node, generation };
                    Action::Execute { node, generation }
                }
                // All rejections, or all replies lost: §2.2's next-period
                // resubmission.
                None => self.retry(false, None, dead, telemetry),
            },
            // The assignee was gone before it saw the query: re-allocate
            // at once, there is nothing to wait for.
            (State::Executing { node, .. }, Event::ExecuteSendFailed) => {
                write_off(node, "execute_send", dead, telemetry);
                self.retry(true, None, dead, telemetry)
            }
            // A lost reply is indistinguishable from an assignee that
            // crashed with the query: write the node off and re-allocate
            // (the cluster analogue of the simulator's crash re-entry).
            (State::Executing { node, .. }, Event::ExecuteLost) => {
                dead[node].store(true, Ordering::Relaxed);
                let phase = "execute";
                let gone = ClusterError::ChannelClosed { phase, node };
                self.retry(false, Some(gone), dead, telemetry)
            }
            (State::Executing { node, .. }, Event::ExecuteTimedOut) => {
                let phase = "execute";
                self.finish(ClusterError::Timeout { phase, node }, telemetry)
            }
            (State::Executing { node, generation }, Event::Executed { response_ms }) => {
                telemetry.emit(|| TelemetryEvent::QueryCompleted {
                    query: self.query,
                    class: self.class.0,
                    node: node as u32,
                    response_ms,
                });
                Action::Done(Outcome::Completed { node, generation })
            }
            (state, event) => panic!("protocol misuse: {event:?} while {state:?}"),
        }
    }

    /// Spends one retry. Within budget the query re-enters allocation —
    /// `at_once`, or after a back-off; overdrawn, it ends with `error`
    /// (default [`ClusterError::RetriesExhausted`]).
    fn retry(
        &mut self,
        at_once: bool,
        error: Option<ClusterError>,
        dead: &[AtomicBool],
        telemetry: &Telemetry,
    ) -> Action {
        self.retries += 1;
        let retries = self.retries;
        if retries > self.max_retries {
            let error = error.unwrap_or(ClusterError::RetriesExhausted { retries });
            self.finish(error, telemetry)
        } else if at_once {
            self.open_round(dead, telemetry)
        } else {
            self.state = State::Backoff;
            let attempt = retries - 1;
            Action::Backoff { attempt }
        }
    }

    fn open_round(&mut self, dead: &[AtomicBool], telemetry: &Telemetry) -> Action {
        let is_live = |n: &usize| !dead[*n].load(Ordering::Relaxed);
        let live: Vec<usize> = self.capable.iter().copied().filter(is_live).collect();
        if live.is_empty() {
            return self.finish(ClusterError::NoCandidates, telemetry);
        }
        self.state = State::Polling(live.clone());
        Action::Poll(live)
    }

    fn finish(&mut self, error: ClusterError, telemetry: &Telemetry) -> Action {
        telemetry.emit(|| TelemetryEvent::QueryUnserved {
            query: self.query,
            class: self.class.0,
            retries: self.retries,
        });
        Action::Done(Outcome::Unserved(error))
    }
}

/// Metric handles the seller feeds, resolved once from the telemetry
/// registry (`None` when telemetry carries no registry — a request then
/// costs a single branch). Resolving up front also *pre-registers* every
/// family, so a stats scrape of an idle node already lists them at zero
/// instead of omitting them.
#[derive(Debug, Clone)]
struct NodeMetrics {
    estimates_served: Counter,
    offers_made: Counter,
    offers_rejected: Counter,
    queries_executed: Counter,
    queries_failed: Counter,
    periods: Counter,
    /// Per-class rejection counters, indexed by [`ClassId::index`].
    rejected_by_class: Vec<Counter>,
    backlog_ms: Gauge,
    exec_ms: HistogramHandle,
    period_ms: HistogramHandle,
}

impl NodeMetrics {
    fn resolve(telemetry: &Telemetry, num_classes: usize) -> Option<NodeMetrics> {
        let r = telemetry.registry()?;
        Some(NodeMetrics {
            estimates_served: r.counter("qad.estimates_served"),
            offers_made: r.counter("qad.offers_made"),
            offers_rejected: r.counter("qad.offers_rejected"),
            queries_executed: r.counter("qad.queries_executed"),
            queries_failed: r.counter("qad.queries_failed"),
            periods: r.counter("qad.periods"),
            rejected_by_class: (0..num_classes)
                .map(|k| r.counter(&format!("qad.rejected.class{k}")))
                .collect(),
            backlog_ms: r.gauge("qad.backlog_ms"),
            exec_ms: r.histogram("qad.exec_ms"),
            period_ms: r.histogram("qad.period_ms"),
        })
    }
}

/// One seller — §3.3 steps 4–14 as the cluster runs them: the private
/// QA-NT market (`None` under Greedy, which sells without one), the
/// estimated outstanding work, and the `qad.*` metrics. A request touches
/// no channel, clock, sleep, random stream or database: a shell
/// ([`crate::node`]'s thread, which every `qad` process also runs, or
/// [`crate::simtransport`]'s virtual network) estimates costs, executes
/// queries and carries the replies, and tells the seller what happened.
/// Each `*_ms` argument is that shell's estimate or measurement in
/// milliseconds.
#[derive(Debug, Clone)]
pub struct NodeProtocol {
    id: usize,
    qant: Option<QantNode>,
    /// Estimated outstanding work — grows on accept, shrinks once executed.
    backlog_ms: f64,
    metrics: Option<NodeMetrics>,
}

impl NodeProtocol {
    /// Node `id`'s seller over `num_classes` classes: with `config`, a
    /// market whose initial prices are jittered from `seed`; without, none.
    /// `telemetry` must already carry the node's label.
    pub fn new(
        id: usize,
        num_classes: usize,
        config: Option<QantConfig>,
        seed: u64,
        telemetry: &Telemetry,
    ) -> NodeProtocol {
        let qant = config.map(|cfg| {
            let mut q = QantNode::with_jitter(num_classes, cfg, &mut DetRng::seed_from_u64(seed));
            q.set_telemetry(telemetry.clone());
            q
        });
        NodeProtocol {
            id,
            qant,
            backlog_ms: 0.0,
            metrics: NodeMetrics::resolve(telemetry, num_classes),
        }
    }

    /// The market, if this seller keeps one (diagnostics and tests).
    pub fn market(&self) -> Option<&QantNode> {
        self.qant.as_ref()
    }

    /// Estimated outstanding work (ms).
    pub fn backlog_ms(&self) -> f64 {
        self.backlog_ms
    }

    /// Opens the first market period on one period of budget. `costs(K)`
    /// yields the per-class execution estimates (`None` = cannot
    /// evaluate); it is not called without a market.
    pub fn open_market(&mut self, costs: impl FnOnce(usize) -> Vec<Option<f64>>) {
        if let Some(q) = &mut self.qant {
            q.begin_period(&costs(q.num_classes()), None);
        }
    }

    /// Greedy's poll: the execution estimate alone, *without* queue
    /// information — the client cannot see other clients' outstanding work
    /// (§4's greedy).
    pub fn estimate(&self, exec_ms: f64) -> EstimateReply {
        if let Some(m) = &self.metrics {
            m.estimates_served.incr();
        }
        let node = self.id;
        EstimateReply { node, exec_ms }
    }

    /// A call-for-offers (steps 4–10): offers while the market supplies
    /// `class` (always, without a market); a refusal raises the class's
    /// price. `estimate` is asked for the execution estimate only when the
    /// node offers; the promised completion adds the node's own backlog.
    pub fn offer(&mut self, class: ClassId, estimate: impl FnOnce() -> f64) -> OfferReply {
        let offered = self.qant.as_mut().is_none_or(|q| q.on_request(class));
        if let Some(m) = &self.metrics {
            if offered {
                m.offers_made.incr();
            } else {
                m.offers_rejected.incr();
                if let Some(c) = m.rejected_by_class.get(class.index()) {
                    c.incr();
                }
            }
        }
        let completion_ms = if offered {
            self.backlog_ms + estimate()
        } else {
            f64::INFINITY
        };
        OfferReply {
            node: self.id,
            offered,
            completion_ms,
        }
    }

    /// The client took the offer (step 6): one supply unit is sold and the
    /// query's estimated `est_ms` joins the backlog.
    pub fn accept(&mut self, class: ClassId, est_ms: f64) {
        if let Some(q) = &mut self.qant {
            q.on_accept(class);
        }
        self.backlog_ms += est_ms;
        if let Some(m) = &self.metrics {
            m.backlog_ms.set(self.backlog_ms);
        }
    }

    /// The query accepted under `est_ms` ran for `exec_ms`: its *estimate*
    /// leaves the backlog, which holds estimates only.
    pub fn executed(&mut self, est_ms: f64, exec_ms: f64, ok: bool) {
        self.backlog_ms = (self.backlog_ms - est_ms).max(0.0);
        if let Some(m) = &self.metrics {
            m.backlog_ms.set(self.backlog_ms);
            m.exec_ms.observe(exec_ms);
            m.queries_executed.incr();
            if !ok {
                m.queries_failed.incr();
            }
        }
    }

    /// A period boundary (steps 12–14, then step 2), `since_last_ms` after
    /// the previous one by the shell's clock. The new period's budget is
    /// work-conserving: `2T − backlog`, so an idle node never refuses
    /// capacity while a backlogged one stops overselling (same policy as
    /// the simulator). `costs` as in [`Self::open_market`].
    pub fn tick(&mut self, since_last_ms: f64, costs: impl FnOnce(usize) -> Vec<Option<f64>>) {
        if let Some(m) = &self.metrics {
            m.periods.incr();
            m.period_ms.observe(since_last_ms);
        }
        let Some(q) = &mut self.qant else { return };
        let costs = costs(q.num_classes());
        q.end_period();
        let period_ms = q.config().period.as_millis_f64();
        let budget = (2.0 * period_ms - self.backlog_ms).clamp(0.5 * period_ms, 2.0 * period_ms);
        q.begin_period_with_budget(&costs, None, budget);
    }

    /// The per-class private prices (empty without a market), for operator
    /// tooling (`qa-ctl prices`).
    pub fn prices(&self) -> PricesReply {
        let prices = self.qant.as_ref().map(|q| q.prices().as_slice().to_vec());
        PricesReply {
            node: self.id,
            prices: prices.unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round in which only `node` bids.
    fn won(node: usize) -> Event {
        let cost_ms = Some(1.0);
        let bids = vec![Bid { node, cost_ms }];
        Event::RoundClosed { bids }
    }

    fn poll(nodes: &[usize]) -> Action {
        Action::Poll(nodes.to_vec())
    }

    fn unserved(error: ClusterError) -> Action {
        Action::Done(Outcome::Unserved(error))
    }

    /// One scripted observation: an event and the action it must be
    /// answered with, or a poll send that fails.
    enum Feed {
        On(Event, Action),
        SendFailed(usize),
    }
    use Feed::{On, SendFailed};

    /// Runs one scripted query on a five-node fleet. Returns the retries
    /// spent, the dead set and the kinds of the telemetry events emitted.
    fn run(
        name: &str,
        max_retries: u32,
        capable: &[usize],
        script: Vec<Feed>,
    ) -> (u32, Vec<usize>, Vec<&'static str>) {
        let mut proto = QueryProtocol::new(7, ClassId(1), max_retries, capable.to_vec());
        let dead: Vec<AtomicBool> = (0..5).map(|_| AtomicBool::new(false)).collect();
        let (telemetry, buffer) = Telemetry::buffered();
        for (i, feed) in script.into_iter().enumerate() {
            match feed {
                On(event, want) => {
                    let at = format!("{name}: step {i} ({event:?})");
                    assert_eq!(proto.step(event, &dead, &telemetry), want, "{at}");
                }
                SendFailed(node) => proto.poll_send_failed(node, "offer_send", &dead, &telemetry),
            }
        }
        let dead = (0..5).filter(|&n| dead[n].load(Ordering::Relaxed));
        let emits = buffer.records().iter().map(|r| r.event.kind()).collect();
        (proto.retries(), dead.collect(), emits)
    }

    #[test]
    fn scripted_queries() {
        use Event::{ExecuteLost, ExecuteSendFailed, ExecuteTimedOut, Ready};
        let execute = |node, generation| Action::Execute { node, generation };
        let wait = |attempt| Action::Backoff { attempt };
        let quiet = || Event::RoundClosed { bids: Vec::new() };
        let nobody_left = || unserved(ClusterError::NoCandidates);
        let (phase, node, generation) = ("execute", 3, 3);

        let name = "empty rounds spend exactly the retry budget";
        let spent = unserved(ClusterError::RetriesExhausted { retries: 3 });
        let script = vec![
            On(Ready, poll(&[0, 1])),
            On(quiet(), wait(0)),
            On(Ready, poll(&[0, 1])),
            On(quiet(), wait(1)),
            On(Ready, poll(&[0, 1])),
            On(quiet(), spent),
        ];
        let want = (3, vec![], vec!["query_unserved"]);
        assert_eq!(run(name, 2, &[0, 1], script), want);

        let name = "every re-allocation executes under a larger generation";
        let executed = Event::Executed { response_ms: 5.0 };
        let done = Action::Done(Outcome::Completed { node, generation });
        let script = vec![
            On(Ready, poll(&[0, 1, 2, 3])),
            On(won(0), execute(0, 0)),
            On(ExecuteLost, wait(0)),
            On(Ready, poll(&[1, 2, 3])),
            On(won(1), execute(1, 1)),
            // A failed send re-polls at once, without a back-off.
            On(ExecuteSendFailed, poll(&[2, 3])),
            On(won(2), execute(2, 2)),
            On(ExecuteLost, wait(2)),
            On(Ready, poll(&[3])),
            On(won(3), execute(3, 3)),
            On(executed, done),
        ];
        // `query_assigned` is out before the shell can send the execute.
        let emits = "query_assigned query_assigned message_dropped \
                     query_assigned query_assigned query_completed";
        let want = (3, vec![0, 1, 2], emits.split_whitespace().collect());
        assert_eq!(run(name, 10, &[0, 1, 2, 3], script), want);

        let name = "a failed send kills exactly that node, for good";
        let script = vec![
            On(Ready, poll(&[0, 2, 4])),
            SendFailed(2),
            // Nor can a reply in the dead node's name win the round.
            On(won(2), wait(0)),
            On(Ready, poll(&[0, 4])),
            // A stray bid from outside the round is no offer either.
            On(won(1), wait(1)),
            On(Ready, poll(&[0, 4])),
        ];
        let want = (2, vec![2], vec!["message_dropped"]);
        assert_eq!(run(name, 5, &[0, 2, 4], script), want);

        let name = "every send fails: one back-off, then nobody is left";
        let script = vec![
            On(Ready, poll(&[1, 3])),
            SendFailed(1),
            SendFailed(3),
            On(quiet(), wait(0)),
            On(Ready, nobody_left()),
        ];
        let emits = vec!["message_dropped", "message_dropped", "query_unserved"];
        assert_eq!(run(name, 5, &[1, 3], script), (1, vec![1, 3], emits));

        let name = "an already-empty live set ends at once";
        let want = (0, vec![], vec!["query_unserved"]);
        assert_eq!(run(name, 5, &[], vec![On(Ready, nobody_left())]), want);

        // On an empty budget with node 1 assigned: (ending, error, retries,
        // dead set). A timeout spends no retry and writes nobody off.
        let lost = ClusterError::ChannelClosed { phase, node: 1 };
        let spent = ClusterError::RetriesExhausted { retries: 1 };
        let late = ClusterError::Timeout { phase, node: 1 };
        let endings = [
            (ExecuteLost, lost, 1, vec![1]),
            (ExecuteSendFailed, spent, 1, vec![1]),
            (ExecuteTimedOut, late, 0, vec![]),
        ];
        for (ending, error, retries, dead) in endings {
            let name = format!("{ending:?} on an empty budget");
            let script = vec![
                On(Ready, poll(&[0, 1])),
                On(won(1), execute(1, 0)),
                On(ending, unserved(error)),
            ];
            let (spent, written_off, _) = run(&name, 0, &[0, 1], script);
            assert_eq!((spent, written_off), (retries, dead), "{name}");
        }
    }

    #[test]
    fn winner_is_the_cheapest_real_offer_whatever_the_arrival_order() {
        let e = |node, exec_ms| Bid::from(EstimateReply { node, exec_ms });
        let o = |node, offered| {
            let completion_ms = 2.0;
            Bid::from(OfferReply {
                node,
                offered,
                completion_ms,
            })
        };
        let table: &[(&[Bid], Option<usize>)] = &[
            (&[e(1, 9.0), e(2, 4.0), e(3, 6.0)], Some(2)),
            // An exact tie goes to the lowest node.
            (&[e(3, 5.0), e(1, 5.0)], Some(1)),
            // Non-finite and negative costs are non-offers, even first in.
            (&[e(1, f64::NAN), e(2, 8.0)], Some(2)),
            (&[e(1, f64::INFINITY), e(2, -1.0)], None),
            // So is a refusal, and a reply from outside the round (node 4).
            (&[o(0, false), o(3, true)], Some(3)),
            (&[e(4, 1.0), e(2, 3.0)], Some(2)),
            (&[], None),
        ];
        for (bids, want) in table {
            let reversed: Vec<Bid> = bids.iter().rev().copied().collect();
            for order in [bids.to_vec(), reversed] {
                assert_eq!(winner(&[0, 1, 2, 3], &order), *want, "{order:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "protocol misuse")]
    fn a_finished_query_accepts_nothing() {
        let mut proto = QueryProtocol::new(7, ClassId(1), 0, Vec::new());
        let step =
            |proto: &mut QueryProtocol| proto.step(Event::Ready, &[], &Telemetry::disabled());
        assert_eq!(step(&mut proto), unserved(ClusterError::NoCandidates));
        step(&mut proto);
    }

    /// The shells carry out actions; the protocol's decisions must not grow
    /// back into them.
    #[test]
    fn shells_hold_no_retry_budget_or_winner_selection() {
        let shells = [
            ("episode.rs", include_str!("episode.rs")),
            ("driver.rs", include_str!("driver.rs")),
            ("explore.rs", include_str!("explore.rs")),
        ];
        let min_cost = "exec_ms <|completion_ms <|cost_ms|min_by|total_cmp";
        for_each_code_line(&shells, |at, code| {
            let budget = code.contains("max_retries") && code.contains(['<', '>']);
            let selects = min_cost.split('|').any(|needle| code.contains(needle));
            assert!(
                !budget && !selects,
                "{at}: protocol decision outside protocol.rs"
            );
        });
    }

    /// The actions are carried out in one place, [`crate::episode`], on
    /// whichever thread runs the loop: neither loop restates a carry-out,
    /// and neither the driver nor a `qad` session spawns a thread per
    /// query or per reply.
    #[test]
    fn shells_hold_no_second_carry_out_and_spawn_no_threads() {
        let loops = [
            ("driver.rs", include_str!("driver.rs")),
            ("explore.rs", include_str!("explore.rs")),
            ("qad.rs", include_str!("qad.rs")),
        ];
        for_each_code_line(&loops, |at, code| {
            assert!(
                !code.contains("Action::"),
                "{at}: an action carried out twice"
            );
            assert!(!code.contains("thread::"), "{at}: a thread in the shell");
        });
        let episode = [("episode.rs", include_str!("episode.rs"))];
        for arm in ["Poll(", "Execute {", "Backoff {", "Done("] {
            let needle = format!("Action::{arm}");
            let carried = std::cell::Cell::new(0);
            for_each_code_line(&episode, |_, code| {
                carried.set(carried.get() + usize::from(code.contains(&needle)));
            });
            assert_eq!(carried.get(), 1, "{needle} carried out once, in episode.rs");
        }
    }

    /// Nor the seller's: every carrier of node traffic asks
    /// [`NodeProtocol`], none restates a step of §3.3.
    #[test]
    fn shells_hold_no_market_arithmetic() {
        let shells = [
            ("node.rs", include_str!("node.rs")),
            ("simtransport.rs", include_str!("simtransport.rs")),
            ("qad.rs", include_str!("qad.rs")),
            ("transport.rs", include_str!("transport.rs")),
            ("driver.rs", include_str!("driver.rs")),
            ("explore.rs", include_str!("explore.rs")),
            ("episode.rs", include_str!("episode.rs")),
        ];
        let market = "on_request|on_accept|end_period|begin_period|LAMBDA|prices[";
        for_each_code_line(&shells, |at, code| {
            let restated = market.split('|').find(|needle| code.contains(needle));
            assert_eq!(
                restated, None,
                "{at}: market arithmetic outside NodeProtocol"
            );
        });
    }

    /// Calls `check("file:line: text", code)` for every non-test line of
    /// `files`, `code` being the line without its comment.
    fn for_each_code_line(files: &[(&str, &str)], check: impl Fn(&str, &str)) {
        for (file, source) in files {
            let code = source.split("#[cfg(test)]").next().unwrap_or(source);
            for (n, line) in code.lines().enumerate() {
                let at = format!("{file}:{}: {line}", n + 1);
                check(&at, line.split("//").next().unwrap_or(line));
            }
        }
    }

    /// The `QantConfig`s a seller runs under: the shipped §5.1 threshold
    /// deployment, and the paper default (no threshold: every exhausted
    /// request is refused outright, prices renormalized).
    fn markets() -> [Option<QantConfig>; 3] {
        let period = std::time::Duration::from_millis(40);
        let shipped = crate::qant_config_for(crate::ClusterMechanism::QaNt, period);
        [None, shipped, Some(QantConfig::default())]
    }

    #[test]
    fn an_estimate_carries_no_backlog_and_an_offer_promises_it() {
        for market in markets() {
            let mut seller = NodeProtocol::new(3, 3, market, 11, &Telemetry::disabled());
            seller.open_market(|_| vec![Some(4.0), Some(8.0), None]);
            let idle = seller.estimate(8.0);
            seller.accept(ClassId(0), 4.0);
            seller.accept(ClassId(0), 4.5);
            assert_eq!(seller.backlog_ms(), 8.5);
            // §4's greedy: the client learns nothing of the queue.
            let busy = seller.estimate(8.0);
            assert_eq!((busy.node, busy.exec_ms), (3, 8.0));
            assert_eq!(busy.exec_ms, idle.exec_ms);
            // The offer volunteers it.
            let offer = seller.offer(ClassId(1), || 8.0);
            let promised = if offer.offered {
                8.5 + 8.0
            } else {
                f64::INFINITY
            };
            assert_eq!(offer.completion_ms, promised);
            let unthresholded = market == Some(QantConfig::default());
            assert!(offer.offered || unthresholded, "{market:?} must offer");
            // A market refuses a class it has no cost for, unestimated.
            if market.is_some() {
                let refusal =
                    seller.offer(ClassId(2), || unreachable!("refusals estimate nothing"));
                assert!(!refusal.offered && refusal.completion_ms == f64::INFINITY);
            }
        }
    }

    /// The seller is the `QantNode` it wraps plus a backlog float, to the
    /// bit: 400 random requests against the calls `node.rs` made on its own
    /// `QantNode` before the seller existed.
    #[test]
    fn seller_is_the_qant_node_it_wraps_to_the_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (case, k) in [1usize, 2, 7].into_iter().enumerate() {
            for market in markets() {
                let mut rng = DetRng::seed_from_u64(0x5E11 + case as u64);
                // Every third class of the larger tables is not evaluable.
                let costs: Vec<Option<f64>> = (0..k)
                    .map(|c| (k < 3 || c % 3 != 1).then(|| rng.float_in(3.0, 30.0)))
                    .collect();
                let seed = 77 + case as u64;
                let mut seller = NodeProtocol::new(0, k, market, seed, &Telemetry::disabled());
                let mut qant = market
                    .map(|cfg| QantNode::with_jitter(k, cfg, &mut DetRng::seed_from_u64(seed)));
                let mut backlog = 0.0_f64;
                seller.open_market(|_| costs.clone());
                if let Some(q) = &mut qant {
                    q.begin_period(&costs, None);
                }
                // Estimates of the accepted, unfinished queries.
                let mut running: Vec<f64> = Vec::new();
                for step in 0..400 {
                    let class = ClassId(rng.index(k) as u32);
                    let est = costs[class.index()].unwrap_or(5.0) * rng.float_in(0.8, 1.2);
                    match rng.index(10) {
                        0..=3 => {
                            let got = seller.offer(class, || est);
                            let offered = qant.as_mut().is_none_or(|q| q.on_request(class));
                            let want = if offered {
                                backlog + est
                            } else {
                                f64::INFINITY
                            };
                            assert_eq!(got.offered, offered, "step {step}");
                            assert_eq!(got.completion_ms.to_bits(), want.to_bits(), "step {step}");
                        }
                        4..=6 => {
                            seller.accept(class, est);
                            if let Some(q) = &mut qant {
                                q.on_accept(class);
                            }
                            backlog += est;
                            running.push(est);
                        }
                        7 | 8 if !running.is_empty() => {
                            let est = running.swap_remove(rng.index(running.len()));
                            let exec_ms = est * rng.float_in(0.5, 2.0);
                            seller.executed(est, exec_ms, rng.index(8) > 0);
                            backlog = (backlog - est).max(0.0);
                        }
                        _ => {
                            seller.tick(40.0, |_| costs.clone());
                            if let Some(q) = &mut qant {
                                q.end_period();
                                let t = q.config().period.as_millis_f64();
                                let budget = (2.0 * t - backlog).clamp(0.5 * t, 2.0 * t);
                                q.begin_period_with_budget(&costs, None, budget);
                            }
                        }
                    }
                    assert_eq!(
                        seller.backlog_ms().to_bits(),
                        backlog.to_bits(),
                        "step {step}"
                    );
                    let (got, want) = (seller.market(), qant.as_ref());
                    assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        let (got_p, want_p) = (got.prices(), want.prices());
                        assert_eq!(
                            bits(got_p.as_slice()),
                            bits(want_p.as_slice()),
                            "step {step}"
                        );
                        assert_eq!(got.supply(), want.supply(), "step {step}");
                    }
                    let dumped = seller.prices().prices;
                    let held = want.map_or(Vec::new(), |q| q.prices().as_slice().to_vec());
                    assert_eq!(bits(&dumped), bits(&held), "step {step}");
                }
            }
        }
    }
}
