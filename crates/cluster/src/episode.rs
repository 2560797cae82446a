//! The driver's shell, stated once: many queries multiplexed over one
//! inbox.
//!
//! An [`Episode`] owns the live [`QueryProtocol`]s of a run and carries out
//! what they decide: a poll becomes the mechanism's fan-out over the
//! [`Transport`], the replies — each a [`Reply`] that posts an [`Arrival`]
//! to the episode's inbox, answered or lost — are filed under their query
//! and round, a round closes the moment its last outstanding poll is
//! accounted for (or when the loop says its deadline passed), and the
//! closing event goes back into the machine. Winner selection, the retry
//! budget and dead-marking stay in [`crate::protocol`].
//!
//! The episode reads no clock and blocks on nothing. The loop around it
//! owns time: it passes `now` into every call, turns the [`Timer`]s the
//! episode names into real waits ([`crate::driver::run_workload`]) or into
//! choice points of a schedule ([`crate::explore::run_schedule`]), and
//! hands over whatever reached the inbox. Both loops run *this* shell, so
//! what the explorer checks is what serves traffic.

use crate::driver::{ClusterMechanism, QueryOutcome};
use crate::node::{EstimateReply, ExecReply, NodeMsg, OfferReply, Reply};
use crate::protocol::{Action, Bid, Event, Outcome, QueryProtocol};
use crate::transport::Transport;
use qa_simnet::telemetry::{HistogramHandle, Span, Telemetry, TelemetryEvent};
use qa_workload::ClassId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::time::Duration;

/// What a query waits on. One value names three things: the state of the
/// query's shell, the timer that bounds the wait, and the replies that
/// can end it — so a timer or a reply that comes after its wait is over
/// (the round closed, the execute resolved, the query ended) matches
/// nothing and is ignored, and the loop never has to cancel anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Wait {
    /// The replies to the query's poll round number `.0`, bounded by the
    /// reply deadline.
    Replies(u32),
    /// Back-off number `.0` (0-based).
    Backoff(u32),
    /// The reply to the execute of assignment generation `.0`, bounded by
    /// the hard ceiling on one execution.
    Execute(u32),
}

/// A wait of `query` for the loop to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Timer {
    pub(crate) query: usize,
    pub(crate) wait: Wait,
}

/// A reply reaching the inbox — or the news that it never will.
#[derive(Debug)]
pub(crate) struct Arrival {
    pub(crate) query: usize,
    /// The wait the reply can end.
    pub(crate) wait: Wait,
    /// The node the request went to.
    pub(crate) node: usize,
    /// `None` when the reply was lost (or the request never left: a failed
    /// send lets go of its reply too).
    pub(crate) answer: Option<Answer>,
}

/// What a node answered.
#[derive(Debug)]
pub(crate) enum Answer {
    Bid(Bid),
    Executed(ExecReply),
}

/// Driver-side latency histograms, resolved once per run from the
/// telemetry registry (`None` without one). These go to the *registry
/// only* — never the event stream — so enabling them cannot perturb
/// trace byte-determinism.
struct DriverMetrics {
    /// Issue-to-assignment latency per query (ms).
    assign_ms: HistogramHandle,
    /// Issue-to-result latency per query (ms).
    total_ms: HistogramHandle,
    /// One negotiation round trip: fan-out to last collected reply (ms).
    rpc_ms: HistogramHandle,
}

impl DriverMetrics {
    fn resolve(telemetry: &Telemetry) -> Option<DriverMetrics> {
        let r = telemetry.registry()?;
        Some(DriverMetrics {
            assign_ms: r.histogram("driver.assign_ms"),
            total_ms: r.histogram("driver.total_ms"),
            rpc_ms: r.histogram("driver.rpc_ms"),
        })
    }
}

struct Query {
    proto: QueryProtocol,
    class: ClassId,
    issued: Duration,
    /// What the query waits on; `None` once it is done.
    wait: Option<Wait>,
    /// Poll rounds opened so far. Of the open one: the polled nodes not
    /// yet heard from or lost, the bids in hand, when it opened, and the
    /// `span.cluster.poll_round_us` guard, dropped at close.
    rounds: u32,
    awaiting: Vec<usize>,
    bids: Vec<Bid>,
    opened: Duration,
    span: Option<Span>,
    outcome: Option<Outcome>,
    measured: QueryOutcome,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The shell over the queries of one run; see the module docs.
pub(crate) struct Episode<'a> {
    transport: &'a dyn Transport,
    mechanism: ClusterMechanism,
    max_retries: u32,
    /// The SQL of query `i` under assignment `generation` (polls ask with
    /// generation 0).
    sql: &'a dyn Fn(usize, u32) -> String,
    /// Nodes known to be gone, fleet-wide: set by whichever query observes
    /// it (see [`QueryProtocol::step`]) and by [`Episode::crash`].
    dead: &'a [AtomicBool],
    telemetry: &'a Telemetry,
    metrics: Option<DriverMetrics>,
    /// Where every reply this episode sends out reports back.
    inbox: Sender<Arrival>,
    /// The queries issued so far, in issue order.
    queries: Vec<Query>,
    finished: usize,
    timers: Vec<Timer>,
}

impl<'a> Episode<'a> {
    /// An episode with no query issued yet. Replies post to `inbox`; the
    /// loop reads the other end and hands each arrival to
    /// [`Episode::deliver`].
    pub(crate) fn new(
        transport: &'a dyn Transport,
        mechanism: ClusterMechanism,
        max_retries: u32,
        sql: &'a dyn Fn(usize, u32) -> String,
        dead: &'a [AtomicBool],
        telemetry: &'a Telemetry,
        inbox: Sender<Arrival>,
    ) -> Episode<'a> {
        Episode {
            transport,
            mechanism,
            max_retries,
            sql,
            dead,
            telemetry,
            metrics: DriverMetrics::resolve(telemetry),
            inbox,
            queries: Vec::new(),
            finished: 0,
            timers: Vec::new(),
        }
    }

    /// Queries issued so far.
    pub(crate) fn issued(&self) -> usize {
        self.queries.len()
    }

    /// Queries finished so far.
    pub(crate) fn finished(&self) -> usize {
        self.finished
    }

    /// What query `i` waits on (`None`: it is done).
    pub(crate) fn waiting_on(&self, i: usize) -> Option<Wait> {
        self.queries[i].wait
    }

    /// `(query, how it ended)` of every finished query.
    pub(crate) fn outcomes(&self) -> impl Iterator<Item = (usize, &Outcome)> {
        let slots = self.queries.iter().enumerate();
        slots.filter_map(|(i, q)| Some((i, q.outcome.as_ref()?)))
    }

    /// The per-query measurements, in issue order.
    pub(crate) fn into_measurements(self) -> Vec<QueryOutcome> {
        self.queries.into_iter().map(|q| q.measured).collect()
    }

    /// The timers named since the last call, for the loop to arm.
    pub(crate) fn take_timers(&mut self) -> Vec<Timer> {
        std::mem::take(&mut self.timers)
    }

    /// Stamps the telemetry clock with `now`. One atomic store when
    /// enabled, one `Option` branch when not.
    fn stamp(&self, now: Duration) {
        if self.telemetry.is_enabled() {
            self.telemetry.set_now_us(now.as_micros() as u64);
        }
    }

    /// Issues the next query, of `class`, placeable on `capable`.
    pub(crate) fn issue(&mut self, now: Duration, class: ClassId, capable: Vec<usize>) {
        let i = self.queries.len();
        self.queries.push(Query {
            proto: QueryProtocol::new(i as u64, class, self.max_retries, capable),
            class,
            issued: now,
            wait: None,
            rounds: 0,
            awaiting: Vec::new(),
            bids: Vec::new(),
            opened: now,
            span: None,
            outcome: None,
            measured: QueryOutcome {
                query: i,
                class: class.0,
                ..QueryOutcome::default()
            },
        });
        self.advance(now, i, Event::Ready);
    }

    /// A period boundary: tells every node, dead or not.
    pub(crate) fn tick(&mut self, now: Duration, index: u64) {
        self.stamp(now);
        self.telemetry
            .emit(|| TelemetryEvent::PeriodStarted { index });
        for node in 0..self.transport.num_nodes() {
            let _ = self.transport.send(node, NodeMsg::PeriodTick);
        }
    }

    /// Crash injection: kills `node` through the transport — shutting the
    /// mailbox in-process, terminating the remote process over TCP —
    /// exactly like a process death: in-flight replies are lost and every
    /// later send fails. The node is written off first, so no query polls
    /// it on the strength of a reply the kill is about to lose.
    pub(crate) fn crash(&mut self, now: Duration, node: usize) {
        self.stamp(now);
        self.dead[node].store(true, Ordering::Relaxed);
        self.telemetry
            .emit(|| TelemetryEvent::NodeCrashed { node: node as u32 });
        self.transport.shutdown_node(node);
    }

    /// Files one arrival under its query and wait.
    pub(crate) fn deliver(&mut self, now: Duration, arrival: Arrival) {
        let (i, q) = (arrival.query, &mut self.queries[arrival.query]);
        if q.wait != Some(arrival.wait) {
            return;
        }
        let event = match (arrival.wait, arrival.answer) {
            (Wait::Replies(_), answer) => {
                let Some(at) = q.awaiting.iter().position(|&n| n == arrival.node) else {
                    return;
                };
                q.awaiting.swap_remove(at);
                if let Some(Answer::Bid(bid)) = answer {
                    q.bids.push(bid);
                }
                if q.awaiting.is_empty() {
                    self.close_round(now, i);
                }
                return;
            }
            (Wait::Execute(_), Some(Answer::Executed(reply))) => {
                let response_ms = ms(now - q.issued);
                q.measured.total_ms = response_ms;
                q.measured.error = reply.error;
                if let Some(m) = &self.metrics {
                    m.total_ms.observe(response_ms);
                }
                Event::Executed { response_ms }
            }
            // A lost reply is indistinguishable from a crashed assignee.
            (Wait::Execute(_), _) => Event::ExecuteLost,
            (Wait::Backoff(_), _) => return,
        };
        self.advance(now, i, event);
    }

    /// A wait has run out (or, under a schedule, was chosen to).
    pub(crate) fn fire(&mut self, now: Duration, timer: Timer) {
        if self.queries[timer.query].wait != Some(timer.wait) {
            return;
        }
        match timer.wait {
            Wait::Replies(_) => self.close_round(now, timer.query),
            Wait::Backoff(_) => self.advance(now, timer.query, Event::Ready),
            Wait::Execute(_) => self.advance(now, timer.query, Event::ExecuteTimedOut),
        }
    }

    /// Closes query `i`'s open round over the bids in hand; replies still
    /// out are simply absent (loss tolerance).
    fn close_round(&mut self, now: Duration, i: usize) {
        let q = &mut self.queries[i];
        if let Some(m) = &self.metrics {
            m.rpc_ms.observe(ms(now - q.opened));
        }
        q.span = None;
        let bids = std::mem::take(&mut q.bids);
        self.advance(now, i, Event::RoundClosed { bids });
    }

    /// Feeds `event` to query `i`'s machine and carries out what it
    /// answers, up to the next point where the query waits — for replies,
    /// for a timer, or for nothing any more.
    fn advance(&mut self, now: Duration, i: usize, mut event: Event) {
        self.stamp(now);
        let (transport, dead, telemetry) = (self.transport, self.dead, self.telemetry);
        let q = &mut self.queries[i];
        let class = q.class;
        // The reply to a request sent to `node` under `wait`: posts the
        // answer, or its loss, to the inbox. The loop may be gone by then
        // (a reply outliving its run): nobody to tell.
        fn reply<R: 'static>(
            inbox: &Sender<Arrival>,
            (query, wait, node): (usize, Wait, usize),
            wrap: fn(R) -> Answer,
        ) -> Reply<R> {
            let inbox = inbox.clone();
            Reply::new(move |answer: Option<R>| {
                let answer = answer.map(wrap);
                let _ = inbox.send(Arrival {
                    query,
                    wait,
                    node,
                    answer,
                });
            })
        }
        q.wait = loop {
            event = match q.proto.step(event, dead, telemetry) {
                Action::Poll(nodes) => {
                    q.rounds += 1;
                    let wait = Wait::Replies(q.rounds);
                    q.span = Some(telemetry.span("cluster.poll_round"));
                    q.opened = now;
                    for &node in &nodes {
                        let sql = (self.sql)(i, 0);
                        let to = (i, wait, node);
                        let (msg, context) = match self.mechanism {
                            ClusterMechanism::Greedy => {
                                let bid = |r: EstimateReply| Answer::Bid(r.into());
                                let reply = reply(&self.inbox, to, bid);
                                (NodeMsg::Estimate { sql, reply }, "estimate_send")
                            }
                            ClusterMechanism::QaNt => {
                                let bid = |r: OfferReply| Answer::Bid(r.into());
                                let reply = reply(&self.inbox, to, bid);
                                (NodeMsg::CallForOffers { class, sql, reply }, "offer_send")
                            }
                        };
                        // A send that fails lets go of its reply, whose
                        // loss reaches the inbox like any other: the node
                        // stays awaited until then.
                        if transport.send(node, msg).is_err() {
                            q.proto.poll_send_failed(node, context, dead, telemetry);
                        }
                    }
                    q.awaiting = nodes;
                    break Some(wait);
                }
                Action::Backoff { attempt } => break Some(Wait::Backoff(attempt)),
                Action::Execute { node, generation } => {
                    q.measured.assign_ms = ms(now - q.issued);
                    if let Some(m) = &self.metrics {
                        m.assign_ms.observe(q.measured.assign_ms);
                    }
                    let wait = Wait::Execute(generation);
                    let reply = reply(&self.inbox, (i, wait, node), Answer::Executed);
                    let sql = (self.sql)(i, generation);
                    match transport.send(node, NodeMsg::Execute { sql, class, reply }) {
                        Ok(()) => break Some(wait),
                        Err(_) => Event::ExecuteSendFailed,
                    }
                }
                Action::Done(outcome) => {
                    match &outcome {
                        Outcome::Completed { node, .. } => q.measured.node = Some(*node),
                        Outcome::Unserved(error) => {
                            q.measured.assign_ms = ms(now - q.issued);
                            q.measured.total_ms = q.measured.assign_ms;
                            q.measured.error = Some(error.to_string());
                        }
                    }
                    q.measured.retries = q.proto.retries();
                    q.outcome = Some(outcome);
                    self.finished += 1;
                    break None;
                }
            };
        };
        let timer = q.wait.map(|wait| Timer { query: i, wait });
        self.timers.extend(timer);
    }
}

/// A [`Transport`] that goes nowhere: it records what it is asked to do
/// and parks every reply until a test answers or loses it.
#[cfg(test)]
pub(crate) mod fake {
    use super::*;
    use crate::error::ClusterError;
    use crate::node::{EstimateReply, OfferReply};
    use std::sync::{Arc, Mutex};

    enum Parked {
        Estimate(Reply<EstimateReply>),
        Offer(Reply<OfferReply>),
        Exec(Reply<ExecReply>),
    }

    #[derive(Default)]
    pub(crate) struct FakeTransport {
        pub(crate) num_nodes: usize,
        /// Nodes every send to which fails.
        pub(crate) down: Mutex<Vec<usize>>,
        /// The fleet's dead flags, to read at `shutdown_node`.
        pub(crate) dead: Arc<Vec<AtomicBool>>,
        /// Every call, in order: `offer>1`, `execute>0`, `tick>2`, `offer>1!`
        /// for a failed send, `shutdown_node(0) dead=true`.
        pub(crate) log: Mutex<Vec<String>>,
        /// The reply of the `k`-th request sent (`None` once used).
        parked: Mutex<Vec<Option<Parked>>>,
    }

    impl FakeTransport {
        pub(crate) fn new(num_nodes: usize, down: &[usize]) -> FakeTransport {
            FakeTransport {
                num_nodes,
                down: Mutex::new(down.to_vec()),
                dead: Arc::new((0..num_nodes).map(|_| AtomicBool::new(false)).collect()),
                ..FakeTransport::default()
            }
        }

        pub(crate) fn log(&self) -> String {
            self.log.lock().unwrap().join(" ")
        }

        /// Answers the `k`-th request sent with `cost_ms`, from the node it
        /// went to.
        pub(crate) fn answer(&self, k: usize, node: usize, cost_ms: f64) {
            match self.parked.lock().unwrap()[k]
                .take()
                .expect("answered twice")
            {
                Parked::Estimate(reply) => reply.send(EstimateReply {
                    node: node as u32,
                    exec_ms: cost_ms,
                }),
                Parked::Offer(reply) => reply.send(OfferReply {
                    node: node as u32,
                    offered: true,
                    completion_ms: cost_ms,
                }),
                Parked::Exec(reply) => reply.send(ExecReply {
                    node: node as u32,
                    rows: 1,
                    exec_ms: cost_ms,
                    error: None,
                }),
            }
        }

        /// Loses the reply of the `k`-th request sent.
        pub(crate) fn lose(&self, k: usize) {
            drop(self.parked.lock().unwrap()[k].take().expect("lost twice"));
        }
    }

    impl Transport for FakeTransport {
        fn num_nodes(&self) -> usize {
            self.num_nodes
        }

        fn send(&self, node: usize, msg: NodeMsg) -> Result<(), ClusterError> {
            let phase = msg.phase();
            if self.down.lock().unwrap().contains(&node) {
                self.log.lock().unwrap().push(format!("{phase}>{node}!"));
                return Err(ClusterError::ChannelClosed { phase, node });
            }
            self.log.lock().unwrap().push(format!("{phase}>{node}"));
            let parked = match msg {
                NodeMsg::Estimate { reply, .. } => Some(Parked::Estimate(reply)),
                NodeMsg::CallForOffers { reply, .. } => Some(Parked::Offer(reply)),
                NodeMsg::Execute { reply, .. } => Some(Parked::Exec(reply)),
                _ => None,
            };
            self.parked.lock().unwrap().extend(parked.map(Some));
            Ok(())
        }

        fn shutdown_node(&self, node: usize) {
            let dead = self.dead[node].load(Ordering::Relaxed);
            let call = format!("shutdown_node({node}) dead={dead}");
            self.log.lock().unwrap().push(call);
        }

        fn shutdown(&self) {}
    }
}

#[cfg(test)]
mod tests {
    use super::fake::FakeTransport;
    use super::*;
    use std::sync::mpsc::{channel, Receiver};

    const T: Duration = Duration::from_millis(7);

    /// One scripted turn of the loop.
    #[derive(Clone, Copy)]
    enum Step {
        /// Issue a query every node can evaluate.
        Issue,
        /// The `k`-th request sent is answered by `node` at this cost.
        Answer(usize, usize, f64),
        /// The reply of the `k`-th request sent is lost.
        Lose(usize),
        /// From here on every send to this node fails.
        Down(usize),
        Fire(Timer),
    }
    use Step::{Answer, Down, Fire, Issue, Lose};

    fn sql(i: usize, generation: u32) -> String {
        format!("q{i}g{generation}")
    }

    /// Hands everything in the inbox to the episode, at time `T`.
    fn pump(episode: &mut Episode<'_>, inbox: &Receiver<Arrival>) {
        for arrival in inbox.try_iter() {
            episode.deliver(T, arrival);
        }
    }

    /// Runs `steps` against a two-node fleet (`down` refuses every send),
    /// checking after each what query 0 waits on and that the episode
    /// named that wait as a timer when it began; returns the transport's
    /// log.
    fn run(
        name: &str,
        mechanism: ClusterMechanism,
        down: &[usize],
        steps: &[(Step, Option<Wait>)],
    ) -> String {
        let net = FakeTransport::new(2, down);
        let dead = std::sync::Arc::clone(&net.dead);
        let telemetry = Telemetry::disabled();
        let (tx, inbox) = channel();
        let mut episode = Episode::new(&net, mechanism, 2, &sql, &dead, &telemetry, tx);
        for (n, &(step, want)) in steps.iter().enumerate() {
            let before = episode
                .issued()
                .checked_sub(1)
                .map(|_| episode.waiting_on(0));
            match step {
                Issue => {
                    episode.issue(Duration::ZERO, ClassId(0), vec![0, 1]);
                }
                Answer(k, node, cost_ms) => net.answer(k, node, cost_ms),
                Lose(k) => net.lose(k),
                Down(node) => net.down.lock().unwrap().push(node),
                Fire(timer) => episode.fire(T, timer),
            }
            pump(&mut episode, &inbox);
            let at = format!("{name} ({mechanism}): step {n}");
            assert_eq!(episode.waiting_on(0), want, "{at}");
            // A wait that began is the last timer named (a step may pass
            // through a wait that ended within it).
            let began = want.filter(|_| before != Some(want));
            let named = episode.take_timers();
            assert_eq!(
                named.last().map(|t| (t.query, t.wait)),
                began.map(|w| (0, w)),
                "{at}"
            );
        }
        net.log()
    }

    #[test]
    fn scripted_rounds() {
        const DONE: Option<Wait> = None;
        let polling = |round| Some(Wait::Replies(round));
        let waiting = |attempt| Some(Wait::Backoff(attempt));
        let executing = |generation| Some(Wait::Execute(generation));
        let timer = |wait: Option<Wait>| {
            let wait = wait.expect("a wait");
            Fire(Timer { query: 0, wait })
        };
        // (name, nodes that refuse every send, steps, sends in order —
        // `P` stands for the mechanism's poll).
        type Case<'a> = (&'a str, &'a [usize], &'a [(Step, Option<Wait>)], &'a str);
        let table: &[Case] = &[
            (
                "a round closes on its last answer, not at its deadline",
                &[],
                &[
                    (Issue, polling(1)),
                    (Answer(0, 0, 5.0), polling(1)),
                    (Answer(1, 1, 3.0), executing(0)),
                    // The deadline, when it comes, finds nothing to close.
                    (timer(polling(1)), executing(0)),
                    (Answer(2, 1, 9.0), DONE),
                ],
                "P>0 P>1 execute>1",
            ),
            (
                "nor does a lost reply cost a deadline",
                &[],
                &[
                    (Issue, polling(1)),
                    (Lose(1), polling(1)),
                    (Answer(0, 0, 5.0), executing(0)),
                ],
                "P>0 P>1 execute>0",
            ),
            (
                "every reply lost: the back-off starts at once",
                &[],
                &[
                    (Issue, polling(1)),
                    (Lose(0), polling(1)),
                    (Lose(1), waiting(0)),
                    (timer(waiting(0)), polling(2)),
                ],
                "P>0 P>1 P>0 P>1",
            ),
            (
                "the deadline closes the round over the bids in hand; \
                 the straggler is ignored",
                &[],
                &[
                    (Issue, polling(1)),
                    (Answer(1, 1, 8.0), polling(1)),
                    (timer(polling(1)), executing(0)),
                    // Cheaper, but late.
                    (Answer(0, 0, 1.0), executing(0)),
                ],
                "P>0 P>1 execute>1",
            ),
            (
                "a reply naming the wrong round, or coming twice, is ignored",
                &[],
                &[
                    (Issue, polling(1)),
                    (timer(polling(1)), waiting(0)),
                    (timer(waiting(0)), polling(2)),
                    // Round 1's replies, after round 2 opened.
                    (Answer(0, 0, 1.0), polling(2)),
                    (Answer(1, 1, 1.0), polling(2)),
                    (timer(polling(1)), polling(2)),
                ],
                "P>0 P>1 P>0 P>1",
            ),
            (
                "a lost execute re-enters under a larger generation, \
                 around the node that lost it",
                &[],
                &[
                    (Issue, polling(1)),
                    (Answer(0, 0, 5.0), polling(1)),
                    (Answer(1, 1, 3.0), executing(0)),
                    (Lose(2), waiting(0)),
                    (timer(waiting(0)), polling(2)),
                    (Answer(3, 0, 5.0), executing(1)),
                    // The first execute's ceiling is not the second's.
                    (timer(executing(0)), executing(1)),
                    (Answer(4, 0, 6.0), DONE),
                    // A finished query takes nothing more.
                    (timer(executing(1)), DONE),
                    (timer(polling(2)), DONE),
                ],
                "P>0 P>1 execute>1 P>0 execute>0",
            ),
            (
                "the execute ceiling ends the query; its late reply is ignored",
                &[],
                &[
                    (Issue, polling(1)),
                    (Lose(0), polling(1)),
                    (Answer(1, 1, 3.0), executing(0)),
                    (timer(executing(0)), DONE),
                    (Answer(2, 1, 9.0), DONE),
                ],
                "P>0 P>1 execute>1",
            ),
            (
                "a failed poll send is written off on the spot and the \
                 round still closes on the last real answer",
                &[1],
                &[(Issue, polling(1)), (Answer(0, 0, 5.0), executing(0))],
                "P>0 P>1! execute>0",
            ),
            (
                "every send fails: no deadline is waited out, and nobody \
                 is left to poll",
                &[0, 1],
                &[(Issue, waiting(0)), (timer(waiting(0)), DONE)],
                "P>0! P>1!",
            ),
            (
                "a failed execute send re-polls at once",
                &[],
                &[
                    (Issue, polling(1)),
                    (Lose(0), polling(1)),
                    (Down(1), polling(1)),
                    (Answer(1, 1, 3.0), polling(2)),
                ],
                "P>0 P>1 execute>1! P>0",
            ),
        ];
        for (mechanism, poll) in [
            (ClusterMechanism::Greedy, "estimate"),
            (ClusterMechanism::QaNt, "offer"),
        ] {
            for (name, down, steps, sends) in table {
                let got = run(name, mechanism, down, steps);
                assert_eq!(got, sends.replace('P', poll), "{name} ({mechanism})");
            }
        }
    }

    #[test]
    fn measurements_and_liveness_follow_the_arrivals() {
        let net = FakeTransport::new(2, &[1]);
        let dead = std::sync::Arc::clone(&net.dead);
        let (telemetry, buffer) = Telemetry::buffered();
        let (tx, inbox) = channel();
        let mechanism = ClusterMechanism::QaNt;
        let mut episode = Episode::new(&net, mechanism, 2, &sql, &dead, &telemetry, tx);
        episode.issue(Duration::from_millis(10), ClassId(3), vec![0, 1]);
        assert!(dead[1].load(Ordering::Relaxed), "failed send = dead node");
        net.answer(0, 0, 4.0);
        for arrival in inbox.try_iter() {
            episode.deliver(Duration::from_millis(12), arrival);
        }
        net.answer(1, 0, 4.0);
        for arrival in inbox.try_iter() {
            episode.deliver(Duration::from_millis(19), arrival);
        }
        assert_eq!((episode.issued(), episode.finished()), (1, 1));
        let completed = Outcome::Completed {
            node: 0,
            generation: 0,
        };
        assert_eq!(episode.outcomes().collect::<Vec<_>>(), [(0, &completed)]);
        // `query_assigned` is out before the execute send.
        let kinds: Vec<&str> = buffer.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            ["message_dropped", "query_assigned", "query_completed"]
        );
        let stamps: Vec<u64> = buffer.records().iter().map(|r| r.t_us).collect();
        assert_eq!(stamps, [10_000, 12_000, 19_000]);
        let registry = telemetry.registry().expect("buffered has one");
        assert_eq!(registry.histogram("driver.rpc_ms").snapshot().count(), 1);
        assert_eq!(
            registry
                .welford("span.cluster.poll_round_us")
                .snapshot()
                .count(),
            1
        );
        let measured = episode.into_measurements();
        let q = &measured[0];
        assert_eq!((q.query, q.class, q.node, q.retries), (0, 3, Some(0), 0));
        assert_eq!((q.assign_ms, q.total_ms, &q.error), (2.0, 9.0, &None));
    }

    #[test]
    fn a_crash_marks_the_node_dead_before_it_is_shut_down() {
        let net = FakeTransport::new(3, &[]);
        let dead = std::sync::Arc::clone(&net.dead);
        let (telemetry, buffer) = Telemetry::buffered();
        let (tx, _inbox) = channel();
        let mechanism = ClusterMechanism::Greedy;
        let mut episode = Episode::new(&net, mechanism, 2, &sql, &dead, &telemetry, tx);
        episode.crash(T, 1);
        episode.tick(T, 1);
        // Nobody polls the dead node; the tick still goes to every node.
        episode.issue(T, ClassId(0), vec![0, 1, 2]);
        let want = "shutdown_node(1) dead=true tick>0 tick>1 tick>2 estimate>0 estimate>2";
        assert_eq!(net.log(), want);
        let kinds: Vec<&str> = buffer.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["node_crashed", "period_started"]);
    }
}
