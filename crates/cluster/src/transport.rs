//! Transport abstraction: how the driver reaches the node fleet.
//!
//! The §5.2 experiment originally hard-wired `std::sync::mpsc` senders
//! into the driver. [`Transport`] lifts that into a trait with two
//! interchangeable implementations:
//!
//! * [`ChannelTransport`] — the historical in-process fleet: one OS
//!   thread per node, mpsc mailboxes, zero serialization.
//! * [`TcpTransport`] — real processes: each node is a `qad` server
//!   reached over a [`qa_net::Connection`], every protocol message
//!   crossing the wire as a [`WireMsg`] frame.
//!
//! ## Contract
//!
//! [`Transport::send`] carries one [`NodeMsg`] — the same request enum
//! whatever lies underneath — and is an **asynchronous send**: the
//! [`Reply`] inside the message is answered on whichever thread carries
//! the answer back, reports *lost* when a carrier lets go of it
//! unanswered, or does neither. The driver's loss-tolerant collection
//! deadline is the only completion guarantee — exactly the semantics the
//! in-process fleet always had, which is what makes the two
//! implementations observationally interchangeable:
//!
//! * a reply that will never come (fault-dropped, peer dead) surfaces as
//!   either a lost [`Reply`] or a collection timeout;
//! * a send to a dead peer returns a [`ClusterError`] immediately, and
//!   the caller is expected to mark the node dead and re-allocate (PR-1
//!   crash semantics);
//! * `shutdown_node` is crash injection: over channels it shuts the
//!   mailbox, over TCP it terminates the remote process.
//!
//! Token correlation: a [`Reply`] cannot cross a socket, so
//! [`TcpTransport`] assigns each request a `u64` token, keeps the typed
//! reply in a per-peer pending map, and a dispatcher thread answers it
//! from the incoming reply frame with that token. Tokens are registered *before* the
//! request is sent — a reply can never race its own registration.

use crate::error::ClusterError;
use crate::node::{NodeHandle, NodeMsg, NodeStats, Reply};
use qa_net::{ConnConfig, Connection, NetError, ReplyBody, WireMsg};
use qa_simnet::telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an unanswered request token is kept before the dispatcher
/// garbage-collects it (longer than any driver deadline, so a slow reply
/// is never orphaned while someone still waits for it).
const PENDING_TTL: Duration = Duration::from_secs(120);

/// A fleet-facing message channel; see the module docs for the contract.
pub trait Transport: Send + Sync {
    /// Fleet size (dead peers included — indices are stable).
    fn num_nodes(&self) -> usize;

    /// Posts `msg` to `node`; see the module docs for what becomes of the
    /// reply.
    ///
    /// # Errors
    /// [`ClusterError`] (its phase is `NodeMsg::phase`) when the send
    /// itself fails (peer dead).
    fn send(&self, node: usize, msg: NodeMsg) -> Result<(), ClusterError>;

    /// Terminates one node (crash injection / targeted shutdown). Best
    /// effort; a node that is already gone is not an error.
    fn shutdown_node(&self, node: usize);

    /// Gracefully tears the whole fleet connection down. Idempotent.
    fn shutdown(&self);
}

// ---------------------------------------------------------------------------
// In-process channels
// ---------------------------------------------------------------------------

/// The historical in-process fleet: node threads behind mpsc mailboxes.
pub struct ChannelTransport {
    senders: Vec<Sender<NodeMsg>>,
    handles: Mutex<Vec<NodeHandle>>,
}

impl ChannelTransport {
    /// Wraps already-spawned node threads.
    pub(crate) fn new(nodes: Vec<NodeHandle>) -> ChannelTransport {
        ChannelTransport {
            senders: nodes.iter().map(|n| n.sender.clone()).collect(),
            handles: Mutex::new(nodes),
        }
    }
}

impl Transport for ChannelTransport {
    fn num_nodes(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, node: usize, msg: NodeMsg) -> Result<(), ClusterError> {
        let phase = msg.phase();
        self.senders[node]
            .send(msg)
            .map_err(|_| ClusterError::ChannelClosed { phase, node })
    }

    fn shutdown_node(&self, node: usize) {
        let _ = self.senders[node].send(NodeMsg::Shutdown);
    }

    fn shutdown(&self) {
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for h in handles {
            h.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// A reply parked under its request token, answered with the reply frame
/// that carries the token.
type Slot = Reply<WireMsg>;

/// The slot that answers `reply` from its reply frame. Any other frame
/// under its token is a protocol violation: the reply is lost rather than
/// answered wrong.
fn slot<T: ReplyBody + 'static>(reply: Reply<T>) -> Option<Slot> {
    Some(Reply::new(move |frame: Option<WireMsg>| {
        if let Some(answer) = frame.and_then(T::unframe) {
            reply.send(answer);
        }
    }))
}

/// Shared between a peer's handle and its dispatcher thread.
struct PeerState {
    addr: String,
    pending: Mutex<HashMap<u64, (Slot, Instant)>>,
}

impl PeerState {
    /// Fails every outstanding request now: the parked replies are let
    /// go unanswered (outside the lock — each reports *lost* to its
    /// asker), so waiters observe dead-peer semantics immediately instead
    /// of aging out via the TTL sweep.
    fn fail_pending(&self) {
        let failed = std::mem::take(&mut *self.pending.lock().unwrap());
        drop(failed);
    }
}

struct Peer {
    state: Arc<PeerState>,
    conn: Mutex<Option<Connection>>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl Peer {
    /// Closes the connection, if it is still up.
    fn hang_up(&self) {
        if let Some(c) = self.conn.lock().unwrap().take() {
            c.close();
        }
        // Fail waiters before joining the dispatcher: the join can block
        // on connection teardown, and nobody may wait out the TTL for a
        // reply that can no longer arrive.
        self.state.fail_pending();
        if let Some(d) = self.dispatcher.lock().unwrap().take() {
            let _ = d.join();
        }
    }
}

/// The fleet over real sockets: one [`Connection`] per `qad` server.
pub struct TcpTransport {
    peers: Vec<Peer>,
    next_token: AtomicU64,
}

impl TcpTransport {
    /// Dials every node of the fleet (`addrs[i]` must host fleet node
    /// `i`) and completes the handshakes. Connection retry/backoff and
    /// handshake policy come from `cfg`; transport telemetry (connects,
    /// retries, deaths) flows through `telemetry`.
    ///
    /// # Errors
    /// [`ClusterError::Net`] naming the first peer that could not be
    /// reached or failed its handshake.
    pub fn connect(
        addrs: &[String],
        cfg: &ConnConfig,
        telemetry: &Telemetry,
    ) -> Result<TcpTransport, ClusterError> {
        let mut peers = Vec::with_capacity(addrs.len());
        for (node, addr) in addrs.iter().enumerate() {
            let (conn, rx) =
                Connection::dial(addr, qa_net::wire::CLIENT_NODE, node as u32, cfg, telemetry)
                    .map_err(|e| ClusterError::net("connect", node, addr.clone(), e))?;
            let state = Arc::new(PeerState {
                addr: addr.clone(),
                pending: Mutex::new(HashMap::new()),
            });
            let dispatcher = {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("qa-dispatch-{node}"))
                    .spawn(move || dispatch_replies(state, rx))
                    .map_err(|e| {
                        ClusterError::net("connect", node, addr.clone(), NetError::io("spawn", &e))
                    })?
            };
            peers.push(Peer {
                state,
                conn: Mutex::new(Some(conn)),
                dispatcher: Mutex::new(Some(dispatcher)),
            });
        }
        Ok(TcpTransport {
            peers,
            next_token: AtomicU64::new(1),
        })
    }

    /// Drops every connection *without* sending `Shutdown`: the servers
    /// stay up and keep accepting (a driver crash looks exactly like
    /// this). A later `shutdown` becomes a no-op on the closed peers.
    pub fn disconnect(&self) {
        self.peers.iter().for_each(Peer::hang_up);
    }

    /// Requests one node's metrics-registry snapshot (the fleet stats
    /// scrape). Answered by the `qad` session loop directly — never the
    /// node worker — so a saturated market still reports its stats.
    ///
    /// # Errors
    /// [`ClusterError`] when the send itself fails (peer dead).
    pub(crate) fn request_stats(
        &self,
        node: usize,
        reply: Reply<NodeStats>,
    ) -> Result<(), ClusterError> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let wire = WireMsg::StatsRequest { token };
        self.post("stats", node, token, wire, slot(reply))
    }

    /// Parks the frame's reply slot, if it has one, under `token`, then
    /// sends. On a failed send the slot is withdrawn again so the map
    /// cannot leak.
    fn post(
        &self,
        phase: &'static str,
        node: usize,
        token: u64,
        wire: WireMsg,
        slot: Option<Slot>,
    ) -> Result<(), ClusterError> {
        let peer = &self.peers[node];
        if let Some(slot) = slot {
            let mut parked = peer.state.pending.lock().unwrap();
            parked.insert(token, (slot, Instant::now()));
        }
        let sent = match peer.conn.lock().unwrap().as_ref() {
            Some(conn) => conn.send(wire),
            None => Err(NetError::PeerClosed),
        };
        sent.map_err(|e| {
            let withdrawn = peer.state.pending.lock().unwrap().remove(&token);
            drop(withdrawn);
            ClusterError::net(phase, node, peer.state.addr.clone(), e)
        })
    }
}

impl Transport for TcpTransport {
    fn num_nodes(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, node: usize, msg: NodeMsg) -> Result<(), ClusterError> {
        let phase = msg.phase();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let (wire, slot) = match msg {
            NodeMsg::Estimate { sql, reply } => (WireMsg::Estimate { token, sql }, slot(reply)),
            NodeMsg::CallForOffers { class, sql, reply } => {
                let class = class.0;
                (WireMsg::CallForOffers { token, class, sql }, slot(reply))
            }
            NodeMsg::Execute { sql, class, reply } => {
                let class = class.0;
                (WireMsg::Execute { token, class, sql }, slot(reply))
            }
            NodeMsg::DumpPrices { reply } => (WireMsg::DumpPrices { token }, slot(reply)),
            NodeMsg::PeriodTick => (WireMsg::PeriodTick, None),
            NodeMsg::Shutdown => (WireMsg::Shutdown, None),
        };
        self.post(phase, node, token, wire, slot)
    }

    fn shutdown_node(&self, node: usize) {
        let _ = self.send(node, NodeMsg::Shutdown);
        self.peers[node].hang_up();
    }

    fn shutdown(&self) {
        for node in 0..self.peers.len() {
            self.shutdown_node(node);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers each parked reply from the reply frame carrying its token. Runs
/// until the connection dies, then fails every outstanding reply so
/// waiting drivers observe disconnection (dead-peer semantics).
fn dispatch_replies(state: Arc<PeerState>, rx: Receiver<WireMsg>) {
    loop {
        // The timeout is only the GC cadence: expired tokens (replies
        // that will never come, e.g. fault-dropped remotely) are swept so
        // the map stays bounded on long runs.
        let msg = match rx.recv_timeout(PENDING_TTL / 8) {
            Ok(m) => m,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                state
                    .pending
                    .lock()
                    .unwrap()
                    .retain(|_, (_, born)| born.elapsed() < PENDING_TTL);
                continue;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        };
        // Anything else is not a reply; a well-behaved qad never sends
        // one to a driver.
        let Some(token) = msg.reply_token() else {
            continue;
        };
        let slot = state.pending.lock().unwrap().remove(&token);
        if let Some((slot, _)) = slot {
            slot.send(msg);
        }
    }
    // Peer died: every waiter learns its reply is lost.
    state.fail_pending();
}
