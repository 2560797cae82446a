//! Structured market telemetry: typed events, sinks, a metrics registry,
//! and convergence diagnostics.
//!
//! The paper's central claim (§3, §5) is that QA-NT's decentralized price
//! adjustments *converge*; end-of-run aggregates cannot show that. This
//! module is the observability plane shared by the simulator and the real
//! cluster:
//!
//! * [`TelemetryEvent`] — the typed market-event taxonomy (price
//!   adjustments, supply solves, rejections, assignments, faults),
//!   declared once in this file's `events!` table: the enum,
//!   [`TelemetryEvent::KINDS`], [`TelemetryEvent::kind`],
//!   [`TelemetryEvent::fields`] and both directions of the wire format
//!   are generated from it,
//! * [`Telemetry`] — a cloneable handle that is **zero-cost when
//!   disabled**: every emit site compiles to one branch on an
//!   `Option<Arc<_>>`, and event construction is deferred behind a
//!   closure so no formatting or allocation happens unless a sink is
//!   installed,
//! * [`EventSink`] / [`TraceBuffer`] / `WriterSink` /
//!   [`CountingSink`] — pluggable destinations (in-memory for tests and
//!   the seeded `qa_fig` trace rows, a JSONL writer for trace files, a counter for
//!   overhead benches),
//! * [`MetricsRegistry`] — named counters, gauges, [`Welford`] handles
//!   and log-bucket [`HistogramHandle`]s with a deterministic JSON
//!   snapshot; snapshots from different processes merge exactly, which
//!   is what the fleet stats scrape (`qa-ctl stats`) builds on,
//! * [`Span`] — wall-clock timing guards around hot paths (supply
//!   solve, assignment round, price update) that record into the
//!   registry, *not* the event stream, so traces stay byte-deterministic,
//! * [`ConvergenceReport`] — per-class cross-node price-variance series
//!   and time-to-stabilization computed from a trace; how many events of
//!   each kind a trace holds is [`census`]'s answer, not the report's.
//!
//! # Time
//!
//! Events are stamped from a shared microsecond clock set by the driver:
//! the simulator writes sim-time before dispatching each event, the
//! cluster writes wall-clock-since-epoch. Timestamps are therefore
//! deterministic exactly when the driver's clock is (sim yes, cluster no).
//!
//! # Serialization
//!
//! Records serialize as flattened JSONL objects
//! (`{"t_us":…,"type":"price_adjusted",…}`) through the in-tree
//! [`crate::json`] module. A trace is read back through one strict
//! reader, [`read_trace`]: every line parses ([`TraceRecord::parse_line`]),
//! re-dumps to its own bytes, and keeps the clock monotone. Every trace
//! consumer (`qa-trace`, the figures test's committed traces,
//! `scripts/check_trace.sh`) reads through it.

use crate::json::{FromJson, Json, ToJson};
use crate::stats::{LogHistogram, Welford};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Why a price moved (§3.1 rejection raises, §3.2 leftover-supply decay,
/// plus the implementation's periodic renormalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriceReason {
    /// A rejected request raised the price by `×(1 + λ)`.
    Rejection,
    /// Leftover supply at period end lowered the price.
    PeriodDecay,
    /// Geometric-mean renormalization rescaled the whole vector.
    Renormalize,
}

impl PriceReason {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            PriceReason::Rejection => "rejection",
            PriceReason::PeriodDecay => "period_decay",
            PriceReason::Renormalize => "renormalize",
        }
    }
}

impl ToJson for PriceReason {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl FromJson for PriceReason {
    fn from_json(v: &Json) -> Result<PriceReason, String> {
        [
            PriceReason::Rejection,
            PriceReason::PeriodDecay,
            PriceReason::Renormalize,
        ]
        .into_iter()
        .find(|r| v.as_str() == Some(r.as_str()))
        .ok_or_else(|| format!("unknown price reason {}", v.dump()))
    }
}

/// The event taxonomy, declared once. One row per kind: the variant, its
/// wire `"type"` name, and its fields in wire order, each read and
/// written through its type's [`FromJson`] / [`ToJson`]. The rows are
/// handed to the macro named by `$generate` ([`event_api!`] below; the
/// tests derive their schema list the same way), so a new kind is one
/// row plus its emitter.
macro_rules! events {
    ($generate:ident) => {
        $generate! {
            /// A node's private price for one class changed.
            PriceAdjusted = "price_adjusted" {
                /// The adjusting node.
                node: u32,
                /// The query class whose price moved.
                class: u32,
                /// Price before the adjustment.
                old: f64,
                /// Price after the adjustment.
                new: f64,
                /// What triggered the move.
                reason: PriceReason,
            }
            /// A node solved its per-period supply (§3.2 quantity allocation).
            SupplyComputed = "supply_computed" {
                /// The supplying node.
                node: u32,
                /// The period's capacity budget in milliseconds.
                budget_ms: f64,
                /// Offered units per class.
                supply: Vec<u64>,
            }
            /// A node refused a request it was capable of serving (out of supply).
            RequestRejected = "request_rejected" {
                /// The refusing node.
                node: u32,
                /// The class of the refused request.
                class: u32,
            }
            /// The allocation protocol assigned a query to a node.
            QueryAssigned = "query_assigned" {
                /// Trace index of the query.
                query: u64,
                /// The query's class.
                class: u32,
                /// The chosen node.
                node: u32,
                /// Resubmissions before this assignment.
                retries: u32,
            }
            /// A query finished executing.
            QueryCompleted = "query_completed" {
                /// Trace index of the query.
                query: u64,
                /// The query's class.
                class: u32,
                /// The node that executed it.
                node: u32,
                /// Arrival-to-completion response time in milliseconds.
                response_ms: f64,
            }
            /// A query exhausted its retries (or had no capable node).
            QueryUnserved = "query_unserved" {
                /// Trace index of the query.
                query: u64,
                /// The query's class.
                class: u32,
                /// Resubmissions spent before giving up.
                retries: u32,
            }
            /// A protocol message to/from a node was lost (fault injection or a
            /// dead mailbox).
            MessageDropped = "message_dropped" {
                /// The unreachable node.
                node: u32,
                /// Which protocol step lost the message.
                context: String,
            }
            /// A node crashed (§2.2 autonomy: the market must route around it).
            NodeCrashed = "node_crashed" {
                /// The crashed node.
                node: u32,
            }
            /// A crashed node rejoined the federation.
            NodeRecovered = "node_recovered" {
                /// The recovered node.
                node: u32,
            }
            /// A new market period began.
            PeriodStarted = "period_started" {
                /// Zero-based period index.
                index: u64,
            }
            /// A transport connection to a peer was established (TCP federation).
            PeerConnected = "peer_connected" {
                /// The peer node.
                node: u32,
                /// The peer's socket address.
                addr: String,
            }
            /// The magic + protocol-version handshake with a peer completed.
            HandshakeCompleted = "handshake_completed" {
                /// The peer node.
                node: u32,
                /// The negotiated protocol version.
                version: u32,
            }
            /// A connection attempt failed and will be retried after backoff.
            ConnectRetried = "connect_retried" {
                /// The peer node.
                node: u32,
                /// One-based attempt number that just failed.
                attempt: u32,
                /// Backoff delay before the next attempt, in milliseconds.
                delay_ms: u64,
            }
            /// An undecodable or unwritable wire frame was discarded.
            FrameDropped = "frame_dropped" {
                /// The peer node.
                node: u32,
                /// What was wrong with the frame.
                context: String,
            }
            /// A transport peer died (handshake failure, heartbeat timeout, or a
            /// closed socket).
            PeerDied = "peer_died" {
                /// The dead peer.
                node: u32,
                /// Why the transport declared it dead.
                reason: String,
            }
            /// A protocol-exploration schedule began (model-checking harness).
            ScheduleStarted = "schedule_started" {
                /// Zero-based schedule index within the exploration.
                schedule: u64,
                /// Schedule family: `"random"`, `"systematic"`, or `"replay"`.
                mode: String,
            }
            /// A machine-checked protocol invariant failed under an explored
            /// schedule. The trail in `detail` replays the interleaving.
            InvariantViolated = "invariant_violated" {
                /// Which invariant broke (e.g. `"conservation"`).
                invariant: String,
                /// What was observed, plus the choice trail for replay.
                detail: String,
            }
            /// A shard broker submitted its sealed bid for the next parent-market
            /// clearing (hierarchical tier, DESIGN.md §12).
            BrokerBid = "broker_bid" {
                /// The bidding broker (= its shard index).
                broker: u32,
                /// Aggregate remaining supply per class across the shard.
                supply: Vec<u64>,
                /// Mean ln-price per class across the shard's live nodes.
                mean_ln_price: Vec<f64>,
            }
            /// The parent market cleared one window over the broker bids.
            ParentCleared = "parent_cleared" {
                /// Price-adjustment rounds the clearing spent (internal to the
                /// parent — not cross-tier messages).
                rounds: u32,
                /// Clearing ln-price per class after the window.
                ln_prices: Vec<f64>,
                /// Demand per class the market could not place this window.
                unserved: Vec<u64>,
            }
            /// Unplaced parent-tier demand was escalated into the next window's
            /// clearing (excess demand flowing up).
            DemandEscalated = "demand_escalated" {
                /// The class whose demand is carried over.
                class: u32,
                /// Units carried into the next window.
                units: u64,
            }
        }
    };
}

/// Generates, from the rows of [`events!`], the enum, the name list, the
/// JSON writer and the strict reader.
macro_rules! event_api {
    ($(
        $(#[$variant_doc:meta])*
        $variant:ident = $kind:literal {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )+
        }
    )+) => {
        /// A typed market event. Field names are the wire schema; changing
        /// them breaks [`read_trace`] deliberately.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TelemetryEvent {
            $(
                $(#[$variant_doc])*
                $variant {
                    $( $(#[$field_doc])* $field: $ty, )+
                },
            )+
        }

        impl TelemetryEvent {
            /// Every kind's wire `"type"` name, in declaration order.
            pub const KINDS: &'static [&'static str] = &[$($kind),+];

            /// The stable `"type"` discriminator used on the wire.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TelemetryEvent::$variant { .. } => $kind, )+
                }
            }

            /// The payload as `(wire name, value)` pairs, in wire order.
            pub fn fields(&self) -> Vec<(&'static str, Json)> {
                match self {
                    $( TelemetryEvent::$variant { $($field),+ } => {
                        vec![$( (stringify!($field), $field.to_json()) ),+]
                    } )+
                }
            }

            /// Reads the payload of a `kind` record back from its flattened
            /// object.
            fn read(kind: &str, v: &Json) -> Result<TelemetryEvent, String> {
                match kind {
                    $( $kind => Ok(TelemetryEvent::$variant {
                        $( $field: v.field(stringify!($field))?, )+
                    }), )+
                    other => Err(format!("unknown event type {other:?}")),
                }
            }
        }
    };
}

events!(event_api);

/// One timestamped event, as written to a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Timestamp in microseconds (sim-time or wall-clock-since-epoch,
    /// depending on the driver).
    pub t_us: u64,
    /// The event payload.
    pub event: TelemetryEvent,
}

impl ToJson for TraceRecord {
    /// The flattened object: `t_us`, `type`, then the event's fields.
    fn to_json(&self) -> Json {
        let head = [
            ("t_us", self.t_us.to_json()),
            ("type", self.event.kind().to_json()),
        ];
        Json::object(head.into_iter().chain(self.event.fields()))
    }
}

impl FromJson for TraceRecord {
    /// Strict: an unknown `type` and a missing or ill-typed field are
    /// errors.
    fn from_json(v: &Json) -> Result<TraceRecord, String> {
        let t_us = v.field("t_us")?;
        let kind: String = v.field("type")?;
        let event = TelemetryEvent::read(&kind, v)?;
        Ok(TraceRecord { t_us, event })
    }
}

impl TraceRecord {
    /// Parses one JSONL line (strict JSON, then the strict reader).
    pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
        TraceRecord::from_json(&Json::parse(line)?)
    }
}

/// Reads a whole JSONL trace under the trace contract: every line parses
/// strictly and re-dumps to exactly its own bytes (so schema drift
/// between emitter and reader fails here), timestamps never decrease
/// (traces are written in event-loop order), and there is no empty line
/// and no empty trace.
///
/// # Errors
/// The first violation, naming its 1-based line.
pub fn read_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records: Vec<TraceRecord> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = i + 1;
        if line.is_empty() {
            return Err(format!("line {at}: empty line"));
        }
        let record =
            TraceRecord::parse_line(line).map_err(|e| format!("line {at}: parse error: {e}"))?;
        let redump = record.to_json().dump();
        if redump != line {
            return Err(format!(
                "line {at}: not canonical\n  input:  {line}\n  redump: {redump}"
            ));
        }
        if let Some(last) = records.last().filter(|last| record.t_us < last.t_us) {
            return Err(format!(
                "line {at}: timestamp regression {} -> {}",
                last.t_us, record.t_us
            ));
        }
        records.push(record);
    }
    if records.is_empty() {
        return Err("trace is empty".to_string());
    }
    Ok(records)
}

/// How many records of each event kind `records` holds, by kind name.
pub fn census(records: &[TraceRecord]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for r in records {
        *counts.entry(r.event.kind()).or_insert(0) += 1;
    }
    counts
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination for emitted records. Implementations must tolerate being
/// called from multiple threads in turn (the handle serializes calls
/// behind a mutex).
pub trait EventSink: Send {
    /// Consumes one record.
    fn record(&mut self, record: &TraceRecord);
}

#[derive(Default)]
struct BufferSink {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl EventSink for BufferSink {
    fn record(&mut self, record: &TraceRecord) {
        self.records.lock().unwrap().push(record.clone());
    }
}

/// Shared view of an in-memory trace, returned by [`Telemetry::buffered`].
#[derive(Clone, Default)]
pub struct TraceBuffer {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl TraceBuffer {
    /// Snapshot of the records captured so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// `true` iff nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the whole buffer as JSONL (one compact object per line,
    /// each line newline-terminated).
    pub fn to_jsonl(&self) -> String {
        let records = self.records.lock().unwrap();
        let mut out = String::new();
        for r in records.iter() {
            out.push_str(&r.to_json().dump());
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("len", &self.len())
            .finish()
    }
}

/// Streams each record as a compact JSONL line to any writer
/// (`stderr`, a file, …).
pub(crate) struct WriterSink<W: std::io::Write + Send> {
    writer: W,
}

impl<W: std::io::Write + Send> WriterSink<W> {
    /// Wraps a writer.
    pub(crate) fn new(writer: W) -> Self {
        WriterSink { writer }
    }
}

impl<W: std::io::Write + Send> EventSink for WriterSink<W> {
    fn record(&mut self, record: &TraceRecord) {
        // Telemetry is best-effort: a broken pipe must not kill the run.
        let _ = writeln!(self.writer, "{}", record.to_json().dump());
    }
}

/// Counts records without storing them — the enabled-path overhead bench
/// uses this so the buffer doesn't grow unboundedly.
#[derive(Clone, Default)]
pub struct CountingSink {
    count: Arc<AtomicU64>,
}

impl CountingSink {
    /// A fresh counter.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Records seen so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl EventSink for CountingSink {
    fn record(&mut self, _record: &TraceRecord) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A named monotonic counter.
#[derive(Clone, Default, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named last-write-wins float gauge.
#[derive(Clone, Default, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, x: f64) {
        self.bits.store(x.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A named streaming mean/variance accumulator.
#[derive(Clone, Default, Debug)]
pub struct WelfordHandle {
    inner: Arc<Mutex<Welford>>,
}

impl WelfordHandle {
    /// Adds one observation.
    pub(crate) fn observe(&self, x: f64) {
        self.inner.lock().unwrap().add(x);
    }

    /// Merges a whole accumulator in.
    pub fn merge(&self, other: &Welford) {
        self.inner.lock().unwrap().merge(other);
    }

    /// Snapshot of the accumulator.
    pub fn snapshot(&self) -> Welford {
        self.inner.lock().unwrap().clone()
    }
}

/// A named log-bucket distribution ([`LogHistogram`]). The fixed bucket
/// layout makes any two handles — including one rebuilt from a scraped
/// snapshot — exactly mergeable.
#[derive(Clone, Default, Debug)]
pub struct HistogramHandle {
    inner: Arc<Mutex<LogHistogram>>,
}

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, x: f64) {
        self.inner.lock().unwrap().record(x);
    }

    /// Merges a whole histogram in.
    pub fn merge(&self, other: &LogHistogram) {
        self.inner.lock().unwrap().merge(other);
    }

    /// Snapshot of the histogram.
    pub fn snapshot(&self) -> LogHistogram {
        self.inner.lock().unwrap().clone()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    stats: BTreeMap<String, WelfordHandle>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// Registry of named metrics. Cloning shares the underlying store;
/// `BTreeMap` keys make [`MetricsRegistry::snapshot`] order-deterministic.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the Welford accumulator named `name`.
    pub fn welford(&self, name: &str) -> WelfordHandle {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the log-bucket histogram named `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// JSON snapshot:
    /// `{"counters":{…},"gauges":{…},"stats":{…},"histograms":{…}}`, keys
    /// sorted, empty sections omitted from their maps but the four keys
    /// always present. Histogram entries include `p50`/`p90`/`p99`
    /// quantiles plus the sparse bucket counts that
    /// [`MetricsRegistry::merge_snapshot`] rebuilds from.
    pub fn snapshot(&self) -> Json {
        let inner = self.inner.lock().unwrap();
        let counters = Json::object(
            inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get().to_json())),
        );
        let gauges = Json::object(
            inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get().to_json())),
        );
        let stats = Json::object(
            inner
                .stats
                .iter()
                .map(|(k, w)| (k.clone(), w.snapshot().to_json())),
        );
        let histograms = Json::object(
            inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot().to_json())),
        );
        Json::object([
            ("counters", counters),
            ("gauges", gauges),
            ("stats", stats),
            ("histograms", histograms),
        ])
    }

    /// Merges another registry's [`snapshot`](Self::snapshot) into this
    /// one: counters add, gauges take the incoming value (last write
    /// wins), Welford summaries reconstruct-and-merge, histograms merge
    /// by bucket. This is the fleet-aggregation primitive behind
    /// `qa-ctl stats`: scrape each node's snapshot off the wire, merge
    /// them all into a fresh registry, snapshot that. Unparseable
    /// entries are skipped (a malformed node must not poison the fleet
    /// view); returns the number of entries merged.
    pub fn merge_snapshot(&self, snap: &Json) -> usize {
        let mut merged = 0;
        if let Some(Json::Obj(pairs)) = snap.get("counters") {
            for (name, v) in pairs {
                if let Some(n) = v.as_u64() {
                    self.counter(name).add(n);
                    merged += 1;
                }
            }
        }
        if let Some(Json::Obj(pairs)) = snap.get("gauges") {
            for (name, v) in pairs {
                if let Some(x) = v.as_f64() {
                    self.gauge(name).set(x);
                    merged += 1;
                }
            }
        }
        if let Some(Json::Obj(pairs)) = snap.get("stats") {
            for (name, v) in pairs {
                let Some(n) = v.get("count").and_then(Json::as_u64) else {
                    continue;
                };
                if n == 0 {
                    // An empty accumulator serializes its optionals as
                    // null; merging it is a no-op, but still register the
                    // name so the merged snapshot lists every family.
                    self.welford(name);
                    merged += 1;
                    continue;
                }
                let field = |k: &str| v.get(k).and_then(Json::as_f64);
                let (Some(mean), Some(min), Some(max)) =
                    (field("mean"), field("min"), field("max"))
                else {
                    continue;
                };
                let std_dev = field("std_dev").unwrap_or(0.0);
                self.welford(name)
                    .merge(&Welford::from_summary(n, mean, std_dev, min, max));
                merged += 1;
            }
        }
        if let Some(Json::Obj(pairs)) = snap.get("histograms") {
            for (name, v) in pairs {
                if let Some(h) = LogHistogram::from_json(v) {
                    self.histogram(name).merge(&h);
                    merged += 1;
                }
            }
        }
        merged
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsRegistry({})", self.snapshot().dump())
    }
}

// ---------------------------------------------------------------------------
// Telemetry handle
// ---------------------------------------------------------------------------

struct TelemetryInner {
    now_us: AtomicU64,
    sink: Mutex<Box<dyn EventSink>>,
    registry: MetricsRegistry,
}

/// Cloneable telemetry handle. A disabled handle (the default) carries a
/// `None` and every [`Telemetry::emit`] / [`Telemetry::span`] call is a
/// single branch; clones share the sink, clock and registry.
///
/// `label` is the node id stamped on market events emitted *by* that
/// node's pricer/market state; derive per-node handles with
/// [`Telemetry::with_label`].
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
    label: u32,
}

impl Telemetry {
    /// A handle that drops everything (the zero-cost default).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A handle with a live [`MetricsRegistry`] but no event stream:
    /// every emitted record is discarded at the sink. This is what `qad`
    /// runs by default — the stats scrape and `/metrics` endpoint always
    /// have a registry to answer from, without paying for (or leaking)
    /// JSONL traces nobody asked for.
    pub fn metrics_only() -> Telemetry {
        struct NullSink;
        impl EventSink for NullSink {
            fn record(&mut self, _record: &TraceRecord) {}
        }
        Telemetry::with_sink(Box::new(NullSink))
    }

    /// A handle writing into an in-memory buffer; returns the buffer too.
    pub fn buffered() -> (Telemetry, TraceBuffer) {
        let buffer = TraceBuffer::default();
        let sink = BufferSink {
            records: Arc::clone(&buffer.records),
        };
        (Telemetry::with_sink(Box::new(sink)), buffer)
    }

    /// A handle driving an arbitrary sink.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                now_us: AtomicU64::new(0),
                sink: Mutex::new(sink),
                registry: MetricsRegistry::new(),
            })),
            label: 0,
        }
    }

    /// A handle streaming JSONL into a file (truncated on open). Each
    /// record is written immediately, so a process that exits without
    /// explicit teardown still leaves a complete trace — this is what the
    /// multi-process federation bins (`qad --trace`, `qa-ctl --trace`)
    /// use.
    pub fn to_file<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Telemetry> {
        let file = std::fs::File::create(path)?;
        Ok(Telemetry::with_sink(Box::new(WriterSink::new(file))))
    }

    /// `true` iff a sink is installed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The node label stamped by this handle.
    #[inline]
    pub fn label(&self) -> u32 {
        self.label
    }

    /// A clone of this handle that stamps `node` as its label.
    pub fn with_label(&self, node: u32) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            label: node,
        }
    }

    /// Advances the shared event clock (microseconds). The simulator
    /// writes sim-time here before dispatching each event; the cluster
    /// writes wall-clock-since-epoch. The clock is **monotone**: a stamp
    /// below the current value is ignored (`fetch_max`), so concurrent
    /// wall-clock stampers racing between `elapsed()` and the store can
    /// never make trace timestamps regress — which [`read_trace`] rejects.
    #[inline]
    pub fn set_now_us(&self, t_us: u64) {
        if let Some(inner) = &self.inner {
            inner.now_us.fetch_max(t_us, Ordering::Relaxed);
        }
    }

    /// Emits one event. The closure only runs when a sink is installed,
    /// so a disabled handle pays exactly one branch — no allocation, no
    /// formatting.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TelemetryEvent) {
        if let Some(inner) = &self.inner {
            let record = TraceRecord {
                t_us: inner.now_us.load(Ordering::Relaxed),
                event: build(),
            };
            inner.sink.lock().unwrap().record(&record);
        }
    }

    /// The shared metrics registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// Starts a wall-clock timing span. On drop the elapsed microseconds
    /// are recorded into the registry Welford named `span.{name}_us` —
    /// *not* the event stream, which keeps traces byte-deterministic.
    /// Disabled handles return an inert guard without reading the clock.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            state: self
                .inner
                .as_ref()
                .map(|inner| (Arc::clone(inner), Instant::now())),
            name,
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("label", &self.label)
            .finish()
    }
}

/// Timing guard returned by [`Telemetry::span`].
pub struct Span {
    state: Option<(Arc<TelemetryInner>, Instant)>,
    name: &'static str,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, start)) = self.state.take() {
            let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
            inner
                .registry
                .welford(&format!("span.{}_us", self.name))
                .observe(elapsed_us);
        }
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("enabled", &self.state.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Convergence diagnostics
// ---------------------------------------------------------------------------

/// Per-class convergence series extracted from a trace.
#[derive(Debug, Clone)]
pub struct ClassConvergence {
    /// The query class.
    pub class: u32,
    /// Total price adjustments for this class across all nodes.
    pub adjustments: u64,
    /// Mean final price across nodes that ever priced this class.
    pub final_mean_price: f64,
    /// Per-period population variance of `ln(price)` across nodes —
    /// the paper's price-dispersion view of convergence.
    pub(crate) log_price_variance: Vec<f64>,
    /// Per-period mean `|Δ ln(price)|` over the period's adjustments
    /// (0 for quiet periods).
    pub(crate) mean_abs_log_step: Vec<f64>,
    /// First period after which `mean_abs_log_step` stays at or below
    /// the tolerance for the rest of the run; `None` if prices were
    /// still moving in the final period.
    pub stabilized_at_period: Option<u64>,
}

impl ToJson for ClassConvergence {
    fn to_json(&self) -> Json {
        crate::json_obj! {
            "class": self.class,
            "adjustments": self.adjustments,
            "final_mean_price": self.final_mean_price,
            "log_price_variance": self.log_price_variance,
            "mean_abs_log_step": self.mean_abs_log_step,
            "stabilized_at_period": self.stabilized_at_period,
        }
    }
}

/// Convergence summary computed from a trace: did the decentralized
/// price adjustments settle, and how fast?
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Period length (µs) the trace was bucketed by.
    pub(crate) period_us: u64,
    /// Number of periods covered.
    pub periods: u64,
    /// Distinct nodes that emitted price, rejection or supply events.
    pub nodes: u64,
    /// Per-class series, sorted by class id.
    pub per_class: Vec<ClassConvergence>,
}

impl ToJson for ConvergenceReport {
    fn to_json(&self) -> Json {
        crate::json_obj! {
            "period_us": self.period_us,
            "periods": self.periods,
            "nodes": self.nodes,
            "per_class": self.per_class,
        }
    }
}

/// Population variance of `ln(x)` over the *positive* values.
/// Non-positive prices have no logarithm — a node that zeroes a price
/// (e.g. while crashed) would otherwise inject `−∞`/NaN into the series
/// and, through it, `null`-holes into the report JSON.
fn log_variance(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let mut n = 0u64;
    let mut sum = 0.0;
    for v in values.clone() {
        if v <= 0.0 {
            continue;
        }
        n += 1;
        sum += v.ln();
    }
    if n == 0 {
        return 0.0;
    }
    let mean = sum / n as f64;
    let mut ss = 0.0;
    for v in values {
        if v <= 0.0 {
            continue;
        }
        let d = v.ln() - mean;
        ss += d * d;
    }
    ss / n as f64
}

impl ConvergenceReport {
    /// Computes the report from a trace. Records must be in emission
    /// order (traces are); `period_us` buckets them, `tol` is the
    /// `mean_abs_log_step` threshold below which a period counts as
    /// quiet.
    ///
    /// # Panics
    /// Panics if `period_us == 0`.
    pub fn from_records(records: &[TraceRecord], period_us: u64, tol: f64) -> ConvergenceReport {
        assert!(period_us > 0, "period_us must be positive");
        // Latest price per (class, node), plus per-class/per-period step
        // accumulators.
        let mut prices: BTreeMap<u32, BTreeMap<u32, f64>> = BTreeMap::new();
        let mut variance: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        let mut steps: BTreeMap<u32, Vec<Welford>> = BTreeMap::new();
        let mut nodes: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut adjustments: BTreeMap<u32, u64> = BTreeMap::new();

        let mut cur_period = 0u64;
        let close_period = |prices: &BTreeMap<u32, BTreeMap<u32, f64>>,
                            variance: &mut BTreeMap<u32, Vec<f64>>,
                            period: u64| {
            for (&class, by_node) in prices {
                let series = variance.entry(class).or_default();
                let v = log_variance(by_node.values().copied());
                while (series.len() as u64) <= period {
                    // Pad with the last known value so late-appearing
                    // classes still get a full-length series.
                    let last = series.last().copied().unwrap_or(0.0);
                    series.push(last);
                }
                series[period as usize] = v;
            }
        };

        for rec in records {
            let period = rec.t_us / period_us;
            while cur_period < period {
                close_period(&prices, &mut variance, cur_period);
                cur_period += 1;
            }
            match &rec.event {
                TelemetryEvent::PriceAdjusted {
                    node,
                    class,
                    old,
                    new,
                    ..
                } => {
                    *adjustments.entry(*class).or_default() += 1;
                    nodes.insert(*node);
                    prices.entry(*class).or_default().insert(*node, *new);
                    if *old > 0.0 && *new > 0.0 {
                        let series = steps.entry(*class).or_default();
                        while (series.len() as u64) <= period {
                            series.push(Welford::new());
                        }
                        series[period as usize].add((new.ln() - old.ln()).abs());
                    }
                }
                TelemetryEvent::RequestRejected { node, .. }
                | TelemetryEvent::SupplyComputed { node, .. } => {
                    nodes.insert(*node);
                }
                _ => {}
            }
        }
        close_period(&prices, &mut variance, cur_period);
        let periods = cur_period + 1;

        let per_class = prices
            .iter()
            .map(|(&class, by_node)| {
                let var_series = variance.get(&class).cloned().unwrap_or_default();
                let mut step_series: Vec<f64> = steps
                    .get(&class)
                    .map(|ws| ws.iter().map(|w| w.mean().unwrap_or(0.0)).collect())
                    .unwrap_or_default();
                step_series.resize(periods as usize, 0.0);
                // Trailing-quiet scan: the first period of the final
                // all-quiet suffix.
                let mut stabilized = Some(0u64);
                for (i, &s) in step_series.iter().enumerate() {
                    if s > tol {
                        stabilized = if i + 1 < step_series.len() {
                            Some(i as u64 + 1)
                        } else {
                            None
                        };
                    }
                }
                let final_mean_price = if by_node.is_empty() {
                    0.0
                } else {
                    by_node.values().sum::<f64>() / by_node.len() as f64
                };
                ClassConvergence {
                    class,
                    adjustments: adjustments.get(&class).copied().unwrap_or(0),
                    final_mean_price,
                    log_price_variance: var_series,
                    mean_abs_log_step: step_series,
                    stabilized_at_period: stabilized,
                }
            })
            .collect();

        ConvergenceReport {
            period_us,
            periods,
            nodes: nodes.len() as u64,
            per_class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(variant, kind, [(field, type)])` per row of the table.
    macro_rules! schema {
        ($(
            $(#[$variant_doc:meta])*
            $variant:ident = $kind:literal {
                $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )+
            }
        )+) => {
            const SCHEMA: &[(&str, &str, &[(&str, &str)])] = &[$(
                (stringify!($variant), $kind, &[$( (stringify!($field), stringify!($ty)) ),+]),
            )+];
        };
    }
    events!(schema);

    fn all_event_kinds() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::PriceAdjusted {
                node: 3,
                class: 1,
                old: 1.0,
                new: 1.25,
                reason: PriceReason::Rejection,
            },
            TelemetryEvent::SupplyComputed {
                node: 3,
                budget_ms: 500.0,
                supply: vec![4, 0, 7],
            },
            TelemetryEvent::RequestRejected { node: 2, class: 0 },
            TelemetryEvent::QueryAssigned {
                query: 42,
                class: 1,
                node: 5,
                retries: 2,
            },
            TelemetryEvent::QueryCompleted {
                query: 42,
                class: 1,
                node: 5,
                response_ms: 123.5,
            },
            TelemetryEvent::QueryUnserved {
                query: 43,
                class: 0,
                retries: 8,
            },
            TelemetryEvent::MessageDropped {
                node: 7,
                context: "poll".to_string(),
            },
            TelemetryEvent::NodeCrashed { node: 7 },
            TelemetryEvent::NodeRecovered { node: 7 },
            TelemetryEvent::PeriodStarted { index: 9 },
            TelemetryEvent::PeerConnected {
                node: 4,
                addr: "127.0.0.1:4410".to_string(),
            },
            TelemetryEvent::HandshakeCompleted {
                node: 4,
                version: 1,
            },
            TelemetryEvent::ConnectRetried {
                node: 4,
                attempt: 2,
                delay_ms: 160,
            },
            TelemetryEvent::FrameDropped {
                node: 4,
                context: "unknown tag 0xfe".to_string(),
            },
            TelemetryEvent::PeerDied {
                node: 4,
                reason: "heartbeat timeout".to_string(),
            },
            TelemetryEvent::ScheduleStarted {
                schedule: 17,
                mode: "systematic".to_string(),
            },
            TelemetryEvent::InvariantViolated {
                invariant: "conservation".to_string(),
                detail: "query 3 committed twice; trail deliver:1/3".to_string(),
            },
            TelemetryEvent::BrokerBid {
                broker: 2,
                supply: vec![14, 0, 3],
                mean_ln_price: vec![0.25, -1.5, 3.0],
            },
            TelemetryEvent::ParentCleared {
                rounds: 6,
                ln_prices: vec![0.5, -0.125],
                unserved: vec![0, 11],
            },
            TelemetryEvent::DemandEscalated {
                class: 1,
                units: 11,
            },
        ]
    }

    /// One constructed record of every kind survives the wire, and the
    /// strict reader refuses it once any one field is removed, retyped
    /// or (a `u32`) set to 2³².
    #[test]
    fn every_kind_round_trips_and_every_field_is_checked() {
        let samples = all_event_kinds();
        let sampled: Vec<&str> = samples.iter().map(TelemetryEvent::kind).collect();
        assert_eq!(sampled, TelemetryEvent::KINDS, "one sample per table row");
        for (i, (event, (_, _, schema))) in samples.into_iter().zip(SCHEMA).enumerate() {
            let rec = TraceRecord {
                t_us: i as u64 * 500_000,
                event,
            };
            let line = rec.to_json().dump();
            let back = TraceRecord::parse_line(&line)
                .unwrap_or_else(|e| panic!("round-trip failed for {line}: {e}"));
            assert_eq!(back, rec);
            // Canonical: re-serializing the parsed record reproduces the
            // exact line (what read_trace enforces).
            assert_eq!(back.to_json().dump(), line);

            let Json::Obj(pairs) = rec.to_json() else {
                panic!("{line}: not an object")
            };
            let types: Vec<&str> = ["u64", "String"]
                .into_iter()
                .chain(schema.iter().map(|(_, ty)| *ty))
                .collect();
            assert_eq!(pairs.len(), types.len(), "{line}");
            let reread = |pairs: Vec<(String, Json)>| TraceRecord::from_json(&Json::Obj(pairs));
            for (at, (key, _)) in pairs.iter().enumerate() {
                let mut removed = pairs.clone();
                removed.remove(at);
                assert_eq!(reread(removed), Err(format!("missing field {key:?}")));
                let mut retyped = pairs.clone();
                retyped[at].1 = Json::Bool(true);
                let refusal = reread(retyped).expect_err(&line);
                assert!(
                    refusal.starts_with(&format!("field {key:?}: ")),
                    "{refusal}"
                );
                if types[at] == "u32" {
                    let mut wide = pairs.clone();
                    wide[at].1 = Json::Int(1 << 32);
                    assert_eq!(reread(wide), Err(format!("field {key:?}: exceeds u32")));
                }
            }
        }
    }

    /// "An event with no emitter" cannot come back: every table row is
    /// constructed by non-test code of some crate, and DESIGN.md §8 lists
    /// exactly the table's kinds.
    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// `(path, code)` for every Rust source of the workspace (`src/` and
    /// each `crates/*/src/`) but this file, `code` being the text ahead of
    /// the file's first `#[cfg(test)]`.
    fn non_test_sources() -> Vec<(std::path::PathBuf, String)> {
        fn walk(dir: &std::path::Path, out: &mut Vec<(std::path::PathBuf, String)>) {
            for entry in std::fs::read_dir(dir).expect("readable source dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs")
                    && !path.ends_with("simnet/src/telemetry.rs")
                {
                    let source = std::fs::read_to_string(&path).expect("readable source");
                    let code = source.split("#[cfg(test)]").next().unwrap_or(&source);
                    out.push((path, code.to_string()));
                }
            }
        }
        let root = repo_root();
        let mut out = Vec::new();
        walk(&root.join("src"), &mut out);
        for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
            walk(&krate.expect("dir entry").path().join("src"), &mut out);
        }
        out
    }

    /// One strict reader: no trace consumer outside this file parses a
    /// line on its own, so none can skip the canonical/monotone checks.
    #[test]
    fn trace_lines_are_parsed_only_through_read_trace() {
        let sources = non_test_sources();
        assert!(sources.len() > 50, "walked the workspace");
        for (path, code) in sources {
            for (n, line) in code.lines().enumerate() {
                let code = line.split("//").next().unwrap_or(line);
                assert!(
                    !code.contains("parse_line"),
                    "{}:{}: parses trace lines outside read_trace",
                    path.display(),
                    n + 1
                );
            }
        }
    }

    #[test]
    fn read_trace_enforces_the_trace_contract() {
        let a = adj(5, 0, 0, 1.0, 2.0).to_json().dump();
        let b = adj(5, 1, 0, 1.0, 2.0).to_json().dump();
        let records = read_trace(&format!("{a}\n{b}\n")).expect("valid trace");
        assert_eq!(records, [adj(5, 0, 0, 1.0, 2.0), adj(5, 1, 0, 1.0, 2.0)]);
        let refused = |text: &str| read_trace(text).expect_err(text);
        assert_eq!(refused(""), "trace is empty");
        assert_eq!(refused(&format!("{a}\n\n{b}\n")), "line 2: empty line");
        assert!(refused(&format!("{a}\nnot json\n")).starts_with("line 2: parse error: "));
        let spaced = a.replacen(':', ": ", 1);
        assert!(refused(&format!("{a}\n{spaced}\n")).starts_with("line 2: not canonical"));
        let late = adj(4, 0, 0, 1.0, 2.0).to_json().dump();
        assert_eq!(
            refused(&format!("{a}\n{late}\n")),
            "line 2: timestamp regression 5 -> 4"
        );
    }

    #[test]
    fn every_kind_has_an_emitter_and_a_design_entry() {
        let root = repo_root();
        let code: String = non_test_sources().into_iter().map(|(_, c)| c).collect();
        for (variant, kind, _) in SCHEMA {
            let emitter = format!("|| TelemetryEvent::{variant} {{");
            assert!(code.contains(&emitter), "{kind} has no emitter");
        }

        let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
        let taxonomy = design
            .split("* **Event taxonomy.**")
            .nth(1)
            .and_then(|rest| rest.split("\n* **").next())
            .expect("DESIGN.md §8 has an event-taxonomy entry");
        // The kinds are the entry's back-quoted lower_snake words.
        let mut named: Vec<&str> = taxonomy
            .split('`')
            .skip(1)
            .step_by(2)
            .filter(|w| w.contains('_') && w.bytes().all(|b| b == b'_' || b.is_ascii_lowercase()))
            .collect();
        named.sort_unstable();
        named.dedup();
        let mut kinds = TelemetryEvent::KINDS.to_vec();
        kinds.sort_unstable();
        assert_eq!(named, kinds, "DESIGN.md §8 event taxonomy");
    }

    #[test]
    fn clock_is_monotone_under_stale_stamps() {
        let (tel, buf) = Telemetry::buffered();
        tel.set_now_us(1_000);
        // A racing thread that computed its elapsed time earlier must not
        // drag the clock (and hence trace timestamps) backwards.
        tel.set_now_us(400);
        tel.emit(|| TelemetryEvent::PeriodStarted { index: 0 });
        assert_eq!(buf.records()[0].t_us, 1_000);
    }

    #[test]
    fn parse_rejects_unknown_type_and_malformed_lines() {
        assert_eq!(
            TraceRecord::parse_line(r#"{"t_us":0,"type":"nope"}"#),
            Err("unknown event type \"nope\"".to_string())
        );
        assert!(TraceRecord::parse_line("not json").is_err());
        assert!(TraceRecord::parse_line("[]").is_err());
    }

    #[test]
    fn disabled_handle_runs_no_closures() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.emit(|| panic!("closure must not run when disabled"));
        tel.set_now_us(123);
        let _span = tel.span("noop");
        assert!(tel.registry().is_none());
    }

    #[test]
    fn buffered_handle_captures_in_order_with_clock_and_label() {
        let (tel, buf) = Telemetry::buffered();
        let node3 = tel.with_label(3);
        tel.set_now_us(1_000);
        node3.emit(|| TelemetryEvent::NodeCrashed {
            node: node3.label(),
        });
        // The clock is shared across labeled clones.
        node3.set_now_us(2_000);
        tel.emit(|| TelemetryEvent::NodeRecovered { node: 3 });
        let records = buf.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].t_us, 1_000);
        assert_eq!(records[0].event, TelemetryEvent::NodeCrashed { node: 3 });
        assert_eq!(records[1].t_us, 2_000);
        let jsonl = buf.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            TraceRecord::parse_line(line).unwrap();
        }
    }

    /// The keys of a JSON object, in order.
    fn keys(j: &Json) -> Vec<&str> {
        match j {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn registry_snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").add(2);
        reg.counter("a.count").incr();
        reg.gauge("fairness").set(0.5);
        reg.welford("latency_us").observe(10.0);
        reg.welford("latency_us").observe(20.0);
        let snap = reg.snapshot();
        assert_eq!(
            keys(snap.get("counters").unwrap()),
            vec!["a.count", "b.count"]
        );
        assert_eq!(
            snap.get("counters").unwrap().get("b.count").unwrap(),
            &Json::Int(2)
        );
        assert_eq!(
            snap.get("stats")
                .unwrap()
                .get("latency_us")
                .unwrap()
                .get("count")
                .unwrap(),
            &Json::Int(2)
        );
        assert_eq!(reg.welford("latency_us").snapshot().count(), 2);
        // All four sections are present even when empty.
        assert_eq!(
            keys(&snap),
            vec!["counters", "gauges", "stats", "histograms"]
        );
        assert_eq!(keys(snap.get("histograms").unwrap()).len(), 0);
    }

    #[test]
    fn registry_histograms_snapshot_with_quantiles() {
        let reg = MetricsRegistry::new();
        for i in 0..100 {
            reg.histogram("alloc_ms").observe(i as f64);
        }
        let snap = reg.snapshot();
        let h = snap.get("histograms").unwrap().get("alloc_ms").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(100));
        assert!(h.get("p50").unwrap().as_f64().unwrap() >= 49.0);
        assert!(h.get("p99").unwrap().as_f64().unwrap() >= 99.0);
        assert_eq!(reg.histogram("alloc_ms").snapshot().count(), 100);
    }

    #[test]
    fn registry_merge_snapshot_aggregates_across_processes() {
        // Two "remote" registries, scraped as JSON, merged into a fresh one.
        let (a, b, fleet) = (
            MetricsRegistry::new(),
            MetricsRegistry::new(),
            MetricsRegistry::new(),
        );
        a.counter("qad.queries").add(3);
        b.counter("qad.queries").add(4);
        a.gauge("qad.backlog_ms").set(10.0);
        b.gauge("qad.backlog_ms").set(20.0);
        for x in [1.0, 2.0, 3.0] {
            a.welford("lat").observe(x);
            a.histogram("lat_h").observe(x);
        }
        for x in [4.0, 5.0] {
            b.welford("lat").observe(x);
            b.histogram("lat_h").observe(x);
        }
        b.welford("empty_family").snapshot(); // registered, never observed
        for snap in [a.snapshot(), b.snapshot()] {
            // Round-trip through the dump, as the wire does.
            let parsed = Json::parse(&snap.dump()).unwrap();
            assert!(fleet.merge_snapshot(&parsed) > 0);
        }
        assert_eq!(fleet.counter("qad.queries").get(), 7);
        assert_eq!(fleet.gauge("qad.backlog_ms").get(), 20.0);
        let lat = fleet.welford("lat").snapshot();
        assert_eq!(lat.count(), 5);
        assert!((lat.mean().unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(lat.min(), Some(1.0));
        assert_eq!(lat.max(), Some(5.0));
        let lat_h = fleet.histogram("lat_h").snapshot();
        assert_eq!(lat_h.count(), 5);
        assert!((lat_h.sum() - 15.0).abs() < 1e-9);
        // Empty families still appear in the merged snapshot.
        assert!(fleet
            .snapshot()
            .get("stats")
            .unwrap()
            .get("empty_family")
            .is_some());
        // Garbage input merges nothing and does not panic.
        assert_eq!(fleet.merge_snapshot(&Json::Null), 0);
    }

    #[test]
    fn metrics_only_has_registry_but_silent_event_stream() {
        let tel = Telemetry::metrics_only();
        assert!(tel.is_enabled());
        tel.emit(|| TelemetryEvent::PeriodStarted { index: 0 });
        let reg = tel.registry().expect("metrics-only handle has a registry");
        reg.counter("x").incr();
        assert_eq!(reg.counter("x").get(), 1);
    }

    #[test]
    fn span_records_into_registry() {
        let (tel, _buf) = Telemetry::buffered();
        {
            let _span = tel.span("work");
        }
        let snap = tel.registry().unwrap().snapshot();
        let count = snap
            .get("stats")
            .unwrap()
            .get("span.work_us")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(count, 1);
        // Spans never touch the event stream (byte-determinism contract).
        assert!(_buf.is_empty());
    }

    #[test]
    fn counting_sink_counts_without_storing() {
        let sink = CountingSink::new();
        let tel = Telemetry::with_sink(Box::new(sink.clone()));
        for _ in 0..5 {
            tel.emit(|| TelemetryEvent::PeriodStarted { index: 0 });
        }
        assert_eq!(sink.count(), 5);
    }

    fn adj(t_us: u64, node: u32, class: u32, old: f64, new: f64) -> TraceRecord {
        TraceRecord {
            t_us,
            event: TelemetryEvent::PriceAdjusted {
                node,
                class,
                old,
                new,
                reason: PriceReason::Rejection,
            },
        }
    }

    #[test]
    fn convergence_report_detects_stabilization() {
        let period = 1_000u64;
        // Class 0: big moves in periods 0–1 on two nodes, silent after.
        let records = vec![
            adj(0, 0, 0, 1.0, 2.0),
            adj(10, 1, 0, 1.0, 1.5),
            adj(1_500, 0, 0, 2.0, 2.5),
            TraceRecord {
                t_us: 3_500,
                event: TelemetryEvent::SupplyComputed {
                    node: 0,
                    budget_ms: 500.0,
                    supply: vec![1],
                },
            },
        ];
        let report = ConvergenceReport::from_records(&records, period, 1e-3);
        assert_eq!(report.periods, 4);
        assert_eq!(report.nodes, 2);
        let c0 = &report.per_class[0];
        assert_eq!(c0.class, 0);
        assert_eq!(c0.adjustments, 3);
        assert_eq!(c0.mean_abs_log_step.len(), 4);
        assert!(c0.mean_abs_log_step[0] > 0.0);
        assert!(c0.mean_abs_log_step[1] > 0.0);
        assert_eq!(c0.mean_abs_log_step[2], 0.0);
        // Quiet from period 2 onward.
        assert_eq!(c0.stabilized_at_period, Some(2));
        // Final prices 2.5 and 1.5 → mean 2.0, nonzero dispersion.
        assert!((c0.final_mean_price - 2.0).abs() < 1e-12);
        assert!(c0.log_price_variance[3] > 0.0);
    }

    #[test]
    fn census_counts_broker_tier_events() {
        let records = vec![
            TraceRecord {
                t_us: 0,
                event: TelemetryEvent::BrokerBid {
                    broker: 0,
                    supply: vec![4],
                    mean_ln_price: vec![0.0],
                },
            },
            TraceRecord {
                t_us: 1,
                event: TelemetryEvent::BrokerBid {
                    broker: 1,
                    supply: vec![2],
                    mean_ln_price: vec![0.5],
                },
            },
            TraceRecord {
                t_us: 2,
                event: TelemetryEvent::ParentCleared {
                    rounds: 1,
                    ln_prices: vec![0.1],
                    unserved: vec![3],
                },
            },
            TraceRecord {
                t_us: 3,
                event: TelemetryEvent::DemandEscalated { class: 0, units: 3 },
            },
            TraceRecord {
                t_us: 1_200,
                event: TelemetryEvent::DemandEscalated { class: 0, units: 2 },
            },
        ];
        let counts = census(&records);
        assert_eq!(
            counts.into_iter().collect::<Vec<_>>(),
            [
                ("broker_bid", 2),
                ("demand_escalated", 2),
                ("parent_cleared", 1)
            ]
        );
        // Event totals are the census's; the report carries none.
        let report = ConvergenceReport::from_records(&records, 1_000, 1e-3);
        assert!(!report.to_json().dump().contains("broker"));
    }

    #[test]
    fn convergence_report_unstable_to_the_end_is_none() {
        let records = vec![adj(0, 0, 0, 1.0, 2.0), adj(2_500, 0, 0, 2.0, 4.0)];
        let report = ConvergenceReport::from_records(&records, 1_000, 1e-3);
        assert_eq!(report.per_class[0].stabilized_at_period, None);
    }

    #[test]
    fn convergence_report_empty_trace() {
        let report = ConvergenceReport::from_records(&[], 1_000, 1e-3);
        assert_eq!(report.periods, 1);
        assert_eq!(report.nodes, 0);
        assert!(report.per_class.is_empty());
        // The report itself serializes.
        assert!(report.to_json().dump().contains("\"periods\":1"));
    }

    #[test]
    fn convergence_report_single_period_trace() {
        // Every record lands in period 0; nothing to pad, nothing NaN.
        let records = vec![adj(0, 0, 7, 1.0, 2.0), adj(500, 1, 7, 1.0, 3.0)];
        let report = ConvergenceReport::from_records(&records, 1_000, 1e-3);
        assert_eq!(report.periods, 1);
        assert_eq!(report.nodes, 2);
        let c = &report.per_class[0];
        assert_eq!(c.class, 7);
        assert_eq!(c.log_price_variance.len(), 1);
        assert_eq!(c.mean_abs_log_step.len(), 1);
        assert!(c.log_price_variance[0].is_finite());
        assert!(c.mean_abs_log_step[0].is_finite());
        // A single still-moving period never counts as stabilized.
        assert_eq!(c.stabilized_at_period, None);
        report.to_json().dump();
    }

    #[test]
    fn convergence_report_zero_price_class_has_no_nans() {
        // A class whose every market node reports a non-positive price
        // (e.g. zeroed while crashed): ln() is undefined there, but the
        // report must stay finite — no NaN/±∞ leaking into JSON as
        // spurious nulls.
        let records = vec![
            adj(0, 0, 3, 1.0, 0.0),
            adj(10, 1, 3, 1.0, 0.0),
            adj(2_500, 0, 3, 0.0, 0.0),
        ];
        let report = ConvergenceReport::from_records(&records, 1_000, 1e-3);
        let c = &report.per_class[0];
        assert_eq!(c.class, 3);
        assert_eq!(c.final_mean_price, 0.0);
        assert!(c.log_price_variance.iter().all(|v| v.is_finite()));
        assert!(c.mean_abs_log_step.iter().all(|v| v.is_finite()));
        // Mixed case: one live node (positive price), one zeroed — the
        // variance is computed over the positive prices only.
        let mixed = vec![adj(0, 0, 3, 1.0, 2.0), adj(10, 1, 3, 1.0, 0.0)];
        let report = ConvergenceReport::from_records(&mixed, 1_000, 1e-3);
        let c = &report.per_class[0];
        assert!(c.log_price_variance.iter().all(|v| v.is_finite()));
        let dump = report.to_json().dump();
        assert!(!dump.contains("NaN") && !dump.contains("inf"));
    }
}
