//! Per-run measurements.
//!
//! Matches the paper's instrumentation: "In each time period, we measured
//! the number of queries executed and the average query response time of
//! the algorithms. The latter was normalized by dividing it with the
//! respective response time of QA-NT."

use qa_simnet::stats::{LogHistogram, Welford};
use qa_simnet::telemetry::MetricsRegistry;
use qa_simnet::{SimDuration, SimTime};
use qa_workload::{ClassId, NodeId};

/// Measurements from one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    period: SimDuration,
    /// Response times (ms) of completed queries.
    pub response: Welford,
    /// Response-time distribution (log-bucket, mergeable across runs).
    pub response_hist: LogHistogram,
    /// Executed-count series binned by the period of *completion*.
    executed_per_period: Vec<u64>,
    /// Executed counts per period, restricted by class (Fig. 5c needs Q1).
    executed_per_period_class: Vec<Vec<u64>>,
    /// Response times per *origin* (client) node — the §6 equitable-
    /// allocation extension measures how evenly the federation treats its
    /// clients.
    response_per_origin: Vec<Welford>,
    num_classes: usize,
    /// Allocation-protocol messages sent.
    pub messages: u64,
    /// Messages lost to fault injection (always 0 with `FaultPlan::none()`).
    pub lost_messages: u64,
    /// Completed queries.
    pub completed: u64,
    /// Queries never served by the end of the run.
    pub unserved: u64,
    /// QA-NT resubmissions (retries).
    pub retries: u64,
    /// Protocol delay of the attempt that placed each query (ms): the
    /// negotiation messages and link jitter of that one attempt. Time a
    /// refused query spent waiting for a later period before it is not in
    /// it, so this is not the time from arrival to node assignment.
    pub assign_latency: Welford,
    /// Execution time of the chosen node per assignment (placement
    /// quality: lower = work landed on faster nodes).
    pub chosen_exec_ms: Welford,
    /// Queueing delay behind the chosen node's backlog at assignment.
    pub chosen_backlog_ms: Welford,
}

impl RunMetrics {
    /// Fresh metrics for a run with the given period and class count.
    /// (Origin tracking sizes lazily on first record.)
    pub fn new(period: SimDuration, num_classes: usize) -> RunMetrics {
        RunMetrics {
            period,
            response: Welford::new(),
            response_hist: LogHistogram::new(),
            executed_per_period: Vec::new(),
            executed_per_period_class: vec![Vec::new(); num_classes],
            response_per_origin: Vec::new(),
            num_classes,
            messages: 0,
            lost_messages: 0,
            completed: 0,
            unserved: 0,
            retries: 0,
            assign_latency: Welford::new(),
            chosen_exec_ms: Welford::new(),
            chosen_backlog_ms: Welford::new(),
        }
    }

    /// Records a completed query with its origin node.
    pub fn record_completion_from(
        &mut self,
        class: ClassId,
        origin: NodeId,
        arrived: SimTime,
        finished: SimTime,
    ) {
        let resp_ms = finished.saturating_since(arrived).as_millis_f64();
        self.response.add(resp_ms);
        self.response_hist.record(resp_ms);
        if origin.index() >= self.response_per_origin.len() {
            self.response_per_origin
                .resize_with(origin.index() + 1, Welford::new);
        }
        self.response_per_origin[origin.index()].add(resp_ms);
        // One period index serves both counts.
        let idx = finished.period_index(self.period) as usize;
        self.completed += 1;
        if idx >= self.executed_per_period.len() {
            self.executed_per_period.resize(idx + 1, 0);
        }
        self.executed_per_period[idx] += 1;
        if class.index() < self.num_classes {
            let series = &mut self.executed_per_period_class[class.index()];
            if idx >= series.len() {
                series.resize(idx + 1, 0);
            }
            series[idx] += 1;
        }
    }

    /// Mean response time in ms, or `None` when nothing completed.
    pub fn mean_response_ms(&self) -> Option<f64> {
        self.response.mean()
    }

    /// Executed queries per period.
    pub fn executed_per_period(&self) -> &[u64] {
        &self.executed_per_period
    }

    /// Executed queries per period for one class.
    pub fn executed_per_period_of(&self, class: ClassId) -> &[u64] {
        &self.executed_per_period_class[class.index()]
    }

    /// Jain's fairness index over the per-origin mean response times:
    /// `(Σx)² / (n·Σx²)`, 1 = perfectly even treatment of clients,
    /// `1/n` = one client gets everything. `None` until at least two
    /// origins have completions.
    pub fn origin_fairness(&self) -> Option<f64> {
        let means: Vec<f64> = self
            .response_per_origin
            .iter()
            .filter_map(Welford::mean)
            .collect();
        if means.len() < 2 {
            return None;
        }
        let n = means.len() as f64;
        let sum: f64 = means.iter().sum();
        let sq: f64 = means.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return Some(1.0);
        }
        Some(sum * sum / (n * sq))
    }

    /// Normalized mean response vs a reference run (the paper divides by
    /// QA-NT's). > 1 means slower than the reference.
    pub fn normalized_response_vs(&self, reference: &RunMetrics) -> Option<f64> {
        match (self.mean_response_ms(), reference.mean_response_ms()) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        }
    }

    /// Publishes the run's aggregates into a telemetry
    /// [`MetricsRegistry`] under the `sim.` prefix, so simulator results
    /// land in the same snapshot as the telemetry layer's own spans.
    pub fn publish_to(&self, registry: &MetricsRegistry) {
        registry.counter("sim.completed").add(self.completed);
        registry.counter("sim.unserved").add(self.unserved);
        registry.counter("sim.retries").add(self.retries);
        registry.counter("sim.messages").add(self.messages);
        registry
            .counter("sim.lost_messages")
            .add(self.lost_messages);
        registry.welford("sim.response_ms").merge(&self.response);
        registry
            .histogram("sim.response_ms.hist")
            .merge(&self.response_hist);
        registry
            .welford("sim.assign_latency_ms")
            .merge(&self.assign_latency);
        registry
            .welford("sim.chosen_exec_ms")
            .merge(&self.chosen_exec_ms);
        registry
            .welford("sim.chosen_backlog_ms")
            .merge(&self.chosen_backlog_ms);
        registry.gauge("sim.service_rate").set(self.service_rate());
        if let Some(j) = self.origin_fairness() {
            registry.gauge("sim.origin_fairness").set(j);
        }
    }

    /// Merges another run's measurements into this one (used by the
    /// sharded engine to combine per-shard metrics). Both sides must use
    /// the same period and class count; per-period and per-origin series
    /// are summed element-wise, streaming stats via Welford/histogram
    /// merges. Order-insensitive, so the shard-index merge order only
    /// matters for determinism of floating-point accumulation.
    pub fn merge_from(&mut self, other: &RunMetrics) {
        assert_eq!(self.period, other.period, "merge_from: period mismatch");
        assert_eq!(
            self.num_classes, other.num_classes,
            "merge_from: class-count mismatch"
        );
        self.response.merge(&other.response);
        self.response_hist.merge(&other.response_hist);
        if other.executed_per_period.len() > self.executed_per_period.len() {
            self.executed_per_period
                .resize(other.executed_per_period.len(), 0);
        }
        for (i, v) in other.executed_per_period.iter().enumerate() {
            self.executed_per_period[i] += v;
        }
        for (mine, theirs) in self
            .executed_per_period_class
            .iter_mut()
            .zip(&other.executed_per_period_class)
        {
            if theirs.len() > mine.len() {
                mine.resize(theirs.len(), 0);
            }
            for (i, v) in theirs.iter().enumerate() {
                mine[i] += v;
            }
        }
        if other.response_per_origin.len() > self.response_per_origin.len() {
            self.response_per_origin
                .resize_with(other.response_per_origin.len(), Welford::new);
        }
        for (mine, theirs) in self
            .response_per_origin
            .iter_mut()
            .zip(&other.response_per_origin)
        {
            mine.merge(theirs);
        }
        self.messages += other.messages;
        self.lost_messages += other.lost_messages;
        self.completed += other.completed;
        self.unserved += other.unserved;
        self.retries += other.retries;
        self.assign_latency.merge(&other.assign_latency);
        self.chosen_exec_ms.merge(&other.chosen_exec_ms);
        self.chosen_backlog_ms.merge(&other.chosen_backlog_ms);
    }

    /// Fraction of arrivals that were served.
    pub(crate) fn service_rate(&self) -> f64 {
        let total = self.completed + self.unserved;
        if total == 0 {
            1.0
        } else {
            self.completed as f64 / total as f64
        }
    }
}

/// A block of `u64` work counts: functions of the seed and the code
/// alone, so they repeat exactly and a change that moves them changed the
/// algorithm. Kept outside [`RunMetrics`] — they measure the simulator, not
/// the simulated federation.
macro_rules! work_counts {
    ($(#[$doc:meta])* $name:ident, $prefix:literal,
     { $($(#[$field_doc:meta])* $field:ident),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$field_doc])* pub $field: u64,)*
        }

        impl $name {
            /// Adds another shard's counts.
            pub fn merge_from(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }

            /// Publishes the counts under their prefix, next to
            /// [`RunMetrics::publish_to`]'s.
            pub fn publish_to(&self, registry: &MetricsRegistry) {
                $(registry.counter(concat!($prefix, stringify!($field))).add(self.$field);)*
            }
        }
    };
}

work_counts! {
    /// What a run's QA-NT period boundaries did (`sim.boundary.*`).
    BoundaryWork, "sim.boundary.", {
        /// Market rows that ended a period.
        node_periods,
        /// Eq.-4 supply solves of live rows.
        supply_solves,
        /// Offer-index leaves re-read from the fresh supply, one per
        /// capable (node, class) pair at each boundary and at the start.
        leaves_reseated,
    }
}

work_counts! {
    /// What a run's wait list did at its wakes (`sim.wait.*`). Every parked
    /// query is either turned or attempted, so a run that leaves nobody
    /// waiting has `turned + attempted == RunMetrics::retries`.
    WaitWork, "sim.wait.", {
        /// Wake events processed.
        wakes,
        /// Maximal runs of due dry-class waiters moved to the back in one go.
        runs,
        /// Waiters those runs held, summed: refused again for two counters.
        turned,
        /// Waiters that took a full allocation attempt.
        attempted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_workload::NodeId;

    fn metrics() -> RunMetrics {
        RunMetrics::new(SimDuration::from_millis(500), 2)
    }

    #[test]
    fn records_response_and_bins_by_completion_period() {
        let mut m = metrics();
        m.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::from_millis(0),
            SimTime::from_millis(400),
        );
        m.record_completion_from(
            ClassId(1),
            NodeId(0),
            SimTime::from_millis(100),
            SimTime::from_millis(700),
        );
        assert_eq!(m.completed, 2);
        assert_eq!(m.mean_response_ms(), Some(500.0));
        assert_eq!(m.executed_per_period(), &[1, 1]);
        assert_eq!(m.executed_per_period_of(ClassId(0)), &[1]);
        assert_eq!(m.executed_per_period_of(ClassId(1)), &[0, 1]);
    }

    #[test]
    fn normalization_against_reference() {
        let mut qant = metrics();
        qant.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        let mut other = metrics();
        other.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_millis(150),
        );
        assert_eq!(other.normalized_response_vs(&qant), Some(1.5));
        assert_eq!(qant.normalized_response_vs(&qant), Some(1.0));
    }

    #[test]
    fn service_rate() {
        let mut m = metrics();
        m.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_millis(1),
        );
        m.unserved = 1;
        assert_eq!(m.service_rate(), 0.5);
        assert_eq!(metrics().service_rate(), 1.0);
    }

    #[test]
    fn empty_run_has_no_mean() {
        assert_eq!(metrics().mean_response_ms(), None);
        assert_eq!(metrics().normalized_response_vs(&metrics()), None);
    }

    #[test]
    fn origin_fairness_perfectly_even() {
        let mut m = metrics();
        for origin in 0..4 {
            m.record_completion_from(
                ClassId(0),
                NodeId(origin),
                SimTime::ZERO,
                SimTime::from_millis(100),
            );
        }
        assert!((m.origin_fairness().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn origin_fairness_detects_skew() {
        let mut m = metrics();
        m.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        m.record_completion_from(
            ClassId(0),
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_millis(10_000),
        );
        let j = m.origin_fairness().unwrap();
        // Jain index for (100, 10000) ≈ 0.51.
        assert!(j < 0.6, "{j}");
    }

    #[test]
    fn origin_fairness_needs_two_origins() {
        let mut m = metrics();
        m.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_millis(1),
        );
        assert_eq!(m.origin_fairness(), None);
    }

    #[test]
    fn origin_fairness_all_zero_means_is_perfectly_fair() {
        // Instantaneous completions (0 ms) from two origins: the Jain
        // formula's denominator is 0, handled as perfectly even.
        let mut m = metrics();
        m.record_completion_from(ClassId(0), NodeId(0), SimTime::ZERO, SimTime::ZERO);
        m.record_completion_from(ClassId(0), NodeId(1), SimTime::ZERO, SimTime::ZERO);
        assert_eq!(m.origin_fairness(), Some(1.0));
    }

    #[test]
    fn origin_fairness_skips_empty_origins_between_active_ones() {
        // Origins 0 and 5 completed; 1–4 never did and must not count as
        // zero-mean clients dragging the index down.
        let mut m = metrics();
        m.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_millis(200),
        );
        m.record_completion_from(
            ClassId(0),
            NodeId(5),
            SimTime::ZERO,
            SimTime::from_millis(200),
        );
        assert!((m.origin_fairness().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_response_vs_empty_or_zero_reference_is_none() {
        let mut m = metrics();
        m.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        // Empty reference: no mean to normalize by.
        assert_eq!(m.normalized_response_vs(&metrics()), None);
        // Reference whose mean is exactly 0 ms: division guarded.
        let mut zero_ref = metrics();
        zero_ref.record_completion_from(ClassId(0), NodeId(0), SimTime::ZERO, SimTime::ZERO);
        assert_eq!(m.normalized_response_vs(&zero_ref), None);
        // And an empty self against a valid reference.
        assert_eq!(metrics().normalized_response_vs(&m), None);
    }

    #[test]
    fn merge_from_equals_sequential_recording() {
        // Recording completions into one RunMetrics must equal recording
        // disjoint halves into two and merging.
        let completions = [
            (ClassId(0), NodeId(0), 0u64, 400u64),
            (ClassId(1), NodeId(1), 100, 700),
            (ClassId(0), NodeId(2), 600, 900),
            (ClassId(1), NodeId(0), 1200, 1500),
        ];
        let mut whole = metrics();
        for &(c, o, a, f) in &completions {
            whole.record_completion_from(c, o, SimTime::from_millis(a), SimTime::from_millis(f));
        }
        whole.messages = 10;
        whole.retries = 3;
        whole.unserved = 1;
        let (mut left, mut right) = (metrics(), metrics());
        for (i, &(c, o, a, f)) in completions.iter().enumerate() {
            let half = if i % 2 == 0 { &mut left } else { &mut right };
            half.record_completion_from(c, o, SimTime::from_millis(a), SimTime::from_millis(f));
        }
        left.messages = 4;
        right.messages = 6;
        left.retries = 3;
        right.unserved = 1;
        left.merge_from(&right);
        assert_eq!(left.completed, whole.completed);
        assert_eq!(left.messages, whole.messages);
        assert_eq!(left.retries, whole.retries);
        assert_eq!(left.unserved, whole.unserved);
        assert_eq!(left.mean_response_ms(), whole.mean_response_ms());
        assert_eq!(left.executed_per_period(), whole.executed_per_period());
        assert_eq!(
            left.executed_per_period_of(ClassId(1)),
            whole.executed_per_period_of(ClassId(1))
        );
        assert_eq!(left.origin_fairness(), whole.origin_fairness());
        // The per-class and per-origin stats merge exactly too.
        assert_eq!(format!("{left:?}"), format!("{whole:?}"));
    }

    #[test]
    fn publish_to_registry_exports_counters_stats_and_gauges() {
        let mut m = metrics();
        m.record_completion_from(
            ClassId(0),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        m.record_completion_from(
            ClassId(0),
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_millis(300),
        );
        m.unserved = 2;
        m.messages = 7;
        let reg = MetricsRegistry::new();
        m.publish_to(&reg);
        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap();
        assert_eq!(counters.get("sim.completed").unwrap().as_u64(), Some(2));
        assert_eq!(counters.get("sim.messages").unwrap().as_u64(), Some(7));
        let resp = snap.get("stats").unwrap().get("sim.response_ms").unwrap();
        assert_eq!(resp.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(resp.get("mean").unwrap(), &qa_simnet::Json::Float(200.0));
        assert_eq!(
            snap.get("gauges").unwrap().get("sim.service_rate").unwrap(),
            &qa_simnet::Json::Float(0.5)
        );
        assert!((reg.gauge("sim.origin_fairness").get() - 0.8).abs() < 1e-12);
    }
}
