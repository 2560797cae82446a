//! The simulated node: hardware factors, execution-time model, FIFO queue.
//!
//! Each node is an autonomous RDBMS abstracted as a single work-conserving
//! server (the paper's example likewise assumes "no node can evaluate two
//! queries simultaneously"). Heterogeneity enters through three hardware
//! factors drawn from the Table-3 ranges: CPU speed, I/O speed and
//! sort/hash buffer size, plus the hash-join capability bit.

use crate::config::SimConfig;
use qa_simnet::{DetRng, SimDuration, SimTime};
use qa_workload::QueryTemplate;

/// Static hardware description of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHardware {
    /// CPU speed in GHz.
    pub cpu_ghz: f64,
    /// Sequential I/O speed in MB/s.
    pub io_mbps: f64,
    /// Sort/hash working memory in MB.
    pub buffer_mb: f64,
    /// Whether the node's engine supports hash joins (Table 3: 95/100).
    pub hash_join: bool,
}

impl NodeHardware {
    /// Draws hardware from the configured ranges.
    pub fn sample(cfg: &SimConfig, rng: &mut DetRng) -> NodeHardware {
        NodeHardware {
            cpu_ghz: rng.float_in(cfg.cpu_ghz.0, cfg.cpu_ghz.1),
            io_mbps: rng.float_in(cfg.io_mbps.0, cfg.io_mbps.1),
            buffer_mb: rng.float_in(cfg.buffer_mb.0, cfg.buffer_mb.1),
            hash_join: rng.chance(cfg.hash_join_fraction),
        }
    }

    /// Execution time of a template on this node.
    ///
    /// The template's `base_cost` is calibrated to the reference hardware;
    /// this node scales it by:
    /// * CPU: 60 % of the work scales inversely with clock speed,
    /// * I/O: 40 % scales inversely with disk bandwidth,
    /// * buffers: join-heavy queries pay a spill penalty when the buffer is
    ///   below the 6 MB reference (up to +50 % for a 49-join query on a
    ///   2 MB node),
    /// * joins on merge-scan-only nodes cost 30 % extra (no hash join).
    pub fn execution_time(&self, template: &QueryTemplate, cfg: &SimConfig) -> SimDuration {
        let base = template.base_cost.as_secs_f64();
        let cpu_part = 0.6 * cfg.reference_ghz / self.cpu_ghz;
        let io_part = 0.4 * cfg.reference_io_mbps / self.io_mbps;
        let mut t = base * (cpu_part + io_part);
        let join_weight = f64::from(template.joins) / 50.0;
        let reference_buffer = 6.0;
        if self.buffer_mb < reference_buffer {
            let shortage = reference_buffer / self.buffer_mb - 1.0;
            t *= 1.0 + (0.25 * join_weight * shortage).min(0.5);
        }
        if !self.hash_join && template.joins > 0 {
            t *= 1.3;
        }
        SimDuration::from_secs_f64(t)
    }
}

/// Dynamic node state for the whole federation, struct-of-arrays.
///
/// The allocation hot path scans *one field of every node* (is it alive?
/// what is its backlog?), not every field of one node, so the state is
/// laid out as parallel per-field vectors: the capable/reachable/offer
/// sweeps walk contiguous memory instead of pointer-hopping per node.
/// Static hardware stays in [`crate::scenario::Scenario`]; this is purely
/// the mutable simulation state.
#[derive(Debug, Clone)]
pub struct NodeSoa {
    /// Time until which already-accepted work occupies each node.
    backlog_until: Vec<SimTime>,
    /// Queries currently queued or running, per node.
    queued: Vec<u32>,
    /// Total busy time accumulated per node (utilization metrics).
    busy: Vec<SimDuration>,
    /// Liveness (failure injection).
    alive: Vec<bool>,
    /// Number of `true` entries in `alive`. Lets the allocation path skip
    /// the per-query liveness filter entirely in the (overwhelmingly
    /// common) no-failures case.
    alive_count: usize,
}

impl NodeSoa {
    /// `n` fresh idle nodes.
    pub fn new(n: usize) -> NodeSoa {
        NodeSoa {
            backlog_until: vec![SimTime::ZERO; n],
            queued: vec![0; n],
            busy: vec![SimDuration::ZERO; n],
            alive: vec![true; n],
            alive_count: n,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// `true` iff the federation is empty.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Whether node `i` is alive.
    pub fn alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// The liveness column (contiguous capable-set filtering).
    pub fn alive_slice(&self) -> &[bool] {
        &self.alive
    }

    /// `true` iff every node is alive (no failure injected, or all
    /// recovered).
    pub fn all_alive(&self) -> bool {
        self.alive_count == self.alive.len()
    }

    /// Queries currently queued or running on node `i`.
    pub fn queued(&self, i: usize) -> u32 {
        self.queued[i]
    }

    /// The backlog column: when each node's queue drains.
    pub fn backlog_until_slice(&self) -> &[SimTime] {
        &self.backlog_until
    }

    /// Outstanding work on node `i` as seen at `now`.
    pub fn backlog(&self, i: usize, now: SimTime) -> SimDuration {
        self.backlog_until[i].saturating_since(now)
    }

    /// Estimated completion (queueing + execution) of a query with the
    /// given execution time, if node `i` accepted it at `now`.
    pub fn estimated_completion(&self, i: usize, now: SimTime, exec: SimDuration) -> SimDuration {
        self.backlog(i, now) + exec
    }

    /// Node `i` accepts a query at `now`; returns its completion time.
    pub fn accept(&mut self, i: usize, now: SimTime, exec: SimDuration) -> SimTime {
        debug_assert!(self.alive[i]);
        let start = if self.backlog_until[i] > now {
            self.backlog_until[i]
        } else {
            now
        };
        let finish = start + exec;
        self.backlog_until[i] = finish;
        self.queued[i] += 1;
        self.busy[i] += exec;
        finish
    }

    /// A query finished on node `i`.
    pub fn complete(&mut self, i: usize) {
        debug_assert!(self.queued[i] > 0);
        self.queued[i] -= 1;
    }

    /// Marks node `i` dead (failure injection): it stops offering and its
    /// queue is considered lost.
    pub fn kill(&mut self, i: usize) {
        if self.alive[i] {
            self.alive_count -= 1;
        }
        self.alive[i] = false;
        self.queued[i] = 0;
    }

    /// Brings dead node `i` back at `now` (crash *recovery*). The node
    /// rejoins with an empty queue — whatever it held when it died was
    /// lost with the crash and is the driver's to resubmit — while `busy`
    /// keeps accumulating across incarnations for utilization accounting.
    pub fn revive(&mut self, i: usize, now: SimTime) {
        if !self.alive[i] {
            self.alive_count += 1;
        }
        self.alive[i] = true;
        self.backlog_until[i] = now;
        self.queued[i] = 0;
    }

    /// Total busy time summed over nodes.
    pub fn total_busy(&self) -> SimDuration {
        self.busy.iter().fold(SimDuration::ZERO, |acc, &b| acc + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::SimDuration;
    use qa_workload::{ClassId, RelationId};

    fn cfg() -> SimConfig {
        SimConfig::paper_defaults()
    }

    fn template(joins: u32, ms: u64) -> QueryTemplate {
        QueryTemplate {
            id: ClassId(0),
            joins,
            relations: (0..=joins).map(RelationId).collect(),
            base_cost: SimDuration::from_millis(ms),
            result_bytes: 1_000,
        }
    }

    fn hw(cpu: f64, io: f64, buf: f64, hash: bool) -> NodeHardware {
        NodeHardware {
            cpu_ghz: cpu,
            io_mbps: io,
            buffer_mb: buf,
            hash_join: hash,
        }
    }

    #[test]
    fn reference_hardware_runs_at_base_cost() {
        let h = hw(2.3, 42.5, 6.0, true);
        let t = h.execution_time(&template(10, 1_000), &cfg());
        assert!((t.as_millis_f64() - 1_000.0).abs() < 1.0, "{t}");
    }

    #[test]
    fn faster_cpu_runs_faster() {
        let slow = hw(1.0, 42.5, 6.0, true);
        let fast = hw(3.5, 42.5, 6.0, true);
        let t = template(10, 1_000);
        assert!(fast.execution_time(&t, &cfg()) < slow.execution_time(&t, &cfg()));
    }

    #[test]
    fn io_speed_matters() {
        let slow = hw(2.3, 5.0, 6.0, true);
        let fast = hw(2.3, 80.0, 6.0, true);
        let t = template(0, 1_000);
        assert!(fast.execution_time(&t, &cfg()) < slow.execution_time(&t, &cfg()));
    }

    #[test]
    fn small_buffer_penalizes_join_heavy_queries_only() {
        let tight = hw(2.3, 42.5, 2.0, true);
        let roomy = hw(2.3, 42.5, 10.0, true);
        let scan = template(0, 1_000);
        let joins = template(49, 1_000);
        // 0-join query: no spill penalty.
        assert!(
            (tight.execution_time(&scan, &cfg()).as_millis_f64()
                - roomy.execution_time(&scan, &cfg()).as_millis_f64())
            .abs()
                < 1.0
        );
        assert!(tight.execution_time(&joins, &cfg()) > roomy.execution_time(&joins, &cfg()));
    }

    #[test]
    fn merge_only_nodes_pay_join_penalty() {
        let merge = hw(2.3, 42.5, 6.0, false);
        let hash = hw(2.3, 42.5, 6.0, true);
        let joins = template(5, 1_000);
        let scan = template(0, 1_000);
        let ratio = merge.execution_time(&joins, &cfg()).as_millis_f64()
            / hash.execution_time(&joins, &cfg()).as_millis_f64();
        assert!((ratio - 1.3).abs() < 0.01);
        assert_eq!(
            merge.execution_time(&scan, &cfg()),
            hash.execution_time(&scan, &cfg())
        );
    }

    #[test]
    fn sampled_hardware_in_ranges() {
        let c = cfg();
        let mut rng = DetRng::seed_from_u64(5);
        let mut hash_count = 0;
        for _ in 0..500 {
            let h = NodeHardware::sample(&c, &mut rng);
            assert!((1.0..3.5).contains(&h.cpu_ghz));
            assert!((5.0..80.0).contains(&h.io_mbps));
            assert!((2.0..10.0).contains(&h.buffer_mb));
            hash_count += u32::from(h.hash_join);
        }
        // ~95% hash join.
        assert!((450..=500).contains(&hash_count), "{hash_count}");
    }

    #[test]
    fn fifo_queue_accumulates_backlog() {
        let mut n = NodeSoa::new(1);
        let now = SimTime::from_millis(100);
        let f1 = n.accept(0, now, SimDuration::from_millis(400));
        assert_eq!(f1, SimTime::from_millis(500));
        let f2 = n.accept(0, now, SimDuration::from_millis(100));
        assert_eq!(f2, SimTime::from_millis(600), "second query queues behind");
        assert_eq!(n.queued(0), 2);
        assert_eq!(n.backlog(0, now), SimDuration::from_millis(500));
        n.complete(0);
        assert_eq!(n.queued(0), 1);
    }

    #[test]
    fn idle_node_starts_immediately() {
        let mut n = NodeSoa::new(1);
        let f = n.accept(0, SimTime::from_millis(1_000), SimDuration::from_millis(50));
        assert_eq!(f, SimTime::from_millis(1_050));
        // Long after finishing, backlog is zero.
        assert_eq!(n.backlog(0, SimTime::from_millis(2_000)), SimDuration::ZERO);
    }

    #[test]
    fn kill_then_revive_resets_queue_but_keeps_busy_time() {
        let mut n = NodeSoa::new(2);
        let now = SimTime::from_millis(100);
        n.accept(0, now, SimDuration::from_millis(400));
        let busy_before = n.total_busy();
        n.kill(0);
        assert!(!n.alive(0));
        assert!(n.alive(1), "other nodes unaffected");
        assert_eq!(n.queued(0), 0, "crash loses the queue");
        let later = SimTime::from_millis(250);
        n.revive(0, later);
        assert!(n.alive(0));
        assert_eq!(n.backlog(0, later), SimDuration::ZERO, "rejoins idle");
        assert_eq!(
            n.total_busy(),
            busy_before,
            "utilization survives incarnations"
        );
    }

    #[test]
    fn estimated_completion_matches_accept() {
        let mut n = NodeSoa::new(1);
        let now = SimTime::from_millis(0);
        n.accept(0, now, SimDuration::from_millis(300));
        let est = n.estimated_completion(0, now, SimDuration::from_millis(200));
        let actual = n.accept(0, now, SimDuration::from_millis(200));
        assert_eq!(now + est, actual);
    }
}
