//! The BNQRD baseline (Carey, Livny & Lu — "load balancing in a locally
//! distributed database system", §4).
//!
//! A *centralized* coordinator keeps an unbalance factor per node derived
//! from reported CPU/I-O usage and assigns each incoming query to the node
//! that keeps usage most evenly spread. It violates node autonomy twice:
//! nodes must disclose their load, and the coordinator assigns queries
//! unilaterally. The paper's experiments show it balances load but performs
//! poorly because "it equalized the load of both the fast and the slow
//! nodes" — which this implementation reproduces by tracking *utilization
//! relative to capacity share* rather than completion times.

use qa_workload::NodeId;

/// The central coordinator state.
#[derive(Debug, Clone)]
pub struct BnqrdCoordinator {
    /// Outstanding assigned work per node, in milliseconds of *reference*
    /// work (not node-local time — that is exactly BNQRD's blind spot: it
    /// equalizes work volume, not completion capacity).
    outstanding_ms: Vec<f64>,
    /// Exponential decay applied between reports, modelling work draining.
    decay: f64,
}

impl BnqrdCoordinator {
    /// A coordinator over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> BnqrdCoordinator {
        BnqrdCoordinator {
            outstanding_ms: vec![0.0; num_nodes],
            decay: 1.0,
        }
    }

    /// Assigns a query among `capable` nodes: the one with the lowest
    /// unbalance factor (i.e. least outstanding work) wins, and its
    /// counter grows by the query's reference cost.
    pub fn assign(&mut self, capable: &[NodeId], reference_cost_ms: f64) -> NodeId {
        assert!(!capable.is_empty());
        let chosen = *capable
            .iter()
            .min_by(|a, b| {
                self.outstanding_ms[a.index()]
                    .partial_cmp(&self.outstanding_ms[b.index()])
                    .expect("finite loads")
                    .then(a.cmp(b))
            })
            .expect("non-empty");
        self.outstanding_ms[chosen.index()] += reference_cost_ms;
        chosen
    }

    /// A node reports completed work (the periodic load report of the
    /// original algorithm).
    pub fn report_completion(&mut self, node: NodeId, reference_cost_ms: f64) {
        let o = &mut self.outstanding_ms[node.index()];
        *o = (*o - reference_cost_ms).max(0.0);
    }

    /// Applies passive decay (work draining between reports).
    pub fn tick(&mut self, factor: f64) {
        self.decay = factor.clamp(0.0, 1.0);
        for o in &mut self.outstanding_ms {
            *o *= self.decay;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn assigns_to_least_loaded() {
        let mut c = BnqrdCoordinator::new(3);
        let all = nodes(3);
        let a = c.assign(&all, 100.0);
        let b = c.assign(&all, 100.0);
        let d = c.assign(&all, 100.0);
        // All three get one query each (perfect spreading).
        let mut got = vec![a, b, d];
        got.sort();
        assert_eq!(got, all);
    }

    #[test]
    fn equalizes_work_volume_not_speed() {
        // The documented blind spot: a slow node receives as much work as a
        // fast one, because BNQRD only sees work volume.
        let mut c = BnqrdCoordinator::new(2);
        let all = nodes(2);
        let mut counts = [0u32; 2];
        for _ in 0..100 {
            counts[c.assign(&all, 50.0).index()] += 1;
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn completions_reduce_outstanding() {
        let mut c = BnqrdCoordinator::new(2);
        let all = nodes(2);
        let n = c.assign(&all, 100.0);
        assert!(c.outstanding_ms[n.index()] > 0.0);
        c.report_completion(n, 100.0);
        assert_eq!(c.outstanding_ms[n.index()], 0.0);
        // Over-reporting saturates at zero.
        c.report_completion(n, 50.0);
        assert_eq!(c.outstanding_ms[n.index()], 0.0);
    }

    #[test]
    fn respects_capability_restriction() {
        let mut c = BnqrdCoordinator::new(3);
        // Node 0 is very loaded, but only node 0 is capable.
        for _ in 0..5 {
            c.assign(&[NodeId(0)], 100.0);
        }
        assert_eq!(c.assign(&[NodeId(0)], 100.0), NodeId(0));
    }

    #[test]
    fn tick_decays_everything() {
        let mut c = BnqrdCoordinator::new(2);
        c.assign(&nodes(2), 100.0);
        c.tick(0.5);
        assert!(c.outstanding_ms.iter().all(|&o| o <= 50.0));
    }
}
