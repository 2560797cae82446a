//! The Markov/stochastic-optimal baseline (Drenick & Smith, §4 and
//! Table 2).
//!
//! "A stochastic mechanism based on Markov chains and queueing theory …
//! has excellent performance and produces Pareto optimal solutions, yet it
//! suffers from scalability problems (it is a centralized mechanism) …
//! it assumes that query execution times are constant and workload is
//! static." The paper cites it as the static-workload upper bound but does
//! not implement it; we do, as the Table-2 extension.
//!
//! Model: each node is an M/M/1-like server with utilization
//! `ρᵢ = Σₖ λ_ik·t_ik` (arrival share × service time); the expected
//! response time of a class-k query at node i is `t_ik / (1 − ρᵢ)`. Given
//! static per-class arrival rates, the allocator discretizes each class's
//! rate into chunks and waterfills: every chunk goes to the node with the
//! least *post-assignment* expected response, which converges to the
//! optimal split as the chunk size shrinks. Queries are then routed by
//! sampling the resulting per-class distribution.

use qa_simnet::DetRng;
use qa_workload::{ClassId, NodeId};

/// Static-workload allocator: per-class routing probabilities.
#[derive(Debug, Clone)]
pub struct MarkovAllocator {
    /// `probs[k]` = cumulative (node, cum-probability) list for class `k`.
    probs: Vec<Vec<(NodeId, f64)>>,
}

impl MarkovAllocator {
    /// Builds the allocator.
    ///
    /// * `arrival_rates_per_sec[k]` — static arrival rate of class `k`,
    /// * `exec_times_ms[i][k]` — node `i`'s execution time for class `k`
    ///   (`None` = not capable),
    /// * `chunks` — discretization granularity per class (≥ 1; higher =
    ///   closer to the continuous optimum).
    ///
    /// # Panics
    /// Panics if some class has demand but no capable node.
    pub fn build(
        arrival_rates_per_sec: &[f64],
        exec_times_ms: &[Vec<Option<f64>>],
        chunks: usize,
    ) -> MarkovAllocator {
        assert!(chunks >= 1);
        let num_nodes = exec_times_ms.len();
        let num_classes = arrival_rates_per_sec.len();
        assert!(exec_times_ms.iter().all(|e| e.len() == num_classes));

        // Utilization per node accumulated as chunks land.
        let mut rho = vec![0.0_f64; num_nodes];
        // counts[k][i] = chunks of class k assigned to node i.
        let mut counts = vec![vec![0usize; num_nodes]; num_classes];

        // Process classes by descending total work so heavy classes seed
        // the waterfilling first (standard LPT-style ordering).
        let mut class_order: Vec<usize> = (0..num_classes).collect();
        let weight = |k: usize| {
            let mean_t: f64 = {
                let ts: Vec<f64> = exec_times_ms.iter().filter_map(|e| e[k]).collect();
                if ts.is_empty() {
                    0.0
                } else {
                    ts.iter().sum::<f64>() / ts.len() as f64
                }
            };
            arrival_rates_per_sec[k] * mean_t
        };
        class_order.sort_by(|&a, &b| weight(b).partial_cmp(&weight(a)).expect("finite"));

        for k in class_order {
            let rate = arrival_rates_per_sec[k];
            if rate <= 0.0 {
                continue;
            }
            let chunk_rate = rate / chunks as f64;
            for _ in 0..chunks {
                // Choose the node minimizing post-assignment expected
                // response for this class.
                let mut best: Option<(usize, f64)> = None;
                for (i, exec) in exec_times_ms.iter().enumerate() {
                    let Some(t) = exec[k] else { continue };
                    // Utilization contribution of the chunk: rate (1/s) ×
                    // service time (s).
                    let du = chunk_rate * t / 1_000.0;
                    let new_rho = rho[i] + du;
                    let resp = if new_rho >= 0.999 {
                        // Saturated: heavily penalized but still rankable.
                        t * 1_000.0 * (1.0 + new_rho)
                    } else {
                        t / (1.0 - new_rho)
                    };
                    if best.is_none_or(|(_, b)| resp < b) {
                        best = Some((i, resp));
                    }
                }
                let (i, _) =
                    best.unwrap_or_else(|| panic!("class q{k} has demand but no capable node"));
                let t = exec_times_ms[i][k].expect("capable");
                rho[i] += chunk_rate * t / 1_000.0;
                counts[k][i] += 1;
            }
        }

        // Normalize to cumulative distributions.
        let probs = counts
            .into_iter()
            .map(|per_node| {
                let total: usize = per_node.iter().sum();
                let mut cum = Vec::new();
                if total == 0 {
                    return cum;
                }
                let mut acc = 0.0;
                for (i, c) in per_node.into_iter().enumerate() {
                    if c > 0 {
                        acc += c as f64 / total as f64;
                        cum.push((NodeId(i as u32), acc));
                    }
                }
                if let Some(last) = cum.last_mut() {
                    last.1 = 1.0;
                }
                cum
            })
            .collect();
        MarkovAllocator { probs }
    }

    /// Samples a destination node for a class-`k` query.
    ///
    /// # Panics
    /// Panics if the class had no demand at build time (empty
    /// distribution).
    pub fn choose(&self, class: ClassId, rng: &mut DetRng) -> NodeId {
        let cum = &self.probs[class.index()];
        assert!(
            !cum.is_empty(),
            "class {class} had no arrival rate at build time"
        );
        let u = rng.unit();
        cum.iter()
            .find(|&&(_, c)| u <= c)
            .map(|&(n, _)| n)
            .unwrap_or(cum.last().expect("non-empty").0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MarkovAllocator {
        /// The routing distribution of a class as `(node, probability)`
        /// pairs.
        fn distribution(&self, class: ClassId) -> Vec<(NodeId, f64)> {
            let cum = &self.probs[class.index()];
            let mut prev = 0.0;
            cum.iter()
                .map(|&(n, c)| {
                    let p = c - prev;
                    prev = c;
                    (n, p)
                })
                .collect()
        }
    }

    #[test]
    fn single_capable_node_gets_everything() {
        let a = MarkovAllocator::build(&[10.0], &[vec![None], vec![Some(100.0)]], 50);
        assert_eq!(a.distribution(ClassId(0)), vec![(NodeId(1), 1.0)]);
    }

    #[test]
    fn fast_node_gets_larger_share() {
        // Node 0 is 4× faster for the class: it must take the bulk.
        let a = MarkovAllocator::build(&[20.0], &[vec![Some(25.0)], vec![Some(100.0)]], 200);
        let d = a.distribution(ClassId(0));
        let share0 = d.iter().find(|(n, _)| *n == NodeId(0)).map_or(0.0, |x| x.1);
        let share1 = d.iter().find(|(n, _)| *n == NodeId(1)).map_or(0.0, |x| x.1);
        assert!(share0 > share1, "fast {share0} slow {share1}");
        assert!((share0 + share1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn light_load_concentrates_on_fastest() {
        // With negligible load there is no queueing: everything goes to the
        // fastest node.
        let a = MarkovAllocator::build(&[0.1], &[vec![Some(10.0)], vec![Some(100.0)]], 100);
        let d = a.distribution(ClassId(0));
        assert_eq!(d, vec![(NodeId(0), 1.0)]);
    }

    #[test]
    fn heavy_load_spills_to_slow_node() {
        // 50 q/s at 25 ms = 125% of one node: must spill.
        let a = MarkovAllocator::build(&[50.0], &[vec![Some(25.0)], vec![Some(100.0)]], 500);
        let d = a.distribution(ClassId(0));
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn classes_interact_through_utilization() {
        // Two classes; node 0 fast for both. Heavy class 0 load must push
        // some class-1 traffic onto node 1.
        let a = MarkovAllocator::build(
            &[30.0, 30.0],
            &[vec![Some(25.0), Some(25.0)], vec![Some(30.0), Some(30.0)]],
            300,
        );
        let d0 = a.distribution(ClassId(0));
        let d1 = a.distribution(ClassId(1));
        let total_on_0: f64 = [&d0, &d1]
            .iter()
            .flat_map(|d| d.iter())
            .filter(|(n, _)| *n == NodeId(0))
            .map(|(_, p)| p)
            .sum();
        assert!(total_on_0 < 2.0, "node 0 cannot take 100% of both classes");
        assert!(!d1.is_empty());
    }

    #[test]
    fn sampling_matches_distribution() {
        let a = MarkovAllocator::build(&[40.0], &[vec![Some(25.0)], vec![Some(25.0)]], 100);
        let mut rng = DetRng::seed_from_u64(9);
        let mut counts = [0u32; 2];
        for _ in 0..2_000 {
            counts[a.choose(ClassId(0), &mut rng).index()] += 1;
        }
        // Symmetric nodes: close to 50/50.
        let ratio = counts[0] as f64 / 2_000.0;
        assert!((ratio - 0.5).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "no capable node")]
    fn demand_without_capability_panics() {
        let _ = MarkovAllocator::build(&[1.0], &[vec![None]], 10);
    }
}
