//! Canned experiment worlds.
//!
//! A [`Scenario`] bundles everything a run needs besides the trace: node
//! hardware, the dataset (who mirrors what), the query templates, and the
//! derived per-node/per-class execution-time matrix the allocators consult.

use crate::config::SimConfig;
use crate::node::NodeHardware;
use qa_simnet::{DetRng, SimDuration};
use qa_workload::dataset::{Dataset, DatasetConfig, Relation};
use qa_workload::ids::RelationId;
use qa_workload::template::{QueryTemplate, TemplateConfig, TemplateSet};
use qa_workload::{ClassId, NodeId};

/// Q1's average execution time in the two-class world (§5.1: 1 000 ms).
const Q1_MS: u64 = 1_000;
/// Q2's average execution time in the two-class world (§5.1: 500 ms).
const Q2_MS: u64 = 500;
/// Fraction of nodes able to evaluate Q2 (§5.1: one half).
const Q2_NODE_FRACTION: f64 = 0.5;

/// A fully built experiment world.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulation configuration.
    pub config: SimConfig,
    /// The query classes.
    pub templates: TemplateSet,
    /// The data layout.
    pub dataset: Dataset,
    /// Per-node hardware.
    pub hardware: Vec<NodeHardware>,
    /// `exec_times_ms[i][k]` — node i's execution time for class k in ms
    /// (`None` when the node lacks the data).
    pub exec_times_ms: Vec<Vec<Option<f64>>>,
    /// `capable[k]` — nodes able to evaluate class k.
    pub capable: Vec<Vec<NodeId>>,
}

impl Scenario {
    /// Builds the derived matrices from parts: the capable lists from the
    /// dataset, then the execution-time matrix by walking each list once,
    /// so the cost is linear in nodes × classes (no per-cell membership
    /// test).
    pub(crate) fn assemble(
        config: SimConfig,
        templates: TemplateSet,
        dataset: Dataset,
        hardware: Vec<NodeHardware>,
    ) -> Scenario {
        config.validate();
        assert_eq!(hardware.len(), config.num_nodes);
        assert_eq!(dataset.num_nodes(), config.num_nodes);
        let capable: Vec<Vec<NodeId>> =
            templates.iter().map(|t| dataset.capable_nodes(t)).collect();
        let exec_times_ms = exec_matrix(config.num_nodes, &templates, &capable, |i, t| {
            hardware[i].execution_time(t).as_millis_f64()
        });
        Scenario {
            config,
            templates,
            dataset,
            hardware,
            exec_times_ms,
            capable,
        }
    }

    /// The two-class sinusoid world of §5.1: Q1 (1 000 ms) evaluable
    /// everywhere, Q2 (500 ms) on half the nodes only (the paper chose the
    /// classes "to avoid trivial solutions").
    pub fn two_class(config: SimConfig) -> Scenario {
        let mut rng = DetRng::seed_from_u64(config.seed).derive("two-class");
        let n = config.num_nodes;
        let q2_nodes = ((n as f64 * Q2_NODE_FRACTION).round() as usize).clamp(1, n);
        let q2_mirror: Vec<NodeId> = rng
            .sample_indices(n, q2_nodes)
            .into_iter()
            .map(|i| NodeId(i as u32))
            .collect();
        let relations = vec![
            Relation {
                id: RelationId(0),
                size_bytes: 10 << 20,
                attributes: 10,
                mirrors: (0..n).map(|i| NodeId(i as u32)).collect(),
            },
            Relation {
                id: RelationId(1),
                size_bytes: 10 << 20,
                attributes: 10,
                mirrors: q2_mirror,
            },
        ];
        let dataset = Dataset::from_relations(n, relations);
        let templates = TemplateSet::from_templates(vec![
            QueryTemplate {
                id: ClassId(0),
                joins: 2,
                relations: vec![RelationId(0)],
                base_cost: SimDuration::from_millis(Q1_MS),
                result_bytes: 32 * 1024,
            },
            QueryTemplate {
                id: ClassId(1),
                joins: 1,
                relations: vec![RelationId(1)],
                base_cost: SimDuration::from_millis(Q2_MS),
                result_bytes: 16 * 1024,
            },
        ]);
        let hardware: Vec<NodeHardware> = (0..n).map(|_| NodeHardware::sample(&mut rng)).collect();
        Scenario::assemble(config, templates, dataset, hardware)
    }

    /// The Table-3 world: 1 000 relations, ~5 mirrors, 100 classes with
    /// 0–49 joins (Fig. 6's zipf experiment).
    ///
    /// Capability rule: the paper's execution framework (Mariposa / the
    /// Query-Process-Trading algorithms, §2.1) lets a node evaluate a query
    /// while fetching parts of the data from peers, so a node is *capable*
    /// of a class when it mirrors the class's fact relation
    /// (`relations[0]`) — about 5 candidates per class — and pays a
    /// remote-data surcharge proportional to the fraction of the remaining
    /// relations it does not hold locally.
    pub fn table3(config: SimConfig) -> Scenario {
        config.validate();
        let mut rng = DetRng::seed_from_u64(config.seed).derive("table3");
        let ds_cfg = DatasetConfig {
            num_nodes: config.num_nodes,
            ..DatasetConfig::default()
        };
        let dataset = Dataset::generate(&ds_cfg, &mut rng.derive("dataset"));
        let tpl_cfg = TemplateConfig {
            num_relations: dataset.num_relations(),
            ..TemplateConfig::default()
        };
        let templates = TemplateSet::generate(&tpl_cfg, &mut rng.derive("templates"));
        let mut hw_rng = rng.derive("hardware");
        let hardware: Vec<NodeHardware> = (0..config.num_nodes)
            .map(|_| NodeHardware::sample(&mut hw_rng))
            .collect();

        let capable: Vec<Vec<NodeId>> = templates
            .iter()
            .map(|t| {
                let fact = t.relations.first().copied();
                match fact {
                    Some(f) => dataset.relation(f).mirrors.clone(),
                    None => (0..config.num_nodes).map(|i| NodeId(i as u32)).collect(),
                }
            })
            .collect();
        let exec_times_ms = exec_matrix(config.num_nodes, &templates, &capable, |i, t| {
            let node = NodeId(i as u32);
            let missing = t.relations.iter().filter(|&&r| !dataset.node_has(node, r));
            let frac = missing.count() as f64 / t.relations.len().max(1) as f64;
            let base = hardware[i].execution_time(t).as_millis_f64();
            // Remote fetches add up to +50% for a fully remote join tail.
            base * (1.0 + 0.5 * frac)
        });
        Scenario {
            config,
            templates,
            dataset,
            hardware,
            exec_times_ms,
            capable,
        }
    }

    /// Aggregate system capacity in queries/second for a demand mix
    /// (`mix[k]` = fraction of arrivals in class k; must sum to ~1).
    ///
    /// Each node contributes the reciprocal of its mix-weighted mean
    /// execution time over the classes it can run. This is the yardstick
    /// the paper's "% of total system capacity" axes use.
    pub fn capacity_qps(&self, mix: &[f64]) -> f64 {
        assert_eq!(mix.len(), self.templates.num_classes());
        let mut total = 0.0;
        for exec in &self.exec_times_ms {
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for (k, t) in exec.iter().enumerate() {
                if let Some(t) = t {
                    weighted += mix[k] * t;
                    weight += mix[k];
                }
            }
            if weight > 0.0 && weighted > 0.0 {
                let mean_ms = weighted / weight;
                total += 1_000.0 / mean_ms;
            }
        }
        total
    }
}

/// The execution-time matrix `[node][class]`: `Some(cell(i, t))` for each
/// node `i` in `capable[t]`, `None` everywhere else. Each capable list is
/// walked once, so the cost is linear in the matrix plus the lists.
fn exec_matrix(
    num_nodes: usize,
    templates: &TemplateSet,
    capable: &[Vec<NodeId>],
    mut cell: impl FnMut(usize, &QueryTemplate) -> f64,
) -> Vec<Vec<Option<f64>>> {
    let mut exec = vec![vec![None; templates.num_classes()]; num_nodes];
    for t in templates.iter() {
        let k = t.id.index();
        for n in &capable[k] {
            exec[n.index()][k] = Some(cell(n.index(), t));
        }
    }
    exec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_class_world_shape() {
        let s = Scenario::two_class(SimConfig::small_test(1));
        assert_eq!(s.capable[0].len(), 10, "Q1 runs everywhere");
        assert_eq!(s.capable[1].len(), 5, "Q2 on half the nodes");
        // Exec times near the configured averages on reference hardware.
        let some_t = s.exec_times_ms[0][0].unwrap();
        assert!((400.0..2_500.0).contains(&some_t), "{some_t}");
    }

    #[test]
    fn two_class_exec_matrix_consistent_with_capability() {
        let s = Scenario::two_class(SimConfig::small_test(2));
        for i in 0..10 {
            let can_q2 = s.capable[1].contains(&NodeId(i as u32));
            assert_eq!(s.exec_times_ms[i][1].is_some(), can_q2);
            assert!(s.exec_times_ms[i][0].is_some());
        }
    }

    #[test]
    fn table3_world_every_class_has_capable_nodes() {
        let mut cfg = SimConfig::small_test(3);
        cfg.num_nodes = 30;
        let s = Scenario::table3(cfg);
        assert_eq!(s.templates.num_classes(), 100);
        for (k, cap) in s.capable.iter().enumerate() {
            assert!(!cap.is_empty(), "class {k} evaluable nowhere");
        }
    }

    /// Holds the execution matrix to the capable lists cell by cell: a
    /// cell is `Some(cell(i, t))` exactly when node `i` is in class `t`'s
    /// list, and `None` otherwise.
    fn assert_matrix_follows_capability(s: &Scenario, cell: impl Fn(usize, &QueryTemplate) -> f64) {
        assert_eq!(s.exec_times_ms.len(), s.config.num_nodes);
        for (i, row) in s.exec_times_ms.iter().enumerate() {
            assert_eq!(row.len(), s.templates.num_classes());
            for t in s.templates.iter() {
                let k = t.id.index();
                let want = s.capable[k].contains(&NodeId(i as u32)).then(|| cell(i, t));
                assert_eq!(
                    row[k].map(f64::to_bits),
                    want.map(f64::to_bits),
                    "node {i} class {k}"
                );
            }
        }
    }

    #[test]
    fn exec_matrix_is_the_per_cell_rule_over_random_datasets() {
        let mut rng = DetRng::seed_from_u64(35);
        for case in 0..30 {
            let mut config = SimConfig::small_test(case);
            config.num_nodes = 1 + rng.index(60);
            let ds_cfg = DatasetConfig {
                num_nodes: config.num_nodes,
                num_relations: 1 + rng.index(30),
                mean_mirrors: 1.0 + rng.unit() * (config.num_nodes - 1) as f64,
                ..DatasetConfig::default()
            };
            let dataset = Dataset::generate(&ds_cfg, &mut rng);
            let tpl_cfg = TemplateConfig {
                num_classes: 1 + rng.index(10),
                num_relations: ds_cfg.num_relations,
                joins_min: 0,
                joins_max: 3,
                ..TemplateConfig::default()
            };
            let templates = TemplateSet::generate(&tpl_cfg, &mut rng);
            let hardware = (0..config.num_nodes)
                .map(|_| NodeHardware::sample(&mut rng))
                .collect();
            let s = Scenario::assemble(config, templates, dataset, hardware);
            assert_matrix_follows_capability(&s, |i, t| {
                s.hardware[i].execution_time(t).as_millis_f64()
            });
        }
    }

    #[test]
    fn exec_matrix_is_the_per_cell_rule_in_the_table3_world() {
        for (seed, nodes) in [(3, 30), (8, 100)] {
            let mut cfg = SimConfig::small_test(seed);
            cfg.num_nodes = nodes;
            let s = Scenario::table3(cfg);
            assert_matrix_follows_capability(&s, |i, t| {
                let held =
                    |&r: &RelationId| s.dataset.relation(r).mirrors.contains(&NodeId(i as u32));
                let missing = t.relations.iter().filter(|r| !held(r)).count();
                let frac = missing as f64 / t.relations.len().max(1) as f64;
                let base = s.hardware[i].execution_time(t).as_millis_f64();
                base * (1.0 + 0.5 * frac)
            });
        }
    }

    #[test]
    fn capacity_scales_with_nodes() {
        let small = Scenario::two_class(SimConfig::small_test(4));
        let mut big_cfg = SimConfig::small_test(4);
        big_cfg.num_nodes = 20;
        let big = Scenario::two_class(big_cfg);
        let mix = [2.0 / 3.0, 1.0 / 3.0];
        assert!(big.capacity_qps(&mix) > 1.5 * small.capacity_qps(&mix));
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = Scenario::two_class(SimConfig::small_test(7));
        let b = Scenario::two_class(SimConfig::small_test(7));
        assert_eq!(a.exec_times_ms, b.exec_times_ms);
        assert_eq!(a.capable, b.capable);
    }
}
