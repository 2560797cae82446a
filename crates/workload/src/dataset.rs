//! Synthetic federation dataset (Table 3).
//!
//! "The dataset was synthetically created and consisted of 1,000 different
//! relations with a size of 1-20 Mbytes (avg. 10.5 Mbytes). Each relation
//! had 5 mirrors, on average, that were distributed randomly over the 100
//! RDBMSs. Each node had approximately 50 different relations."
//!
//! [`Dataset::generate`] reproduces that layout and answers the two
//! questions the allocation layer asks: *which nodes can evaluate a given
//! template* (all touched relations locally mirrored — realistically, with
//! 24-way joins over random mirrors, few nodes qualify per class, which is
//! what makes the federation heterogeneous), and *which relations a node
//! holds*.

use crate::ids::{NodeId, RelationId};
use crate::template::QueryTemplate;
use qa_simnet::DetRng;

/// One relation of the common schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// The relation id.
    pub id: RelationId,
    /// Size in bytes (1–20 MB in the paper).
    pub size_bytes: u64,
    /// Number of attributes (paper: 10).
    pub attributes: u32,
    /// The nodes holding a mirror.
    pub mirrors: Vec<NodeId>,
}

/// Dataset generation parameters (Table 3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Nodes in the federation (paper: 100).
    pub num_nodes: usize,
    /// Relations in the schema (paper: 1 000).
    pub num_relations: usize,
    /// Relation size range in bytes (paper: 1–20 MB).
    pub size_min_bytes: u64,
    /// Upper bound of the size range.
    pub size_max_bytes: u64,
    /// Attributes per relation (paper: 10).
    pub attributes: u32,
    /// Average mirrors per relation (paper: 5).
    pub mean_mirrors: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            num_nodes: 100,
            num_relations: 1_000,
            size_min_bytes: 1 << 20,
            size_max_bytes: 20 << 20,
            attributes: 10,
            mean_mirrors: 5.0,
        }
    }
}

/// The generated dataset: relations plus the node → relations index.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    relations: Vec<Relation>,
    /// `per_node[n]` = sorted relation ids held by node `n`.
    per_node: Vec<Vec<RelationId>>,
    num_nodes: usize,
}

impl Dataset {
    /// Generates a dataset per the configuration.
    pub fn generate(cfg: &DatasetConfig, rng: &mut DetRng) -> Self {
        assert!(cfg.num_nodes > 0 && cfg.num_relations > 0);
        assert!(cfg.size_min_bytes <= cfg.size_max_bytes);
        assert!(cfg.mean_mirrors >= 1.0 && cfg.mean_mirrors <= cfg.num_nodes as f64);
        let mut relations = Vec::with_capacity(cfg.num_relations);
        let mut per_node: Vec<Vec<RelationId>> = vec![Vec::new(); cfg.num_nodes];
        for i in 0..cfg.num_relations {
            let id = RelationId(i as u32);
            let size_bytes = rng.int_in(cfg.size_min_bytes, cfg.size_max_bytes);
            // Mirror count: uniform on mean ± 2, at least 1, at most every
            // node — symmetric, so the empirical mean matches Table 3.
            let m = cfg.mean_mirrors.round();
            let lo = (m - 2.0).max(1.0) as u64;
            let hi = (m + 2.0).min(cfg.num_nodes as f64) as u64;
            let count = rng.int_in(lo, hi.max(lo)) as usize;
            let mirrors: Vec<NodeId> = rng
                .sample_indices(cfg.num_nodes, count)
                .into_iter()
                .map(|n| NodeId(n as u32))
                .collect();
            for &n in &mirrors {
                per_node[n.index()].push(id);
            }
            relations.push(Relation {
                id,
                size_bytes,
                attributes: cfg.attributes,
                mirrors,
            });
        }
        for rels in &mut per_node {
            rels.sort_unstable();
        }
        Dataset {
            relations,
            per_node,
            num_nodes: cfg.num_nodes,
        }
    }

    /// Builds a dataset from an explicit mirror layout (tests, Fig. 1
    /// micro-model).
    pub fn from_relations(num_nodes: usize, relations: Vec<Relation>) -> Self {
        let mut per_node: Vec<Vec<RelationId>> = vec![Vec::new(); num_nodes];
        for r in &relations {
            for &n in &r.mirrors {
                assert!(n.index() < num_nodes, "mirror on unknown node {n}");
                per_node[n.index()].push(r.id);
            }
        }
        for rels in &mut per_node {
            rels.sort_unstable();
        }
        Dataset {
            relations,
            per_node,
            num_nodes,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The relation record.
    pub fn relation(&self, id: RelationId) -> &Relation {
        &self.relations[id.index()]
    }

    /// `true` iff `node` holds a mirror of `rel`.
    pub fn node_has(&self, node: NodeId, rel: RelationId) -> bool {
        self.per_node[node.index()].binary_search(&rel).is_ok()
    }

    /// The nodes able to evaluate `template` locally: those holding every
    /// relation it touches.
    pub fn capable_nodes(&self, template: &QueryTemplate) -> Vec<NodeId> {
        (0..self.num_nodes)
            .map(|n| NodeId(n as u32))
            .filter(|&n| template.runnable_where(|r| self.node_has(n, r)))
            .collect()
    }

    /// Average mirrors per relation (diagnostic).
    pub fn mean_mirrors(&self) -> f64 {
        self.relations
            .iter()
            .map(|r| r.mirrors.len() as f64)
            .sum::<f64>()
            / self.relations.len() as f64
    }

    /// Average relations per node (diagnostic; paper says ~50).
    pub fn mean_relations_per_node(&self) -> f64 {
        self.per_node.iter().map(|v| v.len() as f64).sum::<f64>() / self.num_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClassId;
    use qa_simnet::SimDuration;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(0xDA7A)
    }

    #[test]
    fn table3_shape() {
        let ds = Dataset::generate(&DatasetConfig::default(), &mut rng());
        assert_eq!(ds.num_relations(), 1_000);
        assert_eq!(ds.num_nodes(), 100);
        let mm = ds.mean_mirrors();
        assert!((mm - 5.0).abs() < 0.5, "mean mirrors {mm}");
        let rpn = ds.mean_relations_per_node();
        assert!((rpn - 50.0).abs() < 10.0, "relations per node {rpn}");
    }

    #[test]
    fn sizes_within_bounds() {
        let cfg = DatasetConfig::default();
        let ds = Dataset::generate(&cfg, &mut rng());
        for i in 0..ds.num_relations() {
            let r = ds.relation(RelationId(i as u32));
            assert!(r.size_bytes >= cfg.size_min_bytes && r.size_bytes <= cfg.size_max_bytes);
            assert_eq!(r.attributes, 10);
            assert!(!r.mirrors.is_empty());
        }
    }

    #[test]
    fn per_node_index_consistent_with_mirrors() {
        let ds = Dataset::generate(&DatasetConfig::default(), &mut rng());
        for i in 0..ds.num_relations() {
            let r = ds.relation(RelationId(i as u32));
            for &n in &r.mirrors {
                assert!(ds.node_has(n, r.id));
            }
        }
    }

    #[test]
    fn capable_nodes_requires_all_relations() {
        let relations = vec![
            Relation {
                id: RelationId(0),
                size_bytes: 1,
                attributes: 1,
                mirrors: vec![NodeId(0), NodeId(1)],
            },
            Relation {
                id: RelationId(1),
                size_bytes: 1,
                attributes: 1,
                mirrors: vec![NodeId(1), NodeId(2)],
            },
        ];
        let ds = Dataset::from_relations(3, relations);
        let t = QueryTemplate {
            id: ClassId(0),
            joins: 1,
            relations: vec![RelationId(0), RelationId(1)],
            base_cost: SimDuration::from_millis(100),
            result_bytes: 1,
        };
        assert_eq!(ds.capable_nodes(&t), vec![NodeId(1)]);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(&DatasetConfig::default(), &mut rng());
        let b = Dataset::generate(&DatasetConfig::default(), &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn from_relations_validates_mirror_nodes() {
        let relations = vec![Relation {
            id: RelationId(0),
            size_bytes: 1,
            attributes: 1,
            mirrors: vec![NodeId(9)],
        }];
        let _ = Dataset::from_relations(2, relations);
    }
}
