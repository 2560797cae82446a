//! Query templates / classes.
//!
//! §2.1: the workload consists of read-only select-join-project-sort
//! queries, classified into `K` disjoint classes. Queries of the same class
//! "use similar resources and have similar estimated execution cost when run
//! on the same node (could be different on different nodes)". A
//! [`QueryTemplate`] carries what the cost model needs: the relations the
//! query touches and a *base cost* — its execution time on a reference node
//! with average hardware — which each node then scales by its own CPU/IO
//! factors (`qa-sim`'s cost model).
//!
//! [`TemplateSet::generate`] reproduces Table 3's workload shape: 100
//! classes of queries with 0–49 joins (average 24) and a ~2 000 ms average
//! best execution time.

use crate::ids::{ClassId, RelationId};
use qa_simnet::{DetRng, SimDuration};

/// One query class (template).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    /// The class identifier.
    pub id: ClassId,
    /// Number of joins (0–49 in the paper's zipf workload).
    pub joins: u32,
    /// Relations touched: `joins + 1` base relations.
    pub relations: Vec<RelationId>,
    /// Execution time on the reference node (average CPU, average I/O,
    /// cold planning); real nodes scale this by their hardware factors.
    pub base_cost: SimDuration,
    /// Approximate result size in bytes, used for network transfer costs.
    pub result_bytes: u64,
}

impl QueryTemplate {
    /// `true` iff the template can run on a node holding `has_relation`
    /// (a predicate over relation ids): every touched relation must be
    /// locally available.
    pub(crate) fn runnable_where<F: Fn(RelationId) -> bool>(&self, has_relation: F) -> bool {
        self.relations.iter().all(|&r| has_relation(r))
    }
}

/// Parameters for synthetic template generation (Table 3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateConfig {
    /// Number of classes `K` (paper: 100).
    pub num_classes: usize,
    /// Number of relations to draw from (paper: 1 000).
    pub num_relations: usize,
    /// Joins per query, inclusive range (paper: 0–49).
    pub joins_min: u32,
    /// Upper bound of the joins range.
    pub joins_max: u32,
    /// Average best execution time of queries (paper: ~2 000 ms).
    pub mean_base_cost: SimDuration,
    /// Average result size in bytes.
    pub mean_result_bytes: u64,
}

impl Default for TemplateConfig {
    fn default() -> Self {
        TemplateConfig {
            num_classes: 100,
            num_relations: 1_000,
            joins_min: 0,
            joins_max: 49,
            mean_base_cost: SimDuration::from_millis(2_000),
            mean_result_bytes: 64 * 1024,
        }
    }
}

/// A generated set of query templates, indexed by [`ClassId`].
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateSet {
    templates: Vec<QueryTemplate>,
}

impl TemplateSet {
    /// Builds a set from explicit templates (ids must be dense and in
    /// order).
    ///
    /// # Panics
    /// Panics if ids are not `0..n` in order.
    pub fn from_templates(templates: Vec<QueryTemplate>) -> Self {
        for (i, t) in templates.iter().enumerate() {
            assert_eq!(t.id.index(), i, "template ids must be dense and ordered");
        }
        TemplateSet { templates }
    }

    /// Generates `cfg.num_classes` templates per Table 3.
    ///
    /// Cost scales with the number of joins: a 0-join scan is cheap, a
    /// 49-join query expensive, with the configured mean over the set.
    pub fn generate(cfg: &TemplateConfig, rng: &mut DetRng) -> Self {
        assert!(cfg.num_classes > 0 && cfg.num_relations > 0);
        assert!(cfg.joins_min <= cfg.joins_max);
        let mut templates = Vec::with_capacity(cfg.num_classes);
        // First pass: raw per-class weights so we can normalize the mean.
        let mut raws: Vec<(u32, Vec<RelationId>, f64, f64)> = Vec::with_capacity(cfg.num_classes);
        for _ in 0..cfg.num_classes {
            let joins = rng.int_in(u64::from(cfg.joins_min), u64::from(cfg.joins_max)) as u32;
            let tables = (joins as usize + 1).min(cfg.num_relations);
            let relations: Vec<RelationId> = rng
                .sample_indices(cfg.num_relations, tables)
                .into_iter()
                .map(|i| RelationId(i as u32))
                .collect();
            // Cost grows roughly linearly in the number of joins with a
            // ±30 % idiosyncratic factor.
            let raw_cost = (1.0 + joins as f64) * rng.float_in(0.7, 1.3);
            let raw_bytes = rng.float_in(0.25, 4.0);
            raws.push((joins, relations, raw_cost, raw_bytes));
        }
        let mean_raw: f64 = raws.iter().map(|r| r.2).sum::<f64>() / raws.len() as f64;
        let mean_raw_bytes: f64 = raws.iter().map(|r| r.3).sum::<f64>() / raws.len() as f64;
        for (i, (joins, relations, raw_cost, raw_bytes)) in raws.into_iter().enumerate() {
            let cost = cfg.mean_base_cost.as_secs_f64() * raw_cost / mean_raw;
            let bytes = cfg.mean_result_bytes as f64 * raw_bytes / mean_raw_bytes;
            templates.push(QueryTemplate {
                id: ClassId(i as u32),
                joins,
                relations,
                base_cost: SimDuration::from_secs_f64(cost),
                result_bytes: bytes.max(1.0) as u64,
            });
        }
        TemplateSet { templates }
    }

    /// Number of classes `K`.
    pub fn num_classes(&self) -> usize {
        self.templates.len()
    }

    /// The template of a class.
    pub fn get(&self, id: ClassId) -> &QueryTemplate {
        &self.templates[id.index()]
    }

    /// All templates in id order.
    pub fn iter(&self) -> impl Iterator<Item = &QueryTemplate> {
        self.templates.iter()
    }

    /// Mean base cost over all classes.
    pub fn mean_base_cost(&self) -> SimDuration {
        let total: f64 = self
            .templates
            .iter()
            .map(|t| t.base_cost.as_secs_f64())
            .sum();
        SimDuration::from_secs_f64(total / self.templates.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(0x7AB1E3)
    }

    #[test]
    fn generates_requested_class_count() {
        let set = TemplateSet::generate(&TemplateConfig::default(), &mut rng());
        assert_eq!(set.num_classes(), 100);
    }

    #[test]
    fn joins_within_configured_range() {
        let set = TemplateSet::generate(&TemplateConfig::default(), &mut rng());
        assert!(set.iter().all(|t| t.joins <= 49));
        // Average joins should be near the midpoint (paper: 24).
        let avg: f64 = set.iter().map(|t| t.joins as f64).sum::<f64>() / 100.0;
        assert!((avg - 24.5).abs() < 6.0, "avg joins {avg}");
    }

    #[test]
    fn mean_cost_matches_config() {
        let cfg = TemplateConfig::default();
        let set = TemplateSet::generate(&cfg, &mut rng());
        let mean = set.mean_base_cost().as_millis_f64();
        assert!((mean - 2_000.0).abs() < 20.0, "mean {mean}ms");
    }

    #[test]
    fn relations_are_distinct_per_template() {
        let set = TemplateSet::generate(&TemplateConfig::default(), &mut rng());
        for t in set.iter() {
            let mut rels: Vec<_> = t.relations.clone();
            rels.sort();
            rels.dedup();
            assert_eq!(
                rels.len(),
                t.relations.len(),
                "duplicate relation in {:?}",
                t.id
            );
            assert_eq!(t.relations.len() as u32, t.joins + 1);
        }
    }

    #[test]
    fn cost_correlates_with_joins() {
        let set = TemplateSet::generate(&TemplateConfig::default(), &mut rng());
        let cheap: f64 = set
            .iter()
            .filter(|t| t.joins < 10)
            .map(|t| t.base_cost.as_millis_f64())
            .sum::<f64>()
            / set.iter().filter(|t| t.joins < 10).count().max(1) as f64;
        let pricey: f64 = set
            .iter()
            .filter(|t| t.joins > 40)
            .map(|t| t.base_cost.as_millis_f64())
            .sum::<f64>()
            / set.iter().filter(|t| t.joins > 40).count().max(1) as f64;
        assert!(pricey > cheap * 2.0, "cheap {cheap} pricey {pricey}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TemplateSet::generate(&TemplateConfig::default(), &mut rng());
        let b = TemplateSet::generate(&TemplateConfig::default(), &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn runnable_where_checks_all_relations() {
        let t = QueryTemplate {
            id: ClassId(0),
            joins: 1,
            relations: vec![RelationId(1), RelationId(2)],
            base_cost: SimDuration::from_millis(100),
            result_bytes: 10,
        };
        assert!(t.runnable_where(|_| true));
        assert!(!t.runnable_where(|r| r == RelationId(1)));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn from_templates_rejects_sparse_ids() {
        let t = QueryTemplate {
            id: ClassId(5),
            joins: 0,
            relations: vec![],
            base_cost: SimDuration::from_millis(1),
            result_bytes: 1,
        };
        let _ = TemplateSet::from_templates(vec![t]);
    }
}
