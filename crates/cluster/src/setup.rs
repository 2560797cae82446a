//! Deployment generation: tables, views, copies, query classes.
//!
//! Mirrors §5.2's data layout at reduced scale: `num_tables` base tables
//! with 2–4 copies spread over the nodes, `num_views` select-project views
//! over them, and a set of select-join-project-group *star query* classes.
//! Queries of a class share their SQL shape and differ only in a selection
//! constant (§2.1), so they share a minidb plan fingerprint — which is what
//! the history estimator keys on.

use qa_simnet::DetRng;
use qa_workload::ClassId;

/// One table of the deployment.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name (`t00`, `t01`, …).
    pub name: String,
    /// Rows to generate.
    pub(crate) rows: usize,
    /// Nodes holding a copy (2–4 of them).
    pub copies: Vec<usize>,
}

/// One select-project view.
#[derive(Debug, Clone)]
pub(crate) struct ViewSpec {
    /// The base table index.
    pub(crate) table: usize,
    /// The view's defining SQL.
    pub(crate) sql: String,
}

/// One query class: a star-query template with a `{c}` placeholder for the
/// selection constant.
#[derive(Debug, Clone)]
pub struct QueryClassSpec {
    /// The class id.
    pub id: ClassId,
    /// Template with `{c}` placeholder.
    pub(crate) template: String,
    /// Tables touched (by index), for capability checks.
    pub(crate) tables: Vec<usize>,
    /// Range of the selection constant.
    pub const_range: (i64, i64),
}

impl QueryClassSpec {
    /// Instantiates the template with a concrete constant.
    pub fn instantiate(&self, constant: i64) -> String {
        self.template.replace("{c}", &constant.to_string())
    }

    /// Draws a random instance.
    pub(crate) fn sample(&self, rng: &mut DetRng) -> String {
        let c = rng.int_in(self.const_range.0 as u64, self.const_range.1 as u64) as i64;
        self.instantiate(c)
    }
}

/// The full deployment description.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of nodes (paper: 5).
    pub num_nodes: usize,
    /// Tables.
    pub tables: Vec<TableSpec>,
    /// Views.
    pub(crate) views: Vec<ViewSpec>,
    /// Query classes.
    pub classes: Vec<QueryClassSpec>,
    /// Per-node slowdown factor (1.0 = fastest; the paper's slowest PC ran
    /// the workload ~14× slower than the fastest).
    pub slowdown: Vec<f64>,
    /// Per-node one-way reply latency in microseconds (one node sits on a
    /// slow wireless-like link).
    pub link_latency_us: Vec<u64>,
}

impl ClusterSpec {
    /// Generates the §5.2 deployment at a given scale.
    ///
    /// * `rows_per_table` — base-table size (the paper's 1 GB scales down
    ///   to a few hundred rows for CI),
    /// * `num_tables` / `num_views` — paper: 20 and 80,
    /// * `num_classes` — star-query classes to generate.
    pub fn generate(
        seed: u64,
        num_nodes: usize,
        num_tables: usize,
        num_views: usize,
        num_classes: usize,
        rows_per_table: usize,
    ) -> ClusterSpec {
        assert!(num_nodes >= 2 && num_tables >= 2 && num_classes >= 1);
        let mut rng = DetRng::seed_from_u64(seed).derive("cluster-spec");
        let tables: Vec<TableSpec> = (0..num_tables)
            .map(|i| {
                let copies = {
                    let n = rng.int_in(2, 4.min(num_nodes as u64)) as usize;
                    rng.sample_indices(num_nodes, n)
                };
                TableSpec {
                    name: format!("t{i:02}"),
                    rows: rows_per_table / 2 + rng.index(rows_per_table.max(2) / 2 + 1),
                    copies,
                }
            })
            .collect();
        let views: Vec<ViewSpec> = (0..num_views)
            .map(|i| {
                let table = rng.index(num_tables);
                let cutoff = rng.int_in(0, 500);
                ViewSpec {
                    table,
                    sql: format!(
                        "CREATE VIEW v{i:02} AS SELECT id, a, b, g FROM {} WHERE a > {cutoff}",
                        tables[table].name
                    ),
                }
            })
            .collect();
        // Whether some node holds every table in `picked`.
        let evaluable = |picked: &[usize]| {
            (0..num_nodes).any(|n| picked.iter().all(|&t| tables[t].copies.contains(&n)))
        };
        let classes: Vec<QueryClassSpec> = (0..num_classes)
            .map(|i| {
                // A star query joins a fact table with 1–2 others on id and
                // groups by g — the paper's select-join-project-group shape.
                // Redraw until the picked tables share a node (every class
                // must be evaluable somewhere, like the paper's deployment);
                // a single-table query is the always-evaluable fallback.
                let mut picked = Vec::new();
                for _ in 0..16 {
                    let joins = 1 + rng.index(2);
                    picked = rng.sample_indices(num_tables, joins + 1);
                    if evaluable(&picked) {
                        break;
                    }
                    picked.clear();
                }
                if picked.is_empty() {
                    picked = vec![rng.index(num_tables)];
                }
                let fact = &tables[picked[0]].name;
                let mut sql =
                    format!("SELECT f.g, COUNT(*) AS n, SUM(f.b) AS total FROM {fact} AS f");
                for (j, &t) in picked[1..].iter().enumerate() {
                    let alias = (b'u' + j as u8) as char;
                    sql.push_str(&format!(
                        " JOIN {} AS {alias} ON f.id = {alias}.id",
                        tables[t].name
                    ));
                }
                sql.push_str(" WHERE f.a > {c} GROUP BY f.g ORDER BY f.g");
                QueryClassSpec {
                    id: ClassId(i as u32),
                    template: sql,
                    tables: picked,
                    const_range: (0, 900),
                }
            })
            .collect();
        // Slowdowns: one fast node, a spread up to ~8× (paper: 1 s → 14 s).
        let mut slowdown: Vec<f64> = (0..num_nodes)
            .map(|i| match i {
                0 => 1.0,
                _ => 1.0 + rng.float_in(0.5, 7.0),
            })
            .collect();
        slowdown[num_nodes - 1] = slowdown[num_nodes - 1].max(6.0); // one slow PC
                                                                    // Links: last node on the slow wireless-like link.
        let link_latency_us: Vec<u64> = (0..num_nodes)
            .map(|i| if i == num_nodes - 1 { 3_000 } else { 200 })
            .collect();
        ClusterSpec {
            num_nodes,
            tables,
            views,
            classes,
            slowdown,
            link_latency_us,
        }
    }

    /// The paper-shaped deployment (5 nodes, 20 tables, 80 views) at a
    /// given row scale.
    pub fn paper(seed: u64, rows_per_table: usize) -> ClusterSpec {
        ClusterSpec::generate(seed, 5, 20, 80, 12, rows_per_table)
    }

    /// Nodes capable of evaluating a class (hold every touched table).
    pub fn capable_nodes(&self, class: ClassId) -> Vec<usize> {
        let spec = &self.classes[class.index()];
        (0..self.num_nodes)
            .filter(|&n| {
                spec.tables
                    .iter()
                    .all(|&t| self.tables[t].copies.contains(&n))
            })
            .collect()
    }

    /// DDL + data statements for one node: creates local copies of its
    /// tables (with identical content across copies — same seed per table)
    /// and the views whose base table is local.
    pub fn node_statements(&self, node: usize) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.tables {
            if !t.copies.contains(&node) {
                continue;
            }
            out.push(format!(
                "CREATE TABLE {} (id INT, a INT, b FLOAT, c TEXT, g INT)",
                t.name
            ));
        }
        for v in &self.views {
            if self.tables[v.table].copies.contains(&node) {
                out.push(v.sql.clone());
            }
        }
        out
    }

    /// Generates the rows of one table (identical for every copy — mirrors
    /// are replicas).
    pub fn table_rows(&self, table: &TableSpec, seed: u64) -> Vec<qa_minidb::value::Row> {
        use qa_minidb::Value;
        let mut rng = DetRng::seed_from_u64(seed ^ fxhash(&table.name));
        (0..table.rows)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(rng.int_in(0, 1_000) as i64),
                    Value::Float(rng.float_in(0.0, 100.0)),
                    Value::Str(format!("r{}", rng.int_in(0, 50))),
                    Value::Int(rng.int_in(0, 20) as i64),
                ]
            })
            .collect()
    }
}

/// Tiny FNV-style string hash for per-table seeds.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::generate(7, 5, 8, 16, 6, 100)
    }

    #[test]
    fn shape_matches_request() {
        let s = spec();
        assert_eq!(s.num_nodes, 5);
        assert_eq!(s.tables.len(), 8);
        assert_eq!(s.views.len(), 16);
        assert_eq!(s.classes.len(), 6);
        assert_eq!(s.slowdown.len(), 5);
        assert!((s.slowdown[0] - 1.0).abs() < 1e-12);
        assert!(s.slowdown[4] >= 6.0, "one genuinely slow node");
        assert!(s.link_latency_us[4] > s.link_latency_us[0]);
    }

    #[test]
    fn tables_have_2_to_4_copies() {
        let s = spec();
        for t in &s.tables {
            assert!(
                (2..=4).contains(&t.copies.len()),
                "{}: {:?}",
                t.name,
                t.copies
            );
            let mut c = t.copies.clone();
            c.sort_unstable();
            c.dedup();
            assert_eq!(c.len(), t.copies.len(), "copies must be distinct nodes");
        }
    }

    #[test]
    fn every_generated_class_has_a_capable_node() {
        // Several seeds: the generator must only emit evaluable classes
        // (hand-built specs may still violate this; the driver rejects
        // them with `NoCandidates`).
        for seed in [7, 31, 2007, 99] {
            let s = ClusterSpec::generate(seed, 5, 8, 16, 8, 60);
            for c in &s.classes {
                let cap = s.capable_nodes(c.id);
                assert!(
                    !cap.is_empty(),
                    "seed {seed}, class {}: no capable node",
                    c.id
                );
                for &n in &cap {
                    assert!(c.tables.iter().all(|&t| s.tables[t].copies.contains(&n)));
                }
            }
        }
    }

    #[test]
    fn instantiation_replaces_constant() {
        let s = spec();
        let sql = s.classes[0].instantiate(123);
        assert!(sql.contains("f.a > 123"), "{sql}");
        assert!(!sql.contains("{c}"));
    }

    #[test]
    fn node_statements_load_into_minidb() {
        let s = spec();
        for node in 0..s.num_nodes {
            let mut db = qa_minidb::Database::new();
            for stmt in s.node_statements(node) {
                db.execute(&stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
            }
        }
    }

    #[test]
    fn star_queries_run_on_capable_nodes() {
        let s = spec();
        let mut rng = DetRng::seed_from_u64(1);
        for class in &s.classes {
            let capable = s.capable_nodes(class.id);
            let Some(&node) = capable.first() else {
                continue;
            };
            let mut db = qa_minidb::Database::new();
            for stmt in s.node_statements(node) {
                db.execute(&stmt).unwrap();
            }
            for t in &s.tables {
                if t.copies.contains(&node) {
                    db.load_rows(&t.name, s.table_rows(t, 7)).unwrap();
                }
            }
            let sql = class.sample(&mut rng);
            let res = db.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(res.columns, vec!["g", "n", "total"]);
        }
    }

    #[test]
    fn replicas_are_identical() {
        let s = spec();
        let t = &s.tables[0];
        let a = s.table_rows(t, 42);
        let b = s.table_rows(t, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn same_class_instances_share_plan_fingerprint() {
        let s = spec();
        let class = &s.classes[0];
        let capable = s.capable_nodes(class.id);
        let Some(&node) = capable.first() else { return };
        let mut db = qa_minidb::Database::new();
        for stmt in s.node_statements(node) {
            db.execute(&stmt).unwrap();
        }
        let a = db.explain(&class.instantiate(10)).unwrap();
        let b = db.explain(&class.instantiate(777)).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
    }
}
