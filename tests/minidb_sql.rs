//! End-to-end SQL correctness on the embedded engine, including the query
//! shapes the cluster experiment runs.

use query_markets::minidb::value::Row;
use query_markets::minidb::{Database, Value};

fn warehouse() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE orders (id INT, cust INT, amount FLOAT, region TEXT)")
        .unwrap();
    db.execute("CREATE TABLE customers (id INT, name TEXT, tier INT)")
        .unwrap();
    db.execute("CREATE TABLE regions (name TEXT, manager TEXT)")
        .unwrap();
    for i in 0..200 {
        db.execute(&format!(
            "INSERT INTO orders VALUES ({i}, {}, {}.5, '{}')",
            i % 20,
            (i * 7) % 100,
            if i % 3 == 0 { "east" } else { "west" }
        ))
        .unwrap();
    }
    for c in 0..20 {
        db.execute(&format!(
            "INSERT INTO customers VALUES ({c}, 'cust{c}', {})",
            c % 3
        ))
        .unwrap();
    }
    db.execute("INSERT INTO regions VALUES ('east', 'alice'), ('west', 'bob')")
        .unwrap();
    db
}

#[test]
fn three_way_join_with_aggregation() {
    let db = warehouse();
    let r = db
        .query(
            "SELECT r.manager, COUNT(*) AS n, SUM(o.amount) AS total \
             FROM orders AS o \
             JOIN customers AS c ON o.cust = c.id \
             JOIN regions AS r ON o.region = r.name \
             WHERE c.tier >= 1 \
             GROUP BY r.manager ORDER BY r.manager",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["manager", "n", "total"]);
    assert_eq!(r.rows.len(), 2);
    // Hand check: tiers 1 and 2 are custs where c % 3 != 0 → 13 of 20
    // customers; each cust has 10 orders; regions split by i % 3.
    let total_n: i64 = r
        .rows
        .iter()
        .map(|row| match row[1] {
            Value::Int(n) => n,
            _ => panic!(),
        })
        .sum();
    assert_eq!(total_n, 130);
}

/// Every join runs the one hash join: with keys, with several keys, with
/// NULL keys, with a residual and without keys (one bucket, which EXPLAIN
/// calls a nested loop). Each result equals a nested loop over the two
/// tables' rows, row order included — the probe side is the bigger
/// table, so the optimizer keeps the written order.
#[test]
fn same_results_under_all_join_strategies() {
    let mut db = warehouse();
    db.execute("CREATE TABLE notes (cust INT, note TEXT)")
        .unwrap();
    db.execute("INSERT INTO notes VALUES (3, 'vip'), (NULL, 'walk-in'), (7, 'late'), (3, 'dup'), (NULL, 'x')")
        .unwrap();
    let rows = |table: &str| db.query(&format!("SELECT * FROM {table}")).unwrap().rows;
    let (orders, customers, notes) = (rows("orders"), rows("customers"), rows("notes"));
    // o.amount and c.tier are both column 2.
    let num = |r: &Row| r[2].as_f64().unwrap();
    // (ON clause, right table, its rows, the ON clause over an (order,
    // right row) pair, the join EXPLAIN names)
    type On<'a> = &'a dyn Fn(&Row, &Row) -> bool;
    let cases: [(&str, &str, &[Row], On, &str); 5] = [
        (
            "o.cust = c.id",
            "customers AS c",
            &customers,
            &|o, c| o[1] == c[0],
            "HashJoin",
        ),
        (
            "o.cust = c.id AND o.cust = c.tier",
            "customers AS c",
            &customers,
            &|o, c| o[1] == c[0] && o[1] == c[2],
            "HashJoin",
        ),
        (
            "o.cust = n.cust",
            "notes AS n",
            &notes,
            &|o, n| !n[0].is_null() && o[1] == n[0],
            "HashJoin",
        ),
        (
            "o.cust = c.id AND o.amount > c.tier * 30.0",
            "customers AS c",
            &customers,
            &|o, c| o[1] == c[0] && num(o) > num(c) * 30.0,
            "HashJoin",
        ),
        (
            "o.amount < c.tier * 10.0",
            "customers AS c",
            &customers,
            &|o, c| num(o) < num(c) * 10.0,
            "NestedLoopJoin",
        ),
    ];
    for (on, right, right_rows, matches, op) in cases {
        let sql = format!("SELECT * FROM orders AS o JOIN {right} ON {on}");
        let mut reference = Vec::new();
        for o in &orders {
            for r in right_rows {
                if matches(o, r) {
                    reference.push([o.as_slice(), r].concat());
                }
            }
        }
        assert!(!reference.is_empty(), "{on}");
        assert_eq!(db.query(&sql).unwrap().rows, reference, "{on}");
        assert!(db.explain(&sql).unwrap().text.contains(op), "{on}");
    }
}

#[test]
fn views_compose_with_joins() {
    let mut db = warehouse();
    db.execute("CREATE VIEW big_orders AS SELECT id, cust, amount FROM orders WHERE amount > 80.0")
        .unwrap();
    let r = db
        .query(
            "SELECT c.name, COUNT(*) FROM big_orders AS b JOIN customers AS c \
             ON b.cust = c.id GROUP BY c.name ORDER BY c.name",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    // Every counted order really is > 80.
    let direct = db
        .query("SELECT COUNT(*) FROM orders WHERE amount > 80.0")
        .unwrap();
    let via_view: i64 = r
        .rows
        .iter()
        .map(|row| match row[1] {
            Value::Int(n) => n,
            _ => panic!(),
        })
        .sum();
    assert_eq!(direct.rows[0][0], Value::Int(via_view));
}

#[test]
fn explain_estimates_shrink_with_selectivity() {
    let db = warehouse();
    let all = db.explain("SELECT * FROM orders").unwrap();
    let some = db.explain("SELECT * FROM orders WHERE cust = 3").unwrap();
    assert!(some.root.rows < all.root.rows);
    assert_ne!(all.fingerprint, some.fingerprint);
}

#[test]
fn fingerprints_group_query_templates() {
    let db = warehouse();
    let f = |c: i64| {
        db.explain(&format!("SELECT * FROM orders WHERE cust = {c}"))
            .unwrap()
            .fingerprint
    };
    assert_eq!(f(1), f(19));
    let other = db
        .explain("SELECT * FROM orders WHERE amount = 1.0")
        .unwrap()
        .fingerprint;
    assert_ne!(f(1), other);
}

#[test]
fn error_paths_are_graceful() {
    let db = warehouse();
    assert!(db.query("SELECT * FROM missing").is_err());
    assert!(db.query("SELECT amount + region FROM orders").is_err());
    assert!(db.query("SELECT nope FROM orders").is_err());
    assert!(db.query("SELECT region, SUM(amount) FROM orders").is_err()); // missing GROUP BY
    assert!(db
        .query("SELECT COUNT(*) FROM orders WHERE amount / 0.0 > 1.0")
        .is_err());
}

/// Every capable (node, class) pair of the two deployments the repo runs
/// — `ClusterSpec::paper(2007, 60)` and `FedConfig::example()` — at
/// constant 450: the `EXPLAIN` text, the root estimate as f64 bits, the
/// fingerprint as a first-seen index (so the file does not depend on
/// `DefaultHasher` values) and the rows `query` returns.
fn render_deployed_plans() -> String {
    use query_markets::cluster::{ClusterSpec, FedConfig};
    use std::fmt::Write;
    let fed = FedConfig::example();
    let specs = [
        ("paper(2007, 60)", ClusterSpec::paper(2007, 60), 2007),
        ("FedConfig::example()", fed.spec(), fed.seed),
    ];
    let mut fingerprints: Vec<u64> = Vec::new();
    let mut out = String::new();
    for (name, spec, data_seed) in specs {
        for node in 0..spec.num_nodes {
            let mut db = Database::new();
            for stmt in spec.node_statements(node) {
                db.execute(&stmt).unwrap();
            }
            for t in spec.tables.iter().filter(|t| t.copies.contains(&node)) {
                db.load_rows(&t.name, spec.table_rows(t, data_seed))
                    .unwrap();
            }
            for class in &spec.classes {
                if !spec.capable_nodes(class.id).contains(&node) {
                    continue;
                }
                let sql = class.instantiate(450);
                let ex = db.explain(&sql).unwrap();
                let fp = fingerprints
                    .iter()
                    .position(|&f| f == ex.fingerprint)
                    .unwrap_or_else(|| {
                        fingerprints.push(ex.fingerprint);
                        fingerprints.len() - 1
                    });
                let bits = |x: f64| format!("{:016x}", x.to_bits());
                let result = db.query(&sql).unwrap();
                writeln!(out, "== {name} node {node} class {} plan #{fp}", class.id).unwrap();
                writeln!(out, "{sql}").unwrap();
                writeln!(
                    out,
                    "root rows={} cost={} width={}",
                    bits(ex.root.rows),
                    bits(ex.root.cost),
                    bits(ex.root.width)
                )
                .unwrap();
                out.push_str(&ex.text);
                writeln!(out, "columns: {}", result.columns.join(", ")).unwrap();
                for row in &result.rows {
                    writeln!(out, "  {row:?}").unwrap();
                }
            }
        }
    }
    out
}

/// The deployed plans, estimates, fingerprint groupings and results are
/// pinned byte for byte by `goldens/minidb_plans.txt`, which the engine
/// that kept three join executors generated. There is no bless switch.
#[test]
fn deployed_plans_match_golden() {
    let fresh = render_deployed_plans();
    let root = env!("CARGO_MANIFEST_DIR");
    let golden = format!("{root}/goldens/minidb_plans.txt");
    if std::fs::read_to_string(&golden).ok().as_deref() != Some(fresh.as_str()) {
        let artifact = format!("{root}/bench_results/minidb_plans.txt");
        std::fs::create_dir_all(format!("{root}/bench_results")).unwrap();
        std::fs::write(&artifact, &fresh).unwrap();
        panic!(
            "diverged from {golden}: diff it against {artifact}, and copy that \
             over the golden only with an intended behaviour change"
        );
    }
}

#[test]
fn order_by_limit_pagination() {
    let db = warehouse();
    let page1 = db
        .query("SELECT id FROM orders ORDER BY amount DESC, id ASC LIMIT 5")
        .unwrap();
    assert_eq!(page1.rows.len(), 5);
    // Deterministic: run twice, same page.
    let again = db
        .query("SELECT id FROM orders ORDER BY amount DESC, id ASC LIMIT 5")
        .unwrap();
    assert_eq!(page1.rows, again.rows);
}
