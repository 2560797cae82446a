//! Property tests for the relational engine, driven by seeded [`DetRng`]
//! loops (the hermetic-build substitute for proptest): each property runs
//! over 150 random cases from a fixed seed, so failures reproduce exactly.

use qa_minidb::exec::basic::sort;
use qa_minidb::exec::join::hash_join;
use qa_minidb::expr::BoundExpr;
use qa_minidb::sql::ast::BinaryOp;
use qa_minidb::value::{DataType, Row, Value};
use qa_minidb::Database;
use qa_simnet::DetRng;

const CASES: usize = 150;

fn random_rows(rng: &mut DetRng, max: usize) -> Vec<Row> {
    let n = rng.index(max);
    (0..n)
        .map(|_| {
            let key = if rng.chance(1.0 / 9.0) {
                Value::Null
            } else {
                Value::Int(rng.int_in(0, 7) as i64)
            };
            vec![key, Value::Int(rng.int_in(0, 99) as i64)]
        })
        .collect()
}

fn random_value(rng: &mut DetRng) -> Value {
    match rng.index(7) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.int_in(0, 199) as i64 - 100),
        3 => Value::Float(rng.float_in(-100.0, 100.0)),
        4 => Value::Float(0.0),
        5 => Value::Float(-0.0),
        _ => {
            let len = rng.index(4);
            Value::Str(
                (0..len)
                    .map(|_| char::from(b'a' + rng.index(3) as u8))
                    .collect(),
            )
        }
    }
}

fn sorted(mut v: Vec<Row>) -> Vec<Row> {
    v.sort();
    v
}

/// The join's definition, row order included: every (left, right) pair in
/// left-major order whose keys are equal and non-NULL and whose
/// concatenation passes the residual.
fn nested_loop(
    left: &[Row],
    right: &[Row],
    equi: &[(usize, usize)],
    residual: Option<&BoundExpr>,
) -> Vec<Row> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            let row = [l.as_slice(), r].concat();
            if equi.iter().all(|&(a, b)| !l[a].is_null() && l[a] == r[b])
                && residual.is_none_or(|p| p.eval_predicate(&row).unwrap())
            {
                out.push(row);
            }
        }
    }
    out
}

/// The hash join equals the nested-loop reference exactly, row order
/// included, on arbitrary inputs: equi, multi-key, NULL-key (one key in
/// nine is NULL), residual and key-less joins.
#[test]
fn join_algorithms_agree() {
    let mut rng = DetRng::seed_from_u64(0x11D8_0001);
    let int = |index| BoundExpr::Column {
        index,
        ty: DataType::Int,
        name: format!("c{index}"),
    };
    // left.v < right.v over the concatenated (key, v, k2, key, v, k2).
    let residual = BoundExpr::Binary {
        left: Box::new(int(1)),
        op: BinaryOp::Lt,
        right: Box::new(int(4)),
    };
    let keys: [&[(usize, usize)]; 3] = [&[(0, 0)], &[(0, 0), (2, 2)], &[]];
    for case in 0..CASES {
        let mut side = || -> Vec<Row> {
            let mut rows = random_rows(&mut rng, 30);
            for row in &mut rows {
                row.push(Value::Int(rng.int_in(0, 2) as i64));
            }
            rows
        };
        let (left, right) = (side(), side());
        for equi in keys {
            for residual in [None, Some(&residual)] {
                assert_eq!(
                    hash_join(&left, &right, equi, residual).unwrap(),
                    nested_loop(&left, &right, equi, residual),
                    "case {case}, keys {equi:?}, residual {}",
                    residual.is_some()
                );
            }
        }
    }
}

/// Join output size equals the sum over keys of |L_k|·|R_k|.
#[test]
fn join_cardinality_formula() {
    use std::collections::HashMap;
    let mut rng = DetRng::seed_from_u64(0x11D8_0002);
    for case in 0..CASES {
        let left = random_rows(&mut rng, 30);
        let right = random_rows(&mut rng, 30);
        let mut lc: HashMap<Value, usize> = HashMap::new();
        for r in &left {
            if !r[0].is_null() {
                *lc.entry(r[0].clone()).or_default() += 1;
            }
        }
        let mut expected = 0usize;
        for r in &right {
            if !r[0].is_null() {
                expected += lc.get(&r[0]).copied().unwrap_or(0);
            }
        }
        let out = hash_join(&left, &right, &[(0, 0)], None).unwrap();
        assert_eq!(out.len(), expected, "case {case}");
    }
}

/// Sort emits a permutation of its input, ordered by the key.
#[test]
fn sort_is_an_ordered_permutation() {
    let mut rng = DetRng::seed_from_u64(0x11D8_0003);
    for case in 0..CASES {
        let rows = random_rows(&mut rng, 50);
        let key = BoundExpr::Column {
            index: 1,
            ty: DataType::Int,
            name: "v".into(),
        };
        let out = sort(rows.clone(), &[(key, true)]).unwrap();
        assert_eq!(out.len(), rows.len(), "case {case}");
        assert_eq!(sorted(out.clone()), sorted(rows), "case {case}");
        for w in out.windows(2) {
            assert!(w[0][1] <= w[1][1], "case {case}");
        }
    }
}

/// Value ordering is a total order: transitive and antisymmetric on random
/// triples.
#[test]
fn value_order_is_total() {
    use std::cmp::Ordering;
    let mut rng = DetRng::seed_from_u64(0x11D8_0004);
    for _ in 0..CASES * 4 {
        let a = random_value(&mut rng);
        let b = random_value(&mut rng);
        let c = random_value(&mut rng);
        // Antisymmetry.
        if a.cmp(&b) == Ordering::Less {
            assert_eq!(b.cmp(&a), Ordering::Greater);
        }
        // Transitivity.
        if a <= b && b <= c {
            assert!(a <= c);
        }
        // Hash consistency.
        if a == b {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let h = |v: &Value| {
                let mut s = DefaultHasher::new();
                v.hash(&mut s);
                s.finish()
            };
            assert_eq!(h(&a), h(&b));
        }
    }
}

/// Aggregates computed by the engine equal a direct computation.
#[test]
fn sql_aggregates_match_reference() {
    let mut rng = DetRng::seed_from_u64(0x11D8_0005);
    for case in 0..CASES {
        let values: Vec<i64> = (0..1 + rng.index(59))
            .map(|_| rng.int_in(0, 999) as i64)
            .collect();
        let mut db = Database::new();
        db.execute("CREATE TABLE t (v INT)").unwrap();
        db.load_rows("t", values.iter().map(|&v| vec![Value::Int(v)]).collect())
            .unwrap();
        let r = db
            .query("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t")
            .unwrap();
        let row = &r.rows[0];
        assert_eq!(&row[0], &Value::Int(values.len() as i64), "case {case}");
        assert_eq!(
            &row[1],
            &Value::Int(values.iter().sum::<i64>()),
            "case {case}"
        );
        assert_eq!(
            &row[2],
            &Value::Int(*values.iter().min().unwrap()),
            "case {case}"
        );
        assert_eq!(
            &row[3],
            &Value::Int(*values.iter().max().unwrap()),
            "case {case}"
        );
    }
}

/// WHERE filters match a direct predicate evaluation.
#[test]
fn sql_filter_matches_reference() {
    let mut rng = DetRng::seed_from_u64(0x11D8_0006);
    for case in 0..CASES {
        let values: Vec<i64> = (0..rng.index(60))
            .map(|_| rng.int_in(0, 99) as i64)
            .collect();
        let cutoff = rng.int_in(0, 99) as i64;
        let mut db = Database::new();
        db.execute("CREATE TABLE t (v INT)").unwrap();
        db.load_rows("t", values.iter().map(|&v| vec![Value::Int(v)]).collect())
            .unwrap();
        let r = db
            .query(&format!("SELECT v FROM t WHERE v > {cutoff} ORDER BY v"))
            .unwrap();
        let mut expected: Vec<i64> = values.iter().copied().filter(|&v| v > cutoff).collect();
        expected.sort_unstable();
        let got: Vec<i64> = r
            .rows
            .iter()
            .map(|row| match row[0] {
                Value::Int(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, expected, "case {case}");
    }
}
