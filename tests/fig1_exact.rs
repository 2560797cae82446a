//! The paper's Figure-1 numbers, exactly.
//!
//! Two nodes, N1 (q1: 400 ms, q2: 100 ms) and N2 (q1: 450 ms, q2: 500 ms),
//! demand 2×q1 then 6×q2. The greedy load balancer averages 662.5 ms; the
//! QA allocation averages 431.25 ms; LB's first-period allocation is
//! Pareto-dominated.

use query_markets::economics::{
    dominates, enumerate_solutions, is_pareto_optimal, LinearCapacitySet, QuantityVector, Solution,
};

const TIMES: [[u64; 2]; 2] = [[400, 100], [450, 500]];

fn arrivals() -> Vec<usize> {
    let mut v = vec![0, 0];
    v.extend(std::iter::repeat_n(1, 6));
    v
}

fn lb_assignment() -> Vec<usize> {
    let mut load = [0u64; 2];
    arrivals()
        .into_iter()
        .map(|class| {
            let imbalance = |n: usize| {
                let mut l = load;
                l[n] += TIMES[n][class];
                l[0].abs_diff(l[1])
            };
            let node = if imbalance(0) <= imbalance(1) { 0 } else { 1 };
            load[node] += TIMES[node][class];
            node
        })
        .collect()
}

fn response_times(assignment: &[usize]) -> Vec<u64> {
    let mut busy = [0u64; 2];
    arrivals()
        .iter()
        .zip(assignment)
        .map(|(&class, &node)| {
            busy[node] += TIMES[node][class];
            busy[node]
        })
        .collect()
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len() as f64
}

#[test]
fn lb_average_is_662_5_ms() {
    let resp = response_times(&lb_assignment());
    assert!((mean(&resp) - 662.5).abs() < 1e-9, "{resp:?}");
    // The paper's per-node end times: N1 busy to 900 ms, N2 to 950 ms.
    assert_eq!(resp.iter().max(), Some(&950));
}

#[test]
fn qa_average_is_431_25_ms() {
    // QA: N1 takes only q2, N2 takes the q1s.
    let qa: Vec<usize> = arrivals()
        .into_iter()
        .map(|class| if class == 0 { 1 } else { 0 })
        .collect();
    let resp = response_times(&qa);
    assert!((mean(&resp) - 431.25).abs() < 1e-9, "{resp:?}");
    // QA leaves N1 idle after 600 ms (the paper's overload-duration
    // point): the six q2 responses are the last six entries.
    assert!(
        resp[2..].iter().all(|&t| t <= 600),
        "all six q2 done by 600 ms: {resp:?}"
    );
}

#[test]
fn lb_is_54_percent_slower() {
    let lb = mean(&response_times(&lb_assignment()));
    let qa = 431.25;
    let pct = 100.0 * (lb / qa - 1.0);
    assert!(
        (pct - 53.6).abs() < 1.0,
        "LB slower by {pct:.1}% (paper: 54%)"
    );
}

#[test]
fn first_period_lb_dominated_qa_optimal() {
    // §2.2: within the first T = 500 ms, demand is d1 = (1,6), d2 = (1,0).
    let sets = vec![
        LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0),
        LinearCapacitySet::new(vec![Some(450.0), Some(500.0)], 500.0),
    ];
    let demands = vec![
        QuantityVector::from_counts(vec![1, 6]),
        QuantityVector::from_counts(vec![1, 0]),
    ];
    let lb = Solution {
        supplies: vec![
            QuantityVector::from_counts(vec![1, 1]),
            QuantityVector::from_counts(vec![1, 0]),
        ],
        consumptions: vec![
            QuantityVector::from_counts(vec![1, 1]),
            QuantityVector::from_counts(vec![1, 0]),
        ],
    };
    let qa = Solution {
        supplies: vec![
            QuantityVector::from_counts(vec![0, 5]),
            QuantityVector::from_counts(vec![1, 0]),
        ],
        consumptions: vec![
            QuantityVector::from_counts(vec![0, 5]),
            QuantityVector::from_counts(vec![1, 0]),
        ],
    };
    assert!(dominates(&qa, &lb));
    let all = enumerate_solutions(&sets, &demands);
    assert!(!is_pareto_optimal(&lb, &all), "LB is not Pareto optimal");
    assert!(is_pareto_optimal(&qa, &all), "QA is Pareto optimal");
}
