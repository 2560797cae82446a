//! Figure 1 + Figure 2: the motivating example.
//!
//! Two nodes; N1 runs q1 in 400 ms and q2 in 100 ms, N2 in 450 ms and
//! 500 ms. Demand: N1 poses 1×q1 and 6×q2, N2 poses 1×q1 (q1 requests
//! arrive first). The load-balancing (LB) strategy yields a 662 ms average
//! response; the query-allocation (QA) strategy 431 ms — and LB's
//! allocation is Pareto-dominated (Fig. 2).

use crate::{Report, Scale};
use qa_economics::{dominates, QuantityVector, Solution};

/// Exec times: `times[node][class]` in ms.
const TIMES: [[u64; 2]; 2] = [[400, 100], [450, 500]];

/// The arrival order of the example: two q1 then six q2.
fn arrivals() -> Vec<usize> {
    let mut v = vec![0, 0];
    v.extend(std::iter::repeat_n(1, 6));
    v
}

/// Greedy least-load-imbalance assignment (the paper's LB): each query
/// goes to the node minimizing the post-assignment load imbalance.
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

/// The QA assignment of the paper: N1 evaluates only q2, N2 only q1.
fn qa_assignment() -> Vec<usize> {
    arrivals()
        .into_iter()
        .map(|class| if class == 0 { 1 } else { 0 })
        .collect()
}

/// FIFO per-node completion times → per-query response times (ms).
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

/// Builds the eq.-1 aggregate vectors of a run (Fig. 2).
fn aggregates(assignment: &[usize]) -> (QuantityVector, QuantityVector) {
    let mut supply = [QuantityVector::zeros(2), QuantityVector::zeros(2)];
    for (&class, &node) in arrivals().iter().zip(assignment) {
        supply[node].add_units(class, 1);
    }
    let agg = QuantityVector::aggregate(&supply);
    (supply[0].clone(), agg)
}

/// Figures 1 and 2 (neither depends on scale or threads).
pub(crate) fn fig1(_: Scale, _: usize) -> Report {
    let lb = lb_assignment();
    let qa = qa_assignment();
    let lb_resp = response_times(&lb);
    let qa_resp = response_times(&qa);

    let mut r = Report::titled("Figure 1 — Performance optimization vs Load Balancing");
    let rows = vec![
        vec![
            "LB".to_string(),
            format!("{lb_resp:?}"),
            format!("{:.1} ms", mean(&lb_resp)),
        ],
        vec![
            "QA".to_string(),
            format!("{qa_resp:?}"),
            format!("{:.1} ms", mean(&qa_resp)),
        ],
    ];
    r.table("mechanism|response times (ms)|average", &rows);
    let slower = 100.0 * (mean(&lb_resp) / mean(&qa_resp) - 1.0);
    r.line(format!("LB is {slower:.0}% slower than QA (paper: 54%)\n"));

    // Figure 2: aggregate vectors + Pareto check over the first 500 ms
    // period (demand d⃗ = (2,6); LB consumes (2,1), QA consumes (1,5)).
    let (n1_lb, agg_lb) = aggregates(&lb);
    let (n1_qa, agg_qa) = aggregates(&qa);
    r.line("Figure 2 — aggregate vectors over the whole run");
    r.line(format!(
        "  LB: N1 supplies {n1_lb}, aggregate supply {agg_lb}"
    ));
    r.line(format!(
        "  QA: N1 supplies {n1_qa}, aggregate supply {agg_qa}"
    ));

    // Pareto dominance in the first period, exactly as §2.2 frames it.
    let lb_solution = Solution {
        supplies: vec![
            QuantityVector::from_counts(vec![1, 1]),
            QuantityVector::from_counts(vec![1, 0]),
        ],
        consumptions: vec![
            QuantityVector::from_counts(vec![1, 1]),
            QuantityVector::from_counts(vec![1, 0]),
        ],
    };
    let qa_solution = Solution {
        supplies: vec![
            QuantityVector::from_counts(vec![0, 5]),
            QuantityVector::from_counts(vec![1, 0]),
        ],
        consumptions: vec![
            QuantityVector::from_counts(vec![0, 5]),
            QuantityVector::from_counts(vec![1, 0]),
        ],
    };
    let dominated = dominates(&qa_solution, &lb_solution);
    r.line(format!(
        "\nFirst period (T = 500 ms): QA Pareto-dominates LB: {dominated}"
    ));

    let result = qa_simnet::json_obj! {
        "lb_mean_ms": mean(&lb_resp),
        "qa_mean_ms": mean(&qa_resp),
        "paper_lb_ms": 662.0,
        "paper_qa_ms": 431.0,
        "lb_responses": lb_resp,
        "qa_responses": qa_resp,
    };
    r.json("fig1_motivating", &result);
    r
}
