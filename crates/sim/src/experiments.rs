//! One function per figure of the paper's §5.1 evaluation.
//!
//! Every function is parameterized by a [`SimConfig`] so the test suite can
//! run scaled-down versions while the bench harness (`qa-bench`) runs the
//! full 100-node, paper-scale sweeps. All results implement `ToJson` so
//! the harness can emit machine-readable series.

use crate::config::{BrokerConfig, SimConfig};
use crate::federation::{Federation, RunOutcome};
use crate::metrics::MechanismSummary;
use crate::scenario::{Scenario, TwoClassParams};
use crate::sharded::{ShardPlan, ShardRunOptions};
use qa_core::MechanismKind;
use qa_economics::parent::ParentMechanism;
use qa_simnet::telemetry::Telemetry;
use qa_simnet::{DetRng, SimTime};
use qa_workload::arrival::{ArrivalProcess, SinusoidProcess, ZipfProcess};
use qa_workload::{ClassId, Trace};

/// The demand mix of the two-class workload: peak Q1 rate is twice Q2's,
/// so Q1 is 2/3 of arrivals.
pub const TWO_CLASS_MIX: [f64; 2] = [2.0 / 3.0, 1.0 / 3.0];

/// Runs one `(scenario, mechanism)` cell over `trace`.
///
/// This is the unit of parallelism for every sweep: a cell is a pure
/// function of its arguments (all randomness re-derives from the scenario
/// seed), so sweep harnesses may fan cells over threads and still collect
/// results identical to the serial loop.
pub fn run_cell(scenario: &Scenario, trace: &Trace, mechanism: MechanismKind) -> RunOutcome {
    Federation::new(scenario, mechanism, trace).run(trace)
}

/// Builds the canonical two-class sinusoid trace.
///
/// * `frac` — average offered load as a fraction of system capacity,
/// * `freq_hz` — waveform frequency,
/// * `secs` — horizon.
///
/// The average rate of a raised sinusoid is half its peak, so with
/// `peak_q2 = peak_q1/2` the total average rate is `0.75·peak_q1`; the
/// peak is solved from the requested average.
pub fn two_class_trace(scenario: &Scenario, freq_hz: f64, frac: f64, secs: u64) -> Trace {
    let capacity = scenario.capacity_qps(&TWO_CLASS_MIX);
    let peak_q1 = frac * capacity / 0.75;
    let (p1, p2) = SinusoidProcess::paper_pair(freq_hz, peak_q1);
    let mut rng = DetRng::seed_from_u64(scenario.config.seed).derive("two-class-trace");
    let horizon = SimTime::from_secs(secs);
    let mut arrivals = p1.generate(horizon, &mut rng);
    arrivals.extend(p2.generate(horizon, &mut rng));
    Trace::from_arrivals(arrivals, scenario.config.num_nodes, &mut rng)
}

// ---------------------------------------------------------------- Fig. 3

/// Figure 3: the example sinusoid workload — arrivals per half-second for
/// each class.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Bin width in ms (500 in the paper).
    pub period_ms: u64,
    /// Q1 arrivals per bin.
    pub q1_per_period: Vec<u64>,
    /// Q2 arrivals per bin.
    pub q2_per_period: Vec<u64>,
}

qa_simnet::impl_to_json!(Fig3Result {
    period_ms,
    q1_per_period,
    q2_per_period
});

/// Generates Figure 3.
pub fn fig3_sinusoid_workload(
    config: &SimConfig,
    freq_hz: f64,
    frac: f64,
    secs: u64,
) -> Fig3Result {
    let scenario = Scenario::two_class(config.clone(), TwoClassParams::default());
    let trace = two_class_trace(&scenario, freq_hz, frac, secs);
    Fig3Result {
        period_ms: config.period.as_millis(),
        q1_per_period: trace.arrivals_per_period(config.period, Some(ClassId(0))),
        q2_per_period: trace.arrivals_per_period(config.period, Some(ClassId(1))),
    }
}

// ---------------------------------------------------------------- Fig. 4

/// Figure 4: normalized average response time of every mechanism under a
/// 0.05 Hz sinusoid with peak just below capacity.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// One row per mechanism, QA-NT first.
    pub rows: Vec<MechanismSummary>,
}

qa_simnet::impl_to_json!(Fig4Result { rows });

/// The Figure-4 workload: a 0.05 Hz sinusoid whose peak sits slightly
/// below total system capacity ("peek load was slightly below total
/// system capacity" — a ~95 % peak is a ~0.71 average, i.e. 0.75 × 0.95).
pub fn fig4_workload(config: &SimConfig, secs: u64) -> (Scenario, Trace) {
    let scenario = Scenario::two_class(config.clone(), TwoClassParams::default());
    let trace = two_class_trace(&scenario, 0.05, 0.95 * 0.75, secs);
    (scenario, trace)
}

/// Folds per-mechanism outcomes (QA-NT first, as in
/// [`MechanismKind::DYNAMIC`]) into the Figure-4 rows, normalizing every
/// response by QA-NT's.
pub fn fig4_summarize(outcomes: &[RunOutcome]) -> Fig4Result {
    let qant = &outcomes[0].metrics;
    let rows = outcomes
        .iter()
        .map(|o| MechanismSummary {
            mechanism: o.mechanism.to_string(),
            mean_response_ms: o.metrics.mean_response_ms().unwrap_or(f64::NAN),
            normalized_response: o.metrics.normalized_response_vs(qant).unwrap_or(f64::NAN),
            completed: o.metrics.completed,
            unserved: o.metrics.unserved,
            messages_per_query: o.metrics.messages as f64 / o.metrics.completed.max(1) as f64,
        })
        .collect();
    Fig4Result { rows }
}

/// Runs Figure 4.
pub fn fig4_all_algorithms(config: &SimConfig, secs: u64) -> Fig4Result {
    let (scenario, trace) = fig4_workload(config, secs);
    let outcomes: Vec<_> = MechanismKind::DYNAMIC
        .iter()
        .map(|&m| run_cell(&scenario, &trace, m))
        .collect();
    fig4_summarize(&outcomes)
}

// ------------------------------------------------------------- Fig. 5a/b

/// One point of a Greedy-vs-QA-NT sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter (load fraction for 5a, frequency for 5b,
    /// inter-arrival ms for Fig. 6).
    pub x: f64,
    /// QA-NT mean response (ms).
    pub qant_ms: f64,
    /// Greedy mean response (ms).
    pub greedy_ms: f64,
    /// Greedy normalized by QA-NT (the paper's y-axis; > 1 = QA-NT wins).
    pub normalized_greedy: f64,
    /// QA-NT unserved queries.
    pub qant_unserved: u64,
    /// Greedy unserved queries.
    pub greedy_unserved: u64,
}

qa_simnet::impl_to_json!(SweepPoint {
    x,
    qant_ms,
    greedy_ms,
    normalized_greedy,
    qant_unserved,
    greedy_unserved
});

/// Runs the QA-NT/Greedy pair on one trace and folds both outcomes into a
/// [`SweepPoint`] at abscissa `x`. One sweep cell.
pub fn sweep_point(scenario: &Scenario, trace: &Trace, x: f64) -> SweepPoint {
    let q = run_cell(scenario, trace, MechanismKind::QaNt);
    let g = run_cell(scenario, trace, MechanismKind::Greedy);
    SweepPoint {
        x,
        qant_ms: q.metrics.mean_response_ms().unwrap_or(f64::NAN),
        greedy_ms: g.metrics.mean_response_ms().unwrap_or(f64::NAN),
        normalized_greedy: g
            .metrics
            .normalized_response_vs(&q.metrics)
            .unwrap_or(f64::NAN),
        qant_unserved: q.metrics.unserved,
        greedy_unserved: g.metrics.unserved,
    }
}

/// One Figure-5a cell: the QA-NT/Greedy pair at load fraction `frac`
/// (0.05 Hz sinusoid).
pub fn fig5a_point(scenario: &Scenario, frac: f64, secs: u64) -> SweepPoint {
    let trace = two_class_trace(scenario, 0.05, frac, secs);
    sweep_point(scenario, &trace, frac)
}

/// Figure 5a: load sweep at 0.05 Hz, average workload 10–300 % of
/// capacity.
pub fn fig5a_load_sweep(config: &SimConfig, fractions: &[f64], secs: u64) -> Vec<SweepPoint> {
    let scenario = Scenario::two_class(config.clone(), TwoClassParams::default());
    fractions
        .iter()
        .map(|&f| fig5a_point(&scenario, f, secs))
        .collect()
}

/// One Figure-5b cell: the QA-NT/Greedy pair at sinusoid frequency
/// `freq_hz` (80 % average load).
pub fn fig5b_point(scenario: &Scenario, freq_hz: f64, secs: u64) -> SweepPoint {
    let trace = two_class_trace(scenario, freq_hz, 0.8, secs);
    sweep_point(scenario, &trace, freq_hz)
}

// ---------------------------------------------------------------- Fig. 5c

/// Figure 5c: Q1 arrivals vs Q1 queries executed per half-second, for
/// QA-NT and Greedy, near system capacity.
#[derive(Debug, Clone)]
pub struct Fig5cResult {
    /// Bin width (ms).
    pub period_ms: u64,
    /// Q1 arrivals per bin.
    pub arrivals_q1: Vec<u64>,
    /// Q1 completions per bin under QA-NT.
    pub executed_q1_qant: Vec<u64>,
    /// Q1 completions per bin under Greedy.
    pub executed_q1_greedy: Vec<u64>,
}

qa_simnet::impl_to_json!(Fig5cResult {
    period_ms,
    arrivals_q1,
    executed_q1_qant,
    executed_q1_greedy
});

/// The Figure-5c workload: 0.05 Hz sinusoid at 95 % of capacity.
pub fn fig5c_workload(config: &SimConfig, secs: u64) -> (Scenario, Trace) {
    let scenario = Scenario::two_class(config.clone(), TwoClassParams::default());
    let trace = two_class_trace(&scenario, 0.05, 0.95, secs);
    (scenario, trace)
}

/// Folds the QA-NT and Greedy outcomes of the Figure-5c trace into the
/// per-period tracking series.
pub fn fig5c_from_outcomes(
    config: &SimConfig,
    trace: &Trace,
    qant: &RunOutcome,
    greedy: &RunOutcome,
) -> Fig5cResult {
    Fig5cResult {
        period_ms: config.period.as_millis(),
        arrivals_q1: trace.arrivals_per_period(config.period, Some(ClassId(0))),
        executed_q1_qant: qant.metrics.executed_per_period_of(ClassId(0)).to_vec(),
        executed_q1_greedy: greedy.metrics.executed_per_period_of(ClassId(0)).to_vec(),
    }
}

/// Runs Figure 5c.
pub fn fig5c_tracking(config: &SimConfig, secs: u64) -> Fig5cResult {
    let (scenario, trace) = fig5c_workload(config, secs);
    let q = run_cell(&scenario, &trace, MechanismKind::QaNt);
    let g = run_cell(&scenario, &trace, MechanismKind::Greedy);
    fig5c_from_outcomes(config, &trace, &q, &g)
}

// ---------------------------------------------------------------- Fig. 6

/// The Figure-6 world: the Table-3 generator with the §5.1 threshold
/// engaged.
///
/// The zipf world has 100 classes whose execution times (≈2–8 s) dwarf
/// the 500 ms period, so per-period integer supply is fractional for
/// every class and strict admission control mostly adds quantization
/// friction. This is exactly the deployment the paper's §5.1 threshold
/// remark addresses ("track query prices but only use them ... if they
/// are above a specific threshold"), so the Fig. 6 runs use it.
pub fn fig6_scenario(config: &SimConfig) -> Scenario {
    let mut config = config.clone();
    config.qant.price_threshold = Some(2.0);
    config.qant.renormalize_prices = false; // incompatible with thresholds
    Scenario::table3(config)
}

/// One Figure-6 cell: zipf trace at minimum inter-arrival `gap_ms`,
/// truncated to roughly `max_queries` arrivals.
pub fn fig6_point(scenario: &Scenario, gap_ms: u64, max_queries: usize) -> SweepPoint {
    let process = ZipfProcess::paper(
        scenario.templates.num_classes(),
        qa_simnet::SimDuration::from_millis(gap_ms),
    );
    let mut rng = DetRng::seed_from_u64(scenario.config.seed).derive("zipf-trace");
    // Horizon sized to produce roughly `max_queries` arrivals.
    let horizon_s = (max_queries as f64 * process.mean_gap_secs()
        / scenario.templates.num_classes() as f64)
        .clamp(10.0, 3_600.0);
    let arrivals = process.generate(SimTime::from_secs_f64_pub(horizon_s), &mut rng);
    let mut arrivals = arrivals;
    arrivals.sort_by_key(|(t, c)| (*t, c.index()));
    arrivals.truncate(max_queries);
    let trace = Trace::from_arrivals(arrivals, scenario.config.num_nodes, &mut rng);
    sweep_point(scenario, &trace, gap_ms as f64)
}

/// Figure 6: zipf workload, Greedy normalized response vs per-class
/// *minimum* inter-arrival time (the paper's x-axis).
pub fn fig6_zipf_sweep(
    config: &SimConfig,
    min_inter_arrival_ms: &[u64],
    max_queries: usize,
) -> Vec<SweepPoint> {
    let scenario = fig6_scenario(config);
    min_inter_arrival_ms
        .iter()
        .map(|&gap_ms| fig6_point(&scenario, gap_ms, max_queries))
        .collect()
}

// ------------------------------------------------------------- fig_scale

/// One row of the scaling sweep: the QA-NT federation at `nodes` nodes on
/// the sharded engine at `shards` shards, whose brokers clear on the
/// parent market `mode`. `S = 1` is the flat engine exactly: one broker
/// has nowhere else to route. Timing fields are filled by the harness —
/// the simulation itself never reads a wall clock, so the timing-free
/// projection of a point is deterministic.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Federation size.
    pub nodes: u64,
    /// Shard count the engine used.
    pub shards: u64,
    /// The parent mechanism: `broker_qant` or `broker_walras`.
    pub mode: String,
    /// Arrivals in the trace.
    pub queries: u64,
    /// Period boundaries stepped.
    pub periods: u64,
    /// Completed queries.
    pub completed: u64,
    /// Unserved queries.
    pub unserved: u64,
    /// QA-NT resubmissions — each is a placement some node rejected.
    pub retries: u64,
    /// Mean response (ms).
    pub mean_response_ms: f64,
    /// First period whose mean |Δ ln p| fell below
    /// [`SCALE_CONVERGENCE_EPS`]; −1 when the run never settled.
    pub convergence_period: i64,
    /// Cross-tier signal messages (2 per shard per boundary: bids up,
    /// quotas and prices down).
    pub cross_messages: u64,
    /// Demand units the parent market escalated across windows.
    pub escalated_units: u64,
    /// Price-adjustment rounds the parent market spent (parent-local,
    /// not messages).
    pub parent_rounds: u64,
    /// Inter-shard allocation efficiency: completed placements per
    /// placement attempt, `completed / (completed + retries)`.
    pub alloc_efficiency: f64,
    /// Wall-clock seconds (harness-filled; 0 in determinism artifacts).
    pub elapsed_s: f64,
    /// Simulated periods per wall-clock second (harness-filled).
    pub periods_per_s: f64,
    /// Queries per wall-clock second (harness-filled).
    pub queries_per_s: f64,
}

qa_simnet::impl_to_json!(ScalePoint {
    nodes,
    shards,
    mode,
    queries,
    periods,
    completed,
    unserved,
    retries,
    mean_response_ms,
    convergence_period,
    cross_messages,
    escalated_units,
    parent_rounds,
    alloc_efficiency,
    elapsed_s,
    periods_per_s,
    queries_per_s
});

/// Price-settling threshold for the sweep's convergence-period column.
pub const SCALE_CONVERGENCE_EPS: f64 = 1e-2;

/// The scaling world: the two-class scenario at an arbitrary node count.
pub fn scale_world(nodes: usize, seed: u64) -> Scenario {
    Scenario::two_class(SimConfig::scaled(nodes, seed), TwoClassParams::default())
}

/// The scaling trace: 0.05 Hz sinusoid at 75 % of the (size-dependent)
/// system capacity, so per-node load is constant across sweep sizes.
pub fn scale_trace(scenario: &Scenario, secs: u64) -> Trace {
    two_class_trace(scenario, 0.05, 0.75, secs)
}

/// A scaling cell's trace length.
#[derive(Debug, Clone, Copy)]
pub enum ScaleHorizon {
    /// Simulated seconds.
    Secs(u64),
    /// Long enough for at least this many arrivals.
    Queries(u64),
}

/// One size of the scaling sweep: a world, its trace, and the rows run on
/// that trace as `(shards, parent)` pairs, so every row of a size is
/// like-for-like.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Federation size.
    pub nodes: usize,
    /// Trace length.
    pub horizon: ScaleHorizon,
    /// `(shards, parent)` per row, in table order.
    pub rows: Vec<(usize, BrokerConfig)>,
}

impl ScaleCell {
    /// The cell's world and trace (seed 2007).
    pub fn inputs(&self) -> (Scenario, Trace) {
        let scenario = scale_world(self.nodes, 2007);
        let secs = match self.horizon {
            ScaleHorizon::Secs(s) => s,
            ScaleHorizon::Queries(q) => horizon_for_queries(&scenario, q),
        };
        let trace = scale_trace(&scenario, secs);
        (scenario, trace)
    }
}

/// The cells of `fig_scale`: at every size a flat row (S = 1) and a
/// sharded row under each parent mechanism; `quick` is the CI shape.
/// Above 3 000 nodes the horizon is sized to ≥ 10 M queries, where the
/// parents part ways.
pub fn scale_cells(quick: bool) -> Vec<ScaleCell> {
    let cell = |nodes, shards, horizon| ScaleCell {
        nodes,
        horizon,
        rows: vec![
            (1, BrokerConfig::qant()),
            (shards, BrokerConfig::qant()),
            (shards, BrokerConfig::walras()),
        ],
    };
    use ScaleHorizon::{Queries, Secs};
    if quick {
        vec![cell(60, 4, Secs(10)), cell(200, 8, Secs(10))]
    } else {
        vec![
            cell(100, 8, Secs(60)),
            cell(300, 8, Secs(60)),
            cell(1_000, 16, Secs(120)),
            cell(3_000, 16, Secs(60)),
            cell(10_000, 32, Queries(10_000_000)),
        ]
    }
}

/// Seconds of sinusoid needed for at least `target` arrivals at this
/// world's offered load, derived from a probe trace spanning exactly two
/// full cycles of the 0.05 Hz waveform — whole cycles, or the probe would
/// catch only the crest and bias the rate estimate. The probe rate is
/// unbiased but discrete, so a 2 % pad makes `target` a floor rather
/// than a coin flip.
fn horizon_for_queries(scenario: &Scenario, target: u64) -> u64 {
    const PROBE_SECS: u64 = 40;
    let probe = scale_trace(scenario, PROBE_SECS);
    let qps = probe.len() as f64 / PROBE_SECS as f64;
    ((target as f64 * 1.02 / qps.max(1.0)).ceil() as u64).max(PROBE_SECS)
}

/// A parent mechanism's table/JSON label.
fn parent_label(parent: &BrokerConfig) -> &'static str {
    match parent.market.mechanism {
        ParentMechanism::QaNt => "broker_qant",
        ParentMechanism::Walras => "broker_walras",
    }
}

/// Runs one scaling row on `budget` shard workers and folds it into a
/// [`ScalePoint`] (timing fields zeroed — the harness stamps them).
/// `telemetry` receives the broker tier's events.
pub fn scale_point(
    scenario: &Scenario,
    trace: &Trace,
    shards: usize,
    parent: BrokerConfig,
    budget: usize,
    telemetry: Telemetry,
) -> ScalePoint {
    let options = ShardRunOptions {
        budget,
        broker: Some(parent),
        telemetry,
        ..ShardRunOptions::default()
    };
    let out = ShardPlan::build(scenario, shards).run_with_options(trace, &options);
    let m = &out.outcome.metrics;
    let attempts = m.completed + m.retries;
    ScalePoint {
        nodes: scenario.config.num_nodes as u64,
        shards: out.num_shards as u64,
        mode: parent_label(&parent).to_string(),
        queries: trace.len() as u64,
        periods: out.periods as u64,
        completed: m.completed,
        unserved: m.unserved,
        retries: m.retries,
        mean_response_ms: m.mean_response_ms().unwrap_or(f64::NAN),
        convergence_period: out
            .convergence_period(SCALE_CONVERGENCE_EPS)
            .map_or(-1, |p| p as i64),
        cross_messages: out.cross_messages,
        escalated_units: out.escalated_units,
        parent_rounds: out.parent_rounds,
        alloc_efficiency: if attempts > 0 {
            m.completed as f64 / attempts as f64
        } else {
            0.0
        },
        elapsed_s: 0.0,
        periods_per_s: 0.0,
        queries_per_s: 0.0,
    }
}

/// `SimTime` lacks a public fractional-seconds constructor; adapter trait
/// to keep the call site readable.
trait SimTimeExt {
    fn from_secs_f64_pub(s: f64) -> SimTime;
}

impl SimTimeExt for SimTime {
    fn from_secs_f64_pub(s: f64) -> SimTime {
        SimTime::from_micros((s.max(0.0) * 1e6) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::small_test(2007)
    }

    #[test]
    fn fig3_waveform_oscillates_with_phase_offset() {
        let r = fig3_sinusoid_workload(&cfg(), 0.05, 0.6, 40);
        assert_eq!(r.period_ms, 500);
        let max_q1 = *r.q1_per_period.iter().max().unwrap();
        let min_q1 = *r.q1_per_period.iter().min().unwrap();
        assert!(
            max_q1 >= 3 * (min_q1 + 1) / 2,
            "waveform too flat: {max_q1} vs {min_q1}"
        );
        // Total Q1 ≈ 2 × total Q2.
        let q1: u64 = r.q1_per_period.iter().sum();
        let q2: u64 = r.q2_per_period.iter().sum();
        let ratio = q1 as f64 / q2.max(1) as f64;
        // Expected 2.0; wide tolerance for a short, small-sample trace.
        assert!((1.3..3.0).contains(&ratio), "Q1/Q2 ratio {ratio}");
    }

    #[test]
    fn fig4_qant_first_and_normalized_to_one() {
        let r = fig4_all_algorithms(&cfg(), 20);
        assert_eq!(r.rows.len(), 6);
        assert_eq!(r.rows[0].mechanism, "QA-NT");
        assert!((r.rows[0].normalized_response - 1.0).abs() < 1e-9);
        // Load balancers should be slower than QA-NT near capacity.
        let random = r.rows.iter().find(|x| x.mechanism == "Random").unwrap();
        assert!(
            random.normalized_response > 1.0,
            "{}",
            random.normalized_response
        );
    }

    #[test]
    fn fig5a_sweep_produces_monotone_x() {
        let pts = fig5a_load_sweep(&cfg(), &[0.3, 1.0], 15);
        assert_eq!(pts.len(), 2);
        assert!(pts[0].x < pts[1].x);
        assert!(pts.iter().all(|p| p.qant_ms.is_finite()));
    }

    #[test]
    fn fig5c_series_cover_the_horizon() {
        let r = fig5c_tracking(&cfg(), 15);
        assert!(!r.arrivals_q1.is_empty());
        assert!(!r.executed_q1_qant.is_empty());
        let arr: u64 = r.arrivals_q1.iter().sum();
        let done: u64 = r.executed_q1_qant.iter().sum();
        assert!(done <= arr + 1);
        assert!(done > 0);
    }

    #[test]
    fn fig6_runs_at_small_scale() {
        let mut c = cfg();
        c.num_nodes = 20;
        let pts = fig6_zipf_sweep(&c, &[2_000, 10_000], 300);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.qant_ms.is_finite() && p.qant_ms > 0.0, "{p:?}");
        }
    }

    #[test]
    fn scale_rows_conserve_queries_and_report_their_parent() {
        let scenario = scale_world(20, 2007);
        let trace = scale_trace(&scenario, 10);
        for (shards, parent) in [
            (1, BrokerConfig::qant()),
            (4, BrokerConfig::qant()),
            (4, BrokerConfig::walras()),
        ] {
            let p = scale_point(&scenario, &trace, shards, parent, 1, Telemetry::disabled());
            let label = parent_label(&parent);
            assert_eq!((p.mode.as_str(), p.shards), (label, shards as u64));
            assert_eq!(
                p.completed + p.unserved,
                p.queries,
                "{label} S={shards}: every arrival completes or is unserved exactly once"
            );
            assert!(p.completed > 0, "{label} S={shards}: nothing ran");
            assert!(
                p.alloc_efficiency > 0.0 && p.alloc_efficiency <= 1.0,
                "{label} S={shards}: alloc_efficiency {}",
                p.alloc_efficiency
            );
            // Cross-tier traffic stays O(S): bids up, quotas/prices down.
            assert_eq!(p.cross_messages, 2 * p.shards * p.periods);
            assert!(
                p.parent_rounds > 0,
                "{label} S={shards}: parent never priced"
            );
            let json = qa_simnet::ToJson::to_json(&p).dump();
            assert!(json.contains(&format!("\"mode\":\"{label}\"")), "{json}");
        }
    }
}
