//! The workloads the figures, the examples and the repo benchmark share:
//! the two-class sinusoid trace of §5.1, its scaled worlds, and the one
//! `(scenario, trace, mechanism)` run every sweep fans out. Each figure's
//! own parameters live in its `qa-bench` row.

use crate::config::SimConfig;
use crate::federation::{Federation, RunOutcome};
use crate::scenario::Scenario;
use qa_core::MechanismKind;
use qa_simnet::{DetRng, SimTime};
use qa_workload::arrival::{ArrivalProcess, SinusoidProcess};
use qa_workload::Trace;

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
/// peak is solved from the requested average. Thinning emits each class's
/// arrivals in time order, so the two streams are merged, not sorted.
pub fn two_class_trace(scenario: &Scenario, freq_hz: f64, frac: f64, secs: u64) -> Trace {
    let capacity = scenario.capacity_qps(&TWO_CLASS_MIX);
    let peak_q1 = frac * capacity / 0.75;
    let (p1, p2) = SinusoidProcess::paper_pair(freq_hz, peak_q1);
    let mut rng = DetRng::seed_from_u64(scenario.config.seed).derive("two-class-trace");
    let horizon = SimTime::from_secs(secs);
    let q1 = p1.generate(horizon, &mut rng);
    let q2 = p2.generate(horizon, &mut rng);
    Trace::merge_arrivals(&q1, &q2, scenario.config.num_nodes, &mut rng)
}

/// The scaling world: the two-class scenario at an arbitrary node count.
pub fn scale_world(nodes: usize, seed: u64) -> Scenario {
    Scenario::two_class(SimConfig::scaled(nodes, seed))
}

/// The scaling trace: 0.05 Hz sinusoid at 75 % of the (size-dependent)
/// system capacity, so per-node load is constant across sweep sizes.
pub fn scale_trace(scenario: &Scenario, secs: u64) -> Trace {
    two_class_trace(scenario, 0.05, 0.75, secs)
}
