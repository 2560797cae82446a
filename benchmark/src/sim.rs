//! The three simulator workloads: `flat1k`, `paper100_overload` and
//! `broker10k`. One rep is one whole simulated run, called from outside
//! through the same public functions the figure bins use.

use crate::alloc;
use crate::fleet;
use crate::host::{self, ProcStat};
use crate::micro;
use crate::spans::Spans;
use crate::{hist_quantile, median, Outcome};
use qa_core::MechanismKind;
use qa_sim::config::BrokerConfig;
use qa_sim::experiments::{run_cell, scale_world, two_class_trace};
use qa_sim::federation::Federation;
use qa_sim::scenario::Scenario;
use qa_sim::sharded::{ShardPlan, ShardRunOptions};
use qa_simnet::telemetry::Telemetry;
use qa_workload::Trace;
use std::time::{Duration, Instant};

/// Sinusoid frequency of every sim workload (the paper's 0.05 Hz).
const FREQ_HZ: f64 = 0.05;

/// One simulator workload: the two-class world at `nodes` nodes under a
/// sinusoid at `frac` of capacity for `secs` simulated seconds, on the
/// flat engine or, with `shards`, on the broker market over shards.
pub struct SimSpec {
    pub name: &'static str,
    nodes: usize,
    frac: f64,
    secs: u64,
    shards: Option<usize>,
    /// Which comparison reps the traced run adds over this trace.
    compare: Compare,
}

enum Compare {
    None,
    /// Greedy (allocation without the market) and the sharded engine at
    /// S = 1 (the seam cost of collapsing to one engine).
    GreedyAndS1,
    /// The eager per-rejection path (telemetry on).
    Eager,
}

/// `fig_scale`'s operating point: the flat engine's O(N) sweeps dominate.
pub const FLAT1K: SimSpec = SimSpec {
    name: "flat1k",
    nodes: 1_000,
    frac: 0.75,
    secs: 100,
    shards: None,
    compare: Compare::GreedyAndS1,
};

/// Paper scale, 1.5× overloaded: refusal memo, deferred rejection replay
/// and price rises do the work (tens of retries per query), `allocate`
/// almost none.
pub const PAPER100_OVERLOAD: SimSpec = SimSpec {
    name: "paper100_overload",
    nodes: 100,
    frac: 1.5,
    secs: 150,
    shards: None,
    compare: Compare::Eager,
};

/// 32 shards under the QA-NT parent market. Load 0.5, not `fig_hier`'s
/// 0.75: there the backlog grows with the horizon and throughput would
/// depend on run length; at 0.5 the crest equals capacity.
pub const BROKER10K: SimSpec = SimSpec {
    name: "broker10k",
    nodes: 10_000,
    frac: 0.5,
    secs: 120,
    shards: Some(32),
    compare: Compare::None,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Fewest timed reps, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Longest idle pause after a timed rep.
const MAX_PAUSE: Duration = Duration::from_millis(500);

struct Inputs {
    world: Scenario,
    trace: Trace,
    plan: Option<ShardPlan>,
}

#[derive(Clone, Copy)]
struct SetupTimes {
    scenario_s: f64,
    trace_s: f64,
    plan_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.scenario_s + self.trace_s + self.plan_s
    }
}

/// What one rep reports. Reps of one run must agree on every field to the
/// last bit; a later PR that changes behaviour shows here as a diff.
#[derive(Debug, Clone, PartialEq)]
struct SimStats {
    queries: u64,
    completed: u64,
    unserved: u64,
    retries: u64,
    periods: u64,
    cross_messages: u64,
    parent_rounds: u64,
    response_ms_bits: u64,
    p50_ms_bits: u64,
    p90_ms_bits: u64,
}

impl SimStats {
    fn new(
        trace: &Trace,
        m: &qa_sim::metrics::RunMetrics,
        cross_messages: u64,
        parent_rounds: u64,
    ) -> SimStats {
        SimStats {
            queries: trace.len() as u64,
            completed: m.completed,
            unserved: m.unserved,
            retries: m.retries,
            periods: m.executed_per_period().len() as u64,
            cross_messages,
            parent_rounds,
            response_ms_bits: m.mean_response_ms().unwrap_or(f64::NAN).to_bits(),
            p50_ms_bits: hist_quantile(&m.response_hist, 0.5).to_bits(),
            p90_ms_bits: hist_quantile(&m.response_hist, 0.9).to_bits(),
        }
    }
}

fn build(spec: &SimSpec, secs: u64, seed: u64, spans: &mut Spans) -> (Inputs, SetupTimes) {
    let (world, scenario_s) = spans.scope("scenario.build", |_| scale_world(spec.nodes, seed));
    let (trace, trace_s) = spans.scope("workload.trace_gen", |_| {
        two_class_trace(&world, FREQ_HZ, spec.frac, secs)
    });
    let (plan, plan_s) = match spec.shards {
        Some(s) => {
            let (p, t) = spans.scope("sharded.plan_build", |_| ShardPlan::build(&world, s));
            (Some(p), t)
        }
        None => (None, 0.0),
    };
    (
        Inputs { world, trace, plan },
        SetupTimes {
            scenario_s,
            trace_s,
            plan_s,
        },
    )
}

fn run_once(inputs: &Inputs, threads: usize) -> SimStats {
    match &inputs.plan {
        None => {
            let out = run_cell(&inputs.world, &inputs.trace, MechanismKind::QaNt);
            SimStats::new(&inputs.trace, &out.metrics, 0, 0)
        }
        Some(plan) => {
            let options = ShardRunOptions {
                budget: threads,
                broker: Some(BrokerConfig::qant()),
                ..ShardRunOptions::default()
            };
            let out = plan.run_with_options(&inputs.trace, &options);
            SimStats::new(
                &inputs.trace,
                &out.outcome.metrics,
                out.cross_messages,
                out.parent_rounds,
            )
        }
    }
}

/// How much one run does.
struct Sizing {
    /// Simulated horizon of one rep.
    sim_secs: u64,
    setups: usize,
    min_reps: usize,
    /// Timed reps go on until this much wall time is spent.
    seconds: f64,
}

impl Sizing {
    fn new(spec: &SimSpec, quick: bool, setups: usize, min_reps: usize, seconds: f64) -> Sizing {
        Sizing {
            sim_secs: if quick {
                (spec.secs / 5).max(10)
            } else {
                spec.secs
            },
            setups,
            min_reps,
            seconds,
        }
    }
}

/// Fails the run when a rep disagrees with the first, or loses a query.
fn check(out: &mut Outcome, first: &SimStats, rep: &SimStats) {
    if rep != first {
        out.fail(format!("reps disagree: {first:?} vs {rep:?}"));
    }
    if rep.completed + rep.unserved != rep.queries {
        out.fail(format!(
            "conservation: completed {} + unserved {} != queries {}",
            rep.completed, rep.unserved, rep.queries
        ));
    }
}

/// Sets up `size.setups` times, then runs one warm-up rep and timed reps
/// until `size.seconds` are spent. Returns the inputs and times of the
/// median set-up, the reps' common stats and each timed rep's wall
/// seconds.
fn timed_reps(
    spec: &SimSpec,
    seed: u64,
    size: &Sizing,
    threads: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) -> (Inputs, SetupTimes, SimStats, Vec<f64>) {
    // Only the last set-up's inputs are kept; holding them all would
    // show up as peak RSS.
    let mut setups: Vec<SetupTimes> = (1..size.setups)
        .map(|_| {
            spans
                .scope("setup", |s| build(spec, size.sim_secs, seed, s).1)
                .0
        })
        .collect();
    let ((inputs, last), _) = spans.scope("setup", |s| build(spec, size.sim_secs, seed, s));
    setups.push(last);
    setups.sort_by(|a, b| a.total().total_cmp(&b.total()));
    let setup = setups[setups.len() / 2];

    let (first, _) = spans.scope("warmup_rep", |_| run_once(&inputs, threads));
    check(out, &first, &first);

    let budget = Duration::from_secs_f64(size.seconds);
    let mut walls = Vec::new();
    let started = Instant::now();
    let steal0 = host::host_ticks();
    // Measure up to twice as long while the hypervisor is taking more of
    // the host than `STEAL_LIMIT`: such stretches read a quarter slower.
    let disturbed = |elapsed: Duration| {
        elapsed < 2 * budget && host::steal_share_since(steal0) > host::STEAL_LIMIT
    };
    while walls.len() < size.min_reps || started.elapsed() < budget || disturbed(started.elapsed())
    {
        let (rep, wall) = spans.scope("rep", |_| run_once(&inputs, threads));
        check(out, &first, &rep);
        walls.push(wall);
        // The shared hosts this runs on slow a vCPU that stays busy: reps
        // run back to back were a quarter slower, and their fastest
        // moved three times as much from run to run, as reps with a pause
        // between them. So idle as long as the rep took.
        std::thread::sleep(Duration::from_secs_f64(wall).min(MAX_PAUSE));
    }
    out.attempted = first.queries * walls.len() as u64;
    out.failed = first.unserved * walls.len() as u64;
    (inputs, setup, first, walls)
}

fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The untraced run: every end-to-end metric.
pub fn run(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    quick: bool,
    threads: usize,
) -> (Outcome, Spans) {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let size = if quick {
        Sizing::new(spec, true, 2, 2, 0.0)
    } else {
        Sizing::new(spec, false, SETUPS, MIN_REPS, seconds)
    };
    let (_inputs, setup, stats, walls) =
        timed_reps(spec, seed, &size, threads, &mut spans, &mut out);
    let queries = stats.queries as f64;
    // Every rep does byte-identical work and host noise only ever adds
    // time, so the fastest rep is the repeatable estimate of the wall.
    let fastest = fastest(&walls);
    out.set("setup_s", setup.total());
    out.set("queries_per_s", queries / fastest);
    out.set("peak_rss_mb", host::peak_rss_mb(None));
    out.set("response_ms", f64::from_bits(stats.response_ms_bits));
    out.set("response_ms_p50", f64::from_bits(stats.p50_ms_bits));
    out.set("response_ms_p90", f64::from_bits(stats.p90_ms_bits));
    out.note(format!(
        "{} reps, wall median {:.4}s fastest {:.4}s",
        walls.len(),
        median(&walls),
        fastest
    ));
    (out, spans)
}

/// The traced run: one counted rep, the comparison runs that isolate a
/// layer, the unit-cost probes, and the modelled shares built from them.
pub fn run_traced(spec: &SimSpec, seed: u64, quick: bool, threads: usize) -> (Outcome, Spans) {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    // Two untraced reps (after the warm-up) are the base the traced rep's
    // overhead is measured against.
    let size = Sizing::new(spec, quick, 3, 2, 0.0);
    let (inputs, setup, stats, walls) =
        timed_reps(spec, seed, &size, threads, &mut spans, &mut out);
    let untraced = fastest(&walls);

    let steal0 = host::host_ticks();
    let cpu0 = ProcStat::of(None);
    let ((rep, run_s), calls, bytes) =
        alloc::counted(|| spans.scope("traced_rep", |_| run_once(&inputs, threads)));
    let cpu = ProcStat::of(None).since(&cpu0);
    check(&mut out, &stats, &rep);
    out.set("host.steal_share", host::steal_share_since(steal0));

    let queries = stats.queries as f64;
    out.set("scenario.build_s", setup.scenario_s);
    out.set("workload.trace_gen_s", setup.trace_s);
    out.set("sharded.plan_build_s", setup.plan_s);
    out.set("federation.period_us", run_s * 1e6 / stats.periods as f64);
    out.set("federation.query_ns", run_s * 1e9 / queries);
    out.set(
        "federation.retries_per_query",
        stats.retries as f64 / queries,
    );
    out.set("proc.cpu_us_per_query", cpu.own_cpu_s() * 1e6 / queries);
    out.set("proc.user_s", cpu.user_s);
    out.set("proc.sys_s", cpu.sys_s);
    out.set("proc.minor_faults", cpu.minor_faults as f64);
    out.set("alloc.calls_per_query", calls as f64 / queries);
    out.set("alloc.bytes_per_query", bytes as f64 / queries);
    out.set("trace.overhead_share", run_s / untraced - 1.0);
    out.set("sim.completed", stats.completed as f64);
    out.set("sim.unserved", stats.unserved as f64);
    out.set("sim.retries", stats.retries as f64);
    out.set("sim.periods", stats.periods as f64);
    out.set("sim.cross_messages", stats.cross_messages as f64);
    out.set("sim.parent_rounds", stats.parent_rounds as f64);

    match spec.compare {
        Compare::None => {}
        Compare::GreedyAndS1 => {
            compare_greedy_and_s1(&inputs, &stats, run_s, threads, &mut spans, &mut out)
        }
        Compare::Eager => compare_eager(&inputs, &stats, run_s, &mut spans, &mut out),
    }

    // Unit costs x exact counts: a *modelled* split of the opaque run.
    // What it leaves unexplained is mostly `allocate`'s candidate sweeps,
    // which no public call isolates.
    let unit = micro::run_all(&mut out, threads, &fleet::config(seed, 0));
    let node_periods = spec.nodes as f64 * stats.periods as f64;
    let events = (stats.completed + stats.retries + stats.periods) as f64;
    // The broker run spreads its shards over `threads` workers.
    let worker_ns = run_s
        * 1e9
        * if spec.shards.is_some() {
            threads as f64
        } else {
            1.0
        };
    let mut explained = 0.0;
    for (name, ns) in [
        (
            "share.qant_begin_period",
            unit.begin_period_ns * node_periods,
        ),
        ("share.pricer_period_end", unit.period_end_ns * node_periods),
        ("share.event_queue", unit.schedule_pop_ns * events),
    ] {
        explained += ns / worker_ns;
        out.set(name, ns / worker_ns);
    }
    out.set("share.unexplained", 1.0 - explained);
    (out, spans)
}

/// The same trace under Greedy, and through `ShardPlan` at one shard.
fn compare_greedy_and_s1(
    inputs: &Inputs,
    stats: &SimStats,
    run_s: f64,
    threads: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let (_, greedy_s) = spans.scope("greedy_rep", |_| {
        run_cell(&inputs.world, &inputs.trace, MechanismKind::Greedy)
    });
    out.set(
        "federation.greedy_query_ns",
        greedy_s * 1e9 / stats.queries as f64,
    );

    let plan = ShardPlan::build(&inputs.world, 1);
    let (s1, s1_s) = spans.scope("sharded_s1_rep", |_| {
        plan.run_with_budget(&inputs.trace, threads)
    });
    if s1.outcome.metrics.completed != stats.completed {
        out.fail("S=1 sharded run completed a different count than flat".to_string());
    }
    out.set("sharded.s1_over_flat", s1_s / run_s);
}

/// The same trace with telemetry on. That flips the engine to the eager
/// per-rejection path and disables intra-period fan-out, so the ratio is
/// the cost of that fork, and the engine's own `Span` sites (harvested
/// from the registry) are eager-path numbers.
fn compare_eager(
    inputs: &Inputs,
    stats: &SimStats,
    run_s: f64,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let telemetry = Telemetry::metrics_only();
    let (eager, eager_s) = spans.scope("eager_rep", |_| {
        Federation::with_telemetry(
            &inputs.world,
            MechanismKind::QaNt,
            &inputs.trace,
            telemetry.clone(),
        )
        .run(&inputs.trace)
    });
    if eager.metrics.completed != stats.completed {
        out.fail("eager run completed a different count than deferred".to_string());
    }
    out.set("federation.eager_over_deferred", eager_s / run_s);
    let registry = telemetry.registry().expect("metrics_only has a registry");
    for (metric, span) in [
        ("eager.allocate_share", "federation.allocate"),
        ("eager.period_update_share", "federation.period_update"),
        ("eager.supply_solve_share", "qant.supply_solve"),
        ("eager.price_update_share", "qant.price_update"),
    ] {
        let w = registry.welford(&format!("span.{span}_us")).snapshot();
        let total_s = w.count() as f64 * w.mean().unwrap_or(0.0) / 1e6;
        out.set(metric, total_s / eager_s);
    }
}
