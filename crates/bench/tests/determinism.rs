//! The parallel-sweep determinism contract: fanning sweep cells over any
//! number of worker threads must leave the serialized results
//! **byte-identical** to the serial loop, which is budget 1
//! (`par_map_indexed_with(1, …)` runs every cell inline).
//!
//! The figure test compares each committed row's text and files as
//! written to `bench_results/`, so equality here is equality of the
//! shipped artifacts. Thread budgets are passed
//! explicitly — not through the `QA_THREADS` env var — because the test
//! harness runs tests concurrently and env mutation would race.
//!
//! The rest pin bytes from commit to commit instead: the
//! `fig_scale` row's quick sweep, against
//! `goldens/fig_scale_quick_determinism.json`;
//! every way a query is resubmitted, against
//! `goldens/retry_paths_determinism.json`; every seller's prices,
//! supply and carry between periods, against
//! `goldens/market_state_determinism.json`; and the metrics of a
//! many-class world on both QA-NT selection paths, against a digest.

use qa_bench::{Scale, FIGURES};
use qa_core::MechanismKind;
use qa_sim::config::{BrokerConfig, SimConfig};
use qa_sim::experiments::{run_cell, scale_trace, scale_world, two_class_trace};
use qa_sim::federation::Federation;
use qa_sim::scenario::Scenario;
use qa_sim::sharded::{ShardPlan, ShardRunOptions};
use qa_simnet::json::Json;
use qa_simnet::telemetry::Telemetry;
use qa_simnet::{json_obj, DetRng, FaultPlan, LinkFaults, SimTime};
use qa_workload::{ClassId, NodeId, Trace};

const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn every_committed_figure_is_identical_across_thread_budgets() {
    // Each committed row at CI scale: its text and its files, byte for
    // byte, whichever worker ran which cell.
    for fig in FIGURES.iter().filter(|f| f.committed) {
        let render = |threads| {
            let report = (fig.run)(Scale::Ci, threads);
            (report.text, report.files)
        };
        let reference = render(THREADS[0]);
        for threads in &THREADS[1..] {
            assert!(
                render(*threads) == reference,
                "{} diverged at {threads} threads",
                fig.name
            );
        }
    }
}

#[test]
fn single_shard_is_the_flat_engine_under_either_parent() {
    // The S = 1 contract: the sharded window loop must replay the flat
    // event loop exactly — same sellers, same event order, same
    // Debug-formatted outcome — and a one-broker parent, whatever its
    // mechanism, has nowhere else to route. An overloaded world makes the
    // parent escalate.
    let overloaded = {
        let mut config = SimConfig::small_test(5);
        config.num_nodes = 30;
        let scenario = Scenario::two_class(config);
        let trace = two_class_trace(&scenario, 0.05, 1.5, 10);
        (scenario, trace)
    };
    let scaled = [(60, 2007), (200, 11)].map(|(nodes, seed)| {
        let scenario = scale_world(nodes, seed);
        let trace = scale_trace(&scenario, 10);
        (scenario, trace)
    });
    for (scenario, trace) in scaled.iter().chain([&overloaded]) {
        let flat = format!("{:?}", run_cell(scenario, trace, MechanismKind::QaNt));
        let plan = ShardPlan::build(scenario, 1);
        for parent in [BrokerConfig::qant(), BrokerConfig::walras()] {
            for budget in [1, 8] {
                let options = ShardRunOptions {
                    budget,
                    broker: Some(parent),
                    ..ShardRunOptions::default()
                };
                let out = plan.run_with_options(trace, &options);
                assert_eq!(
                    format!("{:?}", out.outcome),
                    flat,
                    "{} nodes, {parent:?}, budget {budget}",
                    scenario.config.num_nodes
                );
            }
        }
    }
}

#[test]
fn sharded_scale_points_are_identical_across_thread_budgets() {
    // The fig_scale determinism artifact: the timing-free point of any
    // (size, shards) cell must serialize identically at any total thread
    // budget. `ShardPlan::run_with_budget` pins the budget explicitly —
    // env mutation would race the concurrent test harness.
    let scenario = scale_world(60, 2007);
    let trace = scale_trace(&scenario, 10);
    for shards in [1, 4] {
        let plan = ShardPlan::build(&scenario, shards);
        let reference = {
            let out = plan.run_with_budget(&trace, 1);
            (format!("{:?}", out.outcome), out.signal_history)
        };
        for budget in [2, 8] {
            let out = plan.run_with_budget(&trace, budget);
            assert_eq!(
                (format!("{:?}", out.outcome), out.signal_history),
                reference,
                "sharded S={shards} diverged at budget {budget}"
            );
        }
    }
}

#[test]
fn fig_scale_quick_matches_the_checked_in_golden() {
    // The `fig_scale` row at CI scale, its timing-free determinism artifact
    // at two shard-worker budgets. The sweep runs with telemetry off, so
    // this is the golden that pins the pure-market path (offer index,
    // boundary rejection replay) that the repo benchmark times.
    let row = qa_bench::figure("fig_scale").expect("fig_scale is a row");
    let artifact = |budget: usize| -> String {
        let files = (row.run)(Scale::Ci, budget).files;
        let file = files
            .into_iter()
            .find(|(name, _)| name == "fig_scale_determinism.json");
        file.expect("fig_scale writes its determinism artifact").1
    };
    let fresh = artifact(1);
    assert_eq!(artifact(8), fresh, "the sweep diverged at budget 8");
    assert_matches_golden("fig_scale_quick_determinism.json", &fresh);
}

#[test]
fn shard_steps_and_their_signal_reports_are_identical_across_thread_budgets() {
    // The shard step is the engine's one parallel layer, and the worker
    // that steps a shard also writes its boundary report. 96 nodes make
    // the one-shard boundary span two blocks. The broker trace carries
    // every report (each bid is a shard's supply and ln-price), so its
    // bytes, the outcome and the convergence series must not depend on
    // which worker wrote what.
    let mut config = SimConfig::small_test(2007);
    config.num_nodes = 96;
    let scenario = Scenario::two_class(config);
    let trace = two_class_trace(&scenario, 0.05, 0.8, 6);
    for shards in [1, 4] {
        let plan = ShardPlan::build(&scenario, shards);
        let run = |budget: usize, broker: Option<BrokerConfig>| {
            let (telemetry, buffer) = Telemetry::buffered();
            let out = plan.run_with_options(
                &trace,
                &ShardRunOptions {
                    budget,
                    broker,
                    telemetry,
                    ..ShardRunOptions::default()
                },
            );
            (
                format!("{:?}", out.outcome),
                out.signal_history,
                buffer.to_jsonl(),
            )
        };
        // `None` is the default QA-NT parent: every sharded run bids.
        for broker in [None, Some(BrokerConfig::walras())] {
            let reference = run(1, broker);
            assert!(!reference.2.is_empty(), "S={shards} {broker:?}: no bids");
            for budget in [2, 8] {
                assert!(
                    run(budget, broker) == reference,
                    "S={shards} {broker:?} diverged at budget {budget}"
                );
            }
        }
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
    let hash = bytes.into_iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The hash of a run's whole `Debug` rendering (floats print round-trip
/// exact): the per-period, per-class and per-origin series included.
fn debug_fnv1a(m: &qa_sim::metrics::RunMetrics) -> String {
    fnv1a(format!("{m:?}").bytes())
}

/// One `goldens/retry_paths_determinism.json` row: the counters and
/// distributions a retry can move, in full, and the `Debug` hash, which
/// pins the rest.
fn retry_row(case: String, m: &qa_sim::metrics::RunMetrics) -> Json {
    json_obj! {
        "case": case,
        "completed": m.completed,
        "unserved": m.unserved,
        "retries": m.retries,
        "messages": m.messages,
        "lost_messages": m.lost_messages,
        "response": m.response,
        "response_hist": m.response_hist,
        "assign_latency": m.assign_latency,
        "chosen_exec_ms": m.chosen_exec_ms,
        "chosen_backlog_ms": m.chosen_backlog_ms,
        "debug_fnv1a": debug_fnv1a(m),
    }
}

/// The ways the golden tests perturb a run before it starts.
fn clean(_: &mut Federation) {}
fn lossy(f: &mut Federation) {
    f.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(0.1)));
}
fn crash(f: &mut Federation) {
    for n in 0..3 {
        f.kill_node_at(NodeId(n), SimTime::from_millis(2_250));
        f.recover_node_at(NodeId(n), SimTime::from_millis(6_100));
    }
}

/// `scenario`'s world with the §5.1 threshold on (and so renormalization
/// off): every candidate is polled.
fn with_threshold(scenario: &Scenario, build: fn(SimConfig) -> Scenario) -> Scenario {
    let mut config = scenario.config.clone();
    config.qant.price_threshold = Some(2.0);
    config.qant.renormalize_prices = false;
    build(config)
}

/// Fails unless `goldens/<name>` holds exactly `fresh`, leaving the fresh
/// rendering where the figures leave theirs. There is no bless switch.
fn assert_matches_golden(name: &str, fresh: &str) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let golden = format!("{root}/goldens/{name}");
    if std::fs::read_to_string(&golden).ok().as_deref() != Some(fresh) {
        let artifact = format!("{root}/bench_results/{name}");
        std::fs::create_dir_all(format!("{root}/bench_results")).expect("bench_results/");
        std::fs::write(&artifact, fresh).expect("write the artifact");
        panic!(
            "diverged from {golden}: diff it against {artifact}, and copy that \
             over the golden only with an intended behaviour change"
        );
    }
}

#[test]
fn retry_paths_match_the_checked_in_golden() {
    // Every way a query comes to be resubmitted, pinned byte for byte from
    // commit to commit: refused by a dry market (offer index, and the
    // eager poll loop under a §5.1 threshold), lost to a lossy link (three
    // mechanisms; BNQRD's coordinator is the state a same-microsecond
    // completion/retry swap would show in), orphaned by a crash, and
    // parked across the sharded engine's window steps and its drain. The
    // golden was generated before retries left the event queue.
    let mut rows = Vec::new();
    for (nodes, seed) in [(20, 5), (100, 6)] {
        for load in [0.75, 1.5] {
            let scenario = scale_world(nodes, seed);
            let threshold = with_threshold(&scenario, two_class);
            let trace = two_class_trace(&scenario, 0.05, load, 12);
            type Arm<'a> = (&'a str, &'a Scenario, MechanismKind, fn(&mut Federation));
            let arms: [Arm; 6] = [
                ("qant_index", &scenario, MechanismKind::QaNt, clean),
                ("qant_threshold", &threshold, MechanismKind::QaNt, clean),
                ("qant_lossy", &scenario, MechanismKind::QaNt, lossy),
                ("greedy_lossy", &scenario, MechanismKind::Greedy, lossy),
                ("bnqrd_lossy", &scenario, MechanismKind::Bnqrd, lossy),
                ("qant_kill_recover", &scenario, MechanismKind::QaNt, crash),
            ];
            for (name, world, mechanism, arm) in arms {
                let mut f = Federation::new(world, mechanism, &trace);
                arm(&mut f);
                let out = f.run(&trace);
                assert_eq!(
                    out.metrics.completed + out.metrics.unserved,
                    trace.len() as u64
                );
                let case = format!("{name} nodes={nodes} seed={seed} load={load}");
                rows.push(retry_row(case, &out.metrics));
            }
        }
    }
    let scenario = scale_world(96, 7);
    let trace = two_class_trace(&scenario, 0.05, 1.5, 12);
    let options = ShardRunOptions {
        budget: 1,
        broker: Some(BrokerConfig::qant()),
        ..ShardRunOptions::default()
    };
    let out = ShardPlan::build(&scenario, 4).run_with_options(&trace, &options);
    assert!(
        out.outcome.metrics.retries > 0,
        "the broker run parks nobody"
    );
    let case = "broker_qant shards=4 nodes=96 seed=7 load=1.5".to_string();
    rows.push(retry_row(case, &out.outcome.metrics));

    assert_matches_golden("retry_paths_determinism.json", &Json::Arr(rows).pretty());
}

fn two_class(config: SimConfig) -> Scenario {
    Scenario::two_class(config)
}

/// Uniform class mix, exponential gaps, at `load` × the world's capacity.
fn uniform_mix_trace(s: &Scenario, load: f64, secs: f64) -> Trace {
    let k = s.templates.num_classes();
    let rate = load * s.capacity_qps(&vec![1.0 / k as f64; k]);
    let mut rng = DetRng::seed_from_u64(s.config.seed).derive("uniform-mix-trace");
    let (mut arrivals, mut at) = (Vec::new(), 0.0);
    while at < secs {
        let class = ClassId(rng.index(k) as u32);
        arrivals.push((SimTime::from_micros((at * 1e6) as u64), class));
        at -= (1.0 - rng.unit()).ln() / rate;
    }
    Trace::from_arrivals(arrivals, s.config.num_nodes, &mut rng)
}

#[test]
fn market_state_matches_the_checked_in_golden() {
    // The sellers' whole state — log-price quanta, remaining supply,
    // carry bits — after the first, second, tenth and last period
    // boundary of runs on both QA-NT selection paths (the offer index;
    // the poll loop under a §5.1 threshold, lossy links and a crash) and
    // a §4 partial deployment, over K = 2 and K = 100. The supply and
    // carry hashes were generated by the engine that kept one `QantNode`
    // struct per seller, before the sellers moved into one column block:
    // since then both paths run on the same storage and cannot vouch for
    // each other. The price hashes were regenerated when prices became
    // integer log-prices; every other field of the file stayed.
    fn partial(f: &mut Federation) {
        f.restrict_market_to(|n| n.index() % 3 != 0);
    }
    type World = (String, Scenario, fn(SimConfig) -> Scenario, Trace);
    let mut worlds: Vec<World> = Vec::new();
    for (nodes, seed) in [(20, 5), (100, 6)] {
        for load in [0.75, 1.5] {
            let scenario = scale_world(nodes, seed);
            let trace = two_class_trace(&scenario, 0.05, load, 12);
            let name = format!("two_class nodes={nodes} seed={seed} load={load}");
            worlds.push((name, scenario, two_class, trace));
        }
    }
    let scenario = Scenario::table3(SimConfig::scaled(30, 8));
    let trace = uniform_mix_trace(&scenario, 1.2, 12.0);
    let name = "table3 nodes=30 seed=8 load=1.2".to_string();
    worlds.push((name, scenario, Scenario::table3, trace));

    let mut rows = Vec::new();
    for (world, scenario, build, trace) in &worlds {
        let threshold = with_threshold(scenario, *build);
        type Arm<'a> = (&'a str, &'a Scenario, fn(&mut Federation));
        let arms: [Arm; 5] = [
            ("index", scenario, clean),
            ("threshold", &threshold, clean),
            ("lossy", scenario, lossy),
            ("kill_recover", scenario, crash),
            ("partial", scenario, partial),
        ];
        for (arm, scenario, perturb) in arms {
            let mut f = Federation::new(scenario, MechanismKind::QaNt, trace);
            perturb(&mut f);
            let nodes = scenario.config.num_nodes as u32;
            // A period at a time — the same events in the same order as
            // `run` — reading the market after each boundary's events.
            f.push_arrivals(trace.events(), false);
            f.begin_run();
            let (mut states, mut boundary) = (Vec::new(), SimTime::ZERO);
            while f.peek_next_time().is_some() {
                boundary += scenario.config.qant.period;
                f.step_through(boundary);
                // One hash per column over every node, in node order; a
                // node outside the market contributes a lone marker byte.
                let mut columns: [Vec<u8>; 3] = Default::default();
                for row in (0..nodes).map(|n| f.market_row(NodeId(n))) {
                    let Some((prices, supply, carry)) = row else {
                        columns.iter_mut().for_each(|c| c.push(0xFF));
                        continue;
                    };
                    columns[0].extend(prices.iter().flat_map(|q| q.to_le_bytes()));
                    columns[1].extend(supply.iter().flat_map(|s| s.to_le_bytes()));
                    columns[2].extend(carry.iter().flat_map(|c| c.to_bits().to_le_bytes()));
                }
                let [prices, supply, carry] = columns.map(fnv1a);
                states.push(json_obj! {
                    "after_boundary": states.len() as u64 + 1,
                    "prices_fnv1a": prices,
                    "supply_fnv1a": supply,
                    "carry_fnv1a": carry,
                });
            }
            let out = f.finish();
            assert!(states.len() > 10, "{world} {arm}: a run of few periods");
            let last = states.len() - 1;
            let kept: Vec<Json> = [0, 1, 9, last].map(|b| states[b].clone()).to_vec();
            rows.push(json_obj! {
                "case": format!("{arm} {world}"),
                "retries": out.metrics.retries,
                "debug_fnv1a": debug_fnv1a(&out.metrics),
                "market": Json::Arr(kept),
            });
        }
    }
    assert_matches_golden("market_state_determinism.json", &Json::Arr(rows).pretty());
}

#[test]
fn many_class_wait_order_is_pinned() {
    // A Table-3 world (K = 100) at 1.5 × its capacity: many classes run
    // dry and wait at once, so a wake interleaves the refused queries of
    // many classes. Both QA-NT selection paths must keep the order the
    // single FIFO wait list gave them; the digests were taken from that
    // list, on both paths, and re-taken on both when the sellers' demand
    // caps were deleted.
    let scenario = Scenario::table3(SimConfig::scaled(60, 9));
    let trace = uniform_mix_trace(&scenario, 1.5, 30.0);
    let indexed = Federation::new(&scenario, MechanismKind::QaNt, &trace).run(&trace);
    let polled = Federation::with_telemetry(
        &scenario,
        MechanismKind::QaNt,
        &trace,
        Telemetry::metrics_only(),
    )
    .run(&trace);
    assert!(indexed.wait.turned > 0 && indexed.wait.runs > indexed.wait.wakes);
    assert_eq!(polled.wait.turned, 0);
    assert_eq!(
        [&indexed, &polled].map(|out| debug_fnv1a(&out.metrics)),
        ["2f2dbb0f66e6b318"; 2]
    );
}
