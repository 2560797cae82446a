//! End-to-end simulator checks: determinism, conservation, and the
//! qualitative shape of the paper's figures at test scale.

use query_markets::core::MechanismKind;
use query_markets::prelude::*;

fn scenario(nodes: usize, seed: u64) -> Scenario {
    let mut config = SimConfig::small_test(seed);
    config.num_nodes = nodes;
    Scenario::two_class(config)
}

#[test]
fn every_query_is_accounted_for() {
    let s = scenario(15, 3);
    let trace = two_class_trace(&s, 0.05, 1.0, 25);
    for m in MechanismKind::DYNAMIC {
        let out = Federation::new(&s, m, &trace).run(&trace);
        assert_eq!(
            out.metrics.completed + out.metrics.unserved,
            trace.len() as u64,
            "{m}: conservation violated"
        );
    }
}

#[test]
fn identical_seeds_identical_results() {
    let s = scenario(12, 9);
    let trace = two_class_trace(&s, 0.05, 0.7, 20);
    for m in [
        MechanismKind::QaNt,
        MechanismKind::TwoProbes,
        MechanismKind::Random,
    ] {
        let a = Federation::new(&s, m, &trace).run(&trace);
        let b = Federation::new(&s, m, &trace).run(&trace);
        assert_eq!(
            a.metrics.mean_response_ms(),
            b.metrics.mean_response_ms(),
            "{m}"
        );
        assert_eq!(a.metrics.messages, b.metrics.messages, "{m}");
        assert_eq!(
            a.metrics.executed_per_period(),
            b.metrics.executed_per_period(),
            "{m}"
        );
    }
}

#[test]
fn different_seeds_different_worlds() {
    let a = scenario(12, 1);
    let b = scenario(12, 2);
    assert_ne!(a.exec_times_ms, b.exec_times_ms);
}

#[test]
fn fig4_shape_load_balancers_lose() {
    // Fig. 4's workload: a 0.05 Hz sinusoid peaking at ~95 % of capacity.
    let s = Scenario::two_class(SimConfig::small_test(2007));
    let trace = two_class_trace(&s, 0.05, 0.95 * 0.75, 25);
    let qant_run = Federation::new(&s, MechanismKind::QaNt, &trace).run(&trace);
    let normalized = |m: MechanismKind| {
        let out = Federation::new(&s, m, &trace).run(&trace);
        let r = out.metrics.normalized_response_vs(&qant_run.metrics);
        r.unwrap_or(f64::NAN)
    };
    // The paper's ordering: QA-NT and Greedy "substantially better than
    // the load balancing ones"; random/round-robin worst.
    let qant = normalized(MechanismKind::QaNt);
    let greedy = normalized(MechanismKind::Greedy);
    let random = normalized(MechanismKind::Random);
    let rr = normalized(MechanismKind::RoundRobin);
    assert!((qant - 1.0).abs() < 1e-9);
    assert!(greedy < 1.5, "greedy competitive, got {greedy}");
    assert!(random > 1.5, "random should lose clearly, got {random}");
    assert!(rr > 1.5, "round-robin should lose clearly, got {rr}");
}

#[test]
fn fig3_is_periodic_and_phase_shifted() {
    let config = SimConfig::small_test(2007);
    let trace = two_class_trace(&Scenario::two_class(config.clone()), 0.05, 0.8, 40);
    let [q1_per_period, q2_per_period] =
        [ClassId(0), ClassId(1)].map(|c| trace.arrivals_per_period(config.qant.period, Some(c)));
    // Peaks of Q1 and troughs of Q1 differ strongly over a 20 s cycle.
    let max = *q1_per_period.iter().max().unwrap();
    let min = *q1_per_period.iter().min().unwrap();
    assert!(max >= min + 3, "waveform too flat: {max} vs {min}");
    // Q2 exists and is smaller in total.
    let q1: u64 = q1_per_period.iter().sum();
    let q2: u64 = q2_per_period.iter().sum();
    assert!(q1 > q2);
}

#[test]
fn fig5c_execution_tracks_arrivals_within_capacity() {
    // Fig. 5c's workload: a 0.05 Hz sinusoid at 95 % of capacity.
    let config = SimConfig::small_test(2007);
    let s = Scenario::two_class(config.clone());
    let trace = two_class_trace(&s, 0.05, 0.95, 20);
    let q1_executed = |m| {
        let out = Federation::new(&s, m, &trace).run(&trace);
        out.metrics
            .executed_per_period_of(ClassId(0))
            .iter()
            .sum::<u64>()
    };
    let arrived: u64 = trace
        .arrivals_per_period(config.qant.period, Some(ClassId(0)))
        .iter()
        .sum();
    let qant = q1_executed(MechanismKind::QaNt);
    let greedy = q1_executed(MechanismKind::Greedy);
    assert!(qant <= arrived && greedy <= arrived);
    assert!(qant > 0 && greedy > 0);
}

#[test]
fn markov_handles_static_workload_well() {
    // On a *static* (constant-rate) workload the Markov allocator should
    // be competitive with Greedy — the Table-2 "Excellent (static)" row.
    let s = scenario(15, 5);
    // Constant-rate arrivals: use a high-frequency sinusoid whose period
    // is far below the averaging horizon, at moderate load.
    let trace = two_class_trace(&s, 2.0, 0.6, 30);
    let markov = Federation::new(&s, MechanismKind::Markov, &trace).run(&trace);
    let random = Federation::new(&s, MechanismKind::Random, &trace).run(&trace);
    let m = markov.metrics.mean_response_ms().unwrap();
    let r = random.metrics.mean_response_ms().unwrap();
    assert!(
        m < r,
        "markov ({m:.0}ms) should beat random ({r:.0}ms) on a static load"
    );
}

#[test]
fn overload_shape_qant_beats_greedy() {
    // The headline: under sustained heavy overload QA-NT's market
    // outperforms greedy assignment (paper Fig. 5a right side).
    let s = scenario(30, 11);
    let trace = two_class_trace(&s, 0.05, 2.5, 40);
    let q = Federation::new(&s, MechanismKind::QaNt, &trace).run(&trace);
    let g = Federation::new(&s, MechanismKind::Greedy, &trace).run(&trace);
    let qm = q.metrics.mean_response_ms().unwrap();
    let gm = g.metrics.mean_response_ms().unwrap();
    assert!(
        qm < gm * 1.05,
        "QA-NT ({qm:.0}ms) should be at least competitive with Greedy ({gm:.0}ms) at 2.5x"
    );
}

#[test]
fn assignment_latency_reflects_protocol_weight() {
    let s = scenario(15, 13);
    let trace = two_class_trace(&s, 0.05, 0.5, 15);
    let qant = Federation::new(&s, MechanismKind::QaNt, &trace).run(&trace);
    let random = Federation::new(&s, MechanismKind::Random, &trace).run(&trace);
    let q = qant.metrics.assign_latency.mean().unwrap();
    let r = random.metrics.assign_latency.mean().unwrap();
    assert!(
        q > r,
        "negotiation ({q:.3}ms) costs more than direct send ({r:.3}ms)"
    );
}

#[test]
fn partial_market_deployment_is_supported() {
    // §4: QA-NT still works when only a subset of nodes runs it.
    let s = scenario(12, 17);
    let trace = two_class_trace(&s, 0.05, 1.2, 20);
    let mut fed = Federation::new(&s, MechanismKind::QaNt, &trace);
    fed.restrict_market_to(|n| n.0 % 2 == 0); // half the fleet participates
    let out = fed.run(&trace);
    assert_eq!(
        out.metrics.completed + out.metrics.unserved,
        trace.len() as u64
    );
    assert!(out.metrics.completed > 0);
}

#[test]
#[should_panic(expected = "QA-NT only")]
fn partial_deployment_rejected_for_other_mechanisms() {
    let s = scenario(6, 18);
    let trace = two_class_trace(&s, 0.05, 0.5, 5);
    let mut fed = Federation::new(&s, MechanismKind::Greedy, &trace);
    fed.restrict_market_to(|_| true);
}

#[test]
fn fairness_metric_is_populated_by_runs() {
    let s = scenario(12, 19);
    let trace = two_class_trace(&s, 0.05, 0.8, 15);
    let out = Federation::new(&s, MechanismKind::QaNt, &trace).run(&trace);
    let j = out
        .metrics
        .origin_fairness()
        .expect("many origins completed");
    assert!((0.0..=1.0 + 1e-9).contains(&j));
    assert!(j > 0.5, "origins should be treated comparably: {j}");
}

/// FNV-1a over a stream of 64-bit words (little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of a benchmark workload's inputs: every `exec_times_ms` cell
/// (`None` as `u64::MAX`, else the f64 bits), every `capable` list with
/// its length, and every `QueryEvent`'s id, time, class and origin.
fn setup_digest(world: &Scenario, trace: &Trace) -> (u64, u64) {
    let cells = world
        .exec_times_ms
        .iter()
        .flatten()
        .map(|t| t.map_or(u64::MAX, f64::to_bits));
    let lists = world
        .capable
        .iter()
        .flat_map(|l| std::iter::once(l.len() as u64).chain(l.iter().map(|n| u64::from(n.0))));
    let events = trace.iter().flat_map(|e| {
        [
            e.id,
            e.at.as_micros(),
            u64::from(e.class.0),
            u64::from(e.origin.0),
        ]
    });
    (fnv1a(cells.chain(lists)), fnv1a(events))
}

/// The set-up of the three simulator benchmark workloads (`flat1k`,
/// `paper100_overload`, `broker10k`) at seed 11 over their `--quick`
/// horizons: the world and trace digests pinned here were computed by the
/// quadratic world builder and the sorting trace builder, so a faster
/// set-up must build the same inputs to the bit.
#[test]
fn benchmark_workload_setups_are_pinned() {
    use query_markets::sim::experiments::scale_world;
    let workloads = [
        ("flat1k", 1_000, 0.75, 20),
        ("paper100_overload", 100, 1.5, 30),
        ("broker10k", 10_000, 0.5, 24),
    ];
    let got: Vec<(&str, u64, u64, usize)> = workloads
        .iter()
        .map(|&(name, nodes, frac, secs)| {
            let world = scale_world(nodes, 11);
            let trace = two_class_trace(&world, 0.05, frac, secs);
            let (w, t) = setup_digest(&world, &trace);
            (name, w, t, trace.len())
        })
        .collect();
    let pinned = [
        (
            "flat1k",
            0x0cf8_3a23_afc6_447a,
            0x2148_ac12_17e5_f440,
            14_476,
        ),
        (
            "paper100_overload",
            0xd90f_ba9f_d7e5_7461,
            0x9f60_fc40_785f_fa0c,
            4_955,
        ),
        (
            "broker10k",
            0xa902_dc94_451e_4a6c,
            0x0c01_0425_53ae_3e5e,
            128_814,
        ),
    ];
    assert_eq!(got, pinned, "a benchmark workload's set-up moved");
}
