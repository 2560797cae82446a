//! Property tests for workload generation, driven by seeded [`DetRng`]
//! loops (the hermetic-build substitute for proptest): each property runs
//! over 64 random cases from a fixed seed, so failures reproduce exactly.

use qa_simnet::{DetRng, SimDuration, SimTime};
use qa_workload::arrival::{ArrivalProcess, SinusoidProcess, ZipfProcess};
use qa_workload::{ClassId, Trace};

const CASES: usize = 64;

/// Traces are always time-sorted with dense ids and in-range origins.
#[test]
fn trace_invariants() {
    let mut meta = DetRng::seed_from_u64(0x0A10_0001);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let n = meta.index(200);
        let nodes = 1 + meta.index(49);
        let mut rng = DetRng::seed_from_u64(seed);
        let arrivals: Vec<(SimTime, ClassId)> = (0..n)
            .map(|_| {
                (
                    SimTime::from_millis(rng.int_in(0, 10_000)),
                    ClassId(rng.int_in(0, 5) as u32),
                )
            })
            .collect();
        let t = Trace::from_arrivals(arrivals, nodes, &mut rng);
        assert_eq!(t.len(), n, "case {case}");
        for (i, e) in t.iter().enumerate() {
            assert_eq!(e.id, i as u64, "case {case}");
            assert!(e.origin.index() < nodes, "case {case}");
        }
        for w in t.events().windows(2) {
            assert!(w[0].at <= w[1].at, "case {case}");
        }
    }
}

/// Every arrival process respects the horizon.
#[test]
fn processes_respect_horizon() {
    let mut meta = DetRng::seed_from_u64(0x0A10_0002);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let secs = 1 + meta.index(29) as u64;
        let horizon = SimTime::from_secs(secs);
        let mut rng = DetRng::seed_from_u64(seed);
        let sin = SinusoidProcess::new(ClassId(0), 0.1, 20.0, 0.0);
        for (t, _) in sin.generate(horizon, &mut rng) {
            assert!(t < horizon, "case {case}");
        }
        let zipf = ZipfProcess::paper(3, SimDuration::from_millis(500));
        for (t, _) in zipf.generate(horizon, &mut rng) {
            assert!(t < horizon, "case {case}");
        }
    }
}

/// The sinusoid's empirical rate is bounded by its peak.
#[test]
fn sinusoid_rate_bounded() {
    let mut meta = DetRng::seed_from_u64(0x0A10_0003);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let peak = meta.float_in(1.0, 50.0);
        let p = SinusoidProcess::new(ClassId(0), 0.2, peak, 0.0);
        let mut rng = DetRng::seed_from_u64(seed);
        let arrivals = p.generate(SimTime::from_secs(30), &mut rng);
        // Expected count = peak/2 × 30; allow generous stochastic slack.
        let expected = peak / 2.0 * 30.0;
        assert!(
            (arrivals.len() as f64) < 2.0 * expected + 30.0,
            "case {case}: {} arrivals for expected {expected}",
            arrivals.len()
        );
    }
}
