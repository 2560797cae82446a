//! Property tests for the economics substrate, driven by seeded [`DetRng`]
//! loops (the hermetic-build substitute for proptest): each property runs
//! over 200 random cases from a fixed seed, so failures reproduce exactly.

use qa_economics::{
    dominates, ln_of_quanta, solve_supply_fractional, solve_supply_greedy, solve_supply_optimal,
    LinearCapacitySet, NonTatonnementPricer, PriceRules, PriceVector, PricerConfig, QuantityVector,
    Solution, SupplySet,
};
use qa_simnet::telemetry::Telemetry;
use qa_simnet::DetRng;

const CASES: usize = 200;

/// A small capacity set with 2–4 classes: per-class costs are either
/// unsupported (`None`) or drawn from 10..500, total capacity from 50..1000.
fn capacity_set(rng: &mut DetRng) -> LinearCapacitySet {
    let k = rng.int_in(2, 4) as usize;
    let costs: Vec<Option<f64>> = (0..k)
        .map(|_| {
            if rng.chance(0.5) {
                None
            } else {
                Some(rng.float_in(10.0, 500.0))
            }
        })
        .collect();
    let cap = rng.float_in(50.0, 1_000.0);
    LinearCapacitySet::new(costs, cap)
}

/// Greedy supply is always feasible.
#[test]
fn greedy_supply_feasible() {
    let mut rng = DetRng::seed_from_u64(0xEC01_0001);
    for case in 0..CASES {
        let set = capacity_set(&mut rng);
        let seed = rng.int_in(0, 999);
        let k = set.num_classes();
        let prices = PriceVector::from_prices(
            (0..k)
                .map(|i| 0.1 + ((seed + i as u64) % 17) as f64)
                .collect(),
        );
        let s = solve_supply_greedy(&prices, &set, None);
        assert!(set.contains(&s), "case {case}");
    }
}

/// The DP solver matches or beats the greedy one up to its capacity
/// discretization (costs round *up* in the DP, which can shave at most
/// a few units near full capacity), and its solution is feasible.
#[test]
fn optimal_dominates_greedy() {
    let mut rng = DetRng::seed_from_u64(0xEC01_0002);
    for case in 0..CASES {
        let set = capacity_set(&mut rng);
        let seed = rng.int_in(0, 999);
        let k = set.num_classes();
        let prices = PriceVector::from_prices(
            (0..k)
                .map(|i| 0.1 + ((seed * 7 + i as u64) % 13) as f64)
                .collect(),
        );
        let g = solve_supply_greedy(&prices, &set, None);
        let o = solve_supply_optimal(&prices, &set, None, 20_000);
        assert!(set.contains(&o), "case {case}");
        // Tolerance: one whole unit at the highest price covers the
        // worst-case discretization loss at this resolution.
        let slack = prices.max_price();
        assert!(
            prices.value_of(&o) >= prices.value_of(&g) - slack,
            "case {case}: optimal {} << greedy {}",
            prices.value_of(&o),
            prices.value_of(&g)
        );
    }
}

/// The fractional relaxation upper-bounds both integer solvers.
#[test]
fn fractional_upper_bounds_integer() {
    let mut rng = DetRng::seed_from_u64(0xEC01_0003);
    for case in 0..CASES {
        let set = capacity_set(&mut rng);
        let k = set.num_classes();
        let prices = PriceVector::uniform(k, 1.0);
        let frac = solve_supply_fractional(&prices, &set, None);
        let frac_value: f64 = frac
            .iter()
            .enumerate()
            .map(|(i, x)| prices.get(i) * x)
            .sum();
        let o = solve_supply_optimal(&prices, &set, None, 2_000);
        assert!(frac_value >= prices.value_of(&o) - 1e-6, "case {case}");
    }
}

/// Pareto dominance is irreflexive and asymmetric.
#[test]
fn dominance_strict_partial_order() {
    let mut rng = DetRng::seed_from_u64(0xEC01_0004);
    for case in 0..CASES {
        let draw = |rng: &mut DetRng| -> Vec<u64> { (0..4).map(|_| rng.int_in(0, 4)).collect() };
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        let mk = |v: &[u64]| Solution {
            supplies: vec![
                QuantityVector::from_counts(v[..2].to_vec()),
                QuantityVector::from_counts(v[2..].to_vec()),
            ],
            consumptions: vec![
                QuantityVector::from_counts(v[..2].to_vec()),
                QuantityVector::from_counts(v[2..].to_vec()),
            ],
        };
        let (sa, sb) = (mk(&a), mk(&b));
        assert!(!dominates(&sa, &sa), "case {case}: irreflexive");
        if dominates(&sa, &sb) {
            assert!(!dominates(&sb, &sa), "case {case}: asymmetric");
        }
    }
}

/// Prices always stay within [floor, ceiling] whatever the event sequence,
/// and rejections/leftovers move them in the right direction.
#[test]
fn pricer_bounds_hold() {
    let mut rng = DetRng::seed_from_u64(0xEC01_0005);
    for case in 0..CASES {
        let n = rng.index(200);
        let cfg = PricerConfig::default();
        let mut p = NonTatonnementPricer::new(3, cfg);
        for _ in 0..n {
            let k = rng.index(3);
            let leftover = rng.int_in(0, 9);
            let before = p.prices().get(k);
            if leftover == 0 {
                p.on_rejection(k);
                assert!(p.prices().get(k) >= before, "case {case}");
            } else {
                let mut l = QuantityVector::zeros(3);
                l.set(k, leftover);
                p.on_period_end(&l);
                assert!(p.prices().get(k) <= before, "case {case}");
            }
            for kk in 0..3 {
                let v = p.prices().get(kk);
                assert!(
                    (PriceRules::PRICE_FLOOR..=PriceRules::PRICE_CEILING).contains(&v),
                    "case {case}"
                );
            }
        }
    }
}

/// Renormalization preserves relative prices (up to clamping).
#[test]
fn renormalize_preserves_ratios() {
    let mut rng = DetRng::seed_from_u64(0xEC01_0006);
    for case in 0..CASES {
        let k = rng.int_in(2, 4) as usize;
        let raw: Vec<f64> = (0..k).map(|_| rng.float_in(0.01, 100.0)).collect();
        let mut p = NonTatonnementPricer::with_prices(
            PriceVector::from_prices(raw.clone()),
            PricerConfig::default(),
        );
        let ratio_before = p.prices().get(0) / p.prices().get(1);
        p.renormalize();
        let ratio_after = p.prices().get(0) / p.prices().get(1);
        assert!(
            (ratio_before / ratio_after - 1.0).abs() < 1e-9,
            "case {case}"
        );
        // Geometric mean is ~1 afterwards.
        let k = p.num_classes();
        let log_mean: f64 = p.prices().iter().map(|(_, v)| v.ln()).sum::<f64>() / k as f64;
        assert!(log_mean.abs() < 1e-9, "case {case}");
    }
}

/// Aggregation (eq. 1) is order-independent.
#[test]
fn aggregation_is_commutative() {
    let mut rng = DetRng::seed_from_u64(0xEC01_0007);
    for case in 0..CASES {
        let m = 1 + rng.index(5);
        let vecs: Vec<QuantityVector> = (0..m)
            .map(|_| QuantityVector::from_counts((0..3).map(|_| rng.int_in(0, 19)).collect()))
            .collect();
        let forward = QuantityVector::aggregate(&vecs);
        let mut rev = vecs.clone();
        rev.reverse();
        let backward = QuantityVector::aggregate(&rev);
        assert_eq!(forward, backward, "case {case}");
    }
}

/// 10 000 periods of one row of log-price quanta stay within a derived
/// distance of the linear `f64` oracle the log domain replaced.
///
/// Each period every class takes `n` refusals (`p·(1+λ)ⁿ`) and a leftover
/// of `s` units (`p·(1 − λs)`), then the row is renormalized (`p` divided
/// by the row's geometric mean). The draws are seeded; a class priced above
/// 1 draws mostly leftovers and one below mostly refusals, so the walk
/// reverts to the middle of the band. It is asserted never to touch the
/// floor or the ceiling, where the clamps, not the arithmetic, would set
/// both sides.
///
/// The bound is a sum of per-operation roundings, accumulated as the walk
/// runs (`Q` = 2⁻⁴⁰ nat, one quantum; `u` = 2⁻⁵³; libm's `ln`, `ln_1p`
/// and `exp` are taken to be within one ulp):
/// - a table add (one refusal's `G`, one leftover's `ln(1 − λs)`) is the
///   exact `ln` rounded to the nearest quantum: at most `Q/2`, plus one
///   ulp of `ln_1p`'s result, below `2u`;
/// - a renormalization subtracts the row's integer mean rounded down, so
///   each entry lands under `Q` above the exact centring;
/// - the oracle: a refusal multiplies by the rounded `1 + λ` and rounds
///   the product (`4u` in `ln p`); a leftover rounds `λs`, `1 − λs` (at
///   least 1/2) and the product (`8u`); a renormalization takes `K` `ln`s
///   of values below 2⁵ (`32u` each), adds them below 2⁷ (`64u` per add),
///   divides by `K` = 4 exactly, calls `exp` (`4u`) and divides each
///   price (`2u` each);
/// - the check's own `ln p` (`32u`).
///
/// A renormalization subtracts the mean of the row's errors along with
/// its prices, so one entry's error is at most the sum of the table errors
/// of the whole row, not of that entry alone: the bound charges every
/// operation on the row to every entry.
#[test]
fn log_prices_track_the_linear_oracle_over_a_long_run() {
    const K: usize = 4;
    const PERIODS: usize = 10_000;
    const Q: f64 = 1.0 / (1u64 << 40) as f64;
    const U: f64 = f64::EPSILON / 2.0;
    let cfg = PricerConfig::default();
    let rules = PriceRules::new(&cfg);
    let lambda = cfg.lambda;
    let (floor, ceiling) = (
        rules.quantize(PriceRules::PRICE_FLOOR),
        rules.quantize(PriceRules::PRICE_CEILING),
    );
    let off = Telemetry::disabled();
    let mut row = vec![rules.initial(); K];
    let mut oracle = vec![PriceRules::INITIAL_PRICE; K];
    let mut bound = 32.0 * U;
    let mut rng = DetRng::seed_from_u64(0xEC01_0008);
    for period in 0..PERIODS {
        for k in 0..K {
            let (n, s) = if row[k] > 0 {
                (rng.index(2) as u64, 1 + rng.index(5) as u64)
            } else {
                (1 + rng.index(4) as u64, rng.index(2) as u64)
            };
            row[k] = rules.refuse(row[k], n);
            for _ in 0..n {
                oracle[k] *= 1.0 + lambda;
            }
            bound += n as f64 * (Q / 2.0 + 2.0 * U + 4.0 * U);
            if s > 0 {
                row[k] = rules.decay(row[k], s);
                oracle[k] *= 1.0 - lambda * s as f64;
                bound += Q / 2.0 + 2.0 * U + 8.0 * U;
            }
        }
        rules.renormalize(&mut row, &off, 0);
        let mean_ln = oracle.iter().map(|p| p.ln()).sum::<f64>() / K as f64;
        let scale = mean_ln.exp();
        for p in &mut oracle {
            *p /= scale;
        }
        bound += Q + (32 * K + 64 * (K - 1) + 4 + 2 * K) as f64 * U;
        for (k, (&q, &p)) in row.iter().zip(&oracle).enumerate() {
            assert!(
                floor < q && q < ceiling,
                "period {period}: class {k} reached the band's edge"
            );
            let drift = (ln_of_quanta(q) - p.ln()).abs();
            assert!(
                drift <= bound,
                "period {period}: class {k} drifted {drift:e} nat, bound {bound:e}"
            );
        }
    }
}
