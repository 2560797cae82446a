//! Supply sets and the seller's profit-maximisation problem (eq. 4).
//!
//! The paper defines a node's *supply set* `Sᵢ` as the set of feasible
//! supply vectors given its hardware resources (§2.2). Each period the
//! selfish seller picks `s⃗ᵢ* = argmax_{s⃗∈Sᵢ} p⃗·s⃗` (eq. 4).
//!
//! We model `Sᵢ` as a time-capacity polytope: executing one class-`k` query
//! costs the node `t_ik` time units, the period is `T` long, so
//! `Sᵢ = { s⃗ ∈ N^K : Σₖ sₖ·t_ik ≤ T }` with `sₖ = 0` forced for classes
//! the node cannot evaluate at all (no local data). That makes eq. 4 an
//! unbounded integer knapsack. Two solvers are provided:
//!
//! * [`solve_supply_greedy`] — the first-order-conditions solver the paper
//!   implies: fill capacity in descending *price density* `pₖ / t_ik`. Its
//!   integer rounding is exactly the error source the paper blames for
//!   Greedy's ~5 % edge at low loads (§5.1).
//! * [`solve_supply_optimal`] — exact dynamic program, used by tests to
//!   bound the greedy gap and by the ablation bench.

use crate::vectors::{PriceVector, QuantityVector};

/// A set of feasible supply vectors.
pub trait SupplySet {
    /// Number of commodity classes.
    fn num_classes(&self) -> usize;

    /// `true` iff `s` is a feasible supply vector.
    fn contains(&self, s: &QuantityVector) -> bool;

    /// `true` iff supply could grow by one unit of class `k` from `s` and
    /// stay feasible. Default: test `s + eₖ`. Implementors with structure
    /// should override this — the default clones the whole vector per
    /// probe, and QA-NT deal admission ([`crate::trade_exhausts_pair`])
    /// probes every class of every candidate trade.
    fn can_add(&self, s: &QuantityVector, k: usize) -> bool {
        let mut grown = s.clone();
        grown.add_units(k, 1);
        self.contains(&grown)
    }
}

/// The time-capacity polytope `{ s : Σ sₖ·tₖ ≤ capacity }`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearCapacitySet {
    /// Per-class unit cost `t_ik` (time to run one class-k query on this
    /// node); `None` for classes the node cannot evaluate.
    unit_costs: Vec<Option<f64>>,
    /// Total capacity `T` in the same time units.
    capacity: f64,
}

impl LinearCapacitySet {
    /// Builds a capacity set.
    ///
    /// # Panics
    /// Panics if `capacity` is negative/non-finite or any present cost is
    /// not strictly positive and finite.
    pub fn new(unit_costs: Vec<Option<f64>>, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "bad capacity {capacity}"
        );
        assert!(
            unit_costs
                .iter()
                .flatten()
                .all(|t| t.is_finite() && *t > 0.0),
            "unit costs must be positive and finite"
        );
        LinearCapacitySet {
            unit_costs,
            capacity,
        }
    }

    /// The per-class unit costs.
    pub fn unit_costs(&self) -> &[Option<f64>] {
        &self.unit_costs
    }

    /// The capacity `T`.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Time consumed by supply vector `s`.
    pub fn load_of(&self, s: &QuantityVector) -> f64 {
        s.iter()
            .map(|(k, c)| match self.unit_costs[k] {
                Some(t) => t * c as f64,
                None => {
                    if c > 0 {
                        f64::INFINITY
                    } else {
                        0.0
                    }
                }
            })
            .sum()
    }
}

impl SupplySet for LinearCapacitySet {
    fn num_classes(&self) -> usize {
        self.unit_costs.len()
    }

    fn contains(&self, s: &QuantityVector) -> bool {
        assert_eq!(s.num_classes(), self.num_classes());
        // A tiny epsilon absorbs float accumulation; capacities are real
        // times (ms), unit counts small integers.
        self.load_of(s) <= self.capacity * (1.0 + 1e-12) + 1e-9
    }

    /// Allocation-free override of the default `s + eₖ` probe: growing by
    /// one class-`k` unit adds exactly `t_k` load, so feasibility is
    /// `load_of(s) + t_k ≤ T` (same epsilon as [`Self::contains`]).
    fn can_add(&self, s: &QuantityVector, k: usize) -> bool {
        match self.unit_costs[k] {
            None => false,
            Some(t) => self.load_of(s) + t <= self.capacity * (1.0 + 1e-12) + 1e-9,
        }
    }
}

/// An explicitly enumerated supply set — used in unit tests and by the
/// brute-force Pareto enumerator on small economies.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumeratedSupplySet {
    k: usize,
    vectors: Vec<QuantityVector>,
}

impl EnumeratedSupplySet {
    /// Builds from an explicit list of feasible vectors. The zero vector is
    /// added automatically (a node may always supply nothing).
    pub fn new(k: usize, mut vectors: Vec<QuantityVector>) -> Self {
        assert!(vectors.iter().all(|v| v.num_classes() == k));
        let zero = QuantityVector::zeros(k);
        if !vectors.contains(&zero) {
            vectors.push(zero);
        }
        EnumeratedSupplySet { k, vectors }
    }

    /// All feasible vectors.
    pub fn vectors(&self) -> &[QuantityVector] {
        &self.vectors
    }
}

impl SupplySet for EnumeratedSupplySet {
    fn num_classes(&self) -> usize {
        self.k
    }

    fn contains(&self, s: &QuantityVector) -> bool {
        self.vectors.contains(s)
    }
}

/// Enumerates every feasible supply vector of a [`LinearCapacitySet`]
/// (bounded per class by `caps` when given). Exponential — only for the
/// small economies in tests.
pub fn enumerate_capacity_set(
    set: &LinearCapacitySet,
    caps: Option<&QuantityVector>,
) -> Vec<QuantityVector> {
    let k = set.num_classes();
    let mut out = Vec::new();
    let mut cur = QuantityVector::zeros(k);
    fn rec(
        set: &LinearCapacitySet,
        caps: Option<&QuantityVector>,
        cur: &mut QuantityVector,
        class: usize,
        out: &mut Vec<QuantityVector>,
    ) {
        if class == set.num_classes() {
            out.push(cur.clone());
            return;
        }
        let mut n = 0;
        loop {
            cur.set(class, n);
            if !set.contains(cur) || caps.is_some_and(|c| n > c.get(class)) {
                break;
            }
            rec(set, caps, cur, class + 1, out);
            if set.unit_costs()[class].is_none() {
                break; // cannot supply this class at all
            }
            n += 1;
        }
        cur.set(class, 0);
    }
    rec(set, caps, &mut cur, 0, &mut out);
    out
}

/// Fills `out` with the indices of the supplyable classes (those with a
/// unit cost) in descending *price density* `pₖ / tₖ`, ties broken by
/// class index for determinism.
///
/// This is the ordering both eq.-4 solvers fill capacity in. It reuses the
/// caller's scratch vector — no per-call allocation once the scratch has
/// grown to the class count.
#[inline]
pub fn price_density_order_into(prices: &[f64], unit_costs: &[Option<f64>], out: &mut Vec<usize>) {
    assert_eq!(prices.len(), unit_costs.len(), "class count mismatch");
    out.clear();
    out.extend((0..unit_costs.len()).filter(|&i| unit_costs[i].is_some()));
    out.sort_by(|&a, &b| {
        let da = prices[a] / unit_costs[a].expect("filtered");
        let db = prices[b] / unit_costs[b].expect("filtered");
        // total_cmp, not partial_cmp: an all-zero price vector is legal
        // (densities 0.0 compare equal, class index breaks the tie) and
        // must not panic the solver.
        db.total_cmp(&da).then(a.cmp(&b))
    });
}

/// A memoized price-density ordering.
///
/// The supply solvers re-sort classes by `pₖ / tₖ` on every solve, but in
/// the simulator a node's prices only move when the market does (rejections
/// or leftover supply) and its unit costs rarely change at all — so across
/// quiet periods the ordering is identical. This cache keys the ordering on
/// the exact `(prices, unit_costs)` pair and re-sorts only when either
/// changed: an `O(K)` equality scan instead of an `O(K log K)` sort with a
/// division per comparison. All vectors are reused across calls, so a
/// steady-state solve allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DensityOrderCache {
    order: Vec<usize>,
    prices: Vec<f64>,
    unit_costs: Vec<Option<f64>>,
    valid: bool,
}

impl DensityOrderCache {
    /// An empty cache; the first [`Self::order`] call computes.
    pub fn new() -> Self {
        Self::default()
    }

    /// The density ordering for `(prices, unit_costs)`, recomputed only
    /// when either differs from the cached pair. (Prices are finite by
    /// `PriceVector` invariant, so the float equality scan is exact.)
    pub fn order(&mut self, prices: &PriceVector, unit_costs: &[Option<f64>]) -> &[usize] {
        let hit = self.valid && self.prices == prices.as_slice() && self.unit_costs == unit_costs;
        if !hit {
            price_density_order_into(prices.as_slice(), unit_costs, &mut self.order);
            self.prices.clear();
            self.prices.extend_from_slice(prices.as_slice());
            self.unit_costs.clear();
            self.unit_costs.extend_from_slice(unit_costs);
            self.valid = true;
        }
        &self.order
    }

    /// Drops the memo; the next [`Self::order`] call re-sorts.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }
}

/// The integer greedy fill over a precomputed density ordering — the body
/// shared by [`solve_supply_greedy`] and [`solve_supply_greedy_cached`].
fn greedy_fill(
    set: &LinearCapacitySet,
    caps: Option<&QuantityVector>,
    order: &[usize],
) -> QuantityVector {
    let mut supply = QuantityVector::zeros(set.num_classes());
    let mut remaining = set.capacity();
    for &i in order {
        let t = set.unit_costs()[i].expect("ordered classes have costs");
        let mut fit = (remaining / t).floor() as u64;
        if let Some(c) = caps {
            fit = fit.min(c.get(i));
        }
        if fit > 0 {
            supply.add_units(i, fit);
            remaining -= fit as f64 * t;
        }
    }
    debug_assert!(set.contains(&supply));
    supply
}

/// Greedy first-order-conditions solver for eq. 4.
///
/// Fills the capacity in descending price density `pₖ / tₖ`, taking as many
/// whole units of the densest class as fit, then the next, and so on.
/// Optional `caps` bounds the per-class supply (a node that has seen demand
/// for at most `caps[k]` class-k queries has no reason to reserve more).
///
/// Sorts on every call; hot-path callers that solve repeatedly under
/// slow-moving prices should use [`solve_supply_greedy_cached`].
pub fn solve_supply_greedy(
    prices: &PriceVector,
    set: &LinearCapacitySet,
    caps: Option<&QuantityVector>,
) -> QuantityVector {
    let mut order = Vec::new();
    price_density_order_into(prices.as_slice(), set.unit_costs(), &mut order);
    greedy_fill(set, caps, &order)
}

/// [`solve_supply_greedy`] with a memoized density ordering: the class
/// re-sort happens only when `prices` (or the set's unit costs) changed
/// since the cache last saw them. Byte-identical results to the uncached
/// solver at every call.
pub fn solve_supply_greedy_cached(
    prices: &PriceVector,
    set: &LinearCapacitySet,
    caps: Option<&QuantityVector>,
    cache: &mut DensityOrderCache,
) -> QuantityVector {
    let order = cache.order(prices, set.unit_costs());
    greedy_fill(set, caps, order)
}

/// Fractional (LP-relaxation) solver for eq. 4.
///
/// Fills capacity in descending price density with *real-valued* amounts:
/// the densest class absorbs everything up to its cap, then the next, and
/// the final class may receive a fractional amount. This is the true
/// first-order-conditions optimum of the relaxed problem; QA-NT rounds it
/// to integers per period with an error-diffusion carry, which is exactly
/// the rounding the paper blames for its ~5 % loss at light loads (§5.1).
pub fn solve_supply_fractional(
    prices: &PriceVector,
    set: &LinearCapacitySet,
    caps: Option<&[f64]>,
) -> Vec<f64> {
    if let Some(c) = caps {
        assert_eq!(c.len(), set.num_classes());
    }
    let mut order = Vec::new();
    price_density_order_into(prices.as_slice(), set.unit_costs(), &mut order);
    let mut supply = vec![0.0; set.num_classes()];
    let mut remaining = set.capacity();
    for &i in &order {
        if remaining <= 0.0 {
            break;
        }
        let t = set.unit_costs()[i].expect("ordered classes have costs");
        let mut amount = remaining / t;
        if let Some(c) = caps {
            amount = amount.min(c[i]);
        }
        if amount > 0.0 {
            supply[i] = amount;
            remaining -= amount * t;
        }
    }
    supply
}

/// Exact solver for eq. 4.
///
/// Without `caps` it is an unbounded-knapsack dynamic program: capacity and
/// unit costs are discretized to `resolution` steps (costs round *up*, so
/// the result is always feasible), exact up to that discretization. With
/// `caps` it enumerates the capped capacity set and takes the most
/// valuable vector (the one with the most units on ties): exact, and
/// affordable only while `K` and the caps are small. Intended for tests
/// and ablations, not the hot path.
pub fn solve_supply_optimal(
    prices: &PriceVector,
    set: &LinearCapacitySet,
    caps: Option<&QuantityVector>,
    resolution: usize,
) -> QuantityVector {
    let k = set.num_classes();
    assert_eq!(prices.num_classes(), k, "class count mismatch");
    assert!(resolution > 0);
    if set.capacity() <= 0.0 {
        return QuantityVector::zeros(k);
    }
    if let Some(caps) = caps {
        return enumerate_capacity_set(set, Some(caps))
            .into_iter()
            .max_by(|a, b| {
                prices
                    .value_of(a)
                    .total_cmp(&prices.value_of(b))
                    .then_with(|| a.total().cmp(&b.total()))
            })
            .expect("enumeration always contains the zero vector");
    }
    let step = set.capacity() / resolution as f64;
    let cost_steps: Vec<Option<usize>> = set
        .unit_costs()
        .iter()
        .map(|c| c.map(|t| ((t / step).ceil() as usize).max(1)))
        .collect();

    // value[w] = best value using ≤ w capacity steps; choice[w] = (class,
    // prev_w) used to reconstruct.
    let w_max = resolution;
    let mut value = vec![0.0_f64; w_max + 1];
    let mut choice: Vec<Option<(usize, usize)>> = vec![None; w_max + 1];

    // Unbounded knapsack DP with reconstruction.
    for w in 1..=w_max {
        for (i, &step) in cost_steps.iter().enumerate() {
            let Some(ci) = step else { continue };
            if ci <= w {
                let cand = value[w - ci] + prices.get(i);
                if cand > value[w] + 1e-12 {
                    value[w] = cand;
                    choice[w] = Some((i, w - ci));
                }
            }
        }
    }
    // The best value may be reached below w_max.
    let mut best_w = 0;
    for w in 0..=w_max {
        if value[w] > value[best_w] + 1e-12 {
            best_w = w;
        }
    }
    let mut supply = QuantityVector::zeros(k);
    let mut w = best_w;
    while let Some((i, prev)) = choice[w] {
        supply.add_units(i, 1);
        w = prev;
    }
    debug_assert!(set.contains(&supply));
    supply
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qv(v: &[u64]) -> QuantityVector {
        QuantityVector::from_counts(v.to_vec())
    }

    /// Node N1 of the paper's running example: q1 = 400 ms, q2 = 100 ms,
    /// period T = 500 ms.
    fn n1() -> LinearCapacitySet {
        LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0)
    }

    #[test]
    fn capacity_membership() {
        let s = n1();
        assert!(s.contains(&qv(&[1, 1]))); // 400 + 100 = 500 ≤ 500
        assert!(s.contains(&qv(&[0, 5]))); // 500 ≤ 500
        assert!(!s.contains(&qv(&[1, 2]))); // 600 > 500
        assert!(s.contains(&qv(&[0, 0])));
    }

    #[test]
    fn impossible_class_forces_zero() {
        let s = LinearCapacitySet::new(vec![Some(100.0), None], 1_000.0);
        assert!(s.contains(&qv(&[10, 0])));
        assert!(!s.contains(&qv(&[0, 1])));
        assert!(!s.can_add(&qv(&[0, 0]), 1));
    }

    #[test]
    fn greedy_follows_price_density() {
        // Equal prices (1,1): density q2 = 1/100 > q1 = 1/400, so N1
        // supplies only q2 — exactly the paper's §3.3 walkthrough.
        let p = PriceVector::uniform(2, 1.0);
        let s = solve_supply_greedy(&p, &n1(), None);
        assert_eq!(s, qv(&[0, 5]));
    }

    #[test]
    fn greedy_switches_when_q1_price_rises() {
        // "prices of q1 queries will start increasing until node N1 starts
        // to also supply q1" — at p1/t1 > p2/t2 i.e. p1 > 4, q1 dominates.
        let p = PriceVector::from_prices(vec![4.5, 1.0]);
        let s = solve_supply_greedy(&p, &n1(), None);
        assert_eq!(s.get(0), 1, "one q1 fits in 500ms");
        assert_eq!(s.get(1), 1, "remaining 100ms fits one q2");
    }

    #[test]
    fn greedy_respects_caps() {
        let p = PriceVector::uniform(2, 1.0);
        let caps = qv(&[0, 2]);
        let s = solve_supply_greedy(&p, &n1(), Some(&caps));
        assert_eq!(s, qv(&[0, 2]));
    }

    #[test]
    fn zero_price_vector_solves_without_panic() {
        // Regression: the density sort used `partial_cmp().expect(...)` and
        // the constructor rejected zero prices, so an all-zero vector could
        // never reach (let alone survive) a solve. With zero prices every
        // density is 0.0; ties break by class index, so greedy fills the
        // first class first.
        let p = PriceVector::from_prices(vec![0.0, 0.0]);
        let s = solve_supply_greedy(&p, &n1(), None);
        assert_eq!(s, qv(&[1, 1]), "class order breaks the all-zero tie");
        let o = solve_supply_optimal(&p, &n1(), Some(&qv(&[2, 2])), 1_000);
        assert!(n1().contains(&o));
        let mut order = Vec::new();
        price_density_order_into(p.as_slice(), &[Some(400.0), Some(100.0)], &mut order);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn greedy_never_exceeds_capacity() {
        let set = LinearCapacitySet::new(vec![Some(7.0), Some(3.0), Some(11.0)], 100.0);
        let p = PriceVector::from_prices(vec![5.0, 2.0, 9.0]);
        let s = solve_supply_greedy(&p, &set, None);
        assert!(set.contains(&s));
    }

    #[test]
    fn optimal_beats_or_matches_greedy() {
        // Classic knapsack instance where density-greedy is suboptimal:
        // capacity 10, items (cost 6, price 7) and (cost 5, price 5).
        // Greedy takes the density-6 item (7/6 > 1) then nothing fits;
        // optimal takes two of the cost-5 items for value 10.
        let set = LinearCapacitySet::new(vec![Some(6.0), Some(5.0)], 10.0);
        let p = PriceVector::from_prices(vec![7.0, 5.0]);
        let g = solve_supply_greedy(&p, &set, None);
        let o = solve_supply_optimal(&p, &set, None, 1_000);
        assert_eq!(g, qv(&[1, 0]));
        assert_eq!(o, qv(&[0, 2]));
        assert!(p.value_of(&o) > p.value_of(&g));
    }

    #[test]
    fn optimal_with_caps_uses_enumeration() {
        let set = LinearCapacitySet::new(vec![Some(6.0), Some(5.0)], 10.0);
        let p = PriceVector::from_prices(vec![7.0, 5.0]);
        let caps = qv(&[5, 1]);
        let o = solve_supply_optimal(&p, &set, Some(&caps), 1_000);
        // Only one cost-5 item allowed, so (1,0) with value 7 wins over
        // (0,1) with value 5.
        assert_eq!(o, qv(&[1, 0]));
    }

    #[test]
    fn enumeration_counts_small_set() {
        // capacity 500, costs 400/100: vectors are (0,0..5) and (1,0..1).
        let set = n1();
        let all = enumerate_capacity_set(&set, None);
        assert_eq!(all.len(), 8);
        assert!(all.contains(&qv(&[1, 1])));
        assert!(!all.contains(&qv(&[1, 2])));
    }

    #[test]
    fn zero_capacity_supplies_nothing() {
        let set = LinearCapacitySet::new(vec![Some(1.0)], 0.0);
        let p = PriceVector::uniform(1, 1.0);
        assert_eq!(solve_supply_greedy(&p, &set, None), qv(&[0]));
        assert_eq!(solve_supply_optimal(&p, &set, None, 10), qv(&[0]));
    }

    #[test]
    fn can_add_override_matches_clone_based_probe() {
        // The LinearCapacitySet override must agree with the default
        // `s + eₖ` probe on a grid of supply points, including the
        // capacity boundary and the incapable class.
        let set = LinearCapacitySet::new(vec![Some(400.0), Some(100.0), None], 500.0);
        for a in 0..3u64 {
            for b in 0..7u64 {
                let s = QuantityVector::from_counts(vec![a, b, 0]);
                for k in 0..3 {
                    let mut grown = s.clone();
                    grown.add_units(k, 1);
                    let default_probe = grown.get(2) == 0 && set.contains(&grown);
                    assert_eq!(
                        set.can_add(&s, k),
                        default_probe,
                        "s={:?} k={k}",
                        s.as_slice()
                    );
                }
            }
        }
    }

    #[test]
    fn density_order_helper_reuses_scratch() {
        let p = PriceVector::from_prices(vec![4.5, 1.0, 2.0]);
        let costs = vec![Some(400.0), Some(100.0), None];
        let mut order = Vec::with_capacity(3);
        price_density_order_into(p.as_slice(), &costs, &mut order);
        // densities: 4.5/400 = 0.011, 1/100 = 0.01 → class 0 first; class 2
        // has no cost and is excluded.
        assert_eq!(order, vec![0, 1]);
        let cap = order.capacity();
        price_density_order_into(p.as_slice(), &costs, &mut order);
        assert_eq!(order.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    fn density_order_ties_break_by_class_index() {
        // Equal densities: 2/200 == 1/100.
        let p = PriceVector::from_prices(vec![2.0, 1.0]);
        let costs = vec![Some(200.0), Some(100.0)];
        let mut order = Vec::new();
        price_density_order_into(p.as_slice(), &costs, &mut order);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn cached_solver_matches_uncached_across_price_changes() {
        let set = LinearCapacitySet::new(vec![Some(400.0), Some(100.0), Some(250.0)], 500.0);
        let mut cache = DensityOrderCache::new();
        let price_seq = [
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0], // unchanged: cache hit
            vec![4.5, 1.0, 1.0], // changed: re-sort
            vec![4.5, 1.0, 9.0],
        ];
        for prices in price_seq {
            let p = PriceVector::from_prices(prices);
            assert_eq!(
                solve_supply_greedy_cached(&p, &set, None, &mut cache),
                solve_supply_greedy(&p, &set, None)
            );
        }
    }

    #[test]
    fn cache_invalidates_on_cost_change() {
        let mut cache = DensityOrderCache::new();
        let p = PriceVector::uniform(2, 1.0);
        let fast_q1 = LinearCapacitySet::new(vec![Some(50.0), Some(100.0)], 500.0);
        let fast_q2 = LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0);
        let a = solve_supply_greedy_cached(&p, &fast_q1, None, &mut cache);
        assert_eq!(a, qv(&[10, 0]));
        // Same prices, different costs: the ordering must flip.
        let b = solve_supply_greedy_cached(&p, &fast_q2, None, &mut cache);
        assert_eq!(b, qv(&[0, 5]));
        cache.invalidate();
        assert_eq!(
            solve_supply_greedy_cached(&p, &fast_q2, None, &mut cache),
            b
        );
    }

    #[test]
    fn trade_exhaustion_uses_nonallocating_probe() {
        // The QA-NT deal-admission rule (Definition 4 rule 2) probes
        // `can_add` for every demanded class; with the LinearCapacitySet
        // override this is pure arithmetic. Semantics checked against the
        // paper's N1: with 100 ms left no q1 (400 ms) fits but a q2
        // (100 ms) does.
        let set = n1();
        assert!(crate::trade_exhausts_pair(&qv(&[5, 0]), &qv(&[1, 0]), &set));
        assert!(!crate::trade_exhausts_pair(
            &qv(&[0, 5]),
            &qv(&[1, 0]),
            &set
        ));
    }

    #[test]
    fn enumerated_set_includes_zero() {
        let s = EnumeratedSupplySet::new(2, vec![qv(&[1, 0])]);
        assert!(s.contains(&qv(&[0, 0])));
        assert!(s.contains(&qv(&[1, 0])));
        assert!(!s.contains(&qv(&[0, 1])));
    }
}
