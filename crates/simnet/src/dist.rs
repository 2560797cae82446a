//! The zipf sampler of the workload generators.
//!
//! Table 3 of the paper specifies a *zipf* distribution for query
//! inter-arrival times. [`Zipf`] is implemented from scratch over
//! [`DetRng`] rather than pulling in `rand_distr`, keeping the dependency
//! set minimal.

use crate::rng::DetRng;

/// Zipf distribution over ranks `1..=n` with exponent `a`:
/// `P(rank = k) ∝ k^-a`.
///
/// The paper uses `a = 1` over inter-arrival "slots"; we precompute the CDF
/// once (n ≤ a few thousand) and sample by binary search, which is both
/// simple and fast.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf distribution over `1..=n` with exponent `a`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `a` is negative/not finite.
    pub fn new(n: usize, a: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(a.is_finite() && a >= 0.0, "bad exponent {a}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-a);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Zipf { cdf }
    }

    /// Draws a rank in `1..=n`.
    pub fn sample_rank(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit();
        // First index whose cumulative probability covers u.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf values are finite"))
        {
            Ok(i) => i + 1,
            Err(i) => i + 1,
        }
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.cdf.len()).contains(&k));
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(0xDECAF)
    }

    #[test]
    fn zipf_ranks_in_range() {
        let d = Zipf::new(100, 1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let k = d.sample_rank(&mut r);
            assert!((1..=100).contains(&k));
        }
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(100, 1.0);
        let mut r = rng();
        let n = 50_000;
        let ones = (0..n).filter(|_| d.sample_rank(&mut r) == 1).count();
        let expected = d.pmf(1);
        let emp = ones as f64 / n as f64;
        assert!(
            (emp - expected).abs() < 0.01,
            "empirical {emp} vs {expected}"
        );
        // With a = 1 over 100 ranks, rank 1 carries ~19% of the mass.
        assert!(expected > 0.15 && expected < 0.25);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let d = Zipf::new(50, 1.0);
        let total: f64 = (1..=50).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_pmf_is_monotone_decreasing() {
        let d = Zipf::new(30, 1.0);
        for k in 1..30 {
            assert!(d.pmf(k) >= d.pmf(k + 1));
        }
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let d = Zipf::new(10, 0.0);
        for k in 1..=10 {
            assert!((d.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn zipf_rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }
}
