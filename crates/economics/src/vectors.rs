//! Quantity and price vectors.
//!
//! Section 2.2 of the paper models each node `i` in a time period by three
//! vectors over the `K` query classes: demand `d⃗ᵢ`, consumption `c⃗ᵢ` and
//! supply `s⃗ᵢ`, all in `N^K`, plus a system-wide virtual price vector
//! `p⃗ ∈ R₊^K`. [`QuantityVector`] and [`PriceVector`] are those objects,
//! with the algebra the paper uses: aggregation (eq. 1), the component-wise
//! partial order of eq. 3, and value products `p⃗·c⃗`.

use std::fmt;
use std::ops::{Add, AddAssign, Index};

/// A vector in `N^K`: one non-negative count per commodity (query class).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuantityVector(Vec<u64>);

impl QuantityVector {
    /// The zero vector over `k` classes.
    pub fn zeros(k: usize) -> Self {
        QuantityVector(vec![0; k])
    }

    /// Builds from raw counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        QuantityVector(counts)
    }

    /// Number of commodity classes `K`.
    pub fn num_classes(&self) -> usize {
        self.0.len()
    }

    /// Count for class `k`.
    pub fn get(&self, k: usize) -> u64 {
        self.0[k]
    }

    /// Sets the count for class `k`.
    pub fn set(&mut self, k: usize, v: u64) {
        self.0[k] = v;
    }

    /// Adds `n` units of class `k`.
    pub fn add_units(&mut self, k: usize, n: u64) {
        self.0[k] += n;
    }

    /// Total units across all classes — the quantity the paper's
    /// throughput preference compares.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `true` iff every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// Component-wise `≤` — the partial order of eq. 3 (`c⃗ ≤ d⃗`).
    pub fn le(&self, other: &QuantityVector) -> bool {
        assert_eq!(self.num_classes(), other.num_classes());
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &QuantityVector) -> QuantityVector {
        assert_eq!(self.num_classes(), other.num_classes());
        QuantityVector(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        )
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &QuantityVector) -> QuantityVector {
        assert_eq!(self.num_classes(), other.num_classes());
        QuantityVector(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| *a.min(b))
                .collect(),
        )
    }

    /// Aggregates per-node vectors into the system-wide vector of eq. 1.
    ///
    /// # Panics
    /// Panics on an empty iterator or mismatched lengths.
    pub fn aggregate<'a, I: IntoIterator<Item = &'a QuantityVector>>(vectors: I) -> QuantityVector {
        let mut it = vectors.into_iter();
        let first = it.next().expect("aggregate of zero vectors");
        let mut acc = first.clone();
        for v in it {
            acc += v;
        }
        acc
    }

    /// Iterates `(class, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.0.iter().copied().enumerate()
    }

    /// The raw counts.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

impl Index<usize> for QuantityVector {
    type Output = u64;
    fn index(&self, k: usize) -> &u64 {
        &self.0[k]
    }
}

impl Add<&QuantityVector> for QuantityVector {
    type Output = QuantityVector;
    fn add(mut self, rhs: &QuantityVector) -> QuantityVector {
        self += rhs;
        self
    }
}

impl AddAssign<&QuantityVector> for QuantityVector {
    fn add_assign(&mut self, rhs: &QuantityVector) {
        assert_eq!(
            self.num_classes(),
            rhs.num_classes(),
            "class count mismatch"
        );
        for (a, b) in self.0.iter_mut().zip(&rhs.0) {
            *a += b;
        }
    }
}

impl fmt::Display for QuantityVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A virtual price vector `p⃗ ∈ R₊^K`.
///
/// Prices are strictly positive: the non-tâtonnement adjustment is
/// multiplicative (`p ± λp`), so a zero price could never recover. The
/// constructor and all mutators enforce a configurable positive floor.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceVector(Vec<f64>);

impl PriceVector {
    /// A uniform price vector (`price` for every class).
    ///
    /// # Panics
    /// Panics unless `price` is strictly positive and finite.
    pub fn uniform(k: usize, price: f64) -> Self {
        assert!(price.is_finite() && price > 0.0, "bad price {price}");
        PriceVector(vec![price; k])
    }

    /// Builds from raw prices. Zero prices are allowed here — a caller
    /// constructing a vector directly (rather than running the adjustment
    /// loop, whose mutators clamp to a positive floor) may legitimately
    /// start a class at zero, e.g. to model a free class.
    ///
    /// # Panics
    /// Panics if any price is negative or not finite.
    pub fn from_prices(prices: Vec<f64>) -> Self {
        assert!(
            prices.iter().all(|p| p.is_finite() && *p >= 0.0),
            "prices must be non-negative and finite"
        );
        PriceVector(prices)
    }

    /// Number of classes `K`.
    pub fn num_classes(&self) -> usize {
        self.0.len()
    }

    /// Price of class `k`.
    pub fn get(&self, k: usize) -> f64 {
        self.0[k]
    }

    /// Sets the price of class `k`, clamping to `floor`.
    pub fn set(&mut self, k: usize, price: f64, floor: f64) {
        debug_assert!(floor > 0.0);
        self.0[k] = if price.is_finite() {
            price.max(floor)
        } else {
            floor
        };
    }

    /// The value `p⃗·q⃗ = Σₖ pₖ qₖ` of a quantity vector at these prices.
    pub fn value_of(&self, q: &QuantityVector) -> f64 {
        assert_eq!(self.num_classes(), q.num_classes(), "class count mismatch");
        self.0
            .iter()
            .zip(q.as_slice())
            .map(|(p, &c)| p * c as f64)
            .sum()
    }

    /// Iterates `(class, price)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.0.iter().copied().enumerate()
    }

    /// The raw prices.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Largest price across classes.
    pub fn max_price(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Rescales all prices so the largest is 1 — useful for display; the
    /// market is invariant to a uniform rescaling.
    pub fn normalized(&self) -> PriceVector {
        let m = self.max_price();
        PriceVector(self.0.iter().map(|p| p / m).collect())
    }
}

impl fmt::Display for PriceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p:.4}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qv(v: &[u64]) -> QuantityVector {
        QuantityVector::from_counts(v.to_vec())
    }

    #[test]
    fn aggregate_matches_paper_example() {
        // §2.2: N1 demand (1,6), N2 demand (1,0) → aggregate (2,6).
        let d1 = qv(&[1, 6]);
        let d2 = qv(&[1, 0]);
        assert_eq!(QuantityVector::aggregate([&d1, &d2]), qv(&[2, 6]));
    }

    #[test]
    fn partial_order_le() {
        assert!(qv(&[1, 1]).le(&qv(&[1, 6])));
        assert!(!qv(&[2, 0]).le(&qv(&[1, 6])));
        // Incomparable pair: neither ≤ holds.
        assert!(!qv(&[2, 0]).le(&qv(&[0, 2])));
        assert!(!qv(&[0, 2]).le(&qv(&[2, 0])));
    }

    #[test]
    fn totals_and_saturating_sub() {
        let d = qv(&[2, 6]);
        let c = qv(&[1, 1]);
        assert_eq!(d.total(), 8);
        assert_eq!(d.saturating_sub(&c), qv(&[1, 5]));
        // Saturation when subtracting more than present.
        assert_eq!(c.saturating_sub(&d), qv(&[0, 0]));
    }

    #[test]
    fn value_product() {
        let p = PriceVector::from_prices(vec![2.0, 0.5]);
        let s = qv(&[3, 4]);
        assert!((p.value_of(&s) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn value_of_zero_vector_is_zero() {
        let p = PriceVector::uniform(5, 1.0);
        assert_eq!(p.value_of(&QuantityVector::zeros(5)), 0.0);
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn mismatched_lengths_panic() {
        let p = PriceVector::uniform(2, 1.0);
        let _ = p.value_of(&qv(&[1, 2, 3]));
    }

    #[test]
    fn accepts_zero_prices() {
        let p = PriceVector::from_prices(vec![1.0, 0.0]);
        assert_eq!(p.get(1), 0.0);
        assert_eq!(p.value_of(&qv(&[5, 9])), 5.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_prices() {
        let _ = PriceVector::from_prices(vec![1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_non_finite_prices() {
        let _ = PriceVector::from_prices(vec![1.0, f64::NAN]);
    }

    #[test]
    fn price_floor_enforced_by_set() {
        let mut p = PriceVector::uniform(1, 1.0);
        p.set(0, -5.0, 0.01);
        assert_eq!(p.get(0), 0.01);
        p.set(0, f64::NAN, 0.01);
        assert_eq!(p.get(0), 0.01);
    }

    #[test]
    fn normalization_scales_max_to_one() {
        let p = PriceVector::from_prices(vec![2.0, 8.0, 4.0]);
        let n = p.normalized();
        assert_eq!(n.as_slice(), &[0.25, 1.0, 0.5]);
    }

    #[test]
    fn component_min() {
        assert_eq!(qv(&[3, 1]).min(&qv(&[2, 5])), qv(&[2, 1]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(qv(&[1, 6]).to_string(), "(1, 6)");
    }
}
