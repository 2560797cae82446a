//! Excess demand and competitive equilibrium (Definitions 2 and 3).
//!
//! For prices `p⃗`, the excess demand of class `k` is
//! `zₖ(p⃗) = Σᵢ dᵢₖ − sᵢₖ`: positive when buyers want more class-k queries
//! evaluated than sellers offer, negative when supply exceeds demand. The
//! market is in competitive equilibrium when `z(p⃗*) = 0⃗`, at which point —
//! by the First Theorem of Welfare Economics — the induced allocation is
//! Pareto optimal.

use crate::vectors::QuantityVector;
use std::fmt;

/// A signed per-class vector `z(p⃗) ∈ Z^K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExcessVector(Vec<i64>);

impl ExcessVector {
    /// Builds from raw signed counts.
    pub(crate) fn from_values(values: Vec<i64>) -> Self {
        ExcessVector(values)
    }

    /// `true` iff all components are zero — Definition 3's equilibrium
    /// condition `z(p⃗*) = 0`.
    pub(crate) fn is_zero(&self) -> bool {
        self.0.iter().all(|&z| z == 0)
    }

    /// L1 norm `Σ |zₖ|` — the distance-from-equilibrium measure used by the
    /// tâtonnement convergence tests.
    pub(crate) fn l1_norm(&self) -> u64 {
        self.0.iter().map(|z| z.unsigned_abs()).sum()
    }

    /// Iterates `(class, excess)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.0.iter().copied().enumerate()
    }
}

impl fmt::Display for ExcessVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, z) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{z:+}")?;
        }
        write!(f, ")")
    }
}

/// Computes `z = Σᵢ (d⃗ᵢ − s⃗ᵢ)` from per-node demand and supply vectors
/// (Definition 2).
pub(crate) fn excess_demand(
    demands: &[QuantityVector],
    supplies: &[QuantityVector],
) -> ExcessVector {
    assert_eq!(demands.len(), supplies.len(), "node count mismatch");
    assert!(!demands.is_empty(), "empty economy");
    let d = QuantityVector::aggregate(demands);
    let s = QuantityVector::aggregate(supplies);
    assert_eq!(d.num_classes(), s.num_classes(), "class count mismatch");
    ExcessVector(
        d.iter()
            .zip(s.iter())
            .map(|((_, dk), (_, sk))| dk as i64 - sk as i64)
            .collect(),
    )
}

/// `true` iff the given demand/supply profile is a competitive equilibrium
/// (Definition 3).
pub fn is_equilibrium(demands: &[QuantityVector], supplies: &[QuantityVector]) -> bool {
    excess_demand(demands, supplies).is_zero()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qv(v: &[u64]) -> QuantityVector {
        QuantityVector::from_counts(v.to_vec())
    }

    #[test]
    fn excess_demand_of_paper_example() {
        // Demand aggregate (2,6); LB supply aggregate (2,1): z = (0, +5).
        let demands = [qv(&[1, 6]), qv(&[1, 0])];
        let lb_supplies = [qv(&[1, 1]), qv(&[1, 0])];
        let z = excess_demand(&demands, &lb_supplies);
        assert_eq!(z, ExcessVector::from_values(vec![0, 5]));
        assert!(!z.is_zero());
        assert_eq!(z.l1_norm(), 5);
    }

    #[test]
    fn oversupply_is_negative() {
        let demands = [qv(&[1, 0])];
        let supplies = [qv(&[3, 0])];
        let z = excess_demand(&demands, &supplies);
        assert_eq!(z, ExcessVector::from_values(vec![-2, 0]));
    }

    #[test]
    fn equilibrium_detection() {
        let demands = [qv(&[2, 3]), qv(&[1, 0])];
        let supplies = [qv(&[0, 3]), qv(&[3, 0])];
        assert!(is_equilibrium(&demands, &supplies));
        let short = [qv(&[0, 3]), qv(&[2, 0])];
        assert!(!is_equilibrium(&demands, &short));
    }

    #[test]
    fn l1_norm_counts_both_signs() {
        let z = ExcessVector::from_values(vec![-3, 4, 0]);
        assert_eq!(z.l1_norm(), 7);
    }

    #[test]
    fn display_shows_signs() {
        let z = ExcessVector::from_values(vec![-1, 2]);
        assert_eq!(z.to_string(), "(-1, +2)");
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn mismatched_nodes_panic() {
        let _ = excess_demand(&[qv(&[1])], &[]);
    }
}
