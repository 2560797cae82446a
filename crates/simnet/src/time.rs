//! Virtual time.
//!
//! The simulator runs on a virtual clock that only advances when events are
//! processed. [`SimTime`] is an absolute instant, [`SimDuration`] a span;
//! both are newtypes over microsecond counts so they cannot be confused with
//! each other or with raw integers. The paper's time period `T` (500 ms by
//! default) and all query execution times are expressed as [`SimDuration`]s.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the virtual clock, in microseconds since the start
/// of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// A time far beyond any practical simulation horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from microseconds since the origin.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from milliseconds since the origin.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole seconds since the origin.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the origin as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The index of the fixed-length period containing this instant.
    ///
    /// The paper divides time into periods `τ` of length `T`; period 0 covers
    /// `[0, T)`, period 1 covers `[T, 2T)`, and so on.
    pub fn period_index(self, period: SimDuration) -> u64 {
        assert!(period.0 > 0, "period length must be positive");
        self.0 / period.0
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e6).round() as u64)
    }

    /// Builds a span from fractional milliseconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` iff the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that can happen.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl crate::json::ToJson for SimTime {
    /// Serializes as microseconds since the origin.
    fn to_json(&self) -> crate::json::Json {
        crate::json::ToJson::to_json(&self.0)
    }
}

impl crate::json::ToJson for SimDuration {
    /// Serializes as microseconds.
    fn to_json(&self) -> crate::json::Json {
        crate::json::ToJson::to_json(&self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.0 as f64 / 1e3)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(500).as_micros(), 500_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis(1).as_micros(), 1_000);
        assert!((SimDuration::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn float_construction_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_micros(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(2.5).as_micros(), 2_500);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(400);
        assert_eq!(t + d, SimTime::from_millis(500));
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 2, SimDuration::from_millis(800));
        assert_eq!(d / 4, SimDuration::from_millis(100));
        assert_eq!(d * 0.5, SimDuration::from_millis(200));
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = SimTime::from_millis(100);
        let b = SimTime::from_millis(300);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(200));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn checked_subtraction_panics_on_underflow() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn period_index_matches_paper_semantics() {
        let t_period = SimDuration::from_millis(500);
        assert_eq!(SimTime::ZERO.period_index(t_period), 0);
        assert_eq!(SimTime::from_millis(499).period_index(t_period), 0);
        assert_eq!(SimTime::from_millis(500).period_index(t_period), 1);
        assert_eq!(SimTime::from_millis(1_250).period_index(t_period), 2);
    }

    #[test]
    fn addition_saturates_instead_of_overflowing() {
        let t = SimTime::MAX;
        assert_eq!(t + SimDuration::from_secs(1), SimTime::MAX);
    }
}
