//! Arrival processes (§5.1 workloads).
//!
//! * [`SinusoidProcess`] — the first experiment set: query arrival rates
//!   follow a sinusoid waveform (Fig. 3). The paper's canonical setup is
//!   two classes, Q1 and Q2, with a 90° phase difference and peak Q1 rate
//!   twice Q2's; frequency 0.05–2 Hz and amplitude 10–300 % of system
//!   capacity are swept in Figures 5a/5b.
//! * [`ZipfProcess`] — the second experiment set (Fig. 6): 10 000 queries
//!   in 100 classes, per-class inter-arrival times zipf-distributed with
//!   `a = 1`, capped at 30 s, mean swept from 10 ms to 20 s.
//!
//! Each process generates `(time, class)` pairs; [`crate::trace::Trace`]
//! attaches origins and ids.

use crate::ids::ClassId;
use qa_simnet::{DetRng, SimDuration, SimTime, Zipf};

/// Generates raw `(arrival time, class)` pairs over a horizon.
pub trait ArrivalProcess {
    /// Generates all arrivals in `[0, horizon)`.
    fn generate(&self, horizon: SimTime, rng: &mut DetRng) -> Vec<(SimTime, ClassId)>;
}

/// A non-homogeneous Poisson process whose rate follows a raised sinusoid:
///
/// `rate(t) = peak/2 · (1 + sin(2π·f·t + φ))`  queries/second,
///
/// oscillating between 0 and `peak`. Sampled by thinning against the
/// constant bound `peak`.
#[derive(Debug, Clone, PartialEq)]
pub struct SinusoidProcess {
    /// The class every arrival belongs to.
    pub(crate) class: ClassId,
    /// Waveform frequency in Hz (paper sweeps 0.05–2 Hz).
    pub(crate) frequency_hz: f64,
    /// Peak arrival rate in queries/second.
    pub(crate) peak_rate_per_sec: f64,
    /// Phase offset in radians (Q2 uses 90° = π/2 in the paper).
    pub(crate) phase_rad: f64,
}

impl SinusoidProcess {
    /// Validated constructor.
    ///
    /// # Panics
    /// Panics on non-positive frequency or rate.
    pub fn new(class: ClassId, frequency_hz: f64, peak_rate_per_sec: f64, phase_rad: f64) -> Self {
        assert!(frequency_hz.is_finite() && frequency_hz > 0.0);
        assert!(peak_rate_per_sec.is_finite() && peak_rate_per_sec > 0.0);
        SinusoidProcess {
            class,
            frequency_hz,
            peak_rate_per_sec,
            phase_rad,
        }
    }

    /// Instantaneous rate at time `t` (queries/second).
    pub(crate) fn rate_at(&self, t: SimTime) -> f64 {
        let x = 2.0 * std::f64::consts::PI * self.frequency_hz * t.as_secs_f64() + self.phase_rad;
        self.peak_rate_per_sec / 2.0 * (1.0 + x.sin())
    }

    /// The paper's canonical two-class sinusoid workload: Q1 (class 0) at
    /// `peak_q1` queries/s and Q2 (class 1) at half that, 90° out of phase.
    pub fn paper_pair(
        frequency_hz: f64,
        peak_q1_per_sec: f64,
    ) -> (SinusoidProcess, SinusoidProcess) {
        (
            SinusoidProcess::new(ClassId(0), frequency_hz, peak_q1_per_sec, 0.0),
            SinusoidProcess::new(
                ClassId(1),
                frequency_hz,
                peak_q1_per_sec / 2.0,
                std::f64::consts::FRAC_PI_2,
            ),
        )
    }
}

impl ArrivalProcess for SinusoidProcess {
    fn generate(&self, horizon: SimTime, rng: &mut DetRng) -> Vec<(SimTime, ClassId)> {
        // Thinning (Lewis & Shedler): candidate arrivals at the bounding
        // rate `peak`, each kept with probability rate(t)/peak.
        let mut out = Vec::new();
        let mut t = 0.0_f64; // seconds
        let horizon_s = horizon.as_secs_f64();
        let bound = self.peak_rate_per_sec;
        loop {
            t += -((1.0 - rng.unit()).ln()) / bound;
            if t >= horizon_s {
                break;
            }
            let at = SimTime::from_micros((t * 1e6) as u64);
            if rng.unit() < self.rate_at(at) / bound {
                out.push((at, self.class));
            }
        }
        out
    }
}

/// Per-class zipf inter-arrival process (Fig. 6 workload).
///
/// The paper: "The inter-arrival time of queries belonging to the same
/// query class followed a zipf distribution with parameter a = 1. The
/// maximum inter-arrival time between two queries was constrained to
/// 30,000 ms and the \[minimum\] inter-arrival time was varied from 10 ms to
/// 20,000 ms." Gaps are drawn over `num_slots` values spaced linearly on
/// `[min_gap, max_gap]` with zipf(a) rank probabilities — rank 1 (= the
/// minimum gap) carries the most mass, so small `min_gap` makes classes
/// fiercely bursty while `min_gap → max_gap` smooths the process out.
#[derive(Debug, Clone)]
pub struct ZipfProcess {
    /// Number of classes; arrivals are generated independently per class.
    pub(crate) num_classes: usize,
    /// Zipf exponent (paper: `a = 1`).
    pub(crate) exponent: f64,
    /// Minimum inter-arrival gap (the paper's swept x-axis).
    pub(crate) min_gap: SimDuration,
    /// Maximum inter-arrival gap (paper: 30 000 ms).
    pub(crate) max_gap: SimDuration,
    /// Zipf support size (number of distinct gap "slots").
    pub(crate) num_slots: usize,
}

impl ZipfProcess {
    /// The Fig. 6 defaults for a given per-class *minimum* gap.
    pub fn paper(num_classes: usize, min_gap: SimDuration) -> Self {
        ZipfProcess {
            num_classes,
            exponent: 1.0,
            min_gap,
            max_gap: SimDuration::from_millis(30_000),
            num_slots: 100,
        }
    }

    /// The gap value of a 1-based rank: linear interpolation between
    /// `min_gap` (rank 1) and `max_gap` (rank `num_slots`), in seconds.
    fn gap_of_rank(&self, rank: usize) -> f64 {
        let lo = self.min_gap.as_secs_f64();
        let hi = self.max_gap.as_secs_f64().max(lo);
        if self.num_slots <= 1 {
            return lo;
        }
        lo + (rank - 1) as f64 / (self.num_slots - 1) as f64 * (hi - lo)
    }

    /// The process's mean gap in seconds (for horizon sizing).
    pub fn mean_gap_secs(&self) -> f64 {
        let zipf = Zipf::new(self.num_slots, self.exponent);
        (1..=self.num_slots)
            .map(|k| self.gap_of_rank(k) * zipf.pmf(k))
            .sum()
    }
}

impl ArrivalProcess for ZipfProcess {
    fn generate(&self, horizon: SimTime, rng: &mut DetRng) -> Vec<(SimTime, ClassId)> {
        assert!(self.num_classes > 0);
        assert!(self.min_gap <= self.max_gap);
        let zipf = Zipf::new(self.num_slots, self.exponent);
        let mut out = Vec::new();
        for c in 0..self.num_classes {
            let class = ClassId(c as u32);
            // Random initial offset desynchronizes classes.
            let mut t = rng.unit() * self.max_gap.as_secs_f64();
            while t < horizon.as_secs_f64() {
                out.push((SimTime::from_micros((t * 1e6) as u64), class));
                t += self.gap_of_rank(zipf.sample_rank(rng));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(0xA221)
    }

    #[test]
    fn sinusoid_rate_oscillates_between_zero_and_peak() {
        let p = SinusoidProcess::new(ClassId(0), 0.05, 10.0, 0.0);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for ms in (0..40_000).step_by(100) {
            let r = p.rate_at(SimTime::from_millis(ms));
            min = min.min(r);
            max = max.max(r);
        }
        assert!((0.0..0.5).contains(&min), "min {min}");
        assert!(max > 9.5 && max <= 10.0, "max {max}");
    }

    #[test]
    fn sinusoid_counts_follow_waveform() {
        // One 20 s cycle at 0.05 Hz: arrivals in the high half-cycle must
        // far exceed the low half-cycle.
        let p = SinusoidProcess::new(ClassId(0), 0.05, 50.0, 0.0);
        let mut r = rng();
        let arrivals = p.generate(SimTime::from_secs(20), &mut r);
        assert!(!arrivals.is_empty());
        // phase 0: sin positive on (0,10)s, negative on (10,20)s.
        let first_half = arrivals
            .iter()
            .filter(|(t, _)| t.as_secs_f64() < 10.0)
            .count();
        let second_half = arrivals.len() - first_half;
        assert!(
            first_half as f64 > 2.0 * second_half as f64,
            "first {first_half} second {second_half}"
        );
    }

    #[test]
    fn sinusoid_mean_rate_is_half_peak() {
        let p = SinusoidProcess::new(ClassId(0), 0.5, 40.0, 0.0);
        let mut r = rng();
        // 100 s = 50 full cycles: expected 40/2 × 100 = 2 000 arrivals.
        let n = p.generate(SimTime::from_secs(100), &mut r).len();
        assert!((1_800..2_200).contains(&n), "n {n}");
    }

    #[test]
    fn paper_pair_has_phase_and_amplitude_relation() {
        let (q1, q2) = SinusoidProcess::paper_pair(0.05, 8.0);
        assert_eq!(q1.class, ClassId(0));
        assert_eq!(q2.class, ClassId(1));
        assert!((q1.peak_rate_per_sec - 2.0 * q2.peak_rate_per_sec).abs() < 1e-12);
        assert!((q2.phase_rad - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        // At t = 0, Q2 is at its... sin(π/2)=1 → peak; Q1 at mid.
        assert!((q2.rate_at(SimTime::ZERO) - q2.peak_rate_per_sec).abs() < 1e-9);
        assert!((q1.rate_at(SimTime::ZERO) - q1.peak_rate_per_sec / 2.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_empirical_mean_matches_formula() {
        let p = ZipfProcess::paper(1, SimDuration::from_millis(500));
        let expected = p.mean_gap_secs();
        let mut r = rng();
        let arrivals = p.generate(SimTime::from_secs(3_000), &mut r);
        assert!(arrivals.len() > 200, "len {}", arrivals.len());
        let mut times: Vec<f64> = arrivals.iter().map(|(t, _)| t.as_secs_f64()).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (mean - expected).abs() < 0.2 * expected,
            "mean gap {mean}s vs {expected}s"
        );
    }

    #[test]
    fn zipf_gaps_bounded_by_min_and_max() {
        let p = ZipfProcess::paper(1, SimDuration::from_millis(5_000));
        let mut r = rng();
        let arrivals = p.generate(SimTime::from_secs(2_000), &mut r);
        let times: Vec<f64> = arrivals.iter().map(|(t, _)| t.as_secs_f64()).collect();
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            assert!((5.0 - 1e-6..=30.0 + 1e-6).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn smaller_min_gap_is_burstier() {
        let tight = ZipfProcess::paper(1, SimDuration::from_millis(10));
        let loose = ZipfProcess::paper(1, SimDuration::from_millis(20_000));
        let mut r1 = rng();
        let mut r2 = rng();
        let horizon = SimTime::from_secs(1_000);
        let a = tight.generate(horizon, &mut r1).len();
        let b = loose.generate(horizon, &mut r2).len();
        assert!(a > 3 * b, "tight {a} vs loose {b}");
    }

    #[test]
    fn zipf_generates_all_classes() {
        let p = ZipfProcess::paper(10, SimDuration::from_millis(500));
        let mut r = rng();
        let arrivals = p.generate(SimTime::from_secs(200), &mut r);
        for c in 0..10 {
            assert!(
                arrivals.iter().any(|(_, cl)| *cl == ClassId(c)),
                "class {c} missing"
            );
        }
    }

    #[test]
    fn zipf_gaps_respect_cap() {
        let p = ZipfProcess::paper(1, SimDuration::from_millis(20_000));
        let mut r = rng();
        let arrivals = p.generate(SimTime::from_secs(3_000), &mut r);
        let times: Vec<f64> = arrivals.iter().map(|(t, _)| t.as_secs_f64()).collect();
        for w in times.windows(2) {
            assert!(
                w[1] - w[0] <= 30.0 + 1e-6,
                "gap {} exceeds cap",
                w[1] - w[0]
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = SinusoidProcess::new(ClassId(0), 0.05, 10.0, 0.0);
        let a = p.generate(SimTime::from_secs(20), &mut rng());
        let b = p.generate(SimTime::from_secs(20), &mut rng());
        assert_eq!(a, b);
    }
}
