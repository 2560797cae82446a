//! Streaming statistics for experiment measurement.
//!
//! Each figure in the paper is built from per-period aggregates: the number
//! of queries executed per time period and the average query response time
//! (often normalized against QA-NT's). These collectors compute such
//! aggregates in one pass without storing raw samples:
//!
//! * [`Welford`] — numerically stable running mean/variance,
//! * [`LogHistogram`] — power-of-two log-bucket counts with a fixed,
//!   universal bucket layout, so any two instances (including one
//!   reconstructed from a JSON snapshot scraped off another process)
//!   merge exactly — the distribution kind behind the fleet stats scrape,
//! * [`TimeSeries`] — per-period bins of a [`Welford`] plus a counter,
//!   directly matching the paper's "per half second" plots (Fig. 3, 5c).

use crate::json::{Json, ToJson};
use crate::time::SimDuration;

/// Welford's online algorithm for mean and variance.
#[derive(Debug, Clone)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// Same as [`Welford::new`]. (A derived all-zero default would silently
/// corrupt `min`: `0.0.min(x)` sticks at zero for any positive sample.)
impl Default for Welford {
    fn default() -> Self {
        Welford::new()
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance (n-1 denominator), or `None` with fewer than two
    /// observations.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation.
    pub(crate) fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Reconstructs an accumulator from the summary fields its [`ToJson`]
    /// impl exports (`count`/`mean`/`std_dev`/`min`/`max`), so a snapshot
    /// scraped off another process can be [`merge`](Self::merge)d into a
    /// local one. `m2` is recovered as `std_dev² · (n − 1)`; for `n ≤ 1`
    /// the variance is undefined and `m2` is zero by construction.
    pub(crate) fn from_summary(n: u64, mean: f64, std_dev: f64, min: f64, max: f64) -> Welford {
        if n == 0 {
            return Welford::new();
        }
        let m2 = if n > 1 {
            std_dev * std_dev * (n - 1) as f64
        } else {
            0.0
        };
        Welford {
            n,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl ToJson for Welford {
    fn to_json(&self) -> Json {
        crate::json_obj! {
            "count": self.count(),
            "mean": self.mean(),
            "std_dev": self.std_dev(),
            "min": self.min(),
            "max": self.max(),
        }
    }
}

/// Exponent of the smallest finite [`LogHistogram`] bucket bound (`2^-10`).
const LOG_HIST_MIN_EXP: i32 = -10;
/// Exponent of the largest finite [`LogHistogram`] bucket bound (`2^20`).
const LOG_HIST_MAX_EXP: i32 = 20;
/// Number of finite buckets; one overflow bucket follows.
const LOG_HIST_FINITE: usize = (LOG_HIST_MAX_EXP - LOG_HIST_MIN_EXP + 1) as usize;

/// Log-bucket histogram with a *fixed, universal* power-of-two layout.
///
/// Bucket `i` counts observations in `(2^(i-11), 2^(i-10)]` — the finite
/// bounds run from `2^-10 ≈ 0.001` to `2^20 ≈ 1.05e6`, which spans
/// sub-millisecond latencies through million-unit totals in whatever unit
/// the caller records. One overflow bucket sits above. Because the layout
/// never varies, any two `LogHistogram`s merge by adding bucket counts —
/// including one rebuilt from a JSON snapshot scraped from another
/// process ([`from_json`](Self::from_json)). That property is what the
/// fleet stats scrape relies on; a configurable layout would make merges
/// partial functions.
///
/// NaN observations are ignored; zero and negative values land in the
/// first bucket.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    sum: f64,
    total: u64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_HIST_FINITE + 1],
            sum: 0.0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Upper bound of finite bucket `i`, or `None` for the overflow bucket.
    pub fn bucket_bound(i: usize) -> Option<f64> {
        (i < LOG_HIST_FINITE).then(|| 2f64.powi(LOG_HIST_MIN_EXP + i as i32))
    }

    /// The bucket of `x`: the smallest finite bound `2^e ≥ x`, read off the
    /// f64's exponent (plus one unless the mantissa is zero, so an exact
    /// power of two is its own bucket's bound) in constant time.
    fn bucket_index(x: f64) -> usize {
        const MANTISSA: u64 = (1 << 52) - 1;
        const LO: f64 = f64::from_bits(((LOG_HIST_MIN_EXP + 1023) as u64) << 52);
        const HI: f64 = f64::from_bits(((LOG_HIST_MAX_EXP + 1023) as u64) << 52);
        if x <= LO {
            return 0;
        }
        if x > HI || x.is_nan() {
            return LOG_HIST_FINITE;
        }
        // Positive and normal here, so the sign bit is clear.
        let bits = x.to_bits();
        let exp = (bits >> 52) as i32 - 1023;
        let ceil = exp + i32::from(bits & MANTISSA != 0);
        (ceil - LOG_HIST_MIN_EXP) as usize
    }

    /// Records one observation. NaN is ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.counts[Self::bucket_index(x)] += 1;
        self.sum += x;
        self.total += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (the Prometheus `_sum` series).
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    pub(crate) fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Raw bucket counts (last bucket is overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate `q`-quantile (`q` clamped to `[0, 1]`): the upper bound
    /// of the bucket containing it, capped at the observed maximum (the
    /// overflow bucket has no finite upper edge). Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(match Self::bucket_bound(i) {
                    Some(bound) => bound.min(self.max),
                    None => self.max,
                });
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one by adding bucket counts.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Rebuilds a histogram from its [`ToJson`] snapshot (the `buckets`
    /// sparse pairs plus `count`/`sum`/`min`/`max`). Returns `None` on a
    /// malformed snapshot — a bucket index out of range, counts that do
    /// not sum to `count`, or missing fields.
    pub fn from_json(j: &Json) -> Option<LogHistogram> {
        let mut h = LogHistogram::new();
        let total = j.get("count")?.as_u64()?;
        if total == 0 {
            return Some(h);
        }
        let mut acc = 0u64;
        for pair in j.get("buckets")?.as_array()? {
            let pair = pair.as_array()?;
            let [i, c] = pair else { return None };
            let (i, c) = (i.as_u64()? as usize, c.as_u64()?);
            if i >= h.counts.len() {
                return None;
            }
            h.counts[i] += c;
            acc += c;
        }
        if acc != total {
            return None;
        }
        h.total = total;
        h.sum = j.get("sum")?.as_f64()?;
        h.min = j.get("min")?.as_f64()?;
        h.max = j.get("max")?.as_f64()?;
        Some(h)
    }
}

impl ToJson for LogHistogram {
    /// Snapshot: summary fields, `p50`/`p90`/`p99` quantiles, and the
    /// non-empty buckets as sparse `[index, count]` pairs (the part
    /// [`from_json`](LogHistogram::from_json) rebuilds for merging).
    fn to_json(&self) -> Json {
        let sparse: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::Int(i as i64), Json::Int(c as i64)]))
            .collect();
        crate::json_obj! {
            "count": self.count(),
            "sum": self.sum(),
            "min": self.min(),
            "max": self.max(),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": Json::Arr(sparse),
        }
    }
}

/// Per-period time series: bins observations by period index.
///
/// Matches the paper's measurement scheme: "in each time period, we measured
/// the number of queries executed and the average query response time".
#[derive(Debug, Clone)]
pub struct TimeSeries {
    period: SimDuration,
    bins: Vec<Welford>,
}

impl TimeSeries {
    /// A series binned in periods of the given length.
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        TimeSeries {
            period,
            bins: Vec::new(),
        }
    }

    /// The bin length.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Records observation `x` in bin `idx`, for a caller that already
    /// holds the time's [`period_index`](crate::SimTime::period_index).
    pub fn record_in_bin(&mut self, idx: usize, x: f64) {
        if idx >= self.bins.len() {
            self.bins.resize_with(idx + 1, Welford::new);
        }
        self.bins[idx].add(x);
    }

    /// Folds another series into this one, bin by bin (exact Welford
    /// merge per bin). Both series must be binned on the same period —
    /// the sharded engine merges per-shard response series this way.
    ///
    /// # Panics
    /// Panics on mismatched periods.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.period, other.period, "period mismatch in merge");
        if other.bins.len() > self.bins.len() {
            self.bins.resize_with(other.bins.len(), Welford::new);
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    /// Records `x` in the bin of virtual time `at`.
    fn record(ts: &mut TimeSeries, at: SimTime, x: f64) {
        ts.record_in_bin(at.period_index(ts.period) as usize, x);
    }

    /// `(count, mean)` of each bin.
    fn bins(ts: &TimeSeries) -> Vec<(u64, Option<f64>)> {
        ts.bins.iter().map(|w| (w.count(), w.mean())).collect()
    }

    #[test]
    fn time_series_merge_equals_sequential() {
        let period = SimDuration::from_millis(500);
        let mut a = TimeSeries::new(period);
        let mut b = TimeSeries::new(period);
        let mut all = TimeSeries::new(period);
        for i in 0..200u64 {
            let at = SimTime::from_millis(i * 37);
            let x = (i as f64).cos() * 5.0;
            if i % 3 == 0 {
                record(&mut a, at, x);
            } else {
                record(&mut b, at, x);
            }
            record(&mut all, at, x);
        }
        a.merge(&b);
        assert_eq!(a.bins.len(), all.bins.len());
        for ((na, x), (nb, y)) in bins(&a).into_iter().zip(bins(&all)) {
            assert_eq!(na, nb);
            match (x, y) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean().unwrap() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((w.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_empty_is_none() {
        let w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        assert_eq!(w.min(), None);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
            all.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - all.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn welford_to_json_round_trips_fields() {
        let mut w = Welford::new();
        w.add(1.0);
        w.add(3.0);
        let j = w.to_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("mean").unwrap(), &Json::Float(2.0));
        assert_eq!(j.get("min").unwrap(), &Json::Float(1.0));
        assert_eq!(j.get("max").unwrap(), &Json::Float(3.0));
        // Empty accumulators serialize their optionals as null.
        assert_eq!(Welford::new().to_json().get("mean").unwrap(), &Json::Null);
    }

    #[test]
    fn welford_from_summary_round_trips_through_merge() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        let rebuilt = Welford::from_summary(
            w.count(),
            w.mean().unwrap(),
            w.std_dev().unwrap(),
            w.min().unwrap(),
            w.max().unwrap(),
        );
        assert_eq!(rebuilt.count(), w.count());
        assert!((rebuilt.variance().unwrap() - w.variance().unwrap()).abs() < 1e-12);
        // Merging a rebuilt snapshot behaves like merging the original.
        let mut a = w.clone();
        let mut b = w.clone();
        a.merge(&w);
        b.merge(&rebuilt);
        assert_eq!(a.count(), b.count());
        assert!((a.mean().unwrap() - b.mean().unwrap()).abs() < 1e-12);
        assert!((a.variance().unwrap() - b.variance().unwrap()).abs() < 1e-9);
        // Degenerate summaries stay total: empty and single-sample.
        assert_eq!(Welford::from_summary(0, 0.0, 0.0, 0.0, 0.0).mean(), None);
        let one = Welford::from_summary(1, 3.0, 0.0, 3.0, 3.0);
        assert_eq!(one.mean(), Some(3.0));
        assert_eq!(one.variance(), None);
    }

    #[test]
    fn log_histogram_buckets_by_powers_of_two() {
        let mut h = LogHistogram::new();
        h.record(0.5); // (0.25, 0.5]  -> index 9
        h.record(1.0); // (0.5, 1.0]   -> index 10
        h.record(3.0); // (2, 4]       -> index 12
        h.record(0.0); // clamps to bucket 0
        h.record(-5.0); // clamps to bucket 0
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[12], 1);
        assert_eq!(h.min(), Some(-5.0));
        assert_eq!(h.max(), Some(3.0));
        assert!((h.sum() - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_overflow_and_quantiles() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..99 {
            h.record(10.0);
        }
        h.record(5_000_000.0); // beyond 2^20: overflow bucket
        assert_eq!(*h.buckets().last().unwrap(), 1);
        // p50 is the upper edge of 10.0's bucket (2^4 = 16).
        assert_eq!(h.quantile(0.5), Some(16.0));
        // p100 falls in the overflow bucket, answered by the observed max.
        assert_eq!(h.quantile(1.0), Some(5_000_000.0));
        // Quantiles never exceed the observed max even in finite buckets.
        let mut tiny = LogHistogram::new();
        tiny.record(10.0);
        assert_eq!(tiny.quantile(0.5), Some(10.0));
    }

    #[test]
    fn log_histogram_merge_equals_sequential() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..200 {
            let x = ((i * 37) % 1000) as f64 * 0.37;
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.buckets(), all.buckets());
        assert!((a.sum() - all.sum()).abs() < 1e-9);
        assert_eq!(a.quantile(0.9), all.quantile(0.9));
    }

    #[test]
    fn log_histogram_json_round_trips_for_merge() {
        let mut h = LogHistogram::new();
        for x in [0.002, 0.8, 13.0, 13.5, 900.0, 2_000_000.0] {
            h.record(x);
        }
        let j = h.to_json();
        // Quantiles are exported in the snapshot.
        assert!(j.get("p50").unwrap().as_f64().is_some());
        assert!(j.get("p99").unwrap().as_f64().is_some());
        let rebuilt = LogHistogram::from_json(&j).expect("snapshot parses");
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.buckets(), h.buckets());
        assert_eq!(rebuilt.min(), h.min());
        assert_eq!(rebuilt.max(), h.max());
        assert_eq!(rebuilt.quantile(0.5), h.quantile(0.5));
        // Empty histograms round-trip too.
        let empty = LogHistogram::from_json(&LogHistogram::new().to_json()).unwrap();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.5), None);
        // Corrupt snapshots are rejected, not mis-merged.
        assert!(LogHistogram::from_json(&Json::Null).is_none());
        let mut bad = h.to_json();
        if let Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "count" {
                    *v = Json::Int(999);
                }
            }
        }
        assert!(LogHistogram::from_json(&bad).is_none());
    }

    /// The doubling scan the bit-level `bucket_index` replaced.
    fn bucket_index_by_scan(x: f64) -> usize {
        let mut bound = 2f64.powi(LOG_HIST_MIN_EXP);
        for i in 0..LOG_HIST_FINITE {
            if x <= bound {
                return i;
            }
            bound *= 2.0;
        }
        LOG_HIST_FINITE
    }

    #[test]
    fn bucket_index_from_bits_is_the_doubling_scan() {
        let mut xs = vec![
            0.0,
            -0.0,
            -1.0,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for k in -12..=22 {
            let p = 2f64.powi(k);
            xs.extend([p, p.next_down(), p.next_up(), -p, 1.5 * p]);
        }
        let mut rng = crate::DetRng::seed_from_u64(35);
        for _ in 0..10_000 {
            // Log-uniform over the whole layout and a little beyond.
            xs.push(2f64.powf(rng.float_in(-14.0, 24.0)));
            xs.push(rng.float_in(0.0, 4_000.0));
        }
        for x in xs {
            assert_eq!(
                LogHistogram::bucket_index(x),
                bucket_index_by_scan(x),
                "x = {x:e} ({:#018x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn log_histogram_bucket_bounds_are_fixed_layout() {
        assert_eq!(LogHistogram::bucket_bound(0), Some(2f64.powi(-10)));
        assert_eq!(LogHistogram::bucket_bound(10), Some(1.0));
        assert_eq!(LogHistogram::bucket_bound(30), Some(2f64.powi(20)));
        assert_eq!(LogHistogram::bucket_bound(31), None);
        assert_eq!(LogHistogram::new().buckets().len(), 32);
    }

    #[test]
    fn time_series_bins_by_period() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(500));
        record(&mut ts, SimTime::from_millis(0), 1.0);
        record(&mut ts, SimTime::from_millis(499), 3.0);
        record(&mut ts, SimTime::from_millis(500), 10.0);
        record(&mut ts, SimTime::from_millis(1_700), 7.0);
        assert_eq!(
            bins(&ts),
            [(2, Some(2.0)), (1, Some(10.0)), (0, None), (1, Some(7.0))]
        );
    }
}
