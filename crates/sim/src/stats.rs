//! Measurement statistics: streaming summaries, percentile distributions,
//! tail histograms and time-weighted averages.
//!
//! The performance framework reports RTT distributions as mean plus
//! 1/25/75/99-percentiles (paper Fig. 6); [`Distribution`] captures exactly
//! that from retained samples. [`Histogram`] keeps the same percentiles
//! within a fixed 2⁻⁸ relative error in bounded memory, and merges exactly,
//! for streams too long to retain. [`Summary`] is a constant-space Welford
//! accumulator for high-volume streams, and [`TimeWeighted`] integrates
//! piecewise-constant signals (utilization, queue depth) over virtual time.

use crate::time::{SimDuration, SimTime};

/// Constant-space streaming summary (Welford's algorithm).
///
/// ```
/// use pictor_sim::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] { s.record(x); }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
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

    /// Sample mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (zero for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A sample-retaining distribution with percentile queries.
///
/// Used for the latency distributions the paper plots (mean, 1%, 25%, 75%,
/// 99% tiles).
///
/// ```
/// use pictor_sim::Distribution;
/// let d: Distribution = (1..=100).map(|v| v as f64).collect();
/// assert_eq!(d.percentile(50.0), 50.5);
/// assert_eq!(d.percentile(99.0), 99.01);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Distribution {
    samples: Vec<f64>,
    sorted: bool,
}

impl Distribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Distribution {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Records a duration in milliseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN by invariant"));
            self.sorted = true;
        }
    }

    /// Linear-interpolated percentile `p` in `[0, 100]`.
    ///
    /// Returns zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN by invariant"));
        percentile_sorted(&sorted, p)
    }

    /// Percentile query that sorts in place once — preferred when issuing many
    /// queries against a finished distribution.
    pub fn percentile_mut(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        percentile_sorted(&self.samples, p)
    }

    /// The five-point summary the paper plots: (mean, p1, p25, p75, p99).
    pub fn five_point(&mut self) -> FivePoint {
        FivePoint {
            mean: self.mean(),
            p1: self.percentile_mut(1.0),
            p25: self.percentile_mut(25.0),
            p75: self.percentile_mut(75.0),
            p99: self.percentile_mut(99.0),
        }
    }

    /// Immutable view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for Distribution {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut d = Distribution::new();
        for x in iter {
            d.record(x);
        }
        d
    }
}

impl Extend<f64> for Distribution {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The five-point latency summary plotted in the paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FivePoint {
    /// Sample mean.
    pub mean: f64,
    /// 1st percentile.
    pub p1: f64,
    /// 25th percentile.
    pub p25: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Right shift from a positive `f64` bit pattern to its bucket: the
/// exponent plus the top 7 mantissa bits, i.e. 128 linear sub-buckets per
/// power of two.
const KEY_SHIFT: u32 = 52 - 7;

/// Midpoint of bucket `b`: its lower bound with the next mantissa bit set.
fn midpoint(b: usize) -> f64 {
    f64::from_bits((b as u64) << KEY_SHIFT | 1 << (KEY_SHIFT - 1))
}

/// Log-linear bucketed histogram in the HdrHistogram style: the tail
/// summary behind every fleet, daemon and load-swarm percentile.
///
/// The bucket layout is fixed: each power of two splits into 128 linear
/// sub-buckets, and zero has its own exact bucket. Counts are integers over
/// the occupied bucket range only; count, min and max are exact. So the
/// histogram does not depend on record order, and [`Histogram::merge`] is
/// exact: any split of a stream, merged in any order, equals (`==`) one
/// pass over the whole stream.
///
/// [`Histogram::quantile`] interpolates at rank `(n − 1)q`, the rank
/// arithmetic of [`Distribution::percentile`], and reads each order
/// statistic as its bucket's midpoint clamped to `[min, max]`. Every
/// quantile of normal (non-subnormal) values is therefore within 2⁻⁸
/// (0.39%) of the exact percentile of the same samples.
///
/// ```
/// use pictor_sim::Histogram;
/// let mut a: Histogram = (1..=50).map(|v| v as f64).collect();
/// let b: Histogram = (51..=100).map(|v| v as f64).collect();
/// a.merge(&b);
/// assert_eq!(a, (1..=100).map(|v| v as f64).collect());
/// assert_eq!((a.count(), a.min(), a.max()), (100, 1.0, 100.0));
/// assert!((a.p50() - 50.5).abs() <= 50.5 / 256.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Exact zeros.
    zeros: u64,
    /// Bucket of `counts[0]`.
    first: usize,
    /// Counts of the positive buckets `first..first + counts.len()`; both
    /// ends nonzero.
    counts: Vec<u64>,
    n: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            zeros: 0,
            first: 0,
            counts: Vec::new(),
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN, infinite or negative.
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Records `n` observations of `x` at once, the way HdrHistogram's
    /// `recordValueWithCount` does: the result equals (`==`) `n` calls to
    /// [`record`](Self::record), and `n = 0` leaves the histogram
    /// unchanged.
    ///
    /// ```
    /// use pictor_sim::Histogram;
    /// let mut weighted = Histogram::new();
    /// weighted.record_n(30.0, 4);
    /// weighted.record_n(60.0, 0);
    /// assert_eq!(weighted, [30.0; 4].into_iter().collect());
    /// assert_eq!((weighted.count(), weighted.max()), (4, 30.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN, infinite or negative, even when `n` is zero.
    #[inline]
    pub fn record_n(&mut self, x: f64, n: u64) {
        assert!(
            (0.0..f64::INFINITY).contains(&x),
            "histogram records finite nonnegative values, got {x}"
        );
        if n == 0 {
            return;
        }
        // Fold -0.0 into 0.0 so min/max bits cannot depend on order.
        let x = x.abs();
        if x == 0.0 {
            self.zeros += n;
        } else {
            let b = (x.to_bits() >> KEY_SHIFT) as usize;
            self.cover(b, b);
            self.counts[b - self.first] += n;
        }
        self.n += n;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every observation of `other` (exact).
    pub fn merge(&mut self, other: &Histogram) {
        if !other.counts.is_empty() {
            self.cover(other.first, other.first + other.counts.len() - 1);
            let offset = other.first - self.first;
            for (c, o) in self.counts[offset..].iter_mut().zip(&other.counts) {
                *c += o;
            }
        }
        self.zeros += other.zeros;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Widens the stored range to cover buckets `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.first = lo;
        } else if lo < self.first {
            self.counts
                .splice(0..0, std::iter::repeat_n(0, self.first - lo));
            self.first = lo;
        }
        if hi >= self.first + self.counts.len() {
            self.counts.resize(hi + 1 - self.first, 0);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Linear-interpolated quantile `q` in `[0, 1]` (zero when empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * (self.n - 1) as f64;
        let lo = rank.floor() as u64;
        let at_lo = self.order_stat(lo);
        if rank == lo as f64 {
            return at_lo;
        }
        // a + frac*(b-a): a constant stream reads back bit-for-bit.
        at_lo + (rank - lo as f64) * (self.order_stat(lo + 1) - at_lo)
    }

    /// The `k`-th smallest observation (0-based), read as its bucket's
    /// midpoint clamped to the exact `[min, max]`.
    fn order_stat(&self, k: u64) -> f64 {
        if k < self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > k {
                return midpoint(self.first + i).clamp(self.min, self.max);
            }
        }
        unreachable!("rank {k} beyond {} observations", self.n)
    }

    /// Median (zero when empty).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile (zero when empty).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile (zero when empty).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Minimum observation (zero when empty, matching the JSON emitters).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (zero when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<f64> for Histogram {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for x in iter {
            h.record(x);
        }
        h
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// ```
/// use pictor_sim::{SimTime, TimeWeighted};
/// use pictor_sim::SimDuration;
/// let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
/// u.set(SimTime::ZERO + SimDuration::from_millis(10), 1.0);
/// let avg = u.average(SimTime::ZERO + SimDuration::from_millis(20));
/// assert!((avg - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: SimTime,
    last_time: SimTime,
    value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Starts integrating from `start` with initial `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            start,
            last_time: start,
            value,
            integral: 0.0,
        }
    }

    /// Updates the signal to `value` at time `t`.
    pub fn set(&mut self, t: SimTime, value: f64) {
        let dt = t.saturating_since(self.last_time).as_nanos() as f64;
        self.integral += self.value * dt;
        self.last_time = t;
        self.value = value;
    }

    /// Adds `delta` to the current value at time `t`.
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(t, v);
    }

    /// Current value of the signal.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Average value over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.start).as_nanos() as f64;
        if span == 0.0 {
            return self.value;
        }
        let pending = self.value * now.saturating_since(self.last_time).as_nanos() as f64;
        (self.integral + pending) / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(3.0);
        let b = Summary::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Summary::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let d: Distribution = (0..=10).map(|v| v as f64).collect();
        assert_eq!(d.percentile(0.0), 0.0);
        assert_eq!(d.percentile(100.0), 10.0);
        assert_eq!(d.percentile(50.0), 5.0);
        assert_eq!(d.percentile(25.0), 2.5);
    }

    #[test]
    fn percentile_singleton() {
        let d: Distribution = std::iter::once(7.0).collect();
        assert_eq!(d.percentile(1.0), 7.0);
        assert_eq!(d.percentile(99.0), 7.0);
    }

    #[test]
    fn percentile_empty_is_zero() {
        let d = Distribution::new();
        assert_eq!(d.percentile(50.0), 0.0);
        assert!(d.is_empty());
    }

    #[test]
    fn five_point_ordering() {
        let mut d: Distribution = (0..1000).map(|v| v as f64).collect();
        let fp = d.five_point();
        assert!(fp.p1 <= fp.p25 && fp.p25 <= fp.p75 && fp.p75 <= fp.p99);
        assert!((fp.mean - 499.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        let mut d = Distribution::new();
        d.record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        let d: Distribution = std::iter::once(1.0).collect();
        let _ = d.percentile(101.0);
    }

    #[test]
    fn record_duration_converts_to_ms() {
        let mut d = Distribution::new();
        d.record_duration(SimDuration::from_micros(1500));
        assert_eq!(d.samples(), &[1.5]);
    }

    #[test]
    fn time_weighted_average() {
        let t0 = SimTime::ZERO;
        let mut u = TimeWeighted::new(t0, 2.0);
        u.set(t0 + SimDuration::from_millis(10), 4.0);
        u.add(t0 + SimDuration::from_millis(20), -3.0);
        assert_eq!(u.value(), 1.0);
        // 2.0 for 10ms, 4.0 for 10ms, 1.0 for 10ms => avg over 30ms = 7/3.
        let avg = u.average(t0 + SimDuration::from_millis(30));
        assert!((avg - 7.0 / 3.0).abs() < 1e-12, "avg={avg}");
    }

    #[test]
    fn time_weighted_at_start_returns_value() {
        let u = TimeWeighted::new(SimTime::ZERO, 3.5);
        assert_eq!(u.average(SimTime::ZERO), 3.5);
    }

    #[test]
    fn extend_and_collect() {
        let mut d = Distribution::new();
        d.extend([1.0, 2.0]);
        assert_eq!(d.len(), 2);
        assert!((d.mean() - 1.5).abs() < 1e-12);
    }
}
