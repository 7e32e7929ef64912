//! Exact order statistics over collected samples.
//!
//! Every percentile the benchmark reports comes from the full sorted
//! sample set (nearest-rank definition), never from a streaming estimator:
//! two runs can then be compared sample for sample, and merging two sample
//! sets is plain concatenation.

/// A set of samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn from_vec(values: Vec<f64>) -> Self {
        Samples {
            values,
            sorted: false,
        }
    }

    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "sample {v} is not finite");
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`): the smallest sample
    /// with at least `q · n` samples at or below it. NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.values.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
}

/// Median of a small list of values (NaN when empty).
pub fn median_of(values: &[f64]) -> f64 {
    Samples::from_vec(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_feeds() {
        let mut s = Samples::from_vec((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.01), 1.0);
        let mut one = Samples::from_vec(vec![7.0]);
        assert_eq!(one.median(), 7.0);
        assert_eq!(one.p99(), 7.0);
        assert!(Samples::new().median().is_nan());
    }

    #[test]
    fn unsorted_input_and_pushes_after_a_query() {
        let mut s = Samples::from_vec(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), 3.0);
        s.push(0.0);
        s.push(0.5);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.len(), 7);
    }

    /// Two equal-count parts at 10 µs and 1000 µs: the true p99 is 1000.
    /// A count-weighted mean of per-part estimates would say 505.
    #[test]
    fn merged_parts_keep_the_true_tail() {
        let mut merged = Samples::from_vec([vec![10.0; 5000], vec![1000.0; 5000]].concat());
        assert_eq!(merged.p99(), 1000.0);
        assert_eq!(merged.median(), 10.0);
        assert_eq!(merged.quantile(0.5001), 1000.0);
    }

    #[test]
    fn median_of_small_lists() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
