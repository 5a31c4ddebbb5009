//! Order statistics with a sample-count guard.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; with fewer, one outlier decides the value and two runs of
//! the same code disagree. Every reported timing carries its sample
//! count so a reader can see how much data stands behind it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A set of timings (or rates) in one unit, kept for order statistics.
///
/// A bounded set keeps every `stride`-th sample and, when full, drops
/// every other kept sample and doubles the stride: memory stays fixed
/// (so the benchmark's own bookkeeping does not grow the peak RSS it
/// reports) while the kept samples still cover the whole run evenly.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Most samples kept (0 = unbounded).
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Samples {
    /// An empty, unbounded set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set that keeps at most `cap` (≥ 2) samples.
    pub fn bounded(cap: usize) -> Self {
        Self {
            values: Vec::with_capacity(cap),
            cap: cap.max(2),
            stride: 1,
            seen: 0,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.cap == 0 {
            self.values.push(value);
            return;
        }
        if (self.seen - 1).is_multiple_of(self.stride) {
            self.values.push(value);
            if self.values.len() >= self.cap {
                let mut keep = 0;
                self.values.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                self.stride *= 2;
            }
        }
    }

    /// Samples offered to [`Samples::push`], kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of samples kept.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }

    /// The nearest-rank `p`-th percentile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond its rank.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        guarded_percentile(&self.values, p)
    }

    /// The guarded median.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Interquartile range over the median, the spread measure the
    /// benchmark's steadiness rule uses (`None` under the guard).
    pub fn quartile_spread(&self) -> Option<f64> {
        let q1 = self.percentile(25.0)?;
        let q3 = self.percentile(75.0)?;
        let median = self.median()?;
        (median != 0.0).then(|| (q3 - q1) / median)
    }
}

/// Nearest-rank percentile of `values` (`0 < p < 100`), refusing ranks
/// with fewer than [`MIN_BEYOND`] samples above them.
pub fn guarded_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let n = values.len();
    // 1-based nearest rank: the smallest value with at least p% of the
    // samples at or below it.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(ramp(100).percentile(90.0), Some(90.0));
        // With 99 samples rank 90 leaves nine beyond: refused.
        assert_eq!(ramp(99).percentile(90.0), None);
        // p99 needs a thousand samples.
        assert_eq!(ramp(999).percentile(99.0), None);
        assert_eq!(ramp(1000).percentile(99.0), Some(990.0));
    }

    #[test]
    fn median_is_guarded_too() {
        assert_eq!(ramp(19).median(), None);
        assert_eq!(ramp(20).median(), Some(10.0));
        assert_eq!(ramp(21).median(), Some(11.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0].repeat(10) {
            s.push(v);
        }
        assert_eq!(s.median(), Some(3.0));
    }

    #[test]
    fn degenerate_inputs_are_refused() {
        assert_eq!(Samples::new().median(), None);
        assert_eq!(ramp(100).percentile(0.0), None);
        assert_eq!(ramp(100).percentile(100.0), None);
        assert_eq!(ramp(100).percentile(f64::NAN), None);
    }

    #[test]
    fn bounded_sets_thin_evenly() {
        let mut s = Samples::bounded(100);
        for i in 0..10_000 {
            s.push(f64::from(i));
        }
        assert_eq!(s.seen(), 10_000);
        assert!(s.len() < 100 && s.len() >= 50, "{}", s.len());
        let median = s.median().unwrap();
        assert!((median - 5_000.0).abs() < 200.0, "{median}");
    }

    #[test]
    fn quartile_spread_is_relative() {
        let s = ramp(100);
        let spread = s.quartile_spread().unwrap();
        assert!((spread - 50.0 / 50.0).abs() < 1e-12, "{spread}");
    }
}
