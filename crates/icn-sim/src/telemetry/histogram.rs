//! Log-bucketed (HDR-style) histograms with bounded memory.
//!
//! A [`Histogram`] records `u64` samples into buckets whose width grows
//! geometrically: values below `2^p` (where `p` is the *precision*, the
//! number of sub-bucket bits) are stored exactly, and every octave above
//! that is split into `2^p` linear sub-buckets. Memory is therefore
//! bounded by `(64 − p + 1) · 2^p` counters regardless of how many samples
//! are recorded — a run of a billion cycles costs the same few kilobytes
//! as a run of a thousand.
//!
//! ## Error bound
//!
//! A bucket covering `[lo, lo + 2^s)` only exists for values `≥ 2^(p+s)`,
//! and quantiles report the bucket midpoint, so the reported value differs
//! from the exact nearest-rank sample by at most half a bucket width:
//! a **relative error ≤ 2^−(p+1)** (values below `2^p` are exact). The
//! default precision of 7 bits bounds the error at 1/256 ≈ 0.4%, which is
//! asserted against exact nearest-rank quantiles by a million-sample
//! property test in `tests/telemetry.rs`.

use serde::{Deserialize, Serialize};

/// Default sub-bucket precision (bits): relative error ≤ 2⁻⁸ ≈ 0.4%.
pub const DEFAULT_PRECISION: u32 = 7;

/// A log-bucketed histogram of `u64` samples (latencies in cycles, queue
/// depths, …) with O(1) record, mergeable, and memory bounded at any run
/// length. See the module docs for the bucketing scheme and error bound.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Sub-bucket bits `p`; relative quantile error is ≤ `2^−(p+1)`.
    precision: u32,
    /// Total samples recorded.
    count: u64,
    /// Sum of all samples (exact; latencies in cycles cannot overflow a
    /// `u64` sum until ~10¹⁹ sample-cycles).
    sum: u64,
    /// Smallest sample seen (`u64::MAX` while empty).
    min: u64,
    /// Largest sample seen.
    max: u64,
    /// Dense bucket counters, grown lazily to the highest index touched.
    counts: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(DEFAULT_PRECISION)
    }
}

impl Histogram {
    /// An empty histogram with `precision` sub-bucket bits.
    ///
    /// # Panics
    /// Panics unless `1 ≤ precision ≤ 20` (beyond 20 the bucket table
    /// stops being meaningfully "bounded").
    #[must_use]
    pub fn new(precision: u32) -> Self {
        assert!(
            (1..=20).contains(&precision),
            "histogram precision must be in 1..=20, got {precision}"
        );
        Self {
            precision,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            counts: Vec::new(),
        }
    }

    /// The bucket index holding `value`.
    fn index_for(&self, value: u64) -> usize {
        let p = self.precision;
        if value < (1u64 << p) {
            value as usize
        } else {
            let msb = u64::from(63 - value.leading_zeros());
            let shift = msb - u64::from(p);
            (((shift + 1) << p) + ((value >> shift) - (1u64 << p))) as usize
        }
    }

    /// The inclusive `[low, high]` value range of bucket `index`.
    fn bucket_bounds(&self, index: usize) -> (u64, u64) {
        let p = self.precision;
        if index < (1usize << p) {
            (index as u64, index as u64)
        } else {
            let shift = (index as u64 >> p) - 1;
            let sub = index as u64 & ((1u64 << p) - 1);
            let low = ((1u64 << p) + sub) << shift;
            (low, low + (1u64 << shift) - 1)
        }
    }

    /// The representative (midpoint) value of bucket `index`.
    fn representative(&self, index: usize) -> u64 {
        let (low, high) = self.bucket_bounds(index);
        low + (high - low) / 2
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let index = self.index_for(value);
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += n;
        self.count += n;
        self.sum += value * n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merge another histogram into this one.
    ///
    /// # Panics
    /// Panics if the precisions differ (their bucket grids are
    /// incompatible; re-record through the coarser one instead).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge histograms of different precision"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &n) in self.counts.iter_mut().zip(&other.counts) {
            *slot += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Check a histogram read from outside the process (a telemetry
    /// dump): deserialization takes any field values, but the quantile
    /// walk relies on their invariants. One this accepts renders without
    /// panicking.
    ///
    /// # Errors
    /// Names the first invariant the fields break.
    pub fn validate(&self) -> Result<(), String> {
        let (p, count, min, max) = (self.precision, self.count, self.min, self.max);
        let sum = self
            .counts
            .iter()
            .try_fold(0u64, |acc, &n| acc.checked_add(n));
        if !(1..=20).contains(&p) {
            Err(format!("precision {p} outside 1..=20"))
        } else if self.counts.len() > self.index_for(u64::MAX) + 1 {
            Err(format!("more buckets than precision {p} has"))
        } else if sum != Some(count) {
            Err(format!("bucket counts do not sum to count {count}"))
        } else if count > 0 && min > max {
            Err(format!("min {min} above max {max}"))
        } else {
            Ok(())
        }
    }

    /// Sub-bucket precision in bits.
    #[must_use]
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// The documented relative quantile error bound, `2^−(p+1)`.
    #[must_use]
    pub fn relative_error_bound(&self) -> f64 {
        0.5f64.powi(self.precision as i32 + 1)
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of the recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of the recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty; exact).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`), reported as the
    /// midpoint of the bucket holding the rank-`⌈q·count⌉` sample — within
    /// the documented relative error of the exact sample. Returns 0 for an
    /// empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Clamp to the observed extremes so p0/p100 stay exact.
                return self.representative(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Iterate non-empty buckets as `(low, high, count)` value ranges.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (low, high) = self.bucket_bounds(i);
                (low, high, n)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new(7);
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.count(), 128);
        for v in [0u64, 1, 63, 127] {
            let idx = h.index_for(v);
            assert_eq!(h.bucket_bounds(idx), (v, v), "value {v} must be exact");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
    }

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let h = Histogram::new(4);
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let idx = h.index_for(v);
            assert!(idx == prev || idx == prev + 1, "gap at value {v}");
            let (low, high) = h.bucket_bounds(idx);
            assert!(
                (low..=high).contains(&v),
                "value {v} outside its bucket [{low},{high}]"
            );
            prev = idx;
        }
    }

    #[test]
    fn quantiles_respect_error_bound() {
        let mut h = Histogram::new(7);
        let mut samples: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 70_000 + 1).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.95, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = h.quantile(q);
            let err = approx.abs_diff(exact) as f64;
            assert!(
                err <= exact as f64 * h.relative_error_bound() + 1.0,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new(7);
        let mut b = Histogram::new(7);
        let mut both = Histogram::new(7);
        for v in 0..1000u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.record(v * 3 + 1);
            both.record(v * 3 + 1);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn serde_roundtrip_preserves_quantiles() {
        let mut h = Histogram::new(7);
        for v in [3u64, 700, 700, 4_000, 1_000_000] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        assert_eq!(h.quantile(0.5), back.quantile(0.5));
        assert_eq!(back.validate(), Ok(()));
        // Deserialization takes any field values; `validate` refuses the
        // ones the quantile walk cannot survive.
        for (field, broken) in [
            ("\"precision\":7", "\"precision\":64"),
            ("\"count\":5", "\"count\":4"),
            ("\"min\":3", "\"min\":2000000"),
        ] {
            assert!(json.contains(field), "{json}");
            let back: Histogram = serde_json::from_str(&json.replace(field, broken)).unwrap();
            assert!(back.validate().is_err(), "{broken} accepted");
        }
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merging_mismatched_precision_panics() {
        let mut a = Histogram::new(7);
        a.merge(&Histogram::new(8));
    }
}
