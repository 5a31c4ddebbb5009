//! Measurement collection and summary statistics.

use serde::{Deserialize, Serialize};

use crate::fault::StallReport;
use crate::telemetry::TelemetryReport;

/// Summary statistics over a set of latencies (in cycles). The simulator
/// reads them off an exact count per latency value rather than a sorted
/// list of samples; every field is what the sorted samples would give.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Mean latency.
    pub mean: f64,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Median (50th percentile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    #[serde(default)]
    pub p999: u64,
    /// Population standard deviation (Welford's online algorithm, so it
    /// stays numerically stable on long runs).
    #[serde(default)]
    pub stddev: f64,
}

/// An exact latency distribution: how many samples took each latency,
/// indexed by the latency in cycles.
///
/// Recording a sample bumps one counter, and the table grows only when a
/// sample exceeds the largest latency seen so far, so it holds at most
/// (largest latency + 1) counters however many samples it counts: the
/// §6 network's default `icn simulate` run tracks 204,680 deliveries
/// whose total latencies fit in 757 counters. [`Self::stats`] reads the
/// summary straight off the counts, with no sort.
#[derive(Debug, Default)]
pub(crate) struct LatencyCounts {
    /// `counts[v]` = samples of latency `v`; the last entry is nonzero.
    counts: Vec<u64>,
}

impl LatencyCounts {
    /// Count one sample of `latency` cycles.
    pub fn record(&mut self, latency: u64) {
        let index = latency as usize;
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
    }

    /// Counters held: the largest latency recorded plus one (0 while
    /// empty), however many samples were recorded.
    #[cfg(test)]
    pub fn entries(&self) -> usize {
        self.counts.len()
    }

    /// The distinct latencies recorded with their counts, in ascending
    /// latency order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0u64..)
            .zip(self.counts.iter().copied())
            .filter(|&(_, count)| count > 0)
    }

    /// The summary of the recorded samples: every field bit for bit what
    /// sorting the samples and walking them once would give (the unit
    /// tests hold it to that reference).
    #[must_use]
    pub fn stats(&self) -> LatencyStats {
        let count: u64 = self.counts.iter().sum();
        if count == 0 {
            return LatencyStats::default();
        }
        let sum: u128 = self
            .iter()
            .map(|(value, n)| u128::from(value) * u128::from(n))
            .sum();
        // Welford's running moments for the variance: no catastrophic
        // cancellation on large means. Replayed once per sample in
        // ascending order, the floating-point sequence of a sorted pass.
        // The reported mean stays the exact integer-sum quotient.
        let mut running_mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut seen = 0u64;
        for (value, n) in self.iter() {
            let x = value as f64;
            for _ in 0..n {
                seen += 1;
                let delta = x - running_mean;
                running_mean += delta / seen as f64;
                m2 += delta * (x - running_mean);
            }
        }
        // Nearest rank on the 0-based index of the sorted samples:
        // idx = round((count - 1)·q), read off the cumulative counts.
        let pct = |q: f64| -> u64 {
            let idx = ((count - 1) as f64 * q).round() as u64;
            let mut below = 0u64;
            for (value, n) in self.iter() {
                below += n;
                if below > idx {
                    return value;
                }
            }
            self.max()
        };
        LatencyStats {
            count,
            mean: sum as f64 / count as f64,
            min: self.iter().next().map_or(0, |(value, _)| value),
            max: self.max(),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            p999: pct(0.999),
            stddev: (m2 / count as f64).sqrt(),
        }
    }

    /// The largest latency recorded (0 while empty).
    fn max(&self) -> u64 {
        self.counts.len().saturating_sub(1) as u64
    }
}

/// Per-stage contention counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct StageCounters {
    /// Output circuits granted in this stage.
    pub grants: u64,
    /// Request-cycles a ready head spent waiting because the output was
    /// still held by another packet.
    pub blocked_output_busy: u64,
    /// Request-cycles a ready head spent waiting on a full downstream
    /// buffer (the buffer-full back-pressure of §2.1).
    pub blocked_downstream_full: u64,
    /// Request-cycles a ready head spent blocked by a transiently failed
    /// module or link in this stage.
    #[serde(default)]
    pub blocked_fault: u64,
    /// Packet-drop events in this stage (unique onward path permanently
    /// severed). A packet that is retried and fails again counts once per
    /// failure, so this can exceed the run's final-loss total.
    #[serde(default)]
    pub dropped: u64,
}

impl StageCounters {
    /// Total blocked request-cycles.
    #[must_use]
    pub fn blocked(&self) -> u64 {
        self.blocked_output_busy + self.blocked_downstream_full + self.blocked_fault
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Ports in the simulated network.
    pub ports: u32,
    /// Stages in the simulated network.
    pub stages: u32,
    /// Cycles actually simulated (may stop early once every tracked packet
    /// drains).
    pub cycles_run: u64,
    /// All packets generated.
    pub injected_total: u64,
    /// All packets fully delivered.
    pub delivered_total: u64,
    /// Packets generated inside the measurement window.
    pub tracked_injected: u64,
    /// Tracked packets delivered before the run ended.
    pub tracked_delivered: u64,
    /// Tracked packets still live at the end — neither delivered nor
    /// fault-dropped (saturation indicator).
    pub tracked_lost: u64,
    /// Deliveries whose completion fell inside the measurement window
    /// (basis of the throughput figure).
    pub delivered_in_window: u64,
    /// Source→destination latency (includes source queueing).
    pub total_latency: LatencyStats,
    /// Network-entry→destination latency (excludes source queueing).
    pub network_latency: LatencyStats,
    /// Delivered packets per port per cycle over the measurement window.
    pub throughput: f64,
    /// Peak total source-queue backlog observed.
    pub peak_source_backlog: u64,
    /// Total source-queue backlog when the run ended.
    pub final_source_backlog: u64,
    /// Contention counters per stage.
    pub stage_counters: Vec<StageCounters>,
    /// The paper's §4 unloaded prediction for this configuration, in cycles.
    pub analytic_unloaded_cycles: u64,
    /// Packets finally dropped by faults (after exhausting any retries).
    #[serde(default)]
    pub dropped_total: u64,
    /// Of those, packets generated inside the measurement window.
    #[serde(default)]
    pub tracked_dropped: u64,
    /// Fault-dropped packets re-offered by their sources (retry events,
    /// not distinct packets).
    #[serde(default)]
    pub retries_total: u64,
    /// Packets still alive (queued, buffered, or awaiting retry) when the
    /// run ended.
    #[serde(default)]
    pub live_at_end: u64,
    /// (src, dest) pairs whose unique path crosses a permanently failed
    /// component — connectivity lost to faults, out of `ports²`.
    #[serde(default)]
    pub unreachable_pairs: u64,
    /// Set if the watchdog terminated the run: live packets made no
    /// forward progress for the configured bound.
    #[serde(default)]
    pub stall: Option<StallReport>,
    /// Telemetry collected over the run (`None` when telemetry is
    /// disabled; purely observational — every other field is identical
    /// with telemetry on or off).
    #[serde(default)]
    pub telemetry: Option<TelemetryReport>,
}

impl SimResult {
    /// Fraction of tracked packets delivered.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.tracked_injected == 0 {
            1.0
        } else {
            self.tracked_delivered as f64 / self.tracked_injected as f64
        }
    }

    /// Mean network latency normalized by the unloaded analytic delay —
    /// 1.0 means the network behaves exactly as the paper's best-case
    /// formulas predict.
    #[must_use]
    pub fn latency_expansion(&self) -> f64 {
        if self.analytic_unloaded_cycles == 0 {
            return f64::NAN;
        }
        self.network_latency.mean / self.analytic_unloaded_cycles as f64
    }

    /// The conservation invariant: every packet ever injected is either
    /// delivered, finally dropped by a fault, or still alive at the end —
    /// for the full population and for the tracked subset. The engine
    /// debug-asserts this every cycle; results carry it so callers (and
    /// CI) can check it on release builds too.
    #[must_use]
    pub fn conservation_ok(&self) -> bool {
        self.injected_total == self.delivered_total + self.dropped_total + self.live_at_end
            && self.tracked_injected
                == self.tracked_delivered + self.tracked_dropped + self.tracked_lost
    }

    /// Fraction of tracked packets finally dropped by faults.
    #[must_use]
    pub fn drop_ratio(&self) -> f64 {
        if self.tracked_injected == 0 {
            0.0
        } else {
            self.tracked_dropped as f64 / self.tracked_injected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference the counts are held to: sort the samples and walk
    /// them once.
    fn from_samples(mut samples: Vec<u64>) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        let mut running_mean = 0.0f64;
        let mut m2 = 0.0f64;
        for (i, &s) in samples.iter().enumerate() {
            let x = s as f64;
            let delta = x - running_mean;
            running_mean += delta / (i + 1) as f64;
            m2 += delta * (x - running_mean);
        }
        let pct = |q: f64| -> u64 {
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[idx]
        };
        LatencyStats {
            count,
            mean: sum as f64 / count as f64,
            min: samples[0],
            max: samples.last().copied().unwrap_or_default(),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            p999: pct(0.999),
            stddev: (m2 / count as f64).sqrt(),
        }
    }

    fn counted(samples: &[u64]) -> LatencyCounts {
        let mut counts = LatencyCounts::default();
        for &s in samples {
            counts.record(s);
        }
        counts
    }

    #[test]
    fn stats_from_samples() {
        let s = counted(&[10, 20, 30, 40, 50]).stats();
        assert_eq!(s.count, 5);
        assert!((s.mean - 30.0).abs() < 1e-12);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 50);
        assert_eq!(s.p50, 30);
    }

    #[test]
    fn empty_samples_are_zeroed() {
        let counts = LatencyCounts::default();
        assert_eq!(counts.entries(), 0);
        let s = counts.stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn single_sample() {
        let s = counted(&[42]).stats();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 42);
        assert_eq!(s.p99, 42);
        assert!((s.mean - 42.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_on_large_sets() {
        let samples: Vec<u64> = (1..=1000).collect();
        let s = counted(&samples).stats();
        // Nearest-rank on the 0-based index: idx = round(999·q).
        assert_eq!(s.p50, 501);
        assert_eq!(s.p95, 950);
        assert_eq!(s.p99, 990);
    }

    /// The table's size is set by the largest latency, not by how many
    /// samples it counts.
    #[test]
    fn counts_grow_with_the_largest_latency_only() {
        let mut counts = LatencyCounts::default();
        for i in 0..100_000u64 {
            counts.record(i % 50);
        }
        assert_eq!((counts.stats().count, counts.entries()), (100_000, 50));
        counts.record(70);
        assert_eq!(counts.entries(), 71);
        assert_eq!(counts.iter().last(), Some((70, 1)));
    }

    /// Latency multisets of every shape the engine produces: one sample,
    /// all equal, a few values heavily repeated, wide spreads, and two
    /// far-apart clusters.
    fn latency_multiset() -> impl Strategy<Value = Vec<u64>> {
        // A run draw `d` stands for `d / 2_000 + 1` samples of `d % 2_000`.
        let runs = |draws: Vec<u64>| -> Vec<u64> {
            draws
                .into_iter()
                .flat_map(|d| std::iter::repeat_n(d % 2_000, (d / 2_000) as usize + 1))
                .collect()
        };
        prop_oneof![
            (0u64..5_000).prop_map(|v| vec![v]),
            (0u64..2_000 * 2_000).prop_map(move |d| runs(vec![d])),
            proptest::collection::vec(0u64..2_000 * 400, 1..8).prop_map(runs),
            proptest::collection::vec(0u64..100_000, 1..1_500),
            proptest::collection::vec(0u64..80, 1..1_500).prop_map(|v| v
                .into_iter()
                .map(|x| if x < 40 { x } else { 20_000 + x })
                .collect()),
        ]
    }

    /// `samples` in an order drawn from `seed` (Fisher–Yates over a
    /// xorshift stream), so runs of equal values arrive interleaved.
    fn shuffled(mut samples: Vec<u64>, mut seed: u64) -> Vec<u64> {
        for i in (1..samples.len()).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            samples.swap(i, (seed % (i as u64 + 1)) as usize);
        }
        samples
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counts give the sorted pass's summary bit for bit, whatever
        /// order the samples arrive in: the floats are compared by their
        /// bits, not within a tolerance.
        #[test]
        fn counts_match_the_sorted_samples(
            samples in latency_multiset(),
            seed in any::<u64>(),
        ) {
            let samples = shuffled(samples, seed | 1);
            let reference = from_samples(samples.clone());
            let counts = counted(&samples);
            let stats = counts.stats();
            prop_assert_eq!(stats.count, reference.count);
            prop_assert_eq!(stats.mean.to_bits(), reference.mean.to_bits());
            prop_assert_eq!(stats.stddev.to_bits(), reference.stddev.to_bits());
            prop_assert_eq!(
                (stats.min, stats.max, stats.p50, stats.p95, stats.p99, stats.p999),
                (reference.min, reference.max, reference.p50, reference.p95, reference.p99, reference.p999)
            );
            prop_assert_eq!(counts.entries() as u64, reference.max + 1);
        }
    }

    #[test]
    fn counters_sum() {
        let c = StageCounters {
            grants: 5,
            blocked_output_busy: 2,
            blocked_downstream_full: 3,
            blocked_fault: 4,
            dropped: 1,
        };
        assert_eq!(c.blocked(), 9);
    }
}
