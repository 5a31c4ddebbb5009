//! Analytical blocking probability (Figure 2).
//!
//! The paper plots "probability of blocking" against the number of stages
//! for a 4096-port network, "based on the formula derived in \[15]" — Patel's
//! acceptance recurrence for delta networks built from crossbar switches.
//!
//! For an `r × r` crossbar whose inputs each carry an independent request
//! with probability `p` per cycle, with uniformly random output choices, the
//! probability that a given output is requested (and hence carries a
//! request forward) is
//!
//! ```text
//! patel_stage(p, r) = 1 − (1 − p/r)^r
//! ```
//!
//! Composing the recurrence across stages gives the rate `p_s` emerging from
//! the last stage; the fraction of offered traffic accepted is `p_s / p_0`
//! and the **blocking probability** is `1 − p_s / p_0`.
//!
//! The paper's headline observation — "reducing the number of stages from 5
//! to 3 decreases the blocking probability by about 10%" — comes out of this
//! recurrence with balanced power-of-two stage plans (we measure ≈ 11 %
//! relative; see EXPERIMENTS.md E6).

use serde::{Deserialize, Serialize};

use crate::StagePlan;

/// One stage of the Patel recurrence: output request rate of an `r × r`
/// crossbar with input request rate `p`.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]` or `radix` is zero.
#[must_use]
pub fn patel_stage(p: f64, radix: u32) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "request rate must be in [0,1], got {p}"
    );
    assert!(radix >= 1, "radix must be at least 1");
    let r = f64::from(radix);
    1.0 - (1.0 - p / r).powi(radix as i32)
}

/// The request rate emerging from each stage of `plan` when every network
/// input offers a request with probability `offered` per cycle.
///
/// Element `i` of the returned vector is the rate *after* stage `i`; the
/// vector has `plan.stages()` elements.
#[must_use]
pub fn stage_rates(plan: &StagePlan, offered: f64) -> Vec<f64> {
    let mut p = offered;
    plan.radices()
        .iter()
        .map(|&r| {
            p = patel_stage(p, r);
            p
        })
        .collect()
}

/// Fraction of offered traffic accepted by the full network.
#[must_use]
pub fn acceptance(plan: &StagePlan, offered: f64) -> f64 {
    if offered == 0.0 {
        return 1.0;
    }
    let rates = stage_rates(plan, offered);
    rates.last().copied().unwrap_or(offered) / offered
}

/// Blocking probability `1 − acceptance` of the full network.
#[must_use]
pub fn blocking_probability(plan: &StagePlan, offered: f64) -> f64 {
    1.0 - acceptance(plan, offered)
}

/// One point of the Figure 2 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockingPoint {
    /// Number of stages.
    pub stages: u32,
    /// Radices of the balanced plan used.
    pub min_radix: u32,
    /// Largest stage radix of the plan.
    pub max_radix: u32,
    /// Blocking probability at the given offered load.
    pub blocking: f64,
}

/// The Figure 2 sweep: blocking probability versus number of stages for a
/// power-of-two network of `ports` ports at `offered` load, using balanced
/// stage plans for every feasible stage count (1 ≤ s ≤ log₂ ports).
///
/// The paper's figure uses `ports = 4096` at full load.
///
/// # Examples
/// ```
/// use icn_topology::blocking::figure2_sweep;
///
/// let points = figure2_sweep(4096, 1.0);
/// assert_eq!(points.len(), 12);
/// // Fewer, larger stages block less — the paper's argument for putting
/// // the biggest possible crossbar on each chip.
/// assert!(points[2].blocking < points[4].blocking); // 3 stages vs 5
/// ```
#[must_use]
pub fn figure2_sweep(ports: u32, offered: f64) -> Vec<BlockingPoint> {
    assert!(
        ports.is_power_of_two() && ports >= 2,
        "ports must be a power of two"
    );
    let max_stages = ports.trailing_zeros();
    (1..=max_stages)
        .filter_map(|s| StagePlan::balanced_pow2_stages(ports, s))
        .map(|plan| BlockingPoint {
            stages: plan.stages(),
            min_radix: *plan.radices().iter().min().expect("non-empty"),
            max_radix: plan.max_radix(),
            blocking: blocking_probability(&plan, offered),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_crossbar_full_load() {
        // 1 − (1 − 1/16)^16 ≈ 0.6439 for a single 16×16 crossbar at p = 1.
        let p = patel_stage(1.0, 16);
        assert!((p - 0.6439).abs() < 5e-4, "{p}");
    }

    #[test]
    fn zero_load_never_blocks() {
        let plan = StagePlan::uniform(16, 3);
        assert!((blocking_probability(&plan, 0.0)).abs() < 1e-12);
        assert!((acceptance(&plan, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn light_load_blocks_rarely() {
        let plan = StagePlan::uniform(16, 3);
        let b = blocking_probability(&plan, 0.01);
        assert!(b < 0.02, "unexpectedly high blocking {b} at 1% load");
    }

    /// The paper's quoted checkpoint: going from 5 stages to 3 stages on a
    /// 4096-port network cuts blocking by about 10 % (we compute ≈ 11 %
    /// relative at full load).
    #[test]
    fn five_to_three_stages_cuts_blocking_about_ten_percent() {
        let five = blocking_probability(&StagePlan::balanced_pow2_stages(4096, 5).unwrap(), 1.0);
        let three = blocking_probability(&StagePlan::balanced_pow2_stages(4096, 3).unwrap(), 1.0);
        // Absolute values from the recurrence.
        assert!((five - 0.6897).abs() < 5e-3, "5-stage blocking {five}");
        assert!((three - 0.6129).abs() < 5e-3, "3-stage blocking {three}");
        let relative_cut = (five - three) / five;
        assert!(
            (0.08..=0.14).contains(&relative_cut),
            "relative reduction {relative_cut}"
        );
    }

    /// Figure 2's qualitative shape: blocking increases monotonically with
    /// the number of stages (for balanced plans at full load).
    #[test]
    fn blocking_increases_with_stage_count() {
        let points = figure2_sweep(4096, 1.0);
        assert_eq!(points.len(), 12);
        for pair in points.windows(2) {
            assert!(
                pair[1].blocking >= pair[0].blocking - 1e-12,
                "blocking not monotone: {pair:?}"
            );
        }
        // Extremes: one monolithic 4096×4096 crossbar vs twelve 2×2 stages.
        assert_eq!(points[0].stages, 1);
        assert_eq!(points[0].max_radix, 4096);
        assert_eq!(points[11].stages, 12);
        assert_eq!(points[11].max_radix, 2);
        assert!(points[11].blocking > points[0].blocking);
    }

    #[test]
    fn acceptance_decreases_with_load() {
        let plan = StagePlan::uniform(16, 3);
        let mut prev = 1.0 + 1e-12;
        for load in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let a = acceptance(&plan, load);
            assert!(a < prev, "acceptance not decreasing at load {load}");
            prev = a;
        }
    }

    #[test]
    fn patel_stage_preserves_unit_interval() {
        for r in [2u32, 4, 8, 16, 64] {
            for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let out = patel_stage(p, r);
                assert!((0.0..=1.0).contains(&out));
                assert!(out <= p + 1e-12, "a stage cannot create traffic");
            }
        }
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn out_of_range_rate_panics() {
        let _ = patel_stage(1.5, 16);
    }
}
