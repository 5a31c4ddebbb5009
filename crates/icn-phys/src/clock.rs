//! Clock distribution, skew, and the maximum-frequency solver (§5, §6.2).
//!
//! The clock limits a clocked network in two ways (eq. 5.1):
//!
//! 1. **Information signals** must traverse logic (`D_L`), the inter-chip
//!    path (`D_P`) and survive clock skew (`δ`) within one cycle.
//! 2. **The clock tree itself** must charge and discharge each half-cycle
//!    under the *Standard* scheme — a `2τ` floor on the period — whereas the
//!    *Multiple-Pulse* scheme pipelines pulses down matched transmission
//!    lines and removes that floor (eq. 5.4).
//!
//! The on-chip clock tree is an H-tree; the paper's eq. 6.1 gives its
//! charge/discharge time from the final branch's RC product:
//!
//! ```text
//! τ_chip = (10N³ − 3) · (3 − 2/N) · R₀C₀ / 7
//! ```
//!
//! (evaluating to 4.1 ns for the 16×16, 1 cm² chip). The board part of the
//! tree behaves like a signal trace: driver delay plus propagation over the
//! longest clock run. Skew follows Wann & Franklin (eq. 5.3) from the
//! process variations of rise time and FET threshold.

use icn_tech::Technology;
use icn_units::{Frequency, Length, Time};
use serde::{Deserialize, Serialize};

use crate::signal;

/// Clock distribution scheme (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClockScheme {
    /// The whole clock tree is treated as an equipotential surface that must
    /// settle every half cycle: the period is floored by `2τ`.
    Standard,
    /// Clock lines are treated as matched transmission lines carrying
    /// multiple pulses simultaneously; only `D_L + D_P + δ` limits the rate.
    MultiplePulse,
}

impl ClockScheme {
    /// All schemes, in the order the paper introduces them.
    pub const ALL: [Self; 2] = [Self::Standard, Self::MultiplePulse];
}

impl core::fmt::Display for ClockScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Standard => f.write_str("standard"),
            Self::MultiplePulse => f.write_str("multiple-pulse"),
        }
    }
}

/// On-chip H-tree charge/discharge time (eq. 6.1) for an N×N crossbar chip.
///
/// # Panics
/// Panics if `radix` is zero.
#[must_use]
pub fn htree_delay(tech: &Technology, radix: u32) -> Time {
    assert!(radix >= 1, "crossbar radix must be at least 1");
    let n = f64::from(radix);
    let factor = (10.0 * n.powi(3) - 3.0) * (3.0 - 2.0 / n) / 7.0;
    tech.process.htree_branch_rc * factor
}

/// Clock skew between communicating modules (eq. 5.3, Wann–Franklin).
///
/// `δ = τ_min · ln(1 − V_Tmin/V_DD) − τ_max · ln(1 − V_Tmax/V_DD)` with
/// `τ_min/max = (1 ∓ v_τ)·τ` and `V_Tmin/max = (1 ∓ v_T)·V_T`.
///
/// For the paper's ±20 % variations and V_T/V_DD = ½, this evaluates to
/// `δ ≈ 0.69τ` (the paper rounds to 0.7τ).
#[must_use]
pub fn clock_skew(tech: &Technology, tau: Time) -> Time {
    let c = &tech.clocking;
    let tau_min = tau * (1.0 - c.tau_variation);
    let tau_max = tau * (1.0 + c.tau_variation);
    let vdd = c.supply.volts();
    let r_min = c.threshold_min().volts() / vdd;
    let r_max = c.threshold_max().volts() / vdd;
    tau_min * (1.0 - r_min).ln() - tau_max * (1.0 - r_max).ln()
}

/// Design-rule ceiling on the fraction of the clock period that skew may
/// consume: the skew rule of the feasibility verdict
/// (`icn_core::design::Solution::violations`; ICN106 in `icn lint config`).
///
/// Eq. 5.1 only requires `D_L + D_P + δ ≤ 1/F`, so any skew fraction below
/// 1 is *schedulable* — but a budget where skew eats most of the cycle has
/// no margin for the process variations that produced the skew in the first
/// place (eq. 5.3 assumes ±20 % spreads). The paper's own §6.2 design point
/// spends δ ≈ 8.5 ns of a ≈ 31 ns period (~28 %); we cap designs at 35 % so
/// the reference design passes with a little headroom while genuinely
/// skew-dominated clock trees are rejected.
pub const MAX_SKEW_FRACTION: f64 = 0.35;

/// The complete delay budget determining the achievable clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockBudget {
    /// Logic + memory delay `D_L`.
    pub d_l: Time,
    /// Worst-case inter-chip signal path delay `D_P`.
    pub d_p: Time,
    /// On-chip H-tree charge/discharge time.
    pub tau_chip: Time,
    /// Board-level clock distribution delay.
    pub tau_board: Time,
    /// Total clock-tree delay `τ = τ_chip + τ_board`.
    pub tau: Time,
    /// Clock skew `δ` derived from `τ`.
    pub skew: Time,
}

impl ClockBudget {
    /// Build the budget for an N×N chip whose longest inter-chip trace is
    /// `longest_trace` (§6.2).
    #[must_use]
    pub fn compute(tech: &Technology, chip_radix: u32, longest_trace: Length) -> Self {
        let d_l = signal::logic_memory_delay(tech);
        let d_p = signal::path_delay(tech, longest_trace).total();
        let tau_chip = htree_delay(tech, chip_radix);
        // The board clock run is driven and routed like any other signal
        // over the same worst-case distance.
        let tau_board = signal::path_delay(tech, longest_trace).total();
        let tau = tau_chip + tau_board;
        let skew = clock_skew(tech, tau);
        Self {
            d_l,
            d_p,
            tau_chip,
            tau_board,
            tau,
            skew,
        }
    }

    /// The information-signal constraint `D_L + D_P + δ` (one clock cycle
    /// must cover it).
    #[must_use]
    pub fn signal_constraint(&self) -> Time {
        self.d_l + self.d_p + self.skew
    }

    /// The clock-tree constraint `2τ` (Standard scheme only).
    #[must_use]
    pub fn tree_constraint(&self) -> Time {
        self.tau * 2.0
    }

    /// Minimum clock period under the given scheme (eq. 5.2 / 5.4).
    #[must_use]
    pub fn min_period(&self, scheme: ClockScheme) -> Time {
        match scheme {
            ClockScheme::Standard => self.signal_constraint().max(self.tree_constraint()),
            ClockScheme::MultiplePulse => self.signal_constraint(),
        }
    }

    /// Maximum achievable clock frequency under the given scheme.
    #[must_use]
    pub fn max_frequency(&self, scheme: ClockScheme) -> Frequency {
        self.min_period(scheme).as_frequency()
    }

    /// Whether the Standard scheme is clock-tree limited (i.e. the Multiple-
    /// Pulse scheme would buy extra frequency).
    #[must_use]
    pub fn tree_limited(&self) -> bool {
        self.tree_constraint() > self.signal_constraint()
    }

    /// The fraction of the minimum clock period consumed by skew under the
    /// given scheme. Compare against [`MAX_SKEW_FRACTION`].
    #[must_use]
    pub fn skew_fraction(&self, scheme: ClockScheme) -> f64 {
        self.skew / self.min_period(scheme)
    }

    /// Whether the skew fraction is within the [`MAX_SKEW_FRACTION`]
    /// design-rule ceiling.
    #[must_use]
    pub fn skew_within_budget(&self, scheme: ClockScheme) -> bool {
        self.skew_fraction(scheme) <= MAX_SKEW_FRACTION
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets::paper1986;

    fn paper_budget() -> ClockBudget {
        ClockBudget::compute(&paper1986(), 16, Length::from_inches(35.0))
    }

    /// §6.2's chain of numbers: τ_chip = 4.1 ns, τ_board = 8.3 ns,
    /// τ = 12.4 ns, δ = 0.7τ ≈ 8.7 ns, F ≈ 32 MHz under both schemes.
    #[test]
    fn reproduces_section_6_2() {
        let b = paper_budget();
        assert!(
            (b.tau_chip.nanos() - 4.1).abs() < 0.05,
            "τ_chip {}",
            b.tau_chip
        );
        assert!(
            (b.tau_board.nanos() - 8.25).abs() < 0.01,
            "τ_board {}",
            b.tau_board
        );
        assert!((b.tau.nanos() - 12.35).abs() < 0.1, "τ {}", b.tau);
        // Skew ratio ≈ 0.691.
        assert!(
            ((b.skew / b.tau) - 0.691).abs() < 0.005,
            "δ/τ = {}",
            b.skew / b.tau
        );
        assert!((b.skew.nanos() - 8.54).abs() < 0.2, "δ {}", b.skew);
        // Signal constraint dominates the tree constraint, so both schemes
        // land at the same ≈32 MHz.
        assert!(!b.tree_limited());
        for scheme in ClockScheme::ALL {
            let f = b.max_frequency(scheme);
            assert!(
                (31.0..=34.0).contains(&f.mhz()),
                "{scheme}: {} MHz",
                f.mhz()
            );
        }
    }

    #[test]
    fn htree_formula_spot_check() {
        // (10·16³ − 3)(3 − 2/16)·0.244 ps / 7 = 4.105 ns.
        let t = htree_delay(&paper1986(), 16);
        assert!((t.nanos() - 4.105).abs() < 0.01, "{t}");
    }

    #[test]
    fn htree_grows_with_radix() {
        let tech = paper1986();
        assert!(htree_delay(&tech, 32) > htree_delay(&tech, 16));
        assert!(htree_delay(&tech, 16) > htree_delay(&tech, 8));
    }

    #[test]
    fn skew_formula_matches_paper_ratio() {
        // Paper eq. 6.2: 0.8·ln(0.6) − 1.2·ln(0.4) ≈ 0.691 (≈ 0.7).
        let tech = paper1986();
        let tau = Time::from_nanos(12.4);
        let skew = clock_skew(&tech, tau);
        let expected = 0.8 * (0.6f64).ln() - 1.2 * (0.4f64).ln();
        assert!(((skew / tau) - expected).abs() < 1e-12);
    }

    #[test]
    fn skew_vanishes_without_variation() {
        let mut tech = paper1986();
        tech.clocking.tau_variation = 0.0;
        tech.clocking.threshold_variation = 0.0;
        let skew = clock_skew(&tech, Time::from_nanos(12.4));
        assert!(
            skew.nanos().abs() < 1e-9,
            "zero variation must give zero skew, got {skew}"
        );
    }

    #[test]
    fn skew_is_monotonic_in_variation() {
        let tau = Time::from_nanos(10.0);
        let mut prev = Time::ZERO;
        for v in [0.05, 0.1, 0.2, 0.3] {
            let mut tech = paper1986();
            tech.clocking.tau_variation = v;
            tech.clocking.threshold_variation = v;
            let skew = clock_skew(&tech, tau);
            assert!(skew > prev, "skew not increasing at v={v}");
            prev = skew;
        }
    }

    /// The §6.2 reference design sits under the skew design-rule ceiling
    /// (~28 % of the period vs. the 35 % cap), and a stretched clock run
    /// blows past it under the Multiple-Pulse scheme (where the period is
    /// not floored by 2τ, so skew dominates).
    #[test]
    fn skew_fraction_gates_designs() {
        let b = paper_budget();
        for scheme in ClockScheme::ALL {
            let f = b.skew_fraction(scheme);
            assert!((0.25..MAX_SKEW_FRACTION).contains(&f), "{scheme}: {f}");
            assert!(b.skew_within_budget(scheme));
        }
        let stretched = ClockBudget::compute(&paper1986(), 16, Length::from_inches(400.0));
        assert!(!stretched.skew_within_budget(ClockScheme::MultiplePulse));
    }

    #[test]
    fn long_clock_lines_make_the_tree_the_limit() {
        // Stretch the clock run until 2τ dominates; then the Multiple-Pulse
        // scheme must strictly beat the Standard scheme.
        let tech = paper1986();
        let b = ClockBudget::compute(&tech, 16, Length::from_inches(200.0));
        assert!(b.tree_limited());
        let std = b.max_frequency(ClockScheme::Standard);
        let mp = b.max_frequency(ClockScheme::MultiplePulse);
        assert!(mp.hz() > std.hz());
    }

    #[test]
    fn multiple_pulse_never_slower_than_standard() {
        let tech = paper1986();
        for trace_in in [1.0, 10.0, 35.0, 100.0, 300.0] {
            let b = ClockBudget::compute(&tech, 16, Length::from_inches(trace_in));
            assert!(
                b.max_frequency(ClockScheme::MultiplePulse).hz()
                    >= b.max_frequency(ClockScheme::Standard).hz()
            );
        }
    }
}
