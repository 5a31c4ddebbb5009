//! I/O power and supply-current implications of the Appendix's electrical
//! model.
//!
//! The Appendix sizes power/ground pins from the worst-case simultaneous
//! switching current `Δi = N(W+1)·V_DD/Z₀`. The same numbers imply a power
//! budget the paper never states but a builder must face: every active
//! output pin drives a matched (2·Z₀ series) path, dissipating
//! `V_DD²/(4·Z₀)` while switching, and a 384-chip network multiplies that
//! into kilowatts. These estimates are direct corollaries of Table 1's
//! constants — no new physics, just the bill.

use icn_tech::Technology;
use icn_units::{Current, Power};
use serde::{Deserialize, Serialize};

use crate::pins;

/// Drive power of one output pin at the given activity factor (fraction of
/// cycles the pin is switching): `P = a · V_DD² / (4·Z₀)`.
///
/// # Panics
/// Panics if `activity` is outside `[0, 1]`.
#[must_use]
pub fn pin_drive_power(tech: &Technology, activity: f64) -> Power {
    assert!(
        (0.0..=1.0).contains(&activity),
        "activity must be in [0,1], got {activity}"
    );
    let v = tech.clocking.supply.volts();
    let z0 = tech.packaging.driver_impedance.ohms();
    Power::from_watts(activity * v * v / (4.0 * z0))
}

/// Per-chip and whole-network I/O power and supply-current budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoPowerBudget {
    /// Output signal pins per chip (`N·(W+1)`, as in the Appendix).
    pub output_pins_per_chip: u32,
    /// Activity factor assumed.
    pub activity: f64,
    /// Drive power of one chip's outputs.
    pub chip_power: Power,
    /// Worst-case simultaneous switching current of one chip (Appendix Δi).
    pub chip_transient_current: Current,
    /// Chips in the network.
    pub chips: u64,
    /// Drive power of the whole network's chip outputs.
    pub network_power: Power,
    /// Worst-case simultaneous switching current across the network.
    pub network_transient_current: Current,
}

/// Compute the I/O budget for a network of `chips` chips of radix `N` and
/// width `W` at the given output activity factor.
#[must_use]
pub fn io_power_budget(
    tech: &Technology,
    radix: u32,
    width: u32,
    chips: u64,
    activity: f64,
) -> IoPowerBudget {
    let output_pins_per_chip = radix.saturating_mul(width.saturating_add(1));
    let per_pin = pin_drive_power(tech, activity);
    let chip_power = per_pin * pins::output_signals(radix, width);
    let chip_transient_current = pins::switching_current(tech, radix, width);
    IoPowerBudget {
        output_pins_per_chip,
        activity,
        chip_power,
        chip_transient_current,
        chips,
        network_power: chip_power * chips as f64,
        network_transient_current: chip_transient_current * chips as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets::paper1986;

    #[test]
    fn per_pin_power_from_table1_constants() {
        // 5²/(4·50) = 0.125 W at full activity.
        let p = pin_drive_power(&paper1986(), 1.0);
        assert!((p.watts() - 0.125).abs() < 1e-12);
        assert!(pin_drive_power(&paper1986(), 0.0).watts().abs() < 1e-12);
    }

    #[test]
    fn paper_chip_budget() {
        // 16×16, W=4: 80 output pins; at 50% activity 5 W per chip and an
        // 8 A worst-case transient (the Appendix's Δi).
        let b = io_power_budget(&paper1986(), 16, 4, 384, 0.5);
        assert_eq!(b.output_pins_per_chip, 80);
        assert!((b.chip_power.watts() - 5.0).abs() < 1e-9);
        assert!((b.chip_transient_current.amps() - 8.0).abs() < 1e-9);
        // The 384-chip network: 1.92 kW of I/O drive, 3.07 kA worst case.
        assert!((b.network_power.watts() - 1920.0).abs() < 1e-6);
        assert!((b.network_transient_current.amps() - 3072.0).abs() < 1e-6);
    }

    #[test]
    fn power_scales_linearly_with_activity_and_chips() {
        let tech = paper1986();
        let half = io_power_budget(&tech, 16, 4, 100, 0.5);
        let full = io_power_budget(&tech, 16, 4, 200, 1.0);
        assert!((full.network_power.watts() / half.network_power.watts() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "activity must be in [0,1]")]
    fn bad_activity_panics() {
        let _ = pin_drive_power(&paper1986(), 1.5);
    }

    /// `N(W+1)` saturates in the pin count and stays exact in the power.
    #[test]
    fn oversized_chip_output_pins_saturate() {
        let tech = paper1986();
        let big = io_power_budget(&tech, 65_536, u32::MAX, 1, 0.5);
        let small = io_power_budget(&tech, 16, 4, 1, 0.5);
        assert_eq!(big.output_pins_per_chip, u32::MAX);
        let ratio = big.chip_power.watts() / small.chip_power.watts();
        assert!((ratio - 65_536.0 * 4_294_967_296.0 / 80.0).abs() / ratio < 1e-12);
    }
}
