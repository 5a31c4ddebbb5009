//! Clock frequencies and data rates.

use serde::{Deserialize, Serialize};

use crate::Time;

/// A frequency (clock rate or data rate), stored in hertz.
///
/// The paper sweeps clock frequencies of 10–80 MHz (Table 1/2) and concludes
/// that about 32 MHz is achievable for the 2048×2048 example (§6, eq. 6.3).
///
/// ```
/// use icn_units::Frequency;
/// let f = Frequency::from_mhz(40.0);
/// assert!((f.period().nanos() - 25.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Frequency(pub(crate) f64);

impl_quantity!(Frequency, "hertz");

impl Frequency {
    /// Construct from hertz.
    #[must_use]
    pub const fn from_hz(hz: f64) -> Self {
        Self(hz)
    }

    /// Construct from kilohertz.
    #[must_use]
    pub const fn from_khz(khz: f64) -> Self {
        Self(khz * 1e3)
    }

    /// Construct from megahertz (the paper's working unit).
    #[must_use]
    pub const fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// Magnitude in hertz.
    #[must_use]
    pub const fn hz(self) -> f64 {
        self.0
    }

    /// Magnitude in megahertz.
    #[must_use]
    pub fn mhz(self) -> f64 {
        self.0 * 1e-6
    }

    /// The clock period `T = 1/f`.
    ///
    /// # Panics
    /// Panics on a non-positive frequency.
    #[must_use]
    pub fn period(self) -> Time {
        assert!(
            self.0 > 0.0,
            "cannot form the period of a non-positive frequency ({} Hz)",
            self.0
        );
        Time::from_secs(1.0 / self.0)
    }

    /// `n` cycles of this clock, as a duration.
    ///
    /// The paper's delay expressions (eq. 4.2, 4.5) are all of the form
    /// `(cycle count) · (1/F)`; this helper keeps that computation unit-safe.
    #[must_use]
    pub fn cycles(self, n: f64) -> Time {
        assert!(n >= 0.0, "cycle count must be non-negative, got {n}");
        self.period() * n
    }
}

impl core::fmt::Display for Frequency {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", crate::eng_format(self.0, "Hz"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "these unit scalings are exact in binary64, and the test pins the exact round trip"
    )]
    fn megahertz_round_trips() {
        assert_eq!(Frequency::from_mhz(32.0).mhz(), 32.0);
        assert_eq!(Frequency::from_khz(500.0).hz(), 5e5);
    }

    #[test]
    fn period_inverts_frequency() {
        let f = Frequency::from_mhz(10.0);
        assert!((f.period().nanos() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_scales_period() {
        // DMC at 10 MHz, W=1, 3 stages: (4+1)*3 + 100 = 115 cycles = 11.5 µs,
        // matching the paper's delay table entry.
        let t = Frequency::from_mhz(10.0).cycles(115.0);
        assert!((t.micros() - 11.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-positive frequency")]
    fn zero_frequency_has_no_period() {
        let _ = Frequency::ZERO.period();
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_cycle_count_rejected() {
        let _ = Frequency::from_mhz(1.0).cycles(-1.0);
    }

    #[test]
    fn display() {
        assert_eq!(Frequency::from_mhz(32.0).to_string(), "32.0 MHz");
    }
}
