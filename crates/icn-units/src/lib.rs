//! Unit-safe physical quantities for interconnection-network physical design.
//!
//! Franklin & Dhar's 1986 design study mixes an unusual collection of units:
//! nanoseconds and microseconds of delay, megahertz clocks, nanohenries of pin
//! inductance, ohms of line impedance, volts of supply and threshold voltage,
//! and lengths in microns, lambda (scalable layout units), mils and inches.
//! Mixing these up silently is the classic failure mode of re-implementing a
//! paper full of engineering formulas, so every quantity in this workspace is
//! a dedicated newtype with explicit constructors and accessors.
//!
//! Design notes:
//!
//! * Each quantity stores a single `f64` in a fixed SI-ish base unit
//!   (seconds, hertz, metres, square metres, volts, henries, ohms, farads,
//!   amperes). Constructors and accessors perform the scaling, so call sites
//!   read like the paper: `Time::from_nanos(14.0)`, `Frequency::from_mhz(32.0)`.
//! * Arithmetic is implemented only where it is dimensionally meaningful.
//!   Cross-quantity products that appear in the paper's equations (for example
//!   `L · Δi / Δt` from the Appendix, or `R · C` time constants from eq. 6.1)
//!   get dedicated `impl Mul`/`impl Div` instances returning the correct type.
//! * Everything is `Copy`, `PartialOrd`, serde-serializable and has a
//!   human-readable `Display` that picks a sensible engineering prefix.
//!
//! The crate is deliberately free of dependencies beyond `serde`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[macro_use]
mod macros;

mod area;
mod electrical;
mod format;
mod frequency;
mod length;
mod power;
mod time;

pub use area::Area;
pub use electrical::{Capacitance, Current, Inductance, Resistance, Voltage};
pub use format::eng_format;
pub use frequency::Frequency;
pub use length::Length;
pub use power::{Energy, Power};
pub use time::Time;

/// Relative tolerance used by the `approx_eq` helpers on each quantity.
///
/// The paper's tables are printed to 2–3 significant digits, so a relative
/// tolerance of one part in a million is far tighter than any comparison we
/// make against the paper while still absorbing floating-point noise.
pub const DEFAULT_REL_TOL: f64 = 1e-6;

/// Compare two `f64` values with a relative tolerance, handling zeros.
///
/// This is the common implementation behind each quantity's `approx_eq`.
#[must_use]
#[expect(
    clippy::float_cmp,
    reason = "exact equality is the contract's first case: it makes equal infinities compare equal"
)]
pub fn approx_eq_f64(a: f64, b: f64, rel_tol: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        return true;
    }
    (a - b).abs() <= rel_tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_handles_exact_equality() {
        assert!(approx_eq_f64(1.5, 1.5, 0.0));
        assert!(approx_eq_f64(0.0, 0.0, 0.0));
    }

    #[test]
    fn approx_eq_respects_relative_tolerance() {
        assert!(approx_eq_f64(100.0, 100.0 + 1e-5, 1e-6));
        assert!(!approx_eq_f64(100.0, 100.1, 1e-6));
    }

    #[test]
    fn approx_eq_is_symmetric() {
        assert_eq!(
            approx_eq_f64(3.0, 3.0000001, 1e-6),
            approx_eq_f64(3.0000001, 3.0, 1e-6)
        );
    }
}
