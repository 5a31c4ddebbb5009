//! Chip area estimates for the two crossbar implementations (§3.2).
//!
//! **MCC (mesh-connected crossbar)**: N² identical 2×2 crosspoint switches in
//! a planar mesh. Each switch is a `(core + pitch·W)`-λ square — a 100λ
//! control core plus 10λ of routed pitch per data/control line in each
//! direction (eq. 3.5):
//!
//! ```text
//! A_MCC = N² · (100 + 20W)² λ²
//! ```
//!
//! **DMC (DMUX/MUX crossbar)**: N 1-to-N demultiplexers and N N-to-1
//! multiplexers joined by a complete bipartite wiring harness routed in the
//! equal-length style of Wise. With wire pitch `d` and `h = d` the harness
//! occupies (eq. 3.7)
//!
//! ```text
//! A_wire = (N−1)⁴ · (W·d)² / √3
//! ```
//!
//! and the mux/demux trees add `360·W·N²·log₂N` λ² (eq. 3.8). The paper's
//! eq. 3.9 prints the harness exponent as (N−1)³; that contradicts both the
//! eq. 3.6→3.7 derivation and the paper's own Table 3 ordering (DMC more
//! area-hungry than MCC), so we use the fourth power — see DESIGN.md.
//!
//! Both estimates are multiplied by their technology's area-overhead factor
//! (drivers, pads, the paper's "+1/3" margin; the MCC factor is calibrated —
//! see `icn_tech`).

use icn_tech::Technology;
use icn_units::Area;
use serde::{Deserialize, Serialize};

/// Which of the paper's two crossbar implementations a figure refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrossbarKind {
    /// Mesh-connected crossbar: O(N²) area, O(N) transit delay, fully local
    /// routing (Figure 4a).
    Mcc,
    /// DMUX/MUX crossbar: O(log N) gate delay but a bipartite wiring harness
    /// whose layout area grows as O(N⁴) (Figure 4b).
    Dmc,
}

impl CrossbarKind {
    /// All kinds, in the order the paper introduces them.
    pub const ALL: [Self; 2] = [Self::Mcc, Self::Dmc];

    /// Short uppercase label used in tables ("MCC"/"DMC").
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Mcc => "MCC",
            Self::Dmc => "DMC",
        }
    }
}

impl core::fmt::Display for CrossbarKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Area of an N×N, W-bit mesh-connected crossbar, *including* the
/// technology's layout overhead factor.
///
/// # Panics
/// Panics if `radix` or `width` is zero.
#[must_use]
pub fn mcc_area(tech: &Technology, radix: u32, width: u32) -> Area {
    assert!(radix > 0, "crossbar radix must be at least 1");
    assert!(width > 0, "data path width must be at least 1");
    let p = &tech.process;
    let pitch = p.mcc_switch_core_lambda + p.mcc_line_pitch_lambda * f64::from(width);
    let n = f64::from(radix);
    let raw = n * n * pitch * pitch;
    Area::from_square_lambda(raw * p.mcc_area_overhead, p.lambda)
}

/// Area of an N×N, W-bit DMUX/MUX crossbar, *including* the technology's
/// layout overhead factor.
///
/// # Panics
/// Panics if `radix < 2` (a 1×1 "crossbar" has no bipartite harness) or
/// `width` is zero.
#[must_use]
pub fn dmc_area(tech: &Technology, radix: u32, width: u32) -> Area {
    assert!(radix >= 2, "DMC crossbar radix must be at least 2");
    assert!(width > 0, "data path width must be at least 1");
    let p = &tech.process;
    let n = f64::from(radix);
    let w = f64::from(width);
    let harness = (n - 1.0).powi(4) * (w * p.dmc_wire_pitch_lambda).powi(2) / 3f64.sqrt();
    let muxes = p.dmc_mux_cell_area_coeff * w * n * n * n.log2();
    Area::from_square_lambda((harness + muxes) * p.dmc_area_overhead, p.lambda)
}

/// Length of each wire in the DMC's equal-length (Wise) bipartite harness.
///
/// Wise's routing gives all `W·N²` wires identical length; dividing the
/// harness area of eq. 3.7 by the total wire width (`W·N²` wires at pitch
/// `d`) yields
///
/// ```text
/// ℓ = (N−1)⁴ · W · d / (√3 · N²)  ≈  W·d·N²/√3   for large N
/// ```
///
/// — the O(N²) on-chip wire length behind §2.2's remark that "the overall
/// delay with this type of crossbar grows as O(N²)": once the harness wires
/// behave as transmission lines, their delay grows linearly with this
/// length, i.e. quadratically in N, and eventually swamps the O(log N)
/// gate delay of the mux/demux trees.
///
/// # Panics
/// Panics if `radix < 2` or `width == 0`.
#[must_use]
pub fn dmc_wire_length(tech: &Technology, radix: u32, width: u32) -> icn_units::Length {
    assert!(radix >= 2, "DMC crossbar radix must be at least 2");
    assert!(width >= 1, "data path width must be at least 1");
    let p = &tech.process;
    let n = f64::from(radix);
    let w = f64::from(width);
    let lambda_count = (n - 1.0).powi(4) * w * p.dmc_wire_pitch_lambda / (3f64.sqrt() * n * n);
    icn_units::Length::from_lambda(lambda_count, p.lambda)
}

/// Area of an N×N, W-bit crossbar of the given kind.
#[must_use]
pub fn crossbar_area(tech: &Technology, kind: CrossbarKind, radix: u32, width: u32) -> Area {
    match kind {
        CrossbarKind::Mcc => mcc_area(tech, radix, width),
        CrossbarKind::Dmc => dmc_area(tech, radix, width),
    }
}

/// Whether an N×N, W-bit crossbar of the given kind fits on the die.
#[must_use]
pub fn fits_on_die(tech: &Technology, kind: CrossbarKind, radix: u32, width: u32) -> bool {
    crossbar_area(tech, kind, radix, width).square_meters()
        <= tech.process.die_area().square_meters()
}

/// The largest crossbar radix of the given kind and width that fits on the
/// die (Table 3), or `None` if none fits.
///
/// # Examples
/// ```
/// use icn_phys::{area::max_crossbar, CrossbarKind};
/// use icn_tech::presets;
///
/// // Table 3: at W=4, MCC fits up to 25×25 and DMC up to 18×18.
/// let tech = presets::paper1986();
/// assert_eq!(max_crossbar(&tech, CrossbarKind::Mcc, 4), Some(25));
/// assert_eq!(max_crossbar(&tech, CrossbarKind::Dmc, 4), Some(18));
/// ```
///
/// Area is strictly increasing in N for both kinds, so the scan stops at the
/// first miss.
#[must_use]
pub fn max_crossbar(tech: &Technology, kind: CrossbarKind, width: u32) -> Option<u32> {
    let start = match kind {
        CrossbarKind::Mcc => 1,
        CrossbarKind::Dmc => 2,
    };
    let mut best = None;
    for n in start.. {
        if fits_on_die(tech, kind, n, width) {
            best = Some(n);
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets::paper1986;

    /// Table 3's MCC column, reproduced exactly with the calibrated layout
    /// overhead (see DESIGN.md for why calibration is needed).
    #[test]
    fn reproduces_table3_mcc_column() {
        let tech = paper1986();
        for (w, expected) in [(1u32, 37u32), (2, 32), (4, 25), (8, 17)] {
            assert_eq!(
                max_crossbar(&tech, CrossbarKind::Mcc, w),
                Some(expected),
                "MCC max radix mismatch at W={w}"
            );
        }
    }

    /// §3.2's only stated DMC limit: 18×18 at W = 4 (with the calibrated
    /// d = 6λ wire pitch).
    #[test]
    fn reproduces_dmc_limit_at_w4() {
        let tech = paper1986();
        assert_eq!(max_crossbar(&tech, CrossbarKind::Dmc, 4), Some(18));
    }

    /// §3.2's conclusion: a 16×16, W=4 crossbar satisfies the area
    /// constraints of *both* designs.
    #[test]
    fn paper_16x16_w4_fits_both_designs() {
        let tech = paper1986();
        assert!(fits_on_die(&tech, CrossbarKind::Mcc, 16, 4));
        assert!(fits_on_die(&tech, CrossbarKind::Dmc, 16, 4));
    }

    /// The paper's qualitative ordering: the DMC harness makes DMC strictly
    /// more area-hungry than MCC at every width (Table 3 row-wise).
    #[test]
    fn dmc_fits_smaller_crossbars_than_mcc() {
        let tech = paper1986();
        for w in [1, 2, 4, 8] {
            let mcc = max_crossbar(&tech, CrossbarKind::Mcc, w).unwrap();
            let dmc = max_crossbar(&tech, CrossbarKind::Dmc, w).unwrap();
            assert!(dmc < mcc, "W={w}: DMC {dmc} should be below MCC {mcc}");
        }
    }

    #[test]
    fn mcc_area_formula_spot_check() {
        // Raw eq. 3.5 for N=16, W=4: 256·180² = 8 294 400 λ², times the
        // calibrated overhead 2.1609.
        let tech = paper1986();
        let a = mcc_area(&tech, 16, 4);
        let expected = 256.0 * 180.0 * 180.0 * 2.1609;
        assert!((a.in_square_lambda(tech.process.lambda) - expected).abs() < 1.0);
    }

    #[test]
    fn dmc_area_components_spot_check() {
        // Raw harness for N=16, W=4, d=6: 15⁴·(24)²/√3 ≈ 16.83 Mλ²;
        // muxes: 360·4·256·4 = 1.47 Mλ²; total ≈ 18.3 Mλ², ×4/3 ≈ 24.4 Mλ².
        let tech = paper1986();
        let a = dmc_area(&tech, 16, 4);
        let harness = 50625.0 * 576.0 / 3f64.sqrt();
        let muxes = 360.0 * 4.0 * 256.0 * 4.0;
        let expected = (harness + muxes) * 4.0 / 3.0;
        let got = a.in_square_lambda(tech.process.lambda);
        assert!(
            (got - expected).abs() / expected < 1e-12,
            "got {got}, want {expected}"
        );
    }

    #[test]
    fn area_is_monotonic_in_radix_and_width() {
        let tech = paper1986();
        for kind in CrossbarKind::ALL {
            let mut prev = Area::ZERO;
            for n in 2..40 {
                let a = crossbar_area(&tech, kind, n, 4);
                assert!(a > prev, "{kind} area not increasing at N={n}");
                prev = a;
            }
            assert!(
                crossbar_area(&tech, kind, 16, 8) > crossbar_area(&tech, kind, 16, 4),
                "{kind} area not increasing in W"
            );
        }
    }

    #[test]
    fn max_crossbar_none_when_nothing_fits() {
        let mut tech = paper1986();
        // A die smaller than one crosspoint switch.
        tech.process.die_edge = icn_units::Length::from_microns(10.0);
        assert_eq!(max_crossbar(&tech, CrossbarKind::Mcc, 4), None);
        assert_eq!(max_crossbar(&tech, CrossbarKind::Dmc, 4), None);
    }

    #[test]
    fn labels() {
        assert_eq!(CrossbarKind::Mcc.to_string(), "MCC");
        assert_eq!(CrossbarKind::Dmc.label(), "DMC");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn dmc_radix_one_panics() {
        let _ = dmc_area(&paper1986(), 1, 1);
    }

    /// The harness wire length grows quadratically in N (§2.2's O(N²)
    /// delay mechanism): quadrupling N multiplies the length by ~16.
    #[test]
    fn dmc_wire_length_is_quadratic() {
        let tech = paper1986();
        let l8 = dmc_wire_length(&tech, 8, 4).microns();
        let l16 = dmc_wire_length(&tech, 16, 4).microns();
        let l32 = dmc_wire_length(&tech, 32, 4).microns();
        let r1 = l16 / l8;
        let r2 = l32 / l16;
        assert!((3.0..6.0).contains(&r1), "8->16 ratio {r1}");
        assert!((3.5..4.7).contains(&r2), "16->32 ratio {r2}");
        // Consistency with the harness area: ℓ · (W·N²·d) = A_wire.
        let n = 16.0f64;
        let area_l2 = 15.0f64.powi(4) * (4.0 * 6.0f64).powi(2) / 3.0f64.sqrt();
        let width_l = 4.0 * n * n * 6.0;
        let expected = area_l2 / width_l * 1.5; // λ → µm
        assert!(
            (l16 - expected).abs() / expected < 1e-9,
            "{l16} vs {expected}"
        );
    }

    /// `N²` no longer wraps: a 65536-port MCC once had zero area.
    #[test]
    fn oversized_mcc_exceeds_the_die() {
        let tech = paper1986();
        let die = tech.process.die_area().square_meters();
        for width in [1, u32::MAX] {
            let area = mcc_area(&tech, 65_536, width).square_meters();
            assert!(area > die, "W={width}: {area} m² fits a {die} m² die");
        }
    }
}
