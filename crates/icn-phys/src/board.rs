//! Board-level layout model (§3.3–3.4).
//!
//! A board hosts a `B×B` sub-network built from `k = log_N B` stages of N×N
//! crossbar chips, `B/N` chips per stage, lined up along the board edge with
//! the inter-stage wiring routed between the chip rows in the equal-length
//! (Wise) style. The paper's instance: a 256×256 board of two stages of
//! sixteen 16×16 chips, giving a 32 in edge, ~73 in² of routing, and a 35 in
//! worst-case trace.

use icn_tech::Technology;
use icn_units::{Area, Frequency, Length};
use serde::{Deserialize, Serialize};

use crate::pins;

/// Reasons a board plan can be physically infeasible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoardConstraint {
    /// The chip row is longer than the largest manufacturable board edge.
    EdgeTooLong {
        /// Required edge in mils.
        required_mils: u64,
        /// Maximum edge in mils.
        max_mils: u64,
    },
    /// Too many wires per layer: the available vertical pitch falls below
    /// the minimum crosstalk-safe separation.
    WirePitchTooFine {
        /// Available separation in mils.
        available_mils: u64,
        /// Minimum required separation in mils.
        required_mils: u64,
    },
    /// The edge connectors needed for the board's external lines do not fit
    /// along one board edge.
    ConnectorsDontFit {
        /// Connectors required.
        needed: u32,
        /// Connectors that fit on one edge.
        capacity: u32,
    },
}

impl core::fmt::Display for BoardConstraint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EdgeTooLong {
                required_mils,
                max_mils,
            } => write!(
                f,
                "board edge of {required_mils} mil exceeds the {max_mils} mil maximum"
            ),
            Self::WirePitchTooFine {
                available_mils,
                required_mils,
            } => write!(
                f,
                "inter-stage wires would sit {available_mils} mil apart, below the \
                 {required_mils} mil crosstalk limit"
            ),
            Self::ConnectorsDontFit { needed, capacity } => write!(
                f,
                "{needed} edge connectors needed but only {capacity} fit on one edge"
            ),
        }
    }
}

/// A planned board hosting part of the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardLayout {
    /// Ports on each side of the board's sub-network (`B`).
    pub board_ports: u32,
    /// Crossbar radix of each chip (`N`).
    pub chip_radix: u32,
    /// Data path width (`W`).
    pub width: u32,
    /// Stages hosted on the board (`k = log_N B`).
    pub stages: u32,
    /// Chips per stage (`B / N`).
    pub chips_per_stage: u32,
    /// Edge length of one chip package.
    pub package_edge: Length,
    /// Board edge along the chip rows.
    pub edge: Length,
    /// Wires routed through each inter-stage gap (`B·(W+1)`).
    pub wires_per_gap: u32,
    /// Wires per signal layer in each gap.
    pub wires_per_layer: u32,
    /// Vertical wire separation available at this edge length and layer
    /// count.
    pub available_pitch: Length,
    /// Routing area of one inter-stage gap (eq. 3.7 at board scale).
    pub gap_routing_area: Area,
    /// Total routing area across the `k − 1` gaps.
    pub routing_area: Area,
    /// Width of the routing channel(s), exact.
    pub routing_width: Length,
    /// Routing allowance rounded up to whole inches (the paper's
    /// "about 3 inches").
    pub routing_allowance: Length,
    /// Board dimension perpendicular to the chip rows: chip rows plus
    /// routing allowance.
    pub depth: Length,
    /// Worst-case on-board signal trace: edge plus routing allowance
    /// (the paper's 32 + 3 = 35 in).
    pub longest_trace: Length,
    /// External signal lines entering (and leaving) the board (`B·(W+1)`).
    pub external_lines: u32,
    /// Edge connectors required for one side's external lines.
    pub connectors_needed: u32,
    /// Constraint violations (empty when the board is feasible).
    pub violations: Vec<BoardConstraint>,
}

impl BoardLayout {
    /// Plan a board hosting a `board_ports × board_ports` sub-network of
    /// N×N, W-bit chips whose packages are sized for the pin budget at
    /// `clock`.
    ///
    /// # Panics
    /// Panics if `board_ports` is not an exact power of `chip_radix`
    /// (a board hosts a whole number of full stages), or if any parameter
    /// is zero.
    #[must_use]
    pub fn plan(
        tech: &Technology,
        chip_radix: u32,
        width: u32,
        board_ports: u32,
        clock: Frequency,
    ) -> Self {
        let budget = pins::pin_budget(tech, chip_radix, width, clock);
        let package_edge = tech.packaging.package_edge(budget.total());
        Self::plan_for_package(tech, chip_radix, width, board_ports, package_edge)
    }

    /// [`Self::plan`] for chips whose package edge is already known — a
    /// caller that has just computed the pin budget at the clock passes
    /// `tech.packaging.package_edge(budget.total())` instead of having it
    /// computed again.
    ///
    /// # Panics
    /// As [`Self::plan`].
    #[must_use]
    pub fn plan_for_package(
        tech: &Technology,
        chip_radix: u32,
        width: u32,
        board_ports: u32,
        package_edge: Length,
    ) -> Self {
        assert!(chip_radix >= 2, "chip radix must be at least 2");
        assert!(width >= 1, "width must be at least 1");
        let stages = exact_log(board_ports, chip_radix).unwrap_or_else(|| {
            panic!(
                "board ports ({board_ports}) must be an exact power of the chip radix \
                 ({chip_radix})"
            )
        });
        assert!(stages >= 1, "a board must host at least one stage");

        let chips_per_stage = board_ports / chip_radix;
        let edge = package_edge * f64::from(chips_per_stage);

        let wires_per_gap = board_ports.saturating_mul(width.saturating_add(1));
        let wires_per_layer = wires_per_gap.div_ceil(tech.board.signal_layers);
        let available_pitch = if wires_per_layer == 0 {
            edge
        } else {
            edge / f64::from(wires_per_layer)
        };

        // Eq. 3.7 applied at board scale exactly as the paper does: the gap
        // routing is "identical to the DMC implementation of a C×C crossbar"
        // with C = chips-per-stage bundles at the board wire pitch, h = d.
        let c = f64::from(chips_per_stage);
        let d = tech.board.wire_pitch;
        let gap_routing_area =
            Area::from_square_meters((c - 1.0).powi(4) * d.meters() * d.meters() / 3f64.sqrt());
        let gaps = stages.saturating_sub(1);
        let routing_area = gap_routing_area * f64::from(gaps.max(1));

        let routing_width = if edge.meters() > 0.0 {
            routing_area / edge
        } else {
            Length::ZERO
        };
        let routing_allowance = Length::from_inches(routing_width.inches().ceil());
        let depth = package_edge * f64::from(stages) + routing_allowance;
        let longest_trace = edge + routing_allowance;

        // The same N_b(W+1) lines (data plus buffer-full) leave the board.
        let external_lines = wires_per_gap;
        let connectors_needed = external_lines.div_ceil(tech.board.connector.lines());

        let mut violations = Vec::new();
        if edge > tech.board.max_edge {
            violations.push(BoardConstraint::EdgeTooLong {
                required_mils: edge.mils().round() as u64,
                max_mils: tech.board.max_edge.mils().round() as u64,
            });
        }
        if available_pitch < tech.board.wire_pitch {
            violations.push(BoardConstraint::WirePitchTooFine {
                available_mils: available_pitch.mils().round() as u64,
                required_mils: tech.board.wire_pitch.mils().round() as u64,
            });
        }
        let connector_capacity = if tech.board.connector.length.meters() > 0.0 {
            (edge.meters() / tech.board.connector.length.meters()).floor() as u32
        } else {
            0
        };
        if connectors_needed > connector_capacity {
            violations.push(BoardConstraint::ConnectorsDontFit {
                needed: connectors_needed,
                capacity: connector_capacity,
            });
        }

        Self {
            board_ports,
            chip_radix,
            width,
            stages,
            chips_per_stage,
            package_edge,
            edge,
            wires_per_gap,
            wires_per_layer,
            available_pitch,
            gap_routing_area,
            routing_area,
            routing_width,
            routing_allowance,
            depth,
            longest_trace,
            external_lines,
            connectors_needed,
            violations,
        }
    }

    /// Total chips on the board.
    #[must_use]
    pub fn total_chips(&self) -> u32 {
        self.stages.saturating_mul(self.chips_per_stage)
    }

    /// Whether every board-level constraint is satisfied.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.violations.is_empty()
    }
}

/// `log_base(value)` if it is an exact non-negative integer power.
#[must_use]
pub fn exact_log(value: u32, base: u32) -> Option<u32> {
    if base < 2 || value == 0 {
        return None;
    }
    let mut v = value;
    let mut log = 0;
    while v > 1 {
        if !v.is_multiple_of(base) {
            return None;
        }
        v /= base;
        log += 1;
    }
    Some(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets::paper1986;

    fn paper_board() -> BoardLayout {
        BoardLayout::plan(&paper1986(), 16, 4, 256, Frequency::from_mhz(32.0))
    }

    /// §3.3's headline numbers: 2 stages × 16 chips, ~32 in edge, 1280 wires
    /// per gap, 640 per layer at exactly the 50 mil minimum pitch, ~73 in²
    /// of routing ~3 in wide, 35 in longest trace.
    #[test]
    fn reproduces_section_3_3() {
        let b = paper_board();
        assert_eq!(b.stages, 2);
        assert_eq!(b.chips_per_stage, 16);
        assert_eq!(b.total_chips(), 32);
        assert_eq!(b.wires_per_gap, 1280);
        assert_eq!(b.wires_per_layer, 640);
        // Package ~2 in → edge ~32 in.
        assert!(
            (30.0..=36.0).contains(&b.edge.inches()),
            "edge {} in",
            b.edge.inches()
        );
        // Available pitch is at (or just above) the 50 mil minimum.
        assert!(b.available_pitch >= tech_pitch());
        // Routing area ≈ 73 in² (exact under eq. 3.7 with C=16, d=50 mil).
        assert!(
            (b.gap_routing_area.square_inches() - 73.07).abs() < 0.1,
            "gap routing area {} in²",
            b.gap_routing_area.square_inches()
        );
        assert_eq!(b.routing_allowance.inches().round() as i32, 3);
        // Longest trace = edge + allowance ≈ 35 in.
        assert!(
            (34.0..=38.0).contains(&b.longest_trace.inches()),
            "longest trace {} in",
            b.longest_trace.inches()
        );
        assert!(b.fits(), "violations: {:?}", b.violations);
    }

    fn tech_pitch() -> Length {
        paper1986().board.wire_pitch
    }

    /// §3.4: eight double-sided 100-line connectors carry the 1280 lines.
    #[test]
    fn reproduces_section_3_4_connectors() {
        let b = paper_board();
        assert_eq!(b.external_lines, 1280);
        assert_eq!(b.connectors_needed, 7); // ceil(1280/200); paper rounds to 8
        assert!(b.fits());
    }

    #[test]
    fn single_layer_board_violates_pitch() {
        let mut tech = paper1986();
        tech.board.signal_layers = 1;
        let b = BoardLayout::plan(&tech, 16, 4, 256, Frequency::from_mhz(32.0));
        assert!(!b.fits());
        assert!(b
            .violations
            .iter()
            .any(|v| matches!(v, BoardConstraint::WirePitchTooFine { .. })));
    }

    #[test]
    fn oversized_board_is_rejected() {
        let mut tech = paper1986();
        tech.board.max_edge = Length::from_inches(20.0);
        let b = BoardLayout::plan(&tech, 16, 4, 256, Frequency::from_mhz(32.0));
        assert!(b
            .violations
            .iter()
            .any(|v| matches!(v, BoardConstraint::EdgeTooLong { .. })));
    }

    #[test]
    fn single_stage_board_has_no_gap_routing() {
        let b = BoardLayout::plan(&paper1986(), 16, 4, 16, Frequency::from_mhz(32.0));
        assert_eq!(b.stages, 1);
        assert_eq!(b.chips_per_stage, 1);
        // One chip, no inter-stage gaps: longest trace is tiny.
        assert!(b.longest_trace.inches() < 5.0);
    }

    #[test]
    #[should_panic(expected = "exact power")]
    fn non_power_board_size_panics() {
        let _ = BoardLayout::plan(&paper1986(), 16, 4, 100, Frequency::from_mhz(32.0));
    }

    #[test]
    fn exact_log_works() {
        assert_eq!(exact_log(256, 16), Some(2));
        assert_eq!(exact_log(16, 16), Some(1));
        assert_eq!(exact_log(1, 16), Some(0));
        assert_eq!(exact_log(100, 16), None);
        assert_eq!(exact_log(0, 16), None);
        assert_eq!(exact_log(8, 1), None);
        assert_eq!(exact_log(4096, 2), Some(12));
    }

    #[test]
    fn constraint_display() {
        let c = BoardConstraint::EdgeTooLong {
            required_mils: 50000,
            max_mils: 40000,
        };
        assert!(c.to_string().contains("50000"));
        let c = BoardConstraint::ConnectorsDontFit {
            needed: 9,
            capacity: 8,
        };
        assert!(c.to_string().contains('9'));
    }

    /// Wire and chip counts saturate instead of wrapping to small values
    /// that would pass the pitch and connector checks.
    #[test]
    fn oversized_boards_saturate_and_never_fit() {
        let f = Frequency::from_mhz(10.0);
        let b = BoardLayout::plan(&paper1986(), 65_536, u32::MAX, 65_536, f);
        assert_eq!(b.wires_per_gap, u32::MAX);
        assert_eq!(b.external_lines, u32::MAX);
        assert!(!b.fits());
        // 31 stages of 2^30 radix-2 chips.
        let b = BoardLayout::plan(&paper1986(), 2, 1, 1 << 31, f);
        assert_eq!(b.total_chips(), u32::MAX);
        assert!(!b.fits());
    }
}
