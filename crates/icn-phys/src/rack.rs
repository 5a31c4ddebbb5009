//! 3-D board racking for full networks (§6.1, Figure 5).
//!
//! Networks larger than one board are assembled from board "layers": each
//! layer is a rank of boards that together host `k` consecutive stages of
//! the full network, racked face-to-face so that inter-board wires never
//! exceed a board diagonal. The paper's 2048×2048 instance: one layer of
//! eight 256×256 boards (stages 1–2) plus a rank of eight boards holding the
//! last stage, sixteen boards in all, with the longest chip-to-chip wire
//! bounded by the 35 in board trace.

use icn_tech::Technology;
use icn_units::{Frequency, Length};
use serde::{Deserialize, Serialize};

use crate::board::BoardLayout;

/// A planned rack of boards implementing the full N′×N′ network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackLayout {
    /// Ports on each side of the full network (`N′`).
    pub network_ports: u32,
    /// Total switching stages (`⌈log_N N′⌉`).
    pub stages: u32,
    /// The board design replicated through the rack.
    pub board: BoardLayout,
    /// Full board layers (each hosting `board.stages` consecutive stages).
    pub full_layers: u32,
    /// Stages left over after the full layers (hosted on a partial layer).
    pub remainder_stages: u32,
    /// Boards per layer (`⌈N′ / B⌉`).
    pub boards_per_layer: u32,
    /// Total boards in the rack.
    pub total_boards: u32,
    /// Total crossbar chips in the network.
    pub total_chips: u32,
    /// Longest chip-to-chip wire anywhere in the rack. With face-to-face
    /// racking this is the board's longest trace (§6.1).
    pub longest_wire: Length,
}

impl RackLayout {
    /// Plan a rack for an `network_ports`-port network built from the given
    /// board design.
    ///
    /// `network_ports` need not be an exact power of the chip radix (the
    /// paper's 2048 is not a power of 16); the stage count is
    /// `⌈log_N N′⌉` and partially-used chips are counted as whole chips.
    ///
    /// # Panics
    /// Panics if `network_ports` is smaller than the board's port count.
    #[must_use]
    pub fn plan(
        tech: &Technology,
        chip_radix: u32,
        width: u32,
        board_ports: u32,
        network_ports: u32,
        clock: Frequency,
    ) -> Self {
        Self::from_board(
            BoardLayout::plan(tech, chip_radix, width, board_ports, clock),
            network_ports,
        )
    }

    /// Rack an `network_ports`-port network out of copies of `board`:
    /// the network-scale step of [`Self::plan`]. The board fixes the
    /// chip radix, the stages per layer and the longest wire, so a board
    /// planned once serves every network size.
    ///
    /// # Panics
    /// As [`Self::plan`].
    #[must_use]
    pub fn from_board(board: BoardLayout, network_ports: u32) -> Self {
        let board_ports = board.board_ports;
        let chip_radix = board.chip_radix;
        assert!(
            network_ports >= board_ports,
            "network ({network_ports} ports) must be at least one board ({board_ports} ports)"
        );
        let stages = ceil_log(network_ports, chip_radix);
        let full_layers = stages / board.stages;
        let remainder_stages = stages % board.stages;
        let boards_per_layer = network_ports.div_ceil(board_ports);
        let remainder_layers = u32::from(remainder_stages > 0);
        let total_boards = (full_layers + remainder_layers).saturating_mul(boards_per_layer);
        let chips_per_stage = network_ports.div_ceil(chip_radix);
        let total_chips = stages.saturating_mul(chips_per_stage);
        let longest_wire = board.longest_trace;
        Self {
            network_ports,
            stages,
            board,
            full_layers,
            remainder_stages,
            boards_per_layer,
            total_boards,
            total_chips,
            longest_wire,
        }
    }

    /// Physical footprint of the rack with boards stacked face-to-face at
    /// `board_spacing`: (edge × depth) board outline, `total_boards` deep.
    ///
    /// §6.1's "racking the boards in three dimensional space" — this gives
    /// the stack height and the volume a machine-room plan needs.
    #[must_use]
    pub fn stack_dimensions(&self, board_spacing: Length) -> (Length, Length, Length) {
        (
            self.board.edge,
            self.board.depth,
            board_spacing * f64::from(self.total_boards),
        )
    }
}

/// `⌈log_base(value)⌉` for integers (number of radix-`base` stages needed to
/// reach `value` ports).
///
/// # Panics
/// Panics if `base < 2` or `value == 0`.
#[must_use]
pub fn ceil_log(value: u32, base: u32) -> u32 {
    assert!(base >= 2, "logarithm base must be at least 2");
    assert!(value >= 1, "value must be at least 1");
    let mut stages = 0;
    let mut reach: u64 = 1;
    while reach < u64::from(value) {
        reach *= u64::from(base);
        stages += 1;
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pins;
    use icn_tech::presets::paper1986;

    fn paper_rack() -> RackLayout {
        RackLayout::plan(&paper1986(), 16, 4, 256, 2048, Frequency::from_mhz(32.0))
    }

    /// Planning for a known package edge is the same plan as planning
    /// for the clock that edge was sized at, board and rack alike.
    #[test]
    fn plan_for_package_matches_plan_at_the_clock() {
        let tech = paper1986();
        for (radix, width, board_ports, network_ports, mhz) in [
            (16, 4, 256, 2048, 32.0),
            (8, 2, 64, 4096, 10.0),
            (4, 16, 16, 16, 75.0),
        ] {
            let clock = Frequency::from_mhz(mhz);
            let edge = tech
                .packaging
                .package_edge(pins::pin_budget(&tech, radix, width, clock).total());
            let board = BoardLayout::plan_for_package(&tech, radix, width, board_ports, edge);
            assert_eq!(
                board,
                BoardLayout::plan(&tech, radix, width, board_ports, clock)
            );
            assert_eq!(
                RackLayout::from_board(board, network_ports),
                RackLayout::plan(&tech, radix, width, board_ports, network_ports, clock),
            );
        }
    }

    /// §6.1: "The first two stages of the network are implemented from eight
    /// 256×256 network boards; the last stage consists of eight boards" —
    /// 16 boards, 3 stages, 384 chips, longest wire = the 35 in board trace.
    #[test]
    fn reproduces_section_6_1() {
        let r = paper_rack();
        assert_eq!(r.stages, 3);
        assert_eq!(r.full_layers, 1);
        assert_eq!(r.remainder_stages, 1);
        assert_eq!(r.boards_per_layer, 8);
        assert_eq!(r.total_boards, 16);
        assert_eq!(r.total_chips, 3 * 128);
        assert!((34.0..=38.0).contains(&r.longest_wire.inches()));
        assert!(r.board.fits());
    }

    #[test]
    fn power_of_radix_network_has_no_remainder() {
        let r = RackLayout::plan(&paper1986(), 16, 4, 256, 4096, Frequency::from_mhz(32.0));
        assert_eq!(r.stages, 3);
        assert_eq!(r.full_layers, 1);
        assert_eq!(r.remainder_stages, 1); // 3 stages on 2-stage boards
        assert_eq!(r.boards_per_layer, 16);
        assert_eq!(r.total_boards, 32);
    }

    #[test]
    fn network_of_one_board_is_one_layer() {
        let r = RackLayout::plan(&paper1986(), 16, 4, 256, 256, Frequency::from_mhz(32.0));
        assert_eq!(r.stages, 2);
        assert_eq!(r.full_layers, 1);
        assert_eq!(r.remainder_stages, 0);
        assert_eq!(r.total_boards, 1);
        assert_eq!(r.total_chips, 32);
    }

    #[test]
    fn ceil_log_cases() {
        assert_eq!(ceil_log(2048, 16), 3);
        assert_eq!(ceil_log(4096, 16), 3);
        assert_eq!(ceil_log(256, 16), 2);
        assert_eq!(ceil_log(512, 16), 3);
        assert_eq!(ceil_log(1, 16), 0);
        assert_eq!(ceil_log(17, 16), 2);
        assert_eq!(ceil_log(4096, 2), 12);
    }

    #[test]
    fn stack_dimensions_are_plausible() {
        // 16 boards at 1 in spacing: a 32 in × ~7 in × 16 in brick — the
        // "three dimensional space" of §6.1 is a real piece of furniture.
        let r = paper_rack();
        let (w, d, h) = r.stack_dimensions(Length::from_inches(1.0));
        assert!((w.inches() - 32.0).abs() < 2.0);
        assert!(
            (5.0..=12.0).contains(&d.inches()),
            "depth {} in",
            d.inches()
        );
        assert!((h.inches() - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one board")]
    fn network_smaller_than_board_panics() {
        let _ = RackLayout::plan(&paper1986(), 16, 4, 256, 128, Frequency::from_mhz(32.0));
    }

    /// 32 stages of 2^31 radix-2 chips on 2-port boards: the chip and
    /// board counts saturate instead of wrapping.
    #[test]
    fn oversized_rack_counts_saturate() {
        let r = RackLayout::plan(&paper1986(), 2, 1, 2, u32::MAX, Frequency::from_mhz(10.0));
        assert_eq!(r.stages, 32);
        assert_eq!(r.total_chips, u32::MAX);
        assert_eq!(r.total_boards, u32::MAX);
    }
}
