//! End-to-end design evaluation: one [`DesignPoint`] in, one fully audited
//! [`DesignReport`] out.
//!
//! The evaluation chains the paper's models in dependency order, solving the
//! one circularity by fixed-point iteration: the achievable clock frequency
//! depends on the longest trace (board layout), the layout depends on the
//! package size (pin count), and the pin count depends on the frequency
//! (ground-bounce pins grow linearly with F, eq. 3.4). Package edges are
//! quantized to whole pin rows, so the iteration settles within a few
//! rounds. The whole loop is board-scale: the network size `N′` sets only
//! the stage count and the chip count, so it never enters it. [`solve`] is
//! that iteration and nothing else; [`Solution::violations`] is the one
//! feasibility verdict over it; and [`DesignPoint::evaluate`] racks the
//! converged board into the `N′`-port network
//! ([`RackLayout::from_board`]) and adds the delays and the report.

use icn_phys::board::BoardConstraint;
use icn_phys::clock::MAX_SKEW_FRACTION;
use icn_phys::{
    area, board::BoardLayout, clock::ClockBudget, pins, rack::RackLayout, signal, ClockScheme,
    CrossbarKind, PinBudget,
};
use icn_tech::Technology;
use icn_units::{Frequency, Time};
use serde::{Deserialize, Serialize};

use crate::delay;

/// A candidate network design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The implementation technology.
    pub tech: Technology,
    /// Crossbar implementation style.
    pub kind: CrossbarKind,
    /// Chip crossbar radix `N`.
    pub chip_radix: u32,
    /// Data path width `W` in bits.
    pub width: u32,
    /// Ports per board sub-network (`B`, a power of `N`).
    pub board_ports: u32,
    /// Ports of the full network (`N′`).
    pub network_ports: u32,
    /// Packet size `P` in bits.
    pub packet_bits: u32,
    /// Clock distribution scheme.
    pub clock_scheme: ClockScheme,
    /// Memory access time for round-trip estimates.
    pub memory_access: Time,
}

impl DesignPoint {
    /// The paper's §6 example: 2048×2048 from 16×16, W=4 chips on 256-port
    /// boards, 100-bit packets, 200 ns memory.
    #[must_use]
    pub fn paper_example(tech: Technology, kind: CrossbarKind) -> Self {
        Self {
            tech,
            kind,
            chip_radix: 16,
            width: 4,
            board_ports: 256,
            network_ports: 2048,
            packet_bits: 100,
            clock_scheme: ClockScheme::MultiplePulse,
            memory_access: Time::from_nanos(200.0),
        }
    }

    /// Evaluate the design against every constraint.
    ///
    /// # Examples
    /// ```
    /// use icn_core::DesignPoint;
    /// use icn_phys::CrossbarKind;
    /// use icn_tech::presets;
    ///
    /// // The §6 pipeline in three lines: ~32 MHz, ~1 µs, feasible.
    /// let report =
    ///     DesignPoint::paper_example(presets::paper1986(), CrossbarKind::Dmc).evaluate();
    /// assert!(report.feasible());
    /// assert!((31.0..34.0).contains(&report.frequency.mhz()));
    /// assert!(report.slowdown_vs_local > 10.0);
    /// ```
    #[must_use]
    pub fn evaluate(&self) -> DesignReport {
        let solution = solve(
            &self.tech,
            self.chip_radix,
            self.width,
            self.board_ports,
            self.clock_scheme,
        );
        let chip_area = area::crossbar_area(&self.tech, self.kind, self.chip_radix, self.width);
        let chip_area_fraction =
            chip_area.square_meters() / self.tech.process.die_area().square_meters();
        let violations = solution
            .violations(chip_area_fraction, self.clock_scheme)
            .collect();
        let Solution {
            pins,
            board,
            clock,
            frequency,
            iterations,
        } = solution;
        let rack = RackLayout::from_board(board.clone(), self.network_ports);

        let one_way = delay::unloaded_delay(
            self.kind,
            self.chip_radix,
            self.width,
            self.packet_bits,
            self.network_ports,
            frequency,
        );
        let round_trip = delay::RoundTrip {
            one_way,
            memory_access: self.memory_access,
        };

        DesignReport {
            point: self.clone(),
            pins,
            chip_area_fraction,
            board,
            rack,
            clock,
            frequency,
            d_l: signal::logic_memory_delay(&self.tech),
            one_way,
            round_trip_total: round_trip.total(),
            slowdown_vs_local: round_trip.slowdown_vs_local(self.memory_access),
            fixed_point_iterations: iterations,
            violations,
        }
    }
}

/// The converged frequency fixed point of one chip on one board: what
/// [`solve`] returns. Nothing in it depends on the network size; the rack
/// of an `N′`-port network is [`RackLayout::from_board`] of its board.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Chip pin budget at the converged frequency.
    pub pins: PinBudget,
    /// Board layout at the converged frequency.
    pub board: BoardLayout,
    /// Clock delay budget of the board's longest trace, which is the
    /// longest wire of any rack built from it (§6.1).
    pub clock: ClockBudget,
    /// Achievable clock frequency under the chosen scheme.
    pub frequency: Frequency,
    /// Rounds the fixed point took (at most 16).
    pub iterations: u32,
}

impl Solution {
    /// The one feasibility verdict: every rule this design breaks, in
    /// report order, given its crossbar's share of the die and its clock
    /// scheme. Nothing means feasible. The rules are the pin budget (eq.
    /// 3.1–3.4), the die area (§3.2), the board (§3.3–3.4) and the clock
    /// skew ([`ClockBudget::skew_within_budget`], eq. 5.3). The report,
    /// the streaming explorer and `icn lint config` all read it.
    pub fn violations(
        &self,
        chip_area_fraction: f64,
        clock_scheme: ClockScheme,
    ) -> impl Iterator<Item = Violation> + '_ {
        let pins = (!self.pins.fits()).then_some(Violation::Pins(self.pins));
        let board = self.board.violations.iter().cloned();
        let skew = (!self.clock.skew_within_budget(clock_scheme)).then(|| Violation::Skew {
            fraction: self.clock.skew_fraction(clock_scheme),
        });
        pins.into_iter()
            .chain(Violation::area(chip_area_fraction))
            .chain(board.map(Violation::Board))
            .chain(skew)
    }
}

/// One rule a design breaks, with the numbers its message needs.
/// `Display` is the message `icn lint config` prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// The chip needs more pins than its package provides.
    Pins(PinBudget),
    /// The crossbar layout needs `fraction` (> 1) of the die.
    Area {
        /// Crossbar area over die area.
        fraction: f64,
    },
    /// The board breaks an edge, wire-pitch or connector limit.
    Board(BoardConstraint),
    /// Skew takes `fraction` (> [`MAX_SKEW_FRACTION`]) of the period.
    Skew {
        /// Skew over the minimum clock period.
        fraction: f64,
    },
}

impl Violation {
    /// The die-area rule alone. It depends on neither board nor clock,
    /// so the explorer runs it before any fixed point.
    #[must_use]
    pub fn area(chip_area_fraction: f64) -> Option<Self> {
        (chip_area_fraction > 1.0).then_some(Self::Area {
            fraction: chip_area_fraction,
        })
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Pins(p) => write!(
                f,
                "pin budget exceeded: chip needs {} pins (data {}, control {}, power/ground {}) \
                 but the package provides {}",
                p.total(),
                p.data,
                p.control,
                p.power_ground,
                p.max_pins
            ),
            Self::Area { fraction } => write!(
                f,
                "crossbar layout needs {fraction:.2}x the available die area"
            ),
            Self::Board(constraint) => constraint.fmt(f),
            Self::Skew { fraction } => write!(
                f,
                "clock skew consumes {:.1}% of the cycle (limit {:.0}%)",
                fraction * 100.0,
                MAX_SKEW_FRACTION * 100.0
            ),
        }
    }
}

/// Solve the frequency fixed point F → pins → package/board → trace →
/// clock budget → F for an `N = chip_radix`, width-`W` chip on
/// `board_ports`-port boards.
///
/// Starts at 10 MHz and stops once a round moves F by at most 1 Hz, or
/// after 16 rounds. Area, network size, packet size and memory time play
/// no part, so this is the whole physical solve a design needs, and one
/// solve serves every network and crossbar kind built from the same
/// chip and board. [`DesignPoint::evaluate`] racks and reports on it;
/// the streaming explorer calls it once per distinct chip and board of
/// an `explore` call.
///
/// # Panics
/// Panics if `chip_radix` is below 2, `width` is 0, or `board_ports` is
/// not a positive power of `chip_radix` (see [`BoardLayout::plan`]).
#[must_use]
pub fn solve(
    tech: &Technology,
    chip_radix: u32,
    width: u32,
    board_ports: u32,
    clock_scheme: ClockScheme,
) -> Solution {
    let mut f = Frequency::from_mhz(10.0);
    let mut iterations = 0u32;
    loop {
        let pins = pins::pin_budget(tech, chip_radix, width, f);
        let package_edge = tech.packaging.package_edge(pins.total());
        let board =
            BoardLayout::plan_for_package(tech, chip_radix, width, board_ports, package_edge);
        let clock = ClockBudget::compute(tech, chip_radix, board.longest_trace);
        let frequency = clock.max_frequency(clock_scheme);
        iterations += 1;
        if (frequency.hz() - f.hz()).abs() <= 1.0 || iterations >= 16 {
            return Solution {
                pins,
                board,
                clock,
                frequency,
                iterations,
            };
        }
        f = frequency;
    }
}

/// The audited result of evaluating a [`DesignPoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// The design evaluated.
    pub point: DesignPoint,
    /// Chip pin budget at the converged frequency.
    pub pins: PinBudget,
    /// Chip crossbar area as a fraction of the die (> 1 means it doesn't
    /// fit).
    pub chip_area_fraction: f64,
    /// Board layout.
    pub board: BoardLayout,
    /// Rack layout for the full network.
    pub rack: RackLayout,
    /// Clock delay budget.
    pub clock: ClockBudget,
    /// Achievable clock frequency under the chosen scheme.
    pub frequency: Frequency,
    /// Logic + memory delay used in the budget.
    pub d_l: Time,
    /// Unloaded one-way network delay at the achievable frequency.
    pub one_way: Time,
    /// Remote read round trip (`2·one_way + memory`).
    pub round_trip_total: Time,
    /// Round-trip slowdown versus a local access of the memory-access time.
    pub slowdown_vs_local: f64,
    /// Iterations the frequency fixed point needed.
    pub fixed_point_iterations: u32,
    /// The rules the design breaks, from [`Solution::violations`]
    /// (empty = feasible).
    pub violations: Vec<Violation>,
}

impl DesignReport {
    /// Whether every constraint is satisfied.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable one-line-per-aspect summary of the evaluated design:
    /// geometry, frequency, pin budget, board/rack layout, clock budget.
    /// Shared by `icn lint config` and the `icn-serve` evaluation endpoint
    /// so every surface describes a design identically. `tech_label` is the
    /// caller's name for the technology (e.g. the preset key a spec file
    /// used), which may differ from [`Technology::name`].
    #[must_use]
    pub fn summary_lines(&self, tech_label: &str) -> Vec<String> {
        let p = &self.point;
        let skew_fraction = self.clock.skew_fraction(p.clock_scheme);
        vec![
            format!(
                "design: {}-port network from {}x{} W={} {} chips on {}-port boards ({})",
                p.network_ports, p.chip_radix, p.chip_radix, p.width, p.kind, p.board_ports,
                tech_label
            ),
            format!(
                "frequency: {:.1} MHz ({} scheme), packet {} bits, one-way {:.2} us",
                self.frequency.mhz(),
                p.clock_scheme,
                p.packet_bits,
                self.one_way.micros()
            ),
            format!(
                "pins: {}/{} per chip (data {}, control {}, power/ground {})",
                self.pins.total(),
                self.pins.max_pins,
                self.pins.data,
                self.pins.control,
                self.pins.power_ground
            ),
            format!(
                "board: {} stages x {} chips, edge {:.1} in, {} connectors; rack: {} boards, {} chips",
                self.board.stages,
                self.board.chips_per_stage,
                self.board.edge.inches(),
                self.board.connectors_needed,
                self.rack.total_boards,
                self.rack.total_chips
            ),
            format!(
                "clock: tau {:.2} ns, skew {:.2} ns ({:.1}% of period, limit {:.0}%)",
                self.clock.tau.nanos(),
                self.clock.skew.nanos(),
                skew_fraction * 100.0,
                MAX_SKEW_FRACTION * 100.0
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    fn paper_report(kind: CrossbarKind) -> DesignReport {
        DesignPoint::paper_example(presets::paper1986(), kind).evaluate()
    }

    /// §6 end to end: ~32 MHz, ~1 µs one-way, > 2 µs round trip, > 10×
    /// local-access slowdown, 16 boards, 384 chips — all feasible.
    #[test]
    fn reproduces_the_papers_conclusion() {
        let r = paper_report(CrossbarKind::Dmc);
        assert!(r.feasible(), "violations: {:?}", r.violations);
        assert!(
            (30.0..=34.0).contains(&r.frequency.mhz()),
            "frequency {} MHz",
            r.frequency.mhz()
        );
        assert!(
            (0.85..=1.15).contains(&r.one_way.micros()),
            "one-way {} µs",
            r.one_way.micros()
        );
        assert!(r.round_trip_total.micros() > 2.0);
        assert!(r.slowdown_vs_local > 10.0);
        assert_eq!(r.rack.total_boards, 16);
        assert_eq!(r.rack.total_chips, 384);
    }

    /// Both crossbar styles fit the 16×16/W=4 chip; MCC is slower end to
    /// end because of its N-cycle per-stage fill.
    #[test]
    fn both_kinds_feasible_mcc_slower() {
        let dmc = paper_report(CrossbarKind::Dmc);
        let mcc = paper_report(CrossbarKind::Mcc);
        assert!(mcc.feasible(), "{:?}", mcc.violations);
        assert!(dmc.feasible(), "{:?}", dmc.violations);
        assert!(mcc.one_way > dmc.one_way);
        // Clock budgets are identical (§6.2: "both the MCC and DMC designs
        // resulted in equal clock frequencies").
        assert!(mcc.frequency.approx_eq(dmc.frequency));
    }

    #[test]
    fn fixed_point_converges_quickly() {
        let r = paper_report(CrossbarKind::Dmc);
        assert!(
            r.fixed_point_iterations <= 6,
            "{} iterations",
            r.fixed_point_iterations
        );
    }

    /// `evaluate` reports exactly what `solve` converges to, racked into
    /// the design's network, for a feasible design, a pin violator and an
    /// area violator.
    #[test]
    fn evaluate_reports_the_solve() {
        let paper = DesignPoint::paper_example(presets::paper1986(), CrossbarKind::Dmc);
        let mut pin_violator = paper.clone();
        pin_violator.width = 8;
        let mut area_violator = paper.clone();
        area_violator.chip_radix = 32;
        area_violator.board_ports = 1024;
        area_violator.network_ports = 32768;
        for point in [paper, pin_violator, area_violator] {
            let report = point.evaluate();
            let solution = solve(
                &point.tech,
                point.chip_radix,
                point.width,
                point.board_ports,
                point.clock_scheme,
            );
            assert_eq!(report.pins, solution.pins);
            assert_eq!(report.board, solution.board);
            assert_eq!(
                report.rack,
                RackLayout::from_board(solution.board.clone(), point.network_ports)
            );
            assert_eq!(report.clock, solution.clock);
            assert_eq!(
                report.frequency.hz().to_bits(),
                solution.frequency.hz().to_bits()
            );
            assert_eq!(report.fixed_point_iterations, solution.iterations);
        }
    }

    /// An infeasible design reports *why*: W=8 chips blow the pin budget.
    #[test]
    fn wide_paths_violate_pins() {
        let mut point = DesignPoint::paper_example(presets::paper1986(), CrossbarKind::Dmc);
        point.width = 8;
        let r = point.evaluate();
        assert!(!r.feasible());
        assert!(
            r.violations.iter().any(|v| matches!(v, Violation::Pins(_))),
            "violations: {:?}",
            r.violations
        );
    }

    /// The verdict reads the clock-skew budget: tripling the paper
    /// design's skew takes it past [`MAX_SKEW_FRACTION`] of the period,
    /// and that is its only violation.
    #[test]
    fn verdict_reads_the_skew_budget() {
        let paper = DesignPoint::paper_example(presets::paper1986(), CrossbarKind::Dmc);
        let scheme = paper.clock_scheme;
        let mut solution = solve(&paper.tech, 16, 4, 256, scheme);
        assert_eq!(solution.violations(0.5, scheme).count(), 0);
        solution.clock.skew = solution.clock.skew * 3.0;
        let violations: Vec<Violation> = solution.violations(0.5, scheme).collect();
        assert!(
            matches!(
                violations.as_slice(),
                [Violation::Skew { fraction }] if *fraction > MAX_SKEW_FRACTION
            ),
            "{violations:?}"
        );
    }

    /// The conservative technology cannot host the paper's chip at all.
    #[test]
    fn conservative_tech_is_infeasible() {
        let point = DesignPoint::paper_example(presets::conservative1986(), CrossbarKind::Dmc);
        let r = point.evaluate();
        assert!(!r.feasible());
    }

    /// Oversized crossbars violate the die area.
    #[test]
    fn oversized_crossbar_violates_area() {
        let mut point = DesignPoint::paper_example(presets::paper1986(), CrossbarKind::Dmc);
        point.chip_radix = 32;
        point.board_ports = 1024;
        point.network_ports = 32768;
        let r = point.evaluate();
        assert!(!r.feasible());
        assert!(r.chip_area_fraction > 1.0);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::Area { fraction } if *fraction > 1.0)),
            "{:?}",
            r.violations
        );
    }
}
