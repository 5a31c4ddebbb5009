//! Candidate evaluation: closed-form models → objective vector.
//!
//! The heavy part of evaluating a candidate — pin budget, board
//! layout, clock budget, the frequency fixed point and the pipeline
//! fill `fill·⌈log_N N′⌉` — depends only on the "chassis" tuple
//! (technology, kind, clock scheme, N', N, W), not on the packet size.
//! The grid enumerates packet bits as the fastest axis, so the packet
//! variants of a chassis form one contiguous run of indices. A chassis
//! solve is the area rule, then a verdict on each board option whose
//! ports do not exceed `N′`: no `DesignReport`, no `Technology` clone
//! and no violation text.
//!
//! That verdict is board-scale. `icn_core::design::solve` takes neither
//! the crossbar kind (which sets only the die area) nor `N′` (which sets
//! only the stage and chip counts), so one fixed point serves every
//! chassis built from the same chip on the same board. The evaluator
//! keeps each one's outcome (feasible by `Solution::violations`, the one
//! feasibility verdict, with its frequency and pins) in a memo shared by
//! every chunk and thread of the call, of bounded size: the million
//! grid's 2,304 chassis and 6,040 (chassis, board) pairs need 774 fixed
//! points.
//!
//! [`Evaluator::fold`] walks a range run by run and solves each run's
//! chassis once. `engine` hands every chunk of a call to one evaluator
//! and starts every chunk on a run boundary, so no chassis is solved
//! twice per call. A range edge inside a run would cost one redundant
//! solve, never a different result. Packet bits reach the objectives
//! only through the eq. 4.2/4.5 transfer term `P/W`: every variant of a
//! run has the same area, pins and cost, so a variant whose delay
//! objective exceeds the run's minimum is dominated by the variant that
//! attains it. The fold therefore builds and offers only the minimal
//! variants (every tie, in index order); `engine` states why the
//! frontier stays exactly the Pareto set of the whole grid.
//!
//! The fold finds those variants without timing every packet size. The
//! delay objective, `(fill + P/W)·period` taken to µs and back to
//! seconds, is nondecreasing in `P`: `u32 → f64` is exact, and each
//! later operation (÷W with W > 0, +fill, ×period with period > 0, ×1e6,
//! ×1e-6) is monotone under IEEE round-to-nearest. So a run's minimum is
//! the delay of its shortest packet, and its ties are the sizes from the
//! shortest upward to the last whose delay still rounds to that minimum
//! (distinct sizes tie only when their `P/W` differ by less than about a
//! rounding unit of the fill). The evaluator sorts the packet axis by
//! size once, at its first fold; each run then walks its positions
//! shortest first and stops at the first slower size. That is one or two
//! delays per run, where a pass for the minimum and a pass for its ties
//! took two per variant: 2,080 delays per million-grid call instead of
//! 1,050,400. On a 2-vCPU Xeon host it cut the fold of a serial
//! million-grid call from 5.8–7.8 to 3.6–3.7 ms; the board memo then
//! cut it to 0.77–1.12 ms, of which chassis solves take 0.44–0.65 ms
//! (DESIGN.md §10, "Measured gain (board memo)").
//!
//! [`Evaluator::evaluate`] is the per-candidate path: a one-entry
//! chassis memo turns the `|packet_bits|` solves of a run into one, and
//! the delay and point builder are the fold's.

use std::ops::Range;
use std::sync::OnceLock;

use icn_core::delay;
use icn_core::design::{self, Violation};
use icn_core::explore::board_port_options;
use icn_core::pareto::Frontier;
use icn_phys::{crossbar_area, delta_network_chips, ClockScheme, CrossbarKind};
use icn_tech::Technology;
use icn_units::{Frequency, Time};
use serde::{Deserialize, Serialize};

use crate::grid::{Candidate, GridSpec};

/// Number of objectives the explorer minimises.
pub const OBJECTIVES: usize = 4;

/// One Pareto-frontier member, fully described for reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Canonical grid index (ties broken and output ordered by this).
    pub index: u64,
    /// Technology preset name.
    pub tech: String,
    /// Crossbar kind.
    pub kind: CrossbarKind,
    /// Clock scheme.
    pub clock_scheme: ClockScheme,
    /// Full-network ports `N'`.
    pub network_ports: u32,
    /// Chip radix `N`.
    pub chip_radix: u32,
    /// Path width `W`.
    pub width: u32,
    /// Board ports the chassis chose for this radix.
    pub board_ports: u32,
    /// Packet size `P` in bits.
    pub packet_bits: u32,
    /// Achievable clock frequency in MHz.
    pub frequency_mhz: f64,
    /// Objective 1: unloaded one-way delay in microseconds.
    pub delay_us: f64,
    /// Objective 2: crossbar die area in mm².
    pub area_mm2: f64,
    /// Objective 3: package pins per chip.
    pub pins: u32,
    /// Objective 4: extra network chips over the single-crossbar ideal
    /// (the paper's Δ cost, eq. 6.1 spirit).
    pub cost_chips: u64,
}

impl FrontierPoint {
    /// The minimised objective vector: delay (s), area (mm²), pins, cost.
    #[must_use]
    pub fn objectives(&self) -> [f64; OBJECTIVES] {
        [
            delay_objective(self.delay_us),
            self.area_mm2,
            f64::from(self.pins),
            self.cost_chips as f64,
        ]
    }
}

/// The delay objective (seconds) of a delay in microseconds — the value
/// the frontier compares, so the fold's run minimum uses it too.
fn delay_objective(delay_us: f64) -> f64 {
    delay_us * 1e-6
}

/// The packet-independent evaluation of a chassis tuple, reused across
/// the innermost packet-bits axis.
#[derive(Debug, Clone, Copy)]
struct Chassis {
    board_ports: u32,
    frequency: Frequency,
    /// Clock period at `frequency`.
    period: Time,
    /// Path width `W`.
    width: u32,
    /// `delay::fill_cycles` of the chassis.
    fill_cycles: f64,
    pins: u32,
    area_mm2: f64,
    cost_chips: u64,
}

impl Chassis {
    /// Unloaded one-way delay of a `packet_bits` packet in µs: the same
    /// operations, in the same order, as `delay::unloaded_delay`.
    fn delay_us(&self, packet_bits: u32) -> f64 {
        let cycles = self.fill_cycles + delay::transfer_cycles(packet_bits, self.width);
        (self.period * cycles).micros()
    }
}

/// What the frequency fixed point says about one chip on one board:
/// whether the board passes every board-level rule, and at what
/// frequency and pin count.
#[derive(Debug, Clone, Copy)]
struct BoardOutcome {
    feasible: bool,
    frequency: Frequency,
    pins: u32,
}

/// Most slots a [`BoardMemo`] holds, whatever the grid: 4,096 slots of
/// 32 bytes.
const MAX_BOARD_SLOTS: u64 = 4096;

/// The board outcomes of one `explore` call, one slot per distinct
/// (technology, clock scheme, radix, width, board) — every axis that
/// reaches [`design::solve`], and none (crossbar kind, `N′`, packet)
/// that does not.
///
/// A key is the mixed-radix number of those axis positions, with the
/// board as its position among the radix's board options. The table is
/// direct-mapped (slot = key mod length) and has `min(key count,
/// MAX_BOARD_SLOTS)` slots, allocated once, so a grid whose keys fit
/// (the million grid's 2,304 do) never collides, and no grid makes it
/// bigger. The first key to reach a slot keeps it; a colliding key is
/// solved again each time, never answered from another key's slot.
/// `OnceLock` makes each slot safe to fill from every thread of a fold.
struct BoardMemo {
    /// The most board options any radix of the grid has.
    boards: usize,
    slots: Box<[OnceLock<(u64, BoardOutcome)>]>,
}

impl BoardMemo {
    fn new(spec: &GridSpec) -> Self {
        let smallest_radix = spec.radices.iter().copied().min().unwrap_or(2).max(2);
        let boards = board_port_options(smallest_radix, u32::MAX, spec.max_board_ports_resolved())
            .count()
            .max(1);
        let keys = [
            spec.techs.len(),
            spec.clock_schemes.len(),
            spec.radices.len(),
            spec.widths.len(),
            boards,
        ]
        .iter()
        .try_fold(1u64, |acc, &len| acc.checked_mul(len as u64))
        .unwrap_or(u64::MAX);
        let slots = keys.clamp(1, MAX_BOARD_SLOTS) as usize;
        Self {
            boards,
            slots: (0..slots).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The key of the first board option of the chassis at grid
    /// `index`; the `k`-th option's key is this plus `k`.
    fn first_key(&self, spec: &GridSpec, index: u64) -> u64 {
        let [tech, _, scheme, _, radix, width, _] = spec.positions(index);
        [
            (scheme, spec.clock_schemes.len()),
            (radix, spec.radices.len()),
            (width, spec.widths.len()),
            (0, self.boards),
        ]
        .iter()
        .fold(tech as u64, |key, &(digit, len)| {
            key.wrapping_mul(len as u64).wrapping_add(digit as u64)
        })
    }

    /// The outcome under `key`, from its slot or from `solve`.
    fn get(&self, key: u64, solve: impl Fn() -> BoardOutcome) -> BoardOutcome {
        let slot = &self.slots[(key % self.slots.len() as u64) as usize];
        match slot.get_or_init(|| (key, solve())) {
            (owner, outcome) if *owner == key => *outcome,
            _ => solve(),
        }
    }
}

/// Evaluates candidates: [`Evaluator::fold`] a range at a time (shared
/// by every chunk of an `explore` call), [`Evaluator::evaluate`] one
/// index at a time in ascending order.
pub struct Evaluator<'a> {
    spec: &'a GridSpec,
    techs: &'a [Technology],
    memo: Option<(u64, Option<Chassis>)>,
    /// Board outcomes, shared by every chassis (and thread) of the call.
    boards: BoardMemo,
    /// `(packet bits, axis position)` of every packet-axis entry,
    /// ascending: the shortest packets, hence every run's fastest, come
    /// first. Built by the first fold, so `evaluate` alone never sorts.
    by_size: OnceLock<Vec<(u32, u64)>>,
}

impl<'a> Evaluator<'a> {
    /// A fresh evaluator (cold memo) over `spec`, with the technology
    /// axis already resolved to presets (see [`resolve_techs`]).
    #[must_use]
    pub fn new(spec: &'a GridSpec, techs: &'a [Technology]) -> Self {
        Self {
            spec,
            techs,
            memo: None,
            boards: BoardMemo::new(spec),
            by_size: OnceLock::new(),
        }
    }

    /// Evaluate the candidate at `index`. `Some` iff the design is
    /// feasible (fits its pins, die, board and clock budget); infeasible
    /// and degenerate candidates (radix above the network size) return
    /// `None` and never reach a frontier.
    pub fn evaluate(&mut self, index: u64) -> Option<FrontierPoint> {
        let candidate = self.spec.candidate(index);
        let chassis = self.chassis(&candidate)?;
        Some(self.point(&candidate, &chassis))
    }

    /// Fold candidates `start..end` into `frontier`, chassis run by
    /// chassis run, and return how many of them are feasible.
    ///
    /// Per run (the packet variants of one chassis inside `start..end`)
    /// this decodes once, solves the chassis once, and inserts only the
    /// variants whose delay objective equals the run's minimum — every
    /// tie, in index order. The rest are dominated by that minimum (same
    /// area, pins and cost), so `frontier` ends exactly as if every
    /// [`Evaluator::evaluate`] result had been inserted.
    ///
    /// The delay is nondecreasing in the packet size, so the run's
    /// minimum is the delay of its shortest packet, and its ties are the
    /// sizes from the shortest upward to the last that still attains it.
    /// The fold walks the run's positions shortest first and stops at
    /// the first slower size: one or two delays per run instead of two
    /// per variant. A range edge that cuts a run only skips the positions
    /// outside the range. Nothing is offered when the minimum is not
    /// finite (then no variant's delay is). `ties` is scratch, kept by
    /// the caller so that successive folds reuse one buffer.
    pub fn fold(
        &self,
        start: u64,
        end: u64,
        frontier: &mut Frontier<FrontierPoint, OBJECTIVES>,
        ties: &mut Vec<(u64, u32)>,
    ) -> u64 {
        let packets = self.spec.packet_bits.len() as u64;
        let mut feasible = 0u64;
        let mut run_start = start;
        while run_start < end {
            let first = run_start % packets;
            let run_end = end.min(run_start - first + packets);
            let candidate = self.spec.candidate(run_start);
            if let Some(chassis) = self.evaluate_chassis(&candidate) {
                feasible += run_end - run_start;
                let positions = first..first + (run_end - run_start);
                self.offer_fastest(&candidate, &chassis, positions, ties, frontier);
            }
            run_start = run_end;
        }
        feasible
    }

    /// Offer `frontier` the variants of `first`'s chassis run at the
    /// packet-axis `positions` (`first` is the one at `positions.start`)
    /// whose delay objective is the minimum over `positions`: every tie,
    /// in index order, and none when the minimum is not finite. `ties` is
    /// scratch.
    #[expect(
        clippy::float_cmp,
        reason = "ties are exact equality of delay objectives, which keeps the frontier deterministic"
    )]
    fn offer_fastest(
        &self,
        first: &Candidate,
        chassis: &Chassis,
        positions: Range<u64>,
        ties: &mut Vec<(u64, u32)>,
        frontier: &mut Frontier<FrontierPoint, OBJECTIVES>,
    ) {
        let by_size = self.by_size.get_or_init(|| {
            let mut by_size: Vec<(u32, u64)> =
                self.spec.packet_bits.iter().copied().zip(0..).collect();
            by_size.sort_unstable();
            by_size
        });
        ties.clear();
        let mut fastest = None;
        let mut last_bits = None;
        for &(packet_bits, position) in by_size {
            if !positions.contains(&position) {
                continue;
            }
            if last_bits != Some(packet_bits) {
                let objective = delay_objective(chassis.delay_us(packet_bits));
                let fastest = *fastest.get_or_insert(objective);
                if objective != fastest || !fastest.is_finite() {
                    break;
                }
                last_bits = Some(packet_bits);
            }
            ties.push((position, packet_bits));
        }
        ties.sort_unstable();
        for &(position, packet_bits) in ties.iter() {
            let variant = Candidate {
                index: first.index - positions.start + position,
                packet_bits,
                ..*first
            };
            let point = self.point(&variant, chassis);
            frontier.insert(variant.index, point.objectives(), point);
        }
    }

    /// The chassis of `candidate`, from the memo when the previous
    /// lookup was for the same chassis.
    fn chassis(&mut self, candidate: &Candidate) -> Option<Chassis> {
        let chassis_id = self.spec.chassis_id(candidate.index);
        match self.memo {
            Some((id, chassis)) if id == chassis_id => chassis,
            _ => {
                let computed = self.evaluate_chassis(candidate);
                self.memo = Some((chassis_id, computed));
                computed
            }
        }
    }

    /// The frontier point of a feasible `candidate` on `chassis`.
    fn point(&self, candidate: &Candidate, chassis: &Chassis) -> FrontierPoint {
        FrontierPoint {
            index: candidate.index,
            tech: self
                .techs
                .get(candidate.tech_index)
                .map(|t| t.name.clone())
                .unwrap_or_default(),
            kind: candidate.kind,
            clock_scheme: candidate.clock_scheme,
            network_ports: candidate.network_ports,
            chip_radix: candidate.chip_radix,
            width: candidate.width,
            board_ports: chassis.board_ports,
            packet_bits: candidate.packet_bits,
            frequency_mhz: chassis.frequency.mhz(),
            delay_us: chassis.delay_us(candidate.packet_bits),
            area_mm2: chassis.area_mm2,
            pins: chassis.pins,
            cost_chips: chassis.cost_chips,
        }
    }

    /// Solve the packet-independent chassis: choose the best board for
    /// the radix (highest achievable frequency among feasible boards,
    /// the first on ties — exactly the minimum-delay rule of
    /// `icn_core::explore`, since cycles don't depend on the board) and
    /// capture the objective ingredients.
    ///
    /// A board is feasible when `design::Solution::violations`, the one
    /// verdict `DesignReport` and `icn lint config` also read, finds
    /// nothing; no report is built. Its area rule depends on neither
    /// board nor frequency, so a chassis too big for its die is rejected
    /// by that rule alone before any fixed point is solved. The boards
    /// that remain come from the call's [`BoardMemo`], each solved the
    /// first time any chassis asks for it.
    fn evaluate_chassis(&self, candidate: &Candidate) -> Option<Chassis> {
        let tech = self.techs.get(candidate.tech_index)?;
        if candidate.chip_radix > candidate.network_ports {
            return None;
        }
        let area = crossbar_area(tech, candidate.kind, candidate.chip_radix, candidate.width);
        let area_fraction = area.square_meters() / tech.process.die_area().square_meters();
        if Violation::area(area_fraction).is_some() {
            return None;
        }
        let boards = board_port_options(
            candidate.chip_radix,
            candidate.network_ports,
            self.spec.max_board_ports_resolved(),
        );
        let first_key = self.boards.first_key(self.spec, candidate.index);
        let mut best: Option<(u32, Frequency, u32)> = None;
        for (key, board_ports) in (first_key..).zip(boards) {
            let board = self.boards.get(key, || {
                let solution = design::solve(
                    tech,
                    candidate.chip_radix,
                    candidate.width,
                    board_ports,
                    candidate.clock_scheme,
                );
                // The area rule, the verdict's one kind-dependent rule,
                // has passed, so the outcome holds for both crossbar kinds.
                let feasible = solution
                    .violations(area_fraction, candidate.clock_scheme)
                    .next()
                    .is_none();
                BoardOutcome {
                    feasible,
                    frequency: solution.frequency,
                    pins: solution.pins.total(),
                }
            });
            if !board.feasible {
                continue;
            }
            if best.is_none_or(|(_, frequency, _)| board.frequency.hz() > frequency.hz()) {
                best = Some((board_ports, board.frequency, board.pins));
            }
        }
        let (board_ports, frequency, pins) = best?;
        Some(Chassis {
            board_ports,
            frequency,
            period: frequency.period(),
            width: candidate.width,
            fill_cycles: delay::fill_cycles(
                candidate.kind,
                candidate.chip_radix,
                candidate.width,
                candidate.network_ports,
            ),
            pins,
            area_mm2: area.square_meters() * 1e6,
            cost_chips: delta_network_chips(candidate.network_ports, candidate.chip_radix),
        })
    }
}

/// Resolve the spec's technology names to presets, in axis order.
///
/// # Errors
/// Returns a message naming the first unknown preset.
pub fn resolve_techs(spec: &GridSpec) -> Result<Vec<Technology>, String> {
    spec.techs
        .iter()
        .map(|name| {
            icn_tech::presets::by_name(name)
                .ok_or_else(|| format!("unknown technology preset `{name}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_feasible_set_matches_the_seed_explorer() {
        // The streaming evaluator and the seed `icn_core::explore` must
        // agree on which (kind, N, W) points of the paper space are
        // feasible, on the boards they choose, and on the delays.
        let spec = GridSpec::paper();
        let techs = resolve_techs(&spec).unwrap();
        let mut evaluator = Evaluator::new(&spec, &techs);
        let n = spec.candidate_count().unwrap();
        let mut feasible = Vec::new();
        for index in 0..n {
            if let Some(p) = evaluator.evaluate(index) {
                feasible.push(p);
            }
        }
        let seed = icn_core::explore::explore(
            &icn_tech::presets::paper1986(),
            &icn_core::explore::ExploreSpec::paper_space(),
        );
        let seed_feasible: Vec<_> = seed.iter().filter(|d| d.report.feasible()).collect();
        assert_eq!(feasible.len(), seed_feasible.len());
        for point in &feasible {
            let twin = seed_feasible
                .iter()
                .find(|d| {
                    let p = &d.report.point;
                    p.kind == point.kind
                        && p.chip_radix == point.chip_radix
                        && p.width == point.width
                })
                .unwrap_or_else(|| panic!("seed lacks {point:?}"));
            assert_eq!(twin.report.point.board_ports, point.board_ports);
            assert!((twin.report.one_way.micros() - point.delay_us).abs() < 1e-9);
            assert!((twin.report.frequency.mhz() - point.frequency_mhz).abs() < 1e-9);
        }
    }

    #[test]
    fn memo_never_changes_results() {
        // Evaluating with a cold evaluator per candidate (no memo reuse)
        // must equal one sequential evaluator with a warm memo.
        let spec = GridSpec::bench();
        let techs = resolve_techs(&spec).unwrap();
        let mut warm = Evaluator::new(&spec, &techs);
        // A slice in the middle of the grid, crossing chassis boundaries.
        for index in 7_000..7_200u64 {
            let warm_result = warm.evaluate(index);
            let cold_result = Evaluator::new(&spec, &techs).evaluate(index);
            assert_eq!(warm_result, cold_result, "index {index}");
        }
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "a tie is exact equality of two delay objectives, as offer_fastest decides it"
    )]
    fn distinct_packet_sizes_that_round_to_one_delay_are_all_offered() {
        // A fill of 2^53 cycles leaves a spacing of 2 between the cycle
        // counts a double can hold, so at W = 1 the 17-bit packet rounds
        // to the 16-bit packet's delay while 40 and 64 bits stay slower.
        let mut spec = GridSpec::paper();
        spec.packet_bits = vec![40, 17, 64, 16];
        let techs = resolve_techs(&spec).unwrap();
        let evaluator = Evaluator::new(&spec, &techs);
        let frequency = Frequency::from_mhz(1.0);
        let chassis = Chassis {
            board_ports: 16,
            frequency,
            period: frequency.period(),
            width: 1,
            fill_cycles: 2f64.powi(53),
            pins: 100,
            area_mm2: 1.0,
            cost_chips: 0,
        };
        let objective = |bits| delay_objective(chassis.delay_us(bits));
        assert_eq!(objective(17), objective(16));
        assert!(objective(16) < objective(40));
        let run = spec.candidate(spec.packet_bits.len() as u64);
        let mut ties = Vec::new();
        for positions in [0..4, 1..4, 0..2, 2..4, 2..3] {
            let first = spec.candidate(run.index + positions.start);
            let mut folded = Frontier::new();
            evaluator.offer_fastest(&first, &chassis, positions.clone(), &mut ties, &mut folded);
            // The reference: every variant inserted in index order, as
            // inserting each `evaluate` result of the run would.
            let mut every = Frontier::new();
            for position in positions.clone() {
                let variant = spec.candidate(run.index + position);
                let point = evaluator.point(&variant, &chassis);
                every.insert(variant.index, point.objectives(), point);
            }
            let offered: Vec<_> = folded.entries().iter().map(|e| &e.item).collect();
            let expected: Vec<_> = every.entries().iter().map(|e| &e.item).collect();
            assert_eq!(offered, expected, "positions {positions:?}");
        }
        let mut folded = Frontier::new();
        evaluator.offer_fastest(&run, &chassis, 0..4, &mut ties, &mut folded);
        let indices: Vec<u64> = folded.entries().iter().map(|e| e.index).collect();
        assert_eq!(indices, [run.index + 1, run.index + 3]);
    }

    /// The board memo has one slot per key up to [`MAX_BOARD_SLOTS`] and
    /// no more, however large the grid; each slot stays 32 bytes.
    #[test]
    fn board_memo_size_is_bounded() {
        let million = GridSpec::million();
        assert_eq!(BoardMemo::new(&million).slots.len(), 2_304);
        let huge = GridSpec {
            widths: (1..=4096).collect(),
            ..million
        };
        assert_eq!(BoardMemo::new(&huge).slots.len() as u64, MAX_BOARD_SLOTS);
        assert_eq!(size_of::<OnceLock<(u64, BoardOutcome)>>(), 32);
    }

    /// A grid with more board keys than slots collides, and a colliding
    /// key is solved again rather than answered from another key's slot:
    /// one evaluator over every chassis agrees with a cold evaluator per
    /// chassis.
    #[test]
    fn board_memo_collisions_never_change_results() {
        let spec = GridSpec {
            widths: (1..=64).collect(),
            packet_bits: vec![100],
            ..GridSpec::million()
        };
        let techs = resolve_techs(&spec).unwrap();
        let mut warm = Evaluator::new(&spec, &techs);
        assert_eq!(warm.boards.slots.len() as u64, MAX_BOARD_SLOTS);
        for index in 0..spec.candidate_count().unwrap() {
            let cold = Evaluator::new(&spec, &techs).evaluate(index);
            assert_eq!(warm.evaluate(index), cold, "chassis {index}");
        }
    }

    #[test]
    fn infeasible_candidates_return_none() {
        let mut spec = GridSpec::paper();
        spec.radices = vec![4096]; // bigger than the network
        let techs = resolve_techs(&spec).unwrap();
        let mut evaluator = Evaluator::new(&spec, &techs);
        assert!(evaluator.evaluate(0).is_none());
    }
}
