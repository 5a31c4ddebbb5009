//! Candidate evaluation: closed-form models → objective vector.
//!
//! The heavy part of evaluating a candidate — pin budget, board/rack
//! layout, clock budget, the frequency fixed point and the pipeline
//! fill `fill·⌈log_N N′⌉` — depends only on the "chassis" tuple
//! (technology, kind, clock scheme, N', N, W), not on the packet size.
//! The grid enumerates packet bits as the fastest axis, so the packet
//! variants of a chassis form one contiguous run of indices, and a
//! one-entry memo turns ~`|packet_bits|` chassis solves into one. A
//! chassis solve is the area check, then one `icn_core::design::solve`
//! per board option: the fixed point alone, with no `DesignReport`, no
//! `Technology` clone and no violation text. The memo is owned by the
//! evaluator and an evaluator lives for exactly one chunk; `engine`
//! starts every chunk on a run boundary, so no chassis is solved twice
//! per call. A chunk edge inside a run would cost one redundant solve,
//! never a different result.
//!
//! [`Evaluator::fold`] walks a chunk run by run. Packet bits reach the
//! objectives only through the eq. 4.2/4.5 transfer term `P/W`: every
//! variant of a run has the same area, pins and cost, so a variant whose
//! delay objective exceeds the run's minimum is dominated by the variant
//! that attains it. The fold therefore builds and offers only the
//! minimal variants (every tie, in index order); `engine` states why the
//! frontier stays exactly the Pareto set of the whole grid.
//! [`Evaluator::evaluate`] is the per-candidate path over the same memo,
//! delay and point builder.

use icn_core::delay;
use icn_core::design;
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

/// Evaluates candidates of one chunk in ascending index order.
pub struct Evaluator<'a> {
    spec: &'a GridSpec,
    techs: &'a [Technology],
    memo: Option<(u64, Option<Chassis>)>,
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
    /// this decodes once, looks the chassis up once, and inserts only the
    /// variants whose delay objective equals the run's minimum — every
    /// tie, in index order. The rest are dominated by that minimum (same
    /// area, pins and cost), so `frontier` ends exactly as if every
    /// [`Evaluator::evaluate`] result had been inserted.
    pub fn fold(
        &mut self,
        start: u64,
        end: u64,
        frontier: &mut Frontier<FrontierPoint, OBJECTIVES>,
    ) -> u64 {
        let packets = self.spec.packet_bits.len() as u64;
        let mut feasible = 0u64;
        let mut run_start = start;
        while run_start < end {
            let first = run_start % packets;
            let run_end = end.min(run_start - first + packets);
            let candidate = self.spec.candidate(run_start);
            if let Some(chassis) = self.chassis(&candidate) {
                feasible += run_end - run_start;
                let bits =
                    &self.spec.packet_bits[first as usize..(run_end - run_start + first) as usize];
                let fastest = bits
                    .iter()
                    .map(|&p| delay_objective(chassis.delay_us(p)))
                    .filter(|objective| objective.is_finite())
                    .reduce(f64::min);
                if let Some(fastest) = fastest {
                    for (index, &packet_bits) in (run_start..).zip(bits) {
                        if delay_objective(chassis.delay_us(packet_bits)) == fastest {
                            let variant = Candidate {
                                index,
                                packet_bits,
                                ..candidate
                            };
                            let point = self.point(&variant, &chassis);
                            frontier.insert(index, point.objectives(), point);
                        }
                    }
                }
            }
            run_start = run_end;
        }
        feasible
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
    /// Feasibility is `DesignReport::feasible`'s verdict without the
    /// report: the crossbar fits the die, and at the solved frequency
    /// the pins fit the package and the board has no violation. Area
    /// depends on neither board nor frequency, so a chassis too big for
    /// its die is rejected before any fixed point is solved.
    fn evaluate_chassis(&self, candidate: &Candidate) -> Option<Chassis> {
        let tech = self.techs.get(candidate.tech_index)?;
        if candidate.chip_radix > candidate.network_ports {
            return None;
        }
        let area = crossbar_area(tech, candidate.kind, candidate.chip_radix, candidate.width);
        if area.square_meters() > tech.process.die_area().square_meters() {
            return None;
        }
        let boards = board_port_options(
            candidate.chip_radix,
            candidate.network_ports,
            self.spec.max_board_ports_resolved(),
        );
        let mut best: Option<(u32, Frequency, u32)> = None;
        for board_ports in boards {
            let solution = design::solve(
                tech,
                candidate.chip_radix,
                candidate.width,
                board_ports,
                candidate.network_ports,
                candidate.clock_scheme,
            );
            if !solution.pins.fits() || !solution.rack.fits() {
                continue;
            }
            if best.is_none_or(|(_, frequency, _)| solution.frequency.hz() > frequency.hz()) {
                best = Some((board_ports, solution.frequency, solution.pins.total()));
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
    fn infeasible_candidates_return_none() {
        let mut spec = GridSpec::paper();
        spec.radices = vec![4096]; // bigger than the network
        let techs = resolve_techs(&spec).unwrap();
        let mut evaluator = Evaluator::new(&spec, &techs);
        assert!(evaluator.evaluate(0).is_none());
    }
}
