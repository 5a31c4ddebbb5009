//! Design-space exploration over (crossbar kind, chip radix, path width).
//!
//! This is the tool the paper's methodology implies: enumerate every chip
//! design that satisfies the pin and area constraints, evaluate each at its
//! achievable clock frequency, and rank the feasible full-network designs by
//! delay. §3.2's narrative ("22×22 by pins, 18×18/25×25 by area, choose
//! 16×16 W=4") is one walk through this space.

use icn_phys::{board::exact_log, ClockScheme, CrossbarKind};
use icn_tech::Technology;
use icn_units::Time;
use serde::{Deserialize, Serialize};

use crate::design::{DesignPoint, DesignReport};

/// The sweep bounds for a design-space exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreSpec {
    /// Full-network port count `N′`.
    pub network_ports: u32,
    /// Candidate chip radices (powers of two keep boards stackable).
    pub radices: Vec<u32>,
    /// Candidate path widths.
    pub widths: Vec<u32>,
    /// Crossbar kinds to consider.
    pub kinds: Vec<CrossbarKind>,
    /// Packet size in bits.
    pub packet_bits: u32,
    /// Clock scheme.
    pub clock_scheme: ClockScheme,
    /// Memory access time for round-trip figures.
    pub memory_access: Time,
}

impl ExploreSpec {
    /// The paper's design space: N′ = 2048, N ∈ {4, 8, 16, 32},
    /// W ∈ {1, 2, 4, 8}, both crossbar kinds.
    #[must_use]
    pub fn paper_space() -> Self {
        Self {
            network_ports: 2048,
            radices: vec![4, 8, 16, 32],
            widths: vec![1, 2, 4, 8],
            kinds: vec![CrossbarKind::Mcc, CrossbarKind::Dmc],
            packet_bits: 100,
            clock_scheme: ClockScheme::MultiplePulse,
            memory_access: Time::from_nanos(200.0),
        }
    }
}

/// One explored design and its evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploredDesign {
    /// The evaluated report.
    pub report: DesignReport,
    /// Blocking probability of the balanced stage plan at 50 % offered load
    /// (Patel recurrence) — the quantity the paper trades delay against
    /// when it maximises the per-chip crossbar (Figure 2).
    pub blocking_at_half_load: f64,
}

impl ExploredDesign {
    /// Sort key: feasible designs first, then by one-way delay.
    fn rank_key(&self) -> (bool, f64) {
        (!self.report.feasible(), self.report.one_way.secs())
    }
}

/// All power-of-`radix` board sizes up to `max_board_ports` (each board
/// hosts a whole number of full stages), capped at the network size.
/// Shared with the `icn-explore` streaming engine so both explorers
/// package a radix on exactly the same candidate boards, in ascending
/// order: a smaller network's options are a prefix of a larger one's.
pub fn board_port_options(
    radix: u32,
    network_ports: u32,
    max_board_ports: u32,
) -> impl Iterator<Item = u32> {
    std::iter::successors(Some(radix), move |&ports| ports.checked_mul(radix))
        .take_while(move |&ports| ports <= max_board_ports && ports <= network_ports)
}

/// Enumerate and evaluate the whole space, returning designs ranked best
/// (feasible, lowest delay) first. For each (kind, N, W) the board size is
/// itself chosen by the explorer: every power-of-N board up to the paper's
/// 256-port scale is evaluated and the best variant kept — a small radix
/// should be packaged on small boards, not penalised by a giant one.
#[must_use]
pub fn explore(tech: &Technology, spec: &ExploreSpec) -> Vec<ExploredDesign> {
    let mut designs = Vec::new();
    for &kind in &spec.kinds {
        for &radix in &spec.radices {
            if radix < 2 || radix > spec.network_ports {
                continue;
            }
            for &width in &spec.widths {
                let blocking_at_half_load =
                    icn_topology::StagePlan::balanced_pow2(spec.network_ports, radix)
                        .map_or(f64::NAN, |plan| {
                            icn_topology::blocking::blocking_probability(&plan, 0.5)
                        });
                let variants: Vec<ExploredDesign> =
                    board_port_options(radix, spec.network_ports, 256)
                        .map(|board_ports| {
                            debug_assert!(exact_log(board_ports, radix).is_some());
                            let point = DesignPoint {
                                tech: tech.clone(),
                                kind,
                                chip_radix: radix,
                                width,
                                board_ports,
                                network_ports: spec.network_ports,
                                packet_bits: spec.packet_bits,
                                clock_scheme: spec.clock_scheme,
                                memory_access: spec.memory_access,
                            };
                            ExploredDesign {
                                report: point.evaluate(),
                                blocking_at_half_load,
                            }
                        })
                        .collect();
                let best_variant = variants
                    .into_iter()
                    .min_by(|a, b| {
                        a.rank_key()
                            .partial_cmp(&b.rank_key())
                            .expect("delays are finite")
                    })
                    .expect("at least one board option exists");
                designs.push(best_variant);
            }
        }
    }
    designs.sort_by(|a, b| {
        a.rank_key()
            .partial_cmp(&b.rank_key())
            .expect("delays are finite")
    });
    designs
}

/// The best feasible design of an exploration, if any: the member of the
/// single-objective (one-way delay) Pareto frontier with the lowest
/// candidate index. With delay as the only axis the frontier holds
/// exactly the minimum-delay feasible designs, so on the delay-sorted
/// output of [`explore`] this is the same design the old
/// first-feasible scan returned — but the ranking now runs through
/// [`crate::pareto::Frontier`], the same dominance logic the
/// `icn-explore` million-candidate engine uses.
#[must_use]
pub fn best(designs: &[ExploredDesign]) -> Option<&ExploredDesign> {
    let mut frontier = crate::pareto::Frontier::new();
    for (index, design) in designs.iter().enumerate() {
        if design.report.feasible() {
            frontier.insert(index as u64, [design.report.one_way.secs()], index);
        }
    }
    frontier
        .into_sorted()
        .first()
        .map(|entry| &designs[entry.item])
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn paper_space_contains_the_papers_choice_and_it_is_feasible() {
        let designs = explore(&presets::paper1986(), &ExploreSpec::paper_space());
        assert_eq!(designs.len(), 2 * 4 * 4);
        let paper_pick = designs
            .iter()
            .find(|d| {
                let p = &d.report.point;
                p.kind == CrossbarKind::Dmc && p.chip_radix == 16 && p.width == 4
            })
            .expect("paper's design is in the space");
        assert!(
            paper_pick.report.feasible(),
            "{:?}",
            paper_pick.report.violations
        );
    }

    #[test]
    fn ranking_puts_feasible_designs_first() {
        let designs = explore(&presets::paper1986(), &ExploreSpec::paper_space());
        let first_infeasible = designs.iter().position(|d| !d.report.feasible());
        if let Some(idx) = first_infeasible {
            assert!(
                designs[idx..].iter().all(|d| !d.report.feasible()),
                "feasible design ranked below an infeasible one"
            );
        }
        // And feasible ones are sorted by one-way delay.
        let feasible: Vec<_> = designs.iter().filter(|d| d.report.feasible()).collect();
        for pair in feasible.windows(2) {
            assert!(pair[0].report.one_way <= pair[1].report.one_way);
        }
    }

    #[test]
    fn best_design_beats_or_matches_the_papers_pick() {
        let designs = explore(&presets::paper1986(), &ExploreSpec::paper_space());
        let best = best(&designs).expect("some design is feasible");
        let paper = designs
            .iter()
            .find(|d| {
                let p = &d.report.point;
                p.kind == CrossbarKind::Dmc && p.chip_radix == 16 && p.width == 4
            })
            .unwrap();
        assert!(best.report.one_way <= paper.report.one_way);
    }

    #[test]
    fn best_matches_the_first_feasible_scan() {
        // `best()` now routes through the Pareto frontier; on the
        // delay-sorted exploration output it must agree exactly with the
        // historical first-feasible scan.
        let designs = explore(&presets::paper1986(), &ExploreSpec::paper_space());
        let scan = designs.iter().find(|d| d.report.feasible());
        assert_eq!(
            best(&designs).map(|d| &d.report.point),
            scan.map(|d| &d.report.point)
        );
    }

    #[test]
    fn board_options_are_powers_of_radix() {
        let options =
            |radix, network, max_board| board_port_options(radix, network, max_board).collect();
        let expect = |got: Vec<u32>, want: &[u32]| assert_eq!(got, want);
        expect(options(16, 2048, 256), &[16, 256]);
        expect(options(4, 2048, 256), &[4, 16, 64, 256]);
        expect(options(8, 2048, 256), &[8, 64]);
        expect(options(32, 2048, 256), &[32]);
        // Capped at the network size.
        expect(options(16, 16, 256), &[16]);
        // The last power below 2^32 ends the list instead of wrapping.
        expect(
            options(2, u32::MAX, u32::MAX),
            &(1..32).map(|k| 1 << k).collect::<Vec<u32>>(),
        );
    }

    #[test]
    fn bigger_chips_mean_less_blocking() {
        // Figure 2's trade-off surfaces in the exploration: radix-16 plans
        // block less than radix-4 plans at the same network size.
        let designs = explore(&presets::paper1986(), &ExploreSpec::paper_space());
        let b = |radix: u32| {
            designs
                .iter()
                .find(|d| d.report.point.chip_radix == radix)
                .unwrap()
                .blocking_at_half_load
        };
        assert!(b(16) < b(8));
        assert!(b(8) < b(4));
    }

    #[test]
    fn small_radices_get_small_boards() {
        // Radix-4 chips on a 256-port board would need a 77 in edge; the
        // explorer must pick a feasible smaller board instead of writing
        // the whole radix off.
        let designs = explore(&presets::paper1986(), &ExploreSpec::paper_space());
        let r4 = designs
            .iter()
            .find(|d| d.report.point.chip_radix == 4 && d.report.point.width == 1)
            .unwrap();
        assert!(
            r4.report.point.board_ports < 256,
            "expected a sub-256-port board, got {}",
            r4.report.point.board_ports
        );
        assert!(r4.report.feasible(), "{:?}", r4.report.violations);
    }

    #[test]
    fn w8_designs_are_never_feasible_in_paper_tech() {
        let designs = explore(&presets::paper1986(), &ExploreSpec::paper_space());
        for d in designs.iter().filter(|d| d.report.point.width == 8) {
            if d.report.point.chip_radix >= 16 {
                assert!(
                    !d.report.feasible(),
                    "W=8 N={} unexpectedly feasible",
                    d.report.point.chip_radix
                );
            }
        }
    }
}
