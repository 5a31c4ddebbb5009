//! Pins the explorer's report-free chassis solve to the rule it replaced:
//! `DesignPoint::evaluate` for every board option of the chassis, keeping
//! the feasible board with the highest frequency (the first on ties).
//! For every chassis of the bench and million grids, `Evaluator::evaluate`
//! must give the same verdict, board, frequency bits and pins.

use icn_core::design::DesignPoint;
use icn_core::explore::board_port_options;
use icn_explore::{resolve_techs, Evaluator, GridSpec};
use icn_units::{Frequency, Time};

/// What the old rule chose for one chassis: board, frequency and pins of
/// the best feasible board, or `None`.
type Choice = Option<(u32, Frequency, u32)>;

/// Walks of the old rule over a grid: its per-chassis choices and what
/// the fixed point did on every (chassis, board) pair.
struct Reference {
    choices: Vec<Choice>,
    pairs: u64,
    area_failures: u64,
    /// Pairs whose only violation is the die area.
    area_only: u64,
    max_iterations: u32,
}

/// The old rule, written out: a full `DesignPoint::evaluate` per board.
fn reference(spec: &GridSpec) -> Reference {
    let techs = resolve_techs(spec).expect("built-in presets resolve");
    let packets = spec.packet_bits.len() as u64;
    let chassis = spec.candidate_count().expect("a built-in grid") / packets;
    let mut walk = Reference {
        choices: Vec::new(),
        pairs: 0,
        area_failures: 0,
        area_only: 0,
        max_iterations: 0,
    };
    for id in 0..chassis {
        let candidate = spec.candidate(id * packets);
        let mut best: Choice = None;
        if candidate.chip_radix <= candidate.network_ports {
            for board_ports in board_port_options(
                candidate.chip_radix,
                candidate.network_ports,
                spec.max_board_ports_resolved(),
            ) {
                let report = DesignPoint {
                    tech: techs[candidate.tech_index].clone(),
                    kind: candidate.kind,
                    chip_radix: candidate.chip_radix,
                    width: candidate.width,
                    board_ports,
                    network_ports: candidate.network_ports,
                    packet_bits: candidate.packet_bits,
                    clock_scheme: candidate.clock_scheme,
                    memory_access: Time::from_nanos(spec.memory_access_ns_resolved()),
                }
                .evaluate();
                walk.pairs += 1;
                let area_fails = report.chip_area_fraction > 1.0;
                walk.area_failures += u64::from(area_fails);
                walk.area_only += u64::from(area_fails && report.violations.len() == 1);
                walk.max_iterations = walk.max_iterations.max(report.fixed_point_iterations);
                if !report.feasible() {
                    continue;
                }
                if best.is_none_or(|(_, frequency, _)| report.frequency.hz() > frequency.hz()) {
                    best = Some((board_ports, report.frequency, report.pins.total()));
                }
            }
        }
        walk.choices.push(best);
    }
    walk
}

/// Assert that `Evaluator::evaluate` reproduces the old rule on every
/// chassis of `spec`, and return the old rule's walk.
fn assert_matches_old_rule(spec: &GridSpec) -> Reference {
    let walk = reference(spec);
    let techs = resolve_techs(spec).expect("built-in presets resolve");
    let packets = spec.packet_bits.len() as u64;
    let mut evaluator = Evaluator::new(spec, &techs);
    for (id, expected) in (0u64..).zip(&walk.choices) {
        let got = evaluator
            .evaluate(id * packets)
            .map(|p| (p.board_ports, p.frequency_mhz.to_bits(), p.pins));
        let expected =
            expected.map(|(board, frequency, pins)| (board, frequency.mhz().to_bits(), pins));
        assert_eq!(
            got,
            expected,
            "chassis {id}: {:?}",
            spec.candidate(id * packets)
        );
    }
    walk
}

#[test]
fn bench_grid_chassis_match_the_report_rule() {
    let walk = assert_matches_old_rule(&GridSpec::bench());
    assert!(walk.choices.iter().any(Option::is_some));
    assert!(walk.choices.iter().any(Option::is_none));
}

#[test]
fn million_grid_chassis_match_the_report_rule() {
    let walk = assert_matches_old_rule(&GridSpec::million());
    assert_eq!(walk.choices.len(), 2_304);
    assert_eq!(walk.pairs, 6_912);
    assert_eq!(walk.area_failures, 872);
    // The fixed point stops at 16 rounds whether or not it settled; every
    // pair of the grid settles well before that cap.
    assert!(
        walk.max_iterations < 16,
        "a (chassis, board) pair ran {} fixed-point rounds",
        walk.max_iterations
    );
}

/// On the built-in grids every chassis too big for its die also fails
/// its pins or board, so they cannot tell whether the area check runs.
/// Boards of up to 1024 ports bring radix-24 and radix-32 chassis whose
/// only violation is the die area.
#[test]
fn large_board_chassis_match_the_report_rule() {
    let spec = GridSpec {
        radices: vec![2, 4, 8, 16, 24, 32, 64],
        packet_bits: vec![100],
        max_board_ports: 1024,
        ..GridSpec::million()
    };
    let walk = assert_matches_old_rule(&spec);
    assert!(walk.area_only > 0, "no chassis fails on area alone");
}
