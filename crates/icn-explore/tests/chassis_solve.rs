//! Pins the explorer's report-free chassis solve to `icn lint config`:
//! `check_design` on every board option of the chassis, keeping the
//! board it finds clean with the highest frequency (the first on ties).
//! For every chassis of the bench and million grids, of a grid with
//! boards of up to 1,024 ports and of a grid with networks of 4 to 1,024
//! ports, `Evaluator::evaluate` must give the same verdict, board,
//! frequency bits and pins. The lint renders the
//! report's typed violations one diagnostic each, so this is also the
//! `DesignReport` rule.

use icn_core::design::Violation;
use icn_core::explore::board_port_options;
use icn_explore::{resolve_techs, Candidate, Evaluator, GridSpec};
use icn_lint::{check_design, DesignSpec};
use icn_units::Frequency;

/// What the lint rule chose for one chassis: board, frequency and pins
/// of the best clean board, or `None`.
type Choice = Option<(u32, Frequency, u32)>;

/// Walks of the lint rule over a grid: its per-chassis choices and what
/// the fixed point did on every (chassis, board) pair.
struct Reference {
    choices: Vec<Choice>,
    pairs: u64,
    area_failures: u64,
    /// Pairs whose only violation is the die area.
    area_only: u64,
    max_iterations: u32,
}

/// The lint rule, written out: a full `check_design` per board.
fn reference(spec: &GridSpec) -> Reference {
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
                let check = check_design(
                    "grid",
                    &DesignSpec {
                        tech: spec.techs[candidate.tech_index].clone(),
                        kind: candidate.kind,
                        chip_radix: candidate.chip_radix,
                        width: candidate.width,
                        board_ports,
                        network_ports: candidate.network_ports,
                        packet_bits: candidate.packet_bits,
                        clock_scheme: candidate.clock_scheme,
                        memory_access_ns: spec.memory_access_ns_resolved(),
                        min_frequency_mhz: None,
                    },
                );
                let report = check.report.as_ref().expect("grid designs are well formed");
                assert_eq!(check.diagnostics.len(), report.violations.len());
                walk.pairs += 1;
                let violations = report.violations.as_slice();
                walk.area_failures += u64::from(
                    violations
                        .iter()
                        .any(|v| matches!(v, Violation::Area { .. })),
                );
                walk.area_only += u64::from(matches!(violations, [Violation::Area { .. }]));
                walk.max_iterations = walk.max_iterations.max(report.fixed_point_iterations);
                if !check.feasible() {
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

/// Assert that `Evaluator::evaluate` reproduces the lint rule on every
/// chassis of `spec`, and return the lint rule's walk.
fn assert_matches_lint_rule(spec: &GridSpec) -> Reference {
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
    let walk = assert_matches_lint_rule(&GridSpec::bench());
    assert!(walk.choices.iter().any(Option::is_some));
    assert!(walk.choices.iter().any(Option::is_none));
}

#[test]
fn million_grid_chassis_match_the_report_rule() {
    let walk = assert_matches_lint_rule(&GridSpec::million());
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
/// only violation is the die area, and 48 chassis (chassis 312, MCC,
/// 1,024 ports, N = 24, W = 1, among them) that only the clock-skew
/// budget makes infeasible.
#[test]
fn large_board_chassis_match_the_report_rule() {
    let spec = GridSpec {
        radices: vec![2, 4, 8, 16, 24, 32, 64],
        packet_bits: vec![100],
        max_board_ports: 1024,
        ..GridSpec::million()
    };
    let walk = assert_matches_lint_rule(&spec);
    assert!(walk.area_only > 0, "no chassis fails on area alone");
}

/// The explorer shares one solve of a chip on a board across network
/// sizes, and a network smaller than a board cuts that board from its
/// options. The bench and million grids never cut one: no network is
/// smaller than their largest board, 256 ports. Networks of 4 to 1,024
/// ports on boards of up to 256 ports cut boards at every size below
/// 256, radices 8 and 16 exceed the 4-port network outright, and the cut
/// changes the choice of some chassis from that of the same chip on
/// 1,024 ports.
#[test]
fn small_network_chassis_match_the_report_rule() {
    let spec = GridSpec {
        network_ports: vec![4, 16, 64, 256, 1024],
        radices: vec![2, 4, 8, 16],
        packet_bits: vec![100],
        max_board_ports: 256,
        ..GridSpec::million()
    };
    let walk = assert_matches_lint_rule(&spec);
    let chassis: Vec<Candidate> = (0..walk.choices.len() as u64)
        .map(|id| spec.candidate(id))
        .collect();
    let board_count = |c: &Candidate, network_ports| {
        board_port_options(c.chip_radix, network_ports, spec.max_board_ports).count()
    };
    let cut = chassis
        .iter()
        .filter(|c| board_count(c, c.network_ports) < board_count(c, u32::MAX))
        .count();
    assert!(cut > 0, "no chassis loses a board to its network size");
    assert!(chassis.iter().any(|c| c.chip_radix > c.network_ports));
    let on_largest = |c: &Candidate| {
        let twin = chassis
            .iter()
            .position(|t| {
                *t == Candidate {
                    index: t.index,
                    network_ports: 1024,
                    ..*c
                }
            })
            .expect("every chip has a 1,024-port chassis");
        walk.choices[twin].map(|(board, ..)| board)
    };
    assert!(
        chassis
            .iter()
            .zip(&walk.choices)
            .any(|(c, choice)| choice.map(|(board, ..)| board) != on_largest(c)),
        "the cut never changes a chassis's board"
    );
}
