//! Property test: `explore`, which offers the frontier only each chassis
//! run's fastest packet variants, is byte-identical to a reference that
//! inserts every feasible `Evaluator::evaluate(i)` into one frontier.
//!
//! The grids are random sub-grids of `GridSpec::bench()`: a non-empty
//! subset of every axis in random order (the benchmark shuffles every
//! axis), and packet sizes drawn with repetition so that variants of one
//! chassis tie exactly. `explore` rounds its chunks up to whole chassis
//! runs, so the test also calls `Evaluator::fold` directly on ranges of
//! 1 to three times the packet count, which cut runs at their edges,
//! and merges those frontiers in range order as `explore` merges its
//! chunks. The thread count comes from `ICN_PARITY_THREADS` (default 2).

use icn_core::pareto::Frontier;
use icn_explore::{
    explore, resolve_techs, Evaluator, ExploreOptions, ExploreOutcome, FrontierPoint, GridSpec,
    OBJECTIVES,
};
use proptest::prelude::*;

/// Indices into an axis of `len` values: up to `2·len` draws, so the
/// kept values are a random-order subset (or, with repeats, a multiset).
fn draws(len: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..len, 1..=2 * len)
}

/// `values` at the first occurrence of each drawn index, in draw order.
fn subset<T: Clone>(values: &[T], picks: &[usize]) -> Vec<T> {
    let mut seen = vec![false; values.len()];
    picks
        .iter()
        .filter(|&&i| !std::mem::replace(&mut seen[i], true))
        .map(|&i| values[i].clone())
        .collect()
}

/// An outcome with `frontier` in canonical order and no spot-checks.
fn outcome(
    total: u64,
    feasible: u64,
    frontier: Frontier<FrontierPoint, OBJECTIVES>,
) -> ExploreOutcome {
    ExploreOutcome {
        grid_candidates: total,
        evaluated: total,
        feasible,
        frontier: frontier
            .into_sorted()
            .into_iter()
            .map(|entry| entry.item)
            .collect(),
        spot_checks: Vec::new(),
        ranking_agrees: true,
    }
}

/// Every feasible candidate inserted, in index order, into one frontier.
fn reference(spec: &GridSpec) -> ExploreOutcome {
    let techs = resolve_techs(spec).expect("bench presets resolve");
    let total = spec.candidate_count().expect("a valid sub-grid");
    let mut evaluator = Evaluator::new(spec, &techs);
    let mut frontier = Frontier::new();
    let mut feasible = 0;
    for index in 0..total {
        if let Some(point) = evaluator.evaluate(index) {
            feasible += 1;
            frontier.insert(index, point.objectives(), point);
        }
    }
    outcome(total, feasible, frontier)
}

/// The grid folded in `range`-long pieces, each with a fresh evaluator
/// into its own frontier, merged in piece order.
fn folded_in_pieces(spec: &GridSpec, range: u64) -> ExploreOutcome {
    let techs = resolve_techs(spec).expect("bench presets resolve");
    let total = spec.candidate_count().expect("a valid sub-grid");
    let mut frontier = Frontier::new();
    let mut feasible = 0;
    let mut start = 0;
    while start < total {
        let end = total.min(start + range);
        let mut piece = Frontier::new();
        feasible += Evaluator::new(spec, &techs).fold(start, end, &mut piece, &mut Vec::new());
        frontier.merge(piece);
        start = end;
    }
    outcome(total, feasible, frontier)
}

fn parity_threads() -> usize {
    std::env::var("ICN_PARITY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chassis_fold_matches_every_candidate_inserted(
        techs in draws(2),
        kinds in draws(2),
        clock_schemes in draws(2),
        network_ports in draws(2),
        radices in draws(4),
        widths in draws(4),
        packet_bits in proptest::collection::vec(0usize..19, 1..=24),
        chunk_seed in any::<u64>(),
    ) {
        let bench = GridSpec::bench();
        let spec = GridSpec {
            techs: subset(&bench.techs, &techs),
            kinds: subset(&bench.kinds, &kinds),
            clock_schemes: subset(&bench.clock_schemes, &clock_schemes),
            network_ports: subset(&bench.network_ports, &network_ports),
            radices: subset(&bench.radices, &radices),
            widths: subset(&bench.widths, &widths),
            packet_bits: packet_bits.iter().map(|&i| bench.packet_bits[i]).collect(),
            ..bench
        };
        let chunk = 1 + chunk_seed % (3 * spec.packet_bits.len() as u64);
        let expected = serde_json::to_string(&reference(&spec)).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&folded_in_pieces(&spec, chunk)).unwrap(),
            expected.clone(),
            "fold range={} spec={:?}", chunk, spec
        );
        for threads in [1, parity_threads()] {
            let options = ExploreOptions { threads, chunk, spot_checks: 0 };
            let outcome = explore(&spec, &options, None).expect("a valid sub-grid explores");
            prop_assert_eq!(
                serde_json::to_string(&outcome).unwrap(),
                expected.clone(),
                "threads={} chunk={} spec={:?}", threads, chunk, spec
            );
        }
    }
}
