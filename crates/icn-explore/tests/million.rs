//! Pins the million-grid exploration: the feasible count, the frontier
//! size and every frontier index of `GridSpec::million()`, serially and
//! at `ICN_PARITY_THREADS` threads (default 2), where the chunks share
//! one evaluator's board memo. The numbers were recorded from the
//! per-candidate explorer (every feasible candidate offered to the
//! frontier), so any change to how candidates reach the frontier must
//! reproduce them exactly. The CLI's `explore_million.json` fixture pins
//! the same frontier's every field.

use icn_explore::{explore, ExploreOptions, GridSpec};

/// Frontier indices of `GridSpec::million()`, in canonical order.
const FRONTIER: [u64; 64] = [
    202000, 206040, 298960, 303000, 581760, 582265, 582770, 583275, 583780, 584285, 584790, 585295,
    585800, 586305, 586810, 587315, 587820, 588325, 588830, 589335, 589840, 590345, 590850, 591355,
    591860, 592365, 592870, 593375, 593880, 594385, 594890, 595395, 595900, 596405, 678720, 679225,
    679730, 680235, 680740, 681245, 681750, 682255, 682760, 683265, 683770, 684275, 684780, 685285,
    685790, 686295, 686800, 687305, 687810, 688315, 688820, 689325, 689830, 690335, 690840, 691345,
    691850, 692355, 692860, 693365,
];

#[test]
fn million_grid_feasible_count_and_frontier_are_pinned() {
    let spec = GridSpec::million();
    let parity_threads: usize = std::env::var("ICN_PARITY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    for threads in [1, parity_threads] {
        let options = ExploreOptions {
            threads,
            spot_checks: 0,
            ..ExploreOptions::default()
        };
        let outcome = explore(&spec, &options, None).expect("the million grid explores");
        assert_eq!(outcome.grid_candidates, 1_163_520);
        assert_eq!(outcome.evaluated, 1_163_520);
        assert_eq!(outcome.feasible, 525_200, "{threads} threads");
        assert_eq!(outcome.frontier.len(), 64, "{threads} threads");
        let indices: Vec<u64> = outcome.frontier.iter().map(|p| p.index).collect();
        assert_eq!(indices, FRONTIER, "{threads} threads");
    }
}
