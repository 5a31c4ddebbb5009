//! Schedule-perturbation stress suite: run the parity fixtures under a
//! test-only scheduler hook ([`EngineOptions::perturb_seed`]) that
//! re-randomizes shard dispatch order every cycle and injects thread
//! yields mid-dispatch, then demand the same bytes as the serial
//! engine.
//!
//! The parallel engine's determinism argument says results depend only
//! on the canonical merge order, never on which thread ran which chunk
//! when. If any code path secretly depends on dispatch order — a shared
//! read that should have been a snapshot, a merge keyed on completion —
//! a shuffled schedule is the cheapest way to make it misbehave, and
//! this suite exists to flush exactly that. `chunk_modules: 1` maximizes
//! the chunk count (one per module), giving the shuffle the largest
//! possible permutation space.

#[path = "common/parity_cases.rs"]
mod parity_cases;

use icn_sim::EngineOptions;

/// (threads, chunk_modules, perturb_seed) triples: every thread count of
/// the parity matrix, single-module and automatic chunking, distinct
/// perturbation streams.
const SCHEDULES: &[(usize, usize, u64)] = &[(2, 1, 1), (4, 3, 0xDECAF), (8, 1, 42), (8, 0, 7)];

#[test]
fn perturbed_schedules_never_change_the_bytes() {
    for case in parity_cases::cases() {
        let (want_result, want_events) = parity_cases::render(&case);
        for &(threads, chunk_modules, perturb_seed) in SCHEDULES {
            let options = EngineOptions {
                threads,
                chunk_modules,
                perturb_seed: Some(perturb_seed),
            };
            let (got_result, got_events) = parity_cases::render_with_options(&case, options);
            let label = format!("{}@{threads}t/c{chunk_modules}/s{perturb_seed}", case.name);
            assert_eq!(
                got_result, want_result,
                "{label}: SimResult diverged under a perturbed schedule"
            );
            assert_eq!(
                got_events, want_events,
                "{label}: event stream diverged under a perturbed schedule"
            );
        }
    }
}

/// Re-running the SAME perturbed schedule twice is also deterministic:
/// the perturbation RNG is private and seeded, so a failing schedule can
/// always be replayed exactly from its `(threads, chunk, seed)` triple.
#[test]
fn perturbed_schedules_replay_identically() {
    let case = &parity_cases::cases()[0];
    let options = EngineOptions {
        threads: 4,
        chunk_modules: 1,
        perturb_seed: Some(0xFEED),
    };
    let first = parity_cases::render_with_options(case, options);
    let second = parity_cases::render_with_options(case, options);
    assert_eq!(first, second);
}
