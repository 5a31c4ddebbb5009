//! The streaming exploration engine: lazy grid → chunks →
//! `icn_sim::ordered_map` → incremental Pareto frontier.
//!
//! # Determinism argument
//!
//! The grid is split into fixed-size chunks by candidate index. Each
//! chunk is evaluated by whichever thread claims it (scheduling is racy
//! and irrelevant): [`Evaluator::fold`] walks it in ascending index
//! order, one chassis run at a time, through the call's one evaluator
//! (see `eval`), and offers each run's fastest packet variants to a
//! chunk-local frontier. `ordered_map` hands the results back in chunk
//! order, and they are merged into the global frontier **in chunk-index
//! order** on the coordinating thread.
//!
//! Offering only the run minima keeps the result exact. Every variant
//! of a chassis run has the same area, pins and cost, so a variant whose
//! delay objective is above the run's minimum is dominated by a variant
//! that attains it; every tie is offered. Dominance is transitive and
//! strict, so every candidate of the grid off its Pareto set is
//! dominated by a Pareto member, and every Pareto member is a run
//! minimum, hence offered. The Pareto set of the offered candidates is
//! therefore the Pareto set of the whole grid. Chunk sizes are rounded
//! up to whole runs, so no chunk edge cuts a run (and no chassis is
//! solved twice). The argument would hold for any edges anyway: a cut
//! run folds as two runs, each offering its own minima, which include
//! the whole run's; `tests/fold_parity.rs` folds such ranges directly.
//! The chunks also share the evaluator's board memo, filled by whichever
//! thread first needs a board. A board's outcome is a pure function of
//! its key, so which thread fills it changes nothing.
//!
//! The Pareto set of a multiset is unique, so merging the chunk
//! frontiers equals one sequential pass regardless of thread count,
//! chunk size or claim order; `Frontier::into_sorted` then canonicalises
//! the output order by candidate index. Byte-identical output at
//! `--threads 1` and `--threads 4` is a test, a CI gate and a bench
//! invariant, not an aspiration.
//!
//! Chunks are processed in bounded *waves* (a few chunks per thread), so
//! peak memory is `O(frontier + wave × chunk-frontier)` — never
//! `O(grid)`.

use icn_core::pareto::Frontier;
use icn_sim::{ordered_map, resolve_threads};
use serde::{Deserialize, Serialize};

use crate::eval::{resolve_techs, Evaluator, FrontierPoint, OBJECTIVES};
use crate::grid::GridSpec;
use crate::spotcheck::{self, SpotCheck};

/// Candidates per chunk. Small enough that a wave of chunk frontiers is
/// tiny, big enough that claiming a chunk never contends.
pub const DEFAULT_CHUNK: u64 = 4096;

/// Chunks in flight per wave, per thread.
const WAVE_CHUNKS_PER_THREAD: u64 = 4;

/// Knobs of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Threads (1 = serial, 0 = one per available core).
    pub threads: usize,
    /// Candidates per chunk (0 = [`DEFAULT_CHUNK`]), rounded up to a
    /// whole number of packet-axis runs so that no chunk starts inside a
    /// chassis run and no chassis is solved twice. Never affects the
    /// output, only scheduling granularity.
    pub chunk: u64,
    /// Run `icn_sim` spot-checks on up to this many lowest-delay
    /// frontier points (0 = skip).
    pub spot_checks: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            chunk: DEFAULT_CHUNK,
            spot_checks: 0,
        }
    }
}

impl ExploreOptions {
    /// The chunk size, rounded up to a multiple of the `packets`-long
    /// chassis runs.
    fn resolved_chunk(&self, packets: u64) -> u64 {
        let chunk = if self.chunk == 0 {
            DEFAULT_CHUNK
        } else {
            self.chunk
        };
        chunk.div_ceil(packets).saturating_mul(packets)
    }
}

/// Everything one exploration run produced. Serialised form is the
/// `icn explore --json` body and the `/v1/explore` result body, so it
/// must stay free of wall-clock and host-dependent fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreOutcome {
    /// Total candidates in the grid.
    pub grid_candidates: u64,
    /// Candidates evaluated (always the whole grid).
    pub evaluated: u64,
    /// Candidates that were feasible designs.
    pub feasible: u64,
    /// The Pareto frontier (delay × area × pins × cost), in canonical
    /// candidate-index order.
    pub frontier: Vec<FrontierPoint>,
    /// Simulator spot-checks of the lowest-delay frontier points.
    pub spot_checks: Vec<SpotCheck>,
    /// Whether the simulator agreed with the closed form: every measured
    /// minimum latency is at least its analytic floor, and the minima
    /// follow the closed-form delay ranking across every spot-checked
    /// pair (vacuously true with no checks).
    pub ranking_agrees: bool,
}

/// What one chunk hands back to the merger.
struct ChunkResult {
    evaluated: u64,
    feasible: u64,
    frontier: Frontier<FrontierPoint, OBJECTIVES>,
}

/// Run one exploration: enumerate, evaluate, merge, spot-check.
///
/// `progress` (if given) is called from the coordinating thread after
/// every merged wave with `(candidates evaluated so far, current
/// frontier size)` — the hook `/v1/explore` streams from.
///
/// # Errors
/// Returns a message when the spec fails validation.
pub fn explore(
    spec: &GridSpec,
    options: &ExploreOptions,
    progress: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> Result<ExploreOutcome, String> {
    let total = spec.candidate_count()?;
    let techs = resolve_techs(spec)?;
    let chunk = options.resolved_chunk(spec.packet_bits.len() as u64);
    let chunks = total.div_ceil(chunk);
    let threads = resolve_threads(options.threads);
    let wave_chunks = (threads as u64).saturating_mul(WAVE_CHUNKS_PER_THREAD);

    let evaluator = Evaluator::new(spec, &techs);
    let mut frontier: Frontier<FrontierPoint, OBJECTIVES> = Frontier::new();
    let mut evaluated = 0u64;
    let mut feasible = 0u64;
    let mut wave_start = 0u64;
    while wave_start < chunks {
        let wave_len = wave_chunks.min(chunks - wave_start);
        let wave = ordered_map(wave_len as usize, threads, |slot| {
            let start = (wave_start + slot as u64) * chunk;
            evaluate_chunk(&evaluator, start, total.min(start + chunk))
        });
        for result in wave {
            evaluated += result.evaluated;
            feasible += result.feasible;
            frontier.merge(result.frontier);
        }
        if let Some(report) = progress {
            report(evaluated, frontier.len() as u64);
        }
        wave_start += wave_len;
    }

    let points: Vec<FrontierPoint> = frontier
        .into_sorted()
        .into_iter()
        .map(|entry| entry.item)
        .collect();
    let (spot_checks, ranking_agrees) = spotcheck::spot_check(&points, options.spot_checks);
    Ok(ExploreOutcome {
        grid_candidates: total,
        evaluated,
        feasible,
        frontier: points,
        spot_checks,
        ranking_agrees,
    })
}

/// Fold candidates `start..end` into a chunk-local frontier. Chunks are
/// whole runs and so is the grid, so `start..end` cuts no run and each
/// chassis is solved once.
fn evaluate_chunk(evaluator: &Evaluator<'_>, start: u64, end: u64) -> ChunkResult {
    let mut frontier = Frontier::new();
    let feasible = evaluator.fold(start, end, &mut frontier);
    ChunkResult {
        evaluated: end - start,
        feasible,
        frontier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn outcome_bytes(outcome: &ExploreOutcome) -> String {
        serde_json::to_string(outcome).unwrap()
    }

    #[test]
    fn thread_count_and_chunk_size_never_change_output_bytes() {
        let spec = GridSpec::bench();
        let reference = explore(&spec, &ExploreOptions::default(), None).unwrap();
        assert_eq!(reference.evaluated, spec.candidate_count().unwrap());
        // Determinism tripwire: the bench grid's frontier never
        // legitimately changes size.
        assert_eq!(
            reference.frontier.len(),
            28,
            "bench-grid frontier size moved"
        );
        let parity_threads: usize = std::env::var("ICN_PARITY_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4);
        for (threads, chunk) in [(1, 1), (1, 777), (2, 64), (parity_threads, 0), (4, 100_000)] {
            let options = ExploreOptions {
                threads,
                chunk,
                spot_checks: 0,
            };
            let run = explore(&spec, &options, None).unwrap();
            assert_eq!(
                outcome_bytes(&run),
                outcome_bytes(&reference),
                "threads={threads} chunk={chunk} diverged"
            );
        }
    }

    #[test]
    fn chunks_round_up_to_whole_packet_runs() {
        let chunk = |chunk| ExploreOptions {
            chunk,
            ..ExploreOptions::default()
        };
        assert_eq!(chunk(0).resolved_chunk(505), 4545);
        assert_eq!(chunk(1).resolved_chunk(505), 505);
        assert_eq!(chunk(1010).resolved_chunk(505), 1010);
        assert_eq!(chunk(1011).resolved_chunk(505), 1515);
        assert_eq!(chunk(7).resolved_chunk(1), 7);
    }

    #[test]
    fn progress_reports_are_monotonic_and_complete() {
        let spec = GridSpec::bench();
        let seen = Mutex::new(Vec::new());
        let options = ExploreOptions {
            threads: 2,
            chunk: 2048,
            spot_checks: 0,
        };
        let outcome = explore(
            &spec,
            &options,
            Some(&|evaluated, frontier| seen.lock().unwrap().push((evaluated, frontier))),
        )
        .unwrap();
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(seen.last().unwrap().0, outcome.evaluated);
    }

    #[test]
    fn frontier_matches_brute_force_over_all_feasible_candidates() {
        // O(n²) reference: evaluate everything, keep the non-dominated.
        let mut spec = GridSpec::bench();
        spec.packet_bits = vec![100, 300]; // shrink for the quadratic pass
        spec.network_ports = vec![2048];
        let techs = resolve_techs(&spec).unwrap();
        let n = spec.candidate_count().unwrap();
        let mut evaluator = Evaluator::new(&spec, &techs);
        let all: Vec<FrontierPoint> = (0..n).filter_map(|i| evaluator.evaluate(i)).collect();
        let brute: Vec<&FrontierPoint> = all
            .iter()
            .filter(|p| {
                !all.iter()
                    .any(|other| icn_core::pareto::dominates(&other.objectives(), &p.objectives()))
            })
            .collect();
        let outcome = explore(&spec, &ExploreOptions::default(), None).unwrap();
        assert_eq!(
            outcome.frontier.iter().map(|p| p.index).collect::<Vec<_>>(),
            brute.iter().map(|p| p.index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper_grid_frontier_contains_the_papers_pick_family() {
        // §3.2: 16×16 W=4 DMC is the paper's chosen design; with delay,
        // area, pins and cost all minimised it must survive dominance
        // pruning (nothing is better on every axis).
        let outcome = explore(&GridSpec::paper(), &ExploreOptions::default(), None).unwrap();
        assert!(outcome
            .frontier
            .iter()
            .any(|p| p.chip_radix == 16 && p.width == 4 && p.kind == icn_phys::CrossbarKind::Dmc));
    }

    #[test]
    fn spot_checks_run_and_agree_on_the_paper_grid() {
        let options = ExploreOptions {
            spot_checks: 4,
            ..ExploreOptions::default()
        };
        let outcome = explore(&GridSpec::paper(), &options, None).unwrap();
        assert!(!outcome.spot_checks.is_empty());
        assert!(outcome.ranking_agrees, "{:?}", outcome.spot_checks);
    }
}
