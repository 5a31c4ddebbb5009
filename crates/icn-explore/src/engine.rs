//! The streaming exploration engine: lazy grid → chunks →
//! `icn_sim::fold_by_worker` → one Pareto frontier per worker → one
//! merge.
//!
//! # Determinism argument
//!
//! The grid is split into fixed-size chunks by candidate index. One call
//! spawns its workers once (the caller is one of them). Each worker
//! claims chunks from one shared counter (scheduling is racy and
//! irrelevant) and folds every chunk it claims straight into its own
//! frontier: [`Evaluator::fold`] walks a chunk in ascending index order,
//! one chassis run at a time, through the call's one evaluator (see
//! `eval`), and offers each run's fastest packet variants. Once every
//! chunk is folded, the worker frontiers are merged into one, in worker
//! order; at one thread there is one frontier and nothing to merge.
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
//! The workers also share the evaluator's board memo, filled by whichever
//! thread first needs a board. A board's outcome is a pure function of
//! its key, so which thread fills it changes nothing.
//!
//! The Pareto set of a multiset is unique, so it does not matter which
//! worker folded which chunk, in what order, or in what order the worker
//! frontiers are merged: the result is the Pareto set of every offered
//! candidate, at any thread count, chunk size or claim order.
//! `Frontier::into_sorted` then canonicalises the output order by
//! candidate index. Byte-identical output at `--threads` 1, 2 and 4 is a
//! test, a CI gate and a bench invariant, not an aspiration.
//!
//! Peak memory is `O(frontier × threads)`: one frontier per worker and
//! one tie buffer each, never `O(grid)` and never a frontier per chunk.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

use icn_core::pareto::Frontier;
use icn_sim::fold_by_worker;
use serde::{Deserialize, Serialize};

use crate::eval::{resolve_techs, Evaluator, FrontierPoint, OBJECTIVES};
use crate::grid::GridSpec;
use crate::spotcheck::{self, SpotCheck};

/// Candidates per chunk: the unit a worker claims, and the interval of
/// the progress reports and stop polls. Big enough that claiming a chunk
/// never contends.
pub const DEFAULT_CHUNK: u64 = 4096;

/// Knobs of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Threads (1 = serial, 0 = one per available core): the workers
    /// that fold the chunks, and the fan-out of the distinct spot-check
    /// simulations.
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

/// Why [`explore_bounded`] returned no outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The grid spec failed validation; the message says why.
    Invalid(String),
    /// The caller's stop predicate fired. The partial work is discarded.
    Stopped,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(message) => f.write_str(message),
            Self::Stopped => f.write_str("exploration stopped before it finished"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// What one worker folds the chunks it claims into.
#[derive(Default)]
struct WorkerFold {
    /// The Pareto set of every candidate this worker has offered.
    frontier: Frontier<FrontierPoint, OBJECTIVES>,
    /// Feasible candidates among the chunks this worker folded.
    feasible: u64,
    /// `Evaluator::fold`'s scratch, reused across chunks.
    ties: Vec<(u64, u32)>,
    /// Whether this worker is the caller, the one thread that reports
    /// progress.
    reports: bool,
}

/// Run one exploration: enumerate, evaluate, merge, spot-check.
///
/// `progress` (if given) is called on the caller's thread only: after
/// every chunk the caller folds, with `(candidates evaluated so far by
/// every worker, the caller's own frontier size)`, and once more when
/// the fold is over, with `(grid size, merged frontier size)` — the hook
/// `/v1/explore` streams from. The evaluated count never decreases. At
/// one thread the frontier size is the frontier so far; with more it is
/// the Pareto set of the chunks the caller folded, which can shrink when
/// another worker's chunks are merged in, and only the final report's
/// size is the frontier's.
///
/// # Errors
/// Returns a message when the spec fails validation.
pub fn explore(
    spec: &GridSpec,
    options: &ExploreOptions,
    progress: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> Result<ExploreOutcome, String> {
    explore_bounded(spec, options, progress, || false).map_err(|e| e.to_string())
}

/// [`explore`] under a caller-supplied stop predicate, polled before
/// every chunk a worker folds, and by each spot-check simulation at its
/// start and every `icn_sim::STOP_POLL_CYCLES` cycles — as
/// `icn_sim::Engine::run_bounded` polls one simulation. Services use it
/// to bound a job by a wall-clock deadline. Until the predicate fires,
/// the outcome is exactly [`explore`]'s.
///
/// # Errors
/// [`ExploreError::Invalid`] when the spec fails validation, and
/// [`ExploreError::Stopped`] when `should_stop` fired: a stopped
/// exploration returns no partial outcome.
pub fn explore_bounded(
    spec: &GridSpec,
    options: &ExploreOptions,
    progress: Option<&(dyn Fn(u64, u64) + Sync)>,
    should_stop: impl Fn() -> bool + Sync,
) -> Result<ExploreOutcome, ExploreError> {
    let total = spec.candidate_count().map_err(ExploreError::Invalid)?;
    let techs = resolve_techs(spec).map_err(ExploreError::Invalid)?;
    let chunk = options.resolved_chunk(spec.packet_bits.len() as u64);
    let chunks = usize::try_from(total.div_ceil(chunk)).map_err(|_| {
        ExploreError::Invalid(format!("{total} candidates are too many chunks to count"))
    })?;

    let evaluator = Evaluator::new(spec, &techs);
    let evaluated = AtomicU64::new(0);
    let workers = fold_by_worker(
        chunks,
        options.threads,
        |worker| WorkerFold {
            reports: worker == 0,
            ..WorkerFold::default()
        },
        |worker, index| {
            if should_stop() {
                return ControlFlow::Break(());
            }
            let start = index as u64 * chunk;
            let end = total.min(start + chunk);
            worker.feasible += evaluator.fold(start, end, &mut worker.frontier, &mut worker.ties);
            let done = evaluated.fetch_add(end - start, Ordering::Relaxed) + (end - start);
            if let Some(report) = progress.filter(|_| worker.reports) {
                report(done, worker.frontier.len() as u64);
            }
            ControlFlow::Continue(())
        },
    );
    let evaluated = evaluated.into_inner();
    // Only a fired stop predicate leaves a chunk unfolded.
    if evaluated < total {
        return Err(ExploreError::Stopped);
    }
    let merged = workers
        .into_iter()
        .reduce(|mut merged, worker| {
            merged.frontier.merge(worker.frontier);
            merged.feasible += worker.feasible;
            merged
        })
        .unwrap_or_default();
    if let Some(report) = progress {
        report(total, merged.frontier.len() as u64);
    }

    let points: Vec<FrontierPoint> = merged
        .frontier
        .into_sorted()
        .into_iter()
        .map(|entry| entry.item)
        .collect();
    let (spot_checks, ranking_agrees) =
        spotcheck::spot_check_bounded(&points, options.spot_checks, options.threads, &should_stop)
            .ok_or(ExploreError::Stopped)?;
    Ok(ExploreOutcome {
        grid_candidates: total,
        evaluated,
        feasible: merged.feasible,
        frontier: points,
        spot_checks,
        ranking_agrees,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
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
        for threads in [1, 2] {
            let seen = Mutex::new(Vec::new());
            let options = ExploreOptions {
                threads,
                chunk: 512,
                spot_checks: 0,
            };
            let outcome = explore(
                &spec,
                &options,
                Some(&|evaluated, frontier| seen.lock().unwrap().push((evaluated, frontier))),
            )
            .unwrap();
            let seen = seen.into_inner().unwrap();
            assert!(seen.len() >= 2, "threads={threads}: {seen:?}");
            assert!(
                seen.windows(2).all(|w| w[0].0 <= w[1].0),
                "threads={threads}: {seen:?}"
            );
            assert_eq!(
                seen.last(),
                Some(&(outcome.evaluated, outcome.frontier.len() as u64)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_stop_predicate_that_fires_yields_the_error() {
        let spec = GridSpec::bench();
        // The bench grid is 10 chunks of 512 candidates, polled once per
        // chunk; the checks' simulations poll after the fold.
        for (threads, fire_at) in [(1, 0), (1, 3), (2, 3), (1, 10), (2, 10)] {
            let polls = AtomicUsize::new(0);
            let options = ExploreOptions {
                threads,
                chunk: 512,
                spot_checks: 2,
            };
            let result = explore_bounded(&spec, &options, None, || {
                polls.fetch_add(1, Ordering::Relaxed) >= fire_at
            });
            assert_eq!(
                result,
                Err(ExploreError::Stopped),
                "threads={threads} fire_at={fire_at}"
            );
        }
    }

    #[test]
    fn a_stop_predicate_that_never_fires_changes_nothing() {
        for spec in [GridSpec::bench(), GridSpec::paper()] {
            for threads in [1, 2] {
                let options = ExploreOptions {
                    threads,
                    chunk: 512,
                    spot_checks: 2,
                };
                let polls = AtomicUsize::new(0);
                let bounded = explore_bounded(&spec, &options, None, || {
                    polls.fetch_add(1, Ordering::Relaxed);
                    false
                })
                .unwrap();
                assert!(polls.into_inner() > 0);
                assert_eq!(
                    outcome_bytes(&bounded),
                    outcome_bytes(&explore(&spec, &options, None).unwrap()),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn an_invalid_spec_is_an_invalid_error_with_explores_message() {
        let mut spec = GridSpec::bench();
        spec.widths.clear();
        let message = explore(&spec, &ExploreOptions::default(), None).unwrap_err();
        assert_eq!(
            explore_bounded(&spec, &ExploreOptions::default(), None, || true),
            Err(ExploreError::Invalid(message))
        );
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
