//! The streaming exploration engine: lazy grid → chunks → worker pool →
//! incremental Pareto frontier.
//!
//! # Determinism argument
//!
//! The grid is split into fixed-size chunks by candidate index. Each
//! chunk is evaluated by whichever shard claims it (an atomic counter —
//! scheduling is racy and irrelevant), producing a chunk-local frontier
//! built in ascending index order with a chunk-local chassis memo (see
//! `eval`). Chunk results are then merged into the global frontier **in
//! chunk-index order** on the coordinating thread. Dominance is
//! transitive and the Pareto set of a multiset is unique, so this equals
//! one sequential pass regardless of thread count, chunk size or claim
//! order; `Frontier::into_sorted` then canonicalises the output order by
//! candidate index. Byte-identical output at `--threads 1` and
//! `--threads 4` is a test, a CI gate and a bench invariant, not an
//! aspiration.
//!
//! Chunks are processed in bounded *waves* (a few chunks per shard), so
//! peak memory is `O(frontier + wave × chunk-frontier)` — never
//! `O(grid)`.

use std::sync::atomic::{AtomicUsize, Ordering};

use icn_core::pareto::Frontier;
use icn_sim::WorkerPool;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::eval::{resolve_techs, Evaluator, FrontierPoint, OBJECTIVES};
use crate::grid::GridSpec;
use crate::spotcheck::{self, SpotCheck};

/// Candidates per chunk. Small enough that a wave of chunk frontiers is
/// tiny, big enough that the claim counter never contends.
pub const DEFAULT_CHUNK: u64 = 4096;

/// Chunks in flight per wave, per shard.
const WAVE_CHUNKS_PER_SHARD: u64 = 4;

/// Knobs of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Shard threads (1 = serial, 0 = one per available core).
    pub threads: usize,
    /// Candidates per chunk (0 = [`DEFAULT_CHUNK`]). Never affects the
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
    fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            n => n,
        }
    }

    fn resolved_chunk(&self) -> u64 {
        if self.chunk == 0 {
            DEFAULT_CHUNK
        } else {
            self.chunk
        }
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
    /// Whether the simulator agreed with the closed-form delay ranking
    /// across every spot-checked pair (vacuously true with < 2 checks).
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
    let chunk = options.resolved_chunk();
    let chunks = total.div_ceil(chunk);
    let threads = options.resolved_threads().max(1);
    let pool = if threads > 1 && chunks > 1 {
        Some(WorkerPool::new(threads - 1))
    } else {
        None
    };
    let shards = pool.as_ref().map_or(1, |p| p.workers() + 1) as u64;
    let wave_chunks = (shards * WAVE_CHUNKS_PER_SHARD).max(1);

    let mut frontier: Frontier<FrontierPoint, OBJECTIVES> = Frontier::new();
    let mut evaluated = 0u64;
    let mut feasible = 0u64;
    let mut wave_start = 0u64;
    while wave_start < chunks {
        let wave_len = wave_chunks.min(chunks - wave_start);
        let slots: Vec<Mutex<Option<ChunkResult>>> =
            (0..wave_len).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let spec_ref = spec;
        let techs_ref = &techs;
        let slots_ref = &slots;
        let next_ref = &next;
        let work = move |_shard: usize| loop {
            let slot_index = next_ref.fetch_add(1, Ordering::Relaxed);
            if slot_index as u64 >= wave_len {
                break;
            }
            let chunk_index = wave_start + slot_index as u64;
            let start = chunk_index * chunk;
            let end = total.min(start + chunk);
            let mut local = Frontier::new();
            let mut local_feasible = 0u64;
            let mut evaluator = Evaluator::new(spec_ref, techs_ref);
            for index in start..end {
                if let Some(point) = evaluator.evaluate(index) {
                    local_feasible += 1;
                    let objectives = point.objectives();
                    local.insert(index, objectives, point);
                }
            }
            if let Some(slot) = slots_ref.get(slot_index) {
                *slot.lock() = Some(ChunkResult {
                    evaluated: end - start,
                    feasible: local_feasible,
                    frontier: local,
                });
            }
        };
        match &pool {
            Some(p) => p.broadcast(&work),
            None => work(0),
        }
        for slot in slots {
            if let Some(result) = slot.into_inner() {
                evaluated += result.evaluated;
                feasible += result.feasible;
                frontier.merge(result.frontier);
            }
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

#[cfg(test)]
mod tests {
    use super::*;

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
            Some(&|evaluated, frontier| seen.lock().push((evaluated, frontier))),
        )
        .unwrap();
        let seen = seen.into_inner();
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
