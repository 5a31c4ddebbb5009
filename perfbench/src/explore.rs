//! `explore_million`: serial `icn_explore::explore` over the million grid.
//!
//! Why this workload: enumeration, closed-form evaluation and frontier
//! merge do nearly all the work. The engine only runs the four small
//! spot-check simulations (about a fifth of a call) and the service does
//! nothing. The seed permutes the order of every grid axis: the candidate
//! set — and so the feasible count and the frontier — is the same for
//! every seed, while the enumeration order the engine sees differs.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use icn_explore::{explore, resolve_techs, spot_check, Evaluator, ExploreOptions, GridSpec};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::record::{Metric, Tally};
use crate::reference::Reference;
use crate::stats::Samples;
use crate::{Measured, Traced};

/// Spot-checks per `explore` call.
pub const SPOT_CHECKS: usize = 4;

/// Fewest untraced `explore` calls. A guarded median needs 20; one
/// set-up is timed per call, so `setup_s` rests on as many. One set-up
/// takes well under a millisecond, so a single timer read would be
/// jitter.
const MIN_CALLS: usize = 21;

/// Fewest traced rounds (the guarded median of the paired tracing
/// overhead needs 20).
const MIN_ROUNDS: usize = 20;

/// Candidates per timed enumerate/evaluate chunk (the engine's own
/// chunk size, so the evaluate-only pass sees the same memo resets).
const CHUNK: u64 = icn_explore::DEFAULT_CHUNK;

/// Which grid to explore.
#[derive(Debug, Clone, Copy)]
pub struct ExploreScale {
    /// Built-in grid name.
    pub grid: &'static str,
}

impl ExploreScale {
    /// `GridSpec::million()`: 1,163,520 candidates.
    pub const MILLION: Self = Self { grid: "million" };
    /// `GridSpec::bench()`, for the benchmark's own tests.
    pub const TINY: Self = Self { grid: "bench" };
}

/// The grid for `seed`: the built-in grid with each axis shuffled.
pub fn spec(scale: &ExploreScale, seed: u64) -> GridSpec {
    let mut spec = GridSpec::by_name(scale.grid).expect("built-in grid");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    spec.techs.shuffle(&mut rng);
    spec.kinds.shuffle(&mut rng);
    spec.clock_schemes.shuffle(&mut rng);
    spec.network_ports.shuffle(&mut rng);
    spec.radices.shuffle(&mut rng);
    spec.widths.shuffle(&mut rng);
    spec.packet_bits.shuffle(&mut rng);
    spec
}

fn options(threads: usize, spot_checks: usize) -> ExploreOptions {
    ExploreOptions {
        threads,
        chunk: CHUNK,
        spot_checks,
    }
}

/// One set-up: copy the workload's grid (as a caller building it would),
/// validate it and resolve its technology presets; seconds. The seeded
/// axis shuffle is input generation and stays outside the timing.
fn setup_once(spec: &GridSpec) -> Result<f64, String> {
    let started = Instant::now();
    let spec = spec.clone();
    spec.candidate_count()?;
    let techs = resolve_techs(&spec)?;
    let secs = started.elapsed().as_secs_f64();
    drop(black_box((spec, techs)));
    Ok(secs)
}

/// The untraced run: repeated serial `explore` calls with spot-checks.
/// After each call one set-up is timed (outside the call's timing) and
/// the reference speed is measured; both the call's rate and the set-up
/// are normalized by that speed.
pub fn untraced(scale: &ExploreScale, seed: u64, seconds: f64) -> Result<Measured, String> {
    let spec = spec(scale, seed);
    let total = spec.candidate_count()? as f64;
    let opts = options(1, SPOT_CHECKS);
    let mut tally = Tally::default();
    let mut call_ms = Samples::new();
    let mut throughput = Samples::new();
    let mut raw = Samples::new();
    let mut setup = Samples::new();
    let mut reference = Reference::new();
    let mut first: Option<String> = None;
    let mut same = true;
    let mut agrees = true;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while call_ms.len() < MIN_CALLS || Instant::now() < deadline {
        let t = Instant::now();
        let outcome = explore(&spec, &opts, None)?;
        let dt = t.elapsed().as_secs_f64();
        let set_up = setup_once(&spec)?;
        let speed = reference.speed();
        tally.attempted += 1;
        call_ms.push(dt * 1e3);
        raw.push(total / dt);
        throughput.push(total / dt / speed);
        setup.push(set_up * speed);
        agrees &= outcome.ranking_agrees && outcome.spot_checks.len() == SPOT_CHECKS;
        let bytes = serde_json::to_string(&outcome).map_err(|e| e.to_string())?;
        match &first {
            None => first = Some(bytes),
            Some(first) => same &= *first == bytes,
        }
    }
    tally.check("explore.repeat_identical", same);
    tally.check("explore.ranking_agrees", agrees);
    Ok(Measured {
        throughput,
        raw,
        setup,
        latency_ms: call_ms,
        notes: Vec::new(),
        tally,
    })
}

/// `explore` with spot-checks, traced or not; seconds, and whether the
/// traced call's progress reports covered the whole grid.
///
/// The traced call passes a progress callback (the crate's own hook)
/// that counts its reports and keeps the last evaluated count.
fn end_to_end_call(
    spec: &GridSpec,
    traced: bool,
    total: u64,
) -> Result<(f64, icn_explore::ExploreOutcome, bool), String> {
    let reports = AtomicU64::new(0);
    let evaluated = AtomicU64::new(0);
    let progress = |done: u64, _frontier: u64| {
        reports.fetch_add(1, Ordering::Relaxed);
        evaluated.store(done, Ordering::Relaxed);
    };
    let hook: Option<&(dyn Fn(u64, u64) + Sync)> = if traced { Some(&progress) } else { None };
    let t = Instant::now();
    let outcome = explore(spec, &options(1, SPOT_CHECKS), hook)?;
    let secs = t.elapsed().as_secs_f64();
    let complete = !traced
        || (reports.load(Ordering::Relaxed) > 0 && evaluated.load(Ordering::Relaxed) == total);
    Ok((secs, outcome, complete))
}

/// The traced run: per-phase timings from outside the crate.
///
/// Each round times, serially: the end-to-end `explore` call with
/// spot-checks untraced and traced, back to back in alternating order
/// (their paired difference is the tracing overhead), an enumerate-only
/// pass (`GridSpec::candidate`), an evaluate-only pass
/// (`Evaluator::evaluate`, which enumerates internally), `explore`
/// without spot-checks, `spot_check` on its frontier, and a 2-thread
/// `explore` whose frontier must equal the serial one.
pub fn traced(scale: &ExploreScale, seed: u64, seconds: f64) -> Result<Traced, String> {
    let spec = spec(scale, seed);
    let techs = resolve_techs(&spec)?;
    let total = spec.candidate_count()?;
    let mut tally = Tally::default();
    let (mut enumerate, mut evaluate, mut bare, mut spot, mut full, mut two) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut overhead = Samples::new();
    let mut rounds = 0usize;
    let mut feasible = 0u64;
    let mut frontier_size = 0usize;
    let (mut identical, mut agrees, mut complete) = (true, true, true);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let traced_first = rounds % 2 == 1;
        let (first, a, ok_a) = end_to_end_call(&spec, traced_first, total)?;
        let (second, b, ok_b) = end_to_end_call(&spec, !traced_first, total)?;
        let (untraced_secs, traced_secs) = if traced_first {
            (second, first)
        } else {
            (first, second)
        };
        full += untraced_secs;
        overhead.push(traced_secs / untraced_secs - 1.0);
        complete &= ok_a && ok_b;

        let t = Instant::now();
        for index in 0..total {
            black_box(spec.candidate(black_box(index)));
        }
        enumerate += t.elapsed().as_secs_f64();

        let t = Instant::now();
        feasible = 0;
        let mut start = 0;
        while start < total {
            let mut evaluator = Evaluator::new(&spec, &techs);
            for index in start..total.min(start + CHUNK) {
                if let Some(point) = evaluator.evaluate(index) {
                    feasible += 1;
                    black_box(point);
                }
            }
            start += CHUNK;
        }
        evaluate += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let serial = explore(&spec, &options(1, 0), None)?;
        bare += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (checks, ranking) = spot_check(&serial.frontier, SPOT_CHECKS);
        spot += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let threaded = explore(&spec, &options(2, 0), None)?;
        two += t.elapsed().as_secs_f64();

        tally.attempted += 6;
        identical &= threaded.frontier == serial.frontier
            && a == b
            && a.frontier == serial.frontier
            && a.spot_checks == checks
            && serial.feasible == feasible;
        agrees &= ranking && a.ranking_agrees;
        frontier_size = serial.frontier.len();
        rounds += 1;
    }
    tally.check("explore.threads2_frontier_identical", identical);
    tally.check("explore.ranking_agrees", agrees);
    tally.check("explore.progress_complete", complete);

    let n = rounds as f64;
    let per_candidate_ns = |secs: f64| secs * 1e9 / (n * total as f64);
    let metrics = vec![
        Metric::new(
            "explore.enumerate_ns",
            "ns",
            per_candidate_ns(enumerate),
            rounds,
        ),
        Metric::new(
            "explore.evaluate_ns",
            "ns",
            per_candidate_ns(evaluate - enumerate),
            rounds,
        ),
        Metric::new(
            "explore.merge_ms",
            "ms",
            (bare - evaluate) * 1e3 / n,
            rounds,
        ),
        Metric::new("explore.spot_check_ms", "ms", spot * 1e3 / n, rounds),
        Metric::new(
            "explore.feasible_ratio",
            "ratio",
            feasible as f64 / total as f64,
            1,
        ),
        Metric::new("explore.frontier_size", "count", frontier_size as f64, 1),
        Metric::new("explore.speedup_2t", "ratio", bare / two, rounds),
        // enumerate + evaluate + merge + spot-check over the untraced
        // end-to-end call. Since merge is defined as `explore()` minus the
        // evaluate-only pass, the sum is a bare `explore()` plus a
        // separate `spot_check`: this compares that pair with one
        // `explore()` that does its own spot-checks.
        Metric::new(
            "explore.accounted_ratio",
            "ratio",
            (bare + spot) / full,
            rounds,
        ),
    ];
    Ok(Traced {
        metrics,
        tally,
        overhead,
        notes: Vec::new(),
    })
}
