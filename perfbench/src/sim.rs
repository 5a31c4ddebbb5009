//! `sim_paper2048`: the paper's §6 network under a serial `Engine::step`
//! loop.
//!
//! Why this workload: the engine does nearly all the work and no other
//! layer does any. 2048 ports in three stages of 16×16 DMC chips with
//! W=4 paths, uniform load 0.01 packets per port per cycle — a quarter of
//! line rate (100-bit packets are 25 flits), below the saturation knee of
//! about 0.0166, so live packets stay flat (about 900) and the cost per
//! cycle is steady. At 0.02 the backlog grows without bound and the cost
//! per cycle drifts upward through the run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use icn_sim::{ChipModel, Engine, EngineOptions, SimConfig, SimResult};
use icn_topology::StagePlan;
use icn_workloads::Workload;

use crate::record::{guarded, Metric, Tally};
use crate::reference::Reference;
use crate::stats::Samples;
use crate::{Measured, Traced};

/// Offered load per port per cycle.
pub const LOAD: f64 = 0.01;

/// Engine constructions per set-up burst. A burst runs on a thread of its
/// own, so its allocations see the same allocator state in every run;
/// built on the main thread between windows, an engine landed in one of
/// two allocator states (about 0.17 or 0.26 ms on the 2048-port network)
/// depending on what else the run had allocated.
const SETUP_BURST: usize = 11;

/// Windows between set-up bursts. The bursts are spread through the run
/// so that their median does not rest on one instant of the host.
const SETUP_EVERY: u64 = 100;

/// Fewest windows a loop runs (a guarded median needs 20).
const MIN_WINDOWS: u64 = 40;

/// Per-step (and per-window) timings kept per loop; enough for a guarded
/// p99, and fixed so the run length does not move the peak RSS.
const STEP_SAMPLES: usize = 1 << 15;

/// Size of the simulated problem.
#[derive(Debug, Clone, Copy)]
pub struct SimScale {
    /// Network ports (power of two, planned with 16×16 chips).
    pub ports: u32,
    /// Cycles stepped before anything is timed.
    pub warmup: u64,
    /// Cycles after warm-up at which the simulated state is compared
    /// exactly.
    pub check_cycles: u64,
    /// Cycles after warm-up that the serial and 2-thread engines both run
    /// for the byte-identity check.
    pub parity_cycles: u64,
    /// Cycles per throughput window.
    pub window: u64,
}

impl SimScale {
    /// The §6 network.
    pub const PAPER: Self = Self {
        ports: 2048,
        warmup: 500,
        check_cycles: 2_000,
        parity_cycles: 1_000,
        window: 100,
    };

    /// A 64-port network for the benchmark's own tests.
    pub const TINY: Self = Self {
        ports: 64,
        warmup: 50,
        check_cycles: 200,
        parity_cycles: 200,
        window: 20,
    };

    fn check_at(&self) -> u64 {
        self.warmup + self.check_cycles
    }
}

/// The workload's simulation configuration for `seed`.
pub fn config(scale: &SimScale, seed: u64) -> SimConfig {
    let plan = StagePlan::balanced_pow2(scale.ports, 16).expect("ports is a power of two");
    let mut config = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(LOAD));
    config.seed = seed;
    config.warmup_cycles = scale.warmup;
    config.measure_cycles = scale.check_cycles;
    config.drain_cycles = 0;
    config
}

/// The simulated state at the check cycle. Must repeat exactly for a
/// seed, traced or not, at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Cycle the state was read at.
    pub cycle: u64,
    /// Packets injected so far.
    pub injected: u64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Packets dropped so far.
    pub dropped: u64,
    /// Packets alive at the check cycle.
    pub live: u64,
    /// Packets delivered between warm-up and the check cycle.
    pub delivered_after_warmup: u64,
}

impl Checkpoint {
    fn read(engine: &Engine, delivered_at_warmup: u64) -> Self {
        Self {
            cycle: engine.now(),
            injected: engine.injected_total(),
            delivered: engine.delivered_total(),
            dropped: engine.dropped_total(),
            live: engine.live_packets(),
            delivered_after_warmup: engine.delivered_total() - delivered_at_warmup,
        }
    }

    /// `injected == delivered + dropped + live`.
    pub fn conserved(&self) -> bool {
        self.injected == self.delivered + self.dropped + self.live
    }

    /// One report line.
    pub fn describe(&self) -> String {
        format!(
            "simulated cycle {} injected {} delivered {} dropped {} live {} delivered_after_warmup {}",
            self.cycle,
            self.injected,
            self.delivered,
            self.dropped,
            self.live,
            self.delivered_after_warmup
        )
    }
}

fn build(scale: &SimScale, seed: u64, threads: usize) -> Result<Engine, String> {
    Engine::try_with_options(config(scale, seed), EngineOptions::threaded(threads))
        .map_err(|e| format!("engine construction failed: {e}"))
}

/// One set-up: build the serial engine for the workload's config;
/// seconds.
fn construct_once(scale: &SimScale, seed: u64) -> Result<f64, String> {
    let config = config(scale, seed);
    let started = Instant::now();
    let engine = Engine::try_with_options(config, EngineOptions::default())
        .map_err(|e| format!("engine construction failed: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    drop(black_box(engine));
    Ok(secs)
}

/// One burst of constructions on a thread of its own, each normalized by
/// the reference speed measured on that thread right after the burst.
fn burst(scale: &SimScale, seed: u64, construct: &mut Samples) -> Result<(), String> {
    let times = std::thread::scope(|scope| {
        scope
            .spawn(|| -> Result<Vec<f64>, String> {
                let times = (0..SETUP_BURST)
                    .map(|_| construct_once(scale, seed))
                    .collect::<Result<Vec<f64>, String>>()?;
                let speed = Reference::new().speed();
                Ok(times.into_iter().map(|t| t * speed).collect())
            })
            .join()
            .map_err(|_| "set-up thread panicked".to_string())?
    })?;
    for t in times {
        construct.push(t);
    }
    Ok(())
}

/// What the timed loop measured.
#[derive(Default)]
struct Timings {
    /// Per-window cycles per second, normalized to the reference speed.
    windows: Samples,
    /// Per-window cycles per second as measured.
    raw: Samples,
    /// Window durations, ms.
    window_ms: Samples,
    /// Engine construction times normalized to the reference speed,
    /// seconds.
    construct: Samples,
    /// Traced windows only: per-step wall time, µs.
    step_us: Samples,
    /// Traced windows only: sum of the per-step times, seconds.
    stepping: f64,
    /// Traced windows only: their summed wall time, seconds.
    traced_wall: f64,
    /// Traced windows only: packets they delivered.
    traced_delivered: u64,
    /// Traced run only: per pair of windows, how much longer the traced
    /// window took than the untraced one before it, as a share.
    overhead: Samples,
}

/// The timed loop's figures and the simulation it stepped.
struct StepLoop {
    timings: Timings,
    /// Cycles stepped in the timed loop.
    cycles: u64,
    checkpoint: Checkpoint,
    result: SimResult,
}

/// The timed serial loop. Untraced, each window of cycles is timed as a
/// whole. Traced, windows alternate between untraced and traced (every
/// step timed on its own), so each traced window is paired with the
/// untraced one just before it and the host's drift cancels in their
/// difference.
fn step_loop(scale: &SimScale, seed: u64, seconds: f64, traced: bool) -> Result<StepLoop, String> {
    let mut out = Timings {
        windows: Samples::bounded(STEP_SAMPLES),
        raw: Samples::bounded(STEP_SAMPLES),
        window_ms: Samples::bounded(STEP_SAMPLES),
        step_us: Samples::bounded(STEP_SAMPLES),
        overhead: Samples::bounded(STEP_SAMPLES),
        ..Timings::default()
    };
    burst(scale, seed, &mut out.construct)?;
    let mut engine = build(scale, seed, 1)?;
    for _ in 0..scale.warmup {
        engine.step();
    }
    let delivered_at_warmup = engine.delivered_total();
    let check_at = scale.check_at();
    let mut reference = Reference::new();
    let mut checkpoint = None;
    let mut untraced_secs = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let timed_steps = traced && untraced_secs.is_some();
        let delivered_before = engine.delivered_total();
        let window_started = Instant::now();
        for _ in 0..scale.window {
            if timed_steps {
                let t = Instant::now();
                engine.step();
                let dt = t.elapsed().as_secs_f64();
                out.stepping += dt;
                out.step_us.push(dt * 1e6);
            } else {
                engine.step();
            }
            if engine.now() == check_at {
                checkpoint = Some(Checkpoint::read(&engine, delivered_at_warmup));
            }
        }
        let secs = window_started.elapsed().as_secs_f64();
        let rate = scale.window as f64 / secs;
        out.windows.push(rate / reference.speed());
        out.raw.push(rate);
        out.window_ms.push(secs * 1e3);
        if timed_steps {
            out.traced_wall += secs;
            out.traced_delivered += engine.delivered_total() - delivered_before;
            let before = untraced_secs
                .take()
                .expect("paired with an untraced window");
            out.overhead.push(secs / before - 1.0);
        } else if traced {
            untraced_secs = Some(secs);
        }
        if out.windows.seen().is_multiple_of(SETUP_EVERY) {
            burst(scale, seed, &mut out.construct)?;
        }
        if checkpoint.is_some()
            && untraced_secs.is_none()
            && out.windows.seen() >= MIN_WINDOWS
            && (!traced || out.step_us.seen() >= 1_000)
            && Instant::now() >= deadline
        {
            break;
        }
    }
    burst(scale, seed, &mut out.construct)?;
    Ok(StepLoop {
        timings: out,
        cycles: engine.now() - scale.warmup,
        checkpoint: checkpoint.expect("loop runs past the check cycle"),
        result: engine.finish(),
    })
}

fn checks(run: &StepLoop) -> Tally {
    let mut tally = Tally {
        attempted: run.cycles,
        ..Tally::default()
    };
    tally.check("sim.conservation_ok", run.result.conservation_ok());
    tally.check("sim.checkpoint_conserved", run.checkpoint.conserved());
    tally
}

/// The untraced run: the end-to-end figures.
pub fn untraced(scale: &SimScale, seed: u64, seconds: f64) -> Result<Measured, String> {
    let run = step_loop(scale, seed, seconds, false)?;
    let tally = checks(&run);
    let t = run.timings;
    Ok(Measured {
        tally,
        throughput: t.windows,
        raw: t.raw,
        setup: t.construct,
        latency_ms: t.window_ms,
        notes: vec![run.checkpoint.describe()],
    })
}

/// The simulated state at the check cycle of an engine stepped without
/// any timing.
fn plain_checkpoint(scale: &SimScale, seed: u64) -> Result<Checkpoint, String> {
    let mut engine = build(scale, seed, 1)?;
    for _ in 0..scale.warmup {
        engine.step();
    }
    let delivered_at_warmup = engine.delivered_total();
    while engine.now() < scale.check_at() {
        engine.step();
    }
    Ok(Checkpoint::read(&engine, delivered_at_warmup))
}

/// The traced run: `icn-sim` layer figures, the exact model counters,
/// the tracing overhead, and the ungated 2-thread figures with their
/// byte-identity check.
pub fn traced(scale: &SimScale, seed: u64, seconds: f64) -> Result<Traced, String> {
    let run = step_loop(scale, seed, seconds, true)?;
    let mut tally = checks(&run);
    tally.check(
        "sim.traced_matches_untraced",
        run.checkpoint == plain_checkpoint(scale, seed)?,
    );
    tally.attempted += scale.check_at();

    // Ungated: serial and 2-thread engines over the same cycles must give
    // byte-identical results; the 2-thread step times are reported but
    // not gated (see the benchmark's README).
    let total = scale.warmup + scale.parity_cycles;
    let mut serial = build(scale, seed, 1)?;
    let mut threaded = build(scale, seed, 2)?;
    let mut step_2t = Samples::new();
    for cycle in 0..total {
        serial.step();
        let t = Instant::now();
        threaded.step();
        if cycle >= scale.warmup {
            step_2t.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    tally.attempted += 2 * total;
    let serial = serial.finish();
    let threaded = threaded.finish();
    let bytes = |r: &SimResult| serde_json::to_string(r).map_err(|e| e.to_string());
    tally.check(
        "sim.threads2_result_identical",
        bytes(&serial)? == bytes(&threaded)?,
    );
    tally.check("sim.threads2_conservation_ok", threaded.conservation_ok());

    let t = &run.timings;
    let construct = &t.construct;
    let steps = t.step_us.seen() as usize;
    let n = t.step_us.len();
    let metrics = vec![
        guarded(
            "engine.construct_us",
            "us",
            construct.median().map(|s| s * 1e6),
            construct.len(),
        )?,
        guarded("engine.step_us_p50", "us", t.step_us.median(), n)?,
        guarded("engine.step_us_p99", "us", t.step_us.percentile(99.0), n)?,
        Metric::new(
            "engine.host_ns_per_delivered",
            "ns",
            t.stepping * 1e9 / t.traced_delivered.max(1) as f64,
            steps,
        ),
        Metric::new(
            "engine.delivered_per_kcycle",
            "count",
            run.checkpoint.delivered_after_warmup as f64 * 1000.0 / scale.check_cycles as f64,
            1,
        ),
        Metric::new(
            "engine.live_packets",
            "count",
            run.checkpoint.live as f64,
            1,
        ),
        Metric::new(
            "engine.accounted_ratio",
            "ratio",
            t.stepping / t.traced_wall,
            steps,
        ),
        guarded(
            "engine.step_us_p50_2t",
            "us",
            step_2t.median(),
            step_2t.len(),
        )?,
        guarded(
            "engine.step_spread_2t",
            "ratio",
            step_2t.quartile_spread(),
            step_2t.len(),
        )?,
    ];
    Ok(Traced {
        metrics,
        tally,
        overhead: t.overhead.clone(),
        notes: vec![run.checkpoint.describe()],
    })
}
