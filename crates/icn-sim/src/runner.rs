//! Batch execution: single runs, parallel fan-out, and load sweeps.

use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::fault::FaultPlan;
use crate::metrics::SimResult;
use crate::telemetry::EventSink;

/// Run one configuration to completion.
#[must_use]
pub fn run(config: SimConfig) -> SimResult {
    Engine::new(config).run()
}

/// Run one configuration to completion, validating it first — the
/// panic-free job-runner entry point used by services and other drivers
/// that must map a bad request to a typed error, never a backtrace.
///
/// # Errors
/// Returns the [`crate::error::SimError`] from [`SimConfig::validate`] /
/// [`Engine::try_new`] when the configuration or fault plan is invalid.
pub fn try_run(config: SimConfig) -> Result<SimResult, crate::error::SimError> {
    Ok(Engine::try_new(config)?.run())
}

/// Run one configuration to completion with an [`EventSink`] attached,
/// streaming every structured [`crate::telemetry::SimEvent`] the engine
/// emits. Use a [`crate::telemetry::MemorySink`] clone (or a
/// [`crate::telemetry::JsonlSink`] over a file) to keep a handle on the
/// events while the engine owns the sink.
///
/// # Panics
/// Panics if the configuration is invalid (see [`SimConfig::validate`]).
#[must_use]
pub fn run_with_sink(config: SimConfig, sink: impl EventSink + 'static) -> SimResult {
    let mut engine = Engine::new(config);
    engine.set_event_sink(sink);
    engine.run()
}

/// Replay a recorded [`icn_workloads::TrafficTrace`] through the network:
/// the trace drives injection (the config's workload load is ignored), so
/// the *same arrivals* can be replayed against different switch designs —
/// buffer depths, chip models, arbitration — for apples-to-apples
/// comparisons.
///
/// # Panics
/// Panics if the trace's port count does not match the plan.
#[must_use]
pub fn run_trace(mut config: SimConfig, trace: &icn_workloads::TrafficTrace) -> SimResult {
    assert_eq!(
        trace.ports(),
        config.plan.ports(),
        "trace recorded for a different network size"
    );
    config.workload.load = 0.0; // injections come from the trace
    let measure_end = config.warmup_cycles + config.measure_cycles;
    let hard_end = measure_end + config.drain_cycles;
    let mut engine = Engine::new(config);
    let entries = trace.entries();
    let mut next = 0usize;
    while engine.now() < hard_end {
        while next < entries.len() && entries[next].cycle == engine.now() {
            engine.inject(entries[next].src, entries[next].dest);
            next += 1;
        }
        let exhausted = next >= entries.len();
        if exhausted && engine.now() >= measure_end && engine.pending_tracked() == 0 {
            break;
        }
        engine.step();
    }
    engine.finish()
}

/// Run many configurations concurrently, one OS thread per configuration up
/// to the machine's parallelism, preserving input order in the output.
///
/// Simulations are embarrassingly parallel (each engine owns its state and
/// RNG), so plain scoped threads over a shared work counter suffice — no
/// shared mutable simulation state exists by construction.
#[must_use]
pub fn run_parallel(configs: Vec<SimConfig>) -> Vec<SimResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    if configs.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(configs.len());
    if workers <= 1 {
        return configs.into_iter().map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<SimResult>> = (0..configs.len()).map(|_| None).collect();
    // icn-lint: allow(ICN203) -- batch runner over whole independent sims, outside the engine cycle; no shard state is shared
    let slots: Vec<parking_lot::Mutex<&mut Option<SimResult>>> =
        results.iter_mut().map(parking_lot::Mutex::new).collect(); // icn-lint: allow(ICN203) -- same independent-sims hand-off as above

    std::thread::scope(|scope| {
        for _ in 0..workers {
            // icn-lint: allow(ICN203) -- one scoped thread per independent simulation; joins before return, never inside a cycle
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let result = run(configs[i].clone());
                **slots[i].lock() = Some(result);
            });
        }
    });
    drop(slots);
    // Every index below configs.len() is claimed by exactly one worker
    // (fetch_add) and filled before the scope joins, so nothing is lost
    // by flattening.
    let collected: Vec<SimResult> = results.into_iter().flatten().collect();
    debug_assert_eq!(collected.len(), configs.len());
    collected
}

/// One point of a load sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSweepPoint {
    /// Offered load (injection probability per port per cycle).
    pub offered_load: f64,
    /// The full result at this load.
    pub result: SimResult,
}

/// Sweep offered load over `loads`, holding everything else in `base`
/// fixed, running points in parallel.
///
/// # Panics
/// Panics if any load is outside `[0, 1]`.
#[must_use]
pub fn sweep_load(base: &SimConfig, loads: &[f64]) -> Vec<LoadSweepPoint> {
    let configs: Vec<SimConfig> = loads
        .iter()
        .map(|&load| {
            assert!((0.0..=1.0).contains(&load), "load {load} out of range");
            let mut c = base.clone();
            c.workload.load = load;
            c
        })
        .collect();
    run_parallel(configs)
        .into_iter()
        .zip(loads)
        .map(|(result, &offered_load)| LoadSweepPoint {
            offered_load,
            result,
        })
        .collect()
}

/// One point of a module-failure sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepPoint {
    /// How many modules were permanently failed (from cycle 0).
    pub failed_modules: u32,
    /// The full result at this failure count.
    pub result: SimResult,
}

/// Sweep the number of permanently failed modules over `counts`, holding
/// everything else in `base` fixed (any faults already in `base` are
/// replaced), running points in parallel. Failed modules are drawn
/// deterministically from `fault_seed`, with each count's set nested in
/// the next where the shuffle allows — the comparison is across failure
/// *counts*, not across unrelated fault draws.
#[must_use]
pub fn sweep_module_failures(
    base: &SimConfig,
    counts: &[u32],
    fault_seed: u64,
) -> Vec<FaultSweepPoint> {
    let configs: Vec<SimConfig> = counts
        .iter()
        .map(|&count| {
            let mut c = base.clone();
            c.faults = FaultPlan::random_module_failures(&c.plan, count, 0, fault_seed);
            c
        })
        .collect();
    run_parallel(configs)
        .into_iter()
        .zip(counts)
        .map(|(result, &failed_modules)| FaultSweepPoint {
            failed_modules,
            result,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipModel;
    use icn_topology::StagePlan;
    use icn_workloads::Workload;

    fn small_config(load: f64, seed: u64) -> SimConfig {
        let mut c = SimConfig::paper_baseline(
            StagePlan::uniform(4, 2),
            ChipModel::Dmc,
            4,
            Workload::uniform(load),
        );
        c.seed = seed;
        c.warmup_cycles = 200;
        c.measure_cycles = 2_000;
        c.drain_cycles = 30_000;
        c
    }

    #[test]
    fn parallel_matches_serial() {
        let configs: Vec<SimConfig> = (0..6).map(|i| small_config(0.01, i)).collect();
        let serial: Vec<_> = configs.iter().cloned().map(run).collect();
        let parallel = run_parallel(configs);
        assert_eq!(serial, parallel);
    }

    /// Batch determinism must also survive the optional subsystems: a
    /// mixed batch of plain, faulty (with retries + watchdog), and
    /// telemetry-sampling configs produces identical results serially and
    /// in parallel — including the per-run telemetry reports.
    #[test]
    fn parallel_matches_serial_with_faults_and_telemetry() {
        use crate::fault::{FaultPlan, RetryPolicy};
        use crate::telemetry::TelemetryConfig;

        let plan = StagePlan::uniform(4, 2);
        let faulty = |seed: u64| {
            let mut c = small_config(0.01, seed);
            c.faults = FaultPlan::random_module_failures(&plan, 2, 300, seed ^ 0xF417)
                .merged(FaultPlan::random_link_failures(&plan, 1, 500, seed ^ 0x11));
            c.retry = RetryPolicy::retries(2);
            c.watchdog_cycles = 5_000;
            c
        };
        let sampled = |seed: u64| {
            let mut c = small_config(0.015, seed);
            c.telemetry = TelemetryConfig::sampled(50);
            c
        };
        let both = |seed: u64| {
            let mut c = faulty(seed);
            c.telemetry = TelemetryConfig::sampled(25);
            c
        };
        let configs: Vec<SimConfig> = vec![
            small_config(0.01, 1),
            faulty(2),
            sampled(3),
            both(4),
            faulty(5),
            sampled(6),
        ];
        let serial: Vec<_> = configs.iter().cloned().map(run).collect();
        let parallel = run_parallel(configs);
        assert_eq!(serial, parallel);
        // The faulty runs actually exercised the fault path…
        assert!(
            parallel[1].dropped_total + parallel[1].retries_total > 0,
            "fault plan never fired: {:?}",
            parallel[1]
        );
        // …and the sampled runs carried telemetry through the batch.
        assert!(parallel[2].telemetry.is_some());
        assert!(parallel[3].telemetry.is_some());
        assert!(parallel[0].telemetry.is_none());
    }

    /// Fast always-on check that the sharded engine is unobservable in
    /// the result; the full byte-level matrix lives in `tests/parity.rs`.
    #[test]
    fn threaded_engine_matches_serial() {
        use crate::fault::{FaultPlan, RetryPolicy};
        use crate::options::EngineOptions;
        use crate::telemetry::TelemetryConfig;

        let mut config = small_config(0.02, 9);
        config.telemetry = TelemetryConfig::sampled(50);
        config.faults = FaultPlan::random_module_failures(&config.plan, 1, 400, 0xBEEF);
        config.retry = RetryPolicy::retries(2);
        config.watchdog_cycles = 5_000;
        let serial = run(config.clone());
        for threads in [2, 4] {
            for chunk_modules in [0, 1, 3] {
                let options = EngineOptions {
                    threads,
                    chunk_modules,
                    perturb_seed: Some(7),
                };
                let threaded = Engine::with_options(config.clone(), options).run();
                assert_eq!(serial, threaded, "threads={threads} chunk={chunk_modules}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_parallel(Vec::new()).is_empty());
    }

    #[test]
    fn load_sweep_latency_is_monotonic_at_the_ends() {
        let points = sweep_load(&small_config(0.0, 3), &[0.002, 0.3]);
        assert_eq!(points.len(), 2);
        let light = &points[0].result;
        let heavy = &points[1].result;
        assert!(light.tracked_delivered > 0 && heavy.tracked_delivered > 0);
        assert!(
            heavy.network_latency.mean > light.network_latency.mean,
            "latency must grow with load: light {} heavy {}",
            light.network_latency.mean,
            heavy.network_latency.mean
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_sweep_load_panics() {
        let _ = sweep_load(&small_config(0.0, 0), &[1.5]);
    }

    #[test]
    fn module_failure_sweep_degrades_monotonically_in_connectivity() {
        let points = sweep_module_failures(&small_config(0.02, 11), &[0, 1, 4], 99);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].result.unreachable_pairs, 0);
        assert_eq!(points[0].result.dropped_total, 0);
        for pair in points.windows(2) {
            assert!(
                pair[1].result.unreachable_pairs > pair[0].result.unreachable_pairs,
                "more failed modules must sever more pairs"
            );
        }
        for p in &points {
            assert!(p.result.conservation_ok(), "conservation failed: {p:?}");
        }
        // Replays are deterministic in the fault seed.
        let again = sweep_module_failures(&small_config(0.02, 11), &[0, 1, 4], 99);
        assert_eq!(points, again);
    }

    #[test]
    fn trace_replay_injects_exactly_the_trace() {
        use icn_workloads::TrafficTrace;
        use rand::SeedableRng;
        let config = small_config(0.0, 1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let trace = TrafficTrace::synthesize(
            &Workload::uniform(0.01),
            config.plan.ports(),
            config.warmup_cycles + config.measure_cycles,
            &mut rng,
        );
        let result = run_trace(config, &trace);
        assert_eq!(result.injected_total, trace.len() as u64);
        assert_eq!(result.tracked_lost, 0);
        assert_eq!(result.delivered_total, trace.len() as u64);
    }

    /// The same trace replayed against different switch configurations sees
    /// identical arrivals — the whole point of trace-driven comparison.
    #[test]
    fn same_trace_different_switches_same_arrivals() {
        use icn_workloads::TrafficTrace;
        use rand::SeedableRng;
        let base = small_config(0.0, 1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let trace = TrafficTrace::synthesize(
            &Workload::uniform(0.02),
            base.plan.ports(),
            base.warmup_cycles + base.measure_cycles,
            &mut rng,
        );
        let mut deep = base.clone();
        deep.buffer_capacity = 8;
        let a = run_trace(base, &trace);
        let b = run_trace(deep, &trace);
        assert_eq!(a.injected_total, b.injected_total);
        assert_eq!(a.tracked_injected, b.tracked_injected);
        // Different switch, same packets: both deliver everything.
        assert_eq!(a.delivered_total, b.delivered_total);
    }
}
