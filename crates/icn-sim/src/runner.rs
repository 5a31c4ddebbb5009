//! Batch execution: single runs, parallel fan-out, and load sweeps.

use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::fault::FaultPlan;
use crate::metrics::SimResult;
use crate::options::EngineOptions;
use crate::pool::ordered_map;

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
/// [`Engine::try_with_options`] when the configuration or fault plan is
/// invalid.
pub fn try_run(config: SimConfig) -> Result<SimResult, crate::error::SimError> {
    Ok(Engine::try_with_options(config, EngineOptions::default())?.run())
}

/// Run many configurations concurrently, one thread per configuration up
/// to the machine's parallelism, preserving input order in the output.
///
/// Simulations are embarrassingly parallel (each engine owns its state and
/// RNG), so [`ordered_map`] over the batch suffices — no shared mutable
/// simulation state exists by construction.
#[must_use]
pub fn run_parallel(configs: Vec<SimConfig>) -> Vec<SimResult> {
    ordered_map(configs.len(), 0, |i| run(configs[i].clone()))
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
/// Panics with [`icn_workloads::validate_load`]'s message if any load is
/// outside `[0, 1]`.
#[must_use]
#[expect(
    clippy::panic,
    reason = "documented panicking wrapper over icn_workloads::validate_load's message"
)]
pub fn sweep_load(base: &SimConfig, loads: &[f64]) -> Vec<LoadSweepPoint> {
    let configs: Vec<SimConfig> = loads
        .iter()
        .map(|&load| {
            if let Err(message) = icn_workloads::validate_load(load) {
                panic!("{message}");
            }
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
    #[should_panic(expected = "load must be in [0,1]")]
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
}
