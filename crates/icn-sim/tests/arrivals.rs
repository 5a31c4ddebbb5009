//! The engine injects through the one arrival generator,
//! [`icn_workloads::Arrivals`]: its `SimEvent::Inject` stream is exactly
//! what [`TrafficTrace::synthesize`] records for the same seed, and the
//! generator's edges hold inside the engine.

use icn_sim::{ChipModel, Engine, MemorySink, SimConfig, SimEvent};
use icn_topology::StagePlan;
use icn_workloads::{TrafficTrace, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn config(workload: Workload, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_baseline(StagePlan::uniform(4, 2), ChipModel::Dmc, 4, workload);
    c.seed = seed;
    c
}

/// Step a fresh engine `cycles` times, calling `mid_run` halfway, and
/// return its injections as (cycle, src, dest).
fn injections(
    config: SimConfig,
    cycles: u64,
    mid_run: impl FnOnce(&mut Engine),
) -> Vec<(u64, u32, u32)> {
    let sink = MemorySink::new();
    let mut engine = Engine::new(config);
    engine.set_event_sink(sink.clone());
    for _ in 0..cycles / 2 {
        engine.step();
    }
    mid_run(&mut engine);
    for _ in cycles / 2..cycles {
        engine.step();
    }
    sink.events()
        .into_iter()
        .filter_map(|e| match e {
            SimEvent::Inject {
                cycle, src, dest, ..
            } => Some((cycle, src, dest)),
            _ => None,
        })
        .collect()
}

#[test]
fn engine_injections_are_the_synthesized_trace() {
    for (seed, workload) in [
        (1, Workload::uniform(0.02)),
        (2, Workload::hot_spot(0.03, 0.1, 5)),
    ] {
        let cycles = 3_000;
        let trace =
            TrafficTrace::synthesize(&workload, 16, cycles, &mut ChaCha12Rng::seed_from_u64(seed));
        let want: Vec<_> = trace
            .entries()
            .iter()
            .map(|e| (e.cycle, e.src, e.dest))
            .collect();
        assert!(!want.is_empty());
        assert_eq!(injections(config(workload, seed), cycles, |_| {}), want);
    }
}

#[test]
fn full_load_injects_at_every_port_every_cycle() {
    let got = injections(config(Workload::uniform(1.0), 7), 20, |_| {});
    let want: Vec<_> = (0..20u64)
        .flat_map(|cycle| (0..16u32).map(move |src| (cycle, src)))
        .collect();
    let sources: Vec<_> = got.iter().map(|&(cycle, src, _)| (cycle, src)).collect();
    assert_eq!(sources, want);
}

#[test]
fn stop_injection_mid_run_injects_nothing_afterwards() {
    let got = injections(config(Workload::uniform(0.05), 8), 2_000, |engine| {
        engine.stop_injection();
    });
    assert!(!got.is_empty());
    assert!(got.iter().all(|&(cycle, _, _)| cycle < 1_000), "{got:?}");
}
