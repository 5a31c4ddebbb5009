//! Fault-injection integration tests: graceful degradation, conservation,
//! retry accounting, and the watchdog — the robustness contract of the
//! simulator.
//!
//! A delta network has exactly one path per (source, destination) pair, so
//! the failure semantics are sharp: a *permanent* failure severs every
//! pair routed through it (packets drop, with accounting), a *transient*
//! failure only blocks (ordinary back-pressure, no loss), and retries are
//! the source's bounded persistence before declaring a destination dead —
//! in a unique-path network a retry of a permanently severed route can
//! never succeed, and the accounting must say so.

use icn_sim::{
    ChipModel, Engine, EngineOptions, FaultEvent, FaultPlan, FaultTarget, RetryPolicy, SimConfig,
    SimError,
};
use icn_topology::StagePlan;
use icn_workloads::Workload;

fn quiet(plan: StagePlan, width: u32) -> SimConfig {
    let mut c = SimConfig::paper_baseline(plan, ChipModel::Dmc, width, Workload::uniform(0.0));
    c.warmup_cycles = 0;
    c.measure_cycles = 1;
    c.drain_cycles = 500_000;
    c
}

fn loaded(load: f64, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2), // 16 ports
        ChipModel::Dmc,
        4,
        Workload::uniform(load),
    );
    c.seed = seed;
    c.warmup_cycles = 200;
    c.measure_cycles = 2_000;
    c.drain_cycles = 60_000;
    c
}

/// The zero-cost guarantee: an explicitly empty fault plan, with any
/// watchdog setting, produces byte-identical results to the default
/// configuration — the fault machinery must not perturb a healthy run.
#[test]
fn empty_fault_plan_is_byte_identical() {
    let base = loaded(0.05, 42);
    let baseline = icn_sim::run(base.clone());

    let mut explicit = base.clone();
    explicit.faults = FaultPlan::none();
    assert_eq!(icn_sim::run(explicit), baseline);

    let mut no_watchdog = base.clone();
    no_watchdog.watchdog_cycles = 0;
    assert_eq!(icn_sim::run(no_watchdog), baseline);

    let mut eager_retry = base;
    eager_retry.retry = RetryPolicy::retries(10);
    assert_eq!(icn_sim::run(eager_retry), baseline);

    assert_eq!(baseline.dropped_total, 0);
    assert_eq!(baseline.retries_total, 0);
    assert_eq!(baseline.unreachable_pairs, 0);
    assert!(baseline.stall.is_none());
    assert!(baseline.conservation_ok());
}

/// Zero-fault runs still reproduce the paper's §4 delay cycle-exactly
/// (the analytic anchor is untouched by the fault subsystem).
#[test]
fn zero_fault_run_keeps_the_analytic_anchor() {
    let plan = StagePlan::uniform(4, 3);
    let mut config = quiet(plan.clone(), 4);
    config.faults = FaultPlan::none();
    let expected = config.analytic_unloaded_cycles();
    let mut engine = Engine::new(config);
    engine.inject(3, 17);
    let result = engine.run();
    assert_eq!(result.network_latency.min, expected);
    assert_eq!(result.tracked_delivered, 1);
}

/// Identical fault seeds replay identically; a different fault seed gives
/// a different (but internally consistent) degradation.
#[test]
fn fault_replay_is_deterministic_in_the_seed() {
    let base = loaded(0.05, 7);
    let with_faults = |fault_seed: u64| {
        let mut c = base.clone();
        c.faults = FaultPlan::random_module_failures(&c.plan, 2, 300, fault_seed);
        c.retry = RetryPolicy::retries(1);
        icn_sim::run(c)
    };
    let a = with_faults(1);
    let b = with_faults(1);
    assert_eq!(a, b, "same fault seed must replay byte-identically");
    let c = with_faults(2);
    assert_ne!(a, c, "different fault seeds should degrade differently");
    assert!(a.conservation_ok());
    assert!(c.conservation_ok());
    assert!(a.dropped_total > 0);
}

/// The conservation invariant holds under a mix of every fault type at
/// once: permanent and transient, module, link, and source, with retries.
/// The engine must not panic, must drain, and every packet must be
/// delivered, finally dropped, or accounted as live.
#[test]
fn conservation_holds_under_mixed_faults() {
    // 0.02 is below this network's ~0.04 saturation load, so the drain
    // window can actually empty the tracked population.
    let mut config = loaded(0.02, 11);
    config.retry = RetryPolicy {
        max_retries: 2,
        backoff_base: 8,
        backoff_cap: 128,
    };
    config.faults = FaultPlan::new(vec![
        FaultEvent::permanent(
            FaultTarget::Module {
                stage: 1,
                module: 2,
            },
            100,
        ),
        FaultEvent::permanent(
            FaultTarget::Link {
                stage: 0,
                module: 1,
                out_port: 2,
            },
            500,
        ),
        FaultEvent::transient(
            FaultTarget::Module {
                stage: 0,
                module: 3,
            },
            200,
            300,
        ),
        FaultEvent::permanent(FaultTarget::SourcePort { port: 5 }, 400),
        FaultEvent::transient(FaultTarget::SourcePort { port: 6 }, 0, 1_000),
    ]);
    let result = icn_sim::run(config);
    assert!(
        result.conservation_ok(),
        "conservation violated: {result:?}"
    );
    assert!(
        result.dropped_total > 0,
        "permanent faults must drop traffic"
    );
    assert!(
        result.retries_total > 0,
        "severed packets should consume retries"
    );
    assert!(result.unreachable_pairs > 0);
    assert!(result.stall.is_none(), "progress never fully stops here");
    // Tracked accounting closes: delivered + dropped == injected once the
    // drain finishes (nothing tracked left live).
    assert_eq!(result.tracked_lost, 0, "{result:?}");
    assert_eq!(
        result.tracked_delivered + result.tracked_dropped,
        result.tracked_injected
    );
    // Stage-level drop counters fire per event (retried packets re-count),
    // so with retries enabled they can exceed the final-loss total.
    let stage_drops: u64 = result.stage_counters.iter().map(|c| c.dropped).sum();
    assert!(
        stage_drops > 0,
        "in-network drops must be attributed to stages"
    );
    let fault_blocked: u64 = result.stage_counters.iter().map(|c| c.blocked_fault).sum();
    assert!(
        fault_blocked > 0,
        "the transient module should have blocked heads"
    );
}

/// A packet whose unique path crosses a permanently dead module is dropped
/// with full accounting, and the unreachable-pair count matches the
/// topology's routing exactly.
#[test]
fn severed_path_drops_with_full_accounting() {
    let plan = StagePlan::uniform(4, 2);
    let mut config = quiet(plan, 4);
    // Last-stage module 2 exclusively serves destinations 8..12.
    config.faults = FaultPlan::new(vec![FaultEvent::permanent(
        FaultTarget::Module {
            stage: 1,
            module: 2,
        },
        0,
    )]);
    let mut engine = Engine::new(config);
    engine.collect_deliveries(true);
    engine.inject(0, 9); // severed
    engine.inject(1, 3); // unaffected
    for _ in 0..10_000 {
        engine.step();
        if engine.pending_tracked() == 0 {
            break;
        }
    }
    let drops = engine.take_drops();
    assert_eq!(drops.len(), 1);
    assert_eq!((drops[0].src, drops[0].dest), (0, 9));
    assert!(drops[0].tracked);
    assert_eq!(
        drops[0].attempts, 0,
        "default policy drops on first failure"
    );
    let result = engine.finish();
    assert_eq!(result.tracked_delivered, 1);
    assert_eq!(result.tracked_dropped, 1);
    assert_eq!(result.dropped_total, 1);
    assert!(result.conservation_ok());
    // 16 sources × 4 severed destinations.
    assert_eq!(result.unreachable_pairs, 64);
    assert_eq!(result.stage_counters[1].dropped, 1);
}

/// Retries are bounded: a source re-offers a severed packet exactly
/// `max_retries` times (with growing backoff), then the loss is final and
/// fully accounted.
#[test]
fn retries_are_bounded_then_accounted() {
    let plan = StagePlan::uniform(4, 2);
    let mut config = quiet(plan, 4);
    config.retry = RetryPolicy {
        max_retries: 3,
        backoff_base: 8,
        backoff_cap: 64,
    };
    // Kill the single link that serves destination 1.
    config.faults = FaultPlan::new(vec![FaultEvent::permanent(
        FaultTarget::Link {
            stage: 1,
            module: 0,
            out_port: 1,
        },
        0,
    )]);
    let mut engine = Engine::new(config);
    engine.collect_deliveries(true);
    engine.inject(0, 1);
    for _ in 0..10_000 {
        engine.step();
        if engine.pending_tracked() == 0 {
            break;
        }
    }
    let drops = engine.take_drops();
    assert_eq!(drops.len(), 1);
    assert_eq!(drops[0].attempts, 3, "all three retries consumed");
    let result = engine.finish();
    assert_eq!(result.retries_total, 3);
    assert_eq!(result.dropped_total, 1);
    assert_eq!(result.tracked_dropped, 1);
    assert!(result.conservation_ok());
    assert_eq!(
        result.unreachable_pairs, 16,
        "one destination lost for all sources"
    );
}

/// A transient fault blocks without loss: traffic waits it out under
/// back-pressure and everything is delivered after recovery.
#[test]
fn transient_fault_recovers_without_loss() {
    let plan = StagePlan::uniform(4, 2);
    let mut config = quiet(plan, 4);
    config.faults = FaultPlan::new(vec![FaultEvent::transient(
        FaultTarget::Module {
            stage: 0,
            module: 0,
        },
        0,
        500,
    )]);
    let unloaded = config.analytic_unloaded_cycles();
    let mut engine = Engine::new(config);
    engine.inject(0, 9); // routed through the down module
    let result = engine.run();
    assert_eq!(result.tracked_delivered, 1);
    assert_eq!(result.dropped_total, 0, "transient faults never drop");
    assert_eq!(result.unreachable_pairs, 0, "no connectivity is lost");
    assert!(
        result.network_latency.min >= 500,
        "the packet must have waited out the outage (got {})",
        result.network_latency.min
    );
    assert!(result.network_latency.min <= 500 + unloaded);
    assert!(result.stage_counters[0].blocked_fault > 0);
    assert!(result.conservation_ok());
}

/// The watchdog: live packets with no forward progress for the bound
/// terminate the run with a diagnostic stall report instead of spinning
/// through the full drain budget.
#[test]
fn watchdog_fires_on_a_wedged_network() {
    let plan = StagePlan::uniform(2, 2); // 4 ports
    let mut config = quiet(plan, 4);
    config.watchdog_cycles = 50;
    // Wedge the network: the packet's module is down for (effectively)
    // the whole run, but *transiently*, so the packet blocks forever
    // instead of dropping.
    config.faults = FaultPlan::new(vec![FaultEvent::transient(
        FaultTarget::Module {
            stage: 0,
            module: 0,
        },
        0,
        1_000_000,
    )]);
    let mut engine = Engine::new(config);
    engine.inject(0, 3);
    let result = engine.run();
    let stall = result.stall.as_ref().expect("watchdog must fire");
    assert!(
        result.cycles_run < 200,
        "terminated promptly, not after the 500k drain budget (ran {})",
        result.cycles_run
    );
    assert_eq!(stall.live_packets, 1);
    assert_eq!(stall.retry_waiting, 0);
    assert_eq!(stall.stage_occupancy.iter().sum::<u64>(), 1);
    assert!(stall.at_cycle - stall.last_progress_cycle >= 50);
    assert_eq!(result.live_at_end, 1);
    assert!(
        result.conservation_ok(),
        "conservation holds even in a stall"
    );
}

/// Packets sitting out a retry backoff are scheduled, not wedged: the
/// watchdog must not fire while the only live packets are backing off.
#[test]
fn watchdog_ignores_retry_backoff() {
    let plan = StagePlan::uniform(4, 2);
    let mut config = quiet(plan, 4);
    config.watchdog_cycles = 20;
    // Long backoffs: the packet spends most of its life waiting to retry.
    config.retry = RetryPolicy {
        max_retries: 3,
        backoff_base: 200,
        backoff_cap: 400,
    };
    config.faults = FaultPlan::new(vec![FaultEvent::permanent(
        FaultTarget::Link {
            stage: 1,
            module: 0,
            out_port: 1,
        },
        0,
    )]);
    let mut engine = Engine::new(config);
    engine.inject(0, 1);
    let result = engine.run();
    assert!(
        result.stall.is_none(),
        "backoff is not a stall: {:?}",
        result.stall
    );
    assert_eq!(result.retries_total, 3);
    assert_eq!(result.dropped_total, 1);
    assert!(result.conservation_ok());
}

/// A permanently dead source loses its queue (there is nothing to retry
/// from), and the engine keeps running for everyone else.
#[test]
fn dead_source_drains_its_queue() {
    let plan = StagePlan::uniform(4, 2);
    let mut config = quiet(plan, 4);
    config.retry = RetryPolicy::retries(5); // must NOT apply to a dead source
    config.faults = FaultPlan::new(vec![FaultEvent::permanent(
        FaultTarget::SourcePort { port: 2 },
        10,
    )]);
    let mut engine = Engine::new(config);
    // Queue several packets behind source 2 (only one streams before the
    // failure at cycle 10), and one packet elsewhere.
    for _ in 0..3 {
        engine.inject(2, 7);
    }
    engine.inject(4, 8);
    let result = engine.run();
    assert!(result.conservation_ok());
    assert_eq!(result.retries_total, 0, "dead sources never retry");
    assert!(result.dropped_total >= 2, "the dead source's queue is lost");
    assert!(
        result.tracked_delivered >= 1,
        "other sources are unaffected"
    );
    assert_eq!(result.tracked_lost, 0);
    // 16 destinations unreachable from the dead source.
    assert_eq!(result.unreachable_pairs, 16);
}

/// The panic-free API surface: invalid configurations and fault plans are
/// typed errors from `try_with_options`, and `try_inject` validates *both*
/// ports.
#[test]
fn typed_errors_instead_of_panics() {
    let mut config = loaded(0.0, 0);
    config.faults = FaultPlan::new(vec![FaultEvent::permanent(
        FaultTarget::Module {
            stage: 7,
            module: 0,
        },
        0,
    )]);
    match Engine::try_with_options(config, EngineOptions::default()) {
        Err(SimError::InvalidFault(msg)) => assert!(msg.contains("stage 7"), "{msg}"),
        other => panic!("expected InvalidFault, got {other:?}"),
    }

    let mut bad = loaded(0.0, 0);
    bad.width = 0;
    assert!(matches!(
        Engine::try_with_options(bad, EngineOptions::default()),
        Err(SimError::InvalidConfig(_))
    ));

    let mut engine = Engine::new(loaded(0.0, 0));
    assert!(matches!(
        engine.try_inject(99, 0, true),
        Err(SimError::PortOutOfRange {
            role: "source",
            port: 99,
            ports: 16
        })
    ));
    assert!(matches!(
        engine.try_inject(0, 99, true),
        Err(SimError::PortOutOfRange {
            role: "destination",
            port: 99,
            ports: 16
        })
    ));
    // A rejected injection must leave no accounting residue.
    let result = engine.run();
    assert_eq!(result.injected_total, 0);
    assert!(result.conservation_ok());
}

/// `inject_tracked`'s documented panic fires for an out-of-range
/// *destination* too, not just the source.
#[test]
#[should_panic(expected = "destination port 99 out of range")]
fn inject_panics_on_out_of_range_destination() {
    let mut engine = Engine::new(loaded(0.0, 0));
    let _ = engine.inject_tracked(0, 99, true);
}
