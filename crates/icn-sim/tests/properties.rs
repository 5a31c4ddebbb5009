//! Property-based tests for the simulation engine.

use icn_sim::{
    Arbitration, ChipModel, Engine, FaultPlan, RetryPolicy, SimConfig, SimResult, TelemetryConfig,
    TraceBuilder,
};
use icn_topology::StagePlan;
use icn_workloads::{TrafficTrace, Workload};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arbitrary_plan() -> impl Strategy<Value = StagePlan> {
    prop_oneof![
        Just(StagePlan::uniform(2, 3)),
        Just(StagePlan::uniform(4, 2)),
        Just(StagePlan::uniform(8, 2)),
        Just(StagePlan::from_radices(vec![4, 2, 4])),
        Just(StagePlan::from_radices(vec![16, 4])),
        // A stage wider than one 64-bit word, not a multiple of 64: the
        // grant sweep's port sets span a partial second word.
        Just(StagePlan::from_radices(vec![96, 2])),
    ]
}

fn arbitrary_chip() -> impl Strategy<Value = ChipModel> {
    prop_oneof![Just(ChipModel::Mcc), Just(ChipModel::Dmc)]
}

/// Replay a recorded trace through `config`'s network, so the same
/// arrivals can be compared across switch designs: the trace drives
/// injection (the workload's own load is zeroed). The run ends at the
/// schedule's last cycle, when the watchdog stalls the engine, or once
/// the trace is spent and the measurement window has closed with no
/// tracked packet pending. (`Engine::done` cannot end it: its "drained
/// with no workload" rule holds before the first injection.)
fn replay(mut config: SimConfig, trace: &TrafficTrace) -> SimResult {
    assert_eq!(
        trace.ports(),
        config.plan.ports(),
        "trace for another network"
    );
    config.workload.load = 0.0;
    let measure_end = config.warmup_cycles + config.measure_cycles;
    let hard_end = measure_end + config.drain_cycles;
    let mut engine = Engine::new(config);
    let entries = trace.entries();
    let mut next = 0;
    while engine.now() < hard_end && engine.stall().is_none() {
        while next < entries.len() && entries[next].cycle == engine.now() {
            engine.inject(entries[next].src, entries[next].dest);
            next += 1;
        }
        if next == entries.len() && engine.now() >= measure_end && engine.pending_tracked() == 0 {
            break;
        }
        engine.step();
    }
    engine.finish()
}

/// A 16-port network of 4×4 DMC chips with room to drain a replay.
fn replay_config() -> SimConfig {
    let mut c = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2),
        ChipModel::Dmc,
        4,
        Workload::uniform(0.0),
    );
    c.seed = 1;
    c.warmup_cycles = 200;
    c.measure_cycles = 2_000;
    c.drain_cycles = 30_000;
    c
}

fn replay_trace(config: &SimConfig, load: f64, seed: u64) -> TrafficTrace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    TrafficTrace::synthesize(
        &Workload::uniform(load),
        config.plan.ports(),
        config.warmup_cycles + config.measure_cycles,
        &mut rng,
    )
}

#[test]
fn trace_replay_injects_exactly_the_trace() {
    let config = replay_config();
    let trace = replay_trace(&config, 0.01, 77);
    let result = replay(config, &trace);
    assert_eq!(result.injected_total, trace.len() as u64);
    assert_eq!(result.tracked_lost, 0);
    assert_eq!(result.delivered_total, trace.len() as u64);
}

/// The same trace replayed against different switch configurations sees
/// identical arrivals — the whole point of trace-driven comparison.
#[test]
fn same_trace_different_switches_same_arrivals() {
    let base = replay_config();
    let trace = replay_trace(&base, 0.02, 5);
    let mut deep = base.clone();
    deep.buffer_capacity = 8;
    let a = replay(base, &trace);
    let b = replay(deep, &trace);
    assert_eq!(a.injected_total, b.injected_total);
    assert_eq!(a.tracked_injected, b.tracked_injected);
    // Different switch, same packets: both deliver everything.
    assert_eq!(a.delivered_total, b.delivered_total);
}

/// A replay stops when the watchdog fires: with the only chip of a
/// one-stage network down for longer than the whole run, the packet can
/// never leave, and the run ends right after the stall instead of
/// stepping out its 500,000-cycle drain.
#[test]
fn trace_replay_stops_on_a_stall() {
    use icn_sim::{FaultEvent, FaultTarget};
    use icn_workloads::TraceEntry;
    let mut config = SimConfig::paper_baseline(
        StagePlan::uniform(4, 1),
        ChipModel::Dmc,
        4,
        Workload::uniform(0.0),
    );
    config.warmup_cycles = 0;
    config.measure_cycles = 10;
    config.drain_cycles = 500_000;
    config.watchdog_cycles = 50;
    config.faults = FaultPlan::new(vec![FaultEvent::transient(
        FaultTarget::Module {
            stage: 0,
            module: 0,
        },
        0,
        1_000_000,
    )]);
    let trace = TrafficTrace::new(
        4,
        vec![TraceEntry {
            cycle: 0,
            src: 0,
            dest: 3,
        }],
    );
    let result = replay(config, &trace);
    assert!(result.stall.is_some(), "{result:?}");
    assert!(result.cycles_run < 100, "ran {} cycles", result.cycles_run);
}

/// Assemble a valid [`SimConfig`] from independently drawn knobs,
/// spanning every feature the engine's hot path special-cases: buffer
/// depths, both chip models and arbitration policies, cut-through vs
/// store-and-forward, packet tracing, deterministic fault plans with
/// retry + watchdog, and sampled telemetry.
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per independently drawn knob, so each proptest strategy maps to one argument"
)]
fn assemble_config(
    plan: &StagePlan,
    chip: ChipModel,
    width: u32,
    buffers: u32,
    cut_through: bool,
    fixed_priority: bool,
    load: f64,
    seed: u64,
    fail_modules: u32,
    fail_links: u32,
    fault_seed: u64,
    telemetry: bool,
) -> SimConfig {
    let mut config = SimConfig::paper_baseline(plan.clone(), chip, width, Workload::uniform(load));
    config.seed = seed;
    config.buffer_capacity = buffers;
    config.cut_through = cut_through;
    config.arbitration = if fixed_priority {
        Arbitration::FixedPriority
    } else {
        Arbitration::RoundRobin
    };
    config.warmup_cycles = 50;
    config.measure_cycles = 300;
    config.drain_cycles = 2_000;
    if fail_modules > 0 || fail_links > 0 {
        config.faults =
            FaultPlan::random_module_failures(plan, fail_modules, 100, fault_seed).merged(
                FaultPlan::random_link_failures(plan, fail_links, 150, fault_seed ^ 1),
            );
        config.retry = RetryPolicy::retries(2);
        config.watchdog_cycles = 5_000;
    }
    if telemetry {
        config.telemetry = TelemetryConfig::sampled(25);
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mesh chip: single-packet transits always match the path-geometry
    /// formula, for random sizes and coordinates.
    #[test]
    fn mesh_single_transit_matches_formula(
        n in 2u32..24,
        row_frac in 0.0f64..1.0,
        col_frac in 0.0f64..1.0,
        flits in 1u64..40,
    ) {
        use icn_sim::mesh::{path_crosspoints, simulate_mesh, MeshPacket};
        let row = ((row_frac * f64::from(n)) as u32).min(n - 1);
        let col = ((col_frac * f64::from(n)) as u32).min(n - 1);
        let t = simulate_mesh(n, &[MeshPacket { row, col, arrival: 0, flits }]);
        prop_assert_eq!(t[0].head_latency(), u64::from(path_crosspoints(n, row, col)));
        prop_assert_eq!(t[0].tail_out - t[0].head_out, flits - 1);
    }

    /// Mesh chip: batches with distinct rows and distinct columns are
    /// conflict-free (disjoint east runs and south runs), so every transit
    /// is unblocked.
    #[test]
    fn mesh_distinct_rows_and_columns_do_not_block(
        n in 2u32..16,
        shift in 0u32..16,
        flits in 1u64..20,
    ) {
        use icn_sim::mesh::{path_crosspoints, simulate_mesh, MeshPacket};
        let shift = shift % n;
        let packets: Vec<MeshPacket> = (0..n)
            .map(|r| MeshPacket { row: r, col: (r + shift) % n, arrival: 0, flits })
            .collect();
        for t in simulate_mesh(n, &packets) {
            prop_assert_eq!(
                t.head_latency(),
                u64::from(path_crosspoints(n, t.row, t.col)),
                "({}, {}) blocked in an n={} mesh with shift {}",
                t.row,
                t.col,
                n,
                shift
            );
        }
    }

    /// Conservation: every packet of every random trace is delivered
    /// exactly once, for any buffer depth, chip model, arbitration and
    /// cut-through setting.
    #[test]
    fn conservation_under_random_configs(
        plan in arbitrary_plan(),
        chip in arbitrary_chip(),
        width in prop_oneof![Just(1u32), Just(4)],
        buffers in 1u32..5,
        cut_through in any::<bool>(),
        fixed_priority in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut config = SimConfig::paper_baseline(
            plan.clone(), chip, width, Workload::uniform(0.0));
        config.buffer_capacity = buffers;
        config.cut_through = cut_through;
        config.arbitration = if fixed_priority {
            Arbitration::FixedPriority
        } else {
            Arbitration::RoundRobin
        };
        config.warmup_cycles = 0;
        config.measure_cycles = 300;
        config.drain_cycles = 400_000;

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = TrafficTrace::synthesize(
            &Workload::uniform(0.01), plan.ports(), 300, &mut rng);
        let result = replay(config, &trace);
        prop_assert_eq!(result.injected_total, trace.len() as u64);
        prop_assert_eq!(result.delivered_total, trace.len() as u64);
        prop_assert_eq!(result.tracked_lost, 0);
    }

    /// The analytic unloaded delay is a hard floor on every delivery.
    #[test]
    fn latency_floor_holds(
        plan in arbitrary_plan(),
        chip in arbitrary_chip(),
        seed in any::<u64>(),
    ) {
        let mut config = SimConfig::paper_baseline(
            plan.clone(), chip, 4, Workload::uniform(0.01));
        config.seed = seed;
        config.warmup_cycles = 100;
        config.measure_cycles = 800;
        config.drain_cycles = 200_000;
        let floor = config.analytic_unloaded_cycles();
        let result = icn_sim::run(config);
        if result.tracked_delivered > 0 {
            prop_assert!(result.network_latency.min >= floor);
        }
    }

    /// Stage grant counts are consistent: every delivered packet was
    /// granted exactly once per stage, so grants per stage ≥ deliveries.
    #[test]
    fn grants_cover_deliveries(seed in any::<u64>()) {
        let plan = StagePlan::uniform(4, 2);
        let mut config = SimConfig::paper_baseline(
            plan, ChipModel::Dmc, 4, Workload::uniform(0.02));
        config.seed = seed;
        config.warmup_cycles = 0;
        config.measure_cycles = 1_000;
        config.drain_cycles = 100_000;
        let result = icn_sim::run(config);
        for (i, counters) in result.stage_counters.iter().enumerate() {
            prop_assert!(
                counters.grants >= result.delivered_total,
                "stage {i}: {} grants < {} deliveries",
                counters.grants,
                result.delivered_total
            );
        }
    }

    /// Determinism, PR-3 contract: for ANY valid configuration — across
    /// chip models, arbitration, buffering, cut-through, faults with
    /// retries, and sampled telemetry — rerunning with the same seed
    /// yields an identical `SimResult`, down to the telemetry report.
    #[test]
    fn any_valid_config_replays_identically_from_its_seed(
        plan in arbitrary_plan(),
        chip in arbitrary_chip(),
        width in prop_oneof![Just(1u32), Just(4)],
        buffers in 1u32..4,
        cut_through in any::<bool>(),
        fixed_priority in any::<bool>(),
        load in 0.0f64..0.03,
        seed in any::<u64>(),
        fail_modules in 0u32..3,
        fail_links in 0u32..3,
        fault_seed in any::<u64>(),
        telemetry in any::<bool>(),
    ) {
        let config = assemble_config(
            &plan, chip, width, buffers, cut_through, fixed_priority, load,
            seed, fail_modules, fail_links, fault_seed, telemetry,
        );
        let a = Engine::new(config.clone()).run();
        let b = Engine::new(config).run();
        prop_assert_eq!(a, b);
    }

    /// Conservation, sampled at EVERY cycle boundary (not just at the
    /// end): `injected == delivered + dropped + live` holds mid-flight
    /// for arbitrary valid configurations, including under active faults.
    #[test]
    fn conservation_closes_at_every_cycle(
        plan in arbitrary_plan(),
        chip in arbitrary_chip(),
        buffers in 1u32..4,
        cut_through in any::<bool>(),
        load in 0.0f64..0.05,
        seed in any::<u64>(),
        fail_modules in 0u32..3,
        fault_seed in any::<u64>(),
    ) {
        let config = assemble_config(
            &plan, chip, 4, buffers, cut_through, false, load, seed,
            fail_modules, 0, fault_seed, false,
        );
        let mut engine = Engine::new(config);
        for cycle in 0..600u64 {
            engine.step();
            prop_assert_eq!(
                engine.injected_total(),
                engine.delivered_total() + engine.dropped_total() + engine.live_packets(),
                "conservation violated after cycle {}",
                cycle
            );
        }
    }

    /// Traces survive the engine unchanged: every tracked packet's
    /// recorded hops form a strictly time-ordered chain ending in delivery.
    #[test]
    fn traces_are_well_formed(seed in any::<u64>()) {
        let plan = StagePlan::uniform(4, 3);
        let mut config = SimConfig::paper_baseline(
            plan, ChipModel::Mcc, 4, Workload::uniform(0.01));
        config.seed = seed;
        config.warmup_cycles = 0;
        config.measure_cycles = 500;
        config.drain_cycles = 200_000;
        let builder = TraceBuilder::new();
        let mut engine = Engine::new(config);
        engine.set_event_sink(builder.clone());
        for _ in 0..300_000 {
            engine.step();
            if engine.now() >= 500 && engine.pending_tracked() == 0 {
                break;
            }
        }
        // Tracked packets are the ones injected inside the measurement
        // window; they have all drained, later ones may still be in flight.
        for trace in builder.traces().into_iter().filter(|t| t.injected_at < 500) {
            prop_assert!(trace.complete(), "{trace}");
            prop_assert_eq!(trace.hops.len(), 3);
            let mut prev_out = trace.entered_at.unwrap();
            for hop in &trace.hops {
                prop_assert!(hop.granted_at >= prev_out, "{trace}");
                prop_assert!(hop.head_out_at > hop.granted_at);
                prev_out = hop.head_out_at;
            }
            prop_assert!(trace.delivered_at.unwrap() > prev_out);
        }
    }
}
