//! The fixed-seed configuration matrix behind the byte-identical parity
//! suite (`tests/parity.rs`) and its fixture generator
//! (`examples/gen_parity.rs`).
//!
//! Each case renders to a canonical pair of strings — the pretty-printed
//! `SimResult` JSON and (for small cases) the full event stream as one
//! JSON line per `SimEvent` — that are checked in under
//! `tests/fixtures/parity/`. The fixtures were captured from the
//! pre-optimization engine, so an exact match proves the optimized hot
//! path changed no observable behaviour: not a counter, not a float, not
//! an event, not an event's order.
//!
//! The matrix deliberately crosses the engine's behavioural switches:
//! chip model, width, cut-through vs store-and-forward, arbitration,
//! buffer depth, faults (permanent + transient, with retries), telemetry
//! sampling, packet tracing, hot-spot traffic, mixed radices, a stage
//! wider than 64 ports, a watchdog stall, and one paper-scale 2048-port
//! run (result only — its event stream would dwarf the repository).

use icn_sim::telemetry::MemorySink;
use icn_sim::{
    Arbitration, ChipModel, Engine, FaultEvent, FaultPlan, FaultTarget, RetryPolicy, SimConfig,
    TelemetryConfig,
};
use icn_topology::StagePlan;
use icn_workloads::Workload;

/// One parity configuration.
pub struct ParityCase {
    /// Fixture file stem.
    pub name: &'static str,
    /// Whether the event stream is part of the fixture (small cases only).
    pub record_events: bool,
    /// The configuration itself (fully deterministic given its seed).
    pub config: SimConfig,
}

/// The full parity matrix.
#[must_use]
pub fn cases() -> Vec<ParityCase> {
    let mut cases = Vec::new();

    // Baseline: cut-through DMC under uniform load.
    let mut clean = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2),
        ChipModel::Dmc,
        4,
        Workload::uniform(0.04),
    );
    clean.seed = 42;
    clean.warmup_cycles = 100;
    clean.measure_cycles = 400;
    clean.drain_cycles = 20_000;
    cases.push(ParityCase {
        name: "clean_dmc_w4",
        record_events: true,
        config: clean,
    });

    // Store-and-forward MCC with deep buffers and fixed-priority
    // arbitration: the non-default value of every switch knob.
    let mut sf = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2),
        ChipModel::Mcc,
        2,
        Workload::uniform(0.012),
    );
    sf.seed = 7;
    sf.cut_through = false;
    sf.arbitration = Arbitration::FixedPriority;
    sf.buffer_capacity = 4;
    sf.warmup_cycles = 50;
    sf.measure_cycles = 400;
    sf.drain_cycles = 20_000;
    cases.push(ParityCase {
        name: "sf_fixedprio_mcc_w2",
        record_events: true,
        config: sf,
    });

    // Faults with retries: permanent module + link failures mid-run, a
    // transient module outage, a dead source port, and packet tracing on.
    let plan = StagePlan::uniform(4, 2);
    let mut faulty =
        SimConfig::paper_baseline(plan.clone(), ChipModel::Dmc, 4, Workload::uniform(0.02));
    faulty.seed = 11;
    faulty.faults = FaultPlan::random_module_failures(&plan, 1, 150, 9)
        .merged(FaultPlan::random_link_failures(&plan, 2, 250, 9))
        .merged(FaultPlan::new(vec![
            FaultEvent::transient(
                FaultTarget::Module {
                    stage: 0,
                    module: 2,
                },
                80,
                120,
            ),
            FaultEvent::permanent(FaultTarget::SourcePort { port: 3 }, 200),
        ]));
    faulty.retry = RetryPolicy::retries(2);
    faulty.warmup_cycles = 100;
    faulty.measure_cycles = 300;
    faulty.drain_cycles = 10_000;
    cases.push(ParityCase {
        name: "faulty_retry",
        record_events: true,
        config: faulty,
    });

    // Telemetry sampling under hot-spot traffic: the report (time series,
    // histograms, stage waits) rides inside the SimResult fixture.
    let mut telem = SimConfig::paper_baseline(
        StagePlan::uniform(4, 3),
        ChipModel::Dmc,
        4,
        Workload::hot_spot(0.005, 0.1, 5),
    );
    telem.seed = 13;
    telem.telemetry = TelemetryConfig::sampled(25);
    telem.warmup_cycles = 100;
    telem.measure_cycles = 500;
    telem.drain_cycles = 20_000;
    cases.push(ParityCase {
        name: "telemetry_hotspot",
        record_events: true,
        config: telem,
    });

    // Mixed radices with a long transient outage the watchdog gives up on:
    // covers the stall path and non-uniform stage geometry.
    let mut stall = SimConfig::paper_baseline(
        StagePlan::from_radices(vec![4, 2, 2]),
        ChipModel::Mcc,
        4,
        Workload::uniform(0.02),
    );
    stall.seed = 3;
    stall.faults = FaultPlan::new(vec![FaultEvent::transient(
        FaultTarget::Module {
            stage: 2,
            module: 0,
        },
        10,
        50_000,
    )]);
    stall.watchdog_cycles = 300;
    stall.warmup_cycles = 50;
    stall.measure_cycles = 300;
    stall.drain_cycles = 2_000;
    cases.push(ParityCase {
        name: "mixed_radix_stall",
        record_events: true,
        config: stall,
    });

    // Contention above the knee with faults landing on blocked heads:
    // transient stage-1 module and stage-0 link outages strike while
    // heads wait on busy outputs and full downstream buffers, one link
    // dies for good, and samples every 5 cycles pin the blocked
    // counters mid-wait rather than only at the end.
    let plan = StagePlan::uniform(16, 2);
    let mut contended = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(0.03));
    contended.seed = 21;
    let mut outages = Vec::new();
    for (i, module) in [3u32, 9, 14, 6].into_iter().enumerate() {
        let at = 60 + 23 * i as u64;
        outages.push(FaultEvent::transient(
            FaultTarget::Module { stage: 1, module },
            at,
            12 + 8 * i as u64,
        ));
    }
    for (i, (module, out_port)) in [(2u32, 5u32), (11, 0), (7, 12), (0, 9), (13, 3)]
        .into_iter()
        .enumerate()
    {
        let at = 52 + 19 * i as u64;
        outages.push(FaultEvent::transient(
            FaultTarget::Link {
                stage: 0,
                module,
                out_port,
            },
            at,
            10 + 6 * i as u64,
        ));
    }
    outages.push(FaultEvent::permanent(
        FaultTarget::Link {
            stage: 0,
            module: 5,
            out_port: 7,
        },
        100,
    ));
    contended.faults = FaultPlan::new(outages);
    contended.retry = RetryPolicy::retries(1);
    contended.telemetry = TelemetryConfig::sampled(5);
    contended.warmup_cycles = 40;
    contended.measure_cycles = 80;
    contended.drain_cycles = 150;
    cases.push(ParityCase {
        name: "transient_contended",
        record_events: true,
        config: contended,
    });

    // A stage wider than 64 ports: two radix-128 modules feed radix-2
    // ones, so a module's inputs and outputs span more than one 64-bit
    // word. Round robin under contention, three-deep buffers (a drain
    // exposes the next head, which may want any output), a transient
    // module outage and transient and permanent link faults on high
    // output ports of the wide stage.
    let plan = StagePlan::from_radices(vec![128, 2]);
    let mut wide = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(0.03));
    wide.seed = 31;
    wide.buffer_capacity = 3;
    wide.faults = FaultPlan::new(vec![
        FaultEvent::transient(
            FaultTarget::Link {
                stage: 0,
                module: 0,
                out_port: 90,
            },
            30,
            40,
        ),
        FaultEvent::permanent(
            FaultTarget::Link {
                stage: 0,
                module: 1,
                out_port: 77,
            },
            45,
        ),
        FaultEvent::permanent(
            FaultTarget::Link {
                stage: 0,
                module: 0,
                out_port: 3,
            },
            60,
        ),
        FaultEvent::transient(
            FaultTarget::Module {
                stage: 0,
                module: 1,
            },
            70,
            15,
        ),
    ]);
    wide.retry = RetryPolicy::retries(1);
    wide.telemetry = TelemetryConfig::sampled(10);
    wide.warmup_cycles = 20;
    wide.measure_cycles = 50;
    wide.drain_cycles = 200;
    cases.push(ParityCase {
        name: "wide_radix128_rr",
        record_events: true,
        config: wide,
    });

    // Fault drops that wake parked heads: a hot spot (port 33) backs
    // packets up along its tree until its stage-1 link (module 2, output
    // 0) and then its last-stage module (stage 2, module 8) die for good.
    // Each activation drains full ports whose upstream heads are parked
    // on them as full downstream buffers. A counting build of the engine
    // this case was captured from saw 262 fault drops free a full port at
    // stage 1 or 2; 6 of those frees found heads parked upstream (4 at
    // stage 1, 2 at stage 2), 17 heads in all.
    let plan = StagePlan::uniform(4, 3);
    let mut drop_wakes =
        SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::hot_spot(0.03, 0.5, 33));
    drop_wakes.seed = 5;
    drop_wakes.faults = FaultPlan::new(vec![
        FaultEvent::permanent(
            FaultTarget::Link {
                stage: 1,
                module: 2,
                out_port: 0,
            },
            80,
        ),
        FaultEvent::permanent(
            FaultTarget::Module {
                stage: 2,
                module: 8,
            },
            130,
        ),
    ]);
    drop_wakes.retry = RetryPolicy::retries(1);
    drop_wakes.telemetry = TelemetryConfig::sampled(10);
    drop_wakes.warmup_cycles = 30;
    drop_wakes.measure_cycles = 120;
    drop_wakes.drain_cycles = 1_000;
    cases.push(ParityCase {
        name: "drop_wakes_parked",
        record_events: true,
        config: drop_wakes,
    });

    // Paper scale: the §6 2048-port DMC network, short run, result only.
    let mut big = SimConfig::paper_baseline(
        StagePlan::balanced_pow2(2048, 16).expect("power of two"),
        ChipModel::Dmc,
        4,
        Workload::uniform(0.02),
    );
    big.seed = 0x1986;
    big.warmup_cycles = 0;
    big.measure_cycles = 150;
    big.drain_cycles = 3_000;
    cases.push(ParityCase {
        name: "big_dmc2048",
        record_events: false,
        config: big,
    });

    cases
}

/// Run one case and render its canonical fixture strings: the
/// pretty-printed `SimResult` JSON and, if `record_events`, the event
/// stream as one JSON line per event (in emission order).
#[must_use]
pub fn render(case: &ParityCase) -> (String, Option<String>) {
    let mut engine = Engine::new(case.config.clone());
    let sink = MemorySink::new();
    if case.record_events {
        engine.set_event_sink(sink.clone());
    }
    let result = engine.run();
    let result_json = serde_json::to_string_pretty(&result).expect("results serialize") + "\n";
    let events = case.record_events.then(|| {
        let mut out = String::new();
        for event in sink.events() {
            out.push_str(&serde_json::to_string(&event).expect("events serialize"));
            out.push('\n');
        }
        out
    });
    (result_json, events)
}
