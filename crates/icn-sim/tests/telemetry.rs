//! Integration tests for the telemetry subsystem: determinism, the
//! telemetry-off parity guarantee, event-stream reconciliation, and the
//! histogram error bound on a million-sample property run.

use icn_sim::{
    ChipModel, Engine, FaultEvent, FaultPlan, FaultTarget, Histogram, MemorySink, RetryPolicy,
    SimConfig, SimEvent, TelemetryConfig, TraceBuilder,
};
use icn_topology::StagePlan;
use icn_workloads::Workload;

fn loaded_config(load: f64, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2), // 16 ports
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

fn faulty_config(seed: u64) -> SimConfig {
    let mut c = loaded_config(0.02, seed);
    c.faults = FaultPlan::new(vec![
        FaultEvent::permanent(
            FaultTarget::Module {
                stage: 1,
                module: 2,
            },
            500,
        ),
        FaultEvent::transient(
            FaultTarget::Module {
                stage: 0,
                module: 1,
            },
            800,
            300,
        ),
    ]);
    c.retry = RetryPolicy::retries(2);
    c
}

/// Same seed + same sample interval ⇒ identical time series, histograms,
/// and event stream across independent runs.
#[test]
fn telemetry_is_deterministic_across_runs() {
    let run_once = |seed: u64| {
        let mut config = faulty_config(seed);
        config.telemetry = TelemetryConfig::sampled(50);
        let sink = MemorySink::new();
        let mut engine = Engine::new(config);
        engine.set_event_sink(sink.clone());
        (engine.run(), sink.events())
    };
    let (a, a_events) = run_once(11);
    let (b, b_events) = run_once(11);
    assert_eq!(a, b, "same seed must reproduce the full result");
    let a_telem = a.telemetry.expect("telemetry enabled");
    let b_telem = b.telemetry.expect("telemetry enabled");
    assert_eq!(a_telem.time_series, b_telem.time_series);
    assert_eq!(a_telem.total_latency, b_telem.total_latency);
    assert_eq!(a_telem.stage_waits, b_telem.stage_waits);
    assert_eq!(a_events, b_events, "event streams must replay identically");
    assert!(!a_events.is_empty());
    assert!(!a_telem.time_series.samples.is_empty());

    let (c, _) = run_once(12);
    assert_ne!(
        a.injected_total, c.injected_total,
        "different seeds should differ"
    );
}

/// The zero-cost guarantee: telemetry off ⇒ the result equals the enabled
/// run's field-for-field (only the `telemetry` payload itself differs).
#[test]
fn disabled_telemetry_equals_enabled_field_for_field() {
    for config in [loaded_config(0.05, 3), faulty_config(7)] {
        let off = icn_sim::run(config.clone());
        assert!(off.telemetry.is_none(), "default config has telemetry off");

        let mut on_config = config;
        on_config.telemetry = TelemetryConfig::sampled(25);
        let mut engine = Engine::new(on_config);
        engine.set_event_sink(MemorySink::new());
        let mut on = engine.run();
        assert!(on.telemetry.is_some());
        on.telemetry = None;
        assert_eq!(
            off, on,
            "telemetry must be purely observational: every pre-existing \
             field identical with it on or off"
        );
    }
}

/// The span profiler is purely observational: enabling it perturbs no
/// pre-existing result field, and its output is deterministic and
/// internally consistent (phase ops reconcile with run totals, heatmap
/// grants reconcile with stage counters).
#[test]
fn profiler_is_observational_deterministic_and_reconciles() {
    let config = loaded_config(0.05, 13);
    let off = icn_sim::run(config.clone());

    let mut on_config = config;
    on_config.telemetry = TelemetryConfig::profiled(0);
    let on_a = icn_sim::run(on_config.clone());
    let on_b = icn_sim::run(on_config);
    assert_eq!(on_a, on_b, "profiled runs must reproduce from the seed");

    let mut stripped = on_a.clone();
    stripped.telemetry = None;
    assert_eq!(off, stripped, "profiling must not perturb the simulation");

    let telem = on_a.telemetry.expect("profiling enabled");
    assert!(
        telem.time_series.samples.is_empty(),
        "profile-only mode takes no time-series samples"
    );
    let spans = telem.spans.expect("profiled run emits spans");
    let root = &spans.root;
    assert_eq!(root.name, "run");
    assert_eq!(root.start_cycle, 0);
    assert_eq!(root.end_cycle, on_a.cycles_run);
    let window_names: Vec<&str> = root.children.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(window_names, vec!["warmup", "measure", "drain"]);
    // Windows tile the run without gaps.
    assert_eq!(root.children[0].start_cycle, 0);
    assert_eq!(root.children[0].end_cycle, root.children[1].start_cycle);
    assert_eq!(root.children[1].end_cycle, root.children[2].start_cycle);
    assert_eq!(root.children[2].end_cycle, on_a.cycles_run);
    for window in &root.children {
        let phase_names: Vec<&str> = window.children.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(phase_names, vec!["route", "arbitrate", "advance", "drain"]);
        assert!(window.busy_cycles <= window.duration());
        for phase in &window.children {
            assert!(phase.busy_cycles <= window.busy_cycles);
        }
    }
    // Phase op totals reconcile with the run's counters.
    let phase_ops = |name: &str| -> u64 {
        root.children
            .iter()
            .flat_map(|w| &w.children)
            .filter(|p| p.name == name)
            .map(|p| p.ops)
            .sum()
    };
    assert_eq!(phase_ops("route"), on_a.injected_total);
    assert_eq!(
        phase_ops("drain"),
        on_a.delivered_total + on_a.dropped_total
    );
    let total_grants: u64 = on_a.stage_counters.iter().map(|c| c.grants).sum();
    assert_eq!(phase_ops("arbitrate"), total_grants);

    // Heatmap grants reconcile per stage, and utilization is a ratio.
    let heatmap = telem.heatmap.expect("profiled run emits a heatmap");
    assert_eq!(heatmap.cycles, on_a.cycles_run);
    assert_eq!(heatmap.stages.len() as u32, on_a.stages);
    for (stage_heat, counters) in heatmap.stages.iter().zip(&on_a.stage_counters) {
        let grants: u64 = stage_heat.modules.iter().map(|m| m.grants).sum();
        assert_eq!(grants, counters.grants);
        for module in &stage_heat.modules {
            assert!(module.utilization_ppm <= 1_000_000);
        }
    }
    assert!(total_grants > 0, "loaded run must grant packets");
}

/// Event counts reconcile exactly with the result's totals, and the
/// conservation invariant closes over the event stream alone.
#[test]
fn event_counts_reconcile_with_result_totals() {
    let sink = MemorySink::new();
    let mut engine = Engine::new(faulty_config(5));
    engine.set_event_sink(sink.clone());
    let result = engine.run();
    let counts = sink.counts_by_kind();
    let count = |kind: &str| counts.get(kind).copied().unwrap_or(0);
    assert_eq!(count("inject"), result.injected_total);
    assert_eq!(count("deliver"), result.delivered_total);
    assert_eq!(count("drop"), result.dropped_total);
    assert_eq!(count("retry"), result.retries_total);
    assert_eq!(count("fault_activate"), 2);
    assert!(
        result.dropped_total > 0,
        "the dead module must drop packets"
    );
    assert!(result.retries_total > 0, "retries must fire");
    assert_eq!(
        count("inject"),
        count("deliver") + count("drop") + result.live_at_end,
        "conservation must close over the event stream"
    );
    // Every grant belongs to a known packet and a real stage.
    let max_stage = result.stages;
    for event in sink.events() {
        if let SimEvent::Grant { stage, .. } = event {
            assert!(stage < max_stage);
        }
    }
}

/// A packet that a permanent fault drops is re-offered by its source and
/// enters the network again on every attempt. Its trace keeps the first
/// entry, so `entered_at` never lies after the first hop and
/// `waiting_cycles` is defined once the loss is final.
#[test]
fn retried_packet_trace_keeps_its_first_entry() {
    let mut config = loaded_config(0.0, 1);
    config.warmup_cycles = 0;
    config.retry = RetryPolicy::retries(2);
    // Sever the stage-1 link serving destination 1.
    let link = FaultTarget::Link {
        stage: 1,
        module: 0,
        out_port: 1,
    };
    config.faults = FaultPlan::new(vec![FaultEvent::permanent(link, 0)]);
    let builder = TraceBuilder::new();
    let mut engine = Engine::new(config);
    engine.set_event_sink(builder.clone());
    engine.inject(0, 1);
    let result = engine.run();
    assert_eq!((result.retries_total, result.dropped_total), (2, 1));

    let traces = builder.traces();
    let trace = &traces[0];
    assert!(trace.complete(), "{trace}");
    // Injected into an idle network, the packet first enters at cycle 0;
    // each of its three attempts crosses stage 0 before the severed link.
    assert_eq!(trace.entered_at, Some(0), "{trace}");
    assert_eq!(trace.hops.len(), 3, "{trace}");
    assert!(trace.hops[1].granted_at > trace.hops[0].head_out_at);
    assert!(trace.waiting_cycles().is_some(), "{trace}");
}

/// The acceptance-criteria property test: on 1e6 samples spanning six
/// orders of magnitude, every log-bucketed quantile agrees with the exact
/// nearest-rank quantile within the documented relative error bound.
#[test]
fn histogram_quantiles_within_documented_error_on_1e6_samples() {
    // A deterministic LCG spreads samples across magnitudes; no external
    // RNG needed and the test replays identically everywhere.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let mut histogram = Histogram::default();
    let mut samples: Vec<u64> = Vec::with_capacity(1_000_000);
    for _ in 0..1_000_000u32 {
        let magnitude = next() % 6; // 1 .. 1e6
        let value = 1 + next() % 10u64.pow(magnitude as u32 + 1);
        histogram.record(value);
        samples.push(value);
    }
    samples.sort_unstable();
    let bound = histogram.relative_error_bound();
    for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999] {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let approx = histogram.quantile(q);
        let err = approx.abs_diff(exact) as f64;
        assert!(
            err <= exact as f64 * bound + 1.0,
            "q={q}: histogram {approx} vs exact {exact} exceeds bound {bound}"
        );
    }
    assert_eq!(histogram.count(), 1_000_000);
    assert_eq!(histogram.min(), *samples.first().unwrap());
    assert_eq!(histogram.max(), *samples.last().unwrap());
}

/// Sampling cadence: samples land exactly every `interval` cycles and the
/// deltas across the whole series reconcile with the run totals (no ring
/// wrap at this length).
#[test]
fn samples_land_on_interval_and_deltas_reconcile() {
    let mut config = loaded_config(0.05, 21);
    config.telemetry = TelemetryConfig {
        sample_interval: 100,
        ring_capacity: 1 << 20,
        histogram_precision: 7,
        profile: false,
    };
    let result = icn_sim::run(config);
    let telem = result.telemetry.expect("enabled");
    let series = &telem.time_series;
    assert_eq!(series.dropped_samples, 0);
    for sample in &series.samples {
        assert_eq!(sample.cycle % 100, 0);
    }
    let injected: u64 = series.samples.iter().map(|s| s.injected_delta).sum();
    let delivered: u64 = series.samples.iter().map(|s| s.delivered_delta).sum();
    // The last partial interval isn't sampled, so the sums are a floor.
    assert!(injected <= result.injected_total);
    assert!(delivered <= result.delivered_total);
    assert!(injected > 0 && delivered > 0);
    // Tracked-latency histograms mirror the exact stats.
    assert_eq!(telem.total_latency.count(), result.total_latency.count);
    assert_eq!(telem.total_latency.min(), result.total_latency.min);
    assert_eq!(telem.total_latency.max(), result.total_latency.max);
    assert_eq!(telem.network_latency.count(), result.network_latency.count);
}
