//! Zero-cost-when-disabled observability for the simulation engine.
//!
//! The paper's §4/§6 delay figures are best-case numbers; what limits a
//! loaded network is transient contention and back-pressure that
//! end-of-run aggregates average away. This module makes the transient
//! behaviour visible without perturbing it:
//!
//! * [`TimeSeries`] — an interval sampler snapshots per-stage buffer
//!   occupancy, source backlog, live packets, and grant/blocked/drop
//!   deltas every `sample_interval` cycles into a bounded ring buffer;
//! * [`Histogram`] — log-bucketed (HDR-style) latency and waiting-time
//!   distributions with arbitrary quantiles and bounded memory at any run
//!   length (error bound: relative `2^−(p+1)`, see [`histogram`]);
//! * [`SimEvent`] / [`EventSink`] — a structured event stream (inject,
//!   enter, grant, deliver, drop, retry, fault-activate, stall). This crate
//!   has two sinks: [`MemorySink`], which buffers the events (the CLI writes them
//!   into a dump as [`DumpLine::Event`] lines), and [`TraceBuilder`],
//!   which reconstructs a [`crate::PacketTrace`] per packet — the
//!   engine's only packet tracer.
//!
//! **The disabled path is guaranteed inert**: with
//! [`TelemetryConfig::sample_interval`] = 0 and no sink attached the
//! engine carries no telemetry state, runs the exact same cycle-by-cycle
//! schedule, and produces a [`crate::SimResult`] whose every
//! pre-existing field equals the enabled run's (asserted field-for-field
//! in `tests/telemetry.rs`). Telemetry observes; it never participates.

pub mod event;
pub mod histogram;
pub mod timeseries;

pub use event::{EventSink, MemorySink, SimEvent, TraceBuilder};
pub use histogram::{Histogram, DEFAULT_PRECISION};
pub use timeseries::{Sample, TimeSeries};

use std::collections::VecDeque;
use std::io::Write;

use icn_topology::StagePlan;
use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::metrics::StageCounters;

/// Telemetry knobs, carried in [`crate::SimConfig::telemetry`].
///
/// The default (`sample_interval` = 0, `profile` off) disables collection
/// entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Cycles between time-series samples; 0 disables sampling.
    pub sample_interval: u64,
    /// Ring-buffer capacity in samples: the most recent
    /// `ring_capacity` samples are retained, older ones are dropped
    /// (and counted in [`TimeSeries::dropped_samples`]).
    pub ring_capacity: u32,
    /// Histogram sub-bucket bits; quantile error is ≤ `2^−(p+1)`.
    pub histogram_precision: u32,
    /// Collect the deterministic span profile and per-module hotspot
    /// heatmap (see [`SpanProfile`] and [`Heatmap`]). Independent of
    /// `sample_interval`: profiling alone never touches the sample ring.
    #[serde(default)]
    pub profile: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_interval: 0,
            ring_capacity: 4096,
            histogram_precision: DEFAULT_PRECISION,
            profile: false,
        }
    }
}

impl TelemetryConfig {
    /// A config sampling every `sample_interval` cycles with default ring
    /// capacity and precision.
    #[must_use]
    pub fn sampled(sample_interval: u64) -> Self {
        Self {
            sample_interval,
            ..Self::default()
        }
    }

    /// A config with the span profiler and hotspot heatmap on, sampling
    /// every `sample_interval` cycles (0 = profile only, no time series).
    #[must_use]
    pub fn profiled(sample_interval: u64) -> Self {
        Self {
            sample_interval,
            profile: true,
            ..Self::default()
        }
    }

    /// Whether telemetry collection is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sample_interval > 0 || self.profile
    }

    /// Validate the knobs (called from [`crate::SimConfig::validate`]).
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for a zero ring capacity or an
    /// out-of-range histogram precision while sampling is enabled.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.enabled() {
            return Ok(());
        }
        if self.ring_capacity == 0 {
            return Err(SimError::InvalidConfig(
                "telemetry ring capacity must be at least 1 sample".into(),
            ));
        }
        if !(1..=20).contains(&self.histogram_precision) {
            return Err(SimError::InvalidConfig(
                "telemetry histogram precision must be in 1..=20 bits".into(),
            ));
        }
        Ok(())
    }
}

/// Everything telemetry collected over one run, carried in
/// [`crate::SimResult::telemetry`] (`None` when disabled).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// The sampled time series.
    pub time_series: TimeSeries,
    /// Source→destination latency distribution of tracked packets.
    pub total_latency: Histogram,
    /// Network-entry→destination latency distribution of tracked packets.
    pub network_latency: Histogram,
    /// Per-stage distributions of cycles a ready head waited (blocked or
    /// arbitrating) before winning its output grant.
    pub stage_waits: Vec<Histogram>,
    /// The cycle-denominated span profile (`None` unless
    /// [`TelemetryConfig::profile`] was set).
    #[serde(default)]
    pub spans: Option<SpanProfile>,
    /// The per-stage/per-module hotspot heatmap (`None` unless
    /// [`TelemetryConfig::profile`] was set).
    #[serde(default)]
    pub heatmap: Option<Heatmap>,
}

impl TelemetryReport {
    /// Write the report as a JSONL dump: one `{"Meta":{...}}` line, then
    /// one line per sample and per histogram (the format `icn inspect`
    /// reads). Events are not part of the report: a caller that wants
    /// them in the dump collects them with a [`MemorySink`] and appends
    /// one [`DumpLine::Event`] line per event.
    ///
    /// # Errors
    /// Propagates writer errors; a line that fails to serialize is
    /// reported as [`std::io::ErrorKind::InvalidData`].
    pub fn write_jsonl<W: Write>(&self, meta: &DumpMeta, out: &mut W) -> std::io::Result<()> {
        let mut line = |dump_line: &DumpLine| -> std::io::Result<()> {
            let text = serde_json::to_string(dump_line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            writeln!(out, "{text}")
        };
        line(&DumpLine::Meta(meta.clone()))?;
        for sample in &self.time_series.samples {
            line(&DumpLine::Sample(sample.clone()))?;
        }
        for (name, histogram) in [
            ("total_latency", &self.total_latency),
            ("network_latency", &self.network_latency),
        ] {
            line(&DumpLine::Histogram(NamedHistogram {
                name: name.to_string(),
                histogram: histogram.clone(),
            }))?;
        }
        for (stage, histogram) in self.stage_waits.iter().enumerate() {
            line(&DumpLine::Histogram(NamedHistogram {
                name: format!("stage{stage}_wait"),
                histogram: histogram.clone(),
            }))?;
        }
        if let Some(spans) = &self.spans {
            line(&DumpLine::Span(spans.clone()))?;
        }
        if let Some(heatmap) = &self.heatmap {
            line(&DumpLine::Heatmap(heatmap.clone()))?;
        }
        Ok(())
    }
}

/// One node of the deterministic span tree: a named region of the run,
/// bounded in engine cycles (never wall clock — the ICN002 rule), with the
/// cycles it was *active* (did work) and the operations attributed to it.
///
/// The engine emits a three-level tree: a `run` root, one child per
/// schedule window (`warmup`/`measure`/`drain`), and under each window the
/// four per-cycle phases `route` (workload injection), `arbitrate` (output
/// grants), `advance` (buffer slots vacated), and `drain` (deliveries and
/// final drops).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name (`run`, `warmup`, `measure`, `drain`, `route`,
    /// `arbitrate`, `advance`).
    pub name: String,
    /// First cycle covered by this span.
    pub start_cycle: u64,
    /// One past the last cycle covered.
    pub end_cycle: u64,
    /// Cycles in which the span did any work.
    pub busy_cycles: u64,
    /// Operations attributed to the span (phase-specific unit: packets
    /// injected, grants issued, slots vacated, packets delivered/dropped).
    pub ops: u64,
    /// Child spans, in schedule order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total cycles the span covers (`end_cycle − start_cycle`).
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// The whole-run span tree (see [`SpanNode`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanProfile {
    /// The `run` root span.
    pub root: SpanNode,
}

/// Per-stage/per-module utilization and buffer-occupancy matrix — the
/// hotspot heatmap. Occupancy is point-sampled every
/// [`HEAT_SAMPLE_CYCLES`] cycles; grant counts are exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heatmap {
    /// Cycles between occupancy point samples.
    pub occupancy_interval: u64,
    /// Cycles the profiler observed (the utilization denominator).
    pub cycles: u64,
    /// One row per stage, in network order.
    pub stages: Vec<StageHeat>,
}

/// One stage's row of the hotspot heatmap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageHeat {
    /// Stage index.
    pub stage: u32,
    /// Module radix at this stage.
    pub radix: u32,
    /// One cell per module.
    pub modules: Vec<ModuleHeat>,
}

/// One module's cell of the hotspot heatmap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleHeat {
    /// Module index within its stage.
    pub module: u32,
    /// Output grants issued by this module.
    pub grants: u64,
    /// Output utilization in parts per million: grants × packet service
    /// cycles over radix × observed cycles, saturating at 1 000 000.
    pub utilization_ppm: u64,
    /// Mean sampled input-buffer occupancy, in thousandths of a packet.
    pub mean_occupancy_milli: u64,
    /// Peak sampled input-buffer occupancy, in packets.
    pub peak_occupancy: u64,
}

/// Cycles between hotspot-heatmap occupancy point samples. Fixed (not a
/// config knob) so profiled runs stay comparable and the sweep stays far
/// off the per-cycle hot path.
pub const HEAT_SAMPLE_CYCLES: u64 = 64;

/// The header line of a telemetry dump.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DumpMeta {
    /// Ports in the simulated network.
    pub ports: u32,
    /// Stages in the simulated network.
    pub stages: u32,
    /// Cycles the run simulated.
    pub cycles_run: u64,
    /// Cycles between samples.
    pub sample_interval: u64,
    /// Samples lost to ring-buffer wrap (oldest first).
    pub dropped_samples: u64,
}

/// A named histogram line in a dump.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Which distribution this is (`total_latency`, `network_latency`,
    /// `stage<N>_wait`).
    pub name: String,
    /// The histogram itself.
    pub histogram: Histogram,
}

/// One line of a telemetry JSONL dump (externally tagged: `{"Meta":{...}}`,
/// `{"Sample":{...}}`, `{"Histogram":{...}}`, `{"Span":{...}}`,
/// `{"Heatmap":{...}}`, or — in event files — `{"Event":{...}}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DumpLine {
    /// The run header.
    Meta(DumpMeta),
    /// One time-series sample.
    Sample(Sample),
    /// One named histogram.
    Histogram(NamedHistogram),
    /// One engine event.
    Event(SimEvent),
    /// The whole-run span profile.
    Span(SpanProfile),
    /// The per-module hotspot heatmap.
    Heatmap(Heatmap),
}

/// Engine-side collector. Built only when [`TelemetryConfig::enabled`]
/// (a non-zero [`TelemetryConfig::sample_interval`], or
/// [`TelemetryConfig::profile`] alone), so disabled runs carry no state
/// at all (mirroring the fault engine's zero-cost rule).
#[derive(Debug)]
pub(crate) struct TelemetryState {
    config: TelemetryConfig,
    samples: VecDeque<Sample>,
    dropped_samples: u64,
    // Counter snapshots at the previous sample, for delta computation.
    last_injected: u64,
    last_delivered: u64,
    last_dropped: u64,
    last_stage: Vec<StageCounters>,
    total_latency: Histogram,
    network_latency: Histogram,
    stage_waits: Vec<Histogram>,
    profile: Option<ProfileState>,
}

/// Accumulators behind [`TelemetryConfig::profile`].
#[derive(Debug)]
struct ProfileState {
    /// Cycles one grant holds a module output (≈ flits per packet), the
    /// utilization numerator's scale.
    service_cycles: u64,
    /// warmup/measure/drain accumulators, in schedule order.
    windows: [WindowAccum; 3],
    /// Flattened per-module heat cells; `stage_base[s] + m` indexes stage
    /// `s` module `m`.
    heat: Vec<ModuleAccum>,
    stage_base: Vec<usize>,
    /// The network's stages (radix and module count), for the heatmap.
    plan: StagePlan,
    // Whole-run counter snapshots at the previous profiled cycle.
    last_injected: u64,
    last_delivered: u64,
    last_dropped: u64,
    last_grants: u64,
    /// One past the last cycle profiled.
    cycles_seen: u64,
}

/// One schedule window's span accumulator.
#[derive(Debug, Default, Clone, Copy)]
struct WindowAccum {
    started: bool,
    start: u64,
    end: u64,
    /// Cycles in which any phase did work.
    active_cycles: u64,
    /// route / arbitrate / advance / drain.
    phases: [PhaseAccum; 4],
}

/// One phase's span accumulator.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseAccum {
    busy_cycles: u64,
    ops: u64,
}

/// One module's heat accumulator.
#[derive(Debug, Default, Clone, Copy)]
struct ModuleAccum {
    grants: u64,
    occ_sum: u64,
    occ_peak: u64,
    occ_samples: u64,
}

/// The per-cycle counters the engine hands the span profiler.
pub(crate) struct PhaseGauges {
    pub cycle: u64,
    /// 0 = warmup, 1 = measure, 2 = drain.
    pub window: usize,
    pub injected_total: u64,
    pub delivered_total: u64,
    pub dropped_total: u64,
    pub grants_total: u64,
    /// Buffer slots vacated this cycle (already a per-cycle count).
    pub vacated: u64,
}

/// The instantaneous gauges the engine hands the sampler.
pub(crate) struct Gauges<'a> {
    pub cycle: u64,
    pub live_packets: u64,
    pub source_backlog: u64,
    pub retry_waiting: u64,
    pub injected_total: u64,
    pub delivered_total: u64,
    pub dropped_total: u64,
    pub stage_occupancy: Vec<u64>,
    pub stage_counters: &'a [StageCounters],
}

impl TelemetryState {
    /// Materialize the config for the network `plan` describes; `None`
    /// when disabled. `service_cycles` is the packet transfer time
    /// (flits), the heatmap's utilization scale.
    pub fn build(
        config: &TelemetryConfig,
        plan: &StagePlan,
        service_cycles: u64,
    ) -> Option<Box<Self>> {
        if !config.enabled() {
            return None;
        }
        let stages = plan.stages() as usize;
        let precision = config.histogram_precision;
        let profile = config.profile.then(|| {
            let mut stage_base = Vec::with_capacity(stages);
            let mut total = 0usize;
            for s in 0..plan.stages() {
                stage_base.push(total);
                total += plan.modules_in_stage(s) as usize;
            }
            ProfileState {
                service_cycles,
                windows: [WindowAccum::default(); 3],
                heat: vec![ModuleAccum::default(); total],
                stage_base,
                plan: plan.clone(),
                last_injected: 0,
                last_delivered: 0,
                last_dropped: 0,
                last_grants: 0,
                cycles_seen: 0,
            }
        });
        Some(Box::new(Self {
            config: *config,
            samples: VecDeque::new(),
            dropped_samples: 0,
            last_injected: 0,
            last_delivered: 0,
            last_dropped: 0,
            last_stage: vec![StageCounters::default(); stages],
            total_latency: Histogram::new(precision),
            network_latency: Histogram::new(precision),
            stage_waits: (0..stages).map(|_| Histogram::new(precision)).collect(),
            profile,
        }))
    }

    /// Whether `cycle` is a sampling cycle (never true with sampling off,
    /// even when the state exists for profiling alone).
    pub fn due(&self, cycle: u64) -> bool {
        self.config.sample_interval > 0 && cycle.is_multiple_of(self.config.sample_interval)
    }

    /// Whether the span profiler and heatmap are collecting.
    pub fn profiling(&self) -> bool {
        self.profile.is_some()
    }

    /// Whether `cycle` is a heatmap occupancy-sampling cycle.
    pub fn heat_due(&self, cycle: u64) -> bool {
        self.profile.is_some() && cycle.is_multiple_of(HEAT_SAMPLE_CYCLES)
    }

    /// Attribute one cycle's work to the span tree (profiled runs only).
    pub fn profile_cycle(&mut self, g: &PhaseGauges) {
        let Some(p) = self.profile.as_mut() else {
            return;
        };
        let route = g.injected_total - p.last_injected;
        let arbitrate = g.grants_total - p.last_grants;
        let advance = g.vacated;
        let drain = (g.delivered_total - p.last_delivered) + (g.dropped_total - p.last_dropped);
        p.last_injected = g.injected_total;
        p.last_grants = g.grants_total;
        p.last_delivered = g.delivered_total;
        p.last_dropped = g.dropped_total;
        let Some(window) = p.windows.get_mut(g.window) else {
            return;
        };
        if !window.started {
            window.started = true;
            window.start = g.cycle;
        }
        window.end = g.cycle + 1;
        let mut any = false;
        for (slot, ops) in window
            .phases
            .iter_mut()
            .zip([route, arbitrate, advance, drain])
        {
            if ops > 0 {
                slot.busy_cycles += 1;
                slot.ops += ops;
                any = true;
            }
        }
        if any {
            window.active_cycles += 1;
        }
        p.cycles_seen = g.cycle + 1;
    }

    /// Count one output grant for the heatmap (profiled runs only; inert
    /// single-branch call otherwise).
    #[inline]
    pub fn heat_grant(&mut self, stage: usize, module: usize) {
        if let Some(p) = self.profile.as_mut() {
            if let Some(cell) = p
                .stage_base
                .get(stage)
                .and_then(|&base| p.heat.get_mut(base + module))
            {
                cell.grants += 1;
            }
        }
    }

    /// Record one module's point-sampled input-buffer occupancy.
    pub fn heat_occupancy(&mut self, stage: usize, module: usize, occupancy: u64) {
        if let Some(p) = self.profile.as_mut() {
            if let Some(cell) = p
                .stage_base
                .get(stage)
                .and_then(|&base| p.heat.get_mut(base + module))
            {
                cell.occ_sum += occupancy;
                cell.occ_peak = cell.occ_peak.max(occupancy);
                cell.occ_samples += 1;
            }
        }
    }

    /// Take one sample from the current gauges.
    pub fn sample(&mut self, gauges: Gauges<'_>) {
        let stage_grants_delta = gauges
            .stage_counters
            .iter()
            .zip(&self.last_stage)
            .map(|(now, last)| now.grants - last.grants)
            .collect();
        let stage_blocked_delta = gauges
            .stage_counters
            .iter()
            .zip(&self.last_stage)
            .map(|(now, last)| now.blocked() - last.blocked())
            .collect();
        let stage_dropped_delta = gauges
            .stage_counters
            .iter()
            .zip(&self.last_stage)
            .map(|(now, last)| now.dropped - last.dropped)
            .collect();
        let sample = Sample {
            cycle: gauges.cycle,
            live_packets: gauges.live_packets,
            source_backlog: gauges.source_backlog,
            retry_waiting: gauges.retry_waiting,
            injected_delta: gauges.injected_total - self.last_injected,
            delivered_delta: gauges.delivered_total - self.last_delivered,
            dropped_delta: gauges.dropped_total - self.last_dropped,
            stage_occupancy: gauges.stage_occupancy,
            stage_grants_delta,
            stage_blocked_delta,
            stage_dropped_delta,
        };
        self.last_injected = gauges.injected_total;
        self.last_delivered = gauges.delivered_total;
        self.last_dropped = gauges.dropped_total;
        self.last_stage.copy_from_slice(gauges.stage_counters);
        if self.samples.len() >= self.config.ring_capacity as usize {
            self.samples.pop_front();
            self.dropped_samples += 1;
        }
        self.samples.push_back(sample);
    }

    /// Record a tracked delivery's latencies.
    pub fn record_latency(&mut self, total: u64, network: u64) {
        self.total_latency.record(total);
        self.network_latency.record(network);
    }

    /// Record how long a head waited at `stage` before its grant.
    pub fn record_stage_wait(&mut self, stage: usize, waited: u64) {
        self.stage_waits[stage].record(waited);
    }

    /// Finalize into the run report.
    pub fn into_report(self) -> TelemetryReport {
        let (spans, heatmap) = match self.profile {
            None => (None, None),
            Some(p) => (Some(p.span_profile()), Some(p.heatmap())),
        };
        TelemetryReport {
            time_series: TimeSeries {
                interval: self.config.sample_interval,
                dropped_samples: self.dropped_samples,
                samples: self.samples.into_iter().collect(),
            },
            total_latency: self.total_latency,
            network_latency: self.network_latency,
            stage_waits: self.stage_waits,
            spans,
            heatmap,
        }
    }
}

impl ProfileState {
    /// Assemble the span tree: `run` → windows → phases.
    fn span_profile(&self) -> SpanProfile {
        const PHASES: [&str; 4] = ["route", "arbitrate", "advance", "drain"];
        const WINDOWS: [&str; 3] = ["warmup", "measure", "drain"];
        let mut children = Vec::new();
        let mut root_busy = 0;
        let mut root_ops = 0;
        for (name, window) in WINDOWS.iter().zip(&self.windows) {
            if !window.started {
                continue;
            }
            let phases: Vec<SpanNode> = PHASES
                .iter()
                .zip(&window.phases)
                .map(|(phase, accum)| SpanNode {
                    name: (*phase).to_string(),
                    start_cycle: window.start,
                    end_cycle: window.end,
                    busy_cycles: accum.busy_cycles,
                    ops: accum.ops,
                    children: Vec::new(),
                })
                .collect();
            let ops = window.phases.iter().map(|p| p.ops).sum();
            root_busy += window.active_cycles;
            root_ops += ops;
            children.push(SpanNode {
                name: (*name).to_string(),
                start_cycle: window.start,
                end_cycle: window.end,
                busy_cycles: window.active_cycles,
                ops,
                children: phases,
            });
        }
        SpanProfile {
            root: SpanNode {
                name: "run".to_string(),
                start_cycle: 0,
                end_cycle: self.cycles_seen,
                busy_cycles: root_busy,
                ops: root_ops,
                children,
            },
        }
    }

    /// Assemble the hotspot heatmap.
    fn heatmap(&self) -> Heatmap {
        let cycles = self.cycles_seen;
        let stages = (0..)
            .zip(self.plan.radices())
            .map(|(s, &radix)| {
                let base = self.stage_base.get(s as usize).copied().unwrap_or(0);
                let modules = (0..self.plan.modules_in_stage(s))
                    .map(|m| {
                        let cell = self
                            .heat
                            .get(base + m as usize)
                            .copied()
                            .unwrap_or_default();
                        let denom = u128::from(radix) * u128::from(cycles);
                        let busy =
                            u128::from(cell.grants) * u128::from(self.service_cycles) * 1_000_000;
                        let utilization_ppm = busy
                            .checked_div(denom)
                            .map_or(0, |q| u64::try_from(q).unwrap_or(u64::MAX).min(1_000_000));
                        let mean_occupancy_milli = (cell.occ_sum * 1000)
                            .checked_div(cell.occ_samples)
                            .unwrap_or(0);
                        ModuleHeat {
                            module: m,
                            grants: cell.grants,
                            utilization_ppm,
                            mean_occupancy_milli,
                            peak_occupancy: cell.occ_peak,
                        }
                    })
                    .collect();
                StageHeat {
                    stage: s,
                    radix,
                    modules,
                }
            })
            .collect();
        Heatmap {
            occupancy_interval: HEAT_SAMPLE_CYCLES,
            cycles,
            stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A network of `n` stages of 2×2 modules for tests.
    fn plan(n: u32) -> StagePlan {
        StagePlan::uniform(2, n)
    }

    #[test]
    fn disabled_config_builds_no_state() {
        assert!(TelemetryState::build(&TelemetryConfig::default(), &plan(3), 1).is_none());
        assert!(TelemetryState::build(&TelemetryConfig::sampled(10), &plan(3), 1).is_some());
        assert!(TelemetryState::build(&TelemetryConfig::profiled(0), &plan(3), 1).is_some());
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let config = TelemetryConfig {
            sample_interval: 1,
            ring_capacity: 2,
            histogram_precision: 7,
            profile: false,
        };
        let mut state = TelemetryState::build(&config, &plan(1), 1).unwrap();
        let counters = [StageCounters::default()];
        for cycle in 0..5 {
            state.sample(Gauges {
                cycle,
                live_packets: cycle,
                source_backlog: 0,
                retry_waiting: 0,
                injected_total: cycle,
                delivered_total: 0,
                dropped_total: 0,
                stage_occupancy: vec![0],
                stage_counters: &counters,
            });
        }
        let report = state.into_report();
        assert_eq!(report.time_series.dropped_samples, 3);
        let cycles: Vec<u64> = report.time_series.samples.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
        // Deltas are against the previous sample even across evictions.
        assert_eq!(report.time_series.samples[1].injected_delta, 1);
    }

    #[test]
    fn deltas_are_differences_between_samples() {
        let mut state = TelemetryState::build(&TelemetryConfig::sampled(5), &plan(2), 1).unwrap();
        let mut counters = [StageCounters::default(), StageCounters::default()];
        state.sample(Gauges {
            cycle: 0,
            live_packets: 1,
            source_backlog: 1,
            retry_waiting: 0,
            injected_total: 4,
            delivered_total: 1,
            dropped_total: 0,
            stage_occupancy: vec![1, 0],
            stage_counters: &counters,
        });
        counters[0].grants = 7;
        counters[1].blocked_output_busy = 3;
        state.sample(Gauges {
            cycle: 5,
            live_packets: 2,
            source_backlog: 0,
            retry_waiting: 0,
            injected_total: 9,
            delivered_total: 4,
            dropped_total: 0,
            stage_occupancy: vec![0, 2],
            stage_counters: &counters,
        });
        let report = state.into_report();
        let s = &report.time_series.samples[1];
        assert_eq!(s.injected_delta, 5);
        assert_eq!(s.delivered_delta, 3);
        assert_eq!(s.stage_grants_delta, vec![7, 0]);
        assert_eq!(s.stage_blocked_delta, vec![0, 3]);
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut c = TelemetryConfig::sampled(10);
        assert!(c.validate().is_ok());
        c.ring_capacity = 0;
        assert!(c.validate().is_err());
        c.ring_capacity = 16;
        c.histogram_precision = 0;
        assert!(c.validate().is_err());
        // Disabled telemetry is never rejected, whatever the other knobs.
        c.sample_interval = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn dump_roundtrips_line_by_line() {
        let report = TelemetryReport {
            time_series: TimeSeries {
                interval: 10,
                dropped_samples: 0,
                samples: vec![Sample {
                    cycle: 10,
                    live_packets: 2,
                    source_backlog: 1,
                    retry_waiting: 0,
                    injected_delta: 3,
                    delivered_delta: 1,
                    dropped_delta: 0,
                    stage_occupancy: vec![1, 1],
                    stage_grants_delta: vec![2, 1],
                    stage_blocked_delta: vec![0, 0],
                    stage_dropped_delta: vec![0, 0],
                }],
            },
            total_latency: Histogram::default(),
            network_latency: Histogram::default(),
            stage_waits: vec![Histogram::default(), Histogram::default()],
            spans: None,
            heatmap: None,
        };
        let meta = DumpMeta {
            ports: 16,
            stages: 2,
            cycles_run: 100,
            sample_interval: 10,
            dropped_samples: 0,
        };
        let mut buf = Vec::new();
        report.write_jsonl(&meta, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<DumpLine> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses"))
            .collect();
        // 1 meta + 1 sample + 2 run histograms + 2 stage histograms.
        assert_eq!(lines.len(), 6);
        assert!(matches!(&lines[0], DumpLine::Meta(m) if m.ports == 16));
        assert!(matches!(&lines[1], DumpLine::Sample(s) if s.cycle == 10));
        assert!(
            matches!(&lines[2], DumpLine::Histogram(h) if h.name == "total_latency"),
            "{:?}",
            lines[2]
        );
        assert!(matches!(&lines[5], DumpLine::Histogram(h) if h.name == "stage1_wait"));
    }

    #[test]
    fn profile_cycle_attributes_phases_to_windows() {
        let mut state = TelemetryState::build(&TelemetryConfig::profiled(0), &plan(2), 2).unwrap();
        assert!(state.profiling());
        // Cycle 0 (warmup): 2 injections, 1 grant, nothing else.
        state.profile_cycle(&PhaseGauges {
            cycle: 0,
            window: 0,
            injected_total: 2,
            delivered_total: 0,
            dropped_total: 0,
            grants_total: 1,
            vacated: 0,
        });
        // Cycle 1 (measure): 1 more grant, 1 slot vacated, 1 delivery.
        state.profile_cycle(&PhaseGauges {
            cycle: 1,
            window: 1,
            injected_total: 2,
            delivered_total: 1,
            dropped_total: 0,
            grants_total: 2,
            vacated: 1,
        });
        // Cycle 2 (measure): fully idle.
        state.profile_cycle(&PhaseGauges {
            cycle: 2,
            window: 1,
            injected_total: 2,
            delivered_total: 1,
            dropped_total: 0,
            grants_total: 2,
            vacated: 0,
        });
        state.heat_grant(0, 0);
        state.heat_grant(0, 0);
        state.heat_grant(1, 0);
        state.heat_occupancy(0, 0, 3);
        state.heat_occupancy(0, 0, 1);
        let report = state.into_report();
        let spans = report.spans.expect("profiled run has spans");
        let root = &spans.root;
        assert_eq!(root.name, "run");
        assert_eq!(root.end_cycle, 3);
        // Both warmup and measure were entered; drain never was.
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["warmup", "measure"]);
        let warmup = &root.children[0];
        assert_eq!(warmup.start_cycle, 0);
        assert_eq!(warmup.end_cycle, 1);
        assert_eq!(warmup.busy_cycles, 1);
        let route = &warmup.children[0];
        assert_eq!(
            (route.name.as_str(), route.busy_cycles, route.ops),
            ("route", 1, 2)
        );
        let measure = &root.children[1];
        assert_eq!(measure.start_cycle, 1);
        assert_eq!(measure.end_cycle, 3);
        // Cycle 1 was busy (grant + vacate + delivery), cycle 2 idle.
        assert_eq!(measure.busy_cycles, 1);
        let arb = &measure.children[1];
        assert_eq!(
            (arb.name.as_str(), arb.busy_cycles, arb.ops),
            ("arbitrate", 1, 1)
        );
        let adv = &measure.children[2];
        assert_eq!(
            (adv.name.as_str(), adv.busy_cycles, adv.ops),
            ("advance", 1, 1)
        );
        let drain = &measure.children[3];
        assert_eq!(
            (drain.name.as_str(), drain.busy_cycles, drain.ops),
            ("drain", 1, 1)
        );
        assert_eq!(root.busy_cycles, 2);

        let heat = report.heatmap.expect("profiled run has heatmap");
        assert_eq!(heat.cycles, 3);
        assert_eq!(heat.occupancy_interval, HEAT_SAMPLE_CYCLES);
        assert_eq!(heat.stages.len(), 2);
        let m00 = &heat.stages[0].modules[0];
        assert_eq!(m00.grants, 2);
        // 2 grants x 2 service cycles / (radix 2 x 3 cycles) = 2/3 busy.
        assert_eq!(m00.utilization_ppm, 666_666);
        assert_eq!(m00.mean_occupancy_milli, 2000);
        assert_eq!(m00.peak_occupancy, 3);
        let m10 = &heat.stages[1].modules[0];
        assert_eq!(m10.grants, 1);
        assert_eq!(m10.mean_occupancy_milli, 0);
        assert_eq!(m10.peak_occupancy, 0);
    }

    #[test]
    fn utilization_is_clamped_to_one_million_ppm() {
        let mut state =
            TelemetryState::build(&TelemetryConfig::profiled(0), &plan(1), 100).unwrap();
        state.profile_cycle(&PhaseGauges {
            cycle: 0,
            window: 1,
            injected_total: 0,
            delivered_total: 0,
            dropped_total: 0,
            grants_total: 1,
            vacated: 0,
        });
        for _ in 0..50 {
            state.heat_grant(0, 0);
        }
        let heat = state.into_report().heatmap.unwrap();
        assert_eq!(heat.stages[0].modules[0].utilization_ppm, 1_000_000);
    }

    #[test]
    fn span_and_heatmap_dump_lines_round_trip() {
        let mut state = TelemetryState::build(&TelemetryConfig::profiled(0), &plan(1), 1).unwrap();
        state.profile_cycle(&PhaseGauges {
            cycle: 0,
            window: 0,
            injected_total: 1,
            delivered_total: 0,
            dropped_total: 0,
            grants_total: 0,
            vacated: 0,
        });
        let report = state.into_report();
        let meta = DumpMeta {
            ports: 2,
            stages: 1,
            cycles_run: 1,
            sample_interval: 0,
            dropped_samples: 0,
        };
        let mut buf = Vec::new();
        report.write_jsonl(&meta, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<DumpLine> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses"))
            .collect();
        // Meta + 2 run histograms + 1 stage histogram + span + heatmap.
        let span = lines.iter().find_map(|l| match l {
            DumpLine::Span(s) => Some(s.clone()),
            _ => None,
        });
        assert_eq!(span.as_ref().map(|s| s.root.name.as_str()), Some("run"));
        assert_eq!(span, report.spans);
        let heat = lines.iter().find_map(|l| match l {
            DumpLine::Heatmap(h) => Some(h.clone()),
            _ => None,
        });
        assert_eq!(heat, report.heatmap);
    }
}
