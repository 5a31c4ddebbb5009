//! End-to-end and per-layer benchmark of the icn stack.
//!
//! Two gated workloads reach the paper's models through the simulator
//! (`sim_paper2048`) and the design-space explorer (`explore_million`);
//! the HTTP service is measured in traced runs only. Each run is one
//! process with at most two threads doing load or compute. The untraced
//! run (`--trace 0`) gives the end-to-end figures, normalized to a
//! reference kernel's speed on the host at that moment (see
//! [`reference`]); the traced run (`--trace 1`) times calls into every
//! crate's public functions from outside the crate and reads the
//! service's own trace and metrics endpoints. See `README.md` beside
//! this crate for why each workload exists and how the numbers were made
//! steady.

pub mod explore;
pub mod record;
pub mod reference;
pub mod serve;
pub mod sim;
pub mod stats;

use record::{guarded, Metric, Record, Stamp, Tally, Threads};
use stats::Samples;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["sim_paper2048", "explore_million"];

/// Layers a traced run measures: the two gated workloads' own layers and
/// the service (whose `serve_mixed` traffic is measured only here).
const LAYERS: [&str; 3] = ["sim", "explore", "serve"];

/// Share of a traced run spent on the workload's own layer, and on each
/// of the other two.
const OWN_SHARE: f64 = 0.6;
const OTHER_SHARE: f64 = 0.2;

/// What an untraced run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Work per second, one sample per window, each normalized to the
    /// reference speed measured right after it (median reported).
    pub throughput: Samples,
    /// The same window rates as measured.
    pub raw: Samples,
    /// Set-up times normalized to the reference speed, seconds (median
    /// reported as `setup_s`).
    pub setup: Samples,
    /// Duration of each window, ms.
    pub latency_ms: Samples,
    /// Extra report lines.
    pub notes: Vec<String>,
    /// Counts and verdicts.
    pub tally: Tally,
}

/// One layer's traced figures.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The layer's per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Counts and verdicts.
    pub tally: Tally,
    /// Paired traced-over-untraced slowdowns of the layer's end-to-end
    /// operation, as shares (empty for the service).
    pub overhead: Samples,
    /// Extra report lines.
    pub notes: Vec<String>,
}

/// Problem sizes of a run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated network.
    pub sim: sim::SimScale,
    /// Explored grid.
    pub explore: explore::ExploreScale,
}

impl Scale {
    /// The benchmark as `BENCHMARK.json` runs it.
    pub const FULL: Self = Self {
        sim: sim::SimScale::PAPER,
        explore: explore::ExploreScale::MILLION,
    };

    /// Small problems with the same code paths, for the benchmark's own
    /// tests.
    pub const TINY: Self = Self {
        sim: sim::SimScale::TINY,
        explore: explore::ExploreScale::TINY,
    };
}

/// End-to-end metrics of an untraced run, in `BENCHMARK.json` order.
fn end_to_end(measured: &Measured) -> Result<Vec<Metric>, String> {
    let setup = &measured.setup;
    let rss = record::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
    Ok(vec![
        guarded(
            "norm_throughput_per_s",
            "1/s",
            measured.throughput.median(),
            measured.throughput.len(),
        )?,
        guarded("setup_s", "s", setup.median(), setup.len())?,
        Metric::new("peak_rss_mb", "MB", rss, 1),
    ])
}

/// The layer a gated workload exercises.
fn own_layer(workload: &str) -> &'static str {
    if workload == "sim_paper2048" {
        "sim"
    } else {
        "explore"
    }
}

fn traced(scale: &Scale, seed: u64, layer: &str, seconds: f64) -> Result<Traced, String> {
    match layer {
        "sim" => sim::traced(&scale.sim, seed, seconds),
        "explore" => explore::traced(&scale.explore, seed, seconds),
        _ => serve::traced(seed, seconds),
    }
}

fn untraced(scale: &Scale, seed: u64, workload: &str, seconds: f64) -> Result<Measured, String> {
    if workload == "sim_paper2048" {
        sim::untraced(&scale.sim, seed, seconds)
    } else {
        explore::untraced(&scale.explore, seed, seconds)
    }
}

/// The highest guarded percentile of `samples` among p50/p90/p99, as a
/// report line.
fn describe(label: &str, unit: &str, samples: &Samples) -> String {
    let mut line = format!("{label}:");
    for p in [50.0, 90.0, 99.0] {
        if let Some(v) = samples.percentile(p) {
            line.push_str(&format!(" p{p} {v:?} {unit}"));
        }
    }
    format!("{line} (n={})", samples.len())
}

/// Run one workload and build its record.
///
/// # Errors
/// Returns a message for an unknown workload, a failed set-up, or a
/// metric the percentile guard refused; no result is printed then.
pub fn run(
    scale: &Scale,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Record, Vec<String>), String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    let (metrics, tally, notes) = if trace {
        let mut tally = Tally::default();
        let mut metrics = Vec::new();
        let mut notes = Vec::new();
        let mut overhead = Samples::new();
        for layer in LAYERS {
            let own = layer == own_layer(workload);
            let share = if own { OWN_SHARE } else { OTHER_SHARE };
            let layer_run = traced(scale, seed, layer, seconds * share)?;
            if own {
                overhead = layer_run.overhead;
            }
            metrics.extend(layer_run.metrics);
            tally.absorb(layer_run.tally);
            notes.extend(layer_run.notes);
        }
        metrics.push(guarded(
            "trace.overhead_pct",
            "%",
            overhead.median().map(|share| share * 100.0),
            overhead.len(),
        )?);
        (metrics, tally, notes)
    } else {
        let measured = untraced(scale, seed, workload, seconds)?;
        let metrics = end_to_end(&measured)?;
        let mut notes = measured.notes;
        notes.push(describe("raw window rate", "1/s", &measured.raw));
        notes.push(describe("window time", "ms", &measured.latency_ms));
        (metrics, measured.tally, notes)
    };
    for m in &metrics {
        if !record::valid_name(m.name.as_str()) || !m.value.is_finite() {
            return Err(format!("metric {} = {} is not reportable", m.name, m.value));
        }
    }
    let record = Record {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        stamp: Stamp::current(),
        threads: Threads {
            gated: 1,
            ungated: if trace { 2 } else { 1 },
            clients: if trace { serve::CLIENTS } else { 0 },
        },
        tally,
        metrics,
    };
    Ok((record, notes))
}
