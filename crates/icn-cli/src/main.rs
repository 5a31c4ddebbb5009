//! `icn` — regenerate the paper's tables and figures, run simulations and
//! design-space sweeps, and serve and lint designs from the command line.
//! `icn help` prints every command with the flags it reads; a flag the
//! command does not read is a usage error (exit 2). The experiment
//! commands come from the registry `franklin_dhar_icn::experiments::EXPERIMENTS`,
//! which `icn list` prints.

use std::process::ExitCode;

use franklin_dhar_icn::experiments::{
    self, Experiment, ExperimentRecord, Runner, SimEffort, EXPERIMENTS,
};
use franklin_dhar_icn::report;
use franklin_dhar_icn::table::{sparkline, trim_float, TextTable};
use icn_core::explore;
use icn_sim::telemetry::{
    DumpLine, DumpMeta, Heatmap, NamedHistogram, Sample, SpanNode, SpanProfile,
};
use icn_sim::{ChipModel, Engine, FaultPlan, MemorySink, RetryPolicy, SimConfig, TelemetryConfig};
use icn_tech::{presets, Technology};
use icn_topology::StagePlan;
use icn_workloads::Workload;

/// Why an `icn` invocation failed, mapped onto distinct exit codes so
/// scripts and CI can branch on the status alone:
///
/// * `0` — success;
/// * `2` — usage error: unknown command/option, missing argument, or a
///   configuration that cannot describe a runnable simulation (the usage
///   text is printed after the error);
/// * `3` — the work ran and the verdict is negative: an infeasible design
///   point;
/// * `4` — I/O trouble: unreadable input, unwritable output, or a socket
///   that will not bind;
/// * `1` — any other failure (e.g. the `icn bench` overhead gate tripping).
///
/// Pinned by `exit_codes_are_distinct_and_stable` in `tests/cli.rs`.
enum Failure {
    /// Bad invocation (exit 2; usage printed).
    Usage(String),
    /// Negative verdict from a check that ran successfully (exit 3).
    Infeasible(String),
    /// Filesystem or network I/O failure (exit 4).
    Io(String),
    /// Everything else (exit 1).
    Other(String),
}

impl Failure {
    fn message(&self) -> &str {
        match self {
            Self::Usage(m) | Self::Infeasible(m) | Self::Io(m) | Self::Other(m) => m,
        }
    }

    const fn code(&self) -> u8 {
        match self {
            Self::Other(_) => 1,
            Self::Usage(_) => 2,
            Self::Infeasible(_) => 3,
            Self::Io(_) => 4,
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Self::Other(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: {}", failure.message());
            if matches!(failure, Failure::Usage(_)) {
                eprintln!();
                eprintln!("{}", usage());
            }
            ExitCode::from(failure.code())
        }
    }
}

fn usage() -> String {
    let experiments: Vec<String> = EXPERIMENTS
        .chunks(6)
        .map(|chunk| {
            chunk
                .iter()
                .map(|e| e.command)
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect();
    format!(
        "usage: icn <command> [options]\n\
         experiments: <experiment> [--json] [--tech <preset> | --full]\n\
         \t (`icn list` shows which of the two, if either, each one reads)\n\
         \t {}\n\
         commands: list, all [--tech <preset>] [--json],\n\
         \t dump|report [--tech <preset>] [--full], fig1-dot [--ports P],\n\
         \t explore [--tech <preset>] [--json]\n\
         \t explore --grid paper|bench|million|spec.json [--threads N] [--top K] [--json]\n\
         \t simulate [--load L] [--ports P] [--chip mcc|dmc] [--width W] [--seed S]\n\
         \t          [--fail-modules N] [--fail-links N] [--fault-seed S]\n\
         \t          [--retry-limit N] [--watchdog-cycles N]\n\
         \t          [--warmup-cycles N] [--measure-cycles N] [--drain-cycles N]\n\
         \t          [--sample-interval K] [--telemetry-out dump.jsonl|series.csv]\n\
         \t          [--profile] [--json]\n\
         \t inspect <dump.jsonl>\n\
         \t trace <dump.jsonl | http://HOST:PORT/v1/jobs/ID/trace>\n\
         \t metrics <http://HOST:PORT/v1/metrics | metrics.txt>\n\
         \t bench [--smoke] [--json] [--iters N]\n\
         \t lint config <spec.json> [--json]   (source rules: cargo clippy)\n\
         \t serve [--addr HOST:PORT] [--workers N] [--sim-threads N]\n\
         \t       [--queue-depth N] [--cache-entries N] [--journal FILE]\n\
         \t       [--cache-dir DIR] [--deadline-ms N] [--telemetry-out serve.prom]",
        experiments.join(",\n\t ")
    )
}

/// Stands for the one bare argument `inspect`, `trace` and `metrics` take.
const PATH: &str = "<path>";

/// What each command other than an experiment reads; a flag (or bare
/// argument) a command does not read is a usage error, never ignored.
const COMMANDS: &[(&str, &str)] = &[
    ("help", ""),
    ("list", ""),
    ("all", "--tech --json"),
    ("dump", "--tech --full"),
    ("report", "--tech --full"),
    ("fig1-dot", "--ports"),
    ("explore", "--tech --json"),
    (
        "simulate",
        "--load --ports --chip --width --seed --fail-modules --fail-links --fault-seed \
         --retry-limit --watchdog-cycles --warmup-cycles --measure-cycles --drain-cycles \
         --sample-interval --telemetry-out --profile --json",
    ),
    ("inspect", PATH),
    ("trace", PATH),
    ("metrics", PATH),
    ("bench", "--smoke --json --iters"),
    (
        "serve",
        "--addr --workers --sim-threads --queue-depth --cache-entries --journal --cache-dir \
         --deadline-ms --telemetry-out",
    ),
];

/// What `explore --grid`, the streaming explorer, reads instead.
const EXPLORE_GRID: (&str, &str) = ("explore --grid", "--grid --threads --top --json");

/// The flag an experiment reads beyond `--json`: `--tech` if it takes a
/// technology, `--full` if it takes a simulation effort.
const fn experiment_flag(experiment: &Experiment) -> &'static str {
    match experiment.runner {
        Runner::Fixed(_) | Runner::Sim(_) => "",
        Runner::Tech(_) => "--tech",
        Runner::Effort(_) => "--full",
    }
}

struct Options {
    tech: Technology,
    json: bool,
    full: bool,
    load: f64,
    /// `--ports`; each command that reads it has its own default.
    ports: Option<u32>,
    chip: ChipModel,
    width: u32,
    seed: u64,
    fail_modules: u32,
    fail_links: u32,
    fault_seed: u64,
    retry_limit: u32,
    watchdog_cycles: Option<u64>,
    sample_interval: u64,
    telemetry_out: Option<String>,
    /// `simulate --profile`: enable the engine span profiler and hotspot
    /// heatmap (rendered by `icn trace`).
    profile: bool,
    warmup_cycles: Option<u64>,
    measure_cycles: Option<u64>,
    drain_cycles: Option<u64>,
    /// `explore --threads`: fan candidate chunks across this many
    /// threads (1 = serial, 0 = one per core). Results are byte-identical
    /// for every value.
    threads: usize,
    /// `serve --sim-threads`: each explore job's fan-out budget
    /// (simulation jobs run serially).
    sim_threads: usize,
    smoke: bool,
    iters: u32,
    addr: String,
    workers: usize,
    queue_depth: usize,
    cache_entries: usize,
    journal: Option<String>,
    cache_dir: Option<String>,
    deadline_ms: u64,
    /// `explore --grid`: a built-in grid name (`paper`, `bench`,
    /// `million`) or a `GridSpec` JSON path.
    grid: Option<String>,
    /// `explore --top`: cap the rendered frontier rows / spot-checks.
    top: Option<usize>,
    /// The bare argument: the dump path for `inspect`.
    path: Option<String>,
}

/// The flag's value: the next argument, parsed.
fn value<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>) -> Option<T> {
    args.next().and_then(|s| s.parse().ok())
}

/// Parse the arguments of `icn <command>`, refusing any flag or bare
/// argument that `accepts` does not list.
fn parse_options(command: &str, accepts: &str, args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        tech: presets::paper1986(),
        json: false,
        full: false,
        load: 0.01,
        ports: None,
        chip: ChipModel::Dmc,
        width: 4,
        seed: 0x1986,
        fail_modules: 0,
        fail_links: 0,
        fault_seed: 0xF417,
        retry_limit: 0,
        watchdog_cycles: None,
        sample_interval: 0,
        telemetry_out: None,
        profile: false,
        warmup_cycles: None,
        measure_cycles: None,
        drain_cycles: None,
        threads: 1,
        sim_threads: 1,
        smoke: false,
        iters: 3,
        addr: "127.0.0.1:7919".to_string(),
        workers: 2,
        queue_depth: 64,
        cache_entries: 256,
        journal: None,
        cache_dir: None,
        deadline_ms: 0,
        grid: None,
        top: None,
        path: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_str();
        let kind = if arg.starts_with("--") { arg } else { PATH };
        if !accepts.split_whitespace().any(|a| a == kind) || (kind == PATH && opts.path.is_some()) {
            return Err(format!("`icn {command}` does not take `{arg}`"));
        }
        match arg {
            "--json" => opts.json = true,
            "--full" => opts.full = true,
            "--profile" => opts.profile = true,
            "--smoke" => opts.smoke = true,
            "--tech" => {
                let name: String = value(&mut args).ok_or("--tech needs a preset name")?;
                opts.tech = presets::by_name(&name).ok_or_else(|| {
                    format!(
                        "unknown preset `{name}`; available: {}",
                        presets::all()
                            .iter()
                            .map(|t| t.name.clone())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
            }
            "--load" => {
                opts.load = value(&mut args)
                    .filter(|&load| icn_workloads::validate_load(load).is_ok())
                    .ok_or("--load needs a number in [0,1]")?;
            }
            "--ports" => {
                opts.ports = Some(value(&mut args).ok_or("--ports needs a power-of-two integer")?);
            }
            "--width" => opts.width = value(&mut args).ok_or("--width needs an integer")?,
            "--seed" => opts.seed = value(&mut args).ok_or("--seed needs an integer")?,
            "--fail-modules" => {
                opts.fail_modules = value(&mut args).ok_or("--fail-modules needs a count")?;
            }
            "--fail-links" => {
                opts.fail_links = value(&mut args).ok_or("--fail-links needs a count")?;
            }
            "--fault-seed" => {
                opts.fault_seed = value(&mut args).ok_or("--fault-seed needs an integer")?;
            }
            "--retry-limit" => {
                opts.retry_limit = value(&mut args).ok_or("--retry-limit needs a count")?;
            }
            "--watchdog-cycles" => {
                opts.watchdog_cycles = Some(
                    value(&mut args).ok_or("--watchdog-cycles needs a cycle count (0 disables)")?,
                );
            }
            "--chip" => {
                opts.chip = match value::<String>(&mut args).as_deref() {
                    Some("mcc") => ChipModel::Mcc,
                    Some("dmc") => ChipModel::Dmc,
                    _ => return Err("--chip needs `mcc` or `dmc`".into()),
                };
            }
            "--sample-interval" => {
                opts.sample_interval =
                    value(&mut args).ok_or("--sample-interval needs a cycle count")?;
            }
            "--telemetry-out" => {
                opts.telemetry_out =
                    Some(value(&mut args).ok_or("--telemetry-out needs a file path")?);
            }
            "--warmup-cycles" => {
                opts.warmup_cycles =
                    Some(value(&mut args).ok_or("--warmup-cycles needs a cycle count")?);
            }
            "--measure-cycles" => {
                opts.measure_cycles =
                    Some(value(&mut args).ok_or("--measure-cycles needs a cycle count")?);
            }
            "--drain-cycles" => {
                opts.drain_cycles =
                    Some(value(&mut args).ok_or("--drain-cycles needs a cycle count")?);
            }
            "--threads" => {
                opts.threads = value(&mut args)
                    .ok_or("--threads needs a count (1 = serial, 0 = one per core)")?;
            }
            "--sim-threads" => {
                opts.sim_threads = value(&mut args)
                    .filter(|&n| n >= 1)
                    .ok_or("--sim-threads needs a positive count")?;
            }
            "--addr" => opts.addr = value(&mut args).ok_or("--addr needs host:port")?,
            "--workers" => {
                opts.workers = value(&mut args)
                    .filter(|&n| n >= 1)
                    .ok_or("--workers needs a positive count")?;
            }
            "--queue-depth" => {
                opts.queue_depth = value(&mut args)
                    .filter(|&n| n >= 1)
                    .ok_or("--queue-depth needs a positive count")?;
            }
            "--cache-entries" => {
                opts.cache_entries =
                    value(&mut args).ok_or("--cache-entries needs a count (0 disables caching)")?;
            }
            "--journal" => {
                opts.journal = Some(value(&mut args).ok_or("--journal needs a file path")?);
            }
            "--cache-dir" => {
                opts.cache_dir =
                    Some(value(&mut args).ok_or("--cache-dir needs a directory path")?);
            }
            "--deadline-ms" => {
                opts.deadline_ms = value(&mut args)
                    .ok_or("--deadline-ms needs a millisecond count (0 disables)")?;
            }
            "--grid" => {
                opts.grid = Some(value(&mut args).ok_or(
                    "--grid needs a built-in name (paper|bench|million) or a spec.json path",
                )?);
            }
            "--top" => opts.top = Some(value(&mut args).ok_or("--top needs a row count")?),
            "--iters" => {
                opts.iters = value(&mut args)
                    .filter(|&n| n >= 1)
                    .ok_or("--iters needs a positive count")?;
            }
            other if kind == PATH => opts.path = Some(other.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn emit(record: &ExperimentRecord, json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(record).expect("records serialize")
        );
    } else {
        println!("{}", record.to_text());
    }
}

/// Shade glyphs for the occupancy heatmap, lowest to highest.
const SHADES: [char; 5] = ['·', '░', '▒', '▓', '█'];

/// The shade of `value` on a scale whose top glyph is `peak` (> 0). Dump
/// values are untrusted, so the arithmetic saturates.
fn shade(value: u64, peak: u64) -> char {
    let top = SHADES.len() as u64 - 1;
    SHADES[(value.min(peak).saturating_mul(top).saturating_add(peak / 2) / peak) as usize]
}

/// Parse a telemetry JSONL dump (from `icn simulate --telemetry-out`) and
/// render it: top-line rates, per-stage occupancy sparklines and heatmap,
/// histogram quantiles, event counts. The service's `--telemetry-out` file
/// is a metrics exposition instead; `icn metrics <file>` reads that.
fn inspect(path: &str) -> Result<(), Failure> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Failure::Io(format!("reading {path}: {e}")))?;
    let mut meta: Option<DumpMeta> = None;
    let mut samples: Vec<Sample> = Vec::new();
    let mut histograms: Vec<NamedHistogram> = Vec::new();
    let mut event_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut has_profile = false;
    let mut unknown_tags: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<DumpLine>(line) {
            Ok(DumpLine::Meta(m)) => meta = Some(m),
            Ok(DumpLine::Sample(s)) => samples.push(s),
            Ok(DumpLine::Histogram(h)) => histograms.push(h),
            Ok(DumpLine::Event(e)) => *event_counts.entry(e.kind()).or_insert(0) += 1,
            // Profiler lines have their own renderer (`icn trace`); note
            // their presence rather than drowning the summary here.
            Ok(DumpLine::Span(_) | DumpLine::Heatmap(_)) => has_profile = true,
            // A line the engine dialect does not know. A future dialect's
            // tagged line ({"Tag":{...}}) is tallied and reported instead
            // of aborting the whole render; anything else is garbage.
            Err(engine_error) => match serde_json::from_str::<serde_json::Value>(line) {
                Ok(serde_json::Value::Object(map)) if map.len() == 1 => {
                    let tag = map.keys().next().expect("single-key object").clone();
                    *unknown_tags.entry(tag).or_insert(0) += 1;
                }
                _ => {
                    return Err(Failure::Io(format!(
                        "{path}:{}: not a telemetry dump line: {engine_error}",
                        number + 1
                    )))
                }
            },
        }
    }

    // Everything below indexes per-stage arrays by stage and takes cycle
    // differences, so a dump whose fields disagree is refused here.
    let bad_dump =
        |what: String| Failure::Io(format!("{path}: not a consistent telemetry dump: {what}"));
    let stages = meta.as_ref().map_or_else(
        || samples.first().map_or(0, |s| s.stage_occupancy.len()),
        |m| m.stages as usize,
    );
    for s in &samples {
        let arrays = [
            &s.stage_occupancy,
            &s.stage_grants_delta,
            &s.stage_blocked_delta,
            &s.stage_dropped_delta,
        ];
        if arrays.iter().any(|a| a.len() != stages) {
            let cycle = s.cycle;
            return Err(bad_dump(format!(
                "the sample at cycle {cycle} does not carry {stages} per-stage entries"
            )));
        }
    }
    for h in &histograms {
        h.histogram
            .validate()
            .map_err(|e| bad_dump(format!("histogram {}: {e}", h.name)))?;
    }
    let interval = match (&meta, samples.first(), samples.get(1)) {
        (Some(m), _, _) => m.sample_interval,
        (None, Some(a), Some(b)) => {
            let (a, b) = (a.cycle, b.cycle);
            b.checked_sub(a)
                .ok_or_else(|| bad_dump(format!("sample cycles go back from {a} to {b}")))?
        }
        _ => 1,
    }
    .max(1);
    if let Some(m) = &meta {
        println!(
            "telemetry dump: {} ports, {} stages, {} cycles run, sampled every {} \
             cycles ({} samples, {} dropped to ring wrap)",
            m.ports,
            m.stages,
            m.cycles_run,
            m.sample_interval,
            samples.len(),
            m.dropped_samples
        );
    } else {
        println!(
            "telemetry dump (no Meta line): {} samples, inferred interval {}",
            samples.len(),
            interval
        );
    }

    const WIDTH: usize = 64;
    if !samples.is_empty() {
        let covered = (samples.len() as u64).saturating_mul(interval);
        let total = |field: &dyn Fn(&Sample) -> u64| -> u64 {
            samples.iter().map(field).fold(0, u64::saturating_add)
        };
        let injected = total(&|s| s.injected_delta);
        let delivered = total(&|s| s.delivered_delta);
        let dropped = total(&|s| s.dropped_delta);
        println!(
            "rates over the sampled window: injected {} pkt/cyc, delivered {} \
             pkt/cyc, dropped {} pkt/cyc",
            trim_float(injected as f64 / covered as f64, 5),
            trim_float(delivered as f64 / covered as f64, 5),
            trim_float(dropped as f64 / covered as f64, 5),
        );
        println!();

        let backlog: Vec<u64> = samples.iter().map(|s| s.source_backlog).collect();
        let live: Vec<u64> = samples.iter().map(|s| s.live_packets).collect();
        println!(
            "source backlog    {} peak {}",
            sparkline(&backlog, WIDTH),
            backlog.iter().max().copied().unwrap_or(0)
        );
        println!(
            "live packets      {} peak {}",
            sparkline(&live, WIDTH),
            live.iter().max().copied().unwrap_or(0)
        );
        let occupancy_of = |stage: usize| -> Vec<u64> {
            samples.iter().map(|s| s.stage_occupancy[stage]).collect()
        };
        for stage in 0..stages {
            let occupancy = occupancy_of(stage);
            println!(
                "stage {stage} occupancy {} peak {}",
                sparkline(&occupancy, WIDTH),
                occupancy.iter().max().copied().unwrap_or(0)
            );
        }
        println!();

        // Heatmap: unlike the sparklines (each scaled to its own peak),
        // every cell here is normalized to the global occupancy peak, so
        // shades compare across stages.
        let global_peak = (0..stages).flat_map(&occupancy_of).max().unwrap_or(0);
        if global_peak > 0 {
            println!("occupancy heatmap (all stages scaled to global peak {global_peak}):");
            for stage in 0..stages {
                let occupancy = occupancy_of(stage);
                let columns = WIDTH.min(occupancy.len());
                let mut row = String::new();
                for col in 0..columns {
                    let lo = col * occupancy.len() / columns;
                    let hi = ((col + 1) * occupancy.len() / columns).max(lo + 1);
                    let v = occupancy[lo..hi].iter().copied().max().unwrap_or(0);
                    row.push(shade(v, global_peak));
                }
                println!("stage {stage} |{row}|");
            }
            println!();
        }

        let mut t = TextTable::new(vec![
            "stage",
            "grants",
            "blocked cycles",
            "drops",
            "peak occupancy",
        ]);
        for stage in 0..stages {
            t.row(vec![
                stage.to_string(),
                total(&|s| s.stage_grants_delta[stage]).to_string(),
                total(&|s| s.stage_blocked_delta[stage]).to_string(),
                total(&|s| s.stage_dropped_delta[stage]).to_string(),
                occupancy_of(stage).iter().max().unwrap().to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    if !histograms.is_empty() {
        let mut t = TextTable::new(vec![
            "distribution",
            "count",
            "min",
            "mean",
            "p50",
            "p95",
            "p99",
            "p999",
            "max",
        ]);
        for h in &histograms {
            let hg = &h.histogram;
            t.row(vec![
                h.name.clone(),
                hg.count().to_string(),
                if hg.count() == 0 {
                    "-".into()
                } else {
                    hg.min().to_string()
                },
                trim_float(hg.mean(), 1),
                hg.quantile(0.5).to_string(),
                hg.quantile(0.95).to_string(),
                hg.quantile(0.99).to_string(),
                hg.quantile(0.999).to_string(),
                hg.max().to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    if !event_counts.is_empty() {
        let rendered: Vec<String> = event_counts
            .iter()
            .map(|(kind, n)| format!("{kind} {n}"))
            .collect();
        println!("events: {}", rendered.join(", "));
    }
    if has_profile {
        println!("span profile recorded: render it with `icn trace {path}`");
    }
    if !unknown_tags.is_empty() {
        let rendered: Vec<String> = unknown_tags
            .iter()
            .map(|(tag, n)| format!("{tag} ×{n}"))
            .collect();
        println!(
            "skipped lines with unknown tags (newer dump dialect?): {}",
            rendered.join(", ")
        );
    }
    Ok(())
}

/// Render one engine span and its children: cycle bounds, busy cycles,
/// and attributed operations, indented by tree depth.
fn render_engine_span(node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let duration = node.duration();
    let busy_pct = if duration > 0 {
        format!(
            " ({}% busy)",
            trim_float(node.busy_cycles as f64 * 100.0 / duration as f64, 1)
        )
    } else {
        String::new()
    };
    println!(
        "{indent}{:<12} [{}..{}) {} cycles, busy {}{busy_pct}, ops {}",
        node.name, node.start_cycle, node.end_cycle, duration, node.busy_cycles, node.ops
    );
    for child in &node.children {
        render_engine_span(child, depth + 1);
    }
}

/// Render the hotspot heatmap: one glyph row per stage (modules grouped
/// into at most 64 columns, shaded by output utilization), with the
/// hottest module called out per stage.
fn render_engine_heatmap(heat: &Heatmap) {
    const WIDTH: usize = 64;
    println!(
        "stage utilization heatmap over {} cycles (shade = output utilization, \
         occupancy sampled every {} cycles):",
        heat.cycles, heat.occupancy_interval
    );
    for stage in &heat.stages {
        let modules = &stage.modules;
        if modules.is_empty() {
            continue;
        }
        let columns = WIDTH.min(modules.len());
        let mut row = String::new();
        for col in 0..columns {
            let lo = col * modules.len() / columns;
            let hi = ((col + 1) * modules.len() / columns).max(lo + 1);
            let ppm = modules[lo..hi]
                .iter()
                .map(|m| m.utilization_ppm)
                .max()
                .unwrap_or(0);
            row.push(shade(ppm, 1_000_000));
        }
        let hottest = modules
            .iter()
            .max_by_key(|m| (m.utilization_ppm, m.peak_occupancy))
            .expect("non-empty modules");
        println!(
            "stage {} (radix {}) |{row}| hottest module {}: {}% util, \
             mean occupancy {}, peak {}",
            stage.stage,
            stage.radix,
            hottest.module,
            trim_float(hottest.utilization_ppm as f64 / 10_000.0, 1),
            trim_float(hottest.mean_occupancy_milli as f64 / 1000.0, 2),
            hottest.peak_occupancy
        );
    }
}

/// Render one wall-clock span of a service job trace (a node of the
/// `/v1/jobs/:id/trace` tree), recursing into children and nesting the
/// engine's cycle-domain profile under the `execute` span.
fn render_serve_span(span: &serde_json::Value, depth: usize) {
    let indent = "  ".repeat(depth);
    let name = span["name"].as_str().unwrap_or("?");
    let start = span["start_us"].as_u64().unwrap_or(0);
    match span["duration_us"].as_u64() {
        Some(duration) => println!("{indent}{name:<16} +{start}µs  {duration}µs"),
        None => println!("{indent}{name:<16} +{start}µs  (in progress)"),
    }
    if let Some(engine) = span.get("engine") {
        if let Ok(profile) = serde_json::from_str::<SpanProfile>(&engine.to_string()) {
            println!("{indent}  engine profile (cycles):");
            render_engine_span(&profile.root, depth + 2);
        }
    }
    if let Some(children) = span["children"].as_array() {
        for child in children {
            render_serve_span(child, depth + 1);
        }
    }
}

/// `icn metrics <URL | file>` — scrape (or read) a Prometheus text
/// exposition and validate it with the service's own parser
/// (`icn_serve::parse_exposition`): HELP/TYPE pairing, name and label
/// syntax, label escaping, histogram bucket monotonicity. Prints a
/// per-family summary on success; exits non-zero on a malformed
/// document, so CI can gate the `/v1/metrics` format.
fn metrics_check(target: &str) -> Result<(), Failure> {
    let text = if let Some(rest) = target.strip_prefix("http://") {
        http_get(target, rest, "metrics", "/v1/metrics")?
    } else {
        std::fs::read_to_string(target)
            .map_err(|e| Failure::Io(format!("reading {target}: {e}")))?
    };
    let exposition = icn_serve::parse_exposition(&text)
        .map_err(|e| Failure::Other(format!("{target}: invalid exposition: {e}")))?;
    println!(
        "{target}: valid Prometheus exposition, {} metric families",
        exposition.families.len()
    );
    for family in &exposition.families {
        println!(
            "  {} ({}, {} sample{})",
            family.name,
            family.kind,
            family.samples.len(),
            if family.samples.len() == 1 { "" } else { "s" }
        );
    }
    Ok(())
}

/// `icn trace <dump.jsonl | URL>` — render a span profile: either the
/// `Span` + `Heatmap` lines of a profiled telemetry dump (recorded with
/// `icn simulate --profile --telemetry-out dump.jsonl`), or a job's
/// wall-clock span tree fetched live from a running service
/// (`http://HOST:PORT/v1/jobs/ID/trace`), with the engine profile nested
/// under the `execute` span.
fn trace(target: &str) -> Result<(), Failure> {
    if let Some(rest) = target.strip_prefix("http://") {
        let body = http_get(target, rest, "trace", "/")?;
        let tree: serde_json::Value = serde_json::from_str(body.trim())
            .map_err(|e| Failure::Other(format!("{target}: unparseable trace body: {e}")))?;
        println!(
            "job {} — status {}, trace id {}",
            tree["job"],
            tree["status"].as_str().unwrap_or("?"),
            tree["trace_id"].as_str().unwrap_or("?")
        );
        render_serve_span(&tree["spans"], 0);
        return Ok(());
    }

    let text = std::fs::read_to_string(target)
        .map_err(|e| Failure::Io(format!("reading {target}: {e}")))?;
    let mut spans: Option<SpanProfile> = None;
    let mut heatmap: Option<Heatmap> = None;
    for line in text.lines() {
        // Other line kinds (samples, histograms, events, service lines)
        // belong to `icn inspect`; this renderer wants the profile only.
        match serde_json::from_str::<DumpLine>(line) {
            Ok(DumpLine::Span(p)) => spans = Some(p),
            Ok(DumpLine::Heatmap(h)) => heatmap = Some(h),
            _ => {}
        }
    }
    if spans.is_none() && heatmap.is_none() {
        return Err(Failure::Other(format!(
            "no span profile in {target} — record one with `icn simulate --profile \
             --telemetry-out {target}`, or point at a live job trace \
             (http://HOST:PORT/v1/jobs/ID/trace)"
        )));
    }
    if let Some(profile) = &spans {
        println!("engine span profile (all times in cycles):");
        render_engine_span(&profile.root, 0);
    }
    if let Some(heat) = &heatmap {
        if spans.is_some() {
            println!();
        }
        render_engine_heatmap(heat);
    }
    Ok(())
}

/// The profiled run must keep at least this fraction of the disabled
/// run's throughput, or the gate fails.
const OVERHEAD_FLOOR: f64 = 0.95;

/// The simulation `icn bench` times: a W=4 network of 16×16 DMC chips
/// under uniform load 0.02 for exactly 2,000 cycles (no warmup or drain).
fn bench_config(ports: u32) -> SimConfig {
    let plan = StagePlan::balanced_pow2(ports, 16).expect("bench ports are a power of two");
    let mut config = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(0.02));
    config.warmup_cycles = 0;
    config.measure_cycles = 2_000;
    config.drain_cycles = 0;
    config
}

/// Cycles one side of an overhead pair steps before the other side takes
/// its turn: one hotspot-heatmap period, so every full slice of the
/// profiled engine carries exactly one heatmap snapshot.
const SLICE_CYCLES: u64 = icn_sim::telemetry::HEAT_SAMPLE_CYCLES;

/// One overhead pair: the profiled engine's throughput relative to the
/// disabled engine's. The two engines step the same cycles in
/// alternating [`SLICE_CYCLES`] slices, so each profiled slice is timed
/// right beside a disabled one, at the same moment of the host (whose
/// cores do not all run at one speed). The pair's ratio is the median
/// over full slices of disabled time over profiled time, which a single
/// preempted slice cannot move.
fn overhead_pair(disabled: &SimConfig, profiled: &SimConfig, profiled_first: bool) -> f64 {
    let mut engines = [Engine::new(disabled.clone()), Engine::new(profiled.clone())];
    let order = if profiled_first { [1, 0] } else { [0, 1] };
    let slices = (disabled.measure_cycles / SLICE_CYCLES).max(1);
    let ratios: Vec<f64> = (0..slices)
        .map(|_| {
            let mut secs = [0.0f64; 2];
            for side in order {
                let started = std::time::Instant::now();
                for _ in 0..SLICE_CYCLES {
                    engines[side].step();
                }
                secs[side] = started.elapsed().as_secs_f64();
            }
            secs[0] / secs[1]
        })
        .collect();
    std::hint::black_box(&engines);
    median(&ratios)
}

/// Median of a non-empty sample (mean of the middle two for an even
/// count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `icn bench` — the observability-overhead gate: time one simulation
/// (`smoke_256`, or the 2048-port `dmc2048_w4_load2` without `--smoke`)
/// with telemetry fully disabled and with the span profiler + hotspot
/// heatmap on, in `--iters` alternating pairs, and fail when the median
/// per-pair throughput ratio falls below [`OVERHEAD_FLOOR`]. Engine and
/// explorer throughput are measured by the `perfbench` package instead.
fn bench(opts: &Options) -> Result<(), Failure> {
    let (case, ports) = if opts.smoke {
        ("smoke_256", 256)
    } else {
        ("dmc2048_w4_load2", 2048)
    };
    let disabled = bench_config(ports);
    let mut profiled = disabled.clone();
    profiled.telemetry = TelemetryConfig::profiled(0);
    eprintln!(
        "measuring {case} ({ports} ports, {} cycles) in {} pairs: telemetry disabled \
         vs the span profiler + hotspot heatmap on...",
        disabled.measure_cycles, opts.iters
    );
    // Which side steps first flips every pair, so neither always gets
    // the warmer caches.
    let ratios: Vec<f64> = (0..opts.iters)
        .map(|pair| overhead_pair(&disabled, &profiled, pair % 2 == 1))
        .collect();
    let ratio = median(&ratios);

    if opts.json {
        let report = serde_json::json!({
            "case": case,
            "ports": ports,
            "cycles": disabled.measure_cycles,
            "iters": opts.iters,
            "ratios": ratios,
            "ratio": ratio,
            "floor": OVERHEAD_FLOOR,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        );
    } else {
        println!(
            "{case}: profiled throughput is {:.1}% of disabled (median of {} pairs, \
             floor {:.0}%)",
            ratio * 100.0,
            ratios.len(),
            OVERHEAD_FLOOR * 100.0
        );
    }
    if ratio < OVERHEAD_FLOOR {
        return Err(Failure::Other(format!(
            "observability overhead too high: profiled throughput is {:.1}% of \
             disabled (median of {} pairs, floor {:.0}%)",
            ratio * 100.0,
            ratios.len(),
            OVERHEAD_FLOOR * 100.0
        )));
    }
    Ok(())
}

/// The simulation effort `--full` selects.
const fn effort(opts: &Options) -> SimEffort {
    if opts.full {
        SimEffort::Full
    } else {
        SimEffort::Quick
    }
}

/// Spot-checks `icn explore --grid` runs against the simulator.
const EXPLORE_SPOT_CHECKS: usize = 4;

/// Resolve `--grid`: a built-in name first, else a `GridSpec` JSON file.
fn load_grid(arg: &str) -> Result<icn_explore::GridSpec, Failure> {
    if let Some(spec) = icn_explore::GridSpec::by_name(arg) {
        return Ok(spec);
    }
    if !std::path::Path::new(arg).exists() {
        return Err(Failure::Usage(format!(
            "unknown grid `{arg}`: expected paper, bench, million, or a spec.json path"
        )));
    }
    let text =
        std::fs::read_to_string(arg).map_err(|e| Failure::Io(format!("reading {arg}: {e}")))?;
    let spec: icn_explore::GridSpec = serde_json::from_str(&text)
        .map_err(|e| Failure::Usage(format!("{arg}: invalid grid spec: {e}")))?;
    spec.validate()
        .map_err(|e| Failure::Usage(format!("{arg}: {e}")))?;
    Ok(spec)
}

/// `icn explore --grid <…>` — the streaming engine: enumerate the grid,
/// evaluate across `--threads` threads, and print the Pareto frontier
/// (delay × area × pins × cost) with simulator spot-checks. Output is
/// byte-identical at every thread count.
fn explore_grid(opts: &Options) -> Result<(), Failure> {
    let grid = opts.grid.as_deref().unwrap_or("paper");
    let spec = load_grid(grid)?;
    let options = icn_explore::ExploreOptions {
        threads: opts.threads,
        chunk: icn_explore::DEFAULT_CHUNK,
        spot_checks: EXPLORE_SPOT_CHECKS,
    };
    let outcome = icn_explore::explore(&spec, &options, None).map_err(Failure::Usage)?;
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome).expect("outcome serializes")
        );
        return Ok(());
    }
    println!(
        "grid {}: {} candidates, {} feasible, {} on the Pareto frontier",
        grid,
        outcome.grid_candidates,
        outcome.feasible,
        outcome.frontier.len()
    );
    let mut t = TextTable::new(vec![
        "#",
        "tech",
        "kind",
        "N'",
        "N",
        "W",
        "board",
        "P",
        "F (MHz)",
        "delay (µs)",
        "area (mm²)",
        "pins",
        "Δchips",
    ]);
    let shown = opts.top.unwrap_or(20).min(outcome.frontier.len());
    for p in &outcome.frontier[..shown] {
        t.row(vec![
            p.index.to_string(),
            p.tech.clone(),
            p.kind.label().to_string(),
            p.network_ports.to_string(),
            p.chip_radix.to_string(),
            p.width.to_string(),
            p.board_ports.to_string(),
            p.packet_bits.to_string(),
            format!("{:.1}", p.frequency_mhz),
            format!("{:.3}", p.delay_us),
            format!("{:.2}", p.area_mm2),
            p.pins.to_string(),
            p.cost_chips.to_string(),
        ]);
    }
    println!("{}", t.render());
    if shown < outcome.frontier.len() {
        println!(
            "({} more frontier rows; raise --top or use --json)",
            outcome.frontier.len() - shown
        );
    }
    for check in &outcome.spot_checks {
        println!(
            "spot-check #{}: {}-port N={} W={} P={} — closed-form {:.1} cycles, \
             sim analytic {} cycles, sim min latency {} cycles",
            check.index,
            check.network_ports,
            check.chip_radix,
            check.width,
            check.packet_bits,
            check.closed_form_cycles,
            check.sim_analytic_cycles,
            check.sim_min_latency_cycles
        );
    }
    if !outcome.spot_checks.is_empty() {
        println!(
            "simulator ranking agreement: {}",
            if outcome.ranking_agrees { "yes" } else { "NO" }
        );
    }
    if outcome.spot_checks.len() < EXPLORE_SPOT_CHECKS {
        // Fewer checks ran than were asked for, so every frontier point
        // was tried: name the ones the simulator could not take.
        println!(
            "spot-checks: {} of {} ran (frontier size {})",
            outcome.spot_checks.len(),
            EXPLORE_SPOT_CHECKS,
            outcome.frontier.len()
        );
        for p in &outcome.frontier {
            if let Some(why) = icn_explore::spotcheck::unsimulable(p) {
                println!(
                    "  not simulated: #{} {}-port N={} W={} P={}: {why}",
                    p.index, p.network_ports, p.chip_radix, p.width, p.packet_bits
                );
            }
        }
    }
    Ok(())
}

/// GET `target` from a running server (`metrics`/`trace`) and return the
/// body of a 200 response. `rest` is `target` after `http://`; an empty
/// path means `default_path`.
fn http_get(target: &str, rest: &str, what: &str, default_path: &str) -> Result<String, Failure> {
    use std::io::{Read, Write};
    let (addr, path) = rest.split_at(rest.find('/').unwrap_or(rest.len()));
    if addr.is_empty() {
        return Err(Failure::Usage(format!("no host in {what} URL `{target}`")));
    }
    let path = if path.is_empty() { default_path } else { path };
    let exchange = || -> std::io::Result<String> {
        let mut stream = std::net::TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\n\r\n"
        )?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    };
    let response = exchange().map_err(|e| Failure::Io(format!("fetching {target}: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or((response.as_str(), ""));
    if !head.starts_with("HTTP/1.1 200") {
        return Err(Failure::Other(format!(
            "{target}: {}",
            head.lines().next().unwrap_or("empty response")
        )));
    }
    Ok(body.to_string())
}

fn run(args: &[String]) -> Result<(), Failure> {
    let command = args.first().map_or("help", String::as_str);
    let rest = args.get(1..).unwrap_or(&[]);
    if command == "lint" {
        // `lint config` takes a positional subcommand and path that the
        // global option parser would reject, so it parses its own.
        return lint(rest);
    }
    if let Some(experiment) = experiments::find(command) {
        let accepts = format!("--json {}", experiment_flag(experiment));
        let opts = parse_options(command, &accepts, rest).map_err(Failure::Usage)?;
        emit(&experiment.run(&opts.tech, effort(&opts)), opts.json);
        return Ok(());
    }
    let command = if matches!(command, "--help" | "-h") {
        "help"
    } else {
        command
    };
    let (command, accepts) = if command == "explore" && rest.iter().any(|a| a == "--grid") {
        EXPLORE_GRID
    } else {
        *COMMANDS
            .iter()
            .find(|(name, _)| *name == command)
            .ok_or_else(|| Failure::Usage(format!("unknown command `{command}`")))?
    };
    let opts = parse_options(command, accepts, rest).map_err(Failure::Usage)?;

    match command {
        "help" => println!("{}", usage()),
        "list" => {
            for e in &EXPERIMENTS {
                println!(
                    "{:14} {:20} {:7} {}{}",
                    e.id,
                    e.command,
                    experiment_flag(e),
                    e.title,
                    if e.simulated() { " (sim)" } else { "" }
                );
            }
        }
        "all" => {
            for e in EXPERIMENTS.iter().filter(|e| !e.simulated()) {
                emit(&e.run(&opts.tech, effort(&opts)), opts.json);
            }
        }
        "report" => {
            let records = experiments::run_all(&opts.tech, effort(&opts));
            report::write_report(std::path::Path::new("REPORT.md"), &opts.tech, &records)
                .map_err(Failure::Io)?;
            println!("wrote REPORT.md ({} experiments)", records.len());
        }
        "dump" => {
            // Every record as .txt in ./results: the one-command
            // reproduction package. `--json` on each record's own command
            // prints its structured form.
            let records = experiments::run_all(&opts.tech, effort(&opts));
            let paths = report::write_results(std::path::Path::new("results"), &records)
                .map_err(Failure::Io)?;
            for (path, r) in paths.iter().zip(&records) {
                println!("wrote {} ({})", path.display(), r.title);
            }
        }
        "fig1-dot" => {
            // Graphviz rendering of a (small) network; --ports controls the
            // size, default Figure 1's 16 ports of 2×2 modules.
            let plan = StagePlan::balanced_pow2(opts.ports.unwrap_or(16), 2).ok_or_else(|| {
                Failure::Usage("--ports must be a power of two for fig1-dot".into())
            })?;
            println!("{}", icn_topology::Topology::new(plan).to_dot());
        }
        "inspect" => {
            let path = opts.path.as_deref().ok_or_else(|| {
                Failure::Usage(
                    "inspect needs a telemetry dump path: icn inspect <dump.jsonl>".into(),
                )
            })?;
            inspect(path)?;
        }
        "trace" => {
            let target = opts.path.as_deref().ok_or_else(|| {
                Failure::Usage(
                    "trace needs a dump path or job-trace URL: \
                     icn trace <dump.jsonl | http://HOST:PORT/v1/jobs/ID/trace>"
                        .into(),
                )
            })?;
            trace(target)?;
        }
        "metrics" => {
            let target = opts.path.as_deref().ok_or_else(|| {
                Failure::Usage(
                    "metrics needs an exposition to validate: \
                     icn metrics <http://HOST:PORT/v1/metrics | metrics.txt>"
                        .into(),
                )
            })?;
            metrics_check(target)?;
        }
        "serve" => serve(&opts)?,
        "bench" => bench(&opts)?,
        "explore --grid" => explore_grid(&opts)?,
        "explore" => {
            let designs = explore::explore(&opts.tech, &explore::ExploreSpec::paper_space());
            if opts.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&designs).expect("designs serialize")
                );
            } else {
                let mut t = TextTable::new(vec![
                    "kind",
                    "N",
                    "W",
                    "pins",
                    "feasible",
                    "F (MHz)",
                    "one-way (µs)",
                    "P(block)@50%",
                ]);
                for d in &designs {
                    let r = &d.report;
                    t.row(vec![
                        r.point.kind.label().to_string(),
                        r.point.chip_radix.to_string(),
                        r.point.width.to_string(),
                        r.pins.total().to_string(),
                        if r.feasible() {
                            "yes".into()
                        } else {
                            "no".into()
                        },
                        format!("{:.1}", r.frequency.mhz()),
                        format!("{:.2}", r.one_way.micros()),
                        format!("{:.3}", d.blocking_at_half_load),
                    ]);
                }
                println!("{}", t.render());
            }
        }
        "simulate" => {
            let plan = StagePlan::balanced_pow2(opts.ports.unwrap_or(256), 16)
                .ok_or_else(|| Failure::Usage("--ports must be a power of two ≥ 2".into()))?;
            let mut config = SimConfig::paper_baseline(
                plan,
                opts.chip,
                opts.width,
                Workload::uniform(opts.load),
            );
            config.seed = opts.seed;
            if opts.fail_modules > 0 || opts.fail_links > 0 {
                config.faults = FaultPlan::random_module_failures(
                    &config.plan,
                    opts.fail_modules,
                    0,
                    opts.fault_seed,
                )
                .merged(FaultPlan::random_link_failures(
                    &config.plan,
                    opts.fail_links,
                    0,
                    opts.fault_seed,
                ));
            }
            config.retry = RetryPolicy::retries(opts.retry_limit);
            if let Some(bound) = opts.watchdog_cycles {
                config.watchdog_cycles = bound;
            }
            if let Some(cycles) = opts.warmup_cycles {
                config.warmup_cycles = cycles;
            }
            if let Some(cycles) = opts.measure_cycles {
                config.measure_cycles = cycles;
            }
            if let Some(cycles) = opts.drain_cycles {
                config.drain_cycles = cycles;
            }
            // Asking for a dump implies sampling; default to a 100-cycle
            // cadence unless --sample-interval says otherwise. --profile
            // additionally turns on the span profiler + hotspot heatmap.
            if opts.sample_interval > 0 || opts.telemetry_out.is_some() {
                let interval = if opts.sample_interval > 0 {
                    opts.sample_interval
                } else {
                    100
                };
                config.telemetry = if opts.profile {
                    TelemetryConfig::profiled(interval)
                } else {
                    TelemetryConfig::sampled(interval)
                };
            } else if opts.profile {
                config.telemetry = TelemetryConfig::profiled(0);
            }
            // try_with_options validates the config and fault plan; a bad
            // request is a typed error and a nonzero exit, never a panic.
            let mut engine = Engine::try_with_options(config, icn_sim::EngineOptions::default())
                .map_err(|e| Failure::Usage(e.to_string()))?;
            // A JSONL dump includes the event stream, so capture it; the
            // CSV form is the time series only.
            let capture_events = opts
                .telemetry_out
                .as_deref()
                .is_some_and(|p| !p.ends_with(".csv"));
            let sink = MemorySink::new();
            if capture_events {
                engine.set_event_sink(sink.clone());
            }
            let result = engine.run();
            if let Some(path) = &opts.telemetry_out {
                let telem = result
                    .telemetry
                    .as_ref()
                    .expect("telemetry was enabled above");
                if path.ends_with(".csv") {
                    std::fs::write(path, telem.time_series.to_csv())
                        .map_err(|e| Failure::Io(format!("writing {path}: {e}")))?;
                } else {
                    let meta = DumpMeta {
                        ports: result.ports,
                        stages: result.stages,
                        cycles_run: result.cycles_run,
                        sample_interval: telem.time_series.interval,
                        dropped_samples: telem.time_series.dropped_samples,
                    };
                    let mut buf = Vec::new();
                    telem
                        .write_jsonl(&meta, &mut buf)
                        .map_err(|e| Failure::Io(format!("serializing dump: {e}")))?;
                    for event in sink.events() {
                        buf.extend_from_slice(
                            serde_json::to_string(&DumpLine::Event(event))
                                .expect("events serialize")
                                .as_bytes(),
                        );
                        buf.push(b'\n');
                    }
                    std::fs::write(path, buf)
                        .map_err(|e| Failure::Io(format!("writing {path}: {e}")))?;
                }
                eprintln!("wrote telemetry to {path}");
            }
            if opts.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&result).expect("results serialize")
                );
            } else {
                println!(
                    "{} ports, {} stages: injected {}, delivered {}, throughput {:.5} \
                     pkt/port/cyc",
                    result.ports,
                    result.stages,
                    result.injected_total,
                    result.delivered_total,
                    result.throughput
                );
                println!(
                    "network latency: mean {:.1} p50 {} p99 {} max {} cycles \
                     (unloaded analytic {})",
                    result.network_latency.mean,
                    result.network_latency.p50,
                    result.network_latency.p99,
                    result.network_latency.max,
                    result.analytic_unloaded_cycles
                );
                if result.dropped_total > 0 || result.unreachable_pairs > 0 {
                    println!(
                        "faults: dropped {} ({} tracked), retries {}, unreachable \
                         pairs {}/{}, conservation {}",
                        result.dropped_total,
                        result.tracked_dropped,
                        result.retries_total,
                        result.unreachable_pairs,
                        u64::from(result.ports) * u64::from(result.ports),
                        if result.conservation_ok() {
                            "ok"
                        } else {
                            "VIOLATED"
                        }
                    );
                }
                if let Some(stall) = &result.stall {
                    println!(
                        "watchdog: stalled at cycle {} (last progress {}, {} live, \
                         {} in retry backoff, {} queued at sources)",
                        stall.at_cycle,
                        stall.last_progress_cycle,
                        stall.live_packets,
                        stall.retry_waiting,
                        stall.source_backlog
                    );
                }
            }
        }
        other => return Err(Failure::Usage(format!("unknown command `{other}`"))),
    }
    Ok(())
}

/// `icn serve` — run the HTTP design-evaluation / simulation job service
/// until `POST /v1/shutdown` (or a [`icn_serve::ServerHandle::shutdown`])
/// drains it, then print the run summary as JSON.
fn serve(opts: &Options) -> Result<(), Failure> {
    let config = icn_serve::ServeConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        cache_entries: opts.cache_entries,
        telemetry_out: opts.telemetry_out.clone(),
        journal: opts.journal.clone(),
        cache_dir: opts.cache_dir.clone(),
        default_deadline_ms: opts.deadline_ms,
        sim_threads: opts.sim_threads,
        ..icn_serve::ServeConfig::default()
    };
    let durability = match (&config.journal, config.spill_dir()) {
        (Some(_), Some(spill)) => format!(", journal, spill {}", spill.display()),
        (None, Some(spill)) => format!(", disk cache {}", spill.display()),
        (_, None) => String::new(),
    };
    let server = icn_serve::Server::bind(config).map_err(|e| {
        Failure::Io(if e.kind() == std::io::ErrorKind::AddrInUse {
            format!(
                "binding {}: address already in use — is another icn serve \
                 running? pick a free port with --addr",
                opts.addr
            )
        } else {
            format!("binding {}: {e}", opts.addr)
        })
    })?;
    let addr = server.local_addr();
    // Banner via fallible writes, not eprintln!: a supervisor that reads
    // the first line and closes the pipe must not kill the server with
    // an EPIPE panic between the two lines.
    {
        use std::io::Write as _;
        let stderr = std::io::stderr();
        let mut stderr = stderr.lock();
        let _ = writeln!(
            stderr,
            "icn-serve listening on http://{addr} ({} workers, queue depth {}, cache {}{durability})",
            opts.workers, opts.queue_depth, opts.cache_entries
        );
        let _ = writeln!(stderr, "stop with: curl -X POST http://{addr}/v1/shutdown");
    }
    let summary = server
        .run()
        .map_err(|e| Failure::Io(format!("serving on {addr}: {e}")))?;
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).expect("summary serializes")
    );
    Ok(())
}

/// `icn lint config <spec.json> [--json]` — statically check a design point
/// against the paper's pin/board/clock constraints (ICN101–ICN106). The
/// source rules are clippy configuration (`cargo clippy`), not a mode of
/// this command.
fn lint(args: &[String]) -> Result<(), Failure> {
    let mut json = false;
    let mut positional: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if !other.starts_with("--") => positional.push(other),
            other => return Err(Failure::Usage(format!("unknown lint option `{other}`"))),
        }
    }
    let ["config", path] = positional[..] else {
        return Err(Failure::Usage(
            "lint checks a design spec: icn lint config <spec.json> \
             (the source rules run as `cargo clippy`)"
                .into(),
        ));
    };
    let source = std::fs::read_to_string(path)
        .map_err(|e| Failure::Io(format!("cannot read {path}: {e}")))?;
    let check = icn_lint::check_design_json(path, &source);
    if json {
        print!("{}", icn_lint::render_design_json(&check));
    } else {
        print!("{}", icn_lint::render_design_human(&check));
    }
    if check.feasible() {
        Ok(())
    } else {
        Err(Failure::Infeasible(format!(
            "design violates {} constraint(s)",
            check.diagnostics.len()
        )))
    }
}
