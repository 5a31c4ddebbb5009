//! Metrics, the run record, and the host/commit stamp on it.
//!
//! The last line a run prints is the machine-readable result object
//! (`correct`, `attempted`, `failed`, `metrics`). With `--record PATH` the
//! same numbers are also written as a stamped record: host identity,
//! `nproc`, the thread counts each layer ran with, and a fingerprint of
//! the source tree, so two records can be compared only when they come
//! from the same host (see [`compare`]).

use std::fmt::Write as _;
use std::path::Path;

use serde_json::Value;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value (1 for a single count or total).
    pub samples: usize,
}

impl Metric {
    /// A metric with its unit and sample count.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// A metric whose value passed the percentile guard, or the error that
/// keeps it from being printed.
///
/// # Errors
/// Returns a message naming the metric and its sample count when the
/// guard refused the percentile.
pub fn guarded(
    name: &str,
    unit: &'static str,
    value: Option<f64>,
    samples: usize,
) -> Result<Metric, String> {
    value
        .map(|v| Metric::new(name, unit, v, samples))
        .ok_or_else(|| format!("{name}: too few samples ({samples}) for the percentile guard"))
}

/// Whether `name` is a legal metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operation counts and correctness verdicts of one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations the run issued.
    pub attempted: u64,
    /// Operations that failed, plus failed correctness checks.
    pub failed: u64,
    /// Named verdicts, in the order they were checked.
    pub checks: Vec<(String, bool)>,
}

impl Tally {
    /// Record a correctness verdict; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Thread counts the run's layers executed with.
#[derive(Debug, Clone, Copy)]
pub struct Threads {
    /// Threads behind the gated (end-to-end) figures.
    pub gated: usize,
    /// Threads behind the ungated `*_2t` figures of a traced run.
    pub ungated: usize,
    /// Closed-loop clients driving the service (traced runs only).
    pub clients: usize,
}

/// Host identity and code identity of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Host name (from `/proc/sys/kernel/hostname`).
    pub host: String,
    /// CPU model string (from `/proc/cpuinfo`).
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// Fingerprint of the benchmarked source tree.
    pub commit: String,
}

impl Stamp {
    /// Stamp this host and the source tree the benchmark was built from.
    pub fn current() -> Self {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
        let host = read("/proc/sys/kernel/hostname").trim().to_string();
        Self {
            host: if host.is_empty() {
                "unknown".into()
            } else {
                host
            },
            cpu,
            nproc: nproc(),
            commit: source_fingerprint(),
        }
    }

    /// The identity two comparable records must share.
    pub fn same_host(&self, other: &Self) -> bool {
        self.host == other.host && self.cpu == other.cpu && self.nproc == other.nproc
    }
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// FNV-1a over every `.rs` and `Cargo.toml` under the repository's
/// `crates/` and this benchmark's `src/`, in sorted path order. The
/// benchmark runs from plain source checkouts with no version control,
/// so the tree itself is the commit identity.
pub fn source_fingerprint() -> String {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [bench.join("../crates"), bench.join("src")] {
        collect_sources(&dir, &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            let relative = file.strip_prefix(bench).unwrap_or(file);
            feed(relative.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    format!("src-{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Host and code identity.
    pub stamp: Stamp,
    /// Thread counts used.
    pub threads: Threads,
    /// Counts and verdicts.
    pub tally: Tally,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

/// Format a finite number for JSON with every digit Rust's shortest
/// round-trip formatting gives.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    Value::from(s).to_string()
}

impl Record {
    /// The one-line result object a harness reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (`{value, unit}` each).
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
        )
    }

    /// Human-readable report lines: stamp, verdicts, and every metric with
    /// its unit and sample count.
    pub fn report_lines(&self) -> Vec<String> {
        let s = &self.stamp;
        let t = &self.threads;
        let mut lines = vec![
            format!(
                "# workload {} seed {} seconds {} trace {}",
                self.workload,
                self.seed,
                self.seconds,
                u8::from(self.trace)
            ),
            format!(
                "# host {} cpu \"{}\" nproc {} commit {}",
                s.host, s.cpu, s.nproc, s.commit
            ),
            format!(
                "# threads gated {} ungated {} clients {}",
                t.gated, t.ungated, t.clients
            ),
        ];
        for (name, ok) in &self.tally.checks {
            lines.push(format!(
                "# check {name}: {}",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        lines.push(format!(
            "# operations attempted {} failed {}",
            self.tally.attempted, self.tally.failed
        ));
        for m in &self.metrics {
            lines.push(format!(
                "# metric {:<34} {:>16} {:<6} (n={})",
                m.name,
                number(m.value),
                m.unit,
                m.samples
            ));
        }
        lines
    }

    /// The stamped record written by `--record`.
    pub fn to_json(&self) -> String {
        let mut metrics = serde_json::Map::new();
        for m in &self.metrics {
            let mut entry = serde_json::Map::new();
            entry.insert("value".into(), Value::from(m.value));
            entry.insert("unit".into(), Value::from(m.unit));
            entry.insert("samples".into(), Value::from(m.samples as u64));
            metrics.insert(m.name.clone(), Value::Object(entry));
        }
        let checks: serde_json::Map<String, Value> = self
            .tally
            .checks
            .iter()
            .map(|(name, ok)| (name.clone(), Value::from(*ok)))
            .collect();
        let mut root = serde_json::Map::new();
        root.insert("workload".into(), Value::from(self.workload.as_str()));
        root.insert("seed".into(), Value::from(self.seed));
        root.insert("seconds".into(), Value::from(self.seconds));
        root.insert("trace".into(), Value::from(self.trace));
        root.insert("host".into(), Value::from(self.stamp.host.as_str()));
        root.insert("cpu".into(), Value::from(self.stamp.cpu.as_str()));
        root.insert("nproc".into(), Value::from(self.stamp.nproc as u64));
        root.insert("commit".into(), Value::from(self.stamp.commit.as_str()));
        root.insert(
            "threads_gated".into(),
            Value::from(self.threads.gated as u64),
        );
        root.insert(
            "threads_ungated".into(),
            Value::from(self.threads.ungated as u64),
        );
        root.insert("clients".into(), Value::from(self.threads.clients as u64));
        root.insert("correct".into(), Value::from(self.tally.correct()));
        root.insert("attempted".into(), Value::from(self.tally.attempted));
        root.insert("failed".into(), Value::from(self.tally.failed));
        root.insert("checks".into(), Value::Object(checks));
        root.insert("metrics".into(), Value::Object(metrics));
        Value::Object(root).to_string()
    }
}

/// A stored record, as much of it as [`compare`] needs.
#[derive(Debug, Clone)]
pub struct Stored {
    /// Workload name.
    pub workload: String,
    /// Host identity.
    pub stamp: Stamp,
    /// `(name, value, unit)` per metric.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parse a record written by `--record`.
///
/// # Errors
/// Returns a message when the text is not a record.
pub fn parse_stored(text: &str) -> Result<Stored, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let field = |key: &str| -> Result<String, String> {
        root.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("record lacks `{key}`"))
    };
    let nproc = root
        .get("nproc")
        .and_then(Value::as_u64)
        .ok_or("record lacks `nproc`")?;
    let mut metrics = Vec::new();
    if let Some(map) = root.get("metrics").and_then(Value::as_object) {
        for (name, entry) in map {
            let value = entry.get("value").and_then(Value::as_f64);
            let unit = entry.get("unit").and_then(Value::as_str);
            if let (Some(value), Some(unit)) = (value, unit) {
                metrics.push((name.clone(), value, unit.to_string()));
            }
        }
    }
    Ok(Stored {
        workload: field("workload")?,
        stamp: Stamp {
            host: field("host")?,
            cpu: field("cpu")?,
            nproc: nproc as usize,
            commit: field("commit")?,
        },
        metrics,
    })
}

/// Compare two records metric by metric, as `B / A` ratios.
///
/// # Errors
/// Refuses records from different hosts (different host name, CPU model
/// or `nproc`) or different workloads: such a ratio measures the
/// machine, not the code.
pub fn compare(a: &Stored, b: &Stored) -> Result<Vec<String>, String> {
    if !a.stamp.same_host(&b.stamp) {
        return Err(format!(
            "records come from different hosts ({} / {} / nproc {} vs {} / {} / nproc {}); refusing to compare",
            a.stamp.host, a.stamp.cpu, a.stamp.nproc, b.stamp.host, b.stamp.cpu, b.stamp.nproc
        ));
    }
    if a.workload != b.workload {
        return Err(format!(
            "records measure different workloads ({} vs {})",
            a.workload, b.workload
        ));
    }
    let mut lines = vec![format!(
        "# {} : {} -> {}",
        a.workload, a.stamp.commit, b.stamp.commit
    )];
    for (name, before, unit) in &a.metrics {
        if let Some((_, after, _)) = b.metrics.iter().find(|(n, ..)| n == name) {
            let ratio = if *before == 0.0 {
                f64::NAN
            } else {
                after / before
            };
            lines.push(format!(
                "{name:<34} {before:>14.6} -> {after:>14.6} {unit:<6} x{ratio:.4}"
            ));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(host: &str) -> Record {
        Record {
            workload: "sim_paper2048".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            stamp: Stamp {
                host: host.into(),
                cpu: "cpu".into(),
                nproc: 2,
                commit: "src-0".into(),
            },
            threads: Threads {
                gated: 1,
                ungated: 2,
                clients: 0,
            },
            tally: Tally {
                attempted: 3,
                failed: 0,
                checks: vec![("ok".into(), true)],
            },
            metrics: vec![Metric::new("p50_ms", "ms", 1.25, 40)],
        }
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("engine.step_us_p50"));
        assert!(valid_name("setup_s"));
        assert!(valid_name("0ratio-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("per/s"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let line = record("h").result_line();
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys.len(), 4);
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(v.get(key).is_some(), "{key}");
        }
        let metric = &v["metrics"]["p50_ms"];
        assert_eq!(metric["value"].as_f64(), Some(1.25));
        assert_eq!(metric["unit"].as_str(), Some("ms"));
    }

    #[test]
    fn a_failed_check_is_a_failed_operation() {
        let mut tally = Tally::default();
        tally.check("a", true);
        assert!(tally.correct());
        tally.check("b", false);
        assert_eq!(tally.failed, 1);
        assert!(!tally.correct());
    }

    #[test]
    fn records_round_trip_and_refuse_other_hosts() {
        let a = parse_stored(&record("alpha").to_json()).unwrap();
        let same = parse_stored(&record("alpha").to_json()).unwrap();
        let other = parse_stored(&record("beta").to_json()).unwrap();
        assert_eq!(
            a.metrics,
            vec![("p50_ms".to_string(), 1.25, "ms".to_string())]
        );
        assert!(compare(&a, &same).is_ok());
        let err = compare(&a, &other).unwrap_err();
        assert!(err.contains("different hosts"), "{err}");
    }
}
