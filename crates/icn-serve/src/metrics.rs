//! First-party Prometheus text exposition (format version 0.0.4).
//!
//! [`render`] turns one [`MetricsSnapshot`] of the service's registry —
//! request counters, the latency histogram, queue and cache statistics,
//! journal totals — into the plain-text exposition format a Prometheus
//! scraper expects: `# HELP` / `# TYPE` headers followed by sample lines,
//! histograms as cumulative `le`-labeled buckets. No client library is
//! involved; the format is simple enough to write (and, more importantly,
//! to *validate*) by hand.
//!
//! The same text is `GET /v1/metrics` and the `--telemetry-out` file
//! written at shutdown.
//!
//! [`parse_exposition`] is the validating parser used by the unit tests,
//! the e2e scrape test, `icn metrics <URL | file>`, and the CI smoke job.
//! It checks the properties a scraper relies on: every sample belongs to
//! a declared family (`# HELP` then `# TYPE`), histogram buckets are
//! cumulative and monotone with a terminal `+Inf` bucket equal to
//! `_count`, and label values use the exposition escaping rules. It is
//! total: any input, however mangled, yields `Ok` or `Err`.

use icn_sim::telemetry::Histogram;

use crate::cache::CacheStats;
use crate::jobs::QueueStats;
use crate::telemetry::ServeCounters;

/// Everything [`render`] needs, captured by
/// [`crate::ServeTelemetry::snapshot`] so all families in one scrape come
/// from the same instant (per subsystem). `/v1/stats`, the shutdown
/// summary and the `--telemetry-out` file render the same snapshot.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// The registry's request and journal totals.
    pub counters: ServeCounters,
    /// Request-latency distribution (microseconds).
    pub latency_us: Histogram,
    /// Job-queue statistics.
    pub queue: QueueStats,
    /// Result-cache statistics.
    pub cache: CacheStats,
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Append one `# HELP`/`# TYPE` header pair.
fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Render the snapshot as Prometheus text exposition (version 0.0.4).
#[must_use]
pub fn render(snap: &MetricsSnapshot) -> String {
    let (c, q, k) = (&snap.counters, &snap.queue, &snap.cache);
    // Every single-sample family: name, type, help, value.
    let families = [
        (
            "icn_requests_total",
            "counter",
            "HTTP requests handled.",
            c.requests,
        ),
        (
            "icn_responses_ok_total",
            "counter",
            "Responses with a 2xx status.",
            c.responses_ok,
        ),
        (
            "icn_requests_rejected_total",
            "counter",
            "Responses with a 429 or 503 status (shed or draining).",
            c.rejected,
        ),
        (
            "icn_deadline_expired_total",
            "counter",
            "Jobs abandoned because their wall-clock deadline expired.",
            c.deadline_expired,
        ),
        (
            "icn_queue_depth",
            "gauge",
            "Jobs currently waiting in the queue.",
            q.depth as u64,
        ),
        (
            "icn_queue_capacity",
            "gauge",
            "Configured job-queue capacity.",
            q.capacity as u64,
        ),
        (
            "icn_queue_running",
            "gauge",
            "Jobs currently being simulated.",
            q.running as u64,
        ),
        (
            "icn_jobs_enqueued_total",
            "counter",
            "Jobs accepted since startup.",
            q.enqueued,
        ),
        (
            "icn_jobs_completed_total",
            "counter",
            "Jobs finished successfully.",
            q.completed,
        ),
        (
            "icn_jobs_failed_total",
            "counter",
            "Jobs that failed.",
            q.failed,
        ),
        (
            "icn_jobs_shed_total",
            "counter",
            "Jobs rejected by the priority shed policy.",
            q.shed,
        ),
        (
            "icn_cache_hits_total",
            "counter",
            "Cache lookups answered from memory or disk.",
            k.hits,
        ),
        (
            "icn_cache_misses_total",
            "counter",
            "Cache lookups that found nothing.",
            k.misses,
        ),
        (
            "icn_cache_evictions_total",
            "counter",
            "Entries displaced from memory to make room.",
            k.evictions,
        ),
        (
            "icn_cache_entries",
            "gauge",
            "Result bodies currently held in memory.",
            k.entries as u64,
        ),
        (
            "icn_cache_capacity",
            "gauge",
            "Configured memory capacity in entries (0 = memory caching disabled).",
            k.capacity as u64,
        ),
        (
            "icn_cache_spill_writes_total",
            "counter",
            "Result bodies written through to the disk spill.",
            k.spill_writes,
        ),
        (
            "icn_cache_spill_write_failures_total",
            "counter",
            "Disk spill writes that failed or were refused (body kept in memory only).",
            k.spill_write_failures,
        ),
        (
            "icn_cache_disk_hits_total",
            "counter",
            "Memory misses answered by the disk spill.",
            k.disk_hits,
        ),
        (
            "icn_cache_disk_discarded_total",
            "counter",
            "Corrupt or truncated disk entries discarded.",
            k.disk_discarded,
        ),
        (
            "icn_journal_appends_total",
            "counter",
            "Records appended to the write-ahead journal.",
            c.journal_appends,
        ),
        (
            "icn_journal_compactions_total",
            "counter",
            "Growth-triggered write-ahead journal compactions since startup.",
            c.journal_compactions,
        ),
        (
            "icn_journal_replayed_jobs_total",
            "counter",
            "Jobs re-enqueued from the journal at the last recovery.",
            c.journal_replayed_jobs,
        ),
        (
            "icn_journal_discarded_bytes_total",
            "counter",
            "Corrupt or truncated journal tail bytes discarded at the last recovery.",
            c.journal_discarded_bytes,
        ),
    ];

    let mut out = String::with_capacity(4096);
    header(
        &mut out,
        "icn_build_info",
        "gauge",
        "Build metadata; always 1.",
    );
    out.push_str(&format!(
        "icn_build_info{{service=\"icn-serve\",version=\"{}\"}} 1\n",
        escape_label(env!("CARGO_PKG_VERSION")),
    ));
    for (name, kind, help, value) in families {
        header(&mut out, name, kind, help);
        out.push_str(&format!("{name} {value}\n"));
    }

    // The latency histogram, as cumulative le-labeled buckets. The
    // telemetry histogram stores log-bucketed value ranges; each range's
    // upper bound becomes one `le` boundary, in increasing order, and the
    // mandatory terminal `+Inf` bucket equals `_count`.
    let latency = &snap.latency_us;
    header(
        &mut out,
        "icn_request_latency_us",
        "histogram",
        "Request handling latency in microseconds.",
    );
    let mut cumulative = 0u64;
    for (_, high, count) in latency.buckets() {
        cumulative += count;
        out.push_str(&format!(
            "icn_request_latency_us_bucket{{le=\"{high}\"}} {cumulative}\n"
        ));
    }
    let count = latency.count();
    out.push_str(&format!(
        "icn_request_latency_us_bucket{{le=\"+Inf\"}} {count}\n"
    ));
    out.push_str(&format!("icn_request_latency_us_sum {}\n", latency.sum()));
    out.push_str(&format!("icn_request_latency_us_count {count}\n"));
    out
}

// ---------------------------------------------------------------------------
// Validating parser
// ---------------------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Full metric name as written (`icn_request_latency_us_bucket`, ...).
    pub name: String,
    /// Labels in written order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf` parses as [`f64::INFINITY`]).
    pub value: f64,
}

impl MetricSample {
    /// The value of label `name`, if present.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One metric family: `# HELP`, `# TYPE`, and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Family name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Declared type (`counter`, `gauge`, `histogram`, ...).
    pub kind: String,
    /// Sample lines, in exposition order.
    pub samples: Vec<MetricSample>,
}

/// A parsed, validated exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct Exposition {
    /// Families in exposition order.
    pub families: Vec<MetricFamily>,
}

impl Exposition {
    /// The family named `name`, if present.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&MetricFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The value of the single unlabeled sample of family `name`.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        let family = self.family(name)?;
        family
            .samples
            .iter()
            .find(|s| s.name == family.name && s.labels.is_empty())
            .map(|s| s.value)
    }
}

/// Whether `name` is a valid metric/label identifier.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Unescape a label value; errors on a dangling or unknown escape.
fn unescape_label(raw: &str) -> Result<String, String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => return Err(format!("unknown escape '\\{other}' in label value")),
            None => return Err("dangling backslash in label value".to_string()),
        }
    }
    Ok(out)
}

/// Label pairs as parsed from a `{k="v",...}` block.
type Labels = Vec<(String, String)>;

/// Parse the `{k="v",...}` label block; `rest` starts just after `{`.
/// Returns the labels and the remainder after the closing `}`.
fn parse_labels(rest: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    let mut s = rest;
    loop {
        s = s.trim_start_matches(',');
        if let Some(after) = s.strip_prefix('}') {
            return Ok((labels, after));
        }
        let eq = s
            .find('=')
            .ok_or_else(|| format!("label without '=' near '{s}'"))?;
        let key = &s[..eq];
        if !valid_name(key) {
            return Err(format!("invalid label name '{key}'"));
        }
        let after_eq = &s[eq + 1..];
        let Some(quoted) = after_eq.strip_prefix('"') else {
            return Err(format!("label value for '{key}' is not quoted"));
        };
        // Find the closing quote, honoring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in quoted.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value for '{key}'"))?;
        labels.push((key.to_string(), unescape_label(&quoted[..end])?));
        s = &quoted[end + 1..];
    }
}

/// Parse a sample value: a float, or `+Inf`/`-Inf`/`NaN`.
fn parse_value(raw: &str) -> Result<f64, String> {
    match raw {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("invalid sample value '{other}'")),
    }
}

/// Whether sample `name` belongs to a family of the given `kind` and
/// family name (histograms own `_bucket`, `_sum`, and `_count` suffixes).
fn belongs_to(sample: &str, family: &str, kind: &str) -> bool {
    if sample == family {
        return true;
    }
    kind == "histogram"
        && sample
            .strip_prefix(family)
            .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count"))
}

/// Validate the histogram invariants of `family`: bucket counts cumulative
/// and non-decreasing in `le` order, terminal `+Inf` bucket present and
/// equal to `_count`.
fn check_histogram(family: &MetricFamily) -> Result<(), String> {
    let name = &family.name;
    let buckets: Vec<&MetricSample> = family
        .samples
        .iter()
        .filter(|s| s.name == format!("{name}_bucket"))
        .collect();
    if buckets.is_empty() {
        return Err(format!("histogram '{name}' has no buckets"));
    }
    let mut prev_le = f64::NEG_INFINITY;
    let mut prev_count = 0.0f64;
    for bucket in &buckets {
        let le_raw = bucket
            .label("le")
            .ok_or_else(|| format!("histogram '{name}' bucket without an le label"))?;
        let le = parse_value(le_raw)?;
        if le <= prev_le {
            return Err(format!(
                "histogram '{name}' buckets out of order: le {le_raw} after {prev_le}"
            ));
        }
        if bucket.value < prev_count {
            return Err(format!(
                "histogram '{name}' bucket counts not cumulative at le {le_raw}"
            ));
        }
        prev_le = le;
        prev_count = bucket.value;
    }
    let last = buckets.last().expect("non-empty");
    if last.label("le") != Some("+Inf") {
        return Err(format!("histogram '{name}' missing the +Inf bucket"));
    }
    let count = family
        .samples
        .iter()
        .find(|s| s.name == format!("{name}_count"))
        .ok_or_else(|| format!("histogram '{name}' missing _count"))?;
    if (last.value - count.value).abs() > f64::EPSILON {
        return Err(format!(
            "histogram '{name}': +Inf bucket {} != _count {}",
            last.value, count.value
        ));
    }
    if !family
        .samples
        .iter()
        .any(|s| s.name == format!("{name}_sum"))
    {
        return Err(format!("histogram '{name}' missing _sum"));
    }
    Ok(())
}

/// Parse and validate a Prometheus text exposition document.
///
/// Enforced: `# HELP` precedes `# TYPE` precedes samples for each family;
/// every sample belongs to the most recently declared family; label
/// escaping is well-formed; histogram buckets are cumulative, monotone in
/// `le`, and end with `+Inf` equal to `_count`.
///
/// # Errors
/// A description of the first violation found, with the offending line.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut families: Vec<MetricFamily> = Vec::new();
    let mut pending_help: Option<(String, String)> = None;

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let err = |msg: String| format!("line {lineno}: {msg}");
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| err("HELP line without help text".to_string()))?;
            if !valid_name(name) {
                return Err(err(format!("invalid metric name '{name}'")));
            }
            if pending_help.is_some() {
                return Err(err(format!(
                    "HELP for '{name}' while another HELP is unpaired"
                )));
            }
            pending_help = Some((name.to_string(), help.to_string()));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| err("TYPE line without a type".to_string()))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(err(format!("unknown metric type '{kind}'")));
            }
            let Some((help_name, help)) = pending_help.take() else {
                return Err(err(format!("TYPE for '{name}' without a preceding HELP")));
            };
            if help_name != name {
                return Err(err(format!(
                    "TYPE name '{name}' does not match HELP name '{help_name}'"
                )));
            }
            if families.iter().any(|f| f.name == name) {
                return Err(err(format!("family '{name}' declared twice")));
            }
            families.push(MetricFamily {
                name: name.to_string(),
                help,
                kind: kind.to_string(),
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // Plain comment.
        }
        if pending_help.is_some() {
            return Err(err("sample between HELP and TYPE".to_string()));
        }

        // A sample line: name[{labels}] value
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .ok_or_else(|| err("sample line without a value".to_string()))?;
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(err(format!("invalid metric name '{name}'")));
        }
        let rest = &line[name_end..];
        let (labels, value_part) = if let Some(after_brace) = rest.strip_prefix('{') {
            parse_labels(after_brace).map_err(&err)?
        } else {
            (Vec::new(), rest)
        };
        let value = parse_value(value_part.trim()).map_err(&err)?;

        let family = families
            .last_mut()
            .ok_or_else(|| err(format!("sample '{name}' before any family declaration")))?;
        if !belongs_to(name, &family.name, &family.kind) {
            return Err(err(format!(
                "sample '{name}' does not belong to family '{}'",
                family.name
            )));
        }
        family.samples.push(MetricSample {
            name: name.to_string(),
            labels,
            value,
        });
    }

    if let Some((name, _)) = pending_help {
        return Err(format!("HELP for '{name}' without a TYPE"));
    }
    for family in &families {
        if family.samples.is_empty() {
            return Err(format!("family '{}' has no samples", family.name));
        }
        if family.kind == "histogram" {
            check_histogram(family)?;
        }
    }
    Ok(Exposition { families })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_sim::telemetry::DEFAULT_PRECISION;
    use proptest::prelude::*;

    fn snapshot() -> MetricsSnapshot {
        let mut latency = Histogram::new(DEFAULT_PRECISION);
        for us in [120u64, 450, 450, 9_000, 120_000] {
            latency.record(us);
        }
        MetricsSnapshot {
            counters: ServeCounters {
                requests: 17,
                responses_ok: 14,
                rejected: 2,
                deadline_expired: 1,
                journal_appends: 23,
                journal_compactions: 2,
                journal_replayed_jobs: 4,
                journal_discarded_bytes: 9,
            },
            latency_us: latency,
            queue: QueueStats {
                depth: 3,
                capacity: 64,
                high_water: 48,
                running: 2,
                enqueued: 11,
                completed: 8,
                failed: 1,
                shed: 2,
                mean_service_us: 500,
            },
            cache: CacheStats {
                hits: 5,
                misses: 6,
                evictions: 1,
                entries: 4,
                capacity: 64,
                spill_writes: 3,
                spill_write_failures: 1,
                disk_hits: 2,
                disk_discarded: 0,
            },
        }
    }

    #[test]
    fn rendered_exposition_parses_and_carries_the_counters() {
        let text = render(&snapshot());
        let parsed = parse_exposition(&text).expect("rendered output must validate");
        assert_eq!(parsed.value("icn_requests_total"), Some(17.0));
        assert_eq!(parsed.value("icn_responses_ok_total"), Some(14.0));
        assert_eq!(parsed.value("icn_requests_rejected_total"), Some(2.0));
        assert_eq!(parsed.value("icn_deadline_expired_total"), Some(1.0));
        assert_eq!(parsed.value("icn_queue_depth"), Some(3.0));
        assert_eq!(parsed.value("icn_jobs_shed_total"), Some(2.0));
        assert_eq!(parsed.value("icn_cache_hits_total"), Some(5.0));
        assert_eq!(parsed.value("icn_cache_spill_writes_total"), Some(3.0));
        assert_eq!(
            parsed.value("icn_cache_spill_write_failures_total"),
            Some(1.0)
        );
        assert_eq!(parsed.value("icn_cache_disk_hits_total"), Some(2.0));
        assert_eq!(parsed.value("icn_journal_appends_total"), Some(23.0));
        assert_eq!(parsed.value("icn_journal_replayed_jobs_total"), Some(4.0));
        assert_eq!(parsed.value("icn_journal_compactions_total"), Some(2.0));
        assert_eq!(parsed.value("icn_journal_discarded_bytes_total"), Some(9.0));
        assert_eq!(parsed.value("icn_cache_capacity"), Some(64.0));

        let build = parsed.family("icn_build_info").unwrap();
        assert_eq!(build.kind, "gauge");
        assert_eq!(build.samples[0].label("service"), Some("icn-serve"));

        let hist = parsed.family("icn_request_latency_us").unwrap();
        assert_eq!(hist.kind, "histogram");
        let count = hist
            .samples
            .iter()
            .find(|s| s.name == "icn_request_latency_us_count")
            .unwrap();
        assert!((count.value - 5.0).abs() < f64::EPSILON);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = render(&snapshot());
        let parsed = parse_exposition(&text).unwrap();
        let hist = parsed.family("icn_request_latency_us").unwrap();
        let buckets: Vec<&MetricSample> = hist
            .samples
            .iter()
            .filter(|s| s.name == "icn_request_latency_us_bucket")
            .collect();
        assert!(buckets.len() >= 2, "expect value buckets plus +Inf");
        for pair in buckets.windows(2) {
            assert!(pair[1].value >= pair[0].value, "cumulative counts");
        }
        assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        // Sample before any family.
        assert!(parse_exposition("icn_x_total 1\n").is_err());
        // TYPE without HELP.
        assert!(parse_exposition("# TYPE icn_x_total counter\nicn_x_total 1\n").is_err());
        // Non-cumulative histogram buckets.
        let bad_hist = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
";
        let err = parse_exposition(bad_hist).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
        // +Inf bucket disagrees with _count.
        let bad_count = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"1\"} 2
h_bucket{le=\"+Inf\"} 2
h_sum 2
h_count 3
";
        let err = parse_exposition(bad_count).unwrap_err();
        assert!(err.contains("_count"), "{err}");
        // Missing +Inf bucket.
        let no_inf = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"1\"} 2
h_sum 2
h_count 2
";
        assert!(parse_exposition(no_inf).is_err());
        // Sample from a different family.
        let stray = "\
# HELP a A.
# TYPE a counter
b 1
";
        assert!(parse_exposition(stray).is_err());
        // Bad escape in a label value.
        let bad_escape = "# HELP a A.\n# TYPE a gauge\na{l=\"x\\q\"} 1\n";
        assert!(parse_exposition(bad_escape).is_err());
    }

    #[test]
    fn label_escaping_round_trips() {
        let doc = "# HELP a A.\n# TYPE a gauge\na{l=\"quote \\\" slash \\\\ nl \\n end\"} 1\n";
        let parsed = parse_exposition(doc).unwrap();
        assert_eq!(
            parsed.families[0].samples[0].label("l"),
            Some("quote \" slash \\ nl \n end")
        );
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// Every single-sample family [`render`] writes, paired with the
    /// snapshot value it must carry.
    fn expected_values(s: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
        let (c, q, k) = (&s.counters, &s.queue, &s.cache);
        vec![
            ("icn_requests_total", c.requests),
            ("icn_responses_ok_total", c.responses_ok),
            ("icn_requests_rejected_total", c.rejected),
            ("icn_deadline_expired_total", c.deadline_expired),
            ("icn_queue_depth", q.depth as u64),
            ("icn_queue_capacity", q.capacity as u64),
            ("icn_queue_running", q.running as u64),
            ("icn_jobs_enqueued_total", q.enqueued),
            ("icn_jobs_completed_total", q.completed),
            ("icn_jobs_failed_total", q.failed),
            ("icn_jobs_shed_total", q.shed),
            ("icn_cache_hits_total", k.hits),
            ("icn_cache_misses_total", k.misses),
            ("icn_cache_evictions_total", k.evictions),
            ("icn_cache_entries", k.entries as u64),
            ("icn_cache_capacity", k.capacity as u64),
            ("icn_cache_spill_writes_total", k.spill_writes),
            (
                "icn_cache_spill_write_failures_total",
                k.spill_write_failures,
            ),
            ("icn_cache_disk_hits_total", k.disk_hits),
            ("icn_cache_disk_discarded_total", k.disk_discarded),
            ("icn_journal_appends_total", c.journal_appends),
            ("icn_journal_compactions_total", c.journal_compactions),
            ("icn_journal_replayed_jobs_total", c.journal_replayed_jobs),
            (
                "icn_journal_discarded_bytes_total",
                c.journal_discarded_bytes,
            ),
        ]
    }

    /// A snapshot built from 26 drawn counters and a drawn latency sample
    /// set. Counters stay below 2^53 so every value is exact as an `f64`.
    fn drawn_snapshot(n: &[u64], latencies: &[u64]) -> MetricsSnapshot {
        let mut latency_us = Histogram::new(DEFAULT_PRECISION);
        for &us in latencies {
            latency_us.record(us);
        }
        let z = |i: usize| usize::try_from(n[i]).unwrap_or(usize::MAX);
        MetricsSnapshot {
            counters: ServeCounters {
                requests: n[0],
                responses_ok: n[1],
                rejected: n[2],
                deadline_expired: n[3],
                journal_appends: n[4],
                journal_compactions: n[5],
                journal_replayed_jobs: n[6],
                journal_discarded_bytes: n[7],
            },
            latency_us,
            queue: QueueStats {
                depth: z(8),
                capacity: z(9),
                high_water: z(10),
                running: z(11),
                enqueued: n[12],
                completed: n[13],
                failed: n[14],
                shed: n[15],
                mean_service_us: n[16],
            },
            cache: CacheStats {
                hits: n[17],
                misses: n[18],
                evictions: n[19],
                entries: z(20),
                capacity: z(21),
                spill_writes: n[22],
                disk_hits: n[23],
                disk_discarded: n[24],
                spill_write_failures: n[25],
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `render` of any snapshot validates, declares exactly the
        /// expected families, and every value reads back as the
        /// snapshot's.
        #[test]
        fn rendered_snapshot_parses_back_to_its_values(
            n in proptest::collection::vec(0u64..(1 << 53), 26),
            latencies in proptest::collection::vec(0u64..10_000_000, 0..40),
        ) {
            let snap = drawn_snapshot(&n, &latencies);
            let text = render(&snap);
            let parsed = parse_exposition(&text)
                .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
            let expected = expected_values(&snap);
            prop_assert_eq!(parsed.families.len(), expected.len() + 2);
            for (name, value) in &expected {
                prop_assert_eq!(parsed.value(name), Some(*value as f64), "{}", name);
            }
            let hist = parsed.family("icn_request_latency_us").expect("histogram family");
            let sample = |name: &str| hist.samples.iter().find(|s| s.name == name).map(|s| s.value);
            let h = &snap.latency_us;
            prop_assert_eq!(sample("icn_request_latency_us_count"), Some(h.count() as f64));
            prop_assert_eq!(sample("icn_request_latency_us_sum"), Some(h.sum() as f64));
            let buckets: Vec<f64> = hist
                .samples
                .iter()
                .filter(|s| s.name == "icn_request_latency_us_bucket")
                .map(|s| s.value)
                .collect();
            let mut cumulative = 0u64;
            let mut want: Vec<f64> = h
                .buckets()
                .map(|(_, _, count)| {
                    cumulative += count;
                    cumulative as f64
                })
                .collect();
            want.push(h.count() as f64);
            prop_assert_eq!(buckets, want);
        }

        /// Byte flips, truncations and duplicated lines of a rendered
        /// document yield `Ok` or `Err` from the parser, never a panic:
        /// `icn metrics <file>` reads whatever is on disk.
        #[test]
        fn mutated_exposition_never_panics_the_parser(
            n in proptest::collection::vec(0u64..(1 << 53), 26),
            latencies in proptest::collection::vec(0u64..10_000_000, 0..20),
            edits in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let mut bytes = render(&drawn_snapshot(&n, &latencies)).into_bytes();
            for edit in edits {
                let at = (edit >> 8) as usize;
                match edit % 3 {
                    0 if !bytes.is_empty() => {
                        let i = at % bytes.len();
                        bytes[i] ^= (edit >> 56) as u8 | 1;
                    }
                    1 => bytes.truncate(at % (bytes.len() + 1)),
                    _ => {
                        let text = String::from_utf8_lossy(&bytes).into_owned();
                        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
                        if !lines.is_empty() {
                            let line = lines[at % lines.len()];
                            lines.insert((at >> 16) % (lines.len() + 1), line);
                        }
                        bytes = lines.concat().into_bytes();
                    }
                }
            }
            let _ = parse_exposition(&String::from_utf8_lossy(&bytes));
        }
    }
}
