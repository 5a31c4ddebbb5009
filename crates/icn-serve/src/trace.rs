//! Trace-context propagation: 128-bit trace ids and per-job span trees.
//!
//! Every HTTP exchange carries a **trace id** — a 32-hex-digit (128-bit)
//! identifier echoed back as the `x-icn-trace-id` response header. A
//! client may supply its own id on ingress (any 32-hex-digit value);
//! otherwise the server mints one. The id stamped on the request that
//! *submits* a simulation job becomes the job's trace.
//!
//! Per job, the server records wall-clock spans for the request lifecycle
//! — `parse`, `cache_lookup`, `journal_append`, `queue_wait`, `execute` —
//! as offsets from the submitting request's arrival. `GET
//! /v1/jobs/:id/trace` renders them as a span tree, with the engine's own
//! cycle-domain profile (see `icn_sim::telemetry::SpanProfile`) nested
//! under the `execute` span once the job has finished.
//!
//! Wall clocks live *here*, in the service — the engine stays
//! cycle-deterministic (ICN002); the two domains meet only in the
//! rendered tree, each span labeled with its own unit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde_json::Value;

use crate::jobs::JobSnapshot;

/// Process-wide counter folded into generated ids so two requests in the
/// same nanosecond still differ.
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Mint a 128-bit trace id as 32 lowercase hex digits, from the wall
/// clock, the process id, and a process-wide counter, mixed through
/// splitmix64 so consecutive ids share no visible structure.
#[must_use]
pub fn generate_trace_id() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
    let seq = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let hi = splitmix64(nanos ^ (u64::from(std::process::id()) << 32) ^ seq);
    let lo = splitmix64(hi ^ nanos.rotate_left(17));
    format!("{hi:016x}{lo:016x}")
}

/// One round of splitmix64 — enough mixing for id dispersion (this is an
/// identifier, not a security token).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Whether `s` is an acceptable ingress trace id: exactly 32 hex digits.
#[must_use]
pub fn valid_trace_id(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Resolve the trace id for a request: a valid `x-icn-trace-id` ingress
/// header (lower-cased) wins; otherwise a fresh id is minted.
#[must_use]
pub fn resolve_trace_id(ingress: Option<&str>) -> String {
    match ingress {
        Some(id) if valid_trace_id(id) => id.to_ascii_lowercase(),
        _ => generate_trace_id(),
    }
}

/// One completed span: microsecond offset from the trace origin plus
/// duration.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    name: &'static str,
    start_us: u64,
    duration_us: u64,
}

/// The wall-clock trace of one submitted job. The submit handler builds
/// its `parse` and `cache_lookup` spans; from [`JobQueue::enqueue`] on the
/// job's queue entry owns it: the `journal_append` span is added to the
/// queued job, and [`JobQueue::take`] and [`JobQueue::finish`] stamp the
/// claim and end instants. A trace therefore lives, and is pruned, with
/// its job.
///
/// [`JobQueue::enqueue`]: crate::jobs::JobQueue::enqueue
/// [`JobQueue::take`]: crate::jobs::JobQueue::take
/// [`JobQueue::finish`]: crate::jobs::JobQueue::finish
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace_id: String,
    /// The submitting request's arrival — the origin all offsets are
    /// measured from.
    origin: Instant,
    /// Submit-side spans, in recording order.
    spans: Vec<SpanRecord>,
    /// When a worker claimed the job (`queue_wait` end / `execute` start).
    pub(crate) claimed: Option<Instant>,
    /// When the job reached a terminal state (`execute` end).
    pub(crate) finished: Option<Instant>,
}

impl TraceBuilder {
    /// Start a trace at `origin` (the request's arrival).
    #[must_use]
    pub fn new(trace_id: String, origin: Instant) -> Self {
        Self {
            trace_id,
            origin,
            spans: Vec::new(),
            claimed: None,
            finished: None,
        }
    }

    /// Record a span that started at `started` and ends now.
    pub fn span(&mut self, name: &'static str, started: Instant) {
        let start_us = micros_between(self.origin, started);
        let duration_us = micros_between(started, Instant::now());
        self.spans.push(SpanRecord {
            name,
            start_us,
            duration_us,
        });
    }
}

/// Saturating microseconds from `a` to `b` (0 when `b` precedes `a`).
fn micros_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_micros()).unwrap_or(u64::MAX)
}

/// Render `job`'s span tree as a JSON body, nesting the engine's profile
/// (the result's `telemetry.spans`, present when the job ran with
/// `"profile": true`) under the `execute` span. `None` for a job with no
/// recorded trace: one restored from the journal.
#[must_use]
pub fn render(job: &JobSnapshot) -> Option<String> {
    let trace = job.trace.as_ref()?;
    let micros = |at: Instant| micros_between(trace.origin, at);
    let span_value = |name: &str, start_us: u64, duration_us: Option<u64>| -> Value {
        let mut map = serde_json::Map::new();
        map.insert("name".to_string(), Value::from(name));
        map.insert("start_us".to_string(), Value::from(start_us));
        match duration_us {
            Some(d) => map.insert("duration_us".to_string(), Value::from(d)),
            None => map.insert("in_progress".to_string(), Value::from(true)),
        };
        Value::Object(map)
    };

    let mut children: Vec<Value> = trace
        .spans
        .iter()
        .map(|s| span_value(s.name, s.start_us, Some(s.duration_us)))
        .collect();
    // `queue_wait` starts where the submit side ended, but never after the
    // claim: a worker may take the job while its submit is still
    // journaling.
    let execute_start_us = trace.claimed.map(micros);
    let submitted_us = trace
        .spans
        .iter()
        .map(|s| s.start_us.saturating_add(s.duration_us))
        .max()
        .unwrap_or(0);
    let queued_us = execute_start_us.map_or(submitted_us, |start| submitted_us.min(start));
    children.push(span_value(
        "queue_wait",
        queued_us,
        execute_start_us.map(|start| start - queued_us),
    ));
    if let Some(start) = execute_start_us {
        let mut execute = span_value(
            "execute",
            start,
            trace.finished.map(|end| micros(end).saturating_sub(start)),
        );
        if let (Some(profile), Some(map)) = (engine_profile(job), execute.as_object_mut()) {
            map.insert("engine".to_string(), profile);
        }
        children.push(execute);
    }

    let mut root = serde_json::Map::new();
    root.insert("name".to_string(), Value::from("job"));
    root.insert("start_us".to_string(), Value::from(0u64));
    root.insert(
        "duration_us".to_string(),
        Value::from(micros(trace.finished.unwrap_or_else(Instant::now))),
    );
    root.insert("children".to_string(), Value::Array(children));

    let mut body = serde_json::Map::new();
    body.insert("job".to_string(), Value::from(job.id));
    body.insert("trace_id".to_string(), Value::from(trace.trace_id.as_str()));
    body.insert("status".to_string(), Value::from(job.state.label()));
    body.insert("spans".to_string(), Value::Object(root));
    serde_json::to_string(&Value::Object(body)).ok()
}

/// The engine's cycle-domain span profile from a finished job's result
/// body (`telemetry.spans`), present only when the job ran with
/// `"profile": true`.
fn engine_profile(job: &JobSnapshot) -> Option<Value> {
    let body = job.result.as_ref()?;
    let value: Value = serde_json::from_str(body).ok()?;
    let spans = value.get("telemetry")?.get("spans")?;
    if spans.is_null() {
        None
    } else {
        Some(spans.clone())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::api::Priority;
    use crate::jobs::JobState;

    #[test]
    fn generated_ids_are_valid_and_distinct() {
        let a = generate_trace_id();
        let b = generate_trace_id();
        assert!(valid_trace_id(&a), "{a}");
        assert!(valid_trace_id(&b), "{b}");
        assert_ne!(a, b);
    }

    #[test]
    fn ingress_ids_are_honored_only_when_valid() {
        let good = "00AABB00aabb00aabb00aabb00aabb00";
        assert_eq!(
            resolve_trace_id(Some(good)),
            good.to_ascii_lowercase(),
            "valid ingress id is kept (lower-cased)"
        );
        for bad in [
            "",
            "xyz",
            "00aabb",
            &"0".repeat(33),
            "g0aabb00aabb00aabb00aabb00aabb00",
        ] {
            let resolved = resolve_trace_id(Some(bad));
            assert_ne!(resolved, bad);
            assert!(valid_trace_id(&resolved));
        }
        assert!(valid_trace_id(&resolve_trace_id(None)));
    }

    /// A snapshot of job 7 in `state`, carrying `trace` and `result`.
    fn snapshot(trace: TraceBuilder, state: JobState, result: Option<&str>) -> JobSnapshot {
        JobSnapshot {
            id: 7,
            key: "k".to_string(),
            state,
            priority: Priority::Normal,
            result: result.map(|body| Arc::new(body.to_string())),
            error: None,
            progress: Arc::default(),
            trace: Some(trace),
        }
    }

    #[test]
    fn job_trace_renders_the_full_span_tree() {
        let origin = Instant::now();
        let mut trace = TraceBuilder::new("ab".repeat(16), origin);
        trace.span("parse", origin);
        trace.span("cache_lookup", origin);
        trace.span("journal_append", origin);
        trace.claimed = Some(Instant::now());
        trace.finished = Some(Instant::now());

        let result = r#"{"telemetry":{"spans":{"root":{"name":"run"}}}}"#;
        let body = render(&snapshot(trace, JobState::Done, Some(result))).unwrap();
        let tree: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(tree["job"], 7);
        assert_eq!(tree["trace_id"], "ab".repeat(16));
        assert_eq!(tree["status"], "done");
        assert_eq!(tree["spans"]["name"], "job");
        let children = tree["spans"]["children"].as_array().unwrap();
        let names: Vec<&str> = children
            .iter()
            .map(|c| c["name"].as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            vec![
                "parse",
                "cache_lookup",
                "journal_append",
                "queue_wait",
                "execute"
            ]
        );
        let execute = &children[4];
        assert_eq!(
            execute["engine"]["root"]["name"], "run",
            "engine profile nests under the execute span"
        );
        assert!(execute["duration_us"].as_u64().is_some());
    }

    #[test]
    fn unclaimed_job_reports_queue_wait_in_progress() {
        let trace = TraceBuilder::new(generate_trace_id(), Instant::now());
        let body = render(&snapshot(trace, JobState::Queued, None)).unwrap();
        let tree: Value = serde_json::from_str(&body).unwrap();
        let children = tree["spans"]["children"].as_array().unwrap();
        let queue_wait = children.iter().find(|c| c["name"] == "queue_wait").unwrap();
        assert_eq!(queue_wait["in_progress"], true);
        assert!(
            !children.iter().any(|c| c["name"] == "execute"),
            "no execute span before a worker claims the job"
        );
    }
}
