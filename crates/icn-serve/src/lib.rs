//! A concurrent design-evaluation and simulation job service over the
//! Franklin & Dhar reproduction stack, exposed as a dependency-light
//! HTTP/1.1 JSON API (`std::net` plus first-party worker pools — the
//! build environment vendors no async runtime or HTTP framework).
//!
//! Endpoints:
//!
//! * `POST /v1/evaluate` — closed-form design evaluation: a design spec
//!   (the same JSON `icn lint config` reads) is checked against the
//!   paper's pin/area/board/clock constraints (ICN100–ICN106) and
//!   answered inline.
//! * `POST /v1/simulate` — cycle-level simulation as an asynchronous job:
//!   the request resolves to a validated `SimConfig`; a cached result is
//!   returned immediately (`200`, `x-icn-cache: hit`), otherwise the job
//!   is queued (`202` with polling URLs) or rejected with `429` +
//!   `Retry-After` when the bounded queue is full.
//! * `POST /v1/explore` — design-space exploration as an asynchronous
//!   job: a grid (built-in name or inline axes) is resolved, checked
//!   against the server's candidate limit, and run through the
//!   `icn-explore` streaming engine; the result is the Pareto frontier
//!   plus optional simulator spot-checks, cached by content like every
//!   other endpoint. Progress streams as ndjson frontier updates.
//! * `GET /v1/jobs/:id` / `GET /v1/jobs/:id/result` — job status (with
//!   live progress counters) and the finished result body.
//! * `GET /v1/jobs/:id/stream` — chunked ndjson progress stream, fed by
//!   the worker's engine event sink, until the job reaches a terminal
//!   state.
//! * `GET /v1/jobs/:id/trace` — the job's span tree: request-lifecycle
//!   wall-clock spans (parse, cache lookup, journal append, queue wait,
//!   execute), with the engine's cycle-domain profile nested under the
//!   execute span when the job ran with `"profile": true`.
//! * `GET /v1/healthz`, `GET /v1/stats` — liveness and counters.
//! * `GET /v1/metrics` — Prometheus text exposition (first-party
//!   [`metrics`] renderer and validating parser; no client library).
//! * `POST /v1/shutdown` — graceful drain (the signal-free stop switch).
//!
//! Three properties do the heavy lifting:
//!
//! 1. **Determinism makes results cacheable forever.** A simulation is a
//!    pure function of its resolved configuration (PR 3's replay-parity
//!    guarantee), so the [`cache`] is content-addressed: requests are
//!    resolved to the fully explicit config, canonically re-serialized,
//!    and hashed ([`api::content_key`]; simulated bodies also hash the
//!    simulator's [`icn_sim::STREAM_VERSION`], [`api::stream_key`]). Cache
//!    hits are byte-identical to the first response.
//! 2. **Bounded queues turn overload into backpressure.** Both the
//!    connection handoff and the [`jobs`] queue are bounded; beyond
//!    capacity the service answers `429`/`503` with `Retry-After` instead
//!    of queueing without limit, and identical in-flight requests
//!    coalesce onto one job.
//! 3. **The engine's watchdog bounds every job.** Workers run simulations
//!    behind a panic guard with the PR 1 watchdog active (zero watchdogs
//!    are clamped at resolution), so a pathological configuration becomes
//!    a `Failed` job, never a wedged worker thread.
//!
//! Two further properties make the service **crash-safe and
//! overload-tolerant** (PR 6):
//!
//! 4. **A write-ahead [`journal`] makes jobs durable.** With `--journal`,
//!    every submit/start/complete/fail is an fsync'd, checksummed record;
//!    restart replays the file (truncating any torn tail from `kill -9`),
//!    restores finished results, and re-enqueues unfinished jobs — each
//!    submitted job reaches a terminal state exactly once. Completed
//!    bodies live only in the [`spill`] directory behind the memory LRU
//!    (`--cache-dir`, or `<journal>.spill` beside the journal and pruned
//!    with it), so a journal record never carries a body. Journal records and spill
//!    files share one checksummed [`frame`] codec.
//! 5. **Degradation is prioritized and honest.** Jobs carry a
//!    [`api::Priority`] and optional wall-clock deadline; past the
//!    queue's high-water mark `Low` work is shed first, and every `429`'s
//!    `Retry-After` is computed from the observed mean service time, not
//!    a constant.
//!
//! The service observes itself through one [`telemetry`] registry —
//! request counters, a request-latency histogram, journal counters —
//! snapshotted with the queue and cache statistics; `/v1/metrics`,
//! `/v1/stats`, the shutdown summary and the `--telemetry-out` file (the
//! final exposition, read by `icn metrics <file>`) all render that one
//! snapshot.

pub mod api;
pub mod cache;
pub mod frame;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod metrics;
pub mod server;
pub mod spill;
pub mod telemetry;
pub mod trace;

pub use api::{
    content_key, stream_key, ExploreRequest, Limits, Priority, ResolvedExplore, SimulateRequest,
    MIN_WATCHDOG_CYCLES,
};
pub use cache::{CacheStats, ResultCache};
pub use jobs::{
    retry_after_secs, Enqueue, JobPayload, JobQueue, JobSnapshot, JobState, QueueStats,
    DEFAULT_MEAN_SERVICE_US,
};
pub use journal::{JobRecord, Journal, Outcome, Record, Recovery};
pub use metrics::{parse_exposition, Exposition, MetricFamily, MetricSample, MetricsSnapshot};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use spill::DiskStore;
pub use telemetry::{Progress, ProgressSink, ServeCounters, ServeTelemetry};
pub use trace::{generate_trace_id, resolve_trace_id, valid_trace_id, TraceBuilder};
