//! The HTTP server: routing, worker pools, durability, and shutdown.
//!
//! Two fixed thread pools share an [`Arc`]ed state:
//!
//! * **HTTP workers** pull accepted connections off a bounded handoff
//!   queue, parse one request, route it, and reply (`Connection: close`).
//! * **Job workers** pull validated simulation configs off the
//!   [`JobQueue`] and run them behind a panic guard; the engine's own
//!   watchdog (PR 1) bounds each job's cycles, a per-request wall-clock
//!   deadline bounds its time (via [`icn_sim::Engine::run_bounded`]), so a
//!   wedged configuration becomes a typed `Failed` job, never a stuck
//!   worker.
//!
//! With `--journal` the server is **crash-safe**: every job transition is
//! appended (fsync'd) to a write-ahead journal before the client observes
//! it, and [`Server::bind`] replays the journal on startup — completed
//! results come back servable, unfinished jobs re-enter the queue, and a
//! torn tail from `kill -9` is truncated, not trusted. With `--cache-dir`
//! the result cache spills to disk, so cached bodies survive restarts and
//! memory eviction both (see [`crate::spill`]).
//!
//! Overload degrades in layers: the accept handoff queue sheds whole
//! connections at 503; the job queue sheds `Low`-priority work past its
//! high-water mark and everything at capacity, each 429 carrying an
//! honest `Retry-After` derived from the observed mean service time.
//!
//! The server observes itself through one registry ([`ServeTelemetry`]):
//! [`ServeTelemetry::snapshot`] captures it with the queue and cache
//! statistics, and `/v1/metrics`, `/v1/stats`, the [`ServeSummary`] and
//! the `--telemetry-out` file all render that one snapshot.
//!
//! Graceful shutdown (`POST /v1/shutdown` or [`ServerHandle::shutdown`])
//! stops accepting, drains queued connections and jobs, writes the final
//! `/v1/metrics` exposition to `--telemetry-out` if one was requested, and
//! returns a [`ServeSummary`] of the same snapshot.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use icn_sim::{SimConfig, SimError};
use serde::Serialize;

use crate::api::{
    content_key, stream_key, ExploreRequest, Limits, ResolvedExplore, SimulateRequest,
};
use crate::cache::{CacheStats, ResultCache};
use crate::http::{read_request, ChunkedResponse, HttpError, Request, Response};
use crate::jobs::{retry_after_secs, Enqueue, JobPayload, JobQueue, JobState, TakenJob};
use crate::journal::{compaction_records, Journal, Record, Recovery};
use crate::metrics::{self, MetricsSnapshot};
use crate::spill::DiskStore;
use crate::telemetry::{ProgressSink, ServeTelemetry};
use crate::trace::{self, resolve_trace_id, TraceBuilder};

/// Connections buffered between the acceptor and the HTTP workers.
const CONN_QUEUE_CAPACITY: usize = 128;

/// How often `/v1/jobs/:id/stream` emits a progress line.
const STREAM_POLL: Duration = Duration::from_millis(100);

/// Upper bound on one progress stream's lifetime (a defense against
/// clients that never disconnect; 10 minutes at [`STREAM_POLL`]).
const STREAM_MAX_TICKS: u32 = 6000;

/// Server configuration (see `icn serve --help` for the CLI surface).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7919` (port 0 picks a free port).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// HTTP worker threads.
    pub http_workers: usize,
    /// Job-queue capacity (beyond it, `/v1/simulate` answers 429).
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables memory caching).
    pub cache_entries: usize,
    /// Write the final `/v1/metrics` exposition here on shutdown.
    pub telemetry_out: Option<String>,
    /// Write-ahead job journal path (None = no crash safety).
    pub journal: Option<String>,
    /// Result-cache disk spill directory (None = memory-only cache).
    pub cache_dir: Option<String>,
    /// Default per-job wall-clock budget in milliseconds (0 = none);
    /// requests may override with their own `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Threads each explore job fans its candidate chunks across (1 =
    /// serial, 0 = one per core). A deployment knob, not part of the job
    /// config: outcomes — and therefore content-addressed cache keys and
    /// journal replays — are byte-identical at any budget. Simulation
    /// jobs always run on their worker's thread.
    pub sim_threads: usize,
    /// Per-job guard rails.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7919".to_string(),
            workers: 2,
            http_workers: 4,
            queue_depth: 64,
            cache_entries: 256,
            telemetry_out: None,
            journal: None,
            cache_dir: None,
            default_deadline_ms: 0,
            sim_threads: 1,
            limits: Limits::default(),
        }
    }
}

/// What the server did, returned by [`Server::run`] after shutdown: the
/// final snapshot's totals, the same numbers the `--telemetry-out` file
/// carries.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// HTTP requests handled.
    pub requests: u64,
    /// Simulation jobs completed.
    pub jobs_completed: u64,
    /// Simulation jobs failed.
    pub jobs_failed: u64,
    /// Final cache counters.
    pub cache: CacheStats,
}

impl From<&MetricsSnapshot> for ServeSummary {
    fn from(snap: &MetricsSnapshot) -> Self {
        Self {
            requests: snap.counters.requests,
            jobs_completed: snap.queue.completed,
            jobs_failed: snap.queue.failed,
            cache: snap.cache,
        }
    }
}

/// Bounded handoff queue between the acceptor and the HTTP workers.
#[derive(Debug, Default)]
struct ConnQueue {
    inner: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    /// Push a connection; returns it back if the queue is full.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.0.len() >= CONN_QUEUE_CAPACITY {
            return Err(stream);
        }
        inner.0.push_back(stream);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop a connection, blocking; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(stream) = inner.0.pop_front() {
                return Some(stream);
            }
            if inner.1 {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop accepting pushes after the current backlog drains.
    fn close(&self) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.ready.notify_all();
    }
}

/// State shared by the acceptor and both worker pools.
#[derive(Debug)]
struct ServerState {
    config: ServeConfig,
    /// The bound listen address.
    addr: SocketAddr,
    cache: Mutex<ResultCache>,
    jobs: JobQueue,
    /// The one observation registry (see [`snapshot`]).
    telemetry: ServeTelemetry,
    shutdown: AtomicBool,
    /// The write-ahead journal, when durability is enabled. Lock order:
    /// journal before jobs (compaction holds the journal lock while
    /// snapshotting the queue); nothing locks the other way around.
    journal: Option<Mutex<Journal>>,
    /// Whether the cache has a disk spill; read only by
    /// [`ServerState::journal_body`].
    spill_active: bool,
}

impl ServerState {
    /// The result cache, surviving a poisoned lock like every other lock
    /// in the server.
    fn cache(&self) -> MutexGuard<'_, ResultCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A completed body as the journal carries it, for both a worker's
    /// `Complete` record and compaction. With a disk spill the body is
    /// already durable under its content key, so the journal leaves it
    /// out; without one it goes inline.
    fn journal_body(&self, body: &str) -> Option<String> {
        (!self.spill_active).then(|| body.to_string())
    }

    /// Reinstall a replayed journal: orphan results and inline bodies warm
    /// the cache, and every job returns under its original id.
    fn replay(&self, recovery: Recovery) {
        for (key, body) in recovery.orphan_results {
            self.cache().insert(&key, Arc::new(body));
        }
        let mut requeued = 0u64;
        for mut job in recovery.jobs {
            // A completed job's body is inline in its `Complete` record or
            // in the spill, which a cache probe reaches; a lost body makes
            // the job re-run.
            let body = match job.outcome.as_mut() {
                Some(Ok(inline)) => {
                    let mut cache = self.cache();
                    match inline.take() {
                        Some(inline) => {
                            let body = Arc::new(inline);
                            cache.insert(&job.key, Arc::clone(&body));
                            Some(body)
                        }
                        None => cache.get(&job.key),
                    }
                }
                _ => None,
            };
            requeued += u64::from(self.jobs.restore(job, body));
        }
        self.telemetry.update(|c| {
            c.journal_replayed_jobs = requeued;
            c.journal_discarded_bytes = recovery.discarded_bytes;
        });
    }

    /// Rewrite `journal` down to the queue's jobs.
    fn compact(&self, journal: &mut Journal) -> std::io::Result<()> {
        let (next_id, jobs) = self.jobs.journal_view(|body| self.journal_body(body));
        journal.compact(&compaction_records(next_id, &jobs))
    }
}

/// A handle for observing and stopping a running server from another
/// thread (the tests and the CLI's signal-free shutdown path).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound listen address (useful when the config asked for port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Request graceful shutdown: stop accepting, drain, return.
    pub fn shutdown(&self) {
        request_shutdown(&self.state);
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the configured address and, when a journal and/or cache spill
    /// directory is configured, recover the previous run's state: replay
    /// the journal (truncating any torn tail), restore completed results
    /// into the cache, re-enqueue unfinished jobs, and compact the journal
    /// down to what is still live.
    ///
    /// # Errors
    /// Returns the bind error (address in use, permission, bad syntax) or
    /// a journal/spill I/O error. Journal *corruption* is not an error —
    /// it is the expected signature of a crash, handled by truncation.
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let spill = config
            .cache_dir
            .as_deref()
            .map(|dir| DiskStore::open(Path::new(dir)).map(Arc::new))
            .transpose()?;
        let cache = match spill {
            Some(store) => ResultCache::with_spill(config.cache_entries, store),
            None => ResultCache::new(config.cache_entries),
        };
        let recovered = config
            .journal
            .as_deref()
            .map(|path| Journal::recover(Path::new(path)))
            .transpose()?;
        let next_id = recovered
            .as_ref()
            .map_or(1, |(_, recovery)| recovery.next_id);

        let mut state = ServerState {
            addr,
            cache: Mutex::new(cache),
            jobs: JobQueue::with_recovered(config.queue_depth, next_id),
            telemetry: ServeTelemetry::new(),
            shutdown: AtomicBool::new(false),
            journal: None,
            spill_active: config.cache_dir.is_some(),
            config,
        };
        if let Some((mut journal, recovery)) = recovered {
            state.replay(recovery);
            // Compact away everything the spill now owns.
            state.compact(&mut journal)?;
            state.journal = Some(Mutex::new(journal));
        }
        Ok(Self {
            listener,
            state: Arc::new(state),
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle for stopping the server from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until shutdown is requested, then drain and summarize.
    ///
    /// # Errors
    /// Returns an I/O error only for a failed `--telemetry-out` write;
    /// per-connection errors are answered on the wire and never abort the
    /// server.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let Self { listener, state } = self;
        let conns = Arc::new(ConnQueue::default());

        std::thread::scope(|scope| {
            let mut http_handles = Vec::new();
            for _ in 0..state.config.http_workers.max(1) {
                let state = Arc::clone(&state);
                let conns = Arc::clone(&conns);
                http_handles.push(scope.spawn(move || {
                    while let Some(mut stream) = conns.pop() {
                        handle_connection(&state, &mut stream);
                    }
                }));
            }
            let mut job_handles = Vec::new();
            for _ in 0..state.config.workers.max(1) {
                let state = Arc::clone(&state);
                job_handles.push(scope.spawn(move || job_worker(&state)));
            }

            // Acceptor: block in `accept`; `request_shutdown` wakes it
            // with a connection of its own once the flag is set.
            loop {
                let accepted = listener.accept();
                if state.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match accepted {
                    Ok((stream, _)) => {
                        if let Err(mut stream) = conns.push(stream) {
                            // Handoff queue full: shed load at the door.
                            let _ = Response::json(503, r#"{"error":"server overloaded"}"#)
                                .with_header("retry-after", "1")
                                .write(&mut stream);
                        }
                    }
                    // Out of descriptors, say: back off rather than spin.
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }

            // Drain: connections first (they may still enqueue nothing —
            // the shutdown flag 503s new work), then the job queue.
            conns.close();
            for handle in http_handles {
                let _ = handle.join();
            }
            state.jobs.begin_shutdown();
            for handle in job_handles {
                let _ = handle.join();
            }
        });

        let last = snapshot(&state);
        if let Some(path) = &state.config.telemetry_out {
            std::fs::write(path, metrics::render(&last))?;
        }
        Ok(ServeSummary::from(&last))
    }
}

/// Flip the shutdown flag (idempotent) and wake the acceptor, blocked in
/// `accept`, by connecting to the listener: on its own address, or on
/// loopback when it is bound to the unspecified address.
fn request_shutdown(state: &ServerState) {
    state.shutdown.store(true, Ordering::Release);
    let mut wake = state.addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

/// Capture the registry with the queue and cache statistics: the one
/// source of `/v1/metrics`, `/v1/stats`, the [`ServeSummary`] and the
/// `--telemetry-out` file.
fn snapshot(state: &ServerState) -> MetricsSnapshot {
    let queue = state.jobs.stats();
    let cache = state.cache().stats();
    state.telemetry.snapshot(queue, cache)
}

/// Append one record to the journal, if one is configured. Append errors
/// are swallowed by design: losing one record's durability must not fail
/// the in-memory job it describes.
fn journal_append(state: &ServerState, record: &Record) {
    if let Some(journal) = &state.journal {
        let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
        if journal.append(record).is_ok() {
            state.telemetry.update(|c| c.journal_appends += 1);
        }
    }
}

/// Compact the journal if it has outgrown its threshold.
fn maybe_compact(state: &ServerState) {
    let Some(journal) = &state.journal else {
        return;
    };
    let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
    if !journal.wants_compaction() {
        return;
    }
    if state.compact(&mut journal).is_ok() {
        state.telemetry.update(|c| c.journal_compactions += 1);
    }
}

/// Run one simulation behind a panic guard, feeding its event stream into
/// the job's progress counters and honoring its wall-clock deadline.
fn run_job(
    state: &ServerState,
    config: SimConfig,
    progress: Arc<crate::telemetry::Progress>,
    deadline: Option<Instant>,
) -> Result<Arc<String>, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut engine =
            icn_sim::Engine::try_with_options(config, icn_sim::EngineOptions::default())?;
        engine.set_event_sink(ProgressSink(progress));
        match deadline {
            Some(deadline) => engine.run_bounded(move || Instant::now() >= deadline),
            None => Ok(engine.run()),
        }
    }));
    match result {
        Ok(Ok(result)) => match serde_json::to_string(&result) {
            Ok(body) => Ok(Arc::new(body)),
            Err(e) => Err(format!("serializing result: {e}")),
        },
        Ok(Err(e)) => {
            if matches!(e, SimError::DeadlineExceeded { .. }) {
                state.telemetry.update(|c| c.deadline_expired += 1);
            }
            Err(e.to_string())
        }
        Err(_) => Err("simulation panicked; see server logs".to_string()),
    }
}

/// Run one design-space exploration behind a panic guard. The engine's
/// wave-merge progress hook feeds the job's counters (`cycle` :=
/// candidates evaluated, `injected` := grid size, `delivered` := live
/// frontier size), which is what `/v1/jobs/:id/stream` renders as
/// frontier updates. The response body is the `ExploreOutcome` JSON —
/// free of wall-clock fields, so cache hits stay byte-identical.
fn run_explore_job(
    state: &ServerState,
    resolved: &ResolvedExplore,
    progress: &Arc<crate::telemetry::Progress>,
) -> Result<Arc<String>, String> {
    let total = resolved.spec.candidate_count().unwrap_or(0);
    progress.injected.store(total, Ordering::Relaxed);
    let result = catch_unwind(AssertUnwindSafe(|| {
        // The fan-out budget is a deployment knob; the explorer's output
        // bytes are identical at any thread count.
        let options = icn_explore::ExploreOptions {
            threads: state.config.sim_threads,
            chunk: icn_explore::DEFAULT_CHUNK,
            spot_checks: resolved.spot_checks,
        };
        let report = |evaluated: u64, frontier: u64| {
            progress.cycle.store(evaluated, Ordering::Relaxed);
            progress.delivered.store(frontier, Ordering::Relaxed);
        };
        icn_explore::explore(&resolved.spec, &options, Some(&report))
    }));
    match result {
        Ok(Ok(outcome)) => match serde_json::to_string(&outcome) {
            Ok(body) => Ok(Arc::new(body)),
            Err(e) => Err(format!("serializing outcome: {e}")),
        },
        Ok(Err(message)) => Err(message),
        Err(_) => Err("exploration panicked; see server logs".to_string()),
    }
}

/// One job worker: claim, journal the claim, run behind a panic guard
/// and deadline, publish to the cache, journal the outcome.
fn job_worker(state: &ServerState) {
    while let Some(taken) = state.jobs.take() {
        let TakenJob {
            id,
            key,
            payload,
            deadline,
            progress,
        } = taken;
        journal_append(state, &Record::Start { id });
        let started = Instant::now();
        let outcome = match deadline {
            Some(deadline) if Instant::now() >= deadline => {
                state.telemetry.update(|c| c.deadline_expired += 1);
                Err("deadline exceeded before the job started".to_string())
            }
            deadline => match payload {
                JobPayload::Simulate(config) => run_job(state, *config, progress, deadline),
                JobPayload::Explore(resolved) => run_explore_job(state, &resolved, &progress),
            },
        };
        let micros = elapsed_micros(started);
        match &outcome {
            Ok(body) => {
                state.cache().insert(&key, Arc::clone(body));
                journal_append(
                    state,
                    &Record::Complete {
                        id,
                        key: key.clone(),
                        body: state.journal_body(body),
                    },
                );
            }
            Err(error) => {
                journal_append(
                    state,
                    &Record::Fail {
                        id,
                        error: error.clone(),
                    },
                );
            }
        }
        state.jobs.finish(id, outcome, micros);
        maybe_compact(state);
    }
}

/// Serve one connection: read a request, resolve its trace id, route it,
/// time it, reply (echoing `x-icn-trace-id`). The progress-stream
/// endpoint takes over the socket for chunked output; everything else
/// goes through [`route`].
fn handle_connection(state: &ServerState, stream: &mut TcpStream) {
    let started = Instant::now();
    let request = match read_request(stream) {
        Ok(request) => request,
        Err(HttpError::Closed) => return,
        Err(e @ (HttpError::BadRequest(_) | HttpError::Io(_))) => {
            let body = error_body(&e.to_string());
            let _ = Response::json(400, body).write(stream);
            return;
        }
        Err(e @ HttpError::TooLarge(_)) => {
            let body = error_body(&e.to_string());
            let _ = Response::json(413, body).write(stream);
            return;
        }
    };
    if request.method == "GET" {
        if let Some(id_text) = request
            .path
            .strip_prefix("/v1/jobs/")
            .and_then(|rest| rest.strip_suffix("/stream"))
        {
            if let Ok(id) = id_text.parse::<u64>() {
                stream_job(state, stream, id, started);
                return;
            }
        }
    }
    let trace_id = resolve_trace_id(request.header("x-icn-trace-id"));
    let response = route(state, &request, &trace_id, started);
    state
        .telemetry
        .record_request(response.status, elapsed_micros(started));
    let _ = response
        .with_header("x-icn-trace-id", trace_id)
        .write(stream);
}

/// `GET /v1/jobs/:id/stream`: chunked ndjson progress lines (one every
/// [`STREAM_POLL`]) until the job reaches a terminal state, the client
/// hangs up, or [`STREAM_MAX_TICKS`] elapse. Fed by the worker's
/// [`ProgressSink`] counters.
fn stream_job(state: &ServerState, stream: &mut TcpStream, id: u64, started: Instant) {
    let record = |status: u16| {
        state
            .telemetry
            .record_request(status, elapsed_micros(started));
    };
    if state.jobs.snapshot(id).is_none() {
        record(404);
        let _ = Response::json(404, error_body(&format!("no such job: {id}"))).write(stream);
        return;
    }
    let Ok(mut chunked) = ChunkedResponse::begin(stream, 200, "application/x-ndjson") else {
        record(200);
        return;
    };
    let mut ticks = 0u32;
    // Exits when the job goes terminal, the tick cap fires, or the job
    // is pruned mid-stream (snapshot returns None).
    while let Some(job) = state.jobs.snapshot(id) {
        let (cycle, injected, delivered, dropped) = job.progress.read();
        let terminal = matches!(job.state, JobState::Done | JobState::Failed);
        let line = format!(
            "{{\"job\":{id},\"status\":\"{}\",\"cycle\":{cycle},\"injected\":{injected},\"delivered\":{delivered},\"dropped\":{dropped}{}}}\n",
            job.state.label(),
            if terminal {
                format!(",\"result_url\":\"/v1/jobs/{id}/result\"")
            } else {
                String::new()
            }
        );
        if chunked.chunk(line.as_bytes()).is_err() {
            record(200);
            return; // client hung up; nothing left to finish
        }
        ticks += 1;
        if terminal || ticks >= STREAM_MAX_TICKS {
            break;
        }
        std::thread::sleep(STREAM_POLL);
    }
    let _ = chunked.finish();
    record(200);
}

/// Dispatch one parsed request. `trace_id` and `started` describe the
/// enclosing exchange; `/v1/simulate` records them as the submit side of
/// the job's trace.
fn route(state: &ServerState, request: &Request, trace_id: &str, started: Instant) -> Response {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/v1/healthz") => Response::json(200, r#"{"status":"ok"}"#),
        ("GET", "/v1/stats") => stats(state),
        // Scrapers keep working through a drain: metrics sit above the
        // shutdown guard, like /v1/stats.
        ("GET", "/v1/metrics") => metrics_endpoint(state),
        ("POST", "/v1/shutdown") => {
            request_shutdown(state);
            Response::json(200, r#"{"status":"draining"}"#)
        }
        _ if state.shutdown.load(Ordering::Acquire) => {
            Response::json(503, r#"{"error":"server is draining"}"#)
        }
        ("POST", "/v1/evaluate") => evaluate(state, &request.body),
        ("POST", "/v1/simulate") => simulate(state, &request.body, trace_id, started),
        ("POST", "/v1/explore") => explore(state, &request.body, trace_id, started),
        ("GET", _) if path.starts_with("/v1/jobs/") => job_endpoints(state, path),
        (
            _,
            "/v1/evaluate" | "/v1/simulate" | "/v1/explore" | "/v1/shutdown" | "/v1/healthz"
            | "/v1/stats" | "/v1/metrics",
        ) => Response::json(
            405,
            error_body(&format!("method {method} not allowed here")),
        ),
        _ => Response::json(404, error_body(&format!("no such endpoint: {path}"))),
    }
}

/// `GET /v1/metrics`: Prometheus text exposition of the live snapshot.
fn metrics_endpoint(state: &ServerState) -> Response {
    Response::metrics_text(200, metrics::render(&snapshot(state)))
}

/// `POST /v1/evaluate`: closed-form design evaluation, cached in memory
/// only: the verdict recomputes in about a microsecond, far less than the
/// spill's fsync.
fn evaluate(state: &ServerState, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::json(400, error_body("body is not UTF-8"));
    };
    let spec: icn_lint::DesignSpec = match serde_json::from_str(text) {
        Ok(spec) => spec,
        Err(e) => return Response::json(400, error_body(&format!("invalid design spec: {e}"))),
    };
    let canonical = match serde_json::to_string(&spec) {
        Ok(canonical) => canonical,
        Err(e) => return Response::json(500, error_body(&format!("canonicalizing spec: {e}"))),
    };
    let key = content_key("evaluate", &canonical);
    if let Some(body) = state.cache().get(&key) {
        return Response::json(200, body.as_str()).with_header("x-icn-cache", "hit");
    }
    let check = icn_lint::check_design("<request>", &spec);
    let body = Arc::new(icn_lint::render_design_json(&check));
    state.cache().insert_memory(&key, Arc::clone(&body));
    Response::json(200, body.as_str()).with_header("x-icn-cache", "miss")
}

/// The honest 429: `Retry-After` from the live backlog and service rate.
fn too_many_requests(state: &ServerState, message: &str) -> Response {
    let secs = retry_after_secs(
        state.jobs.depth(),
        state.config.workers,
        state.jobs.mean_service_us(),
    );
    Response::json(429, error_body(message)).with_header("retry-after", secs.to_string())
}

/// `POST /v1/simulate`: serve from cache or enqueue a job, recording the
/// submit-side spans (`parse`, `cache_lookup`, `journal_append`) of the
/// job's trace as it goes.
fn simulate(state: &ServerState, body: &[u8], trace_id: &str, started: Instant) -> Response {
    let mut trace = TraceBuilder::new(trace_id.to_string(), started);
    let parse_started = Instant::now();
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::json(400, error_body("body is not UTF-8"));
    };
    let request: SimulateRequest = match serde_json::from_str(text) {
        Ok(request) => request,
        Err(e) => {
            return Response::json(400, error_body(&format!("invalid simulate request: {e}")))
        }
    };
    let config = match request.resolve(&state.config.limits) {
        Ok(config) => config,
        Err(message) => return Response::json(400, error_body(&message)),
    };
    let canonical = match serde_json::to_string(&config) {
        Ok(canonical) => canonical,
        Err(e) => return Response::json(500, error_body(&format!("canonicalizing config: {e}"))),
    };
    trace.span("parse", parse_started);
    let key = stream_key("simulate", &canonical);
    let lookup_started = Instant::now();
    if let Some(body) = state.cache().get(&key) {
        return Response::json(200, body.as_str()).with_header("x-icn-cache", "hit");
    }
    trace.span("cache_lookup", lookup_started);
    submit_job(
        state,
        &key,
        JobPayload::Simulate(Box::new(config)),
        Arc::new(canonical),
        request.priority.unwrap_or_default(),
        job_deadline(state, request.deadline_ms),
        trace,
    )
}

/// `POST /v1/explore`: serve a finished sweep from the cache or enqueue
/// it as a job on the same bounded queue `/v1/simulate` uses — the same
/// coalescing, shedding, journaling, and polling/streaming URLs apply.
fn explore(state: &ServerState, body: &[u8], trace_id: &str, started: Instant) -> Response {
    let mut trace = TraceBuilder::new(trace_id.to_string(), started);
    let parse_started = Instant::now();
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::json(400, error_body("body is not UTF-8"));
    };
    let request: ExploreRequest = match serde_json::from_str(text) {
        Ok(request) => request,
        Err(e) => return Response::json(400, error_body(&format!("invalid explore request: {e}"))),
    };
    let resolved = match request.resolve(&state.config.limits) {
        Ok(resolved) => resolved,
        Err(message) => return Response::json(400, error_body(&message)),
    };
    let canonical = match serde_json::to_string(&resolved) {
        Ok(canonical) => canonical,
        Err(e) => return Response::json(500, error_body(&format!("canonicalizing grid: {e}"))),
    };
    trace.span("parse", parse_started);
    let key = stream_key("explore", &canonical);
    let lookup_started = Instant::now();
    if let Some(body) = state.cache().get(&key) {
        return Response::json(200, body.as_str()).with_header("x-icn-cache", "hit");
    }
    trace.span("cache_lookup", lookup_started);
    submit_job(
        state,
        &key,
        JobPayload::Explore(Box::new(resolved)),
        Arc::new(canonical),
        request.priority.unwrap_or_default(),
        job_deadline(state, request.deadline_ms),
        trace,
    )
}

/// A job's wall-clock budget: the request's own, else the server default.
/// `deadline_ms: 0` explicitly opts out of the server default.
fn job_deadline(state: &ServerState, requested: Option<u64>) -> Option<u64> {
    match requested {
        Some(0) => None,
        Some(ms) => Some(ms),
        None => (state.config.default_deadline_ms > 0).then_some(state.config.default_deadline_ms),
    }
}

/// The shared submit tail: enqueue a payload with its trace, journal the
/// submit, and answer 202/429/503 — identical semantics for every job
/// endpoint.
fn submit_job(
    state: &ServerState,
    key: &str,
    payload: JobPayload,
    canonical: Arc<String>,
    priority: crate::api::Priority,
    deadline_ms: Option<u64>,
    trace: TraceBuilder,
) -> Response {
    match state.jobs.enqueue(
        key,
        payload,
        Arc::clone(&canonical),
        priority,
        deadline_ms,
        trace,
    ) {
        Enqueue::Enqueued(id) => {
            let journal_started = Instant::now();
            journal_append(
                state,
                &Record::Submit {
                    id,
                    key: key.to_string(),
                    priority,
                    deadline_ms,
                    config: canonical.as_str().to_string(),
                },
            );
            if state.journal.is_some() {
                state.jobs.trace_span(id, "journal_append", journal_started);
            }
            accepted(id, "queued")
        }
        Enqueue::Coalesced(id) => accepted(id, "coalesced"),
        Enqueue::Full => too_many_requests(state, "job queue is full; retry shortly"),
        Enqueue::Shed => too_many_requests(
            state,
            "queue past high water; low-priority work is shed under load",
        ),
        Enqueue::ShuttingDown => Response::json(503, r#"{"error":"server is draining"}"#),
    }
}

/// The 202 body for an accepted or coalesced simulation job.
fn accepted(id: u64, disposition: &str) -> Response {
    Response::json(
        202,
        format!(
            r#"{{"job":{id},"status":"{disposition}","status_url":"/v1/jobs/{id}","result_url":"/v1/jobs/{id}/result","stream_url":"/v1/jobs/{id}/stream"}}"#
        ),
    )
}

/// `GET /v1/jobs/:id`, `GET /v1/jobs/:id/result`, and
/// `GET /v1/jobs/:id/trace`.
fn job_endpoints(state: &ServerState, path: &str) -> Response {
    let rest = &path["/v1/jobs/".len()..];
    let (id_text, want_result, want_trace) = match rest.strip_suffix("/result") {
        Some(id_text) => (id_text, true, false),
        None => match rest.strip_suffix("/trace") {
            Some(id_text) => (id_text, false, true),
            None => (rest, false, false),
        },
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::json(400, error_body(&format!("bad job id `{id_text}`")));
    };
    let Some(job) = state.jobs.snapshot(id) else {
        return Response::json(404, error_body(&format!("no such job: {id}")));
    };
    if want_trace {
        return match trace::render(&job) {
            Some(body) => Response::json(200, body),
            // The job exists but predates this process (journal recovery).
            None => Response::json(404, error_body(&format!("no trace recorded for job {id}"))),
        };
    }
    if want_result {
        return match (job.state, job.result, job.error) {
            (JobState::Done, Some(body), _) => Response::json(200, body.as_str()),
            (JobState::Failed, _, error) => Response::json(
                500,
                error_body(&error.unwrap_or_else(|| "job failed".to_string())),
            ),
            (pending, ..) => Response::json(
                409,
                format!(
                    r#"{{"error":"job not finished","status":"{}"}}"#,
                    pending.label()
                ),
            ),
        };
    }
    let error_field = job.error.map_or(String::new(), |e| {
        format!(r#","error":{}"#, json_string(&e))
    });
    let (cycle, injected, delivered, dropped) = job.progress.read();
    Response::json(
        200,
        format!(
            r#"{{"job":{id},"status":"{}","result_url":"/v1/jobs/{id}/result","stream_url":"/v1/jobs/{id}/stream","cycle":{cycle},"injected":{injected},"delivered":{delivered},"dropped":{dropped}{error_field}}}"#,
            job.state.label()
        ),
    )
}

/// `GET /v1/stats`: the [`snapshot`] as nested JSON, for dashboards and
/// the smoke tests.
fn stats(state: &ServerState) -> Response {
    /// The response envelope (serialized, not hand-formatted: it nests).
    #[derive(Serialize)]
    struct StatsBody {
        requests: u64,
        cache: CacheStats,
        queue: QueueBody,
        jobs: JobsBody,
        latency_us: LatencyBody,
    }
    #[derive(Serialize)]
    struct QueueBody {
        depth: usize,
        capacity: usize,
        high_water: usize,
        running: usize,
        workers: usize,
        shed: u64,
        mean_service_us: u64,
    }
    #[derive(Serialize)]
    struct JobsBody {
        enqueued: u64,
        completed: u64,
        failed: u64,
    }
    #[derive(Serialize)]
    struct LatencyBody {
        count: u64,
        p50: u64,
        p95: u64,
        p99: u64,
        max: u64,
    }
    let MetricsSnapshot {
        counters,
        latency_us,
        queue,
        cache,
    } = snapshot(state);
    let body = StatsBody {
        requests: counters.requests,
        cache,
        queue: QueueBody {
            depth: queue.depth,
            capacity: queue.capacity,
            high_water: queue.high_water,
            running: queue.running,
            workers: state.config.workers,
            shed: queue.shed,
            mean_service_us: queue.mean_service_us,
        },
        jobs: JobsBody {
            enqueued: queue.enqueued,
            completed: queue.completed,
            failed: queue.failed,
        },
        latency_us: LatencyBody {
            count: latency_us.count(),
            p50: latency_us.quantile(0.50),
            p95: latency_us.quantile(0.95),
            p99: latency_us.quantile(0.99),
            max: latency_us.max(),
        },
    };
    match serde_json::to_string(&body) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::json(500, error_body(&format!("serializing stats: {e}"))),
    }
}

/// A `{"error": ...}` body with the message JSON-escaped.
fn error_body(message: &str) -> String {
    format!(r#"{{"error":{}}}"#, json_string(message))
}

/// JSON-encode a string (quotes and escapes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Elapsed wall-clock microseconds since `started`, saturating.
fn elapsed_micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}
