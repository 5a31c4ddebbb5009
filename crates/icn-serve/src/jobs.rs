//! Bounded, priority-banded job queue with coalescing, load shedding,
//! deadlines, and crash recovery.
//!
//! `/v1/simulate` misses become jobs: validated [`SimConfig`]s consumed by
//! a fixed pool of worker threads. The queue is **bounded** — when it is
//! full the service answers `429 Too Many Requests` with an honest
//! `Retry-After` (queue depth × observed mean service time ÷ workers)
//! instead of buffering without limit — and **banded**: three FIFOs by
//! [`Priority`], drained high-to-low, with a *high-water mark* at 3/4 of
//! capacity past which `Low`-priority work is shed pre-emptively so that
//! an overload degrades batch traffic first and interactive traffic last.
//!
//! It is also **coalescing**: a request whose content key already has a
//! queued or running job joins that job instead of enqueueing a duplicate,
//! so a thundering herd of identical configurations costs one simulation.
//!
//! Jobs carry an optional wall-clock **deadline**; the worker turns it
//! into a stop predicate for [`icn_sim::Engine::run_bounded`] or
//! [`icn_explore::explore_bounded`], so an over-budget simulation or
//! exploration is abandoned mid-run rather than pinning a worker. And the queue can be **rebuilt from a journal** after a crash
//! ([`JobQueue::with_recovered`] + [`JobQueue::restore`]): terminal jobs
//! come back with their results, unfinished jobs re-enter the queue, and
//! the id counter never moves backwards.
//!
//! The queue entry is the server's only record of a job. It owns the
//! job's wall-clock trace ([`TraceBuilder`]), whose claim and end instants
//! [`JobQueue::take`] and [`JobQueue::finish`] stamp, and it converts to
//! and from the journal's [`JobRecord`] for replay and compaction.
//!
//! Synchronization is `std::sync::{Mutex, Condvar}`, the workspace's one
//! lock idiom. Lock poisoning is survived via [`PoisonError::into_inner`]:
//! a panicking worker must not take the whole service down with it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use icn_sim::SimConfig;

use crate::api::{Priority, ResolvedExplore};
use crate::journal::{JobRecord, Outcome};
use crate::telemetry::Progress;
use crate::trace::TraceBuilder;

/// What a claimed job actually computes. `/v1/simulate` and
/// `/v1/explore` share one queue — admission, coalescing, shedding,
/// deadlines, journaling and recovery are payload-agnostic; only the
/// worker's run path matches on the variant. Boxed so the queue entry
/// stays small whichever endpoint dominates the traffic.
#[derive(Debug)]
pub enum JobPayload {
    /// A validated cycle-level simulation (`POST /v1/simulate`).
    Simulate(Box<SimConfig>),
    /// A resolved design-space sweep (`POST /v1/explore`).
    Explore(Box<ResolvedExplore>),
}

impl JobPayload {
    /// Parse a journaled canonical configuration back into work; the
    /// content key's endpoint prefix says which parser applies. `None`
    /// when it no longer parses.
    fn from_journal(key: &str, config: &str) -> Option<Self> {
        if key.starts_with("explore:") {
            serde_json::from_str(config)
                .ok()
                .map(|r| Self::Explore(Box::new(r)))
        } else {
            serde_json::from_str(config)
                .ok()
                .map(|c| Self::Simulate(Box::new(c)))
        }
    }
}

/// Mean service time assumed before any job has completed, in
/// microseconds (the `Retry-After` fallback; half a second).
pub const DEFAULT_MEAN_SERVICE_US: u64 = 500_000;

/// Terminal jobs kept in memory for status lookups; older ones are pruned
/// so an unattended server's job table stays bounded. (Their *results*
/// outlive pruning in the content-addressed cache; their traces go with
/// them.)
pub const RETAINED_FINISHED_JOBS: usize = 4096;

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; the result body is available.
    Done,
    /// The simulation failed (engine error, deadline, or worker panic).
    Failed,
}

impl JobState {
    /// The lowercase label used in JSON status bodies.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
        }
    }
}

/// Everything the status endpoints need to know about one job.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: u64,
    /// Content key of the configuration the job computes.
    pub key: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Admission priority.
    pub priority: Priority,
    /// The serialized result body (`Some` once [`JobState::Done`]).
    pub result: Option<Arc<String>>,
    /// The failure message (`Some` once [`JobState::Failed`]).
    pub error: Option<String>,
    /// Live simulation progress counters (shared with the worker).
    pub progress: Arc<Progress>,
    /// The job's wall-clock trace (`None` for a job restored from the
    /// journal).
    pub trace: Option<TraceBuilder>,
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// A new job was queued under this id.
    Enqueued(u64),
    /// An identical configuration is already queued or running; this is
    /// its id.
    Coalesced(u64),
    /// The queue is at capacity — tell the client to retry later.
    Full,
    /// The queue is past its high-water mark and this job's priority is
    /// too low to admit under load.
    Shed,
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

/// Counter snapshot for `/v1/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs currently waiting in the queue (all bands).
    pub depth: usize,
    /// Queue capacity.
    pub capacity: usize,
    /// Depth past which `Low`-priority work is shed.
    pub high_water: usize,
    /// Jobs currently being simulated.
    pub running: usize,
    /// Jobs accepted since startup (coalesced requests not counted).
    pub enqueued: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs rejected by the priority shed policy.
    pub shed: u64,
    /// Observed mean service time in microseconds (the `Retry-After`
    /// input; [`DEFAULT_MEAN_SERVICE_US`] until a job completes).
    pub mean_service_us: u64,
}

/// A claimed job, handed to a worker by [`JobQueue::take`].
#[derive(Debug)]
pub struct TakenJob {
    /// The job id.
    pub id: u64,
    /// Content key of the configuration.
    pub key: String,
    /// The validated work to run.
    pub payload: JobPayload,
    /// Absolute wall-clock deadline, if the job carries one.
    pub deadline: Option<Instant>,
    /// Progress counters to feed from the engine's event stream.
    pub progress: Arc<Progress>,
}

#[derive(Debug)]
struct Inner {
    /// One FIFO per band, drained high-to-low.
    bands: [VecDeque<u64>; 3],
    jobs: BTreeMap<u64, Job>,
    /// Content key → job id, for jobs that are queued or running. Entries
    /// leave this map when the job finishes (later identical requests are
    /// then served from the result cache, not coalesced).
    active_by_key: BTreeMap<String, u64>,
    next_id: u64,
    shutting_down: bool,
    running: usize,
    enqueued: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    /// Completed-job service time accumulator, for the `Retry-After` mean.
    service_us_total: u64,
    service_samples: u64,
}

#[derive(Debug)]
struct Job {
    key: String,
    canonical: Arc<String>,
    priority: Priority,
    deadline_ms: Option<u64>,
    deadline: Option<Instant>,
    payload: Option<JobPayload>,
    state: JobState,
    result: Option<Arc<String>>,
    error: Option<String>,
    progress: Arc<Progress>,
    /// Set when journal recovery found two live submits for one content
    /// key (an append-race artifact): this job defers to that one, and its
    /// snapshot resolves through it — the work runs exactly once.
    alias_of: Option<u64>,
    /// The job's wall-clock trace (`None` for a job restored from the
    /// journal).
    trace: Option<TraceBuilder>,
}

/// The shared job queue (cheaply clonable via `Arc` by the server).
#[derive(Debug)]
pub struct JobQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    work_ready: Condvar,
}

/// Survive lock poisoning: a panicked worker already recorded its job as
/// failed (or the job is re-reported failed by the panic guard); the
/// queue's own invariants hold at every await point.
fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Band index for a priority (drain order is index 0 first).
const fn band(priority: Priority) -> usize {
    match priority {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

/// The honest `Retry-After`: how long until a slot frees up, assuming the
/// backlog drains at the observed mean service rate across the worker
/// pool. Clamped to `[1, 60]` seconds — a hint, not a contract.
#[must_use]
pub fn retry_after_secs(depth: usize, workers: usize, mean_service_us: u64) -> u64 {
    let workers = workers.max(1) as u64;
    let depth = depth.max(1) as u64;
    let wait_us = depth.saturating_mul(mean_service_us) / workers;
    wait_us.div_ceil(1_000_000).clamp(1, 60)
}

impl JobQueue {
    /// A queue holding at most `capacity` waiting jobs.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_recovered(capacity, 1)
    }

    /// A queue whose id counter starts at `next_id` — the journal's floor,
    /// so restarted servers never reuse a job id.
    #[must_use]
    pub fn with_recovered(capacity: usize, next_id: u64) -> Self {
        Self {
            capacity,
            inner: Mutex::new(Inner {
                bands: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                jobs: BTreeMap::new(),
                active_by_key: BTreeMap::new(),
                next_id: next_id.max(1),
                shutting_down: false,
                running: 0,
                enqueued: 0,
                completed: 0,
                failed: 0,
                shed: 0,
                service_us_total: 0,
                service_samples: 0,
            }),
            work_ready: Condvar::new(),
        }
    }

    /// Depth past which `Low`-priority work is shed: 3/4 of capacity, at
    /// least 1.
    #[must_use]
    pub fn high_water(&self) -> usize {
        (self.capacity * 3 / 4).max(1)
    }

    /// Try to enqueue a job for `payload` under content `key`.
    ///
    /// `canonical` is the resolved configuration's canonical JSON (kept
    /// for journaling); `deadline_ms` is the job's wall-clock budget;
    /// `trace` is the submit side of the job's trace, which the new job
    /// owns from here on.
    pub fn enqueue(
        &self,
        key: &str,
        payload: JobPayload,
        canonical: Arc<String>,
        priority: Priority,
        deadline_ms: Option<u64>,
        trace: TraceBuilder,
    ) -> Enqueue {
        let mut inner = lock(&self.inner);
        if inner.shutting_down {
            return Enqueue::ShuttingDown;
        }
        if let Some(&id) = inner.active_by_key.get(key) {
            return Enqueue::Coalesced(id);
        }
        let depth: usize = inner.bands.iter().map(VecDeque::len).sum();
        if depth >= self.capacity {
            return Enqueue::Full;
        }
        if depth >= self.high_water() && priority == Priority::Low {
            inner.shed += 1;
            return Enqueue::Shed;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let deadline = deadline_ms
            .filter(|&ms| ms > 0)
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        inner.jobs.insert(
            id,
            Job {
                key: key.to_string(),
                canonical,
                priority,
                deadline_ms,
                deadline,
                payload: Some(payload),
                state: JobState::Queued,
                result: None,
                error: None,
                progress: Arc::new(Progress::default()),
                alias_of: None,
                trace: Some(trace),
            },
        );
        inner.active_by_key.insert(key.to_string(), id);
        inner.bands[band(priority)].push_back(id);
        inner.enqueued += 1;
        drop(inner);
        self.work_ready.notify_one();
        Enqueue::Enqueued(id)
    }

    /// Record a submit-side span that ran after job `id` entered the
    /// queue (the `Submit` journal append).
    pub fn trace_span(&self, id: u64, name: &'static str, started: Instant) {
        let mut inner = lock(&self.inner);
        if let Some(trace) = inner.jobs.get_mut(&id).and_then(|job| job.trace.as_mut()) {
            trace.span(name, started);
        }
    }

    /// Reinstall a journal-recovered job under its original id, returning
    /// whether it is pending again. A completed job comes back done when
    /// `body` (its result, from the disk spill) is present and re-runs
    /// otherwise; a failed job keeps its error. Unfinished jobs
    /// re-enter their band with a fresh deadline, or fail closed when their
    /// configuration no longer parses. A pending job whose key is already
    /// pending (a journal append-race artifact) becomes an *alias* of the
    /// earlier job, so the simulation still runs exactly once. Recovery may
    /// restore more pending jobs than `capacity` — the backlog is honored,
    /// not shed. Restored jobs carry no trace.
    pub fn restore(&self, record: JobRecord, body: Option<Arc<String>>) -> bool {
        let JobRecord {
            id,
            key,
            priority,
            deadline_ms,
            config,
            outcome,
        } = record;
        let mut payload = None;
        let outcome = match (outcome, body) {
            (Outcome::Completed, Some(body)) => Some(Ok(body)),
            (Outcome::Failed(message), _) => Some(Err(message)),
            (Outcome::Completed | Outcome::Pending, _) => {
                payload = JobPayload::from_journal(&key, &config);
                payload.is_none().then(|| {
                    Err("unrecoverable: journaled configuration no longer parses".to_string())
                })
            }
        };
        let pending = outcome.is_none();
        let mut inner = lock(&self.inner);
        inner.next_id = inner.next_id.max(id + 1);
        let mut entry = Job {
            key: key.clone(),
            canonical: Arc::new(config),
            priority,
            deadline_ms,
            deadline: None,
            payload: None,
            state: JobState::Queued,
            result: None,
            error: None,
            progress: Arc::new(Progress::default()),
            alias_of: None,
            trace: None,
        };
        match outcome {
            Some(Ok(body)) => {
                entry.state = JobState::Done;
                entry.result = Some(body);
                inner.completed += 1;
                inner.jobs.insert(id, entry);
            }
            Some(Err(message)) => {
                entry.state = JobState::Failed;
                entry.error = Some(message);
                inner.failed += 1;
                inner.jobs.insert(id, entry);
            }
            None => {
                if let Some(&earlier) = inner.active_by_key.get(&key) {
                    entry.alias_of = Some(earlier);
                    inner.jobs.insert(id, entry);
                    return true;
                }
                entry.deadline = deadline_ms
                    .filter(|&ms| ms > 0)
                    .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
                entry.payload = payload;
                inner.active_by_key.insert(key, id);
                inner.bands[band(priority)].push_back(id);
                inner.enqueued += 1;
                inner.jobs.insert(id, entry);
                drop(inner);
                self.work_ready.notify_one();
            }
        }
        pending
    }

    /// Block until a job is available and claim it, or return `None` when
    /// the queue is shut down and drained — the worker's signal to exit.
    pub fn take(&self) -> Option<TakenJob> {
        let mut inner = lock(&self.inner);
        loop {
            let id = inner.bands.iter_mut().find_map(VecDeque::pop_front);
            if let Some(id) = id {
                inner.running += 1;
                let job = inner.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Running;
                if let Some(trace) = &mut job.trace {
                    trace.claimed = Some(Instant::now());
                }
                let payload = job.payload.take().expect("queued job holds its payload");
                return Some(TakenJob {
                    id,
                    key: job.key.clone(),
                    payload,
                    deadline: job.deadline,
                    progress: Arc::clone(&job.progress),
                });
            }
            if inner.shutting_down {
                return None;
            }
            inner = self
                .work_ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Record a claimed job's outcome, its service time (for the
    /// `Retry-After` mean), and its trace's end; release its coalescing
    /// slot. Prunes the oldest terminal jobs, traces and all, past
    /// [`RETAINED_FINISHED_JOBS`].
    pub fn finish(&self, id: u64, outcome: Result<Arc<String>, String>, service_us: u64) {
        let mut inner = lock(&self.inner);
        inner.running = inner.running.saturating_sub(1);
        if outcome.is_ok() {
            inner.completed += 1;
            inner.service_us_total = inner.service_us_total.saturating_add(service_us);
            inner.service_samples += 1;
        } else {
            inner.failed += 1;
        }
        if let Some(job) = inner.jobs.get_mut(&id) {
            if let Some(trace) = &mut job.trace {
                trace.finished = Some(Instant::now());
            }
            match outcome {
                Ok(body) => {
                    job.state = JobState::Done;
                    job.result = Some(body);
                }
                Err(message) => {
                    job.state = JobState::Failed;
                    job.error = Some(message);
                }
            }
            let key = job.key.clone();
            if inner.active_by_key.get(&key) == Some(&id) {
                inner.active_by_key.remove(&key);
            }
        }
        drop(inner);
        self.prune_finished();
    }

    /// Bound the job table: drop the oldest terminal entries, traces and
    /// all, past [`RETAINED_FINISHED_JOBS`] (their results live on in the
    /// content-addressed cache). Recovery calls it after restoring.
    pub fn prune_finished(&self) {
        let mut inner = lock(&self.inner);
        let terminal: Vec<u64> = inner
            .jobs
            .iter()
            .filter(|(_, j)| {
                matches!(j.state, JobState::Done | JobState::Failed) || j.alias_of.is_some()
            })
            .map(|(&jid, _)| jid)
            .collect();
        if terminal.len() > RETAINED_FINISHED_JOBS {
            for jid in &terminal[..terminal.len() - RETAINED_FINISHED_JOBS] {
                inner.jobs.remove(jid);
            }
        }
    }

    /// Look up a job for the status/result endpoints. An alias job
    /// resolves through its target (same work, same outcome).
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let inner = lock(&self.inner);
        let mut job = inner.jobs.get(&id)?;
        if let Some(target) = job.alias_of {
            job = inner.jobs.get(&target).unwrap_or(job);
        }
        Some(JobSnapshot {
            id,
            key: job.key.clone(),
            state: job.state,
            priority: job.priority,
            result: job.result.clone(),
            error: job.error.clone(),
            progress: Arc::clone(&job.progress),
            trace: job.trace.clone(),
        })
    }

    /// Project every known job into journal form for the compactor,
    /// together with the id floor to persist. Alias jobs report their
    /// target's outcome.
    #[must_use]
    pub fn journal_view(&self) -> (u64, Vec<JobRecord>) {
        let inner = lock(&self.inner);
        let records = inner
            .jobs
            .iter()
            .map(|(&id, job)| {
                let resolved = job.alias_of.and_then(|t| inner.jobs.get(&t)).unwrap_or(job);
                let outcome = match resolved.state {
                    JobState::Done => Outcome::Completed,
                    JobState::Failed => Outcome::Failed(
                        resolved
                            .error
                            .clone()
                            .unwrap_or_else(|| "failed".to_string()),
                    ),
                    JobState::Queued | JobState::Running => Outcome::Pending,
                };
                JobRecord {
                    id,
                    key: job.key.clone(),
                    priority: job.priority,
                    deadline_ms: job.deadline_ms,
                    config: job.canonical.as_str().to_string(),
                    outcome,
                }
            })
            .collect();
        (inner.next_id, records)
    }

    /// Observed mean service time in microseconds, falling back to
    /// [`DEFAULT_MEAN_SERVICE_US`] before the first completion.
    #[must_use]
    pub fn mean_service_us(&self) -> u64 {
        let inner = lock(&self.inner);
        inner
            .service_us_total
            .checked_div(inner.service_samples)
            .unwrap_or(DEFAULT_MEAN_SERVICE_US)
    }

    /// Begin draining: no new jobs are accepted, queued jobs still run,
    /// and blocked workers wake to observe the drain.
    pub fn begin_shutdown(&self) {
        lock(&self.inner).shutting_down = true;
        self.work_ready.notify_all();
    }

    /// Jobs currently waiting (the backpressure gauge).
    #[must_use]
    pub fn depth(&self) -> usize {
        lock(&self.inner).bands.iter().map(VecDeque::len).sum()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let inner = lock(&self.inner);
        let mean_service_us = inner
            .service_us_total
            .checked_div(inner.service_samples)
            .unwrap_or(DEFAULT_MEAN_SERVICE_US);
        QueueStats {
            depth: inner.bands.iter().map(VecDeque::len).sum(),
            capacity: self.capacity,
            high_water: self.high_water(),
            running: inner.running,
            enqueued: inner.enqueued,
            completed: inner.completed,
            failed: inner.failed,
            shed: inner.shed,
            mean_service_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::StagePlan;
    use icn_workloads::Workload;

    fn config(seed: u64) -> SimConfig {
        let mut c = SimConfig::paper_baseline(
            StagePlan::balanced_pow2(16, 16).unwrap(),
            icn_sim::ChipModel::Dmc,
            4,
            Workload::uniform(0.01),
        );
        c.seed = seed;
        c
    }

    fn canon(seed: u64) -> Arc<String> {
        Arc::new(format!("{{\"seed\":{seed}}}"))
    }

    fn push(q: &JobQueue, key: &str, seed: u64, priority: Priority) -> Enqueue {
        q.enqueue(
            key,
            JobPayload::Simulate(Box::new(config(seed))),
            canon(seed),
            priority,
            None,
            TraceBuilder::new(crate::trace::generate_trace_id(), Instant::now()),
        )
    }

    /// A journal record of job `id` with the given outcome.
    fn record(id: u64, key: &str, priority: Priority, outcome: Outcome) -> JobRecord {
        JobRecord {
            id,
            key: key.into(),
            priority,
            deadline_ms: None,
            config: serde_json::to_string(&config(id)).unwrap(),
            outcome,
        }
    }

    /// The names of job `id`'s rendered spans that are closed.
    fn closed_spans(q: &JobQueue, id: u64) -> Vec<String> {
        let body = crate::trace::render(&q.snapshot(id).unwrap()).expect("trace renders");
        let tree: serde_json::Value = serde_json::from_str(&body).unwrap();
        tree["spans"]["children"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|span| span["duration_us"].as_u64().is_some())
            .map(|span| span["name"].as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn identical_keys_coalesce_until_finished() {
        let q = JobQueue::new(4);
        let Enqueue::Enqueued(id) = push(&q, "k", 1, Priority::Normal) else {
            panic!("first enqueue should be accepted");
        };
        assert_eq!(push(&q, "k", 1, Priority::Normal), Enqueue::Coalesced(id));
        let taken = q.take().unwrap();
        assert_eq!((taken.id, taken.key.as_str()), (id, "k"));
        // Still running: identical requests still coalesce.
        assert_eq!(push(&q, "k", 1, Priority::Normal), Enqueue::Coalesced(id));
        q.finish(id, Ok(Arc::new("{}".to_string())), 1000);
        // Finished: the key is free again (the cache takes over from here).
        assert!(matches!(
            push(&q, "k", 1, Priority::Normal),
            Enqueue::Enqueued(_)
        ));
    }

    #[test]
    fn full_queue_rejects_and_snapshot_tracks_state() {
        let q = JobQueue::new(1);
        let Enqueue::Enqueued(id) = push(&q, "a", 1, Priority::Normal) else {
            panic!("expected accept");
        };
        assert_eq!(push(&q, "b", 2, Priority::Normal), Enqueue::Full);
        assert_eq!(q.snapshot(id).unwrap().state, JobState::Queued);
        let _ = q.take().unwrap();
        assert_eq!(q.snapshot(id).unwrap().state, JobState::Running);
        q.finish(id, Err("boom".to_string()), 0);
        let snap = q.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Failed);
        assert_eq!(snap.error.as_deref(), Some("boom"));
        assert_eq!(q.stats().failed, 1);
    }

    #[test]
    fn shutdown_drains_then_releases_workers() {
        let q = JobQueue::new(4);
        let Enqueue::Enqueued(id) = push(&q, "a", 1, Priority::Normal) else {
            panic!("expected accept");
        };
        q.begin_shutdown();
        assert_eq!(push(&q, "b", 2, Priority::Normal), Enqueue::ShuttingDown);
        // The queued job is still handed out before workers are released.
        let taken = q.take().unwrap();
        assert_eq!(taken.id, id);
        q.finish(id, Ok(Arc::new("{}".to_string())), 500);
        assert!(q.take().is_none(), "drained queue should release workers");
    }

    #[test]
    fn high_priority_jumps_the_line_and_low_is_shed_past_high_water() {
        let q = JobQueue::new(4); // high_water = 3
        assert_eq!(q.high_water(), 3);
        assert!(matches!(
            push(&q, "n1", 1, Priority::Normal),
            Enqueue::Enqueued(_)
        ));
        assert!(matches!(
            push(&q, "l1", 2, Priority::Low),
            Enqueue::Enqueued(_)
        ));
        let Enqueue::Enqueued(high_id) = push(&q, "h1", 3, Priority::High) else {
            panic!("expected accept");
        };
        // Depth 3 == high water: Low is shed, Normal still admitted.
        assert_eq!(push(&q, "l2", 4, Priority::Low), Enqueue::Shed);
        assert!(matches!(
            push(&q, "n2", 5, Priority::Normal),
            Enqueue::Enqueued(_)
        ));
        // Depth 4 == capacity: everyone is rejected as Full.
        assert_eq!(push(&q, "h2", 6, Priority::High), Enqueue::Full);
        // Drain order: the High job first despite arriving third.
        assert_eq!(q.take().unwrap().id, high_id);
        assert_eq!(q.stats().shed, 1);
    }

    #[test]
    fn retry_after_is_depth_times_mean_over_workers() {
        // 8 queued jobs × 2s mean ÷ 2 workers = 8s of backlog.
        assert_eq!(retry_after_secs(8, 2, 2_000_000), 8);
        // Light backlog still hints at least one second.
        assert_eq!(retry_after_secs(1, 4, 100_000), 1);
        // Empty queue (a race) behaves like depth 1.
        assert_eq!(retry_after_secs(0, 2, 600_000), 1);
        // Hopeless backlog is clamped to a minute.
        assert_eq!(retry_after_secs(1000, 1, 60_000_000), 60);
        // Division is per-worker: double the pool, halve the hint.
        assert_eq!(retry_after_secs(8, 4, 2_000_000), 4);
    }

    #[test]
    fn mean_service_time_tracks_completions() {
        let q = JobQueue::new(8);
        assert_eq!(q.mean_service_us(), DEFAULT_MEAN_SERVICE_US);
        let Enqueue::Enqueued(a) = push(&q, "a", 1, Priority::Normal) else {
            panic!("expected accept");
        };
        let Enqueue::Enqueued(b) = push(&q, "b", 2, Priority::Normal) else {
            panic!("expected accept");
        };
        let _ = q.take().unwrap();
        let _ = q.take().unwrap();
        q.finish(a, Ok(Arc::new("{}".into())), 1_000_000);
        q.finish(b, Ok(Arc::new("{}".into())), 3_000_000);
        assert_eq!(q.mean_service_us(), 2_000_000);
        // Failures don't pollute the service-time mean.
        let Enqueue::Enqueued(c) = push(&q, "c", 3, Priority::Normal) else {
            panic!("expected accept");
        };
        let _ = q.take().unwrap();
        q.finish(c, Err("boom".into()), 0);
        assert_eq!(q.mean_service_us(), 2_000_000);
    }

    #[test]
    fn restore_rebuilds_terminal_and_pending_jobs() {
        let q = JobQueue::with_recovered(4, 10);
        let done = record(3, "done", Priority::Normal, Outcome::Completed);
        assert!(!q.restore(done, Some(Arc::new("{\"x\":1}".into()))));
        let mut pending = record(5, "pending", Priority::High, Outcome::Pending);
        pending.deadline_ms = Some(60_000);
        assert!(q.restore(pending, None));
        // A configuration that no longer parses fails closed, not pending.
        let mut broken = record(6, "broken", Priority::Normal, Outcome::Pending);
        broken.config = "{".into();
        assert!(!q.restore(broken, None));
        assert_eq!(q.snapshot(6).unwrap().state, JobState::Failed);
        let done = q.snapshot(3).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.result.unwrap().as_str(), "{\"x\":1}");
        assert!(done.trace.is_none(), "restored jobs carry no trace");
        let taken = q.take().unwrap();
        assert_eq!(taken.id, 5);
        assert!(taken.deadline.is_some(), "budget re-granted from now");
        // Ids continue past everything recovered.
        let Enqueue::Enqueued(next) = push(&q, "new", 9, Priority::Normal) else {
            panic!("expected accept");
        };
        assert!(next >= 10, "id floor respected, got {next}");
    }

    #[test]
    fn duplicate_pending_key_becomes_an_alias_and_runs_once() {
        let q = JobQueue::new(4);
        assert!(q.restore(record(1, "k", Priority::Normal, Outcome::Pending), None));
        assert!(q.restore(record(2, "k", Priority::Normal, Outcome::Pending), None));
        let taken = q.take().unwrap();
        assert_eq!(taken.id, 1);
        q.finish(1, Ok(Arc::new("{\"once\":true}".into())), 100);
        // Both ids observe the single run's result.
        for id in [1, 2] {
            let snap = q.snapshot(id).unwrap();
            assert_eq!(snap.state, JobState::Done, "job {id}");
            assert_eq!(snap.result.as_ref().unwrap().as_str(), "{\"once\":true}");
        }
        assert_eq!(q.depth(), 0, "no second copy of the work was queued");
    }

    #[test]
    fn journal_view_projects_outcomes_and_id_floor() {
        let q = JobQueue::with_recovered(4, 7);
        let Enqueue::Enqueued(id) = push(&q, "a", 1, Priority::Low) else {
            panic!("expected accept");
        };
        let (_, records) = q.journal_view();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, Outcome::Pending);
        assert_eq!(records[0].priority, Priority::Low);
        let _ = q.take().unwrap();
        q.finish(id, Ok(Arc::new("{\"r\":1}".into())), 10);
        let (next_id, records) = q.journal_view();
        assert!(next_id > id);
        assert_eq!(records[0].outcome, Outcome::Completed);
    }

    #[test]
    fn trace_retention_equals_job_retention() {
        let q = JobQueue::new(4);
        let jobs = RETAINED_FINISHED_JOBS as u64 + 1;
        for seed in 0..jobs {
            let Enqueue::Enqueued(id) = push(&q, &format!("k{seed}"), seed, Priority::Normal)
            else {
                panic!("expected accept");
            };
            let _ = q.take().unwrap();
            q.finish(id, Ok(Arc::new("{}".into())), 1);
        }
        // The oldest job and its trace are pruned together ...
        assert!(q.snapshot(1).is_none(), "oldest job pruned");
        // ... and every retained job still renders its closed spans.
        for id in 2..=jobs {
            assert_eq!(closed_spans(&q, id), ["queue_wait", "execute"], "job {id}");
        }
    }

    #[test]
    fn job_finished_before_its_submit_returns_renders_closed_spans() {
        // An idle worker can claim and finish a job while the submit
        // handler is still journaling it; the span the handler adds
        // afterwards lands on the same record.
        let q = JobQueue::new(4);
        let Enqueue::Enqueued(id) = push(&q, "a", 1, Priority::Normal) else {
            panic!("expected accept");
        };
        let journal_started = Instant::now();
        let _ = q.take().unwrap();
        q.finish(id, Ok(Arc::new("{}".into())), 1);
        q.trace_span(id, "journal_append", journal_started);
        assert_eq!(
            closed_spans(&q, id),
            ["journal_append", "queue_wait", "execute"]
        );
    }
}
