//! The service's one observation registry.
//!
//! Everything icn-serve counts and times about itself lives in one
//! [`ServeTelemetry`]: the request counters, the request-latency
//! [`Histogram`] (microseconds), and the journal counters.
//! [`ServeTelemetry::snapshot`] captures them under one lock, together
//! with the job queue's [`QueueStats`] and the result cache's
//! [`CacheStats`], into a [`MetricsSnapshot`]. Every output renders that
//! snapshot: `GET /v1/metrics` ([`crate::metrics::render`]),
//! `GET /v1/stats`, the shutdown [`crate::ServeSummary`], and the
//! `--telemetry-out` file, which is the final `/v1/metrics` exposition
//! written at shutdown (`icn metrics <file>` validates and summarizes it).
//!
//! Per-job lifecycle timing is not kept here: the `/v1/jobs/:id/trace`
//! spans time each job's `queue_wait` and `execute` (see [`crate::trace`]),
//! and the queue counts enqueued, completed, failed and shed jobs. Live
//! job progress ([`Progress`], fed by [`ProgressSink`]) is a per-job gauge
//! for the status and stream endpoints, not a registry family.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use icn_sim::telemetry::{Histogram, DEFAULT_PRECISION};
use icn_sim::{EventSink, SimEvent};

use crate::cache::CacheStats;
use crate::jobs::QueueStats;
use crate::metrics::MetricsSnapshot;

/// Live progress counters for one running job, shared between the worker
/// (writer, via [`ProgressSink`]) and the status/stream endpoints
/// (readers). Plain relaxed atomics: the counters are monotone gauges,
/// not a synchronization protocol.
#[derive(Debug, Default)]
pub struct Progress {
    /// Latest simulation cycle observed.
    pub cycle: AtomicU64,
    /// Packets injected so far.
    pub injected: AtomicU64,
    /// Packets delivered so far.
    pub delivered: AtomicU64,
    /// Packets dropped so far.
    pub dropped: AtomicU64,
}

impl Progress {
    /// Snapshot the four gauges: `(cycle, injected, delivered, dropped)`.
    #[must_use]
    pub fn read(&self) -> (u64, u64, u64, u64) {
        (
            self.cycle.load(Ordering::Relaxed),
            self.injected.load(Ordering::Relaxed),
            self.delivered.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

/// An [`EventSink`] that folds the engine's event stream into a job's
/// [`Progress`] counters, giving `/v1/jobs/:id` (and the streaming
/// endpoint) a live view of a simulation in flight.
#[derive(Debug)]
pub struct ProgressSink(pub Arc<Progress>);

impl EventSink for ProgressSink {
    fn record(&mut self, event: &SimEvent) {
        let p = &self.0;
        match event {
            SimEvent::Inject { cycle, .. } => {
                p.injected.fetch_add(1, Ordering::Relaxed);
                p.cycle.store(*cycle, Ordering::Relaxed);
            }
            SimEvent::Deliver { cycle, .. } => {
                p.delivered.fetch_add(1, Ordering::Relaxed);
                p.cycle.store(*cycle, Ordering::Relaxed);
            }
            SimEvent::Drop { cycle, .. } => {
                p.dropped.fetch_add(1, Ordering::Relaxed);
                p.cycle.store(*cycle, Ordering::Relaxed);
            }
            SimEvent::Enter { cycle, .. }
            | SimEvent::Grant { cycle, .. }
            | SimEvent::Retry { cycle, .. }
            | SimEvent::FaultActivate { cycle, .. }
            | SimEvent::Stall { cycle, .. } => {
                p.cycle.store(*cycle, Ordering::Relaxed);
            }
        }
    }
}

/// The registry's monotone totals, captured under one lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Total HTTP requests handled.
    pub requests: u64,
    /// Responses with a 2xx status.
    pub responses_ok: u64,
    /// Responses with a 429 or 503 status (shed or draining).
    pub rejected: u64,
    /// Jobs abandoned because their wall-clock deadline expired.
    pub deadline_expired: u64,
    /// Records appended to the write-ahead journal since startup.
    pub journal_appends: u64,
    /// Growth-triggered journal compactions since startup (the one
    /// recovery always runs is not counted).
    pub journal_compactions: u64,
    /// Jobs re-enqueued from the journal at the last recovery.
    pub journal_replayed_jobs: u64,
    /// Corrupt or truncated journal tail bytes discarded at the last
    /// recovery.
    pub journal_discarded_bytes: u64,
}

#[derive(Debug)]
struct Inner {
    counters: ServeCounters,
    latency_us: Histogram,
}

/// Thread-safe service registry: counters plus the latency histogram.
#[derive(Debug)]
pub struct ServeTelemetry {
    inner: Mutex<Inner>,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeTelemetry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                counters: ServeCounters::default(),
                latency_us: Histogram::new(DEFAULT_PRECISION),
            }),
        }
    }

    /// Poison-tolerant lock: a panicking recorder must not silence the
    /// registry for everyone else.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one completed HTTP exchange: its status class and latency.
    pub fn record_request(&self, status: u16, micros: u64) {
        let mut inner = self.lock();
        let c = &mut inner.counters;
        c.requests += 1;
        c.responses_ok += u64::from((200..300).contains(&status));
        c.rejected += u64::from(status == 429 || status == 503);
        inner.latency_us.record(micros);
    }

    /// Update the counters under the registry lock, e.g.
    /// `telemetry.update(|c| c.journal_appends += 1)`.
    pub fn update(&self, change: impl FnOnce(&mut ServeCounters)) {
        change(&mut self.lock().counters);
    }

    /// Capture the registry together with the queue and cache statistics:
    /// the single source every service output renders.
    #[must_use]
    pub fn snapshot(&self, queue: QueueStats, cache: CacheStats) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters,
            latency_us: inner.latency_us.clone(),
            queue,
            cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_queue() -> QueueStats {
        QueueStats {
            depth: 0,
            capacity: 8,
            high_water: 6,
            running: 0,
            enqueued: 0,
            completed: 0,
            failed: 0,
            shed: 0,
            mean_service_us: 0,
        }
    }

    #[test]
    fn snapshot_carries_every_registry_count() {
        let t = ServeTelemetry::new();
        t.update(|c| {
            c.journal_replayed_jobs = 3;
            c.journal_discarded_bytes = 17;
        });
        for (status, micros) in [(202, 150), (200, 20), (429, 30), (503, 40), (404, 50)] {
            t.record_request(status, micros);
        }
        t.update(|c| c.deadline_expired += 1);
        t.update(|c| c.journal_appends += 2);
        t.update(|c| c.journal_compactions += 1);
        let cache = CacheStats {
            hits: 2,
            spill_writes: 1,
            ..CacheStats::default()
        };
        let snap = t.snapshot(idle_queue(), cache);
        assert_eq!(
            snap.counters,
            ServeCounters {
                requests: 5,
                responses_ok: 2,
                rejected: 2,
                deadline_expired: 1,
                journal_appends: 2,
                journal_compactions: 1,
                journal_replayed_jobs: 3,
                journal_discarded_bytes: 17,
            }
        );
        assert_eq!(snap.latency_us.count(), 5);
        assert_eq!(snap.latency_us.sum(), 290);
        assert_eq!(snap.cache, cache);
        assert_eq!(snap.queue, idle_queue());
    }

    #[test]
    fn progress_sink_folds_engine_events_into_counters() {
        let progress = Arc::new(Progress::default());
        let mut sink = ProgressSink(Arc::clone(&progress));
        sink.record(&SimEvent::Inject {
            cycle: 3,
            id: 1,
            src: 0,
            dest: 5,
            tracked: true,
        });
        sink.record(&SimEvent::Deliver {
            cycle: 40,
            id: 1,
            dest: 5,
            latency: 37,
        });
        sink.record(&SimEvent::Enter {
            cycle: 41,
            id: 2,
            src: 1,
        });
        let (cycle, injected, delivered, dropped) = progress.read();
        assert_eq!((cycle, injected, delivered, dropped), (41, 1, 1, 0));
    }

    #[test]
    fn latency_summary_reflects_recorded_values() {
        let t = ServeTelemetry::new();
        for us in [100u64, 200, 300, 400] {
            t.record_request(200, us);
        }
        let latency = t.snapshot(idle_queue(), CacheStats::default()).latency_us;
        let p50 = latency.quantile(0.50);
        assert_eq!(latency.count(), 4);
        assert!((100..=400).contains(&p50), "p50 {p50}");
        assert!(
            latency.max() >= 400,
            "max {} (precision-bounded upper estimate)",
            latency.max()
        );
    }
}
