//! The structured simulation event stream.
//!
//! Every observable state change in the engine — injection, network entry,
//! output grant, delivery, retry, final drop, fault activation, watchdog
//! stall — is describable as a [`SimEvent`]. When a sink is attached
//! (see [`crate::Engine::set_event_sink`]) the engine reports each event as
//! it happens; with no sink attached the emission sites compile down to a
//! single `Option` check, preserving the zero-cost-when-disabled guarantee.
//!
//! The stream is the engine's only packet tracer: a [`TraceBuilder`] sink
//! reconstructs a complete [`crate::PacketTrace`] for every packet from
//! the events alone.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError};

use serde::{Deserialize, Serialize};

use crate::fault::FaultTarget;
use crate::trace::{HopTrace, PacketTrace};

/// One structured engine event. Serialized externally tagged, so a JSONL
/// stream reads as `{"Inject":{...}}`, `{"Grant":{...}}`, … one per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[expect(missing_docs, reason = "field meanings are documented on the variants")]
pub enum SimEvent {
    /// A packet was generated and enqueued at its source.
    Inject {
        cycle: u64,
        id: u64,
        src: u32,
        dest: u32,
        tracked: bool,
    },
    /// A packet's head left its source queue and entered the first-stage
    /// buffer.
    Enter { cycle: u64, id: u64, src: u32 },
    /// A module output was granted to a packet (`head_out_at` is when the
    /// head appears at the module output).
    Grant {
        cycle: u64,
        id: u64,
        stage: u32,
        module: u32,
        in_port: u32,
        out_port: u32,
        head_out_at: u64,
    },
    /// A packet's tail cleared its destination (`cycle` is the delivery
    /// cycle; `latency` is source-to-destination in cycles).
    Deliver {
        cycle: u64,
        id: u64,
        dest: u32,
        latency: u64,
    },
    /// A fault-dropped packet was scheduled for re-offer by its source.
    Retry {
        cycle: u64,
        id: u64,
        attempt: u32,
        retry_at: u64,
    },
    /// A packet's loss became final (retries exhausted or source dead).
    Drop {
        cycle: u64,
        id: u64,
        src: u32,
        dest: u32,
        attempts: u32,
    },
    /// A scheduled fault took effect.
    FaultActivate {
        cycle: u64,
        target: FaultTarget,
        permanent: bool,
    },
    /// The no-progress watchdog fired; the run terminates.
    Stall { cycle: u64, live_packets: u64 },
}

impl SimEvent {
    /// The event's short kind label (the JSONL tag).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Inject { .. } => "inject",
            Self::Enter { .. } => "enter",
            Self::Grant { .. } => "grant",
            Self::Deliver { .. } => "deliver",
            Self::Retry { .. } => "retry",
            Self::Drop { .. } => "drop",
            Self::FaultActivate { .. } => "fault_activate",
            Self::Stall { .. } => "stall",
        }
    }
}

/// Where engine events go. Implementations must be cheap per call: the
/// engine invokes `record` from its hot loop (only when a sink is
/// attached). `Debug` lets the engine that owns a sink derive it too.
pub trait EventSink: Send + std::fmt::Debug {
    /// Observe one event.
    fn record(&mut self, event: &SimEvent);
}

/// An in-memory sink for tests and in-process consumers. Cloning shares
/// the underlying buffer, so a caller can keep a handle while the engine
/// owns the sink.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    #[expect(
        clippy::disallowed_types,
        reason = "consumer-side sink handle shared with test/CLI code; the engine only appends from the thread that steps it"
    )]
    events: Arc<std::sync::Mutex<Vec<SimEvent>>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the events recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<SimEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// How many events of each kind have been recorded, keyed by
    /// [`SimEvent::kind`].
    #[must_use]
    pub fn counts_by_kind(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for event in self
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            *counts.entry(event.kind()).or_insert(0) += 1;
        }
        counts
    }
}

impl EventSink for MemorySink {
    fn record(&mut self, event: &SimEvent) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(*event);
    }
}

/// Reconstructs a [`PacketTrace`] for every packet from the event
/// stream. Cloning shares the underlying map, like [`MemorySink`].
#[derive(Debug, Default, Clone)]
pub struct TraceBuilder {
    #[expect(
        clippy::disallowed_types,
        reason = "consumer-side trace handle, same sharing shape as MemorySink"
    )]
    traces: Arc<std::sync::Mutex<BTreeMap<u64, PacketTrace>>>,
}

impl TraceBuilder {
    /// A fresh builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The reconstructed traces, ordered by packet id.
    #[must_use]
    pub fn traces(&self) -> Vec<PacketTrace> {
        let mut traces: Vec<PacketTrace> = self
            .traces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        traces.sort_by_key(|t| t.id);
        traces
    }
}

impl EventSink for TraceBuilder {
    fn record(&mut self, event: &SimEvent) {
        let mut traces = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        match *event {
            SimEvent::Inject {
                cycle,
                id,
                src,
                dest,
                ..
            } => {
                traces.insert(id, PacketTrace::new(id, src, dest, cycle));
            }
            SimEvent::Enter { cycle, id, .. } => {
                if let Some(t) = traces.get_mut(&id) {
                    // A retried packet re-enters; its trace keeps the
                    // first entry, so hops from every attempt follow it.
                    t.entered_at.get_or_insert(cycle);
                }
            }
            SimEvent::Grant {
                cycle,
                id,
                stage,
                module,
                in_port,
                out_port,
                head_out_at,
            } => {
                if let Some(t) = traces.get_mut(&id) {
                    t.hops.push(HopTrace {
                        stage,
                        module,
                        in_port,
                        out_port,
                        granted_at: cycle,
                        head_out_at,
                    });
                }
            }
            SimEvent::Deliver { cycle, id, .. } => {
                if let Some(t) = traces.get_mut(&id) {
                    t.delivered_at = Some(cycle);
                }
            }
            SimEvent::Drop { cycle, id, .. } => {
                if let Some(t) = traces.get_mut(&id) {
                    t.dropped_at = Some(cycle);
                }
            }
            SimEvent::Retry { .. } | SimEvent::FaultActivate { .. } | SimEvent::Stall { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_externally_tagged() {
        let e = SimEvent::Grant {
            cycle: 10,
            id: 3,
            stage: 1,
            module: 2,
            in_port: 0,
            out_port: 3,
            head_out_at: 12,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.starts_with("{\"Grant\":"), "{json}");
        let back: SimEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn memory_sink_counts_by_kind() {
        let sink = MemorySink::new();
        let mut handle = sink.clone();
        handle.record(&SimEvent::Inject {
            cycle: 0,
            id: 0,
            src: 0,
            dest: 1,
            tracked: true,
        });
        handle.record(&SimEvent::Enter {
            cycle: 1,
            id: 0,
            src: 0,
        });
        handle.record(&SimEvent::Enter {
            cycle: 2,
            id: 1,
            src: 1,
        });
        let counts = sink.counts_by_kind();
        assert_eq!(counts["inject"], 1);
        assert_eq!(counts["enter"], 2);
        assert_eq!(sink.events().len(), 3);
    }

    /// A packet dropped by a fault, re-offered and then delivered keeps
    /// its first entry, and the hops of both attempts. (In the unique-path
    /// network a permanent fault never heals, so the engine itself finally
    /// drops such a packet; `tests/telemetry.rs` runs that case.)
    #[test]
    fn trace_builder_reconstructs_a_life() {
        let builder = TraceBuilder::new();
        let mut sink = builder.clone();
        let enter = |cycle| SimEvent::Enter {
            cycle,
            id: 7,
            src: 1,
        };
        let grant = |cycle, head_out_at| SimEvent::Grant {
            cycle,
            id: 7,
            stage: 0,
            module: 0,
            in_port: 1,
            out_port: 2,
            head_out_at,
        };
        let (inject, retry, deliver) = (
            SimEvent::Inject {
                cycle: 5,
                id: 7,
                src: 1,
                dest: 9,
                tracked: true,
            },
            SimEvent::Retry {
                cycle: 12,
                id: 7,
                attempt: 1,
                retry_at: 20,
            },
            SimEvent::Deliver {
                cycle: 35,
                id: 7,
                dest: 9,
                latency: 30,
            },
        );
        for event in [
            inject,
            enter(6),
            grant(8, 10),
            retry,
            enter(20),
            grant(21, 23),
            deliver,
        ] {
            sink.record(&event);
        }
        let traces = builder.traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!((t.id, t.src, t.dest, t.injected_at), (7, 1, 9, 5));
        assert_eq!(t.entered_at, Some(6));
        assert_eq!(t.delivered_at, Some(35));
        assert_eq!(t.hops.len(), 2);
        assert!(t.complete());
        // 2 before the first grant + (21 − 10) between the attempts.
        assert_eq!(t.waiting_cycles(), Some(13));
    }
}
