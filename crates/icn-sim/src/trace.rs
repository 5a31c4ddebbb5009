//! Per-packet event traces for debugging and timing audits.
//!
//! A [`crate::TraceBuilder`] attached as the engine's event sink (see
//! [`crate::Engine::set_event_sink`]) rebuilds a full trace — source
//! entry, every module grant with its head-out time, and delivery or
//! final drop — for every packet from the event stream. Traces make the
//! lock-step timing model auditable: tests assert that a traced packet's
//! hops coincide with `Topology::route` and that consecutive grants are
//! spaced exactly as the §4 pipeline model says.

use serde::{Deserialize, Serialize};

/// One module crossing in a packet trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopTrace {
    /// Stage index.
    pub stage: u32,
    /// Module index within the stage.
    pub module: u32,
    /// Input port the packet arrived on.
    pub in_port: u32,
    /// Output port it was granted.
    pub out_port: u32,
    /// Cycle the output circuit was granted.
    pub granted_at: u64,
    /// Cycle the head appeared at the module output
    /// (`granted_at + head latency`).
    pub head_out_at: u64,
}

/// The recorded life of one packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketTrace {
    /// Packet id.
    pub id: u64,
    /// Source port.
    pub src: u32,
    /// Destination port.
    pub dest: u32,
    /// Cycle the packet was generated.
    pub injected_at: u64,
    /// Cycle the head first entered the first-stage buffer. A packet
    /// that a fault dropped and its source re-offered enters again; the
    /// trace keeps the first entry, so it never lies after the first hop
    /// (the hops of every attempt stay in [`PacketTrace::hops`]).
    pub entered_at: Option<u64>,
    /// Cycle the tail cleared the destination.
    pub delivered_at: Option<u64>,
    /// Cycle the packet was finally dropped by a fault (after exhausting
    /// retries), if it was.
    pub dropped_at: Option<u64>,
    /// Module crossings in grant order: stage order within an attempt,
    /// attempt after attempt for a retried packet.
    pub hops: Vec<HopTrace>,
}

impl PacketTrace {
    pub(crate) fn new(id: u64, src: u32, dest: u32, injected_at: u64) -> Self {
        Self {
            id,
            src,
            dest,
            injected_at,
            entered_at: None,
            delivered_at: None,
            dropped_at: None,
            hops: Vec::new(),
        }
    }

    /// Whether the trace covers the packet's full life: it reached a
    /// terminal state — delivered, or finally dropped by a fault. (A
    /// never-entered dropped packet is terminal too: a permanently dead
    /// source loses its queue without the packets ever entering.)
    #[must_use]
    pub fn complete(&self) -> bool {
        self.delivered_at.is_some() || self.dropped_at.is_some()
    }

    /// Cycles the packet spent waiting (blocked or queued) rather than in
    /// pipeline transit: total latency minus the §4 minimum implied by its
    /// own hop grants.
    ///
    /// For a dropped packet the waiting is counted up to the drop: the gap
    /// from the last head-out (or from entry, or — for a packet dropped in
    /// its source queue — from injection) to `dropped_at`.
    ///
    /// Returns `None` for traces that are still in flight.
    #[must_use]
    pub fn waiting_cycles(&self) -> Option<u64> {
        if let Some(dropped) = self.dropped_at {
            let Some(entered) = self.entered_at else {
                // Died in the source queue: its whole life was waiting.
                return Some(dropped - self.injected_at);
            };
            return Some(match self.hops.first() {
                None => dropped - entered,
                Some(first) => {
                    let mut waiting = first.granted_at - entered;
                    for pair in self.hops.windows(2) {
                        waiting += pair[1].granted_at.saturating_sub(pair[0].head_out_at);
                    }
                    let last = self.hops.last().unwrap_or(first);
                    waiting + dropped.saturating_sub(last.head_out_at)
                }
            });
        }
        self.delivered_at?;
        let entered = self.entered_at?;
        let first_grant = self.hops.first()?.granted_at;
        let mut waiting = first_grant - entered;
        for pair in self.hops.windows(2) {
            // The head reaches the next buffer at head_out_at; any gap to
            // the next grant is contention or back-pressure.
            waiting += pair[1].granted_at.saturating_sub(pair[0].head_out_at);
        }
        Some(waiting)
    }
}

impl core::fmt::Display for PacketTrace {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "#{} {}->{} t={}",
            self.id, self.src, self.dest, self.injected_at
        )?;
        for hop in &self.hops {
            write!(
                f,
                " [s{} m{} p{}->{} @{}+{}]",
                hop.stage,
                hop.module,
                hop.in_port,
                hop.out_port,
                hop.granted_at,
                hop.head_out_at - hop.granted_at
            )?;
        }
        if let Some(d) = self.delivered_at {
            write!(f, " done@{d}")?;
        }
        if let Some(d) = self.dropped_at {
            write!(f, " dropped@{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PacketTrace {
        let mut t = PacketTrace::new(7, 1, 9, 100);
        t.entered_at = Some(100);
        t.hops.push(HopTrace {
            stage: 0,
            module: 0,
            in_port: 1,
            out_port: 2,
            granted_at: 103,
            head_out_at: 105,
        });
        t.hops.push(HopTrace {
            stage: 1,
            module: 2,
            in_port: 0,
            out_port: 1,
            granted_at: 110,
            head_out_at: 112,
        });
        t.delivered_at = Some(137);
        t
    }

    #[test]
    fn waiting_cycles_counts_gaps() {
        let t = sample();
        // 3 cycles before the first grant + (110 − 105) between hops.
        assert_eq!(t.waiting_cycles(), Some(8));
        assert!(t.complete());
    }

    #[test]
    fn incomplete_trace_has_no_waiting() {
        // Still in flight: entered and hopping, but no terminal state yet.
        let mut t = sample();
        t.delivered_at = None;
        assert_eq!(t.waiting_cycles(), None);
        assert!(!t.complete());
    }

    #[test]
    fn dropped_trace_is_terminally_complete() {
        // Dropped mid-network: waiting counts up to the drop cycle.
        let mut t = sample();
        t.delivered_at = None;
        t.dropped_at = Some(120);
        assert!(t.complete());
        // 3 before the first grant + (110 − 105) between hops
        // + (120 − 112) from the last head-out to the drop.
        assert_eq!(t.waiting_cycles(), Some(16));

        // Dropped after entry but before any grant.
        let mut t = PacketTrace::new(1, 0, 3, 50);
        t.entered_at = Some(55);
        t.dropped_at = Some(70);
        assert!(t.complete());
        assert_eq!(t.waiting_cycles(), Some(15));

        // Dropped in the source queue (source died): never entered.
        let mut t = PacketTrace::new(2, 0, 3, 50);
        t.dropped_at = Some(64);
        assert!(t.complete());
        assert_eq!(t.waiting_cycles(), Some(14));
    }

    #[test]
    fn display_is_readable() {
        let s = sample().to_string();
        assert!(s.contains("#7 1->9"));
        assert!(s.contains("[s0 m0 p1->2 @103+2]"));
        assert!(s.contains("done@137"));
    }
}
