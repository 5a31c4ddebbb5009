//! Per-stage simulation state: input buffers, circuit-held outputs.
//!
//! The stage's ports are stored *flat* (module-major: module `m` of a
//! radix-`r` stage owns input/output indices `m*r .. (m+1)*r`), so the
//! engine's per-cycle sweeps are contiguous array walks instead of a
//! `Vec<Module<Vec<Port>>>` pointer chase. Buffer slots hold a 4-byte
//! [`PacketRef`] into the engine's packet arena, not the packet itself.
//!
//! # Due-time arrays
//!
//! Next to the queues, each stage keeps two flat `u64` arrays indexed
//! like them, so the vacate and grant sweeps can find the ports with work
//! due without touching a queue:
//!
//! * `ready_at[p]` — the cycle the port's ungranted front head may
//!   request its output (`head_arrival + ready_offset`), or [`NEVER`]
//!   when the port is empty or its front is granted;
//! * `vacate_at[p]` — the cycle the port's granted front leaves the
//!   buffer, or [`NEVER`] otherwise.
//!
//! Only four operations change a port's front — a push, a grant, a
//! vacate pop, and a fault drop — and all four go through
//! [`InputPorts`], which refreshes both arrays after each one. That keeps
//! the invariant in this file alone.

use std::collections::VecDeque;

use crate::store::PacketRef;

/// "No work due" in the due-time arrays.
const NEVER: u64 = u64::MAX;

/// A packet occupying (or reserved into) one input-buffer slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The packet, by arena reference.
    packet: PacketRef,
    /// Cycle its head arrives (reservations are pushed at upstream grant
    /// time with a future arrival).
    head_arrival: u64,
    /// Cycle the slot is freed (tail has left the buffer); meaningful only
    /// once granted.
    vacate_at: u64,
    /// Set once the packet has been granted its onward output; the slot then
    /// drains until `vacate_at`.
    granted: bool,
}

/// One module input port's FIFO of buffer slots. Its length counts both
/// resident packets and in-flight reservations, which is exactly what
/// the paper's buffer-full line signals upstream. Only the front slot
/// can be granted: the next one waits for it to vacate.
type Queue = VecDeque<Slot>;

/// A contiguous run of one stage's input ports together with their
/// due-time arrays — the only way to change a port's queue (see the
/// module docs). Port indices are local to the run.
#[derive(Debug)]
pub(crate) struct InputPorts<'a> {
    queues: &'a mut [Queue],
    ready_at: &'a mut [u64],
    vacate_at: &'a mut [u64],
    ready_offset: u64,
}

impl<'a> InputPorts<'a> {
    /// Split into `[0, mid)` and `[mid, len)`, like `slice::split_at_mut`.
    pub fn split_at(self, mid: usize) -> (Self, Self) {
        let (queues, queues_rest) = self.queues.split_at_mut(mid);
        let (ready_at, ready_rest) = self.ready_at.split_at_mut(mid);
        let (vacate_at, vacate_rest) = self.vacate_at.split_at_mut(mid);
        let ready_offset = self.ready_offset;
        (
            Self {
                queues,
                ready_at,
                vacate_at,
                ready_offset,
            },
            Self {
                queues: queues_rest,
                ready_at: ready_rest,
                vacate_at: vacate_rest,
                ready_offset,
            },
        )
    }

    /// Per-port cycle the ungranted front may request (see the module
    /// docs).
    pub fn ready_at(&self) -> &[u64] {
        self.ready_at
    }

    /// Per-port cycle the granted front leaves (see the module docs).
    pub fn vacate_at(&self) -> &[u64] {
        self.vacate_at
    }

    /// Whether port `p` can accept a new packet (or reservation).
    pub fn has_space(&self, p: usize, capacity: u32) -> bool {
        self.queues[p].len() < capacity as usize
    }

    /// Port `p`'s front packet if it is ready to request its output at
    /// `now` — present, not yet granted, and its head (cut-through) or
    /// tail (store-and-forward) has arrived — read from the queue itself:
    /// the reference `ready_at` must agree with.
    pub fn requesting_head(&self, p: usize, now: u64) -> Option<PacketRef> {
        let front = self.queues[p].front()?;
        if front.granted || front.head_arrival + self.ready_offset > now {
            None
        } else {
            Some(front.packet)
        }
    }

    /// Port `p`'s front packet if it may request its output at `now`:
    /// one `ready_at` compare, and a queue read only for a ready port.
    /// Debug builds check the compare against [`Self::requesting_head`].
    pub fn ready_head(&self, p: usize, now: u64) -> Option<PacketRef> {
        let ready = self.ready_at[p] <= now;
        debug_assert_eq!(
            ready,
            self.requesting_head(p, now).is_some(),
            "ready_at disagrees with input port {p}'s queue at cycle {now}"
        );
        if ready {
            self.queues[p].front().map(|slot| slot.packet)
        } else {
            None
        }
    }

    /// Accept a packet (reservation) at port `p` whose head arrives at
    /// `head_arrival`.
    pub fn push(&mut self, p: usize, packet: PacketRef, head_arrival: u64) {
        self.queues[p].push_back(Slot {
            packet,
            head_arrival,
            vacate_at: 0,
            granted: false,
        });
        self.refresh(p);
    }

    /// Mark port `p`'s front slot granted; it will vacate at `vacate_at`
    /// and the packet moves on. Returns the packet ref for downstream
    /// insertion, or `None` if there is no eligible front slot (the port
    /// is empty or its head was already granted — an upstream
    /// arbitration error).
    #[must_use]
    pub fn grant_front(&mut self, p: usize, vacate_at: u64) -> Option<PacketRef> {
        let front = self.queues[p].front_mut()?;
        debug_assert!(!front.granted, "double grant on input port");
        if front.granted {
            return None;
        }
        front.granted = true;
        front.vacate_at = vacate_at;
        let packet = front.packet;
        self.refresh(p);
        Some(packet)
    }

    /// Drop port `p`'s front slots whose tails have fully left the
    /// buffer. Returns how many slots were freed.
    pub fn vacate(&mut self, p: usize, now: u64) -> u64 {
        let queue = &mut self.queues[p];
        let mut freed = 0;
        while queue
            .front()
            .is_some_and(|front| front.granted && front.vacate_at <= now)
        {
            queue.pop_front();
            freed += 1;
        }
        self.refresh(p);
        freed
    }

    /// Remove and return port `p`'s front packet without granting it —
    /// the fault path for a packet whose onward route is permanently
    /// severed. Returns `None` if the port is empty; debug-asserts the
    /// front was not already granted (a granted head is mid-transfer, not
    /// droppable).
    #[must_use]
    pub fn drop_front(&mut self, p: usize) -> Option<PacketRef> {
        let slot = self.queues[p].pop_front()?;
        debug_assert!(!slot.granted, "dropped a granted (in-transfer) packet");
        self.refresh(p);
        Some(slot.packet)
    }

    /// Recompute port `p`'s due times from its (new) front.
    fn refresh(&mut self, p: usize) {
        (self.ready_at[p], self.vacate_at[p]) = match self.queues[p].front() {
            None => (NEVER, NEVER),
            Some(front) if front.granted => (NEVER, front.vacate_at),
            Some(front) => (front.head_arrival + self.ready_offset, NEVER),
        };
    }
}

/// One module output port: the unit of circuit-held contention.
#[derive(Debug, Default)]
pub(crate) struct OutputPort {
    /// The output is held until this cycle (tail has passed).
    pub busy_until: u64,
    /// Round-robin pointer for arbitration.
    pub rr_next: u32,
}

impl OutputPort {
    /// Whether the output can accept a new circuit this cycle.
    pub fn free(&self, now: u64) -> bool {
        self.busy_until <= now
    }
}

/// One network stage: `module_count` crossbar modules of the stage's
/// radix, ports flattened module-major (see the module docs).
#[derive(Debug)]
pub(crate) struct Stage {
    pub radix: u32,
    /// Input-port queues, module-major: `queues[m * radix + port]`.
    queues: Vec<Queue>,
    /// Due-time arrays, indexed like `queues` (see the module docs).
    ready_at: Vec<u64>,
    vacate_at: Vec<u64>,
    /// Cycles after its head arrives that a packet may request onward
    /// (0 for cut-through, `flits - 1` for store-and-forward).
    ready_offset: u64,
    /// Output ports, module-major: `outputs[m * radix + port]`.
    pub outputs: Vec<OutputPort>,
}

impl Stage {
    /// An empty stage of `module_count` radix-`radix` modules. (Per-stage
    /// head latency lives in the engine's `StageMeta`, shared with the
    /// grant kernel.)
    pub fn new(radix: u32, module_count: u32, ready_offset: u64) -> Self {
        let ports = (radix * module_count) as usize;
        Self {
            radix,
            queues: (0..ports).map(|_| Queue::new()).collect(),
            ready_at: vec![NEVER; ports],
            vacate_at: vec![NEVER; ports],
            ready_offset,
            outputs: (0..ports).map(|_| OutputPort::default()).collect(),
        }
    }

    /// All input ports, for pushes and for splitting into chunks.
    pub fn inputs(&mut self) -> InputPorts<'_> {
        self.split().0
    }

    /// All input ports and, separately borrowed, all output ports.
    pub fn split(&mut self) -> (InputPorts<'_>, &mut [OutputPort]) {
        (
            InputPorts {
                queues: &mut self.queues,
                ready_at: &mut self.ready_at,
                vacate_at: &mut self.vacate_at,
                ready_offset: self.ready_offset,
            },
            &mut self.outputs,
        )
    }

    /// Each input queue's length, in port order (the engine keeps these
    /// as counts; debug builds check the counts against this).
    #[cfg(any(test, debug_assertions))]
    pub fn queue_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues.iter().map(VecDeque::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn packet(id: u32) -> PacketRef {
        PacketRef(id)
    }

    #[test]
    fn drop_front_removes_ungranted_head() {
        let mut stage = Stage::new(1, 1, 0);
        let mut port = stage.inputs();
        port.push(0, packet(3), 0);
        port.push(0, packet(4), 0);
        let dropped = port.drop_front(0);
        assert_eq!(dropped, Some(packet(3)));
        assert_eq!(port.requesting_head(0, 0), Some(packet(4)));
        assert_eq!(port.ready_at()[0], 0);
    }

    #[test]
    fn space_accounting_includes_reservations() {
        let mut stage = Stage::new(1, 1, 0);
        let mut port = stage.inputs();
        assert!(port.has_space(0, 1));
        port.push(0, packet(0), 10); // reservation, head arrives later
        assert!(!port.has_space(0, 1));
        assert!(port.has_space(0, 2));
    }

    #[test]
    fn head_not_ready_until_arrival() {
        let mut stage = Stage::new(1, 1, 0);
        let mut port = stage.inputs();
        port.push(0, packet(0), 10);
        assert!(port.requesting_head(0, 9).is_none());
        assert!(port.requesting_head(0, 10).is_some());
        assert_eq!(port.ready_at()[0], 10);
        // Store-and-forward: ready only after the tail (offset) arrives.
        let mut stage = Stage::new(1, 1, 24);
        let mut port = stage.inputs();
        port.push(0, packet(0), 10);
        assert!(port.requesting_head(0, 10).is_none());
        assert!(port.requesting_head(0, 34).is_some());
        assert_eq!(port.ready_at()[0], 34);
    }

    #[test]
    fn granted_head_stops_requesting_and_vacates() {
        let mut stage = Stage::new(1, 1, 0);
        let mut port = stage.inputs();
        port.push(0, packet(0), 0);
        let p = port.grant_front(0, 25);
        assert_eq!(p, Some(packet(0)));
        assert!(port.requesting_head(0, 30).is_none());
        assert_eq!((port.ready_at()[0], port.vacate_at()[0]), (NEVER, 25));
        assert_eq!(port.vacate(0, 24), 0);
        assert_eq!(port.vacate(0, 25), 1);
        assert_eq!((port.ready_at()[0], port.vacate_at()[0]), (NEVER, NEVER));
        assert_eq!(stage.queue_lens().sum::<usize>(), 0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut stage = Stage::new(1, 1, 0);
        let mut port = stage.inputs();
        port.push(0, packet(0), 0);
        port.push(0, packet(1), 0);
        assert_eq!(port.requesting_head(0, 0), Some(packet(0)));
        assert_eq!(port.grant_front(0, 5), Some(packet(0)));
        // Second packet cannot request while the first still drains.
        assert!(port.requesting_head(0, 3).is_none());
        port.vacate(0, 5);
        assert_eq!(port.requesting_head(0, 5), Some(packet(1)));
    }

    #[test]
    fn output_busy_window() {
        let mut out = OutputPort::default();
        assert!(out.free(0));
        out.busy_until = 7;
        assert!(!out.free(6));
        assert!(out.free(7));
    }

    #[test]
    fn flat_stage_layout_is_module_major() {
        let mut stage = Stage::new(4, 3, 0);
        assert_eq!(stage.inputs().ready_at().len(), 12);
        assert_eq!(stage.outputs.len(), 12);
        assert_eq!(stage.queue_lens().sum::<usize>(), 0);
        let (head, tail) = stage.inputs().split_at(4);
        assert_eq!((head.vacate_at().len(), tail.vacate_at().len()), (4, 8));
    }

    #[test]
    fn grant_and_drop_on_empty_port_return_none() {
        let mut stage = Stage::new(1, 1, 0);
        let mut port = stage.inputs();
        assert_eq!(port.grant_front(0, 1), None);
        assert_eq!(port.drop_front(0), None);
        assert_eq!((port.ready_at()[0], port.vacate_at()[0]), (NEVER, NEVER));
    }

    /// Ports in the model test's run.
    const MODEL_PORTS: usize = 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The due-time arrays agree with the queues after every push,
        /// grant, vacate and drop: `ready_at[p] <= now` exactly when the
        /// front requests (at the current cycle and at the boundary
        /// cycles), and `vacate_at[p]` is the granted front's vacate
        /// cycle.
        #[test]
        fn due_time_arrays_track_the_queues(
            capacity in 1u32..5,
            store_and_forward in any::<bool>(),
            ops in proptest::collection::vec(any::<u64>(), 1..300),
        ) {
            let ready_offset = if store_and_forward { 24 } else { 0 };
            let mut stage = Stage::new(MODEL_PORTS as u32, 1, ready_offset);
            let mut ports = stage.inputs();
            let mut now = 0u64;
            let mut next_packet = 0u32;
            for op in ops {
                let p = (op >> 8) as usize % MODEL_PORTS;
                let delay = (op >> 16) % 40;
                match op % 5 {
                    0 if ports.has_space(p, capacity) => {
                        ports.push(p, packet(next_packet), now + delay);
                        next_packet += 1;
                    }
                    1 if ports.requesting_head(p, now).is_some() => {
                        let granted = ports.grant_front(p, now + 1 + delay);
                        prop_assert!(granted.is_some());
                    }
                    2 => {
                        ports.vacate(p, now);
                    }
                    3 if ports.requesting_head(p, now).is_some() => {
                        prop_assert!(ports.drop_front(p).is_some());
                    }
                    _ => now += delay % 8,
                }
                for q in 0..MODEL_PORTS {
                    let ready_at = ports.ready_at()[q];
                    prop_assert_eq!(ready_at <= now, ports.requesting_head(q, now).is_some());
                    if ready_at != NEVER {
                        prop_assert!(ports.requesting_head(q, ready_at).is_some());
                        if ready_at > 0 {
                            prop_assert!(ports.requesting_head(q, ready_at - 1).is_none());
                        }
                    }
                    let granted_vacate = ports.queues[q]
                        .front()
                        .filter(|front| front.granted)
                        .map_or(NEVER, |front| front.vacate_at);
                    prop_assert_eq!(ports.vacate_at()[q], granted_vacate);
                }
            }
        }
    }
}
