//! Per-stage simulation state: the wiring into the stage, its input
//! buffers and circuit-held outputs, and the gauges of its parked heads.
//! Each stage's state lives here once; the engine borrows it stage by
//! stage.
//!
//! The stage's ports are stored *flat* (module-major: module `m` of a
//! radix-`r` stage owns input/output indices `m*r .. (m+1)*r`), so the
//! engine's per-cycle sweeps are contiguous array walks instead of a
//! `Vec<Module<Vec<Port>>>` pointer chase. Buffer slots hold a 4-byte
//! [`PacketRef`] into the engine's packet arena, not the packet itself.
//!
//! # Input buffers
//!
//! Like the paper's module inputs (§2), every input port has a fixed
//! number of packet buffers, `SimConfig::buffer_capacity`, and the
//! buffer-full line keeps it from ever holding more. So a stage keeps
//! all its buffers in one flat array of `ports × capacity` slots
//! ([`Buffers`]): port `p` owns the fixed ring
//! `slots[p * capacity .. (p + 1) * capacity]`, and a per-port head and
//! length say where its FIFO starts and how many slots it fills. Reading
//! a front is one index computation into that array, with no per-port
//! heap buffer to chase, and a stage makes two allocations for its
//! buffers however many ports it has. The back-pressure checks guarantee
//! a free slot before every push; a push into a full port is a caller
//! error that debug builds assert and release builds refuse rather than
//! overwrite the port's front.
//!
//! # Due-time arrays
//!
//! Next to the buffers, each stage keeps two flat `u64` arrays indexed
//! like them, so the vacate and grant sweeps can find the ports with work
//! due without touching a buffer. Each lives in a [`DueTimes`], whose
//! calendar keeps the set of ports due now: the vacate sweep walks
//! `vacate_at`'s set and the grant sweep `ready_at`'s, in port order, and
//! neither reads an array end to end (see [`crate::due`]):
//!
//! * `ready_at[p]` — the next cycle worth examining the port's ungranted
//!   front head: its natural ready cycle (`head_arrival + ready_offset`)
//!   unless the head is *parked*, or [`NEVER`] when the port is empty or
//!   its front is granted;
//! * `vacate_at[p]` — the cycle the port's granted front leaves the
//!   buffer, or [`NEVER`] otherwise.
//!
//! A ready head that the grant sweep finds blocked is parked
//! ([`InputPorts::park`]): its `ready_at` moves to the cycle its output
//! frees, or to [`UNTIL_DRAINED`] while its downstream buffer is full,
//! and the engine wakes it ([`InputPorts::unpark`]) when that buffer
//! drains or a fault strikes its module. So `ready_at[p] <= now` implies the front
//! requests, and `ready_at[p]` is never below the front's natural ready
//! cycle.
//!
//! # Cached route tags
//!
//! Each slot carries its packet's output tag for the stage (the route
//! table's digit), set when the packet is pushed, and a third flat array
//! `front_tag[p]` holds the front slot's tag ([`NO_TAG`] for an empty
//! port). The grant sweep and the downstream wakes read a head's tag
//! from it without touching the buffer, the packet arena or the route
//! table.
//!
//! Only four operations change a port's front — a push into an empty
//! port, a grant, a vacate pop, and a fault drop — and all four go
//! through [`InputPorts`], which refreshes all three arrays after each
//! one (a push behind an existing front leaves a park in place); parks
//! and wakes go through it too. Each refresh goes through
//! [`DueTimes::set`], which keeps the calendar in step with its array.
//! That keeps the invariant in this file alone.

use std::num::NonZeroU64;

use crate::config::MAX_BUFFER_CAPACITY;
use crate::due::{DueTimes, NEVER, UNTIL_DRAINED};
use crate::store::PacketRef;
use crate::sweep::Parked;

/// "No front" in the `front_tag` array.
pub(crate) const NO_TAG: u32 = u32::MAX;

/// A packet occupying (or reserved into) one input-buffer slot.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
struct Slot {
    /// The packet, by arena reference.
    packet: PacketRef,
    /// The output the packet takes out of this stage's module.
    tag: u32,
    /// Cycle its head arrives (reservations are pushed at upstream grant
    /// time with a future arrival).
    head_arrival: u64,
    /// Cycle the slot is freed (tail has left the buffer), set once the
    /// packet has been granted its onward output; the slot then drains
    /// until it. A grant's tail leaves after cycle 0, so `None` means
    /// ungranted.
    vacate_at: Option<NonZeroU64>,
}

// The tag shares a word with the packet ref: a slot is three words.
const _: () = assert!(size_of::<Slot>() == 24);

impl Slot {
    /// What a slot holds before its first push; never read as a packet.
    const EMPTY: Self = Self {
        packet: PacketRef(0),
        tag: NO_TAG,
        head_arrival: 0,
        vacate_at: None,
    };

    fn granted(&self) -> bool {
        self.vacate_at.is_some()
    }

    /// The granted slot's vacate cycle, or [`NEVER`].
    fn vacate_cycle(&self) -> u64 {
        self.vacate_at.map_or(NEVER, NonZeroU64::get)
    }
}

/// Where one port's FIFO lies in its ring: the front slot's offset and
/// how many slots are filled. The length counts both resident packets
/// and in-flight reservations, which is exactly what the paper's
/// buffer-full line signals upstream.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    head: u32,
    len: u32,
}

/// One stage's input buffers: every port's FIFO of slots, each in its
/// own fixed ring of one flat array (see the module docs). Only the
/// front slot can be granted: the next one waits for it to vacate.
#[derive(Debug)]
struct Buffers {
    /// Each port's front offset and length.
    rings: Vec<Ring>,
    /// `capacity` slots per port; port `p`'s ring is
    /// `slots[p * capacity .. (p + 1) * capacity]`.
    slots: Vec<Slot>,
    /// Slots per port, 1 to [`MAX_BUFFER_CAPACITY`].
    capacity: usize,
}

impl Buffers {
    fn new(ports: usize, capacity: u32) -> Self {
        assert!(
            (1..=MAX_BUFFER_CAPACITY).contains(&capacity),
            "buffer capacity {capacity} outside 1..={MAX_BUFFER_CAPACITY}"
        );
        let capacity = capacity as usize;
        // Rings before slots: the benchmark's set-up times read the heap
        // layout this order leaves (DESIGN.md §7.3, flat input rings).
        Self {
            rings: vec![Ring::default(); ports],
            slots: vec![Slot::EMPTY; ports * capacity],
            capacity,
        }
    }

    /// How many slots port `p` fills.
    fn len(&self, p: usize) -> usize {
        self.rings[p].len as usize
    }

    /// The index in `slots` of port `p`'s slot `offset` places behind its
    /// front (`offset < capacity`).
    fn index(&self, p: usize, offset: usize) -> usize {
        let at = self.rings[p].head as usize + offset;
        let at = if at >= self.capacity {
            at - self.capacity
        } else {
            at
        };
        p * self.capacity + at
    }

    fn front(&self, p: usize) -> Option<&Slot> {
        (self.rings[p].len > 0).then(|| &self.slots[self.index(p, 0)])
    }

    fn front_mut(&mut self, p: usize) -> Option<&mut Slot> {
        let at = self.index(p, 0);
        (self.rings[p].len > 0).then(|| &mut self.slots[at])
    }

    /// Append `slot` behind port `p`'s last slot. The caller has checked
    /// for room: a full port is left as it is (see the module docs).
    fn push_back(&mut self, p: usize, slot: Slot) {
        let len = self.len(p);
        debug_assert!(len < self.capacity, "push into full input port {p}");
        if len < self.capacity {
            let at = self.index(p, len);
            self.slots[at] = slot;
            self.rings[p].len += 1;
        }
    }

    /// Remove and return port `p`'s front slot.
    fn pop_front(&mut self, p: usize) -> Option<Slot> {
        let slot = *self.front(p)?;
        let ring = &mut self.rings[p];
        ring.head = if ring.head as usize + 1 == self.capacity {
            0
        } else {
            ring.head + 1
        };
        ring.len -= 1;
        Some(slot)
    }
}

/// The due cycle of `front` if it is parked (its `ready_at` moved off
/// its natural ready cycle) and not yet due at `now`.
fn pending_park(front: Option<&Slot>, ready_at: u64, ready_offset: u64, now: u64) -> Option<u64> {
    let front = front?;
    (ready_at > now && !front.granted() && ready_at != front.head_arrival + ready_offset)
        .then_some(ready_at)
}

/// One stage's input ports together with their due-time arrays — the
/// only way to change a port's buffers (see the module docs) — and the
/// wiring that reaches them.
#[derive(Debug)]
pub(crate) struct InputPorts<'a> {
    entry: &'a [u32],
    buffers: &'a mut Buffers,
    ready: &'a mut DueTimes,
    vacate: &'a mut DueTimes,
    front_tag: &'a mut [u32],
    ready_offset: u64,
}

impl<'a> InputPorts<'a> {
    /// The stage's wiring: `entry()[line]` is the flat input port that
    /// line `line` reaches (see [`Stage::entry`]).
    pub fn entry(&self) -> &'a [u32] {
        self.entry
    }

    /// The flat input port that line `line` reaches.
    pub fn port_of(&self, line: usize) -> usize {
        self.entry[line] as usize
    }

    /// Per-port cycle the ungranted front may request (see the module
    /// docs).
    #[cfg(test)]
    pub fn ready_at(&self) -> &[u64] {
        self.ready.times()
    }

    /// Per-port cycle the granted front leaves (see the module docs).
    #[cfg(test)]
    pub fn vacate_at(&self) -> &[u64] {
        self.vacate.times()
    }

    /// The first port at or after `from` whose `ready_at` has come.
    pub fn next_ready(&self, from: usize) -> Option<usize> {
        self.ready.first_due(from)
    }

    /// The first port at or after `from` whose `vacate_at` has come.
    pub fn next_vacate(&self, from: usize) -> Option<usize> {
        self.vacate.first_due(from)
    }

    /// Cycles after its head arrives that a packet may request onward.
    pub fn ready_offset(&self) -> u64 {
        self.ready_offset
    }

    /// Whether port `p` can accept a new packet (or reservation): the
    /// paper's buffer-full line, read from the port's own length, which
    /// counts resident packets and reservations alike, against the
    /// stage's buffer depth.
    pub fn has_space(&self, p: usize) -> bool {
        self.buffers.len(p) < self.buffers.capacity
    }

    /// Port `p`'s front packet if it is ready to request its output at
    /// `now` — present, not yet granted, and its head (cut-through) or
    /// tail (store-and-forward) has arrived — read from the buffer itself:
    /// the reference `ready_at` must agree with.
    pub fn requesting_head(&self, p: usize, now: u64) -> Option<PacketRef> {
        let front = self.buffers.front(p)?;
        if front.granted() || front.head_arrival + self.ready_offset > now {
            None
        } else {
            Some(front.packet)
        }
    }

    /// Port `p`'s front output tag if its head is due for examination at
    /// `now`: one `ready_at` compare and the cached tag, without touching
    /// the buffer. A parked head requests but is not due. Debug builds
    /// check a due port against [`Self::requesting_head`].
    pub fn ready_tag(&self, p: usize, now: u64) -> Option<u32> {
        let ready = self.ready.at(p) <= now;
        debug_assert!(
            !ready || self.requesting_head(p, now).is_some(),
            "ready_at disagrees with input port {p}'s buffer at cycle {now}"
        );
        ready.then(|| self.front_tag[p])
    }

    /// Port `p`'s front packet, granted or not (debug builds check cached
    /// tags against its route).
    pub fn front_packet(&self, p: usize) -> Option<PacketRef> {
        self.buffers.front(p).map(|front| front.packet)
    }

    /// The cycle port `p`'s front head became (or becomes) ready to
    /// request — `ready_at` before any park; [`NEVER`] for an empty port.
    pub fn ready_cycle(&self, p: usize) -> u64 {
        self.buffers
            .front(p)
            .map_or(NEVER, |front| front.head_arrival + self.ready_offset)
    }

    /// The cycle a parked front at port `p` is due again, if it is parked
    /// and not yet due at `now` ([`UNTIL_DRAINED`]: parked on a full
    /// downstream buffer).
    pub fn park_of(&self, p: usize, now: u64) -> Option<u64> {
        pending_park(
            self.buffers.front(p),
            self.ready.at(p),
            self.ready_offset,
            now,
        )
    }

    /// Port `p`'s front output tag if its head is parked on a full
    /// downstream buffer.
    pub fn downstream_waiter(&self, p: usize) -> Option<u32> {
        (self.ready.at(p) == UNTIL_DRAINED).then(|| self.front_tag[p])
    }

    /// Park port `p`'s requesting front until cycle `until` (its output's
    /// `busy_until`), or with no due time ([`UNTIL_DRAINED`]) while its
    /// downstream buffer is full.
    pub fn park(&mut self, p: usize, until: u64) {
        debug_assert!(
            self.buffers.front(p).is_some_and(
                |front| !front.granted() && front.head_arrival + self.ready_offset < until
            ),
            "parked input port {p} has no requesting front"
        );
        self.ready.set(p, until);
    }

    /// Wake port `p`'s front if it is parked and not yet due at `now`:
    /// restore its natural ready cycle (which has passed) and return the
    /// park's due cycle, as [`Self::park_of`] reported it.
    pub fn unpark(&mut self, p: usize, now: u64) -> Option<u64> {
        let until = self.park_of(p, now)?;
        self.refresh(p);
        Some(until)
    }

    /// Accept a packet (reservation) at port `p` whose head arrives at
    /// `head_arrival` and which leaves this stage's module by output
    /// `tag`. Behind an existing front nothing due changes, so a parked
    /// front stays parked.
    pub fn push(&mut self, p: usize, packet: PacketRef, head_arrival: u64, tag: u32) {
        self.buffers.push_back(
            p,
            Slot {
                packet,
                head_arrival,
                tag,
                vacate_at: None,
            },
        );
        if self.buffers.len(p) == 1 {
            self.refresh(p);
        }
    }

    /// Mark port `p`'s front slot granted; it will vacate at `vacate_at`
    /// (after cycle 0) and the packet moves on. Returns the packet ref for
    /// downstream insertion, or `None` if there is no eligible front slot
    /// (the port is empty or its head was already granted — an upstream
    /// arbitration error).
    #[must_use]
    pub fn grant_front(&mut self, p: usize, vacate_at: u64) -> Option<PacketRef> {
        let front = self.buffers.front_mut(p)?;
        debug_assert!(!front.granted(), "double grant on input port");
        debug_assert!(vacate_at > 0, "a grant vacates after cycle 0");
        if front.granted() {
            return None;
        }
        front.vacate_at = Some(NonZeroU64::new(vacate_at)?);
        let packet = front.packet;
        self.refresh(p);
        Some(packet)
    }

    /// Drop port `p`'s front slots whose tails have fully left the
    /// buffer. Returns how many slots were freed.
    pub fn vacate(&mut self, p: usize, now: u64) -> u64 {
        let mut freed = 0;
        while self
            .buffers
            .front(p)
            .is_some_and(|front| front.vacate_cycle() <= now)
        {
            self.buffers.pop_front(p);
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
        let slot = self.buffers.pop_front(p)?;
        debug_assert!(!slot.granted(), "dropped a granted (in-transfer) packet");
        self.refresh(p);
        Some(slot.packet)
    }

    /// Recompute port `p`'s due times and front tag from its (new) front.
    fn refresh(&mut self, p: usize) {
        let (ready, vacate, tag) = match self.buffers.front(p) {
            None => (NEVER, NEVER, NO_TAG),
            Some(front) if front.granted() => (NEVER, front.vacate_cycle(), front.tag),
            Some(front) => (front.head_arrival + self.ready_offset, NEVER, front.tag),
        };
        self.ready.set(p, ready);
        self.vacate.set(p, vacate);
        self.front_tag[p] = tag;
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

/// One network stage: `modules` crossbar modules of the stage's radix,
/// ports flattened module-major (see the module docs).
#[derive(Debug)]
pub(crate) struct Stage {
    pub radix: u32,
    /// Crossbar modules in the stage.
    pub modules: u32,
    /// Cycles from a grant until the head leaves the module's output.
    pub head_latency: u64,
    /// The wiring into the stage: `entry[line]` is the flat
    /// `module · radix + port` input that line `line` (a source, or an
    /// output line of the stage before) reaches — the stage's
    /// [`icn_topology::Topology::shuffle_table`].
    pub entry: Vec<u32>,
    /// Input-port buffers, module-major: port `m * radix + port`'s ring.
    buffers: Buffers,
    /// Due-time arrays with their calendars, and front tags, indexed like
    /// the ports (see the module docs).
    ready: DueTimes,
    vacate: DueTimes,
    front_tag: Vec<u32>,
    /// Cycles after its head arrives that a packet may request onward
    /// (0 for cut-through, `flits - 1` for store-and-forward).
    ready_offset: u64,
    /// Output ports, module-major: `outputs[m * radix + port]`.
    pub outputs: Vec<OutputPort>,
    /// Gauges of the stage's parked heads (see [`crate::sweep`]).
    pub parked: Parked,
    /// The ports the vacate phase freed a slot in while full: heads (or
    /// sources) upstream may be parked on them, and the engine wakes
    /// them after the phase.
    pub unblocked: Vec<u32>,
}

impl Stage {
    /// An empty stage of radix-`radix` modules wired by `entry` (one
    /// entry per port, so `entry.len() / radix` modules), whose grants
    /// hold an output for `head_latency + flits` cycles and whose inputs
    /// hold `buffer_capacity` packets each (1 to [`MAX_BUFFER_CAPACITY`],
    /// as [`crate::SimConfig::validate`] admits).
    pub fn new(
        entry: Vec<u32>,
        radix: u32,
        head_latency: u64,
        flits: u64,
        buffer_capacity: u32,
        ready_offset: u64,
    ) -> Self {
        let ports = entry.len();
        Self {
            radix,
            modules: ports as u32 / radix,
            head_latency,
            entry,
            buffers: Buffers::new(ports, buffer_capacity),
            ready: DueTimes::new(ports),
            vacate: DueTimes::new(ports),
            front_tag: vec![NO_TAG; ports],
            ready_offset,
            outputs: (0..ports).map(|_| OutputPort::default()).collect(),
            parked: Parked::new(head_latency + flits, ports),
            unblocked: Vec::new(),
        }
    }

    /// Bring both calendars to cycle `now`: the ports whose `ready_at`
    /// or `vacate_at` comes due by then join their due sets.
    pub fn advance(&mut self, now: u64) {
        self.ready.advance(now);
        self.vacate.advance(now);
    }

    /// All input ports.
    pub fn inputs(&mut self) -> InputPorts<'_> {
        self.split().0
    }

    /// Every part of the stage a phase changes, borrowed apart: all input
    /// ports, all output ports, the parked-head gauges and the
    /// [`Self::unblocked`] list.
    pub fn split(
        &mut self,
    ) -> (
        InputPorts<'_>,
        &mut [OutputPort],
        &mut Parked,
        &mut Vec<u32>,
    ) {
        (
            InputPorts {
                entry: &self.entry,
                buffers: &mut self.buffers,
                ready: &mut self.ready,
                vacate: &mut self.vacate,
                front_tag: &mut self.front_tag,
                ready_offset: self.ready_offset,
            },
            &mut self.outputs,
            &mut self.parked,
            &mut self.unblocked,
        )
    }

    /// The stage's part of the vacate phase: free the drained slots of
    /// every port whose granted front leaves by `now`, walking the
    /// `vacate_at` due set, so only those queues are touched. A port that
    /// was full may have heads parked on it upstream; it joins
    /// [`Self::unblocked`]. Returns how many slots were freed.
    pub fn vacate_due(&mut self, now: u64) -> u64 {
        let (mut inputs, _, _, unblocked) = self.split();
        let mut freed = 0;
        let mut scan = 0;
        while let Some(p) = inputs.next_vacate(scan) {
            let was_full = !inputs.has_space(p);
            freed += inputs.vacate(p, now);
            if was_full {
                unblocked.push(p as u32);
            }
            scan = p + 1;
        }
        freed
    }

    /// The `ready_at` and `vacate_at` calendars (debug builds recount
    /// their due sets from the arrays).
    #[cfg(any(test, debug_assertions))]
    pub fn due_times(&self) -> [&DueTimes; 2] {
        [&self.ready, &self.vacate]
    }

    /// Each input port's buffer occupancy (resident packets and
    /// reservations), in port order: what the stall report, telemetry
    /// samples and the heatmap read.
    pub fn queue_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.buffers.rings.iter().map(|ring| ring.len as usize)
    }

    /// Heads parked on a full downstream buffer, counted per output line
    /// of the stage from the ports (debug builds check the per-line
    /// gauges in [`Self::parked`] against this).
    #[cfg(debug_assertions)]
    pub fn downstream_waiters(&self) -> Vec<u32> {
        let radix = self.radix as usize;
        let mut on_line = vec![0; self.front_tag.len()];
        for (p, &ready_at) in self.ready.times().iter().enumerate() {
            if ready_at == UNTIL_DRAINED {
                on_line[p - p % radix + self.front_tag[p] as usize] += 1;
            }
        }
        on_line
    }

    /// Heads parked and not yet due at `now`, recounted from the ports:
    /// `(on a busy output, on a full downstream buffer)` (debug builds
    /// check the gauges in [`Self::parked`] against this).
    #[cfg(debug_assertions)]
    pub fn recount_parked(&self, now: u64) -> (u64, u64) {
        self.ready
            .times()
            .iter()
            .enumerate()
            .filter_map(|(p, &ready_at)| {
                pending_park(self.buffers.front(p), ready_at, self.ready_offset, now)
            })
            .fold((0, 0), |(busy, downstream), until| {
                if until == UNTIL_DRAINED {
                    (busy, downstream + 1)
                } else {
                    (busy + 1, downstream)
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::due::WHEEL;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn packet(id: u32) -> PacketRef {
        PacketRef(id)
    }

    /// An empty stage of `modules` radix-`radix` modules, wired straight
    /// through, whose inputs hold `capacity` packets.
    fn empty_stage(radix: u32, modules: u32, capacity: u32, ready_offset: u64) -> Stage {
        Stage::new(
            (0..radix * modules).collect(),
            radix,
            1,
            1,
            capacity,
            ready_offset,
        )
    }

    #[test]
    fn drop_front_removes_ungranted_head() {
        let mut stage = empty_stage(1, 1, 2, 0);
        let mut port = stage.inputs();
        port.push(0, packet(3), 0, 0);
        port.push(0, packet(4), 0, 0);
        let dropped = port.drop_front(0);
        assert_eq!(dropped, Some(packet(3)));
        assert_eq!(port.requesting_head(0, 0), Some(packet(4)));
        assert_eq!(port.ready_at()[0], 0);
    }

    #[test]
    fn space_accounting_includes_reservations() {
        let mut shallow = empty_stage(1, 1, 1, 0);
        let mut deep = empty_stage(1, 1, 2, 0);
        for stage in [&mut shallow, &mut deep] {
            let mut port = stage.inputs();
            assert!(port.has_space(0));
            port.push(0, packet(0), 10, 0); // reservation, head arrives later
        }
        assert!(!shallow.inputs().has_space(0));
        assert!(deep.inputs().has_space(0));
    }

    #[test]
    fn head_not_ready_until_arrival() {
        let mut stage = empty_stage(1, 1, 1, 0);
        let mut port = stage.inputs();
        port.push(0, packet(0), 10, 0);
        assert!(port.requesting_head(0, 9).is_none());
        assert!(port.requesting_head(0, 10).is_some());
        assert_eq!(port.ready_at()[0], 10);
        // Store-and-forward: ready only after the tail (offset) arrives.
        let mut stage = empty_stage(1, 1, 1, 24);
        let mut port = stage.inputs();
        port.push(0, packet(0), 10, 0);
        assert!(port.requesting_head(0, 10).is_none());
        assert!(port.requesting_head(0, 34).is_some());
        assert_eq!(port.ready_at()[0], 34);
    }

    #[test]
    fn granted_head_stops_requesting_and_vacates() {
        let mut stage = empty_stage(1, 1, 1, 0);
        let mut port = stage.inputs();
        port.push(0, packet(0), 0, 0);
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
        let mut stage = empty_stage(1, 1, 2, 0);
        let mut port = stage.inputs();
        port.push(0, packet(0), 0, 0);
        port.push(0, packet(1), 0, 0);
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
        let mut stage = empty_stage(4, 3, 2, 0);
        assert_eq!(stage.inputs().ready_at().len(), 12);
        assert_eq!(stage.outputs.len(), 12);
        assert_eq!(stage.queue_lens().sum::<usize>(), 0);
        // One flat array holds every port's ring of two slots.
        assert_eq!(stage.buffers.slots.len(), 24);
        assert_eq!(stage.buffers.rings.len(), 12);
    }

    #[test]
    fn grant_and_drop_on_empty_port_return_none() {
        let mut stage = empty_stage(1, 1, 1, 0);
        let mut port = stage.inputs();
        assert_eq!(port.grant_front(0, 1), None);
        assert_eq!(port.drop_front(0), None);
        assert_eq!((port.ready_at()[0], port.vacate_at()[0]), (NEVER, NEVER));
    }

    /// Ports in the model test's run.
    const MODEL_PORTS: usize = 3;

    /// The ports a walk of a due set visits, in order.
    fn walk(next: impl Fn(usize) -> Option<usize>) -> Vec<usize> {
        std::iter::successors(next(0), |&p| next(p + 1)).collect()
    }

    /// The ports whose time in `times` has come by `now`.
    fn due_by(times: &[u64], now: u64) -> Vec<usize> {
        (0..times.len()).filter(|&p| times[p] <= now).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The due-time arrays agree with the buffers after every push,
        /// grant, vacate, drop, park and wake: `ready_at[p] <= now` only
        /// when the front requests, and a requesting front is either due
        /// or parked; `ready_at[p]` never falls below the front's natural
        /// ready cycle, and equals it (exactly at the boundary cycles)
        /// unless parked; a push behind a parked front keeps the park;
        /// `vacate_at[p]` is the granted front's vacate cycle; and
        /// `front_tag[p]` is the front slot's tag. And the calendars agree
        /// with the arrays: after draining them to `now`, which steps a
        /// few cycles or jumps across several wheel laps, the `ready_at`
        /// due set is exactly the ports whose `ready_at` has come, and the
        /// `vacate_at` one exactly those whose `vacate_at` has, with heads
        /// ready less than one lap, or more than two laps, after their
        /// push.
        #[test]
        fn due_time_arrays_track_the_queues(
            capacity in 1u32..5,
            ready_offset in prop_oneof![Just(0u64), Just(24), Just(2 * WHEEL as u64 + 13)],
            ops in proptest::collection::vec(any::<u64>(), 1..300),
        ) {
            let mut stage = empty_stage(MODEL_PORTS as u32, 1, capacity, ready_offset);
            let mut now = 0u64;
            let mut next_packet = 0u32;
            for op in ops {
                let p = (op >> 8) as usize % MODEL_PORTS;
                let delay = (op >> 16) % 40;
                let mut ports = stage.inputs();
                match op % 8 {
                    0 if ports.has_space(p) => {
                        let behind = ports.buffers.len(p) > 0;
                        let before = ports.ready_at()[p];
                        ports.push(p, packet(next_packet), now + delay, next_packet % 5);
                        next_packet += 1;
                        if behind {
                            prop_assert_eq!(ports.ready_at()[p], before);
                        }
                    }
                    1 if ports.ready_tag(p, now).is_some() => {
                        let granted = ports.grant_front(p, now + 1 + delay);
                        prop_assert!(granted.is_some());
                    }
                    2 => {
                        ports.vacate(p, now);
                    }
                    3 if ports.ready_tag(p, now).is_some() => {
                        prop_assert!(ports.drop_front(p).is_some());
                    }
                    4 if ports.ready_tag(p, now).is_some() => {
                        let until = if delay % 2 == 0 { now + 1 + delay } else { UNTIL_DRAINED };
                        ports.park(p, until);
                        prop_assert_eq!(ports.park_of(p, now), Some(until));
                    }
                    5 => {
                        let parked = ports.park_of(p, now);
                        prop_assert_eq!(ports.unpark(p, now), parked);
                        prop_assert_eq!(ports.park_of(p, now), None);
                    }
                    6 => now += delay % 8,
                    _ => now += (op >> 24) % (3 * WHEEL as u64),
                }
                stage.advance(now);
                for times in stage.due_times() {
                    prop_assert_eq!(times.due_words().to_vec(), times.recount(now));
                }
                let ports = stage.inputs();
                prop_assert_eq!(
                    walk(|from| ports.next_ready(from)),
                    due_by(ports.ready_at(), now)
                );
                prop_assert_eq!(
                    walk(|from| ports.next_vacate(from)),
                    due_by(ports.vacate_at(), now)
                );
                for q in 0..MODEL_PORTS {
                    let ready_at = ports.ready_at()[q];
                    let requesting = ports.requesting_head(q, now).is_some();
                    let parked = ports.park_of(q, now).is_some();
                    prop_assert!(ready_at > now || requesting);
                    prop_assert_eq!(requesting, ready_at <= now || parked);
                    let front = ports.buffers.front(q).copied();
                    if front.is_some_and(|front| !front.granted()) {
                        let natural = ports.ready_cycle(q);
                        prop_assert!(ready_at >= natural);
                        if ready_at == natural {
                            prop_assert!(ports.requesting_head(q, ready_at).is_some());
                            if ready_at > 0 {
                                prop_assert!(ports.requesting_head(q, ready_at - 1).is_none());
                            }
                        }
                    } else {
                        prop_assert_eq!(ready_at, NEVER);
                    }
                    prop_assert_eq!(ports.front_tag[q], front.map_or(NO_TAG, |front| front.tag));
                    let granted_vacate = front.map_or(NEVER, |front| front.vacate_cycle());
                    prop_assert_eq!(ports.vacate_at()[q], granted_vacate);
                }
            }
        }

        /// The flat rings hold exactly what one `VecDeque` per port would,
        /// through random pushes, grants, vacates, drops, parks and wakes
        /// at depths 1 to 8: after every operation each port's length and
        /// slots, in FIFO order, equal the model's, and so do its
        /// `ready_at`, `vacate_at` and front tag, computed from the
        /// model's front and park. Pushes and pops far outnumber any depth,
        /// so every ring's head wraps many times.
        #[test]
        fn flat_rings_match_a_fifo_model(
            capacity in 1u32..=8,
            ready_offset in prop_oneof![Just(0u64), Just(24)],
            ops in proptest::collection::vec(any::<u64>(), 1..400),
        ) {
            let mut stage = empty_stage(RING_PORTS as u32, 1, capacity, ready_offset);
            let mut model: Vec<ModelPort> = (0..RING_PORTS).map(|_| ModelPort::default()).collect();
            let mut now = 0u64;
            let mut next_packet = 0u32;
            for op in ops {
                let p = (op >> 8) as usize % RING_PORTS;
                let delay = (op >> 16) % 8;
                let port = &mut model[p];
                let ungranted = port.fifo.front().is_some_and(|front| !front.granted());
                let mut ports = stage.inputs();
                match op % 10 {
                    0..=2 if port.fifo.len() < capacity as usize => {
                        let slot = Slot {
                            packet: packet(next_packet),
                            tag: next_packet % 5,
                            head_arrival: now + delay,
                            vacate_at: None,
                        };
                        next_packet += 1;
                        ports.push(p, slot.packet, slot.head_arrival, slot.tag);
                        port.fifo.push_back(slot);
                    }
                    3 if ungranted => {
                        let vacate_at = now + 1 + delay;
                        let front = port.fifo.front_mut().map(|front| {
                            front.vacate_at = NonZeroU64::new(vacate_at);
                            front.packet
                        });
                        port.park = None;
                        prop_assert_eq!(ports.grant_front(p, vacate_at), front);
                    }
                    4 => {
                        let mut freed = 0;
                        while port.fifo.front().is_some_and(|front| front.vacate_cycle() <= now) {
                            port.fifo.pop_front();
                            freed += 1;
                        }
                        port.park = None;
                        prop_assert_eq!(ports.vacate(p, now), freed);
                    }
                    5 if ungranted => {
                        let front = port.fifo.pop_front().map(|front| front.packet);
                        port.park = None;
                        prop_assert_eq!(ports.drop_front(p), front);
                    }
                    6 if ungranted => {
                        let until = if delay % 2 == 0 {
                            ports.ready_cycle(p) + 1 + delay
                        } else {
                            UNTIL_DRAINED
                        };
                        ports.park(p, until);
                        port.park = Some(until);
                    }
                    7 => {
                        let woken = port.park.filter(|&until| until > now);
                        if woken.is_some() {
                            port.park = None;
                        }
                        prop_assert_eq!(ports.unpark(p, now), woken);
                    }
                    _ => now += delay,
                }
                let ports = stage.inputs();
                for (q, want) in model.iter().enumerate() {
                    let len = ports.buffers.len(q);
                    prop_assert_eq!(len, want.fifo.len());
                    let fifo: Vec<Slot> = (0..len)
                        .map(|i| ports.buffers.slots[ports.buffers.index(q, i)])
                        .collect();
                    prop_assert_eq!(&fifo, &Vec::from(want.fifo.clone()));
                    let front = want.fifo.front();
                    prop_assert_eq!(ports.front_packet(q), front.map(|front| front.packet));
                    prop_assert_eq!(ports.ready_at()[q], want.ready_at(ready_offset));
                    prop_assert_eq!(
                        ports.vacate_at()[q],
                        front.map_or(NEVER, Slot::vacate_cycle)
                    );
                    prop_assert_eq!(ports.front_tag[q], front.map_or(NO_TAG, |front| front.tag));
                }
            }
        }
    }

    /// Ports in the ring model test's run.
    const RING_PORTS: usize = 2;

    /// One port of the ring test's model: a plain FIFO and the cycle its
    /// front is parked until, if it is.
    #[derive(Default)]
    struct ModelPort {
        fifo: VecDeque<Slot>,
        park: Option<u64>,
    }

    impl ModelPort {
        /// The `ready_at` the port's front implies (see the module docs).
        fn ready_at(&self, ready_offset: u64) -> u64 {
            match self.fifo.front() {
                Some(front) if !front.granted() => {
                    self.park.unwrap_or(front.head_arrival + ready_offset)
                }
                _ => NEVER,
            }
        }
    }
}
