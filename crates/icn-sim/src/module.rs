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
//! due without touching a queue. Each lives in a [`DueTimes`], whose
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
//! from it without touching the queue, the packet arena or the route
//! table.
//!
//! Only four operations change a port's front — a push into an empty
//! port, a grant, a vacate pop, and a fault drop — and all four go
//! through [`InputPorts`], which refreshes all three arrays after each
//! one (a push behind an existing front leaves a park in place); parks
//! and wakes go through it too. Each refresh goes through
//! [`DueTimes::set`], which keeps the calendar in step with its array.
//! That keeps the invariant in this file alone.

use std::collections::VecDeque;
use std::num::NonZeroU64;

use crate::due::{DueTimes, NEVER, UNTIL_DRAINED};
use crate::store::PacketRef;

/// "No front" in the `front_tag` array.
pub(crate) const NO_TAG: u32 = u32::MAX;

/// A packet occupying (or reserved into) one input-buffer slot.
#[derive(Debug, Clone, Copy)]
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
    fn granted(&self) -> bool {
        self.vacate_at.is_some()
    }

    /// The granted slot's vacate cycle, or [`NEVER`].
    fn vacate_cycle(&self) -> u64 {
        self.vacate_at.map_or(NEVER, NonZeroU64::get)
    }
}

/// One module input port's FIFO of buffer slots. Its length counts both
/// resident packets and in-flight reservations, which is exactly what
/// the paper's buffer-full line signals upstream. Only the front slot
/// can be granted: the next one waits for it to vacate.
type Queue = VecDeque<Slot>;

/// The due cycle of `queue`'s front if it is parked (its `ready_at` moved
/// off its natural ready cycle) and not yet due at `now`.
fn pending_park(queue: &Queue, ready_at: u64, ready_offset: u64, now: u64) -> Option<u64> {
    let front = queue.front()?;
    (ready_at > now && !front.granted() && ready_at != front.head_arrival + ready_offset)
        .then_some(ready_at)
}

/// One stage's input ports together with their due-time arrays — the
/// only way to change a port's queue (see the module docs).
#[derive(Debug)]
pub(crate) struct InputPorts<'a> {
    queues: &'a mut [Queue],
    ready: &'a mut DueTimes,
    vacate: &'a mut DueTimes,
    front_tag: &'a mut [u32],
    ready_offset: u64,
}

impl InputPorts<'_> {
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
        if front.granted() || front.head_arrival + self.ready_offset > now {
            None
        } else {
            Some(front.packet)
        }
    }

    /// Port `p`'s front output tag if its head is due for examination at
    /// `now`: one `ready_at` compare and the cached tag, without touching
    /// the queue. A parked head requests but is not due. Debug builds
    /// check a due port against [`Self::requesting_head`].
    pub fn ready_tag(&self, p: usize, now: u64) -> Option<u32> {
        let ready = self.ready.at(p) <= now;
        debug_assert!(
            !ready || self.requesting_head(p, now).is_some(),
            "ready_at disagrees with input port {p}'s queue at cycle {now}"
        );
        ready.then(|| self.front_tag[p])
    }

    /// Port `p`'s front packet, granted or not (debug builds check cached
    /// tags against its route).
    pub fn front_packet(&self, p: usize) -> Option<PacketRef> {
        self.queues[p].front().map(|front| front.packet)
    }

    /// The cycle port `p`'s front head became (or becomes) ready to
    /// request — `ready_at` before any park; [`NEVER`] for an empty port.
    pub fn ready_cycle(&self, p: usize) -> u64 {
        self.queues[p]
            .front()
            .map_or(NEVER, |front| front.head_arrival + self.ready_offset)
    }

    /// The cycle a parked front at port `p` is due again, if it is parked
    /// and not yet due at `now` ([`UNTIL_DRAINED`]: parked on a full
    /// downstream buffer).
    pub fn park_of(&self, p: usize, now: u64) -> Option<u64> {
        pending_park(&self.queues[p], self.ready.at(p), self.ready_offset, now)
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
            self.queues[p].front().is_some_and(
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
        self.queues[p].push_back(Slot {
            packet,
            head_arrival,
            tag,
            vacate_at: None,
        });
        if self.queues[p].len() == 1 {
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
        let front = self.queues[p].front_mut()?;
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
        let queue = &mut self.queues[p];
        let mut freed = 0;
        while queue
            .front()
            .is_some_and(|front| front.vacate_cycle() <= now)
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
        debug_assert!(!slot.granted(), "dropped a granted (in-transfer) packet");
        self.refresh(p);
        Some(slot.packet)
    }

    /// Recompute port `p`'s due times and front tag from its (new) front.
    fn refresh(&mut self, p: usize) {
        let (ready, vacate, tag) = match self.queues[p].front() {
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

/// One network stage: `module_count` crossbar modules of the stage's
/// radix, ports flattened module-major (see the module docs).
#[derive(Debug)]
pub(crate) struct Stage {
    pub radix: u32,
    /// Input-port queues, module-major: `queues[m * radix + port]`.
    queues: Vec<Queue>,
    /// Due-time arrays with their calendars, and front tags, indexed like
    /// `queues` (see the module docs).
    ready: DueTimes,
    vacate: DueTimes,
    front_tag: Vec<u32>,
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
            ready: DueTimes::new(ports),
            vacate: DueTimes::new(ports),
            front_tag: vec![NO_TAG; ports],
            ready_offset,
            outputs: (0..ports).map(|_| OutputPort::default()).collect(),
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

    /// All input ports and, separately borrowed, all output ports.
    pub fn split(&mut self) -> (InputPorts<'_>, &mut [OutputPort]) {
        (
            InputPorts {
                queues: &mut self.queues,
                ready: &mut self.ready,
                vacate: &mut self.vacate,
                front_tag: &mut self.front_tag,
                ready_offset: self.ready_offset,
            },
            &mut self.outputs,
        )
    }

    /// The `ready_at` and `vacate_at` calendars (debug builds recount
    /// their due sets from the arrays).
    #[cfg(any(test, debug_assertions))]
    pub fn due_times(&self) -> [&DueTimes; 2] {
        [&self.ready, &self.vacate]
    }

    /// Each input queue's length, in port order (the engine keeps these
    /// as counts; debug builds check the counts against this).
    #[cfg(any(test, debug_assertions))]
    pub fn queue_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues.iter().map(VecDeque::len)
    }

    /// Heads parked on a full downstream buffer, counted per output line
    /// of the stage from the ports (debug builds check the engine's
    /// per-line gauges against this).
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
    /// check the engine's parked gauges against this).
    #[cfg(debug_assertions)]
    pub fn parked(&self, now: u64) -> (u64, u64) {
        self.queues
            .iter()
            .zip(self.ready.times())
            .filter_map(|(queue, &ready_at)| pending_park(queue, ready_at, self.ready_offset, now))
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

    fn packet(id: u32) -> PacketRef {
        PacketRef(id)
    }

    #[test]
    fn drop_front_removes_ungranted_head() {
        let mut stage = Stage::new(1, 1, 0);
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
        let mut stage = Stage::new(1, 1, 0);
        let mut port = stage.inputs();
        assert!(port.has_space(0, 1));
        port.push(0, packet(0), 10, 0); // reservation, head arrives later
        assert!(!port.has_space(0, 1));
        assert!(port.has_space(0, 2));
    }

    #[test]
    fn head_not_ready_until_arrival() {
        let mut stage = Stage::new(1, 1, 0);
        let mut port = stage.inputs();
        port.push(0, packet(0), 10, 0);
        assert!(port.requesting_head(0, 9).is_none());
        assert!(port.requesting_head(0, 10).is_some());
        assert_eq!(port.ready_at()[0], 10);
        // Store-and-forward: ready only after the tail (offset) arrives.
        let mut stage = Stage::new(1, 1, 24);
        let mut port = stage.inputs();
        port.push(0, packet(0), 10, 0);
        assert!(port.requesting_head(0, 10).is_none());
        assert!(port.requesting_head(0, 34).is_some());
        assert_eq!(port.ready_at()[0], 34);
    }

    #[test]
    fn granted_head_stops_requesting_and_vacates() {
        let mut stage = Stage::new(1, 1, 0);
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
        let mut stage = Stage::new(1, 1, 0);
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
        let mut stage = Stage::new(4, 3, 0);
        assert_eq!(stage.inputs().ready_at().len(), 12);
        assert_eq!(stage.outputs.len(), 12);
        assert_eq!(stage.queue_lens().sum::<usize>(), 0);
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

        /// The due-time arrays agree with the queues after every push,
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
            let mut stage = Stage::new(MODEL_PORTS as u32, 1, ready_offset);
            let mut now = 0u64;
            let mut next_packet = 0u32;
            for op in ops {
                let p = (op >> 8) as usize % MODEL_PORTS;
                let delay = (op >> 16) % 40;
                let mut ports = stage.inputs();
                match op % 8 {
                    0 if ports.has_space(p, capacity) => {
                        let behind = !ports.queues[p].is_empty();
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
                    let front = ports.queues[q].front().copied();
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
    }
}
