//! The live-packet arena: slot storage with a free list and stable refs.
//!
//! The engine's hot path moves packets between source queues, buffer
//! slots, the retry heap, and the delivery path every cycle. Storing the
//! [`Packet`] by value in each of those places meant cloning it (and its
//! old per-packet routing-tag `Vec`) at every hop. Instead, every live
//! packet lives in exactly one arena slot from injection to its terminal
//! state (delivery or final drop), and everything else passes around a
//! 4-byte [`PacketRef`]. Slots are recycled through a free list, so a
//! steady-state run stops allocating entirely once the arena has grown to
//! the peak live-packet count.
//!
//! The packet *id* (`Packet::id`, the injection ordinal) remains the
//! stable external identity used in events and traces; a `PacketRef` is
//! an internal handle that is only valid between insert and remove.

use crate::packet::Packet;

/// A handle to a live packet in the [`PacketStore`]. Copyable, 4 bytes,
/// valid from [`PacketStore::insert`] until [`PacketStore::remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketRef(pub(crate) u32);

#[derive(Debug)]
struct StoreSlot {
    packet: Packet,
    /// Free-list discipline guard (checked in debug builds only).
    occupied: bool,
}

/// Arena of live packets (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct PacketStore {
    slots: Vec<StoreSlot>,
    free: Vec<u32>,
}

impl PacketStore {
    /// Add a packet, reusing a freed slot when one is available.
    pub fn insert(&mut self, packet: Packet) -> PacketRef {
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(!slot.occupied, "free list handed out a live slot");
            slot.packet = packet;
            slot.occupied = true;
            PacketRef(idx)
        } else {
            #[expect(
                clippy::expect_used,
                reason = "arena refs are u32 by design; 4 Gi live packets exceeds any simulable network"
            )]
            let idx = u32::try_from(self.slots.len()).expect("more than u32::MAX live packets");
            self.slots.push(StoreSlot {
                packet,
                occupied: true,
            });
            PacketRef(idx)
        }
    }

    /// The packet behind a live ref.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        let slot = &self.slots[r.0 as usize];
        debug_assert!(slot.occupied, "read through a stale PacketRef");
        &slot.packet
    }

    /// Mutable access to a live packet (retry bookkeeping).
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        let slot = &mut self.slots[r.0 as usize];
        debug_assert!(slot.occupied, "write through a stale PacketRef");
        &mut slot.packet
    }

    /// Remove a packet in its terminal state, recycling the slot.
    pub fn remove(&mut self, r: PacketRef) -> Packet {
        let slot = &mut self.slots[r.0 as usize];
        debug_assert!(slot.occupied, "double remove through a PacketRef");
        slot.occupied = false;
        self.free.push(r.0);
        slot.packet
    }

    /// Number of live (occupied) slots. Referenced only by the engine's
    /// debug-build conservation checks and tests, so compiled out of
    /// release builds with them.
    #[cfg(any(test, debug_assertions))]
    pub fn live(&self) -> u64 {
        (self.slots.len() - self.free.len()) as u64
    }

    /// Total slots ever allocated (the peak live-packet high-water mark).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(id: u64) -> Packet {
        Packet {
            id,
            src: 1,
            dest: 2,
            injected_at: 0,
            entered_at: None,
            attempts: 0,
            tracked: false,
        }
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut store = PacketStore::default();
        let a = store.insert(packet(0));
        let b = store.insert(packet(1));
        assert_eq!(store.live(), 2);
        assert_eq!(store.get(a).id, 0);
        assert_eq!(store.get(b).id, 1);

        let removed = store.remove(a);
        assert_eq!(removed.id, 0);
        assert_eq!(store.live(), 1);

        // The freed slot is reused: no arena growth.
        let c = store.insert(packet(2));
        assert_eq!(c, a);
        assert_eq!(store.capacity(), 2);
        assert_eq!(store.get(c).id, 2);
    }

    #[test]
    fn mutation_is_in_place() {
        let mut store = PacketStore::default();
        let a = store.insert(packet(5));
        store.get_mut(a).attempts = 3;
        store.get_mut(a).entered_at = Some(40);
        assert_eq!(store.get(a).attempts, 3);
        assert_eq!(store.get(a).entered_at, Some(40));
    }
}
