//! Per-port due times with a calendar of the ports whose time has come.
//!
//! The engine's three per-cycle sweeps — vacate, source grants and the
//! grant sweep — each visit the ports of one due-time array whose time is
//! at or before the current cycle: a stage's `vacate_at` and `ready_at`
//! (see [`crate::module`]) and the sources' `source_due`. On the 2048-port
//! network that is about 170 ports a cycle out of 14,336 array entries,
//! so [`DueTimes`] keeps, beside each array, the set of its due ports and
//! a calendar of the ones coming due, and the sweeps walk the set instead
//! of reading the array end to end:
//!
//! * **The due set** is a bit set holding exactly the ports whose time is
//!   at or before the last cycle drained ([`DueTimes::advance`]). It is
//!   walked in ascending port order, the order in which the parity
//!   fixtures pin grants, source entries and wakes.
//! * **The wheel** is a hashed timing wheel of [`WHEEL`] buckets of port
//!   indices: a port whose time is set to a finite cycle `t` after the
//!   last cycle drained goes into bucket `t % WHEEL`. Its memory does not
//!   depend on packet length or head latency: a time more than one lap
//!   ahead stays in its bucket, and each pass over the bucket keeps it
//!   until its lap comes (the lap check: its time, read from the array,
//!   is still ahead).
//! * **Every change goes through [`DueTimes::set`]**, which writes the
//!   array, puts a due time straight into the set, and takes a future or
//!   infinite one ([`NEVER`], [`UNTIL_DRAINED`]) out of it. An entry whose
//!   port's time has since changed is stale; the pass over its bucket
//!   drops it after one compare with the array.
//!
//! At the start of every cycle the engine drains the bucket of the new
//! cycle into the set. A port stays in the set for as long as its time
//! stays at or before the current cycle: a head held due by a transient
//! fault, or left due by its visit, is walked again next cycle.

/// "No work due" in a due-time array.
pub(crate) const NEVER: u64 = u64::MAX;

/// A park with no due time: the head waits until its downstream buffer
/// drains. Distinct from [`NEVER`], so finding the waiters on a buffer
/// reads no queue.
pub(crate) const UNTIL_DRAINED: u64 = u64::MAX - 1;

/// Buckets in a calendar's wheel: a power of two that spans the §6
/// network's due-time horizon in one lap (a grant there holds its output
/// for `head_latency + flits` = 27 cycles); longer packets lap it.
pub(crate) const WHEEL: usize = 64;

/// Entries a bucket makes room for on its first push. Grown from the
/// default of four, the buckets of one §6 engine made about 2,000 small
/// allocations, and freeing them left the allocator lists of tiny blocks
/// that a later allocation had to sort through: the set-up that
/// `explore_million` times after its spot-check simulations read about
/// 1.2× slower (DESIGN.md §7.3).
const BUCKET_START: usize = 32;

/// Bits per word of the due sets and of the grant sweep's port sets.
pub(crate) const WORD: usize = 64;

/// The first set bit at or after `from` in the bit set `words`.
pub(crate) fn next_set(words: &[u64], from: usize) -> Option<usize> {
    let mut word = from / WORD;
    let mut bits = words.get(word)? & (u64::MAX << (from % WORD));
    while bits == 0 {
        word += 1;
        bits = *words.get(word)?;
    }
    Some(word * WORD + bits.trailing_zeros() as usize)
}

/// One due-time array with the set of its due ports and a timing wheel
/// of the ones coming due (see the module docs).
#[derive(Debug)]
pub(crate) struct DueTimes {
    /// `at[p]` = port `p`'s due time.
    at: Vec<u64>,
    /// `due` bit `p` = `at[p] <= now`.
    due: Vec<u64>,
    /// `wheel[t % WHEEL]` holds the ports whose time was set to `t` while
    /// it lay ahead (and stale entries of ports whose time has moved).
    wheel: Vec<Vec<u32>>,
    /// The last cycle drained: times at or before it are due.
    now: u64,
}

impl DueTimes {
    /// `ports` ports, none due. Three allocations; the wheel's buckets
    /// allocate on their first entry, with room for [`BUCKET_START`].
    pub fn new(ports: usize) -> Self {
        Self {
            at: vec![NEVER; ports],
            due: vec![0; ports.div_ceil(WORD)],
            wheel: (0..WHEEL).map(|_| Vec::new()).collect(),
            now: 0,
        }
    }

    /// Every port's due time, in port order.
    #[cfg(any(test, debug_assertions))]
    pub fn times(&self) -> &[u64] {
        &self.at
    }

    /// Port `p`'s due time.
    pub fn at(&self, p: usize) -> u64 {
        self.at[p]
    }

    /// Set port `p`'s due time to `t`: due now if `t` is at or before the
    /// last cycle drained, else out of the due set and, if finite, into
    /// the wheel.
    pub fn set(&mut self, p: usize, t: u64) {
        if self.at[p] == t {
            return;
        }
        self.at[p] = t;
        let bit = 1 << (p % WORD);
        if t <= self.now {
            self.due[p / WORD] |= bit;
        } else {
            self.due[p / WORD] &= !bit;
            if t < UNTIL_DRAINED {
                let bucket = &mut self.wheel[(t % WHEEL as u64) as usize];
                if bucket.capacity() == 0 {
                    bucket.reserve_exact(BUCKET_START);
                }
                bucket.push(p as u32);
            }
        }
    }

    /// Lower port `p`'s due time to `t` if that is earlier.
    pub fn lower(&mut self, p: usize, t: u64) {
        if t < self.at[p] {
            self.set(p, t);
        }
    }

    /// The first due port at or after `from`, in index order.
    pub fn first_due(&self, from: usize) -> Option<usize> {
        next_set(&self.due, from)
    }

    /// Drain the wheel's buckets for every cycle after the last one
    /// drained, up to `now` (each bucket once, however far `now` jumps),
    /// moving the ports whose time has come into the due set.
    pub fn advance(&mut self, now: u64) {
        debug_assert!(now >= self.now, "due calendar run backwards");
        let cycles = (now - self.now).min(WHEEL as u64);
        let Self { at, due, wheel, .. } = self;
        for cycle in now + 1 - cycles..=now {
            let slot = (cycle % WHEEL as u64) as usize;
            wheel[slot].retain(|&p| {
                let t = at[p as usize];
                if t <= now {
                    due[p as usize / WORD] |= 1 << (p as usize % WORD);
                    false
                } else {
                    // The lap check: a later lap's entry waits in its
                    // bucket; a stale one (its time moved) goes.
                    t < UNTIL_DRAINED && t % WHEEL as u64 == slot as u64
                }
            });
        }
        self.now = now;
    }

    /// The due set as bit words (debug builds compare it with
    /// [`Self::recount`]).
    #[cfg(any(test, debug_assertions))]
    pub fn due_words(&self) -> &[u64] {
        &self.due
    }

    /// The due set rebuilt from the array at cycle `now`.
    #[cfg(any(test, debug_assertions))]
    pub fn recount(&self, now: u64) -> Vec<u64> {
        let mut due = vec![0; self.due.len()];
        for (p, _) in self.at.iter().enumerate().filter(|(_, &t)| t <= now) {
            due[p / WORD] |= 1 << (p % WORD);
        }
        due
    }
}
