//! Per-stage kernels of the engine's vacate and grant phases, and the
//! deferred effects that let the grant sweep read pre-phase state.
//!
//! Within one cycle, the modules of a stage are independent: each packet
//! sits in exactly one module's input buffer, every output line feeds a
//! *unique* downstream input port (the entry tables are injective), and
//! routing is a pure function of the destination. The engine runs the
//! vacate phase stage by stage, then the grant sweep of every stage, then
//! one merge, on the calling thread.
//!
//! # Why the grant sweep defers its effects
//!
//! A grant in stage `s` reserves a slot in stage `s + 1`, whose grant
//! sweep reads that stage's occupancy for back-pressure. The paper's
//! switches act in lock step, so every sweep of a cycle must see the
//! post-vacate state, not a neighbour's same-cycle grants:
//!
//! * **Reads are pre-phase state.** Back-pressure reads the occupancy
//!   counts ([`ExecState::occ`]), which change only before the grant
//!   sweeps (vacates subtract what they free; source grants add to stage
//!   0, which no grant reads) or at the merge (downstream pushes add,
//!   fault drops subtract). During the grant phase they therefore hold
//!   post-vacate occupancy — and within one stage the only writer to a
//!   downstream port is its unique upstream line, which reads the port
//!   before pushing. The packet arena, route/entry tables, and fault
//!   health are read-only during the grant phase.
//! * **Writes are stage-local or deferred.** A stage's sweep mutates only
//!   its own input/output ports, due-time arrays (`ready_at`,
//!   `vacate_at`) and front tags (see [`crate::module`]). Everything
//!   with a global ordering — events, downstream pushes, deliveries,
//!   fault drops (and their occupancy decrements), stage counters,
//!   telemetry — is buffered in the stage's [`ShardEffects`] and applied
//!   at the merge, stage by stage in order.
//! * **Parks are stage-local; wakes run between phases.** A grant sweep
//!   parks only its own heads and counts them in its stage's [`Parked`]
//!   gauges. The vacate phase only *records* the full ports it frees, and
//!   the engine wakes those ports' waiters in one pass before the grant
//!   phase; fault drops wake theirs at the merge, and fault activations
//!   at the start of the cycle. A parked head is exactly as blocked as
//!   when it parked — its module and link are healthy (activations wake
//!   it), a busy output stays busy until its `busy_until` (the park's due
//!   cycle), and a full downstream port stays full until a vacate or drop
//!   (which wake it), because its only writer is the output the head
//!   waits on. So leaving it out of the sweep changes no grant, drop or
//!   event, and its stage's gauges count it exactly as the sweep did.
//!
//! # A module visit follows its due heads
//!
//! The grant sweep scans the stage's `ready_at` array once and visits
//! each module with a due port, in module order. A visit costs
//! O(due heads + requested outputs), not O(radix), through per-module
//! bit sets in [`ShardScratch`] (⌈radix / 64⌉ words each, so any radix
//! takes the same path):
//!
//! 1. the scan marks the module's due inputs;
//! 2. each due head's cached output tag ([`crate::module`]) adds its
//!    input to that output's contender set;
//! 3. the requested outputs are walked in ascending order — the order
//!    of the grant events — and each grants, blocks or fault-drops; a
//!    head exposed by a permanent-link drain requests its own output,
//!    which the walk still reaches if it lies ahead;
//! 4. the contenders left on a blocked or granted output park.
//!
//! The parity fixtures in `tests/parity.rs` and the property suite pin
//! the resulting bytes.

use crate::config::Arbitration;
use crate::fault::{FaultState, Health};
use crate::metrics::StageCounters;
use crate::module::{next_due, InputPorts, OutputPort, UNTIL_DRAINED};
use crate::store::{PacketRef, PacketStore};
use crate::telemetry::SimEvent;

/// Per-stage constants the grant kernel needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageMeta {
    /// Crossbar radix.
    pub radix: u32,
    /// Modules in the stage.
    pub modules: u32,
    /// Head latency per grant.
    pub head_latency: u64,
}

/// "Leave the head due" in [`ShardScratch::park_at`]: no output is busy
/// until cycle 0.
const STAY_DUE: u64 = 0;

/// Bits per word of the grant sweep's port sets.
const WORD: usize = 64;

/// The first set bit at or after `from` in the bit set `words`.
fn next_set(words: &[u64], from: usize) -> Option<usize> {
    let mut word = from / WORD;
    let mut bits = words.get(word)? & (u64::MAX << (from % WORD));
    while bits == 0 {
        word += 1;
        bits = *words.get(word)?;
    }
    Some(word * WORD + bits.trailing_zeros() as usize)
}

/// The input that wins an output of a radix-`radix` module, given the
/// bit set of the inputs whose due heads request it (`None` if empty):
/// the lowest index under fixed priority; under round robin the first
/// index at or after `rr` (the output's `rr_next`), wrapping round —
/// the contender with the least `(in + radix - rr) % radix`.
pub(crate) fn pick_winner(
    contenders: &[u64],
    arbitration: Arbitration,
    rr: u32,
    radix: u32,
) -> Option<u32> {
    debug_assert!(rr < radix, "rr_next {rr} outside radix {radix}");
    debug_assert!(
        next_set(contenders, radix as usize).is_none(),
        "contender beyond radix {radix}"
    );
    let from = match arbitration {
        Arbitration::FixedPriority => 0,
        Arbitration::RoundRobin => rr as usize,
    };
    next_set(contenders, from)
        .or_else(|| next_set(contenders, 0))
        .map(|i| i as u32)
}

/// Reusable arbitration scratch for one module visit of the grant sweep,
/// sized for the widest stage. A radix-`r` stage uses `words =
/// ⌈r / 64⌉` 64-bit words per port set.
///
/// Validity: `due` and `wanted` are rebuilt at the start of every module
/// visit. An output's `contenders`, `tag_count` and `park_at` entries
/// are written when its bit in `wanted` is first set during the visit
/// and are valid only while it is set; every other entry holds stale
/// data from an earlier visit and is never read.
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    /// Words per port set in the current stage.
    words: usize,
    /// Bit set of the visited module's inputs whose `ready_at` is due.
    due: Vec<u64>,
    /// Bit set of the outputs requested by a due head this visit.
    wanted: Vec<u64>,
    /// `contenders[out * words..][..words]` = bit set of the inputs
    /// whose due head requests output `out` and is still ungranted.
    contenders: Vec<u64>,
    /// `tag_count[out]` = how many inputs `contenders` holds for `out`.
    tag_count: Vec<u32>,
    /// `park_at[out]` = where the heads left requesting output `out`
    /// park: its `busy_until`, [`UNTIL_DRAINED`] for a full downstream
    /// buffer, or [`STAY_DUE`] (a faulted output, or one requested only
    /// after the walk passed it).
    park_at: Vec<u64>,
}

impl ShardScratch {
    fn new(max_radix: usize) -> Self {
        let words = max_radix.div_ceil(WORD);
        Self {
            words,
            due: vec![0; words],
            wanted: vec![0; words],
            contenders: vec![0; max_radix * words],
            tag_count: vec![0; max_radix],
            park_at: vec![STAY_DUE; max_radix],
        }
    }

    /// Size the port sets for a stage of radix `radix`.
    fn start_stage(&mut self, radix: usize) {
        self.words = radix.div_ceil(WORD);
    }

    /// Start a module visit: no input due, no output requested.
    fn start_module(&mut self) {
        self.due[..self.words].fill(0);
        self.wanted[..self.words].fill(0);
    }

    /// Input `in_port` of the visited module is due.
    fn mark_due(&mut self, in_port: usize) {
        self.due[in_port / WORD] |= 1 << (in_port % WORD);
    }

    fn due(&self) -> &[u64] {
        &self.due[..self.words]
    }

    fn wanted(&self) -> &[u64] {
        &self.wanted[..self.words]
    }

    fn contenders(&self, out: usize) -> &[u64] {
        &self.contenders[out * self.words..][..self.words]
    }

    /// Input `in_port`'s due head requests output `out`; the output's
    /// entries are initialised on its first request this visit.
    fn request(&mut self, out: usize, in_port: usize) {
        let bit = 1 << (out % WORD);
        let words = self.words;
        if self.wanted[out / WORD] & bit == 0 {
            self.wanted[out / WORD] |= bit;
            self.contenders[out * words..][..words].fill(0);
            self.tag_count[out] = 0;
            self.park_at[out] = STAY_DUE;
        }
        self.contenders[out * words + in_port / WORD] |= 1 << (in_port % WORD);
        self.tag_count[out] += 1;
    }

    /// Input `in_port`'s head no longer requests output `out` (granted
    /// or dropped).
    fn withdraw(&mut self, out: usize, in_port: usize) {
        self.contenders[out * self.words + in_port / WORD] &= !(1 << (in_port % WORD));
        self.tag_count[out] -= 1;
    }
}

/// One stage's parked heads, kept as gauges so the blocked counters stay
/// exact per head-cycle while the sweep skips them. A head parked on a
/// busy output is due again at that output's `busy_until`, at most
/// `head_latency + flits` cycles ahead, so those parks sit in a wake
/// calendar of `head_latency + flits + 1` slots indexed by cycle.
#[derive(Debug)]
pub(crate) struct Parked {
    /// Heads parked on a busy output and not yet due.
    pub busy: u64,
    /// Heads parked on a full downstream buffer.
    pub downstream: u64,
    /// `on_line[l]` = heads parked on the full buffer that the stage's
    /// output line `l` feeds, so a wake finds a line with none at once.
    on_line: Vec<u32>,
    /// `wakes[t % len]` = busy parks due at cycle `t`.
    wakes: Vec<u32>,
}

impl Parked {
    fn new(horizon: u64, lines: usize) -> Self {
        Self {
            busy: 0,
            downstream: 0,
            on_line: vec![0; lines],
            wakes: vec![0; horizon as usize + 1],
        }
    }

    /// Count a head parked until `until` ([`UNTIL_DRAINED`]: downstream,
    /// waiting on output line `line`).
    pub fn park(&mut self, until: u64, line: usize) {
        if until == UNTIL_DRAINED {
            self.downstream += 1;
            self.on_line[line] += 1;
        } else {
            self.busy += 1;
            let slot = (until % self.wakes.len() as u64) as usize;
            self.wakes[slot] += 1;
        }
    }

    /// Uncount a head woken before its park `until` came due (`line` as
    /// for [`Self::park`]).
    pub fn unpark(&mut self, until: u64, line: usize) {
        if until == UNTIL_DRAINED {
            self.downstream -= 1;
            self.on_line[line] -= 1;
        } else {
            self.busy -= 1;
            let slot = (until % self.wakes.len() as u64) as usize;
            self.wakes[slot] -= 1;
        }
    }

    /// Release the busy parks due at `now` and return the heads still
    /// parked through this cycle: `(busy, downstream)`.
    fn tick(&mut self, now: u64) -> (u64, u64) {
        let slot = (now % self.wakes.len() as u64) as usize;
        self.busy -= u64::from(std::mem::take(&mut self.wakes[slot]));
        (self.busy, self.downstream)
    }

    /// Busy parks in the calendar (debug builds check it equals
    /// [`Self::busy`]).
    #[cfg(any(test, debug_assertions))]
    pub fn calendar_total(&self) -> u64 {
        self.wakes.iter().map(|&n| u64::from(n)).sum()
    }

    /// Downstream parks per output line (debug builds check them against
    /// the ports).
    #[cfg(any(test, debug_assertions))]
    pub fn on_line(&self) -> &[u32] {
        &self.on_line
    }
}

/// Everything a stage's grant sweep produces besides its own port
/// mutations, buffered for the merge. Buffers are reused across cycles
/// (cleared, never shrunk).
#[derive(Debug, Default)]
pub(crate) struct ShardEffects {
    /// Counter deltas for the stage.
    pub counters: StageCounters,
    /// The sweep made forward progress (granted an output).
    pub progressed: bool,
    /// Grant events, in (module, out_port) order.
    pub events: Vec<SimEvent>,
    /// Pre-grant waiting cycles per granted head (stage-wait histogram).
    pub stage_waits: Vec<u64>,
    /// Granted module indices (hotspot heatmap), one per grant.
    pub heat_grants: Vec<u32>,
    /// Deferred downstream insertions: `(flat downstream port, packet,
    /// head arrival, its output tag in the next stage)`. Each port
    /// receives at most one push per cycle (its upstream line is
    /// unique), so apply order across ports is free.
    pub pushes: Vec<(u32, PacketRef, u64, u32)>,
    /// Last-stage exits: `(packet, out line, delivered-at cycle)`.
    pub deliveries: Vec<(PacketRef, u32, u64)>,
    /// Packets dropped by permanent faults in this stage, with the
    /// input port each left (its occupancy count drops at the
    /// merge, so back-pressure reads stay post-vacate until then).
    pub drops: Vec<(u32, PacketRef)>,
}

impl ShardEffects {
    /// Reset for the next cycle, keeping capacity.
    pub fn clear(&mut self) {
        self.counters = StageCounters::default();
        self.progressed = false;
        self.events.clear();
        self.stage_waits.clear();
        self.heat_grants.clear();
        self.pushes.clear();
        self.deliveries.clear();
        self.drops.clear();
    }
}

/// Accumulate one stage's counter deltas (merge step).
pub(crate) fn add_counters(into: &mut StageCounters, delta: &StageCounters) {
    into.grants += delta.grants;
    into.blocked_output_busy += delta.blocked_output_busy;
    into.blocked_downstream_full += delta.blocked_downstream_full;
    into.blocked_fault += delta.blocked_fault;
    into.dropped += delta.dropped;
}

/// The engine's per-stage execution state: every reusable buffer the
/// vacate and grant sweeps fill, and the occupancy counts.
#[derive(Debug)]
pub(crate) struct ExecState {
    /// Per-stage deferred grant effects.
    pub effects: Vec<ShardEffects>,
    /// Arbitration scratch, shared by the stages' sweeps.
    pub scratch: ShardScratch,
    /// Per stage, the ports the vacate phase freed a slot in while full:
    /// the heads upstream of them may be parked on them.
    pub unblocked: Vec<Vec<u32>>,
    /// Per-stage parked-head gauges.
    pub parked: Vec<Parked>,
    /// Input occupancy per stage, in port order: `occ[stage][port]`.
    /// Kept equal to each queue's length as ports change: a push adds one
    /// (source grants, merge), the vacate phase subtracts what it frees,
    /// and the merge subtracts fault drops. During the grant phase it
    /// therefore holds post-vacate occupancy, which back-pressure reads.
    pub occ: Vec<Vec<u32>>,
    /// Per-stage constants.
    pub meta: Vec<StageMeta>,
}

impl ExecState {
    /// Allocate every per-stage buffer for the given stage shape and
    /// packet length.
    pub fn build(meta: Vec<StageMeta>, flits: u64) -> Self {
        let max_radix = meta.iter().map(|m| m.radix as usize).max().unwrap_or(0);
        Self {
            effects: meta.iter().map(|_| ShardEffects::default()).collect(),
            scratch: ShardScratch::new(max_radix),
            unblocked: meta.iter().map(|_| Vec::new()).collect(),
            parked: meta
                .iter()
                .map(|m| Parked::new(m.head_latency + flits, (m.modules * m.radix) as usize))
                .collect(),
            occ: meta
                .iter()
                .map(|m| vec![0; (m.modules * m.radix) as usize])
                .collect(),
            meta,
        }
    }
}

/// Free drained slots in one stage's input ports and take them off the
/// stage's occupancy counts, which the grant phase's back-pressure reads;
/// returns how many slots were freed. The sweep scans the `vacate_at`
/// array and touches only the queues whose granted front leaves by now.
/// A port that was full may have heads parked on it upstream; it is
/// recorded in `unblocked`, and the engine wakes them after the phase.
pub(crate) fn vacate_stage(
    now: u64,
    capacity: u32,
    inputs: &mut InputPorts<'_>,
    occ: &mut [u32],
    unblocked: &mut Vec<u32>,
) -> u64 {
    let mut freed = 0;
    let mut scan = 0;
    while let Some(p) = next_due(inputs.vacate_at(), scan, now) {
        let n = inputs.vacate(p, now);
        if occ[p] >= capacity {
            unblocked.push(p as u32);
        }
        occ[p] -= n as u32;
        freed += n;
        scan = p + 1;
    }
    freed
}

/// Read-only state shared by every stage's grant sweep in one cycle.
pub(crate) struct GrantShared<'a> {
    pub now: u64,
    pub flits: u64,
    pub capacity: u32,
    pub arbitration: Arbitration,
    pub stage_count: usize,
    pub store: &'a PacketStore,
    /// `routes[dest * stage_count + stage]` = output tag at `stage`.
    pub routes: &'a [u32],
    /// `entry[stage][line]` = flat input-port index within `stage`.
    pub entry: &'a [Vec<u32>],
    pub faults: Option<&'a FaultState>,
    pub meta: &'a [StageMeta],
    /// Post-vacate occupancy counts (see [`ExecState::occ`]).
    pub occ: &'a [Vec<u32>],
    /// An event sink is attached: buffer grant events.
    pub record_events: bool,
    /// Telemetry is on: buffer stage waits.
    pub record_waits: bool,
    /// The profiler is on: buffer heatmap grants.
    pub record_heat: bool,
}

/// One stage's grant sweep: its ports plus the scratch and effects
/// buffers it fills.
pub(crate) struct GrantJob<'a> {
    /// Stage index.
    pub stage: usize,
    /// The stage's input ports.
    pub inputs: InputPorts<'a>,
    /// The stage's output ports, same layout.
    pub outputs: &'a mut [OutputPort],
    pub scratch: &'a mut ShardScratch,
    pub parked: &'a mut Parked,
    pub fx: &'a mut ShardEffects,
}

/// Arbitrate and grant every free output of one stage, module by module,
/// with every globally-ordered effect deferred into [`ShardEffects`] (see
/// the module docs). Modules with no due head can grant, block or drop
/// nothing, so the sweep jumps from one module with a due `ready_at`
/// entry to the next. A visit follows the due heads, not the radix: it
/// reads the module's due inputs as a bit set, collects each due head's
/// cached output tag into the set of requested outputs, walks those in
/// ascending order and parks the heads still requesting. Heads left
/// blocked on a healthy output park, and the stage's gauges count them
/// each cycle until they are due again.
#[allow(clippy::too_many_lines)]
pub(crate) fn grant_stage(shared: &GrantShared<'_>, job: &mut GrantJob<'_>) {
    let GrantShared {
        now,
        flits,
        capacity,
        arbitration,
        stage_count,
        store,
        routes,
        entry,
        faults,
        meta,
        occ,
        record_events,
        record_waits,
        record_heat,
    } = *shared;
    let stage_idx = job.stage;
    let is_last = stage_idx + 1 == stage_count;
    let stage_meta = &meta[stage_idx];
    let radix = stage_meta.radix as usize;
    let radix_u = stage_meta.radix;
    let head_latency = stage_meta.head_latency;
    let next_entry: Option<&[u32]> = entry.get(stage_idx + 1).map(Vec::as_slice);
    let next_occ: Option<&[u32]> = occ.get(stage_idx + 1).map(Vec::as_slice);
    let fx = &mut *job.fx;
    let counters = &mut fx.counters;
    let scratch = &mut *job.scratch;
    scratch.start_stage(radix);
    let parked = &mut *job.parked;
    // Heads parked through this cycle are blocked exactly as they were
    // when they parked (see the module docs): count them here.
    let (parked_busy, parked_downstream) = parked.tick(now);
    counters.blocked_output_busy += parked_busy;
    counters.blocked_downstream_full += parked_downstream;
    // Routing is a pure function of the destination; `stage_idx`'s tag is
    // the destination's digit for this stage. Heads carry it cached, so
    // the sweep reads the route table only in debug checks and for the
    // next stage's tag at a grant.
    let route_tag =
        |r: PacketRef, stage: usize| routes[store.get(r).dest as usize * stage_count + stage];
    let check_tag = |inputs: &InputPorts<'_>, p: usize, tag: u32| {
        debug_assert_eq!(
            inputs.front_packet(p).map(|r| route_tag(r, stage_idx)),
            Some(tag),
            "stale route tag at stage {stage_idx} input {p}"
        );
    };
    let inputs = &mut job.inputs;

    // One scan of `ready_at` finds every due port, module by module. A
    // visit changes only its own module's ports, so the first due port
    // past the module, found before the visit, is still the next one.
    let mut first_due = next_due(inputs.ready_at(), 0, now);
    while let Some(first) = first_due {
        let module_idx = (first as u32 / radix_u) as usize;
        let base = module_idx * radix;
        scratch.start_module();
        let mut p = first;
        first_due = loop {
            scratch.mark_due(p - base);
            match next_due(inputs.ready_at(), p + 1, now) {
                Some(q) if q < base + radix => p = q,
                beyond => break beyond,
            }
        };
        match faults.map_or(Health::Up, |f| {
            f.module_health(stage_idx as u32, module_idx as u32, now)
        }) {
            Health::Up => {}
            // A transiently failed module refuses all grants: ready heads
            // wait it out under ordinary back-pressure.
            Health::TransientDown => {
                counters.blocked_fault += scratch
                    .due()
                    .iter()
                    .map(|word| u64::from(word.count_ones()))
                    .sum::<u64>();
                continue;
            }
            // A permanently dead module severs the unique path of every
            // packet inside it: drain each input's ready heads as drops.
            // (Heads arriving later drop on the cycle they become ready.)
            Health::PermanentDown => {
                let mut next = next_set(scratch.due(), 0);
                while let Some(in_port) = next {
                    let p = base + in_port;
                    while inputs.ready_tag(p, now).is_some() {
                        let Some(dropped) = inputs.drop_front(p) else {
                            break;
                        };
                        fx.drops.push((p as u32, dropped));
                        counters.dropped += 1;
                    }
                    next = next_set(scratch.due(), in_port + 1);
                }
                continue;
            }
        }

        // Each due head's requested output, read from its cached tag.
        let mut next = next_set(scratch.due(), 0);
        while let Some(in_port) = next {
            let p = base + in_port;
            if let Some(tag) = inputs.ready_tag(p, now) {
                check_tag(inputs, p, tag);
                scratch.request(tag as usize, in_port);
            }
            next = next_set(scratch.due(), in_port + 1);
        }

        // The requested outputs in ascending order; a head a permanent
        // link drain exposes joins the walk if its output lies ahead.
        let mut walked = 0;
        while let Some(out_port) = next_set(scratch.wanted(), walked) {
            walked = out_port + 1;
            let matching = scratch.tag_count[out_port];
            debug_assert!(matching > 0, "walked output {out_port} has no contender");
            let out_port_u = out_port as u32;
            let out_line = (base + out_port) as u32;
            match faults.map_or(Health::Up, |f| {
                f.link_health(stage_idx as u32, out_line, now)
            }) {
                Health::Up => {}
                Health::TransientDown => {
                    counters.blocked_fault += 1;
                    continue;
                }
                Health::PermanentDown => {
                    // Drain every consecutive ready head routed at this
                    // severed link; each drop exposes the next head, which
                    // may be ready with any tag — request it so later
                    // outputs see it this cycle.
                    let mut next = next_set(scratch.contenders(out_port), 0);
                    while let Some(in_port) = next {
                        let p = base + in_port;
                        scratch.withdraw(out_port, in_port);
                        while let Some(dropped) = inputs.drop_front(p) {
                            fx.drops.push((p as u32, dropped));
                            counters.dropped += 1;
                            let Some(tag) = inputs.ready_tag(p, now) else {
                                break;
                            };
                            check_tag(inputs, p, tag);
                            if tag != out_port_u {
                                scratch.request(tag as usize, in_port);
                                break;
                            }
                        }
                        next = next_set(scratch.contenders(out_port), in_port + 1);
                    }
                    continue;
                }
            }
            let output = &job.outputs[base + out_port];
            if !output.free(now) {
                // Every ready head wanting this output waits for it.
                counters.blocked_output_busy += u64::from(matching);
                scratch.park_at[out_port] = output.busy_until;
                continue;
            }

            // Back-pressure: the downstream buffer must accept a packet.
            // The occupancy counts are post-vacate state: a downstream
            // port's only same-cycle writer is this very line (see the
            // module docs).
            if let (Some(next_entry), Some(next_occ)) = (next_entry, next_occ) {
                let downstream = next_entry[out_line as usize] as usize;
                if next_occ[downstream] >= capacity {
                    counters.blocked_downstream_full += u64::from(matching);
                    scratch.park_at[out_port] = UNTIL_DRAINED;
                    continue;
                }
            }

            // Arbitrate among the ready heads requesting this output.
            let Some(winner) = pick_winner(
                scratch.contenders(out_port),
                arbitration,
                output.rr_next,
                radix_u,
            ) else {
                debug_assert!(false, "walked output {out_port} has no contender");
                continue;
            };
            {
                let output = &mut job.outputs[base + out_port];
                output.rr_next = (winner + 1) % radix_u;
                output.busy_until = now + head_latency + flits;
                scratch.park_at[out_port] = output.busy_until;
            }
            counters.grants += 1;
            fx.progressed = true;
            // Count the losers as output-busy blocked for this cycle; they
            // park until the winner's tail passes.
            counters.blocked_output_busy += u64::from(matching - 1);

            let winner_port = base + winner as usize;
            if record_waits {
                // Cycles the winning head sat ready (arbitration loss,
                // busy output, or back-pressure) before this grant.
                fx.stage_waits.push(now - inputs.ready_cycle(winner_port));
            }
            if record_heat {
                fx.heat_grants.push(module_idx as u32);
            }
            let Some(r) = inputs.grant_front(winner_port, now + flits) else {
                debug_assert!(false, "arbitration winner has no front slot");
                continue;
            };
            scratch.withdraw(out_port, winner as usize);
            let head_arrival = now + head_latency;
            if record_events {
                fx.events.push(SimEvent::Grant {
                    cycle: now,
                    id: store.get(r).id,
                    stage: stage_idx as u32,
                    module: module_idx as u32,
                    in_port: winner,
                    out_port: out_port_u,
                    head_out_at: head_arrival,
                });
            }
            match next_entry {
                Some(next_entry) if !is_last => {
                    fx.pushes.push((
                        next_entry[out_line as usize],
                        r,
                        head_arrival,
                        route_tag(r, stage_idx + 1),
                    ));
                }
                _ => {
                    debug_assert!(is_last);
                    fx.deliveries.push((r, out_line, head_arrival + flits));
                }
            }
        }

        // Park the heads still requesting: nothing can change for them
        // before their output frees or their downstream buffer drains.
        let mut next = next_set(scratch.wanted(), 0);
        while let Some(out_port) = next {
            let until = scratch.park_at[out_port];
            if until != STAY_DUE {
                let mut waiter = next_set(scratch.contenders(out_port), 0);
                while let Some(in_port) = waiter {
                    inputs.park(base + in_port, until);
                    parked.park(until, base + out_port);
                    waiter = next_set(scratch.contenders(out_port), in_port + 1);
                }
            }
            next = next_set(scratch.wanted(), out_port + 1);
        }
    }
}

/// The line (an output of the stage before, or a source) that feeds
/// stage-flat input port `port` of a radix-`radix` stage: the inverse of
/// the perfect shuffle that wires line `l` to port
/// `(l·radix) mod ports + ⌊l·radix / ports⌋` (see
/// [`icn_topology::Topology`]). The engine debug-checks it against its
/// entry table.
pub(crate) fn upstream_line(ports: u32, radix: u32, port: u32) -> u32 {
    (port % radix) * (ports / radix) + port / radix
}

/// Wake the heads of `inputs` (a whole stage) parked on the full buffer
/// that output line `line` feeds: the heads in the line's module whose
/// cached tag takes that output. `parked` is the stage's gauges;
/// `route_tag` is the route table's tag for a packet at this stage,
/// which debug builds check each cached tag against.
pub(crate) fn wake_line(
    inputs: &mut InputPorts<'_>,
    parked: &mut Parked,
    radix: usize,
    line: usize,
    now: u64,
    route_tag: impl Fn(PacketRef) -> u32,
) {
    if parked.on_line[line] == 0 {
        return;
    }
    let base = line - line % radix;
    let out_port = (line % radix) as u32;
    for p in base..base + radix {
        let Some(tag) = inputs.downstream_waiter(p) else {
            continue;
        };
        debug_assert_eq!(
            inputs.front_packet(p).map(&route_tag),
            Some(tag),
            "stale route tag at input {p}"
        );
        if tag == out_port {
            if let Some(until) = inputs.unpark(p, now) {
                parked.unpark(until, line);
            }
        }
    }
}

/// Wake every parked head of module `module` in `inputs` (a whole
/// stage) — a fault changed what blocks them. `parked` is the stage's
/// gauges.
pub(crate) fn rearm_module(
    inputs: &mut InputPorts<'_>,
    parked: &mut Parked,
    radix: usize,
    module: usize,
    now: u64,
) {
    let base = module * radix;
    for p in base..base + radix {
        let line = base + inputs.downstream_waiter(p).map_or(0, |tag| tag as usize);
        if let Some(until) = inputs.unpark(p, now) {
            parked.unpark(until, line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A contender bit set over `radix` inputs.
    fn bits(contending: &[bool]) -> Vec<u64> {
        let mut words = vec![0; contending.len().div_ceil(WORD)];
        for (i, _) in contending.iter().enumerate().filter(|(_, &c)| c) {
            words[i / WORD] |= 1 << (i % WORD);
        }
        words
    }

    /// The rules winner selection replaced: fixed priority takes the
    /// first contending index; round robin the contender with the least
    /// `(in + radix - rr) % radix`.
    fn reference_winner(contending: &[bool], arbitration: Arbitration, rr: u32) -> Option<u32> {
        let radix = contending.len() as u32;
        let mut contenders = (0..radix).filter(|&i| contending[i as usize]);
        match arbitration {
            Arbitration::FixedPriority => contenders.next(),
            Arbitration::RoundRobin => contenders.min_by_key(|&i| (i + radix - rr) % radix),
        }
    }

    #[test]
    fn next_set_walks_every_word() {
        let words = [0b1001, 0, 1 << 63, 1];
        let mut seen = Vec::new();
        let mut next = next_set(&words, 0);
        while let Some(i) = next {
            seen.push(i);
            next = next_set(&words, i + 1);
        }
        assert_eq!(seen, vec![0, 3, 191, 192]);
        assert_eq!(next_set(&words, 4), Some(191));
        assert_eq!(next_set(&words, 193), None);
        assert_eq!(next_set(&words, 256), None, "past the end");
        assert_eq!(next_set(&[], 0), None);
    }

    #[test]
    fn winner_rules_on_a_two_word_module() {
        let mut contending = vec![false; 128];
        for i in [5, 64, 100] {
            contending[i] = true;
        }
        let set = bits(&contending);
        let fixed = Arbitration::FixedPriority;
        let rr = Arbitration::RoundRobin;
        assert_eq!(pick_winner(&set, fixed, 101, 128), Some(5));
        assert_eq!(pick_winner(&set, rr, 0, 128), Some(5));
        assert_eq!(pick_winner(&set, rr, 6, 128), Some(64));
        assert_eq!(pick_winner(&set, rr, 64, 128), Some(64));
        assert_eq!(pick_winner(&set, rr, 65, 128), Some(100));
        assert_eq!(pick_winner(&set, rr, 101, 128), Some(5), "wraps round");
        assert_eq!(pick_winner(&[0, 0], rr, 3, 128), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Winner selection over the contender bit set equals the rules
        /// it replaced, for every radix up to two words and every
        /// round-robin pointer.
        #[test]
        fn pick_winner_matches_the_replaced_rules(
            radix in 2usize..=128,
            inputs in proptest::collection::vec(any::<bool>(), 128),
        ) {
            let contending = &inputs[..radix];
            let radix = radix as u32;
            let set = bits(contending);
            for rr in 0..radix {
                for arbitration in [Arbitration::FixedPriority, Arbitration::RoundRobin] {
                    prop_assert_eq!(
                        pick_winner(&set, arbitration, rr, radix),
                        reference_winner(contending, arbitration, rr),
                        "radix {} rr {} {:?}", radix, rr, arbitration
                    );
                }
            }
        }
    }

    fn meta(stages: &[(u32, u32)]) -> Vec<StageMeta> {
        stages
            .iter()
            .map(|&(radix, modules)| StageMeta {
                radix,
                modules,
                head_latency: 1,
            })
            .collect()
    }

    #[test]
    fn serial_plan_is_one_chunk_per_stage() {
        let exec = ExecState::build(meta(&[(4, 16), (2, 32), (8, 5)]), 25);
        assert_eq!(exec.effects.len(), 3);
        assert_eq!(exec.unblocked.len(), 3);
        assert_eq!(exec.parked.len(), 3);
        let ports: Vec<usize> = exec.occ.iter().map(Vec::len).collect();
        assert_eq!(ports, vec![64, 64, 40]);
        assert_eq!(exec.scratch.park_at.len(), 8, "sized for the widest stage");
        let wide = ExecState::build(meta(&[(128, 2), (2, 128)]), 25);
        assert_eq!(wide.scratch.due.len(), 2, "two words for radix 128");
        assert_eq!(wide.scratch.contenders.len(), 256);
    }

    #[test]
    fn upstream_line_inverts_the_stage_wiring() {
        use icn_topology::{StagePlan, Topology};
        for plan in [
            StagePlan::uniform(4, 3),
            StagePlan::from_radices(vec![4, 2, 2]),
            StagePlan::balanced_pow2(2048, 16).expect("power of two"),
        ] {
            let topology = Topology::new(plan.clone());
            for stage in 0..plan.stages() {
                let radix = plan.radices()[stage as usize];
                for line in 0..plan.ports() {
                    let (module, port) = topology.stage_input(stage, line);
                    let flat = module * radix + port;
                    assert_eq!(
                        upstream_line(plan.ports(), radix, flat),
                        line,
                        "{plan} stage {stage}"
                    );
                }
            }
        }
    }

    #[test]
    fn parked_gauges_release_busy_parks_on_their_cycle() {
        let mut parked = Parked::new(5, 4);
        parked.park(13, 0);
        parked.park(13, 0);
        parked.park(UNTIL_DRAINED, 2);
        parked.park(11, 0);
        assert_eq!(parked.on_line(), &[0, 0, 1, 0]);
        assert_eq!(parked.tick(10), (3, 1));
        assert_eq!(parked.tick(11), (2, 1));
        parked.unpark(UNTIL_DRAINED, 2);
        parked.unpark(13, 0);
        assert_eq!(parked.on_line(), &[0; 4]);
        assert_eq!(parked.tick(12), (1, 0));
        assert_eq!(parked.tick(13), (0, 0));
        assert_eq!(parked.calendar_total(), 0);
    }
}
