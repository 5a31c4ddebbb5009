//! Per-stage kernels of the engine's vacate and grant phases, and the
//! wakes that follow a buffer slot freed from full.
//!
//! Within one cycle, the modules of a stage are independent: each packet
//! sits in exactly one module's input buffer, every output line feeds a
//! *unique* downstream input port (the entry tables are injective), and
//! routing is a pure function of the destination. The engine runs the
//! vacate phase stage by stage, then one grant sweep per stage, from the
//! first stage to the last, on the calling thread.
//!
//! # Why the grant sweep applies its effects as it grants
//!
//! The paper's switches act in lock step, so no grant may see another
//! grant of its own cycle. Every module head latency is at least one
//! cycle (`ChipModel::head_latency` ≥ 2; a unit test checks ≥ 1 for every
//! radix and width), so a grant never cascades within its cycle, and one
//! sweep per stage, from stage 0 to the last, needs no copy of the state
//! before the phase:
//!
//! * **Stage `s` reads only its own ports and `occ[s + 1]`**
//!   ([`ExecState::occ`], for back-pressure); the packet arena, the route
//!   and entry tables and fault health do not change in the phase.
//! * **A downstream port's only writer is the one line that reads it.**
//!   A grant on line `l` pushes into the port `l` feeds and counts it in
//!   `occ[s + 1]`; the line is walked at most once a cycle and reads the
//!   count first, so back-pressure reads post-vacate occupancy.
//! * **A pushed head is never due in the cycle it is pushed.** It arrives
//!   at `now + head_latency`, so stage `s + 1`'s sweep later in the cycle
//!   finds the same due heads as without the push (a push behind a front
//!   changes no due time). The push site debug-asserts it.
//! * **A fault drop touches only what has had its turn.** It takes one
//!   off `occ[s]`, which only stage `s - 1` reads, and wakes what is
//!   parked on the port it frees from full — heads of stage `s - 1`, or a
//!   source — which the cycle has already swept; they are next examined
//!   in the next cycle either way.
//!
//! So a grant's counters, `last_progress`, event, stage wait, heatmap
//! grant and downstream push are applied as it is made. Only the event
//! order needs a buffer: a stage's Deliver, Retry and Drop events follow
//! its Grant events, so the last stage's deliveries and every stage's
//! dropped packets wait in one reused list of [`Exit`]s, which the engine
//! applies right after the stage's sweep, deliveries first.
//!
//! Parks are stage-local. A grant sweep parks only its own heads and
//! counts them in its stage's [`Parked`] gauges. The vacate phase only
//! *records* the full ports it frees, and the engine wakes those ports'
//! waiters in one pass before the grant phase; fault drops wake theirs
//! as they drop, and fault activations at the start of the cycle. A
//! parked head is exactly as blocked as when it parked — its module and
//! link are healthy (activations wake it), a busy output stays busy until
//! its `busy_until` (the park's due cycle), and a full downstream port
//! stays full until a vacate or drop (which wake it), because its only
//! writer is the output the head waits on. So leaving it out of the sweep
//! changes no grant, drop or event, and its stage's gauges count it
//! exactly as the sweep did.
//!
//! # A module visit follows its due heads
//!
//! The grant sweep scans the stage's `ready_at` array once and visits
//! each module with a due port, in module order. A visit costs
//! O(due heads + requested outputs), not O(radix), through per-module
//! bit sets in [`VisitScratch`] (⌈radix / 64⌉ words each, so any radix
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
use crate::engine::Source;
use crate::fault::{FaultState, Health};
use crate::metrics::StageCounters;
use crate::module::{next_due, InputPorts, OutputPort, Stage, UNTIL_DRAINED};
use crate::store::{PacketRef, PacketStore};
use crate::telemetry::{EventSink, SimEvent, TelemetryState};

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

/// "Leave the head due" in [`VisitScratch::park_at`]: no output is busy
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
pub(crate) struct VisitScratch {
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

impl VisitScratch {
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

/// A packet that leaves the network in a stage's grant sweep. Its
/// Deliver, Retry or Drop event must follow the stage's grant events, so
/// the engine applies it right after the sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exit {
    /// Granted out of the last stage: the packet, its output line, and
    /// the cycle its tail clears the destination.
    Deliver(PacketRef, u32, u64),
    /// Dropped by a permanent fault.
    Drop(PacketRef),
}

/// The engine's per-stage execution state: every reusable buffer the
/// vacate and grant sweeps fill, and the occupancy counts.
#[derive(Debug)]
pub(crate) struct ExecState {
    /// Arbitration scratch, shared by the stages' sweeps.
    pub scratch: VisitScratch,
    /// Per stage, the ports the vacate phase freed a slot in while full:
    /// the heads upstream of them may be parked on them.
    pub unblocked: Vec<Vec<u32>>,
    /// Per-stage parked-head gauges.
    pub parked: Vec<Parked>,
    /// Input occupancy per stage, in port order: `occ[stage][port]`.
    /// Kept equal to each queue's length as ports change: a push adds one
    /// (source and module grants), and the vacate phase and fault drops
    /// subtract what they free.
    pub occ: Vec<Vec<u32>>,
    /// Per-stage constants.
    pub meta: Vec<StageMeta>,
    /// The packets the current sweep (a stage's, or the sources')
    /// delivered or dropped, in sweep order (cleared after each sweep,
    /// never shrunk).
    pub exits: Vec<Exit>,
}

impl ExecState {
    /// Allocate every per-stage buffer for the given stage shape and
    /// packet length.
    pub fn build(meta: Vec<StageMeta>, flits: u64) -> Self {
        let max_radix = meta.iter().map(|m| m.radix as usize).max().unwrap_or(0);
        Self {
            scratch: VisitScratch::new(max_radix),
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
            exits: Vec::new(),
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

/// What feeds a stage's input ports — the sources (stage 0) or the
/// stage before — borrowed to wake what is parked on a port of the stage
/// that stops being full.
pub(crate) enum Upstream<'a> {
    /// Stage 0's feeders: the sources and their due times.
    Sources {
        sources: &'a [Source],
        due: &'a mut [u64],
    },
    /// The stage before, with its radix and parked-head gauges.
    Stage {
        radix: usize,
        inputs: InputPorts<'a>,
        parked: &'a mut Parked,
    },
}

impl<'a> Upstream<'a> {
    /// What feeds the stage after `before` (every stage ahead of it, with
    /// their gauges in `parked`): the last of them, or the sources.
    pub fn new(
        before: &'a mut [Stage],
        parked: &'a mut [Parked],
        sources: &'a [Source],
        due: &'a mut [u64],
    ) -> Self {
        match (before.last_mut(), parked.last_mut()) {
            (Some(feeding), Some(parked)) => Self::Stage {
                radix: feeding.radix as usize,
                inputs: feeding.inputs(),
                parked,
            },
            _ => Self::Sources { sources, due },
        }
    }

    /// Wake what is parked on input `port` of the fed stage (shape `fed`,
    /// entry table `entry`) being full: the source whose line feeds it,
    /// or the heads in the one module of the stage before whose output
    /// line feeds it and whose cached tag takes that output. A line with
    /// no head parked on it returns at once. `route_tag(r)` is the route
    /// table's tag of a packet in the stage before, which debug builds
    /// check each cached tag against.
    pub fn wake(
        &mut self,
        fed: StageMeta,
        entry: &[u32],
        port: usize,
        now: u64,
        route_tag: impl Fn(PacketRef) -> u32,
    ) {
        let line = upstream_line(fed.modules, fed.radix, port as u32) as usize;
        debug_assert_eq!(
            entry[line] as usize, port,
            "upstream line inverts the wiring"
        );
        let (radix, inputs, parked) = match self {
            Self::Sources { sources, due } => {
                if !sources[line].queue.is_empty() {
                    due[line] = due[line].min(now);
                }
                return;
            }
            Self::Stage {
                radix,
                inputs,
                parked,
            } => (*radix, inputs, parked),
        };
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
                "stale route tag at input {p} upstream of line {line}"
            );
            if tag == out_port {
                if let Some(until) = inputs.unpark(p, now) {
                    parked.unpark(until, line);
                }
            }
        }
    }
}

/// The stage after a sweep's: its entry table, input ports and
/// occupancy counts.
pub(crate) struct Downstream<'a> {
    /// `entry[line]` = the flat input port output line `line` feeds.
    pub entry: &'a [u32],
    pub inputs: InputPorts<'a>,
    pub occ: &'a mut [u32],
}

/// One stage's grant sweep: the stage's ports and everything its grants
/// change, borrowed from the engine for the sweep (see the module docs).
pub(crate) struct Sweep<'a> {
    pub now: u64,
    pub flits: u64,
    pub capacity: u32,
    pub arbitration: Arbitration,
    /// Stage index.
    pub stage: usize,
    pub meta: StageMeta,
    /// The stage's entry table (`entry[line]` = flat input port).
    pub entry: &'a [u32],
    pub store: &'a PacketStore,
    /// `routes[dest * stage_count + stage]` = output tag at `stage`.
    pub routes: &'a [u32],
    pub stage_count: usize,
    pub faults: Option<&'a FaultState>,
    pub inputs: InputPorts<'a>,
    pub outputs: &'a mut [OutputPort],
    /// The stage's occupancy counts, which its fault drops take from.
    pub occ: &'a mut [u32],
    pub parked: &'a mut Parked,
    pub scratch: &'a mut VisitScratch,
    /// The stage its grants push into; `None` for the last stage, whose
    /// grants deliver.
    pub next: Option<Downstream<'a>>,
    /// What feeds the stage, which a fault drop may wake.
    pub upstream: Upstream<'a>,
    /// The stage's counters.
    pub counters: &'a mut StageCounters,
    pub last_progress: &'a mut u64,
    pub events: Option<&'a mut (dyn EventSink + 'static)>,
    pub telem: Option<&'a mut TelemetryState>,
    /// Where delivered and dropped packets wait for the sweep to end.
    pub exits: &'a mut Vec<Exit>,
}

impl Sweep<'_> {
    /// Arbitrate and grant every free output of the stage, module by
    /// module, applying each grant's effects as it is made (see the
    /// module docs). Modules with no due head can grant, block or drop
    /// nothing, so the sweep jumps from one module with a due `ready_at`
    /// entry to the next. Heads left blocked on a healthy output park,
    /// and the stage's gauges count them each cycle until they are due
    /// again.
    pub fn run(mut self) {
        let now = self.now;
        let radix = self.meta.radix as usize;
        self.scratch.start_stage(radix);
        // Heads parked through this cycle are blocked exactly as they were
        // when they parked (see the module docs): count them here.
        let (parked_busy, parked_downstream) = self.parked.tick(now);
        self.counters.blocked_output_busy += parked_busy;
        self.counters.blocked_downstream_full += parked_downstream;

        // One scan of `ready_at` finds every due port, module by module. A
        // visit changes only its own module's ports of this stage, so the
        // first due port past the module, found before the visit, is still
        // the next one.
        let mut first_due = next_due(self.inputs.ready_at(), 0, now);
        while let Some(first) = first_due {
            let module = first / radix;
            let base = module * radix;
            self.scratch.start_module();
            let mut p = first;
            first_due = loop {
                self.scratch.mark_due(p - base);
                match next_due(self.inputs.ready_at(), p + 1, now) {
                    Some(q) if q < base + radix => p = q,
                    beyond => break beyond,
                }
            };
            match self.faults.map_or(Health::Up, |f| {
                f.module_health(self.stage as u32, module as u32, now)
            }) {
                Health::Up => self.visit(module),
                // A transiently failed module refuses all grants: ready heads
                // wait it out under ordinary back-pressure.
                Health::TransientDown => {
                    self.counters.blocked_fault += self
                        .scratch
                        .due()
                        .iter()
                        .map(|word| u64::from(word.count_ones()))
                        .sum::<u64>();
                }
                // A permanently dead module severs the unique path of every
                // packet inside it: drain each input's ready heads as drops.
                // (Heads arriving later drop on the cycle they become ready.)
                Health::PermanentDown => {
                    let mut next = next_set(self.scratch.due(), 0);
                    while let Some(in_port) = next {
                        let p = base + in_port;
                        while self.inputs.ready_tag(p, now).is_some() {
                            let Some(dropped) = self.inputs.drop_front(p) else {
                                break;
                            };
                            self.fault_drop(p, dropped);
                        }
                        next = next_set(self.scratch.due(), in_port + 1);
                    }
                }
            }
        }
    }

    /// Visit healthy module `module`, whose due inputs the scratch marks:
    /// collect the outputs its due heads request, walk them in ascending
    /// order, and park the heads still requesting.
    fn visit(&mut self, module: usize) {
        let now = self.now;
        let base = module * self.meta.radix as usize;
        // Each due head's requested output, read from its cached tag.
        let mut next = next_set(self.scratch.due(), 0);
        while let Some(in_port) = next {
            let p = base + in_port;
            if let Some(tag) = self.inputs.ready_tag(p, now) {
                self.check_tag(p, tag);
                self.scratch.request(tag as usize, in_port);
            }
            next = next_set(self.scratch.due(), in_port + 1);
        }

        // The requested outputs in ascending order; a head a permanent
        // link drain exposes joins the walk if its output lies ahead.
        let mut walked = 0;
        while let Some(out_port) = next_set(self.scratch.wanted(), walked) {
            walked = out_port + 1;
            self.serve_output(module, out_port);
        }

        // Park the heads still requesting: nothing can change for them
        // before their output frees or their downstream buffer drains.
        let mut next = next_set(self.scratch.wanted(), 0);
        while let Some(out_port) = next {
            let until = self.scratch.park_at[out_port];
            if until != STAY_DUE {
                let mut waiter = next_set(self.scratch.contenders(out_port), 0);
                while let Some(in_port) = waiter {
                    self.inputs.park(base + in_port, until);
                    self.parked.park(until, base + out_port);
                    waiter = next_set(self.scratch.contenders(out_port), in_port + 1);
                }
            }
            next = next_set(self.scratch.wanted(), out_port + 1);
        }
    }

    /// Output `out_port` of module `module` grants one of the due heads
    /// requesting it, blocks them all, or fault-drops them.
    fn serve_output(&mut self, module: usize, out_port: usize) {
        let now = self.now;
        let radix = self.meta.radix;
        let base = module * radix as usize;
        let matching = self.scratch.tag_count[out_port];
        debug_assert!(matching > 0, "walked output {out_port} has no contender");
        let out_line = base + out_port;
        match self.faults.map_or(Health::Up, |f| {
            f.link_health(self.stage as u32, out_line as u32, now)
        }) {
            Health::Up => {}
            Health::TransientDown => {
                self.counters.blocked_fault += 1;
                return;
            }
            Health::PermanentDown => {
                self.drain_link(base, out_port);
                return;
            }
        }
        let output = &self.outputs[out_line];
        if !output.free(now) {
            // Every ready head wanting this output waits for it.
            self.counters.blocked_output_busy += u64::from(matching);
            self.scratch.park_at[out_port] = output.busy_until;
            return;
        }

        // Back-pressure: the downstream buffer must accept a packet. This
        // line is the port's only writer, so its count is still the
        // post-vacate one (see the module docs).
        if let Some(next) = &self.next {
            if next.occ[next.entry[out_line] as usize] >= self.capacity {
                self.counters.blocked_downstream_full += u64::from(matching);
                self.scratch.park_at[out_port] = UNTIL_DRAINED;
                return;
            }
        }

        // Arbitrate among the ready heads requesting this output.
        let Some(winner) = pick_winner(
            self.scratch.contenders(out_port),
            self.arbitration,
            output.rr_next,
            radix,
        ) else {
            debug_assert!(false, "walked output {out_port} has no contender");
            return;
        };
        let output = &mut self.outputs[out_line];
        output.rr_next = (winner + 1) % radix;
        output.busy_until = now + self.meta.head_latency + self.flits;
        self.scratch.park_at[out_port] = output.busy_until;
        self.counters.grants += 1;
        *self.last_progress = now;
        // Count the losers as output-busy blocked for this cycle; they
        // park until the winner's tail passes.
        self.counters.blocked_output_busy += u64::from(matching - 1);

        let winner_port = base + winner as usize;
        if let Some(telem) = self.telem.as_deref_mut() {
            // Cycles the winning head sat ready (arbitration loss, busy
            // output, or back-pressure) before this grant.
            telem.record_stage_wait(self.stage, now - self.inputs.ready_cycle(winner_port));
            telem.heat_grant(self.stage, module);
        }
        let Some(r) = self.inputs.grant_front(winner_port, now + self.flits) else {
            debug_assert!(false, "arbitration winner has no front slot");
            return;
        };
        self.scratch.withdraw(out_port, winner as usize);
        let head_arrival = now + self.meta.head_latency;
        if let Some(sink) = self.events.as_deref_mut() {
            sink.record(&SimEvent::Grant {
                cycle: now,
                id: self.store.get(r).id,
                stage: self.stage as u32,
                module: module as u32,
                in_port: winner,
                out_port: out_port as u32,
                head_out_at: head_arrival,
            });
        }
        match &mut self.next {
            Some(next) => {
                let dest = self.store.get(r).dest as usize;
                let tag = self.routes[dest * self.stage_count + self.stage + 1];
                let port = next.entry[out_line] as usize;
                debug_assert!(
                    head_arrival + next.inputs.ready_offset() > now,
                    "a head pushed into stage {} is due in the cycle it is pushed",
                    self.stage + 1
                );
                next.inputs.push(port, r, head_arrival, tag);
                next.occ[port] += 1;
            }
            None => self
                .exits
                .push(Exit::Deliver(r, out_line as u32, head_arrival + self.flits)),
        }
    }

    /// Drain every consecutive ready head routed at the permanently
    /// severed output `out_port` of the module at `base` as drops. Each
    /// drop exposes the next head, which may be ready with any tag: it
    /// requests its output, so later outputs of the walk see it this
    /// cycle.
    fn drain_link(&mut self, base: usize, out_port: usize) {
        let mut next = next_set(self.scratch.contenders(out_port), 0);
        while let Some(in_port) = next {
            let p = base + in_port;
            self.scratch.withdraw(out_port, in_port);
            while let Some(dropped) = self.inputs.drop_front(p) {
                self.fault_drop(p, dropped);
                let Some(tag) = self.inputs.ready_tag(p, self.now) else {
                    break;
                };
                self.check_tag(p, tag);
                if tag as usize != out_port {
                    self.scratch.request(tag as usize, in_port);
                    break;
                }
            }
            next = next_set(self.scratch.contenders(out_port), in_port + 1);
        }
    }

    /// Account packet `r`, which a permanent fault dropped from input
    /// port `p`: take it off the port's count, wake what is parked
    /// upstream on the port if that frees it from full, and queue its
    /// retry or loss behind the stage's grant events.
    fn fault_drop(&mut self, p: usize, r: PacketRef) {
        self.counters.dropped += 1;
        self.exits.push(Exit::Drop(r));
        let occ = &mut self.occ[p];
        let was_full = *occ >= self.capacity;
        *occ -= 1;
        if was_full {
            let Self {
                upstream,
                stage,
                meta,
                entry,
                store,
                routes,
                stage_count,
                now,
                ..
            } = self;
            // Only a stage after the first has a stage before to check.
            upstream.wake(*meta, entry, p, *now, |r| {
                routes[store.get(r).dest as usize * *stage_count + *stage - 1]
            });
        }
    }

    /// Packet `r`'s output tag at `stage`, from the route table.
    fn route_tag(&self, r: PacketRef, stage: usize) -> u32 {
        self.routes[self.store.get(r).dest as usize * self.stage_count + stage]
    }

    /// Debug builds check the cached tag read at input `p` against the
    /// route table.
    fn check_tag(&self, p: usize, tag: u32) {
        debug_assert_eq!(
            self.inputs
                .front_packet(p)
                .map(|r| self.route_tag(r, self.stage)),
            Some(tag),
            "stale route tag at stage {} input {p}",
            self.stage
        );
    }
}

/// The line (an output of the stage before, or a source) that feeds
/// stage-flat input port `port` of a stage of `modules` radix-`radix`
/// modules: the inverse of the perfect shuffle that wires line `l` to
/// port `(l·radix) mod ports + ⌊l·radix / ports⌋` (see
/// [`icn_topology::Topology`]). [`Upstream::wake`] debug-checks it
/// against the entry table.
pub(crate) fn upstream_line(modules: u32, radix: u32, port: u32) -> u32 {
    (port % radix) * modules + port / radix
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
    fn exec_state_sizes_its_buffers_per_stage() {
        let exec = ExecState::build(meta(&[(4, 16), (2, 32), (8, 5)]), 25);
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
                let modules = plan.modules_in_stage(stage);
                for line in 0..plan.ports() {
                    let (module, port) = topology.stage_input(stage, line);
                    let flat = module * radix + port;
                    assert_eq!(
                        upstream_line(modules, radix, flat),
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
