//! The lock-step simulation engine.
//!
//! One `step()` is one network clock cycle, processed in four phases:
//!
//! 1. **Vacate** — input-buffer slots whose tails have left are freed and
//!    module outputs whose tails have passed become available (implicit via
//!    `busy_until`).
//! 2. **Inject** — the workload offers new packets to the source queues:
//!    [`icn_workloads::Arrivals`] yields this cycle's injecting sources in
//!    port order, each followed by its destination draw. It draws one
//!    geometric gap per injection rather than one Bernoulli trial per
//!    port, so the phase costs O(injections), not O(ports).
//! 3. **Source grants** — sources with a free first-stage buffer slot start
//!    streaming their front packet (the source line, like any data path,
//!    carries one flit per cycle).
//! 4. **Module grants**, stage by stage — each free module output arbitrates
//!    among the ready input heads that want it (cut-through: a head may
//!    request as soon as it arrives; store-and-forward: only after its tail
//!    is buffered) *and* whose downstream buffer can accept a packet
//!    (the buffer-full back-pressure line). A grant holds the output for
//!    `L_head + flits` cycles (circuit-held until the tail passes), frees
//!    the local buffer slot after `flits` cycles (tail leaves the buffer),
//!    and reserves the downstream slot with the head arriving `L_head`
//!    cycles later.
//!
//! Because every module head latency is ≥ 1 cycle, grants in one cycle can
//! never cascade within the same cycle, so the phase order alone guarantees
//! lock-step consistency: the grant phase sweeps the stages in order and
//! applies each grant's effects at once (see [`crate::sweep`]).
//!
//! # Hot-path design
//!
//! The per-cycle loop allocates nothing in steady state, inside the
//! measurement window too: a buffer grows only at a new high-water mark
//! (the packet arena, a source queue, a calendar bucket, and the latency
//! counts at a new largest latency), and a tracked delivery only bumps
//! two counters. Its behavior is pinned by the byte-identical parity
//! suite in `tests/parity.rs` (results *and* full event streams); every
//! optimization below left those fixtures unchanged, except geometric
//! arrivals, which changed the random stream on purpose
//! ([`crate::STREAM_VERSION`]). Its speed is
//! measured by the `perfbench` package's `sim_paper2048` workload
//! (`BENCHMARK.json`), which also breaks a step down per layer:
//!
//! * **Packet arena** — every live packet occupies one slot in a
//!   free-list [`PacketStore`]; queues, buffers, and the retry heap pass
//!   4-byte [`PacketRef`]s instead of cloning packets.
//! * **Route table** — routing tags are a pure function of the
//!   destination (its mixed-radix digits), so one `ports × stages` table
//!   built at construction ([`Topology::route_table`]) replaces the old
//!   per-packet tag `Vec`.
//! * **Entry tables** — each stage's `entry[line]` is its shuffle
//!   ([`Topology::shuffle_table`]), which is also the flat
//!   `module · r + port` index of the input the line reaches, removing
//!   div/mod from every grant and source entry.
//! * **Flat stages** — each stage stores its ports module-major in
//!   contiguous arrays, its input buffers included: every input's FIFO
//!   is a fixed ring of `buffer_capacity` slots in one flat slot array
//!   per stage, with a head and a length per port, so no port owns a
//!   heap buffer (see [`crate::module`]).
//! * **Due-time arrays** — beside its buffers, each stage keeps
//!   `ready_at[p]` (the next cycle worth examining port `p`'s ungranted
//!   front) and `vacate_at[p]` (the cycle its granted front leaves) in
//!   two flat `u64` arrays (see [`crate::module`]); each source keeps the
//!   same kind of due time. The vacate sweep touches only queues with a
//!   slot due; the grant sweep visits only modules with a due head and
//!   reads a queue front only for a due port; the source sweep visits
//!   only due sources. On the 2048-port network about a third of the
//!   6,144 input ports hold a packet, so the old walk over every queue
//!   spent most of the step on ports with nothing to do.
//! * **Due calendars** — each due-time array lives in a
//!   [`crate::due::DueTimes`]: a bit set of the entries due now and a
//!   64-bucket timing wheel of the ones coming due. Every write to the
//!   array updates both; the engine drains the wheel's bucket for the
//!   cycle when the cycle starts, and the three sweeps walk the due sets
//!   in port order. About 170 of the seven arrays' 14,336 entries come
//!   due a cycle on the 2048-port network, so no sweep reads an array
//!   end to end.
//! * **Wake-up grants** — a ready head the grant sweep finds blocked on a
//!   healthy output *parks*: its `ready_at` moves to the output's
//!   `busy_until` (a loss to a busy output or in arbitration) or to "until
//!   drained" (a full downstream buffer). Nothing can change for it
//!   before then, so it costs nothing until it can be granted. The vacate
//!   phase records the full ports it frees and a pass after it wakes their
//!   waiters (the one upstream module whose output line feeds the port,
//!   or the one source); fault drops wake theirs as they drop; a fault
//!   activation wakes every parked head of the struck module. Sources
//!   park the same way on a full stage-0 buffer. The blocked counters
//!   stay exact per head-cycle: each stage keeps parked-head gauges
//!   (busy parks in a wake calendar of `head_latency + flits + 1` slots)
//!   and adds them to its counters every cycle. Before this, about 500
//!   ready heads were re-examined, tag lookup included, every cycle.
//! * **Occupancy from the rings** — an input's occupancy is its ring's
//!   own length, which counts resident packets and reservations alike:
//!   back-pressure reads one port's through
//!   [`crate::module::InputPorts::has_space`], and the watchdog's stall
//!   report, telemetry samples and the heatmap sum them
//!   ([`Stage::queue_lens`]), so no second count is kept in step.
//! * **One home per stage** — everything a stage owns lives in its
//!   [`Stage`]: wiring, buffers, due calendars, outputs, parked-head
//!   gauges and the ports its vacate freed from full. A stage's sweep
//!   borrows it, the stage after and the stage before with one
//!   `split_at_mut` of the stage list.
//! * **Scratch buffers** — a module visit's bit sets (due inputs,
//!   requested outputs, one contender set per requested output) live in
//!   one engine-owned scratch reused every visit, so a visit costs
//!   O(due heads + requested outputs), not O(r).
//! * **Grant effects in the sweep** — a grant pushes its packet into the
//!   next stage, counts itself and emits its event as it is made; only
//!   the packets a stage delivers or drops wait in one reused list until
//!   the stage's sweep ends, so their events follow its grant events
//!   (see [`crate::sweep`]).
//! * **Latency counts** — a tracked delivery adds one to the counter of
//!   its total and of its network latency in two
//!   [`crate::metrics::LatencyCounts`], which hold one counter per
//!   latency up to the largest seen however many packets are tracked
//!   (757 and 523 for `icn simulate --ports 2048`'s 204,680 tracked
//!   deliveries); [`Engine::finish`] reads the summary off them with no
//!   sort, bit for bit what the sorted samples gave.
//!
//! The engine is serial: a step runs on the caller's thread, because
//! splitting a step's phases over threads costs more in barriers than the
//! step does (DESIGN.md §7.5). Batch callers run whole simulations in
//! parallel with [`crate::run_parallel`] instead.
//!
//! Telemetry and event sinks keep their zero-cost-when-disabled shape:
//! every observation site is a single `Option` check.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use icn_topology::Topology;
use icn_workloads::Arrivals;

use crate::config::SimConfig;
use crate::due::{DueTimes, NEVER};
use crate::error::SimError;
use crate::fault::{FaultState, FaultTarget, Health, StallReport};
use crate::metrics::{LatencyCounts, SimResult, StageCounters};
use crate::module::Stage;
use crate::options::EngineOptions;
use crate::packet::Packet;
use crate::store::{PacketRef, PacketStore};
use crate::sweep::{rearm_module, Exit, Sweep, Upstream, VisitScratch};
use crate::telemetry::{EventSink, Gauges, PhaseGauges, SimEvent, TelemetryState};

/// How often (in cycles) [`Engine::run_bounded`] polls its stop predicate.
/// Coarse on purpose: the predicate typically reads a wall clock, and a
/// check every ~thousand cycles keeps that entirely off the hot path while
/// still bounding overshoot to well under a second at any realistic
/// cycles-per-second rate.
pub const STOP_POLL_CYCLES: u64 = 1024;

/// Per-network-input source: an open-loop queue feeding stage 0.
#[derive(Debug, Default)]
pub(crate) struct Source {
    pub queue: VecDeque<PacketRef>,
    busy_until: u64,
}

/// A completed delivery, reported through [`Engine::take_deliveries`] when
/// collection is enabled (used by closed-loop drivers such as the
/// round-trip simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Packet id (as returned by [`Engine::inject`]).
    pub id: u64,
    /// Source port.
    pub src: u32,
    /// Destination port.
    pub dest: u32,
    /// Cycle the packet was generated.
    pub injected_at: u64,
    /// Cycle the tail cleared the destination.
    pub delivered_at: u64,
    /// Whether the packet was statistics-tracked.
    pub tracked: bool,
}

/// A packet finally lost to a fault (retries exhausted or source dead),
/// reported through [`Engine::take_drops`] when delivery collection is
/// enabled, so closed-loop drivers can stop waiting for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DroppedPacket {
    /// Packet id (as returned by [`Engine::inject`]).
    pub id: u64,
    /// Source port.
    pub src: u32,
    /// Destination port.
    pub dest: u32,
    /// Cycle the packet was generated.
    pub injected_at: u64,
    /// Cycle the loss became final.
    pub dropped_at: u64,
    /// How many retries it had consumed.
    pub attempts: u32,
    /// Whether the packet was statistics-tracked.
    pub tracked: bool,
}

/// A fault-dropped packet waiting out its retry backoff; ordered by
/// release cycle (then id, for determinism) in a min-heap. The packet
/// itself stays in its arena slot; the entry carries its id so heap
/// ordering never needs a store lookup.
#[derive(Debug)]
struct RetryEntry {
    retry_at: u64,
    id: u64,
    packet: PacketRef,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.retry_at == other.retry_at && self.id == other.id
    }
}

impl Eq for RetryEntry {}

impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.retry_at, self.id).cmp(&(other.retry_at, other.id))
    }
}

/// The simulation engine. See the module docs for the cycle structure.
#[derive(Debug)]
pub struct Engine {
    config: SimConfig,
    stages: Vec<Stage>,
    sources: Vec<Source>,
    /// Per source, the next cycle worth visiting it: [`NEVER`] while its
    /// queue is empty or its stage-0 buffer is full (until that buffer
    /// drains), else its `busy_until` (lowered to the cycle a fault
    /// strikes it). Its calendar keeps the set of due sources.
    source_due: DueTimes,
    /// The workload's injection arrivals; `None` at zero load and once
    /// [`Engine::stop_injection`] has run.
    arrivals: Option<Arrivals>,
    rng: ChaCha12Rng,
    now: u64,
    next_id: u64,
    flits: u64,
    // Precomputed routing (see the module docs).
    store: PacketStore,
    /// `routes[dest * stages + stage]` = output port at `stage`.
    routes: Vec<u32>,
    /// Arbitration scratch, shared by the stages' sweeps.
    scratch: VisitScratch,
    /// The packets the current sweep (a stage's, or the sources')
    /// delivered or dropped, in sweep order (cleared after each sweep,
    /// never shrunk).
    exits: Vec<Exit>,
    // Statistics.
    injected_total: u64,
    delivered_total: u64,
    tracked_injected: u64,
    tracked_delivered: u64,
    delivered_in_window: u64,
    pending_tracked: u64,
    live_packets: u64,
    latencies_total: LatencyCounts,
    latencies_net: LatencyCounts,
    stage_counters: Vec<StageCounters>,
    source_backlog: u64,
    peak_source_backlog: u64,
    collect_deliveries: bool,
    recent_deliveries: Vec<Delivery>,
    // Fault machinery (None for an empty fault plan: the zero-cost path).
    faults: Option<Box<FaultState>>,
    retry_queue: BinaryHeap<Reverse<RetryEntry>>,
    dropped_total: u64,
    tracked_dropped: u64,
    retries_total: u64,
    last_progress: u64,
    stall: Option<StallReport>,
    recent_drops: Vec<DroppedPacket>,
    // Telemetry (None when disabled / no sink attached: the zero-cost
    // path — telemetry observes the simulation and never participates).
    telem: Option<Box<TelemetryState>>,
    events: Option<Box<dyn EventSink>>,
}

impl Engine {
    /// Build an engine for the given configuration, running serially.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`SimConfig::validate`]);
    /// use [`Engine::try_with_options`] for a typed error instead.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        match Self::try_with_options(config, EngineOptions::default()) {
            Ok(engine) => engine,
            #[expect(
                clippy::panic,
                reason = "documented panicking wrapper; try_with_options returns the typed error"
            )]
            Err(e) => panic!("invalid simulation config: {e}"),
        }
    }

    /// Build an engine, reporting an invalid configuration (including an
    /// invalid fault plan) as a typed error. [`EngineOptions`] carries no
    /// settings; every caller passes its default.
    ///
    /// # Errors
    /// Returns whatever [`SimConfig::validate`] rejects.
    pub fn try_with_options(config: SimConfig, _options: EngineOptions) -> Result<Self, SimError> {
        config.validate()?;
        let topology = Topology::new(config.plan.clone());
        let flits = config.flits_per_packet();
        let ready_offset = if config.cut_through {
            0
        } else {
            flits.saturating_sub(1)
        };
        // The route table before the stages: the benchmark's set-up
        // times read the heap layout this order leaves (DESIGN.md §7.3,
        // one home per stage).
        let routes = topology.route_table();
        let stages: Vec<Stage> = (0..)
            .zip(config.plan.radices())
            .map(|(s, &r)| {
                Stage::new(
                    topology.shuffle_table(s),
                    r,
                    config.stage_head_latency(r),
                    flits,
                    config.buffer_capacity,
                    ready_offset,
                )
            })
            .collect();
        let ports = config.plan.ports();
        let scratch = VisitScratch::new(config.plan.max_radix() as usize);
        let sources = (0..ports).map(|_| Source::default()).collect();
        let stage_counters = vec![StageCounters::default(); stages.len()];
        let rng = ChaCha12Rng::seed_from_u64(config.seed);
        let faults = FaultState::build(&config.faults, &config.plan);
        let telem = TelemetryState::build(&config.telemetry, &config.plan, flits);
        Ok(Self {
            stages,
            sources,
            source_due: DueTimes::new(ports as usize),
            arrivals: (config.workload.load > 0.0)
                .then(|| Arrivals::new(config.workload.load, ports)),
            rng,
            now: 0,
            next_id: 0,
            flits,
            store: PacketStore::default(),
            routes,
            scratch,
            exits: Vec::new(),
            injected_total: 0,
            delivered_total: 0,
            tracked_injected: 0,
            tracked_delivered: 0,
            delivered_in_window: 0,
            pending_tracked: 0,
            live_packets: 0,
            latencies_total: LatencyCounts::default(),
            latencies_net: LatencyCounts::default(),
            stage_counters,
            source_backlog: 0,
            peak_source_backlog: 0,
            collect_deliveries: false,
            recent_deliveries: Vec::new(),
            faults,
            retry_queue: BinaryHeap::new(),
            dropped_total: 0,
            tracked_dropped: 0,
            retries_total: 0,
            last_progress: 0,
            stall: None,
            recent_drops: Vec::new(),
            telem,
            events: None,
            config,
        })
    }

    /// Attach an [`EventSink`] to receive every structured [`SimEvent`]
    /// the engine emits from now on (see [`crate::telemetry`]). With no
    /// sink attached each emission site is a single `Option` check.
    pub fn set_event_sink(&mut self, sink: impl EventSink + 'static) {
        self.events = Some(Box::new(sink));
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Tracked packets still somewhere between generation and delivery.
    #[must_use]
    pub fn pending_tracked(&self) -> u64 {
        self.pending_tracked
    }

    /// Total packets injected so far (workload and manual).
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected_total
    }

    /// Total packets whose tails have cleared their destination.
    #[must_use]
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Total packets finally lost to faults (retries exhausted or source
    /// dead).
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Packets currently alive anywhere in the system: source queues,
    /// stage buffers, in flight, or waiting out a retry backoff. Together
    /// with the totals above this exposes the conservation invariant
    /// `injected == delivered + dropped + live` at every cycle boundary.
    #[must_use]
    pub fn live_packets(&self) -> u64 {
        self.live_packets
    }

    /// Whether the current cycle falls inside the measurement window.
    #[must_use]
    pub fn in_measure_window(&self) -> bool {
        let start = self.config.warmup_cycles;
        let end = start + self.config.measure_cycles;
        (start..end).contains(&self.now)
    }

    /// Enable or disable delivery collection (see
    /// [`Engine::take_deliveries`]).
    pub fn collect_deliveries(&mut self, enable: bool) {
        self.collect_deliveries = enable;
    }

    /// Drain the deliveries recorded since the last call (only populated
    /// while collection is enabled).
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.recent_deliveries)
    }

    /// Drain the final fault drops recorded since the last call (only
    /// populated while delivery collection is enabled).
    pub fn take_drops(&mut self) -> Vec<DroppedPacket> {
        std::mem::take(&mut self.recent_drops)
    }

    /// The watchdog's stall report, if it has fired (see
    /// [`SimConfig::watchdog_cycles`]). A stalled engine stops simulating:
    /// [`Engine::run`] returns at the next loop check.
    #[must_use]
    pub fn stall(&self) -> Option<&StallReport> {
        self.stall.as_ref()
    }

    /// Stop automatic workload injection (manual [`Engine::inject`] still
    /// works). Used by closed-loop drivers to drain the network.
    pub fn stop_injection(&mut self) {
        self.arrivals = None;
    }

    /// Manually inject a packet at `src` for `dest` (enqueued at the
    /// source), tracked iff the current cycle is inside the measurement
    /// window. Returns the packet id. Used by deterministic tests and
    /// closed-loop drivers; automatic workload injection happens inside
    /// [`Engine::step`].
    ///
    /// # Panics
    /// Panics if either port is out of range.
    pub fn inject(&mut self, src: u32, dest: u32) -> u64 {
        let tracked = self.in_measure_window();
        self.inject_tracked(src, dest, tracked)
    }

    /// Manually inject with explicit tracking control (closed-loop drivers
    /// propagate the *request's* tracking to its reply). Returns the packet
    /// id.
    ///
    /// # Panics
    /// Panics if either port is out of range.
    pub fn inject_tracked(&mut self, src: u32, dest: u32, tracked: bool) -> u64 {
        match self.try_inject(src, dest, tracked) {
            Ok(id) => id,
            #[expect(
                clippy::panic,
                reason = "documented panicking wrapper; try_inject returns the typed error"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Engine::inject_tracked`] with both ports validated up front and
    /// reported as a typed error instead of a panic.
    ///
    /// # Errors
    /// Returns [`SimError::PortOutOfRange`] if `src` or `dest` exceeds the
    /// network's port count.
    pub fn try_inject(&mut self, src: u32, dest: u32, tracked: bool) -> Result<u64, SimError> {
        let ports = self.config.plan.ports();
        if src >= ports {
            return Err(SimError::PortOutOfRange {
                role: "source",
                port: src,
                ports,
            });
        }
        if dest >= ports {
            return Err(SimError::PortOutOfRange {
                role: "destination",
                port: dest,
                ports,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.injected_total += 1;
        self.live_packets += 1;
        if self.live_packets == 1 {
            // The watchdog's progress timer is meaningless across an idle
            // gap; restart it when the network goes from empty to busy.
            self.last_progress = self.now;
        }
        if tracked {
            self.tracked_injected += 1;
            self.pending_tracked += 1;
        }
        let packet = Packet {
            id,
            src,
            dest,
            injected_at: self.now,
            entered_at: None,
            attempts: 0,
            tracked,
        };
        let r = self.store.insert(packet);
        self.enqueue_at_source(src, r);
        if let Some(sink) = self.events.as_mut() {
            sink.record(&SimEvent::Inject {
                cycle: self.now,
                id,
                src,
                dest,
                tracked,
            });
        }
        Ok(id)
    }

    /// Queue packet `r` at source `src`, making the source due no later
    /// than its line frees.
    fn enqueue_at_source(&mut self, src: u32, r: PacketRef) {
        let source = &mut self.sources[src as usize];
        source.queue.push_back(r);
        self.source_due.lower(src as usize, source.busy_until);
        self.source_backlog += 1;
        self.peak_source_backlog = self.peak_source_backlog.max(self.source_backlog);
    }

    /// Advance one clock cycle.
    pub fn step(&mut self) {
        self.advance_calendars();
        if self.faults.is_some() {
            self.activate_faults();
        }
        let vacated = self.vacate_phase();
        self.wake_unblocked();
        self.release_retries();
        self.workload_inject();
        self.source_grants();
        self.grant_phase();
        self.check_watchdog();
        self.sample_telemetry();
        self.profile_telemetry(vacated);
        #[cfg(debug_assertions)]
        self.debug_assert_conservation();
        self.now += 1;
    }

    /// Drain this cycle's slot of every stage's and the sources' due
    /// calendars: the ports and sources whose time has come join their due
    /// sets, which the cycle's sweeps walk.
    fn advance_calendars(&mut self) {
        let now = self.now;
        for stage in &mut self.stages {
            stage.advance(now);
        }
        self.source_due.advance(now);
    }

    /// Activate the fault events scheduled for this cycle. Parked heads
    /// wait on a healthy module and output, so every parked head in a
    /// struck module is woken (a link fault wakes its whole module, a
    /// superset: a woken head still blocked parks again, counted the
    /// same), and a struck source is visited this cycle.
    fn activate_faults(&mut self) {
        let now = self.now;
        let Some(activated) = self.faults.as_deref_mut().map(|f| f.apply(now)) else {
            return;
        };
        for index in activated {
            let Some(event) = self.faults.as_deref().map(|f| f.events()[index]) else {
                break;
            };
            match event.target {
                FaultTarget::Module { stage, module } | FaultTarget::Link { stage, module, .. } => {
                    rearm_module(&mut self.stages[stage as usize], module as usize, now);
                }
                FaultTarget::SourcePort { port } => self.source_due.lower(port as usize, now),
            }
            if let Some(sink) = self.events.as_mut() {
                sink.record(&SimEvent::FaultActivate {
                    cycle: now,
                    target: event.target,
                    permanent: event.duration.is_none(),
                });
            }
        }
    }

    /// Wake the heads and sources parked on the ports the vacate phase
    /// just freed from full.
    fn wake_unblocked(&mut self) {
        let (routes, store, stage_count) = (&self.routes, &self.store, self.stages.len());
        for stage in 0..stage_count {
            let (before, rest) = self.stages.split_at_mut(stage);
            let fed = &mut rest[0];
            if fed.unblocked.is_empty() {
                continue;
            }
            let mut upstream = Upstream::new(before, &self.sources, &mut self.source_due);
            for p in fed.unblocked.drain(..) {
                upstream.wake(fed.radix, &fed.entry, p as usize, self.now, |r| {
                    routes[store.get(r).dest as usize * stage_count + stage - 1]
                });
            }
        }
    }

    /// Take a time-series sample if this is a sampling cycle (runs after
    /// the cycle's phases, so the sample sees the cycle's outcome).
    fn sample_telemetry(&mut self) {
        if !self.telem.as_deref().is_some_and(|t| t.due(self.now)) {
            return;
        }
        let stage_occupancy = self.stage_occupancy();
        let gauges = Gauges {
            cycle: self.now,
            live_packets: self.live_packets,
            source_backlog: self.source_backlog,
            retry_waiting: self.retry_queue.len() as u64,
            injected_total: self.injected_total,
            delivered_total: self.delivered_total,
            dropped_total: self.dropped_total,
            stage_occupancy,
            stage_counters: &self.stage_counters,
        };
        if let Some(telem) = self.telem.as_deref_mut() {
            telem.sample(gauges);
        }
    }

    /// Run the configured warmup + measurement + drain schedule and return
    /// the collected result. Stops early once the measurement window has
    /// closed and every tracked packet has drained.
    #[must_use]
    pub fn run(mut self) -> SimResult {
        self.run_core(None);
        self.finish()
    }

    /// [`Engine::run`] under a caller-supplied stop predicate, polled every
    /// [`STOP_POLL_CYCLES`] cycles. Services use this to bound a job by a
    /// wall-clock deadline without the engine ever reading a clock itself
    /// (the ICN002 determinism rule): the caller closes over whatever
    /// budget it enforces and returns `true` to abort.
    ///
    /// The predicate only ever causes *early termination* — until it fires,
    /// the cycle-by-cycle evolution is bit-identical to [`Engine::run`].
    ///
    /// # Errors
    /// Returns [`SimError::DeadlineExceeded`] when `should_stop` fired; the
    /// partial simulation state is discarded (a deadline-bounded caller has
    /// no use for a result it cannot trust to be complete).
    pub fn run_bounded(mut self, should_stop: impl FnMut() -> bool) -> Result<SimResult, SimError> {
        let mut should_stop = should_stop;
        if self.run_core(Some(&mut should_stop)) {
            return Err(SimError::DeadlineExceeded { at_cycle: self.now });
        }
        Ok(self.finish())
    }

    /// Whether the run has ended by the engine's end-of-run rules, which
    /// [`Engine::run`] and [`Engine::run_bounded`] stop on and a caller
    /// driving [`Engine::step`] itself can stop on too: the schedule's
    /// last cycle (warmup + measurement + drain) has passed, the watchdog
    /// has fired (no forward progress is possible, or worth waiting for),
    /// the measurement window has closed with no tracked packet pending,
    /// or, with no workload, the network has fully drained.
    #[must_use]
    pub fn done(&self) -> bool {
        let measure_end = self.config.warmup_cycles + self.config.measure_cycles;
        self.now >= measure_end + self.config.drain_cycles
            || self.stall.is_some()
            || (self.now >= measure_end && self.pending_tracked == 0)
            || (self.live_packets == 0 && self.arrivals.is_none())
    }

    /// The shared run loop. Returns `true` iff the stop predicate fired
    /// (never when `should_stop` is `None`).
    fn run_core(&mut self, mut should_stop: Option<&mut dyn FnMut() -> bool>) -> bool {
        while !self.done() {
            if let Some(stop) = should_stop.as_deref_mut() {
                if self.now.is_multiple_of(STOP_POLL_CYCLES) && stop() {
                    return true;
                }
            }
            self.step();
        }
        false
    }

    /// Consume the engine and summarize.
    #[must_use]
    pub fn finish(mut self) -> SimResult {
        let telemetry = self.telem.take().map(|t| t.into_report());
        SimResult {
            ports: self.config.plan.ports(),
            stages: self.config.plan.stages(),
            cycles_run: self.now,
            injected_total: self.injected_total,
            delivered_total: self.delivered_total,
            tracked_injected: self.tracked_injected,
            tracked_delivered: self.tracked_delivered,
            tracked_lost: self.pending_tracked,
            delivered_in_window: self.delivered_in_window,
            total_latency: self.latencies_total.stats(),
            network_latency: self.latencies_net.stats(),
            throughput: self.delivered_in_window as f64
                / (f64::from(self.config.plan.ports()) * self.config.measure_cycles as f64),
            peak_source_backlog: self.peak_source_backlog,
            final_source_backlog: self.source_backlog,
            stage_counters: self.stage_counters,
            analytic_unloaded_cycles: self.config.analytic_unloaded_cycles(),
            dropped_total: self.dropped_total,
            tracked_dropped: self.tracked_dropped,
            retries_total: self.retries_total,
            live_at_end: self.live_packets,
            unreachable_pairs: self
                .faults
                .as_deref()
                .map_or(0, |f| f.unreachable_pairs(&self.stages)),
            stall: self.stall,
            telemetry,
        }
    }

    /// Total packets buffered (or reserved) in each stage's inputs.
    fn stage_occupancy(&self) -> Vec<u64> {
        self.stages
            .iter()
            .map(|stage| stage.queue_lens().map(|len| len as u64).sum())
            .collect()
    }

    /// Free drained buffer slots across every stage; returns the freed
    /// count (the profiler's per-cycle "advance" op tally).
    fn vacate_phase(&mut self) -> u64 {
        let now = self.now;
        self.stages
            .iter_mut()
            .map(|stage| stage.vacate_due(now))
            .sum()
    }

    /// Feed the span profiler and hotspot heatmap (runs after the cycle's
    /// phases, like [`Engine::sample_telemetry`]). A single early-out when
    /// profiling is off keeps the hot path untouched.
    fn profile_telemetry(&mut self, vacated: u64) {
        let Some(telem) = self.telem.as_deref_mut() else {
            return;
        };
        if !telem.profiling() {
            return;
        }
        let measure_end = self.config.warmup_cycles + self.config.measure_cycles;
        let window = if self.now < self.config.warmup_cycles {
            0
        } else if self.now < measure_end {
            1
        } else {
            2
        };
        let grants_total = self.stage_counters.iter().map(|c| c.grants).sum();
        telem.profile_cycle(&PhaseGauges {
            cycle: self.now,
            window,
            injected_total: self.injected_total,
            delivered_total: self.delivered_total,
            dropped_total: self.dropped_total,
            grants_total,
            vacated,
        });
        if telem.heat_due(self.now) {
            for (s, stage) in self.stages.iter().enumerate() {
                let mut lens = stage.queue_lens();
                for m in 0..stage.modules as usize {
                    let occ = lens.by_ref().take(stage.radix as usize).sum::<usize>();
                    telem.heat_occupancy(s, m, occ as u64);
                }
            }
        }
    }

    /// Offer this cycle's workload packets: each source [`Arrivals`]
    /// yields, in port order, with its destination drawn right after it
    /// from the same RNG stream, so runs are reproducible from the seed
    /// alone.
    fn workload_inject(&mut self) {
        let Some(mut arrivals) = self.arrivals.take() else {
            return;
        };
        let ports = self.config.plan.ports();
        while let Some(src) = arrivals.next_in_cycle(self.now, &mut self.rng) {
            let dest = self.config.workload.destination(src, ports, &mut self.rng);
            self.inject(src, dest);
        }
        self.arrivals = Some(arrivals);
    }

    /// Move retry-backoff packets whose release cycle has arrived back to
    /// their source queues (in deterministic release/id order).
    fn release_retries(&mut self) {
        let now = self.now;
        while self
            .retry_queue
            .peek()
            .is_some_and(|Reverse(entry)| entry.retry_at <= now)
        {
            let Some(Reverse(entry)) = self.retry_queue.pop() else {
                break;
            };
            let src = self.store.get(entry.packet).src;
            self.enqueue_at_source(src, entry.packet);
            self.last_progress = now;
        }
    }

    /// Start each due source's front packet into its free stage-0 buffer,
    /// visiting only sources whose due time has come (see
    /// [`Engine::source_due`]), in line order: a walk of the sources' due
    /// set.
    fn source_grants(&mut self) {
        let now = self.now;
        let flits = self.flits;
        {
            let Self {
                stages,
                sources,
                source_due,
                store,
                routes,
                events,
                faults,
                exits,
                source_backlog,
                last_progress,
                ..
            } = self;
            let faults = faults.as_deref();
            let stage_count = stages.len();
            let mut stage0 = stages[0].inputs();
            let mut scan = 0;
            while let Some(index) = source_due.first_due(scan) {
                scan = index + 1;
                let line = index as u32;
                let source = &mut sources[index];
                match faults.map_or(Health::Up, |f| f.source_health(line, now)) {
                    Health::Up => {}
                    // A transiently failed source just pauses; its queue keeps.
                    Health::TransientDown => continue,
                    // A permanently dead source can never send again: its whole
                    // queue is lost, with no retry (a drop whose source is
                    // dead is final). Its line is never used again, so
                    // zeroing `busy_until` keeps any later arrival due at
                    // once.
                    Health::PermanentDown => {
                        while let Some(r) = source.queue.pop_front() {
                            *source_backlog -= 1;
                            exits.push(Exit::Drop(r));
                        }
                        source.busy_until = 0;
                        source_due.set(index, NEVER);
                        continue;
                    }
                }
                if source.queue.is_empty() {
                    source_due.set(index, NEVER);
                    continue;
                }
                if source.busy_until > now {
                    source_due.set(index, source.busy_until);
                    continue;
                }
                let port = stage0.port_of(index);
                if !stage0.has_space(port) {
                    // Parked until the buffer drains (see `Upstream::wake`).
                    source_due.set(index, NEVER);
                    continue;
                }
                let Some(r) = source.queue.pop_front() else {
                    continue;
                };
                *source_backlog -= 1;
                source.busy_until = now + flits;
                let due = if source.queue.is_empty() {
                    NEVER
                } else {
                    source.busy_until
                };
                source_due.set(index, due);
                let packet = store.get_mut(r);
                packet.entered_at = Some(now);
                let packet_id = packet.id;
                let tag = routes[packet.dest as usize * stage_count];
                stage0.push(port, r, now, tag);
                *last_progress = now;
                if let Some(sink) = events.as_mut() {
                    sink.record(&SimEvent::Enter {
                        cycle: now,
                        id: packet_id,
                        src: line,
                    });
                }
            }
        }
        self.apply_exits();
    }

    /// The grant phase: one sweep per stage, from the first stage to the
    /// last, each applying its grants' effects as it makes them (see
    /// [`crate::sweep`]). The packets a stage delivers or drops are
    /// accounted right after its sweep, so their events follow its grant
    /// events.
    fn grant_phase(&mut self) {
        for stage in 0..self.stages.len() {
            self.sweep_stage(stage);
            self.apply_exits();
        }
    }

    /// Run stage `stage`'s grant sweep.
    fn sweep_stage(&mut self, stage: usize) {
        let stage_count = self.stages.len();
        let (before, rest) = self.stages.split_at_mut(stage);
        let Some((here, after)) = rest.split_first_mut() else {
            return;
        };
        let (radix, head_latency) = (here.radix, here.head_latency);
        let (inputs, outputs, parked, _) = here.split();
        Sweep {
            now: self.now,
            flits: self.flits,
            arbitration: self.config.arbitration,
            stage,
            radix,
            head_latency,
            store: &self.store,
            routes: &self.routes,
            stage_count,
            faults: self.faults.as_deref(),
            inputs,
            outputs,
            parked,
            scratch: &mut self.scratch,
            next: after.first_mut().map(Stage::inputs),
            upstream: Upstream::new(before, &self.sources, &mut self.source_due),
            counters: &mut self.stage_counters[stage],
            last_progress: &mut self.last_progress,
            events: self.events.as_deref_mut(),
            telem: self.telem.as_deref_mut(),
            exits: &mut self.exits,
        }
        .run();
    }

    /// Account the packets the last sweep (a stage's, or the sources')
    /// delivered, then those it dropped, each in sweep order.
    fn apply_exits(&mut self) {
        if self.exits.is_empty() {
            return;
        }
        let mut exits = std::mem::take(&mut self.exits);
        for &exit in &exits {
            if let Exit::Deliver(r, out_line, delivered_at) = exit {
                self.deliver(r, out_line, delivered_at);
            }
        }
        for &exit in &exits {
            if let Exit::Drop(r) = exit {
                self.drop_packet(r);
            }
        }
        exits.clear();
        self.exits = exits;
    }

    fn deliver(&mut self, r: PacketRef, out_line: u32, delivered_at: u64) {
        let packet = self.store.remove(r);
        assert_eq!(
            out_line, packet.dest,
            "packet {} misrouted: reached line {out_line}, wanted {}",
            packet.id, packet.dest
        );
        self.delivered_total += 1;
        self.live_packets -= 1;
        if self.collect_deliveries {
            self.recent_deliveries.push(Delivery {
                id: packet.id,
                src: packet.src,
                dest: packet.dest,
                injected_at: packet.injected_at,
                delivered_at,
                tracked: packet.tracked,
            });
        }
        let window_start = self.config.warmup_cycles;
        let window_end = window_start + self.config.measure_cycles;
        if (window_start..window_end).contains(&delivered_at) {
            self.delivered_in_window += 1;
        }
        if packet.tracked {
            self.tracked_delivered += 1;
            self.pending_tracked -= 1;
            self.latencies_total
                .record(delivered_at - packet.injected_at);
            // A delivered packet always entered the network; fall back to
            // the injection cycle rather than trusting that invariant with
            // a panic.
            let entered = packet.entered_at.unwrap_or(packet.injected_at);
            self.latencies_net.record(delivered_at - entered);
            if let Some(telem) = self.telem.as_deref_mut() {
                telem.record_latency(delivered_at - packet.injected_at, delivered_at - entered);
            }
        }
        if let Some(sink) = self.events.as_mut() {
            sink.record(&SimEvent::Deliver {
                cycle: delivered_at,
                id: packet.id,
                dest: packet.dest,
                latency: delivered_at - packet.injected_at,
            });
        }
    }

    /// Handle a packet dropped by a fault: re-offer it through its source
    /// if it has retry budget left (and the source is alive), otherwise
    /// make the loss final.
    fn drop_packet(&mut self, r: PacketRef) {
        let (src, attempts) = {
            let packet = self.store.get(r);
            (packet.src, packet.attempts)
        };
        let source_dead = self
            .faults
            .as_deref()
            .is_some_and(|f| matches!(f.source_health(src, self.now), Health::PermanentDown));
        if !source_dead && attempts < self.config.retry.max_retries {
            let backoff = self.config.retry.backoff(attempts);
            let packet = self.store.get_mut(r);
            packet.attempts += 1;
            packet.entered_at = None;
            let id = packet.id;
            let attempt = packet.attempts;
            let retry_at = self.now + backoff;
            self.retries_total += 1;
            self.last_progress = self.now;
            if let Some(sink) = self.events.as_mut() {
                sink.record(&SimEvent::Retry {
                    cycle: self.now,
                    id,
                    attempt,
                    retry_at,
                });
            }
            self.retry_queue.push(Reverse(RetryEntry {
                retry_at,
                id,
                packet: r,
            }));
        } else {
            self.finalize_drop(r);
        }
    }

    /// Account a final fault loss. Counts as forward progress for the
    /// watchdog: the network's state changed, and the conservation sum
    /// still closes.
    fn finalize_drop(&mut self, r: PacketRef) {
        let packet = self.store.remove(r);
        self.dropped_total += 1;
        self.live_packets -= 1;
        self.last_progress = self.now;
        if packet.tracked {
            self.tracked_dropped += 1;
            self.pending_tracked -= 1;
        }
        if self.collect_deliveries {
            self.recent_drops.push(DroppedPacket {
                id: packet.id,
                src: packet.src,
                dest: packet.dest,
                injected_at: packet.injected_at,
                dropped_at: self.now,
                attempts: packet.attempts,
                tracked: packet.tracked,
            });
        }
        if let Some(sink) = self.events.as_mut() {
            sink.record(&SimEvent::Drop {
                cycle: self.now,
                id: packet.id,
                src: packet.src,
                dest: packet.dest,
                attempts: packet.attempts,
            });
        }
    }

    /// Fire the watchdog if live packets have made no forward progress
    /// (grant, delivery, final drop, or retry release) for the configured
    /// bound. Packets waiting out a retry backoff are *scheduled* to be
    /// idle and do not count as wedged.
    fn check_watchdog(&mut self) {
        let bound = self.config.watchdog_cycles;
        if bound == 0 || self.stall.is_some() {
            return;
        }
        let retry_waiting = self.retry_queue.len() as u64;
        if self.live_packets <= retry_waiting {
            return;
        }
        if self.now.saturating_sub(self.last_progress) < bound {
            return;
        }
        self.stall = Some(StallReport {
            at_cycle: self.now,
            last_progress_cycle: self.last_progress,
            live_packets: self.live_packets,
            retry_waiting,
            source_backlog: self.source_backlog,
            stage_occupancy: self.stage_occupancy(),
        });
        if let Some(sink) = self.events.as_mut() {
            sink.record(&SimEvent::Stall {
                cycle: self.now,
                live_packets: self.live_packets,
            });
        }
    }

    /// The conservation invariant, checked every cycle in debug builds:
    /// every packet ever injected is delivered, finally dropped, or still
    /// live — for the full population and the tracked subset — the
    /// source-backlog counter matches the queues it summarizes, a source
    /// with packets is due by the time it can send (or waits on a full
    /// stage-0 buffer), the parked heads recounted per stage match the
    /// gauges the blocked counters are built from, every due set (each
    /// stage's `ready_at` and `vacate_at`, and the sources') holds exactly
    /// the entries of its array that have come due, and the packet arena
    /// holds exactly the live packets.
    #[cfg(debug_assertions)]
    fn debug_assert_conservation(&self) {
        debug_assert_eq!(
            self.injected_total,
            self.delivered_total + self.dropped_total + self.live_packets,
            "packet conservation violated at cycle {}",
            self.now
        );
        debug_assert_eq!(
            self.tracked_injected,
            self.tracked_delivered + self.tracked_dropped + self.pending_tracked,
            "tracked-packet conservation violated at cycle {}",
            self.now
        );
        let queued: u64 = self.sources.iter().map(|s| s.queue.len() as u64).sum();
        debug_assert_eq!(
            queued, self.source_backlog,
            "source backlog drifted at {}",
            self.now
        );
        let stage0 = &self.stages[0];
        let lens0: Vec<usize> = stage0.queue_lens().collect();
        for (line, (source, &due)) in self.sources.iter().zip(self.source_due.times()).enumerate() {
            let port_full =
                lens0[stage0.entry[line] as usize] >= self.config.buffer_capacity as usize;
            debug_assert!(
                source.queue.is_empty() || due <= source.busy_until.max(self.now) || port_full,
                "source {line} queues packets but is not due when it can send, cycle {}",
                self.now
            );
        }
        // Parked heads, recounted from the ports, against the gauges the
        // blocked counters are built from.
        for (s, stage) in self.stages.iter().enumerate() {
            let parked = &stage.parked;
            debug_assert_eq!(
                parked.calendar_total(),
                parked.busy,
                "wake calendar drifted"
            );
            debug_assert_eq!(
                stage.recount_parked(self.now),
                (parked.busy, parked.downstream),
                "parked gauges (busy, downstream) drifted at stage {s}, cycle {}",
                self.now
            );
            debug_assert_eq!(
                stage.downstream_waiters().as_slice(),
                parked.on_line(),
                "per-line downstream parks drifted at stage {s}, cycle {}",
                self.now
            );
        }
        // Every calendar's due set, rebuilt from its array.
        for (s, stage) in self.stages.iter().enumerate() {
            for (times, array) in stage.due_times().into_iter().zip(["ready_at", "vacate_at"]) {
                debug_assert_eq!(
                    times.due_words(),
                    times.recount(self.now).as_slice(),
                    "stage {s} {array} due set drifted at cycle {}",
                    self.now
                );
            }
        }
        debug_assert_eq!(
            self.source_due.due_words(),
            self.source_due.recount(self.now).as_slice(),
            "source due set drifted at cycle {}",
            self.now
        );
        debug_assert_eq!(
            self.store.live(),
            self.live_packets,
            "packet arena leaked at {}",
            self.now
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipModel;
    use icn_topology::StagePlan;
    use icn_workloads::Workload;

    fn quiet_config(plan: StagePlan, chip: ChipModel, width: u32) -> SimConfig {
        let mut c = SimConfig::paper_baseline(plan, chip, width, Workload::uniform(0.0));
        c.warmup_cycles = 0;
        c.measure_cycles = 10_000;
        c.drain_cycles = 10_000;
        c
    }

    /// The validation anchor: a single packet in an empty network must match
    /// the paper's §4 delay expressions cycle-exactly, for both chip models
    /// and several widths and plans.
    #[test]
    fn single_packet_matches_analytic_delay_exactly() {
        for chip in [ChipModel::Mcc, ChipModel::Dmc] {
            for width in [1u32, 2, 4, 8] {
                for plan in [
                    StagePlan::uniform(16, 3),
                    StagePlan::uniform(4, 2),
                    StagePlan::balanced_pow2(2048, 16).unwrap(),
                ] {
                    let config = quiet_config(plan.clone(), chip, width);
                    let expected = config.analytic_unloaded_cycles();
                    let mut engine = Engine::new(config);
                    engine.inject(0, plan.ports() - 1);
                    let result = engine.run();
                    assert_eq!(result.tracked_delivered, 1, "{chip} W={width} {plan}");
                    assert_eq!(
                        result.network_latency.min, expected,
                        "{chip} W={width} {plan}: sim != analytic"
                    );
                    assert_eq!(result.total_latency.min, expected);
                }
            }
        }
    }

    /// Every injected packet reaches its destination (conservation), even
    /// under heavy uniform load.
    #[test]
    fn packet_conservation_under_load() {
        let plan = StagePlan::uniform(4, 3); // 64 ports
        let mut c = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(0.02));
        c.warmup_cycles = 500;
        c.measure_cycles = 3_000;
        c.drain_cycles = 60_000;
        c.seed = 7;
        let result = Engine::new(c).run();
        assert!(result.tracked_injected > 0);
        assert_eq!(result.tracked_lost, 0, "tracked packets lost: {result:?}");
        assert_eq!(result.tracked_delivered, result.tracked_injected);
    }

    /// At vanishing load the mean latency approaches the analytic unloaded
    /// delay (latency expansion → 1).
    #[test]
    fn vanishing_load_approaches_analytic_delay() {
        let plan = StagePlan::uniform(4, 2);
        let mut c = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(0.001));
        c.warmup_cycles = 200;
        c.measure_cycles = 30_000;
        c.drain_cycles = 30_000;
        let result = Engine::new(c).run();
        assert!(result.tracked_delivered > 10, "too few samples");
        let expansion = result.latency_expansion();
        assert!(
            (1.0..1.15).contains(&expansion),
            "latency expansion {expansion} too far from 1"
        );
    }

    /// A long measurement window costs the latency counts nothing per
    /// delivery: they hold one counter per latency up to the largest, while
    /// the tracked deliveries outnumber those counters a hundredfold.
    #[test]
    fn latency_counts_are_bounded_by_the_largest_latency() {
        let plan = StagePlan::uniform(4, 2);
        let mut c = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(0.01));
        c.warmup_cycles = 200;
        c.measure_cycles = 1_000_000;
        c.drain_cycles = 10_000;
        let mut engine = Engine::new(c);
        while !engine.done() {
            engine.step();
        }
        let delivered = engine.tracked_delivered;
        for counts in [&engine.latencies_total, &engine.latencies_net] {
            let largest = counts.stats().max;
            assert_eq!(counts.entries() as u64, largest + 1);
            assert!(
                delivered >= 100 * (largest + 1),
                "{delivered} tracked deliveries against {} counters",
                largest + 1
            );
        }
        let result = engine.finish();
        assert_eq!(result.total_latency.count, delivered);
        assert_eq!(result.network_latency.count, delivered);
    }

    /// Two packets fighting for one output: the loser waits for the winner's
    /// tail (circuit-held output), so its delay grows by the packet time.
    #[test]
    fn output_contention_serializes_packets() {
        let plan = StagePlan::uniform(2, 1); // single 2×2 crossbar
        let config = quiet_config(plan, ChipModel::Mcc, 4);
        let unloaded = config.analytic_unloaded_cycles(); // 2 + 25 = 27
        let flits = config.flits_per_packet();
        let mut engine = Engine::new(config);
        engine.inject(0, 1);
        engine.inject(1, 1); // same destination
        let result = engine.run();
        assert_eq!(result.tracked_delivered, 2);
        assert_eq!(result.network_latency.min, unloaded);
        // Loser: granted once the winner's tail clears the output
        // (L + flits cycles in), then takes the full unloaded time itself.
        assert_eq!(result.network_latency.max, unloaded + flits + 2);
    }

    /// Back-pressure: with single buffers and a blocked head-of-line packet,
    /// upstream packets must be held (no loss, increased latency).
    #[test]
    fn backpressure_holds_packets_upstream() {
        let plan = StagePlan::uniform(2, 3); // 8 ports, 3 stages
        let config = quiet_config(plan, ChipModel::Mcc, 1);
        let mut engine = Engine::new(config);
        // Four sources all target port 0, creating a hot output tree.
        for src in [0u32, 2, 4, 6] {
            engine.inject(src, 0);
        }
        let result = engine.run();
        assert_eq!(result.tracked_delivered, 4);
        let blocked: u64 = result
            .stage_counters
            .iter()
            .map(StageCounters::blocked)
            .sum();
        assert!(blocked > 0, "expected contention counters to fire");
        // Packets serialized on the final output: spread ≥ 3 packet times.
        let spread = result.network_latency.max - result.network_latency.min;
        let flits = 100;
        assert!(
            spread >= 3 * flits,
            "expected ≥ {} cycles of serialization, got {spread}",
            3 * flits
        );
    }

    /// Store-and-forward (pass-through disabled) adds one packet time per
    /// intermediate buffer relative to cut-through.
    #[test]
    fn store_and_forward_is_slower_than_cut_through() {
        let plan = StagePlan::uniform(4, 3);
        let mut ct = quiet_config(plan.clone(), ChipModel::Dmc, 4);
        ct.cut_through = true;
        let mut sf = quiet_config(plan, ChipModel::Dmc, 4);
        sf.cut_through = false;

        let run_single = |config: SimConfig| {
            let mut engine = Engine::new(config);
            engine.inject(5, 60);
            engine.run().network_latency.min
        };
        let ct_lat = run_single(ct);
        let sf_lat = run_single(sf);
        // S&F waits for the full packet (flits − 1 = 24 extra cycles) at
        // every one of the three stages before requesting onward.
        assert_eq!(ct_lat + 3 * 24, sf_lat, "ct={ct_lat} sf={sf_lat}");
    }

    /// Deterministic replay: identical seeds give identical results.
    #[test]
    fn same_seed_same_result() {
        let plan = StagePlan::uniform(4, 2);
        let mut c = SimConfig::paper_baseline(plan, ChipModel::Mcc, 4, Workload::uniform(0.05));
        c.warmup_cycles = 100;
        c.measure_cycles = 2_000;
        c.drain_cycles = 20_000;
        let a = Engine::new(c.clone()).run();
        let b = Engine::new(c.clone()).run();
        assert_eq!(a, b);
        c.seed += 1;
        let d = Engine::new(c).run();
        assert_ne!(a.injected_total, d.injected_total);
    }

    /// Saturation detection: at full load the sources back up.
    #[test]
    fn full_load_saturates() {
        let plan = StagePlan::uniform(4, 2);
        let mut c = SimConfig::paper_baseline(plan, ChipModel::Mcc, 4, Workload::uniform(1.0));
        c.warmup_cycles = 200;
        c.measure_cycles = 2_000;
        c.drain_cycles = 0;
        let result = Engine::new(c).run();
        assert!(
            result.final_source_backlog > 0,
            "expected saturation backlog"
        );
        assert!(result.throughput < 0.05, "flit-serialized throughput bound");
    }

    /// Tracing: a traced packet's hops match the topology's unique path,
    /// with grants spaced exactly one head latency apart in an empty
    /// network, and zero waiting cycles.
    #[test]
    fn traces_match_topology_and_timing() {
        use crate::telemetry::TraceBuilder;
        use icn_topology::Topology;
        let plan = StagePlan::uniform(4, 3);
        let config = quiet_config(plan.clone(), ChipModel::Dmc, 4);
        let head_latency = config.stage_head_latency(4);
        let flits = config.flits_per_packet();
        let builder = TraceBuilder::new();
        let mut engine = Engine::new(config);
        engine.set_event_sink(builder.clone());
        engine.inject(11, 50);
        for _ in 0..10_000 {
            engine.step();
            if engine.pending_tracked() == 0 {
                break;
            }
        }
        let traces = builder.traces();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert!(trace.complete(), "{trace}");
        assert_eq!(trace.waiting_cycles(), Some(0));
        // Hops coincide with the topology's unique path.
        let expected = Topology::new(plan).route(11, 50);
        assert_eq!(trace.hops.len(), expected.hops.len());
        for (got, want) in trace.hops.iter().zip(&expected.hops) {
            assert_eq!(
                (got.stage, got.module, got.in_port, got.out_port),
                (want.stage, want.module, want.in_port, want.out_port)
            );
        }
        // Grant spacing is exactly the head latency; delivery is the last
        // head-out plus the packet transfer time.
        for pair in trace.hops.windows(2) {
            assert_eq!(pair[1].granted_at - pair[0].granted_at, head_latency);
        }
        let last = trace.hops.last().unwrap();
        assert_eq!(trace.delivered_at, Some(last.head_out_at + flits));
    }

    /// Throughput accounting: delivered-in-window per port per cycle.
    #[test]
    fn throughput_is_bounded_by_packet_time() {
        // One packet takes `flits` cycles of line time, so per-port
        // throughput can never exceed 1/flits.
        let plan = StagePlan::uniform(4, 2);
        let mut c = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(0.5));
        c.warmup_cycles = 500;
        c.measure_cycles = 5_000;
        c.drain_cycles = 0;
        let flits = c.flits_per_packet() as f64;
        let result = Engine::new(c).run();
        assert!(result.throughput <= 1.0 / flits + 1e-9);
        assert!(result.throughput > 0.0);
    }

    /// The per-cycle accessors expose the conservation invariant while the
    /// engine is running (the property suite samples these mid-flight).
    #[test]
    fn live_accessors_close_the_conservation_sum() {
        let plan = StagePlan::uniform(4, 2);
        let mut c = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(0.05));
        c.warmup_cycles = 0;
        c.measure_cycles = 500;
        c.drain_cycles = 0;
        let mut engine = Engine::new(c);
        for _ in 0..500 {
            engine.step();
            assert_eq!(
                engine.injected_total(),
                engine.delivered_total() + engine.dropped_total() + engine.live_packets()
            );
        }
        assert!(engine.injected_total() > 0);
    }
}
