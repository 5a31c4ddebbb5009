//! The lock-step simulation engine.
//!
//! One `step()` is one network clock cycle, processed in four phases:
//!
//! 1. **Vacate** — input-buffer slots whose tails have left are freed and
//!    module outputs whose tails have passed become available (implicit via
//!    `busy_until`).
//! 2. **Inject** — the workload offers new packets to the source queues.
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
//! lock-step consistency.
//!
//! # Hot-path design
//!
//! The per-cycle loop allocates nothing in steady state and is locked to
//! its pre-optimization behavior by the byte-identical parity suite in
//! `tests/parity.rs` (results *and* full event streams). Its speed is
//! measured by the `perfbench` package's `sim_paper2048` workload
//! (`BENCHMARK.json`), which also breaks a step down per layer:
//!
//! * **Packet arena** — every live packet occupies one slot in a
//!   free-list [`PacketStore`]; queues, buffers, and the retry heap pass
//!   4-byte [`PacketRef`]s instead of cloning packets.
//! * **Route table** — routing tags are a pure function of the
//!   destination (its mixed-radix digits), so one `ports × stages` table
//!   built at construction replaces the old per-packet tag `Vec`.
//! * **Entry tables** — `entry[stage][line]` precomputes
//!   `Topology::stage_input` into a flat port index, removing div/mod
//!   from every grant and source entry.
//! * **Flat stages** — each stage stores its ports module-major in two
//!   contiguous arrays (see [`crate::module`]).
//! * **Due-time arrays** — beside its queues, each stage keeps
//!   `ready_at[p]` (the cycle port `p`'s ungranted front may request) and
//!   `vacate_at[p]` (the cycle its granted front leaves) in two flat
//!   `u64` arrays (see [`crate::module`]). The vacate sweep scans
//!   `vacate_at` and touches only queues with a slot due; the grant sweep
//!   jumps between modules with a due `ready_at` entry and reads a queue
//!   front only for a ready port. On the 2048-port network about a third
//!   of the 6,144 input ports hold a packet, so the old walk over every
//!   queue spent most of the step on ports with nothing to do.
//! * **Occupancy counts** — `ExecState::occ` holds every input queue's
//!   length, updated as ports change (pushes, vacates, fault drops)
//!   instead of re-counted each cycle; back-pressure, the watchdog's
//!   stall report, telemetry samples and the heatmap all read it.
//! * **Scratch buffers** — the per-module ready set and the per-stage
//!   delivery/drop lists live in reusable engine-owned buffers; each
//!   ready module probes its input fronts once per cycle (O(r)) instead
//!   of once per output (O(r²)).
//! * **Module sharding** — the vacate and grant phases run as per-stage
//!   *module chunks* (see [`crate::shard`]); with
//!   [`EngineOptions::threads`] > 1 the chunks execute on a persistent
//!   first-party [`crate::pool::WorkerPool`] with a barrier per phase,
//!   and every globally-ordered effect is buffered per chunk and merged
//!   in module index order — never thread completion order — so parallel
//!   runs are byte-identical to serial ones. The serial path runs the
//!   same chunked code (one chunk per stage), which is what lets the
//!   parity fixtures pin both.
//!
//! Telemetry and event sinks keep their zero-cost-when-disabled shape:
//! every observation site is a single `Option` check.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use icn_topology::Topology;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::fault::{FaultEvent, FaultState, Health, StallReport};
use crate::metrics::{LatencyStats, SimResult, StageCounters};
use crate::module::Stage;
use crate::options::EngineOptions;
use crate::packet::Packet;
use crate::pool::run_jobs;
use crate::shard::{
    add_counters, grant_chunk, schedule, vacate_chunk, ExecState, GrantJob, GrantShared,
    ShardEffects, ShardScratch, StageMeta, VacateJob,
};
use crate::store::{PacketRef, PacketStore, NO_TRACE};
use crate::telemetry::{EventSink, Gauges, PhaseGauges, SimEvent, StageDims, TelemetryState};
use crate::trace::PacketTrace;

/// How often (in cycles) [`Engine::run_bounded`] polls its stop predicate.
/// Coarse on purpose: the predicate typically reads a wall clock, and a
/// check every ~thousand cycles keeps that entirely off the hot path while
/// still bounding overshoot to well under a second at any realistic
/// cycles-per-second rate.
pub const STOP_POLL_CYCLES: u64 = 1024;

/// The engine's attached event sink (kept behind a wrapper so `Engine`
/// can keep deriving `Debug`).
struct SinkHandle(Box<dyn EventSink>);

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

/// Per-network-input source: an open-loop queue feeding stage 0.
#[derive(Debug, Default)]
struct Source {
    queue: VecDeque<PacketRef>,
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
    topology: Topology,
    stages: Vec<Stage>,
    sources: Vec<Source>,
    rng: ChaCha12Rng,
    now: u64,
    next_id: u64,
    flits: u64,
    // Precomputed routing (see the module docs).
    store: PacketStore,
    /// `routes[dest * stage_count + stage]` = output port at `stage`.
    routes: Vec<u32>,
    /// `entry[stage][line]` = flat input-port index within `stage`.
    entry: Vec<Vec<u32>>,
    stage_count: usize,
    // Reusable per-cycle scratch (never shrunk, so steady state is
    // allocation-free).
    scratch_deliveries: Vec<(PacketRef, u32, u64)>,
    scratch_drops: Vec<PacketRef>,
    // Sharded-execution state: chunk plan, worker pool, per-chunk
    // buffers (see `crate::shard`).
    exec: ExecState,
    // Statistics.
    injected_total: u64,
    delivered_total: u64,
    tracked_injected: u64,
    tracked_delivered: u64,
    delivered_in_window: u64,
    pending_tracked: u64,
    live_packets: u64,
    latencies_total: Vec<u64>,
    latencies_net: Vec<u64>,
    stage_counters: Vec<StageCounters>,
    source_backlog: u64,
    peak_source_backlog: u64,
    collect_deliveries: bool,
    recent_deliveries: Vec<Delivery>,
    traces: Vec<PacketTrace>,
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
    events: Option<SinkHandle>,
}

impl Engine {
    /// Build an engine for the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`SimConfig::validate`]);
    /// use [`Engine::try_new`] for a typed error instead.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        match Self::try_new(config) {
            Ok(engine) => engine,
            // icn-lint: allow(ICN003) -- documented panicking wrapper; try_new returns the typed error
            Err(e) => panic!("invalid simulation config: {e}"),
        }
    }

    /// Build an engine for the given configuration, reporting an invalid
    /// configuration (including an invalid fault plan) as a typed error.
    /// Runs serially; use [`Engine::try_with_options`] for a sharded run.
    ///
    /// # Errors
    /// Returns whatever [`SimConfig::validate`] rejects.
    pub fn try_new(config: SimConfig) -> Result<Self, SimError> {
        Self::try_with_options(config, EngineOptions::default())
    }

    /// Build an engine with explicit [`EngineOptions`] (thread budget,
    /// chunking). Options steer *how* the run executes, never what it
    /// computes: results are byte-identical across every option value.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`SimConfig::validate`]);
    /// use [`Engine::try_with_options`] for a typed error instead.
    #[must_use]
    pub fn with_options(config: SimConfig, options: EngineOptions) -> Self {
        match Self::try_with_options(config, options) {
            Ok(engine) => engine,
            // icn-lint: allow(ICN003) -- documented panicking wrapper; try_with_options returns the typed error
            Err(e) => panic!("invalid simulation config: {e}"),
        }
    }

    /// [`Engine::try_new`] with explicit [`EngineOptions`].
    ///
    /// # Errors
    /// Returns whatever [`SimConfig::validate`] rejects.
    pub fn try_with_options(config: SimConfig, options: EngineOptions) -> Result<Self, SimError> {
        config.validate()?;
        let topology = Topology::new(config.plan.clone());
        let flits = config.flits_per_packet();
        let ready_offset = if config.cut_through {
            0
        } else {
            flits.saturating_sub(1)
        };
        let radices = config.plan.radices().to_vec();
        let stages: Vec<Stage> = radices
            .iter()
            .enumerate()
            .map(|(i, &r)| Stage::new(r, config.plan.modules_in_stage(i as u32), ready_offset))
            .collect();
        let ports = config.plan.ports();
        let stage_count = config.plan.stages() as usize;
        let mut routes = Vec::with_capacity(ports as usize * stage_count);
        for dest in 0..ports {
            routes.extend(topology.routing_tags(dest));
        }
        let entry: Vec<Vec<u32>> = (0..stage_count)
            .map(|s| {
                let radix = radices[s];
                (0..ports)
                    .map(|line| {
                        let (module, port) = topology.stage_input(s as u32, line);
                        module * radix + port
                    })
                    .collect()
            })
            .collect();
        let meta: Vec<StageMeta> = radices
            .iter()
            .enumerate()
            .map(|(i, &r)| StageMeta {
                radix: r,
                modules: config.plan.modules_in_stage(i as u32),
                head_latency: config.stage_head_latency(r),
            })
            .collect();
        let exec = ExecState::build(&options, meta);
        let sources = (0..ports).map(|_| Source::default()).collect();
        let stage_counters = vec![StageCounters::default(); stage_count];
        let rng = ChaCha12Rng::seed_from_u64(config.seed);
        let faults = FaultState::build(&config.faults, &config.plan);
        let stage_dims: Vec<StageDims> = radices
            .iter()
            .enumerate()
            .map(|(i, &r)| StageDims {
                modules: config.plan.modules_in_stage(i as u32),
                radix: r,
            })
            .collect();
        let telem = TelemetryState::build(&config.telemetry, &stage_dims, flits);
        Ok(Self {
            topology,
            stages,
            sources,
            rng,
            now: 0,
            next_id: 0,
            flits,
            store: PacketStore::default(),
            routes,
            entry,
            stage_count,
            scratch_deliveries: Vec::new(),
            scratch_drops: Vec::new(),
            exec,
            injected_total: 0,
            delivered_total: 0,
            tracked_injected: 0,
            tracked_delivered: 0,
            delivered_in_window: 0,
            pending_tracked: 0,
            live_packets: 0,
            latencies_total: Vec::new(),
            latencies_net: Vec::new(),
            stage_counters,
            source_backlog: 0,
            peak_source_backlog: 0,
            collect_deliveries: false,
            recent_deliveries: Vec::new(),
            traces: Vec::new(),
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
        self.events = Some(SinkHandle(Box::new(sink)));
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

    /// Resolved shard-thread count this engine executes with (`1` means
    /// the serial path). Execution options never affect results — see
    /// [`EngineOptions`].
    #[must_use]
    pub fn threads(&self) -> usize {
        self.exec.threads
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
        self.config.workload.load = 0.0;
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
            // icn-lint: allow(ICN003) -- documented panicking wrapper; try_inject returns the typed error
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
        let ports = self.topology.ports();
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
        let trace = if tracked && (self.traces.len() as u32) < self.config.trace_packets {
            self.traces.push(PacketTrace::new(id, src, dest, self.now));
            (self.traces.len() - 1) as u32
        } else {
            NO_TRACE
        };
        let packet = Packet {
            id,
            src,
            dest,
            injected_at: self.now,
            entered_at: None,
            attempts: 0,
            tracked,
        };
        let r = self.store.insert(packet, trace);
        self.sources[src as usize].queue.push_back(r);
        self.source_backlog += 1;
        self.peak_source_backlog = self.peak_source_backlog.max(self.source_backlog);
        if let Some(sink) = self.events.as_mut() {
            sink.0.record(&SimEvent::Inject {
                cycle: self.now,
                id,
                src,
                dest,
                tracked,
            });
        }
        Ok(id)
    }

    /// Drain the event traces recorded so far (ordered by packet id).
    /// Tracing is enabled by setting [`SimConfig::trace_packets`].
    pub fn take_traces(&mut self) -> Vec<PacketTrace> {
        // Live packets must not keep indices into the drained table.
        self.store.clear_traces();
        let mut traces = std::mem::take(&mut self.traces);
        traces.sort_by_key(|t| t.id);
        traces
    }

    /// Advance one clock cycle.
    pub fn step(&mut self) {
        if let Some(faults) = self.faults.as_deref_mut() {
            let activated = faults.apply(self.now);
            if !activated.is_empty() {
                if let Some(sink) = self.events.as_mut() {
                    // FaultEvent is Copy; detach from the fault-state borrow.
                    let batch: Vec<FaultEvent> = faults.events()[activated].to_vec();
                    for event in batch {
                        sink.0.record(&SimEvent::FaultActivate {
                            cycle: self.now,
                            target: event.target,
                            permanent: event.duration.is_none(),
                        });
                    }
                }
            }
        }
        let vacated = self.vacate_phase();
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

    /// The shared run loop. Returns `true` iff the stop predicate fired
    /// (never when `should_stop` is `None`).
    fn run_core(&mut self, mut should_stop: Option<&mut dyn FnMut() -> bool>) -> bool {
        let measure_end = self.config.warmup_cycles + self.config.measure_cycles;
        let hard_end = measure_end + self.config.drain_cycles;
        while self.now < hard_end {
            // A fired watchdog means no forward progress is possible (or
            // worth waiting for); stop with the diagnostic instead of
            // spinning out the remaining drain budget.
            if self.stall.is_some() {
                break;
            }
            if self.now >= measure_end && self.pending_tracked == 0 {
                break;
            }
            // With no workload there is nothing left to simulate once the
            // network has fully drained.
            if self.live_packets == 0 && self.config.workload.load <= 0.0 {
                break;
            }
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
        if let Some(sink) = self.events.as_mut() {
            sink.0.flush();
        }
        let telemetry = self.telem.take().map(|t| t.into_report());
        SimResult {
            ports: self.topology.ports(),
            stages: self.topology.stages(),
            cycles_run: self.now,
            injected_total: self.injected_total,
            delivered_total: self.delivered_total,
            tracked_injected: self.tracked_injected,
            tracked_delivered: self.tracked_delivered,
            tracked_lost: self.pending_tracked,
            delivered_in_window: self.delivered_in_window,
            total_latency: LatencyStats::from_samples(self.latencies_total),
            network_latency: LatencyStats::from_samples(self.latencies_net),
            throughput: self.delivered_in_window as f64
                / (f64::from(self.topology.ports()) * self.config.measure_cycles as f64),
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
                .map_or(0, |f| f.unreachable_pairs(&self.topology)),
            stall: self.stall,
            telemetry,
        }
    }

    /// Total packets buffered (or reserved) in each stage's inputs, from
    /// the maintained occupancy counts.
    fn stage_occupancy(&self) -> Vec<u64> {
        (0..self.stage_count)
            .map(|s| self.exec.stage_occ(s).iter().map(|&c| u64::from(c)).sum())
            .collect()
    }

    /// Free drained buffer slots across every stage (chunked over the
    /// shard plan), taking them off the occupancy counts the grant
    /// phase's back-pressure checks read; returns the freed count (the
    /// profiler's per-cycle "advance" op tally).
    fn vacate_phase(&mut self) -> u64 {
        let now = self.now;
        let Self { stages, exec, .. } = self;
        let ExecState {
            pool,
            chunks,
            freed,
            occ,
            meta,
            perturb,
            ..
        } = exec;
        let (perm, yield_bits) = schedule(pool.as_ref(), perturb, chunks.len());
        let mut jobs = Vec::with_capacity(chunks.len());
        {
            // Slice each stage's flat tables into the plan's disjoint
            // chunks (chunks are stage-major, so one pass suffices).
            let mut occ_rest: &mut [u32] = occ;
            let mut freed_rest: &mut [u64] = freed;
            let mut ci = 0;
            for (s, stage) in stages.iter_mut().enumerate() {
                let radix = meta[s].radix as usize;
                let mut in_rest = stage.inputs();
                while ci < chunks.len() && chunks[ci].stage == s {
                    let ports = chunks[ci].modules * radix;
                    let (inputs, in_next) = in_rest.split_at(ports);
                    in_rest = in_next;
                    let (occ_chunk, occ_next) = std::mem::take(&mut occ_rest).split_at_mut(ports);
                    occ_rest = occ_next;
                    let (freed_chunk, freed_next) = std::mem::take(&mut freed_rest).split_at_mut(1);
                    freed_rest = freed_next;
                    jobs.push(VacateJob {
                        now,
                        inputs,
                        occ: occ_chunk,
                        freed: &mut freed_chunk[0],
                    });
                    ci += 1;
                }
            }
        }
        run_jobs(pool.as_ref(), perm, yield_bits, jobs, &vacate_chunk);
        freed.iter().sum()
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
                let module_occ = self.exec.stage_occ(s).chunks(stage.radix as usize);
                for (m, occ) in module_occ.enumerate() {
                    telem.heat_occupancy(s, m, occ.iter().map(|&c| u64::from(c)).sum());
                }
            }
        }
    }

    fn workload_inject(&mut self) {
        if self.config.workload.load <= 0.0 {
            return;
        }
        let ports = self.topology.ports();
        for src in 0..ports {
            // Draw injection and destination through a single RNG stream so
            // runs are reproducible from the seed alone.
            if self.config.workload.should_inject(&mut self.rng) {
                let dest = self.config.workload.destination(src, ports, &mut self.rng);
                self.inject(src, dest);
            }
        }
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
            self.sources[src as usize].queue.push_back(entry.packet);
            self.source_backlog += 1;
            self.peak_source_backlog = self.peak_source_backlog.max(self.source_backlog);
            self.last_progress = now;
        }
    }

    fn source_grants(&mut self) {
        let now = self.now;
        let flits = self.flits;
        let capacity = self.config.buffer_capacity;
        let ports = self.topology.ports();
        let mut drops = std::mem::take(&mut self.scratch_drops);
        {
            let Self {
                stages,
                sources,
                store,
                entry,
                traces,
                events,
                faults,
                exec,
                source_backlog,
                last_progress,
                ..
            } = self;
            let faults = faults.as_deref();
            let entry0: &[u32] = &entry[0];
            let mut stage0 = stages[0].inputs();
            // Stage 0's counts start at `occ[0]`.
            let occ0 = &mut exec.occ;
            for line in 0..ports {
                match faults.map_or(Health::Up, |f| f.source_health(line, now)) {
                    Health::Up => {}
                    // A transiently failed source just pauses; its queue keeps.
                    Health::TransientDown => continue,
                    // A permanently dead source can never send again: its whole
                    // queue is lost, with no retry (there is nothing to retry
                    // from).
                    Health::PermanentDown => {
                        let source = &mut sources[line as usize];
                        while let Some(r) = source.queue.pop_front() {
                            *source_backlog -= 1;
                            drops.push(r);
                        }
                        continue;
                    }
                }
                let source = &mut sources[line as usize];
                if source.queue.is_empty() || source.busy_until > now {
                    continue;
                }
                let port = entry0[line as usize] as usize;
                if !stage0.has_space(port, capacity) {
                    continue;
                }
                let Some(r) = source.queue.pop_front() else {
                    continue;
                };
                *source_backlog -= 1;
                source.busy_until = now + flits;
                let packet = store.get_mut(r);
                packet.entered_at = Some(now);
                let packet_id = packet.id;
                let trace = store.trace_of(r);
                if trace != NO_TRACE {
                    traces[trace as usize].entered_at = Some(now);
                }
                stage0.push(port, r, now);
                occ0[port] += 1;
                *last_progress = now;
                if let Some(sink) = events.as_mut() {
                    sink.0.record(&SimEvent::Enter {
                        cycle: now,
                        id: packet_id,
                        src: line,
                    });
                }
            }
        }
        for r in drops.drain(..) {
            self.finalize_drop(r);
        }
        self.scratch_drops = drops;
    }

    /// The grant phase: dispatch every stage's module chunks (in
    /// parallel when a pool exists), then merge their deferred effects in
    /// canonical chunk order. All stages' chunks run in one broadcast —
    /// back-pressure reads the vacate phase's occupancy snapshot, so no
    /// chunk observes another's same-cycle writes (see [`crate::shard`]).
    fn grant_phase(&mut self) {
        self.dispatch_grants();
        self.merge_grants();
    }

    /// Run [`grant_chunk`] over the shard plan, filling each chunk's
    /// [`ShardEffects`].
    fn dispatch_grants(&mut self) {
        let now = self.now;
        let flits = self.flits;
        let capacity = self.config.buffer_capacity;
        let arbitration = self.config.arbitration;
        let stage_count = self.stage_count;
        let record_events = self.events.is_some();
        let record_waits = self.telem.is_some();
        let record_heat = self.telem.as_deref().is_some_and(TelemetryState::profiling);
        let Self {
            stages,
            exec,
            store,
            routes,
            entry,
            faults,
            ..
        } = self;
        let ExecState {
            pool,
            chunks,
            effects,
            scratch,
            occ,
            occ_base,
            meta,
            perturb,
            ..
        } = exec;
        let (perm, yield_bits) = schedule(pool.as_ref(), perturb, chunks.len());
        let shared = GrantShared {
            now,
            flits,
            capacity,
            arbitration,
            stage_count,
            store,
            routes,
            entry,
            faults: faults.as_deref(),
            meta,
            occ,
            occ_base,
            record_events,
            record_waits,
            record_heat,
        };
        let mut jobs = Vec::with_capacity(chunks.len());
        {
            let mut fx_rest: &mut [ShardEffects] = effects;
            let mut sc_rest: &mut [ShardScratch] = scratch;
            let mut ci = 0;
            for (s, stage) in stages.iter_mut().enumerate() {
                let radix = meta[s].radix as usize;
                let (mut in_rest, mut out_rest) = stage.split();
                while ci < chunks.len() && chunks[ci].stage == s {
                    let desc = chunks[ci];
                    let ports = desc.modules * radix;
                    let (inputs, in_next) = in_rest.split_at(ports);
                    in_rest = in_next;
                    let (outputs, out_next) = std::mem::take(&mut out_rest).split_at_mut(ports);
                    out_rest = out_next;
                    let (fx, fx_next) = std::mem::take(&mut fx_rest).split_at_mut(1);
                    fx_rest = fx_next;
                    let (sc, sc_next) = std::mem::take(&mut sc_rest).split_at_mut(1);
                    sc_rest = sc_next;
                    let fx = &mut fx[0];
                    fx.clear();
                    jobs.push(GrantJob {
                        desc,
                        inputs,
                        outputs,
                        scratch: &mut sc[0],
                        fx,
                    });
                    ci += 1;
                }
            }
        }
        run_jobs(pool.as_ref(), perm, yield_bits, jobs, &|job| {
            grant_chunk(&shared, job);
        });
    }

    /// Apply the grant chunks' deferred effects serially, stage by stage
    /// in chunk (= module) order — the canonical merge that makes thread
    /// count and chunking unobservable. Reproduces the serial sweep's
    /// exact event interleaving: a stage's grant events, then its
    /// retry/drop events, then the next stage's.
    fn merge_grants(&mut self) {
        let now = self.now;
        let mut effects = std::mem::take(&mut self.exec.effects);
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        let mut drops = std::mem::take(&mut self.scratch_drops);
        let mut ci = 0;
        for s in 0..self.stage_count {
            while ci < effects.len() && self.exec.chunks[ci].stage == s {
                let fx = &mut effects[ci];
                add_counters(&mut self.stage_counters[s], &fx.counters);
                if fx.progressed {
                    self.last_progress = now;
                }
                if let Some(sink) = self.events.as_mut() {
                    for event in &fx.events {
                        sink.0.record(event);
                    }
                }
                for (trace, hop) in fx.hops.drain(..) {
                    self.traces[trace as usize].hops.push(hop);
                }
                if let Some(telem) = self.telem.as_deref_mut() {
                    for &waited in &fx.stage_waits {
                        telem.record_stage_wait(s, waited);
                    }
                    for &module in &fx.heat_grants {
                        telem.heat_grant(s, module as usize);
                    }
                }
                // Deferred downstream insertions: each port gets at most
                // one push per cycle (its upstream line is unique), so
                // applying them here is behavior-identical to the serial
                // sweep's in-place pushes.
                if !fx.pushes.is_empty() {
                    let mut next = self.stages[s + 1].inputs();
                    let next_occ = self.exec.occ_base[s + 1];
                    for (port, r, head_arrival) in fx.pushes.drain(..) {
                        next.push(port as usize, r, head_arrival);
                        self.exec.occ[next_occ + port as usize] += 1;
                    }
                }
                deliveries.extend_from_slice(&fx.deliveries);
                let occ_base = self.exec.occ_base[s];
                for &(port, r) in &fx.drops {
                    self.exec.occ[occ_base + port as usize] -= 1;
                    drops.push(r);
                }
                ci += 1;
            }
            for (r, out_line, delivered_at) in deliveries.drain(..) {
                self.deliver(r, out_line, delivered_at);
            }
            for r in drops.drain(..) {
                self.drop_packet(r);
            }
        }
        self.scratch_deliveries = deliveries;
        self.scratch_drops = drops;
        self.exec.effects = effects;
    }

    fn deliver(&mut self, r: PacketRef, out_line: u32, delivered_at: u64) {
        let trace = self.store.trace_of(r);
        let packet = self.store.remove(r);
        assert_eq!(
            out_line, packet.dest,
            "packet {} misrouted: reached line {out_line}, wanted {}",
            packet.id, packet.dest
        );
        self.delivered_total += 1;
        self.live_packets -= 1;
        if trace != NO_TRACE {
            self.traces[trace as usize].delivered_at = Some(delivered_at);
        }
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
            self.latencies_total.push(delivered_at - packet.injected_at);
            // A delivered packet always entered the network; fall back to
            // the injection cycle rather than trusting that invariant with
            // a panic.
            let entered = packet.entered_at.unwrap_or(packet.injected_at);
            self.latencies_net.push(delivered_at - entered);
            if let Some(telem) = self.telem.as_deref_mut() {
                telem.record_latency(delivered_at - packet.injected_at, delivered_at - entered);
            }
        }
        if let Some(sink) = self.events.as_mut() {
            sink.0.record(&SimEvent::Deliver {
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
                sink.0.record(&SimEvent::Retry {
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
        let trace = self.store.trace_of(r);
        let packet = self.store.remove(r);
        self.dropped_total += 1;
        self.live_packets -= 1;
        self.last_progress = self.now;
        if packet.tracked {
            self.tracked_dropped += 1;
            self.pending_tracked -= 1;
        }
        if trace != NO_TRACE {
            self.traces[trace as usize].dropped_at = Some(self.now);
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
            sink.0.record(&SimEvent::Drop {
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
            sink.0.record(&SimEvent::Stall {
                cycle: self.now,
                live_packets: self.live_packets,
            });
        }
    }

    /// The conservation invariant, checked every cycle in debug builds:
    /// every packet ever injected is delivered, finally dropped, or still
    /// live — for the full population and the tracked subset — the
    /// source-backlog counter matches the queues it summarizes, every
    /// input occupancy count matches its queue's length, and the packet
    /// arena holds exactly the live packets.
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
        for (s, stage) in self.stages.iter().enumerate() {
            for (port, (len, &count)) in stage.queue_lens().zip(self.exec.stage_occ(s)).enumerate()
            {
                debug_assert_eq!(
                    len, count as usize,
                    "occupancy count drifted at stage {s} port {port}, cycle {}",
                    self.now
                );
            }
        }
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
        use icn_topology::Topology;
        let plan = StagePlan::uniform(4, 3);
        let mut config = quiet_config(plan.clone(), ChipModel::Dmc, 4);
        config.trace_packets = 4;
        let head_latency = config.stage_head_latency(4);
        let flits = config.flits_per_packet();
        let mut engine = Engine::new(config);
        engine.inject(11, 50);
        let mut engine = {
            // Run to completion but keep the engine to read traces.
            for _ in 0..10_000 {
                engine.step();
                if engine.pending_tracked() == 0 {
                    break;
                }
            }
            engine
        };
        let traces = engine.take_traces();
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

    /// The trace budget caps how many packets are recorded.
    #[test]
    fn trace_budget_is_respected() {
        let plan = StagePlan::uniform(4, 2);
        let mut config = quiet_config(plan, ChipModel::Mcc, 4);
        config.trace_packets = 2;
        let mut engine = Engine::new(config);
        for src in 0..8 {
            engine.inject(src, (src + 1) % 16);
        }
        for _ in 0..5_000 {
            engine.step();
            if engine.pending_tracked() == 0 {
                break;
            }
        }
        assert_eq!(engine.take_traces().len(), 2);
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
