//! Module-sharded execution of the engine's per-cycle phases.
//!
//! Within one cycle, the modules of a stage are independent: each packet
//! sits in exactly one module's input buffer, every output line feeds a
//! *unique* downstream input port (the entry tables are injective), and
//! routing is a pure function of the destination. The engine exploits
//! this by splitting the vacate and grant phases over contiguous
//! *module chunks* of the flat stage tables and running the chunks on a
//! [`WorkerPool`] with a per-cycle barrier between phases.
//!
//! # The determinism argument
//!
//! Parallel execution is byte-identical to serial because no shard ever
//! observes another shard's same-cycle writes, and everything a shard
//! produces is merged in **chunk index order** (= module index order),
//! never thread completion order:
//!
//! * **Reads are pre-phase state.** Back-pressure reads the occupancy
//!   counts ([`ExecState::occ`]), which change only before the grant
//!   barrier (vacate chunks subtract what they free; source grants add to
//!   stage 0, which no grant reads) or at the merge (downstream pushes
//!   add, fault drops subtract). During the grant phase they therefore
//!   hold post-vacate occupancy — exactly what the serial sweep
//!   observed, because within one grant pass the only writer to a
//!   downstream port is its unique upstream line, which reads the port
//!   before pushing. The packet arena, route/entry tables, and fault
//!   health are read-only during the grant phase.
//! * **Writes are chunk-local or deferred.** A chunk mutates only its own
//!   slice of input/output ports, and the due-time arrays (`ready_at`,
//!   `vacate_at`; see [`crate::module`]) are split into the same chunks,
//!   so refreshing them is a chunk-local write too. Everything with a
//!   global ordering — events, trace hops, downstream pushes,
//!   deliveries, fault drops (and their occupancy decrements), stage
//!   counters, telemetry — is buffered in the chunk's [`ShardEffects`]
//!   and applied serially at the barrier, stage by stage in chunk order,
//!   reproducing the serial sweep's exact order.
//!
//! Chunk boundaries therefore cannot be observed either: any
//! `chunk_modules` (and any thread count, including the serial
//! single-chunk path, which runs this same code) yields identical bytes.
//! The parity matrix in `tests/parity.rs` and the property suite pin
//! this.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::config::Arbitration;
use crate::fault::{FaultState, Health};
use crate::metrics::StageCounters;
use crate::module::{InputPorts, OutputPort};
use crate::options::EngineOptions;
use crate::pool::WorkerPool;
use crate::store::{PacketRef, PacketStore, NO_TRACE};
use crate::telemetry::SimEvent;
use crate::trace::HopTrace;

/// Sentinel for "this input has no ready head" in the grant scratch.
pub(crate) const NO_TAG: u32 = u32::MAX;

/// With automatic chunking, aim for this many chunks per thread per
/// stage, so dynamic claiming can balance uneven module work.
const AUTO_CHUNKS_PER_THREAD: usize = 4;

/// One contiguous run of modules within a stage — the unit of dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkDesc {
    /// Stage index.
    pub stage: usize,
    /// First (global) module index of the chunk.
    pub module_base: usize,
    /// Modules in the chunk.
    pub modules: usize,
}

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

/// Reusable per-chunk arbitration scratch (the per-module ready set).
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    /// `ready[in_port]` = requested output tag, or [`NO_TAG`].
    pub ready: Vec<u32>,
    /// `tag_count[out_port]` = ready heads requesting that output.
    pub tag_count: Vec<u32>,
}

/// Everything a grant chunk produces besides its chunk-local port
/// mutations, buffered for the barrier-side canonical merge. Buffers are
/// reused across cycles (cleared, never shrunk).
#[derive(Debug, Default)]
pub(crate) struct ShardEffects {
    /// Counter deltas for the chunk's stage.
    pub counters: StageCounters,
    /// The chunk made forward progress (granted an output).
    pub progressed: bool,
    /// Grant events, in (module, out_port) order.
    pub events: Vec<SimEvent>,
    /// Trace hops: `(trace table index, hop)`.
    pub hops: Vec<(u32, HopTrace)>,
    /// Pre-grant waiting cycles per granted head (stage-wait histogram).
    pub stage_waits: Vec<u64>,
    /// Granted module indices (hotspot heatmap), one per grant.
    pub heat_grants: Vec<u32>,
    /// Deferred downstream insertions: `(flat downstream port, packet,
    /// head arrival)`. Each port receives at most one push per cycle (its
    /// upstream line is unique), so apply order across ports is free.
    pub pushes: Vec<(u32, PacketRef, u64)>,
    /// Last-stage exits: `(packet, out line, delivered-at cycle)`.
    pub deliveries: Vec<(PacketRef, u32, u64)>,
    /// Packets dropped by permanent faults in this chunk, with the
    /// stage-flat input port each left (its occupancy count drops at the
    /// merge, so back-pressure reads stay post-vacate until then).
    pub drops: Vec<(u32, PacketRef)>,
}

impl ShardEffects {
    /// Reset for the next cycle, keeping capacity.
    pub fn clear(&mut self) {
        self.counters = StageCounters::default();
        self.progressed = false;
        self.events.clear();
        self.hops.clear();
        self.stage_waits.clear();
        self.heat_grants.clear();
        self.pushes.clear();
        self.deliveries.clear();
        self.drops.clear();
    }
}

/// Accumulate one chunk's counter deltas (merge step).
pub(crate) fn add_counters(into: &mut StageCounters, delta: &StageCounters) {
    into.grants += delta.grants;
    into.blocked_output_busy += delta.blocked_output_busy;
    into.blocked_downstream_full += delta.blocked_downstream_full;
    into.blocked_fault += delta.blocked_fault;
    into.dropped += delta.dropped;
}

/// Test-only schedule perturbation (see
/// [`EngineOptions::perturb_seed`]): a private RNG stream — never the
/// simulation's — that reshuffles chunk dispatch order and picks yield
/// points every cycle. Results must not change; the stress suite runs
/// the parity fixtures under it to prove that.
#[derive(Debug)]
pub(crate) struct PerturbState {
    rng: ChaCha12Rng,
    /// This cycle's dispatch permutation (claim slot → chunk index).
    pub perm: Vec<u32>,
}

impl PerturbState {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha12Rng::seed_from_u64(seed),
            perm: Vec::new(),
        }
    }

    /// Draw the next broadcast's schedule: refill the permutation
    /// (Fisher–Yates over `chunks`) and return a yield bitmask (claim
    /// slot `i` yields before working iff bit `i % 64` is set).
    pub fn next_schedule(&mut self, chunks: usize) -> u64 {
        self.perm.clear();
        self.perm.extend(0..chunks as u32);
        for i in (1..chunks).rev() {
            let j = self.rng.random_range(0..=i);
            self.perm.swap(i, j);
        }
        self.rng.next_u64()
    }
}

/// The engine's sharded-execution state: the pool, the static chunk
/// plan, and every reusable per-chunk buffer.
#[derive(Debug)]
pub(crate) struct ExecState {
    /// Pool of `threads - 1` workers (`None` when serial — the caller is
    /// always shard `threads - 1` itself).
    pub pool: Option<WorkerPool>,
    /// Resolved shard count (pool workers + caller).
    pub threads: usize,
    /// Static chunk plan, stage-major (all of stage 0's chunks, then
    /// stage 1's, …).
    pub chunks: Vec<ChunkDesc>,
    /// Per-chunk deferred effects, indexed like `chunks`.
    pub effects: Vec<ShardEffects>,
    /// Per-chunk arbitration scratch, indexed like `chunks`.
    pub scratch: Vec<ShardScratch>,
    /// Per-chunk freed-slot counts from the vacate phase.
    pub freed: Vec<u64>,
    /// Input occupancy, flat: `occ[occ_base[stage] + port]`. Kept equal
    /// to each queue's length as ports change: a push adds one (source
    /// grants, merge), the vacate phase subtracts what it frees, and the
    /// merge subtracts fault drops. During the grant phase it therefore
    /// holds post-vacate occupancy, which back-pressure reads.
    pub occ: Vec<u32>,
    /// Per-stage offsets into `occ`.
    pub occ_base: Vec<usize>,
    /// Per-stage constants.
    pub meta: Vec<StageMeta>,
    /// Test-only schedule perturbation, when enabled.
    pub perturb: Option<PerturbState>,
}

impl ExecState {
    /// Plan chunks and allocate every per-chunk buffer for the given
    /// stage shape.
    pub fn build(options: &EngineOptions, meta: Vec<StageMeta>) -> Self {
        let threads = options.resolved_threads().max(1);
        let max_radix = meta.iter().map(|m| m.radix as usize).max().unwrap_or(0);
        let mut chunks = Vec::new();
        let mut occ_base = Vec::with_capacity(meta.len());
        let mut ports_total = 0usize;
        for (stage, m) in meta.iter().enumerate() {
            occ_base.push(ports_total);
            ports_total += (m.modules * m.radix) as usize;
            let modules = m.modules as usize;
            let chunk = match options.chunk_modules {
                0 if threads <= 1 => modules.max(1),
                0 => modules.div_ceil(threads * AUTO_CHUNKS_PER_THREAD).max(1),
                n => n,
            };
            let mut base = 0;
            while base < modules {
                let span = chunk.min(modules - base);
                chunks.push(ChunkDesc {
                    stage,
                    module_base: base,
                    modules: span,
                });
                base += span;
            }
        }
        let effects = (0..chunks.len()).map(|_| ShardEffects::default()).collect();
        let scratch = (0..chunks.len())
            .map(|_| ShardScratch {
                ready: vec![NO_TAG; max_radix],
                tag_count: vec![0; max_radix],
            })
            .collect();
        let freed = vec![0u64; chunks.len()];
        let pool = (threads > 1).then(|| WorkerPool::new(threads - 1));
        debug_assert_eq!(pool.as_ref().map_or(0, WorkerPool::workers) + 1, threads);
        let perturb = options.perturb_seed.map(PerturbState::new);
        Self {
            pool,
            threads,
            chunks,
            effects,
            scratch,
            freed,
            occ: vec![0; ports_total],
            occ_base,
            meta,
            perturb,
        }
    }

    /// Stage `stage`'s input occupancy counts, in port order.
    pub fn stage_occ(&self, stage: usize) -> &[u32] {
        let m = &self.meta[stage];
        let base = self.occ_base[stage];
        &self.occ[base..base + (m.modules * m.radix) as usize]
    }
}

/// Draw this broadcast's dispatch schedule: the perturbation permutation
/// and yield mask when both a pool and a [`PerturbState`] exist, the
/// identity (in-order) schedule otherwise. Serial runs never consume the
/// perturbation RNG, so a perturbed parallel run and an unperturbed one
/// are both compared against the same serial baseline.
pub(crate) fn schedule<'a>(
    pool: Option<&WorkerPool>,
    perturb: &'a mut Option<PerturbState>,
    chunks: usize,
) -> (Option<&'a [u32]>, u64) {
    match (pool, perturb.as_mut()) {
        (Some(_), Some(p)) => {
            let yields = p.next_schedule(chunks);
            (Some(p.perm.as_slice()), yields)
        }
        _ => (None, 0),
    }
}

/// One vacate-phase job: free drained slots in the chunk's input ports
/// and take them off the chunk's occupancy counts, which the grant
/// phase's back-pressure reads.
pub(crate) struct VacateJob<'a> {
    pub now: u64,
    pub inputs: InputPorts<'a>,
    pub occ: &'a mut [u32],
    pub freed: &'a mut u64,
}

/// Run one vacate chunk: scan the `vacate_at` array and touch only the
/// queues whose granted front leaves by now.
pub(crate) fn vacate_chunk(job: &mut VacateJob<'_>) {
    let now = job.now;
    let mut freed = 0;
    let mut scan = 0;
    while let Some(offset) = job.inputs.vacate_at()[scan..]
        .iter()
        .position(|&t| t <= now)
    {
        let p = scan + offset;
        let n = job.inputs.vacate(p, now);
        job.occ[p] -= n as u32;
        freed += n;
        scan = p + 1;
    }
    *job.freed = freed;
}

/// Read-only state shared by every grant chunk of one cycle.
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
    pub occ: &'a [u32],
    pub occ_base: &'a [usize],
    /// An event sink is attached: buffer grant events.
    pub record_events: bool,
    /// Telemetry is on: buffer stage waits.
    pub record_waits: bool,
    /// The profiler is on: buffer heatmap grants.
    pub record_heat: bool,
}

/// One grant-phase job: the chunk's disjoint port slices plus its
/// scratch and effects buffers.
pub(crate) struct GrantJob<'a> {
    pub desc: ChunkDesc,
    /// The chunk's input ports (local index 0 = the chunk's first port).
    pub inputs: InputPorts<'a>,
    /// The chunk's output ports, same layout.
    pub outputs: &'a mut [OutputPort],
    pub scratch: &'a mut ShardScratch,
    pub fx: &'a mut ShardEffects,
}

/// Arbitrate and grant every free output of one module chunk — the exact
/// serial sweep over `module_base .. module_base + modules`, with every
/// globally-ordered effect deferred into [`ShardEffects`] (see the module
/// docs for why that is behavior-identical). Modules with no ready head
/// can grant, block or drop nothing, so the sweep jumps from one module
/// with a due `ready_at` entry to the next.
#[allow(clippy::too_many_lines)]
pub(crate) fn grant_chunk(shared: &GrantShared<'_>, job: &mut GrantJob<'_>) {
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
        occ_base,
        record_events,
        record_waits,
        record_heat,
    } = *shared;
    let stage_idx = job.desc.stage;
    let is_last = stage_idx + 1 == stage_count;
    let stage_meta = &meta[stage_idx];
    let radix = stage_meta.radix as usize;
    let radix_u = stage_meta.radix;
    let head_latency = stage_meta.head_latency;
    let next_entry: Option<&[u32]> = entry.get(stage_idx + 1).map(Vec::as_slice);
    let next_occ_base = occ_base.get(stage_idx + 1).copied().unwrap_or(0);
    let fx = &mut *job.fx;
    let counters = &mut fx.counters;
    let ready = &mut job.scratch.ready[..radix];
    let tag_count = &mut job.scratch.tag_count[..radix];
    // Routing is a pure function of the destination; `stage_idx`'s tag is
    // the destination's digit for this stage.
    let tag_of = |r: PacketRef| routes[store.get(r).dest as usize * stage_count + stage_idx];
    // Stage-flat index of the chunk's first port (fault drops carry it).
    let port_base = job.desc.module_base * radix;
    let inputs = &mut job.inputs;

    let mut scan = 0;
    while let Some(offset) = inputs.ready_at()[scan..].iter().position(|&t| t <= now) {
        let local_m = (scan + offset) / radix;
        scan = (local_m + 1) * radix;
        let module_idx = job.desc.module_base + local_m;
        let base = local_m * radix;
        let global_base = module_idx * radix;
        match faults.map_or(Health::Up, |f| {
            f.module_health(stage_idx as u32, module_idx as u32, now)
        }) {
            Health::Up => {}
            // A transiently failed module refuses all grants: ready heads
            // wait it out under ordinary back-pressure.
            Health::TransientDown => {
                for in_port in 0..radix {
                    if inputs.ready_head(base + in_port, now).is_some() {
                        counters.blocked_fault += 1;
                    }
                }
                continue;
            }
            // A permanently dead module severs the unique path of every
            // packet inside it: drain each input's ready heads as drops.
            // (Heads arriving later drop on the cycle they become ready.)
            Health::PermanentDown => {
                for p in base..base + radix {
                    while inputs.ready_head(p, now).is_some() {
                        let Some(dropped) = inputs.drop_front(p) else {
                            break;
                        };
                        fx.drops.push(((port_base + p) as u32, dropped));
                        counters.dropped += 1;
                    }
                }
                continue;
            }
        }

        // One pass over the inputs: each ready head's requested output.
        tag_count.fill(0);
        for (in_port, slot) in ready.iter_mut().enumerate() {
            *slot = match inputs.ready_head(base + in_port, now) {
                Some(r) => {
                    let tag = tag_of(r);
                    tag_count[tag as usize] += 1;
                    tag
                }
                None => NO_TAG,
            };
        }

        for out_port in 0..radix {
            // No ready head wants this output: nothing to grant, block,
            // or fault-drop here.
            if tag_count[out_port] == 0 {
                continue;
            }
            let out_port_u = out_port as u32;
            let out_line = (global_base + out_port) as u32;
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
                    // may be ready with any tag — recompute so later
                    // outputs see it this cycle (exactly as the serial
                    // sweep did).
                    for (in_port, slot) in ready.iter_mut().enumerate() {
                        let p = base + in_port;
                        while *slot == out_port_u {
                            let Some(dropped) = inputs.drop_front(p) else {
                                tag_count[out_port] -= 1;
                                *slot = NO_TAG;
                                break;
                            };
                            fx.drops.push(((port_base + p) as u32, dropped));
                            counters.dropped += 1;
                            tag_count[out_port] -= 1;
                            *slot = match inputs.ready_head(p, now) {
                                Some(r) => {
                                    let tag = tag_of(r);
                                    tag_count[tag as usize] += 1;
                                    tag
                                }
                                None => NO_TAG,
                            };
                        }
                    }
                    continue;
                }
            }
            let matching = tag_count[out_port];
            if !job.outputs[base + out_port].free(now) {
                // Every ready head wanting this output waits for it.
                counters.blocked_output_busy += u64::from(matching);
                continue;
            }

            // Back-pressure: the downstream buffer must accept a packet.
            // The occupancy snapshot is post-vacate state — exactly what
            // the serial sweep read, since a downstream port's only
            // same-cycle writer is this very line (see module docs).
            if let Some(next_entry) = next_entry {
                let downstream = next_entry[out_line as usize] as usize;
                if occ[next_occ_base + downstream] >= capacity {
                    counters.blocked_downstream_full += u64::from(matching);
                    continue;
                }
            }

            // Arbitrate among the ready heads requesting this output.
            let winner = match arbitration {
                Arbitration::FixedPriority => {
                    let Some(pos) = ready.iter().position(|&tag| tag == out_port_u) else {
                        debug_assert!(false, "matching > 0 but no ready head tagged");
                        continue;
                    };
                    pos as u32
                }
                Arbitration::RoundRobin => {
                    let rr = job.outputs[base + out_port].rr_next;
                    let mut winner = 0;
                    let mut best = u32::MAX;
                    for (in_port, &tag) in ready.iter().enumerate() {
                        if tag == out_port_u {
                            let key = (in_port as u32 + radix_u - rr) % radix_u;
                            if key < best {
                                best = key;
                                winner = in_port as u32;
                            }
                        }
                    }
                    winner
                }
            };
            {
                let output = &mut job.outputs[base + out_port];
                output.rr_next = (winner + 1) % radix_u;
                output.busy_until = now + head_latency + flits;
            }
            counters.grants += 1;
            fx.progressed = true;
            // Count the losers as output-busy blocked for this cycle.
            counters.blocked_output_busy += u64::from(matching - 1);

            let winner_port = base + winner as usize;
            if record_waits {
                // Cycles the winning head sat ready (arbitration loss,
                // busy output, or back-pressure) before this grant.
                fx.stage_waits.push(now - inputs.ready_at()[winner_port]);
            }
            if record_heat {
                fx.heat_grants.push(module_idx as u32);
            }
            let Some(r) = inputs.grant_front(winner_port, now + flits) else {
                debug_assert!(false, "arbitration winner has no front slot");
                continue;
            };
            ready[winner as usize] = NO_TAG;
            tag_count[out_port] -= 1;
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
            let trace = store.trace_of(r);
            if trace != NO_TRACE {
                fx.hops.push((
                    trace,
                    HopTrace {
                        stage: stage_idx as u32,
                        module: module_idx as u32,
                        in_port: winner,
                        out_port: out_port_u,
                        granted_at: now,
                        head_out_at: head_arrival,
                    },
                ));
            }
            match next_entry {
                Some(next_entry) if !is_last => {
                    fx.pushes
                        .push((next_entry[out_line as usize], r, head_arrival));
                }
                _ => {
                    debug_assert!(is_last);
                    fx.deliveries.push((r, out_line, head_arrival + flits));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(threads: usize, chunk: usize) -> EngineOptions {
        EngineOptions {
            threads,
            chunk_modules: chunk,
            perturb_seed: None,
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
        let exec = ExecState::build(&options(1, 0), meta(&[(4, 16), (4, 16), (2, 32)]));
        assert_eq!(exec.threads, 1);
        assert!(exec.pool.is_none());
        assert_eq!(exec.chunks.len(), 3);
        for (stage, chunk) in exec.chunks.iter().enumerate() {
            assert_eq!(chunk.stage, stage);
            assert_eq!(chunk.module_base, 0);
        }
        assert_eq!(exec.occ.len(), 64 + 64 + 64);
        assert_eq!(exec.occ_base, vec![0, 64, 128]);
    }

    #[test]
    fn chunk_plan_covers_every_module_exactly_once() {
        for threads in [1, 2, 4, 8] {
            for chunk_modules in [0, 1, 3, 7, 100] {
                let exec = ExecState::build(
                    &options(threads, chunk_modules),
                    meta(&[(4, 16), (2, 32), (8, 5)]),
                );
                let mut seen = vec![0u32; 3 * 32];
                for c in &exec.chunks {
                    assert!(c.modules > 0);
                    for m in c.module_base..c.module_base + c.modules {
                        seen[c.stage * 32 + m] += 1;
                    }
                }
                let expected: Vec<u32> = (0..3usize)
                    .flat_map(|s| {
                        let modules = [16usize, 32, 5][s];
                        (0..32).map(move |m| u32::from(m < modules))
                    })
                    .collect();
                assert_eq!(seen, expected, "threads={threads} chunk={chunk_modules}");
                // Stage-major order, contiguous within each stage.
                for pair in exec.chunks.windows(2) {
                    assert!(pair[1].stage >= pair[0].stage);
                    if pair[1].stage == pair[0].stage {
                        assert_eq!(pair[1].module_base, pair[0].module_base + pair[0].modules);
                    }
                }
            }
        }
    }

    #[test]
    fn perturb_permutation_is_a_permutation() {
        let mut p = PerturbState::new(42);
        for n in [1usize, 2, 7, 33] {
            let _yields = p.next_schedule(n);
            let mut sorted = p.perm.clone();
            sorted.sort_unstable();
            let expected: Vec<u32> = (0..n as u32).collect();
            assert_eq!(sorted, expected);
        }
    }
}
