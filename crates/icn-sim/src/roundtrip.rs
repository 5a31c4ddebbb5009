//! Closed-loop remote-memory round trips: request network → memory →
//! reply network.
//!
//! The paper's conclusion is about a *round trip*: "A read operation from
//! memory requiring a round trip would thus require more than 2 µseconds."
//! §4 composes that analytically (2 × one-way + memory access). This module
//! simulates it: processors inject read requests through a forward network;
//! each delivery starts a memory access; when the access completes, a reply
//! packet is injected into a statistically identical reverse network back
//! to the requesting processor. Both networks run in lock step on the same
//! clock, so contention on the reply path is modelled, not assumed away.
//!
//! The memory system is one module per network output with a configurable
//! service interval (0 = fully pipelined; `k` = one new access per `k`
//! cycles, queueing requests in arrival order).

use std::collections::BTreeMap;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::metrics::{LatencyCounts, LatencyStats, SimResult};
use crate::telemetry::Histogram;

/// Configuration of a round-trip simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTripConfig {
    /// Network configuration; the workload drives *request* injection, and
    /// an identical (reversed-role) network carries replies. Any fault
    /// plan applies to *both* networks (symmetric degradation: the paper's
    /// request and reply networks are physically identical twins).
    pub net: SimConfig,
    /// Memory access latency in clock cycles (§6's 200 ns is about 6–7
    /// cycles at 32 MHz).
    pub memory_cycles: u64,
    /// Minimum cycles between successive access *starts* at one memory
    /// module (0 = fully pipelined).
    pub memory_service_cycles: u64,
}

impl RoundTripConfig {
    /// Unloaded analytic round trip in cycles: two network traversals plus
    /// the memory access (the simulated analogue of §4's
    /// `2·T + t_mem`).
    #[must_use]
    pub fn analytic_unloaded_cycles(&self) -> u64 {
        2 * self.net.analytic_unloaded_cycles() + self.memory_cycles
    }
}

/// The result of a round-trip simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTripResult {
    /// Requests generated in the measurement window.
    pub tracked_requests: u64,
    /// Round trips completed for tracked requests.
    pub tracked_completed: u64,
    /// Tracked round trips that can never complete: the request or the
    /// reply was finally dropped by a fault. The closed-loop driver stops
    /// waiting for these (a dropped request must not wedge the drain).
    #[serde(default)]
    pub tracked_failed: u64,
    /// Request-injection → reply-delivery latency (cycles).
    pub round_trip_latency: LatencyStats,
    /// Log-bucketed round-trip latency distribution, collected when the
    /// network config enables telemetry (`None` otherwise). Quantiles
    /// beyond [`LatencyStats`]' fixed set come from here.
    #[serde(default)]
    pub round_trip_histogram: Option<Histogram>,
    /// Unloaded analytic round trip (cycles) for comparison.
    pub analytic_unloaded_cycles: u64,
    /// Forward (request) network statistics.
    pub forward: SimResult,
    /// Reverse (reply) network statistics.
    pub reverse: SimResult,
}

impl RoundTripResult {
    /// Mean round trip normalized by the unloaded analytic value.
    #[must_use]
    pub fn expansion(&self) -> f64 {
        self.round_trip_latency.mean / self.analytic_unloaded_cycles as f64
    }
}

/// One memory module: a service queue in front of a fixed-latency array.
#[derive(Debug, Default)]
struct MemoryModule {
    queue: VecDeque<PendingAccess>,
    next_start: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingAccess {
    /// The memory module serving the access (the request's destination and
    /// the reply's source).
    memory_port: u32,
    /// The processor awaiting the reply (the request's source).
    reply_dest: u32,
    request_injected_at: u64,
    tracked: bool,
}

/// Run a closed-loop round-trip simulation.
///
/// # Examples
/// ```
/// use icn_sim::{ChipModel, RoundTripConfig, SimConfig};
/// use icn_topology::StagePlan;
/// use icn_workloads::Workload;
///
/// let mut net = SimConfig::paper_baseline(
///     StagePlan::uniform(4, 2),
///     ChipModel::Dmc,
///     4,
///     Workload::uniform(0.002),
/// );
/// net.warmup_cycles = 100;
/// net.measure_cycles = 1_000;
/// let config = RoundTripConfig { net, memory_cycles: 7, memory_service_cycles: 0 };
/// let floor = config.analytic_unloaded_cycles(); // 2 × one-way + memory
/// let result = icn_sim::run_roundtrip(config);
/// assert!(result.round_trip_latency.min >= floor);
/// ```
///
/// # Panics
/// Panics if the configuration is invalid.
#[must_use]
#[expect(
    clippy::panic,
    reason = "documented panicking wrapper over SimConfig::validate's typed error"
)]
pub fn run_roundtrip(config: RoundTripConfig) -> RoundTripResult {
    if let Err(e) = config.net.validate() {
        panic!("invalid round-trip configuration: {e}");
    }
    let ports = config.net.plan.ports();

    let mut fwd = Engine::new(config.net.clone());
    let mut rev_config = config.net.clone();
    rev_config.workload.load = 0.0; // replies only
    let mut rev = Engine::new(rev_config);
    fwd.collect_deliveries(true);
    rev.collect_deliveries(true);

    let mut memories: Vec<MemoryModule> = (0..ports).map(|_| MemoryModule::default()).collect();
    // Deliveries are reported by the engine at grant time with a future
    // tail-arrival timestamp; requests reach memory only at that timestamp.
    // The last stage's latency is constant, so this queue stays
    // time-ordered.
    let mut arriving: VecDeque<(u64, PendingAccess)> = VecDeque::new();
    // In-flight memory accesses: (completion_cycle ordered queue).
    let mut in_flight: VecDeque<(u64, PendingAccess)> = VecDeque::new();
    // Reply packet id → request injection time.
    let mut reply_meta: BTreeMap<u64, (u64, bool)> = BTreeMap::new();

    let mut round_trips = LatencyCounts::default();
    let mut tracked_requests = 0u64;
    let mut tracked_completed = 0u64;
    let mut tracked_failed = 0u64;
    let mut outstanding_tracked = 0u64;

    let measure_end = config.net.warmup_cycles + config.net.measure_cycles;
    let hard_end = measure_end + config.net.drain_cycles;

    let mut now = 0u64;
    while now < hard_end {
        // Done once the window has closed, no tracked request is still in
        // the forward network (fwd.pending_tracked), and none is in the
        // memory/reply phase (outstanding_tracked, which decrements at
        // reply delivery).
        if now >= measure_end && outstanding_tracked == 0 && fwd.pending_tracked() == 0 {
            break;
        }
        if now == measure_end {
            // Stop offering new requests so the tracked population drains.
            fwd.stop_injection();
        }
        // If either network's watchdog fired, no forward progress is
        // coming: stop with whatever completed (the stall reports ride
        // along in the per-network results).
        if fwd.stall().is_some() || rev.stall().is_some() {
            break;
        }
        // 1. Advance the request network one cycle.
        fwd.step();
        // 2a. A finally dropped request can never produce a reply; count
        //     the round trip as failed rather than waiting forever. (The
        //     engine already removed it from its pending-tracked set.)
        for d in fwd.take_drops() {
            if d.tracked {
                tracked_failed += 1;
            }
        }
        // 2b. Collect deliveries (timestamped with their tail arrival).
        for d in fwd.take_deliveries() {
            if d.tracked {
                tracked_requests += 1;
                outstanding_tracked += 1;
            }
            arriving.push_back((
                d.delivered_at,
                PendingAccess {
                    memory_port: d.dest,
                    reply_dest: d.src,
                    request_injected_at: d.injected_at,
                    tracked: d.tracked,
                },
            ));
        }
        // 2c. Requests whose tails have arrived enter the service queues.
        while let Some(&(at, access)) = arriving.front() {
            if at > now {
                break;
            }
            arriving.pop_front();
            memories[access.memory_port as usize]
                .queue
                .push_back(access);
        }
        // 3. Memory modules start accesses respecting their service rate.
        //    (in_flight stays completion-ordered because memory_cycles is
        //    a constant.)
        for memory in &mut memories {
            if config.memory_service_cycles == 0 {
                // Fully pipelined: every queued request starts immediately.
                while let Some(access) = memory.queue.pop_front() {
                    in_flight.push_back((now + config.memory_cycles, access));
                }
            } else if memory.next_start <= now {
                if let Some(access) = memory.queue.pop_front() {
                    in_flight.push_back((now + config.memory_cycles, access));
                    memory.next_start = now + config.memory_service_cycles;
                }
            }
        }
        // 4. Completed accesses inject replies into the reverse network
        //    (the memory-side port mirrors the request's destination).
        //    in_flight is time-ordered because memory_cycles is constant.
        while let Some(&(ready, access)) = in_flight.front() {
            if ready > now {
                break;
            }
            in_flight.pop_front();
            // The reply travels from the memory module back to the
            // requesting processor through the reverse network.
            let id = rev.inject_tracked(access.memory_port, access.reply_dest, access.tracked);
            reply_meta.insert(id, (access.request_injected_at, access.tracked));
        }
        // 5. Advance the reply network.
        rev.step();
        // A finally dropped reply orphans its round trip: the requester
        // will never hear back. Fail it so the drain can still finish.
        for d in rev.take_drops() {
            if let Some((_, tracked)) = reply_meta.remove(&d.id) {
                if tracked {
                    tracked_failed += 1;
                    outstanding_tracked -= 1;
                }
            }
        }
        for d in rev.take_deliveries() {
            if let Some((request_at, tracked)) = reply_meta.remove(&d.id) {
                if tracked {
                    tracked_completed += 1;
                    outstanding_tracked -= 1;
                    round_trips.record(d.delivered_at - request_at);
                }
            }
        }
        now += 1;
    }

    let round_trip_histogram = config.net.telemetry.enabled().then(|| {
        let mut histogram = Histogram::new(config.net.telemetry.histogram_precision);
        for (latency, count) in round_trips.iter() {
            histogram.record_n(latency, count);
        }
        histogram
    });
    RoundTripResult {
        tracked_requests,
        tracked_completed,
        tracked_failed,
        round_trip_latency: round_trips.stats(),
        round_trip_histogram,
        analytic_unloaded_cycles: config.analytic_unloaded_cycles(),
        forward: fwd.finish(),
        reverse: rev.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipModel;
    use icn_topology::StagePlan;
    use icn_workloads::Workload;

    fn base(load: f64) -> RoundTripConfig {
        let plan = StagePlan::uniform(4, 2); // 16 ports
        let mut net = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(load));
        net.warmup_cycles = 200;
        net.measure_cycles = 2_000;
        net.drain_cycles = 60_000;
        RoundTripConfig {
            net,
            memory_cycles: 7,
            memory_service_cycles: 0,
        }
    }

    /// A conflict-free burst (identity traffic: processor i reads memory i)
    /// completes in exactly 2 × one-way + memory cycles — every single
    /// round trip.
    #[test]
    fn identity_burst_matches_analytic_round_trip_exactly() {
        let mut config = base(0.0);
        config.net.warmup_cycles = 0;
        config.net.measure_cycles = 1;
        // One cycle of full-rate identity traffic: 16 simultaneous,
        // conflict-free requests (and conflict-free replies).
        config.net.workload = Workload {
            load: 1.0,
            pattern: icn_workloads::Pattern::Permutation((0..16).collect()),
        };
        let result = run_roundtrip(config.clone());
        assert_eq!(result.tracked_requests, 16);
        assert_eq!(result.tracked_completed, 16);
        let expected = config.analytic_unloaded_cycles();
        assert_eq!(result.round_trip_latency.min, expected);
        assert_eq!(
            result.round_trip_latency.max, expected,
            "identity traffic must not contend anywhere"
        );
    }

    /// The histogram is filled from the same counts as the summary: it
    /// holds every completed round trip, and its exact fields agree.
    #[test]
    fn histogram_and_summary_count_the_same_round_trips() {
        let mut config = base(0.01);
        config.net.telemetry.sample_interval = 100;
        let result = run_roundtrip(config);
        let stats = result.round_trip_latency;
        let histogram = result.round_trip_histogram.expect("telemetry is on");
        assert_eq!(stats.count, result.tracked_completed);
        assert_eq!(histogram.count(), stats.count);
        assert_eq!((histogram.min(), histogram.max()), (stats.min, stats.max));
        assert_eq!(histogram.mean().to_bits(), stats.mean.to_bits());
        assert!(run_roundtrip(base(0.01)).round_trip_histogram.is_none());
    }

    /// Under light load every round trip completes and the mean stays near
    /// the analytic floor.
    #[test]
    fn light_load_round_trips_complete() {
        let result = run_roundtrip(base(0.002));
        assert!(result.tracked_requests > 0);
        assert_eq!(result.tracked_completed, result.tracked_requests);
        let expansion = result.expansion();
        assert!((1.0..1.3).contains(&expansion), "expansion {expansion}");
    }

    /// Round-trip latency grows with load (reply-path contention included).
    #[test]
    fn round_trip_grows_with_load() {
        let light = run_roundtrip(base(0.002));
        let heavy = run_roundtrip(base(0.02));
        assert!(
            heavy.round_trip_latency.mean > light.round_trip_latency.mean,
            "heavy {} vs light {}",
            heavy.round_trip_latency.mean,
            light.round_trip_latency.mean
        );
    }

    /// With a permanently dead module, dropped requests and orphaned
    /// replies are failed — the closed loop drains instead of waiting
    /// forever for round trips that can never complete.
    #[test]
    fn dropped_round_trips_do_not_wedge_the_closed_loop() {
        use crate::fault::{FaultEvent, FaultPlan, FaultTarget};
        let mut config = base(0.01);
        // Stage-1 module 2 serves destinations 8..12 exclusively; killing
        // it (in both directions) severs requests to those memories and
        // replies to those processors.
        config.net.faults = FaultPlan::new(vec![FaultEvent::permanent(
            FaultTarget::Module {
                stage: 1,
                module: 2,
            },
            0,
        )]);
        let result = run_roundtrip(config);
        assert!(result.tracked_failed > 0, "expected failed round trips");
        assert!(
            result.tracked_completed > 0,
            "unaffected pairs must still complete"
        );
        assert!(result.forward.conservation_ok(), "{:?}", result.forward);
        assert!(result.reverse.conservation_ok(), "{:?}", result.reverse);
        assert_eq!(result.forward.unreachable_pairs, 64);
    }

    /// A slow single-ported memory serializes colocated requests.
    #[test]
    fn memory_service_rate_serializes() {
        let mut pipelined = base(0.01);
        pipelined.memory_service_cycles = 0;
        let mut single_ported = base(0.01);
        single_ported.memory_service_cycles = 50;
        let a = run_roundtrip(pipelined);
        let b = run_roundtrip(single_ported);
        assert!(
            b.round_trip_latency.mean >= a.round_trip_latency.mean,
            "slow memory {} should not beat pipelined {}",
            b.round_trip_latency.mean,
            a.round_trip_latency.mean
        );
    }
}
