//! Simulation configuration.

use icn_topology::StagePlan;
use icn_workloads::Workload;
use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::telemetry::TelemetryConfig;

/// The most flits (`⌈P/W⌉`) a packet may span. The engine keeps per-stage
/// state that grows with the packet length (a wake slot per cycle a head
/// can stay parked), so [`SimConfig::validate`] rejects longer packets
/// before anything is allocated for them. 2^20 admits every configuration
/// the repository runs about a thousand times over: the longest is a
/// 1,000-flit store-and-forward parity case.
pub const MAX_FLITS_PER_PACKET: u64 = 1 << 20;

/// The most packets an input buffer may hold. The engine stores every
/// input's buffers as a fixed ring of this many slots at most, allocated
/// when it is built, so [`SimConfig::validate`] rejects deeper buffers
/// first. 64 is eight times the deepest buffer any experiment or test
/// runs (8), and far past the depth of about 4 that captures most of the
/// buffering gain (§2).
pub const MAX_BUFFER_CAPACITY: u32 = 64;

/// Which chip implementation's timing the modules use (§2.2/§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChipModel {
    /// Mesh-connected crossbar: a packet head crosses ~`r` crosspoint
    /// pipeline stages per module.
    Mcc,
    /// DMUX/MUX crossbar: `⌈log₂r / W⌉` setup cycles plus one output
    /// register per module.
    Dmc,
}

impl ChipModel {
    /// Head latency (cycles from output grant to the head appearing at the
    /// module's output) for a radix-`r` module with `W`-bit paths.
    ///
    /// # Panics
    /// Panics if `radix < 2` or `width == 0`.
    #[must_use]
    pub fn head_latency(self, radix: u32, width: u32) -> u64 {
        assert!(radix >= 2, "module radix must be at least 2");
        assert!(width >= 1, "path width must be at least 1");
        match self {
            Self::Mcc => u64::from(radix),
            Self::Dmc => {
                let setup = (f64::from(radix).log2() / f64::from(width)).ceil() as u64;
                setup.max(1) + 1
            }
        }
    }

    /// Short label used in tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Mcc => "MCC",
            Self::Dmc => "DMC",
        }
    }
}

impl core::fmt::Display for ChipModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Output-port arbitration among contending inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arbitration {
    /// Rotating priority: fair over time (the default).
    RoundRobin,
    /// Lowest input index wins: simplest hardware, starvation-prone.
    FixedPriority,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The network's stage plan.
    pub plan: StagePlan,
    /// Chip timing model.
    pub chip: ChipModel,
    /// Data path width `W` in bits.
    pub width: u32,
    /// Packet size `P` in bits (100 in the paper), at most
    /// [`MAX_FLITS_PER_PACKET`] flits of `width` bits.
    pub packet_bits: u32,
    /// Input-buffer capacity in packets (1 in the paper's baseline; ~4
    /// captures most of the buffering gain per the studies cited in §2),
    /// 1 to [`MAX_BUFFER_CAPACITY`].
    pub buffer_capacity: u32,
    /// Pass-through (cut-through) enabled; disabling it forces full
    /// store-and-forward buffering at every module.
    pub cut_through: bool,
    /// Output arbitration policy.
    pub arbitration: Arbitration,
    /// Offered traffic.
    pub workload: Workload,
    /// RNG seed (simulations are fully deterministic given the seed).
    pub seed: u64,
    /// Cycles to run before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles during which injected packets are tracked for statistics.
    pub measure_cycles: u64,
    /// Extra cycles after the measurement window to let tracked packets
    /// drain (injection continues, keeping back-pressure realistic).
    pub drain_cycles: u64,
    /// Scheduled component failures (empty = fault-free, zero-cost).
    #[serde(default)]
    pub faults: FaultPlan,
    /// Source-side timeout/retry behaviour for packets lost to faults.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Watchdog bound: terminate with a [`crate::StallReport`] if live
    /// packets make no forward progress for this many cycles
    /// (0 disables the watchdog).
    #[serde(default)]
    pub watchdog_cycles: u64,
    /// Telemetry collection knobs (disabled by default: the zero-cost
    /// path; see [`crate::telemetry`]).
    #[serde(default)]
    pub telemetry: TelemetryConfig,
}

impl SimConfig {
    /// A baseline configuration matching the paper's assumptions: single
    /// input buffer, pass-through enabled, round-robin arbitration,
    /// 100-bit packets.
    ///
    /// # Examples
    /// ```
    /// use icn_sim::{ChipModel, SimConfig};
    /// use icn_topology::StagePlan;
    /// use icn_workloads::Workload;
    ///
    /// let mut config = SimConfig::paper_baseline(
    ///     StagePlan::uniform(16, 2),     // a 256-port board network
    ///     ChipModel::Dmc,
    ///     4,
    ///     Workload::uniform(0.005),
    /// );
    /// config.measure_cycles = 2_000;
    /// let result = icn_sim::run(config);
    /// assert_eq!(result.tracked_lost, 0);
    /// assert!(result.network_latency.min >= 29); // DMC unloaded floor
    /// ```
    #[must_use]
    pub fn paper_baseline(
        plan: StagePlan,
        chip: ChipModel,
        width: u32,
        workload: Workload,
    ) -> Self {
        Self {
            plan,
            chip,
            width,
            packet_bits: 100,
            buffer_capacity: 1,
            cut_through: true,
            arbitration: Arbitration::RoundRobin,
            workload,
            seed: 0x1986_0106,
            warmup_cycles: 2_000,
            measure_cycles: 10_000,
            drain_cycles: 20_000,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            watchdog_cycles: 10_000,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Packet length in flits (`⌈P/W⌉`).
    #[must_use]
    pub fn flits_per_packet(&self) -> u64 {
        u64::from(self.packet_bits.div_ceil(self.width))
    }

    /// Head latency of a stage-`i` module under this configuration.
    #[must_use]
    pub fn stage_head_latency(&self, stage_radix: u32) -> u64 {
        self.chip.head_latency(stage_radix, self.width)
    }

    /// The unloaded one-way delay in cycles predicted by the paper's §4
    /// expressions for this configuration: `Σ_i L_head(r_i) + ⌈P/W⌉`.
    ///
    /// For uniform plans this is exactly eq. 4.2 (MCC: `N·⌈log_N N′⌉ + P/W`)
    /// and eq. 4.5 (DMC: `(M_sx+1)·⌈log_N N′⌉ + P/W`).
    #[must_use]
    pub fn analytic_unloaded_cycles(&self) -> u64 {
        let fill: u64 = self
            .plan
            .radices()
            .iter()
            .map(|&r| self.stage_head_latency(r))
            .sum();
        fill + self.flits_per_packet()
    }

    /// Sanity-check the configuration, including the fault plan against
    /// the network it targets.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] on a parameter outside its
    /// domain (zero width, a zero packet or one above
    /// [`MAX_FLITS_PER_PACKET`] flits, zero buffers or more than
    /// [`MAX_BUFFER_CAPACITY`], a measurement window of zero cycles, a
    /// workload whose load or pattern does not fit the network; see
    /// [`Workload::validate`]) and [`SimError::InvalidFault`]
    /// if the fault plan names hardware the stage plan does not have.
    pub fn validate(&self) -> Result<(), SimError> {
        fn require(ok: bool, msg: &str) -> Result<(), SimError> {
            if ok {
                Ok(())
            } else {
                Err(SimError::InvalidConfig(msg.into()))
            }
        }
        require(self.width >= 1, "width must be at least 1")?;
        require(self.packet_bits >= 1, "packets must carry at least one bit")?;
        let flits = self.flits_per_packet();
        if flits > MAX_FLITS_PER_PACKET {
            return Err(SimError::InvalidConfig(format!(
                "a packet may span at most {MAX_FLITS_PER_PACKET} flits, got {flits} ({} bits at width {})",
                self.packet_bits, self.width
            )));
        }
        require(
            self.buffer_capacity >= 1,
            "each input needs at least one buffer",
        )?;
        if self.buffer_capacity > MAX_BUFFER_CAPACITY {
            return Err(SimError::InvalidConfig(format!(
                "an input may hold at most {MAX_BUFFER_CAPACITY} packets, got {}",
                self.buffer_capacity
            )));
        }
        require(
            self.measure_cycles >= 1,
            "measurement window must be non-empty",
        )?;
        // The engine adds the three windows with plain `+`.
        require(
            self.warmup_cycles
                .checked_add(self.measure_cycles)
                .and_then(|end| end.checked_add(self.drain_cycles))
                .is_some(),
            "the schedule (warmup + measure + drain cycles) must not overflow u64",
        )?;
        self.workload
            .validate(self.plan.ports())
            .map_err(SimError::InvalidConfig)?;
        self.telemetry.validate()?;
        self.faults.validate(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_latencies_match_section_4() {
        // MCC: N cycles per module.
        assert_eq!(ChipModel::Mcc.head_latency(16, 4), 16);
        assert_eq!(ChipModel::Mcc.head_latency(8, 1), 8);
        // DMC: M_sx + 1 with M_sx = ceil(log2 N / W).
        assert_eq!(ChipModel::Dmc.head_latency(16, 1), 5); // 4 + 1
        assert_eq!(ChipModel::Dmc.head_latency(16, 2), 3); // 2 + 1
        assert_eq!(ChipModel::Dmc.head_latency(16, 4), 2); // 1 + 1
        assert_eq!(ChipModel::Dmc.head_latency(16, 8), 2); // ceil(0.5) + 1
    }

    /// A grant never cascades within its cycle: the grant sweep pushes a
    /// granted packet into the next stage at once, which is sound only
    /// because its head arrives at least one cycle later.
    #[test]
    fn head_latency_is_at_least_one_cycle() {
        for chip in [ChipModel::Mcc, ChipModel::Dmc] {
            for radix in 2..=256 {
                for width in 1..=64 {
                    assert!(
                        chip.head_latency(radix, width) >= 1,
                        "{chip} radix {radix} width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_cycles_match_paper_delay_table() {
        use icn_topology::StagePlan;
        use icn_workloads::Workload;
        // Paper delay table at N=16, 3 stages: MCC W=1 → 16·3 + 100 = 148
        // cycles (14.8 µs at 10 MHz); DMC W=2 → 3·3 + 50 = 59 (5.9 µs).
        let plan = StagePlan::uniform(16, 3);
        let mcc =
            SimConfig::paper_baseline(plan.clone(), ChipModel::Mcc, 1, Workload::uniform(0.0));
        assert_eq!(mcc.analytic_unloaded_cycles(), 148);
        let dmc = SimConfig::paper_baseline(plan, ChipModel::Dmc, 2, Workload::uniform(0.0));
        assert_eq!(dmc.analytic_unloaded_cycles(), 59);
    }

    #[test]
    fn flit_count_rounds_up() {
        let mut c = SimConfig::paper_baseline(
            StagePlan::uniform(4, 2),
            ChipModel::Mcc,
            8,
            Workload::uniform(0.0),
        );
        assert_eq!(c.flits_per_packet(), 13); // ceil(100/8)
        c.width = 4;
        assert_eq!(c.flits_per_packet(), 25);
    }

    /// A packet of `u32::MAX` bits on 1-bit paths would ask the engine
    /// for about 17 GB of wake slots per stage; it is refused first.
    #[test]
    fn packets_above_the_flit_bound_are_refused_before_building() {
        use crate::{Engine, EngineOptions};
        let mut c = SimConfig::paper_baseline(
            StagePlan::uniform(4, 2),
            ChipModel::Dmc,
            1,
            Workload::uniform(0.0),
        );
        c.packet_bits = u32::MAX;
        let refused = |result: Result<(), SimError>| match result {
            Err(SimError::InvalidConfig(message)) => {
                assert!(message.contains("at most 1048576 flits"), "{message:?}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        refused(c.validate());
        refused(Engine::try_with_options(c.clone(), EngineOptions::default()).map(drop));
        // The bound itself is admitted, at any width.
        c.packet_bits = (MAX_FLITS_PER_PACKET as u32) * 4;
        c.width = 4;
        assert!(c.validate().is_ok());
        c.packet_bits += 1;
        refused(c.validate());
    }

    /// An engine whose inputs hold the deepest admitted buffer builds and
    /// simulates, and conserves its packets; a deeper one is refused
    /// before anything is allocated for it.
    #[test]
    fn engine_at_the_buffer_bound_builds_and_runs() {
        use crate::{Engine, EngineOptions};
        let mut c = SimConfig::paper_baseline(
            StagePlan::uniform(4, 2),
            ChipModel::Dmc,
            4,
            Workload::uniform(0.3),
        );
        c.buffer_capacity = MAX_BUFFER_CAPACITY;
        c.warmup_cycles = 100;
        c.measure_cycles = 1_000;
        c.drain_cycles = 2_000;
        let result = crate::try_run(c.clone()).expect("the bound is admitted");
        assert!(result.conservation_ok());
        assert!(result.delivered_in_window > 0);
        c.buffer_capacity = u32::MAX;
        assert!(matches!(
            Engine::try_with_options(c, EngineOptions::default()),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn radix_one_head_latency_panics() {
        let _ = ChipModel::Mcc.head_latency(1, 1);
    }

    #[test]
    fn validate_reports_typed_errors() {
        use crate::fault::{FaultEvent, FaultTarget};
        use icn_workloads::Pattern;
        let mut c = SimConfig::paper_baseline(
            StagePlan::uniform(4, 2),
            ChipModel::Mcc,
            1,
            Workload::uniform(0.0),
        );
        assert!(c.validate().is_ok());
        c.width = 0;
        assert!(matches!(c.validate(), Err(SimError::InvalidConfig(_))));
        c.width = 1;
        // Buffer depth: the bound is admitted, one more is refused.
        c.buffer_capacity = MAX_BUFFER_CAPACITY;
        assert!(c.validate().is_ok());
        c.buffer_capacity = MAX_BUFFER_CAPACITY + 1;
        match c.validate() {
            Err(SimError::InvalidConfig(message)) => {
                assert!(message.contains("at most 64 packets"), "{message:?}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        c.buffer_capacity = 0;
        assert!(matches!(c.validate(), Err(SimError::InvalidConfig(_))));
        c.buffer_capacity = 1;
        // Schedule: the end of drain must fit in a u64, however the
        // overflow is split among the three windows.
        let schedule = (c.warmup_cycles, c.measure_cycles, c.drain_cycles);
        for (warmup, measure, drain) in [(u64::MAX, 10, 0), (0, u64::MAX, 1), (u64::MAX - 5, 3, 3)]
        {
            c.warmup_cycles = warmup;
            c.measure_cycles = measure;
            c.drain_cycles = drain;
            match c.validate() {
                Err(SimError::InvalidConfig(message)) => {
                    assert!(message.contains("schedule"), "{message:?}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        (c.warmup_cycles, c.measure_cycles, c.drain_cycles) = (u64::MAX - 6, 3, 3);
        assert!(c.validate().is_ok(), "an end of exactly u64::MAX fits");
        (c.warmup_cycles, c.measure_cycles, c.drain_cycles) = schedule;
        // Every workload precondition `Pattern::destination` would panic
        // on, checked against this 16-port network (odd-bit and non-power-
        // of-two networks for the address-bit patterns).
        let workload = |load: f64, pattern: Pattern| Workload { load, pattern };
        let hot = |hot_fraction: f64, hot_port: u32| Pattern::HotSpot {
            hot_fraction,
            hot_port,
        };
        let clusters = |cluster_size: u32, locality: f64| Pattern::LocalClusters {
            cluster_size,
            locality,
        };
        for (plan, w, wants) in [
            (4, workload(2.0, Pattern::Uniform), "load must be in [0,1]"),
            (4, workload(-1.0, Pattern::Uniform), "load must be in [0,1]"),
            (4, workload(f64::NAN, Pattern::Uniform), "got NaN"),
            (4, workload(0.1, hot(0.1, 16)), "hot_port 16 out of range"),
            (
                4,
                workload(0.1, hot(1.5, 0)),
                "hot_fraction must be in [0,1]",
            ),
            (
                4,
                workload(0.1, Pattern::Permutation(vec![0; 8])),
                "8 targets",
            ),
            (
                4,
                workload(0.1, Pattern::Permutation(vec![16; 16])),
                "target 16",
            ),
            (3, workload(0.1, Pattern::BitReversal), "power-of-two"),
            (3, workload(0.1, Pattern::Transpose), "power-of-two"),
            (
                2,
                workload(0.1, Pattern::Transpose),
                "even number of address bits",
            ),
            (
                4,
                workload(0.1, clusters(3, 0.5)),
                "must divide the port count 16",
            ),
            (
                4,
                workload(0.1, clusters(0, 0.5)),
                "must divide the port count 16",
            ),
            (
                4,
                workload(0.1, clusters(4, 1.5)),
                "locality must be in [0,1]",
            ),
        ] {
            let mut bad = c.clone();
            bad.plan = match plan {
                2 => StagePlan::uniform(2, 3),
                3 => StagePlan::uniform(3, 2),
                _ => StagePlan::uniform(4, 2),
            };
            bad.workload = w;
            match bad.validate() {
                Err(SimError::InvalidConfig(message)) => {
                    assert!(message.contains(wants), "{message:?} lacks {wants:?}");
                }
                other => panic!("{:?}: expected InvalidConfig, got {other:?}", bad.workload),
            }
        }
        c.faults = FaultPlan::new(vec![FaultEvent::permanent(
            FaultTarget::Module {
                stage: 9,
                module: 0,
            },
            0,
        )]);
        assert!(matches!(c.validate(), Err(SimError::InvalidFault(_))));
    }
}
