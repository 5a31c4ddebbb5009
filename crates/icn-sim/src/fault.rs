//! Fault injection and graceful degradation.
//!
//! The paper sizes 2048–4096-port networks from *hundreds* of crossbar
//! chips across dozens of boards (§3.3, §6). At that component count
//! failures are the operating regime, not the exception — and a delta
//! network's unique-path property means one dead module severs every
//! source→destination pair routed through it. This module supplies the
//! pieces the engine needs to simulate that honestly:
//!
//! * [`FaultPlan`] — a deterministic, seed-replayable schedule of
//!   [`FaultEvent`]s: permanent or transient failures of whole modules,
//!   individual output links, or source ports, each activating at a chosen
//!   cycle. An empty plan is guaranteed zero-cost: the engine carries no
//!   fault state at all and behaves byte-identically to a fault-free build.
//! * [`RetryPolicy`] — the source-side timeout/retry contract: a packet
//!   dropped by a fault is re-offered by its source after a bounded
//!   exponential backoff, up to `max_retries` attempts, after which the
//!   loss is final and accounted (`dropped_total`, `tracked_dropped`).
//! * [`StallReport`] — the watchdog's diagnostic when live packets stop
//!   making forward progress (zero grants for `watchdog_cycles` cycles),
//!   so a wedged network terminates with evidence instead of spinning to
//!   `drain_cycles`.
//!
//! Fault semantics in the engine: a **permanently** failed module or link
//! can never carry a packet again, so any packet whose head reaches it is
//! dropped (its unique path is severed); a **transiently** failed one
//! simply refuses grants until it recovers, exerting ordinary
//! back-pressure (counted per stage as `blocked_fault`). A permanently
//! failed source port drops everything it has queued — there is no path
//! from a dead line card, and retrying from it is meaningless.
//!
//! The engine parks heads blocked on a busy output or a full downstream
//! buffer only while their module and output link are up, so each
//! activation [`FaultState::apply`] reports wakes every parked head of
//! the struck module and makes a struck source due that cycle: from
//! there the ordinary sweep counts, drops or re-parks them.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use icn_topology::StagePlan;

use crate::error::SimError;
use crate::module::Stage;

/// What a fault event takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// A whole crossbar module (chip): none of its outputs grant, and
    /// packets buffered inside a permanently dead module are lost.
    Module {
        /// Stage index.
        stage: u32,
        /// Module index within the stage.
        module: u32,
    },
    /// A single module output link (`module · r + out_port` within the
    /// stage); the rest of the module keeps working.
    Link {
        /// Stage index.
        stage: u32,
        /// Module index within the stage.
        module: u32,
        /// Output port within the module.
        out_port: u32,
    },
    /// A source (network-input) port: it stops injecting; a permanent
    /// failure drops everything queued behind it.
    SourcePort {
        /// The network input line.
        port: u32,
    },
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What fails.
    pub target: FaultTarget,
    /// Cycle the failure takes effect (affects that cycle's grants).
    pub at_cycle: u64,
    /// How long the failure lasts; `None` is permanent.
    #[serde(default)]
    pub duration: Option<u64>,
}

impl FaultEvent {
    /// A permanent failure of `target` starting at `at_cycle`.
    #[must_use]
    pub fn permanent(target: FaultTarget, at_cycle: u64) -> Self {
        Self {
            target,
            at_cycle,
            duration: None,
        }
    }

    /// A transient failure of `target` over `[at_cycle, at_cycle + duration)`.
    #[must_use]
    pub fn transient(target: FaultTarget, at_cycle: u64, duration: u64) -> Self {
        Self {
            target,
            at_cycle,
            duration: Some(duration),
        }
    }
}

/// A deterministic schedule of failures, replayable from its contents
/// alone (the random constructors are pure functions of their seed).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled failures, in any order (the engine sorts by cycle).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, zero simulation cost.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from explicit events.
    #[must_use]
    pub fn new(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Permanently fail `count` distinct modules chosen uniformly from the
    /// whole network, all at `at_cycle`. Deterministic in `seed`; `count`
    /// saturates at the network's module count.
    #[must_use]
    pub fn random_module_failures(plan: &StagePlan, count: u32, at_cycle: u64, seed: u64) -> Self {
        let mut all: Vec<FaultTarget> = (0..plan.stages())
            .flat_map(|stage| {
                (0..plan.modules_in_stage(stage))
                    .map(move |module| FaultTarget::Module { stage, module })
            })
            .collect();
        Self::pick(&mut all, count, at_cycle, seed)
    }

    /// Permanently fail `count` distinct module output links chosen
    /// uniformly from the whole network, all at `at_cycle`. Deterministic
    /// in `seed`; `count` saturates at the network's link count.
    #[must_use]
    pub fn random_link_failures(plan: &StagePlan, count: u32, at_cycle: u64, seed: u64) -> Self {
        let mut all: Vec<FaultTarget> = (0..plan.stages())
            .flat_map(|stage| {
                let radix = plan.radices()[stage as usize];
                (0..plan.modules_in_stage(stage)).flat_map(move |module| {
                    (0..radix).map(move |out_port| FaultTarget::Link {
                        stage,
                        module,
                        out_port,
                    })
                })
            })
            .collect();
        Self::pick(&mut all, count, at_cycle, seed)
    }

    fn pick(all: &mut [FaultTarget], count: u32, at_cycle: u64, seed: u64) -> Self {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        all.shuffle(&mut rng);
        Self {
            events: all
                .iter()
                .take(count as usize)
                .map(|&target| FaultEvent::permanent(target, at_cycle))
                .collect(),
        }
    }

    /// Merge another plan's events into this one.
    #[must_use]
    pub fn merged(mut self, other: Self) -> Self {
        self.events.extend(other.events);
        self
    }

    /// Check every event against the network it will be injected into.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidFault`] if any event names a
    /// nonexistent stage/module/link/port or has a zero duration.
    pub fn validate(&self, plan: &StagePlan) -> Result<(), SimError> {
        for event in &self.events {
            if event.duration == Some(0) {
                return Err(SimError::InvalidFault(format!(
                    "zero-duration transient fault on {:?}",
                    event.target
                )));
            }
            match event.target {
                FaultTarget::Module { stage, module } => {
                    Self::check_module(plan, stage, module)?;
                }
                FaultTarget::Link {
                    stage,
                    module,
                    out_port,
                } => {
                    Self::check_module(plan, stage, module)?;
                    let radix = plan.radices()[stage as usize];
                    if out_port >= radix {
                        return Err(SimError::InvalidFault(format!(
                            "output port {out_port} out of range for radix-{radix} stage {stage}"
                        )));
                    }
                }
                FaultTarget::SourcePort { port } => {
                    if port >= plan.ports() {
                        return Err(SimError::InvalidFault(format!(
                            "source port {port} out of range (network has {} ports)",
                            plan.ports()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_module(plan: &StagePlan, stage: u32, module: u32) -> Result<(), SimError> {
        if stage >= plan.stages() {
            return Err(SimError::InvalidFault(format!(
                "stage {stage} out of range (network has {} stages)",
                plan.stages()
            )));
        }
        let modules = plan.modules_in_stage(stage);
        if module >= modules {
            return Err(SimError::InvalidFault(format!(
                "module {module} out of range (stage {stage} has {modules} modules)"
            )));
        }
        Ok(())
    }
}

/// The source-side timeout/retry contract for fault drops.
///
/// When a packet is dropped by a fault, its source learns of the loss (a
/// timeout in real hardware, modelled here as the backoff delay) and
/// re-offers the packet, up to `max_retries` times with bounded
/// exponential backoff. After the budget is exhausted — or if the source
/// itself is permanently dead — the loss is final.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// How many re-injections a dropped packet gets (0 = drop on first
    /// failure, the paper-faithful default: the network has no NAK path).
    pub max_retries: u32,
    /// Backoff before attempt `k` is `min(backoff_base · 2^k, backoff_cap)`
    /// cycles (always at least 1).
    pub backoff_base: u64,
    /// Upper bound on any single backoff, in cycles.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 0,
            backoff_base: 16,
            backoff_cap: 1024,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` attempts and the default backoff.
    #[must_use]
    pub fn retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            ..Self::default()
        }
    }

    /// The backoff (in cycles) before re-offering a packet that has
    /// already failed `attempt` times.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> u64 {
        // A shift that would push bits out saturates instead of wrapping.
        let doubled = if attempt >= self.backoff_base.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base << attempt
        };
        doubled.min(self.backoff_cap).max(1)
    }
}

/// The watchdog's diagnostic: live packets stopped making forward
/// progress (no grant, delivery, drop, or retry release) for the
/// configured number of cycles.
///
/// Note the watchdog deliberately ignores packets sitting in retry
/// backoff (they are *scheduled* to wait); if every live packet is
/// backing off, the network is idle, not wedged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallReport {
    /// Cycle the watchdog fired.
    pub at_cycle: u64,
    /// Last cycle anything made forward progress.
    pub last_progress_cycle: u64,
    /// Packets alive (queued, in flight, or backing off) when it fired.
    pub live_packets: u64,
    /// Of those, packets waiting out a retry backoff.
    pub retry_waiting: u64,
    /// Packets queued at the sources when it fired.
    pub source_backlog: u64,
    /// Buffered packets per stage when it fired (occupied + reserved
    /// input slots).
    pub stage_occupancy: Vec<u64>,
}

/// Availability of a component at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Health {
    /// Operating normally.
    Up,
    /// Down, but will recover: blocks (back-pressure), never drops.
    TransientDown,
    /// Down forever: every packet needing it is lost.
    PermanentDown,
}

/// The engine-side materialization of a [`FaultPlan`]: per-component
/// down-until timelines (`u64::MAX` = permanent), updated as scheduled
/// events activate. Built only when the plan is non-empty, so fault-free
/// runs carry no state and no per-grant checks.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Stage radices, for link-line arithmetic.
    radices: Vec<u32>,
    /// Down-until per `[stage][module]`.
    module_down: Vec<Vec<u64>>,
    /// Down-until per `[stage][output line]` (`module · r + out_port`).
    link_down: Vec<Vec<u64>>,
    /// Down-until per source port.
    source_down: Vec<u64>,
    /// Scheduled events, sorted by activation cycle.
    events: Vec<FaultEvent>,
    /// First not-yet-activated event.
    next: usize,
    /// Whether any permanent fault has activated.
    any_permanent: bool,
}

impl FaultState {
    /// Materialize a plan against a stage plan; `None` for an empty plan
    /// (the zero-cost guarantee).
    pub fn build(plan: &FaultPlan, splan: &StagePlan) -> Option<Box<Self>> {
        if plan.is_empty() {
            return None;
        }
        let mut events = plan.events.clone();
        events.sort_by_key(|e| e.at_cycle);
        Some(Box::new(Self {
            radices: splan.radices().to_vec(),
            module_down: (0..splan.stages())
                .map(|s| vec![0; splan.modules_in_stage(s) as usize])
                .collect(),
            link_down: (0..splan.stages())
                .map(|_| vec![0; splan.ports() as usize])
                .collect(),
            source_down: vec![0; splan.ports() as usize],
            events,
            next: 0,
            any_permanent: false,
        }))
    }

    /// Activate every event whose cycle has arrived. Returns the range of
    /// indices into [`FaultState::events`] activated by this call, so the
    /// engine can report them to an event sink.
    pub fn apply(&mut self, now: u64) -> std::ops::Range<usize> {
        let start = self.next;
        while let Some(event) = self.events.get(self.next) {
            if event.at_cycle > now {
                break;
            }
            let until = match event.duration {
                None => {
                    self.any_permanent = true;
                    u64::MAX
                }
                Some(d) => event.at_cycle + d,
            };
            let slot = match event.target {
                FaultTarget::Module { stage, module } => {
                    &mut self.module_down[stage as usize][module as usize]
                }
                FaultTarget::Link {
                    stage,
                    module,
                    out_port,
                } => {
                    let line = module * self.radices[stage as usize] + out_port;
                    &mut self.link_down[stage as usize][line as usize]
                }
                FaultTarget::SourcePort { port } => &mut self.source_down[port as usize],
            };
            *slot = (*slot).max(until);
            self.next += 1;
        }
        start..self.next
    }

    /// The scheduled events, sorted by activation cycle (the index space
    /// of the range [`FaultState::apply`] returns).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Health of the given switch module at cycle `now`.
    pub fn module_health(&self, stage: u32, module: u32, now: u64) -> Health {
        Self::health(self.module_down[stage as usize][module as usize], now)
    }

    /// Health of the given inter-stage link at cycle `now`.
    pub fn link_health(&self, stage: u32, line: u32, now: u64) -> Health {
        Self::health(self.link_down[stage as usize][line as usize], now)
    }

    /// Health of the given source port at cycle `now`.
    pub fn source_health(&self, port: u32, now: u64) -> Health {
        Self::health(self.source_down[port as usize], now)
    }

    fn health(until: u64, now: u64) -> Health {
        if until == u64::MAX {
            Health::PermanentDown
        } else if until > now {
            Health::TransientDown
        } else {
            Health::Up
        }
    }

    /// Count (src, dest) pairs whose unique path crosses a permanently
    /// failed component — the connectivity actually lost — in the network
    /// of `stages`, read through each stage's wiring ([`Stage::entry`]:
    /// the flat `module · r + port` input that each line reaches).
    ///
    /// Each source's paths form a tree: the module a line enters fans its
    /// `r` outputs out to consecutive destination blocks, one per digit.
    /// The walk counts a whole block as soon as its module or output link
    /// is permanently down, so it never enumerates the pairs one by one.
    pub fn unreachable_pairs(&self, stages: &[Stage]) -> u64 {
        if !self.any_permanent {
            return 0;
        }
        let n = self.source_down.len() as u32;
        (0..n)
            .map(|src| {
                if self.source_down[src as usize] == u64::MAX {
                    u64::from(n)
                } else {
                    self.severed_below(stages, 0, src, u64::from(n))
                }
            })
            .sum()
    }

    /// Destinations severed among the `span` ones that line `line`,
    /// entering stage `stage`, can still reach.
    fn severed_below(&self, stages: &[Stage], stage: usize, line: u32, span: u64) -> u64 {
        let r = self.radices[stage];
        let input = stages[stage].entry[line as usize];
        let first_out = input - input % r;
        if self.module_down[stage][(input / r) as usize] == u64::MAX {
            return span;
        }
        let span = span / u64::from(r);
        (first_out..first_out + r)
            .map(|out| {
                if self.link_down[stage][out as usize] == u64::MAX {
                    span
                } else if stage + 1 == stages.len() {
                    0
                } else {
                    self.severed_below(stages, stage + 1, out, span)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::Topology;
    use proptest::prelude::*;

    fn plan_4x2() -> StagePlan {
        StagePlan::uniform(4, 2) // 16 ports, 2 stages of 4 modules
    }

    /// Empty engine stages for `plan`, wired by its shuffle tables.
    fn wiring(plan: &StagePlan) -> Vec<Stage> {
        let topology = Topology::new(plan.clone());
        (0..)
            .zip(plan.radices())
            .map(|(s, &r)| Stage::new(topology.shuffle_table(s), r, 1, 1, 1, 0))
            .collect()
    }

    /// The pair-by-pair count over [`Topology::route`]'s paths.
    fn reference_unreachable(state: &FaultState, topology: &Topology) -> u64 {
        let n = topology.ports();
        let mut count = 0;
        for src in 0..n {
            for dest in 0..n {
                let severed = state.source_down[src as usize] == u64::MAX
                    || topology.route(src, dest).hops.iter().any(|hop| {
                        let s = hop.stage as usize;
                        state.module_down[s][hop.module as usize] == u64::MAX
                            || state.link_down[s][hop.output_line(state.radices[s]) as usize]
                                == u64::MAX
                    });
                count += u64::from(severed);
            }
        }
        count
    }

    #[test]
    fn empty_plan_builds_no_state() {
        assert!(FaultState::build(&FaultPlan::none(), &plan_4x2()).is_none());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn random_plans_are_deterministic_and_distinct() {
        let p = plan_4x2();
        let a = FaultPlan::random_module_failures(&p, 3, 10, 42);
        let b = FaultPlan::random_module_failures(&p, 3, 10, 42);
        let c = FaultPlan::random_module_failures(&p, 3, 10, 43);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.events.len(), 3);
        // Distinct targets.
        for (i, e) in a.events.iter().enumerate() {
            assert!(a.events[i + 1..].iter().all(|f| f.target != e.target));
            assert_eq!(e.duration, None);
            assert_eq!(e.at_cycle, 10);
        }
    }

    #[test]
    fn random_counts_saturate() {
        let p = plan_4x2(); // 8 modules, 32 links
        assert_eq!(
            FaultPlan::random_module_failures(&p, 99, 0, 1).events.len(),
            8
        );
        assert_eq!(
            FaultPlan::random_link_failures(&p, 99, 0, 1).events.len(),
            32
        );
    }

    #[test]
    fn validation_catches_phantom_hardware() {
        let p = plan_4x2();
        let bad_stage = FaultPlan::new(vec![FaultEvent::permanent(
            FaultTarget::Module {
                stage: 2,
                module: 0,
            },
            0,
        )]);
        assert!(matches!(
            bad_stage.validate(&p),
            Err(SimError::InvalidFault(_))
        ));
        let bad_port = FaultPlan::new(vec![FaultEvent::permanent(
            FaultTarget::Link {
                stage: 0,
                module: 0,
                out_port: 4,
            },
            0,
        )]);
        assert!(bad_port.validate(&p).is_err());
        let bad_source = FaultPlan::new(vec![FaultEvent::permanent(
            FaultTarget::SourcePort { port: 16 },
            0,
        )]);
        assert!(bad_source.validate(&p).is_err());
        let zero_duration = FaultPlan::new(vec![FaultEvent::transient(
            FaultTarget::Module {
                stage: 0,
                module: 0,
            },
            0,
            0,
        )]);
        assert!(zero_duration.validate(&p).is_err());
        let ok = FaultPlan::random_link_failures(&p, 5, 100, 7);
        assert!(ok.validate(&p).is_ok());
    }

    #[test]
    fn state_applies_events_in_cycle_order() {
        let p = plan_4x2();
        let plan = FaultPlan::new(vec![
            FaultEvent::transient(
                FaultTarget::Module {
                    stage: 0,
                    module: 1,
                },
                20,
                5,
            ),
            FaultEvent::permanent(
                FaultTarget::Link {
                    stage: 1,
                    module: 2,
                    out_port: 3,
                },
                10,
            ),
        ]);
        let mut state = FaultState::build(&plan, &p).expect("non-empty");
        state.apply(0);
        assert_eq!(state.module_health(0, 1, 0), Health::Up);
        assert_eq!(state.link_health(1, 11, 0), Health::Up);
        state.apply(10);
        assert_eq!(state.link_health(1, 11, 10), Health::PermanentDown);
        state.apply(20);
        assert_eq!(state.module_health(0, 1, 20), Health::TransientDown);
        assert_eq!(state.module_health(0, 1, 24), Health::TransientDown);
        assert_eq!(
            state.module_health(0, 1, 25),
            Health::Up,
            "transient faults recover"
        );
        assert_eq!(state.link_health(1, 11, 1_000), Health::PermanentDown);
    }

    #[test]
    fn unreachable_pairs_match_hand_count() {
        // 16-port, 2-stage network of 4×4 modules: stage-1 module m serves
        // destinations 4m..4m+4 exclusively, so killing it severs
        // 16 sources × 4 dests = 64 pairs.
        let p = plan_4x2();
        let entry = wiring(&p);
        let plan = FaultPlan::new(vec![FaultEvent::permanent(
            FaultTarget::Module {
                stage: 1,
                module: 2,
            },
            0,
        )]);
        let mut state = FaultState::build(&plan, &p).expect("non-empty");
        state.apply(0);
        assert_eq!(state.unreachable_pairs(&entry), 64);

        // A single last-stage link severs exactly one destination: 16 pairs.
        let plan = FaultPlan::new(vec![FaultEvent::permanent(
            FaultTarget::Link {
                stage: 1,
                module: 0,
                out_port: 1,
            },
            0,
        )]);
        let mut state = FaultState::build(&plan, &p).expect("non-empty");
        state.apply(0);
        assert_eq!(state.unreachable_pairs(&entry), 16);

        // A dead source severs all 16 of its destinations.
        let plan = FaultPlan::new(vec![FaultEvent::permanent(
            FaultTarget::SourcePort { port: 3 },
            0,
        )]);
        let mut state = FaultState::build(&plan, &p).expect("non-empty");
        state.apply(0);
        assert_eq!(state.unreachable_pairs(&entry), 16);

        // Transient faults never count as lost connectivity.
        let plan = FaultPlan::new(vec![FaultEvent::transient(
            FaultTarget::Module {
                stage: 0,
                module: 0,
            },
            0,
            1_000_000,
        )]);
        let mut state = FaultState::build(&plan, &p).expect("non-empty");
        state.apply(0);
        assert_eq!(state.unreachable_pairs(&entry), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-source tree walk counts exactly the pairs whose
        /// `Topology::route` path crosses a permanently dead module or
        /// link, on mixed-radix plans with faults of both kinds (and a
        /// transient one, which must not count).
        #[test]
        fn unreachable_pairs_match_pair_by_pair_routes(
            radices in proptest::collection::vec(2u32..=8, 1..=4)
                .prop_filter("at most 256 ports", |r| r.iter().product::<u32>() <= 256),
            modules in 0u32..4,
            links in 0u32..6,
            seed in any::<u64>(),
        ) {
            let p = StagePlan::from_radices(radices);
            let plan = FaultPlan::random_module_failures(&p, modules, 0, seed)
                .merged(FaultPlan::random_link_failures(&p, links, 0, seed ^ 1))
                .merged(FaultPlan::new(vec![FaultEvent::transient(
                    FaultTarget::Module { stage: 0, module: 0 },
                    0,
                    1_000,
                )]));
            let mut state = FaultState::build(&plan, &p).expect("non-empty");
            state.apply(0);
            prop_assert_eq!(
                state.unreachable_pairs(&wiring(&p)),
                reference_unreachable(&state, &Topology::new(p.clone()))
            );
        }
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let policy = RetryPolicy {
            max_retries: 10,
            backoff_base: 16,
            backoff_cap: 100,
        };
        assert_eq!(policy.backoff(0), 16);
        assert_eq!(policy.backoff(1), 32);
        assert_eq!(policy.backoff(2), 64);
        assert_eq!(policy.backoff(3), 100, "capped");
        assert_eq!(policy.backoff(63), 100);
        assert_eq!(policy.backoff(64), 100, "shift overflow saturates");
        let degenerate = RetryPolicy {
            max_retries: 1,
            backoff_base: 0,
            backoff_cap: 0,
        };
        assert_eq!(degenerate.backoff(0), 1, "backoff always advances time");
    }

    #[test]
    fn merged_plans_keep_all_events() {
        let p = plan_4x2();
        let plan = FaultPlan::random_module_failures(&p, 2, 5, 9).merged(FaultPlan::new(vec![
            FaultEvent::transient(FaultTarget::SourcePort { port: 1 }, 7, 40),
        ]));
        assert_eq!(plan.events.len(), 3);
        assert!(plan.validate(&p).is_ok());
    }

    #[test]
    fn plans_serialize_round_trip() {
        let p = plan_4x2();
        let plan = FaultPlan::random_module_failures(&p, 2, 5, 9).merged(FaultPlan::new(vec![
            FaultEvent::transient(FaultTarget::SourcePort { port: 1 }, 7, 40),
        ]));
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("parses");
        assert_eq!(plan, back);
    }
}
