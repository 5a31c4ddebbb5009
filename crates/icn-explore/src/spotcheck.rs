//! Simulator spot-checks of frontier points.
//!
//! The frontier is ranked by *closed-form* delay (eq. 4.2/4.5). The
//! spot-checker picks the K lowest-delay frontier points, runs each
//! through the cycle-level simulator (an `icn_sim::Engine` driven step by
//! step) under light uniform load, and verifies that the minimum latency
//! the simulator measures ranks the designs the same way the closed form
//! does, and never beats the simulator's §4 analytic floor — the §4
//! cross-validation, applied to the explorer's own output.
//!
//! Only the minimum network latency is reported, and no delivery is
//! faster than the analytic floor (`SimConfig::analytic_unloaded_cycles`;
//! pinned by icn-sim's `latency_floor_holds` property). So a simulation
//! stops at the first tracked delivery whose total latency (generation to
//! tail arrival) equals the floor: its network latency, between the total
//! and the floor, equals the floor too, and no later delivery can lower
//! the minimum. A network whose packets never reach the floor runs to the
//! engine's own end-of-run rules (`Engine::done`), exactly as
//! `icn_sim::run` would.
//!
//! The simulation depends only on (kind, N', N, W, P): frontier points
//! that differ in technology or clock scheme alone — the same network
//! clocked differently — share one simulation, and each still gets its
//! own [`SpotCheck`]. An exploration runs its distinct networks through
//! `icn_sim::ordered_map` at its own thread count.
//!
//! A point whose network is [`Unsimulable`] is skipped for the next in
//! delay order; [`unsimulable`] says which points those are, and why.
//!
//! Everything here is deterministic: the simulator is seeded, the load
//! is fixed, and the points are chosen by `(delay, index)` order.

use icn_core::delay::unloaded_cycles;
use icn_sim::{ordered_map, ChipModel, Engine, SimConfig, SimError, SimResult, STOP_POLL_CYCLES};
use icn_topology::StagePlan;
use icn_workloads::Workload;
use serde::{Deserialize, Serialize};

use crate::eval::FrontierPoint;

/// Simulate nothing above this port count — spot-checks are a sanity
/// probe, not a load test.
pub const MAX_SIM_PORTS: u32 = 4096;

/// Uniform offered load per port; light enough that the latency floor
/// is the unloaded path.
const SPOT_LOAD: f64 = 0.02;

/// One simulator spot-check of a frontier point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpotCheck {
    /// Canonical grid index of the checked point.
    pub index: u64,
    /// Network ports of the simulated plan.
    pub network_ports: u32,
    /// Chip radix.
    pub chip_radix: u32,
    /// Path width.
    pub width: u32,
    /// Packet bits.
    pub packet_bits: u32,
    /// Closed-form unloaded one-way delay, in cycles (fractional `P/W`).
    pub closed_form_cycles: f64,
    /// The simulator's §4 analytic unloaded prediction, in cycles.
    pub sim_analytic_cycles: u64,
    /// Minimum network latency the simulator measured, in cycles.
    pub sim_min_latency_cycles: u64,
}

/// Map the physical crossbar kind onto the simulator's chip model.
#[must_use]
pub fn chip_model(kind: icn_phys::CrossbarKind) -> ChipModel {
    match kind {
        icn_phys::CrossbarKind::Mcc => ChipModel::Mcc,
        icn_phys::CrossbarKind::Dmc => ChipModel::Dmc,
    }
}

/// The frontier-point fields a spot-check simulation reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SimKey {
    kind: icn_phys::CrossbarKind,
    network_ports: u32,
    chip_radix: u32,
    width: u32,
    packet_bits: u32,
}

impl SimKey {
    fn of(point: &FrontierPoint) -> Self {
        Self {
            kind: point.kind,
            network_ports: point.network_ports,
            chip_radix: point.chip_radix,
            width: point.width,
            packet_bits: point.packet_bits,
        }
    }

    /// The spot-check configuration of this network under light uniform
    /// load, with its §4 analytic unloaded floor in cycles, or the skip
    /// rule that rules it out.
    fn config(self) -> Result<(SimConfig, u64), Unsimulable> {
        if self.network_ports > MAX_SIM_PORTS {
            return Err(Unsimulable::TooLarge);
        }
        let plan = StagePlan::balanced_pow2(self.network_ports, self.chip_radix)
            .ok_or(Unsimulable::NoBalancedPlan)?;
        let mut config = SimConfig::paper_baseline(
            plan,
            chip_model(self.kind),
            self.width,
            Workload::uniform(SPOT_LOAD),
        );
        config.packet_bits = self.packet_bits;
        let analytic = config.analytic_unloaded_cycles();
        config.warmup_cycles = analytic * 2;
        config.measure_cycles = analytic * 2 + 200;
        config.drain_cycles = analytic * 4 + 200;
        config.validate().map_err(Unsimulable::Invalid)?;
        Ok((config, analytic))
    }
}

/// Why a frontier point's network is not spot-checked: the three skip
/// rules, checked in this order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsimulable {
    /// More than [`MAX_SIM_PORTS`] ports.
    TooLarge,
    /// No balanced power-of-two stage plan builds `N'` from `N`-port
    /// chips.
    NoBalancedPlan,
    /// `SimConfig::validate` refuses the spot-check configuration (a
    /// packet of more than `icn_sim::MAX_FLITS_PER_PACKET` flits, say).
    Invalid(SimError),
}

impl std::fmt::Display for Unsimulable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooLarge => write!(f, "more than {MAX_SIM_PORTS} ports"),
            Self::NoBalancedPlan => f.write_str("no balanced power-of-two stage plan"),
            Self::Invalid(e) => e.fmt(f),
        }
    }
}

/// Why `point`'s network cannot be spot-checked, or `None` when it can;
/// decided from its configuration, without simulating. [`spot_check`]
/// passes over exactly these points.
#[must_use]
pub fn unsimulable(point: &FrontierPoint) -> Option<Unsimulable> {
    SimKey::of(point).config().err()
}

/// Simulate `config` until a tracked delivery's total latency equals
/// `floor`, its analytic unloaded latency, or else to the end of the run
/// ([`Engine::done`], where `icn_sim::run` stops too). No delivery is
/// faster than the floor, so none after the stop could lower the result's
/// minimum latency: that field equals `icn_sim::run(config)`'s, and when
/// no delivery meets `floor` the whole result does. `should_stop` is
/// polled at the start and every [`STOP_POLL_CYCLES`] cycles, as
/// [`Engine::run_bounded`] polls it; `None` means it fired.
fn simulate_to_floor(
    config: SimConfig,
    floor: u64,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> Option<SimResult> {
    let mut engine = Engine::new(config);
    engine.collect_deliveries(true);
    while !engine.done() {
        if engine.now() % STOP_POLL_CYCLES == 0 && should_stop() {
            return None;
        }
        engine.step();
        let at_floor = engine
            .take_deliveries()
            .iter()
            .any(|d| d.tracked && d.delivered_at - d.injected_at == floor);
        if at_floor {
            break;
        }
    }
    Some(engine.finish())
}

/// Spot-check up to `k` lowest-delay frontier points, skipping those
/// whose network is [`Unsimulable`]. Returns the checks in delay order
/// plus whether the simulator agreed with the closed form: every measured
/// minimum latency is at least its analytic floor, and the minima rank
/// the checked points like the closed-form delay does (±1 cycle slack for
/// the closed form's fractional `P/W` against the simulator's whole
/// flits). Fewer than `k` checks means every point was tried.
#[must_use]
pub fn spot_check(frontier: &[FrontierPoint], k: usize) -> (Vec<SpotCheck>, bool) {
    // A predicate that never fires never stops the checks.
    spot_check_bounded(frontier, k, 1, &|| false).unwrap_or_default()
}

/// [`spot_check`] with its simulations fanned out on up to `threads`
/// threads and each polling `should_stop` (see [`simulate_to_floor`]);
/// `None` when it fired.
///
/// The skip rules are decided from each network's configuration, so
/// which points are checked, and the distinct networks they need, are
/// known before anything is simulated. Only those networks are simulated,
/// each once, through `icn_sim::ordered_map`; the checks are then
/// assembled in delay order, the same at any thread count.
pub(crate) fn spot_check_bounded(
    frontier: &[FrontierPoint],
    k: usize,
    threads: usize,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> Option<(Vec<SpotCheck>, bool)> {
    if k == 0 || frontier.is_empty() {
        return Some((Vec::new(), true));
    }
    let mut by_delay: Vec<&FrontierPoint> = frontier.iter().collect();
    by_delay.sort_by(|a, b| {
        (a.delay_us, a.index)
            .partial_cmp(&(b.delay_us, b.index))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // The simulator reads only (kind, N', N, W, P) of a point, so the
    // checked points share one simulation per distinct network.
    let mut networks: Vec<(SimKey, SimConfig, u64)> = Vec::new();
    let mut planned: Vec<(&FrontierPoint, usize)> = Vec::new();
    for point in by_delay {
        if planned.len() >= k {
            break;
        }
        let key = SimKey::of(point);
        let network = match networks.iter().position(|(seen, ..)| *seen == key) {
            Some(network) => network,
            None => {
                let Ok((config, analytic)) = key.config() else {
                    continue;
                };
                networks.push((key, config, analytic));
                networks.len() - 1
            }
        };
        planned.push((point, network));
    }
    // Each `config` passed `SimConfig::validate`, so `Engine::new` takes
    // it.
    let minima = ordered_map(networks.len(), threads, |network| {
        let (_, config, floor) = &networks[network];
        simulate_to_floor(config.clone(), *floor, should_stop)
            .map(|result| result.network_latency.min)
    })
    .into_iter()
    .collect::<Option<Vec<u64>>>()?;

    let checks: Vec<SpotCheck> = planned
        .into_iter()
        .map(|(point, network)| SpotCheck {
            index: point.index,
            network_ports: point.network_ports,
            chip_radix: point.chip_radix,
            width: point.width,
            packet_bits: point.packet_bits,
            closed_form_cycles: unloaded_cycles(
                point.kind,
                point.chip_radix,
                point.width,
                point.packet_bits,
                point.network_ports,
            ),
            sim_analytic_cycles: networks[network].2,
            sim_min_latency_cycles: minima[network],
        })
        .collect();

    // Ranking agreement: walking the checks in closed-form order (they
    // were produced sorted by delay, and cycles at a fixed frequency
    // order like delays only per-chassis, so re-sort by the closed-form
    // cycle count), the measured minimum latency must not decrease by
    // more than the fractional-flit slack. No minimum may beat its
    // analytic floor either: the early stop in `simulate_to_floor` rests
    // on it.
    let mut by_cycles = checks.clone();
    by_cycles.sort_by(|a, b| {
        (a.closed_form_cycles, a.index)
            .partial_cmp(&(b.closed_form_cycles, b.index))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let agrees = checks
        .iter()
        .all(|check| check.sim_min_latency_cycles >= check.sim_analytic_cycles)
        && by_cycles
            .windows(2)
            .all(|pair| pair[1].sim_min_latency_cycles + 1 >= pair[0].sim_min_latency_cycles);
    Some((checks, agrees))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{explore, ExploreOptions};
    use crate::eval::{resolve_techs, Evaluator};
    use crate::grid::GridSpec;

    fn paper_frontier_points() -> Vec<FrontierPoint> {
        let spec = GridSpec::paper();
        let techs = resolve_techs(&spec).unwrap();
        let mut evaluator = Evaluator::new(&spec, &techs);
        (0..spec.candidate_count().unwrap())
            .filter_map(|i| evaluator.evaluate(i))
            .collect()
    }

    #[test]
    fn spot_checks_are_deterministic_and_bounded() {
        let points = paper_frontier_points();
        let (a, agrees_a) = spot_check(&points, 3);
        let (b, agrees_b) = spot_check(&points, 3);
        assert_eq!(a, b);
        assert_eq!(agrees_a, agrees_b);
        assert!(a.len() <= 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn simulator_floor_is_at_least_the_analytic_prediction() {
        let points = paper_frontier_points();
        let (checks, _) = spot_check(&points, 2);
        for check in &checks {
            assert!(
                check.sim_min_latency_cycles >= check.sim_analytic_cycles,
                "{check:?}"
            );
        }
    }

    #[test]
    fn points_differing_only_in_tech_and_clock_share_simulator_fields() {
        let fastest = paper_frontier_points()
            .into_iter()
            .min_by(|a, b| a.delay_us.total_cmp(&b.delay_us))
            .unwrap();
        let twin = FrontierPoint {
            index: fastest.index + 1,
            tech: "scaled-cmos-early90s".to_string(),
            clock_scheme: match fastest.clock_scheme {
                icn_phys::ClockScheme::Standard => icn_phys::ClockScheme::MultiplePulse,
                icn_phys::ClockScheme::MultiplePulse => icn_phys::ClockScheme::Standard,
            },
            ..fastest.clone()
        };
        let (checks, agrees) = spot_check(&[fastest.clone(), twin.clone()], 2);
        assert!(agrees);
        assert_eq!(checks.len(), 2, "{checks:?}");
        assert_eq!(checks[0].index, fastest.index);
        assert_eq!(checks[1].index, twin.index);
        assert_eq!(
            SpotCheck {
                index: fastest.index,
                ..checks[1].clone()
            },
            checks[0]
        );
    }

    #[test]
    fn unsimulable_names_the_rule_that_skips_each_point() {
        let fastest = paper_frontier_points()
            .into_iter()
            .min_by(|a, b| a.delay_us.total_cmp(&b.delay_us))
            .unwrap();
        let too_large = FrontierPoint {
            index: 1,
            network_ports: 2 * MAX_SIM_PORTS,
            ..fastest.clone()
        };
        let unbalanced = FrontierPoint {
            index: 2,
            network_ports: 48,
            ..fastest.clone()
        };
        let invalid = FrontierPoint {
            index: 3,
            width: 1,
            packet_bits: u32::try_from(2 * icn_sim::MAX_FLITS_PER_PACKET).unwrap(),
            ..fastest.clone()
        };
        let frontier = [fastest, too_large, unbalanced, invalid];
        let reasons: Vec<Option<Unsimulable>> = frontier.iter().map(unsimulable).collect();
        assert_eq!(reasons[0], None);
        assert_eq!(reasons[1], Some(Unsimulable::TooLarge));
        assert_eq!(reasons[2], Some(Unsimulable::NoBalancedPlan));
        assert!(
            matches!(
                reasons[3],
                Some(Unsimulable::Invalid(SimError::InvalidConfig(_)))
            ),
            "{reasons:?}"
        );
        // Exactly those points go unchecked.
        let (checks, _) = spot_check(&frontier, 4);
        assert_eq!(checks.len(), 1, "{checks:?}");
        assert_eq!(checks[0].index, frontier[0].index);
    }

    /// The configuration and analytic floor of each distinct network that
    /// `k` spot-checks of `spec`'s frontier simulate, in the order run.
    fn spot_check_networks(spec: &GridSpec, k: usize) -> Vec<(SimConfig, u64)> {
        let options = ExploreOptions {
            threads: 1,
            spot_checks: k,
            ..ExploreOptions::default()
        };
        let outcome = explore(spec, &options, None).unwrap();
        let mut keys: Vec<SimKey> = Vec::new();
        for check in &outcome.spot_checks {
            let point = outcome.frontier.iter().find(|p| p.index == check.index);
            let key = SimKey::of(point.unwrap());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.into_iter().map(|key| key.config().unwrap()).collect()
    }

    #[test]
    fn stopping_at_the_floor_keeps_the_full_runs_minimum() {
        // Each 2,048-port paper network runs 550–900 cycles in full; a
        // debug build checks the networks of the first four points.
        let paper_checks = if cfg!(debug_assertions) { 4 } else { 8 };
        let grids = [
            ("bench", GridSpec::bench(), 8),
            ("million", GridSpec::million(), 8),
            ("paper", GridSpec::paper(), paper_checks),
        ];
        for (name, spec, k) in grids {
            for (config, floor) in spot_check_networks(&spec, k) {
                let network = format!(
                    "{name} grid: {} ports, W = {}, floor {floor}",
                    config.plan.ports(),
                    config.width
                );
                let stopped = simulate_to_floor(config.clone(), floor, &|| false).unwrap();
                let full = icn_sim::run(config);
                assert_eq!(
                    stopped.network_latency.min, full.network_latency.min,
                    "{network}"
                );
                // The stop happens: some packet reaches the floor early.
                assert!(stopped.cycles_run < full.cycles_run, "{network}");
            }
        }
        // One cycle below the analytic floor no delivery arrives, so the
        // run goes to the engine's own end and the whole result is the
        // full run's.
        let (config, floor) = spot_check_networks(&GridSpec::million(), 1).remove(0);
        assert_eq!(
            simulate_to_floor(config.clone(), floor - 1, &|| false),
            Some(icn_sim::run(config))
        );
    }

    #[test]
    fn zero_k_is_a_no_op() {
        let (checks, agrees) = spot_check(&paper_frontier_points(), 0);
        assert!(checks.is_empty());
        assert!(agrees);
    }
}
