//! Cross-crate property-based tests: randomized stage plans, traffic and
//! design parameters, exercising the invariants the whole reproduction
//! rests on.

use franklin_dhar_icn::core::delay;
use franklin_dhar_icn::phys::{pins, CrossbarKind};
use franklin_dhar_icn::sim::{ChipModel, Engine, SimConfig};
use franklin_dhar_icn::tech::presets;
use franklin_dhar_icn::topology::{verify, StagePlan, Topology};
use franklin_dhar_icn::units::Frequency;
use franklin_dhar_icn::workloads::Workload;
use proptest::prelude::*;

/// Random small stage plans (2–4 stages of radix 2–8, ≤ 512 ports).
fn small_plan() -> impl Strategy<Value = StagePlan> {
    proptest::collection::vec(2u32..=8, 1..=4)
        .prop_filter("port count stays small", |radices| {
            radices.iter().map(|&r| u64::from(r)).product::<u64>() <= 512
        })
        .prop_map(StagePlan::from_radices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full access and shuffle bijectivity hold for every delta network we
    /// can build, not just the paper's sizes.
    #[test]
    fn random_plans_verify(plan in small_plan()) {
        let t = Topology::new(plan);
        let report = verify::verify(&t);
        prop_assert!(report.ok(), "{report:?}");
    }

    /// Routing is deterministic and digit-consistent: routing twice gives
    /// the same path, and the tags are exactly the mixed-radix digits.
    #[test]
    fn routing_is_deterministic(plan in small_plan(), seed in any::<u64>()) {
        let t = Topology::new(plan);
        let n = t.ports();
        let src = (seed % u64::from(n)) as u32;
        let dest = ((seed >> 32) % u64::from(n)) as u32;
        let a = t.route(src, dest);
        let b = t.route(src, dest);
        prop_assert_eq!(&a, &b);
        // Tags recompose to the destination.
        let mut value = 0u64;
        for (i, tag) in t.routing_tags(dest).enumerate() {
            value = value * u64::from(t.stage_radix(i as u32)) + u64::from(tag);
        }
        prop_assert_eq!(value, u64::from(dest));
    }

    /// Single-packet simulation matches the analytic §4 delay for random
    /// plans, models and widths (the integer-flit form).
    #[test]
    fn sim_matches_analytics_on_random_configs(
        plan in small_plan(),
        width in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        mcc in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let chip = if mcc { ChipModel::Mcc } else { ChipModel::Dmc };
        let mut config = SimConfig::paper_baseline(
            plan.clone(), chip, width, Workload::uniform(0.0));
        config.warmup_cycles = 0;
        config.measure_cycles = 1;
        config.drain_cycles = 100_000;
        let expected = config.analytic_unloaded_cycles();
        let mut engine = Engine::new(config);
        let n = u64::from(plan.ports());
        engine.inject((seed % n) as u32, ((seed >> 32) % n) as u32);
        let r = engine.run();
        prop_assert_eq!(r.tracked_delivered, 1);
        prop_assert_eq!(r.network_latency.min, expected);
    }

    /// Pin budgets are monotone in every argument (N, W, F) — the paper's
    /// Table 2 trends, property-checked.
    #[test]
    fn pin_budget_is_monotone(
        n in 2u32..40,
        w in 1u32..10,
        f in 1.0f64..100.0,
    ) {
        let tech = presets::paper1986();
        let base = pins::pin_budget(&tech, n, w, Frequency::from_mhz(f)).total();
        let dn = pins::pin_budget(&tech, n + 1, w, Frequency::from_mhz(f)).total();
        let dw = pins::pin_budget(&tech, n, w + 1, Frequency::from_mhz(f)).total();
        let df = pins::pin_budget(&tech, n, w, Frequency::from_mhz(f * 2.0)).total();
        prop_assert!(dn > base);
        prop_assert!(dw > base);
        prop_assert!(df >= base);
    }

    /// The §4 delay expressions are monotone: more ports or narrower paths
    /// never reduce delay; higher frequency never increases it.
    #[test]
    fn delay_is_monotone(
        w in 1u32..9,
        f in 1.0f64..100.0,
        ports_exp in 9u32..13,
    ) {
        let ports = 1u32 << ports_exp;
        for kind in CrossbarKind::ALL {
            let base = delay::unloaded_delay(kind, 16, w, 100, ports, Frequency::from_mhz(f));
            let wider = delay::unloaded_delay(kind, 16, w + 1, 100, ports, Frequency::from_mhz(f));
            let faster = delay::unloaded_delay(kind, 16, w, 100, ports, Frequency::from_mhz(f * 2.0));
            prop_assert!(wider <= base);
            prop_assert!(faster < base);
        }
    }

    /// Deterministic replay holds for arbitrary seeds and loads.
    #[test]
    fn replay_determinism(seed in any::<u64>(), load_pct in 1u32..40) {
        let mut c = SimConfig::paper_baseline(
            StagePlan::uniform(4, 2),
            ChipModel::Dmc,
            4,
            Workload::uniform(f64::from(load_pct) / 1000.0),
        );
        c.seed = seed;
        c.warmup_cycles = 50;
        c.measure_cycles = 500;
        c.drain_cycles = 20_000;
        let a = franklin_dhar_icn::sim::run(c.clone());
        let b = franklin_dhar_icn::sim::run(c);
        prop_assert_eq!(a, b);
    }
}
