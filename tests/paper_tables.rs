//! Golden integration tests: every headline number the paper prints,
//! checked end to end through the public API of the umbrella crate.

use franklin_dhar_icn::core::{delay, DesignPoint};
use franklin_dhar_icn::experiments::{SimEffort, EXPERIMENTS};
use franklin_dhar_icn::phys::{area, pins, ClockBudget, ClockScheme, CrossbarKind};
use franklin_dhar_icn::tech::presets;
use franklin_dhar_icn::topology::{blocking, StagePlan};
use franklin_dhar_icn::units::{Frequency, Length};

/// Table 2 (pins): the corner cells of both printed frequency blocks.
#[test]
fn table2_corner_cells() {
    let tech = presets::paper1986();
    let cases = [
        (10.0, 1, 16, 69u32),
        (10.0, 8, 16, 294),
        (10.0, 4, 22, 226),
        (80.0, 1, 16, 73),
        (80.0, 4, 24, 263),
        (80.0, 8, 22, 431),
    ];
    for (f, w, n, expected) in cases {
        let b = pins::pin_budget(&tech, n, w, Frequency::from_mhz(f));
        assert_eq!(b.total(), expected, "F={f} W={w} N={n}");
    }
}

/// Table 3: the full MCC column and the stated DMC W=4 limit.
#[test]
fn table3_columns() {
    let tech = presets::paper1986();
    assert_eq!(area::max_crossbar(&tech, CrossbarKind::Mcc, 1), Some(37));
    assert_eq!(area::max_crossbar(&tech, CrossbarKind::Mcc, 2), Some(32));
    assert_eq!(area::max_crossbar(&tech, CrossbarKind::Mcc, 4), Some(25));
    assert_eq!(area::max_crossbar(&tech, CrossbarKind::Mcc, 8), Some(17));
    assert_eq!(area::max_crossbar(&tech, CrossbarKind::Dmc, 4), Some(18));
}

/// Delay table: the two cells the paper's §4 discussion calls out
/// explicitly (DMC, 40 MHz, W=2 → 1.48 µs; round trip 3.16 µs with 200 ns
/// memory).
#[test]
fn delay_table_flagship_cell_and_round_trip() {
    let one_way = delay::unloaded_delay(
        CrossbarKind::Dmc,
        16,
        2,
        100,
        4096,
        Frequency::from_mhz(40.0),
    );
    assert!(
        (one_way.micros() - 1.475).abs() < 0.01,
        "{} µs",
        one_way.micros()
    );
    let rt = delay::RoundTrip {
        one_way,
        memory_access: franklin_dhar_icn::units::Time::from_nanos(200.0),
    };
    assert!(
        (rt.total().micros() - 3.15).abs() < 0.05,
        "{} µs",
        rt.total().micros()
    );
}

/// Figure 2: the 5→3-stage blocking reduction checkpoint.
#[test]
fn figure2_checkpoint() {
    let five =
        blocking::blocking_probability(&StagePlan::balanced_pow2_stages(4096, 5).unwrap(), 1.0);
    let three =
        blocking::blocking_probability(&StagePlan::balanced_pow2_stages(4096, 3).unwrap(), 1.0);
    let cut = (five - three) / five;
    assert!((0.08..=0.14).contains(&cut), "relative cut {cut}");
}

/// §6.2: the clock chain τ_chip = 4.1 ns, δ ≈ 0.7τ, F ≈ 32 MHz.
#[test]
fn clock_chain() {
    let tech = presets::paper1986();
    let b = ClockBudget::compute(&tech, 16, Length::from_inches(35.0));
    assert!((b.tau_chip.nanos() - 4.1).abs() < 0.05);
    assert!(((b.skew / b.tau) - 0.69).abs() < 0.01);
    let f = b.max_frequency(ClockScheme::MultiplePulse);
    assert!((31.0..=34.0).contains(&f.mhz()), "{} MHz", f.mhz());
}

/// §6/abstract: the end-to-end conclusion for the 2048-port example.
#[test]
fn example_2048_conclusion() {
    let report = DesignPoint::paper_example(presets::paper1986(), CrossbarKind::Dmc).evaluate();
    assert!(report.feasible(), "{:?}", report.violations);
    assert!((30.0..=34.0).contains(&report.frequency.mhz()));
    assert!((0.85..=1.15).contains(&report.one_way.micros()));
    assert!(report.round_trip_total.micros() > 2.0);
    assert!(report.slowdown_vs_local > 10.0);
}

/// Every analytic experiment renders non-trivially and with stable ids.
#[test]
fn experiment_harness_covers_all_artifacts() {
    let records: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| !e.simulated())
        .map(|e| e.run(&presets::paper1986(), SimEffort::Quick))
        .collect();
    let ids: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "E1",
            "E2",
            "E3",
            "E4",
            "E5",
            "E6",
            "E7/E8",
            "E9",
            "E10",
            "C1",
            "X4",
            "E6-validation",
            "X7",
            "X8",
            "P1",
            "X9",
            "X5"
        ]
    );
    for r in records {
        assert!(r.text.lines().count() >= 3, "{} too short", r.id);
    }
}
