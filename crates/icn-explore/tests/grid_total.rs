//! Property test: `GridSpec` → `explore` is total. Any spec either fails
//! `validate` (and `explore` with it) or explores to the same bytes at
//! one and two threads — including axis values at the edges of `u32`,
//! where a wrapping product in the closed-form models would otherwise
//! report an oversized chip as small (and, in debug builds, panic).

use icn_explore::{explore, ExploreOptions, GridSpec};
use icn_phys::{ClockScheme, CrossbarKind};
use proptest::prelude::*;

/// One of `values`, uniformly.
fn pick<T: Clone>(values: Vec<T>) -> impl Strategy<Value = T> {
    (0..values.len()).prop_map(move |i| values[i].clone())
}

/// Axis values: the degenerate 1 and 2, every power of two up to 2^31,
/// a few small non-powers, and `u32::MAX`.
fn axis_value() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(1u32),
        Just(2u32),
        (1u32..=31).prop_map(|k| 1u32 << k),
        pick(vec![3u32, 6, 100, 300]),
        Just(u32::MAX),
    ]
}

/// One or two values per axis (the test empties one axis at a time).
fn axis<T: Strategy>(value: T) -> impl Strategy<Value = Vec<T::Value>> {
    proptest::collection::vec(value, 1..=2)
}

fn techs() -> impl Strategy<Value = Vec<String>> {
    axis(pick(vec![
        "paper-1986-mos-pga".to_string(),
        "scaled-cmos-early90s".to_string(),
        "no-such-tech".to_string(),
    ]))
}

fn threads(threads: usize) -> ExploreOptions {
    ExploreOptions {
        threads,
        chunk: 3,
        spot_checks: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_spec_is_rejected_or_explored_identically(
        techs in techs(),
        kinds in axis(pick(vec![CrossbarKind::Mcc, CrossbarKind::Dmc])),
        clock_schemes in axis(pick(vec![ClockScheme::Standard, ClockScheme::MultiplePulse])),
        network_ports in axis(axis_value()),
        radices in axis(axis_value()),
        widths in axis(axis_value()),
        packet_bits in axis(axis_value()),
        max_board_ports in prop_oneof![Just(0u32), axis_value()],
        emptied in 0usize..21,
    ) {
        let mut spec = GridSpec {
            techs,
            kinds,
            clock_schemes,
            network_ports,
            radices,
            widths,
            packet_bits,
            memory_access_ns: 200.0,
            max_board_ports,
        };
        // A third of the cases empty one axis, which must fail validation.
        match emptied {
            0 => spec.techs.clear(),
            1 => spec.kinds.clear(),
            2 => spec.clock_schemes.clear(),
            3 => spec.network_ports.clear(),
            4 => spec.radices.clear(),
            5 => spec.widths.clear(),
            6 => spec.packet_bits.clear(),
            _ => {}
        }
        if spec.validate().is_err() {
            prop_assert!(explore(&spec, &threads(1), None).is_err());
            return Ok(());
        }
        let serial = explore(&spec, &threads(1), None).expect("a valid spec explores");
        let parallel = explore(&spec, &threads(2), None).expect("a valid spec explores");
        prop_assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        prop_assert_eq!(serial.evaluated, serial.grid_candidates);
        for point in &serial.frontier {
            let data_pins = (u64::from(point.width) * u64::from(point.chip_radix)).checked_mul(2);
            prop_assert!(
                data_pins.is_some_and(|data| u64::from(point.pins) >= data),
                "{} pins cannot carry 2·W·N data lines: {:?}", point.pins, point
            );
            prop_assert!(point.area_mm2 > 0.0, "zero-area chip: {:?}", point);
        }
    }
}

/// The oversized grid that once reported a feasible 5-pin, 0 mm² MCC chip.
#[test]
fn oversized_chips_are_never_feasible() {
    let spec = GridSpec {
        techs: vec!["paper-1986-mos-pga".to_string()],
        kinds: vec![CrossbarKind::Mcc, CrossbarKind::Dmc],
        clock_schemes: vec![ClockScheme::MultiplePulse],
        network_ports: vec![u32::MAX],
        radices: vec![65_536, u32::MAX],
        widths: vec![u32::MAX],
        packet_bits: vec![u32::MAX],
        memory_access_ns: 0.0,
        max_board_ports: u32::MAX,
    };
    let outcome = explore(&spec, &threads(1), None).unwrap();
    assert_eq!(outcome.evaluated, 4);
    assert_eq!(outcome.feasible, 0);
    assert!(outcome.frontier.is_empty());
}
