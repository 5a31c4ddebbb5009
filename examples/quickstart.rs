//! Quickstart: design the paper's 2048×2048 network, check every physical
//! constraint, and predict its performance — in about thirty lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use icn_core::{DesignPoint, Violation};
use icn_phys::CrossbarKind;
use icn_tech::presets;

fn main() {
    // 1. Pick a technology (the paper's 1986 MOS + PGA parameter set).
    let tech = presets::paper1986();

    // 2. Describe the design: 16×16 crossbar chips with 4-bit paths, DMUX/
    //    MUX internals, 256-port boards, a 2048-port network, 100-bit
    //    packets (this is DesignPoint::paper_example, spelled out).
    let point = DesignPoint::paper_example(tech, CrossbarKind::Dmc);

    // 3. Evaluate. This solves the frequency fixed point (ground-bounce
    //    pins ↔ package size ↔ board trace ↔ clock skew) and audits pins,
    //    chip area, board routing and connectors.
    let report = point.evaluate();

    println!(
        "design: {}x{} network of {}x{} {} chips, W={}",
        report.point.network_ports,
        report.point.network_ports,
        report.point.chip_radix,
        report.point.chip_radix,
        report.point.kind,
        report.point.width,
    );
    println!(
        "chip:   {} pins ({} data, {} control, {} power/ground), {:.0}% of die",
        report.pins.total(),
        report.pins.data,
        report.pins.control,
        report.pins.power_ground,
        report.chip_area_fraction * 100.0,
    );
    println!(
        "rack:   {} boards, {} chips, longest wire {:.0} in",
        report.rack.total_boards,
        report.rack.total_chips,
        report.rack.longest_wire.inches(),
    );
    println!(
        "clock:  {:.1} MHz (D_L {:.1} ns + D_P {:.1} ns + skew {:.1} ns)",
        report.frequency.mhz(),
        report.clock.d_l.nanos(),
        report.clock.d_p.nanos(),
        report.clock.skew.nanos(),
    );
    println!(
        "delay:  one-way {:.2} µs, remote read round trip {:.2} µs ({:.0}x a local access)",
        report.one_way.micros(),
        report.round_trip_total.micros(),
        report.slowdown_vs_local,
    );
    if report.feasible() {
        println!("status: feasible — this is the paper's §6 conclusion");
    } else {
        println!("status: INFEASIBLE:");
        print_violations(&report.violations);
    }

    // 5. Double the path width and see which rules break: each violation
    //    is typed, with the numbers behind its message.
    let mut wide = DesignPoint::paper_example(presets::paper1986(), CrossbarKind::Dmc);
    wide.width = 8;
    let wide = wide.evaluate();
    println!("W=8:    {} violations", wide.violations.len());
    print_violations(&wide.violations);
}

fn print_violations(violations: &[Violation]) {
    for v in violations {
        let rule = match v {
            Violation::Pins(_) => "pins, eq. 3.1-3.4",
            Violation::Area { .. } => "die area, §3.2",
            Violation::Board(_) => "board, §3.3-3.4",
            Violation::Skew { .. } => "clock skew, eq. 5.3",
        };
        println!("  - [{rule}] {v}");
    }
}
