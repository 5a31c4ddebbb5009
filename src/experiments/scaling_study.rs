//! How the paper's conclusion scales with machine size.
//!
//! §6 works one point (N′ = 2048). Sweeping the network size shows the
//! structure of the problem: the achievable clock is essentially flat (the
//! 35 in board trace dominates once the network spans multiple boards), so
//! one-way delay grows with the stage count — and the "order of magnitude"
//! remote-access penalty is already there at a few hundred ports.

use icn_phys::CrossbarKind;
use icn_tech::Technology;
use icn_topology::{blocking, StagePlan};

use crate::table::{trim_float, TextTable};
use icn_core::design::DesignPoint;

use super::Artifact;

/// Evaluate the paper's chip (16×16, W=4, DMC) across network sizes.
#[must_use]
pub fn scaling_study(tech: &Technology) -> Artifact {
    let mut t = TextTable::new(vec![
        "N'",
        "stages",
        "boards",
        "chips",
        "F (MHz)",
        "one-way (µs)",
        "round trip (µs)",
        "vs local",
        "P(block)@50%",
    ]);
    let mut rows = Vec::new();
    for ports in [256u32, 512, 1024, 2048, 4096, 8192, 16384] {
        let mut point = DesignPoint::paper_example(tech.clone(), CrossbarKind::Dmc);
        point.network_ports = ports;
        point.board_ports = 256.min(ports);
        let report = point.evaluate();
        let blocking = StagePlan::balanced_pow2(ports, 16)
            .map_or(f64::NAN, |plan| blocking::blocking_probability(&plan, 0.5));
        t.row(vec![
            ports.to_string(),
            report.rack.stages.to_string(),
            report.rack.total_boards.to_string(),
            report.rack.total_chips.to_string(),
            trim_float(report.frequency.mhz(), 1),
            trim_float(report.one_way.micros(), 2),
            trim_float(report.round_trip_total.micros(), 2),
            format!("{}x", trim_float(report.slowdown_vs_local, 1)),
            trim_float(blocking, 3),
        ]);
        rows.push(serde_json::json!({
            "ports": ports,
            "report": report,
            "blocking_at_half_load": blocking,
        }));
    }
    let text = format!(
        "Scaling the paper's design (16x16 W=4 DMC chips, 256-port boards)\n\n{}\n\
         the clock is trace-limited and flat beyond one board, so delay scales\n\
         with ceil(log16 N'); the >10x remote-access penalty appears at every\n\
         size the paper would call \"network centered\"\n",
        t.render()
    );
    Artifact {
        text,
        json: serde_json::json!({ "rows": rows }),
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn delay_steps_with_stage_count_and_clock_is_flat() {
        let r = scaling_study(&presets::paper1986());
        let rows = r.json["rows"].as_array().unwrap();
        let f = |i: usize| rows[i]["report"]["frequency"].as_f64().unwrap();
        let d = |i: usize| rows[i]["report"]["one_way"].as_f64().unwrap();
        // Clock identical for all multi-board sizes (same longest trace).
        assert!((f(1) - f(6)).abs() / f(1) < 0.01);
        // Delay strictly grows with stages: 512 (3 stages) vs 16384 (4).
        assert!(d(6) > d(1));
        // 256 ports (2 stages, single board) is faster than 2048 (3 stages).
        assert!(d(0) < d(3));
    }
}
