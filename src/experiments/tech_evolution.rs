//! Does the paper's conclusion survive a technology generation?
//!
//! The paper's closing worry is that the remote-access penalty is
//! structural. Re-running the §6 pipeline under a scaled early-90s CMOS
//! preset (and under a deliberately conservative 1986 one) shows which
//! parts move: faster logic raises the clock, but the board-scale trace
//! delay and skew — set by physical distance — do not scale with the
//! process, so the penalty shrinks only modestly.

use icn_phys::CrossbarKind;
use icn_tech::presets;

use crate::table::{trim_float, TextTable};
use icn_core::design::DesignPoint;
use icn_core::explore::{best, explore, ExploreSpec};

use super::Artifact;

/// Evaluate the paper design point and the best explored design under each
/// built-in technology preset.
#[must_use]
pub fn tech_evolution() -> Artifact {
    let mut t = TextTable::new(vec![
        "technology",
        "paper design feasible",
        "F (MHz)",
        "one-way (µs)",
        "vs local",
        "best design in space",
        "best one-way (µs)",
    ]);
    let mut rows = Vec::new();
    for tech in presets::all() {
        let report = DesignPoint::paper_example(tech.clone(), CrossbarKind::Dmc).evaluate();
        let designs = explore(&tech, &ExploreSpec::paper_space());
        let best_design = best(&designs);
        let (best_label, best_delay) = best_design.map_or_else(
            || ("none".to_string(), "-".to_string()),
            |d| {
                (
                    format!(
                        "{} N={} W={}",
                        d.report.point.kind, d.report.point.chip_radix, d.report.point.width
                    ),
                    trim_float(d.report.one_way.micros(), 2),
                )
            },
        );
        t.row(vec![
            tech.name.clone(),
            report.feasible().to_string(),
            trim_float(report.frequency.mhz(), 1),
            trim_float(report.one_way.micros(), 2),
            format!("{}x", trim_float(report.slowdown_vs_local, 1)),
            best_label,
            best_delay,
        ]);
        rows.push(serde_json::json!({
            "technology": tech.name,
            "paper_design": report,
            "best": best_design,
        }));
    }
    let text = format!(
        "The sec. 6 pipeline under three technology presets (N' = 2048)\n\n{}\n\
         a process generation helps, but board-scale distance (trace + skew)\n\
         doesn't shrink with lambda — the remote-access penalty is structural,\n\
         which is the paper's closing point\n",
        t.render()
    );
    Artifact {
        text,
        json: serde_json::json!({ "rows": rows }),
        notes: vec!["presets: paper-1986-mos-pga, scaled-cmos-early90s, conservative-1986".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_tech_helps_but_conservative_fails() {
        let r = tech_evolution();
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 3);
        let paper_delay = rows[0]["paper_design"]["one_way"].as_f64().unwrap();
        let scaled_delay = rows[1]["paper_design"]["one_way"].as_f64().unwrap();
        assert!(
            scaled_delay < paper_delay,
            "a process generation should help: {scaled_delay} vs {paper_delay}"
        );
        // The paper's design remains feasible in the scaled technology.
        let scaled_feasible = rows[1]["paper_design"]["violations"]
            .as_array()
            .unwrap()
            .is_empty();
        assert!(
            scaled_feasible,
            "scaled tech should host the paper's design"
        );
        // But not by an order of magnitude: distance doesn't scale.
        assert!(scaled_delay > paper_delay / 4.0);
        // The conservative package cannot host the paper's chip.
        let conservative_feasible = rows[2]["paper_design"]["violations"]
            .as_array()
            .unwrap()
            .is_empty();
        assert!(!conservative_feasible);
    }
}
