//! Table 3: the largest crossbar that fits a 1 cm × 1 cm chip.

use icn_phys::{area, CrossbarKind};
use icn_tech::Technology;

use crate::table::TextTable;

use super::Artifact;

/// Regenerate Table 3: maximum feasible crossbar radix per width, for both
/// crossbar implementations.
#[must_use]
pub fn table3_area(tech: &Technology) -> Artifact {
    let mut t = TextTable::new(vec!["W", "MCC", "DMC"]);
    let mut rows = Vec::new();
    for w in [1u32, 2, 4, 8] {
        let mcc = area::max_crossbar(tech, CrossbarKind::Mcc, w);
        let dmc = area::max_crossbar(tech, CrossbarKind::Dmc, w);
        let fmt = |v: Option<u32>| v.map_or_else(|| "-".to_string(), |n| n.to_string());
        t.row(vec![w.to_string(), fmt(mcc), fmt(dmc)]);
        rows.push(serde_json::json!({
            "w": w,
            "mcc_max": mcc,
            "dmc_max": dmc,
        }));
    }
    let text = format!(
        "Largest subnetwork on a {:.0} mm x {:.0} mm chip (lambda = {} µm)\n\n{}",
        tech.process.die_edge.meters() * 1e3,
        tech.process.die_edge.meters() * 1e3,
        tech.process.lambda.microns(),
        t.render()
    );
    Artifact {
        text,
        json: serde_json::json!({ "rows": rows }),
        notes: vec![
            "MCC layout overhead 2.1609 (1.47 linear) calibrated to reproduce the printed \
             MCC column (raw formulas give 48/41/33/22); see DESIGN.md"
                .into(),
            "DMC wire pitch d = 6 lambda calibrated to the paper's stated 18x18 limit at W=4; \
             eq. 3.9's (N-1)^3 treated as a typo for eq. 3.7's (N-1)^4"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn matches_the_printed_mcc_column_and_dmc_w4() {
        let r = table3_area(&presets::paper1986());
        for needle in ["37", "32", "25", "17", "18"] {
            assert!(r.text.contains(needle), "missing {needle} in:\n{}", r.text);
        }
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows[2]["mcc_max"], 25);
        assert_eq!(rows[2]["dmc_max"], 18);
    }
}
