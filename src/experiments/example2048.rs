//! §6: the 2048×2048 example, end to end.

use icn_phys::CrossbarKind;
use icn_tech::Technology;

use crate::table::TextTable;
use icn_core::design::DesignPoint;

use super::Artifact;

/// Run the §6 design pipeline for both crossbar kinds and report the
/// paper's headline numbers.
#[must_use]
pub fn example2048(tech: &Technology) -> Artifact {
    let mut t = TextTable::new(vec!["quantity", "DMC", "MCC", "paper"]);
    let dmc = DesignPoint::paper_example(tech.clone(), CrossbarKind::Dmc).evaluate();
    let mcc = DesignPoint::paper_example(tech.clone(), CrossbarKind::Mcc).evaluate();

    let rows: Vec<(&str, String, String, &str)> = vec![
        (
            "chip",
            format!("16x16 W=4, {} pins", dmc.pins.total()),
            format!("16x16 W=4, {} pins", mcc.pins.total()),
            "16x16 W=4",
        ),
        (
            "chip area fraction",
            format!("{:.2}", dmc.chip_area_fraction),
            format!("{:.2}", mcc.chip_area_fraction),
            "fits",
        ),
        (
            "boards",
            dmc.rack.total_boards.to_string(),
            mcc.rack.total_boards.to_string(),
            "16",
        ),
        (
            "chips",
            dmc.rack.total_chips.to_string(),
            mcc.rack.total_chips.to_string(),
            "384",
        ),
        (
            "longest wire",
            format!("{:.0} in", dmc.rack.longest_wire.inches()),
            format!("{:.0} in", mcc.rack.longest_wire.inches()),
            "35 in",
        ),
        (
            "clock",
            format!("{:.1} MHz", dmc.frequency.mhz()),
            format!("{:.1} MHz", mcc.frequency.mhz()),
            "~32 MHz",
        ),
        (
            "one-way delay",
            format!("{:.2} µs", dmc.one_way.micros()),
            format!("{:.2} µs", mcc.one_way.micros()),
            "~1 µs (DMC)",
        ),
        (
            "round trip (200 ns memory)",
            format!("{:.2} µs", dmc.round_trip_total.micros()),
            format!("{:.2} µs", mcc.round_trip_total.micros()),
            "> 2 µs",
        ),
        (
            "slowdown vs local",
            format!("{:.1}x", dmc.slowdown_vs_local),
            format!("{:.1}x", mcc.slowdown_vs_local),
            "> 10x",
        ),
        (
            "feasible",
            dmc.feasible().to_string(),
            mcc.feasible().to_string(),
            "yes",
        ),
    ];
    for (q, d, m, p) in rows {
        t.row(vec![q.to_string(), d, m, p.to_string()]);
    }
    let json = serde_json::json!({ "dmc": dmc, "mcc": mcc });
    Artifact {
        text: t.render(),
        json,
        notes: vec![
            "the paper's headline (32 MHz, ~1 µs one-way, >2 µs round trip, >10x slowdown) \
             is the DMC column"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn headline_numbers_present() {
        let r = example2048(&presets::paper1986());
        assert!(r.text.contains("MHz"));
        assert!(r.json["dmc"]["violations"].as_array().unwrap().is_empty());
        let f = r.json["dmc"]["frequency"].as_f64().unwrap();
        assert!((31e6..34e6).contains(&f), "{f}");
    }
}
