//! §3.3/§3.4: board layout and connector feasibility.

use icn_phys::BoardLayout;
use icn_tech::Technology;
use icn_units::Frequency;

use crate::table::TextTable;

use super::Artifact;

/// Regenerate the §3.3 board-layout numbers (256×256 board of 16×16/W=4
/// chips) and the §3.4 connector feasibility check.
#[must_use]
pub fn board_layout(tech: &Technology) -> Artifact {
    let b = BoardLayout::plan(tech, 16, 4, 256, Frequency::from_mhz(32.0));
    let mut t = TextTable::new(vec!["quantity", "value", "paper"]);
    let rows: Vec<(&str, String, &str)> = vec![
        ("stages on board", b.stages.to_string(), "2"),
        ("chips per stage", b.chips_per_stage.to_string(), "16"),
        (
            "package edge",
            format!("{:.2} in", b.package_edge.inches()),
            "~2 in",
        ),
        ("board edge", format!("{:.1} in", b.edge.inches()), "~32 in"),
        ("wires per gap", b.wires_per_gap.to_string(), "1280"),
        ("wires per layer", b.wires_per_layer.to_string(), "640"),
        (
            "available pitch",
            format!("{:.0} mil", b.available_pitch.mils()),
            "50 mil (minimum)",
        ),
        (
            "gap routing area",
            format!("{:.1} in²", b.gap_routing_area.square_inches()),
            "73 in²",
        ),
        (
            "routing width",
            format!(
                "{:.2} in (allow {:.0})",
                b.routing_width.inches(),
                b.routing_allowance.inches()
            ),
            "~3 in",
        ),
        (
            "longest trace",
            format!("{:.0} in", b.longest_trace.inches()),
            "35 in",
        ),
        ("external lines", b.external_lines.to_string(), "1280"),
        (
            "connectors needed",
            b.connectors_needed.to_string(),
            "8 (paper rounds up)",
        ),
        ("feasible", b.fits().to_string(), "yes"),
    ];
    for (q, v, p) in rows {
        t.row(vec![q.to_string(), v, p.to_string()]);
    }
    let json = serde_json::to_value(&b).expect("board layout serializes");
    Artifact {
        text: t.render(),
        json,
        notes: vec!["connectors: ceil(1280 / 200) = 7; the paper allocates 8".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn matches_section_3_3() {
        let r = board_layout(&presets::paper1986());
        assert!(r.text.contains("1280"));
        assert!(r.text.contains("73"));
        assert!(r.text.contains("35 in"));
        assert_eq!(r.json["wires_per_layer"], 640);
    }
}
