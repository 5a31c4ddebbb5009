//! Table 1: variable names, typical values, definitions.

use icn_tech::Technology;

use crate::table::TextTable;

use super::Artifact;

/// Regenerate Table 1 from the technology parameter set (plus the fixed
/// network parameters the table lists alongside it).
#[must_use]
pub fn table1(tech: &Technology) -> Artifact {
    let mut t = TextTable::new(vec!["variable", "typical value", "definition"]);
    let rows: Vec<(&str, String, &str)> = vec![
        (
            "N'",
            "2048".into(),
            "Size of overall interconnection network",
        ),
        ("N", "16x16".into(), "Size of crossbar switch module (NxN)"),
        (
            "Np",
            format!("<= {}", tech.packaging.max_pins),
            "Number of pins on a switch module chip",
        ),
        ("W", "1,2,4,8".into(), "Width (lines) of a data path"),
        ("P", "100".into(), "Packet size in bits"),
        ("F", "10..80 MHz".into(), "Clock frequency"),
        ("VDD", format!("{}", tech.clocking.supply), "Supply voltage"),
        (
            "dVmax",
            format!("{}", tech.clocking.rail_bounce_budget),
            "Allowable variation in supply voltages",
        ),
        (
            "Z0",
            format!("{}", tech.packaging.driver_impedance),
            "Line driver impedance",
        ),
        (
            "L",
            format!("{}", tech.packaging.pin_inductance),
            "Chip pin inductance",
        ),
        (
            "lambda",
            format!("{:.1} µm", tech.process.lambda.microns()),
            "Layout scale factor",
        ),
        (
            "D_L",
            format!(
                "{:.0} + {:.0} ns",
                tech.process.logic_delay.nanos(),
                tech.process.memory_delay.nanos()
            ),
            "Logic + memory delay",
        ),
    ];
    for (name, value, def) in &rows {
        t.row(vec![(*name).to_string(), value.clone(), (*def).to_string()]);
    }
    let json = serde_json::json!({
        "technology": tech.name,
        "parameters": tech,
    });
    Artifact {
        text: t.render(),
        json,
        notes: vec![format!("technology preset: {}", tech.name)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn renders_the_paper_constants() {
        let r = table1(&presets::paper1986());
        assert!(r.text.contains("2048"));
        assert!(r.text.contains("5.00 nH"));
        assert!(r.text.contains("50.0 Ω"));
        assert!(r.text.contains("1.5 µm"));
    }
}
