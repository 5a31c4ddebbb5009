//! The power bill implied by the Appendix's electrical model.
//!
//! The Appendix computes the worst-case simultaneous switching current of
//! one chip to size its ground pins. Summing the same model across the §6
//! rack turns Table 1's constants into a facility-level constraint the
//! paper leaves implicit: kilowatts of line-drive power and kiloamperes of
//! worst-case supply transient.

use icn_phys::{power, CrossbarKind};
use icn_tech::Technology;

use crate::table::{trim_float, TextTable};
use icn_core::design::DesignPoint;

use super::Artifact;

/// I/O power and supply-current budget of the §6 network at several output
/// activity factors.
#[must_use]
pub fn power_budget(tech: &Technology) -> Artifact {
    let report = DesignPoint::paper_example(tech.clone(), CrossbarKind::Dmc).evaluate();
    let chips = u64::from(report.rack.total_chips);
    let mut t = TextTable::new(vec![
        "activity",
        "per pin (W)",
        "per chip (W)",
        "network (kW)",
        "worst-case Δi/chip (A)",
        "worst-case Δi/network (kA)",
    ]);
    let mut rows = Vec::new();
    for activity in [0.25, 0.5, 1.0] {
        let b = power::io_power_budget(tech, 16, 4, chips, activity);
        t.row(vec![
            trim_float(activity, 2),
            trim_float(power::pin_drive_power(tech, activity).watts(), 3),
            trim_float(b.chip_power.watts(), 2),
            trim_float(b.network_power.watts() / 1e3, 2),
            trim_float(b.chip_transient_current.amps(), 1),
            trim_float(b.network_transient_current.amps() / 1e3, 2),
        ]);
        rows.push(serde_json::json!({ "activity": activity, "budget": b }));
    }
    let text = format!(
        "I/O drive power of the sec. 6 network ({chips} chips of 16x16 W=4, V_DD = 5 V, \
         Z0 = 50 Ω)\n\n{}\n\
         the worst-case per-chip transient (the Appendix's Δi) is what forces the\n\
         power/ground pin allocation of Table 2; summed across the rack it shows\n\
         why ΔV_max is a system-level constraint, not a chip nicety\n",
        t.render()
    );
    Artifact {
        text,
        json: serde_json::json!({ "chips": chips, "rows": rows }),
        notes: vec![
            "drive power model: a·V_DD²/(4·Z0) per active output pin (series-matched)".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn kilowatt_scale_at_half_activity() {
        let r = power_budget(&presets::paper1986());
        assert_eq!(r.json["chips"], 384);
        let rows = r.json["rows"].as_array().unwrap();
        let half = &rows[1]["budget"];
        assert!((half["chip_power"].as_f64().unwrap() - 5.0).abs() < 1e-9);
        assert!((half["network_power"].as_f64().unwrap() - 1920.0).abs() < 1e-6);
    }
}
