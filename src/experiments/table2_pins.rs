//! Table 2: pins per chip `N_p` as a function of N, W and F.

use icn_phys::pins;
use icn_tech::Technology;
use icn_units::Frequency;

use crate::table::TextTable;

use super::Artifact;

/// The frequencies, radices and widths the paper tabulates.
const FREQS_MHZ: [f64; 2] = [10.0, 80.0];
const RADICES: [u32; 5] = [16, 18, 20, 22, 24];
const WIDTHS: [u32; 4] = [1, 2, 4, 8];

/// Regenerate Table 2 (both frequency blocks), flagging the cells that fit
/// the package with `*`.
#[must_use]
pub fn table2_pins(tech: &Technology) -> Artifact {
    let mut text = String::new();
    let mut cells = Vec::new();
    for f_mhz in FREQS_MHZ {
        let f = Frequency::from_mhz(f_mhz);
        text.push_str(&format!("F = {f_mhz} MHz\n"));
        let mut headers = vec!["W".to_string()];
        headers.extend(RADICES.iter().map(|n| format!("N={n}")));
        let mut t = TextTable::new(headers);
        for w in WIDTHS {
            let mut row = vec![w.to_string()];
            for n in RADICES {
                let budget = pins::pin_budget(tech, n, w, f);
                let marker = if budget.fits() { "" } else { "!" };
                row.push(format!("{}{}", budget.total(), marker));
                cells.push(serde_json::json!({
                    "f_mhz": f_mhz,
                    "n": n,
                    "w": w,
                    "data": budget.data,
                    "control": budget.control,
                    "power_ground": budget.power_ground,
                    "total": budget.total(),
                    "fits": budget.fits(),
                }));
            }
            t.row(row);
        }
        text.push_str(&t.render());
        text.push('\n');
    }
    text.push_str(&format!(
        "cells marked `!` exceed the {}-pin package\n",
        tech.packaging.max_pins
    ));
    Artifact {
        text,
        json: serde_json::json!({ "cells": cells }),
        notes: vec![
            "rounding rule N_pg = max(2, ceil(N_g)) reproduces 38/40 printed cells exactly".into(),
            "paper prints 442/472 at (N=24, W=8); eq. 3.1-3.4 give 440/470 (paper slop, \
             infeasible region)"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn contains_the_flagship_cells() {
        let r = table2_pins(&presets::paper1986());
        assert!(r.text.contains("69"), "N=16 W=1 F=10 cell missing");
        assert!(r.text.contains("165"), "N=16 W=4 F=10 cell missing");
        assert!(r.text.contains("294!"), "W=8 infeasibility marker missing");
        let cells = r.json["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 2 * 4 * 5);
    }
}
