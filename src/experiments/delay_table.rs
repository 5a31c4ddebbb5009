//! The paper's second "Table 2": time through the network (µs).

use icn_phys::CrossbarKind;
use icn_units::Frequency;

use crate::table::{trim_float, TextTable};
use icn_core::delay;

use super::Artifact;

const FREQS_MHZ: [f64; 5] = [10.0, 20.0, 30.0, 40.0, 80.0];
const WIDTHS: [u32; 4] = [1, 2, 4, 8];

/// Regenerate the delay table: `P = 100`, `N = 16`, `512 ≤ N′ ≤ 4096`
/// (3 stages), for both chip models.
#[must_use]
pub fn delay_table() -> Artifact {
    let mut text = String::new();
    let mut cells = Vec::new();
    for kind in CrossbarKind::ALL {
        text.push_str(&format!("{kind} model — time through network (µs)\n"));
        let mut headers = vec!["W".to_string()];
        headers.extend(FREQS_MHZ.iter().map(|f| format!("{f} MHz")));
        let mut t = TextTable::new(headers);
        for w in WIDTHS {
            let mut row = vec![w.to_string()];
            for f_mhz in FREQS_MHZ {
                let us = delay::unloaded_delay(kind, 16, w, 100, 4096, Frequency::from_mhz(f_mhz))
                    .micros();
                row.push(trim_float(us, 2));
                cells.push(serde_json::json!({
                    "kind": kind.label(),
                    "w": w,
                    "f_mhz": f_mhz,
                    "delay_us": us,
                }));
            }
            t.row(row);
        }
        text.push_str(&t.render());
        text.push('\n');
    }
    Artifact {
        text,
        json: serde_json::json!({ "cells": cells }),
        notes: vec![
            "uses the paper's fractional P/W transfer time; the cycle-level simulator \
             reproduces the integer-flit version cycle-exactly (see sim-validation)"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_the_papers_flagship_cells() {
        let r = delay_table();
        // MCC W=1 @10 MHz = 14.8 µs; DMC W=2 @40 MHz = 59/40 = 1.475 µs
        // (the paper prints 1.48; binary 1.475 formats as 1.47 or 1.48).
        assert!(r.text.contains("14.8"), "{}", r.text);
        assert!(
            r.text.contains("1.48") || r.text.contains("1.47"),
            "{}",
            r.text
        );
        assert_eq!(r.json["cells"].as_array().unwrap().len(), 2 * 4 * 5);
    }
}
