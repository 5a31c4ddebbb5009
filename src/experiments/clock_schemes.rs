//! Standard vs Multiple-Pulse clocking across system scale (§5).
//!
//! §5 argues that as clock lines grow, the `2τ` charge/discharge floor of
//! the Standard scheme dominates, and the Multiple-Pulse scheme (clock
//! lines as matched transmission lines) removes it. This experiment sweeps
//! the worst-case trace length and reports both schemes' achievable
//! frequencies, locating the crossover where the clock tree becomes the
//! limit.

use icn_phys::{ClockBudget, ClockScheme};
use icn_tech::Technology;
use icn_units::Length;

use crate::table::{trim_float, TextTable};

use super::Artifact;

/// Sweep the worst-case trace length for a 16×16-chip system and compare
/// clock schemes.
#[must_use]
pub fn clock_schemes(tech: &Technology) -> Artifact {
    let mut t = TextTable::new(vec![
        "trace (in)",
        "signal constraint (ns)",
        "2*tau (ns)",
        "F standard (MHz)",
        "F multi-pulse (MHz)",
        "tree-limited",
    ]);
    let mut rows = Vec::new();
    let mut crossover: Option<f64> = None;
    for trace_in in [5.0, 15.0, 35.0, 60.0, 100.0, 150.0, 250.0, 400.0] {
        let b = ClockBudget::compute(tech, 16, Length::from_inches(trace_in));
        let f_std = b.max_frequency(ClockScheme::Standard);
        let f_mp = b.max_frequency(ClockScheme::MultiplePulse);
        if b.tree_limited() && crossover.is_none() {
            crossover = Some(trace_in);
        }
        t.row(vec![
            trim_float(trace_in, 0),
            trim_float(b.signal_constraint().nanos(), 1),
            trim_float(b.tree_constraint().nanos(), 1),
            trim_float(f_std.mhz(), 1),
            trim_float(f_mp.mhz(), 1),
            b.tree_limited().to_string(),
        ]);
        rows.push(serde_json::json!({
            "trace_in": trace_in,
            "budget": b,
            "f_standard_mhz": f_std.mhz(),
            "f_multiple_pulse_mhz": f_mp.mhz(),
            "tree_limited": b.tree_limited(),
        }));
    }
    let text = format!(
        "Standard vs Multiple-Pulse clocking across trace length (16x16 chips)\n\n{}\n\
         crossover (tree becomes the limit): {}\n\
         at the paper's 35 in the signal constraint dominates, so both schemes give\n\
         the same ~32 MHz (sec. 6.2's observation)\n",
        t.render(),
        crossover.map_or("beyond the sweep".to_string(), |c| format!("≈ {c} in")),
    );
    Artifact {
        text,
        json: serde_json::json!({ "rows": rows, "crossover_in": crossover }),
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn crossover_exists_and_is_beyond_35_inches() {
        let r = clock_schemes(&presets::paper1986());
        let crossover = r.json["crossover_in"].as_f64();
        assert!(
            crossover.is_some(),
            "expected a tree-limited point in the sweep"
        );
        assert!(
            crossover.unwrap() > 35.0,
            "paper's 35 in must be signal-limited"
        );
    }
}
