//! §6.2: the clock delay budget and achievable frequency.

use icn_phys::{ClockBudget, ClockScheme};
use icn_tech::Technology;
use icn_units::Length;

use crate::table::TextTable;

use super::Artifact;

/// Regenerate the §6.2 clock budget for the 16×16 chip with a 35 in
/// worst-case trace.
#[must_use]
pub fn clock_budget(tech: &Technology) -> Artifact {
    let b = ClockBudget::compute(tech, 16, Length::from_inches(35.0));
    let mut t = TextTable::new(vec!["term", "value (ns)", "paper (ns)"]);
    let rows: Vec<(&str, f64, &str)> = vec![
        ("D_L (logic+memory)", b.d_l.nanos(), "14"),
        ("D_P (driver+trace)", b.d_p.nanos(), "8.3"),
        ("tau_chip (H-tree, eq 6.1)", b.tau_chip.nanos(), "4.1"),
        ("tau_board", b.tau_board.nanos(), "8.3"),
        ("tau total", b.tau.nanos(), "12.4"),
        ("skew delta (eq 5.3)", b.skew.nanos(), "8.7"),
        (
            "signal constraint D_L+D_P+delta",
            b.signal_constraint().nanos(),
            "31",
        ),
        ("tree constraint 2*tau", b.tree_constraint().nanos(), "24.8"),
    ];
    for (term, v, p) in rows {
        t.row(vec![term.to_string(), format!("{v:.2}"), p.to_string()]);
    }
    let f_std = b.max_frequency(ClockScheme::Standard);
    let f_mp = b.max_frequency(ClockScheme::MultiplePulse);
    let text = format!(
        "{}\nmax frequency: standard {:.1} MHz, multiple-pulse {:.1} MHz (paper: ~32 MHz, \
         equal under both schemes since the signal constraint dominates)\n",
        t.render(),
        f_std.mhz(),
        f_mp.mhz()
    );
    let json = serde_json::json!({
        "budget": b,
        "f_standard_mhz": f_std.mhz(),
        "f_multiple_pulse_mhz": f_mp.mhz(),
        "tree_limited": b.tree_limited(),
    });
    Artifact {
        text,
        json,
        notes: vec![
            "paper rounds D_P = 8.25 ns to 8.3 and skew 0.691*tau to 0.7*tau; we keep full \
             precision internally"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn frequency_is_about_32_mhz() {
        let r = clock_budget(&presets::paper1986());
        let f = r.json["f_multiple_pulse_mhz"].as_f64().unwrap();
        assert!((31.0..=34.0).contains(&f), "{f} MHz");
        assert_eq!(r.json["tree_limited"], false);
    }
}
