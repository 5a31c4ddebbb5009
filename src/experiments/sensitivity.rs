//! Sensitivity of the §6 conclusion to each physical parameter.
//!
//! §6 adds five delay terms and concludes 32 MHz. Which of them actually
//! limits the design? This experiment perturbs each input ±20 % and
//! reports the achievable frequency, ranking the parameters by leverage.
//! The result quantifies the paper's implicit claim that logic delay and
//! skew dominate — and shows what a designer should attack first.

use icn_phys::{ClockBudget, ClockScheme, CrossbarKind};
use icn_tech::Technology;
use icn_units::Length;

use crate::table::{trim_float, TextTable};
use icn_core::design::DesignPoint;

use super::Artifact;

/// Frequency with one parameter scaled by `factor`.
fn frequency_with(tech: &Technology, param: &str, factor: f64) -> f64 {
    let mut t = tech.clone();
    match param {
        "logic_delay" => t.process.logic_delay = t.process.logic_delay * factor,
        "memory_delay" => t.process.memory_delay = t.process.memory_delay * factor,
        "driver_delay" => t.packaging.driver_delay = t.packaging.driver_delay * factor,
        "board_speed" => {
            t.board.propagation_delay_per_length = t.board.propagation_delay_per_length * factor;
        }
        "htree_rc" => t.process.htree_branch_rc = t.process.htree_branch_rc * factor,
        "tau_variation" => t.clocking.tau_variation *= factor,
        "threshold_variation" => t.clocking.threshold_variation *= factor,
        other => panic!("unknown parameter {other}"),
    }
    ClockBudget::compute(&t, 16, Length::from_inches(35.0))
        .max_frequency(ClockScheme::MultiplePulse)
        .mhz()
}

/// Perturb each §6 input ±20 % and report the frequency leverage.
#[must_use]
pub fn sensitivity(tech: &Technology) -> Artifact {
    let base = ClockBudget::compute(tech, 16, Length::from_inches(35.0))
        .max_frequency(ClockScheme::MultiplePulse)
        .mhz();
    let params = [
        "logic_delay",
        "memory_delay",
        "driver_delay",
        "board_speed",
        "htree_rc",
        "tau_variation",
        "threshold_variation",
    ];
    let mut entries: Vec<(String, f64, f64, f64)> = params
        .iter()
        .map(|&p| {
            let minus = frequency_with(tech, p, 0.8);
            let plus = frequency_with(tech, p, 1.2);
            // Leverage: |ΔF| for a ±20 % parameter change, symmetrized.
            let leverage = (minus - plus).abs() / 2.0;
            (p.to_string(), minus, plus, leverage)
        })
        .collect();
    entries.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite"));

    let mut t = TextTable::new(vec![
        "parameter",
        "F at -20% (MHz)",
        "F at +20% (MHz)",
        "leverage (MHz per ±20%)",
    ]);
    let mut rows = Vec::new();
    for (p, minus, plus, leverage) in &entries {
        t.row(vec![
            p.clone(),
            trim_float(*minus, 1),
            trim_float(*plus, 1),
            trim_float(*leverage, 2),
        ]);
        rows.push(serde_json::json!({
            "parameter": p,
            "f_minus20_mhz": minus,
            "f_plus20_mhz": plus,
            "leverage_mhz": leverage,
        }));
    }
    // And the end-to-end consequence: one-way delay with the top parameter
    // improved 20 %.
    let mut improved = tech.clone();
    improved.process.logic_delay = improved.process.logic_delay * 0.8;
    let base_report = DesignPoint::paper_example(tech.clone(), CrossbarKind::Dmc).evaluate();
    let better_report = DesignPoint::paper_example(improved, CrossbarKind::Dmc).evaluate();
    let text = format!(
        "Sensitivity of the achievable frequency (base {base:.1} MHz, 16x16 chip, \
         35 in trace)\n\n{}\n\
         the biggest single lever — 20% faster logic — moves the end-to-end one-way \
         delay only {:.2} -> {:.2} µs,\nbecause path delay and skew are set by \
         distance: the paper's conclusion is robust to circuit tuning\n",
        t.render(),
        base_report.one_way.micros(),
        better_report.one_way.micros(),
    );
    Artifact {
        text,
        json: serde_json::json!({ "base_mhz": base, "rows": rows }),
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn logic_delay_is_the_top_lever_and_memory_the_least() {
        let r = sensitivity(&presets::paper1986());
        let rows = r.json["rows"].as_array().unwrap();
        // Rows are sorted by leverage, descending.
        assert_eq!(rows[0]["parameter"], "logic_delay");
        let last = rows.last().unwrap();
        assert_eq!(last["parameter"], "memory_delay");
        // Every -20% frequency is above every +20% frequency for delay-like
        // parameters (monotone model).
        for row in rows {
            let minus = row["f_minus20_mhz"].as_f64().unwrap();
            let plus = row["f_plus20_mhz"].as_f64().unwrap();
            assert!(minus >= plus, "{row}");
        }
    }
}
