//! The Patel recurrence behind Figure 2, cross-checked by
//! Monte-Carlo simulation of circuit setup on the real wiring.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use icn_topology::{blocking, StagePlan};

use crate::table::{trim_float, TextTable};

use super::Artifact;

/// Compare analytic and Monte-Carlo acceptance for 4096-port balanced
/// plans at several stage counts and loads.
#[must_use]
pub fn blocking_validation() -> Artifact {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1986_0F02);
    let mut t = TextTable::new(vec![
        "stages",
        "offered",
        "acceptance (Patel)",
        "acceptance (Monte-Carlo)",
        "gap",
    ]);
    let mut rows = Vec::new();
    let mut max_gap: f64 = 0.0;
    for stages in [2u32, 3, 4, 6] {
        let plan = StagePlan::balanced_pow2_stages(4096, stages).expect("valid plan");
        for offered in [0.5, 1.0] {
            let analytic = blocking::acceptance(&plan, offered);
            let measured = icn_sim::blocking::monte_carlo_acceptance(&plan, offered, 60, &mut rng);
            let gap = (analytic - measured).abs();
            max_gap = max_gap.max(gap);
            t.row(vec![
                stages.to_string(),
                trim_float(offered, 2),
                trim_float(analytic, 4),
                trim_float(measured, 4),
                trim_float(gap, 4),
            ]);
            rows.push(serde_json::json!({
                "stages": stages,
                "offered": offered,
                "analytic": analytic,
                "monte_carlo": measured,
                "gap": gap,
            }));
        }
    }
    let text = format!(
        "Figure 2's recurrence vs direct circuit-setup simulation (4096 ports)\n\n{}\n\
         largest gap: {:.4} — the independence approximation is good for uniform traffic\n",
        t.render(),
        max_gap
    );
    Artifact {
        text,
        json: serde_json::json!({ "rows": rows, "max_gap": max_gap }),
        notes: vec!["60 trials per point, seeded; gaps shrink with more trials".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recurrence_and_monte_carlo_agree() {
        let r = blocking_validation();
        let max_gap = r.json["max_gap"].as_f64().unwrap();
        assert!(max_gap < 0.05, "max gap {max_gap}");
    }
}
