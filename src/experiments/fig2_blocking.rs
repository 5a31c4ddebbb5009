//! Figure 2: blocking probability vs number of stages (N′ = 4096).

use icn_topology::blocking;

use crate::table::{trim_float, TextTable};

use super::Artifact;

/// Regenerate Figure 2 as a table plus an ASCII plot, at full offered load,
/// using balanced stage plans for every stage count 1..=12.
#[must_use]
pub fn fig2_blocking() -> Artifact {
    let points = blocking::figure2_sweep(4096, 1.0);
    let mut t = TextTable::new(vec!["stages", "radices (min..max)", "P(block)", "plot"]);
    for p in &points {
        let bar = "#".repeat((p.blocking * 40.0).round() as usize);
        t.row(vec![
            p.stages.to_string(),
            if p.min_radix == p.max_radix {
                format!("{}", p.max_radix)
            } else {
                format!("{}..{}", p.min_radix, p.max_radix)
            },
            trim_float(p.blocking, 3),
            bar,
        ]);
    }
    let five = points
        .iter()
        .find(|p| p.stages == 5)
        .expect("5-stage point");
    let three = points
        .iter()
        .find(|p| p.stages == 3)
        .expect("3-stage point");
    let cut = (five.blocking - three.blocking) / five.blocking;
    let text = format!(
        "Blocking probability vs stages, N' = 4096, full load (Patel recurrence)\n\n{}\n\
         checkpoint: 5 -> 3 stages cuts blocking by {:.1}% (paper: \"about 10%\")\n",
        t.render(),
        cut * 100.0
    );
    let json = serde_json::json!({
        "ports": 4096,
        "offered": 1.0,
        "points": points,
        "five_to_three_relative_cut": cut,
    });
    Artifact {
        text,
        json,
        notes: vec![
            "balanced power-of-two stage plans; the paper's curve is \"based on the formula \
             derived in [15]\" (Patel)"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_about_ten_percent() {
        let r = fig2_blocking();
        let cut = r.json["five_to_three_relative_cut"].as_f64().unwrap();
        assert!((0.08..=0.14).contains(&cut), "cut {cut}");
        assert_eq!(r.json["points"].as_array().unwrap().len(), 12);
    }
}
