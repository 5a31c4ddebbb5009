//! §2's chip-cost claim: a multistage network is far cheaper in chips
//! than a tiled full crossbar.

use icn_phys::cost::CostComparison;

use crate::table::{trim_float, TextTable};

use super::Artifact;

/// Compare delta-network and tiled-crossbar chip counts across network
/// sizes for the paper's 16×16 chips.
#[must_use]
pub fn cost_comparison() -> Artifact {
    let mut t = TextTable::new(vec!["N'", "delta chips", "crossbar chips", "overhead"]);
    let mut rows = Vec::new();
    for ports in [256u32, 512, 1024, 2048, 4096, 8192, 16384] {
        let c = CostComparison::compute(ports, 16);
        t.row(vec![
            ports.to_string(),
            c.delta_chips.to_string(),
            c.crossbar_chips.to_string(),
            format!("{}x", trim_float(c.crossbar_overhead(), 1)),
        ]);
        rows.push(c);
    }
    let text = format!(
        "Chips to build an N'xN' network from 16x16 chips: multistage (delta) vs\n\
         tiled full crossbar (sec. 2's justification for the N log N topology)\n\n{}",
        t.render()
    );
    Artifact {
        text,
        json: serde_json::json!({ "rows": rows }),
        notes: vec![
            "the paper cites [7] for this comparison; counts here are exact tilings".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_row_is_present() {
        let r = cost_comparison();
        assert!(r.text.contains("384"));
        assert!(r.text.contains("16384"));
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 7);
    }
}
