//! Figure 1: the 16×16 N log N network of 2×2 switch modules.

use icn_topology::{verify, StagePlan, Topology};

use super::Artifact;

/// Regenerate Figure 1 as an adjacency listing (stage structure plus an
/// example path), with the delta-network invariants verified exhaustively.
#[must_use]
pub fn fig1_topology() -> Artifact {
    let plan = StagePlan::uniform(2, 4);
    let topology = Topology::new(plan.clone());
    let report = verify::verify(&topology);

    let mut text = String::new();
    text.push_str(&format!(
        "{plan}: {} stages x {} modules of 2x2\n\n",
        plan.stages(),
        plan.modules_in_stage(0)
    ));
    for stage in 0..topology.stages() {
        text.push_str(&format!("stage {stage} shuffle: "));
        let pairs: Vec<String> = (0..topology.ports())
            .map(|l| format!("{l}->{}", topology.shuffle(stage, l)))
            .collect();
        text.push_str(&pairs.join(" "));
        text.push('\n');
    }
    let example = topology.route(5, 12);
    text.push_str(&format!("\nexample path: {example}\n"));
    text.push_str(&format!(
        "invariants: full access {} ({} misroutes), shuffles bijective {}\n",
        report.misroutes.is_empty(),
        report.misroutes.len(),
        report.broken_shuffles.is_empty()
    ));

    let json = serde_json::json!({
        "ports": topology.ports(),
        "stages": topology.stages(),
        "modules_per_stage": plan.modules_in_stage(0),
        "full_access": report.misroutes.is_empty(),
        "example_path_hops": example.hops.len(),
    });
    Artifact {
        text,
        json,
        notes: vec!["verification is exhaustive over all 256 (src, dest) pairs".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_invariants_hold() {
        let r = fig1_topology();
        assert_eq!(r.json["full_access"], true);
        assert_eq!(r.json["stages"], 4);
        assert_eq!(r.json["modules_per_stage"], 8);
        assert!(r.text.contains("example path"));
    }
}
