//! §2.2's claim that DMC delay "grows as O(N²)".
//!
//! The DMUX/MUX crossbar's gate depth is O(log N), but its equal-length
//! bipartite harness wires grow as O(N²) (see
//! [`icn_phys::area::dmc_wire_length`]). Any wire-delay regime that is at
//! least linear in length (transmission line, buffered RC) therefore ends
//! up quadratic in N, overtaking the logarithmic gate term — the result
//! the paper cites from Padmanabhan [14]. This experiment tabulates both
//! terms across N and locates the crossover in normalized units (the paper
//! gives no on-chip wire-speed constant, so absolute nanoseconds would be
//! invented; the *shape* is the claim).

use icn_phys::area;
use icn_tech::Technology;

use crate::table::{trim_float, TextTable};

use super::Artifact;

/// Tabulate DMC harness wire length and the two delay terms across N.
#[must_use]
pub fn dmc_scaling(tech: &Technology) -> Artifact {
    let width = 4u32;
    // Normalize both delay terms to their N = 4 values.
    let base_wire = area::dmc_wire_length(tech, 4, width).microns();
    let base_gates = 2.0f64; // log2(4)
    let mut t = TextTable::new(vec![
        "N",
        "wire length (µm)",
        "wire delay (norm.)",
        "gate levels",
        "gate delay (norm.)",
        "dominant",
    ]);
    let mut rows = Vec::new();
    for n in [4u32, 8, 16, 32, 64] {
        let wire = area::dmc_wire_length(tech, n, width);
        let wire_norm = wire.microns() / base_wire;
        let gates = f64::from(n).log2();
        let gate_norm = gates / base_gates;
        t.row(vec![
            n.to_string(),
            trim_float(wire.microns(), 0),
            trim_float(wire_norm, 1),
            trim_float(gates, 0),
            trim_float(gate_norm, 2),
            if wire_norm > gate_norm {
                "wires".into()
            } else {
                "gates".into()
            },
        ]);
        rows.push(serde_json::json!({
            "n": n,
            "wire_um": wire.microns(),
            "wire_norm": wire_norm,
            "gate_levels": gates,
            "gate_norm": gate_norm,
        }));
    }
    let die_um = tech.process.die_edge.microns();
    let text = format!(
        "DMC intra-chip scaling at W = {width} (wire pitch d = {}λ, λ = {} µm)\n\n{}\n\
         harness wires reach millimetres well before the area limit (die edge \
         {die_um} µm);\nwith any length-proportional wire-delay regime the O(N²) \
         wire term overtakes\nthe O(log N) gate term almost immediately — §2.2's \
         \"overall delay ... grows as O(N²)\" [14]\n",
        tech.process.dmc_wire_pitch_lambda,
        tech.process.lambda.microns(),
        t.render(),
    );
    Artifact {
        text,
        json: serde_json::json!({ "width": width, "rows": rows }),
        notes: vec![
            "delays are normalized to N=4 (the paper provides no on-chip wire-speed \
             constant); the claim is about growth rates"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn wires_overtake_gates_and_grow_quadratically() {
        let r = dmc_scaling(&presets::paper1986());
        let rows = r.json["rows"].as_array().unwrap();
        // At N = 16 the wire term already dominates the gate term.
        let wire16 = rows[2]["wire_norm"].as_f64().unwrap();
        let gate16 = rows[2]["gate_norm"].as_f64().unwrap();
        assert!(wire16 > gate16, "wire {wire16} vs gate {gate16}");
        // Quadratic growth: 16 → 64 multiplies the wire term ~16×.
        let wire64 = rows[4]["wire_norm"].as_f64().unwrap();
        let ratio = wire64 / wire16;
        assert!((12.0..20.0).contains(&ratio), "16->64 wire ratio {ratio}");
    }
}
