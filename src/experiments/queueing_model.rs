//! The Kruskal–Snir buffered-banyan baseline vs the cycle-level
//! simulator.
//!
//! §2 leans on earlier buffered-network studies for its design choices;
//! the standard analytic model of that literature is the Kruskal–Snir
//! asymptotic. Holding the simulator against it shows (a) the simulator's
//! queueing behaviour is sane at low load and (b) where the paper's actual
//! switch (single/few buffers, circuit-held multi-flit packets) departs
//! from the idealized model — head-of-line blocking makes saturation much
//! earlier and sharper.

use icn_sim::{ChipModel, SimConfig};
use icn_topology::{queueing, StagePlan};
use icn_workloads::Workload;

use crate::table::{trim_float, TextTable};

use super::loaded_network::SimEffort;
use super::Artifact;

/// Sweep utilization and compare the model's mean transit with the
/// simulator's (generous buffering to approximate the model's
/// assumptions).
#[must_use]
pub fn queueing_model(effort: SimEffort) -> Artifact {
    let plan = match effort {
        SimEffort::Quick => StagePlan::uniform(16, 2),
        SimEffort::Full => StagePlan::balanced_pow2(2048, 16).expect("2048 ports"),
    };
    let mut t = TextTable::new(vec![
        "utilization",
        "model (cyc)",
        "simulated (cyc)",
        "sim/model",
    ]);
    let mut rows = Vec::new();
    for rho in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6] {
        let mut c =
            SimConfig::paper_baseline(plan.clone(), ChipModel::Dmc, 4, Workload::uniform(0.0));
        let flits = c.flits_per_packet();
        c.workload.load = rho / flits as f64;
        c.buffer_capacity = 8;
        let (warmup, measure, drain) = match effort {
            SimEffort::Quick => (4_000, 12_000, 100_000),
            SimEffort::Full => (8_000, 24_000, 300_000),
        };
        c.warmup_cycles = warmup;
        c.measure_cycles = measure;
        c.drain_cycles = drain;
        c.seed = 5;
        let unloaded = c.analytic_unloaded_cycles();
        let model = queueing::predicted_mean_cycles(&plan, c.workload.load, flits, unloaded);
        let sim = icn_sim::run(c);
        let ratio = sim.network_latency.mean / model;
        t.row(vec![
            trim_float(rho, 2),
            trim_float(model, 1),
            trim_float(sim.network_latency.mean, 1),
            trim_float(ratio, 2),
        ]);
        rows.push(serde_json::json!({
            "utilization": rho,
            "model_cycles": model,
            "sim_mean_cycles": sim.network_latency.mean,
            "ratio": ratio,
        }));
    }
    let text = format!(
        "Kruskal–Snir baseline vs simulator ({}-port, DMC W=4, 8 buffers)\n\n{}\n\
         agreement within ~30% up to ρ ≈ 0.3; beyond that the circuit-held,\n\
         multi-flit switch saturates far earlier than the idealized model —\n\
         quantifying why the paper's RISC switch cannot be run near line rate\n",
        plan.ports(),
        t.render()
    );
    Artifact {
        text,
        json: serde_json::json!({ "rows": rows }),
        notes: vec!["model assumes unbounded buffers and steady state below saturation".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_simulation_at_low_load_and_departs_at_saturation() {
        let r = queueing_model(SimEffort::Quick);
        let rows = r.json["rows"].as_array().unwrap();
        let ratio = |i: usize| rows[i]["ratio"].as_f64().unwrap();
        // Low load: close agreement.
        assert!(
            (0.85..=1.35).contains(&ratio(0)),
            "rho=0.1 ratio {}",
            ratio(0)
        );
        assert!(
            (0.9..=1.8).contains(&ratio(2)),
            "rho=0.3 ratio {}",
            ratio(2)
        );
        // Saturation: the simulator is much slower than the model.
        assert!(ratio(5) > 2.0, "rho=0.6 ratio {}", ratio(5));
        // Ratios grow with load.
        assert!(ratio(5) > ratio(2));
    }
}
