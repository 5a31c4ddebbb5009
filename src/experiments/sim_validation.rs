//! The cycle-level simulator versus the §4 expressions.
//!
//! The paper's delay table is analytic; the simulator implements the actual
//! switch architecture. For a single packet in an empty network the two must
//! agree *cycle-exactly* (with the transfer term rounded up to whole flits).
//! This experiment sweeps every (chip model, width) cell and reports the
//! agreement.

use icn_sim::{ChipModel, Engine, SimConfig};
use icn_topology::StagePlan;
use icn_workloads::Workload;

use crate::table::TextTable;

use super::Artifact;

/// Run the single-packet validation over both chip models and all widths on
/// the paper's 3-stage radix-16 network.
#[must_use]
pub fn sim_validation() -> Artifact {
    let mut t = TextTable::new(vec![
        "model".to_string(),
        "W".to_string(),
        "analytic (cycles)".to_string(),
        "simulated (cycles)".to_string(),
        "match".to_string(),
    ]);
    let mut cells = Vec::new();
    let mut all_match = true;
    for chip in [ChipModel::Mcc, ChipModel::Dmc] {
        for width in [1u32, 2, 4, 8] {
            let plan = StagePlan::uniform(16, 3);
            let mut config =
                SimConfig::paper_baseline(plan.clone(), chip, width, Workload::uniform(0.0));
            config.warmup_cycles = 0;
            config.measure_cycles = 1;
            config.drain_cycles = 100_000;
            let analytic = config.analytic_unloaded_cycles();
            let mut engine = Engine::new(config);
            engine.inject(17, 4095);
            let result = engine.run();
            let simulated = result.network_latency.min;
            let ok = simulated == analytic && result.tracked_delivered == 1;
            all_match &= ok;
            t.row(vec![
                chip.label().to_string(),
                width.to_string(),
                analytic.to_string(),
                simulated.to_string(),
                if ok { "yes".into() } else { "NO".into() },
            ]);
            cells.push(serde_json::json!({
                "chip": chip.label(),
                "w": width,
                "analytic_cycles": analytic,
                "simulated_cycles": simulated,
                "match": ok,
            }));
        }
    }
    let text = format!(
        "Single packet, empty 4096-port network of 16x16 chips (3 stages)\n\n{}\nall cells \
         cycle-exact: {all_match}\n",
        t.render()
    );
    Artifact {
        text,
        json: serde_json::json!({ "cells": cells, "all_match": all_match }),
        notes: vec![
            "transfer term uses whole flits (ceil(P/W)); the printed table's fractional \
             P/W differs by < 1 cycle at W = 8"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cells_match() {
        let r = sim_validation();
        assert_eq!(r.json["all_match"], true, "{}", r.text);
    }
}
