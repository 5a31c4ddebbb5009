//! The paper's round-trip conclusion, simulated closed-loop.
//!
//! §6 composes the remote-read round trip analytically (2 × one-way +
//! 200 ns). The closed-loop simulator actually sends requests through a
//! forward network, serves them at per-port memory modules, and routes
//! replies back through a reverse network — so reply-path contention and
//! memory queueing are measured rather than assumed away.

use icn_sim::{ChipModel, RoundTripConfig, SimConfig};
use icn_topology::StagePlan;
use icn_workloads::Workload;

use crate::table::{trim_float, TextTable};

use super::loaded_network::SimEffort;
use super::Artifact;

fn config_for(effort: SimEffort, load: f64, memory_cycles: u64) -> RoundTripConfig {
    let (plan, warmup, measure, drain) = match effort {
        SimEffort::Quick => (StagePlan::uniform(16, 2), 1_000u64, 3_000u64, 60_000u64),
        SimEffort::Full => (
            StagePlan::balanced_pow2(2048, 16).expect("2048 ports"),
            3_000,
            10_000,
            200_000,
        ),
    };
    let mut net = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(load));
    net.warmup_cycles = warmup;
    net.measure_cycles = measure;
    net.drain_cycles = drain;
    RoundTripConfig {
        net,
        memory_cycles,
        memory_service_cycles: 0,
    }
}

/// Run the closed-loop round-trip study: latency vs offered load, with the
/// §6 memory access time (200 ns ≈ 7 cycles at 32 MHz).
#[must_use]
pub fn roundtrip_sim(effort: SimEffort) -> Artifact {
    let memory_cycles = 7;
    let flit_cap = 1.0
        / config_for(effort, 0.0, memory_cycles)
            .net
            .flits_per_packet() as f64;
    let mut t = TextTable::new(vec![
        "offered",
        "completed",
        "RT mean (cyc)",
        "RT p99",
        "RT mean (µs @32MHz)",
        "expansion",
    ]);
    let mut rows = Vec::new();
    for frac in [0.05, 0.2, 0.4, 0.6] {
        let load = frac * flit_cap;
        let config = config_for(effort, load, memory_cycles);
        let analytic = config.analytic_unloaded_cycles();
        let result = icn_sim::run_roundtrip(config);
        let mean_us = result.round_trip_latency.mean / 32.0;
        t.row(vec![
            trim_float(load, 5),
            result.tracked_completed.to_string(),
            trim_float(result.round_trip_latency.mean, 1),
            result.round_trip_latency.p99.to_string(),
            trim_float(mean_us, 2),
            trim_float(result.expansion(), 2),
        ]);
        rows.push(serde_json::json!({
            "offered": load,
            "analytic_cycles": analytic,
            "result": result,
        }));
    }
    let text = format!(
        "Closed-loop remote reads (DMC W=4, memory {memory_cycles} cycles ≈ 200 ns @32 MHz)\n\n{}\n\
         expansion = mean round trip / (2 x one-way + memory); the paper's >2 µs\n\
         round trip is the expansion-1.0 floor — contention only adds to it\n",
        t.render()
    );
    Artifact {
        text,
        json: serde_json::json!({ "rows": rows }),
        notes: vec!["memory fully pipelined (best case, like the paper's fixed 200 ns)".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_roundtrip_study_runs() {
        let r = roundtrip_sim(SimEffort::Quick);
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        // Light-load expansion near 1; heavier loads not below it.
        let first = rows[0]["result"]["round_trip_latency"]["mean"]
            .as_f64()
            .unwrap();
        let last = rows[3]["result"]["round_trip_latency"]["mean"]
            .as_f64()
            .unwrap();
        assert!(last >= first, "round trip should not shrink with load");
        let analytic = rows[0]["analytic_cycles"].as_f64().unwrap();
        assert!(
            first >= analytic * 0.999,
            "mean {first} below floor {analytic}"
        );
        assert!(
            first <= analytic * 1.35,
            "light-load mean {first} too far above {analytic}"
        );
    }
}
