//! What the paper set aside: blocking, hot spots, and the switch
//! design ablations of §2.
//!
//! §4 computes best-case delays "ignoring blocking and hot spot delays";
//! §2 asserts (citing earlier studies) that ~4 input buffers capture most of
//! the buffering gain and that the pass-through mechanism matters under
//! light load. These experiments measure all of that on the actual switch
//! architecture.

use icn_sim::{self, Arbitration, ChipModel, SimConfig};
use icn_topology::StagePlan;
use icn_workloads::Workload;

use crate::table::{trim_float, TextTable};

use super::Artifact;

/// How much simulation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEffort {
    /// Small network, short windows — seconds of runtime; used by tests and
    /// the default CLI.
    Quick,
    /// The paper-scale 2048-port network with long windows.
    Full,
}

impl SimEffort {
    fn plan(self) -> StagePlan {
        match self {
            Self::Quick => StagePlan::uniform(16, 2),
            Self::Full => StagePlan::balanced_pow2(2048, 16).expect("2048 is a power of two"),
        }
    }

    fn windows(self) -> (u64, u64, u64) {
        match self {
            Self::Quick => (1_000, 4_000, 40_000),
            Self::Full => (4_000, 16_000, 160_000),
        }
    }

    pub(crate) fn base_config(self, workload: Workload) -> SimConfig {
        let (warmup, measure, drain) = self.windows();
        let mut c = SimConfig::paper_baseline(self.plan(), ChipModel::Dmc, 4, workload);
        c.warmup_cycles = warmup;
        c.measure_cycles = measure;
        c.drain_cycles = drain;
        c
    }
}

/// Uniform-load sweep plus a hot-spot comparison.
#[must_use]
pub fn loaded_network(effort: SimEffort) -> Artifact {
    let base = effort.base_config(Workload::uniform(0.0));
    let flit_cap = 1.0 / base.flits_per_packet() as f64;
    // Offered loads as fractions of the flit-serialized line capacity.
    let fractions = [0.1, 0.3, 0.5, 0.7, 0.9, 1.2];
    let loads: Vec<f64> = fractions.iter().map(|f| (f * flit_cap).min(1.0)).collect();
    let points = icn_sim::sweep_load(&base, &loads);

    let mut t = TextTable::new(vec![
        "offered (pkt/port/cyc)",
        "delivered",
        "throughput",
        "mean latency (cyc)",
        "p99",
        "expansion vs unloaded",
    ]);
    for p in &points {
        let r = &p.result;
        t.row(vec![
            trim_float(p.offered_load, 5),
            r.tracked_delivered.to_string(),
            trim_float(r.throughput, 5),
            trim_float(r.network_latency.mean, 1),
            r.network_latency.p99.to_string(),
            trim_float(r.latency_expansion(), 2),
        ]);
    }

    // Hot spot: 4 % of traffic to one port at a moderate load. Such a hot
    // port saturates (Pfister–Norton), so the honest metrics are accepted
    // throughput and back-pressure, not delivered-only latency (which is
    // survivorship-biased once packets start sticking).
    let moderate = 0.5 * flit_cap;
    let uniform = icn_sim::run(effort.base_config(Workload::uniform(moderate)));
    let hot = icn_sim::run(effort.base_config(Workload::hot_spot(moderate, 0.04, 0)));
    let hot_text = format!(
        "hot spot (4% to port 0) at offered {:.4}: throughput {} -> {} \
         (x{:.2}), source backlog {} -> {}, blocked grants {} -> {}\n",
        moderate,
        trim_float(uniform.throughput, 5),
        trim_float(hot.throughput, 5),
        hot.throughput / uniform.throughput,
        uniform.final_source_backlog,
        hot.final_source_backlog,
        uniform
            .stage_counters
            .iter()
            .map(icn_sim::StageCounters::blocked)
            .sum::<u64>(),
        hot.stage_counters
            .iter()
            .map(icn_sim::StageCounters::blocked)
            .sum::<u64>(),
    );

    let text = format!(
        "Loaded {}-port network (DMC, W=4, single buffer, pass-through)\n\n{}\n{}",
        base.plan.ports(),
        t.render(),
        hot_text
    );
    let json = serde_json::json!({
        "ports": base.plan.ports(),
        "flit_capacity": flit_cap,
        "sweep": points,
        "hotspot": { "uniform": uniform, "hot": hot },
    });
    Artifact {
        text,
        json,
        notes: vec![
            "offered load is per-port packet injection probability; line capacity is \
             1/flits packets per cycle"
                .into(),
        ],
    }
}

/// The §2 design ablations — buffer depth, pass-through, arbitration.
#[must_use]
pub fn ablations(effort: SimEffort) -> Artifact {
    let base = effort.base_config(Workload::uniform(0.0));
    let flit_cap = 1.0 / base.flits_per_packet() as f64;
    let moderate = 0.6 * flit_cap;

    // Buffer depth sweep.
    let mut buffer_configs = Vec::new();
    for depth in [1u32, 2, 4, 8] {
        let mut c = effort.base_config(Workload::uniform(moderate));
        c.buffer_capacity = depth;
        buffer_configs.push(c);
    }
    let buffer_results = icn_sim::run_parallel(buffer_configs);
    let mut bt = TextTable::new(vec!["buffers", "throughput", "mean latency", "p99"]);
    for (depth, r) in [1u32, 2, 4, 8].into_iter().zip(&buffer_results) {
        bt.row(vec![
            depth.to_string(),
            trim_float(r.throughput, 5),
            trim_float(r.network_latency.mean, 1),
            r.network_latency.p99.to_string(),
        ]);
    }

    // Pass-through ablation at light load.
    let light = 0.1 * flit_cap;
    let mut ct = effort.base_config(Workload::uniform(light));
    ct.cut_through = true;
    let mut sf = effort.base_config(Workload::uniform(light));
    sf.cut_through = false;
    let mut pair = icn_sim::run_parallel(vec![ct, sf]);
    let sf_r = pair.pop().expect("two results");
    let ct_r = pair.pop().expect("two results");

    // Arbitration ablation at heavy load.
    let heavy = 0.9 * flit_cap;
    let mut rr = effort.base_config(Workload::uniform(heavy));
    rr.arbitration = Arbitration::RoundRobin;
    let mut fx = effort.base_config(Workload::uniform(heavy));
    fx.arbitration = Arbitration::FixedPriority;
    let mut pair = icn_sim::run_parallel(vec![rr, fx]);
    let fx_r = pair.pop().expect("two results");
    let rr_r = pair.pop().expect("two results");

    let text = format!(
        "Ablations on the {}-port network (DMC, W=4)\n\n\
         Buffer depth at offered {:.4} (sec. 2: \"most of the potential gain ... with \
         about 4 buffers\"):\n{}\n\
         Pass-through at light load {:.4}: cut-through mean {} cycles vs \
         store-and-forward {} cycles\n\n\
         Arbitration at offered {:.4}: round-robin p99 {} vs fixed-priority p99 {} \
         (max {} vs {})\n",
        rr_r.ports,
        moderate,
        bt.render(),
        light,
        trim_float(ct_r.network_latency.mean, 1),
        trim_float(sf_r.network_latency.mean, 1),
        heavy,
        rr_r.network_latency.p99,
        fx_r.network_latency.p99,
        rr_r.network_latency.max,
        fx_r.network_latency.max,
    );
    let json = serde_json::json!({
        "buffer_sweep": buffer_results,
        "pass_through": { "cut_through": ct_r, "store_and_forward": sf_r },
        "arbitration": { "round_robin": rr_r, "fixed_priority": fx_r },
    });
    Artifact {
        text,
        json,
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaded_network_quick_runs_and_latency_grows_with_load() {
        let r = loaded_network(SimEffort::Quick);
        let sweep = r.json["sweep"].as_array().unwrap();
        assert_eq!(sweep.len(), 6);
        let first = sweep[0]["result"]["network_latency"]["mean"]
            .as_f64()
            .unwrap();
        let last = sweep[5]["result"]["network_latency"]["mean"]
            .as_f64()
            .unwrap();
        assert!(
            last > first,
            "latency must grow with load: {first} -> {last}"
        );
    }

    #[test]
    fn ablations_quick_show_expected_directions() {
        let r = ablations(SimEffort::Quick);
        let buffers = r.json["buffer_sweep"].as_array().unwrap();
        let thr1 = buffers[0]["throughput"].as_f64().unwrap();
        let thr4 = buffers[2]["throughput"].as_f64().unwrap();
        assert!(thr4 >= thr1 * 0.98, "buffering should not hurt throughput");
        let ct = r.json["pass_through"]["cut_through"]["network_latency"]["mean"]
            .as_f64()
            .unwrap();
        let sf = r.json["pass_through"]["store_and_forward"]["network_latency"]["mean"]
            .as_f64()
            .unwrap();
        assert!(sf > ct, "store-and-forward must be slower: {sf} vs {ct}");
    }
}
