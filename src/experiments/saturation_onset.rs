//! Occupancy over time through the onset of saturation.
//!
//! The paper's §4 delay model and §6 design example are steady-state
//! arguments; they say nothing about *how* the network transitions into
//! overload. This experiment drives the §6 design at increasing fractions
//! of the flit-serialized line rate with the telemetry sampler on, and
//! plots per-stage buffer occupancy and source backlog as functions of
//! time. Once the offered load exceeds what the switch can actually carry,
//! the source backlog grows without bound while in-network occupancy pins
//! at the buffer ceiling — saturation shows up as a knee in the time
//! series, not just a point on a load-sweep curve. Notably the knee sits
//! well below the nominal line rate: single-buffer head-of-line blocking
//! and circuit-held outputs cap the usable capacity, exactly the effects
//! §4 set aside.

use icn_sim::{self, SimResult, TelemetryConfig, TelemetryReport, TimeSeries};
use icn_workloads::Workload;

use crate::table::{sparkline, trim_float, TextTable};

use super::loaded_network::SimEffort;
use super::Artifact;

struct OnsetRun {
    label: &'static str,
    offered: f64,
    result: SimResult,
}

impl OnsetRun {
    fn telemetry(&self) -> &TelemetryReport {
        self.result.telemetry.as_ref().expect("telemetry enabled")
    }

    fn series(&self) -> &TimeSeries {
        &self.telemetry().time_series
    }
}

fn run_at(effort: SimEffort, label: &'static str, offered: f64) -> OnsetRun {
    let mut config = effort.base_config(Workload::uniform(offered));
    // Sample often enough for a few hundred points over the whole run; the
    // default 4096-entry ring then never wraps, so the series keeps the
    // warmup and onset rather than only the tail.
    let interval = match effort {
        SimEffort::Quick => 50,
        SimEffort::Full => 200,
    };
    config.telemetry = TelemetryConfig::sampled(interval);
    OnsetRun {
        label,
        offered,
        result: icn_sim::run(config),
    }
}

/// Occupancy-vs-time through saturation onset for the §6 design.
#[must_use]
pub fn saturation_onset(effort: SimEffort) -> Artifact {
    let base = effort.base_config(Workload::uniform(0.0));
    let flit_cap = 1.0 / base.flits_per_packet() as f64;
    let runs = [
        run_at(effort, "0.5x line rate", 0.5 * flit_cap),
        run_at(effort, "1.0x line rate", flit_cap),
        run_at(effort, "1.3x line rate", (1.3 * flit_cap).min(1.0)),
    ];

    const WIDTH: usize = 64;
    let mut chart = String::new();
    for run in &runs {
        let series = run.series();
        let backlog: Vec<u64> = series.samples.iter().map(|s| s.source_backlog).collect();
        let live: Vec<u64> = series.samples.iter().map(|s| s.live_packets).collect();
        chart.push_str(&format!(
            "{} — offered {:.4} pkt/port/cyc, {} samples every {} cycles\n",
            run.label,
            run.offered,
            series.samples.len(),
            series.interval
        ));
        chart.push_str(&format!(
            "  source backlog {} peak {}\n",
            sparkline(&backlog, WIDTH),
            backlog.iter().max().copied().unwrap_or(0)
        ));
        for (stage, peak) in series.peak_stage_occupancy().iter().enumerate() {
            let occupancy: Vec<u64> = series
                .samples
                .iter()
                .map(|s| s.stage_occupancy[stage])
                .collect();
            chart.push_str(&format!(
                "  stage {stage} occupancy {} peak {peak}\n",
                sparkline(&occupancy, WIDTH)
            ));
        }
        chart.push_str(&format!(
            "  live packets   {} peak {}\n\n",
            sparkline(&live, WIDTH),
            live.iter().max().copied().unwrap_or(0)
        ));
    }

    let mut t = TextTable::new(vec![
        "load",
        "offered",
        "throughput",
        "peak backlog",
        "final backlog",
        "total latency p50/p99/p999 (cyc)",
    ]);
    for run in &runs {
        let telem = run.telemetry();
        let peak_backlog = run
            .series()
            .samples
            .iter()
            .map(|s| s.source_backlog)
            .max()
            .unwrap_or(0);
        t.row(vec![
            run.label.to_string(),
            trim_float(run.offered, 5),
            trim_float(run.result.throughput, 5),
            peak_backlog.to_string(),
            run.result.final_source_backlog.to_string(),
            format!(
                "{}/{}/{}",
                telem.total_latency.quantile(0.5),
                telem.total_latency.quantile(0.99),
                telem.total_latency.quantile(0.999)
            ),
        ]);
    }

    let text = format!(
        "Saturation onset in the {}-port network (DMC, W=4): sampled \
         occupancy over time\n\n{}\n{}",
        base.plan.ports(),
        t.render(),
        chart
    );
    let json = serde_json::json!({
        "ports": base.plan.ports(),
        "flit_capacity": flit_cap,
        "runs": runs
            .iter()
            .map(|run| {
                serde_json::json!({
                    "label": run.label,
                    "offered_load": run.offered,
                    "result": run.result,
                })
            })
            .collect::<Vec<_>>(),
    });
    Artifact {
        text,
        json,
        notes: vec![
            "sparklines scale each series to its own peak (max-downsampled); \
             compare peaks via the printed numbers, not across rows"
                .into(),
            "past the usable capacity the source backlog grows for as long as \
             injection runs — the knee in its series is the saturation onset \
             the steady-state load sweep (X1) cannot show; with a single \
             buffer per input and circuit-held outputs that knee sits well \
             below the nominal flit line rate (head-of-line blocking, the \
             effect §4 set aside)"
                .into(),
            "telemetry is observational: the sampled runs reuse X1's \
             configuration and seed, so their SimResult fields match a \
             telemetry-free run exactly"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_onset_quick_shows_backlog_growth() {
        let r = saturation_onset(SimEffort::Quick);
        assert!(r.text.contains("stage 0 occupancy"));
        assert!(r.text.contains('█'), "every sparkline reaches its peak");

        let runs = r.json["runs"].as_array().unwrap();
        assert_eq!(runs.len(), 3);
        let backlog_peak = |i: usize| {
            runs[i]["result"]["telemetry"]["time_series"]["samples"]
                .as_array()
                .unwrap()
                .iter()
                .map(|s| s["source_backlog"].as_u64().unwrap())
                .max()
                .unwrap()
        };
        // Overload piles up far more source backlog than the comfortable run.
        assert!(
            backlog_peak(2) > 4 * backlog_peak(0).max(1),
            "saturated backlog {} should dwarf unsaturated {}",
            backlog_peak(2),
            backlog_peak(0)
        );
        // The sampled series actually covers the run at the quick cadence.
        let samples = runs[0]["result"]["telemetry"]["time_series"]["samples"]
            .as_array()
            .unwrap();
        assert!(samples.len() > 20);
        for s in samples {
            assert_eq!(s["cycle"].as_u64().unwrap() % 50, 0);
        }
    }
}
