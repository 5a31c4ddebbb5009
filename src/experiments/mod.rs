//! One module per paper artifact: each regenerates its table or figure.
//!
//! [`EXPERIMENTS`] is the one ordered registry of them: command name, id,
//! title and runner per entry. The CLI's per-experiment commands, `list`,
//! `all`, `dump` and `report` all read it, so an experiment exists once.
//!
//! An experiment function returns an [`Artifact`]: a rendered text table
//! (what the paper printed), a JSON value (machine-readable), and notes on
//! any deviation from the paper. [`Experiment::run`] files it under the
//! registry's id and title as an [`ExperimentRecord`].

mod blocking_validation;
mod board_layout;
mod clock_budget;
mod clock_schemes;
mod cost_comparison;
mod delay_table;
mod dmc_scaling;
mod example2048;
mod fault_tolerance;
mod fig1_topology;
mod fig2_blocking;
mod loaded_network;
mod mesh_validation;
mod power_budget;
mod queueing_model;
mod roundtrip_sim;
mod saturation_onset;
mod scaling_study;
mod sensitivity;
mod sim_validation;
mod table1;
mod table2_pins;
mod table3_area;
mod tech_evolution;

pub use loaded_network::SimEffort;

use icn_tech::Technology;
use serde::{Deserialize, Serialize};

/// What an experiment regenerates, before the registry names it.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Rendered text (tables/figures as the paper prints them).
    pub text: String,
    /// Machine-readable payload.
    pub json: serde_json::Value,
    /// Deviations from the paper, calibration notes, caveats.
    pub notes: Vec<String>,
}

/// A regenerated paper artifact under its registry id and title.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id (see [`EXPERIMENTS`]).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Rendered text (tables/figures as the paper prints them).
    pub text: String,
    /// Machine-readable payload.
    pub json: serde_json::Value,
    /// Deviations from the paper, calibration notes, caveats.
    pub notes: Vec<String>,
}

impl ExperimentRecord {
    /// The text form an experiment command prints and `icn dump` writes:
    /// a `== id — title ==` heading, the text, then one `note:` line per
    /// note.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("== {} — {} ==\n{}\n", self.id, self.title, self.text);
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

/// What an experiment reads besides its own fixed parameters, and whether
/// it runs the cycle-level simulator.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// Built-in parameters only (closed forms, or a seeded Monte-Carlo
    /// check of one).
    Fixed(fn() -> Artifact),
    /// A technology preset.
    Tech(fn(&Technology) -> Artifact),
    /// A cycle-level simulation of fixed size.
    Sim(fn() -> Artifact),
    /// A cycle-level simulation at a chosen effort level.
    Effort(fn(SimEffort) -> Artifact),
}

use Runner::{Effort, Fixed, Sim, Tech};

/// One registry entry: a paper artifact and how to regenerate it.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The `icn` command that runs it.
    pub command: &'static str,
    /// Experiment id: E* reproduce the paper, X* extend it.
    pub id: &'static str,
    /// The experiment function.
    pub runner: Runner,
    /// Human-readable title.
    pub title: &'static str,
}

impl Experiment {
    const fn new(
        command: &'static str,
        id: &'static str,
        runner: Runner,
        title: &'static str,
    ) -> Self {
        Self {
            command,
            id,
            runner,
            title,
        }
    }

    /// Backed by the cycle-level simulator (`icn all` runs only the
    /// other entries).
    #[must_use]
    pub const fn simulated(&self) -> bool {
        matches!(self.runner, Sim(_) | Effort(_))
    }

    /// Run the experiment, handing it `tech` or `effort` if it reads one.
    #[must_use]
    pub fn run(&self, tech: &Technology, effort: SimEffort) -> ExperimentRecord {
        let Artifact { text, json, notes } = match self.runner {
            Fixed(f) | Sim(f) => f(),
            Tech(f) => f(tech),
            Effort(f) => f(effort),
        };
        ExperimentRecord {
            id: self.id.to_string(),
            title: self.title.to_string(),
            text,
            json,
            notes,
        }
    }
}

/// Every experiment, in the order `list`, `all`, `dump` and `report`
/// present them: the entries `all` runs, then the cycle-level
/// simulations.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 25] = [
    Experiment::new("table1", "E1", Tech(table1::table1),
        "Table 1: variable definitions and typical values"),
    Experiment::new("table2-pins", "E2", Tech(table2_pins::table2_pins),
        "Table 2: pins per chip N_p(N, W, F)"),
    Experiment::new("table3-area", "E3", Tech(table3_area::table3_area),
        "Table 3: largest single-chip crossbar by area"),
    Experiment::new("delay-table", "E4", Fixed(delay_table::delay_table),
        "Delay table: time through the network (P=100, N=16, 3 stages)"),
    Experiment::new("fig1-topology", "E5", Fixed(fig1_topology::fig1_topology),
        "Figure 1: 16-port N log N network of 2x2 modules"),
    Experiment::new("fig2-blocking", "E6", Fixed(fig2_blocking::fig2_blocking),
        "Figure 2: blocking probability vs number of stages (N' = 4096)"),
    Experiment::new("board-layout", "E7/E8", Tech(board_layout::board_layout),
        "Board layout (sec. 3.3) and connector feasibility (sec. 3.4)"),
    Experiment::new("clock-budget", "E9", Tech(clock_budget::clock_budget),
        "Clock delay budget and achievable frequency (sec. 6.2)"),
    Experiment::new("example-2048", "E10", Tech(example2048::example2048),
        "The 2048x2048 example (sec. 6) end to end"),
    Experiment::new("cost", "C1", Fixed(cost_comparison::cost_comparison),
        "Chip cost: multistage network vs full crossbar (sec. 2 claim)"),
    Experiment::new("clock-schemes", "X4", Tech(clock_schemes::clock_schemes),
        "Clock scheme crossover: Standard vs Multiple-Pulse (sec. 5)"),
    Experiment::new("blocking-validation", "E6-validation", Fixed(blocking_validation::blocking_validation),
        "Patel recurrence vs Monte-Carlo circuit setup"),
    Experiment::new("scaling", "X7", Tech(scaling_study::scaling_study),
        "Scaling study: the sec. 6 design across network sizes"),
    Experiment::new("tech-evolution", "X8", Fixed(tech_evolution::tech_evolution),
        "Technology evolution: the 2048-port design across presets"),
    Experiment::new("power", "P1", Tech(power_budget::power_budget),
        "I/O power and supply-current budget (Appendix corollary)"),
    Experiment::new("dmc-scaling", "X9", Tech(dmc_scaling::dmc_scaling),
        "DMC wire-delay scaling: the O(N²) term of sec. 2.2"),
    Experiment::new("sensitivity", "X5", Tech(sensitivity::sensitivity),
        "Parameter sensitivity of the sec. 6 clock budget"),
    Experiment::new("sim-validation", "E4-validation", Sim(sim_validation::sim_validation),
        "Simulator vs analytic unloaded delay (cycle-exact)"),
    Experiment::new("mesh-validation", "E4-mesh", Sim(mesh_validation::mesh_validation),
        "MCC chip abstraction check: crosspoint-level transit distribution"),
    Experiment::new("loaded", "X1", Effort(loaded_network::loaded_network),
        "Loaded-network delay and hot spots (the regime the paper sets aside)"),
    Experiment::new("ablations", "X2", Effort(loaded_network::ablations),
        "Switch-design ablations: buffering, pass-through, arbitration (sec. 2)"),
    Experiment::new("roundtrip", "X3", Effort(roundtrip_sim::roundtrip_sim),
        "Remote-read round trips, simulated closed-loop"),
    Experiment::new("queueing", "X6", Effort(queueing_model::queueing_model),
        "Queueing baseline (Kruskal–Snir) vs cycle-level simulation"),
    Experiment::new("fault-tolerance", "X10", Effort(fault_tolerance::fault_tolerance),
        "Graceful degradation under module failures (unique-path cost of sec. 2)"),
    Experiment::new("saturation", "X11", Effort(saturation_onset::saturation_onset),
        "Saturation onset: sampled occupancy and backlog over time"),
];

/// The registry entry behind an `icn` command.
#[must_use]
pub fn find(command: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.command == command)
}

/// Run every experiment, in registry order (`icn dump` and `icn report`).
#[must_use]
pub fn run_all(tech: &Technology, effort: SimEffort) -> Vec<ExperimentRecord> {
    EXPERIMENTS.iter().map(|e| e.run(tech, effort)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_tech::presets;

    #[test]
    fn all_analytic_experiments_render() {
        let records: Vec<ExperimentRecord> = EXPERIMENTS
            .iter()
            .filter(|e| !e.simulated())
            .map(|e| e.run(&presets::paper1986(), SimEffort::Quick))
            .collect();
        assert_eq!(records.len(), 17);
        for r in &records {
            assert!(!r.text.is_empty(), "{} produced no text", r.id);
            assert!(!r.title.is_empty());
            assert!(
                r.json.is_object() || r.json.is_array(),
                "{} has no payload",
                r.id
            );
        }

        let ids: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "E1",
                "E2",
                "E3",
                "E4",
                "E5",
                "E6",
                "E7/E8",
                "E9",
                "E10",
                "C1",
                "X4",
                "E6-validation",
                "X7",
                "X8",
                "P1",
                "X9",
                "X5"
            ]
        );
    }

    #[test]
    fn commands_and_ids_are_unique() {
        for (i, a) in EXPERIMENTS.iter().enumerate() {
            for b in &EXPERIMENTS[i + 1..] {
                assert_ne!(a.command, b.command);
                assert_ne!(a.id, b.id);
            }
        }
        assert_eq!(find("fig2-blocking").map(|e| e.id), Some("E6"));
        assert!(find("simulate").is_none());
    }
}
