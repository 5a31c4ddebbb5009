//! The Franklin & Dhar (ICPP 1986) reproduction.
//!
//! This package regenerates every table and figure of the paper, and
//! re-exports the workspace members under one roof so downstream users can
//! depend on a single crate:
//!
//! * [`units`] — unit-safe physical quantities;
//! * [`tech`] — technology/packaging/board/clocking parameter sets;
//! * [`phys`] — pin, area, board, rack and clock models (§3–§6);
//! * [`topology`] — delta-network construction, routing, blocking (Fig. 1/2);
//! * [`workloads`] — traffic generators;
//! * [`sim`] — the lock-step cycle-level network simulator (§2);
//! * [`core`] — the closed-form design method: delay, design evaluation,
//!   exploration and ranking.
//!
//! Its own modules are the reproduction harness:
//!
//! * [`experiments`] — one module per paper artifact (E1–E10 plus the
//!   extensions of DESIGN.md), listed once in [`experiments::EXPERIMENTS`];
//! * [`report`] — `icn report`'s markdown and `icn dump`'s text files;
//! * [`table`] — the fixed-width text tables they render.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub mod experiments;
pub mod report;
pub mod table;

pub use icn_core as core;
pub use icn_phys as phys;
pub use icn_sim as sim;
pub use icn_tech as tech;
pub use icn_topology as topology;
pub use icn_units as units;
pub use icn_workloads as workloads;
