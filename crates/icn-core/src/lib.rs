//! Design-space exploration and the experiment harness reproducing every
//! table and figure of Franklin & Dhar (ICPP 1986).
//!
//! The crate ties the substrates together:
//!
//! * [`delay`] — the paper's §4 network-delay expressions (eq. 4.2/4.5) in
//!   their exact printed (fractional `P/W`) form;
//! * [`design`] — [`design::DesignPoint`]: a complete network design (chip
//!   kind, radix, width, board, network size) evaluated end-to-end against
//!   every physical constraint, with the frequency fixed-point solved
//!   (pins ↔ package ↔ trace ↔ clock);
//! * [`explore`] — feasible-design enumeration and ranking over the
//!   (kind, N, W) space;
//! * [`pareto`] — the incremental multi-objective Pareto frontier that
//!   ranking (and the `icn-explore` streaming engine) is built on;
//! * [`experiments`] — one module per paper artifact (E1–E10 plus the
//!   simulation extensions X1/X2 of DESIGN.md), each regenerating its table
//!   or figure as text and as machine-readable JSON.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod delay;
pub mod design;
pub mod experiments;
pub mod explore;
pub mod pareto;
pub mod report;
pub mod table;

pub use design::{DesignPoint, DesignReport, Violation};
pub use experiments::{Experiment, ExperimentRecord};
