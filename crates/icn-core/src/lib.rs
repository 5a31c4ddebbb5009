//! The paper's closed-form design method: pins, area, board and clock give
//! a delay (Franklin & Dhar, ICPP 1986, §3–§6).
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
//!   ranking (and the `icn-explore` streaming engine) is built on.
//!
//! The simulator and the experiments that regenerate the paper's tables
//! live elsewhere (`icn-sim` and the root `franklin-dhar-icn` package), so
//! a crate that wants only the formulas links only these.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod delay;
pub mod design;
pub mod explore;
pub mod pareto;

pub use design::{DesignPoint, DesignReport, Violation};
