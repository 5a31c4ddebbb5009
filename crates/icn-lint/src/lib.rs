//! Design-rule checks for network design points: the paper's physical
//! constraints, checked statically against a JSON design spec before any
//! simulation runs.
//!
//! [`design_rules::check_design_json`] runs the rules (ICN100–ICN106), and
//! `icn lint config` and `POST /v1/evaluate` surface them: the paper's
//! pin-budget (eq. 3.1–3.4), die-area (§3.2), board-layout (§3.3–3.4), and
//! clock-skew (eq. 5.3) constraints, each reported as one coded
//! [`Diagnostic`].
//!
//! The source rules that keep the simulator replay-identical (ICN001–ICN005
//! and ICN203) are clippy configuration, not code in this crate: the
//! per-crate `clippy.toml` files and the workspace lint table. DESIGN.md §8
//! maps each code to its lint.

pub mod design_rules;
pub mod diagnostics;

pub use design_rules::{
    check_design, check_design_json, render_design_human, render_design_json, DesignCheck,
    DesignSpec,
};
pub use diagnostics::{Diagnostic, Severity};
