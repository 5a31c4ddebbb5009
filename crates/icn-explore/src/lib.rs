//! Streaming design-space exploration at 10^6+ candidate scale.
//!
//! The seed explorer (`icn_core::explore`) walks the paper's 32-point
//! (kind, N, W) grid serially and returns a delay-ranked list. This
//! crate scales that methodology into a subsystem:
//!
//! * [`GridSpec`] — a lazy cross-product over (technology, kind, clock
//!   scheme, N', N, W, P) that enumerates millions of candidates without
//!   materialising them (`grid`);
//! * [`Evaluator`] — closed-form evaluation: a fold that makes one
//!   report-free chassis solve (area rule, then the best board option
//!   that the one feasibility verdict `Solution::violations` passes) per
//!   packet-size run and offers the frontier only the run's fastest
//!   packet variants, found from its shortest packets up, and a
//!   per-candidate path whose chassis memo amortises the same solve. The
//!   board fixed point (`icn_core::design::solve`) depends on neither
//!   the crossbar kind nor the network size, so a bounded memo shared by
//!   the whole call solves each distinct chip-on-board once (`eval`);
//! * [`explore`] — chunked batch evaluation across cores: one
//!   `icn_sim::fold_by_worker` spawn per call, each worker folding the
//!   chunks it claims into its own incremental Pareto frontier (delay ×
//!   area × pins × cost), merged once at the end, so memory is
//!   `O(frontier × threads)`; [`explore_bounded`] is the same call under
//!   a stop predicate (`engine`);
//! * [`spot_check`] — cycle-level simulation of the top frontier points,
//!   checking that the minimum latency the simulator measures ranks them
//!   like the closed form does and never beats the §4 analytic floor: one
//!   `icn_sim::Engine` per distinct network, stepped only until a tracked
//!   packet arrives at that floor (no later one can lower the minimum),
//!   skipping the networks that are [`Unsimulable`]; an exploration runs
//!   its distinct networks through `icn_sim::ordered_map` (`spotcheck`).
//!
//! Output is byte-identical at any thread count and chunk size; the
//! argument lives in `icn_core::pareto` and `engine`, and the guarantee
//! is pinned by tests and the CLI parity gate.

// ICN003: a panic would tear down a caller's whole exploration; errors are
// typed. `clippy.toml` allows these in tests.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod engine;
pub mod eval;
pub mod grid;
pub mod spotcheck;

pub use engine::{
    explore, explore_bounded, ExploreError, ExploreOptions, ExploreOutcome, DEFAULT_CHUNK,
};
pub use eval::{resolve_techs, Evaluator, FrontierPoint, OBJECTIVES};
pub use grid::{Candidate, GridSpec, MAX_GRID_CANDIDATES};
pub use spotcheck::{chip_model, spot_check, SpotCheck, Unsimulable};
