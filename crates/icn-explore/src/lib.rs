//! Streaming design-space exploration at 10^6+ candidate scale.
//!
//! The seed explorer (`icn_core::explore`) walks the paper's 32-point
//! (kind, N, W) grid serially and returns a delay-ranked list. This
//! crate scales that methodology into a subsystem:
//!
//! * [`GridSpec`] — a lazy cross-product over (technology, kind, clock
//!   scheme, N', N, W, P) that enumerates millions of candidates without
//!   materialising them (`grid`);
//! * [`Evaluator`] — closed-form evaluation with a chassis memo that
//!   amortises the frequency fixed point across the packet-size axis
//!   (`eval`);
//! * [`explore`] — chunked batch evaluation fanned across cores via the
//!   shared `icn_sim::WorkerPool`, merged deterministically in
//!   chunk-index order into an incremental Pareto frontier
//!   (delay × area × pins × cost) whose memory is `O(frontier)`
//!   (`engine`);
//! * [`spot_check`] — `icn_sim::try_run` validation that the simulator's
//!   latency floor ranks the top frontier points like the closed form
//!   does (`spotcheck`).
//!
//! Output is byte-identical at any thread count and chunk size; the
//! argument lives in `icn_core::pareto` and `engine`, and the guarantee
//! is pinned by tests and the CLI parity gate.

pub mod engine;
pub mod eval;
pub mod grid;
pub mod spotcheck;

pub use engine::{explore, ExploreOptions, ExploreOutcome, DEFAULT_CHUNK};
pub use eval::{resolve_techs, Evaluator, FrontierPoint, OBJECTIVES};
pub use grid::{Candidate, GridSpec, MAX_GRID_CANDIDATES};
pub use spotcheck::{chip_model, spot_check, SpotCheck};
