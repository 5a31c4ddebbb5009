//! Static analysis for the workspace: the determinism & panic-freedom rules
//! that keep the Franklin & Dhar simulator replay-identical, plus
//! paper-derived design-rule checks for network design points.
//!
//! PR 3 proved the engine deterministic *dynamically* (byte-identical parity
//! fixtures); this crate makes determinism a *statically checked* invariant.
//! Three families of rules:
//!
//! * **Source rules** (ICN001–ICN005), run by [`scan_workspace`] over every
//!   first-party `src/` file and surfaced as `icn lint`:
//!   - ICN001 `no-unordered-iteration` — no `HashMap`/`HashSet` in the
//!     simulation library (hash iteration order is per-process seeded).
//!   - ICN002 `no-ambient-entropy` — no wall clocks or OS randomness in
//!     simulation logic; all entropy flows from the seeded config.
//!   - ICN003 `no-panic-paths` — no `unwrap`/`expect`/`panic!` in the
//!     simulation library; callers get typed `SimError`s.
//!   - ICN004 `no-float-eq` — no exact `==`/`!=` against non-zero float
//!     literals anywhere (the exact-zero sentinel is exempt).
//!   - ICN005 `pub-api-docs` — crate-level docs on every crate root and
//!     doc comments on every `pub` item.
//!
//!   Violations can be locally waived with an audited escape hatch:
//!   `// icn-lint: allow(ICN003) -- reason` (the reason is mandatory; a
//!   bare directive is reported as ICN000 and ignored).
//!
//! * **Lock confinement** (ICN203), a source rule scoped to `icn-sim`:
//!   `Mutex`/`RwLock`/`Condvar`/`spawn(` appear only in `pool.rs`, whose
//!   `fold_by_worker` (and `ordered_map` on it) is the crate's one
//!   fan-out. The engine itself is serial.
//!
//! * **Design rules** (ICN101–ICN106), run by
//!   [`design_rules::check_design_json`] and surfaced as `icn lint config`:
//!   the paper's pin-budget (eq. 3.1–3.4), die-area (§3.2), board-layout
//!   (§3.3–3.4), and clock-skew (eq. 5.3) constraints checked statically
//!   against a JSON design spec before any simulation runs.
//!
//! The analyzer is entirely first-party (the build vendors no `syn`): every
//! source rule runs over a hand-rolled scanner ([`lexer`]) one file at a
//! time. DESIGN.md §8 records what that scope excludes.

pub mod design_rules;
pub mod diagnostics;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub use design_rules::{
    check_design, check_design_json, render_design_human, render_design_json, DesignCheck,
    DesignSpec,
};
pub use diagnostics::{Diagnostic, Severity};
pub use report::{is_failure, render_human, render_json};
pub use walk::{scan_paths, scan_workspace, WalkError};
