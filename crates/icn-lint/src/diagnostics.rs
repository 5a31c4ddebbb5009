//! The structured diagnostic every check emits.

use serde::Serialize;

/// How bad a finding is. Every design rule reports an error; the level is
/// kept in the output so it reads like rustc's `--error-format=json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A rule violation: the design is infeasible (`icn lint config` exits 3).
    Error,
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Error => f.write_str("error"),
        }
    }
}

// Serialized by hand (lowercase, like rustc's `--error-format=json`): the
// vendored serde_derive has no `rename_all` support.
impl Serialize for Severity {
    fn serialize(&self) -> serde::Content {
        serde::Content::Str(self.to_string())
    }
}

/// One finding: a coded rule violation in a design spec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// The rule code: `ICN101`…`ICN106` for the design rules, `ICN100`
    /// for a spec that cannot be checked.
    pub code: String,
    /// How bad the finding is.
    pub severity: Severity,
    /// The design spec's file name (`<request>` for a service request).
    pub file: String,
    /// 1-based line; 0 means the finding concerns the spec as a whole.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}
