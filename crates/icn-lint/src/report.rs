//! Rendering diagnostics for humans and for machines (`--json`).
//!
//! Both formats are deterministic: diagnostics are pre-sorted by the walker
//! and all numbers are formatted with fixed precision, so golden tests can
//! compare output byte for byte.

use serde::Serialize;

use crate::diagnostics::{error_count, Diagnostic, Severity};

/// Render diagnostics the way rustc does, one block per finding, followed
/// by a one-line summary.
#[must_use]
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
        if d.line > 0 {
            out.push_str(&format!("  --> {}:{}\n", d.file, d.line));
        } else {
            out.push_str(&format!("  --> {}\n", d.file));
        }
        out.push_str(&format!("  help: {}\n", d.suggestion));
    }
    let errors = error_count(diags);
    let warnings = diags.len() - errors;
    if errors == 0 && warnings == 0 {
        out.push_str("icn lint: clean, no violations\n");
    } else {
        out.push_str(&format!(
            "icn lint: {errors} error{}, {warnings} warning{}\n",
            plural(errors),
            plural(warnings)
        ));
    }
    out
}

/// The plural suffix for a count of `n`.
pub(crate) fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// The machine-readable report envelope. (Owns its diagnostics: the
/// vendored serde_derive cannot derive on lifetime-generic types.)
///
/// Version history: v1 had no `summary`; v2 (PR 9) added the per-rule-code
/// summary block so CI snapshot diffs read at a glance.
#[derive(Debug, Serialize)]
struct JsonReport {
    version: u32,
    errors: usize,
    warnings: usize,
    /// Per-rule-code counts, sorted by code; only codes that fired appear.
    summary: Vec<RuleCount>,
    diagnostics: Vec<Diagnostic>,
}

/// One row of the per-rule summary.
#[derive(Debug, Serialize)]
struct RuleCount {
    code: String,
    count: usize,
}

/// Render diagnostics as a stable pretty-printed JSON document: counts, a
/// per-rule-code summary, then the diagnostics in (file, line, code) order.
#[must_use]
pub fn render_json(diags: &[Diagnostic]) -> String {
    let errors = error_count(diags);
    let mut summary: Vec<RuleCount> = Vec::new();
    for d in diags {
        match summary.binary_search_by(|r| r.code.as_str().cmp(&d.code)) {
            Ok(i) => summary[i].count += 1,
            Err(i) => summary.insert(
                i,
                RuleCount {
                    code: d.code.clone(),
                    count: 1,
                },
            ),
        }
    }
    let report = JsonReport {
        version: 2,
        errors,
        warnings: diags.len() - errors,
        summary,
        diagnostics: diags.to_vec(),
    };
    let mut body = serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".to_string());
    body.push('\n');
    body
}

/// Whether the run should fail (any error-severity finding).
#[must_use]
pub fn is_failure(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                code: "ICN003".to_string(),
                severity: Severity::Error,
                file: "crates/icn-sim/src/x.rs".to_string(),
                line: 7,
                message: "`.unwrap()` in a library path".to_string(),
                suggestion: "return a typed SimError".to_string(),
            },
            Diagnostic {
                code: "ICN000".to_string(),
                severity: Severity::Warning,
                file: "crates/icn-sim/src/x.rs".to_string(),
                line: 9,
                message: "allow directive for ICN001 has no `-- reason` and is ignored".to_string(),
                suggestion: "write a reason".to_string(),
            },
        ]
    }

    #[test]
    fn human_format_is_rustc_like() {
        let text = render_human(&sample());
        assert!(text.contains("error[ICN003]: `.unwrap()` in a library path"));
        assert!(text.contains("  --> crates/icn-sim/src/x.rs:7"));
        assert!(text.contains("  help: return a typed SimError"));
        assert!(text.ends_with("icn lint: 1 error, 1 warning\n"));
    }

    #[test]
    fn clean_run_says_so() {
        assert_eq!(render_human(&[]), "icn lint: clean, no violations\n");
        assert!(!is_failure(&[]));
    }

    #[test]
    fn json_roundtrips_and_counts() {
        let text = render_json(&sample());
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(value["version"], 2);
        assert_eq!(value["errors"], 1);
        assert_eq!(value["warnings"], 1);
        assert_eq!(value["diagnostics"][0]["code"], "ICN003");
        assert_eq!(value["diagnostics"][0]["severity"], "error");
        assert_eq!(value["diagnostics"][0]["line"], 7);
    }

    #[test]
    fn json_summary_counts_per_code_sorted() {
        let mut diags = sample();
        diags.extend(sample()); // two of each code
        let text = render_json(&diags);
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        let summary = value["summary"].as_array().expect("summary array");
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0]["code"], "ICN000");
        assert_eq!(summary[0]["count"], 2);
        assert_eq!(summary[1]["code"], "ICN003");
        assert_eq!(summary[1]["count"], 2);
        // A clean run has an empty (but present) summary.
        let clean: serde_json::Value = serde_json::from_str(&render_json(&[])).expect("valid json");
        assert_eq!(clean["summary"].as_array().map(Vec::len), Some(0));
    }

    #[test]
    fn warnings_alone_do_not_fail() {
        let warn_only: Vec<Diagnostic> = sample()
            .into_iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect();
        assert!(!is_failure(&warn_only));
        assert!(is_failure(&sample()));
    }
}
