//! End-to-end design-rule gates: goldens pin `icn lint config` output for
//! the paper's 2048-port example (feasible) and a W=8 variant that breaks
//! every physical constraint (infeasible).

use std::path::{Path, PathBuf};

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

#[test]
fn feasible_2048_port_design_matches_golden() {
    let label = "crates/icn-lint/tests/fixtures/design_feasible_2048.json";
    let source = std::fs::read_to_string(fixture("design_feasible_2048.json")).expect("fixture");
    let check = icn_lint::check_design_json(label, &source);
    assert!(check.feasible(), "{:?}", check.diagnostics);
    assert_eq!(
        icn_lint::render_design_human(&check),
        include_str!("fixtures/design_feasible_2048.golden")
    );
}

#[test]
fn infeasible_w8_design_matches_golden() {
    let label = "crates/icn-lint/tests/fixtures/design_infeasible_w8.json";
    let source = std::fs::read_to_string(fixture("design_infeasible_w8.json")).expect("fixture");
    let check = icn_lint::check_design_json(label, &source);
    assert!(!check.feasible());
    // Doubling W from the paper's example breaks every physical
    // constraint class at once: pins (ICN101), die area (ICN102), board
    // edge (ICN103), wire pitch (ICN104), and connectors (ICN105).
    let codes: Vec<&str> = check.diagnostics.iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, ["ICN101", "ICN102", "ICN103", "ICN104", "ICN105"]);
    assert_eq!(
        icn_lint::render_design_human(&check),
        include_str!("fixtures/design_infeasible_w8.golden")
    );
}
