//! End-to-end analyzer gates.
//!
//! Golden tests pin the exact human and JSON reports for a fixture
//! workspace that violates each source rule once; an allow fixture proves
//! the escape hatch; a self-scan requires the real workspace to stay clean
//! (and a committed snapshot pins the CI subset scan of icn-sim); and
//! design-rule goldens pin `icn lint config` output for the paper's
//! 2048-port example (feasible) and a W=8 variant that breaks every
//! physical constraint (infeasible).

use std::path::{Path, PathBuf};

use icn_lint::{is_failure, render_human, render_json, scan_paths, scan_workspace};

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

#[test]
fn violating_fixture_matches_goldens_and_fails() {
    let diags = scan_workspace(&fixture("violating")).expect("fixture scans");
    // The seeded ICN001/ICN003 violations (among others) must fail the
    // build — this is the behavior the CI lint job relies on.
    assert!(is_failure(&diags));
    for code in ["ICN001", "ICN002", "ICN003", "ICN004", "ICN005", "ICN203"] {
        assert_eq!(
            diags.iter().filter(|d| d.code == code).count(),
            1,
            "expected exactly one {code}"
        );
    }
    assert_eq!(diags.len(), 6, "no incidental findings in the fixture");
    assert_eq!(
        render_human(&diags),
        include_str!("fixtures/violating.human.golden")
    );
    assert_eq!(
        render_json(&diags),
        include_str!("fixtures/violating.json.golden")
    );
}

#[test]
fn subset_scan_reports_the_full_scan_findings_for_its_files() {
    // Every rule is per file, so selecting a file reports exactly what
    // the full scan reports for it — and nothing for the files left out.
    let root = fixture("violating");
    let full = scan_workspace(&root).expect("fixture scans");
    let lib = PathBuf::from("crates/icn-sim/src/lib.rs");
    let subset = scan_paths(&root, &[lib]).expect("subset scans");
    assert_eq!(render_json(&subset), render_json(&full));
    let dir = scan_paths(&root, &[PathBuf::from("crates/icn-sim")]).expect("dir scans");
    assert_eq!(render_json(&dir), render_json(&full));
}

#[test]
fn icn_sim_subset_scan_matches_committed_snapshot() {
    // CI diffs `icn lint --json crates/icn-sim` against this committed
    // snapshot; keep them in lockstep so the diff gate never drifts.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let diags = scan_paths(root, &[PathBuf::from("crates/icn-sim")]).expect("icn-sim scans");
    assert_eq!(
        render_json(&diags),
        include_str!("fixtures/icn_sim_scan.snapshot.json"),
        "regenerate with: icn lint --json crates/icn-sim > crates/icn-lint/tests/fixtures/icn_sim_scan.snapshot.json"
    );
}

#[test]
fn allow_directive_with_reason_suppresses_in_a_scan() {
    let diags = scan_workspace(&fixture("allowed")).expect("fixture scans");
    assert!(diags.is_empty(), "{diags:?}");
    assert!(!is_failure(&diags));
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let diags = scan_workspace(root).expect("workspace scans");
    assert!(
        diags.is_empty(),
        "the tree must lint clean:\n{}",
        render_human(&diags)
    );
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
