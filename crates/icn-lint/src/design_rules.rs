//! `icn lint config`: static design-rule checking of a network design point
//! against the paper's physical constraints, before any simulation runs.
//!
//! The verdict is icn-core's: [`DesignPoint::evaluate`] reports every
//! [`Violation`] of `Solution::violations`, the verdict the explorer also
//! applies to each board it tries, and each becomes one coded diagnostic:
//!
//! | code   | violation                                          | paper    |
//! |--------|----------------------------------------------------|----------|
//! | ICN101 | `Pins`: chip pin budget `2WN + 2N + 3 + ground(F)` | eq. 3.1–3.4 |
//! | ICN102 | `Area`: crossbar layout must fit the die           | §3.2     |
//! | ICN103 | `Board(EdgeTooLong)`: manufacturable board edge    | §3.3     |
//! | ICN104 | `Board(WirePitchTooFine)`: crosstalk-safe pitch    | §3.3     |
//! | ICN105 | `Board(ConnectorsDontFit)`: connectors on one edge | §3.4     |
//! | ICN106 | `Skew`: clock skew within budget                   | eq. 5.3  |
//!
//! Two checks stay here, because they judge the input rather than the
//! design: ICN100 for a spec that cannot be parsed, resolved or evaluated,
//! and ICN106 for a frequency below the spec's own `min_frequency_mhz`.

use icn_core::{DesignPoint, Violation};
use icn_phys::board::BoardConstraint;
use icn_phys::{ClockScheme, CrossbarKind};
use icn_tech::{presets, Technology};
use icn_units::Time;
use serde::{Deserialize, Serialize};

use crate::diagnostics::{Diagnostic, Severity};

/// A design point as written in a config file: [`DesignPoint`] with the
/// technology named by preset and times in explicit units.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignSpec {
    /// Technology preset name, as [`presets::by_name`] knows it (e.g.
    /// `paper-1986-mos-pga`), or one of the older spellings in
    /// [`PRESET_ALIASES`].
    pub tech: String,
    /// Crossbar implementation: `Mcc` or `Dmc`.
    pub kind: CrossbarKind,
    /// Chip crossbar radix `N`.
    pub chip_radix: u32,
    /// Data path width `W` in bits.
    pub width: u32,
    /// Ports per board sub-network `B`.
    pub board_ports: u32,
    /// Ports of the full network `N′`.
    pub network_ports: u32,
    /// Packet size `P` in bits.
    pub packet_bits: u32,
    /// Clock distribution scheme: `Standard` or `MultiplePulse`.
    pub clock_scheme: ClockScheme,
    /// Memory access time in nanoseconds (round-trip estimates).
    pub memory_access_ns: f64,
    /// Optional floor on the achievable clock frequency in MHz; reported
    /// under ICN106 when the converged design falls short.
    #[serde(default)]
    pub min_frequency_mhz: Option<f64>,
}

/// Older spellings of the preset names, each with the name it stands
/// for. Design specs in fixtures and service clients still use them.
pub const PRESET_ALIASES: [(&str, &str); 3] = [
    ("paper1986", "paper-1986-mos-pga"),
    ("scaled_cmos_early90s", "scaled-cmos-early90s"),
    ("conservative1986", "conservative-1986"),
];

impl DesignSpec {
    /// Resolve the named technology preset through [`presets::by_name`],
    /// the one preset vocabulary the explorer and `--tech` share.
    fn resolve_tech(&self) -> Option<Technology> {
        let name = PRESET_ALIASES
            .iter()
            .find(|(alias, _)| *alias == self.tech)
            .map_or(self.tech.as_str(), |&(_, name)| name);
        presets::by_name(name)
    }

    fn to_point(&self, tech: Technology) -> DesignPoint {
        DesignPoint {
            tech,
            kind: self.kind,
            chip_radix: self.chip_radix,
            width: self.width,
            board_ports: self.board_ports,
            network_ports: self.network_ports,
            packet_bits: self.packet_bits,
            clock_scheme: self.clock_scheme,
            memory_access: Time::from_nanos(self.memory_access_ns),
        }
    }
}

/// The outcome of checking one design spec: the structured verdict shared
/// by `icn lint config` and the `icn-serve` evaluation endpoint (render
/// with [`render_design_human`]/[`render_design_json`], or serialize the
/// check itself for machine consumers).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DesignCheck {
    /// Human-readable summary lines describing the evaluated design
    /// (empty when the spec could not be parsed/resolved).
    pub summary: Vec<String>,
    /// Constraint violations as coded diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// The full audited evaluation behind the verdict (`None` when the
    /// spec could not be parsed or resolved, i.e. on ICN100).
    pub report: Option<icn_core::DesignReport>,
}

impl DesignCheck {
    /// Whether the design satisfies every checked constraint.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

fn design_diag(file: &str, code: &str, message: String, suggestion: &str) -> Diagnostic {
    Diagnostic {
        code: code.to_string(),
        severity: Severity::Error,
        file: file.to_string(),
        line: 0,
        message,
        suggestion: suggestion.to_string(),
    }
}

/// A spec the design rules cannot judge: one ICN100 diagnostic, no
/// evaluation.
fn invalid(file: &str, message: String, suggestion: &str) -> DesignCheck {
    DesignCheck {
        summary: Vec::new(),
        diagnostics: vec![design_diag(file, "ICN100", message, suggestion)],
        report: None,
    }
}

/// The code and suggestion `icn lint config` gives each violation.
fn rule(violation: &Violation) -> (&'static str, &'static str) {
    match violation {
        Violation::Pins(_) => (
            "ICN101",
            "reduce the data path width W or the chip radix N (eq. 3.1-3.4: pins = 2WN + 2N + 3 + ground(F))",
        ),
        Violation::Area { .. } => (
            "ICN102",
            "reduce N or W, or switch crossbar style (S3.2: MCC area grows as N^2, DMC wiring as N^4)",
        ),
        Violation::Board(BoardConstraint::EdgeTooLong { .. }) => (
            "ICN103",
            "fewer chips per stage: reduce board_ports or raise chip_radix (S3.3)",
        ),
        Violation::Board(BoardConstraint::WirePitchTooFine { .. }) => (
            "ICN104",
            "fewer inter-stage wires per gap: reduce W or board_ports, or add signal layers (S3.3)",
        ),
        Violation::Board(BoardConstraint::ConnectorsDontFit { .. }) => (
            "ICN105",
            "fewer external lines: reduce W or board_ports (S3.4)",
        ),
        Violation::Skew { .. } => (
            "ICN106",
            "shorten the clock distribution (smaller boards) or accept a lower frequency (eq. 5.3: skew ~ 0.7 tau)",
        ),
    }
}

/// Parse `json` (the contents of `file`, used for labeling) and check it.
#[must_use]
pub fn check_design_json(file: &str, json: &str) -> DesignCheck {
    let spec: DesignSpec = match serde_json::from_str(json) {
        Ok(spec) => spec,
        Err(e) => return invalid(
            file,
            format!("cannot parse design spec: {e}"),
            "see DesignSpec in icn-lint for the schema (tech/kind/chip_radix/width/board_ports/network_ports/packet_bits/clock_scheme/memory_access_ns)",
        ),
    };
    check_design(file, &spec)
}

/// Check a parsed spec against every design rule.
#[must_use]
pub fn check_design(file: &str, spec: &DesignSpec) -> DesignCheck {
    let Some(tech) = spec.resolve_tech() else {
        let names: Vec<String> = presets::all().into_iter().map(|t| t.name).collect();
        return invalid(
            file,
            format!("unknown technology preset `{}`", spec.tech),
            &format!("use one of: {}", names.join(", ")),
        );
    };
    // The evaluation pipeline asserts its structural preconditions; check
    // them here so a malformed spec gets a diagnostic, not a panic.
    let structural: Option<&str> = if spec.chip_radix < 2 {
        Some("chip_radix must be at least 2")
    } else if spec.width < 1 || spec.packet_bits < 1 {
        Some("width and packet_bits must be at least 1")
    } else if spec.board_ports < spec.chip_radix
        || icn_phys::board::exact_log(spec.board_ports, spec.chip_radix).is_none()
    {
        Some("board_ports must be a positive power of chip_radix")
    } else if spec.network_ports < spec.board_ports {
        Some("network_ports must be at least board_ports")
    } else if !spec.memory_access_ns.is_finite() || spec.memory_access_ns <= 0.0 {
        Some("memory_access_ns must be a positive number")
    } else {
        None
    };
    if let Some(problem) = structural {
        return invalid(
            file,
            format!("structurally invalid design: {problem}"),
            "fix the spec field; see DesignSpec in icn-lint for the schema",
        );
    }
    let report = spec.to_point(tech).evaluate();
    let mut diagnostics: Vec<Diagnostic> = report
        .violations
        .iter()
        .map(|violation| {
            let (code, suggestion) = rule(violation);
            design_diag(file, code, violation.to_string(), suggestion)
        })
        .collect();
    if let Some(min_mhz) = spec.min_frequency_mhz {
        if report.frequency.mhz() < min_mhz {
            diagnostics.push(design_diag(
                file,
                "ICN106",
                format!(
                    "achievable clock is {:.1} MHz, below the required {min_mhz:.1} MHz",
                    report.frequency.mhz()
                ),
                "shorten the worst-case signal path or relax the frequency floor (eq. 5.1-5.3)",
            ));
        }
    }

    // One shared rendering of the evaluated design (DESIGN.md §9): the
    // CLI's `lint config`, the service's `/v1/evaluate`, and any future
    // surface describe a design with the same lines.
    let summary = report.summary_lines(&spec.tech);
    DesignCheck {
        summary,
        diagnostics,
        report: Some(report),
    }
}

/// Render a design check for humans: summary, then diagnostics, then a
/// verdict line.
#[must_use]
pub fn render_design_human(check: &DesignCheck) -> String {
    let mut out = String::new();
    for line in &check.summary {
        out.push_str(line);
        out.push('\n');
    }
    for d in &check.diagnostics {
        out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
        out.push_str(&format!("  --> {}\n", d.file));
        out.push_str(&format!("  help: {}\n", d.suggestion));
    }
    if check.feasible() {
        out.push_str("verdict: FEASIBLE under eq. 3.1-3.4, S3.3-3.4, and eq. 5.3\n");
    } else {
        out.push_str(&format!(
            "verdict: INFEASIBLE ({} constraint violation{})\n",
            check.diagnostics.len(),
            plural(check.diagnostics.len())
        ));
    }
    out
}

/// The plural suffix for a count of `n`.
fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// The machine-readable design-check envelope. (Owns its data: the
/// vendored serde_derive cannot derive on lifetime-generic types.)
#[derive(Debug, Serialize)]
struct DesignJson {
    version: u32,
    feasible: bool,
    summary: Vec<String>,
    diagnostics: Vec<Diagnostic>,
}

/// Render a design check as stable pretty-printed JSON.
#[must_use]
pub fn render_design_json(check: &DesignCheck) -> String {
    let mut body = serde_json::to_string_pretty(&DesignJson {
        version: 1,
        feasible: check.feasible(),
        summary: check.summary.clone(),
        diagnostics: check.diagnostics.clone(),
    })
    .unwrap_or_else(|_| "{}".to_string());
    body.push('\n');
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_spec() -> DesignSpec {
        DesignSpec {
            tech: "paper1986".to_string(),
            kind: CrossbarKind::Dmc,
            chip_radix: 16,
            width: 4,
            board_ports: 256,
            network_ports: 2048,
            packet_bits: 100,
            clock_scheme: ClockScheme::MultiplePulse,
            memory_access_ns: 200.0,
            min_frequency_mhz: None,
        }
    }

    #[test]
    fn paper_example_is_feasible() {
        let check = check_design("spec.json", &paper_spec());
        assert!(check.feasible(), "{:?}", check.diagnostics);
        assert_eq!(check.summary.len(), 5);
        let text = render_design_human(&check);
        assert!(text.contains("verdict: FEASIBLE"), "{text}");
        assert!(text.contains("2048-port network"), "{text}");
    }

    #[test]
    fn wide_paths_blow_the_pin_budget() {
        let mut spec = paper_spec();
        spec.width = 8;
        let check = check_design("spec.json", &spec);
        assert!(!check.feasible());
        assert!(check.diagnostics.iter().any(|d| d.code == "ICN101"));
    }

    #[test]
    fn oversized_crossbar_violates_die_area() {
        let mut spec = paper_spec();
        spec.chip_radix = 32;
        spec.board_ports = 1024;
        spec.network_ports = 32768;
        let check = check_design("spec.json", &spec);
        assert!(
            check.diagnostics.iter().any(|d| d.code == "ICN102"),
            "{:?}",
            check.diagnostics
        );
    }

    #[test]
    fn frequency_floor_reports_icn106() {
        let mut spec = paper_spec();
        spec.min_frequency_mhz = Some(100.0);
        let check = check_design("spec.json", &spec);
        assert!(check.diagnostics.iter().any(|d| d.code == "ICN106"));
    }

    #[test]
    fn preset_names_and_their_aliases_resolve_alike() {
        for tech in presets::all() {
            let mut spec = paper_spec();
            spec.tech.clone_from(&tech.name);
            let canonical = check_design("spec.json", &spec);
            assert!(canonical.report.is_some(), "{}", tech.name);
            let (alias, _) = PRESET_ALIASES
                .iter()
                .find(|(_, name)| *name == tech.name)
                .expect("every preset keeps its old spelling");
            spec.tech = (*alias).to_string();
            let aliased = check_design("spec.json", &spec);
            // The summary echoes the spelling the spec used; the verdict
            // and the evaluation behind it are the same.
            assert_eq!(aliased.diagnostics, canonical.diagnostics, "{alias}");
            assert_eq!(aliased.report, canonical.report, "{alias}");
        }
    }

    #[test]
    fn unknown_preset_and_bad_json_are_icn100() {
        let mut spec = paper_spec();
        spec.tech = "unobtainium".to_string();
        let check = check_design("spec.json", &spec);
        assert_eq!(check.diagnostics.len(), 1);
        assert_eq!(check.diagnostics[0].code, "ICN100");
        let help = &check.diagnostics[0].suggestion;
        for tech in presets::all() {
            assert!(help.contains(&tech.name), "{help}");
        }

        let parse = check_design_json("spec.json", "{ not json }");
        assert_eq!(parse.diagnostics[0].code, "ICN100");
        assert!(!parse.feasible());
    }

    #[test]
    fn structurally_invalid_specs_diagnose_instead_of_panicking() {
        for breakage in [
            |s: &mut DesignSpec| s.chip_radix = 0,
            |s: &mut DesignSpec| s.board_ports = 100,
            |s: &mut DesignSpec| s.board_ports = 1,
            |s: &mut DesignSpec| s.network_ports = 16,
            |s: &mut DesignSpec| s.memory_access_ns = -1.0,
        ] {
            let mut spec = paper_spec();
            breakage(&mut spec);
            let check = check_design("spec.json", &spec);
            assert_eq!(check.diagnostics.len(), 1, "{:?}", check.diagnostics);
            assert_eq!(check.diagnostics[0].code, "ICN100");
        }
    }

    #[test]
    fn json_rendering_reports_feasibility() {
        let check = check_design("spec.json", &paper_spec());
        let text = render_design_json(&check);
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(value["feasible"], true);
        assert_eq!(value["version"], 1);
    }
}
