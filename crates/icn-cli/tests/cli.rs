//! End-to-end tests of the `icn` binary.

use std::process::Command;

use franklin_dhar_icn::experiments::{Runner, EXPERIMENTS};

fn icn(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = icn(&["help"]);
    assert!(ok);
    assert!(stdout.contains("table2-pins"));
    assert!(stdout.contains("simulate"));
}

#[test]
fn list_enumerates_experiments() {
    let (ok, stdout, _) = icn(&["list"]);
    assert!(ok);
    for id in [
        "E1", "E2", "E3", "E4", "E5", "E6", "E9", "E10", "C1", "X1", "X3",
    ] {
        assert!(stdout.contains(id), "missing {id} in:\n{stdout}");
    }
}

#[test]
fn table2_pins_prints_the_table() {
    let (ok, stdout, _) = icn(&["table2-pins"]);
    assert!(ok);
    assert!(stdout.contains("F = 10 MHz"));
    assert!(stdout.contains("69"));
    assert!(stdout.contains("294!"));
}

#[test]
fn example_2048_reports_the_conclusion() {
    let (ok, stdout, _) = icn(&["example-2048"]);
    assert!(ok);
    assert!(stdout.contains("MHz"));
    assert!(stdout.contains("round trip"));
}

#[test]
fn json_output_is_valid_json() {
    let (ok, stdout, _) = icn(&["fig2-blocking", "--json"]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["id"], "E6");
}

#[test]
fn simulate_runs_a_small_network() {
    let (ok, stdout, _) = icn(&["simulate", "--ports", "64", "--load", "0.005"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("64 ports"));
    assert!(stdout.contains("network latency"));
}

#[test]
fn simulate_with_faults_reports_degradation() {
    let (ok, stdout, _) = icn(&[
        "simulate",
        "--ports",
        "64",
        "--load",
        "0.005",
        "--fail-modules",
        "2",
        "--retry-limit",
        "2",
        "--watchdog-cycles",
        "5000",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("faults: dropped"), "{stdout}");
    assert!(stdout.contains("unreachable pairs"), "{stdout}");
    assert!(stdout.contains("conservation ok"), "{stdout}");
}

#[test]
fn invalid_config_exits_nonzero_without_panicking() {
    // The typed validation error must surface as a clean nonzero exit,
    // not a panic backtrace.
    let (ok, _, stderr) = icn(&[
        "simulate", "--ports", "16", "--load", "0.005", "--width", "0",
    ]);
    assert!(!ok);
    assert!(stderr.contains("error: invalid configuration"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn fault_tolerance_experiment_renders() {
    let (ok, stdout, _) = icn(&["fault-tolerance", "--json"]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["id"], "X10");
    assert_eq!(v["json"]["sweep"].as_array().unwrap().len(), 5);
}

#[test]
fn saturation_experiment_renders() {
    let (ok, stdout, _) = icn(&["saturation", "--json"]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["id"], "X11");
    assert_eq!(v["json"]["runs"].as_array().unwrap().len(), 3);
}

#[test]
fn simulate_dump_then_inspect_round_trips() {
    let dir = std::env::temp_dir().join(format!("icn-inspect-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("dump.jsonl");
    let dump_arg = dump.to_str().unwrap();
    let (ok, _, stderr) = icn(&[
        "simulate",
        "--ports",
        "64",
        "--load",
        "0.005",
        "--sample-interval",
        "50",
        "--telemetry-out",
        dump_arg,
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("wrote telemetry"), "{stderr}");

    let (ok, stdout, _) = icn(&["inspect", dump_arg]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("64 ports"), "{stdout}");
    assert!(stdout.contains("stage 0 occupancy"), "{stdout}");
    assert!(stdout.contains("occupancy heatmap"), "{stdout}");
    assert!(stdout.contains("total_latency"), "{stdout}");
    assert!(stdout.contains("p999"), "{stdout}");
    assert!(stdout.contains("events: deliver"), "{stdout}");

    // The CSV form carries the time series alone.
    let csv = dir.join("series.csv");
    let csv_arg = csv.to_str().unwrap();
    let (ok, _, _) = icn(&[
        "simulate",
        "--ports",
        "16",
        "--load",
        "0.005",
        "--telemetry-out",
        csv_arg,
    ]);
    assert!(ok);
    let text = std::fs::read_to_string(&csv).unwrap();
    assert!(text.starts_with("cycle,"), "{text}");
    assert!(text.lines().count() > 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Exact-match golden-file check of the full telemetry pipeline:
/// `simulate --telemetry-out` stdout + JSONL dump bytes, then `inspect`
/// rendering of that dump. Byte-identical output is part of the PR-3
/// determinism contract (see DESIGN.md §7 and icn-sim/tests/parity.rs);
/// regenerate the fixtures ONLY for an intentional output change:
///
/// ```text
/// cd crates/icn-cli/tests/fixtures
/// icn simulate --ports 64 --load 0.005 --seed 2024 \
///     --warmup-cycles 50 --measure-cycles 300 --drain-cycles 5000 \
///     --sample-interval 50 --telemetry-out simulate.dump.jsonl \
///     > simulate.stdout.txt
/// icn inspect simulate.dump.jsonl > inspect.stdout.txt
/// ```
#[test]
fn simulate_and_inspect_match_golden_fixtures_exactly() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let golden = |name: &str| -> String {
        std::fs::read_to_string(fixtures.join(name))
            .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"))
    };
    let dir = std::env::temp_dir().join(format!("icn-golden-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("simulate.dump.jsonl");
    let dump_arg = dump.to_str().unwrap();

    let (ok, stdout, stderr) = icn(&[
        "simulate",
        "--ports",
        "64",
        "--load",
        "0.005",
        "--seed",
        "2024",
        "--warmup-cycles",
        "50",
        "--measure-cycles",
        "300",
        "--drain-cycles",
        "5000",
        "--sample-interval",
        "50",
        "--telemetry-out",
        dump_arg,
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout,
        golden("simulate.stdout.txt"),
        "simulate stdout drifted from the golden fixture"
    );
    assert_eq!(
        std::fs::read_to_string(&dump).unwrap(),
        golden("simulate.dump.jsonl"),
        "telemetry JSONL dump drifted from the golden fixture"
    );

    let (ok, stdout, stderr) = icn(&["inspect", dump_arg]);
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout,
        golden("inspect.stdout.txt"),
        "inspect rendering drifted from the golden fixture"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Exact-match golden-file check of the default `icn explore` walk
/// (satellite of PR 10): the §3.2 narrative, the `best()` pick, and the
/// formatting are all pinned. Regenerate ONLY for an intentional change:
///
/// ```text
/// cd crates/icn-cli/tests/fixtures
/// icn explore > explore.stdout.txt
/// ```
#[test]
fn explore_default_walk_matches_golden_fixture_exactly() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let golden = std::fs::read_to_string(fixtures.join("explore.stdout.txt"))
        .unwrap_or_else(|e| panic!("reading fixture explore.stdout.txt: {e}"));
    let (ok, stdout, stderr) = icn(&["explore"]);
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout, golden,
        "default explore output drifted from the golden fixture"
    );
}

/// Exact-match golden-file check of `icn explore --grid bench --json`:
/// feasible count, every frontier point's fields, the spot-checks and
/// the JSON formatting. Regenerate ONLY for an intentional change:
///
/// ```text
/// cd crates/icn-cli/tests/fixtures
/// icn explore --grid bench --json > explore_bench.json
/// ```
#[test]
fn explore_bench_grid_json_matches_golden_fixture_exactly() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let golden = std::fs::read_to_string(fixtures.join("explore_bench.json"))
        .unwrap_or_else(|e| panic!("reading fixture explore_bench.json: {e}"));
    let (ok, stdout, stderr) = icn(&["explore", "--grid", "bench", "--json"]);
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout, golden,
        "bench-grid explore JSON drifted from the golden fixture"
    );
}

/// Exact-match golden-file check of `icn explore --grid million --json`
/// at one, two and four threads: every frontier point's frequency, pins and
/// delay bits, not only the indices `icn-explore`'s `tests/million.rs`
/// pins. Regenerate ONLY for an intentional change:
///
/// ```text
/// cd crates/icn-cli/tests/fixtures
/// icn explore --grid million --json > explore_million.json
/// ```
#[test]
fn explore_million_grid_json_matches_golden_fixture_exactly() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let golden = std::fs::read_to_string(fixtures.join("explore_million.json"))
        .unwrap_or_else(|e| panic!("reading fixture explore_million.json: {e}"));
    for threads in ["1", "2", "4"] {
        let (ok, stdout, stderr) = icn(&[
            "explore",
            "--grid",
            "million",
            "--json",
            "--threads",
            threads,
        ]);
        assert!(ok, "{stderr}");
        assert_eq!(
            stdout, golden,
            "million-grid explore JSON at --threads {threads} drifted from the golden fixture"
        );
    }
}

/// The grid engine's determinism contract at the CLI surface: the JSON
/// frontier for a grid is byte-identical regardless of worker count.
#[test]
fn explore_grid_output_is_byte_identical_across_thread_counts() {
    let (ok, single, stderr) = icn(&["explore", "--grid", "paper", "--json", "--threads", "1"]);
    assert!(ok, "{stderr}");
    let (ok, quad, stderr) = icn(&["explore", "--grid", "paper", "--json", "--threads", "4"]);
    assert!(ok, "{stderr}");
    assert_eq!(single, quad, "frontier bytes depend on thread count");
    assert!(single.contains("\"frontier\""), "{single}");
    assert!(single.contains("\"ranking_agrees\": true"), "{single}");
}

/// Oversized chips must be infeasible, not wrapped into small ones: a
/// grid of 65536-radix, 2^32-1-bit chips once reported a feasible 5-pin,
/// 0 mm² design, and the same design passed `lint config` without ICN101.
#[test]
fn oversized_designs_are_infeasible_at_the_cli() {
    let dir = std::env::temp_dir().join(format!("icn-oversized-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grid = dir.join("grid.json");
    std::fs::write(
        &grid,
        r#"{"techs":["paper-1986-mos-pga"],"kinds":["Mcc","Dmc"],"clock_schemes":["MultiplePulse"],"network_ports":[4294967295],"radices":[65536,4294967295],"widths":[4294967295],"packet_bits":[4294967295],"max_board_ports":4294967295}"#,
    )
    .unwrap();
    let (ok, stdout, stderr) = icn(&["explore", "--grid", grid.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("4 candidates, 0 feasible"), "{stdout}");

    let design = dir.join("design.json");
    std::fs::write(
        &design,
        r#"{"tech":"paper1986","kind":"Dmc","chip_radix":65536,"width":4294967295,"board_ports":65536,"network_ports":65536,"packet_bits":100,"clock_scheme":"MultiplePulse","memory_access_ns":200.0}"#,
    )
    .unwrap();
    let (code, stdout, stderr) = icn_status(&["lint", "config", design.to_str().unwrap()]);
    assert_eq!(code, 3, "{stdout}{stderr}");
    assert!(stdout.contains("ICN101"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frontier whose networks the simulator refuses says so: with packets
/// of 2^21 flits (above the 2^20-flit bound) no spot-check can run, and
/// the human output names how many ran and why each point was skipped.
/// The JSON body keeps its fields.
#[test]
fn explore_names_the_spot_checks_it_could_not_run() {
    let dir = std::env::temp_dir().join(format!("icn-unsimulable-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grid = dir.join("grid.json");
    std::fs::write(
        &grid,
        r#"{"techs":["paper-1986-mos-pga"],"kinds":["Mcc","Dmc"],"clock_schemes":["MultiplePulse"],"network_ports":[64],"radices":[4,8],"widths":[1],"packet_bits":[2097152]}"#,
    )
    .unwrap();
    let (ok, stdout, stderr) = icn(&["explore", "--grid", grid.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("spot-checks: 0 of 4 ran (frontier size 2)"),
        "{stdout}"
    );
    let skips: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("  not simulated: #"))
        .collect();
    assert_eq!(skips.len(), 2, "{stdout}");
    for line in skips {
        assert!(
            line.contains(
                "P=2097152: invalid configuration: a packet may span at most 1048576 flits"
            ),
            "{line}"
        );
    }

    let (ok, stdout, stderr) = icn(&["explore", "--grid", grid.to_str().unwrap(), "--json"]);
    assert!(ok, "{stderr}");
    let outcome: serde_json::Value = serde_json::from_str(&stdout).expect("explore JSON");
    assert_eq!(outcome["frontier"].as_array().map(Vec::len), Some(2));
    assert_eq!(outcome["spot_checks"].as_array().map(Vec::len), Some(0));
    assert!(!stdout.contains("not simulated"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One preset vocabulary: every frontier point `explore` prints, written
/// as a design spec with the preset name it printed, passes
/// `icn lint config` (the check `/v1/evaluate` also runs).
#[test]
fn explore_frontier_points_pass_lint_config() {
    let (ok, stdout, stderr) = icn(&["explore", "--grid", "bench", "--json"]);
    assert!(ok, "{stderr}");
    let outcome: serde_json::Value = serde_json::from_str(&stdout).expect("explore JSON");
    let frontier = outcome["frontier"].as_array().expect("a frontier");
    assert!(!frontier.is_empty());
    let dir = std::env::temp_dir().join(format!("icn-frontier-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for point in frontier {
        let spec = serde_json::json!({
            "tech": point["tech"],
            "kind": point["kind"],
            "chip_radix": point["chip_radix"],
            "width": point["width"],
            "board_ports": point["board_ports"],
            "network_ports": point["network_ports"],
            "packet_bits": point["packet_bits"],
            "clock_scheme": point["clock_scheme"],
            "memory_access_ns": 200.0,
        });
        let path = dir.join(format!("point-{}.json", point["index"]));
        std::fs::write(&path, spec.to_string()).unwrap();
        let (code, out, err) = icn_status(&["lint", "config", path.to_str().unwrap()]);
        assert_eq!(
            code, 0,
            "frontier point {spec} fails lint config:\n{out}{err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inspect_without_a_path_fails_helpfully() {
    let (ok, _, stderr) = icn(&["inspect"]);
    assert!(!ok);
    assert!(stderr.contains("dump path"), "{stderr}");
}

#[test]
fn trace_renders_a_profiled_dump() {
    let dir = std::env::temp_dir().join(format!("icn-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("profiled.jsonl");
    let dump_arg = dump.to_str().unwrap();
    let (ok, _, stderr) = icn(&[
        "simulate",
        "--ports",
        "64",
        "--load",
        "0.01",
        "--profile",
        "--telemetry-out",
        dump_arg,
    ]);
    assert!(ok, "{stderr}");

    let (ok, stdout, stderr) = icn(&["trace", dump_arg]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("engine span profile"), "{stdout}");
    // The three-level tree: run → schedule windows → per-cycle phases.
    for span in ["run", "warmup", "measure", "route", "arbitrate", "advance"] {
        assert!(stdout.contains(span), "missing span {span} in:\n{stdout}");
    }
    assert!(stdout.contains("stage utilization heatmap"), "{stdout}");
    assert!(stdout.contains("hottest module"), "{stdout}");

    // inspect points profiled dumps at `icn trace` and keeps working.
    let (ok, stdout, _) = icn(&["inspect", dump_arg]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("span profile recorded"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_on_an_unprofiled_dump_says_how_to_record_one() {
    let dir = std::env::temp_dir().join(format!("icn-trace-miss-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("plain.jsonl");
    let dump_arg = dump.to_str().unwrap();
    let (ok, _, _) = icn(&[
        "simulate",
        "--ports",
        "16",
        "--load",
        "0.005",
        "--telemetry-out",
        dump_arg,
    ]);
    assert!(ok);
    let (code, _, stderr) = icn_status(&["trace", dump_arg]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("--profile"), "{stderr}");

    // And no argument at all is a usage error.
    let (code, _, stderr) = icn_status(&["trace"]);
    assert_eq!(code, 2, "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The per-stage arrays a dump's `Sample` lines carry.
const STAGE_FIELDS: [&str; 4] = [
    "stage_occupancy",
    "stage_grants_delta",
    "stage_blocked_delta",
    "stage_dropped_delta",
];

/// `line` with its `field` array emptied.
fn empty_stage_array(line: &str, field: &str) -> String {
    let key = format!("\"{field}\":[");
    let start = line.find(&key).expect("sample carries the field") + key.len();
    let end = start + line[start..].find(']').expect("array closes");
    format!("{}{}", &line[..start], &line[end..])
}

/// Mutated telemetry dumps never panic `inspect` or `trace`: every run
/// exits 0 or with a `Failure` code (1–4), never with a panic's 101. The
/// mutations are a fixed, seeded list over two dumps — the golden
/// `simulate` fixture and a `--profile` dump — so any failure replays.
#[test]
fn mutated_dumps_never_panic_inspect_or_trace() {
    let dir = std::env::temp_dir().join(format!("icn-mutated-dump-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mutant = dir.join("mutant.jsonl");
    let mutant_arg = mutant.to_str().unwrap();
    let profile = "simulate --ports 64 --load 0.01 --profile --telemetry-out";
    let (ok, _, stderr) = icn(&[profile.split(' ').collect(), vec![mutant_arg]].concat());
    assert!(ok, "{stderr}");
    let lines_of = |path: &std::path::Path| -> Vec<String> {
        let text = std::fs::read_to_string(path).unwrap();
        text.lines().map(str::to_owned).collect()
    };
    // Keep the profile, samples and histograms whole but only the first
    // events, so each run below takes milliseconds.
    let mut events = 0;
    let mut profiled = lines_of(&mutant);
    profiled.retain(|line| {
        events += usize::from(line.starts_with("{\"Event\""));
        events <= 100
    });
    let golden = lines_of(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/simulate.dump.jsonl"),
    );

    let join = |lines: &[String]| (lines.join("\n") + "\n").into_bytes();
    // The `inspect` exit code; both commands must exit 0–4.
    let run = |bytes: Vec<u8>, what: &str| -> i32 {
        std::fs::write(&mutant, bytes).unwrap();
        ["inspect", "trace"].map(|command| {
            let (code, _, stderr) = icn_status(&[command, mutant_arg]);
            assert!(
                (0..=4).contains(&code),
                "`icn {command}` exited {code} on {what}:\n{stderr}"
            );
            code
        })[0]
    };

    // The reported defects: an emptied per-stage array, and samples out
    // of cycle order with no Meta line to give the interval. `inspect`
    // refuses each with the I/O code.
    for field in STAGE_FIELDS {
        let mut lines = golden.clone();
        lines[2] = empty_stage_array(&lines[2], field);
        assert_eq!(run(join(&lines), field), 4, "emptied {field}");
    }
    let mut lines = golden[1..].to_vec();
    lines.swap(0, 1);
    assert_eq!(run(join(&lines), "swapped samples"), 4);
    // A histogram whose min passes its max: quantiles clamp between them.
    let mut lines = golden.clone();
    let h = lines
        .iter()
        .position(|l| l.starts_with("{\"Histogram\""))
        .unwrap();
    lines[h] = lines[h].replacen("\"min\":", "\"min\":9", 1);
    assert_eq!(run(join(&lines), "histogram min above max"), 4);

    // Seeded mutations of both dumps (xorshift64, fixed seed).
    let mut state = 0x1986_0106_5eed_u64;
    let mut next = move |bound: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for (name, dump) in [("golden", &golden), ("profiled", &profiled)] {
        let n = dump.len();
        let samples: Vec<usize> = (0..n)
            .filter(|&l| dump[l].starts_with("{\"Sample\""))
            .collect();
        for i in 0..30 {
            let mut lines = dump.clone();
            let bytes = match i % 5 {
                0 => {
                    let mut bytes = join(dump);
                    let at = next(bytes.len());
                    bytes[at] ^= 1 << next(8);
                    bytes
                }
                1 => {
                    let mut bytes = join(dump);
                    bytes.truncate(next(bytes.len()));
                    bytes
                }
                2 => {
                    let (at, from) = (next(n), next(n));
                    lines.insert(at, dump[from].clone());
                    join(&lines)
                }
                3 => {
                    let (a, b) = (next(n), next(n));
                    lines.swap(a, b);
                    join(&lines)
                }
                _ => {
                    let at = samples[next(samples.len())];
                    lines[at] = empty_stage_array(&dump[at], STAGE_FIELDS[next(4)]);
                    join(&lines)
                }
            };
            run(bytes, &format!("the {name} dump, mutation {i}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_labels_unknown_dump_tags_instead_of_aborting() {
    let dir = std::env::temp_dir().join(format!("icn-unknown-tag-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("future.jsonl");
    // A single-key tagged object from a future dump dialect is skipped
    // and reported; the known lines still render.
    std::fs::write(
        &dump,
        concat!(
            r#"{"Meta":{"ports":16,"stages":2,"cycles_run":100,"sample_interval":10,"dropped_samples":0}}"#,
            "\n",
            r#"{"FlameGraph":{"v":2}}"#,
            "\n",
            r#"{"FlameGraph":{"v":3}}"#,
            "\n"
        ),
    )
    .unwrap();
    let (ok, stdout, stderr) = icn(&["inspect", dump.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("unknown tags"), "{stdout}");
    assert!(stdout.contains("FlameGraph ×2"), "{stdout}");

    // Outright garbage still aborts with the I/O exit code.
    std::fs::write(&dump, "not json at all\n").unwrap();
    let (code, _, stderr) = icn_status(&["inspect", dump.to_str().unwrap()]);
    assert_eq!(code, 4, "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--ports` sizes the drawing, 256 included: each port count P draws one
/// edge per line into each of the log2(P) stages and one out of the last.
#[test]
fn fig1_dot_emits_graphviz() {
    let (ok, stdout, _) = icn(&["fig1-dot"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph network {"));
    assert!(stdout.contains("s0m0"));
    assert!(stdout.contains("-> out15;"));
    assert_eq!(stdout.matches(" -> ").count(), 16 * 5);
    for (ports, stages) in [(64, 6), (256, 8)] {
        let (ok, stdout, stderr) = icn(&["fig1-dot", "--ports", &ports.to_string()]);
        assert!(ok, "{stderr}");
        assert_eq!(stdout.matches(" -> ").count(), ports * (stages + 1));
        assert!(stdout.contains(&format!("-> out{};", ports - 1)));
    }
}

/// The published reproduction is what the code writes: `dump` rewrites
/// every committed `results/*.txt` byte for byte (no file more, none
/// less), and `report` rewrites `REPORT.md`.
#[test]
fn dump_writes_results_files() {
    // Run in a temp dir so the test doesn't clobber the repo's results/.
    let dir = std::env::temp_dir().join(format!("icn-dump-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for command in ["dump", "report"] {
        let out = Command::new(env!("CARGO_BIN_EXE_icn"))
            .arg(command)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let listing = |dir: std::path::PathBuf| -> std::collections::BTreeSet<String> {
        let entries = std::fs::read_dir(dir).unwrap();
        entries
            .map(|e| format!("results/{}", e.unwrap().file_name().to_string_lossy()))
            .collect()
    };
    let written = listing(dir.join("results"));
    assert_eq!(written, listing(repo.join("results")), "results/ file set");
    assert!(
        written.contains("results/E7_E8.txt"),
        "slash in id must be sanitized"
    );
    assert!(
        written.iter().all(|name| name.ends_with(".txt")),
        "{written:?}"
    );
    for name in written.iter().chain([&"REPORT.md".to_owned()]) {
        let fresh = std::fs::read(dir.join(name)).unwrap();
        assert!(
            fresh == std::fs::read(repo.join(name)).unwrap(),
            "{name} differs from what `icn dump`/`icn report` write; regenerate it"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = icn(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage"));
}

#[test]
fn unknown_tech_preset_fails_helpfully() {
    let (ok, _, stderr) = icn(&["table1", "--tech", "vacuum-tubes"]);
    assert!(!ok);
    assert!(stderr.contains("paper-1986-mos-pga"));
}

#[test]
fn tech_preset_switches_parameters() {
    let (ok, stdout, _) = icn(&["table1", "--tech", "scaled-cmos-early90s"]);
    assert!(ok);
    assert!(stdout.contains("0.8 µm"), "{stdout}");
}

/// Run `icn` and return the raw exit code alongside the captured streams.
fn icn_status(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().expect("exited, not signalled"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Golden exit-code contract: scripts branch on the status alone, so the
/// code for each failure class is pinned here (see `Failure` in
/// `src/main.rs`): 0 success, 2 usage, 3 negative verdict, 4 I/O, 1 other.
#[test]
fn exit_codes_are_distinct_and_stable() {
    // 0 — success.
    let (code, _, _) = icn_status(&["table1"]);
    assert_eq!(code, 0);

    // 2 — usage errors print the message to stderr, then the usage text,
    // and run nothing. One misplaced flag per command: a flag (or bare
    // argument) the command does not read is refused, never ignored, and
    // each experiment refuses the flag of the other runner kinds.
    let tech = ["--tech", "paper-1986-mos-pga"];
    let mut misplaced: Vec<Vec<&str>> = vec![
        vec!["table1", "--load", "0.5", "--threads", "9"],
        vec!["table1", "extra"],
        vec!["help", "--json"],
        vec!["list", tech[0], tech[1]],
        vec!["all", "--full"],
        vec!["dump", "--json"],
        vec!["report", "--json"],
        vec!["fig1-dot", "--json"],
        vec!["explore", "--threads", "2"],
        vec!["explore", "--grid", "paper", tech[0], tech[1]],
        vec!["simulate", tech[0], tech[1]],
        vec!["inspect", "dump.jsonl", "--json"],
        vec!["trace", "dump.jsonl", "second.jsonl"],
        vec!["metrics", "metrics.txt", "--full"],
        vec!["bench", "--load", "0.5"],
        vec!["serve", "--json"],
        vec!["lint", "--full"],
    ];
    for e in &EXPERIMENTS {
        misplaced.push(match e.runner {
            Runner::Effort(_) => vec![e.command, tech[0], tech[1]],
            _ => vec![e.command, "--full"],
        });
    }
    for args in misplaced.into_iter().chain([
        vec!["frobnicate"],
        vec!["simulate", "--ports", "100"],
        vec!["simulate", "--ports", "16", "--width", "0"],
        // An offered load is a probability: out of range or not a number
        // is refused while parsing, before any workload is built.
        vec!["simulate", "--ports", "16", "--load", "2"],
        vec!["simulate", "--ports", "16", "--load", "-1"],
        vec!["simulate", "--ports", "16", "--load", "nan"],
        vec!["lint", "--frobnicate"],
        vec!["inspect"],
        vec!["explore", "--grid"],
        vec!["explore", "--top", "x"],
        vec!["explore", "--grid", "no-such-grid"],
        vec!["explore", "--grid", "Cargo.toml"],
        // Retired `icn bench` modes must fail loudly, never silently run
        // the overhead gate instead.
        vec!["bench", "--serve"],
        vec!["bench", "--explore"],
        vec!["bench", "--baseline", "x"],
    ]) {
        let (code, stdout, stderr) = icn_status(&args);
        assert_eq!(code, 2, "args {args:?}: {stderr}");
        assert!(stdout.is_empty(), "args {args:?} ran: {stdout}");
        assert!(stderr.starts_with("error: "), "args {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }

    // 3 — the check ran; the verdict is negative (infeasible design).
    let spec = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../icn-lint/tests/fixtures/design_infeasible_w8.json");
    let (code, stdout, stderr) = icn_status(&["lint", "config", spec.to_str().unwrap()]);
    assert_eq!(code, 3, "{stdout}{stderr}");
    assert!(stdout.contains("ICN101"), "{stdout}");
    assert!(!stderr.contains("usage:"), "verdicts are not usage errors");

    // 4 — I/O failures: unreadable dump, unbindable serve address.
    let (code, _, stderr) = icn_status(&["inspect", "/nonexistent/icn-dump.jsonl"]);
    assert_eq!(code, 4, "{stderr}");
    let (code, _, stderr) = icn_status(&["serve", "--addr", "192.0.2.1:0"]);
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("binding"), "{stderr}");

    // 4 — address already in use: a held port fails fast with a clear
    // message, not a hang or a panic.
    let held = std::net::TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let addr = held.local_addr().unwrap().to_string();
    let (code, _, stderr) = icn_status(&["serve", "--addr", &addr]);
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("binding"), "{stderr}");
    assert!(stderr.contains("address already in use"), "{stderr}");
    assert!(stderr.contains("--addr"), "hints at the fix: {stderr}");
}

/// `icn serve` end to end through the real binary: healthz, a cached
/// evaluate pair, graceful shutdown with a JSON summary on stdout, and
/// `icn metrics` validating the `--telemetry-out` file, which carries the
/// summary's numbers.
#[test]
fn serve_round_trips_over_http_and_metrics_reads_the_dump() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join(format!("icn-serve-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("serve.prom");
    let dump_arg = dump.to_str().unwrap().to_string();

    let mut child = Command::new(env!("CARGO_BIN_EXE_icn"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue-depth",
            "4",
            "--cache-entries",
            "8",
            "--telemetry-out",
            &dump_arg,
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let banner = {
        let stderr = child.stderr.take().unwrap();
        BufReader::new(stderr).lines().next().unwrap().unwrap()
    };
    let addr = banner
        .split("http://")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    let call = |method: &str, path: &str, body: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("server reachable");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .unwrap_or_else(|e| panic!("reading {method} {path} response: {e}"));
        response
    };

    let health = call("GET", "/v1/healthz", "");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    let spec = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../icn-lint/tests/fixtures/design_feasible_2048.json"),
    )
    .unwrap();
    let first = call("POST", "/v1/evaluate", &spec);
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");
    assert!(first.contains("x-icn-cache: miss"), "{first}");
    let second = call("POST", "/v1/evaluate", &spec);
    assert!(second.contains("x-icn-cache: hit"), "{second}");

    // `icn metrics` scrapes /v1/metrics live and validates the exposition
    // with the service's own parser.
    let (ok, stdout, stderr) = icn(&["metrics", &format!("http://{addr}/v1/metrics")]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("valid Prometheus exposition"), "{stdout}");
    assert!(stdout.contains("icn_requests_total"), "{stdout}");
    assert!(
        stdout.contains("icn_request_latency_us (histogram"),
        "{stdout}"
    );

    let bye = call("POST", "/v1/shutdown", "");
    assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");

    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0), "serve exits cleanly");
    let summary: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("summary is JSON");
    assert!(summary["requests"].as_u64().unwrap() >= 4, "{summary}");
    assert!(summary["cache"]["hits"].as_u64().unwrap() >= 1, "{summary}");

    let (ok, stdout, stderr) = icn(&["metrics", &dump_arg]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("valid Prometheus exposition"), "{stdout}");
    assert!(
        stdout.contains("icn_request_latency_us (histogram"),
        "{stdout}"
    );
    // The dump carries the summary's numbers, spill counters included.
    let dumped = icn_serve::parse_exposition(&std::fs::read_to_string(&dump).unwrap()).unwrap();
    assert_eq!(dumped.value("icn_queue_capacity"), Some(4.0));
    assert_eq!(
        dumped.value("icn_requests_total"),
        summary["requests"].as_f64()
    );
    assert_eq!(
        dumped.value("icn_cache_hits_total"),
        summary["cache"]["hits"].as_f64()
    );
    assert_eq!(
        dumped.value("icn_cache_spill_writes_total"),
        summary["cache"]["spill_writes"].as_f64()
    );
    std::fs::remove_dir_all(&dir).ok();
}
