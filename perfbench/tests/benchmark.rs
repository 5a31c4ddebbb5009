//! The benchmark's own checks: `BENCHMARK.json` stays within its
//! contract, the code emits exactly the metrics it declares, and a tiny
//! configuration of every workload completes with every check passing.

use icn_perfbench::record::{valid_name, Record};
use icn_perfbench::{run, Scale, WORKLOADS};
use serde_json::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn declared(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn emitted(record: &Record) -> Vec<(String, String)> {
    record
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_sound(record: &Record) {
    assert!(
        record.tally.correct(),
        "{}: {:?}",
        record.workload,
        record.tally.checks
    );
    assert!(record.tally.attempted >= 1);
    let line: Value = serde_json::from_str(&record.result_line()).expect("result line is JSON");
    assert_eq!(line.as_object().map(|o| o.len()), Some(4));
    for m in &record.metrics {
        assert!(valid_name(&m.name), "{}", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(m.samples >= 1, "{}", m.name);
    }
}

#[test]
fn manifest_is_within_the_contract() {
    let m = manifest();
    let keys: Vec<&String> = m.as_object().unwrap().keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = m["workloads"].as_array().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let name = w["name"].as_str().unwrap();
        assert!(WORKLOADS.contains(&name), "{name}");
        assert!(w["why"].as_str().unwrap().len() <= 200, "{name}");
    }
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for metric in m["end_to_end"].as_array().unwrap() {
        let bound = metric["bound"].as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = m["end_to_end"]
        .as_array()
        .unwrap()
        .iter()
        .find(|e| e["name"].as_str() == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup["unit"].as_str(), Some("s"));
    assert_eq!(setup["better"].as_str(), Some("lower"));
    let mut all: Vec<(String, String)> = declared(&m, "end_to_end");
    all.extend(declared(&m, "per_layer"));
    for (name, unit) in &all {
        assert!(valid_name(name), "{name}");
        assert!(unit_ok(unit), "{name}: {unit}");
    }
    let mut names: Vec<&String> = all.iter().map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
}

#[test]
fn tiny_untraced_runs_report_every_end_to_end_metric() {
    let expected = declared(&manifest(), "end_to_end");
    for workload in WORKLOADS {
        let (record, _) = run(&Scale::TINY, workload, 7, 0.2, false)
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_sound(&record);
        assert_eq!(emitted(&record), expected, "{workload}");
    }
}

#[test]
fn tiny_traced_runs_report_every_layer_metric() {
    let expected = declared(&manifest(), "per_layer");
    for workload in WORKLOADS {
        let (record, _) = run(&Scale::TINY, workload, 11, 0.5, true)
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_sound(&record);
        assert_eq!(emitted(&record), expected, "{workload}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run(&Scale::TINY, "nope", 1, 0.1, false).is_err());
}
