//! Byte-identical parity suite: the engine's observable behaviour —
//! the full `SimResult` (counters, float statistics, telemetry report)
//! and the complete event stream — must match the checked-in fixtures
//! exactly, for every fixed-seed configuration in the parity matrix.
//!
//! The fixtures were first captured before the hot-path optimization
//! (arena packet store, precomputed routes, scratch-buffer reuse) and
//! have stayed byte-identical through every optimization since, so these
//! tests prove the optimizations changed no behaviour. They were
//! regenerated once on purpose, when injection moved to geometric gaps
//! (`icn_sim::STREAM_VERSION` 2): that changed the random stream a seed
//! produces, not the arrival process, and the arrival statistics suite
//! (`icn-workloads/tests/arrivals.rs`) checks the new stream against the
//! per-trial Bernoulli source. If a test fails after an *intentional*
//! semantic change, regenerate with
//! `cargo run --release -p icn-sim --example gen_parity` and review the
//! fixture diff line by line.

#[path = "common/parity_cases.rs"]
mod parity_cases;

use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parity")
        .join(name)
}

fn read_fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing parity fixture {} ({e}); regenerate with \
             `cargo run --release -p icn-sim --example gen_parity`",
            path.display()
        )
    })
}

/// Compare with a readable diagnostic: on mismatch report the first
/// differing line instead of dumping two multi-kilobyte strings.
fn assert_identical(kind: &str, case: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    for (number, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{case} {kind}: first divergence at line {}",
            number + 1
        );
    }
    panic!(
        "{case} {kind}: line counts differ (got {}, fixture {})",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
fn results_and_event_streams_match_fixtures_byte_for_byte() {
    for case in parity_cases::cases() {
        let (result_json, events) = parity_cases::render(&case);
        let want_result = read_fixture(&format!("{}.result.json", case.name));
        assert_identical("result", case.name, &result_json, &want_result);
        if let Some(events) = events {
            let want_events = read_fixture(&format!("{}.events.jsonl", case.name));
            assert_identical("events", case.name, &events, &want_events);
        }
    }
}

/// The matrix itself must keep covering the paths it claims to cover:
/// faults, retries, telemetry, a stall, and both event-free and
/// event-recorded cases. Guards against someone trimming the matrix down
/// to trivial configs and the parity suite silently proving nothing.
#[test]
fn parity_matrix_exercises_the_interesting_paths() {
    let cases = parity_cases::cases();
    assert!(cases.len() >= 11);
    assert!(cases.iter().any(|c| !c.config.faults.is_empty()));
    assert!(cases.iter().any(|c| c.config.retry.max_retries > 0));
    assert!(cases.iter().any(|c| c.config.telemetry.enabled()));
    assert!(
        cases.iter().any(|c| c.record_events
            && c.config.telemetry.profile
            && c.config.buffer_capacity >= 2),
        "no recorded case pins the profiler's heatmap over multi-slot buffers"
    );
    assert!(cases.iter().any(|c| !c.config.cut_through));
    assert!(cases
        .iter()
        .any(|c| c.config.arbitration == icn_sim::Arbitration::FixedPriority));
    assert!(cases.iter().any(|c| c.config.plan.ports() >= 2048));
    assert!(cases.iter().any(|c| !c.record_events));
    assert!(
        cases.iter().any(faults_land_on_blocked_heads),
        "no recorded, densely sampled case has transient module and link \
         faults striking blocked heads"
    );
    assert!(
        cases.iter().any(drops_free_ports_heads_wait_on),
        "no recorded case has permanent faults past stage 0 draining \
         one-slot buffers under a hot spot"
    );
    assert!(
        cases
            .iter()
            .any(|c| c.record_events && c.config.flits_per_packet() >= 256),
        "no recorded case sets due times hundreds of cycles ahead"
    );

    // The recorded fixtures, between them, contain every event kind.
    let mut kinds = std::collections::BTreeSet::new();
    for case in &cases {
        if !case.record_events {
            continue;
        }
        let events = read_fixture(&format!("{}.events.jsonl", case.name));
        for line in events.lines() {
            let event: icn_sim::SimEvent = serde_json::from_str(line).expect("fixture parses");
            kinds.insert(event.kind());
        }
    }
    for kind in [
        "inject",
        "enter",
        "grant",
        "deliver",
        "retry",
        "drop",
        "fault_activate",
        "stall",
    ] {
        assert!(kinds.contains(kind), "no fixture records `{kind}` events");
    }
}

/// Whether `case` pins fault drops that free a full buffer while heads
/// upstream are parked on it: events recorded, one-slot buffers backed up
/// by a hot spot, and permanent faults past stage 0 in a network of at
/// least three stages, so drops land in a middle stage and in the last.
/// (The drop-wakes that find a waiter are counted in the case's doc
/// comment; no event names them.)
fn drops_free_ports_heads_wait_on(case: &parity_cases::ParityCase) -> bool {
    use icn_sim::FaultTarget;
    let config = &case.config;
    let hot_spot = matches!(
        config.workload.pattern,
        icn_workloads::Pattern::HotSpot { .. }
    );
    let permanent_at = |wanted: u32| {
        config.faults.events.iter().any(|e| {
            e.duration.is_none()
                && matches!(e.target, FaultTarget::Module { stage, .. }
                    | FaultTarget::Link { stage, .. } if stage == wanted)
        })
    };
    let stages = config.plan.stages();
    case.record_events
        && hot_spot
        && config.buffer_capacity == 1
        && stages >= 3
        && permanent_at(1)
        && permanent_at(stages - 1)
}

/// Whether `case` pins how faults interact with heads waiting on busy
/// outputs and full downstream buffers: events recorded, telemetry
/// sampled at most every 5 cycles (so the blocked counters are compared
/// mid-wait, not only at the end), transient module faults on a later
/// stage and transient link faults on an earlier one, a permanent link
/// fault, and — read from the case's own fixture — heads blocked in
/// every sample interval in which a transient fault activates.
fn faults_land_on_blocked_heads(case: &parity_cases::ParityCase) -> bool {
    use icn_sim::FaultTarget;
    let config = &case.config;
    let interval = config.telemetry.sample_interval;
    if !case.record_events || interval == 0 || interval > 5 {
        return false;
    }
    let events = &config.faults.events;
    let transient_module = events.iter().any(|e| {
        e.duration.is_some() && matches!(e.target, FaultTarget::Module { stage, .. } if stage > 0)
    });
    let transient_link = events.iter().any(|e| {
        e.duration.is_some()
            && matches!(e.target, FaultTarget::Link { stage, .. }
                if stage + 1 < config.plan.stages())
    });
    let permanent_link = events
        .iter()
        .any(|e| e.duration.is_none() && matches!(e.target, FaultTarget::Link { .. }));
    if !(transient_module && transient_link && permanent_link) {
        return false;
    }
    let result: serde_json::Value =
        serde_json::from_str(&read_fixture(&format!("{}.result.json", case.name)))
            .expect("fixture parses");
    let samples = result["telemetry"]["time_series"]["samples"]
        .as_array()
        .expect("sampled case has a time series");
    events.iter().filter(|e| e.duration.is_some()).all(|e| {
        let stage = match e.target {
            FaultTarget::Module { stage, .. } | FaultTarget::Link { stage, .. } => stage,
            FaultTarget::SourcePort { .. } => return true,
        };
        // The sample taken at or after the activation covers it.
        samples
            .iter()
            .find(|s| s["cycle"].as_u64().is_some_and(|c| c >= e.at_cycle))
            .is_some_and(|s| s["stage_blocked_delta"][stage as usize].as_u64() > Some(0))
    })
}
