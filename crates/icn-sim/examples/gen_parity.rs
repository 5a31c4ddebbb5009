//! Regenerate the byte-identical parity fixtures under
//! `tests/fixtures/parity/`.
//!
//! ```text
//! cargo run --release -p icn-sim --example gen_parity
//! ```
//!
//! The fixtures pin the engine's observable behaviour — `SimResult` JSON
//! and the full event stream — for the fixed-seed matrix in
//! `tests/common/parity_cases.rs`. Only regenerate them for an
//! *intentional* behaviour change (and say so in the commit); a perf
//! refactor must never need to, unless it changes the random stream on
//! purpose — then it bumps `icn_sim::STREAM_VERSION`, as geometric
//! arrivals did.

#[path = "../tests/common/parity_cases.rs"]
mod parity_cases;

use std::path::Path;

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parity");
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    for case in parity_cases::cases() {
        let (result_json, events) = parity_cases::render(&case);
        let result_path = dir.join(format!("{}.result.json", case.name));
        std::fs::write(&result_path, &result_json).expect("write result fixture");
        println!(
            "wrote {} ({} bytes)",
            result_path.display(),
            result_json.len()
        );
        if let Some(events) = events {
            let events_path = dir.join(format!("{}.events.jsonl", case.name));
            std::fs::write(&events_path, &events).expect("write events fixture");
            println!(
                "wrote {} ({} lines)",
                events_path.display(),
                events.lines().count()
            );
        }
    }
}
