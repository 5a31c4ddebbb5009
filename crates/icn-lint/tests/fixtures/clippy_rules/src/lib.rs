//! Breaks each ICN source rule once; `clippy` must reject every site.

use std::collections::HashMap;

/// ICN001: an unordered map in the simulation library.
pub fn tally(keys: &[u32]) -> usize {
    keys.iter()
        .map(|&k| (k, ()))
        .collect::<HashMap<_, _>>()
        .len()
}

/// ICN002: a wall clock, named directly and through an alias that a
/// token scan cannot see through.
pub fn clocks() {
    use std::time::Instant as I;
    let _ = std::time::Instant::now();
    let _ = I::now();
}

/// ICN003: an unwrap in path-call form, and a panic.
pub fn head(queue: &[u32]) -> u32 {
    if queue.is_empty() {
        panic!("empty queue");
    }
    Option::unwrap(queue.first().copied())
}

/// ICN004: an exact compare against a non-zero float.
pub fn saturated(load: f64) -> bool {
    load == 1.5
}

/// ICN000: a waiver with no recorded reason.
#[allow(clippy::needless_pass_by_value)]
pub fn consume(value: String) -> usize {
    value.len()
}

pub fn undocumented() {}

/// ICN203: a lock and a thread outside the crate's one fan-out.
pub fn helper() -> std::sync::Mutex<u32> {
    std::thread::spawn(|| {});
    std::sync::Mutex::new(0)
}
