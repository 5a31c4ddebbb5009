//! Fixture crate: deliberately violates each ICN source rule exactly once.

use std::collections::HashMap;

/// Seed the run from ambient entropy instead of the config.
pub fn ambient_seed() -> u64 {
    let _rng = thread_rng();
    0
}

/// Head of the queue, panicking when empty.
pub fn head(queue: &[u32]) -> u32 {
    queue.first().copied().unwrap()
}

/// Whether the offered load sits exactly at saturation.
pub fn saturated(load: f64) -> bool {
    load == 1.5
}

pub fn undocumented() {}

/// Start a helper thread outside pool.rs.
pub fn helper() {
    std::thread::spawn(|| {});
}
