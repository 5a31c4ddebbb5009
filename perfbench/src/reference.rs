//! Host-speed reference: a fixed kernel owned by the benchmark, timed
//! right after every window of a workload, on the same thread.
//!
//! The two vCPUs of a shared host do not run at one speed. A thread
//! pinned to one of them measured up to 1.5× faster than on the other,
//! and which one is fast changes over minutes as other tenants' load on
//! the sibling hardware threads comes and goes. A single-threaded run
//! migrates between them, so its raw rate says as much about the period
//! it ran in as about the program: ten-run medians of unchanged code
//! moved by 25–33% within an hour. Dividing each window's rate by this
//! kernel's speed, measured a moment later, cancels most of that. The
//! kernel does random reads and writes into a table that fits the
//! per-core cache, data-dependent branches and floating-point arithmetic;
//! its table is warmed before each timed slice, so what the workload left
//! in the caches does not move it. It never calls into the program, so a
//! change to the program cannot move it either.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per timed slice (about 0.3 ms on the host this was
/// written on).
const SLICE: u32 = 40_000;

/// Table words (64 KiB: resident in the per-core cache once warmed).
const TABLE: usize = 1 << 14;

/// The kernel rate, iterations per second, that normalized figures are
/// scaled to: about its median rate on the host this benchmark was
/// written on, so normalized figures read close to raw ones there.
pub const NOMINAL_PER_S: f64 = 1.2e8;

/// The kernel's state.
pub struct Reference {
    table: Vec<u32>,
    state: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// A fresh kernel.
    pub fn new() -> Self {
        Self {
            table: (0..TABLE as u32).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Warm the table, run one timed slice, and return its speed as a
    /// share of [`NOMINAL_PER_S`] (above 1 when the host runs faster than
    /// nominal).
    pub fn speed(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u32, |a, &v| a ^ v));
        let started = Instant::now();
        self.slice();
        f64::from(SLICE) / started.elapsed().as_secs_f64() / NOMINAL_PER_S
    }

    fn slice(&mut self) {
        let mut x = self.state;
        let mut acc = 1.0f64;
        for _ in 0..SLICE {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE - 1);
            let v = self.table[i];
            if v & 1 == 0 {
                self.table[i] = v.wrapping_add(x as u32);
            } else {
                self.table[i] = v >> 1;
                acc += f64::from(v & 0xFFFF).sqrt();
            }
            acc = acc * 0.999_9 + 1.0 / (1.0 + (x & 0xFF) as f64);
        }
        self.state = x;
        black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_finite() {
        let mut reference = Reference::new();
        for _ in 0..3 {
            let s = reference.speed();
            assert!(s.is_finite() && s > 0.0, "{s}");
        }
    }
}
