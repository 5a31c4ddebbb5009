//! Trace-driven traffic: record a workload once, replay it exactly.
//!
//! The paper's citations evaluate networks under synthetic traffic; modern
//! practice also replays recorded address traces. A [`TrafficTrace`] is a
//! time-ordered list of (cycle, src, dest) injections that can be
//! synthesized from any [`crate::Workload`] (for reproducible comparisons
//! across simulator configurations — identical arrivals, different switch
//! designs) or loaded from JSON.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Arrivals, Workload};

/// One injection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Cycle at which the packet is offered to its source queue.
    pub cycle: u64,
    /// Source port.
    pub src: u32,
    /// Destination port.
    pub dest: u32,
}

/// A time-ordered injection trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficTrace {
    ports: u32,
    entries: Vec<TraceEntry>,
}

impl TrafficTrace {
    /// Build from entries, validating ordering and port ranges.
    ///
    /// # Panics
    /// Panics if entries are not sorted by cycle or any port is out of
    /// range.
    #[must_use]
    pub fn new(ports: u32, entries: Vec<TraceEntry>) -> Self {
        assert!(ports >= 1, "a trace needs at least one port");
        for pair in entries.windows(2) {
            assert!(
                pair[0].cycle <= pair[1].cycle,
                "trace entries must be sorted by cycle"
            );
        }
        for e in &entries {
            assert!(
                e.src < ports && e.dest < ports,
                "trace entry {e:?} out of range for {ports} ports"
            );
        }
        Self { ports, entries }
    }

    /// Record `cycles` cycles of a workload on an `ports`-port network,
    /// through the same [`Arrivals`] generator and RNG order as the
    /// simulation engine: a trace synthesized from a seed is the engine's
    /// injection stream for that seed.
    #[must_use]
    pub fn synthesize<R: Rng + ?Sized>(
        workload: &Workload,
        ports: u32,
        cycles: u64,
        rng: &mut R,
    ) -> Self {
        let mut arrivals = Arrivals::new(workload.load, ports);
        let mut entries = Vec::new();
        for cycle in 0..cycles {
            while let Some(src) = arrivals.next_in_cycle(cycle, rng) {
                entries.push(TraceEntry {
                    cycle,
                    src,
                    dest: workload.destination(src, ports, rng),
                });
            }
        }
        Self { ports, entries }
    }

    /// Network size the trace was recorded for.
    #[must_use]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// All entries, in cycle order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of injections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace contains no injections.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The last cycle with an injection (0 for an empty trace).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.cycle)
    }

    /// Mean offered load (packets per port per cycle over the horizon).
    #[must_use]
    pub fn mean_load(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let span = self.horizon() + 1;
        self.entries.len() as f64 / (f64::from(self.ports) * span as f64)
    }

    /// Serialize to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("traces serialize")
    }

    /// Parse from JSON produced by [`TrafficTrace::to_json`], re-validating.
    ///
    /// # Errors
    /// Returns a message for malformed JSON or invalid entries.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let raw: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        // Re-run the construction checks on untrusted data.
        if raw.ports == 0 {
            return Err("a trace needs at least one port".into());
        }
        for pair in raw.entries.windows(2) {
            if pair[0].cycle > pair[1].cycle {
                return Err("trace entries must be sorted by cycle".into());
            }
        }
        for e in &raw.entries {
            if e.src >= raw.ports || e.dest >= raw.ports {
                return Err(format!("trace entry {e:?} out of range"));
            }
        }
        Ok(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    #[test]
    fn synthesis_matches_the_workload_statistics() {
        let w = Workload::uniform(0.25);
        let trace = TrafficTrace::synthesize(&w, 16, 4000, &mut rng());
        let load = trace.mean_load();
        assert!((load - 0.25).abs() < 0.02, "mean load {load}");
        assert!(trace.entries().windows(2).all(|p| p[0].cycle <= p[1].cycle));
    }

    #[test]
    fn synthesis_is_reproducible() {
        let w = Workload::uniform(0.1);
        let a = TrafficTrace::synthesize(&w, 8, 500, &mut rng());
        let b = TrafficTrace::synthesize(&w, 8, 500, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trip() {
        let w = Workload::hot_spot(0.1, 0.2, 3);
        let trace = TrafficTrace::synthesize(&w, 8, 100, &mut rng());
        let back = TrafficTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(TrafficTrace::from_json("{oops").is_err());
        // Out-of-range entry smuggled through JSON.
        let bad = r#"{"ports":4,"entries":[{"cycle":0,"src":9,"dest":0}]}"#;
        assert!(TrafficTrace::from_json(bad).is_err());
        // Unsorted entries.
        let unsorted =
            r#"{"ports":4,"entries":[{"cycle":5,"src":0,"dest":0},{"cycle":1,"src":0,"dest":0}]}"#;
        assert!(TrafficTrace::from_json(unsorted).is_err());
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "an empty trace's mean load is the exact-zero sentinel, never a computed value"
    )]
    fn empty_trace_basics() {
        let t = TrafficTrace::new(4, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.horizon(), 0);
        assert_eq!(t.mean_load(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted by cycle")]
    fn unsorted_construction_panics() {
        let _ = TrafficTrace::new(
            4,
            vec![
                TraceEntry {
                    cycle: 5,
                    src: 0,
                    dest: 1,
                },
                TraceEntry {
                    cycle: 2,
                    src: 1,
                    dest: 0,
                },
            ],
        );
    }
}
