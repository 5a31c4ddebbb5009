//! Execution options: how a simulation runs, never what it computes.
//!
//! [`EngineOptions`] is deliberately *not* part of [`crate::SimConfig`]:
//! the thread budget and chunking are promised to be unobservable in the
//! results (the parity and property suites pin this byte-for-byte), so
//! anything keyed on the config — the service's content-addressed result
//! cache, journaled job configs, recorded baselines — stays valid when a
//! run is re-executed with a different budget.

/// Knobs controlling how the engine executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Shard threads for the parallel engine: `1` runs serial (the
    /// default), `0` uses one shard per available core, `n` uses exactly
    /// `n` (one pool worker per extra shard; the calling thread is always
    /// a shard too).
    pub threads: usize,
    /// Modules per shard chunk within a stage (`0` = automatic: a few
    /// chunks per thread per stage for load balance). Results are
    /// identical for every value — chunking only changes scheduling.
    pub chunk_modules: usize,
    /// Test-only schedule perturbation: a seed that shuffles shard
    /// dispatch order and injects thread yields every cycle, to flush
    /// latent ordering assumptions out of the parallel engine. `None`
    /// (the default) disables it; results are identical either way.
    pub perturb_seed: Option<u64>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            chunk_modules: 0,
            perturb_seed: None,
        }
    }
}

impl EngineOptions {
    /// Options for an `n`-thread run with automatic chunking.
    #[must_use]
    pub fn threaded(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// The effective shard count: `0` resolves to the machine's available
    /// parallelism, anything else is taken literally (minimum 1).
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        crate::pool::resolve_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial() {
        let options = EngineOptions::default();
        assert_eq!(options.threads, 1);
        assert_eq!(options.resolved_threads(), 1);
        assert_eq!(options.chunk_modules, 0);
        assert!(options.perturb_seed.is_none());
    }

    #[test]
    fn auto_threads_resolve_to_at_least_one() {
        let options = EngineOptions::threaded(0);
        assert!(options.resolved_threads() >= 1);
    }
}
