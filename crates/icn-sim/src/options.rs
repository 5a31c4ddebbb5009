//! Execution options, kept as an empty shim.
//!
//! The engine runs one way: serially, on the caller's thread (DESIGN.md
//! §7.5 gives the measurements). [`EngineOptions`] carries no settings;
//! it remains because the `perfbench` package, which builds its engines
//! through [`crate::Engine::try_with_options`], still names it.

/// Options for [`crate::Engine::try_with_options`]. There are none: every
/// value is the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineOptions;

impl EngineOptions {
    /// Returns [`EngineOptions::default`]. The thread count is ignored:
    /// the engine always steps on the caller's thread.
    #[must_use]
    pub fn threaded(_threads: usize) -> Self {
        Self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial() {
        for threads in [0, 1, 2, 8] {
            assert_eq!(EngineOptions::threaded(threads), EngineOptions::default());
        }
    }
}
