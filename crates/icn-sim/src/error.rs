//! Typed errors for configuration and injection — the panic-free surface
//! of the crate.
//!
//! The engine keeps panics for *internal invariant* violations (a misroute,
//! a double grant): those are simulator bugs and should abort loudly. But
//! everything a *caller* can get wrong — an invalid configuration, an
//! out-of-range port, a fault plan naming hardware that does not exist —
//! is reported as a [`SimError`] through `try_`-prefixed entry points
//! ([`crate::SimConfig::validate`], [`crate::Engine::try_with_options`],
//! [`crate::Engine::try_inject`]), so drivers like the CLI can map bad
//! input to a clean nonzero exit instead of a backtrace.

use std::fmt;

/// Why a simulation could not be configured or driven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A scalar configuration field is out of its valid domain.
    InvalidConfig(String),
    /// A port index exceeds the network size.
    PortOutOfRange {
        /// What the port was used as ("source", "destination", ...).
        role: &'static str,
        /// The offending index.
        port: u32,
        /// The network's port count.
        ports: u32,
    },
    /// A fault event names a stage, module, link, or port that does not
    /// exist in the configured network (or has a degenerate duration).
    InvalidFault(String),
    /// A bounded run ([`crate::Engine::run_bounded`]) was stopped by its
    /// caller-supplied stop predicate before the schedule finished —
    /// typically a service-level wall-clock deadline. The engine itself
    /// never consults a clock; the predicate decides.
    DeadlineExceeded {
        /// The simulation cycle at which the predicate fired.
        at_cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::PortOutOfRange { role, port, ports } => {
                write!(
                    f,
                    "{role} port {port} out of range (network has {ports} ports)"
                )
            }
            Self::InvalidFault(msg) => write!(f, "invalid fault plan: {msg}"),
            Self::DeadlineExceeded { at_cycle } => {
                write!(f, "deadline exceeded at cycle {at_cycle}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = SimError::PortOutOfRange {
            role: "destination",
            port: 9,
            ports: 4,
        };
        assert_eq!(
            e.to_string(),
            "destination port 9 out of range (network has 4 ports)"
        );
        assert!(SimError::InvalidConfig("width must be at least 1".into())
            .to_string()
            .contains("width"));
        assert!(SimError::InvalidFault("stage 7".into())
            .to_string()
            .contains("stage 7"));
        assert_eq!(
            SimError::DeadlineExceeded { at_cycle: 4096 }.to_string(),
            "deadline exceeded at cycle 4096"
        );
    }

    #[test]
    fn errors_are_comparable_and_boxable() {
        let e = SimError::InvalidFault("x".into());
        assert_eq!(e.clone(), e);
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("fault"));
    }
}
