//! The one arrival generator: which sources inject in a given cycle.
//!
//! Every input port offers a packet with probability `p` each cycle,
//! independently of every other port and cycle. Laid out on the flat
//! trial index `cycle * ports + src`, that is one i.i.d. Bernoulli(p)
//! sequence, so the number of failures before the next success is
//! Geometric(p). [`Arrivals`] draws that gap once per injection,
//! `floor(ln(U) / ln(1 - p))` with `U` uniform on (0, 1], instead of one
//! Bernoulli trial per port per cycle: the arrival process is the same,
//! the work is O(injections) per cycle rather than O(ports).
//!
//! `ln` comes from the platform's libm. A one-ulp difference between two
//! libms could flip a `floor` about once in 10¹⁶ draws; the simulator's
//! byte-identical fixtures assume the Linux one.

use rand::Rng;

/// Injection arrivals for a `ports`-port network at a fixed load.
///
/// The simulation engine and [`crate::TrafficTrace::synthesize`] both
/// drive injection through this type, drawing each source's destination
/// from the same RNG right after [`Arrivals::next_in_cycle`] yields it:
///
/// ```
/// use icn_workloads::{Arrivals, Workload};
/// use rand::SeedableRng;
///
/// let workload = Workload::uniform(0.25);
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
/// let mut arrivals = Arrivals::new(workload.load, 16);
/// let mut injected = 0;
/// for cycle in 0..100 {
///     while let Some(src) = arrivals.next_in_cycle(cycle, &mut rng) {
///         let dest = workload.destination(src, 16, &mut rng);
///         assert!(src < 16 && dest < 16);
///         injected += 1;
///     }
/// }
/// assert!(injected > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Arrivals {
    /// Injection probability per port per cycle.
    load: f64,
    ports: u32,
    /// `ln(1 - load)`, the scale of every gap.
    ln_miss: f64,
    /// Flat index of the next injection; `None` until the first gap is
    /// drawn, on first use.
    next: Option<u64>,
}

impl Arrivals {
    /// Arrivals at `load` (injection probability per port per cycle) on
    /// `ports` ports. A load of zero or below never injects and never
    /// draws from the RNG; a load of one or above injects at every port
    /// every cycle, also without drawing.
    #[must_use]
    pub fn new(load: f64, ports: u32) -> Self {
        Self {
            load,
            ports,
            ln_miss: (-load).ln_1p(),
            next: None,
        }
    }

    /// The next source that injects in `cycle`, in ascending port order,
    /// or `None` once `cycle` has no more. Call it until `None` for each
    /// cycle in ascending order; a cycle that is never asked for injects
    /// nothing. Index arithmetic saturates, so no load or cycle overflows.
    pub fn next_in_cycle<R: Rng + ?Sized>(&mut self, cycle: u64, rng: &mut R) -> Option<u32> {
        if self.load <= 0.0 {
            return None;
        }
        let ports = u64::from(self.ports);
        let start = cycle.saturating_mul(ports);
        let end = start.saturating_add(ports);
        // Trials before `start` belong to cycles never asked for; by the
        // gap's memorylessness, restarting the walk at `start` is exact.
        let next = match self.next {
            Some(next) if next >= start => next,
            _ => start.saturating_add(self.gap(rng)),
        };
        if next >= end {
            self.next = Some(next);
            return None;
        }
        self.next = Some(next.saturating_add(1).saturating_add(self.gap(rng)));
        Some((next - start) as u32)
    }

    /// Failures before the next success: Geometric(load) on 0, 1, 2, …,
    /// saturating at `u64::MAX` (the float-to-integer cast saturates).
    fn gap<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.load >= 1.0 {
            return 0;
        }
        let u = 1.0 - rng.random::<f64>();
        (u.ln() / self.ln_miss).floor() as u64
    }
}
