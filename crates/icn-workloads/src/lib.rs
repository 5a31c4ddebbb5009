//! Traffic generators for interconnection-network simulation.
//!
//! The paper evaluates its delay expressions under a best-case "lightly
//! loaded network … no blocking of packets" assumption (§4) and explicitly
//! sets aside blocking and hot-spot delays. This crate supplies the traffic
//! models needed both to *reproduce* that regime (vanishing load, uniform
//! destinations) and to *quantify* what the paper set aside:
//!
//! * [`Pattern::Uniform`] — independent uniformly random destinations;
//! * [`Pattern::HotSpot`] — the Pfister–Norton hot-spot model the paper
//!   cites via \[18]: a fraction of all traffic targets one hot port;
//! * [`Pattern::Permutation`] and the classic fixed patterns (bit reversal,
//!   transpose) — worst/structured cases for delta networks;
//! * [`Pattern::LocalClusters`] — locality-biased traffic for the
//!   local-vs-remote memory comparison of the paper's conclusion.
//!
//! A [`Workload`] combines a pattern with an offered load (injection
//! probability per input per cycle). [`Arrivals`] turns that load into the
//! sources that inject each cycle; the simulator and
//! [`TrafficTrace::synthesize`] both inject through it. All randomness
//! flows through a caller-supplied [`rand::Rng`], so simulations are
//! reproducible from a seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arrivals;
mod trace;

pub use arrivals::Arrivals;
pub use trace::{TraceEntry, TrafficTrace};

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Destination-selection pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// Each packet picks a destination uniformly at random.
    Uniform,
    /// Pfister–Norton hot spot: with probability `hot_fraction` the packet
    /// targets `hot_port`; otherwise the destination is uniform.
    HotSpot {
        /// Fraction of all traffic aimed at the hot port (e.g. 0.05 = 5 %).
        hot_fraction: f64,
        /// The hot destination port.
        hot_port: u32,
    },
    /// A fixed target per source (`targets[src]`); need not be a bijection.
    Permutation(
        /// Target port for each source.
        Vec<u32>,
    ),
    /// Bit-reversal of the source address (power-of-two networks).
    BitReversal,
    /// Swap high/low halves of the source address bits (power-of-two
    /// networks with an even bit count).
    Transpose,
    /// Locality-biased traffic: ports are grouped into clusters of
    /// `cluster_size`; with probability `locality` a packet stays inside its
    /// source's cluster, otherwise it is uniform over the whole network.
    LocalClusters {
        /// Ports per cluster (must divide the port count).
        cluster_size: u32,
        /// Probability of staying inside the source's cluster.
        locality: f64,
    },
}

/// Check an offered load: an injection probability, so a number in
/// `[0, 1]` (NaN is not).
///
/// # Errors
/// Returns a message naming the load when it is out of range.
pub fn validate_load(load: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&load) {
        Ok(())
    } else {
        Err(format!("load must be in [0,1], got {load}"))
    }
}

impl Pattern {
    /// Check the pattern's preconditions (see each variant) against a
    /// `ports`-port network: the conditions under which
    /// [`Pattern::destination`] cannot panic for any `src < ports`.
    ///
    /// # Errors
    /// Returns a message naming the first precondition that fails.
    pub fn validate(&self, ports: u32) -> Result<(), String> {
        match self {
            Self::Uniform => Ok(()),
            Self::HotSpot {
                hot_fraction,
                hot_port,
            } => {
                if !(0.0..=1.0).contains(hot_fraction) {
                    return Err(format!("hot_fraction must be in [0,1], got {hot_fraction}"));
                }
                if *hot_port >= ports {
                    return Err(format!(
                        "hot_port {hot_port} out of range for {ports} ports"
                    ));
                }
                Ok(())
            }
            Self::Permutation(targets) => {
                if targets.len() != ports as usize {
                    return Err(format!(
                        "permutation has {} targets but the network has {ports} ports",
                        targets.len()
                    ));
                }
                if let Some(bad) = targets.iter().find(|&&t| t >= ports) {
                    return Err(format!("permutation target {bad} out of range"));
                }
                Ok(())
            }
            Self::BitReversal => {
                if !ports.is_power_of_two() || ports < 2 {
                    return Err(format!(
                        "bit reversal needs a power-of-two network of at least 2 ports, got {ports}"
                    ));
                }
                Ok(())
            }
            Self::Transpose => {
                if !ports.is_power_of_two() {
                    return Err(format!(
                        "transpose needs a power-of-two network, got {ports} ports"
                    ));
                }
                if !ports.trailing_zeros().is_multiple_of(2) {
                    return Err(format!(
                        "transpose needs an even number of address bits; {ports} ports has {}",
                        ports.trailing_zeros()
                    ));
                }
                Ok(())
            }
            Self::LocalClusters {
                cluster_size,
                locality,
            } => {
                if *cluster_size == 0 || !ports.is_multiple_of(*cluster_size) {
                    return Err(format!(
                        "cluster_size {cluster_size} must divide the port count {ports}"
                    ));
                }
                if !(0.0..=1.0).contains(locality) {
                    return Err(format!("locality must be in [0,1], got {locality}"));
                }
                Ok(())
            }
        }
    }

    /// Draw a destination for a packet from `src` in an `ports`-port
    /// network.
    ///
    /// # Panics
    /// Panics if the pattern's preconditions are violated (see each
    /// variant and [`Pattern::validate`]), or if `src >= ports`.
    #[must_use]
    pub fn destination<R: Rng + ?Sized>(&self, src: u32, ports: u32, rng: &mut R) -> u32 {
        assert!(src < ports, "source {src} out of range for {ports} ports");
        match self {
            Self::Uniform => rng.random_range(0..ports),
            Self::HotSpot {
                hot_fraction,
                hot_port,
            } => {
                assert!(
                    (0.0..=1.0).contains(hot_fraction),
                    "hot fraction must be in [0,1], got {hot_fraction}"
                );
                assert!(*hot_port < ports, "hot port out of range");
                if rng.random::<f64>() < *hot_fraction {
                    *hot_port
                } else {
                    rng.random_range(0..ports)
                }
            }
            Self::Permutation(targets) => {
                assert_eq!(
                    targets.len(),
                    ports as usize,
                    "permutation size must match the network"
                );
                let t = targets[src as usize];
                assert!(t < ports, "permutation target out of range");
                t
            }
            Self::BitReversal => {
                assert!(
                    ports.is_power_of_two() && ports >= 2,
                    "bit reversal needs a power-of-two network"
                );
                let bits = ports.trailing_zeros();
                src.reverse_bits() >> (32 - bits)
            }
            Self::Transpose => {
                assert!(ports.is_power_of_two(), "transpose needs a power of two");
                let bits = ports.trailing_zeros();
                assert!(
                    bits.is_multiple_of(2),
                    "transpose needs an even number of address bits"
                );
                let half = bits / 2;
                let mask = (1u32 << half) - 1;
                ((src & mask) << half) | (src >> half)
            }
            Self::LocalClusters {
                cluster_size,
                locality,
            } => {
                assert!(
                    *cluster_size >= 1 && ports.is_multiple_of(*cluster_size),
                    "cluster size must divide the port count"
                );
                assert!(
                    (0.0..=1.0).contains(locality),
                    "locality must be in [0,1], got {locality}"
                );
                if rng.random::<f64>() < *locality {
                    let base = (src / cluster_size) * cluster_size;
                    base + rng.random_range(0..*cluster_size)
                } else {
                    rng.random_range(0..ports)
                }
            }
        }
    }
}

/// A traffic workload: offered load plus destination pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Injection probability per input port per cycle, in `[0, 1]`.
    pub load: f64,
    /// Destination selection.
    pub pattern: Pattern,
}

impl Workload {
    /// Uniform traffic at the given load.
    ///
    /// # Panics
    /// Panics with [`validate_load`]'s message if `load` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn uniform(load: f64) -> Self {
        validate_load(load).unwrap_or_else(|message| panic!("{message}"));
        Self {
            load,
            pattern: Pattern::Uniform,
        }
    }

    /// Hot-spot traffic at the given load.
    ///
    /// # Panics
    /// Panics with [`validate_load`]'s message if `load` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn hot_spot(load: f64, hot_fraction: f64, hot_port: u32) -> Self {
        validate_load(load).unwrap_or_else(|message| panic!("{message}"));
        Self {
            load,
            pattern: Pattern::HotSpot {
                hot_fraction,
                hot_port,
            },
        }
    }

    /// Check the load ([`validate_load`]) and the pattern's preconditions
    /// ([`Pattern::validate`]) against a `ports`-port network.
    ///
    /// # Errors
    /// Returns a message naming the first check that fails.
    pub fn validate(&self, ports: u32) -> Result<(), String> {
        validate_load(self.load)?;
        self.pattern.validate(ports)
    }

    /// Draw a destination (delegates to the pattern).
    #[must_use]
    pub fn destination<R: Rng + ?Sized>(&self, src: u32, ports: u32, rng: &mut R) -> u32 {
        self.pattern.destination(src, ports, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0x00FD_1986)
    }

    #[test]
    fn uniform_covers_the_range() {
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[Pattern::Uniform.destination(3, 16, &mut r) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some destinations never drawn");
    }

    #[test]
    fn hot_spot_concentrates_traffic() {
        let mut r = rng();
        let pat = Pattern::HotSpot {
            hot_fraction: 0.25,
            hot_port: 7,
        };
        let n = 40_000;
        let hits = (0..n)
            .filter(|_| pat.destination(0, 64, &mut r) == 7)
            .count();
        // Expected ≈ 0.25 + 0.75/64 ≈ 0.2617.
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 0.2617).abs() < 0.01, "hot rate {rate}");
    }

    #[test]
    fn zero_hot_fraction_is_uniform() {
        let mut r = rng();
        let pat = Pattern::HotSpot {
            hot_fraction: 0.0,
            hot_port: 0,
        };
        let n = 40_000;
        let hits = (0..n)
            .filter(|_| pat.destination(1, 16, &mut r) == 0)
            .count();
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 1.0 / 16.0).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn permutation_pattern_is_deterministic() {
        let mut r = rng();
        let pat = Pattern::Permutation(vec![3, 2, 1, 0]);
        for src in 0..4u32 {
            assert_eq!(pat.destination(src, 4, &mut r), 3 - src);
        }
    }

    #[test]
    fn bit_reversal_and_transpose_match_definitions() {
        let mut r = rng();
        assert_eq!(Pattern::BitReversal.destination(0b0001, 16, &mut r), 0b1000);
        assert_eq!(Pattern::BitReversal.destination(0b1010, 16, &mut r), 0b0101);
        assert_eq!(Pattern::Transpose.destination(0b0111, 16, &mut r), 0b1101);
    }

    #[test]
    fn local_clusters_respect_locality_one() {
        let mut r = rng();
        let pat = Pattern::LocalClusters {
            cluster_size: 4,
            locality: 1.0,
        };
        for _ in 0..200 {
            let d = pat.destination(9, 16, &mut r);
            assert!((8..12).contains(&d), "destination {d} left the cluster");
        }
    }

    #[test]
    fn local_clusters_zero_locality_is_uniform() {
        let mut r = rng();
        let pat = Pattern::LocalClusters {
            cluster_size: 4,
            locality: 0.0,
        };
        let far = (0..4000)
            .filter(|_| {
                let d = pat.destination(0, 16, &mut r);
                !(0..4).contains(&d)
            })
            .count();
        let rate = far as f64 / 4000.0;
        assert!((rate - 0.75).abs() < 0.05, "off-cluster rate {rate}");
    }

    /// Sources injecting in `cycle`, in the order [`Arrivals`] yields them.
    fn sources_in<R: Rng>(arrivals: &mut Arrivals, cycle: u64, r: &mut R) -> Vec<u32> {
        std::iter::from_fn(|| arrivals.next_in_cycle(cycle, r)).collect()
    }

    #[test]
    fn injection_rate_tracks_load() {
        let mut r = rng();
        let mut arrivals = Arrivals::new(0.3, 40);
        let injected: usize = (0..1_000)
            .map(|cycle| sources_in(&mut arrivals, cycle, &mut r).len())
            .sum();
        let rate = injected as f64 / 40_000.0;
        assert!((rate - 0.3).abs() < 0.01, "injection rate {rate}");
    }

    #[test]
    fn zero_load_never_injects_and_full_load_always_does() {
        let mut r = rng();
        let mut none = Arrivals::new(0.0, 8);
        let mut full = Arrivals::new(1.0, 8);
        for cycle in 0..100 {
            assert!(sources_in(&mut none, cycle, &mut r).is_empty());
            assert_eq!(
                sources_in(&mut full, cycle, &mut r),
                (0..8).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn seeded_rng_reproduces_streams() {
        let w = Workload::uniform(0.5);
        let run = || {
            let mut r = ChaCha8Rng::seed_from_u64(42);
            (0..64)
                .map(|s| w.destination(s % 16, 16, &mut r))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "load must be in [0,1]")]
    fn negative_load_panics() {
        let _ = Workload::uniform(-0.1);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_cluster_size_panics() {
        let mut r = rng();
        let _ = Pattern::LocalClusters {
            cluster_size: 5,
            locality: 0.5,
        }
        .destination(0, 16, &mut r);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let mut r = rng();
        let _ = Pattern::Uniform.destination(16, 16, &mut r);
    }
}
