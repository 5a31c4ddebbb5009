//! Property-based tests for the traffic generators.

use icn_workloads::{Arrivals, Pattern};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pattern always produces an in-range destination.
    #[test]
    fn destinations_always_in_range(
        seed in any::<u64>(),
        ports_exp in 2u32..10,
        src_frac in 0.0f64..1.0,
        hot in 0.0f64..1.0,
        locality in 0.0f64..1.0,
    ) {
        let ports = 1u32 << ports_exp;
        let src = ((src_frac * f64::from(ports)) as u32).min(ports - 1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let patterns = vec![
            Pattern::Uniform,
            Pattern::HotSpot { hot_fraction: hot, hot_port: ports / 2 },
            Pattern::BitReversal,
            Pattern::LocalClusters { cluster_size: ports / 2, locality },
            Pattern::Permutation((0..ports).rev().collect()),
        ];
        for p in patterns {
            for _ in 0..8 {
                let d = p.destination(src, ports, &mut rng);
                prop_assert!(d < ports, "{p:?} produced {d} of {ports}");
            }
        }
    }

    /// Bit reversal is an involution; transpose is an involution.
    #[test]
    fn structured_patterns_are_involutions(seed in any::<u64>(), ports_exp in 1u32..8) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ports = 1u32 << (2 * ports_exp); // even bit count for transpose
        for src in (0..ports).step_by(7usize) {
            let r = Pattern::BitReversal.destination(src, ports, &mut rng);
            let rr = Pattern::BitReversal.destination(r, ports, &mut rng);
            prop_assert_eq!(rr, src);
            let t = Pattern::Transpose.destination(src, ports, &mut rng);
            let tt = Pattern::Transpose.destination(t, ports, &mut rng);
            prop_assert_eq!(tt, src);
        }
    }

    /// Injection frequency converges to the configured load.
    #[test]
    fn injection_rate_converges(seed in any::<u64>(), load in 0.05f64..0.95) {
        let mut arrivals = Arrivals::new(load, 20);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 20_000u32;
        let mut hits = 0u32;
        for cycle in 0..u64::from(n / 20) {
            while arrivals.next_in_cycle(cycle, &mut rng).is_some() {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / f64::from(n);
        prop_assert!((rate - load).abs() < 0.02, "rate {rate} vs load {load}");
    }

    /// Locality-one cluster traffic never leaves the cluster; the hot spot
    /// with fraction one always hits the hot port.
    #[test]
    fn degenerate_patterns_are_exact(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let local = Pattern::LocalClusters { cluster_size: 8, locality: 1.0 };
        for _ in 0..32 {
            let d = local.destination(19, 64, &mut rng);
            prop_assert!((16..24).contains(&d));
        }
        let hot = Pattern::HotSpot { hot_fraction: 1.0, hot_port: 5 };
        for _ in 0..32 {
            prop_assert_eq!(hot.destination(0, 64, &mut rng), 5);
        }
    }
}
