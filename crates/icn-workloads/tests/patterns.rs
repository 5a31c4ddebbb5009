//! Per-variant contract tests for every [`Pattern`]: same-seed streams are
//! byte-identical (the property the icn-serve result cache builds on), and
//! each variant's destination distribution has the shape its name promises.

use icn_workloads::{Arrivals, Pattern, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every variant, with parameters valid for a 64-port network.
fn all_patterns() -> Vec<Pattern> {
    vec![
        Pattern::Uniform,
        Pattern::HotSpot {
            hot_fraction: 0.1,
            hot_port: 13,
        },
        Pattern::Permutation((0..64).rev().collect()),
        Pattern::BitReversal,
        Pattern::Transpose,
        Pattern::LocalClusters {
            cluster_size: 8,
            locality: 0.7,
        },
    ]
}

/// Draw a destination stream from a fresh RNG seeded with `seed`.
fn stream(pattern: &Pattern, seed: u64, draws: u32) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..draws)
        .map(|i| pattern.destination(i % 64, 64, &mut rng))
        .collect()
}

#[test]
fn every_variant_is_deterministic_for_a_fixed_seed() {
    for pattern in all_patterns() {
        assert_eq!(
            stream(&pattern, 0x1986, 512),
            stream(&pattern, 0x1986, 512),
            "{pattern:?} diverged under the same seed"
        );
    }
}

#[test]
fn random_variants_decorrelate_across_seeds() {
    // Only the stochastic variants: the fixed mappings are (correctly)
    // seed-independent.
    for pattern in [
        Pattern::Uniform,
        Pattern::HotSpot {
            hot_fraction: 0.1,
            hot_port: 13,
        },
        Pattern::LocalClusters {
            cluster_size: 8,
            locality: 0.7,
        },
    ] {
        assert_ne!(
            stream(&pattern, 1, 512),
            stream(&pattern, 2, 512),
            "{pattern:?} ignored the seed"
        );
    }
}

#[test]
fn uniform_covers_all_destinations_roughly_evenly() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let draws = 64_000u32;
    let mut counts = [0u32; 64];
    for i in 0..draws {
        counts[Pattern::Uniform.destination(i % 64, 64, &mut rng) as usize] += 1;
    }
    let expected = f64::from(draws) / 64.0;
    for (port, &count) in counts.iter().enumerate() {
        let ratio = f64::from(count) / expected;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "port {port} drew {count} (ratio {ratio:.3})"
        );
    }
}

#[test]
fn hot_spot_rate_matches_the_pfister_norton_model() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let pattern = Pattern::HotSpot {
        hot_fraction: 0.2,
        hot_port: 31,
    };
    let draws = 50_000u32;
    let hits = (0..draws)
        .filter(|i| pattern.destination(i % 64, 64, &mut rng) == 31)
        .count();
    // Expected hit rate: hot_fraction + (1 - hot_fraction)/ports.
    let expected = 0.2 + 0.8 / 64.0;
    let rate = hits as f64 / f64::from(draws);
    assert!((rate - expected).abs() < 0.01, "hot rate {rate}");
}

#[test]
fn bit_reversal_and_transpose_are_bijections() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for pattern in [Pattern::BitReversal, Pattern::Transpose] {
        let mut image = [false; 64];
        for src in 0..64u32 {
            let d = pattern.destination(src, 64, &mut rng) as usize;
            assert!(!image[d], "{pattern:?} mapped two sources to {d}");
            image[d] = true;
        }
        assert!(image.iter().all(|&hit| hit), "{pattern:?} is not onto");
    }
}

#[test]
fn permutation_follows_its_table_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let pattern = Pattern::Permutation((0..64).rev().collect());
    for src in 0..64u32 {
        assert_eq!(pattern.destination(src, 64, &mut rng), 63 - src);
    }
}

#[test]
fn local_clusters_keep_the_configured_fraction_home() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let pattern = Pattern::LocalClusters {
        cluster_size: 8,
        locality: 0.7,
    };
    let src = 20u32; // cluster [16, 24)
    let draws = 50_000u32;
    let home = (0..draws)
        .filter(|_| (16..24).contains(&pattern.destination(src, 64, &mut rng)))
        .count();
    // In-cluster rate: locality + (1 - locality) * cluster_size/ports.
    let expected = 0.7 + 0.3 * 8.0 / 64.0;
    let rate = home as f64 / f64::from(draws);
    assert!((rate - expected).abs() < 0.01, "in-cluster rate {rate}");
}

#[test]
fn workload_injection_and_destinations_reproduce_from_one_seed() {
    let workload = Workload::hot_spot(0.3, 0.05, 9);
    let run = || {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF00D);
        let mut arrivals = Arrivals::new(workload.load, 64);
        let mut injections = Vec::new();
        for cycle in 0..16u64 {
            while let Some(src) = arrivals.next_in_cycle(cycle, &mut rng) {
                injections.push((cycle, src, workload.destination(src, 64, &mut rng)));
            }
        }
        injections
    };
    assert_eq!(run(), run());
}
