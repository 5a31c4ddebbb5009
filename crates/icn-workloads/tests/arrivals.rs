//! Statistical equivalence of [`Arrivals`] with the per-trial Bernoulli
//! source it replaces, plus its edge cases.
//!
//! Every statistic is a chi-square against the distribution the
//! Bernoulli(p) source implies, and must fall below the 0.999 quantile
//! for its degrees of freedom (Wilson–Hilferty, z = 3.09), on seeds 1–5:
//!
//! * per-port injection counts against uniform over the ports;
//! * per-cycle injection counts against Binomial(ports, p);
//! * per-port inter-arrival gaps (in cycles) against Geometric(p);
//! * destination histograms from [`TrafficTrace::synthesize`] for the
//!   Uniform, HotSpot and LocalClusters patterns.
//!
//! Bins are merged from the tail until each expects at least five counts.
//! A per-trial Bernoulli reference, defined only here, must pass the same
//! bounds: if it fails, the bound is miscalibrated.

use icn_workloads::{Arrivals, Pattern, TrafficTrace, Workload};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

const PORTS: u32 = 64;
const CYCLES: u64 = 10_000;
const LOAD: f64 = 0.05;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;

/// The 0.999 quantile of chi-square with `dof` degrees of freedom
/// (Wilson–Hilferty).
fn chi2_999(dof: usize) -> f64 {
    let k = dof as f64;
    let z = 3.09;
    k * (1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt()).powi(3)
}

/// Pearson's statistic of `observed` against `expected` after merging
/// bins from the end until each expects at least five; returns
/// (statistic, degrees of freedom). `expected` must sum to the observed
/// total (the last bin is the tail).
fn chi_square(observed: &[u64], expected: &[f64]) -> (f64, usize) {
    assert_eq!(observed.len(), expected.len());
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let (mut o, mut e) = (0.0, 0.0);
    for (&obs, &exp) in observed.iter().zip(expected).rev() {
        o += obs as f64;
        e += exp;
        if e >= 5.0 {
            bins.push((o, e));
            (o, e) = (0.0, 0.0);
        }
    }
    if let Some(last) = bins.last_mut() {
        last.0 += o;
        last.1 += e;
    }
    let stat = bins.iter().map(|(o, e)| (o - e) * (o - e) / e).sum();
    (stat, bins.len() - 1)
}

fn assert_below_bound(what: &str, seed: u64, (stat, dof): (f64, usize)) {
    let bound = chi2_999(dof);
    assert!(
        stat < bound,
        "{what}, seed {seed}: chi-square {stat:.1} over {dof} dof exceeds the 0.999 bound {bound:.1}"
    );
}

/// The reference: one Bernoulli draw per port per cycle, each success
/// followed by its destination draw, as (cycle, src, dest).
fn bernoulli_reference(workload: &Workload, seed: u64) -> Vec<(u64, u32, u32)> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for cycle in 0..CYCLES {
        for src in 0..PORTS {
            if rng.random::<f64>() < workload.load {
                out.push((cycle, src, workload.destination(src, PORTS, &mut rng)));
            }
        }
    }
    out
}

/// Run `check` on `CYCLES` cycles of `workload` from both generators, on
/// every seed: [`TrafficTrace::synthesize`] (which injects through
/// [`Arrivals`]) and the reference.
fn for_each_trace(workload: &Workload, check: impl Fn(&str, u64, &[(u64, u32, u32)])) {
    for seed in SEEDS {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let trace = TrafficTrace::synthesize(workload, PORTS, CYCLES, &mut rng);
        let entries: Vec<_> = trace
            .entries()
            .iter()
            .map(|e| (e.cycle, e.src, e.dest))
            .collect();
        check("Arrivals", seed, &entries);
        check(
            "Bernoulli reference",
            seed,
            &bernoulli_reference(workload, seed),
        );
    }
}

fn binomial_pmf(n: u32, p: f64) -> Vec<f64> {
    let mut pmf = vec![(1.0 - p).powi(n as i32)];
    for k in 1..=n {
        let prev = pmf[k as usize - 1];
        pmf.push(prev * f64::from(n - k + 1) / f64::from(k) * p / (1.0 - p));
    }
    pmf
}

/// The arrival statistics (per-port counts, per-cycle counts, per-port
/// gaps) of one recorded run.
fn check_arrivals(what: &str, seed: u64, trace: &[(u64, u32, u32)]) {
    let total = trace.len() as u64;
    let mut per_port = vec![0u64; PORTS as usize];
    let mut per_cycle = vec![0u32; CYCLES as usize];
    for &(cycle, src, _) in trace {
        per_port[src as usize] += 1;
        per_cycle[cycle as usize] += 1;
    }
    let uniform = vec![total as f64 / f64::from(PORTS); PORTS as usize];
    assert_below_bound(
        &format!("{what} per-port counts"),
        seed,
        chi_square(&per_port, &uniform),
    );

    let mut count_hist = vec![0u64; PORTS as usize + 1];
    for &c in &per_cycle {
        count_hist[c as usize] += 1;
    }
    let binomial: Vec<f64> = binomial_pmf(PORTS, LOAD)
        .iter()
        .map(|q| q * CYCLES as f64)
        .collect();
    assert_below_bound(
        &format!("{what} per-cycle counts"),
        seed,
        chi_square(&count_hist, &binomial),
    );

    // Gaps between successive injections at one port, in cycles: 1, 2, …
    let mut last = vec![None::<u64>; PORTS as usize];
    let mut gaps = Vec::new();
    for &(cycle, src, _) in trace {
        if let Some(prev) = last[src as usize].replace(cycle) {
            gaps.push(cycle - prev);
        }
    }
    // Bins for gaps 1 ..= MAX_GAP - 1, then the tail, gaps of MAX_GAP or more.
    const MAX_GAP: usize = 400;
    let mut gap_hist = vec![0u64; MAX_GAP];
    for &g in &gaps {
        gap_hist[(g as usize).min(MAX_GAP) - 1] += 1;
    }
    let n = gaps.len() as f64;
    let mut geometric: Vec<f64> = (1..MAX_GAP as i32)
        .map(|k| n * (1.0 - LOAD).powi(k - 1) * LOAD)
        .collect();
    geometric.push(n * (1.0 - LOAD).powi(MAX_GAP as i32 - 1));
    assert_below_bound(
        &format!("{what} inter-arrival gaps"),
        seed,
        chi_square(&gap_hist, &geometric),
    );
}

#[test]
fn arrival_counts_and_gaps_match_the_bernoulli_source() {
    for_each_trace(&Workload::uniform(LOAD), check_arrivals);
}

/// Destination histograms for one pattern: `bin(src, dest)` maps
/// each injection onto one of `PORTS` categories, of probability
/// `probability(category)` each.
fn check_destinations(
    pattern: Pattern,
    bin: impl Fn(u32, u32) -> usize,
    probability: impl Fn(usize) -> f64,
) {
    let workload = Workload {
        load: LOAD,
        pattern,
    };
    for_each_trace(&workload, |what, seed, trace| {
        let mut hist = vec![0u64; PORTS as usize];
        for &(_, src, dest) in trace {
            hist[bin(src, dest)] += 1;
        }
        let n = trace.len() as f64;
        let expected: Vec<f64> = (0..PORTS as usize).map(|b| n * probability(b)).collect();
        let what = format!("{what} {:?} destinations", workload.pattern);
        assert_below_bound(&what, seed, chi_square(&hist, &expected));
    });
}

#[test]
fn uniform_destinations_match() {
    check_destinations(
        Pattern::Uniform,
        |_, dest| dest as usize,
        |_| 1.0 / f64::from(PORTS),
    );
}

#[test]
fn hot_spot_destinations_match() {
    let (hot_fraction, hot_port) = (0.2, 13u32);
    let cold = (1.0 - hot_fraction) / f64::from(PORTS);
    check_destinations(
        Pattern::HotSpot {
            hot_fraction,
            hot_port,
        },
        |_, dest| dest as usize,
        |d| {
            cold + if d == hot_port as usize {
                hot_fraction
            } else {
                0.0
            }
        },
    );
}

#[test]
fn local_cluster_destinations_match() {
    // Destinations relative to the source's cluster base: the first
    // `cluster` offsets carry the local traffic.
    let (cluster, locality) = (8u32, 0.7);
    let far = (1.0 - locality) / f64::from(PORTS);
    check_destinations(
        Pattern::LocalClusters {
            cluster_size: cluster,
            locality,
        },
        move |src, dest| ((dest + PORTS - src / cluster * cluster) % PORTS) as usize,
        move |offset| {
            far + if offset < cluster as usize {
                locality / f64::from(cluster)
            } else {
                0.0
            }
        },
    );
}

fn sources_in(arrivals: &mut Arrivals, cycle: u64, rng: &mut ChaCha12Rng) -> Vec<u32> {
    std::iter::from_fn(|| arrivals.next_in_cycle(cycle, rng)).collect()
}

#[test]
fn vanishing_load_over_a_million_cycles_neither_panics_nor_overflows() {
    let mut rng = ChaCha12Rng::seed_from_u64(2);
    let mut arrivals = Arrivals::new(1e-12, PORTS);
    let injected: usize = (0..1_000_000)
        .map(|cycle| sources_in(&mut arrivals, cycle, &mut rng).len())
        .sum();
    // 6.4e7 trials at 1e-12: an injection would be a one-in-15,000 event.
    assert_eq!(injected, 0);
    // A load so small that every gap saturates, and cycles near the end
    // of the index space, stay total too.
    let mut tiny = Arrivals::new(f64::MIN_POSITIVE, u32::MAX);
    for cycle in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
        assert!(sources_in(&mut tiny, cycle, &mut rng).len() <= 1);
    }
}

#[test]
fn zero_load_never_touches_the_rng() {
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    let trace = TrafficTrace::synthesize(&Workload::uniform(0.0), PORTS, 10_000, &mut rng);
    assert!(trace.is_empty());
    assert_eq!(rng.next_u64(), ChaCha12Rng::seed_from_u64(3).next_u64());
}

#[test]
fn a_single_port_network_injects_at_the_load() {
    let trace = TrafficTrace::synthesize(
        &Workload::uniform(0.3),
        1,
        20_000,
        &mut ChaCha12Rng::seed_from_u64(4),
    );
    assert!(trace.entries().iter().all(|e| e.src == 0 && e.dest == 0));
    assert!(trace.entries().windows(2).all(|p| p[0].cycle < p[1].cycle));
    let rate = trace.len() as f64 / 20_000.0;
    assert!((rate - 0.3).abs() < 0.015, "rate {rate}");
}

#[test]
fn a_cycle_never_asked_for_injects_nothing() {
    let mut rng = ChaCha12Rng::seed_from_u64(5);
    let mut arrivals = Arrivals::new(1.0, 4);
    assert_eq!(sources_in(&mut arrivals, 0, &mut rng), vec![0, 1, 2, 3]);
    // Cycles 1..9 are skipped; cycle 10 still injects in full.
    assert_eq!(sources_in(&mut arrivals, 10, &mut rng), vec![0, 1, 2, 3]);
    // Asking for a cycle again once it is exhausted yields nothing.
    assert!(sources_in(&mut arrivals, 10, &mut rng).is_empty());
}
