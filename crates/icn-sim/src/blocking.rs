//! Monte-Carlo simulation of one circuit-switched setup round, the
//! measurement behind experiment E6-validation.
//!
//! Patel's recurrence ([`icn_topology::blocking`]) approximates the
//! acceptance of a delta network under an inter-stage independence
//! assumption; this estimator measures it on the real wiring, so the
//! approximation can be checked.

use icn_topology::{StagePlan, Topology};

/// Monte-Carlo estimate of the acceptance probability, by direct
/// combinatorial simulation of one circuit-switched setup round.
///
/// Each trial offers a request at every input with probability `offered`,
/// destinations uniform; the requests claim their unique paths stage by
/// stage, and wherever several surviving requests want the same module
/// output a uniformly random winner survives. The acceptance estimate is
/// survivors / offered-requests, averaged over `trials`.
///
/// This is the quantity Patel's recurrence (eq. behind Figure 2)
/// approximates analytically under an inter-stage independence assumption;
/// the estimator lets us measure how good that approximation is on the real
/// wiring (experiment E6-validation).
///
/// # Panics
/// Panics if `offered` is outside `[0, 1]` or `trials == 0`.
#[must_use]
pub fn monte_carlo_acceptance<R: rand::Rng + ?Sized>(
    plan: &StagePlan,
    offered: f64,
    trials: u32,
    rng: &mut R,
) -> f64 {
    assert!((0.0..=1.0).contains(&offered), "offered must be in [0,1]");
    assert!(trials > 0, "at least one trial required");
    let topology = Topology::new(plan.clone());
    let n = plan.ports();
    let stages = plan.stages() as usize;
    let routes = topology.route_table();
    let shuffles: Vec<Vec<u32>> = (0..plan.stages())
        .map(|s| topology.shuffle_table(s))
        .collect();
    let mut accepted_total = 0u64;
    let mut offered_total = 0u64;
    // Reusable scratch: requests as (line, destination).
    let mut lines: Vec<(u32, u32)> = Vec::with_capacity(n as usize);
    let mut winner: Vec<Option<usize>> = vec![None; n as usize];
    let mut claim_counts = vec![0u32; n as usize];
    let mut survivors: Vec<usize> = Vec::with_capacity(n as usize);
    for _ in 0..trials {
        lines.clear();
        for src in 0..n {
            if rng.random::<f64>() < offered {
                lines.push((src, rng.random_range(0..n)));
            }
        }
        offered_total += lines.len() as u64;
        survivors.clear();
        survivors.extend(0..lines.len());
        for (stage, shuffle) in shuffles.iter().enumerate() {
            let radix = topology.stage_radix(stage as u32);
            let out_line = |(line, dest): (u32, u32)| {
                let shuffled = shuffle[line as usize];
                shuffled - shuffled % radix + routes[dest as usize * stages + stage]
            };
            winner.iter_mut().for_each(|w| *w = None);
            claim_counts.fill(0);
            // Reservoir-style uniform winner per contended output line.
            for &idx in &survivors {
                let out = out_line(lines[idx]) as usize;
                claim_counts[out] += 1;
                if rng.random_range(0..claim_counts[out]) == 0 {
                    winner[out] = Some(idx);
                }
            }
            survivors.clear();
            survivors.extend(winner.iter().flatten());
            // Advance the surviving requests to their output lines.
            for &idx in &survivors {
                lines[idx].0 = out_line(lines[idx]);
            }
        }
        accepted_total += survivors.len() as u64;
    }
    if offered_total == 0 {
        1.0
    } else {
        accepted_total as f64 / offered_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::blocking::acceptance;
    use rand::SeedableRng;

    /// The Monte-Carlo estimator agrees with the Patel recurrence to within
    /// a few percent on the paper's configurations — the recurrence's
    /// inter-stage independence assumption is good for uniform traffic.
    #[test]
    fn monte_carlo_validates_the_recurrence() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1986);
        for (plan, offered) in [
            (StagePlan::uniform(16, 2), 1.0),
            (StagePlan::uniform(16, 2), 0.5),
            (StagePlan::uniform(4, 3), 1.0),
            (StagePlan::balanced_pow2_stages(256, 4).unwrap(), 0.8),
        ] {
            let analytic = acceptance(&plan, offered);
            let measured = monte_carlo_acceptance(&plan, offered, 300, &mut rng);
            assert!(
                (analytic - measured).abs() < 0.05,
                "{plan} at {offered}: recurrence {analytic} vs MC {measured}"
            );
        }
    }

    #[test]
    fn monte_carlo_zero_load_accepts_everything() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let plan = StagePlan::uniform(4, 2);
        let a = monte_carlo_acceptance(&plan, 0.0, 10, &mut rng);
        assert!((a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let plan = StagePlan::uniform(4, 2);
        let run = |seed: u64| {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            monte_carlo_acceptance(&plan, 0.7, 50, &mut rng)
        };
        assert_eq!(run(3).to_bits(), run(3).to_bits());
    }
}
