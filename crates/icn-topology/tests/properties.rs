//! Property-based tests over delta-network construction and analysis.

use icn_topology::{blocking, permutation::Permutation, StagePlan, Topology};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_plan() -> impl Strategy<Value = StagePlan> {
    proptest::collection::vec(2u32..=9, 1..=4)
        .prop_filter("bounded ports", |r| {
            r.iter().map(|&x| u64::from(x)).product::<u64>() <= 1024
        })
        .prop_map(StagePlan::from_radices)
}

/// Mixed-radix plans of 1–4 stages and at most 4,096 ports with at least
/// one stage wider than 64.
fn wide_plan() -> impl Strategy<Value = StagePlan> {
    proptest::collection::vec(prop_oneof![2u32..=16, 65u32..=256], 1..=4)
        .prop_filter("at most 4,096 ports, one radix above 64", |r| {
            r.iter().any(|&x| x > 64) && r.iter().map(|&x| u64::from(x)).product::<u64>() <= 4096
        })
        .prop_map(StagePlan::from_radices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The closed-form wiring tables equal the per-element functions they
    /// replace: `route_table` row `d` is `routing_tags(d)`, and
    /// `shuffle_table(s)[p]` is `shuffle(s, p)`, i.e. `stage_input`'s
    /// `module · r + port`.
    #[test]
    fn wiring_tables_match_per_element_functions(plan in prop_oneof![wide_plan(), small_plan()]) {
        let t = Topology::new(plan);
        let stages = t.stages() as usize;
        let routes = t.route_table();
        prop_assert_eq!(routes.len(), t.ports() as usize * stages);
        for (dest, row) in routes.chunks_exact(stages).enumerate() {
            prop_assert!(row.iter().copied().eq(t.routing_tags(dest as u32)), "dest {}", dest);
        }
        for stage in 0..t.stages() {
            let shuffle = t.shuffle_table(stage);
            let r = t.stage_radix(stage);
            prop_assert_eq!(shuffle.len(), t.ports() as usize);
            for (line, &to) in (0..).zip(&shuffle) {
                prop_assert_eq!(to, t.shuffle(stage, line), "stage {} line {}", stage, line);
                let (module, port) = t.stage_input(stage, line);
                prop_assert_eq!(to, module * r + port);
            }
        }
    }

    /// Full access: every route call lands at its destination.
    #[test]
    fn every_pair_routes(plan in small_plan(), seed in any::<u64>()) {
        let t = Topology::new(plan);
        let n = u64::from(t.ports());
        let mut s = seed;
        for _ in 0..64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let src = (s % n) as u32;
            let dest = ((s >> 20) % n) as u32;
            prop_assert_eq!(t.route(src, dest).exit_line, dest);
        }
    }

    /// Paths to the same destination from different sources merge and then
    /// never diverge (the output-tree property of delta networks).
    #[test]
    fn paths_to_same_destination_form_a_tree(plan in small_plan(), seed in any::<u64>()) {
        let t = Topology::new(plan);
        let n = u64::from(t.ports());
        let dest = ((seed >> 7) % n) as u32;
        let a = t.route((seed % n) as u32, dest);
        let b = t.route(((seed >> 13) % n) as u32, dest);
        let mut merged = false;
        for (ha, hb) in a.hops.iter().zip(&b.hops) {
            if merged {
                // Once merged, the packets travel the same lines, so the
                // whole hop (including the input port) coincides.
                prop_assert_eq!(ha, hb, "paths diverged after merging");
            } else if ha.module == hb.module && ha.out_port == hb.out_port {
                // The merge stage itself is shared except for the input
                // port the two packets arrived on.
                merged = true;
            }
        }
        // At the last stage both paths drive the same module output (they
        // may still arrive on different input ports if they merge there).
        let (la, lb) = (a.hops.last().unwrap(), b.hops.last().unwrap());
        prop_assert_eq!(la.module, lb.module);
        prop_assert_eq!(la.out_port, lb.out_port);
    }

    /// Stage radices multiply back to the port count, and module counts are
    /// consistent.
    #[test]
    fn plan_arithmetic(plan in small_plan()) {
        let product: u64 = plan.radices().iter().map(|&r| u64::from(r)).product();
        prop_assert_eq!(product, u64::from(plan.ports()));
        for i in 0..plan.stages() {
            let r = plan.radices()[i as usize];
            prop_assert_eq!(plan.modules_in_stage(i) * r, plan.ports());
        }
    }

    /// Blocking probability is within [0, 1], increases with load, and a
    /// one-stage network of one big crossbar has the minimum blocking among
    /// equal-port plans (the Figure 2 ordering).
    #[test]
    fn blocking_bounds_and_ordering(load in 0.01f64..1.0) {
        let one = StagePlan::balanced_pow2_stages(256, 1).unwrap();
        let four = StagePlan::balanced_pow2_stages(256, 4).unwrap();
        let b1 = blocking::blocking_probability(&one, load);
        let b4 = blocking::blocking_probability(&four, load);
        prop_assert!((0.0..=1.0).contains(&b1));
        prop_assert!((0.0..=1.0).contains(&b4));
        prop_assert!(b4 >= b1 - 1e-12);
        // Monotone in load.
        let b4_heavier = blocking::blocking_probability(&four, (load + 0.1).min(1.0));
        prop_assert!(b4_heavier >= b4 - 1e-12);
    }

    /// Random permutations: the conflict checker is consistent — it reports
    /// admissible iff no two paths share a module output, which we verify
    /// independently by brute force.
    #[test]
    fn conflict_checker_matches_brute_force(seed in any::<u64>()) {
        let t = Topology::new(StagePlan::uniform(2, 4)); // 16 ports
        let mut targets: Vec<u32> = (0..16).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        targets.shuffle(&mut rng);
        let perm = Permutation::new(targets.clone());
        let report = icn_topology::permutation::check_permutation(&t, &perm);

        let paths: Vec<_> = (0..16u32).map(|s| t.route(s, targets[s as usize])).collect();
        let mut brute_conflict = false;
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                if paths[i].conflicts_with(&paths[j]) {
                    brute_conflict = true;
                }
            }
        }
        prop_assert_eq!(report.admissible(), !brute_conflict);
    }
}
