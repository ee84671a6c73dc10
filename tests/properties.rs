//! Property-based tests (proptest) of cross-crate invariants: design
//! feasibility under arbitrary operator sequences, hypervolume laws,
//! scalarization laws, and thermal monotonicity.

use moela::manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela::moo::hypervolume::hypervolume;
use moela::moo::pareto::{dominates, non_dominated_sort};
use moela::moo::scalarize::Scalarizer;
use moela::moo::Problem;
use moela::thermal::{FastThermalModel, PowerGrid, ThermalParams};
use moela::traffic::{Benchmark, Workload};
use proptest::prelude::*;

fn small_problem(seed: u64) -> ManycoreProblem {
    let platform = PlatformConfig::builder()
        .dims(3, 3, 2)
        .cpus(2)
        .llcs(4)
        .planar_links(22)
        .tsvs(5)
        .build()
        .expect("valid platform");
    let workload = Workload::synthesize(Benchmark::Bp, platform.pe_mix(), seed);
    ManycoreProblem::new(platform, workload, ObjectiveSet::Three).expect("consistent")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of neighbor moves and crossovers keeps designs
    /// feasible — the central safety property of the design encoding.
    #[test]
    fn operator_sequences_preserve_feasibility(
        seed in 0u64..1000,
        ops in proptest::collection::vec(0u8..2, 1..12),
    ) {
        use rand::SeedableRng;
        let problem = small_problem(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = problem.random_solution(&mut rng);
        let b = problem.random_solution(&mut rng);
        for op in ops {
            a = match op {
                0 => problem.neighbor(&a, &mut rng),
                _ => problem.crossover(&a, &b, &mut rng),
            };
            let cfg = problem.config();
            a.validate(
                cfg.dims(),
                cfg.pe_mix(),
                cfg.planar_links(),
                cfg.tsvs(),
                cfg.noc().max_planar_length,
                cfg.noc().max_degree,
            ).expect("operators must preserve §III feasibility");
        }
    }

    /// Objective evaluation is a pure function of the design.
    #[test]
    fn evaluation_is_pure(seed in 0u64..1000) {
        use rand::SeedableRng;
        let problem = small_problem(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = problem.random_solution(&mut rng);
        prop_assert_eq!(problem.evaluate(&d), problem.evaluate(&d));
    }

    /// Guarded batch evaluation (at any worker count) equals
    /// per-solution evaluation on the manycore problem — the contract the
    /// parallel engine's determinism rests on.
    #[test]
    fn manycore_batch_evaluation_matches_sequential(
        count in 0usize..9,
        threads in 0usize..6,
        seed in 0u64..500,
    ) {
        use moela::moo::{FaultConfig, GuardedEvaluator};
        use rand::SeedableRng;
        let problem = small_problem(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let designs: Vec<_> = (0..count).map(|_| problem.random_solution(&mut rng)).collect();
        let sequential: Vec<_> = designs.iter().map(|d| Some(problem.evaluate(d))).collect();
        let batch = GuardedEvaluator::new(threads, FaultConfig::default()).evaluate(&problem, &designs);
        prop_assert_eq!(batch.objectives, sequential);
        prop_assert_eq!(batch.attempts, count as u64);
    }

    /// Hypervolume is monotone: adding a point never decreases it, and a
    /// dominating point strictly helps when it expands the region.
    #[test]
    fn hypervolume_is_monotone_under_insertion(
        points in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3), 1..12),
        extra in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let reference = vec![1.1; 3];
        let before = hypervolume(&points, &reference);
        let mut with = points.clone();
        with.push(extra);
        let after = hypervolume(&with, &reference);
        prop_assert!(after >= before - 1e-12);
    }

    /// Hypervolume respects set-dominance: shifting every point toward the
    /// origin cannot lose volume.
    #[test]
    fn hypervolume_rewards_uniform_improvement(
        points in proptest::collection::vec(
            proptest::collection::vec(0.1f64..1.0, 2), 1..10),
        shift in 0.0f64..0.1,
    ) {
        let reference = vec![1.1; 2];
        let improved: Vec<Vec<f64>> = points
            .iter()
            .map(|p| p.iter().map(|v| v - shift).collect())
            .collect();
        prop_assert!(
            hypervolume(&improved, &reference) >= hypervolume(&points, &reference) - 1e-12
        );
    }

    /// Non-dominated sorting partitions the input and ranks consistently:
    /// no point in a later front dominates a point in an earlier front.
    #[test]
    fn non_dominated_sort_is_a_consistent_partition(
        objs in proptest::collection::vec(
            proptest::collection::vec(0.0f64..10.0, 3), 1..25),
    ) {
        let fronts = non_dominated_sort(&objs);
        let mut seen: Vec<usize> = fronts.concat();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..objs.len()).collect::<Vec<_>>());
        for (earlier_idx, front) in fronts.iter().enumerate() {
            for later in fronts.iter().skip(earlier_idx + 1) {
                for &l in later {
                    for &e in front {
                        prop_assert!(
                            !dominates(&objs[l], &objs[e]),
                            "front {} point dominates front member", earlier_idx + 1
                        );
                    }
                }
            }
        }
    }

    /// Scalarizers are dominance-consistent: if `a` weakly dominates `b`,
    /// no weight makes `a` scalarize worse.
    #[test]
    fn scalarizers_are_dominance_consistent(
        base in proptest::collection::vec(0.0f64..5.0, 3),
        delta in proptest::collection::vec(0.0f64..2.0, 3),
        raw_w in proptest::collection::vec(0.01f64..1.0, 3),
    ) {
        let worse: Vec<f64> = base.iter().zip(&delta).map(|(b, d)| b + d).collect();
        let total: f64 = raw_w.iter().sum();
        let w: Vec<f64> = raw_w.iter().map(|v| v / total).collect();
        let z = vec![0.0; 3];
        for s in [Scalarizer::WeightedSum, Scalarizer::Tchebycheff] {
            prop_assert!(s.value(&base, &w, &z) <= s.value(&worse, &w, &z) + 1e-12);
        }
    }

    /// The thermal model is monotone in power: adding power anywhere can
    /// only raise the peak temperature.
    #[test]
    fn thermal_peak_is_monotone_in_power(
        base in proptest::collection::vec(0.0f64..4.0, 8),
        stack in 0usize..4,
        layer in 1usize..3,
        extra in 0.1f64..3.0,
    ) {
        let model = FastThermalModel::new(ThermalParams::uniform(2, 1.0, 0.5));
        let mut grid = PowerGrid::new(2, 2, 2);
        for (i, &p) in base.iter().enumerate() {
            grid.set(i / 2, i % 2 + 1, p);
        }
        let before = model.peak_temperature(&grid);
        let mut hotter = grid.clone();
        hotter.set(stack, layer, grid.get(stack, layer) + extra);
        prop_assert!(model.peak_temperature(&hotter) >= before);
    }

    /// Workload synthesis is total over all benchmark/seed combinations
    /// and always normalizes.
    #[test]
    fn workload_synthesis_is_total(seed in 0u64..500, which in 0usize..7) {
        let bench = Benchmark::ALL[which];
        let mix = moela::traffic::PeMix::new(2, 12, 4);
        let w = Workload::synthesize(bench, mix, seed);
        prop_assert!((w.total_traffic() - 1000.0).abs() < 1e-6);
        prop_assert!(w.pe_powers().iter().all(|&p| p > 0.0));
    }
}
