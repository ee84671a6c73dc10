//! Cross-algorithm contract tests: every optimizer in the workspace obeys
//! the same interface guarantees on the same manycore problem.

use std::time::Duration;

use moela::baselines::{MooStage, MooStageConfig, RandomSearch, RandomSearchConfig};
use moela::moo::pareto::non_dominated_indices;
use moela::prelude::*;
use rand::SeedableRng;

const BUDGET: u64 = 400;

fn problem() -> ManycoreProblem {
    let platform = PlatformConfig::builder()
        .dims(3, 3, 2)
        .cpus(2)
        .llcs(4)
        .planar_links(24)
        .tsvs(6)
        .build()
        .expect("valid platform");
    let workload = Workload::synthesize(Benchmark::Pf, platform.pe_mix(), 13);
    ManycoreProblem::new(platform, workload, ObjectiveSet::Three).expect("consistent")
}

fn check(name: &str, result: &MoelaOutcome<Design>) {
    assert!(!result.population.is_empty(), "{name}: empty population");
    assert!(result.evaluations > 0, "{name}: no evaluations recorded");
    // Evaluation caps are enforced between phases; one in-flight local
    // search may overshoot slightly.
    assert!(
        result.evaluations <= BUDGET + 120,
        "{name}: budget blown ({} evals)",
        result.evaluations
    );
    assert!(!result.trace.is_empty(), "{name}: no trace");
    let front = result.front_objectives();
    assert!(!front.is_empty(), "{name}: empty front");
    assert_eq!(
        non_dominated_indices(&front).len(),
        front.len(),
        "{name}: front contains dominated points"
    );
    // Trace evaluations are non-decreasing.
    for w in result.trace.windows(2) {
        assert!(w[0].evaluations <= w[1].evaluations, "{name}: trace goes backwards");
    }
}

#[test]
fn moela_contract() {
    let p = problem();
    let config = MoelaConfig::builder()
        .population(8)
        .generations(usize::MAX / 2)
        .max_evaluations(BUDGET)
        .time_budget(Duration::from_secs(60))
        .build()
        .expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    check("MOELA", &Moela::new(config, &p).run(&mut rng));
}

#[test]
fn moead_contract() {
    let p = problem();
    let config = MoeadConfig {
        population: 8,
        neighborhood: 4,
        generations: usize::MAX / 2,
        max_evaluations: Some(BUDGET),
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    check("MOEA/D", &Moead::new(config, &p).run(&mut rng));
}

#[test]
fn nsga2_contract() {
    let p = problem();
    let config = Nsga2Config {
        population: 8,
        generations: usize::MAX / 2,
        max_evaluations: Some(BUDGET),
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    check("NSGA-II", &Nsga2::new(config, &p).run(&mut rng));
}

#[test]
fn moos_contract() {
    let p = problem();
    let config = MoosConfig {
        episodes: usize::MAX / 2,
        max_evaluations: Some(BUDGET),
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    check("MOOS", &Moos::new(config, &p).run(&mut rng));
}

#[test]
fn moo_stage_contract() {
    let p = problem();
    let config = MooStageConfig {
        episodes: usize::MAX / 2,
        max_evaluations: Some(BUDGET),
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    check("MOO-STAGE", &MooStage::new(config, &p).run(&mut rng));
}

#[test]
fn naive_baseline_contracts() {
    let p = problem();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let rs = RandomSearch::new(RandomSearchConfig { samples: BUDGET, ..Default::default() }, &p)
        .run(&mut rng);
    check("random", &rs);
}

#[test]
fn counted_adapter_agrees_with_reported_evaluations() {
    let p = problem();
    let counter = EvalCounter::new();
    let counted = Counted::new(p, counter.clone());
    let config = MoelaConfig::builder()
        .population(8)
        .generations(usize::MAX / 2)
        .max_evaluations(BUDGET)
        .build()
        .expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let out = Moela::new(config, &counted).run(&mut rng);
    assert_eq!(out.evaluations, counter.count());
}

#[test]
fn all_algorithms_are_deterministic_per_seed() {
    let p = problem();
    let run_twice = |seed: u64| {
        let config = MoelaConfig::builder().population(8).generations(4).build().expect("valid");
        let mut r1 = rand::rngs::StdRng::seed_from_u64(seed);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Moela::new(config.clone(), &p).run(&mut r1);
        let b = Moela::new(config, &p).run(&mut r2);
        let objs = |r: &MoelaOutcome<Design>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };
        assert_eq!(objs(&a), objs(&b));
    };
    run_twice(11);
    run_twice(12);
}
