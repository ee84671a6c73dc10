//! The optimizers on a second combinatorial domain: the multi-objective
//! 0/1 knapsack. Validates that nothing in the engines is specific to the
//! manycore encoding and that MOELA's hybrid loop helps on discrete
//! problems generally (the paper's closing generalization claim).

use moela::moo::normalize::Normalizer;
use moela::moo::problems::Knapsack;
use moela::moo::run::normalized_phv;
use moela::moo::Problem;
use moela::prelude::*;
use rand::SeedableRng;

const BUDGET: u64 = 3_000;

fn instance() -> Knapsack {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    Knapsack::random(60, 3, &mut rng)
}

fn normalizer(p: &Knapsack) -> Normalizer {
    let mut rng = rand::rngs::StdRng::seed_from_u64(78);
    let corpus: Vec<Vec<f64>> =
        (0..200).map(|_| p.evaluate(&p.random_solution(&mut rng))).collect();
    Normalizer::fit(&corpus)
}

#[test]
fn moela_beats_random_search_on_the_knapsack() {
    let p = instance();
    let n = normalizer(&p);
    let config = MoelaConfig::builder()
        .population(16)
        .generations(usize::MAX / 2)
        .max_evaluations(BUDGET)
        .build()
        .expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let moela = Moela::new(config, &p).run(&mut rng);

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let random = moela::baselines::RandomSearch::new(
        moela::baselines::RandomSearchConfig { samples: moela.evaluations, ..Default::default() },
        &p,
    )
    .run(&mut rng);
    let phv_moela = moela.phv(&n);
    let phv_random = random.phv(&n);
    assert!(phv_moela > phv_random, "MOELA {phv_moela:.4} must beat random {phv_random:.4}");
}

#[test]
fn all_population_algorithms_produce_feasible_knapsack_fronts() {
    let p = instance();
    let run_and_check = |name: &str, front: Vec<(Vec<bool>, Vec<f64>)>| {
        assert!(!front.is_empty(), "{name}: empty front");
        for (selection, objs) in front {
            assert!(p.weight(&selection) <= p.capacity(), "{name}: infeasible pick");
            assert!(objs.iter().all(|v| *v >= 0.0));
        }
    };

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let moead =
        Moead::new(MoeadConfig { population: 16, generations: 40, ..Default::default() }, &p)
            .run(&mut rng);
    run_and_check("MOEA/D", moead.front());

    let nsga2 =
        Nsga2::new(Nsga2Config { population: 16, generations: 40, ..Default::default() }, &p)
            .run(&mut rng);
    run_and_check("NSGA-II", nsga2.front());

    let moos = Moos::new(MoosConfig { episodes: 25, ..Default::default() }, &p).run(&mut rng);
    run_and_check("MOOS", moos.front());
}

#[test]
fn knapsack_front_shows_a_real_tradeoff() {
    let p = instance();
    let n = normalizer(&p);
    let config = MoelaConfig::builder().population(20).generations(30).build().expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let out = Moela::new(config, &p).run(&mut rng);
    let front = out.front_objectives();
    assert!(front.len() >= 3, "need a spread-out front, got {}", front.len());
    // PHV of the front under the corpus normalizer must be positive and
    // the per-objective minima must differ across front members (i.e. no
    // single design wins everything).
    assert!(normalized_phv(&front, &n) > 0.0);
    let argmin = |k: usize| -> usize {
        front
            .iter()
            .enumerate()
            .min_by(|a, b| a.1[k].total_cmp(&b.1[k]))
            .map(|(i, _)| i)
            .expect("non-empty")
    };
    let winners: std::collections::BTreeSet<usize> = (0..3).map(argmin).collect();
    assert!(winners.len() >= 2, "a single design dominates every objective");
}
