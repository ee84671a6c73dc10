//! A miniature of the paper's evaluation: MOELA vs MOEA/D vs MOOS on one
//! Rodinia workload at an equal objective-evaluation budget, compared by
//! Pareto hypervolume under one shared normalizer.
//!
//! Run with: `cargo run --release --example algorithm_comparison`

use std::time::Duration;

use moela::core::{Algorithm, OptimizerSettings};
use moela::moo::fault::FaultConfig;
use moela::moo::normalize::Normalizer;
use moela::prelude::*;
use rand::SeedableRng;

const BUDGET: u64 = 4_000;
const SEED: u64 = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = Benchmark::Srad;
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(benchmark, platform.pe_mix(), SEED);
    let problem = ManycoreProblem::new(platform, workload, ObjectiveSet::Three)?;

    // One normalizer per (problem, seed) cell puts every PHV on the same
    // scale: the rule `moela-dse` and the benchmark harness score by.
    let normalizer = Normalizer::from_corpus(&problem, SEED);

    println!("workload {benchmark}, 3 objectives, budget {BUDGET} evaluations\n");
    println!("{:<10} {:>8} {:>10} {:>10} {:>8}", "algorithm", "evals", "time", "PHV", "front");

    // Each optimizer as `moela-dse run --population 24` builds it.
    for (algorithm, name) in
        [(Algorithm::Moela, "MOELA"), (Algorithm::Moead, "MOEA/D"), (Algorithm::Moos, "MOOS")]
    {
        let settings = OptimizerSettings {
            algorithm,
            population: 24,
            budget: BUDGET,
            normalizer: normalizer.clone(),
            time_guard: Duration::from_secs(600),
            threads: 1,
            fault: FaultConfig::default(),
        };
        let result = settings.run(&problem, &mut rand::rngs::StdRng::seed_from_u64(SEED));
        println!(
            "{:<10} {:>8} {:>10.2?} {:>10.4} {:>8}",
            name,
            result.evaluations,
            result.elapsed,
            result.phv(&normalizer),
            result.front().len()
        );
    }

    println!("\n(higher PHV = better trade-off coverage; same budget for all)");
    Ok(())
}
