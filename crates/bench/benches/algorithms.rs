//! Criterion benchmarks of whole optimizer iterations on the paper
//! platform: cost per fixed evaluation budget for MOELA and each baseline,
//! each built by the optimizer table as `moela-dse` builds it.
//! These quantify the *framework overhead* on top of objective
//! evaluations — the paper's argument for avoiding per-candidate PHV
//! computation (MOOS/MOO-STAGE) shows up directly here.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

use moela_core::{Algorithm, OptimizerSettings};
use moela_manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_moo::fault::FaultConfig;
use moela_moo::normalize::Normalizer;
use moela_traffic::{Benchmark, Workload};

const BUDGET: u64 = 600;

fn problem() -> ManycoreProblem {
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(Benchmark::Bp, platform.pe_mix(), 3);
    ManycoreProblem::new(platform, workload, ObjectiveSet::Five).expect("paper platform")
}

fn bench_algorithms(c: &mut Criterion) {
    let problem = problem();
    let normalizer = Normalizer::from_corpus(&problem, 3);
    let mut group = c.benchmark_group("algorithms_600_evals_5obj");
    group.sample_size(10);

    let benched = [
        (Algorithm::Moela, "moela"),
        (Algorithm::Moead, "moead"),
        (Algorithm::Moos, "moos"),
        (Algorithm::MooStage, "moo_stage"),
    ];
    for (algorithm, name) in benched {
        let settings = OptimizerSettings {
            algorithm,
            population: 16,
            budget: BUDGET,
            normalizer: normalizer.clone(),
            time_guard: Duration::from_secs(600),
            threads: 1,
            fault: FaultConfig::default(),
        };
        group.bench_function(name, |b| {
            b.iter(|| settings.run(&problem, &mut rand::rngs::StdRng::seed_from_u64(1)))
        });
    }

    group.finish();
}

criterion_group!(algorithms, bench_algorithms);
criterion_main!(algorithms);
