//! Criterion benchmark for the batch-evaluation engine, the guarded
//! evaluator every run evaluates through: one population's worth of
//! 4×4×4 manycore objective evaluations at 1/2/4/8 workers.
//!
//! Bit-identical results are guaranteed at every worker count (verified by
//! the suite's determinism tests), so this bench isolates pure throughput.
//! Speedup tracks the machine's core count — on a single-CPU container the
//! extra workers only add scheduling overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

use moela_manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_moo::fault::FaultConfig;
use moela_moo::{GuardedEvaluator, Problem};
use moela_traffic::{Benchmark, Workload};

fn paper_problem() -> ManycoreProblem {
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(Benchmark::Hot, platform.pe_mix(), 7);
    ManycoreProblem::new(platform, workload, ObjectiveSet::Five).expect("paper platform")
}

fn bench_parallel_eval(c: &mut Criterion) {
    let problem = paper_problem();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let batch: Vec<_> = (0..48).map(|_| problem.random_solution(&mut rng)).collect();

    let mut group = c.benchmark_group("parallel_eval/manycore_4x4x4_batch48");
    group.sample_size(20);
    for workers in [1usize, 2, 4, 8] {
        let mut evaluator = GuardedEvaluator::new(workers, FaultConfig::default());
        group.bench_function(&format!("workers_{workers}"), |b| {
            b.iter(|| evaluator.evaluate(black_box(&problem), black_box(&batch)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_eval);
criterion_main!(benches);
