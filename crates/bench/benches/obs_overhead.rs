//! Criterion benchmark for observability overhead on the batch-evaluation
//! hot path: the guarded evaluator with no obs handle (the disabled
//! default), with an enabled handle draining into a `NullSink`, and a
//! plain `Problem::evaluate` loop as the floor.
//!
//! The acceptance bar is that the disabled handle costs <1% over the
//! guarded baseline — disabled telemetry is a single `Option` check per
//! batch, with no allocation, clock read, or lock on the per-candidate
//! path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

use moela_manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_moo::fault::FaultConfig;
use moela_moo::{GuardedEvaluator, Problem};
use moela_obs::{NullSink, Obs, Sink};
use moela_traffic::{Benchmark, Workload};

fn paper_problem() -> ManycoreProblem {
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(Benchmark::Hot, platform.pe_mix(), 7);
    ManycoreProblem::new(platform, workload, ObjectiveSet::Five).expect("paper platform")
}

fn bench_obs_overhead(c: &mut Criterion) {
    let problem = paper_problem();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let batch: Vec<_> = (0..48).map(|_| problem.random_solution(&mut rng)).collect();

    let mut group = c.benchmark_group("obs_overhead/manycore_4x4x4_batch48");
    group.sample_size(20);

    group.bench_function("plain_evaluate", |b| {
        b.iter(|| {
            let problem = black_box(&problem);
            black_box(&batch).iter().map(|d| problem.evaluate(d)).collect::<Vec<_>>()
        })
    });

    let mut guarded = GuardedEvaluator::new(1, FaultConfig::default());
    group.bench_function("guarded_obs_disabled", |b| {
        b.iter(|| guarded.evaluate(black_box(&problem), black_box(&batch)))
    });

    let mut traced = GuardedEvaluator::new(1, FaultConfig::default());
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(NullSink)];
    traced.set_obs(Obs::with_sinks(sinks));
    group.bench_function("guarded_obs_null_sink", |b| {
        b.iter(|| traced.evaluate(black_box(&problem), black_box(&batch)))
    });

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
