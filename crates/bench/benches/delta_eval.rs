//! Criterion benches for the neighbor evaluation path: what one neighbor
//! costs through [`DeltaEngine::evaluate_neighbor`] versus a full
//! [`Evaluator::evaluate`], per move kind, with the full side given the
//! same routing tables the neighbor side can use.
//!
//! * `full_warm_swap` / `neighbor_swap`: the swap's topology is cached,
//!   so both sides only look the table up and score.
//! * `full_cold_rewire`: a full evaluation routing the rewired topology
//!   from scratch, which is what the neighbor path does for a rewire (a
//!   rewire chain rarely revisits a topology).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use moela_manycore::moves;
use moela_manycore::objectives::Evaluator;
use moela_manycore::topology::TopologyBuilder;
use moela_manycore::{
    DeltaEngine, ManycoreProblem, ObjectiveSet, PlatformConfig, DEFAULT_DELTA_CACHE_CAPACITY,
};
use moela_moo::Problem;
use moela_thermal::FastThermalModel;
use moela_traffic::{Benchmark, Workload};

fn bench_delta_eval(c: &mut Criterion) {
    let config = PlatformConfig::paper();
    let workload = Workload::synthesize(Benchmark::Hot, config.pe_mix(), 7);
    let problem = ManycoreProblem::new(config.clone(), workload.clone(), ObjectiveSet::Five)
        .expect("paper platform");
    let thermal = FastThermalModel::new(config.thermal().clone());
    let mut cold = Evaluator::new(*config.dims(), *config.noc(), workload.clone(), thermal.clone());
    cold.set_routing_cache_capacity(0);
    let warm = Evaluator::new(*config.dims(), *config.noc(), workload, thermal);
    let engine = DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY);

    let mut rng = StdRng::seed_from_u64(9);
    let base = problem.random_solution(&mut rng);
    warm.evaluate(&base);

    let swap = loop {
        let n = moves::swap_tiles(config.dims(), config.pe_mix(), &base, &mut rng);
        if n.placement != base.placement {
            break n;
        }
    };
    let builder = TopologyBuilder::new(
        *config.dims(),
        config.planar_links(),
        config.tsvs(),
        config.noc().max_planar_length,
        config.noc().max_degree,
    );
    let rewire = loop {
        let n =
            moves::rewire_link(config.dims(), &builder, config.noc().max_degree, &base, &mut rng);
        if n.topology != base.topology {
            break n;
        }
    };

    c.bench_function("delta_eval/full_warm_swap", |b| b.iter(|| warm.evaluate(&swap)));
    c.bench_function("delta_eval/neighbor_swap", |b| {
        b.iter(|| engine.evaluate_neighbor(&warm, &base, &swap))
    });
    c.bench_function("delta_eval/full_cold_rewire", |b| b.iter(|| cold.evaluate(&rewire)));
}

criterion_group! {
    name = delta_eval;
    config = Criterion::default().sample_size(20);
    targets = bench_delta_eval
}
criterion_main!(delta_eval);
