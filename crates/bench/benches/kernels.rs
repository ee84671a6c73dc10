//! Criterion micro-benchmarks for the computational kernels every
//! experiment leans on: routing, objective evaluation, design operators,
//! hypervolume, and random-forest training/prediction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};

use moela_manycore::routing::RoutingTable;
use moela_manycore::topology::TopologyBuilder;
use moela_manycore::{GridDims, NocParams, Topology};
use moela_manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_ml::{Dataset, ForestConfig, RandomForest};
use moela_moo::hypervolume::hypervolume;
use moela_moo::pareto::non_dominated_sort;
use moela_moo::Problem;
use moela_traffic::{Benchmark, Workload};

fn paper_problem(set: ObjectiveSet) -> ManycoreProblem {
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(Benchmark::Hot, platform.pe_mix(), 7);
    ManycoreProblem::new(platform, workload, set).expect("paper platform")
}

fn bench_routing(c: &mut Criterion) {
    let problem = paper_problem(ObjectiveSet::Three);
    let dims = *problem.config().dims();
    let params = *problem.config().noc();
    let mesh = Topology::mesh(&dims);
    c.bench_function("routing/all_pairs_mesh_4x4x4", |b| {
        b.iter(|| RoutingTable::build(&dims, &mesh, &params))
    });
    // The topologies search actually routes: random links up to 5 units
    // long, with more distinct path costs than the mesh.
    let random = problem.random_solution(&mut rand::rngs::StdRng::seed_from_u64(8)).topology;
    c.bench_function("routing/all_pairs_random_4x4x4", |b| {
        b.iter(|| RoutingTable::build(&dims, &random, &params))
    });
    // Link costs that are not whole cycles, so the build runs Dijkstra
    // per source instead of the level sweep.
    let fractional = NocParams { router_stages: 2.5, link_delay_per_unit: 0.75, ..params };
    c.bench_function("routing/all_pairs_random_4x4x4_fractional", |b| {
        b.iter(|| RoutingTable::build(&dims, &random, &fractional))
    });
    // The scaling axis: 256 tiles, four source blocks of the sweep.
    let large = GridDims::new(8, 8, 4);
    let (nx, ny, layers) = (large.nx(), large.ny(), large.layers());
    let builder = TopologyBuilder::new(
        large,
        layers * (nx * (ny - 1) + ny * (nx - 1)),
        nx * ny * (layers - 1),
        params.max_planar_length,
        params.max_degree,
    );
    let random = builder.random(&mut rand::rngs::StdRng::seed_from_u64(8)).expect("mesh budgets");
    c.bench_function("routing/all_pairs_random_8x8x4", |b| {
        b.iter(|| RoutingTable::build(&large, &random, &params))
    });
}

fn bench_objectives(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for set in [ObjectiveSet::Three, ObjectiveSet::Five] {
        let problem = paper_problem(set);
        let design = problem.random_solution(&mut rng);
        c.bench_function(&format!("objectives/evaluate_{set}"), |b| {
            b.iter(|| problem.evaluate(&design))
        });
    }
}

fn bench_operators(c: &mut Criterion) {
    let problem = paper_problem(ObjectiveSet::Three);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let a = problem.random_solution(&mut rng);
    let b2 = problem.random_solution(&mut rng);
    c.bench_function("operators/random_design", |b| b.iter(|| problem.random_solution(&mut rng)));
    c.bench_function("operators/neighbor_move", |b| b.iter(|| problem.neighbor(&a, &mut rng)));
    c.bench_function("operators/crossover", |b| b.iter(|| problem.crossover(&a, &b2, &mut rng)));
    c.bench_function("operators/features", |b| b.iter(|| problem.features(&a)));
}

fn bench_hypervolume(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for m in [2usize, 3, 5] {
        let points: Vec<Vec<f64>> =
            (0..50).map(|_| (0..m).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let reference = vec![1.1; m];
        c.bench_function(&format!("hypervolume/50pts_{m}d"), |b| {
            b.iter(|| hypervolume(&points, &reference))
        });
    }
    let points: Vec<Vec<f64>> =
        (0..200).map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
    c.bench_function("pareto/non_dominated_sort_200pts_3d", |b| {
        b.iter(|| non_dominated_sort(&points))
    });
}

fn bench_random_forest(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut data = Dataset::new();
    for _ in 0..2000 {
        let x: Vec<f64> = (0..37).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y = x.iter().sum::<f64>() + rng.gen_range(-0.1..0.1);
        data.push(x, y);
    }
    let cfg = ForestConfig { trees: 25, bootstrap_size: Some(512), ..Default::default() };
    c.bench_function("forest/fit_2000x37", |b| {
        b.iter_batched(
            || rand::rngs::StdRng::seed_from_u64(5),
            |mut r| RandomForest::fit(&data, &cfg, &mut r),
            BatchSize::SmallInput,
        )
    });
    let forest = RandomForest::fit(&data, &cfg, &mut rng);
    let query: Vec<f64> = (0..37).map(|_| rng.gen_range(0.0..1.0)).collect();
    c.bench_function("forest/predict", |b| b.iter(|| forest.predict(&query)));

    // Shaped like the surrogate's real training sets: a few hundred
    // samples whose features take 10–70 levels each and whose targets take
    // a handful of values, so most split points sit between equal values.
    let levels: Vec<u32> = (0..32).map(|_| rng.gen_range(10..=70)).collect();
    let targets: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..0.0)).collect();
    let mut tied = Dataset::new();
    for _ in 0..230 {
        let x = levels.iter().map(|&l| f64::from(rng.gen_range(0..l)) / f64::from(l)).collect();
        tied.push(x, targets[rng.gen_range(0..targets.len())]);
    }
    c.bench_function("forest/fit_230x32_tied", |b| {
        b.iter_batched(
            || rand::rngs::StdRng::seed_from_u64(6),
            |mut r| RandomForest::fit(&tied, &cfg, &mut r),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_routing, bench_objectives, bench_operators, bench_hypervolume,
              bench_random_forest
}
criterion_main!(kernels);
