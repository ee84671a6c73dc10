//! Criterion micro-benchmarks for the computational kernels every
//! experiment leans on: routing, objective evaluation, design operators,
//! hypervolume, and random-forest training/prediction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};

use moela_manycore::objectives::Evaluator;
use moela_manycore::routing::RoutingTable;
use moela_manycore::topology::TopologyBuilder;
use moela_manycore::{Design, GridDims, NocParams, Topology};
use moela_manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_ml::{Dataset, ForestConfig, RandomForest};
use moela_moo::hypervolume::hypervolume;
use moela_moo::pareto::non_dominated_sort;
use moela_moo::Problem;
use moela_thermal::{FastThermalModel, PowerGrid, ThermalParams};
use moela_traffic::{Benchmark, Workload};

/// How many inputs a rotating benchmark cycles through.
const ROTATION: usize = 48;

fn paper_problem(set: ObjectiveSet) -> ManycoreProblem {
    app_problem(Benchmark::Hot, set)
}

fn app_problem(app: Benchmark, set: ObjectiveSet) -> ManycoreProblem {
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(app, platform.pe_mix(), 7);
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
    // One fixed input lets the branch predictor learn its branches, which
    // flatters branchy code; a search never routes the same topology
    // twice in a row. This rotates over inputs drawn up front.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let inputs: Vec<Topology> =
        (0..ROTATION).map(|_| problem.random_solution(&mut rng).topology).collect();
    let mut next = inputs.iter().cycle();
    c.bench_function("routing/all_pairs_random_4x4x4_rotating", |b| {
        b.iter(|| RoutingTable::build(&dims, next.next().expect("cycles"), &params))
    });
    // Link costs that are not whole cycles, so the build runs Dijkstra
    // per source instead of the level sweep.
    let fractional = NocParams { router_stages: 2.5, link_delay_per_unit: 0.75, ..params };
    c.bench_function("routing/all_pairs_random_4x4x4_fractional", |b| {
        b.iter(|| RoutingTable::build(&dims, &random, &fractional))
    });
    // The scaling axis: 256 tiles, four source blocks of the sweep.
    let large = GridDims::new(8, 8, 4);
    let builder = mesh_budget_builder(large, &params);
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
    // The thermal term of every evaluation: peak temperature and the
    // largest layer spread over the paper's 16 stacks of 4 layers.
    let model = FastThermalModel::new(ThermalParams::uniform(4, 1.0, 0.5));
    let mut power = PowerGrid::new(4, 4, 4);
    for stack in 0..power.stacks() {
        for layer in 1..=4 {
            power.set(stack, layer, rng.gen_range(0.5..12.0));
        }
    }
    c.bench_function("objectives/thermal_4x4x4", |b| b.iter(|| model.peak_and_max_spread(&power)));

    // Scoring alone on the densest traffic, over designs drawn up front
    // with their tables built outside the timed loop. Per-flow path walks
    // are latency- and branch-bound, so one fixed input would flatter
    // them as it does the routing build.
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(Benchmark::Gau, platform.pe_mix(), 7);
    let thermal = FastThermalModel::new(platform.thermal().clone());
    let gau = Evaluator::new(*platform.dims(), *platform.noc(), workload, thermal);
    let problem = app_problem(Benchmark::Gau, ObjectiveSet::Five);
    let scored: Vec<(Design, RoutingTable)> = (0..ROTATION)
        .map(|_| {
            let design = problem.random_solution(&mut rng);
            let table = RoutingTable::build(platform.dims(), &design.topology, platform.noc());
            (design, table)
        })
        .collect();
    let mut next = scored.iter().cycle();
    c.bench_function("objectives/score_gau_rotating", |b| {
        b.iter(|| {
            let (design, table) = next.next().expect("cycles");
            gau.evaluate_with_table(design, table)
        })
    });
}

fn bench_operators(c: &mut Criterion) {
    let problem = paper_problem(ObjectiveSet::Three);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let a = problem.random_solution(&mut rng);
    let b2 = problem.random_solution(&mut rng);
    c.bench_function("operators/random_design", |b| b.iter(|| problem.random_solution(&mut rng)));
    c.bench_function("operators/neighbor_move", |b| b.iter(|| problem.neighbor(&a, &mut rng)));
    c.bench_function("operators/crossover", |b| b.iter(|| problem.crossover(&a, &b2, &mut rng)));
    let parents: Vec<_> = (0..ROTATION)
        .map(|_| (problem.random_solution(&mut rng), problem.random_solution(&mut rng)))
        .collect();
    let mut next = parents.iter().cycle();
    c.bench_function("operators/crossover_rotating", |b| {
        b.iter(|| {
            let (x, y) = next.next().expect("cycles");
            problem.crossover(x, y, &mut rng)
        })
    });
    c.bench_function("operators/features", |b| b.iter(|| problem.features(&a)));
    // GAU has the densest traffic, so the most flows to weigh.
    let gau = app_problem(Benchmark::Gau, ObjectiveSet::Three);
    c.bench_function("operators/features_gau", |b| b.iter(|| gau.features(&a)));

    // The growth curve of topology construction: a degree-capped random
    // topology at mesh budgets on 64, 256 and 1024 tiles. Connectivity is
    // checked once, outside the timed loop.
    for (nx, ny) in [(4, 4), (8, 8), (16, 16)] {
        let dims = GridDims::new(nx, ny, 4);
        let builder = mesh_budget_builder(dims, problem.config().noc());
        let topology = builder.random(&mut rng).expect("mesh budgets");
        assert!(topology.is_connected(), "a random topology must connect every tile");
        c.bench_function(&format!("operators/random_topology_{}", dims.tiles()), |b| {
            b.iter(|| builder.random(&mut rng))
        });
    }
}

/// A builder at the 3D mesh's link budgets on `dims`.
fn mesh_budget_builder(dims: GridDims, params: &NocParams) -> TopologyBuilder {
    let (nx, ny, layers) = (dims.nx(), dims.ny(), dims.layers());
    TopologyBuilder::new(
        dims,
        layers * (nx * (ny - 1) + ny * (nx - 1)),
        nx * ny * (layers - 1),
        params.max_planar_length,
        params.max_degree,
    )
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
