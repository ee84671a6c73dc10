//! Differential conformance harness for the neighbor (delta) evaluation
//! fast path: long random move chains — swaps, rewires, and mixed walks,
//! on the paper platform and on degenerate grids — must produce
//! objective vectors *bitwise* equal to full evaluation at every step,
//! for all five objectives.
//!
//! The expected values always come from a twin problem whose routing
//! cache is off, so a wrong table the neighbor path admits to the shared
//! cache cannot leak into them.
//!
//! The harness has a self-check mode: compiling with
//! `--features delta-fault` raises every latency of the table a cache hit
//! serves to the neighbor path, and the `self_check` module asserts the
//! divergence is caught — proving these parity assertions have teeth
//! rather than comparing a value to itself.

use moela_manycore::moves;
use moela_manycore::topology::TopologyBuilder;
use moela_manycore::{Design, ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_moo::Problem;
use moela_traffic::{Benchmark, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The grids under test: the paper's 4×4×4 platform plus two degenerate
/// shapes — a minimal 2×2×2 stack and a single-layer 3×3 slab with no
/// vertical links at all (so rewires only ever touch the planar pool).
fn platform(grid: u8) -> PlatformConfig {
    match grid {
        0 => PlatformConfig::paper(),
        1 => PlatformConfig::builder()
            .dims(2, 2, 2)
            .cpus(2)
            .gpus(4)
            .llcs(2)
            .build()
            .expect("the 2x2x2 stack is feasible"),
        _ => PlatformConfig::builder()
            .dims(3, 3, 1)
            .cpus(2)
            .gpus(5)
            .llcs(2)
            .build()
            .expect("the single-layer slab is feasible"),
    }
}

fn problem_on(grid: u8, set: ObjectiveSet, seed: u64) -> ManycoreProblem {
    let config = platform(grid);
    let workload = Workload::synthesize(Benchmark::Bfs, config.pe_mix(), seed);
    ManycoreProblem::new(config, workload, set).expect("platform builds")
}

/// The same problem with its routing cache off: every evaluation routes
/// from scratch and shares no table with `problem_on`'s.
fn reference_on(grid: u8, set: ObjectiveSet, seed: u64) -> ManycoreProblem {
    let mut problem = problem_on(grid, set, seed);
    problem.set_routing_cache_capacity(0);
    problem
}

/// One move of the requested kind. `kind` 0 = placement swap, 1 = link
/// rewire, anything else = the problem's own mixed move distribution.
fn step(problem: &ManycoreProblem, kind: u8, current: &Design, rng: &mut StdRng) -> Design {
    let config = problem.config();
    match kind {
        0 => moves::swap_tiles(config.dims(), config.pe_mix(), current, rng),
        1 => {
            let builder = TopologyBuilder::new(
                *config.dims(),
                config.planar_links(),
                config.tsvs(),
                config.noc().max_planar_length,
                config.noc().max_degree,
            );
            moves::rewire_link(config.dims(), &builder, config.noc().max_degree, current, rng)
        }
        _ => problem.neighbor(current, rng),
    }
}

/// Bit patterns, so the comparison is exact equality of bytes — not an
/// epsilon, and not `==` (which would let `-0.0` pass for `0.0`).
fn bits(objectives: &[f64]) -> Vec<u64> {
    objectives.iter().map(|v| v.to_bits()).collect()
}

/// The parity suite proper. Compiled out under `delta-fault`, where the
/// delta path is deliberately wrong and only `self_check` applies.
#[cfg(not(feature = "delta-fault"))]
mod parity {
    use super::*;
    use moela_manycore::objectives::{Evaluation, Evaluator};
    use moela_manycore::{DeltaEngine, Link, DEFAULT_DELTA_CACHE_CAPACITY};
    use moela_thermal::FastThermalModel;
    use proptest::prelude::*;

    /// A bare engine-level evaluator over the same `(platform, workload)`
    /// pair `problem_on` builds, for driving
    /// [`DeltaEngine::evaluate_neighbor`] directly.
    fn evaluator_on(grid: u8, seed: u64) -> Evaluator {
        let config = platform(grid);
        let workload = Workload::synthesize(Benchmark::Bfs, config.pe_mix(), seed);
        let thermal = FastThermalModel::new(config.thermal().clone());
        Evaluator::new(*config.dims(), *config.noc(), workload, thermal)
    }

    /// Every number of an evaluation, objectives and EDP inputs alike.
    fn evaluation_bits(e: &Evaluation) -> Vec<u64> {
        let n = &e.network;
        bits(&[
            e.mean_traffic,
            e.traffic_variance,
            e.cpu_latency,
            e.energy,
            e.thermal,
            e.peak_temperature,
            n.avg_packet_latency,
            n.max_link_utilization,
            n.network_energy_rate,
            n.total_pe_power,
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random move chains of every kind, on every grid, scored over
        /// all five objectives: the delta-served neighbor evaluation
        /// must equal full evaluation bitwise at every single step.
        #[test]
        fn move_chains_evaluate_bitwise_identically(
            seed in 0u64..500,
            walk in 1usize..12,
            kind in 0u8..3,
            grid in 0u8..3,
        ) {
            let problem = problem_on(grid, ObjectiveSet::Five, seed);
            let reference = reference_on(grid, ObjectiveSet::Five, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD17A);
            let mut current = problem.random_solution(&mut rng);
            for i in 0..walk {
                let next = step(&problem, kind, &current, &mut rng);
                let fast = problem.evaluate_neighbor_ordinal(&current, &next, 0);
                let full = reference.evaluate(&next);
                prop_assert_eq!(
                    bits(&fast), bits(&full),
                    "step {} of a kind-{} chain on grid {} diverged: delta {:?} vs full {:?}",
                    i, kind, grid, fast, full
                );
                current = next;
            }
        }

        /// The engine driven bare, below the problem wrapper, over a
        /// chain cycling swap, rewire and mixed moves: every neighbor's
        /// whole [`Evaluation`] must equal a from-scratch evaluation
        /// bitwise, and exactly the neighbors whose topology was scored
        /// before in the chain must be served by a cached table.
        #[test]
        fn engine_neighbors_equal_fresh_evaluations(
            seed in 0u64..300,
            walk in 2usize..14,
            grid in 0u8..3,
        ) {
            let problem = problem_on(grid, ObjectiveSet::Five, seed);
            let evaluator = evaluator_on(grid, seed);
            let mut fresh = evaluator_on(grid, seed);
            fresh.set_routing_cache_capacity(0);
            let engine = DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5A7E);
            let mut current = problem.random_solution(&mut rng);
            // The link lists routed so far (the routing cache's key): the
            // chain is shorter than the cache, so none is evicted and a
            // neighbor hits iff its link list is among them.
            let mut routed: Vec<Vec<Link>> = Vec::new();
            let mut expected_hits = 0u64;
            for i in 0..walk {
                let next = step(&problem, (i % 3) as u8, &current, &mut rng);
                if routed.iter().any(|links| links == next.topology.links()) {
                    expected_hits += 1;
                } else {
                    routed.push(next.topology.links().to_vec());
                }
                let served = engine.evaluate_neighbor(&evaluator, &current, &next);
                prop_assert_eq!(
                    evaluation_bits(&served),
                    evaluation_bits(&fresh.evaluate(&next)),
                    "step {} (kind {}) diverged from the fresh evaluation",
                    i, i % 3
                );
                current = next;
            }
            prop_assert_eq!(
                (engine.hits(), engine.fallbacks()),
                (expected_hits, walk as u64 - expected_hits)
            );
        }
    }

    /// A cloned design is the `Identity` delta: the cached table is
    /// reused verbatim and counted as a hit.
    #[test]
    fn identity_moves_reuse_the_cached_table_exactly() {
        let problem = problem_on(0, ObjectiveSet::Five, 3);
        let reference = reference_on(0, ObjectiveSet::Five, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let d = problem.random_solution(&mut rng);
        problem.evaluate(&d);
        let fast = problem.evaluate_neighbor_ordinal(&d, &d.clone(), 0);
        assert_eq!(bits(&fast), bits(&reference.evaluate(&d)));
        let (hits, fallbacks) = problem.delta_stats();
        assert_eq!((hits, fallbacks), (1, 0), "the full evaluation cached the table it reuses");
    }

    /// The ISSUE's acceptance bar, proven by the same counters
    /// `metrics.json` reports: a swap-heavy local-search walk must serve
    /// at least 3x more neighbors from the delta path than it falls
    /// back to full evaluation — while staying bitwise exact.
    #[test]
    fn swap_heavy_walks_hit_the_delta_path_at_least_3x_more_than_falling_back() {
        let problem = problem_on(0, ObjectiveSet::Three, 11);
        let reference = reference_on(0, ObjectiveSet::Three, 11);
        let config = problem.config();
        let (dims, mix) = (*config.dims(), config.pe_mix());
        let mut rng = StdRng::seed_from_u64(13);
        let mut current = problem.random_solution(&mut rng);
        let walk = 40u64;
        for _ in 0..walk {
            let next = moves::swap_tiles(&dims, mix, &current, &mut rng);
            let fast = problem.evaluate_neighbor_ordinal(&current, &next, 0);
            assert_eq!(bits(&fast), bits(&reference.evaluate(&next)));
            current = next;
        }
        let (hits, fallbacks) = problem.delta_stats();
        // The seed design was never scored: the first neighbor misses the
        // routing cache and is evaluated in full (a fallback), which
        // caches the one table every later swap shares (hits).
        assert_eq!((hits, fallbacks), (walk - 1, 1), "one full evaluation, then pure reuse");
        assert!(
            hits >= 3 * fallbacks.max(1),
            "swap-heavy walks must be delta-dominated (hits {hits}, fallbacks {fallbacks})"
        );
        assert_eq!(problem.routing_stats().0, 1, "a swap walk routes one topology");
    }

    /// Every step of a rewire walk routes a new topology, so each
    /// neighbor is a full evaluation that routes from scratch.
    #[test]
    fn rewire_walks_route_every_new_topology() {
        let problem = problem_on(0, ObjectiveSet::Five, 5);
        let reference = reference_on(0, ObjectiveSet::Five, 5);
        let mut rng = StdRng::seed_from_u64(17);
        let mut current = problem.random_solution(&mut rng);
        let walk = 12u64;
        for _ in 0..walk {
            let next = step(&problem, 1, &current, &mut rng);
            let fast = problem.evaluate_neighbor_ordinal(&current, &next, 0);
            assert_eq!(bits(&fast), bits(&reference.evaluate(&next)));
            current = next;
        }
        assert_eq!(problem.delta_stats(), (0, walk), "no rewire revisits a topology");
        assert_eq!(problem.routing_stats().0, walk, "one build per rewire");
    }
}

/// Harness self-test, compiled only with `--features delta-fault`: the
/// neighbor path then raises every latency of the table a cache hit
/// serves, and the very comparison the parity suite runs must flag it. A
/// green run here proves a wrong fast path cannot slip through.
#[cfg(feature = "delta-fault")]
mod self_check {
    use super::*;

    #[test]
    fn the_deliberately_broken_delta_path_is_caught() {
        let problem = problem_on(0, ObjectiveSet::Five, 7);
        let reference = reference_on(0, ObjectiveSet::Five, 7);
        let mut rng = StdRng::seed_from_u64(7);
        let mut current = problem.random_solution(&mut rng);
        let mut diverged = 0u64;
        let walk = 6u64;
        for _ in 0..walk {
            let next = step(&problem, 0, &current, &mut rng);
            let fast = problem.evaluate_neighbor_ordinal(&current, &next, 0);
            let full = reference.evaluate(&next);
            if bits(&fast) != bits(&full) {
                diverged += 1;
            }
            current = next;
        }
        // The unscored seed design's first swap is a full evaluation;
        // every later swap is served the faulty copy of the cached table.
        assert_eq!(problem.delta_stats(), (walk - 1, 1));
        assert_eq!(
            diverged,
            walk - 1,
            "the injected delta fault went undetected — the parity harness is toothless"
        );
    }
}
