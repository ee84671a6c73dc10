//! Routing-cache parity on the real platform model: long random move
//! chains — swaps, rewires, and mixed walks, on the paper platform and on
//! degenerate grids — must evaluate to objective vectors *bitwise* equal
//! to a twin problem whose routing cache is off, for all five objectives
//! and at any thread count; and the cache must actually skip routing
//! rebuilds on placement-only walks.
//!
//! The expected values always come from the capacity-0 twin, so a wrong
//! table the cache serves cannot leak into them.
//!
//! The harness has a self-check mode: compiling with
//! `--features routing-fault` raises every latency of the table a cache
//! hit serves, and the `self_check` module asserts the divergence is
//! caught — proving these parity assertions have teeth rather than
//! comparing a value to itself.

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

/// The five-objective problem on `grid`, with the default routing cache.
fn problem_on(grid: u8, seed: u64) -> ManycoreProblem {
    let config = platform(grid);
    let workload = Workload::synthesize(Benchmark::Bfs, config.pe_mix(), seed);
    ManycoreProblem::new(config, workload, ObjectiveSet::Five).expect("platform builds")
}

/// The same problem with its routing cache off: every evaluation routes
/// from scratch and shares no table with `problem_on`'s.
fn reference_on(grid: u8, seed: u64) -> ManycoreProblem {
    let mut problem = problem_on(grid, seed);
    problem.set_routing_cache_capacity(0);
    problem
}

/// One move of the requested kind. `kind` 0 = placement swap, 1 = link
/// rewire, anything else = the problem's own mixed move distribution.
fn step(problem: &ManycoreProblem, kind: u8, current: &Design, rng: &mut StdRng) -> Design {
    let config = problem.config();
    match kind {
        0 => moves::swap_tiles(config.dims(), config.pe_mix(), current.clone(), rng),
        1 => {
            let builder = TopologyBuilder::new(
                *config.dims(),
                config.planar_links(),
                config.tsvs(),
                config.noc().max_planar_length,
                config.noc().max_degree,
            );
            let max_degree = config.noc().max_degree;
            moves::rewire_link(config.dims(), &builder, max_degree, current.clone(), rng)
        }
        _ => problem.neighbor(current, rng),
    }
}

/// Bit patterns, so the comparison is exact equality of bytes — not an
/// epsilon, and not `==` (which would let `-0.0` pass for `0.0`).
fn bits(objectives: &[f64]) -> Vec<u64> {
    objectives.iter().map(|v| v.to_bits()).collect()
}

/// The parity suite proper. Compiled out under `routing-fault`, where
/// cache hits are deliberately wrong and only `self_check` applies.
#[cfg(not(feature = "routing-fault"))]
mod parity {
    use super::*;
    use moela_moo::fault::{FaultConfig, GuardedEvaluator};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random move chains of every kind, on every grid, then
        /// revisited in reverse (so revisits hit the cache), scored over
        /// all five objectives through the full guarded batch pipeline at
        /// 1 and 4 worker threads, with a cache so small that most
        /// admissions evict: every evaluation must equal the cache-off
        /// twin's bitwise.
        #[test]
        fn move_chains_evaluate_bitwise_identically(
            seed in 0u64..500,
            walk in 1usize..12,
            kind in 0u8..3,
            grid in 0u8..3,
            capacity in 1usize..33,
        ) {
            let reference = reference_on(grid, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD17A);
            let mut batch = vec![reference.random_solution(&mut rng)];
            for _ in 0..walk {
                let next = step(&reference, kind, batch.last().expect("nonempty"), &mut rng);
                batch.push(next);
            }
            batch.extend(batch.clone().into_iter().rev());

            let m = reference.objective_count();
            let evaluate = |problem: &ManycoreProblem, threads: usize| -> Vec<Vec<u64>> {
                GuardedEvaluator::new(threads, FaultConfig::default())
                    .evaluate(problem, &batch)
                    .materialized(m)
                    .iter()
                    .map(|objectives| bits(objectives))
                    .collect()
            };
            let expected = evaluate(&reference, 1);
            for threads in [1usize, 4] {
                let mut problem = problem_on(grid, seed);
                problem.set_routing_cache_capacity(capacity);
                prop_assert_eq!(
                    evaluate(&problem, threads), expected.clone(),
                    "kind-{} chain on grid {}: cache capacity {} at {} threads diverged",
                    kind, grid, capacity, threads
                );
                // Single-threaded, the chain's last design is scored twice
                // in a row, so even a one-table cache must hit.
                if threads == 1 {
                    prop_assert!(problem.routing_stats().1 > 0, "the revisit must hit");
                }
            }
        }
    }

    /// Re-scoring a scored design reuses its cached table verbatim and
    /// counts a hit.
    #[test]
    fn identity_moves_reuse_the_cached_table_exactly() {
        let problem = problem_on(0, 3);
        let reference = reference_on(0, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let d = problem.random_solution(&mut rng);
        problem.evaluate(&d);
        let again = problem.evaluate(&d.clone());
        assert_eq!(bits(&again), bits(&reference.evaluate(&d)));
        assert_eq!(problem.routing_stats(), (1, 1), "the first evaluation cached the table");
    }

    /// A swap-only walk routes one topology and serves every later
    /// evaluation from its table, while staying bitwise exact.
    #[test]
    fn swap_heavy_walks_reuse_one_routing_table() {
        let problem = problem_on(0, 11);
        let reference = reference_on(0, 11);
        let mut rng = StdRng::seed_from_u64(13);
        let mut current = problem.random_solution(&mut rng);
        let walk = 40u64;
        for _ in 0..walk {
            let next = step(&problem, 0, &current, &mut rng);
            assert_eq!(bits(&problem.evaluate(&next)), bits(&reference.evaluate(&next)));
            current = next;
        }
        // The seed design was never scored: the first swap routes its
        // topology, and every later swap reuses that one table.
        assert_eq!(problem.routing_stats(), (1, walk - 1), "one build, then pure reuse");
    }

    /// Every step of a rewire walk routes a new topology from scratch.
    #[test]
    fn rewire_walks_route_every_new_topology() {
        let problem = problem_on(0, 5);
        let reference = reference_on(0, 5);
        let mut rng = StdRng::seed_from_u64(17);
        let mut current = problem.random_solution(&mut rng);
        let walk = 12u64;
        for _ in 0..walk {
            let next = step(&problem, 1, &current, &mut rng);
            assert_eq!(bits(&problem.evaluate(&next)), bits(&reference.evaluate(&next)));
            current = next;
        }
        assert_eq!(problem.routing_stats(), (walk, 0), "no rewire revisits a topology");
    }

    /// The acceptance bar for the routing layer: on a placement-heavy
    /// local search (pure tile swaps, topology untouched), the shared
    /// routing cache must cut rebuilds at least 5x against a cache-off
    /// evaluator — proven by the same counters `metrics.json` reports.
    #[test]
    fn placement_heavy_walks_cut_routing_rebuilds_at_least_5x() {
        let walk = 30usize;
        let counts = [0usize, moela_manycore::DEFAULT_ROUTING_CACHE_CAPACITY].map(|capacity| {
            let mut problem = problem_on(0, 7);
            problem.set_routing_cache_capacity(capacity);
            let mut rng = StdRng::seed_from_u64(9);
            let mut design = problem.random_solution(&mut rng);
            problem.evaluate(&design);
            for _ in 0..walk {
                design = step(&problem, 0, &design, &mut rng);
                problem.evaluate(&design);
            }
            problem.routing_stats().0
        });
        let [uncached, cached] = counts;
        assert_eq!(uncached, walk as u64 + 1, "capacity 0 rebuilds per evaluation");
        assert!(
            uncached >= 5 * cached,
            "placement-only walk must cut rebuilds at least 5x (uncached {uncached}, cached {cached})"
        );
    }
}

/// Harness self-test, compiled only with `--features routing-fault`:
/// every routing-cache hit then serves a table with every latency raised,
/// and the very comparison the parity suite runs must flag it. A green
/// run here proves a wrong reused table cannot slip through.
#[cfg(feature = "routing-fault")]
mod self_check {
    use super::*;

    #[test]
    fn the_deliberately_broken_routing_cache_is_caught() {
        let problem = problem_on(0, 7);
        let reference = reference_on(0, 7);
        let mut rng = StdRng::seed_from_u64(7);
        let mut current = problem.random_solution(&mut rng);
        let mut diverged = 0u64;
        let walk = 6u64;
        for _ in 0..walk {
            let next = step(&problem, 0, &current, &mut rng);
            if bits(&problem.evaluate(&next)) != bits(&reference.evaluate(&next)) {
                diverged += 1;
            }
            current = next;
        }
        // The unscored seed design's first swap routes from scratch;
        // every later swap is served the faulty copy of the cached table.
        assert_eq!(problem.routing_stats(), (1, walk - 1));
        assert_eq!(
            diverged,
            walk - 1,
            "the injected routing fault went undetected — the parity harness is toothless"
        );
    }
}
