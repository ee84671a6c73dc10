//! Neighbor evaluation that reuses a cached routing table.
//!
//! A neighbor whose topology has a table in the evaluator's routing
//! cache is scored against it by [`Evaluator::evaluate_with_table`]; a
//! miss is a full [`Evaluator::evaluate`]. Either way the result is the
//! full evaluation by construction.
//!
//! [`Evaluator::evaluate`] performs the same cache lookup, so no workspace
//! code calls this module any more; it stays only because dse-bench's
//! traced `Probe` compiles against it, and goes with that probe in a
//! later benchmark change.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::design::Design;
use crate::objectives::{Evaluation, Evaluator};

/// The default [`DeltaEngine::new`] argument. The engine keeps no tables
/// of its own (they live in the evaluator's routing cache), so any
/// non-zero value turns it on and 0 turns it off.
///
/// No workspace code calls this; it goes with dse-bench's `Probe` in a
/// later benchmark change.
pub const DEFAULT_DELTA_CACHE_CAPACITY: usize = 32;

/// The neighbor fast path plus its hit/fallback counters.
///
/// No workspace code calls this; it goes with dse-bench's `Probe` in a
/// later benchmark change.
#[derive(Debug)]
pub struct DeltaEngine {
    enabled: bool,
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl DeltaEngine {
    /// An engine that is on for any non-zero `capacity` and off for 0
    /// (every call is then a fallback).
    pub fn new(capacity: usize) -> Self {
        Self { enabled: capacity > 0, hits: AtomicU64::new(0), fallbacks: AtomicU64::new(0) }
    }

    /// Neighbor evaluations served by a cached routing table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Full evaluations: routing cache misses, and every call of a
    /// disabled engine.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Evaluates `next`, a neighbor of `_base`: scores it against its
    /// routing table if the evaluator's cache holds one, and evaluates it
    /// in full otherwise. The returned evaluation is bitwise identical to
    /// `evaluator.evaluate(next)` in every case.
    pub fn evaluate_neighbor(
        &self,
        evaluator: &Evaluator,
        _base: &Design,
        next: &Design,
    ) -> Evaluation {
        if self.enabled {
            if let Some(table) = evaluator.routing_cache().lookup(&next.topology) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return evaluator.evaluate_with_table(next, &table);
            }
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        evaluator.evaluate(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Placement;
    use crate::moves;
    use crate::objectives::ObjectiveSet;
    use crate::params::NocParams;
    use crate::topology::TopologyBuilder;
    use crate::GridDims;
    use moela_thermal::{FastThermalModel, ThermalParams};
    use moela_traffic::{Benchmark, PeMix, Workload};
    use rand::SeedableRng;

    fn evaluator() -> Evaluator {
        let dims = GridDims::paper();
        let workload = Workload::synthesize(Benchmark::Hot, PeMix::paper(), 5);
        let thermal = FastThermalModel::new(ThermalParams::uniform(4, 1.0, 0.5));
        Evaluator::new(dims, NocParams::paper(), workload, thermal)
    }

    fn setup() -> (Evaluator, TopologyBuilder, Design, rand::rngs::StdRng) {
        let ev = evaluator();
        let builder = TopologyBuilder::new(*ev.dims(), 96, 48, 5, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let design = Design::new(
            Placement::random(ev.dims(), ev.workload().mix(), &mut rng),
            builder.random(&mut rng).expect("builds"),
        );
        (ev, builder, design, rng)
    }

    /// A twin evaluator with its own, disabled routing cache: what the
    /// engine's neighbor results must equal bitwise.
    fn fresh(ev: &Evaluator) -> Evaluator {
        let mut fresh = ev.clone();
        fresh.set_routing_cache_capacity(0);
        fresh
    }

    #[test]
    fn swap_neighbors_are_bitwise_exact() {
        let (ev, _, design, mut rng) = setup();
        let (engine, reference) = (DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY), fresh(&ev));
        ev.evaluate(&design);
        for _ in 0..16 {
            let next = moves::swap_tiles(ev.dims(), ev.workload().mix(), design.clone(), &mut rng);
            let e = engine.evaluate_neighbor(&ev, &design, &next);
            assert_eq!(e, reference.evaluate(&next));
            assert_eq!(
                e.objectives(ObjectiveSet::Five),
                reference.evaluate(&next).objectives(ObjectiveSet::Five)
            );
        }
        assert_eq!(
            (engine.hits(), engine.fallbacks()),
            (16, 0),
            "the base table serves every swap"
        );
    }

    #[test]
    fn rewire_neighbors_are_bitwise_exact() {
        let (ev, builder, design, mut rng) = setup();
        let (engine, reference) = (DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY), fresh(&ev));
        ev.evaluate(&design);
        let mut new_topologies = 0;
        for _ in 0..16 {
            let next = moves::rewire_link(ev.dims(), &builder, 7, design.clone(), &mut rng);
            new_topologies += u64::from(next.topology != design.topology);
            assert_eq!(engine.evaluate_neighbor(&ev, &design, &next), reference.evaluate(&next));
        }
        assert_eq!(new_topologies, 16, "no rewire of this base returns a clone");
        assert_eq!(
            (engine.hits(), engine.fallbacks()),
            (0, 16),
            "a rewire routes a topology no table exists for, so each is a full evaluation"
        );
        assert_eq!(ev.routing_cache().rebuilds(), 17, "the base and each rewire are routed once");
    }

    #[test]
    fn engine_serves_neighbors_and_counts_hits() {
        let (ev, builder, design, mut rng) = setup();
        let (engine, reference) = (DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY), fresh(&ev));
        let mut current = design;
        let mut rewires = 0;
        for _ in 0..10 {
            let mix = ev.workload().mix();
            let next = moves::random_move(ev.dims(), mix, &builder, 7, current.clone(), &mut rng);
            rewires += u64::from(next.topology != current.topology);
            let via_engine = engine.evaluate_neighbor(&ev, &current, &next);
            assert_eq!(via_engine, reference.evaluate(&next));
            current = next;
        }
        // The seed design was never scored, so the first neighbor (a
        // swap) misses the cache, and so does each of the six rewires: a
        // new topology has no table yet. Every full evaluation admits its
        // table, so the other three neighbors are served from the cache.
        assert_eq!(rewires, 6);
        assert_eq!((engine.hits(), engine.fallbacks()), (3, 7));
    }

    #[test]
    fn zero_capacity_engine_always_falls_back_but_stays_exact() {
        let (ev, builder, design, mut rng) = setup();
        let engine = DeltaEngine::new(0);
        let next = moves::rewire_link(ev.dims(), &builder, 7, design.clone(), &mut rng);
        assert_eq!(engine.evaluate_neighbor(&ev, &design, &next), ev.evaluate(&next));
        assert_eq!(engine.hits(), 0);
        assert!(engine.fallbacks() >= 1);
    }
}
