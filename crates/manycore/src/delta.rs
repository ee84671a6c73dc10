//! Neighbor evaluation that reuses or repairs a cached routing table.
//!
//! Local search spends almost all of its time evaluating neighbors that
//! differ from an already-scored design by one [`crate::moves`] operator:
//! a two-tile placement swap or a single link rewire. A swap leaves the
//! topology — and so the routing table — unchanged; a rewire changes only
//! the routes of the sources whose shortest-path tree it can touch. What
//! costs is the all-pairs Dijkstra, not the flow scoring: scoring every
//! flow against a ready table costs about as much as patching the few
//! terms a move touches, so [`DeltaEngine`] only saves the table build.
//!
//! * identity and swap neighbors are scored against the cached table of
//!   their (unchanged) topology;
//! * a rewire neighbor whose table is not cached has it repaired from the
//!   base design's cached table ([`RoutingTable::repair_rewire`] re-routes
//!   only the affected sources) and admitted to the routing cache.
//!
//! Either way the neighbor is then scored in full by
//! [`Evaluator::evaluate_with_table`], so the result is the full
//! evaluation by construction. Any other difference, or a cache miss,
//! falls back to [`Evaluator::evaluate`]. The repair's exactness argument
//! and the differential harness that enforces it live in DESIGN.md §5 and
//! `crates/manycore/tests/delta_parity.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::design::Design;
use crate::geometry::TileId;
use crate::link::Link;
use crate::objectives::{Evaluation, Evaluator};
use crate::routing::RoutingTable;

/// The default [`DeltaEngine::new`] argument. The engine keeps no tables
/// of its own (they live in the evaluator's routing cache), so any
/// non-zero value turns it on and 0 turns it off.
pub const DEFAULT_DELTA_CACHE_CAPACITY: usize = 32;

/// The structured difference between a design and one of its neighbors,
/// reconstructed by diffing rather than trusted from the caller — so a
/// delta is applied only when it provably reproduces the neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveDelta {
    /// The designs are equal (a rejection-sampled move returned a clone).
    Identity,
    /// The placements differ by exactly one two-tile exchange.
    Swap {
        /// First swapped tile.
        a: TileId,
        /// Second swapped tile.
        b: TileId,
    },
    /// The topologies differ by exactly one link replacement in place.
    Rewire {
        /// Index of the replaced link.
        victim_idx: usize,
        /// The link now occupying `victim_idx`.
        new_link: Link,
    },
}

impl MoveDelta {
    /// Classifies `next` relative to `base`, returning `None` when the
    /// difference is not a single recognizable move (the caller must then
    /// evaluate `next` in full).
    pub fn between(base: &Design, next: &Design) -> Option<MoveDelta> {
        let same_topology = base.topology.links() == next.topology.links();
        let same_placement = base.placement == next.placement;
        if same_topology && same_placement {
            return Some(MoveDelta::Identity);
        }
        if same_topology {
            let old = base.placement.pe_of();
            let new = next.placement.pe_of();
            if old.len() != new.len() {
                return None;
            }
            let mut diffs = (0..old.len()).filter(|&t| old[t] != new[t]);
            let (a, b) = (diffs.next()?, diffs.next()?);
            if diffs.next().is_none() && old[a] == new[b] && old[b] == new[a] {
                return Some(MoveDelta::Swap { a: TileId(a), b: TileId(b) });
            }
            return None;
        }
        if same_placement {
            let old = base.topology.links();
            let new = next.topology.links();
            if old.len() != new.len() {
                return None;
            }
            let mut diffs = (0..old.len()).filter(|&k| old[k] != new[k]);
            let victim_idx = diffs.next()?;
            if diffs.next().is_none() {
                return Some(MoveDelta::Rewire { victim_idx, new_link: new[victim_idx] });
            }
            return None;
        }
        None
    }
}

/// The neighbor fast path plus the `delta_hits`/`delta_fallbacks`
/// counters surfaced in metrics.json and `moela-dse report`.
///
/// Shared via `Arc` across clones of one problem, like the routing cache
/// it reads, so a hill climber's accepted design's table is almost
/// always resident when its neighbors are scored.
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

    /// Neighbor evaluations served by a cached or repaired routing table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Full evaluations: cache misses plus unrecognizable moves.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Evaluates `next` as a neighbor of `base`: diffs the designs, finds
    /// `next`'s routing table in the evaluator's cache or repairs it from
    /// `base`'s, and scores `next` against it — otherwise falls back to a
    /// full evaluation. The returned evaluation is bitwise identical to
    /// `evaluator.evaluate(next)` in every case.
    pub fn evaluate_neighbor(
        &self,
        evaluator: &Evaluator,
        base: &Design,
        next: &Design,
    ) -> Evaluation {
        if self.enabled {
            if let Some(table) = neighbor_table(evaluator, base, next) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return evaluator.evaluate_with_table(next, &table);
            }
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        evaluator.evaluate(next)
    }
}

/// `next`'s routing table without a full build: a cache hit, or for a
/// rewire the repaired table of a cached `base`. `None` sends the caller
/// to a full evaluation.
fn neighbor_table(
    evaluator: &Evaluator,
    base: &Design,
    next: &Design,
) -> Option<Arc<RoutingTable>> {
    let cache = evaluator.routing_cache();
    let delta = MoveDelta::between(base, next)?;
    if let Some(table) = cache.lookup(&next.topology) {
        return Some(table);
    }
    let MoveDelta::Rewire { victim_idx, new_link } = delta else {
        return None;
    };
    // A parallel link would break the replace invariant; the moves
    // module never produces one, but diffing is defensive.
    if base.topology.contains(new_link) {
        return None;
    }
    let base_table = cache.lookup(&base.topology)?;
    let (dims, params) = (evaluator.dims(), evaluator.params());
    let new_cost = params.router_stages + new_link.length(dims) * params.link_delay_per_unit;
    let affected = base_table.rewire_affected_sources(victim_idx, new_link, new_cost);
    let table = base_table.repair_rewire(dims, &next.topology, &affected, params);
    #[cfg(feature = "delta-fault")]
    let table = table.with_fault(&affected);
    let table = Arc::new(table);
    cache.admit(&next.topology, Arc::clone(&table));
    Some(table)
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

    #[test]
    fn between_classifies_identity_swap_and_rewire() {
        let (ev, builder, design, mut rng) = setup();
        assert_eq!(MoveDelta::between(&design, &design.clone()), Some(MoveDelta::Identity));
        let swapped = moves::swap_tiles(ev.dims(), ev.workload().mix(), &design, &mut rng);
        assert!(matches!(
            MoveDelta::between(&design, &swapped),
            Some(MoveDelta::Swap { .. }) | Some(MoveDelta::Identity)
        ));
        let rewired = moves::rewire_link(ev.dims(), &builder, 7, &design, &mut rng);
        assert!(matches!(
            MoveDelta::between(&design, &rewired),
            Some(MoveDelta::Rewire { .. }) | Some(MoveDelta::Identity)
        ));
    }

    #[test]
    fn between_rejects_compound_differences() {
        let (ev, builder, design, mut rng) = setup();
        // Swap + rewire: placement and topology both differ.
        let mut compound = moves::swap_tiles(ev.dims(), ev.workload().mix(), &design, &mut rng);
        while compound.placement == design.placement {
            compound = moves::swap_tiles(ev.dims(), ev.workload().mix(), &design, &mut rng);
        }
        let mut both = moves::rewire_link(ev.dims(), &builder, 7, &compound, &mut rng);
        while both.topology == compound.topology {
            both = moves::rewire_link(ev.dims(), &builder, 7, &compound, &mut rng);
        }
        assert_eq!(MoveDelta::between(&design, &both), None);
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
            let next = moves::swap_tiles(ev.dims(), ev.workload().mix(), &design, &mut rng);
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
        for _ in 0..16 {
            let next = moves::rewire_link(ev.dims(), &builder, 7, &design, &mut rng);
            assert_eq!(engine.evaluate_neighbor(&ev, &design, &next), reference.evaluate(&next));
        }
        assert_eq!(engine.fallbacks(), 0, "every rewire is repaired from the cached base");
        assert_eq!(ev.routing_cache().rebuilds(), 1, "only the base is routed from scratch");
    }

    #[test]
    fn engine_serves_neighbors_and_counts_hits() {
        let (ev, builder, design, mut rng) = setup();
        let (engine, reference) = (DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY), fresh(&ev));
        let mut current = design;
        for _ in 0..10 {
            let next =
                moves::random_move(ev.dims(), ev.workload().mix(), &builder, 7, &current, &mut rng);
            let via_engine = engine.evaluate_neighbor(&ev, &current, &next);
            assert_eq!(via_engine, reference.evaluate(&next));
            current = next;
        }
        // The seed design was never scored, so the first neighbor misses
        // the cache and is evaluated in full; its table is then resident
        // for the next step, and so on down the chain.
        assert_eq!(engine.fallbacks(), 1);
        assert_eq!(engine.hits(), 9);
    }

    #[test]
    fn zero_capacity_engine_always_falls_back_but_stays_exact() {
        let (ev, builder, design, mut rng) = setup();
        let engine = DeltaEngine::new(0);
        let next = moves::rewire_link(ev.dims(), &builder, 7, &design, &mut rng);
        assert_eq!(engine.evaluate_neighbor(&ev, &design, &next), ev.evaluate(&next));
        assert_eq!(engine.hits(), 0);
        assert!(engine.fallbacks() >= 1);
    }
}
