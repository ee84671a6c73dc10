//! Topology-keyed LRU cache of [`RoutingTable`]s.
//!
//! The dominant local-search moves (placement swaps) leave the topology —
//! and therefore the routing function — unchanged, yet every evaluation
//! used to rebuild the full all-pairs table ([`RoutingTable::build`]: the
//! level sweep under the paper's parameters, Dijkstra under others). This
//! cache keys tables by [`Topology::fingerprint`] so placement-only moves
//! skip the build entirely.
//!
//! Correctness: the fingerprint is order-independent over the link *set*,
//! but routing tables address per-link arrays by link *index*, so a hit is
//! only accepted after an exact `links()` equality check. A fingerprint
//! collision or an order-permuted link list therefore degrades to a miss,
//! never to a wrong table. Cached tables are immutable and shared via
//! `Arc`, so cached and uncached evaluation are bit-identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::geometry::GridDims;
use crate::link::Link;
use crate::params::NocParams;
use crate::routing::RoutingTable;
use crate::topology::Topology;

/// Default number of routing tables kept per evaluator. Local search
/// oscillates between a handful of topologies; population methods churn
/// more, but tables are large (O(tiles²)), so the bound stays small.
pub const DEFAULT_ROUTING_CACHE_CAPACITY: usize = 32;

#[derive(Debug)]
struct Entry {
    fingerprint: u64,
    links: Vec<Link>,
    table: Arc<RoutingTable>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct LruState {
    entries: Vec<Entry>,
    tick: u64,
}

/// A bounded, thread-safe LRU of routing tables keyed by topology
/// fingerprint. Capacity 0 disables storage (every call rebuilds) while
/// still counting rebuilds, so cache-off runs report comparable counters.
#[derive(Debug)]
pub struct RoutingCache {
    capacity: usize,
    state: Mutex<LruState>,
    rebuilds: AtomicU64,
    hits: AtomicU64,
}

impl RoutingCache {
    /// An empty cache holding at most `capacity` tables.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(LruState::default()),
            rebuilds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The configured capacity (0 = storage disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Routing tables built so far (all-pairs builds).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Looks up the table for `topology` without building on a miss. A
    /// hit counts toward [`RoutingCache::hits`]; a miss counts nothing
    /// (the caller decides whether to route the topology).
    pub fn lookup(&self, topology: &Topology) -> Option<Arc<RoutingTable>> {
        if self.capacity == 0 {
            return None;
        }
        let fp = topology.fingerprint();
        let mut state = self.state.lock().expect("routing cache poisoned");
        state.tick += 1;
        let tick = state.tick;
        let entry = state
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fp && e.links == topology.links())?;
        entry.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.table))
    }

    /// Stores `table`, built for `topology`'s exact link list, evicting
    /// LRU-style. No-op at capacity 0.
    fn admit(&self, topology: &Topology, table: Arc<RoutingTable>) {
        if self.capacity == 0 {
            return;
        }
        let fp = topology.fingerprint();
        let mut state = self.state.lock().expect("routing cache poisoned");
        state.tick += 1;
        let tick = state.tick;
        if !state.entries.iter().any(|e| e.fingerprint == fp && e.links == topology.links()) {
            if state.entries.len() >= self.capacity {
                let victim = state
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("non-empty over-capacity cache");
                state.entries.swap_remove(victim);
            }
            state.entries.push(Entry {
                fingerprint: fp,
                links: topology.links().to_vec(),
                table,
                last_used: tick,
            });
        }
    }

    /// The routing table for `topology`, from cache when possible.
    ///
    /// The table is built *outside* the lock, so concurrent misses on
    /// different topologies never serialize on the build; concurrent
    /// misses on the same topology build duplicate (identical) tables and
    /// the first admitted stays.
    pub fn routing_for(
        &self,
        dims: &GridDims,
        topology: &Topology,
        params: &NocParams,
    ) -> Arc<RoutingTable> {
        if let Some(table) = self.lookup(topology) {
            return table;
        }
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(RoutingTable::build(dims, topology, params));
        self.admit(topology, Arc::clone(&table));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::TileId;

    fn grid() -> GridDims {
        GridDims::new(3, 3, 1)
    }

    fn line(order: &[(usize, usize)]) -> Topology {
        Topology::from_links(
            &grid(),
            order.iter().map(|&(a, b)| Link::new(TileId(a), TileId(b))).collect(),
        )
    }

    #[test]
    fn repeated_lookups_hit_after_one_rebuild() {
        let cache = RoutingCache::new(4);
        let topo = Topology::mesh(&grid());
        let params = NocParams::paper();
        let first = cache.routing_for(&grid(), &topo, &params);
        for _ in 0..5 {
            let again = cache.routing_for(&grid(), &topo, &params);
            assert!(Arc::ptr_eq(&first, &again), "hits must share the table");
        }
        assert_eq!(cache.rebuilds(), 1);
        assert_eq!(cache.hits(), 5);
    }

    #[test]
    fn permuted_link_order_misses_despite_equal_fingerprint() {
        // Same link set, different order: fingerprints collide by design,
        // but index-addressed tables must not be shared.
        let t1 = line(&[(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (3, 6), (6, 7), (7, 8), (5, 8)]);
        let mut links: Vec<(usize, usize)> =
            t1.links().iter().map(|l| (l.a().0, l.b().0)).collect();
        links.reverse();
        let t2 = line(&links);
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        let cache = RoutingCache::new(4);
        let params = NocParams::paper();
        let a = cache.routing_for(&grid(), &t1, &params);
        let b = cache.routing_for(&grid(), &t2, &params);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.rebuilds(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn capacity_zero_always_rebuilds() {
        let cache = RoutingCache::new(0);
        let topo = Topology::mesh(&grid());
        let params = NocParams::paper();
        cache.routing_for(&grid(), &topo, &params);
        cache.routing_for(&grid(), &topo, &params);
        assert_eq!(cache.rebuilds(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_table() {
        let g = grid();
        let params = NocParams::paper();
        let cache = RoutingCache::new(2);
        let base = Topology::mesh(&g);
        let mut t2 = base.clone();
        t2.replace_link(0, Link::new(TileId(0), TileId(4)));
        let mut t3 = base.clone();
        t3.replace_link(1, Link::new(TileId(1), TileId(5)));

        cache.routing_for(&g, &base, &params); // base, t2 cached
        cache.routing_for(&g, &t2, &params);
        cache.routing_for(&g, &base, &params); // refresh base
        assert_eq!(cache.hits(), 1);
        cache.routing_for(&g, &t3, &params); // evicts t2 (LRU)
        cache.routing_for(&g, &base, &params); // still cached
        assert_eq!(cache.hits(), 2);
        cache.routing_for(&g, &t2, &params); // must rebuild
        assert_eq!(cache.rebuilds(), 4);
    }

    #[test]
    fn evicted_tables_rebuild_identically() {
        let g = grid();
        let params = NocParams::paper();
        let cache = RoutingCache::new(1);
        let base = Topology::mesh(&g);
        let mut other = base.clone();
        other.replace_link(0, Link::new(TileId(0), TileId(4)));
        let first = cache.routing_for(&g, &base, &params);
        cache.routing_for(&g, &other, &params); // evicts base
        let again = cache.routing_for(&g, &base, &params);
        assert!(!Arc::ptr_eq(&first, &again), "base was evicted");
        for a in 0..g.tiles() {
            for b in 0..g.tiles() {
                assert_eq!(
                    first.latency(TileId(a), TileId(b)),
                    again.latency(TileId(a), TileId(b))
                );
            }
        }
    }
}
