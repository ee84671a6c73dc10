//! Deterministic shortest-path routing over a topology.
//!
//! The paper's objectives assume a fixed routing function: `p_ijk` (does
//! the `i→j` flow use link `k`) and `r_ijk` (does it pass router `k`) are
//! indicator functions of deterministic minimal paths. We route every pair
//! on the path minimizing end-to-end latency — `router_stages` per hop plus
//! length-proportional wire delay — with deterministic tie-breaking (lowest
//! tile id wins), so identical designs always evaluate identically.
//!
//! The table is stored flat: every per-pair array is row-major `n × n`
//! (row = source), so a table is four allocations however large the grid.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::geometry::{GridDims, TileId};
use crate::link::Link;
use crate::params::NocParams;
use crate::topology::Topology;

#[cfg(test)]
mod reference;

/// The `parent` entry of a source (and of an unreached tile): no link.
const NO_PARENT: (u32, u32) = (u32::MAX, u32::MAX);

/// All-pairs routing information for one topology.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    n: usize,
    /// `parent[src·n + t] = (previous tile, link index)` on the best path
    /// from `src` to `t`; [`NO_PARENT`] at `t == src`.
    parent: Vec<(u32, u32)>,
    /// `cost[src·n + t]`: total latency of the best path (cycles).
    cost: Vec<f64>,
    /// `hops[src·n + t]`: number of links on the best path.
    hops: Vec<u32>,
    /// `wire_delay[src·n + t]`: total link traversal delay (cycles), the
    /// `d_ij` of eq. (3).
    wire_delay: Vec<f64>,
}

impl RoutingTable {
    /// Computes minimal-latency routes for every ordered tile pair.
    ///
    /// # Panics
    ///
    /// Panics if the topology is disconnected (the §III connectivity
    /// constraint guarantees this never happens for feasible designs).
    pub fn build(dims: &GridDims, topology: &Topology, params: &NocParams) -> Self {
        let n = dims.tiles();
        let mut table = Self {
            n,
            parent: vec![NO_PARENT; n * n],
            cost: vec![0.0; n * n],
            hops: vec![0; n * n],
            wire_delay: vec![0.0; n * n],
        };
        let mut router = Router::new(dims, topology, params);
        for src in 0..n {
            router.route(&mut table, src);
        }
        table
    }

    /// End-to-end latency (cycles) of the `src → dst` route, per eq. (3):
    /// `r·h + d` (router stages per hop plus wire delay).
    pub fn latency(&self, src: TileId, dst: TileId) -> f64 {
        self.cost[src.0 * self.n + dst.0]
    }

    /// Hop count `h_ij` of the route.
    pub fn hop_count(&self, src: TileId, dst: TileId) -> u32 {
        self.hops[src.0 * self.n + dst.0]
    }

    /// Total wire delay `d_ij` of the route (cycles).
    pub fn wire_delay(&self, src: TileId, dst: TileId) -> f64 {
        self.wire_delay[src.0 * self.n + dst.0]
    }

    /// The link indices of the route, destination-first order.
    pub fn path_links(&self, src: TileId, dst: TileId) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk_path(src, dst, |link, _| out.extend(link));
        out
    }

    /// The link indices of the route in forwarding order (first element is
    /// the link leaving `src`). What a flit carries through the simulator.
    pub fn path_links_forward(&self, src: TileId, dst: TileId) -> Vec<usize> {
        let mut links = self.path_links(src, dst);
        links.reverse();
        links
    }

    /// Walks the route, calling `visit(link_idx, router_tile)` for every
    /// link and intermediate/destination router (the source router is
    /// reported last). This is the hot loop of objective evaluation — no
    /// allocation.
    pub fn walk_path(
        &self,
        src: TileId,
        dst: TileId,
        mut visit: impl FnMut(Option<usize>, TileId),
    ) {
        let row = &self.parent[src.0 * self.n..(src.0 + 1) * self.n];
        let mut t = dst.0;
        loop {
            let (prev, link) = row[t];
            if prev == u32::MAX {
                break;
            }
            visit(Some(link as usize), TileId(t));
            t = prev as usize;
        }
        visit(None, src);
    }

    /// Number of tiles routed.
    pub fn tile_count(&self) -> usize {
        self.n
    }

    /// The per-source "row may change" mask for replacing the link at
    /// `victim_idx` with `new_link` (latency cost `new_cost`).
    ///
    /// A source's routes are provably unchanged by the rewire when
    /// (a) its shortest-path tree never crosses the removed link — removal
    /// can then neither raise a cost nor steal a chosen parent — and
    /// (b) the inserted link cannot complete a path that matches or beats
    /// an existing route: `cost[a] + new_cost > cost[b]` and symmetrically
    /// (ties count as affected because they can flip the deterministic
    /// lowest-id parent preference). Everything else is conservatively
    /// marked affected and re-routed from scratch.
    pub fn rewire_affected_sources(
        &self,
        victim_idx: usize,
        new_link: Link,
        new_cost: f64,
    ) -> Vec<bool> {
        let (a, b) = (new_link.a().0, new_link.b().0);
        let n = self.n;
        (0..n)
            .map(|src| {
                let parents = &self.parent[src * n..(src + 1) * n];
                let uses_victim = parents.iter().any(|&(_, l)| l as usize == victim_idx);
                let row = &self.cost[src * n..(src + 1) * n];
                uses_victim || row[a] + new_cost <= row[b] || row[b] + new_cost <= row[a]
            })
            .collect()
    }

    /// Repairs this table — built for the pre-rewire topology — into the
    /// table for `new_topology`, rerunning Dijkstra only for the sources
    /// in `affected` (from [`RoutingTable::rewire_affected_sources`]) and
    /// copying every other row. The result is bitwise identical to
    /// [`RoutingTable::build`] on `new_topology`.
    ///
    /// # Panics
    ///
    /// Panics if `new_topology` is disconnected.
    pub fn repair_rewire(
        &self,
        dims: &GridDims,
        new_topology: &Topology,
        affected: &[bool],
        params: &NocParams,
    ) -> Self {
        let mut table = self.clone();
        let mut router = Router::new(dims, new_topology, params);
        for (src, _) in affected.iter().enumerate().take(self.n).filter(|(_, &a)| a) {
            router.route(&mut table, src);
        }
        table
    }

    /// Deliberate divergence for the parity harness's self-test: raises
    /// every latency in the `rows` marked, as a wrong repair would. Only
    /// the neighbor path calls it, so full evaluation stays correct and
    /// the harness must flag the difference.
    #[cfg(feature = "delta-fault")]
    pub(crate) fn with_fault(mut self, rows: &[bool]) -> Self {
        for (row, _) in rows.iter().enumerate().filter(|(_, &r)| r) {
            for c in &mut self.cost[row * self.n..(row + 1) * self.n] {
                *c += 1.0;
            }
        }
        self
    }
}

/// One arc of the compressed adjacency: a link seen from one endpoint.
#[derive(Clone, Copy)]
struct Edge {
    nb: u32,
    link: u32,
    cost: f64,
    delay: f64,
}

/// Single-source Dijkstra over one topology, with the adjacency flattened
/// into a CSR arc list (in [`Topology::neighbors`] order) and the visit
/// marks and heap reused across sources.
struct Router {
    /// `arcs[start[t]..start[t + 1]]` leave tile `t`.
    start: Vec<usize>,
    arcs: Vec<Edge>,
    done: Vec<bool>,
    /// Min-heap on `(cost bits, tile)`. Costs are non-negative and finite
    /// (validated link parameters), and such f64s order like their bit
    /// patterns, so this pops in `(cost, tile id)` order.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Router {
    fn new(dims: &GridDims, topology: &Topology, params: &NocParams) -> Self {
        let n = dims.tiles();
        let mut start = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(2 * topology.link_count());
        for t in 0..n {
            start.push(arcs.len());
            for &(nb, link) in topology.neighbors(TileId(t)) {
                let delay = topology.links()[link].length(dims) * params.link_delay_per_unit;
                debug_assert!(params.router_stages + delay >= 0.0, "negative link cost");
                arcs.push(Edge {
                    nb: nb.0 as u32,
                    link: link as u32,
                    cost: params.router_stages + delay,
                    delay,
                });
            }
        }
        start.push(arcs.len());
        Self { start, arcs, done: vec![false; n], heap: BinaryHeap::new() }
    }

    /// Fills `src`'s row of every array of `table`.
    fn route(&mut self, table: &mut RoutingTable, src: usize) {
        let n = table.n;
        let row = src * n..(src + 1) * n;
        let parent = &mut table.parent[row.clone()];
        let cost = &mut table.cost[row.clone()];
        let hops = &mut table.hops[row.clone()];
        let wire = &mut table.wire_delay[row];
        parent.fill(NO_PARENT);
        cost.fill(f64::INFINITY);
        hops.fill(u32::MAX);
        wire.fill(f64::INFINITY);
        self.done.fill(false);
        cost[src] = 0.0;
        hops[src] = 0;
        wire[src] = 0.0;
        self.heap.push(Reverse((0.0f64.to_bits(), src as u32)));
        while let Some(Reverse((bits, tile))) = self.heap.pop() {
            let tile = tile as usize;
            if self.done[tile] {
                continue;
            }
            self.done[tile] = true;
            let c = f64::from_bits(bits);
            for arc in &self.arcs[self.start[tile]..self.start[tile + 1]] {
                let nb = arc.nb as usize;
                let nc = c + arc.cost;
                // Deterministic preference: strictly lower cost, or equal
                // cost through a lower-id predecessor.
                let better = nc < cost[nb]
                    || (nc == cost[nb] && parent[nb].0 != u32::MAX && tile < parent[nb].0 as usize);
                if better && !self.done[nb] {
                    cost[nb] = nc;
                    hops[nb] = hops[tile] + 1;
                    wire[nb] = wire[tile] + arc.delay;
                    parent[nb] = (tile as u32, arc.link);
                    self.heap.push(Reverse((nc.to_bits(), nb as u32)));
                }
            }
        }
        assert!(cost.iter().all(|v| v.is_finite()), "topology must be connected before routing");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::TileCoord;

    fn mesh_table() -> (GridDims, Topology, RoutingTable) {
        let dims = GridDims::paper();
        let topo = Topology::mesh(&dims);
        let table = RoutingTable::build(&dims, &topo, &NocParams::paper());
        (dims, topo, table)
    }

    #[test]
    fn self_routes_are_empty() {
        let (dims, _, table) = mesh_table();
        let t = dims.tile(TileCoord { x: 2, y: 2, z: 1 });
        assert_eq!(table.latency(t, t), 0.0);
        assert_eq!(table.hop_count(t, t), 0);
        assert!(table.path_links(t, t).is_empty());
    }

    #[test]
    fn mesh_routes_have_manhattan_hop_counts() {
        let (dims, _, table) = mesh_table();
        let a = dims.tile(TileCoord { x: 0, y: 0, z: 0 });
        let b = dims.tile(TileCoord { x: 3, y: 2, z: 1 });
        // Mesh: minimal hops = |dx|+|dy|+|dz| = 6, all links length 1.
        assert_eq!(table.hop_count(a, b), 6);
        let p = NocParams::paper();
        let want = 6.0 * (p.router_stages + p.link_delay_per_unit);
        assert!((table.latency(a, b) - want).abs() < 1e-9);
        assert!((table.wire_delay(a, b) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn paths_are_contiguous_and_match_hop_counts() {
        let (_dims, topo, table) = mesh_table();
        for s in [0usize, 17, 42] {
            for d in [5usize, 33, 63] {
                let links = table.path_links(TileId(s), TileId(d));
                assert_eq!(links.len() as u32, table.hop_count(TileId(s), TileId(d)));
                // Walk from dst back to src, checking each link touches the
                // current tile.
                let mut t = TileId(d);
                for &li in &links {
                    let l = topo.links()[li];
                    t = l.other(t);
                }
                assert_eq!(t, TileId(s));
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let (dims, topo, _) = mesh_table();
        let t1 = RoutingTable::build(&dims, &topo, &NocParams::paper());
        let t2 = RoutingTable::build(&dims, &topo, &NocParams::paper());
        for s in 0..dims.tiles() {
            for d in 0..dims.tiles() {
                assert_eq!(
                    t1.path_links(TileId(s), TileId(d)),
                    t2.path_links(TileId(s), TileId(d))
                );
            }
        }
    }

    #[test]
    fn express_links_shorten_routes() {
        // A 1×6 line plus one express link from 0 to 5.
        let dims = GridDims::new(6, 1, 1);
        let mut links: Vec<crate::link::Link> =
            (0..5).map(|i| crate::link::Link::new(TileId(i), TileId(i + 1))).collect();
        links.push(crate::link::Link::new(TileId(0), TileId(5)));
        let topo = Topology::from_links(&dims, links);
        let table = RoutingTable::build(&dims, &topo, &NocParams::paper());
        // Express: 1 hop, length 5 ⇒ 3 + 5 = 8; line: 5 hops ⇒ 5·4 = 20.
        assert_eq!(table.hop_count(TileId(0), TileId(5)), 1);
        assert!((table.latency(TileId(0), TileId(5)) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn walk_path_visits_every_link_and_router() {
        let (dims, _, table) = mesh_table();
        let a = dims.tile(TileCoord { x: 0, y: 0, z: 0 });
        let b = dims.tile(TileCoord { x: 2, y: 0, z: 0 });
        let mut links = 0;
        let mut routers = 0;
        table.walk_path(a, b, |l, _| {
            if l.is_some() {
                links += 1;
            }
            routers += 1;
        });
        assert_eq!(links, 2);
        assert_eq!(routers, 3, "source, intermediate, destination");
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_topology_panics() {
        let dims = GridDims::new(2, 1, 1);
        let topo = Topology::from_links(&dims, Vec::new());
        RoutingTable::build(&dims, &topo, &NocParams::paper());
    }
}
