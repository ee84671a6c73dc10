//! Deterministic shortest-path routing over a topology.
//!
//! The paper's objectives assume a fixed routing function: `p_ijk` (does
//! the `i→j` flow use link `k`) and `r_ijk` (does it pass router `k`) are
//! indicator functions of deterministic minimal paths. We route every pair
//! on the path minimizing end-to-end latency — `router_stages` per hop plus
//! length-proportional wire delay — with deterministic tie-breaking (lowest
//! tile id wins), so identical designs always evaluate identically.
//!
//! The table is stored flat: both per-pair arrays are row-major `n × n`
//! (row = source), so a table is two allocations however large the grid.
//!
//! Two builders fill it. When every link costs a whole number of cycles
//! between 1 and `MAX_SWEEP_COST` (64) — the paper's parameters give
//! `3 + length` — a level sweep routes 64 sources at a time with one
//! bitset per tile and per arc, and writes the rows after its level loop
//! from bit-planes. Any other parameters run Dijkstra once per source.
//! Both produce the same bits; `Router::sweep` says why.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::geometry::{GridDims, TileId};
use crate::params::NocParams;
use crate::topology::Topology;

#[cfg(test)]
mod reference;

/// The `parent` entry of a source (and of an unreached tile): no link.
const NO_PARENT: (u32, u32) = (u32::MAX, u32::MAX);

/// The largest arc cost (cycles) the level sweep accepts. Its ring keeps
/// one bitset per tile for each of the last `max cost + 1` levels.
const MAX_SWEEP_COST: u32 = 64;

/// Sources routed together by the level sweep: one bit of a `u64` each.
const BLOCK: usize = 64;

/// All-pairs routing information for one topology.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    n: usize,
    /// `parent[src·n + t] = (previous tile, link index)` on the best path
    /// from `src` to `t`; [`NO_PARENT`] at `t == src`.
    parent: Vec<(u32, u32)>,
    /// `cost[src·n + t]`: total latency of the best path (cycles).
    cost: Vec<f64>,
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
        let mut table = Self { n, parent: vec![NO_PARENT; n * n], cost: vec![0.0; n * n] };
        let router = Router::new(dims, topology, params);
        match router.sweep_max_cost() {
            Some(max_cost) => router.sweep(&mut table, max_cost),
            None => router.dijkstra(&mut table),
        }
        table
    }

    /// End-to-end latency (cycles) of the `src → dst` route, per eq. (3):
    /// `r·h + d` (router stages per hop plus wire delay).
    pub fn latency(&self, src: TileId, dst: TileId) -> f64 {
        self.cost[src.0 * self.n + dst.0]
    }

    /// Hop count `h_ij` of the route, counted by walking it.
    pub fn hop_count(&self, src: TileId, dst: TileId) -> u32 {
        let mut hops = 0;
        self.walk_path(src, dst, |link, _| hops += u32::from(link.is_some()));
        hops
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

    /// Deliberate divergence for the parity harness's self-test: raises
    /// every latency, as a stale or wrong cached table would. Only
    /// routing-cache hits serve it, so cache-off evaluation stays correct
    /// and the harness must flag the difference.
    #[cfg(feature = "routing-fault")]
    pub(crate) fn with_fault(mut self) -> Self {
        for c in &mut self.cost {
            *c += 1.0;
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
}

/// The all-pairs builders over one topology, with the adjacency flattened
/// into a CSR arc list in [`Topology::neighbors`] order.
struct Router {
    /// `arcs[start[t]..start[t + 1]]` leave tile `t`.
    start: Vec<usize>,
    arcs: Vec<Edge>,
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
                });
            }
        }
        start.push(arcs.len());
        Self { start, arcs }
    }

    /// The largest arc cost when every arc costs a whole number of cycles
    /// in `1..=MAX_SWEEP_COST`, so that [`Router::sweep`] applies; `None`
    /// sends the build to Dijkstra.
    fn sweep_max_cost(&self) -> Option<u32> {
        let whole = |c: f64| c.fract() == 0.0 && (1.0..=f64::from(MAX_SWEEP_COST)).contains(&c);
        self.arcs.iter().try_fold(1, |max, arc| whole(arc.cost).then(|| max.max(arc.cost as u32)))
    }

    /// Fills every row of `table` by a level sweep over whole-cycle arc
    /// costs in `1..=max_cost`, 64 sources at a time.
    ///
    /// With whole arc costs every f64 path sum is exact, so Dijkstra's
    /// cost to `t` is the integer distance `d(s, t)`, and its tie rule
    /// keeps, among the arcs `p → t` with `d(s, p) + cost == d(s, t)`,
    /// the one from the lowest-id `p` (the first in `p`'s arc order, were
    /// there parallel links). That is a function of the graph, not of
    /// the pop order, and it is what the sweep computes: at level `L`
    /// tile `t` scans its incoming arcs by ascending predecessor id, and
    /// the first arc whose tail was first reached at level `L - cost` by
    /// a source not yet at `t` claims that source for `t`. Costs of at
    /// least 1 keep every such tail on an earlier level.
    ///
    /// The level loop works on whole bitsets, with no branch on which
    /// sources an arc holds: its claim is `ring & open`, which leaves
    /// `open` and joins the arc's `won` mask. The rows are written after
    /// the loop, from bit-planes: plane `k` of tile `t` holds the sources
    /// whose level at `t` (or whose claiming arc's rank among `t`'s
    /// incoming arcs) has bit `k` set. [`unslice`] turns the planes into
    /// one number per (source, tile), in row order.
    ///
    /// # Panics
    ///
    /// Panics if the topology is disconnected.
    fn sweep(&self, table: &mut RoutingTable, max_cost: u32) {
        let n = table.n;
        let slots = max_cost as usize + 1;
        let ring_len = slots * n;
        // Incoming arcs of every tile, in ascending predecessor id and,
        // within one predecessor, in its own arc order: `back[i]` places
        // arc `i`'s tail `cost` levels back in the ring, less the current
        // level's offset, and `hop[i]` is its `parent` entry. `hop` ends
        // in a spare [`NO_PARENT`], so that a tile with no arcs (on a
        // one-tile grid) still indexes inside it.
        let mut in_start = vec![0usize; n + 1];
        for arc in &self.arcs {
            in_start[arc.nb as usize + 1] += 1;
        }
        for t in 0..n {
            in_start[t + 1] += in_start[t];
        }
        let mut fill = in_start.clone();
        let mut back = vec![0usize; self.arcs.len()];
        let mut hop = vec![NO_PARENT; self.arcs.len() + 1];
        for p in 0..n {
            for arc in &self.arcs[self.start[p]..self.start[p + 1]] {
                let slot = &mut fill[arc.nb as usize];
                back[*slot] = (slots - arc.cost as usize) * n + p;
                hop[*slot] = (p as u32, arc.link);
                *slot += 1;
            }
        }
        let max_in = (0..n).map(|t| in_start[t + 1] - in_start[t]).max().unwrap_or(0);
        let rank_planes = bit_length(max_in.saturating_sub(1));

        // `ring[(L mod slots)·n + t]`: the block's sources first reaching
        // `t` at level `L`, for the last `slots` levels.
        let mut ring = vec![0u64; ring_len];
        // `unreached[t]`: the block's sources not yet at `t`.
        let mut unreached = vec![0u64; n];
        // `won[i]`: the block's sources that arc `i` claimed for its head.
        let mut won = vec![0u64; self.arcs.len()];
        // Bit-planes `levels[k·n + t]` and `ranks[k·n + t]`, and the
        // numbers they hold, `level_of[s·n + t]` and `rank_of[s·n + t]`.
        let (mut levels, mut ranks) = (Vec::new(), vec![0u64; rank_planes * n]);
        let (mut level_of, mut rank_of) = (Vec::new(), Vec::new());
        for base in (0..n).step_by(BLOCK) {
            let width = BLOCK.min(n - base);
            let all = u64::MAX >> (BLOCK - width);
            ring.fill(0);
            unreached.fill(all);
            won.fill(0);
            levels.fill(0);
            for bit in 0..width {
                ring[base + bit] = 1 << bit;
                unreached[base + bit] &= !(1 << bit);
            }
            let (mut level, mut slot, mut last_claim) = (0u32, 0usize, 0u32);
            let mut left = unreached.iter().fold(0, |left, &open| left | open);
            while left != 0 {
                level += 1;
                slot = if slot + 1 == slots { 0 } else { slot + 1 };
                assert!(
                    level - last_claim <= max_cost,
                    "topology must be connected before routing"
                );
                let offset = slot * n;
                let mut claimed = 0u64;
                left = 0;
                for t in 0..n {
                    let mut open = unreached[t];
                    let mut found = 0u64;
                    let arcs = in_start[t]..in_start[t + 1];
                    for (&back, won) in back[arcs.clone()].iter().zip(&mut won[arcs]) {
                        // Levels below 0 map to slots not yet written
                        // in this block, which hold no sources.
                        let mut from = offset + back;
                        if from >= ring_len {
                            from -= ring_len;
                        }
                        let claim = ring[from] & open;
                        open &= !claim;
                        found |= claim;
                        *won |= claim;
                    }
                    ring[offset + t] = found;
                    unreached[t] &= !found;
                    claimed |= found;
                    left |= unreached[t];
                }
                if claimed != 0 {
                    last_claim = level;
                }
                // The level's first-reach masks join the planes of its set bits.
                let planes = bit_length(level as usize);
                levels.resize(planes * n, 0);
                let now = &ring[offset..offset + n];
                for k in (0..planes).filter(|k| level >> k & 1 == 1) {
                    for (plane, &found) in levels[k * n..(k + 1) * n].iter_mut().zip(now) {
                        *plane |= found;
                    }
                }
            }

            // Each arc's claims join the planes of its rank's set bits.
            ranks.fill(0);
            for t in 0..n {
                for (rank, &won) in won[in_start[t]..in_start[t + 1]].iter().enumerate() {
                    for k in (0..rank_planes).filter(|k| rank >> k & 1 == 1) {
                        ranks[k * n + t] |= won;
                    }
                }
            }
            unslice(&levels, n, &mut level_of);
            unslice(&ranks, n, &mut rank_of);
            // Row `src` holds its level at each tile and the entry of the
            // arc that claimed it there; the source itself has none.
            for bit in 0..width {
                let src = base + bit;
                let row = src * n..(src + 1) * n;
                let values = bit * n..(bit + 1) * n;
                for (cost, &level) in
                    table.cost[row.clone()].iter_mut().zip(&level_of[values.clone()])
                {
                    *cost = f64::from(level);
                }
                let parent = &mut table.parent[row];
                for (t, (parent, &rank)) in parent.iter_mut().zip(&rank_of[values]).enumerate() {
                    *parent = hop[in_start[t] + rank as usize];
                }
                parent[src] = NO_PARENT;
            }
        }
    }

    /// Fills every row of `table` by Dijkstra from each source, with the
    /// visit marks and heap reused across sources.
    ///
    /// # Panics
    ///
    /// Panics if the topology is disconnected.
    fn dijkstra(&self, table: &mut RoutingTable) {
        let n = table.n;
        let mut done = vec![false; n];
        // Min-heap on `(cost bits, tile)`. Costs are non-negative and
        // finite (validated link parameters), and such f64s order like
        // their bit patterns, so this pops in `(cost, tile id)` order.
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        for src in 0..n {
            let row = src * n..(src + 1) * n;
            let parent = &mut table.parent[row.clone()];
            let cost = &mut table.cost[row];
            cost.fill(f64::INFINITY);
            done.fill(false);
            cost[src] = 0.0;
            heap.push(Reverse((0.0f64.to_bits(), src as u32)));
            while let Some(Reverse((bits, tile))) = heap.pop() {
                let tile = tile as usize;
                if done[tile] {
                    continue;
                }
                done[tile] = true;
                let c = f64::from_bits(bits);
                for arc in &self.arcs[self.start[tile]..self.start[tile + 1]] {
                    let nb = arc.nb as usize;
                    let nc = c + arc.cost;
                    // Deterministic preference: strictly lower cost, or
                    // equal cost through a lower-id predecessor.
                    let better = nc < cost[nb]
                        || (nc == cost[nb]
                            && parent[nb].0 != u32::MAX
                            && tile < parent[nb].0 as usize);
                    if better && !done[nb] {
                        cost[nb] = nc;
                        parent[nb] = (tile as u32, arc.link);
                        heap.push(Reverse((nc.to_bits(), nb as u32)));
                    }
                }
            }
            assert!(
                cost.iter().all(|v| v.is_finite()),
                "topology must be connected before routing"
            );
        }
    }
}

/// The number of bits needed to write `x`: 0 for 0.
fn bit_length(x: usize) -> usize {
    (usize::BITS - x.leading_zeros()) as usize
}

/// Sets `values[s·n + t]`, for each of a block's 64 sources `s` and each
/// tile `t`, to the number whose bit `k` is bit `s` of `planes[k·n + t]`.
///
/// Each plane is cut into 64-tile squares and [`transpose64`]d, so that a
/// source's words hold its tiles in order; eight planes at a time, those
/// words are then [`transpose8x64`]d into one byte per tile.
fn unslice(planes: &[u64], n: usize, values: &mut Vec<u32>) {
    let squares = n.div_ceil(BLOCK);
    // `rows[(k·squares + c)·BLOCK + s]`: bit `i` is bit `s` of
    // `planes[k·n + c·BLOCK + i]`.
    let mut rows = vec![0u64; planes.len() / n * squares * BLOCK];
    for (plane, rows) in planes.chunks_exact(n).zip(rows.chunks_exact_mut(squares * BLOCK)) {
        for (tiles, square) in plane.chunks(BLOCK).zip(rows.chunks_exact_mut(BLOCK)) {
            square[..tiles.len()].copy_from_slice(tiles);
            transpose64(square.try_into().expect("64 words"));
        }
    }
    // Group 0 writes every value, and any further group adds its bits.
    values.resize(BLOCK * n, 0);
    let planes = planes.len() / n;
    for (s, values) in values.chunks_exact_mut(n).enumerate() {
        for (c, values) in values.chunks_mut(BLOCK).enumerate() {
            for group in (0..planes.max(1)).step_by(8) {
                let mut words = [0u64; 8];
                for (k, word) in (group..planes.min(group + 8)).zip(&mut words) {
                    *word = rows[(k * squares + c) * BLOCK + s];
                }
                let mut bytes = [0u8; BLOCK];
                for (bytes, word) in bytes.chunks_exact_mut(8).zip(transpose8x64(words)) {
                    bytes.copy_from_slice(&word.to_le_bytes());
                }
                for (value, &byte) in values.iter_mut().zip(&bytes) {
                    let bits = u32::from(byte) << group;
                    *value = if group == 0 { bits } else { *value | bits };
                }
            }
        }
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of word `r` trades
/// places with bit `r` of word `c`.
fn transpose64(a: &mut [u64; 64]) {
    for (j, mask) in [
        (32, 0x0000_0000_FFFF_FFFF),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
        (2, 0x3333_3333_3333_3333),
        (1, 0x5555_5555_5555_5555),
    ] {
        swap_blocks(a, j, j, mask);
    }
}

/// Transposes eight 64-bit words into 64 bytes: bit `k` of byte `i` of
/// the result (word `i / 8`, little-endian) is bit `i` of `w[k]`.
fn transpose8x64(mut w: [u64; 8]) -> [u64; 8] {
    // As an 8×8 byte matrix first: byte `j` of word `k` moves to byte
    // `k` of word `j`.
    for (j, mask) in
        [(4, 0x0000_0000_FFFF_FFFF), (2, 0x0000_FFFF_0000_FFFF), (1, 0x00FF_00FF_00FF_00FF)]
    {
        swap_blocks(&mut w, j, 8 * j, mask);
    }
    // Then each word as an 8×8 bit matrix, one byte a row.
    for x in &mut w {
        for (j, mask) in
            [(7, 0x00AA_00AA_00AA_00AA), (14, 0x0000_CCCC_0000_CCCC), (28, 0x0000_0000_F0F0_F0F0)]
        {
            let t = (*x ^ (*x >> j)) & mask;
            *x ^= t ^ (t << j);
        }
    }
    w
}

/// One step of a block transpose: in each run of `2·rows` words, the
/// `mask`ed bits of the last `rows` words trade places with the bits
/// `shift` above them in the first `rows` words.
fn swap_blocks(words: &mut [u64], rows: usize, shift: usize, mask: u64) {
    for run in words.chunks_exact_mut(2 * rows) {
        let (low, high) = run.split_at_mut(rows);
        for (low, high) in low.iter_mut().zip(high) {
            let t = ((*low >> shift) ^ *high) & mask;
            *high ^= t;
            *low ^= t << shift;
        }
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

    /// An isolated tile in the second, partial source block of a 9×9
    /// layer: no source ever reaches it, so the sweep must stop.
    #[test]
    #[should_panic(expected = "connected")]
    fn an_isolated_tile_past_the_first_block_panics() {
        let dims = GridDims::new(9, 9, 1);
        let lone = TileId(77);
        let mut links = Topology::mesh(&dims).links().to_vec();
        links.retain(|l| l.a() != lone && l.b() != lone);
        let topo = Topology::from_links(&dims, links);
        RoutingTable::build(&dims, &topo, &NocParams::paper());
    }

    #[test]
    fn a_one_tile_grid_routes_to_itself() {
        let dims = GridDims::new(1, 1, 1);
        let topo = Topology::from_links(&dims, Vec::new());
        let table = RoutingTable::build(&dims, &topo, &NocParams::paper());
        assert_eq!(table.latency(TileId(0), TileId(0)), 0.0);
        assert!(table.path_links(TileId(0), TileId(0)).is_empty());
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut words = [0u64; 64];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for word in &mut words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *word = x;
        }
        let mut flipped = words;
        transpose64(&mut flipped);
        for (r, word) in words.iter().enumerate() {
            for (c, column) in flipped.iter().enumerate() {
                assert_eq!(column >> r & 1, word >> c & 1, "bit ({r}, {c})");
            }
        }
    }

    /// Ten planes (two byte groups) over 70 tiles (two squares, the
    /// second partial) against the bit-by-bit definition.
    #[test]
    fn unslice_reads_every_plane_bit() {
        let n = 70;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let planes: Vec<u64> = (0..10 * n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut values = Vec::new();
        unslice(&planes, n, &mut values);
        for s in 0..BLOCK {
            for t in 0..n {
                let want = (0..10).fold(0, |v, k| v | ((planes[k * n + t] >> s) as u32 & 1) << k);
                assert_eq!(values[s * n + t], want, "source {s}, tile {t}");
            }
        }
    }
}
