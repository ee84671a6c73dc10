//! The routing table as first written, kept as the oracle for
//! [`super::RoutingTable`], and the differential harness that holds the
//! two to the same bits.
//!
//! [`Reference::build`] is the original builder (less its wire-delay
//! array, which nothing reads): nested per-source vectors, `Option`
//! parents, a fresh heap per source ordered by `partial_cmp`, and per-link
//! cost arrays indexed through [`Topology::neighbors`]. Both production
//! builders — the level sweep for whole-cycle arc costs, Dijkstra for any
//! other — must reproduce its latency bits, hop counts and link paths for
//! every ordered pair.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Router, RoutingTable, MAX_SWEEP_COST, NO_PARENT};
use crate::design::{Design, Placement};
use crate::geometry::{GridDims, TileId};
use crate::link::Link;
use crate::moves;
use crate::params::NocParams;
use crate::topology::{Topology, TopologyBuilder};
use moela_traffic::PeMix;

/// All-pairs routes in the original nested layout.
struct Reference {
    parent: Vec<Vec<Option<(TileId, usize)>>>,
    cost: Vec<Vec<f64>>,
    hops: Vec<Vec<u32>>,
}

impl Reference {
    fn build(dims: &GridDims, topology: &Topology, params: &NocParams) -> Self {
        let n = dims.tiles();
        let link_cost: Vec<f64> = topology
            .links()
            .iter()
            .map(|l| params.router_stages + l.length(dims) * params.link_delay_per_unit)
            .collect();
        let mut out = Self { parent: vec![], cost: vec![], hops: vec![] };
        for src in 0..n {
            let (p, c, h) = dijkstra(src, n, topology, &link_cost);
            assert!(c.iter().all(|v| v.is_finite()), "topology must be connected before routing");
            out.parent.push(p);
            out.cost.push(c);
            out.hops.push(h);
        }
        out
    }

    fn path_links(&self, src: TileId, dst: TileId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut t = dst;
        while let Some((prev, link)) = self.parent[src.0][t.0] {
            out.push(link);
            t = prev;
        }
        out
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    tile: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("costs are finite")
            .then_with(|| other.tile.cmp(&self.tile))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

type DijkstraOut = (Vec<Option<(TileId, usize)>>, Vec<f64>, Vec<u32>);

fn dijkstra(src: usize, n: usize, topology: &Topology, link_cost: &[f64]) -> DijkstraOut {
    let mut cost = vec![f64::INFINITY; n];
    let mut hops = vec![u32::MAX; n];
    let mut parent: Vec<Option<(TileId, usize)>> = vec![None; n];
    let mut done = vec![false; n];
    cost[src] = 0.0;
    hops[src] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry { cost: 0.0, tile: src });
    while let Some(HeapEntry { cost: c, tile }) = heap.pop() {
        if done[tile] {
            continue;
        }
        done[tile] = true;
        for &(nb, link) in topology.neighbors(TileId(tile)) {
            let nc = c + link_cost[link];
            let better = nc < cost[nb.0]
                || (nc == cost[nb.0] && parent[nb.0].is_some_and(|(p, _)| tile < p.0));
            if better && !done[nb.0] {
                cost[nb.0] = nc;
                hops[nb.0] = hops[tile] + 1;
                parent[nb.0] = Some((TileId(tile), link));
                heap.push(HeapEntry { cost: nc, tile: nb.0 });
            }
        }
    }
    (parent, cost, hops)
}

/// Asserts `table` and `oracle` agree bitwise on every ordered pair. The
/// parent entries are compared before any path is walked, so that a
/// table whose parents form a cycle fails rather than hangs.
fn assert_matches(table: &RoutingTable, oracle: &Reference, what: &str) {
    let n = table.tile_count();
    assert_eq!(n, oracle.cost.len(), "{what}: tile count");
    for s in 0..n {
        for d in 0..n {
            let (src, dst) = (TileId(s), TileId(d));
            assert_eq!(
                table.latency(src, dst).to_bits(),
                oracle.cost[s][d].to_bits(),
                "{what}: latency {s}->{d}"
            );
            let parent = oracle.parent[s][d].map_or(NO_PARENT, |(p, l)| (p.0 as u32, l as u32));
            assert_eq!(table.parent[s * n + d], parent, "{what}: parent {s}->{d}");
        }
    }
    for s in 0..n {
        for d in 0..n {
            let (src, dst) = (TileId(s), TileId(d));
            assert_eq!(table.hop_count(src, dst), oracle.hops[s][d], "{what}: hops {s}->{d}");
            assert_eq!(table.path_links(src, dst), oracle.path_links(src, dst), "{what}: path");
        }
    }
}

/// A grid and a topology builder with its 3D-mesh link budgets (the
/// paper's budgets on the paper grid). `grid` 0 = 4×4×4, 1 = 2×2×2,
/// 2 = a 3×3 single layer, 3 = a 5×1 line, 4 = a 9×9 single layer and
/// 5 = 5×5×3. The last two have more than 64 tiles, so the level sweep
/// routes them in two source blocks, the second one partial.
fn grid(grid: u8) -> (GridDims, TopologyBuilder) {
    let dims = match grid {
        0 => GridDims::paper(),
        1 => GridDims::new(2, 2, 2),
        2 => GridDims::new(3, 3, 1),
        3 => GridDims::new(5, 1, 1),
        4 => GridDims::new(9, 9, 1),
        _ => GridDims::new(5, 5, 3),
    };
    (dims, mesh_budgets(dims))
}

fn mesh_budgets(dims: GridDims) -> TopologyBuilder {
    let (nx, ny, layers) = (dims.nx(), dims.ny(), dims.layers());
    let planar = layers * (nx * (ny - 1) + ny * (nx - 1));
    let tsvs = nx * ny * (layers - 1);
    TopologyBuilder::new(dims, planar, tsvs, 5, 7)
}

/// Link parameters by `kind`: 0 = the paper's (whole arc costs `3 +
/// length`), 1 = other whole costs within the sweep's bound, 2 = whole
/// costs whose 5-unit arcs cost exactly [`MAX_SWEEP_COST`] (59 + length,
/// so the sweep's ring takes all 65 slots), 3 = whole costs above that
/// bound, 4 = whole and half costs mixed (2.5 + 0.5 per unit), and
/// anything else = off-integer ones, so that equal-cost ties are decided
/// by rounded sums rather than exact small integers. `a` and `b` pick the
/// free coefficients.
fn params(kind: u8, a: f64, b: f64) -> NocParams {
    let (router_stages, link_delay_per_unit) = match kind {
        0 => return NocParams::paper(),
        1 => ((1.0 + 7.0 * a).floor(), (1.0 + 7.0 * b).floor()),
        2 => (f64::from(MAX_SWEEP_COST) - 5.0, 1.0),
        3 => (f64::from(MAX_SWEEP_COST) + (8.0 * a).floor(), (1.0 + 3.0 * b).floor()),
        4 => (2.5, 0.5),
        _ => (0.1 + 3.9 * a, 0.05 + 1.95 * b),
    };
    NocParams { router_stages, link_delay_per_unit, ..NocParams::paper() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fresh builds on random topologies of every grid shape, under
    /// parameters that select each builder.
    #[test]
    fn flat_builds_match_the_oracle(
        seed in 0u64..1000,
        g in 0u8..6,
        kind in 0u8..6,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let (dims, builder) = grid(g);
        let p = params(kind, a, b);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = builder.random(&mut rng).expect("mesh budgets build");
        let oracle = Reference::build(&dims, &topo, &p);
        assert_matches(&RoutingTable::build(&dims, &topo, &p), &oracle, "build");
    }

    /// Rewire chains: each step's topology has had its adjacency lists
    /// edited in place by `replace_link`, so its neighbor order differs
    /// from a fresh build of the same link list. The build on the edited
    /// topology and the oracle on a fresh one must agree.
    #[test]
    fn rewire_chains_match_the_oracle(
        seed in 0u64..1000,
        g in 0u8..4,
        walk in 1usize..8,
        kind in 0u8..6,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let (dims, builder) = grid(g);
        let p = params(kind, a, b);
        let mut rng = StdRng::seed_from_u64(seed);
        let mix = PeMix::new(1, dims.tiles() - 2, 1);
        let placement = Placement::random(&dims, mix, &mut rng);
        let mut design = Design::new(placement, builder.random(&mut rng).expect("builds"));
        for step in 0..walk {
            let next = moves::rewire_link(&dims, &builder, 7, design.clone(), &mut rng);
            let fresh = Topology::from_links(&dims, next.topology.links().to_vec());
            let oracle = Reference::build(&dims, &fresh, &p);
            let built = RoutingTable::build(&dims, &next.topology, &p);
            assert_matches(&built, &oracle, &format!("step {step} build"));
            design = next;
        }
    }
}

/// The grids the random topologies above do not reach: the paper's mesh,
/// whose many equal-cost paths make every tie rule count, and a 256-tile
/// random stack (four source blocks).
#[test]
fn meshes_and_a_large_stack_match_the_oracle() {
    let p = NocParams::paper();
    for g in 0..6 {
        let (dims, _) = grid(g);
        let mesh = Topology::mesh(&dims);
        assert_matches(
            &RoutingTable::build(&dims, &mesh, &p),
            &Reference::build(&dims, &mesh, &p),
            "mesh",
        );
    }
    let dims = GridDims::new(8, 8, 4);
    let topo = mesh_budgets(dims).random(&mut StdRng::seed_from_u64(3)).expect("builds");
    assert_matches(
        &RoutingTable::build(&dims, &topo, &p),
        &Reference::build(&dims, &topo, &p),
        "8x8x4",
    );
}

/// Arcs that cost exactly [`MAX_SWEEP_COST`]: the sweep's ring wraps at
/// its full 65 slots, on one source block (a line with a 5-unit express
/// link) and on two (a 9×9 layer whose mesh gains 5-unit links).
#[test]
fn arcs_at_the_sweep_bound_match_the_oracle() {
    let p = params(2, 0.0, 0.0);
    let line = GridDims::new(6, 1, 1);
    let mut links: Vec<Link> = (0..5).map(|i| Link::new(TileId(i), TileId(i + 1))).collect();
    links.push(Link::new(TileId(0), TileId(5)));
    let layer = GridDims::new(9, 9, 1);
    let mut mesh = Topology::mesh(&layer).links().to_vec();
    mesh.extend([(0, 5), (40, 45), (75, 80)].map(|(a, b)| Link::new(TileId(a), TileId(b))));
    for (dims, links) in [(line, links), (layer, mesh)] {
        let topo = Topology::from_links(&dims, links);
        assert_eq!(Router::new(&dims, &topo, &p).sweep_max_cost(), Some(MAX_SWEEP_COST));
        let oracle = Reference::build(&dims, &topo, &p);
        assert_matches(&RoutingTable::build(&dims, &topo, &p), &oracle, "bound");
    }
}

/// Which builder each parameter set selects: the sweep exactly when every
/// arc cost is a whole number of cycles in `1..=MAX_SWEEP_COST`.
#[test]
fn whole_bounded_arc_costs_select_the_sweep() {
    let dims = GridDims::new(6, 1, 1);
    // A line plus express links of 2 and 5 units.
    let mut links: Vec<Link> = (0..5).map(|i| Link::new(TileId(i), TileId(i + 1))).collect();
    links.push(Link::new(TileId(0), TileId(5)));
    links.push(Link::new(TileId(1), TileId(3)));
    let topo = Topology::from_links(&dims, links);
    let select = |router_stages: f64, link_delay_per_unit: f64| {
        let p = NocParams { router_stages, link_delay_per_unit, ..NocParams::paper() };
        Router::new(&dims, &topo, &p).sweep_max_cost()
    };
    assert_eq!(Router::new(&dims, &topo, &NocParams::paper()).sweep_max_cost(), Some(8));
    assert_eq!(select(1.0, 2.0), Some(11));
    assert_eq!(select(59.0, 1.0), Some(64), "the bound is inclusive");
    assert_eq!(select(60.0, 1.0), None, "one arc costs 65");
    assert_eq!(select(64.0, 1.0), None);
    assert_eq!(select(2.5, 0.5), None, "the 2-unit arc costs 3.5");
    assert_eq!(select(3.0, 0.5), None);
    assert_eq!(select(0.25, 0.75), None, "1-unit arcs cost 1, the 2-unit arc 1.75");
}

/// The harness can fail: a table whose one latency differs by the
/// smallest step is caught.
#[test]
#[should_panic(expected = "latency")]
fn a_one_ulp_difference_is_caught() {
    let (dims, builder) = grid(2);
    let p = NocParams::paper();
    let topo = builder.random(&mut StdRng::seed_from_u64(1)).expect("builds");
    let mut table = RoutingTable::build(&dims, &topo, &p);
    table.cost[1] = f64::from_bits(table.cost[1].to_bits() + 1);
    assert_matches(&table, &Reference::build(&dims, &topo, &p), "perturbed");
}
