//! The routing table as first written, kept as the oracle for
//! [`super::RoutingTable`], and the differential harness that holds the
//! two to the same bits.
//!
//! [`Reference::build`] is the original builder verbatim: nested
//! per-source vectors, `Option` parents, a fresh heap per source ordered
//! by `partial_cmp`, and per-link cost arrays indexed through
//! [`Topology::neighbors`]. The flat kernel must reproduce its latency and
//! wire-delay bits, hop counts and link paths for every ordered pair.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::RoutingTable;
use crate::design::{Design, Placement};
use crate::geometry::{GridDims, TileId};
use crate::moves;
use crate::params::NocParams;
use crate::topology::{Topology, TopologyBuilder};
use moela_traffic::PeMix;

/// All-pairs routes in the original nested layout.
struct Reference {
    parent: Vec<Vec<Option<(TileId, usize)>>>,
    cost: Vec<Vec<f64>>,
    hops: Vec<Vec<u32>>,
    wire_delay: Vec<Vec<f64>>,
}

impl Reference {
    fn build(dims: &GridDims, topology: &Topology, params: &NocParams) -> Self {
        let n = dims.tiles();
        let link_cost: Vec<f64> = topology
            .links()
            .iter()
            .map(|l| params.router_stages + l.length(dims) * params.link_delay_per_unit)
            .collect();
        let link_delay: Vec<f64> =
            topology.links().iter().map(|l| l.length(dims) * params.link_delay_per_unit).collect();
        let mut out = Self { parent: vec![], cost: vec![], hops: vec![], wire_delay: vec![] };
        for src in 0..n {
            let (p, c, h, w) = dijkstra(src, n, topology, &link_cost, &link_delay);
            assert!(c.iter().all(|v| v.is_finite()), "topology must be connected before routing");
            out.parent.push(p);
            out.cost.push(c);
            out.hops.push(h);
            out.wire_delay.push(w);
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

type DijkstraOut = (Vec<Option<(TileId, usize)>>, Vec<f64>, Vec<u32>, Vec<f64>);

fn dijkstra(
    src: usize,
    n: usize,
    topology: &Topology,
    link_cost: &[f64],
    link_delay: &[f64],
) -> DijkstraOut {
    let mut cost = vec![f64::INFINITY; n];
    let mut hops = vec![u32::MAX; n];
    let mut wire = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(TileId, usize)>> = vec![None; n];
    let mut done = vec![false; n];
    cost[src] = 0.0;
    hops[src] = 0;
    wire[src] = 0.0;
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
                wire[nb.0] = wire[tile] + link_delay[link];
                parent[nb.0] = Some((TileId(tile), link));
                heap.push(HeapEntry { cost: nc, tile: nb.0 });
            }
        }
    }
    (parent, cost, hops, wire)
}

/// Asserts `table` and `oracle` agree bitwise on every ordered pair.
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
            assert_eq!(
                table.wire_delay(src, dst).to_bits(),
                oracle.wire_delay[s][d].to_bits(),
                "{what}: wire delay {s}->{d}"
            );
            assert_eq!(table.hop_count(src, dst), oracle.hops[s][d], "{what}: hops {s}->{d}");
            assert_eq!(table.path_links(src, dst), oracle.path_links(src, dst), "{what}: path");
        }
    }
}

/// A grid and a topology builder with its 3D-mesh link budgets (the
/// paper's budgets on the paper grid). `grid` 0 = 4×4×4, 1 = 2×2×2,
/// 2 = a 3×3 single layer, 3 = a 5×1 line.
fn grid(grid: u8) -> (GridDims, TopologyBuilder) {
    let dims = match grid {
        0 => GridDims::paper(),
        1 => GridDims::new(2, 2, 2),
        2 => GridDims::new(3, 3, 1),
        _ => GridDims::new(5, 1, 1),
    };
    let (nx, ny, layers) = (dims.nx(), dims.ny(), dims.layers());
    let planar = layers * (nx * (ny - 1) + ny * (nx - 1));
    let tsvs = nx * ny * (layers - 1);
    (dims, TopologyBuilder::new(dims, planar, tsvs, 5, 7))
}

/// The paper's parameters, or off-integer ones so that equal-cost ties
/// are decided by rounded sums rather than exact small integers.
fn params(router_stages: f64, link_delay_per_unit: f64, integral: bool) -> NocParams {
    if integral {
        NocParams::paper()
    } else {
        NocParams { router_stages, link_delay_per_unit, ..NocParams::paper() }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh builds on random topologies of every grid shape.
    #[test]
    fn flat_builds_match_the_oracle(
        seed in 0u64..1000,
        g in 0u8..4,
        router_stages in 0.1f64..4.0,
        link_delay in 0.05f64..2.0,
        integral in 0u8..2,
    ) {
        let (dims, builder) = grid(g);
        let p = params(router_stages, link_delay, integral == 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = builder.random(&mut rng).expect("mesh budgets build");
        let oracle = Reference::build(&dims, &topo, &p);
        assert_matches(&RoutingTable::build(&dims, &topo, &p), &oracle, "build");
    }

    /// Rewire chains: each step's topology has had its adjacency lists
    /// edited in place by `replace_link`, so its neighbor order differs
    /// from a fresh build of the same link list. The flat build on the
    /// edited topology, the oracle on a fresh one and the incremental
    /// repair of the previous table must all agree.
    #[test]
    fn rewire_chains_and_repairs_match_the_oracle(
        seed in 0u64..1000,
        g in 0u8..4,
        walk in 1usize..8,
        router_stages in 0.1f64..4.0,
        link_delay in 0.05f64..2.0,
        integral in 0u8..2,
    ) {
        let (dims, builder) = grid(g);
        let p = params(router_stages, link_delay, integral == 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mix = PeMix::new(1, dims.tiles() - 2, 1);
        let placement = Placement::random(&dims, mix, &mut rng);
        let mut design = Design::new(placement, builder.random(&mut rng).expect("builds"));
        let mut table = RoutingTable::build(&dims, &design.topology, &p);
        for step in 0..walk {
            let next = moves::rewire_link(&dims, &builder, 7, &design, &mut rng);
            let fresh = Topology::from_links(&dims, next.topology.links().to_vec());
            let oracle = Reference::build(&dims, &fresh, &p);
            let built = RoutingTable::build(&dims, &next.topology, &p);
            assert_matches(&built, &oracle, &format!("step {step} build"));
            let old = design.topology.links();
            if let Some(victim) = (0..old.len()).find(|&k| old[k] != next.topology.links()[k]) {
                let link = next.topology.links()[victim];
                let cost = p.router_stages + link.length(&dims) * p.link_delay_per_unit;
                let affected = table.rewire_affected_sources(victim, link, cost);
                let repaired = table.repair_rewire(&dims, &next.topology, &affected, &p);
                assert_matches(&repaired, &oracle, &format!("step {step} repair"));
            }
            table = built;
            design = next;
        }
    }
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
