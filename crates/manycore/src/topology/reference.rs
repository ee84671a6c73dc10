//! The topology operators as first written, kept as the oracle for the
//! link-set bitsets of [`super::TopologyBuilder`], and the differential
//! harness that holds the two to the same bytes.
//!
//! [`crossover`] unions the parents' links through two `BTreeSet`s;
//! [`from_preferred`] and [`random`] assemble through a `HashSet` of chosen
//! links and classify every link with [`Link::kind`]; [`from_links`]
//! checks for duplicates by sorting a copy. The production operators must
//! give the same links in the same order, the same placement, adjacency and
//! fingerprint, and leave the RNG at the same next draw.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use super::{link_hash, BuildTopologyError, Topology, TopologyBuilder, UnionFind};
use crate::crossover::placement_crossover;
use crate::design::{Design, Placement};
use crate::geometry::GridDims;
use crate::link::{Link, LinkKind};
use crate::moves;
use moela_traffic::PeMix;

/// [`Topology::from_links`] with its sort-based duplicate check.
fn from_links(dims: &GridDims, links: Vec<Link>) -> Topology {
    let mut adjacency = vec![Vec::new(); dims.tiles()];
    for (idx, link) in links.iter().enumerate() {
        assert!(link.b().0 < dims.tiles(), "link endpoint {} outside the grid", link.b());
        adjacency[link.a().0].push((link.b(), idx));
        adjacency[link.b().0].push((link.a(), idx));
    }
    let mut sorted = links.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), links.len(), "duplicate links in topology");
    let fingerprint = links.iter().fold(0u64, |acc, &l| acc ^ link_hash(l));
    Topology { links, adjacency, fingerprint }
}

/// [`crate::crossover::crossover`] with the `BTreeSet` union.
fn crossover(
    dims: &GridDims,
    mix: PeMix,
    builder: &TopologyBuilder,
    max_degree: usize,
    a: &Design,
    b: &Design,
    rng: &mut impl Rng,
) -> Design {
    let placement = placement_crossover(dims, mix, &a.placement, &b.placement, rng);
    // BTreeSets keep the union order deterministic (HashSet iteration
    // order varies run-to-run, which would break seed reproducibility).
    let mut union: Vec<Link> = a.topology.links().to_vec();
    let b_links: BTreeSet<Link> = b.topology.links().iter().copied().collect();
    let a_links: BTreeSet<Link> = union.iter().copied().collect();
    union.extend(b_links.difference(&a_links));
    let topology = from_preferred(builder, &union, rng).unwrap_or_else(|_| a.topology.clone());
    let child = Design::new(placement, topology);
    moves::random_move(dims, mix, builder, max_degree, child, rng)
}

/// [`TopologyBuilder::random`].
fn random(builder: &TopologyBuilder, rng: &mut impl Rng) -> Result<Topology, BuildTopologyError> {
    let n = builder.dims.tiles();
    let budget = builder.planar_budget + builder.vertical_budget;
    if budget < n - 1 {
        return Err(BuildTopologyError::BudgetTooSmall { needed: n - 1, available: budget });
    }
    for _attempt in 0..32 {
        let mut pool: Vec<Link> =
            builder.planar_pool().iter().chain(builder.vertical_pool().iter()).copied().collect();
        pool.shuffle(rng);
        if let Some(t) = try_assemble(builder, &pool, rng) {
            return Ok(t);
        }
    }
    Err(BuildTopologyError::ConstructionFailed)
}

/// [`TopologyBuilder::from_preferred`].
fn from_preferred(
    builder: &TopologyBuilder,
    preferred: &[Link],
    rng: &mut impl Rng,
) -> Result<Topology, BuildTopologyError> {
    let mut pref = preferred.to_vec();
    pref.shuffle(rng);
    for _attempt in 0..32 {
        if let Some(t) = try_assemble(builder, &pref, rng) {
            return Ok(t);
        }
        pref.shuffle(rng);
    }
    Err(BuildTopologyError::ConstructionFailed)
}

fn try_assemble(
    builder: &TopologyBuilder,
    ordered: &[Link],
    rng: &mut impl Rng,
) -> Option<Topology> {
    let dims = builder.dims;
    let n = dims.tiles();
    let mut st = Assembly {
        dims,
        max_degree: builder.max_degree,
        uf: UnionFind::new(n),
        degree: vec![0usize; n],
        planar_left: builder.planar_budget,
        vertical_left: builder.vertical_budget,
        chosen: Vec::with_capacity(builder.planar_budget + builder.vertical_budget),
        chosen_set: HashSet::new(),
    };

    // Phase 0: vertical links, preferred first.
    for &link in ordered.iter().filter(|l| l.kind(&dims) == LinkKind::Vertical) {
        if st.vertical_left == 0 {
            break;
        }
        st.admit(link, false);
    }
    if st.vertical_left > 0 {
        let mut pool = builder.vertical_pool().to_vec();
        pool.shuffle(rng);
        for link in pool {
            if st.vertical_left == 0 {
                break;
            }
            st.admit(link, false);
        }
    }
    if st.vertical_left > 0 {
        return None;
    }

    // Phase 1: spanning structure from the ordered pool, then the full
    // planar pool.
    for &link in ordered {
        if st.uf.components() == 1 {
            break;
        }
        st.admit(link, true);
    }
    if st.uf.components() != 1 {
        let mut pool = builder.planar_pool().to_vec();
        pool.shuffle(rng);
        for link in pool {
            if st.uf.components() == 1 {
                break;
            }
            st.admit(link, true);
        }
    }
    if st.uf.components() != 1 {
        return None;
    }

    // Phase 2: budget fill — preferred pool first, then everything.
    for &link in ordered {
        if st.planar_left == 0 {
            break;
        }
        st.admit(link, false);
    }
    if st.planar_left > 0 {
        let mut pool = builder.planar_pool().to_vec();
        pool.shuffle(rng);
        for link in pool {
            if st.planar_left == 0 {
                break;
            }
            st.admit(link, false);
        }
    }
    if st.planar_left > 0 {
        return None;
    }
    Some(from_links(&dims, st.chosen))
}

struct Assembly {
    dims: GridDims,
    max_degree: usize,
    uf: UnionFind,
    degree: Vec<usize>,
    planar_left: usize,
    vertical_left: usize,
    chosen: Vec<Link>,
    chosen_set: HashSet<Link>,
}

impl Assembly {
    fn admit(&mut self, link: Link, spanning_only: bool) -> bool {
        if self.chosen_set.contains(&link) {
            return false;
        }
        let budget = match link.kind(&self.dims) {
            LinkKind::Planar => &mut self.planar_left,
            LinkKind::Vertical => &mut self.vertical_left,
        };
        if *budget == 0 {
            return false;
        }
        if self.degree[link.a().0] >= self.max_degree || self.degree[link.b().0] >= self.max_degree
        {
            return false;
        }
        if spanning_only && self.uf.find(link.a().0) == self.uf.find(link.b().0) {
            return false;
        }
        let budget = match link.kind(&self.dims) {
            LinkKind::Planar => &mut self.planar_left,
            LinkKind::Vertical => &mut self.vertical_left,
        };
        *budget -= 1;
        self.uf.union(link.a().0, link.b().0);
        self.degree[link.a().0] += 1;
        self.degree[link.b().0] += 1;
        self.chosen_set.insert(link);
        self.chosen.push(link);
        true
    }
}

/// A builder for grid `g`: 0 = the paper's 4×4×4 at its budgets, 1 =
/// 2×2×2, 2 = a 3×3 single layer, 3 = a 5×1 line, 4 = 5×5×3 (more than
/// 64 tiles), each at its mesh budgets, and 5 = the paper grid with 110
/// planar links and 48 TSVs under a degree cap of 5, where some assembly
/// attempts fail and retry with a new shuffle.
fn grid(g: u8) -> (GridDims, TopologyBuilder) {
    let dims = match g {
        0 | 5 => GridDims::paper(),
        1 => GridDims::new(2, 2, 2),
        2 => GridDims::new(3, 3, 1),
        3 => GridDims::new(5, 1, 1),
        _ => GridDims::new(5, 5, 3),
    };
    let (nx, ny, layers) = (dims.nx(), dims.ny(), dims.layers());
    let planar = layers * (nx * (ny - 1) + ny * (nx - 1));
    let tsvs = nx * ny * (layers - 1);
    let builder = match g {
        0 => TopologyBuilder::new(dims, 96, 48, 5, 7),
        5 => TopologyBuilder::new(dims, 110, 48, 5, 5),
        _ => TopologyBuilder::new(dims, planar, tsvs, 5, 7),
    };
    (dims, builder)
}

/// A placement mix that fits every grid of [`grid`].
fn mix(dims: &GridDims) -> PeMix {
    PeMix::new(1, dims.tiles() - 2, 1)
}

/// A parent: `pick` 0 is the mesh, anything else a random topology (the
/// mesh only where the builder's budgets are the mesh's).
fn parent(dims: &GridDims, builder: &TopologyBuilder, pick: u8, rng: &mut StdRng) -> Design {
    let placement = Placement::random(dims, mix(dims), rng);
    let mesh = Topology::mesh(dims);
    let mesh_fits = mesh.link_count() == builder.planar_budget + builder.vertical_budget;
    let topology = if pick == 0 && mesh_fits {
        mesh
    } else {
        builder.random(rng).expect("the test grids build")
    };
    Design::new(placement, topology)
}

fn assert_same_topology(got: &Topology, want: &Topology, dims: &GridDims, what: &str) {
    assert_eq!(got.links(), want.links(), "{what}: links");
    for t in dims.tile_ids() {
        assert_eq!(got.neighbors(t), want.neighbors(t), "{what}: adjacency of {t}");
    }
    assert_eq!(got.fingerprint(), want.fingerprint(), "{what}: fingerprint");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crossover of two random parents, of a parent with itself, and of
    /// the mesh with a random parent, chained over a few generations.
    #[test]
    fn crossover_matches_the_oracle(
        seed in 0u64..10_000,
        g in 0u8..6,
        pick_a in 0u8..3,
        pick_b in 0u8..4,
        generations in 1usize..4,
    ) {
        let (dims, builder) = grid(g);
        let (mix, cap) = (mix(&dims), builder.max_degree);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = parent(&dims, &builder, pick_a, &mut rng);
        // pick_b 3 mates A with itself.
        let mut b = if pick_b == 3 { a.clone() } else { parent(&dims, &builder, pick_b, &mut rng) };
        for generation in 0..generations {
            let mut ours = StdRng::seed_from_u64(seed ^ generation as u64);
            let mut theirs = ours.clone();
            let got = crate::crossover::crossover(&dims, mix, &builder, cap, &a, &b, &mut ours);
            let want = crossover(&dims, mix, &builder, cap, &a, &b, &mut theirs);
            let what = format!("generation {generation}");
            assert_same_topology(&got.topology, &want.topology, &dims, &what);
            prop_assert_eq!(got.placement.pe_of(), want.placement.pe_of());
            prop_assert_eq!(ours.next_u64(), theirs.next_u64());
            b = a;
            a = got;
        }
    }

    /// Assembly from an arbitrary preferred pool (a random subset of the
    /// candidates, in random order, possibly too small to fill the
    /// budgets), and fresh random topologies.
    #[test]
    fn assembly_matches_the_oracle(seed in 0u64..10_000, g in 0u8..6, keep in 0.0f64..1.0) {
        let (dims, builder) = grid(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut preferred: Vec<Link> = builder
            .planar_pool()
            .iter()
            .chain(builder.vertical_pool())
            .copied()
            .filter(|_| rng.gen_bool(keep))
            .collect();
        preferred.shuffle(&mut rng);
        let mut ours = rng.clone();
        let got = builder.from_preferred(&preferred, &mut ours);
        let want = from_preferred(&builder, &preferred, &mut rng);
        match (&got, &want) {
            (Ok(got), Ok(want)) => assert_same_topology(got, want, &dims, "from_preferred"),
            _ => prop_assert_eq!(got.is_ok(), want.is_ok()),
        }
        prop_assert_eq!(ours.next_u64(), rng.next_u64());

        let got = builder.random(&mut ours).expect("the test grids build");
        let want = random(&builder, &mut rng).expect("the test grids build");
        assert_same_topology(&got, &want, &dims, "random");
        prop_assert_eq!(ours.next_u64(), rng.next_u64());

        let rebuilt = Topology::from_links(&dims, got.links().to_vec());
        assert_same_topology(&rebuilt, &from_links(&dims, got.links().to_vec()), &dims, "from_links");
    }
}
