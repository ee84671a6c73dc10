//! NoC topologies: link sets with adjacency, connectivity and degree
//! checking, and constrained random construction.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::geometry::{GridDims, TileCoord, TileId};
use crate::link::{planar_candidates, vertical_candidates, Link, LinkKind};

#[cfg(test)]
mod reference;

/// A topology: an undirected link set over the tiles of a grid, with
/// adjacency lists for traversal.
///
/// Invariants maintained by every constructor and mutator:
/// * no duplicate links;
/// * every link is feasible (planar length bound, TSV adjacency);
/// * no router exceeds the degree bound **when built through
///   [`TopologyBuilder`] or mutated with the degree-checked methods**.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    links: Vec<Link>,
    /// adjacency[tile] = (neighbor tile, index into `links`).
    adjacency: Vec<Vec<(TileId, usize)>>,
    /// Order-independent hash of the link *set* (see [`Topology::fingerprint`]).
    fingerprint: u64,
}

/// Finalizer of splitmix64: a cheap, well-mixing 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of one link. Links are stored with `a < b`, so the packing is
/// canonical per undirected tile pair.
fn link_hash(link: Link) -> u64 {
    splitmix64(((link.a().0 as u64) << 32) | link.b().0 as u64)
}

impl Topology {
    /// Builds a topology from a link list.
    ///
    /// # Panics
    ///
    /// Panics if the list contains duplicates or an endpoint outside the
    /// grid.
    pub fn from_links(dims: &GridDims, links: Vec<Link>) -> Self {
        let n = dims.tiles();
        // Duplicates are caught on a bitset keyed by the tile pair.
        let mut seen = LinkSet::new(n * n);
        let mut degree = vec![0usize; n];
        for link in &links {
            assert!(link.b().0 < n, "link endpoint {} outside the grid", link.b());
            assert!(seen.insert(link.a().0 * n + link.b().0), "duplicate links in topology");
            degree[link.a().0] += 1;
            degree[link.b().0] += 1;
        }
        let mut adjacency: Vec<Vec<(TileId, usize)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for (idx, link) in links.iter().enumerate() {
            adjacency[link.a().0].push((link.b(), idx));
            adjacency[link.b().0].push((link.a(), idx));
        }
        let fingerprint = links.iter().fold(0u64, |acc, &l| acc ^ link_hash(l));
        Self { links, adjacency, fingerprint }
    }

    /// The canonical 3D-mesh topology: all unit-length planar neighbors
    /// plus every TSV position — the paper's link-budget reference.
    pub fn mesh(dims: &GridDims) -> Self {
        let mut links = Vec::new();
        for t in dims.tile_ids() {
            let c = dims.coord(t);
            if c.x + 1 < dims.nx() {
                links.push(Link::new(t, dims.tile(TileCoord { x: c.x + 1, ..c })));
            }
            if c.y + 1 < dims.ny() {
                links.push(Link::new(t, dims.tile(TileCoord { y: c.y + 1, ..c })));
            }
            if c.z + 1 < dims.layers() {
                links.push(Link::new(t, dims.tile(TileCoord { z: c.z + 1, ..c })));
            }
        }
        Self::from_links(dims, links)
    }

    /// The links, in insertion order (the `k` index of eqs. (1)–(4)).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// An order-independent 64-bit hash of the link *set*: the XOR of a
    /// mixed per-link hash. Two topologies with the same links in any
    /// order share a fingerprint, so routing tables — which depend only
    /// on the link set — can be cached under it. Link *indices* (and
    /// therefore per-link arrays) still depend on insertion order, so
    /// cache consumers must verify `links()` equality on a hit before
    /// reusing index-addressed data.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of links of `kind`.
    pub fn count_kind(&self, dims: &GridDims, kind: LinkKind) -> usize {
        self.links.iter().filter(|l| l.kind(dims) == kind).count()
    }

    /// Degree (number of attached links) of `tile`'s router.
    pub fn degree(&self, tile: TileId) -> usize {
        self.adjacency[tile.0].len()
    }

    /// Maximum router degree in the topology.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Neighbors of `tile` with the connecting link index.
    pub fn neighbors(&self, tile: TileId) -> &[(TileId, usize)] {
        &self.adjacency[tile.0]
    }

    /// `true` if the topology already contains `link`.
    pub fn contains(&self, link: Link) -> bool {
        self.adjacency[link.a().0].iter().any(|&(nb, _)| nb == link.b())
    }

    /// `true` if every tile can reach every other tile.
    pub fn is_connected(&self) -> bool {
        let n = self.adjacency.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(t) = stack.pop() {
            for &(nb, _) in &self.adjacency[t] {
                if !seen[nb.0] {
                    seen[nb.0] = true;
                    count += 1;
                    stack.push(nb.0);
                }
            }
        }
        count == n
    }

    /// `true` if removing `link_idx` would disconnect the network (i.e.
    /// the link is a bridge).
    ///
    /// # Panics
    ///
    /// Panics if `link_idx` is out of range.
    pub fn is_bridge(&self, link_idx: usize) -> bool {
        let link = self.links[link_idx];
        // BFS from link.a avoiding the link; if link.b is unreachable the
        // link is a bridge.
        let mut seen = vec![false; self.adjacency.len()];
        let mut stack = vec![link.a().0];
        seen[link.a().0] = true;
        while let Some(t) = stack.pop() {
            for &(nb, idx) in &self.adjacency[t] {
                if idx == link_idx || seen[nb.0] {
                    continue;
                }
                if nb == link.b() {
                    return false;
                }
                seen[nb.0] = true;
                stack.push(nb.0);
            }
        }
        true
    }

    /// Replaces the link at `link_idx` with `new_link`, rebuilding
    /// adjacency. The caller is responsible for feasibility/degree checks
    /// (see [`crate::moves`] for the checked mutation operators).
    ///
    /// # Panics
    ///
    /// Panics if `new_link` already exists elsewhere in the topology.
    pub fn replace_link(&mut self, link_idx: usize, new_link: Link) {
        let old = self.links[link_idx];
        if old == new_link {
            return;
        }
        assert!(!self.contains(new_link), "topology already contains {new_link:?}");
        self.fingerprint ^= link_hash(old) ^ link_hash(new_link);
        self.adjacency[old.a().0].retain(|&(_, idx)| idx != link_idx);
        self.adjacency[old.b().0].retain(|&(_, idx)| idx != link_idx);
        self.links[link_idx] = new_link;
        self.adjacency[new_link.a().0].push((new_link.b(), link_idx));
        self.adjacency[new_link.b().0].push((new_link.a(), link_idx));
    }
}

/// A fixed-capacity set of small integer keys, one bit per key.
///
/// The builder keys a link by its index among its [`Candidates`], so a
/// topology's link set takes one bit per candidate (9 words on the paper
/// grid) and the set distance between two topologies is the popcount of
/// their XOR. [`Topology::from_links`], which has no builder, keys by the
/// tile pair instead.
struct LinkSet {
    words: Vec<u64>,
}

impl LinkSet {
    /// An empty set for keys `0..keys`.
    fn new(keys: usize) -> Self {
        Self { words: vec![0; keys.div_ceil(64)] }
    }

    /// Adds `key`; `false` if it was already present.
    fn insert(&mut self, key: usize) -> bool {
        let (word, bit) = (key / 64, 1u64 << (key % 64));
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    fn contains(&self, key: usize) -> bool {
        self.words[key / 64] & (1u64 << (key % 64)) != 0
    }

    /// The keys in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            std::iter::successors((word != 0).then_some(word), |&w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }
}

/// `true` if the feasible `link` is a TSV: a planar link joins two tiles
/// of one layer, less than a layer apart in id, while a TSV joins a tile
/// to the same position one layer up.
fn is_tsv(link: Link, tiles_per_layer: usize) -> bool {
    link.b().0 - link.a().0 == tiles_per_layer
}

/// Errors produced when a constrained topology cannot be built.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum BuildTopologyError {
    /// The link budgets cannot connect all tiles even in the best case.
    BudgetTooSmall {
        /// Links needed for a spanning tree.
        needed: usize,
        /// Total planar + vertical budget.
        available: usize,
    },
    /// Randomized construction failed repeatedly (degenerate constraint
    /// combination).
    ConstructionFailed,
}

impl std::fmt::Display for BuildTopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildTopologyError::BudgetTooSmall { needed, available } => {
                write!(f, "link budget {available} cannot span {needed}+1 tiles")
            }
            BuildTopologyError::ConstructionFailed => {
                write!(f, "randomized topology construction failed under the constraints")
            }
        }
    }
}

impl std::error::Error for BuildTopologyError {}

/// A builder's candidate links and their keys.
///
/// A link's key is its index in `links`: the planar and TSV pools merged
/// and sorted by [`Link`]. Ascending keys are therefore ascending links,
/// which is the order crossover appends the second parent's links in.
#[derive(Debug)]
struct Candidates {
    planar: Vec<Link>,
    vertical: Vec<Link>,
    /// Every candidate, ascending.
    links: Vec<Link>,
    /// `links[row[a]..row[a + 1]]` are the candidates whose lower
    /// endpoint is tile `a`, ascending in the upper one.
    row: Vec<u32>,
    /// The keys of `planar`, then of `vertical`, in pool order.
    pool_keys: Vec<u32>,
}

impl Candidates {
    fn new(dims: &GridDims, max_planar_length: usize) -> Self {
        let planar = planar_candidates(dims, max_planar_length);
        let vertical = vertical_candidates(dims);
        let mut links: Vec<Link> = planar.iter().chain(&vertical).copied().collect();
        links.sort_unstable();
        let mut row = Vec::with_capacity(dims.tiles() + 1);
        for a in 0..=dims.tiles() {
            row.push(links.partition_point(|l| l.a().0 < a) as u32);
        }
        let mut candidates = Self { planar, vertical, links, row, pool_keys: Vec::new() };
        candidates.pool_keys = (candidates.planar.iter().chain(&candidates.vertical))
            .map(|&l| candidates.key(l).expect("every pool link is a candidate"))
            .collect();
        candidates
    }

    /// The key of `link`, or `None` if it is not a candidate.
    fn key(&self, link: Link) -> Option<u32> {
        let a = link.a().0;
        let (start, end) = (*self.row.get(a)?, *self.row.get(a + 1)?);
        let row = &self.links[start as usize..end as usize];
        let offset = row.binary_search_by_key(&link.b(), Link::b).ok()?;
        Some(start + offset as u32)
    }

    fn planar_keys(&self) -> &[u32] {
        &self.pool_keys[..self.planar.len()]
    }

    fn vertical_keys(&self) -> &[u32] {
        &self.pool_keys[self.planar.len()..]
    }
}

/// Constrained random-topology construction.
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    dims: GridDims,
    planar_budget: usize,
    vertical_budget: usize,
    max_planar_length: usize,
    max_degree: usize,
    /// Shared by clones: every `ManycoreProblem` clone carries a builder.
    candidates: Arc<Candidates>,
}

impl TopologyBuilder {
    /// A builder for `dims` with the given link budgets and §III bounds.
    pub fn new(
        dims: GridDims,
        planar_budget: usize,
        vertical_budget: usize,
        max_planar_length: usize,
        max_degree: usize,
    ) -> Self {
        Self {
            dims,
            planar_budget,
            vertical_budget,
            max_planar_length,
            max_degree,
            candidates: Arc::new(Candidates::new(&dims, max_planar_length)),
        }
    }

    /// The feasible planar candidates.
    pub fn planar_pool(&self) -> &[Link] {
        &self.candidates.planar
    }

    /// The planar length bound this builder enforces.
    pub fn max_planar_length(&self) -> usize {
        self.max_planar_length
    }

    /// The feasible TSV candidates.
    pub fn vertical_pool(&self) -> &[Link] {
        &self.candidates.vertical
    }

    /// Generates a random feasible topology: a randomized spanning
    /// structure first (guaranteeing connectivity), then random links until
    /// both budgets are exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTopologyError::BudgetTooSmall`] when budgets cannot
    /// span the grid, [`BuildTopologyError::ConstructionFailed`] when the
    /// constraint combination defeats repeated randomized attempts.
    pub fn random(&self, rng: &mut impl Rng) -> Result<Topology, BuildTopologyError> {
        let n = self.dims.tiles();
        let budget = self.planar_budget + self.vertical_budget;
        if budget < n - 1 {
            return Err(BuildTopologyError::BudgetTooSmall { needed: n - 1, available: budget });
        }
        for _attempt in 0..32 {
            // The pool in planar-then-TSV order, shuffled: the same draws
            // and the same permutation as shuffling the links themselves.
            let mut pool = self.candidates.pool_keys.clone();
            pool.shuffle(rng);
            if let Some(t) = self.try_assemble(&pool, rng) {
                return Ok(t);
            }
        }
        Err(BuildTopologyError::ConstructionFailed)
    }

    /// Builds a connectivity-preserving topology from a preferred link pool
    /// (crossover assembles the union of two parents' links this way),
    /// topping up from the full candidate pools if the preferred pool
    /// cannot fill the budgets. Every preferred link must be one of the
    /// builder's candidates: debug builds assert it, release builds skip
    /// any other.
    pub fn from_preferred(
        &self,
        preferred: &[Link],
        rng: &mut impl Rng,
    ) -> Result<Topology, BuildTopologyError> {
        let keys = preferred.iter().filter_map(|&link| self.key(link)).collect();
        self.assemble_preferred(keys, rng)
    }

    /// [`Self::from_preferred`] on the union of two parents' links: `a` in
    /// order, then the links of `b` not in `a` in ascending [`Link`] order.
    pub(crate) fn assemble_union(
        &self,
        a: &[Link],
        b: &[Link],
        rng: &mut impl Rng,
    ) -> Result<Topology, BuildTopologyError> {
        let cand = &self.candidates;
        let mut in_a = LinkSet::new(cand.links.len());
        let mut union = Vec::with_capacity(a.len() + b.len());
        for key in a.iter().filter_map(|&link| self.key(link)) {
            in_a.insert(key as usize);
            union.push(key);
        }
        let mut b_only = LinkSet::new(cand.links.len());
        for key in b.iter().filter_map(|&link| self.key(link)) {
            if !in_a.contains(key as usize) {
                b_only.insert(key as usize);
            }
        }
        union.extend(b_only.iter().map(|key| key as u32));
        self.assemble_preferred(union, rng)
    }

    /// The key of a link taken from a design. Every design link comes from
    /// the pools (the builder made it, or the codec validated it), so a
    /// miss is a bug; release builds drop the link.
    fn key(&self, link: Link) -> Option<u32> {
        let key = self.candidates.key(link);
        debug_assert!(key.is_some(), "{link:?} is not a candidate link of this builder");
        key
    }

    fn assemble_preferred(
        &self,
        mut pref: Vec<u32>,
        rng: &mut impl Rng,
    ) -> Result<Topology, BuildTopologyError> {
        pref.shuffle(rng);
        for _attempt in 0..32 {
            if let Some(t) = self.try_assemble(&pref, rng) {
                return Ok(t);
            }
            pref.shuffle(rng);
        }
        Err(BuildTopologyError::ConstructionFailed)
    }

    /// Assembly from `ordered` candidate keys (already shuffled): TSVs
    /// first (their budget may require every candidate, so planar links
    /// must not steal router degree beforehand), then a Kruskal-style
    /// planar spanning phase, then budget fill — preferring `ordered`,
    /// topping up from the full pools.
    fn try_assemble(&self, ordered: &[u32], rng: &mut impl Rng) -> Option<Topology> {
        let n = self.dims.tiles();
        let cand = &self.candidates;
        let tiles_per_layer = self.dims.tiles_per_layer();
        let mut st = Assembly {
            candidates: &cand.links,
            tiles_per_layer,
            max_degree: self.max_degree,
            uf: UnionFind::new(n),
            degree: vec![0usize; n],
            planar_left: self.planar_budget,
            vertical_left: self.vertical_budget,
            chosen: Vec::with_capacity(self.planar_budget + self.vertical_budget),
            chosen_set: LinkSet::new(cand.links.len()),
        };

        // Phase 0: vertical links, preferred first.
        for &key in ordered.iter().filter(|&&key| is_tsv(cand.links[key as usize], tiles_per_layer))
        {
            if st.vertical_left == 0 {
                break;
            }
            st.admit(key, false);
        }
        if st.vertical_left > 0 {
            let mut pool = cand.vertical_keys().to_vec();
            pool.shuffle(rng);
            for key in pool {
                if st.vertical_left == 0 {
                    break;
                }
                st.admit(key, false);
            }
        }
        if st.vertical_left > 0 {
            return None;
        }

        // Phase 1: spanning structure from the ordered pool, then the full
        // planar pool.
        for &key in ordered {
            if st.uf.components() == 1 {
                break;
            }
            st.admit(key, true);
        }
        if st.uf.components() != 1 {
            let mut pool = cand.planar_keys().to_vec();
            pool.shuffle(rng);
            for key in pool {
                if st.uf.components() == 1 {
                    break;
                }
                st.admit(key, true);
            }
        }
        if st.uf.components() != 1 {
            return None;
        }

        // Phase 2: budget fill — preferred pool first, then everything.
        for &key in ordered {
            if st.planar_left == 0 {
                break;
            }
            st.admit(key, false);
        }
        if st.planar_left > 0 {
            let mut pool = cand.planar_keys().to_vec();
            pool.shuffle(rng);
            for key in pool {
                if st.planar_left == 0 {
                    break;
                }
                st.admit(key, false);
            }
        }
        if st.planar_left > 0 {
            // Degree caps blocked full budget use; retry with a new shuffle.
            return None;
        }
        Some(Topology::from_links(&self.dims, st.chosen))
    }
}

/// Mutable state of one assembly attempt.
struct Assembly<'a> {
    /// The builder's candidates, indexed by key.
    candidates: &'a [Link],
    tiles_per_layer: usize,
    max_degree: usize,
    uf: UnionFind,
    degree: Vec<usize>,
    planar_left: usize,
    vertical_left: usize,
    chosen: Vec<Link>,
    chosen_set: LinkSet,
}

impl Assembly<'_> {
    fn admit(&mut self, key: u32, spanning_only: bool) -> bool {
        let key = key as usize;
        if self.chosen_set.contains(key) {
            return false;
        }
        let link = self.candidates[key];
        let budget = if is_tsv(link, self.tiles_per_layer) {
            &mut self.vertical_left
        } else {
            &mut self.planar_left
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
        *budget -= 1;
        self.uf.union(link.a().0, link.b().0);
        self.degree[link.a().0] += 1;
        self.degree[link.b().0] += 1;
        self.chosen_set.insert(key);
        self.chosen.push(link);
        true
    }
}

#[derive(Clone, Debug)]
struct UnionFind {
    parent: Vec<usize>,
    components: usize,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), components: n }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
            self.components -= 1;
        }
    }

    fn components(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    fn paper_builder() -> TopologyBuilder {
        TopologyBuilder::new(GridDims::paper(), 96, 48, 5, 7)
    }

    #[test]
    fn mesh_uses_exactly_the_paper_budget() {
        let g = GridDims::paper();
        let mesh = Topology::mesh(&g);
        assert_eq!(mesh.count_kind(&g, LinkKind::Planar), 96);
        assert_eq!(mesh.count_kind(&g, LinkKind::Vertical), 48);
        assert!(mesh.is_connected());
        assert!(mesh.max_degree() <= 7);
    }

    #[test]
    fn random_topologies_satisfy_every_constraint() {
        let b = paper_builder();
        let g = GridDims::paper();
        let mut r = rng();
        for _ in 0..10 {
            let t = b.random(&mut r).expect("paper budgets are generous");
            assert_eq!(t.count_kind(&g, LinkKind::Planar), 96);
            assert_eq!(t.count_kind(&g, LinkKind::Vertical), 48);
            assert!(t.is_connected());
            assert!(t.max_degree() <= 7, "degree {}", t.max_degree());
            for l in t.links() {
                assert!(l.is_feasible(&g, 5));
            }
            // No duplicates by construction.
            let mut set = t.links().to_vec();
            set.sort_unstable();
            set.dedup();
            assert_eq!(set.len(), t.link_count());
        }
    }

    #[test]
    fn random_topologies_differ_between_draws() {
        let b = paper_builder();
        let mut r = rng();
        let t1 = b.random(&mut r).expect("builds");
        let t2 = b.random(&mut r).expect("builds");
        assert_ne!(t1.links(), t2.links());
    }

    #[test]
    fn insufficient_budget_is_reported() {
        let b = TopologyBuilder::new(GridDims::paper(), 10, 10, 5, 7);
        match b.random(&mut rng()) {
            Err(BuildTopologyError::BudgetTooSmall { needed, available }) => {
                assert_eq!(needed, 63);
                assert_eq!(available, 20);
            }
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn bridge_detection_on_a_path() {
        let g = GridDims::new(3, 1, 1);
        let t = Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(2))],
        );
        assert!(t.is_bridge(0));
        assert!(t.is_bridge(1));
        let tri = Topology::from_links(
            &g,
            vec![
                Link::new(TileId(0), TileId(1)),
                Link::new(TileId(1), TileId(2)),
                Link::new(TileId(0), TileId(2)),
            ],
        );
        assert!(!tri.is_bridge(0));
        assert!(!tri.is_bridge(2));
    }

    #[test]
    fn replace_link_rewires_adjacency() {
        let g = GridDims::new(3, 1, 1);
        let mut t = Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(2))],
        );
        t.replace_link(0, Link::new(TileId(0), TileId(2)));
        assert!(t.contains(Link::new(TileId(0), TileId(2))));
        assert!(!t.contains(Link::new(TileId(0), TileId(1))));
        assert!(t.is_connected());
        assert_eq!(t.degree(TileId(1)), 1);
        assert_eq!(t.degree(TileId(2)), 2);
    }

    #[test]
    fn from_preferred_keeps_most_parent_links() {
        let b = paper_builder();
        let mut r = rng();
        let parent = b.random(&mut r).expect("builds");
        let child = b.from_preferred(parent.links(), &mut r).expect("builds");
        let parent_set: std::collections::HashSet<_> = parent.links().iter().collect();
        let kept = child.links().iter().filter(|l| parent_set.contains(l)).count();
        // The preferred pool covers the whole budget, so nearly all links
        // survive (degree-cap interactions may drop a few).
        assert!(kept as f64 >= 0.9 * child.link_count() as f64, "kept {kept}");
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let g = GridDims::new(3, 1, 1);
        let a = Link::new(TileId(0), TileId(1));
        let b = Link::new(TileId(1), TileId(2));
        let t1 = Topology::from_links(&g, vec![a, b]);
        let t2 = Topology::from_links(&g, vec![b, a]);
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        assert_ne!(t1.links(), t2.links(), "link order still differs");
    }

    #[test]
    fn fingerprint_distinguishes_different_link_sets() {
        let g = GridDims::new(3, 1, 1);
        let path = Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(2))],
        );
        let other = Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(0), TileId(2))],
        );
        assert_ne!(path.fingerprint(), other.fingerprint());
    }

    #[test]
    fn replace_link_maintains_the_fingerprint_incrementally() {
        let g = GridDims::new(3, 1, 1);
        let mut t = Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(2))],
        );
        t.replace_link(0, Link::new(TileId(0), TileId(2)));
        let rebuilt = Topology::from_links(&g, t.links().to_vec());
        assert_eq!(t.fingerprint(), rebuilt.fingerprint());
        // Replacing back restores the original fingerprint (XOR involution).
        let original = Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(2))],
        );
        t.replace_link(0, Link::new(TileId(0), TileId(1)));
        assert_eq!(t.fingerprint(), original.fingerprint());
    }

    #[test]
    #[should_panic(expected = "duplicate links")]
    fn duplicate_links_panic() {
        let g = GridDims::new(2, 1, 1);
        Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(0))],
        );
    }
}
