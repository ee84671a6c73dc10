//! The genetic recombination operator on designs.
//!
//! The paper's EA step generates an offspring from two parent designs with
//! "a genetic operator (GO) \[that\] aims to create offsprings that contain
//! the best attributes of both parents". Our operator recombines both
//! halves of the encoding:
//!
//! * **placement** — a permutation-safe uniform crossover: starting from
//!   parent A's placement, each tile adopts parent B's PE with probability
//!   ½ by swapping it into place, skipping swaps that would push an LLC off
//!   the die edge;
//! * **topology** — a connectivity-first reassembly from the *union* of the
//!   parents' link sets (links common to both parents are very likely to
//!   survive), topped up from the global candidate pool when the union
//!   cannot fill the budgets. The union lists A's links in order, then B's
//!   other links in ascending [`crate::link::Link`] order; the builder
//!   computes it on its link-set bitsets.

use rand::Rng;

use moela_traffic::PeMix;

use crate::design::{Design, Placement};
use crate::geometry::GridDims;
use crate::moves;
use crate::topology::TopologyBuilder;

/// Recombines two parent designs into one feasible offspring, followed by
/// a light mutation (one [`moves::random_move`]) to keep diversity.
pub fn crossover(
    dims: &GridDims,
    mix: PeMix,
    builder: &TopologyBuilder,
    max_degree: usize,
    a: &Design,
    b: &Design,
    rng: &mut impl Rng,
) -> Design {
    let placement = placement_crossover(dims, mix, &a.placement, &b.placement, rng);
    let topology = builder
        .assemble_union(a.topology.links(), b.topology.links(), rng)
        .unwrap_or_else(|_| a.topology.clone());
    let child = Design::new(placement, topology);
    moves::random_move(dims, mix, builder, max_degree, child, rng)
}

/// Permutation-preserving placement crossover (see the module docs).
pub fn placement_crossover(
    dims: &GridDims,
    mix: PeMix,
    a: &Placement,
    b: &Placement,
    rng: &mut impl Rng,
) -> Placement {
    let mut child = a.clone();
    for t in dims.tile_ids() {
        if !rng.gen_bool(0.5) {
            continue;
        }
        let want = b.pe_at(t);
        if child.pe_at(t) == want {
            continue;
        }
        let from = child.tile_of(want);
        if child.swap_is_feasible(dims, mix, t, from) {
            child.swap(t, from);
        }
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use moela_traffic::PeKind;
    use rand::SeedableRng;

    fn setup() -> (GridDims, PeMix, TopologyBuilder, Design, Design, rand::rngs::StdRng) {
        let dims = GridDims::paper();
        let mix = PeMix::paper();
        let builder = TopologyBuilder::new(dims, 96, 48, 5, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let a = Design::new(
            Placement::random(&dims, mix, &mut rng),
            builder.random(&mut rng).expect("builds"),
        );
        let b = Design::new(
            Placement::random(&dims, mix, &mut rng),
            builder.random(&mut rng).expect("builds"),
        );
        (dims, mix, builder, a, b, rng)
    }

    #[test]
    fn offspring_are_always_feasible() {
        let (dims, mix, builder, a, b, mut rng) = setup();
        for _ in 0..20 {
            let c = crossover(&dims, mix, &builder, 7, &a, &b, &mut rng);
            c.validate(&dims, mix, 96, 48, 5, 7).expect("feasible");
        }
    }

    #[test]
    fn placement_crossover_yields_a_permutation() {
        let (dims, mix, _, a, b, mut rng) = setup();
        let child = placement_crossover(&dims, mix, &a.placement, &b.placement, &mut rng);
        let mut sorted = child.pe_of().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..dims.tiles()).collect::<Vec<_>>());
        for pe in mix.ids_of(PeKind::Llc) {
            assert!(dims.is_edge(child.tile_of(pe)));
        }
    }

    #[test]
    fn offspring_inherit_tiles_from_both_parents() {
        let (dims, mix, _, a, b, mut rng) = setup();
        let child = placement_crossover(&dims, mix, &a.placement, &b.placement, &mut rng);
        let from_a = dims.tile_ids().filter(|&t| child.pe_at(t) == a.placement.pe_at(t)).count();
        let from_b = dims.tile_ids().filter(|&t| child.pe_at(t) == b.placement.pe_at(t)).count();
        assert!(from_a > 0, "no inheritance from parent A");
        assert!(from_b > 0, "no inheritance from parent B");
    }

    #[test]
    fn links_common_to_both_parents_mostly_survive() {
        let (dims, mix, builder, a, b, mut rng) = setup();
        let a_set: std::collections::HashSet<Link> = a.topology.links().iter().copied().collect();
        let common: Vec<Link> =
            b.topology.links().iter().filter(|l| a_set.contains(l)).copied().collect();
        let child = crossover(&dims, mix, &builder, 7, &a, &b, &mut rng);
        let child_set: std::collections::HashSet<Link> =
            child.topology.links().iter().copied().collect();
        let kept = common.iter().filter(|l| child_set.contains(l)).count();
        assert!(
            kept as f64 >= 0.5 * common.len() as f64,
            "kept {kept} of {} common links",
            common.len()
        );
    }

    #[test]
    fn crossover_of_identical_parents_stays_close() {
        let (dims, mix, builder, a, _, mut rng) = setup();
        let c = crossover(&dims, mix, &builder, 7, &a, &a, &mut rng);
        // Placement crossover of A with A is a no-op; only the trailing
        // mutation and topology reshuffle may differ.
        let placement_diffs =
            a.placement.pe_of().iter().zip(c.placement.pe_of()).filter(|(x, y)| x != y).count();
        assert!(placement_diffs <= 2, "at most the mutation's swap");
    }
}
