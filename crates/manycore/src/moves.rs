//! Feasibility-preserving mutation operators on designs.
//!
//! These are the "small changes" of every local search and the mutation
//! step of the EAs. Each operator takes a design by value and returns it
//! changed, still satisfying all §III constraints by construction; a
//! caller that keeps the original passes a clone:
//!
//! * [`swap_tiles`] — exchange the PEs of two tiles (LLC-edge checked);
//! * [`rewire_link`] — remove one non-bridge link and add a feasible link
//!   of the same class elsewhere (budget-, degree-, and
//!   connectivity-preserving);
//! * [`random_move`] — one of the above, chosen with placement/link balance
//!   `0.5/0.5`.

use rand::Rng;

use moela_traffic::PeMix;

use crate::design::Design;
use crate::geometry::{GridDims, TileId};
use crate::link::{Link, LinkKind};
use crate::topology::TopologyBuilder;

/// How many rejection-sampling attempts an operator makes before giving up
/// and returning the design unchanged (keeps operators total; the
/// probability of exhausting this on the paper platform is negligible).
const MAX_TRIES: usize = 64;

/// Swaps the PEs of two random tiles, respecting the LLC-edge constraint.
pub fn swap_tiles(dims: &GridDims, mix: PeMix, mut out: Design, rng: &mut impl Rng) -> Design {
    for _ in 0..MAX_TRIES {
        let a = TileId(rng.gen_range(0..dims.tiles()));
        let b = TileId(rng.gen_range(0..dims.tiles()));
        if a == b || out.placement.pe_at(a) == out.placement.pe_at(b) {
            continue;
        }
        if out.placement.swap_is_feasible(dims, mix, a, b) {
            out.placement.swap(a, b);
            return out;
        }
    }
    out
}

/// Removes one random non-bridge link and inserts a random feasible link of
/// the same class (so the per-class budgets stay exact). Degree bounds and
/// connectivity are preserved.
pub fn rewire_link(
    dims: &GridDims,
    builder: &TopologyBuilder,
    max_degree: usize,
    mut out: Design,
    rng: &mut impl Rng,
) -> Design {
    let link_count = out.topology.link_count();
    for _ in 0..MAX_TRIES {
        let victim_idx = rng.gen_range(0..link_count);
        if out.topology.is_bridge(victim_idx) {
            continue;
        }
        let victim = out.topology.links()[victim_idx];
        let kind = victim.kind(dims);
        let pool: &[Link] = match kind {
            LinkKind::Planar => builder.planar_pool(),
            LinkKind::Vertical => builder.vertical_pool(),
        };
        // Sample a replacement from the class pool.
        for _ in 0..MAX_TRIES {
            let candidate = pool[rng.gen_range(0..pool.len())];
            if candidate == victim || out.topology.contains(candidate) {
                continue;
            }
            // Degree check accounts for the victim's removal.
            let effective = |t: TileId| {
                let d = out.topology.degree(t);
                if t == victim.a() || t == victim.b() {
                    d - 1
                } else {
                    d
                }
            };
            if effective(candidate.a()) >= max_degree || effective(candidate.b()) >= max_degree {
                continue;
            }
            out.topology.replace_link(victim_idx, candidate);
            debug_assert!(out.topology.is_connected());
            return out;
        }
    }
    out
}

/// Applies one uniformly chosen mutation: a tile swap or a link rewire.
pub fn random_move(
    dims: &GridDims,
    mix: PeMix,
    builder: &TopologyBuilder,
    max_degree: usize,
    design: Design,
    rng: &mut impl Rng,
) -> Design {
    if rng.gen_bool(0.5) {
        swap_tiles(dims, mix, design, rng)
    } else {
        rewire_link(dims, builder, max_degree, design, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Placement;
    use rand::SeedableRng;

    fn setup() -> (GridDims, PeMix, TopologyBuilder, Design, rand::rngs::StdRng) {
        let dims = GridDims::paper();
        let mix = PeMix::paper();
        let builder = TopologyBuilder::new(dims, 96, 48, 5, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let design = Design::new(
            Placement::random(&dims, mix, &mut rng),
            builder.random(&mut rng).expect("builds"),
        );
        (dims, mix, builder, design, rng)
    }

    #[test]
    fn swap_preserves_feasibility_and_changes_exactly_two_tiles() {
        let (dims, mix, _, design, mut rng) = setup();
        for _ in 0..50 {
            let next = swap_tiles(&dims, mix, design.clone(), &mut rng);
            next.validate(&dims, mix, 96, 48, 5, 7).expect("feasible");
            let diffs = design
                .placement
                .pe_of()
                .iter()
                .zip(next.placement.pe_of())
                .filter(|(a, b)| a != b)
                .count();
            assert!(diffs == 2 || diffs == 0, "diffs {diffs}");
            assert_eq!(design.topology, next.topology, "swap must not touch links");
        }
    }

    #[test]
    fn rewire_preserves_budgets_degree_and_connectivity() {
        let (dims, mix, builder, design, mut rng) = setup();
        let mut current = design;
        for _ in 0..50 {
            let next = rewire_link(&dims, &builder, 7, current.clone(), &mut rng);
            next.validate(&dims, mix, 96, 48, 5, 7).expect("feasible");
            assert_eq!(current.placement, next.placement, "rewire must not move PEs");
            current = next;
        }
    }

    #[test]
    fn rewire_changes_at_most_one_link() {
        let (dims, _, builder, design, mut rng) = setup();
        let next = rewire_link(&dims, &builder, 7, design.clone(), &mut rng);
        let before: std::collections::HashSet<_> = design.topology.links().iter().collect();
        let after: std::collections::HashSet<_> = next.topology.links().iter().collect();
        assert!(before.difference(&after).count() <= 1);
        assert!(after.difference(&before).count() <= 1);
    }

    #[test]
    fn random_move_always_yields_feasible_designs() {
        let (dims, mix, builder, design, mut rng) = setup();
        let mut current = design;
        for _ in 0..100 {
            current = random_move(&dims, mix, &builder, 7, current, &mut rng);
            current.validate(&dims, mix, 96, 48, 5, 7).expect("feasible");
        }
    }

    #[test]
    fn moves_eventually_change_the_design() {
        let (dims, mix, builder, design, mut rng) = setup();
        let mut changed = false;
        let mut current = design.clone();
        for _ in 0..10 {
            current = random_move(&dims, mix, &builder, 7, current, &mut rng);
            if current != design {
                changed = true;
                break;
            }
        }
        assert!(changed, "ten random moves should not all be no-ops");
    }
}
