//! An independent oracle for the exact hypervolume.
//!
//! Every PHV figure the workspace reports goes through the WFG code in
//! `hypervolume.rs`. This test holds it to a brute-force definition that
//! shares no code with it: by inclusion–exclusion, the volume dominated by
//! points `p_1 … p_n` inside the reference box is
//!
//! ```text
//! Σ over non-empty subsets S of (−1)^(|S|+1) · Π_j max(0, r_j − max_{i∈S} p_ij)
//! ```
//!
//! because the intersection of the boxes `[p_i, r]` over `S` is the box
//! from their componentwise maximum to `r`. That is 2^n − 1 terms, so the
//! oracle runs only on at most 12 points, in 2 to 5 dimensions.

use moela_moo::hypervolume::hypervolume;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inclusion–exclusion over every non-empty subset of `points`, summed
/// with Neumaier compensation so the alternating terms cancel cleanly.
fn brute_force_hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    assert!(points.len() <= 16, "2^n subsets: keep n small");
    let (mut sum, mut compensation) = (0.0f64, 0.0f64);
    for mask in 1u32..(1 << points.len()) {
        let volume: f64 = (0..reference.len())
            .map(|j| {
                let corner = (0..points.len())
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| points[i][j])
                    .fold(f64::NEG_INFINITY, f64::max);
                (reference[j] - corner).max(0.0)
            })
            .product();
        let term = if mask.count_ones() % 2 == 1 { volume } else { -volume };
        let next = sum + term;
        compensation +=
            if sum.abs() >= term.abs() { (sum - next) + term } else { (term - next) + sum };
        sum = next;
    }
    sum + compensation
}

/// A point set that mixes continuous coordinates with coordinates on a
/// coarse grid, so ties, duplicates, shared faces and points on or past
/// the reference boundary all occur, next to points in general position.
#[derive(Clone, Debug)]
struct PointSet;

impl Strategy for PointSet {
    type Value = (Vec<Vec<f64>>, Vec<f64>);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let d = rng.gen_range(2..=5usize);
        let n = rng.gen_range(0..=12usize);
        let coordinate = |rng: &mut StdRng| {
            if rng.gen_bool(0.4) {
                f64::from(rng.gen_range(0..=5u32)) / 4.0
            } else {
                rng.gen_range(0.0..1.25)
            }
        };
        let points = (0..n).map(|_| (0..d).map(|_| coordinate(rng)).collect()).collect();
        let reference = (0..d).map(|_| rng.gen_range(1.0..1.3)).collect();
        (points, reference)
    }
}

fn assert_matches_oracle(points: &[Vec<f64>], reference: &[f64]) {
    let exact = hypervolume(points, reference);
    let oracle = brute_force_hypervolume(points, reference);
    assert!(
        (exact - oracle).abs() <= 1e-9 * oracle.abs(),
        "hypervolume {exact} vs inclusion–exclusion {oracle} on {points:?} / {reference:?}"
    );
}

#[test]
fn the_oracle_agrees_with_hand_computed_volumes() {
    let reference = [1.0, 1.0];
    assert_eq!(brute_force_hypervolume(&[], &reference), 0.0);
    assert_eq!(brute_force_hypervolume(&[vec![0.0, 0.0]], &reference), 1.0);
    let staircase = [vec![0.25, 0.75], vec![0.75, 0.25]];
    assert_eq!(brute_force_hypervolume(&staircase, &reference), 0.3125);
    let cube = [vec![0.5, 0.5, 0.5], vec![0.5, 0.5, 0.5], vec![1.5, 0.0, 0.0]];
    assert_eq!(brute_force_hypervolume(&cube, &[1.0, 1.0, 1.0]), 0.125);
}

#[test]
fn twelve_points_in_five_dimensions_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(12);
    let points: Vec<Vec<f64>> =
        (0..12).map(|_| (0..5).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
    assert_matches_oracle(&points, &[1.0; 5]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exact_hypervolume_matches_inclusion_exclusion(case in PointSet) {
        let (points, reference) = case;
        assert_matches_oracle(&points, &reference);
    }
}
