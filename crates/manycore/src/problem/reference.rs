//! The design features as first written, kept as the oracle for
//! [`ManycoreProblem::features`] and [`super::design_features`], and the
//! differential harness that holds them to the same bits.
//!
//! [`design_features`] rebuilds `workload.flows()` on every call and
//! finds every tile's coordinates by division, link kinds and lengths
//! included. The production path reads the evaluator's cached flow list
//! and a tile-coordinate table built once per problem; it must reproduce
//! every feature bit on every design.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use moela_moo::Problem;
use moela_traffic::{Benchmark, PeKind, Workload};

use super::{ManycoreProblem, PlatformConfig};
use crate::design::Design;
use crate::geometry::TileId;
use crate::link::LinkKind;
use crate::objectives::ObjectiveSet;

/// The original feature builder, verbatim.
fn design_features(config: &PlatformConfig, workload: &Workload, d: &Design) -> Vec<f64> {
    let dims = &config.dims;
    let mix = config.pe_mix();
    let mut out = Vec::with_capacity(32);

    // 1. Per-kind coordinate mean/std (3 kinds × 6 values = 18).
    for kind in [PeKind::Cpu, PeKind::Gpu, PeKind::Llc] {
        let coords: Vec<(f64, f64, f64)> = mix
            .ids_of(kind)
            .map(|pe| {
                let c = dims.coord(d.placement.tile_of(pe));
                (c.x as f64, c.y as f64, c.z as f64)
            })
            .collect();
        let n = coords.len() as f64;
        let mean = coords
            .iter()
            .fold((0.0, 0.0, 0.0), |acc, c| (acc.0 + c.0 / n, acc.1 + c.1 / n, acc.2 + c.2 / n));
        let var = coords.iter().fold((0.0, 0.0, 0.0), |acc, c| {
            (
                acc.0 + (c.0 - mean.0).powi(2) / n,
                acc.1 + (c.1 - mean.1).powi(2) / n,
                acc.2 + (c.2 - mean.2).powi(2) / n,
            )
        });
        out.extend([mean.0, mean.1, mean.2, var.0.sqrt(), var.1.sqrt(), var.2.sqrt()]);
    }

    // 2. Planar link length mean/std (2).
    let lengths: Vec<f64> = d
        .topology
        .links()
        .iter()
        .filter(|l| l.kind(dims) == LinkKind::Planar)
        .map(|l| l.length(dims))
        .collect();
    let ln = lengths.len().max(1) as f64;
    let lmean = lengths.iter().sum::<f64>() / ln;
    let lvar = lengths.iter().map(|l| (l - lmean).powi(2)).sum::<f64>() / ln;
    out.extend([lmean, lvar.sqrt()]);

    // 3. Degree std/max (2) — the mean degree is budget-determined.
    let degrees: Vec<f64> = dims.tile_ids().map(|t| d.topology.degree(t) as f64).collect();
    let dmean = degrees.iter().sum::<f64>() / degrees.len() as f64;
    let dvar = degrees.iter().map(|x| (x - dmean).powi(2)).sum::<f64>() / degrees.len() as f64;
    out.extend([dvar.sqrt(), degrees.iter().fold(0.0f64, |a, &b| a.max(b))]);

    // 4. Planar links per layer, normalized (layers values).
    let mut per_layer = vec![0.0f64; dims.layers()];
    for l in d.topology.links() {
        if l.kind(dims) == LinkKind::Planar {
            per_layer[dims.coord(l.a()).z] += 1.0;
        }
    }
    let planar_total: f64 = per_layer.iter().sum::<f64>().max(1.0);
    out.extend(per_layer.iter().map(|v| v / planar_total));

    // 5. TSVs per layer gap, normalized (layers − 1 values).
    let mut per_gap = vec![0.0f64; dims.layers() - 1];
    for l in d.topology.links() {
        if l.kind(dims) == LinkKind::Vertical {
            per_gap[dims.coord(l.a()).z] += 1.0;
        }
    }
    let tsv_total: f64 = per_gap.iter().sum::<f64>().max(1.0);
    out.extend(per_gap.iter().map(|v| v / tsv_total));

    // 6. Traffic-weighted placement distance + class distances (3).
    let manhattan = |a: TileId, b: TileId| {
        let ca = dims.coord(a);
        let cb = dims.coord(b);
        (ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y) + ca.z.abs_diff(cb.z)) as f64
    };
    let mut weighted = 0.0;
    let mut flow_total = 0.0;
    for (i, j, f) in workload.flows() {
        weighted += f * manhattan(d.placement.tile_of(i), d.placement.tile_of(j));
        flow_total += f;
    }
    out.push(if flow_total > 0.0 { weighted / flow_total } else { 0.0 });
    let class_distance = |a: PeKind, b: PeKind| {
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in mix.ids_of(a) {
            for j in mix.ids_of(b) {
                sum += manhattan(d.placement.tile_of(i), d.placement.tile_of(j));
                count += 1;
            }
        }
        sum / count.max(1) as f64
    };
    out.push(class_distance(PeKind::Cpu, PeKind::Llc));
    out.push(class_distance(PeKind::Gpu, PeKind::Llc));

    out
}

/// The paper's 4×4×4 platform, or a non-cubic 3×5×2 one.
fn platform(paper: bool) -> PlatformConfig {
    if paper {
        PlatformConfig::paper()
    } else {
        PlatformConfig::builder().dims(3, 5, 2).cpus(4).llcs(6).build().expect("valid")
    }
}

/// The bits of both production paths and of the reference on `d`.
fn feature_bits(problem: &ManycoreProblem, d: &Design) -> [Vec<u64>; 3] {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    [
        bits(problem.features(d)),
        bits(super::design_features(problem.config(), problem.workload(), d)),
        bits(design_features(problem.config(), problem.workload(), d)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn features_match_the_reference_bit_for_bit(
        app in 0usize..7,
        paper in 0u32..2,
        workload_seed in 0u64..1 << 20,
        design_seed in 0u64..1 << 40,
    ) {
        let config = platform(paper == 1);
        let workload =
            Workload::synthesize(Benchmark::ALL[app], config.pe_mix(), workload_seed);
        let problem = ManycoreProblem::new(config, workload, ObjectiveSet::Three).expect("valid");
        let mut rng = StdRng::seed_from_u64(design_seed);
        let mut design = problem.random_solution(&mut rng);
        for step in 0..6 {
            let [fast, public, reference] = feature_bits(&problem, &design);
            prop_assert_eq!(fast.len(), problem.feature_len());
            prop_assert_eq!(&fast, &reference, "step {}", step);
            prop_assert_eq!(&public, &reference, "step {}", step);
            design = problem.neighbor(&design, &mut rng);
        }
    }
}

#[test]
fn every_app_and_both_platforms_match_the_reference() {
    for paper in [true, false] {
        for app in Benchmark::ALL {
            let config = platform(paper);
            let workload = Workload::synthesize(app, config.pe_mix(), 11);
            let problem =
                ManycoreProblem::new(config, workload, ObjectiveSet::Three).expect("valid");
            let mut rng = StdRng::seed_from_u64(3);
            let a = problem.random_solution(&mut rng);
            let b = problem.random_solution(&mut rng);
            let child = problem.crossover(&a, &b, &mut rng);
            for d in [&a, &b, &child] {
                let [fast, public, reference] = feature_bits(&problem, d);
                assert_eq!(fast, reference, "{app} on the paper grid: {paper}");
                assert_eq!(public, reference, "{app} on the paper grid: {paper}");
            }
        }
    }
}
