//! System-size scaling study (extension).
//!
//! The paper motivates MOELA partly by the claim (§II.B) that prior
//! ML-guided searches' "solution quality … deteriorates as we scale up
//! system size and the number of objectives". This binary measures it:
//! MOELA, MOEA/D and MOOS at a fixed evaluation budget on three platforms
//! of increasing size, reporting final PHV per algorithm and the gain of
//! MOELA over each baseline.
//!
//! Run with:
//! `cargo run -p moela-bench --release --bin scaling [-- --budget N --seeds a,b]`
//!
//! It also reads `--population` and `--paper-scale`, and refuses any other
//! flag (exit 2).

use moela_bench::{build_cell, mean, HarnessConfig, COMPARED};
use moela_manycore::{ObjectiveSet, PlatformConfig};
use moela_moo::hypervolume::hv_gain;
use moela_traffic::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The platforms under test: label, then nx, ny, layers, CPUs, LLCs,
/// planar links and TSVs.
const PLATFORMS: [(&str, [usize; 7]); 3] = [
    ("4x4x4 (64 tiles, paper)", [4, 4, 4, 8, 16, 96, 48]),
    ("6x6x3 (108 tiles)", [6, 6, 3, 12, 24, 180, 72]),
    ("8x8x2 (128 tiles)", [8, 8, 2, 16, 32, 224, 64]),
];

fn main() {
    // The study fixes its app, so `--apps` and `--simulate` are refused.
    let cfg = HarnessConfig::default().with_args(&[
        "--budget",
        "--population",
        "--seeds",
        "--paper-scale",
    ]);
    let app = Benchmark::Hot;
    println!(
        "scaling study — final PHV on {app}, 5 objectives, budget {} evals, seeds {:?}\n",
        cfg.budget, cfg.seeds
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>14} {:>12}",
        "platform", "MOELA", "MOEA/D", "MOOS", "vs MOEA/D", "vs MOOS"
    );

    let rows = moela_bench::parallel_map(PLATFORMS.to_vec(), |entry| {
        let (label, [nx, ny, layers, cpus, llcs, planar, tsvs]) = entry;
        let mut phv = [Vec::new(), Vec::new(), Vec::new()];
        for &seed in &cfg.seeds {
            let platform = PlatformConfig::builder()
                .dims(nx, ny, layers)
                .cpus(cpus)
                .llcs(llcs)
                .planar_links(planar)
                .tsvs(tsvs)
                .build()
                .expect("scaling platforms are feasible");
            let cell = build_cell(platform, app, ObjectiveSet::Five, seed);
            for (slot, (algo, _)) in COMPARED.into_iter().enumerate() {
                let settings = cfg.settings(algo, &cell);
                let out = settings.run(&cell.problem, &mut StdRng::seed_from_u64(seed));
                phv[slot].push(out.phv(&cell.normalizer));
            }
        }
        (label, phv.map(|v| mean(&v)))
    });

    for (label, [moela, moead, moos]) in rows {
        println!(
            "{:<26} {:>10.4} {:>10.4} {:>10.4} {:>13.1}% {:>11.1}%",
            label,
            moela,
            moead,
            moos,
            hv_gain(moela, moead) * 100.0,
            hv_gain(moela, moos) * 100.0
        );
    }
    println!("\npaper's claim (§II.B): the ML-guided local-search baselines degrade");
    println!("with system size; MOELA's hybrid loop should hold its advantage.");
}
