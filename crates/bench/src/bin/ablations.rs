//! Ablation study of MOELA's design choices (§IV.A of the paper plus the
//! knobs DESIGN.md calls out):
//!
//! * **ordering** — local-search-first (the paper's choice) vs EA-first;
//! * **ML guidance** — learned start selection vs always-random starts
//!   (`iter_early = ∞`);
//! * **`n_local`** — how many local searches run per iteration;
//! * **training-set cap** — the paper's 10 K cap vs a tiny 200-sample cap.
//!
//! Each variant runs on the same cell (app, 5 objectives, shared
//! normalizer and budget); the score is the final PHV.
//!
//! Run with:
//! `cargo run -p moela-bench --release --bin ablations [-- --budget N --seeds a,b --apps BFS,HOT]`
//!
//! It also reads `--population` and `--paper-scale`, and refuses any other
//! flag (exit 2).

use moela_bench::{build_cell, mean, HarnessConfig};
use moela_core::{Algorithm, Moela, MoelaConfigBuilder};
use moela_manycore::{ObjectiveSet, PlatformConfig};
use moela_traffic::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A variant's change to the optimizer table's MOELA configuration.
type Tweak = fn(MoelaConfigBuilder) -> MoelaConfigBuilder;

fn main() {
    // Ablations don't need the full app matrix by default.
    let cfg = HarnessConfig { apps: vec![Benchmark::Bfs, Benchmark::Hot], ..Default::default() }
        .with_args(&["--budget", "--population", "--seeds", "--apps", "--paper-scale"]);
    println!(
        "MOELA ablations — final PHV on 5 objectives (budget {} evals, seeds {:?})\n",
        cfg.budget, cfg.seeds
    );

    let variants: [(&str, Tweak); 6] = [
        ("baseline (LS-first, ML on)", |b| b),
        ("EA-first ordering", |b| b.ea_first(true)),
        ("no ML guidance", |b| b.iter_early(usize::MAX / 2)),
        ("n_local = 1", |b| b.n_local(1)),
        ("n_local = 8", |b| b.n_local(8)),
        ("train cap = 200", |b| b.train_cap(200)),
    ];

    let header: Vec<String> = std::iter::once("variant".to_owned())
        .chain(cfg.apps.iter().map(|a| a.name().to_owned()))
        .collect();
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(28)).collect();
    println!("{}", moela_bench::format_row(&header, &widths));

    for (name, tweak) in &variants {
        let mut row = vec![(*name).to_owned()];
        for &app in &cfg.apps {
            let mut phvs = Vec::new();
            for &seed in &cfg.seeds {
                let cell = build_cell(PlatformConfig::paper(), app, ObjectiveSet::Five, seed);
                let builder = cfg.settings(Algorithm::Moela, &cell).moela_builder();
                let config = tweak(builder).build().expect("ablation config is valid");
                let out = Moela::new(config, &cell.problem).run(&mut StdRng::seed_from_u64(seed));
                phvs.push(out.phv(&cell.normalizer));
            }
            row.push(format!("{:.4}", mean(&phvs)));
        }
        println!("{}", moela_bench::format_row(&row, &widths));
    }
    println!("\npaper's claim (§IV.A): LS-before-EA ordering gives the best results");
}
