//! Parity between the harness and `moela-dse`: a harness run of MOELA,
//! MOEA/D or MOOS writes the same trace and front bytes as the CLI's
//! golden runs (`crates/cli/tests/golden/`), which were made with:
//!
//! ```text
//! moela-dse run --app BFS --objectives 3 --algorithm <ALGO> \
//!     --budget 120 --population 8 --seed 7 --run-dir <DIR>
//! ```
//!
//! and again at `--budget 600` for MOELA and MOOS (the `.b600.`
//! fixtures). Equal bytes mean the tables compare the optimizers a user
//! runs, with the same settings.

use std::path::Path;

use moela_bench::{build_cell, HarnessConfig};
use moela_core::Algorithm;
use moela_manycore::{Design, ObjectiveSet, PlatformConfig};
use moela_moo::run::RunResult;
use moela_traffic::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 7;

/// `trace.csv` as a run directory holds it: no wall-clock column.
fn trace_csv(result: &RunResult<Design>) -> String {
    let mut out = String::from("generation,evaluations,phv\n");
    for p in &result.trace {
        out.push_str(&format!("{},{},{:.9}\n", p.generation, p.evaluations, p.phv));
    }
    out
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../cli/tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Runs `algo` as the harness does at `budget` and compares it with the
/// CLI fixtures named `stem`.
fn assert_parity(algo: Algorithm, budget: u64, stem: &str) {
    let cfg = HarnessConfig { budget, population: 8, seeds: vec![SEED], ..Default::default() };
    let cell = build_cell(PlatformConfig::paper(), Benchmark::Bfs, ObjectiveSet::Three, SEED);
    let result = cfg.settings(algo, &cell).run(&cell.problem, &mut StdRng::seed_from_u64(SEED));
    assert_eq!(trace_csv(&result), golden(&format!("{stem}.trace.csv")), "{stem} trace");
    assert_eq!(result.front_csv(), golden(&format!("{stem}.front.csv")), "{stem} front");
}

#[test]
fn harness_moela_matches_the_cli_goldens() {
    assert_parity(Algorithm::Moela, 120, "moela");
    assert_parity(Algorithm::Moela, 600, "moela.b600");
}

#[test]
fn harness_moead_matches_the_cli_goldens() {
    assert_parity(Algorithm::Moead, 120, "moead");
}

#[test]
fn harness_moos_matches_the_cli_goldens() {
    assert_parity(Algorithm::Moos, 120, "moos");
    assert_parity(Algorithm::Moos, 600, "moos.b600");
}
