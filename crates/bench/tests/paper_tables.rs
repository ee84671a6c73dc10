//! Golden-output test for `paper_tables`: its stdout must stay
//! byte-identical to Tables I, II and Fig. 3 as the harness printed them
//! before the three views shared one sweep.
//!
//! `tests/golden/paper_tables.txt` is the concatenated stdout of the
//! former `table1_speedup`, `table2_phv` and `fig3_edp` binaries, each run
//! with:
//!
//! ```text
//! --budget 60 --seeds 5 --apps BFS
//! ```
//!
//! Its MOEA/D cells (the MOEA/D columns of Tables I–II and the MOEA/D
//! overhead of Fig. 3) were regenerated, in a commit of their own, when
//! the harness started building its optimizers through `moela-core`'s
//! optimizer table: its MOEA/D took neighborhood size 10 before and takes
//! `moela-dse`'s `max(2, N/5)` now. Every MOELA and MOOS cell stayed
//! byte-identical.
//!
//! Regenerate it only alongside the `moela-dse` goldens
//! (`crates/cli/tests/golden/`), for an intentional, documented change to
//! optimizer behavior.

use std::path::Path;
use std::process::Command;

#[test]
fn paper_tables_matches_the_golden_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(["--budget", "60", "--seeds", "5", "--apps", "BFS"])
        .output()
        .expect("spawn paper_tables");
    assert!(out.status.success(), "paper_tables failed: {}", String::from_utf8_lossy(&out.stderr));
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper_tables.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path.display()));
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}
