//! Golden-output tests: with chaos disabled, every optimizer's
//! deterministic trace and front must be byte-identical to the output
//! captured before fault containment was introduced — proving the
//! containment layer is zero-cost on the happy path.
//!
//! The fixtures under `tests/golden/` were generated with:
//!
//! ```text
//! moela-dse run --app BFS --objectives 3 --algorithm <ALGO> \
//!     --budget 120 --population 8 --seed 7 --run-dir <DIR>
//! ```
//!
//! and are the pre-containment `trace.csv` / `front.csv` of each run
//! directory. Regenerate them only for an intentional, documented change
//! to optimizer behavior.
//!
//! At `--budget 120` MOOS never fits its gain model and MOO-STAGE never
//! makes a meta move, so the three learning optimizers also run the same
//! command at `--budget 600` (MOELA fits its `Eval` 15 times, MOOS 6,
//! MOO-STAGE 17 with 5 meta moves). Those fixtures are named
//! `<ALGO>.b600.trace.csv` / `<ALGO>.b600.front.csv`.
//!
//! `tests/golden/checkpoint_state.crc32` pins, per algorithm, the CRC-32
//! of the newest checkpoint's `state` object from the same command, with
//! every wall-clock `elapsed_nanos` zeroed (`<ALGO>` at budget 120,
//! `<ALGO>@600` at budget 600). Equal bytes mean checkpoints written by
//! earlier builds still restore unchanged.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use moela_persist::{crc32::crc32, encode, RunStore, Value};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moela-golden-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The budget of the original fixtures; [`LONG_BUDGET`] is the second
/// input, long enough that every surrogate is fitted and used.
const BUDGET: &str = "120";
const LONG_BUDGET: &str = "600";

/// The learning optimizers, which also run at [`LONG_BUDGET`].
const LEARNING: [&str; 3] = ["moela", "moos", "moo-stage"];

/// Runs the golden command for `algorithm` at `budget` into `dir`.
fn golden_run(algorithm: &str, budget: &str, dir: &Path) {
    let dir_str = dir.to_str().expect("utf-8 path");
    let out = moela_dse(&[
        "run",
        "--app",
        "BFS",
        "--objectives",
        "3",
        "--algorithm",
        algorithm,
        "--budget",
        budget,
        "--population",
        "8",
        "--seed",
        "7",
        "--run-dir",
        dir_str,
    ]);
    assert!(
        out.status.success(),
        "{algorithm} run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The fixture-name stem of `algorithm` at `budget`.
fn stem(algorithm: &str, budget: &str) -> String {
    if budget == BUDGET {
        algorithm.to_owned()
    } else {
        format!("{algorithm}.b{budget}")
    }
}

fn assert_matches_golden(algorithm: &str, budget: &str) {
    let stem = stem(algorithm, budget);
    let dir = scratch(&stem);
    golden_run(algorithm, budget, &dir);
    for artifact in ["trace.csv", "front.csv"] {
        let expected = golden_dir().join(format!("{stem}.{artifact}"));
        assert_eq!(
            read(&expected),
            read(&dir.join(artifact)),
            "{algorithm} {artifact} at budget {budget} drifted from the golden output"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

macro_rules! golden_tests {
    ($($name:ident: $algorithm:literal, $budget:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_matches_golden($algorithm, $budget);
        }
    )*};
}

golden_tests! {
    moela_happy_path_matches_golden_output: "moela", BUDGET;
    moead_happy_path_matches_golden_output: "moead", BUDGET;
    moos_happy_path_matches_golden_output: "moos", BUDGET;
    moo_stage_happy_path_matches_golden_output: "moo-stage", BUDGET;
    nsga2_happy_path_matches_golden_output: "nsga2", BUDGET;
    random_happy_path_matches_golden_output: "random", BUDGET;
    moela_fitted_surrogate_matches_golden_output: "moela", LONG_BUDGET;
    moos_fitted_gain_model_matches_golden_output: "moos", LONG_BUDGET;
    moo_stage_meta_search_matches_golden_output: "moo-stage", LONG_BUDGET;
}

/// Zeroes every `elapsed_nanos` field, the only wall-clock data in a
/// checkpoint.
fn zero_elapsed(value: &mut Value) {
    match value {
        Value::Object(fields) => {
            for (key, v) in fields {
                if key == "elapsed_nanos" {
                    *v = Value::U64(0);
                } else {
                    zero_elapsed(v);
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(zero_elapsed),
        _ => {}
    }
}

#[test]
fn checkpoint_state_bytes_match_the_pins() {
    let pins =
        String::from_utf8(read(&golden_dir().join("checkpoint_state.crc32"))).expect("utf-8 pins");
    let mut drifted = Vec::new();
    let all = ["moela", "moead", "moos", "moo-stage", "nsga2", "random"];
    let runs = all.map(|a| (a, BUDGET)).into_iter().chain(LEARNING.map(|a| (a, LONG_BUDGET)));
    for (algorithm, budget) in runs {
        let dir = scratch(&format!("ckpt-{}", stem(algorithm, budget)));
        golden_run(algorithm, budget, &dir);
        let store = RunStore::open(&dir).and_then(|s| s.checkpoints()).expect("checkpoints");
        let (_, envelope, _) = store.load_latest().expect("load").expect("a checkpoint");
        let mut state = envelope.field("state").expect("state").clone();
        zero_elapsed(&mut state);
        let pin =
            if budget == BUDGET { algorithm.to_owned() } else { format!("{algorithm}@{budget}") };
        let actual = format!("{pin} {:08x}", crc32(encode::to_string(&state).as_bytes()));
        if !pins.lines().any(|line| line == actual) {
            drifted.push(actual);
        }
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(drifted.is_empty(), "checkpoint state bytes drifted from the pins: {drifted:?}");
}
