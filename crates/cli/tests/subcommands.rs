//! The small subcommands end to end: `info` and `simulate` print their
//! reports, and every run-like subcommand refuses (exit 2, naming the
//! flag) a flag it would otherwise ignore — before doing any work.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("moela-subcommand-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn info_describes_the_workload() {
    let out = moela_dse(&["info", "--app", "HOT", "--seed", "4"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.starts_with("HOT on the paper platform (seed 4)"), "{text}");
    for line in ["PEs:", "total traffic:", "GPU<->LLC", "total PE power:"] {
        assert!(text.contains(line), "missing '{line}':\n{text}");
    }
}

#[test]
fn simulate_runs_the_noc_simulator() {
    let out = moela_dse(&["simulate", "--app", "GAU", "--load", "1.5", "--cycles", "500"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("GAU workload, load x1.5, 500 cycles"), "{text}");
    for line in ["delivered flits:", "avg flit latency:", "analytic reference:"] {
        assert!(text.contains(line), "missing '{line}':\n{text}");
    }
}

#[test]
fn unread_flags_are_refused_by_name() {
    let dir = scratch("refused");
    let dir_str = dir.to_str().expect("utf-8 path");
    let cases: [(&[&str], &str); 6] = [
        (&["info", "--run-dir", dir_str], "--run-dir"),
        (&["info", "--budget", "50"], "--budget"),
        // A value-less flag must not swallow the flag after it.
        (&["simulate", "--progress", "--load", "2.0"], "--progress"),
        (&["simulate", "--run-dir", dir_str], "--run-dir"),
        (&["compare", "--budget", "50", "--run-dir", dir_str], "--run-dir"),
        (&["compare", "--algorithm", "moela"], "--algorithm"),
    ];
    for (args, flag) in cases {
        let out = moela_dse(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("does not read {flag}")), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?} did work before refusing");
    }
    assert!(!dir.exists(), "a refused --run-dir must not be created");
}
