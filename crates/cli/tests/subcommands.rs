//! The small subcommands end to end: `info` and `simulate` print their
//! reports, every run-like subcommand refuses (exit 2, naming the flag) a
//! flag it would otherwise ignore — before doing any work — and `run`
//! obeys `--time-guard-secs` with every optimizer.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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

#[test]
fn every_optimizer_stops_at_the_time_guard() {
    for algorithm in ["moela", "moead", "moos", "moo-stage", "nsga2", "random"] {
        let mut child = Command::new(BIN)
            .args(["run", "--algorithm", algorithm, "--budget", "1000000"])
            .args(["--time-guard-secs", "0", "--seed", "3"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn moela-dse");
        // A run that ignored the guard would take minutes: stop it and fail.
        let deadline = Instant::now() + Duration::from_secs(60);
        while child.try_wait().expect("poll moela-dse").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{algorithm} ignored --time-guard-secs 0");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect moela-dse output");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let text = stdout(&out);
        let evaluations: u64 = text
            .lines()
            .find_map(|line| line.strip_prefix("finished: "))
            .and_then(|rest| rest.split(' ').next())
            .and_then(|count| count.parse().ok())
            .unwrap_or_else(|| panic!("{algorithm} printed no evaluation count:\n{text}"));
        assert!(evaluations < 1_000_000, "{algorithm} ran its whole budget");
    }
}
