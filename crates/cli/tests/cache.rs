//! Routing-reuse tests at the CLI surface.
//!
//! Reuse is always on; that it is invisible in every deterministic
//! artifact is pinned bit for bit by `crates/manycore/tests/eval_cache.rs`.
//! Here:
//!
//! * `metrics.json` reports the routing-reuse counters;
//! * a manifest written by an earlier build (a memo capacity and an
//!   `eval_delta` key) still resumes byte for byte.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moela-cache-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Standard tiny run (the golden-test configuration) with extra flags.
fn run_raw(algorithm: &str, dir: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "run",
        "--app",
        "BFS",
        "--objectives",
        "3",
        "--algorithm",
        algorithm,
        "--budget",
        "120",
        "--population",
        "8",
        "--seed",
        "7",
        "--run-dir",
        dir.to_str().expect("utf-8 path"),
    ];
    args.extend_from_slice(extra);
    moela_dse(&args)
}

/// [`run_raw`], asserting the run succeeds.
fn run_algorithm(algorithm: &str, dir: &Path, extra: &[&str]) {
    let out = run_raw(algorithm, dir, extra);
    assert!(
        out.status.success(),
        "{algorithm} run {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Pulls the `"cache":{...}` object out of a metrics.json body. The
/// object holds only flat counters, so it ends at the first `}`.
fn cache_object(metrics: &str) -> &str {
    let tail = metrics.split("\"cache\":{").nth(1).expect("metrics.json has a cache object");
    tail.split('}').next().expect("the cache object closes")
}

fn counter_in(object: &str, name: &str) -> u64 {
    let tail = object.split(&format!("\"{name}\":")).nth(1).unwrap_or_else(|| {
        panic!("cache object lacks {name}: {object}");
    });
    tail.chars().take_while(char::is_ascii_digit).collect::<String>().parse().expect("integer")
}

#[test]
fn metrics_report_cache_and_routing_counters() {
    let dir = scratch("metrics-on");
    run_algorithm("moela", &dir, &[]);
    let metrics = String::from_utf8(read(&dir.join("metrics.json"))).expect("utf-8 metrics");
    let cache = cache_object(&metrics);
    assert!(!cache.contains("\"enabled\""), "reuse is always on: {cache}");
    assert!(counter_in(cache, "routing_hits") > 0, "placement moves reuse tables: {cache}");
    for gone in ["\"capacity\"", "\"hits\"", "\"misses\"", "\"evictions\""] {
        assert!(!cache.contains(gone), "the memo field {gone} is gone: {cache}");
    }
    assert!(!metrics.contains("\"delta\":{"), "the delta object is gone: {metrics}");
    assert!(
        counter_in(cache, "routing_rebuilds") > 0,
        "at least one routing table is built: {cache}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Runs the golden configuration of moela into `dir` until its first
/// checkpoint, then aborts it.
fn crash_after_one_checkpoint(dir: &Path) {
    let out = run_raw("moela", dir, &["--crash-after-checkpoints", "1"]);
    assert!(!out.status.success(), "crash injection must abort the process");
}

/// Resumes `crashed` at 4 threads and asserts it reproduces `full`.
fn assert_resumes_to(full: &Path, crashed: &Path, what: &str) {
    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path"), "--threads", "4"]);
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    for file in ["trace.csv", "front.csv"] {
        assert_eq!(
            read(&full.join(file)),
            read(&crashed.join(file)),
            "{file} differs after crash+resume {what}"
        );
    }
}

/// A format-2 run directory written by an earlier build — its manifest
/// sizes a design memo (`"eval_cache":4096`) and carries
/// `"eval_delta":false` — still resumes byte-identical to an
/// uninterrupted run.
#[test]
fn crash_resume_of_an_earlier_manifest_is_bit_identical() {
    let full = scratch("earlier-full");
    run_algorithm("moela", &full, &[]);

    let crashed = scratch("earlier-crashed");
    crash_after_one_checkpoint(&crashed);
    let path = crashed.join("manifest.json");
    let manifest = String::from_utf8(read(&path)).expect("utf-8");
    for retired in ["eval_cache", "eval_delta"] {
        assert!(!manifest.contains(retired), "{retired} is no longer written: {manifest}");
    }
    let earlier = manifest.replacen(
        "\"eval_retries\":0,",
        "\"eval_retries\":0,\"eval_cache\":4096,\"eval_delta\":false,",
        1,
    );
    assert_ne!(earlier, manifest, "the manifest carries eval_retries: {manifest}");
    fs::write(&path, earlier).expect("rewrite the manifest");

    assert_resumes_to(&full, &crashed, "from an earlier build's manifest");
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}
