//! Evaluation-cache parity tests: routing-table reuse must be invisible
//! in every deterministic artifact.
//!
//! The contract under test is `--eval-cache` (on by default):
//!
//! * for every optimizer, `trace.csv` and `front.csv` are byte-identical
//!   with the cache on and off, at 1 and 4 threads;
//! * the same holds under `--chaos` fault injection;
//! * `metrics.json` reports the routing-reuse counters;
//! * kill + resume round-trips the flag through the manifest, and a
//!   manifest written by an earlier build (a memo capacity and an
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

/// Runs `algorithm` with `extra` cells on top of the cache-off baseline
/// and asserts the deterministic artifacts never move by a byte.
fn assert_cache_is_invisible(algorithm: &str, chaos: &[&str]) {
    let baseline = scratch(&format!("{algorithm}-baseline"));
    let mut off = vec!["--eval-cache", "off", "--threads", "1"];
    off.extend_from_slice(chaos);
    run_algorithm(algorithm, &baseline, &off);
    let reference = (read(&baseline.join("trace.csv")), read(&baseline.join("front.csv")));
    let _ = fs::remove_dir_all(&baseline);

    let cells: [&[&str]; 2] = [&["--threads", "1"], &["--eval-cache", "on", "--threads", "4"]];
    for (i, cell) in cells.iter().enumerate() {
        let dir = scratch(&format!("{algorithm}-cell{i}"));
        let mut args = cell.to_vec();
        args.extend_from_slice(chaos);
        run_algorithm(algorithm, &dir, &args);
        let artifacts = (read(&dir.join("trace.csv")), read(&dir.join("front.csv")));
        assert_eq!(
            reference, artifacts,
            "{algorithm}: artifacts with cache cell {cell:?} differ from the cache-off baseline"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

macro_rules! parity_tests {
    ($($name:ident: $algorithm:literal;)*) => {$(
        #[test]
        fn $name() {
            assert_cache_is_invisible($algorithm, &[]);
        }
    )*};
}

parity_tests! {
    moela_artifacts_identical_with_cache_on_or_off: "moela";
    moead_artifacts_identical_with_cache_on_or_off: "moead";
    moos_artifacts_identical_with_cache_on_or_off: "moos";
    moo_stage_artifacts_identical_with_cache_on_or_off: "moo-stage";
    nsga2_artifacts_identical_with_cache_on_or_off: "nsga2";
    random_artifacts_identical_with_cache_on_or_off: "random";
}

/// Under chaos the fault stream is keyed by evaluation ordinal alone, so
/// the artifacts still match the cache-off chaotic run.
#[test]
fn chaotic_artifacts_identical_with_cache_on_or_off() {
    let chaos = [
        "--chaos",
        "panic=0.03,nan=0.03,arity=0.02",
        "--chaos-seed",
        "41",
        "--fault-policy",
        "penalize-worst",
        "--eval-retries",
        "1",
    ];
    assert_cache_is_invisible("moela", &chaos);
    assert_cache_is_invisible("nsga2", &chaos);
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
    assert!(cache.contains("\"enabled\":true"), "default runs cache: {cache}");
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

    let dir = scratch("metrics-off");
    run_algorithm("moela", &dir, &["--eval-cache", "off"]);
    let metrics = String::from_utf8(read(&dir.join("metrics.json"))).expect("utf-8 metrics");
    let cache = cache_object(&metrics);
    assert!(cache.contains("\"enabled\":false"), "--eval-cache off is recorded: {cache}");
    assert_eq!(counter_in(cache, "routing_hits"), 0, "off disables routing reuse: {cache}");
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

/// Resume round-trips `--eval-cache` through the manifest, and a run
/// resumed with caching still matches the golden uninterrupted output.
#[test]
fn crash_resume_with_cache_is_bit_identical() {
    let full = scratch("resume-full");
    run_algorithm("moela", &full, &[]);

    let crashed = scratch("resume-crashed");
    crash_after_one_checkpoint(&crashed);
    let manifest = String::from_utf8(read(&crashed.join("manifest.json"))).expect("utf-8");
    assert!(manifest.contains("\"eval_cache\":true"), "manifest records the flag: {manifest}");
    assert!(!manifest.contains("eval_delta"), "no eval_delta is written: {manifest}");

    assert_resumes_to(&full, &crashed, "with the cache enabled");
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
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
    let earlier =
        manifest.replacen("\"eval_cache\":true", "\"eval_cache\":4096,\"eval_delta\":false", 1);
    assert_ne!(earlier, manifest, "the manifest carries eval_cache: {manifest}");
    fs::write(&path, earlier).expect("rewrite the manifest");

    assert_resumes_to(&full, &crashed, "from an earlier build's manifest");
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}
