//! End-to-end crash/resume tests that drive the real `moela-dse` binary.
//!
//! The contract under test is the persistence tentpole: a run killed at
//! an arbitrary checkpoint boundary and resumed — even with a different
//! thread count — must produce `trace.csv` and `front.csv` files that are
//! byte-identical to the uninterrupted run, and damaged checkpoints must
//! degrade (fall back, then fail with a diagnostic) instead of panicking.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

/// A fresh scratch directory under the target-local tmp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moela-dse-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Shared flags for one run cell; every run in a comparison must use the
/// same values so only the crash/resume cycle differs.
struct Cell {
    algorithm: &'static str,
    threads: &'static str,
    budget: &'static str,
}

impl Cell {
    fn run_args<'a>(&'a self, dir: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
        let mut args = vec![
            "run",
            "--app",
            "BFS",
            "--objectives",
            "3",
            "--algorithm",
            self.algorithm,
            "--budget",
            self.budget,
            "--population",
            "8",
            "--seed",
            "7",
            "--threads",
            self.threads,
            "--run-dir",
            dir,
        ];
        args.extend_from_slice(extra);
        args
    }
}

/// Runs `cell` uninterrupted, then again with an injected crash after
/// `crash_after` checkpoints, resumes the crashed run, and asserts the
/// two run directories hold byte-identical traces and fronts.
fn assert_crash_resume_is_bit_identical(cell: &Cell, crash_after: &str) {
    let tag = format!("{}-t{}", cell.algorithm, cell.threads);
    let full = scratch(&format!("full-{tag}"));
    let full_dir = full.to_str().expect("utf-8 path");
    let out = moela_dse(&cell.run_args(full_dir, &[]));
    assert!(out.status.success(), "uninterrupted run failed: {}", stderr_of(&out));

    let crashed = scratch(&format!("crashed-{tag}"));
    let crashed_dir = crashed.to_str().expect("utf-8 path");
    let out = moela_dse(&cell.run_args(crashed_dir, &["--crash-after-checkpoints", crash_after]));
    assert!(!out.status.success(), "crash injection must abort the process");
    assert!(
        !crashed.join("trace.csv").exists(),
        "a crashed run must not have written final outputs"
    );

    let out = moela_dse(&["resume", crashed_dir]);
    assert!(out.status.success(), "resume failed: {}", stderr_of(&out));

    for file in ["trace.csv", "front.csv"] {
        assert_eq!(
            read(&full.join(file)),
            read(&crashed.join(file)),
            "{file} differs after crash+resume for {tag}"
        );
    }
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}

macro_rules! crash_resume_tests {
    ($($name:ident: $algorithm:literal / $threads:literal / budget $budget:literal;)*) => {$(
        #[test]
        fn $name() {
            let cell = Cell { algorithm: $algorithm, threads: $threads, budget: $budget };
            assert_crash_resume_is_bit_identical(&cell, "1");
        }
    )*};
}

crash_resume_tests! {
    moela_resumes_bit_identical_single_threaded: "moela" / "1" / budget "120";
    moela_resumes_bit_identical_multi_threaded: "moela" / "4" / budget "120";
    moead_resumes_bit_identical_single_threaded: "moead" / "1" / budget "120";
    moead_resumes_bit_identical_multi_threaded: "moead" / "4" / budget "120";
    nsga2_resumes_bit_identical_single_threaded: "nsga2" / "1" / budget "120";
    nsga2_resumes_bit_identical_multi_threaded: "nsga2" / "4" / budget "120";
    moos_resumes_bit_identical_single_threaded: "moos" / "1" / budget "160";
    moos_resumes_bit_identical_multi_threaded: "moos" / "4" / budget "160";
    moo_stage_resumes_bit_identical_single_threaded: "moo-stage" / "1" / budget "160";
    moo_stage_resumes_bit_identical_multi_threaded: "moo-stage" / "4" / budget "160";
    random_resumes_bit_identical_single_threaded: "random" / "1" / budget "200";
    random_resumes_bit_identical_multi_threaded: "random" / "4" / budget "200";
}

/// A crashed MOELA run directory with at least two intact checkpoints,
/// plus a completed sibling for byte comparison.
fn crashed_run_pair(name: &str) -> (PathBuf, PathBuf) {
    let cell = Cell { algorithm: "moela", threads: "1", budget: "120" };
    let full = scratch(&format!("{name}-full"));
    let out = moela_dse(&cell.run_args(full.to_str().expect("utf-8 path"), &[]));
    assert!(out.status.success(), "uninterrupted run failed: {}", stderr_of(&out));

    let crashed = scratch(&format!("{name}-crashed"));
    let out = moela_dse(
        &cell.run_args(crashed.to_str().expect("utf-8 path"), &["--crash-after-checkpoints", "3"]),
    );
    assert!(!out.status.success(), "crash injection must abort the process");
    (full, crashed)
}

fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir.join("checkpoints"))
        .expect("checkpoints dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
}

/// Flips one payload byte so the CRC no longer matches.
fn corrupt(path: &Path) {
    let mut bytes = read(path);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(path, bytes).expect("rewrite checkpoint");
}

#[test]
fn resume_falls_back_when_the_newest_checkpoint_is_corrupt() {
    let (full, crashed) = crashed_run_pair("fallback");
    let files = checkpoint_files(&crashed);
    assert!(files.len() >= 2, "need an older checkpoint to fall back to");
    corrupt(files.last().expect("newest checkpoint"));

    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "fallback resume failed: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("skipped corrupt checkpoint"),
        "fallback must warn about the skipped file, got: {}",
        stderr_of(&out)
    );
    for file in ["trace.csv", "front.csv"] {
        assert_eq!(read(&full.join(file)), read(&crashed.join(file)), "{file} differs");
    }
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}

#[test]
fn resume_removes_temp_files_a_killed_writer_left() {
    let (full, crashed) = crashed_run_pair("stale-temps");
    // Named as write_atomic names them, by a process that no longer runs.
    let stale = [
        crashed.join("manifest.json.4294967295-0.tmp"),
        crashed.join("checkpoints/x.4294967295-1.tmp"),
    ];
    for path in &stale {
        fs::write(path, b"partial").expect("plant temp file");
    }

    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "resume failed: {}", stderr_of(&out));
    for path in &stale {
        assert!(!path.exists(), "{} survived the resume", path.display());
    }
    for file in ["trace.csv", "front.csv"] {
        assert_eq!(read(&full.join(file)), read(&crashed.join(file)), "{file} differs");
    }
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}

#[test]
fn resume_reports_a_diagnostic_when_every_checkpoint_is_damaged() {
    let (full, crashed) = crashed_run_pair("all-damaged");
    for file in checkpoint_files(&crashed) {
        corrupt(&file);
    }

    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path")]);
    let stderr = stderr_of(&out);
    assert!(!out.status.success(), "resume must fail when no checkpoint is intact");
    assert!(stderr.contains("error:"), "expected a user-facing diagnostic, got: {stderr}");
    assert!(!stderr.contains("panicked"), "corruption must not panic: {stderr}");
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}

#[test]
fn resume_reports_an_empty_checkpoint_directory() {
    let (full, crashed) = crashed_run_pair("emptied");
    for file in checkpoint_files(&crashed) {
        fs::remove_file(&file).expect("delete checkpoint");
    }

    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path")]);
    let stderr = stderr_of(&out);
    assert!(!out.status.success());
    assert!(stderr.contains("no checkpoints"), "got: {stderr}");
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}

#[test]
fn resume_refuses_a_directory_without_a_manifest() {
    let dir = scratch("no-manifest");
    fs::create_dir_all(&dir).expect("mkdir");
    let out = moela_dse(&["resume", dir.to_str().expect("utf-8 path")]);
    let stderr = stderr_of(&out);
    assert!(!out.status.success());
    assert!(stderr.contains("error:"), "got: {stderr}");
    assert!(!stderr.contains("panicked"), "got: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_future_checkpoint_format() {
    let (full, crashed) = crashed_run_pair("future-format");
    let manifest = crashed.join("manifest.json");
    let text = String::from_utf8(read(&manifest)).expect("manifest is UTF-8");
    assert!(text.contains("\"format\":1,"), "manifest format field moved? {text}");
    fs::write(&manifest, text.replace("\"format\":1,", "\"format\":99,"))
        .expect("rewrite manifest");

    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path")]);
    let stderr = stderr_of(&out);
    assert!(!out.status.success());
    assert!(stderr.contains("format 99"), "must name the offending version, got: {stderr}");
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}

#[test]
fn version_subcommand_prints_the_build_version() {
    for spelling in ["version", "--version", "-V"] {
        let out = moela_dse(&[spelling]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.trim(), format!("moela-dse {}", env!("CARGO_PKG_VERSION")));
    }
}
