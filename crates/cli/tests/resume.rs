//! End-to-end crash/resume tests that drive the real `moela-dse` binary.
//!
//! The contract under test is the persistence tentpole: a run killed at
//! an arbitrary checkpoint boundary and resumed — even with a different
//! thread count — must produce `trace.csv` and `front.csv` files that are
//! byte-identical to the uninterrupted run, and damaged checkpoints must
//! degrade (fall back, then fail with a diagnostic) instead of panicking.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use moela_persist::checkpoint::from_bytes;
use moela_persist::{CheckpointStore, PersistError, Value, FORMAT_VERSION};

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
    // The crash counts durable checkpoints: the N-th save is on disk and
    // verifies before the process aborts.
    let store = CheckpointStore::new(crashed.join("checkpoints")).expect("checkpoint store");
    let (newest, _, skipped) = store.load_latest().expect("load").expect("a checkpoint");
    assert_eq!(newest.to_string(), crash_after, "newest intact checkpoint for {tag}");
    assert!(skipped.is_empty(), "{tag}: skipped {skipped:?}");

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
    ($($name:ident: $algorithm:literal / $threads:literal / budget $budget:literal
        / crash after $crash_after:literal;)*) => {$(
        #[test]
        fn $name() {
            let cell = Cell { algorithm: $algorithm, threads: $threads, budget: $budget };
            assert_crash_resume_is_bit_identical(&cell, $crash_after);
        }
    )*};
}

// MOELA and MOOS checkpoint their surrogate as the RNG state of its last
// fit and refit on resume, so their kills come after the first fit:
// MOELA fits from its second generation on, MOOS after its 8 warm-up
// episodes.
crash_resume_tests! {
    moela_resumes_bit_identical_single_threaded: "moela" / "1" / budget "120" / crash after "2";
    moela_resumes_bit_identical_multi_threaded: "moela" / "4" / budget "120" / crash after "2";
    moead_resumes_bit_identical_single_threaded: "moead" / "1" / budget "120" / crash after "1";
    moead_resumes_bit_identical_multi_threaded: "moead" / "4" / budget "120" / crash after "1";
    nsga2_resumes_bit_identical_single_threaded: "nsga2" / "1" / budget "120" / crash after "1";
    nsga2_resumes_bit_identical_multi_threaded: "nsga2" / "4" / budget "120" / crash after "1";
    moos_resumes_bit_identical_single_threaded: "moos" / "1" / budget "600" / crash after "8";
    moos_resumes_bit_identical_multi_threaded: "moos" / "4" / budget "600" / crash after "8";
    moo_stage_resumes_bit_identical_single_threaded:
        "moo-stage" / "1" / budget "160" / crash after "1";
    moo_stage_resumes_bit_identical_multi_threaded:
        "moo-stage" / "4" / budget "160" / crash after "1";
    random_resumes_bit_identical_single_threaded: "random" / "1" / budget "200" / crash after "1";
    random_resumes_bit_identical_multi_threaded: "random" / "4" / budget "200" / crash after "1";
}

/// The highest checkpoint sequence number in `dir`'s rotation, if any.
fn newest_checkpoint_file(dir: &Path) -> Option<u64> {
    fs::read_dir(dir.join("checkpoints"))
        .ok()?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("ckpt-")?.strip_suffix(".json")?.parse().ok()
        })
        .max()
}

/// Runs `cell` uninterrupted, then again until its `kill_at`-th
/// checkpoint file appears, and SIGKILLs it there. The kill lands in the
/// next step or while the writer is still fsyncing or pruning, not at a
/// boundary the program chose. The resumed run must match the
/// uninterrupted one byte for byte.
fn assert_sigkill_resume_is_bit_identical(cell: &Cell, kill_at: u64) {
    let tag = format!("{}-t{}", cell.algorithm, cell.threads);
    let full = scratch(&format!("sigkill-full-{tag}"));
    let out = moela_dse(&cell.run_args(full.to_str().expect("utf-8 path"), &[]));
    assert!(out.status.success(), "uninterrupted run failed: {}", stderr_of(&out));

    let killed = scratch(&format!("sigkill-{tag}"));
    let killed_dir = killed.to_str().expect("utf-8 path");
    let mut child = Command::new(BIN)
        .args(cell.run_args(killed_dir, &[]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn moela-dse");
    let deadline = Instant::now() + Duration::from_secs(120);
    while newest_checkpoint_file(&killed).is_none_or(|seq| seq < kill_at) {
        if let Some(status) = child.try_wait().expect("poll the child") {
            panic!("{tag} exited ({status}) before checkpoint {kill_at}; raise its budget");
        }
        assert!(Instant::now() < deadline, "{tag} never wrote checkpoint {kill_at}");
        thread::sleep(Duration::from_micros(200));
    }
    child.kill().expect("SIGKILL the child");
    let status = child.wait().expect("reap the child");
    assert!(!status.success(), "{tag} finished before the kill; raise its budget");
    assert!(!killed.join("trace.csv").exists(), "{tag} finished before the kill");

    let out = moela_dse(&["resume", killed_dir, "--threads", "4"]);
    assert!(out.status.success(), "resume after SIGKILL failed: {}", stderr_of(&out));
    for file in ["trace.csv", "front.csv"] {
        assert_eq!(
            read(&full.join(file)),
            read(&killed.join(file)),
            "{file} differs after SIGKILL+resume for {tag}"
        );
    }
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&killed);
}

macro_rules! sigkill_resume_tests {
    ($($name:ident: $algorithm:literal / budget $budget:literal / kill at $kill_at:literal;)*) => {$(
        #[test]
        fn $name() {
            let cell = Cell { algorithm: $algorithm, threads: "1", budget: $budget };
            assert_sigkill_resume_is_bit_identical(&cell, $kill_at);
        }
    )*};
}

// Each budget runs at least ten times as many steps as the kill waits for,
// so the child is still running when the kill lands.
sigkill_resume_tests! {
    moela_resumes_bit_identical_after_sigkill: "moela" / budget "1200" / kill at 3;
    moead_resumes_bit_identical_after_sigkill: "moead" / budget "1200" / kill at 5;
    nsga2_resumes_bit_identical_after_sigkill: "nsga2" / budget "1200" / kill at 5;
    moos_resumes_bit_identical_after_sigkill: "moos" / budget "1500" / kill at 9;
    moo_stage_resumes_bit_identical_after_sigkill: "moo-stage" / budget "1200" / kill at 2;
    random_resumes_bit_identical_after_sigkill: "random" / budget "2000" / kill at 2;
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
    let ours = format!("\"format\":{FORMAT_VERSION},");
    assert!(text.contains(&ours), "manifest format field moved? {text}");
    fs::write(&manifest, text.replace(&ours, "\"format\":99,")).expect("rewrite manifest");

    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path")]);
    let stderr = stderr_of(&out);
    assert!(!out.status.success());
    assert!(stderr.contains("format 99"), "must name the offending version, got: {stderr}");
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
}

/// Rewrites one envelope field of the newest checkpoint through
/// `CheckpointStore::save`, so the file's CRC stays valid and only the
/// envelope check can refuse it, then resumes and returns stderr.
fn resume_with_doctored_envelope(name: &str, field: &str, value: Value) -> String {
    let (full, crashed) = crashed_run_pair(name);
    let store = CheckpointStore::new(crashed.join("checkpoints")).expect("checkpoint store");
    let (seq, mut envelope, _) = store.load_latest().expect("load").expect("a checkpoint");
    let Value::Object(fields) = &mut envelope else { panic!("an envelope is an object") };
    fields.iter_mut().find(|(k, _)| k == field).unwrap_or_else(|| panic!("no {field}")).1 = value;
    store.save(seq, &envelope).expect("save doctored checkpoint");

    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path")]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "got: {stderr}");
    assert!(!stderr.contains("panicked"), "got: {stderr}");
    assert!(!crashed.join("trace.csv").exists(), "a refused resume must not finish the run");
    let _ = fs::remove_dir_all(&full);
    let _ = fs::remove_dir_all(&crashed);
    stderr
}

#[test]
fn resume_refuses_a_checkpoint_of_another_algorithm() {
    let stderr =
        resume_with_doctored_envelope("other-algorithm", "algorithm", Value::Str("nsga2".into()));
    assert!(
        stderr.contains("was written by 'nsga2' but the manifest configures 'moela'"),
        "got: {stderr}"
    );
}

#[test]
fn resume_refuses_an_rng_state_that_is_not_four_words() {
    let stderr = resume_with_doctored_envelope("short-rng", "rng", Value::u64_array(&[1, 2, 3]));
    assert!(stderr.contains("malformed RNG state"), "got: {stderr}");
}

/// `tests/fixtures/v1-moela` is a run directory written by a format-1
/// build (`--budget 120 --population 8 --seed 7`, killed after two
/// checkpoints): its MOELA checkpoint still carries the fitted forest
/// under `eval_fn`, which format 2 replaced by `fit_rng`. It must be
/// refused with the format message, never misread.
#[test]
fn resume_refuses_a_format_1_checkpoint() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-moela");
    let dir = scratch("v1-fixture");
    fs::create_dir_all(dir.join("checkpoints")).expect("mkdir");
    for file in ["manifest.json", "checkpoints/ckpt-00000002.json"] {
        fs::copy(fixture.join(file), dir.join(file)).expect("copy fixture");
    }
    let ckpt = dir.join("checkpoints/ckpt-00000002.json");
    let bytes = read(&ckpt);
    assert!(bytes.starts_with(b"MOELA-CKPT 1 "), "the fixture must stay a format-1 file");
    assert!(String::from_utf8_lossy(&bytes).contains("\"eval_fn\":{\"trees\""));
    assert!(matches!(
        from_bytes(&bytes, &ckpt),
        Err(PersistError::FormatVersion { supported: FORMAT_VERSION, found: 1 })
    ));

    let out = moela_dse(&["resume", dir.to_str().expect("utf-8 path")]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "got: {stderr}");
    assert!(
        stderr.contains("format 1") && stderr.contains(&format!("format {FORMAT_VERSION}")),
        "must name both format versions, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "got: {stderr}");
    assert!(!dir.join("trace.csv").exists());
    let _ = fs::remove_dir_all(&dir);
}

/// `tests/fixtures/v2-moela-earlier-fit` is a format-2 run directory
/// written by the build before the surrogate trees summed each bootstrap
/// row once (`--budget 600 --population 8 --seed 7`, killed after six
/// checkpoints, the newest at 244 evaluations), with that build's
/// uninterrupted `trace.csv`. Its checkpoint holds `fit_rng`, not trees,
/// so this build resumes it by refitting with its own tree builder: the
/// run finishes, keeps the earlier build's trace points up to the
/// checkpoint, and gives the same bytes at any thread count.
#[test]
fn a_checkpoint_of_an_earlier_tree_fit_resumes_into_this_build() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2-moela-earlier-fit");
    let ckpt = "checkpoints/ckpt-00000006.json";
    assert!(
        String::from_utf8_lossy(&read(&fixture.join(ckpt))).contains("\"fit_rng\":["),
        "the fixture must hold a fitted model"
    );
    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let dir = scratch(&format!("v2-fixture-t{threads}"));
        fs::create_dir_all(dir.join("checkpoints")).expect("mkdir");
        for file in ["manifest.json", ckpt] {
            fs::copy(fixture.join(file), dir.join(file)).expect("copy fixture");
        }
        let out = moela_dse(&["resume", dir.to_str().expect("utf-8 path"), "--threads", threads]);
        assert!(out.status.success(), "resume failed: {}", stderr_of(&out));
        outputs.push((read(&dir.join("trace.csv")), read(&dir.join("front.csv"))));
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(outputs[0], outputs[1], "the resumed run depends on --threads");
    let evaluations = |row: &str| -> u64 {
        row.split(',').nth(1).and_then(|e| e.parse().ok()).expect("an evaluation count")
    };
    let rows = |csv: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(csv).lines().skip(1).map(str::to_owned).collect()
    };
    let resumed = rows(&outputs[0].0);
    let earlier = rows(&read(&fixture.join("earlier-build.trace.csv")));
    let kept = |rows: &[String]| -> Vec<String> {
        rows.iter().filter(|r| evaluations(r) <= 244).cloned().collect()
    };
    assert!(!kept(&earlier).is_empty());
    assert_eq!(kept(&resumed), kept(&earlier), "the checkpointed trace points must survive");
    assert!(evaluations(resumed.last().expect("a trace row")) >= 600, "the run must finish");
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
