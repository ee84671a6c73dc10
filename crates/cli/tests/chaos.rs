//! End-to-end fault-containment tests that drive the real `moela-dse`
//! binary under seeded chaos injection.
//!
//! The contract under test is the fault-containment tentpole:
//!
//! * every algorithm runs to completion under every injected fault kind
//!   (panic, NaN, Inf, wrong arity), producing traces and fronts that
//!   are bit-identical at any thread count;
//! * a chaotic run killed at a checkpoint boundary and resumed is
//!   byte-identical to the uninterrupted chaotic run (the fault stream
//!   continues from the checkpoint's evaluation count), also from a
//!   checkpoint whose envelope carries the chaos ordinal older builds
//!   wrote;
//! * contradictory flag combinations are rejected with exit code 2;
//! * a `fail`-policy fault surfaces as a structured `error:` exit.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use moela_persist::{CheckpointStore, Value};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

/// One chaos spec per injected fault kind, each at a rate that faults
/// several times within a 120-evaluation budget without drowning the run.
const FAULT_KINDS: [(&str, &str); 4] =
    [("panic", "panic=0.05"), ("nan", "nan=0.05"), ("inf", "inf=0.05"), ("arity", "arity=0.05")];

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moela-chaos-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Base flags for one chaotic run cell writing into `dir`.
fn chaos_args<'a>(
    algorithm: &'a str,
    spec: &'a str,
    threads: &'a str,
    dir: &'a str,
    extra: &[&'a str],
) -> Vec<&'a str> {
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
        "--threads",
        threads,
        "--run-dir",
        dir,
        "--chaos",
        spec,
        "--chaos-seed",
        "41",
        "--fault-policy",
        "penalize-worst",
        "--eval-retries",
        "1",
    ];
    args.extend_from_slice(extra);
    args
}

/// Extracts the `"faults":{...}` object from a metrics.json body. The
/// object holds only flat counters, so it ends at the first `}`.
fn faults_object(metrics: &str) -> &str {
    let tail = metrics.split("\"faults\":{").nth(1).expect("metrics.json has a faults object");
    tail.split('}').next().expect("the faults object closes")
}

/// Extracts the contained-fault total from a metrics.json body.
fn fault_count(metrics: &str) -> u64 {
    let tail = faults_object(metrics).split("\"total\":").nth(1).expect("faults has a total");
    tail.chars().take_while(char::is_ascii_digit).collect::<String>().parse().expect("integer")
}

/// Runs `algorithm` under each fault kind at 1 and 4 threads and asserts
/// the deterministic artifacts (trace, front) are byte-identical across
/// thread counts, that faults were actually injected and contained (per
/// the metrics.json fault counters), and that the front holds only
/// finite objective values.
fn assert_chaos_matrix_row(algorithm: &str) {
    for (kind, spec) in FAULT_KINDS {
        let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
        for threads in ["1", "4"] {
            let dir = scratch(&format!("matrix-{algorithm}-{kind}-t{threads}"));
            let dir_str = dir.to_str().expect("utf-8 path");
            let out = moela_dse(&chaos_args(algorithm, spec, threads, dir_str, &[]));
            assert!(
                out.status.success(),
                "{algorithm} under {kind} chaos (threads {threads}) failed: {}",
                stderr_of(&out)
            );

            let metrics = String::from_utf8_lossy(&read(&dir.join("metrics.json"))).into_owned();
            assert!(
                fault_count(&metrics) > 0,
                "{algorithm}/{kind}: the chaos spec must actually inject ({metrics})"
            );

            let front = read(&dir.join("front.csv"));
            let front_text = String::from_utf8_lossy(&front);
            for token in front_text.lines().skip(1).flat_map(|l| l.split(',')) {
                let v: f64 = token.parse().unwrap_or_else(|e| {
                    panic!("{algorithm}/{kind}: non-numeric front cell '{token}': {e}")
                });
                assert!(v.is_finite(), "{algorithm}/{kind}: non-finite front value {v}");
                assert!(v < 1e30, "{algorithm}/{kind}: penalty vector leaked onto the front");
            }

            let artifacts = (read(&dir.join("trace.csv")), front);
            match &reference {
                None => reference = Some(artifacts),
                Some(first) => assert_eq!(
                    first, &artifacts,
                    "{algorithm}/{kind}: artifacts differ between 1 and 4 threads"
                ),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

macro_rules! chaos_matrix_tests {
    ($($name:ident: $algorithm:literal;)*) => {$(
        #[test]
        fn $name() {
            assert_chaos_matrix_row($algorithm);
        }
    )*};
}

chaos_matrix_tests! {
    moela_contains_every_fault_kind_at_any_thread_count: "moela";
    moead_contains_every_fault_kind_at_any_thread_count: "moead";
    moos_contains_every_fault_kind_at_any_thread_count: "moos";
    moo_stage_contains_every_fault_kind_at_any_thread_count: "moo-stage";
    nsga2_contains_every_fault_kind_at_any_thread_count: "nsga2";
    random_contains_every_fault_kind_at_any_thread_count: "random";
}

/// The chaos spec of the crash/resume tests.
const CRASH_SPEC: &str = "panic=0.03,nan=0.03,arity=0.02";

/// Runs `algorithm` under chaos to the end in one directory and, in a
/// second, aborts it after its first checkpoint. Returns both
/// directories, uninterrupted first.
fn chaos_crash_pair(algorithm: &str, tag: &str) -> (PathBuf, PathBuf) {
    let full = scratch(&format!("chaos-full-{tag}"));
    let full_dir = full.to_str().expect("utf-8 path");
    let out = moela_dse(&chaos_args(algorithm, CRASH_SPEC, "1", full_dir, &[]));
    assert!(out.status.success(), "uninterrupted chaotic run failed: {}", stderr_of(&out));

    let crashed = scratch(&format!("chaos-crashed-{tag}"));
    let crashed_dir = crashed.to_str().expect("utf-8 path");
    let out = moela_dse(&chaos_args(
        algorithm,
        CRASH_SPEC,
        "1",
        crashed_dir,
        &["--crash-after-checkpoints", "1"],
    ));
    assert!(!out.status.success(), "crash injection must abort the process");
    (full, crashed)
}

/// Resumes the `crashed` directory and asserts its artifacts are
/// byte-identical to the uninterrupted run's in `full` — the fault
/// stream continues from the checkpoint's evaluation count and the
/// fault counters round-trip through the checkpoint.
fn assert_resume_matches(tag: &str, full: &Path, crashed: &Path) {
    // Resume with a different thread count: still byte-identical.
    let out = moela_dse(&["resume", crashed.to_str().expect("utf-8 path"), "--threads", "4"]);
    assert!(out.status.success(), "chaotic resume failed: {}", stderr_of(&out));

    for file in ["trace.csv", "front.csv"] {
        assert_eq!(
            read(&full.join(file)),
            read(&crashed.join(file)),
            "{file} differs after chaotic crash+resume for {tag}"
        );
    }
    // metrics.json carries wall-clock data so whole files cannot be
    // compared, but the fault counters must round-trip exactly through
    // the checkpoint.
    let faults_of = |dir: &Path| {
        let metrics = String::from_utf8_lossy(&read(&dir.join("metrics.json"))).into_owned();
        faults_object(&metrics).to_owned()
    };
    assert_eq!(
        faults_of(full),
        faults_of(crashed),
        "fault counters differ after chaotic crash+resume for {tag}"
    );
    let _ = fs::remove_dir_all(full);
    let _ = fs::remove_dir_all(crashed);
}

macro_rules! chaos_resume_tests {
    ($($name:ident: $algorithm:literal;)*) => {$(
        #[test]
        fn $name() {
            let (full, crashed) = chaos_crash_pair($algorithm, $algorithm);
            assert_resume_matches($algorithm, &full, &crashed);
        }
    )*};
}

chaos_resume_tests! {
    moela_chaotic_crash_resume_is_bit_identical: "moela";
    moead_chaotic_crash_resume_is_bit_identical: "moead";
    moos_chaotic_crash_resume_is_bit_identical: "moos";
    moo_stage_chaotic_crash_resume_is_bit_identical: "moo-stage";
    nsga2_chaotic_crash_resume_is_bit_identical: "nsga2";
    random_chaotic_crash_resume_is_bit_identical: "random";
}

/// Older builds also wrote a `chaos_ordinal` envelope key, always equal
/// to the state's `evaluations`. A checkpoint that carries it still
/// resumes byte-identically: the key is read past and the fault stream
/// continues from the evaluation count.
#[test]
fn an_envelope_with_the_old_chaos_ordinal_resumes_bit_identically() {
    let (full, crashed) = chaos_crash_pair("nsga2", "old-envelope");
    let store = CheckpointStore::new(crashed.join("checkpoints")).expect("checkpoint store");
    let (seq, mut envelope, _) = store.load_latest().expect("load").expect("a checkpoint");
    assert!(envelope.field_opt("chaos_ordinal").is_none(), "current envelopes omit the key");
    let evaluations = envelope
        .field("state")
        .and_then(|state| state.field("evaluations"))
        .and_then(Value::as_u64)
        .expect("the state counts its evaluations");
    assert!(evaluations > 0, "the first checkpoint follows the initial population");
    // Where the older writer put it: after `elapsed_nanos`, before `state`.
    let Value::Object(fields) = &mut envelope else { panic!("an envelope is an object") };
    let at = fields.iter().position(|(key, _)| key == "state").expect("a state field");
    fields.insert(at, ("chaos_ordinal".to_owned(), Value::U64(evaluations)));
    store.save(seq, &envelope).expect("save the old-style checkpoint");

    assert_resume_matches("an old envelope", &full, &crashed);
}

#[test]
fn skip_policy_also_completes_under_chaos() {
    let dir = scratch("skip-policy");
    let dir_str = dir.to_str().expect("utf-8 path");
    let out = moela_dse(&[
        "run",
        "--app",
        "BFS",
        "--objectives",
        "3",
        "--algorithm",
        "nsga2",
        "--budget",
        "120",
        "--population",
        "8",
        "--seed",
        "7",
        "--run-dir",
        dir_str,
        "--chaos",
        "nan=0.1",
        "--chaos-seed",
        "5",
        "--fault-policy",
        "skip",
    ]);
    assert!(out.status.success(), "skip-policy run failed: {}", stderr_of(&out));
    let metrics = String::from_utf8_lossy(&read(&dir.join("metrics.json"))).into_owned();
    assert!(fault_count(&metrics) > 0, "nan=0.1 must inject: {metrics}");
    assert!(
        faults_object(&metrics).contains("\"fault_policy\":\"skip\""),
        "metrics record the policy: {metrics}"
    );
    // The deprecated health.json is gone for good: current runs write
    // the fault counters into metrics.json only.
    assert!(!dir.join("health.json").exists(), "health.json must no longer be written");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fail_policy_surfaces_a_structured_error() {
    let out = moela_dse(&[
        "run",
        "--app",
        "BFS",
        "--algorithm",
        "random",
        "--budget",
        "50",
        "--chaos",
        "panic=1",
        "--chaos-seed",
        "1",
        "--fault-policy",
        "fail",
    ]);
    assert_eq!(out.status.code(), Some(1), "a latched fail fault exits 1");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("error:"), "expected a user-facing error, got: {stderr}");
    assert!(stderr.contains("panic"), "the error names the fault kind: {stderr}");
    assert!(!stderr.contains("panicked at"), "the process itself must not panic: {stderr}");
}

#[test]
fn contradictory_flag_combinations_exit_with_code_2() {
    let cases: [&[&str]; 3] = [
        &["run", "--fault-policy", "fail", "--eval-retries", "2"],
        &["run", "--chaos", "panic=0.1"],
        &["run", "--chaos-seed", "9"],
    ];
    for args in cases {
        let out = moela_dse(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "contradictory combo {args:?} must exit 2, stderr: {}",
            stderr_of(&out)
        );
        assert!(stderr_of(&out).contains("error:"), "combo {args:?} prints a diagnostic");
    }
}

#[test]
fn malformed_flags_still_exit_with_code_1() {
    for args in [
        ["run", "--chaos", "panik=0.1", "--chaos-seed", "1"],
        ["run", "--fault-policy", "explode", "--budget", "10"],
    ] {
        let out = moela_dse(&args);
        assert_eq!(out.status.code(), Some(1), "malformed {args:?} exits 1");
    }
}

#[test]
fn clean_runs_print_no_health_line_but_chaotic_runs_do() {
    let out = moela_dse(&["run", "--app", "BFS", "--algorithm", "random", "--budget", "40"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        !stdout.contains("evaluation health"),
        "clean run must not print a health line: {stdout}"
    );

    let out = moela_dse(&[
        "run",
        "--app",
        "BFS",
        "--algorithm",
        "random",
        "--budget",
        "40",
        "--chaos",
        "nan=0.2",
        "--chaos-seed",
        "3",
        "--fault-policy",
        "penalize-worst",
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("evaluation health:"), "chaotic run prints health: {stdout}");
    assert!(stdout.contains("chaos injection:"), "chaotic run announces chaos: {stdout}");
}

/// Doctored manifests on a resumable nsga2 run directory: each edit is
/// one the flags would refuse, arriving through the path the flag parser
/// never sees. Each row is `(what, from, to, exit code, field named)`.
const HOSTILE_MANIFESTS: [(&str, &str, &str, i32, &str); 8] = [
    ("chaos without its seed", "\"chaos_seed\":41,", "", 2, "chaos"),
    ("population 0", "\"population\":8,", "\"population\":0,", 1, "population"),
    ("population 1", "\"population\":8,", "\"population\":1,", 1, "population"),
    ("budget 0", "\"budget\":120,", "\"budget\":0,", 1, "budget"),
    (
        "checkpoint_every 0",
        "\"checkpoint_every\":1,",
        "\"checkpoint_every\":0,",
        1,
        "checkpoint-every",
    ),
    (
        "fail with retries",
        "\"fault_policy\":\"penalize-worst\",\"eval_retries\":1,",
        "\"fault_policy\":\"fail\",\"eval_retries\":3,",
        2,
        "eval-retries",
    ),
    ("a seed without chaos", "\"chaos\":\"nan=0.05\",", "", 2, "chaos-seed"),
    (
        "non-boolean eval_delta",
        "\"normalizer\":",
        "\"eval_delta\":1,\"normalizer\":",
        1,
        "eval_delta",
    ),
];

#[test]
fn hostile_manifests_exit_with_a_message_without_panicking() {
    let dir = scratch("hostile-manifests");
    let dir_str = dir.to_str().expect("utf-8 path");
    let out = moela_dse(&chaos_args(
        "nsga2",
        "nan=0.05",
        "1",
        dir_str,
        &["--crash-after-checkpoints", "1"],
    ));
    assert!(!out.status.success(), "crash injection must abort the process");

    let manifest = dir.join("manifest.json");
    let original = String::from_utf8(read(&manifest)).expect("manifest is UTF-8");
    for (what, from, to, code, field) in HOSTILE_MANIFESTS {
        assert!(original.contains(from), "{what}: manifest lacks {from}: {original}");
        fs::write(&manifest, original.replacen(from, to, 1)).expect("rewrite manifest");
        let out = moela_dse(&["resume", dir_str]);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(code), "{what}: stderr: {stderr}");
        assert!(stderr.contains("error:"), "{what}: expected a structured diagnostic: {stderr}");
        assert!(stderr.contains(field), "{what}: the diagnostic names {field}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: the process must not panic: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}
