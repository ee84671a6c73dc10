//! Observability tests: telemetry must be pure instrumentation.
//!
//! The determinism contract says wall-clock data flows only into
//! `events.jsonl`, `metrics.json`, and stderr — never into `trace.csv`,
//! `front.csv`, or checkpoints. So every optimizer's deterministic
//! artifacts must be byte-identical with telemetry fully on
//! (`--progress --log-level debug`) and fully off, `events.jsonl` must
//! hold well-formed events with balanced span nesting, `metrics.json`
//! must report the shared phase set, and `--log-level quiet` must leave
//! stdout empty.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moela-obs-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn read_text(path: &Path) -> String {
    String::from_utf8(read(path)).expect("utf-8 artifact")
}

/// Standard tiny run (the golden-test configuration) with extra flags.
fn run_algorithm(algorithm: &str, dir: &Path, extra: &[&str]) -> Output {
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
    let out = moela_dse(&args);
    assert!(
        out.status.success(),
        "{algorithm} run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Telemetry on vs off: the deterministic artifacts must not move by a
/// single byte for any optimizer.
fn assert_artifacts_unaffected(algorithm: &str) {
    let plain = scratch(&format!("{algorithm}-plain"));
    let traced = scratch(&format!("{algorithm}-traced"));
    run_algorithm(algorithm, &plain, &[]);
    run_algorithm(algorithm, &traced, &["--progress", "--log-level", "debug"]);
    for artifact in ["trace.csv", "front.csv"] {
        assert_eq!(
            read(&plain.join(artifact)),
            read(&traced.join(artifact)),
            "{algorithm}: {artifact} must be byte-identical with telemetry on and off"
        );
    }
    assert!(traced.join("events.jsonl").is_file(), "{algorithm}: events.jsonl missing");
    assert!(traced.join("metrics.json").is_file(), "{algorithm}: metrics.json missing");
    let _ = fs::remove_dir_all(&plain);
    let _ = fs::remove_dir_all(&traced);
}

macro_rules! purity_tests {
    ($($name:ident: $algorithm:literal;)*) => {$(
        #[test]
        fn $name() {
            assert_artifacts_unaffected($algorithm);
        }
    )*};
}

purity_tests! {
    moela_artifacts_unaffected_by_telemetry: "moela";
    moead_artifacts_unaffected_by_telemetry: "moead";
    moos_artifacts_unaffected_by_telemetry: "moos";
    moo_stage_artifacts_unaffected_by_telemetry: "moo-stage";
    nsga2_artifacts_unaffected_by_telemetry: "nsga2";
    random_artifacts_unaffected_by_telemetry: "random";
}

/// Pulls `"key":"value"` or `"key":123` text out of a JSON line without
/// a parser — enough for schema smoke checks.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn events_jsonl_is_well_formed_with_balanced_spans() {
    let dir = scratch("events-schema");
    run_algorithm("moela", &dir, &[]);
    let text = read_text(&dir.join("events.jsonl"));
    let mut stack: Vec<(String, String)> = Vec::new();
    let mut seen_spans = std::collections::BTreeSet::new();
    let mut last_t = 0u64;
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        let ty = field(line, "type").unwrap_or_else(|| panic!("no type: {line}"));
        let t: u64 = field(line, "t_us")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no t_us: {line}"));
        assert!(t >= last_t, "timestamps must be monotone: {line}");
        last_t = t;
        match ty {
            "enter" => {
                let span = field(line, "span").expect("enter has span").to_owned();
                let id = field(line, "id").expect("enter has id").to_owned();
                seen_spans.insert(span.clone());
                stack.push((span, id));
            }
            "exit" => {
                let span = field(line, "span").expect("exit has span");
                let id = field(line, "id").expect("exit has id");
                assert!(field(line, "dur_us").is_some(), "exit has dur_us: {line}");
                let (open_span, open_id) = stack.pop().expect("exit without enter");
                assert_eq!((open_span.as_str(), open_id.as_str()), (span, id), "bad nesting");
            }
            "counter" | "gauge" | "marker" => {
                assert!(field(line, "name").is_some(), "no name: {line}");
            }
            other => panic!("unknown event type '{other}': {line}"),
        }
    }
    assert!(stack.is_empty(), "unclosed spans at end of run: {stack:?}");
    // MOELA must emit its full shared span set.
    for span in [
        "evaluate",
        "select",
        "mate",
        "local_search",
        "surrogate_predict",
        "checkpoint_snapshot",
        "checkpoint_write",
    ] {
        assert!(seen_spans.contains(span), "missing span '{span}' (saw {seen_spans:?})");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn metrics_json_reports_phases_throughput_and_faults() {
    let dir = scratch("metrics-schema");
    run_algorithm("moela", &dir, &[]);
    let text = read_text(&dir.join("metrics.json"));
    for key in [
        "\"algorithm\":\"moela\"",
        "\"telemetry\":",
        "\"wall_us\":",
        "\"evals_per_sec\":",
        "\"phases\":",
        "\"evaluate\":",
        "\"self_us\":",
        "\"latency_hist\":",
        "\"counters\":",
        "\"evaluations\":",
        "\"phv_per_generation\":",
        "\"faults\":",
        "\"resume\":",
        "\"cache\":{\"routing_rebuilds\":",
        "\"routing_rebuilds\":",
        "\"routing_hits\":",
        "\"checkpoint_snapshot\":",
        "\"checkpoint_bytes\":",
    ] {
        assert!(text.contains(key), "metrics.json lacks {key}: {text}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn quiet_runs_produce_artifacts_only() {
    let dir = scratch("quiet");
    let out = run_algorithm("moela", &dir, &["--log-level", "quiet"]);
    assert!(
        out.stdout.is_empty(),
        "quiet run must print nothing on stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(dir.join("trace.csv").is_file());
    assert!(dir.join("metrics.json").is_file());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn progress_paints_a_live_line_on_stderr() {
    let dir = scratch("progress");
    let out = run_algorithm("moela", &dir, &["--progress"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("evals/s"), "progress line missing: {stderr}");
    assert!(stderr.contains("eta"), "progress line lacks an ETA: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// Resume appends to `events.jsonl` (never truncates) and counts only
/// post-resume work in its throughput accounting.
#[test]
fn resume_appends_events_and_accounts_from_the_checkpoint() {
    let dir = scratch("resume-append");
    let dir_str = dir.to_str().expect("utf-8 path");
    // First leg: crash after 2 checkpoints.
    let out = moela_dse(&[
        "run",
        "--app",
        "BFS",
        "--objectives",
        "3",
        "--algorithm",
        "moela",
        "--budget",
        "120",
        "--population",
        "8",
        "--seed",
        "7",
        "--run-dir",
        dir_str,
        "--crash-after-checkpoints",
        "2",
    ]);
    assert!(!out.status.success(), "the crash injection must abort the first leg");
    let first_leg = read_text(&dir.join("events.jsonl"));
    assert!(first_leg.contains("\"run_start\""), "first leg records the run start");
    let first_lines = first_leg.lines().count();
    assert!(first_lines > 0, "the first leg must emit events");

    let out = moela_dse(&["resume", dir_str]);
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    let both_legs = read_text(&dir.join("events.jsonl"));
    assert!(
        both_legs.starts_with(&first_leg),
        "resume must append to events.jsonl, not truncate it"
    );
    assert!(both_legs.lines().count() > first_lines, "the second leg must emit events");
    let resume_marker = both_legs
        .lines()
        .find(|l| l.contains("\"resume\""))
        .expect("the second leg records a resume marker");
    assert!(resume_marker.contains("checkpoint"), "marker names the checkpoint: {resume_marker}");

    // The metrics report knows it resumed and from how many prior evals.
    let metrics = read_text(&dir.join("metrics.json"));
    assert!(metrics.contains("\"resumed\":true"), "metrics must flag the resume: {metrics}");
    let prior = metrics
        .split("\"prior_evaluations\":")
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|t| t.trim().parse::<u64>().ok())
        .expect("metrics records prior_evaluations");
    assert!(prior > 0, "resume starts from checkpointed work, so prior must be positive");
    let _ = fs::remove_dir_all(&dir);
}
