//! Run-analysis tests: `report` and the two-path `compare` gate.
//!
//! `report` is a pure reader over a finished run store, so its
//! `report.json` must agree exactly with the totals the engine itself
//! rendered into `metrics.json` — for every algorithm. The Chrome
//! trace export must be well-formed trace-event JSON. The replayer
//! must tolerate a torn final line (a writer killed mid-flush), stitch
//! resumed runs into multiple legs, and `compare` must exit 0 on a
//! self-comparison and 3 on a doctored regression.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use moela_persist::{decode, encode, Value};

const BIN: &str = env!("CARGO_BIN_EXE_moela-dse");

fn moela_dse(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn moela-dse")
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("moela-analysis-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
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

fn read_json(path: &Path) -> Value {
    let text =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    decode::from_str(&text).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()))
}

fn get<'a>(value: &'a Value, path: &[&str]) -> &'a Value {
    let mut cur = value;
    for key in path {
        cur = cur.field_opt(key).unwrap_or_else(|| panic!("missing field '{key}'"));
    }
    cur
}

fn entries(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(fields) => fields,
        other => panic!("expected an object, got {}", other.kind()),
    }
}

/// Runs one algorithm, reports on it, and checks the replay-derived
/// `report.json` against the engine's own `metrics.json`: identical
/// counters, identical per-phase counts and totals, one clean leg.
fn assert_report_round_trips(algorithm: &str) {
    let dir = scratch(&format!("report-{algorithm}"));
    run_algorithm(algorithm, &dir, &[]);
    let out = moela_dse(&["report", dir.to_str().expect("utf-8 path")]);
    assert!(
        out.status.success(),
        "{algorithm} report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = read_json(&dir.join("report.json"));
    let metrics = read_json(&dir.join("metrics.json"));

    // The replayer recomputed exactly what the live aggregator saw:
    // the counter maps are equal as whole objects.
    assert_eq!(
        get(&report, &["counters"]),
        get(&metrics, &["telemetry", "counters"]),
        "{algorithm}: replayed counters must equal the live totals"
    );
    // Same phase set, same counts, same total durations.
    let live_phases = get(&metrics, &["telemetry", "phases"]);
    let replayed = entries(get(&report, &["phases"]));
    assert_eq!(replayed.len(), entries(live_phases).len(), "{algorithm}: phase sets must match");
    for (name, stat) in replayed {
        let live = get(live_phases, &[name]);
        for key in ["count", "total_us", "self_us", "max_us"] {
            assert_eq!(
                get(stat, &[key]),
                get(live, &[key]),
                "{algorithm}: phase '{name}' disagrees on {key}"
            );
        }
        // The quantiles are replay-only; nearest-rank keeps them within
        // the observed range.
        let p50 = get(stat, &["p50_us"]).as_u64().unwrap();
        let p99 = get(stat, &["p99_us"]).as_u64().unwrap();
        let max = get(stat, &["max_us"]).as_u64().unwrap();
        assert!(p50 <= p99 && p99 <= max, "{algorithm}: '{name}' quantiles out of order");
    }
    // Checkpoint cost: one write per checkpoint, and the newest size is
    // the newest file's.
    let ckpt = get(&report, &["checkpoints"]);
    assert_eq!(get(ckpt, &["count"]), get(live_phases, &["checkpoint_write", "count"]));
    assert_eq!(
        get(ckpt, &["snapshot_us"]),
        get(live_phases, &["checkpoint_snapshot", "total_us"]),
        "{algorithm}: snapshot time is its own phase"
    );
    let newest = fs::read_dir(dir.join("checkpoints"))
        .expect("checkpoints dir")
        .map(|e| e.expect("dir entry").path())
        .max()
        .expect("a checkpoint");
    let size = fs::metadata(&newest).expect("stat").len();
    assert_eq!(get(ckpt, &["last_bytes"]).as_u64().unwrap(), size, "{algorithm}");
    assert_eq!(
        get(&metrics, &["telemetry", "gauges", "checkpoint_bytes"]).as_f64().unwrap(),
        size as f64
    );
    assert_eq!(
        get(&report, &["throughput", "evaluations"]),
        get(&metrics, &["telemetry", "counters", "evaluations"]),
        "{algorithm}: throughput must come from the replayed counter"
    );

    // A fresh single-process run replays to exactly one leg with fully
    // monotone timestamps and balanced spans.
    let events = get(&report, &["events"]);
    assert_eq!(get(events, &["legs"]).as_u64().unwrap(), 1, "{algorithm}: fresh run has one leg");
    assert_eq!(get(events, &["torn_tail"]), &Value::Bool(false), "{algorithm}: no torn tail");
    assert_eq!(get(events, &["unclosed_spans"]).as_u64().unwrap(), 0, "{algorithm}");
    assert_eq!(get(events, &["nesting_violations"]).as_u64().unwrap(), 0, "{algorithm}");

    assert_chrome_trace_well_formed(algorithm, &dir.join("trace.chrome.json"));
    let _ = fs::remove_dir_all(&dir);
}

/// The export must be loadable by Perfetto: a `traceEvents` array whose
/// complete events carry `ts` + `dur`, with per-worker evaluate lanes
/// and thread-name metadata.
fn assert_chrome_trace_well_formed(algorithm: &str, path: &Path) {
    let trace = read_json(path);
    let events = get(&trace, &["traceEvents"]).as_array().unwrap();
    assert!(!events.is_empty(), "{algorithm}: empty trace");
    let mut saw_complete = false;
    let mut saw_thread_names = false;
    let mut eval_worker_lane = false;
    for event in events {
        let ph = get(event, &["ph"]).as_str().unwrap();
        assert!(
            matches!(ph, "X" | "M" | "C" | "i"),
            "{algorithm}: unexpected phase '{ph}' in trace"
        );
        match ph {
            "X" => {
                saw_complete = true;
                assert!(event.field_opt("ts").is_some(), "{algorithm}: X event without ts");
                assert!(event.field_opt("dur").is_some(), "{algorithm}: X event without dur");
                if get(event, &["name"]).as_str().unwrap() == "evaluate"
                    && get(event, &["tid"]).as_u64().unwrap() >= 1
                {
                    eval_worker_lane = true;
                }
            }
            "M" if get(event, &["name"]).as_str().unwrap() == "thread_name" => {
                saw_thread_names = true;
            }
            _ => {}
        }
    }
    assert!(saw_complete, "{algorithm}: trace has no complete (X) events");
    assert!(saw_thread_names, "{algorithm}: trace has no thread_name metadata");
    assert!(eval_worker_lane, "{algorithm}: evaluate spans never land on a worker lane");
}

macro_rules! round_trip_tests {
    ($($name:ident: $algorithm:literal;)*) => {$(
        #[test]
        fn $name() {
            assert_report_round_trips($algorithm);
        }
    )*};
}

round_trip_tests! {
    moela_report_round_trips: "moela";
    moead_report_round_trips: "moead";
    moos_report_round_trips: "moos";
    moo_stage_report_round_trips: "moo-stage";
    nsga2_report_round_trips: "nsga2";
    random_report_round_trips: "random";
}

/// MOELA attributes improvements to both operator families: the
/// MOEADr-style split must be populated, not zero-filled.
#[test]
fn moela_report_attributes_operator_improvements() {
    let dir = scratch("operators");
    run_algorithm("moela", &dir, &[]);
    let out = moela_dse(&["report", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let report = read_json(&dir.join("report.json"));
    let ls = get(&report, &["operators", "ls_improvements"]).as_u64().unwrap();
    let ea = get(&report, &["operators", "ea_improvements"]).as_u64().unwrap();
    assert!(ls > 0, "local search produced no improvements at this seed");
    assert!(ea > 0, "evolutionary variation produced no improvements at this seed");
    let _ = fs::remove_dir_all(&dir);
}

/// A writer killed mid-flush leaves a torn final line. The replayer
/// must keep everything before the tear, warn, and flag it in the
/// report rather than failing the analysis.
#[test]
fn report_tolerates_a_torn_final_line() {
    let dir = scratch("torn");
    run_algorithm("moela", &dir, &[]);
    let events_path = dir.join("events.jsonl");
    let mut bytes = fs::read(&events_path).expect("events.jsonl");
    assert!(bytes.ends_with(b"\n"), "the intact log is newline-terminated");
    // Chop mid-way through the last record, exactly what a SIGKILL
    // between write and flush leaves behind.
    bytes.truncate(bytes.len() - 7);
    fs::write(&events_path, &bytes).expect("truncate events.jsonl");

    let out = moela_dse(&["report", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "report must survive a torn tail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated"), "no torn-tail warning on stderr: {stderr}");
    let report = read_json(&dir.join("report.json"));
    assert_eq!(get(&report, &["events", "torn_tail"]), &Value::Bool(true));
    let _ = fs::remove_dir_all(&dir);
}

/// A crash-plus-resume run writes two process legs into one log; the
/// replayer stitches them onto a single timeline and says so.
#[test]
fn report_stitches_a_resumed_run_into_two_legs() {
    let dir = scratch("legs");
    let dir_str = dir.to_str().expect("utf-8 path");
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
    let out = moela_dse(&["resume", dir_str]);
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));

    let out = moela_dse(&["report", dir_str]);
    assert!(out.status.success(), "report failed: {}", String::from_utf8_lossy(&out.stderr));
    let report = read_json(&dir.join("report.json"));
    assert_eq!(
        get(&report, &["events", "legs"]).as_u64().unwrap(),
        2,
        "one crash + one resume = two process legs"
    );
    assert_eq!(get(&report, &["resume", "resumed"]), &Value::Bool(true));
    let _ = fs::remove_dir_all(&dir);
}

/// An unfinished run (no trace.json yet) is a clear operational error,
/// not a crash or an empty report.
#[test]
fn report_refuses_an_unfinished_run() {
    let dir = scratch("unfinished");
    let dir_str = dir.to_str().expect("utf-8 path");
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
    assert!(!out.status.success());
    let out = moela_dse(&["report", dir_str]);
    assert_eq!(out.status.code(), Some(1), "unfinished run is an operational error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not finished"), "unhelpful error: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// Rewrites a run's metrics into a one-entry benchmark snapshot, with
/// its throughput inflated so any real run regresses against it.
fn doctored_bench(metrics_path: &Path, out_path: &Path) {
    let mut metrics = read_json(metrics_path);
    let algorithm = get(&metrics, &["algorithm"]).as_str().unwrap().to_owned();
    let Value::Object(fields) = &mut metrics else { panic!("metrics.json is an object") };
    let telemetry = &mut fields.iter_mut().find(|(n, _)| n == "telemetry").expect("telemetry").1;
    let Value::Object(telemetry) = telemetry else { panic!("telemetry is an object") };
    telemetry.iter_mut().find(|(n, _)| n == "evals_per_sec").expect("evals_per_sec").1 =
        Value::F64(9.9e9);
    let bench = Value::object(vec![("runs", Value::Object(vec![(algorithm, metrics)]))]);
    fs::write(out_path, encode::to_string(&bench)).expect("write bench");
}

/// The regression gate: comparing a run against itself passes; against
/// a baseline with doctored (impossibly fast) throughput it exits 3.
#[test]
fn compare_passes_self_and_gates_a_doctored_regression() {
    let dir = scratch("compare");
    run_algorithm("moela", &dir, &[]);
    let dir_str = dir.to_str().expect("utf-8 path");

    let out = moela_dse(&["compare", dir_str, dir_str]);
    assert!(
        out.status.success(),
        "self-compare must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no regression"), "no verdict line: {stdout}");

    let bench = dir.join("doctored-bench.json");
    doctored_bench(&dir.join("metrics.json"), &bench);
    let out = moela_dse(&["compare", bench.to_str().unwrap(), dir_str]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "a throughput regression must exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regress"), "no regression message: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// MOO-STAGE counts its meta search: the moves it made on predicted
/// `Eval`, and the episodes where it could not move and restarted at
/// random. Both reach metrics.json and the report's operators section,
/// and a baseline recorded before the counters existed still compares.
#[test]
fn moo_stage_reports_meta_moves_and_random_restarts() {
    let dir = scratch("meta-search");
    let dir_str = dir.to_str().expect("utf-8 path");
    let out = moela_dse(&[
        "run",
        "--app",
        "BFS",
        "--objectives",
        "3",
        "--algorithm",
        "moo-stage",
        "--budget",
        "600",
        "--population",
        "8",
        "--seed",
        "7",
        "--run-dir",
        dir_str,
    ]);
    assert!(out.status.success(), "run failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = moela_dse(&["report", dir_str]);
    assert!(out.status.success(), "report failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("meta search:") || stderr.contains("meta search:"),
        "no meta-search line in the summary"
    );

    let metrics = read_json(&dir.join("metrics.json"));
    let report = read_json(&dir.join("report.json"));
    let counter = |name: &str| get(&metrics, &["telemetry", "counters", name]).as_u64().unwrap();
    let (moves, restarts) = (counter("meta_moves"), counter("random_restarts"));
    assert!(moves > 0, "the meta search never moved at this seed");
    assert!(restarts > 0, "the meta search never restarted at this seed");
    assert!(restarts <= counter("generations"), "at most one restart per episode");
    assert_eq!(get(&report, &["operators", "meta_moves"]).as_u64().unwrap(), moves);
    assert_eq!(get(&report, &["operators", "random_restarts"]).as_u64().unwrap(), restarts);

    // The same run as an older snapshot without the two counters.
    let mut older = metrics.clone();
    let Value::Object(fields) = &mut older else { panic!("metrics.json is an object") };
    let telemetry = &mut fields.iter_mut().find(|(n, _)| n == "telemetry").expect("telemetry").1;
    let Value::Object(telemetry) = telemetry else { panic!("telemetry is an object") };
    let counters = &mut telemetry.iter_mut().find(|(n, _)| n == "counters").expect("counters").1;
    let Value::Object(counters) = counters else { panic!("counters is an object") };
    counters.retain(|(n, _)| n != "meta_moves" && n != "random_restarts");
    let bench = dir.join("older-bench.json");
    let snapshot = Value::object(vec![("runs", Value::Object(vec![("moo-stage".into(), older)]))]);
    fs::write(&bench, encode::to_string(&snapshot)).expect("write bench");
    let out = moela_dse(&["compare", bench.to_str().unwrap(), dir_str]);
    assert!(
        out.status.success(),
        "an older baseline must still compare: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&dir);
}
