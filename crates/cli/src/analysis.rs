//! Offline run analysis: the `moela-dse report` and two-directory
//! `moela-dse compare` subcommands.
//!
//! `report` replays a finished run directory's `events.jsonl` (see
//! [`moela_obs::replay`]) and joins it with the deterministic artifacts
//! (`trace.json`, `front.json`, the manifest's fitted normalizer) into
//! `report.json` — convergence telemetry, exact per-phase quantiles,
//! operator-improvement attribution, cache/fault summaries — plus
//! `trace.chrome.json`, a Perfetto-viewable Chrome trace-event export.
//! Both artifacts are additive: the analysis only ever reads the run
//! store, so byte-identity guarantees on the deterministic artifacts
//! are untouched.
//!
//! `compare <baseline> <candidate>` loads each side from a run
//! directory (its `metrics.json`) or a benchmark snapshot
//! (`BENCH_*.json`), refuses two sides run under a different
//! [`PROTOCOL_FIELDS`] value, prints per-algorithm deltas, and exits
//! with code [`REGRESSION_EXIT_CODE`] when the candidate regresses past
//! the configured thresholds — the CI bench gate.

use std::path::Path;
use std::time::Duration;

use moela_moo::run::{convergence_point, evaluations_to_reach, normalized_phv, TracePoint};
use moela_obs::{chrome_trace, names, replay_run_dir, LogLevel, Reporter, RunReplay};
use moela_persist::{decode, encode, RunStore, Value};

use crate::engine::{fail, options_from_manifest, user_error, CliError, ErrorClass};

/// Exit code for a compare-detected regression, distinct from 1
/// (operational failure) and 2 (configuration error) so CI can tell
/// "the candidate is worse" from "the tool broke".
pub(crate) const REGRESSION_EXIT_CODE: u8 = 3;

/// The run settings two compared sides must share. PHV and throughput
/// at budget 600 say nothing about a run at budget 2000, or on another
/// seed or application. A side that lacks a field is not checked on it.
const PROTOCOL_FIELDS: [&str; 3] = ["budget", "seed", "app"];

/// Relative-PHV slack inside which the terminal plateau counts as
/// converged (the paper's §V.C criterion: 0.5%).
const CONVERGENCE_TOLERANCE: f64 = 0.005;

/// Regression thresholds for `compare <baseline> <candidate>`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct CompareThresholds {
    /// Maximum tolerated relative final-PHV drop (e.g. 0.01 = 1%).
    pub(crate) max_phv_regression: f64,
    /// Maximum tolerated relative evals/s drop (e.g. 0.2 = 20%).
    pub(crate) max_rate_regression: f64,
}

impl Default for CompareThresholds {
    fn default() -> Self {
        // PHV is deterministic per seed, so even small drops are real;
        // throughput is wall-clock and needs generous slack for noisy
        // CI machines.
        Self { max_phv_regression: 0.01, max_rate_regression: 0.2 }
    }
}

fn read_json(path: &Path) -> Result<Value, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read {}: {e}", path.display())))?;
    decode::from_str(&text).map_err(|e| fail(format!("{} is not valid JSON: {e}", path.display())))
}

fn trace_points(trace: &Value) -> Result<Vec<TracePoint>, CliError> {
    trace
        .field("points")?
        .as_array()?
        .iter()
        .map(|p| {
            Ok(TracePoint {
                generation: p.field("generation")?.as_usize()?,
                evaluations: p.field("evaluations")?.as_u64()?,
                elapsed: Duration::ZERO,
                phv: p.field("phv")?.as_f64()?,
            })
        })
        .collect()
}

fn front_objectives(front: &Value) -> Result<Vec<Vec<f64>>, CliError> {
    front
        .field("objectives")?
        .as_array()?
        .iter()
        .map(|row| row.to_f64_vec().map_err(CliError::from))
        .collect()
}

fn phases_value(replay: &RunReplay) -> Value {
    Value::Object(
        replay
            .phases
            .iter()
            .map(|(name, stat)| {
                (
                    name.clone(),
                    Value::object(vec![
                        ("count", Value::U64(stat.count)),
                        ("total_us", Value::U64(stat.total_us)),
                        ("self_us", Value::U64(stat.self_us)),
                        ("max_us", Value::U64(stat.max_us)),
                        ("p50_us", Value::U64(stat.quantile_us(0.50))),
                        ("p90_us", Value::U64(stat.quantile_us(0.90))),
                        ("p99_us", Value::U64(stat.quantile_us(0.99))),
                    ]),
                )
            })
            .collect(),
    )
}

/// What the run's checkpoints cost: how many were written, the time
/// spent snapshotting state and writing files, and the newest and
/// largest file size.
fn checkpoints_value(replay: &RunReplay) -> Value {
    let total_us = |name: &str| replay.phase(name).map_or(0, |p| p.total_us);
    let sizes = replay.gauge_events.iter().filter(|(n, _, _)| n == "checkpoint_bytes");
    let max_bytes = sizes.map(|&(_, _, v)| v as u64).max().unwrap_or(0);
    Value::object(vec![
        ("count", Value::U64(replay.phase("checkpoint_write").map_or(0, |p| p.count))),
        ("snapshot_us", Value::U64(total_us("checkpoint_snapshot"))),
        ("write_us", Value::U64(total_us("checkpoint_write"))),
        ("last_bytes", Value::U64(replay.gauge("checkpoint_bytes").map_or(0, |v| v as u64))),
        ("max_bytes", Value::U64(max_bytes)),
    ])
}

/// Per-gauge and per-counter time series on the stitched global
/// timeline, for plotting convergence and cache behavior over the run.
fn trends_value(replay: &RunReplay) -> Value {
    let mut gauges: Vec<(String, Value)> = Vec::new();
    for (name, t_us, value) in &replay.gauge_events {
        let point = Value::object(vec![("t_us", Value::U64(*t_us)), ("value", Value::F64(*value))]);
        match gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, Value::Array(points))) => points.push(point),
            _ => gauges.push((name.clone(), Value::Array(vec![point]))),
        }
    }
    let mut counters: Vec<(String, Value)> = Vec::new();
    for (name, t_us, delta) in &replay.counter_events {
        let point = Value::object(vec![("t_us", Value::U64(*t_us)), ("delta", Value::U64(*delta))]);
        match counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, Value::Array(points))) => points.push(point),
            _ => counters.push((name.clone(), Value::Array(vec![point]))),
        }
    }
    Value::object(vec![("gauges", Value::Object(gauges)), ("counters", Value::Object(counters))])
}

/// Builds the analysis artifacts for a finished run directory: the
/// `report.json` document and the Chrome trace-event export. Read-only
/// over the store.
pub(crate) fn build_report(dir: &Path) -> Result<(Value, Value), CliError> {
    let store = RunStore::open(dir)?;
    let manifest = store.read_manifest()?;
    let (opts, normalizer) = options_from_manifest(&manifest)?;
    if !store.trace_json_path().is_file() {
        return Err(fail(format!(
            "{} has no trace.json — the run has not finished (resume it first)",
            dir.display()
        )));
    }
    let trace = trace_points(&read_json(&store.trace_json_path())?)?;
    let front = front_objectives(&read_json(&store.front_json_path())?)?;
    let replay = replay_run_dir(dir).map_err(|e| fail(e.to_string()))?;

    // Convergence telemetry (§V.C): the deterministic trace carries PHV
    // per generation; the front is re-scored through the manifest's
    // fitted normalizer as an end-to-end recomputation check on the
    // persisted artifacts.
    let final_phv = trace.last().map_or(0.0, |p| p.phv);
    let front_phv = normalized_phv(&front, &normalizer);
    let evaluations = trace.last().map_or(0, |p| p.evaluations);
    let to_99 = evaluations_to_reach(&trace, 0.99 * final_phv);
    let converged_at = convergence_point(&trace, CONVERGENCE_TOLERANCE)
        .and_then(|idx| trace.get(idx))
        .map(|p| p.evaluations);
    let phv_series = trace
        .iter()
        .map(|p| {
            Value::object(vec![
                ("evaluations", Value::U64(p.evaluations)),
                ("phv", Value::F64(p.phv)),
            ])
        })
        .collect();
    let mut convergence = vec![
        ("final_phv", Value::F64(final_phv)),
        ("front_phv_recomputed", Value::F64(front_phv)),
        ("evaluations", Value::U64(evaluations)),
    ];
    if let Some(evals) = to_99 {
        convergence.push(("evaluations_to_99pct", Value::U64(evals)));
    }
    if let Some(evals) = converged_at {
        convergence.push(("convergence_evaluations", Value::U64(evals)));
    }
    convergence.push(("phv_over_evaluations", Value::Array(phv_series)));

    let wall_s = replay.wall_us as f64 / 1e6;
    let replay_evals = replay.counter("evaluations");
    let evals_per_sec = if wall_s > 0.0 { replay_evals as f64 / wall_s } else { 0.0 };

    let cache_hits = replay.counter("cache_hits");
    let cache_misses = replay.counter("cache_misses");
    let cache_lookups = cache_hits + cache_misses;
    let hit_rate = if cache_lookups > 0 { cache_hits as f64 / cache_lookups as f64 } else { 0.0 };

    let mut fields = vec![
        (
            "run",
            Value::object(vec![
                ("algorithm", Value::Str(opts.algorithm.name().to_owned())),
                ("app", Value::Str(opts.app.name().to_owned())),
                ("seed", Value::U64(opts.seed)),
                ("budget", Value::U64(opts.budget)),
                ("population", Value::U64(opts.population as u64)),
                ("threads", Value::U64(opts.threads as u64)),
            ]),
        ),
        ("convergence", Value::object(convergence)),
        (
            // MOEADr-style attribution: which operator family actually
            // produced the archive/population improvements.
            "operators",
            Value::object(vec![
                ("ls_improvements", Value::U64(replay.counter(names::LS_IMPROVEMENTS))),
                ("ea_improvements", Value::U64(replay.counter(names::EA_IMPROVEMENTS))),
                // MOO-STAGE's meta search: moves it made, and episodes it
                // could not move at all and restarted at random.
                ("meta_moves", Value::U64(replay.counter(names::META_MOVES))),
                ("random_restarts", Value::U64(replay.counter(names::RANDOM_RESTARTS))),
            ]),
        ),
        (
            "throughput",
            Value::object(vec![
                ("evaluations", Value::U64(replay_evals)),
                ("wall_us", Value::U64(replay.wall_us)),
                ("evals_per_sec", Value::F64(evals_per_sec)),
            ]),
        ),
        ("phases", phases_value(&replay)),
        ("checkpoints", checkpoints_value(&replay)),
        (
            "counters",
            Value::Object(
                replay.counters.iter().map(|(n, v)| (n.clone(), Value::U64(*v))).collect(),
            ),
        ),
        (
            "cache",
            Value::object(vec![
                ("hits", Value::U64(cache_hits)),
                ("misses", Value::U64(cache_misses)),
                ("evictions", Value::U64(replay.counter("cache_evictions"))),
                ("routing_rebuilds", Value::U64(replay.counter("routing_rebuilds"))),
                ("routing_hits", Value::U64(replay.counter("routing_hits"))),
                ("hit_rate", Value::F64(hit_rate)),
            ]),
        ),
        (
            "delta",
            Value::object(vec![
                ("hits", Value::U64(replay.counter("delta_hits"))),
                ("fallbacks", Value::U64(replay.counter("delta_fallbacks"))),
            ]),
        ),
        ("trends", trends_value(&replay)),
        (
            "events",
            Value::object(vec![
                ("lines", Value::U64(replay.lines)),
                ("legs", Value::U64(replay.legs as u64)),
                ("torn_tail", Value::Bool(replay.torn_tail)),
                ("unclosed_spans", Value::U64(replay.unclosed_spans)),
                ("nesting_violations", Value::U64(replay.nesting_violations)),
                ("wall_us", Value::U64(replay.wall_us)),
            ]),
        ),
    ];
    // Fault counters live in metrics.json (written at finish); carry
    // them through verbatim when present so the report is one-stop.
    if let Ok(metrics) = read_json(&store.metrics_path()) {
        if let Some(faults) = metrics.field_opt("faults") {
            fields.push(("faults", faults.clone()));
        }
        if let Some(resume) = metrics.field_opt("resume") {
            fields.push(("resume", resume.clone()));
        }
    }
    let report = Value::object(fields);
    let chrome = chrome_trace(&replay, opts.threads.max(1));
    Ok((report, chrome))
}

/// The `moela-dse report <DIR>` body: builds and writes `report.json`
/// and `trace.chrome.json`, then prints a human summary.
pub(crate) fn report(dir: &str, log_level: LogLevel) -> Result<(), CliError> {
    let reporter = Reporter::new(log_level);
    let store = RunStore::open(dir)?;
    let (report, chrome) = build_report(store.root())?;
    store.write_report(&report)?;
    store.write_chrome_trace(&chrome)?;

    let run = report.field("run")?;
    let conv = report.field("convergence")?;
    let events = report.field("events")?;
    reporter.info(&format!(
        "{} on {} (seed {}): PHV {:.4} over {} evaluations",
        run.field("algorithm")?.as_str()?,
        run.field("app")?.as_str()?,
        run.field("seed")?.as_u64()?,
        conv.field("final_phv")?.as_f64()?,
        conv.field("evaluations")?.as_u64()?,
    ));
    reporter.info(&format!(
        "  front re-scored through the manifest normalizer: PHV {:.4}",
        conv.field("front_phv_recomputed")?.as_f64()?
    ));
    if let Some(evals) = conv.field_opt("evaluations_to_99pct") {
        reporter.info(&format!("  reached 99% of final PHV after {} evaluations", evals.as_u64()?));
    }
    if let Some(evals) = conv.field_opt("convergence_evaluations") {
        reporter.info(&format!(
            "  converged (plateau within {:.1}%) at {} evaluations",
            CONVERGENCE_TOLERANCE * 100.0,
            evals.as_u64()?
        ));
    }
    let ops = report.field("operators")?;
    reporter.info(&format!(
        "  improvements: {} from local search, {} from evolutionary variation",
        ops.field("ls_improvements")?.as_u64()?,
        ops.field("ea_improvements")?.as_u64()?
    ));
    let (meta_moves, restarts) =
        (ops.field("meta_moves")?.as_u64()?, ops.field("random_restarts")?.as_u64()?);
    if meta_moves + restarts > 0 {
        reporter.info(&format!(
            "  meta search: {meta_moves} moves on predicted Eval, {restarts} random restarts"
        ));
    }
    let throughput = report.field("throughput")?;
    reporter.info(&format!(
        "  throughput: {:.1} evals/s over {:.2}s of traced wall clock",
        throughput.field("evals_per_sec")?.as_f64()?,
        throughput.field("wall_us")?.as_u64()? as f64 / 1e6
    ));
    let delta = report.field("delta")?;
    let (delta_hits, delta_fallbacks) =
        (delta.field("hits")?.as_u64()?, delta.field("fallbacks")?.as_u64()?);
    if delta_hits + delta_fallbacks > 0 {
        reporter.info(&format!(
            "  delta evaluation: {delta_hits} incremental, {delta_fallbacks} full fallbacks"
        ));
    }
    let ckpt = report.field("checkpoints")?;
    let written = ckpt.field("count")?.as_u64()?;
    if written > 0 {
        reporter.info(&format!(
            "  checkpoints: {written} written, newest {} bytes (largest {}); \
             snapshot {}us, encode+write {}us",
            ckpt.field("last_bytes")?.as_u64()?,
            ckpt.field("max_bytes")?.as_u64()?,
            ckpt.field("snapshot_us")?.as_u64()?,
            ckpt.field("write_us")?.as_u64()?,
        ));
    }
    if let Value::Object(phases) = report.field("phases")? {
        for (name, stat) in phases {
            reporter.info(&format!(
                "  phase {:<20} count {:>6}  total {:>9}us  p50 {:>7}us  p90 {:>7}us  p99 {:>7}us",
                name,
                stat.field("count")?.as_u64()?,
                stat.field("total_us")?.as_u64()?,
                stat.field("p50_us")?.as_u64()?,
                stat.field("p90_us")?.as_u64()?,
                stat.field("p99_us")?.as_u64()?,
            ));
        }
    }
    let legs = events.field("legs")?.as_u64()?;
    if legs > 1 {
        reporter.info(&format!("  event log spans {legs} process legs (resumed run)"));
    }
    if events.field("torn_tail")?.as_bool()? {
        reporter.warn(
            "events.jsonl ends in a truncated line (the writer was killed mid-flush); \
             the torn tail was skipped",
        );
    }
    let unclosed = events.field("unclosed_spans")?.as_u64()?;
    if unclosed > 0 {
        reporter.warn(&format!("{unclosed} spans never closed (events lost to a crash)"));
    }
    reporter.info(&format!(
        "report written to {} (open {} at https://ui.perfetto.dev)",
        store.report_path().display(),
        store.chrome_trace_path().display()
    ));
    Ok(())
}

/// One side of a comparison.
struct Side {
    /// The document carrying the [`PROTOCOL_FIELDS`]: the run's
    /// `metrics.json`, or the snapshot's top level.
    protocol: Value,
    /// `(algorithm, metrics.json-shaped value)` rows.
    runs: Vec<(String, Value)>,
}

/// Loads one side of a comparison from a run directory or a
/// `BENCH_*.json` snapshot.
fn load_side(path: &str) -> Result<Side, CliError> {
    let p = Path::new(path);
    if p.is_dir() {
        let store = RunStore::open(p)?;
        if !store.metrics_path().is_file() {
            return Err(fail(format!(
                "{} has no metrics.json — the run has not finished (resume it first)",
                p.display()
            )));
        }
        let metrics = read_json(&store.metrics_path())?;
        let algorithm = metrics.field("algorithm")?.as_str()?.to_owned();
        return Ok(Side { protocol: metrics.clone(), runs: vec![(algorithm, metrics)] });
    }
    let bench = read_json(p)?;
    let runs = bench.field_opt("runs").ok_or_else(|| {
        fail(format!(
            "{} is neither a run directory nor a benchmark snapshot with a \"runs\" map",
            p.display()
        ))
    })?;
    let Value::Object(entries) = runs else {
        return Err(fail(format!("{}: \"runs\" must be an object", p.display())));
    };
    Ok(Side { runs: entries.clone(), protocol: bench })
}

/// `Err` naming the first [`PROTOCOL_FIELDS`] entry both sides carry
/// with different values.
fn check_protocol(base: &Side, cand: &Side) -> Result<(), CliError> {
    for field in PROTOCOL_FIELDS {
        let (Some(b), Some(c)) = (base.protocol.field_opt(field), cand.protocol.field_opt(field))
        else {
            continue;
        };
        if b != c {
            return Err(user_error(format!(
                "cannot compare runs with different {field}: baseline {}, candidate {}",
                encode::to_string(b),
                encode::to_string(c)
            )));
        }
    }
    Ok(())
}

/// Final PHV and evaluation throughput for one `metrics.json`-shaped
/// value. Either may be absent (e.g. a pre-telemetry snapshot).
fn run_stats(metrics: &Value) -> (Option<f64>, Option<f64>) {
    let Some(telemetry) = metrics.field_opt("telemetry") else { return (None, None) };
    let phv = telemetry
        .field_opt("phv_per_generation")
        .and_then(|s| s.as_array().ok())
        .and_then(|s| s.last())
        .and_then(|v| v.as_f64().ok());
    let rate = telemetry.field_opt("evals_per_sec").and_then(|v| v.as_f64().ok());
    (phv, rate)
}

fn pct(delta: f64) -> String {
    format!("{:+.2}%", delta * 100.0)
}

/// The `moela-dse compare <baseline> <candidate>` body: prints
/// per-algorithm deltas and fails with [`REGRESSION_EXIT_CODE`] when
/// the candidate regresses past `thresholds`.
pub(crate) fn compare_runs(
    baseline: &str,
    candidate: &str,
    thresholds: &CompareThresholds,
) -> Result<(), CliError> {
    let base = load_side(baseline)?;
    let cand = load_side(candidate)?;
    check_protocol(&base, &cand)?;
    let (base, cand) = (base.runs, cand.runs);
    println!("comparing {candidate} against baseline {baseline}");
    println!(
        "{:<12} {:>12} {:>12} {:>9}   {:>12} {:>12} {:>9}",
        "algorithm", "base PHV", "cand PHV", "ΔPHV", "base ev/s", "cand ev/s", "Δrate"
    );
    let mut compared = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    for (algorithm, base_metrics) in &base {
        let Some((_, cand_metrics)) = cand.iter().find(|(a, _)| a == algorithm) else {
            println!("{algorithm:<12} missing from candidate — skipped");
            continue;
        };
        let (base_phv, base_rate) = run_stats(base_metrics);
        let (cand_phv, cand_rate) = run_stats(cand_metrics);
        let phv_delta = match (base_phv, cand_phv) {
            (Some(b), Some(c)) if b > 0.0 => Some((c - b) / b),
            _ => None,
        };
        let rate_delta = match (base_rate, cand_rate) {
            (Some(b), Some(c)) if b > 0.0 => Some((c - b) / b),
            _ => None,
        };
        println!(
            "{:<12} {:>12} {:>12} {:>9}   {:>12} {:>12} {:>9}",
            algorithm,
            base_phv.map_or("-".into(), |v| format!("{v:.4}")),
            cand_phv.map_or("-".into(), |v| format!("{v:.4}")),
            phv_delta.map_or("-".into(), pct),
            base_rate.map_or("-".into(), |v| format!("{v:.1}")),
            cand_rate.map_or("-".into(), |v| format!("{v:.1}")),
            rate_delta.map_or("-".into(), pct),
        );
        compared += 1;
        if let Some(d) = phv_delta {
            if d < -thresholds.max_phv_regression {
                regressions.push(format!(
                    "{algorithm}: PHV regressed {} (threshold {})",
                    pct(d),
                    pct(-thresholds.max_phv_regression)
                ));
            }
        }
        if let Some(d) = rate_delta {
            if d < -thresholds.max_rate_regression {
                regressions.push(format!(
                    "{algorithm}: throughput regressed {} (threshold {})",
                    pct(d),
                    pct(-thresholds.max_rate_regression)
                ));
            }
        }
    }
    if compared == 0 {
        return Err(fail("no algorithm appears in both the baseline and the candidate"));
    }
    if !regressions.is_empty() {
        return Err(CliError {
            message: format!("regression detected:\n  {}", regressions.join("\n  ")),
            code: REGRESSION_EXIT_CODE,
            class: ErrorClass::Fatal,
        });
    }
    println!(
        "no regression past thresholds (PHV {:.1}%, rate {:.1}%)",
        thresholds.max_phv_regression * 100.0,
        thresholds.max_rate_regression * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(phv: f64, rate: f64) -> Value {
        Value::object(vec![
            ("algorithm", Value::Str("moela".into())),
            (
                "telemetry",
                Value::object(vec![
                    ("evals_per_sec", Value::F64(rate)),
                    ("phv_per_generation", Value::Array(vec![Value::F64(0.1), Value::F64(phv)])),
                ]),
            ),
        ])
    }

    #[test]
    fn run_stats_reads_the_last_phv_and_the_rate() {
        let (phv, rate) = run_stats(&metrics(0.75, 123.5));
        assert_eq!(phv, Some(0.75));
        assert_eq!(rate, Some(123.5));
        assert_eq!(run_stats(&Value::object(vec![])), (None, None));
    }

    #[test]
    fn compare_detects_regressions_with_exit_code_3() {
        let dir = std::env::temp_dir().join(format!("moela-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, runs: Value| {
            let doc = Value::object(vec![("runs", runs)]);
            std::fs::write(dir.join(name), moela_persist::encode::to_string(&doc)).unwrap();
        };
        write("base.json", Value::Object(vec![("moela".into(), metrics(0.80, 100.0))]));
        write("same.json", Value::Object(vec![("moela".into(), metrics(0.80, 100.0))]));
        write("slow.json", Value::Object(vec![("moela".into(), metrics(0.80, 10.0))]));
        write("worse.json", Value::Object(vec![("moela".into(), metrics(0.50, 100.0))]));
        let base = dir.join("base.json");
        let thresholds = CompareThresholds::default();
        let path = |n: &str| dir.join(n).to_string_lossy().into_owned();
        assert!(compare_runs(&path("base.json"), &path("same.json"), &thresholds).is_ok());
        let err = compare_runs(&path("base.json"), &path("slow.json"), &thresholds)
            .expect_err("rate regression");
        assert_eq!(err.code, REGRESSION_EXIT_CODE);
        assert!(err.message.contains("throughput"), "{}", err.message);
        let err = compare_runs(&path("base.json"), &path("worse.json"), &thresholds)
            .expect_err("phv regression");
        assert_eq!(err.code, REGRESSION_EXIT_CODE);
        assert!(err.message.contains("PHV"), "{}", err.message);
        let _ = base;
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_refuses_sides_run_under_another_protocol() {
        let dir = std::env::temp_dir().join(format!("moela-compare-proto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Doctored snapshots in the shape of BENCH_2026-08-06.json and
        // BENCH_2026-08-08.json: protocol fields at the top level.
        let write = |name: &str, protocol: Vec<(&str, Value)>| {
            let mut fields = protocol;
            fields.push(("runs", Value::Object(vec![("moela".into(), metrics(0.80, 100.0))])));
            let doc = Value::object(fields);
            std::fs::write(dir.join(name), moela_persist::encode::to_string(&doc)).unwrap();
            dir.join(name).to_string_lossy().into_owned()
        };
        let hot = || ("app", Value::Str("HOT".into()));
        let old =
            write("old.json", vec![("budget", Value::U64(600)), ("seed", Value::U64(7)), hot()]);
        let new =
            write("new.json", vec![("budget", Value::U64(2000)), ("seed", Value::U64(11)), hot()]);
        let reseeded =
            write("reseeded.json", vec![("budget", Value::U64(600)), ("seed", Value::U64(11))]);
        let bfs =
            write("bfs.json", vec![("budget", Value::U64(600)), ("app", Value::Str("BFS".into()))]);
        let bare = write("bare.json", Vec::new());
        let thresholds = CompareThresholds::default();
        for (candidate, field) in [(&new, "budget"), (&reseeded, "seed"), (&bfs, "app")] {
            let err = compare_runs(&old, candidate, &thresholds).expect_err("protocols differ");
            assert_eq!(err.code, 2, "{}", err.message);
            assert!(err.message.contains(&format!("different {field}")), "{}", err.message);
        }
        // A side without the fields still compares, against either.
        assert!(compare_runs(&old, &bare, &thresholds).is_ok());
        assert!(compare_runs(&bare, &new, &thresholds).is_ok());
        assert!(compare_runs(&old, &old, &thresholds).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bench_file_without_runs_is_rejected() {
        let dir = std::env::temp_dir().join(format!("moela-compare-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a-bench.json");
        std::fs::write(&path, "{\"date\":\"2026-08-08\"}").unwrap();
        let err = load_side(&path.to_string_lossy()).err().expect("no runs map");
        assert!(err.message.contains("runs"), "{}", err.message);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
