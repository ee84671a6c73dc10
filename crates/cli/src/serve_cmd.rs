//! The `moela-dse serve` subcommand: plugs the CLI's run engine into
//! the embedded `moela-serve` job server.
//!
//! The [`DseRunner`] is the serve-side [`JobRunner`]: it validates a
//! submission spec with the same rules the flag parser applies, then
//! drives the job through `engine::run` — or `engine::resume` when the
//! job's directory already holds checkpoints from a previous server
//! life — so served artifacts are byte-identical to `moela-dse run`
//! with the same configuration.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use moela_manycore::ObjectiveSet;
use moela_moo::fault::FaultPolicy;
use moela_moo::ChaosSpec;
use moela_obs::LogLevel;
use moela_persist::Value;
use moela_serve::{
    JobContext, JobRunner, ReportBuilder, RunError, RunOutcome, ServeConfig, Server,
};
use moela_traffic::Benchmark;

use crate::args::{self, Algorithm, RunOptions, ServeOptions};
use crate::engine::{self, fail, CliError, ErrorClass, ExecHooks, ResumeOverrides, RunStatus};

/// The spec keys a job submission may set; everything else is rejected
/// so a typo (`"algorthm"`) fails loudly instead of running defaults.
const SPEC_KEYS: [&str; 16] = [
    "app",
    "objectives",
    "algorithm",
    "budget",
    "population",
    "seed",
    "threads",
    "time_guard_secs",
    "checkpoint_every",
    "fault_policy",
    "eval_retries",
    "eval_cache",
    "eval_delta",
    "chaos",
    "chaos_seed",
    "timeout_s",
];

/// Translates a submission spec into [`RunOptions`]. Unknown keys are
/// errors; absent keys take the same defaults as the `run` flags,
/// except the checkpoint cadence which falls back to the server's
/// `--checkpoint-every` so every served job is resumable.
fn spec_to_options(spec: &Value, default_checkpoint_every: u64) -> Result<RunOptions, String> {
    let Value::Object(fields) = spec else {
        return Err("job spec must be a JSON object".into());
    };
    for (key, _) in fields {
        if !SPEC_KEYS.contains(&key.as_str()) {
            return Err(format!("unknown spec key '{key}' (accepted: {})", SPEC_KEYS.join(", ")));
        }
    }
    let mut opts = RunOptions { checkpoint_every: default_checkpoint_every, ..Default::default() };
    let str_field = |name: &str| -> Result<Option<&str>, String> {
        match spec.field_opt(name) {
            Some(v) => {
                v.as_str().map(Some).map_err(|_| format!("spec key '{name}' must be a string"))
            }
            None => Ok(None),
        }
    };
    let u64_field = |name: &str| -> Result<Option<u64>, String> {
        match spec.field_opt(name) {
            Some(v) => v
                .as_u64()
                .map(Some)
                .map_err(|_| format!("spec key '{name}' must be a non-negative integer")),
            None => Ok(None),
        }
    };
    if let Some(name) = str_field("app")? {
        opts.app = Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown app '{name}'"))?;
    }
    if let Some(n) = u64_field("objectives")? {
        opts.set = match n {
            3 => ObjectiveSet::Three,
            4 => ObjectiveSet::Four,
            5 => ObjectiveSet::Five,
            other => return Err(format!("objectives must be 3, 4, or 5 (got {other})")),
        };
    }
    if let Some(name) = str_field("algorithm")? {
        opts.algorithm = Algorithm::parse(name)?;
    }
    if let Some(n) = u64_field("budget")? {
        opts.budget = n;
    }
    if let Some(n) = u64_field("population")? {
        opts.population = n as usize;
    }
    if let Some(n) = u64_field("seed")? {
        opts.seed = n;
    }
    if let Some(n) = u64_field("threads")? {
        opts.threads = n as usize;
    }
    if let Some(n) = u64_field("time_guard_secs")? {
        opts.time_guard = Duration::from_secs(n);
    }
    if let Some(n) = u64_field("checkpoint_every")? {
        opts.checkpoint_every = n;
    }
    if let Some(name) = str_field("fault_policy")? {
        opts.fault_policy = FaultPolicy::parse(name)?;
    }
    if let Some(n) = u64_field("eval_retries")? {
        opts.eval_retries = u32::try_from(n)
            .map_err(|_| format!("spec key 'eval_retries' must be at most {}", u32::MAX))?;
    }
    if let Some(v) = spec.field_opt("eval_cache") {
        opts.eval_cache = engine::eval_cache_flag(v).map_err(|_| {
            "spec key 'eval_cache' must be a boolean or a non-negative integer".to_owned()
        })?;
    }
    // Specs written for earlier builds may carry `eval_delta`; its value
    // never changed a result, so it is checked and ignored.
    if let Some(v) = spec.field_opt("eval_delta") {
        v.as_bool().map_err(|_| "spec key 'eval_delta' must be a boolean".to_owned())?;
    }
    if let Some(s) = str_field("chaos")? {
        opts.chaos = Some(ChaosSpec::parse(s)?);
    }
    if let Some(n) = u64_field("chaos_seed")? {
        opts.chaos_seed = Some(n);
    }
    // `timeout_s` is validated here (so submission rejects it loudly)
    // but enforced by the server's supervisor, not the run engine.
    timeout_from_spec(spec)?;
    // Served jobs log through job.json and events.jsonl, not the server's
    // stdout; interactive progress painting makes no sense here either.
    opts.log_level = LogLevel::Quiet;
    opts.progress = false;
    args::validate_run_options(&opts).map_err(|e| e.message)?;
    Ok(opts)
}

/// Extracts and validates the optional per-job wall-clock deadline. The
/// engine never sees it — the server's supervisor enforces it at step
/// boundaries through the cancel seam.
fn timeout_from_spec(spec: &Value) -> Result<Option<u64>, String> {
    match spec.field_opt("timeout_s") {
        Some(v) => {
            let secs = v
                .as_u64()
                .map_err(|_| "spec key 'timeout_s' must be a positive integer (seconds)")?;
            if secs == 0 {
                return Err("spec key 'timeout_s' must be at least 1 second".into());
            }
            Ok(Some(secs))
        }
        None => Ok(None),
    }
}

/// Renders the effective configuration back into a spec object. This is
/// what gets persisted in `job.json`, so a restarted server re-derives
/// the identical [`RunOptions`] without reparsing the client's input.
fn normalized_spec(opts: &RunOptions) -> Value {
    let mut fields = vec![
        ("app", Value::Str(opts.app.name().to_owned())),
        ("objectives", Value::U64(opts.set.count() as u64)),
        ("algorithm", Value::Str(opts.algorithm.name().to_owned())),
        ("budget", Value::U64(opts.budget)),
        ("population", Value::U64(opts.population as u64)),
        ("seed", Value::U64(opts.seed)),
        ("threads", Value::U64(opts.threads as u64)),
        ("time_guard_secs", Value::U64(opts.time_guard.as_secs())),
        ("checkpoint_every", Value::U64(opts.checkpoint_every)),
        ("fault_policy", Value::Str(opts.fault_policy.name().to_owned())),
        ("eval_retries", Value::U64(u64::from(opts.eval_retries))),
        ("eval_cache", Value::Bool(opts.eval_cache)),
    ];
    if let Some(spec) = &opts.chaos {
        fields.push(("chaos", Value::Str(spec.to_string())));
    }
    if let Some(seed) = opts.chaos_seed {
        fields.push(("chaos_seed", Value::U64(seed)));
    }
    Value::object(fields)
}

/// True when `dir` holds at least one *completed* checkpoint file
/// (`ckpt-NNNNNNNN.json`), ignoring atomic-write `.tmp` siblings a
/// crash may have stranded.
fn has_checkpoint(dir: &std::path::Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else { return false };
    entries.flatten().any(|entry| {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { return false };
        name.strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .is_some_and(|digits| digits.parse::<u64>().is_ok())
    })
}

/// The serve-side job runner backed by the CLI's own engine.
pub(crate) struct DseRunner {
    /// Checkpoint cadence for specs that do not set one (the server's
    /// `--checkpoint-every`).
    default_checkpoint_every: u64,
}

impl JobRunner for DseRunner {
    fn validate(&self, spec: &Value) -> Result<Value, String> {
        let opts = spec_to_options(spec, self.default_checkpoint_every)?;
        let mut normalized = normalized_spec(&opts);
        // The deadline is server-side state, not a RunOptions field, so
        // it must ride the normalized spec to survive in job.json.
        if let Some(secs) = timeout_from_spec(spec)? {
            if let Value::Object(fields) = &mut normalized {
                fields.push(("timeout_s".to_owned(), Value::U64(secs)));
            }
        }
        Ok(normalized)
    }

    fn run(&self, ctx: JobContext<'_>) -> Result<RunOutcome, RunError> {
        let hooks = ExecHooks {
            cancel: Some(&ctx.cancel),
            live: Some(ctx.live),
            heartbeat: Some(ctx.heartbeat),
            attempt: ctx.attempt,
        };
        let dir = ctx.dir.to_string_lossy().into_owned();
        // A manifest plus at least one checkpoint means this directory is
        // a previous life of the same job: resume it. Anything less is a
        // fresh start (a job interrupted before its first checkpoint
        // reruns from scratch — same bytes either way). Only completed
        // `ckpt-*.json` files count: a crash mid-write leaves a `.tmp`
        // sibling behind, and that alone must not route a job into
        // `resume`, which would find nothing usable and fail it.
        let resumable =
            ctx.dir.join("manifest.json").is_file() && has_checkpoint(&ctx.dir.join("checkpoints"));
        let status = if resumable {
            let overrides =
                ResumeOverrides { log_level: Some(LogLevel::Quiet), ..Default::default() };
            engine::resume(&dir, &overrides, &hooks)
        } else {
            let mut opts = spec_to_options(ctx.spec, self.default_checkpoint_every)?;
            opts.run_dir = Some(dir);
            engine::run(&opts, &hooks)
        };
        match status {
            Ok(RunStatus::Completed { summary }) => Ok(RunOutcome::Completed { summary }),
            Ok(RunStatus::Interrupted) => Ok(RunOutcome::Interrupted),
            // The engine's classification drives the supervisor: only
            // transient and disk failures feed retry-with-backoff.
            Err(e) => Err(match e.class {
                ErrorClass::Fatal => RunError::permanent(e.message),
                ErrorClass::Transient => RunError::transient(e.message),
                ErrorClass::Disk => RunError::disk(e.message),
            }),
        }
    }
}

/// The `moela-dse serve` body: binds, announces the address, serves
/// until a `POST /shutdown` drain completes, then returns cleanly.
pub(crate) fn serve(opts: &ServeOptions) -> Result<(), CliError> {
    let mut config = ServeConfig::new(opts.addr.clone(), PathBuf::from(&opts.run_root));
    config.workers = opts.workers;
    config.queue_depth = opts.queue_depth;
    config.supervise.max_attempts = opts.max_attempts;
    config.supervise.retry_base = Duration::from_millis(opts.retry_base_ms);
    config.supervise.stall_timeout = Duration::from_secs(opts.stall_timeout_s);
    config.supervise.stall_grace = Duration::from_secs(opts.stall_grace_s);
    // `GET /jobs/{id}/report` builds the same analysis document as
    // `moela-dse report`, minus the on-disk artifacts (the endpoint is
    // read-only over the job's run store).
    config.report_builder = Some(ReportBuilder::new(|dir| {
        crate::analysis::build_report(dir).map(|(report, _)| report).map_err(|e| e.message)
    }));
    let runner = Arc::new(DseRunner { default_checkpoint_every: opts.checkpoint_every });
    let server = Server::bind(config, runner)
        .map_err(|e| fail(format!("cannot start server on {}: {e}", opts.addr)))?;
    let addr = server.local_addr().map_err(|e| fail(format!("cannot read bound address: {e}")))?;
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, addr.to_string())
            .map_err(|e| fail(format!("cannot write address file '{path}': {e}")))?;
    }
    println!("moela-dse serve listening on http://{addr} (run root {})", opts.run_root);
    println!("  POST /jobs to submit, GET /jobs to list, POST /shutdown to drain");
    server.run().map_err(|e| fail(format!("server failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_reject_unknown_keys_and_bad_values() {
        let err =
            spec_to_options(&Value::object(vec![("algorthm", Value::Str("moela".into()))]), 1)
                .expect_err("typo");
        assert!(err.contains("algorthm"), "{err}");
        let err = spec_to_options(&Value::Array(Vec::new()), 1).expect_err("not an object");
        assert!(err.contains("object"), "{err}");
        let err = spec_to_options(&Value::object(vec![("budget", Value::U64(0))]), 1)
            .expect_err("zero budget");
        assert!(err.contains("--budget"), "{err}");
        // The chaos-needs-seed contradiction applies to specs too.
        let err =
            spec_to_options(&Value::object(vec![("chaos", Value::Str("panic=0.5".into()))]), 1)
                .expect_err("chaos without seed");
        assert!(err.contains("chaos-seed"), "{err}");
    }

    #[test]
    fn specs_normalize_with_run_defaults() {
        let spec = Value::object(vec![
            ("algorithm", Value::Str("nsga2".into())),
            ("budget", Value::U64(120)),
            ("seed", Value::U64(5)),
        ]);
        let opts = spec_to_options(&spec, 7).expect("ok");
        assert_eq!(opts.algorithm, Algorithm::Nsga2);
        assert_eq!(opts.budget, 120);
        assert_eq!(opts.seed, 5);
        assert_eq!(opts.checkpoint_every, 7, "server default cadence applies");
        assert_eq!(opts.population, RunOptions::default().population);
        assert_eq!(opts.log_level, LogLevel::Quiet);

        let normalized = normalized_spec(&opts);
        let reparsed = spec_to_options(&normalized, 1).expect("normalized specs revalidate");
        assert_eq!(reparsed, opts, "normalization round-trips");

        let spec = Value::object(vec![("eval_cache", Value::Bool(false))]);
        let opts = spec_to_options(&spec, 1).expect("ok");
        assert!(!opts.eval_cache, "eval_cache=false must parse");
        let reparsed = spec_to_options(&normalized_spec(&opts), 1).expect("revalidates");
        assert_eq!(reparsed, opts, "eval_cache survives normalization");
    }

    /// Specs written for earlier builds carry `eval_cache` as a memo
    /// capacity and a boolean `eval_delta`: both still parse, the
    /// capacity as on unless 0, and `eval_delta` is ignored.
    #[test]
    fn specs_from_earlier_builds_still_parse() {
        for (capacity, on) in [(4096, true), (1, true), (0, false)] {
            for delta in [true, false] {
                let spec = Value::object(vec![
                    ("eval_cache", Value::U64(capacity)),
                    ("eval_delta", Value::Bool(delta)),
                ]);
                let opts = spec_to_options(&spec, 1).expect("an earlier spec parses");
                let expected = RunOptions {
                    eval_cache: on,
                    ..spec_to_options(&Value::object(vec![]), 1).expect("ok")
                };
                assert_eq!(opts, expected, "eval_cache {capacity}, eval_delta {delta}");
            }
        }
        let err = spec_to_options(&Value::object(vec![("eval_delta", Value::U64(1))]), 1)
            .expect_err("non-boolean eval_delta");
        assert!(err.contains("eval_delta"), "{err}");
        let err = spec_to_options(&Value::object(vec![("eval_cache", Value::Str("on".into()))]), 1)
            .expect_err("string eval_cache");
        assert!(err.contains("eval_cache"), "{err}");
    }

    /// An `eval_retries` beyond `u32` is refused, not truncated: 2^32
    /// would otherwise wrap to 0 retries and slip past the fail+retries
    /// check.
    #[test]
    fn oversized_eval_retries_are_refused() {
        let spec = Value::object(vec![
            ("eval_retries", Value::U64(1 << 32)),
            ("fault_policy", Value::Str("fail".into())),
        ]);
        let err = spec_to_options(&spec, 1).expect_err("2^32 retries do not fit");
        assert!(err.contains("eval_retries"), "{err}");
        let spec = Value::object(vec![
            ("eval_retries", Value::U64(u64::from(u32::MAX))),
            ("fault_policy", Value::Str("skip".into())),
        ]);
        let opts = spec_to_options(&spec, 1).expect("u32::MAX fits");
        assert_eq!(opts.eval_retries, u32::MAX);
    }

    #[test]
    fn timeout_s_validates_and_rides_the_normalized_spec() {
        let err = timeout_from_spec(&Value::object(vec![("timeout_s", Value::U64(0))]))
            .expect_err("zero deadline");
        assert!(err.contains("at least 1"), "{err}");
        let err = timeout_from_spec(&Value::object(vec![("timeout_s", Value::Str("5s".into()))]))
            .expect_err("non-integer deadline");
        assert!(err.contains("positive integer"), "{err}");
        assert_eq!(timeout_from_spec(&Value::object(vec![])).expect("absent is fine"), None);

        let runner = DseRunner { default_checkpoint_every: 1 };
        let spec = Value::object(vec![("budget", Value::U64(50)), ("timeout_s", Value::U64(7))]);
        let normalized = runner.validate(&spec).expect("valid spec");
        assert_eq!(
            normalized.field("timeout_s").and_then(|v| v.as_u64()).ok(),
            Some(7),
            "the deadline must survive normalization so a restarted server still enforces it"
        );
        // And the normalized spec (now carrying timeout_s) revalidates.
        runner.validate(&normalized).expect("normalized specs revalidate");
    }
}
