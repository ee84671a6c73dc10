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

use moela_obs::LogLevel;
use moela_persist::{RunStore, Value};
use moela_serve::{
    JobContext, JobRunner, ReportBuilder, RunError, RunOutcome, ServeConfig, Server,
};

use crate::args::{self, RunOptions, ServeOptions};
use crate::engine::{self, fail, CliError, Ended, ErrorClass, ExecHooks, ResumeOverrides};

/// Translates a submission spec into [`RunOptions`]. Keys beyond the run
/// options and `timeout_s` are errors, so a typo (`"algorthm"`) fails
/// loudly instead of running defaults. Absent keys take the same
/// defaults as the `run` flags, except the checkpoint cadence, which
/// falls back to the server's `--checkpoint-every` so every served job
/// is resumable.
pub(crate) fn spec_to_options(
    spec: &Value,
    default_checkpoint_every: u64,
) -> Result<RunOptions, String> {
    let Value::Object(fields) = spec else {
        return Err("job spec must be a JSON object".into());
    };
    for (key, _) in fields {
        if key != "timeout_s" && !args::OPTION_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "unknown spec key '{key}' (accepted: {}, timeout_s)",
                args::OPTION_KEYS.join(", ")
            ));
        }
    }
    // `timeout_s` is validated here (so submission rejects it loudly)
    // but enforced by the server's supervisor, not the run engine.
    timeout_from_spec(spec)?;
    // Served jobs log through job.json and events.jsonl, not the server's
    // stdout; interactive progress painting makes no sense here either.
    let base = RunOptions {
        checkpoint_every: default_checkpoint_every,
        log_level: LogLevel::Quiet,
        ..Default::default()
    };
    RunOptions::from_value(spec, base).map_err(|e| e.message)
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

/// The serve-side job runner backed by the CLI's own engine.
pub(crate) struct DseRunner {
    /// Checkpoint cadence for specs that do not set one (the server's
    /// `--checkpoint-every`).
    default_checkpoint_every: u64,
}

impl JobRunner for DseRunner {
    fn validate(&self, spec: &Value) -> Result<Value, String> {
        // The effective configuration is what job.json keeps, so a
        // restarted server re-derives the identical options.
        let mut normalized = spec_to_options(spec, self.default_checkpoint_every)?.to_value();
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
        // checkpoint files count: a crash mid-write leaves a `.tmp`
        // sibling behind, and that alone must not route a job into
        // `resume`, which would find nothing usable and fail it.
        let resumable = RunStore::open(ctx.dir)
            .and_then(|store| store.checkpoints()?.sequences())
            .is_ok_and(|seqs| !seqs.is_empty());
        let ended = if resumable {
            let overrides =
                ResumeOverrides { log_level: Some(LogLevel::Quiet), ..Default::default() };
            engine::resume(&dir, &overrides, &hooks)
        } else {
            let mut opts = spec_to_options(ctx.spec, self.default_checkpoint_every)?;
            opts.run_dir = Some(dir);
            engine::run(&opts, &hooks)
        };
        match ended {
            // The small machine-readable completion report a served job
            // carries in its `job.json` and `GET /jobs/{id}` response.
            Ok(Ended::Finished { result, phv, .. }) => Ok(RunOutcome::Completed {
                summary: Value::object(vec![
                    ("evaluations", Value::U64(result.evaluations)),
                    ("phv", Value::F64(phv)),
                    ("front_size", Value::U64(result.front().len() as u64)),
                ]),
            }),
            Ok(Ended::Interrupted { .. }) => Ok(RunOutcome::Interrupted),
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
    use crate::args::Algorithm;

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
        // A population past the bound is refused before it is queued, so
        // it never reaches the weight lattice or a worker pool.
        let runner = DseRunner { default_checkpoint_every: 1 };
        let err = runner
            .validate(&Value::object(vec![("population", Value::U64(4_000_000_000))]))
            .expect_err("population above the bound");
        assert!(err.contains("--population must be at most 1000"), "{err}");
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

        let reparsed = spec_to_options(&opts.to_value(), 1).expect("normalized specs revalidate");
        assert_eq!(reparsed, opts, "normalization round-trips");
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
