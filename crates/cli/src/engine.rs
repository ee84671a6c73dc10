//! The run engine: everything between parsed arguments and finished
//! artifacts, shared verbatim by `run`, `resume`, the job server, and
//! `compare`.
//!
//! This module is the reason served jobs are byte-identical to CLI
//! runs: every execution reaches the optimizer through [`execute`],
//! which builds the telemetry, steps the optimizer through its
//! start/step/finish loop, checkpoints, and writes `trace.csv` /
//! `front.csv` / `trace.json` / `front.json`. Callers differ only in
//! the inputs they hand it: a fresh run creates its store, a resumed
//! run decodes a [`ResumePoint`] from its newest checkpoint, and
//! `compare` passes neither. The server adds two hooks — a cooperative
//! [`CancelToken`] checked at step boundaries and a live-metrics slot
//! for in-flight polling — and both are write-only with respect to the
//! deterministic artifacts.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use moela_core::{Algorithm, AnyState};
use moela_manycore::{viz, Design, ManycoreProblem, PlatformConfig};
use moela_moo::checkpoint::{CancelToken, Resumable};
use moela_moo::fault::FaultLog;
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::{ChaosProblem, Problem};
use moela_obs::names;
use moela_obs::{JsonlSink, MetricsAggregator, Obs, ProgressReporter, Reporter, SharedSink, Sink};
use moela_persist::{
    CheckpointStore, Encoded, PersistError, Persister, Restore, RunStore, Snapshot, Value,
    FORMAT_VERSION,
};
use moela_serve::{Heartbeat, LiveMetrics};
use moela_traffic::Workload;

use crate::args::{validate_run_options, ArgsError, RunOptions};

/// The build version stamped into manifests and checkpoints.
pub(crate) const VERSION: &str = env!("CARGO_PKG_VERSION");

/// How a [`CliError`] should be treated by a supervising caller (the
/// job server). Plain CLI runs ignore this — every class exits nonzero
/// with the same message either way.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum ErrorClass {
    /// Retrying cannot help: bad configuration, logic errors, corrupt
    /// data that will never parse differently.
    Fatal,
    /// Likely to succeed on a retry from the last checkpoint — e.g. an
    /// exhausted evaluation fault budget under `--fault-policy fail`.
    Transient,
    /// An OS-level I/O failure writing run state: retryable, and the
    /// server additionally degrades its readiness probe.
    Disk,
}

/// A user-facing failure: printed to stderr, exits with `code` (1 for
/// operational failures, 2 for contradictory configuration the user
/// must resolve — the same convention `args::ArgsError` uses).
#[derive(Debug)]
pub(crate) struct CliError {
    pub(crate) message: String,
    pub(crate) code: u8,
    /// Retry disposition for supervised (served) executions.
    pub(crate) class: ErrorClass,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError { message: e.message, code: e.code, class: ErrorClass::Fatal }
    }
}

impl From<PersistError> for CliError {
    fn from(e: PersistError) -> Self {
        // OS-level I/O failures are worth retrying (and flag disk
        // trouble to the server); corruption is final.
        let class = if e.is_transient_io() { ErrorClass::Disk } else { ErrorClass::Fatal };
        CliError { message: e.to_string(), code: 1, class }
    }
}

/// An operational failure (exit code 1).
pub(crate) fn fail(message: impl Into<String>) -> CliError {
    CliError { message: message.into(), code: 1, class: ErrorClass::Fatal }
}

/// An operational failure a supervisor should retry (exit code 1).
pub(crate) fn transient(message: impl Into<String>) -> CliError {
    CliError { message: message.into(), code: 1, class: ErrorClass::Transient }
}

/// A configuration the user must fix (exit code 2), such as two runs
/// `compare` cannot set side by side.
pub(crate) fn user_error(message: impl Into<String>) -> CliError {
    CliError { message: message.into(), code: 2, class: ErrorClass::Fatal }
}

/// External hooks threaded through a run by the job server. Plain CLI
/// runs use [`ExecHooks::none`].
#[derive(Clone, Copy, Default)]
pub(crate) struct ExecHooks<'a> {
    /// Cooperative cancellation, checked at step boundaries.
    pub(crate) cancel: Option<&'a CancelToken>,
    /// Slot to publish the live metrics aggregator into while running.
    pub(crate) live: Option<&'a LiveMetrics>,
    /// Step-boundary liveness beacon for the server's watchdog.
    pub(crate) heartbeat: Option<&'a Heartbeat>,
    /// 1-based attempt number under supervision; 0 for direct CLI runs.
    pub(crate) attempt: u64,
}

impl ExecHooks<'_> {
    /// No hooks: run to completion, no live polling.
    pub(crate) fn none() -> Self {
        Self::default()
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|t| t.is_cancelled())
    }

    /// Publishes "still making step progress" to the watchdog.
    fn beat(&self) {
        if let Some(hb) = self.heartbeat {
            hb.beat();
        }
    }
}

/// How an [`execute`] call ended.
pub(crate) enum Ended {
    /// The optimizer ran out of work; a run store, if given, holds every
    /// artifact.
    Finished {
        /// The final population and the convergence trace.
        result: RunResult<Design>,
        /// The optimizer's fault counters.
        log: FaultLog,
        /// The final front's normalized hypervolume.
        phv: f64,
    },
    /// Parked at a checkpoint by the cancel hook; the run directory is
    /// resumable.
    Interrupted {
        /// Completed steps at the parking checkpoint.
        completed: u64,
    },
}

pub(crate) fn build_problem(opts: &RunOptions) -> Result<ManycoreProblem, CliError> {
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(opts.app, platform.pe_mix(), opts.seed);
    ManycoreProblem::new(platform, workload, opts.set)
        .map_err(|e| fail(format!("cannot build the paper platform: {e}")))
}

/// One checkpoint: the optimizer state plus everything it does not
/// carry — the RNG and the wall-clock time the run had consumed, both
/// captured at the same step boundary. A chaotic run's fault stream
/// needs nothing more: it continues from the state's evaluation count.
/// [`into_envelope`](Self::into_envelope) writes it and
/// [`from_envelope`](Self::from_envelope) reads it back.
pub(crate) struct ResumePoint {
    /// Completed steps, which is also the checkpoint's sequence number.
    completed: u64,
    state: Value,
    rng: StdRng,
    elapsed: Duration,
}

impl ResumePoint {
    /// The checkpoint envelope, stamped with the format and build
    /// versions and the algorithm that wrote it.
    fn into_envelope(self, algorithm: Algorithm) -> Value {
        Value::object(vec![
            ("format", Value::U64(u64::from(FORMAT_VERSION))),
            ("version", Value::Str(VERSION.to_owned())),
            ("algorithm", Value::Str(algorithm.name().to_owned())),
            ("completed", Value::U64(self.completed)),
            ("rng", Value::u64_array(&self.rng.state())),
            ("elapsed_nanos", Value::U64(self.elapsed.as_nanos() as u64)),
            ("state", self.state),
        ])
    }

    /// Reads checkpoint `seq`'s envelope, refusing another format, a
    /// checkpoint `algorithm` did not write, and a malformed RNG state.
    /// Keys it does not read, such as the chaos ordinal older builds
    /// wrote, are ignored.
    fn from_envelope(seq: u64, envelope: &Value, algorithm: Algorithm) -> Result<Self, CliError> {
        let format = envelope.field("format")?.as_u64()?;
        if format != u64::from(FORMAT_VERSION) {
            return Err(fail(format!(
                "checkpoint {seq} uses format {format}, but this build supports only format \
                 {FORMAT_VERSION}"
            )));
        }
        let written_by = envelope.field("algorithm")?.as_str()?;
        if written_by != algorithm.name() {
            return Err(fail(format!(
                "checkpoint {seq} was written by '{written_by}' but the manifest configures '{}'",
                algorithm.name()
            )));
        }
        let rng_words: [u64; 4] = envelope
            .field("rng")?
            .to_u64_vec()?
            .try_into()
            .map_err(|_| fail(format!("checkpoint {seq} has a malformed RNG state")))?;
        Ok(ResumePoint {
            completed: seq,
            state: envelope.field("state")?.clone(),
            rng: StdRng::from_state(rng_words),
            elapsed: Duration::from_nanos(envelope.field("elapsed_nanos")?.as_u64()?),
        })
    }

    /// Evaluations the checkpointed run had already spent.
    fn evaluations(&self) -> u64 {
        self.state.field_opt("evaluations").and_then(|v| v.as_u64().ok()).unwrap_or_default()
    }
}

/// Live telemetry for one [`execute`] call: the obs handle every
/// optimizer reports phase spans through, the in-memory aggregator the
/// end-of-run `metrics.json` is rendered from, and the optional live
/// progress line. All of it is write-only wall-clock instrumentation —
/// none of it feeds back into the optimizer, so the deterministic
/// artifacts (trace.csv, front.csv, checkpoints) are byte-identical
/// with telemetry on or off.
struct Telemetry {
    obs: Obs,
    aggregator: Option<Arc<Mutex<MetricsAggregator>>>,
    progress: Option<ProgressReporter>,
    /// Evaluations spent before a resume; `None` for a fresh run.
    prior_evals: Option<u64>,
    /// Supervised attempt number ([`ExecHooks::attempt`]); 0 for direct
    /// CLI runs, which therefore emit no supervision block.
    attempt: u64,
}

impl Telemetry {
    /// Builds the run telemetry: a JSONL event sink plus the metrics
    /// aggregator when a run store exists (both are cheap), and the
    /// progress reporter when `--progress` was given. Progress rates and
    /// the metrics throughput window count only the work done after a
    /// resume; events.jsonl appends to the prior process's log rather
    /// than truncating it. The aggregator is published into the server's
    /// live slot so `GET /jobs/{id}` can report in-flight phase metrics.
    fn new(
        opts: &RunOptions,
        store: Option<&RunStore>,
        resume: Option<&ResumePoint>,
        hooks: &ExecHooks<'_>,
    ) -> Self {
        let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
        let mut aggregator = None;
        if let Some(store) = store {
            if let Ok(jsonl) = JsonlSink::append(&store.events_path()) {
                sinks.push(Box::new(jsonl));
            }
            let shared = SharedSink::new(MetricsAggregator::new());
            aggregator = Some(shared.handle());
            sinks.push(Box::new(shared));
        }
        let obs = if sinks.is_empty() { Obs::disabled() } else { Obs::with_sinks(sinks) };
        let prior_evals = resume.map(ResumePoint::evaluations);
        let progress = opts
            .progress
            .then(|| ProgressReporter::new(prior_evals.unwrap_or(0), Some(opts.budget)));
        if let (Some(slot), Some(agg)) = (hooks.live, &aggregator) {
            if let Ok(mut s) = slot.lock() {
                *s = Some(Arc::clone(agg));
            }
        }
        match resume {
            None => obs.marker("run_start", opts.algorithm.name()),
            Some(point) => obs.marker("resume", &format!("checkpoint {}", point.completed)),
        }
        Telemetry { obs, aggregator, progress, prior_evals, attempt: hooks.attempt }
    }

    /// Renders `metrics.json` from the aggregated events, folding in the
    /// identity and fault counters the retired `health.json` used to
    /// carry alone, plus the routing-cache counters.
    fn metrics_value(&self, opts: &RunOptions, log: &FaultLog) -> Option<Value> {
        let aggregator = self.aggregator.as_ref()?;
        let (rendered, cache) =
            aggregator.lock().map(|agg| (agg.render(), cache_value(|n| agg.counter(n)))).ok()?;
        let mut fields = vec![
            ("algorithm", Value::Str(opts.algorithm.name().to_owned())),
            ("app", Value::Str(opts.app.name().to_owned())),
            ("seed", Value::U64(opts.seed)),
            ("budget", Value::U64(opts.budget)),
            ("threads", Value::U64(opts.threads as u64)),
            (
                "resume",
                Value::object(vec![
                    ("resumed", Value::Bool(self.prior_evals.is_some())),
                    ("prior_evaluations", Value::U64(self.prior_evals.unwrap_or(0))),
                ]),
            ),
            (
                "faults",
                Value::object(vec![
                    ("fault_policy", Value::Str(opts.fault_policy.name().to_owned())),
                    ("total", Value::U64(log.faults())),
                    ("panics", Value::U64(log.panics)),
                    ("non_finite", Value::U64(log.non_finite)),
                    ("wrong_arity", Value::U64(log.wrong_arity)),
                    ("retries", Value::U64(log.retries)),
                    ("recovered", Value::U64(log.recovered)),
                    ("penalized", Value::U64(log.penalized)),
                    ("skipped", Value::U64(log.skipped)),
                ]),
            ),
            ("cache", cache),
            ("telemetry", rendered),
        ];
        if let Some(spec) = &opts.chaos {
            fields.push(("chaos", Value::Str(spec.to_string())));
        }
        if self.attempt > 0 {
            // Only supervised (served) executions carry this, so direct
            // CLI runs keep their exact historical metrics.json shape.
            fields.push((
                "supervision",
                Value::object(vec![(names::JOB_ATTEMPT, Value::U64(self.attempt))]),
            ));
        }
        Some(Value::object(fields))
    }
}

/// The `"cache"` block of metrics.json and report.json: routing tables
/// built and reused, read by name through `counter`.
pub(crate) fn cache_value(counter: impl Fn(&str) -> u64) -> Value {
    Value::object(vec![
        (names::ROUTING_REBUILDS, Value::U64(counter(names::ROUTING_REBUILDS))),
        (names::ROUTING_HITS, Value::U64(counter(names::ROUTING_HITS))),
    ])
}

/// The problem the optimizers evaluate: the bare manycore problem, or
/// its [`ChaosProblem`] wrapper under `--chaos`.
type Evaluated<'p> = &'p (dyn Problem<Solution = Design> + Sync);

/// The selected optimizer's run, checkpointed through the bare problem.
type Driven<'p> = AnyState<'p, Evaluated<'p>, ManycoreProblem>;

/// Runs one execution to its end — the single path every fresh run,
/// resumed run, served job and `compare` row takes.
///
/// With a `store`, the run checkpoints into it every
/// `opts.checkpoint_every` completed steps and, when it finishes, writes
/// the run-dir CSVs, their JSON twins and `metrics.json` there. With a
/// `resume` point, the optimizer is restored from that checkpoint
/// instead of started from `opts.seed`.
///
/// After the run, routing-reuse counters are emitted through the obs
/// pipeline so `metrics.json` records hit rates — write-only telemetry
/// that never feeds back into the optimizer.
pub(crate) fn execute(
    opts: &RunOptions,
    problem: &ManycoreProblem,
    normalizer: &Normalizer,
    store: Option<&RunStore>,
    resume: Option<ResumePoint>,
    hooks: &ExecHooks<'_>,
) -> Result<Ended, CliError> {
    let checkpoints = store.map(RunStore::checkpoints).transpose()?;
    let mut telemetry = Telemetry::new(opts, store, resume.as_ref(), hooks);
    // The problem's routing counters are cumulative over the problem's
    // lifetime, which is longer than this run: the corpus normalizer
    // evaluates 200 designs before `execute` is ever called, and
    // `compare` drives several executions over one problem. Snapshot at
    // entry and emit only the difference so every run's metrics.json
    // counts its own work alone — also when the run fails.
    let (base_rebuilds, base_routing_hits) = problem.routing_stats();
    let ended =
        drive(opts, problem, normalizer, checkpoints.as_ref(), resume, &mut telemetry, hooks);
    let (rebuilds, routing_hits) = problem.routing_stats();
    telemetry.obs.counter(names::ROUTING_REBUILDS, rebuilds - base_rebuilds);
    telemetry.obs.counter(names::ROUTING_HITS, routing_hits - base_routing_hits);
    let ended = ended?;
    if let (Some(store), Ended::Finished { result, log, .. }) = (store, &ended) {
        telemetry.obs.flush();
        store.write_finished(
            &deterministic_trace_csv(result),
            &result.front_csv(),
            &trace_json_value(result),
            &front_json_value(result),
            telemetry.metrics_value(opts, log).as_ref(),
        )?;
    }
    Ok(ended)
}

/// Steps the selected optimizer to completion — against the bare
/// manycore problem, or a seeded [`ChaosProblem`] wrapper when `--chaos`
/// fault injection is configured — checkpointing every
/// `opts.checkpoint_every` completed steps into `checkpoints`.
///
/// Each checkpoint is snapshotted and encoded at its step boundary and
/// written by a [`Persister`]'s writer thread while the next step runs.
/// The crash injection, the parked checkpoint and every way out of this
/// function wait for that writer first, so whatever they report is on
/// disk, and a write error surfaces as a [`ErrorClass::Disk`] error.
///
/// When the cancel hook fires, the optimizer parks at the next step
/// boundary (drawing no RNG) and an unconditional checkpoint is written
/// there — cadence only batches checkpoints for running work, never for
/// a parked run — so the directory resumes byte-identically.
///
/// A latched [`moela_moo::fault::FaultPolicy::Fail`] error surfaces as a
/// [`CliError`] instead of a completed result.
fn drive(
    opts: &RunOptions,
    problem: &ManycoreProblem,
    normalizer: &Normalizer,
    checkpoints: Option<&CheckpointStore>,
    resume: Option<ResumePoint>,
    telemetry: &mut Telemetry,
    hooks: &ExecHooks<'_>,
) -> Result<Ended, CliError> {
    // The fault stream needs no resume state: the restored run numbers
    // its evaluations from the checkpoint's count.
    let chaos = opts.chaos.map(|spec| {
        let seed = opts.chaos_seed.expect("validated run options pair --chaos with a seed");
        ChaosProblem::new(problem, spec, seed)
    });
    let evaluated: Evaluated<'_> = match &chaos {
        Some(chaotic) => chaotic,
        None => problem,
    };
    let (mut rng, base_elapsed) = match &resume {
        Some(p) => (p.rng.clone(), p.elapsed),
        None => (StdRng::seed_from_u64(opts.seed), Duration::ZERO),
    };
    let settings = opts.optimizer(normalizer);
    let mut state = match &resume {
        Some(p) => settings.restore(&evaluated, problem, &p.state, p.elapsed)?,
        None => settings.start(&evaluated, &mut rng),
    };
    let Telemetry { obs, progress, .. } = telemetry;
    if resume.is_none() {
        // `start` evaluated the initial population before the handle
        // was installed; count what it paid here, once. A restore
        // evaluates nothing, so a resumed leg counts only its own steps.
        let (evaluations, faults) = (state.evaluations(), state.fault_log().faults());
        if evaluations > 0 {
            obs.counter("evaluations", evaluations);
        }
        if faults > 0 {
            obs.counter("eval_faults", faults);
        }
    }
    state.set_obs(obs.clone());
    if let Some(token) = hooks.cancel {
        state.set_cancel(token.clone());
    }
    let t0 = Instant::now();
    let mut persister = checkpoints.map(Persister::new).transpose()?;
    // Counts the time the checkpoint writer spent on the saves it
    // finished; the step path paid only for waiting on it.
    let persisted = |took: Duration| {
        if !took.is_zero() {
            obs.counter(names::CHECKPOINT_PERSIST_US, took.as_micros() as u64);
        }
    };
    // Takes one checkpoint at the current step boundary: snapshots and
    // encodes the state here, timing the snapshot apart from the encode
    // and the wait for the previous save, reports the file size as a
    // gauge, and hands the bytes to the writer thread.
    let save =
        |persister: &mut Persister, state: &Driven<'_>, rng: &StdRng| -> Result<(), CliError> {
            let elapsed = base_elapsed + t0.elapsed();
            let snapshot = {
                let _snapshot = obs.span(names::CHECKPOINT_SNAPSHOT);
                state.snapshot_state(problem)
            };
            let completed = state.completed();
            let point = ResumePoint { completed, state: snapshot, rng: rng.clone(), elapsed };
            {
                let _write = obs.span(names::CHECKPOINT_WRITE);
                // Wait for the previous save before encoding: the writer has
                // freed its bytes by then, so two saves' bytes never coexist.
                persisted(persister.join()?);
                let encoded = Encoded::new(&point.into_envelope(opts.algorithm));
                obs.gauge(names::CHECKPOINT_BYTES, encoded.file_len() as f64);
                persisted(persister.hand_off(completed, encoded)?);
            }
            // Telemetry is crash-safe at the same cadence as the run itself:
            // everything up to the newest checkpoint survives an abort.
            obs.flush();
            Ok(())
        };
    if let Some(progress) = progress.as_mut() {
        // The reporter was built before checkpoint decode/restore;
        // restart its rate clock now that stepping actually begins so
        // resume setup time never deflates evals/s or inflates the ETA.
        progress.begin();
    }
    let mut written = 0u64;
    while state.step(&mut rng) {
        hooks.beat();
        if let Some(progress) = progress.as_mut() {
            progress.update(state.completed(), state.evaluations(), state.latest_phv());
        }
        let Some(persister) = persister.as_mut() else { continue };
        if !state.completed().is_multiple_of(opts.checkpoint_every) {
            continue;
        }
        save(persister, &state, &rng)?;
        written += 1;
        if opts.crash_after_checkpoints.is_some_and(|n| written >= n) {
            // The crash counts durable checkpoints only.
            persisted(persister.join()?);
            obs.flush();
            eprintln!("crash injection: aborting after {written} checkpoints");
            std::process::abort();
        }
    }
    if let Some(progress) = progress.as_mut() {
        progress.finish(state.completed(), state.evaluations(), state.latest_phv());
    }
    let cancelled = hooks.cancelled();
    if let Some(persister) = persister.as_mut() {
        if cancelled {
            // Parked at a step boundary: the state drew no RNG for the
            // refused step, so this checkpoint resumes byte-identically.
            save(persister, &state, &rng)?;
        }
        // However the run ends, it reports only what is on disk.
        persisted(persister.join()?);
    }
    if cancelled {
        return Ok(Ended::Interrupted { completed: state.completed() });
    }
    if let Some(fault) = state.fault_error() {
        // Transient by classification: a different attempt sees a
        // different slice of the fault stream, so a supervisor may
        // legitimately retry from the last checkpoint.
        return Err(transient(format!(
            "{fault} (policy 'fail' stops on the first fault; rerun with --fault-policy \
             penalize-worst or skip to contain faults and continue)"
        )));
    }
    let log = *state.fault_log();
    let result = state.finish();
    let phv = result.phv(normalizer);
    Ok(Ended::Finished { result, log, phv })
}

/// The manifest written into every run directory: enough to rebuild the
/// exact run configuration on resume, plus the fitted normalizer so
/// resume skips the 200-design corpus fit.
pub(crate) fn manifest_value(opts: &RunOptions, normalizer: &Normalizer) -> Value {
    let mut fields = vec![
        ("format".to_owned(), Value::U64(u64::from(FORMAT_VERSION))),
        ("version".to_owned(), Value::Str(VERSION.to_owned())),
    ];
    let Value::Object(options) = opts.to_value() else {
        unreachable!("run options encode as an object")
    };
    fields.extend(options);
    fields.push(("normalizer".to_owned(), normalizer.snapshot()));
    Value::Object(fields)
}

/// The option keys every manifest carries. The fault and chaos keys are
/// optional because manifests written before fault containment lack
/// them.
const MANIFEST_REQUIRED: [&str; 9] = [
    "algorithm",
    "app",
    "objectives",
    "budget",
    "population",
    "seed",
    "threads",
    "time_guard_secs",
    "checkpoint_every",
];

/// Rebuilds the run configuration (and the fitted normalizer) from a
/// manifest, refusing manifests from an incompatible format version.
pub(crate) fn options_from_manifest(m: &Value) -> Result<(RunOptions, Normalizer), CliError> {
    let format = m.field("format")?.as_u64()?;
    if format != u64::from(FORMAT_VERSION) {
        return Err(fail(format!(
            "run directory uses checkpoint format {format}, but this build supports only \
             format {FORMAT_VERSION}"
        )));
    }
    for key in MANIFEST_REQUIRED {
        m.field(key)?;
    }
    let opts = RunOptions::from_value(m, RunOptions::default())
        .map_err(|e| CliError::from(ArgsError { message: format!("manifest: {e}"), ..e }))?;
    let normalizer = Normalizer::restore(m.field("normalizer")?)?;
    if normalizer.len() != opts.set.count() {
        return Err(fail("manifest normalizer does not match the objective stack"));
    }
    Ok((opts, normalizer))
}

/// The deterministic convergence trace (no wall-clock column), used for
/// the run-dir `trace.csv` so kill + resume reproduces it byte for byte.
fn deterministic_trace_csv(result: &RunResult<Design>) -> String {
    let mut out = String::from("generation,evaluations,phv\n");
    for p in &result.trace {
        out.push_str(&format!("{},{},{:.9}\n", p.generation, p.evaluations, p.phv));
    }
    out
}

/// The machine-readable twin of `trace.csv`: the same deterministic
/// points (no wall-clock), so consumers never reparse CSV.
fn trace_json_value(result: &RunResult<Design>) -> Value {
    let points = result
        .trace
        .iter()
        .map(|p| {
            Value::object(vec![
                ("generation", Value::U64(p.generation as u64)),
                ("evaluations", Value::U64(p.evaluations)),
                ("phv", Value::F64(p.phv)),
            ])
        })
        .collect();
    Value::object(vec![("points", Value::Array(points))])
}

/// The machine-readable twin of `front.csv`: objective vectors in the
/// same row order.
fn front_json_value(result: &RunResult<Design>) -> Value {
    let rows = result
        .front_objectives()
        .into_iter()
        .map(|row| Value::Array(row.into_iter().map(Value::F64).collect()))
        .collect();
    Value::object(vec![("objectives", Value::Array(rows))])
}

fn write_outputs(
    opts: &RunOptions,
    problem: &ManycoreProblem,
    result: &RunResult<Design>,
    reporter: &Reporter,
) -> Result<(), CliError> {
    if let Some(path) = &opts.trace_csv {
        std::fs::write(path, result.trace_csv())
            .map_err(|e| fail(format!("cannot write trace CSV '{path}': {e}")))?;
        reporter.info(&format!("trace written to {path}"));
    }
    if let Some(path) = &opts.front_csv {
        std::fs::write(path, result.front_csv())
            .map_err(|e| fail(format!("cannot write front CSV '{path}': {e}")))?;
        reporter.info(&format!("front written to {path}"));
    }
    if let Some(path) = &opts.dot {
        // "Best" = lowest first objective on the front.
        if let Some((design, _)) =
            result.front().into_iter().min_by(|a, b| a.1[0].total_cmp(&b.1[0]))
        {
            let dot = viz::to_dot(problem.config().dims(), problem.config().pe_mix(), &design);
            std::fs::write(path, dot)
                .map_err(|e| fail(format!("cannot write DOT file '{path}': {e}")))?;
            reporter.info(&format!("best design written to {path} (render with `neato -Tpng`)"));
        }
    }
    Ok(())
}

/// Prints the fault-containment health line. Stays silent for clean runs
/// without chaos so the happy-path output is unchanged.
fn print_health(opts: &RunOptions, log: &FaultLog, reporter: &Reporter) {
    if log.is_clean() && opts.chaos.is_none() {
        return;
    }
    reporter.info(&format!(
        "evaluation health: {} faults contained ({} panics, {} non-finite, {} wrong-arity); \
         {} retries ({} recovered), {} penalized, {} skipped [policy {}]",
        log.faults(),
        log.panics,
        log.non_finite,
        log.wrong_arity,
        log.retries,
        log.recovered,
        log.penalized,
        log.skipped,
        opts.fault_policy.name(),
    ));
}

/// Prints how a `run` or `resume` ended — for a finished run the result
/// summary and the start of its front — and writes the ad-hoc output
/// files its flags ask for.
fn conclude(
    opts: &RunOptions,
    problem: &ManycoreProblem,
    store: Option<&RunStore>,
    ended: &Ended,
) -> Result<(), CliError> {
    let reporter = Reporter::new(opts.log_level);
    let (result, log, phv) = match ended {
        Ended::Finished { result, log, phv } => (result, log, phv),
        Ended::Interrupted { completed } => {
            reporter.info(&format!("interrupted at step {completed}; checkpoint written"));
            return Ok(());
        }
    };
    reporter.info(&format!(
        "finished: {} evaluations in {:.2?}; PHV {phv:.4}; front {} designs",
        result.evaluations,
        result.elapsed,
        result.front().len()
    ));
    print_health(opts, log, &reporter);
    let mut front = result.front_objectives();
    front.sort_by(|a, b| a[0].total_cmp(&b[0]));
    for (i, objs) in front.iter().take(15).enumerate() {
        let cells: Vec<String> = objs.iter().map(|v| format!("{v:>12.3}")).collect();
        reporter.info(&format!("  #{:<3} {}", i, cells.join(" ")));
    }
    if front.len() > 15 {
        reporter.info(&format!("  … {} more", front.len() - 15));
    }
    if let Some(store) = store {
        reporter.info(&format!("run artifacts written to {}", store.root().display()));
    }
    write_outputs(opts, problem, result, &reporter)
}

/// Runs a fresh optimizer per `opts` (the `moela-dse run` body, also
/// the server's fresh-job path).
pub(crate) fn run(opts: &RunOptions, hooks: &ExecHooks<'_>) -> Result<Ended, CliError> {
    let reporter = Reporter::new(opts.log_level);
    let problem = build_problem(opts)?;
    let normalizer = Normalizer::from_corpus(&problem, opts.seed);
    reporter.info(&format!(
        "{} on {} ({}), budget {} evaluations, seed {}",
        opts.algorithm.name(),
        opts.app,
        opts.set,
        opts.budget,
        opts.seed
    ));
    if let (Some(spec), Some(chaos_seed)) = (&opts.chaos, opts.chaos_seed) {
        reporter.info(&format!(
            "chaos injection: {spec} (chaos seed {chaos_seed}), fault policy {}, {} retries",
            opts.fault_policy.name(),
            opts.eval_retries
        ));
    }
    let store = match &opts.run_dir {
        Some(dir) => {
            let store = RunStore::create(dir)?;
            store.remove_stale_temps();
            store.write_manifest(&manifest_value(opts, &normalizer))?;
            Some(store)
        }
        None => None,
    };
    let ended = execute(opts, &problem, &normalizer, store.as_ref(), None, hooks)?;
    conclude(opts, &problem, store.as_ref(), &ended)?;
    Ok(ended)
}

/// Per-invocation overrides `moela-dse resume` accepts on top of the
/// stored manifest.
#[derive(Clone, Debug, Default)]
pub(crate) struct ResumeOverrides {
    pub(crate) threads: Option<usize>,
    pub(crate) checkpoint_every: Option<u64>,
    pub(crate) crash_after_checkpoints: Option<u64>,
    pub(crate) progress: bool,
    pub(crate) log_level: Option<moela_obs::LogLevel>,
}

/// Resumes an interrupted run directory from its newest intact
/// checkpoint (the `moela-dse resume` body, also the server's
/// rediscovered-job path).
pub(crate) fn resume(
    dir: &str,
    overrides: &ResumeOverrides,
    hooks: &ExecHooks<'_>,
) -> Result<Ended, CliError> {
    let store = RunStore::open(dir)?;
    store.remove_stale_temps();
    let manifest = store.read_manifest()?;
    let (mut opts, normalizer) = options_from_manifest(&manifest)?;
    opts.threads = overrides.threads.unwrap_or(opts.threads);
    opts.checkpoint_every = overrides.checkpoint_every.unwrap_or(opts.checkpoint_every);
    opts.crash_after_checkpoints = overrides.crash_after_checkpoints;
    opts.run_dir = Some(dir.to_owned());
    opts.progress = overrides.progress;
    opts.log_level = overrides.log_level.unwrap_or(opts.log_level);
    validate_run_options(&opts)?;

    let Some((seq, envelope, warnings)) = store.checkpoints()?.load_latest()? else {
        return Err(fail(format!(
            "{} holds no checkpoints to resume (was the run started with --checkpoint-every?)",
            store.root().display()
        )));
    };
    for w in warnings {
        eprintln!("warning: skipped corrupt checkpoint: {w}");
    }
    let point = ResumePoint::from_envelope(seq, &envelope, opts.algorithm)?;

    let problem = build_problem(&opts)?;
    Reporter::new(opts.log_level).info(&format!(
        "resuming {} on {} ({}) from checkpoint {} in {}",
        opts.algorithm.name(),
        opts.app,
        opts.set,
        seq,
        store.root().display()
    ));
    let ended = execute(&opts, &problem, &normalizer, Some(&store), Some(point), hooks)?;
    conclude(&opts, &problem, Some(&store), &ended)?;
    Ok(ended)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fields of a current manifest for the default options.
    fn manifest_fields() -> Vec<(String, Value)> {
        let normalizer = Normalizer::fit(&[vec![0.0; 3], vec![1.0; 3]]);
        let Value::Object(fields) = manifest_value(&RunOptions::default(), &normalizer) else {
            panic!("a manifest is an object")
        };
        fields
    }

    /// Every manifest key the options need is required, and so are the
    /// format and the normalizer: a manifest missing any is refused.
    #[test]
    fn manifests_missing_a_required_key_are_refused() {
        let fields = manifest_fields();
        options_from_manifest(&Value::Object(fields.clone())).expect("the full manifest reads");
        for (key, _) in &fields {
            let mut fewer = fields.clone();
            fewer.retain(|(k, _)| k != key);
            let result = options_from_manifest(&Value::Object(fewer));
            if ["version", "fault_policy", "eval_retries"].contains(&key.as_str()) {
                result.unwrap_or_else(|e| panic!("{key} is optional: {}", e.message));
            } else {
                let err = result.expect_err(key);
                assert!(err.message.contains(key.as_str()), "{key}: {}", err.message);
            }
        }
        let mut v1 = fields;
        v1[0].1 = Value::U64(1);
        let err = options_from_manifest(&Value::Object(v1)).expect_err("format 1");
        assert!(err.message.contains("format 1"), "{}", err.message);
    }

    /// A checkpoint the writer thread could not write fails the run at
    /// the next hand-off or join as a disk error, which a supervisor
    /// retries and reports as disk trouble.
    #[test]
    fn a_failed_background_save_is_a_disk_error() {
        let dir = std::env::temp_dir().join(format!("moela-engine-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).expect("checkpoint store");
        let mut persister = Persister::new(&store).expect("persister");
        persister.hand_off(1, Encoded::new(&Value::U64(1))).expect("first save");
        persister.join().expect("first save is durable");
        // A regular file where the directory was fails the next save,
        // also for root, whom permissions would not stop.
        std::fs::remove_dir_all(&dir).expect("remove the checkpoint directory");
        std::fs::write(&dir, b"not a directory").expect("plant a file");
        let err = persister
            .hand_off(2, Encoded::new(&Value::U64(2)))
            .and_then(|_| persister.join())
            .map_err(CliError::from)
            .expect_err("the second save cannot be written");
        assert_eq!(err.class, ErrorClass::Disk, "{}", err.message);
        let _ = std::fs::remove_file(&dir);
    }
}
