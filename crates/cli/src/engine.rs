//! The run engine: everything between parsed arguments and finished
//! artifacts, shared verbatim by `run`, `resume`, and the job server.
//!
//! This module is the reason served jobs are byte-identical to CLI
//! runs: there is exactly one code path that builds the problem, drives
//! an optimizer through its start/step/finish loop, checkpoints, and
//! writes `trace.csv` / `front.csv` / `trace.json` / `front.json`. The
//! server adds two hooks — a cooperative [`CancelToken`] checked at
//! step boundaries and a live-metrics slot for in-flight polling — and
//! both are write-only with respect to the deterministic artifacts.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use moela_baselines::{
    random_search_restore, random_search_start, Moead, MoeadConfig, MoeadState, MooStage,
    MooStageConfig, MooStageState, Moos, MoosConfig, MoosState, Nsga2, Nsga2Config, Nsga2State,
    RandomSearchConfig, RandomSearchState,
};
use moela_core::moela::MoelaState;
use moela_core::{Moela, MoelaConfig};
use moela_manycore::{viz, Design, ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_moo::checkpoint::{CancelToken, Resumable, RunCtx};
use moela_moo::fault::{FaultLog, FaultPolicy};
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::{CachedProblem, ChaosProblem, ChaosSpec, EvalCache, Problem};
use moela_obs::{JsonlSink, MetricsAggregator, Obs, ProgressReporter, Reporter, SharedSink, Sink};
use moela_persist::{
    CheckpointStore, PersistError, Restore, RunStore, Snapshot, Value, FORMAT_VERSION,
};
use moela_serve::{Heartbeat, LiveMetrics};
use moela_traffic::{Benchmark, Workload};

use crate::args::{Algorithm, RunOptions};

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

/// A configuration the user must fix (exit code 2) — e.g. `--chaos`
/// without `--chaos-seed` arriving through a manifest or job spec that
/// bypassed argument parsing.
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

/// How a driven run ended.
pub(crate) enum RunStatus {
    /// Ran to completion; all artifacts are on disk.
    Completed {
        /// Small machine-readable report (evaluations, PHV, front size).
        summary: Value,
    },
    /// Parked at a checkpoint by the cancel hook; the run directory is
    /// resumable.
    Interrupted,
}

pub(crate) fn build_problem(opts: &RunOptions) -> Result<ManycoreProblem, CliError> {
    let platform = PlatformConfig::paper();
    let workload = Workload::synthesize(opts.app, platform.pe_mix(), opts.seed);
    let mut problem = ManycoreProblem::new(platform, workload, opts.set)
        .map_err(|e| fail(format!("cannot build the paper platform: {e}")))?;
    if opts.eval_cache == 0 {
        // `--eval-cache off` disables both layers: the design-keyed memo
        // and the topology-keyed routing-table reuse.
        problem.set_routing_cache_capacity(0);
    }
    problem.set_delta_eval(opts.eval_delta);
    Ok(problem)
}

pub(crate) fn corpus_normalizer(problem: &ManycoreProblem, seed: u64) -> Normalizer {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let objs: Vec<Vec<f64>> =
        (0..200).map(|_| problem.evaluate(&problem.random_solution(&mut rng))).collect();
    Normalizer::fit(&objs)
}

/// Checkpointing context threaded through [`drive`].
pub(crate) struct Persistence {
    pub(crate) store: CheckpointStore,
    pub(crate) every: u64,
    pub(crate) crash_after: Option<u64>,
    pub(crate) algorithm: Algorithm,
}

/// A checkpoint to continue from: the optimizer state plus the wall-clock
/// time the interrupted run had already consumed and, for chaotic runs,
/// the chaos ordinal counter captured at the same safe point.
pub(crate) struct ResumePoint {
    pub(crate) state: Value,
    pub(crate) elapsed: Duration,
    pub(crate) chaos_ordinal: Option<u64>,
}

/// Live telemetry threaded through [`drive`]: the obs handle every
/// optimizer reports phase spans through, the in-memory aggregator the
/// end-of-run `metrics.json` is rendered from, and the optional live
/// progress line. All of it is write-only wall-clock instrumentation —
/// none of it feeds back into the optimizer, so the deterministic
/// artifacts (trace.csv, front.csv, checkpoints) are byte-identical
/// with telemetry on or off.
pub(crate) struct Telemetry {
    pub(crate) obs: Obs,
    pub(crate) aggregator: Option<Arc<Mutex<MetricsAggregator>>>,
    pub(crate) progress: Option<ProgressReporter>,
    pub(crate) reporter: Reporter,
    /// Supervised attempt number ([`ExecHooks::attempt`]); 0 for direct
    /// CLI runs, which therefore emit no supervision block.
    pub(crate) attempt: u64,
}

impl Telemetry {
    /// Builds the run telemetry: a JSONL event sink plus the metrics
    /// aggregator when a run store exists (both are cheap), and the
    /// progress reporter when `--progress` was given. `base_evals` seeds
    /// resume-aware throughput accounting.
    pub(crate) fn new(opts: &RunOptions, store: Option<&RunStore>, base_evals: u64) -> Self {
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
        let progress = opts.progress.then(|| ProgressReporter::new(base_evals, Some(opts.budget)));
        Telemetry { obs, aggregator, progress, reporter: Reporter::new(opts.log_level), attempt: 0 }
    }

    /// Publishes this run's aggregator into the server's live slot so
    /// `GET /jobs/{id}` can report in-flight phase metrics.
    fn publish_live(&self, hooks: &ExecHooks<'_>) {
        if let (Some(slot), Some(agg)) = (hooks.live, &self.aggregator) {
            if let Ok(mut s) = slot.lock() {
                *s = Some(Arc::clone(agg));
            }
        }
    }

    /// Renders `metrics.json` from the aggregated events, folding in the
    /// identity and fault counters the retired `health.json` used to
    /// carry alone, plus the evaluation-cache hit rates.
    fn metrics_value(
        &self,
        opts: &RunOptions,
        log: &FaultLog,
        resumed: bool,
        base_evals: u64,
    ) -> Option<Value> {
        let aggregator = self.aggregator.as_ref()?;
        let (rendered, cache) = aggregator
            .lock()
            .map(|agg| {
                let counters = [
                    "cache_hits",
                    "cache_misses",
                    "cache_evictions",
                    "routing_rebuilds",
                    "routing_hits",
                    "delta_hits",
                    "delta_fallbacks",
                ]
                .map(|name| agg.counter(name));
                (agg.render(), counters)
            })
            .ok()?;
        let [cache_hits, cache_misses, cache_evictions, routing_rebuilds, routing_hits, delta_hits, delta_fallbacks] =
            cache;
        let mut fields = vec![
            ("algorithm", Value::Str(opts.algorithm.name().to_owned())),
            ("app", Value::Str(opts.app.name().to_owned())),
            ("seed", Value::U64(opts.seed)),
            ("budget", Value::U64(opts.budget)),
            ("threads", Value::U64(opts.threads as u64)),
            (
                "resume",
                Value::object(vec![
                    ("resumed", Value::Bool(resumed)),
                    ("prior_evaluations", Value::U64(base_evals)),
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
            (
                "cache",
                Value::object(vec![
                    ("enabled", Value::Bool(opts.eval_cache > 0)),
                    ("capacity", Value::U64(opts.eval_cache as u64)),
                    ("hits", Value::U64(cache_hits)),
                    ("misses", Value::U64(cache_misses)),
                    ("evictions", Value::U64(cache_evictions)),
                    ("routing_rebuilds", Value::U64(routing_rebuilds)),
                    ("routing_hits", Value::U64(routing_hits)),
                ]),
            ),
            (
                "delta",
                Value::object(vec![
                    ("enabled", Value::Bool(opts.eval_delta)),
                    ("hits", Value::U64(delta_hits)),
                    ("fallbacks", Value::U64(delta_fallbacks)),
                ]),
            ),
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
                Value::object(vec![(moela_obs::names::JOB_ATTEMPT, Value::U64(self.attempt))]),
            ));
        }
        Some(Value::object(fields))
    }
}

/// How [`drive`] ended.
pub(crate) enum Driven {
    /// The optimizer ran out of work; the result is final.
    Finished(RunResult<Design>, FaultLog),
    /// The cancel hook fired; the state was checkpointed at the step
    /// boundary it parked on.
    Interrupted {
        /// Completed steps at the parking checkpoint.
        completed: u64,
    },
}

/// Writes one checkpoint envelope at the current step boundary.
fn write_checkpoint<S>(
    state: &S,
    rng: &StdRng,
    codec: &ManycoreProblem,
    p: &Persistence,
    elapsed: Duration,
    chaos_ordinal: Option<&dyn Fn() -> u64>,
    telemetry: &mut Telemetry,
) -> Result<(), CliError>
where
    S: Resumable<ManycoreProblem, Solution = Design>,
{
    let mut fields = vec![
        ("format", Value::U64(u64::from(FORMAT_VERSION))),
        ("version", Value::Str(VERSION.to_owned())),
        ("algorithm", Value::Str(p.algorithm.name().to_owned())),
        ("completed", Value::U64(state.completed())),
        ("rng", Value::u64_array(&rng.state())),
        ("elapsed_nanos", Value::U64(elapsed.as_nanos() as u64)),
    ];
    if let Some(ordinal) = chaos_ordinal {
        fields.push(("chaos_ordinal", Value::U64(ordinal())));
    }
    fields.push(("state", state.snapshot_state(codec)));
    let envelope = Value::object(fields);
    {
        let _ckpt = telemetry.obs.span("checkpoint_write");
        p.store.save(state.completed(), &envelope)?;
    }
    // Telemetry is crash-safe at the same cadence as the run itself:
    // everything up to the newest checkpoint survives an abort.
    telemetry.obs.flush();
    Ok(())
}

/// Steps any resumable optimizer to completion, checkpointing every
/// `persistence.every` completed steps. The envelope carries everything
/// the optimizer state does not: format/build versions, the RNG state,
/// accumulated wall-clock time, and (for chaotic runs) the chaos ordinal
/// counter so resume replays the identical fault stream.
///
/// When the cancel hook fires, the optimizer parks at the next step
/// boundary (drawing no RNG) and an unconditional checkpoint is written
/// there — cadence only batches checkpoints for running work, never for
/// a parked run — so the directory resumes byte-identically.
///
/// A latched [`moela_moo::fault::FaultPolicy::Fail`] error surfaces as a
/// [`CliError`] instead of a completed result. On success, the
/// optimizer's fault counters are returned alongside the result for the
/// end-of-run health report.
#[allow(clippy::too_many_arguments)]
fn drive<S>(
    mut state: S,
    rng: &mut StdRng,
    codec: &ManycoreProblem,
    persistence: Option<&Persistence>,
    base_elapsed: Duration,
    chaos_ordinal: Option<&dyn Fn() -> u64>,
    telemetry: &mut Telemetry,
    hooks: &ExecHooks<'_>,
) -> Result<Driven, CliError>
where
    S: Resumable<ManycoreProblem, Solution = Design>,
{
    state.set_obs(telemetry.obs.clone());
    if let Some(token) = hooks.cancel {
        state.set_cancel(token.clone());
    }
    let t0 = Instant::now();
    if let Some(progress) = telemetry.progress.as_mut() {
        // The reporter was built before checkpoint decode/restore;
        // restart its rate clock now that stepping actually begins so
        // resume setup time never deflates evals/s or inflates the ETA.
        progress.begin();
    }
    let mut written = 0u64;
    while state.step(rng) {
        hooks.beat();
        if let Some(progress) = telemetry.progress.as_mut() {
            progress.update(state.completed(), state.evaluations(), state.latest_phv());
        }
        let Some(p) = persistence else { continue };
        if !state.completed().is_multiple_of(p.every) {
            continue;
        }
        let elapsed = base_elapsed + t0.elapsed();
        write_checkpoint(&state, rng, codec, p, elapsed, chaos_ordinal, telemetry)?;
        written += 1;
        if p.crash_after.is_some_and(|n| written >= n) {
            eprintln!("crash injection: aborting after {written} checkpoints");
            std::process::abort();
        }
    }
    if let Some(progress) = telemetry.progress.as_mut() {
        progress.finish(state.completed(), state.evaluations(), state.latest_phv());
    }
    if hooks.cancelled() {
        // Parked at a step boundary: the state drew no RNG for the
        // refused step, so this checkpoint resumes byte-identically.
        if let Some(p) = persistence {
            let elapsed = base_elapsed + t0.elapsed();
            write_checkpoint(&state, rng, codec, p, elapsed, chaos_ordinal, telemetry)?;
        }
        return Ok(Driven::Interrupted { completed: state.completed() });
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
    Ok(Driven::Finished(state.finish(), log))
}

/// The selected optimizer's run, so [`execute_on`] drives every
/// algorithm through one [`drive`] call.
enum AnyState<'p, P: Problem> {
    Moela(MoelaState<'p, P>),
    Moead(MoeadState<'p, P>),
    Moos(MoosState<'p, P>),
    MooStage(MooStageState<'p, P>),
    Nsga2(Nsga2State<'p, P>),
    Random(RandomSearchState<'p, P>),
}

/// Forwards one `Resumable` call to the state an [`AnyState`] wraps.
macro_rules! forward {
    ($state:expr, $method:ident($($arg:expr),*)) => {
        match $state {
            AnyState::Moela(s) => Resumable::<ManycoreProblem>::$method(s $(, $arg)*),
            AnyState::Moead(s) => Resumable::<ManycoreProblem>::$method(s $(, $arg)*),
            AnyState::Moos(s) => Resumable::<ManycoreProblem>::$method(s $(, $arg)*),
            AnyState::MooStage(s) => Resumable::<ManycoreProblem>::$method(s $(, $arg)*),
            AnyState::Nsga2(s) => Resumable::<ManycoreProblem>::$method(s $(, $arg)*),
            AnyState::Random(s) => Resumable::<ManycoreProblem>::$method(s $(, $arg)*),
        }
    };
}

impl<P> Resumable<ManycoreProblem> for AnyState<'_, P>
where
    P: Problem<Solution = Design> + Sync,
{
    type Solution = Design;

    fn ctx(&self) -> &RunCtx {
        forward!(self, ctx())
    }

    fn ctx_mut(&mut self) -> &mut RunCtx {
        forward!(self, ctx_mut())
    }

    fn completed(&self) -> u64 {
        forward!(self, completed())
    }

    fn step(&mut self, rng: &mut dyn RngCore) -> bool {
        forward!(self, step(rng))
    }

    fn snapshot_state(&self, codec: &ManycoreProblem) -> Value {
        forward!(self, snapshot_state(codec))
    }

    fn finish(self) -> RunResult<Design> {
        forward!(self, finish())
    }
}

/// Builds the selected optimizer (fresh, or restored from a checkpoint)
/// and drives it to completion — against the bare manycore problem, a
/// memoizing [`CachedProblem`] wrapper (`--eval-cache`, on by default),
/// and/or a seeded [`ChaosProblem`] wrapper when `--chaos` fault
/// injection is configured. Under chaos the cache sits *below* the
/// injector (`Chaos(Cached(problem))`) so faulted evaluations are never
/// admitted and the fault stream consumes ordinals identically with the
/// cache on or off.
///
/// After the run, cache and routing-reuse counters are emitted through
/// the obs pipeline so `metrics.json` records hit rates — write-only
/// telemetry that never feeds back into the optimizer.
pub(crate) fn execute(
    opts: &RunOptions,
    problem: &ManycoreProblem,
    normalizer: &Normalizer,
    persistence: Option<&Persistence>,
    resume: Option<(ResumePoint, StdRng)>,
    telemetry: &mut Telemetry,
    hooks: &ExecHooks<'_>,
) -> Result<Driven, CliError> {
    let cache = (opts.eval_cache > 0).then(|| Arc::new(EvalCache::new(opts.eval_cache)));
    // The problem's routing and delta counters are cumulative over the
    // problem's lifetime, which is longer than this run: the corpus
    // normalizer evaluates 200 designs before `execute` is ever called,
    // and `compare` (or a serve worker reusing a problem) drives several
    // executions over one problem. Snapshot at entry and emit only the
    // difference so every run's metrics.json counts its own work alone.
    let (base_rebuilds, base_routing_hits) = problem.routing_stats();
    let (base_delta_hits, base_delta_fallbacks) = problem.delta_stats();
    let outcome = match (opts.chaos, &cache) {
        (None, None) => execute_on(
            opts,
            problem,
            problem,
            normalizer,
            persistence,
            resume,
            None,
            telemetry,
            hooks,
        ),
        (None, Some(cache)) => {
            let cached = CachedProblem::new(problem, Arc::clone(cache));
            execute_on(
                opts,
                &cached,
                problem,
                normalizer,
                persistence,
                resume,
                None,
                telemetry,
                hooks,
            )
        }
        (Some(spec), cache) => {
            // A chaos spec without its seed can only arrive through a
            // manifest or job spec that bypassed argument validation;
            // refuse it as the user error it is instead of panicking.
            let Some(seed) = opts.chaos_seed else {
                return Err(user_error(
                    "--chaos injects a seeded fault stream and needs --chaos-seed <N> so the \
                     injected faults are reproducible",
                ));
            };
            if let Some(cache) = cache {
                let cached = CachedProblem::new(problem, Arc::clone(cache));
                let chaotic = ChaosProblem::new(cached, spec, seed);
                if let Some((point, _)) = &resume {
                    // Replay the fault stream from the checkpointed
                    // ordinal; a pre-chaos checkpoint starts at zero.
                    chaotic.set_ordinal(point.chaos_ordinal.unwrap_or(0));
                }
                let ordinal = || chaotic.ordinal();
                execute_on(
                    opts,
                    &chaotic,
                    problem,
                    normalizer,
                    persistence,
                    resume,
                    Some(&ordinal),
                    telemetry,
                    hooks,
                )
            } else {
                let chaotic = ChaosProblem::new(problem, spec, seed);
                if let Some((point, _)) = &resume {
                    chaotic.set_ordinal(point.chaos_ordinal.unwrap_or(0));
                }
                let ordinal = || chaotic.ordinal();
                execute_on(
                    opts,
                    &chaotic,
                    problem,
                    normalizer,
                    persistence,
                    resume,
                    Some(&ordinal),
                    telemetry,
                    hooks,
                )
            }
        }
    };
    let (rebuilds, routing_hits) = problem.routing_stats();
    telemetry.obs.counter("routing_rebuilds", rebuilds - base_rebuilds);
    telemetry.obs.counter("routing_hits", routing_hits - base_routing_hits);
    let (delta_hits, delta_fallbacks) = problem.delta_stats();
    telemetry.obs.counter("delta_hits", delta_hits - base_delta_hits);
    telemetry.obs.counter("delta_fallbacks", delta_fallbacks - base_delta_fallbacks);
    if let Some(cache) = &cache {
        let stats = cache.stats();
        telemetry.obs.counter("cache_hits", stats.hits);
        telemetry.obs.counter("cache_misses", stats.misses);
        telemetry.obs.counter("cache_evictions", stats.evictions);
    }
    outcome
}

/// Drives one optimizer over `problem` — possibly a chaos wrapper —
/// while `codec` stays the bare [`ManycoreProblem`] that encodes and
/// decodes checkpointed solutions.
#[allow(clippy::too_many_arguments)]
fn execute_on<P>(
    opts: &RunOptions,
    problem: &P,
    codec: &ManycoreProblem,
    normalizer: &Normalizer,
    persistence: Option<&Persistence>,
    resume: Option<(ResumePoint, StdRng)>,
    chaos_ordinal: Option<&dyn Fn() -> u64>,
    telemetry: &mut Telemetry,
    hooks: &ExecHooks<'_>,
) -> Result<Driven, CliError>
where
    P: Problem<Solution = Design> + Sync,
{
    let (point, mut rng) = match resume {
        Some((p, r)) => (Some(p), r),
        None => (None, StdRng::seed_from_u64(opts.seed)),
    };
    let base_elapsed = point.as_ref().map_or(Duration::ZERO, |p| p.elapsed);
    let state = match opts.algorithm {
        Algorithm::Moela => {
            let config = MoelaConfig::builder()
                .population(opts.population)
                .generations(usize::MAX / 2)
                .trace_normalizer(normalizer.clone())
                .max_evaluations(opts.budget)
                .time_budget(opts.time_guard)
                .threads(opts.threads)
                .fault(opts.fault())
                .build()
                .map_err(|e| fail(format!("invalid MOELA configuration: {e}")))?;
            let moela = Moela::new(config, problem);
            AnyState::Moela(match &point {
                Some(p) => moela.restore(codec, &p.state, p.elapsed)?,
                None => moela.start(&mut rng),
            })
        }
        Algorithm::Moead => {
            let config = MoeadConfig {
                population: opts.population,
                neighborhood: (opts.population / 5).max(2).min(opts.population),
                generations: usize::MAX / 2,
                trace_normalizer: Some(normalizer.clone()),
                max_evaluations: Some(opts.budget),
                time_budget: Some(opts.time_guard),
                threads: opts.threads,
                fault: opts.fault(),
                ..Default::default()
            };
            let moead = Moead::new(config, problem);
            AnyState::Moead(match &point {
                Some(p) => moead.restore(codec, &p.state, p.elapsed)?,
                None => moead.start(&mut rng),
            })
        }
        Algorithm::Moos => {
            let config = MoosConfig {
                episodes: usize::MAX / 2,
                trace_normalizer: Some(normalizer.clone()),
                max_evaluations: Some(opts.budget),
                time_budget: Some(opts.time_guard),
                threads: opts.threads,
                fault: opts.fault(),
                ..Default::default()
            };
            let moos = Moos::new(config, problem);
            AnyState::Moos(match &point {
                Some(p) => moos.restore(codec, &p.state, p.elapsed)?,
                None => moos.start(&mut rng),
            })
        }
        Algorithm::MooStage => {
            let config = MooStageConfig {
                episodes: usize::MAX / 2,
                trace_normalizer: Some(normalizer.clone()),
                max_evaluations: Some(opts.budget),
                time_budget: Some(opts.time_guard),
                threads: opts.threads,
                fault: opts.fault(),
                ..Default::default()
            };
            let stage = MooStage::new(config, problem);
            AnyState::MooStage(match &point {
                Some(p) => stage.restore(codec, &p.state, p.elapsed)?,
                None => stage.start(&mut rng),
            })
        }
        Algorithm::Nsga2 => {
            let config = Nsga2Config {
                population: opts.population,
                generations: usize::MAX / 2,
                trace_normalizer: Some(normalizer.clone()),
                max_evaluations: Some(opts.budget),
                time_budget: Some(opts.time_guard),
                threads: opts.threads,
                fault: opts.fault(),
            };
            let nsga2 = Nsga2::new(config, problem);
            AnyState::Nsga2(match &point {
                Some(p) => nsga2.restore(codec, &p.state, p.elapsed)?,
                None => nsga2.start(&mut rng),
            })
        }
        Algorithm::Random => {
            let config = RandomSearchConfig {
                samples: opts.budget,
                trace_normalizer: Some(normalizer.clone()),
                threads: opts.threads,
                fault: opts.fault(),
                ..Default::default()
            };
            AnyState::Random(match &point {
                Some(p) => random_search_restore(&config, problem, codec, &p.state, p.elapsed)?,
                None => random_search_start(&config, problem),
            })
        }
    };
    drive(state, &mut rng, codec, persistence, base_elapsed, chaos_ordinal, telemetry, hooks)
}

/// The manifest written into every run directory: enough to rebuild the
/// exact run configuration on resume, plus the fitted normalizer so
/// resume skips the 200-design corpus fit.
pub(crate) fn manifest_value(opts: &RunOptions, normalizer: &Normalizer) -> Value {
    let mut fields = vec![
        ("format", Value::U64(u64::from(FORMAT_VERSION))),
        ("version", Value::Str(VERSION.to_owned())),
        ("algorithm", Value::Str(opts.algorithm.name().to_owned())),
        ("app", Value::Str(opts.app.name().to_owned())),
        ("objectives", Value::U64(opts.set.count() as u64)),
        ("budget", Value::U64(opts.budget)),
        ("population", Value::U64(opts.population as u64)),
        ("seed", Value::U64(opts.seed)),
        ("threads", Value::U64(opts.threads as u64)),
        ("time_guard_secs", Value::U64(opts.time_guard.as_secs())),
        ("checkpoint_every", Value::U64(opts.checkpoint_every)),
        ("fault_policy", Value::Str(opts.fault_policy.name().to_owned())),
        ("eval_retries", Value::U64(u64::from(opts.eval_retries))),
        ("eval_cache", Value::U64(opts.eval_cache as u64)),
        ("eval_delta", Value::Bool(opts.eval_delta)),
    ];
    if let Some(spec) = &opts.chaos {
        fields.push(("chaos", Value::Str(spec.to_string())));
    }
    if let Some(seed) = opts.chaos_seed {
        fields.push(("chaos_seed", Value::U64(seed)));
    }
    fields.push(("normalizer", normalizer.snapshot()));
    Value::object(fields)
}

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
    let app_name = m.field("app")?.as_str()?;
    let app = Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(app_name))
        .ok_or_else(|| fail(format!("manifest names unknown app '{app_name}'")))?;
    let set = match m.field("objectives")?.as_u64()? {
        3 => ObjectiveSet::Three,
        4 => ObjectiveSet::Four,
        5 => ObjectiveSet::Five,
        other => return Err(fail(format!("manifest names unknown objective stack '{other}'"))),
    };
    let algorithm = Algorithm::parse(m.field("algorithm")?.as_str()?).map_err(fail)?;
    // Fault/chaos fields are absent from manifests written before fault
    // containment existed; default to the pre-containment behavior.
    let fault_policy = match m.field_opt("fault_policy") {
        Some(v) => FaultPolicy::parse(v.as_str()?).map_err(fail)?,
        None => FaultPolicy::default(),
    };
    let eval_retries = match m.field_opt("eval_retries") {
        Some(v) => v.as_u64()? as u32,
        None => 0,
    };
    // Manifests written before the evaluation cache existed resume with
    // today's default — results are bit-identical at any capacity.
    let eval_cache = match m.field_opt("eval_cache") {
        Some(v) => v.as_usize()?,
        None => RunOptions::default().eval_cache,
    };
    // Manifests written before delta evaluation existed resume with
    // today's default — the fast path is bit-identical to full
    // evaluation, so the choice never changes resumed artifacts.
    let eval_delta = match m.field_opt("eval_delta") {
        Some(v) => v.as_bool()?,
        None => RunOptions::default().eval_delta,
    };
    let chaos = match m.field_opt("chaos") {
        Some(v) => Some(ChaosSpec::parse(v.as_str()?).map_err(fail)?),
        None => None,
    };
    let chaos_seed = match m.field_opt("chaos_seed") {
        Some(v) => Some(v.as_u64()?),
        None => None,
    };
    if chaos.is_some() && chaos_seed.is_none() {
        // The same contradiction `--chaos` without `--chaos-seed` is on
        // the command line: a configuration the user must fix (exit 2).
        return Err(user_error("manifest configures --chaos but records no chaos seed"));
    }
    let opts = RunOptions {
        app,
        set,
        algorithm,
        budget: m.field("budget")?.as_u64()?,
        population: m.field("population")?.as_usize()?,
        seed: m.field("seed")?.as_u64()?,
        threads: m.field("threads")?.as_usize()?,
        time_guard: Duration::from_secs(m.field("time_guard_secs")?.as_u64()?),
        checkpoint_every: m.field("checkpoint_every")?.as_u64()?,
        fault_policy,
        eval_retries,
        eval_cache,
        eval_delta,
        chaos,
        chaos_seed,
        ..Default::default()
    };
    let normalizer = Normalizer::restore(m.field("normalizer")?)?;
    if normalizer.len() != opts.set.count() {
        return Err(fail("manifest normalizer does not match the objective stack"));
    }
    Ok((opts, normalizer))
}

/// The deterministic convergence trace (no wall-clock column), used for
/// the run-dir `trace.csv` so kill + resume reproduces it byte for byte.
pub(crate) fn deterministic_trace_csv(result: &RunResult<Design>) -> String {
    let mut out = String::from("generation,evaluations,phv\n");
    for p in &result.trace {
        out.push_str(&format!("{},{},{:.9}\n", p.generation, p.evaluations, p.phv));
    }
    out
}

/// The machine-readable twin of `trace.csv`: the same deterministic
/// points (no wall-clock), so consumers never reparse CSV.
pub(crate) fn trace_json_value(result: &RunResult<Design>) -> Value {
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
pub(crate) fn front_json_value(result: &RunResult<Design>) -> Value {
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
pub(crate) fn print_health(opts: &RunOptions, log: &FaultLog, reporter: &Reporter) {
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

/// The small machine-readable completion report a served job carries in
/// its `job.json` and `GET /jobs/{id}` response.
fn summary_value(result: &RunResult<Design>, normalizer: &Normalizer) -> Value {
    Value::object(vec![
        ("evaluations", Value::U64(result.evaluations)),
        ("phv", Value::F64(result.phv(normalizer))),
        ("front_size", Value::U64(result.front().len() as u64)),
    ])
}

/// Prints the result summary and writes every requested artifact (the
/// run-dir CSVs and their JSON twins, the metrics report — which
/// carries the fault counters the retired `health.json` used to hold —
/// and the ad-hoc output flags).
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_run(
    opts: &RunOptions,
    problem: &ManycoreProblem,
    normalizer: &Normalizer,
    run_store: Option<&RunStore>,
    result: &RunResult<Design>,
    log: &FaultLog,
    telemetry: &mut Telemetry,
    resumed: bool,
    base_evals: u64,
) -> Result<(), CliError> {
    let reporter = telemetry.reporter;
    reporter.info(&format!(
        "finished: {} evaluations in {:.2?}; PHV {:.4}; front {} designs",
        result.evaluations,
        result.elapsed,
        result.phv(normalizer),
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
    if let Some(store) = run_store {
        store.write_trace(&deterministic_trace_csv(result))?;
        store.write_front(&result.front_csv())?;
        store.write_trace_json(&trace_json_value(result))?;
        store.write_front_json(&front_json_value(result))?;
        telemetry.obs.flush();
        if let Some(metrics) = telemetry.metrics_value(opts, log, resumed, base_evals) {
            store.write_metrics(&metrics)?;
        }
        reporter.info(&format!("run artifacts written to {}", store.root().display()));
    }
    write_outputs(opts, problem, result, &reporter)
}

/// Runs a fresh optimizer per `opts` (the `moela-dse run` body, also
/// the server's fresh-job path).
pub(crate) fn run(opts: &RunOptions, hooks: &ExecHooks<'_>) -> Result<RunStatus, CliError> {
    let reporter = Reporter::new(opts.log_level);
    let problem = build_problem(opts)?;
    let normalizer = corpus_normalizer(&problem, opts.seed);
    reporter.info(&format!(
        "{} on {} ({}), budget {} evaluations, seed {}",
        opts.algorithm.name(),
        opts.app,
        opts.set,
        opts.budget,
        opts.seed
    ));
    if let Some(spec) = &opts.chaos {
        // The seed may legitimately be absent here (a hand-written job
        // spec); `execute` turns that into the structured exit-2 error,
        // so this log line must not assume it.
        if let Some(chaos_seed) = opts.chaos_seed {
            reporter.info(&format!(
                "chaos injection: {spec} (chaos seed {chaos_seed}), fault policy {}, {} retries",
                opts.fault_policy.name(),
                opts.eval_retries
            ));
        }
    }
    let run_store = match &opts.run_dir {
        Some(dir) => {
            let store = RunStore::create(dir)?;
            store.remove_stale_temps();
            store.write_manifest(&manifest_value(opts, &normalizer))?;
            Some(store)
        }
        None => None,
    };
    let persistence = match &run_store {
        Some(store) => Some(Persistence {
            store: store.checkpoints()?,
            every: opts.checkpoint_every,
            crash_after: opts.crash_after_checkpoints,
            algorithm: opts.algorithm,
        }),
        None => None,
    };
    let mut telemetry = Telemetry::new(opts, run_store.as_ref(), 0);
    telemetry.attempt = hooks.attempt;
    telemetry.publish_live(hooks);
    telemetry.obs.marker("run_start", opts.algorithm.name());
    let driven =
        execute(opts, &problem, &normalizer, persistence.as_ref(), None, &mut telemetry, hooks)?;
    match driven {
        Driven::Finished(result, log) => {
            finish_run(
                opts,
                &problem,
                &normalizer,
                run_store.as_ref(),
                &result,
                &log,
                &mut telemetry,
                false,
                0,
            )?;
            Ok(RunStatus::Completed { summary: summary_value(&result, &normalizer) })
        }
        Driven::Interrupted { completed } => {
            reporter.info(&format!("interrupted at step {completed}; checkpoint written"));
            Ok(RunStatus::Interrupted)
        }
    }
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
) -> Result<RunStatus, CliError> {
    let store = RunStore::open(dir)?;
    store.remove_stale_temps();
    let manifest = store.read_manifest()?;
    let (mut opts, normalizer) = options_from_manifest(&manifest)?;
    if let Some(t) = overrides.threads {
        opts.threads = t;
    }
    if let Some(e) = overrides.checkpoint_every {
        if e == 0 {
            return Err(fail("--checkpoint-every must be positive"));
        }
        opts.checkpoint_every = e;
    }
    opts.crash_after_checkpoints = overrides.crash_after_checkpoints;
    opts.run_dir = Some(dir.to_owned());
    opts.progress = overrides.progress;
    if let Some(level) = overrides.log_level {
        opts.log_level = level;
    }
    let reporter = Reporter::new(opts.log_level);

    let checkpoints = store.checkpoints()?;
    let Some((seq, envelope, warnings)) = checkpoints.load_latest()? else {
        return Err(fail(format!(
            "{} holds no checkpoints to resume (was the run started with --checkpoint-every?)",
            store.root().display()
        )));
    };
    for w in warnings {
        eprintln!("warning: skipped corrupt checkpoint: {w}");
    }
    let format = envelope.field("format")?.as_u64()?;
    if format != u64::from(FORMAT_VERSION) {
        return Err(fail(format!(
            "checkpoint {seq} uses format {format}, but this build supports only format \
             {FORMAT_VERSION}"
        )));
    }
    let algorithm = envelope.field("algorithm")?.as_str()?;
    if algorithm != opts.algorithm.name() {
        return Err(fail(format!(
            "checkpoint {seq} was written by '{algorithm}' but the manifest configures '{}'",
            opts.algorithm.name()
        )));
    }
    let rng_words: [u64; 4] = envelope
        .field("rng")?
        .to_u64_vec()?
        .try_into()
        .map_err(|_| fail(format!("checkpoint {seq} has a malformed RNG state")))?;
    let rng = StdRng::from_state(rng_words);
    let elapsed = Duration::from_nanos(envelope.field("elapsed_nanos")?.as_u64()?);
    let chaos_ordinal = match envelope.field_opt("chaos_ordinal") {
        Some(v) => Some(v.as_u64()?),
        None => None,
    };
    let point = ResumePoint { state: envelope.field("state")?.clone(), elapsed, chaos_ordinal };

    let problem = build_problem(&opts)?;
    reporter.info(&format!(
        "resuming {} on {} ({}) from checkpoint {} in {}",
        opts.algorithm.name(),
        opts.app,
        opts.set,
        seq,
        store.root().display()
    ));
    let persistence = Persistence {
        store: checkpoints,
        every: opts.checkpoint_every,
        crash_after: opts.crash_after_checkpoints,
        algorithm: opts.algorithm,
    };
    // Progress rates and the metrics throughput window count only the
    // work done after this resume; events.jsonl appends to the prior
    // process's log rather than truncating it.
    let base_evals =
        point.state.field_opt("evaluations").and_then(|v| v.as_u64().ok()).unwrap_or_default();
    let mut telemetry = Telemetry::new(&opts, Some(&store), base_evals);
    telemetry.attempt = hooks.attempt;
    telemetry.publish_live(hooks);
    telemetry.obs.marker("resume", &format!("checkpoint {seq}"));
    let driven = execute(
        &opts,
        &problem,
        &normalizer,
        Some(&persistence),
        Some((point, rng)),
        &mut telemetry,
        hooks,
    )?;
    match driven {
        Driven::Finished(result, log) => {
            finish_run(
                &opts,
                &problem,
                &normalizer,
                Some(&store),
                &result,
                &log,
                &mut telemetry,
                true,
                base_evals,
            )?;
            Ok(RunStatus::Completed { summary: summary_value(&result, &normalizer) })
        }
        Driven::Interrupted { completed } => {
            reporter.info(&format!("interrupted at step {completed}; checkpoint written"));
            Ok(RunStatus::Interrupted)
        }
    }
}
