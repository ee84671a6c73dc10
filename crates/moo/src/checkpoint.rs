//! The optimizer-side checkpointing contract and the run context every
//! optimizer shares.
//!
//! Every optimizer in the workspace exposes a *state-machine* form of its
//! run loop — `start` / [`Resumable::step`] / [`Resumable::finish`] — whose
//! step granularity is one generation (or episode, or sampling chunk).
//! The driver owns the loop:
//!
//! ```text
//! let mut state = Algo::new(config, &problem).start(&mut rng);
//! while state.step(&mut rng) {
//!     // safe point: state.snapshot_state(&codec) + rng state → disk
//! }
//! let result = state.finish();
//! ```
//!
//! Each state is its own search state plus one [`RunCtx`]: the lifecycle
//! all optimizers share. The context owns the fault-guarded evaluator
//! (which holds the run's one evaluation count) and the budget caps, the
//! anytime trace recorder, the start time, the `finished` latch, and the
//! telemetry and cancellation handles. It is the only code that evaluates
//! and counts: every candidate, in every optimizer and in the shared
//! descent, goes through [`RunCtx::evaluate`]. A `step` opens with
//! [`RunCtx::begin_step`], evaluates through the context, records trace
//! points with [`RunCtx::record`], and a snapshot wraps the optimizer's
//! own fields around [`RunCtx::snapshot`]. [`Resumable`] reaches the
//! context through `ctx`/`ctx_mut` and implements the driver hooks
//! (`set_obs`, `set_cancel`) and the progress queries once, for every
//! optimizer.
//!
//! The determinism contract: a state restored from
//! [`Resumable::snapshot_state`] (together with the RNG state captured at
//! the same safe point) continues with *bit-identical* RNG draws,
//! evaluations and trace points as the uninterrupted run, at any thread
//! count. The RNG state itself is **not** part of the snapshot value — the
//! driver stores it alongside, in the checkpoint envelope, because one
//! RNG spans the whole run while snapshots are per-algorithm.
//!
//! Restoration is an inherent per-algorithm constructor (configs
//! differ); it rebuilds the shared part with [`RunCtx::restore`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use moela_obs::Obs;
use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

use crate::fault::{EvalFault, FaultConfig, FaultLog, GuardedBatch};
use crate::normalize::Normalizer;
use crate::run::{RunResult, TraceRecorder};
use crate::{GuardedEvaluator, Problem};

/// A shared cooperative-cancellation flag checked at step boundaries.
///
/// Clones share one flag. The driver (or a job server) keeps one clone
/// and installs another via [`Resumable::set_cancel`]; once
/// [`CancelToken::cancel`] is called, the optimizer's next
/// [`Resumable::step`] returns `false` *without drawing a single RNG
/// value or mutating state*, leaving the run at a valid checkpoint
/// boundary. The token is never part of a snapshot: a restored run
/// starts with a fresh, un-cancelled token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The run lifecycle shared by every optimizer state: evaluation under
/// containment and budget, the anytime trace, and the step-boundary
/// guard.
#[derive(Debug)]
pub struct RunCtx {
    /// The run's guard; its count is the run's evaluation count.
    evaluator: GuardedEvaluator,
    /// The anytime-PHV trace.
    pub recorder: TraceRecorder,
    /// Latched once the run is over; every later step is a no-op.
    pub finished: bool,
    /// Telemetry handle (never checkpointed; disabled by default).
    pub obs: Obs,
    /// Cooperative cancellation flag (never checkpointed; inert unless
    /// the driver installs a shared token).
    cancel: CancelToken,
    start_time: Instant,
    max_evaluations: Option<u64>,
    time_budget: Option<Duration>,
}

impl RunCtx {
    /// A fresh context for `m` objectives: `threads` evaluation workers
    /// (0 = auto) under the `fault` policy, a trace on the pre-fitted
    /// `trace_normalizer` (or one fitted online), and the optional
    /// evaluation and wall-clock caps. The clock starts now.
    pub fn new(
        threads: usize,
        fault: FaultConfig,
        trace_normalizer: Option<&Normalizer>,
        m: usize,
        max_evaluations: Option<u64>,
        time_budget: Option<Duration>,
    ) -> Self {
        Self {
            evaluator: GuardedEvaluator::new(threads, fault),
            recorder: match trace_normalizer {
                Some(n) => TraceRecorder::with_fixed_normalizer(n.clone()),
                None => TraceRecorder::new(m),
            },
            finished: false,
            obs: Obs::disabled(),
            cancel: CancelToken::default(),
            start_time: Instant::now(),
            max_evaluations,
            time_budget,
        }
    }

    /// Rebuilds a context from the shared keys of a snapshot (see
    /// [`RunCtx::snapshot`]), with `elapsed` wall-clock time already
    /// consumed. The guard resumes counting, and numbering evaluation
    /// ordinals, from the snapshot's `evaluations`.
    pub fn restore(
        state: &Value,
        elapsed: Duration,
        threads: usize,
        fault: FaultConfig,
        max_evaluations: Option<u64>,
        time_budget: Option<Duration>,
    ) -> Result<Self, PersistError> {
        Ok(Self {
            evaluator: GuardedEvaluator::from_parts(
                threads,
                fault,
                FaultLog::restore(state.field("faults")?)?,
                state.field("evaluations")?.as_u64()?,
            ),
            recorder: TraceRecorder::restore(state.field("recorder")?)?,
            finished: state.field("finished")?.as_bool()?,
            obs: Obs::disabled(),
            cancel: CancelToken::default(),
            start_time: Instant::now().checked_sub(elapsed).unwrap_or_else(Instant::now),
            max_evaluations,
            time_budget,
        })
    }

    /// Snapshots an optimizer state in the key order every checkpoint
    /// has: `head` (the optimizer's step counters), the shared
    /// `finished`, `evaluations` and `recorder`, then `body` (its search
    /// state), then the shared `faults`.
    pub fn snapshot(
        &self,
        head: Vec<(&'static str, Value)>,
        body: Vec<(&'static str, Value)>,
    ) -> Value {
        let mut fields = head;
        fields.push(("finished", Value::Bool(self.finished)));
        fields.push(("evaluations", Value::U64(self.evaluations())));
        fields.push(("recorder", self.recorder.snapshot()));
        fields.extend(body);
        fields.push(("faults", self.evaluator.log().snapshot()));
        Value::object(fields)
    }

    /// The guard every step opens with; returns whether the step may
    /// run. A cancelled run refuses the step and touches nothing, so it
    /// stays snapshottable and resumable. A finished or poisoned run, a
    /// reached step limit (`done`), or a spent budget latches
    /// `finished`.
    pub fn begin_step(&mut self, done: bool) -> bool {
        if self.cancel.is_cancelled() {
            return false;
        }
        if self.finished || done || self.poisoned() || !self.budget_left() {
            self.finished = true;
        }
        !self.finished
    }

    /// Objective evaluations paid for so far, retries included.
    pub fn evaluations(&self) -> u64 {
        self.evaluator.evaluations()
    }

    /// Evaluations left under the cap (`u64::MAX` when uncapped).
    pub fn remaining(&self) -> u64 {
        self.max_evaluations.map_or(u64::MAX, |cap| cap.saturating_sub(self.evaluations()))
    }

    /// Whether the wall-clock budget is spent.
    pub fn out_of_time(&self) -> bool {
        self.time_budget.is_some_and(|cap| self.start_time.elapsed() >= cap)
    }

    /// Whether both the evaluation cap and the wall-clock budget have
    /// room left.
    pub fn budget_left(&self) -> bool {
        self.remaining() > 0 && !self.out_of_time()
    }

    /// `true` once a [`crate::fault::FaultPolicy::Fail`] fault latched;
    /// [`RunCtx::evaluate`] latches `finished` with it.
    pub fn poisoned(&self) -> bool {
        self.evaluator.poisoned()
    }

    /// The fault counters accumulated by this run's evaluations.
    pub fn fault_log(&self) -> &FaultLog {
        self.evaluator.log()
    }

    /// Evaluates a batch under containment; the guard adds its attempts,
    /// retries included, to the evaluation count. Latches `finished` if
    /// a [`crate::fault::FaultPolicy::Fail`] fault poisoned the run. One
    /// candidate is a one-element slice (`std::slice::from_ref`).
    pub fn evaluate<P>(&mut self, problem: &P, solutions: &[P::Solution]) -> GuardedBatch
    where
        P: Problem + Sync,
        P::Solution: Sync,
    {
        let batch = self.evaluator.evaluate(problem, solutions);
        if self.poisoned() {
            self.finished = true;
        }
        batch
    }

    /// Appends the trace point of `step` over `objectives`, at the
    /// current evaluation count and wall-clock time.
    pub fn record(&mut self, step: usize, objectives: &[Vec<f64>]) {
        self.recorder.record(step, self.evaluations(), self.start_time.elapsed(), objectives);
    }

    /// Reports a completed step: the `generations` counter and the
    /// latest `phv` gauge.
    pub fn report_step(&self) {
        self.obs.counter("generations", 1);
        if let Some(point) = self.recorder.points().last() {
            self.obs.gauge("phv", point.phv);
        }
    }

    /// Consumes the context into the run's result over the final
    /// `population`.
    pub fn into_result<S>(self, population: Vec<(S, Vec<f64>)>) -> RunResult<S> {
        RunResult {
            population,
            trace: self.recorder.into_points(),
            evaluations: self.evaluator.evaluations(),
            elapsed: self.start_time.elapsed(),
        }
    }
}

/// A checkpointable optimizer run in progress.
///
/// `C` is the solution codec (usually the problem type itself) used to
/// encode solutions embedded in the state.
pub trait Resumable<C: SolutionCodec<Self::Solution>> {
    /// The problem's solution type.
    type Solution;

    /// The shared run context.
    fn ctx(&self) -> &RunCtx;

    /// The shared run context, mutably.
    fn ctx_mut(&mut self) -> &mut RunCtx;

    /// Completed step count (generations / episodes / chunks). Starts at
    /// 0 after `start` and increases by one per successful [`step`].
    ///
    /// [`step`]: Resumable::step
    fn completed(&self) -> u64;

    /// Executes exactly one step. Returns `false` when the run has
    /// finished (budget exhausted, generations done, or time up) — after
    /// which further calls must be no-ops that draw no RNG values.
    ///
    /// The generator is the concrete [`StdRng`] every driver passes, so
    /// a step can record the state a surrogate fit starts from and a
    /// restore can refit instead of checkpointing the model.
    fn step(&mut self, rng: &mut StdRng) -> bool;

    /// Captures the complete optimizer state (excluding the RNG, which
    /// the driver checkpoints alongside).
    fn snapshot_state(&self, codec: &C) -> Value;

    /// Consumes the state, producing the final [`RunResult`].
    fn finish(self) -> RunResult<Self::Solution>;

    /// The fault counters accumulated by this run's guarded evaluator.
    fn fault_log(&self) -> &FaultLog {
        self.ctx().fault_log()
    }

    /// The latched [`crate::fault::FaultPolicy::Fail`] error, if an
    /// evaluation fault stopped this run. When set, [`step`] has
    /// returned `false` early and the driver should surface the error
    /// instead of reporting a completed run.
    ///
    /// [`step`]: Resumable::step
    fn fault_error(&self) -> Option<&EvalFault> {
        self.ctx().evaluator.error()
    }

    /// Installs a cooperative-cancellation token (see [`CancelToken`]).
    /// Once it is cancelled, [`step`] returns `false` immediately —
    /// drawing no RNG values and mutating nothing — so the state can
    /// still be snapshotted at the boundary and resumed later.
    ///
    /// [`step`]: Resumable::step
    fn set_cancel(&mut self, token: CancelToken) {
        self.ctx_mut().cancel = token;
    }

    /// Installs the observability handle the run reports phase spans
    /// and counters through, its evaluator included. Called by the
    /// driver after `start` or restore; never checkpointed. Telemetry is
    /// write-only: installing a handle never changes an RNG draw, an
    /// evaluation, or a trace byte.
    fn set_obs(&mut self, obs: Obs) {
        let ctx = self.ctx_mut();
        ctx.evaluator.set_obs(obs.clone());
        ctx.obs = obs;
    }

    /// Objective evaluations paid for so far, retries included.
    fn evaluations(&self) -> u64 {
        self.ctx().evaluations()
    }

    /// The most recent normalized hypervolume recorded on the anytime
    /// trace, if any — the "best scalarized" figure progress lines show.
    fn latest_phv(&self) -> Option<f64> {
        self.ctx().recorder.points().last().map(|p| p.phv)
    }
}

/// The codec of a run that is never checkpointed. It has no values, so
/// a `Resumable<NoCodec>` can step and finish but never snapshot.
#[derive(Debug)]
pub enum NoCodec {}

impl<S> SolutionCodec<S> for NoCodec {
    fn encode_solution(&self, _: &S) -> Value {
        match *self {}
    }

    fn decode_solution(&self, _: &Value) -> Result<S, PersistError> {
        match *self {}
    }
}

/// Steps `state` until it finishes, without checkpoints, and returns its
/// result.
pub fn run_to_end<S: Resumable<NoCodec>>(mut state: S, rng: &mut StdRng) -> RunResult<S::Solution> {
    while state.step(rng) {}
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPolicy;
    use crate::problems::Zdt;
    use crate::{ChaosProblem, ChaosSpec};
    use moela_persist::VecF64Codec;
    use rand::SeedableRng;

    /// The smallest optimizer: each step samples and evaluates one design.
    struct Sampler<'p, P> {
        problem: &'p P,
        ctx: RunCtx,
        steps: u64,
    }

    impl<P, C> Resumable<C> for Sampler<'_, P>
    where
        P: Problem<Solution = Vec<f64>> + Sync,
        C: SolutionCodec<Vec<f64>>,
    {
        type Solution = Vec<f64>;

        fn ctx(&self) -> &RunCtx {
            &self.ctx
        }

        fn ctx_mut(&mut self) -> &mut RunCtx {
            &mut self.ctx
        }

        fn completed(&self) -> u64 {
            self.steps
        }

        fn step(&mut self, rng: &mut StdRng) -> bool {
            if !self.ctx.begin_step(self.steps >= 100) {
                return false;
            }
            let design = self.problem.random_solution(rng);
            let m = self.problem.objective_count();
            let objectives = self.ctx.evaluate(self.problem, &[design]).materialized(m);
            self.steps += 1;
            self.ctx.record(self.steps as usize, &objectives);
            true
        }

        fn snapshot_state(&self, _: &C) -> Value {
            self.ctx.snapshot(vec![("steps", Value::U64(self.steps))], Vec::new())
        }

        fn finish(self) -> RunResult<Vec<f64>> {
            self.ctx.into_result(Vec::new())
        }
    }

    fn sampler<P>(problem: &P, ctx: RunCtx) -> impl Resumable<VecF64Codec, Solution = Vec<f64>> + '_
    where
        P: Problem<Solution = Vec<f64>> + Sync,
    {
        Sampler { problem, ctx, steps: 0 }
    }

    fn ctx(
        fault: FaultConfig,
        max_evaluations: Option<u64>,
        time_budget: Option<Duration>,
    ) -> RunCtx {
        RunCtx::new(1, fault, None, 2, max_evaluations, time_budget)
    }

    #[test]
    fn a_cancelled_run_refuses_to_step_and_draws_nothing() {
        let problem = Zdt::zdt1(4);
        let mut run = sampler(&problem, ctx(FaultConfig::default(), None, None));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(run.step(&mut rng));
        let drawn = rng.state();
        let before = run.snapshot_state(&VecF64Codec);
        let token = CancelToken::new();
        run.set_cancel(token.clone());
        token.cancel();
        assert!(!run.step(&mut rng));
        assert!(!run.step(&mut rng));
        assert_eq!(rng.state(), drawn, "a refused step draws nothing");
        assert_eq!(run.snapshot_state(&VecF64Codec), before, "a refused step changes nothing");
        assert!(!run.ctx().finished, "cancellation is not completion");
    }

    #[test]
    fn the_evaluation_cap_latches_finished() {
        let problem = Zdt::zdt1(4);
        let mut run = sampler(&problem, ctx(FaultConfig::default(), Some(3), None));
        let mut rng = StdRng::seed_from_u64(2);
        while run.step(&mut rng) {}
        assert_eq!(run.completed(), 3);
        assert_eq!(run.evaluations(), 3);
        assert!(run.ctx().finished);
        assert!(!run.step(&mut rng), "a finished run stays finished");
    }

    #[test]
    fn the_time_cap_latches_finished() {
        let mut ctx = ctx(FaultConfig::default(), None, Some(Duration::ZERO));
        assert!(!ctx.budget_left());
        assert!(!ctx.begin_step(false));
        assert!(ctx.finished);
    }

    #[test]
    fn a_one_element_slice_is_evaluated_and_charged_like_a_batch() {
        let problem = Zdt::zdt1(4);
        let design = vec![0.5; 4];
        let broken = ChaosProblem::new(Zdt::zdt1(4), ChaosSpec::parse("panic=1.0").unwrap(), 1);
        let skip = FaultConfig { policy: FaultPolicy::Skip, retries: 1 };
        let mut run = ctx(skip, None, None);
        let clean = run.evaluate(&problem, std::slice::from_ref(&design));
        assert_eq!(clean.objectives, vec![Some(problem.evaluate(&design))]);
        assert_eq!(run.evaluations(), 1);
        let dropped = run.evaluate(&broken, std::slice::from_ref(&design));
        assert_eq!(dropped.objectives, vec![None]);
        assert_eq!(run.evaluations(), 3, "the retry is paid for");
        assert_eq!(run.fault_log().skipped, 1);
        assert!(!run.finished);

        let mut run = ctx(FaultConfig::default(), None, None);
        assert_eq!(run.evaluate(&broken, std::slice::from_ref(&design)).objectives, vec![None]);
        assert_eq!(run.evaluations(), 1);
        assert!(run.poisoned() && run.finished, "a Fail fault latches the run");
    }

    #[test]
    fn a_snapshot_restores_the_shared_fields() {
        let problem = ChaosProblem::new(Zdt::zdt1(4), ChaosSpec::parse("nan=0.3").unwrap(), 7);
        let skip = FaultConfig { policy: FaultPolicy::Skip, retries: 1 };
        let mut run = sampler(&problem, ctx(skip, Some(12), None));
        let mut rng = StdRng::seed_from_u64(3);
        while run.step(&mut rng) {}
        assert!(run.fault_log().faults() > 0, "the spec must actually inject");
        let snap = run.snapshot_state(&VecF64Codec);
        let restored = RunCtx::restore(&snap, Duration::ZERO, 1, skip, Some(12), None).unwrap();
        assert_eq!(restored.evaluations(), run.evaluations());
        assert!(restored.finished);
        assert_eq!(restored.fault_log(), run.fault_log());
        assert_eq!(restored.recorder.points(), run.ctx().recorder.points());
        let shared = |c: &RunCtx| c.snapshot(Vec::new(), Vec::new());
        assert_eq!(shared(&restored), shared(run.ctx()));
    }

    #[test]
    fn a_state_without_fault_counters_is_refused() {
        let problem = Zdt::zdt1(4);
        let mut run = sampler(&problem, ctx(FaultConfig::default(), None, None));
        assert!(run.step(&mut StdRng::seed_from_u64(4)));
        let Value::Object(mut fields) = run.snapshot_state(&VecF64Codec) else {
            panic!("object snapshot")
        };
        fields.retain(|(key, _)| key != "faults");
        let old = Value::Object(fields);
        let restored = RunCtx::restore(&old, Duration::ZERO, 1, FaultConfig::default(), None, None);
        assert!(matches!(restored, Err(PersistError::Schema(_))), "{:?}", restored.err());
    }
}
