//! Fault-contained objective evaluation.
//!
//! As the evaluator is swapped for expensive external backends (thermal RC
//! solvers, cycle-accurate NoC simulators), evaluations start to *fail*:
//! they panic, return NaN/Inf, or produce malformed vectors. This module
//! turns those failures into data instead of process aborts:
//!
//! * [`GuardedEvaluator`] fans a batch out across scoped worker threads
//!   with per-candidate panic isolation and result validation,
//!   classifying every failure as a structured [`EvalFault`];
//! * [`FaultPolicy`] decides what happens next — abort the run with a
//!   clean error ([`FaultPolicy::Fail`]), quarantine the candidate behind a
//!   finite worst-case penalty vector ([`FaultPolicy::PenalizeWorst`]), or
//!   drop it ([`FaultPolicy::Skip`]) — optionally after a bounded number
//!   of deterministic retries;
//! * [`FaultLog`] counts every fault, retry and quarantine decision, and
//!   round-trips through checkpoints so a resumed run reports the same
//!   health numbers as an uninterrupted one.
//!
//! The determinism contract of the rest of the workspace is preserved:
//! with the same seed and fault stream, results are bit-identical at any
//! thread count, because fault decisions key off per-candidate evaluation
//! *ordinals* reserved before the batch fans out (see
//! [`Problem::reserve_ordinals`]) and retries run sequentially in batch
//! order.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use moela_obs::Obs;
use moela_persist::{PersistError, Restore, Snapshot, Value};

use crate::problem::Problem;

/// The finite worst-case objective value used to quarantine faulted
/// candidates under [`FaultPolicy::PenalizeWorst`].
///
/// It is finite (so dominance comparisons stay well-defined and archives,
/// normalizers and forests are never poisoned by NaN/Inf) but so large
/// that a penalty vector is dominated by every real design.
pub const PENALTY: f64 = 1e30;

/// A penalty objective vector for `m` objectives.
pub fn penalty_objectives(m: usize) -> Vec<f64> {
    vec![PENALTY; m]
}

/// `true` if `objectives` is a quarantine penalty vector (any coordinate
/// at or beyond [`PENALTY`]).
pub fn is_penalty(objectives: &[f64]) -> bool {
    objectives.iter().any(|&v| v >= PENALTY)
}

/// `true` if `objectives` must be kept out of archives, normalizers and
/// training sets: non-finite or a quarantine penalty vector.
pub fn is_quarantined(objectives: &[f64]) -> bool {
    objectives.iter().any(|&v| !v.is_finite() || v >= PENALTY)
}

/// What went wrong with one candidate's evaluation.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum FaultKind {
    /// The evaluation panicked.
    Panic,
    /// The objective vector contained NaN or ±Inf.
    NonFinite,
    /// The objective vector had the wrong number of entries.
    WrongArity,
}

impl FaultKind {
    /// A short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::NonFinite => "non-finite",
            FaultKind::WrongArity => "wrong-arity",
        }
    }
}

/// A structured evaluation failure: which candidate of the batch failed,
/// how, and with what diagnostic.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct EvalFault {
    /// The failure class.
    pub kind: FaultKind,
    /// Index of the candidate within its batch.
    pub index: usize,
    /// Human-readable diagnostic (panic message, offending arity, …).
    pub message: String,
}

impl std::fmt::Display for EvalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "evaluation fault ({}) at batch index {}: {}",
            self.kind.label(),
            self.index,
            self.message
        )
    }
}

/// How an optimizer responds to an evaluation fault that survived all
/// retries.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub enum FaultPolicy {
    /// Stop the run with a structured error (loud by default — matches
    /// the pre-fault-containment behavior, minus the process abort).
    #[default]
    Fail,
    /// Replace the candidate's objectives with the finite worst-case
    /// [`penalty_objectives`] vector so selection pressure retires it.
    PenalizeWorst,
    /// Drop the candidate wherever the algorithm structure allows;
    /// contexts that need one vector per candidate (initial populations)
    /// fall back to the penalty vector.
    Skip,
}

impl FaultPolicy {
    /// Parses a CLI name (`fail` | `penalize-worst` | `skip`).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "fail" => Ok(FaultPolicy::Fail),
            "penalize-worst" => Ok(FaultPolicy::PenalizeWorst),
            "skip" => Ok(FaultPolicy::Skip),
            other => {
                Err(format!("unknown fault policy '{other}' (try: fail, penalize-worst, skip)"))
            }
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultPolicy::Fail => "fail",
            FaultPolicy::PenalizeWorst => "penalize-worst",
            FaultPolicy::Skip => "skip",
        }
    }
}

/// Fault-handling configuration shared by every optimizer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// What to do with a candidate whose evaluation keeps faulting.
    pub policy: FaultPolicy,
    /// How many times to re-evaluate a faulted candidate before applying
    /// the policy. Retries run sequentially in batch order, each drawing a
    /// fresh evaluation ordinal, so they are deterministic at any thread
    /// count — and can genuinely succeed under injected (seeded) chaos.
    pub retries: u32,
}

/// Counters describing every fault seen by one optimizer run.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct FaultLog {
    /// Evaluations that panicked.
    pub panics: u64,
    /// Evaluations returning NaN/±Inf objectives.
    pub non_finite: u64,
    /// Evaluations returning a wrong-arity objective vector.
    pub wrong_arity: u64,
    /// Retry attempts spent.
    pub retries: u64,
    /// Faults cleared by a retry.
    pub recovered: u64,
    /// Candidates quarantined behind the penalty vector.
    pub penalized: u64,
    /// Candidates dropped.
    pub skipped: u64,
}

impl FaultLog {
    /// Total faulted evaluation attempts (every kind, retries included).
    pub fn faults(&self) -> u64 {
        self.panics + self.non_finite + self.wrong_arity
    }

    /// `true` if no fault was ever observed.
    pub fn is_clean(&self) -> bool {
        *self == FaultLog::default()
    }

    fn count(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Panic => self.panics += 1,
            FaultKind::NonFinite => self.non_finite += 1,
            FaultKind::WrongArity => self.wrong_arity += 1,
        }
    }
}

impl Snapshot for FaultLog {
    fn snapshot(&self) -> Value {
        Value::object(vec![
            ("panics", Value::U64(self.panics)),
            ("non_finite", Value::U64(self.non_finite)),
            ("wrong_arity", Value::U64(self.wrong_arity)),
            ("retries", Value::U64(self.retries)),
            ("recovered", Value::U64(self.recovered)),
            ("penalized", Value::U64(self.penalized)),
            ("skipped", Value::U64(self.skipped)),
        ])
    }
}

impl Restore for FaultLog {
    fn restore(value: &Value) -> Result<Self, PersistError> {
        Ok(FaultLog {
            panics: value.field("panics")?.as_u64()?,
            non_finite: value.field("non_finite")?.as_u64()?,
            wrong_arity: value.field("wrong_arity")?.as_u64()?,
            retries: value.field("retries")?.as_u64()?,
            recovered: value.field("recovered")?.as_u64()?,
            penalized: value.field("penalized")?.as_u64()?,
            skipped: value.field("skipped")?.as_u64()?,
        })
    }
}

/// Restores a fault log from an optional checkpoint field: states
/// checkpointed before fault containment existed simply have none.
pub fn fault_log_from(state: &Value, key: &str) -> Result<FaultLog, PersistError> {
    match state.field(key) {
        Ok(v) => FaultLog::restore(v),
        Err(_) => Ok(FaultLog::default()),
    }
}

thread_local! {
    /// Set while a guarded evaluation runs on this thread, so the global
    /// panic hook knows to swallow the (expected, contained) output.
    static SUPPRESS: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent for
/// panics contained by a [`GuardedEvaluator`] and delegates every other
/// panic to the previously installed hook — `#[should_panic]` tests and
/// genuine crashes keep printing normally.
pub fn suppress_contained_panic_output() {
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, catching a panic without letting the panic hook print.
fn catch_quiet<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    suppress_contained_panic_output();
    SUPPRESS.with(|s| s.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS.with(|s| s.set(false));
    out
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Evaluates one candidate under full containment: panics are caught
/// quietly, and the returned vector is validated for arity and
/// finiteness.
fn guarded_eval_one<P: Problem>(
    problem: &P,
    solution: &P::Solution,
    ordinal: u64,
    m: usize,
    index: usize,
) -> Result<Vec<f64>, EvalFault> {
    match catch_quiet(|| problem.evaluate_ordinal(solution, ordinal)) {
        Err(payload) => Err(EvalFault {
            kind: FaultKind::Panic,
            index,
            message: panic_message(payload.as_ref()),
        }),
        Ok(objs) if objs.len() != m => Err(EvalFault {
            kind: FaultKind::WrongArity,
            index,
            message: format!("expected {m} objectives, got {}", objs.len()),
        }),
        Ok(objs) if objs.iter().any(|v| !v.is_finite()) => Err(EvalFault {
            kind: FaultKind::NonFinite,
            index,
            message: format!("objective vector {objs:?} contains a non-finite value"),
        }),
        Ok(objs) => Ok(objs),
    }
}

/// The outcome of one guarded batch evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardedBatch {
    /// One entry per input candidate, in input order: `Some(objectives)`
    /// for clean (or penalized) evaluations, `None` for candidates the
    /// policy dropped (Skip) or that latched a Fail error.
    pub objectives: Vec<Option<Vec<f64>>>,
    /// Evaluation attempts paid for, retries included — add this to the
    /// run's evaluation budget.
    pub attempts: u64,
}

impl GuardedBatch {
    /// Objectives with dropped slots filled by [`penalty_objectives`],
    /// for contexts that structurally need one vector per candidate
    /// (initial populations).
    pub fn materialized(&self, m: usize) -> Vec<Vec<f64>> {
        self.objectives.iter().map(|o| o.clone().unwrap_or_else(|| penalty_objectives(m))).collect()
    }
}

/// The workspace's one evaluation engine: a batch fanned out across
/// scoped worker threads, with per-candidate panic isolation,
/// validation, retries, and policy application.
///
/// Candidates are generated sequentially by the optimizer, so the RNG
/// stream does not depend on the worker count. They are evaluated here in
/// contiguous chunks, one per worker, and reassembled in input order.
/// Candidate `i` is evaluated as ordinal `base + i` however the batch is
/// chunked, so results, fault decisions and costs are bit-identical at
/// any worker count. On the happy path (no faults) it returns exactly
/// what per-candidate [`Problem::evaluate_ordinal`] returns, at the same
/// cost.
#[derive(Clone, Debug)]
pub struct GuardedEvaluator {
    threads: usize,
    config: FaultConfig,
    log: FaultLog,
    error: Option<EvalFault>,
    obs: Obs,
}

impl GuardedEvaluator {
    /// A guard with `threads` evaluation workers (0 = auto) and the given
    /// fault policy.
    pub fn new(threads: usize, config: FaultConfig) -> Self {
        Self::from_parts(threads, config, FaultLog::default())
    }

    /// Rebuilds a guard from a checkpointed fault log. `threads = 0`
    /// resolves to the host's available parallelism (1 when it cannot be
    /// determined).
    pub fn from_parts(threads: usize, config: FaultConfig, log: FaultLog) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        Self { threads, config, log, error: None, obs: Obs::disabled() }
    }

    /// Installs the observability handle every batch evaluation reports
    /// through (`evaluate` spans plus `evaluations`/`eval_faults`
    /// counters). The default handle is disabled and free.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The fault counters accumulated so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// The latched [`FaultPolicy::Fail`] error, if one occurred.
    pub fn error(&self) -> Option<&EvalFault> {
        self.error.as_ref()
    }

    /// `true` once a [`FaultPolicy::Fail`] fault has latched; the owning
    /// optimizer must stop stepping.
    pub fn poisoned(&self) -> bool {
        self.error.is_some()
    }

    /// Evaluates a batch under containment. See [`GuardedBatch`].
    pub fn evaluate<P>(&mut self, problem: &P, solutions: &[P::Solution]) -> GuardedBatch
    where
        P: Problem + Sync,
        P::Solution: Sync,
    {
        if solutions.is_empty() || self.poisoned() {
            return GuardedBatch { objectives: vec![None; solutions.len()], attempts: 0 };
        }
        let _span = self.obs.span("evaluate");
        let faults_before = self.log.faults();
        let m = problem.objective_count();
        let base = problem.reserve_ordinals(solutions.len() as u64);
        let mut results = fan_out(problem, solutions, base, m, self.threads);
        let mut attempts = solutions.len() as u64;

        // Retries run sequentially in batch order: deterministic at any
        // thread count, and each attempt draws a fresh ordinal so seeded
        // chaos can clear on retry.
        for i in 0..results.len() {
            let Err(fault) = &results[i] else { continue };
            self.log.count(fault.kind);
            for _ in 0..self.config.retries {
                let ordinal = problem.reserve_ordinals(1);
                attempts += 1;
                self.log.retries += 1;
                match guarded_eval_one(problem, &solutions[i], ordinal, m, i) {
                    Ok(objs) => {
                        self.log.recovered += 1;
                        results[i] = Ok(objs);
                        break;
                    }
                    Err(fault) => {
                        self.log.count(fault.kind);
                        results[i] = Err(fault);
                    }
                }
            }
        }

        let objectives = results
            .into_iter()
            .map(|r| match r {
                Ok(objs) => Some(objs),
                Err(fault) => match self.config.policy {
                    FaultPolicy::Fail => {
                        if self.error.is_none() {
                            self.error = Some(fault);
                        }
                        None
                    }
                    FaultPolicy::PenalizeWorst => {
                        self.log.penalized += 1;
                        Some(penalty_objectives(m))
                    }
                    FaultPolicy::Skip => {
                        self.log.skipped += 1;
                        None
                    }
                },
            })
            .collect();
        self.obs.counter("evaluations", attempts);
        let faulted = self.log.faults() - faults_before;
        if faulted > 0 {
            self.obs.counter("eval_faults", faulted);
        }
        GuardedBatch { objectives, attempts }
    }
}

/// Evaluates `solutions` on up to `threads` scoped workers, each taking
/// one contiguous chunk, with per-candidate panic isolation and result
/// validation. Returns one `Result` per candidate in input order;
/// candidate `i` is evaluated as ordinal `base_ordinal + i`. A single
/// worker (or a batch of one) runs on the caller's thread.
fn fan_out<P>(
    problem: &P,
    solutions: &[P::Solution],
    base_ordinal: u64,
    m: usize,
    threads: usize,
) -> Vec<Result<Vec<f64>, EvalFault>>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    let workers = threads.min(solutions.len());
    let eval_chunk = |chunk: &[P::Solution], offset: usize| -> Vec<Result<Vec<f64>, EvalFault>> {
        chunk
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let index = offset + k;
                guarded_eval_one(problem, s, base_ordinal + index as u64, m, index)
            })
            .collect()
    };
    if workers <= 1 {
        return eval_chunk(solutions, 0);
    }
    let chunk_len = solutions.len().div_ceil(workers);
    let mut results: Vec<Vec<Result<Vec<f64>, EvalFault>>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = solutions
            .chunks(chunk_len)
            .enumerate()
            .map(|(c, chunk)| scope.spawn(move || eval_chunk(chunk, c * chunk_len)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(chunk) => results.push(chunk),
                // The chunk closure contains every per-item panic, so a
                // join error means the *harness* itself failed.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Zdt;
    use rand::SeedableRng;

    /// Panics on negative leads, NaNs on leads in (0, 0.1), wrong arity on
    /// leads in (0.1, 0.2).
    struct Moody;

    impl Problem for Moody {
        type Solution = Vec<f64>;

        fn objective_count(&self) -> usize {
            2
        }

        fn random_solution(&self, _rng: &mut dyn rand::RngCore) -> Vec<f64> {
            vec![1.0]
        }

        fn neighbor(&self, s: &Vec<f64>, _rng: &mut dyn rand::RngCore) -> Vec<f64> {
            s.clone()
        }

        fn crossover(&self, a: &Vec<f64>, _b: &Vec<f64>, _rng: &mut dyn rand::RngCore) -> Vec<f64> {
            a.clone()
        }

        fn evaluate(&self, s: &Vec<f64>) -> Vec<f64> {
            let x = s[0];
            assert!(x >= 0.0, "moody evaluation refused a negative lead");
            if x < 0.1 {
                vec![f64::NAN, 1.0]
            } else if x < 0.2 {
                vec![x]
            } else {
                vec![x, 1.0 - x]
            }
        }

        fn features(&self, s: &Vec<f64>) -> Vec<f64> {
            s.clone()
        }

        fn feature_len(&self) -> usize {
            1
        }
    }

    fn moody_batch() -> Vec<Vec<f64>> {
        vec![vec![0.5], vec![-1.0], vec![0.05], vec![0.15], vec![0.9]]
    }

    #[test]
    fn faults_are_classified_per_candidate_at_any_thread_count() {
        for threads in [1, 4] {
            let out = fan_out(&Moody, &moody_batch(), 0, 2, threads);
            assert!(out[0].is_ok() && out[4].is_ok(), "threads {threads}");
            assert_eq!(out[1].as_ref().unwrap_err().kind, FaultKind::Panic);
            assert_eq!(out[2].as_ref().unwrap_err().kind, FaultKind::NonFinite);
            assert_eq!(out[3].as_ref().unwrap_err().kind, FaultKind::WrongArity);
            assert_eq!(out[1].as_ref().unwrap_err().index, 1);
        }
    }

    #[test]
    fn penalize_worst_quarantines_behind_finite_penalties() {
        let mut guard = GuardedEvaluator::new(
            2,
            FaultConfig { policy: FaultPolicy::PenalizeWorst, retries: 0 },
        );
        let batch = guard.evaluate(&Moody, &moody_batch());
        assert_eq!(batch.attempts, 5);
        assert_eq!(batch.objectives[0], Some(vec![0.5, 0.5]));
        for i in [1, 2, 3] {
            let objs = batch.objectives[i].as_ref().expect("penalized, not dropped");
            assert!(is_penalty(objs) && objs.iter().all(|v| v.is_finite()));
        }
        assert_eq!(guard.log().penalized, 3);
        assert_eq!(guard.log().faults(), 3);
        assert!(!guard.poisoned());
    }

    #[test]
    fn skip_drops_faulted_candidates() {
        let mut guard =
            GuardedEvaluator::new(1, FaultConfig { policy: FaultPolicy::Skip, retries: 0 });
        let batch = guard.evaluate(&Moody, &moody_batch());
        assert_eq!(batch.objectives.iter().filter(|o| o.is_none()).count(), 3);
        assert_eq!(guard.log().skipped, 3);
        let filled = batch.materialized(2);
        assert_eq!(filled.len(), 5);
        assert!(is_penalty(&filled[1]));
    }

    #[test]
    fn fail_latches_the_first_fault_and_poisons_the_guard() {
        let mut guard =
            GuardedEvaluator::new(4, FaultConfig { policy: FaultPolicy::Fail, retries: 0 });
        let batch = guard.evaluate(&Moody, &moody_batch());
        assert!(guard.poisoned());
        let err = guard.error().expect("latched");
        assert_eq!(err.kind, FaultKind::Panic);
        assert_eq!(err.index, 1);
        assert!(err.message.contains("negative lead"));
        assert!(batch.objectives[0].is_some());
        // A poisoned guard refuses further work without spending budget.
        let after = guard.evaluate(&Moody, &moody_batch());
        assert_eq!(after.attempts, 0);
        assert!(after.objectives.iter().all(Option::is_none));
    }

    #[test]
    fn retries_spend_budget_and_are_logged() {
        // Moody faults deterministically, so retries never recover — they
        // must still be counted and charged.
        let mut guard = GuardedEvaluator::new(
            1,
            FaultConfig { policy: FaultPolicy::PenalizeWorst, retries: 2 },
        );
        let batch = guard.evaluate(&Moody, &moody_batch());
        assert_eq!(batch.attempts, 5 + 3 * 2);
        assert_eq!(guard.log().retries, 6);
        assert_eq!(guard.log().recovered, 0);
        assert_eq!(guard.log().panics, 3); // initial + 2 retries
    }

    #[test]
    fn happy_path_matches_sequential_evaluation_at_every_worker_count() {
        let problem = Zdt::zdt3(6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let batch: Vec<_> = (0..17).map(|_| problem.random_solution(&mut rng)).collect();
        let plain: Vec<Vec<f64>> = batch.iter().map(|s| problem.evaluate(s)).collect();
        for threads in [0, 1, 2, 3, 4, 8, 64] {
            let mut guard = GuardedEvaluator::new(threads, FaultConfig::default());
            for len in [0, 1, batch.len()] {
                let guarded = guard.evaluate(&problem, &batch[..len]);
                assert_eq!(guarded.attempts, len as u64, "threads {threads}");
                let values: Vec<Vec<f64>> =
                    guarded.objectives.into_iter().map(|o| o.expect("clean")).collect();
                assert_eq!(values, plain[..len], "threads {threads}, {len} candidates");
            }
            assert!(guard.log().is_clean());
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(GuardedEvaluator::new(0, FaultConfig::default()).threads >= 1);
        assert_eq!(GuardedEvaluator::new(3, FaultConfig::default()).threads, 3);
    }

    #[test]
    fn fault_log_round_trips_and_tolerates_missing_fields() {
        let log = FaultLog {
            panics: 1,
            non_finite: 2,
            wrong_arity: 3,
            retries: 4,
            recovered: 5,
            penalized: 6,
            skipped: 7,
        };
        assert_eq!(FaultLog::restore(&log.snapshot()).unwrap(), log);
        let state = Value::object(vec![("other", Value::U64(1))]);
        assert_eq!(fault_log_from(&state, "faults").unwrap(), FaultLog::default());
        let with = Value::object(vec![("faults", log.snapshot())]);
        assert_eq!(fault_log_from(&with, "faults").unwrap(), log);
    }

    #[test]
    fn quarantine_predicates_classify_vectors() {
        assert!(is_penalty(&penalty_objectives(3)));
        assert!(is_quarantined(&[1.0, f64::NAN]));
        assert!(is_quarantined(&[f64::INFINITY, 0.0]));
        assert!(is_quarantined(&[PENALTY, 0.0]));
        assert!(!is_quarantined(&[1.0, 2.0]));
        assert!(!is_penalty(&[1.0, 2.0]));
    }
}
