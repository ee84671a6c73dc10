//! MOO-STAGE (Joardar et al., IEEE TC 2019): STAGE-style learning of an
//! evaluation function that predicts *how good an outcome a local search
//! reaches from a given start*, used to pick restart points.
//!
//! Reimplemented from the published description (and Boyan & Moore's
//! original STAGE):
//!
//! * the **base search** is a PHV-greedy local search: a neighbor is
//!   accepted when inserting it into the Pareto archive would raise the
//!   archive's hypervolume (this per-candidate PHV computation is the
//!   overhead MOELA's §IV.A calls out);
//! * every base-search trajectory is labeled with the final archive PHV
//!   and appended to the training set of a random-forest `Eval`, refit
//!   from that set every episode (so `Eval` is a local of the step and
//!   is never checkpointed);
//! * the **meta search** hill-climbs on `Eval`'s *predictions* (no real
//!   evaluations) from the end of the last trajectory to propose the next
//!   start; when the meta search stalls, the next start is random.
//!
//! The run loop is exposed as a checkpointable state machine
//! ([`MooStageState`], one step per episode).

use std::slice;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::RngCore;

use moela_ml::{Dataset, RandomForest, MIN_FIT_ROWS, SURROGATE_FOREST};
use moela_moo::archive::ParetoArchive;
use moela_moo::checkpoint::{run_to_end, Resumable, RunCtx};
use moela_moo::fault::{is_quarantined, FaultConfig};
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::snapshot::{archive_from_value, archive_to_value};
use moela_moo::Problem;
use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

use crate::common::{normalized_phv, ARCHIVE_CAP, DESCENT, PATIENCE};

/// Meta-search (predicted-`Eval` hill-climb) step limit.
const META_STEPS: usize = 10;

/// MOO-STAGE parameters. The archive cap and base-search budget are
/// [`crate::common`]'s, and `Eval` is a [`moela_ml::SURROGATE_FOREST`].
#[derive(Clone, Debug, PartialEq)]
pub struct MooStageConfig {
    /// Number of base-search episodes.
    pub episodes: usize,
    /// Pre-fitted objective normalizer for the PHV trace; `None` fits one
    /// online (see [`moela_moo::run::TraceRecorder`]).
    pub trace_normalizer: Option<moela_moo::normalize::Normalizer>,
    /// Optional cap on objective evaluations.
    pub max_evaluations: Option<u64>,
    /// Optional wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Worker threads the run's [`moela_moo::GuardedEvaluator`] fans each
    /// evaluation batch across (`0` = auto-detect). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Fault-containment policy for evaluation (see
    /// [`moela_moo::GuardedEvaluator`]).
    pub fault: FaultConfig,
}

impl Default for MooStageConfig {
    fn default() -> Self {
        Self {
            episodes: 40,
            trace_normalizer: None,
            max_evaluations: None,
            time_budget: None,
            threads: 1,
            fault: FaultConfig::default(),
        }
    }
}

/// The MOO-STAGE optimizer bound to one problem.
///
/// # Example
///
/// ```
/// use moela_baselines::{MooStage, MooStageConfig};
/// use moela_moo::problems::Zdt;
/// use rand::SeedableRng;
///
/// let problem = Zdt::zdt1(10);
/// let config = MooStageConfig { episodes: 4, ..Default::default() };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let out = MooStage::new(config, &problem).run(&mut rng);
/// assert!(!out.population.is_empty());
/// ```
#[derive(Debug)]
pub struct MooStage<'p, P> {
    config: MooStageConfig,
    problem: &'p P,
}

impl<'p, P: Problem> MooStage<'p, P> {
    /// Binds a configuration to a problem.
    ///
    /// # Panics
    ///
    /// Panics if `episodes` is zero.
    pub fn new(config: MooStageConfig, problem: &'p P) -> Self {
        assert!(config.episodes > 0, "episodes must be positive");
        Self { config, problem }
    }
}

impl<'p, P> MooStage<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    /// Runs MOO-STAGE and returns the archive (as the population) with its
    /// trace.
    ///
    /// Each base-search step's neighbors are sampled sequentially from
    /// `rng`, then evaluated as one batch through a
    /// [`moela_moo::GuardedEvaluator`] sized by
    /// [`MooStageConfig::threads`] — results are bit-identical for every
    /// thread count (the archive only changes after the step's best
    /// candidate is chosen).
    pub fn run(&self, rng: &mut StdRng) -> RunResult<P::Solution> {
        run_to_end(self.start(rng), rng)
    }

    /// Initializes a run (the seeded archive + episode-0 trace point) as
    /// a steppable state machine.
    pub fn start(&self, rng: &mut dyn RngCore) -> MooStageState<'p, P> {
        let cfg = self.config.clone();
        let m = self.problem.objective_count();
        let mut ctx = RunCtx::new(
            cfg.threads,
            cfg.fault,
            cfg.trace_normalizer.as_ref(),
            m,
            cfg.max_evaluations,
            cfg.time_budget,
        );

        let mut archive: ParetoArchive<P::Solution> = ParetoArchive::bounded(ARCHIVE_CAP);
        let mut normalizer = Normalizer::new(m);

        // Initial random start; a quarantined one is simply not archived
        // (the base search still departs from it).
        let start = self.problem.random_solution(rng);
        let o = ctx.evaluate(self.problem, slice::from_ref(&start)).objectives.pop().flatten();
        if let Some(o) = o.filter(|o| !is_quarantined(o)) {
            normalizer.observe(&o);
            ctx.recorder.observe(&o);
            archive.insert(start.clone(), o);
        }
        ctx.record(0, &archive.objectives());

        MooStageState {
            config: cfg,
            problem: self.problem,
            ctx,
            archive,
            normalizer,
            train: Dataset::with_capacity(10_000),
            start,
            episode: 0,
        }
    }

    /// Rebuilds a mid-run state from a [`MooStageState::snapshot_state`]
    /// value, with `elapsed` wall-clock time already consumed.
    pub fn restore<C: SolutionCodec<P::Solution>>(
        &self,
        codec: &C,
        value: &Value,
        elapsed: Duration,
    ) -> Result<MooStageState<'p, P>, PersistError> {
        let cfg = self.config.clone();
        let m = self.problem.objective_count();
        let normalizer = Normalizer::restore(value.field("normalizer")?)?;
        if normalizer.len() != m {
            return Err(PersistError::schema("checkpointed normalizer dimension mismatch"));
        }
        let train = Dataset::restore(value.field("train")?)?;
        train.check_width(self.problem.feature_len())?;
        Ok(MooStageState {
            ctx: RunCtx::restore(
                value,
                elapsed,
                cfg.threads,
                cfg.fault,
                cfg.max_evaluations,
                cfg.time_budget,
            )?,
            config: cfg,
            problem: self.problem,
            archive: archive_from_value(value.field("archive")?, codec)?,
            normalizer,
            train,
            start: codec.decode_solution(value.field("start")?)?,
            episode: value.field("episode")?.as_usize()?,
        })
    }
}

/// A MOO-STAGE run in progress, checkpointable between episodes.
#[derive(Debug)]
pub struct MooStageState<'p, P: Problem> {
    config: MooStageConfig,
    problem: &'p P,
    ctx: RunCtx,
    archive: ParetoArchive<P::Solution>,
    normalizer: Normalizer,
    train: Dataset,
    /// The next episode's base-search start, carried across episodes.
    start: P::Solution,
    episode: usize,
}

impl<'p, P, C> Resumable<C> for MooStageState<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
    C: SolutionCodec<P::Solution>,
{
    type Solution = P::Solution;

    fn ctx(&self) -> &RunCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut RunCtx {
        &mut self.ctx
    }

    /// Completed episodes.
    fn completed(&self) -> u64 {
        self.episode as u64
    }

    /// Executes one episode.
    fn step(&mut self, rng: &mut StdRng) -> bool {
        if !self.ctx.begin_step(self.episode >= self.config.episodes) {
            return false;
        }
        let episode = self.episode;

        // --- Base search: PHV-greedy hill climb ---------------------
        let ls_span = self.ctx.obs.span("local_search");
        let mut ls_improvements = 0u64;
        let mut current = self.start.clone();
        let mut current_phv = normalized_phv(&self.archive.objectives(), &self.normalizer);
        let mut trajectory: Vec<Vec<f64>> = vec![self.problem.features(&current)];
        let mut stalls = 0usize;
        for _ in 0..DESCENT.max_steps {
            let candidates: Vec<P::Solution> = (0..DESCENT.neighbors_per_step)
                .map(|_| self.problem.neighbor(&current, rng))
                .collect();
            let batch = self.ctx.evaluate(self.problem, &candidates);
            if self.ctx.poisoned() {
                return false;
            }
            let mut best: Option<(P::Solution, Vec<f64>, f64)> = None;
            for (cand, objs) in candidates.into_iter().zip(batch.objectives) {
                let Some(objs) = objs else { continue };
                if is_quarantined(&objs) {
                    continue;
                }
                self.normalizer.observe(&objs);
                self.ctx.recorder.observe(&objs);
                // PHV potential: archive HV if this design joined.
                let mut with = self.archive.objectives();
                with.push(objs.clone());
                let potential = normalized_phv(&with, &self.normalizer);
                if best.as_ref().is_none_or(|(_, _, bp)| potential > *bp) {
                    best = Some((cand, objs, potential));
                }
            }
            match best {
                Some((cand, objs, potential)) if potential > current_phv + 1e-12 => {
                    if self.archive.insert(cand.clone(), objs) {
                        ls_improvements += 1;
                    }
                    current = cand;
                    current_phv = potential;
                    trajectory.push(self.problem.features(&current));
                    stalls = 0;
                }
                _ => {
                    stalls += 1;
                    if stalls >= PATIENCE {
                        break;
                    }
                }
            }
        }

        if ls_improvements > 0 {
            self.ctx.obs.counter(moela_obs::names::LS_IMPROVEMENTS, ls_improvements);
        }
        drop(ls_span);

        // --- Label the trajectory and retrain Eval ------------------
        let final_phv = normalized_phv(&self.archive.objectives(), &self.normalizer);
        for features in trajectory {
            // STAGE regresses the *outcome* onto every visited state;
            // negate so lower predictions mean better starts, matching
            // the random-forest consumers elsewhere in the workspace.
            self.train.push_finite(features, -final_phv);
        }
        // The training set only grows, so once it is large enough every
        // episode refits before it predicts, and `Eval` never outlives
        // the episode.
        let eval_fn = (self.train.len() >= MIN_FIT_ROWS).then(|| {
            let _fit = self.ctx.obs.span("surrogate_fit");
            RandomForest::fit(&self.train, &SURROGATE_FOREST, rng)
        });

        // --- Meta search on predicted Eval --------------------------
        self.start = match &eval_fn {
            Some(model) => {
                let _predict = self.ctx.obs.span("surrogate_predict");
                let mut meta = current.clone();
                let mut meta_score = model.predict(&self.problem.features(&meta));
                let mut moves = 0u64;
                for _ in 0..META_STEPS {
                    let cand = self.problem.neighbor(&meta, rng);
                    let score = model.predict(&self.problem.features(&cand));
                    if score < meta_score {
                        meta = cand;
                        meta_score = score;
                        moves += 1;
                    }
                }
                // Both every time, so a run's metrics name them even at 0.
                self.ctx.obs.counter(moela_obs::names::META_MOVES, moves);
                self.ctx.obs.counter(moela_obs::names::RANDOM_RESTARTS, u64::from(moves == 0));
                if moves > 0 {
                    meta
                } else {
                    // STAGE restarts randomly when the meta search
                    // cannot escape the current basin.
                    self.problem.random_solution(rng)
                }
            }
            None => self.problem.random_solution(rng),
        };

        {
            let _archive = self.ctx.obs.span("archive_update");
            self.ctx.record(episode + 1, &self.archive.objectives());
        }
        self.episode = episode + 1;
        self.ctx.obs.gauge("archive_size", self.archive.len() as f64);
        self.ctx.report_step();
        true
    }

    fn snapshot_state(&self, codec: &C) -> Value {
        self.ctx.snapshot(
            vec![("episode", Value::U64(self.episode as u64))],
            vec![
                ("archive", archive_to_value(&self.archive, codec)),
                ("normalizer", self.normalizer.snapshot()),
                ("train", self.train.snapshot()),
                ("start", codec.encode_solution(&self.start)),
            ],
        )
    }

    fn finish(self) -> RunResult<P::Solution> {
        self.ctx.into_result(self.archive.into_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_moo::metrics::igd;
    use moela_moo::problems::Zdt;
    use moela_persist::VecF64Codec;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Fixes the checkpoint codec so the `Resumable` methods resolve.
    fn zdt<S>(state: S) -> impl Resumable<VecF64Codec, Solution = Vec<f64>>
    where
        S: Resumable<VecF64Codec, Solution = Vec<f64>>,
    {
        state
    }

    #[test]
    fn archive_is_nondominated_and_bounded() {
        let problem = Zdt::zdt1(8);
        let config = MooStageConfig { episodes: 8, ..Default::default() };
        let out = MooStage::new(config, &problem).run(&mut rng(1));
        assert!(out.population.len() <= ARCHIVE_CAP);
        let objs: Vec<Vec<f64>> = out.population.iter().map(|(_, o)| o.clone()).collect();
        assert_eq!(moela_moo::pareto::non_dominated_indices(&objs).len(), objs.len());
    }

    #[test]
    fn phv_trace_improves() {
        let problem = Zdt::zdt1(8);
        let normalizer =
            moela_moo::normalize::Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 10.0]);
        let config = MooStageConfig {
            episodes: 15,
            trace_normalizer: Some(normalizer),
            ..Default::default()
        };
        let out = MooStage::new(config, &problem).run(&mut rng(2));
        assert!(out.trace.last().expect("non-empty").phv > out.trace[0].phv);
    }

    #[test]
    fn makes_progress_toward_the_front() {
        let problem = Zdt::zdt1(8);
        let config = MooStageConfig { episodes: 30, ..Default::default() };
        let out = MooStage::new(config, &problem).run(&mut rng(3));
        let d = igd(&out.front_objectives(), &problem.true_front(100));
        assert!(d < 1.5, "IGD {d}");
    }

    #[test]
    fn respects_the_evaluation_cap() {
        let problem = Zdt::zdt1(8);
        let config =
            MooStageConfig { episodes: 10_000, max_evaluations: Some(300), ..Default::default() };
        let out = MooStage::new(config, &problem).run(&mut rng(4));
        assert!(out.evaluations <= 300 + 110, "evaluations {}", out.evaluations);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let problem = Zdt::zdt2(8);
        let run = |threads: usize| {
            let config = MooStageConfig { episodes: 8, threads, ..Default::default() };
            MooStage::new(config, &problem).run(&mut rng(6))
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(parallel.evaluations, sequential.evaluations);
        let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };
        assert_eq!(objs(&parallel), objs(&sequential));
    }

    /// Under injected chaos with a containment policy, a full MOO-STAGE
    /// run completes, its archive stays clean, and results are
    /// bit-identical at any thread count.
    #[test]
    fn chaotic_runs_are_finite_and_thread_invariant() {
        use moela_moo::fault::{FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("panic=0.05,nan=0.05,arity=0.03").unwrap();
        let run = |threads: usize| {
            let problem = ChaosProblem::new(Zdt::zdt1(8), spec, 31);
            let config = MooStageConfig {
                episodes: 6,
                threads,
                fault: FaultConfig { policy: FaultPolicy::Skip, retries: 1 },
                ..Default::default()
            };
            let mut r = rng(13);
            let mut state = zdt(MooStage::new(config, &problem).start(&mut r));
            while state.step(&mut r) {}
            let log = *state.fault_log();
            (state.finish(), log)
        };
        let (base, base_log) = run(1);
        assert!(base_log.faults() > 0, "the spec must actually inject");
        assert!(base
            .population
            .iter()
            .all(|(_, o)| o.iter().all(|v| v.is_finite()) && !moela_moo::fault::is_penalty(o)));
        for threads in [2, 4] {
            let (out, log) = run(threads);
            assert_eq!(out.evaluations, base.evaluations, "threads = {threads}");
            let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
                r.population.iter().map(|(_, o)| o.clone()).collect()
            };
            assert_eq!(objs(&out), objs(&base), "threads = {threads}");
            assert_eq!(log, base_log, "fault counters must not depend on threads");
        }
    }

    /// The default Fail policy latches the first fault as a structured
    /// error and stops the run instead of aborting the process.
    #[test]
    fn fail_policy_latches_a_structured_error() {
        use moela_moo::fault::FaultKind;
        use moela_moo::{ChaosProblem, ChaosSpec};
        let problem = ChaosProblem::new(Zdt::zdt1(6), ChaosSpec::parse("panic=1.0").unwrap(), 5);
        let config = MooStageConfig { episodes: 10, ..Default::default() };
        let mut r = rng(1);
        let mut state = zdt(MooStage::new(config, &problem).start(&mut r));
        assert!(!state.step(&mut r), "the poisoned guard must stop the run");
        let err = state.fault_error().expect("a latched error");
        assert_eq!(err.kind, FaultKind::Panic);
    }

    #[test]
    fn snapshot_resume_is_bit_identical_at_every_boundary() {
        // Enough episodes that the meta search runs both with and without
        // a fitted Eval model across the resume boundary.
        let problem = Zdt::zdt1(8);
        let config = MooStageConfig { episodes: 7, ..Default::default() };
        let stage = MooStage::new(config.clone(), &problem);
        let baseline = MooStage::new(config, &problem).run(&mut rng(61));

        for boundary in [0u64, 1, 3, 6] {
            let mut r = rng(61);
            let mut state = zdt(stage.start(&mut r));
            while state.completed() < boundary && state.step(&mut r) {}
            let snap = state.snapshot_state(&VecF64Codec);
            let mut r2 = rand::rngs::StdRng::from_state(r.state());
            let mut resumed =
                zdt(stage.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
            while resumed.step(&mut r2) {}
            let out = resumed.finish();
            assert_eq!(out.evaluations, baseline.evaluations, "boundary {boundary}");
            let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
                r.population.iter().map(|(_, o)| o.clone()).collect()
            };
            assert_eq!(objs(&out), objs(&baseline), "boundary {boundary}");
            let trace = |r: &RunResult<Vec<f64>>| -> Vec<(usize, u64, f64)> {
                r.trace.iter().map(|p| (p.generation, p.evaluations, p.phv)).collect()
            };
            assert_eq!(trace(&out), trace(&baseline), "boundary {boundary}");
        }
    }
}
