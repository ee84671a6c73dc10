//! MOOS (Deshwal et al., ACM TECS 2019): an ML-guided multi-objective
//! local-search framework that *learns which search direction to follow
//! next* — the paper's strongest prior-art baseline.
//!
//! Reimplemented from the published description:
//!
//! * a Pareto **archive** holds every non-dominated design found;
//! * the search proceeds in **episodes**: each episode picks a
//!   (start, direction) pair — the start from the archive, the direction
//!   from a fixed fan of scalarization weights — and runs a greedy
//!   weighted-sum descent, inserting accepted designs into the archive;
//! * a random forest learns `(start features ⧺ direction) → PHV gain`, and
//!   after a warm-up the next episode picks the candidate pair with the
//!   highest *predicted* gain (ε-greedy to keep exploring).
//!
//! The PHV-gain labels are exactly the "costly PHV calculations" MOELA's
//! §IV.A criticizes — they are recomputed after every episode here, which
//! is faithful to MOOS and is what the speed comparison measures.
//!
//! The run loop is exposed as a checkpointable state machine
//! ([`MoosState`], one step per episode).

use std::slice;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use moela_ml::{Dataset, Surrogate, MIN_FIT_ROWS};
use moela_moo::archive::ParetoArchive;
use moela_moo::checkpoint::{run_to_end, Resumable, RunCtx};
use moela_moo::fault::{is_quarantined, penalty_objectives, FaultConfig};
use moela_moo::local_search::greedy_descent;
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::scalarize::ReferencePoint;
use moela_moo::snapshot::{archive_from_value, archive_to_value};
use moela_moo::weights::uniform_weights;
use moela_moo::Problem;
use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

use crate::common::{normalized_phv, ARCHIVE_CAP, DESCENT};

/// Number of scalarization directions in the fan.
const DIRECTIONS: usize = 12;

/// Episodes with random (unguided) direction selection.
const WARMUP: usize = 8;

/// ε of the ε-greedy direction policy after warm-up.
const EPSILON: f64 = 0.3;

/// MOOS parameters. The archive cap and descent budget are
/// [`crate::common`]'s, and the gain model is a
/// [`moela_ml::SURROGATE_FOREST`].
#[derive(Clone, Debug, PartialEq)]
pub struct MoosConfig {
    /// Number of search episodes.
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

impl Default for MoosConfig {
    fn default() -> Self {
        Self {
            episodes: 60,
            trace_normalizer: None,
            max_evaluations: None,
            time_budget: None,
            threads: 1,
            fault: FaultConfig::default(),
        }
    }
}

/// The MOOS optimizer bound to one problem.
///
/// # Example
///
/// ```
/// use moela_baselines::{Moos, MoosConfig};
/// use moela_moo::problems::Zdt;
/// use rand::SeedableRng;
///
/// let problem = Zdt::zdt1(10);
/// let config = MoosConfig { episodes: 5, ..Default::default() };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let out = Moos::new(config, &problem).run(&mut rng);
/// assert!(!out.population.is_empty());
/// ```
#[derive(Debug)]
pub struct Moos<'p, P> {
    config: MoosConfig,
    problem: &'p P,
}

impl<'p, P: Problem> Moos<'p, P> {
    /// Binds a configuration to a problem.
    ///
    /// # Panics
    ///
    /// Panics if `episodes` is zero.
    pub fn new(config: MoosConfig, problem: &'p P) -> Self {
        assert!(config.episodes > 0, "episodes must be positive");
        Self { config, problem }
    }
}

impl<'p, P> Moos<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    /// Runs MOOS and returns the archive (as the population) with its
    /// trace.
    ///
    /// Each descent step's neighbors are evaluated as one batch through a
    /// [`moela_moo::GuardedEvaluator`] sized by [`MoosConfig::threads`] —
    /// results are bit-identical for every thread count.
    pub fn run(&self, rng: &mut StdRng) -> RunResult<P::Solution> {
        run_to_end(self.start(rng), rng)
    }

    /// Initializes a run (the seeded archive + episode-0 trace point) as
    /// a steppable state machine.
    pub fn start(&self, rng: &mut dyn RngCore) -> MoosState<'p, P> {
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
        let mut z = ReferencePoint::new(m);
        let mut normalizer = Normalizer::new(m);

        // Seed the archive with a handful of random designs; quarantined
        // seeds are simply not archived.
        for _ in 0..4 {
            let s = self.problem.random_solution(rng);
            let o = ctx.evaluate(self.problem, slice::from_ref(&s)).objectives.pop().flatten();
            if ctx.poisoned() {
                break;
            }
            let Some(o) = o else { continue };
            if is_quarantined(&o) {
                continue;
            }
            z.update(&o);
            normalizer.observe(&o);
            ctx.recorder.observe(&o);
            archive.insert(s, o);
        }
        ctx.record(0, &archive.objectives());

        MoosState {
            config: cfg,
            problem: self.problem,
            ctx,
            archive,
            z,
            normalizer,
            train: Dataset::with_capacity(10_000),
            gain_model: Surrogate::default(),
            episode: 0,
        }
    }

    /// Rebuilds a mid-run state from a [`MoosState::snapshot_state`]
    /// value, with `elapsed` wall-clock time already consumed.
    pub fn restore<C: SolutionCodec<P::Solution>>(
        &self,
        codec: &C,
        value: &Value,
        elapsed: Duration,
    ) -> Result<MoosState<'p, P>, PersistError> {
        let cfg = self.config.clone();
        let m = self.problem.objective_count();
        let archive = archive_from_value(value.field("archive")?, codec)?;
        let z = ReferencePoint::restore(value.field("z")?)?;
        let normalizer = Normalizer::restore(value.field("normalizer")?)?;
        if z.len() != m || normalizer.len() != m {
            return Err(PersistError::schema(
                "checkpointed reference/normalizer dimension mismatch",
            ));
        }
        let train = Dataset::restore(value.field("train")?)?;
        train.check_width(self.problem.feature_len() + m)?;
        let gain_model = Surrogate::restore(value.field("fit_rng")?, &train)?;
        Ok(MoosState {
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
            archive,
            z,
            normalizer,
            train,
            gain_model,
            episode: value.field("episode")?.as_usize()?,
        })
    }
}

/// A MOOS run in progress, checkpointable between episodes.
#[derive(Debug)]
pub struct MoosState<'p, P: Problem> {
    config: MoosConfig,
    problem: &'p P,
    ctx: RunCtx,
    archive: ParetoArchive<P::Solution>,
    z: ReferencePoint,
    normalizer: Normalizer,
    train: Dataset,
    /// Checkpointed as its `fit_rng` and refit on restore.
    gain_model: Surrogate,
    episode: usize,
}

impl<'p, P, C> Resumable<C> for MoosState<'p, P>
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
        let directions = uniform_weights(DIRECTIONS, self.problem.objective_count());

        // --- Pick (start, direction) --------------------------------
        let entries: Vec<(P::Solution, Vec<f64>)> = self.archive.iter().cloned().collect();
        // Keep the exact short-circuit order (the ε draw must only
        // happen past warm-up with a model), so a `match` rewrite
        // would change the RNG stream.
        let unfitted = self.gain_model.model().is_none();
        let (start, start_objs, weight) = if episode < WARMUP || unfitted || rng.gen_bool(EPSILON) {
            // Exploration: half the time restart from a fresh random
            // design (archive members are locally exhausted), half the
            // time re-descend an archive member in a random direction.
            let w = directions[rng.gen_range(0..directions.len())].clone();
            if entries.is_empty() || rng.gen_bool(0.5) {
                let s = self.problem.random_solution(rng);
                let mut batch = self.ctx.evaluate(self.problem, slice::from_ref(&s));
                if self.ctx.poisoned() {
                    return false;
                }
                // A quarantined fresh start still descends — from the
                // penalty corner, where any real neighbor improves —
                // but never touches the archive or the normalizer.
                let o = match batch.objectives.pop().flatten() {
                    Some(o) if !is_quarantined(&o) => {
                        self.z.update(&o);
                        self.normalizer.observe(&o);
                        self.ctx.recorder.observe(&o);
                        self.archive.insert(s.clone(), o.clone());
                        o
                    }
                    _ => penalty_objectives(self.problem.objective_count()),
                };
                (s, o, w)
            } else {
                let (s, o) = &entries[rng.gen_range(0..entries.len())];
                (s.clone(), o.clone(), w)
            }
        } else {
            let _predict = self.ctx.obs.span("surrogate_predict");
            let model = self.gain_model.model().expect("checked above");
            let mut best: Option<(usize, usize, f64)> = None;
            for (si, (s, _)) in entries.iter().enumerate() {
                let f_base = self.problem.features(s);
                for (di, d) in directions.iter().enumerate() {
                    let mut f = f_base.clone();
                    f.extend_from_slice(d);
                    let pred = model.predict(&f);
                    if best.is_none_or(|(_, _, bp)| pred > bp) {
                        best = Some((si, di, pred));
                    }
                }
            }
            match best {
                Some((si, di, _)) => {
                    let (s, o) = &entries[si];
                    (s.clone(), o.clone(), directions[di].clone())
                }
                // Only reachable when chaos emptied the archive: fall
                // back to an unevaluated random start at the penalty
                // corner rather than indexing an empty archive.
                None => {
                    let s = self.problem.random_solution(rng);
                    let o = penalty_objectives(self.problem.objective_count());
                    let w = directions[rng.gen_range(0..directions.len())].clone();
                    (s, o, w)
                }
            }
        };

        // --- Episode: descend and archive ---------------------------
        let phv_before = normalized_phv(&self.archive.objectives(), &self.normalizer);
        let ls_span = self.ctx.obs.span("local_search");
        let descent = greedy_descent(
            self.problem,
            &start,
            &start_objs,
            &weight,
            self.z.values(),
            &self.normalizer,
            DESCENT,
            &mut self.ctx,
            rng,
        );
        drop(ls_span);
        if self.ctx.poisoned() {
            return false;
        }
        {
            let _archive = self.ctx.obs.span("archive_update");
            let mut ls_improvements = 0u64;
            for (s, o) in descent.accepted {
                self.z.update(&o);
                self.normalizer.observe(&o);
                self.ctx.recorder.observe(&o);
                if self.archive.insert(s, o) {
                    ls_improvements += 1;
                }
            }
            if ls_improvements > 0 {
                self.ctx.obs.counter(moela_obs::names::LS_IMPROVEMENTS, ls_improvements);
            }
        }
        let phv_after = normalized_phv(&self.archive.objectives(), &self.normalizer);

        // --- Learn the gain ----------------------------------------
        let mut features = self.problem.features(&start);
        features.extend_from_slice(&weight);
        self.train.push_finite(features, phv_after - phv_before);
        if episode + 1 >= WARMUP && self.train.len() >= MIN_FIT_ROWS {
            let _fit = self.ctx.obs.span("surrogate_fit");
            self.gain_model.fit(&self.train, rng);
        }

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
                ("z", self.z.snapshot()),
                ("normalizer", self.normalizer.snapshot()),
                ("train", self.train.snapshot()),
                ("fit_rng", self.gain_model.snapshot()),
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
    fn archive_holds_only_nondominated_designs() {
        let problem = Zdt::zdt1(8);
        let config = MoosConfig { episodes: 10, ..Default::default() };
        let out = Moos::new(config, &problem).run(&mut rng(1));
        let objs: Vec<Vec<f64>> = out.population.iter().map(|(_, o)| o.clone()).collect();
        let idx = moela_moo::pareto::non_dominated_indices(&objs);
        assert_eq!(idx.len(), objs.len());
    }

    #[test]
    fn converges_toward_the_zdt1_front() {
        let problem = Zdt::zdt1(8);
        let config = MoosConfig { episodes: 60, ..Default::default() };
        let out = Moos::new(config, &problem).run(&mut rng(2));
        let d = igd(&out.front_objectives(), &problem.true_front(100));
        assert!(d < 1.0, "IGD {d}");
    }

    #[test]
    fn phv_trace_improves() {
        let problem = Zdt::zdt1(8);
        let normalizer =
            moela_moo::normalize::Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 10.0]);
        let config =
            MoosConfig { episodes: 25, trace_normalizer: Some(normalizer), ..Default::default() };
        let out = Moos::new(config, &problem).run(&mut rng(3));
        assert!(out.trace.last().expect("non-empty").phv > out.trace[0].phv);
    }

    #[test]
    fn respects_the_evaluation_cap() {
        let problem = Zdt::zdt1(8);
        let config =
            MoosConfig { episodes: 10_000, max_evaluations: Some(400), ..Default::default() };
        let out = Moos::new(config, &problem).run(&mut rng(4));
        // One in-flight episode may overshoot by its own budget.
        assert!(out.evaluations <= 400 + 110, "evaluations {}", out.evaluations);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let problem = Zdt::zdt2(8);
        let run = |threads: usize| {
            let config = MoosConfig { episodes: 12, threads, ..Default::default() };
            Moos::new(config, &problem).run(&mut rng(7))
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(parallel.evaluations, sequential.evaluations);
        let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };
        assert_eq!(objs(&parallel), objs(&sequential));
    }

    #[test]
    fn deterministic_per_seed() {
        let problem = Zdt::zdt3(8);
        let config = MoosConfig { episodes: 12, ..Default::default() };
        let a = Moos::new(config.clone(), &problem).run(&mut rng(5));
        let b = Moos::new(config, &problem).run(&mut rng(5));
        assert_eq!(a.evaluations, b.evaluations);
        let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };
        assert_eq!(objs(&a), objs(&b));
    }

    /// Under injected chaos with a containment policy, a full MOOS run
    /// completes, its archive stays clean (finite, no penalty vectors),
    /// and results are bit-identical at any thread count.
    #[test]
    fn chaotic_runs_are_finite_and_thread_invariant() {
        use moela_moo::fault::{FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("panic=0.05,nan=0.05,arity=0.03").unwrap();
        let run = |threads: usize| {
            let problem = ChaosProblem::new(Zdt::zdt1(8), spec, 31);
            let config = MoosConfig {
                episodes: WARMUP + 4,
                threads,
                fault: FaultConfig { policy: FaultPolicy::Skip, retries: 1 },
                ..Default::default()
            };
            let mut r = rng(13);
            let mut state = zdt(Moos::new(config, &problem).start(&mut r));
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
        let config = MoosConfig { episodes: 10, ..Default::default() };
        let mut r = rng(1);
        let mut state = zdt(Moos::new(config, &problem).start(&mut r));
        assert!(!state.step(&mut r), "the poisoned guard must stop the run");
        let err = state.fault_error().expect("a latched error");
        assert_eq!(err.kind, FaultKind::Panic);
    }

    /// A restored state refits the gain model from the checkpointed
    /// `fit_rng` and training set: every tree predicts what the
    /// snapshotted state's tree predicts.
    #[test]
    fn restore_refits_the_same_gain_model() {
        let problem = Zdt::zdt1(8);
        let config = MoosConfig { episodes: 20, ..Default::default() };
        let moos = Moos::new(config.clone(), &problem);
        let mut r = rng(52);
        let mut state = moos.start(&mut r);
        for _ in 0..10 {
            assert!(Resumable::<VecF64Codec>::step(&mut state, &mut r));
        }
        let snap = Resumable::<VecF64Codec>::snapshot_state(&state, &VecF64Codec);
        let restored = moos.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore");
        let (a, b) = (
            state.gain_model.model().expect("fitted"),
            restored.gain_model.model().expect("refit"),
        );
        for (s, _) in state.archive.iter() {
            for d in uniform_weights(DIRECTIONS, 2) {
                let mut f = problem.features(s);
                f.extend_from_slice(&d);
                assert_eq!(a.tree_predictions(&f), b.tree_predictions(&f));
            }
        }
    }

    #[test]
    fn snapshot_resume_is_bit_identical_at_every_boundary() {
        // Four episodes past the warm-up exercise both the unguided and
        // the model-guided episode paths across the resume boundary.
        let problem = Zdt::zdt1(8);
        let config = MoosConfig { episodes: WARMUP + 4, ..Default::default() };
        let moos = Moos::new(config.clone(), &problem);
        let baseline = Moos::new(config, &problem).run(&mut rng(51));

        let warmup = WARMUP as u64;
        for boundary in [0, 1, warmup - 1, warmup, warmup + 1, warmup + 3] {
            let mut r = rng(51);
            let mut state = zdt(moos.start(&mut r));
            while state.completed() < boundary && state.step(&mut r) {}
            let snap = state.snapshot_state(&VecF64Codec);
            let mut r2 = rand::rngs::StdRng::from_state(r.state());
            let mut resumed =
                zdt(moos.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
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
