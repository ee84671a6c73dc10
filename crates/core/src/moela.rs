//! The MOELA optimizer: Algorithm 1 of the paper.
//!
//! Each iteration interleaves
//!
//! 1. **ML-guided local search** (lines 3–9): pick `n_local` starting
//!    designs — randomly during the first `iter_early` iterations, by the
//!    learned `Eval`'s lowest predictions afterwards (Algorithm 2) — run a
//!    greedy descent of eq. (8) from each, record the trajectories into
//!    `S_train`, and offer the results to the population (eq. (10));
//! 2. **`Eval` training** (line 11): fit a random forest mapping
//!    `(design features, weight)` to the scalarized value the search
//!    reached;
//! 3. **decomposition EA** (line 12): MOEA/D-style mating within
//!    Tchebycheff neighborhoods with probability `δ`.
//!
//! The run loop is exposed as a checkpointable state machine
//! ([`MoelaState`], one [`Resumable::step`] per generation) so a run can
//! be snapshotted at any generation boundary and resumed bit-identically.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngCore;

use moela_ml::{Dataset, RandomForest, Surrogate, MIN_FIT_ROWS};
use moela_moo::checkpoint::{run_to_end, Resumable, RunCtx};
use moela_moo::decomposition::Population;
use moela_moo::local_search::{greedy_descent, LocalSearchBudget};
use moela_moo::run::RunResult;
use moela_moo::scalarize::Scalarizer;
use moela_moo::Problem;
use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

use crate::config::MoelaConfig;

/// The budget of each local search: at most 12 steps of 4 sampled
/// neighbors, stopping after 12 non-improving evaluations in a row.
const LOCAL_SEARCH: LocalSearchBudget =
    LocalSearchBudget { max_steps: 12, neighbors_per_step: 4, stall_evaluations: 12 };

/// The outcome of a MOELA run: the final population, the anytime-PHV
/// trace, and budget accounting. See [`RunResult`].
pub type MoelaOutcome<S> = RunResult<S>;

/// The MOELA optimizer bound to one problem instance.
///
/// # Example
///
/// ```
/// use moela_core::{Moela, MoelaConfig};
/// use moela_moo::problems::Zdt;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = Zdt::zdt1(10);
/// let config = MoelaConfig::builder().population(12).generations(8).build()?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let outcome = Moela::new(config, &problem).run(&mut rng);
/// assert_eq!(outcome.population.len(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Moela<'p, P> {
    config: MoelaConfig,
    problem: &'p P,
}

impl<'p, P: Problem> Moela<'p, P> {
    /// Binds a configuration to a problem.
    pub fn new(config: MoelaConfig, problem: &'p P) -> Self {
        Self { config, problem }
    }

    /// The configuration.
    pub fn config(&self) -> &MoelaConfig {
        &self.config
    }
}

impl<'p, P> Moela<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    /// Runs Algorithm 1 to completion (generations, evaluation cap, or
    /// time budget — whichever ends first) and returns the final
    /// population with its trace.
    ///
    /// Candidate designs are always *generated* sequentially from `rng`
    /// and *evaluated* in batches through the run's
    /// [`RunCtx`], whose guarded evaluator
    /// has [`MoelaConfig::threads`] workers, so the outcome is
    /// bit-identical for every thread count.
    pub fn run(&self, rng: &mut StdRng) -> MoelaOutcome<P::Solution> {
        run_to_end(self.start(rng), rng)
    }

    /// Initializes a run (the random population plus the generation-0
    /// trace point) and returns it as a steppable state machine.
    pub fn start(&self, rng: &mut dyn RngCore) -> MoelaState<'p, P> {
        let cfg = self.config.clone();
        let mut ctx = RunCtx::new(
            cfg.threads,
            cfg.fault,
            cfg.trace_normalizer.as_ref(),
            self.problem.objective_count(),
            cfg.max_evaluations,
            cfg.time_budget,
        );
        let population =
            Population::random(self.problem, &mut ctx, cfg.population, cfg.neighborhood(), rng);
        MoelaState {
            train: Dataset::with_capacity(cfg.train_cap),
            config: cfg,
            problem: self.problem,
            ctx,
            population,
            eval_fn: Surrogate::default(),
            recent_starts: Vec::new(),
            generation: 0,
            last_generation: 0,
        }
    }

    /// Rebuilds a mid-run state from a [`MoelaState::snapshot_state`]
    /// value. `elapsed` is the wall-clock time the interrupted run had
    /// already consumed (checkpointed alongside the snapshot); the
    /// restored state's time budget continues from there.
    pub fn restore<C: SolutionCodec<P::Solution>>(
        &self,
        codec: &C,
        value: &Value,
        elapsed: Duration,
    ) -> Result<MoelaState<'p, P>, PersistError> {
        let cfg = self.config.clone();
        let m = self.problem.objective_count();
        let population = Population::restore(value, codec, cfg.population, m, cfg.neighborhood())?;
        let train = Dataset::restore(value.field("train")?)?;
        train.check_width(self.problem.feature_len() + m)?;
        let eval_fn = Surrogate::restore(value.field("fit_rng")?, &train)?;
        Ok(MoelaState {
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
            population,
            train,
            eval_fn,
            recent_starts: value.field("recent_starts")?.to_usize_vec()?,
            generation: value.field("generation")?.as_usize()?,
            last_generation: value.field("last_generation")?.as_usize()?,
        })
    }
}

/// A MOELA run in progress: everything `run` kept on the stack, held as a
/// value so the driver can checkpoint between generations.
#[derive(Debug)]
pub struct MoelaState<'p, P: Problem> {
    config: MoelaConfig,
    problem: &'p P,
    ctx: RunCtx,
    population: Population<P::Solution>,
    train: Dataset,
    /// `Eval`, checkpointed as its `fit_rng` and refit on restore.
    eval_fn: Surrogate,
    /// Starts used in the previous iteration; MLguide skips them so the
    /// guided phase does not re-descend a freshly exhausted design.
    recent_starts: Vec<usize>,
    /// Next generation index to execute.
    generation: usize,
    last_generation: usize,
}

impl<'p, P, C> Resumable<C> for MoelaState<'p, P>
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

    /// Completed generations.
    fn completed(&self) -> u64 {
        self.generation as u64
    }

    /// Executes one generation.
    fn step(&mut self, rng: &mut StdRng) -> bool {
        if !self.ctx.begin_step(self.generation >= self.config.generations) {
            return false;
        }
        let generation = self.generation;
        self.last_generation = generation + 1;

        // --- (Ablation) EA-first ordering ---------------------------
        if self.config.ea_first && !self.ea_step(rng) {
            self.ctx.finished = true;
            return false;
        }

        // --- Local-search phase -------------------------------------
        let starts = match self.eval_fn.model() {
            Some(model) if generation >= self.config.iter_early => {
                let _predict = self.ctx.obs.span("surrogate_predict");
                ml_guide(self.problem, &self.config, model, &self.population, &self.recent_starts)
            }
            _ => {
                let mut all: Vec<usize> = (0..self.config.population).collect();
                all.shuffle(rng);
                all.truncate(self.config.n_local);
                all
            }
        };
        self.recent_starts = starts.clone();
        let ls_span = self.ctx.obs.span("local_search");
        for idx in starts {
            if !self.ctx.budget_left() {
                self.ctx.finished = true;
                return false;
            }
            let individual = self.population.individual(idx).clone();
            let weight = self.population.weight(idx).to_vec();
            let z_raw = self.population.reference().values().to_vec();
            let normalizer = self.population.normalizer().clone();
            let start_g = Scalarizer::WeightedSum.value(
                &normalizer.normalize(&individual.objectives),
                &weight,
                &normalizer.normalize(&z_raw),
            );
            let outcome = greedy_descent(
                self.problem,
                &individual.solution,
                &individual.objectives,
                &weight,
                &z_raw,
                &normalizer,
                LOCAL_SEARCH,
                &mut self.ctx,
                rng,
            );
            if self.ctx.poisoned() {
                return false;
            }
            self.ctx.recorder.observe(&outcome.best_objectives);
            // The paper's Eval "predict[s] how much a design can
            // improve towards the reference point": the regression
            // target is the (negative) improvement, so Algorithm 2's
            // lowest-e_i selection picks the starts with the largest
            // predicted improvement. Each state of the trajectory
            // `S_traj` (the start, then every accepted move) is described
            // by its features with the search weight appended.
            let improvement_target = outcome.final_value - start_g;
            let visited = outcome.accepted.iter().map(|(state, _)| state);
            for state in std::iter::once(&individual.solution).chain(visited) {
                let mut features = self.problem.features(state);
                features.extend_from_slice(&weight);
                self.train.push_finite(features, improvement_target);
            }
            // Offer every accepted state to every sub-problem — these
            // evaluations are already paid for, and the search may
            // have drifted through several weights' regions.
            let scope: Vec<usize> = (0..self.population.len()).collect();
            let mut ls_improvements = 0u64;
            for (state, objectives) in &outcome.accepted {
                self.ctx.recorder.observe(objectives);
                ls_improvements +=
                    self.population.update(Scalarizer::Tchebycheff, state, objectives, &scope)
                        as u64;
            }
            if ls_improvements > 0 {
                self.ctx.obs.counter(moela_obs::names::LS_IMPROVEMENTS, ls_improvements);
            }
        }
        drop(ls_span);

        // --- Train Eval ----------------------------------------------
        if generation + 1 >= self.config.iter_early && self.train.len() >= MIN_FIT_ROWS {
            let _fit = self.ctx.obs.span("surrogate_fit");
            self.eval_fn.fit(&self.train, rng);
        }

        // --- Decomposition EA step -----------------------------------
        if !self.config.ea_first && !self.ea_step(rng) {
            self.ctx.finished = true;
            return false;
        }

        {
            let _archive = self.ctx.obs.span("archive_update");
            self.ctx.record(generation + 1, &self.population.objective_vectors());
        }
        self.generation = generation + 1;
        self.ctx.report_step();
        true
    }

    fn snapshot_state(&self, codec: &C) -> Value {
        let mut body = self.population.snapshot(codec);
        body.extend([
            ("train", self.train.snapshot()),
            ("fit_rng", self.eval_fn.snapshot()),
            ("recent_starts", Value::usize_array(&self.recent_starts)),
        ]);
        self.ctx.snapshot(
            vec![
                ("generation", Value::U64(self.generation as u64)),
                ("last_generation", Value::U64(self.last_generation as u64)),
            ],
            body,
        )
    }

    fn finish(mut self) -> MoelaOutcome<P::Solution> {
        // A budget exhaustion stops the run *before* the per-generation
        // record, which would leave the last paid-for evaluations
        // invisible in the trace. Record a final point whenever the trace
        // lags the evaluation count.
        if self.ctx.recorder.points().last().is_none_or(|p| p.evaluations != self.ctx.evaluations())
        {
            self.ctx.record(self.last_generation, &self.population.objective_vectors());
        }
        self.ctx.into_result(self.population.into_entries())
    }
}

impl<'p, P> MoelaState<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    /// One decomposition-EA pass over all sub-problems in slot order
    /// (Algorithm 1, line 12), capped to the remaining evaluation budget
    /// so hard caps stay as tight as with one-at-a-time evaluation.
    /// Returns `false` when the budget cut the pass short.
    fn ea_step(&mut self, rng: &mut dyn RngCore) -> bool {
        let cfg = &self.config;
        if self.ctx.out_of_time() {
            return false;
        }
        let batch = (cfg.population as u64).min(self.ctx.remaining()) as usize;
        let order: Vec<usize> = (0..batch).collect();
        batch > 0
            && self.population.evolve(self.problem, &mut self.ctx, &order, rng)
            && batch == cfg.population
    }
}

/// Algorithm 2: score every design with the learned `Eval` and return
/// the `n_local` most promising (lowest predicted outcome, i.e.
/// largest predicted improvement) indices, skipping designs searched
/// in the previous iteration.
fn ml_guide<P: Problem>(
    problem: &P,
    config: &MoelaConfig,
    eval_fn: &RandomForest,
    population: &Population<P::Solution>,
    recent_starts: &[usize],
) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = (0..population.len())
        .filter(|i| !recent_starts.contains(i))
        .map(|i| {
            let mut features = problem.features(&population.individual(i).solution);
            features.extend_from_slice(population.weight(i));
            (i, eval_fn.predict(&features))
        })
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    scored.truncate(config.n_local);
    scored.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_moo::metrics::igd;
    use moela_moo::problems::{Dtlz, Zdt};
    use moela_moo::{Counted, EvalCounter};
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
    fn run_produces_a_full_population_and_trace() {
        let problem = Zdt::zdt1(10);
        let config = MoelaConfig::builder().population(10).generations(5).build().expect("valid");
        let out = Moela::new(config, &problem).run(&mut rng(1));
        assert_eq!(out.population.len(), 10);
        assert_eq!(out.trace.len(), 6, "initial point plus one per generation");
        assert!(out.evaluations > 0);
    }

    #[test]
    fn phv_trace_is_monotonically_nondecreasing_enough() {
        // The trace normalizer widens over time, so tiny dips are possible;
        // the final PHV must still beat the initial one clearly.
        let problem = Zdt::zdt1(10);
        let config = MoelaConfig::builder().population(16).generations(15).build().expect("valid");
        let out = Moela::new(config, &problem).run(&mut rng(2));
        let first = out.trace.first().expect("non-empty").phv;
        let last = out.trace.last().expect("non-empty").phv;
        assert!(last > first, "PHV must improve ({first} → {last})");
    }

    #[test]
    fn moela_converges_toward_the_zdt1_front() {
        let problem = Zdt::zdt1(8);
        let config = MoelaConfig::builder().population(20).generations(30).build().expect("valid");
        let out = Moela::new(config, &problem).run(&mut rng(3));
        let front = out.front_objectives();
        let reference = problem.true_front(100);
        let d = igd(&front, &reference);
        assert!(d < 0.25, "IGD to the true front is {d}");
    }

    #[test]
    fn works_on_many_objective_problems() {
        let problem = Dtlz::dtlz2(5, 6);
        let config = MoelaConfig::builder().population(20).generations(8).build().expect("valid");
        let out = Moela::new(config, &problem).run(&mut rng(4));
        assert!(out.population.iter().all(|(_, o)| o.len() == 5));
    }

    #[test]
    fn evaluation_cap_is_respected() {
        let counter = EvalCounter::new();
        let problem = Counted::new(Zdt::zdt1(10), counter.clone());
        let config = MoelaConfig::builder()
            .population(10)
            .generations(1000)
            .max_evaluations(500)
            .build()
            .expect("valid");
        let out = Moela::new(config, &problem).run(&mut rng(5));
        // The cap is checked between phases; one local search (≤ 25 steps ×
        // 4 neighbors) may overshoot it.
        assert!(out.evaluations <= 500 + 100, "evaluations {}", out.evaluations);
        assert_eq!(out.evaluations, counter.count());
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let problem = Zdt::zdt2(8);
        let config = MoelaConfig::builder().population(8).generations(6).build().expect("valid");
        let a = Moela::new(config.clone(), &problem).run(&mut rng(7));
        let b = Moela::new(config, &problem).run(&mut rng(7));
        let objs = |r: &MoelaOutcome<Vec<f64>>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };
        assert_eq!(objs(&a), objs(&b));
        assert_eq!(a.evaluations, b.evaluations);

        // The evaluation thread count must not leak into results: RNG
        // draws stay sequential, only pure evaluation fans out.
        let parallel = Moela::new(
            MoelaConfig::builder().population(8).generations(6).threads(4).build().expect("valid"),
            &problem,
        )
        .run(&mut rng(7));
        assert_eq!(parallel.population, a.population);
        assert_eq!(parallel.evaluations, a.evaluations);
        // TracePoint carries wall-clock `elapsed`; compare its
        // deterministic fields.
        let trace = |r: &MoelaOutcome<Vec<f64>>| -> Vec<(usize, u64, f64)> {
            r.trace.iter().map(|p| (p.generation, p.evaluations, p.phv)).collect()
        };
        assert_eq!(trace(&parallel), trace(&a));
    }

    #[test]
    fn early_budget_stop_still_records_the_final_trace_point() {
        let counter = EvalCounter::new();
        let problem = Counted::new(Zdt::zdt1(10), counter.clone());
        // 7 × population doesn't divide the per-generation spend, so the
        // cap lands mid-generation and forces the early-stop path.
        let config = MoelaConfig::builder()
            .population(10)
            .generations(1000)
            .max_evaluations(77)
            .build()
            .expect("valid");
        let out = Moela::new(config, &problem).run(&mut rng(11));
        let last = out.trace.last().expect("non-empty trace");
        assert_eq!(
            last.evaluations, out.evaluations,
            "the trace must account for every paid-for evaluation"
        );
        assert_eq!(out.evaluations, counter.count());
    }

    #[test]
    fn ml_guidance_kicks_in_after_iter_early() {
        // Smoke-test the guided path: with iter_early = 1 the second
        // generation must already use the forest (this would panic or
        // mis-size features if the plumbing were wrong).
        let problem = Zdt::zdt1(6);
        let config = MoelaConfig::builder()
            .population(8)
            .generations(4)
            .iter_early(1)
            .build()
            .expect("valid");
        let out = Moela::new(config, &problem).run(&mut rng(8));
        assert_eq!(out.trace.len(), 5);
    }

    #[test]
    fn beats_pure_random_sampling_at_equal_evaluations() {
        let problem = Zdt::zdt1(10);
        let config = MoelaConfig::builder().population(16).generations(20).build().expect("valid");
        let out = Moela::new(config, &problem).run(&mut rng(9));
        // Random baseline with the same evaluation budget.
        let mut r = rng(10);
        let mut random_objs = Vec::new();
        for _ in 0..out.evaluations {
            let s = problem.random_solution(&mut r);
            random_objs.push(problem.evaluate(&s));
        }
        let reference = problem.true_front(100);
        let igd_moela = igd(&out.front_objectives(), &reference);
        let keep = moela_moo::pareto::non_dominated_indices(&random_objs);
        let random_front: Vec<Vec<f64>> =
            keep.into_iter().map(|i| random_objs[i].clone()).collect();
        let igd_random = igd(&random_front, &reference);
        assert!(
            igd_moela < igd_random,
            "MOELA ({igd_moela}) must beat random search ({igd_random})"
        );
    }

    /// Resuming from a snapshot taken at every generation boundary must
    /// reproduce the uninterrupted run bit-for-bit.
    #[test]
    fn snapshot_resume_is_bit_identical_at_every_boundary() {
        let problem = Zdt::zdt3(8);
        let config = MoelaConfig::builder()
            .population(8)
            .generations(5)
            .iter_early(1)
            .build()
            .expect("valid");
        let moela = Moela::new(config.clone(), &problem);

        let baseline = Moela::new(config.clone(), &problem).run(&mut rng(21));

        for boundary in 0..5u64 {
            let mut r = rng(21);
            let mut state = zdt(moela.start(&mut r));
            while state.completed() < boundary && state.step(&mut r) {}
            let snap = state.snapshot_state(&VecF64Codec);
            let rng_state = r.state();

            // Resume in a fresh state and run to completion.
            let mut r2 = rand::rngs::StdRng::from_state(rng_state);
            let mut resumed =
                zdt(moela.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
            assert_eq!(resumed.completed(), boundary.min(state.completed()));
            while resumed.step(&mut r2) {}
            let out = resumed.finish();

            assert_eq!(out.population, baseline.population, "boundary {boundary}");
            assert_eq!(out.evaluations, baseline.evaluations);
            let trace = |r: &MoelaOutcome<Vec<f64>>| -> Vec<(usize, u64, f64)> {
                r.trace.iter().map(|p| (p.generation, p.evaluations, p.phv)).collect()
            };
            assert_eq!(trace(&out), trace(&baseline), "boundary {boundary}");
        }
    }

    /// The snapshot value must survive an encode/decode round trip through
    /// the JSON layer (this is what actually hits the disk).
    #[test]
    fn snapshot_survives_json_round_trip() {
        let problem = Zdt::zdt1(6);
        let config = MoelaConfig::builder()
            .population(6)
            .generations(3)
            .iter_early(1)
            .build()
            .expect("valid");
        let moela = Moela::new(config, &problem);
        let mut r = rng(5);
        let mut state = zdt(moela.start(&mut r));
        while state.completed() < 2 && state.step(&mut r) {}
        let snap = state.snapshot_state(&VecF64Codec);
        let json = moela_persist::encode::to_string(&snap);
        let back = moela_persist::decode::from_str(&json).expect("parse");
        let restored = zdt(moela.restore(&VecF64Codec, &back, Duration::ZERO).expect("restore"));
        assert_eq!(restored.completed(), 2);
        assert_eq!(restored.evaluations(), state.evaluations());
    }

    /// Under injected chaos with a containment policy, a full MOELA run
    /// completes, stays finite, and is bit-identical at any thread count.
    #[test]
    fn chaotic_runs_are_finite_and_thread_invariant() {
        use moela_moo::fault::{FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("panic=0.05,nan=0.05,inf=0.03,arity=0.03").unwrap();
        let run = |threads: usize| {
            let problem = ChaosProblem::new(Zdt::zdt1(8), spec, 31);
            let config = MoelaConfig::builder()
                .population(8)
                .generations(4)
                .threads(threads)
                .fault(FaultConfig { policy: FaultPolicy::PenalizeWorst, retries: 1 })
                .build()
                .expect("valid");
            let mut r = rng(13);
            let moela = Moela::new(config, &problem);
            let mut state = zdt(moela.start(&mut r));
            while state.step(&mut r) {}
            let log = *state.fault_log();
            (state.finish(), log)
        };
        let (base, base_log) = run(1);
        assert!(base_log.faults() > 0, "the spec must actually inject");
        assert!(base.front_objectives().iter().all(|o| o.iter().all(|v| v.is_finite())));
        for threads in [2, 4] {
            let (out, log) = run(threads);
            assert_eq!(out.population, base.population, "threads = {threads}");
            assert_eq!(out.evaluations, base.evaluations);
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
        let config = MoelaConfig::builder().population(6).generations(10).build().expect("valid");
        let mut r = rng(1);
        let mut state = zdt(Moela::new(config, &problem).start(&mut r));
        assert!(!state.step(&mut r), "the poisoned guard must stop the run");
        let err = state.fault_error().expect("a latched error");
        assert_eq!(err.kind, FaultKind::Panic);
        assert!(err.message.contains("chaos: injected panic"));
    }

    /// Interrupting a chaotic run and resuming (restoring the fault log
    /// and the evaluation count) reproduces the uninterrupted run — same
    /// population, same evaluations, same health counters.
    #[test]
    fn chaos_resume_round_trips_fault_counters_bit_identically() {
        use moela_moo::fault::{FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("nan=0.1,arity=0.05").unwrap();
        let config = MoelaConfig::builder()
            .population(8)
            .generations(5)
            .fault(FaultConfig { policy: FaultPolicy::Skip, retries: 1 })
            .build()
            .expect("valid");

        // The wrapper keeps no state, so all three legs share it.
        let problem = ChaosProblem::new(Zdt::zdt3(8), spec, 77);
        let moela = Moela::new(config, &problem);
        let mut r = rng(17);
        let mut state = zdt(moela.start(&mut r));
        while state.step(&mut r) {}
        let base_log = *state.fault_log();
        let baseline = state.finish();
        assert!(base_log.faults() > 0, "the spec must actually inject");

        // Interrupt after 2 generations; the snapshot's evaluation count
        // is all the fault stream needs to continue.
        let mut r = rng(17);
        let mut state = zdt(moela.start(&mut r));
        while state.completed() < 2 && state.step(&mut r) {}
        let snap = state.snapshot_state(&VecF64Codec);
        let mut r2 = rand::rngs::StdRng::from_state(r.state());
        let mut resumed = zdt(moela.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
        while resumed.step(&mut r2) {}
        assert_eq!(*resumed.fault_log(), base_log, "health counters must round-trip");
        let out = resumed.finish();
        assert_eq!(out.population, baseline.population);
        assert_eq!(out.evaluations, baseline.evaluations);
    }

    /// A restored state refits `Eval` from the checkpointed `fit_rng`
    /// and training set: every tree predicts what the snapshotted
    /// state's tree predicts.
    #[test]
    fn restore_refits_the_same_eval() {
        let problem = Zdt::zdt1(6);
        let config = MoelaConfig::builder()
            .population(6)
            .generations(10)
            .iter_early(1)
            .build()
            .expect("valid");
        let moela = Moela::new(config, &problem);
        let mut r = rng(12);
        let mut state = moela.start(&mut r);
        for _ in 0..3 {
            assert!(Resumable::<VecF64Codec>::step(&mut state, &mut r));
        }
        let snap = Resumable::<VecF64Codec>::snapshot_state(&state, &VecF64Codec);
        let restored = moela.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore");
        let (a, b) =
            (state.eval_fn.model().expect("fitted"), restored.eval_fn.model().expect("refit"));
        for i in 0..state.population.len() {
            let mut f = problem.features(&state.population.individual(i).solution);
            f.extend_from_slice(state.population.weight(i));
            assert_eq!(a.tree_predictions(&f), b.tree_predictions(&f), "individual {i}");
        }
    }

    /// Once a run reports completion, further steps are no-ops that draw
    /// nothing from the RNG.
    #[test]
    fn steps_past_the_end_draw_no_rng() {
        let problem = Zdt::zdt1(6);
        let config = MoelaConfig::builder().population(6).generations(2).build().expect("valid");
        let mut r = rng(3);
        let mut state = zdt(Moela::new(config, &problem).start(&mut r));
        while state.step(&mut r) {}
        let before = r.state();
        assert!(!state.step(&mut r));
        assert!(!state.step(&mut r));
        assert_eq!(r.state(), before);
    }
}
