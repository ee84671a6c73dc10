//! MOEA/D (Zhang & Li, 2007): the decomposition-based evolutionary
//! baseline the paper compares against.
//!
//! The implementation follows the original algorithm: `N` sub-problems
//! defined by uniformly spread weight vectors, Tchebycheff scalarization
//! against a running reference point, mating restricted to weight-space
//! neighborhoods with probability `δ`, and bounded replacement (`n_r`).
//! MOELA's EA step is intentionally the same machinery — the paper's
//! contribution is what it *adds* (the ML-guided local search), so sharing
//! the update semantics makes the comparison fair.
//!
//! Like every optimizer in the workspace, the run loop is exposed as a
//! checkpointable state machine ([`MoeadState`], one step per generation).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

use moela_moo::checkpoint::{run_to_end, Resumable, RunCtx};
use moela_moo::fault::{is_quarantined, FaultConfig};
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::scalarize::{ReferencePoint, Scalarizer};
use moela_moo::snapshot::{entries_from_value, entries_to_value};
use moela_moo::weights::{neighborhoods, uniform_weights};
use moela_moo::Problem;
use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

/// MOEA/D parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct MoeadConfig {
    /// Population size `N` (= number of weight vectors).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Neighborhood size `T`.
    pub neighborhood: usize,
    /// Probability of mating within the neighborhood.
    pub delta: f64,
    /// Maximum replacements per offspring (`n_r`).
    pub max_replacements: usize,
    /// Pre-fitted objective normalizer for the PHV trace; `None` fits one
    /// online (see [`moela_moo::run::TraceRecorder`]).
    pub trace_normalizer: Option<moela_moo::normalize::Normalizer>,
    /// Optional cap on objective evaluations.
    pub max_evaluations: Option<u64>,
    /// Optional wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Worker threads for batch objective evaluation (`0` = auto-detect).
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// Fault-containment policy for evaluation (see
    /// [`moela_moo::GuardedEvaluator`]).
    pub fault: FaultConfig,
}

impl Default for MoeadConfig {
    fn default() -> Self {
        Self {
            population: 50,
            generations: 100,
            neighborhood: 10,
            delta: 0.9,
            max_replacements: 2,
            trace_normalizer: None,
            max_evaluations: None,
            time_budget: None,
            threads: 1,
            fault: FaultConfig::default(),
        }
    }
}

/// The MOEA/D optimizer bound to one problem.
///
/// # Example
///
/// ```
/// use moela_baselines::{Moead, MoeadConfig};
/// use moela_moo::problems::Zdt;
/// use rand::SeedableRng;
///
/// let problem = Zdt::zdt1(10);
/// let config = MoeadConfig { population: 12, generations: 5, ..Default::default() };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let out = Moead::new(config, &problem).run(&mut rng);
/// assert_eq!(out.population.len(), 12);
/// ```
#[derive(Debug)]
pub struct Moead<'p, P> {
    config: MoeadConfig,
    problem: &'p P,
}

impl<'p, P: Problem> Moead<'p, P> {
    /// Binds a configuration to a problem.
    ///
    /// # Panics
    ///
    /// Panics if `population < 2` or `neighborhood` is out of range.
    pub fn new(config: MoeadConfig, problem: &'p P) -> Self {
        assert!(config.population >= 2, "population must be at least 2");
        assert!(
            (2..=config.population).contains(&config.neighborhood),
            "neighborhood must lie in 2..=population"
        );
        assert!((0.0..=1.0).contains(&config.delta), "delta must lie in [0, 1]");
        Self { config, problem }
    }
}

impl<'p, P> Moead<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    /// Runs MOEA/D and returns the final population with its trace.
    ///
    /// Each generation's offspring are generated sequentially from `rng`
    /// (parents drawn from the population as it stood at the start of the
    /// generation), evaluated as one batch through a
    /// [`moela_moo::GuardedEvaluator`] sized by [`MoeadConfig::threads`],
    /// then applied in sub-problem order — so results are bit-identical
    /// for every thread count.
    pub fn run(&self, rng: &mut StdRng) -> RunResult<P::Solution> {
        run_to_end(self.start(rng), rng)
    }

    /// Initializes a run (random population + generation-0 trace point)
    /// as a steppable state machine.
    pub fn start(&self, rng: &mut dyn RngCore) -> MoeadState<'p, P> {
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

        let weights = uniform_weights(cfg.population, m);
        let nbhd = neighborhoods(&weights, cfg.neighborhood);
        let mut z = ReferencePoint::new(m);
        let mut normalizer = Normalizer::new(m);
        let solutions: Vec<P::Solution> =
            (0..cfg.population).map(|_| self.problem.random_solution(rng)).collect();
        // Dropped initial slots are materialized as penalty vectors — every
        // sub-problem keeps a member, but the quarantined ones never feed
        // the reference point, normalizer, or trace.
        let objectives = ctx.evaluate(self.problem, &solutions).materialized(m);
        for o in &objectives {
            if is_quarantined(o) {
                continue;
            }
            z.update(o);
            normalizer.observe(o);
            ctx.recorder.observe(o);
        }
        ctx.record(0, &objectives);

        MoeadState {
            config: cfg,
            problem: self.problem,
            ctx,
            weights,
            nbhd,
            z,
            normalizer,
            solutions,
            objectives,
            generation: 0,
        }
    }

    /// Rebuilds a mid-run state from a [`MoeadState::snapshot_state`]
    /// value, with `elapsed` wall-clock time already consumed.
    pub fn restore<C: SolutionCodec<P::Solution>>(
        &self,
        codec: &C,
        value: &Value,
        elapsed: Duration,
    ) -> Result<MoeadState<'p, P>, PersistError> {
        let cfg = self.config.clone();
        let m = self.problem.objective_count();
        let entries = entries_from_value(value.field("population")?, codec)?;
        if entries.len() != cfg.population {
            return Err(PersistError::schema("checkpointed population size mismatch"));
        }
        if entries.iter().any(|(_, o)| o.len() != m) {
            return Err(PersistError::schema("checkpointed objective dimensionality mismatch"));
        }
        let (solutions, objectives): (Vec<_>, Vec<_>) = entries.into_iter().unzip();
        let z = ReferencePoint::restore(value.field("z")?)?;
        let normalizer = Normalizer::restore(value.field("normalizer")?)?;
        if z.len() != m || normalizer.len() != m {
            return Err(PersistError::schema(
                "checkpointed reference/normalizer dimension mismatch",
            ));
        }
        let weights = uniform_weights(cfg.population, m);
        let nbhd = neighborhoods(&weights, cfg.neighborhood);
        Ok(MoeadState {
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
            weights,
            nbhd,
            z,
            normalizer,
            solutions,
            objectives,
            generation: value.field("generation")?.as_usize()?,
        })
    }
}

/// A MOEA/D run in progress, checkpointable between generations.
#[derive(Debug)]
pub struct MoeadState<'p, P: Problem> {
    config: MoeadConfig,
    problem: &'p P,
    ctx: RunCtx,
    weights: Vec<Vec<f64>>,
    nbhd: Vec<Vec<usize>>,
    z: ReferencePoint,
    normalizer: Normalizer,
    solutions: Vec<P::Solution>,
    objectives: Vec<Vec<f64>>,
    generation: usize,
}

impl<'p, P, C> Resumable<C> for MoeadState<'p, P>
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
        let cfg = &self.config;
        let generation = self.generation;
        // Cap the generation to the remaining evaluation budget; a short
        // (partial) generation is still evaluated, applied, and recorded
        // before stopping, so the trace accounts for every evaluation.
        let mut order: Vec<usize> = (0..cfg.population).collect();
        order.shuffle(rng);
        order.truncate(self.ctx.remaining().min(cfg.population as u64) as usize);
        let partial = order.len() < cfg.population;

        let mut children: Vec<P::Solution> = Vec::with_capacity(order.len());
        let mut pools: Vec<Vec<usize>> = Vec::with_capacity(order.len());
        let mate_span = self.ctx.obs.span("mate");
        for &i in &order {
            let whole: Vec<usize>;
            let pool: &[usize] = if rng.gen_bool(cfg.delta) {
                &self.nbhd[i]
            } else {
                whole = (0..cfg.population).collect();
                &whole
            };
            let pa = pool[rng.gen_range(0..pool.len())];
            let child = if pool.len() < 2 {
                // A one-element pool cannot supply a distinct second
                // parent; mutate instead of self-mating.
                self.problem.neighbor(&self.solutions[pa], rng)
            } else {
                let mut pb = pool[rng.gen_range(0..pool.len())];
                if pb == pa {
                    pb = pool[(pool.iter().position(|&x| x == pa).expect("pa in pool") + 1)
                        % pool.len()];
                }
                self.problem.crossover(&self.solutions[pa], &self.solutions[pb], rng)
            };
            children.push(child);
            pools.push(pool.to_vec());
        }
        drop(mate_span);

        let batch = self.ctx.evaluate(self.problem, &children);
        if self.ctx.poisoned() {
            return false;
        }
        let select_span = self.ctx.obs.span("select");
        let mut ea_improvements = 0u64;
        for ((child, child_objs), pool) in children.iter().zip(&batch.objectives).zip(&pools) {
            let Some(child_objs) = child_objs else { continue };
            if is_quarantined(child_objs) {
                continue;
            }
            self.z.update(child_objs);
            self.normalizer.observe(child_objs);
            self.ctx.recorder.observe(child_objs);

            let g = |objs: &[f64], w: &[f64]| {
                Scalarizer::Tchebycheff.value(
                    &self.normalizer.normalize(objs),
                    w,
                    &self.normalizer.normalize(self.z.values()),
                )
            };
            let mut replaced = 0;
            for &j in pool {
                if replaced >= cfg.max_replacements {
                    break;
                }
                if g(child_objs, &self.weights[j]) < g(&self.objectives[j], &self.weights[j]) {
                    self.solutions[j] = child.clone();
                    self.objectives[j] = child_objs.clone();
                    replaced += 1;
                }
            }
            ea_improvements += replaced as u64;
        }
        if ea_improvements > 0 {
            self.ctx.obs.counter(moela_obs::names::EA_IMPROVEMENTS, ea_improvements);
        }
        drop(select_span);
        {
            let _archive = self.ctx.obs.span("archive_update");
            self.ctx.record(generation + 1, &self.objectives);
        }
        self.generation = generation + 1;
        self.ctx.report_step();
        if partial {
            self.ctx.finished = true;
            return false;
        }
        true
    }

    fn snapshot_state(&self, codec: &C) -> Value {
        let entries: Vec<(P::Solution, Vec<f64>)> =
            self.solutions.iter().cloned().zip(self.objectives.iter().cloned()).collect();
        self.ctx.snapshot(
            vec![("generation", Value::U64(self.generation as u64))],
            vec![
                ("population", entries_to_value(&entries, codec)),
                ("z", self.z.snapshot()),
                ("normalizer", self.normalizer.snapshot()),
            ],
        )
    }

    fn finish(self) -> RunResult<P::Solution> {
        self.ctx.into_result(self.solutions.into_iter().zip(self.objectives).collect())
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
    fn converges_toward_the_zdt1_front() {
        let problem = Zdt::zdt1(8);
        let config = MoeadConfig { population: 20, generations: 60, ..Default::default() };
        let out = Moead::new(config, &problem).run(&mut rng(1));
        let d = igd(&out.front_objectives(), &problem.true_front(100));
        assert!(d < 0.3, "IGD {d}");
    }

    #[test]
    fn trace_improves_over_generations() {
        let problem = Zdt::zdt2(8);
        let config = MoeadConfig { population: 16, generations: 30, ..Default::default() };
        let out = Moead::new(config, &problem).run(&mut rng(2));
        assert!(out.trace.last().expect("non-empty").phv > out.trace[0].phv);
    }

    #[test]
    fn respects_the_evaluation_cap() {
        let problem = Zdt::zdt1(8);
        // 299 does not divide into init + whole generations, forcing a
        // partial final generation.
        let config = MoeadConfig {
            population: 10,
            generations: 10_000,
            max_evaluations: Some(299),
            ..Default::default()
        };
        let out = Moead::new(config, &problem).run(&mut rng(3));
        assert_eq!(out.evaluations, 299, "batches are capped to the remaining budget");
        let last = out.trace.last().expect("non-empty trace");
        assert_eq!(
            last.evaluations, out.evaluations,
            "the partial final generation must still reach the trace"
        );
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let problem = Zdt::zdt2(8);
        let run = |threads: usize| {
            let config =
                MoeadConfig { population: 12, generations: 8, threads, ..Default::default() };
            Moead::new(config, &problem).run(&mut rng(6))
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(parallel.population, sequential.population);
        assert_eq!(parallel.evaluations, sequential.evaluations);
        let trace = |r: &RunResult<Vec<f64>>| -> Vec<(usize, u64, f64)> {
            r.trace.iter().map(|p| (p.generation, p.evaluations, p.phv)).collect()
        };
        assert_eq!(trace(&parallel), trace(&sequential));
    }

    #[test]
    fn deterministic_per_seed() {
        let problem = Zdt::zdt3(8);
        let config = MoeadConfig { population: 10, generations: 10, ..Default::default() };
        let a = Moead::new(config.clone(), &problem).run(&mut rng(4));
        let b = Moead::new(config, &problem).run(&mut rng(4));
        let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };
        assert_eq!(objs(&a), objs(&b));
    }

    #[test]
    #[should_panic(expected = "neighborhood")]
    fn oversized_neighborhood_is_rejected() {
        let problem = Zdt::zdt1(4);
        Moead::new(MoeadConfig { population: 5, neighborhood: 6, ..Default::default() }, &problem);
    }

    #[test]
    fn snapshot_resume_is_bit_identical_at_every_boundary() {
        let problem = Zdt::zdt2(8);
        let config = MoeadConfig { population: 10, generations: 6, ..Default::default() };
        let moead = Moead::new(config.clone(), &problem);
        let baseline = Moead::new(config, &problem).run(&mut rng(31));

        for boundary in 0..6u64 {
            let mut r = rng(31);
            let mut state = zdt(moead.start(&mut r));
            while state.completed() < boundary && state.step(&mut r) {}
            let snap = state.snapshot_state(&VecF64Codec);
            let mut r2 = rand::rngs::StdRng::from_state(r.state());
            let mut resumed =
                zdt(moead.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
            while resumed.step(&mut r2) {}
            let out = resumed.finish();
            assert_eq!(out.population, baseline.population, "boundary {boundary}");
            assert_eq!(out.evaluations, baseline.evaluations);
            let trace = |r: &RunResult<Vec<f64>>| -> Vec<(usize, u64, f64)> {
                r.trace.iter().map(|p| (p.generation, p.evaluations, p.phv)).collect()
            };
            assert_eq!(trace(&out), trace(&baseline), "boundary {boundary}");
        }
    }

    /// Under injected chaos with a containment policy, a full MOEA/D run
    /// completes, stays finite, and is bit-identical at any thread count.
    #[test]
    fn chaotic_runs_are_finite_and_thread_invariant() {
        use moela_moo::fault::{FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("panic=0.05,nan=0.05,inf=0.03,arity=0.03").unwrap();
        let run = |threads: usize| {
            let problem = ChaosProblem::new(Zdt::zdt1(8), spec, 31);
            let config = MoeadConfig {
                population: 10,
                generations: 6,
                threads,
                fault: FaultConfig { policy: FaultPolicy::PenalizeWorst, retries: 1 },
                ..Default::default()
            };
            let mut r = rng(13);
            let mut state = zdt(Moead::new(config, &problem).start(&mut r));
            while state.step(&mut r) {}
            let log = *state.fault_log();
            (state.finish(), log)
        };
        let (base, base_log) = run(1);
        assert!(base_log.faults() > 0, "the spec must actually inject");
        assert!(base.population.iter().all(|(_, o)| o.iter().all(|v| v.is_finite())));
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
        let config =
            MoeadConfig { population: 6, neighborhood: 3, generations: 10, ..Default::default() };
        let mut r = rng(1);
        let mut state = zdt(Moead::new(config, &problem).start(&mut r));
        assert!(!state.step(&mut r), "the poisoned guard must stop the run");
        let err = state.fault_error().expect("a latched error");
        assert_eq!(err.kind, FaultKind::Panic);
    }

    /// Interrupting a chaotic run and resuming (restoring the fault log
    /// and the chaos ordinal) reproduces the uninterrupted run.
    #[test]
    fn chaos_resume_round_trips_fault_counters_bit_identically() {
        use moela_moo::fault::{FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("nan=0.1,arity=0.05").unwrap();
        let config = MoeadConfig {
            population: 10,
            generations: 5,
            fault: FaultConfig { policy: FaultPolicy::Skip, retries: 1 },
            ..Default::default()
        };

        let baseline_problem = ChaosProblem::new(Zdt::zdt3(8), spec, 77);
        let mut r = rng(17);
        let mut state = zdt(Moead::new(config.clone(), &baseline_problem).start(&mut r));
        while state.step(&mut r) {}
        let base_log = *state.fault_log();
        let baseline = state.finish();
        assert!(base_log.faults() > 0, "the spec must actually inject");

        let interrupted_problem = ChaosProblem::new(Zdt::zdt3(8), spec, 77);
        let moead2 = Moead::new(config.clone(), &interrupted_problem);
        let mut r = rng(17);
        let mut state = zdt(moead2.start(&mut r));
        while state.completed() < 2 && state.step(&mut r) {}
        let snap = state.snapshot_state(&VecF64Codec);
        let ordinal = interrupted_problem.ordinal();
        let rng_state = r.state();

        let resumed_problem = ChaosProblem::new(Zdt::zdt3(8), spec, 77);
        resumed_problem.set_ordinal(ordinal);
        let moead3 = Moead::new(config, &resumed_problem);
        let mut r2 = rand::rngs::StdRng::from_state(rng_state);
        let mut resumed =
            zdt(moead3.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
        while resumed.step(&mut r2) {}
        assert_eq!(*resumed.fault_log(), base_log, "health counters must round-trip");
        let out = resumed.finish();
        assert_eq!(out.population, baseline.population);
        assert_eq!(out.evaluations, baseline.evaluations);
    }

    #[test]
    fn restore_rejects_population_size_mismatch() {
        let problem = Zdt::zdt1(6);
        let config =
            MoeadConfig { population: 8, neighborhood: 4, generations: 3, ..Default::default() };
        let moead = Moead::new(config, &problem);
        let mut r = rng(1);
        let state = moead.start(&mut r);
        let snap = state.snapshot_state(&VecF64Codec);
        let other = Moead::new(
            MoeadConfig { population: 12, neighborhood: 4, generations: 3, ..Default::default() },
            &problem,
        );
        assert!(other.restore(&VecF64Codec, &snap, Duration::ZERO).is_err());
    }
}
