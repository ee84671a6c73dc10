//! MOEA/D (Zhang & Li, 2007): the decomposition-based evolutionary
//! baseline the paper compares against.
//!
//! The implementation follows the original algorithm: `N` sub-problems
//! defined by uniformly spread weight vectors, Tchebycheff scalarization
//! against a running reference point, mating restricted to weight-space
//! neighborhoods with probability `δ`, and bounded replacement (`n_r`),
//! with MOELA's `δ` and `n_r` ([`moela_moo::decomposition::DELTA`] and
//! [`moela_moo::decomposition::MAX_REPLACEMENTS`]).
//! MOELA's EA step is the same machinery, literally: both run
//! [`Population::evolve`] over a [`Population`]. The paper's contribution
//! is what MOELA *adds* (the ML-guided local search), so sharing the
//! engine makes the comparison fair. MOEA/D visits the sub-problems in a
//! fresh shuffled order each generation; MOELA in slot order.
//!
//! Like every optimizer in the workspace, the run loop is exposed as a
//! checkpointable state machine ([`MoeadState`], one step per generation).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngCore;

use moela_moo::checkpoint::{run_to_end, Resumable, RunCtx};
use moela_moo::decomposition::Population;
use moela_moo::fault::FaultConfig;
use moela_moo::run::RunResult;
use moela_moo::Problem;
use moela_persist::{PersistError, SolutionCodec, Value};

/// MOEA/D parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct MoeadConfig {
    /// Population size `N` (= number of weight vectors).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
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

impl Default for MoeadConfig {
    fn default() -> Self {
        Self {
            population: 50,
            generations: 100,
            trace_normalizer: None,
            max_evaluations: None,
            time_budget: None,
            threads: 1,
            fault: FaultConfig::default(),
        }
    }
}

impl MoeadConfig {
    /// Neighborhood size `T` of the weight-space neighborhoods:
    /// `max(2, N/5)`, capped at `N` (10 at the default `N = 50`).
    pub fn neighborhood(&self) -> usize {
        (self.population / 5).max(2).min(self.population)
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
    /// Panics if `population < 2`.
    pub fn new(config: MoeadConfig, problem: &'p P) -> Self {
        assert!(config.population >= 2, "population must be at least 2");
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
        MoeadState { config: cfg, problem: self.problem, ctx, population, generation: 0 }
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
        let population = Population::restore(value, codec, cfg.population, m, cfg.neighborhood())?;
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
            population,
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
    population: Population<P::Solution>,
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
        if !self.population.evolve(self.problem, &mut self.ctx, &order, rng) {
            return false;
        }
        {
            let _archive = self.ctx.obs.span("archive_update");
            self.ctx.record(generation + 1, &self.population.objective_vectors());
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
        self.ctx.snapshot(
            vec![("generation", Value::U64(self.generation as u64))],
            self.population.snapshot(codec),
        )
    }

    fn finish(self) -> RunResult<P::Solution> {
        self.ctx.into_result(self.population.into_entries())
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
    fn the_neighborhood_rule_stays_in_range() {
        let with = |population| MoeadConfig { population, ..Default::default() }.neighborhood();
        for n in 2..=1000 {
            assert!((2..=n).contains(&with(n)), "N = {n}: T = {}", with(n));
        }
        assert_eq!(with(24), 4);
        assert_eq!(with(50), 10);
        assert_eq!(MoeadConfig::default().neighborhood(), 10);
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
        let config = MoeadConfig { population: 6, generations: 10, ..Default::default() };
        let mut r = rng(1);
        let mut state = zdt(Moead::new(config, &problem).start(&mut r));
        assert!(!state.step(&mut r), "the poisoned guard must stop the run");
        let err = state.fault_error().expect("a latched error");
        assert_eq!(err.kind, FaultKind::Panic);
    }

    /// Interrupting a chaotic run and resuming (restoring the fault log
    /// and the evaluation count) reproduces the uninterrupted run.
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

        // The wrapper keeps no state, so all three legs share it.
        let problem = ChaosProblem::new(Zdt::zdt3(8), spec, 77);
        let moead = Moead::new(config, &problem);
        let mut r = rng(17);
        let mut state = zdt(moead.start(&mut r));
        while state.step(&mut r) {}
        let base_log = *state.fault_log();
        let baseline = state.finish();
        assert!(base_log.faults() > 0, "the spec must actually inject");

        let mut r = rng(17);
        let mut state = zdt(moead.start(&mut r));
        while state.completed() < 2 && state.step(&mut r) {}
        let snap = state.snapshot_state(&VecF64Codec);
        let mut r2 = rand::rngs::StdRng::from_state(r.state());
        let mut resumed = zdt(moead.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
        while resumed.step(&mut r2) {}
        assert_eq!(*resumed.fault_log(), base_log, "health counters must round-trip");
        let out = resumed.finish();
        assert_eq!(out.population, baseline.population);
        assert_eq!(out.evaluations, baseline.evaluations);
    }

    #[test]
    fn restore_rejects_population_size_mismatch() {
        let problem = Zdt::zdt1(6);
        let config = MoeadConfig { population: 8, generations: 3, ..Default::default() };
        let moead = Moead::new(config, &problem);
        let mut r = rng(1);
        let state = moead.start(&mut r);
        let snap = state.snapshot_state(&VecF64Codec);
        let other = Moead::new(
            MoeadConfig { population: 12, generations: 3, ..Default::default() },
            &problem,
        );
        let err = other.restore(&VecF64Codec, &snap, Duration::ZERO).expect_err("size mismatch");
        assert!(
            err.to_string().contains("population has 8 members, the configuration 12"),
            "{err}"
        );
    }
}
