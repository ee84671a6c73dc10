//! NSGA-II (Deb et al., 2002): the classic Pareto-ranking evolutionary
//! baseline (the paper's reference \[4\]).
//!
//! The run loop is exposed as a checkpointable state machine
//! ([`Nsga2State`], one step per generation).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use moela_moo::checkpoint::{run_to_end, Resumable, RunCtx};
use moela_moo::fault::{is_quarantined, FaultConfig};
use moela_moo::pareto::{crowding_distance, non_dominated_sort};
use moela_moo::run::RunResult;
use moela_moo::snapshot::{entries_from_value, entries_to_value};
use moela_moo::Problem;
use moela_persist::{PersistError, SolutionCodec, Value};

/// NSGA-II parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Nsga2Config {
    /// Population size.
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
    /// Worker threads for batch objective evaluation (`0` = auto-detect).
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// Fault-containment policy for evaluation (see
    /// [`moela_moo::GuardedEvaluator`]).
    pub fault: FaultConfig,
}

impl Default for Nsga2Config {
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

/// The NSGA-II optimizer bound to one problem.
///
/// # Example
///
/// ```
/// use moela_baselines::{Nsga2, Nsga2Config};
/// use moela_moo::problems::Zdt;
/// use rand::SeedableRng;
///
/// let problem = Zdt::zdt1(10);
/// let config = Nsga2Config { population: 12, generations: 5, ..Default::default() };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let out = Nsga2::new(config, &problem).run(&mut rng);
/// assert_eq!(out.population.len(), 12);
/// ```
#[derive(Debug)]
pub struct Nsga2<'p, P> {
    config: Nsga2Config,
    problem: &'p P,
}

impl<'p, P: Problem> Nsga2<'p, P> {
    /// Binds a configuration to a problem.
    ///
    /// # Panics
    ///
    /// Panics if `population < 2`.
    pub fn new(config: Nsga2Config, problem: &'p P) -> Self {
        assert!(config.population >= 2, "population must be at least 2");
        Self { config, problem }
    }
}

impl<'p, P> Nsga2<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    /// Runs NSGA-II and returns the final population with its trace.
    ///
    /// Each generation's offspring are generated sequentially from `rng`,
    /// then evaluated as one batch through a
    /// [`moela_moo::GuardedEvaluator`] sized by [`Nsga2Config::threads`] —
    /// results are bit-identical for every thread count. When the
    /// evaluation budget runs out mid-generation,
    /// the partial offspring batch still enters environmental selection
    /// (those evaluations are paid for) and the trace records it.
    pub fn run(&self, rng: &mut StdRng) -> RunResult<P::Solution> {
        run_to_end(self.start(rng), rng)
    }

    /// Initializes a run (random population + generation-0 trace point)
    /// as a steppable state machine.
    pub fn start(&self, rng: &mut dyn RngCore) -> Nsga2State<'p, P> {
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

        let candidates: Vec<P::Solution> =
            (0..cfg.population).map(|_| self.problem.random_solution(rng)).collect();
        let objectives = ctx.evaluate(self.problem, &candidates).materialized(m);
        // Dropped initial slots are materialized as penalty vectors so the
        // population keeps its size; penalty members sink to the last front
        // and are bred out, and they never feed the trace normalizer.
        let pop: Vec<(P::Solution, Vec<f64>)> = candidates
            .into_iter()
            .zip(objectives)
            .map(|(s, o)| {
                if !is_quarantined(&o) {
                    ctx.recorder.observe(&o);
                }
                (s, o)
            })
            .collect();
        let objs: Vec<Vec<f64>> = pop.iter().map(|(_, o)| o.clone()).collect();
        ctx.record(0, &objs);

        Nsga2State { config: cfg, problem: self.problem, ctx, pop, generation: 0 }
    }

    /// Rebuilds a mid-run state from a [`Nsga2State::snapshot_state`]
    /// value, with `elapsed` wall-clock time already consumed.
    pub fn restore<C: SolutionCodec<P::Solution>>(
        &self,
        codec: &C,
        value: &Value,
        elapsed: Duration,
    ) -> Result<Nsga2State<'p, P>, PersistError> {
        let cfg = self.config.clone();
        let m = self.problem.objective_count();
        let pop = entries_from_value(value.field("population")?, codec)?;
        if pop.is_empty() {
            return Err(PersistError::schema("checkpointed population is empty"));
        }
        if pop.iter().any(|(_, o)| o.len() != m) {
            return Err(PersistError::schema("checkpointed objective dimensionality mismatch"));
        }
        Ok(Nsga2State {
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
            pop,
            generation: value.field("generation")?.as_usize()?,
        })
    }
}

/// An NSGA-II run in progress, checkpointable between generations.
#[derive(Debug)]
pub struct Nsga2State<'p, P: Problem> {
    config: Nsga2Config,
    problem: &'p P,
    ctx: RunCtx,
    pop: Vec<(P::Solution, Vec<f64>)>,
    generation: usize,
}

impl<'p, P, C> Resumable<C> for Nsga2State<'p, P>
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
        // Cap the offspring batch to the remaining evaluation budget;
        // a partial batch is still selected over and recorded.
        let n_children = self.ctx.remaining().min(cfg.population as u64) as usize;
        let partial = n_children < cfg.population;

        // Rank the current population for tournament selection.
        let rank_span = self.ctx.obs.span("select");
        let objs: Vec<Vec<f64>> = self.pop.iter().map(|(_, o)| o.clone()).collect();
        let fronts = non_dominated_sort(&objs);
        let mut rank = vec![0usize; self.pop.len()];
        let mut crowd = vec![0.0f64; self.pop.len()];
        for (r, front) in fronts.iter().enumerate() {
            let front_objs: Vec<Vec<f64>> = front.iter().map(|&i| objs[i].clone()).collect();
            let d = crowding_distance(&front_objs);
            for (&i, &di) in front.iter().zip(&d) {
                rank[i] = r;
                crowd[i] = di;
            }
        }
        let n = self.pop.len();
        let tournament = |rng: &mut dyn RngCore| -> usize {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
                a
            } else {
                b
            }
        };
        drop(rank_span);

        // Offspring generation: children first (sequential RNG), then
        // one batched evaluation.
        let mate_span = self.ctx.obs.span("mate");
        let children: Vec<P::Solution> = (0..n_children)
            .map(|_| {
                let pa = tournament(rng);
                let pb = tournament(rng);
                self.problem.crossover(&self.pop[pa].0, &self.pop[pb].0, rng)
            })
            .collect();
        drop(mate_span);
        let batch = self.ctx.evaluate(self.problem, &children);
        if self.ctx.poisoned() {
            return false;
        }
        // Skipped offspring simply shrink the batch — environmental
        // selection handles a smaller parents ∪ offspring pool.
        let offspring: Vec<(P::Solution, Vec<f64>)> = children
            .into_iter()
            .zip(batch.objectives)
            .filter_map(|(child, o)| o.map(|o| (child, o)))
            .filter(|(_, o)| !is_quarantined(o))
            .map(|(child, o)| {
                self.ctx.recorder.observe(&o);
                (child, o)
            })
            .collect();

        // Environmental selection over parents ∪ offspring.
        {
            let _select = self.ctx.obs.span("select");
            let offspring_objs: Vec<Vec<f64>> = offspring.iter().map(|(_, o)| o.clone()).collect();
            self.pop.extend(offspring);
            self.pop = environmental_selection(std::mem::take(&mut self.pop), cfg.population);
            // Operator attribution (telemetry only): offspring that won
            // a slot in the next generation, matched multiset-style by
            // their bit-exact objective vectors.
            let mut unmatched = offspring_objs;
            let survivors = self
                .pop
                .iter()
                .filter(|(_, objs)| match unmatched.iter().position(|o| o == objs) {
                    Some(i) => {
                        unmatched.swap_remove(i);
                        true
                    }
                    None => false,
                })
                .count() as u64;
            if survivors > 0 {
                self.ctx.obs.counter(moela_obs::names::EA_IMPROVEMENTS, survivors);
            }
        }
        let objs: Vec<Vec<f64>> = self.pop.iter().map(|(_, o)| o.clone()).collect();
        {
            let _archive = self.ctx.obs.span("archive_update");
            self.ctx.record(generation + 1, &objs);
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
            vec![("population", entries_to_value(&self.pop, codec))],
        )
    }

    fn finish(self) -> RunResult<P::Solution> {
        self.ctx.into_result(self.pop)
    }
}

/// NSGA-II's survival step: fill by fronts, break the last front by
/// crowding distance.
fn environmental_selection<S: Clone>(
    combined: Vec<(S, Vec<f64>)>,
    keep: usize,
) -> Vec<(S, Vec<f64>)> {
    let objs: Vec<Vec<f64>> = combined.iter().map(|(_, o)| o.clone()).collect();
    let fronts = non_dominated_sort(&objs);
    let mut selected: Vec<usize> = Vec::with_capacity(keep);
    for front in fronts {
        if selected.len() + front.len() <= keep {
            selected.extend(front);
        } else {
            let front_objs: Vec<Vec<f64>> = front.iter().map(|&i| objs[i].clone()).collect();
            let d = crowding_distance(&front_objs);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
            for &local in order.iter().take(keep - selected.len()) {
                selected.push(front[local]);
            }
            break;
        }
    }
    selected.into_iter().map(|i| combined[i].clone()).collect()
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
        let config = Nsga2Config { population: 24, generations: 60, ..Default::default() };
        let out = Nsga2::new(config, &problem).run(&mut rng(1));
        let d = igd(&out.front_objectives(), &problem.true_front(100));
        assert!(d < 0.3, "IGD {d}");
    }

    #[test]
    fn environmental_selection_prefers_lower_fronts() {
        let combined = vec![
            ("good1", vec![0.0, 1.0]),
            ("good2", vec![1.0, 0.0]),
            ("bad1", vec![2.0, 2.0]),
            ("bad2", vec![3.0, 3.0]),
        ];
        let kept = environmental_selection(combined, 2);
        let names: Vec<&str> = kept.iter().map(|(s, _)| *s).collect();
        assert!(names.contains(&"good1") && names.contains(&"good2"));
    }

    #[test]
    fn environmental_selection_breaks_ties_by_crowding() {
        // One front of 4; keep 3: the most crowded interior point drops.
        let combined = vec![
            ("left", vec![0.0, 10.0]),
            ("mid1", vec![4.9, 5.1]),
            ("mid2", vec![5.0, 5.0]),
            ("right", vec![10.0, 0.0]),
        ];
        let kept = environmental_selection(combined, 3);
        let names: Vec<&str> = kept.iter().map(|(s, _)| *s).collect();
        assert!(names.contains(&"left") && names.contains(&"right"));
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn population_size_is_stable() {
        let problem = Zdt::zdt6(6);
        let config = Nsga2Config { population: 14, generations: 8, ..Default::default() };
        let out = Nsga2::new(config, &problem).run(&mut rng(2));
        assert_eq!(out.population.len(), 14);
    }

    #[test]
    fn respects_the_evaluation_cap() {
        let problem = Zdt::zdt1(8);
        // 205 forces a partial (5-child) final generation.
        let config = Nsga2Config {
            population: 10,
            generations: 10_000,
            max_evaluations: Some(205),
            ..Default::default()
        };
        let out = Nsga2::new(config, &problem).run(&mut rng(3));
        assert_eq!(out.evaluations, 205, "batches are capped to the remaining budget");
        assert_eq!(out.population.len(), 10, "partial offspring still face selection");
        let last = out.trace.last().expect("non-empty trace");
        assert_eq!(
            last.evaluations, out.evaluations,
            "the partial final generation must still reach the trace"
        );
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let problem = Zdt::zdt3(8);
        let run = |threads: usize| {
            let config =
                Nsga2Config { population: 12, generations: 8, threads, ..Default::default() };
            Nsga2::new(config, &problem).run(&mut rng(5))
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(parallel.population, sequential.population);
        assert_eq!(parallel.evaluations, sequential.evaluations);
    }

    /// Under injected chaos with a containment policy, a full NSGA-II run
    /// completes, stays finite, and is bit-identical at any thread count.
    #[test]
    fn chaotic_runs_are_finite_and_thread_invariant() {
        use moela_moo::fault::{FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("panic=0.05,nan=0.05,inf=0.03,arity=0.03").unwrap();
        let run = |threads: usize| {
            let problem = ChaosProblem::new(Zdt::zdt1(8), spec, 31);
            let config = Nsga2Config {
                population: 10,
                generations: 6,
                threads,
                fault: FaultConfig { policy: FaultPolicy::Skip, retries: 1 },
                ..Default::default()
            };
            let mut r = rng(13);
            let mut state = zdt(Nsga2::new(config, &problem).start(&mut r));
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
        let config = Nsga2Config { population: 6, generations: 10, ..Default::default() };
        let mut r = rng(1);
        let mut state = zdt(Nsga2::new(config, &problem).start(&mut r));
        assert!(!state.step(&mut r), "the poisoned guard must stop the run");
        let err = state.fault_error().expect("a latched error");
        assert_eq!(err.kind, FaultKind::Panic);
    }

    #[test]
    fn snapshot_resume_is_bit_identical_at_every_boundary() {
        let problem = Zdt::zdt1(8);
        let config = Nsga2Config { population: 10, generations: 6, ..Default::default() };
        let nsga2 = Nsga2::new(config.clone(), &problem);
        let baseline = Nsga2::new(config, &problem).run(&mut rng(41));

        for boundary in 0..6u64 {
            let mut r = rng(41);
            let mut state = zdt(nsga2.start(&mut r));
            while state.completed() < boundary && state.step(&mut r) {}
            let snap = state.snapshot_state(&VecF64Codec);
            let mut r2 = rand::rngs::StdRng::from_state(r.state());
            let mut resumed =
                zdt(nsga2.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
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
}
