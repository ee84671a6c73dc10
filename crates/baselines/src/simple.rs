//! Naive baselines: uniform random search and multi-start weighted-sum
//! local search (no learning). These bracket the sophisticated algorithms
//! from below in the benchmark harness and sanity-check the test suite.

use std::slice;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use moela_moo::archive::ParetoArchive;
use moela_moo::checkpoint::{run_to_end, Resumable, RunCtx};
use moela_moo::fault::{is_quarantined, FaultConfig};
use moela_moo::local_search::greedy_descent;
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::scalarize::ReferencePoint;
use moela_moo::snapshot::{archive_from_value, archive_to_value};
use moela_moo::weights::uniform_weights;
use moela_moo::Problem;
use moela_persist::{PersistError, SolutionCodec, Value};

use crate::common::descent_budget;

/// Uniform random search: draw designs, keep the Pareto archive.
#[derive(Clone, Debug, PartialEq)]
pub struct RandomSearchConfig {
    /// Number of random designs to draw.
    pub samples: u64,
    /// Archive capacity.
    pub archive_cap: usize,
    /// Trace granularity: record a point every `trace_every` samples.
    pub trace_every: u64,
    /// Pre-fitted objective normalizer for the PHV trace; `None` fits one
    /// online.
    pub trace_normalizer: Option<Normalizer>,
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

impl Default for RandomSearchConfig {
    fn default() -> Self {
        Self {
            samples: 1000,
            archive_cap: 50,
            trace_every: 100,
            trace_normalizer: None,
            time_budget: None,
            threads: 1,
            fault: FaultConfig::default(),
        }
    }
}

/// Runs random search.
///
/// # Example
///
/// ```
/// use moela_baselines::{random_search, RandomSearchConfig};
/// use moela_moo::problems::Zdt;
/// use rand::SeedableRng;
///
/// let problem = Zdt::zdt1(10);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let cfg = RandomSearchConfig { samples: 50, ..Default::default() };
/// let out = random_search(&cfg, &problem, &mut rng);
/// assert_eq!(out.evaluations, 50);
/// ```
pub fn random_search<P>(
    config: &RandomSearchConfig,
    problem: &P,
    rng: &mut StdRng,
) -> RunResult<P::Solution>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    run_to_end(random_search_start(config, problem), rng)
}

/// Initializes a random-search run as a steppable state machine (one
/// step per trace chunk). Draws no RNG values itself.
pub fn random_search_start<'p, P>(
    config: &RandomSearchConfig,
    problem: &'p P,
) -> RandomSearchState<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    RandomSearchState {
        ctx: RunCtx::new(
            config.threads,
            config.fault,
            config.trace_normalizer.as_ref(),
            problem.objective_count(),
            None,
            config.time_budget,
        ),
        config: config.clone(),
        problem,
        archive: ParetoArchive::bounded(config.archive_cap),
        drawn: 0,
        chunks: 0,
    }
}

/// Rebuilds a mid-run state from a [`RandomSearchState::snapshot_state`]
/// value, with `elapsed` wall-clock time already consumed.
pub fn random_search_restore<'p, P, C>(
    config: &RandomSearchConfig,
    problem: &'p P,
    codec: &C,
    value: &Value,
    elapsed: Duration,
) -> Result<RandomSearchState<'p, P>, PersistError>
where
    P: Problem + Sync,
    P::Solution: Sync,
    C: SolutionCodec<P::Solution>,
{
    let drawn = value.field("drawn")?.as_u64()?;
    if drawn > config.samples {
        return Err(PersistError::schema("checkpoint drew more samples than configured"));
    }
    Ok(RandomSearchState {
        ctx: RunCtx::restore(
            value,
            elapsed,
            config.threads,
            config.fault,
            None,
            config.time_budget,
        )?,
        config: config.clone(),
        problem,
        archive: archive_from_value(value.field("archive")?, codec)?,
        drawn,
        chunks: value.field("chunks")?.as_u64()?,
    })
}

/// A random-search run in progress, checkpointable between trace chunks.
#[derive(Debug)]
pub struct RandomSearchState<'p, P: Problem> {
    config: RandomSearchConfig,
    problem: &'p P,
    ctx: RunCtx,
    archive: ParetoArchive<P::Solution>,
    drawn: u64,
    chunks: u64,
}

impl<'p, P, C> Resumable<C> for RandomSearchState<'p, P>
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

    /// Completed chunks (checkpoint boundaries, not samples).
    fn completed(&self) -> u64 {
        self.chunks
    }

    /// Draws and evaluates one chunk of samples, aligned to the trace
    /// granularity so the trace is identical to the old one-at-a-time
    /// loop (the wall-clock budget is checked per chunk rather than per
    /// sample).
    fn step(&mut self, rng: &mut StdRng) -> bool {
        if !self.ctx.begin_step(self.drawn >= self.config.samples) {
            return false;
        }
        let cfg = &self.config;
        let chunk = if cfg.trace_every > 0 { cfg.trace_every } else { 64 };
        let n = chunk.min(cfg.samples - self.drawn) as usize;
        let candidates: Vec<P::Solution> =
            (0..n).map(|_| self.problem.random_solution(rng)).collect();
        let batch = self.ctx.evaluate(self.problem, &candidates);
        if self.ctx.poisoned() {
            return false;
        }
        {
            let _archive = self.ctx.obs.span("archive_update");
            for (s, o) in candidates.into_iter().zip(batch.objectives) {
                let Some(o) = o else { continue };
                if is_quarantined(&o) {
                    continue;
                }
                self.ctx.recorder.observe(&o);
                self.archive.insert(s, o);
            }
            self.drawn += n as u64;
            if cfg.trace_every > 0 && self.drawn.is_multiple_of(cfg.trace_every) {
                let step = ((self.drawn - 1) / cfg.trace_every) as usize;
                self.ctx.record(step, &self.archive.objectives());
            }
        }
        self.chunks += 1;
        self.ctx.obs.gauge("archive_size", self.archive.len() as f64);
        self.ctx.report_step();
        true
    }

    fn snapshot_state(&self, codec: &C) -> Value {
        self.ctx.snapshot(
            vec![("drawn", Value::U64(self.drawn)), ("chunks", Value::U64(self.chunks))],
            vec![("archive", archive_to_value(&self.archive, codec))],
        )
    }

    /// Records the final trace point and produces the result.
    fn finish(mut self) -> RunResult<P::Solution> {
        self.ctx.record(self.config.samples as usize, &self.archive.objectives());
        self.ctx.into_result(self.archive.into_entries())
    }
}

/// Multi-start local search: repeatedly descend a weighted sum from a
/// random design, cycling through a fan of directions (MOO-LS — the
/// pre-learning baseline the MOO-STAGE paper improved on).
#[derive(Clone, Debug, PartialEq)]
pub struct MultiStartConfig {
    /// Number of restarts.
    pub restarts: usize,
    /// Number of scalarization directions in the fan.
    pub directions: usize,
    /// Descent step limit per restart.
    pub ls_max_steps: usize,
    /// Neighbors sampled per descent step.
    pub ls_neighbors_per_step: usize,
    /// Archive capacity.
    pub archive_cap: usize,
    /// Pre-fitted objective normalizer for the PHV trace; `None` fits one
    /// online.
    pub trace_normalizer: Option<Normalizer>,
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

impl Default for MultiStartConfig {
    fn default() -> Self {
        Self {
            restarts: 40,
            directions: 10,
            ls_max_steps: 25,
            ls_neighbors_per_step: 4,
            archive_cap: 50,
            trace_normalizer: None,
            max_evaluations: None,
            time_budget: None,
            threads: 1,
            fault: FaultConfig::default(),
        }
    }
}

/// Runs multi-start weighted-sum local search.
pub fn multi_start_local_search<P>(
    config: &MultiStartConfig,
    problem: &P,
    rng: &mut impl RngCore,
) -> RunResult<P::Solution>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    let rng: &mut dyn RngCore = rng;
    let m = problem.objective_count();
    let mut ctx = RunCtx::new(
        config.threads,
        config.fault,
        config.trace_normalizer.as_ref(),
        m,
        config.max_evaluations,
        config.time_budget,
    );
    let mut archive: ParetoArchive<P::Solution> = ParetoArchive::bounded(config.archive_cap);
    let mut z = ReferencePoint::new(m);
    let mut normalizer = Normalizer::new(m);
    let directions = uniform_weights(config.directions.max(1), m);

    for restart in 0..config.restarts {
        if !ctx.budget_left() {
            break;
        }
        let start = problem.random_solution(rng);
        let start_objs = ctx.evaluate(problem, slice::from_ref(&start)).objectives.pop().flatten();
        if ctx.poisoned() {
            break; // a Fail-policy fault latched; stop restarting
        }
        // A quarantined start (faulted under Skip/PenalizeWorst) has no
        // trustworthy objectives to descend from: skip this restart but
        // keep the trace cadence so resume bookkeeping stays aligned.
        if let Some(start_objs) = start_objs.filter(|o| !is_quarantined(o)) {
            z.update(&start_objs);
            normalizer.observe(&start_objs);
            ctx.recorder.observe(&start_objs);
            archive.insert(start.clone(), start_objs.clone());

            let weight = &directions[restart % directions.len()];
            let descent = greedy_descent(
                problem,
                &start,
                &start_objs,
                weight,
                z.values(),
                &normalizer,
                descent_budget(config.ls_max_steps, config.ls_neighbors_per_step),
                &mut ctx,
                rng,
            );
            if ctx.poisoned() {
                ctx.record(restart + 1, &archive.objectives());
                break;
            }
            for (s, o) in descent.accepted {
                z.update(&o);
                normalizer.observe(&o);
                ctx.recorder.observe(&o);
                archive.insert(s, o);
            }
        }
        ctx.record(restart + 1, &archive.objectives());
    }

    ctx.into_result(archive.into_entries())
}

/// Draws `k` distinct indices in `0..n` (used by tests and the harness).
pub fn sample_indices(n: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(k.min(n));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn random_search_counts_exactly() {
        let problem = Zdt::zdt1(6);
        let cfg = RandomSearchConfig { samples: 123, ..Default::default() };
        let out = random_search(&cfg, &problem, &mut rng(1));
        assert_eq!(out.evaluations, 123);
        assert!(!out.population.is_empty());
    }

    #[test]
    fn local_search_beats_random_search_at_equal_budget() {
        // Any single seed pair is a coin with an edge, not a certainty, so
        // compare mean IGD across a few independent runs.
        let problem = Zdt::zdt1(8);
        let reference = problem.true_front(100);
        let mut igd_ls_total = 0.0;
        let mut igd_rs_total = 0.0;
        for seed in [2u64, 12, 22] {
            let ls_cfg = MultiStartConfig { restarts: 25, ls_max_steps: 60, ..Default::default() };
            let ls = multi_start_local_search(&ls_cfg, &problem, &mut rng(seed));
            let rs_cfg = RandomSearchConfig { samples: ls.evaluations, ..Default::default() };
            let rs = random_search(&rs_cfg, &problem, &mut rng(seed + 1));
            igd_ls_total += moela_moo::metrics::igd(&ls.front_objectives(), &reference);
            igd_rs_total += moela_moo::metrics::igd(&rs.front_objectives(), &reference);
        }
        assert!(igd_ls_total < igd_rs_total, "LS {igd_ls_total} vs RS {igd_rs_total}");
    }

    #[test]
    fn multi_start_respects_evaluation_cap() {
        let problem = Zdt::zdt1(6);
        let cfg =
            MultiStartConfig { restarts: 10_000, max_evaluations: Some(250), ..Default::default() };
        let out = multi_start_local_search(&cfg, &problem, &mut rng(4));
        assert!(out.evaluations <= 250 + 110);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let problem = Zdt::zdt3(8);
        let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };

        let rs = |threads: usize| {
            let cfg = RandomSearchConfig { samples: 230, threads, ..Default::default() };
            random_search(&cfg, &problem, &mut rng(8))
        };
        let (rs_seq, rs_par) = (rs(1), rs(4));
        assert_eq!(rs_par.evaluations, rs_seq.evaluations);
        assert_eq!(objs(&rs_par), objs(&rs_seq));
        assert_eq!(rs_par.trace.len(), rs_seq.trace.len());

        let ms = |threads: usize| {
            let cfg = MultiStartConfig { restarts: 12, threads, ..Default::default() };
            multi_start_local_search(&cfg, &problem, &mut rng(9))
        };
        let (ms_seq, ms_par) = (ms(1), ms(4));
        assert_eq!(ms_par.evaluations, ms_seq.evaluations);
        assert_eq!(objs(&ms_par), objs(&ms_seq));
    }

    #[test]
    fn snapshot_resume_is_bit_identical_at_every_boundary() {
        let problem = Zdt::zdt1(6);
        let cfg = RandomSearchConfig { samples: 230, trace_every: 50, ..Default::default() };
        let baseline = random_search(&cfg, &problem, &mut rng(71));

        // 230 samples at trace_every=50 is 5 chunks (the last partial).
        for boundary in [0u64, 1, 3, 5] {
            let mut r = rng(71);
            let mut state = zdt(random_search_start(&cfg, &problem));
            while state.completed() < boundary && state.step(&mut r) {}
            let snap = state.snapshot_state(&VecF64Codec);
            let mut r2 = rand::rngs::StdRng::from_state(r.state());
            let mut resumed =
                zdt(random_search_restore(&cfg, &problem, &VecF64Codec, &snap, Duration::ZERO)
                    .expect("restore"));
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

    /// Under injected chaos with a containment policy, random search
    /// completes, its archive stays clean, and results are bit-identical
    /// at any thread count.
    #[test]
    fn chaotic_random_search_is_finite_and_thread_invariant() {
        use moela_moo::fault::{is_penalty, FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("panic=0.05,nan=0.05,inf=0.03,arity=0.03").unwrap();
        let run = |threads: usize| {
            let problem = ChaosProblem::new(Zdt::zdt1(8), spec, 31);
            let cfg = RandomSearchConfig {
                samples: 200,
                trace_every: 50,
                threads,
                fault: FaultConfig { policy: FaultPolicy::Skip, retries: 1 },
                ..Default::default()
            };
            let mut r = rng(13);
            let mut state = zdt(random_search_start(&cfg, &problem));
            while state.step(&mut r) {}
            let log = *state.fault_log();
            (state.finish(), log)
        };
        let (base, base_log) = run(1);
        assert!(base_log.faults() > 0, "the spec must actually inject");
        assert!(base
            .population
            .iter()
            .all(|(_, o)| o.iter().all(|v| v.is_finite()) && !is_penalty(o)));
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
    /// error and stops random search instead of aborting the process.
    #[test]
    fn fail_policy_latches_a_structured_error() {
        use moela_moo::fault::FaultKind;
        use moela_moo::{ChaosProblem, ChaosSpec};
        let problem = ChaosProblem::new(Zdt::zdt1(6), ChaosSpec::parse("panic=1.0").unwrap(), 5);
        let cfg = RandomSearchConfig { samples: 100, ..Default::default() };
        let mut r = rng(1);
        let mut state = zdt(random_search_start(&cfg, &problem));
        assert!(!state.step(&mut r), "the poisoned guard must stop the run");
        let err = state.fault_error().expect("a latched error");
        assert_eq!(err.kind, FaultKind::Panic);
    }

    /// Multi-start local search contains chaos: faulted starts and
    /// neighbors never reach the archive, and a Fail-policy fault stops
    /// the restarts early instead of aborting.
    #[test]
    fn chaotic_multi_start_contains_faults() {
        use moela_moo::fault::{is_penalty, FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec};
        let spec = ChaosSpec::parse("panic=0.1,nan=0.1,arity=0.05").unwrap();
        let run = |threads: usize| {
            let problem = ChaosProblem::new(Zdt::zdt1(8), spec, 21);
            let cfg = MultiStartConfig {
                restarts: 10,
                threads,
                fault: FaultConfig { policy: FaultPolicy::Skip, retries: 1 },
                ..Default::default()
            };
            multi_start_local_search(&cfg, &problem, &mut rng(3))
        };
        let base = run(1);
        assert!(base
            .population
            .iter()
            .all(|(_, o)| o.iter().all(|v| v.is_finite()) && !is_penalty(o)));
        let par = run(4);
        assert_eq!(par.evaluations, base.evaluations);
        let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };
        assert_eq!(objs(&par), objs(&base));

        // Fail policy: the first faulted start ends the run after one
        // attempted evaluation.
        let problem = ChaosProblem::new(Zdt::zdt1(8), ChaosSpec::parse("panic=1.0").unwrap(), 9);
        let cfg = MultiStartConfig { restarts: 10, ..Default::default() };
        let out = multi_start_local_search(&cfg, &problem, &mut rng(4));
        assert_eq!(out.evaluations, 1);
        assert!(out.population.is_empty());
    }

    #[test]
    fn sample_indices_are_distinct_and_bounded() {
        let idx = sample_indices(10, 4, &mut rng(5));
        assert_eq!(idx.len(), 4);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(idx.iter().all(|&i| i < 10));
        assert_eq!(sample_indices(3, 9, &mut rng(6)).len(), 3);
    }
}
