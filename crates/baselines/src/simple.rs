//! The naive baseline: uniform random search (no learning). It brackets
//! the sophisticated algorithms from below and sanity-checks the test
//! suite.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::RngCore;

use moela_moo::archive::ParetoArchive;
use moela_moo::checkpoint::{run_to_end, Resumable, RunCtx};
use moela_moo::fault::{is_quarantined, FaultConfig};
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::snapshot::{archive_from_value, archive_to_value};
use moela_moo::Problem;
use moela_persist::{PersistError, SolutionCodec, Value};

/// Archive capacity of random search.
const ARCHIVE_CAP: usize = 50;

/// Samples per step, and trace granularity: a trace point every
/// `TRACE_EVERY` samples.
const TRACE_EVERY: u64 = 100;

/// Uniform random search: draw designs, keep the Pareto archive.
#[derive(Clone, Debug, PartialEq)]
pub struct RandomSearchConfig {
    /// Number of random designs to draw.
    pub samples: u64,
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
            trace_normalizer: None,
            time_budget: None,
            threads: 1,
            fault: FaultConfig::default(),
        }
    }
}

/// Uniform random search bound to one problem.
///
/// # Example
///
/// ```
/// use moela_baselines::{RandomSearch, RandomSearchConfig};
/// use moela_moo::problems::Zdt;
/// use rand::SeedableRng;
///
/// let problem = Zdt::zdt1(10);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let cfg = RandomSearchConfig { samples: 50, ..Default::default() };
/// let out = RandomSearch::new(cfg, &problem).run(&mut rng);
/// assert_eq!(out.evaluations, 50);
/// ```
#[derive(Debug)]
pub struct RandomSearch<'p, P> {
    config: RandomSearchConfig,
    problem: &'p P,
}

impl<'p, P: Problem> RandomSearch<'p, P> {
    /// Binds a configuration to a problem.
    pub fn new(config: RandomSearchConfig, problem: &'p P) -> Self {
        Self { config, problem }
    }
}

impl<'p, P> RandomSearch<'p, P>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    /// Runs random search and returns the final archive with its trace.
    pub fn run(&self, rng: &mut StdRng) -> RunResult<P::Solution> {
        run_to_end(self.start(rng), rng)
    }

    /// Initializes a run as a steppable state machine (one step per
    /// trace chunk). Draws nothing from `rng`; it takes one only to
    /// share the other optimizers' shape.
    pub fn start(&self, _rng: &mut dyn RngCore) -> RandomSearchState<'p, P> {
        let cfg = &self.config;
        RandomSearchState {
            ctx: RunCtx::new(
                cfg.threads,
                cfg.fault,
                cfg.trace_normalizer.as_ref(),
                self.problem.objective_count(),
                None,
                cfg.time_budget,
            ),
            config: cfg.clone(),
            problem: self.problem,
            archive: ParetoArchive::bounded(ARCHIVE_CAP),
            drawn: 0,
            chunks: 0,
        }
    }

    /// Rebuilds a mid-run state from a [`RandomSearchState::snapshot_state`]
    /// value, with `elapsed` wall-clock time already consumed.
    pub fn restore<C: SolutionCodec<P::Solution>>(
        &self,
        codec: &C,
        value: &Value,
        elapsed: Duration,
    ) -> Result<RandomSearchState<'p, P>, PersistError> {
        let cfg = &self.config;
        let drawn = value.field("drawn")?.as_u64()?;
        if drawn > cfg.samples {
            return Err(PersistError::schema("checkpoint drew more samples than configured"));
        }
        Ok(RandomSearchState {
            ctx: RunCtx::restore(value, elapsed, cfg.threads, cfg.fault, None, cfg.time_budget)?,
            config: cfg.clone(),
            problem: self.problem,
            archive: archive_from_value(value.field("archive")?, codec)?,
            drawn,
            chunks: value.field("chunks")?.as_u64()?,
        })
    }
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
        let n = TRACE_EVERY.min(cfg.samples - self.drawn) as usize;
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
            if self.drawn.is_multiple_of(TRACE_EVERY) {
                let step = ((self.drawn - 1) / TRACE_EVERY) as usize;
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
        let out = RandomSearch::new(cfg, &problem).run(&mut rng(1));
        assert_eq!(out.evaluations, 123);
        assert!(!out.population.is_empty());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let problem = Zdt::zdt3(8);
        let objs = |r: &RunResult<Vec<f64>>| -> Vec<Vec<f64>> {
            r.population.iter().map(|(_, o)| o.clone()).collect()
        };

        let rs = |threads: usize| {
            let cfg = RandomSearchConfig { samples: 230, threads, ..Default::default() };
            RandomSearch::new(cfg, &problem).run(&mut rng(8))
        };
        let (rs_seq, rs_par) = (rs(1), rs(4));
        assert_eq!(rs_par.evaluations, rs_seq.evaluations);
        assert_eq!(objs(&rs_par), objs(&rs_seq));
        assert_eq!(rs_par.trace.len(), rs_seq.trace.len());
    }

    #[test]
    fn snapshot_resume_is_bit_identical_at_every_boundary() {
        let problem = Zdt::zdt1(6);
        let cfg = RandomSearchConfig { samples: 430, ..Default::default() };
        let search = RandomSearch::new(cfg, &problem);
        let baseline = search.run(&mut rng(71));

        // 430 samples at TRACE_EVERY = 100 is 5 chunks (the last partial).
        for boundary in [0u64, 1, 3, 5] {
            let mut r = rng(71);
            let mut state = zdt(search.start(&mut r));
            while state.completed() < boundary && state.step(&mut r) {}
            let snap = state.snapshot_state(&VecF64Codec);
            let mut r2 = rand::rngs::StdRng::from_state(r.state());
            let mut resumed =
                zdt(search.restore(&VecF64Codec, &snap, Duration::ZERO).expect("restore"));
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
                threads,
                fault: FaultConfig { policy: FaultPolicy::Skip, retries: 1 },
                ..Default::default()
            };
            let mut r = rng(13);
            let mut state = zdt(RandomSearch::new(cfg, &problem).start(&mut r));
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
        let mut state = zdt(RandomSearch::new(cfg, &problem).start(&mut r));
        assert!(!state.step(&mut r), "the poisoned guard must stop the run");
        let err = state.fault_error().expect("a latched error");
        assert_eq!(err.kind, FaultKind::Panic);
    }
}
