//! The optimizer table: the one place where run settings become an
//! optimizer.
//!
//! [`OptimizerSettings`] holds what a caller decides about a run (the
//! algorithm, population, evaluation budget, trace normalizer, time
//! guard, worker threads and fault policy); everything else each
//! optimizer needs is written once, here. `moela-dse` (`run`, `resume`,
//! `compare` and served jobs) and the `moela-bench` harness both build
//! their optimizers through [`OptimizerSettings::start`] or
//! [`OptimizerSettings::restore`], so a table compares the optimizers a
//! user runs, with the same settings.

use std::marker::PhantomData;
use std::time::Duration;

use rand::rngs::StdRng;

use moela_baselines::{
    Moead, MoeadConfig, MoeadState, MooStage, MooStageConfig, MooStageState, Moos, MoosConfig,
    MoosState, Nsga2, Nsga2Config, Nsga2State, RandomSearch, RandomSearchConfig, RandomSearchState,
};
use moela_moo::checkpoint::{run_to_end, NoCodec, Resumable, RunCtx};
use moela_moo::fault::FaultConfig;
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::Problem;
use moela_persist::{PersistError, SolutionCodec, Value};

use crate::moela::MoelaState;
use crate::{Moela, MoelaConfig, MoelaConfigBuilder};

/// Which optimizer to run.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Algorithm {
    /// The hybrid evolutionary/learning optimizer (the paper's MOELA).
    Moela,
    /// MOEA/D.
    Moead,
    /// MOOS.
    Moos,
    /// MOO-STAGE.
    MooStage,
    /// NSGA-II.
    Nsga2,
    /// Uniform random search.
    Random,
}

impl Algorithm {
    /// All selectable algorithms with their names.
    pub const ALL: [(Algorithm, &'static str); 6] = [
        (Algorithm::Moela, "moela"),
        (Algorithm::Moead, "moead"),
        (Algorithm::Moos, "moos"),
        (Algorithm::MooStage, "moo-stage"),
        (Algorithm::Nsga2, "nsga2"),
        (Algorithm::Random, "random"),
    ];

    /// Parses a name, ignoring case.
    ///
    /// # Errors
    ///
    /// A name no algorithm has, with the list of names.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .find(|(_, n)| name.eq_ignore_ascii_case(n))
            .map(|(a, _)| *a)
            .ok_or_else(|| format!("unknown algorithm '{name}' (try: moela, moead, moos, moo-stage, nsga2, random)"))
    }

    /// The display name.
    pub fn name(&self) -> &'static str {
        Self::ALL.iter().find(|(a, _)| a == self).map(|(_, n)| *n).expect("every variant is listed")
    }
}

/// The settings a caller chooses for one run; [`start`](Self::start) and
/// [`restore`](Self::restore) turn them into the selected optimizer.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizerSettings {
    /// The optimizer.
    pub algorithm: Algorithm,
    /// Population size of the population-based optimizers (MOELA,
    /// MOEA/D, NSGA-II); at least 2.
    pub population: usize,
    /// Objective-evaluation budget. MOEA/D, NSGA-II and random search
    /// stop at it exactly; the local-search optimizers may overshoot it
    /// by part of an episode.
    pub budget: u64,
    /// The fixed normalizer the PHV trace is scored under.
    pub normalizer: Normalizer,
    /// Wall-clock guard.
    pub time_guard: Duration,
    /// Evaluation worker threads (`0` = auto-detect). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// How evaluation faults are contained.
    pub fault: FaultConfig,
}

impl OptimizerSettings {
    /// MOELA's configuration before `build`, for callers that vary one
    /// of its knobs (the ablations); [`start`](Self::start) builds it as
    /// is.
    pub fn moela_builder(&self) -> MoelaConfigBuilder {
        MoelaConfig::builder()
            .population(self.population)
            .generations(usize::MAX / 2)
            .trace_normalizer(self.normalizer.clone())
            .max_evaluations(self.budget)
            .time_budget(self.time_guard)
            .threads(self.threads)
            .fault(self.fault)
    }

    /// Starts the selected optimizer over `problem` (evaluating its
    /// initial designs) from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `population < 2` for a population-based optimizer.
    pub fn start<'p, P, C>(&self, problem: &'p P, rng: &mut StdRng) -> AnyState<'p, P, C>
    where
        P: Problem + Sync,
        P::Solution: Sync,
        C: SolutionCodec<P::Solution>,
    {
        self.open(problem, Origin::Seed(rng)).expect("starting a run reads no checkpoint")
    }

    /// Rebuilds the selected optimizer from a checkpointed `state`,
    /// decoding its solutions through `codec`, with `elapsed` wall-clock
    /// time already consumed.
    ///
    /// # Errors
    ///
    /// A state the selected optimizer did not write, or one that
    /// contradicts these settings.
    pub fn restore<'p, P, C>(
        &self,
        problem: &'p P,
        codec: &C,
        state: &Value,
        elapsed: Duration,
    ) -> Result<AnyState<'p, P, C>, PersistError>
    where
        P: Problem + Sync,
        P::Solution: Sync,
        C: SolutionCodec<P::Solution>,
    {
        self.open(problem, Origin::Checkpoint(codec, state, elapsed))
    }

    /// Starts the selected optimizer and runs it to the end, without
    /// checkpoints.
    pub fn run<P>(&self, problem: &P, rng: &mut StdRng) -> RunResult<P::Solution>
    where
        P: Problem + Sync,
        P::Solution: Sync,
    {
        run_to_end(self.start::<P, NoCodec>(problem, rng), rng)
    }

    /// The one place each optimizer's configuration is written.
    fn open<'p, P, C>(
        &self,
        problem: &'p P,
        origin: Origin<'_, C>,
    ) -> Result<AnyState<'p, P, C>, PersistError>
    where
        P: Problem + Sync,
        P::Solution: Sync,
        C: SolutionCodec<P::Solution>,
    {
        // Every optimizer starts and restores alike.
        macro_rules! open {
            ($optimizer:expr) => {
                match origin {
                    Origin::Seed(rng) => $optimizer.start(rng),
                    Origin::Checkpoint(codec, state, elapsed) => {
                        $optimizer.restore(codec, state, elapsed)?
                    }
                }
            };
        }
        let trace_normalizer = Some(self.normalizer.clone());
        let (max_evaluations, time_budget) = (Some(self.budget), Some(self.time_guard));
        let (threads, fault) = (self.threads, self.fault);
        let state = match self.algorithm {
            Algorithm::Moela => {
                let config = self.moela_builder().build().expect("population is at least 2");
                State::Moela(open!(Moela::new(config, problem)))
            }
            Algorithm::Moead => {
                let config = MoeadConfig {
                    population: self.population,
                    generations: usize::MAX / 2,
                    trace_normalizer,
                    max_evaluations,
                    time_budget,
                    threads,
                    fault,
                };
                State::Moead(open!(Moead::new(config, problem)))
            }
            Algorithm::Moos => {
                let config = MoosConfig {
                    episodes: usize::MAX / 2,
                    trace_normalizer,
                    max_evaluations,
                    time_budget,
                    threads,
                    fault,
                };
                State::Moos(open!(Moos::new(config, problem)))
            }
            Algorithm::MooStage => {
                let config = MooStageConfig {
                    episodes: usize::MAX / 2,
                    trace_normalizer,
                    max_evaluations,
                    time_budget,
                    threads,
                    fault,
                };
                State::MooStage(open!(MooStage::new(config, problem)))
            }
            Algorithm::Nsga2 => {
                let config = Nsga2Config {
                    population: self.population,
                    generations: usize::MAX / 2,
                    trace_normalizer,
                    max_evaluations,
                    time_budget,
                    threads,
                    fault,
                };
                State::Nsga2(open!(Nsga2::new(config, problem)))
            }
            Algorithm::Random => {
                let config = RandomSearchConfig {
                    samples: self.budget,
                    trace_normalizer,
                    time_budget,
                    threads,
                    fault,
                };
                State::Random(open!(RandomSearch::new(config, problem)))
            }
        };
        Ok(AnyState { state, codec: PhantomData })
    }
}

/// Where [`OptimizerSettings::open`] begins a run.
enum Origin<'a, C> {
    /// A fresh run drawing from this generator.
    Seed(&'a mut StdRng),
    /// A checkpointed state, its solution codec and its elapsed time.
    Checkpoint(&'a C, &'a Value, Duration),
}

/// The selected optimizer's run, so a driver steps every algorithm
/// through one loop. `C` is the codec its checkpoints encode solutions
/// with ([`NoCodec`] for a run that is never checkpointed).
pub struct AnyState<'p, P: Problem, C> {
    state: State<'p, P>,
    codec: PhantomData<fn(&C)>,
}

/// One optimizer's run.
enum State<'p, P: Problem> {
    Moela(MoelaState<'p, P>),
    Moead(MoeadState<'p, P>),
    Moos(MoosState<'p, P>),
    MooStage(MooStageState<'p, P>),
    Nsga2(Nsga2State<'p, P>),
    Random(RandomSearchState<'p, P>),
}

/// Forwards one `Resumable` call to the state an [`AnyState`] wraps.
macro_rules! forward {
    ($state:expr, $method:ident($($arg:expr),*)) => {
        match $state {
            State::Moela(s) => Resumable::<C>::$method(s $(, $arg)*),
            State::Moead(s) => Resumable::<C>::$method(s $(, $arg)*),
            State::Moos(s) => Resumable::<C>::$method(s $(, $arg)*),
            State::MooStage(s) => Resumable::<C>::$method(s $(, $arg)*),
            State::Nsga2(s) => Resumable::<C>::$method(s $(, $arg)*),
            State::Random(s) => Resumable::<C>::$method(s $(, $arg)*),
        }
    };
}

impl<P, C> Resumable<C> for AnyState<'_, P, C>
where
    P: Problem + Sync,
    P::Solution: Sync,
    C: SolutionCodec<P::Solution>,
{
    type Solution = P::Solution;

    fn ctx(&self) -> &RunCtx {
        forward!(&self.state, ctx())
    }

    fn ctx_mut(&mut self) -> &mut RunCtx {
        forward!(&mut self.state, ctx_mut())
    }

    fn completed(&self) -> u64 {
        forward!(&self.state, completed())
    }

    fn step(&mut self, rng: &mut StdRng) -> bool {
        forward!(&mut self.state, step(rng))
    }

    fn snapshot_state(&self, codec: &C) -> Value {
        forward!(&self.state, snapshot_state(codec))
    }

    fn finish(self) -> RunResult<P::Solution> {
        forward!(self.state, finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_moo::problems::Zdt;
    use moela_persist::VecF64Codec;
    use rand::SeedableRng;

    fn settings(algorithm: Algorithm) -> OptimizerSettings {
        OptimizerSettings {
            algorithm,
            population: 8,
            budget: 150,
            normalizer: Normalizer::fit(&[vec![0.0, 0.0], vec![1.0, 10.0]]),
            time_guard: Duration::from_secs(60),
            threads: 1,
            fault: FaultConfig::default(),
        }
    }

    #[test]
    fn names_round_trip() {
        for (algorithm, name) in Algorithm::ALL {
            assert_eq!(algorithm.name(), name);
            assert_eq!(Algorithm::parse(&name.to_uppercase()), Ok(algorithm));
        }
        assert!(Algorithm::parse("simulated-annealing").unwrap_err().contains("moo-stage"));
    }

    /// Every optimizer spends the budget, and a run checkpointed after
    /// two steps and restored ends where the uninterrupted one does.
    #[test]
    fn every_optimizer_runs_and_restores() {
        let problem = Zdt::zdt1(6);
        for (algorithm, name) in Algorithm::ALL {
            let settings = settings(algorithm);
            let whole = settings.run(&problem, &mut StdRng::seed_from_u64(3));
            assert!(whole.evaluations >= 150, "{name}: {} evaluations", whole.evaluations);

            let mut rng = StdRng::seed_from_u64(3);
            let mut state = settings.start(&problem, &mut rng);
            while state.completed() < 2 && state.step(&mut rng) {}
            let snapshot = state.snapshot_state(&VecF64Codec);
            let mut resumed = settings
                .restore(&problem, &VecF64Codec, &snapshot, Duration::ZERO)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            while resumed.step(&mut rng) {}
            let out = resumed.finish();
            assert_eq!(out.population, whole.population, "{name}");
            assert_eq!(out.evaluations, whole.evaluations, "{name}");
        }
    }
}
