//! MOELA configuration (the inputs of Algorithm 1).

use std::time::Duration;

use moela_ml::ForestConfig;
use moela_moo::fault::FaultConfig;

/// Errors from [`MoelaConfigBuilder::build`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum BuildConfigError {
    /// A field violated its range; the message names it.
    InvalidField(String),
}

impl std::fmt::Display for BuildConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildConfigError::InvalidField(msg) => write!(f, "invalid MOELA configuration: {msg}"),
        }
    }
}

impl std::error::Error for BuildConfigError {}

/// Parameters of the MOELA run (Algorithm 1's inputs plus practical
/// budgets). Defaults follow §V.B of the paper where the paper specifies a
/// value (`N = 50`, `iter_early = 2`, `δ = 0.9`, `|S_train| ≤ 10 K`).
#[derive(Clone, Debug, PartialEq)]
pub struct MoelaConfig {
    /// Population size `N` (also the number of decomposition weights).
    pub population: usize,
    /// Number of outer iterations `gen`.
    pub generations: usize,
    /// Iterations with random (un-guided) local-search starts.
    pub iter_early: usize,
    /// Local searches launched per iteration (`n_local`).
    pub n_local: usize,
    /// Neighborhood size `T` of the decomposition EA.
    pub neighborhood: usize,
    /// Probability `δ` of mating within the neighborhood.
    pub delta: f64,
    /// Cap on the training set (`|S_train|`).
    pub train_cap: usize,
    /// Greedy-descent step limit per local search.
    pub ls_max_steps: usize,
    /// Neighbors sampled per greedy-descent step (`1` = first-improvement
    /// descent).
    pub ls_neighbors_per_step: usize,
    /// Consecutive non-improving evaluations before a descent stops.
    pub ls_stall_evaluations: usize,
    /// Maximum population members one new solution may replace (the
    /// standard MOEA/D `n_r` guard against takeover).
    pub max_replacements: usize,
    /// Random-forest hyper-parameters for the learned `Eval`.
    pub forest: ForestConfig,
    /// Run the EA step *before* the local searches within each iteration.
    /// The paper reports that local-search-first "provides the best
    /// results" (§IV.A); this flag exists for the ablation bench that
    /// verifies the claim.
    pub ea_first: bool,
    /// Pre-fitted objective normalizer for the PHV trace; `None` fits one
    /// online (see [`moela_moo::run::TraceRecorder`]).
    pub trace_normalizer: Option<moela_moo::normalize::Normalizer>,
    /// Optional hard cap on objective evaluations.
    pub max_evaluations: Option<u64>,
    /// Optional wall-clock budget (the paper's `T_stop`).
    pub time_budget: Option<Duration>,
    /// Worker threads the run's [`moela_moo::fault::GuardedEvaluator`] fans each
    /// evaluation batch across (`0` = auto-detect). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// How evaluation faults (panics, non-finite or malformed objective
    /// vectors) are contained — see [`moela_moo::fault::GuardedEvaluator`].
    pub fault: FaultConfig,
}

impl MoelaConfig {
    /// Starts building a configuration.
    pub fn builder() -> MoelaConfigBuilder {
        MoelaConfigBuilder::default()
    }

    /// The paper's §V.B parameterization (`N = 50`, `gen = 1000`,
    /// `iter_early = 2`, `δ = 0.9`, 10 K training cap).
    pub fn paper() -> Self {
        MoelaConfig::builder()
            .population(50)
            .generations(1000)
            .build()
            .expect("paper parameters are valid")
    }
}

/// Builder for [`MoelaConfig`].
#[derive(Clone, Debug)]
pub struct MoelaConfigBuilder {
    config: MoelaConfig,
    neighborhood_set: bool,
    n_local_set: bool,
}

impl Default for MoelaConfigBuilder {
    fn default() -> Self {
        Self {
            config: MoelaConfig {
                population: 50,
                generations: 100,
                iter_early: 2,
                n_local: 5,
                neighborhood: 10,
                delta: 0.9,
                train_cap: 10_000,
                ls_max_steps: 12,
                ls_neighbors_per_step: 4,
                ls_stall_evaluations: 12,
                max_replacements: 2,
                forest: ForestConfig {
                    trees: 25,
                    bootstrap_size: Some(512),
                    ..ForestConfig::default()
                },
                ea_first: false,
                trace_normalizer: None,
                max_evaluations: None,
                time_budget: None,
                threads: 1,
                fault: FaultConfig::default(),
            },
            neighborhood_set: false,
            n_local_set: false,
        }
    }
}

impl MoelaConfigBuilder {
    /// Sets the population size `N`.
    pub fn population(mut self, n: usize) -> Self {
        self.config.population = n;
        self
    }

    /// Sets the iteration count `gen`.
    pub fn generations(mut self, generations: usize) -> Self {
        self.config.generations = generations;
        self
    }

    /// Sets the number of un-guided warm-up iterations.
    pub fn iter_early(mut self, iter_early: usize) -> Self {
        self.config.iter_early = iter_early;
        self
    }

    /// Sets how many local searches run per iteration.
    pub fn n_local(mut self, n_local: usize) -> Self {
        self.config.n_local = n_local;
        self.n_local_set = true;
        self
    }

    /// Sets the EA neighborhood size `T`.
    pub fn neighborhood(mut self, t: usize) -> Self {
        self.config.neighborhood = t;
        self.neighborhood_set = true;
        self
    }

    /// Sets the neighborhood-mating probability `δ`.
    pub fn delta(mut self, delta: f64) -> Self {
        self.config.delta = delta;
        self
    }

    /// Sets the training-set cap.
    pub fn train_cap(mut self, cap: usize) -> Self {
        self.config.train_cap = cap;
        self
    }

    /// Sets the greedy-descent step limit.
    pub fn ls_max_steps(mut self, steps: usize) -> Self {
        self.config.ls_max_steps = steps;
        self
    }

    /// Sets how many neighbors each greedy-descent step samples.
    pub fn ls_neighbors_per_step(mut self, k: usize) -> Self {
        self.config.ls_neighbors_per_step = k;
        self
    }

    /// Sets the descent's stall tolerance in evaluations.
    pub fn ls_stall_evaluations(mut self, evals: usize) -> Self {
        self.config.ls_stall_evaluations = evals;
        self
    }

    /// Sets the replacement cap per offspring.
    pub fn max_replacements(mut self, nr: usize) -> Self {
        self.config.max_replacements = nr;
        self
    }

    /// Sets the random-forest hyper-parameters.
    pub fn forest(mut self, forest: ForestConfig) -> Self {
        self.config.forest = forest;
        self
    }

    /// Orders the EA step before the local searches (ablation switch).
    pub fn ea_first(mut self, ea_first: bool) -> Self {
        self.config.ea_first = ea_first;
        self
    }

    /// Fixes the PHV-trace normalizer (the harness passes a corpus-fitted
    /// normalizer so traces are comparable across algorithms).
    pub fn trace_normalizer(mut self, normalizer: moela_moo::normalize::Normalizer) -> Self {
        self.config.trace_normalizer = Some(normalizer);
        self
    }

    /// Caps total objective evaluations.
    pub fn max_evaluations(mut self, evals: u64) -> Self {
        self.config.max_evaluations = Some(evals);
        self
    }

    /// Caps wall-clock time (`T_stop`).
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.config.time_budget = Some(budget);
        self
    }

    /// Sets the evaluation worker-thread count (`0` = auto-detect).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the fault-containment policy and retry budget.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = fault;
        self
    }

    /// Validates and produces the configuration. Unset `neighborhood` and
    /// `n_local` scale with the population (`T = max(3, N/5)`,
    /// `n_local = max(1, N/10)`).
    ///
    /// # Errors
    ///
    /// Returns [`BuildConfigError::InvalidField`] naming the violated
    /// range.
    pub fn build(mut self) -> Result<MoelaConfig, BuildConfigError> {
        let c = &mut self.config;
        if c.population < 2 {
            return Err(BuildConfigError::InvalidField("population must be at least 2".to_owned()));
        }
        if !self.neighborhood_set {
            c.neighborhood = (c.population / 5).max(3).min(c.population);
        }
        if !self.n_local_set {
            c.n_local = (c.population / 10).max(1);
        }
        if c.neighborhood < 2 || c.neighborhood > c.population {
            return Err(BuildConfigError::InvalidField(format!(
                "neighborhood {} must be in 2..={}",
                c.neighborhood, c.population
            )));
        }
        if c.n_local == 0 || c.n_local > c.population {
            return Err(BuildConfigError::InvalidField(format!(
                "n_local {} must be in 1..={}",
                c.n_local, c.population
            )));
        }
        if !(0.0..=1.0).contains(&c.delta) {
            return Err(BuildConfigError::InvalidField("delta must lie in [0, 1]".to_owned()));
        }
        if c.generations == 0 {
            return Err(BuildConfigError::InvalidField(
                "generations must be at least 1".to_owned(),
            ));
        }
        if c.train_cap == 0 {
            return Err(BuildConfigError::InvalidField("train_cap must be positive".to_owned()));
        }
        if c.ls_max_steps == 0 || c.ls_neighbors_per_step == 0 || c.ls_stall_evaluations == 0 {
            return Err(BuildConfigError::InvalidField(
                "local-search budgets must be positive".to_owned(),
            ));
        }
        if c.max_replacements == 0 {
            return Err(BuildConfigError::InvalidField(
                "max_replacements must be positive".to_owned(),
            ));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v_b() {
        let c = MoelaConfig::paper();
        assert_eq!(c.population, 50);
        assert_eq!(c.generations, 1000);
        assert_eq!(c.iter_early, 2);
        assert_eq!(c.delta, 0.9);
        assert_eq!(c.train_cap, 10_000);
    }

    #[test]
    fn unset_neighborhood_scales_with_population() {
        let c = MoelaConfig::builder().population(50).build().expect("valid");
        assert_eq!(c.neighborhood, 10);
        assert_eq!(c.n_local, 5);
        let small = MoelaConfig::builder().population(6).build().expect("valid");
        assert_eq!(small.neighborhood, 3);
        assert_eq!(small.n_local, 1);
    }

    #[test]
    fn explicit_values_are_kept() {
        let c = MoelaConfig::builder()
            .population(20)
            .neighborhood(7)
            .n_local(3)
            .delta(0.5)
            .build()
            .expect("valid");
        assert_eq!(c.neighborhood, 7);
        assert_eq!(c.n_local, 3);
        assert_eq!(c.delta, 0.5);
    }

    #[test]
    fn threads_default_to_sequential_and_are_settable() {
        assert_eq!(MoelaConfig::paper().threads, 1);
        let c = MoelaConfig::builder().population(10).threads(4).build().expect("valid");
        assert_eq!(c.threads, 4);
        let auto = MoelaConfig::builder().population(10).threads(0).build().expect("valid");
        assert_eq!(auto.threads, 0, "0 is kept: it means auto-detect at run time");
    }

    #[test]
    fn fault_containment_defaults_to_fail_and_is_settable() {
        use moela_moo::fault::FaultPolicy;
        let c = MoelaConfig::paper();
        assert_eq!(c.fault, FaultConfig::default());
        assert_eq!(c.fault.policy, FaultPolicy::Fail);
        let c = MoelaConfig::builder()
            .population(10)
            .fault(FaultConfig { policy: FaultPolicy::Skip, retries: 2 })
            .build()
            .expect("valid");
        assert_eq!(c.fault.policy, FaultPolicy::Skip);
        assert_eq!(c.fault.retries, 2);
    }

    #[test]
    fn invalid_fields_are_named() {
        let err = MoelaConfig::builder().population(1).build().expect_err("too small");
        assert!(err.to_string().contains("population"));
        let err = MoelaConfig::builder().delta(1.5).build().expect_err("bad delta");
        assert!(err.to_string().contains("delta"));
        let err =
            MoelaConfig::builder().population(10).n_local(11).build().expect_err("n_local too big");
        assert!(err.to_string().contains("n_local"));
    }
}
