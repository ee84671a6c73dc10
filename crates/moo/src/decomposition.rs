//! Decomposition in the MOEA/D sense (Zhang & Li, 2007), shared by MOELA
//! and the MOEA/D baseline.
//!
//! MOEADr (arXiv:1807.06731) splits a MOEA/D into decomposition,
//! neighborhood, variation and update components. Here each has one
//! implementation: [`Population`] binds individuals to Das–Dennis weight
//! vectors with Tchebycheff neighborhoods, [`Population::update`] is the
//! eq. (10) replacement rule, and [`Population::evolve`] is the mating and
//! replacement pass both optimizers run. MOEA/D passes it a shuffled slot
//! order; MOELA passes the plain one. Both use the paper's §V.B mating
//! probability [`DELTA`] and the standard replacement cap
//! [`MAX_REPLACEMENTS`].

use rand::{Rng, RngCore};

use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

use crate::checkpoint::RunCtx;
use crate::fault::is_quarantined;
use crate::normalize::Normalizer;
use crate::scalarize::{ReferencePoint, Scalarizer};
use crate::snapshot::{entries_from_value, entry_to_value};
use crate::weights::{neighborhoods, uniform_weights};
use crate::Problem;

/// Probability `δ` of mating within the neighborhood (§V.B).
pub const DELTA: f64 = 0.9;

/// Maximum population members one new solution may replace (the standard
/// MOEA/D `n_r` guard against takeover).
pub const MAX_REPLACEMENTS: usize = 2;

/// One population slot: a solution, its raw objective vector, and (via its
/// index) an assigned weight vector.
#[derive(Clone, Debug)]
pub struct Individual<S> {
    /// The candidate solution.
    pub solution: S,
    /// Raw (un-normalized) objective values.
    pub objectives: Vec<f64>,
}

/// A decomposition population of `N` individuals, one per weight vector,
/// with the shared reference point `z` and an online objective normalizer.
///
/// Scalarization happens on *normalized* objectives so that weights remain
/// meaningful when objectives differ by orders of magnitude (the manycore
/// problem's energies vs. utilizations); `z` is tracked in raw space and
/// normalized on use.
#[derive(Clone, Debug)]
pub struct Population<S> {
    individuals: Vec<Individual<S>>,
    weights: Vec<Vec<f64>>,
    neighborhoods: Vec<Vec<usize>>,
    z: ReferencePoint,
    normalizer: Normalizer,
}

impl<S: Clone> Population<S> {
    /// Builds the population from already-evaluated individuals; `z` and
    /// the normalizer start from the non-quarantined ones.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Population::from_parts`].
    pub fn new(individuals: Vec<Individual<S>>, m: usize, t: usize) -> Self {
        let mut z = ReferencePoint::new(m);
        let mut normalizer = Normalizer::new(m);
        for ind in individuals.iter().filter(|i| !is_quarantined(&i.objectives)) {
            z.update(&ind.objectives);
            normalizer.observe(&ind.objectives);
        }
        Self::from_parts(individuals, m, t, z, normalizer)
    }

    /// Rebuilds a population from checkpointed parts. Weights and
    /// neighborhoods are deterministic functions of `(N, m, t)` and are
    /// recomputed; `z` and the normalizer are adopted verbatim because the
    /// running values may be wider than the current individuals imply
    /// (they have observed every evaluation so far, including rejected
    /// candidates).
    ///
    /// # Panics
    ///
    /// Panics if `individuals` is empty, objective lengths are
    /// inconsistent, or `t` is out of `1..=N`.
    pub fn from_parts(
        individuals: Vec<Individual<S>>,
        m: usize,
        t: usize,
        z: ReferencePoint,
        normalizer: Normalizer,
    ) -> Self {
        assert!(!individuals.is_empty(), "population must be non-empty");
        assert!(
            individuals.iter().all(|i| i.objectives.len() == m),
            "objective dimensionality mismatch"
        );
        let n = individuals.len();
        let weights = uniform_weights(n, m);
        let nbhd = neighborhoods(&weights, t.clamp(1, n));
        Self { individuals, weights, neighborhoods: nbhd, z, normalizer }
    }

    /// Draws `n` random designs sequentially from `rng`, evaluates them as
    /// one batch through `ctx`, and records the generation-0 trace point.
    /// Every slot needs an objective vector, so dropped candidates are
    /// materialized as penalty vectors; selection retires them, and they
    /// never reach the front, `z` or either normalizer.
    pub fn random<P>(
        problem: &P,
        ctx: &mut RunCtx,
        n: usize,
        t: usize,
        rng: &mut dyn RngCore,
    ) -> Self
    where
        P: Problem<Solution = S> + Sync,
        S: Sync,
    {
        let m = problem.objective_count();
        let solutions: Vec<S> = (0..n).map(|_| problem.random_solution(rng)).collect();
        let objectives = ctx.evaluate(problem, &solutions).materialized(m);
        let individuals: Vec<Individual<S>> = solutions
            .into_iter()
            .zip(objectives)
            .map(|(solution, objectives)| {
                ctx.recorder.observe(&objectives);
                Individual { solution, objectives }
            })
            .collect();
        let population = Self::new(individuals, m, t);
        ctx.record(0, &population.objective_vectors());
        population
    }

    /// Restores the `population`, `z` and `normalizer` keys written by
    /// [`Population::snapshot`], refusing a member count other than `n`
    /// and any vector not `m` wide.
    pub fn restore<C: SolutionCodec<S>>(
        state: &Value,
        codec: &C,
        n: usize,
        m: usize,
        t: usize,
    ) -> Result<Self, PersistError> {
        let individuals: Vec<Individual<S>> =
            entries_from_value(state.field("population")?, codec)?
                .into_iter()
                .map(|(solution, objectives)| Individual { solution, objectives })
                .collect();
        if individuals.len() != n {
            return Err(PersistError::schema(format!(
                "checkpointed population has {} members, the configuration {n}",
                individuals.len()
            )));
        }
        if individuals.iter().any(|i| i.objectives.len() != m) {
            return Err(PersistError::schema("checkpointed objective dimensionality mismatch"));
        }
        let z = ReferencePoint::restore(state.field("z")?)?;
        let normalizer = Normalizer::restore(state.field("normalizer")?)?;
        if z.len() != m || normalizer.len() != m {
            return Err(PersistError::schema(
                "checkpointed reference/normalizer dimension mismatch",
            ));
        }
        Ok(Self::from_parts(individuals, m, t, z, normalizer))
    }

    /// The `population`, `z` and `normalizer` checkpoint keys, in that
    /// order; `population` is laid out as
    /// [`entries_to_value`](crate::snapshot::entries_to_value) writes it.
    pub fn snapshot<C: SolutionCodec<S>>(&self, codec: &C) -> Vec<(&'static str, Value)> {
        let entries =
            self.individuals.iter().map(|i| entry_to_value(&i.solution, &i.objectives, codec));
        vec![
            ("population", Value::Array(entries.collect())),
            ("z", self.z.snapshot()),
            ("normalizer", self.normalizer.snapshot()),
        ]
    }

    /// Number of individuals (= sub-problems).
    pub fn len(&self) -> usize {
        self.individuals.len()
    }

    /// `true` if the population is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.individuals.is_empty()
    }

    /// The individual at slot `i`.
    pub fn individual(&self, i: usize) -> &Individual<S> {
        &self.individuals[i]
    }

    /// All individuals.
    pub fn individuals(&self) -> &[Individual<S>] {
        &self.individuals
    }

    /// The weight vector of slot `i`.
    pub fn weight(&self, i: usize) -> &[f64] {
        &self.weights[i]
    }

    /// The neighborhood (indices of the `T` closest sub-problems) of `i`.
    pub fn neighborhood(&self, i: usize) -> &[usize] {
        &self.neighborhoods[i]
    }

    /// The raw reference point `z`.
    pub fn reference(&self) -> &ReferencePoint {
        &self.z
    }

    /// The online normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Registers a newly evaluated objective vector: lowers `z` and widens
    /// the normalizer. Quarantined vectors (non-finite or fault penalties)
    /// are ignored — one would permanently blow out the normalizer's range
    /// and distort every later scalarization.
    pub fn observe(&mut self, objectives: &[f64]) {
        if is_quarantined(objectives) {
            return;
        }
        self.z.update(objectives);
        self.normalizer.observe(objectives);
    }

    /// The scalarized value `g(objectives | w_i, z)` on normalized
    /// objectives.
    pub fn scalarized(&self, scalarizer: Scalarizer, objectives: &[f64], i: usize) -> f64 {
        let obj_n = self.normalizer.normalize(objectives);
        let z_n = self.normalizer.normalize(self.z.values());
        scalarizer.value(&obj_n, &self.weights[i], &z_n)
    }

    /// Eq. (10): offers `candidate` to the sub-problems in `scope`,
    /// replacing any whose current member scalarizes worse — up to
    /// [`MAX_REPLACEMENTS`] slots. Returns how many slots were replaced.
    pub fn update(
        &mut self,
        scalarizer: Scalarizer,
        candidate: &S,
        objectives: &[f64],
        scope: &[usize],
    ) -> usize {
        self.observe(objectives);
        let mut replaced = 0;
        for &j in scope {
            if replaced >= MAX_REPLACEMENTS {
                break;
            }
            let current = self.scalarized(scalarizer, &self.individuals[j].objectives, j);
            let incoming = self.scalarized(scalarizer, objectives, j);
            if incoming < current {
                self.individuals[j] =
                    Individual { solution: candidate.clone(), objectives: objectives.to_vec() };
                replaced += 1;
            }
        }
        replaced
    }

    /// All raw objective vectors, slot-ordered.
    pub fn objective_vectors(&self) -> Vec<Vec<f64>> {
        self.individuals.iter().map(|i| i.objectives.clone()).collect()
    }

    /// The members as `(solution, objectives)` pairs, slot-ordered.
    pub fn into_entries(self) -> Vec<(S, Vec<f64>)> {
        self.individuals.into_iter().map(|i| (i.solution, i.objectives)).collect()
    }

    /// One variation-and-update pass over the slots in `order`. Every
    /// child is bred first, from the population as it stood at the start
    /// of the pass: with probability [`DELTA`] its parents come from the
    /// slot's neighborhood, otherwise from the whole population. The
    /// children are evaluated as one batch through `ctx`, then each
    /// surviving child is offered to its parent pool through
    /// [`Population::update`], in `order`. Returns `false` when a latched
    /// fault stopped the pass before the update.
    pub fn evolve<P>(
        &mut self,
        problem: &P,
        ctx: &mut RunCtx,
        order: &[usize],
        rng: &mut dyn RngCore,
    ) -> bool
    where
        P: Problem<Solution = S> + Sync,
        S: Sync,
    {
        let mate_span = ctx.obs.span("mate");
        let whole: Vec<usize> = (0..self.len()).collect();
        let mut children: Vec<S> = Vec::with_capacity(order.len());
        let mut pools: Vec<Vec<usize>> = Vec::with_capacity(order.len());
        for &i in order {
            let pool = if rng.gen_bool(DELTA) { &self.neighborhoods[i] } else { &whole };
            let pa = pool[rng.gen_range(0..pool.len())];
            let child = if pool.len() < 2 {
                // A one-element pool cannot supply a distinct second
                // parent; mutate instead of crossing a design with itself.
                problem.neighbor(&self.individuals[pa].solution, rng)
            } else {
                let mut pb = pool[rng.gen_range(0..pool.len())];
                if pb == pa {
                    pb = pool[(pool.iter().position(|&x| x == pa).expect("pa in pool") + 1)
                        % pool.len()];
                }
                let (a, b) = (&self.individuals[pa].solution, &self.individuals[pb].solution);
                problem.crossover(a, b, rng)
            };
            children.push(child);
            pools.push(pool.clone());
        }
        drop(mate_span);

        let batch = ctx.evaluate(problem, &children);
        if ctx.poisoned() {
            return false;
        }
        let _select = ctx.obs.span("select");
        let mut improvements = 0u64;
        for ((child, objectives), pool) in children.iter().zip(&batch.objectives).zip(&pools) {
            // Dropped (Skip) children vanish; quarantined penalties could
            // never replace a real member, so both are passed over.
            let Some(objectives) = objectives else { continue };
            if is_quarantined(objectives) {
                continue;
            }
            ctx.recorder.observe(objectives);
            improvements += self.update(Scalarizer::Tchebycheff, child, objectives, pool) as u64;
        }
        if improvements > 0 {
            ctx.obs.counter(moela_obs::names::EA_IMPROVEMENTS, improvements);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> Population<&'static str> {
        Population::new(
            vec![
                Individual { solution: "a", objectives: vec![0.0, 10.0] },
                Individual { solution: "b", objectives: vec![5.0, 5.0] },
                Individual { solution: "c", objectives: vec![10.0, 0.0] },
            ],
            2,
            2,
        )
    }

    #[test]
    fn reference_point_is_componentwise_minimum() {
        let p = population();
        assert_eq!(p.reference().values(), &[0.0, 0.0]);
    }

    #[test]
    fn neighborhoods_have_the_requested_size() {
        let p = population();
        for i in 0..p.len() {
            assert_eq!(p.neighborhood(i).len(), 2);
            assert_eq!(p.neighborhood(i)[0], i);
        }
    }

    #[test]
    fn update_replaces_dominated_slots() {
        let mut p = population();
        // A solution strictly better than slot 1's member for its weight.
        let replaced = p.update(Scalarizer::Tchebycheff, &"z", &[1.0, 1.0], &[0, 1, 2]);
        assert!(replaced >= 1, "an excellent point must replace something");
        assert!(p.individuals().iter().any(|i| i.solution == "z"));
    }

    #[test]
    fn update_respects_the_replacement_cap() {
        let mut p = population();
        let replaced = p.update(Scalarizer::Tchebycheff, &"z", &[0.0, 0.0], &[0, 1, 2]);
        assert_eq!(replaced, MAX_REPLACEMENTS);
        let survivors = p.individuals().iter().filter(|i| i.solution != "z").count();
        assert_eq!(survivors, p.len() - MAX_REPLACEMENTS);
    }

    #[test]
    fn worse_candidates_replace_nothing() {
        let mut p = population();
        let replaced = p.update(Scalarizer::Tchebycheff, &"bad", &[20.0, 20.0], &[0, 1, 2]);
        assert_eq!(replaced, 0);
        assert!(p.individuals().iter().all(|i| i.solution != "bad"));
    }

    #[test]
    fn observe_extends_z_and_the_normalizer() {
        let mut p = population();
        p.observe(&[-1.0, 50.0]);
        assert_eq!(p.reference().values(), &[-1.0, 0.0]);
        let n = p.normalizer().normalize(&[-1.0, 50.0]);
        assert_eq!(n, vec![0.0, 1.0]);
    }

    #[test]
    fn quarantined_observations_leave_scale_and_reference_untouched() {
        let mut p = population();
        let z_before = p.reference().values().to_vec();
        let max_before = p.normalizer().max().to_vec();
        p.observe(&[f64::NAN, 1.0]);
        p.observe(&[1.0, f64::INFINITY]);
        p.observe(&crate::fault::penalty_objectives(2));
        assert_eq!(p.reference().values(), z_before.as_slice());
        assert_eq!(p.normalizer().max(), max_before.as_slice());
        // A penalty candidate scalarizes to the worst corner and can never
        // replace a real member.
        let replaced = p.update(
            Scalarizer::Tchebycheff,
            &"penalty",
            &crate::fault::penalty_objectives(2),
            &[0, 1, 2],
        );
        assert_eq!(replaced, 0);
    }

    #[test]
    fn quarantined_individuals_do_not_seed_the_normalizer() {
        let p = Population::new(
            vec![
                Individual { solution: "a", objectives: vec![0.0, 10.0] },
                Individual { solution: "bad", objectives: crate::fault::penalty_objectives(2) },
                Individual { solution: "c", objectives: vec![10.0, 0.0] },
            ],
            2,
            2,
        );
        assert_eq!(p.reference().values(), &[0.0, 0.0]);
        assert_eq!(p.normalizer().max(), &[10.0, 10.0]);
    }

    #[test]
    fn scalarized_is_zero_at_the_reference_point() {
        let p = population();
        let g = p.scalarized(Scalarizer::Tchebycheff, &[0.0, 0.0], 1);
        assert_eq!(g, 0.0);
    }
}
