//! The [`Problem`] trait: the contract between optimizers and design spaces.

use rand::RngCore;

/// A multi-objective optimization problem over an arbitrary solution space.
///
/// All objectives are **minimized**. Implementors must guarantee that every
/// solution handed to an optimizer — whether produced by
/// [`random_solution`](Problem::random_solution),
/// [`neighbor`](Problem::neighbor), or [`crossover`](Problem::crossover) —
/// is *feasible*: constraint handling is the problem's responsibility (the
/// manycore problem repairs designs; box-constrained continuous problems
/// clamp).
///
/// The trait is object-safe so heterogeneous problem collections can be
/// driven through `&dyn Problem<Solution = S>` if needed; RNG access is via
/// `&mut dyn RngCore` for the same reason.
///
/// # Example
///
/// ```
/// use moela_moo::{problems::Zdt, Problem};
/// use rand::SeedableRng;
///
/// let zdt1 = Zdt::zdt1(10);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = zdt1.random_solution(&mut rng);
/// let f = zdt1.evaluate(&x);
/// assert_eq!(f.len(), 2);
/// ```
pub trait Problem {
    /// The decision-space representation of a candidate design.
    type Solution: Clone;

    /// Number of objectives `M` this problem exposes.
    fn objective_count(&self) -> usize;

    /// Draws a feasible solution uniformly (or as close to uniformly as the
    /// constraint structure allows) at random.
    fn random_solution(&self, rng: &mut dyn RngCore) -> Self::Solution;

    /// Produces a feasible solution one "move" away from `s` — the
    /// neighborhood structure used by all local searches in the workspace.
    fn neighbor(&self, s: &Self::Solution, rng: &mut dyn RngCore) -> Self::Solution;

    /// Recombines two parents into one feasible offspring (the genetic
    /// operator used by the evolutionary algorithms). Implementations
    /// typically follow crossover with a light mutation + repair.
    fn crossover(
        &self,
        a: &Self::Solution,
        b: &Self::Solution,
        rng: &mut dyn RngCore,
    ) -> Self::Solution;

    /// Evaluates all `M` objectives of `s` (minimization).
    ///
    /// This is the *expensive* operation that evaluation budgets count.
    fn evaluate(&self, s: &Self::Solution) -> Vec<f64>;

    /// Evaluates `s` as global evaluation number `ordinal`.
    ///
    /// Ordinals are the addressing scheme of fault injection
    /// ([`crate::chaos::ChaosProblem`]) and fault-contained evaluation
    /// ([`crate::fault::GuardedEvaluator`]): the ordinal is the run's
    /// evaluation count at that attempt, which the guard holds. With
    /// `count` attempts paid for, candidate `i` of a batch is ordinal
    /// `count + i` however the batch is fanned out, so the fault stream
    /// is bit-identical at any thread count and continues from a
    /// checkpoint's evaluation count. Most problems ignore ordinals
    /// entirely — the default delegates to
    /// [`evaluate`](Problem::evaluate).
    fn evaluate_ordinal(&self, s: &Self::Solution, _ordinal: u64) -> Vec<f64> {
        self.evaluate(s)
    }

    /// Evaluates `s`, a one-move [`neighbor`](Problem::neighbor) of
    /// `base`, as evaluation number `ordinal`. The default ignores `base`
    /// and delegates to [`evaluate_ordinal`](Problem::evaluate_ordinal).
    ///
    /// No workspace code calls this; it goes with dse-bench's `Probe` in a
    /// later benchmark change.
    fn evaluate_neighbor_ordinal(
        &self,
        _base: &Self::Solution,
        s: &Self::Solution,
        ordinal: u64,
    ) -> Vec<f64> {
        self.evaluate_ordinal(s, ordinal)
    }

    /// A stable, collision-free memoization key for `s`, or `None` when
    /// this problem's evaluations must not be memoized.
    ///
    /// The contract: two solutions share a key **iff** they are equal as
    /// far as [`evaluate`](Problem::evaluate) is concerned, so a cached
    /// result can be substituted for re-evaluation without changing a
    /// single bit. Implementations should return exact canonical bytes of
    /// the solution, not a hash — a hash collision would silently return
    /// the wrong objectives.
    ///
    /// The default is `None` (no memoization). Wrappers whose results
    /// depend on more than the solution — e.g.
    /// [`crate::chaos::ChaosProblem`], where the outcome depends on the
    /// evaluation ordinal — must also return `None` so nothing caches
    /// *above* them.
    ///
    /// Only [`crate::CachedProblem`] reads this, and no workspace code
    /// calls either; both go with dse-bench's `Probe` in a later benchmark
    /// change.
    fn cache_key(&self, _s: &Self::Solution) -> Option<Vec<u8>> {
        None
    }

    /// A fixed-length numeric descriptor of `s` used as the input features
    /// of learned evaluation functions (e.g. MOELA's random-forest `Eval`).
    ///
    /// Features must be cheap to compute (they must *not* require an
    /// objective evaluation) and must have the same length for every
    /// solution of this problem instance.
    fn features(&self, s: &Self::Solution) -> Vec<f64>;

    /// Length of the vectors returned by [`features`](Problem::features).
    fn feature_len(&self) -> usize;
}

impl<P: Problem + ?Sized> Problem for &P {
    type Solution = P::Solution;

    fn objective_count(&self) -> usize {
        (**self).objective_count()
    }

    fn random_solution(&self, rng: &mut dyn RngCore) -> Self::Solution {
        (**self).random_solution(rng)
    }

    fn neighbor(&self, s: &Self::Solution, rng: &mut dyn RngCore) -> Self::Solution {
        (**self).neighbor(s, rng)
    }

    fn crossover(
        &self,
        a: &Self::Solution,
        b: &Self::Solution,
        rng: &mut dyn RngCore,
    ) -> Self::Solution {
        (**self).crossover(a, b, rng)
    }

    fn evaluate(&self, s: &Self::Solution) -> Vec<f64> {
        (**self).evaluate(s)
    }

    fn evaluate_ordinal(&self, s: &Self::Solution, ordinal: u64) -> Vec<f64> {
        (**self).evaluate_ordinal(s, ordinal)
    }

    fn features(&self, s: &Self::Solution) -> Vec<f64> {
        (**self).features(s)
    }

    fn feature_len(&self) -> usize {
        (**self).feature_len()
    }
}
