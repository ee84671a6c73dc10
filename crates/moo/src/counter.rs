//! Evaluation budget accounting.
//!
//! The paper compares algorithms by the wall-clock time needed to reach a
//! given Pareto hypervolume on a 48-hour server budget. In this reproduction
//! the primary clock is the *number of objective evaluations* — identical
//! work units across algorithms and machines — with wall-clock reported as a
//! secondary column. [`EvalCounter`] is that clock and [`Counted`] is a
//! transparent [`Problem`] adapter that ticks it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::RngCore;

use crate::problem::Problem;

/// A cheap, shareable counter of objective evaluations.
///
/// Cloning shares the underlying count (it is an `Arc`), so the same counter
/// can be handed to an optimizer and observed from the experiment harness.
///
/// # Example
///
/// ```
/// use moela_moo::{Counted, EvalCounter, Problem, problems::Zdt};
/// use rand::SeedableRng;
///
/// let counter = EvalCounter::new();
/// let problem = Counted::new(Zdt::zdt1(5), counter.clone());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let x = problem.random_solution(&mut rng);
/// problem.evaluate(&x);
/// assert_eq!(counter.count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EvalCounter {
    count: Arc<AtomicU64>,
}

impl EvalCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of evaluations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Records `n` additional evaluations.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }
}

/// Wraps a [`Problem`] so every [`evaluate`](Problem::evaluate) call ticks an
/// [`EvalCounter`]. All other methods delegate unchanged.
#[derive(Clone, Debug)]
pub struct Counted<P> {
    inner: P,
    counter: EvalCounter,
}

impl<P> Counted<P> {
    /// Meters `inner` with `counter`.
    pub fn new(inner: P, counter: EvalCounter) -> Self {
        Self { inner, counter }
    }

    /// The shared counter.
    pub fn counter(&self) -> &EvalCounter {
        &self.counter
    }

    /// Returns the wrapped problem, discarding the counter.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Borrows the wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Problem> Problem for Counted<P> {
    type Solution = P::Solution;

    fn objective_count(&self) -> usize {
        self.inner.objective_count()
    }

    fn random_solution(&self, rng: &mut dyn RngCore) -> Self::Solution {
        self.inner.random_solution(rng)
    }

    fn neighbor(&self, s: &Self::Solution, rng: &mut dyn RngCore) -> Self::Solution {
        self.inner.neighbor(s, rng)
    }

    fn crossover(
        &self,
        a: &Self::Solution,
        b: &Self::Solution,
        rng: &mut dyn RngCore,
    ) -> Self::Solution {
        self.inner.crossover(a, b, rng)
    }

    fn evaluate(&self, s: &Self::Solution) -> Vec<f64> {
        self.counter.add(1);
        self.inner.evaluate(s)
    }

    fn evaluate_ordinal(&self, s: &Self::Solution, ordinal: u64) -> Vec<f64> {
        // Tick before evaluating so the count survives a contained panic.
        self.counter.add(1);
        self.inner.evaluate_ordinal(s, ordinal)
    }

    fn features(&self, s: &Self::Solution) -> Vec<f64> {
        self.inner.features(s)
    }

    fn feature_len(&self) -> usize {
        self.inner.feature_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Zdt;
    use rand::SeedableRng;

    #[test]
    fn counter_starts_at_zero_and_accumulates() {
        let c = EvalCounter::new();
        assert_eq!(c.count(), 0);
        c.add(3);
        c.add(2);
        assert_eq!(c.count(), 5);
    }

    #[test]
    fn clones_share_the_count() {
        let a = EvalCounter::new();
        let b = a.clone();
        a.add(7);
        assert_eq!(b.count(), 7);
    }

    #[test]
    fn counted_ticks_only_on_evaluate() {
        let counter = EvalCounter::new();
        let p = Counted::new(Zdt::zdt1(4), counter.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let a = p.random_solution(&mut rng);
        let b = p.neighbor(&a, &mut rng);
        let _c = p.crossover(&a, &b, &mut rng);
        let _ = p.features(&a);
        assert_eq!(counter.count(), 0);
        p.evaluate(&a);
        p.evaluate(&b);
        assert_eq!(counter.count(), 2);
    }

    #[test]
    fn counted_is_transparent() {
        let counter = EvalCounter::new();
        let inner = Zdt::zdt1(4);
        let p = Counted::new(inner.clone(), counter);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = p.random_solution(&mut rng);
        assert_eq!(p.evaluate(&x), inner.evaluate(&x));
        assert_eq!(p.objective_count(), inner.objective_count());
        assert_eq!(p.feature_len(), inner.feature_len());
    }
}
