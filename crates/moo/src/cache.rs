//! Design-keyed memoization of objective evaluations.
//!
//! Optimizers revisit solutions constantly — crossover clones, MOEA/D
//! neighborhood repeats, local searches oscillating between states. A
//! [`CachedProblem`] wraps any [`Problem`] whose
//! [`cache_key`](Problem::cache_key) is `Some`, memoizing whole objective
//! vectors in a bounded, thread-safe [`EvalCache`] shared across batch
//! workers.
//!
//! Determinism contract: keys are *exact canonical bytes* of the
//! solution (never hashes), so a hit returns precisely the vector an
//! uncached evaluation would produce — cached and uncached runs are
//! byte-identical at any thread count. Results are only admitted when
//! they have the declared arity and every component is finite, so
//! faulted or corrupted evaluations are never served from the cache; and
//! [`crate::chaos::ChaosProblem`] keeps the default (no key), so under
//! chaos injection the cache must sit *below* the injector
//! (`Chaos(Cached(inner))`), where it only ever sees clean results.
//!
//! No workspace code memoizes any more (no workspace problem returns a
//! key); the module stays only because dse-bench's traced `Probe`
//! compiles against it, and goes with that probe in a later benchmark
//! change.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::RngCore;

use crate::problem::Problem;

/// Default number of memoized objective vectors.
///
/// No workspace code calls this; it goes with dse-bench's `Probe` in a
/// later benchmark change.
pub const DEFAULT_EVAL_CACHE_CAPACITY: usize = 4096;

/// Hit/miss/eviction counters of an [`EvalCache`].
///
/// No workspace code calls this; it goes with dse-bench's `Probe` in a
/// later benchmark change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Evaluations served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real evaluation.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

#[derive(Debug)]
struct Slot {
    objectives: Vec<f64>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct MemoState {
    map: HashMap<Vec<u8>, Slot>,
    tick: u64,
}

/// A bounded, thread-safe LRU map from solution keys to objective
/// vectors. Shared (via `Arc`) between every clone of a
/// [`CachedProblem`] and across evaluation worker threads.
///
/// No workspace code calls this; it goes with dse-bench's `Probe` in a
/// later benchmark change.
#[derive(Debug)]
pub struct EvalCache {
    capacity: usize,
    state: Mutex<MemoState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EvalCache {
    /// An empty cache bounded to `capacity` entries (0 disables storage:
    /// every lookup misses and nothing is retained).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(MemoState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The memoized objectives for `key`, refreshing its LRU position.
    pub fn get(&self, key: &[u8]) -> Option<Vec<f64>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut state = self.state.lock().expect("eval cache poisoned");
        state.tick += 1;
        let tick = state.tick;
        match state.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.objectives.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes `objectives` under `key`, evicting the least recently
    /// used entry when full. Callers must only insert clean results (see
    /// [`CachedProblem`]); the cache itself does not re-validate.
    pub fn insert(&self, key: Vec<u8>, objectives: Vec<f64>) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().expect("eval cache poisoned");
        state.tick += 1;
        let tick = state.tick;
        if !state.map.contains_key(&key) && state.map.len() >= self.capacity {
            if let Some(victim) =
                state.map.iter().min_by_key(|(_, slot)| slot.last_used).map(|(k, _)| k.clone())
            {
                state.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        state.map.insert(key, Slot { objectives, last_used: tick });
    }
}

/// Wraps a [`Problem`], memoizing [`evaluate`](Problem::evaluate) results
/// in a shared [`EvalCache`]. Transparent for problems without a
/// [`cache_key`](Problem::cache_key); bit-transparent for those with one.
///
/// No workspace code calls this; it goes with dse-bench's `Probe` in a
/// later benchmark change.
#[derive(Clone, Debug)]
pub struct CachedProblem<P> {
    inner: P,
    cache: Arc<EvalCache>,
}

impl<P> CachedProblem<P> {
    /// Memoizes `inner` into `cache`.
    pub fn new(inner: P, cache: Arc<EvalCache>) -> Self {
        Self { inner, cache }
    }

    /// The shared cache (for counters).
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// Borrows the wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Problem> CachedProblem<P> {
    /// Only arity-correct, all-finite vectors are worth memoizing; anything
    /// else (a contained fault, a penalty) must be recomputed every time.
    fn admit(&self, key: Vec<u8>, objectives: &[f64]) {
        if objectives.len() == self.inner.objective_count()
            && objectives.iter().all(|v| v.is_finite())
        {
            self.cache.insert(key, objectives.to_vec());
        }
    }
}

impl<P: Problem> Problem for CachedProblem<P> {
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
        match self.inner.cache_key(s) {
            None => self.inner.evaluate(s),
            Some(key) => {
                if let Some(hit) = self.cache.get(&key) {
                    return hit;
                }
                let objectives = self.inner.evaluate(s);
                self.admit(key, &objectives);
                objectives
            }
        }
    }

    fn evaluate_ordinal(&self, s: &Self::Solution, ordinal: u64) -> Vec<f64> {
        match self.inner.cache_key(s) {
            None => self.inner.evaluate_ordinal(s, ordinal),
            Some(key) => {
                if let Some(hit) = self.cache.get(&key) {
                    return hit;
                }
                let objectives = self.inner.evaluate_ordinal(s, ordinal);
                self.admit(key, &objectives);
                objectives
            }
        }
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

    /// ZDT1 on four variables, counting its evaluations in a count its
    /// clones share.
    #[derive(Clone, Debug, Default)]
    struct Counting(Arc<AtomicU64>);

    impl Counting {
        fn count(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    impl Problem for Counting {
        type Solution = Vec<f64>;

        fn objective_count(&self) -> usize {
            2
        }
        fn random_solution(&self, rng: &mut dyn RngCore) -> Vec<f64> {
            Zdt::zdt1(4).random_solution(rng)
        }
        fn neighbor(&self, s: &Vec<f64>, rng: &mut dyn RngCore) -> Vec<f64> {
            Zdt::zdt1(4).neighbor(s, rng)
        }
        fn crossover(&self, a: &Vec<f64>, b: &Vec<f64>, rng: &mut dyn RngCore) -> Vec<f64> {
            Zdt::zdt1(4).crossover(a, b, rng)
        }
        fn evaluate(&self, s: &Vec<f64>) -> Vec<f64> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Zdt::zdt1(4).evaluate(s)
        }
        fn features(&self, s: &Vec<f64>) -> Vec<f64> {
            Zdt::zdt1(4).features(s)
        }
        fn feature_len(&self) -> usize {
            Zdt::zdt1(4).feature_len()
        }
    }

    /// A problem wrapper with an exact-bytes cache key, so caching
    /// activates.
    #[derive(Clone, Debug)]
    struct Keyed<P>(P);

    impl<P: Problem<Solution = Vec<f64>>> Problem for Keyed<P> {
        type Solution = Vec<f64>;

        fn objective_count(&self) -> usize {
            self.0.objective_count()
        }
        fn random_solution(&self, rng: &mut dyn RngCore) -> Vec<f64> {
            self.0.random_solution(rng)
        }
        fn neighbor(&self, s: &Vec<f64>, rng: &mut dyn RngCore) -> Vec<f64> {
            self.0.neighbor(s, rng)
        }
        fn crossover(&self, a: &Vec<f64>, b: &Vec<f64>, rng: &mut dyn RngCore) -> Vec<f64> {
            self.0.crossover(a, b, rng)
        }
        fn evaluate(&self, s: &Vec<f64>) -> Vec<f64> {
            self.0.evaluate(s)
        }
        fn cache_key(&self, s: &Vec<f64>) -> Option<Vec<u8>> {
            Some(s.iter().flat_map(|v| v.to_le_bytes()).collect())
        }
        fn features(&self, s: &Vec<f64>) -> Vec<f64> {
            self.0.features(s)
        }
        fn feature_len(&self) -> usize {
            self.0.feature_len()
        }
    }

    fn solutions(n: usize) -> Vec<Vec<f64>> {
        let keyed = Keyed(Zdt::zdt1(4));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        (0..n).map(|_| keyed.random_solution(&mut rng)).collect()
    }

    #[test]
    fn hits_skip_the_inner_evaluation_and_return_identical_objectives() {
        let counter = Counting::default();
        let p = CachedProblem::new(Keyed(counter.clone()), Arc::new(EvalCache::new(16)));
        let xs = solutions(3);
        let first: Vec<_> = xs.iter().map(|x| p.evaluate(x)).collect();
        assert_eq!(counter.count(), 3);
        let second: Vec<_> = xs.iter().map(|x| p.evaluate(x)).collect();
        assert_eq!(counter.count(), 3, "hits must not re-evaluate");
        assert_eq!(first, second, "cached results are bit-identical");
        assert_eq!(p.cache().stats(), CacheStats { hits: 3, misses: 3, evictions: 0 });
    }

    #[test]
    fn a_design_reevaluated_after_eviction_returns_identical_objectives() {
        let p = CachedProblem::new(Keyed(Zdt::zdt1(4)), Arc::new(EvalCache::new(2)));
        let xs = solutions(3);
        let before = p.evaluate(&xs[0]);
        p.evaluate(&xs[1]);
        p.evaluate(&xs[2]); // capacity 2: evicts xs[0] (LRU)
        let stats = p.cache().stats();
        assert!(stats.evictions > 0, "the third insert must evict");
        let after = p.evaluate(&xs[0]);
        assert_eq!(before, after, "post-eviction re-evaluation is bit-identical");
    }

    #[test]
    fn problems_without_a_key_pass_through_untouched() {
        let counter = Counting::default();
        let p = CachedProblem::new(counter.clone(), Arc::new(EvalCache::new(16)));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = p.random_solution(&mut rng);
        p.evaluate(&x);
        p.evaluate(&x);
        assert_eq!(counter.count(), 2, "no key, no memoization");
        assert_eq!(p.cache().stats(), CacheStats::default());
    }

    #[test]
    fn non_finite_results_are_never_cached() {
        #[derive(Clone, Debug)]
        struct Poison;
        impl Problem for Poison {
            type Solution = u8;
            fn objective_count(&self) -> usize {
                2
            }
            fn random_solution(&self, _rng: &mut dyn RngCore) -> u8 {
                0
            }
            fn neighbor(&self, s: &u8, _rng: &mut dyn RngCore) -> u8 {
                *s
            }
            fn crossover(&self, a: &u8, _b: &u8, _rng: &mut dyn RngCore) -> u8 {
                *a
            }
            fn evaluate(&self, _s: &u8) -> Vec<f64> {
                vec![f64::NAN, 1.0]
            }
            fn cache_key(&self, s: &u8) -> Option<Vec<u8>> {
                Some(vec![*s])
            }
            fn features(&self, _s: &u8) -> Vec<f64> {
                vec![]
            }
            fn feature_len(&self) -> usize {
                0
            }
        }
        let p = CachedProblem::new(Poison, Arc::new(EvalCache::new(16)));
        p.evaluate(&0);
        p.evaluate(&0);
        let stats = p.cache().stats();
        assert_eq!(stats.hits, 0, "NaN results must not be served from cache");
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn capacity_zero_disables_storage() {
        let p = CachedProblem::new(Keyed(Zdt::zdt1(4)), Arc::new(EvalCache::new(0)));
        let xs = solutions(1);
        assert_eq!(p.evaluate(&xs[0]), p.evaluate(&xs[0]));
        let stats = p.cache().stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn the_cache_is_shared_between_clones() {
        let counter = Counting::default();
        let p = CachedProblem::new(Keyed(counter.clone()), Arc::new(EvalCache::new(16)));
        let q = p.clone();
        let xs = solutions(1);
        p.evaluate(&xs[0]);
        q.evaluate(&xs[0]);
        assert_eq!(counter.count(), 1, "the clone hits the shared cache");
    }
}
