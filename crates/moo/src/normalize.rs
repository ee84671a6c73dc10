//! Min–max objective normalization.
//!
//! The five manycore objectives live on wildly different scales (link
//! utilizations vs. femtojoule energies vs. kelvin-squared thermal products),
//! so hypervolume and scalarization are computed on objectives normalized to
//! `[0, 1]` by a [`Normalizer`] fitted either to a fixed corpus (for
//! cross-algorithm comparability) or updated online.

use rand::SeedableRng;

use crate::Problem;

/// Random designs behind a [`Normalizer::from_corpus`] fit.
pub const CORPUS_SIZE: usize = 200;

/// Per-objective min–max normalizer.
///
/// # Example
///
/// ```
/// use moela_moo::normalize::Normalizer;
///
/// let mut n = Normalizer::new(2);
/// n.observe(&[0.0, 10.0]);
/// n.observe(&[4.0, 30.0]);
/// assert_eq!(n.normalize(&[2.0, 20.0]), vec![0.5, 0.5]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Normalizer {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Normalizer {
    /// A normalizer over `m` objectives with an empty observation range.
    pub fn new(m: usize) -> Self {
        Self { min: vec![f64::INFINITY; m], max: vec![f64::NEG_INFINITY; m] }
    }

    /// Builds a normalizer from explicit per-objective bounds.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or any `min > max`.
    pub fn from_bounds(min: Vec<f64>, max: Vec<f64>) -> Self {
        assert_eq!(min.len(), max.len(), "bound dimension mismatch");
        assert!(min.iter().zip(&max).all(|(&lo, &hi)| lo <= hi), "lower bound exceeds upper bound");
        Self { min, max }
    }

    /// Rebuilds a normalizer from previously captured bounds without the
    /// validity checks of [`Normalizer::from_bounds`] — a checkpointed
    /// normalizer may legitimately hold `±∞` bounds (dimensions never
    /// observed), which `from_bounds` rejects.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_parts(min: Vec<f64>, max: Vec<f64>) -> Self {
        assert_eq!(min.len(), max.len(), "bound dimension mismatch");
        Self { min, max }
    }

    /// Fits a normalizer to a corpus of objective vectors.
    pub fn fit(objs: &[Vec<f64>]) -> Self {
        let m = objs.first().map_or(0, Vec::len);
        let mut n = Self::new(m);
        for o in objs {
            n.observe(o);
        }
        n
    }

    /// The PHV scale of one `(problem, seed)` cell: a fit to
    /// [`CORPUS_SIZE`] random solutions drawn from `seed ^ 0xC0FFEE`, so
    /// every optimizer run on the cell scores its front on one scale.
    pub fn from_corpus<P: Problem>(problem: &P, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let objs: Vec<Vec<f64>> = (0..CORPUS_SIZE)
            .map(|_| problem.evaluate(&problem.random_solution(&mut rng)))
            .collect();
        Self::fit(&objs)
    }

    /// Widens the range to include `objectives`.
    ///
    /// Vectors containing NaN or ±Inf are ignored wholesale: a single
    /// non-finite coordinate would permanently blow out the observed
    /// range and corrupt every later normalization.
    pub fn observe(&mut self, objectives: &[f64]) {
        assert_eq!(objectives.len(), self.min.len(), "dimension mismatch");
        if objectives.iter().any(|o| !o.is_finite()) {
            return;
        }
        for ((lo, hi), &o) in self.min.iter_mut().zip(self.max.iter_mut()).zip(objectives) {
            if o < *lo {
                *lo = o;
            }
            if o > *hi {
                *hi = o;
            }
        }
    }

    /// Maps `objectives` into `[0, 1]` per dimension and clamps values that
    /// fall outside the observed range. A degenerate dimension (zero range)
    /// maps to `0.0`.
    pub fn normalize(&self, objectives: &[f64]) -> Vec<f64> {
        assert_eq!(objectives.len(), self.min.len(), "dimension mismatch");
        objectives
            .iter()
            .zip(&self.min)
            .zip(&self.max)
            .map(|((&o, &lo), &hi)| {
                let range = hi - lo;
                if !range.is_finite() || range <= f64::EPSILON {
                    0.0
                } else {
                    ((o - lo) / range).clamp(0.0, 1.0)
                }
            })
            .collect()
    }

    /// Like [`normalize`](Self::normalize) but without clamping: values
    /// better than the observed minimum map below 0, worse than the
    /// maximum above 1. Hypervolume computations use this form so designs
    /// that push past the reference corpus keep earning credit.
    pub fn normalize_unclamped(&self, objectives: &[f64]) -> Vec<f64> {
        assert_eq!(objectives.len(), self.min.len(), "dimension mismatch");
        objectives
            .iter()
            .zip(&self.min)
            .zip(&self.max)
            .map(|((&o, &lo), &hi)| {
                let range = hi - lo;
                if !range.is_finite() || range <= f64::EPSILON {
                    0.0
                } else {
                    (o - lo) / range
                }
            })
            .collect()
    }

    /// Observed minima.
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Observed maxima.
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// Number of objectives this normalizer covers.
    pub fn len(&self) -> usize {
        self.min.len()
    }

    /// `true` if it covers zero objectives.
    pub fn is_empty(&self) -> bool {
        self.min.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_to_unit_interval() {
        let n = Normalizer::fit(&[vec![0.0, 100.0], vec![10.0, 200.0]]);
        assert_eq!(n.normalize(&[0.0, 100.0]), vec![0.0, 0.0]);
        assert_eq!(n.normalize(&[10.0, 200.0]), vec![1.0, 1.0]);
        assert_eq!(n.normalize(&[5.0, 150.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn clamps_out_of_range_values() {
        let n = Normalizer::from_bounds(vec![0.0], vec![1.0]);
        assert_eq!(n.normalize(&[-5.0]), vec![0.0]);
        assert_eq!(n.normalize(&[7.0]), vec![1.0]);
    }

    #[test]
    fn degenerate_dimension_maps_to_zero() {
        let n = Normalizer::fit(&[vec![3.0, 1.0], vec![3.0, 2.0]]);
        let v = n.normalize(&[3.0, 1.5]);
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unobserved_normalizer_is_all_zero() {
        let n = Normalizer::new(2);
        assert_eq!(n.normalize(&[42.0, -42.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn preserves_ordering_within_a_dimension() {
        let mut n = Normalizer::new(1);
        n.observe(&[-2.0]);
        n.observe(&[8.0]);
        let a = n.normalize(&[1.0])[0];
        let b = n.normalize(&[2.0])[0];
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper bound")]
    fn invalid_bounds_panic() {
        Normalizer::from_bounds(vec![1.0], vec![0.0]);
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut n = Normalizer::new(2);
        n.observe(&[0.0, 0.0]);
        n.observe(&[10.0, 10.0]);
        let before = n.clone();
        n.observe(&[f64::NAN, 5.0]);
        n.observe(&[5.0, f64::INFINITY]);
        n.observe(&[f64::NEG_INFINITY, 5.0]);
        assert_eq!(n, before);
        assert_eq!(n.normalize(&[5.0, 5.0]), vec![0.5, 0.5]);
    }
}
