//! Collection strategies (`proptest::collection` subset).

use rand::rngs::StdRng;
use rand::Rng;

use crate::Strategy;

/// A length specification for [`vec()`]: a fixed `usize` or a `Range<usize>`.
pub trait SizeSpec {
    /// Draws a concrete length.
    fn sample_len(&self, rng: &mut StdRng) -> usize;
}

impl SizeSpec for usize {
    fn sample_len(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

impl SizeSpec for core::ops::Range<usize> {
    fn sample_len(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeSpec for core::ops::RangeInclusive<usize> {
    fn sample_len(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// A strategy generating `Vec`s of an element strategy.
#[derive(Clone, Debug)]
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

impl<S: Strategy, L: SizeSpec> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let n = self.len.sample_len(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy for vectors whose elements come from `element` and whose
/// length is drawn from `len` (a `usize` or a range of `usize`).
pub fn vec<S: Strategy, L: SizeSpec>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}
