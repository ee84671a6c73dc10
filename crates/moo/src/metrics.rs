//! A secondary solution-set quality metric: IGD.
//!
//! The paper reports PHV (see [`crate::hypervolume`]); IGD serves the
//! validation suite, which checks convergence to known ZDT/DTLZ fronts.

/// Inverted generational distance: mean Euclidean distance from each point
/// of the `reference_front` to its nearest member of `front`. Lower is
/// better; `0` means the reference front is fully covered.
///
/// Returns `f64::INFINITY` if `front` is empty and `0.0` if the reference
/// front is empty.
pub fn igd(front: &[Vec<f64>], reference_front: &[Vec<f64>]) -> f64 {
    if reference_front.is_empty() {
        return 0.0;
    }
    if front.is_empty() {
        return f64::INFINITY;
    }
    let total: f64 = reference_front
        .iter()
        .map(|r| front.iter().map(|p| euclidean(p, r)).fold(f64::INFINITY, f64::min))
        .sum();
    total / reference_front.len() as f64
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_front(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                vec![t, 1.0 - t]
            })
            .collect()
    }

    #[test]
    fn igd_is_zero_when_front_covers_reference() {
        let f = line_front(11);
        assert_eq!(igd(&f, &f), 0.0);
    }

    #[test]
    fn igd_grows_with_distance() {
        let reference = line_front(11);
        let near: Vec<Vec<f64>> =
            reference.iter().map(|p| vec![p[0] + 0.01, p[1] + 0.01]).collect();
        let far: Vec<Vec<f64>> = reference.iter().map(|p| vec![p[0] + 0.5, p[1] + 0.5]).collect();
        assert!(igd(&near, &reference) < igd(&far, &reference));
    }

    #[test]
    fn igd_of_empty_front_is_infinite() {
        assert_eq!(igd(&[], &line_front(3)), f64::INFINITY);
        assert_eq!(igd(&line_front(3), &[]), 0.0);
    }
}
