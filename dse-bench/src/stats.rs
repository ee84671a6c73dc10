//! Sample summaries. With five rounds no percentile above the median has
//! ten samples beyond it, so a metric is reported as its median with the
//! full min..max range and the sample count.

/// Median, range and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let (min, max) = min_max(samples)?;
        Some(Summary { median: median(samples)?, min, max, n: samples.len() })
    }
}

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The smallest and largest sample.
pub fn min_max(samples: &[f64]) -> Option<(f64, f64)> {
    let first = *samples.first()?;
    Some(samples.iter().fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn min_max_and_summary_cover_every_sample() {
        assert_eq!(min_max(&[]), None);
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), Some((-1.0, 5.0)));
        let s = Summary::of(&[2.0, 4.0, 3.0, 10.0, 1.0]).expect("samples");
        assert_eq!(s, Summary { median: 3.0, min: 1.0, max: 10.0, n: 5 });
    }
}
