//! Shared helpers for the archive-based baseline optimizers.

use moela_moo::local_search::LocalSearchBudget;

pub use moela_moo::run::normalized_phv;

/// Non-improving batches a baseline's descent or hill climb tolerates
/// before declaring a local optimum: one unlucky neighbor sample should
/// not end it.
pub const PATIENCE: usize = 3;

/// The descent budget of MOOS and the multi-start baseline: `max_steps`
/// batches of `neighbors_per_step`, stopping after [`PATIENCE`]
/// non-improving batches in a row.
pub fn descent_budget(max_steps: usize, neighbors_per_step: usize) -> LocalSearchBudget {
    LocalSearchBudget {
        max_steps,
        neighbors_per_step,
        stall_evaluations: PATIENCE * neighbors_per_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_moo::normalize::Normalizer;

    #[test]
    fn phv_of_empty_set_is_zero() {
        let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(normalized_phv(&[], &n), 0.0);
    }

    #[test]
    fn phv_grows_when_a_dominating_point_appears() {
        let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        let weak = vec![vec![0.8, 0.8]];
        let strong = vec![vec![0.8, 0.8], vec![0.2, 0.2]];
        assert!(normalized_phv(&strong, &n) > normalized_phv(&weak, &n));
    }
}
