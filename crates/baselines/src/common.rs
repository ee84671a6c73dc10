//! Shared helpers for the archive-based baseline optimizers.

use moela_moo::local_search::LocalSearchBudget;

pub use moela_moo::run::normalized_phv;

/// Non-improving batches a baseline's descent or hill climb tolerates
/// before declaring a local optimum: one unlucky neighbor sample should
/// not end it.
pub const PATIENCE: usize = 3;

/// The descent budget of MOOS's weighted-sum descent and MOO-STAGE's
/// PHV-greedy hill climb: at most 25 batches of 4 neighbors, stopping
/// after [`PATIENCE`] non-improving batches in a row.
pub(crate) const DESCENT: LocalSearchBudget =
    LocalSearchBudget { max_steps: 25, neighbors_per_step: 4, stall_evaluations: PATIENCE * 4 };

/// Archive capacity of MOOS and MOO-STAGE (crowding-pruned beyond this).
pub(crate) const ARCHIVE_CAP: usize = 40;

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
