//! Shared helpers for the archive-based baseline optimizers.

use rand::RngCore;

use moela_moo::fault::is_quarantined;
use moela_moo::normalize::Normalizer;
use moela_moo::scalarize::Scalarizer;
use moela_moo::{GuardedEvaluator, Problem};

pub use moela_moo::run::normalized_phv;

/// A weighted-sum greedy descent (no learning), shared by the plain
/// local-search baseline and MOOS's direction-following step. Returns the
/// accepted states (start excluded) with their objectives, and the number
/// of evaluations spent (counting retried attempts).
///
/// Each step samples its neighbors sequentially from `rng`, then
/// evaluates them as one batch through `evaluator` — results are
/// independent of the evaluator's worker count. Contained faults never
/// abort the descent: quarantined neighbors are simply never accepted,
/// and a latched `Fail`-policy fault stops the descent at that step.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn weighted_descent<P>(
    problem: &P,
    start: &P::Solution,
    start_objectives: &[f64],
    weight: &[f64],
    z_raw: &[f64],
    normalizer: &Normalizer,
    max_steps: usize,
    neighbors_per_step: usize,
    evaluator: &mut GuardedEvaluator,
    rng: &mut dyn RngCore,
) -> (Vec<(P::Solution, Vec<f64>)>, u64)
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    let g = |objs: &[f64]| {
        Scalarizer::WeightedSum.value(
            &normalizer.normalize(objs),
            weight,
            &normalizer.normalize(z_raw),
        )
    };
    // Tolerate a few non-improving batches before declaring a local
    // optimum — one unlucky neighbor sample should not end the descent.
    const PATIENCE: usize = 3;
    let mut current = start.clone();
    let mut current_g = g(start_objectives);
    let mut accepted = Vec::new();
    let mut evaluations = 0u64;
    let mut stalls = 0usize;
    for _ in 0..max_steps {
        let candidates: Vec<P::Solution> =
            (0..neighbors_per_step).map(|_| problem.neighbor(&current, rng)).collect();
        let batch = evaluator.evaluate(problem, &candidates);
        evaluations += batch.attempts;
        if evaluator.poisoned() {
            break; // a Fail-policy fault latched; stop descending
        }
        let mut best: Option<(P::Solution, Vec<f64>, f64)> = None;
        for (cand, objs) in candidates.into_iter().zip(batch.objectives) {
            let Some(objs) = objs else { continue };
            if is_quarantined(&objs) {
                continue;
            }
            let v = g(&objs);
            // Strict `<` keeps the first minimum on ties, matching the
            // original one-at-a-time loop.
            if best.as_ref().is_none_or(|(_, _, bv)| v < *bv) {
                best = Some((cand, objs, v));
            }
        }
        match best {
            Some((cand, objs, v)) if v < current_g => {
                current = cand.clone();
                current_g = v;
                accepted.push((cand, objs));
                stalls = 0;
            }
            _ => {
                stalls += 1;
                if stalls >= PATIENCE {
                    break;
                }
            }
        }
    }
    (accepted, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_moo::problems::Zdt;
    use rand::SeedableRng;

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

    #[test]
    fn descent_improves_the_weighted_objective() {
        let p = Zdt::zdt1(8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use moela_moo::Problem;
        let start = p.random_solution(&mut rng);
        let objs = p.evaluate(&start);
        let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 10.0]);
        let (accepted, evals) = weighted_descent(
            &p,
            &start,
            &objs,
            &[0.5, 0.5],
            &[0.0, 0.0],
            &n,
            30,
            4,
            &mut GuardedEvaluator::new(1, moela_moo::fault::FaultConfig::default()),
            &mut rng,
        );
        assert!(evals > 0);
        if let Some((_, last)) = accepted.last() {
            let g = |o: &[f64]| 0.5 * o[0] + 0.5 * o[1] / 10.0;
            assert!(g(last) < g(&objs));
        }
    }

    /// Faulted neighbors are contained (counted, never accepted) and the
    /// descent keeps going under a Skip policy.
    #[test]
    fn faulted_neighbors_are_contained_and_never_accepted() {
        use moela_moo::fault::{FaultConfig, FaultPolicy};
        use moela_moo::{ChaosProblem, ChaosSpec, GuardedEvaluator, Problem};
        let plain = Zdt::zdt1(8);
        let chaotic = ChaosProblem::new(
            Zdt::zdt1(8),
            ChaosSpec::parse("panic=0.2,nan=0.2,arity=0.1").unwrap(),
            99,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let start = plain.random_solution(&mut rng);
        let objs = plain.evaluate(&start);
        let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 10.0]);
        let mut guard =
            GuardedEvaluator::new(1, FaultConfig { policy: FaultPolicy::Skip, retries: 1 });
        let (accepted, evals) = weighted_descent(
            &chaotic,
            &start,
            &objs,
            &[0.5, 0.5],
            &[0.0, 0.0],
            &n,
            20,
            4,
            &mut guard,
            &mut rng,
        );
        assert!(guard.log().faults() > 0, "the spec must actually inject");
        assert!(evals > 0);
        assert!(accepted.iter().all(|(_, o)| o.iter().all(|v| v.is_finite())));
    }
}
