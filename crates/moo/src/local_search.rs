//! The greedy weighted-sum descent of eq. (8), shared by MOELA's local
//! search (Algorithm 1, line 5), MOOS's direction-following episodes and
//! the multi-start baseline.
//!
//! From a starting design, repeatedly sample a handful of neighbors and
//! move to the best one as long as it improves the weighted-sum distance to
//! the reference point, `g(Obj | w, z) = Σᵢ wᵢ·|Objᵢ − zᵢ|`. The search
//! returns the best design found and every accepted state on the way;
//! MOELA turns that path into its trajectory features.

use rand::RngCore;

use crate::checkpoint::RunCtx;
use crate::fault::is_quarantined;
use crate::normalize::Normalizer;
use crate::scalarize::Scalarizer;
use crate::Problem;

/// Budget knobs of one greedy descent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalSearchBudget {
    /// Maximum accepted moves.
    pub max_steps: usize,
    /// Neighbors sampled (and evaluated) per step; `1` gives classic
    /// first-improvement descent.
    pub neighbors_per_step: usize,
    /// Consecutive non-improving *evaluations* tolerated before the
    /// search declares a local optimum.
    pub stall_evaluations: usize,
}

/// The result of one local search.
#[derive(Clone, Debug)]
pub struct LocalSearchOutcome<S> {
    /// The best design reached.
    pub best: S,
    /// Its raw objective vector.
    pub best_objectives: Vec<f64>,
    /// The final value of eq. (8) at termination (normalized objectives).
    pub final_value: f64,
    /// Every accepted state with its objectives, in visit order (start
    /// excluded, best included). These are already-paid-for evaluations.
    pub accepted: Vec<(S, Vec<f64>)>,
}

/// Runs a greedy descent of eq. (8) from `start`.
///
/// `normalizer`/`z` define the normalized objective space the weighted sum
/// is computed in (see [`crate::decomposition::Population`]). The descent
/// stops after `max_steps` batches, or once `stall_evaluations` sampled
/// neighbors in a row failed to improve.
///
/// Each step samples its `neighbors_per_step` candidates sequentially from
/// `rng`, then evaluates the whole batch through [`RunCtx::evaluate`] — so
/// results are independent of the worker count, and every attempt,
/// retries included, is counted on `ctx`.
///
/// Evaluation faults are contained by the context's guard: dropped or
/// quarantined neighbors simply never become the step's best move, and a
/// latched [`FaultPolicy::Fail`](crate::fault::FaultPolicy::Fail)
/// error ends the descent early (the caller checks
/// [`RunCtx::poisoned`]). It checks neither the evaluation cap nor the
/// clock: the caller decides whether a descent may start.
#[allow(clippy::too_many_arguments)]
pub fn greedy_descent<P>(
    problem: &P,
    start: &P::Solution,
    start_objectives: &[f64],
    weight: &[f64],
    z_raw: &[f64],
    normalizer: &Normalizer,
    budget: LocalSearchBudget,
    ctx: &mut RunCtx,
    rng: &mut dyn RngCore,
) -> LocalSearchOutcome<P::Solution>
where
    P: Problem + Sync,
    P::Solution: Sync,
{
    let g = |objectives: &[f64]| -> f64 {
        Scalarizer::WeightedSum.value(
            &normalizer.normalize(objectives),
            weight,
            &normalizer.normalize(z_raw),
        )
    };
    let mut current = start.clone();
    let mut current_objs = start_objectives.to_vec();
    let mut current_g = g(&current_objs);
    let mut accepted: Vec<(P::Solution, Vec<f64>)> = Vec::new();
    let mut stalls = 0usize;

    for _ in 0..budget.max_steps {
        let candidates: Vec<P::Solution> =
            (0..budget.neighbors_per_step).map(|_| problem.neighbor(&current, rng)).collect();
        let batch = ctx.evaluate(problem, &candidates);
        if ctx.poisoned() {
            break; // a Fail-policy fault latched; stop descending
        }
        let mut best_neighbor: Option<(P::Solution, Vec<f64>, f64)> = None;
        for (candidate, objs) in candidates.into_iter().zip(batch.objectives) {
            // Skipped (dropped) and quarantined neighbors never compete.
            let Some(objs) = objs else { continue };
            if is_quarantined(&objs) {
                continue;
            }
            let value = g(&objs);
            // Strict `<` keeps the first minimum on ties, matching the
            // original one-at-a-time loop.
            if best_neighbor.as_ref().is_none_or(|(_, _, bg)| value < *bg) {
                best_neighbor = Some((candidate, objs, value));
            }
        }
        match best_neighbor {
            Some((candidate, objs, value)) if value < current_g => {
                current = candidate;
                current_objs = objs;
                current_g = value;
                accepted.push((current.clone(), current_objs.clone()));
                stalls = 0;
            }
            _ => {
                stalls += budget.neighbors_per_step;
                if stalls >= budget.stall_evaluations {
                    break; // local optimum under this sampling budget
                }
            }
        }
    }

    LocalSearchOutcome {
        best: current,
        best_objectives: current_objs,
        final_value: current_g,
        accepted,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPolicy};
    use crate::problems::Zdt;
    use rand::SeedableRng;

    fn ctx(threads: usize, fault: FaultConfig) -> RunCtx {
        RunCtx::new(threads, fault, None, 2, None, None)
    }

    fn run() -> RunCtx {
        ctx(1, FaultConfig::default())
    }

    fn setup() -> (Zdt, Vec<f64>, Normalizer, rand::rngs::StdRng) {
        let p = Zdt::zdt1(8);
        let z = vec![0.0, 0.0];
        let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 10.0]);
        (p, z, n, rand::rngs::StdRng::seed_from_u64(3))
    }

    #[test]
    fn descent_never_worsens_the_scalarized_value() {
        let (p, z, n, mut rng) = setup();
        let start = p.random_solution(&mut rng);
        let objs = p.evaluate(&start);
        let budget =
            LocalSearchBudget { max_steps: 20, neighbors_per_step: 4, stall_evaluations: 12 };
        let out =
            greedy_descent(&p, &start, &objs, &[0.5, 0.5], &z, &n, budget, &mut run(), &mut rng);
        let g0 = Scalarizer::WeightedSum.value(&n.normalize(&objs), &[0.5, 0.5], &n.normalize(&z));
        assert!(out.final_value <= g0);
    }

    #[test]
    fn descent_substantially_improves_random_starts() {
        let (p, z, n, mut rng) = setup();
        let mut improved = 0;
        for _ in 0..10 {
            let start = p.random_solution(&mut rng);
            let objs = p.evaluate(&start);
            let budget =
                LocalSearchBudget { max_steps: 40, neighbors_per_step: 6, stall_evaluations: 18 };
            let out = greedy_descent(
                &p,
                &start,
                &objs,
                &[0.5, 0.5],
                &z,
                &n,
                budget,
                &mut run(),
                &mut rng,
            );
            let g0 =
                Scalarizer::WeightedSum.value(&n.normalize(&objs), &[0.5, 0.5], &n.normalize(&z));
            if out.final_value < g0 * 0.95 {
                improved += 1;
            }
        }
        assert!(improved >= 8, "greedy descent stalled on {}/10 starts", 10 - improved);
    }

    #[test]
    fn accepted_states_end_at_the_best_and_fit_the_step_budget() {
        let (p, z, n, mut rng) = setup();
        let start = p.random_solution(&mut rng);
        let objs = p.evaluate(&start);
        let budget =
            LocalSearchBudget { max_steps: 15, neighbors_per_step: 4, stall_evaluations: 12 };
        let out =
            greedy_descent(&p, &start, &objs, &[1.0, 0.0], &z, &n, budget, &mut run(), &mut rng);
        assert!(!out.accepted.is_empty());
        assert!(out.accepted.len() <= budget.max_steps);
        let (last, last_objs) = out.accepted.last().expect("non-empty");
        assert_eq!((last, last_objs), (&out.best, &out.best_objectives));
    }

    #[test]
    fn evaluation_count_matches_sampled_neighbors() {
        let (p, z, n, mut rng) = setup();
        let start = p.random_solution(&mut rng);
        let objs = p.evaluate(&start);
        let budget =
            LocalSearchBudget { max_steps: 10, neighbors_per_step: 3, stall_evaluations: 9 };
        let mut run = run();
        greedy_descent(&p, &start, &objs, &[0.5, 0.5], &z, &n, budget, &mut run, &mut rng);
        assert_eq!(run.evaluations % 3, 0, "whole steps only");
        assert!(run.evaluations <= 30);
        assert!(run.evaluations >= 3, "at least one step is attempted");
    }

    #[test]
    fn descent_is_bit_identical_across_evaluator_thread_counts() {
        let (p, z, n, _) = setup();
        let budget =
            LocalSearchBudget { max_steps: 25, neighbors_per_step: 5, stall_evaluations: 15 };
        let descend = |threads: usize| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let start = p.random_solution(&mut rng);
            let objs = p.evaluate(&start);
            let mut run = ctx(threads, FaultConfig::default());
            let out =
                greedy_descent(&p, &start, &objs, &[0.3, 0.7], &z, &n, budget, &mut run, &mut rng);
            (out, run.evaluations)
        };
        let (sequential, sequential_evaluations) = descend(1);
        for threads in [2, 4, 8] {
            let (parallel, parallel_evaluations) = descend(threads);
            assert_eq!(parallel.best, sequential.best, "threads = {threads}");
            assert_eq!(parallel.best_objectives, sequential.best_objectives);
            assert_eq!(parallel.final_value, sequential.final_value);
            assert_eq!(parallel.accepted, sequential.accepted);
            assert_eq!(parallel_evaluations, sequential_evaluations);
        }
    }

    #[test]
    fn weights_steer_the_search_direction() {
        let (p, z, n, mut rng) = setup();
        // Strong weight on f1 should drive f1 down harder than a strong
        // weight on f2 does, starting from the same point.
        let start = vec![0.9; 8];
        let objs = p.evaluate(&start);
        let budget =
            LocalSearchBudget { max_steps: 60, neighbors_per_step: 6, stall_evaluations: 18 };
        let to_f1 =
            greedy_descent(&p, &start, &objs, &[0.95, 0.05], &z, &n, budget, &mut run(), &mut rng);
        let to_f2 =
            greedy_descent(&p, &start, &objs, &[0.05, 0.95], &z, &n, budget, &mut run(), &mut rng);
        assert!(
            to_f1.best_objectives[0] < to_f2.best_objectives[0],
            "f1-weighted search must reach lower f1 ({} vs {})",
            to_f1.best_objectives[0],
            to_f2.best_objectives[0]
        );
    }

    #[test]
    fn faulted_neighbors_are_contained_and_never_accepted() {
        use crate::{ChaosProblem, ChaosSpec};
        let (p, z, n, mut rng) = setup();
        let chaotic =
            ChaosProblem::new(p, ChaosSpec::parse("panic=0.2,nan=0.2,arity=0.1").unwrap(), 99);
        let start = vec![0.9; 8];
        let objs = chaotic.inner().evaluate(&start);
        let budget =
            LocalSearchBudget { max_steps: 20, neighbors_per_step: 4, stall_evaluations: 12 };
        let mut run = ctx(2, FaultConfig { policy: FaultPolicy::Skip, retries: 1 });
        let out = greedy_descent(
            &chaotic,
            &start,
            &objs,
            &[0.5, 0.5],
            &z,
            &n,
            budget,
            &mut run,
            &mut rng,
        );
        assert!(!run.poisoned());
        assert!(run.fault_log().faults() > 0, "the spec must actually inject");
        assert!(out.best_objectives.iter().all(|v| v.is_finite()));
        assert!(out.accepted.iter().all(|(_, o)| o.iter().all(|v| v.is_finite())));
        assert!(out.final_value.is_finite());
        assert!(run.evaluations >= 4, "attempts are still charged");
    }

    #[test]
    fn a_latched_fail_fault_stops_the_descent_early() {
        use crate::{ChaosProblem, ChaosSpec};
        let (p, z, n, mut rng) = setup();
        let chaotic = ChaosProblem::new(p, ChaosSpec::parse("panic=1.0").unwrap(), 7);
        let start = vec![0.9; 8];
        let objs = chaotic.inner().evaluate(&start);
        let budget =
            LocalSearchBudget { max_steps: 50, neighbors_per_step: 4, stall_evaluations: 200 };
        let mut run = run();
        let out = greedy_descent(
            &chaotic,
            &start,
            &objs,
            &[0.5, 0.5],
            &z,
            &n,
            budget,
            &mut run,
            &mut rng,
        );
        assert!(run.poisoned() && run.finished);
        assert_eq!(run.evaluations, 4, "exactly one batch is attempted before the latch");
        assert_eq!(out.best_objectives, objs, "the start survives unchanged");
    }
}
