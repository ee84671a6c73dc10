//! The baselines' weighted-sum descent as first written, kept as the
//! oracle for [`super::greedy_descent`], and the differential harness
//! that holds the two to the same accepted path.
//!
//! [`oracle_descent`] is that descent verbatim. It counted stalls in
//! batches and stopped after `PATIENCE = 3` non-improving ones. The
//! shared descent counts sampled neighbors instead, so
//! `stall_evaluations = 3·k` for `k` neighbors per step must stop at the
//! same batch, draw the same RNG values and spend the same evaluations.
//! `k = 0` is covered too: neither MOOS nor the multi-start baseline
//! refuses it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use super::{greedy_descent, LocalSearchBudget};
use crate::checkpoint::RunCtx;
use crate::fault::{is_quarantined, FaultConfig, FaultPolicy};
use crate::normalize::Normalizer;
use crate::problems::Zdt;
use crate::scalarize::Scalarizer;
use crate::{ChaosProblem, ChaosSpec, GuardedEvaluator, Problem};

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
fn oracle_descent<P>(
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

/// Runs the oracle and the shared descent on fresh problems from
/// `problem` (so a chaos run starts both at ordinal 0), from the same
/// start and RNG state, and asserts they agree.
fn assert_same_descent<P>(problem: impl Fn() -> P, seed: u64, k: usize, max_steps: usize, w: f64)
where
    P: Problem<Solution = Vec<f64>> + Sync,
{
    let skip = FaultConfig { policy: FaultPolicy::Skip, retries: 1 };
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Zdt::zdt1(8).random_solution(&mut rng);
    let objs = Zdt::zdt1(8).evaluate(&start);
    let (weight, z) = ([w, 1.0 - w], [0.0, 0.0]);
    let n = Normalizer::from_bounds(vec![0.0, 0.0], vec![1.0, 10.0]);

    let (mut rng_a, mut guard_a) = (rng.clone(), GuardedEvaluator::new(1, skip));
    let (accepted, evaluations) = oracle_descent(
        &problem(),
        &start,
        &objs,
        &weight,
        &z,
        &n,
        max_steps,
        k,
        &mut guard_a,
        &mut rng_a,
    );

    let (mut rng_b, mut ctx_b) = (rng, RunCtx::new(1, skip, None, 2, None, None));
    let budget = LocalSearchBudget { max_steps, neighbors_per_step: k, stall_evaluations: 3 * k };
    let out =
        greedy_descent(&problem(), &start, &objs, &weight, &z, &n, budget, &mut ctx_b, &mut rng_b);

    let what = format!("seed {seed}, k {k}, max_steps {max_steps}");
    assert_eq!(out.accepted, accepted, "{what}");
    assert_eq!(ctx_b.evaluations, evaluations, "{what}");
    assert_eq!(rng_b.state(), rng_a.state(), "{what}");
    assert_eq!(ctx_b.fault_log(), guard_a.log(), "{what}");
}

/// Runs [`assert_same_descent`] on plain ZDT1 and on a chaotic ZDT1 under
/// the Skip policy.
fn assert_same_descent_on_both(seed: u64, k: usize, max_steps: usize, w: f64) {
    assert_same_descent(|| Zdt::zdt1(8), seed, k, max_steps, w);
    let spec = ChaosSpec::parse("panic=0.2,nan=0.2,arity=0.1").expect("spec");
    assert_same_descent(|| ChaosProblem::new(Zdt::zdt1(8), spec, seed), seed, k, max_steps, w);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_shared_descent_matches_the_baselines_descent(
        seed in 0u64..10_000,
        max_steps in 0usize..40,
        w in 0.0f64..1.0,
    ) {
        for k in [0, 1, 4] {
            assert_same_descent_on_both(seed, k, max_steps, w);
        }
    }
}
