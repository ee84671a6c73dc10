//! The correctness gate every run passes before its numbers count.

use moela_manycore::{ManycoreProblem, PlatformConfig};
use moela_moo::pareto::dominates;
use moela_moo::Problem;

use crate::child::RunArtifacts;
use crate::spec::Workload;
use crate::traced::TracedRun;

/// A finished child run: clean exit is checked by the caller; here the
/// fault counters, the telemetry nesting and the front itself.
pub fn check_child(artifacts: &RunArtifacts, objectives: usize) -> Result<(), String> {
    let faults = artifacts.number(&["faults", "total"])?;
    if faults != 0.0 {
        return Err(format!("{faults} evaluation faults"));
    }
    let violations = artifacts.number(&["telemetry", "nesting_violations"])?;
    if violations != 0.0 {
        return Err(format!("{violations} span nesting violations"));
    }
    check_front(&artifacts.front()?, objectives)
}

/// The front is non-empty, of the right arity, finite, and no member
/// dominates another.
pub fn check_front(front: &[Vec<f64>], objectives: usize) -> Result<(), String> {
    if front.is_empty() {
        return Err("the front is empty".to_owned());
    }
    if let Some(row) = front.iter().find(|r| r.len() != objectives) {
        return Err(format!("a front row has {} objectives, not {objectives}", row.len()));
    }
    if front.iter().flatten().any(|v| !v.is_finite()) {
        return Err("the front holds a non-finite objective".to_owned());
    }
    for (i, a) in front.iter().enumerate() {
        if let Some(j) = front.iter().position(|b| dominates(b, a)) {
            return Err(format!("front member {j} dominates member {i}"));
        }
    }
    Ok(())
}

/// Bitwise equality of two fronts, row by row.
pub fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// The traced run must reproduce the untraced front bit for bit, and its
/// designs, re-scored on a fresh problem with routing reuse and delta
/// patching off (no memo either), must give the same bits again: an
/// independent check of every evaluation fast path.
pub fn check_traced(
    traced: &TracedRun,
    untraced_front: &[Vec<f64>],
    workload: &Workload,
    seed: u64,
) -> Result<(), String> {
    if traced.nesting_violations != 0 {
        return Err(format!("{} span nesting violations", traced.nesting_violations));
    }
    let front: Vec<Vec<f64>> = traced.front.iter().map(|(_, objs)| objs.clone()).collect();
    check_front(&front, workload.objectives.count())?;
    if !same_bits(&front, untraced_front) {
        return Err("the traced front differs from the untraced front.json".to_owned());
    }
    let platform = PlatformConfig::paper();
    let traffic = moela_traffic::Workload::synthesize(workload.app, platform.pe_mix(), seed);
    let mut fresh = ManycoreProblem::new(platform, traffic, workload.objectives)
        .map_err(|e| format!("cannot build the paper platform: {e}"))?;
    fresh.set_routing_cache_capacity(0);
    fresh.set_delta_eval(false);
    let rescored: Vec<Vec<f64>> = traced.front.iter().map(|(d, _)| fresh.evaluate(d)).collect();
    if !same_bits(&rescored, &front) {
        return Err(
            "front designs re-scored without fast paths give different objectives".to_owned()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_check_rejects_dominated_non_finite_and_misshapen_fronts() {
        assert!(check_front(&[vec![1.0, 2.0], vec![2.0, 1.0]], 2).is_ok());
        assert!(check_front(&[], 2).is_err());
        assert!(check_front(&[vec![1.0, 2.0], vec![1.0, 3.0]], 2).is_err());
        assert!(check_front(&[vec![1.0, f64::NAN]], 2).is_err());
        assert!(check_front(&[vec![1.0, 2.0, 3.0]], 2).is_err());
    }

    #[test]
    fn bitwise_equality_distinguishes_signed_zeros() {
        assert!(same_bits(&[vec![1.0, 0.0]], &[vec![1.0, 0.0]]));
        assert!(!same_bits(&[vec![1.0, 0.0]], &[vec![1.0, -0.0]]));
        assert!(!same_bits(&[vec![1.0]], &[vec![1.0], vec![2.0]]));
    }
}
