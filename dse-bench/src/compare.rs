//! `dse-bench compare`: judges a candidate result against a base result,
//! metric by metric and workload by workload, with the bounds of
//! `BENCHMARK.json`.

use moela_persist::Value;

use crate::spec::{Better, Metrics, EXTRA_GATES};
use crate::stats::Summary;

/// The outcome for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The base's own min..max spread is wider than the bound, so a change
    /// inside it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies `cand` against `base`. `allowed` is the worsening, in the
/// metric's own unit, that still counts as unchanged.
pub fn classify(base: &Summary, cand: &Summary, better: Better, allowed: f64) -> Verdict {
    let worse = match better {
        Better::Lower => cand.median - base.median,
        Better::Higher => base.median - cand.median,
    };
    let (all_better, all_worse) = match better {
        Better::Lower => (cand.max < base.min, cand.min > base.max),
        Better::Higher => (cand.min > base.max, cand.max < base.min),
    };
    if base.max - base.min > allowed {
        if all_better {
            Verdict::Improved
        } else if all_worse && worse > allowed {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > allowed {
        Verdict::Regressed
    } else if -worse > allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compares two result documents. Returns the report lines and whether
/// anything regressed; `Err` when the results were measured under
/// different protocols or are malformed.
pub fn compare(
    base: &Value,
    cand: &Value,
    metrics: &Metrics,
) -> Result<(Vec<String>, bool), String> {
    let protocol = |v: &Value| v.field("protocol").map(moela_persist::encode::to_string);
    let (bp, cp) = (protocol(base).map_err(err)?, protocol(cand).map_err(err)?);
    if bp != cp {
        return Err(format!(
            "refusing to compare results measured under different protocols:\n  base {bp}\n  cand {cp}"
        ));
    }
    let gates: Vec<(&str, &str, Better, f64)> = metrics
        .end_to_end
        .iter()
        .map(|m| (&*m.name, &*m.unit, m.better, m.bound.unwrap_or(0.0)))
        .chain(EXTRA_GATES)
        .collect();
    let mut lines = Vec::new();
    let mut regressed = false;
    for b in base.field("workloads").and_then(Value::as_array).map_err(err)? {
        let name = b.field("name").and_then(Value::as_str).map_err(err)?;
        let c = cand
            .field("workloads")
            .and_then(Value::as_array)
            .map_err(err)?
            .iter()
            .find(|c| c.field("name").and_then(Value::as_str).is_ok_and(|n| n == name))
            .ok_or_else(|| format!("the candidate has no workload '{name}'"))?;
        for &(metric, unit, better, bound) in &gates {
            let (bs, cs) = (samples(b, metric)?, samples(c, metric)?);
            let (Some(bs), Some(cs)) = (Summary::of(&bs), Summary::of(&cs)) else {
                return Err(format!("{name} {metric}: no samples to compare"));
            };
            let allowed = bound * bs.median.abs();
            let verdict = classify(&bs, &cs, better, allowed);
            regressed |= verdict == Verdict::Regressed;
            let change = if bs.median == 0.0 {
                String::new()
            } else {
                format!(" ({:+.1}%)", 100.0 * (cs.median - bs.median) / bs.median.abs())
            };
            lines.push(format!(
                "{name} {metric} {} -> {} {unit}{change} bound {:.0}% {}",
                bs.median,
                cs.median,
                100.0 * bound,
                verdict.name()
            ));
        }
        let digest = |v: &Value| v.field("front_crc32").map(moela_persist::encode::to_string);
        let (bd, cd) = (digest(b).map_err(err)?, digest(c).map_err(err)?);
        lines.push(format!(
            "{name} front_crc32 {bd} -> {cd} {}",
            if bd == cd { "same" } else { "differs" }
        ));
    }
    Ok((lines, regressed))
}

/// A metric's samples: the per-round list, or the single `error_rate`.
fn samples(workload: &Value, metric: &str) -> Result<Vec<f64>, String> {
    match workload.field("samples").map_err(err)?.field_opt(metric) {
        Some(list) => list.to_f64_vec().map_err(err),
        None => Ok(vec![workload.field(metric).and_then(Value::as_f64).map_err(err)?]),
    }
}

fn err(e: moela_persist::PersistError) -> String {
    format!("malformed result: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: &[f64]) -> Summary {
        Summary::of(samples).expect("samples")
    }

    #[test]
    fn classification_respects_direction_and_bound() {
        let base = s(&[10.0, 10.1, 10.2]);
        // Lower is better: within ±1.0 is unchanged.
        assert_eq!(classify(&base, &s(&[10.5, 10.6]), Better::Lower, 1.0), Verdict::Unchanged);
        assert_eq!(classify(&base, &s(&[15.0, 15.2]), Better::Lower, 1.0), Verdict::Regressed);
        assert_eq!(classify(&base, &s(&[8.0, 8.1]), Better::Lower, 1.0), Verdict::Improved);
        // Higher is better flips the meaning of the same move.
        assert_eq!(classify(&base, &s(&[15.0, 15.2]), Better::Higher, 1.0), Verdict::Improved);
        assert_eq!(classify(&base, &s(&[8.0, 8.1]), Better::Higher, 1.0), Verdict::Regressed);
    }

    #[test]
    fn a_base_spread_wider_than_the_bound_is_unresolved_unless_every_run_separates() {
        let noisy = s(&[9.0, 10.0, 11.0]);
        assert_eq!(classify(&noisy, &s(&[10.5]), Better::Lower, 1.0), Verdict::Unresolved);
        assert_eq!(classify(&noisy, &s(&[8.0, 8.5]), Better::Lower, 1.0), Verdict::Improved);
        assert_eq!(classify(&noisy, &s(&[13.0, 14.0]), Better::Lower, 1.0), Verdict::Regressed);
        // Worse, but overlapping the base's range: not resolvable.
        assert_eq!(classify(&noisy, &s(&[10.9, 12.5]), Better::Lower, 1.0), Verdict::Unresolved);
    }

    #[test]
    fn a_zero_bound_flags_any_worsening() {
        let clean = s(&[0.0]);
        assert_eq!(classify(&clean, &s(&[0.0]), Better::Lower, 0.0), Verdict::Unchanged);
        assert_eq!(classify(&clean, &s(&[0.2]), Better::Lower, 0.0), Verdict::Regressed);
    }
}
