//! Deterministic fault injection for exercising the containment layer.
//!
//! [`ChaosProblem`] wraps any [`Problem`] and corrupts a seeded,
//! reproducible subset of evaluations: panics, NaN/±Inf objectives,
//! wrong-arity vectors, and artificial slowness. Which evaluations fault
//! is decided purely by `(seed, ordinal)`, where the ordinal is the run's
//! evaluation count at that attempt: the
//! [`GuardedEvaluator`](crate::fault::GuardedEvaluator) numbers each
//! attempt from the count it holds and passes it to
//! [`Problem::evaluate_ordinal`]. The wrapper keeps no state of its own,
//! so the fault stream is bit-identical at any thread count, and a run
//! restored from a checkpoint's evaluation count continues it.
//!
//! Plain [`Problem::evaluate`] has no ordinal, so it panics: an optimizer
//! path that bypasses the guarded evaluator fails loudly under chaos
//! instead of silently skipping injection — that is exactly what the
//! chaos test matrix relies on to prove every evaluation path is
//! contained.

use rand::RngCore;

use crate::problem::Problem;

/// Per-evaluation fault probabilities, all in `[0, 1]`.
///
/// The four fault kinds are mutually exclusive per evaluation (their
/// probabilities are stacked, so their sum must stay ≤ 1); slowness is
/// drawn independently and composes with a clean evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChaosSpec {
    /// Probability of an injected panic.
    pub panic: f64,
    /// Probability of a NaN objective coordinate.
    pub nan: f64,
    /// Probability of a ±Inf objective coordinate.
    pub inf: f64,
    /// Probability of a wrong-arity objective vector.
    pub arity: f64,
    /// Probability of an artificial delay (~200 µs).
    pub slow: f64,
}

impl ChaosSpec {
    /// Parses a comma-separated `key=probability` list, e.g.
    /// `panic=0.05,nan=0.02,slow=0.1`. Keys: `panic`, `nan`, `inf`,
    /// `arity`, `slow`; omitted keys default to 0.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = ChaosSpec::default();
        if spec.trim().is_empty() {
            return Err("empty chaos spec (try e.g. 'panic=0.05,nan=0.02')".to_owned());
        }
        for part in spec.split(',') {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec entry '{part}' is not key=probability"))?;
            let p: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("chaos probability '{value}' is not a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("chaos probability {key}={p} is outside [0, 1]"));
            }
            match key.trim() {
                "panic" => out.panic = p,
                "nan" => out.nan = p,
                "inf" => out.inf = p,
                "arity" => out.arity = p,
                "slow" => out.slow = p,
                other => {
                    return Err(format!(
                        "unknown chaos key '{other}' (try: panic, nan, inf, arity, slow)"
                    ))
                }
            }
        }
        let total = out.panic + out.nan + out.inf + out.arity;
        if total > 1.0 {
            return Err(format!("chaos fault probabilities sum to {total} > 1"));
        }
        Ok(out)
    }
}

/// Renders the canonical `key=probability` form accepted by
/// [`ChaosSpec::parse`], so a spec round-trips through run manifests.
impl std::fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = [
            ("panic", self.panic),
            ("nan", self.nan),
            ("inf", self.inf),
            ("arity", self.arity),
            ("slow", self.slow),
        ];
        let mut first = true;
        for (key, p) in entries {
            if p == 0.0 {
                continue;
            }
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{key}={p}")?;
            first = false;
        }
        if first {
            // An all-zero spec still has to parse back; pick one key.
            f.write_str("panic=0")?;
        }
        Ok(())
    }
}

const FAULT_SALT: u64 = 0xC4A05;
const SLOW_SALT: u64 = 0x51_0E;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` determined only by `(seed, ordinal, salt)`.
fn unit(seed: u64, ordinal: u64, salt: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(ordinal ^ salt));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Problem`] decorator that injects seeded, ordinal-addressed faults.
///
/// See the [module docs](self) for the determinism story. The wrapper is
/// transparent for everything except evaluation: solution generation,
/// features and objective count delegate unchanged to the inner problem.
#[derive(Debug)]
pub struct ChaosProblem<P> {
    inner: P,
    spec: ChaosSpec,
    seed: u64,
}

impl<P> ChaosProblem<P> {
    /// Wraps `inner`, faulting evaluations according to `spec` with the
    /// fault stream keyed by `seed`.
    pub fn new(inner: P, spec: ChaosSpec, seed: u64) -> Self {
        Self { inner, spec, seed }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Problem> ChaosProblem<P> {
    /// Evaluates `s` as evaluation number `ordinal`, with the fault (if
    /// any) that `(seed, ordinal)` selects.
    fn inject(&self, s: &P::Solution, ordinal: u64) -> Vec<f64> {
        let u = unit(self.seed, ordinal, FAULT_SALT);
        let mut threshold = self.spec.panic;
        if u < threshold {
            panic!("chaos: injected panic at evaluation ordinal {ordinal}");
        }
        if self.spec.slow > 0.0 && unit(self.seed, ordinal, SLOW_SALT) < self.spec.slow {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let mut objs = self.inner.evaluate(s);
        let m = objs.len().max(1);
        threshold += self.spec.nan;
        if u < threshold {
            objs[ordinal as usize % m] = f64::NAN;
            return objs;
        }
        threshold += self.spec.inf;
        if u < threshold {
            let inf = if ordinal.is_multiple_of(2) { f64::INFINITY } else { f64::NEG_INFINITY };
            objs[ordinal as usize % m] = inf;
            return objs;
        }
        threshold += self.spec.arity;
        if u < threshold {
            // Alternate between one-too-many and one-too-few entries.
            if ordinal.is_multiple_of(2) {
                objs.push(0.0);
            } else {
                objs.pop();
            }
        }
        objs
    }
}

impl<P: Problem> Problem for ChaosProblem<P> {
    type Solution = P::Solution;

    fn objective_count(&self) -> usize {
        self.inner.objective_count()
    }

    fn random_solution(&self, rng: &mut dyn RngCore) -> Self::Solution {
        self.inner.random_solution(rng)
    }

    fn neighbor(&self, s: &Self::Solution, rng: &mut dyn RngCore) -> Self::Solution {
        self.inner.neighbor(s, rng)
    }

    fn crossover(
        &self,
        a: &Self::Solution,
        b: &Self::Solution,
        rng: &mut dyn RngCore,
    ) -> Self::Solution {
        self.inner.crossover(a, b, rng)
    }

    /// Panics: an evaluation without an ordinal has no fault to draw, and
    /// an unguarded call site must fail loudly under chaos rather than
    /// dodge injection.
    fn evaluate(&self, _s: &Self::Solution) -> Vec<f64> {
        panic!(
            "chaos: ChaosProblem::evaluate bypasses the guarded evaluator; evaluate through \
             GuardedEvaluator, which calls evaluate_ordinal"
        );
    }

    fn evaluate_ordinal(&self, s: &Self::Solution, ordinal: u64) -> Vec<f64> {
        self.inject(s, ordinal)
    }

    fn features(&self, s: &Self::Solution) -> Vec<f64> {
        self.inner.features(s)
    }

    fn feature_len(&self) -> usize {
        self.inner.feature_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPolicy, GuardedEvaluator};
    use crate::problems::Zdt;
    use rand::SeedableRng;

    fn batch(n: usize, seed: u64) -> (Zdt, Vec<Vec<f64>>) {
        let problem = Zdt::zdt1(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let solutions = (0..n).map(|_| problem.random_solution(&mut rng)).collect();
        (problem, solutions)
    }

    #[test]
    fn spec_parsing_accepts_valid_and_rejects_invalid() {
        let spec = ChaosSpec::parse("panic=0.05, nan=0.02,slow=0.5").unwrap();
        assert_eq!(spec.panic, 0.05);
        assert_eq!(spec.nan, 0.02);
        assert_eq!(spec.slow, 0.5);
        assert_eq!(spec.inf, 0.0);
        assert!(ChaosSpec::parse("").is_err());
        assert!(ChaosSpec::parse("panik=0.1").is_err());
        assert!(ChaosSpec::parse("panic=1.5").is_err());
        assert!(ChaosSpec::parse("panic=x").is_err());
        assert!(ChaosSpec::parse("panic").is_err());
        assert!(ChaosSpec::parse("panic=0.6,nan=0.6").is_err());
    }

    #[test]
    fn fault_stream_is_keyed_by_ordinal_not_thread_schedule() {
        let (problem, solutions) = batch(40, 7);
        let spec = ChaosSpec::parse("panic=0.1,nan=0.1,inf=0.1,arity=0.1").unwrap();
        let config = FaultConfig { policy: FaultPolicy::PenalizeWorst, retries: 1 };
        let mut reference = None;
        for threads in [1, 2, 4] {
            let chaotic = ChaosProblem::new(&problem, spec, 99);
            let mut guard = GuardedEvaluator::new(threads, config);
            let batch = guard.evaluate(&chaotic, &solutions);
            let outcome = (batch, *guard.log());
            match &reference {
                None => reference = Some(outcome),
                Some(first) => assert_eq!(first, &outcome, "threads = {threads}"),
            }
        }
        let (_, log) = reference.unwrap();
        assert!(log.faults() > 0, "p=0.4 over 40 evals should fault");
    }

    #[test]
    fn ordinal_round_trip_resumes_the_same_fault_stream() {
        let (problem, solutions) = batch(30, 3);
        let chaotic = ChaosProblem::new(&problem, ChaosSpec::parse("nan=0.3").unwrap(), 5);
        let config = FaultConfig { policy: FaultPolicy::Skip, retries: 1 };

        let mut uninterrupted = GuardedEvaluator::new(1, config);
        let first = uninterrupted.evaluate(&chaotic, &solutions[..12]);
        let second = uninterrupted.evaluate(&chaotic, &solutions[12..]);

        // "Crash" after the first batch: the problem holds nothing, so
        // the resumed guard is rebuilt from the checkpointed fault log
        // and evaluation count alone.
        let mut interrupted = GuardedEvaluator::new(4, config);
        assert_eq!(interrupted.evaluate(&chaotic, &solutions[..12]), first);
        let count = interrupted.evaluations();
        assert!(count > 12, "the retries are counted too");
        let mut resumed = GuardedEvaluator::from_parts(4, config, *interrupted.log(), count);
        assert_eq!(resumed.evaluate(&chaotic, &solutions[12..]), second);
        assert_eq!(resumed.evaluations(), uninterrupted.evaluations());
        assert_eq!(resumed.log(), uninterrupted.log());

        // A guard that forgot the count replays the stream from ordinal 0.
        let mut forgetful = GuardedEvaluator::from_parts(4, config, *interrupted.log(), 0);
        assert_ne!(forgetful.evaluate(&chaotic, &solutions[12..]), second);
    }

    #[test]
    #[should_panic(expected = "ChaosProblem::evaluate bypasses the guarded evaluator")]
    fn unguarded_evaluate_panics_naming_the_bypass() {
        let (problem, solutions) = batch(1, 6);
        ChaosProblem::new(&problem, ChaosSpec::default(), 3).evaluate(&solutions[0]);
    }

    #[test]
    fn certain_fault_probabilities_always_inject() {
        let (problem, solutions) = batch(8, 1);
        for (spec, check) in [("nan=1", "nan"), ("inf=1", "inf"), ("arity=1", "arity")] {
            let chaotic = ChaosProblem::new(&problem, ChaosSpec::parse(spec).unwrap(), 2);
            for (ordinal, s) in (0..).zip(&solutions) {
                let objs = chaotic.evaluate_ordinal(s, ordinal);
                match check {
                    "nan" => assert!(objs.iter().any(|v| v.is_nan())),
                    "inf" => assert!(objs.iter().any(|v| v.is_infinite())),
                    _ => assert_ne!(objs.len(), problem.objective_count()),
                }
            }
        }
        let panicky = ChaosProblem::new(&problem, ChaosSpec::parse("panic=1").unwrap(), 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            panicky.evaluate_ordinal(&solutions[0], 0)
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for text in ["panic=0.05,nan=0.02,slow=0.5", "inf=1", "arity=0.125", "panic=0"] {
            let spec = ChaosSpec::parse(text).unwrap();
            let rendered = spec.to_string();
            assert_eq!(ChaosSpec::parse(&rendered).unwrap(), spec, "{text} -> {rendered}");
        }
        assert_eq!(ChaosSpec::default().to_string(), "panic=0");
    }

    #[test]
    fn zero_spec_is_transparent() {
        let (problem, solutions) = batch(6, 4);
        let chaotic = ChaosProblem::new(&problem, ChaosSpec::default(), 9);
        for (ordinal, s) in (0..).zip(&solutions) {
            assert_eq!(chaotic.evaluate_ordinal(s, ordinal), problem.evaluate(s));
        }
    }
}
