//! Deterministic fault injection for exercising the containment layer.
//!
//! [`ChaosProblem`] wraps any [`Problem`] and corrupts a seeded,
//! reproducible subset of evaluations: panics, NaN/±Inf objectives,
//! wrong-arity vectors, and artificial slowness. Which evaluations fault
//! is decided purely by `(seed, ordinal)` — the ordinal being the global
//! evaluation sequence number reserved through
//! [`Problem::reserve_ordinals`] — so the fault stream is bit-identical
//! at any thread count and round-trips through checkpoints by persisting
//! a single counter ([`ChaosProblem::ordinal`] /
//! [`ChaosProblem::set_ordinal`]).
//!
//! Plain [`Problem::evaluate`] *also* injects (it reserves one ordinal
//! for itself), so an optimizer path that bypasses the guarded evaluator
//! fails loudly under chaos instead of silently skipping injection —
//! that is exactly what the chaos test matrix relies on to prove every
//! evaluation path is contained.

use std::sync::atomic::{AtomicU64, Ordering};

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

    /// `true` if the spec injects at least one fault kind (slowness alone
    /// does not make evaluations fault).
    pub fn injects_faults(&self) -> bool {
        self.panic + self.nan + self.inf + self.arity > 0.0
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
    ordinal: AtomicU64,
}

impl<P> ChaosProblem<P> {
    /// Wraps `inner`, faulting evaluations according to `spec` with the
    /// fault stream keyed by `seed`.
    pub fn new(inner: P, spec: ChaosSpec, seed: u64) -> Self {
        Self { inner, spec, seed, ordinal: AtomicU64::new(0) }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The next unreserved evaluation ordinal — persist this at a
    /// checkpoint safe point to resume the fault stream bit-identically.
    pub fn ordinal(&self) -> u64 {
        self.ordinal.load(Ordering::SeqCst)
    }

    /// Restores the ordinal counter captured by [`ordinal`](Self::ordinal).
    pub fn set_ordinal(&self, ordinal: u64) {
        self.ordinal.store(ordinal, Ordering::SeqCst);
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

    /// Reserves one ordinal and injects: unguarded call sites fault
    /// loudly under chaos rather than dodging injection.
    fn evaluate(&self, s: &Self::Solution) -> Vec<f64> {
        let ordinal = self.reserve_ordinals(1);
        self.inject(s, ordinal)
    }

    fn evaluate_ordinal(&self, s: &Self::Solution, ordinal: u64) -> Vec<f64> {
        self.inject(s, ordinal)
    }

    fn reserve_ordinals(&self, n: u64) -> u64 {
        self.ordinal.fetch_add(n, Ordering::SeqCst)
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
        assert!(spec.injects_faults());
        assert!(!ChaosSpec::parse("slow=0.9").unwrap().injects_faults());
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
        let spec = ChaosSpec::parse("nan=0.3").unwrap();
        let config = FaultConfig { policy: FaultPolicy::Skip, retries: 0 };

        let uninterrupted = ChaosProblem::new(&problem, spec, 5);
        let mut guard = GuardedEvaluator::new(1, config);
        let first = guard.evaluate(&uninterrupted, &solutions[..12]);
        let second = guard.evaluate(&uninterrupted, &solutions[12..]);

        // "Crash" after the first batch: rebuild the wrapper and restore
        // only the ordinal counter.
        let resumed = ChaosProblem::new(&problem, spec, 5);
        let mut guard2 = GuardedEvaluator::new(4, config);
        let first2 = guard2.evaluate(&resumed, &solutions[..12]);
        assert_eq!(first2, first);
        let restored = ChaosProblem::new(&problem, spec, 5);
        restored.set_ordinal(resumed.ordinal());
        assert_eq!(restored.ordinal(), uninterrupted.ordinal() - 18);
        let second2 = guard2.evaluate(&restored, &solutions[12..]);
        assert_eq!(second2, second);
    }

    #[test]
    fn certain_fault_probabilities_always_inject() {
        let (problem, solutions) = batch(8, 1);
        for (spec, check) in [("nan=1", "nan"), ("inf=1", "inf"), ("arity=1", "arity")] {
            let chaotic = ChaosProblem::new(&problem, ChaosSpec::parse(spec).unwrap(), 2);
            for s in &solutions {
                let objs = chaotic.evaluate(s);
                match check {
                    "nan" => assert!(objs.iter().any(|v| v.is_nan())),
                    "inf" => assert!(objs.iter().any(|v| v.is_infinite())),
                    _ => assert_ne!(objs.len(), problem.objective_count()),
                }
            }
        }
        let panicky = ChaosProblem::new(&problem, ChaosSpec::parse("panic=1").unwrap(), 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            panicky.evaluate(&solutions[0])
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
        for s in &solutions {
            assert_eq!(chaotic.evaluate(s), problem.evaluate(s));
        }
        assert_eq!(chaotic.ordinal(), 6);
    }
}
