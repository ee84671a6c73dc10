//! The MOELA experiment harness: shared machinery behind the binaries that
//! regenerate every table and figure of the paper.
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Table I (speed-up of MOELA vs MOEA/D, MOOS) | `paper_tables` |
//! | Table II (PHV gain at the stop budget)      | `paper_tables` |
//! | Fig. 3 (EDP overhead of the baselines)      | `paper_tables` |
//! | §IV design-choice ablations                 | `ablations`    |
//! | §II.B system-size scaling (extension)       | `scaling`      |
//!
//! ## The clock
//!
//! The paper measures wall-clock hours on a fixed server; this
//! reproduction's primary clock is the **number of objective evaluations**
//! — identical work units regardless of host — with wall-clock seconds
//! reported alongside. Pass `--paper-scale` for the paper's `N = 50`,
//! `gen = 1000` parameterization (hours of compute); the default budget
//! regenerates every table in minutes.
//!
//! ## Comparability
//!
//! All algorithms on one `(app, M)` cell share: the same synthesized
//! workload, the same evaluation budget, the same RNG seed, and one
//! normalizer fitted to a pre-sampled random-design corpus, so PHV values
//! (and therefore speed-ups and gains) are directly comparable.
//!
//! ## The optimizers
//!
//! Every binary builds its optimizers through `moela-core`'s optimizer
//! table ([`OptimizerSettings`], via [`HarnessConfig::settings`]), the
//! one `moela-dse` builds them through, so the tables compare the MOELA,
//! MOEA/D and MOOS a user runs. Until the harness used the table, its
//! MOEA/D took neighborhood size `T = 10` where `moela-dse` takes
//! `max(2, N/5)` (4 at the default `N = 24`); the numbers published in
//! EXPERIMENTS.md predate the change, and ROADMAP item 7 regenerates
//! them.

use std::time::Duration;

use moela_core::{Algorithm, OptimizerSettings};
use moela_manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
use moela_moo::fault::FaultConfig;
use moela_moo::normalize::Normalizer;
use moela_moo::run::{convergence_point, evaluations_to_reach, TracePoint};
use moela_traffic::{Benchmark, Workload};

/// Harness-wide settings, parsed from the command line.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Objective-evaluation budget per run.
    pub budget: u64,
    /// Population size shared by the population-based algorithms.
    pub population: usize,
    /// RNG seeds to average over.
    pub seeds: Vec<u64>,
    /// Applications to run.
    pub apps: Vec<Benchmark>,
    /// Objective stacks to run.
    pub sets: Vec<ObjectiveSet>,
    /// Wall-clock guard per run (prevents a mis-sized budget from hanging
    /// a table regeneration).
    pub time_guard: Duration,
    /// Score Fig.-3 designs with the flit-level simulator instead of the
    /// analytic network statistics.
    pub simulate: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            budget: 4_000,
            population: 24,
            seeds: vec![11],
            apps: Benchmark::TABLED.to_vec(),
            sets: ObjectiveSet::ALL.to_vec(),
            time_guard: Duration::from_secs(120),
            simulate: false,
        }
    }
}

impl HarnessConfig {
    /// The optimizer table's settings for `algorithm` on `cell`: the
    /// harness's population, budget and time guard, the cell's
    /// normalizer, one evaluation thread and the default fault policy.
    pub fn settings(&self, algorithm: Algorithm, cell: &Cell) -> OptimizerSettings {
        OptimizerSettings {
            algorithm,
            population: self.population,
            budget: self.budget,
            normalizer: cell.normalizer.clone(),
            time_guard: self.time_guard,
            threads: 1,
            fault: FaultConfig::default(),
        }
    }

    /// Parses the command line over `self`'s values, reading only the
    /// flags in `reads`; see [`Self::parse`]. On an error it prints the
    /// message and exits 2.
    pub fn with_args(self, reads: &[&str]) -> Self {
        self.parse(std::env::args().skip(1), reads).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        })
    }

    /// Parses harness flags over `self`'s values:
    ///
    /// * `--budget N` — evaluations per run (default 4000);
    /// * `--population N` — population size (default 24);
    /// * `--seeds a,b,c` — seeds to average over (default `11`);
    /// * `--apps BFS,BP,…` — subset of applications;
    /// * `--paper-scale` — the paper's `N = 50`, `gen = 1000` scale
    ///   (≈ 150 K evaluations per run; expect hours for a full table);
    /// * `--simulate` — Fig. 3 only: score final designs with the
    ///   flit-level simulator instead of the analytic network model.
    ///
    /// # Errors
    ///
    /// A flag outside `reads` — a binary names the flags it reads, so one
    /// it would ignore is refused — a missing value or an unparsable one.
    pub fn parse(
        mut self,
        args: impl IntoIterator<Item = String>,
        reads: &[&str],
    ) -> Result<Self, String> {
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !reads.contains(&flag.as_str()) {
                return Err(format!(
                    "this binary does not read {flag}; it reads {}",
                    reads.join(" ")
                ));
            }
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--budget" => self.budget = integer(&flag, &value()?)?,
                "--population" => self.population = integer(&flag, &value()?)?,
                "--seeds" => {
                    self.seeds =
                        value()?.split(',').map(|v| integer(&flag, v)).collect::<Result<_, _>>()?;
                }
                "--apps" => {
                    self.apps = value()?
                        .split(',')
                        .map(|name| {
                            Benchmark::ALL
                                .into_iter()
                                .find(|b| b.name().eq_ignore_ascii_case(name.trim()))
                                .ok_or_else(|| format!("unknown app {name}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--simulate" => self.simulate = true,
                "--paper-scale" => {
                    self.population = 50;
                    // N=50 × gen=1000 EA offspring plus local searches.
                    self.budget = 150_000;
                    self.time_guard = Duration::from_secs(48 * 3600);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(self)
    }
}

/// Parses `value`, one integer argument of `flag`.
fn integer<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.trim().parse().map_err(|_| format!("{flag} takes integers, not {value:?}"))
}

/// One `(application, objective stack)` experimental cell: the problem,
/// its corpus-fitted normalizer, and bookkeeping.
pub struct Cell {
    /// The application under test.
    pub app: Benchmark,
    /// The posed design problem.
    pub problem: ManycoreProblem,
    /// Normalizer fitted on a shared random corpus.
    pub normalizer: Normalizer,
}

/// Builds the experimental cell for `(app, set)` on `platform`: the
/// synthesized workload and the cell's corpus normalizer
/// ([`Normalizer::from_corpus`], the same scale `moela-dse` scores on).
pub fn build_cell(platform: PlatformConfig, app: Benchmark, set: ObjectiveSet, seed: u64) -> Cell {
    let workload = Workload::synthesize(app, platform.pe_mix(), seed);
    let problem = ManycoreProblem::new(platform, workload, set).expect("platform is consistent");
    let normalizer = Normalizer::from_corpus(&problem, seed);
    Cell { app, problem, normalizer }
}

/// The optimizers Tables I–II compare, MOELA first, with the names the
/// paper's tables give them.
pub const COMPARED: [(Algorithm, &str); 3] =
    [(Algorithm::Moela, "MOELA"), (Algorithm::Moead, "MOEA/D"), (Algorithm::Moos, "MOOS")];

/// Table I's speed-up factor on the evaluation clock.
///
/// Finds the baseline's convergence point in its trace (first trace point
/// within 0.5 % of its final PHV — the paper's §V.C criterion), then the
/// evaluation count at which MOELA's trace first reaches the same PHV.
/// Returns the ratio of the two counts (MOELA's taken as at least 1);
/// `None` when MOELA never reaches the baseline's converged quality
/// within its budget (reported as `<1×` by the table binary).
pub fn speedup(moela: &[TracePoint], baseline: &[TracePoint]) -> Option<f64> {
    let conv = baseline[convergence_point(baseline, 0.005)?];
    let moela_evals = evaluations_to_reach(moela, conv.phv)?.max(1);
    Some(conv.evaluations as f64 / moela_evals as f64)
}

/// Geometric mean of positive values (speed-ups average multiplicatively);
/// NaN for no values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; NaN for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Maps `worker` over `items` on scoped threads (one per item, which the
/// harness binaries use at row granularity — at most seven rows), returning
/// results in input order. Plain `std::thread::scope`; no extra runtime.
pub fn parallel_map<T, R, F>(items: Vec<T>, worker: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            items.into_iter().map(|item| scope.spawn(move || worker(item))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// Formats a markdown-ish table row.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_moo::Problem;

    fn tp(evaluations: u64, phv: f64) -> TracePoint {
        TracePoint { generation: 0, evaluations, elapsed: Duration::ZERO, phv }
    }

    #[test]
    fn speedup_is_ratio_of_evaluation_counts() {
        // Baseline converges at PHV 0.8 after 1000 evals; MOELA reaches
        // 0.8 at 100 evals → speed-up 10×.
        let mut baseline_trace: Vec<TracePoint> =
            (0..10).map(|i| tp(i * 100 + 100, 0.08 * (i + 1) as f64)).collect();
        baseline_trace.extend((0..6).map(|i| tp(1100 + i * 100, 0.8)));
        let moela_trace = vec![tp(50, 0.5), tp(100, 0.85), tp(150, 0.9)];
        assert_eq!(speedup(&moela_trace, &baseline_trace), Some(10.0));
    }

    #[test]
    fn speedup_is_none_when_moela_never_catches_up() {
        let baseline_trace: Vec<TracePoint> = (0..10).map(|i| tp(i * 10, 0.9)).collect();
        let moela_trace = vec![tp(100, 0.5)];
        assert!(speedup(&moela_trace, &baseline_trace).is_none());
    }

    #[test]
    fn geometric_mean_of_reciprocals_cancels() {
        let g = geometric_mean(&[2.0, 0.5]);
        assert!((g - 1.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn default_config_covers_the_tabled_apps_and_sets() {
        let cfg = HarnessConfig::default();
        assert_eq!(cfg.apps.len(), 6);
        assert_eq!(cfg.sets.len(), 3);
    }

    fn parse(args: &[&str], reads: &[&str]) -> Result<HarnessConfig, String> {
        HarnessConfig::default().parse(args.iter().map(|a| (*a).to_owned()), reads)
    }

    #[test]
    fn flags_a_binary_does_not_read_are_refused() {
        let reads = ["--budget", "--seeds", "--apps"];
        let cfg = parse(&["--budget", "60", "--seeds", "5,7", "--apps", "bfs,HOT"], &reads)
            .expect("read flags parse");
        assert_eq!((cfg.budget, cfg.seeds), (60, vec![5, 7]));
        assert_eq!(cfg.apps, vec![Benchmark::Bfs, Benchmark::Hot]);
        let err = parse(&["--simulate"], &reads).expect_err("an unread flag");
        assert!(err.contains("--simulate") && err.contains("--apps"), "{err}");
        assert!(parse(&["--bogus"], &reads).is_err());
        assert!(parse(&["--budget"], &reads).expect_err("no value").contains("needs a value"));
        assert!(parse(&["--seeds", "5,x"], &reads).is_err());
        assert!(parse(&["--apps", "NOPE"], &reads).expect_err("bad app").contains("NOPE"));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..7).collect::<Vec<i64>>(), |x| x * x);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn build_cell_produces_a_consistent_problem() {
        let cell = build_cell(PlatformConfig::paper(), Benchmark::Bp, ObjectiveSet::Three, 1);
        assert_eq!(cell.problem.objective_count(), 3);
        // The normalizer actually observed the corpus.
        assert!(cell.normalizer.min().iter().all(|v| v.is_finite()));
        assert!(cell.normalizer.max().iter().all(|v| v.is_finite()));
    }
}
