//! Argument parsing for `moela-dse` (plain `std::env`, no dependencies).

use std::time::Duration;

use moela_manycore::ObjectiveSet;
use moela_moo::fault::{FaultConfig, FaultPolicy};
use moela_moo::ChaosSpec;
use moela_obs::LogLevel;
use moela_persist::Value;
use moela_traffic::Benchmark;

/// A failed parse. `code` is the process exit code: `1` for malformed
/// syntax (unknown flags, bad values), `2` for structurally valid but
/// contradictory flag combinations, following the common CLI convention
/// of reserving 2 for usage errors the user must resolve.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct ArgsError {
    /// Human-readable description naming the offending flag or value.
    pub message: String,
    /// Process exit code (1 = malformed, 2 = contradictory combination).
    pub code: u8,
}

impl ArgsError {
    fn syntax(message: impl Into<String>) -> Self {
        ArgsError { message: message.into(), code: 1 }
    }

    fn contradiction(message: impl Into<String>) -> Self {
        ArgsError { message: message.into(), code: 2 }
    }
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for ArgsError {
    fn from(message: String) -> Self {
        ArgsError::syntax(message)
    }
}

impl From<&str> for ArgsError {
    fn from(message: &str) -> Self {
        ArgsError::syntax(message)
    }
}

/// Which optimizer to run.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Algorithm {
    /// The hybrid evolutionary/learning optimizer (the paper's MOELA).
    Moela,
    /// MOEA/D.
    Moead,
    /// MOOS.
    Moos,
    /// MOO-STAGE.
    MooStage,
    /// NSGA-II.
    Nsga2,
    /// Uniform random search.
    Random,
}

impl Algorithm {
    /// All selectable algorithms with their CLI names.
    pub const ALL: [(Algorithm, &'static str); 6] = [
        (Algorithm::Moela, "moela"),
        (Algorithm::Moead, "moead"),
        (Algorithm::Moos, "moos"),
        (Algorithm::MooStage, "moo-stage"),
        (Algorithm::Nsga2, "nsga2"),
        (Algorithm::Random, "random"),
    ];

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .find(|(_, n)| name.eq_ignore_ascii_case(n))
            .map(|(a, _)| *a)
            .ok_or_else(|| format!("unknown algorithm '{name}' (try: moela, moead, moos, moo-stage, nsga2, random)"))
    }

    /// The display name.
    pub fn name(&self) -> &'static str {
        Self::ALL.iter().find(|(a, _)| a == self).map(|(_, n)| *n).expect("every variant is listed")
    }
}

/// Options shared by the run-like subcommands.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOptions {
    /// Application workload.
    pub app: Benchmark,
    /// Objective stack.
    pub set: ObjectiveSet,
    /// Optimizer selection (`run` uses one; `compare` runs them all).
    pub algorithm: Algorithm,
    /// Objective-evaluation budget.
    pub budget: u64,
    /// Population size for population-based algorithms.
    pub population: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for batch objective evaluation (`0` = auto-detect).
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// Wall-clock guard.
    pub time_guard: Duration,
    /// Optional path to write the PHV trace CSV to.
    pub trace_csv: Option<String>,
    /// Optional path to write the final front CSV to.
    pub front_csv: Option<String>,
    /// Optional path to write the best design's Graphviz DOT rendering to.
    pub dot: Option<String>,
    /// Optional run directory (manifest + checkpoints + result CSVs).
    pub run_dir: Option<String>,
    /// Checkpoint cadence in optimizer steps (used with `run_dir`).
    pub checkpoint_every: u64,
    /// Abort the process after writing this many checkpoints (crash
    /// injection for resume testing).
    pub crash_after_checkpoints: Option<u64>,
    /// What to do with a candidate whose evaluation faults (panics,
    /// non-finite or malformed objectives).
    pub fault_policy: FaultPolicy,
    /// Re-evaluation attempts per faulted candidate before the policy
    /// applies.
    pub eval_retries: u32,
    /// Optional seeded fault injection (chaos testing).
    pub chaos: Option<ChaosSpec>,
    /// Seed for the chaos fault stream (required with `--chaos` so the
    /// injected faults are reproducible).
    pub chaos_seed: Option<u64>,
    /// Paint a rate-limited live progress line on stderr.
    pub progress: bool,
    /// Verbosity of human-facing status output (`quiet` = artifacts
    /// only; warnings always reach stderr).
    pub log_level: LogLevel,
}

impl RunOptions {
    /// The fault-containment configuration handed to every optimizer.
    pub fn fault(&self) -> FaultConfig {
        FaultConfig { policy: self.fault_policy, retries: self.eval_retries }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            app: Benchmark::Bfs,
            set: ObjectiveSet::Three,
            algorithm: Algorithm::Moela,
            budget: 4_000,
            population: 24,
            seed: 11,
            threads: 1,
            time_guard: Duration::from_secs(600),
            trace_csv: None,
            front_csv: None,
            dot: None,
            run_dir: None,
            checkpoint_every: 1,
            crash_after_checkpoints: None,
            fault_policy: FaultPolicy::default(),
            eval_retries: 0,
            chaos: None,
            chaos_seed: None,
            progress: false,
            log_level: LogLevel::Info,
        }
    }
}

/// Options for the embedded DSE job server.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Concurrent optimizer-run workers.
    pub workers: usize,
    /// Bounded submission-queue depth; a full queue answers 429.
    pub queue_depth: usize,
    /// Directory that holds one run store per job (also where restart
    /// rediscovers interrupted jobs).
    pub run_root: String,
    /// Checkpoint cadence applied to served jobs that do not set one.
    pub checkpoint_every: u64,
    /// Optional file the server writes its bound address to (for
    /// scripts using port 0).
    pub addr_file: Option<String>,
    /// Attempt budget per job before quarantine (counts the first try).
    pub max_attempts: u64,
    /// First retry backoff in milliseconds (doubles per attempt, plus
    /// deterministic jitter).
    pub retry_base_ms: u64,
    /// Seconds without a step heartbeat before a running job is marked
    /// stalled and interrupted.
    pub stall_timeout_s: u64,
    /// Extra seconds a stalled job may ignore its interrupt before the
    /// worker is abandoned and the job quarantined.
    pub stall_grace_s: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7774".to_owned(),
            workers: 2,
            queue_depth: 16,
            run_root: String::new(),
            checkpoint_every: 1,
            addr_file: None,
            max_attempts: 3,
            retry_base_ms: 1_000,
            stall_timeout_s: 30,
            stall_grace_s: 60,
        }
    }
}

/// The parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run one optimizer and report its front.
    Run(RunOptions),
    /// Run every optimizer at the same budget and compare PHV.
    Compare(RunOptions),
    /// Describe an application's synthesized workload.
    Info {
        /// Application to describe.
        app: Benchmark,
        /// Synthesis seed.
        seed: u64,
    },
    /// Simulate a random design at a given load factor.
    Simulate {
        /// Run options (app/seed reused).
        options: RunOptions,
        /// Injection-rate multiplier.
        load_factor: f64,
        /// Measured cycles.
        cycles: u64,
    },
    /// Analyze a finished run directory: write `report.json` and the
    /// Perfetto-viewable `trace.chrome.json`, print a summary.
    Report {
        /// The run directory (must hold a manifest and a finished run).
        dir: String,
        /// Verbosity of human-facing status output.
        log_level: LogLevel,
    },
    /// Compare two finished runs (or benchmark snapshots) and fail on
    /// regression — the CI bench gate.
    CompareRuns {
        /// Baseline run directory or `BENCH_*.json` snapshot.
        baseline: String,
        /// Candidate run directory or `BENCH_*.json` snapshot.
        candidate: String,
        /// Maximum tolerated relative final-PHV drop.
        max_phv_regression: f64,
        /// Maximum tolerated relative evals/s drop.
        max_rate_regression: f64,
    },
    /// Resume an interrupted run from its run directory.
    Resume {
        /// The run directory (must hold a manifest and checkpoints).
        dir: String,
        /// Optional worker-thread override (results are identical).
        threads: Option<usize>,
        /// Optional checkpoint-cadence override.
        checkpoint_every: Option<u64>,
        /// Crash injection for resume testing.
        crash_after_checkpoints: Option<u64>,
        /// Paint a rate-limited live progress line on stderr.
        progress: bool,
        /// Verbosity of human-facing status output.
        log_level: LogLevel,
    },
    /// Serve DSE jobs over HTTP with bounded queueing and graceful drain.
    Serve(ServeOptions),
    /// Print the build version.
    Version,
    /// Print usage.
    Help,
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns an [`ArgsError`] naming the offending flag or value, with
/// exit code 1 for malformed syntax and 2 for contradictory flag
/// combinations.
pub fn parse(args: &[String]) -> Result<Command, ArgsError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "version" | "--version" | "-V" => Ok(Command::Version),
        "resume" => parse_resume(rest),
        "serve" => parse_serve(rest),
        "report" => parse_report(rest),
        "run" => Ok(Command::Run(parse_run_flags("run", rest)?.opts)),
        // Two forms share the name: `compare [run flags]` re-runs every
        // algorithm at one budget, while `compare <A> <B>` diffs two
        // existing runs/snapshots. A leading positional selects the
        // second form.
        "compare" if rest.first().is_some_and(|a| !a.starts_with("--")) => parse_compare_runs(rest),
        "compare" => Ok(Command::Compare(parse_run_flags("compare", rest)?.opts)),
        "info" => {
            let opts = parse_run_flags("info", rest)?.opts;
            Ok(Command::Info { app: opts.app, seed: opts.seed })
        }
        "simulate" => {
            let RunFlags { opts, load_factor, cycles } = parse_run_flags("simulate", rest)?;
            Ok(Command::Simulate { options: opts, load_factor, cycles })
        }
        other => Err(ArgsError::syntax(format!(
            "unknown subcommand '{other}' (try: run, resume, serve, compare, info, simulate, help)"
        ))),
    }
}

fn parse_resume(args: &[String]) -> Result<Command, ArgsError> {
    let mut dir = None;
    let mut threads = None;
    let mut checkpoint_every = None;
    let mut crash_after_checkpoints = None;
    let mut progress = false;
    let mut log_level = LogLevel::Info;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("flag {arg} needs a value"));
        match arg.as_str() {
            "--progress" => progress = true,
            "--log-level" => {
                let name = value()?;
                log_level = LogLevel::parse(name).ok_or_else(|| {
                    format!("--log-level must be quiet, info, or debug (got {name})")
                })?;
            }
            "--threads" => {
                threads = Some(value()?.parse().map_err(|_| "--threads needs an integer")?);
            }
            "--checkpoint-every" => {
                checkpoint_every =
                    Some(value()?.parse().map_err(|_| "--checkpoint-every needs an integer")?);
            }
            "--crash-after-checkpoints" => {
                crash_after_checkpoints = Some(
                    value()?.parse().map_err(|_| "--crash-after-checkpoints needs an integer")?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(ArgsError::syntax(format!("unknown flag '{flag}'")))
            }
            positional if dir.is_none() => dir = Some(positional.to_owned()),
            extra => return Err(ArgsError::syntax(format!("unexpected argument '{extra}'"))),
        }
    }
    let dir = dir.ok_or("resume needs a run directory (moela-dse resume <DIR>)")?;
    Ok(Command::Resume {
        dir,
        threads,
        checkpoint_every,
        crash_after_checkpoints,
        progress,
        log_level,
    })
}

fn parse_report(args: &[String]) -> Result<Command, ArgsError> {
    let mut dir = None;
    let mut log_level = LogLevel::Info;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--log-level" => {
                let name = it.next().ok_or("flag --log-level needs a value")?;
                log_level = LogLevel::parse(name).ok_or_else(|| {
                    format!("--log-level must be quiet, info, or debug (got {name})")
                })?;
            }
            flag if flag.starts_with("--") => {
                return Err(ArgsError::syntax(format!("unknown flag '{flag}'")))
            }
            positional if dir.is_none() => dir = Some(positional.to_owned()),
            extra => return Err(ArgsError::syntax(format!("unexpected argument '{extra}'"))),
        }
    }
    let dir = dir.ok_or("report needs a run directory (moela-dse report <DIR>)")?;
    Ok(Command::Report { dir, log_level })
}

fn parse_compare_runs(args: &[String]) -> Result<Command, ArgsError> {
    let mut paths: Vec<String> = Vec::new();
    let mut max_phv_regression = 0.01;
    let mut max_rate_regression = 0.2;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("flag {arg} needs a value"));
        match arg.as_str() {
            "--max-phv-regression" => {
                max_phv_regression =
                    value()?.parse().map_err(|_| "--max-phv-regression needs a number")?;
            }
            "--max-rate-regression" => {
                max_rate_regression =
                    value()?.parse().map_err(|_| "--max-rate-regression needs a number")?;
            }
            flag if flag.starts_with("--") => {
                return Err(ArgsError::syntax(format!("unknown flag '{flag}'")))
            }
            positional if paths.len() < 2 => paths.push(positional.to_owned()),
            extra => return Err(ArgsError::syntax(format!("unexpected argument '{extra}'"))),
        }
    }
    if !(0.0..=1.0).contains(&max_phv_regression) || !(0.0..=1.0).contains(&max_rate_regression) {
        return Err(ArgsError::syntax("regression thresholds must be between 0 and 1"));
    }
    let mut drain = paths.drain(..);
    match (drain.next(), drain.next()) {
        (Some(baseline), Some(candidate)) => Ok(Command::CompareRuns {
            baseline,
            candidate,
            max_phv_regression,
            max_rate_regression,
        }),
        _ => Err(ArgsError::syntax(
            "compare needs two paths (moela-dse compare <BASELINE> <CANDIDATE>, each a run \
             directory or a BENCH_*.json snapshot)",
        )),
    }
}

fn parse_serve(args: &[String]) -> Result<Command, ArgsError> {
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--addr" => opts.addr = value()?,
            "--workers" => {
                opts.workers = value()?.parse().map_err(|_| "--workers needs an integer")?;
            }
            "--queue-depth" => {
                opts.queue_depth =
                    value()?.parse().map_err(|_| "--queue-depth needs an integer")?;
            }
            "--run-root" => opts.run_root = value()?,
            "--checkpoint-every" => {
                opts.checkpoint_every =
                    value()?.parse().map_err(|_| "--checkpoint-every needs an integer")?;
            }
            "--addr-file" => opts.addr_file = Some(value()?),
            "--max-attempts" => {
                opts.max_attempts =
                    value()?.parse().map_err(|_| "--max-attempts needs an integer")?;
            }
            "--retry-base-ms" => {
                opts.retry_base_ms =
                    value()?.parse().map_err(|_| "--retry-base-ms needs an integer")?;
            }
            "--stall-timeout-s" => {
                opts.stall_timeout_s =
                    value()?.parse().map_err(|_| "--stall-timeout-s needs an integer")?;
            }
            "--stall-grace-s" => {
                opts.stall_grace_s =
                    value()?.parse().map_err(|_| "--stall-grace-s needs an integer")?;
            }
            other => return Err(ArgsError::syntax(format!("unknown flag '{other}'"))),
        }
    }
    if opts.run_root.is_empty() {
        return Err(ArgsError::syntax("serve needs --run-root <DIR> to store job run directories"));
    }
    if opts.workers == 0 {
        return Err(ArgsError::syntax("--workers must be at least 1"));
    }
    if opts.queue_depth == 0 {
        return Err(ArgsError::syntax("--queue-depth must be at least 1"));
    }
    if opts.checkpoint_every == 0 {
        return Err(ArgsError::syntax("--checkpoint-every must be positive"));
    }
    if opts.max_attempts == 0 {
        return Err(ArgsError::syntax("--max-attempts must be at least 1 (the first try counts)"));
    }
    if opts.retry_base_ms == 0 {
        return Err(ArgsError::syntax("--retry-base-ms must be positive"));
    }
    if opts.stall_timeout_s == 0 {
        return Err(ArgsError::syntax("--stall-timeout-s must be positive"));
    }
    Ok(Command::Serve(opts))
}

/// The run flags and `simulate`'s own two, parsed in one pass.
struct RunFlags {
    opts: RunOptions,
    load_factor: f64,
    cycles: u64,
}

/// Whether subcommand `sub` reads the known flag `flag`. A flag it
/// would silently ignore is refused instead.
fn reads(sub: &str, flag: &str) -> bool {
    match sub {
        // One run per optimizer, and nothing written to disk.
        "compare" => !matches!(
            flag,
            "--algorithm"
                | "--run-dir"
                | "--trace-csv"
                | "--front-csv"
                | "--dot"
                | "--checkpoint-every"
                | "--crash-after-checkpoints"
                | "--load"
                | "--cycles"
        ),
        "info" => matches!(flag, "--app" | "--seed"),
        "simulate" => matches!(flag, "--app" | "--objectives" | "--seed" | "--load" | "--cycles"),
        _ => !matches!(flag, "--load" | "--cycles"),
    }
}

fn parse_run_flags(sub: &str, args: &[String]) -> Result<RunFlags, ArgsError> {
    let mut opts = RunOptions::default();
    let mut load_factor = 1.0;
    let mut cycles = 50_000;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--app" => opts.app = app_named(&value()?)?,
            "--objectives" => {
                let v = value()?;
                opts.set = v
                    .parse()
                    .ok()
                    .and_then(objective_set)
                    .ok_or_else(|| format!("--objectives must be 3, 4, or 5 (got {v})"))?;
            }
            "--algorithm" => opts.algorithm = Algorithm::parse(&value()?)?,
            "--budget" => {
                opts.budget = value()?.parse().map_err(|_| "--budget needs an integer")?;
            }
            "--population" => {
                opts.population = value()?.parse().map_err(|_| "--population needs an integer")?;
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--threads" => {
                opts.threads = value()?.parse().map_err(|_| "--threads needs an integer")?;
            }
            "--time-guard-secs" => {
                opts.time_guard = Duration::from_secs(
                    value()?.parse().map_err(|_| "--time-guard-secs needs an integer")?,
                );
            }
            "--trace-csv" => opts.trace_csv = Some(value()?),
            "--front-csv" => opts.front_csv = Some(value()?),
            "--dot" => opts.dot = Some(value()?),
            "--run-dir" => opts.run_dir = Some(value()?),
            "--checkpoint-every" => {
                opts.checkpoint_every =
                    value()?.parse().map_err(|_| "--checkpoint-every needs an integer")?;
            }
            "--crash-after-checkpoints" => {
                opts.crash_after_checkpoints = Some(
                    value()?.parse().map_err(|_| "--crash-after-checkpoints needs an integer")?,
                );
            }
            "--fault-policy" => opts.fault_policy = FaultPolicy::parse(&value()?)?,
            "--eval-retries" => {
                opts.eval_retries =
                    value()?.parse().map_err(|_| "--eval-retries needs an integer")?;
            }
            "--chaos" => opts.chaos = Some(ChaosSpec::parse(&value()?)?),
            "--chaos-seed" => {
                opts.chaos_seed =
                    Some(value()?.parse().map_err(|_| "--chaos-seed needs an integer")?);
            }
            "--progress" => opts.progress = true,
            "--log-level" => {
                let name = value()?;
                opts.log_level = LogLevel::parse(&name).ok_or_else(|| {
                    format!("--log-level must be quiet, info, or debug (got {name})")
                })?;
            }
            "--load" => load_factor = value()?.parse().map_err(|_| "--load needs a number")?,
            "--cycles" => cycles = value()?.parse().map_err(|_| "--cycles needs an integer")?,
            other => return Err(ArgsError::syntax(format!("unknown flag '{other}'"))),
        }
        if !reads(sub, flag) {
            return Err(ArgsError::contradiction(format!("{sub} does not read {flag}")));
        }
    }
    validate_run_options(&opts)?;
    Ok(RunFlags { opts, load_factor, cycles })
}

/// The largest population a run accepts, 20× the paper's `N = 50`. Flags,
/// manifests and served job specs share it, so no spec can make an
/// optimizer allocate its weight lattice and neighborhood tables
/// (`O(N²)`) without bound, nor fan a batch out to more workers than this.
const MAX_POPULATION: usize = 1_000;

/// Semantic validation shared by the flag parser and the job server's
/// spec validation, so a served job refuses exactly the configurations
/// the command line refuses.
pub fn validate_run_options(opts: &RunOptions) -> Result<(), ArgsError> {
    if opts.population < 2 {
        return Err(ArgsError::syntax("--population must be at least 2"));
    }
    if opts.population > MAX_POPULATION {
        return Err(ArgsError::syntax(format!(
            "--population must be at most {MAX_POPULATION} (got {})",
            opts.population
        )));
    }
    if opts.budget == 0 {
        return Err(ArgsError::syntax("--budget must be positive"));
    }
    if opts.checkpoint_every == 0 {
        return Err(ArgsError::syntax("--checkpoint-every must be positive"));
    }
    if opts.fault_policy == FaultPolicy::Fail && opts.eval_retries > 0 {
        return Err(ArgsError::contradiction(
            "--fault-policy fail aborts on the first fault, so --eval-retries > 0 can never \
             apply (use --fault-policy penalize-worst or skip to retry faulted candidates)",
        ));
    }
    if opts.chaos.is_some() && opts.chaos_seed.is_none() {
        return Err(ArgsError::contradiction(
            "--chaos injects a seeded fault stream and needs --chaos-seed <N> so the \
             injected faults are reproducible",
        ));
    }
    if opts.chaos_seed.is_some() && opts.chaos.is_none() {
        return Err(ArgsError::contradiction("--chaos-seed has no effect without --chaos <spec>"));
    }
    Ok(())
}

/// Looks up an application by name, ignoring case.
fn app_named(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown app '{name}'"))
}

/// The objective stack with `count` objectives.
fn objective_set(count: u64) -> Option<ObjectiveSet> {
    ObjectiveSet::ALL.into_iter().find(|s| s.count() as u64 == count)
}

/// Every key [`RunOptions::from_value`] reads: the ones
/// [`RunOptions::to_value`] writes, then `eval_cache` and `eval_delta`,
/// which earlier builds wrote and which are checked and ignored.
pub(crate) const OPTION_KEYS: [&str; 15] = [
    "algorithm",
    "app",
    "objectives",
    "budget",
    "population",
    "seed",
    "threads",
    "time_guard_secs",
    "checkpoint_every",
    "fault_policy",
    "eval_retries",
    "chaos",
    "chaos_seed",
    "eval_cache",
    "eval_delta",
];

impl RunOptions {
    /// The run configuration as the object manifests and job specs share.
    /// Output paths, crash injection and logging are per invocation and
    /// are not written.
    pub(crate) fn to_value(&self) -> Value {
        let mut fields = vec![
            ("algorithm", Value::Str(self.algorithm.name().to_owned())),
            ("app", Value::Str(self.app.name().to_owned())),
            ("objectives", Value::U64(self.set.count() as u64)),
            ("budget", Value::U64(self.budget)),
            ("population", Value::U64(self.population as u64)),
            ("seed", Value::U64(self.seed)),
            ("threads", Value::U64(self.threads as u64)),
            ("time_guard_secs", Value::U64(self.time_guard.as_secs())),
            ("checkpoint_every", Value::U64(self.checkpoint_every)),
            ("fault_policy", Value::Str(self.fault_policy.name().to_owned())),
            ("eval_retries", Value::U64(u64::from(self.eval_retries))),
        ];
        if let Some(spec) = &self.chaos {
            fields.push(("chaos", Value::Str(spec.to_string())));
        }
        if let Some(seed) = self.chaos_seed {
            fields.push(("chaos_seed", Value::U64(seed)));
        }
        Value::object(fields)
    }

    /// Reads the fields [`RunOptions::to_value`] writes over `base`, which
    /// supplies every absent key, and validates the result as the flag
    /// parser does. Keys outside [`OPTION_KEYS`] are left to the caller.
    ///
    /// # Errors
    ///
    /// An [`ArgsError`] naming the key: code 1 for a malformed value,
    /// code 2 for a contradictory combination.
    pub(crate) fn from_value(v: &Value, base: RunOptions) -> Result<RunOptions, ArgsError> {
        if !matches!(v, Value::Object(_)) {
            return Err(ArgsError::syntax(format!(
                "run options must be an object, not {}",
                v.kind()
            )));
        }
        let text = |key: &str| match v.field_opt(key) {
            Some(x) => x.as_str().map(Some).map_err(|_| format!("key '{key}' must be a string")),
            None => Ok(None),
        };
        let number = |key: &str| match v.field_opt(key) {
            Some(x) => x
                .as_u64()
                .map(Some)
                .map_err(|_| format!("key '{key}' must be a non-negative integer")),
            None => Ok(None),
        };
        let size = |key: &str| -> Result<Option<usize>, String> {
            number(key)?
                .map(|n| usize::try_from(n).map_err(|_| format!("key '{key}' is out of range")))
                .transpose()
        };
        let mut opts = base;
        if let Some(name) = text("algorithm")? {
            opts.algorithm = Algorithm::parse(name)?;
        }
        if let Some(name) = text("app")? {
            opts.app = app_named(name)?;
        }
        if let Some(n) = number("objectives")? {
            opts.set = objective_set(n)
                .ok_or_else(|| format!("key 'objectives' must be 3, 4, or 5 (got {n})"))?;
        }
        opts.budget = number("budget")?.unwrap_or(opts.budget);
        opts.population = size("population")?.unwrap_or(opts.population);
        opts.seed = number("seed")?.unwrap_or(opts.seed);
        opts.threads = size("threads")?.unwrap_or(opts.threads);
        if let Some(secs) = number("time_guard_secs")? {
            opts.time_guard = Duration::from_secs(secs);
        }
        opts.checkpoint_every = number("checkpoint_every")?.unwrap_or(opts.checkpoint_every);
        if let Some(name) = text("fault_policy")? {
            opts.fault_policy = FaultPolicy::parse(name)?;
        }
        if let Some(n) = number("eval_retries")? {
            // Refused, not truncated: 2^32 would otherwise become 0
            // retries and slip past the fail+retries check below.
            opts.eval_retries = u32::try_from(n)
                .map_err(|_| format!("key 'eval_retries' must be at most {}", u32::MAX))?;
        }
        if let Some(spec) = text("chaos")? {
            opts.chaos = Some(ChaosSpec::parse(spec)?);
        }
        if let Some(seed) = number("chaos_seed")? {
            opts.chaos_seed = Some(seed);
        }
        // Retired keys. Routing reuse is always on and its results equal
        // the reuse-free path's bit for bit, so the values are ignored.
        if let Some(x) = v.field_opt("eval_cache") {
            if x.as_bool().is_err() && x.as_u64().is_err() {
                return Err("key 'eval_cache' must be a boolean or a non-negative integer".into());
            }
        }
        if let Some(x) = v.field_opt("eval_delta") {
            x.as_bool().map_err(|_| "key 'eval_delta' must be a boolean")?;
        }
        validate_run_options(&opts)?;
        Ok(opts)
    }
}

/// The usage text.
pub const USAGE: &str = "\
moela-dse — multi-objective DSE for 3D heterogeneous manycore platforms

USAGE:
    moela-dse <SUBCOMMAND> [FLAGS]
    a subcommand refuses (exit 2) a flag it does not read

SUBCOMMANDS:
    run        run one optimizer and print its Pareto front
    resume     resume an interrupted run from its --run-dir
    serve      serve DSE jobs over HTTP (bounded queue, graceful drain)
    report     analyze a finished run directory (report.json + Perfetto
               trace) and print convergence/phase telemetry
    compare    run every optimizer at the same budget and compare PHV;
               or, with two paths, diff two finished runs/snapshots and
               fail on regression
    info       describe an application's synthesized workload
    simulate   run the flit-level NoC simulator on a random design
    version    print the build version
    help       print this text

COMMON FLAGS:
    --app <BFS|BP|GAU|HOT|PF|SC|SRAD>   workload          [BFS]
    --objectives <3|4|5>                objective stack   [3]
    --algorithm <moela|moead|moos|moo-stage|nsga2|random> [moela]
    --budget <N>                        evaluation budget [4000]
    --population <N>                    population size   [24]
    --seed <N>                          RNG seed          [11]
    --threads <N>                       evaluation worker threads, 0 = auto;
                                        results are identical for any N [1]
    --trace-csv <PATH>                  write PHV trace CSV
    --front-csv <PATH>                  write final front CSV
    --dot <PATH>                        write best design as Graphviz DOT

OBSERVABILITY FLAGS:
    --progress                          live progress line on stderr (gen,
                                        evals, evals/s, best PHV, ETA)
    --log-level <quiet|info|debug>      status verbosity [info]; quiet =
                                        artifacts only (warnings still on
                                        stderr); with --run-dir every run
                                        also writes events.jsonl and
                                        metrics.json telemetry

FAULT CONTAINMENT FLAGS:
    --fault-policy <fail|penalize-worst|skip>
                                        what to do when an evaluation
                                        faults (panic, NaN/Inf, wrong
                                        arity): abort with a structured
                                        error, quarantine behind a finite
                                        worst-case penalty, or drop the
                                        candidate [fail]
    --eval-retries <N>                  re-evaluation attempts per faulted
                                        candidate before the policy
                                        applies (not with fail) [0]
    --chaos <SPEC>                      seeded fault injection for chaos
                                        testing; SPEC is key=probability
                                        pairs, e.g. panic=0.05,nan=0.02
                                        (keys: panic, nan, inf, arity,
                                        slow); requires --chaos-seed
    --chaos-seed <N>                    seed for the chaos fault stream

RUN PERSISTENCE FLAGS:
    --run-dir <DIR>                     structured run store: manifest.json,
                                        rotating checkpoints/, trace.csv,
                                        front.csv; enables `resume`
    --checkpoint-every <N>              checkpoint cadence in steps [1]
    --crash-after-checkpoints <N>       abort after N checkpoints (crash
                                        injection for resume testing)

RESUME:
    moela-dse resume <DIR> [--threads N] [--checkpoint-every N]
                           [--progress] [--log-level L]
    continues an interrupted `run --run-dir DIR` from its newest intact
    checkpoint; the finished trace.csv and front.csv are byte-identical
    to an uninterrupted run at any thread count

REPORT:
    moela-dse report <DIR> [--log-level L]
    replays DIR/events.jsonl and joins it with the deterministic
    artifacts into DIR/report.json (convergence telemetry, exact phase
    p50/p90/p99, operator attribution, cache/fault trends) and
    DIR/trace.chrome.json (open at https://ui.perfetto.dev); tolerates
    a torn final event line after SIGKILL

COMPARE (every optimizer):
    moela-dse compare [--app A] [--objectives N] [--budget N]
                      [--population N] [--seed N] [--threads N]
                      [fault containment flags] [--progress] [--log-level L]
    runs each optimizer on the same configuration and prints one PHV
    row per optimizer; writes no files

COMPARE (regression gate):
    moela-dse compare <BASELINE> <CANDIDATE>
                      [--max-phv-regression F] [--max-rate-regression F]
    each path is a finished run directory or a BENCH_*.json snapshot;
    prints per-algorithm PHV and throughput deltas and exits 3 when the
    candidate regresses past a threshold (defaults: PHV 0.01, rate 0.2)

INFO:
    moela-dse info [--app A] [--seed N]
    describes the application's synthesized workload

SIMULATE:
    moela-dse simulate [--app A] [--objectives N] [--seed N]
                       [--load F] [--cycles N]
    --load <F>                          injection multiplier [1.0]
    --cycles <N>                        measured cycles      [50000]

SERVE:
    moela-dse serve --run-root <DIR> [--addr HOST:PORT] [--workers N]
                    [--queue-depth N] [--checkpoint-every N]
                    [--addr-file PATH] [--max-attempts N]
                    [--retry-base-ms N] [--stall-timeout-s N]
                    [--stall-grace-s N]
    embedded DSE job server: POST /jobs submits a run spec (the same
    fields as `run` flags, plus timeout_s for a per-job wall-clock
    deadline), GET /jobs/{id} polls state and live phase metrics,
    GET /jobs/{id}/front fetches the finished front, DELETE cancels
    at the next checkpoint, POST /shutdown drains gracefully; a full
    queue answers 429 with Retry-After. Interrupted jobs are
    rediscovered from --run-root and resumed on restart. Every job is
    supervised: transient failures (I/O errors, exhausted fault
    budgets, runner panics) retry from the last checkpoint with
    exponential backoff until --max-attempts, then quarantine; a
    watchdog interrupts jobs whose step heartbeat goes quiet for
    --stall-timeout-s and abandons workers that stay stuck past
    --stall-grace-s more. GET /healthz reports liveness, GET /readyz
    readiness (503 while draining or disk-degraded). Defaults:
    --addr 127.0.0.1:7774, --workers 2, --queue-depth 16,
    --max-attempts 3, --retry-base-ms 1000, --stall-timeout-s 30,
    --stall-grace-s 60.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).expect("ok"), Command::Help);
        assert_eq!(parse(&argv("help")).expect("ok"), Command::Help);
    }

    #[test]
    fn run_parses_all_flags() {
        let cmd = parse(&argv(
            "run --app HOT --objectives 5 --algorithm moead --budget 999 \
             --population 10 --seed 3 --threads 4 --trace-csv t.csv --front-csv f.csv",
        ))
        .expect("ok");
        let Command::Run(o) = cmd else { panic!("expected Run") };
        assert_eq!(o.app, Benchmark::Hot);
        assert_eq!(o.set, ObjectiveSet::Five);
        assert_eq!(o.algorithm, Algorithm::Moead);
        assert_eq!(o.budget, 999);
        assert_eq!(o.population, 10);
        assert_eq!(o.seed, 3);
        assert_eq!(o.threads, 4);
        assert_eq!(o.trace_csv.as_deref(), Some("t.csv"));
        assert_eq!(o.front_csv.as_deref(), Some("f.csv"));
        assert_eq!(o.dot, None);
    }

    #[test]
    fn unknown_values_are_reported_with_context() {
        let err = parse(&argv("run --app NOPE")).expect_err("bad app");
        assert!(err.message.contains("NOPE"));
        assert_eq!(err.code, 1);
        let err = parse(&argv("run --objectives 7")).expect_err("bad set");
        assert!(err.message.contains("7"));
        let err = parse(&argv("frobnicate")).expect_err("bad subcommand");
        assert!(err.message.contains("frobnicate"));
        let err = parse(&argv("run --algorithm simulated-annealing")).expect_err("bad algo");
        assert!(err.message.contains("simulated-annealing"));
    }

    #[test]
    fn simulate_extracts_its_own_flags() {
        let cmd = parse(&argv("simulate --app GAU --load 2.5 --cycles 123 --seed 9")).expect("ok");
        let Command::Simulate { options, load_factor, cycles } = cmd else {
            panic!("expected Simulate")
        };
        assert_eq!(options.app, Benchmark::Gau);
        assert_eq!(options.seed, 9);
        assert!((load_factor - 2.5).abs() < 1e-12);
        assert_eq!(cycles, 123);
    }

    #[test]
    fn subcommands_refuse_flags_they_do_not_read() {
        for (args, flag) in [
            ("compare --budget 50 --run-dir out", "--run-dir"),
            ("compare --algorithm moela", "--algorithm"),
            ("compare --trace-csv t.csv", "--trace-csv"),
            ("compare --crash-after-checkpoints 1", "--crash-after-checkpoints"),
            ("info --run-dir out", "--run-dir"),
            ("info --app HOT --budget 5", "--budget"),
            ("simulate --progress --load 2.0", "--progress"),
            ("simulate --algorithm nsga2", "--algorithm"),
            ("run --load 2.0", "--load"),
        ] {
            let err = parse(&argv(args)).expect_err(args);
            assert_eq!(err.code, 2, "{args}: {}", err.message);
            assert!(err.message.contains(flag), "{args}: {}", err.message);
        }
        // Unknown flags stay syntax errors.
        assert_eq!(parse(&argv("info --bogus")).expect_err("unknown").code, 1);
    }

    #[test]
    fn each_subcommand_accepts_the_flags_it_reads() {
        let cmd = parse(&argv("info --app HOT --seed 4")).expect("info");
        assert_eq!(cmd, Command::Info { app: Benchmark::Hot, seed: 4 });
        let cmd = parse(&argv("simulate --load 2.0 --objectives 4 --cycles 10")).expect("sim");
        let Command::Simulate { options, load_factor, cycles } = cmd else {
            panic!("expected Simulate")
        };
        assert_eq!((options.set, load_factor, cycles), (ObjectiveSet::Four, 2.0, 10));
        let cmd = parse(&argv(
            "compare --budget 50 --threads 2 --progress --log-level quiet \
             --fault-policy skip --eval-retries 1 --chaos nan=0.1 --chaos-seed 3",
        ))
        .expect("compare");
        let Command::Compare(o) = cmd else { panic!("expected Compare") };
        assert_eq!((o.budget, o.threads, o.eval_retries), (50, 2, 1));
    }

    #[test]
    fn validation_rejects_degenerate_budgets() {
        assert!(parse(&argv("run --population 1")).is_err());
        let err = parse(&argv("run --population 1001")).expect_err("above the bound");
        assert!(err.message.contains("at most 1000"), "{}", err.message);
        assert!(parse(&argv("run --population 1000")).is_ok());
        assert!(parse(&argv("run --budget 0")).is_err());
    }

    #[test]
    fn run_parses_persistence_flags() {
        let cmd = parse(&argv("run --run-dir out/run1 --checkpoint-every 5")).expect("ok");
        let Command::Run(o) = cmd else { panic!("expected Run") };
        assert_eq!(o.run_dir.as_deref(), Some("out/run1"));
        assert_eq!(o.checkpoint_every, 5);
        assert_eq!(o.crash_after_checkpoints, None);
        assert!(parse(&argv("run --checkpoint-every 0")).is_err());
    }

    #[test]
    fn resume_parses_dir_and_overrides() {
        let cmd = parse(&argv(
            "resume out/run1 --threads 4 --crash-after-checkpoints 2 --progress --log-level quiet",
        ))
        .expect("ok");
        let Command::Resume {
            dir,
            threads,
            checkpoint_every,
            crash_after_checkpoints,
            progress,
            log_level,
        } = cmd
        else {
            panic!("expected Resume")
        };
        assert_eq!(dir, "out/run1");
        assert_eq!(threads, Some(4));
        assert_eq!(checkpoint_every, None);
        assert_eq!(crash_after_checkpoints, Some(2));
        assert!(progress);
        assert_eq!(log_level, LogLevel::Quiet);
        assert!(parse(&argv("resume")).is_err());
        assert!(parse(&argv("resume a b")).is_err());
    }

    #[test]
    fn report_parses_dir_and_log_level() {
        let cmd = parse(&argv("report out/run1 --log-level quiet")).expect("ok");
        assert_eq!(cmd, Command::Report { dir: "out/run1".into(), log_level: LogLevel::Quiet });
        assert!(parse(&argv("report")).is_err());
        assert!(parse(&argv("report a b")).is_err());
        assert!(parse(&argv("report a --what")).is_err());
    }

    #[test]
    fn compare_with_two_paths_is_the_regression_gate() {
        let cmd = parse(&argv("compare out/a out/b")).expect("ok");
        let Command::CompareRuns { baseline, candidate, max_phv_regression, max_rate_regression } =
            cmd
        else {
            panic!("expected CompareRuns")
        };
        assert_eq!(baseline, "out/a");
        assert_eq!(candidate, "out/b");
        assert_eq!(max_phv_regression, 0.01);
        assert_eq!(max_rate_regression, 0.2);

        let cmd = parse(&argv(
            "compare BENCH_a.json BENCH_b.json --max-phv-regression 0.05 \
             --max-rate-regression 0.5",
        ))
        .expect("ok");
        let Command::CompareRuns { max_phv_regression, max_rate_regression, .. } = cmd else {
            panic!("expected CompareRuns")
        };
        assert_eq!(max_phv_regression, 0.05);
        assert_eq!(max_rate_regression, 0.5);

        assert!(parse(&argv("compare out/a")).is_err(), "one path is not enough");
        assert!(parse(&argv("compare a b c")).is_err());
        assert!(parse(&argv("compare a b --max-phv-regression 2")).is_err());

        // Flag-only compare keeps its historical meaning: run every
        // algorithm at one budget.
        let cmd = parse(&argv("compare --budget 50")).expect("ok");
        assert!(matches!(cmd, Command::Compare(_)));
    }

    #[test]
    fn observability_flags_parse() {
        let Command::Run(o) = parse(&argv("run --progress --log-level debug")).expect("ok") else {
            panic!("expected Run")
        };
        assert!(o.progress);
        assert_eq!(o.log_level, LogLevel::Debug);

        let Command::Run(o) = parse(&argv("run")).expect("ok") else { panic!("expected Run") };
        assert!(!o.progress);
        assert_eq!(o.log_level, LogLevel::Info);

        let err = parse(&argv("run --log-level loud")).expect_err("bad level");
        assert_eq!(err.code, 1);
        assert!(err.message.contains("loud"));
    }

    #[test]
    fn version_has_three_spellings() {
        for v in ["version", "--version", "-V"] {
            assert_eq!(parse(&argv(v)).expect("ok"), Command::Version);
        }
    }

    #[test]
    fn every_algorithm_name_round_trips() {
        for (algo, name) in Algorithm::ALL {
            assert_eq!(Algorithm::parse(name).expect("ok"), algo);
            assert_eq!(algo.name(), name);
        }
    }

    #[test]
    fn retired_cache_flags_are_refused() {
        for gone in ["run --eval-cache on", "run --eval-cache off", "run --eval-delta off"] {
            let err = parse(&argv(gone)).expect_err("no longer accepted");
            assert_eq!(err.code, 1, "{gone}");
        }
    }

    /// A fully set configuration, as `to_value` writes it.
    fn chaotic_options() -> RunOptions {
        let Command::Run(o) = parse(&argv(
            "run --app HOT --objectives 4 --algorithm moo-stage --budget 77 --population 6 \
             --seed 5 --threads 3 --time-guard-secs 9 --checkpoint-every 2 \
             --fault-policy skip --eval-retries 2 --chaos panic=0.1 --chaos-seed 4",
        ))
        .expect("ok") else {
            panic!("expected Run")
        };
        o
    }

    /// `to_value` keeps exactly what `from_value` reads, and `from_value`
    /// fills every absent key from its base.
    #[test]
    fn option_values_round_trip_over_a_base() {
        let opts = chaotic_options();
        let v = opts.to_value();
        let Value::Object(fields) = &v else { panic!("an object") };
        for (key, _) in fields {
            assert!(OPTION_KEYS.contains(&key.as_str()), "{key} is read back");
        }
        assert_eq!(RunOptions::from_value(&v, RunOptions::default()).expect("valid"), opts);
        let base = RunOptions { log_level: LogLevel::Quiet, ..RunOptions::default() };
        let empty = Value::object(vec![]);
        assert_eq!(RunOptions::from_value(&empty, base.clone()).expect("valid"), base);
        let err = RunOptions::from_value(&Value::Array(vec![]), base).expect_err("not an object");
        assert!(err.message.contains("object"), "{}", err.message);
    }

    /// Values the codec refuses name their key; contradictions exit 2
    /// exactly as the flags do.
    #[test]
    fn option_values_are_validated_like_flags() {
        let read = |fields: Vec<(&str, Value)>| {
            RunOptions::from_value(&Value::object(fields), RunOptions::default())
        };
        let cases = [
            (vec![("app", Value::Str("NOPE".into()))], "NOPE", 1),
            (vec![("objectives", Value::U64(7))], "objectives", 1),
            (vec![("budget", Value::Str("9".into()))], "budget", 1),
            (vec![("population", Value::U64(1))], "population", 1),
            (vec![("population", Value::U64(4_000_000_000))], "at most 1000", 1),
            (vec![("checkpoint_every", Value::U64(0))], "checkpoint-every", 1),
            (vec![("chaos", Value::Str("panic=0.5".into()))], "chaos-seed", 2),
            (vec![("chaos_seed", Value::U64(3))], "chaos-seed", 2),
            (
                vec![("fault_policy", Value::Str("fail".into())), ("eval_retries", Value::U64(3))],
                "eval-retries",
                2,
            ),
        ];
        for (fields, names, code) in cases {
            let err = read(fields).expect_err(names);
            assert!(err.message.contains(names), "{names}: {}", err.message);
            assert_eq!(err.code, code, "{names}");
        }

        // An `eval_retries` beyond `u32` is refused, not truncated: 2^32
        // would otherwise become 0 retries and pass the fail+retries check.
        let err = read(vec![
            ("eval_retries", Value::U64(1 << 32)),
            ("fault_policy", Value::Str("fail".into())),
        ])
        .expect_err("2^32 retries do not fit");
        assert!(err.message.contains("eval_retries"), "{}", err.message);
        let opts = read(vec![
            ("eval_retries", Value::U64(u64::from(u32::MAX))),
            ("fault_policy", Value::Str("skip".into())),
        ])
        .expect("u32::MAX fits");
        assert_eq!(opts.eval_retries, u32::MAX);
    }

    /// Manifests and job specs from earlier builds carry `eval_cache` as a
    /// boolean or a memo capacity, and a boolean `eval_delta`. Both are
    /// read and ignored; a value of another type is refused.
    #[test]
    fn retired_keys_are_read_and_ignored() {
        let opts = chaotic_options();
        for cache in [Value::Bool(true), Value::Bool(false), Value::U64(4096), Value::U64(0)] {
            for delta in [true, false] {
                let Value::Object(mut fields) = opts.to_value() else { panic!("an object") };
                fields.push(("eval_cache".to_owned(), cache.clone()));
                fields.push(("eval_delta".to_owned(), Value::Bool(delta)));
                let read = RunOptions::from_value(&Value::Object(fields), RunOptions::default());
                assert_eq!(read.expect("an earlier file reads"), opts, "{cache:?}, {delta}");
            }
        }
        for (key, bad) in [
            ("eval_cache", Value::Str("on".into())),
            ("eval_cache", Value::I64(-1)),
            ("eval_delta", Value::U64(1)),
        ] {
            let v = Value::object(vec![(key, bad)]);
            let err = RunOptions::from_value(&v, RunOptions::default()).expect_err(key);
            assert!(err.message.contains(key), "{}", err.message);
        }
    }

    #[test]
    fn fault_and_chaos_flags_parse() {
        let cmd = parse(&argv(
            "run --fault-policy skip --eval-retries 2 --chaos panic=0.1,nan=0.05 --chaos-seed 7",
        ))
        .expect("ok");
        let Command::Run(o) = cmd else { panic!("expected Run") };
        assert_eq!(o.fault_policy, FaultPolicy::Skip);
        assert_eq!(o.eval_retries, 2);
        let spec = o.chaos.expect("chaos set");
        assert_eq!(spec.panic, 0.1);
        assert_eq!(spec.nan, 0.05);
        assert_eq!(o.chaos_seed, Some(7));
        assert_eq!(o.fault().policy, FaultPolicy::Skip);
        assert_eq!(o.fault().retries, 2);
    }

    #[test]
    fn defaults_match_the_pre_containment_behavior() {
        let Command::Run(o) = parse(&argv("run")).expect("ok") else { panic!("expected Run") };
        assert_eq!(o.fault_policy, FaultPolicy::Fail);
        assert_eq!(o.eval_retries, 0);
        assert_eq!(o.chaos, None);
        assert_eq!(o.chaos_seed, None);
    }

    #[test]
    fn contradictory_combinations_exit_with_code_2() {
        let err = parse(&argv("run --fault-policy fail --eval-retries 1"))
            .expect_err("fail + retries is contradictory");
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--eval-retries"));

        let err = parse(&argv("run --chaos panic=0.5")).expect_err("chaos needs a seed");
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--chaos-seed"));

        let err = parse(&argv("run --chaos-seed 3")).expect_err("seed without chaos");
        assert_eq!(err.code, 2);

        // Retries with a non-fail policy are fine.
        assert!(parse(&argv("run --fault-policy skip --eval-retries 1")).is_ok());
    }

    #[test]
    fn serve_parses_flags_and_validates() {
        let cmd = parse(&argv(
            "serve --run-root out/jobs --addr 0.0.0.0:0 --workers 3 --queue-depth 5 \
             --checkpoint-every 4 --addr-file out/addr --max-attempts 5 --retry-base-ms 250 \
             --stall-timeout-s 10 --stall-grace-s 20",
        ))
        .expect("ok");
        let Command::Serve(o) = cmd else { panic!("expected Serve") };
        assert_eq!(o.run_root, "out/jobs");
        assert_eq!(o.addr, "0.0.0.0:0");
        assert_eq!(o.workers, 3);
        assert_eq!(o.queue_depth, 5);
        assert_eq!(o.checkpoint_every, 4);
        assert_eq!(o.addr_file.as_deref(), Some("out/addr"));
        assert_eq!(o.max_attempts, 5);
        assert_eq!(o.retry_base_ms, 250);
        assert_eq!(o.stall_timeout_s, 10);
        assert_eq!(o.stall_grace_s, 20);

        let Command::Serve(o) = parse(&argv("serve --run-root r")).expect("defaults") else {
            panic!("expected Serve")
        };
        assert_eq!(o.addr, "127.0.0.1:7774");
        assert_eq!(o.workers, 2);
        assert_eq!(o.queue_depth, 16);
        assert_eq!(o.max_attempts, 3);
        assert_eq!(o.retry_base_ms, 1_000);
        assert_eq!(o.stall_timeout_s, 30);
        assert_eq!(o.stall_grace_s, 60);

        assert!(parse(&argv("serve")).is_err());
        assert!(parse(&argv("serve --run-root r --workers 0")).is_err());
        assert!(parse(&argv("serve --run-root r --queue-depth 0")).is_err());
        assert!(parse(&argv("serve --run-root r --what no")).is_err());
        assert!(parse(&argv("serve --run-root r --max-attempts 0")).is_err());
        assert!(parse(&argv("serve --run-root r --retry-base-ms 0")).is_err());
        assert!(parse(&argv("serve --run-root r --stall-timeout-s 0")).is_err());
    }

    #[test]
    fn malformed_chaos_specs_are_syntax_errors() {
        let err = parse(&argv("run --chaos panik=0.1 --chaos-seed 1")).expect_err("bad key");
        assert_eq!(err.code, 1);
        assert!(err.message.contains("panik"));
        let err = parse(&argv("run --fault-policy explode")).expect_err("bad policy");
        assert_eq!(err.code, 1);
        assert!(err.message.contains("explode"));
    }
}
