//! `dse-bench run`: the measurement protocol.
//!
//! A closed loop with one client: each `moela-dse` child starts only after
//! the previous one exits, and only one (single-threaded) child runs at a
//! time. One discarded warm-up child per workload at the smoke budget
//! comes first. Then every timed round runs each workload, in turn, on
//! each input of its mix, so drift on a shared host hits every workload
//! alike; a round's sample is the mean over the mix. Then, with tracing
//! on, one traced in-process run per workload splits the time by layer.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use moela_persist::Value;

use crate::child::{self, RunArtifacts};
use crate::gate;
use crate::spec::{input_seed, Metrics, Workload, INPUTS, SMOKE_BUDGET};
use crate::stats::{self, Summary};
use crate::traced;

/// Scratch space for run directories, one subdirectory per process.
pub const WORK_ROOT: &str = ".dse-bench";

/// The untraced per-round samples, in report order.
pub const SAMPLES: [&str; 5] = ["wall_s", "setup_s", "evals_per_s", "peak_rss_mb", "phv"];

type Sample = [f64; SAMPLES.len()];

/// How many timed rounds to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Length {
    Rounds(usize),
    /// Run rounds for about this many seconds (at least one round).
    Seconds(f64),
}

/// Options of `dse-bench run`.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub length: Length,
    pub workloads: Vec<Workload>,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    pub moela_dse: PathBuf,
}

/// Everything measured and checked for one workload.
struct WorkloadRun {
    workload: Workload,
    budget: u64,
    /// Per metric, the mix mean of every complete round.
    samples: [Vec<f64>; SAMPLES.len()],
    inputs: Vec<InputRun>,
    attempted: u64,
    failures: Vec<String>,
    layers: Vec<(&'static str, f64)>,
}

/// One input of a workload's mix.
struct InputRun {
    seed: u64,
    /// Per metric, one sample per checked child run.
    samples: [Vec<f64>; SAMPLES.len()],
    /// The first run's artifacts; later runs must match them.
    first: Option<RunArtifacts>,
}

impl InputRun {
    /// Keeps a child's sample when its outputs match the first run's.
    fn record(&mut self, sample: Sample, artifacts: RunArtifacts) -> Result<(), String> {
        if let Some(first) = &self.first {
            if first.front_json != artifacts.front_json || first.trace_json != artifacts.trace_json
            {
                return Err("front.json or trace.json differs from the first run".to_owned());
            }
        }
        for (list, v) in self.samples.iter_mut().zip(sample) {
            list.push(v);
        }
        self.first.get_or_insert(artifacts);
        Ok(())
    }
}

impl WorkloadRun {
    fn fail(&mut self, what: &str, error: String) {
        self.failures.push(format!("{what}: {error}"));
    }

    fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// One timed round: every input of the mix once.
    fn round(&mut self, opts: &Options, work: &Path, round: usize) {
        let mut complete = true;
        for i in 0..INPUTS {
            self.attempted += 1;
            let dir = work.join(format!("{}-{i}", self.workload.name));
            let outcome = child_round(opts, &self.workload, self.budget, self.inputs[i].seed, &dir)
                .and_then(|(sample, artifacts)| self.inputs[i].record(sample, artifacts));
            if let Err(e) = outcome {
                complete = false;
                self.fail(&format!("round {round} input {i}"), e);
            }
        }
        if complete {
            for (m, list) in self.samples.iter_mut().enumerate() {
                let last = self.inputs.iter().filter_map(|input| input.samples[m].last());
                list.push(last.sum::<f64>() / INPUTS as f64);
            }
        }
    }
}

/// The finished run: what to print and what to write.
pub struct Report {
    pub lines: Vec<String>,
    pub result: Value,
    pub summary: Value,
    pub correct: bool,
}

/// Runs the protocol. `Err` only for failures of the benchmark itself
/// (its scratch directory, its output file); failures of the program
/// under test are counted and reported.
pub fn run(opts: &Options, metrics: &Metrics) -> Result<Report, String> {
    let work = Path::new(WORK_ROOT).join(std::process::id().to_string());
    let out_dir = opts.out.parent().unwrap_or(Path::new("")).to_path_buf();
    for dir in [&work, &out_dir] {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut runs: Vec<WorkloadRun> = opts
        .workloads
        .iter()
        .map(|&workload| WorkloadRun {
            workload,
            budget: if opts.smoke { SMOKE_BUDGET } else { workload.budget },
            samples: Default::default(),
            inputs: (0..INPUTS)
                .map(|i| InputRun {
                    seed: input_seed(opts.seed, i),
                    samples: Default::default(),
                    first: None,
                })
                .collect(),
            attempted: 0,
            failures: Vec::new(),
            layers: Vec::new(),
        })
        .collect();

    if !opts.smoke {
        for r in &mut runs {
            let dir = work.join(format!("{}-warmup", r.workload.name));
            if let Err(e) = child_round(opts, &r.workload, SMOKE_BUDGET, r.inputs[0].seed, &dir) {
                r.attempted += 1;
                r.fail("warm-up", e);
            }
        }
    }

    let start = Instant::now();
    let mut rounds = 0;
    while match opts.length {
        Length::Rounds(k) => rounds < k,
        // Start another round unless it would end more than half a round
        // past the deadline.
        Length::Seconds(s) => {
            let elapsed = start.elapsed().as_secs_f64();
            rounds == 0 || elapsed + 0.5 * elapsed / (rounds as f64) < s
        }
    } {
        for r in &mut runs {
            r.round(opts, &work, rounds);
        }
        rounds += 1;
    }

    if opts.trace {
        for r in &mut runs {
            r.attempted += 1;
            let dir = work.join(format!("{}-traced", r.workload.name));
            match traced_round(r, &dir, &out_dir) {
                Ok(layers) => r.layers = layers,
                Err(e) => r.fail("traced run", e),
            }
        }
    }
    // Best effort: a leftover scratch directory is harmless.
    let _ = std::fs::remove_dir_all(&work);

    let report = report(opts, metrics, &runs, rounds)?;
    std::fs::write(&opts.out, moela_persist::encode::to_string(&report.result))
        .map_err(|e| format!("cannot write {}: {e}", opts.out.display()))?;
    Ok(report)
}

/// One untraced child run of `workload` at `budget` on input `seed`,
/// checked, with its samples in [`SAMPLES`] order.
fn child_round(
    opts: &Options,
    workload: &Workload,
    budget: u64,
    seed: u64,
    dir: &Path,
) -> Result<(Sample, RunArtifacts), String> {
    // A reused directory would append to the old events.jsonl.
    let _ = std::fs::remove_dir_all(dir);
    let mut cmd = Command::new(&opts.moela_dse);
    cmd.arg("run")
        .args(workload.args(budget))
        .args(["--seed", &seed.to_string(), "--log-level", "quiet", "--run-dir"])
        .arg(dir);
    let child = child::run_measured(cmd)?;
    if !child.status.success() {
        return Err(format!("moela-dse failed ({})", child.status));
    }
    let artifacts = RunArtifacts::read(dir)?;
    let _ = std::fs::remove_dir_all(dir);
    gate::check_child(&artifacts, workload.objectives.count())?;
    let span_s = artifacts.number(&["telemetry", "wall_us"])? / 1e6;
    let evaluations = artifacts.number(&["telemetry", "counters", "evaluations"])?;
    let rss_kib = child.vm_hwm_kib.ok_or("no VmHWM sample was taken")?;
    let phv = artifacts.number(&["telemetry", "gauges", "phv"])?;
    let sample =
        [child.wall_s, child.wall_s - span_s, evaluations / span_s, rss_kib as f64 / 1024.0, phv];
    Ok((sample, artifacts))
}

/// The traced run of input 0, checked against that input's untraced
/// front, with its spans exported for Perfetto into `out_dir`.
fn traced_round(
    r: &WorkloadRun,
    dir: &Path,
    out_dir: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let input = &r.inputs[0];
    let first = input.first.as_ref().ok_or("no untraced run to check the traced run against")?;
    let _ = std::fs::remove_dir_all(dir);
    let traced = traced::run(&r.workload, r.budget, input.seed, dir)?;
    let _ = std::fs::remove_dir_all(dir);
    gate::check_traced(&traced, &first.front()?, &r.workload, input.seed)?;
    let chrome = out_dir.join(format!("{}.trace.chrome.json", r.workload.name));
    std::fs::write(&chrome, moela_persist::encode::to_string(&traced.chrome_trace()))
        .map_err(|e| format!("cannot write {}: {e}", chrome.display()))?;
    let untraced = stats::median(&input.samples[0]).ok_or("no untraced wall time")?;
    Ok(traced.layer_metrics(untraced))
}

/// Builds the printed lines, the result document (every sample) and the
/// one-line summary.
fn report(
    opts: &Options,
    metrics: &Metrics,
    runs: &[WorkloadRun],
    rounds: usize,
) -> Result<Report, String> {
    let mut lines = Vec::new();
    let mut summary_metrics = Vec::new();
    let key = |r: &WorkloadRun, m: &str| {
        if runs.len() == 1 {
            m.to_owned()
        } else {
            format!("{}.{m}", r.workload.name)
        }
    };
    for r in runs {
        let name = r.workload.name;
        for (metric, list) in SAMPLES.iter().zip(&r.samples) {
            let Some(s) = Summary::of(list) else { continue };
            let unit = metrics.unit(metric).unwrap_or("-");
            lines.push(format!(
                "{name} {metric} {} {unit} [{}..{}] n={}",
                s.median, s.min, s.max, s.n
            ));
        }
        let unit = metrics.unit("error_rate").unwrap_or("-");
        lines.push(format!("{name} error_rate {} {unit} n={}", r.error_rate(), r.attempted));
        for &(metric, value) in &r.layers {
            let unit = metrics.unit(metric).unwrap_or("-");
            lines.push(format!("{name} {metric} {value} {unit}"));
            if opts.trace {
                summary_metrics.push((key(r, metric), value, unit.to_owned()));
            }
        }
        if !opts.trace {
            for metric in &metrics.end_to_end {
                let i = SAMPLES.iter().position(|&m| m == metric.name).ok_or_else(|| {
                    format!("BENCHMARK.json names unknown metric '{}'", metric.name)
                })?;
                if let Some(median) = stats::median(&r.samples[i]) {
                    summary_metrics.push((key(r, &metric.name), median, metric.unit.clone()));
                }
            }
        }
        for failure in &r.failures {
            lines.push(format!("{name} FAILED {failure}"));
        }
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failures.len() as u64).sum();
    let correct = failed == 0 && runs.iter().all(|r| !r.samples[0].is_empty());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let (rounds_asked, seconds_asked) = match opts.length {
        Length::Rounds(k) => (Value::U64(k as u64), Value::Null),
        Length::Seconds(s) => (Value::Null, Value::F64(s)),
    };
    let workload_args = runs
        .iter()
        .map(|r| {
            Value::object(vec![
                ("name", Value::Str(r.workload.name.to_owned())),
                ("args", Value::Str(r.workload.args(r.budget).join(" "))),
            ])
        })
        .collect();
    let protocol = Value::object(vec![
        ("seed", Value::U64(opts.seed)),
        ("inputs", Value::U64(INPUTS as u64)),
        ("rounds", rounds_asked),
        ("seconds", seconds_asked),
        ("nproc", Value::U64(nproc)),
        ("workloads", Value::Array(workload_args)),
    ]);
    let samples = |lists: &[Vec<f64>; SAMPLES.len()]| {
        Value::Object(
            SAMPLES.iter().zip(lists).map(|(m, l)| (m.to_string(), Value::f64_array(l))).collect(),
        )
    };
    let crc = |text: Option<&String>| {
        text.map_or(Value::Null, |t| {
            Value::Str(format!("{:08x}", moela_persist::crc32::crc32(t.as_bytes())))
        })
    };
    let workloads = runs
        .iter()
        .map(|r| {
            let inputs = r
                .inputs
                .iter()
                .map(|input| {
                    Value::object(vec![
                        ("seed", Value::U64(input.seed)),
                        ("samples", samples(&input.samples)),
                    ])
                })
                .collect();
            let crcs = |text: fn(&RunArtifacts) -> &String| {
                Value::Array(r.inputs.iter().map(|i| crc(i.first.as_ref().map(text))).collect())
            };
            Value::object(vec![
                ("name", Value::Str(r.workload.name.to_owned())),
                ("attempted", Value::U64(r.attempted)),
                ("failed", Value::U64(r.failures.len() as u64)),
                ("error_rate", Value::F64(r.error_rate())),
                (
                    "failures",
                    Value::Array(r.failures.iter().map(|f| Value::Str(f.clone())).collect()),
                ),
                ("front_crc32", crcs(|a| &a.front_json)),
                ("trace_crc32", crcs(|a| &a.trace_json)),
                ("samples", samples(&r.samples)),
                ("inputs", Value::Array(inputs)),
                (
                    "layers",
                    Value::Object(
                        r.layers.iter().map(|&(m, v)| (m.to_owned(), Value::F64(v))).collect(),
                    ),
                ),
            ])
        })
        .collect();
    let result = Value::object(vec![
        ("protocol", protocol),
        ("rounds_run", Value::U64(rounds as u64)),
        ("correct", Value::Bool(correct)),
        ("workloads", Value::Array(workloads)),
    ]);
    let summary_metrics = summary_metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (name, Value::object(vec![("value", Value::F64(value)), ("unit", Value::Str(unit))]))
        })
        .collect();
    let summary = Value::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Object(summary_metrics)),
    ]);
    Ok(Report { lines, result, summary, correct })
}
