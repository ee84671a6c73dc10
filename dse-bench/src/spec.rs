//! What the benchmark runs and how it judges the numbers: the workload
//! table (kept here, next to the code that runs it) and the metric
//! definitions read from the repository's `BENCHMARK.json`, which is the
//! single source of metric names, units, directions and bounds.

use moela_manycore::ObjectiveSet;
use moela_persist::Value;
use moela_traffic::Benchmark;

/// The benchmark definition, compiled in so the binary and the file
/// cannot disagree.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Population size and checkpoint cadence every workload shares: the
/// `moela-dse run` defaults a user gets.
pub const POPULATION: usize = 24;
pub const CHECKPOINT_EVERY: u64 = 1;

/// The budget of the warm-up round and of `--smoke` runs.
pub const SMOKE_BUDGET: u64 = 200;

/// Inputs per workload mix. Run time depends on the input as well as on
/// the host (MOO-STAGE's surrogate cost differs by ±12% from seed to
/// seed), so every round runs each workload on this many inputs and
/// reports their mean: one benchmark seed stands for a mix, not a draw.
pub const INPUTS: usize = 4;

/// The `moela-dse --seed` of input `i` of the mix for benchmark seed
/// `seed`; distinct benchmark seeds give disjoint mixes.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(INPUTS as u64).wrapping_add(i as u64)
}

/// The optimizers the workloads exercise.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Algorithm {
    Moela,
    Nsga2,
    MooStage,
}

impl Algorithm {
    /// The `moela-dse --algorithm` spelling.
    pub fn cli_name(self) -> &'static str {
        match self {
            Algorithm::Moela => "moela",
            Algorithm::Nsga2 => "nsga2",
            Algorithm::MooStage => "moo-stage",
        }
    }
}

/// One workload: a `moela-dse run` configuration on the paper platform.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub algorithm: Algorithm,
    pub app: Benchmark,
    pub objectives: ObjectiveSet,
    pub budget: u64,
}

/// The workloads, chosen to separate learned-surrogate time from
/// objective-evaluation time (README.md gives the reasoning per row).
pub const WORKLOADS: [Workload; 3] = [
    // The paper's algorithm on a balanced mix: delta-patched local search,
    // surrogate fits and checkpoints all cost time.
    Workload {
        name: "moela-hot",
        algorithm: Algorithm::Moela,
        app: Benchmark::Hot,
        objectives: ObjectiveSet::Three,
        budget: 3000,
    },
    // Every evaluation routes a new topology on the densest traffic; no
    // surrogate and no delta path run, so ML/delta changes must not move it.
    Workload {
        name: "nsga2-gau-5obj",
        algorithm: Algorithm::Nsga2,
        app: Benchmark::Gau,
        objectives: ObjectiveSet::Five,
        budget: 3000,
    },
    // Surrogate fits dominate on the sparsest traffic and evaluation is
    // served by delta patching, so routing changes should not move it.
    Workload {
        name: "moostage-bfs",
        algorithm: Algorithm::MooStage,
        app: Benchmark::Bfs,
        objectives: ObjectiveSet::Three,
        budget: 1500,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The `moela-dse run` flags that define this workload at `budget`
    /// (everything but the seed and the run directory).
    pub fn args(&self, budget: u64) -> Vec<String> {
        [
            "--algorithm",
            self.algorithm.cli_name(),
            "--app",
            self.app.name(),
            "--objectives",
            &self.objectives.count().to_string(),
            "--budget",
            &budget.to_string(),
            "--population",
            &POPULATION.to_string(),
            "--checkpoint-every",
            &CHECKPOINT_EVERY.to_string(),
            "--threads",
            "1",
        ]
        .map(str::to_owned)
        .to_vec()
    }
}

/// Two end-to-end gates kept beside the `BENCHMARK.json` bounds, as
/// (name, unit, direction, bound). That file may only hold metrics that
/// are never 0 and steady across seeds; a healthy `error_rate` is 0, and
/// `phv` is a property of each seed's search. On one seed both repeat
/// exactly, so `compare` holds them to these bounds.
pub const EXTRA_GATES: [(&str, &str, Better, f64); 2] =
    [("phv", "hv", Better::Higher, 0.01), ("error_rate", "ratio", Better::Lower, 0.0)];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base median by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Metrics {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Metrics {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Metrics {
        Metrics::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Metrics, String> {
        let doc = moela_persist::decode::from_str(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<Metric>, String> {
            let items = doc.field(key).and_then(Value::as_array).map_err(|e| e.to_string())?;
            items.iter().map(metric).collect()
        };
        Ok(Metrics { end_to_end: list("end_to_end")?, per_layer: list("per_layer")? })
    }

    /// The unit of an end-to-end, per-layer or extra-gate metric.
    pub fn unit<'a>(&'a self, name: &str) -> Option<&'a str> {
        let listed = self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name);
        listed.map(|m| &*m.unit).or_else(|| EXTRA_GATES.iter().find(|g| g.0 == name).map(|g| g.1))
    }
}

fn metric(v: &Value) -> Result<Metric, String> {
    let text = |key: &str| v.field(key).and_then(Value::as_str).map_err(|e| e.to_string());
    let better = match text("better")? {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => return Err(format!("unknown direction '{other}'")),
    };
    let bound = v.field_opt("bound").map(Value::as_f64).transpose().map_err(|e| e.to_string())?;
    Ok(Metric { name: text("name")?.to_owned(), unit: text("unit")?.to_owned(), better, bound })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_workload_and_bounds_every_end_to_end_metric() {
        let doc = moela_persist::decode::from_str(BENCHMARK_JSON).expect("valid JSON");
        let names: Vec<&str> = doc
            .field("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.field("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        let metrics = Metrics::load();
        assert!(metrics.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0)));
        assert!(metrics.per_layer.iter().all(|m| m.bound.is_none()));
        assert_eq!(metrics.unit("setup_s"), Some("s"));
    }
}
