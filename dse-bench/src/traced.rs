//! The traced in-process run that splits a workload's time by layer.
//!
//! It rebuilds exactly what `moela-dse run` builds for the benchmark's
//! algorithms (workload synthesis, the 200-design corpus normalizer, the
//! memoizing wrapper, the optimizer, a checkpoint every step), with one
//! substitution: the problem is a bench-owned `Probe` that times the
//! manycore crate's public evaluation functions from outside. The
//! optimizers' existing obs spans are captured by an in-memory
//! `Recorder` on the same clock, so every span has a parent and a
//! layer's self time is its duration minus what its children cover.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use moela_baselines::{MooStage, MooStageConfig, Nsga2, Nsga2Config};
use moela_core::{Moela, MoelaConfig};
use moela_manycore::objectives::Evaluator;
use moela_manycore::{
    DeltaEngine, Design, ManycoreProblem, ObjectiveSet, PlatformConfig,
    DEFAULT_DELTA_CACHE_CAPACITY,
};
use moela_moo::checkpoint::Resumable;
use moela_moo::fault::{FaultConfig, FaultPolicy};
use moela_moo::normalize::Normalizer;
use moela_moo::run::RunResult;
use moela_moo::{CacheStats, CachedProblem, EvalCache, Problem, DEFAULT_EVAL_CACHE_CAPACITY};
use moela_obs::{Event, Obs, RunReplay, SharedSink, Sink, SpanRecord};
use moela_persist::{CheckpointStore, RunStore, Value, FORMAT_VERSION};
use moela_thermal::FastThermalModel;

use crate::spec::{Algorithm, Workload, CHECKPOINT_EVERY, POPULATION};

/// Bench-owned span names, one per timed public function.
const ROUTING: &str = "manycore.routing";
const SCORE: &str = "manycore.score";
const DELTA: &str = "manycore.delta";
const SNAPSHOT: &str = "persist.snapshot";
const SAVE: &str = "persist.save";
const CORPUS: &str = "setup.corpus";

/// The CLI's wall-clock guard; far above any benchmark run.
const TIME_GUARD: Duration = Duration::from_secs(600);

/// One closed span on the obs clock (microseconds since the handle's
/// epoch), with the index of the span that was open around it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// An obs sink that keeps every span in memory, in open order.
#[derive(Debug, Default)]
struct Recorder {
    spans: Vec<Span>,
    /// `(obs span id, index into spans)` of the spans still open.
    open: Vec<(u64, usize)>,
    nesting_violations: u64,
}

impl Sink for Recorder {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::SpanEnter { id, name, t_us, .. } => {
                let parent = self.open.last().map(|&(_, i)| i);
                self.open.push((id, self.spans.len()));
                self.spans.push(Span { name, start_us: t_us, end_us: t_us, parent });
            }
            Event::SpanExit { id, t_us, .. } => match self.open.pop() {
                Some((open_id, i)) if open_id == id => self.spans[i].end_us = t_us,
                _ => self.nesting_violations += 1,
            },
            _ => {}
        }
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children (which, being properly nested, never overlap each other).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_us).collect();
    for span in spans {
        if let Some(p) = span.parent {
            out[p] = out[p].saturating_sub(span.dur_us());
        }
    }
    out
}

/// The manycore problem with its evaluation split into timed calls of
/// the crate's public functions: `Evaluator::routing_for` (routing-table
/// build or reuse), `Evaluator::evaluate_with_table` (flow accumulation
/// plus thermal scoring) and `DeltaEngine::evaluate_neighbor` (neighbor
/// patching). Moves, features and memo keys forward to a
/// [`ManycoreProblem`] built from the same platform and workload, so
/// results are bit-identical to the CLI's problem.
struct Probe {
    problem: ManycoreProblem,
    evaluator: Evaluator,
    delta: DeltaEngine,
    set: ObjectiveSet,
    obs: Obs,
}

impl Probe {
    fn new(workload: &Workload, seed: u64, obs: Obs) -> Result<Probe, String> {
        let platform = PlatformConfig::paper();
        let traffic = moela_traffic::Workload::synthesize(workload.app, platform.pe_mix(), seed);
        let evaluator = Evaluator::new(
            *platform.dims(),
            *platform.noc(),
            traffic.clone(),
            FastThermalModel::new(platform.thermal().clone()),
        );
        let problem = ManycoreProblem::new(platform, traffic, workload.objectives)
            .map_err(|e| format!("cannot build the paper platform: {e}"))?;
        Ok(Probe {
            problem,
            evaluator,
            delta: DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY),
            set: workload.objectives,
            obs,
        })
    }
}

impl Problem for Probe {
    type Solution = Design;

    fn objective_count(&self) -> usize {
        self.problem.objective_count()
    }

    fn random_solution(&self, rng: &mut dyn RngCore) -> Design {
        self.problem.random_solution(rng)
    }

    fn neighbor(&self, s: &Design, rng: &mut dyn RngCore) -> Design {
        self.problem.neighbor(s, rng)
    }

    fn crossover(&self, a: &Design, b: &Design, rng: &mut dyn RngCore) -> Design {
        self.problem.crossover(a, b, rng)
    }

    fn evaluate(&self, s: &Design) -> Vec<f64> {
        let table = {
            let _span = self.obs.span(ROUTING);
            self.evaluator.routing_for(s)
        };
        let _span = self.obs.span(SCORE);
        self.evaluator.evaluate_with_table(s, &table).objectives(self.set)
    }

    fn evaluate_neighbor_ordinal(&self, base: &Design, s: &Design, _ordinal: u64) -> Vec<f64> {
        let _span = self.obs.span(DELTA);
        self.delta.evaluate_neighbor(&self.evaluator, base, s).objectives(self.set)
    }

    fn cache_key(&self, s: &Design) -> Option<Vec<u8>> {
        self.problem.cache_key(s)
    }

    fn features(&self, s: &Design) -> Vec<f64> {
        self.problem.features(s)
    }

    fn feature_len(&self) -> usize {
        self.problem.feature_len()
    }
}

/// Everything a traced run leaves behind.
#[derive(Debug)]
pub struct TracedRun {
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub nesting_violations: u64,
    pub front: Vec<(Design, Vec<f64>)>,
    pub routing_rebuilds: u64,
    pub delta_hits: u64,
    pub memo: CacheStats,
    pub checkpoint_bytes: u64,
}

/// Runs `workload` at `budget` in process, traced, checkpointing into
/// `dir` like `moela-dse run --run-dir`.
pub fn run(workload: &Workload, budget: u64, seed: u64, dir: &Path) -> Result<TracedRun, String> {
    let sink = SharedSink::new(Recorder::default());
    let recorder = sink.handle();
    let obs = Obs::with_sinks(vec![Box::new(sink)]);
    let start = Instant::now();

    let probe = Probe::new(workload, seed, obs.clone())?;
    let normalizer = {
        let _span = obs.span(CORPUS);
        // The CLI's corpus normalizer, evaluated through the probe.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let objs: Vec<Vec<f64>> =
            (0..200).map(|_| probe.evaluate(&probe.random_solution(&mut rng))).collect();
        Normalizer::fit(&objs)
    };
    let store = RunStore::create(dir)
        .and_then(|s| s.checkpoints())
        .map_err(|e| format!("cannot create the traced run directory: {e}"))?;
    let cache = Arc::new(EvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY));
    let cached = CachedProblem::new(&probe, Arc::clone(&cache));
    let mut ckpt = Checkpointer {
        store,
        obs: obs.clone(),
        codec: &probe.problem,
        workload,
        start,
        last: None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let fault = FaultConfig { policy: FaultPolicy::default(), retries: 0 };
    let result = match workload.algorithm {
        Algorithm::Moela => {
            let config = MoelaConfig::builder()
                .population(POPULATION)
                .generations(usize::MAX / 2)
                .trace_normalizer(normalizer)
                .max_evaluations(budget)
                .time_budget(TIME_GUARD)
                .threads(1)
                .fault(fault)
                .build()
                .map_err(|e| format!("invalid MOELA configuration: {e}"))?;
            let state = Moela::new(config, &cached).start(&mut rng);
            drive(state, &mut rng, &mut ckpt)?
        }
        Algorithm::Nsga2 => {
            let config = Nsga2Config {
                population: POPULATION,
                generations: usize::MAX / 2,
                trace_normalizer: Some(normalizer),
                max_evaluations: Some(budget),
                time_budget: Some(TIME_GUARD),
                threads: 1,
                fault,
            };
            let state = Nsga2::new(config, &cached).start(&mut rng);
            drive(state, &mut rng, &mut ckpt)?
        }
        Algorithm::MooStage => {
            let config = MooStageConfig {
                episodes: usize::MAX / 2,
                trace_normalizer: Some(normalizer),
                max_evaluations: Some(budget),
                time_budget: Some(TIME_GUARD),
                threads: 1,
                fault,
                ..Default::default()
            };
            let state = MooStage::new(config, &cached).start(&mut rng);
            drive(state, &mut rng, &mut ckpt)?
        }
    };
    let wall_s = start.elapsed().as_secs_f64();

    let checkpoint_bytes = match &ckpt.last {
        Some(path) => std::fs::metadata(path)
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len(),
        None => 0,
    };
    let recorder = std::mem::take(&mut *recorder.lock().map_err(|_| "recorder poisoned")?);
    Ok(TracedRun {
        wall_s,
        spans: recorder.spans,
        nesting_violations: recorder.nesting_violations + recorder.open.len() as u64,
        front: result.front(),
        routing_rebuilds: probe.evaluator.routing_cache().rebuilds(),
        delta_hits: probe.delta.hits(),
        memo: cache.stats(),
        checkpoint_bytes,
    })
}

/// Writes checkpoint envelopes shaped like the CLI's, timing the state
/// snapshot and the durable save separately.
struct Checkpointer<'a> {
    store: CheckpointStore,
    obs: Obs,
    codec: &'a ManycoreProblem,
    workload: &'a Workload,
    start: Instant,
    last: Option<PathBuf>,
}

impl Checkpointer<'_> {
    fn save<S>(&mut self, state: &S, rng: &StdRng) -> Result<(), String>
    where
        S: Resumable<ManycoreProblem, Solution = Design>,
    {
        let snapshot = {
            let _span = self.obs.span(SNAPSHOT);
            state.snapshot_state(self.codec)
        };
        let envelope = Value::object(vec![
            ("format", Value::U64(u64::from(FORMAT_VERSION))),
            ("version", Value::Str(env!("CARGO_PKG_VERSION").to_owned())),
            ("algorithm", Value::Str(self.workload.algorithm.cli_name().to_owned())),
            ("completed", Value::U64(state.completed())),
            ("rng", Value::u64_array(&rng.state())),
            ("elapsed_nanos", Value::U64(self.start.elapsed().as_nanos() as u64)),
            ("state", snapshot),
        ]);
        let _span = self.obs.span(SAVE);
        let path = self
            .store
            .save(state.completed(), &envelope)
            .map_err(|e| format!("cannot write a checkpoint: {e}"))?;
        self.last = Some(path);
        Ok(())
    }
}

/// The CLI's step loop: a checkpoint every [`CHECKPOINT_EVERY`] steps.
fn drive<S>(
    mut state: S,
    rng: &mut StdRng,
    ckpt: &mut Checkpointer<'_>,
) -> Result<RunResult<Design>, String>
where
    S: Resumable<ManycoreProblem, Solution = Design>,
{
    state.set_obs(ckpt.obs.clone());
    while state.step(rng) {
        if state.completed().is_multiple_of(CHECKPOINT_EVERY) {
            ckpt.save(&state, rng)?;
        }
    }
    if let Some(fault) = state.fault_error() {
        return Err(format!("evaluation fault: {fault}"));
    }
    Ok(state.finish())
}

/// Count, total and self microseconds of every span named `name`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Phase {
    calls: u64,
    total_us: u64,
    self_us: u64,
}

/// Aggregates the spans named `name`; `selfs` are [`self_times`] of `spans`.
fn phase(spans: &[Span], selfs: &[u64], name: &str) -> Phase {
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).fold(
        Phase::default(),
        |acc, (s, &self_us)| Phase {
            calls: acc.calls + 1,
            total_us: acc.total_us + s.dur_us(),
            self_us: acc.self_us + self_us,
        },
    )
}

impl TracedRun {
    /// The per-layer metrics, named as in `BENCHMARK.json`.
    /// `untraced_wall_s` is the median untraced `wall_s` of the same
    /// workload, the base of the tracing overhead.
    pub fn layer_metrics(&self, untraced_wall_s: f64) -> Vec<(&'static str, f64)> {
        let selfs = self_times(&self.spans);
        let phase = |name: &str| phase(&self.spans, &selfs, name);
        let s = |us: u64| us as f64 / 1e6;
        let routing = phase(ROUTING);
        let score = phase(SCORE);
        let delta = phase(DELTA);
        let evaluate = phase("evaluate");
        let fit = phase("surrogate_fit");
        let attributed_us: u64 = selfs.iter().sum();
        let lookups = self.memo.hits + self.memo.misses;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        vec![
            ("manycore.routing.calls", routing.calls as f64),
            ("manycore.routing.rebuilds", self.routing_rebuilds as f64),
            ("manycore.routing.self_s", s(routing.self_us)),
            ("manycore.score.calls", score.calls as f64),
            ("manycore.score.self_s", s(score.self_us)),
            ("manycore.delta.calls", delta.calls as f64),
            ("manycore.delta.hits", self.delta_hits as f64),
            ("manycore.delta.self_s", s(delta.self_us)),
            (
                "manycore.evaluate_share",
                ratio((evaluate.total_us - evaluate.self_us) as f64, evaluate.total_us as f64),
            ),
            ("moo.memo.hit_ratio", ratio(self.memo.hits as f64, lookups as f64)),
            ("moo.evaluate.self_s", s(evaluate.self_us)),
            ("moo.archive_update.self_s", s(phase("archive_update").self_us)),
            ("ml.surrogate_fit.calls", fit.calls as f64),
            ("ml.surrogate_fit.self_s", s(fit.self_us)),
            ("ml.surrogate_predict.self_s", s(phase("surrogate_predict").self_us)),
            ("optimizer.local_search.self_s", s(phase("local_search").self_us)),
            ("optimizer.mate.self_s", s(phase("mate").self_us)),
            ("optimizer.select.self_s", s(phase("select").self_us)),
            ("persist.snapshot.self_s", s(phase(SNAPSHOT).self_us)),
            ("persist.save.self_s", s(phase(SAVE).self_us)),
            ("persist.checkpoint_bytes", self.checkpoint_bytes as f64),
            ("setup.corpus_s", s(phase(CORPUS).total_us)),
            ("unattributed_s", (self.wall_s - s(attributed_us)).max(0.0)),
            ("trace.wall_s", self.wall_s),
            ("trace.overhead_ratio", ratio(self.wall_s, untraced_wall_s)),
        ]
    }

    /// The spans as Chrome trace-event JSON (open at ui.perfetto.dev),
    /// through the same exporter `moela-dse report` uses.
    pub fn chrome_trace(&self) -> Value {
        let mut depths: Vec<u32> = Vec::with_capacity(self.spans.len());
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let depth = s.parent.map_or(1, |p| depths[p] + 1);
                depths.push(depth);
                SpanRecord {
                    name: s.name.to_owned(),
                    leg: 0,
                    start_us: s.start_us,
                    dur_us: s.dur_us(),
                    depth,
                }
            })
            .collect();
        moela_obs::chrome_trace(&RunReplay { spans, ..Default::default() }, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span { name, start_us, end_us, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // evaluate [0,100) > routing [10,40) > (inner) [15,25), score [40,90)
        let spans = vec![
            span("evaluate", 0, 100, None),
            span(ROUTING, 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span(SCORE, 40, 90, Some(0)),
            span("select", 120, 130, None),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 110, "self times partition the covered wall time");
    }

    #[test]
    fn recorder_rebuilds_parents_from_the_event_stream() {
        let shared = SharedSink::new(Recorder::default());
        let handle = shared.handle();
        let obs = Obs::with_sinks(vec![Box::new(shared)]);
        {
            let _outer = obs.span("evaluate");
            let _first = obs.span(ROUTING);
        }
        {
            let _second = obs.span(SCORE);
        }
        let rec = handle.lock().expect("recorder");
        let parents: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(parents, vec![("evaluate", None), (ROUTING, Some(0)), (SCORE, None)]);
        assert_eq!(rec.nesting_violations, 0);
        assert!(rec.open.is_empty());
    }
}
