//! The run-store directory layout.
//!
//! ```text
//! RUN_DIR/
//!   manifest.json    # config + seed + build version (+ fitted normalizer)
//!   checkpoints/     # rotating MOELA-CKPT files (see `checkpoint`)
//!   trace.csv        # deterministic convergence trace
//!   front.csv        # final Pareto front
//!   trace.json       # same trace, machine-readable (no reparsing CSV)
//!   front.json       # same front, machine-readable
//!   events.jsonl     # append-only telemetry event log (when obs is on)
//!   metrics.json     # end-of-run phase metrics (when obs is on)
//!   job.json         # job-state manifest (only for server-managed runs)
//! ```
//!
//! The manifest is plain JSON (human-inspectable, no checksum header) and
//! is written atomically like checkpoints. `trace.csv` / `front.csv` are
//! written once, when the run finishes.

use std::fs;
use std::path::{Path, PathBuf};

use crate::checkpoint::{remove_stale_temps, write_atomic, CheckpointStore};
use crate::error::PersistError;
use crate::value::Value;
use crate::{decode, encode};

/// Handle to one run directory.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Opens `root` as a run directory, creating it (and `checkpoints/`)
    /// if needed.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| PersistError::io(&root, e))?;
        let store = Self { root };
        fs::create_dir_all(store.checkpoints_dir())
            .map_err(|e| PersistError::io(store.checkpoints_dir(), e))?;
        Ok(store)
    }

    /// Opens an existing run directory; errors when there is no manifest
    /// (i.e. nothing to resume).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let root = root.into();
        let manifest = root.join("manifest.json");
        if !manifest.is_file() {
            return Err(PersistError::io(
                &manifest,
                std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "not a run directory (no manifest.json)",
                ),
            ));
        }
        Ok(Self { root })
    }

    /// The run directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `RUN_DIR/manifest.json`.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// `RUN_DIR/checkpoints`.
    pub fn checkpoints_dir(&self) -> PathBuf {
        self.root.join("checkpoints")
    }

    /// `RUN_DIR/trace.csv`.
    pub fn trace_path(&self) -> PathBuf {
        self.root.join("trace.csv")
    }

    /// `RUN_DIR/front.csv`.
    pub fn front_path(&self) -> PathBuf {
        self.root.join("front.csv")
    }

    /// `RUN_DIR/health.json` — retired: current runs fold the fault
    /// counters into `metrics.json` and write no health file. The path
    /// is kept so tooling can still read (or knowingly ignore) the
    /// report in run directories produced by older builds; resume
    /// tolerates both layouts.
    pub fn health_path(&self) -> PathBuf {
        self.root.join("health.json")
    }

    /// `RUN_DIR/trace.json` — the machine-readable convergence trace
    /// (same deterministic data as `trace.csv`, no CSV reparsing).
    pub fn trace_json_path(&self) -> PathBuf {
        self.root.join("trace.json")
    }

    /// `RUN_DIR/front.json` — the machine-readable final front.
    pub fn front_json_path(&self) -> PathBuf {
        self.root.join("front.json")
    }

    /// `RUN_DIR/job.json` — the job-state manifest maintained by the
    /// serving layer for runs it owns (id, submitted spec, lifecycle
    /// state). Absent for plain CLI runs; a restarted server rediscovers
    /// its in-flight jobs from these files.
    pub fn job_path(&self) -> PathBuf {
        self.root.join("job.json")
    }

    /// `RUN_DIR/events.jsonl` — the append-only telemetry event log.
    /// Resumed runs append; the file is never truncated.
    pub fn events_path(&self) -> PathBuf {
        self.root.join("events.jsonl")
    }

    /// `RUN_DIR/metrics.json` — the end-of-run phase-metrics report.
    pub fn metrics_path(&self) -> PathBuf {
        self.root.join("metrics.json")
    }

    /// `RUN_DIR/report.json` — the offline run-analysis report built by
    /// `moela-dse report` from the trace and the replayed event log.
    /// Additive: the analysis never rewrites any other artifact.
    pub fn report_path(&self) -> PathBuf {
        self.root.join("report.json")
    }

    /// `RUN_DIR/trace.chrome.json` — the Chrome trace-event export of
    /// the replayed span stream (open at <https://ui.perfetto.dev>).
    pub fn chrome_trace_path(&self) -> PathBuf {
        self.root.join("trace.chrome.json")
    }

    /// The rotating checkpoint store under this run.
    pub fn checkpoints(&self) -> Result<CheckpointStore, PersistError> {
        CheckpointStore::new(self.checkpoints_dir())
    }

    /// Deletes the temp files that killed writers left in the run
    /// directory and its `checkpoints/` (see [`remove_stale_temps`]).
    /// Call it when a run starts or resumes, never from a reader.
    pub fn remove_stale_temps(&self) {
        remove_stale_temps(&self.root);
        remove_stale_temps(&self.checkpoints_dir());
    }

    /// Writes the manifest atomically.
    pub fn write_manifest(&self, manifest: &Value) -> Result<(), PersistError> {
        let text = encode::to_string(manifest);
        write_atomic(&self.manifest_path(), text.as_bytes())
    }

    /// Reads and parses the manifest.
    pub fn read_manifest(&self) -> Result<Value, PersistError> {
        let path = self.manifest_path();
        let text = fs::read_to_string(&path).map_err(|e| PersistError::io(&path, e))?;
        decode::from_str(&text)
    }

    /// Writes `trace.csv` (atomically, like every run artifact).
    pub fn write_trace(&self, csv: &str) -> Result<(), PersistError> {
        write_atomic(&self.trace_path(), csv.as_bytes())
    }

    /// Writes `front.csv`.
    pub fn write_front(&self, csv: &str) -> Result<(), PersistError> {
        write_atomic(&self.front_path(), csv.as_bytes())
    }

    /// Writes `trace.json` (atomically; deterministic bytes for equal
    /// values, like every JSON artifact in the store).
    pub fn write_trace_json(&self, trace: &Value) -> Result<(), PersistError> {
        write_atomic(&self.trace_json_path(), encode::to_string(trace).as_bytes())
    }

    /// Writes `front.json`.
    pub fn write_front_json(&self, front: &Value) -> Result<(), PersistError> {
        write_atomic(&self.front_json_path(), encode::to_string(front).as_bytes())
    }

    /// Writes the `job.json` job-state manifest (atomically, so a crash
    /// mid-transition leaves the previous state readable).
    pub fn write_job(&self, job: &Value) -> Result<(), PersistError> {
        write_atomic(&self.job_path(), encode::to_string(job).as_bytes())
    }

    /// Reads and parses `job.json`.
    pub fn read_job(&self) -> Result<Value, PersistError> {
        let path = self.job_path();
        let text = fs::read_to_string(&path).map_err(|e| PersistError::io(&path, e))?;
        decode::from_str(&text)
    }

    /// Writes `metrics.json` — the end-of-run phase-metrics report
    /// (per-phase timing, throughput, fault counters, PHV series).
    /// Wall-clock data lives only here, in `events.jsonl`, and on
    /// stderr — never in the deterministic artifacts.
    pub fn write_metrics(&self, metrics: &Value) -> Result<(), PersistError> {
        let text = encode::to_string(metrics);
        write_atomic(&self.metrics_path(), text.as_bytes())
    }

    /// Writes `report.json` — the offline analysis report.
    pub fn write_report(&self, report: &Value) -> Result<(), PersistError> {
        write_atomic(&self.report_path(), encode::to_string(report).as_bytes())
    }

    /// Writes `trace.chrome.json` — the Perfetto-viewable trace export.
    pub fn write_chrome_trace(&self, trace: &Value) -> Result<(), PersistError> {
        write_atomic(&self.chrome_trace_path(), encode::to_string(trace).as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moela-runstore-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_lays_out_the_directory() {
        let root = temp_root("layout");
        let store = RunStore::create(&root).unwrap();
        assert!(store.checkpoints_dir().is_dir());
        store.write_manifest(&Value::object(vec![("seed", Value::U64(11))])).unwrap();
        let back = store.read_manifest().unwrap();
        assert_eq!(back.field("seed").unwrap().as_u64().unwrap(), 11);
        store.write_trace("generation,evaluations,phv\n").unwrap();
        store.write_front("obj0,obj1\n").unwrap();
        store.write_metrics(&Value::object(vec![("wall_us", Value::U64(1))])).unwrap();
        store.write_trace_json(&Value::object(vec![("points", Value::Array(vec![]))])).unwrap();
        store.write_front_json(&Value::object(vec![("objectives", Value::Array(vec![]))])).unwrap();
        assert!(store.trace_path().is_file());
        assert!(store.front_path().is_file());
        assert!(store.trace_json_path().is_file());
        assert!(store.front_json_path().is_file());
        // No health.json: current runs never write one, but the path
        // accessor survives for old run directories.
        assert!(!store.health_path().is_file());
        assert_eq!(store.health_path(), root.join("health.json"));
        assert!(store.metrics_path().is_file());
        assert_eq!(store.events_path(), root.join("events.jsonl"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn job_manifest_round_trips() {
        let root = temp_root("job");
        let store = RunStore::create(&root).unwrap();
        assert!(!store.job_path().is_file());
        assert!(store.read_job().is_err());
        let job = Value::object(vec![
            ("id", Value::Str("job-000001".into())),
            ("state", Value::Str("queued".into())),
        ]);
        store.write_job(&job).unwrap();
        let back = store.read_job().unwrap();
        assert_eq!(back.field("id").unwrap().as_str().unwrap(), "job-000001");
        assert_eq!(back.field("state").unwrap().as_str().unwrap(), "queued");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_requires_a_manifest() {
        let root = temp_root("open");
        fs::create_dir_all(&root).unwrap();
        let err = RunStore::open(&root).unwrap_err();
        assert!(err.to_string().contains("manifest.json"), "{err}");
        let store = RunStore::create(&root).unwrap();
        store.write_manifest(&Value::Null).unwrap();
        assert!(RunStore::open(&root).is_ok());
        fs::remove_dir_all(&root).unwrap();
    }
}
