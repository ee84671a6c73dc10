//! Job identity, lifecycle states, and the in-memory record the manager
//! and the HTTP layer share.
//!
//! The lifecycle is a small state machine:
//!
//! ```text
//! queued ──▶ running ──▶ done
//!    │          │  ├───▶ failed             (permanent error)
//!    │          │  ├───▶ cancelled          (DELETE while running)
//!    │          │  ├───▶ interrupted        (graceful drain / dead server)
//!    │          │  ├───▶ deadline_exceeded  (spec timeout_s elapsed)
//!    │          │  ├───▶ stalled ──▶ queued | quarantined
//!    │          │  └───▶ queued             (transient error, retry w/ backoff)
//!    │          └──────▶ quarantined        (attempt budget exhausted)
//!    └─────────▶ cancelled                  (DELETE while queued)
//! ```
//!
//! `cancelled` and `interrupted` both leave a resumable `RunStore`
//! behind; a restarted server re-queues `interrupted` (and stale
//! `running`/`queued`/`stalled`) jobs, while `cancelled` stays parked
//! until a human resumes it with `moela-dse resume`. `quarantined` and
//! `deadline_exceeded` are terminal verdicts: the record (with its
//! attempt history) stays queryable but the job never runs again.
//!
//! Every transition appends to a bounded per-job history that is
//! persisted in `job.json` and served by `GET /jobs/{id}` — including
//! the attempt counter, which is how a crash-loop survives SIGKILL.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use moela_moo::checkpoint::CancelToken;
use moela_obs::MetricsAggregator;
use moela_persist::{RunStore, Value};

use crate::lock::lock;
use crate::supervise::Heartbeat;

/// `job.json` format version. Version 2 added `attempts` and `history`;
/// version-1 manifests load with both defaulted.
pub const JOB_FORMAT: u64 = 2;

/// Cap on persisted history entries; the oldest are dropped first.
const MAX_HISTORY: usize = 64;

/// One job's lifecycle state.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum JobState {
    /// Accepted, waiting for a run worker (possibly in retry backoff).
    Queued,
    /// A worker is driving the optimizer.
    Running,
    /// Running, but the step heartbeat went stale; the watchdog has
    /// asked it to park at the next boundary.
    Stalled,
    /// Finished; `front.json`/`trace.json` are ready.
    Done,
    /// The run hit a permanent error; see the record's `error`.
    Failed,
    /// Cancelled by the client at a step boundary (resumable).
    Cancelled,
    /// Parked at a checkpoint by a drain or a dead server (resumed
    /// automatically on restart).
    Interrupted,
    /// The spec's `timeout_s` wall-clock deadline elapsed.
    DeadlineExceeded,
    /// The attempt budget is exhausted (or the worker had to be
    /// abandoned); the last error is recorded and the job is parked
    /// for good.
    Quarantined,
}

impl JobState {
    /// All states with their wire names.
    pub const ALL: [(JobState, &'static str); 9] = [
        (JobState::Queued, "queued"),
        (JobState::Running, "running"),
        (JobState::Stalled, "stalled"),
        (JobState::Done, "done"),
        (JobState::Failed, "failed"),
        (JobState::Cancelled, "cancelled"),
        (JobState::Interrupted, "interrupted"),
        (JobState::DeadlineExceeded, "deadline_exceeded"),
        (JobState::Quarantined, "quarantined"),
    ];

    /// The wire name.
    pub fn name(self) -> &'static str {
        Self::ALL.iter().find(|(s, _)| *s == self).map(|(_, n)| *n).expect("every state listed")
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(_, n)| *n == name).map(|(s, _)| *s)
    }

    /// Whether the job can never run again without outside intervention.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done
                | JobState::Failed
                | JobState::Cancelled
                | JobState::DeadlineExceeded
                | JobState::Quarantined
        )
    }
}

/// Why a running job was asked to park at its next step boundary. The
/// first interrupt wins; the worker turns it into the final state.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum InterruptKind {
    /// A client `DELETE`d the job → `cancelled`.
    Cancel,
    /// A graceful drain → `interrupted` (resumed on restart).
    Drain,
    /// The spec's `timeout_s` elapsed → `deadline_exceeded`.
    Deadline,
    /// The watchdog saw a stale heartbeat → retried as transient.
    Stall,
}

/// One persisted lifecycle transition.
#[derive(Clone, Debug)]
pub struct HistoryEntry {
    /// The state entered.
    pub state: JobState,
    /// The attempt counter at the time of the transition.
    pub attempt: u64,
    /// The error that drove the transition, if any.
    pub error: Option<String>,
}

impl HistoryEntry {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("state", Value::Str(self.state.name().to_owned())),
            ("attempt", Value::U64(self.attempt)),
        ];
        if let Some(error) = &self.error {
            fields.push(("error", Value::Str(error.clone())));
        }
        Value::object(fields)
    }

    fn from_value(v: &Value) -> Option<Self> {
        Some(HistoryEntry {
            state: JobState::parse(v.field_opt("state")?.as_str().ok()?)?,
            attempt: v.field_opt("attempt")?.as_u64().ok()?,
            error: v.field_opt("error").and_then(|e| e.as_str().ok()).map(str::to_owned),
        })
    }
}

/// The mutable half of a job record, guarded by one mutex.
#[derive(Debug)]
struct JobCell {
    state: JobState,
    /// Why the current run was asked to park (first interrupt wins).
    interrupt: Option<InterruptKind>,
    error: Option<String>,
    summary: Option<Value>,
    /// Times a worker has picked this job up, across server restarts.
    attempts: u64,
    /// When the job first entered `running` in this process (the
    /// deadline clock; restarts restart it).
    started: Option<Instant>,
    /// Cancellation token for the *current* attempt; replaced on retry
    /// because a fired token cannot be re-armed.
    cancel: CancelToken,
    history: Vec<HistoryEntry>,
}

/// A shared handle to the job's live in-run metrics aggregator. `None`
/// until the runner publishes one, and across restarts.
pub type LiveMetrics = Mutex<Option<std::sync::Arc<Mutex<MetricsAggregator>>>>;

/// One job known to the manager (in any state).
#[derive(Debug)]
pub struct JobRecord {
    /// Stable identity, also the run directory name (`job-000001`).
    pub id: String,
    /// Monotonic submission sequence (listing and recovery order).
    pub seq: u64,
    /// The job's run directory (a `RunStore` layout).
    pub dir: PathBuf,
    /// The validated, normalized submission spec.
    pub spec: Value,
    /// Wall-clock deadline from the spec's `timeout_s`, if set.
    pub timeout: Option<Duration>,
    /// Live metrics published by the runner while the job runs.
    pub live: LiveMetrics,
    /// Step-boundary heartbeat the watchdog reads.
    pub heartbeat: Heartbeat,
    cell: Mutex<JobCell>,
    /// Held across a persist's snapshot and write, so concurrent persists
    /// of this record land in snapshot order and the last write carries
    /// the newest state.
    persisting: Mutex<()>,
}

impl JobRecord {
    /// A fresh record in `state`. The wall-clock deadline is read off
    /// the (already validated) spec's `timeout_s`.
    pub fn new(id: String, seq: u64, dir: PathBuf, spec: Value, state: JobState) -> Self {
        let timeout = spec
            .field_opt("timeout_s")
            .and_then(|v| v.as_u64().ok())
            .filter(|&s| s > 0)
            .map(Duration::from_secs);
        JobRecord {
            id,
            seq,
            dir,
            spec,
            timeout,
            live: Mutex::new(None),
            heartbeat: Heartbeat::new(),
            cell: Mutex::new(JobCell {
                state,
                interrupt: None,
                error: None,
                summary: None,
                attempts: 0,
                started: None,
                cancel: CancelToken::new(),
                history: Vec::new(),
            }),
            persisting: Mutex::new(()),
        }
    }

    /// The current lifecycle state.
    pub fn state(&self) -> JobState {
        lock(&self.cell).state
    }

    /// Transitions to `state`, optionally recording a failure message or
    /// a completion summary. Every call appends a history entry.
    pub fn set_state(&self, state: JobState, error: Option<String>, summary: Option<Value>) {
        let mut cell = lock(&self.cell);
        cell.state = state;
        if error.is_some() {
            cell.error = error;
        }
        if summary.is_some() {
            cell.summary = summary;
        }
        let entry = HistoryEntry { state, attempt: cell.attempts, error: cell.error.clone() };
        push_history(&mut cell.history, entry);
    }

    /// Requests a park at the next step boundary. The first interrupt
    /// wins (a deadline fired before a cancel stays a deadline), with
    /// one exception: an explicit client cancel overrides a watchdog
    /// stall, because the client's verdict beats the retry path. The
    /// token fires either way. Returns whether `kind` was installed.
    pub fn interrupt(&self, kind: InterruptKind) -> bool {
        let mut cell = lock(&self.cell);
        let installed = match (cell.interrupt, kind) {
            (None, _) | (Some(InterruptKind::Stall), InterruptKind::Cancel) => {
                cell.interrupt = Some(kind);
                true
            }
            _ => false,
        };
        cell.cancel.cancel();
        installed
    }

    /// The pending interrupt, if one was requested.
    pub fn interrupt_kind(&self) -> Option<InterruptKind> {
        lock(&self.cell).interrupt
    }

    /// Marks that a client asked for cancellation (so a parked run
    /// reports `cancelled`, not `interrupted`).
    pub fn request_cancel(&self) {
        self.interrupt(InterruptKind::Cancel);
    }

    /// Starts one attempt: bumps the persistent attempt counter, arms a
    /// fresh cancel token, clears stale interrupts from the previous
    /// attempt, and moves to `running`. Returns `None` when a client
    /// cancel raced the pickup — the caller must finalize `cancelled`
    /// instead of running.
    pub fn begin_attempt(&self) -> Option<(CancelToken, u64)> {
        let mut cell = lock(&self.cell);
        if cell.interrupt == Some(InterruptKind::Cancel) {
            return None;
        }
        cell.attempts += 1;
        cell.interrupt = None;
        cell.cancel = CancelToken::new();
        cell.state = JobState::Running;
        if cell.started.is_none() {
            cell.started = Some(Instant::now());
        }
        let entry = HistoryEntry { state: JobState::Running, attempt: cell.attempts, error: None };
        push_history(&mut cell.history, entry);
        let token = cell.cancel.clone();
        let attempt = cell.attempts;
        drop(cell);
        self.heartbeat.beat();
        Some((token, attempt))
    }

    /// Parks the job back in `queued` after a transient failure, ready
    /// for the watchdog to release once its backoff elapses.
    pub fn schedule_retry(&self, error: String) {
        let mut cell = lock(&self.cell);
        cell.state = JobState::Queued;
        cell.interrupt = None;
        cell.error = Some(error.clone());
        let entry =
            HistoryEntry { state: JobState::Queued, attempt: cell.attempts, error: Some(error) };
        push_history(&mut cell.history, entry);
    }

    /// Times a worker has picked this job up (persisted).
    pub fn attempts(&self) -> u64 {
        lock(&self.cell).attempts
    }

    /// Restores persisted supervision state after recovery.
    pub fn restore(&self, attempts: u64, history: Vec<HistoryEntry>) {
        let mut cell = lock(&self.cell);
        cell.attempts = attempts;
        cell.history = history;
    }

    /// How long this job has been running in this process, if it ever
    /// started.
    pub fn running_for(&self) -> Option<Duration> {
        lock(&self.cell).started.map(|t| t.elapsed())
    }

    /// The failure message, if the job failed.
    pub fn error(&self) -> Option<String> {
        lock(&self.cell).error.clone()
    }

    /// The completion summary, if the job finished.
    pub fn summary(&self) -> Option<Value> {
        lock(&self.cell).summary.clone()
    }

    /// The persisted transition history, oldest first.
    pub fn history(&self) -> Vec<HistoryEntry> {
        lock(&self.cell).history.clone()
    }

    /// A live snapshot from the in-run metrics aggregator, when the job
    /// is running and the runner has published one.
    pub fn live_summary(&self) -> Option<Value> {
        let slot = lock(&self.live);
        let agg = std::sync::Arc::clone(slot.as_ref()?);
        drop(slot);
        let agg = lock(&agg);
        Some(agg.summary())
    }

    /// Renders the record for the API. `detail` adds the spec, live
    /// metrics, attempt history, summary, and error; the list view
    /// omits them.
    pub fn to_value(&self, detail: bool) -> Value {
        let mut fields = vec![
            ("id", Value::Str(self.id.clone())),
            ("seq", Value::U64(self.seq)),
            ("state", Value::Str(self.state().name().to_owned())),
            ("attempts", Value::U64(self.attempts())),
        ];
        if detail {
            fields.push(("dir", Value::Str(self.dir.display().to_string())));
            fields.push(("spec", self.spec.clone()));
            let history: Vec<Value> = self.history().iter().map(HistoryEntry::to_value).collect();
            fields.push(("history", Value::Array(history)));
            if let Some(live) = self.live_summary() {
                fields.push(("live", live));
            }
            if let Some(summary) = self.summary() {
                fields.push(("summary", summary));
            }
            if let Some(error) = self.error() {
                fields.push(("error", Value::Str(error)));
            }
        }
        Value::object(fields)
    }

    /// The persistent `job.json` document for this record.
    pub fn manifest(&self) -> Value {
        let mut fields = vec![
            ("format", Value::U64(JOB_FORMAT)),
            ("id", Value::Str(self.id.clone())),
            ("seq", Value::U64(self.seq)),
            ("state", Value::Str(self.state().name().to_owned())),
            ("attempts", Value::U64(self.attempts())),
            ("spec", self.spec.clone()),
        ];
        let history: Vec<Value> = self.history().iter().map(HistoryEntry::to_value).collect();
        fields.push(("history", Value::Array(history)));
        if let Some(error) = self.error() {
            fields.push(("error", Value::Str(error)));
        }
        if let Some(summary) = self.summary() {
            fields.push(("summary", summary));
        }
        Value::object(fields)
    }

    /// Parses the supervision fields back out of a persisted manifest
    /// (absent in format-1 manifests → defaults).
    pub fn restore_from_manifest(&self, manifest: &Value) {
        let attempts = manifest.field_opt("attempts").and_then(|v| v.as_u64().ok()).unwrap_or(0);
        let history = match manifest.field_opt("history") {
            Some(Value::Array(items)) => {
                items.iter().filter_map(HistoryEntry::from_value).collect()
            }
            _ => Vec::new(),
        };
        self.restore(attempts, history);
    }

    /// Writes `job.json` into the run directory. I/O failures are
    /// returned as text: losing a state write must fail the transition
    /// loudly, never crash the server.
    pub fn persist(&self) -> Result<(), String> {
        let _persisting = lock(&self.persisting);
        let store = RunStore::create(&self.dir)
            .map_err(|e| format!("cannot open run dir for {}: {e}", self.id))?;
        store.write_job(&self.manifest()).map_err(|e| format!("cannot persist {}: {e}", self.id))
    }
}

/// Appends to a history, dropping the oldest entry past the cap.
fn push_history(history: &mut Vec<HistoryEntry>, entry: HistoryEntry) {
    if history.len() >= MAX_HISTORY {
        history.remove(0);
    }
    history.push(entry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_names_round_trip() {
        for (state, name) in JobState::ALL {
            assert_eq!(JobState::parse(name), Some(state));
            assert_eq!(state.name(), name);
        }
        assert_eq!(JobState::parse("nope"), None);
    }

    #[test]
    fn terminality_matches_the_lifecycle() {
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::DeadlineExceeded.is_terminal());
        assert!(JobState::Quarantined.is_terminal());
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Stalled.is_terminal());
        assert!(!JobState::Interrupted.is_terminal());
    }

    #[test]
    fn record_transitions_and_renders() {
        let spec = Value::object(vec![("algorithm", Value::Str("nsga2".into()))]);
        let record =
            JobRecord::new("job-000001".into(), 1, PathBuf::from("/tmp/x"), spec, JobState::Queued);
        assert_eq!(record.state(), JobState::Queued);
        let (token, attempt) = record.begin_attempt().expect("no cancel pending");
        assert_eq!(attempt, 1);
        assert!(!token.is_cancelled());
        record.request_cancel();
        assert!(token.is_cancelled());
        assert_eq!(record.interrupt_kind(), Some(InterruptKind::Cancel));
        record.set_state(JobState::Cancelled, None, None);
        let v = record.to_value(true);
        assert_eq!(v.field("state").unwrap().as_str().unwrap(), "cancelled");
        assert_eq!(v.field("attempts").unwrap().as_u64().unwrap(), 1);
        assert_eq!(v.field("spec").unwrap().field("algorithm").unwrap().as_str().unwrap(), "nsga2");
        let list = record.to_value(false);
        assert!(list.field_opt("spec").is_none());
        let manifest = record.manifest();
        assert_eq!(manifest.field("format").unwrap().as_u64().unwrap(), JOB_FORMAT);
    }

    #[test]
    fn begin_attempt_loses_the_race_to_a_client_cancel() {
        let record = JobRecord::new(
            "job-000002".into(),
            2,
            PathBuf::from("/tmp/x"),
            Value::object(vec![]),
            JobState::Queued,
        );
        record.request_cancel();
        assert!(record.begin_attempt().is_none(), "a cancelled job must not start");
    }

    #[test]
    fn retry_rearms_the_cancel_token_and_counts_attempts() {
        let record = JobRecord::new(
            "job-000003".into(),
            3,
            PathBuf::from("/tmp/x"),
            Value::object(vec![]),
            JobState::Queued,
        );
        let (first, _) = record.begin_attempt().expect("attempt 1");
        record.interrupt(InterruptKind::Stall);
        assert!(first.is_cancelled());
        record.schedule_retry("stalled".into());
        assert_eq!(record.state(), JobState::Queued);
        let (second, attempt) = record.begin_attempt().expect("attempt 2");
        assert_eq!(attempt, 2);
        assert!(!second.is_cancelled(), "retry must run under a fresh token");
        assert!(record.interrupt_kind().is_none(), "stale interrupts cleared");
    }

    #[test]
    fn first_interrupt_wins() {
        let record = JobRecord::new(
            "job-000004".into(),
            4,
            PathBuf::from("/tmp/x"),
            Value::object(vec![]),
            JobState::Running,
        );
        assert!(record.interrupt(InterruptKind::Deadline));
        assert!(!record.interrupt(InterruptKind::Cancel));
        assert_eq!(record.interrupt_kind(), Some(InterruptKind::Deadline));
    }

    #[test]
    fn history_and_attempts_survive_a_manifest_round_trip() {
        let record = JobRecord::new(
            "job-000005".into(),
            5,
            PathBuf::from("/tmp/x"),
            Value::object(vec![]),
            JobState::Queued,
        );
        record.begin_attempt().expect("attempt");
        record.schedule_retry("boom".into());
        let manifest = record.manifest();

        let revived = JobRecord::new(
            "job-000005".into(),
            5,
            PathBuf::from("/tmp/x"),
            Value::object(vec![]),
            JobState::Queued,
        );
        revived.restore_from_manifest(&manifest);
        assert_eq!(revived.attempts(), 1);
        let history = revived.history();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].state, JobState::Running);
        assert_eq!(history[1].state, JobState::Queued);
        assert_eq!(history[1].error.as_deref(), Some("boom"));
    }

    /// Threads that each change a record and then persist it: whatever
    /// order their snapshots and writes interleave in, once all are done
    /// `job.json` must hold the record's final state. Without the persist
    /// lock a write whose snapshot predates another thread's change can
    /// land last.
    #[test]
    fn concurrent_persists_leave_the_newest_state_on_disk() {
        use std::sync::Arc;

        let root =
            std::env::temp_dir().join(format!("moela-serve-persist-race-{}", std::process::id()));
        for round in 0..256 {
            let dir = root.join(format!("round-{round}"));
            let record = Arc::new(JobRecord::new(
                format!("job-{round:06}"),
                round,
                dir.clone(),
                Value::object(vec![]),
                JobState::Running,
            ));
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    let record = Arc::clone(&record);
                    std::thread::spawn(move || {
                        for i in 0..2 {
                            let note = format!("writer {t} step {i}");
                            record.set_state(JobState::Running, Some(note), None);
                            record.persist().expect("job.json is writable");
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().expect("writer thread");
            }
            let text = std::fs::read_to_string(dir.join("job.json")).expect("job.json");
            let on_disk = moela_persist::decode::from_str(&text).expect("job.json parses");
            assert_eq!(
                on_disk,
                record.manifest(),
                "round {round}: job.json holds an older state than the record"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn timeout_comes_from_the_spec() {
        let spec = Value::object(vec![("timeout_s", Value::U64(9))]);
        let record =
            JobRecord::new("job-000006".into(), 6, PathBuf::from("/tmp/x"), spec, JobState::Queued);
        assert_eq!(record.timeout, Some(Duration::from_secs(9)));
        let record = JobRecord::new(
            "job-000007".into(),
            7,
            PathBuf::from("/tmp/x"),
            Value::object(vec![]),
            JobState::Queued,
        );
        assert_eq!(record.timeout, None);
    }
}
