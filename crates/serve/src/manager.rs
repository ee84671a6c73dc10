//! The job manager: a bounded submission queue, a fixed pool of run
//! workers, a watchdog, and the self-healing job lifecycle.
//!
//! All shared state lives in one `Mutex<Inner>` plus a `Condvar`; no
//! lock is ever held across a runner call or a disk write, and every
//! acquisition goes through the poison-recovering [`lock`] helper so a
//! panicking thread cannot cascade-fail the server. Backpressure is
//! strict: when the queue holds `queue_depth` jobs, submissions are
//! refused with 429 rather than buffered.
//!
//! Supervision (see [`SupervisePolicy`]):
//!
//! * Runner calls execute inside an unwind boundary; a panic is a
//!   transient failure, not a dead worker.
//! * Transient and disk failures re-queue the job with exponential
//!   backoff and deterministic jitter until `max_attempts` is spent,
//!   then quarantine it with its last error. The attempt counter is
//!   persisted in `job.json`, so a crash-loop is detected even across
//!   SIGKILL + restart.
//! * A watchdog thread releases due retries, enforces per-job
//!   `timeout_s` deadlines, marks heartbeat-silent jobs `stalled`
//!   (interrupting them at the next step boundary), and — if a stalled
//!   worker never responds — abandons it, quarantines the job, and
//!   respawns a replacement worker so the pool never shrinks.
//! * Disk-write failures degrade `/readyz` until the affected job
//!   settles cleanly again.
//!
//! A graceful drain stops workers from picking up new work, fires every
//! running job's interrupt so it parks at the next step boundary, and
//! waits for the pool (and the watchdog) to exit. Queued jobs stay
//! `queued` in their `job.json`; a restarted server rediscovers them
//! (and any `running` jobs a crash left behind) and re-queues them in
//! submission order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use moela_persist::{RunStore, Value};

use crate::error::ApiError;
use crate::job::{InterruptKind, JobRecord, JobState};
use crate::lock::lock;
use crate::metrics::ServerMetrics;
use crate::runner::{FailureKind, JobContext, JobRunner, RunError, RunOutcome};
use crate::supervise::SupervisePolicy;

/// Mutable manager state, guarded by [`JobManager::inner`].
#[derive(Debug, Default)]
struct Inner {
    /// Every known job, keyed by submission sequence.
    jobs: BTreeMap<u64, Arc<JobRecord>>,
    /// Sequences waiting for a worker, oldest first. Jobs in retry
    /// backoff are *not* here (and do not count against `queue_depth`);
    /// the watchdog moves them back when their delay elapses.
    queue: VecDeque<u64>,
    /// Jobs in retry backoff: sequence → when they become runnable.
    retry: BTreeMap<u64, Instant>,
    /// Jobs currently inside a runner call.
    running: usize,
    /// Next submission sequence to hand out.
    next_seq: u64,
    /// Set once by [`JobManager::drain`]; never cleared.
    draining: bool,
    /// Worker threads that have not exited yet.
    workers_alive: usize,
    /// Next worker index to hand out (indices are never reused).
    next_worker: usize,
    /// Which job each worker is currently driving.
    active: BTreeMap<usize, u64>,
    /// Workers the watchdog abandoned; if such a thread ever returns
    /// from its stuck runner call, it must exit without bookkeeping.
    zombies: BTreeSet<usize>,
    /// Jobs whose last failure was a disk write; readiness is degraded
    /// while this is non-empty.
    disk_suspect: BTreeSet<u64>,
}

/// Owns the queue, the run-worker pool, and the watchdog. Construct
/// with [`JobManager::start`]; shut down with [`JobManager::drain`].
pub struct JobManager {
    inner: Mutex<Inner>,
    cond: Condvar,
    runner: Arc<dyn JobRunner>,
    metrics: Arc<ServerMetrics>,
    run_root: PathBuf,
    queue_depth: usize,
    policy: SupervisePolicy,
    workers: Mutex<Vec<(usize, JoinHandle<()>)>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("run_root", &self.run_root)
            .field("queue_depth", &self.queue_depth)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl JobManager {
    /// Creates the manager: recovers jobs left behind in `run_root` by a
    /// previous process, then starts `workers` run threads and the
    /// watchdog.
    pub fn start(
        run_root: PathBuf,
        queue_depth: usize,
        workers: usize,
        policy: SupervisePolicy,
        runner: Arc<dyn JobRunner>,
        metrics: Arc<ServerMetrics>,
    ) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(&run_root)?;
        let manager = Arc::new(JobManager {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            runner,
            metrics,
            run_root,
            queue_depth: queue_depth.max(1),
            policy,
            workers: Mutex::new(Vec::new()),
            watchdog: Mutex::new(None),
        });
        manager.recover()?;
        for _ in 0..workers.max(1) {
            Self::spawn_worker(&manager);
        }
        let m = Arc::clone(&manager);
        *lock(&manager.watchdog) = Some(
            std::thread::Builder::new()
                .name("moela-watchdog".into())
                .spawn(move || m.watchdog_loop())
                .expect("spawn watchdog"),
        );
        Ok(manager)
    }

    /// Spawns one run worker with a fresh, never-reused index.
    fn spawn_worker(manager: &Arc<Self>) {
        let idx = {
            let mut inner = lock(&manager.inner);
            let idx = inner.next_worker;
            inner.next_worker += 1;
            inner.workers_alive += 1;
            idx
        };
        let m = Arc::clone(manager);
        let handle = std::thread::Builder::new()
            .name(format!("moela-run-{idx}"))
            .spawn(move || m.worker_loop(idx))
            .expect("spawn run worker");
        lock(&manager.workers).push((idx, handle));
    }

    /// Scans `run_root` for `job.json` manifests from a previous life.
    /// Unfinished jobs (`queued`, `running`, `stalled`, `interrupted`)
    /// are re-queued in submission order with their persisted attempt
    /// counters — unless a crash-loop already spent the attempt budget,
    /// in which case the job is quarantined on the spot. Finished jobs
    /// are kept as records so the API can still report them.
    fn recover(&self) -> std::io::Result<()> {
        let mut found: Vec<(u64, Arc<JobRecord>, JobState)> = Vec::new();
        for entry in std::fs::read_dir(&self.run_root)? {
            let dir = entry?.path();
            let manifest_path = dir.join("job.json");
            if !manifest_path.is_file() {
                continue;
            }
            // A manifest that cannot be read or decoded (bad bytes, bad
            // JSON) costs only its own job, never the server's start.
            // `create` only re-creates the layout the job's first
            // `persist` made.
            let Ok(manifest) = RunStore::create(&dir).and_then(|store| store.read_job()) else {
                eprintln!("serve: skipping unreadable manifest {}", manifest_path.display());
                continue;
            };
            let Some(record) = record_from_manifest(&manifest, dir) else {
                eprintln!("serve: skipping malformed manifest {}", manifest_path.display());
                continue;
            };
            let state = record.state();
            found.push((record.seq, Arc::new(record), state));
        }
        found.sort_by_key(|(seq, _, _)| *seq);

        let mut dirty = Vec::new();
        {
            let mut inner = lock(&self.inner);
            for (seq, record, state) in found {
                inner.next_seq = inner.next_seq.max(seq + 1);
                if !state.is_terminal() {
                    // A job found `running`/`stalled` died mid-attempt;
                    // its counted attempt is spent. If the budget is
                    // gone, this is a crash-loop: quarantine instead of
                    // looping forever.
                    let crashed = matches!(state, JobState::Running | JobState::Stalled);
                    if crashed && record.attempts() >= self.policy.max_attempts {
                        ServerMetrics::bump(&self.metrics.quarantined);
                        record.set_state(
                            JobState::Quarantined,
                            Some(format!(
                                "crash loop: server died during attempt {} of {}",
                                record.attempts(),
                                self.policy.max_attempts
                            )),
                            None,
                        );
                    } else {
                        record.set_state(JobState::Queued, None, None);
                        inner.queue.push_back(seq);
                        ServerMetrics::bump(&self.metrics.recovered);
                    }
                    dirty.push(Arc::clone(&record));
                }
                inner.jobs.insert(seq, record);
            }
        }
        // Persist the recovered states outside the lock; a failure here
        // only means the next crash re-runs the same recovery.
        for record in dirty {
            self.persist(&record);
        }
        self.cond.notify_all();
        Ok(())
    }

    /// Validates and enqueues a job. Refuses with 503 while draining and
    /// 429 (plus `Retry-After`) when the queue is at capacity.
    pub fn submit(&self, spec: &Value) -> Result<Arc<JobRecord>, ApiError> {
        let spec =
            self.runner.validate(spec).map_err(|msg| ApiError::new(400, "invalid_spec", msg))?;
        let record = {
            let mut inner = lock(&self.inner);
            if inner.draining {
                return Err(ApiError::new(503, "draining", "server is draining"));
            }
            if inner.queue.len() >= self.queue_depth {
                ServerMetrics::bump(&self.metrics.rejected_full);
                return Err(ApiError::new(
                    429,
                    "queue_full",
                    format!("submission queue is full ({} jobs)", self.queue_depth),
                ));
            }
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let id = format!("job-{seq:06}");
            let dir = self.run_root.join(&id);
            let record = Arc::new(JobRecord::new(id, seq, dir, spec, JobState::Queued));
            inner.jobs.insert(seq, Arc::clone(&record));
            inner.queue.push_back(seq);
            record
        };
        ServerMetrics::bump(&self.metrics.submitted);
        self.persist(&record);
        self.cond.notify_one();
        Ok(record)
    }

    /// All jobs in submission order.
    pub fn list(&self) -> Vec<Arc<JobRecord>> {
        lock(&self.inner).jobs.values().cloned().collect()
    }

    /// Looks up a job by id.
    pub fn get(&self, id: &str) -> Option<Arc<JobRecord>> {
        lock(&self.inner).jobs.values().find(|r| r.id == id).cloned()
    }

    /// Cancels a job: a queued job (including one in retry backoff) is
    /// removed from the queue outright; a running or stalled job has
    /// its token fired and parks at the next step boundary. Terminal
    /// jobs refuse with 409.
    pub fn cancel(&self, id: &str) -> Result<Arc<JobRecord>, ApiError> {
        let record = self.get(id).ok_or_else(|| ApiError::not_found(format!("no job {id}")))?;
        let was_queued = {
            let mut inner = lock(&self.inner);
            match record.state() {
                JobState::Queued => {
                    inner.queue.retain(|&seq| seq != record.seq);
                    inner.retry.remove(&record.seq);
                    record.request_cancel();
                    record.set_state(JobState::Cancelled, None, None);
                    true
                }
                JobState::Running | JobState::Stalled => {
                    record.request_cancel();
                    false
                }
                state => {
                    return Err(ApiError::new(
                        409,
                        "not_cancellable",
                        format!("job {id} is already {}", state.name()),
                    ));
                }
            }
        };
        if was_queued {
            ServerMetrics::bump(&self.metrics.cancelled);
            self.persist(&record);
        }
        Ok(record)
    }

    /// Graceful drain: stop handing out work, park every running job at
    /// its next step boundary, and wait for the worker pool and the
    /// watchdog to exit. Queued jobs (including retry-pending ones) are
    /// left `queued` on disk for the next process.
    pub fn drain(&self) {
        let running: Vec<Arc<JobRecord>> = {
            let mut inner = lock(&self.inner);
            inner.draining = true;
            inner
                .jobs
                .values()
                .filter(|r| matches!(r.state(), JobState::Running | JobState::Stalled))
                .cloned()
                .collect()
        };
        for record in running {
            // A drain interrupt (not a client cancel): the worker
            // records the parked job as `interrupted`, not `cancelled`.
            record.interrupt(InterruptKind::Drain);
        }
        self.cond.notify_all();
        let mut inner = lock(&self.inner);
        while inner.running > 0 || inner.workers_alive > 0 {
            inner = self.cond.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        drop(inner);
        let handles = std::mem::take(&mut *lock(&self.workers));
        for (_, handle) in handles {
            let _ = handle.join();
        }
        if let Some(handle) = lock(&self.watchdog).take() {
            let _ = handle.join();
        }
    }

    /// One run worker: pop, run (inside an unwind boundary), settle the
    /// outcome through the supervision policy, repeat. Exits when a
    /// drain begins, or silently if the watchdog abandoned it.
    fn worker_loop(&self, idx: usize) {
        loop {
            let record = {
                let mut inner = lock(&self.inner);
                loop {
                    if inner.draining {
                        inner.workers_alive -= 1;
                        self.cond.notify_all();
                        return;
                    }
                    if let Some(seq) = inner.queue.pop_front() {
                        let Some(record) = inner.jobs.get(&seq).cloned() else { continue };
                        inner.running += 1;
                        inner.active.insert(idx, seq);
                        break record;
                    }
                    inner = self.cond.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
            };

            let Some((cancel, attempt)) = record.begin_attempt() else {
                // A client cancel raced the pickup; the fresh token was
                // never armed, so finalize without running.
                ServerMetrics::bump(&self.metrics.cancelled);
                record.set_state(JobState::Cancelled, None, None);
                self.persist(&record);
                self.finish_slot(idx);
                continue;
            };
            self.persist(&record);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.runner.run(JobContext {
                    id: &record.id,
                    dir: &record.dir,
                    spec: &record.spec,
                    cancel,
                    attempt,
                    heartbeat: &record.heartbeat,
                    live: &record.live,
                })
            }));
            *lock(&record.live) = None;

            // If the watchdog abandoned this worker while it was stuck,
            // the job has already been finalized and the slot's
            // bookkeeping transferred to a replacement: disappear.
            if lock(&self.inner).zombies.remove(&idx) {
                return;
            }

            let result = outcome.unwrap_or_else(|payload| {
                ServerMetrics::bump(&self.metrics.runner_panics);
                Err(RunError::transient(format!(
                    "runner panicked: {}",
                    panic_message(payload.as_ref())
                )))
            });
            self.settle(&record, result);
            self.finish_slot(idx);
        }
    }

    /// Releases a worker's run slot after an outcome was recorded.
    fn finish_slot(&self, idx: usize) {
        let mut inner = lock(&self.inner);
        inner.active.remove(&idx);
        inner.running -= 1;
        drop(inner);
        self.cond.notify_all();
    }

    /// Turns one execution outcome into a lifecycle transition.
    fn settle(&self, record: &Arc<JobRecord>, result: Result<RunOutcome, RunError>) {
        match result {
            Ok(RunOutcome::Completed { summary }) => {
                ServerMetrics::bump(&self.metrics.completed);
                record.set_state(JobState::Done, None, Some(summary));
                if self.persist(record) {
                    self.mark_disk(record.seq, false);
                }
            }
            Ok(RunOutcome::Interrupted) => match record.interrupt_kind() {
                Some(InterruptKind::Cancel) => {
                    ServerMetrics::bump(&self.metrics.cancelled);
                    record.set_state(JobState::Cancelled, None, None);
                    self.persist(record);
                }
                Some(InterruptKind::Deadline) => {
                    ServerMetrics::bump(&self.metrics.deadline_exceeded);
                    let timeout = record.timeout.map_or(0, |t| t.as_secs());
                    record.set_state(
                        JobState::DeadlineExceeded,
                        Some(format!("deadline exceeded: timeout_s={timeout} elapsed")),
                        None,
                    );
                    self.persist(record);
                }
                Some(InterruptKind::Stall) => {
                    self.retry_or_quarantine(
                        record,
                        format!(
                            "stalled: no step heartbeat for at least {}s",
                            self.policy.stall_timeout.as_secs()
                        ),
                    );
                }
                Some(InterruptKind::Drain) | None => {
                    ServerMetrics::bump(&self.metrics.interrupted);
                    record.set_state(JobState::Interrupted, None, None);
                    self.persist(record);
                }
            },
            Err(e) if e.is_retryable() => {
                if e.kind == FailureKind::Disk {
                    self.metrics.count_disk_failure();
                    self.mark_disk(record.seq, true);
                }
                self.retry_or_quarantine(record, e.message);
            }
            Err(e) => {
                ServerMetrics::bump(&self.metrics.failed);
                record.set_state(JobState::Failed, Some(e.message), None);
                self.persist(record);
            }
        }
    }

    /// Schedules a transient failure for retry with backoff, or
    /// quarantines the job when its attempt budget is spent.
    fn retry_or_quarantine(&self, record: &Arc<JobRecord>, error: String) {
        let attempts = record.attempts();
        if attempts >= self.policy.max_attempts {
            ServerMetrics::bump(&self.metrics.quarantined);
            record.set_state(
                JobState::Quarantined,
                Some(format!("quarantined after {attempts} attempts; last error: {error}")),
                None,
            );
            if self.persist(record) {
                self.mark_disk(record.seq, false);
            }
            return;
        }
        ServerMetrics::bump(&self.metrics.retried);
        let delay = self.policy.backoff(&record.id, attempts);
        record.schedule_retry(error);
        self.persist(record);
        let mut inner = lock(&self.inner);
        if !inner.draining {
            inner.retry.insert(record.seq, Instant::now() + delay);
        }
        // While draining, the job stays `queued` on disk and the next
        // server life retries it immediately.
    }

    /// The watchdog: releases due retries, enforces deadlines, detects
    /// stalls, abandons unresponsive workers, and respawns dead ones.
    /// Keeps running during a drain (a stuck worker must still be
    /// abandonable or the drain would hang), exiting once the pool is
    /// gone.
    fn watchdog_loop(self: &Arc<Self>) {
        loop {
            std::thread::sleep(self.policy.tick);
            let (draining, idle) = {
                let inner = lock(&self.inner);
                (inner.draining, inner.running == 0 && inner.workers_alive == 0)
            };
            if draining && idle {
                return;
            }
            self.supervise_tick(draining);
        }
    }

    /// One watchdog scan.
    fn supervise_tick(self: &Arc<Self>, draining: bool) {
        let now = Instant::now();
        if !draining {
            self.release_due_retries(now);
            self.reap_dead_workers();
        }

        let live: Vec<Arc<JobRecord>> = {
            let inner = lock(&self.inner);
            inner
                .jobs
                .values()
                .filter(|r| matches!(r.state(), JobState::Running | JobState::Stalled))
                .cloned()
                .collect()
        };
        for record in live {
            match record.state() {
                JobState::Running => {
                    if let (Some(timeout), Some(elapsed)) = (record.timeout, record.running_for()) {
                        if elapsed > timeout && record.interrupt(InterruptKind::Deadline) {
                            continue;
                        }
                    }
                    if record.heartbeat.idle() > self.policy.stall_timeout
                        && record.interrupt_kind().is_none()
                        && record.interrupt(InterruptKind::Stall)
                    {
                        ServerMetrics::bump(&self.metrics.stalled);
                        record.set_state(JobState::Stalled, None, None);
                        self.persist(&record);
                    }
                }
                JobState::Stalled => {
                    let limit = self.policy.stall_timeout + self.policy.stall_grace;
                    if record.heartbeat.idle() > limit {
                        self.abandon(&record);
                    }
                }
                _ => {}
            }
        }
    }

    /// Moves jobs whose retry backoff has elapsed back into the queue.
    fn release_due_retries(&self, now: Instant) {
        let released = {
            let mut inner = lock(&self.inner);
            let due: Vec<u64> =
                inner.retry.iter().filter(|(_, at)| **at <= now).map(|(seq, _)| *seq).collect();
            for seq in &due {
                inner.retry.remove(seq);
                inner.queue.push_back(*seq);
            }
            !due.is_empty()
        };
        if released {
            self.cond.notify_all();
        }
    }

    /// Joins workers whose threads died outside the unwind boundary,
    /// retries the job they were driving, and respawns replacements.
    fn reap_dead_workers(self: &Arc<Self>) {
        let mut respawn = 0usize;
        let mut orphans: Vec<Arc<JobRecord>> = Vec::new();
        {
            let mut workers = lock(&self.workers);
            let mut inner = lock(&self.inner);
            if inner.draining {
                return;
            }
            let mut i = 0;
            while i < workers.len() {
                if !workers[i].1.is_finished() || inner.zombies.contains(&workers[i].0) {
                    i += 1;
                    continue;
                }
                let (idx, handle) = workers.remove(i);
                let _ = handle.join();
                inner.workers_alive = inner.workers_alive.saturating_sub(1);
                if let Some(seq) = inner.active.remove(&idx) {
                    inner.running = inner.running.saturating_sub(1);
                    if let Some(record) = inner.jobs.get(&seq) {
                        orphans.push(Arc::clone(record));
                    }
                }
                respawn += 1;
            }
        }
        for record in orphans {
            self.retry_or_quarantine(&record, "worker thread died unexpectedly".into());
        }
        for _ in 0..respawn {
            ServerMetrics::bump(&self.metrics.worker_respawns);
            Self::spawn_worker(self);
        }
        if respawn > 0 {
            self.cond.notify_all();
        }
    }

    /// Gives up on a worker that ignored its stall interrupt: the job is
    /// quarantined (its directory may still be written to by the stuck
    /// thread, so retrying it is not safe), the worker becomes a zombie
    /// whose eventual return is discarded, and a replacement keeps the
    /// pool at full strength.
    fn abandon(self: &Arc<Self>, record: &Arc<JobRecord>) {
        let (idx, respawn) = {
            let mut inner = lock(&self.inner);
            let Some(idx) =
                inner.active.iter().find(|(_, seq)| **seq == record.seq).map(|(i, _)| *i)
            else {
                return; // the worker settled after all; nothing to do
            };
            inner.active.remove(&idx);
            inner.zombies.insert(idx);
            inner.running = inner.running.saturating_sub(1);
            inner.workers_alive = inner.workers_alive.saturating_sub(1);
            (idx, !inner.draining)
        };
        // Detach the zombie's handle so a drain never joins a stuck
        // thread (dropping a JoinHandle detaches it).
        lock(&self.workers).retain(|(i, _)| *i != idx);
        ServerMetrics::bump(&self.metrics.quarantined);
        let limit = self.policy.stall_timeout + self.policy.stall_grace;
        record.set_state(
            JobState::Quarantined,
            Some(format!(
                "worker unresponsive: no step heartbeat for over {}s; worker abandoned",
                limit.as_secs()
            )),
            None,
        );
        self.persist(record);
        self.cond.notify_all();
        if respawn {
            ServerMetrics::bump(&self.metrics.worker_respawns);
            Self::spawn_worker(self);
        }
    }

    /// Writes a record's `job.json`, feeding failures into the disk
    /// health tracking. Returns whether the write succeeded.
    fn persist(&self, record: &JobRecord) -> bool {
        match record.persist() {
            Ok(()) => true,
            Err(e) => {
                eprintln!("serve: {e}");
                self.metrics.count_disk_failure();
                self.mark_disk(record.seq, true);
                false
            }
        }
    }

    /// Adds or removes a job from the disk-suspect set and refreshes
    /// the readiness latch.
    fn mark_disk(&self, seq: u64, failed: bool) {
        let degraded = {
            let mut inner = lock(&self.inner);
            if failed {
                inner.disk_suspect.insert(seq);
            } else {
                inner.disk_suspect.remove(&seq);
            }
            !inner.disk_suspect.is_empty()
        };
        self.metrics.set_disk_degraded(degraded);
    }
}

/// Renders a panic payload for the job's error message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Rebuilds a [`JobRecord`] from a persisted `job.json`.
fn record_from_manifest(manifest: &Value, dir: PathBuf) -> Option<JobRecord> {
    let id = manifest.field_opt("id")?.as_str().ok()?.to_owned();
    let seq = manifest.field_opt("seq")?.as_u64().ok()?;
    let state = JobState::parse(manifest.field_opt("state")?.as_str().ok()?)?;
    let spec = manifest.field_opt("spec")?.clone();
    let record = JobRecord::new(id, seq, dir, spec, state);
    record.restore_from_manifest(manifest);
    let error = manifest.field_opt("error").and_then(|v| v.as_str().ok()).map(str::to_owned);
    let summary = manifest.field_opt("summary").cloned();
    if error.is_some() || summary.is_some() {
        record.set_state(state, error, summary);
    }
    Some(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// A runner that "runs" by polling its cancel token: completes after
    /// `steps` polls, or parks if cancelled first. Spec keys steer
    /// failure modes (see `run`).
    struct StubRunner {
        steps: u64,
        step_ms: u64,
        started: AtomicU64,
    }

    impl StubRunner {
        fn new(steps: u64, step_ms: u64) -> Self {
            StubRunner { steps, step_ms, started: AtomicU64::new(0) }
        }
    }

    impl JobRunner for StubRunner {
        fn validate(&self, spec: &Value) -> Result<Value, String> {
            if spec.field_opt("bad").is_some() {
                return Err("bad spec".into());
            }
            Ok(spec.clone())
        }

        fn run(&self, ctx: JobContext<'_>) -> Result<RunOutcome, RunError> {
            self.started.fetch_add(1, Ordering::SeqCst);
            // `<mode>_until: n` in the spec applies the mode to attempts
            // 1..n; a job without the key never enters that mode.
            let until =
                |key: &str| ctx.spec.field_opt(key).and_then(|v| v.as_u64().ok()).unwrap_or(0);
            if ctx.spec.field_opt("fail").is_some() {
                return Err(RunError::permanent("boom"));
            }
            if ctx.attempt < until("flaky_until") {
                return Err(RunError::transient(format!("flaky on attempt {}", ctx.attempt)));
            }
            if ctx.attempt < until("disk_until") {
                return Err(RunError::disk(format!("ENOSPC on attempt {}", ctx.attempt)));
            }
            if ctx.attempt < until("panic_until") {
                panic!("eval exploded on attempt {}", ctx.attempt);
            }
            // `mute` attempts never beat the heartbeat; `deaf` attempts
            // additionally ignore the cancel token. `steps` in the spec
            // overrides the runner-wide step count per job.
            let mute = ctx.attempt < until("mute_until");
            let deaf = ctx.attempt < until("deaf_until");
            let steps =
                ctx.spec.field_opt("steps").and_then(|v| v.as_u64().ok()).unwrap_or(self.steps);
            for _ in 0..steps {
                if !mute {
                    ctx.heartbeat.beat();
                }
                if !deaf && ctx.cancel.is_cancelled() {
                    return Ok(RunOutcome::Interrupted);
                }
                std::thread::sleep(Duration::from_millis(self.step_ms));
            }
            Ok(RunOutcome::Completed { summary: Value::object(vec![("ok", Value::Bool(true))]) })
        }
    }

    fn spec() -> Value {
        Value::object(vec![("algorithm", Value::Str("stub".into()))])
    }

    fn spec_with(extra: Vec<(&str, Value)>) -> Value {
        let mut fields = vec![("algorithm", Value::Str("stub".into()))];
        fields.extend(extra);
        Value::object(fields)
    }

    /// A fast supervision policy for tests: tight tick, short backoff,
    /// stall detection effectively off unless a test opts in.
    fn fast_policy() -> SupervisePolicy {
        SupervisePolicy {
            max_attempts: 3,
            retry_base: Duration::from_millis(10),
            retry_cap: Duration::from_millis(100),
            stall_timeout: Duration::from_secs(3600),
            stall_grace: Duration::from_secs(3600),
            tick: Duration::from_millis(5),
        }
    }

    fn start(
        root: PathBuf,
        depth: usize,
        workers: usize,
        policy: SupervisePolicy,
        runner: Arc<dyn JobRunner>,
        metrics: &Arc<ServerMetrics>,
    ) -> Arc<JobManager> {
        JobManager::start(root, depth, workers, policy, runner, Arc::clone(metrics))
            .expect("start manager")
    }

    /// Polls `job.json` until it contains `needle`: the in-memory state
    /// flips before the manifest write lands, so disk assertions must
    /// wait on the file itself.
    fn wait_for_on_disk(record: &JobRecord, needle: &str) -> String {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let text = std::fs::read_to_string(record.dir.join("job.json")).unwrap_or_default();
            if text.contains(needle) {
                return text;
            }
            if std::time::Instant::now() >= deadline {
                panic!("job.json for {} never contained {needle}: {text}", record.id);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn wait_for(record: &JobRecord, state: JobState) {
        // Generous deadline: the full workspace suite runs real optimizer
        // e2e tests concurrently, and a starved worker thread can take
        // seconds to pick a stub job up.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while record.state() != state {
            if std::time::Instant::now() >= deadline {
                panic!("job {} never reached {state:?} (at {:?})", record.id, record.state());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn jobs_run_to_completion_and_persist() {
        let root = tempdir("complete");
        let metrics = Arc::new(ServerMetrics::new());
        let manager =
            start(root.clone(), 4, 2, fast_policy(), Arc::new(StubRunner::new(1, 1)), &metrics);
        let record = manager.submit(&spec()).expect("submit");
        wait_for(&record, JobState::Done);
        assert!(record.summary().is_some());
        assert_eq!(record.attempts(), 1);
        let on_disk = wait_for_on_disk(&record, "\"state\":\"done\"");
        assert!(on_disk.contains("\"attempts\":1"), "{on_disk}");
        manager.drain();
        assert_eq!(metrics.completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_queue_refuses_submissions() {
        let root = tempdir("full");
        let metrics = Arc::new(ServerMetrics::new());
        let manager =
            start(root, 1, 1, fast_policy(), Arc::new(StubRunner::new(10_000, 5)), &metrics);
        // First job occupies the single worker; second fills the queue.
        let running = manager.submit(&spec()).expect("submit 1");
        wait_for(&running, JobState::Running);
        manager.submit(&spec()).expect("submit 2");
        let err = manager.submit(&spec()).expect_err("queue full");
        assert_eq!(err.status, 429);
        assert_eq!(err.code, "queue_full");
        manager.drain();
    }

    #[test]
    fn invalid_specs_are_rejected_before_queueing() {
        let root = tempdir("invalid");
        let metrics = Arc::new(ServerMetrics::new());
        let manager = start(root, 4, 1, fast_policy(), Arc::new(StubRunner::new(1, 1)), &metrics);
        let err =
            manager.submit(&Value::object(vec![("bad", Value::Bool(true))])).expect_err("invalid");
        assert_eq!(err.status, 400);
        assert!(manager.list().is_empty());
        manager.drain();
    }

    #[test]
    fn cancel_handles_every_lifecycle_stage() {
        let root = tempdir("cancel");
        let metrics = Arc::new(ServerMetrics::new());
        let manager =
            start(root, 4, 1, fast_policy(), Arc::new(StubRunner::new(10_000, 5)), &metrics);
        let running = manager.submit(&spec()).expect("submit running");
        wait_for(&running, JobState::Running);
        let queued = manager.submit(&spec()).expect("submit queued");

        // Queued: removed from the queue immediately.
        manager.cancel(&queued.id).expect("cancel queued");
        assert_eq!(queued.state(), JobState::Cancelled);
        // Terminal: refused.
        let err = manager.cancel(&queued.id).expect_err("cancel terminal");
        assert_eq!(err.status, 409);
        // Running: parks at the next step boundary as cancelled.
        manager.cancel(&running.id).expect("cancel running");
        wait_for(&running, JobState::Cancelled);
        assert_eq!(metrics.cancelled.load(Ordering::Relaxed), 2);
        manager.drain();
    }

    #[test]
    fn drain_interrupts_running_and_leaves_queued_for_restart() {
        let root = tempdir("drain");
        let metrics = Arc::new(ServerMetrics::new());
        let manager = start(
            root.clone(),
            4,
            1,
            fast_policy(),
            Arc::new(StubRunner::new(10_000, 5)),
            &metrics,
        );
        let running = manager.submit(&spec()).expect("submit running");
        wait_for(&running, JobState::Running);
        let queued = manager.submit(&spec()).expect("submit queued");
        manager.drain();
        assert_eq!(running.state(), JobState::Interrupted);
        assert_eq!(queued.state(), JobState::Queued);
        let err = manager.submit(&spec()).expect_err("draining");
        assert_eq!(err.status, 503);

        // A fresh manager over the same root re-queues both and runs
        // them to completion.
        let metrics2 = Arc::new(ServerMetrics::new());
        let revived = start(root, 4, 2, fast_policy(), Arc::new(StubRunner::new(1, 1)), &metrics2);
        assert_eq!(metrics2.recovered.load(Ordering::Relaxed), 2);
        let jobs = revived.list();
        assert_eq!(jobs.len(), 2);
        for job in &jobs {
            wait_for(job, JobState::Done);
        }
        // New submissions continue the sequence instead of reusing ids.
        let fresh = revived.submit(&spec()).expect("submit after restart");
        assert!(fresh.seq > jobs.iter().map(|j| j.seq).max().unwrap());
        revived.drain();
    }

    #[test]
    fn permanent_failures_record_their_error_without_retrying() {
        let root = tempdir("failed");
        let metrics = Arc::new(ServerMetrics::new());
        let manager = start(root, 4, 1, fast_policy(), Arc::new(StubRunner::new(1, 1)), &metrics);
        let record =
            manager.submit(&Value::object(vec![("fail", Value::Bool(true))])).expect("submit");
        wait_for(&record, JobState::Failed);
        assert_eq!(record.error().as_deref(), Some("boom"));
        assert_eq!(record.attempts(), 1, "permanent failures must not retry");
        assert_eq!(metrics.retried.load(Ordering::Relaxed), 0);
        manager.drain();
    }

    #[test]
    fn transient_failures_retry_with_backoff_until_success() {
        let root = tempdir("retry");
        let metrics = Arc::new(ServerMetrics::new());
        let runner = Arc::new(StubRunner::new(1, 1));
        let manager = start(root, 4, 1, fast_policy(), Arc::clone(&runner) as _, &metrics);
        let record =
            manager.submit(&spec_with(vec![("flaky_until", Value::U64(3))])).expect("submit");
        wait_for(&record, JobState::Done);
        assert_eq!(record.attempts(), 3, "two transient failures, then success");
        assert_eq!(metrics.retried.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.quarantined.load(Ordering::Relaxed), 0);
        // The history records each failed attempt with its error.
        let history = record.history();
        let errors: Vec<_> = history.iter().filter(|h| h.error.is_some()).collect();
        assert!(errors.len() >= 2, "history must show the failed attempts: {history:?}");
        manager.drain();
    }

    #[test]
    fn exhausted_attempt_budgets_quarantine_with_history() {
        let root = tempdir("quarantine");
        let metrics = Arc::new(ServerMetrics::new());
        let manager = start(root, 4, 1, fast_policy(), Arc::new(StubRunner::new(1, 1)), &metrics);
        let record =
            manager.submit(&spec_with(vec![("flaky_until", Value::U64(100))])).expect("submit");
        wait_for(&record, JobState::Quarantined);
        assert_eq!(record.attempts(), 3, "the whole budget is spent");
        assert_eq!(metrics.retried.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.quarantined.load(Ordering::Relaxed), 1);
        let error = record.error().expect("quarantine records the last error");
        assert!(error.contains("after 3 attempts"), "{error}");
        assert!(error.contains("flaky on attempt 3"), "{error}");
        let on_disk = wait_for_on_disk(&record, "\"state\":\"quarantined\"");
        assert!(on_disk.contains("\"attempts\":3"), "{on_disk}");
        assert!(on_disk.contains("\"history\":["), "{on_disk}");
        manager.drain();
    }

    #[test]
    fn crash_loops_are_quarantined_at_recovery() {
        let root = tempdir("crashloop");
        // Forge the aftermath of a SIGKILL mid-attempt-3: a job left
        // `running` with the whole attempt budget spent.
        let dir = root.join("job-000000");
        std::fs::create_dir_all(&dir).expect("job dir");
        let record = JobRecord::new("job-000000".into(), 0, dir.clone(), spec(), JobState::Running);
        record.restore(3, Vec::new());
        record.persist().expect("forge job.json");

        let metrics = Arc::new(ServerMetrics::new());
        let manager = start(root, 4, 1, fast_policy(), Arc::new(StubRunner::new(1, 1)), &metrics);
        let revived = manager.get("job-000000").expect("recovered");
        assert_eq!(revived.state(), JobState::Quarantined);
        assert_eq!(revived.attempts(), 3);
        assert!(revived.error().unwrap().contains("crash loop"), "{:?}", revived.error());
        assert_eq!(metrics.quarantined.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.recovered.load(Ordering::Relaxed), 0);
        manager.drain();
    }

    #[test]
    fn unreadable_manifests_are_skipped_at_recovery() {
        let root = tempdir("unreadable");
        for (name, bytes) in [
            ("job-000000", &b"{\"id\":\"job-000000\",\xff}"[..]),
            ("job-000001", &b"{not json"[..]),
        ] {
            std::fs::create_dir_all(root.join(name)).expect("job dir");
            std::fs::write(root.join(name).join("job.json"), bytes).expect("forge job.json");
        }
        let dir = root.join("job-000002");
        let record = JobRecord::new("job-000002".into(), 2, dir, spec(), JobState::Queued);
        record.persist().expect("forge job.json");

        let metrics = Arc::new(ServerMetrics::new());
        let manager = start(root, 4, 1, fast_policy(), Arc::new(StubRunner::new(1, 1)), &metrics);
        assert!(manager.get("job-000000").is_none(), "non-UTF-8 manifest skipped");
        assert!(manager.get("job-000001").is_none(), "malformed manifest skipped");
        let revived = manager.get("job-000002").expect("the readable job is recovered");
        wait_for(&revived, JobState::Done);
        assert_eq!(metrics.recovered.load(Ordering::Relaxed), 1);
        manager.drain();
    }

    #[test]
    fn runner_panics_are_contained_and_retried() {
        let root = tempdir("panic");
        let metrics = Arc::new(ServerMetrics::new());
        let manager = start(root, 4, 1, fast_policy(), Arc::new(StubRunner::new(1, 1)), &metrics);
        let record =
            manager.submit(&spec_with(vec![("panic_until", Value::U64(2))])).expect("submit");
        wait_for(&record, JobState::Done);
        assert_eq!(record.attempts(), 2);
        assert_eq!(metrics.runner_panics.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.retried.load(Ordering::Relaxed), 1);
        // The panic message made it into the job history.
        let history = record.history();
        assert!(
            history.iter().any(|h| {
                h.error.as_deref().is_some_and(|e| e.contains("eval exploded on attempt 1"))
            }),
            "{history:?}"
        );
        // The worker survived the panic: the server keeps serving.
        let again = manager.submit(&spec()).expect("submit after panic");
        wait_for(&again, JobState::Done);
        manager.drain();
    }

    #[test]
    fn deadlines_park_the_job_as_deadline_exceeded() {
        let root = tempdir("deadline");
        let metrics = Arc::new(ServerMetrics::new());
        let manager =
            start(root, 4, 1, fast_policy(), Arc::new(StubRunner::new(10_000, 5)), &metrics);
        let record =
            manager.submit(&spec_with(vec![("timeout_s", Value::U64(1))])).expect("submit");
        wait_for(&record, JobState::DeadlineExceeded);
        assert_eq!(metrics.deadline_exceeded.load(Ordering::Relaxed), 1);
        assert!(record.error().unwrap().contains("deadline exceeded"), "{:?}", record.error());
        assert!(record.state().is_terminal());
        manager.drain();
    }

    #[test]
    fn stalled_jobs_are_interrupted_and_retried() {
        let root = tempdir("stall");
        let metrics = Arc::new(ServerMetrics::new());
        let mut policy = fast_policy();
        policy.stall_timeout = Duration::from_millis(60);
        let manager = start(root, 4, 1, policy, Arc::new(StubRunner::new(100, 5)), &metrics);
        // Attempt 1 never beats the heartbeat (but still honors the
        // cancel token); attempt 2 behaves and completes.
        let record =
            manager.submit(&spec_with(vec![("mute_until", Value::U64(2))])).expect("submit");
        wait_for(&record, JobState::Done);
        assert_eq!(record.attempts(), 2);
        assert!(metrics.stalled.load(Ordering::Relaxed) >= 1);
        assert!(metrics.retried.load(Ordering::Relaxed) >= 1);
        let history = record.history();
        assert!(
            history.iter().any(|h| h.state == JobState::Stalled),
            "stall must be visible in history: {history:?}"
        );
        manager.drain();
    }

    #[test]
    fn unresponsive_workers_are_abandoned_and_replaced() {
        let root = tempdir("abandon");
        let metrics = Arc::new(ServerMetrics::new());
        let mut policy = fast_policy();
        // A wide grace window so only the genuinely deaf worker (~3s
        // without a beat) is ever abandoned — a loaded test machine can
        // stretch an innocent job's 50ms step well past a tight window.
        policy.stall_timeout = Duration::from_millis(50);
        policy.stall_grace = Duration::from_millis(700);
        // ~60 ticks of 50ms: the stuck attempt ignores cancel for ~3s,
        // far beyond stall_timeout + stall_grace.
        let manager = start(root, 4, 1, policy, Arc::new(StubRunner::new(60, 50)), &metrics);
        let stuck = manager
            .submit(&spec_with(vec![("mute_until", Value::U64(2)), ("deaf_until", Value::U64(2))]))
            .expect("submit stuck");
        wait_for(&stuck, JobState::Quarantined);
        assert!(stuck.error().unwrap().contains("worker unresponsive"), "{:?}", stuck.error());
        // The respawn lands just after the quarantine transition the
        // wait above observed; poll instead of racing it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while metrics.worker_respawns.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "worker never respawned");
            std::thread::sleep(Duration::from_millis(2));
        }
        // The replacement worker keeps the pool serving. One short step
        // so the sibling settles before the tight stall policy can
        // misread its heartbeat.
        let next =
            manager.submit(&spec_with(vec![("steps", Value::U64(1))])).expect("submit after");
        wait_for(&next, JobState::Done);
        manager.drain();
    }

    #[test]
    fn disk_failures_degrade_readiness_until_a_clean_settle() {
        let root = tempdir("disk");
        let metrics = Arc::new(ServerMetrics::new());
        let mut policy = fast_policy();
        // A long backoff keeps the degraded window wide open, so the
        // poll below cannot miss it even on a loaded machine.
        policy.retry_base = Duration::from_millis(800);
        policy.retry_cap = Duration::from_millis(1200);
        let manager = start(root, 4, 1, policy, Arc::new(StubRunner::new(1, 1)), &metrics);
        let record =
            manager.submit(&spec_with(vec![("disk_until", Value::U64(2))])).expect("submit");
        // While the job waits out its backoff after the disk failure,
        // readiness is degraded.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !metrics.is_disk_degraded() {
            assert!(std::time::Instant::now() < deadline, "degradation never latched");
            std::thread::sleep(Duration::from_millis(2));
        }
        wait_for(&record, JobState::Done);
        // The latch clears right after the settle's manifest write; give
        // that write a moment instead of racing it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while metrics.is_disk_degraded() {
            assert!(std::time::Instant::now() < deadline, "clean settle must restore readiness");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(metrics.disk_write_failures.load(Ordering::Relaxed), 1);
        assert_eq!(record.attempts(), 2);
        manager.drain();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moela-serve-mgr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir
    }
}
