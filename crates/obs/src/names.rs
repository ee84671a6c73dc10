//! The shared name registry for supervision telemetry.
//!
//! The serve layer counts retries, quarantines, stalls, and deadline
//! hits in its `/metrics` endpoint, and the engine stamps the same
//! facts into each run's `metrics.json`. Both sides key off these
//! constants so the two surfaces can never drift apart on spelling —
//! a dashboard that joins them joins on one string.

/// Jobs re-queued with backoff after a transient failure.
pub const JOBS_RETRIED: &str = "jobs_retried";

/// Jobs parked terminally after exhausting their attempt budget.
pub const JOBS_QUARANTINED: &str = "jobs_quarantined";

/// Jobs the watchdog marked stalled on a stale heartbeat.
pub const JOBS_STALLED: &str = "jobs_stalled";

/// Jobs terminated by their spec's `timeout_s` deadline.
pub const JOBS_DEADLINE_EXCEEDED: &str = "jobs_deadline_exceeded";

/// Runner panics contained by a worker's unwind boundary.
pub const RUNNER_PANICS: &str = "runner_panics";

/// Worker threads replaced after dying or being abandoned.
pub const WORKER_RESPAWNS: &str = "worker_respawns";

/// Checkpoint/trace/manifest writes that failed with an I/O error.
pub const DISK_WRITE_FAILURES: &str = "disk_write_failures";

/// The 1-based attempt number of a supervised execution (engine-side
/// marker in `metrics.json`; absent for direct CLI runs).
pub const JOB_ATTEMPT: &str = "job_attempt";

/// Population/archive members replaced or inserted by local-search
/// moves. With [`EA_IMPROVEMENTS`] this attributes search progress to
/// its producing operator, MOEADr-style — the pair is emitted per step
/// by every optimizer and totalled by `moela-dse report`.
pub const LS_IMPROVEMENTS: &str = "ls_improvements";

/// Population members replaced by crossover/mutation offspring (the
/// decomposition-EA or environmental-selection half of a step).
pub const EA_IMPROVEMENTS: &str = "ea_improvements";

/// MOO-STAGE meta-search moves: neighbors the learned `Eval` predicted
/// better than the meta search's current design, so the search moved.
pub const META_MOVES: &str = "meta_moves";

/// MOO-STAGE random restarts: episodes whose meta search could not move
/// from the local search's final design, so the next start is random.
pub const RANDOM_RESTARTS: &str = "random_restarts";
