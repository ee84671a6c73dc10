//! dse-bench: the benchmark of record for `moela-dse`.
//!
//! End-to-end metrics come from untraced `moela-dse run` child processes
//! timed from outside; per-layer metrics come from a separate traced
//! in-process run that times the repository crates' public functions.
//! See README.md for the workloads, the metrics and the claim protocol.

pub mod child;
pub mod compare;
pub mod gate;
pub mod run;
pub mod spec;
pub mod stats;
pub mod traced;
