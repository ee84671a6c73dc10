//! Multi-objective optimization (MOO) toolkit underpinning the MOELA
//! reproduction.
//!
//! This crate provides the domain-independent machinery that every optimizer
//! in the workspace builds on:
//!
//! * the [`Problem`] trait — the contract between optimizers and design
//!   spaces (all objectives are **minimized**);
//! * Pareto analysis: [`pareto::dominates`], fast non-dominated sorting
//!   ([`pareto::non_dominated_sort`]), crowding distance;
//! * solution-quality metrics: exact [`hypervolume::hypervolume`] (WFG
//!   algorithm), a Monte-Carlo estimator, IGD/IGD+, spread and coverage in
//!   [`metrics`];
//! * decomposition support: Das–Dennis [`weights::uniform_weights`],
//!   [`scalarize::Scalarizer`] (weighted sum and Tchebycheff),
//!   [`scalarize::ReferencePoint`] tracking;
//! * objective normalization ([`normalize::Normalizer`]) and a bounded
//!   [`archive::ParetoArchive`];
//! * deterministic parallel batch evaluation
//!   ([`parallel::ParallelEvaluator`]) — optimizers generate candidates
//!   sequentially, then evaluate whole batches across scoped worker
//!   threads with bit-identical results at any thread count;
//! * evaluation memoization: [`cache::CachedProblem`] memoizes whole
//!   objective vectors in a bounded, thread-safe [`cache::EvalCache`]
//!   keyed by exact solution bytes ([`Problem::cache_key`]), so duplicate
//!   candidates never re-evaluate while staying bit-identical to
//!   uncached runs;
//! * fault containment: [`fault::GuardedEvaluator`] turns panicking,
//!   NaN-producing or malformed evaluations into structured
//!   [`fault::EvalFault`]s handled by a uniform [`fault::FaultPolicy`],
//!   and [`chaos::ChaosProblem`] injects such faults deterministically
//!   for testing;
//! * synthetic benchmark problems with known Pareto fronts in [`problems`]
//!   (ZDT, DTLZ, and a combinatorial multi-objective knapsack), used to
//!   validate every optimizer in the workspace;
//! * checkpoint/resume support: the [`checkpoint::Resumable`]
//!   state-machine contract every optimizer implements, the
//!   [`checkpoint::RunCtx`] run lifecycle they share, and [`snapshot`]
//!   conversions of toolkit components to `moela-persist` JSON values.
//!
//! # Example
//!
//! ```
//! use moela_moo::{hypervolume::hypervolume, pareto::non_dominated_sort};
//!
//! let objs = vec![vec![1.0, 4.0], vec![2.0, 2.0], vec![4.0, 1.0], vec![3.0, 3.0]];
//! let fronts = non_dominated_sort(&objs);
//! assert_eq!(fronts[0], vec![0, 1, 2]); // the last point is dominated
//!
//! let hv = hypervolume(&objs, &[5.0, 5.0]);
//! assert!(hv > 0.0);
//! ```

pub mod archive;
pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod counter;
pub mod fault;
pub mod hypervolume;
pub mod metrics;
pub mod normalize;
pub mod parallel;
pub mod pareto;
pub mod problem;
pub mod problems;
pub mod run;
pub mod scalarize;
pub mod snapshot;
pub mod weights;

pub use cache::{CacheStats, CachedProblem, EvalCache, DEFAULT_EVAL_CACHE_CAPACITY};
pub use chaos::{ChaosProblem, ChaosSpec};
pub use counter::{Counted, EvalCounter};
pub use fault::{
    is_penalty, is_quarantined, penalty_objectives, EvalFault, FaultConfig, FaultKind, FaultLog,
    FaultPolicy, GuardedBatch, GuardedEvaluator, PENALTY,
};
pub use parallel::ParallelEvaluator;
pub use problem::Problem;
