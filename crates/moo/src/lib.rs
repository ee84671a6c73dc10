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
//!   algorithm), a Monte-Carlo estimator, and IGD in [`metrics`];
//! * decomposition support: Das–Dennis [`weights::uniform_weights`],
//!   [`scalarize::Scalarizer`] (weighted sum and Tchebycheff),
//!   [`scalarize::ReferencePoint`] tracking;
//! * objective normalization ([`normalize::Normalizer`]) and a bounded
//!   [`archive::ParetoArchive`];
//! * the MOEA/D engine MOELA and the MOEA/D baseline share: the
//!   [`decomposition::Population`] with its eq. (10) update and its
//!   mating-and-replacement pass [`decomposition::Population::evolve`];
//! * the greedy weighted-sum descent of eq. (8),
//!   [`local_search::greedy_descent`], run by MOELA and MOOS;
//! * one evaluation path: an optimizer generates candidates sequentially
//!   and hands the batch to [`checkpoint::RunCtx::evaluate`], which
//!   passes it to [`fault::GuardedEvaluator::evaluate`]. The guard holds
//!   the run's evaluation count, fans the batch out across scoped worker
//!   threads, calls [`Problem::evaluate_ordinal`] per candidate with its
//!   number in that count and gives bit-identical results at any thread
//!   count;
//! * fault containment on that path: the guard turns panicking,
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
pub mod decomposition;
pub mod fault;
pub mod hypervolume;
pub mod local_search;
pub mod metrics;
pub mod normalize;
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
pub use problem::Problem;
