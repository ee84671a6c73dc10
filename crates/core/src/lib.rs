//! MOELA: a hybrid multi-objective evolutionary/learning optimizer.
//!
//! This crate implements the paper's primary contribution — Algorithm 1 —
//! over the generic [`moela_moo::Problem`] trait, so the same engine that
//! explores 3D-NoC manycore designs (`moela_manycore::ManycoreProblem`)
//! also solves any other multi-objective problem (the validation suite
//! runs it on ZDT/DTLZ), realizing the paper's closing claim that MOELA
//! generalizes "across many other problem domains".
//!
//! The moving parts:
//!
//! * [`MoelaConfig`] — Algorithm 1's inputs (`N`, `gen`, `iter_early`,
//!   `n_local`, `δ`, `|S_train|` cap) plus practical budgets;
//! * [`Moela`] — the full loop: ML-guided start selection (Algorithm 2,
//!   via a [`moela_ml::RandomForest`]), local search, `Eval` retraining,
//!   and the decomposition EA step;
//! * [`OptimizerSettings`] — the optimizer table: the one place where a
//!   run's settings become MOELA or one of the `moela-baselines`
//!   optimizers, for `moela-dse` and the experiment harness alike.
//!
//! The machinery it shares with the baselines lives in `moela-moo`: the
//! decomposition population with its eq. (10) update and EA pass
//! ([`moela_moo::decomposition::Population`], the same engine the MOEA/D
//! baseline runs), and the eq. (8) weighted-sum descent
//! ([`moela_moo::local_search::greedy_descent`]) whose accepted states
//! become the trajectories that feed the learned evaluation function.
//!
//! # Example
//!
//! ```
//! use moela_core::{Moela, MoelaConfig};
//! use moela_moo::problems::Zdt;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = Zdt::zdt1(12);
//! let config = MoelaConfig::builder()
//!     .population(16)
//!     .generations(10)
//!     .build()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let outcome = Moela::new(config, &problem).run(&mut rng);
//! println!("final front: {} designs", outcome.front().len());
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod moela;
pub mod optimizer;

pub use config::{BuildConfigError, MoelaConfig, MoelaConfigBuilder};
pub use moela::{Moela, MoelaOutcome};
pub use optimizer::{Algorithm, AnyState, OptimizerSettings};
