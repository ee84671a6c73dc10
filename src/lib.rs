//! # MOELA — Multi-Objective Evolutionary/Learning DSE framework
//!
//! This facade crate re-exports the public API of the MOELA reproduction
//! workspace: the core hybrid optimizer ([`moela_core`]), the 3D NoC
//! heterogeneous manycore platform model ([`moela_manycore`]), the workload
//! substrate ([`moela_traffic`]), the thermal substrate ([`moela_thermal`]),
//! the multi-objective optimization toolkit ([`moela_moo`]), the
//! random-forest learner ([`moela_ml`]), and the baseline algorithms
//! ([`moela_baselines`]).
//!
//! ## Quickstart
//!
//! ```
//! use moela::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small 3x3x2 platform running a synthetic BFS-like workload.
//! let platform = PlatformConfig::builder()
//!     .dims(3, 3, 2)
//!     .cpus(2)
//!     .llcs(4)
//!     .planar_links(24)
//!     .tsvs(6)
//!     .build()?;
//! let workload = Workload::synthesize(Benchmark::Bfs, platform.pe_mix(), 7);
//! let problem = ManycoreProblem::new(platform, workload, ObjectiveSet::Three)?;
//!
//! let config = MoelaConfig::builder()
//!     .population(12)
//!     .generations(5)
//!     .build()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let outcome = Moela::new(config, &problem).run(&mut rng);
//! assert!(!outcome.population.is_empty());
//! # Ok(())
//! # }
//! ```

pub use moela_baselines as baselines;
pub use moela_core as core;
pub use moela_manycore as manycore;
pub use moela_ml as ml;
pub use moela_moo as moo;
pub use moela_nocsim as nocsim;
pub use moela_obs as obs;
pub use moela_persist as persist;
pub use moela_serve as serve;
pub use moela_thermal as thermal;
pub use moela_traffic as traffic;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use moela_baselines::{
        Moead, MoeadConfig, MooStage, MooStageConfig, Moos, MoosConfig, Nsga2, Nsga2Config,
    };
    pub use moela_core::{Moela, MoelaConfig, MoelaOutcome};
    pub use moela_manycore::{
        Design, ManycoreProblem, ObjectiveSet, PeKind, PeMix, PlatformConfig,
    };
    pub use moela_moo::hypervolume::hypervolume;
    pub use moela_moo::Problem;
    pub use moela_traffic::{Benchmark, Workload};
}
