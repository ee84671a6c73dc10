//! 3D NoC-enabled heterogeneous manycore platform model.
//!
//! This crate implements the design problem of §III of the MOELA paper: an
//! `N × N × Y` tile grid where every tile holds one PE (CPU, GPU, or LLC
//! slice) and a router, interconnected by a budgeted set of planar links
//! and TSVs. A candidate [`Design`] fixes both the PE [`design::Placement`]
//! and the link [`topology::Topology`]; [`objectives::Evaluator`] scores it
//! on the paper's five objectives:
//!
//! 1. mean link utilization (eq. 1),
//! 2. variance of link utilization (eq. 2),
//! 3. traffic-weighted CPU–LLC latency (eq. 3),
//! 4. NoC energy (eq. 4),
//! 5. the thermal product metric (eqs. 5–7, via [`moela_thermal`]).
//!
//! All §III constraints are enforced *by construction*: random generation
//! ([`topology::TopologyBuilder`]), mutation ([`moves`]), and recombination
//! ([`crossover`]) only ever produce connected topologies with exact link
//! budgets, bounded planar length (≤ 5 units), bounded router degree
//! (≤ 7), at most one TSV per vertical tile pair, and LLCs on die edges.
//!
//! [`ManycoreProblem`] packages everything behind the
//! [`moela_moo::Problem`] trait so any optimizer in the workspace can
//! explore the space.
//!
//! # Example
//!
//! ```
//! use moela_manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
//! use moela_moo::Problem;
//! use moela_traffic::{Benchmark, Workload};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = PlatformConfig::paper();
//! let workload = Workload::synthesize(Benchmark::Hot, platform.pe_mix(), 42);
//! let problem = ManycoreProblem::new(platform, workload, ObjectiveSet::Five)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let design = problem.random_solution(&mut rng);
//! let objectives = problem.evaluate(&design);
//! assert_eq!(objectives.len(), 5);
//! # Ok(())
//! # }
//! ```

pub mod codec;
pub mod crossover;
pub mod delta;
pub mod design;
pub mod geometry;
pub mod link;
pub mod moves;
pub mod objectives;
pub mod params;
pub mod problem;
pub mod routing;
pub mod routing_cache;
pub mod topology;
pub mod viz;

pub use delta::{DeltaEngine, DEFAULT_DELTA_CACHE_CAPACITY};
pub use design::Design;
pub use geometry::{GridDims, TileCoord, TileId};
pub use link::{Link, LinkKind};
pub use objectives::{Evaluation, ObjectiveSet};
pub use params::NocParams;
pub use problem::{BuildConfigError, ManycoreProblem, PlatformConfig};
pub use routing_cache::{RoutingCache, DEFAULT_ROUTING_CACHE_CAPACITY};
pub use topology::Topology;

// Re-exported so downstream users of the platform model see one coherent
// API; the kinds live in the traffic crate because workloads are defined
// over logical PEs.
pub use moela_traffic::{PeKind, PeMix};
