//! The platform configuration and the [`ManycoreProblem`] — the §III
//! design problem packaged behind the [`moela_moo::Problem`] trait.

use std::sync::Arc;

use rand::RngCore;

use moela_moo::Problem;
use moela_thermal::{FastThermalModel, ThermalParams};
use moela_traffic::{PeKind, PeMix, Workload};

use crate::crossover;
use crate::delta::{DeltaEngine, DEFAULT_DELTA_CACHE_CAPACITY};
use crate::design::{Design, Placement};
use crate::geometry::{GridDims, TileCoord};
use crate::moves;
use crate::objectives::{Evaluation, Evaluator, ObjectiveSet};
use crate::params::NocParams;
use crate::topology::TopologyBuilder;

/// Errors from [`PlatformConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum BuildConfigError {
    /// The PE population does not equal the tile count.
    PopulationMismatch {
        /// Total PEs configured.
        pes: usize,
        /// Tiles in the grid.
        tiles: usize,
    },
    /// More LLCs than edge tiles to hold them.
    TooManyLlcs {
        /// LLC count configured.
        llcs: usize,
        /// Edge tiles available.
        edge_tiles: usize,
    },
    /// The link budgets cannot span the grid.
    LinkBudgetTooSmall {
        /// Links needed for a spanning tree.
        needed: usize,
        /// Planar + TSV budget.
        available: usize,
    },
    /// More TSVs requested than vertical positions exist.
    TsvBudgetTooLarge {
        /// TSVs configured.
        tsvs: usize,
        /// Vertical positions available.
        positions: usize,
    },
    /// A NoC parameter failed validation.
    InvalidNocParams(String),
}

impl std::fmt::Display for BuildConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildConfigError::PopulationMismatch { pes, tiles } => {
                write!(f, "{pes} PEs cannot fill {tiles} tiles exactly")
            }
            BuildConfigError::TooManyLlcs { llcs, edge_tiles } => {
                write!(f, "{llcs} LLCs exceed the {edge_tiles} edge tiles")
            }
            BuildConfigError::LinkBudgetTooSmall { needed, available } => {
                write!(f, "link budget {available} cannot span {needed}+1 tiles")
            }
            BuildConfigError::TsvBudgetTooLarge { tsvs, positions } => {
                write!(f, "{tsvs} TSVs exceed the {positions} vertical positions")
            }
            BuildConfigError::InvalidNocParams(msg) => write!(f, "invalid NoC parameters: {msg}"),
        }
    }
}

impl std::error::Error for BuildConfigError {}

/// A validated platform description: grid, PE population, link budgets,
/// NoC and thermal parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformConfig {
    dims: GridDims,
    mix: PeMix,
    planar_links: usize,
    tsvs: usize,
    noc: NocParams,
    thermal: ThermalParams,
}

impl PlatformConfig {
    /// Starts building a configuration.
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder::default()
    }

    /// The paper's platform: 4×4×4 tiles, 8 CPUs + 40 GPUs + 16 LLCs,
    /// 96 planar links, 48 TSVs.
    pub fn paper() -> Self {
        PlatformConfig::builder()
            .dims(4, 4, 4)
            .cpus(8)
            .gpus(40)
            .llcs(16)
            .planar_links(96)
            .tsvs(48)
            .build()
            .expect("the paper platform is feasible")
    }

    /// The grid dimensions.
    pub fn dims(&self) -> &GridDims {
        &self.dims
    }

    /// The logical PE population.
    pub fn pe_mix(&self) -> PeMix {
        self.mix
    }

    /// Planar link budget.
    pub fn planar_links(&self) -> usize {
        self.planar_links
    }

    /// TSV budget.
    pub fn tsvs(&self) -> usize {
        self.tsvs
    }

    /// NoC parameters.
    pub fn noc(&self) -> &NocParams {
        &self.noc
    }

    /// Thermal parameters.
    pub fn thermal(&self) -> &ThermalParams {
        &self.thermal
    }
}

/// Builder for [`PlatformConfig`] (see [`PlatformConfig::builder`]).
#[derive(Clone, Debug)]
pub struct PlatformConfigBuilder {
    nx: usize,
    ny: usize,
    layers: usize,
    cpus: usize,
    gpus: Option<usize>,
    llcs: usize,
    planar_links: Option<usize>,
    tsvs: Option<usize>,
    noc: NocParams,
    thermal: Option<ThermalParams>,
}

impl Default for PlatformConfigBuilder {
    fn default() -> Self {
        Self {
            nx: 4,
            ny: 4,
            layers: 4,
            cpus: 8,
            gpus: None,
            llcs: 16,
            planar_links: None,
            tsvs: None,
            noc: NocParams::paper(),
            thermal: None,
        }
    }
}

impl PlatformConfigBuilder {
    /// Sets the grid dimensions.
    pub fn dims(mut self, nx: usize, ny: usize, layers: usize) -> Self {
        self.nx = nx;
        self.ny = ny;
        self.layers = layers;
        self
    }

    /// Sets the CPU count.
    pub fn cpus(mut self, cpus: usize) -> Self {
        self.cpus = cpus;
        self
    }

    /// Sets the GPU count. When omitted, GPUs fill the tiles left over by
    /// CPUs and LLCs.
    pub fn gpus(mut self, gpus: usize) -> Self {
        self.gpus = Some(gpus);
        self
    }

    /// Sets the LLC count.
    pub fn llcs(mut self, llcs: usize) -> Self {
        self.llcs = llcs;
        self
    }

    /// Sets the planar link budget. Defaults to the 3D-mesh planar count
    /// for the grid, as the paper allocates.
    pub fn planar_links(mut self, links: usize) -> Self {
        self.planar_links = Some(links);
        self
    }

    /// Sets the TSV budget. Defaults to every vertical position (the
    /// 3D-mesh TSV count).
    pub fn tsvs(mut self, tsvs: usize) -> Self {
        self.tsvs = Some(tsvs);
        self
    }

    /// Overrides the NoC parameters (defaults to [`NocParams::paper`]).
    pub fn noc(mut self, noc: NocParams) -> Self {
        self.noc = noc;
        self
    }

    /// Overrides the thermal parameters (defaults to uniform per-layer
    /// resistances).
    pub fn thermal(mut self, thermal: ThermalParams) -> Self {
        self.thermal = Some(thermal);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildConfigError`] describing the first violated
    /// consistency rule.
    pub fn build(self) -> Result<PlatformConfig, BuildConfigError> {
        let dims = GridDims::new(self.nx, self.ny, self.layers);
        let tiles = dims.tiles();
        let gpus = self.gpus.unwrap_or_else(|| tiles.saturating_sub(self.cpus + self.llcs));
        let pes = self.cpus + gpus + self.llcs;
        if pes != tiles {
            return Err(BuildConfigError::PopulationMismatch { pes, tiles });
        }
        if self.llcs > dims.edge_tiles() {
            return Err(BuildConfigError::TooManyLlcs {
                llcs: self.llcs,
                edge_tiles: dims.edge_tiles(),
            });
        }
        let mesh_planar =
            dims.layers() * (dims.nx() * (dims.ny() - 1) + dims.ny() * (dims.nx() - 1));
        let vertical_positions = dims.tiles_per_layer() * (dims.layers() - 1);
        let planar_links = self.planar_links.unwrap_or(mesh_planar);
        let tsvs = self.tsvs.unwrap_or(vertical_positions);
        if tsvs > vertical_positions {
            return Err(BuildConfigError::TsvBudgetTooLarge {
                tsvs,
                positions: vertical_positions,
            });
        }
        if planar_links + tsvs < tiles - 1 {
            return Err(BuildConfigError::LinkBudgetTooSmall {
                needed: tiles - 1,
                available: planar_links + tsvs,
            });
        }
        if dims.layers() > 1 && tsvs == 0 {
            return Err(BuildConfigError::LinkBudgetTooSmall {
                needed: tiles - 1,
                available: planar_links,
            });
        }
        self.noc.validate().map_err(BuildConfigError::InvalidNocParams)?;
        let thermal =
            self.thermal.unwrap_or_else(|| ThermalParams::uniform(dims.layers(), 1.0, 0.5));
        Ok(PlatformConfig {
            dims,
            mix: PeMix::new(self.cpus, gpus, self.llcs),
            planar_links,
            tsvs,
            noc: self.noc,
            thermal,
        })
    }
}

/// The §III design problem: find the PE placement and link placement
/// optimizing the configured [`ObjectiveSet`] on one workload.
///
/// Implements [`moela_moo::Problem`] with `Solution = `[`Design`], so every
/// optimizer in the workspace (MOELA, MOEA/D, MOOS, …) runs on it
/// unchanged.
///
/// # Example
///
/// ```
/// use moela_manycore::{ManycoreProblem, ObjectiveSet, PlatformConfig};
/// use moela_moo::Problem;
/// use moela_traffic::{Benchmark, Workload};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = PlatformConfig::builder()
///     .dims(3, 3, 2)
///     .cpus(2)
///     .llcs(4)
///     .planar_links(24)
///     .tsvs(6)
///     .build()?;
/// let workload = Workload::synthesize(Benchmark::Bfs, platform.pe_mix(), 7);
/// let problem = ManycoreProblem::new(platform, workload, ObjectiveSet::Three)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let design = problem.random_solution(&mut rng);
/// assert_eq!(problem.evaluate(&design).len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ManycoreProblem {
    config: PlatformConfig,
    objective_set: ObjectiveSet,
    evaluator: Evaluator,
    builder: TopologyBuilder,
    /// [`coord_table`] of the grid, for [`Problem::features`].
    coords: Arc<[TileCoord]>,
    delta: Arc<DeltaEngine>,
    delta_enabled: bool,
}

impl ManycoreProblem {
    /// Creates the problem for a platform, workload, and objective stack.
    ///
    /// # Errors
    ///
    /// Returns [`BuildConfigError::PopulationMismatch`] when the workload's
    /// PE population differs from the platform's.
    pub fn new(
        config: PlatformConfig,
        workload: Workload,
        objective_set: ObjectiveSet,
    ) -> Result<Self, BuildConfigError> {
        if workload.mix() != config.mix {
            return Err(BuildConfigError::PopulationMismatch {
                pes: workload.pe_count(),
                tiles: config.dims.tiles(),
            });
        }
        let thermal = FastThermalModel::new(config.thermal.clone());
        let evaluator = Evaluator::new(config.dims, config.noc, workload, thermal);
        let builder = TopologyBuilder::new(
            config.dims,
            config.planar_links,
            config.tsvs,
            config.noc.max_planar_length,
            config.noc.max_degree,
        );
        Ok(Self {
            coords: coord_table(&config.dims),
            config,
            objective_set,
            evaluator,
            builder,
            delta: Arc::new(DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY)),
            delta_enabled: true,
        })
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The configured objective stack.
    pub fn objective_set(&self) -> ObjectiveSet {
        self.objective_set
    }

    /// Re-targets the problem at a different objective stack (cheap; shares
    /// the platform and workload).
    pub fn with_objective_set(&self, objective_set: ObjectiveSet) -> Self {
        Self { objective_set, ..self.clone() }
    }

    /// The underlying evaluator, exposing the full [`Evaluation`]
    /// (objectives + EDP inputs) rather than just the objective vector.
    pub fn evaluate_full(&self, design: &Design) -> Evaluation {
        self.evaluator.evaluate(design)
    }

    /// The workload being optimized for.
    pub fn workload(&self) -> &Workload {
        self.evaluator.workload()
    }

    /// Reconfigures the routing-table cache (0 disables reuse). Apply
    /// before cloning/sharing the problem: clones made earlier keep the
    /// old cache.
    pub fn set_routing_cache_capacity(&mut self, capacity: usize) {
        self.evaluator.set_routing_cache_capacity(capacity);
    }

    /// Routing-table (rebuilds, cache hits) counters, shared across every
    /// clone of this problem.
    pub fn routing_stats(&self) -> (u64, u64) {
        let cache = self.evaluator.routing_cache();
        (cache.rebuilds(), cache.hits())
    }

    /// Switches the neighbor (delta) evaluation fast path on or off. Off
    /// replaces the engine, so counters restart from zero. Apply before
    /// cloning/sharing the problem: clones made earlier keep the old
    /// engine.
    pub fn set_delta_eval(&mut self, enabled: bool) {
        self.delta_enabled = enabled;
        let capacity = if enabled { DEFAULT_DELTA_CACHE_CAPACITY } else { 0 };
        self.delta = Arc::new(DeltaEngine::new(capacity));
    }

    /// Whether the delta-evaluation fast path is active.
    pub fn delta_eval_enabled(&self) -> bool {
        self.delta_enabled
    }

    /// Delta-evaluation (hits, fallbacks) counters, shared across every
    /// clone of this problem: hits are neighbor evaluations scored
    /// against a cached routing table, fallbacks are full evaluations
    /// (routing cache misses).
    pub fn delta_stats(&self) -> (u64, u64) {
        (self.delta.hits(), self.delta.fallbacks())
    }
}

impl Problem for ManycoreProblem {
    type Solution = Design;

    fn objective_count(&self) -> usize {
        self.objective_set.count()
    }

    fn random_solution(&self, mut rng: &mut dyn RngCore) -> Design {
        let placement = Placement::random(&self.config.dims, self.config.mix, &mut rng);
        let topology =
            self.builder.random(&mut rng).expect("validated budgets admit random topologies");
        Design::new(placement, topology)
    }

    fn neighbor(&self, s: &Design, mut rng: &mut dyn RngCore) -> Design {
        moves::random_move(
            &self.config.dims,
            self.config.mix,
            &self.builder,
            self.config.noc.max_degree,
            s,
            &mut rng,
        )
    }

    fn crossover(&self, a: &Design, b: &Design, mut rng: &mut dyn RngCore) -> Design {
        crossover::crossover(
            &self.config.dims,
            self.config.mix,
            &self.builder,
            self.config.noc.max_degree,
            a,
            b,
            &mut rng,
        )
    }

    fn evaluate(&self, s: &Design) -> Vec<f64> {
        self.evaluator.evaluate(s).objectives(self.objective_set)
    }

    /// The neighbor fast path: the shared [`DeltaEngine`] scores `s`
    /// against its cached routing table — present when `s` keeps the
    /// topology of a scored `base` — instead of routing it from scratch,
    /// with a guaranteed-exact result (the engine falls back to a full
    /// evaluation on a cache miss). Disabled engines skip straight to
    /// [`evaluate_ordinal`](Problem::evaluate_ordinal).
    fn evaluate_neighbor_ordinal(&self, base: &Design, s: &Design, ordinal: u64) -> Vec<f64> {
        if !self.delta_enabled {
            return self.evaluate_ordinal(s, ordinal);
        }
        self.delta.evaluate_neighbor(&self.evaluator, base, s).objectives(self.objective_set)
    }

    /// Exact canonical bytes of the design: the placement vector plus the
    /// ordered link list. Two designs share a key iff they are equal
    /// (`Design: PartialEq` compares the same data), so memoized results
    /// can never collide.
    fn cache_key(&self, s: &Design) -> Option<Vec<u8>> {
        let links = s.topology.links();
        let pe_of = s.placement.pe_of();
        let mut key = Vec::with_capacity(8 + 4 * (pe_of.len() + 2 * links.len()));
        key.extend_from_slice(&(pe_of.len() as u32).to_le_bytes());
        for &pe in pe_of {
            key.extend_from_slice(&(pe as u32).to_le_bytes());
        }
        key.extend_from_slice(&(links.len() as u32).to_le_bytes());
        for l in links {
            key.extend_from_slice(&(l.a().0 as u32).to_le_bytes());
            key.extend_from_slice(&(l.b().0 as u32).to_le_bytes());
        }
        Some(key)
    }

    fn features(&self, s: &Design) -> Vec<f64> {
        features_from(&self.config, &self.coords, self.evaluator.flows(), s)
    }

    fn feature_len(&self) -> usize {
        // Keep in sync with `features_from`.
        18 + 2 + 2 + self.config.dims.layers() + (self.config.dims.layers() - 1) + 3
    }
}

/// A cheap structural descriptor of a design (no routing, no objective
/// evaluation): per-kind placement statistics, link-length and degree
/// statistics, per-layer link distribution, and traffic-weighted placement
/// distances. Input features of MOELA's learned `Eval`.
///
/// [`ManycoreProblem::features`] returns the same values from tables the
/// problem builds once; this function builds them on every call.
pub fn design_features(config: &PlatformConfig, workload: &Workload, d: &Design) -> Vec<f64> {
    features_from(config, &coord_table(&config.dims), &workload.flows(), d)
}

/// The coordinates of every tile, indexed by tile id.
fn coord_table(dims: &GridDims) -> Arc<[TileCoord]> {
    dims.tile_ids().map(|t| dims.coord(t)).collect()
}

/// [`design_features`] over a [`coord_table`] and `workload.flows()`.
/// Every sum adds the same terms in the same order as the reference in
/// `problem/reference.rs`, so the bits are the same.
fn features_from(
    config: &PlatformConfig,
    coords: &[TileCoord],
    flows: &[(usize, usize, f64)],
    d: &Design,
) -> Vec<f64> {
    let dims = &config.dims;
    let mix = config.pe_mix();
    let mut out = Vec::with_capacity(32);
    // The coordinates of each PE's tile, in PE order.
    let pe_coords: Vec<TileCoord> =
        (0..mix.total()).map(|pe| coords[d.placement.tile_of(pe).0]).collect();
    let manhattan = |a: TileCoord, b: TileCoord| {
        (a.x.abs_diff(b.x) + a.y.abs_diff(b.y) + a.z.abs_diff(b.z)) as f64
    };

    // 1. Per-kind coordinate mean/std (3 kinds × 6 values = 18).
    for kind in [PeKind::Cpu, PeKind::Gpu, PeKind::Llc] {
        let coords = &pe_coords[mix.ids_of(kind)];
        let n = coords.len() as f64;
        let mean = coords.iter().fold((0.0, 0.0, 0.0), |acc, c| {
            (acc.0 + c.x as f64 / n, acc.1 + c.y as f64 / n, acc.2 + c.z as f64 / n)
        });
        let var = coords.iter().fold((0.0, 0.0, 0.0), |acc, c| {
            (
                acc.0 + (c.x as f64 - mean.0).powi(2) / n,
                acc.1 + (c.y as f64 - mean.1).powi(2) / n,
                acc.2 + (c.z as f64 - mean.2).powi(2) / n,
            )
        });
        out.extend([mean.0, mean.1, mean.2, var.0.sqrt(), var.1.sqrt(), var.2.sqrt()]);
    }

    // One pass over the links: planar lengths, planar links per layer and
    // TSVs per layer gap. A link's `a` is its lower tile, so a TSV's `a`
    // sits in the layer below its gap.
    let mut lengths = Vec::with_capacity(d.topology.link_count());
    let mut per_layer = vec![0.0f64; dims.layers()];
    let mut per_gap = vec![0.0f64; dims.layers() - 1];
    for l in d.topology.links() {
        let (a, b) = (coords[l.a().0], coords[l.b().0]);
        if a.z == b.z {
            lengths.push((a.x.abs_diff(b.x) + a.y.abs_diff(b.y)) as f64);
            per_layer[a.z] += 1.0;
        } else {
            per_gap[a.z] += 1.0;
        }
    }

    // 2. Planar link length mean/std (2).
    let ln = lengths.len().max(1) as f64;
    let lmean = lengths.iter().sum::<f64>() / ln;
    let lvar = lengths.iter().map(|l| (l - lmean).powi(2)).sum::<f64>() / ln;
    out.extend([lmean, lvar.sqrt()]);

    // 3. Degree std/max (2) — the mean degree is budget-determined.
    let degrees: Vec<f64> = dims.tile_ids().map(|t| d.topology.degree(t) as f64).collect();
    let dmean = degrees.iter().sum::<f64>() / degrees.len() as f64;
    let dvar = degrees.iter().map(|x| (x - dmean).powi(2)).sum::<f64>() / degrees.len() as f64;
    out.extend([dvar.sqrt(), degrees.iter().fold(0.0f64, |a, &b| a.max(b))]);

    // 4. Planar links per layer, normalized (layers values).
    let planar_total: f64 = per_layer.iter().sum::<f64>().max(1.0);
    out.extend(per_layer.iter().map(|v| v / planar_total));

    // 5. TSVs per layer gap, normalized (layers − 1 values).
    let tsv_total: f64 = per_gap.iter().sum::<f64>().max(1.0);
    out.extend(per_gap.iter().map(|v| v / tsv_total));

    // 6. Traffic-weighted placement distance + class distances (3).
    let mut weighted = 0.0;
    let mut flow_total = 0.0;
    for &(i, j, f) in flows {
        weighted += f * manhattan(pe_coords[i], pe_coords[j]);
        flow_total += f;
    }
    out.push(if flow_total > 0.0 { weighted / flow_total } else { 0.0 });
    let class_distance = |a: PeKind, b: PeKind| {
        let mut sum = 0.0;
        let mut count = 0usize;
        for &ca in &pe_coords[mix.ids_of(a)] {
            for &cb in &pe_coords[mix.ids_of(b)] {
                sum += manhattan(ca, cb);
                count += 1;
            }
        }
        sum / count.max(1) as f64
    };
    out.push(class_distance(PeKind::Cpu, PeKind::Llc));
    out.push(class_distance(PeKind::Gpu, PeKind::Llc));

    out
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use moela_traffic::Benchmark;
    use rand::SeedableRng;

    fn paper_problem(set: ObjectiveSet) -> ManycoreProblem {
        let config = PlatformConfig::paper();
        let workload = Workload::synthesize(Benchmark::Bp, config.pe_mix(), 3);
        ManycoreProblem::new(config, workload, set).expect("valid")
    }

    #[test]
    fn paper_config_matches_section_v() {
        let c = PlatformConfig::paper();
        assert_eq!(c.dims().tiles(), 64);
        assert_eq!(c.pe_mix().total(), 64);
        assert_eq!(c.planar_links(), 96);
        assert_eq!(c.tsvs(), 48);
    }

    #[test]
    fn builder_infers_gpu_count() {
        let c = PlatformConfig::builder()
            .dims(3, 3, 2)
            .cpus(2)
            .llcs(4)
            .planar_links(24)
            .tsvs(6)
            .build()
            .expect("valid");
        assert_eq!(c.pe_mix().gpus(), 12);
    }

    #[test]
    fn builder_rejects_population_mismatch() {
        let err = PlatformConfig::builder()
            .dims(2, 2, 2)
            .cpus(1)
            .gpus(1)
            .llcs(1)
            .build()
            .expect_err("3 PEs on 8 tiles");
        assert!(matches!(err, BuildConfigError::PopulationMismatch { pes: 3, tiles: 8 }));
    }

    #[test]
    fn builder_rejects_llc_overflow() {
        // 2×2 layers: every tile is an edge tile (nx, ny ≤ 2), so use a
        // bigger grid with an interior.
        let err = PlatformConfig::builder()
            .dims(4, 4, 1)
            .cpus(1)
            .gpus(2)
            .llcs(13)
            .build()
            .expect_err("only 12 edge tiles");
        assert!(matches!(err, BuildConfigError::TooManyLlcs { llcs: 13, edge_tiles: 12 }));
    }

    #[test]
    fn builder_rejects_undersized_link_budget() {
        let err = PlatformConfig::builder()
            .dims(4, 4, 4)
            .planar_links(10)
            .tsvs(10)
            .build()
            .expect_err("cannot span 64 tiles");
        assert!(matches!(err, BuildConfigError::LinkBudgetTooSmall { .. }));
    }

    #[test]
    fn builder_rejects_tsv_overflow() {
        let err = PlatformConfig::builder()
            .dims(4, 4, 4)
            .tsvs(49)
            .build()
            .expect_err("only 48 positions");
        assert!(matches!(err, BuildConfigError::TsvBudgetTooLarge { tsvs: 49, positions: 48 }));
    }

    #[test]
    fn problem_operators_produce_feasible_designs() {
        let p = paper_problem(ObjectiveSet::Five);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = p.random_solution(&mut rng);
        let b = p.random_solution(&mut rng);
        let n = p.neighbor(&a, &mut rng);
        let c = p.crossover(&a, &b, &mut rng);
        let dims = p.config().dims();
        for d in [&a, &b, &n, &c] {
            d.validate(dims, p.config().pe_mix(), 96, 48, 5, 7).expect("feasible");
        }
    }

    #[test]
    fn objective_count_tracks_the_set() {
        for set in ObjectiveSet::ALL {
            let p = paper_problem(set);
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let d = p.random_solution(&mut rng);
            assert_eq!(p.evaluate(&d).len(), set.count());
            assert_eq!(p.objective_count(), set.count());
        }
    }

    #[test]
    fn features_have_the_declared_length_and_are_finite() {
        let p = paper_problem(ObjectiveSet::Three);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let d = p.random_solution(&mut rng);
            let f = p.features(&d);
            assert_eq!(f.len(), p.feature_len());
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn features_distinguish_different_designs() {
        let p = paper_problem(ObjectiveSet::Three);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = p.random_solution(&mut rng);
        let b = p.random_solution(&mut rng);
        assert_ne!(p.features(&a), p.features(&b));
    }

    #[test]
    fn with_objective_set_retargets_cheaply() {
        let p = paper_problem(ObjectiveSet::Three);
        let p5 = p.with_objective_set(ObjectiveSet::Five);
        assert_eq!(p5.objective_count(), 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let d = p.random_solution(&mut rng);
        // The first three objectives agree between stacks.
        assert_eq!(p.evaluate(&d), p5.evaluate(&d)[..3].to_vec());
    }

    #[test]
    fn cache_keys_match_design_equality() {
        let p = paper_problem(ObjectiveSet::Three);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = p.random_solution(&mut rng);
        let b = p.random_solution(&mut rng);
        assert_eq!(p.cache_key(&a), p.cache_key(&a.clone()), "equal designs share a key");
        assert_ne!(p.cache_key(&a), p.cache_key(&b), "distinct designs get distinct keys");
        let n = p.neighbor(&a, &mut rng);
        assert_ne!(p.cache_key(&a), p.cache_key(&n), "one move changes the key");
    }

    #[test]
    fn objective_set_clones_share_the_routing_cache() {
        let p = paper_problem(ObjectiveSet::Three);
        let q = p.with_objective_set(ObjectiveSet::Five);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let d = p.random_solution(&mut rng);
        p.evaluate(&d);
        q.evaluate(&d);
        let (rebuilds, hits) = p.routing_stats();
        assert_eq!((rebuilds, hits), (1, 1), "the second evaluation reuses the table");
    }

    #[test]
    fn neighbor_evaluation_is_bit_identical_and_counts_delta_hits() {
        let p = paper_problem(ObjectiveSet::Five);
        // Scored on its own routing cache, so a wrong table admitted by
        // the neighbor path cannot leak into the expected values.
        let mut reference = paper_problem(ObjectiveSet::Five);
        reference.set_routing_cache_capacity(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut current = p.random_solution(&mut rng);
        let mut rewires = 0;
        for step in 0..12 {
            let next = p.neighbor(&current, &mut rng);
            rewires += u64::from(next.topology != current.topology);
            assert_eq!(
                p.evaluate_neighbor_ordinal(&current, &next, step),
                reference.evaluate(&next),
                "delta and full evaluation diverged at step {step}"
            );
            current = next;
        }
        let (hits, fallbacks) = p.delta_stats();
        // The unscored seed design's first neighbor (a swap) and the six
        // rewires route topologies with no cached table; the five other
        // swaps reuse the table of the design they move from.
        assert_eq!(rewires, 6);
        assert_eq!((hits, fallbacks), (5, 7));
    }

    #[test]
    fn disabled_delta_engine_stays_exact_and_counts_nothing() {
        let mut p = paper_problem(ObjectiveSet::Five);
        p.set_delta_eval(false);
        assert!(!p.delta_eval_enabled());
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let base = p.random_solution(&mut rng);
        let next = p.neighbor(&base, &mut rng);
        assert_eq!(p.evaluate_neighbor_ordinal(&base, &next, 0), p.evaluate(&next));
        assert_eq!(p.delta_stats(), (0, 0), "the off engine never runs");
    }

    #[test]
    fn mismatched_workload_is_rejected() {
        let config = PlatformConfig::paper();
        let wrong = Workload::synthesize(Benchmark::Bp, PeMix::new(2, 2, 2), 1);
        let err = ManycoreProblem::new(config, wrong, ObjectiveSet::Three)
            .expect_err("population mismatch");
        assert!(matches!(err, BuildConfigError::PopulationMismatch { .. }));
    }
}
