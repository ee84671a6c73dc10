//! The five design objectives of §III and their evaluator.

use std::sync::Arc;

use moela_thermal::{FastThermalModel, PowerGrid};
use moela_traffic::edp::NetworkStats;
use moela_traffic::{PeKind, Workload};

use crate::design::Design;
use crate::geometry::GridDims;
use crate::params::NocParams;
use crate::routing::RoutingTable;
use crate::routing_cache::{RoutingCache, DEFAULT_ROUTING_CACHE_CAPACITY};

/// Which of the paper's objective stacks to evaluate.
///
/// The paper's scenarios are cumulative prefixes of the objective list:
/// 3-obj = {mean, variance, latency}, 4-obj adds energy, 5-obj adds the
/// thermal product.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum ObjectiveSet {
    /// Objectives 1–3: mean traffic, traffic variance, CPU–LLC latency.
    Three,
    /// Objectives 1–4: adds NoC energy.
    Four,
    /// Objectives 1–5: adds the thermal product metric.
    Five,
}

impl ObjectiveSet {
    /// Number of objectives in the stack.
    pub fn count(&self) -> usize {
        match self {
            ObjectiveSet::Three => 3,
            ObjectiveSet::Four => 4,
            ObjectiveSet::Five => 5,
        }
    }

    /// All three scenarios, in the paper's order.
    pub const ALL: [ObjectiveSet; 3] =
        [ObjectiveSet::Three, ObjectiveSet::Four, ObjectiveSet::Five];
}

impl std::fmt::Display for ObjectiveSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-obj", self.count())
    }
}

/// The full evaluation of one design: the five objective values plus the
/// network summary consumed by the EDP model.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Eq. (1): mean link utilization.
    pub mean_traffic: f64,
    /// Eq. (2): variance of link utilization.
    pub traffic_variance: f64,
    /// Eq. (3): traffic-weighted CPU–LLC latency.
    pub cpu_latency: f64,
    /// Eq. (4): NoC energy (links + routers).
    pub energy: f64,
    /// Eq. (7): peak temperature × max layer spread.
    pub thermal: f64,
    /// Peak temperature alone (used by Fig. 3's thermal threshold).
    pub peak_temperature: f64,
    /// Summary statistics for the EDP model.
    pub network: NetworkStats,
}

impl Evaluation {
    /// The objective vector for `set` (minimization order of §III).
    pub fn objectives(&self, set: ObjectiveSet) -> Vec<f64> {
        let all =
            [self.mean_traffic, self.traffic_variance, self.cpu_latency, self.energy, self.thermal];
        all[..set.count()].to_vec()
    }
}

/// Evaluates designs for one `(platform, workload)` pair.
///
/// Routing tables are cached by topology fingerprint in a shared
/// [`RoutingCache`]: clones of an evaluator (and problems derived from
/// it) reuse one cache, so placement-only moves skip the all-pairs
/// Dijkstra rebuild entirely.
#[derive(Clone, Debug)]
pub struct Evaluator {
    dims: GridDims,
    params: NocParams,
    workload: Workload,
    thermal: FastThermalModel,
    routing: Arc<RoutingCache>,
    /// `workload.flows()`: every `(i, j, f_ij)` with non-zero traffic.
    flows: Arc<[(usize, usize, f64)]>,
    /// `(cpu, llc, f_cpu,llc)` for every CPU–LLC pair, CPU-major.
    cpu_llc: Arc<[(usize, usize, f64)]>,
    /// Σ PE power, in PE order.
    total_pe_power: f64,
}

impl Evaluator {
    /// Creates an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the workload population does not fill the grid or the
    /// thermal model covers fewer layers than the grid stacks.
    pub fn new(
        dims: GridDims,
        params: NocParams,
        workload: Workload,
        thermal: FastThermalModel,
    ) -> Self {
        assert_eq!(workload.pe_count(), dims.tiles(), "workload population must fill the grid");
        assert!(
            thermal.params().layers() >= dims.layers(),
            "thermal model covers fewer layers than the grid"
        );
        let mix = workload.mix();
        let cpu_llc = mix
            .ids_of(PeKind::Cpu)
            .flat_map(|c| mix.ids_of(PeKind::Llc).map(move |m| (c, m)))
            .map(|(c, m)| (c, m, workload.traffic(c, m)))
            .collect();
        Self {
            dims,
            params,
            flows: workload.flows().into(),
            cpu_llc,
            total_pe_power: workload.pe_powers().iter().sum(),
            workload,
            thermal,
            routing: Arc::new(RoutingCache::new(DEFAULT_ROUTING_CACHE_CAPACITY)),
        }
    }

    /// The workload this evaluator scores against.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// `workload().flows()`, built once at construction.
    pub(crate) fn flows(&self) -> &[(usize, usize, f64)] {
        &self.flows
    }

    /// Replaces the routing cache with a fresh one of `capacity` tables
    /// (0 disables reuse: every evaluation rebuilds its table). Existing
    /// clones keep the old cache; reconfigure before sharing.
    pub fn set_routing_cache_capacity(&mut self, capacity: usize) {
        self.routing = Arc::new(RoutingCache::new(capacity));
    }

    /// The shared routing cache (for counters: rebuilds/hits).
    pub fn routing_cache(&self) -> &RoutingCache {
        &self.routing
    }

    /// The grid dimensions.
    pub fn dims(&self) -> &GridDims {
        &self.dims
    }

    /// The NoC parameters.
    pub fn params(&self) -> &NocParams {
        &self.params
    }

    /// Computes every objective and summary statistic for `design`.
    ///
    /// Split into two stages: route construction (cached by topology
    /// fingerprint, see [`Evaluator::routing_for`]) and flow accumulation
    /// ([`Evaluator::evaluate_with_table`]). Designs differing only in
    /// placement share a table and skip Dijkstra.
    pub fn evaluate(&self, design: &Design) -> Evaluation {
        let table = self.routing_for(design);
        self.evaluate_with_table(design, &table)
    }

    /// Stage 1: the routing table for `design`'s topology, served from
    /// the shared cache when available.
    pub fn routing_for(&self, design: &Design) -> Arc<RoutingTable> {
        self.routing.routing_for(&self.dims, &design.topology, &self.params)
    }

    /// Stage 2: flow accumulation, latency, energy, and thermal scoring
    /// against a pre-built routing table. `table` must have been built
    /// for `design.topology` (same link set *and* order).
    pub fn evaluate_with_table(&self, design: &Design, table: &RoutingTable) -> Evaluation {
        let link_count = design.topology.link_count();
        let mut utilization = vec![0.0f64; link_count];
        let mut energy = 0.0f64;
        let mut weighted_latency = 0.0f64;
        let mut total_flow = 0.0f64;

        // Pre-compute per-link and per-router energy coefficients.
        let link_energy: Vec<f64> = design
            .topology
            .links()
            .iter()
            .map(|l| l.length(&self.dims) * self.params.link_energy_per_unit)
            .collect();
        let router_energy: Vec<f64> = (0..self.dims.tiles())
            .map(|t| {
                self.params.router_energy_per_port
                    * design.topology.degree(crate::geometry::TileId(t)) as f64
            })
            .collect();

        for &(i, j, f) in self.flows.iter() {
            let src = design.placement.tile_of(i);
            let dst = design.placement.tile_of(j);
            weighted_latency += f * table.latency(src, dst);
            total_flow += f;
            let mut flow_energy = 0.0;
            table.walk_path(src, dst, |link, router| {
                if let Some(k) = link {
                    utilization[k] += f;
                    flow_energy += link_energy[k];
                }
                flow_energy += router_energy[router.0];
            });
            energy += f * flow_energy;
        }

        let mean_traffic = utilization.iter().sum::<f64>() / link_count as f64;
        let traffic_variance =
            utilization.iter().map(|u| (u - mean_traffic).powi(2)).sum::<f64>() / link_count as f64;

        // Eq. (3): CPU–LLC latency, traffic-weighted, normalized by C·M.
        let mut cpu_latency = 0.0;
        for &(c, m, f) in self.cpu_llc.iter() {
            let src = design.placement.tile_of(c);
            let dst = design.placement.tile_of(m);
            cpu_latency += table.latency(src, dst) * f;
        }
        // Degenerate mixes (no CPUs or no LLCs) have no CPU–LLC pairs at
        // all: the objective is 0 by definition, not 0/0.
        let cpu_llc_pairs = self.cpu_llc.len() as f64;
        cpu_latency = if cpu_llc_pairs > 0.0 { cpu_latency / cpu_llc_pairs } else { 0.0 };

        // Thermal: map per-PE power onto the stacks.
        let mut power = PowerGrid::new(self.dims.nx(), self.dims.ny(), self.dims.layers());
        for t in self.dims.tile_ids() {
            let c = self.dims.coord(t);
            let stack = c.y * self.dims.nx() + c.x;
            let pe = design.placement.pe_at(t);
            power.set(stack, c.z + 1, self.workload.pe_power(pe));
        }
        let (peak_temperature, max_spread) = self.thermal.peak_and_max_spread(&power);
        let thermal = peak_temperature * max_spread;

        let max_u = utilization.iter().fold(0.0f64, |a, &b| a.max(b));
        let network = NetworkStats {
            avg_packet_latency: if total_flow > 0.0 { weighted_latency / total_flow } else { 0.0 },
            max_link_utilization: max_u / self.params.link_capacity,
            network_energy_rate: energy,
            total_pe_power: self.total_pe_power,
        };

        Evaluation {
            mean_traffic,
            traffic_variance,
            cpu_latency,
            energy,
            thermal,
            peak_temperature,
            network,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Placement;
    use crate::topology::Topology;
    use moela_thermal::ThermalParams;
    use moela_traffic::{Benchmark, PeMix};
    use rand::SeedableRng;

    fn evaluator(bench: Benchmark) -> Evaluator {
        let dims = GridDims::paper();
        let mix = PeMix::paper();
        let workload = Workload::synthesize(bench, mix, 5);
        let thermal = FastThermalModel::new(ThermalParams::uniform(4, 1.0, 0.5));
        Evaluator::new(dims, NocParams::paper(), workload, thermal)
    }

    fn mesh_design(ev: &Evaluator, seed: u64) -> Design {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Design::new(
            Placement::random(ev.dims(), ev.workload().mix(), &mut rng),
            Topology::mesh(ev.dims()),
        )
    }

    #[test]
    fn objective_sets_are_prefixes() {
        let ev = evaluator(Benchmark::Bp);
        let e = ev.evaluate(&mesh_design(&ev, 1));
        let five = e.objectives(ObjectiveSet::Five);
        assert_eq!(five.len(), 5);
        assert_eq!(&five[..3], e.objectives(ObjectiveSet::Three).as_slice());
        assert_eq!(&five[..4], e.objectives(ObjectiveSet::Four).as_slice());
    }

    #[test]
    fn all_objectives_are_finite_and_nonnegative() {
        for bench in Benchmark::ALL {
            let ev = evaluator(bench);
            let e = ev.evaluate(&mesh_design(&ev, 2));
            for (i, v) in e.objectives(ObjectiveSet::Five).iter().enumerate() {
                assert!(v.is_finite() && *v >= 0.0, "{bench} objective {i} = {v}");
            }
            assert!(e.peak_temperature > 0.0);
        }
    }

    #[test]
    fn mean_utilization_conserves_flit_hops() {
        // Σu_k = Σ_flows f·hops, so mean·L must equal that sum.
        let ev = evaluator(Benchmark::Hot);
        let d = mesh_design(&ev, 3);
        let table = RoutingTable::build(ev.dims(), &d.topology, ev.params());
        let mut flit_hops = 0.0;
        for (i, j, f) in ev.workload().flows() {
            flit_hops += f * table.hop_count(d.placement.tile_of(i), d.placement.tile_of(j)) as f64;
        }
        let e = ev.evaluate(&d);
        let total_u = e.mean_traffic * d.topology.link_count() as f64;
        assert!((total_u - flit_hops).abs() < 1e-6);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let ev = evaluator(Benchmark::Srad);
        let d = mesh_design(&ev, 4);
        assert_eq!(ev.evaluate(&d), ev.evaluate(&d));
    }

    #[test]
    fn placement_only_variants_share_one_routing_table() {
        let ev = evaluator(Benchmark::Hot);
        for seed in 0..8 {
            let d = mesh_design(&ev, seed); // same mesh, different placements
            let _ = ev.evaluate(&d);
        }
        assert_eq!(ev.routing_cache().rebuilds(), 1, "one Dijkstra for eight evaluations");
        assert_eq!(ev.routing_cache().hits(), 7);
    }

    #[test]
    fn cached_evaluation_is_bit_identical_to_uncached() {
        let cached = evaluator(Benchmark::Srad);
        let mut uncached = evaluator(Benchmark::Srad);
        uncached.set_routing_cache_capacity(0);
        for seed in 0..4 {
            let d = mesh_design(&cached, seed);
            assert_eq!(cached.evaluate(&d), uncached.evaluate(&d));
        }
        assert_eq!(uncached.routing_cache().hits(), 0);
        assert_eq!(uncached.routing_cache().rebuilds(), 4);
    }

    fn degenerate_evaluator(mix: PeMix) -> Evaluator {
        let dims = GridDims::new(3, 3, 1);
        let workload = Workload::synthesize(Benchmark::Bfs, mix, 5);
        let thermal = FastThermalModel::new(ThermalParams::uniform(1, 1.0, 0.5));
        Evaluator::new(dims, NocParams::paper(), workload, thermal)
    }

    #[test]
    fn mix_without_cpus_defines_cpu_latency_as_zero() {
        let mix = PeMix::with_counts(0, 5, 4);
        let ev = degenerate_evaluator(mix);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let d = Design::new(Placement::random(ev.dims(), mix, &mut rng), Topology::mesh(ev.dims()));
        let e = ev.evaluate(&d);
        assert_eq!(e.cpu_latency, 0.0, "no CPU–LLC pairs: the objective is 0, not NaN");
        for (i, v) in e.objectives(ObjectiveSet::Five).iter().enumerate() {
            assert!(v.is_finite(), "objective {i} = {v}");
        }
    }

    #[test]
    fn mix_without_llcs_defines_cpu_latency_as_zero() {
        let mix = PeMix::with_counts(2, 7, 0);
        let ev = degenerate_evaluator(mix);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let d = Design::new(Placement::random(ev.dims(), mix, &mut rng), Topology::mesh(ev.dims()));
        let e = ev.evaluate(&d);
        assert_eq!(e.cpu_latency, 0.0);
        assert!(e.objectives(ObjectiveSet::Five).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn placing_cpus_next_to_llcs_lowers_latency() {
        let ev = evaluator(Benchmark::Sc);
        let dims = *ev.dims();
        let mix = ev.workload().mix();
        // Adversarial placement: CPUs in one far corner cluster, LLCs on
        // the opposite edge of the top layer.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let random = Design::new(Placement::random(&dims, mix, &mut rng), Topology::mesh(&dims));
        // Friendly placement: CPUs adjacent to the LLC edge tiles.
        let mut pe_of = vec![usize::MAX; dims.tiles()];
        // LLCs on the edge of layer 0 (16 LLCs fill layer 0's 12 edge tiles
        // plus 4 of layer 1's): place them on edge tiles of layers 0-1,
        // CPUs right beside them on layer 0 interior.
        let mut llcs = mix.ids_of(PeKind::Llc);
        let mut cpus = mix.ids_of(PeKind::Cpu);
        let mut gpus = mix.ids_of(PeKind::Gpu);
        for t in dims.tile_ids() {
            let c = dims.coord(t);
            let slot = &mut pe_of[t.0];
            if dims.is_edge(t) && c.z == 0 {
                if let Some(l) = llcs.next() {
                    *slot = l;
                    continue;
                }
            }
            if !dims.is_edge(t) && c.z == 0 {
                if let Some(cpu) = cpus.next() {
                    *slot = cpu;
                    continue;
                }
            }
            *slot = usize::MAX; // fill later
        }
        // Remaining LLCs go on layer-1 edges, everything else fills up.
        for t in dims.tile_ids() {
            if pe_of[t.0] != usize::MAX {
                continue;
            }
            if dims.is_edge(t) {
                if let Some(l) = llcs.next() {
                    pe_of[t.0] = l;
                    continue;
                }
            }
            if let Some(cpu) = cpus.next() {
                pe_of[t.0] = cpu;
            } else if let Some(g) = gpus.next() {
                pe_of[t.0] = g;
            }
        }
        let friendly = Design::new(Placement::from_pe_of(&dims, mix, pe_of), Topology::mesh(&dims));
        let lat_friendly = ev.evaluate(&friendly).cpu_latency;
        let lat_random = ev.evaluate(&random).cpu_latency;
        assert!(
            lat_friendly < lat_random,
            "co-location must reduce CPU latency ({lat_friendly} vs {lat_random})"
        );
    }

    #[test]
    fn network_stats_feed_the_edp_model() {
        let ev = evaluator(Benchmark::Bfs);
        let e = ev.evaluate(&mesh_design(&ev, 6));
        assert!(e.network.avg_packet_latency > 0.0);
        assert!(e.network.max_link_utilization > 0.0);
        assert!(e.network.total_pe_power > 0.0);
        let model = moela_traffic::edp::EdpModel::new(Benchmark::Bfs);
        assert!(model.edp(&e.network).is_finite());
    }

    #[test]
    fn stacking_hot_pes_vertically_raises_the_thermal_objective() {
        let ev = evaluator(Benchmark::Hot);
        let dims = *ev.dims();
        let mix = ev.workload().mix();
        // Identify the per-PE powers; craft two placements differing only
        // in vertical power stacking by sorting PEs by power.
        let mut pes: Vec<usize> = (0..mix.total()).collect();
        pes.sort_by(|&a, &b| ev.workload().pe_power(b).total_cmp(&ev.workload().pe_power(a)));
        // Hot placement: hottest PEs fill entire stacks (columns) first.
        // The LLC-edge constraint makes a fully sorted assignment
        // infeasible, so both placements start from the same feasible
        // baseline and we only reorder the *non-LLC* PEs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let base = Placement::random(&dims, mix, &mut rng);
        let non_llc_tiles: Vec<crate::geometry::TileId> =
            dims.tile_ids().filter(|&t| mix.kind(base.pe_at(t)) != PeKind::Llc).collect();
        let mut non_llc_pes: Vec<usize> = non_llc_tiles.iter().map(|&t| base.pe_at(t)).collect();
        non_llc_pes
            .sort_by(|&a, &b| ev.workload().pe_power(b).total_cmp(&ev.workload().pe_power(a)));
        // Column-major tile order stacks same-column tiles together.
        let mut column_major = non_llc_tiles.clone();
        column_major.sort_by_key(|&t| {
            let c = dims.coord(t);
            (c.x, c.y, c.z)
        });
        let mut pe_of_hot = base.pe_of().to_vec();
        for (&tile, &pe) in column_major.iter().zip(&non_llc_pes) {
            pe_of_hot[tile.0] = pe;
        }
        let hot = Design::new(Placement::from_pe_of(&dims, mix, pe_of_hot), Topology::mesh(&dims));
        // Balanced placement: alternate hot/cold through the stacks.
        let mut balanced_pes = Vec::with_capacity(non_llc_pes.len());
        let half = non_llc_pes.len() / 2;
        for i in 0..half {
            balanced_pes.push(non_llc_pes[i]);
            balanced_pes.push(non_llc_pes[non_llc_pes.len() - 1 - i]);
        }
        if non_llc_pes.len() % 2 == 1 {
            balanced_pes.push(non_llc_pes[half]);
        }
        let mut pe_of_bal = base.pe_of().to_vec();
        for (&tile, &pe) in column_major.iter().zip(&balanced_pes) {
            pe_of_bal[tile.0] = pe;
        }
        let balanced =
            Design::new(Placement::from_pe_of(&dims, mix, pe_of_bal), Topology::mesh(&dims));
        let t_hot = ev.evaluate(&hot).thermal;
        let t_bal = ev.evaluate(&balanced).thermal;
        assert!(
            t_hot > t_bal,
            "stacked hot columns must score worse thermally ({t_hot} vs {t_bal})"
        );
    }
}
