//! Human-readable renderings of designs: Graphviz DOT export and per-layer
//! ASCII maps, for inspecting what the optimizer actually built.

use moela_traffic::{PeKind, PeMix};

use crate::design::Design;
use crate::geometry::{GridDims, TileCoord};
use crate::link::LinkKind;

/// Renders a design as a Graphviz DOT graph: one node per tile (labeled
/// with its PE kind and logical id, colored by kind), solid edges for
/// planar links and dashed edges for TSVs.
///
/// # Example
///
/// ```
/// use moela_manycore::{viz, ManycoreProblem, ObjectiveSet, PlatformConfig};
/// use moela_moo::Problem;
/// use moela_traffic::{Benchmark, Workload};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = PlatformConfig::paper();
/// let workload = Workload::synthesize(Benchmark::Bp, platform.pe_mix(), 1);
/// let problem = ManycoreProblem::new(platform, workload, ObjectiveSet::Three)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let design = problem.random_solution(&mut rng);
/// let dot = viz::to_dot(problem.config().dims(), problem.config().pe_mix(), &design);
/// assert!(dot.starts_with("graph noc {"));
/// # Ok(())
/// # }
/// ```
pub fn to_dot(dims: &GridDims, mix: PeMix, design: &Design) -> String {
    let mut out = String::from("graph noc {\n  layout=neato;\n  node [shape=box, style=filled];\n");
    for t in dims.tile_ids() {
        let c = dims.coord(t);
        let pe = design.placement.pe_at(t);
        let kind = mix.kind(pe);
        let color = match kind {
            PeKind::Cpu => "lightblue",
            PeKind::Gpu => "lightgreen",
            PeKind::Llc => "orange",
        };
        // Offset layers diagonally so the 3D stack reads in 2D.
        let x = c.x as f64 + c.z as f64 * 0.35;
        let y = c.y as f64 + c.z as f64 * 0.35;
        out.push_str(&format!(
            "  t{} [label=\"{kind}{pe}\\nL{}\", fillcolor={color}, pos=\"{x:.2},{y:.2}!\"];\n",
            t.0, c.z
        ));
    }
    for link in design.topology.links() {
        let style = match link.kind(dims) {
            LinkKind::Planar => "solid",
            LinkKind::Vertical => "dashed",
        };
        out.push_str(&format!("  t{} -- t{} [style={style}];\n", link.a().0, link.b().0));
    }
    out.push_str("}\n");
    out
}

/// Renders the placement as per-layer ASCII maps: one character per tile
/// (`C`/`G`/`L`), layers printed sink-first.
pub fn placement_ascii(dims: &GridDims, mix: PeMix, design: &Design) -> String {
    let mut out = String::new();
    for z in 0..dims.layers() {
        out.push_str(&format!("layer {z}{}\n", if z == 0 { " (heat sink side)" } else { "" }));
        for y in 0..dims.ny() {
            out.push_str("  ");
            for x in 0..dims.nx() {
                let t = dims.tile(TileCoord { x, y, z });
                let pe = design.placement.pe_at(t);
                out.push(match mix.kind(pe) {
                    PeKind::Cpu => 'C',
                    PeKind::Gpu => 'G',
                    PeKind::Llc => 'L',
                });
                out.push(' ');
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Placement;
    use crate::topology::Topology;
    use rand::SeedableRng;

    fn design() -> (GridDims, PeMix, Design) {
        let dims = GridDims::new(3, 3, 2);
        let mix = PeMix::new(2, 12, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let d = Design::new(Placement::random(&dims, mix, &mut rng), Topology::mesh(&dims));
        (dims, mix, d)
    }

    #[test]
    fn dot_lists_every_tile_and_link() {
        let (dims, mix, d) = design();
        let dot = to_dot(&dims, mix, &d);
        for t in dims.tile_ids() {
            assert!(dot.contains(&format!("t{} [", t.0)), "missing node t{}", t.0);
        }
        let edges = dot.matches(" -- ").count();
        assert_eq!(edges, d.topology.link_count());
        assert!(dot.contains("style=dashed"), "TSVs must render dashed");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn ascii_maps_have_one_cell_per_tile() {
        let (dims, mix, d) = design();
        let map = placement_ascii(&dims, mix, &d);
        let cells = map.matches(['C', 'G']).count() + map.chars().filter(|&c| c == 'L').count()
            - map.matches("layer").count(); // 'L' of headers? headers say "layer"
                                            // Count kind characters directly instead: strip header lines.
        let body: String =
            map.lines().filter(|l| !l.starts_with("layer")).collect::<Vec<_>>().join("");
        let kinds = body.chars().filter(|c| ['C', 'G', 'L'].contains(c)).count();
        assert_eq!(kinds, dims.tiles());
        let _ = cells;
    }

    #[test]
    fn ascii_respects_the_mix_counts() {
        let (dims, mix, d) = design();
        let map = placement_ascii(&dims, mix, &d);
        let body: String = map.lines().filter(|l| !l.starts_with("layer")).collect();
        assert_eq!(body.chars().filter(|&c| c == 'C').count(), mix.cpus());
        assert_eq!(body.chars().filter(|&c| c == 'G').count(), mix.gpus());
        assert_eq!(body.chars().filter(|&c| c == 'L').count(), mix.llcs());
    }
}
