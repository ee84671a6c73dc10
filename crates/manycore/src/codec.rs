//! Checkpoint codec for [`Design`] solutions.
//!
//! A design serializes as its raw tile→PE map plus its link list:
//!
//! ```json
//! {"pe_of": [5, 0, 63, ...], "links": [[0, 1], [0, 4], ...]}
//! ```
//!
//! Decoding re-validates every §III constraint against the problem's own
//! platform configuration, so a checkpoint written for a different
//! platform (or corrupted in transit) is rejected with a schema error
//! instead of producing an infeasible design or panicking.

use std::collections::HashSet;

use moela_persist::{PersistError, SolutionCodec, Value};
use moela_traffic::PeKind;

use crate::design::{Design, Placement};
use crate::geometry::TileId;
use crate::link::Link;
use crate::problem::ManycoreProblem;
use crate::topology::Topology;

impl SolutionCodec<Design> for ManycoreProblem {
    fn encode_solution(&self, solution: &Design) -> Value {
        let links: Vec<Value> = solution
            .topology
            .links()
            .iter()
            .map(|l| Value::usize_array(&[l.a().0, l.b().0]))
            .collect();
        Value::object(vec![
            ("pe_of", Value::usize_array(solution.placement.pe_of())),
            ("links", Value::Array(links)),
        ])
    }

    fn decode_solution(&self, value: &Value) -> Result<Design, PersistError> {
        let config = self.config();
        let dims = config.dims();
        let mix = config.pe_mix();
        let tiles = dims.tiles();

        // Placement: a permutation of 0..tiles with LLCs on edge tiles
        // (checked here so `Placement::from_pe_of` cannot panic).
        let pe_of = value.field("pe_of")?.to_usize_vec()?;
        if pe_of.len() != tiles {
            return Err(PersistError::schema("placement length does not match the grid"));
        }
        let mut seen = vec![false; tiles];
        for (tile, &pe) in pe_of.iter().enumerate() {
            if pe >= tiles || seen[pe] {
                return Err(PersistError::schema("placement is not a PE permutation"));
            }
            seen[pe] = true;
            if mix.kind(pe) == PeKind::Llc && !dims.is_edge(TileId(tile)) {
                return Err(PersistError::schema("LLC placed on an interior tile"));
            }
        }
        let placement = Placement::from_pe_of(dims, mix, pe_of);

        // Topology: distinct in-grid endpoints, no duplicate links
        // (checked here so `Topology::from_links` cannot panic). The
        // length bound comes first, so a hostile list costs at most one
        // pass over the link budget.
        let pairs = value.field("links")?.as_array()?;
        let budget = config.planar_links() + config.tsvs();
        if pairs.len() > budget {
            return Err(PersistError::schema(format!(
                "topology lists {} links but the platform has {budget}",
                pairs.len()
            )));
        }
        let mut links = Vec::with_capacity(pairs.len());
        let mut seen_links = HashSet::with_capacity(pairs.len());
        for pair in pairs {
            let ends = pair.to_usize_vec()?;
            let [a, b] = ends[..] else {
                return Err(PersistError::schema("a link must have exactly two endpoints"));
            };
            if a == b || a >= tiles || b >= tiles {
                return Err(PersistError::schema("link endpoints must be distinct grid tiles"));
            }
            let link = Link::new(TileId(a), TileId(b));
            if !seen_links.insert(link) {
                return Err(PersistError::schema("duplicate link in topology"));
            }
            links.push(link);
        }
        let design = Design::new(placement, Topology::from_links(dims, links));

        design
            .validate(
                dims,
                mix,
                config.planar_links(),
                config.tsvs(),
                config.noc().max_planar_length,
                config.noc().max_degree,
            )
            .map_err(|msg| {
                PersistError::schema(format!("checkpointed design infeasible: {msg}"))
            })?;
        Ok(design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::ObjectiveSet;
    use crate::problem::PlatformConfig;
    use moela_moo::Problem;
    use moela_traffic::{Benchmark, Workload};
    use rand::SeedableRng;

    fn problem() -> ManycoreProblem {
        let config = PlatformConfig::paper();
        let workload = Workload::synthesize(Benchmark::Bp, config.pe_mix(), 3);
        ManycoreProblem::new(config, workload, ObjectiveSet::Three).expect("valid")
    }

    #[test]
    fn designs_round_trip_through_the_codec() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let d = p.random_solution(&mut rng);
            let v = p.encode_solution(&d);
            let back = p.decode_solution(&v).expect("round trip");
            assert_eq!(back, d);
        }
    }

    #[test]
    fn round_trip_survives_json_text() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let d = p.random_solution(&mut rng);
        let text = moela_persist::encode::to_string(&p.encode_solution(&d));
        let v = moela_persist::decode::from_str(&text).expect("parses");
        assert_eq!(p.decode_solution(&v).expect("round trip"), d);
    }

    fn with_field(v: &Value, name: &str, replacement: Value) -> Value {
        let Value::Object(fields) = v else { panic!("object") };
        Value::Object(
            fields
                .iter()
                .map(|(k, old)| {
                    (k.clone(), if k == name { replacement.clone() } else { old.clone() })
                })
                .collect(),
        )
    }

    #[test]
    fn rejects_non_permutation_placements() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let v = p.encode_solution(&p.random_solution(&mut rng));
        let mut pe_of = v.field("pe_of").unwrap().to_usize_vec().unwrap();
        pe_of[0] = pe_of[1]; // duplicate PE
        let broken = with_field(&v, "pe_of", Value::usize_array(&pe_of));
        assert!(p.decode_solution(&broken).is_err());
    }

    #[test]
    fn rejects_broken_topologies() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let v = p.encode_solution(&p.random_solution(&mut rng));
        let mut pairs = v.field("links").unwrap().as_array().unwrap().to_vec();
        pairs.pop(); // violates the exact link budget
        let broken = with_field(&v, "links", Value::Array(pairs));
        assert!(p.decode_solution(&broken).is_err());
    }

    #[test]
    fn rejects_out_of_grid_endpoints() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let v = p.encode_solution(&p.random_solution(&mut rng));
        let broken = with_field(&v, "links", Value::Array(vec![Value::usize_array(&[0, 999])]));
        assert!(p.decode_solution(&broken).is_err());
    }

    #[test]
    fn rejects_duplicate_links() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let v = p.encode_solution(&p.random_solution(&mut rng));
        let mut pairs = v.field("links").unwrap().as_array().unwrap().to_vec();
        let last = pairs.len() - 1;
        pairs[last] = pairs[0].clone();
        let err = p.decode_solution(&with_field(&v, "links", Value::Array(pairs))).unwrap_err();
        assert!(err.to_string().contains("duplicate link"), "{err}");
    }

    /// A list longer than the link budget is rejected by its length,
    /// before any link is looked at: these entries are all the same
    /// valid link, which a scan would reject only as duplicates.
    #[test]
    fn rejects_an_oversized_link_list_before_scanning_it() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let v = p.encode_solution(&p.random_solution(&mut rng));
        let budget = p.config().planar_links() + p.config().tsvs();
        let pairs = vec![Value::usize_array(&[0, 1]); 50 * budget];
        let err = p.decode_solution(&with_field(&v, "links", Value::Array(pairs))).unwrap_err();
        assert!(err.to_string().contains(&format!("the platform has {budget}")), "{err}");
    }
}
