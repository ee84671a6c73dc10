//! The paper's full design problem: the 4×4×4 heterogeneous platform
//! (8 CPUs, 40 GPUs, 16 LLCs; 96 planar links + 48 TSVs) optimized on all
//! five objectives, followed by the Fig.-3-style design selection: pick
//! the lowest-EDP design within a +5 % peak-temperature threshold.
//!
//! Run with: `cargo run --release --example manycore_design`

use moela::prelude::*;
use moela::traffic::edp::EdpModel;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = Benchmark::Hot;
    let platform = PlatformConfig::paper();
    println!(
        "platform: 4x4x4, {} CPUs / {} GPUs / {} LLCs, 96 planar + 48 TSV",
        platform.pe_mix().cpus(),
        platform.pe_mix().gpus(),
        platform.pe_mix().llcs()
    );
    let workload = Workload::synthesize(benchmark, platform.pe_mix(), 11);
    let problem = ManycoreProblem::new(platform, workload, ObjectiveSet::Five)?;

    // Paper-structure parameters at example scale (gen = 1000 takes hours;
    // 20 iterations already shows the behavior).
    let config = MoelaConfig::builder().population(24).generations(20).iter_early(2).build()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2023);
    println!("running MOELA ({benchmark}, 5 objectives)…");
    let outcome = Moela::new(config, &problem).run(&mut rng);
    println!(
        "done: {} evaluations in {:.2?}, front size {}",
        outcome.evaluations,
        outcome.elapsed,
        outcome.front().len()
    );

    // Fig. 3 selection rule: temperature threshold at +5 % over the
    // coolest design, then minimum EDP within the threshold.
    let edp_model = EdpModel::new(benchmark);
    let evaluated: Vec<(f64, f64, Vec<f64>)> = outcome
        .front()
        .into_iter()
        .map(|(design, objs)| {
            let full = problem.evaluate_full(&design);
            (full.peak_temperature, edp_model.edp(&full.network), objs)
        })
        .collect();
    let t_min = evaluated.iter().map(|(t, _, _)| *t).fold(f64::INFINITY, f64::min);
    let threshold = t_min * 1.05;
    let within: Vec<&(f64, f64, Vec<f64>)> =
        evaluated.iter().filter(|(t, _, _)| *t <= threshold).collect();
    let chosen = within
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .or({
            // No design within threshold: fall back to the coolest.
            None
        })
        .copied()
        .unwrap_or_else(|| {
            evaluated.iter().min_by(|a, b| a.0.total_cmp(&b.0)).expect("front is non-empty")
        });

    println!("\ncoolest design peak temperature: {t_min:.2} K above ambient");
    println!("threshold (+5%):                 {threshold:.2} K");
    println!("{} of {} front designs are within it", within.len(), evaluated.len());
    println!("\nselected design (lowest EDP within the threshold):");
    println!("  peak temperature: {:.2} K above ambient", chosen.0);
    println!("  EDP (arbitrary units): {:.3e}", chosen.1);
    println!(
        "  objectives [mean, var, latency, energy, thermal]:\n  {:?}",
        chosen.2.iter().map(|v| (v * 1000.0).round() / 1000.0).collect::<Vec<f64>>()
    );
    Ok(())
}
