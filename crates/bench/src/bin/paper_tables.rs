//! Regenerates **Table I**, **Table II** and **Fig. 3** from one sweep:
//! MOELA, MOEA/D and MOOS run once per (app, objective set, seed), and
//! each view reads those runs.
//!
//! * Table I — speed-up of MOELA over each baseline: the evaluations the
//!   baseline needs to converge (PHV improvement below 0.5 % over 5 trace
//!   points, the paper's criterion) over the evaluations MOELA needs to
//!   reach the same PHV. `<1` means MOELA never got there in the budget.
//! * Table II — PHV gain `(PHV_MOELA − PHV_baseline) / PHV_baseline` at
//!   the stop budget, both fronts scored under the cell's corpus normalizer.
//! * Fig. 3 — EDP overhead of each baseline's selected 5-objective design
//!   over MOELA's (see [`select_design`]).
//!
//! Run with:
//! `cargo run -p moela-bench --release --bin paper_tables [-- --budget N --seeds a,b]`

use std::iter::once;

use moela_bench::{
    build_cell, format_row, geometric_mean, mean, parallel_map, speedup, Cell, HarnessConfig,
    COMPARED,
};
use moela_manycore::{Design, ObjectiveSet, PlatformConfig};
use moela_moo::hypervolume::hv_gain;
use moela_moo::run::{RunResult, TracePoint};
use moela_nocsim::{SimConfig, Simulator};
use moela_traffic::edp::EdpModel;
use moela_traffic::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the views read of one finished run; its population is dropped
/// as soon as the run ends.
struct Outcome {
    /// Table I: the PHV-over-evaluations trace.
    trace: Vec<TracePoint>,
    /// Table II: the final front's PHV under the cell's normalizer.
    phv: f64,
    /// Fig. 3: the selected design's `(edp, peak_temperature)`, for
    /// 5-objective runs only.
    selected: Option<(f64, f64)>,
}

/// One application's runs, as `runs[set][seed][algo]` in `cfg.sets`,
/// `cfg.seeds` and [`COMPARED`] order.
type AppRuns = Vec<Vec<[Outcome; 3]>>;

fn main() {
    let cfg = HarnessConfig::default().with_args(&[
        "--budget",
        "--population",
        "--seeds",
        "--apps",
        "--paper-scale",
        "--simulate",
    ]);
    let sweep: Vec<(Benchmark, AppRuns)> = parallel_map(cfg.apps.clone(), |app| {
        let runs = cfg
            .sets
            .iter()
            .map(|&set| cfg.seeds.iter().map(|&seed| run_cell(&cfg, app, set, seed)).collect());
        (app, runs.collect())
    });

    println!(
        "Table I reproduction — speed-up of MOELA (budget {} evals, population {}, seeds {:?})",
        cfg.budget, cfg.population, cfg.seeds
    );
    println!("clock = objective evaluations; see DESIGN.md §3 for the substitution rationale\n");
    print_grid(
        &cfg,
        &sweep,
        // A MOELA run that never caught up with the baseline counts as <1×.
        |moela, other| speedup(&moela.trace, &other.trace).unwrap_or(0.5),
        geometric_mean,
        |s| if s < 1.0 { "<1".to_owned() } else { format!("{s:.2}") },
    );
    println!("\npaper's shape: MOELA ≥ 1× everywhere, averages 8.9–121× (Table I)");

    println!(
        "Table II reproduction — PHV gain of MOELA at T_stop (budget {} evals, seeds {:?})\n",
        cfg.budget, cfg.seeds
    );
    print_grid(
        &cfg,
        &sweep,
        |moela, other| hv_gain(moela.phv, other.phv),
        mean,
        |g| format!("{:+.1}%", g * 100.0),
    );
    println!("\npaper's shape: gains positive everywhere, growing with objective count");

    print_fig3(&cfg, &sweep);
}

/// Runs every algorithm once on the `(app, set, seed)` cell and keeps
/// what the views read of each run.
fn run_cell(cfg: &HarnessConfig, app: Benchmark, set: ObjectiveSet, seed: u64) -> [Outcome; 3] {
    let cell = build_cell(PlatformConfig::paper(), app, set, seed);
    COMPARED.map(|(algo, _)| {
        let run = cfg.settings(algo, &cell).run(&cell.problem, &mut StdRng::seed_from_u64(seed));
        Outcome {
            phv: run.phv(&cell.normalizer),
            selected: (set == ObjectiveSet::Five).then(|| select_design(&cell, &run, cfg.simulate)),
            trace: run.trace,
        }
    })
}

/// Prints a Table I/II grid: one row per app and one column per
/// (baseline, objective set). A cell reduces `versus(MOELA, baseline)`
/// over the seeds with `reduce`; the average row reduces each column over
/// the apps the same way.
fn print_grid(
    cfg: &HarnessConfig,
    sweep: &[(Benchmark, AppRuns)],
    versus: impl Fn(&Outcome, &Outcome) -> f64,
    reduce: fn(&[f64]) -> f64,
    show: impl Fn(f64) -> String,
) {
    // Each baseline's index in `COMPARED`, then the objective set's.
    let columns: Vec<(usize, usize)> =
        (1..COMPARED.len()).flat_map(|b| (0..cfg.sets.len()).map(move |s| (b, s))).collect();
    let header: Vec<String> = once("App".to_owned())
        .chain(columns.iter().map(|&(b, s)| format!("{} {}", COMPARED[b].1, cfg.sets[s])))
        .collect();
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(10)).collect();
    println!("{}", format_row(&header, &widths));

    let mut cells = Vec::new();
    for (app, runs) in sweep {
        let value = |&(b, s): &(usize, usize)| {
            let per_seed: Vec<f64> = runs[s].iter().map(|o| versus(&o[0], &o[b])).collect();
            reduce(&per_seed)
        };
        let row: Vec<f64> = columns.iter().map(value).collect();
        print_row(app.name(), row.iter().map(|&v| show(v)), &widths);
        cells.push(row);
    }
    let column = |c: usize| cells.iter().map(|row| row[c]).collect::<Vec<_>>();
    print_row("Average", (0..columns.len()).map(|c| show(reduce(&column(c)))), &widths);
}

/// Prints Fig. 3 from the sweep's 5-objective runs.
fn print_fig3(cfg: &HarnessConfig, sweep: &[(Benchmark, AppRuns)]) {
    println!(
        "Fig. 3 reproduction — EDP overhead vs MOELA, 5 objectives (budget {} evals, seeds {:?})\n",
        cfg.budget, cfg.seeds
    );
    let header = ["App", "MOEA/D overhead", "MOOS overhead", "MOELA EDP", "MOELA peak T"];
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(12)).collect();
    println!("{}", format_row(&header.map(str::to_owned), &widths));

    let five = cfg.sets.iter().position(|&s| s == ObjectiveSet::Five).expect("no 5-objective set");
    let pct = |o: f64| format!("{:+.2}%", o * 100.0);
    let mut overheads = [Vec::new(), Vec::new()];
    for (app, runs) in sweep {
        // Per seed: MOEA/D's and MOOS's overheads, MOELA's EDP and peak T.
        let per_seed: Vec<[f64; 4]> = runs[five]
            .iter()
            .map(|o| {
                let [(edp, temp), (moead, _), (moos, _)] =
                    o.each_ref().map(|o| o.selected.expect("5-objective runs select a design"));
                [moead / edp - 1.0, moos / edp - 1.0, edp, temp]
            })
            .collect();
        let [moead_o, moos_o, edp, temp]: [f64; 4] =
            std::array::from_fn(|k| mean(&per_seed.iter().map(|r| r[k]).collect::<Vec<_>>()));
        overheads[0].push(moead_o);
        overheads[1].push(moos_o);
        let cells = [pct(moead_o), pct(moos_o), format!("{edp:.3e}"), format!("{temp:.1} K")];
        print_row(app.name(), cells, &widths);
    }
    let averages =
        [pct(mean(&overheads[0])), pct(mean(&overheads[1])), String::new(), String::new()];
    print_row("Average", averages, &widths);
    println!("\npaper's shape: overheads ≥ 0 (up to 7.7 %), averaging 3–4 %");
}

/// Prints one table row: `label`, then `cells`, right-aligned to `widths`.
fn print_row(label: &str, cells: impl IntoIterator<Item = String>, widths: &[usize]) {
    let row: Vec<String> = once(label.to_owned()).chain(cells).collect();
    println!("{}", format_row(&row, widths));
}

/// The paper's Fig. 3 selection (§V.D) from a run's final front: lowest
/// EDP within 5 % of the front's coolest peak temperature (the coolest
/// design as fallback). Returns `(edp, peak_temperature)`. EDP comes from
/// the analytic model of `moela-traffic::edp`, the gem5-gpu re-simulation
/// substitute; with `simulate`, its latency/congestion inputs come from
/// the flit-level simulator instead of the analytic network statistics.
fn select_design(cell: &Cell, result: &RunResult<Design>, simulate: bool) -> (f64, f64) {
    let model = EdpModel::new(cell.app);
    let scored: Vec<(f64, f64)> = result
        .front()
        .into_iter()
        .map(|(design, _)| {
            let full = cell.problem.evaluate_full(&design);
            let network = if simulate {
                let sim = Simulator::new(&cell.problem, &design, SimConfig::default());
                sim.run(20_000)
                    .to_network_stats(full.network.network_energy_rate, full.network.total_pe_power)
            } else {
                full.network
            };
            (model.edp(&network), full.peak_temperature)
        })
        .collect();
    let t_min = scored.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
    let threshold = t_min * 1.05;
    scored
        .iter()
        .filter(|(_, t)| *t <= threshold)
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .copied()
        .unwrap_or_else(|| {
            scored.iter().min_by(|a, b| a.1.total_cmp(&b.1)).copied().expect("front is non-empty")
        })
}
