//! `moela-dse`: command-line design-space exploration with the MOELA
//! framework. See `moela-dse help` for usage.
//!
//! With `run --run-dir DIR` every run becomes a structured, crash-safe
//! store (manifest + rotating checkpoints + result CSVs and their JSON
//! twins) that `moela-dse resume DIR` continues from its newest intact
//! checkpoint — producing byte-identical `trace.csv`/`front.csv` to an
//! uninterrupted run, at any thread count. `moela-dse serve` exposes
//! the same engine as an HTTP job server with bounded queueing,
//! cooperative cancellation, and graceful drain.

mod analysis;
mod args;
mod engine;
#[cfg(test)]
mod hostile_options;
mod serve_cmd;

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use moela_core::Algorithm;
use moela_manycore::PlatformConfig;
use moela_moo::normalize::Normalizer;
use moela_moo::Problem;
use moela_nocsim::{SimConfig, Simulator};
use moela_obs::Reporter;
use moela_traffic::{Benchmark, PeKind, Workload};

use args::{Command, RunOptions};
use engine::{CliError, Ended, ExecHooks, ResumeOverrides, VERSION};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            // Malformed syntax exits 1; contradictory flag combinations
            // exit 2 (see `args::ArgsError`).
            return ExitCode::from(e.code);
        }
    };
    let outcome = match command {
        Command::Help => {
            println!("{}", args::USAGE);
            Ok(())
        }
        Command::Version => {
            println!("moela-dse {VERSION}");
            Ok(())
        }
        Command::Run(opts) => engine::run(&opts, &ExecHooks::none()).map(|_| ()),
        Command::Resume {
            dir,
            threads,
            checkpoint_every,
            crash_after_checkpoints,
            progress,
            log_level,
        } => {
            let overrides = ResumeOverrides {
                threads,
                checkpoint_every,
                crash_after_checkpoints,
                progress,
                log_level: Some(log_level),
            };
            engine::resume(&dir, &overrides, &ExecHooks::none()).map(|_| ())
        }
        Command::Serve(opts) => serve_cmd::serve(&opts),
        Command::Report { dir, log_level } => analysis::report(&dir, log_level),
        Command::CompareRuns { baseline, candidate, max_phv_regression, max_rate_regression } => {
            let thresholds =
                analysis::CompareThresholds { max_phv_regression, max_rate_regression };
            analysis::compare_runs(&baseline, &candidate, &thresholds)
        }
        Command::Compare(opts) => compare(&opts),
        Command::Info { app, seed } => {
            info(app, seed);
            Ok(())
        }
        Command::Simulate { options, load_factor, cycles } => {
            simulate(&options, load_factor, cycles)
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // The same convention as argument parsing: 1 for operational
            // failures, 2 for configurations the user must fix.
            ExitCode::from(e.code)
        }
    }
}

fn compare(opts: &RunOptions) -> Result<(), CliError> {
    let reporter = Reporter::new(opts.log_level);
    let problem = engine::build_problem(opts)?;
    let normalizer = Normalizer::from_corpus(&problem, opts.seed);
    reporter.info(&format!(
        "comparing all algorithms on {} ({}), budget {} evaluations\n",
        opts.app, opts.set, opts.budget
    ));
    reporter.info(&format!(
        "{:<12} {:>10} {:>10} {:>10} {:>7}",
        "algorithm", "evals", "time", "PHV", "front"
    ));
    for (algorithm, name) in Algorithm::ALL {
        let per_algorithm = RunOptions { algorithm, ..opts.clone() };
        let ended =
            engine::execute(&per_algorithm, &problem, &normalizer, None, None, &ExecHooks::none())?;
        let Ended::Finished { result, log, phv } = ended else {
            unreachable!("compare runs without a cancel hook")
        };
        let health = if log.is_clean() {
            String::new()
        } else {
            format!("  ({} faults contained)", log.faults())
        };
        reporter.info(&format!(
            "{:<12} {:>10} {:>10.2?} {:>10.4} {:>7}{health}",
            name,
            result.evaluations,
            result.elapsed,
            phv,
            result.front().len()
        ));
    }
    Ok(())
}

fn info(app: Benchmark, seed: u64) {
    let platform = PlatformConfig::paper();
    let mix = platform.pe_mix();
    let w = Workload::synthesize(app, mix, seed);
    println!("{app} on the paper platform (seed {seed})");
    println!("  PEs: {} CPUs, {} GPUs, {} LLCs", mix.cpus(), mix.gpus(), mix.llcs());
    println!(
        "  total traffic: {:.1} flits/kilo-cycle over {} flows",
        w.total_traffic(),
        w.flows().len()
    );
    let class_total = |a: PeKind, b: PeKind| -> f64 {
        let total: f64 = mix
            .ids_of(a)
            .flat_map(|i| mix.ids_of(b).map(move |j| (i, j)))
            .map(|(i, j)| w.traffic(i, j) + w.traffic(j, i))
            .sum();
        // Same-kind classes enumerate every unordered pair twice.
        if a == b {
            total / 2.0
        } else {
            total
        }
    };
    let pairs = [
        ("CPU<->LLC", class_total(PeKind::Cpu, PeKind::Llc)),
        ("GPU<->LLC", class_total(PeKind::Gpu, PeKind::Llc)),
        ("GPU<->GPU", class_total(PeKind::Gpu, PeKind::Gpu)),
        ("CPU<->CPU", class_total(PeKind::Cpu, PeKind::Cpu)),
    ];
    for (name, v) in pairs {
        println!("  {name:<10} {:>6.1}%", v / w.total_traffic() * 100.0);
    }
    let total_power: f64 = w.pe_powers().iter().sum();
    println!("  total PE power: {total_power:.1} W");
}

fn simulate(opts: &RunOptions, load_factor: f64, cycles: u64) -> Result<(), CliError> {
    let problem = engine::build_problem(opts)?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let design = problem.random_solution(&mut rng);
    println!(
        "simulating a random design: {} workload, load x{load_factor}, {cycles} cycles",
        opts.app
    );
    let sim = Simulator::new(&problem, &design, SimConfig { load_factor, warmup_cycles: 2_000 });
    let stats = sim.run(cycles);
    println!("  delivered flits:    {}", stats.delivered);
    println!("  delivery ratio:     {:.3}", stats.delivery_ratio());
    println!("  avg flit latency:   {:.1} cycles", stats.avg_latency);
    println!("  mean link util:     {:.4} flits/cycle", stats.mean_utilization());
    println!("  max link util:      {:.4} flits/cycle", stats.max_link_utilization);
    let analytic = problem.evaluate_full(&design);
    println!(
        "  analytic reference: latency {:.1} cycles, mean util {:.4} flits/cycle",
        analytic.network.avg_packet_latency,
        analytic.mean_traffic / 1000.0
    );
    Ok(())
}
