//! The `dse-bench` command line.

use std::path::PathBuf;
use std::process::ExitCode;

use moela_dse_bench::compare::compare;
use moela_dse_bench::run::{self, Length, Options, WORK_ROOT};
use moela_dse_bench::spec::{Metrics, Workload, WORKLOADS};

const USAGE: &str = "\
usage:
  dse-bench run [--seed N] [--rounds K | --seconds S] [--workload NAME]...
                [--trace 0|1] [--smoke] [--out FILE] [--moela-dse PATH]
      warm-up round, K timed rounds (default 5) of every workload, then
      one traced run per workload (--trace 1, the default); prints every
      metric, checks every output, writes every sample to FILE
      (default .dse-bench/result.json); the last line is a JSON summary
  dse-bench compare BASE.json CAND.json
      judges CAND against BASE with the BENCHMARK.json bounds; exits 3
      on a regression";

/// Exit code of a run whose outputs failed a check.
const EXIT_FAILED_CHECK: u8 = 1;
/// Exit code of bad usage or incomparable results.
const EXIT_USAGE: u8 = 2;
/// Exit code of `compare` when a metric regressed.
const EXIT_REGRESSED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = Metrics::load();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|opts| {
            let report = run::run(&opts, &metrics).map_err(|e| (EXIT_FAILED_CHECK, e))?;
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", moela_persist::encode::to_string(&report.summary));
            Ok(if report.correct { 0 } else { EXIT_FAILED_CHECK })
        }),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [base, cand] => read(base).and_then(|b| {
                let c = read(cand)?;
                let (lines, regressed) = compare(&b, &c, &metrics).map_err(|e| (EXIT_USAGE, e))?;
                for line in lines {
                    println!("{line}");
                }
                Ok(if regressed { EXIT_REGRESSED } else { 0 })
            }),
            _ => Err((EXIT_USAGE, "compare needs BASE.json and CAND.json".to_owned())),
        },
        _ => Err((EXIT_USAGE, "expected a subcommand".to_owned())),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err((code, message)) => {
            eprintln!("dse-bench: {message}");
            if code == EXIT_USAGE {
                eprintln!("{USAGE}");
            }
            ExitCode::from(code)
        }
    }
}

fn read(path: &str) -> Result<moela_persist::Value, (u8, String)> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|t| moela_persist::decode::from_str(&t).map_err(|e| format!("{path}: {e}")))
        .map_err(|e| (EXIT_USAGE, e))
}

fn parse_run(args: &[String]) -> Result<Options, (u8, String)> {
    let mut opts = Options {
        seed: 11,
        length: Length::Rounds(5),
        workloads: Vec::new(),
        trace: true,
        smoke: false,
        out: PathBuf::from(WORK_ROOT).join("result.json"),
        moela_dse: default_moela_dse(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or((EXIT_USAGE, format!("{flag} needs a value")));
        let bad = |what: &str| (EXIT_USAGE, format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => opts.seed = value()?.parse().map_err(|_| bad("an integer"))?,
            "--rounds" => {
                let k: usize = value()?.parse().map_err(|_| bad("a positive integer"))?;
                if k == 0 {
                    return Err(bad("a positive integer"));
                }
                opts.length = Length::Rounds(k);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                opts.length = Length::Seconds(s);
            }
            "--workload" => {
                let name = value()?;
                let w = Workload::named(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("one of {}", known.join(", ")))
                })?;
                opts.workloads.push(w);
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = PathBuf::from(value()?),
            "--moela-dse" => opts.moela_dse = PathBuf::from(value()?),
            other => return Err((EXIT_USAGE, format!("unknown flag '{other}'"))),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.to_vec();
    }
    if opts.smoke {
        opts.length = Length::Rounds(1);
    }
    Ok(opts)
}

/// `moela-dse` built into the same target directory as this binary.
fn default_moela_dse() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("moela-dse")))
        .unwrap_or_else(|| PathBuf::from("moela-dse"))
}
