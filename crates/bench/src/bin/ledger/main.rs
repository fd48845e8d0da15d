//! `ledger`: the repository's benchmark. Four workloads, end-to-end
//! and per-layer metrics for GEMM → engine → serving → router, every
//! layer timed from outside through public calls only. See the
//! README beside this file for definitions.
//!
//! ```text
//! ledger [--seed N] [--seconds S] [--runs R] [--out DIR]   every workload, untraced then traced
//! ledger --workload W --seed N --seconds S --trace 0|1     one run, one JSON result line
//! ledger --check                                           toy sizes, names against BENCHMARK.json
//! ledger compare A.json B.json                             two result sets against the bounds
//! ```

mod check;
mod gemm;
mod host;
mod json;
mod probes;
mod report;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;
mod timed;

use spec::{Plan, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<usize>,
    out: Option<PathBuf>,
    check: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => cli.check = true,
            "compare" => {
                let a = value("compare", &mut it)?;
                let b = value("compare", &mut it)?;
                cli.compare = Some((a.into(), b.into()));
            }
            "--workload" => cli.workload = Some(value(arg, &mut it)?),
            "--seed" => {
                let v = value(arg, &mut it)?;
                cli.seed = Some(v.parse().map_err(|_| format!("--seed: not a u64: {v}"))?);
            }
            "--seconds" => {
                let v = value(arg, &mut it)?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: out of range: {v}"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value(arg, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                });
            }
            "--runs" => {
                let v = value(arg, &mut it)?;
                let n: usize = v.parse().map_err(|_| format!("--runs: not a count: {v}"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--runs: out of range: {v}"));
                }
                cli.runs = Some(n);
            }
            "--out" => cli.out = Some(value(arg, &mut it)?.into()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

fn real_main(process_start: Instant) -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    if std::env::var_os("LQ_FORCE_SCALAR").is_some() {
        return Err(
            "LQ_FORCE_SCALAR is set: the benchmark measures the dispatched microkernel".into(),
        );
    }
    if cli.check {
        check::check()?;
        println!("ledger --check: ok");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &cli.compare {
        return report::compare(a, b);
    }
    let seed = cli.seed.unwrap_or(1);
    let seconds = match cli.seconds {
        Some(s) => s,
        None => check::declared_run_seconds()?,
    };
    let Some(name) = &cli.workload else {
        return report::parent(seed, seconds, cli.runs.unwrap_or(1), cli.out);
    };
    let workload = Workload::named(name).ok_or_else(|| format!("unknown workload: {name}"))?;
    let report = run::run(&run::Args {
        workload,
        seed,
        plan: Plan::timed(seconds),
        half_plan: Plan::timed(seconds / 2.0),
        trace: cli.trace.unwrap_or(false),
        out: cli.out,
        process_start,
    });
    report::print_child(&report);
    // A wrong output is reported in the result line, not by the exit
    // code: the run itself completed.
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match real_main(process_start) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = cli(&[
            "--workload",
            "serve_poisson",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("serve_poisson"));
        assert_eq!(
            (c.seed, c.seconds, c.trace),
            (Some(7), Some(15.0), Some(true))
        );
        let c = cli(&["compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            &["--sed", "1"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--runs", "0"],
            &["compare", "only-one"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    /// Tier-1 entry: `cargo test` runs every workload at toy sizes
    /// and holds the emitted names against `BENCHMARK.json`.
    #[test]
    fn check_passes() {
        check::check().unwrap();
    }
}
