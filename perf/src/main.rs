//! `harmony-perf` — the repository's wall-clock benchmark (see README.md).
//!
//! ```text
//! harmony-perf run <workload>   [--seed N] [--seconds S] [--smoke] [--out runs.jsonl]
//! harmony-perf trace <workload> [--seed N] [--seconds S] [--smoke]
//! harmony-perf compare <a.jsonl> <b.jsonl>
//! harmony-perf --workload <w> --seed <n> --seconds <s> --trace <0|1>   (driver form)
//! ```
//!
//! The last line of standard output is the result object; everything for
//! people goes to standard error. The exit code is non-zero when an
//! operation failed or an answer was wrong.

mod calib;
mod churn;
mod compare;
mod estim;
mod json;
mod probes;
mod run;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Measured seconds when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str =
    "usage: harmony-perf run|trace <workload> [--seed N] [--seconds S] [--smoke] [--out FILE]
       harmony-perf compare <a.jsonl> <b.jsonl>
       harmony-perf --workload <w> --seed <n> --seconds <s> --trace <0|1>
workloads: scan_uniform hops_skew_tcp churn_mixed tenants_cold";

fn parse(argv: &[String]) -> Result<(String, Vec<String>, run::Args), String> {
    let mut command = "run".to_string();
    let mut positional = Vec::new();
    let mut args = run::Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = value(arg)?,
            "--seed" => {
                args.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => args.trace = value(arg)? != "0",
            "--out" => args.out = Some(PathBuf::from(value(arg)?)),
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ if positional.is_empty() && command == "run" && is_command(arg) => {
                command = arg.clone();
            }
            _ => positional.push(arg.clone()),
        }
    }
    if command == "trace" {
        args.trace = true;
    }
    if command != "compare" {
        if let Some(w) = positional.first() {
            args.workload = w.clone();
        }
        if workloads::Spec::get(&args.workload, false).is_none() {
            return Err(format!("unknown workload `{}`", args.workload));
        }
    }
    // A smoke run is sized by its window count alone.
    if args.smoke && !seconds_given {
        args.seconds = 0.0;
    }
    Ok((command, positional, args))
}

fn is_command(arg: &str) -> bool {
    matches!(arg, "run" | "trace" | "compare")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, positional, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("harmony-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The package directory as built; spill files and span files stay inside it.
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = if command == "compare" {
        match positional.as_slice() {
            [a, b] => compare::compare(
                &package.join("../BENCHMARK.json"),
                Path::new(a),
                Path::new(b),
            ),
            _ => Err(format!("compare needs two files\n{USAGE}")),
        }
    } else {
        run::execute(&args, &package.join("out"))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("harmony-perf: {e}");
            ExitCode::from(2)
        }
    }
}
