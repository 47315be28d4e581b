//! The repository benchmark: end-to-end and per-layer metrics for the
//! serving loop and the offline Fig 3(c) algorithms.
//!
//! ```text
//! perfbench --workload <serve_steady|serve_overload|offline_fig3c>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <serve_steady|serve_overload> --seed <n> --knee
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every
//! per-layer metric, as the last stdout line (one JSON object); lines
//! before it, starting with `#`, carry the operating point and
//! diagnostics. A failed correctness check exits 1; bad arguments exit 2.

mod offline;
mod replay;
mod report;
mod serve;
mod stats;
mod sys;

use report::{complete, result_line, Tally, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <serve_steady|serve_overload|offline_fig3c> \
                     --seed <n> (--seconds <s> --trace <0|1> | --knee)";

/// Offered rates of a knee sweep, requests per second.
const KNEE_RATES: &[f64] = &[
    50.0, 75.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 175.0, 200.0, 250.0, 300.0,
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    knee: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut knee) =
        (None, None, None, None, false);
    while let Some(flag) = argv.next() {
        if flag == "--knee" {
            knee = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
        knee,
    };
    if !knee && (seconds.is_none() || trace.is_none()) {
        return Err("--seconds and --trace are required".to_string());
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = [serve::STEADY, serve::OVERLOAD]
        .into_iter()
        .find(|s| s.name == args.workload);
    if spec.is_none() && args.workload != offline::NAME {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }

    if args.knee {
        let Some(spec) = spec else {
            eprintln!("--knee applies to the serving workloads only");
            return ExitCode::from(2);
        };
        println!("# knee sweep seed={} {}", args.seed, spec.describe());
        return match serve::knee_sweep(&spec, args.seed, KNEE_RATES) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("knee sweep failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let started = Instant::now();
    let steal_before = sys::steal_ticks();
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# {}",
        spec.as_ref()
            .map_or_else(offline::describe, serve::ServeSpec::describe)
    );
    let mut tally = Tally::default();
    let measured = match (&spec, args.trace) {
        (Some(spec), false) => serve::end_to_end(spec, args.seed, args.seconds, &mut tally),
        (Some(spec), true) => serve::traced(spec, args.seed, args.seconds, &mut tally),
        (None, false) => offline::end_to_end(args.seed, args.seconds, &mut tally),
        (None, true) => offline::traced(args.seed, args.seconds, &mut tally),
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match measured.and_then(|values| complete(names, &values)) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &metrics {
        println!("# {name:<26} {value:>16.6} {unit}");
    }
    println!(
        "# steal_ticks={} run_s={:.2} checks_failed={}",
        sys::steal_ticks().saturating_sub(steal_before),
        started.elapsed().as_secs_f64(),
        tally.failed
    );
    for error in &tally.errors {
        eprintln!("check failed: {error}");
    }
    println!("{}", result_line(&tally, &metrics));
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
