//! `kvload`: the wall-clock benchmark for `mnemosyned`.
//!
//! ```text
//! kvload --workload NAME --seed N --seconds S --trace 0|1
//! kvload check-repeat [--seed N] [--seconds S]
//! ```
//!
//! A run spawns the real daemon on a fresh datadir, preloads it, drives
//! it over TCP in a closed loop, verifies every reply, restarts it and
//! checks that no acknowledged write was lost. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones; the last line of
//! standard output is the result as one JSON object. See `README.md`.

mod contract;
mod daemon;
mod gen;
mod load;
mod probes;
mod report;
mod run;
mod stats;
mod verify;
mod wire;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::WORKLOADS;
use run::{prepare, run_workload, WARMUP};

/// An upper estimate of one run's duration, for the watchdog.
fn planned_run(seconds: u64) -> Duration {
    WARMUP + Duration::from_secs(seconds + 20)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_repeat: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: kvload --workload NAME --seed N --seconds S --trace 0|1\n       \
         kvload check-repeat [--seed N] [--seconds S]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 28,
        trace: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "check-repeat" => args.check_repeat = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(args)
}

fn run_command(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or_else(usage)?;
    let w = gen::workload(name).ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let env = prepare(planned_run(args.seconds))?;
    let report = run_workload(&env, &w, args.seed, args.seconds, args.trace)?;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    contract::check_names(section, &report.metrics)?;
    report::print_table(&format!("{name}: {section} metrics"), &report.metrics);
    report::print_table("also measured", &report.extra);
    report.facts.print();
    println!(
        "{}",
        report::result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    Ok(report.correct)
}

/// Runs every workload's untraced run and the layer probes twice with
/// the same seed and holds the differences against `BENCHMARK.json`.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let bounds = contract::read("end_to_end")?;
    let runs = 2 * WORKLOADS.len() as u32;
    let env = prepare(planned_run(args.seconds) * runs + Duration::from_secs(30))?;
    let mut ok = true;
    for w in &WORKLOADS {
        let a = run_workload(&env, w, args.seed, args.seconds, false)?;
        let b = run_workload(&env, w, args.seed, args.seconds, false)?;
        println!("{}: run 1 vs run 2 (seed {})", w.name, args.seed);
        ok &= a.correct && b.correct;
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            let bound = bounds
                .iter()
                .find(|e| e.name == ma.name)
                .map(|e| e.bound)
                .ok_or_else(|| format!("{} has no bound in BENCHMARK.json", ma.name))?;
            let diff = (mb.value - ma.value).abs() / ma.value;
            let verdict = if diff <= bound { "ok" } else { "BREACH" };
            ok &= diff <= bound;
            println!(
                "  {:<20} {:>14.4} {:>14.4} {:<4} diff {:>6.2} %  bound {:>5.1} %  {verdict}",
                ma.name,
                ma.value,
                mb.value,
                ma.unit,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    let epoch = Instant::now();
    let a = probes::run(&env.scratch.0, args.seed, epoch)?;
    let b = probes::run(&env.scratch.0, args.seed, epoch)?;
    println!("layer probes: run 1 vs run 2 (seed {})", args.seed);
    for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
        let verdict = if !probes::is_count(&ma.name) {
            format!(
                "diff {:>6.2} %",
                (mb.value - ma.value).abs() * 100.0 / ma.value
            )
        } else if ma.value.to_bits() == mb.value.to_bits() {
            "identical".to_string()
        } else {
            ok = false;
            "BREACH: counts differ".to_string()
        };
        println!(
            "  {:<32} {:>14.4} {:>14.4} {:<5} {verdict}",
            ma.name, ma.value, mb.value, ma.unit
        );
    }
    println!("check-repeat: {}", if ok { "green" } else { "RED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.check_repeat {
            check_repeat(&args)
        } else {
            run_command(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("kvload: FAILED (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("kvload: {e}");
            ExitCode::from(2)
        }
    }
}
