//! Runs the full experiment suite: every table and figure of §6, plus
//! the microcost, reincarnation and reliability experiments.
//!
//! Unlike a plain script of bench invocations, failures are *contained
//! and propagated*: each experiment runs under
//! [`mnemosyne_bench::util::run_experiment_checked`], so one panicking
//! experiment still lets the rest run, every experiment still writes its
//! telemetry sidecar, and the process exits non-zero with a per-
//! experiment pass/fail summary if anything failed.

use mnemosyne_bench::util::run_experiment_checked;
use mnemosyne_bench::{exp, Scale};

type Experiment = (&'static str, fn(Scale));

fn main() {
    let scale = Scale::from_env();
    let suite: Vec<Experiment> = vec![
        ("table1", exp::table1::run),
        ("table4", exp::table4::run),
        ("table5", exp::table5::run),
        ("table6", exp::table6::run),
        ("fig4", exp::fig4::run),
        ("fig5", exp::fig5::run),
        ("fig6", exp::fig6::run),
        ("fig7", exp::fig7::run),
        ("microcosts", exp::microcosts::run),
        ("reincarnation", exp::reincarnation::run),
        ("reliability", exp::reliability::run),
    ];

    let results: Vec<(&str, Result<(), String>)> = suite
        .into_iter()
        .map(|(name, run)| (name, run_experiment_checked(name, scale, run)))
        .collect();

    println!("\n=== repro_all summary ===");
    let mut failed = 0;
    for (name, outcome) in &results {
        match outcome {
            Ok(()) => println!("  PASS  {name}"),
            Err(why) => {
                failed += 1;
                println!("  FAIL  {name}: {why}");
            }
        }
    }
    println!(
        "{} experiments, {} passed, {failed} failed",
        results.len(),
        results.len() - failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
