//! §6.2 reliability, mechanised: systematic crash-point sweep coverage
//! and seeded media-corruption injection.
//!
//! The paper argues Mnemosyne's consistency informally and spot-checks it
//! with a seeded random-update program. This experiment replaces the spot
//! check with exhaustive enumeration: every durability primitive the
//! workload issues is a crash point, a strided subset of them is actually
//! crashed, and each reboot's state is checked against the transactional
//! invariant. A second pass flips seeded bits in the redo-log pages and
//! reports how recovery degrades (typed error vs. intact recovery — a
//! panic or silently wrong data would fail the run).

use std::time::Instant;

use mnemosyne::{crash_sweep, CrashPolicy, Error, Mnemosyne, ScmConfig, SweepConfig, Truncation};

use crate::util::{banner, Scale, TestRig};

const CELLS: u64 = 32;
const ROUNDS: u64 = 6;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

fn workload(m: &Mnemosyne) -> Result<(), Error> {
    let area = m.pstatic("cells", CELLS * 8)?;
    let round_cell = m.pstatic("round", 8)?;
    let mut th = m.register_thread()?;
    for round in 1..=ROUNDS {
        th.atomic(|tx| {
            let mut x = lcg(round);
            for i in 0..CELLS {
                x = lcg(x);
                tx.write_u64(area.add(i * 8), x)?;
            }
            tx.write_u64(round_cell, round)?;
            Ok(())
        })?;
    }
    Ok(())
}

fn check(m: &Mnemosyne) -> Result<(), String> {
    let area = m.pstatic("cells", CELLS * 8).map_err(|e| e.to_string())?;
    let round_cell = m.pstatic("round", 8).map_err(|e| e.to_string())?;
    let mut th = m.register_thread().map_err(|e| e.to_string())?;
    let r = th
        .atomic(|tx| tx.read_u64(round_cell))
        .map_err(|e| e.to_string())?;
    if r > ROUNDS {
        return Err(format!("recovered round {r} was never committed"));
    }
    let mut x = lcg(r);
    for i in 0..CELLS {
        x = lcg(x);
        let want = if r == 0 { 0 } else { x };
        let got = th
            .atomic(|tx| tx.read_u64(area.add(i * 8)))
            .map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!("cell {i} torn: {got:#x} != {want:#x} (round {r})"));
        }
    }
    Ok(())
}

/// Runs and prints the reliability sweep.
pub fn run(scale: Scale) {
    banner(
        "§6.2 reliability: crash-point sweep + corruption injection",
        scale,
    );

    let rig = TestRig::new();
    let cfg = SweepConfig {
        max_points: scale.pick(64, 512) as usize,
        recovery_points: scale.pick(0, 2) as usize,
        policy: CrashPolicy::DropAll,
        keep_failing_dirs: false,
    };
    let t0 = Instant::now();
    let report = crash_sweep(
        &rig.dir.join("sweep"),
        &cfg,
        |p| {
            Mnemosyne::builder(p)
                .scm_config(ScmConfig::for_testing(8 << 20))
                .truncation(Truncation::Sync)
        },
        workload,
        check,
    )
    .expect("sweep harness");
    let dt = t0.elapsed();
    println!("\ncrash-point sweep: {report}");
    println!(
        "coverage: {}/{} primitives crashed directly ({:.1}%), {:.1} s total, {:.1} ms/point",
        report.points_tested,
        report.workload_primitives,
        100.0 * report.points_tested as f64 / report.workload_primitives.max(1) as f64,
        dt.as_secs_f64(),
        dt.as_secs_f64() * 1e3 / report.points_tested.max(1) as f64
    );
    for f in &report.failures {
        println!("FAILURE: {f}");
    }
    assert!(report.passed(), "crash sweep found recovery failures");

    // Seeded corruption injection: flip bits in live redo-log pages and
    // classify how recovery degrades.
    let seeds = scale.pick(8, 64);
    let mut typed = 0u64;
    let mut intact = 0u64;
    for seed in 0..seeds {
        let d = rig.dir.join(format!("flip{seed}"));
        let m = Mnemosyne::builder(&d)
            .scm_size(32 << 20)
            .truncation(Truncation::Async)
            .open()
            .expect("boot");
        m.mtm().kill(); // keep committed records in the logs
        if workload(&m).is_err() {
            panic!("workload failed under async truncation");
        }
        let log0 = m.regions().find("mtm.log0").expect("log region");
        let pmem = m.pmem_handle();
        let body = pmem.try_translate(log0.addr.add(64)).expect("mapped");
        m.sim().inject_corruption(body, 4096 - 64, seed, 8);
        match m.crash_reboot(CrashPolicy::DropAll) {
            Ok(m2) => {
                intact += 1;
                check(&m2).expect("silent corruption after clean-looking recovery");
            }
            Err(Error::Tx(_) | Error::Log(_) | Error::Heap(_)) => typed += 1,
            Err(e) => panic!("seed {seed}: unexpected error class: {e}"),
        }
        std::fs::remove_dir_all(&d).ok();
    }
    println!(
        "corruption injection: {seeds} seeded 8-bit-flip runs -> {typed} typed rejections, \
         {intact} intact recoveries, 0 panics, 0 silent corruptions"
    );
}
