//! Operational-resilience tests: no record from one log can be replayed
//! over a newer write from another — a synchronous log never outlives its
//! commit, and the asynchronous log manager retires records in commit
//! order; checkpoints lose nothing; and recovery — one thread
//! replaying every log in timestamp order — restores each committed value,
//! survives being crashed mid-replay, and crashes the same way every time.
//!
//! The tests that need a redo backlog build it in the regime that has
//! one: `Truncation::Async` with the log manager stopped
//! (`MtmRuntime::kill`) before the producers start, the work sized below
//! `log_words` so no producer can stall on the manager that is gone.
//!
//! Crash sweeps here root their scratch space under
//! `target/crash-corpus/<name>` instead of the temp dir: a failing crash
//! point keeps its directory (media image, logs), and CI uploads the
//! whole corpus as an artifact on test failure.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use std::panic::{catch_unwind, AssertUnwindSafe};

use mnemosyne::{
    crash_payload, crash_sweep, CrashPolicy, Error, FaultPlan, Mnemosyne, MnemosyneBuilder,
    ScmConfig, ScmSim, SweepConfig, Truncation, VAddr,
};

/// Sweep scratch root that CI uploads on failure.
fn corpus_dir(tag: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("../crash-corpus")
        .join(tag);
    std::fs::remove_dir_all(&d).ok();
    d
}

fn dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("it-resil-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// An acknowledged overwrite must survive a crash even when an older
/// record for the same word sits in another thread's idle log: `a`
/// commits `W = 1` and goes quiet, `b` commits `W = 2` and then enough
/// unrelated words that its own log has long since dropped that record.
/// Default configuration: no knob is set.
#[test]
fn idle_log_cannot_undo_another_logs_acknowledged_overwrite() {
    let d = dir("twolog");
    let build = |dir: &std::path::Path| Mnemosyne::builder(dir).log_words(1 << 10);
    let m = build(&d).open().unwrap();
    let w = m.pstatic("w", 8).unwrap();
    let elsewhere = m.pstatic("elsewhere", 200 * 8).unwrap();
    let mut a = m.register_thread().unwrap();
    let mut b = m.register_thread().unwrap();
    a.atomic(|tx| tx.write_u64(w, 1)).unwrap();
    b.atomic(|tx| tx.write_u64(w, 2)).unwrap();
    for i in 0..200u64 {
        b.atomic(|tx| tx.write_u64(elsewhere.add(i * 8), i))
            .unwrap();
    }
    drop((a, b));
    let (d, image) = m.crash(CrashPolicy::DropAll);
    let m = build(&d).from_image(image).open().unwrap();
    let w = m.pstatic("w", 8).unwrap();
    let mut th = m.register_thread().unwrap();
    assert_eq!(th.atomic(|tx| tx.read_u64(w)).unwrap(), 2);
    std::fs::remove_dir_all(&d).ok();
}

/// Stack for the two-log overwrite below: Async, so records outlive
/// their commits, and the virtual clock, so crash points repeat.
fn two_log_build(dir: &std::path::Path) -> MnemosyneBuilder {
    Mnemosyne::builder(dir)
        .scm_config(ScmConfig::virtual_clock(8 << 20))
        .truncation(Truncation::Async)
        .log_words(1 << 10)
}

/// The Async twin of the test above, manager stopped: `y` (slot 1)
/// commits `W = 1`, then `x` (slot 0) commits `W = 2`; returns `W`.
fn two_log_overwrite(m: &Mnemosyne) -> Result<VAddr, Error> {
    m.mtm().kill();
    let w = m.pstatic("w", 8)?;
    let mut x = m.register_thread()?;
    let mut y = m.register_thread()?;
    y.atomic(|tx| tx.write_u64(w, 1))?;
    x.atomic(|tx| tx.write_u64(w, 2))?;
    Ok(w)
}

/// One checkpoint — one manager pass — retires both records of the
/// two-log overwrite. A pass that dropped `x`'s newer record first would
/// leave `y`'s older one for a crash in between to replay. Every
/// primitive is a crash point.
#[test]
fn manager_pass_cannot_undo_another_logs_acknowledged_overwrite() {
    let base = corpus_dir("async-twolog");
    let acked = AtomicBool::new(false);
    let cfg = SweepConfig {
        max_points: usize::MAX,
        ..SweepConfig::default()
    };
    let report = crash_sweep(
        &base,
        &cfg,
        two_log_build,
        |m| {
            acked.store(false, Ordering::SeqCst);
            two_log_overwrite(m)?;
            acked.store(true, Ordering::SeqCst);
            m.mtm().checkpoint();
            Ok(())
        },
        |m| {
            let w = m.pstatic("w", 8).map_err(|e| e.to_string())?;
            let mut th = m.register_thread().map_err(|e| e.to_string())?;
            let v = th.atomic(|tx| tx.read_u64(w)).map_err(|e| e.to_string())?;
            if acked.load(Ordering::SeqCst) && v != 2 {
                return Err(format!("W reads {v} once 2 was acknowledged"));
            }
            Ok(())
        },
    )
    .unwrap();
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert_eq!(report.points_tested as u64, report.workload_primitives);
    std::fs::remove_dir_all(&base).ok();
}

/// Recovery retires what it replays in commit order too: with both
/// records of the two-log overwrite left behind, a crash at any primitive
/// of recovery followed by a clean reboot still reads `W = 2`.
#[test]
fn crash_inside_recovery_cannot_undo_another_logs_acknowledged_overwrite() {
    let m = two_log_build(&dir("rec-twolog")).open().unwrap();
    let w = two_log_overwrite(&m).unwrap();
    let scm = m.sim().config().clone();
    let (d, image) = m.crash(CrashPolicy::DropAll);
    let count = FaultPlan::count_only();
    let reboot = two_log_build(&d).from_image(image.clone());
    drop(reboot.fault_plan(count.clone()).open().unwrap());
    for j in 0..count.primitives() {
        let sim = ScmSim::from_image(&image, scm.clone());
        sim.set_fault_plan(FaultPlan::crash_at(j));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            two_log_build(&d).with_sim(sim.clone()).open()
        }));
        sim.crash(CrashPolicy::DropAll);
        let m = two_log_build(&d).from_image(sim.image()).open().unwrap();
        let mut th = m.register_thread().unwrap();
        let v = th.atomic(|tx| tx.read_u64(w)).unwrap();
        assert_eq!(v, 2, "crash at recovery primitive {j}");
    }
    std::fs::remove_dir_all(&d).ok();
}

/// A synchronous commit truncates its own record before it returns, so a
/// sustained writer never has a backlog — and what it committed last
/// survives losing every cached line.
#[test]
fn sync_commits_leave_no_outstanding_log_and_survive_drop_all() {
    let d = dir("bound");
    // (`crash` + the same builder rather than `crash_reboot`, since
    // `log_words` shapes the region layout.)
    let build = |dir: &std::path::Path| {
        Mnemosyne::builder(dir)
            .scm_config(ScmConfig::virtual_clock(32 << 20))
            .truncation(Truncation::Sync)
            .log_words(1 << 14)
    };
    let m = build(&d).open().unwrap();
    let cell = m.pstatic("sustained", 256).unwrap();
    let mut th = m.register_thread().unwrap();
    for round in 0..16u64 {
        for i in 0..40u64 {
            th.atomic(|tx| {
                tx.write_u64(cell.add((i % 32) * 8), round * 1000 + i)?;
                Ok(())
            })
            .unwrap();
            assert_eq!(m.mtm().outstanding_log_words(), 0);
        }
    }
    drop(th);
    let (d, image) = m.crash(CrashPolicy::DropAll);
    let m = build(&d).from_image(image).open().unwrap();
    assert_eq!(m.mtm().recovery_stats().replayed, 0);
    let cell = m.pstatic("sustained", 256).unwrap();
    let mut th = m.register_thread().unwrap();
    let v = th.atomic(|tx| tx.read_u64(cell.add(8))).unwrap();
    assert_eq!(v, 15 * 1000 + 33);
    std::fs::remove_dir_all(&d).ok();
}

/// Two transaction threads on two OS threads bump the same three cells,
/// so both logs carry records for the same words. A cell is a counter:
/// after a crash anywhere — and a second one inside recovery — it must
/// hold at least every acknowledged bump and at most every attempted one.
/// A stale record replayed over a newer write would take it backwards.
/// Both regimes; under Async the log manager runs throughout.
#[test]
fn two_threads_bumping_shared_cells_survive_crash_sweep() {
    for truncation in [Truncation::Sync, Truncation::Async] {
        const CELLS: usize = 3;
        const BUMPS_PER_THREAD: u64 = 12;
        let base = corpus_dir(&format!("shared-cells-{truncation:?}"));
        let attempted: [AtomicU64; CELLS] = Default::default();
        let acked: [AtomicU64; CELLS] = Default::default();
        let cfg = SweepConfig {
            max_points: 16,
            recovery_points: 2,
            ..SweepConfig::default()
        };
        let report = crash_sweep(
            &base,
            &cfg,
            |p| {
                Mnemosyne::builder(p)
                    .scm_config(ScmConfig::virtual_clock(8 << 20))
                    .truncation(truncation)
            },
            |m| {
                for c in attempted.iter().chain(&acked) {
                    c.store(0, Ordering::SeqCst);
                }
                let cells = m.pstatic("shared", CELLS as u64 * 8)?;
                std::thread::scope(|s| {
                    let bumpers: Vec<_> = (0..2)
                        .map(|_| {
                            s.spawn(|| {
                                let mut th = m.register_thread().unwrap();
                                for i in 0..BUMPS_PER_THREAD {
                                    let c = i as usize % CELLS;
                                    let cell = cells.add(c as u64 * 8);
                                    attempted[c].fetch_add(1, Ordering::SeqCst);
                                    th.atomic(|tx| {
                                        let v = tx.read_u64(cell)?;
                                        tx.write_u64(cell, v + 1)
                                    })
                                    .unwrap();
                                    acked[c].fetch_add(1, Ordering::SeqCst);
                                }
                            })
                        })
                        .collect();
                    for b in bumpers {
                        // An injected crash unwinds the bumper it fires in, and
                        // the other at its next primitive; anything else is a bug.
                        if let Err(payload) = b.join() {
                            if crash_payload(&*payload).is_none() {
                                std::panic::resume_unwind(payload);
                            }
                        }
                    }
                });
                Ok(())
            },
            |m| {
                let cells = m
                    .pstatic("shared", CELLS as u64 * 8)
                    .map_err(|e| e.to_string())?;
                let mut th = m.register_thread().map_err(|e| e.to_string())?;
                for c in 0..CELLS {
                    let v = th
                        .atomic(|tx| tx.read_u64(cells.add(c as u64 * 8)))
                        .map_err(|e| e.to_string())?;
                    let (lo, hi) = (
                        acked[c].load(Ordering::SeqCst),
                        attempted[c].load(Ordering::SeqCst),
                    );
                    if v < lo || v > hi {
                        return Err(format!(
                            "cell {c} holds {v}: {lo} bumps acknowledged, {hi} attempted"
                        ));
                    }
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(report.passed(), "{truncation:?}: {:?}", report.failures);
        assert!(report.crashes_fired > 0);
        assert!(report.recovery_points_tested > 0);
        std::fs::remove_dir_all(&base).ok();
    }
}

/// A checkpoint's primitives are crash points like any other. Sweeping a
/// workload that checkpoints every few transactions proves dying *inside*
/// a checkpoint never loses an acknowledged (committed) write.
#[test]
fn crash_sweep_with_mid_workload_checkpoints_loses_nothing() {
    let base = corpus_dir("ckpt-sweep");
    let cfg = SweepConfig {
        max_points: 20,
        recovery_points: 0,
        ..SweepConfig::default()
    };
    let report = crash_sweep(
        &base,
        &cfg,
        |p| {
            Mnemosyne::builder(p)
                .scm_config(ScmConfig::virtual_clock(8 << 20))
                .truncation(Truncation::Sync)
        },
        |m| {
            let cell = m.pstatic("ckptcell", 8)?;
            let mut th = m.register_thread()?;
            for i in 0..8u64 {
                th.atomic(|tx| {
                    let v = tx.read_u64(cell)?;
                    tx.write_u64(cell, v + 1)?;
                    Ok(())
                })?;
                // Checkpoint from the workload thread: deterministic
                // primitive counts, so the sweep strides through the
                // checkpoint's own primitives.
                if i % 2 == 1 {
                    m.mtm().checkpoint();
                }
            }
            Ok(())
        },
        |m| {
            let cell = m.pstatic("ckptcell", 8).map_err(|e| e.to_string())?;
            let mut th = m.register_thread().map_err(|e| e.to_string())?;
            let v = th
                .atomic(|tx| tx.read_u64(cell))
                .map_err(|e| e.to_string())?;
            if v <= 8 {
                Ok(())
            } else {
                Err(format!("counter {v} exceeds the 8 increments ever made"))
            }
        },
    )
    .unwrap();
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert!(report.crashes_fired > 0);
    std::fs::remove_dir_all(&base).ok();
}

/// Double fault through replay: every workload crash point is followed
/// by crashes scheduled inside recovery itself (the log scan and the
/// replay both issue counted primitives), and a clean reboot afterwards
/// must still satisfy the invariant.
#[test]
fn double_fault_during_replay_loses_nothing() {
    const TXS: u64 = 6;
    const LOG_WORDS: u64 = 1 << 8;
    // Two-word records take 8 log words; the manager is gone, so all of
    // them must fit, with room to spare for the `pstatic` record.
    const _: () = assert!(TXS * 8 < LOG_WORDS / 2);
    let base = corpus_dir("replay-sweep");
    let cfg = SweepConfig {
        max_points: 6,
        recovery_points: 3,
        ..SweepConfig::default()
    };
    let report = crash_sweep(
        &base,
        &cfg,
        |p| {
            Mnemosyne::builder(p)
                .scm_config(ScmConfig::virtual_clock(8 << 20))
                .truncation(Truncation::Async)
                .log_words(LOG_WORDS)
        },
        |m| {
            // No manager: every record lingers, so recovery always has a
            // real multi-record backlog to replay.
            m.mtm().kill();
            let cell = m.pstatic("dblcell", 64)?;
            let mut th = m.register_thread()?;
            for i in 0..TXS {
                th.atomic(|tx| {
                    let v = tx.read_u64(cell)?;
                    tx.write_u64(cell, v + 1)?;
                    // Touch neighbouring words too, so the replay stream
                    // overwrites words across records.
                    tx.write_u64(cell.add(8 + (i % 7) * 8), v)?;
                    Ok(())
                })?;
            }
            Ok(())
        },
        |m| {
            let cell = m.pstatic("dblcell", 64).map_err(|e| e.to_string())?;
            let mut th = m.register_thread().map_err(|e| e.to_string())?;
            let v = th
                .atomic(|tx| tx.read_u64(cell))
                .map_err(|e| e.to_string())?;
            if v <= TXS {
                Ok(())
            } else {
                Err(format!(
                    "counter {v} exceeds the {TXS} increments ever made"
                ))
            }
        },
    )
    .unwrap();
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert!(report.recovery_points_tested > 0);
    std::fs::remove_dir_all(&base).ok();
}

/// Replay restores a four-log backlog exactly: four producers commit
/// under `Truncation::Async` with the manager stopped, the crash drops
/// every data line, and the reboot must replay every committed record and
/// leave each word at the value its last commit wrote.
#[test]
fn replay_restores_the_last_committed_value_of_every_word() {
    const PRODUCERS: u64 = 4;
    const TXS: u64 = 50;
    const LOG_WORDS: u64 = 1 << 10;
    // As above: 8 log words a record, half the log to spare.
    const _: () = assert!(TXS * 8 < LOG_WORDS / 2);
    let d = dir("replay");
    let build = |dir: &std::path::Path| {
        Mnemosyne::builder(dir)
            .scm_config(ScmConfig::virtual_clock(16 << 20))
            .truncation(Truncation::Async)
            .log_words(LOG_WORDS)
            .max_threads(6)
    };
    let m = build(&d).open().unwrap();
    m.mtm().kill();
    // Every producer holds its slot before any commits, so each fills a
    // log of its own (a slot freed early would be reused, log and all).
    let registered = Barrier::new(PRODUCERS as usize);
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let (m, registered) = (&m, &registered);
            s.spawn(move || {
                let area = m.pstatic(&format!("eq{t}"), 64 * 8).unwrap();
                let mut th = m.register_thread().unwrap();
                registered.wait();
                for i in 0..TXS {
                    th.atomic(|tx| {
                        tx.write_u64(area.add((i % 64) * 8), t * 10_000 + i)?;
                        tx.write_u64(area.add(((i + 13) % 64) * 8), t * 10_000 + i + 1)?;
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    assert!(m.mtm().outstanding_log_words() > 0);
    let (d, image) = m.crash(CrashPolicy::DropAll);

    let m = build(&d).from_image(image).open().unwrap();
    // One record per commit, plus each producer's `pstatic` binding.
    assert_eq!(m.mtm().recovery_stats().replayed, PRODUCERS * (TXS + 1));
    let mut th = m.register_thread().unwrap();
    for t in 0..PRODUCERS {
        let mut want = [0u64; 64];
        for i in 0..TXS {
            want[(i % 64) as usize] = t * 10_000 + i;
            want[((i + 13) % 64) as usize] = t * 10_000 + i + 1;
        }
        let area = m.pstatic(&format!("eq{t}"), 64 * 8).unwrap();
        for (w, &v) in (0u64..).zip(&want) {
            let got = th.atomic(|tx| tx.read_u64(area.add(w * 8))).unwrap();
            assert_eq!(got, v, "producer {t}, word {w}");
        }
    }
    drop(th);
    drop(m);
    std::fs::remove_dir_all(&d).ok();
}

/// A crash inside recovery lands on the same primitive every time: the
/// same workload crash point followed by the same recovery crash point
/// leaves byte-identical media. The backlog spans four logs (four
/// transaction threads, committing in turn from one OS thread), so a
/// recovery that scanned or replayed them concurrently would race for the
/// scheduled primitive.
#[test]
fn crash_inside_recovery_is_deterministic() {
    let scm = ScmConfig::virtual_clock(8 << 20);
    let build = |dir: &std::path::Path| {
        Mnemosyne::builder(dir)
            .scm_config(scm.clone())
            .truncation(Truncation::Async)
            .log_words(1 << 8)
    };
    // Runs the workload under `wplan` and then recovery under `rplan`,
    // each unwinding if its plan fires; returns the media afterwards.
    let run = |tag: &str, wplan: &FaultPlan, rplan: &FaultPlan| -> Vec<u8> {
        let m = build(&dir(tag)).open().unwrap();
        m.sim().set_fault_plan(wplan.clone());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            m.mtm().kill();
            let area = m.pstatic("det", 4 * 64).unwrap();
            let mut ths: Vec<_> = (0..4).map(|_| m.register_thread().unwrap()).collect();
            for i in 0..12u64 {
                for (t, th) in (0..).zip(&mut ths) {
                    th.atomic(|tx| tx.write_u64(area.add(t * 64 + (i % 8) * 8), i))
                        .unwrap();
                }
            }
        }));
        let (d, image) = m.crash(CrashPolicy::DropAll);
        let sim = ScmSim::from_image(&image, scm.clone());
        sim.set_fault_plan(rplan.clone());
        let _ = catch_unwind(AssertUnwindSafe(|| build(&d).with_sim(sim.clone()).open()));
        sim.crash(CrashPolicy::DropAll);
        std::fs::remove_dir_all(&d).ok();
        sim.image()
    };

    // Crash the workload three quarters in, and recovery half way.
    let (wcount, rcount) = (FaultPlan::count_only(), FaultPlan::count_only());
    run("det-wcount", &wcount, &FaultPlan::count_only());
    let k = wcount.primitives() * 3 / 4;
    run("det-rcount", &FaultPlan::crash_at(k), &rcount);
    let j = rcount.primitives() / 2;
    let images: Vec<Vec<u8>> = ["det-a", "det-b"]
        .into_iter()
        .map(|tag| {
            let (wplan, rplan) = (FaultPlan::crash_at(k), FaultPlan::crash_at(j));
            let image = run(tag, &wplan, &rplan);
            assert!(wplan.fired().is_some() && rplan.fired().is_some());
            image
        })
        .collect();
    assert!(
        images[0] == images[1],
        "crash at workload primitive {k}, then recovery primitive {j}, left different media"
    );
}
