//! Crash-point sweeps and concurrency tests for the commit path: the
//! synchronous commit that truncates under its locks, the asynchronous
//! log manager's commit-ordered pass, and the bounded-backoff contention
//! manager.
//!
//! The sweep driver re-runs a workload crashing at every strided
//! durability primitive; the workloads are shaped so that the crash
//! windows of each regime are covered:
//!
//! * between a synchronous commit's redo fence and its truncating fence —
//!   the record is durable, the data may not be, and recovery must replay
//!   it;
//! * inside a log-manager pass — it may have retired some of the pass's
//!   records but not others;
//! * multi-word transactions must stay atomic across all of it: the
//!   invariant is always "every cell carries the same value".

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};

use mnemosyne::{crash_sweep, CrashPolicy, Error, Mnemosyne, ScmConfig, SweepConfig, Truncation};

fn dir(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("it-cscale-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Workload: `rounds` transactions, each writing the same round number
/// into `width` adjacent cells. At every instant the committed state has
/// all cells equal; a torn transaction (some cells old, some new) after
/// recovery is exactly the redo-replay bug the sweep hunts.
fn wide_bump_workload(m: &Mnemosyne, width: u64, rounds: u64) -> Result<(), Error> {
    let cells = m.pstatic("wide", width * 8)?;
    let mut th = m.register_thread()?;
    for r in 1..=rounds {
        th.atomic(|tx| {
            for j in 0..width {
                tx.write_u64(cells.add(j * 8), r)?;
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// Invariant: all cells equal, value within the rounds ever written.
fn check_wide(m: &Mnemosyne, width: u64, rounds: u64) -> Result<(), String> {
    let cells = m.pstatic("wide", width * 8).map_err(|e| e.to_string())?;
    let mut th = m.register_thread().map_err(|e| e.to_string())?;
    let vals: Vec<u64> = th
        .atomic(|tx| {
            (0..width)
                .map(|j| tx.read_u64(cells.add(j * 8)))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| e.to_string())?;
    let first = vals[0];
    if vals.iter().any(|&v| v != first) {
        return Err(format!("torn transaction visible after recovery: {vals:?}"));
    }
    if first > rounds {
        return Err(format!("cell value {first} exceeds {rounds} rounds"));
    }
    Ok(())
}

/// Sync mode with a small log: the workload wraps the log several times,
/// and the sweep crashes inside every window of the commit — before the
/// redo fence, between it and the truncating fence (the record is then
/// recovery's to replay), and after. Includes a mid-recovery double-crash
/// pass.
#[test]
fn sync_batched_commit_survives_crash_sweep() {
    let d = dir("sync");
    let width = 4u64;
    let rounds = 15u64;
    let cfg = SweepConfig {
        max_points: 20,
        recovery_points: 2,
        policy: CrashPolicy::DropAll,
        keep_failing_dirs: false,
    };
    let report = crash_sweep(
        &d,
        &cfg,
        |p: &Path| {
            Mnemosyne::builder(p)
                .scm_config(ScmConfig::for_testing(8 << 20))
                .truncation(Truncation::Sync)
                .log_words(256)
        },
        |m| wide_bump_workload(m, width, rounds),
        |m| check_wide(m, width, rounds),
    )
    .unwrap();
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert!(report.crashes_fired > 0);
    assert!(report.recovery_points_tested > 0);
    std::fs::remove_dir_all(&d).ok();
}

/// Async mode with a log so small the producer outruns the manager: the
/// sweep crashes inside a manager pass, which has retired part of its
/// records — recovery must replay exactly the surviving suffix, never a
/// torn record.
#[test]
fn async_truncation_survives_crash_sweep() {
    let d = dir("async");
    let width = 12u64;
    let rounds = 10u64;
    let cfg = SweepConfig {
        max_points: 16,
        recovery_points: 0,
        policy: CrashPolicy::DropAll,
        keep_failing_dirs: false,
    };
    let report = crash_sweep(
        &d,
        &cfg,
        |p: &Path| {
            Mnemosyne::builder(p)
                .scm_config(ScmConfig::for_testing(8 << 20))
                .truncation(Truncation::Async)
                .log_words(128)
        },
        |m| wide_bump_workload(m, width, rounds),
        |m| check_wide(m, width, rounds),
    )
    .unwrap();
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert!(report.crashes_fired > 0);
    std::fs::remove_dir_all(&d).ok();
}

/// Bounded backoff resolves a transient conflict by waiting instead of
/// aborting: a slow writer holds the covering lock while a second thread
/// runs into it; the second thread must (eventually) commit, and the
/// conflict episode must be visible in telemetry.
#[test]
fn contended_lock_resolves_by_backoff() {
    let d = dir("backoff");
    let m = Arc::new(
        Mnemosyne::builder(&d)
            .scm_config(ScmConfig::for_testing(8 << 20))
            .truncation(Truncation::Sync)
            .open()
            .unwrap(),
    );
    let cell = m.pstatic("hot", 8).unwrap();
    let barrier = Arc::new(Barrier::new(2));

    let slow = {
        let m = Arc::clone(&m);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut th = m.register_thread().unwrap();
            let mut first = true;
            th.atomic(|tx| {
                let v = tx.read_u64(cell)?;
                tx.write_u64(cell, v + 1)?; // lock acquired here
                if first {
                    first = false;
                    barrier.wait(); // release the fast thread…
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Ok(())
            })
            .unwrap();
        })
    };
    let fast = {
        let m = Arc::clone(&m);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut th = m.register_thread().unwrap();
            barrier.wait(); // …into the held lock
            th.atomic(|tx| {
                let v = tx.read_u64(cell)?;
                tx.write_u64(cell, v + 1)?;
                Ok(())
            })
            .unwrap();
        })
    };
    slow.join().unwrap();
    fast.join().unwrap();

    let mut th = m.register_thread().unwrap();
    let v = th.atomic(|tx| tx.read_u64(cell)).unwrap();
    assert_eq!(v, 2, "both increments must commit");
    let snap = m.telemetry().snapshot();
    assert!(
        snap.counter("mtm.lock_conflicts") >= 1,
        "the contention manager must have seen the conflict"
    );
    assert!(
        snap.counter("mtm.lock_conflicts") >= snap.counter("mtm.conflict_aborts"),
        "aborted episodes are a subset of conflict episodes"
    );
    drop(th);
    std::fs::remove_dir_all(&d).ok();
}
