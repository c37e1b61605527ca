//! System-level crash-recovery tests (§6.2 "Reliability"): crash the
//! machine at nasty points with adversarial policies and verify every
//! layer recovers to a consistent state.

use std::path::PathBuf;

use mnemosyne::{crash_sweep, CrashPolicy, Error, Mnemosyne, ScmConfig, SweepConfig, Truncation};
use mnemosyne_pds::{PBPlusTree, PHashTable, PRbTree};

fn dir(tag: &str) -> PathBuf {
    // Unique per run (counter + pid + timestamp), so a leftover directory
    // from a killed earlier run can never alias this one.
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let d = std::env::temp_dir().join(format!("it-crash-{tag}-{}-{n}-{t:08x}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn repeated_crash_reboot_cycles_accumulate_state() {
    let d = dir("cycles");
    let mut m = Mnemosyne::builder(&d).scm_size(64 << 20).open().unwrap();
    for round in 0..6u64 {
        let counter = m.pstatic("rounds", 8).unwrap();
        let mut th = m.register_thread().unwrap();
        let seen = th.atomic(|tx| tx.read_u64(counter)).unwrap();
        assert_eq!(seen, round, "state lost across crash {round}");
        th.atomic(|tx| tx.write_u64(counter, seen + 1)).unwrap();
        drop(th);
        m = m.crash_reboot(CrashPolicy::random(round * 7 + 1)).unwrap();
    }
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn hashtable_consistent_after_crash_between_every_batch() {
    let d = dir("hash");
    let mut m = Mnemosyne::builder(&d).scm_size(64 << 20).open().unwrap();
    let mut inserted = 0u64;
    for round in 0..4u64 {
        let mut th = m.register_thread().unwrap();
        let h = PHashTable::open(&m, &mut th, "h", 64).unwrap();
        // Verify everything previously inserted is intact.
        for i in 0..inserted {
            assert_eq!(
                h.get(&mut th, &i.to_le_bytes()).unwrap().unwrap(),
                vec![(i % 256) as u8; 48],
                "entry {i} lost after crash {round}"
            );
        }
        for i in inserted..inserted + 50 {
            h.put(&mut th, &i.to_le_bytes(), &[(i % 256) as u8; 48])
                .unwrap();
        }
        inserted += 50;
        drop(th);
        m = m.crash_reboot(CrashPolicy::random(round + 100)).unwrap();
    }
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn async_mode_trees_survive_dropall_crash() {
    // Async truncation = data often still volatile at crash time; the
    // redo logs must carry the structures across.
    let d = dir("async");
    let m = Mnemosyne::builder(&d)
        .scm_size(64 << 20)
        .truncation(Truncation::Async)
        .open()
        .unwrap();
    {
        let mut th = m.register_thread().unwrap();
        let bpt = PBPlusTree::open(&m, &mut th, "bpt").unwrap();
        let rbt = PRbTree::open(&m, "rbt").unwrap();
        for i in 0..150u64 {
            bpt.insert(&mut th, i, &i.to_le_bytes()).unwrap();
            rbt.insert(&mut th, i, &[i as u8; 8]).unwrap();
        }
    }
    let m2 = m.crash_reboot(CrashPolicy::DropAll).unwrap();
    // The reboot's registry records the recovery itself: the redo logs
    // were scanned, and whatever the logs carried across was replayed —
    // the same numbers MtmStats reports.
    let snap = m2.telemetry().snapshot();
    assert!(snap.counter("rawl.recoveries") >= 1);
    assert_eq!(snap.counter("mtm.replayed"), m2.mtm().stats().replayed);
    assert!(snap.counter("rawl.recovered_records") >= snap.counter("mtm.replayed"));
    let mut th = m2.register_thread().unwrap();
    let bpt = PBPlusTree::open(&m2, &mut th, "bpt").unwrap();
    let rbt = PRbTree::open(&m2, "rbt").unwrap();
    assert_eq!(bpt.keys(&mut th).unwrap().len(), 150);
    assert_eq!(rbt.check_invariants(&mut th).unwrap(), 150);
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn heap_never_double_allocates_across_crashes() {
    let d = dir("heap");
    let mut m = Mnemosyne::builder(&d).scm_size(64 << 20).open().unwrap();
    let mut live: Vec<(u64, mnemosyne::VAddr)> = Vec::new();
    for round in 0..4u64 {
        let cells = m.pstatic("cells", 8 * 256).unwrap();
        let heap = m.heap().clone();
        // Check earlier allocations are still live and distinct.
        for &(_, a) in &live {
            assert!(heap.usable_size(a).is_some(), "allocation lost in crash");
        }
        for i in 0..40u64 {
            let slot = round * 40 + i;
            let a = heap.pmalloc(32, cells.add((slot % 256) * 8)).unwrap();
            assert!(
                !live.iter().any(|&(_, b)| b == a),
                "heap handed out a live block again after crash {round}"
            );
            live.push((slot, a));
        }
        m = m.crash_reboot(CrashPolicy::random(round + 77)).unwrap();
    }
    std::fs::remove_dir_all(&d).ok();
}

// --- Systematic crash-point sweep (the fault-injection harness) ------
//
// A seeded multi-cell update workload where every transaction moves all
// cells and the round counter together. After a crash at *any* durability
// primitive, the recovered state must correspond to exactly one committed
// round — a torn mixture of two rounds is the failure the redo logs exist
// to prevent.

const SWEEP_CELLS: u64 = 32;
const SWEEP_ROUNDS: u64 = 6;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

fn sweep_builder(p: &std::path::Path) -> mnemosyne::MnemosyneBuilder {
    Mnemosyne::builder(p)
        .scm_config(ScmConfig::for_testing(8 << 20))
        .truncation(Truncation::Sync)
}

fn sweep_workload(m: &Mnemosyne) -> Result<(), Error> {
    let area = m.pstatic("cells", SWEEP_CELLS * 8)?;
    let round_cell = m.pstatic("round", 8)?;
    let mut th = m.register_thread()?;
    for round in 1..=SWEEP_ROUNDS {
        th.atomic(|tx| {
            let mut x = lcg(round);
            for i in 0..SWEEP_CELLS {
                x = lcg(x);
                tx.write_u64(area.add(i * 8), x)?;
            }
            tx.write_u64(round_cell, round)?;
            Ok(())
        })?;
    }
    Ok(())
}

fn sweep_check(m: &Mnemosyne) -> Result<(), String> {
    let area = m
        .pstatic("cells", SWEEP_CELLS * 8)
        .map_err(|e| e.to_string())?;
    let round_cell = m.pstatic("round", 8).map_err(|e| e.to_string())?;
    let mut th = m.register_thread().map_err(|e| e.to_string())?;
    let r = th
        .atomic(|tx| tx.read_u64(round_cell))
        .map_err(|e| e.to_string())?;
    if r > SWEEP_ROUNDS {
        return Err(format!("recovered round {r} was never committed"));
    }
    let mut x = lcg(r);
    for i in 0..SWEEP_CELLS {
        x = lcg(x);
        let want = if r == 0 { 0 } else { x };
        let got = th
            .atomic(|tx| tx.read_u64(area.add(i * 8)))
            .map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!(
                "cell {i} = {got:#x}, want {want:#x} for committed round {r}"
            ));
        }
    }
    Ok(())
}

#[test]
fn sweep_200_distinct_crash_points_all_recover() {
    let d = dir("sweep200");
    let cfg = SweepConfig {
        max_points: 200,
        recovery_points: 0,
        policy: CrashPolicy::DropAll,
        keep_failing_dirs: true,
    };
    let report = crash_sweep(&d, &cfg, sweep_builder, sweep_workload, sweep_check).unwrap();
    assert!(
        report.passed(),
        "{} of {} crash points failed; first: {}",
        report.failures.len(),
        report.points_tested,
        report.failures[0]
    );
    assert!(
        report.points_tested >= 200,
        "only {} crash points covered ({} primitives)",
        report.points_tested,
        report.workload_primitives
    );
    assert!(report.crashes_fired >= 190, "report: {report}");
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn sweep_crashes_mid_recovery_and_still_recovers() {
    let d = dir("sweepdouble");
    let cfg = SweepConfig {
        max_points: 6,
        recovery_points: 3,
        policy: CrashPolicy::DropAll,
        keep_failing_dirs: true,
    };
    let report = crash_sweep(&d, &cfg, sweep_builder, sweep_workload, sweep_check).unwrap();
    assert!(
        report.passed(),
        "{} failures; first: {}",
        report.failures.len(),
        report.failures[0]
    );
    assert!(
        report.recovery_points_tested >= 12,
        "only {} mid-recovery crash points covered",
        report.recovery_points_tested
    );
    std::fs::remove_dir_all(&d).ok();
}

// --- Every crash point of single heap operations ---------------------
//
// One small and one large allocation, each anchored in its own
// persistent cell, then both frees: four heap operations, each an
// allocator-log append, its fence, the applied words and the
// truncation. The sweep crashes at every one of their primitives, so it
// reaches the window between a record's commit point and its applied
// words. A recovered cell must be null or hold a live block of its size,
// and freeing what the cells hold must leave the heap whole: no live
// small block, and the large area coalesced back into one chunk.

const HEAP_SMALL: u64 = 128;
const HEAP_LARGE: u64 = 64 << 10;

fn heap_sweep_builder(p: &std::path::Path) -> mnemosyne::MnemosyneBuilder {
    Mnemosyne::builder(p)
        .scm_config(ScmConfig::for_testing(2 << 20))
        .heap_sizes(256 << 10, 256 << 10)
        .max_threads(1)
        .log_words(1024)
        .truncation(Truncation::Sync)
}

fn heap_cells(m: &Mnemosyne) -> Result<[mnemosyne::VAddr; 2], Error> {
    let area = m.pstatic("heap-cells", 16)?;
    Ok([area, area.add(8)])
}

fn heap_sweep_workload(m: &Mnemosyne) -> Result<(), Error> {
    let [small, large] = heap_cells(m)?;
    let heap = m.heap();
    heap.pmalloc(HEAP_SMALL, small)?;
    heap.pmalloc(HEAP_LARGE, large)?;
    heap.pfree(small)?;
    heap.pfree(large)?;
    Ok(())
}

fn heap_sweep_check(m: &Mnemosyne) -> Result<(), String> {
    let cells = heap_cells(m).map_err(|e| e.to_string())?;
    let heap = m.heap();
    let pmem = m.pmem_handle();
    for (cell, size) in cells.into_iter().zip([HEAP_SMALL, HEAP_LARGE]) {
        let ptr = pmem.read_u64(cell);
        if ptr == 0 {
            continue;
        }
        match heap.usable_size(mnemosyne::VAddr(ptr)) {
            Some(got) if got == size => {}
            got => return Err(format!("{size}-byte cell holds {ptr:#x} ({got:?})")),
        }
        heap.pfree(cell)
            .map_err(|e| format!("freeing the recovered {size}-byte block: {e}"))?;
    }
    let occ = heap.small_occupancy();
    if occ.live_blocks != 0 {
        return Err(format!("small blocks leaked across the crash: {occ:?}"));
    }
    let whole = heap.large_capacity() - mnemosyne_pheap::large::CHUNK_HEADER;
    heap.pmalloc(whole, cells[1])
        .map_err(|e| format!("the large area did not coalesce into one chunk: {e}"))?;
    Ok(())
}

#[test]
fn every_crash_point_of_single_heap_operations_recovers() {
    let policies = [
        CrashPolicy::DropAll,
        CrashPolicy::random(1),
        CrashPolicy::random(2),
        CrashPolicy::random(3),
    ];
    for policy in policies {
        let d = dir("heapops");
        let cfg = SweepConfig {
            max_points: 1024,
            recovery_points: 0,
            policy,
            keep_failing_dirs: true,
        };
        let report = crash_sweep(
            &d,
            &cfg,
            heap_sweep_builder,
            heap_sweep_workload,
            heap_sweep_check,
        )
        .unwrap();
        assert!(
            report.passed(),
            "{policy:?}: {} of {} crash points failed; first: {}",
            report.failures.len(),
            report.points_tested,
            report.failures[0]
        );
        assert_eq!(
            report.points_tested as u64, report.workload_primitives,
            "{policy:?}: {report}"
        );
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn graceful_shutdown_then_crash_free_reopen() {
    let d = dir("mixed");
    {
        let m = Mnemosyne::builder(&d).scm_size(64 << 20).open().unwrap();
        let v = m.pstatic("x", 8).unwrap();
        let mut th = m.register_thread().unwrap();
        th.atomic(|tx| tx.write_u64(v, 1)).unwrap();
        drop(th);
        m.shutdown().unwrap();
    }
    // Reopen from files, update, crash, reboot from image.
    let m = Mnemosyne::builder(&d).scm_size(64 << 20).open().unwrap();
    let v = m.pstatic("x", 8).unwrap();
    let mut th = m.register_thread().unwrap();
    th.atomic(|tx| tx.write_u64(v, 2)).unwrap();
    drop(th);
    let m2 = m.crash_reboot(CrashPolicy::DropAll).unwrap();
    let v = m2.pstatic("x", 8).unwrap();
    let mut th = m2.register_thread().unwrap();
    assert_eq!(th.atomic(|tx| tx.read_u64(v)).unwrap(), 2);
    std::fs::remove_dir_all(&d).ok();
}
