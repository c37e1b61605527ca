//! Crash-point sweep over *concurrent* allocation on the heap.
//!
//! Three worker threads allocate into their own rows of persistent cells
//! and free half of their blocks; the main thread then frees the blocks
//! the workers allocated and kept, and anchors a final batch that must
//! survive. The sweep kills the machine at every durability primitive
//! along the way: allocator-log appends, superblock metadata writes, cell
//! stores, and frees from a thread other than the allocating one are all
//! crash targets.
//!
//! The invariant accepts any crash-consistent prefix: a cell is either
//! zero or holds a pointer the recovered heap recognises, no two cells
//! alias one block, and once every surviving pointer is freed the
//! small-area census must show zero live blocks with every superblock
//! either assigned or pooled.
//!
//! No barriers anywhere in the workload: once a fault plan fires, every
//! thread dies at its *next* primitive, so a thread parked on a barrier
//! waiting for a dead peer would hang the sweep.

use std::path::PathBuf;
use std::sync::Arc;

use mnemosyne::{crash_sweep, CrashPolicy, Error, Mnemosyne, ScmConfig, SweepConfig, Truncation};

const THREADS: u64 = 3;
const PER_THREAD: u64 = 8;
const BLOCK: u64 = 48;

fn dir(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let d = std::env::temp_dir().join(format!("it-shard-{tag}-{}-{n}-{t:08x}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn builder(p: &std::path::Path) -> mnemosyne::MnemosyneBuilder {
    Mnemosyne::builder(p)
        .scm_config(ScmConfig::virtual_clock(16 << 20))
        .truncation(Truncation::Sync)
}

fn cells(m: &Mnemosyne) -> Result<mnemosyne::VAddr, Error> {
    m.pstatic("shard-cells", THREADS * PER_THREAD * 8)
}

fn workload(m: &Mnemosyne) -> Result<(), Error> {
    let area = cells(m)?;
    let heap = Arc::clone(m.heap());

    // Phase 1 (concurrent): each worker fills its own cell row, then
    // frees its even-indexed blocks.
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || -> Result<(), Error> {
                for i in 0..PER_THREAD {
                    heap.pmalloc(BLOCK, area.add((t * PER_THREAD + i) * 8))?;
                }
                for i in (0..PER_THREAD).step_by(2) {
                    heap.pfree(area.add((t * PER_THREAD + i) * 8))?;
                }
                Ok(())
            })
        })
        .collect();
    let mut outcomes = Vec::new();
    let mut panic = None;
    for h in handles {
        match h.join() {
            Ok(r) => outcomes.push(r),
            Err(p) => panic = Some(p),
        }
    }
    // An injected crash unwinds as a panic carrying `CrashRequested`;
    // re-raise it so the sweep classifies the point as fired, not failed.
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    for r in outcomes {
        r?;
    }

    // Phase 2: the main thread frees the workers' surviving odd-indexed
    // blocks.
    for t in 0..THREADS {
        for i in (1..PER_THREAD).step_by(2) {
            heap.pfree(area.add((t * PER_THREAD + i) * 8))?;
        }
    }

    // Phase 3: reallocate one block per row; these must survive a clean
    // shutdown (the baseline pass checks the full-completion image).
    for t in 0..THREADS {
        heap.pmalloc(BLOCK, area.add(t * PER_THREAD * 8))?;
    }
    Ok(())
}

fn check(m: &Mnemosyne) -> Result<(), String> {
    let area = cells(m).map_err(|e| e.to_string())?;
    let heap = m.heap();
    let mut live = Vec::new();
    let mut th = m.register_thread().map_err(|e| e.to_string())?;
    for slot in 0..THREADS * PER_THREAD {
        let cell = area.add(slot * 8);
        let ptr = th
            .atomic(|tx| tx.read_u64(cell))
            .map_err(|e| e.to_string())?;
        if ptr == 0 {
            continue;
        }
        let addr = mnemosyne::VAddr(ptr);
        match heap.usable_size(addr) {
            Some(sz) if sz >= BLOCK => live.push((cell, addr)),
            Some(sz) => return Err(format!("cell {slot}: block too small ({sz} < {BLOCK})")),
            None => return Err(format!("cell {slot}: dangling pointer {addr:?}")),
        }
    }
    drop(th);
    for (i, (_, a)) in live.iter().enumerate() {
        for (_, b) in &live[i + 1..] {
            if a == b {
                return Err(format!("two cells alias block {a:?}"));
            }
        }
    }
    // Freeing every anchored pointer must drain the heap completely:
    // alloc and cell-anchor commit atomically through the allocator log, so
    // a recovered block without a cell (a leak) is a protocol violation.
    for (cell, _) in live {
        heap.pfree(cell)
            .map_err(|e| format!("freeing recovered block: {e}"))?;
    }
    let occ = heap.small_occupancy();
    if occ.live_blocks != 0 {
        return Err(format!("blocks leaked across crash: {occ:?}"));
    }
    if occ.owned_superblocks + occ.pooled_superblocks != occ.total_superblocks {
        return Err(format!("superblocks stranded across crash: {occ:?}"));
    }
    Ok(())
}

#[test]
fn sweep_concurrent_sharded_alloc_free_all_points_recover() {
    let d = dir("sweep");
    let cfg = SweepConfig {
        max_points: 72,
        recovery_points: 0,
        policy: CrashPolicy::DropAll,
        keep_failing_dirs: true,
    };
    let report = crash_sweep(&d, &cfg, builder, workload, check).unwrap();
    assert!(
        report.passed(),
        "{} of {} crash points failed; first: {}",
        report.failures.len(),
        report.points_tested,
        report.failures[0]
    );
    assert!(
        report.points_tested >= 48,
        "only {} crash points covered ({} primitives)",
        report.points_tested,
        report.workload_primitives
    );
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn sweep_sharded_heap_survives_crash_during_parallel_recovery() {
    let d = dir("sweepdouble");
    let cfg = SweepConfig {
        max_points: 5,
        recovery_points: 3,
        policy: CrashPolicy::DropAll,
        keep_failing_dirs: true,
    };
    let report = crash_sweep(&d, &cfg, builder, workload, check).unwrap();
    assert!(
        report.passed(),
        "{} failures; first: {}",
        report.failures.len(),
        report.failures[0]
    );
    assert!(report.recovery_points_tested > 0, "report: {report}");
    std::fs::remove_dir_all(&d).ok();
}
