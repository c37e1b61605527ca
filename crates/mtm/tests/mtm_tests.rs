//! Behavioural tests for durable memory transactions (§5, §6.2).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mnemosyne_mtm::{MtmConfig, MtmRuntime, Truncation, TxError};
use mnemosyne_pheap::{HeapConfig, PHeap};
use mnemosyne_rawl::{LogError, TornbitLog};
use mnemosyne_region::{RegionManager, Regions, VAddr};
use mnemosyne_scm::{CrashPolicy, ScmConfig, ScmSim};

struct Env {
    sim: ScmSim,
    dir: PathBuf,
}

impl Drop for Env {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.dir).ok();
    }
}

fn setup(tag: &str) -> (Env, Arc<Regions>) {
    let dir = std::env::temp_dir().join(format!(
        "mtm-{}-{}-{:?}",
        tag,
        std::process::id(),
        std::thread::current().id()
    ));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    let sim = ScmSim::new(ScmConfig::for_testing(64 << 20));
    let mgr = RegionManager::boot(&sim, &dir).unwrap();
    let (regions, _pmem) = Regions::open(&mgr, 1 << 16).unwrap();
    (Env { sim, dir }, Arc::new(regions))
}

fn reopen(env: &Env, dir: &Path) -> Arc<Regions> {
    reopen_from(env.sim.image(), dir)
}

/// Boots a fresh machine from a media image captured at crash time — the
/// moment the "machine died". Anything the old process does afterwards
/// (e.g. destructors) cannot affect this image, just as a real crash ends
/// the process.
fn reopen_from(img: Vec<u8>, dir: &Path) -> Arc<Regions> {
    let sim2 = ScmSim::from_image(&img, ScmConfig::for_testing(64 << 20));
    let mgr2 = RegionManager::boot(&sim2, dir).unwrap();
    let (regions, _pmem) = Regions::open(&mgr2, 1 << 16).unwrap();
    Arc::new(regions)
}

#[test]
fn committed_transaction_survives_crash_sync() {
    let (env, regions) = setup("sync");
    let (base, _) = regions.static_area();
    {
        let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
        let mut th = rt.register_thread().unwrap();
        th.atomic(|tx| {
            tx.write_u64(base, 1111)?;
            tx.write_u64(base.add(8), 2222)?;
            Ok(())
        })
        .unwrap();
    }
    env.sim.crash(CrashPolicy::DropAll);
    let regions2 = reopen(&env, &env.dir.clone());
    let rt2 = MtmRuntime::open(&regions2, MtmConfig::default()).unwrap();
    let pmem = regions2.pmem_handle();
    assert_eq!(pmem.read_u64(base), 1111);
    assert_eq!(pmem.read_u64(base.add(8)), 2222);
    drop(rt2);
}

#[test]
fn committed_transaction_replayed_after_crash_async() {
    let (env, regions) = setup("async");
    let (base, _) = regions.static_area();
    let img = {
        let rt = MtmRuntime::open(
            &regions,
            MtmConfig::default().with_truncation(Truncation::Async),
        )
        .unwrap();
        let mut th = rt.register_thread().unwrap();
        // Commit returns as soon as the LOG is durable; the data itself
        // may still be sitting in the cache.
        th.atomic(|tx| {
            for i in 0..20u64 {
                tx.write_u64(base.add(i * 8), i * 100)?;
            }
            Ok(())
        })
        .unwrap();
        // Kill the process (stop background threads at the failure
        // point), then crash: drop every cached line. The redo record is
        // in SCM (fenced), so recovery must replay it unless the manager
        // already forced the data out.
        rt.kill();
        env.sim.crash(CrashPolicy::DropAll);
        env.sim.image()
    };
    let regions2 = reopen_from(img, &env.dir.clone());
    let rt2 = MtmRuntime::open(&regions2, MtmConfig::default()).unwrap();
    let pmem = regions2.pmem_handle();
    for i in 0..20u64 {
        assert_eq!(pmem.read_u64(base.add(i * 8)), i * 100, "word {i}");
    }
    // At least one transaction (possibly replayed already by the manager
    // thread before the crash) should have been replayed or persisted.
    let _ = rt2.stats();
}

#[test]
fn cancelled_transaction_rolls_back() {
    let (_env, regions) = setup("cancel");
    let (base, _) = regions.static_area();
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut th = rt.register_thread().unwrap();
    th.atomic(|tx| tx.write_u64(base, 5)).unwrap();
    let r: Result<(), TxError> = th.atomic(|tx| {
        tx.write_u64(base, 999)?;
        Err(tx.cancel())
    });
    assert!(matches!(r, Err(TxError::Cancelled)));
    let v = th.atomic(|tx| tx.read_u64(base)).unwrap();
    assert_eq!(v, 5, "cancelled writes must not be visible");
    assert!(rt.stats().aborts >= 1);
}

#[test]
fn read_own_writes() {
    let (_env, regions) = setup("rot");
    let (base, _) = regions.static_area();
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut th = rt.register_thread().unwrap();
    th.atomic(|tx| {
        tx.write_u64(base, 42)?;
        assert_eq!(tx.read_u64(base)?, 42);
        tx.write_u64(base, 43)?;
        assert_eq!(tx.read_u64(base)?, 43);
        Ok(())
    })
    .unwrap();
}

/// The first two words from `base` that one lock stripe covers. A stripe
/// is 32 aligned bytes, so from a 32-byte-aligned `base` these are its
/// first two words.
fn aliasing_pair(rt: &MtmRuntime, base: VAddr, words: u64) -> (VAddr, VAddr) {
    let mut seen = std::collections::HashMap::new();
    for w in 0..words {
        let a = base.add(w * 8);
        if let Some(&first) = seen.get(&rt.locks().index_of(a)) {
            return (first, a);
        }
        seen.insert(rt.locks().index_of(a), a);
    }
    panic!("no two of {words} words share a lock stripe");
}

#[test]
fn aliased_stripe_reads_memory_not_the_write_set() {
    let (_env, regions) = setup("alias");
    let pmem = regions.pmem_handle();
    let len = 4096u64;
    let area = regions.pmap("alias", len, &pmem).unwrap().addr;
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut th = rt.register_thread().unwrap();
    let (a, b) = aliasing_pair(&rt, area, len / 8);
    th.atomic(|tx| {
        tx.write_u64(a, 1)?;
        tx.write_u64(b, 2)
    })
    .unwrap();
    // Every word of A's and B's lines, once each (they may share one).
    let mut words: Vec<VAddr> = [a, b]
        .iter()
        .flat_map(|w| (0..8).map(move |i| VAddr(w.0 & !63).add(i * 8)))
        .collect();
    words.sort_unstable();
    words.dedup();
    let before: Vec<u64> = words.iter().map(|&w| pmem.read_u64(w)).collect();

    // Writing A takes the stripe B shares; B must still read memory.
    th.atomic(|tx| {
        tx.write_u64(a, 7)?;
        assert_eq!(tx.read_u64(b)?, 2, "B read A's buffered value");
        assert_eq!(tx.read_u64(a)?, 7);
        Ok(())
    })
    .unwrap();

    let changed: Vec<VAddr> = words
        .iter()
        .zip(&before)
        .filter(|&(&w, &old)| pmem.read_u64(w) != old)
        .map(|(&w, _)| w)
        .collect();
    assert_eq!(
        changed,
        vec![a],
        "the commit must change only A in A's and B's lines"
    );
    assert_eq!(pmem.read_u64(a), 7);
}

#[test]
fn cancelled_conflicted_and_unwound_transactions_leave_nothing_behind() {
    let (_env, regions) = setup("reset");
    let pmem = regions.pmem_handle();
    let area = regions.pmap("reset", 4096, &pmem).unwrap().addr;
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut th = rt.register_thread().unwrap();
    let mut other = rt.register_thread().unwrap();
    // One word per line: read-from (x, r), written-by-the-failed (z, u)
    // and written-next (y, v), on six distinct stripes.
    let [x, y, z, r, u, v] = [0u64, 1, 2, 3, 4, 5].map(|i| area.add(i * 64));
    let stripes: std::collections::HashSet<usize> = [x, y, z, r, u, v]
        .iter()
        .map(|&w| rt.locks().index_of(w))
        .collect();
    assert_eq!(stripes.len(), 6);

    // A read left in the descriptor would fail the next commit once
    // `other` moves the word on; a write left in it would be committed.
    // The next transaction cancels instead of retrying, so a leftover
    // fails the test rather than looping.
    let next_commits_cleanly = |th: &mut mnemosyne_mtm::TxThread, w: VAddr, val: u64| {
        let mut attempts = 0;
        let committed = th.atomic(|tx| {
            attempts += 1;
            if attempts > 1 {
                return Err(tx.cancel());
            }
            tx.write_u64(w, val)
        });
        assert!(committed.is_ok(), "the next transaction aborted");
        assert_eq!(pmem.read_u64(w), val);
    };

    // Cancelled.
    let cancelled: Result<(), TxError> = th.atomic(|tx| {
        tx.read_u64(x)?;
        tx.write_u64(z, 666)?;
        Err(tx.cancel())
    });
    assert!(matches!(cancelled, Err(TxError::Cancelled)));
    other.atomic(|tx| tx.write_u64(x, 1)).unwrap();
    next_commits_cleanly(&mut th, y, 1);
    assert_eq!(pmem.read_u64(z), 0, "a cancelled write was committed");

    // Conflicted: the first attempt reads x, `other` commits x, and the
    // attempt's commit fails validation; the retry writes y alone.
    let mut attempts = 0;
    th.atomic(|tx| {
        attempts += 1;
        if attempts == 1 {
            tx.read_u64(x)?;
            other.atomic(|tx| tx.write_u64(x, 2)).unwrap();
            tx.write_u64(z, 666)?;
        }
        tx.write_u64(y, 2)
    })
    .unwrap();
    assert_eq!(attempts, 2);
    assert_eq!(
        pmem.read_u64(z),
        0,
        "a conflicted attempt's write was committed"
    );
    other.atomic(|tx| tx.write_u64(x, 3)).unwrap();
    next_commits_cleanly(&mut th, y, 3);

    // Unwound: the closure panics with a read and a write recorded.
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        th.atomic(|tx| -> Result<(), _> {
            tx.read_u64(r)?;
            tx.write_u64(u, 666)?;
            panic!("transaction body panics")
        })
    }));
    assert!(unwound.is_err());
    other.atomic(|tx| tx.write_u64(r, 4)).unwrap();
    next_commits_cleanly(&mut th, v, 4);
    assert_eq!(pmem.read_u64(u), 0, "an unwound write was committed");
}

#[test]
fn byte_granularity_accessors() {
    let (_env, regions) = setup("bytes");
    let (base, _) = regions.static_area();
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut th = rt.register_thread().unwrap();
    let data: Vec<u8> = (0..=255).collect();
    th.atomic(|tx| tx.write_bytes(base.add(3), &data)).unwrap();
    let out = th
        .atomic(|tx| {
            let mut buf = vec![0u8; 256];
            tx.read_bytes(base.add(3), &mut buf)?;
            Ok(buf)
        })
        .unwrap();
    assert_eq!(out, data);
}

#[test]
fn concurrent_counter_is_exact() {
    let (_env, regions) = setup("conc");
    let (base, _) = regions.static_area();
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    const THREADS: usize = 4;
    const PER: u64 = 500;
    let mut joins = Vec::new();
    for _ in 0..THREADS {
        let mut th = rt.register_thread().unwrap();
        joins.push(std::thread::spawn(move || {
            for _ in 0..PER {
                th.atomic(|tx| {
                    let v = tx.read_u64(base)?;
                    tx.write_u64(base, v + 1)?;
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let mut th = rt.register_thread().unwrap();
    let v = th.atomic(|tx| tx.read_u64(base)).unwrap();
    assert_eq!(v, THREADS as u64 * PER, "lost updates under contention");
    assert_eq!(rt.stats().commits, THREADS as u64 * PER + 1);
}

#[test]
fn neighbouring_words_of_one_stripe_from_two_threads_lose_no_update() {
    let (_env, regions) = setup("stripe");
    let pmem = regions.pmem_handle();
    let stripe = regions.pmap("stripe", 4096, &pmem).unwrap().addr;
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    assert_eq!(
        rt.locks().index_of(stripe),
        rt.locks().index_of(stripe.add(8))
    );
    const PER: u64 = 2_000;
    let start = Arc::new(std::sync::Barrier::new(2));
    let joins: Vec<_> = (0..2u64)
        .map(|t| {
            let mut th = rt.register_thread().unwrap();
            let start = Arc::clone(&start);
            let word = stripe.add(t * 8);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..PER {
                    th.atomic(|tx| {
                        let v = tx.read_u64(word)?;
                        tx.write_u64(word, v + 1)
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    // Each false conflict on the shared lock backs off and retries.
    assert_eq!(pmem.read_u64(stripe), PER);
    assert_eq!(pmem.read_u64(stripe.add(8)), PER);
    assert_eq!(rt.stats().commits, 2 * PER);
}

#[test]
fn disjoint_threads_commit_in_parallel() {
    let (_env, regions) = setup("disj");
    let (base, _) = regions.static_area();
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let mut th = rt.register_thread().unwrap();
        joins.push(std::thread::spawn(move || {
            for i in 0..200u64 {
                th.atomic(|tx| tx.write_u64(base.add((t * 200 + i) * 8), t))
                    .unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // Disjoint address ranges: each thread's 1 600 bytes start on a
    // stripe boundary, so no lock is shared.
    let stats = rt.stats();
    assert_eq!(stats.commits, 800);
}

#[test]
fn thread_slots_are_bounded_and_recycled() {
    let (_env, regions) = setup("slots");
    let rt = MtmRuntime::open(&regions, MtmConfig::default().with_max_threads(2)).unwrap();
    let a = rt.register_thread().unwrap();
    let _b = rt.register_thread().unwrap();
    assert!(matches!(rt.register_thread(), Err(TxError::NoThreadSlots)));
    drop(a);
    let _c = rt.register_thread().unwrap();
}

#[test]
fn tx_pmalloc_commit_and_abort() {
    let (_env, regions) = setup("heap");
    let heap = Arc::new(
        PHeap::open(&regions, HeapConfig::default().with_sizes(1 << 20, 1 << 20)).unwrap(),
    );
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    rt.attach_heap(Arc::clone(&heap));
    let (anchor, _) = regions.static_area();
    let mut th = rt.register_thread().unwrap();

    // Committed allocation, anchored transactionally (Figure 3 pattern).
    let addr = th
        .atomic(|tx| {
            let a = tx.pmalloc(64)?;
            tx.write_u64(a, 0xfeed)?;
            tx.write_u64(anchor, a.0)?;
            Ok(a)
        })
        .unwrap();
    assert_eq!(heap.usable_size(addr), Some(64));

    // Aborted allocation is released.
    let before = heap.stats();
    let r: Result<(), TxError> = th.atomic(|tx| {
        let _a = tx.pmalloc(64)?;
        Err(tx.cancel())
    });
    assert!(r.is_err());
    let after = heap.stats();
    assert_eq!(after.allocs - before.allocs, after.frees - before.frees);

    // Deferred free applies only on commit.
    th.atomic(|tx| {
        let a = VAddr(tx.read_u64(anchor)?);
        tx.pfree(a);
        tx.write_u64(anchor, 0)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(heap.usable_size(addr), None);
}

#[test]
fn isolation_no_dirty_reads() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const MIN_CHECKS: u64 = 100;

    let (_env, regions) = setup("iso");
    let (base, _) = regions.static_area();
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    // A reader racing a writer must see either the pre-state or the
    // post-state of a 2-word invariant (a == b), never a mix.
    let mut w = rt.register_thread().unwrap();
    let mut write_both = |v: u64| {
        w.atomic(|tx| {
            tx.write_u64(base, v)?;
            tx.write_u64(base.add(8), v)
        })
        .unwrap();
    };
    write_both(7);
    let stop = Arc::new(AtomicBool::new(false));
    let checks = Arc::new(AtomicU64::new(0));
    let mut r = rt.register_thread().unwrap();
    let reader = {
        let (stop, checks) = (Arc::clone(&stop), Arc::clone(&checks));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let (a, b) = r
                    .atomic(|tx| Ok((tx.read_u64(base)?, tx.read_u64(base.add(8))?)))
                    .unwrap();
                assert_eq!(a, b, "isolation violated: {a} != {b}");
                checks.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    // Minimum-progress handshake: the writer keeps committing until the
    // reader has completed enough checks against a moving target, however
    // the two threads happen to be scheduled.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut v = 8;
    while (v < 200 || checks.load(Ordering::Relaxed) < MIN_CHECKS)
        && std::time::Instant::now() < deadline
    {
        write_both(v);
        v += 1;
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    let checks = checks.load(Ordering::Relaxed);
    assert!(
        checks >= MIN_CHECKS,
        "reader finished only {checks} of {MIN_CHECKS} checks in 60 s against {v} commits"
    );
}

#[test]
fn replay_respects_timestamp_order() {
    let (env, regions) = setup("order");
    let (base, _) = regions.static_area();
    let img = {
        let rt = MtmRuntime::open(
            &regions,
            MtmConfig::default().with_truncation(Truncation::Async),
        )
        .unwrap();
        // Two different thread slots write the same word in sequence; the
        // records land in *different* per-thread logs and only the global
        // timestamp orders them.
        let mut t1 = rt.register_thread().unwrap();
        let mut t2 = rt.register_thread().unwrap();
        t1.atomic(|tx| tx.write_u64(base, 1)).unwrap();
        t2.atomic(|tx| tx.write_u64(base, 2)).unwrap();
        t1.atomic(|tx| tx.write_u64(base, 3)).unwrap();
        rt.kill();
        env.sim.crash(CrashPolicy::DropAll);
        env.sim.image()
    };
    let regions2 = reopen_from(img, &env.dir.clone());
    let _rt2 = MtmRuntime::open(&regions2, MtmConfig::default()).unwrap();
    let pmem = regions2.pmem_handle();
    assert_eq!(pmem.read_u64(base), 3, "replay must apply ts order");
}

/// Recovery checks every redo record before it replays any: a record that
/// passes its checksum but is malformed is typed corruption, and the
/// older, well-formed record in front of it is not replayed either.
#[test]
fn malformed_redo_records_are_refused_before_any_replay() {
    let (_env, regions) = setup("malformed");
    let pmem = regions.pmem_handle();
    let (cell, _) = regions.static_area();
    drop(MtmRuntime::open(&regions, MtmConfig::default()).unwrap());
    // Mapped after the logs, so no later region reuses its range.
    let gone = regions.pmap("gone", 4096, &pmem).unwrap().addr;
    regions.punmap("gone", &pmem).unwrap();
    let log0 = regions.find("mtm.log0").unwrap().addr;
    let logged = |records: &[&[u64]]| {
        let (mut log, _) = TornbitLog::recover(regions.pmem_handle(), log0).unwrap();
        log.truncate_all();
        for rec in records {
            log.append(rec).unwrap();
        }
        log.flush();
    };
    // [ts, (addr, val)*]: an even length cuts a pair.
    for bad in [&[2, cell.0, 9, cell.0][..], &[2, gone.0, 9]] {
        logged(&[&[1, cell.0, 7], bad]);
        let err = MtmRuntime::open(&regions, MtmConfig::default()).unwrap_err();
        assert!(
            matches!(err, TxError::Log(LogError::Corrupt { .. })),
            "{bad:?}: {err}"
        );
        assert_eq!(pmem.read_u64(cell), 0, "{bad:?}: a record was replayed");
    }
    logged(&[&[1, cell.0, 7]]);
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    assert_eq!(rt.recovery_stats().replayed, 1);
    assert_eq!(pmem.read_u64(cell), 7);
}

#[test]
fn large_write_sets_commit() {
    let (_env, regions) = setup("big");
    let (base, _) = regions.static_area();
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut th = rt.register_thread().unwrap();
    th.atomic(|tx| {
        for i in 0..512u64 {
            tx.write_u64(base.add(i * 8), i)?;
        }
        Ok(())
    })
    .unwrap();
    let sum = th
        .atomic(|tx| {
            let mut s = 0u64;
            for i in 0..512u64 {
                s += tx.read_u64(base.add(i * 8))?;
            }
            Ok(s)
        })
        .unwrap();
    assert_eq!(sum, (0..512).sum::<u64>());
}

#[test]
fn sync_mode_truncates_log_each_commit() {
    let (_env, regions) = setup("trunc");
    let (base, _) = regions.static_area();
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut th = rt.register_thread().unwrap();
    // Far more commits than the log could hold without truncation.
    for i in 0..2000u64 {
        th.atomic(|tx| tx.write_u64(base, i)).unwrap();
    }
    assert_eq!(th.atomic(|tx| tx.read_u64(base)).unwrap(), 1999);
}
