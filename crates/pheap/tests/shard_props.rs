//! Property tests for the heap under concurrent churn.
//!
//! Three threads interleave allocation with a random mix of immediate
//! frees and deferred frees — which the main thread later issues for
//! blocks other threads allocated — and the heap must never hand out the
//! same block twice. Freeing everything must return every superblock: no
//! block stays marked live and no superblock is stranded outside the
//! assigned + pooled census.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mnemosyne_pheap::{HeapConfig, PHeap};
use mnemosyne_region::{RegionManager, Regions};
use mnemosyne_scm::{ScmConfig, ScmSim};

const THREADS: usize = 3;

fn dir(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("pheap-prop-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// One worker's plan: `(size, free_immediately)` per allocation. Sizes
/// stay in the small-class range so the superblock census covers every
/// block the case touches.
type Plan = Vec<(u16, bool)>;

fn churn(plans: Vec<Plan>) {
    let d = dir("churn");
    std::fs::create_dir_all(&d).unwrap();
    let sim = ScmSim::new(ScmConfig::for_testing(32 << 20));
    let mgr = RegionManager::boot(&sim, &d).unwrap();
    let (regions, _pmem) = Regions::open(&mgr, 1 << 16).unwrap();
    let heap = Arc::new(PHeap::open(&regions, HeapConfig::default()).unwrap());

    let handles: Vec<_> = plans
        .into_iter()
        .map(|plan| {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                let mut kept = Vec::new();
                for (size, free_now) in plan {
                    let addr = heap.pmalloc_unanchored(size.max(1) as u64).unwrap();
                    if free_now {
                        heap.pfree_addr(addr).unwrap();
                    } else {
                        kept.push(addr);
                    }
                }
                kept
            })
        })
        .collect();
    let mut results = Vec::new();
    let mut panic = None;
    for h in handles {
        match h.join() {
            Ok(kept) => results.push(kept),
            Err(p) => panic = Some(p),
        }
    }
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }

    // No double allocation: every live pointer is unique, regardless of
    // which thread allocated it or whether its superblock was taken from
    // the pool mid-run.
    let total: usize = results.iter().map(Vec::len).sum();
    let distinct: HashSet<_> = results.iter().flatten().copied().collect();
    assert_eq!(distinct.len(), total, "allocator handed out a block twice");

    // Free every survivor from this (fourth) thread, then demand a
    // leak-free census: nothing live, every superblock accounted for.
    for addr in results.into_iter().flatten() {
        heap.pfree_addr(addr).unwrap();
    }
    let occ = heap.small_occupancy();
    assert_eq!(
        occ.live_blocks, 0,
        "blocks leaked after freeing all: {occ:?}"
    );
    assert_eq!(
        occ.owned_superblocks + occ.pooled_superblocks,
        occ.total_superblocks,
        "superblocks stranded: {occ:?}"
    );
    let stats = heap.stats();
    assert_eq!(stats.allocs, stats.frees, "alloc/free imbalance: {stats:?}");

    drop(heap);
    drop(sim);
    std::fs::remove_dir_all(&d).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn concurrent_churn_never_double_allocates_or_leaks(
        plans in proptest::collection::vec(
            proptest::collection::vec((1u16..2049, any::<bool>()), 1..48),
            THREADS..THREADS + 1,
        ),
    ) {
        churn(plans);
    }
}
