//! A steady-state transaction allocates nothing: the thread's descriptor
//! — write set, read set, lock set, redo record and flush lines — is
//! cleared and reused, never rebuilt.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mnemosyne_mtm::{MtmConfig, MtmRuntime};
use mnemosyne_region::{RegionManager, Regions};
use mnemosyne_scm::{ScmConfig, ScmSim};

/// Counts every allocation and reallocation made by the process.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees to this allocator are the ones `System` needs;
// the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller of `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller of `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator, and
        // `layout`/`new_size` are forwarded from the caller of `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_transaction_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("mtm-allocs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let sim = ScmSim::new(ScmConfig::for_testing(16 << 20));
    let mgr = RegionManager::boot(&sim, &dir).unwrap();
    let (regions, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
    let regions = Arc::new(regions);
    let line = regions.pmap("line", 4096, &pmem).unwrap().addr;
    let rt = MtmRuntime::open(&regions, MtmConfig::default()).unwrap();
    let mut th = rt.register_thread().unwrap();

    // Eight reads and eight writes of one cache line.
    let mut run = |n: u64| {
        for _ in 0..n {
            th.atomic(|tx| {
                for w in 0..8 {
                    let a = line.add(w * 8);
                    let v = tx.read_u64(a)?;
                    tx.write_u64(a, v + 1)?;
                }
                Ok(())
            })
            .unwrap();
        }
    };
    run(200);
    let before = ALLOCS.load(Ordering::Relaxed);
    run(1_000);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "allocations in 1 000 steady-state transactions");
    assert_eq!(pmem.read_u64(line), 1_200);

    drop(th);
    drop(rt);
    std::fs::remove_dir_all(&dir).ok();
}
