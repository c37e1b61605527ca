//! A lookup allocates nothing: `phash` compares a chain node's key word by
//! word against the transaction's loads, so a batch of overwrites of
//! existing keys (what the service's combiner commits) runs without one
//! heap allocation once the thread's descriptor has grown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mnemosyne::Mnemosyne;
use mnemosyne_pds::PHashTable;

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
fn batched_overwrites_of_existing_keys_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("pds-phash-allocs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let m = Mnemosyne::builder(&dir).scm_size(32 << 20).open().unwrap();
    let mut th = m.register_thread().unwrap();
    // Few buckets, so every lookup walks a chain past other keys of the
    // same length.
    let h = PHashTable::open(&m, &mut th, "tbl", 8).unwrap();
    let keys: Vec<Vec<u8>> = (0..33u64)
        .map(|k| format!("user{k:012}").into_bytes())
        .collect();
    for k in &keys {
        h.put(&mut th, k, &[0; 64]).unwrap();
    }

    let mut batch = |value: &[u8; 64]| {
        th.atomic(|tx| {
            for k in &keys {
                h.put_in(tx, k, value)?;
            }
            Ok(())
        })
        .unwrap();
    };
    for round in 0..20u8 {
        batch(&[round; 64]);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 20..120u8 {
        batch(&[round; 64]);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "allocations in 100 batches of 33 overwrites");

    for k in &keys {
        assert_eq!(h.get(&mut th, k).unwrap().unwrap(), vec![119; 64]);
    }
    drop(th);
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}
