//! The Mnemosyne persistent heap (§4.3).
//!
//! `pmalloc`/`pfree` allocate durable memory whose allocation state itself
//! survives crashes: "memory can be allocated during one invocation and
//! freed during the next". Two allocators cooperate, as in the paper:
//!
//! * **small blocks** (≤ 4 KB) — a Hoard-derived superblock allocator
//!   ([`small`]): the heap is split into 8 KB superblocks, each holding an
//!   array of fixed-size blocks; the only *persistent* state per
//!   superblock is its block size and an allocation **bitmap vector**
//!   (stored in a separate area to limit corruption risk, per §4.3), so an
//!   allocation costs a single durable word write. Speed indexes are
//!   volatile and rebuilt by scavenging at startup;
//! * **large blocks** — a dlmalloc-style boundary-tag allocator
//!   ([`large`]) with logged header updates and coalescing on free. It
//!   also serves small requests once the superblock area is full.
//!
//! The heap has one shape. The small area is fixed at open; online growth
//! ([`PHeap::grow`]) adds large areas only, which small requests reach
//! through that fallback. One lock guards the whole heap: its one tornbit
//! RAWL allocator log, the small allocator and the large areas. Hoard's
//! per-processor arenas only serve scalability; DESIGN.md §7 ("one heap
//! lock") has the measurements that decided against them.
//!
//! Atomicity: every operation's word writes — the bitmap/header update
//! *and* the caller's destination pointer cell — are one redo record on
//! the allocator log, committed in the word-redo sequence of
//! [`mnemosyne_rawl::redo`] (DESIGN.md §5) with its two fences. Recovery
//! replays complete records, so the heap and the caller's pointer always
//! agree — the §3.4 anti-leak protocol.
//!
//! # Example
//!
//! ```
//! use mnemosyne_scm::{ScmSim, ScmConfig};
//! use mnemosyne_region::{RegionManager, Regions};
//! use mnemosyne_pheap::{PHeap, HeapConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join(format!("pheap-doc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir)?;
//! let sim = ScmSim::new(ScmConfig::for_testing(16 << 20));
//! let mgr = RegionManager::boot(&sim, &dir)?;
//! let (regions, pmem) = Regions::open(&mgr, 1 << 16)?;
//! let heap = PHeap::open(&regions, HeapConfig::default())?;
//!
//! // The destination pointer lives in persistent memory, so the chunk can
//! // never be leaked by a crash mid-allocation.
//! let (cell, _) = regions.static_area();
//! let block = heap.pmalloc(64, cell)?;
//! pmem.store_u64(block, 7);
//! heap.pfree(cell)?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod heap;
pub mod large;
pub mod small;

pub use error::HeapError;
pub use heap::{GrowStats, HeapConfig, HeapStats, PHeap, SmallOccupancy, MAX_EXT_AREAS};

/// Superblock size in bytes (Hoard's granularity; §4.3 uses 8 KB).
pub const SUPERBLOCK_BYTES: u64 = 8192;

/// Largest request served by the superblock allocator; larger requests
/// fall back to the large-object allocator.
pub const SMALL_MAX: u64 = 4096;
