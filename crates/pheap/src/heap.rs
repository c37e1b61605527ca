//! The persistent heap front end: `pmalloc`/`pfree` with logged atomicity.
//!
//! One lock guards the whole heap state — the allocator log, the small
//! allocator and the large areas — so an operation takes the lock, builds
//! its word writes and commits them as one unstamped word-redo record
//! ([`mnemosyne_rawl::redo`], DESIGN.md §5) with two fences (§4.3). The
//! lock is also what keeps the allocator log single-producer.

use std::time::Instant;

use parking_lot::Mutex;

use mnemosyne_obs::{Counter, Histogram, Telemetry, Unit};
use mnemosyne_rawl::redo::{self, WordWrite};
use mnemosyne_rawl::TornbitLog;
use mnemosyne_region::{Regions, VAddr};

use crate::error::HeapError;
use crate::large::LargeAlloc;
use crate::small::{class_of, SmallAlloc, SmallLayout};

/// Heap header magic ("PHEAPHD2"), stored in the first word of the small
/// region; written last during formatting so a torn format is re-run. The
/// second header word is reserved and written as 1 (the one allocator log
/// `pheap.log0`). The third header word counts committed **extension
/// areas** ([`PHeap::grow`]); heaps written before online growth existed
/// read zero there (backing pages are zero-filled), so they open
/// unchanged.
const HEAP_MAGIC: u64 = u64::from_le_bytes(*b"PHEAPHD2");

/// Hard cap on extension areas (bounds the header word a recovery will
/// trust, and keeps region-table usage sane).
pub const MAX_EXT_AREAS: u64 = 64;

/// Allocator-log capacity in words. An operation's record is a few dozen
/// words and the log is emptied after every operation.
const LOG_WORDS: u64 = 4096;

/// Configuration for [`PHeap::open`]. The heap's regions are named
/// `pheap.*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapConfig {
    /// Bytes for the small-object area (superblocks + bitmaps).
    pub small_bytes: u64,
    /// Bytes for the large-object area.
    pub large_bytes: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            small_bytes: 4 << 20,
            large_bytes: 4 << 20,
        }
    }
}

impl HeapConfig {
    /// Overrides the area sizes.
    pub fn with_sizes(mut self, small: u64, large: u64) -> Self {
        self.small_bytes = small;
        self.large_bytes = large;
        self
    }
}

/// A census of the small area's superblocks, from
/// [`PHeap::small_occupancy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmallOccupancy {
    /// Blocks currently allocated.
    pub live_blocks: u64,
    /// Superblocks assigned to a size class.
    pub owned_superblocks: usize,
    /// Fully empty superblocks in the pool.
    pub pooled_superblocks: usize,
    /// Superblocks the small area holds in total.
    pub total_superblocks: usize,
}

/// What one [`PHeap::grow`] call added, for reporting over the admin wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrowStats {
    /// Bytes the new extension area contributes (page-rounded).
    pub grown_bytes: u64,
    /// Total large-area capacity after the grow (base + all extensions).
    pub large_capacity: u64,
}

/// Counters describing heap activity on this machine: the `pheap.*`
/// registry counters, shared by every heap opened over the same regions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Successful `pmalloc` calls.
    pub allocs: u64,
    /// Successful `pfree` calls.
    pub frees: u64,
    /// Allocations served by the superblock allocator.
    pub small_allocs: u64,
    /// Allocations served by the large-object allocator.
    pub large_allocs: u64,
    /// Redo records replayed by recovery.
    pub replayed: u64,
}

/// `pheap.*` telemetry in the machine's registry: the only count of heap
/// events. [`HeapStats`] reads five of them; the fallback path, growth
/// and the §6.3.2 scavenge cost are registry-only.
struct HeapMetrics {
    allocs: Counter,
    frees: Counter,
    /// Allocations served from Hoard-style superblocks.
    superblock_allocs: Counter,
    large_allocs: Counter,
    /// Small requests that fell back to the large allocator because the
    /// superblock area was exhausted (also counted in `large_allocs`).
    fallback_allocs: Counter,
    replayed: Counter,
    /// Successful online [`PHeap::grow`] calls.
    grows: Counter,
    /// Bytes of large-area capacity added by online growth.
    grow_bytes: Counter,
    /// Time spent rebuilding volatile indexes at open (§6.3.2).
    scavenge_ns: Histogram,
}

impl HeapMetrics {
    fn new(telemetry: &Telemetry) -> HeapMetrics {
        HeapMetrics {
            allocs: telemetry.counter("pheap.allocs", Unit::Count),
            frees: telemetry.counter("pheap.frees", Unit::Count),
            superblock_allocs: telemetry.counter("pheap.superblock_allocs", Unit::Count),
            large_allocs: telemetry.counter("pheap.large_allocs", Unit::Count),
            fallback_allocs: telemetry.counter("pheap.fallback_allocs", Unit::Count),
            replayed: telemetry.counter("pheap.replayed", Unit::Count),
            grows: telemetry.counter("pheap.grows", Unit::Count),
            grow_bytes: telemetry.counter("pheap.grow_bytes", Unit::Bytes),
            scavenge_ns: telemetry.histogram("pheap.scavenge_ns", Unit::Nanoseconds),
        }
    }
}

/// Everything the heap lock guards.
struct HeapState {
    /// The allocator log; its producer is whoever holds the lock.
    log: TornbitLog,
    small: SmallAlloc,
    /// The base large area, then the committed extension areas.
    large: Vec<LargeAlloc>,
    /// An operation's word writes, their redo record and the lines they
    /// touch: buffers every operation reuses.
    writes: Vec<WordWrite>,
    record: Vec<u64>,
    lines: Vec<u64>,
}

impl HeapState {
    fn large_capacity(&self) -> u64 {
        self.large.iter().map(LargeAlloc::capacity).sum()
    }

    /// Commits `writes` — the §4.3 atomicity protocol, in the word-redo
    /// sequence of DESIGN.md §5: append and fence (**the commit point**),
    /// then [`HeapState::redo_writes`]. The log is empty on entry, so an
    /// append can fail only with `RecordTooLarge`.
    fn commit(&mut self) -> Result<(), HeapError> {
        redo::encode(&mut self.record, None, &self.writes);
        self.log.append(&self.record)?;
        self.log.flush();
        self.redo_writes();
        Ok(())
    }

    /// Writes back and forces `writes`, then truncates the log with the
    /// closing fence (free when it is empty): what follows the commit
    /// point, all of replay, and a format's durable stores.
    fn redo_writes(&mut self) {
        redo::write_back(self.log.pmem(), &self.writes);
        redo::force(
            self.log.pmem(),
            self.writes.iter().copied(),
            &mut self.lines,
        );
        self.log.truncate_fenced();
    }
}

/// The persistent heap. `Sync`: every operation runs under its one lock.
pub struct PHeap {
    state: Mutex<HeapState>,
    header: VAddr,
    metrics: HeapMetrics,
}

impl std::fmt::Debug for PHeap {
    /// Lock-free: reads the registry counters, so formatting can never
    /// deadlock or serialise against allocation.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PHeap")
            .field("stats", &self.stats())
            .finish()
    }
}

impl PHeap {
    /// Opens (or creates) the heap described by `config`:
    ///
    /// 1. maps the small and large areas and the allocator log;
    /// 2. on first run, formats them and publishes the header magic;
    /// 3. otherwise **replays** the allocator log, then **scavenges** the
    ///    superblock metadata and the large chunk chains (the base area
    ///    and every committed extension area) to rebuild the volatile
    ///    indexes (§4.3, §6.3.2).
    ///
    /// Everything runs on the calling thread.
    ///
    /// # Errors
    /// Fails on region exhaustion, log corruption, or a corrupt chunk
    /// chain.
    pub fn open(regions: &Regions, config: HeapConfig) -> Result<PHeap, HeapError> {
        let pmem = regions.pmem_handle();
        let small_r = regions.pmap("pheap.small", config.small_bytes, &pmem)?;
        let large_r = regions.pmap("pheap.large", config.large_bytes, &pmem)?;
        let log_bytes = mnemosyne_rawl::LOG_HEADER_BYTES + LOG_WORDS * 8;
        let log_r = regions.pmap("pheap.log0", log_bytes, &pmem)?;

        // First page of the small region: heap header (word 0 = magic,
        // word 1 = reserved, word 2 = number of committed extension areas).
        let header = small_r.addr;
        let exts_addr = header.add(16);
        let layout = SmallLayout::new(small_r.addr.add(4096), small_r.len - 4096);
        let metrics = HeapMetrics::new(regions.telemetry());

        let fresh = pmem.read_u64(header) != HEAP_MAGIC;
        let mut large = vec![LargeAlloc::new(large_r.addr, large_r.len)];
        let (log, writes, replayed) = if fresh {
            // Format the base large area (publishing the magic comes last).
            let log = TornbitLog::create(regions.pmem_handle(), log_r.addr, LOG_WORDS)?;
            (log, large[0].format_writes(), 0)
        } else {
            // Committed extension areas ([`PHeap::grow`]): every counted
            // area must exist in the region table (Regions::open already
            // mapped it), or the image is corrupt. An *uncounted* leftover
            // from a crashed grow is invisible here and gets re-adopted by
            // the next grow call.
            let n_ext = pmem.read_u64(exts_addr);
            if n_ext > MAX_EXT_AREAS {
                return Err(HeapError::Corrupt(
                    "implausible extension-area count in heap header",
                ));
            }
            for e in 0..n_ext {
                let r = regions
                    .find(&format!("pheap.ext{e}"))
                    .ok_or(HeapError::Corrupt(
                        "committed heap extension area is missing from the region table",
                    ))?;
                large.push(LargeAlloc::new(r.addr, r.len));
            }
            // Redo committed-but-unapplied operations, every record checked
            // before any write lands.
            let (log, records) = TornbitLog::recover(regions.pmem_handle(), log_r.addr)?;
            let mut writes = Vec::new();
            for rec in &records {
                writes.extend(redo::decode(rec, &pmem)?);
            }
            (log, writes, records.len() as u64)
        };
        let mut st = HeapState {
            log,
            small: SmallAlloc::new(layout),
            large,
            writes,
            record: Vec::new(),
            lines: Vec::new(),
        };
        st.redo_writes();
        if fresh {
            pmem.store_u64(header.add(8), 1);
            pmem.flush(header.add(8));
            pmem.fence();
            pmem.store_u64(header, HEAP_MAGIC);
            pmem.flush(header);
            pmem.fence();
        } else {
            metrics.replayed.add(replayed);
            // Scavenge: rebuild the volatile indexes from what the replay
            // left on media.
            let timer = Instant::now();
            st.small = SmallAlloc::scavenge(&pmem, layout);
            for area in &mut st.large {
                area.scavenge(&pmem)?;
            }
            metrics
                .scavenge_ns
                .record(timer.elapsed().as_nanos() as u64);
        }
        Ok(PHeap {
            state: Mutex::new(st),
            header,
            metrics,
        })
    }

    /// Grows the heap online by mapping a fresh **large extension area**
    /// `pheap.ext{E}` of (at least) `bytes` bytes — no restart, no data
    /// movement. Large requests and small requests the superblock area
    /// cannot serve (the fallback path) reach the new capacity through
    /// the large allocator. Growth is atomic against crashes with a single
    /// durable word as the commit point:
    ///
    /// 1. map the region for slot `E` (the committed extension count in
    ///    header word 2). A leftover region from a previously interrupted
    ///    grow is re-adopted, not leaked — the region intention log GCs a
    ///    crash *inside* `pmap` itself;
    /// 2. durably format it as one free chunk;
    /// 3. durably bump header word 2 — **the commit point**. A crash
    ///    before the bump recovers to the old capacity (the uncounted
    ///    region is invisible and re-adopted later); a crash after it
    ///    recovers to the new capacity.
    ///
    /// The heap lock is held throughout.
    ///
    /// # Errors
    /// [`HeapError::OutOfMemory`] when [`MAX_EXT_AREAS`] extensions already
    /// exist, or a region-layer error if the address space or backing
    /// store is exhausted.
    pub fn grow(&self, regions: &Regions, bytes: u64) -> Result<GrowStats, HeapError> {
        let pmem = regions.pmem_handle();
        let mut st = self.state.lock();
        let exts_addr = self.header.add(16);
        let e = pmem.read_u64(exts_addr);
        if e >= MAX_EXT_AREAS {
            return Err(HeapError::OutOfMemory { requested: bytes });
        }
        let name = format!("pheap.ext{e}");
        let region = match regions.find(&name) {
            Some(r) => r,
            None => regions.pmap(&name, bytes, &pmem)?,
        };
        let mut area = LargeAlloc::new(region.addr, region.len);
        st.writes = area.format_writes();
        st.redo_writes();
        // Commit point: the extension only counts once this word lands.
        pmem.store_u64(exts_addr, e + 1);
        pmem.flush(exts_addr);
        pmem.fence();
        st.large.push(area);
        self.metrics.grows.inc();
        self.metrics.grow_bytes.add(region.len);
        Ok(GrowStats {
            grown_bytes: region.len,
            large_capacity: st.large_capacity(),
        })
    }

    /// Total large-area capacity in bytes (base + committed extensions).
    pub fn large_capacity(&self) -> u64 {
        self.state.lock().large_capacity()
    }

    /// A point-in-time census of the small area: live blocks, and where
    /// every superblock currently lives (assigned vs. pooled). Tests use
    /// this to prove churn leaks nothing; with all blocks freed,
    /// `owned + pooled` must equal `total` and `live_blocks` must be 0.
    pub fn small_occupancy(&self) -> SmallOccupancy {
        let st = self.state.lock();
        SmallOccupancy {
            live_blocks: st.small.live_blocks(),
            owned_superblocks: st.small.assigned_superblocks(),
            pooled_superblocks: st.small.pooled_superblocks(),
            total_superblocks: st.small.total_superblocks(),
        }
    }

    fn alloc_impl(&self, size: u64, cell: Option<VAddr>) -> Result<VAddr, HeapError> {
        let class = class_of(size);
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let writes = &mut st.writes;
        writes.clear();
        let from_small = class.and_then(|c| st.small.alloc(c, writes));
        let a = match from_small {
            Some(a) => a,
            // A large request, or a small one the exhausted small area
            // cannot serve. First fit across the base area and any
            // extensions. An area's `alloc` pushes no writes before it
            // finds a fitting chunk, so trying the next area after a miss
            // is safe.
            None => st
                .large
                .iter_mut()
                .find_map(|area| area.alloc(size, st.log.pmem(), writes))
                .ok_or(HeapError::OutOfMemory { requested: size })?,
        };
        if let Some(c) = cell {
            writes.push((c, a.0));
        }
        st.commit()?;
        drop(guard);
        if from_small.is_some() {
            self.metrics.superblock_allocs.inc();
        } else {
            if class.is_some() {
                self.metrics.fallback_allocs.inc();
            }
            self.metrics.large_allocs.inc();
        }
        self.metrics.allocs.inc();
        Ok(a)
    }

    /// Frees the block at `addr` under the heap lock; `cell`, if given, is
    /// nullified in the same atomic operation.
    fn free_locked(
        &self,
        st: &mut HeapState,
        addr: VAddr,
        cell: Option<VAddr>,
    ) -> Result<(), HeapError> {
        let writes = &mut st.writes;
        writes.clear();
        if st.small.contains(addr) {
            st.small.free(addr, writes)?;
        } else {
            st.large
                .iter_mut()
                .find(|a| a.contains(addr))
                .ok_or(HeapError::BadPointer(addr))?
                .free(addr, st.log.pmem(), writes)?;
        }
        if let Some(c) = cell {
            writes.push((c, 0));
        }
        st.commit()?;
        self.metrics.frees.inc();
        Ok(())
    }

    /// Allocates `size` bytes of persistent memory and durably stores the
    /// block address into the persistent pointer `cell` — the paper's
    /// `pmalloc(sz, ptr)`. The cell write is part of the same atomic
    /// operation, so a crash can never strand the block (§3.4).
    ///
    /// ```
    /// # use mnemosyne_scm::{ScmSim, ScmConfig};
    /// # use mnemosyne_region::{RegionManager, Regions};
    /// # use mnemosyne_pheap::{PHeap, HeapConfig};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let dir = std::env::temp_dir().join(format!("pheap-doc-malloc-{}", std::process::id()));
    /// # std::fs::create_dir_all(&dir)?;
    /// # let sim = ScmSim::new(ScmConfig::for_testing(16 << 20));
    /// # let mgr = RegionManager::boot(&sim, &dir)?;
    /// # let (regions, pmem) = Regions::open(&mgr, 1 << 16)?;
    /// # let heap = PHeap::open(&regions, HeapConfig::default())?;
    /// // `cell` is itself persistent: the heap commits "cell -> block"
    /// // in one atomic step, so the block is always reachable.
    /// let (cell, _) = regions.static_area();
    /// let block = heap.pmalloc(64, cell)?;
    /// assert_eq!(pmem.read_u64(cell), block.0);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// Fails if the cell is not a persistent word-aligned address or the
    /// heap is exhausted.
    pub fn pmalloc(&self, size: u64, cell: VAddr) -> Result<VAddr, HeapError> {
        if !cell.is_persistent() || !cell.is_word_aligned() {
            return Err(HeapError::VolatileCell(cell));
        }
        self.alloc_impl(size, Some(cell))
    }

    /// Frees the block referenced by the persistent pointer `cell` and
    /// nullifies the cell — the paper's `pfree(ptr)`: "to ensure that the
    /// persistent pointer does not continue to point to the deallocated
    /// chunk if the system fails just after a deallocation".
    ///
    /// ```
    /// # use mnemosyne_scm::{ScmSim, ScmConfig};
    /// # use mnemosyne_region::{RegionManager, Regions};
    /// # use mnemosyne_pheap::{PHeap, HeapConfig, HeapError};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let dir = std::env::temp_dir().join(format!("pheap-doc-free-{}", std::process::id()));
    /// # std::fs::create_dir_all(&dir)?;
    /// # let sim = ScmSim::new(ScmConfig::for_testing(16 << 20));
    /// # let mgr = RegionManager::boot(&sim, &dir)?;
    /// # let (regions, pmem) = Regions::open(&mgr, 1 << 16)?;
    /// # let heap = PHeap::open(&regions, HeapConfig::default())?;
    /// # let (cell, _) = regions.static_area();
    /// let _block = heap.pmalloc(64, cell)?;
    /// heap.pfree(cell)?;
    /// assert_eq!(pmem.read_u64(cell), 0); // cell nullified atomically
    /// // Freeing through a null cell is a typed error, not UB.
    /// assert!(matches!(heap.pfree(cell), Err(HeapError::BadPointer(_))));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// Fails if the cell does not reference a live heap block.
    pub fn pfree(&self, cell: VAddr) -> Result<(), HeapError> {
        if !cell.is_persistent() || !cell.is_word_aligned() {
            return Err(HeapError::VolatileCell(cell));
        }
        let mut st = self.state.lock();
        let addr = VAddr(st.log.pmem().read_u64(cell));
        if addr.is_null() {
            return Err(HeapError::BadPointer(addr));
        }
        self.free_locked(&mut st, addr, Some(cell))
    }

    /// Frees a block by address (for callers that manage their own pointer
    /// durability, e.g. transactional data structures whose pointer writes
    /// are already logged by the transaction system).
    ///
    /// # Errors
    /// Fails if `addr` is not a live heap block.
    pub fn pfree_addr(&self, addr: VAddr) -> Result<(), HeapError> {
        self.free_locked(&mut self.state.lock(), addr, None)
    }

    /// Allocates without a destination cell. The caller **must** make a
    /// persistent pointer to the block durable itself (e.g. via a durable
    /// transaction), or the block leaks on a crash — this is the hazard
    /// §3.1 describes for pointers kept in volatile memory.
    ///
    /// # Errors
    /// Fails if the heap is exhausted.
    pub fn pmalloc_unanchored(&self, size: u64) -> Result<VAddr, HeapError> {
        self.alloc_impl(size, None)
    }

    /// Usable size of a live allocation, if `addr` is one.
    pub fn usable_size(&self, addr: VAddr) -> Option<u64> {
        let st = self.state.lock();
        if st.small.contains(addr) {
            return st.small.usable_size(addr);
        }
        st.large
            .iter()
            .find(|a| a.contains(addr))
            .and_then(|a| a.usable_size(st.log.pmem(), addr))
    }

    /// Activity counters (lock-free reads of the registry).
    pub fn stats(&self) -> HeapStats {
        let m = &self.metrics;
        HeapStats {
            allocs: m.allocs.get(),
            frees: m.frees.get(),
            small_allocs: m.superblock_allocs.get(),
            large_allocs: m.large_allocs.get(),
            replayed: m.replayed.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::large::CHUNK_HEADER;
    use mnemosyne_region::{PMem, RegionManager};
    use mnemosyne_scm::{CrashPolicy, ScmConfig, ScmSim};
    use std::fs;
    use std::path::PathBuf;

    struct Env {
        sim: ScmSim,
        dir: PathBuf,
    }

    impl Drop for Env {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn setup() -> (Env, Regions, PMem) {
        let dir = std::env::temp_dir().join(format!(
            "pheap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let sim = ScmSim::new(ScmConfig::for_testing(32 << 20));
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let (regions, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        (Env { sim, dir }, regions, pmem)
    }

    fn small_heap() -> HeapConfig {
        HeapConfig::default().with_sizes(1 << 20, 1 << 20)
    }

    #[test]
    fn alloc_write_free_roundtrip() {
        let (_env, regions, pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let (cell, _) = regions.static_area();
        let a = heap.pmalloc(100, cell).unwrap();
        assert_eq!(pmem.read_u64(cell), a.0);
        assert_eq!(heap.usable_size(a), Some(128));
        pmem.store(a, &[0xaa; 100]);
        heap.pfree(cell).unwrap();
        assert_eq!(pmem.read_u64(cell), 0, "pfree nullifies the cell");
        assert_eq!(heap.usable_size(a), None);
    }

    #[test]
    fn large_allocation_path() {
        let (_env, regions, pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let (cell, _) = regions.static_area();
        let a = heap.pmalloc(100_000, cell).unwrap();
        assert!(heap.usable_size(a).unwrap() >= 100_000);
        pmem.store(a, &[1; 1000]);
        heap.pfree(cell).unwrap();
        // Free space coalesces back to one chunk.
        let b = heap.pmalloc(100_000, cell).unwrap();
        assert_eq!(a, b, "after free+coalesce the same chunk is reused");
        heap.pfree(cell).unwrap();
        assert_eq!(heap.stats().large_allocs, 2);
    }

    #[test]
    fn allocations_persist_across_reopen() {
        let (_env, regions, pmem) = setup();
        let (cell, _) = regions.static_area();
        let a = {
            let heap = PHeap::open(&regions, small_heap()).unwrap();
            let a = heap.pmalloc(64, cell).unwrap();
            pmem.store_u64(a, 777);
            pmem.flush(a);
            pmem.fence();
            a
        };
        // "Memory can be allocated during one invocation and freed during
        // the next."
        let heap2 = PHeap::open(&regions, small_heap()).unwrap();
        assert_eq!(heap2.usable_size(a), Some(64));
        assert_eq!(pmem.read_u64(a), 777);
        heap2.pfree(cell).unwrap();
    }

    #[test]
    fn scavenge_after_crash_sees_allocations() {
        let (env, regions, pmem) = setup();
        let (cell_area, _) = regions.static_area();
        let mut addrs = Vec::new();
        {
            let heap = PHeap::open(&regions, small_heap()).unwrap();
            for i in 0..50u64 {
                let cell = cell_area.add(i * 8);
                addrs.push(heap.pmalloc(24, cell).unwrap());
            }
        }
        env.sim.crash(CrashPolicy::DropAll);
        let heap2 = PHeap::open(&regions, small_heap()).unwrap();
        // Every allocation is still live and distinct; new allocations
        // do not collide.
        let cell = cell_area.add(1000 * 8);
        for _ in 0..50 {
            let fresh = heap2.pmalloc(24, cell).unwrap();
            assert!(!addrs.contains(&fresh), "allocator reused a live block");
            assert_eq!(pmem.read_u64(cell), fresh.0);
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(heap2.usable_size(a), Some(32), "block {i} lost");
        }
    }

    #[test]
    fn crash_between_log_and_apply_is_replayed() {
        let (env, regions, pmem) = setup();
        let (cell, _) = regions.static_area();
        // We cannot stop PHeap mid-operation from outside, so this only
        // checks a crash right at the end of an op (log truncated, nothing
        // to replay). `tests/crash_recovery.rs::
        // every_crash_point_of_single_heap_operations_recovers` crashes
        // at every primitive of an operation, this window included.
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let a = heap.pmalloc(64, cell).unwrap();
        env.sim.crash(CrashPolicy::DropAll);
        let heap2 = PHeap::open(&regions, small_heap()).unwrap();
        assert_eq!(heap2.usable_size(a), Some(64));
        assert_eq!(pmem.read_u64(cell), a.0);
    }

    #[test]
    fn double_free_rejected() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let (cell, _) = regions.static_area();
        let a = heap.pmalloc(64, cell).unwrap();
        heap.pfree(cell).unwrap();
        // Cell is now null.
        assert!(matches!(heap.pfree(cell), Err(HeapError::BadPointer(_))));
        assert!(matches!(heap.pfree_addr(a), Err(HeapError::BadPointer(_))));
    }

    #[test]
    fn volatile_cell_rejected() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        assert!(matches!(
            heap.pmalloc(64, VAddr(1234)),
            Err(HeapError::VolatileCell(_))
        ));
    }

    #[test]
    fn out_of_memory_reported() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let (cell, _) = regions.static_area();
        assert!(matches!(
            heap.pmalloc(10 << 20, cell),
            Err(HeapError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn many_sizes_and_interleaved_frees() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let (area, _) = regions.static_area();
        let sizes = [8u64, 13, 64, 100, 256, 1000, 4096, 5000, 20_000];
        let mut cells = Vec::new();
        for round in 0..3u64 {
            for (i, &sz) in sizes.iter().enumerate() {
                let cell = area.add((round * 100 + i as u64) * 8);
                heap.pmalloc(sz, cell).unwrap();
                cells.push(cell);
            }
            // Free every other allocation.
            let mut i = 0;
            cells.retain(|&c| {
                i += 1;
                if i % 2 == 0 {
                    heap.pfree(c).unwrap();
                    false
                } else {
                    true
                }
            });
        }
        for c in cells {
            heap.pfree(c).unwrap();
        }
        let st = heap.stats();
        assert_eq!(st.allocs, st.frees);
    }

    #[test]
    fn unanchored_alloc_then_manual_free() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let a = heap.pmalloc_unanchored(128).unwrap();
        assert_eq!(heap.usable_size(a), Some(128));
        heap.pfree_addr(a).unwrap();
        assert_eq!(heap.usable_size(a), None);
    }

    #[test]
    fn first_small_alloc_steals_from_pool() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let (cell, _) = regions.static_area();
        let before = heap.small_occupancy();
        assert_eq!(before.owned_superblocks, 0);
        assert_eq!(before.pooled_superblocks, before.total_superblocks);
        heap.pmalloc(64, cell).unwrap();
        // No superblock was assigned yet, so the first came from the pool.
        let after = heap.small_occupancy();
        assert_eq!(after.owned_superblocks, 1);
        assert_eq!(after.pooled_superblocks, before.pooled_superblocks - 1);
    }

    #[test]
    fn concurrent_allocations_distinct() {
        let (_env, regions, _pmem) = setup();
        let heap = std::sync::Arc::new(PHeap::open(&regions, small_heap()).unwrap());
        let (area, _) = regions.static_area();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let heap = std::sync::Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..100u64 {
                    let cell = area.add((t * 100 + i) * 8);
                    got.push(heap.pmalloc(40, cell).unwrap());
                }
                got
            }));
        }
        let mut all: Vec<VAddr> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "concurrent pmalloc returned duplicates");
    }

    #[test]
    fn concurrent_mixed_alloc_free_across_shards() {
        let (_env, regions, _pmem) = setup();
        let heap = std::sync::Arc::new(PHeap::open(&regions, small_heap()).unwrap());
        let (area, _) = regions.static_area();
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let heap = std::sync::Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let cell = area.add((t * 50 + i) * 8);
                    heap.pmalloc(32, cell).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Free everything from the main thread.
        for i in 0..150u64 {
            heap.pfree(area.add(i * 8)).unwrap();
        }
        let st = heap.stats();
        assert_eq!(st.allocs, 150);
        assert_eq!(st.frees, 150);
    }

    #[test]
    fn grow_serves_allocations_beyond_original_capacity() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        let (cell, _) = regions.static_area();
        // Exhaust the 1 MB large area, then grow and retry.
        assert!(matches!(
            heap.pmalloc(3 << 20, cell),
            Err(HeapError::OutOfMemory { .. })
        ));
        let st = heap.grow(&regions, 4 << 20).unwrap();
        assert!(st.grown_bytes >= 4 << 20);
        assert_eq!(st.large_capacity, heap.large_capacity());
        let a = heap.pmalloc(3 << 20, cell).unwrap();
        assert!(heap.usable_size(a).unwrap() >= 3 << 20);
        heap.pfree(cell).unwrap();
    }

    #[test]
    fn grown_capacity_and_blocks_survive_reopen_and_crash() {
        let (env, regions, pmem) = setup();
        let (cell, _) = regions.static_area();
        let (a, cap) = {
            let heap = PHeap::open(&regions, small_heap()).unwrap();
            heap.grow(&regions, 2 << 20).unwrap();
            let a = heap.pmalloc(1_500_000, cell).unwrap();
            pmem.store_u64(a, 42);
            pmem.flush(a);
            pmem.fence();
            (a, heap.large_capacity())
        };
        env.sim.crash(CrashPolicy::DropAll);
        let heap2 = PHeap::open(&regions, small_heap()).unwrap();
        assert_eq!(heap2.large_capacity(), cap, "extension lost across crash");
        assert!(heap2.usable_size(a).unwrap() >= 1_500_000);
        assert_eq!(pmem.read_u64(a), 42);
        heap2.pfree(cell).unwrap();
    }

    #[test]
    fn interrupted_grow_leftover_is_readopted() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        // Simulate a crash after the region was mapped but before the
        // header commit: the region exists, the count still reads 0.
        let pm = regions.pmem_handle();
        let leftover = regions.pmap("pheap.ext0", 1 << 20, &pm).unwrap();
        let before = heap.large_capacity();
        let st = heap.grow(&regions, 8 << 20).unwrap();
        // The leftover (1 MB) is adopted as-is; the requested size is
        // irrelevant once a prior attempt already reserved the name.
        assert_eq!(st.grown_bytes, leftover.len);
        assert_eq!(heap.large_capacity(), before + leftover.len);
    }

    #[test]
    fn exhausted_small_area_falls_back_to_the_large_allocator() {
        let (_env, regions, _pmem) = setup();
        let cfg = HeapConfig::default().with_sizes(68 << 10, 1 << 20);
        let heap = PHeap::open(&regions, cfg).unwrap();
        let (area, _) = regions.static_area();
        // 14 blocks of 4 KB fill the 7 superblocks; the 15th cannot be
        // served by the small area.
        for i in 0..15u64 {
            heap.pmalloc(4096, area.add(i * 8)).unwrap();
        }
        let m = &heap.metrics;
        assert_eq!(m.fallback_allocs.get(), 1);
        assert_eq!(
            m.superblock_allocs.get() + m.large_allocs.get(),
            m.allocs.get(),
            "an allocation was counted by neither allocator"
        );
        assert_eq!(heap.stats().large_allocs, 1);
        heap.pfree(area.add(14 * 8)).unwrap();
        assert_eq!(heap.stats().frees, 1);
    }

    #[test]
    fn small_grown_blocks_survive_crash_and_reopen() {
        let (env, regions, pmem) = setup();
        let cfg = HeapConfig::default().with_sizes(68 << 10, 1 << 20);
        let (area, _) = regions.static_area();
        let (a, cap) = {
            let heap = PHeap::open(&regions, cfg.clone()).unwrap();
            for i in 0..14u64 {
                heap.pmalloc(4096, area.add(i * 8)).unwrap();
            }
            // Fill the base large area as well, so only the extension can
            // serve the fallback.
            heap.pmalloc((1 << 20) - CHUNK_HEADER, area.add(15 * 8))
                .unwrap();
            heap.grow(&regions, 1 << 20).unwrap();
            let a = heap.pmalloc(4096, area.add(14 * 8)).unwrap();
            assert_eq!(heap.metrics.fallback_allocs.get(), 1);
            let ext = regions.find("pheap.ext0").unwrap();
            assert!(
                a > ext.addr && a < ext.addr.add(ext.len),
                "the 15th 4 KB block {a} is not in pheap.ext0"
            );
            pmem.store_u64(a, 4242);
            pmem.flush(a);
            pmem.fence();
            (a, heap.large_capacity())
        };
        env.sim.crash(CrashPolicy::DropAll);
        let heap2 = PHeap::open(&regions, cfg).unwrap();
        assert_eq!(heap2.small_occupancy().total_superblocks, 7);
        assert_eq!(heap2.large_capacity(), cap);
        assert_eq!(heap2.usable_size(a), Some(4096));
        assert_eq!(pmem.read_u64(a), 4242);
        // Every block — superblocks, base large area and extension — is
        // freeable after recovery, and nothing leaks.
        for i in 0..16u64 {
            heap2.pfree(area.add(i * 8)).unwrap();
        }
        let occ = heap2.small_occupancy();
        assert_eq!(occ.live_blocks, 0);
        assert_eq!(
            occ.owned_superblocks + occ.pooled_superblocks,
            occ.total_superblocks
        );
    }

    #[test]
    fn debug_format_is_lock_free() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        // Hold the heap lock; Debug must still complete.
        let _g = heap.state.lock();
        let s = format!("{heap:?}");
        assert!(s.contains("PHeap"), "{s}");
    }
}
