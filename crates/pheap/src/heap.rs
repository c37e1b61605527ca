//! The persistent heap front end: `pmalloc`/`pfree` with logged atomicity.
//!
//! One lock guards the whole heap state — the allocator log, the small
//! allocator and the large areas — so an operation takes the lock, builds
//! its word writes, logs them as one redo record and applies them (§4.3).
//! The lock is also what keeps the allocator log single-producer.

use std::sync::atomic::Ordering;

use parking_lot::Mutex;

use mnemosyne_obs::{Counter, Histogram, PaddedAtomicU64, Telemetry, Unit};
use mnemosyne_rawl::{LogError, TornbitLog};
use mnemosyne_region::{PMem, Regions, VAddr};

use crate::error::HeapError;
use crate::large::LargeAlloc;
use crate::small::{class_of, SmallAlloc, SmallLayout, WordWrite};

/// Heap header magic ("PHEAPHD2"), stored in the first word of the small
/// region; written last during formatting so a torn format is re-run. The
/// second header word counts the allocator logs `{prefix}.log{i}` the
/// image has: a fresh heap writes 1, an image written by the earlier
/// sharded heap counts one per shard, and open replays them all. The third
/// header word counts committed **extension areas** ([`PHeap::grow`]);
/// heaps written before online growth existed read zero there (backing
/// pages are zero-filled), so old images open unchanged.
const HEAP_MAGIC: u64 = u64::from_le_bytes(*b"PHEAPHD2");

/// Most allocator logs a recovery will trust header word 1 to count (the
/// sharded heap capped its shard count at 64).
const MAX_LOGS: u64 = 64;

/// Hard cap on extension areas (bounds the header word a recovery will
/// trust, and keeps region-table usage sane).
pub const MAX_EXT_AREAS: u64 = 64;

/// Configuration for [`PHeap::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapConfig {
    /// Prefix for the heap's region names (allows several heaps).
    pub name_prefix: String,
    /// Bytes for the small-object area (superblocks + bitmaps).
    pub small_bytes: u64,
    /// Bytes for the large-object area.
    pub large_bytes: u64,
    /// Allocator-log capacity in words.
    pub log_words: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            name_prefix: "pheap".to_string(),
            small_bytes: 4 << 20,
            large_bytes: 4 << 20,
            log_words: 4096,
        }
    }
}

impl HeapConfig {
    /// Config with a distinct name prefix.
    pub fn named(prefix: &str) -> Self {
        HeapConfig {
            name_prefix: prefix.to_string(),
            ..Self::default()
        }
    }

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

/// Counters describing heap activity since open.
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
    /// Redo records replayed during the last recovery.
    pub replayed: u64,
}

/// Per-heap stat cells: cache-line-padded atomics, so [`PHeap::stats`]
/// (and `Debug`) never take the heap lock.
#[derive(Default)]
struct StatCells {
    allocs: PaddedAtomicU64,
    frees: PaddedAtomicU64,
    small_allocs: PaddedAtomicU64,
    large_allocs: PaddedAtomicU64,
    replayed: PaddedAtomicU64,
}

/// `pheap.*` telemetry in the machine's registry, mirroring [`HeapStats`]
/// plus the fallback path, growth, and the §6.3.2 scavenge cost that the
/// plain struct does not expose.
struct HeapMetrics {
    allocs: Counter,
    frees: Counter,
    /// Allocations served from Hoard-style superblocks.
    superblock_allocs: Counter,
    large_allocs: Counter,
    /// Small requests that fell back to the large allocator because the
    /// superblock area was exhausted.
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
}

impl HeapState {
    fn large_capacity(&self) -> u64 {
        self.large.iter().map(LargeAlloc::capacity).sum()
    }
}

/// The persistent heap. `Sync`: every operation runs under its one lock.
pub struct PHeap {
    state: Mutex<HeapState>,
    header: VAddr,
    /// Region-name prefix, kept for naming extension areas at [`grow`].
    ///
    /// [`grow`]: PHeap::grow
    name_prefix: String,
    stats: StatCells,
    metrics: HeapMetrics,
}

impl std::fmt::Debug for PHeap {
    /// Lock-free: reads the padded stat cells, so formatting can never
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
    /// 3. otherwise **replays** every allocator log the header counts
    ///    (plus the separate large-allocator log `{prefix}.llog` of an
    ///    image written by the earlier sharded heap), then **scavenges**
    ///    the superblock metadata and the large chunk chains to rebuild
    ///    the volatile indexes (§4.3, §6.3.2). The first log then serves
    ///    every operation.
    ///
    /// Everything runs on the calling thread.
    ///
    /// # Errors
    /// Fails on region exhaustion, log corruption, or a corrupt chunk
    /// chain.
    pub fn open(regions: &Regions, config: HeapConfig) -> Result<PHeap, HeapError> {
        let prefix = &config.name_prefix;
        let pmem = regions.pmem_handle();
        let small_r = regions.pmap(&format!("{prefix}.small"), config.small_bytes, &pmem)?;
        let large_r = regions.pmap(&format!("{prefix}.large"), config.large_bytes, &pmem)?;
        let log_bytes = mnemosyne_rawl::LOG_HEADER_BYTES + config.log_words * 8;
        let log_r = regions.pmap(&format!("{prefix}.log0"), log_bytes, &pmem)?;

        // First page of the small region: heap header (word 0 = magic,
        // word 1 = number of allocator logs, word 2 = number of committed
        // extension areas).
        let header = small_r.addr;
        let nlogs_addr = header.add(8);
        let exts_addr = header.add(16);
        let base = SmallLayout::new(small_r.addr.add(4096), small_r.len - 4096);
        let metrics = HeapMetrics::new(regions.telemetry());
        let stats = StatCells::default();

        let state = if pmem.read_u64(header) != HEAP_MAGIC {
            // Fresh heap: format everything, publish the magic last.
            let log = TornbitLog::create(regions.pmem_handle(), log_r.addr, config.log_words)?;
            let mut small = SmallAlloc::default();
            small.add_segment(base);
            let mut large = LargeAlloc::new(large_r.addr, large_r.len);
            Self::apply(&pmem, &large.format_writes());
            pmem.store_u64(nlogs_addr, 1);
            pmem.flush(nlogs_addr);
            pmem.fence();
            pmem.store_u64(header, HEAP_MAGIC);
            pmem.flush(header);
            pmem.fence();
            HeapState {
                log,
                small,
                large: vec![large],
            }
        } else {
            let nlogs = pmem.read_u64(nlogs_addr);
            if nlogs == 0 || nlogs > MAX_LOGS {
                return Err(HeapError::Corrupt(
                    "implausible allocator log count in heap header",
                ));
            }
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
            let mut large_specs = vec![(large_r.addr, large_r.len)];
            let mut small_segs = vec![base];
            for e in 0..n_ext {
                // Each committed extension slot is either a large extension
                // area (`.ext{e}`) or a small extension segment (`.sext{e}`,
                // from a grow routed to the superblock pool); both share the
                // one counter so the commit protocol stays a single word.
                if let Some(r) = regions.find(&format!("{prefix}.ext{e}")) {
                    large_specs.push((r.addr, r.len));
                } else if let Some(r) = regions.find(&format!("{prefix}.sext{e}")) {
                    small_segs.push(SmallLayout::new(r.addr, r.len));
                } else {
                    return Err(HeapError::Corrupt(
                        "committed heap extension area is missing from the region table",
                    ));
                }
            }

            // Redo committed-but-unapplied operations from every log.
            let mut log_bases = vec![log_r.addr];
            for i in 1..nlogs {
                let r = regions
                    .find(&format!("{prefix}.log{i}"))
                    .ok_or(HeapError::Corrupt(
                        "counted allocator log is missing from the region table",
                    ))?;
                log_bases.push(r.addr);
            }
            log_bases.extend(regions.find(&format!("{prefix}.llog")).map(|r| r.addr));
            let mut serving = None;
            let mut replayed = 0u64;
            for base in log_bases {
                let (mut log, records) = TornbitLog::recover(regions.pmem_handle(), base)?;
                replayed += Self::replay(&mut log, &records)?;
                serving.get_or_insert(log);
            }
            stats.replayed.store(replayed, Ordering::Relaxed);
            metrics.replayed.add(replayed);

            // Scavenge: rebuild the volatile indexes from what the replay
            // left on media.
            let sw = pmem.stopwatch();
            let small = SmallAlloc::scavenge(&pmem, &small_segs);
            let mut large = Vec::with_capacity(large_specs.len());
            for (addr, len) in large_specs {
                let mut area = LargeAlloc::new(addr, len);
                area.scavenge(&pmem)?;
                large.push(area);
            }
            metrics.scavenge_ns.record(pmem.elapsed_ns(&sw));
            HeapState {
                log: serving.expect("log 0 is always counted"),
                small,
                large,
            }
        };
        Ok(PHeap {
            state: Mutex::new(state),
            header,
            name_prefix: config.name_prefix,
            stats,
            metrics,
        })
    }

    /// Validates and redoes one log's recovered records, then truncates
    /// the log. Records are checksum-verified by recovery, so a
    /// structurally bad one (odd length, unmapped target) means corruption
    /// got past the media-level checks — refuse to replay rather than
    /// panic or scribble on the wrong words.
    fn replay(log: &mut TornbitLog, records: &[Vec<u64>]) -> Result<u64, HeapError> {
        let mut n = 0u64;
        for rec in records {
            if rec.len() % 2 != 0 {
                return Err(HeapError::Corrupt("malformed allocator redo record"));
            }
            let pairs: Vec<WordWrite> = rec.chunks_exact(2).map(|c| (VAddr(c[0]), c[1])).collect();
            for &(addr, _) in &pairs {
                if log.pmem().try_translate(addr).is_err() {
                    return Err(HeapError::Corrupt(
                        "allocator redo record targets an unmapped address",
                    ));
                }
            }
            Self::apply(log.pmem(), &pairs);
            n += 1;
        }
        log.truncate_all();
        Ok(n)
    }

    /// Durably applies a list of word writes: store each, flush each line,
    /// one fence.
    fn apply(pmem: &PMem, writes: &[WordWrite]) {
        for &(addr, val) in writes {
            pmem.store_u64(addr, val);
        }
        for &(addr, _) in writes {
            pmem.flush(addr);
        }
        pmem.fence();
    }

    /// Logs then applies an operation's writes — the §4.3 atomicity
    /// protocol (the log flush is the commit point; recovery redoes the
    /// rest).
    fn commit(log: &mut TornbitLog, writes: &[WordWrite]) -> Result<(), HeapError> {
        let mut record = Vec::with_capacity(writes.len() * 2);
        for &(a, v) in writes {
            record.push(a.0);
            record.push(v);
        }
        match log.append(&record) {
            Ok(()) => {}
            Err(LogError::Full { .. }) => {
                // Synchronous truncation: prior ops are fully applied.
                log.truncate_all();
                log.append(&record)?;
            }
            Err(e) => return Err(e.into()),
        }
        log.flush();
        Self::apply(log.pmem(), writes);
        log.truncate_all();
        Ok(())
    }

    /// Checkpoint sweep: truncates the allocator log if it still holds
    /// records, returning the words reclaimed.
    ///
    /// Allocator operations already truncate the log after applying each
    /// op, so it is almost always empty and this is nearly free — but a
    /// checkpoint wants a *bound*, not a likelihood, on the
    /// outstanding-log bytes a reboot must replay, and this provides it.
    ///
    /// A busy heap is skipped rather than waited on (`try_lock`): a held
    /// lock means an allocator op is in flight, and that op truncates the
    /// log before releasing the lock, so the bound holds without this
    /// sweep. Crucially, allocations run inside transactions that hold STM
    /// word locks — a checkpoint that *blocked* allocation here (for even a
    /// scheduling quantum) would stall the owner and cascade every
    /// concurrent transaction into conflict aborts. Every record truncated
    /// here was fully applied (the op holds the lock from append through
    /// truncate), so dropping it cannot lose state.
    pub fn checkpoint(&self) -> u64 {
        let Some(mut st) = self.state.try_lock() else {
            return 0;
        };
        let live = st.log.len_words();
        if live > 0 {
            st.log.truncate_all();
        }
        live
    }

    /// Grows the heap online by mapping a fresh **extension area** of (at
    /// least) `bytes` bytes — no restart, no data movement.
    ///
    /// The new capacity goes where the pressure is: when the small area's
    /// free-superblock pool has run dry (small requests are spilling to
    /// the large allocator via the fallback path), the extension becomes a
    /// **small segment** (`{prefix}.sext{E}`) of fresh superblocks pushed
    /// into the pool; otherwise it becomes a **large extension area**
    /// (`{prefix}.ext{E}`). Both kinds share header word 2, so growth stays
    /// atomic against crashes with a single durable word as the commit
    /// point:
    ///
    /// 1. map the region for slot `E` (the committed extension count in
    ///    header word 2). A leftover region of either name from a
    ///    previously interrupted grow is re-adopted, not leaked — the
    ///    region intention log GCs a crash *inside* `pmap` itself;
    /// 2. durably format it (a large area is one free chunk; a small
    ///    segment needs no writes at all — a fresh region reads zero, and
    ///    all-zero metadata *is* the formatted "every superblock
    ///    unassigned" state);
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
        let large_name = format!("{}.ext{}", self.name_prefix, e);
        let small_name = format!("{}.sext{}", self.name_prefix, e);
        // Re-adopt an interrupted grow's leftover under either name; a
        // fresh grow routes by where the pressure is.
        let (region, is_small) = match (regions.find(&large_name), regions.find(&small_name)) {
            (Some(r), _) => (r, false),
            (None, Some(r)) => (r, true),
            (None, None) => {
                let small = st.small.pooled_superblocks() == 0;
                let name = if small { &small_name } else { &large_name };
                (regions.pmap(name, bytes, &pmem)?, small)
            }
        };
        let area = (!is_small).then(|| {
            let mut area = LargeAlloc::new(region.addr, region.len);
            Self::apply(&pmem, &area.format_writes());
            area
        });
        // Commit point: the extension only counts once this word lands.
        pmem.store_u64(exts_addr, e + 1);
        pmem.flush(exts_addr);
        pmem.fence();
        match area {
            Some(area) => st.large.push(area),
            None => st
                .small
                .add_segment(SmallLayout::new(region.addr, region.len)),
        }
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
        let HeapState { log, small, large } = &mut *guard;
        let mut writes: Vec<WordWrite> = Vec::with_capacity(12);
        let from_small = class.and_then(|c| small.alloc(c, &mut writes));
        let a = match from_small {
            Some(a) => a,
            None => {
                if class.is_some() {
                    // Small area exhausted: fall back to the large allocator.
                    self.metrics.fallback_allocs.inc();
                }
                // First fit across the base area and any extensions. An
                // area's `alloc` pushes no writes before it finds a
                // fitting chunk, so trying the next area after a miss is
                // safe.
                large
                    .iter_mut()
                    .find_map(|area| area.alloc(size, log.pmem(), &mut writes))
                    .ok_or(HeapError::OutOfMemory { requested: size })?
            }
        };
        if let Some(c) = cell {
            writes.push((c, a.0));
        }
        Self::commit(log, &writes)?;
        drop(guard);
        if from_small.is_some() {
            self.stats.small_allocs.fetch_add(1, Ordering::Relaxed);
            self.metrics.superblock_allocs.inc();
        } else if class.is_none() {
            self.stats.large_allocs.fetch_add(1, Ordering::Relaxed);
            self.metrics.large_allocs.inc();
        }
        self.stats.allocs.fetch_add(1, Ordering::Relaxed);
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
        let HeapState { log, small, large } = st;
        let mut writes: Vec<WordWrite> = Vec::with_capacity(12);
        if small.contains(addr) {
            small.free(addr, &mut writes)?;
        } else {
            large
                .iter_mut()
                .find(|a| a.contains(addr))
                .ok_or(HeapError::BadPointer(addr))?
                .free(addr, log.pmem(), &mut writes)?;
        }
        if let Some(c) = cell {
            writes.push((c, 0));
        }
        Self::commit(log, &writes)?;
        self.stats.frees.fetch_add(1, Ordering::Relaxed);
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

    /// Activity counters (lock-free reads of the padded stat cells).
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            allocs: self.stats.allocs.load(Ordering::Relaxed),
            frees: self.stats.frees.load(Ordering::Relaxed),
            small_allocs: self.stats.small_allocs.load(Ordering::Relaxed),
            large_allocs: self.stats.large_allocs.load(Ordering::Relaxed),
            replayed: self.stats.replayed.load(Ordering::Relaxed),
        }
    }

    /// Address of the heap header (diagnostics).
    pub fn header_addr(&self) -> VAddr {
        self.header
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne_region::RegionManager;
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
    fn reopen_replays_every_allocator_log_of_an_older_image() {
        let (env, regions, pmem) = setup();
        let (area, _) = regions.static_area();
        let (c1, c2) = (area, area.add(8));
        let header = PHeap::open(&regions, small_heap()).unwrap().header_addr();
        // An image written by the sharded heap: a second shard log and the
        // large-allocator log, each holding one committed but unapplied
        // record, counted by header word 1.
        let log_bytes = mnemosyne_rawl::LOG_HEADER_BYTES + 64 * 8;
        for (name, cell, val) in [("pheap.log1", c1, 11), ("pheap.llog", c2, 22)] {
            let r = regions.pmap(name, log_bytes, &pmem).unwrap();
            let mut log = TornbitLog::create(regions.pmem_handle(), r.addr, 64).unwrap();
            log.append(&[cell.0, val]).unwrap();
            log.flush();
        }
        pmem.store_u64(header.add(8), 2);
        pmem.flush(header.add(8));
        pmem.fence();
        env.sim.crash(CrashPolicy::DropAll);

        let heap = PHeap::open(&regions, small_heap()).unwrap();
        assert_eq!(pmem.read_u64(c1), 11, "pheap.log1 was not replayed");
        assert_eq!(pmem.read_u64(c2), 22, "pheap.llog was not replayed");
        assert_eq!(heap.stats().replayed, 2);
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
        // We cannot stop PHeap mid-operation from outside, so emulate the
        // window: allocate, then crash with a policy that keeps *only*
        // fenced data (DropAll drops cached-but-unflushed stores). Since
        // commit flushes everything before returning, instead verify
        // the replay path by checking stats on a recovery after a crash
        // right at the end of an op (log truncated, nothing to replay).
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
    fn grow_routes_to_small_pool_when_exhausted() {
        let (_env, regions, _pmem) = setup();
        let cfg = HeapConfig::default().with_sizes(68 << 10, 1 << 20);
        let heap = PHeap::open(&regions, cfg).unwrap();
        let (area, _) = regions.static_area();
        // 68 KB small area = 64 KB after the header page = 7 superblocks;
        // 4 KB blocks pack 2 per superblock, so 14 allocations drain the
        // pool completely.
        assert_eq!(heap.small_occupancy().total_superblocks, 7);
        for i in 0..14u64 {
            heap.pmalloc(4096, area.add(i * 8)).unwrap();
        }
        assert_eq!(heap.small_occupancy().pooled_superblocks, 0);
        assert_eq!(heap.metrics.fallback_allocs.get(), 0);
        let before_large = heap.large_capacity();
        let st = heap.grow(&regions, 1 << 20).unwrap();
        assert!(st.grown_bytes >= 1 << 20);
        assert_eq!(
            st.large_capacity, before_large,
            "a small-routed grow must not change the large area"
        );
        let occ = heap.small_occupancy();
        assert!(occ.total_superblocks > 7, "no superblocks were added");
        assert!(
            occ.pooled_superblocks > 0,
            "grown superblocks not in the pool"
        );
        // The next small allocation is served from the grown pool — not
        // the large-object fallback path.
        let a = heap.pmalloc(4096, area.add(14 * 8)).unwrap();
        assert_eq!(heap.usable_size(a), Some(4096));
        assert_eq!(heap.metrics.fallback_allocs.get(), 0);
        assert_eq!(heap.large_capacity(), before_large);
    }

    #[test]
    fn small_grown_blocks_survive_crash_and_reopen() {
        let (env, regions, pmem) = setup();
        let cfg = HeapConfig::default().with_sizes(68 << 10, 1 << 20);
        let (area, _) = regions.static_area();
        let (a, total_after, cap) = {
            let heap = PHeap::open(&regions, cfg.clone()).unwrap();
            for i in 0..14u64 {
                heap.pmalloc(4096, area.add(i * 8)).unwrap();
            }
            heap.grow(&regions, 1 << 20).unwrap();
            let a = heap.pmalloc(4096, area.add(14 * 8)).unwrap();
            pmem.store_u64(a, 4242);
            pmem.flush(a);
            pmem.fence();
            (
                a,
                heap.small_occupancy().total_superblocks,
                heap.large_capacity(),
            )
        };
        env.sim.crash(CrashPolicy::DropAll);
        let heap2 = PHeap::open(&regions, cfg).unwrap();
        assert_eq!(heap2.small_occupancy().total_superblocks, total_after);
        assert_eq!(heap2.large_capacity(), cap);
        assert_eq!(heap2.usable_size(a), Some(4096));
        assert_eq!(pmem.read_u64(a), 4242);
        // Every block — base segment and grown segment — is freeable
        // after recovery, and nothing leaks.
        for i in 0..15u64 {
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
    fn interrupted_small_grow_leftover_is_readopted() {
        let (_env, regions, _pmem) = setup();
        let heap = PHeap::open(&regions, small_heap()).unwrap();
        // Simulate a crash after a small-routed grow mapped its region but
        // before the header commit.
        let pm = regions.pmem_handle();
        regions.pmap("pheap.sext0", 128 << 10, &pm).unwrap();
        let before = heap.small_occupancy().total_superblocks;
        let cap = heap.large_capacity();
        let st = heap.grow(&regions, 8 << 20).unwrap();
        // The leftover is adopted as a small segment even though the pool
        // is not empty: a prior attempt already decided the routing.
        assert!(heap.small_occupancy().total_superblocks > before);
        assert_eq!(heap.large_capacity(), cap);
        assert_eq!(st.large_capacity, cap);
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
