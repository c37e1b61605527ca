//! The persistent heap front end: `pmalloc`/`pfree` with logged atomicity,
//! sharded for concurrency.
//!
//! The paper's heap is "a modified version of the Hoard memory allocator"
//! (§4.3); Hoard's defining trait is per-thread superblock ownership. The
//! front end realises it with **N shards**: each shard owns a disjoint set
//! of superblocks, its own volatile size-class lists, and its own tornbit
//! RAWL allocator log (preserving the single-producer discipline per log
//! while allowing N concurrent durable allocations). Threads hash to a
//! home shard; when a shard's class lists run dry it steals a fresh
//! superblock from a global pool, and a free of a block owned by another
//! shard (a *remote* free) is routed to — and logged by — the owning
//! shard. Ownership itself is volatile and rebuilt by scavenging at open,
//! exactly like the paper's rebuilt indexes; recovery replays and
//! scavenges all shard logs and superblock ranges in parallel.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use mnemosyne_obs::{Counter, Histogram, PaddedAtomicU64, Telemetry, Unit};
use mnemosyne_rawl::{LogError, TornbitLog};
use mnemosyne_region::{PMem, Regions, VAddr};
use mnemosyne_scm::EmulationMode;

use crate::error::HeapError;
use crate::large::LargeAlloc;
use crate::small::{class_of, ShardSmall, SmallGeom, SmallLayout, WordWrite};

/// Heap header magic ("PHEAPHD2" — the sharded, multi-log format), stored
/// in the first word of the small region; written last during formatting
/// so a torn format is re-run. The second header word records how many
/// shard logs have ever been created, so a reopen with fewer shards still
/// replays every log. The third header word counts committed large
/// **extension areas** ([`PHeap::grow`]); heaps written before online
/// growth existed read zero there (backing pages are zero-filled), so old
/// images open unchanged.
const HEAP_MAGIC: u64 = u64::from_le_bytes(*b"PHEAPHD2");

/// Hard cap on the shard count (also bounds the `n_logs` header word a
/// recovery will trust).
pub const MAX_SHARDS: usize = 64;

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
    /// Allocator-log capacity in words (per shard log).
    pub log_words: u64,
    /// Number of heap shards. `0` means auto: the `MNEMOSYNE_HEAP_SHARDS`
    /// environment variable if set, otherwise the machine's available
    /// parallelism. Clamped to `1..=`[`MAX_SHARDS`].
    pub shards: usize,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            name_prefix: "pheap".to_string(),
            small_bytes: 4 << 20,
            large_bytes: 4 << 20,
            log_words: 4096,
            shards: 0,
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

    /// Overrides the shard count (`0` = auto).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    fn resolve_shards(&self) -> usize {
        let n = if self.shards != 0 {
            self.shards
        } else {
            match std::env::var("MNEMOSYNE_HEAP_SHARDS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
            {
                Some(n) if n != 0 => n,
                _ => std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1),
            }
        };
        n.clamp(1, MAX_SHARDS)
    }
}

/// A census of the small area's superblocks, from
/// [`PHeap::small_occupancy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmallOccupancy {
    /// Blocks currently allocated across all shards.
    pub live_blocks: u64,
    /// Superblocks owned by some shard.
    pub owned_superblocks: usize,
    /// Free superblocks in the global steal pool.
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
    /// Frees routed to a shard other than the calling thread's home.
    pub remote_frees: u64,
    /// Superblocks taken from the global pool (work-stealing).
    pub steals: u64,
}

/// Per-heap stat cells: cache-line-padded atomics bumped outside the shard
/// locks, so [`PHeap::stats`] (and `Debug`) never serialise against
/// allocation.
#[derive(Default)]
struct StatCells {
    allocs: PaddedAtomicU64,
    frees: PaddedAtomicU64,
    small_allocs: PaddedAtomicU64,
    large_allocs: PaddedAtomicU64,
    replayed: PaddedAtomicU64,
    remote_frees: PaddedAtomicU64,
    steals: PaddedAtomicU64,
}

/// `pheap.*` telemetry in the machine's registry, mirroring [`HeapStats`]
/// plus the fallback path, shard contention, and the §6.3.2 scavenge cost
/// that the plain struct does not expose.
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
    /// Frees whose block is owned by a different shard than the caller's
    /// home shard.
    remote_frees: Counter,
    /// Superblocks stolen from the global free pool.
    steals: Counter,
    /// Shard-lock acquisitions that found the lock already held.
    shard_lock_contended: Counter,
    /// Successful online [`PHeap::grow`] calls.
    grows: Counter,
    /// Bytes of large-area capacity added by online growth.
    grow_bytes: Counter,
    /// Time spent rebuilding volatile indexes at open (§6.3.2); with
    /// parallel scavenge this is the critical-path worker time.
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
            remote_frees: telemetry.counter("pheap.remote_frees", Unit::Count),
            steals: telemetry.counter("pheap.steals", Unit::Count),
            shard_lock_contended: telemetry.counter("pheap.shard_lock_contended", Unit::Count),
            grows: telemetry.counter("pheap.grows", Unit::Count),
            grow_bytes: telemetry.counter("pheap.grow_bytes", Unit::Bytes),
            scavenge_ns: telemetry.histogram("pheap.scavenge_ns", Unit::Nanoseconds),
        }
    }
}

/// One heap shard: its allocator log (single producer — whoever holds the
/// shard lock) and the volatile view of its owned superblocks.
struct Shard {
    log: TornbitLog,
    small: ShardSmall,
}

/// The large-object allocator with its own log, behind its own lock. The
/// base area plus any committed extension areas ([`PHeap::grow`]) share the
/// one log, preserving its single-producer discipline.
struct LargeShard {
    log: TornbitLog,
    areas: Vec<LargeAlloc>,
}

/// Monotone thread slots: each thread that touches a heap gets the next
/// slot, and `slot % nshards` is its home shard — the same round-robin
/// idiom the telemetry counters use for shard assignment.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// The sharded persistent heap. `Sync`: operations lock only the involved
/// shard (or the large allocator), which also enforces each allocator
/// log's single-producer discipline.
pub struct PHeap {
    /// Segmented small-area geometry (base segment + small extension
    /// segments adopted by [`PHeap::grow`]); superblock indices below are
    /// global across segments.
    geom: Arc<SmallGeom>,
    shards: Vec<Mutex<Shard>>,
    /// Owning shard + 1 per superblock; 0 = in the pool (or quarantined).
    /// Transitions owned→pool only under the owning shard's lock, so a
    /// reader that locks the owner and re-checks sees a stable value.
    /// Behind an `RwLock` only so a small-routed grow can append entries
    /// for a new segment; every existing slot is an atomic, so normal
    /// operations just take the (uncontended) read lock.
    owner: RwLock<Vec<AtomicU32>>,
    /// Fully empty superblocks, stealable by any shard.
    pool: Mutex<Vec<u32>>,
    large: Mutex<LargeShard>,
    header: VAddr,
    /// Region-name prefix, kept for naming extension areas at [`grow`].
    ///
    /// [`grow`]: PHeap::grow
    name_prefix: String,
    stats: StatCells,
    metrics: HeapMetrics,
}

impl std::fmt::Debug for PHeap {
    /// Lock-free: reads the registry-backed telemetry counters and padded
    /// stat cells, so formatting can never deadlock or serialise against
    /// allocation.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PHeap")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .field(
                "shard_lock_contended",
                &self.metrics.shard_lock_contended.get(),
            )
            .finish()
    }
}

impl PHeap {
    /// Opens (or creates) the heap described by `config`:
    ///
    /// 1. maps the small and large areas, one allocator log per shard, and
    ///    the large allocator's log;
    /// 2. on first run, formats them and publishes the header magic;
    /// 3. otherwise recovers **all** shard logs in parallel, **replays**
    ///    any committed but unapplied operations, **scavenges** the
    ///    superblock ranges concurrently (§4.3, §6.3.2) and the large
    ///    chain, and rebuilds shard ownership round-robin from the
    ///    persistent superblock metadata.
    ///
    /// The shard count is volatile configuration: a heap written with N
    /// shards reopens fine with any other count — the header records how
    /// many logs have ever been created and every one of them is replayed.
    ///
    /// # Errors
    /// Fails on region exhaustion, log corruption, or a corrupt chunk
    /// chain.
    pub fn open(regions: &Regions, config: HeapConfig) -> Result<PHeap, HeapError> {
        let nshards = config.resolve_shards();
        let pmem = regions.pmem_handle();
        let small_r = regions.pmap(
            &format!("{}.small", config.name_prefix),
            config.small_bytes,
            &pmem,
        )?;
        let large_r = regions.pmap(
            &format!("{}.large", config.name_prefix),
            config.large_bytes,
            &pmem,
        )?;
        let log_bytes = mnemosyne_rawl::LOG_HEADER_BYTES + config.log_words * 8;
        let llog_r = regions.pmap(&format!("{}.llog", config.name_prefix), log_bytes, &pmem)?;

        // First page of the small region: heap header (word 0 = magic,
        // word 1 = number of shard logs ever created, word 2 = number of
        // committed large extension areas).
        let header = small_r.addr;
        let nlogs_addr = header.add(8);
        let exts_addr = header.add(16);
        let small_area = small_r.addr.add(4096);
        let small_len = small_r.len - 4096;
        let layout = SmallLayout::new(small_area, small_len);
        let geom = Arc::new(SmallGeom::new(layout));
        let metrics = HeapMetrics::new(regions.telemetry());
        let stats = StatCells::default();
        let n_sb = layout.superblocks();

        let map_log = |i: usize| -> Result<VAddr, HeapError> {
            let r = regions.pmap(
                &format!("{}.log{}", config.name_prefix, i),
                log_bytes,
                &pmem,
            )?;
            Ok(r.addr)
        };

        if pmem.read_u64(header) != HEAP_MAGIC {
            // Fresh heap: format everything, publish the magic last.
            let mut shards = Vec::with_capacity(nshards);
            for i in 0..nshards {
                let base = map_log(i)?;
                let log = TornbitLog::create(regions.pmem_handle(), base, config.log_words)?;
                shards.push(Mutex::new(Shard {
                    log,
                    small: ShardSmall::new(Arc::clone(&geom)),
                }));
            }
            let llog = TornbitLog::create(regions.pmem_handle(), llog_r.addr, config.log_words)?;
            let mut large = LargeAlloc::new(large_r.addr, large_r.len);
            let writes = large.format_writes();
            Self::apply(llog.pmem(), &writes);
            let hp = llog.pmem();
            hp.store_u64(nlogs_addr, nshards as u64);
            hp.flush(nlogs_addr);
            hp.fence();
            hp.store_u64(header, HEAP_MAGIC);
            hp.flush(header);
            hp.fence();
            return Ok(PHeap {
                geom,
                shards,
                owner: RwLock::new((0..n_sb).map(|_| AtomicU32::new(0)).collect()),
                pool: Mutex::new((0..n_sb).rev().collect()),
                large: Mutex::new(LargeShard {
                    log: llog,
                    areas: vec![large],
                }),
                header,
                name_prefix: config.name_prefix,
                stats,
                metrics,
            });
        }

        // ---- Reopen: parallel replay + parallel scavenge. ----
        let wall = Instant::now();
        let m = pmem.read_u64(nlogs_addr) as usize;
        if m == 0 || m > MAX_SHARDS {
            return Err(HeapError::Corrupt(
                "implausible shard log count in heap header",
            ));
        }
        // Committed large extension areas ([`PHeap::grow`]): every counted
        // area must exist in the region table (Regions::open already mapped
        // it), or the image is corrupt. An *uncounted* leftover from a
        // crashed grow is invisible here and gets re-adopted by the next
        // grow call.
        let n_ext = pmem.read_u64(exts_addr);
        if n_ext > MAX_EXT_AREAS {
            return Err(HeapError::Corrupt(
                "implausible extension-area count in heap header",
            ));
        }
        let mut area_specs: Vec<(VAddr, u64)> = Vec::with_capacity(1 + n_ext as usize);
        area_specs.push((large_r.addr, large_r.len));
        let mut small_segs: Vec<SmallLayout> = Vec::new();
        for e in 0..n_ext {
            // Each committed extension slot is either a large extension
            // area (`.ext{e}`) or a small extension segment (`.sext{e}`,
            // from a grow routed to the superblock pool); both share the
            // one counter so the commit protocol stays a single word.
            if let Some(r) = regions.find(&format!("{}.ext{}", config.name_prefix, e)) {
                area_specs.push((r.addr, r.len));
            } else if let Some(r) = regions.find(&format!("{}.sext{}", config.name_prefix, e)) {
                small_segs.push(SmallLayout::new(r.addr, r.len));
            } else {
                return Err(HeapError::Corrupt(
                    "committed heap extension area is missing from the region table",
                ));
            }
        }
        let total_logs = m.max(nshards);
        let mut log_addrs = Vec::with_capacity(total_logs);
        for i in 0..total_logs {
            log_addrs.push(map_log(i)?);
        }

        // Recover every existing log (all m shard logs + the large log)
        // concurrently, then recover-or-create any logs the wider shard
        // count needs. A log created by a crashed wider boot is recovered,
        // not clobbered.
        let mut parts: Vec<(PMem, VAddr)> = log_addrs[..m]
            .iter()
            .map(|&a| (regions.pmem_handle(), a))
            .collect();
        parts.push((regions.pmem_handle(), llog_r.addr));
        let mut recovered = mnemosyne_rawl::recover_all(parts)?;
        let (mut llog, lrecords) = recovered.pop().expect("large log part");
        for &base in &log_addrs[m..] {
            recovered.push(TornbitLog::open_or_create(
                regions.pmem_handle(),
                base,
                config.log_words,
            )?);
        }
        if total_logs > m {
            // All new logs exist before the count is bumped, so a crash
            // in between leaves a recoverable state either way.
            let hp = llog.pmem();
            hp.store_u64(nlogs_addr, total_logs as u64);
            hp.flush(nlogs_addr);
            hp.fence();
        }

        // Replay committed-but-unapplied operations (redo) on every log.
        let mut replayed = 0u64;
        let mut logs = Vec::with_capacity(recovered.len());
        for (mut log, records) in recovered {
            replayed += Self::replay(&mut log, &records)?;
            logs.push(log);
        }
        replayed += Self::replay(&mut llog, &lrecords)?;
        stats.replayed.store(replayed, Ordering::Relaxed);
        metrics.replayed.add(replayed);

        // Scavenge: split the superblock range over one worker per shard
        // while the large chain walk runs on its own thread; join each
        // handle explicitly so a simulated-crash payload propagates intact.
        let workers = nshards.min(n_sb.max(1) as usize);
        let chunk = n_sb.div_ceil(workers as u32).max(1);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers as u32 {
            let from = w * chunk;
            let to = (from + chunk).min(n_sb);
            let wp = regions.pmem_handle();
            handles.push(std::thread::spawn(move || {
                let res = layout.scan_range(&wp, from, to);
                (res, wp.accounted_ns())
            }));
        }
        let lp = regions.pmem_handle();
        let large_h = std::thread::spawn(move || {
            let mut areas = Vec::with_capacity(area_specs.len());
            let mut res = Ok(());
            for (base, len) in area_specs {
                let mut a = LargeAlloc::new(base, len);
                match a.scavenge(&lp) {
                    Ok(()) => areas.push(a),
                    Err(e) => {
                        res = Err(e);
                        break;
                    }
                }
            }
            ((areas, res), lp.accounted_ns())
        });
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let large_joined = large_h.join();
        let mut assigned = Vec::new();
        let mut empties: Vec<u32> = Vec::new();
        let mut critical_ns = 0u64;
        for r in joined {
            match r {
                Ok(((a, e), ns)) => {
                    assigned.extend(a);
                    empties.extend(e);
                    critical_ns = critical_ns.max(ns);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        let ((areas, large_res), large_ns) = match large_joined {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        large_res?;
        critical_ns = critical_ns.max(large_ns);

        // Small extension segments: adopt each into the geometry (in
        // commit order, so global indices are stable across reopens) and
        // scavenge it with its indices shifted into the global space.
        for seg in small_segs {
            let off = geom.push(seg);
            let (a, e) = seg.scan_range(&pmem, 0, seg.superblocks());
            assigned.extend(a.into_iter().map(|(sb, m)| (off + sb, m)));
            empties.extend(e.into_iter().map(|sb| off + sb));
            critical_ns = critical_ns.max(pmem.accounted_ns());
        }

        // Rebuild volatile ownership: live superblocks round-robin over
        // the shards, empty ones into the stealable pool.
        let owner: Vec<AtomicU32> = (0..geom.superblocks()).map(|_| AtomicU32::new(0)).collect();
        let mut shards: Vec<Shard> = logs
            .into_iter()
            .take(nshards)
            .map(|log| Shard {
                log,
                small: ShardSmall::new(Arc::clone(&geom)),
            })
            .collect();
        for (i, (sb, meta)) in assigned.iter().enumerate() {
            let s = i % nshards;
            owner[*sb as usize].store(s as u32 + 1, Ordering::Relaxed);
            shards[s].small.adopt_scavenged(*sb, meta);
        }
        empties.sort_unstable_by(|a, b| b.cmp(a));

        // Attribute the rebuild cost in the emulator's time domain when
        // the virtual clock is on (max over the parallel workers — the
        // critical path), wall time otherwise.
        let ns = if llog.pmem().mode() == EmulationMode::Virtual {
            for s in &shards {
                critical_ns = critical_ns.max(s.log.pmem().accounted_ns());
            }
            critical_ns.max(llog.pmem().accounted_ns())
        } else {
            wall.elapsed().as_nanos() as u64
        };
        metrics.scavenge_ns.record(ns);

        Ok(PHeap {
            geom,
            shards: shards.into_iter().map(Mutex::new).collect(),
            owner: RwLock::new(owner),
            pool: Mutex::new(empties),
            large: Mutex::new(LargeShard { log: llog, areas }),
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

    /// Logs then applies an operation's writes on one shard's log — the
    /// §4.3 atomicity protocol (log flush is the commit point; recovery
    /// redoes the rest). Writes of concurrent operations on different
    /// shards touch disjoint words (the shard's own bitmap/meta words plus
    /// distinct caller cells), so per-shard redo logs never race.
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

    /// Checkpoint sweep: truncates every allocator log (per-shard and
    /// large) that still holds records, returning the words reclaimed.
    ///
    /// Allocator operations already truncate their own log after applying
    /// each op, so the logs are almost always empty and this is nearly
    /// free — but a checkpoint wants a *bound*, not a likelihood, on the
    /// outstanding-log bytes a reboot must replay, and this provides it.
    ///
    /// Busy shards are skipped rather than waited on (`try_lock`): a held
    /// lock means an allocator op is in flight, and that op truncates its
    /// own log before releasing the lock, so the bound holds without this
    /// sweep touching the shard. Crucially, allocations run inside
    /// transactions that hold STM word locks — a checkpoint
    /// that *blocked* allocation here (for even a scheduling quantum)
    /// would stall the owner and cascade every concurrent transaction
    /// into conflict aborts. Every record truncated here was fully
    /// applied (the op holds the shard lock from append through
    /// truncate), so dropping it cannot lose state.
    pub fn checkpoint(&self) -> u64 {
        let mut words = 0u64;
        for shard in &self.shards {
            let Some(mut g) = shard.try_lock() else {
                continue;
            };
            let live = g.log.len_words();
            if live > 0 {
                g.log.truncate_all();
                words += live;
            }
        }
        if let Some(mut lg) = self.large.try_lock() {
            let live = lg.log.len_words();
            if live > 0 {
                lg.log.truncate_all();
                words += live;
            }
        }
        words
    }

    /// Grows the heap online by mapping a fresh **extension area** of (at
    /// least) `bytes` bytes — no restart, no data movement.
    ///
    /// The new capacity goes where the pressure is: when the small area's
    /// free-superblock pool has run dry (small requests are spilling to
    /// the large allocator via the fallback path), the extension becomes a
    /// **small segment** (`{prefix}.sext{E}`) of fresh superblocks pushed
    /// into the steal pool; otherwise it becomes a **large extension area**
    /// (`{prefix}.ext{E}`) as before. Both kinds share header word 2, so
    /// growth stays atomic against crashes with a single durable word as
    /// the commit point:
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
    /// The large lock is held throughout (it serialises the header-word
    /// read/bump for both kinds); small-path allocations are unaffected
    /// until the new superblocks appear in the pool.
    ///
    /// # Errors
    /// [`HeapError::OutOfMemory`] when [`MAX_EXT_AREAS`] extensions already
    /// exist, or a region-layer error if the address space or backing
    /// store is exhausted.
    pub fn grow(&self, regions: &Regions, bytes: u64) -> Result<GrowStats, HeapError> {
        let pmem = regions.pmem_handle();
        let mut guard = self.large.lock();
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
                let small = self.pool.lock().is_empty();
                let name = if small { &small_name } else { &large_name };
                (regions.pmap(name, bytes, &pmem)?, small)
            }
        };
        if is_small {
            let seg = SmallLayout::new(region.addr, region.len);
            // No format writes: the region's zero-filled pages already
            // read as "every superblock unassigned". Commit point:
            pmem.store_u64(exts_addr, e + 1);
            pmem.flush(exts_addr);
            pmem.fence();
            // Publish order matters for racing allocations: geometry
            // first (so the indices resolve), then owner slots, then the
            // pool entries that make the superblocks stealable.
            let off = self.geom.push(seg);
            let n = seg.superblocks();
            self.owner.write().extend((0..n).map(|_| AtomicU32::new(0)));
            self.pool.lock().extend((off..off + n).rev());
            self.metrics.grows.inc();
            self.metrics.grow_bytes.add(region.len);
            return Ok(GrowStats {
                grown_bytes: region.len,
                large_capacity: guard.areas.iter().map(|a| a.capacity()).sum(),
            });
        }
        let mut area = LargeAlloc::new(region.addr, region.len);
        let writes = area.format_writes();
        Self::apply(&pmem, &writes);
        // Commit point: the extension only counts once this word lands.
        pmem.store_u64(exts_addr, e + 1);
        pmem.flush(exts_addr);
        pmem.fence();
        guard.areas.push(area);
        self.metrics.grows.inc();
        self.metrics.grow_bytes.add(region.len);
        Ok(GrowStats {
            grown_bytes: region.len,
            large_capacity: guard.areas.iter().map(|a| a.capacity()).sum(),
        })
    }

    /// Total large-area capacity in bytes (base + committed extensions).
    pub fn large_capacity(&self) -> u64 {
        self.large.lock().areas.iter().map(|a| a.capacity()).sum()
    }

    /// Words currently live across all allocator logs (appended, not yet
    /// truncated) — the heap's contribution to the outstanding-log bound.
    pub fn outstanding_log_words(&self) -> u64 {
        let mut words: u64 = self.shards.iter().map(|s| s.lock().log.len_words()).sum();
        words += self.large.lock().log.len_words();
        words
    }

    /// The shard index this thread's allocations map to (diagnostics and
    /// benchmarks): threads are assigned monotone slots, taken modulo the
    /// shard count.
    pub fn home_shard(&self) -> usize {
        THREAD_SLOT.with(|s| s % self.shards.len())
    }

    /// Number of shards this heap was opened with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A point-in-time census of the small area: live blocks, and where
    /// every superblock currently lives (shard-owned vs. pooled). Tests
    /// use this to prove churn leaks nothing; with all blocks freed,
    /// `owned + pooled` must equal `total` and `live_blocks` must be 0.
    pub fn small_occupancy(&self) -> SmallOccupancy {
        let mut live_blocks = 0;
        let mut owned = 0;
        for shard in &self.shards {
            let g = shard.lock();
            live_blocks += g.small.live_blocks();
            owned += g.small.owned_superblocks();
        }
        SmallOccupancy {
            live_blocks,
            owned_superblocks: owned,
            pooled_superblocks: self.pool.lock().len(),
            total_superblocks: self.geom.superblocks() as usize,
        }
    }

    /// Owner word of global superblock `sb` (0 = pooled, else shard + 1).
    /// The read lock is held only for the load; the slot itself is atomic.
    #[inline]
    fn owner_of(&self, sb: usize) -> u32 {
        self.owner.read()[sb].load(Ordering::Acquire)
    }

    /// Publishes a new owner word for global superblock `sb`.
    #[inline]
    fn set_owner(&self, sb: usize, val: u32) {
        self.owner.read()[sb].store(val, Ordering::Release);
    }

    fn lock_shard(&self, i: usize) -> parking_lot::MutexGuard<'_, Shard> {
        if let Some(g) = self.shards[i].try_lock() {
            return g;
        }
        self.metrics.shard_lock_contended.inc();
        self.shards[i].lock()
    }

    /// Pops a free superblock from the global pool (work-stealing).
    fn steal_superblock(&self) -> Option<u32> {
        let sb = self.pool.lock().pop()?;
        self.stats.steals.fetch_add(1, Ordering::Relaxed);
        self.metrics.steals.inc();
        Some(sb)
    }

    fn alloc_impl(&self, size: u64, cell: Option<VAddr>) -> Result<VAddr, HeapError> {
        if let Some(class) = class_of(size) {
            let h = self.home_shard();
            let mut guard = self.lock_shard(h);
            let shard = &mut *guard;
            let mut writes: Vec<WordWrite> = Vec::with_capacity(12);
            let addr = match shard.small.alloc(class, &mut writes) {
                Some(a) => Some(a),
                None => self.steal_superblock().map(|sb| {
                    self.set_owner(sb as usize, h as u32 + 1);
                    shard.small.adopt_fresh_and_alloc(sb, class, &mut writes)
                }),
            };
            if let Some(a) = addr {
                if let Some(c) = cell {
                    writes.push((c, a.0));
                }
                Self::commit(&mut shard.log, &writes)?;
                self.stats.small_allocs.fetch_add(1, Ordering::Relaxed);
                self.metrics.superblock_allocs.inc();
                self.stats.allocs.fetch_add(1, Ordering::Relaxed);
                self.metrics.allocs.inc();
                return Ok(a);
            }
            // Small area exhausted: fall back to the large allocator.
            drop(guard);
            self.metrics.fallback_allocs.inc();
        }
        let mut guard = self.large.lock();
        let LargeShard { log, areas } = &mut *guard;
        let mut writes: Vec<WordWrite> = Vec::with_capacity(12);
        // First fit across the base area and any extensions. An area's
        // `alloc` pushes no writes before it finds a fitting chunk, so
        // trying the next area after a miss is safe.
        let a = areas
            .iter_mut()
            .find_map(|area| area.alloc(size, log.pmem(), &mut writes))
            .ok_or(HeapError::OutOfMemory { requested: size })?;
        if let Some(c) = cell {
            writes.push((c, a.0));
        }
        Self::commit(log, &writes)?;
        if class_of(size).is_none() {
            self.stats.large_allocs.fetch_add(1, Ordering::Relaxed);
            self.metrics.large_allocs.inc();
        }
        self.stats.allocs.fetch_add(1, Ordering::Relaxed);
        self.metrics.allocs.inc();
        Ok(a)
    }

    /// Frees a small block, routing to the owning shard's log. `cell`, if
    /// given, is nullified in the same atomic operation. Returns whether
    /// the free committed on a shard other than the caller's home.
    fn free_small(&self, addr: VAddr, cell: Option<VAddr>) -> Result<(), HeapError> {
        let home = self.home_shard();
        let sb = self.geom.sb_of(addr).ok_or(HeapError::BadPointer(addr))? as usize;
        let mut idx = home;
        let mut guard = self.lock_shard(idx);
        loop {
            match self.owner_of(sb) {
                0 => return Err(HeapError::BadPointer(addr)),
                o if (o - 1) as usize == idx => break,
                o => {
                    // Remote free: move to the owning shard. Ownership can
                    // only transition away under that shard's lock, so one
                    // re-check under the new lock suffices per hop.
                    drop(guard);
                    idx = (o - 1) as usize;
                    guard = self.lock_shard(idx);
                }
            }
        }
        let shard = &mut *guard;
        let mut writes: Vec<WordWrite> = Vec::with_capacity(12);
        let released = shard.small.free(addr, &mut writes)?;
        if let Some(c) = cell {
            writes.push((c, 0));
        }
        Self::commit(&mut shard.log, &writes)?;
        if let Some(sb) = released {
            // Fully empty: back to the stealable pool (owner cleared while
            // the shard lock is still held, then published).
            self.set_owner(sb as usize, 0);
            self.pool.lock().push(sb);
        }
        drop(guard);
        if idx != home {
            self.stats.remote_frees.fetch_add(1, Ordering::Relaxed);
            self.metrics.remote_frees.inc();
        }
        Ok(())
    }

    fn free_large(&self, addr: VAddr, cell: Option<VAddr>) -> Result<(), HeapError> {
        let mut guard = self.large.lock();
        let LargeShard { log, areas } = &mut *guard;
        let area = areas
            .iter_mut()
            .find(|a| a.contains(addr))
            .ok_or(HeapError::BadPointer(addr))?;
        let mut writes: Vec<WordWrite> = Vec::with_capacity(12);
        area.free(addr, log.pmem(), &mut writes)?;
        if let Some(c) = cell {
            writes.push((c, 0));
        }
        Self::commit(log, &writes)
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
        // Read the cell through the home shard's handle (no lock needed
        // for the read itself; the guard is dropped before routing).
        let addr = {
            let guard = self.lock_shard(self.home_shard());
            VAddr(guard.log.pmem().read_u64(cell))
        };
        if addr.is_null() {
            return Err(HeapError::BadPointer(addr));
        }
        if self.geom.contains(addr) {
            self.free_small(addr, Some(cell))?;
        } else {
            self.free_large(addr, Some(cell))?;
        }
        self.stats.frees.fetch_add(1, Ordering::Relaxed);
        self.metrics.frees.inc();
        Ok(())
    }

    /// Frees a block by address (for callers that manage their own pointer
    /// durability, e.g. transactional data structures whose pointer writes
    /// are already logged by the transaction system).
    ///
    /// # Errors
    /// Fails if `addr` is not a live heap block.
    pub fn pfree_addr(&self, addr: VAddr) -> Result<(), HeapError> {
        if self.geom.contains(addr) {
            self.free_small(addr, None)?;
        } else {
            self.free_large(addr, None)?;
        }
        self.stats.frees.fetch_add(1, Ordering::Relaxed);
        self.metrics.frees.inc();
        Ok(())
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
        if let Some(sb) = self.geom.sb_of(addr) {
            let sb = sb as usize;
            loop {
                match self.owner_of(sb) {
                    0 => return None,
                    o => {
                        let guard = self.lock_shard((o - 1) as usize);
                        if self.owner_of(sb) == o {
                            return guard.small.usable_size(addr);
                        }
                        // Ownership moved while we were locking; retry.
                    }
                }
            }
        } else {
            let guard = self.large.lock();
            guard
                .areas
                .iter()
                .find(|a| a.contains(addr))
                .and_then(|a| a.usable_size(guard.log.pmem(), addr))
        }
    }

    /// Activity counters (lock-free reads of the padded stat cells).
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            allocs: self.stats.allocs.load(Ordering::Relaxed),
            frees: self.stats.frees.load(Ordering::Relaxed),
            small_allocs: self.stats.small_allocs.load(Ordering::Relaxed),
            large_allocs: self.stats.large_allocs.load(Ordering::Relaxed),
            replayed: self.stats.replayed.load(Ordering::Relaxed),
            remote_frees: self.stats.remote_frees.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
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
    fn reopen_with_different_shard_counts() {
        let (_env, regions, pmem) = setup();
        let (cell_area, _) = regions.static_area();
        let mut addrs = Vec::new();
        {
            let heap = PHeap::open(&regions, small_heap().with_shards(4)).unwrap();
            assert_eq!(heap.shard_count(), 4);
            for i in 0..40u64 {
                let cell = cell_area.add(i * 8);
                addrs.push(heap.pmalloc(48, cell).unwrap());
            }
        }
        // Narrower reopen: all 4 logs replayed, blocks distributed over 2
        // shards.
        {
            let heap = PHeap::open(&regions, small_heap().with_shards(2)).unwrap();
            assert_eq!(heap.shard_count(), 2);
            for &a in &addrs {
                assert_eq!(heap.usable_size(a), Some(64));
            }
        }
        // Wider reopen (non-power-of-two): new logs are created and the
        // header's log count is bumped durably.
        let heap = PHeap::open(&regions, small_heap().with_shards(7)).unwrap();
        assert_eq!(heap.shard_count(), 7);
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(heap.usable_size(a), Some(64), "block {i} lost");
            assert_eq!(pmem.read_u64(cell_area.add(i as u64 * 8)), a.0);
        }
        for i in 0..addrs.len() as u64 {
            heap.pfree(cell_area.add(i * 8)).unwrap();
        }
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
        let heap = PHeap::open(&regions, small_heap().with_shards(1)).unwrap();
        let (cell, _) = regions.static_area();
        heap.pmalloc(64, cell).unwrap();
        // The shard owned nothing, so its first superblock came from the
        // global pool.
        assert_eq!(heap.stats().steals, 1);
    }

    #[test]
    fn remote_free_routed_to_owning_shard() {
        let (_env, regions, _pmem) = setup();
        let heap = std::sync::Arc::new(PHeap::open(&regions, small_heap().with_shards(2)).unwrap());
        let (area, _) = regions.static_area();
        let owner_home = heap.home_shard();
        let cell = area;
        let a = heap.pmalloc(64, cell).unwrap();
        // Thread slots are monotone, so two spawned threads land on both
        // shards; the one whose home differs performs the remote free.
        let mut freed = false;
        for _ in 0..2 {
            let heap2 = std::sync::Arc::clone(&heap);
            let did = std::thread::spawn(move || {
                if heap2.home_shard() != owner_home {
                    heap2.pfree(cell).unwrap();
                    true
                } else {
                    false
                }
            })
            .join()
            .unwrap();
            if did {
                freed = true;
                break;
            }
        }
        assert!(freed, "one of two consecutive threads must map remotely");
        assert_eq!(heap.stats().remote_frees, 1);
        assert_eq!(heap.usable_size(a), None);
    }

    #[test]
    fn concurrent_allocations_distinct() {
        let (_env, regions, _pmem) = setup();
        let heap = std::sync::Arc::new(PHeap::open(&regions, small_heap().with_shards(4)).unwrap());
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
        let heap = std::sync::Arc::new(PHeap::open(&regions, small_heap().with_shards(3)).unwrap());
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
        // Free everything from the main thread: most frees are remote.
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
        let cfg = HeapConfig::default()
            .with_sizes(68 << 10, 1 << 20)
            .with_shards(1);
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
            "grown superblocks not stealable"
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
        let cfg = HeapConfig::default()
            .with_sizes(68 << 10, 1 << 20)
            .with_shards(1);
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
        let heap = PHeap::open(&regions, small_heap().with_shards(2)).unwrap();
        // Hold every lock the heap has; Debug must still complete.
        let _g0 = heap.shards[0].lock();
        let _g1 = heap.shards[1].lock();
        let _gl = heap.large.lock();
        let _gp = heap.pool.lock();
        let s = format!("{heap:?}");
        assert!(s.contains("PHeap"), "{s}");
    }
}
