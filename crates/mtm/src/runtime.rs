//! The transaction runtime: per-thread redo logs, commit/abort, recovery,
//! and synchronous or asynchronous log truncation (§5).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use mnemosyne_obs::{Counter, Histogram, MaxGauge, Telemetry, Unit};
use mnemosyne_pheap::PHeap;
use mnemosyne_rawl::{LogError, LogTruncator, TornbitLog, LOG_HEADER_BYTES};
use mnemosyne_region::{PMem, Regions, VAddr};

use crate::error::{TxAbort, TxError};
use crate::gclock::GlobalClock;
use crate::locks::LockTable;
use crate::tx::Tx;

/// When the redo log of a committed transaction is truncated (§5
/// "Transaction log").
///
/// ```
/// # use mnemosyne_scm::{ScmSim, ScmConfig};
/// # use mnemosyne_region::{RegionManager, Regions};
/// # use mnemosyne_mtm::{MtmRuntime, MtmConfig, Truncation};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let dir = std::env::temp_dir().join(format!("mtm-doc-trunc-{}", std::process::id()));
/// # std::fs::create_dir_all(&dir)?;
/// # let sim = ScmSim::new(ScmConfig::for_testing(16 << 20));
/// # let mgr = RegionManager::boot(&sim, &dir)?;
/// # let (regions, _pmem) = Regions::open(&mgr, 1 << 16)?;
/// # let regions = std::sync::Arc::new(regions);
/// // Async mode starts a log-manager thread that drains commit records
/// // off the critical path; Sync (the default) truncates inline.
/// let rt = MtmRuntime::open(&regions, MtmConfig::default().with_truncation(Truncation::Async))?;
/// let (cell, _) = regions.static_area();
/// let mut th = rt.register_thread()?;
/// th.atomic(|tx| tx.write_u64(cell, 7))?;
/// drop(th);
/// drop(rt); // stops the manager after a final graceful drain
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Truncation {
    /// Commit flushes every modified cache line and truncates its log
    /// before it releases the first write lock: longer commit latency,
    /// and a log holds a record only while its transaction holds that
    /// record's locks — so the records a crash leaves behind are pairwise
    /// disjoint and replay order cannot matter.
    #[default]
    Sync,
    /// A log-manager thread — the regime's only truncator — retires
    /// records off the critical path, oldest-first across all logs, so a
    /// record is dropped only after every older record for its words:
    /// shorter commits, but threads stall when the log fills faster than
    /// the manager retires it (Figure 6 measures both regimes).
    Async,
}

/// Slots in the global versioned-lock table.
pub(crate) const LOCK_TABLE_SLOTS: usize = 1 << 20;

/// Configuration for [`MtmRuntime::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtmConfig {
    /// Maximum concurrently registered transaction threads (one redo log
    /// each, named `mtm.log{i}`).
    pub max_threads: usize,
    /// Capacity of each per-thread redo log, in words.
    pub log_words: u64,
    /// Truncation regime.
    pub truncation: Truncation,
}

impl Default for MtmConfig {
    fn default() -> Self {
        MtmConfig {
            max_threads: 8,
            log_words: 1 << 15,
            truncation: Truncation::Sync,
        }
    }
}

impl MtmConfig {
    /// Overrides the truncation regime.
    pub fn with_truncation(mut self, t: Truncation) -> Self {
        self.truncation = t;
        self
    }

    /// Overrides the thread-slot count.
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }
}

/// Counters describing runtime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MtmStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (conflicts).
    pub aborts: u64,
    /// Transactions replayed from the logs at the last open.
    pub replayed: u64,
    /// Commits that stalled waiting for the asynchronous truncator to
    /// free log space (§5: "program threads may stall").
    pub stalls: u64,
}

/// What the last [`MtmRuntime::open`] had to do to restore the machine:
/// the measured side of the recovery SLO.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed-but-unflushed transactions replayed from the redo logs.
    pub replayed: u64,
    /// Live log words scanned across all thread slots (the outstanding
    /// log the previous incarnation left behind).
    pub scanned_words: u64,
    /// Wall time of the scan + replay.
    pub replay_ns: u64,
}

/// Result of one [`MtmRuntime::checkpoint`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Redo-log words durably reclaimed (always 0 in the synchronous
    /// regime, whose logs are empty between commits).
    pub reclaimed_words: u64,
    /// Outstanding redo-log words when the checkpoint started.
    pub outstanding_before: u64,
    /// Outstanding redo-log words when it finished (bounded by whatever
    /// commits raced the pass).
    pub outstanding_after: u64,
}

/// `mtm.*` telemetry registered in the machine's registry: the only
/// count of runtime events ([`MtmStats`] reads it), plus the per-phase
/// commit-latency attribution the paper's Figures 4–6 are about.
pub(crate) struct MtmMetrics {
    /// Transaction attempts ([`Tx::begin`] calls, including conflict
    /// retries). Identity: `tx_begins == commits + aborts`.
    pub(crate) tx_begins: Counter,
    pub(crate) commits: Counter,
    pub(crate) aborts: Counter,
    pub(crate) replayed: Counter,
    pub(crate) truncation_stalls: Counter,
    /// Time a committing thread spent waiting for log space (async mode).
    pub(crate) stall_ns: Histogram,
    /// End-to-end commit latency (update transactions only).
    pub(crate) commit_ns: Histogram,
    /// Commit phase: read-set validation.
    pub(crate) validate_ns: Histogram,
    /// Commit phase: building + appending + fencing the redo record.
    pub(crate) log_ns: Histogram,
    /// Commit phase: writing buffered values back to their home locations.
    pub(crate) writeback_ns: Histogram,
    /// Commit phase: data-line flushes + the truncating fence (sync mode).
    pub(crate) truncate_ns: Histogram,
    /// Encounter-time probes that found the lock foreign-owned (one per
    /// conflict episode, not per backoff round).
    pub(crate) lock_conflicts: Counter,
    /// Conflict episodes that exhausted bounded backoff and aborted.
    /// Identity: `lock_conflicts - conflict_aborts` = episodes resolved
    /// by waiting.
    pub(crate) conflict_aborts: Counter,
    /// Spin counts chosen by adaptive backoff (per wait round; also
    /// records the inter-attempt backoff of the `atomic` retry loop).
    pub(crate) backoff_spins: Histogram,
    /// Checkpoints completed ([`MtmRuntime::checkpoint`]).
    pub(crate) ckpt_runs: Counter,
    /// Redo-log words reclaimed by checkpoints.
    pub(crate) ckpt_words: Counter,
    /// High-water mark of outstanding redo-log words observed at
    /// checkpoint entry.
    pub(crate) ckpt_outstanding_hwm: MaxGauge,
    /// Per-checkpoint duration.
    pub(crate) ckpt_ns: Histogram,
    /// Worst log-replay time measured at open, in milliseconds — the
    /// recovery SLO gauge.
    pub(crate) replay_ms: MaxGauge,
}

impl MtmMetrics {
    fn new(telemetry: &Telemetry) -> MtmMetrics {
        MtmMetrics {
            tx_begins: telemetry.counter("mtm.tx_begins", Unit::Count),
            commits: telemetry.counter("mtm.commits", Unit::Count),
            aborts: telemetry.counter("mtm.aborts", Unit::Count),
            replayed: telemetry.counter("mtm.replayed", Unit::Count),
            truncation_stalls: telemetry.counter("mtm.truncation_stalls", Unit::Count),
            stall_ns: telemetry.histogram("mtm.stall_ns", Unit::Nanoseconds),
            commit_ns: telemetry.histogram("mtm.commit_ns", Unit::Nanoseconds),
            validate_ns: telemetry.histogram("mtm.commit.validate_ns", Unit::Nanoseconds),
            log_ns: telemetry.histogram("mtm.commit.log_ns", Unit::Nanoseconds),
            writeback_ns: telemetry.histogram("mtm.commit.writeback_ns", Unit::Nanoseconds),
            truncate_ns: telemetry.histogram("mtm.commit.truncate_ns", Unit::Nanoseconds),
            lock_conflicts: telemetry.counter("mtm.lock_conflicts", Unit::Count),
            conflict_aborts: telemetry.counter("mtm.conflict_aborts", Unit::Count),
            backoff_spins: telemetry.histogram("mtm.backoff_spins", Unit::Count),
            ckpt_runs: telemetry.counter("mtm.ckpt.runs", Unit::Count),
            ckpt_words: telemetry.counter("mtm.ckpt.words", Unit::Words),
            ckpt_outstanding_hwm: telemetry.max_gauge("mtm.ckpt.outstanding_hwm", Unit::Words),
            ckpt_ns: telemetry.histogram("mtm.ckpt.run_ns", Unit::Nanoseconds),
            replay_ms: telemetry.max_gauge("recovery.replay_ms", Unit::Milliseconds),
        }
    }
}

struct ManagerHandle {
    stop: Arc<AtomicBool>,
    /// When set, the manager exits without its final drain sweep — used by
    /// [`MtmRuntime::kill`] to model abrupt process death in crash tests.
    hard: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

/// The consumer handles of every redo log, and the one persistent-memory
/// handle every pass over them runs on. In the asynchronous regime
/// whoever holds its mutex — a log-manager pass or
/// [`MtmRuntime::checkpoint`] — is the logs' one truncator; in the
/// synchronous regime the handles are only read (backlog accounting) and
/// each log's owning [`TxThread`] truncates it.
struct CkptShared {
    pmem: PMem,
    truncators: Vec<LogTruncator>,
}

impl CkptShared {
    /// Published redo-log words not yet truncated, across every log.
    fn backlog_words(&self) -> u64 {
        self.truncators.iter().map(|t| t.backlog_words()).sum()
    }
}

/// The durable-transaction runtime. Create once per process with
/// [`MtmRuntime::open`]; hand each worker a [`TxThread`] via
/// [`MtmRuntime::register_thread`].
///
/// Opening replays any committed-but-unwritten-back transactions left in
/// the per-thread redo logs, so a value committed before a crash is
/// visible after reopening:
///
/// ```
/// # use mnemosyne_scm::{ScmSim, ScmConfig};
/// # use mnemosyne_region::{RegionManager, Regions};
/// # use mnemosyne_mtm::{MtmRuntime, MtmConfig};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let dir = std::env::temp_dir().join(format!("mtm-doc-rt-{}", std::process::id()));
/// # std::fs::create_dir_all(&dir)?;
/// # let sim = ScmSim::new(ScmConfig::for_testing(16 << 20));
/// # let mgr = RegionManager::boot(&sim, &dir)?;
/// # let (regions, _pmem) = Regions::open(&mgr, 1 << 16)?;
/// # let regions = std::sync::Arc::new(regions);
/// let rt = MtmRuntime::open(&regions, MtmConfig::default())?;
/// let (cell, _) = regions.static_area();
///
/// let mut th = rt.register_thread()?;
/// th.atomic(|tx| tx.write_u64(cell, 42))?;
/// assert_eq!(rt.stats().commits, 1);
/// drop(th);
/// drop(rt);
///
/// // Reopen over the same regions: recovery runs, committed state holds.
/// let rt = MtmRuntime::open(&regions, MtmConfig::default())?;
/// let mut th = rt.register_thread()?;
/// let v = th.atomic(|tx| tx.read_u64(cell))?;
/// assert_eq!(v, 42);
/// # drop(th);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
pub struct MtmRuntime {
    clock: Arc<GlobalClock>,
    locks: LockTable,
    regions: Arc<Regions>,
    heap: RwLock<Option<Arc<PHeap>>>,
    slots: Mutex<Vec<Option<TornbitLog>>>,
    truncation: Truncation,
    metrics: MtmMetrics,
    manager: Mutex<Option<ManagerHandle>>,
    ckpt: Arc<Mutex<CkptShared>>,
    recovery: RecoveryStats,
}

impl std::fmt::Debug for MtmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MtmRuntime")
            .field("truncation", &self.truncation)
            .field("stats", &self.stats())
            .finish()
    }
}

impl MtmRuntime {
    /// Opens the runtime: maps (or creates) one redo-log region per thread
    /// slot, **replays** committed-but-unflushed transactions from all
    /// logs in global-timestamp order, truncates the logs, and (in async
    /// mode) starts the log-manager thread.
    ///
    /// # Errors
    /// Fails on region exhaustion or corrupt logs.
    pub fn open(regions: &Arc<Regions>, config: MtmConfig) -> Result<Arc<MtmRuntime>, TxError> {
        let pmem = regions.pmem_handle();

        // Scan: map each slot's log and recover its records.
        let timer = Instant::now();
        let mut logs = Vec::with_capacity(config.max_threads);
        let mut records: Vec<Vec<u64>> = Vec::new();
        let mut scanned_words = 0u64;
        for i in 0..config.max_threads {
            let bytes = LOG_HEADER_BYTES + config.log_words * 8;
            let r = regions.pmap(&format!("mtm.log{i}"), bytes, &pmem)?;
            let (log, recs) =
                TornbitLog::open_or_create(regions.pmem_handle(), r.addr, config.log_words)?;
            scanned_words += log.len_words();
            records.extend(recs);
            logs.push(log);
        }
        // Redo records are [ts, (addr,val)*]. Every record is
        // checksum-verified by recovery, so a structurally malformed one
        // means corruption slipped past the media-level checks — refuse to
        // replay it.
        if records.iter().any(|rec| rec.len() % 2 == 0) {
            return Err(TxError::Log(LogError::Corrupt {
                position: 0,
                detail: "malformed redo record in recovered log",
            }));
        }

        // Replay committed transactions in global timestamp order (§5
        // recovery): store every write, then retire the records as a
        // manager pass does, oldest first across all logs, so a crash
        // inside recovery leaves the next one a suffix of the commit order.
        records.sort_by_key(|rec| rec[0]);
        let replayed = records.len() as u64;
        let writes: Vec<(VAddr, u64)> = records
            .iter()
            .flat_map(|rec| rec[1..].chunks_exact(2).map(|c| (VAddr(c[0]), c[1])))
            .collect();
        // A redo address outside every mapped region would be a
        // segfault-analogue panic; surface it as typed corruption instead,
        // before any write lands (the checksum passed, so the region table
        // itself regressed — either way, don't crash).
        if writes
            .iter()
            .any(|&(addr, _)| pmem.try_translate(addr).is_err())
        {
            return Err(TxError::Log(LogError::Corrupt {
                position: 0,
                detail: "redo record targets an unmapped address",
            }));
        }
        for &(addr, val) in &writes {
            pmem.store_u64(addr, val);
        }
        // Every log's consumer handle: backlog accounting reads them in
        // both regimes; recovery and every async pass truncate through them.
        let ckpt = CkptShared {
            pmem,
            truncators: logs.iter().map(TornbitLog::truncator).collect(),
        };
        drain_logs(&ckpt, u64::MAX);
        let replay_ns = timer.elapsed().as_nanos() as u64;
        let recovery = RecoveryStats {
            replayed,
            scanned_words,
            replay_ns,
        };

        let metrics = MtmMetrics::new(regions.telemetry());
        metrics.replayed.add(replayed);
        if replayed > 0 {
            metrics.replay_ms.record(replay_ns.div_ceil(1_000_000));
        }
        let ckpt = Arc::new(Mutex::new(ckpt));
        let clock = Arc::new(GlobalClock::new());

        let rt = Arc::new(MtmRuntime {
            clock: Arc::clone(&clock),
            locks: LockTable::new(LOCK_TABLE_SLOTS),
            regions: Arc::clone(regions),
            heap: RwLock::new(None),
            truncation: config.truncation,
            metrics,
            manager: Mutex::new(None),
            ckpt: Arc::clone(&ckpt),
            recovery,
            slots: Mutex::new(Vec::new()),
        });

        if config.truncation == Truncation::Async {
            let stop = Arc::new(AtomicBool::new(false));
            let hard = Arc::new(AtomicBool::new(false));
            let stop2 = Arc::clone(&stop);
            let hard2 = Arc::clone(&hard);
            // The lock is shared with `MtmRuntime::checkpoint`; holding it
            // per pass (not across the idle sleep) lets a checkpoint slot
            // in between manager passes.
            let pass = move || drain_logs(&ckpt.lock(), clock.now());
            let join = std::thread::Builder::new()
                .name("mtm-log-manager".into())
                .spawn(move || log_manager(pass, stop2, hard2))
                .expect("spawn log manager");
            *rt.manager.lock() = Some(ManagerHandle {
                stop,
                hard,
                join: Some(join),
            });
        }

        *rt.slots.lock() = logs.into_iter().map(Some).collect();
        Ok(rt)
    }

    /// Attaches a persistent heap so transactions can use
    /// [`Tx::pmalloc`]/[`Tx::pfree`].
    pub fn attach_heap(&self, heap: Arc<PHeap>) {
        *self.heap.write() = Some(heap);
    }

    /// The attached heap, if any.
    pub fn heap(&self) -> Option<Arc<PHeap>> {
        self.heap.read().clone()
    }

    /// Grows the attached heap's large-object area online (no restart) —
    /// the admin `GROW` verb's backend. See
    /// [`PHeap::grow`] for the crash-atomicity
    /// protocol.
    ///
    /// # Errors
    /// [`TxError::Heap`] if no heap is attached or the grow itself fails.
    pub fn grow_heap(&self, bytes: u64) -> Result<mnemosyne_pheap::GrowStats, TxError> {
        let heap = self
            .heap()
            .ok_or_else(|| TxError::Heap("no heap attached to this runtime".to_string()))?;
        heap.grow(&self.regions, bytes)
            .map_err(|e| TxError::Heap(e.to_string()))
    }

    /// Checks out a transaction-thread context (one per worker thread).
    /// The slot is returned when the [`TxThread`] drops.
    ///
    /// # Errors
    /// [`TxError::NoThreadSlots`] when `max_threads` contexts are live.
    pub fn register_thread(self: &Arc<Self>) -> Result<TxThread, TxError> {
        let mut slots = self.slots.lock();
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_some() {
                return Ok(TxThread {
                    rt: Arc::clone(self),
                    slot: i,
                    log: slot.take(),
                    rng: 0x9E37_79B9 ^ (i as u64 + 1),
                });
            }
        }
        Err(TxError::NoThreadSlots)
    }

    /// Activity counters: `mtm.commits`, `mtm.aborts` and
    /// `mtm.truncation_stalls` of the machine's registry (shared by every
    /// runtime opened over it), and this open's replay count.
    pub fn stats(&self) -> MtmStats {
        MtmStats {
            commits: self.metrics.commits.get(),
            aborts: self.metrics.aborts.get(),
            replayed: self.recovery.replayed,
            stalls: self.metrics.truncation_stalls.get(),
        }
    }

    /// The machine's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        self.regions.telemetry()
    }

    pub(crate) fn metrics(&self) -> &MtmMetrics {
        &self.metrics
    }

    /// The global commit clock.
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// The global versioned-lock table.
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// The region registry this runtime operates on.
    pub fn regions(&self) -> &Arc<Regions> {
        &self.regions
    }

    /// The configured truncation regime.
    pub fn truncation(&self) -> Truncation {
        self.truncation
    }

    /// Recovery figures from the last [`MtmRuntime::open`].
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Redo-log words appended, fenced, and not yet truncated across all
    /// thread slots — what a crash right now would have to replay. In the
    /// synchronous regime that is only the records of commits in flight.
    pub fn outstanding_log_words(&self) -> u64 {
        self.ckpt.lock().backlog_words()
    }

    /// Runs one checkpoint pass: in the asynchronous regime, one
    /// log-manager pass, retiring every record published before it began
    /// in commit order (its data lines forced out, then the record
    /// truncated). In the synchronous regime
    /// the redo logs are left alone — each belongs to its committing
    /// thread, which empties it before releasing its locks — and the pass
    /// only records the backlog. The allocator log needs no pass in either
    /// regime: every heap operation truncates it before releasing the heap
    /// lock. Safe to call from any thread, concurrently with committing
    /// transactions.
    pub fn checkpoint(&self) -> CkptStats {
        let ckpt = self.ckpt.lock();
        let timer = Instant::now();
        let before = ckpt.backlog_words();
        self.metrics.ckpt_outstanding_hwm.record(before);
        let words = match self.truncation {
            Truncation::Sync => 0,
            Truncation::Async => drain_logs(&ckpt, self.clock.now()),
        };
        let after = ckpt.backlog_words();
        self.metrics
            .ckpt_ns
            .record(timer.elapsed().as_nanos() as u64);
        drop(ckpt);
        self.metrics.ckpt_runs.inc();
        self.metrics.ckpt_words.add(words);
        CkptStats {
            reclaimed_words: words,
            outstanding_before: before,
            outstanding_after: after,
        }
    }

    /// Models abrupt process death for crash testing: stops the
    /// asynchronous log manager *without* its final drain sweep, so the
    /// runtime stops touching SCM from background threads. Call this
    /// before injecting a crash with
    /// [`mnemosyne_scm::ScmSim::crash`]; otherwise the "dead" process's
    /// manager thread may keep truncating logs after the failure point.
    pub fn kill(&self) {
        if let Some(mut m) = self.manager.lock().take() {
            m.hard.store(true, Ordering::Relaxed);
            m.stop.store(true, Ordering::Relaxed);
            if let Some(j) = m.join.take() {
                let _ = j.join();
            }
        }
    }
}

impl Drop for MtmRuntime {
    fn drop(&mut self) {
        if let Some(mut m) = self.manager.lock().take() {
            m.stop.store(true, Ordering::Relaxed);
            if let Some(j) = m.join.take() {
                let _ = j.join();
            }
        }
    }
}

/// One log-manager pass (§5): retires published redo records in commit
/// order across every log. It takes the oldest head record stamped at or
/// below `horizon`, forces out the lines it names, and truncates its log
/// just past it (one head-word store, one fence), until no such record is
/// left. A live pass reads its horizon from the global clock once, at its
/// start; recovery, whose records all predate it, passes `u64::MAX`. The
/// caller holds the [`CkptShared`] mutex (or, in recovery, owns it).
/// Returns the words reclaimed.
///
/// A crash anywhere in the pass drops no record before an older one for
/// the same word: the older record was published before its transaction
/// released that word's lock, so before the newer transaction took the
/// lock and ticked the clock, so before the pass read the horizon — it is
/// part of the pass, and it is retired first. (Publishing is
/// `Release`/`Acquire`, the tick `AcqRel`, the horizon read `Acquire`.)
fn drain_logs(ckpt: &CkptShared, horizon: u64) -> u64 {
    // A corrupt log poisons itself and drops out; its producer gets the
    // typed error.
    let peek = |t: &LogTruncator| {
        let head = t.peek(&ckpt.pmem).ok().flatten();
        head.filter(|(rec, _)| rec[0] <= horizon)
    };
    let mut heads: Vec<_> = ckpt.truncators.iter().map(peek).collect();
    let mut words = 0;
    while let Some((_, i)) = heads
        .iter()
        .enumerate()
        .filter_map(|(i, h)| Some((h.as_ref()?.0[0], i)))
        .min()
    {
        let (rec, end) = heads[i].take().expect("the oldest head is present");
        // rec = [ts, (addr, val)*]; flush each written line.
        for pair in rec[1..].chunks_exact(2) {
            ckpt.pmem.flush(VAddr(pair[0]));
        }
        words += ckpt.truncators[i].truncate_to(&ckpt.pmem, end);
        heads[i] = peek(&ckpt.truncators[i]);
    }
    words
}

/// The asynchronous log manager (§5): runs `pass` until stopped, sleeping
/// briefly when a pass reclaims nothing.
fn log_manager(pass: impl Fn() -> u64, stop: Arc<AtomicBool>, hard: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        if pass() == 0 {
            std::thread::sleep(std::time::Duration::from_micros(20));
        }
    }
    if hard.load(Ordering::Relaxed) {
        return; // killed: model abrupt process death, no final sweep
    }
    // Graceful shutdown: final sweep so nothing is stranded.
    pass();
}

/// A worker thread's transaction context: owns one per-thread redo log.
pub struct TxThread {
    rt: Arc<MtmRuntime>,
    slot: usize,
    log: Option<TornbitLog>,
    rng: u64,
}

impl std::fmt::Debug for TxThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxThread")
            .field("slot", &self.slot)
            .finish()
    }
}

impl Drop for TxThread {
    fn drop(&mut self) {
        if let Some(log) = self.log.take() {
            self.rt.slots.lock()[self.slot] = Some(log);
        }
    }
}

impl TxThread {
    pub(crate) fn rt(&self) -> &MtmRuntime {
        &self.rt
    }

    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// Next value of the thread-local xorshift-free LCG (used for
    /// randomised backoff).
    pub(crate) fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.rng
    }

    /// This thread's persistent-memory handle (shared with its log).
    pub fn pmem(&self) -> &PMem {
        self.log.as_ref().expect("log present").pmem()
    }

    fn log_mut(&mut self) -> &mut TornbitLog {
        self.log.as_mut().expect("log present")
    }

    /// Runs `body` as a durable memory transaction — the `atomic { … }`
    /// block of Table 3. The closure may run several times (conflict
    /// retry); all persistent access must go through the provided [`Tx`].
    ///
    /// Begin, read/write, and commit are all implicit: the transaction
    /// begins when the closure is entered and commits (redo append, one
    /// fence, write-back, data force) when it returns `Ok`. Returning
    /// [`Tx::cancel`] aborts with no visible effect:
    ///
    /// ```
    /// # use mnemosyne_scm::{ScmSim, ScmConfig};
    /// # use mnemosyne_region::{RegionManager, Regions};
    /// # use mnemosyne_mtm::{MtmRuntime, MtmConfig, TxError};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let dir = std::env::temp_dir().join(format!("mtm-doc-atomic-{}", std::process::id()));
    /// # std::fs::create_dir_all(&dir)?;
    /// # let sim = ScmSim::new(ScmConfig::for_testing(16 << 20));
    /// # let mgr = RegionManager::boot(&sim, &dir)?;
    /// # let (regions, _pmem) = Regions::open(&mgr, 1 << 16)?;
    /// # let regions = std::sync::Arc::new(regions);
    /// # let rt = MtmRuntime::open(&regions, MtmConfig::default())?;
    /// # let (cell, _) = regions.static_area();
    /// let mut th = rt.register_thread()?;
    ///
    /// // Read-modify-write, atomic and durable at the closure's Ok.
    /// let before = th.atomic(|tx| {
    ///     let v = tx.read_u64(cell)?;
    ///     tx.write_u64(cell, v + 1)?;
    ///     Ok(v)
    /// })?;
    /// assert_eq!(before, 0);
    ///
    /// // A cancelled transaction leaves no trace.
    /// let r: Result<(), TxError> = th.atomic(|tx| {
    ///     tx.write_u64(cell, 999)?;
    ///     Err(tx.cancel())
    /// });
    /// assert!(matches!(r, Err(TxError::Cancelled)));
    /// assert_eq!(th.atomic(|tx| tx.read_u64(cell))?, 1);
    /// # drop(th);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// [`TxError::Cancelled`] if the closure returned [`Tx::cancel`], or
    /// [`TxError::Heap`] if a heap operation inside the transaction
    /// failed. Conflicts are retried internally with randomised backoff.
    pub fn atomic<T>(
        &mut self,
        mut body: impl FnMut(&mut Tx<'_>) -> Result<T, TxAbort>,
    ) -> Result<T, TxError> {
        let mut attempt = 0u32;
        loop {
            let mut tx = Tx::begin(self);
            match body(&mut tx) {
                Ok(value) => match tx.commit() {
                    Ok(()) => return Ok(value),
                    Err(TxAbort::Conflict) => {}
                    Err(TxAbort::Cancelled) => return Err(TxError::Cancelled),
                    Err(TxAbort::Heap(e)) => return Err(TxError::Heap(e)),
                    Err(TxAbort::Log(e)) => return Err(TxError::Log(e)),
                },
                Err(TxAbort::Conflict) => tx.abort(),
                Err(TxAbort::Cancelled) => {
                    tx.abort();
                    return Err(TxError::Cancelled);
                }
                Err(TxAbort::Heap(e)) => {
                    tx.abort();
                    return Err(TxError::Heap(e));
                }
                Err(TxAbort::Log(e)) => {
                    tx.abort();
                    return Err(TxError::Log(e));
                }
            }
            // Conflict: randomised exponential backoff.
            attempt = (attempt + 1).min(10);
            let spins = self.next_rand() % (1u64 << attempt);
            self.rt.metrics().backoff_spins.record(spins);
            for _ in 0..spins {
                std::hint::spin_loop();
            }
            if attempt > 2 {
                // A conflict that survives two backoffs usually means the
                // lock owner lost the CPU mid-commit. When threads
                // outnumber cores, spinning harder starves the owner and
                // every retry aborts again — the whole pool livelocks
                // until the scheduler happens to run the owner. Donate
                // the timeslice instead so it can finish and release.
                std::thread::yield_now();
            }
        }
    }
}

impl Tx<'_> {
    /// Commit: validate reads, take a timestamp, make the redo record
    /// durable (one fence), write back, in the synchronous regime force
    /// the data and truncate the log (the second fence), release locks.
    pub(crate) fn commit(mut self) -> Result<(), TxAbort> {
        if self.write_set.is_empty() && self.allocs.is_empty() && self.frees.is_empty() {
            // Read-only: reads were validated incrementally.
            self.release_locks_restoring();
            self.th.rt().metrics().commits.inc();
            return Ok(());
        }
        let commit_timer = Instant::now();

        // Validate the read set.
        let validate_timer = Instant::now();
        for &(idx, version) in &self.read_set {
            match self.th.rt().locks().probe(idx) {
                crate::locks::LockState::Version(v) if v == version => {}
                crate::locks::LockState::Owned(s) if s == self.th.slot() => {}
                _ => {
                    self.release_locks_restoring();
                    self.rollback_allocs();
                    self.th.rt().metrics().aborts.inc();
                    return Err(TxAbort::Conflict);
                }
            }
        }
        self.th
            .rt()
            .metrics()
            .validate_ns
            .record(validate_timer.elapsed().as_nanos() as u64);

        let ts = self.th.rt().clock().tick();

        // Build and persist the redo record: [ts, (addr, val)*].
        let mut record = Vec::with_capacity(1 + self.write_set.len() * 2);
        record.push(ts);
        for (&addr, &val) in &self.write_set {
            record.push(addr);
            record.push(val);
        }
        let truncation = self.th.rt().truncation();
        let log_timer = Instant::now();
        let mut stall_timer: Option<Instant> = None;
        loop {
            match self.th.log_mut().append(&record) {
                Ok(()) => break,
                // Asynchronous regime: wait for the log manager (§5:
                // "program threads may stall until there is free log
                // space"). This loop issues no durability primitives, so
                // under fault injection it must poll explicitly — if the
                // log-manager thread died at a crash point, this is the
                // only place the stalled thread can die too. (A
                // synchronous log is empty between commits, so it is never
                // full; a record larger than the log is RecordTooLarge.)
                Err(LogError::Full { .. }) if truncation == Truncation::Async => {
                    if stall_timer.is_none() {
                        stall_timer = Some(Instant::now());
                        self.th.rt().metrics().truncation_stalls.inc();
                    }
                    self.th.pmem().poll_crash();
                    std::thread::yield_now();
                }
                // RecordTooLarge or a poisoned/corrupt log: retrying the
                // same append can never succeed. Release everything and
                // surface the typed error.
                Err(e) => {
                    self.release_locks_restoring();
                    self.rollback_allocs();
                    self.th.rt().metrics().aborts.inc();
                    return Err(TxAbort::Log(e));
                }
            }
        }
        if let Some(t) = stall_timer {
            self.th
                .rt()
                .metrics()
                .stall_ns
                .record(t.elapsed().as_nanos() as u64);
        }
        // The single commit fence: the record is durable, but not yet
        // visible to the async truncator (write-back hasn't happened).
        self.th.log_mut().flush_unpublished();
        self.th
            .rt()
            .metrics()
            .log_ns
            .record(log_timer.elapsed().as_nanos() as u64);

        // Write back buffered values (lazy version management).
        let writeback_timer = Instant::now();
        for (&addr, &val) in &self.write_set {
            self.th.pmem().store_u64(VAddr(addr), val);
        }
        // Now the async truncator may consume (flush + truncate) the
        // record, and the backlog accounting sees it.
        self.th.log_mut().publish();
        self.th
            .rt()
            .metrics()
            .writeback_ns
            .record(writeback_timer.elapsed().as_nanos() as u64);

        if truncation == Truncation::Sync {
            // §5 synchronous truncation, while every write lock is still
            // held: force the distinct modified lines out (`flush` puts a
            // line on media before it returns in this model), then drop
            // the record — one head-word store and the commit's closing
            // fence. A log therefore holds a record only while its
            // transaction holds that record's locks.
            let truncate_timer = Instant::now();
            let mut lines: Vec<u64> = self.write_set.keys().map(|a| a & !63).collect();
            lines.sort_unstable();
            lines.dedup();
            for line in lines {
                self.th.pmem().flush(VAddr(line));
            }
            self.th.log_mut().truncate_fenced();
            self.th
                .rt()
                .metrics()
                .truncate_ns
                .record(truncate_timer.elapsed().as_nanos() as u64);
        }

        // Publish the new version and release ownership.
        for &(idx, _) in &self.lock_set {
            self.th.rt().locks().release(idx, ts);
        }
        self.lock_set.clear();

        // Deferred frees happen after the commit point.
        if !self.frees.is_empty() {
            if let Some(heap) = self.th.rt().heap() {
                for &addr in &self.frees {
                    let freed = heap.pfree_addr(addr);
                    debug_assert!(freed.is_ok(), "deferred pfree failed: {freed:?}");
                }
            }
        }
        self.th.rt().metrics().commits.inc();
        self.th
            .rt()
            .metrics()
            .commit_ns
            .record(commit_timer.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Abort: restore lock versions, release transaction-local
    /// allocations, forget buffered writes.
    pub(crate) fn abort(mut self) {
        self.release_locks_restoring();
        self.rollback_allocs();
        self.th.rt().metrics().aborts.inc();
    }

    fn release_locks_restoring(&mut self) {
        for &(idx, old_version) in &self.lock_set {
            self.th.rt().locks().release(idx, old_version);
        }
        self.lock_set.clear();
        self.owned.clear();
    }

    fn rollback_allocs(&mut self) {
        if self.allocs.is_empty() {
            return;
        }
        if let Some(heap) = self.th.rt().heap() {
            for &addr in &self.allocs {
                let _ = heap.pfree_addr(addr);
            }
        }
        self.allocs.clear();
    }
}
