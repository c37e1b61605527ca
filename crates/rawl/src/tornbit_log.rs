//! The tornbit RAWL: atomic log appends with a single fence (§4.4).
//!
//! Every 64-bit log word carries 63 payload bits plus a torn bit whose
//! sense flips on each pass over the circular buffer. A record is appended
//! as a stream of such words with weakly-ordered streaming stores; one
//! fence then makes the whole append durable. On recovery the log manager
//! scans forward from the head: a word whose torn bit is out of sequence
//! marks a partial (torn) append, which is discarded (Figure 2).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mnemosyne_region::{PMem, VAddr};

use crate::error::LogError;
use crate::metrics::LogMetrics;
use crate::shared::{LogShared, LOG_HEADER_BYTES, TORNBIT_MAGIC};
use crate::tornbit::{
    packed_len, record_checksum, torn_bit_for_pass, BitPacker, BitUnpacker, PAYLOAD_MASK,
};

/// Producer handle to a tornbit RAWL. Single producer: `&mut self` on
/// mutating operations enforces it.
pub struct TornbitLog {
    shared: Arc<LogShared>,
    pmem: PMem,
    records_appended: u64,
    metrics: LogMetrics,
}

impl std::fmt::Debug for TornbitLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TornbitLog")
            .field("capacity", &self.shared.capacity)
            .field("len_words", &self.len_words())
            .finish()
    }
}

/// Outcome of decoding one record from the torn-bit-consistent region.
///
/// The distinction between the two failure arms is the heart of the
/// corruption model: within the torn-consistent prefix every word is a
/// retired current-pass word, so a record that *ends beyond* the prefix is
/// a benign partial append (the crash interrupted it), while a record that
/// is fully present but internally inconsistent can only be media
/// corruption — a torn append never produces one.
enum Decoded {
    /// A complete, checksum-verified record and the next stream position.
    Record(Vec<u64>, u64),
    /// A benign torn tail: the record extends past the valid region (or
    /// the region is too short for even a header). Recovery discards it.
    Incomplete,
    /// Provable media corruption at `position`.
    Corrupt { position: u64, detail: &'static str },
}

/// Decodes the record starting at stream position `p` (which must be below
/// `end`). Records are packed as `[len, payload..., checksum]`.
fn decode_record(read_word: &impl Fn(u64) -> u64, p: u64, end: u64, capacity: u64) -> Decoded {
    if end - p < 2 {
        return Decoded::Incomplete; // even a zero-length record needs two chunks
    }
    // First two chunks yield the 64-bit length header.
    let mut header = None;
    let mut un = BitUnpacker::new();
    for i in 0..2 {
        un.push(read_word(p + i) & PAYLOAD_MASK, |w| {
            if header.is_none() {
                header = Some(w)
            }
        });
    }
    let len = match header {
        Some(l) => l,
        None => return Decoded::Incomplete,
    };
    // A length at or above the capacity cannot have been written by
    // `append` (it bounds-checks first), and a torn append still carries
    // its true length (words retire whole or not at all) — so an oversized
    // length inside the torn-consistent region is corruption. Checking
    // against `capacity` first also keeps `packed_len` overflow-free.
    if len >= capacity {
        return Decoded::Corrupt {
            position: p,
            detail: "implausible record length",
        };
    }
    let m = packed_len(2 + len);
    if m > capacity {
        return Decoded::Corrupt {
            position: p,
            detail: "record length exceeds log capacity",
        };
    }
    if p + m > end {
        return Decoded::Incomplete; // benign torn tail
    }
    // Decode the full record: length word, payload, checksum word.
    let want = 2 + len as usize;
    let mut words = Vec::with_capacity(want);
    let mut un = BitUnpacker::new();
    for i in 0..m {
        if words.len() >= want {
            break;
        }
        un.push(read_word(p + i) & PAYLOAD_MASK, |w| {
            if words.len() < want {
                words.push(w)
            }
        });
    }
    if words.len() != want {
        return Decoded::Corrupt {
            position: p,
            detail: "truncated record encoding",
        };
    }
    let payload = &words[1..1 + len as usize];
    if words[1 + len as usize] != record_checksum(payload) {
        return Decoded::Corrupt {
            position: p,
            detail: "record checksum mismatch",
        };
    }
    let mut payload = words;
    payload.pop();
    payload.remove(0);
    Decoded::Record(payload, p + m)
}

impl TornbitLog {
    /// Creates a fresh tornbit log at `base` with a buffer of
    /// `capacity_words` words. The buffer is zero-initialised (§4.4), so
    /// pass-0 writes (torn bit `1`) are distinguishable from never-written
    /// words.
    ///
    /// # Errors
    /// Fails if the capacity is invalid.
    ///
    /// # Panics
    /// Panics if the region at `base` is unmapped or too small.
    pub fn create(pmem: PMem, base: VAddr, capacity_words: u64) -> Result<TornbitLog, LogError> {
        LogShared::validate_capacity(capacity_words)?;
        for i in 0..capacity_words {
            pmem.wtstore_u64(base.add(LOG_HEADER_BYTES + i * 8), 0);
        }
        pmem.fence();
        LogShared::write_header(&pmem, base, TORNBIT_MAGIC, capacity_words);
        let metrics = LogMetrics::tornbit(pmem.telemetry());
        Ok(TornbitLog {
            shared: Arc::new(LogShared::new(base, capacity_words, 0)),
            pmem,
            records_appended: 0,
            metrics,
        })
    }

    /// Whether a tornbit log header is present at `base` (used to decide
    /// between [`TornbitLog::create`] and [`TornbitLog::recover`]).
    pub fn exists(pmem: &PMem, base: VAddr) -> bool {
        pmem.read_u64(base) == TORNBIT_MAGIC
    }

    /// Recovers the log at `base` if one exists there, otherwise creates a
    /// fresh one of `capacity_words`. Returns the producer handle plus any
    /// records recovered (empty for a fresh log). This is the open path
    /// for subsystems that keep a *set* of logs and may grow it between
    /// boots (e.g. the sharded persistent heap adding shard logs).
    ///
    /// # Errors
    /// Propagates [`TornbitLog::create`] / [`TornbitLog::recover`] errors.
    pub fn open_or_create(
        pmem: PMem,
        base: VAddr,
        capacity_words: u64,
    ) -> Result<(TornbitLog, Vec<Vec<u64>>), LogError> {
        if TornbitLog::exists(&pmem, base) {
            TornbitLog::recover(pmem, base)
        } else {
            TornbitLog::create(pmem, base, capacity_words).map(|log| (log, Vec::new()))
        }
    }

    /// Recovers a tornbit log after a failure: locates the head, scans
    /// forward while torn bits are in sequence, decodes the complete
    /// records (verifying each record's checksum), discards a trailing
    /// partial append, and sanitises the torn region so a repeated crash
    /// cannot resurrect it. Returns the log (positioned after the last
    /// complete record) and the recovered records in order.
    ///
    /// # Errors
    /// [`LogError::BadHeader`] / [`LogError::Corrupt`] if the header is
    /// damaged, and [`LogError::Corrupt`] if a record inside the durable
    /// region fails its checksum — a torn append can only truncate the
    /// tail, so an internally inconsistent record is media corruption and
    /// must not be replayed.
    pub fn recover(pmem: PMem, base: VAddr) -> Result<(TornbitLog, Vec<Vec<u64>>), LogError> {
        let metrics = LogMetrics::tornbit(pmem.telemetry());
        metrics.recoveries.inc();
        let header = LogShared::read_header(&pmem, base, TORNBIT_MAGIC);
        if header.is_err() {
            metrics.corruptions.inc();
        }
        let (capacity, head) = header?;
        let shared = LogShared::new(base, capacity, head);
        let read_word = |pos: u64| pmem.read_u64(shared.word_addr(pos));

        // Scan: the valid region is the maximal torn-bit-consistent prefix.
        let mut valid_end = head;
        while valid_end < head + capacity {
            let w = read_word(valid_end);
            if w >> 63 != torn_bit_for_pass(valid_end / capacity) {
                break;
            }
            valid_end += 1;
        }

        // Decode complete records.
        let mut records = Vec::new();
        let mut p = head;
        loop {
            match decode_record(&read_word, p, valid_end, capacity) {
                Decoded::Record(payload, next) => {
                    records.push(payload);
                    p = next;
                }
                Decoded::Incomplete => break,
                Decoded::Corrupt { position, detail } => {
                    metrics.corruptions.inc();
                    return Err(LogError::Corrupt { position, detail });
                }
            }
        }

        // Sanitise [p, valid_end): overwrite with the *opposite* torn bit
        // so the partial append can never be mistaken for live data by a
        // later recovery.
        for pos in p..valid_end {
            let bad = (1 - torn_bit_for_pass(pos / capacity)) << 63;
            pmem.wtstore_u64(shared.word_addr(pos), bad);
        }
        if p < valid_end {
            metrics.torn_tails.inc();
            pmem.fence();
        }
        metrics.recovered_records.add(records.len() as u64);

        let shared = Arc::new(LogShared::new(base, capacity, head));
        shared.tail.store(p, Ordering::Relaxed);
        shared.fenced.store(p, Ordering::Relaxed);
        Ok((
            TornbitLog {
                shared,
                pmem,
                records_appended: 0,
                metrics,
            },
            records,
        ))
    }

    /// Appends a record (`log_append`): queues streaming stores for the
    /// packed words (`[len, payload…, checksum]`). **Not durable** until
    /// [`TornbitLog::flush`]; separate appends become durable in order, so
    /// after a crash the log is always a prefix of what was appended.
    ///
    /// # Errors
    /// [`LogError::Full`] if the truncator has not freed enough space,
    /// [`LogError::RecordTooLarge`] if the record can never fit, or
    /// [`LogError::Corrupt`] if the truncator has poisoned the log after
    /// detecting media corruption (waiting for space would deadlock).
    pub fn append(&mut self, payload: &[u64]) -> Result<(), LogError> {
        if self.shared.poisoned.load(Ordering::Acquire) {
            return Err(LogError::Corrupt {
                position: self.shared.head.load(Ordering::Relaxed),
                detail: "log poisoned: truncator detected media corruption",
            });
        }
        let m = packed_len(2 + payload.len() as u64);
        if m > self.shared.capacity {
            return Err(LogError::RecordTooLarge {
                needed: m,
                capacity: self.shared.capacity,
            });
        }
        let free = self.shared.free_words();
        if m > free {
            return Err(LogError::Full { needed: m, free });
        }
        let mut pos = self.shared.tail.load(Ordering::Relaxed);
        let cap = self.shared.capacity;
        {
            let shared = &self.shared;
            let pmem = &self.pmem;
            let mut emit = |chunk: u64| {
                let torn = torn_bit_for_pass(pos / cap) << 63;
                pmem.wtstore_u64(shared.word_addr(pos), chunk | torn);
                pos += 1;
            };
            let mut packer = BitPacker::new();
            packer.push(payload.len() as u64, &mut emit);
            for &w in payload {
                packer.push(w, &mut emit);
            }
            packer.push(record_checksum(payload), &mut emit);
            packer.finish(&mut emit);
        }
        debug_assert_eq!(pos, self.shared.tail.load(Ordering::Relaxed) + m);
        let old_tail = self.shared.tail.load(Ordering::Relaxed);
        self.shared.tail.store(pos, Ordering::Relaxed);
        self.records_appended += 1;
        self.metrics.appends.inc();
        self.metrics.append_words.add(payload.len() as u64);
        // A pass boundary crossed by this append is a torn-bit sense
        // reversal (a wrap of the circular buffer).
        self.metrics.wraps.add(pos / cap - old_tail / cap);
        self.metrics.occupancy_hwm.record(self.len_words());
        Ok(())
    }

    /// `log_flush`: one fence makes every prior append durable and
    /// publishes them to the asynchronous truncator.
    pub fn flush(&mut self) {
        self.pmem.fence();
        self.shared
            .fenced
            .store(self.shared.tail.load(Ordering::Relaxed), Ordering::Release);
        self.metrics.flushes.inc();
    }

    /// Like [`TornbitLog::flush`], but does **not** publish the records to
    /// the asynchronous truncator yet. The transaction system uses this at
    /// commit: the redo record must be durable *before* values are written
    /// back, but the truncator must not consume (and truncate) the record
    /// until the write-back has happened — otherwise it would flush stale
    /// lines and discard the only copy of the data. Call
    /// [`TornbitLog::publish`] once the dependent writes are issued.
    pub fn flush_unpublished(&mut self) {
        self.pmem.fence();
        self.metrics.flushes.inc();
    }

    /// Publishes all fenced records to the asynchronous truncator; see
    /// [`TornbitLog::flush_unpublished`].
    pub fn publish(&mut self) {
        self.shared
            .fenced
            .store(self.shared.tail.load(Ordering::Relaxed), Ordering::Release);
    }

    /// Synchronous truncation (`log_truncate`): durably drops every record
    /// written so far (one word write + one fence).
    pub fn truncate_all(&mut self) {
        self.flush();
        let tail = self.shared.tail.load(Ordering::Relaxed);
        self.shared.truncate_to(&self.pmem, tail);
        self.metrics.truncations.inc();
    }

    /// Producer-side truncation of a log whose appends are all fenced
    /// already: durably drops every record for one head-word write plus
    /// one fence — without the extra flush fence of
    /// [`TornbitLog::truncate_all`]. Free when the log is empty.
    ///
    /// The caller asserts that every append so far was made durable by
    /// [`TornbitLog::flush`]/[`TornbitLog::flush_unpublished`] **and** that
    /// the data those records describe is durable, so recovery no longer
    /// needs them. The synchronous transaction runtime calls this at
    /// commit, before it releases the transaction's write locks.
    pub fn truncate_fenced(&mut self) {
        let tail = self.shared.tail.load(Ordering::Relaxed);
        self.shared.fenced.store(tail, Ordering::Release);
        if self.shared.truncate_to(&self.pmem, tail) > 0 {
            self.metrics.truncations.inc();
        }
    }

    /// Creates the single consumer handle for asynchronous truncation from
    /// another thread. `pmem` must be a handle for that thread.
    pub fn truncator(&self, pmem: PMem) -> LogTruncator {
        let metrics = LogMetrics::tornbit(pmem.telemetry());
        LogTruncator {
            shared: Arc::clone(&self.shared),
            pmem,
            metrics,
        }
    }

    /// Words currently live (appended, not truncated).
    pub fn len_words(&self) -> u64 {
        self.shared.tail.load(Ordering::Relaxed) - self.shared.head.load(Ordering::Acquire)
    }

    /// Free words available for appends.
    pub fn free_words(&self) -> u64 {
        self.shared.free_words()
    }

    /// Buffer capacity in words.
    pub fn capacity(&self) -> u64 {
        self.shared.capacity
    }

    /// Records appended through this handle.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Whether the truncator has poisoned this log after detecting media
    /// corruption (appends now fail with [`LogError::Corrupt`]).
    pub fn poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    /// The producer-side persistent-memory handle (for callers that need
    /// to interleave other persistent operations on the same thread).
    pub fn pmem(&self) -> &PMem {
        &self.pmem
    }
}

/// Consumer handle: drains durable records and truncates the log from a
/// separate thread (§4.4 asynchronous truncation; §5's log-manager
/// thread).
pub struct LogTruncator {
    shared: Arc<LogShared>,
    pmem: PMem,
    metrics: LogMetrics,
}

impl std::fmt::Debug for LogTruncator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogTruncator")
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl LogTruncator {
    /// Reads every durable (fenced) record, invokes `f` on each, then
    /// durably truncates past them. Returns the number of records
    /// consumed.
    ///
    /// # Errors
    /// [`LogError::Corrupt`] if a fenced record fails its checksum. The
    /// records consumed before the corrupt one are still truncated (they
    /// were delivered to `f`), the log is poisoned so the producer stops
    /// appending, and the damaged region is left in place for recovery to
    /// report.
    pub fn drain(&self, f: impl FnMut(&[u64])) -> Result<usize, LogError> {
        self.drain_incremental(usize::MAX, f)
    }

    /// Like [`LogTruncator::drain`], but durably truncates every
    /// `step_records` records *during* the pass instead of once at the
    /// end, so a producer blocked on a full log sees freed space after a
    /// bounded amount of consumer work — what the transaction runtime's
    /// log manager uses to keep `mtm.truncation_stalls` bounded under
    /// sustained load.
    ///
    /// Each intermediate truncation costs one word write + one fence on
    /// the consumer handle; `step_records == usize::MAX` recovers the
    /// single-truncation behaviour of `drain`. A `step_records` of 0 is
    /// treated as 1.
    ///
    /// # Errors
    /// Same contract as [`LogTruncator::drain`]: on a checksum failure the
    /// records consumed before the corrupt one are still truncated and the
    /// log is poisoned.
    pub fn drain_incremental(
        &self,
        step_records: usize,
        mut f: impl FnMut(&[u64]),
    ) -> Result<usize, LogError> {
        let step = step_records.max(1);
        let end = self.shared.fenced.load(Ordering::Acquire);
        let mut p = self.shared.head.load(Ordering::Relaxed);
        let read_word = |pos: u64| self.pmem.read_u64(self.shared.word_addr(pos));
        let mut n = 0;
        let mut since_truncate = 0;
        let mut truncated_to = p;
        let mut corrupt = None;
        while p < end {
            match decode_record(&read_word, p, end, self.shared.capacity) {
                Decoded::Record(payload, next) => {
                    f(&payload);
                    p = next;
                    n += 1;
                    since_truncate += 1;
                    if since_truncate >= step {
                        self.shared.truncate_to(&self.pmem, p);
                        self.metrics.truncations.inc();
                        truncated_to = p;
                        since_truncate = 0;
                    }
                }
                Decoded::Incomplete => break,
                Decoded::Corrupt { position, detail } => {
                    corrupt = Some(LogError::Corrupt { position, detail });
                    break;
                }
            }
        }
        if p > truncated_to {
            self.shared.truncate_to(&self.pmem, p);
            self.metrics.truncations.inc();
        }
        match corrupt {
            Some(e) => {
                self.metrics.corruptions.inc();
                self.shared.poisoned.store(true, Ordering::Release);
                Err(e)
            }
            None => Ok(n),
        }
    }

    /// Stream position of the oldest live word (the truncate point).
    pub fn head_pos(&self) -> u64 {
        self.shared.head.load(Ordering::Acquire)
    }

    /// Words awaiting consumption. (Head first: it only ever advances
    /// to a position already published as fenced, so the later load can
    /// not come out smaller even while a producer truncates its own log.)
    pub fn backlog_words(&self) -> u64 {
        let head = self.shared.head.load(Ordering::Acquire);
        self.shared.fenced.load(Ordering::Acquire) - head
    }

    /// Whether this log was poisoned by a corruption detection; a poisoned
    /// log should no longer be drained.
    pub fn poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    /// The consumer-side persistent-memory handle.
    pub fn pmem(&self) -> &PMem {
        &self.pmem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne_region::{RegionManager, Regions};
    use mnemosyne_scm::{CrashPolicy, ScmConfig, ScmSim};
    use std::fs;
    use std::path::PathBuf;

    struct Env {
        sim: ScmSim,
        regions: Regions,
        log_base: VAddr,
        dir: PathBuf,
    }

    fn setup(capacity_words: u64) -> (Env, TornbitLog) {
        let dir = std::env::temp_dir().join(format!(
            "rawl-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let sim = ScmSim::new(ScmConfig::for_testing(8 << 20));
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let (regions, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        let r = regions
            .pmap("log", LOG_HEADER_BYTES + capacity_words * 8, &pmem)
            .unwrap();
        let log = TornbitLog::create(pmem, r.addr, capacity_words).unwrap();
        (
            Env {
                sim,
                regions,
                log_base: r.addr,
                dir,
            },
            log,
        )
    }

    impl Drop for Env {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn recover(env: &Env) -> (TornbitLog, Vec<Vec<u64>>) {
        TornbitLog::recover(env.regions.pmem_handle(), env.log_base).unwrap()
    }

    #[test]
    fn fenced_append_survives_crash() {
        let (env, mut log) = setup(256);
        log.append(&[1, 2, 3]).unwrap();
        log.flush();
        env.sim.crash(CrashPolicy::DropAll);
        let (_log, records) = recover(&env);
        assert_eq!(records, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn unfenced_append_discarded() {
        let (env, mut log) = setup(256);
        log.append(&[1, 2, 3]).unwrap();
        // No flush.
        env.sim.crash(CrashPolicy::DropAll);
        let (_log, records) = recover(&env);
        assert!(records.is_empty());
    }

    #[test]
    fn torn_append_discarded_but_prior_kept() {
        let (env, mut log) = setup(256);
        log.append(&[10, 20]).unwrap();
        log.flush();
        log.append(&[30, 40, 50, 60, 70]).unwrap();
        // Second append unfenced: random subset of its words retire.
        env.sim.crash(CrashPolicy::random(99));
        let (_log, records) = recover(&env);
        assert!(!records.is_empty(), "first (fenced) record must survive");
        assert_eq!(records[0], vec![10, 20]);
        // Second record either fully survived (all its words happened to
        // retire) or was discarded — never partially delivered.
        if records.len() > 1 {
            assert_eq!(records[1], vec![30, 40, 50, 60, 70]);
        }
    }

    #[test]
    fn single_fence_per_append_flush_cycle() {
        let (env, mut log) = setup(256);
        let before = env.sim.stats().fences;
        log.append(&[1, 2, 3, 4]).unwrap();
        log.flush();
        assert_eq!(
            env.sim.stats().fences - before,
            1,
            "tornbit needs ONE fence"
        );
    }

    #[test]
    fn multiple_records_roundtrip_in_order() {
        let (env, mut log) = setup(1024);
        for i in 0..10u64 {
            let rec: Vec<u64> = (0..=i).collect();
            log.append(&rec).unwrap();
        }
        log.flush();
        env.sim.crash(CrashPolicy::DropAll);
        let (_log, records) = recover(&env);
        assert_eq!(records.len(), 10);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.len(), i + 1);
        }
    }

    #[test]
    fn empty_record_supported() {
        let (env, mut log) = setup(64);
        log.append(&[]).unwrap();
        log.flush();
        env.sim.crash(CrashPolicy::DropAll);
        let (_log, records) = recover(&env);
        assert_eq!(records, vec![Vec::<u64>::new()]);
    }

    #[test]
    fn fills_up_and_reports_full() {
        let (_env, mut log) = setup(16);
        log.append(&[1, 2, 3, 4]).unwrap(); // 5 words -> 6 chunks
        match log.append(&[0; 12]) {
            Err(LogError::Full { .. }) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        match log.append(&[0; 100]) {
            Err(LogError::RecordTooLarge { .. }) => {}
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncate_frees_space_and_drops_records() {
        let (env, mut log) = setup(32);
        log.append(&[1; 10]).unwrap();
        log.truncate_all();
        assert_eq!(log.free_words(), 32);
        env.sim.crash(CrashPolicy::DropAll);
        let (log2, records) = recover(&env);
        assert!(records.is_empty());
        assert_eq!(log2.free_words(), 32);
    }

    #[test]
    fn wraps_across_many_passes() {
        let (env, mut log) = setup(64);
        // 50 append+truncate cycles walk the buffer through multiple
        // passes, exercising torn-bit sense reversal.
        for i in 0..50u64 {
            log.append(&[i, i * 3, i * 7]).unwrap();
            log.truncate_all();
        }
        log.append(&[777, 888]).unwrap();
        log.flush();
        env.sim.crash(CrashPolicy::DropAll);
        let (_log, records) = recover(&env);
        assert_eq!(records, vec![vec![777, 888]]);
    }

    #[test]
    fn recovery_is_idempotent_after_sanitisation() {
        let (env, mut log) = setup(256);
        log.append(&[1]).unwrap();
        log.flush();
        log.append(&[2; 20]).unwrap(); // torn
        env.sim.crash(CrashPolicy::random(5));
        let (_l, r1) = recover(&env);
        // Crash again immediately (recovery state was sanitised+fenced).
        env.sim.crash(CrashPolicy::DropAll);
        let (_l, r2) = recover(&env);
        assert_eq!(r1.first(), r2.first());
        assert_eq!(r2.first(), Some(&vec![1]));
    }

    #[test]
    fn bit_flip_injection_detected() {
        let (env, mut log) = setup(256);
        log.append(&[5, 6, 7]).unwrap();
        log.flush();
        // Flip the torn bit of the second log word directly in media,
        // emulating the §6.2 fault-injection experiment.
        let pmem = env.regions.pmem_handle();
        let addr = env.log_base.add(LOG_HEADER_BYTES + 8);
        let w = pmem.read_u64(addr);
        pmem.store_u64(addr, w ^ (1 << 63));
        pmem.flush(addr);
        pmem.fence();
        env.sim.crash(CrashPolicy::DropAll);
        let (_log, records) = recover(&env);
        assert!(
            records.is_empty(),
            "a flipped torn bit must invalidate the append"
        );
    }

    #[test]
    fn async_truncator_drains_only_fenced_records() {
        let (_env, mut log) = setup(256);
        let tr = log.truncator(_env.regions.pmem_handle());
        log.append(&[1, 2]).unwrap();
        log.flush();
        log.append(&[3, 4]).unwrap(); // not fenced yet
        let mut seen = Vec::new();
        let n = tr.drain(|r| seen.push(r.to_vec())).unwrap();
        assert_eq!(n, 1);
        assert_eq!(seen, vec![vec![1, 2]]);
        log.flush();
        let n = tr.drain(|r| seen.push(r.to_vec())).unwrap();
        assert_eq!(n, 1);
        assert_eq!(seen[1], vec![3, 4]);
        // Space reclaimed for the producer.
        assert_eq!(log.free_words(), 256);
    }

    #[test]
    fn drain_incremental_frees_space_during_the_pass() {
        let (_env, mut log) = setup(256);
        let tr = log.truncator(_env.regions.pmem_handle());
        for i in 0..8u64 {
            log.append(&[i, i + 1]).unwrap();
        }
        log.flush();
        let backlog_at_start = tr.backlog_words();
        assert!(backlog_at_start > 0);
        // With step=1 the head must advance after every record, so the
        // backlog seen from inside the callback strictly shrinks: a
        // producer blocked on Full would observe freed space mid-pass.
        let mut backlogs = Vec::new();
        let n = tr
            .drain_incremental(1, |_| backlogs.push(tr.backlog_words()))
            .unwrap();
        assert_eq!(n, 8);
        // The callback for record k runs before record k's truncation, so
        // the first observation equals the full backlog and each later one
        // is strictly smaller than its predecessor.
        assert_eq!(backlogs[0], backlog_at_start);
        for w in backlogs.windows(2) {
            assert!(w[1] < w[0], "backlog must shrink mid-pass: {backlogs:?}");
        }
        assert_eq!(tr.backlog_words(), 0);
        assert_eq!(log.free_words(), 256);
    }

    #[test]
    fn drain_incremental_step_counts_truncation_fences() {
        let (env, mut log) = setup(512);
        let tr = log.truncator(env.regions.pmem_handle());
        for i in 0..9u64 {
            log.append(&[i]).unwrap();
        }
        log.flush();
        let before = env.sim.stats().fences;
        let n = tr.drain_incremental(4, |_| {}).unwrap();
        assert_eq!(n, 9);
        // 9 records at step 4: truncations after records 4 and 8, plus the
        // final catch-up truncation — one fence each.
        assert_eq!(env.sim.stats().fences - before, 3);
        assert_eq!(log.free_words(), 512);
    }

    #[test]
    fn producer_watermark_truncation_is_single_fence() {
        let (env, mut log) = setup(256);
        log.append(&[1, 2, 3]).unwrap();
        log.append(&[4, 5]).unwrap();
        log.flush();
        let before = env.sim.stats().fences;
        log.truncate_fenced();
        assert_eq!(
            env.sim.stats().fences - before,
            1,
            "dropping fenced records must cost exactly one fence"
        );
        assert_eq!(log.free_words(), 256);
        // An empty log has nothing to drop: free.
        let before = env.sim.stats();
        log.truncate_fenced();
        assert_eq!(env.sim.stats().fences, before.fences);
        assert_eq!(env.sim.stats().wtstore_words, before.wtstore_words);
        // Only what is appended afterwards survives.
        log.append(&[6]).unwrap();
        log.flush();
        env.sim.crash(CrashPolicy::DropAll);
        let (_log, records) = recover(&env);
        assert_eq!(records, vec![vec![6]]);
    }

    #[test]
    fn async_truncation_across_threads() {
        let (env, mut log) = setup(128);
        let tr = log.truncator(env.regions.pmem_handle());
        let total = 200u64;
        let consumer = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut seen = 0u64;
            while seen < total {
                seen += tr.drain(|r| sum += r[0]).unwrap() as u64;
                std::thread::yield_now();
            }
            sum
        });
        let mut expect = 0u64;
        for i in 0..total {
            loop {
                match log.append(&[i, i, i]) {
                    Ok(()) => break,
                    Err(LogError::Full { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
            log.flush();
            expect += i;
        }
        assert_eq!(consumer.join().unwrap(), expect);
    }

    #[test]
    fn payload_bit_flip_yields_typed_corruption_error() {
        let (env, mut log) = setup(256);
        log.append(&[5, 6, 7]).unwrap();
        log.flush();
        // Flip a *payload* bit (not the torn bit) of a durable record: the
        // torn-bit scan still accepts the word, so only the checksum can
        // catch it.
        let pmem = env.regions.pmem_handle();
        let addr = env.log_base.add(LOG_HEADER_BYTES + 2 * 8);
        let w = pmem.read_u64(addr);
        pmem.store_u64(addr, w ^ 1);
        pmem.flush(addr);
        pmem.fence();
        env.sim.crash(mnemosyne_scm::CrashPolicy::DropAll);
        match TornbitLog::recover(env.regions.pmem_handle(), env.log_base) {
            Err(LogError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_capacity_in_header_is_typed_not_panic() {
        let (env, mut log) = setup(64);
        log.append(&[1]).unwrap();
        log.flush();
        let pmem = env.regions.pmem_handle();
        // Overwrite the capacity header word with garbage far beyond the
        // mapped region.
        pmem.store_u64(env.log_base.add(8), 1 << 30);
        pmem.flush(env.log_base.add(8));
        pmem.fence();
        env.sim.crash(mnemosyne_scm::CrashPolicy::DropAll);
        assert!(matches!(
            TornbitLog::recover(env.regions.pmem_handle(), env.log_base),
            Err(LogError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncator_poisons_log_on_corrupt_record() {
        let (env, mut log) = setup(256);
        let tr = log.truncator(env.regions.pmem_handle());
        log.append(&[11, 22, 33]).unwrap();
        log.flush();
        // Corrupt a payload word of the fenced record in place.
        let pmem = env.regions.pmem_handle();
        let addr = env.log_base.add(LOG_HEADER_BYTES + 2 * 8);
        let w = pmem.read_u64(addr);
        pmem.store_u64(addr, w ^ (1 << 17));
        pmem.flush(addr);
        pmem.fence();
        assert!(matches!(tr.drain(|_| {}), Err(LogError::Corrupt { .. })));
        // The producer must now get a typed error instead of spinning on
        // Full forever.
        assert!(matches!(log.append(&[1]), Err(LogError::Corrupt { .. })));
    }

    #[test]
    fn recover_rejects_wrong_magic() {
        let (env, _log) = setup(64);
        let pmem = env.regions.pmem_handle();
        pmem.store_u64(env.log_base, 0x1234);
        pmem.flush(env.log_base);
        pmem.fence();
        assert!(matches!(
            TornbitLog::recover(env.regions.pmem_handle(), env.log_base),
            Err(LogError::BadHeader)
        ));
    }
}
