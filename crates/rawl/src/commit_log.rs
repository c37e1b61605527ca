//! Baseline RAWL using commit records and two fences per append.
//!
//! This is the conventional file-system/database solution to torn writes
//! that §4.4 describes: "write the data, wait for the data writes to
//! complete with a fence, then write a commit record, and wait for the
//! commit record to complete with a fence". Table 6 measures it against
//! the tornbit log; §6.3.1 finds the tornbit log up to 100% faster below
//! 2 KB records and slower above (bit manipulation scales with data, the
//! extra fence is constant).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mnemosyne_region::{PMem, VAddr};

use crate::error::LogError;
use crate::metrics::LogMetrics;
use crate::shared::{LogShared, COMMIT_MAGIC};
use crate::tornbit::record_checksum;

/// Tag mixed with the stream position to form a commit word; including the
/// position keeps a stale commit word from a previous pass from validating
/// a new record.
const COMMIT_TAG: u64 = 0xc0a1_77ed_5ea1_ed00;

#[inline]
fn commit_word(pos: u64) -> u64 {
    COMMIT_TAG ^ pos
}

/// A commit-record log. Records are stored unpacked (full 64-bit payload
/// words), followed by a checksum word and one commit word; each append
/// costs two fences. The commit word proves the append completed; the
/// checksum proves the payload was not damaged afterwards (a committed
/// record failing its checksum is media corruption, reported as a typed
/// error rather than replayed).
pub struct CommitRecordLog {
    shared: Arc<LogShared>,
    pmem: PMem,
    metrics: LogMetrics,
}

impl std::fmt::Debug for CommitRecordLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitRecordLog")
            .field("capacity", &self.shared.capacity)
            .field("len_words", &self.len_words())
            .finish()
    }
}

impl CommitRecordLog {
    /// Creates a fresh commit-record log at `base` with `capacity_words`
    /// buffer words.
    ///
    /// # Errors
    /// Fails if the capacity is invalid.
    ///
    /// # Panics
    /// Panics if the region at `base` is unmapped or too small.
    pub fn create(
        pmem: PMem,
        base: VAddr,
        capacity_words: u64,
    ) -> Result<CommitRecordLog, LogError> {
        LogShared::validate_capacity(capacity_words)?;
        for i in 0..capacity_words {
            pmem.wtstore_u64(base.add(crate::shared::LOG_HEADER_BYTES + i * 8), 0);
        }
        pmem.fence();
        LogShared::write_header(&pmem, base, COMMIT_MAGIC, capacity_words);
        let metrics = LogMetrics::commit_record(pmem.telemetry());
        Ok(CommitRecordLog {
            shared: Arc::new(LogShared::new(base, capacity_words, 0)),
            pmem,
            metrics,
        })
    }

    /// Recovers the log after a failure: walks records from the head,
    /// accepting each only if its commit word is present and matches its
    /// position, then verifying its payload checksum. Returns the log and
    /// the recovered records.
    ///
    /// # Errors
    /// [`LogError::BadHeader`] / [`LogError::Corrupt`] if the header is
    /// damaged, and [`LogError::Corrupt`] if a *committed* record fails
    /// its checksum — the commit word proves the append finished, so an
    /// inconsistent payload can only be media corruption.
    pub fn recover(pmem: PMem, base: VAddr) -> Result<(CommitRecordLog, Vec<Vec<u64>>), LogError> {
        let metrics = LogMetrics::commit_record(pmem.telemetry());
        metrics.recoveries.inc();
        let header = LogShared::read_header(&pmem, base, COMMIT_MAGIC);
        if header.is_err() {
            metrics.corruptions.inc();
        }
        let (capacity, head) = header?;
        let shared = LogShared::new(base, capacity, head);
        let mut records = Vec::new();
        let mut p = head;
        loop {
            if head + capacity - p < 3 {
                break;
            }
            let len = pmem.read_u64(shared.word_addr(p));
            let total = match len.checked_add(3) {
                Some(t) if t <= capacity && p + t <= head + capacity => t,
                _ => break,
            };
            let cksum_pos = p + 1 + len;
            let commit_pos = cksum_pos + 1;
            if pmem.read_u64(shared.word_addr(commit_pos)) != commit_word(commit_pos) {
                break;
            }
            let mut payload = Vec::with_capacity(len as usize);
            for i in 0..len {
                payload.push(pmem.read_u64(shared.word_addr(p + 1 + i)));
            }
            if pmem.read_u64(shared.word_addr(cksum_pos)) != record_checksum(&payload) {
                metrics.corruptions.inc();
                return Err(LogError::Corrupt {
                    position: p,
                    detail: "committed record failed its checksum",
                });
            }
            records.push(payload);
            p += total;
        }
        // Sanitise the word right after the last record so a stale length
        // word cannot chain into garbage on the next recovery.
        metrics.recovered_records.add(records.len() as u64);
        let shared = Arc::new(LogShared::new(base, capacity, head));
        shared.tail.store(p, Ordering::Relaxed);
        shared.fenced.store(p, Ordering::Relaxed);
        Ok((
            CommitRecordLog {
                shared,
                pmem,
                metrics,
            },
            records,
        ))
    }

    /// Appends a record atomically: payload words + checksum, fence,
    /// commit word, fence (the two-fence baseline protocol).
    ///
    /// # Errors
    /// [`LogError::Full`] / [`LogError::RecordTooLarge`] as for the
    /// tornbit log.
    pub fn append(&mut self, payload: &[u64]) -> Result<(), LogError> {
        let m = payload.len() as u64 + 3;
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
        let p = self.shared.tail.load(Ordering::Relaxed);
        self.pmem
            .wtstore_u64(self.shared.word_addr(p), payload.len() as u64);
        for (i, &w) in payload.iter().enumerate() {
            self.pmem
                .wtstore_u64(self.shared.word_addr(p + 1 + i as u64), w);
        }
        let cksum_pos = p + 1 + payload.len() as u64;
        self.pmem
            .wtstore_u64(self.shared.word_addr(cksum_pos), record_checksum(payload));
        self.pmem.fence(); // fence #1: data stable
        let commit_pos = cksum_pos + 1;
        self.pmem
            .wtstore_u64(self.shared.word_addr(commit_pos), commit_word(commit_pos));
        self.pmem.fence(); // fence #2: commit record stable
        let old_tail = self.shared.tail.load(Ordering::Relaxed);
        self.shared.tail.store(p + m, Ordering::Relaxed);
        self.shared.fenced.store(p + m, Ordering::Release);
        self.metrics.appends.inc();
        self.metrics.append_words.add(payload.len() as u64);
        // Both fences belong to this append; count them as one flush of
        // the record plus the wrap/occupancy accounting the tornbit log
        // also keeps.
        self.metrics.flushes.add(2);
        self.metrics
            .wraps
            .add((p + m) / self.shared.capacity - old_tail / self.shared.capacity);
        self.metrics.occupancy_hwm.record(self.len_words());
        Ok(())
    }

    /// Durably drops all records (one word write + fence).
    pub fn truncate_all(&mut self) {
        let tail = self.shared.tail.load(Ordering::Relaxed);
        self.shared.truncate_to(&self.pmem, tail);
        self.metrics.truncations.inc();
    }

    /// Words currently live.
    pub fn len_words(&self) -> u64 {
        self.shared.tail.load(Ordering::Relaxed) - self.shared.head.load(Ordering::Acquire)
    }

    /// Free words available.
    pub fn free_words(&self) -> u64 {
        self.shared.free_words()
    }

    /// Buffer capacity in words.
    pub fn capacity(&self) -> u64 {
        self.shared.capacity
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

    impl Drop for Env {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn setup(capacity_words: u64) -> (Env, CommitRecordLog) {
        let dir = std::env::temp_dir().join(format!(
            "crawl-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let sim = ScmSim::new(ScmConfig::for_testing(8 << 20));
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let (regions, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        let r = regions
            .pmap(
                "clog",
                crate::shared::LOG_HEADER_BYTES + capacity_words * 8,
                &pmem,
            )
            .unwrap();
        let log = CommitRecordLog::create(pmem, r.addr, capacity_words).unwrap();
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

    fn recover(env: &Env) -> (CommitRecordLog, Vec<Vec<u64>>) {
        CommitRecordLog::recover(env.regions.pmem_handle(), env.log_base).unwrap()
    }

    #[test]
    fn append_is_durable_without_explicit_flush() {
        let (env, mut log) = setup(256);
        log.append(&[9, 8, 7]).unwrap();
        env.sim.crash(CrashPolicy::DropAll);
        let (_l, records) = recover(&env);
        assert_eq!(records, vec![vec![9, 8, 7]]);
    }

    #[test]
    fn two_fences_per_append() {
        let (env, mut log) = setup(256);
        let before = env.sim.stats().fences;
        log.append(&[1, 2, 3]).unwrap();
        assert_eq!(env.sim.stats().fences - before, 2);
    }

    #[test]
    fn torn_append_discarded() {
        let (env, mut log) = setup(256);
        log.append(&[1]).unwrap();
        // Hand-roll a torn append: data words without the commit word.
        let p = log.shared.tail.load(Ordering::Relaxed);
        log.pmem.wtstore_u64(log.shared.word_addr(p), 2); // len
        log.pmem.wtstore_u64(log.shared.word_addr(p + 1), 42);
        log.pmem.fence();
        // Crash before the commit word.
        env.sim.crash(CrashPolicy::DropAll);
        let (_l, records) = recover(&env);
        assert_eq!(records, vec![vec![1]]);
    }

    #[test]
    fn stale_commit_from_prior_pass_rejected() {
        let (env, mut log) = setup(32);
        // Fill a full pass worth, truncating as we go.
        for i in 0..20u64 {
            log.append(&[i; 5]).unwrap();
            log.truncate_all();
        }
        env.sim.crash(CrashPolicy::DropAll);
        let (_l, records) = recover(&env);
        assert!(
            records.is_empty(),
            "stale pass data must not be replayed: {records:?}"
        );
    }

    #[test]
    fn full_and_too_large() {
        let (_env, mut log) = setup(16);
        log.append(&[0; 10]).unwrap();
        assert!(matches!(log.append(&[0; 10]), Err(LogError::Full { .. })));
        assert!(matches!(
            log.append(&[0; 64]),
            Err(LogError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn truncate_then_recover_empty() {
        let (env, mut log) = setup(64);
        log.append(&[5; 8]).unwrap();
        log.truncate_all();
        env.sim.crash(CrashPolicy::DropAll);
        let (_l, records) = recover(&env);
        assert!(records.is_empty());
    }

    #[test]
    fn committed_record_bit_flip_is_typed_corruption() {
        let (env, mut log) = setup(256);
        log.append(&[9, 8, 7]).unwrap();
        // Flip one payload bit of the committed record: the commit word is
        // intact, so only the checksum can catch the damage.
        let addr = log.shared.word_addr(1);
        let pmem = env.regions.pmem_handle();
        let w = pmem.read_u64(addr);
        pmem.store_u64(addr, w ^ (1 << 40));
        pmem.flush(addr);
        pmem.fence();
        env.sim.crash(CrashPolicy::DropAll);
        match CommitRecordLog::recover(env.regions.pmem_handle(), env.log_base) {
            Err(LogError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn many_records_in_order() {
        let (env, mut log) = setup(1024);
        for i in 0..50u64 {
            log.append(&[i, i + 1]).unwrap();
        }
        env.sim.crash(CrashPolicy::DropAll);
        let (_l, records) = recover(&env);
        assert_eq!(records.len(), 50);
        assert_eq!(records[49], vec![49, 50]);
    }
}
