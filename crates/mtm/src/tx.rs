//! The transaction descriptor: buffered writes, versioned reads,
//! encounter-time locking (§5).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, DefaultHasher};

use mnemosyne_region::VAddr;

use crate::error::TxAbort;
use crate::locks::LockState;
use crate::runtime::TxThread;

/// Bounded-backoff patience: how many escalating waits a transaction
/// spends on a foreign-owned lock before aborting.
const MAX_LOCK_WAITS: u32 = 6;

/// Buffered writes by address. The fixed-key hasher makes the iteration
/// order — the order of a redo record's pairs and of the write-back
/// stores — the same on every run, so a crash scheduled at the Nth
/// primitive lands on the same word every time. (The keys are addresses
/// the program chose, not outside input.)
type WriteSet = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// An in-flight durable memory transaction. All persistent reads and
/// writes inside an `atomic` closure must go through these accessors (the
/// paper's compiler instruments loads/stores to do the same).
pub struct Tx<'a> {
    pub(crate) th: &'a mut TxThread,
    /// Read validation horizon (TinySTM's `rv`).
    pub(crate) rv: u64,
    /// Buffered new values, word granularity (lazy version management).
    pub(crate) write_set: WriteSet,
    /// Reads: `(lock index, observed version)`.
    pub(crate) read_set: Vec<(usize, u64)>,
    /// Acquired locks: `(lock index, pre-acquire version)`.
    pub(crate) lock_set: Vec<(usize, u64)>,
    /// Fast membership test for `lock_set`.
    pub(crate) owned: HashSet<usize>,
    /// Blocks allocated inside this transaction (freed on abort).
    pub(crate) allocs: Vec<VAddr>,
    /// Frees deferred to commit success.
    pub(crate) frees: Vec<VAddr>,
}

impl std::fmt::Debug for Tx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tx")
            .field("rv", &self.rv)
            .field("writes", &self.write_set.len())
            .field("reads", &self.read_set.len())
            .finish()
    }
}

impl<'a> Tx<'a> {
    pub(crate) fn begin(th: &'a mut TxThread) -> Tx<'a> {
        th.rt().metrics().tx_begins.inc();
        let rv = th.rt().clock().now();
        Tx {
            th,
            rv,
            write_set: WriteSet::default(),
            read_set: Vec::new(),
            lock_set: Vec::new(),
            owned: HashSet::new(),
            allocs: Vec::new(),
            frees: Vec::new(),
        }
    }

    /// Bounded backoff on a lock found foreign-owned — the contention
    /// manager for encounter-time conflicts. Instead of aborting on the
    /// first owned probe, the thread waits a randomised, exponentially
    /// growing number of spins and re-probes, up to [`MAX_LOCK_WAITS`]
    /// rounds per access.
    ///
    /// Returns `Ok(())` to re-probe; `Err(TxAbort::Conflict)` once
    /// patience is exhausted (livelock/deadlock escape: two transactions
    /// waiting on each other's locks must eventually abort one).
    fn backoff_on_owned(&mut self, waits: &mut u32) -> Result<(), TxAbort> {
        if *waits == 0 {
            self.th.rt().metrics().lock_conflicts.inc();
        }
        if *waits >= MAX_LOCK_WAITS {
            self.th.rt().metrics().conflict_aborts.inc();
            return Err(TxAbort::Conflict);
        }
        let shift = (*waits + 1).min(14);
        let spins = self.th.next_rand() % (1u64 << shift);
        self.th.rt().metrics().backoff_spins.record(spins);
        // The wait issues no durability primitives, so under fault
        // injection poll explicitly: if the lock owner died at a crash
        // point, this waiter must die here too rather than spin out its
        // patience against a corpse.
        self.th.pmem().poll_crash();
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        *waits += 1;
        Ok(())
    }

    /// Validates every recorded read against the lock table; on success
    /// advances the horizon (TinySTM's timestamp extension).
    fn extend(&mut self) -> Result<(), TxAbort> {
        let now = self.th.rt().clock().now();
        let locks = self.th.rt().locks();
        for &(idx, version) in &self.read_set {
            match locks.probe(idx) {
                LockState::Version(v) if v == version => {}
                LockState::Owned(s) if s == self.th.slot() => {}
                _ => return Err(TxAbort::Conflict),
            }
        }
        self.rv = now;
        Ok(())
    }

    /// Transactional load of the 64-bit word at `addr` (8-byte aligned).
    ///
    /// # Errors
    /// [`TxAbort::Conflict`] on a lost conflict — propagate with `?`.
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or not persistent.
    pub fn read_u64(&mut self, addr: VAddr) -> Result<u64, TxAbort> {
        assert!(
            addr.is_persistent(),
            "transactional read of volatile address {addr}"
        );
        assert!(
            addr.is_word_aligned(),
            "unaligned transactional read at {addr}"
        );
        if let Some(&v) = self.write_set.get(&addr.0) {
            return Ok(v);
        }
        let idx = self.th.rt().locks().index_of(addr);
        if self.owned.contains(&idx) {
            // We hold the covering lock; memory cannot change under us.
            return Ok(self.th.pmem().read_u64(addr));
        }
        let mut waits = 0u32;
        loop {
            match self.th.rt().locks().probe(idx) {
                LockState::Owned(_) => self.backoff_on_owned(&mut waits)?,
                LockState::Version(v1) => {
                    let val = self.th.pmem().read_u64(addr);
                    match self.th.rt().locks().probe(idx) {
                        LockState::Version(v2) if v2 == v1 => {
                            if v1 > self.rv {
                                self.extend()?;
                            }
                            self.read_set.push((idx, v1));
                            return Ok(val);
                        }
                        _ => continue, // raced with a writer; re-probe
                    }
                }
            }
        }
    }

    /// Transactional store of a 64-bit word (8-byte aligned). The value is
    /// buffered; memory is updated at commit, after the redo log is
    /// durable.
    ///
    /// # Errors
    /// [`TxAbort::Conflict`] if the covering lock is held by another
    /// transaction.
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or not persistent.
    pub fn write_u64(&mut self, addr: VAddr, value: u64) -> Result<(), TxAbort> {
        assert!(
            addr.is_persistent(),
            "transactional write of volatile address {addr}"
        );
        assert!(
            addr.is_word_aligned(),
            "unaligned transactional write at {addr}"
        );
        let idx = self.th.rt().locks().index_of(addr);
        if !self.owned.contains(&idx) {
            let mut waits = 0u32;
            loop {
                match self.th.rt().locks().probe(idx) {
                    LockState::Owned(_) => self.backoff_on_owned(&mut waits)?,
                    LockState::Version(v) => {
                        if v > self.rv {
                            // Someone committed to this slot after our
                            // snapshot horizon. Validate-and-extend *before*
                            // acquiring: a stale read of this very word is
                            // still visible as a version mismatch now, but
                            // would be masked once we own the lock.
                            self.extend()?;
                            continue;
                        }
                        if self.th.rt().locks().try_acquire(idx, self.th.slot(), v) {
                            self.lock_set.push((idx, v));
                            self.owned.insert(idx);
                            break;
                        }
                        // CAS raced; re-probe.
                    }
                }
            }
        }
        self.write_set.insert(addr.0, value);
        Ok(())
    }

    /// Transactional load of `buf.len()` bytes at any alignment.
    ///
    /// # Errors
    /// [`TxAbort::Conflict`] on a lost conflict.
    pub fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) -> Result<(), TxAbort> {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.add(off as u64);
            let word_base = VAddr(a.0 & !7);
            let start = (a.0 % 8) as usize;
            let n = (8 - start).min(buf.len() - off);
            let w = self.read_u64(word_base)?;
            buf[off..off + n].copy_from_slice(&w.to_le_bytes()[start..start + n]);
            off += n;
        }
        Ok(())
    }

    /// Transactional store of `data` at any alignment (read-modify-write
    /// on partially covered words).
    ///
    /// # Errors
    /// [`TxAbort::Conflict`] on a lost conflict.
    pub fn write_bytes(&mut self, addr: VAddr, data: &[u8]) -> Result<(), TxAbort> {
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.add(off as u64);
            let word_base = VAddr(a.0 & !7);
            let start = (a.0 % 8) as usize;
            let n = (8 - start).min(data.len() - off);
            let w = if n == 8 {
                let mut b = [0u8; 8];
                b.copy_from_slice(&data[off..off + 8]);
                u64::from_le_bytes(b)
            } else {
                let mut b = self.read_u64(word_base)?.to_le_bytes();
                b[start..start + n].copy_from_slice(&data[off..off + n]);
                u64::from_le_bytes(b)
            };
            self.write_u64(word_base, w)?;
            off += n;
        }
        Ok(())
    }

    /// Allocates persistent memory inside the transaction. The block is
    /// released again if the transaction aborts; the caller must store the
    /// returned address into persistent memory *transactionally* (that
    /// write is what anchors it, cf. Figure 3's `pmalloc(&bucket, …)`).
    ///
    /// # Errors
    /// [`TxAbort::Heap`] if the heap is exhausted or absent.
    pub fn pmalloc(&mut self, size: u64) -> Result<VAddr, TxAbort> {
        let heap = self
            .th
            .rt()
            .heap()
            .ok_or_else(|| TxAbort::Heap("no heap attached to runtime".into()))?;
        let addr = heap.pmalloc_unanchored(size)?;
        self.allocs.push(addr);
        Ok(addr)
    }

    /// Frees a heap block when (and only when) this transaction commits.
    pub fn pfree(&mut self, addr: VAddr) {
        self.frees.push(addr);
    }

    /// Explicitly cancels the transaction: return
    /// `Err(tx.cancel())` from the closure; the runtime rolls back and
    /// does not retry.
    pub fn cancel(&self) -> TxAbort {
        TxAbort::Cancelled
    }
}
