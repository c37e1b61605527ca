//! The global array of volatile versioned locks (§5).
//!
//! "For encounter-time locking, we use a global array of volatile locks,
//! with each lock covering a portion of the address space." Each slot is
//! one `AtomicU64`:
//!
//! * even value `v` — unlocked; `v >> 1` is the version (commit timestamp
//!   of the last writer);
//! * odd value — locked; `v >> 1` is the owning thread slot.
//!
//! The table is volatile: it is rebuilt empty at program start, which is
//! correct because recovery replays committed transactions before any new
//! transaction runs.

use std::sync::atomic::{AtomicU64, Ordering};

use mnemosyne_region::VAddr;

/// Outcome of probing a lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockState {
    /// Unlocked; carries the version.
    Version(u64),
    /// Locked by the given thread slot.
    Owned(usize),
}

/// The global versioned-lock table.
#[derive(Debug)]
pub struct LockTable {
    slots: Vec<AtomicU64>,
    mask: u64,
}

impl LockTable {
    /// Creates a table with `size` slots (rounded up to a power of two).
    pub fn new(size: usize) -> Self {
        let n = size.next_power_of_two().max(64);
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, AtomicU64::default);
        LockTable {
            slots,
            mask: n as u64 - 1,
        }
    }

    /// Lock index covering a persistent address. Word-granularity hashing
    /// with a Fibonacci multiplier spreads neighbouring words over the
    /// table.
    #[inline]
    pub fn index_of(&self, addr: VAddr) -> usize {
        let h = (addr.0 >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 20) & self.mask) as usize
    }

    /// Probes slot `idx`.
    #[inline]
    pub fn probe(&self, idx: usize) -> LockState {
        let v = self.slots[idx].load(Ordering::Acquire);
        if v & 1 == 1 {
            LockState::Owned((v >> 1) as usize)
        } else {
            LockState::Version(v >> 1)
        }
    }

    /// Attempts to acquire slot `idx` for thread `slot`, expecting the
    /// current word to be the unlocked version `expected_version`. Returns
    /// `true` on success.
    #[inline]
    pub fn try_acquire(&self, idx: usize, slot: usize, expected_version: u64) -> bool {
        let expected = expected_version << 1;
        let owned = ((slot as u64) << 1) | 1;
        self.slots[idx]
            .compare_exchange(expected, owned, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Releases slot `idx`, publishing version `version` (the committing
    /// transaction's timestamp, or the restored pre-lock version on
    /// abort).
    #[inline]
    pub fn release(&self, idx: usize, version: u64) {
        self.slots[idx].store(version << 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::LOCK_TABLE_SLOTS;

    #[test]
    fn acquire_release_cycle() {
        let t = LockTable::new(64);
        let idx = t.index_of(VAddr(0x1000_0000_0000));
        assert_eq!(t.probe(idx), LockState::Version(0));
        assert!(t.try_acquire(idx, 3, 0));
        assert_eq!(t.probe(idx), LockState::Owned(3));
        assert!(!t.try_acquire(idx, 4, 0), "second acquire must fail");
        t.release(idx, 9);
        assert_eq!(t.probe(idx), LockState::Version(9));
    }

    #[test]
    fn acquire_with_stale_version_fails() {
        let t = LockTable::new(64);
        let idx = 5;
        t.release(idx, 7);
        assert!(!t.try_acquire(idx, 0, 6));
        assert!(t.try_acquire(idx, 0, 7));
    }

    #[test]
    fn index_spreads_neighbouring_words() {
        let t = LockTable::new(1 << 16);
        let base = VAddr(0x1000_0000_0000);
        let idxs: std::collections::HashSet<usize> =
            (0..64u64).map(|i| t.index_of(base.add(i * 8))).collect();
        assert!(idxs.len() > 48, "hash should spread words: {}", idxs.len());
    }

    #[test]
    fn size_rounds_to_power_of_two() {
        assert_eq!(LockTable::new(1000).slots.len(), 1024);
        assert_eq!(LockTable::new(1).slots.len(), 64);
    }

    #[test]
    fn one_word_per_lock() {
        let t = LockTable::new(LOCK_TABLE_SLOTS);
        assert_eq!(std::mem::size_of_val(t.slots.as_slice()), 8 << 20);
    }
}
