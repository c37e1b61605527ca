//! Shared circular-buffer state and the persistent log header.
//!
//! The log is a Lamport single-producer/single-consumer circular buffer
//! (§4.4, citing Lamport 1977): the producer appends at the tail, the
//! consumer truncates at the head, and no lock is needed because each side
//! writes only its own index. Stream positions are monotonically
//! increasing word counts; `position % capacity` is the buffer index and
//! `position / capacity` the pass number (which drives the torn-bit
//! sense).
//!
//! A log has one truncator at a time, and a type says which: a producer
//! that truncates its own log does so through `&mut TornbitLog`; a log
//! drained from another thread has its `LogTruncator` behind the owner's
//! mutex (`mtm`'s `CkptShared`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mnemosyne_region::{PMem, VAddr};

use crate::error::LogError;

/// Largest stream position [`LogShared::read_header`] accepts as a head.
/// Positions are monotonic word counts, so 2^48 words (2 PiB of log
/// traffic) is far beyond anything a real run produces — a head above it
/// can only come from a corrupted header word.
pub const MAX_STREAM_POS: u64 = 1 << 48;

/// Largest capacity [`LogShared::read_header`] accepts (2^40 words = 8 TiB
/// buffer); anything above is a corrupted header word, and rejecting it
/// keeps the recovery scan's `head + capacity` arithmetic overflow-free.
pub const MAX_CAPACITY_WORDS: u64 = 1 << 40;

/// Bytes of the persistent log header preceding the buffer:
/// `[magic, capacity_words, head_position, kind]` padded to a cache line.
pub const LOG_HEADER_BYTES: u64 = 64;

/// Magic for a tornbit log region ("RAWLTORN").
pub const TORNBIT_MAGIC: u64 = u64::from_le_bytes(*b"RAWLTORN");

/// Magic for a commit-record log region ("RAWLCMIT").
pub const COMMIT_MAGIC: u64 = u64::from_le_bytes(*b"RAWLCMIT");

/// Volatile state shared between the producer and the (optional)
/// asynchronous truncator.
#[derive(Debug)]
pub struct LogShared {
    /// First address of the log region (header).
    pub base: VAddr,
    /// Buffer capacity in words.
    pub capacity: u64,
    /// Stream position of the oldest live word (truncate point).
    pub head: AtomicU64,
    /// Stream position one past the last appended word (may not be durable
    /// yet).
    pub tail: AtomicU64,
    /// Stream position up to which appends are durable (advanced by
    /// `log_flush`). The consumer must not read past this.
    pub fenced: AtomicU64,
    /// Set when the consumer detects media corruption in the durable
    /// region. A poisoned log stops accepting appends (the producer gets
    /// [`LogError::Corrupt`] instead of spinning on [`LogError::Full`]
    /// waiting for a truncation that will never come).
    pub poisoned: AtomicBool,
}

impl LogShared {
    /// Creates shared state with all positions at `pos`.
    pub fn new(base: VAddr, capacity: u64, pos: u64) -> Self {
        LogShared {
            base,
            capacity,
            head: AtomicU64::new(pos),
            tail: AtomicU64::new(pos),
            fenced: AtomicU64::new(pos),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Virtual address of the buffer word at stream position `pos`.
    #[inline]
    pub fn word_addr(&self, pos: u64) -> VAddr {
        self.base.add(LOG_HEADER_BYTES + (pos % self.capacity) * 8)
    }

    /// Virtual address of the persistent head word in the header.
    #[inline]
    pub fn head_addr(&self) -> VAddr {
        self.base.add(16)
    }

    /// Free words from the producer's perspective.
    #[inline]
    pub fn free_words(&self) -> u64 {
        self.capacity - (self.tail.load(Ordering::Relaxed) - self.head.load(Ordering::Acquire))
    }

    /// Writes the header for a fresh log.
    pub fn write_header(pmem: &PMem, base: VAddr, magic: u64, capacity: u64) {
        pmem.wtstore_u64(base, magic);
        pmem.wtstore_u64(base.add(8), capacity);
        pmem.wtstore_u64(base.add(16), 0); // head position
        pmem.fence();
    }

    /// Reads and validates a header, returning `(capacity, head_position)`.
    ///
    /// # Errors
    /// [`LogError::BadHeader`] if the region is unmapped or the magic does
    /// not match; [`LogError::Corrupt`] if the magic is intact but the
    /// capacity or head word is implausible (a corrupted header must not
    /// send the recovery scan out of the mapped region or into overflowing
    /// arithmetic).
    pub fn read_header(pmem: &PMem, base: VAddr, magic: u64) -> Result<(u64, u64), LogError> {
        if pmem.try_translate(base).is_err() {
            return Err(LogError::BadHeader);
        }
        if pmem.read_u64(base) != magic {
            return Err(LogError::BadHeader);
        }
        let capacity = pmem.read_u64(base.add(8));
        let head = pmem.read_u64(base.add(16));
        if capacity == 0 || !capacity.is_multiple_of(2) || capacity > MAX_CAPACITY_WORDS {
            return Err(LogError::Corrupt {
                position: 0,
                detail: "implausible log capacity in header",
            });
        }
        // The whole buffer must lie inside the mapped region; a corrupted
        // capacity word would otherwise turn the recovery scan into a
        // persistent-memory fault (panic) instead of a typed error.
        let last = base.add(LOG_HEADER_BYTES + (capacity - 1) * 8);
        if pmem.try_translate(last).is_err() {
            return Err(LogError::Corrupt {
                position: 0,
                detail: "log capacity exceeds the mapped region",
            });
        }
        if head > MAX_STREAM_POS {
            return Err(LogError::Corrupt {
                position: head,
                detail: "implausible log head position in header",
            });
        }
        Ok((capacity, head))
    }

    /// Durably advances the persistent head to `pos` (one atomic word
    /// write plus one fence), then publishes it to the producer. The
    /// caller is the log's only truncator (see the module docs). A `pos`
    /// at or below the current head is a no-op costing no durability
    /// primitives. Returns the words reclaimed (0 for the no-op).
    pub fn truncate_to(&self, pmem: &PMem, pos: u64) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        if pos <= head {
            return 0;
        }
        debug_assert!(pos <= self.tail.load(Ordering::Relaxed));
        pmem.wtstore_u64(self.head_addr(), pos);
        pmem.fence();
        self.head.store(pos, Ordering::Release);
        pos - head
    }

    /// Validates a requested capacity (words): at least 16, even (so the
    /// pass parity flips predictably), and sane.
    pub fn validate_capacity(capacity: u64) -> Result<(), LogError> {
        if capacity < 16 || !capacity.is_multiple_of(2) {
            return Err(LogError::BadCapacity(capacity));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_wrap() {
        let s = LogShared::new(VAddr(0x1000_0000_0000), 16, 0);
        assert_eq!(s.word_addr(0), s.word_addr(16));
        assert_eq!(s.word_addr(3).0, s.base.0 + LOG_HEADER_BYTES + 24);
    }

    #[test]
    fn free_words_accounting() {
        let s = LogShared::new(VAddr(0x1000_0000_0000), 16, 0);
        assert_eq!(s.free_words(), 16);
        s.tail.store(10, Ordering::Relaxed);
        assert_eq!(s.free_words(), 6);
        s.head.store(4, Ordering::Relaxed);
        assert_eq!(s.free_words(), 10);
    }

    #[test]
    fn capacity_validation() {
        assert!(LogShared::validate_capacity(16).is_ok());
        assert!(LogShared::validate_capacity(15).is_err());
        assert!(LogShared::validate_capacity(17).is_err());
        assert!(LogShared::validate_capacity(0).is_err());
    }
}
