//! dlmalloc-style large-object allocator (§4.3 fallback path).
//!
//! Requests above [`crate::SMALL_MAX`] are served from a separate area
//! managed with boundary-tag chunk headers, "chosen for its scalability to
//! large block sizes". Chunks form a contiguous chain; each header
//! records its own size, the previous chunk's size (for backward
//! coalescing) and an in-use flag. The free list is volatile and rebuilt
//! by walking the chain at startup. As in the paper, the large path is
//! expected to be infrequent, so it is kept simple and made atomic with
//! the same logged word-write mechanism as the small path.

use mnemosyne_rawl::redo::WordWrite;
use mnemosyne_region::{PMem, VAddr};

use crate::error::HeapError;

/// Chunk header size in bytes: size, prev_size, flags, magic.
pub const CHUNK_HEADER: u64 = 32;

/// Minimum chunk (header + smallest payload worth splitting for).
const MIN_CHUNK: u64 = CHUNK_HEADER + 32;

/// Header magic guarding against foreign pointers ("LCHUNK01").
const CHUNK_MAGIC: u64 = u64::from_le_bytes(*b"LCHUNK01");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    addr: VAddr,
    size: u64,
    prev_size: u64,
    in_use: bool,
}

/// Volatile view of the large-object area.
#[derive(Debug)]
pub struct LargeAlloc {
    base: VAddr,
    len: u64,
    /// Free chunks as `(address, size)`, unordered (first fit).
    free: Vec<(VAddr, u64)>,
}

impl LargeAlloc {
    /// Creates the volatile view over `[base, base+len)`.
    pub fn new(base: VAddr, len: u64) -> LargeAlloc {
        LargeAlloc {
            base,
            len,
            free: Vec::new(),
        }
    }

    /// Durable writes that format a fresh area as one big free chunk.
    pub fn format_writes(&mut self) -> Vec<WordWrite> {
        self.free = vec![(self.base, self.len)];
        Self::header_writes(self.base, self.len, 0, false).to_vec()
    }

    fn header_writes(addr: VAddr, size: u64, prev_size: u64, in_use: bool) -> [WordWrite; 4] {
        [
            (addr, size),
            (addr.add(8), prev_size),
            (addr.add(16), in_use as u64),
            (addr.add(24), CHUNK_MAGIC),
        ]
    }

    fn read_chunk(&self, pmem: &PMem, addr: VAddr) -> Result<Chunk, HeapError> {
        if pmem.read_u64(addr.add(24)) != CHUNK_MAGIC {
            return Err(HeapError::Corrupt("bad chunk magic"));
        }
        Ok(Chunk {
            addr,
            size: pmem.read_u64(addr),
            prev_size: pmem.read_u64(addr.add(8)),
            in_use: pmem.read_u64(addr.add(16)) != 0,
        })
    }

    /// Whether `addr` lies in the large area.
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.base && addr < self.base.add(self.len)
    }

    /// Rebuilds the free list by walking the chunk chain.
    ///
    /// # Errors
    /// [`HeapError::Corrupt`] if the chain does not tile the area.
    pub fn scavenge(&mut self, pmem: &PMem) -> Result<(), HeapError> {
        self.free.clear();
        let mut addr = self.base;
        let end = self.base.add(self.len);
        let mut prev_size = 0u64;
        while addr < end {
            let c = self.read_chunk(pmem, addr)?;
            if c.size < MIN_CHUNK && c.size != self.len || c.size == 0 {
                return Err(HeapError::Corrupt("implausible chunk size"));
            }
            if c.prev_size != prev_size {
                return Err(HeapError::Corrupt("prev_size chain mismatch"));
            }
            if addr.add(c.size) > end {
                return Err(HeapError::Corrupt("chunk overruns area"));
            }
            if !c.in_use {
                self.free.push((addr, c.size));
            }
            prev_size = c.size;
            addr = addr.add(c.size);
        }
        Ok(())
    }

    /// Allocates `size` user bytes (first fit, splitting when worthwhile).
    /// Returns the user address and the durable writes.
    pub fn alloc(&mut self, size: u64, pmem: &PMem, writes: &mut Vec<WordWrite>) -> Option<VAddr> {
        let need = (size.max(8).div_ceil(8) * 8) + CHUNK_HEADER;
        let pos = self.free.iter().position(|&(_, sz)| sz >= need)?;
        let (addr, total) = self.free.swap_remove(pos);
        let chunk = self.read_chunk(pmem, addr).ok()?;
        debug_assert_eq!(chunk.size, total);
        if total >= need + MIN_CHUNK {
            // Split: in-use front, free remainder.
            let rem = total - need;
            writes.extend(Self::header_writes(addr, need, chunk.prev_size, true));
            let rem_addr = addr.add(need);
            writes.extend(Self::header_writes(rem_addr, rem, need, false));
            // Fix the following chunk's prev_size.
            let next = addr.add(total);
            if next < self.base.add(self.len) {
                writes.push((next.add(8), rem));
            }
            self.free.push((rem_addr, rem));
        } else {
            writes.extend(Self::header_writes(addr, total, chunk.prev_size, true));
        }
        Some(addr.add(CHUNK_HEADER))
    }

    /// Frees the allocation whose user address is `addr`, coalescing with
    /// free neighbours.
    ///
    /// # Errors
    /// [`HeapError::BadPointer`] if `addr` is not a live large allocation.
    pub fn free(
        &mut self,
        addr: VAddr,
        pmem: &PMem,
        writes: &mut Vec<WordWrite>,
    ) -> Result<(), HeapError> {
        if !self.contains(addr) || addr.offset_from(self.base) < CHUNK_HEADER {
            return Err(HeapError::BadPointer(addr));
        }
        let hdr = VAddr(addr.0 - CHUNK_HEADER);
        let chunk = self
            .read_chunk(pmem, hdr)
            .map_err(|_| HeapError::BadPointer(addr))?;
        if !chunk.in_use {
            return Err(HeapError::BadPointer(addr)); // double free
        }
        let mut start = hdr;
        let mut size = chunk.size;
        let mut prev_size = chunk.prev_size;
        let end_area = self.base.add(self.len);

        // Coalesce backward.
        if chunk.prev_size > 0 {
            let prev_addr = VAddr(hdr.0 - chunk.prev_size);
            let prev = self.read_chunk(pmem, prev_addr)?;
            if !prev.in_use {
                self.free.retain(|&(a, _)| a != prev_addr);
                start = prev_addr;
                size += prev.size;
                prev_size = prev.prev_size;
            }
        }
        // Coalesce forward.
        let next_addr = hdr.add(chunk.size);
        if next_addr < end_area {
            let next = self.read_chunk(pmem, next_addr)?;
            if !next.in_use {
                self.free.retain(|&(a, _)| a != next_addr);
                size += next.size;
            }
        }
        writes.extend(Self::header_writes(start, size, prev_size, false));
        // Fix the following chunk's prev_size after the merge.
        let after = start.add(size);
        if after < end_area {
            writes.push((after.add(8), size));
        }
        self.free.push((start, size));
        Ok(())
    }

    /// Usable size of a live allocation at `addr`.
    pub fn usable_size(&self, pmem: &PMem, addr: VAddr) -> Option<u64> {
        if !self.contains(addr) || addr.offset_from(self.base) < CHUNK_HEADER {
            return None;
        }
        let c = self.read_chunk(pmem, VAddr(addr.0 - CHUNK_HEADER)).ok()?;
        c.in_use.then_some(c.size - CHUNK_HEADER)
    }

    /// Total bytes this area manages (headers included).
    pub fn capacity(&self) -> u64 {
        self.len
    }
}
