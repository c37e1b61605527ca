//! Hoard-derived superblock allocator for blocks ≤ 4 KB (§4.3).
//!
//! The small-object area is split into 8 KB superblocks. Each superblock,
//! once assigned to a size class, holds `8192 / block_size` equal blocks.
//! Persistent state per superblock is just its block size and a bitmap
//! vector of allocated blocks, kept in a *metadata area separated from the
//! data* to reduce corruption risk. Everything else — per-class lists,
//! free counts, bitmap mirrors and the pool of empty superblocks — is
//! volatile and rebuilt by scavenging at startup, exactly like the paper's
//! rebuilt speed indexes.
//!
//! Two types:
//!
//! * [`SmallLayout`] — the geometry of the small area (where its metadata
//!   and superblocks live). The area never grows: online growth adds
//!   large areas, which small requests reach through the fallback path;
//! * [`SmallAlloc`] — the volatile allocator over that layout: the
//!   assigned superblocks, the size-class lists and the free-superblock
//!   pool. The heap keeps one, behind its lock.
//!
//! Mutations are returned as `(address, value)` word-write lists; the heap
//! logs them (together with the caller's pointer-cell write) to its
//! allocator log and applies them durably, making each operation atomic.

use std::collections::HashMap;

use mnemosyne_rawl::redo::WordWrite;
use mnemosyne_region::{PMem, VAddr};

use crate::error::HeapError;
use crate::SMALL_MAX;
use crate::SUPERBLOCK_BYTES;

/// Number of size classes: 8, 16, …, 4096 bytes.
pub const NCLASSES: usize = 10;

/// Bitmap words per superblock (8192 blocks of 8 B ⇒ 1024 bits ⇒ 16 words).
pub const BITMAP_WORDS: usize = 16;

/// Stride of one metadata entry: block-size word + bitmap vector, rounded
/// up to a multiple of the cache line so entries never share lines.
const META_STRIDE: u64 = 192;

/// Size class index for a request (8 B minimum).
pub fn class_of(size: u64) -> Option<usize> {
    if size > SMALL_MAX {
        return None;
    }
    let sz = size.max(8).next_power_of_two();
    Some(sz.trailing_zeros() as usize - 3)
}

/// Block size of a class.
#[inline]
pub fn class_size(class: usize) -> u64 {
    8 << class
}

/// Geometry of the small-object area: metadata entries first (page
/// aligned), superblocks after.
#[derive(Debug, Clone, Copy)]
pub struct SmallLayout {
    meta_base: VAddr,
    sbs_base: VAddr,
    n_superblocks: u32,
}

impl SmallLayout {
    /// Lays out the small area over `[base, base+len)`: `n` metadata
    /// entries + `n` superblocks must fit, with the superblock array page
    /// aligned.
    pub fn new(base: VAddr, len: u64) -> SmallLayout {
        let mut n = len / (SUPERBLOCK_BYTES + META_STRIDE);
        loop {
            let meta_bytes = (n * META_STRIDE).div_ceil(4096) * 4096;
            if meta_bytes + n * SUPERBLOCK_BYTES <= len {
                break;
            }
            n -= 1;
        }
        let meta_bytes = (n * META_STRIDE).div_ceil(4096) * 4096;
        SmallLayout {
            meta_base: base,
            sbs_base: base.add(meta_bytes),
            n_superblocks: n as u32,
        }
    }

    /// Number of superblocks managed.
    pub fn superblocks(&self) -> u32 {
        self.n_superblocks
    }

    /// Address of superblock `sb`'s metadata entry (block-size word).
    pub fn meta_addr(&self, sb: u32) -> VAddr {
        self.meta_base.add(sb as u64 * META_STRIDE)
    }

    fn bitmap_word_addr(&self, sb: u32, widx: usize) -> VAddr {
        self.meta_addr(sb).add(8 + widx as u64 * 8)
    }

    /// Data address of superblock `sb`.
    pub fn sb_addr(&self, sb: u32) -> VAddr {
        self.sbs_base.add(sb as u64 * SUPERBLOCK_BYTES)
    }

    /// Whether `addr` lies in the superblock data area.
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.sbs_base
            && addr
                < self
                    .sbs_base
                    .add(self.n_superblocks as u64 * SUPERBLOCK_BYTES)
    }

    /// Superblock index covering `addr` (which must satisfy
    /// [`SmallLayout::contains`]).
    pub fn sb_of(&self, addr: VAddr) -> u32 {
        (addr.offset_from(self.sbs_base) / SUPERBLOCK_BYTES) as u32
    }
}

/// Volatile state of one assigned superblock.
#[derive(Debug)]
struct SbState {
    class: u8,
    free_count: u32,
    bitmap: [u64; BITMAP_WORDS],
}

/// The volatile small-object allocator: which superblocks are assigned to
/// a size class and what they hold, the per-class lists of those with free
/// space, and the pool of fully empty superblocks any class can take.
#[derive(Debug)]
pub struct SmallAlloc {
    layout: SmallLayout,
    assigned: HashMap<u32, SbState>,
    /// Assigned superblocks with free space, per class.
    class_lists: Vec<Vec<u32>>,
    /// Fully empty superblocks; the last entry is handed out first.
    pool: Vec<u32>,
}

impl SmallAlloc {
    /// The allocator over a freshly formatted area: its metadata reads
    /// zero, so every superblock is in the pool, lowest index handed out
    /// first.
    pub fn new(layout: SmallLayout) -> SmallAlloc {
        SmallAlloc {
            layout,
            assigned: HashMap::new(),
            class_lists: vec![Vec::new(); NCLASSES],
            pool: (0..layout.superblocks()).rev().collect(),
        }
    }

    /// Rebuilds the allocator over `layout` by reading back every
    /// superblock's persistent metadata — the startup scavenge of §4.3,
    /// whose cost §6.3.2 measures. A superblock whose block-size word is
    /// implausible is quarantined: neither assigned nor pooled, so nothing
    /// allocates from it.
    pub fn scavenge(pmem: &PMem, layout: SmallLayout) -> SmallAlloc {
        let mut s = SmallAlloc {
            pool: Vec::new(),
            ..SmallAlloc::new(layout)
        };
        for sb in 0..layout.superblocks() {
            let bs = pmem.read_u64(layout.meta_addr(sb));
            if bs == 0 {
                s.pool.push(sb);
                continue;
            }
            let class = match class_of(bs) {
                Some(c) if class_size(c) == bs => c,
                _ => continue, // quarantine: unknown block size
            };
            let blocks = (SUPERBLOCK_BYTES / bs) as u32;
            let mut bitmap = [0u64; BITMAP_WORDS];
            let mut used = 0;
            for (w, slot) in bitmap.iter_mut().enumerate() {
                // Mask out bits beyond the superblock's block count: a
                // corrupted bitmap word must not make `used` exceed
                // `blocks` (underflow below) or make alloc hand out
                // addresses past the superblock.
                let valid = blocks.saturating_sub(w as u32 * 64).min(64);
                let mask = if valid >= 64 {
                    !0u64
                } else {
                    (1u64 << valid) - 1
                };
                *slot = pmem.read_u64(layout.bitmap_word_addr(sb, w)) & mask;
                used += slot.count_ones();
            }
            let free_count = blocks - used;
            if free_count > 0 {
                s.class_lists[class].push(sb);
            }
            s.assigned.insert(
                sb,
                SbState {
                    class: class as u8,
                    free_count,
                    bitmap,
                },
            );
        }
        // Pushed in ascending order; hand out the lowest index first.
        s.pool.reverse();
        s
    }

    /// Allocates one block of size class `class`, appending its durable
    /// writes: the bitmap word, plus the block-size word when the block
    /// comes from a superblock taken from the pool. Returns `None` when no
    /// assigned superblock of the class has room and the pool is empty —
    /// the heap then falls back to the large allocator.
    pub fn alloc(&mut self, class: usize, writes: &mut Vec<WordWrite>) -> Option<VAddr> {
        // An assigned superblock with space, dropping exhausted ones
        // lazily.
        while let Some(&sb) = self.class_lists[class].last() {
            if self.assigned.get(&sb).is_some_and(|s| s.free_count > 0) {
                if let Some(a) = self.alloc_in(sb, class, writes) {
                    return Some(a);
                }
                break;
            }
            self.class_lists[class].pop();
        }
        // None left: assign a fresh superblock from the pool.
        let sb = self.pool.pop()?;
        let bs = class_size(class);
        self.assigned.insert(
            sb,
            SbState {
                class: class as u8,
                free_count: (SUPERBLOCK_BYTES / bs) as u32,
                bitmap: [0; BITMAP_WORDS],
            },
        );
        self.class_lists[class].push(sb);
        writes.push((self.layout.meta_addr(sb), bs));
        Some(
            self.alloc_in(sb, class, writes)
                .expect("fresh superblock must have a free block"),
        )
    }

    fn alloc_in(&mut self, sb: u32, class: usize, writes: &mut Vec<WordWrite>) -> Option<VAddr> {
        let bs = class_size(class);
        let blocks = (SUPERBLOCK_BYTES / bs) as u32;
        let state = self.assigned.get_mut(&sb)?;
        for widx in 0..BITMAP_WORDS.min(blocks.div_ceil(64) as usize) {
            let word = state.bitmap[widx];
            if word == u64::MAX {
                continue;
            }
            let bit = (!word).trailing_zeros();
            let idx = widx as u32 * 64 + bit;
            if idx >= blocks {
                break;
            }
            let new_word = word | (1 << bit);
            state.bitmap[widx] = new_word;
            state.free_count -= 1;
            writes.push((self.layout.bitmap_word_addr(sb, widx), new_word));
            return Some(self.layout.sb_addr(sb).add(idx as u64 * bs));
        }
        // Inconsistent free count; repair and fail this superblock.
        state.free_count = 0;
        None
    }

    /// Frees the block at `addr`, appending the durable bitmap write. A
    /// superblock left fully empty goes back to the pool, its block-size
    /// word reset to 0 in `writes`.
    ///
    /// # Errors
    /// [`HeapError::BadPointer`] for misaligned, unallocated, or
    /// unassigned addresses.
    pub fn free(&mut self, addr: VAddr, writes: &mut Vec<WordWrite>) -> Result<(), HeapError> {
        let bad = || HeapError::BadPointer(addr);
        if !self.layout.contains(addr) {
            return Err(bad());
        }
        let sb = self.layout.sb_of(addr);
        let state = self.assigned.get_mut(&sb).ok_or_else(bad)?;
        let class = state.class as usize;
        let bs = class_size(class);
        let off = addr.offset_from(self.layout.sb_addr(sb));
        if !off.is_multiple_of(bs) {
            return Err(bad());
        }
        let idx = (off / bs) as u32;
        let widx = (idx / 64) as usize;
        let bit = 1u64 << (idx % 64);
        if state.bitmap[widx] & bit == 0 {
            return Err(bad()); // double free
        }
        state.bitmap[widx] &= !bit;
        state.free_count += 1;
        writes.push((self.layout.bitmap_word_addr(sb, widx), state.bitmap[widx]));
        if state.free_count == (SUPERBLOCK_BYTES / bs) as u32 {
            // Fully empty: back to the pool for any class.
            self.assigned.remove(&sb);
            self.class_lists[class].retain(|&s| s != sb);
            writes.push((self.layout.meta_addr(sb), 0));
            self.pool.push(sb);
        } else if state.free_count == 1 {
            // Was full; make it findable again.
            self.class_lists[class].push(sb);
        }
        Ok(())
    }

    /// Block size of the allocation at `addr`, if it is a live small block.
    pub fn usable_size(&self, addr: VAddr) -> Option<u64> {
        if !self.layout.contains(addr) {
            return None;
        }
        let sb = self.layout.sb_of(addr);
        let state = self.assigned.get(&sb)?;
        let bs = class_size(state.class as usize);
        let off = addr.offset_from(self.layout.sb_addr(sb));
        if !off.is_multiple_of(bs) {
            return None;
        }
        let idx = (off / bs) as u32;
        let set = state.bitmap[(idx / 64) as usize] & (1 << (idx % 64));
        (set != 0).then_some(bs)
    }

    /// Whether `addr` lies in the superblock data area.
    pub fn contains(&self, addr: VAddr) -> bool {
        self.layout.contains(addr)
    }

    /// Superblocks currently assigned to a size class.
    pub fn assigned_superblocks(&self) -> usize {
        self.assigned.len()
    }

    /// Fully empty superblocks in the pool.
    pub fn pooled_superblocks(&self) -> usize {
        self.pool.len()
    }

    /// Superblocks the area holds.
    pub fn total_superblocks(&self) -> usize {
        self.layout.superblocks() as usize
    }

    /// Total allocated blocks across assigned superblocks (diagnostics).
    pub fn live_blocks(&self) -> u64 {
        self.assigned
            .values()
            .map(|s| SUPERBLOCK_BYTES / class_size(s.class as usize) - s.free_count as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(8), Some(0));
        assert_eq!(class_of(9), Some(1));
        assert_eq!(class_of(4096), Some(9));
        assert_eq!(class_of(4097), None);
        assert_eq!(class_size(0), 8);
        assert_eq!(class_size(9), 4096);
    }

    #[test]
    fn layout_fits() {
        let base = VAddr(0x1000_0000_0000);
        let l = SmallLayout::new(base, 1 << 20);
        assert!(l.superblocks() >= 120, "1 MB should hold ~125 superblocks");
        assert!(l.sbs_base.0 >= base.0);
    }

    #[test]
    fn alloc_free_cycle_volatile_side() {
        let base = VAddr(0x1000_0000_0000);
        let mut s = SmallAlloc::new(SmallLayout::new(base, 1 << 20));
        let mut w = Vec::new();
        let a = s.alloc(0, &mut w).unwrap();
        // Fresh superblock: block-size write + bitmap write.
        assert_eq!(w.len(), 2);
        let b = s.alloc(0, &mut w).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.usable_size(a), Some(8));
        w.clear();
        s.free(a, &mut w).unwrap();
        assert_eq!(w.len(), 1, "a block still lives there: bitmap write only");
        assert_eq!(s.usable_size(a), None);
        assert!(matches!(s.free(a, &mut w), Err(HeapError::BadPointer(_))));
    }

    #[test]
    fn distinct_addresses_until_full_superblock() {
        let base = VAddr(0x1000_0000_0000);
        // 16 KB holds one metadata page and exactly one superblock.
        let layout = SmallLayout::new(base, 16 << 10);
        assert_eq!(layout.superblocks(), 1);
        let mut s = SmallAlloc::new(layout);
        let mut seen = std::collections::HashSet::new();
        let mut w = Vec::new();
        for _ in 0..1024 {
            let a = s.alloc(0, &mut w).unwrap();
            assert!(seen.insert(a), "duplicate address {a}");
        }
        // 8192 / 8 = 1024 blocks: the only superblock is now full.
        assert!(s.alloc(0, &mut w).is_none());
    }

    #[test]
    fn empty_superblock_relinquished() {
        let base = VAddr(0x1000_0000_0000);
        let mut s = SmallAlloc::new(SmallLayout::new(base, 64 << 10));
        let total = s.pooled_superblocks();
        let mut w = Vec::new();
        let a = s.alloc(5, &mut w).unwrap(); // 256-byte class
        assert_eq!(s.assigned_superblocks(), 1);
        assert_eq!(s.pooled_superblocks(), total - 1);
        w.clear();
        s.free(a, &mut w).unwrap();
        assert_eq!(s.assigned_superblocks(), 0);
        assert_eq!(s.pooled_superblocks(), total);
        // The block-size reset write is included.
        assert!(w.iter().any(|&(_, v)| v == 0));
    }

    #[test]
    fn misaligned_free_rejected() {
        let base = VAddr(0x1000_0000_0000);
        let mut s = SmallAlloc::new(SmallLayout::new(base, 64 << 10));
        let mut w = Vec::new();
        let a = s.alloc(5, &mut w).unwrap();
        assert!(matches!(
            s.free(a.add(7), &mut w),
            Err(HeapError::BadPointer(_))
        ));
    }

    #[test]
    fn free_of_unowned_superblock_rejected() {
        let base = VAddr(0x1000_0000_0000);
        let layout = SmallLayout::new(base, 64 << 10);
        let mut s = SmallAlloc::new(layout);
        let mut w = Vec::new();
        // Superblock 2 was never assigned to a class.
        assert!(matches!(
            s.free(layout.sb_addr(2), &mut w),
            Err(HeapError::BadPointer(_))
        ));
    }
}
