//! [`PMem`]: the per-thread persistent-memory handle.
//!
//! This is the user-mode face of the whole memory stack: Mnemosyne's four
//! hardware primitives (§4.1) plus loads, addressed by [`VAddr`]. Accesses
//! are translated through the owning [`AddressSpace`] (splitting at page
//! boundaries) and then issued on a per-thread [`MemHandle`]. A
//! translation of an installed page reads the radix page table and takes
//! no lock, so a load takes none anywhere; only a page fault locks.
//!
//! Like a real load or store, an access to an unmapped address is fatal:
//! the methods panic with the analogue of a segmentation fault. Callers
//! that want to probe use [`PMem::try_translate`].

use mnemosyne_obs::Telemetry;
use mnemosyne_scm::{MemHandle, PAddr};

use crate::aspace::AddressSpace;
use crate::error::Result;
use crate::{VAddr, PAGE_SIZE};

/// A thread's handle to persistent memory: translation + hardware
/// primitives. `Send` but not `Sync`/`Clone` (owns per-thread buffers);
/// create one per thread with [`PMem::new`] or
/// [`crate::Regions::pmem_handle`].
pub struct PMem {
    aspace: AddressSpace,
    mem: MemHandle,
}

impl std::fmt::Debug for PMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PMem").field("mem", &self.mem).finish()
    }
}

impl PMem {
    /// Creates a handle over `aspace` for the current thread.
    pub fn new(aspace: &AddressSpace) -> PMem {
        PMem {
            mem: aspace.manager().sim().handle(),
            aspace: aspace.clone(),
        }
    }

    /// The owning address space.
    pub fn aspace(&self) -> &AddressSpace {
        &self.aspace
    }

    /// Translates without faulting in the page on failure.
    ///
    /// # Errors
    /// Fails if no region is mapped at `addr`.
    pub fn try_translate(&self, addr: VAddr) -> Result<PAddr> {
        self.aspace.translate(addr)
    }

    #[inline]
    fn xlate(&self, addr: VAddr) -> PAddr {
        match self.aspace.translate(addr) {
            Ok(p) => p,
            Err(e) => panic!("persistent-memory fault at {addr}: {e}"),
        }
    }

    /// Applies `f` to each page-contiguous chunk of `[addr, addr+len)`.
    fn for_chunks(&self, addr: VAddr, len: usize, mut f: impl FnMut(PAddr, usize, usize)) {
        let mut off = 0usize;
        while off < len {
            let a = addr.add(off as u64);
            let in_page = (PAGE_SIZE - a.page_offset()) as usize;
            let n = in_page.min(len - off);
            let p = self.xlate(a);
            f(p, off, n);
            off += n;
        }
    }

    /// Cacheable store (`mov`).
    ///
    /// # Panics
    /// Panics on an unmapped address (segfault analogue).
    pub fn store(&self, addr: VAddr, data: &[u8]) {
        self.for_chunks(addr, data.len(), |p, off, n| {
            self.mem.store(p, &data[off..off + n]);
        });
    }

    /// Cacheable store of one 64-bit word.
    #[inline]
    pub fn store_u64(&self, addr: VAddr, value: u64) {
        if addr.is_word_aligned() {
            // An aligned word never straddles a page.
            return self.mem.store_u64(self.xlate(addr), value);
        }
        self.store(addr, &value.to_le_bytes());
    }

    /// Streaming write-through store (`movntq`) of one word; durable after
    /// the next [`PMem::fence`].
    ///
    /// # Panics
    /// Panics on an unmapped or unaligned address.
    #[inline]
    pub fn wtstore_u64(&self, addr: VAddr, value: u64) {
        debug_assert!(addr.is_word_aligned());
        self.mem.wtstore_u64(self.xlate(addr), value);
    }

    /// Streaming stores of consecutive words from 8-aligned `addr`: one
    /// [`PMem::wtstore_u64`] per word, in order, for one translation per
    /// page and one [`MemHandle::wtstore_words`] run per page.
    ///
    /// # Panics
    /// Panics on an unmapped or unaligned address.
    pub fn wtstore_words(&self, addr: VAddr, words: &[u64]) {
        debug_assert!(addr.is_word_aligned());
        self.for_chunks(addr, words.len() * 8, |p, off, n| {
            self.mem.wtstore_words(p, &words[off / 8..(off + n) / 8]);
        });
    }

    /// Cacheable stores of consecutive words from 8-aligned `addr`, all in
    /// `addr`'s cache line: one [`PMem::store_u64`] per word, in order, for
    /// one translation and one [`MemHandle::store_line_words`] (a line
    /// never straddles a page).
    ///
    /// # Panics
    /// Panics on an unmapped address or if the words leave the line.
    #[inline]
    pub fn store_line_words(&self, addr: VAddr, words: &[u64]) {
        self.mem.store_line_words(self.xlate(addr), words);
    }

    /// Single-word compare-and-swap (`lock cmpxchg`): atomically replaces
    /// the word at 8-aligned `addr` with `new` if it currently reads
    /// `expected`. Cacheable — the winning value is durable only after
    /// [`PMem::flush`] + [`PMem::fence`].
    ///
    /// # Errors
    /// Returns `Err(current)` when the word does not hold `expected`.
    ///
    /// # Panics
    /// Panics on an unmapped address (segfault analogue).
    #[inline]
    pub fn cas_u64(&self, addr: VAddr, expected: u64, new: u64) -> std::result::Result<(), u64> {
        debug_assert!(addr.is_word_aligned());
        self.mem.cas_u64(self.xlate(addr), expected, new)
    }

    /// Flushes the cache line containing `addr` (`clflush`).
    ///
    /// # Panics
    /// Panics on an unmapped address.
    pub fn flush(&self, addr: VAddr) {
        self.mem.flush(self.xlate(addr));
    }

    /// Flushes every line overlapping `[addr, addr+len)`.
    pub fn flush_range(&self, addr: VAddr, len: u64) {
        if len == 0 {
            return;
        }
        // Walk line by line, page-safely.
        let mut a = VAddr(addr.0 - addr.0 % 64);
        let end = addr.add(len);
        while a < end {
            self.flush(a);
            a = a.add(64);
        }
    }

    /// Memory fence (`mfence`): drains streaming stores, stalls until
    /// outstanding writes are stable in SCM.
    #[inline]
    pub fn fence(&self) {
        self.mem.fence();
    }

    /// Crash-point poll for wait loops that issue no durability
    /// primitives (e.g. a thread stalled waiting for log space): if a
    /// fault plan has fired on the device, this thread dies here instead
    /// of spinning forever.
    #[inline]
    pub fn poll_crash(&self) {
        self.mem.poll_crash();
    }

    /// Load of `buf.len()` bytes.
    ///
    /// # Panics
    /// Panics on an unmapped address.
    pub fn read(&self, addr: VAddr, buf: &mut [u8]) {
        self.for_chunks(addr, buf.len(), |p, off, n| {
            self.mem.read(p, &mut buf[off..off + n]);
        });
    }

    /// Load of one 64-bit word.
    #[inline]
    pub fn read_u64(&self, addr: VAddr) -> u64 {
        if addr.is_word_aligned() {
            // An aligned word never straddles a page.
            return self.mem.read_u64(self.xlate(addr));
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// The telemetry registry of the machine this handle addresses.
    pub fn telemetry(&self) -> &Telemetry {
        self.mem.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::RegionManager;
    use mnemosyne_scm::{CrashPolicy, ScmConfig, ScmSim};
    use std::fs;
    use std::path::PathBuf;

    fn setup() -> (ScmSim, AddressSpace, PMem, VAddr, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mnemo-pmem-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let sim = ScmSim::new(ScmConfig::for_testing(4 << 20));
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let aspace = AddressSpace::new(&mgr);
        let fid = mgr.register_file("pm.region").unwrap();
        let base = VAddr::from_vpage(50);
        aspace.map(base, 16, fid).unwrap();
        let pmem = PMem::new(&aspace);
        (sim, aspace, pmem, base, dir)
    }

    #[test]
    fn store_read_roundtrip_across_pages() {
        let (_sim, _as_, pmem, base, dir) = setup();
        let data: Vec<u8> = (0..255u8).cycle().take(10_000).collect();
        let addr = base.add(PAGE_SIZE - 100); // crosses 2+ pages
        pmem.store(addr, &data);
        let mut back = vec![0u8; data.len()];
        pmem.read(addr, &mut back);
        assert_eq!(back, data);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn durable_word_survives_crash() {
        let (sim, aspace, pmem, base, dir) = setup();
        pmem.store_u64(base.add(8), 0xfeed);
        pmem.flush(base.add(8));
        pmem.fence();
        sim.crash(CrashPolicy::DropAll);
        let pmem2 = PMem::new(&aspace);
        assert_eq!(pmem2.read_u64(base.add(8)), 0xfeed);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn undurable_word_lost_on_crash() {
        let (sim, aspace, pmem, base, dir) = setup();
        pmem.store_u64(base.add(8), 0xfeed);
        sim.crash(CrashPolicy::DropAll);
        let pmem2 = PMem::new(&aspace);
        assert_eq!(pmem2.read_u64(base.add(8)), 0);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wtstore_words_spanning_pages() {
        let (sim, _as_, pmem, base, dir) = setup();
        let addr = base.add(PAGE_SIZE - 16);
        let words: Vec<u64> = (1..=6).collect();
        pmem.wtstore_words(addr, &words);
        assert_eq!(sim.stats().wtstore_words, 6);
        pmem.fence();
        let back: Vec<u64> = (0..6).map(|i| pmem.read_u64(addr.add(i * 8))).collect();
        assert_eq!(back, words);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn store_line_words_lands_in_one_line() {
        let (sim, aspace, pmem, base, dir) = setup();
        let line = base.add(PAGE_SIZE + 64);
        pmem.store_line_words(line.add(16), &[5, 6, 7]);
        assert_eq!(pmem.read_u64(line.add(32)), 7);
        assert_eq!(sim.stats().stores, 3);
        pmem.flush(line);
        pmem.fence();
        sim.crash(CrashPolicy::DropAll);
        let pmem2 = PMem::new(&aspace);
        assert_eq!(pmem2.read_u64(line.add(24)), 6);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "persistent-memory fault")]
    fn unmapped_store_segfaults() {
        let (_sim, _as_, pmem, _base, _dir) = setup();
        pmem.store_u64(VAddr::from_vpage(4000), 1);
    }

    #[test]
    fn flush_range_covers_span() {
        let (sim, aspace, pmem, base, dir) = setup();
        let data = [7u8; 300];
        pmem.store(base.add(60), &data);
        pmem.flush_range(base.add(60), 300);
        pmem.fence();
        sim.crash(CrashPolicy::DropAll);
        let pmem2 = PMem::new(&aspace);
        let mut back = [0u8; 300];
        pmem2.read(base.add(60), &mut back);
        assert_eq!(back, [7u8; 300]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cas_roundtrip_and_durability() {
        let (sim, aspace, pmem, base, dir) = setup();
        pmem.store_u64(base.add(16), 7);
        assert_eq!(pmem.cas_u64(base.add(16), 6, 8), Err(7));
        assert!(pmem.cas_u64(base.add(16), 7, 8).is_ok());
        assert_eq!(pmem.read_u64(base.add(16)), 8);
        pmem.flush(base.add(16));
        pmem.fence();
        sim.crash(CrashPolicy::DropAll);
        let pmem2 = PMem::new(&aspace);
        assert_eq!(pmem2.read_u64(base.add(16)), 8);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn pmem_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PMem>();
    }
}
