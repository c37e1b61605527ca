//! Per-process address spaces: VMAs, page tables and fault handling.
//!
//! A process maps each persistent region as a VMA over a backing file.
//! Translation from [`VAddr`] to a physical frame goes through a page
//! table; a miss triggers a fault that asks the region manager to bring
//! the page in (a *soft* fault if the page is already resident in SCM from
//! before a restart — the fast path §4.2 describes).
//!
//! The page table is a two-level radix array of atomic entries indexed by
//! virtual page, as a hardware walker reads one: a translation is two
//! `Acquire` loads and takes no lock. Only the paths that change an entry
//! — a fault, an eviction's shootdown and `unmap` — serialise, on the
//! reverse index's mutex. A fault installs its entry while the region
//! manager still holds its state lock, so an eviction cannot slip in
//! between a page coming in and its entry appearing.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use mnemosyne_scm::PAddr;

use crate::error::Result;
use crate::manager::{FileId, RegionManager};
use crate::{RegionError, VAddr, PAGE_SIZE, PERSISTENT_SIZE};

/// One mapped range of persistent virtual pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Vma {
    pages: u64,
    file_id: FileId,
}

/// Virtual pages per page-table leaf: 2^14 pages, 64 MiB of address space
/// in a 128 KiB leaf.
const LEAF_BITS: u32 = 14;
const LEAF_PAGES: usize = 1 << LEAF_BITS;
/// Leaves covering the whole persistent range (2^28 pages).
const ROOT_LEAVES: usize = ((PERSISTENT_SIZE / PAGE_SIZE) >> LEAF_BITS) as usize;

type Leaf = Box<[AtomicU64; LEAF_PAGES]>;

/// `vpage → frame base`: each entry holds `frame | 1`, and 0 means absent.
/// Leaves are allocated on the first fault into their range and live as
/// long as the table. Entries are stored `Release` and loaded `Acquire`,
/// so a thread that sees an entry also sees the page the fault copied in
/// before installing it.
struct PageTable {
    root: Box<[OnceLock<Leaf>]>,
}

impl PageTable {
    fn new() -> PageTable {
        PageTable {
            root: (0..ROOT_LEAVES).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The frame installed for `vpage`, if any.
    #[inline]
    fn get(&self, vpage: u64) -> Option<PAddr> {
        let leaf = self.root[(vpage >> LEAF_BITS) as usize].get()?;
        let e = leaf[vpage as usize % LEAF_PAGES].load(Ordering::Acquire);
        (e != 0).then_some(PAddr(e & !1))
    }

    /// Installs `frame` for `vpage`, allocating its leaf on first use.
    fn set(&self, vpage: u64, frame: PAddr) {
        let leaf = self.root[(vpage >> LEAF_BITS) as usize].get_or_init(|| {
            let zeroed: Box<[AtomicU64]> = (0..LEAF_PAGES).map(|_| AtomicU64::new(0)).collect();
            zeroed.try_into().expect("a leaf has LEAF_PAGES entries")
        });
        leaf[vpage as usize % LEAF_PAGES].store(frame.0 | 1, Ordering::Release);
    }

    /// Removes the entry for `vpage`, if any.
    fn clear(&self, vpage: u64) {
        if let Some(leaf) = self.root[(vpage >> LEAF_BITS) as usize].get() {
            leaf[vpage as usize % LEAF_PAGES].store(0, Ordering::Release);
        }
    }
}

pub(crate) struct AspaceInner {
    mgr: RegionManager,
    /// `vpage_start → Vma`, non-overlapping.
    vmas: RwLock<BTreeMap<u64, Vma>>,
    /// Translations read without a lock; written under `installed`.
    pt: PageTable,
    /// Reverse index for eviction shootdown: `(file, page) → vpage`. Its
    /// mutex serialises every page-table write.
    installed: Mutex<HashMap<(FileId, u64), u64>>,
}

impl AspaceInner {
    /// Removes any page-table entry for `(fid, off)` — called by the
    /// region manager, under its state lock, when it evicts the page.
    pub(crate) fn invalidate(&self, fid: FileId, off: u64) {
        if let Some(vpage) = self.installed.lock().remove(&(fid, off)) {
            self.pt.clear(vpage);
        }
    }
}

/// A process's view of the persistent address range. Cloning shares the
/// page table (threads of one process).
#[derive(Clone)]
pub struct AddressSpace {
    inner: Arc<AspaceInner>,
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressSpace")
            .field("vmas", &self.inner.vmas.read().len())
            .field("installed", &self.inner.installed.lock().len())
            .finish()
    }
}

impl AddressSpace {
    /// Creates an empty address space registered with `mgr` for eviction
    /// shootdown.
    pub fn new(mgr: &RegionManager) -> AddressSpace {
        let inner = Arc::new(AspaceInner {
            mgr: mgr.clone(),
            vmas: RwLock::new(BTreeMap::new()),
            pt: PageTable::new(),
            installed: Mutex::new(HashMap::new()),
        });
        mgr.register_aspace(&inner);
        AddressSpace { inner }
    }

    /// The owning region manager.
    pub fn manager(&self) -> &RegionManager {
        &self.inner.mgr
    }

    /// Maps `pages` persistent virtual pages starting at `addr` onto file
    /// `fid` (page 0 of the file at `addr`).
    ///
    /// # Errors
    /// Fails if the range overlaps an existing mapping or is not
    /// page-aligned and persistent.
    pub fn map(&self, addr: VAddr, pages: u64, fid: FileId) -> Result<()> {
        if !addr.is_persistent() || addr.page_offset() != 0 || pages == 0 {
            return Err(RegionError::Unmapped(addr));
        }
        let start = addr.vpage();
        if pages > PERSISTENT_SIZE / PAGE_SIZE - start {
            return Err(RegionError::Unmapped(addr));
        }
        let mut vmas = self.inner.vmas.write();
        // Overlap check against neighbours.
        if let Some((&s, v)) = vmas.range(..=start).next_back() {
            if s + v.pages > start {
                return Err(RegionError::RegionExists(format!("vma at vpage {s}")));
            }
        }
        if let Some((&s, _)) = vmas.range(start..).next() {
            if start + pages > s {
                return Err(RegionError::RegionExists(format!("vma at vpage {s}")));
            }
        }
        vmas.insert(
            start,
            Vma {
                pages,
                file_id: fid,
            },
        );
        Ok(())
    }

    /// Unmaps the VMA starting at `addr`, dropping its page-table entries.
    /// Resident pages stay in SCM (still recorded in the persistent
    /// mapping table) unless the caller also drops the backing file.
    ///
    /// # Errors
    /// Fails if no VMA starts at `addr`.
    pub fn unmap(&self, addr: VAddr) -> Result<()> {
        let start = addr.vpage();
        let vma = self
            .inner
            .vmas
            .write()
            .remove(&start)
            .ok_or(RegionError::Unmapped(addr))?;
        let mut installed = self.inner.installed.lock();
        for vp in start..start + vma.pages {
            self.inner.pt.clear(vp);
            installed.remove(&(vma.file_id, vp - start));
        }
        Ok(())
    }

    /// Translates a persistent virtual address to its physical address,
    /// faulting the page in if necessary.
    ///
    /// # Errors
    /// Fails if no VMA covers the address or paging fails.
    pub fn translate(&self, addr: VAddr) -> Result<PAddr> {
        if !addr.is_persistent() {
            return Err(RegionError::Unmapped(addr));
        }
        let vpage = addr.vpage();
        if let Some(frame) = self.inner.pt.get(vpage) {
            return Ok(frame.add(addr.page_offset()));
        }
        self.fault(vpage).map(|f| f.add(addr.page_offset()))
    }

    /// Page-fault slow path.
    fn fault(&self, vpage: u64) -> Result<PAddr> {
        let (fid, file_page) = {
            let vmas = self.inner.vmas.read();
            let (&start, vma) = vmas
                .range(..=vpage)
                .next_back()
                .filter(|(&s, v)| vpage < s + v.pages)
                .ok_or(RegionError::Unmapped(VAddr::from_vpage(vpage)))?;
            (vma.file_id, vpage - start)
        };
        // Install while the manager still holds its state lock (state →
        // `installed`, the order eviction takes them in): an eviction of
        // this page then either precedes the fault or sees the entry.
        self.inner.mgr.page_in_then(fid, file_page, |frame| {
            let mut installed = self.inner.installed.lock();
            installed.insert((fid, file_page), vpage);
            self.inner.pt.set(vpage, frame);
        })
    }

    /// Pre-faults every page of the VMA starting at `addr` (used by
    /// recovery code that is about to scan a whole region, and by the
    /// reincarnation experiment to measure remap cost).
    ///
    /// # Errors
    /// Fails if no VMA starts at `addr` or paging fails.
    pub fn prefault(&self, addr: VAddr) -> Result<()> {
        let start = addr.vpage();
        let pages = {
            let vmas = self.inner.vmas.read();
            vmas.get(&start).ok_or(RegionError::Unmapped(addr))?.pages
        };
        for vp in start..start + pages {
            if self.inner.pt.get(vp).is_none() {
                self.fault(vp)?;
            }
        }
        Ok(())
    }

    /// Number of pages currently installed in the page table.
    pub fn installed_pages(&self) -> usize {
        self.inner.installed.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;
    use mnemosyne_scm::{ScmConfig, ScmSim};
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;

    fn setup() -> (ScmSim, RegionManager, AddressSpace, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mnemo-as-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let sim = ScmSim::new(ScmConfig::for_testing(4 << 20));
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let aspace = AddressSpace::new(&mgr);
        (sim, mgr, aspace, dir)
    }

    #[test]
    fn translate_faults_then_hits() {
        let (_sim, mgr, aspace, dir) = setup();
        let fid = mgr.register_file("a.region").unwrap();
        let base = VAddr::from_vpage(100);
        aspace.map(base, 4, fid).unwrap();
        let p1 = aspace.translate(base.add(5)).unwrap();
        let p2 = aspace.translate(base.add(5)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(aspace.installed_pages(), 1);
        // Different page of same VMA gets a different frame.
        let p3 = aspace.translate(base.add(PAGE_SIZE)).unwrap();
        assert_ne!(p1.line_index() / 64, p3.line_index() / 64);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn overlapping_map_rejected() {
        let (_sim, mgr, aspace, dir) = setup();
        let fid = mgr.register_file("a.region").unwrap();
        aspace.map(VAddr::from_vpage(10), 4, fid).unwrap();
        assert!(aspace.map(VAddr::from_vpage(12), 4, fid).is_err());
        assert!(aspace.map(VAddr::from_vpage(8), 4, fid).is_err());
        aspace.map(VAddr::from_vpage(14), 2, fid).unwrap();
        let last = PERSISTENT_SIZE / PAGE_SIZE - 1;
        assert!(
            aspace.map(VAddr::from_vpage(last), 2, fid).is_err(),
            "past the persistent range"
        );
        aspace.map(VAddr::from_vpage(last), 1, fid).unwrap();
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unmapped_access_fails() {
        let (_sim, _mgr, aspace, dir) = setup();
        assert!(matches!(
            aspace.translate(VAddr::from_vpage(5)),
            Err(RegionError::Unmapped(_))
        ));
        assert!(aspace.translate(VAddr(42)).is_err(), "volatile address");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unmap_removes_translation() {
        let (_sim, mgr, aspace, dir) = setup();
        let fid = mgr.register_file("a.region").unwrap();
        let base = VAddr::from_vpage(10);
        aspace.map(base, 2, fid).unwrap();
        aspace.translate(base).unwrap();
        aspace.unmap(base).unwrap();
        assert!(aspace.translate(base).is_err());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn eviction_shootdown_refaults() {
        let (sim, mgr, aspace, dir) = setup();
        let fid = mgr.register_file("a.region").unwrap();
        let base = VAddr::from_vpage(10);
        aspace.map(base, 1, fid).unwrap();
        let p = aspace.translate(base).unwrap();
        sim.dma().write(p, &[9u8; 8]);
        mgr.reclaim(1).unwrap();
        assert_eq!(aspace.installed_pages(), 0, "shootdown must clear the PTE");
        let p2 = aspace.translate(base).unwrap();
        let mut b = [0u8; 8];
        sim.dma().read(p2, &mut b);
        assert_eq!(b, [9u8; 8]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn prefault_installs_all_pages() {
        let (_sim, mgr, aspace, dir) = setup();
        let fid = mgr.register_file("a.region").unwrap();
        let base = VAddr::from_vpage(20);
        aspace.map(base, 8, fid).unwrap();
        aspace.prefault(base).unwrap();
        assert_eq!(aspace.installed_pages(), 8);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_faults_leave_no_stale_entry() {
        // Two threads fault pages of their own file into a device with
        // half the frames the two files need, so a fault may evict the
        // page the other thread has just brought in. Two spinning threads
        // keep the cores busy, so a faulting thread can lose its CPU
        // between the page coming in and its entry going into the table.
        // After every round, each installed entry must name the frame the
        // manager holds the page in.
        const ROUNDS: u64 = 5;
        const FAULTS: u64 = 1_000;
        let dir = std::env::temp_dir().join(format!("mnemo-as-race-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let sim = ScmSim::new(ScmConfig::for_testing(128 << 10));
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let aspace = AddressSpace::new(&mgr);
        let pages = mgr.frame_count();
        let files: Vec<(FileId, u64)> = (0..2)
            .map(|i| {
                let fid = mgr.register_file(&format!("f{i}.region")).unwrap();
                let start = 1 + i * pages;
                aspace.map(VAddr::from_vpage(start), pages, fid).unwrap();
                (fid, start)
            })
            .collect();
        for round in 0..ROUNDS {
            let done = AtomicBool::new(false);
            let faulted = std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        while !done.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    });
                }
                let faulters: Vec<_> = files
                    .iter()
                    .enumerate()
                    .map(|(t, &(_, start))| {
                        let aspace = &aspace;
                        s.spawn(move || {
                            let mut x = round * 2 + t as u64 + 1;
                            for _ in 0..FAULTS {
                                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                                let vp = start + (x >> 33) % pages;
                                aspace.translate(VAddr::from_vpage(vp)).unwrap();
                            }
                        })
                    })
                    .collect();
                let faulted = faulters.into_iter().all(|f| f.join().is_ok());
                done.store(true, Ordering::Relaxed);
                faulted
            });
            assert!(faulted, "a translation failed in round {round}");
            let stale = files
                .iter()
                .flat_map(|&(fid, start)| (0..pages).map(move |off| (fid, start, off)))
                .filter(|&(fid, start, off)| {
                    let entry = aspace.inner.pt.get(start + off);
                    entry.is_some() && entry != mgr.resident_frame(fid, off)
                })
                .count();
            assert_eq!(stale, 0, "stale page-table entries after round {round}");
        }
        fs::remove_dir_all(dir).ok();
    }
}
