//! The kernel region manager (§4.2).
//!
//! The real system extends the Linux virtual memory system with an SCM
//! zone, a `MAP_PERSIST` mmap flag and a *persistent mapping table* at the
//! base of physical SCM that records which file page each SCM frame holds.
//! At boot it scans the table, rebuilds kernel state, and places unclaimed
//! frames on a free list; under memory pressure it swaps persistent pages
//! out to their backing files.
//!
//! This module reproduces that machinery in-process. Kernel metadata
//! updates go through the simulated DMA path: the kernel is assumed to
//! order its own table writes correctly (write-through + fence), so they
//! are durable as issued.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use mnemosyne_obs::{Counter, Telemetry, Unit};
use mnemosyne_scm::{DmaHandle, PAddr, ScmSim};

use crate::aspace::AspaceInner;
use crate::error::Result;
use crate::files::FileStore;
use crate::layout::{Layout, INODE_CAP, MAGIC, NAME_BYTES, VERSION};
use crate::{RegionError, PAGE_SIZE};

/// Identifier of a backing file in the persistent inode table. Zero means
/// "no file" (a free slot).
pub type FileId = u64;

struct ManagerState {
    free_frames: Vec<u64>,
    /// `(file, page) → frame` for pages currently resident in SCM. Survives
    /// reboot via the persistent mapping table; accesses to these pages at
    /// process start are *soft faults* that only update the page table.
    resident: HashMap<(FileId, u64), u64>,
    /// Volatile mirror of the persistent inode table.
    inodes: HashMap<FileId, String>,
    next_file_id: FileId,
}

struct ManagerInner {
    sim: ScmSim,
    dma: DmaHandle,
    layout: Layout,
    files: FileStore,
    state: Mutex<ManagerState>,
    aspaces: Mutex<Vec<Weak<AspaceInner>>>,
    metrics: ManagerMetrics,
}

/// Kernel-side region telemetry (registered under `region.*`).
struct ManagerMetrics {
    /// Hard page faults: pages brought in from a backing file.
    page_ins: Counter,
    /// Resident pages written back and released under memory pressure.
    evictions: Counter,
}

impl ManagerMetrics {
    fn new(telemetry: &Telemetry) -> ManagerMetrics {
        ManagerMetrics {
            page_ins: telemetry.counter("region.page_ins", Unit::Count),
            evictions: telemetry.counter("region.evictions", Unit::Count),
        }
    }
}

/// Shared handle to the region manager. Cloning is cheap.
#[derive(Clone)]
pub struct RegionManager {
    inner: Arc<ManagerInner>,
}

impl std::fmt::Debug for RegionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("RegionManager")
            .field("frames", &self.inner.layout.frame_count)
            .field("free", &st.free_frames.len())
            .field("resident", &st.resident.len())
            .finish()
    }
}

impl RegionManager {
    /// Boots the region manager on `sim`, with backing files stored under
    /// `dir`. Fresh media is formatted; otherwise the persistent mapping
    /// and inode tables are scanned to reconstruct frame ownership — the
    /// OS-boot reincarnation step measured in §6.3.2.
    ///
    /// # Errors
    /// Fails if the device is too small, the superblock is corrupt, or the
    /// directory is unusable.
    pub fn boot(sim: &ScmSim, dir: &Path) -> Result<RegionManager> {
        let layout = Layout::for_device(sim.size())?;
        let dma = sim.dma();
        let files = FileStore::new(dir);

        let mut sb = [0u8; 32];
        dma.read(PAddr(0), &mut sb);
        let magic = u64::from_le_bytes(sb[0..8].try_into().unwrap());
        let mut state = ManagerState {
            free_frames: Vec::new(),
            resident: HashMap::new(),
            inodes: HashMap::new(),
            next_file_id: 1,
        };

        if magic != MAGIC {
            // Fresh device: format.
            let zero_map = vec![0u8; (layout.inode_base.0 - layout.map_base.0) as usize];
            dma.write(layout.map_base, &zero_map);
            let zero_inodes = vec![0u8; (INODE_CAP * crate::layout::INODE_ENTRY_BYTES) as usize];
            dma.write(layout.inode_base, &zero_inodes);
            let mut header = [0u8; 32];
            header[0..8].copy_from_slice(&MAGIC.to_le_bytes());
            header[8..16].copy_from_slice(&VERSION.to_le_bytes());
            header[16..24].copy_from_slice(&layout.frame_count.to_le_bytes());
            header[24..32].copy_from_slice(&INODE_CAP.to_le_bytes());
            dma.write(PAddr(0), &header);
            state.free_frames = (0..layout.frame_count).rev().collect();
        } else {
            let version = u64::from_le_bytes(sb[8..16].try_into().unwrap());
            let frames = u64::from_le_bytes(sb[16..24].try_into().unwrap());
            if version != VERSION || frames != layout.frame_count {
                return Err(RegionError::BadSuperblock);
            }
            // Scan the persistent mapping table: claimed frames become
            // resident pages, the rest go on the free list.
            for frame in 0..layout.frame_count {
                let mut e = [0u8; 16];
                dma.read(layout.map_entry(frame), &mut e);
                let fid = u64::from_le_bytes(e[0..8].try_into().unwrap());
                let off = u64::from_le_bytes(e[8..16].try_into().unwrap());
                if fid == 0 {
                    state.free_frames.push(frame);
                } else {
                    state.resident.insert((fid, off), frame);
                }
            }
            // Scan the inode table to recover file names.
            for slot in 0..INODE_CAP {
                let mut e = [0u8; 16];
                dma.read(layout.inode_entry(slot), &mut e);
                let fid = u64::from_le_bytes(e[0..8].try_into().unwrap());
                if fid == 0 {
                    continue;
                }
                let name_len = u64::from_le_bytes(e[8..16].try_into().unwrap()) as usize;
                let mut name = vec![0u8; name_len.min(NAME_BYTES)];
                dma.read(layout.inode_entry(slot).add(16), &mut name);
                let name = String::from_utf8_lossy(&name).into_owned();
                state.next_file_id = state.next_file_id.max(fid + 1);
                state.inodes.insert(fid, name);
            }
        }

        let metrics = ManagerMetrics::new(sim.telemetry());
        Ok(RegionManager {
            inner: Arc::new(ManagerInner {
                sim: sim.clone(),
                dma,
                layout,
                files,
                state: Mutex::new(state),
                aspaces: Mutex::new(Vec::new()),
                metrics,
            }),
        })
    }

    /// The underlying simulated machine.
    pub fn sim(&self) -> &ScmSim {
        &self.inner.sim
    }

    /// The machine's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        self.inner.sim.telemetry()
    }

    /// The backing-file store (region directory).
    pub fn files(&self) -> &FileStore {
        &self.inner.files
    }

    /// Total SCM frames managed.
    pub fn frame_count(&self) -> u64 {
        self.inner.layout.frame_count
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> usize {
        self.inner.state.lock().free_frames.len()
    }

    /// Registers an address space for page-table invalidation on eviction.
    pub(crate) fn register_aspace(&self, a: &Arc<AspaceInner>) {
        self.inner.aspaces.lock().push(Arc::downgrade(a));
    }

    /// Returns the id of the backing file `name`, registering it in the
    /// persistent inode table (and creating it on disk) if new.
    ///
    /// # Errors
    /// Fails if the name is invalid or the inode table is full.
    pub fn register_file(&self, name: &str) -> Result<FileId> {
        FileStore::validate_name(name)?;
        let mut st = self.inner.state.lock();
        if let Some((&fid, _)) = st.inodes.iter().find(|(_, n)| n.as_str() == name) {
            return Ok(fid);
        }
        // Find a free inode slot.
        let used: Vec<FileId> = st.inodes.keys().copied().collect();
        if used.len() as u64 >= INODE_CAP {
            return Err(RegionError::InodeTableFull);
        }
        let slot = (0..INODE_CAP)
            .find(|s| {
                let mut e = [0u8; 8];
                self.inner
                    .dma
                    .read(self.inner.layout.inode_entry(*s), &mut e);
                u64::from_le_bytes(e) == 0
            })
            .ok_or(RegionError::InodeTableFull)?;
        let fid = st.next_file_id;
        st.next_file_id += 1;
        self.inner.files.create(name)?;
        let addr = self.inner.layout.inode_entry(slot);
        // Write name first, id last: a torn create leaves id==0 (free).
        self.inner
            .dma
            .write(addr.add(8), &(name.len() as u64).to_le_bytes());
        self.inner.dma.write(addr.add(16), name.as_bytes());
        self.inner.dma.write(addr, &fid.to_le_bytes());
        st.inodes.insert(fid, name.to_string());
        Ok(fid)
    }

    /// Looks up a registered backing file by name.
    pub fn lookup_file(&self, name: &str) -> Option<FileId> {
        let st = self.inner.state.lock();
        st.inodes
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(&fid, _)| fid)
    }

    /// Ensures page `page_off` of file `fid` is resident in an SCM frame
    /// and returns the frame's physical base address.
    ///
    /// A page already resident (e.g. left over from before a reboot) is a
    /// *soft fault*: no data is copied. Otherwise a frame is allocated
    /// (evicting another page if necessary), the page is read from the
    /// backing file, and the persistent mapping table is updated.
    ///
    /// # Errors
    /// Fails if no frame can be freed or on backing-file I/O errors.
    pub fn page_in(&self, fid: FileId, page_off: u64) -> Result<PAddr> {
        let mut st = self.inner.state.lock();
        if let Some(&frame) = st.resident.get(&(fid, page_off)) {
            return Ok(self.inner.layout.frame_addr(frame));
        }
        let frame = match st.free_frames.pop() {
            Some(f) => f,
            None => self.evict_locked(&mut st)?,
        };
        let name = st
            .inodes
            .get(&fid)
            .cloned()
            .ok_or_else(|| RegionError::NoSuchRegion(format!("file #{fid}")))?;
        let mut page = [0u8; PAGE_SIZE as usize];
        self.inner.files.read_page(&name, page_off, &mut page)?;
        self.inner.metrics.page_ins.inc();
        let frame_addr = self.inner.layout.frame_addr(frame);
        self.inner.dma.write(frame_addr, &page);
        // Publish the mapping: <file, offset> first, so a torn update can
        // only lose the claim (data remains in the file), never fabricate
        // one pointing at garbage... the entry is two words; write offset
        // then id, as id != 0 is what claims the frame.
        let entry = self.inner.layout.map_entry(frame);
        self.inner.dma.write(entry.add(8), &page_off.to_le_bytes());
        self.inner.dma.write(entry, &fid.to_le_bytes());
        st.resident.insert((fid, page_off), frame);
        Ok(frame_addr)
    }

    /// Evicts one resident page to its backing file and returns the freed
    /// frame. Caller holds the state lock.
    fn evict_locked(&self, st: &mut ManagerState) -> Result<u64> {
        let (&(fid, off), &frame) = st.resident.iter().next().ok_or(RegionError::OutOfFrames)?;
        let name = st
            .inodes
            .get(&fid)
            .cloned()
            .ok_or(RegionError::OutOfFrames)?;
        let frame_addr = self.inner.layout.frame_addr(frame);
        // Make sure everything the program wrote is in media before copying.
        self.inner.sim.drain_wc_all();
        self.inner.dma.flush_range(frame_addr, PAGE_SIZE);
        let mut page = [0u8; PAGE_SIZE as usize];
        self.inner.dma.read(frame_addr, &mut page);
        self.inner.files.write_page(&name, off, &page)?;
        // Release the claim (id word to zero) only after the file is synced.
        self.inner
            .dma
            .write(self.inner.layout.map_entry(frame), &0u64.to_le_bytes());
        st.resident.remove(&(fid, off));
        self.inner.metrics.evictions.inc();
        // Shoot down any page-table entries referring to this page.
        let aspaces = self.inner.aspaces.lock();
        for w in aspaces.iter() {
            if let Some(a) = w.upgrade() {
                a.invalidate(fid, off);
            }
        }
        Ok(frame)
    }

    /// Forces eviction of `n` resident pages (used by tests and the
    /// reincarnation experiment to create memory pressure).
    ///
    /// # Errors
    /// Fails if fewer than `n` pages are resident.
    pub fn reclaim(&self, n: usize) -> Result<()> {
        let mut st = self.inner.state.lock();
        for _ in 0..n {
            let frame = self.evict_locked(&mut st)?;
            st.free_frames.push(frame);
        }
        Ok(())
    }

    /// Discards all resident pages of `fid` (without write-back) and
    /// removes the file from the inode table and the disk. Used by
    /// `punmap` when a region is destroyed.
    ///
    /// # Errors
    /// Propagates backing-file I/O errors.
    pub fn drop_file(&self, fid: FileId) -> Result<()> {
        let mut st = self.inner.state.lock();
        let pages: Vec<(FileId, u64)> = st
            .resident
            .keys()
            .filter(|(f, _)| *f == fid)
            .copied()
            .collect();
        for key in pages {
            let frame = st.resident.remove(&key).unwrap();
            self.inner
                .dma
                .write(self.inner.layout.map_entry(frame), &0u64.to_le_bytes());
            st.free_frames.push(frame);
            let aspaces = self.inner.aspaces.lock();
            for w in aspaces.iter() {
                if let Some(a) = w.upgrade() {
                    a.invalidate(key.0, key.1);
                }
            }
        }
        if let Some(name) = st.inodes.remove(&fid) {
            // Clear the inode slot.
            for slot in 0..INODE_CAP {
                let mut e = [0u8; 8];
                self.inner
                    .dma
                    .read(self.inner.layout.inode_entry(slot), &mut e);
                if u64::from_le_bytes(e) == fid {
                    self.inner
                        .dma
                        .write(self.inner.layout.inode_entry(slot), &0u64.to_le_bytes());
                    break;
                }
            }
            self.inner.files.remove(&name)?;
        }
        Ok(())
    }

    /// Writes every resident page back to its backing file without
    /// releasing frames — an orderly checkpoint used at graceful shutdown.
    ///
    /// # Errors
    /// Propagates backing-file I/O errors.
    pub fn checkpoint(&self) -> Result<()> {
        let st = self.inner.state.lock();
        self.inner.sim.drain_wc_all();
        for (&(fid, off), &frame) in st.resident.iter() {
            let name = match st.inodes.get(&fid) {
                Some(n) => n.clone(),
                None => continue,
            };
            let frame_addr = self.inner.layout.frame_addr(frame);
            self.inner.dma.flush_range(frame_addr, PAGE_SIZE);
            let mut page = [0u8; PAGE_SIZE as usize];
            self.inner.dma.read(frame_addr, &mut page);
            self.inner.files.write_page(&name, off, &page)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne_scm::{CrashPolicy, ScmConfig};
    use std::fs;
    use std::path::PathBuf;

    fn setup(size: u64) -> (ScmSim, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mnemo-mgr-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        (ScmSim::new(ScmConfig::for_testing(size)), dir)
    }

    #[test]
    fn fresh_boot_formats_and_frees_all_frames() {
        let (sim, dir) = setup(4 << 20);
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        assert_eq!(mgr.free_frames() as u64, mgr.frame_count());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn page_in_and_soft_fault() {
        let (sim, dir) = setup(4 << 20);
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let fid = mgr.register_file("t.region").unwrap();
        let a1 = mgr.page_in(fid, 0).unwrap();
        let a2 = mgr.page_in(fid, 0).unwrap();
        assert_eq!(a1, a2, "second fault must be soft");
        assert_eq!(mgr.free_frames() as u64, mgr.frame_count() - 1);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mapping_survives_crash_and_reboot() {
        let (sim, dir) = setup(4 << 20);
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let fid = mgr.register_file("t.region").unwrap();
        let frame = mgr.page_in(fid, 3).unwrap();
        sim.dma().write(frame, b"persisted");
        // Crash the machine; kernel DMA writes are already durable.
        sim.crash(CrashPolicy::DropAll);
        let img = sim.image();
        let sim2 = ScmSim::from_image(&img, ScmConfig::for_testing(4 << 20));
        let mgr2 = RegionManager::boot(&sim2, &dir).unwrap();
        let fid2 = mgr2.lookup_file("t.region").unwrap();
        assert_eq!(fid2, fid);
        let frame2 = mgr2.page_in(fid2, 3).unwrap();
        let mut buf = [0u8; 9];
        sim2.dma().read(frame2, &mut buf);
        assert_eq!(&buf, b"persisted");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn eviction_round_trips_through_backing_file() {
        let (sim, dir) = setup(4 << 20);
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let fid = mgr.register_file("t.region").unwrap();
        let frame = mgr.page_in(fid, 7).unwrap();
        sim.dma().write(frame, &[0xabu8; 64]);
        mgr.reclaim(1).unwrap();
        assert_eq!(mgr.free_frames() as u64, mgr.frame_count());
        // Fault it back: data must come back from the file.
        let frame2 = mgr.page_in(fid, 7).unwrap();
        let mut buf = [0u8; 64];
        sim.dma().read(frame2, &mut buf);
        assert_eq!(buf, [0xabu8; 64]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn pressure_evicts_automatically() {
        let (sim, dir) = setup(1 << 20); // ~200 frames
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let fid = mgr.register_file("big.region").unwrap();
        let total = mgr.frame_count() + 10;
        for off in 0..total {
            let frame = mgr.page_in(fid, off).unwrap();
            sim.dma().write(frame, &off.to_le_bytes());
        }
        // All pages readable, including evicted ones.
        for off in (0..total).rev() {
            let frame = mgr.page_in(fid, off).unwrap();
            let mut b = [0u8; 8];
            sim.dma().read(frame, &mut b);
            assert_eq!(u64::from_le_bytes(b), off, "page {off} corrupted by swap");
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn register_file_is_idempotent() {
        let (sim, dir) = setup(4 << 20);
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let a = mgr.register_file("same.region").unwrap();
        let b = mgr.register_file("same.region").unwrap();
        assert_eq!(a, b);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn drop_file_frees_frames_and_deletes() {
        let (sim, dir) = setup(4 << 20);
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let fid = mgr.register_file("gone.region").unwrap();
        mgr.page_in(fid, 0).unwrap();
        mgr.page_in(fid, 1).unwrap();
        mgr.drop_file(fid).unwrap();
        assert_eq!(mgr.free_frames() as u64, mgr.frame_count());
        assert!(mgr.lookup_file("gone.region").is_none());
        assert!(!mgr.files().exists("gone.region"));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bad_name_rejected() {
        let (sim, dir) = setup(4 << 20);
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        assert!(matches!(
            mgr.register_file("a/b"),
            Err(RegionError::BadName(_))
        ));
        fs::remove_dir_all(dir).ok();
    }
}
