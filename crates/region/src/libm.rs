//! The `libmnemosyne` region layer (§4.2).
//!
//! `libmnemosyne` "creates and records the persistent regions for a
//! process": it reserves the first 16 KB of the static region for a
//! **region table** whose entries record `<address, length, backing file,
//! metadata>`, recreates previously allocated regions when the process
//! starts, and destroys partially created ones. The table doubles as an
//! **intention log**: an entry is first written uncommitted, the backing
//! file is created, and only then is the committed flag set with a durable
//! single-word update — so a crash at any point either yields a fully
//! usable region or one that startup can garbage-collect.

use mnemosyne_obs::{Counter, MaxGauge, Telemetry, Unit};
use parking_lot::Mutex;

use crate::aspace::AddressSpace;
use crate::error::Result;
use crate::files::FileStore;
use crate::manager::RegionManager;
use crate::pmem::PMem;
use crate::{RegionError, VAddr, PAGE_SIZE, PERSISTENT_BASE};

/// Magic word identifying an initialised region table ("MNEMORGT").
const TABLE_MAGIC: u64 = u64::from_le_bytes(*b"MNEMORGT");

/// Bytes reserved for the region table at the base of the static region.
pub const REGION_TABLE_BYTES: u64 = 16 * 1024;

/// Bytes per region-table slot.
const SLOT_BYTES: u64 = 64;

/// Maximum region-name length storable in a slot.
pub const REGION_NAME_MAX: usize = 32;

/// Number of region-table slots.
pub const REGION_SLOTS: u64 = REGION_TABLE_BYTES / SLOT_BYTES - 1;

/// Name of the static region's backing file.
pub const STATIC_REGION_NAME: &str = "static.region";

/// Committed flag in a slot's `flags` word.
const FLAG_COMMITTED: u64 = 1;

/// A mapped persistent region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Region name (also the backing file name).
    pub name: String,
    /// First virtual address.
    pub addr: VAddr,
    /// Length in bytes (whole pages).
    pub len: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    index: u64,
    region: Region,
    committed: bool,
}

/// The process's region registry: static region + `pmap`/`punmap`.
pub struct Regions {
    aspace: AddressSpace,
    static_len: u64,
    /// Volatile mirror of committed table entries.
    table: Mutex<Vec<Slot>>,
    metrics: RegionsMetrics,
}

/// `libmnemosyne`-side region telemetry (registered under `region.*`).
struct RegionsMetrics {
    /// Successful `pmap` calls that created a new region (reopens of an
    /// existing region are not counted).
    pmaps: Counter,
    /// Successful `punmap` calls.
    punmaps: Counter,
    /// High-water mark of pages committed across all dynamic regions.
    mapped_pages: MaxGauge,
}

impl RegionsMetrics {
    fn new(telemetry: &Telemetry) -> RegionsMetrics {
        RegionsMetrics {
            pmaps: telemetry.counter("region.pmaps", Unit::Count),
            punmaps: telemetry.counter("region.punmaps", Unit::Count),
            mapped_pages: telemetry.max_gauge("region.mapped_pages", Unit::Count),
        }
    }
}

impl std::fmt::Debug for Regions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Regions")
            .field("static_len", &self.static_len)
            .field("regions", &self.table.lock().len())
            .finish()
    }
}

impl Regions {
    /// Opens (or initialises) the process's persistent regions:
    ///
    /// 1. maps the static region (`static.region`, `static_len` bytes) at
    ///    the base of the persistent range;
    /// 2. initialises the region table on first run;
    /// 3. remaps every committed dynamic region recorded in the table;
    /// 4. destroys partially created regions (intention-log recovery).
    ///
    /// Returns the registry plus a [`PMem`] handle for the calling thread.
    ///
    /// # Errors
    /// Fails on I/O errors, exhausted tables, or a corrupt static region.
    pub fn open(mgr: &RegionManager, static_len: u64) -> Result<(Regions, PMem)> {
        let static_len = static_len
            .max(REGION_TABLE_BYTES + PAGE_SIZE)
            .div_ceil(PAGE_SIZE)
            * PAGE_SIZE;
        let aspace = AddressSpace::new(mgr);
        let static_fid = mgr.register_file(STATIC_REGION_NAME)?;
        let base = VAddr(PERSISTENT_BASE);
        aspace.map(base, static_len / PAGE_SIZE, static_fid)?;
        let pmem = PMem::new(&aspace);

        let regions = Regions {
            aspace: aspace.clone(),
            static_len,
            table: Mutex::new(Vec::new()),
            metrics: RegionsMetrics::new(mgr.telemetry()),
        };

        if pmem.read_u64(base) != TABLE_MAGIC {
            // First run (or a crash before the magic became durable):
            // zero the table area, then publish the magic word.
            let zeros = vec![0u8; REGION_TABLE_BYTES as usize];
            pmem.store(base, &zeros);
            pmem.flush_range(base, REGION_TABLE_BYTES);
            pmem.fence();
            pmem.store_u64(base, TABLE_MAGIC);
            pmem.flush(base);
            pmem.fence();
        } else {
            // Scan slots: remap committed regions, clean up the rest.
            let mut table = regions.table.lock();
            for index in 0..REGION_SLOTS {
                let slot_addr = Self::slot_addr(index);
                let addr = VAddr(pmem.read_u64(slot_addr));
                if addr.is_null() {
                    continue;
                }
                let len = pmem.read_u64(slot_addr.add(8));
                let flags = pmem.read_u64(slot_addr.add(16));
                let name_len = pmem.read_u64(slot_addr.add(24)) as usize;
                let mut name_buf = vec![0u8; name_len.min(REGION_NAME_MAX)];
                pmem.read(slot_addr.add(32), &mut name_buf);
                let name = String::from_utf8_lossy(&name_buf).into_owned();
                if flags & FLAG_COMMITTED != 0 {
                    let fid = mgr.register_file(&name)?;
                    aspace.map(addr, len / PAGE_SIZE, fid)?;
                    table.push(Slot {
                        index,
                        region: Region { name, addr, len },
                        committed: true,
                    });
                } else {
                    // Partially created: delete the backing file and free
                    // the slot.
                    if let Some(fid) = mgr.lookup_file(&name) {
                        mgr.drop_file(fid)?;
                    } else {
                        mgr.files().remove(&name)?;
                    }
                    Self::clear_slot(&pmem, index);
                }
            }
        }
        Ok((regions, pmem))
    }

    /// Virtual address of region-table slot `index` (slot 0 starts after
    /// the 64-byte header).
    fn slot_addr(index: u64) -> VAddr {
        VAddr(PERSISTENT_BASE + SLOT_BYTES + index * SLOT_BYTES)
    }

    fn clear_slot(pmem: &PMem, index: u64) {
        let a = Self::slot_addr(index);
        pmem.store(a, &[0u8; SLOT_BYTES as usize]);
        pmem.flush_range(a, SLOT_BYTES);
        pmem.fence();
    }

    /// The address space all regions are mapped into.
    pub fn aspace(&self) -> &AddressSpace {
        &self.aspace
    }

    /// The machine's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        self.aspace.manager().telemetry()
    }

    /// Creates a fresh [`PMem`] handle for another thread.
    pub fn pmem_handle(&self) -> PMem {
        PMem::new(&self.aspace)
    }

    /// Usable static area after the region table: `(address, length)`.
    /// This is where `pstatic` variables live.
    pub fn static_area(&self) -> (VAddr, u64) {
        (
            VAddr(PERSISTENT_BASE + REGION_TABLE_BYTES),
            self.static_len - REGION_TABLE_BYTES,
        )
    }

    /// All committed regions.
    pub fn regions(&self) -> Vec<Region> {
        self.table.lock().iter().map(|s| s.region.clone()).collect()
    }

    /// Looks up a committed region by name.
    pub fn find(&self, name: &str) -> Option<Region> {
        self.table
            .lock()
            .iter()
            .find(|s| s.region.name == name)
            .map(|s| s.region.clone())
    }

    /// Creates (or reopens) the dynamic persistent region `name` of `len`
    /// bytes — the paper's `pmap`. Reopening an existing region returns it
    /// unchanged provided `len` does not exceed its recorded size.
    ///
    /// # Errors
    /// Fails if the name is invalid, the table or address space is full,
    /// or an existing region is smaller than `len`.
    pub fn pmap(&self, name: &str, len: u64, pmem: &PMem) -> Result<Region> {
        FileStore::validate_name(name)?;
        if name.len() > REGION_NAME_MAX {
            return Err(RegionError::BadName(name.to_string()));
        }
        if name == STATIC_REGION_NAME {
            return Err(RegionError::RegionExists(name.to_string()));
        }
        let len = len.max(PAGE_SIZE).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut table = self.table.lock();
        if let Some(slot) = table.iter().find(|s| s.region.name == name) {
            if slot.region.len >= len {
                return Ok(slot.region.clone());
            }
            return Err(RegionError::RegionExists(name.to_string()));
        }

        // Allocate a slot and a virtual range (first fit above everything
        // mapped so far).
        let used: Vec<u64> = table.iter().map(|s| s.index).collect();
        let index = (0..REGION_SLOTS)
            .find(|i| !used.contains(i))
            .ok_or(RegionError::RegionTableFull)?;
        let mut addr = VAddr(PERSISTENT_BASE + self.static_len);
        let mut sorted: Vec<&Slot> = table.iter().collect();
        sorted.sort_by_key(|s| s.region.addr);
        for s in sorted {
            if addr.add(len) <= s.region.addr {
                break;
            }
            addr = VAddr(s.region.addr.0 + s.region.len);
        }
        if addr.add(len).0 > PERSISTENT_BASE + crate::PERSISTENT_SIZE {
            return Err(RegionError::OutOfAddressSpace);
        }

        // Intention-log protocol: record the uncommitted entry durably,
        // create the file, map it, then commit with one atomic word.
        let slot_addr = Self::slot_addr(index);
        let mut rec = [0u8; SLOT_BYTES as usize];
        rec[0..8].copy_from_slice(&addr.0.to_le_bytes());
        rec[8..16].copy_from_slice(&len.to_le_bytes());
        rec[16..24].copy_from_slice(&0u64.to_le_bytes()); // uncommitted
        rec[24..32].copy_from_slice(&(name.len() as u64).to_le_bytes());
        rec[32..32 + name.len()].copy_from_slice(name.as_bytes());
        pmem.store(slot_addr, &rec);
        pmem.flush_range(slot_addr, SLOT_BYTES);
        pmem.fence();

        let mgr = self.aspace.manager().clone();
        let fid = mgr.register_file(name)?;
        self.aspace.map(addr, len / PAGE_SIZE, fid)?;

        pmem.store_u64(slot_addr.add(16), FLAG_COMMITTED);
        pmem.flush(slot_addr.add(16));
        pmem.fence();

        let region = Region {
            name: name.to_string(),
            addr,
            len,
        };
        table.push(Slot {
            index,
            region: region.clone(),
            committed: true,
        });
        self.metrics.pmaps.inc();
        let pages: u64 = table.iter().map(|s| s.region.len / PAGE_SIZE).sum();
        self.metrics.mapped_pages.record(pages);
        Ok(region)
    }

    /// Paper-faithful variant of [`Regions::pmap`] that also writes the new
    /// region's address into the persistent pointer cell `cell` *before*
    /// committing, so the region can never be leaked by a crash (§3.4).
    ///
    /// # Errors
    /// As [`Regions::pmap`].
    pub fn pmap_into(&self, name: &str, len: u64, cell: VAddr, pmem: &PMem) -> Result<Region> {
        let region = self.pmap(name, len, pmem)?;
        pmem.store_u64(cell, region.addr.0);
        pmem.flush(cell);
        pmem.fence();
        Ok(region)
    }

    /// Deletes the dynamic region `name` — the paper's `punmap`: unmaps the
    /// range, frees its SCM frames and removes the backing file.
    ///
    /// # Errors
    /// Fails if the region does not exist.
    pub fn punmap(&self, name: &str, pmem: &PMem) -> Result<()> {
        let mut table = self.table.lock();
        let pos = table
            .iter()
            .position(|s| s.region.name == name)
            .ok_or_else(|| RegionError::NoSuchRegion(name.to_string()))?;
        let slot = table.remove(pos);
        // Uncommit first: if we crash mid-teardown, startup finishes the
        // destruction instead of resurrecting a half-deleted region.
        pmem.store_u64(Self::slot_addr(slot.index).add(16), 0);
        pmem.flush(Self::slot_addr(slot.index).add(16));
        pmem.fence();
        self.aspace.unmap(slot.region.addr)?;
        let mgr = self.aspace.manager();
        if let Some(fid) = mgr.lookup_file(name) {
            mgr.drop_file(fid)?;
        }
        Self::clear_slot(pmem, slot.index);
        self.metrics.punmaps.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne_scm::{CrashPolicy, ScmConfig, ScmSim};
    use std::fs;
    use std::path::{Path, PathBuf};

    fn setup() -> (ScmSim, RegionManager, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mnemo-libm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let sim = ScmSim::new(ScmConfig::for_testing(8 << 20));
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        (sim, mgr, dir)
    }

    fn reboot(sim: &ScmSim, dir: &Path) -> (ScmSim, RegionManager) {
        let img = sim.image();
        let sim2 = ScmSim::from_image(&img, ScmConfig::for_testing(8 << 20));
        let mgr2 = RegionManager::boot(&sim2, dir).unwrap();
        (sim2, mgr2)
    }

    #[test]
    fn pmap_allocates_distinct_ranges() {
        let (_sim, mgr, dir) = setup();
        let (rg, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        let a = rg.pmap("a", 8192, &pmem).unwrap();
        let b = rg.pmap("b", 4096, &pmem).unwrap();
        assert!(b.addr.0 >= a.addr.0 + a.len || a.addr.0 >= b.addr.0 + b.len);
        assert_eq!(rg.regions().len(), 2);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn pmap_is_idempotent_by_name() {
        let (_sim, mgr, dir) = setup();
        let (rg, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        let a1 = rg.pmap("a", 8192, &pmem).unwrap();
        let a2 = rg.pmap("a", 8192, &pmem).unwrap();
        assert_eq!(a1, a2);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn committed_region_survives_crash_reboot() {
        let (sim, mgr, dir) = setup();
        let addr = {
            let (rg, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
            let r = rg.pmap("data", 8192, &pmem).unwrap();
            pmem.store_u64(r.addr.add(128), 4242);
            pmem.flush(r.addr.add(128));
            pmem.fence();
            r.addr
        };
        sim.crash(CrashPolicy::DropAll);
        let (_sim2, mgr2) = reboot(&sim, &dir);
        let (rg2, pmem2) = Regions::open(&mgr2, 1 << 16).unwrap();
        let r2 = rg2.find("data").expect("region must be recreated");
        assert_eq!(r2.addr, addr, "regions map at fixed addresses");
        assert_eq!(pmem2.read_u64(addr.add(128)), 4242);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn static_area_persists() {
        let (sim, mgr, dir) = setup();
        {
            let (rg, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
            let (base, len) = rg.static_area();
            assert!(len >= PAGE_SIZE);
            pmem.store_u64(base, 77);
            pmem.flush(base);
            pmem.fence();
        }
        sim.crash(CrashPolicy::DropAll);
        let (_sim2, mgr2) = reboot(&sim, &dir);
        let (rg2, pmem2) = Regions::open(&mgr2, 1 << 16).unwrap();
        let (base, _) = rg2.static_area();
        assert_eq!(pmem2.read_u64(base), 77);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn punmap_removes_region_and_file() {
        let (_sim, mgr, dir) = setup();
        let (rg, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        rg.pmap("tmp", 4096, &pmem).unwrap();
        assert!(mgr.files().exists("tmp"));
        rg.punmap("tmp", &pmem).unwrap();
        assert!(rg.find("tmp").is_none());
        assert!(!mgr.files().exists("tmp"));
        assert!(rg.punmap("tmp", &pmem).is_err());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn pmap_into_stores_address_in_cell() {
        let (_sim, mgr, dir) = setup();
        let (rg, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        let (static_base, _) = rg.static_area();
        let cell = static_base.add(64);
        let r = rg.pmap_into("anchored", 4096, cell, &pmem).unwrap();
        assert_eq!(pmem.read_u64(cell), r.addr.0);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_after_graceful_drop_sees_regions() {
        let (_sim, mgr, dir) = setup();
        {
            let (rg, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
            rg.pmap("keep", 4096, &pmem).unwrap();
        }
        // New process, same boot.
        let (rg2, _pmem2) = Regions::open(&mgr, 1 << 16).unwrap();
        assert!(rg2.find("keep").is_some());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn name_too_long_rejected() {
        let (_sim, mgr, dir) = setup();
        let (rg, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        let long = "x".repeat(REGION_NAME_MAX + 1);
        assert!(rg.pmap(&long, 4096, &pmem).is_err());
        fs::remove_dir_all(dir).ok();
    }
}
