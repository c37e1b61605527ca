//! The PCM block device.

use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use mnemosyne_obs::{Counter, Telemetry, Unit};
use mnemosyne_scm::{EmulationMode, FaultPlan, FaultSite};

use crate::BLOCK_SIZE;

/// Configuration of a [`PcmDisk`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiskConfig {
    /// Device capacity in blocks.
    pub blocks: u64,
    /// Extra PCM write latency charged once per synced block, in
    /// nanoseconds (the fence the block write ends with).
    pub write_latency_ns: u64,
    /// Streaming bandwidth in bytes per nanosecond (4.0 = 4 GB/s).
    pub bandwidth_bytes_per_ns: f64,
    /// Software cost charged once per sync operation, in nanoseconds:
    /// the system call, VFS, file-system and block-layer path every
    /// `fsync`/`msync` on the paper's PCM-disk traverses. This is the
    /// overhead §1 credits direct access with bypassing ("system calls,
    /// file systems, and device drivers"); without it a simulated block
    /// device would be unrealistically cheap relative to user-mode
    /// persistence.
    pub sync_syscall_ns: u64,
    /// How delays are realised (spin for wall-clock benchmarks).
    pub mode: EmulationMode,
}

impl DiskConfig {
    /// The paper's §6.1 parameters: 150 ns + 4 GB/s.
    pub fn paper_default(blocks: u64) -> Self {
        DiskConfig {
            blocks,
            write_latency_ns: 150,
            bandwidth_bytes_per_ns: 4.0,
            sync_syscall_ns: 20_000,
            mode: EmulationMode::Spin,
        }
    }

    /// No delays, for unit tests.
    pub fn for_testing(blocks: u64) -> Self {
        DiskConfig {
            mode: EmulationMode::None,
            sync_syscall_ns: 0,
            ..Self::paper_default(blocks)
        }
    }

    /// Overrides the write latency (Figure 7 sensitivity sweep).
    pub fn with_write_latency_ns(mut self, ns: u64) -> Self {
        self.write_latency_ns = ns;
        self
    }
}

/// Operation counters (plus total modelled device time), registered
/// under `pcmdisk.*` names. A block device is its own machine, so it owns
/// its own [`Telemetry`] registry rather than borrowing an SCM
/// simulator's.
#[derive(Debug)]
pub struct DiskStats {
    /// Block reads served.
    pub reads: Counter,
    /// Block writes into the page cache.
    pub writes: Counter,
    /// Sync operations.
    pub syncs: Counter,
    /// Blocks actually forced to PCM by syncs.
    pub synced_blocks: Counter,
    /// Modelled device time in nanoseconds.
    pub accounted_ns: Counter,
}

impl DiskStats {
    /// Registers the `pcmdisk.*` counters in `telemetry`.
    pub fn new(telemetry: &Telemetry) -> DiskStats {
        DiskStats {
            reads: telemetry.counter("pcmdisk.reads", Unit::Count),
            writes: telemetry.counter("pcmdisk.writes", Unit::Count),
            syncs: telemetry.counter("pcmdisk.syncs", Unit::Count),
            synced_blocks: telemetry.counter("pcmdisk.synced_blocks", Unit::Count),
            accounted_ns: telemetry.counter("pcmdisk.accounted_ns", Unit::Nanoseconds),
        }
    }
}

struct DiskState {
    media: Vec<u8>,
    /// Page cache: block index → pending contents.
    dirty: std::collections::HashMap<u64, Vec<u8>>,
}

/// A PCM block device with a volatile page cache. Writes buffer in the
/// cache; [`PcmDisk::sync`] forces dirty blocks to the media with the
/// §6.1 cost model (one latency + bandwidth term per block).
pub struct PcmDisk {
    config: DiskConfig,
    state: Mutex<DiskState>,
    stats: DiskStats,
    telemetry: Telemetry,
    /// Optional crash-point schedule; each block forced to media reports a
    /// [`FaultSite::BlockWrite`] primitive.
    faults: RwLock<Option<FaultPlan>>,
}

impl std::fmt::Debug for PcmDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcmDisk")
            .field("blocks", &self.config.blocks)
            .finish()
    }
}

impl PcmDisk {
    /// Creates a zeroed device.
    pub fn new(config: DiskConfig) -> PcmDisk {
        let telemetry = Telemetry::new();
        let stats = DiskStats::new(&telemetry);
        PcmDisk {
            state: Mutex::new(DiskState {
                media: vec![0; (config.blocks * BLOCK_SIZE) as usize],
                dirty: std::collections::HashMap::new(),
            }),
            config,
            stats,
            telemetry,
            faults: RwLock::new(None),
        }
    }

    /// The device's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a crash-point schedule: each block forced to PCM counts as
    /// one `BlockWrite` durability primitive, so a sweep can land a crash
    /// between any two blocks of a sync. Share one [`FaultPlan`] with the
    /// SCM machine to count both devices under one index space.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.faults.write() = Some(plan);
    }

    /// Detaches the crash-point schedule.
    pub fn clear_fault_plan(&self) {
        *self.faults.write() = None;
    }

    /// Fault hook: `true` means the block write proceeds.
    fn block_write_allowed(&self) -> bool {
        match self.faults.read().as_ref() {
            None => true,
            Some(p) => p.on_primitive(FaultSite::BlockWrite),
        }
    }

    /// Device capacity in blocks.
    pub fn blocks(&self) -> u64 {
        self.config.blocks
    }

    /// The configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    fn delay(&self, ns: u64) {
        self.stats.accounted_ns.add(ns);
        if self.config.mode == EmulationMode::Spin {
            let start = Instant::now();
            while (start.elapsed().as_nanos() as u64) < ns {
                std::hint::spin_loop();
            }
        }
    }

    /// Reads block `idx` into `buf` (page cache first).
    ///
    /// # Panics
    /// Panics if `idx` is out of range or `buf` is not one block long.
    pub fn read_block(&self, idx: u64, buf: &mut [u8]) {
        assert!(idx < self.config.blocks, "block {idx} out of range");
        assert_eq!(buf.len() as u64, BLOCK_SIZE);
        self.stats.reads.inc();
        let st = self.state.lock();
        if let Some(d) = st.dirty.get(&idx) {
            buf.copy_from_slice(d);
        } else {
            let off = (idx * BLOCK_SIZE) as usize;
            buf.copy_from_slice(&st.media[off..off + BLOCK_SIZE as usize]);
        }
    }

    /// Writes block `idx` into the page cache (no device delay yet —
    /// durability comes from [`PcmDisk::sync`]).
    ///
    /// # Panics
    /// Panics if `idx` is out of range or `data` is not one block long.
    pub fn write_block(&self, idx: u64, data: &[u8]) {
        assert!(idx < self.config.blocks, "block {idx} out of range");
        assert_eq!(data.len() as u64, BLOCK_SIZE);
        self.stats.writes.inc();
        self.state.lock().dirty.insert(idx, data.to_vec());
    }

    /// Forces every dirty block to the media: per block, one sequential
    /// write-through of `BLOCK_SIZE` bytes ending in a fence
    /// (`write_latency + block/bandwidth` nanoseconds). Returns the number
    /// of blocks synced.
    pub fn sync(&self) -> u64 {
        self.stats.syncs.inc();
        let dirty: Vec<(u64, Vec<u8>)> = {
            let mut st = self.state.lock();
            st.dirty.drain().collect()
        };
        let n = dirty.len() as u64;
        {
            let mut st = self.state.lock();
            for (idx, data) in &dirty {
                if !self.block_write_allowed() {
                    // Crashed mid-sync: the remaining blocks never reach
                    // PCM (they were page-cache data, lost with the crash).
                    break;
                }
                let off = (*idx * BLOCK_SIZE) as usize;
                st.media[off..off + BLOCK_SIZE as usize].copy_from_slice(data);
            }
        }
        let per_block = self.config.write_latency_ns
            + (BLOCK_SIZE as f64 / self.config.bandwidth_bytes_per_ns) as u64;
        self.delay(self.config.sync_syscall_ns + n * per_block);
        self.stats.synced_blocks.add(n);
        n
    }

    /// Forces only the dirty blocks selected by `pred` to the media (the
    /// per-file `fsync` path). Returns blocks synced.
    pub fn sync_if(&self, pred: impl Fn(u64) -> bool) -> u64 {
        self.stats.syncs.inc();
        let dirty: Vec<(u64, Vec<u8>)> = {
            let mut st = self.state.lock();
            let keys: Vec<u64> = st.dirty.keys().copied().filter(|&b| pred(b)).collect();
            keys.into_iter()
                .map(|k| {
                    let v = st.dirty.remove(&k).unwrap();
                    (k, v)
                })
                .collect()
        };
        let n = dirty.len() as u64;
        {
            let mut st = self.state.lock();
            for (idx, data) in &dirty {
                if !self.block_write_allowed() {
                    break;
                }
                let off = (*idx * BLOCK_SIZE) as usize;
                st.media[off..off + BLOCK_SIZE as usize].copy_from_slice(data);
            }
        }
        let per_block = self.config.write_latency_ns
            + (BLOCK_SIZE as f64 / self.config.bandwidth_bytes_per_ns) as u64;
        self.delay(self.config.sync_syscall_ns + n * per_block);
        self.stats.synced_blocks.add(n);
        n
    }

    /// Drops all unsynced writes — a crash. Detaches any fault plan: the
    /// device now models the rebooted machine.
    pub fn crash(&self) {
        *self.faults.write() = None;
        self.state.lock().dirty.clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.stats.reads.get(),
            self.stats.writes.get(),
            self.stats.syncs.get(),
            self.stats.synced_blocks.get(),
            self.stats.accounted_ns.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let d = PcmDisk::new(DiskConfig::for_testing(16));
        let block = vec![7u8; BLOCK_SIZE as usize];
        d.write_block(3, &block);
        let mut back = vec![0u8; BLOCK_SIZE as usize];
        d.read_block(3, &mut back);
        assert_eq!(back, block);
    }

    #[test]
    fn unsynced_writes_lost_on_crash() {
        let d = PcmDisk::new(DiskConfig::for_testing(16));
        let block = vec![7u8; BLOCK_SIZE as usize];
        d.write_block(3, &block);
        d.crash();
        let mut back = vec![1u8; BLOCK_SIZE as usize];
        d.read_block(3, &mut back);
        assert!(back.iter().all(|&b| b == 0));
    }

    #[test]
    fn synced_writes_survive_crash() {
        let d = PcmDisk::new(DiskConfig::for_testing(16));
        let block = vec![7u8; BLOCK_SIZE as usize];
        d.write_block(3, &block);
        assert_eq!(d.sync(), 1);
        d.crash();
        let mut back = vec![0u8; BLOCK_SIZE as usize];
        d.read_block(3, &mut back);
        assert_eq!(back, block);
    }

    #[test]
    fn sync_cost_scales_with_dirty_blocks() {
        let d = PcmDisk::new(DiskConfig::for_testing(64));
        let block = vec![1u8; BLOCK_SIZE as usize];
        for i in 0..10 {
            d.write_block(i, &block);
        }
        d.sync();
        let (_, _, _, synced, ns) = d.stats();
        assert_eq!(synced, 10);
        // 10 * (150 + 1024) ns
        assert_eq!(ns, 10 * (150 + 1024));
    }

    #[test]
    fn fault_plan_crashes_mid_sync() {
        let d = PcmDisk::new(DiskConfig::for_testing(16));
        let plan = FaultPlan::crash_at(2).with_sites(&[FaultSite::BlockWrite]);
        d.set_fault_plan(plan.clone());
        let block = vec![9u8; BLOCK_SIZE as usize];
        for i in 0..6 {
            d.write_block(i, &block);
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.sync()));
        assert!(r.is_err(), "sync must crash at the third block write");
        assert_eq!(plan.fired().map(|f| f.index), Some(2));
        d.crash();
        // Exactly two blocks were forced to PCM before the crash.
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        let survivors = (0..6u64)
            .filter(|&i| {
                d.read_block(i, &mut buf);
                buf == block
            })
            .count();
        assert_eq!(survivors, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let d = PcmDisk::new(DiskConfig::for_testing(4));
        d.read_block(4, &mut vec![0u8; BLOCK_SIZE as usize]);
    }
}
