//! Mnemosyne: lightweight persistent memory.
//!
//! A Rust reproduction of *Mnemosyne: Lightweight Persistent Memory*
//! (Volos, Tack, Swift — ASPLOS 2011). This crate is the user-facing
//! facade over the full stack:
//!
//! | Layer | Crate | Paper section |
//! |---|---|---|
//! | SCM device + performance emulator | `mnemosyne-scm` | §2, §4.1, §6.1 |
//! | persistent regions (kernel + libmnemosyne) | `mnemosyne-region` | §3.1, §4.2 |
//! | tornbit RAWL logs | `mnemosyne-rawl` | §4.4 |
//! | persistent heap (`pmalloc`/`pfree`) | `mnemosyne-pheap` | §4.3 |
//! | durable memory transactions (`atomic {}`) | `mnemosyne-mtm` | §5 |
//!
//! [`Mnemosyne`] boots the whole stack over one simulated machine and a
//! directory of backing files, and adds the `pstatic` facility: named
//! persistent variables in the static region that are initialised once
//! and retain their value across program invocations (§4.2).
//!
//! # Quickstart
//!
//! ```
//! use mnemosyne::Mnemosyne;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join(format!("mnemo-core-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let m = Mnemosyne::builder(&dir).scm_size(16 << 20).open()?;
//!
//! // A named persistent variable: zero on first run, retained after.
//! let counter = m.pstatic("runs", 8)?;
//! let mut th = m.register_thread()?;
//! th.atomic(|tx| {
//!     let n = tx.read_u64(counter)?;
//!     tx.write_u64(counter, n + 1)?;
//!     Ok(())
//! })?;
//! # drop(th);
//! # m.shutdown()?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use mnemosyne_mtm::{
    CkptStats, MtmConfig, MtmRuntime, MtmStats, RecoveryStats, Truncation, Tx, TxAbort, TxError,
    TxThread,
};
pub use mnemosyne_pheap::{HeapConfig, HeapError, PHeap};
pub use mnemosyne_rawl::{CommitRecordLog, LogError, TornbitLog};
pub use mnemosyne_region::{PMem, Region, RegionError, RegionManager, Regions, VAddr};
pub use mnemosyne_scm::{
    crash_payload, CrashPolicy, CrashRequested, EmulationMode, FaultPlan, FaultSite, MemHandle,
    PAddr, ScmConfig, ScmSim, TechPreset,
};

pub use mnemosyne_scm::obs;
pub use mnemosyne_scm::obs::{Telemetry, TelemetrySnapshot};

mod pstatic;
pub mod sweep;
mod updates;

pub use pstatic::PSTATIC_SLOTS;
pub use sweep::{crash_sweep, SweepConfig, SweepFailure, SweepReport};
pub use updates::PCell;

/// Everything that can go wrong when booting or running the stack.
#[derive(Debug)]
pub enum Error {
    /// Region layer failure.
    Region(RegionError),
    /// Heap failure.
    Heap(HeapError),
    /// Transaction system failure.
    Tx(TxError),
    /// Log failure.
    Log(LogError),
    /// Media file I/O failure.
    Io(std::io::Error),
    /// The pstatic directory is full or a variable's size changed.
    PStatic(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Region(e) => write!(f, "region error: {e}"),
            Error::Heap(e) => write!(f, "heap error: {e}"),
            Error::Tx(e) => write!(f, "transaction error: {e}"),
            Error::Log(e) => write!(f, "log error: {e}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::PStatic(m) => write!(f, "pstatic error: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Region(e) => Some(e),
            Error::Heap(e) => Some(e),
            Error::Tx(e) => Some(e),
            Error::Log(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::PStatic(_) => None,
        }
    }
}

impl From<RegionError> for Error {
    fn from(e: RegionError) -> Self {
        Error::Region(e)
    }
}
impl From<HeapError> for Error {
    fn from(e: HeapError) -> Self {
        Error::Heap(e)
    }
}
impl From<TxError> for Error {
    fn from(e: TxError) -> Self {
        Error::Tx(e)
    }
}
impl From<LogError> for Error {
    fn from(e: LogError) -> Self {
        Error::Log(e)
    }
}
impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Builder for [`Mnemosyne`]; see [`Mnemosyne::builder`].
#[derive(Debug)]
pub struct MnemosyneBuilder {
    dir: PathBuf,
    scm_config: ScmConfig,
    static_len: u64,
    heap_config: HeapConfig,
    mtm_config: MtmConfig,
    image: Option<Vec<u8>>,
    sim: Option<ScmSim>,
    fault_plan: Option<FaultPlan>,
}

impl MnemosyneBuilder {
    fn new(dir: &Path) -> Self {
        MnemosyneBuilder {
            dir: dir.to_path_buf(),
            scm_config: ScmConfig::for_testing(64 << 20),
            static_len: 1 << 16,
            heap_config: HeapConfig::default(),
            mtm_config: MtmConfig::default(),
            image: None,
            sim: None,
            fault_plan: None,
        }
    }

    /// Sets the SCM device size in bytes.
    pub fn scm_size(mut self, bytes: u64) -> Self {
        self.scm_config.size = bytes;
        self
    }

    /// Replaces the whole SCM configuration (latency, bandwidth, mode).
    pub fn scm_config(mut self, config: ScmConfig) -> Self {
        self.scm_config = config;
        self
    }

    /// Sets the delay-emulation mode.
    pub fn mode(mut self, mode: EmulationMode) -> Self {
        self.scm_config.mode = mode;
        self
    }

    /// Sets the extra PCM write latency in nanoseconds (§6.1; the paper's
    /// default is 150 ns).
    pub fn write_latency_ns(mut self, ns: u64) -> Self {
        self.scm_config.write_latency_ns = ns;
        self
    }

    /// Sets the persistent-heap area sizes.
    pub fn heap_sizes(mut self, small: u64, large: u64) -> Self {
        self.heap_config = self.heap_config.with_sizes(small, large);
        self
    }

    /// Sets the transaction-log truncation regime (§5).
    pub fn truncation(mut self, t: Truncation) -> Self {
        self.mtm_config.truncation = t;
        self
    }

    /// Sets the maximum concurrent transaction threads.
    pub fn max_threads(mut self, n: usize) -> Self {
        self.mtm_config.max_threads = n;
        self
    }

    /// Sets the per-thread redo-log capacity in words.
    pub fn log_words(mut self, words: u64) -> Self {
        self.mtm_config.log_words = words;
        self
    }

    /// Boots from an in-memory media image (what the SCM held at the
    /// instant of a crash) instead of the media file. The device size is
    /// taken from the image — it is the same physical part.
    pub fn from_image(mut self, image: Vec<u8>) -> Self {
        self.scm_config.size = image.len() as u64;
        self.image = Some(image);
        self
    }

    /// Boots over an already-constructed machine instead of creating one.
    ///
    /// Fault-injection harnesses use this to keep a handle on the machine
    /// even when `open()` itself unwinds mid-recovery: the caller's clone
    /// still reaches the (mutated) media afterwards.
    pub fn with_sim(mut self, sim: ScmSim) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Attaches a crash-point schedule to the machine *before* any layer
    /// boots, so the durability primitives issued during recovery itself
    /// are counted — and can be crash targets. See [`FaultPlan`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Boots the full stack: SCM machine → region manager →
    /// libmnemosyne regions → persistent heap → transaction runtime
    /// (running every layer's recovery on the way up).
    ///
    /// # Errors
    /// Any layer's recovery or setup failure.
    pub fn open(self) -> Result<Mnemosyne, Error> {
        std::fs::create_dir_all(&self.dir)?;
        let media_path = self.dir.join("scm.img");
        let sim = match (self.sim, &self.image) {
            (Some(sim), _) => sim,
            (None, Some(img)) => ScmSim::from_image(img, self.scm_config.clone()),
            (None, None) if media_path.exists() => {
                // Resuming an existing machine: the device size is fixed
                // by the saved media, whatever the builder asked for.
                let mut config = self.scm_config.clone();
                config.size = std::fs::metadata(&media_path)?.len();
                ScmSim::load(&media_path, config)?
            }
            (None, None) => ScmSim::new(self.scm_config.clone()),
        };
        if let Some(plan) = self.fault_plan {
            sim.set_fault_plan(plan);
        }
        let mgr = RegionManager::boot(&sim, &self.dir)?;
        let (regions, _pmem) = Regions::open(&mgr, self.static_len)?;
        let regions = Arc::new(regions);
        let heap = Arc::new(PHeap::open(&regions, self.heap_config.clone())?);
        let mtm = MtmRuntime::open(&regions, self.mtm_config.clone())?;
        mtm.attach_heap(Arc::clone(&heap));
        let m = Mnemosyne {
            dir: self.dir,
            sim,
            mgr,
            regions,
            heap,
            mtm,
        };
        m.init_pstatic()?;
        Ok(m)
    }
}

/// A booted Mnemosyne stack over one simulated machine.
pub struct Mnemosyne {
    dir: PathBuf,
    sim: ScmSim,
    mgr: RegionManager,
    regions: Arc<Regions>,
    heap: Arc<PHeap>,
    mtm: Arc<MtmRuntime>,
}

impl std::fmt::Debug for Mnemosyne {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mnemosyne")
            .field("dir", &self.dir)
            .field("regions", &self.regions.regions().len())
            .finish()
    }
}

impl Mnemosyne {
    /// Starts configuring a stack whose backing files live in `dir` (the
    /// `MNEMOSYNE_REGION_PATH` analogue).
    pub fn builder(dir: &Path) -> MnemosyneBuilder {
        MnemosyneBuilder::new(dir)
    }

    /// Opens with defaults (64 MB SCM, no delay emulation).
    ///
    /// # Errors
    /// See [`MnemosyneBuilder::open`].
    pub fn open(dir: &Path) -> Result<Mnemosyne, Error> {
        Self::builder(dir).open()
    }

    /// Registers the calling thread with the transaction runtime.
    ///
    /// # Errors
    /// Fails when all thread slots are taken.
    pub fn register_thread(&self) -> Result<TxThread, Error> {
        Ok(self.mtm.register_thread()?)
    }

    /// A fresh per-thread persistent-memory handle (for non-transactional
    /// primitive access).
    pub fn pmem_handle(&self) -> PMem {
        self.regions.pmem_handle()
    }

    /// The region registry.
    pub fn regions(&self) -> &Arc<Regions> {
        &self.regions
    }

    /// The persistent heap.
    pub fn heap(&self) -> &Arc<PHeap> {
        &self.heap
    }

    /// The transaction runtime.
    pub fn mtm(&self) -> &Arc<MtmRuntime> {
        &self.mtm
    }

    /// The kernel-side region manager.
    pub fn manager(&self) -> &RegionManager {
        &self.mgr
    }

    /// The simulated machine.
    pub fn sim(&self) -> &ScmSim {
        &self.sim
    }

    /// The machine's telemetry registry, holding every `scm.*`,
    /// `region.*`, `rawl.*`, `pheap.*` and `mtm.*` metric of this boot.
    /// Note that [`Mnemosyne::crash_reboot`] builds a *new* machine, and
    /// with it a new registry; use
    /// [`Telemetry::process_snapshot`] to aggregate across reboots.
    pub fn telemetry(&self) -> &Telemetry {
        self.sim.telemetry()
    }

    /// The backing-file directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Kills the process and crashes the machine: background threads stop
    /// at the failure point, in-flight writes are resolved by `policy`,
    /// and the post-crash media image is returned together with the
    /// backing-file directory. Boot again with
    /// [`MnemosyneBuilder::from_image`] to exercise recovery.
    pub fn crash(self, policy: CrashPolicy) -> (PathBuf, Vec<u8>) {
        self.mtm.kill();
        self.sim.crash(policy);
        let img = self.sim.image();
        (self.dir.clone(), img)
    }

    /// Crash and immediately reboot with default configuration — the
    /// common test pattern.
    ///
    /// # Errors
    /// Any recovery failure on the way back up.
    pub fn crash_reboot(self, policy: CrashPolicy) -> Result<Mnemosyne, Error> {
        let (dir, img) = self.crash(policy);
        Mnemosyne::builder(&dir).from_image(img).open()
    }

    /// Graceful power-down: empty the redo logs, checkpoint resident
    /// pages to their backing files and save the media image, so a later
    /// [`Mnemosyne::open`] on the same directory resumes with all data
    /// and replays nothing.
    ///
    /// # Errors
    /// Propagates checkpoint/save failures. [`LogError::Corrupt`], after
    /// the image is saved, if a poisoned log kept its records (a
    /// checkpoint skips it; the next open reports the corruption).
    pub fn shutdown(self) -> Result<(), Error> {
        // Synchronous logs are empty already. At quiescence one
        // commit-ordered pass reaches every published record of every
        // healthy asynchronous log; a poisoned one keeps its records.
        if self.mtm.outstanding_log_words() > 0 {
            self.mtm.checkpoint();
        }
        let stranded = self.mtm.outstanding_log_words();
        self.mtm.kill();
        self.mgr.checkpoint()?;
        self.sim.shutdown_to(&self.dir.join("scm.img"))?;
        if stranded > 0 {
            return Err(Error::Log(LogError::Corrupt {
                position: 0,
                detail: "a poisoned redo log kept its records through shutdown",
            }));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mnemo-core-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn full_stack_boots_and_counts() {
        let d = dir("boot");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let counter = m.pstatic("count", 8).unwrap();
        let mut th = m.register_thread().unwrap();
        for _ in 0..10 {
            th.atomic(|tx| {
                let v = tx.read_u64(counter)?;
                tx.write_u64(counter, v + 1)?;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(th.atomic(|tx| tx.read_u64(counter)).unwrap(), 10);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn crash_reboot_preserves_committed_state() {
        let d = dir("crash");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let cell = m.pstatic("cell", 8).unwrap();
        let mut th = m.register_thread().unwrap();
        th.atomic(|tx| tx.write_u64(cell, 777)).unwrap();
        drop(th);
        let m2 = m.crash_reboot(CrashPolicy::DropAll).unwrap();
        let cell2 = m2.pstatic("cell", 8).unwrap();
        assert_eq!(cell2, cell, "pstatic variables keep their address");
        let mut th2 = m2.register_thread().unwrap();
        assert_eq!(th2.atomic(|tx| tx.read_u64(cell2)).unwrap(), 777);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn shutdown_and_reopen_from_files() {
        let d = dir("shutdown");
        {
            let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
            let cell = m.pstatic("v", 8).unwrap();
            let mut th = m.register_thread().unwrap();
            th.atomic(|tx| tx.write_u64(cell, 31415)).unwrap();
            drop(th);
            m.shutdown().unwrap();
        }
        let m2 = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let cell = m2.pstatic("v", 8).unwrap();
        let mut th = m2.register_thread().unwrap();
        assert_eq!(th.atomic(|tx| tx.read_u64(cell)).unwrap(), 31415);
        std::fs::remove_dir_all(&d).ok();
    }

    /// Two transaction threads overwrite the same words from two
    /// asynchronous logs whose manager is gone, so both logs keep every
    /// record: `a`'s stale one and `b`'s newer ones. A shutdown that saved
    /// the image like that would hand the next open records to replay;
    /// it must drain both logs first.
    #[test]
    fn shutdown_leaves_no_record_to_replay_over_a_newer_write() {
        const WORDS: u64 = 8;
        let d = dir("quiesce");
        let build = || {
            Mnemosyne::builder(&d)
                .scm_size(32 << 20)
                .truncation(Truncation::Async)
        };
        {
            let m = build().open().unwrap();
            let base = m.pstatic("words", WORDS * 8).unwrap();
            let write_all = |th: &mut TxThread, v: u64| {
                th.atomic(|tx| (0..WORDS).try_for_each(|w| tx.write_u64(base.add(w * 8), v)))
                    .unwrap();
            };
            m.mtm().kill(); // no manager: nothing truncates before shutdown
            let mut a = m.register_thread().unwrap();
            let mut b = m.register_thread().unwrap();
            write_all(&mut a, 1);
            write_all(&mut b, 2);
            write_all(&mut b, 3);
            assert!(m.mtm().outstanding_log_words() > 0, "records linger");
            drop((a, b));
            m.shutdown().unwrap();
        }
        let m = build().open().unwrap();
        assert_eq!(m.mtm().recovery_stats().replayed, 0);
        let base = m.pstatic("words", WORDS * 8).unwrap();
        let mut th = m.register_thread().unwrap();
        for w in 0..WORDS {
            let got = th.atomic(|tx| tx.read_u64(base.add(w * 8))).unwrap();
            assert_eq!(got, 3, "word {w} went back to an older value");
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn heap_and_transactions_compose() {
        let d = dir("compose");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let root = m.pstatic("root", 8).unwrap();
        let mut th = m.register_thread().unwrap();
        // Figure 3's pattern: allocate + link, atomically.
        th.atomic(|tx| {
            let node = tx.pmalloc(32)?;
            tx.write_u64(node, 1234)?;
            tx.write_u64(root, node.0)?;
            Ok(())
        })
        .unwrap();
        let v = th
            .atomic(|tx| {
                let node = VAddr(tx.read_u64(root)?);
                tx.read_u64(node)
            })
            .unwrap();
        assert_eq!(v, 1234);
        std::fs::remove_dir_all(&d).ok();
    }
}
