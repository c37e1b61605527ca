//! The simulated machine: media + cache + write-combining buffers + clock,
//! and the per-thread [`MemHandle`] exposing Mnemosyne's hardware
//! primitives (§4.1, Table 3).

use std::path::Path;
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use crate::addr::{PAddr, CACHE_LINE};
use crate::cache::CacheModel;
use crate::clock::DelayEngine;
use crate::config::ScmConfig;
use crate::crash::CrashPolicy;
use crate::faults::{FaultPlan, FaultSite};
use crate::media::Media;
use crate::stats::{MemStats, StatsSnapshot};
use crate::wc::WcBuffer;
use mnemosyne_obs::Telemetry;

struct SimInner {
    media: Media,
    cache: CacheModel,
    config: ScmConfig,
    telemetry: Telemetry,
    stats: MemStats,
    /// Every live handle's write-combining buffer, so crash injection can
    /// reach in-flight streaming stores of all threads. Weak: a handle
    /// drains its buffer on drop (streaming stores retire eventually),
    /// after which the registry entry is garbage and is pruned lazily.
    wc_registry: Mutex<Vec<Weak<Mutex<WcBuffer>>>>,
    /// Optional crash-point schedule observing every durability primitive.
    faults: RwLock<Option<FaultPlan>>,
}

impl SimInner {
    /// Fault hook for durability primitives: `true` means perform the
    /// memory effect. May unwind with
    /// [`crate::faults::CrashRequested`].
    #[inline]
    fn fault_hook(&self, site: FaultSite) -> bool {
        match self.faults.read().as_ref() {
            None => true,
            Some(p) => p.on_primitive(site),
        }
    }

    /// Whether the machine died to a fired fault plan (effects must be
    /// suppressed). Never unwinds — for teardown paths.
    #[inline]
    fn dead(&self) -> bool {
        match self.faults.read().as_ref() {
            None => false,
            Some(p) => p.suppress_only(),
        }
    }

    /// Like [`SimInner::dead`] but unwinds first on live threads, so
    /// kernel-path writes (DMA) also stop at the crash instant.
    #[inline]
    fn alive(&self) -> bool {
        match self.faults.read().as_ref() {
            None => true,
            Some(p) => p.check_alive(),
        }
    }
}

/// A simulated machine with SCM attached to its memory bus.
///
/// Cloning is cheap (shared state); each thread should obtain its own
/// [`MemHandle`] via [`ScmSim::handle`].
#[derive(Clone)]
pub struct ScmSim {
    inner: Arc<SimInner>,
}

impl std::fmt::Debug for ScmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScmSim")
            .field("size", &self.inner.media.size())
            .field("config", &self.inner.config)
            .finish()
    }
}

impl ScmSim {
    /// Creates a machine with zeroed SCM.
    pub fn new(config: ScmConfig) -> Self {
        let media = Media::new(config.rounded_size());
        Self::with_media(media, config)
    }

    /// Boots a machine from a previously captured media image (e.g. after a
    /// crash or power-down).
    pub fn from_image(image: &[u8], config: ScmConfig) -> Self {
        let media = Media::from_image(image, config.rounded_size());
        Self::with_media(media, config)
    }

    /// Boots a machine from a media file saved by [`ScmSim::shutdown_to`].
    ///
    /// # Errors
    /// Returns any I/O error from reading the file.
    pub fn load(path: &Path, config: ScmConfig) -> std::io::Result<Self> {
        let media = Media::load(path, config.rounded_size())?;
        Ok(Self::with_media(media, config))
    }

    fn with_media(media: Media, config: ScmConfig) -> Self {
        let cache = CacheModel::new(config.cache_capacity_lines);
        let telemetry = Telemetry::new();
        let stats = MemStats::new(&telemetry);
        ScmSim {
            inner: Arc::new(SimInner {
                media,
                cache,
                config,
                telemetry,
                stats,
                wc_registry: Mutex::new(Vec::new()),
                faults: RwLock::new(None),
            }),
        }
    }

    /// Attaches a crash-point schedule. Every durability primitive on every
    /// handle of this machine reports to `plan` from now on; see
    /// [`FaultPlan`] for firing semantics.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.inner.faults.write() = Some(plan);
    }

    /// The attached crash-point schedule, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.faults.read().clone()
    }

    /// Detaches the crash-point schedule.
    pub fn clear_fault_plan(&self) {
        *self.inner.faults.write() = None;
    }

    /// Creates a per-thread memory handle with its own write-combining
    /// buffer and delay engine. Handles are `Send` but deliberately not
    /// `Sync`/`Clone`: one per hardware thread, like the real buffers.
    pub fn handle(&self) -> MemHandle {
        let wc = Arc::new(Mutex::new(WcBuffer::new()));
        let mut registry = self.inner.wc_registry.lock();
        registry.retain(|w| w.strong_count() > 0);
        registry.push(Arc::downgrade(&wc));
        drop(registry);
        MemHandle {
            inner: Arc::clone(&self.inner),
            wc,
            engine: DelayEngine::new(self.inner.config.mode),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &ScmConfig {
        &self.inner.config
    }

    /// Device-wide operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The telemetry registry of this machine. Every layer booted over
    /// the device (region manager, log, heap, transaction runtime)
    /// registers its metrics here, so one registry describes one
    /// simulated machine end to end.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Injects a crash: every in-flight word (dirty cache words and pending
    /// write-combining entries of *all* threads) is handed to `policy`,
    /// which decides the retired subset; the rest is lost. Afterwards the
    /// media holds exactly what a real machine's SCM would hold after the
    /// failure. Handles remain usable — they model the rebooted machine's
    /// (empty) cache.
    pub fn crash(&self, policy: CrashPolicy) {
        // The crash consumes any attached fault plan: handles now model the
        // rebooted machine, whose primitives execute normally again.
        *self.inner.faults.write() = None;
        let mut pending = self.inner.cache.drain_pending();
        for wc in self.inner.wc_registry.lock().iter() {
            if let Some(wc) = wc.upgrade() {
                pending.extend(wc.lock().take_pending());
            }
        }
        for (addr, value) in policy.select(pending) {
            self.inner.media.write_word(addr, value);
        }
        self.inner.stats.crashes.inc();
    }

    /// Captures the post-crash media image. Combined with
    /// [`ScmSim::from_image`] this models power-off/power-on.
    pub fn image(&self) -> Vec<u8> {
        self.inner.media.image()
    }

    /// Corruption injection: flips one bit of the media word at `addr`
    /// (`bit` taken modulo 64), bypassing cache and buffers — a failed PCM
    /// cell. Recovery code must *detect* this, not trust it.
    pub fn inject_bit_flip(&self, addr: PAddr, bit: u32) {
        self.inner.media.flip_bit(addr, bit);
    }

    /// Corruption injection: flips `flips` seeded single bits across
    /// `[addr, addr + len)` — e.g. targeted at a log region to exercise
    /// recovery's corruption detection.
    pub fn inject_corruption(&self, addr: PAddr, len: u64, seed: u64, flips: u32) {
        self.inner.media.corrupt_range(addr, len, seed, flips);
    }

    /// Orderly power-down: write every dirty line back, then save the media
    /// image to `path`.
    ///
    /// # Errors
    /// Returns any I/O error from writing the file.
    pub fn shutdown_to(&self, path: &Path) -> std::io::Result<()> {
        if !self.inner.dead() {
            self.inner.cache.writeback_all(&self.inner.media);
            self.drain_wc_all();
        }
        self.inner.media.save(path)
    }

    /// Drains every thread's write-combining buffer to the media, like a
    /// system-wide store fence. The kernel's page-eviction path uses this
    /// before copying a frame out, so no in-flight streaming store to the
    /// victim page is lost. No latency is charged (kernel context).
    pub fn drain_wc_all(&self) {
        if self.inner.dead() {
            return;
        }
        for wc in self.inner.wc_registry.lock().iter() {
            if let Some(wc) = wc.upgrade() {
                wc.lock().drain(&self.inner.media);
            }
        }
    }

    /// Direct media access for simulated DMA (the region manager uses this
    /// to install page contents from backing files without going through
    /// the cache, like a kernel driver would).
    pub fn dma(&self) -> DmaHandle {
        DmaHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Device size in bytes.
    pub fn size(&self) -> u64 {
        self.inner.media.size()
    }
}

/// Uncached, unaccounted direct access to the media, standing in for kernel
/// DMA during page swap-in/out. Not for application data paths.
#[derive(Clone)]
pub struct DmaHandle {
    inner: Arc<SimInner>,
}

impl std::fmt::Debug for DmaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmaHandle").finish()
    }
}

impl DmaHandle {
    /// Bulk read directly from media. Ignores (volatile) cached data, which
    /// is correct for swap-out only if callers flush first; the region
    /// manager does.
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        self.inner.media.read_bytes(addr, buf);
    }

    /// Bulk write directly to media.
    pub fn write(&self, addr: PAddr, data: &[u8]) {
        if !self.inner.alive() {
            return;
        }
        self.inner.media.write_bytes(addr, data);
    }

    /// Flushes any cached (volatile) data for `len` bytes starting at
    /// `addr` out to media, so a following [`DmaHandle::read`] sees current
    /// contents. Used before swapping a page out.
    pub fn flush_range(&self, addr: PAddr, len: u64) {
        if !self.inner.alive() {
            return;
        }
        let first = addr.line_index();
        let last = addr.add(len.saturating_sub(1)).line_index();
        for line in first..=last {
            self.inner
                .cache
                .flush_line(&self.inner.media, PAddr(line * CACHE_LINE));
        }
    }
}

/// A hardware thread's view of the memory system: the four Mnemosyne
/// primitives plus loads (§4.1, Table 3).
///
/// `Send` (can move to a worker thread) but intentionally neither `Sync`
/// nor `Clone`: the write-combining buffer and accounted delay are
/// per-thread.
pub struct MemHandle {
    inner: Arc<SimInner>,
    wc: Arc<Mutex<WcBuffer>>,
    engine: DelayEngine,
}

impl std::fmt::Debug for MemHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemHandle")
            .field("mode", &self.engine.mode())
            .finish()
    }
}

impl Drop for MemHandle {
    /// Streaming stores retire eventually on real hardware even without a
    /// fence, so an orderly handle drop drains its write-combining buffer
    /// (a *crash* is the only thing that discards pending stores).
    fn drop(&mut self) {
        if self.inner.dead() {
            // The machine crashed: pending streaming stores do NOT retire;
            // the crash policy decides their fate.
            return;
        }
        self.wc.lock().drain(&self.inner.media);
    }
}

impl MemHandle {
    /// Cacheable store (`mov`): visible to loads immediately, durable only
    /// after [`MemHandle::flush`] + [`MemHandle::fence`] or eviction.
    #[inline]
    pub fn store(&self, addr: PAddr, data: &[u8]) {
        if !self.inner.fault_hook(FaultSite::Store) {
            return;
        }
        self.inner.stats.stores.inc();
        self.inner.cache.store_bytes(&self.inner.media, addr, data);
    }

    /// Cacheable store of one 64-bit word.
    #[inline]
    pub fn store_u64(&self, addr: PAddr, value: u64) {
        self.store(addr, &value.to_le_bytes());
    }

    /// Streaming write-through store (`movntq`) of one word. Weakly
    /// ordered: durable only after the next [`MemHandle::fence`], and until
    /// then any subset of pending streaming stores may have retired.
    ///
    /// # Panics
    /// Panics if `addr` is not 8-byte aligned.
    #[inline]
    pub fn wtstore_u64(&self, addr: PAddr, value: u64) {
        if !self.inner.fault_hook(FaultSite::WtStore) {
            return;
        }
        self.inner.stats.wtstore_words.inc();
        self.wc.lock().push(&self.inner.media, addr, value);
    }

    /// Streaming store of a word-aligned byte buffer whose length is a
    /// multiple of 8 (streaming stores operate on whole words).
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or `data.len()` is not a multiple of 8.
    pub fn wtstore(&self, addr: PAddr, data: &[u8]) {
        assert!(addr.is_word_aligned(), "wtstore requires word alignment");
        assert!(
            data.len().is_multiple_of(8),
            "wtstore length must be a multiple of 8"
        );
        if !self.inner.fault_hook(FaultSite::WtStore) {
            return;
        }
        let mut wc = self.wc.lock();
        self.inner.stats.wtstore_words.add((data.len() / 8) as u64);
        for (i, chunk) in data.chunks_exact(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            wc.push(
                &self.inner.media,
                addr.add(i as u64 * 8),
                u64::from_le_bytes(b),
            );
        }
    }

    /// Single-word compare-and-swap (`lock cmpxchg`) on cacheable memory:
    /// atomically replaces the word at 8-aligned `addr` with `new` if it
    /// currently reads `expected`. Like any cacheable store the winning
    /// value is visible to loads immediately but durable only after
    /// [`MemHandle::flush`] + [`MemHandle::fence`] (or eviction). On
    /// failure returns the observed value. On a dead machine the effect
    /// is suppressed and `Err(expected)` is returned (never reached in
    /// practice: the fault hook unwinds first on live threads).
    ///
    /// # Errors
    /// Returns `Err(current)` when the word does not hold `expected`.
    #[inline]
    pub fn cas_u64(&self, addr: PAddr, expected: u64, new: u64) -> Result<(), u64> {
        if !self.inner.fault_hook(FaultSite::Cas) {
            return Err(expected);
        }
        self.inner.stats.cas.inc();
        self.inner
            .cache
            .cas_word(&self.inner.media, addr, expected, new)
    }

    /// Flushes the cache line containing `addr` (`clflush`). Charges PCM
    /// write latency if the line was dirty (§6.1: "for cacheable writes we
    /// insert the delay on the subsequent flush").
    pub fn flush(&self, addr: PAddr) {
        if !self.inner.fault_hook(FaultSite::Flush) {
            return;
        }
        self.inner.stats.flushes.inc();
        if self.inner.cache.flush_line(&self.inner.media, addr) {
            self.inner.stats.dirty_flushes.inc();
            self.engine.delay(self.inner.config.write_latency_ns);
        }
    }

    /// Flushes every line overlapping `[addr, addr+len)`.
    pub fn flush_range(&self, addr: PAddr, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr.line_index();
        let last = addr.add(len - 1).line_index();
        for line in first..=last {
            self.flush(PAddr(line * CACHE_LINE));
        }
    }

    /// Memory fence (`mfence`): drains this thread's write-combining buffer
    /// to the media and stalls until outstanding writes are stable. Charges
    /// the §6.1 delay: one write latency plus the streamed bytes divided by
    /// the modelled bandwidth.
    pub fn fence(&self) {
        if !self.inner.fault_hook(FaultSite::Fence) {
            return;
        }
        self.inner.stats.fences.inc();
        let bytes = self.wc.lock().drain(&self.inner.media);
        let bw_ns = (bytes as f64 / self.inner.config.write_bandwidth_bytes_per_ns) as u64;
        self.engine
            .delay(self.inner.config.write_latency_ns + bw_ns);
    }

    /// Load of `buf.len()` bytes at `addr`. Sees dirty cached data (normal
    /// coherent loads); does not snoop write-combining buffers, matching
    /// the weak ordering of streaming stores.
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        self.inner.stats.reads.inc();
        if self.inner.config.read_latency_ns > 0 {
            self.engine.delay(self.inner.config.read_latency_ns);
        }
        self.inner.cache.read_bytes(&self.inner.media, addr, buf);
    }

    /// Load of one 64-bit word.
    #[inline]
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Crash-point poll for wait loops that issue no primitives (e.g. a
    /// thread stalled on log space): unwinds with
    /// [`crate::faults::CrashRequested`] if the machine died to a fired
    /// [`FaultPlan`]. Free when no plan is attached; never counts as a
    /// primitive.
    #[inline]
    pub fn poll_crash(&self) {
        self.inner.alive();
    }

    /// Nanoseconds of modelled SCM delay accounted on this handle.
    pub fn accounted_ns(&self) -> u64 {
        self.engine.accounted_ns()
    }

    /// Device-wide statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The telemetry registry of the machine this handle belongs to.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Device size in bytes.
    pub fn size(&self) -> u64 {
        self.inner.media.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> ScmSim {
        ScmSim::new(ScmConfig::for_testing(1 << 20))
    }

    #[test]
    fn store_then_flush_fence_is_durable_across_crash() {
        let s = sim();
        let m = s.handle();
        m.store_u64(PAddr(256), 99);
        m.flush(PAddr(256));
        m.fence();
        s.crash(CrashPolicy::DropAll);
        let m2 = s.handle();
        assert_eq!(m2.read_u64(PAddr(256)), 99);
    }

    #[test]
    fn unflushed_store_lost_on_dropall_crash() {
        let s = sim();
        let m = s.handle();
        m.store_u64(PAddr(256), 99);
        s.crash(CrashPolicy::DropAll);
        assert_eq!(s.handle().read_u64(PAddr(256)), 0);
    }

    #[test]
    fn unfenced_wtstore_lost_on_dropall_crash() {
        let s = sim();
        let m = s.handle();
        m.wtstore_u64(PAddr(512), 7);
        s.crash(CrashPolicy::DropAll);
        assert_eq!(s.handle().read_u64(PAddr(512)), 0);
    }

    #[test]
    fn fenced_wtstore_survives_crash() {
        let s = sim();
        let m = s.handle();
        m.wtstore_u64(PAddr(512), 7);
        m.fence();
        s.crash(CrashPolicy::DropAll);
        assert_eq!(s.handle().read_u64(PAddr(512)), 7);
    }

    #[test]
    fn random_crash_tears_multiword_update() {
        let s = sim();
        let m = s.handle();
        for i in 0..64u64 {
            m.wtstore_u64(PAddr(4096 + i * 8), u64::MAX);
        }
        s.crash(CrashPolicy::random(3));
        let m2 = s.handle();
        let survived = (0..64u64)
            .filter(|i| m2.read_u64(PAddr(4096 + i * 8)) == u64::MAX)
            .count();
        assert!(
            survived > 0 && survived < 64,
            "expected a torn write, got {survived}/64"
        );
    }

    #[test]
    fn wtstore_bulk_roundtrip() {
        let s = sim();
        let m = s.handle();
        let data: Vec<u8> = (0..64u8).collect();
        m.wtstore(PAddr(1024), &data);
        m.fence();
        let mut back = vec![0u8; 64];
        m.read(PAddr(1024), &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn image_reboot_cycle() {
        let s = sim();
        let m = s.handle();
        m.store_u64(PAddr(0), 1);
        m.flush(PAddr(0));
        m.fence();
        s.crash(CrashPolicy::DropAll);
        let img = s.image();
        let s2 = ScmSim::from_image(&img, ScmConfig::for_testing(1 << 20));
        assert_eq!(s2.handle().read_u64(PAddr(0)), 1);
    }

    #[test]
    fn flush_latency_is_accounted() {
        let s = ScmSim::new(ScmConfig::for_testing(1 << 16));
        let m = s.handle();
        m.store_u64(PAddr(0), 5);
        m.flush(PAddr(0));
        assert_eq!(m.accounted_ns(), 150);
        m.fence(); // +150, nothing streamed
        assert_eq!(m.accounted_ns(), 300);
    }

    #[test]
    fn fence_charges_bandwidth_for_streaming() {
        let s = ScmSim::new(ScmConfig::for_testing(1 << 16));
        let m = s.handle();
        for i in 0..512u64 {
            m.wtstore_u64(PAddr(i * 8), i);
        }
        m.fence();
        // 4096 bytes at 4 B/ns = 1024 ns, plus 150 ns write latency.
        assert_eq!(m.accounted_ns(), 150 + 1024);
    }

    #[test]
    fn flush_of_clean_line_costs_nothing() {
        let s = ScmSim::new(ScmConfig::for_testing(1 << 16));
        let m = s.handle();
        m.flush(PAddr(128));
        assert_eq!(m.accounted_ns(), 0);
    }

    #[test]
    fn stats_count_operations() {
        let s = sim();
        let m = s.handle();
        m.store_u64(PAddr(0), 1);
        m.wtstore_u64(PAddr(64), 2);
        m.flush(PAddr(0));
        m.fence();
        m.read_u64(PAddr(0));
        let st = s.stats();
        assert_eq!(st.stores, 1);
        assert_eq!(st.wtstore_words, 1);
        assert_eq!(st.flushes, 1);
        assert_eq!(st.dirty_flushes, 1);
        assert_eq!(st.fences, 1);
        assert_eq!(st.reads, 1);
    }

    #[test]
    fn cas_is_cacheable_until_flushed() {
        let s = sim();
        let m = s.handle();
        m.store_u64(PAddr(256), 10);
        assert_eq!(m.cas_u64(PAddr(256), 9, 20), Err(10));
        assert!(m.cas_u64(PAddr(256), 10, 20).is_ok());
        assert_eq!(m.read_u64(PAddr(256)), 20);
        // Not yet durable: a DropAll crash loses it.
        let img_before = {
            s.crash(CrashPolicy::DropAll);
            s.handle().read_u64(PAddr(256))
        };
        assert_eq!(img_before, 0);
        // CAS + flush + fence survives.
        let m2 = s.handle();
        assert!(m2.cas_u64(PAddr(256), 0, 33).is_ok());
        m2.flush(PAddr(256));
        m2.fence();
        s.crash(CrashPolicy::DropAll);
        assert_eq!(s.handle().read_u64(PAddr(256)), 33);
        assert!(s.stats().cas >= 3);
    }

    #[test]
    fn cas_is_a_fault_site() {
        let s = sim();
        let plan = FaultPlan::crash_at(0).with_sites(&[FaultSite::Cas]);
        s.set_fault_plan(plan.clone());
        let m = s.handle();
        m.store_u64(PAddr(0), 1); // not a CAS: does not fire
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.cas_u64(PAddr(0), 1, 2);
        }));
        let req = crate::faults::crash_payload(&*r.unwrap_err()).expect("injected crash");
        assert_eq!(req.site, FaultSite::Cas);
        // Suppressed: the CAS had no memory effect.
        s.crash(CrashPolicy::ApplyAll);
        assert_eq!(s.handle().read_u64(PAddr(0)), 1);
    }

    #[test]
    fn crash_reaches_other_threads_wc_buffers() {
        let s = sim();
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            let m = s2.handle();
            m.wtstore_u64(PAddr(2048), 42);
            m // keep the handle (and its WC buffer) alive across the crash
        });
        let _held = t.join().unwrap();
        s.crash(CrashPolicy::ApplyAll);
        assert_eq!(s.handle().read_u64(PAddr(2048)), 42);
    }

    #[test]
    fn dropped_handle_drains_pending_writes() {
        let s = sim();
        {
            let m = s.handle();
            m.wtstore_u64(PAddr(2048), 42);
            // handle dropped without a fence: streaming stores retire
            // eventually on real hardware, so Drop drains them
        }
        s.crash(CrashPolicy::DropAll);
        assert_eq!(s.handle().read_u64(PAddr(2048)), 42);
    }

    #[test]
    fn dma_bypasses_cache() {
        let s = sim();
        let d = s.dma();
        d.write(PAddr(0), &[9; 16]);
        let mut b = [0u8; 16];
        d.read(PAddr(0), &mut b);
        assert_eq!(b, [9; 16]);
        // Durable: survives DropAll crash.
        s.crash(CrashPolicy::DropAll);
        assert_eq!(s.handle().read_u64(PAddr(0)), u64::from_le_bytes([9; 8]));
    }

    #[test]
    fn dma_flush_range_captures_cached_data() {
        let s = sim();
        let m = s.handle();
        m.store_u64(PAddr(4096), 77);
        let d = s.dma();
        d.flush_range(PAddr(4096), 4096);
        let mut b = [0u8; 8];
        d.read(PAddr(4096), &mut b);
        assert_eq!(u64::from_le_bytes(b), 77);
    }

    #[test]
    fn fault_plan_counts_primitives() {
        let s = sim();
        let plan = FaultPlan::count_only();
        s.set_fault_plan(plan.clone());
        let m = s.handle();
        m.store_u64(PAddr(0), 1);
        m.wtstore_u64(PAddr(64), 2);
        m.flush(PAddr(0));
        m.fence();
        assert_eq!(plan.primitives(), 4);
    }

    #[test]
    fn fault_plan_crash_suppresses_drop_drain() {
        let s = sim();
        let plan = FaultPlan::crash_at(2);
        s.set_fault_plan(plan.clone());
        let m = s.handle();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.store_u64(PAddr(0), 1); // #0
            m.wtstore_u64(PAddr(64), 2); // #1
            m.fence(); // #2 — fires
        }));
        let payload = r.unwrap_err();
        let req = crate::faults::crash_payload(&*payload).expect("injected crash");
        assert_eq!(req.index, 2);
        assert_eq!(req.site, FaultSite::Fence);
        // Machine is dead: dropping the handle must NOT retire the pending
        // streaming store; the crash policy decides, and DropAll loses it.
        drop(m);
        s.crash(CrashPolicy::DropAll);
        assert_eq!(
            s.handle().read_u64(PAddr(64)),
            0,
            "wtstore must not survive"
        );
        assert_eq!(
            s.handle().read_u64(PAddr(0)),
            0,
            "cached store must not survive"
        );
    }

    #[test]
    fn crash_detaches_fault_plan() {
        let s = sim();
        s.set_fault_plan(FaultPlan::crash_at(0));
        let m = s.handle();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.store_u64(PAddr(0), 1);
        }))
        .is_err());
        s.crash(CrashPolicy::DropAll);
        assert!(s.fault_plan().is_none());
        // Rebooted machine executes primitives normally again.
        let m2 = s.handle();
        m2.store_u64(PAddr(0), 5);
        m2.flush(PAddr(0));
        m2.fence();
        assert_eq!(m2.read_u64(PAddr(0)), 5);
    }

    #[test]
    fn handle_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MemHandle>();
        assert_send::<ScmSim>();
        fn assert_sync<T: Sync>() {}
        assert_sync::<ScmSim>();
    }
}
