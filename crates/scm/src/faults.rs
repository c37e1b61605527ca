//! Crash-point fault injection: a seeded, atomically-counted hook on every
//! durability primitive.
//!
//! The existing [`crate::crash::CrashPolicy`] machinery decides *what
//! survives* a crash; a [`FaultPlan`] decides *when the crash happens*. A
//! plan attached to a machine ([`crate::ScmSim::set_fault_plan`]) observes
//! every durability primitive — cacheable stores, streaming stores, line
//! flushes, fences, and (via `pcmdisk`) block writes — under one global
//! atomic counter. Depending on the trigger it either just counts
//! (enumeration pass) or fires at the Nth matching primitive (systematic
//! sweep).
//!
//! Firing models the instant of machine death:
//!
//! 1. The machine is marked **dead**: from this point no primitive has any
//!    durable effect (suppressed, exactly as on real hardware where the
//!    machine simply stops executing). In particular, the orderly
//!    "streaming stores retire on handle drop" rule no longer applies —
//!    pending write-combining entries stay pending for the crash policy to
//!    resolve.
//! 2. The firing thread — and every other thread at its next primitive —
//!    unwinds with a [`CrashRequested`] panic payload. The harness catches
//!    the unwind with `catch_unwind`, injects the device-level crash
//!    ([`crate::ScmSim::crash`]), and reboots from the image.
//!
//! Because the plan can be attached before boot, a crash can land *inside*
//! recovery itself (mid-replay), not just inside the workload. The counter
//! counts primitives, not time, so it is strictly deterministic for
//! single-threaded workloads: the same seed and plan reproduce the same
//! crash point.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The durability primitives a [`FaultPlan`] observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Cacheable store (`mov`).
    Store,
    /// Streaming write-through store (`movntq`), counted per word batch.
    WtStore,
    /// Cache-line flush (`clflush`).
    Flush,
    /// Memory fence (`mfence`).
    Fence,
    /// PCM block-device write (one per block forced to media).
    BlockWrite,
    /// Single-word compare-and-swap on cacheable memory.
    Cas,
}

impl FaultSite {
    const ALL: [FaultSite; 6] = [
        FaultSite::Store,
        FaultSite::WtStore,
        FaultSite::Flush,
        FaultSite::Fence,
        FaultSite::BlockWrite,
        FaultSite::Cas,
    ];

    fn bit(self) -> u8 {
        match self {
            FaultSite::Store => 1 << 0,
            FaultSite::WtStore => 1 << 1,
            FaultSite::Flush => 1 << 2,
            FaultSite::Fence => 1 << 3,
            FaultSite::BlockWrite => 1 << 4,
            FaultSite::Cas => 1 << 5,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultSite::Store => "store",
            FaultSite::WtStore => "wtstore",
            FaultSite::Flush => "flush",
            FaultSite::Fence => "fence",
            FaultSite::BlockWrite => "block-write",
            FaultSite::Cas => "cas",
        };
        f.write_str(s)
    }
}

/// The panic payload thrown when a plan fires. Catch with
/// `std::panic::catch_unwind` and downcast to decide whether an unwind was
/// an injected crash or a genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRequested {
    /// The primitive at which the machine died.
    pub site: FaultSite,
    /// Its index in the plan's global primitive count.
    pub index: u64,
}

impl std::fmt::Display for CrashRequested {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected crash at {} #{}", self.site, self.index)
    }
}

#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Count primitives, never fire (the sweep's enumeration pass).
    CountOnly,
    /// Fire at the Nth matching primitive (0-based).
    At(u64),
}

#[derive(Debug)]
struct FaultInner {
    trigger: Trigger,
    /// Bitmask of [`FaultSite`]s the trigger applies to.
    mask: u8,
    /// Matching primitives observed so far.
    counter: AtomicU64,
    /// Set once the plan fires; the machine is dead from then on.
    dead: AtomicBool,
    /// Where the plan fired (valid once `dead`); packed as
    /// `index << 3 | site` to stay lock-free.
    fired_at: AtomicU64,
}

/// A crash-point schedule shared between a machine and the test harness.
/// Cloning shares state (`Arc` inside), so the harness keeps visibility
/// into the counter after handing the plan to the simulator.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<FaultInner>,
}

impl FaultPlan {
    fn with_trigger(trigger: Trigger) -> Self {
        FaultPlan {
            inner: Arc::new(FaultInner {
                trigger,
                mask: FaultSite::ALL.iter().fold(0, |m, s| m | s.bit()),
                counter: AtomicU64::new(0),
                dead: AtomicBool::new(false),
                fired_at: AtomicU64::new(0),
            }),
        }
    }

    /// A plan that only counts primitives — the sweep's enumeration pass.
    pub fn count_only() -> Self {
        Self::with_trigger(Trigger::CountOnly)
    }

    /// A plan that crashes the machine at the `n`th (0-based) matching
    /// durability primitive.
    pub fn crash_at(n: u64) -> Self {
        Self::with_trigger(Trigger::At(n))
    }

    /// Restricts the plan to the given sites; other primitives are neither
    /// counted nor crashed. Call before attaching the plan.
    #[must_use]
    pub fn with_sites(self, sites: &[FaultSite]) -> Self {
        let mask = sites.iter().fold(0, |m, s| m | s.bit());
        // The plan has not been shared yet in the builder pattern, but
        // `Arc::make_mut` keeps this correct even if it has.
        let inner = &self.inner;
        FaultPlan {
            inner: Arc::new(FaultInner {
                trigger: inner.trigger,
                mask,
                counter: AtomicU64::new(inner.counter.load(Ordering::Relaxed)),
                dead: AtomicBool::new(inner.dead.load(Ordering::Relaxed)),
                fired_at: AtomicU64::new(inner.fired_at.load(Ordering::Relaxed)),
            }),
        }
    }

    /// Matching primitives observed so far.
    pub fn primitives(&self) -> u64 {
        self.inner.counter.load(Ordering::Acquire)
    }

    /// Where the plan fired, if it has.
    pub fn fired(&self) -> Option<CrashRequested> {
        if !self.inner.dead.load(Ordering::Acquire) {
            return None;
        }
        let packed = self.inner.fired_at.load(Ordering::Acquire);
        let site = match packed & 7 {
            0 => FaultSite::Store,
            1 => FaultSite::WtStore,
            2 => FaultSite::Flush,
            3 => FaultSite::Fence,
            5 => FaultSite::Cas,
            _ => FaultSite::BlockWrite,
        };
        Some(CrashRequested {
            site,
            index: packed >> 3,
        })
    }

    /// Whether the plan has fired (the machine is dead).
    pub fn is_dead(&self) -> bool {
        self.inner.dead.load(Ordering::Acquire)
    }

    fn pack(site: FaultSite, index: u64) -> u64 {
        let s = match site {
            FaultSite::Store => 0,
            FaultSite::WtStore => 1,
            FaultSite::Flush => 2,
            FaultSite::Fence => 3,
            FaultSite::BlockWrite => 4,
            FaultSite::Cas => 5,
        };
        (index << 3) | s
    }

    /// The primitive hook. Returns `true` if the operation's memory effect
    /// should be performed, `false` if it must be suppressed (the machine
    /// is dead). Unwinds with [`CrashRequested`] when the plan fires, and
    /// again on every live thread's next primitive after death — never
    /// while the calling thread is already unwinding (that would abort).
    #[inline]
    pub fn on_primitive(&self, site: FaultSite) -> bool {
        if self.inner.dead.load(Ordering::Acquire) {
            self.dead_unwind();
            return false;
        }
        if self.inner.mask & site.bit() == 0 {
            return true;
        }
        let idx = self.inner.counter.fetch_add(1, Ordering::AcqRel);
        let fire = match self.inner.trigger {
            Trigger::CountOnly => false,
            Trigger::At(n) => idx == n,
        };
        if !fire {
            return true;
        }
        // First thread to fire wins; late racers fall into the dead path.
        if self
            .inner
            .dead
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.inner
                .fired_at
                .store(Self::pack(site, idx), Ordering::Release);
        }
        self.dead_unwind();
        false
    }

    /// Suppression check for non-primitive effects (DMA, drop-time drains):
    /// returns `true` when the machine is alive. On a dead machine returns
    /// `false`, unwinding first unless the thread is already panicking.
    #[inline]
    pub fn check_alive(&self) -> bool {
        if self.inner.dead.load(Ordering::Acquire) {
            self.dead_unwind();
            return false;
        }
        true
    }

    /// Whether effects should be silently suppressed without unwinding
    /// (dead machine). Used by teardown paths that must not panic.
    #[inline]
    pub fn suppress_only(&self) -> bool {
        self.inner.dead.load(Ordering::Acquire)
    }

    #[cold]
    fn dead_unwind(&self) {
        if std::thread::panicking() {
            return; // never double-panic during an unwind
        }
        let fired = self.fired().unwrap_or(CrashRequested {
            site: FaultSite::Fence,
            index: 0,
        });
        std::panic::panic_any(fired);
    }
}

/// SplitMix64: decorrelates `seed ^ index` into uniform bits, for the
/// media corruption injector ([`crate::ScmSim::inject_corruption`]).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Result of catching a workload that may have died to an injected crash:
/// classify an unwind payload.
///
/// Returns `Some` if the payload is a [`CrashRequested`] (an injected
/// crash), `None` for any other panic (a genuine bug — resume it or fail
/// the test).
pub fn crash_payload(payload: &(dyn std::any::Any + Send)) -> Option<CrashRequested> {
    payload.downcast_ref::<CrashRequested>().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_only_never_fires() {
        let p = FaultPlan::count_only();
        for _ in 0..100 {
            assert!(p.on_primitive(FaultSite::Store));
        }
        assert_eq!(p.primitives(), 100);
        assert!(p.fired().is_none());
    }

    #[test]
    fn crash_at_fires_exactly_there() {
        let p = FaultPlan::crash_at(3);
        for _ in 0..3 {
            assert!(p.on_primitive(FaultSite::Flush));
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.on_primitive(FaultSite::Fence);
        }))
        .unwrap_err();
        let req = crash_payload(&*err).expect("payload is CrashRequested");
        assert_eq!(req.index, 3);
        assert_eq!(req.site, FaultSite::Fence);
        assert!(p.is_dead());
        assert_eq!(p.fired(), Some(req));
    }

    #[test]
    fn dead_machine_unwinds_other_threads_and_suppresses() {
        let p = FaultPlan::crash_at(0);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.on_primitive(FaultSite::Store);
        }));
        // A later primitive on another (non-panicking) thread unwinds too.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.on_primitive(FaultSite::Store);
        }))
        .unwrap_err();
        assert!(crash_payload(&*err).is_some());
        assert!(p.suppress_only());
    }

    #[test]
    fn site_filter_limits_counting() {
        let p = FaultPlan::count_only().with_sites(&[FaultSite::Fence]);
        assert!(p.on_primitive(FaultSite::Store));
        assert!(p.on_primitive(FaultSite::Flush));
        assert!(p.on_primitive(FaultSite::Fence));
        assert_eq!(p.primitives(), 1);
    }
}
