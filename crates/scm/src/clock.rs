//! Latency emulation: how modelled PCM delays are realised.
//!
//! The paper's emulator (§6.1) inserts delays with a loop reading the TSC
//! until the requested time has elapsed. [`EmulationMode::Spin`] reproduces
//! that, so wall-clock measurements over the simulator are meaningful.
//! [`EmulationMode::Virtual`] instead *accounts* the delay on a per-thread
//! virtual clock, giving deterministic, machine-independent timings for the
//! table/figure harness. [`EmulationMode::None`] disables delays for tests.

use std::cell::Cell;
use std::time::Instant;

/// How modelled SCM delays are realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EmulationMode {
    /// No delays; durability semantics only. For unit tests.
    #[default]
    None,
    /// Busy-wait for the modelled duration (the paper's §6.1 method); makes
    /// wall-clock benchmark numbers reflect the modelled technology.
    Spin,
    /// Account delays on a per-thread virtual clock without waiting.
    Virtual,
}

/// Per-thread delay engine. Owned by a [`crate::MemHandle`]; deliberately
/// `!Sync` (uses `Cell`) because write-combining buffers and virtual time
/// are per-hardware-thread state.
#[derive(Debug)]
pub struct DelayEngine {
    mode: EmulationMode,
    /// Nanoseconds of modelled device time accounted so far (all modes).
    accounted_ns: Cell<u64>,
}

impl DelayEngine {
    /// Creates an engine for the given mode.
    pub fn new(mode: EmulationMode) -> Self {
        DelayEngine {
            mode,
            accounted_ns: Cell::new(0),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> EmulationMode {
        self.mode
    }

    /// Realise a delay of `ns` nanoseconds according to the mode. The delay
    /// is always *accounted*, so [`Self::accounted_ns`] can be used to
    /// report modelled device time even in `Spin` mode.
    pub fn delay(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        self.accounted_ns.set(self.accounted_ns.get() + ns);
        if self.mode == EmulationMode::Spin {
            spin_for(ns);
        }
    }

    /// Total nanoseconds of modelled SCM delay accounted on this thread.
    pub fn accounted_ns(&self) -> u64 {
        self.accounted_ns.get()
    }
}

/// Busy-wait for `ns` nanoseconds. Calibration in the paper found inserted
/// delays to be "at least equal to the target delay"; `Instant`-based
/// spinning has the same property.
fn spin_for(ns: u64) {
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// A stopwatch that reads either wall-clock time or a handle's virtual
/// clock, so timing code is written once for both modes: under
/// [`EmulationMode::Virtual`] an interval is the modelled SCM latency the
/// handle accrued (attribution matches the model, not host noise), and
/// wall time otherwise. Owns no borrow, so it can outlive moves and
/// mutable uses of the handle it was started on; start and read it
/// through [`crate::MemHandle::stopwatch`] / [`crate::MemHandle::elapsed_ns`].
#[derive(Debug)]
pub struct Stopwatch {
    start_wall: Instant,
    start_virtual_ns: u64,
}

impl Stopwatch {
    /// Starts timing against the given engine.
    pub fn start(engine: &DelayEngine) -> Self {
        Stopwatch {
            start_wall: Instant::now(),
            start_virtual_ns: engine.accounted_ns(),
        }
    }

    /// Elapsed nanoseconds: wall time in `None`/`Spin` modes, accounted
    /// virtual time in `Virtual` mode.
    pub fn elapsed_ns(&self, engine: &DelayEngine) -> u64 {
        match engine.mode() {
            EmulationMode::Virtual => engine.accounted_ns().saturating_sub(self.start_virtual_ns),
            _ => self.start_wall.elapsed().as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_mode_accounts_but_does_not_wait() {
        let e = DelayEngine::new(EmulationMode::None);
        let t = Instant::now();
        e.delay(50_000_000);
        assert!(t.elapsed().as_millis() < 40, "None mode must not spin");
        assert_eq!(e.accounted_ns(), 50_000_000);
    }

    #[test]
    fn virtual_mode_accumulates() {
        let e = DelayEngine::new(EmulationMode::Virtual);
        e.delay(150);
        e.delay(150);
        e.delay(0);
        assert_eq!(e.accounted_ns(), 300);
    }

    #[test]
    fn spin_mode_waits_at_least_target() {
        let e = DelayEngine::new(EmulationMode::Spin);
        let t = Instant::now();
        e.delay(200_000); // 200 µs
        assert!(t.elapsed().as_nanos() as u64 >= 200_000);
    }

    #[test]
    fn stopwatch_virtual_reads_accounted_time() {
        let e = DelayEngine::new(EmulationMode::Virtual);
        let sw = Stopwatch::start(&e);
        e.delay(1234);
        assert_eq!(sw.elapsed_ns(&e), 1234);
    }

    #[test]
    fn stopwatch_wall_reads_real_time() {
        let e = DelayEngine::new(EmulationMode::None);
        let sw = Stopwatch::start(&e);
        spin_for(100_000);
        assert!(sw.elapsed_ns(&e) >= 100_000);
    }
}
