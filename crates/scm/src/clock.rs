//! Latency emulation: how modelled PCM delays are realised.
//!
//! The paper's emulator (§6.1) inserts delays with a loop reading the TSC
//! until the requested time has elapsed. [`EmulationMode::Spin`] reproduces
//! that, so wall-clock measurements over the simulator are meaningful.
//! [`EmulationMode::None`] disables delays for tests. Either way every delay
//! is accounted on the handle, and all timing is wall clock.

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
}

/// Per-thread delay engine. Owned by a [`crate::MemHandle`]; deliberately
/// `!Sync` (uses `Cell`) because write-combining buffers and accounted
/// delay are per-hardware-thread state.
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
    /// report modelled device time in either mode.
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
    fn spin_mode_waits_at_least_target() {
        let e = DelayEngine::new(EmulationMode::Spin);
        let t = Instant::now();
        e.delay(200_000); // 200 µs
        assert!(t.elapsed().as_nanos() as u64 >= 200_000);
    }
}
