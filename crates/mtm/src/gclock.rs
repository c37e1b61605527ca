//! Global timestamp counter (§5).
//!
//! "Mnemosyne relies on TinySTM's existing global timestamp counter, which
//! is incremented at every transaction completion. Mnemosyne captures a
//! total order over transactions by storing this global counter along with
//! each transaction in the log." The counter is volatile: recovery derives
//! replay order from the logged timestamps, not from the counter itself.

use std::sync::atomic::{AtomicU64, Ordering};

/// The global transaction clock.
#[derive(Debug, Default)]
pub struct GlobalClock {
    now: AtomicU64,
}

impl GlobalClock {
    /// Creates a clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current timestamp (the read validation horizon for new
    /// transactions).
    #[inline]
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }

    /// Advances the clock and returns this commit's unique timestamp.
    /// This is the serialisation point of a committing transaction.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.now.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_unique() {
        let c = GlobalClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn unique_across_threads() {
        let c = std::sync::Arc::new(GlobalClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "timestamps must be unique");
    }
}
