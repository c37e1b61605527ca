//! Lock-free counters and high-water-mark gauges.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of per-counter shards. Threads are striped across shards by a
/// cheap thread-local index, so concurrent bumps on the hot paths (every
/// store/flush/fence goes through a counter) do not contend on one cache
/// line.
pub(crate) const SHARDS: usize = 16;

/// What a metric's value denominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Plain event count.
    Count,
    /// 64-bit words.
    Words,
    /// Bytes.
    Bytes,
    /// Nanoseconds.
    Nanoseconds,
    /// Milliseconds (coarse operational gauges, e.g. recovery replay time).
    Milliseconds,
}

impl Unit {
    /// Stable serialization token (used by the JSON exporter).
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Words => "words",
            Unit::Bytes => "bytes",
            Unit::Nanoseconds => "ns",
            Unit::Milliseconds => "ms",
        }
    }

    /// Parses the token written by [`Unit::as_str`].
    pub fn parse(s: &str) -> Option<Unit> {
        match s {
            "count" => Some(Unit::Count),
            "words" => Some(Unit::Words),
            "bytes" => Some(Unit::Bytes),
            "ns" => Some(Unit::Nanoseconds),
            "ms" => Some(Unit::Milliseconds),
            _ => None,
        }
    }
}

/// How shards (and snapshots from several devices) combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Values add (event counters).
    Sum,
    /// Values take the maximum (high-water marks).
    Max,
}

impl Kind {
    /// Stable serialization token.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Sum => "sum",
            Kind::Max => "max",
        }
    }

    /// Parses the token written by [`Kind::as_str`].
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "sum" => Some(Kind::Sum),
            "max" => Some(Kind::Max),
            _ => None,
        }
    }
}

/// One cache line per shard so neighbouring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

pub(crate) struct CounterCore {
    pub(crate) name: &'static str,
    pub(crate) unit: Unit,
    pub(crate) kind: Kind,
    shards: [Shard; SHARDS],
}

impl CounterCore {
    pub(crate) fn new(name: &'static str, unit: Unit, kind: Kind) -> CounterCore {
        CounterCore {
            name,
            unit,
            kind,
            shards: Default::default(),
        }
    }

    /// This thread's shard index (assigned round-robin on first use).
    #[inline]
    fn shard() -> usize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static MY_SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
        }
        MY_SHARD.with(|s| *s)
    }

    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.shards[Self::shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_max(&self, v: u64) {
        self.shards[Self::shard()].0.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn value(&self) -> u64 {
        let vals = self.shards.iter().map(|s| s.0.load(Ordering::Relaxed));
        match self.kind {
            Kind::Sum => vals.sum(),
            Kind::Max => vals.max().unwrap_or(0),
        }
    }
}

/// A lock-free event counter, sharded per thread. Cloning is cheap and
/// all clones observe the same value; obtain one from
/// [`crate::Telemetry::counter`].
#[derive(Clone)]
pub struct Counter(pub(crate) Arc<CounterCore>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("name", &self.0.name)
            .field("value", &self.0.value())
            .finish()
    }
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.add(n);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.0.value()
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }
}

/// A monotonic high-water mark (e.g. peak log occupancy). Obtain one from
/// [`crate::Telemetry::max_gauge`].
#[derive(Clone)]
pub struct MaxGauge(pub(crate) Arc<CounterCore>);

impl std::fmt::Debug for MaxGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaxGauge")
            .field("name", &self.0.name)
            .field("value", &self.0.value())
            .finish()
    }
}

impl MaxGauge {
    /// Raises the mark to `v` if `v` is higher.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record_max(v);
    }

    /// The highest value recorded so far.
    pub fn get(&self) -> u64 {
        self.0.value()
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter(Arc::new(CounterCore::new("t.c", Unit::Count, Kind::Sum)));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let c2 = c.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c2.inc();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn max_gauge_keeps_peak() {
        let g = MaxGauge(Arc::new(CounterCore::new("t.g", Unit::Words, Kind::Max)));
        g.record(10);
        g.record(3);
        g.record(42);
        g.record(7);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn unit_and_kind_roundtrip() {
        for u in [
            Unit::Count,
            Unit::Words,
            Unit::Bytes,
            Unit::Nanoseconds,
            Unit::Milliseconds,
        ] {
            assert_eq!(Unit::parse(u.as_str()), Some(u));
        }
        for k in [Kind::Sum, Kind::Max] {
            assert_eq!(Kind::parse(k.as_str()), Some(k));
        }
        assert_eq!(Unit::parse("bogus"), None);
    }
}
