//! Latency histograms with fixed log2 buckets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metric::Unit;

/// Number of buckets. Bucket 0 holds the value `0`; bucket `i` (for
/// `i ≥ 1`) holds values in `[2^(i-1), 2^i)`; the last bucket also
/// absorbs everything larger. 64 buckets cover the full `u64` range of
/// nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index for a recorded value.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (for reporting).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

pub(crate) struct HistogramCore {
    pub(crate) name: &'static str,
    pub(crate) unit: Unit,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramCore {
    pub(crate) fn new(name: &'static str, unit: Unit) -> HistogramCore {
        HistogramCore {
            name,
            unit,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    #[inline]
    pub(crate) fn record_n(&self, v: u64, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A distribution over fixed log2 buckets; latencies are recorded in
/// wall-clock nanoseconds. Cloning is cheap; obtain one from
/// [`crate::Telemetry::histogram`].
#[derive(Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCore>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.0.name)
            .field("count", &self.0.count())
            .field("sum", &self.0.sum())
            .finish()
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record_n(v, 1);
    }

    /// Records `n` observations of the same value `v` for the cost of
    /// one: the count, sum and buckets end as after `n` [`record`] calls.
    ///
    /// [`record`]: Histogram::record
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        self.0.record_n(v, n);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum()
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
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn record_accumulates() {
        let h = Histogram(Arc::new(HistogramCore::new("t.h", Unit::Nanoseconds)));
        h.record(0);
        h.record(5);
        h.record(5);
        h.record(1 << 40);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10 + (1 << 40));
        let b = h.0.bucket_counts();
        assert_eq!(b[0], 1);
        assert_eq!(b[bucket_of(5)], 2);
        assert_eq!(b[41], 1);
    }

    #[test]
    fn record_n_equals_n_records() {
        let new = || Histogram(Arc::new(HistogramCore::new("t.h", Unit::Nanoseconds)));
        let (batched, single) = (new(), new());
        for (v, n) in [(0, 3), (152_000, 32), (7, 1), (1 << 40, 5), (9, 0)] {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(batched.count(), single.count());
        assert_eq!(batched.sum(), single.sum());
        assert_eq!(batched.0.bucket_counts(), single.0.bucket_counts());
        assert_eq!(batched.count(), 41);
    }

    #[test]
    fn upper_bounds_are_monotonic() {
        let mut prev = 0;
        for i in 0..HISTOGRAM_BUCKETS {
            let ub = bucket_upper_bound(i);
            assert!(ub >= prev);
            prev = ub;
        }
    }
}
