//! `mnemosyne-obs` — cross-layer telemetry for the Mnemosyne reproduction.
//!
//! The paper's evaluation (§6) is entirely about *where time goes*:
//! fences vs. flushes in the RAWL (Table 6), STM instrumentation vs.
//! durability cost (Fig 4/5), sync vs. async log truncation (Fig 6).
//! This crate provides the attribution layer every other crate records
//! into:
//!
//! * [`Counter`] — a lock-free, per-thread-sharded event counter;
//! * [`MaxGauge`] — a monotonic high-water mark (e.g. log occupancy);
//! * [`Histogram`] — a latency distribution over fixed log2 buckets,
//!   fed with wall-clock nanoseconds;
//! * [`Telemetry`] — the registry a simulated machine (and everything
//!   booted over it) records into, with [`Telemetry::snapshot`] /
//!   [`TelemetrySnapshot::since`] for phase measurement;
//! * text and JSON exporters ([`TelemetrySnapshot::to_text`],
//!   [`TelemetrySnapshot::to_json`], [`TelemetrySnapshot::from_json`])
//!   so every bench binary can emit a machine-readable
//!   `telemetry.json` sidecar that BENCH trajectories diff across PRs.
//!
//! Every metric is documented in the repository's `METRICS.md`; a test
//! diffs the registered names against that table so the documentation
//! cannot rot.
//!
//! # Example
//!
//! ```
//! use mnemosyne_obs::{Telemetry, Unit};
//!
//! let t = Telemetry::new();
//! let fences = t.counter("scm.fences", Unit::Count);
//! let lat = t.histogram("mtm.commit_ns", Unit::Nanoseconds);
//!
//! fences.inc();
//! lat.record(1200);
//!
//! let snap = t.snapshot();
//! assert_eq!(snap.counter("scm.fences"), 1);
//! let json = snap.to_json();
//! let back = mnemosyne_obs::TelemetrySnapshot::from_json(&json).unwrap();
//! assert_eq!(back, snap);
//! ```

#![warn(missing_docs)]

mod histogram;
mod json;
mod metric;
mod registry;
mod snapshot;

pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use json::{parse as parse_json, JsonError, JsonValue};
pub use metric::{Counter, Kind, MaxGauge, Unit};
pub use registry::Telemetry;
pub use snapshot::{CounterValue, HistogramValue, TelemetrySnapshot, SCHEMA};
