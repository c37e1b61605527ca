//! RAWL — the raw word log (§4.4 of the Mnemosyne paper).
//!
//! A RAWL logs uninterpreted word-size values into a fixed-size
//! single-producer/single-consumer Lamport circular buffer, written with
//! streaming stores. Two implementations are provided:
//!
//! * [`TornbitLog`] — the paper's novel design: every 64-bit log word
//!   reserves one **torn bit** whose sense flips on each pass over the
//!   buffer, so an append is made atomic with a *single* fence (Figure 2);
//! * [`CommitRecordLog`] — the conventional baseline: payload, fence,
//!   commit record, second fence. Table 6 compares the two.
//!
//! Appends (`log_append`) queue streaming stores and guarantee nothing;
//! [`TornbitLog::flush`] (`log_flush`) issues the fence that makes all
//! prior appends durable. Truncation can be synchronous (producer-side
//! [`TornbitLog::truncate_all`]) or asynchronous via a [`LogTruncator`]
//! drained from another thread, exactly the three usage patterns of §4.4.
//!
//! # Example
//!
//! ```
//! use mnemosyne_scm::{ScmSim, ScmConfig};
//! use mnemosyne_region::{RegionManager, Regions};
//! use mnemosyne_rawl::TornbitLog;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join(format!("rawl-doc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir)?;
//! let sim = ScmSim::new(ScmConfig::for_testing(8 << 20));
//! let mgr = RegionManager::boot(&sim, &dir)?;
//! let (regions, pmem) = Regions::open(&mgr, 1 << 16)?;
//! let r = regions.pmap("log", 64 * 1024, &pmem)?;
//!
//! let mut log = TornbitLog::create(pmem, r.addr, 4096)?;
//! log.append(&[0xcafe, 0xf00d])?;
//! log.flush(); // one fence: the append is now atomic and durable
//!
//! // Simulate a failure: only what reached the media survives. Recovery
//! // scans the torn bits and returns every durably appended record.
//! sim.crash(mnemosyne_scm::CrashPolicy::DropAll);
//! let (_log, records) = TornbitLog::recover(regions.pmem_handle(), r.addr)?;
//! assert_eq!(records, vec![vec![0xcafe, 0xf00d]]);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod commit_log;
pub mod error;
mod metrics;
pub mod redo;
pub mod shared;
pub mod tornbit;
pub mod tornbit_log;

pub use commit_log::CommitRecordLog;
pub use error::LogError;
pub use shared::LOG_HEADER_BYTES;
pub use tornbit_log::{LogTruncator, TornbitLog};
