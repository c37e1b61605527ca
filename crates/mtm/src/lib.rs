//! libmtm — durable memory transactions (§5 of the Mnemosyne paper).
//!
//! Durable transactions make **in-place updates** of arbitrary persistent
//! data structures atomic, durable and isolated. The design follows the
//! paper exactly:
//!
//! * a word-based software transactional memory derived from TinySTM with
//!   **lazy version management**: new values are buffered volatile-side
//!   during the transaction and published at commit;
//! * **write-ahead redo logging**: at commit, `(address, value)` pairs are
//!   appended to a per-thread tornbit RAWL and made durable with a single
//!   fence — the only ordering requirement redo logging leaves is
//!   *log-before-data* (§5 "Discussion");
//! * **eager conflict detection** with encounter-time locking over a
//!   global array of volatile versioned locks;
//! * a **global timestamp counter** captures a total commit order that
//!   recovery uses to replay committed-but-unflushed transactions from all
//!   per-thread logs in the right order;
//! * **synchronous** or **asynchronous** log truncation: either the
//!   committing thread flushes modified lines and truncates its log
//!   before it releases its locks, or a log-manager thread drains logs off
//!   the critical path (§5, Figure 6).
//!
//! The paper uses Intel's STM compiler to instrument `atomic { … }`
//! blocks; the Rust analogue is a closure receiving a [`Tx`] through which
//! all persistent reads and writes flow:
//!
//! ```
//! # use mnemosyne_scm::{ScmSim, ScmConfig};
//! # use mnemosyne_region::{RegionManager, Regions};
//! # use mnemosyne_mtm::{MtmRuntime, MtmConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join(format!("mtm-doc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir)?;
//! # let sim = ScmSim::new(ScmConfig::for_testing(16 << 20));
//! # let mgr = RegionManager::boot(&sim, &dir)?;
//! # let (regions, pmem) = Regions::open(&mgr, 1 << 16)?;
//! # let regions = std::sync::Arc::new(regions);
//! let rt = MtmRuntime::open(&regions, MtmConfig::default())?;
//! let mut thread = rt.register_thread()?;
//! let (counter, _) = regions.static_area();
//!
//! thread.atomic(|tx| {
//!     let v = tx.read_u64(counter)?;
//!     tx.write_u64(counter, v + 1)?;
//!     Ok(())
//! })?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod gclock;
pub mod locks;
pub mod runtime;
pub mod tx;

pub use error::{TxAbort, TxError};
pub use runtime::{
    CkptStats, MtmConfig, MtmRuntime, MtmStats, RecoveryStats, Truncation, TxThread,
};
pub use tx::Tx;
