//! Storage-class memory (SCM) device and performance emulator.
//!
//! This crate is the hardware substrate of the Mnemosyne reproduction
//! (Volos, Tack, Swift — *Mnemosyne: Lightweight Persistent Memory*,
//! ASPLOS 2011). It models, in software, everything §2, §4.1 and §6.1 of the
//! paper assume about the machine:
//!
//! * a byte-addressable persistent **media** array attached to the memory
//!   bus, with atomic 64-bit writes ([`media::Media`]);
//! * a write-back **processor cache** in front of it — cacheable stores
//!   land on the media at once, so loads read the media without a lock,
//!   but are *not* durable until the line is flushed: the cache model
//!   keeps each dirty word's pre-image for a crash to put back
//!   ([`cache::CacheModel`]);
//! * per-thread **write-combining buffers** for streaming (`movntq`) stores,
//!   which may retire out of order ([`wc::WcBuffer`]);
//! * the four **hardware primitives** Mnemosyne builds on —
//!   [`MemHandle::store`], [`MemHandle::wtstore_u64`], [`MemHandle::flush`]
//!   and [`MemHandle::fence`] (§4.1, Table 3), plus run forms of the two
//!   stores ([`MemHandle::wtstore_words`], [`MemHandle::store_line_words`])
//!   that issue the same per-word primitives for one lock;
//! * the paper's §6.1 **performance emulator**: a configurable extra write
//!   latency applied on flushes and fences plus a bandwidth model for
//!   streaming sequences ([`clock`]);
//! * **crash injection**: on a simulated failure, only data that actually
//!   reached the media survives; anything in the cache or the
//!   write-combining buffers is retired according to an adversarial
//!   [`CrashPolicy`] at 64-bit granularity ([`ScmSim::crash`]). A
//!   [`FaultPlan`] attached with [`ScmSim::set_fault_plan`] observes every
//!   primitive and can crash the machine at a chosen one. While no plan is
//!   attached, a primitive's fault hook is one `Acquire` load of an
//!   `armed` flag and never takes the plan's lock.
//!
//! # Example
//!
//! ```
//! use mnemosyne_scm::{ScmSim, ScmConfig, PAddr};
//!
//! let sim = ScmSim::new(ScmConfig::for_testing(1 << 20));
//! let mem = sim.handle();
//! // A write-through store followed by a fence is durable.
//! mem.wtstore_u64(PAddr(64), 0xdead_beef);
//! mem.fence();
//! assert_eq!(mem.read_u64(PAddr(64)), 0xdead_beef);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod clock;
pub mod config;
pub mod crash;
pub mod faults;
pub mod media;
pub mod sim;
pub mod stats;
pub mod tech;
pub mod wc;

pub use addr::{AddrHasherBuild, PAddr, CACHE_LINE, WORD};
pub use clock::EmulationMode;
pub use config::{ScmConfig, WRITE_BANDWIDTH_BYTES_PER_NS};
pub use crash::CrashPolicy;
pub use faults::{crash_payload, CrashRequested, FaultPlan, FaultSite};
pub use sim::{DmaHandle, MemHandle, ScmSim};
pub use stats::{MemStats, StatsSnapshot};
pub use tech::{TechPreset, TechSpec};

pub use mnemosyne_obs as obs;
pub use mnemosyne_obs::Telemetry;
