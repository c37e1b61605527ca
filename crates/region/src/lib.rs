//! Persistent regions: the kernel *region manager* and the user-mode
//! `libmnemosyne` region layer (§3.1, §4.2 of the paper).
//!
//! A *persistent region* is a segment of virtual memory whose pages live in
//! SCM and survive application and system crashes. This crate provides:
//!
//! * [`VAddr`]: virtual addresses inside the reserved one-terabyte
//!   persistent range, so [`VAddr::is_persistent`] is a single range check
//!   (§4.2);
//! * [`manager::RegionManager`]: the kernel side — an SCM frame allocator,
//!   the **persistent mapping table** stored at the base of physical SCM
//!   (`<scm_frame, file, page_offset>` triples), swap of SCM pages to
//!   backing files under memory pressure, and boot-time reconstruction;
//! * [`aspace::AddressSpace`]: a process's page table — a radix array
//!   that translations read without a lock; only the fault path locks —
//!   with demand paging and soft faults for pages already resident in SCM;
//! * [`pmem::PMem`]: the per-thread handle applications use — the four
//!   hardware primitives plus loads, addressed by [`VAddr`];
//! * [`libm::Regions`]: the `libmnemosyne` layer — the region table kept in
//!   the first 16 KB of the static region, `pmap`/`punmap`, and the
//!   intention-log protocol that makes region creation atomic.
//!
//! # Example
//!
//! ```
//! use mnemosyne_scm::{ScmSim, ScmConfig};
//! use mnemosyne_region::{RegionManager, Regions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("mnemo-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let sim = ScmSim::new(ScmConfig::for_testing(4 << 20));
//! let mgr = RegionManager::boot(&sim, &dir)?;
//! let (regions, pmem) = Regions::open(&mgr, 1 << 16)?;
//! let r = regions.pmap("scratch", 8192, &pmem)?;
//! pmem.store_u64(r.addr, 42);
//! pmem.flush(r.addr);
//! pmem.fence();
//! assert_eq!(pmem.read_u64(r.addr), 42);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod aspace;
pub mod error;
pub mod files;
pub mod layout;
pub mod libm;
pub mod manager;
pub mod pmem;
pub mod vaddr;

pub use aspace::AddressSpace;
pub use error::RegionError;
pub use libm::{Region, Regions};
pub use manager::RegionManager;
pub use pmem::PMem;
pub use vaddr::{VAddr, PERSISTENT_BASE, PERSISTENT_SIZE};

/// Page size used by the region manager (matches the host's 4 KB pages).
pub const PAGE_SIZE: u64 = 4096;
