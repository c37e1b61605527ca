//! `pstatic` variables: named persistent statics in the static region.
//!
//! The paper's `pstatic` keyword places a global variable in the
//! `.persistent` ELF section; it is "initialized once when the program
//! first runs, and then retain[s] their value across invocations" (§3.1,
//! §4.2). Rust has no linker hook for this, so the facade keeps a small
//! persistent *directory* at the start of the static area mapping
//! `name → (offset, size)`; [`crate::Mnemosyne::pstatic`] binds a name,
//! allocating (zero-initialised) space on first use and returning the
//! same fixed address on every later run.
//!
//! Directory updates run inside a durable transaction, so a crash during
//! first binding either registers the variable completely or not at all.

use mnemosyne_region::VAddr;

use crate::{Error, Mnemosyne};

/// Number of pstatic directory slots.
pub const PSTATIC_SLOTS: u64 = 128;

const SLOT_BYTES: u64 = 64;
const NAME_MAX: usize = 40;
const DIR_MAGIC: u64 = u64::from_le_bytes(*b"PSTATICD");

/// Directory layout within the static area:
/// `[magic u64][bump u64][pad 48] [slot 64B] * PSTATIC_SLOTS [var space…]`
const HEADER_BYTES: u64 = 64;

impl Mnemosyne {
    fn static_base(&self) -> VAddr {
        self.regions().static_area().0
    }

    fn var_space(&self) -> (VAddr, u64) {
        let (base, len) = self.regions().static_area();
        let dir_bytes = HEADER_BYTES + PSTATIC_SLOTS * SLOT_BYTES;
        (base.add(dir_bytes), len - dir_bytes)
    }

    /// Initialises the pstatic directory on first run (called by the
    /// builder).
    pub(crate) fn init_pstatic(&self) -> Result<(), Error> {
        let base = self.static_base();
        let pmem = self.pmem_handle();
        if pmem.read_u64(base) == DIR_MAGIC {
            return Ok(());
        }
        // Fresh static area (region files start zeroed): publish bump=0,
        // then the magic.
        pmem.store_u64(base.add(8), 0);
        pmem.flush(base.add(8));
        pmem.fence();
        pmem.store_u64(base, DIR_MAGIC);
        pmem.flush(base);
        pmem.fence();
        Ok(())
    }

    /// Binds the named persistent static variable of `size` bytes,
    /// returning its fixed virtual address. First use allocates
    /// zero-initialised space; later uses (including after crashes and
    /// across program runs) return the same address.
    ///
    /// # Errors
    /// Fails if the name is too long, the size differs from the recorded
    /// one, or directory/static space is exhausted.
    pub fn pstatic(&self, name: &str, size: u64) -> Result<VAddr, Error> {
        if name.is_empty() || name.len() > NAME_MAX {
            return Err(Error::PStatic(format!("invalid name '{name}'")));
        }
        let size = size.max(8).div_ceil(8) * 8;
        let base = self.static_base();
        let pmem = self.pmem_handle();
        let slot_addr = |i: u64| base.add(HEADER_BYTES + i * SLOT_BYTES);

        // Fast path: already bound.
        let mut free_slot = None;
        for i in 0..PSTATIC_SLOTS {
            let a = slot_addr(i);
            let name_len = pmem.read_u64(a) as usize;
            if name_len == 0 {
                if free_slot.is_none() {
                    free_slot = Some(i);
                }
                continue;
            }
            if name_len != name.len() {
                continue;
            }
            let mut buf = vec![0u8; name_len.min(NAME_MAX)];
            pmem.read(a.add(24), &mut buf);
            if buf == name.as_bytes() {
                let off = pmem.read_u64(a.add(8));
                let recorded = pmem.read_u64(a.add(16));
                if recorded != size {
                    return Err(Error::PStatic(format!(
                        "'{name}' recorded with {recorded} bytes, requested {size}"
                    )));
                }
                let (var_base, _) = self.var_space();
                return Ok(var_base.add(off));
            }
        }
        let slot = free_slot.ok_or_else(|| Error::PStatic("directory full".into()))?;

        // Allocate durably and atomically via a transaction.
        let (var_base, var_len) = self.var_space();
        let bump_addr = base.add(8);
        let a = slot_addr(slot);
        let mut th = self.register_thread()?;
        let off = th.atomic(|tx| {
            if tx.read_u64(a)? != 0 {
                return Ok(None); // taken since the scan
            }
            let off = tx.read_u64(bump_addr)?;
            if off + size > var_len {
                return Err(tx.cancel());
            }
            tx.write_u64(bump_addr, off + size)?;
            tx.write_u64(a.add(8), off)?;
            tx.write_u64(a.add(16), size)?;
            tx.write_bytes(a.add(24), name.as_bytes())?;
            // The name-length word is what makes the slot visible;
            // written last in the buffered write set, applied atomically.
            tx.write_u64(a, name.len() as u64)?;
            Ok(Some(off))
        });
        drop(th);
        match off {
            Ok(Some(off)) => Ok(var_base.add(off)),
            // A concurrent binder took the slot this scan picked: rescan.
            Ok(None) => self.pstatic(name, size),
            Err(crate::TxError::Cancelled) => Err(Error::PStatic(format!(
                "static area exhausted binding '{name}'"
            ))),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mnemo-ps-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn binding_is_stable_and_distinct() {
        let d = dir("bind");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let a = m.pstatic("alpha", 16).unwrap();
        let b = m.pstatic("beta", 16).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.pstatic("alpha", 16).unwrap(), a);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn size_mismatch_rejected() {
        let d = dir("size");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        m.pstatic("v", 16).unwrap();
        assert!(matches!(m.pstatic("v", 32), Err(Error::PStatic(_))));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn initialised_zero_on_first_run() {
        let d = dir("zero");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let a = m.pstatic("fresh", 32).unwrap();
        let mut buf = [1u8; 32];
        m.pmem_handle().read(a, &mut buf);
        assert_eq!(buf, [0u8; 32]);
        std::fs::remove_dir_all(&d).ok();
    }

    /// Binders racing for the same free slot must not overwrite each
    /// other's entry: every name still resolves to the address its first
    /// binding returned.
    #[test]
    fn concurrent_binders_keep_their_slots() {
        let d = dir("race");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        for round in 0..8 {
            let names: Vec<String> = (0..4).map(|t| format!("r{round}t{t}")).collect();
            let bound: Vec<VAddr> = std::thread::scope(|s| {
                let hs: Vec<_> = names
                    .iter()
                    .map(|n| s.spawn(|| m.pstatic(n, 64).unwrap()))
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (n, &a) in names.iter().zip(&bound) {
                assert_eq!(m.pstatic(n, 64).unwrap(), a, "'{n}' lost its slot");
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn name_too_long_rejected() {
        let d = dir("long");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        assert!(m.pstatic(&"x".repeat(NAME_MAX + 1), 8).is_err());
        std::fs::remove_dir_all(&d).ok();
    }
}
