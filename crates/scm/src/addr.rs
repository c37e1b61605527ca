//! Physical SCM addresses and geometry constants.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Size in bytes of one 64-bit word, the atomic write unit the paper assumes
/// SCM memory systems support (§2, "Failure Models").
pub const WORD: u64 = 8;

/// Cache line size in bytes; matches the x86 platform of the paper (§4.1).
pub const CACHE_LINE: u64 = 64;

/// Words per cache line.
pub const WORDS_PER_LINE: usize = (CACHE_LINE / WORD) as usize;

/// A physical address within the SCM device: a byte offset from the base of
/// the media.
///
/// The kernel-side region manager hands out page frames of physical SCM;
/// user code normally works with virtual addresses (`VAddr` in
/// `mnemosyne-region`) that translate to `PAddr` through a page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub u64);

impl PAddr {
    /// Byte offset of this address within its 64-bit word.
    #[inline]
    pub fn word_offset(self) -> u64 {
        self.0 % WORD
    }

    /// Index of the 64-bit word containing this address.
    #[inline]
    pub fn word_index(self) -> usize {
        (self.0 / WORD) as usize
    }

    /// Index of the cache line containing this address.
    #[inline]
    pub fn line_index(self) -> u64 {
        self.0 / CACHE_LINE
    }

    /// Address rounded down to its cache-line base.
    #[inline]
    pub fn line_base(self) -> PAddr {
        PAddr(self.0 - self.0 % CACHE_LINE)
    }

    /// Whether this address is 8-byte aligned (required for word primitives).
    #[inline]
    pub fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD)
    }

    /// Returns the address advanced by `bytes`.
    // Not `std::ops::Add`: the operand is a byte count, not another
    // address, and callers read `a.add(8)` as pointer arithmetic.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, bytes: u64) -> PAddr {
        PAddr(self.0 + bytes)
    }

    /// Checked subtraction of another address, yielding a byte distance.
    #[inline]
    pub fn offset_from(self, base: PAddr) -> u64 {
        debug_assert!(self.0 >= base.0, "address below base");
        self.0 - base.0
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:{:#x}", self.0)
    }
}

impl fmt::LowerHex for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PAddr {
    fn from(v: u64) -> Self {
        PAddr(v)
    }
}

/// Hashes an address (or a line or word index) with one Fibonacci
/// multiply, for maps keyed by addresses the program chose rather than by
/// outside input.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

/// [`std::collections::HashMap`] hasher state for [`AddrHasher`].
pub type AddrHasherBuild = BuildHasherDefault<AddrHasher>;

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, addr: u64) {
        self.0 = (self.0 ^ addr).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // A table indexes by the low bits; bring the well-mixed high half
        // down.
        self.0.rotate_left(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_geometry() {
        assert_eq!(PAddr(0).word_index(), 0);
        assert_eq!(PAddr(8).word_index(), 1);
        assert_eq!(PAddr(15).word_index(), 1);
        assert_eq!(PAddr(15).word_offset(), 7);
        assert!(PAddr(16).is_word_aligned());
        assert!(!PAddr(17).is_word_aligned());
    }

    #[test]
    fn line_geometry() {
        assert_eq!(PAddr(0).line_index(), 0);
        assert_eq!(PAddr(63).line_index(), 0);
        assert_eq!(PAddr(64).line_index(), 1);
        assert_eq!(PAddr(130).line_base(), PAddr(128));
    }

    #[test]
    fn arithmetic() {
        let a = PAddr(100);
        assert_eq!(a.add(28), PAddr(128));
        assert_eq!(a.add(28).offset_from(a), 28);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(PAddr(0x40).to_string(), "p:0x40");
    }
}
