//! The persistent media array: what actually survives a crash.
//!
//! The media is an array of `AtomicU64` words — the paper assumes SCM
//! memory systems "support an atomic write of at least 64 bits" (§2), and
//! making the word the atomic unit bakes that assumption into the type.
//! Cacheable stores land here at once; the cache model keeps the
//! pre-images a crash would put back, and the write-combining buffers hold
//! streaming stores until they retire. Both are volatile simulation state.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::{PAddr, WORD};

/// The persistent word array backing an SCM device.
///
/// Loads are `Acquire` and stores `Release` (plain `mov`s on x86): loads
/// take no lock, so these atomics are what orders a load after the store
/// it observes, as coherent memory does.
pub struct Media {
    words: Box<[AtomicU64]>,
}

impl std::fmt::Debug for Media {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Media")
            .field("size_bytes", &self.size())
            .finish()
    }
}

impl Media {
    /// Creates zero-initialised media of `size` bytes (rounded up to words).
    pub fn new(size: u64) -> Self {
        let n = size.div_ceil(WORD) as usize;
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicU64::new(0));
        Media {
            words: v.into_boxed_slice(),
        }
    }

    /// Restores media from a previously saved image, padding with zeros if
    /// `size` exceeds the image.
    pub fn from_image(image: &[u8], size: u64) -> Self {
        let media = Media::new(size.max(image.len() as u64));
        for (i, chunk) in image.chunks(WORD as usize).enumerate() {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            media.words[i].store(u64::from_le_bytes(buf), Ordering::Relaxed);
        }
        media
    }

    /// Loads media from an image file written by
    /// [`crate::ScmSim::shutdown_to`].
    ///
    /// # Errors
    /// Returns any I/O error from reading the file.
    pub fn load(path: &Path, size: u64) -> io::Result<Self> {
        let image = fs::read(path)?;
        Ok(Media::from_image(&image, size))
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.words.len() as u64 * WORD
    }

    /// Atomically reads the word containing `addr` (which must be
    /// word-aligned).
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or out of range.
    #[inline]
    pub fn read_word(&self, addr: PAddr) -> u64 {
        debug_assert!(addr.is_word_aligned(), "unaligned word read at {addr}");
        self.words[addr.word_index()].load(Ordering::Acquire)
    }

    /// Atomically writes the word at `addr` (must be word-aligned). This is
    /// the device's atomic-update primitive: it either fully happens or not.
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or out of range.
    #[inline]
    pub fn write_word(&self, addr: PAddr, value: u64) {
        debug_assert!(addr.is_word_aligned(), "unaligned word write at {addr}");
        self.words[addr.word_index()].store(value, Ordering::Release);
    }

    /// Reads `buf.len()` bytes starting at `addr`, crossing word boundaries
    /// as needed.
    pub fn read_bytes(&self, addr: PAddr, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.add(off as u64);
            let word = self.words[a.word_index()].load(Ordering::Acquire);
            let bytes = word.to_le_bytes();
            let start = a.word_offset() as usize;
            let n = (8 - start).min(buf.len() - off);
            buf[off..off + n].copy_from_slice(&bytes[start..start + n]);
            off += n;
        }
    }

    /// Writes bytes starting at `addr` using read-modify-write on the
    /// containing words. Note: byte writes that span words are *not* atomic
    /// as a unit — only each 64-bit word is — which is exactly the hardware
    /// guarantee consistency mechanisms must cope with.
    pub fn write_bytes(&self, addr: PAddr, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.add(off as u64);
            let idx = a.word_index();
            let start = a.word_offset() as usize;
            let n = (8 - start).min(data.len() - off);
            if n == 8 {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(&data[off..off + 8]);
                self.words[idx].store(u64::from_le_bytes(buf), Ordering::Release);
            } else {
                let cur = self.words[idx].load(Ordering::Acquire);
                let mut bytes = cur.to_le_bytes();
                bytes[start..start + n].copy_from_slice(&data[off..off + n]);
                self.words[idx].store(u64::from_le_bytes(bytes), Ordering::Release);
            }
            off += n;
        }
    }

    /// Flips one bit of the word at `addr` (corruption injection: a failed
    /// PCM cell or a radiation upset). `bit` is taken modulo 64.
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or out of range.
    pub fn flip_bit(&self, addr: PAddr, bit: u32) {
        debug_assert!(addr.is_word_aligned(), "unaligned bit flip at {addr}");
        self.words[addr.word_index()].fetch_xor(1u64 << (bit % 64), Ordering::AcqRel);
    }

    /// Full byte image of the media (for crash/reboot snapshots).
    pub fn image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in self.words.iter() {
            out.extend_from_slice(&w.load(Ordering::Acquire).to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = Media::new(256);
        assert_eq!(m.read_word(PAddr(0)), 0);
        assert_eq!(m.read_word(PAddr(248)), 0);
    }

    #[test]
    fn word_roundtrip() {
        let m = Media::new(256);
        m.write_word(PAddr(64), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_word(PAddr(64)), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_word(PAddr(72)), 0);
    }

    #[test]
    fn byte_roundtrip_unaligned() {
        let m = Media::new(256);
        let data: Vec<u8> = (0..40u8).collect();
        m.write_bytes(PAddr(13), &data);
        let mut back = vec![0u8; 40];
        m.read_bytes(PAddr(13), &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn partial_byte_write_preserves_neighbours() {
        let m = Media::new(64);
        m.write_word(PAddr(0), u64::MAX);
        m.write_bytes(PAddr(2), &[0xaa, 0xbb]);
        let mut out = [0u8; 8];
        m.read_bytes(PAddr(0), &mut out);
        assert_eq!(out, [0xff, 0xff, 0xaa, 0xbb, 0xff, 0xff, 0xff, 0xff]);
    }

    #[test]
    fn image_roundtrip() {
        let m = Media::new(128);
        m.write_word(PAddr(8), 42);
        m.write_bytes(PAddr(100), b"hello");
        let img = m.image();
        let m2 = Media::from_image(&img, 128);
        assert_eq!(m2.read_word(PAddr(8)), 42);
        let mut b = [0u8; 5];
        m2.read_bytes(PAddr(100), &mut b);
        assert_eq!(&b, b"hello");
    }

    #[test]
    fn from_image_pads_to_size() {
        let m = Media::from_image(&[1, 2, 3], 64);
        assert_eq!(m.size(), 64);
        let mut b = [0u8; 4];
        m.read_bytes(PAddr(0), &mut b);
        assert_eq!(b, [1, 2, 3, 0]);
    }

    #[test]
    fn size_rounds_up_to_words() {
        assert_eq!(Media::new(9).size(), 16);
    }

    #[test]
    fn flip_bit_is_involutive() {
        let m = Media::new(64);
        m.write_word(PAddr(8), 0xff00);
        m.flip_bit(PAddr(8), 3);
        assert_eq!(m.read_word(PAddr(8)), 0xff08);
        m.flip_bit(PAddr(8), 3);
        assert_eq!(m.read_word(PAddr(8)), 0xff00);
        m.flip_bit(PAddr(8), 64); // modulo: bit 0
        assert_eq!(m.read_word(PAddr(8)), 0xff01);
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join(format!("scm-media-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("media.img");
        let m = Media::new(128);
        m.write_word(PAddr(16), 7);
        std::fs::write(&path, m.image()).unwrap();
        let m2 = Media::load(&path, 128).unwrap();
        assert_eq!(m2.read_word(PAddr(16)), 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
