//! The persistent media array: what actually survives a crash.
//!
//! The media is an array of `AtomicU64` words — the paper assumes SCM
//! memory systems "support an atomic write of at least 64 bits" (§2), and
//! making the word the atomic unit bakes that assumption into the type.
//! Cacheable stores land here at once; the cache model keeps the
//! pre-images a crash would put back, and the write-combining buffers hold
//! streaming stores until they retire. Both are volatile simulation state.

use std::io::{self, Read};
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
    /// Creates zero-initialised media of `size` bytes (rounded up to
    /// words). The array comes from a zeroed allocation, so a page costs
    /// memory only once a word on it is written.
    pub fn new(size: u64) -> Self {
        let n = size.div_ceil(WORD) as usize;
        // SAFETY: `AtomicU64` has the same in-memory representation as
        // `u64`, so all-zero bytes are a valid `AtomicU64::new(0)`.
        let words = unsafe { Box::<[AtomicU64]>::new_zeroed_slice(n).assume_init() };
        Media { words }
    }

    /// Restores media of `size` bytes from a saved image (a crash image
    /// or the file [`crate::ScmSim::shutdown_to`] wrote), padding with
    /// zeros past its end. The image is read a chunk at a time and only its
    /// non-zero words are stored, so pages it leaves zero stay untouched.
    ///
    /// # Errors
    /// Returns any I/O error from `image`, or [`io::ErrorKind::InvalidData`]
    /// if it holds more than `size` bytes.
    pub fn read_from(mut image: impl Read, size: u64) -> io::Result<Self> {
        const CHUNK_BYTES: u64 = 1 << 16;
        let media = Media::new(size);
        let mut chunk = Vec::with_capacity(CHUNK_BYTES as usize);
        let mut word = 0;
        loop {
            chunk.clear();
            (&mut image).take(CHUNK_BYTES).read_to_end(&mut chunk)?;
            if chunk.is_empty() {
                return Ok(media);
            }
            for bytes in chunk.chunks(WORD as usize) {
                let mut buf = [0u8; 8];
                buf[..bytes.len()].copy_from_slice(bytes);
                let value = u64::from_le_bytes(buf);
                let cell = media.words.get(word).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "image larger than the media")
                })?;
                if value != 0 {
                    cell.store(value, Ordering::Relaxed);
                }
                word += 1;
            }
        }
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
        let m2 = Media::read_from(&img[..], 128).unwrap();
        assert_eq!(m2.read_word(PAddr(8)), 42);
        let mut b = [0u8; 5];
        m2.read_bytes(PAddr(100), &mut b);
        assert_eq!(&b, b"hello");
    }

    #[test]
    fn from_image_pads_to_size() {
        let m = Media::read_from(&[1u8, 2, 3][..], 64).unwrap();
        assert_eq!(m.size(), 64);
        let mut b = [0u8; 4];
        m.read_bytes(PAddr(0), &mut b);
        assert_eq!(b, [1, 2, 3, 0]);
    }

    #[test]
    fn read_from_spans_chunks_and_refuses_an_oversized_image() {
        let mut img = vec![0u8; (1 << 17) + 8];
        img[(1 << 16) - 3] = 0xaa; // the last word of the first chunk
        img[1 << 17] = 0xbb; // the one word of a short last chunk
        let m = Media::read_from(&img[..], img.len() as u64).unwrap();
        assert_eq!(m.image(), img);
        let e = Media::read_from(&img[..], 1 << 17).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
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
        let m2 = Media::read_from(std::fs::File::open(&path).unwrap(), 128).unwrap();
        assert_eq!(m2.read_word(PAddr(16)), 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
