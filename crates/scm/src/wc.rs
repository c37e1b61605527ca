//! Write-combining buffer model for streaming (`movntq`) stores.
//!
//! Mnemosyne's `wtstore` primitive issues streaming writes through the x86
//! write-combining buffers (§4.1): words are merged into line-sized buffers
//! and written to memory without polluting the cache. Two properties matter
//! for persistence and are both modelled here:
//!
//! 1. streaming writes are **weakly ordered** — until a fence, any subset of
//!    pending words may or may not have reached the media (this is what the
//!    tornbit log defends against, §4.4);
//! 2. a **fence** drains the buffers and stalls until the data is stable in
//!    SCM, which is where the emulator charges write latency plus a
//!    bandwidth term (§6.1).

use crate::addr::PAddr;
use crate::cache::CacheModel;
use crate::media::Media;

/// Maximum pending words before the oldest line drains spontaneously, like
/// real WC buffers being reclaimed. Spontaneous drains make data durable
/// early, which is always safe (durability is monotonic).
const PENDING_CAPACITY_WORDS: usize = 4096;

/// One hardware thread's write-combining state.
#[derive(Debug, Default)]
pub struct WcBuffer {
    /// Word-granularity pending streaming stores in program order.
    pending: Vec<(PAddr, u64)>,
    /// Bytes streamed since the last fence; drives the bandwidth model.
    bytes_since_fence: u64,
}

impl WcBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a streaming word store.
    ///
    /// # Panics
    /// Panics if `addr` is not 8-byte aligned: `movntq` operates on whole
    /// words.
    pub fn push(&mut self, cache: &CacheModel, media: &Media, addr: PAddr, value: u64) {
        assert!(
            addr.is_word_aligned(),
            "wtstore requires word alignment: {addr}"
        );
        self.pending.push((addr, value));
        self.bytes_since_fence += 8;
        if self.pending.len() > PENDING_CAPACITY_WORDS {
            // Drain the oldest half to media: buffer reclaim.
            let half = PENDING_CAPACITY_WORDS / 2;
            cache.retire_streaming(media, &self.pending[..half]);
            self.pending.drain(..half);
        }
    }

    /// Drains every pending word to the media (the fence operation) and
    /// returns the number of bytes streamed since the previous fence, which
    /// the caller converts into a bandwidth delay.
    pub fn drain(&mut self, cache: &CacheModel, media: &Media) -> u64 {
        cache.retire_streaming(media, &self.pending);
        self.pending.clear();
        std::mem::take(&mut self.bytes_since_fence)
    }

    /// Removes and returns all pending words without writing them — used by
    /// crash injection, where the crash policy decides which retired.
    pub fn take_pending(&mut self) -> Vec<(PAddr, u64)> {
        self.bytes_since_fence = 0;
        std::mem::take(&mut self.pending)
    }

    /// Number of words currently pending.
    pub fn pending_words(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(size: u64) -> (CacheModel, Media) {
        (CacheModel::new(1024), Media::new(size))
    }

    #[test]
    fn pending_until_drained() {
        let (cache, media) = setup(4096);
        let mut wc = WcBuffer::new();
        wc.push(&cache, &media, PAddr(0), 11);
        wc.push(&cache, &media, PAddr(8), 22);
        assert_eq!(wc.pending_words(), 2);
        assert_eq!(media.read_word(PAddr(0)), 0, "not durable before fence");
        let bytes = wc.drain(&cache, &media);
        assert_eq!(bytes, 16);
        assert_eq!(media.read_word(PAddr(0)), 11);
        assert_eq!(media.read_word(PAddr(8)), 22);
        assert_eq!(wc.pending_words(), 0);
    }

    #[test]
    fn bandwidth_counter_resets_per_fence() {
        let (cache, media) = setup(4096);
        let mut wc = WcBuffer::new();
        wc.push(&cache, &media, PAddr(0), 1);
        assert_eq!(wc.drain(&cache, &media), 8);
        assert_eq!(wc.drain(&cache, &media), 0);
    }

    #[test]
    fn take_pending_loses_writes() {
        let (cache, media) = setup(4096);
        let mut wc = WcBuffer::new();
        wc.push(&cache, &media, PAddr(16), 5);
        let pending = wc.take_pending();
        assert_eq!(pending, vec![(PAddr(16), 5)]);
        assert_eq!(media.read_word(PAddr(16)), 0);
    }

    #[test]
    #[should_panic(expected = "word alignment")]
    fn unaligned_wtstore_panics() {
        let (cache, media) = setup(4096);
        let mut wc = WcBuffer::new();
        wc.push(&cache, &media, PAddr(3), 1);
    }

    #[test]
    fn overflow_drains_oldest() {
        let (cache, media) = setup(1 << 20);
        let mut wc = WcBuffer::new();
        for i in 0..(PENDING_CAPACITY_WORDS as u64 + 1) {
            wc.push(&cache, &media, PAddr(i * 8), i);
        }
        // Oldest half drained spontaneously.
        assert_eq!(media.read_word(PAddr(0)), 0u64.wrapping_add(0));
        assert_eq!(media.read_word(PAddr(8)), 1);
        assert!(wc.pending_words() <= PENDING_CAPACITY_WORDS / 2 + 1);
    }
}
