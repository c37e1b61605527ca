//! Write-back processor cache model.
//!
//! The cache is the reason consistent updates are hard on SCM (§3.2.3): a
//! cacheable store is immediately visible to loads but not durable — the
//! line may reach the media at any time (background eviction) or never (a
//! crash discards it). Stores land on the media at once, which is what a
//! coherent load sees, so loads never consult this model. What it tracks
//! per 64-byte line is the *pre-image* of each dirty word: the value a
//! crash puts back unless the policy says the store retired. `flush` (the
//! `clflush` analogue) and eviction make a line durable by forgetting its
//! pre-images.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::addr::{AddrHasherBuild, PAddr, CACHE_LINE, WORDS_PER_LINE};
use crate::media::Media;

const SHARDS: usize = 64;

/// One shard's dirty lines, keyed by line index.
type LineMap = HashMap<u64, CacheLine, AddrHasherBuild>;

/// One dirty line: the pre-images of its dirty words plus a dirty mask.
#[derive(Debug, Clone, Copy, Default)]
struct CacheLine {
    words: [u64; WORDS_PER_LINE],
    dirty: u8,
}

impl CacheLine {
    /// The pre-image slot of the word at `addr`, if that word is dirty.
    fn pre_image(&mut self, addr: PAddr) -> Option<&mut u64> {
        let w = word_in_line(addr);
        (self.dirty & (1 << w) != 0).then(|| &mut self.words[w])
    }

    /// Records `media`'s value of the word at `addr` as its pre-image,
    /// unless an earlier store already dirtied it.
    fn record_pre_image(&mut self, media: &Media, addr: PAddr) {
        let w = word_in_line(addr);
        if self.dirty & (1 << w) == 0 {
            self.words[w] = media.read_word(addr);
            self.dirty |= 1 << w;
        }
    }
}

fn word_in_line(addr: PAddr) -> usize {
    ((addr.0 / 8) % WORDS_PER_LINE as u64) as usize
}

/// Sharded dirty-line map standing in for the processor cache hierarchy.
///
/// A store or CAS writes the media while holding its line's shard lock,
/// so the pre-image it records is the value the media held just before.
#[derive(Debug)]
pub struct CacheModel {
    shards: Vec<Mutex<LineMap>>,
    capacity_per_shard: usize,
}

impl CacheModel {
    /// Creates a cache that begins background write-back beyond
    /// `capacity_lines` dirty lines.
    pub fn new(capacity_lines: usize) -> Self {
        CacheModel {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            capacity_per_shard: (capacity_lines / SHARDS).max(1),
        }
    }

    #[inline]
    fn shard(&self, line: u64) -> &Mutex<LineMap> {
        &self.shards[(line as usize) % SHARDS]
    }

    /// Cacheable store of `data` at `addr` (the `mov` analogue). Visible to
    /// subsequent reads, not durable until flushed or evicted.
    pub fn store_bytes(&self, media: &Media, addr: PAddr, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.add(off as u64);
            let line = a.line_index();
            let end_of_line = (line + 1) * CACHE_LINE;
            let n = ((end_of_line - a.0) as usize).min(data.len() - off);
            self.store_within_line(media, a, &data[off..off + n]);
            off += n;
        }
    }

    /// Cacheable stores of consecutive words from 8-aligned `addr`, all in
    /// one line, under one shard lock: for each word, record its pre-image
    /// and write it. `hook` runs before each word and a `false` stops the
    /// run there; returns the words stored. Capacity pressure may evict
    /// some other line after the first word, exactly as if each word were
    /// stored on its own (the later words find their line present).
    pub fn store_line_words(
        &self,
        media: &Media,
        addr: PAddr,
        words: &[u64],
        mut hook: impl FnMut() -> bool,
    ) -> usize {
        let Some((&first, rest)) = words.split_first() else {
            return 0;
        };
        let line = addr.line_index();
        let mut shard = self.shard(line).lock();
        if !hook() {
            return 0;
        }
        shard.entry(line).or_default().record_pre_image(media, addr);
        media.write_word(addr, first);
        self.evict_beyond_capacity(&mut shard, line);
        let entry = shard.get_mut(&line).expect("the line was just dirtied");
        for (i, &value) in rest.iter().enumerate() {
            if !hook() {
                return i + 1;
            }
            let a = addr.add((i as u64 + 1) * 8);
            entry.record_pre_image(media, a);
            media.write_word(a, value);
        }
        words.len()
    }

    /// Store that does not cross a line boundary.
    fn store_within_line(&self, media: &Media, addr: PAddr, data: &[u8]) {
        let line = addr.line_index();
        let mut shard = self.shard(line).lock();
        let entry = shard.entry(line).or_default();
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.add(off as u64);
            let word = PAddr(a.0 - a.0 % 8);
            entry.record_pre_image(media, word);
            let start = a.word_offset() as usize;
            let n = (8 - start).min(data.len() - off);
            let mut bytes = media.read_word(word).to_le_bytes();
            bytes[start..start + n].copy_from_slice(&data[off..off + n]);
            media.write_word(word, u64::from_le_bytes(bytes));
            off += n;
        }
        self.evict_beyond_capacity(&mut shard, line);
    }

    /// Capacity pressure: some other dirty line becomes durable, like a
    /// real cache replacing a victim.
    fn evict_beyond_capacity(&self, shard: &mut LineMap, line: u64) {
        if shard.len() > self.capacity_per_shard {
            if let Some(&victim) = shard.keys().find(|&&l| l != line) {
                shard.remove(&victim);
            }
        }
    }

    /// Single-word compare-and-swap at 8-aligned `addr` (the `lock
    /// cmpxchg` analogue). Holding the line's shard lock makes the
    /// read-compare-write atomic with respect to every concurrent
    /// cacheable store of the same line. On success the new value is
    /// visible immediately and durable only after a flush, and the same
    /// capacity pressure as a store may evict some *other* line. On
    /// failure returns the current value.
    pub fn cas_word(&self, media: &Media, addr: PAddr, expected: u64, new: u64) -> Result<(), u64> {
        debug_assert_eq!(addr.0 % 8, 0, "cas_word requires word alignment");
        let line = addr.line_index();
        let mut shard = self.shard(line).lock();
        let cur = media.read_word(addr);
        if cur != expected {
            return Err(cur);
        }
        shard.entry(line).or_default().record_pre_image(media, addr);
        media.write_word(addr, new);
        self.evict_beyond_capacity(&mut shard, line);
        Ok(())
    }

    /// Streaming stores retiring from a write-combining buffer, in program
    /// order. Where a word is dirty its cached value still shadows the
    /// retired one, which replaces the pre-image instead; every other word
    /// lands on the media. Takes each line's shard lock once per run of
    /// words in that line.
    pub fn retire_streaming(&self, media: &Media, words: &[(PAddr, u64)]) {
        for run in words.chunk_by(|a, b| a.0.line_index() == b.0.line_index()) {
            let line = run[0].0.line_index();
            let mut shard = self.shard(line).lock();
            let mut entry = shard.get_mut(&line);
            for &(addr, value) in run {
                match entry.as_deref_mut().and_then(|e| e.pre_image(addr)) {
                    Some(pre) => *pre = value,
                    None => media.write_word(addr, value),
                }
            }
        }
    }

    /// Flips one bit of the durable copy of the word at `addr`: its
    /// pre-image if the word is dirty (the cached value hides the failed
    /// cell until a crash), the media word otherwise.
    pub fn flip_durable_bit(&self, media: &Media, addr: PAddr, bit: u32) {
        let line = addr.line_index();
        let mut shard = self.shard(line).lock();
        match shard.get_mut(&line).and_then(|e| e.pre_image(addr)) {
            Some(pre) => *pre ^= 1 << (bit % 64),
            None => media.flip_bit(addr, bit),
        }
    }

    /// Makes the line containing `addr` durable (the `clflush` analogue)
    /// by forgetting its pre-images. Returns `true` if the line was dirty —
    /// the caller charges PCM write latency only in that case.
    pub fn flush_line(&self, addr: PAddr) -> bool {
        let line = addr.line_index();
        self.shard(line).lock().remove(&line).is_some()
    }

    /// Makes every dirty line durable (orderly shutdown — *not* available
    /// to recovery code, which must assume a crash instead).
    pub fn writeback_all(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Every dirty word with its pre-image, in address order. A crash
    /// hands them to the policy in that order, so a seeded policy replays.
    pub fn pre_images(&self) -> Vec<(PAddr, u64)> {
        let mut out = Vec::new();
        for s in &self.shards {
            for (&line, entry) in s.lock().iter() {
                for w in 0..WORDS_PER_LINE {
                    if entry.dirty & (1 << w) != 0 {
                        out.push((PAddr(line * CACHE_LINE + w as u64 * 8), entry.words[w]));
                    }
                }
            }
        }
        out.sort_unstable_by_key(|&(a, _)| a.0);
        out
    }

    /// Number of dirty lines currently held.
    pub fn dirty_lines(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Media, CacheModel) {
        (Media::new(1 << 16), CacheModel::new(1024))
    }

    fn read(media: &Media, addr: PAddr, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        media.read_bytes(addr, &mut buf);
        buf
    }

    #[test]
    fn store_lands_on_media_and_keeps_pre_image() {
        let (media, cache) = setup();
        media.write_word(PAddr(128), 9);
        cache.store_bytes(&media, PAddr(128), &[1, 2, 3, 4]);
        assert_eq!(read(&media, PAddr(128), 4), [1, 2, 3, 4]);
        // Not durable: a crash would put the 9 back.
        assert_eq!(cache.pre_images(), [(PAddr(128), 9)]);
        // A second store keeps the first pre-image.
        cache.store_bytes(&media, PAddr(128), &[5]);
        assert_eq!(cache.pre_images(), [(PAddr(128), 9)]);
    }

    #[test]
    fn store_word_keeps_the_first_pre_image() {
        let (media, cache) = setup();
        media.write_word(PAddr(192), 9);
        cache.store_line_words(&media, PAddr(192), &[1], || true);
        cache.store_line_words(&media, PAddr(192), &[2], || true);
        assert_eq!(media.read_word(PAddr(192)), 2);
        assert_eq!(cache.pre_images(), [(PAddr(192), 9)]);
    }

    #[test]
    fn flush_makes_durable() {
        let (media, cache) = setup();
        cache.store_bytes(&media, PAddr(128), &[1, 2, 3, 4]);
        assert!(cache.flush_line(PAddr(130)));
        assert!(cache.pre_images().is_empty());
        assert_eq!(
            media.read_word(PAddr(128)),
            u64::from_le_bytes([1, 2, 3, 4, 0, 0, 0, 0])
        );
        // Second flush is a no-op on a clean line.
        assert!(!cache.flush_line(PAddr(130)));
    }

    #[test]
    fn store_preserves_clean_bytes_of_word() {
        let (media, cache) = setup();
        media.write_word(PAddr(64), u64::MAX);
        cache.store_bytes(&media, PAddr(66), &[0]);
        assert_eq!(
            read(&media, PAddr(64), 8),
            [0xff, 0xff, 0, 0xff, 0xff, 0xff, 0xff, 0xff]
        );
        assert_eq!(cache.pre_images(), [(PAddr(64), u64::MAX)]);
    }

    #[test]
    fn store_crossing_line_boundary() {
        let (media, cache) = setup();
        let data: Vec<u8> = (0..100u8).collect();
        cache.store_bytes(&media, PAddr(30), &data);
        assert_eq!(read(&media, PAddr(30), 100), data);
        assert!(cache.dirty_lines() >= 2);
    }

    #[test]
    fn pre_images_report_dirty_words_in_address_order() {
        let (media, cache) = setup();
        media.write_word(PAddr(8), 3);
        cache.store_bytes(&media, PAddr(4096 * 3), &[0xcc]);
        cache.store_bytes(&media, PAddr(8), &[0xbb]);
        cache.store_bytes(&media, PAddr(0), &[0xaa]);
        assert_eq!(
            cache.pre_images(),
            [(PAddr(0), 0), (PAddr(8), 3), (PAddr(4096 * 3), 0)]
        );
    }

    #[test]
    fn writeback_all_flushes_everything() {
        let (media, cache) = setup();
        cache.store_bytes(&media, PAddr(0), &[1]);
        cache.store_bytes(&media, PAddr(4096), &[2]);
        cache.writeback_all();
        assert_eq!(cache.dirty_lines(), 0);
        assert!(cache.pre_images().is_empty());
        assert_eq!(media.read_word(PAddr(0)), 1);
        assert_eq!(media.read_word(PAddr(4096)), 2);
    }

    #[test]
    fn cas_word_sees_dirty_and_clean_values() {
        let (media, cache) = setup();
        // Clean word.
        media.write_word(PAddr(64), 5);
        assert_eq!(cache.cas_word(&media, PAddr(64), 4, 9), Err(5));
        assert!(cache.cas_word(&media, PAddr(64), 5, 9).is_ok());
        // The winning value is visible but not durable: 5 is its pre-image.
        assert_eq!(cache.pre_images(), [(PAddr(64), 5)]);
        // Dirty word: a second CAS must see the 9.
        assert_eq!(cache.cas_word(&media, PAddr(64), 5, 1), Err(9));
        assert!(cache.cas_word(&media, PAddr(64), 9, 11).is_ok());
        assert_eq!(cache.pre_images(), [(PAddr(64), 5)]);
        assert!(cache.flush_line(PAddr(64)));
        assert_eq!(media.read_word(PAddr(64)), 11);
        // A failed CAS on a clean line leaves no dirty entry behind.
        assert_eq!(cache.cas_word(&media, PAddr(128), 1, 2), Err(0));
        assert_eq!(cache.dirty_lines(), 0);
    }

    #[test]
    fn streaming_words_retire_beneath_dirty_words() {
        let (media, cache) = setup();
        cache.store_bytes(&media, PAddr(0), &7u64.to_le_bytes());
        cache.retire_streaming(&media, &[(PAddr(0), 1), (PAddr(8), 2), (PAddr(0), 3)]);
        // The cached 7 still shadows the streamed 3, which is now durable.
        assert_eq!(media.read_word(PAddr(0)), 7);
        assert_eq!(cache.pre_images(), [(PAddr(0), 3)]);
        assert_eq!(media.read_word(PAddr(8)), 2);
    }

    #[test]
    fn capacity_eviction_writes_back() {
        let media = Media::new(1 << 20);
        let cache = CacheModel::new(SHARDS); // one line per shard
                                             // Dirty many lines in the same shard (stride SHARDS*64 bytes).
        for i in 0..10u64 {
            cache.store_bytes(&media, PAddr(i * SHARDS as u64 * CACHE_LINE), &[7]);
        }
        assert!(
            cache.dirty_lines() < 10,
            "older lines must have been evicted"
        );
        // Evicted lines keep no pre-image; every line still reads its value.
        assert_eq!(cache.pre_images().len(), cache.dirty_lines());
        for i in 0..10u64 {
            assert_eq!(read(&media, PAddr(i * SHARDS as u64 * CACHE_LINE), 1), [7]);
        }
    }
}
