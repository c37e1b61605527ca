//! The word-redo record `[stamp?, (addr, value)*]` and the steps that
//! commit it: [`encode`], append and fence, [`write_back`], [`force`],
//! truncate. The transaction runtime (stamped records) and the heap
//! (unstamped) both run them; DESIGN.md §5 describes the protocol, and
//! recovery [`decode`]s every record before it writes back any.

use mnemosyne_region::{PMem, VAddr};
use mnemosyne_scm::{CACHE_LINE, WORD};

use crate::error::LogError;

/// One pending durable word write: `(address, value)`.
pub type WordWrite = (VAddr, u64);

fn corrupt(detail: &'static str) -> LogError {
    LogError::Corrupt {
        position: 0,
        detail,
    }
}

/// Encodes the record into `buf`, replacing its contents.
pub fn encode(buf: &mut Vec<u64>, stamp: Option<u64>, writes: &[WordWrite]) {
    buf.clear();
    buf.extend(stamp);
    for &(addr, value) in writes {
        buf.push(addr.0);
        buf.push(value);
    }
}

/// Decodes an unstamped record after checking all of it: whole pairs, and
/// every address word-aligned and mapped.
///
/// # Errors
/// [`LogError::Corrupt`] for a cut pair or a bad address.
pub fn decode<'a>(
    record: &'a [u64],
    pmem: &PMem,
) -> Result<impl Iterator<Item = WordWrite> + 'a, LogError> {
    if !record.len().is_multiple_of(2) {
        return Err(corrupt("malformed redo record: a pair is cut"));
    }
    let writes = record.chunks_exact(2).map(|p| (VAddr(p[0]), p[1]));
    if writes
        .clone()
        .any(|(addr, _)| !addr.is_word_aligned() || pmem.try_translate(addr).is_err())
    {
        return Err(corrupt("redo record targets an unmapped or unaligned word"));
    }
    Ok(writes)
}

/// Decodes a stamped record into its stamp and writes, checked as
/// [`decode`] checks them.
///
/// # Errors
/// [`LogError::Corrupt`] for a missing stamp, a cut pair or a bad address.
pub fn decode_stamped<'a>(
    record: &'a [u64],
    pmem: &PMem,
) -> Result<(u64, impl Iterator<Item = WordWrite> + 'a), LogError> {
    let (&stamp, pairs) = record
        .split_first()
        .ok_or_else(|| corrupt("malformed redo record: no stamp"))?;
    Ok((stamp, decode(pairs, pmem)?))
}

/// Stores the writes in order, a run of consecutive words in one cache
/// line as one [`PMem::store_line_words`]; no flush, no fence.
pub fn write_back(pmem: &PMem, writes: &[WordWrite]) {
    let mut run = [0u64; (CACHE_LINE / WORD) as usize];
    let same_run =
        |&(a, _): &WordWrite, &(b, _): &WordWrite| b.0 == a.0 + WORD && b.0 % CACHE_LINE != 0;
    for words in writes.chunk_by(same_run) {
        for (slot, &(_, value)) in run.iter_mut().zip(words) {
            *slot = value;
        }
        pmem.store_line_words(words[0].0, &run[..words.len()]);
    }
}

/// Flushes each distinct line the writes touch once, in line order, with
/// `lines` as reused scratch. No fence: the truncation that follows fences.
pub fn force(pmem: &PMem, writes: impl IntoIterator<Item = WordWrite>, lines: &mut Vec<u64>) {
    lines.clear();
    lines.extend(writes.into_iter().map(|(a, _)| a.0 - a.0 % CACHE_LINE));
    lines.sort_unstable();
    lines.dedup();
    for &line in lines.iter() {
        pmem.flush(VAddr(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne_region::{RegionManager, Regions};
    use mnemosyne_scm::{ScmConfig, ScmSim};
    use std::fs;
    use std::path::PathBuf;

    struct Env {
        sim: ScmSim,
        pmem: PMem,
        base: VAddr,
        dir: PathBuf,
        _regions: Regions,
    }

    impl Drop for Env {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn setup() -> Env {
        let dir = std::env::temp_dir().join(format!(
            "rawl-redo-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let sim = ScmSim::new(ScmConfig::for_testing(8 << 20));
        let mgr = RegionManager::boot(&sim, &dir).unwrap();
        let (regions, pmem) = Regions::open(&mgr, 1 << 16).unwrap();
        let base = regions.pmap("data", 4096, &pmem).unwrap().addr;
        Env {
            sim,
            pmem,
            base,
            dir,
            _regions: regions,
        }
    }

    #[test]
    fn encode_then_decode_round_trips() {
        let env = setup();
        let writes = vec![(env.base, 1), (env.base.add(8), 2), (env.base.add(640), 3)];
        let mut buf = vec![99; 40];
        encode(&mut buf, Some(7), &writes);
        assert_eq!(buf.len(), 7);
        let (stamp, got) = decode_stamped(&buf, &env.pmem).unwrap();
        assert_eq!(stamp, 7);
        assert_eq!(got.collect::<Vec<_>>(), writes);

        encode(&mut buf, None, &writes);
        assert_eq!(buf.len(), 6);
        assert_eq!(decode(&buf, &env.pmem).unwrap().collect::<Vec<_>>(), writes);
    }

    #[test]
    fn decode_refuses_a_cut_pair() {
        let env = setup();
        let a = env.base.0;
        let corrupt = |r: Result<_, LogError>| matches!(r, Err(LogError::Corrupt { .. }));
        assert!(corrupt(decode(&[a, 1, a], &env.pmem).map(|_| ())));
        // Stamped: an even length cuts the last pair; an empty record has
        // no stamp.
        assert!(corrupt(
            decode_stamped(&[5, a, 1, a], &env.pmem).map(|_| ())
        ));
        assert!(corrupt(decode_stamped(&[], &env.pmem).map(|_| ())));
        assert!(decode_stamped(&[5], &env.pmem).is_ok(), "a stamp alone");
        assert!(decode(&[], &env.pmem).is_ok(), "no writes");
    }

    #[test]
    fn decode_refuses_an_unmapped_or_unaligned_address() {
        let env = setup();
        let mapped = env.base.0;
        for bad in [env.base.add(1 << 20).0, 8, mapped + 3] {
            let r = decode(&[mapped, 1, bad, 2], &env.pmem).map(|_| ());
            assert!(
                matches!(r, Err(LogError::Corrupt { detail, .. }) if detail.contains("unmapped")),
                "{bad:#x}: {r:?}"
            );
        }
    }

    #[test]
    fn write_back_stores_every_word_in_order() {
        let env = setup();
        let b = env.base;
        // A whole line, then a repeat of its first word that must land
        // last.
        let mut writes: Vec<WordWrite> = (0..8).map(|w| (b.add(w * 8), w + 1)).collect();
        writes.push((b, 100));
        let before = env.sim.stats();
        write_back(&env.pmem, &writes);
        let d = env.sim.stats().since(&before);
        assert_eq!(d.stores, 9, "one store per word, as single stores count");
        assert_eq!(d.flushes + d.fences, 0);
        assert_eq!(env.pmem.read_u64(b), 100);
        for w in 1..8 {
            assert_eq!(env.pmem.read_u64(b.add(w * 8)), w + 1);
        }
    }

    #[test]
    fn force_flushes_each_line_once() {
        let env = setup();
        let b = env.base;
        let writes = [
            (b.add(72), 1),
            (b, 2),
            (b.add(8), 3),
            (b.add(64), 4),
            (b, 5),
        ];
        write_back(&env.pmem, &writes);
        let before = env.sim.stats();
        let mut lines = vec![1, 2, 3];
        force(&env.pmem, writes, &mut lines);
        let d = env.sim.stats().since(&before);
        assert_eq!(d.flushes, 2);
        assert_eq!(d.fences, 0);
        assert_eq!(lines, vec![b.0, b.0 + 64], "line order, deduplicated");
    }
}
