//! A persistent chained hash table (the §6.3 microbenchmark structure).
//!
//! Modelled on the "simple hash table" of the paper's Figure 4/5
//! experiments (Christopher Clark's C hashtable): a bucket array of head
//! pointers plus singly linked nodes. Each node is one `pmalloc` block:
//!
//! ```text
//! [next ptr][klen][vlen][key bytes (8-aligned)][value bytes (8-aligned)]
//! ```
//!
//! Every mutation runs in one durable transaction; a 64-byte insert
//! touches the bucket head, the node fields, and the payload — the ~15
//! updates to ~5 cache lines the paper counts for its 4.3 µs insert.
//! Replacing a key's value with one of the same padded length writes the
//! value words (and `vlen`, if it changed) in place: no allocation, no
//! free, no link or head write, so the commit's two fences are the whole
//! persist cost. Only a value of another padded length unlinks the node,
//! frees it and links a new one at the bucket head.
//!
//! The bucket count is fixed when the table is created and read from its
//! persistent header on every operation; there is no resize. A lookup
//! walks one chain, so size the table near the key count it will hold.
//! The creating transaction writes `buckets + 2` words, so its redo record
//! must fit one thread's log: with the default 32 768-word log, 8 192
//! buckets fit and 16 384 fail with `LogError::RecordTooLarge`.

use mnemosyne::{Mnemosyne, TxAbort, TxError, TxThread, VAddr};

const HDR_BUCKETS: u64 = 0; // offset of bucket count in table header
const HDR_ARRAY: u64 = 8; // offset of bucket array

/// Key–value pairs returned by [`PHashTable::scan_prefix`], in bucket
/// order.
pub type ScanEntries = Vec<(Vec<u8>, Vec<u8>)>;

fn hash_key(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn pad8(n: usize) -> u64 {
    (n as u64).div_ceil(8) * 8
}

/// Handle to a persistent hash table (cheap to copy; all state is in
/// persistent memory).
#[derive(Debug, Clone, Copy)]
pub struct PHashTable {
    /// Persistent cell holding the table header address.
    root_cell: VAddr,
}

impl PHashTable {
    /// Opens (or creates, on first run) the named table with
    /// `buckets` chains. A table that already exists keeps the bucket
    /// count it was created with.
    ///
    /// # Errors
    /// `buckets == 0`, or an existing table whose header holds 0 buckets,
    /// is rejected with [`std::io::ErrorKind::InvalidInput`] /
    /// [`std::io::ErrorKind::InvalidData`] (every operation hashes modulo
    /// the count). A table too large for one transaction's redo record
    /// (see the module doc) fails with `LogError::RecordTooLarge` and is
    /// not created. Propagates other pstatic/transaction failures.
    pub fn open(
        m: &Mnemosyne,
        th: &mut TxThread,
        name: &str,
        buckets: u64,
    ) -> Result<PHashTable, mnemosyne::Error> {
        if buckets == 0 {
            return Err(mnemosyne::Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("hash table {name:?}: 0 buckets"),
            )));
        }
        let root_cell = m.pstatic(name, 8)?;
        let header_buckets = th.atomic(|tx| {
            let table = tx.read_u64(root_cell)?;
            if table != 0 {
                return tx.read_u64(VAddr(table).add(HDR_BUCKETS));
            }
            let table = tx.pmalloc(HDR_ARRAY + buckets * 8)?;
            tx.write_u64(table.add(HDR_BUCKETS), buckets)?;
            for i in 0..buckets {
                tx.write_u64(table.add(HDR_ARRAY + i * 8), 0)?;
            }
            tx.write_u64(root_cell, table.0)?;
            Ok(buckets)
        })?;
        if header_buckets == 0 {
            return Err(mnemosyne::Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("hash table {name:?}: header holds 0 buckets"),
            )));
        }
        Ok(PHashTable { root_cell })
    }

    fn bucket_addr(
        tx: &mut mnemosyne::Tx<'_>,
        root_cell: VAddr,
        key: &[u8],
    ) -> Result<VAddr, TxAbort> {
        let table = VAddr(tx.read_u64(root_cell)?);
        let buckets = tx.read_u64(table.add(HDR_BUCKETS))?;
        let b = hash_key(key) % buckets;
        Ok(table.add(HDR_ARRAY + b * 8))
    }

    /// Walks the chain for `key`; returns `(prev_link, node)` where
    /// `prev_link` is the pointer cell referencing `node`.
    fn find_in_chain(
        tx: &mut mnemosyne::Tx<'_>,
        bucket: VAddr,
        key: &[u8],
    ) -> Result<Option<(VAddr, VAddr)>, TxAbort> {
        let mut link = bucket;
        loop {
            let node = VAddr(tx.read_u64(link)?);
            if node.is_null() {
                return Ok(None);
            }
            let klen = tx.read_u64(node.add(8))? as usize;
            if klen == key.len() {
                let mut k = vec![0u8; klen];
                tx.read_bytes(node.add(24), &mut k)?;
                if k == key {
                    return Ok(Some((link, node)));
                }
            }
            link = node; // next pointer is the node's first word
        }
    }

    /// Inserts or replaces `key → value` in one durable transaction. A
    /// replacement of the same padded length is written in place.
    ///
    /// # Errors
    /// Propagates transaction/heap failures.
    pub fn put(&self, th: &mut TxThread, key: &[u8], value: &[u8]) -> Result<(), TxError> {
        let this = *self;
        th.atomic(|tx| this.put_in(tx, key, value))
    }

    /// Inserts or replaces `key → value` inside an already-open
    /// transaction — the building block request batchers use to fold many
    /// mutations into a single durable commit.
    ///
    /// # Errors
    /// Propagates transaction/heap aborts to the enclosing `atomic`.
    pub fn put_in(
        &self,
        tx: &mut mnemosyne::Tx<'_>,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), TxAbort> {
        let bucket = Self::bucket_addr(tx, self.root_cell, key)?;
        if let Some((link, node)) = Self::find_in_chain(tx, bucket, key)? {
            let vlen = tx.read_u64(node.add(16))?;
            // The node's value area fits: no alloc, free or relink.
            if pad8(vlen as usize) == pad8(value.len()) {
                if vlen != value.len() as u64 {
                    tx.write_u64(node.add(16), value.len() as u64)?;
                }
                return tx.write_bytes(node.add(24 + pad8(key.len())), value);
            }
            let next = tx.read_u64(node)?;
            tx.write_u64(link, next)?;
            tx.pfree(node);
        }
        let node = tx.pmalloc(24 + pad8(key.len()) + pad8(value.len()))?;
        let head = tx.read_u64(bucket)?;
        tx.write_u64(node, head)?;
        tx.write_u64(node.add(8), key.len() as u64)?;
        tx.write_u64(node.add(16), value.len() as u64)?;
        tx.write_bytes(node.add(24), key)?;
        tx.write_bytes(node.add(24 + pad8(key.len())), value)?;
        tx.write_u64(bucket, node.0)?;
        Ok(())
    }

    /// Removes `key`, returning whether it was present.
    ///
    /// # Errors
    /// Propagates transaction failures.
    pub fn remove(&self, th: &mut TxThread, key: &[u8]) -> Result<bool, TxError> {
        let this = *self;
        th.atomic(|tx| this.remove_in(tx, key))
    }

    /// Removes `key` inside an already-open transaction, returning whether
    /// it was present.
    ///
    /// # Errors
    /// Propagates transaction aborts to the enclosing `atomic`.
    pub fn remove_in(&self, tx: &mut mnemosyne::Tx<'_>, key: &[u8]) -> Result<bool, TxAbort> {
        let bucket = Self::bucket_addr(tx, self.root_cell, key)?;
        match Self::find_in_chain(tx, bucket, key)? {
            Some((link, node)) => {
                let next = tx.read_u64(node)?;
                tx.write_u64(link, next)?;
                tx.pfree(node);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Looks up `key`.
    ///
    /// # Errors
    /// Propagates transaction failures.
    pub fn get(&self, th: &mut TxThread, key: &[u8]) -> Result<Option<Vec<u8>>, TxError> {
        let this = *self;
        th.atomic(|tx| this.get_in(tx, key))
    }

    /// Looks up `key` inside an already-open transaction.
    ///
    /// # Errors
    /// Propagates transaction aborts to the enclosing `atomic`.
    pub fn get_in(
        &self,
        tx: &mut mnemosyne::Tx<'_>,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, TxAbort> {
        let bucket = Self::bucket_addr(tx, self.root_cell, key)?;
        match Self::find_in_chain(tx, bucket, key)? {
            Some((_, node)) => {
                let klen = tx.read_u64(node.add(8))? as usize;
                let vlen = tx.read_u64(node.add(16))? as usize;
                let mut v = vec![0u8; vlen];
                tx.read_bytes(node.add(24 + pad8(klen)), &mut v)?;
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    /// Collects up to `limit` entries whose key starts with `prefix`
    /// (`limit == 0` means unlimited). Walks every chain, so the result
    /// order is bucket order, not key order.
    ///
    /// # Errors
    /// Propagates transaction failures.
    pub fn scan_prefix(
        &self,
        th: &mut TxThread,
        prefix: &[u8],
        limit: usize,
    ) -> Result<ScanEntries, TxError> {
        let this = *self;
        th.atomic(|tx| this.scan_prefix_in(tx, prefix, limit, usize::MAX))
    }

    /// [`PHashTable::scan_prefix`] inside an already-open transaction,
    /// with a byte budget next to `limit`: the scan stops before the entry
    /// that would take the entries' size past `max_bytes`, an entry costing
    /// its key and value bytes plus 8 (their two `u32` lengths on the wire).
    ///
    /// # Errors
    /// Propagates transaction aborts to the enclosing `atomic`.
    pub fn scan_prefix_in(
        &self,
        tx: &mut mnemosyne::Tx<'_>,
        prefix: &[u8],
        limit: usize,
        max_bytes: usize,
    ) -> Result<ScanEntries, TxAbort> {
        let table = VAddr(tx.read_u64(self.root_cell)?);
        let buckets = tx.read_u64(table.add(HDR_BUCKETS))?;
        let mut out = Vec::new();
        let mut bytes = 0;
        for b in 0..buckets {
            let mut node = VAddr(tx.read_u64(table.add(HDR_ARRAY + b * 8))?);
            while !node.is_null() {
                if limit != 0 && out.len() >= limit {
                    return Ok(out);
                }
                let klen = tx.read_u64(node.add(8))? as usize;
                if klen >= prefix.len() {
                    let mut k = vec![0u8; klen];
                    tx.read_bytes(node.add(24), &mut k)?;
                    if k.starts_with(prefix) {
                        let vlen = tx.read_u64(node.add(16))? as usize;
                        bytes += 8 + klen + vlen;
                        if bytes > max_bytes {
                            return Ok(out);
                        }
                        let mut v = vec![0u8; vlen];
                        tx.read_bytes(node.add(24 + pad8(klen)), &mut v)?;
                        out.push((k, v));
                    }
                }
                node = VAddr(tx.read_u64(node)?);
            }
        }
        Ok(out)
    }

    /// Number of entries (walks every chain; diagnostics only).
    ///
    /// # Errors
    /// Propagates transaction failures.
    pub fn len(&self, th: &mut TxThread) -> Result<u64, TxError> {
        let root_cell = self.root_cell;
        th.atomic(|tx| {
            let table = VAddr(tx.read_u64(root_cell)?);
            let buckets = tx.read_u64(table.add(HDR_BUCKETS))?;
            let mut n = 0;
            for b in 0..buckets {
                let mut node = VAddr(tx.read_u64(table.add(HDR_ARRAY + b * 8))?);
                while !node.is_null() {
                    n += 1;
                    node = VAddr(tx.read_u64(node)?);
                }
            }
            Ok(n)
        })
    }

    /// Whether the table is empty.
    ///
    /// # Errors
    /// Propagates transaction failures.
    pub fn is_empty(&self, th: &mut TxThread) -> Result<bool, TxError> {
        Ok(self.len(th)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne::CrashPolicy;
    use std::path::PathBuf;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "pds-hash-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn put_get_remove() {
        let d = dir("basic");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let mut th = m.register_thread().unwrap();
        let h = PHashTable::open(&m, &mut th, "tbl", 64).unwrap();
        h.put(&mut th, b"one", b"1").unwrap();
        h.put(&mut th, b"two", b"22").unwrap();
        assert_eq!(h.get(&mut th, b"one").unwrap().unwrap(), b"1");
        h.put(&mut th, b"one", b"uno").unwrap();
        assert_eq!(h.get(&mut th, b"one").unwrap().unwrap(), b"uno");
        assert!(h.remove(&mut th, b"one").unwrap());
        assert!(!h.remove(&mut th, b"one").unwrap());
        assert_eq!(h.len(&mut th).unwrap(), 1);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn survives_random_crash() {
        let d = dir("crash");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        {
            let mut th = m.register_thread().unwrap();
            let h = PHashTable::open(&m, &mut th, "tbl", 64).unwrap();
            for i in 0..100u64 {
                h.put(&mut th, &i.to_le_bytes(), &[i as u8; 64]).unwrap();
            }
        }
        let m2 = m.crash_reboot(CrashPolicy::random(11)).unwrap();
        let mut th = m2.register_thread().unwrap();
        let h = PHashTable::open(&m2, &mut th, "tbl", 64).unwrap();
        for i in 0..100u64 {
            assert_eq!(
                h.get(&mut th, &i.to_le_bytes()).unwrap().unwrap(),
                vec![i as u8; 64],
                "key {i} corrupted by crash"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let d = dir("conc");
        let m = std::sync::Arc::new(Mnemosyne::builder(&d).scm_size(64 << 20).open().unwrap());
        let h = {
            let mut th = m.register_thread().unwrap();
            PHashTable::open(&m, &mut th, "tbl", 256).unwrap()
        };
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let m = std::sync::Arc::clone(&m);
            joins.push(std::thread::spawn(move || {
                let mut th = m.register_thread().unwrap();
                for i in 0..100u64 {
                    let k = (t << 32 | i).to_le_bytes();
                    h.put(&mut th, &k, &k).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut th = m.register_thread().unwrap();
        assert_eq!(h.len(&mut th).unwrap(), 400);

        // Second input: 4 threads put and remove the same 16 keys in a
        // 4-bucket table, so nearly every pair of transactions collides
        // on a chain. A value is [key, thread, round].
        let shared = PHashTable::open(&m, &mut th, "shared", 4).unwrap();
        drop(th);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let (m, start) = (&m, &start);
                s.spawn(move || {
                    let mut th = m.register_thread().unwrap();
                    start.wait();
                    for round in 0..12u8 {
                        for k in 0..16u8 {
                            shared.put(&mut th, &[k], &[k, t, round]).unwrap();
                        }
                        for k in (t..16).step_by(4) {
                            shared.remove(&mut th, &[k]).unwrap();
                        }
                    }
                });
            }
        });
        let mut th = m.register_thread().unwrap();
        let entries = shared.scan_prefix(&mut th, b"", 0).unwrap();
        for (k, v) in &entries {
            assert!(
                k.len() == 1 && k[0] < 16 && v.len() == 3 && v[0] == k[0] && v[1] < 4 && v[2] < 12,
                "{k:?} holds {v:?}, a value no thread wrote for it"
            );
        }
        let mut keys: Vec<u8> = entries.iter().map(|(k, _)| k[0]).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), entries.len(), "a key's node is duplicated");
        assert_eq!(shared.len(&mut th).unwrap(), entries.len() as u64);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn scan_prefix_filters_and_limits() {
        let d = dir("scan");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let mut th = m.register_thread().unwrap();
        let h = PHashTable::open(&m, &mut th, "tbl", 16).unwrap();
        for i in 0..20u8 {
            h.put(&mut th, &[b'a', i], &[i]).unwrap();
        }
        h.put(&mut th, b"zzz", b"other").unwrap();
        let all = h.scan_prefix(&mut th, b"a", 0).unwrap();
        assert_eq!(all.len(), 20);
        assert!(all.iter().all(|(k, v)| k[0] == b'a' && v == &vec![k[1]]));
        let capped = h.scan_prefix(&mut th, b"a", 7).unwrap();
        assert_eq!(capped.len(), 7);
        let none = h.scan_prefix(&mut th, b"nope", 0).unwrap();
        assert!(none.is_empty());
        let everything = h.scan_prefix(&mut th, b"", 0).unwrap();
        assert_eq!(everything.len(), 21);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn batched_ops_in_one_transaction() {
        let d = dir("batch");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let mut th = m.register_thread().unwrap();
        let h = PHashTable::open(&m, &mut th, "tbl", 16).unwrap();
        let commits_before = m.mtm().stats().commits;
        // Ten puts and a removal as ONE durable transaction.
        th.atomic(|tx| {
            for i in 0..10u64 {
                h.put_in(tx, &i.to_le_bytes(), &[i as u8; 16])?;
            }
            assert!(h.remove_in(tx, &3u64.to_le_bytes())?);
            assert_eq!(h.get_in(tx, &4u64.to_le_bytes())?, Some(vec![4u8; 16]));
            Ok(())
        })
        .unwrap();
        assert_eq!(m.mtm().stats().commits - commits_before, 1);
        assert_eq!(h.len(&mut th).unwrap(), 9);
        assert!(h.get(&mut th, &3u64.to_le_bytes()).unwrap().is_none());
        std::fs::remove_dir_all(&d).ok();
    }

    /// The node `key` lives in, read from the chain.
    fn node_of(th: &mut TxThread, h: PHashTable, key: &[u8]) -> VAddr {
        th.atomic(|tx| {
            let bucket = PHashTable::bucket_addr(tx, h.root_cell, key)?;
            Ok(PHashTable::find_in_chain(tx, bucket, key)?.unwrap().1)
        })
        .unwrap()
    }

    fn heap_ops(m: &Mnemosyne) -> (u64, u64) {
        let s = m.telemetry().snapshot();
        (s.counter("pheap.allocs"), s.counter("pheap.frees"))
    }

    #[test]
    fn same_padded_length_overwrites_in_place() {
        let d = dir("inplace");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let mut th = m.register_thread().unwrap();
        let h = PHashTable::open(&m, &mut th, "tbl", 4).unwrap();
        for k in 0..8u8 {
            h.put(&mut th, &[k], &[k; 64]).unwrap();
        }
        let node = node_of(&mut th, h, &[3]);
        let ops = heap_ops(&m);
        h.put(&mut th, &[3], &[0xAB; 64]).unwrap();
        assert_eq!(node_of(&mut th, h, &[3]), node, "the node moved");
        assert_eq!(heap_ops(&m), ops, "(allocs, frees) moved");
        assert_eq!(h.get(&mut th, &[3]).unwrap().unwrap(), vec![0xAB; 64]);

        // 60 -> 57 bytes pads to 64 both times: in place, and exactly 57
        // bytes read back.
        h.put(&mut th, &[5], &[1; 60]).unwrap();
        let node = node_of(&mut th, h, &[5]);
        let ops = heap_ops(&m);
        h.put(&mut th, &[5], &[2; 57]).unwrap();
        assert_eq!(node_of(&mut th, h, &[5]), node);
        assert_eq!(heap_ops(&m), ops);
        assert_eq!(h.get(&mut th, &[5]).unwrap().unwrap(), vec![2; 57]);

        // 64 -> 72 bytes needs a bigger node.
        let ops = heap_ops(&m);
        h.put(&mut th, &[3], &[7; 72]).unwrap();
        assert_eq!(heap_ops(&m), (ops.0 + 1, ops.1 + 1));
        assert_eq!(h.get(&mut th, &[3]).unwrap().unwrap(), vec![7; 72]);
        for k in (0..8u8).filter(|&k| k != 3 && k != 5) {
            assert_eq!(h.get(&mut th, &[k]).unwrap().unwrap(), vec![k; 64]);
        }
        assert_eq!(h.len(&mut th).unwrap(), 8);
        std::fs::remove_dir_all(&d).ok();
    }

    /// Every crash point of an in-place overwrite of a 64-byte value
    /// recovers the old value or the new one, never a mix.
    #[test]
    fn in_place_overwrite_survives_every_crash_point() {
        use mnemosyne::{crash_sweep, ScmConfig, SweepConfig, Truncation};
        use std::sync::atomic::{AtomicU8, Ordering};
        let d = dir("inplace-sweep");
        const OLD: [u8; 64] = [0x11; 64];
        const NEW: [u8; 64] = [0xEE; 64];
        // 0: nothing acked, 1: OLD acked, 2: NEW acked.
        let acked = AtomicU8::new(0);
        let cfg = SweepConfig {
            max_points: 10_000,
            ..SweepConfig::default()
        };
        let report = crash_sweep(
            &d,
            &cfg,
            |p| {
                Mnemosyne::builder(p)
                    .scm_config(ScmConfig::for_testing(1 << 20))
                    .heap_sizes(128 << 10, 128 << 10)
                    .max_threads(2)
                    .log_words(1024)
                    .truncation(Truncation::Sync)
            },
            |m| {
                acked.store(0, Ordering::SeqCst);
                let mut th = m.register_thread()?;
                let h = PHashTable::open(m, &mut th, "tbl", 1)?;
                h.put(&mut th, b"k", &OLD)?;
                acked.store(1, Ordering::SeqCst);
                h.put(&mut th, b"k", &NEW)?;
                acked.store(2, Ordering::SeqCst);
                Ok(())
            },
            |m| {
                let mut th = m.register_thread().map_err(|e| e.to_string())?;
                let h = PHashTable::open(m, &mut th, "tbl", 1).map_err(|e| e.to_string())?;
                let got = h.get(&mut th, b"k").map_err(|e| e.to_string())?;
                let ok = match acked.load(Ordering::SeqCst) {
                    0 => got.is_none() || got.as_deref() == Some(&OLD[..]),
                    1 => got.as_deref() == Some(&OLD[..]) || got.as_deref() == Some(&NEW[..]),
                    _ => got.as_deref() == Some(&NEW[..]),
                };
                ok.then_some(()).ok_or(format!("recovered {got:?}"))
            },
        )
        .unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(
            report.points_tested as u64, report.workload_primitives,
            "not every point was tried: {report}"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn bucket_count_bounds() {
        let d = dir("bounds");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let mut th = m.register_thread().unwrap();
        let zero = PHashTable::open(&m, &mut th, "zero", 0).unwrap_err();
        assert!(
            matches!(&zero, mnemosyne::Error::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
            "{zero:?}"
        );
        // A header of 0 (a table written by an older build that took 0).
        let cell = m.pstatic("zero-hdr", 8).unwrap();
        th.atomic(|tx| {
            let table = tx.pmalloc(HDR_ARRAY)?;
            tx.write_u64(table.add(HDR_BUCKETS), 0)?;
            tx.write_u64(cell, table.0)
        })
        .unwrap();
        let zero = PHashTable::open(&m, &mut th, "zero-hdr", 64).unwrap_err();
        assert!(
            matches!(&zero, mnemosyne::Error::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
            "{zero:?}"
        );

        // 16 384 buckets do not fit the default 32 768-word redo log: the
        // open fails cleanly and leaves no table behind.
        let big = PHashTable::open(&m, &mut th, "big", 16_384).unwrap_err();
        assert!(
            matches!(
                big,
                mnemosyne::Error::Tx(TxError::Log(mnemosyne::LogError::RecordTooLarge { .. }))
            ),
            "{big:?}"
        );
        let h = PHashTable::open(&m, &mut th, "big", 8_192).unwrap();
        h.put(&mut th, b"k", b"v").unwrap();
        assert_eq!(h.get(&mut th, b"k").unwrap().unwrap(), b"v");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_and_missing() {
        let d = dir("empty");
        let m = Mnemosyne::builder(&d).scm_size(32 << 20).open().unwrap();
        let mut th = m.register_thread().unwrap();
        let h = PHashTable::open(&m, &mut th, "tbl", 8).unwrap();
        assert!(h.is_empty(&mut th).unwrap());
        assert!(h.get(&mut th, b"ghost").unwrap().is_none());
        std::fs::remove_dir_all(&d).ok();
    }
}
