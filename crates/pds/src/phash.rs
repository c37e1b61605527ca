//! A persistent chained hash table (the §6.3 microbenchmark structure).
//!
//! Modelled on the "simple hash table" of the paper's Figure 4/5
//! experiments (Christopher Clark's C hashtable): a bucket array of head
//! pointers plus singly linked nodes. Each node is one `pmalloc` block:
//!
//! ```text
//! [next ptr][klen][vlen][key bytes (8-aligned)][value bytes]
//! ```
//!
//! Every mutation runs in one durable transaction; a 64-byte insert
//! touches the bucket head, the node fields, and the payload — the ~15
//! updates to ~5 cache lines the paper counts for its 4.3 µs insert.

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
    /// `buckets` chains.
    ///
    /// # Errors
    /// Propagates pstatic/transaction failures.
    pub fn open(
        m: &Mnemosyne,
        th: &mut TxThread,
        name: &str,
        buckets: u64,
    ) -> Result<PHashTable, mnemosyne::Error> {
        let root_cell = m.pstatic(name, 8)?;
        th.atomic(|tx| {
            if tx.read_u64(root_cell)? == 0 {
                let table = tx.pmalloc(HDR_ARRAY + buckets * 8)?;
                tx.write_u64(table.add(HDR_BUCKETS), buckets)?;
                for i in 0..buckets {
                    tx.write_u64(table.add(HDR_ARRAY + i * 8), 0)?;
                }
                tx.write_u64(root_cell, table.0)?;
            }
            Ok(())
        })?;
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

    /// Inserts or replaces `key → value` in one durable transaction.
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
