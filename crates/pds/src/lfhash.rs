//! A lock-free detectable persistent hash table.
//!
//! The transactional [`crate::PHashTable`] pays the full Mnemosyne STM
//! toll on every mutation: redo-log writes, a log-ordering fence, a
//! commit fence. This module takes the opposite point in the design
//! space — the Clevel/SOFT lineage of *lock-free persistent hashing* —
//! while keeping Mnemosyne's recovery guarantees through the
//! [`crate::detect`] announcement layer. It is a library: `mnemosyned`
//! does not serve it (DESIGN.md §7 has the measurements behind that).
//!
//! * The structure is one **sorted persistent linked list** (a Harris
//!   list) ordered by the key hash `ok`, rooted at a single pstatic cell.
//!   There is no persistent bucket array and therefore no persistent
//!   rehash: "resize" touches only a volatile hint directory, so it is
//!   naturally lock-free and instantaneous after a crash.
//! * **GET** walks the list read-only: no locks, no logging, no flushes.
//! * **PUT/DEL** publish with a single CAS on the predecessor link and
//!   persist with explicit line flushes; the only fence this module
//!   issues on the common path is the one that makes the operation
//!   durable before it is acknowledged. (The allocator logs its own
//!   work: end to end a replacing put measures 8.97 fences and 3 CASes.)
//! * Every mutation is **detectable**: it is announced in a per-thread
//!   persistent slot before the linearizing CAS, so recovery resolves
//!   in-flight operations exactly once (finished inserts are kept,
//!   unpublished nodes are reclaimed, torn announcements are ignored via
//!   the detect tag).
//!
//! # Node layout
//!
//! Each node is one `pmalloc` block, immutable after initialization
//! except for its first word:
//!
//! ```text
//! [next|mark][ok][klen][vlen][detect tag][key (8-aligned)][value]
//! ```
//!
//! Bit 0 of the next word is the Harris deletion mark: setting it freezes
//! the node's successor pointer and logically deletes the node. Insertion
//! CASes always expect an *unmarked* next value, so no new node can ever
//! be attached behind a dying one.
//!
//! # Durability argument (why one fence is enough)
//!
//! The simulator persists a line the moment it is flushed, and may also
//! persist dirty lines spontaneously (capacity eviction) — so the rules
//! are the classic persist-before-publish ones:
//!
//! * An **insert** flushes the node body (including its next pointer)
//!   before the publish CAS, and flushes the predecessor link after it.
//!   The publish CAS can never break durable reachability for *other*
//!   nodes: whichever value of the link word is durable, the durable
//!   chain is either the old one (without the new node) or the new one
//!   (through the new node's already-durable next pointer).
//! * A **delete** is durable at the *mark* flush; the physical unlink is
//!   cleanup. An unlinked node is retired for reuse only after the
//!   winning unlink CAS's link word is flushed, so durable state can
//!   never contain a pointer into freed memory.
//! * Equal-hash runs are ordered newest-first (inserts go in front of
//!   the run), so the first key match in a walk is the current version.
//!   Whoever puts a node in front of older versions of its key, or marks
//!   one, marks and unlinks every older version before it acknowledges
//!   (`kill_shadows`) — otherwise unlinking the newest would bring the
//!   one behind it back — and recovery deduplicates if a crash intervenes.
//!
//! # Progress
//!
//! A marked next-word is frozen: no CAS through it succeeds again. Every
//! retry loop therefore restarts from a link it re-validates (the list
//! head or an unmarked hint), never from a link it merely remembers, so
//! each restart is paid for by another handle's successful CAS; debug
//! builds assert a bound on restarts so a livelock fails in seconds.
//!
//! Reclamation is epoch-based (volatile): readers pin an epoch around
//! each operation; unlinked nodes are freed two epochs later. Hint cells
//! are purged before a node is retired, so neither walks nor hint jumps
//! can reach freed memory.

use crate::detect::{detect_tag, AnnArea, AnnKind, Announcer};
use mnemosyne::obs::{Counter, Unit};
use mnemosyne::{HeapError, Mnemosyne, PHeap, PMem, VAddr};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key–value pairs returned by [`LfHandle::scan_prefix`], in hash order.
pub type ScanEntries = Vec<(Vec<u8>, Vec<u8>)>;

// Node header word offsets.
const W_NEXT: u64 = 0; // successor address | mark bit
const W_OK: u64 = 8; // ordering key (hash of the key bytes)
const W_KLEN: u64 = 16;
const W_VLEN: u64 = 24;
const W_TAG: u64 = 32; // detect tag of the creating announcement
const HDR: u64 = 40;

const MARK: u64 = 1;

/// Hint-directory load factor: double when `size > buckets * LOAD`.
const LOAD: u64 = 4;
/// Initial hint-directory buckets (power of two).
const MIN_BUCKETS: usize = 64;
/// How many hint buckets a lookup probes before falling back to head.
const HINT_PROBES: usize = 4;
/// Retired nodes a handle accumulates before attempting a collection.
const COLLECT_EVERY: usize = 32;
/// Restarts one walk may take before a debug build calls it a livelock:
/// a contended walk restarts a handful of times, and a million restarts
/// (a second or two) means it is re-reading state nobody will change.
const MAX_RESTARTS: u32 = 1 << 20;

#[inline]
fn is_marked(w: u64) -> bool {
    w & MARK != 0
}

#[inline]
fn strip(w: u64) -> u64 {
    w & !MARK
}

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

/// Counts one more pass of `walk`'s retry loop (see [`MAX_RESTARTS`]).
#[inline]
fn count_restart(restarts: &mut u32, walk: &str) {
    *restarts += 1;
    debug_assert!(
        *restarts < MAX_RESTARTS,
        "lfhash {walk}: {MAX_RESTARTS} restarts without progress (livelock)"
    );
}

/// Volatile hint directory: `cells[ok >> shift]` caches the address of
/// the lowest-hash live node of that hash range, giving walks an O(1)
/// entry point into the sorted list. Purely an accelerator — an empty
/// directory only costs walk length, never correctness.
struct Hints {
    shift: u32,
    cells: Vec<AtomicU64>,
}

impl Hints {
    fn new(buckets: usize) -> Hints {
        debug_assert!(buckets.is_power_of_two());
        Hints {
            shift: 64 - buckets.trailing_zeros(),
            cells: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn bucket(&self, ok: u64) -> usize {
        (ok >> self.shift) as usize
    }
}

/// A handle's epoch pin: 0 when quiescent, `epoch + 1` while inside an
/// operation that may hold references to unlinked nodes.
struct PinCell {
    pinned: AtomicU64,
}

struct Retired {
    addr: VAddr,
    epoch: u64,
}

struct LfMetrics {
    cas_retries: Counter,
    resize_helps: Counter,
    recovery_resolutions: Counter,
    retired_frees: Counter,
}

/// State shared by every handle of one table.
struct LfShared {
    /// The pstatic root cell: the list's head link word.
    head: VAddr,
    heap: Arc<PHeap>,
    ann: Arc<AnnArea>,
    /// Live-entry count (volatile; rebuilt by recovery).
    size: AtomicU64,
    /// Epoch-based-reclamation clock.
    epoch: AtomicU64,
    pins: Mutex<Vec<Arc<PinCell>>>,
    /// Retire lists abandoned by dropped handles.
    orphans: Mutex<Vec<Retired>>,
    hints: Mutex<Arc<Hints>>,
    hints_gen: AtomicU64,
    resize_lock: Mutex<()>,
    metrics: LfMetrics,
}

/// A lock-free persistent hash table (see the module docs). Cheap to
/// clone; all persistent state lives behind the pstatic root.
#[derive(Clone)]
pub struct LfHashTable {
    shared: Arc<LfShared>,
}

impl std::fmt::Debug for LfHashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LfHashTable")
            .field("head", &self.shared.head)
            .field("size", &self.shared.size.load(Ordering::Relaxed))
            .finish()
    }
}

/// Outcome of a writer-side walk for an exact key.
struct Found {
    /// Address of the link word referencing `node`.
    prev_link: VAddr,
    /// The first live node matching the key.
    node: VAddr,
}

impl LfHashTable {
    /// Opens (or creates) the named table and runs detectable-operation
    /// recovery: resolves announcements left by a crash exactly once,
    /// deduplicates interrupted replaces, drops half-deleted nodes, and
    /// rebuilds the volatile hint directory and size counter.
    ///
    /// Call once per process per table, before handing out handles.
    ///
    /// # Errors
    /// Propagates pstatic and heap failures.
    pub fn open(m: &Mnemosyne, name: &str) -> Result<LfHashTable, mnemosyne::Error> {
        let head = m.pstatic(name, 8)?;
        let ann = AnnArea::open(m, name)?;
        let pmem = m.pmem_handle();
        let t = m.telemetry();
        let metrics = LfMetrics {
            cas_retries: t.counter("pds.lf.cas_retries", Unit::Count),
            resize_helps: t.counter("pds.lf.resize_helps", Unit::Count),
            recovery_resolutions: t.counter("pds.lf.recovery_resolutions", Unit::Count),
            retired_frees: t.counter("pds.lf.retired_frees", Unit::Count),
        };

        // --- Recovery pass 1: resolve announcements against the durable
        // list. Reachable announced nodes applied before the crash; the
        // rest never happened and their blocks are reclaimed iff the
        // detect tag proves the block still belongs to that operation.
        let mut reachable = HashSet::new();
        let mut cur = strip(pmem.read_u64(head));
        while cur != 0 {
            reachable.insert(cur);
            cur = strip(pmem.read_u64(VAddr(cur).add(W_NEXT)));
        }
        for p in ann.pending(&pmem) {
            metrics.recovery_resolutions.inc();
            let reclaim = p.kind == AnnKind::Put
                && !reachable.contains(&p.node.0)
                && m.heap().usable_size(p.node).is_some()
                && pmem.read_u64(p.node.add(W_TAG)) == detect_tag(p.slot, p.seq);
            // Clear durably *before* freeing, so a crash between the two
            // can never resolve (and free) the same announcement twice.
            ann.clear(&pmem, p.slot);
            if reclaim {
                pmem.fence();
                m.heap()
                    .pfree_addr(p.node)
                    .map_err(mnemosyne::Error::Heap)?;
            }
        }
        pmem.fence();

        // --- Recovery pass 2: physical cleanup. Walk the list once,
        // keeping the first occurrence of every key in its equal-hash run
        // (newest-first order makes that the current version; a marked
        // first occurrence means the key was deleted) and unlinking
        // marked nodes and shadowed older versions.
        let mut kept: Vec<(u64, u64)> = Vec::new(); // (ok, node)
        let mut dirty_links: HashSet<u64> = HashSet::new();
        let mut to_free: Vec<VAddr> = Vec::new();
        let mut run_ok = 0u64;
        let mut first = true;
        let mut run_seen: HashSet<Vec<u8>> = HashSet::new();
        let mut prev_link = head;
        let mut cur = strip(pmem.read_u64(head));
        while cur != 0 {
            let node = VAddr(cur);
            let w = pmem.read_u64(node.add(W_NEXT));
            let ok = pmem.read_u64(node.add(W_OK));
            if first || run_ok != ok {
                first = false;
                run_ok = ok;
                run_seen.clear();
            }
            let klen = pmem.read_u64(node.add(W_KLEN)) as usize;
            let mut key = vec![0u8; klen];
            pmem.read(node.add(HDR), &mut key);
            let drop = is_marked(w) || run_seen.contains(&key);
            run_seen.insert(key);
            if drop {
                pmem.store_u64(prev_link, strip(w));
                dirty_links.insert(prev_link.0);
                to_free.push(node);
            } else {
                kept.push((ok, cur));
                prev_link = node.add(W_NEXT);
            }
            cur = strip(w);
        }
        for l in &dirty_links {
            pmem.flush(VAddr(*l));
        }
        pmem.fence();
        for n in to_free {
            m.heap().pfree_addr(n).map_err(mnemosyne::Error::Heap)?;
        }

        // --- Rebuild the volatile side: size counter + hint directory.
        let buckets = kept.len().next_power_of_two().clamp(MIN_BUCKETS, 1 << 20);
        let hints = Hints::new(buckets);
        for &(ok, node) in &kept {
            let cell = &hints.cells[hints.bucket(ok)];
            // First node per bucket in hash order is the bucket minimum.
            let _ = cell.compare_exchange(0, node, Ordering::Relaxed, Ordering::Relaxed);
        }

        Ok(LfHashTable {
            shared: Arc::new(LfShared {
                head,
                heap: Arc::clone(m.heap()),
                ann,
                size: AtomicU64::new(kept.len() as u64),
                epoch: AtomicU64::new(1),
                pins: Mutex::new(Vec::new()),
                orphans: Mutex::new(Vec::new()),
                hints: Mutex::new(Arc::new(hints)),
                hints_gen: AtomicU64::new(1),
                resize_lock: Mutex::new(()),
                metrics,
            }),
        })
    }

    /// Creates a per-thread handle (persistent-memory handle plus a
    /// claimed announcement slot).
    ///
    /// # Errors
    /// Fails when all [`crate::detect::ANN_SLOTS`] announcement slots are
    /// claimed.
    pub fn handle(&self, m: &Mnemosyne) -> Result<LfHandle, mnemosyne::Error> {
        let pmem = m.pmem_handle();
        let ann = self
            .shared
            .ann
            .claim(&pmem)
            .ok_or_else(|| mnemosyne::Error::PStatic("announcement slots exhausted".into()))?;
        let pin = Arc::new(PinCell {
            pinned: AtomicU64::new(0),
        });
        self.shared.pins.lock().push(Arc::clone(&pin));
        let hints = self.shared.hints.lock().clone();
        let gen = self.shared.hints_gen.load(Ordering::Acquire);
        Ok(LfHandle {
            shared: Arc::clone(&self.shared),
            pmem,
            ann,
            pin,
            retire: Vec::new(),
            hints_cache: (gen, hints),
            #[cfg(test)]
            after_publish: None,
        })
    }

    /// Number of live entries (exact when quiescent).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.shared.size.load(Ordering::Relaxed)
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A thread's handle to an [`LfHashTable`]. Owns the thread's
/// persistent-memory handle, announcement slot, and retired-node list.
pub struct LfHandle {
    shared: Arc<LfShared>,
    pmem: PMem,
    ann: Announcer,
    pin: Arc<PinCell>,
    retire: Vec<Retired>,
    hints_cache: (u64, Arc<Hints>),
    /// Test-only yield point: run once by the next put, between its
    /// publish CAS and its `kill_shadows`.
    #[cfg(test)]
    after_publish: Option<Box<dyn FnOnce() + Send>>,
}

impl LfHandle {
    // ---- epoch-based reclamation ----

    fn pin(&self) {
        loop {
            let e = self.shared.epoch.load(Ordering::SeqCst);
            self.pin.pinned.store(e + 1, Ordering::SeqCst);
            if self.shared.epoch.load(Ordering::SeqCst) == e {
                return;
            }
        }
    }

    fn unpin(&self) {
        self.pin.pinned.store(0, Ordering::Release);
    }

    fn retire_node(&mut self, node: VAddr) {
        self.retire.push(Retired {
            addr: node,
            epoch: self.shared.epoch.load(Ordering::SeqCst),
        });
        if self.retire.len() >= COLLECT_EVERY {
            self.collect();
        }
    }

    /// Advances the epoch if no handle is pinned at an older one, then
    /// frees every retiree (ours and orphaned) that is two epochs stale.
    fn collect(&mut self) {
        let s = &self.shared;
        let e = s.epoch.load(Ordering::SeqCst);
        let clear = s.pins.lock().iter().all(|p| {
            let v = p.pinned.load(Ordering::SeqCst);
            v == 0 || v == e + 1
        });
        if clear {
            let _ = s
                .epoch
                .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
        let cur = s.epoch.load(Ordering::SeqCst);
        let free = |r: &Retired| r.epoch + 2 <= cur;
        let mut freed: Vec<VAddr> = Vec::new();
        self.retire.retain(|r| {
            if free(r) {
                freed.push(r.addr);
                false
            } else {
                true
            }
        });
        {
            let mut orphans = s.orphans.lock();
            orphans.retain(|r| {
                if free(r) {
                    freed.push(r.addr);
                    false
                } else {
                    true
                }
            });
        }
        for a in freed {
            if s.heap.pfree_addr(a).is_ok() {
                s.metrics.retired_frees.inc();
            }
        }
    }

    // ---- hint directory ----

    fn hints(&mut self) -> Arc<Hints> {
        let g = self.shared.hints_gen.load(Ordering::Acquire);
        if self.hints_cache.0 != g {
            let arr = self.shared.hints.lock().clone();
            self.hints_cache = (g, arr);
        }
        Arc::clone(&self.hints_cache.1)
    }

    /// Entry point for a walk toward hash `ok`: the nearest hint node
    /// strictly below `ok` (never mid-run), else the list head.
    /// Returns the link word to start from.
    fn start_link(&mut self, ok: u64) -> VAddr {
        let arr = self.hints();
        let b = arr.bucket(ok);
        for i in (b.saturating_sub(HINT_PROBES - 1)..=b).rev() {
            let n = arr.cells[i].load(Ordering::Acquire);
            if n == 0 {
                continue;
            }
            let node = VAddr(n);
            // A marked hint may already be unlinked; its frozen next
            // pointer could skip live predecessors of `ok`. Skip it.
            if is_marked(self.pmem.read_u64(node.add(W_NEXT))) {
                continue;
            }
            if self.pmem.read_u64(node.add(W_OK)) < ok {
                return node.add(W_NEXT);
            }
        }
        self.shared.head
    }

    /// Installs `node` (just inserted, hash `ok`) as its bucket's hint if
    /// it is the new minimum, then self-purges if the node was deleted
    /// concurrently — whichever side observes the other's step last
    /// clears the cell, so a retired node never lingers in the directory.
    fn install_hint(&mut self, ok: u64, node: VAddr) {
        let arr = self.hints();
        let cell = &arr.cells[arr.bucket(ok)];
        loop {
            let old = cell.load(Ordering::Acquire);
            if old != 0 && self.pmem.read_u64(VAddr(old).add(W_OK)) <= ok {
                break;
            }
            if cell
                .compare_exchange(old, node.0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if old == 0 {
                    self.shared.metrics.resize_helps.inc();
                }
                break;
            }
        }
        if is_marked(self.pmem.read_u64(node.add(W_NEXT))) {
            Self::purge_in(&arr, &self.pmem, node);
        }
    }

    /// Removes `node` from the current directory generation (the
    /// installer covers any other generation it published into).
    fn purge_hint(&mut self, node: VAddr) {
        let arr = self.hints();
        Self::purge_in(&arr, &self.pmem, node);
    }

    fn purge_in(arr: &Hints, pmem: &PMem, node: VAddr) {
        let ok = pmem.read_u64(node.add(W_OK));
        let _ = arr.cells[arr.bucket(ok)].compare_exchange(
            node.0,
            0,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Doubles the hint directory when the table outgrows it. Lock-free
    /// for everyone else: a single flight builds the new (empty) array
    /// and bumps the generation; concurrent writers repopulate it as they
    /// go, and stale readers just fall back to longer walks.
    fn maybe_resize(&mut self) {
        let size = self.shared.size.load(Ordering::Relaxed);
        let buckets = self.hints().cells.len() as u64;
        if size <= buckets * LOAD {
            return;
        }
        if let Some(_g) = self.shared.resize_lock.try_lock() {
            let cur = self.shared.hints.lock().clone();
            if size > cur.cells.len() as u64 * LOAD {
                let next = Arc::new(Hints::new(cur.cells.len() * 2));
                *self.shared.hints.lock() = next;
                self.shared.hints_gen.fetch_add(1, Ordering::Release);
            }
        }
    }

    // ---- node accessors ----

    fn key_matches(&self, node: VAddr, key: &[u8]) -> bool {
        if self.pmem.read_u64(node.add(W_KLEN)) as usize != key.len() {
            return false;
        }
        let mut k = vec![0u8; key.len()];
        self.pmem.read(node.add(HDR), &mut k);
        k == key
    }

    fn read_value(&self, node: VAddr) -> Vec<u8> {
        let klen = self.pmem.read_u64(node.add(W_KLEN)) as usize;
        let vlen = self.pmem.read_u64(node.add(W_VLEN)) as usize;
        let mut v = vec![0u8; vlen];
        self.pmem.read(node.add(HDR + pad8(klen)), &mut v);
        v
    }

    // ---- writer-side walks (with helping) ----

    /// Unlinks marked `node` from `prev_link` on behalf of its deleter:
    /// flushes the winning link word (the reuse gate), purges the hint,
    /// and retires the memory. `succ` is the node's frozen successor.
    fn help_unlink(&mut self, prev_link: VAddr, node: VAddr, succ: u64) -> bool {
        if self.pmem.cas_u64(prev_link, node.0, succ).is_ok() {
            self.pmem.flush(prev_link);
            self.purge_hint(node);
            self.retire_node(node);
            true
        } else {
            self.shared.metrics.cas_retries.inc();
            false
        }
    }

    /// The writer-side walk: from a fresh [`LfHandle::start_link`] toward
    /// hash `ok`, helping unlink every marked node on the way, until
    /// `stop(node, node's hash)` accepts an unmarked node or the list
    /// ends. Returns the link word the walk came by and the node it
    /// stopped at (0 at the end of the list). A failed help restarts from
    /// a fresh start link, never through a link the walk remembers.
    fn seek(
        &mut self,
        walk: &str,
        ok: u64,
        mut stop: impl FnMut(&Self, VAddr, u64) -> bool,
    ) -> (VAddr, u64) {
        let mut restarts = 0;
        'restart: loop {
            self.pmem.poll_crash();
            count_restart(&mut restarts, walk);
            let mut prev_link = self.start_link(ok);
            let mut cur = strip(self.pmem.read_u64(prev_link));
            loop {
                if cur == 0 {
                    return (prev_link, 0);
                }
                let node = VAddr(cur);
                let w = self.pmem.read_u64(node.add(W_NEXT));
                if is_marked(w) {
                    if !self.help_unlink(prev_link, node, strip(w)) {
                        continue 'restart;
                    }
                    cur = strip(w);
                    continue;
                }
                let nok = self.pmem.read_u64(node.add(W_OK));
                if stop(self, node, nok) {
                    return (prev_link, cur);
                }
                prev_link = node.add(W_NEXT);
                cur = strip(w);
            }
        }
    }

    /// Finds the insertion point for hash `ok`: the link word of the last
    /// node with hash `< ok` and the (unmarked-when-read) successor value
    /// to expect there.
    fn search_insert(&mut self, ok: u64) -> (VAddr, u64) {
        self.seek("search_insert", ok, |_, _, nok| nok >= ok)
    }

    /// Finds the first live node with hash `ok` and exactly `key`
    /// (equal-hash runs are newest-first, so this is the current
    /// version).
    fn search_key(&mut self, ok: u64, key: &[u8]) -> Option<Found> {
        let mut found = false;
        let (prev_link, cur) = self.seek("search_key", ok, |h, node, nok| {
            found = nok == ok && h.key_matches(node, key);
            found || nok > ok
        });
        let node = VAddr(cur);
        found.then_some(Found { prev_link, node })
    }

    /// Walks past the hash-`ok` run, which unlinks every marked node in
    /// it — the caller's own included — or restarts until a helper has.
    fn unlink_marked(&mut self, ok: u64) {
        self.seek("unlink_marked", ok, |_, _, nok| nok > ok);
    }

    /// Marks and unlinks every node with `key` behind the owner of `link`
    /// in the hash-`ok` run. Owed before acknowledging by a put, for the
    /// node it just published, and by whoever marks a node: the nodes
    /// behind are strictly older versions (inserts only go in front of a
    /// run), and once the newest is unlinked the next would read as
    /// current again. The flushes ride the caller's acknowledging fence.
    ///
    /// One forward pass: next-links lead through every node that was
    /// behind the owner, also once the owner or nodes on the way are
    /// marked and unlinked (the caller's epoch pin keeps those readable).
    /// A victim is unlinked through the link the pass came by while that
    /// still holds — it cannot once its owner is marked, which freezes
    /// the word — and by a fresh walk from the list proper otherwise.
    fn kill_shadows(&mut self, ok: u64, key: &[u8], link: VAddr) {
        let mut restarts = 0;
        let mut prev_link = link;
        let mut cur = strip(self.pmem.read_u64(link));
        while cur != 0 {
            self.pmem.poll_crash();
            let shadow = VAddr(cur);
            if self.pmem.read_u64(shadow.add(W_OK)) != ok {
                return;
            }
            let mut w = self.pmem.read_u64(shadow.add(W_NEXT));
            if self.key_matches(shadow, key) {
                // Mark (logical removal, owned by us on success).
                while !is_marked(w) {
                    count_restart(&mut restarts, "kill_shadows");
                    if self.pmem.cas_u64(shadow.add(W_NEXT), w, w | MARK).is_ok() {
                        self.pmem.flush(shadow.add(W_NEXT));
                        self.shared.size.fetch_sub(1, Ordering::Relaxed);
                        w |= MARK;
                    } else {
                        self.shared.metrics.cas_retries.inc();
                        w = self.pmem.read_u64(shadow.add(W_NEXT));
                    }
                }
                if !self.help_unlink(prev_link, shadow, strip(w)) {
                    self.unlink_marked(ok);
                }
            } else if !is_marked(w) {
                prev_link = shadow.add(W_NEXT);
            }
            cur = strip(w);
        }
    }

    // ---- public operations ----

    /// Inserts or replaces `key → value`. Durable (and only then
    /// acknowledged) after this returns: node persist + announcement are
    /// flushed before the publish CAS, and one fence drains everything.
    ///
    /// # Errors
    /// Propagates heap exhaustion.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), mnemosyne::Error> {
        let ok = hash_key(key);
        let total = HDR + pad8(key.len()) + pad8(value.len());
        self.pin();
        let res = self.put_pinned(ok, key, value, total);
        self.unpin();
        self.maybe_resize();
        res
    }

    fn put_pinned(
        &mut self,
        ok: u64,
        key: &[u8],
        value: &[u8],
        total: u64,
    ) -> Result<(), mnemosyne::Error> {
        let node = self
            .shared
            .heap
            .pmalloc_unanchored(total)
            .map_err(map_heap)?;
        // Body first (immutable from here on), then the announcement that
        // makes the op detectable, then the tag tying node to slot.
        self.pmem.store_u64(node.add(W_OK), ok);
        self.pmem.store_u64(node.add(W_KLEN), key.len() as u64);
        self.pmem.store_u64(node.add(W_VLEN), value.len() as u64);
        self.pmem.store(node.add(HDR), key);
        self.pmem.store(node.add(HDR + pad8(key.len())), value);
        let tag = self.ann.announce(&self.pmem, AnnKind::Put, node);
        self.pmem.store_u64(node.add(W_TAG), tag);
        self.pmem.flush_range(node.add(W_OK), total - W_OK);
        let mut restarts = 0;
        loop {
            self.pmem.poll_crash();
            count_restart(&mut restarts, "put");
            let (prev_link, succ) = self.search_insert(ok);
            // The node's next pointer must be durable before the publish
            // CAS can be, so the durable chain through it is complete.
            self.pmem.store_u64(node.add(W_NEXT), succ);
            self.pmem.flush(node.add(W_NEXT));
            match self.pmem.cas_u64(prev_link, succ, node.0) {
                Ok(()) => {
                    self.pmem.flush(prev_link);
                    break;
                }
                Err(_) => self.shared.metrics.cas_retries.inc(),
            }
        }
        self.shared.size.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        if let Some(hook) = self.after_publish.take() {
            hook();
        }
        self.kill_shadows(ok, key, node.add(W_NEXT));
        self.pmem.fence(); // the one ack fence
        self.install_hint(ok, node);
        Ok(())
    }

    /// Removes `key`; returns whether it was present. A removal is
    /// durable at the mark flush and fenced before returning.
    ///
    /// # Errors
    /// Propagates heap failures from deferred reclamation.
    pub fn del(&mut self, key: &[u8]) -> Result<bool, mnemosyne::Error> {
        let ok = hash_key(key);
        self.pin();
        let res = self.del_pinned(ok, key);
        self.unpin();
        res
    }

    fn del_pinned(&mut self, ok: u64, key: &[u8]) -> Result<bool, mnemosyne::Error> {
        let mut restarts = 0;
        loop {
            self.pmem.poll_crash();
            count_restart(&mut restarts, "del");
            let Some(f) = self.search_key(ok, key) else {
                return Ok(false);
            };
            // Announce the victim (re-announced with a fresh sequence
            // number if a race forces a retry on a different node).
            self.ann.announce(&self.pmem, AnnKind::Del, f.node);
            let w = self.pmem.read_u64(f.node.add(W_NEXT));
            if is_marked(w) {
                continue; // someone else is deleting it; re-search
            }
            if self.pmem.cas_u64(f.node.add(W_NEXT), w, w | MARK).is_err() {
                self.shared.metrics.cas_retries.inc();
                continue;
            }
            // Mark won: the delete is ours. Persist it, take down any
            // older version behind the victim (the put that published it
            // may not have finished its cleanup), then guarantee the
            // node is physically out before acknowledging — a marked
            // node left linked would make readers whose first match it is
            // restart with nobody obliged to finish the unlink.
            self.pmem.flush(f.node.add(W_NEXT));
            self.shared.size.fetch_sub(1, Ordering::Relaxed);
            self.kill_shadows(ok, key, f.node.add(W_NEXT));
            if !self.help_unlink(f.prev_link, f.node, strip(w)) {
                self.unlink_marked(ok);
            }
            self.pmem.fence();
            return Ok(true);
        }
    }

    /// Looks up `key` read-only: no locks, no flushes, no fences, no
    /// helping. A marked first match means a delete or replace is in
    /// flight — the walk restarts until the physical list settles.
    ///
    /// # Errors
    /// Infallible today; `Result` reserves the error path.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, mnemosyne::Error> {
        let ok = hash_key(key);
        self.pin();
        let mut restarts = 0;
        let res = 'restart: loop {
            self.pmem.poll_crash();
            count_restart(&mut restarts, "get");
            let start = self.start_link(ok);
            let mut cur = strip(self.pmem.read_u64(start));
            loop {
                if cur == 0 {
                    break 'restart None;
                }
                let node = VAddr(cur);
                let w = self.pmem.read_u64(node.add(W_NEXT));
                let nok = self.pmem.read_u64(node.add(W_OK));
                if nok > ok {
                    break 'restart None;
                }
                if nok == ok && self.key_matches(node, key) {
                    if is_marked(w) {
                        continue 'restart;
                    }
                    break 'restart Some(self.read_value(node));
                }
                cur = strip(w);
            }
        };
        self.unpin();
        Ok(res)
    }

    /// Collects up to `limit` (0 = unlimited) live entries whose key
    /// starts with `prefix`, in hash order. Weakly consistent under
    /// concurrent writers (each entry individually current when read).
    ///
    /// # Errors
    /// Infallible today; `Result` reserves the error path.
    pub fn scan_prefix(
        &mut self,
        prefix: &[u8],
        limit: usize,
    ) -> Result<ScanEntries, mnemosyne::Error> {
        self.pin();
        let mut out = Vec::new();
        let mut run_ok = 0u64;
        let mut first = true;
        let mut run_seen: HashSet<Vec<u8>> = HashSet::new();
        let mut cur = strip(self.pmem.read_u64(self.shared.head));
        while cur != 0 {
            self.pmem.poll_crash();
            let node = VAddr(cur);
            let w = self.pmem.read_u64(node.add(W_NEXT));
            let ok = self.pmem.read_u64(node.add(W_OK));
            if first || ok != run_ok {
                run_ok = ok;
                first = false;
                run_seen.clear();
            }
            let klen = self.pmem.read_u64(node.add(W_KLEN)) as usize;
            let mut key = vec![0u8; klen];
            self.pmem.read(node.add(HDR), &mut key);
            // First occurrence per key decides (newest-first): a marked
            // one means deleted, and either way older shadows are stale.
            if !run_seen.contains(&key) {
                if !is_marked(w) && key.starts_with(prefix) {
                    out.push((key.clone(), self.read_value(node)));
                    if limit != 0 && out.len() >= limit {
                        break;
                    }
                }
                run_seen.insert(key);
            }
            cur = strip(w);
        }
        self.unpin();
        Ok(out)
    }

    /// Live-entry count (exact when quiescent).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.shared.size.load(Ordering::Relaxed)
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for LfHandle {
    fn drop(&mut self) {
        // Hand our unreclaimed retirees to whoever collects next, and
        // deregister the pin so it cannot stall the epoch forever.
        let mut retire = std::mem::take(&mut self.retire);
        self.shared.orphans.lock().append(&mut retire);
        let me = Arc::as_ptr(&self.pin);
        self.shared.pins.lock().retain(|p| Arc::as_ptr(p) != me);
    }
}

fn map_heap(e: HeapError) -> mnemosyne::Error {
    mnemosyne::Error::Heap(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne::{
        crash_sweep, CrashPolicy, Error, FaultPlan, ScmConfig, ScmSim, SweepConfig, Truncation,
    };
    use std::collections::HashMap;
    use std::path::{Path, PathBuf};
    use std::sync::Mutex as StdMutex;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "pds-lf-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn boot(d: &Path) -> Mnemosyne {
        Mnemosyne::builder(d).scm_size(32 << 20).open().unwrap()
    }

    #[test]
    fn put_get_del_roundtrip() {
        let d = dir("basic");
        let m = boot(&d);
        let t = LfHashTable::open(&m, "lf").unwrap();
        let mut h = t.handle(&m).unwrap();
        h.put(b"one", b"1").unwrap();
        h.put(b"two", b"22").unwrap();
        assert_eq!(h.get(b"one").unwrap().unwrap(), b"1");
        assert_eq!(h.get(b"missing").unwrap(), None);
        h.put(b"one", b"uno").unwrap();
        assert_eq!(h.get(b"one").unwrap().unwrap(), b"uno");
        assert_eq!(t.len(), 2);
        assert!(h.del(b"one").unwrap());
        assert!(!h.del(b"one").unwrap());
        assert_eq!(h.get(b"one").unwrap(), None);
        assert_eq!(t.len(), 1);
        let scan = h.scan_prefix(b"", 0).unwrap();
        assert_eq!(scan.len(), 1);
        assert_eq!(scan[0], (b"two".to_vec(), b"22".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_keys_and_values() {
        let d = dir("empty");
        let m = boot(&d);
        let t = LfHashTable::open(&m, "lf").unwrap();
        let mut h = t.handle(&m).unwrap();
        h.put(b"", b"empty-key").unwrap();
        h.put(b"novalue", b"").unwrap();
        assert_eq!(h.get(b"").unwrap().unwrap(), b"empty-key");
        assert_eq!(h.get(b"novalue").unwrap().unwrap(), b"");
        assert!(h.del(b"").unwrap());
        assert_eq!(h.get(b"").unwrap(), None);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn survives_crash_reboot() {
        let d = dir("crash");
        let m = boot(&d);
        {
            let t = LfHashTable::open(&m, "lf").unwrap();
            let mut h = t.handle(&m).unwrap();
            for i in 0..100u64 {
                h.put(&i.to_le_bytes(), &[i as u8; 33]).unwrap();
            }
            for i in 0..30u64 {
                assert!(h.del(&i.to_le_bytes()).unwrap());
            }
        }
        let m2 = m.crash_reboot(CrashPolicy::random(11)).unwrap();
        let t = LfHashTable::open(&m2, "lf").unwrap();
        let mut h = t.handle(&m2).unwrap();
        assert_eq!(t.len(), 70);
        for i in 0..30u64 {
            assert_eq!(h.get(&i.to_le_bytes()).unwrap(), None);
        }
        for i in 30..100u64 {
            assert_eq!(h.get(&i.to_le_bytes()).unwrap().unwrap(), vec![i as u8; 33]);
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn replace_keeps_single_version() {
        let d = dir("replace");
        let m = boot(&d);
        {
            let t = LfHashTable::open(&m, "lf").unwrap();
            let mut h = t.handle(&m).unwrap();
            for i in 0..50u32 {
                h.put(b"key", &i.to_le_bytes()).unwrap();
            }
            assert_eq!(t.len(), 1);
        }
        let m2 = m.crash_reboot(CrashPolicy::DropAll).unwrap();
        let t = LfHashTable::open(&m2, "lf").unwrap();
        let mut h = t.handle(&m2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(h.get(b"key").unwrap().unwrap(), 49u32.to_le_bytes());
        let scan = h.scan_prefix(b"key", 0).unwrap();
        assert_eq!(scan.len(), 1);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn concurrent_distinct_inserts_all_survive() {
        let d = dir("conc");
        let m = boot(&d);
        let t = LfHashTable::open(&m, "lf").unwrap();
        let threads: Vec<_> = (0..3u8)
            .map(|tid| {
                let mut h = t.handle(&m).unwrap();
                std::thread::spawn(move || {
                    for i in 0..40u8 {
                        let key = [tid, i];
                        h.put(&key, &[tid ^ i; 17]).unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.len(), 120);
        let mut h = t.handle(&m).unwrap();
        for tid in 0..3u8 {
            for i in 0..40u8 {
                assert_eq!(h.get(&[tid, i]).unwrap().unwrap(), vec![tid ^ i; 17]);
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn concurrent_same_key_contention_stays_consistent() {
        let d = dir("contend");
        let m = boot(&d);
        let t = LfHashTable::open(&m, "lf").unwrap();
        let threads: Vec<_> = (0..3u8)
            .map(|tid| {
                let mut h = t.handle(&m).unwrap();
                std::thread::spawn(move || {
                    for round in 0..30u8 {
                        for k in 0..4u8 {
                            h.put(&[k], &[tid, round]).unwrap();
                            if (round + k + tid) % 3 == 0 {
                                h.del(&[k]).unwrap();
                            }
                            let _ = h.get(&[k]).unwrap();
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        // Quiescent invariant: at most one live version per key, and the
        // scan agrees with point lookups.
        let mut h = t.handle(&m).unwrap();
        let scan = h.scan_prefix(b"", 0).unwrap();
        let keys: HashSet<_> = scan.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys.len(), scan.len(), "duplicate live keys: {scan:?}");
        assert_eq!(t.len(), scan.len() as u64);
        for (k, v) in &scan {
            assert_eq!(h.get(k).unwrap().unwrap(), *v);
        }
        std::fs::remove_dir_all(&d).ok();
    }

    /// Runs `op` on a second handle between `h1`'s publish CAS and its
    /// shadow cleanup — the interleaving that freezes the new node's own
    /// link under it — and returns what the table then holds, as
    /// `(get, scan)`. The key has an older version for the node to shadow.
    fn race_in_publish_window(
        tag: &str,
        op: impl FnOnce(&mut LfHandle) + Send + 'static,
    ) -> (Option<Vec<u8>>, ScanEntries) {
        let d = dir(tag);
        let m = boot(&d);
        let t = LfHashTable::open(&m, "lf").unwrap();
        let mut h1 = t.handle(&m).unwrap();
        let mut h2 = t.handle(&m).unwrap();
        h1.put(b"k", b"old").unwrap();
        h1.after_publish = Some(Box::new(move || op(&mut h2)));
        h1.put(b"k", b"h1").unwrap();
        let got = h1.get(b"k").unwrap();
        let scan = h1.scan_prefix(b"", 0).unwrap();
        assert_eq!(t.len(), scan.len() as u64);
        std::fs::remove_dir_all(&d).ok();
        (got, scan)
    }

    #[test]
    fn put_superseded_before_its_cleanup_returns_and_the_newer_version_wins() {
        let (got, scan) = race_in_publish_window("super", |h2| h2.put(b"k", b"h2").unwrap());
        assert_eq!(got, Some(b"h2".to_vec()));
        assert_eq!(scan, vec![(b"k".to_vec(), b"h2".to_vec())]);
    }

    #[test]
    fn put_deleted_before_its_cleanup_returns_and_no_older_version_survives() {
        let (got, scan) = race_in_publish_window("del", |h2| {
            assert!(h2.del(b"k").unwrap());
            // Acknowledged, so already true while the put is still out.
            assert_eq!(h2.get(b"k").unwrap(), None);
        });
        assert_eq!(got, None);
        assert!(scan.is_empty(), "deleted key came back: {scan:?}");
    }

    #[test]
    fn hint_directory_resizes_under_growth() {
        let d = dir("resize");
        let m = boot(&d);
        let t = LfHashTable::open(&m, "lf").unwrap();
        let mut h = t.handle(&m).unwrap();
        for i in 0..600u64 {
            h.put(&i.to_le_bytes(), b"v").unwrap();
        }
        assert!(
            t.shared.hints_gen.load(Ordering::Relaxed) > 1,
            "hint directory never resized"
        );
        assert!(t.shared.hints.lock().cells.len() > MIN_BUCKETS);
        let snap = m.telemetry().snapshot();
        assert!(snap.counter("pds.lf.resize_helps") > 0);
        for i in 0..600u64 {
            assert_eq!(h.get(&i.to_le_bytes()).unwrap().unwrap(), b"v");
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn deleted_nodes_are_reclaimed() {
        let d = dir("reclaim");
        let m = boot(&d);
        let t = LfHashTable::open(&m, "lf").unwrap();
        let mut h = t.handle(&m).unwrap();
        // Enough delete churn to cross the collection threshold several
        // times over while the single handle is quiescent between ops.
        for round in 0..4u64 {
            for i in 0..64u64 {
                h.put(&i.to_le_bytes(), &round.to_le_bytes()).unwrap();
            }
            for i in 0..64u64 {
                assert!(h.del(&i.to_le_bytes()).unwrap());
            }
        }
        drop(h);
        let snap = m.telemetry().snapshot();
        assert!(
            snap.counter("pds.lf.retired_frees") > 0,
            "epoch reclamation never freed anything"
        );
        assert_eq!(t.len(), 0);
        std::fs::remove_dir_all(&d).ok();
    }

    // ---- detectable-operation crash coverage ----

    /// The deterministic op tape the sweep workload plays and the checker
    /// replays: `(is_put, key, value)`.
    fn op_tape() -> Vec<(bool, Vec<u8>, Vec<u8>)> {
        let mut ops = Vec::new();
        for i in 0..6u8 {
            ops.push((true, vec![b'k', i % 4], vec![i; 9]));
        }
        ops.push((false, vec![b'k', 1], vec![]));
        ops.push((true, vec![b'k', 1], vec![0xaa; 5]));
        ops.push((false, vec![b'k', 2], vec![]));
        ops
    }

    fn sweep_check(m: &Mnemosyne, acked: &StdMutex<usize>) -> Result<(), String> {
        let t = LfHashTable::open(m, "lf").map_err(|e| e.to_string())?;
        let mut h = t.handle(m).map_err(|e| e.to_string())?;
        let tape = op_tape();
        let n = *acked.lock().unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (is_put, k, v) in &tape[..n] {
            if *is_put {
                model.insert(k.clone(), v.clone());
            } else {
                model.remove(k);
            }
        }
        // The op after the last acknowledged one may have applied or not.
        let inflight = tape.get(n);
        for key in tape
            .iter()
            .map(|(_, k, _)| k.clone())
            .collect::<HashSet<_>>()
        {
            let actual = h.get(&key).map_err(|e| e.to_string())?;
            let expected = model.get(&key).cloned();
            if actual == expected {
                continue;
            }
            if let Some((is_put, k, v)) = inflight {
                if *k == key {
                    let alt = if *is_put { Some(v.clone()) } else { None };
                    if actual == alt {
                        continue;
                    }
                }
            }
            return Err(format!(
                "key {key:?}: got {actual:?}, want {expected:?} \
                 ({n} acked, in-flight {inflight:?})"
            ));
        }
        // Exactly-once: recovery must never leave two live versions.
        let scan = h.scan_prefix(b"", 0).map_err(|e| e.to_string())?;
        let distinct: HashSet<_> = scan.iter().map(|(k, _)| k.clone()).collect();
        if distinct.len() != scan.len() {
            return Err(format!("duplicate live keys after recovery: {scan:?}"));
        }
        Ok(())
    }

    /// The ISSUE's acceptance bar: crash everywhere in a lock-free
    /// workload (including mid-recovery double faults) and demand zero
    /// lost acknowledged writes and zero duplicated detectable ops.
    #[test]
    fn crash_sweep_loses_no_acked_ops() {
        let d = dir("sweep");
        let acked = StdMutex::new(0usize);
        let cfg = SweepConfig {
            max_points: 14,
            recovery_points: 2,
            ..SweepConfig::default()
        };
        let report = crash_sweep(
            &d,
            &cfg,
            |p| {
                Mnemosyne::builder(p)
                    .scm_config(ScmConfig::for_testing(8 << 20))
                    .truncation(Truncation::Sync)
            },
            |m| {
                *acked.lock().unwrap() = 0;
                let t = LfHashTable::open(m, "lf")?;
                let mut h = t.handle(m)?;
                for (is_put, k, v) in op_tape() {
                    if is_put {
                        h.put(&k, &v)?;
                    } else {
                        h.del(&k)?;
                    }
                    *acked.lock().unwrap() += 1;
                }
                Ok::<(), Error>(())
            },
            |m| sweep_check(m, &acked),
        )
        .unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.crashes_fired > 0);
        assert!(report.recovery_points_tested > 0);
        std::fs::remove_dir_all(&d).ok();
    }

    /// Crash *inside the table's own recovery pass* (the announcement
    /// resolution and cleanup walk), then recover again: the clear-before-
    /// free ordering must make resolution idempotent.
    #[test]
    fn recovery_itself_survives_crashes() {
        let d = dir("recrash");
        let build = |p: &Path| {
            Mnemosyne::builder(p)
                .scm_config(ScmConfig::for_testing(8 << 20))
                .truncation(Truncation::Sync)
        };
        // Count the crash-free workload's primitives, then leave a
        // *mid-operation* image behind so recovery has announcements to
        // resolve and shadows to clean.
        let m = build(&d).open().unwrap();
        let counter = FaultPlan::count_only();
        m.sim().set_fault_plan(counter.clone());
        {
            let t = LfHashTable::open(&m, "lf").unwrap();
            let mut h = t.handle(&m).unwrap();
            for (is_put, k, v) in op_tape() {
                if is_put {
                    h.put(&k, &v).unwrap();
                } else {
                    h.del(&k).unwrap();
                }
            }
        }
        let total = counter.primitives();
        m.sim().clear_fault_plan();
        let scm_config = m.sim().config().clone();
        drop(m);

        for frac in [3u64, 5, 7] {
            // First fault: die mid-workload.
            std::fs::remove_dir_all(&d).ok();
            let m = build(&d).open().unwrap();
            m.sim()
                .set_fault_plan(FaultPlan::crash_at(total * frac / 8));
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let t = LfHashTable::open(&m, "lf")?;
                let mut h = t.handle(&m)?;
                for (is_put, k, v) in op_tape() {
                    if is_put {
                        h.put(&k, &v)?;
                    } else {
                        h.del(&k)?;
                    }
                }
                Ok::<(), Error>(())
            }));
            let (_, img) = m.crash(CrashPolicy::DropAll);

            // Second fault: die inside the table's own recovery, at a
            // spread of points over its primitive count.
            let sim_c = ScmSim::from_image(&img, scm_config.clone());
            let m_c = build(&d).with_sim(sim_c.clone()).open().unwrap();
            let rcount = FaultPlan::count_only();
            m_c.sim().set_fault_plan(rcount.clone());
            LfHashTable::open(&m_c, "lf").unwrap();
            let r_total = rcount.primitives().max(1);
            m_c.sim().clear_fault_plan();
            drop(m_c);

            for r in 0..3u64 {
                let j = r_total * (2 * r + 1) / 6;
                let sim = ScmSim::from_image(&img, scm_config.clone());
                let m2 = build(&d).with_sim(sim.clone()).open().unwrap();
                m2.sim().set_fault_plan(FaultPlan::crash_at(j));
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    LfHashTable::open(&m2, "lf").map(|t| t.len())
                }));
                sim.crash(CrashPolicy::DropAll);
                let img2 = sim.image();

                // Third boot must recover cleanly and hold the invariants:
                // no duplicate live versions, lookups agree with the scan.
                let m3 = build(&d).from_image(img2).open().unwrap();
                let t = LfHashTable::open(&m3, "lf").unwrap();
                let mut h = t.handle(&m3).unwrap();
                let scan = h.scan_prefix(b"", 0).unwrap();
                let distinct: HashSet<_> = scan.iter().map(|(k, _)| k.clone()).collect();
                assert_eq!(distinct.len(), scan.len(), "duplicates: {scan:?}");
                assert_eq!(t.len(), scan.len() as u64);
                for (k, v) in &scan {
                    assert_eq!(h.get(k).unwrap().unwrap(), *v);
                }
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }
}
