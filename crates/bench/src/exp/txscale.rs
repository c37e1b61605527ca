//! Durable-transaction scaling: committed transactions per virtual
//! second vs. thread count, over disjoint and contended `pds::phash`
//! working sets.
//!
//! A synchronous commit costs two fences, both on the committing
//! thread's own handle (see DESIGN.md §5): the redo-record append, and
//! the truncation that closes the commit. This experiment measures how
//! per-thread logs scale that at 1/2/4/8 threads and emits
//! `BENCH_mtm.json`.
//!
//! ## Methodology: virtual-time throughput
//!
//! Same time domain as `allocscale` (see that module's header): under
//! the SCM emulator's virtual clock every persistent primitive charges
//! its modelled latency to the issuing handle. All of a transaction's
//! commit-path primitives (log append fence, data flushes, truncating
//! fence) are charged to the committing thread's redo-log handle,
//! and its heap operations to the owning heap shard's handle, so
//!
//! ```text
//! committed_tx / max-over-handles(busy_ns delta)
//! ```
//!
//! is the critical-path throughput an ideal parallel machine would see.
//! A commit path that serialised all threads through one handle would
//! show flat scaling; per-thread logs scale it with the thread count.
//!
//! ## Workloads
//!
//! * **disjoint** — each thread owns a private hash table and key range:
//!   no lock conflicts, the pure commit-path scaling limit.
//! * **contended** — one shared 4-bucket table, all threads hammering
//!   the same 16 keys: conflicts are the norm, so throughput measures
//!   the adaptive contention manager (bounded backoff + conflict-site
//!   hints) rather than raw commit bandwidth.
//!
//! Every `put`/`remove` is one durable transaction; committed counts
//! come from [`MtmRuntime::stats`], so internal conflict retries are
//! not double-counted.
//!
//! [`MtmRuntime::stats`]: mnemosyne::MtmRuntime::stats

use std::sync::{Arc, Barrier};

use mnemosyne::{Mnemosyne, ScmConfig, Truncation};
use mnemosyne_pds::PHashTable;

use crate::benchfile::BenchFile;
use crate::util::{banner, commas, Scale, TestRig};

/// Heap shards for every run (same geometry across thread counts).
const SHARDS: usize = 8;

/// Thread counts swept.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Buckets in the shared contended-mode table: deliberately few, so
/// chains collide and encounter-time conflicts are the common case.
const CONTENDED_BUCKETS: u64 = 4;

/// Shared keys the contended workload cycles over.
const CONTENDED_KEYS: u64 = 16;

/// One thread-count measurement of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Worker threads.
    pub threads: usize,
    /// Transactions committed (from `MtmStats`, excludes aborted
    /// attempts).
    pub commits: u64,
    /// Critical-path busy time: max over redo-log and heap-shard handles
    /// of accounted ns.
    pub busy_ns: u64,
    /// `commits / busy_ns` in committed transactions per virtual second.
    pub tx_per_vsec: f64,
}

fn table_name(contended: bool, t: usize) -> String {
    if contended {
        "txc".to_string()
    } else {
        format!("txd{t}")
    }
}

fn key_for(contended: bool, t: usize, i: u64) -> [u8; 8] {
    if contended {
        (i % CONTENDED_KEYS).to_le_bytes()
    } else {
        ((t as u64) << 40 | i).to_le_bytes()
    }
}

fn run_point(threads: usize, contended: bool, scale: Scale) -> Point {
    let rig = TestRig::new();
    let m = Arc::new(
        Mnemosyne::builder(&rig.dir)
            .scm_config(ScmConfig::virtual_clock(64 << 20))
            .heap_sizes(16 << 20, 8 << 20)
            .heap_shards(SHARDS)
            .max_threads(8)
            .log_words(1 << 12)
            .truncation(Truncation::Sync)
            .open()
            .expect("boot mnemosyne"),
    );
    // Create the tables up front so worker-side opens are read-only.
    {
        let mut th = m.register_thread().expect("setup slot");
        if contended {
            PHashTable::open(&m, &mut th, "txc", CONTENDED_BUCKETS).expect("create table");
        } else {
            for t in 0..threads {
                PHashTable::open(&m, &mut th, &table_name(false, t), 64).expect("create table");
            }
        }
    }

    // Contended rounds are smaller: every operation fights over 16 keys,
    // so the same wall budget covers fewer committed transactions.
    let rounds = scale.pick(3, 6);
    let batch = if contended {
        scale.pick(24, 96)
    } else {
        scale.pick(48, 160)
    };

    let slot_before = m.mtm().slot_busy_ns();
    let shard_before = m.heap().shard_busy_ns();
    let commits_before = m.mtm().stats().commits;

    let barrier = Arc::new(Barrier::new(threads));
    let mut joins = Vec::with_capacity(threads);
    for t in 0..threads {
        let m = Arc::clone(&m);
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut th = m.register_thread().expect("worker slot");
            let buckets = if contended { CONTENDED_BUCKETS } else { 64 };
            let table =
                PHashTable::open(&m, &mut th, &table_name(contended, t), buckets).expect("open");
            let value = [0xabu8; 8];
            barrier.wait();
            for _ in 0..rounds {
                for i in 0..batch {
                    let key = key_for(contended, t, i);
                    table.put(&mut th, &key, &value).expect("put");
                }
                for i in 0..batch {
                    let key = key_for(contended, t, i);
                    // In contended mode another thread may have removed
                    // the key already; the transaction still commits.
                    let _ = table.remove(&mut th, &key).expect("remove");
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let commits = m.mtm().stats().commits - commits_before;
    let slot_after = m.mtm().slot_busy_ns();
    let shard_after = m.heap().shard_busy_ns();
    let busy_ns = slot_after
        .iter()
        .zip(&slot_before)
        .chain(shard_after.iter().zip(&shard_before))
        .map(|(a, b)| a.saturating_sub(*b))
        .max()
        .unwrap_or(0)
        .max(1);
    Point {
        threads,
        commits,
        busy_ns,
        tx_per_vsec: commits as f64 * 1e9 / busy_ns as f64,
    }
}

/// Runs both sweeps; returns `(disjoint, contended)`, one [`Point`] per
/// entry of [`THREADS`].
pub fn measure(scale: Scale) -> (Vec<Point>, Vec<Point>) {
    let disjoint = THREADS
        .iter()
        .map(|&t| run_point(t, false, scale))
        .collect();
    let contended = THREADS.iter().map(|&t| run_point(t, true, scale)).collect();
    (disjoint, contended)
}

/// Both sweeps as the `BENCH_mtm.json` document.
pub fn bench_file(disjoint: &[Point], contended: &[Point]) -> BenchFile {
    let row = |p: &Point| {
        vec![
            p.threads as u64,
            p.commits,
            p.busy_ns,
            p.tx_per_vsec.round() as u64,
        ]
    };
    BenchFile {
        file: "BENCH_mtm.json",
        bench: "txscale",
        unit: "committed transactions per virtual second",
        param: ("heap_shards", SHARDS as u64),
        keys: &["threads", "commits", "busy_ns", "tx_per_vsec"],
        work_key: "commits",
        ns_key: "busy_ns",
        value_key: "tx_per_vsec",
        series: vec![
            ("disjoint", disjoint.iter().map(row).collect()),
            ("contended", contended.iter().map(row).collect()),
        ],
    }
}

fn print_table(label: &str, points: &[Point]) {
    let one = points[0].tx_per_vsec;
    println!("{label}");
    println!("threads  commits   busy-ms(max handle)      tx/vsec  speedup");
    for p in points {
        println!(
            "{:>7} {:>8} {:>21.2} {:>12} {:>8.2}x",
            p.threads,
            p.commits,
            p.busy_ns as f64 / 1e6,
            commas(p.tx_per_vsec),
            p.tx_per_vsec / one
        );
    }
}

/// Runs the experiment, prints both tables, and writes `BENCH_mtm.json`
/// at the repository root.
pub fn run(scale: Scale) {
    banner("txscale: durable-transaction commit scaling", scale);
    let (disjoint, contended) = measure(scale);
    print_table("disjoint working sets:", &disjoint);
    println!();
    print_table("contended working set (16 shared keys):", &contended);
    bench_file(&disjoint, &contended).write();
}
