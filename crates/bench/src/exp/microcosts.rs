//! §6.3 micro-costs: per-word logging cost and per-cache-line commit cost.
//!
//! The paper measures "the cost of instrumenting and logging each word
//! written as 190 ns when the transaction's write set is smaller than 128
//! cache lines" and "the cost of committing a transaction … up to 250 ns
//! per distinct cache line flushed". We isolate the same two slopes by
//! varying the write-set size along each dimension.
//!
//! Three more rows time `mnemosyned`'s combiner batch, 32 PUTs of 64-byte
//! values in one transaction over a 20 000-key, 4 096-bucket table: on one
//! thread, and with two threads taking turns, once on one shared
//! transaction thread (its descriptor, redo log and write-combining buffer
//! move to the other core every batch) and once on a transaction thread
//! each. The difference is what handing a batch's state between
//! connection threads costs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mnemosyne::{EmulationMode, Mnemosyne, Truncation, TxThread};
use mnemosyne_pds::PHashTable;

use crate::util::{banner, Scale, TestRig};

const PAPER_NOTE: &str = "paper: ~190 ns/word logged (write sets < 128 lines); commit adds \
up to ~250 ns per distinct cache line flushed; a 64 B hashtable insert (~15 updates, 5 lines) \
totals ~4.3 us";

/// Mean transaction latency (ns) writing `words` words spread over
/// `lines` distinct cache lines.
fn tx_latency_ns(
    m: &std::sync::Arc<mnemosyne::Mnemosyne>,
    base: mnemosyne::VAddr,
    words: u64,
    lines: u64,
    iters: u64,
) -> f64 {
    let mut th = m.register_thread().expect("thread");
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        th.atomic(|tx| {
            for w in 0..words {
                // Spread writes over `lines` cache lines.
                let line = w % lines;
                let slot = w / lines;
                tx.write_u64(base.add(line * 64 + (slot % 8) * 8), w)?;
            }
            Ok(())
        })
        .expect("tx");
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Raw primitive costs (ns) on one handle.
struct Raw {
    /// A cacheable word store.
    store_u64: f64,
    /// A flush of a dirty line.
    flush: f64,
    /// A fence with nothing streamed.
    fence: f64,
}

/// Times `n` word stores over one page (word index `w`), flushes of
/// lines that a store dirtied first (line index `l`, the stores untimed)
/// and `n` fences.
fn raw_costs(n: u64, store: impl Fn(u64), flush: impl Fn(u64), fence: impl Fn()) -> Raw {
    const LINES: u64 = 64;
    let t0 = std::time::Instant::now();
    for i in 0..n {
        store(i % (LINES * 8));
    }
    let store_u64 = t0.elapsed().as_nanos() as f64 / n as f64;
    let mut flushing = std::time::Duration::ZERO;
    for _ in 0..n / LINES {
        for l in 0..LINES {
            store(l * 8);
        }
        let t0 = std::time::Instant::now();
        for l in 0..LINES {
            flush(l);
        }
        flushing += t0.elapsed();
    }
    let flush = flushing.as_nanos() as f64 / (n / LINES * LINES) as f64;
    let t0 = std::time::Instant::now();
    for _ in 0..n {
        fence();
    }
    let fence = t0.elapsed().as_nanos() as f64 / n as f64;
    Raw {
        store_u64,
        flush,
        fence,
    }
}

/// One stack's measurements: the two slopes, every shape's latency, a
/// raw load and the raw primitives at `scm` and at `region`.
struct Costs {
    per_word: f64,
    per_line: f64,
    shapes: Vec<f64>,
    read_u64: f64,
    scm: Raw,
    region: Raw,
    /// `batch_costs`' three rows.
    batch: [f64; 3],
}

/// The combiner batch's table and shape (`mnemosyned`'s defaults, and
/// `kvload`'s key count and value size).
const BATCH_KEYS: u64 = 20_000;
const BATCH_BUCKETS: u64 = 4096;
const BATCH_PUTS: u64 = 32;

/// Mean time (ns) of one 32-PUT batch: `[one thread, two threads taking
/// turns on one transaction thread, two threads taking turns on their
/// own]`.
fn batch_costs(m: &Mnemosyne, batches: u64) -> [f64; 3] {
    let mut th = m.register_thread().expect("thread");
    let table = PHashTable::open(m, &mut th, "batch", BATCH_BUCKETS).expect("table");
    let keys: Vec<Vec<u8>> = (0..BATCH_KEYS)
        .map(|k| format!("key{k:08}").into_bytes())
        .collect();
    let value = [7u8; 64];
    // Batch `b`'s keys: uniform over the table, the same on every run.
    let batch = |th: &mut TxThread, b: u64| {
        th.atomic(|tx| {
            for i in 0..BATCH_PUTS {
                let k = (b * BATCH_PUTS + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) % BATCH_KEYS;
                table.put_in(tx, &keys[k as usize], &value)?;
            }
            Ok(())
        })
        .expect("batch");
    };
    for chunk in keys.chunks(64) {
        th.atomic(|tx| chunk.iter().try_for_each(|k| table.put_in(tx, k, &value)))
            .expect("preload");
    }

    let t0 = std::time::Instant::now();
    for b in 0..batches {
        batch(&mut th, b);
    }
    let one = t0.elapsed().as_nanos() as f64 / batches as f64;
    let shared = Mutex::new(th);
    let handoff = take_turns(batches, |_, b| batch(&mut shared.lock().unwrap(), b));
    let own = [
        Mutex::new(shared.into_inner().unwrap()),
        Mutex::new(m.register_thread().expect("thread")),
    ];
    let owned = take_turns(batches, |t, b| batch(&mut own[t].lock().unwrap(), b));
    [one, handoff, owned]
}

/// Mean time (ns) per batch when two threads take strict turns running
/// `run(thread, batch)`, the way two connections alternate as combiner.
fn take_turns(batches: u64, run: impl Fn(usize, u64) + Sync) -> f64 {
    let turn = AtomicU64::new(0);
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..2 {
            let (turn, run) = (&turn, &run);
            s.spawn(move || loop {
                let b = turn.load(Ordering::Acquire);
                if b >= batches {
                    return;
                }
                if b % 2 == t as u64 {
                    run(t, b);
                    turn.store(b + 1, Ordering::Release);
                } else {
                    std::hint::spin_loop();
                }
            });
        }
    });
    t0.elapsed().as_nanos() as f64 / batches as f64
}

const SHAPES: [(u64, u64); 6] = [(1, 1), (8, 1), (15, 5), (64, 8), (128, 64), (512, 64)];

/// Measures one stack booted in emulation mode `mode`, with `batches`
/// combiner batches per batch row.
fn measure(mode: EmulationMode, iters: u64, batches: u64) -> Costs {
    let rig = TestRig::new();
    let m = rig.mnemosyne_in(96, 150, Truncation::Sync, mode);
    let pmem = m.pmem_handle();
    let base = m
        .regions()
        .pmap("micro", 64 * 1024, &pmem)
        .expect("area")
        .addr;

    // Per-word slope: writes within ONE cache line (commit cost constant).
    let one = tx_latency_ns(&m, base, 1, 1, iters);
    let eight = tx_latency_ns(&m, base, 8, 1, iters);
    // Per-line slope: one word per line, varying lines.
    let l4 = tx_latency_ns(&m, base, 4, 4, iters);
    let l64 = tx_latency_ns(&m, base, 64, 64, iters);
    let shapes = SHAPES
        .iter()
        .map(|&(words, lines)| tx_latency_ns(&m, base, words, lines, iters))
        .collect();

    // A load through translation, over one resident page.
    let loads = iters * 64;
    let t0 = std::time::Instant::now();
    for i in 0..loads {
        std::hint::black_box(pmem.read_u64(base.add(i % 512 * 8)));
    }
    let read_u64 = t0.elapsed().as_nanos() as f64 / loads as f64;

    // The primitives on the same page: on the device handle, addressed
    // physically, and through translation.
    let page = pmem.try_translate(base).expect("resident page");
    let mem = m.sim().handle();
    let scm = raw_costs(
        loads,
        |w| mem.store_u64(page.add(w * 8), w),
        |l| mem.flush(page.add(l * 64)),
        || mem.fence(),
    );
    let region = raw_costs(
        loads,
        |w| pmem.store_u64(base.add(w * 8), w),
        |l| pmem.flush(base.add(l * 64)),
        || pmem.fence(),
    );

    Costs {
        per_word: (eight - one) / 7.0,
        per_line: (l64 - l4) / 60.0,
        shapes,
        read_u64,
        scm,
        region,
        batch: batch_costs(&m, batches),
    }
}

/// Runs and prints the micro-cost measurements: each under the paper's
/// emulated latencies and again under `EmulationMode::None`, which
/// inserts no delay, so the second column is what the simulator itself
/// costs. The raw rows time single primitives: `MemHandle` is the
/// `scm` device handle, `PMem` adds the `region` translation.
pub fn run(scale: Scale) {
    banner(
        "§6.3 micro-costs: per-word logging and per-line commit",
        scale,
    );
    println!("{PAPER_NOTE}");
    let iters = scale.pick(200, 2000);
    let batches = scale.pick(2000, 10_000);
    let emulated = measure(EmulationMode::Spin, iters, batches);
    let software = measure(EmulationMode::None, iters, batches);

    println!("\n{:<36} {:>10} {:>14}", "", "emulated", "software only");
    let rows = [
        (
            "per word (ns, paper ~190)",
            emulated.per_word,
            software.per_word,
        ),
        (
            "per line at commit (ns, paper ~250)",
            emulated.per_line,
            software.per_line,
        ),
        (
            "raw PMem::read_u64 (ns)",
            emulated.read_u64,
            software.read_u64,
        ),
        (
            "raw MemHandle::store_u64 (ns)",
            emulated.scm.store_u64,
            software.scm.store_u64,
        ),
        (
            "raw PMem::store_u64 (ns)",
            emulated.region.store_u64,
            software.region.store_u64,
        ),
        (
            "raw MemHandle::flush, dirty (ns)",
            emulated.scm.flush,
            software.scm.flush,
        ),
        (
            "raw PMem::flush, dirty (ns)",
            emulated.region.flush,
            software.region.flush,
        ),
        (
            "raw MemHandle::fence (ns)",
            emulated.scm.fence,
            software.scm.fence,
        ),
        (
            "raw PMem::fence (ns)",
            emulated.region.fence,
            software.region.fence,
        ),
    ];
    for (what, e, s) in rows {
        println!("{what:<36} {e:>10.1} {s:>14.1}");
    }

    println!("\ntransaction latency by write-set shape (ns):");
    println!("{:<26} {:>12} {:>14}", "shape", "emulated", "software only");
    for (i, (words, lines)) in SHAPES.iter().enumerate() {
        println!(
            "{:<26} {:>12.0} {:>14.0}",
            format!("{words} words / {lines} lines"),
            emulated.shapes[i],
            software.shapes[i]
        );
    }

    println!("\n{BATCH_PUTS}-PUT batch, {BATCH_KEYS} keys / {BATCH_BUCKETS} buckets (us):");
    println!("{:<36} {:>10} {:>14}", "", "emulated", "software only");
    let rows = [
        "one thread",
        "2 threads in turn, one TxThread",
        "2 threads in turn, own TxThreads",
    ];
    for (i, what) in rows.iter().enumerate() {
        println!(
            "{what:<36} {:>10.1} {:>14.1}",
            emulated.batch[i] / 1e3,
            software.batch[i] / 1e3
        );
    }
}
