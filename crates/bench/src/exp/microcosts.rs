//! §6.3 micro-costs: per-word logging cost and per-cache-line commit cost.
//!
//! The paper measures "the cost of instrumenting and logging each word
//! written as 190 ns when the transaction's write set is smaller than 128
//! cache lines" and "the cost of committing a transaction … up to 250 ns
//! per distinct cache line flushed". We isolate the same two slopes by
//! varying the write-set size along each dimension.

use mnemosyne::{EmulationMode, Truncation};

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

/// One stack's measurements: the two slopes, every shape's latency and
/// a raw load.
struct Costs {
    per_word: f64,
    per_line: f64,
    shapes: Vec<f64>,
    read_u64: f64,
}

const SHAPES: [(u64, u64); 6] = [(1, 1), (8, 1), (15, 5), (64, 8), (128, 64), (512, 64)];

/// Measures one stack booted in emulation mode `mode`.
fn measure(mode: EmulationMode, iters: u64) -> Costs {
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

    Costs {
        per_word: (eight - one) / 7.0,
        per_line: (l64 - l4) / 60.0,
        shapes,
        read_u64,
    }
}

/// Runs and prints the micro-cost measurements: each under the paper's
/// emulated latencies and again under `EmulationMode::None`, which
/// inserts no delay, so the second column is what the simulator itself
/// costs.
pub fn run(scale: Scale) {
    banner(
        "§6.3 micro-costs: per-word logging and per-line commit",
        scale,
    );
    println!("{PAPER_NOTE}");
    let iters = scale.pick(200, 2000);
    let emulated = measure(EmulationMode::Spin, iters);
    let software = measure(EmulationMode::None, iters);

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
}
