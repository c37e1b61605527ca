//! Allocator scaling: `pmalloc`/`pfree` throughput vs. thread count over
//! the sharded persistent heap.
//!
//! The paper's heap is Hoard-derived precisely so allocation scales with
//! threads (§4.3); this experiment measures that scaling and emits the
//! repository's first `BENCH_*.json` perf datapoint. Threads hash to heap
//! shards, each with its own allocator log, so concurrent durable
//! allocations no longer serialise on one lock/log.
//!
//! ## Methodology: virtual-time throughput
//!
//! CI machines (and this container) may expose a single core, where
//! wall-clock multi-thread scaling is meaningless. The SCM emulator's
//! **virtual clock** gives a machine-independent alternative, the same
//! time domain the repository's other experiments use: every persistent
//! primitive charges its modelled latency to the issuing handle, so a
//! shard's allocator-log handle accumulates exactly the serial-resource
//! busy time of that shard. Throughput is then
//!
//! ```text
//! total_ops / max-over-shards(busy_ns delta)
//! ```
//!
//! — the critical-path time an ideal parallel machine would need. A
//! single-lock/single-log heap funnels every operation through one handle
//! (flat scaling); the sharded heap divides the busy time by the number of
//! active shards.
//!
//! Each round, every thread allocates a batch of 64-byte blocks into its
//! own slice of persistent cells, then frees a batch: on even rounds its
//! own previous batch (local frees), on odd rounds the next thread's
//! batch (remote frees routed to the owning shard's log).

use std::sync::{Arc, Barrier};

use mnemosyne_pheap::{HeapConfig, PHeap};
use mnemosyne_region::{RegionManager, Regions};
use mnemosyne_scm::{ScmConfig, ScmSim};

use crate::benchfile::BenchFile;
use crate::util::{banner, commas, Scale, TestRig};

/// Shard count used for every run, so thread counts are compared over
/// identical heap geometry.
const SHARDS: usize = 8;

/// Thread counts swept.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One thread-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Worker threads.
    pub threads: usize,
    /// pmalloc + pfree operations completed.
    pub ops: u64,
    /// Critical-path busy time: max over shard logs of accounted ns.
    pub busy_ns: u64,
    /// `ops / busy_ns` in ops per virtual second.
    pub ops_per_vsec: f64,
}

fn run_point(threads: usize, scale: Scale) -> Point {
    let rig = TestRig::new();
    let sim = ScmSim::new(ScmConfig::virtual_clock(64 << 20));
    let mgr = RegionManager::boot(&sim, &rig.dir).unwrap();
    let (regions, _pmem) = Regions::open(&mgr, 1 << 16).unwrap();
    let heap = Arc::new(
        PHeap::open(
            &regions,
            HeapConfig::default()
                .with_sizes(8 << 20, 4 << 20)
                .with_shards(SHARDS),
        )
        .unwrap(),
    );
    let (cell_area, _) = regions.static_area();

    let batch = scale.pick(96, 384);
    let rounds = scale.pick(4, 8);
    let busy_before: u64 = heap.shard_busy_ns().into_iter().max().unwrap_or(0);

    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let heap = Arc::clone(&heap);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let my_cells = |i: u64, owner: usize| cell_area.add((owner as u64 * batch + i) * 8);
            let mut ops = 0u64;
            for round in 0..rounds {
                for i in 0..batch {
                    heap.pmalloc(64, my_cells(i, t)).unwrap();
                    ops += 1;
                }
                barrier.wait();
                // Even rounds free locally; odd rounds free the next
                // thread's batch — a remote free unless that shard happens
                // to be this thread's home too.
                let victim = if round % 2 == 0 { t } else { (t + 1) % threads };
                for i in 0..batch {
                    heap.pfree(my_cells(i, victim)).unwrap();
                    ops += 1;
                }
                barrier.wait();
            }
            ops
        }));
    }
    let ops: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let busy_ns = heap
        .shard_busy_ns()
        .into_iter()
        .max()
        .unwrap_or(0)
        .saturating_sub(busy_before)
        .max(1);
    Point {
        threads,
        ops,
        busy_ns,
        ops_per_vsec: ops as f64 * 1e9 / busy_ns as f64,
    }
}

/// Runs the sweep and returns one [`Point`] per entry of [`THREADS`].
pub fn measure(scale: Scale) -> Vec<Point> {
    THREADS.iter().map(|&t| run_point(t, scale)).collect()
}

/// The sweep as the `BENCH_pheap.json` document.
pub fn bench_file(points: &[Point]) -> BenchFile {
    let row = |p: &Point| {
        vec![
            p.threads as u64,
            p.ops,
            p.busy_ns,
            p.ops_per_vsec.round() as u64,
        ]
    };
    BenchFile {
        file: "BENCH_pheap.json",
        bench: "allocscale",
        unit: "pmalloc+pfree ops per virtual second",
        param: ("shards", SHARDS as u64),
        keys: &["threads", "ops", "busy_ns", "ops_per_vsec"],
        work_key: "ops",
        ns_key: "busy_ns",
        value_key: "ops_per_vsec",
        series: vec![("points", points.iter().map(row).collect())],
    }
}

/// Runs the experiment, prints the table, and writes `BENCH_pheap.json`
/// at the repository root.
pub fn run(scale: Scale) {
    banner("allocscale: sharded-heap pmalloc/pfree scaling", scale);
    let points = measure(scale);
    let one = points[0].ops_per_vsec;
    println!("threads      ops   busy-ms(max shard)     ops/vsec  speedup");
    for p in &points {
        println!(
            "{:>7} {:>8} {:>20.2} {:>12} {:>8.2}x",
            p.threads,
            p.ops,
            p.busy_ns as f64 / 1e6,
            commas(p.ops_per_vsec),
            p.ops_per_vsec / one
        );
    }
    bench_file(&points).write();
}
