//! KV-service scaling: acknowledged requests per virtual second vs.
//! batcher worker count, for a live `mnemosyned` service driven by
//! pipelined loopback TCP clients. Emits `BENCH_svc.json`.
//!
//! ## Methodology: virtual-time throughput
//!
//! Same time domain as `allocscale`/`txscale`: under the SCM emulator's
//! virtual clock every persistent primitive charges its modelled latency
//! to the issuing handle, and
//!
//! ```text
//! acked_requests / max-over-handles(busy_ns delta)
//! ```
//!
//! is the critical-path throughput an ideal parallel machine would see.
//! The network and thread-scheduling costs of the loopback TCP path are
//! wall-clock noise the virtual domain deliberately excludes — the
//! question here is what the *durability* cost per acknowledged request
//! is, and how it scales. (The wall-clock answer is `kvload`'s, in
//! `benchmark/`.)
//!
//! Why it scales (one redo-append fence per batch, group data fences
//! across workers) and where it stops (shared STM state) is discussed
//! with the numbers in EXPERIMENTS.md; latency (`svc.request_ns`) is
//! measured in the same virtual domain.

use std::sync::{Arc, Barrier};

use mnemosyne::{Mnemosyne, ScmConfig, Truncation};
use mnemosyne_svc::proto::{Request, Response};
use mnemosyne_svc::{Client, KvServer, KvService, SvcConfig};

use crate::benchfile::BenchFile;
use crate::util::{banner, commas, Scale, TestRig};

/// Batcher worker counts swept.
pub const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Loopback TCP client connections driving every point.
pub const CLIENTS: usize = 8;

/// Requests each client keeps in flight (pipeline window).
const WINDOW: usize = 32;

/// One worker-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Batcher workers.
    pub workers: usize,
    /// Requests acknowledged to clients.
    pub requests: u64,
    /// Critical-path busy time: max over the redo-log slot handles and
    /// the heap shard handles of accounted ns.
    pub busy_ns: u64,
    /// `requests / busy_ns`, in acknowledged requests per virtual second.
    pub req_per_vsec: f64,
    /// Median per-request latency (virtual ns, upper bound).
    pub p50_ns: u64,
    /// Tail per-request latency (virtual ns, upper bound).
    pub p99_ns: u64,
    /// Mean requests per queue drain, i.e. per durable transaction.
    pub mean_batch: u64,
}

fn run_point(workers: usize, scale: Scale) -> Point {
    let rig = TestRig::new();
    let m = Mnemosyne::builder(&rig.dir)
        .scm_config(ScmConfig::virtual_clock(64 << 20))
        .heap_sizes(16 << 20, 8 << 20)
        .heap_shards(8)
        .max_threads(WORKERS[WORKERS.len() - 1] + 2)
        .log_words(1 << 12)
        .truncation(Truncation::Sync)
        .open()
        .expect("boot mnemosyne");
    let svc = KvService::start(
        &m,
        SvcConfig {
            workers,
            max_batch: 16,
            ..SvcConfig::default()
        },
    )
    .expect("start kv service");
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let per_client = scale.pick(384, 1536);

    let snap_before = m.telemetry().snapshot();
    let slot_before = m.mtm().slot_busy_ns();
    let shard_before = m.heap().shard_busy_ns();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let joins: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                barrier.wait();
                let (mut sent, mut acked) = (0u64, 0u64);
                while acked < per_client {
                    while sent < per_client && sent - acked < WINDOW as u64 {
                        let mut key = vec![b'k', t as u8];
                        key.extend_from_slice(&sent.to_le_bytes());
                        c.send(&Request::Put(key, vec![0xab; 16])).expect("send");
                        sent += 1;
                    }
                    match c.recv().expect("recv") {
                        Response::Ok => acked += 1,
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
                acked
            })
        })
        .collect();
    let requests: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();

    // Critical path = the busiest handle that did persistent work on
    // behalf of requests: commits land on the redo-log slot handles,
    // allocation work on the heap shard handles.
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
    let delta = m.telemetry().snapshot().since(&snap_before);
    let lat = delta
        .histogram("svc.request_ns")
        .expect("svc.request_ns histogram");
    let batch = delta
        .histogram("svc.batch_size")
        .expect("svc.batch_size histogram");
    server.stop();
    svc.stop();

    Point {
        workers,
        requests,
        busy_ns,
        req_per_vsec: requests as f64 * 1e9 / busy_ns as f64,
        p50_ns: lat.quantile_upper_bound(50),
        p99_ns: lat.quantile_upper_bound(99),
        mean_batch: batch.mean(),
    }
}

/// Runs the sweep: one [`Point`] per entry of [`WORKERS`], each the
/// median of three runs — loopback TCP scheduling makes single runs (the
/// 8-worker point especially) too noisy to gate on directly.
pub fn measure(scale: Scale) -> Vec<Point> {
    WORKERS
        .iter()
        .map(|&w| crate::gate::median_of_3(|| run_point(w, scale), |p| p.req_per_vsec as u64))
        .collect()
}

/// The sweep as the `BENCH_svc.json` document.
pub fn bench_file(points: &[Point]) -> BenchFile {
    let row = |p: &Point| {
        vec![
            p.workers as u64,
            p.requests,
            p.busy_ns,
            p.req_per_vsec.round() as u64,
            p.p50_ns,
            p.p99_ns,
            p.mean_batch,
        ]
    };
    BenchFile {
        file: "BENCH_svc.json",
        bench: "kvscale",
        unit: "acknowledged requests per virtual second",
        param: ("clients", CLIENTS as u64),
        keys: &[
            "workers",
            "requests",
            "busy_ns",
            "req_per_vsec",
            "p50_ns",
            "p99_ns",
            "mean_batch",
        ],
        work_key: "requests",
        ns_key: "busy_ns",
        value_key: "req_per_vsec",
        series: vec![("points", points.iter().map(row).collect())],
    }
}

/// Runs the experiment, prints the table, and writes `BENCH_svc.json` at
/// the repository root.
pub fn run(scale: Scale) {
    banner(
        "kvscale: mnemosyned serving scaling (8 pipelined clients)",
        scale,
    );
    let points = measure(scale);
    let one = points[0].req_per_vsec;
    println!("workers requests  busy-ms(max handle)     req/vsec  speedup  p50-us  p99-us  batch");
    for p in &points {
        println!(
            "{:>7} {:>8} {:>20.2} {:>12} {:>7.2}x {:>7.1} {:>7.1} {:>6}",
            p.workers,
            p.requests,
            p.busy_ns as f64 / 1e6,
            commas(p.req_per_vsec),
            p.req_per_vsec / one,
            p.p50_ns as f64 / 1e3,
            p.p99_ns as f64 / 1e3,
            p.mean_batch
        );
    }
    bench_file(&points).write();
}
