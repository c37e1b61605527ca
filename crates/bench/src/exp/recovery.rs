//! Recovery SLO: how fast a reboot replays an outstanding redo-log
//! backlog, and how that speeds up with parallel replay threads. Emits
//! `BENCH_recovery.json`.
//!
//! ## Methodology
//!
//! One machine builds a known backlog in the only regime that has one:
//! `Truncation::Async`, with the log manager stopped (`MtmRuntime::kill`)
//! before four producer threads commit their write transactions, so
//! every committed record stays in its per-thread log and none of its
//! data lines is forced out. The machine is then crashed with
//! `CrashPolicy::DropAll` — every committed-but-unflushed data line is
//! lost, which is exactly the state recovery exists for — and the *same
//! media image* is rebooted at 1/2/4 replay threads.
//!
//! Replay time comes from [`mnemosyne::RecoveryStats`] in the emulator's
//! virtual domain: the scan phase's critical path is the slowest
//! scanner's accounted time, the replay phase's the slowest replayer's.
//! The headline figure is **milliseconds per MB of outstanding log**
//! (`ms_per_mb_milli`, in thousandths) — multiply by a crash-time
//! backlog bound (at most `log_words` per thread slot in the
//! asynchronous regime, the commits in flight in the synchronous one)
//! and you have the recovery-time SLO.
//!
//! ## Why it scales
//!
//! Recovery is two embarrassingly parallel passes over per-thread logs:
//! scanning the logs (round-robin over replay workers) and re-applying
//! the merged write stream (partitioned by address, which preserves the
//! per-address timestamp order a serial replay would use). Both split
//! their SCM traffic across handles, so the critical path drops toward
//! `1/threads`.

use mnemosyne::{CrashPolicy, Mnemosyne, ScmConfig, Truncation};

use crate::benchfile::BenchFile;
use crate::util::{banner, commas, Scale, TestRig};

/// Replay thread counts swept over the same crash image.
pub const THREADS: [usize; 3] = [1, 2, 4];

/// Producer threads building the redo backlog (and hence log count).
const PRODUCERS: usize = 4;

/// Words each producer writes per transaction.
const WRITES_PER_TX: u64 = 8;

/// Capacity of each producer's redo log, in words.
const LOG_WORDS: u64 = 1 << 15;

/// Log words one producer transaction occupies: `[len, ts, (addr, val)
/// x 8, checksum]`, 19 words packed 63 bits to the log word.
const RECORD_WORDS: u64 = 2 * WRITES_PER_TX + 4;

/// One replay-thread-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Parallel replay threads.
    pub threads: usize,
    /// Redo records replayed.
    pub replayed: u64,
    /// Outstanding log backlog scanned, in bytes.
    pub log_bytes: u64,
    /// Recovery time (scan + replay critical path), virtual ns.
    pub replay_ns: u64,
    /// Milliseconds of recovery per MB of outstanding log, thousandths.
    pub ms_per_mb_milli: u64,
    /// Backlog bytes recovered per virtual second.
    pub bytes_per_vsec: u64,
}

fn builder(dir: &std::path::Path) -> mnemosyne::MnemosyneBuilder {
    Mnemosyne::builder(dir)
        .scm_config(ScmConfig::virtual_clock(64 << 20))
        .max_threads(PRODUCERS + 2)
        .log_words(LOG_WORDS)
        .truncation(Truncation::Async)
}

/// Commits enough write transactions to leave a multi-log redo backlog,
/// then crashes dropping every unflushed data line. Returns the media
/// image and the backlog size in words.
fn build_backlog(dir: &std::path::Path, scale: Scale) -> (Vec<u8>, u64) {
    let m = builder(dir).open().expect("boot backlog machine");
    let txs = scale.pick(400, 1200);
    // With the manager gone nothing frees log space: a producer's whole
    // run must fit its log (with room for the `pstatic` records), or it
    // would stall forever. Every producer holds its slot before any
    // commits, so each fills a log of its own.
    assert!(txs * RECORD_WORDS <= LOG_WORDS * 3 / 4);
    m.mtm().kill();
    let registered = std::sync::Barrier::new(PRODUCERS);
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let (m, registered) = (&m, &registered);
            s.spawn(move || {
                let area = m
                    .pstatic(&format!("rcv{t}"), 256 * 8)
                    .expect("pstatic area");
                let mut th = m.register_thread().expect("register producer");
                registered.wait();
                for i in 0..txs {
                    th.atomic(|tx| {
                        for w in 0..WRITES_PER_TX {
                            let off = (i * WRITES_PER_TX + w) % 256;
                            tx.write_u64(area.add(off * 8), i * WRITES_PER_TX + w)?;
                        }
                        Ok(())
                    })
                    .expect("producer commit");
                }
            });
        }
    });
    let outstanding = m.mtm().outstanding_log_words();
    assert!(
        outstanding >= PRODUCERS as u64 * txs * RECORD_WORDS,
        "backlog machine truncated its own logs"
    );
    let (_dir, image) = m.crash(CrashPolicy::DropAll);
    (image, outstanding)
}

fn replay_point(dir: &std::path::Path, image: &[u8], threads: usize) -> Point {
    let m = builder(dir)
        .from_image(image.to_vec())
        .recovery_threads(threads)
        .open()
        .expect("reboot from crash image");
    let rs = m.mtm().recovery_stats();
    assert!(rs.replayed > 0, "nothing to replay: backlog was lost");
    let log_bytes = rs.scanned_words * 8;
    let replay_ns = rs.replay_ns.max(1);
    drop(m);
    Point {
        threads,
        replayed: rs.replayed,
        log_bytes,
        replay_ns,
        // milli(ms/MB) = 1000 * (ns/1e6) / (bytes/2^20)
        ms_per_mb_milli: replay_ns.saturating_mul(1 << 20) / (1000 * log_bytes.max(1)),
        bytes_per_vsec: log_bytes.saturating_mul(1_000_000_000) / replay_ns,
    }
}

/// Runs the sweep: one backlog image, one [`Point`] per [`THREADS`]
/// entry rebooting that same image.
pub fn measure(scale: Scale) -> Vec<Point> {
    let rig = TestRig::new();
    let (image, _words) = build_backlog(&rig.dir, scale);
    THREADS
        .iter()
        .map(|&t| replay_point(&rig.dir, &image, t))
        .collect()
}

/// The sweep as the `BENCH_recovery.json` document.
pub fn bench_file(points: &[Point]) -> BenchFile {
    let row = |p: &Point| {
        vec![
            p.threads as u64,
            p.replayed,
            p.log_bytes,
            p.replay_ns,
            p.ms_per_mb_milli,
            p.bytes_per_vsec,
        ]
    };
    BenchFile {
        file: "BENCH_recovery.json",
        bench: "recovery",
        unit: "outstanding-log bytes recovered per virtual second",
        param: ("producers", PRODUCERS as u64),
        keys: &[
            "threads",
            "replayed",
            "log_bytes",
            "replay_ns",
            "ms_per_mb_milli",
            "bytes_per_vsec",
        ],
        work_key: "log_bytes",
        ns_key: "replay_ns",
        value_key: "bytes_per_vsec",
        series: vec![("points", points.iter().map(row).collect())],
    }
}

fn print_table(points: &[Point]) {
    let one = points[0].bytes_per_vsec.max(1);
    println!("threads replayed  log-KB  replay-ms     ms/MB  bytes/vsec  speedup");
    for p in points {
        println!(
            "{:>7} {:>8} {:>7} {:>10.3} {:>9.3} {:>11} {:>6.2}x",
            p.threads,
            p.replayed,
            p.log_bytes >> 10,
            p.replay_ns as f64 / 1e6,
            p.ms_per_mb_milli as f64 / 1e3,
            commas(p.bytes_per_vsec as f64),
            p.bytes_per_vsec as f64 / one as f64,
        );
    }
}

/// Runs the experiment, prints the table, and writes
/// `BENCH_recovery.json` at the repository root.
pub fn run(scale: Scale) {
    banner(
        "recovery: parallel redo-log replay after a dropped-writeback crash",
        scale,
    );
    let points = measure(scale);
    print_table(&points);
    bench_file(&points).write();
}
