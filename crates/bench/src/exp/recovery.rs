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

use std::path::{Path, PathBuf};

use mnemosyne::{CrashPolicy, Mnemosyne, ScmConfig, Truncation};

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

fn builder(dir: &Path) -> mnemosyne::MnemosyneBuilder {
    Mnemosyne::builder(dir)
        .scm_config(ScmConfig::virtual_clock(64 << 20))
        .max_threads(PRODUCERS + 2)
        .log_words(LOG_WORDS)
        .truncation(Truncation::Async)
}

/// Commits enough write transactions to leave a multi-log redo backlog,
/// then crashes dropping every unflushed data line. Returns the media
/// image and the backlog size in words.
fn build_backlog(dir: &Path, scale: Scale) -> (Vec<u8>, u64) {
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

fn replay_point(dir: &Path, image: &[u8], threads: usize) -> Point {
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

/// Each point's replay rate over the first point's, in thousandths,
/// truncated — exact integer arithmetic, so the figure is reproducible.
fn speedup_milli(p: &Point, first: &Point) -> u64 {
    // u128 keeps the cross-multiplication from overflowing.
    let [w, t, w0, t0] =
        [p.log_bytes, p.replay_ns, first.log_bytes, first.replay_ns].map(u128::from);
    (w * t0 * 1000 / (t * w0).max(1)) as u64
}

/// The sweep as the `BENCH_recovery.json` document. Every number is an
/// integer because the repository's telemetry JSON parser rejects floats.
fn to_json(points: &[Point]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"unit\": \"outstanding-log bytes recovered \
         per virtual second\",\n  \"producers\": {PRODUCERS},\n  \"points\": ["
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{\"threads\": {}, \"replayed\": {}, \"log_bytes\": {}, \"replay_ns\": {}, \
             \"ms_per_mb_milli\": {}, \"bytes_per_vsec\": {}, \"speedup_milli\": {}}}",
            p.threads,
            p.replayed,
            p.log_bytes,
            p.replay_ns,
            p.ms_per_mb_milli,
            p.bytes_per_vsec,
            speedup_milli(p, &points[0]),
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Where the document lives: the repository root (the bench crate is at
/// `crates/bench`).
fn json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_recovery.json")
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
    // A failed write is a warning, not an error: the table was printed.
    let path = json_path();
    match std::fs::write(&path, to_json(&points)) {
        Ok(()) => println!("bench json: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne_scm::obs::parse_json;

    /// The quick sweep replays the same backlog at every thread count,
    /// record for record, and four replay threads recover it at least
    /// 3.4x as fast as one. The counts are exact; the ratio has a floor
    /// because the accounted virtual times move with the build profile
    /// and with what the process ran before (3.83x from the release
    /// binary, 3.88x in a debug test, 3.91x inside `repro_all`).
    #[test]
    fn quick_sweep_replays_exact_counts_and_scales() {
        let points = measure(Scale::Quick);
        let threads: Vec<usize> = points.iter().map(|p| p.threads).collect();
        assert_eq!(threads, THREADS);
        for p in &points {
            assert_eq!((p.replayed, p.log_bytes), (1604, 256_448), "{p:?}");
        }
        let speedup = speedup_milli(&points[2], &points[0]);
        assert!(
            speedup >= 3400,
            "4-thread replay speedup {speedup} milli < 3400: {points:?}"
        );
    }

    /// The committed `BENCH_recovery.json`, read back into points, is
    /// byte for byte what the writer makes of them.
    #[test]
    fn committed_file_round_trips_through_the_writer() {
        let text = std::fs::read_to_string(json_path()).unwrap();
        let doc = parse_json(&text).unwrap();
        let points: Vec<Point> = doc.as_obj().unwrap()["points"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|row| {
                let field = |k: &str| row.as_obj().unwrap()[k].as_u64().unwrap();
                Point {
                    threads: field("threads") as usize,
                    replayed: field("replayed"),
                    log_bytes: field("log_bytes"),
                    replay_ns: field("replay_ns"),
                    ms_per_mb_milli: field("ms_per_mb_milli"),
                    bytes_per_vsec: field("bytes_per_vsec"),
                }
            })
            .collect();
        assert_eq!(to_json(&points), text);
    }
}
