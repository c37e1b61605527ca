//! Crash sweep over the serving path: a live TCP service is killed at
//! systematically chosen durability primitives — during accepts, batch
//! commits, and shutdown — and after every reboot the invariant is the
//! service's durability contract: **no acknowledged write may be
//! missing**. (Unacknowledged writes may or may not have made it; any
//! committed prefix is legal.)
//!
//! The injected crash fires inside the combiner (the one place the
//! service touches persistent memory on the data path, on whichever
//! connection thread holds it); the batch unwinds, the service marks
//! itself dead and answers every outstanding and later request with an
//! error, so clients — which do nothing but socket I/O — wind down
//! cleanly and only commits acknowledged *before* the crash are in the
//! acked log the checker replays.
//!
//! The serving sweep's two clients overwrite one shared key set, so the
//! oracle covers every interleaving of their acknowledged overwrites.
//! One combiner means one redo log; overwrites of one word from two logs
//! are swept in the workspace's `tests/resilience.rs`
//! (`idle_log_cannot_undo_another_logs_acknowledged_overwrite`,
//! `two_threads_bumping_shared_cells_survive_crash_sweep`).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mnemosyne::{crash_sweep, Mnemosyne, ScmConfig, SweepConfig, Truncation};
use mnemosyne_svc::{Client, KvServer, KvService, SvcConfig};

const CLIENTS: u8 = 2;
const PUTS_PER_CLIENT: u8 = 9;
/// Keys both clients overwrite.
const SHARED_KEYS: u8 = 3;
/// The workloads create their table, and a sweep strides its points
/// evenly over every primitive: the default 4 096 buckets would put most
/// points inside the table's creation instead of the serving traffic.
const SWEEP_BUCKETS: u64 = 16;

/// One client PUT to a shared key, stamped on a clock all clients share:
/// `start` before the request is sent, `acked` once the reply is in hand
/// (`None`: the machine died with the request in flight).
struct PutRec {
    key: u8,
    value: Vec<u8>,
    start: u64,
    acked: Option<u64>,
}

fn builder(p: &Path) -> mnemosyne::MnemosyneBuilder {
    Mnemosyne::builder(p)
        .scm_config(ScmConfig::for_testing(16 << 20))
        .truncation(Truncation::Sync)
}

/// Drives the full serving stack: both clients overwrite the shared keys
/// with values naming the client and its sequence number, and record
/// every PUT. Called once per crash point on a fresh machine, so it resets
/// the history on entry.
fn serve_workload(m: &Mnemosyne, history: &Mutex<Vec<PutRec>>) -> Result<(), mnemosyne::Error> {
    history.lock().unwrap().clear();
    let svc = KvService::start(
        m,
        SvcConfig {
            max_batch: 4,
            buckets: SWEEP_BUCKETS,
            ..SvcConfig::default()
        },
    )?;
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let clock = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let clock = &clock;
            s.spawn(move || {
                let Ok(mut c) = Client::connect(addr) else {
                    return;
                };
                for i in 0..PUTS_PER_CLIENT {
                    let key = i % SHARED_KEYS;
                    let value = vec![t, i];
                    let start = clock.fetch_add(1, Ordering::SeqCst);
                    // An Err response or broken socket means the machine
                    // died: the PUT stays in flight, nothing further is sent.
                    let acked = c
                        .put(&[b's', key], &value)
                        .is_ok()
                        .then(|| clock.fetch_add(1, Ordering::SeqCst));
                    history.lock().unwrap().push(PutRec {
                        key,
                        value,
                        start,
                        acked,
                    });
                    if acked.is_none() {
                        break;
                    }
                }
            });
        }
    });
    server.stop();
    svc.stop();
    Ok(())
}

/// Each shared key must hold a value some client wrote, and no PUT to that
/// key may have been sent after that value's own ack and then acknowledged
/// — so per client it is the last acked value or the one in flight, and
/// across clients never one that an acked later overwrite replaced.
fn check_shared(m: &Mnemosyne, history: &Mutex<Vec<PutRec>>) -> Result<(), String> {
    let svc = KvService::start(m, SvcConfig::default()).map_err(|e| e.to_string())?;
    let history = history.lock().unwrap();
    let result = (0..SHARED_KEYS).try_for_each(|key| {
        let mut puts = history.iter().filter(|p| p.key == key);
        match svc.call(mnemosyne_svc::Request::Get(vec![b's', key])) {
            mnemosyne_svc::Response::Value(v) => {
                let Some(held) = puts.clone().find(|p| p.value == v) else {
                    return Err(format!("key {key} holds {v:?}, which nobody wrote"));
                };
                let newer = held
                    .acked
                    .and_then(|acked_at| puts.find(|p| p.acked.is_some() && p.start > acked_at));
                match newer {
                    Some(p) => Err(format!(
                        "key {key} went back to {v:?}: {:?} was sent later and acked",
                        p.value
                    )),
                    None => Ok(()),
                }
            }
            mnemosyne_svc::Response::NotFound => match puts.find(|p| p.acked.is_some()) {
                Some(p) => Err(format!("key {key} lost: {:?} was acked", p.value)),
                None => Ok(()),
            },
            other => Err(format!("GET of key {key} answered {other:?}")),
        }
    });
    svc.stop();
    result
}

/// Every write a client saw acknowledged must read back intact after
/// recovery.
fn check_acked(m: &Mnemosyne, acked: &Mutex<HashMap<Vec<u8>, Vec<u8>>>) -> Result<(), String> {
    let svc = KvService::start(m, SvcConfig::default()).map_err(|e| e.to_string())?;
    let result = (|| {
        for (key, value) in acked.lock().unwrap().iter() {
            match svc.call(mnemosyne_svc::Request::Get(key.clone())) {
                mnemosyne_svc::Response::Value(v) if &v == value => {}
                mnemosyne_svc::Response::Value(v) => {
                    return Err(format!(
                        "acked key {key:?} recovered with wrong value {v:?} (want {value:?})"
                    ));
                }
                other => {
                    return Err(format!(
                        "acked key {key:?} lost after recovery (got {other:?})"
                    ));
                }
            }
        }
        Ok(())
    })();
    svc.stop();
    result
}

/// Interleaves acknowledged puts with online GROW calls. Called once per
/// crash point on a fresh machine.
fn grow_workload(
    m: &Mnemosyne,
    acked: &Mutex<HashMap<Vec<u8>, Vec<u8>>>,
) -> Result<(), mnemosyne::Error> {
    acked.lock().unwrap().clear();
    let svc = KvService::start(
        m,
        SvcConfig {
            max_batch: 4,
            buckets: SWEEP_BUCKETS,
            ..SvcConfig::default()
        },
    )?;
    'rounds: for round in 0..3u8 {
        for i in 0..3u8 {
            let key = vec![b'g', round, i];
            let value = vec![round ^ i, i];
            match svc.call(mnemosyne_svc::Request::Put(key.clone(), value.clone())) {
                mnemosyne_svc::Response::Ok => {
                    acked.lock().unwrap().insert(key, value);
                }
                // Machine died (injected crash): nothing further commits.
                _ => break 'rounds,
            }
        }
        match svc.call(mnemosyne_svc::Request::Grow(1 << 20)) {
            mnemosyne_svc::Response::Grown(_) => {}
            _ => break 'rounds,
        }
    }
    svc.stop();
    Ok(())
}

/// After a crash anywhere in the put/grow interleaving — including
/// mid-grow — the heap must recover to a whole number of extension areas
/// (the old or the new capacity, never a torn in-between) and every
/// acknowledged write must read back intact.
fn check_grow(m: &Mnemosyne, acked: &Mutex<HashMap<Vec<u8>, Vec<u8>>>) -> Result<(), String> {
    const BASE: u64 = 4 << 20; // builder default large area
    const EXT: u64 = 1 << 20; // per-grow extension size
    let cap = m.heap().large_capacity();
    if cap < BASE || !(cap - BASE).is_multiple_of(EXT) || (cap - BASE) / EXT > 3 {
        return Err(format!(
            "recovered large capacity {cap} is not old-or-new (base {BASE} + 0..=3 x {EXT})"
        ));
    }
    check_acked(m, acked)
}

#[test]
fn grow_crash_sweep_recovers_old_or_new_capacity() {
    let base = std::env::temp_dir().join(format!(
        "mnemo-grow-sweep-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&base).ok();
    let acked = Mutex::new(HashMap::new());
    // recovery_points > 0: each surviving point is additionally re-crashed
    // during its own recovery (double fault), which is where a torn grow
    // commit would surface as a corrupt heap header or region table.
    let cfg = SweepConfig {
        max_points: 12,
        recovery_points: 2,
        ..SweepConfig::default()
    };
    let report = crash_sweep(
        &base,
        &cfg,
        builder,
        |m| grow_workload(m, &acked),
        |m| check_grow(m, &acked),
    )
    .expect("sweep harness");
    assert!(
        report.passed(),
        "grow atomicity violated: {:?}",
        report.failures
    );
    assert!(report.points_tested >= 8, "report: {report}");
    assert!(
        report.workload_primitives < 1_000,
        "most points would land in table creation: {report}"
    );
    assert!(
        report.crashes_fired > 0,
        "no crash ever fired mid-workload: {report}"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn crash_sweep_never_loses_acknowledged_writes() {
    let base = std::env::temp_dir().join(format!(
        "mnemo-svc-sweep-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&base).ok();
    let history = Mutex::new(Vec::new());
    let cfg = SweepConfig {
        max_points: 14,
        recovery_points: 0,
        ..SweepConfig::default()
    };
    let report = crash_sweep(
        &base,
        &cfg,
        builder,
        |m| serve_workload(m, &history),
        |m| check_shared(m, &history),
    )
    .expect("sweep harness");
    assert!(
        report.passed(),
        "acked-write invariant violated: {:?}",
        report.failures
    );
    assert!(report.points_tested >= 10, "report: {report}");
    assert!(
        report.workload_primitives < 1_000,
        "most points would land in table creation: {report}"
    );
    assert!(
        report.crashes_fired > 0,
        "no crash ever fired mid-service: {report}"
    );
    std::fs::remove_dir_all(&base).ok();
}
