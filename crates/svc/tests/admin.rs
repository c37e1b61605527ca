//! Admin side-path tests: STATS/CHECKPOINT/HEALTH/GROW over the wire,
//! their behaviour during drain and under write load,
//! the admin inflight-bound accounting, and the acceptance contract that
//! every metric name a live STATS snapshot reports is documented in
//! METRICS.md.

use std::path::{Path, PathBuf};

use mnemosyne::Mnemosyne;
use mnemosyne_obs::TelemetrySnapshot;
use mnemosyne_svc::proto::{Request, Response};
use mnemosyne_svc::{Client, KvServer, KvService, SvcConfig};

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mnemo-admin-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn boot(d: &Path) -> Mnemosyne {
    Mnemosyne::builder(d).scm_size(64 << 20).open().unwrap()
}

fn metrics_md() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS.md"))
        .expect("METRICS.md at repo root")
}

/// The tentpole acceptance path: all four admin verbs over a live TCP
/// connection, with the STATS snapshot parseable as
/// `mnemosyne-telemetry-v1` and every metric name it carries documented
/// in METRICS.md.
#[test]
fn admin_verbs_round_trip_over_tcp() {
    let d = dir("verbs");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    for i in 0..20u8 {
        c.put(&[b'a', i], &[i]).unwrap();
    }

    // STATS: a live registry snapshot, full round trip through JSON.
    let raw = c.stats().unwrap();
    assert!(raw.contains("mnemosyne-telemetry-v1"), "schema tag missing");
    let snap = TelemetrySnapshot::from_json(&raw).unwrap();
    assert!(snap.counter("svc.requests") >= 20);
    assert!(snap.counter("svc.admin.requests") >= 1);
    let md = metrics_md();
    for name in snap.counters.keys().chain(snap.histograms.keys()) {
        assert!(
            md.contains(&format!("`{name}`")),
            "STATS reports `{name}` but METRICS.md does not document it"
        );
    }

    // HEALTH: sane live values.
    let h = c.health().unwrap();
    assert!(h.conns >= 1, "this very connection must be counted: {h:?}");
    assert!(!h.draining);

    // CHECKPOINT: on-demand pass; outstanding words never increase.
    let s = c.checkpoint().unwrap();
    assert!(
        s.outstanding_after <= s.outstanding_before,
        "checkpoint grew the outstanding log: {s:?}"
    );
    assert_eq!(m.telemetry().snapshot().counter("mtm.ckpt.runs"), 1);

    // GROW: capacity ratchets up by whole extension areas, online.
    let before = m.heap().large_capacity();
    let g1 = c.grow(1 << 20).unwrap();
    assert!(g1.grown_bytes >= 1 << 20);
    assert_eq!(g1.large_capacity_bytes, before + g1.grown_bytes);
    let g2 = c.grow(2 << 20).unwrap();
    assert_eq!(
        g2.large_capacity_bytes,
        g1.large_capacity_bytes + g2.grown_bytes
    );
    assert_eq!(m.heap().large_capacity(), g2.large_capacity_bytes);
    // The new capacity is usable immediately: a block bigger than the
    // whole original large area now succeeds.
    let snap = m.telemetry().snapshot();
    assert_eq!(snap.counter("pheap.grows"), 2);
    assert_eq!(
        snap.counter("pheap.grow_bytes"),
        g1.grown_bytes + g2.grown_bytes
    );

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// STATS and HEALTH must keep answering while the service drains — that
/// is exactly when an operator is watching — even though the data plane
/// refuses new work with `Draining`.
#[test]
fn stats_and_health_answer_during_drain() {
    let d = dir("drain");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    assert_eq!(
        svc.call(Request::Put(b"k".to_vec(), b"v".to_vec())),
        Response::Ok
    );
    assert!(svc.drain(), "drain on a live machine");

    // Data plane: refused with the typed drain signal.
    assert_eq!(
        svc.call(Request::Put(b"late".to_vec(), b"x".to_vec())),
        Response::Draining
    );
    // Admin side path: still fully served.
    match svc.call(Request::Stats) {
        Response::Stats(json) => {
            let snap = TelemetrySnapshot::from_json(&json).unwrap();
            assert!(snap.counter("svc.drains") >= 1);
        }
        other => panic!("STATS during drain failed: {other:?}"),
    }
    match svc.call(Request::Health) {
        Response::Health(h) => assert!(h.draining, "HEALTH must report the drain"),
        other => panic!("HEALTH during drain failed: {other:?}"),
    }

    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// On-demand CHECKPOINT while the combiner commits a write workload:
/// every call answers cleanly, every write is acknowledged and reads
/// back, and the pass leaves the combiner's redo log to the combiner.
#[test]
fn checkpoint_answers_under_write_load() {
    let d = dir("ckptload");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let writer = {
        let svc = svc.clone();
        std::thread::spawn(move || {
            for round in 0..10u8 {
                for i in 0..10u8 {
                    assert_eq!(
                        svc.call(Request::Put(vec![round, i], vec![i; 32])),
                        Response::Ok
                    );
                }
            }
        })
    };
    let mut calls = 0u64;
    while calls < 10 || !writer.is_finished() {
        match svc.call(Request::Checkpoint) {
            Response::CkptDone(_) => calls += 1,
            other => panic!("on-demand checkpoint {calls} failed: {other:?}"),
        }
    }
    writer.join().unwrap();
    for round in 0..10u8 {
        for i in 0..10u8 {
            assert_eq!(
                svc.call(Request::Get(vec![round, i])),
                Response::Value(vec![i; 32])
            );
        }
    }
    assert_eq!(m.mtm().outstanding_log_words(), 0);
    assert_eq!(m.telemetry().snapshot().counter("mtm.ckpt.runs"), calls);
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// The admin inflight bound accounts exactly: under concurrent hammering
/// every request is either executed or typed-rejected, and the two
/// counters add up to the number of calls made.
#[test]
fn admin_bound_accounting_is_exact() {
    let d = dir("bound");
    let m = boot(&d);
    let svc = KvService::start(
        &m,
        SvcConfig {
            max_admin: 1,
            ..SvcConfig::default()
        },
    )
    .unwrap();
    const THREADS: u64 = 8;
    const CALLS: u64 = 25;
    let joins: Vec<_> = (0..THREADS)
        .map(|_| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                for _ in 0..CALLS {
                    match svc.call(Request::Stats) {
                        Response::Stats(_) | Response::Overloaded => {}
                        other => panic!("unexpected admin response: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    let snap = m.telemetry().snapshot();
    assert_eq!(
        snap.counter("svc.admin.requests") + snap.counter("svc.admin.rejected"),
        THREADS * CALLS,
        "every admin call must be executed or typed-rejected"
    );
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// Mutating admin verbs respect the lifecycle: a stopped service refuses
/// CHECKPOINT and GROW but still serves the read-only verbs.
#[test]
fn stopped_service_refuses_mutating_admin_verbs() {
    let d = dir("stopped");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    svc.stop();
    assert!(matches!(svc.call(Request::Checkpoint), Response::Err(_)));
    assert!(matches!(svc.call(Request::Grow(1 << 20)), Response::Err(_)));
    assert!(matches!(svc.call(Request::Stats), Response::Stats(_)));
    assert!(matches!(svc.call(Request::Health), Response::Health(_)));
    std::fs::remove_dir_all(&d).ok();
}

/// A GROW whose byte count no address space holds is a typed error, not a
/// dead service: the region layer refuses it before any durable write,
/// and the data plane keeps serving.
#[test]
fn grow_beyond_the_address_space_is_refused_and_the_service_lives() {
    let d = dir("growmax");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    match svc.call(Request::Grow(u64::MAX)) {
        Response::Err(e) => assert!(e.contains("address space"), "{e}"),
        other => panic!("GROW u64::MAX answered {other:?}"),
    }
    assert_eq!(
        svc.call(Request::Put(b"k".to_vec(), b"v".to_vec())),
        Response::Ok
    );
    assert!(m.regions().find("pheap.ext0").is_none());
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}
