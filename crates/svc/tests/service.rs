//! End-to-end tests of the mnemosyned service: TCP round trips,
//! pipelining and its order guarantee, group-commit batching, graceful restart durability, and
//! the METRICS.md contract for the `svc.*` names.

use std::path::{Path, PathBuf};

use mnemosyne::Mnemosyne;
use mnemosyne_svc::proto::{Request, Response};
use mnemosyne_svc::{Client, KvServer, KvService, SvcConfig};

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mnemo-svc-{tag}-{}-{:?}",
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
fn tcp_round_trip_all_ops() {
    let d = dir("ops");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    c.ping().unwrap();
    assert_eq!(c.get(b"missing").unwrap(), None);
    c.put(b"alpha", b"1").unwrap();
    c.put(b"beta", b"2").unwrap();
    c.put(b"alpha", b"one").unwrap();
    assert_eq!(c.get(b"alpha").unwrap(), Some(b"one".to_vec()));
    assert!(c.del(b"beta").unwrap());
    assert!(!c.del(b"beta").unwrap());
    assert_eq!(c.get(b"beta").unwrap(), None);
    for i in 0..10u8 {
        c.put(&[b'p', i], &[i]).unwrap();
    }
    let entries = c.scan(b"p", 0).unwrap();
    assert_eq!(entries.len(), 10);
    assert_eq!(c.scan(b"p", 4).unwrap().len(), 4);
    assert_eq!(c.scan(b"zz", 0).unwrap().len(), 0);

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn pipelined_requests_answered_in_order() {
    let d = dir("pipe");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Fire a window of puts without reading a single response …
    const N: u32 = 64;
    for i in 0..N {
        c.send(&Request::Put(
            format!("k{i}").into_bytes(),
            format!("v{i}").into_bytes(),
        ))
        .unwrap();
    }
    assert_eq!(c.in_flight(), N as usize);
    // … then drain: every response arrives, in request order.
    for i in 0..N {
        assert_eq!(c.recv().unwrap(), Response::Ok, "put {i}");
    }
    assert_eq!(c.in_flight(), 0);
    // Interleave reads and writes in one window; order still holds.
    for i in 0..N {
        c.send(&Request::Get(format!("k{i}").into_bytes())).unwrap();
    }
    for i in 0..N {
        assert_eq!(
            c.recv().unwrap(),
            Response::Value(format!("v{i}").into_bytes()),
            "get {i}"
        );
    }
    // One key overwritten by a pipelined window: the requests run in the
    // order they were sent, so the GET behind them reads the last PUT.
    for i in 0..N as u8 {
        c.send(&Request::Put(b"same".to_vec(), vec![i])).unwrap();
    }
    c.send(&Request::Get(b"same".to_vec())).unwrap();
    for i in 0..N {
        assert_eq!(c.recv().unwrap(), Response::Ok, "put {i} of one key");
    }
    assert_eq!(c.recv().unwrap(), Response::Value(vec![N as u8 - 1]));

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn queued_writes_coalesce_into_one_commit() {
    let d = dir("batch");
    let m = boot(&d);
    let svc = KvService::start(
        &m,
        SvcConfig {
            max_batch: 64,
            ..SvcConfig::default()
        },
    )
    .unwrap();
    let before = m.mtm().stats().commits;
    // Nobody waits yet: requests pile up in the queue.
    let tickets: Vec<_> = (0..10u8)
        .map(|i| svc.submit(Request::Put(vec![b'b', i], vec![i])))
        .collect();
    // Waiting on the first ticket combines the whole queue as a single
    // batch — ten acknowledged writes, ONE durable transaction.
    for t in tickets {
        assert_eq!(t.wait(), Response::Ok);
    }
    assert_eq!(
        m.mtm().stats().commits - before,
        1,
        "10 queued writes should commit as one batch"
    );
    let telemetry = m.telemetry().snapshot();
    let batches = telemetry.histogram("svc.batch_size").unwrap();
    assert_eq!(batches.count, 1);
    assert_eq!(telemetry.counter("svc.requests"), 10);

    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn graceful_restart_preserves_data_and_counts_recovery() {
    let d = dir("restart");
    {
        let m = boot(&d);
        let svc = KvService::start(&m, SvcConfig::default()).unwrap();
        assert_eq!(m.telemetry().snapshot().counter("svc.recoveries"), 0);
        let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for i in 0..20u8 {
            c.put(&[b'r', i], &[i, i]).unwrap();
        }
        // The daemon's power-down sequence.
        c.shutdown().unwrap();
        server.wait_shutdown_requested();
        server.stop();
        svc.stop();
        m.shutdown().unwrap();
    }
    {
        // Same directory: the service resumes the previous incarnation.
        let m = boot(&d);
        let svc = KvService::start(&m, SvcConfig::default()).unwrap();
        assert_eq!(m.telemetry().snapshot().counter("svc.recoveries"), 1);
        let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for i in 0..20u8 {
            assert_eq!(c.get(&[b'r', i]).unwrap(), Some(vec![i, i]), "key {i}");
        }
        server.stop();
        svc.stop();
    }
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn stopped_service_fails_new_requests() {
    let d = dir("stopped");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    svc.stop();
    assert!(svc.is_stopped());
    match svc.call(Request::Put(b"late".to_vec(), b"x".to_vec())) {
        Response::Err(_) => {}
        other => panic!("expected an error after stop, got {other:?}"),
    }
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn concurrent_clients_all_acknowledged() {
    let d = dir("many");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let joins: Vec<_> = (0..4u8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..25u8 {
                    c.put(&[t, i], &[t ^ i]).unwrap();
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    for t in 0..4u8 {
        for i in 0..25u8 {
            assert_eq!(c.get(&[t, i]).unwrap(), Some(vec![t ^ i]));
        }
    }
    let snap = m.telemetry().snapshot();
    assert!(snap.counter("svc.requests") >= 200);
    assert!(snap.counter("svc.conns") >= 5);
    assert!(snap.histogram("svc.request_ns").is_some());

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// SHUTDOWN is always acked: the daemon's main loop stops the server
/// (closing every socket) the moment shutdown is requested, so the
/// request must not be raised until the connection has flushed the ack.
#[test]
fn shutdown_ack_always_arrives_before_the_server_stops() {
    let d = dir("ack");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    for cycle in 0..50 {
        let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let daemon = std::thread::spawn(move || {
            server.wait_shutdown_requested();
            server.stop();
        });
        c.shutdown()
            .unwrap_or_else(|e| panic!("cycle {cycle}: SHUTDOWN not acked: {e}"));
        daemon.join().unwrap();
    }
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// Every `svc.*` metric the service registers must be documented in
/// METRICS.md — the svc-side companion of the stack-wide completeness
/// test (which cannot see service metrics because it only boots the
/// stack).
#[test]
fn metrics_md_documents_every_svc_metric() {
    let d = dir("metrics");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS.md"))
        .expect("METRICS.md at repo root");
    let names: Vec<_> = m
        .telemetry()
        .metric_names()
        .into_iter()
        .filter(|n| n.starts_with("svc."))
        .collect();
    assert!(
        names.len() >= 5,
        "expected the five svc metrics, got {names:?}"
    );
    for name in names {
        assert!(
            md.contains(&format!("`{name}`")),
            "metric `{name}` is registered but not documented in METRICS.md"
        );
    }
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}
