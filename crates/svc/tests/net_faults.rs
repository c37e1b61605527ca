//! Network-fault and overload tests: hostile bytes on the wire (torn
//! frames, half-sent frames, garbage opcodes, mid-batch disconnects)
//! must never take the
//! service down or lose an acknowledged write, and past its admission
//! bounds the service degrades with typed `Overloaded`/`Draining`
//! signals instead of unbounded queues or silent hangs.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use mnemosyne::{CrashPolicy, Mnemosyne, ScmConfig, Truncation};
use mnemosyne_svc::proto::{read_response, Request, Response};
use mnemosyne_svc::{Client, ClientError, KvServer, KvService, SvcConfig, Ticket};

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mnemo-netf-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn boot(d: &Path) -> Mnemosyne {
    Mnemosyne::builder(d).scm_size(32 << 20).open().unwrap()
}

fn shed_count(m: &Mnemosyne) -> u64 {
    m.telemetry().snapshot().counter("svc.overload.shed")
}

/// A frame whose length prefix promises more bytes than ever arrive.
/// The reader blocks on the body until the abort; the connection dies,
/// the service doesn't.
#[test]
fn torn_frame_only_kills_its_own_connection() {
    let d = dir("torn");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut attacker = TcpStream::connect(addr).unwrap();
    attacker.write_all(&100u32.to_le_bytes()).unwrap();
    attacker.write_all(&[0x03, 1, 2, 3]).unwrap(); // 4 of 100 promised bytes
    attacker.shutdown(Shutdown::Both).unwrap();

    let mut c = Client::connect(addr).unwrap();
    c.put(b"after-torn", b"v").unwrap();
    assert_eq!(c.get(b"after-torn").unwrap(), Some(b"v".to_vec()));

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// A whole frame followed by half of the next one: the connection answers
/// the whole frame before it blocks on the rest, and then the rest.
/// Blocking on the partial frame first would hold the reply back until
/// the read timeout fails the test.
#[test]
fn partial_frame_does_not_hold_back_earlier_replies() {
    let d = dir("partial");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();

    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let second = Request::Put(b"p2".to_vec(), b"2".to_vec()).encode();
    let (head, tail) = second.split_at(second.len() / 2);
    let mut bytes = Request::Put(b"p1".to_vec(), b"1".to_vec()).encode();
    bytes.extend_from_slice(head);
    s.write_all(&bytes).unwrap();
    assert_eq!(read_response(&mut s).unwrap(), Some(Response::Ok));
    s.write_all(tail).unwrap();
    assert_eq!(read_response(&mut s).unwrap(), Some(Response::Ok));

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// A complete frame with an opcode the protocol doesn't know: framing is
/// lost, so the server answers one typed `bad frame` error and closes —
/// and a fresh connection is unaffected.
#[test]
fn garbage_opcode_answered_with_bad_frame_then_close() {
    let d = dir("garbage");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&1u32.to_le_bytes()).unwrap();
    s.write_all(&[0xEE]).unwrap();
    s.flush().unwrap();
    match read_response(&mut s).unwrap() {
        Some(Response::Err(msg)) => assert!(msg.contains("bad frame"), "got: {msg}"),
        other => panic!("expected a bad-frame error, got {other:?}"),
    }
    // …then EOF: the poisoned connection is closed, not resynced.
    assert_eq!(read_response(&mut s).unwrap(), None);

    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// A client that fires a pipelined window of puts and vanishes without
/// reading a single response: the service still commits everything it
/// accepted, and the dead socket only ends its own connection.
#[test]
fn mid_batch_disconnect_still_commits_accepted_writes() {
    let d = dir("vanish");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    {
        let mut c = Client::connect(addr).unwrap();
        for i in 0..32u8 {
            c.send(&Request::Put(vec![b'm', i], vec![i])).unwrap();
        }
        c.flush().unwrap();
        // Dropped here: the TCP connection closes with 32 responses
        // still unread.
    }
    // The writes were submitted before the disconnect was noticed;
    // poll until the service has committed them all.
    let mut c = Client::connect(addr).unwrap();
    for _ in 0..200 {
        if c.get(&[b'm', 31]).unwrap().is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for i in 0..32u8 {
        assert_eq!(c.get(&[b'm', i]).unwrap(), Some(vec![i]), "put {i} lost");
    }

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// Redeems a parked ticket from a helper thread after 10 ms: the late
/// waiter that finally runs the queued request.
fn redeem_later(parked: Ticket) -> std::thread::JoinHandle<Response> {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        parked.wait()
    })
}

/// Queue-depth admission control: with a queue bound of 1 and one
/// accepted put parked in the queue (nobody waits on it yet), pipelined
/// puts are answered `Overloaded` *without being enqueued* — then a late
/// waiter commits exactly the one accepted request.
#[test]
fn queue_bound_sheds_with_typed_overloaded() {
    let d = dir("shed");
    let m = boot(&d);
    let svc = KvService::start(
        &m,
        SvcConfig {
            max_queue: 1,
            ..SvcConfig::default()
        },
    )
    .unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    let parked = svc.submit(Request::Put(vec![b'q', 0], vec![0]));
    for i in 1..3u8 {
        c.send(&Request::Put(vec![b'q', i], vec![i])).unwrap();
    }
    assert_eq!(c.recv().unwrap(), Response::Overloaded);
    assert_eq!(c.recv().unwrap(), Response::Overloaded);
    assert_eq!(shed_count(&m), 2);
    assert_eq!(redeem_later(parked).join().unwrap(), Response::Ok);
    assert_eq!(c.get(&[b'q', 0]).unwrap(), Some(vec![0]));
    assert_eq!(c.get(&[b'q', 1]).unwrap(), None, "shed put must not land");

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// The typed methods surface a shed as [`ClientError::Overloaded`], and
/// the client's bounded backoff retry rides out a transient overload.
#[test]
fn client_retry_rides_out_transient_overload() {
    let d = dir("retry");
    let m = boot(&d);
    let svc = KvService::start(
        &m,
        SvcConfig {
            max_queue: 1,
            ..SvcConfig::default()
        },
    )
    .unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Fill the queue: this ticket stays parked until somebody waits.
    let parked = svc.submit(Request::Put(b"parked".to_vec(), b"p".to_vec()));

    // No retries: the shed comes straight back as a typed error.
    let mut c = Client::connect(addr).unwrap();
    match c.put(b"r", b"1") {
        Err(ClientError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // With retries: the parked request is redeemed mid-backoff, the
    // queue empties and the put lands.
    c.set_retry(8, Duration::from_millis(2));
    let redeemer = redeem_later(parked);
    c.put(b"r", b"2").unwrap();
    assert_eq!(redeemer.join().unwrap(), Response::Ok);
    assert_eq!(c.get(b"r").unwrap(), Some(b"2".to_vec()));
    assert!(shed_count(&m) >= 2);

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// Connection-count admission control: past `max_conns`, a new
/// connection gets exactly one `Overloaded` frame and a close instead of
/// a silent hang in the accept backlog.
#[test]
fn conn_bound_refuses_excess_connections() {
    let d = dir("conns");
    let m = boot(&d);
    let svc = KvService::start(
        &m,
        SvcConfig {
            max_conns: 1,
            ..SvcConfig::default()
        },
    )
    .unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut c1 = Client::connect(addr).unwrap();
    c1.ping().unwrap(); // ensure the slot is registered before racing it
    let mut c2 = Client::connect(addr).unwrap();
    match c2.ping() {
        Err(ClientError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(
        m.telemetry()
            .snapshot()
            .counter("svc.overload.conns_rejected"),
        1
    );
    // The admitted connection is untouched by the refusal.
    c1.put(b"still", b"here").unwrap();

    // Once the slot frees up, new connections are admitted again.
    drop(c1);
    drop(c2);
    let mut c3 = Client::connect_with_retry(addr, 50, std::time::Duration::from_millis(2)).unwrap();
    let mut ok = false;
    for _ in 0..200 {
        match c3.ping() {
            Ok(()) => {
                ok = true;
                break;
            }
            Err(ClientError::Overloaded) => {
                std::thread::sleep(std::time::Duration::from_millis(2));
                c3 = Client::connect(addr).unwrap();
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(ok, "slot never freed after the admitted connection closed");

    server.stop();
    svc.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// Short connections must not pile up descriptors in the daemon: under a
/// common `ulimit -n` of 1024, `accept` would otherwise start failing
/// after about a thousand of them.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Command, Stdio};

    /// The real daemon, killed on drop so a failing test leaves no process.
    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let d = dir("fds");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mnemosyned"))
        .args(["--addr", "127.0.0.1:0", "--scm-mb", "32", "--dir"])
        .arg(&d)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let daemon = Daemon(child);
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    let fd_dir = format!("/proc/{}/fd", daemon.0.id());
    let fds = || std::fs::read_dir(&fd_dir).unwrap().count();

    let start = fds();
    for _ in 0..300 {
        let mut c = Client::connect(addr.as_str()).unwrap();
        c.ping().unwrap();
    }
    let end = fds();
    assert!(
        end <= start + 8,
        "300 closed connections left {} descriptors behind ({start} -> {end})",
        end - start
    );
    let mut c = Client::connect(addr.as_str()).unwrap();
    c.ping().unwrap();
    drop(c);
    drop(daemon);
    std::fs::remove_dir_all(&d).ok();
}

/// Graceful drain: SHUTDOWN is acknowledged only after every accepted
/// request settles, and requests arriving during the drain get the typed
/// `Draining` answer rather than being half-served.
#[test]
fn shutdown_drains_acks_then_refuses_new_work() {
    let d = dir("drain");
    let m = boot(&d);
    let svc = KvService::start(&m, SvcConfig::default()).unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    for i in 0..16u8 {
        a.put(&[b'd', i], &[i]).unwrap();
    }
    a.shutdown().unwrap(); // drain-then-ack: all 16 are settled here
    assert_eq!(m.telemetry().snapshot().counter("svc.drains"), 1);

    match b.put(b"late", b"x") {
        Err(ClientError::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }

    server.stop();
    svc.stop();
    // An acked SHUTDOWN means the writes are durable: power off without
    // ceremony and read them back.
    let (dir, image) = m.crash(CrashPolicy::DropAll);
    let m2 = Mnemosyne::builder(&dir)
        .scm_size(32 << 20)
        .from_image(image)
        .open()
        .unwrap();
    let svc2 = KvService::start(&m2, SvcConfig::default()).unwrap();
    let server2 = KvServer::bind(svc2.clone(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server2.local_addr()).unwrap();
    for i in 0..16u8 {
        assert_eq!(
            c.get(&[b'd', i]).unwrap(),
            Some(vec![i]),
            "acked put {i} lost"
        );
    }
    assert_eq!(c.get(b"late").unwrap(), None, "refused put must not land");
    server2.stop();
    svc2.stop();
    std::fs::remove_dir_all(&d).ok();
}

/// The durability contract under concurrent network abuse: a well-behaved
/// client records its acknowledged writes while hostile connections
/// inject torn frames, garbage, and mid-window disconnects; after a power
/// loss every acknowledged write must still be there.
#[test]
fn no_acked_write_lost_under_network_abuse() {
    let d = dir("abuse");
    let m = Mnemosyne::builder(&d)
        .scm_config(ScmConfig::virtual_clock(16 << 20))
        .truncation(Truncation::Sync)
        .open()
        .unwrap();
    let svc = KvService::start(
        &m,
        SvcConfig {
            max_batch: 4,
            ..SvcConfig::default()
        },
    )
    .unwrap();
    let server = KvServer::bind(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let abuser = std::thread::spawn(move || {
        for round in 0..12u8 {
            match round % 3 {
                0 => {
                    // Torn frame.
                    if let Ok(mut s) = TcpStream::connect(addr) {
                        let _ = s.write_all(&64u32.to_le_bytes());
                        let _ = s.write_all(&[0x03, round]);
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }
                1 => {
                    // Garbage opcode.
                    if let Ok(mut s) = TcpStream::connect(addr) {
                        let _ = s.write_all(&2u32.to_le_bytes());
                        let _ = s.write_all(&[0xEE, round]);
                    }
                }
                _ => {
                    // Pipelined window, then vanish without reading.
                    if let Ok(mut c) = Client::connect(addr) {
                        for i in 0..8u8 {
                            if c.send(&Request::Put(vec![b'x', round, i], vec![i]))
                                .is_err()
                            {
                                break;
                            }
                        }
                        let _ = c.flush();
                    }
                }
            }
        }
    });

    let mut acked = Vec::new();
    let mut c = Client::connect(addr).unwrap();
    for i in 0..48u8 {
        let key = vec![b'g', i];
        let value = vec![i, i ^ 0xFF];
        c.put(&key, &value).unwrap();
        acked.push((key, value));
    }
    abuser.join().unwrap();
    server.stop();
    svc.stop();

    let (dir, image) = m.crash(CrashPolicy::DropAll);
    let m2 = Mnemosyne::builder(&dir)
        .scm_config(ScmConfig::virtual_clock(16 << 20))
        .truncation(Truncation::Sync)
        .from_image(image)
        .open()
        .unwrap();
    let svc2 = KvService::start(&m2, SvcConfig::default()).unwrap();
    let server2 = KvServer::bind(svc2.clone(), "127.0.0.1:0").unwrap();
    let mut c2 = Client::connect(server2.local_addr()).unwrap();
    for (key, value) in &acked {
        assert_eq!(
            c2.get(key).unwrap().as_ref(),
            Some(value),
            "acknowledged write {key:?} lost to the crash"
        );
    }
    server2.stop();
    svc2.stop();
    std::fs::remove_dir_all(&d).ok();
}
