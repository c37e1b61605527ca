//! The closed-loop load generator: one thread per connection, each
//! keeping a fixed number of requests in flight, timing and verifying
//! every reply.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mnemosyne_svc::proto::{read_response, write_request};
use mnemosyne_svc::{Request, Response};

use crate::gen::{get_request, put_request, writer_of, Op, OpKind, OpStream, Workload, KEYS};
use crate::verify::{Checker, Flag};

/// A reply that takes longer than this fails every request in flight on
/// its connection; the run carries on over a fresh connection.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Requests in flight while preloading and sweeping.
const BULK_WINDOW: usize = 64;

/// The window is accounted in slices of this length. A traced run
/// records spans in the odd slices only, so the traced and untraced
/// throughput that `trace_overhead_pct` compares come from the same
/// daemon at the same age.
pub const SLICE: Duration = Duration::from_millis(500);

/// How many [`SLICE`]s the plan's window has.
pub fn slices(plan: &Plan) -> usize {
    plan.window.as_nanos().div_ceil(SLICE.as_nanos()) as usize
}

/// The timing of one measured run, relative to the start barrier.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// `Err`, `Overloaded`, `Draining` or a reply of the wrong type.
    Refused,
    /// The reply never came (timeout or broken connection).
    Lost,
    /// A GET answered with a value the checker rejects.
    Wrong(Flag),
}

/// One request as the client saw it. Times are nanoseconds since the
/// start barrier.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub conn: usize,
    pub seq: u64,
    pub op: OpKind,
    pub t_send: u64,
    pub t_recv: u64,
    pub outcome: Outcome,
}

/// What one connection measured inside the window.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Latency of every acknowledged request, in nanoseconds.
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    /// Requests that did not succeed, whenever they were resolved: a
    /// failure during warm-up or the final drain fails the run too.
    pub failed: u64,
    /// Acknowledged requests per [`SLICE`] of the window.
    pub acked_by_slice: Vec<u64>,
    pub spans: Vec<Span>,
    /// Verification failures seen at any time, warm-up included.
    pub flags: Vec<(u64, Flag)>,
}

struct Link {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Link {
    fn connect(addr: &str) -> std::io::Result<Link> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Link {
            r: BufReader::new(stream.try_clone()?),
            w: BufWriter::new(stream),
        })
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        write_request(&mut self.w, req)
    }

    /// Pushes buffered requests out unless replies are already waiting
    /// to be read: those free window slots whose refills can share the
    /// same write.
    fn flush_if_idle(&mut self) -> std::io::Result<()> {
        if self.r.buffer().is_empty() {
            self.w.flush()?;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, String> {
        match read_response(&mut self.r) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(e.to_string()),
        }
    }
}

struct InFlight {
    op: Op,
    /// PUT: the version sent. GET: the floor taken at send time.
    version: u64,
    seq: u64,
    sent: Instant,
}

/// Runs `requests` through a window of [`BULK_WINDOW`], handing each
/// reply to `on_reply` in order. Any failure aborts: bulk phases run
/// outside the measured window and must be clean.
fn bulk(
    addr: &str,
    requests: impl Iterator<Item = Request>,
    mut on_reply: impl FnMut(Response) -> Result<(), String>,
) -> Result<(), String> {
    let mut link = Link::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut requests = requests.peekable();
    let mut in_flight = 0usize;
    while in_flight > 0 || requests.peek().is_some() {
        while in_flight < BULK_WINDOW {
            let Some(req) = requests.next() else { break };
            link.send(&req).map_err(|e| e.to_string())?;
            in_flight += 1;
        }
        link.flush_if_idle().map_err(|e| e.to_string())?;
        on_reply(link.recv()?)?;
        in_flight -= 1;
    }
    Ok(())
}

/// Loads every key at version 0, over one connection: with 64 requests
/// in flight one worker takes whole batches, where two loading
/// connections make the workers abort each other — twice the time and
/// several times the spread.
///
/// Coldest key first. A PUT links its node at the head of the bucket's
/// chain, so this leaves the hottest zipfian keys (the lowest ids) at the
/// chain heads, which is where the workload's own PUTs move them. Loaded
/// hottest first they start at the tails, and `stm_read_zipf` needs
/// 450 000 operations to climb from 26 k to its steady 38 k ops/s.
pub fn preload(addr: &str) -> Result<(), String> {
    bulk(
        addr,
        (0..KEYS).rev().map(|k| put_request(k, 0)),
        |resp| match resp {
            Response::Ok => Ok(()),
            other => Err(format!("preload PUT answered {other:?}")),
        },
    )
}

/// Reads every key back after a restart; returns the keys whose value is
/// not what their writer (`checkers[writer]`) last wrote.
pub fn sweep(addr: &str, checkers: &[Checker]) -> Result<Vec<(u64, Flag)>, String> {
    let mut keys = 0..KEYS;
    let mut bad = Vec::new();
    bulk(addr, (0..KEYS).map(get_request), |resp| {
        let key_id = keys.next().expect("one reply per request");
        let found = match &resp {
            Response::Value(v) => Some(v.as_slice()),
            Response::NotFound => None,
            other => return Err(format!("sweep GET answered {other:?}")),
        };
        let writer = &checkers[writer_of(key_id) as usize];
        if let Err(flag) = writer.check_after_restart(key_id, found) {
            bad.push((key_id, flag));
        }
        Ok(())
    })?;
    Ok(bad)
}

/// Files each resolved request under the window and recording mode it
/// belongs to.
struct Recorder<'a> {
    out: ConnResult,
    plan: &'a Plan,
    conn: usize,
    t0: Instant,
    win_start: Instant,
    win_end: Instant,
}

impl Recorder<'_> {
    fn resolve(&mut self, f: &InFlight, outcome: Outcome, recv: Instant) {
        if let Outcome::Wrong(flag) = outcome {
            self.out.flags.push((f.op.key_id, flag));
        }
        if outcome != Outcome::Ok {
            self.out.failed += 1;
        }
        if recv < self.win_start || recv >= self.win_end {
            return;
        }
        // Odd slices of a traced window record spans, even ones do not.
        let slice = ((recv - self.win_start).as_nanos() / SLICE.as_nanos()) as usize;
        let traced = self.plan.trace && slice % 2 == 1;
        if outcome == Outcome::Ok {
            let ns = (recv - f.sent).as_nanos() as u64;
            match f.op.kind {
                OpKind::Get => self.out.get_ns.push(ns),
                OpKind::Put => self.out.put_ns.push(ns),
            }
            self.out.acked_by_slice[slice] += 1;
        }
        if traced {
            self.out.spans.push(Span {
                conn: self.conn,
                seq: f.seq,
                op: f.op.kind,
                t_send: (f.sent - self.t0).as_nanos() as u64,
                t_recv: (recv - self.t0).as_nanos() as u64,
                outcome,
            });
        }
    }
}

/// Drives one connection through warm-up and the measured window, then
/// drains what is still in flight so every PUT's fate is known.
pub fn drive(
    addr: &str,
    conn: usize,
    w: &Workload,
    seed: u64,
    plan: &Plan,
    start: &Barrier,
    checker: &mut Checker,
) -> Result<ConnResult, String> {
    let link = Link::connect(addr);
    let mut stream = OpStream::new(w, seed, conn);
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(w.window);
    let mut seq = 0u64;

    // Every party reaches the barrier, whatever happened before it.
    start.wait();
    let mut link = link.map_err(|e| format!("connect {addr}: {e}"))?;
    let t0 = Instant::now();
    let win_start = t0 + plan.warmup;
    let mut rec = Recorder {
        out: ConnResult {
            acked_by_slice: vec![0; slices(plan)],
            ..ConnResult::default()
        },
        plan,
        conn,
        t0,
        win_start,
        win_end: win_start + plan.window,
    };

    loop {
        let mut now = Instant::now();
        let mut link_ok = true;
        while link_ok && in_flight.len() < w.window && now < rec.win_end {
            let op = stream.next_op();
            let (req, version) = match op.kind {
                OpKind::Get => (get_request(op.key_id), checker.floor(op.key_id)),
                OpKind::Put => {
                    let v = checker.next_version(op.key_id);
                    (put_request(op.key_id, v), v)
                }
            };
            now = Instant::now();
            in_flight.push_back(InFlight {
                op,
                version,
                seq,
                sent: now,
            });
            seq += 1;
            link_ok = link.send(&req).is_ok();
        }
        if in_flight.is_empty() {
            return Ok(rec.out);
        }
        let reply = if link_ok && link.flush_if_idle().is_ok() {
            link.recv()
        } else {
            Err("write failed".into())
        };
        let recv = Instant::now();
        match reply {
            Ok(resp) => {
                let f = in_flight.pop_front().expect("a reply implies a request");
                let outcome = judge(&f, &resp, checker);
                rec.resolve(&f, outcome, recv);
            }
            Err(e) => {
                eprintln!(
                    "kvload: conn {conn}: {e}; failing {} in flight",
                    in_flight.len()
                );
                for f in in_flight.drain(..) {
                    rec.resolve(&f, Outcome::Lost, recv);
                }
                link = Link::connect(addr).map_err(|e| format!("reconnect {addr}: {e}"))?;
            }
        }
    }
}

fn judge(f: &InFlight, resp: &Response, checker: &mut Checker) -> Outcome {
    let verdict = match (f.op.kind, resp) {
        (OpKind::Put, Response::Ok) => {
            checker.put_acked(f.op.key_id, f.version);
            return Outcome::Ok;
        }
        (OpKind::Get, Response::Value(v)) => checker.check_get(f.op.key_id, f.version, Some(v)),
        (OpKind::Get, Response::NotFound) => checker.check_get(f.op.key_id, f.version, None),
        _ => return Outcome::Refused,
    };
    match verdict {
        Ok(()) => Outcome::Ok,
        Err(flag) => Outcome::Wrong(flag),
    }
}
