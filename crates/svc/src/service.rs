//! The request combiner: waiters that fold queued requests into one
//! durable transaction per batch.
//!
//! Every submitted request becomes a [`Ticket`] and joins one FIFO queue.
//! Nothing runs until somebody waits: [`Ticket::wait`] takes the
//! service's one combiner lock, claims up to [`SvcConfig::max_batch`]
//! queued requests in order — its own and whoever queued before it — and
//! executes them inside ONE `atomic` block.
//!
//! The lock guards the service's own transaction thread, which runs the
//! batch unless the waiter brings one of its own. A TCP connection checks
//! out a transaction thread (a runtime slot: its own redo log and STM
//! descriptor) for as long as it is open, when the runtime has one free,
//! and the batches its thread combines run on it, still under the one
//! lock. That keeps a batch's descriptor, log and write-combining buffer
//! on the thread that runs it instead of handing them between connection
//! threads on every batch, which cost about as much as the batch's own
//! work (DESIGN.md §7). Connections beyond the free slots, and
//! [`KvService::call`], use the service's thread. Either way one batch
//! runs at a time, in FIFO order, and no combiner aborts another. A request is acknowledged only after that transaction's commit
//! returns — i.e. after its redo record is fenced onto SCM — so an
//! acknowledged write is durable by construction, and N batched writes
//! cost one redo-append fence (and one truncating fence) instead of N of
//! each. One queue and one combiner also mean one connection's pipelined
//! requests execute in the order they were sent.
//!
//! Requests are claimed only under the combiner lock, and a claimed batch
//! is answered before the lock is released, so a waiter that gets the
//! lock with no answer yet finds its request still queued: no wakeups,
//! nothing to lose.
//!
//! If the machine dies mid-batch (fault injection, or a genuine bug), the
//! in-flight batch and everything still queued is answered with
//! [`Response::Err`] — never acknowledged — which is exactly the
//! guarantee the crash-sweep test checks: no acknowledged write may be
//! missing after recovery.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mnemosyne::{crash_payload, Error, Mnemosyne, MtmRuntime, TxThread};
use mnemosyne_obs::{Counter, Histogram, Telemetry, Unit};
use mnemosyne_pds::PHashTable;
use parking_lot::Mutex;

use crate::proto::{CkptSummary, GrowInfo, HealthInfo, Request, Response, MAX_FRAME};

/// Tuning for a [`KvService`].
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Most requests folded into one durable transaction.
    pub max_batch: usize,
    /// Hash-table buckets (created on first boot; a reopened table keeps
    /// its original bucket count). Must be at least 1, and the table's
    /// creation must fit one redo record: with the default 32 768-word
    /// log, 8 192 buckets fit and 16 384 fail `start` with
    /// `LogError::RecordTooLarge`. The default 4 096 keeps chains near 5
    /// nodes at 20 000 keys.
    pub buckets: u64,
    /// `pstatic` name of the table root — one service per name.
    pub table: String,
    /// Admission control: most requests allowed to wait in the queue.
    /// Submissions past the bound are answered
    /// [`Response::Overloaded`] without ever being enqueued, so the
    /// server degrades with a typed signal instead of unbounded memory
    /// growth and silent latency. Zero disables the bound.
    pub max_queue: usize,
    /// Admission control: most concurrent TCP connections. Connections
    /// past the bound get one [`Response::Overloaded`] frame and are
    /// closed. Zero disables the bound.
    pub max_conns: usize,
    /// Admission control for the **admin side path**: most admin requests
    /// (STATS/CHECKPOINT/HEALTH/GROW) executing at once. Admin requests
    /// bypass the queue and run on their connection's thread, so
    /// observability stays responsive while the data plane is saturated
    /// or draining — this bound keeps a flood of them from monopolising
    /// connection threads instead. Excess admin requests are answered
    /// [`Response::Overloaded`]. Zero disables the bound.
    pub max_admin: usize,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            max_batch: 64,
            buckets: 4096,
            table: "kv".to_string(),
            max_queue: 1024,
            max_conns: 256,
            max_admin: 4,
        }
    }
}

/// The service-layer metrics (see METRICS.md, `svc.*`).
#[derive(Clone)]
pub(crate) struct SvcMetrics {
    pub(crate) requests: Counter,
    pub(crate) conns: Counter,
    pub(crate) recoveries: Counter,
    pub(crate) batch_size: Histogram,
    pub(crate) request_ns: Histogram,
    pub(crate) overload_shed: Counter,
    pub(crate) overload_conns: Counter,
    pub(crate) drains: Counter,
    pub(crate) admin_requests: Counter,
    pub(crate) admin_rejected: Counter,
    pub(crate) admin_request_ns: Histogram,
}

impl SvcMetrics {
    fn register(t: &Telemetry) -> SvcMetrics {
        SvcMetrics {
            requests: t.counter("svc.requests", Unit::Count),
            conns: t.counter("svc.conns", Unit::Count),
            recoveries: t.counter("svc.recoveries", Unit::Count),
            batch_size: t.histogram("svc.batch_size", Unit::Count),
            request_ns: t.histogram("svc.request_ns", Unit::Nanoseconds),
            overload_shed: t.counter("svc.overload.shed", Unit::Count),
            overload_conns: t.counter("svc.overload.conns_rejected", Unit::Count),
            drains: t.counter("svc.drains", Unit::Count),
            admin_requests: t.counter("svc.admin.requests", Unit::Count),
            admin_rejected: t.counter("svc.admin.rejected", Unit::Count),
            admin_request_ns: t.histogram("svc.admin.request_ns", Unit::Nanoseconds),
        }
    }
}

/// Where a queued request's answer lands.
type Slot = Mutex<Option<Response>>;

/// A pending response: returned by [`KvService::submit`], redeemed with
/// [`Ticket::wait`]. Submitting without waiting is how connections
/// pipeline: submit a window, then redeem the tickets in order.
pub struct Ticket(TicketState);

enum TicketState {
    Ready(Response),
    Queued(Arc<Inner>, Arc<Slot>),
}

impl Ticket {
    /// A ticket that is already answered (protocol errors, admin ops).
    pub fn ready(resp: Response) -> Ticket {
        Ticket(TicketState::Ready(resp))
    }

    /// Returns the response, running the combiner on the calling thread
    /// until the request's batch has committed (or failed). Batches run on
    /// the service's own transaction thread.
    pub fn wait(self) -> Response {
        self.wait_on(None)
    }

    /// Like [`Ticket::wait`], but the batches this thread combines run on
    /// `own` when given: the transaction thread its connection checked
    /// out. The combiner lock is taken either way.
    pub(crate) fn wait_on(self, mut own: Option<&mut TxThread>) -> Response {
        let (inner, slot) = match self.0 {
            TicketState::Ready(resp) => return resp,
            TicketState::Queued(inner, slot) => (inner, slot),
        };
        loop {
            if let Some(resp) = slot.lock().take() {
                return resp;
            }
            let mut shared = inner.combiner.lock();
            if slot.lock().is_none() {
                inner.combine(own.as_deref_mut().unwrap_or(&mut shared));
            }
        }
    }
}

struct PendingReq {
    req: Request,
    slot: Arc<Slot>,
}

struct QueueState {
    pending: VecDeque<PendingReq>,
    /// Requests claimed by the running combiner batch, not yet answered
    /// (reported by HEALTH).
    inflight: usize,
    /// Draining for shutdown: new submissions are answered
    /// [`Response::Draining`]; queued work still commits.
    draining: bool,
    /// Graceful stop: new submissions fail; queued work still commits.
    stop: bool,
    /// The machine died (injected crash or panic): fail everything
    /// immediately, nothing further commits.
    dead: bool,
}

struct Inner {
    mtm: Arc<MtmRuntime>,
    table: PHashTable,
    /// The combiner lock: whoever holds it runs the one batch. It guards
    /// the service's own transaction thread, which runs the batch unless
    /// the holder's connection brought its own.
    combiner: Mutex<TxThread>,
    max_batch: usize,
    max_queue: usize,
    max_conns: usize,
    max_admin: usize,
    queue: Mutex<QueueState>,
    metrics: SvcMetrics,
    /// Admin requests currently executing on connection threads.
    admin_inflight: AtomicUsize,
    /// Live TCP connections (maintained by the server front end via
    /// [`KvService::conn_opened`]/[`KvService::conn_closed`]), reported by
    /// HEALTH.
    conns: AtomicUsize,
    /// Service start time, reported by HEALTH as uptime.
    started: Instant,
}

impl Inner {
    /// Marks the service dead and fails every queued request. Idempotent.
    /// The answers are written under the queue lock, so a request is
    /// always queued, claimed by the combiner, or answered.
    fn mark_dead(&self, why: &str) {
        let mut q = self.queue.lock();
        q.dead = true;
        q.stop = true;
        for p in q.pending.drain(..) {
            *p.slot.lock() = Some(Response::Err(why.to_string()));
        }
    }

    /// A service thread unwound while `what` was touching persistent
    /// memory: machine death. An injected crash (`CrashRequested`) is the
    /// expected path in fault tests; anything else is a bug, named in the
    /// reason. Either way nothing further may commit, so the service is
    /// marked dead; returns the reason for the caller's own reply.
    fn died(&self, payload: &(dyn std::any::Any + Send), what: &str) -> String {
        let why = match crash_payload(payload) {
            Some(req) => format!("machine crashed: {req}"),
            None => format!("{what} panicked"),
        };
        self.mark_dead(&why);
        why
    }

    /// Claims up to `max_batch` queued requests in FIFO order, runs them
    /// as one durable transaction on `th` (the combiner, which the caller
    /// holds) and answers them. Returns `false` if the queue was empty.
    fn combine(&self, th: &mut TxThread) -> bool {
        let batch: Vec<PendingReq> = {
            let mut q = self.queue.lock();
            let n = q.pending.len().min(self.max_batch);
            if n == 0 {
                return false;
            }
            q.inflight = n;
            q.pending.drain(..n).collect()
        };
        let timer = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| exec_batch(&self.table, th, &batch)));
        let replies = match outcome {
            Ok(Ok(replies)) => {
                let ns = timer.elapsed().as_nanos() as u64;
                self.metrics.batch_size.record(batch.len() as u64);
                self.metrics.requests.add(batch.len() as u64);
                self.metrics.request_ns.record_n(ns, batch.len() as u64);
                replies
            }
            // The transaction failed cleanly: nothing was applied and
            // nothing is acknowledged; the service keeps serving.
            Ok(Err(e)) => vec![Response::Err(format!("transaction failed: {e}")); batch.len()],
            // The batch did NOT commit, so failing it keeps the ack
            // invariant.
            Err(payload) => {
                let why = self.died(&*payload, "combiner executing a batch");
                vec![Response::Err(why); batch.len()]
            }
        };
        for (p, resp) in batch.iter().zip(replies) {
            *p.slot.lock() = Some(resp);
        }
        self.queue.lock().inflight = 0;
        true
    }

    /// Takes the combiner and runs batches until the queue is empty.
    fn run_until_empty(&self) {
        let mut th = self.combiner.lock();
        while self.combine(&mut th) {}
    }
}

/// A persistent key-value service: a [`PHashTable`] fronted by a
/// combining queue. Cheap to clone (shared state); the TCP layer in
/// [`crate::server`] is a veneer over [`KvService::submit`].
///
/// The service borrows the stack's internals (transaction runtime,
/// telemetry) rather than owning the [`Mnemosyne`] facade, so harnesses
/// like `crash_sweep` — which keep ownership of the machine to crash and
/// reboot it — can run a service over a stack they still control.
#[derive(Clone)]
pub struct KvService {
    inner: Arc<Inner>,
}

impl KvService {
    /// Opens (or recovers) the table and keeps the transaction thread that
    /// opened it as the combiner. Starts no threads.
    ///
    /// When the table root already exists — i.e. the service is resuming
    /// a previous incarnation's state after a restart or crash — the
    /// `svc.recoveries` counter is bumped.
    ///
    /// # Errors
    /// Table open/creation failures, or no free transaction slot.
    pub fn start(m: &Mnemosyne, config: SvcConfig) -> Result<KvService, Error> {
        let metrics = SvcMetrics::register(m.telemetry());
        let root = m.pstatic(&config.table, 8)?;
        let mut th = m.register_thread()?;
        let resumed = th.atomic(|tx| tx.read_u64(root))? != 0;
        let table = PHashTable::open(m, &mut th, &config.table, config.buckets)?;
        if resumed {
            metrics.recoveries.inc();
        }
        let inner = Arc::new(Inner {
            mtm: Arc::clone(m.mtm()),
            table,
            combiner: Mutex::new(th),
            max_batch: config.max_batch.max(1),
            max_queue: config.max_queue,
            max_conns: config.max_conns,
            max_admin: config.max_admin,
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                inflight: 0,
                draining: false,
                stop: false,
                dead: false,
            }),
            metrics,
            admin_inflight: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            started: Instant::now(),
        });
        Ok(KvService { inner })
    }

    /// Enqueues a request for the next commit batch. Never blocks; the
    /// request runs when its [`Ticket`] (or a later one) is waited on. On
    /// a stopped or dead service the ticket resolves immediately with an
    /// error.
    ///
    /// Admin requests ([`Request::is_admin`]) never enter the queue: they
    /// execute synchronously on the calling thread (the admin side path)
    /// and come back as an already-resolved ticket.
    pub fn submit(&self, req: Request) -> Ticket {
        if req.is_admin() {
            return Ticket::ready(self.admin(&req));
        }
        let mut q = self.inner.queue.lock();
        if q.stop || q.dead {
            return Ticket::ready(Response::Err("service unavailable".to_string()));
        }
        if q.draining {
            return Ticket::ready(Response::Draining);
        }
        if self.inner.max_queue > 0 && q.pending.len() >= self.inner.max_queue {
            self.inner.metrics.overload_shed.inc();
            return Ticket::ready(Response::Overloaded);
        }
        let slot = Arc::new(Mutex::new(None));
        q.pending.push_back(PendingReq {
            req,
            slot: Arc::clone(&slot),
        });
        Ticket(TicketState::Queued(Arc::clone(&self.inner), slot))
    }

    /// Submit-and-wait, for synchronous callers.
    pub fn call(&self, req: Request) -> Response {
        self.submit(req).wait()
    }

    /// Whether the service has stopped serving (graceful stop or machine
    /// death).
    pub fn is_stopped(&self) -> bool {
        let q = self.inner.queue.lock();
        q.stop || q.dead
    }

    /// Drains for shutdown: new submissions are refused with
    /// [`Response::Draining`], then this takes the combiner and commits
    /// every queued request. Returns `false` if the machine died instead
    /// (nothing more will commit). Call [`KvService::stop`] afterwards.
    ///
    /// This is what makes an acknowledged SHUTDOWN meaningful: by the
    /// time the ack frame leaves the server, every write the service
    /// accepted has either been durably committed or answered with an
    /// error — none are silently dropped on the floor.
    pub fn drain(&self) -> bool {
        self.inner.queue.lock().draining = true;
        self.inner.run_until_empty();
        let dead = self.inner.queue.lock().dead;
        if !dead {
            self.inner.metrics.drains.inc();
        }
        !dead
    }

    /// Graceful stop: already-queued requests are still committed and
    /// acknowledged; new submissions fail immediately. Idempotent.
    pub fn stop(&self) {
        self.inner.queue.lock().stop = true;
        self.inner.run_until_empty();
    }

    /// Executes an admin request on the calling (connection) thread — the
    /// **admin side path**. Admin requests never queue behind the data
    /// plane, so STATS and HEALTH stay responsive while the queue is
    /// saturated or draining; a dedicated inflight bound
    /// ([`SvcConfig::max_admin`]) keeps them from monopolising connection
    /// threads in return.
    fn admin(&self, req: &Request) -> Response {
        let inner = &self.inner;
        if inner.max_admin > 0
            && inner.admin_inflight.fetch_add(1, Ordering::SeqCst) >= inner.max_admin
        {
            inner.admin_inflight.fetch_sub(1, Ordering::SeqCst);
            inner.metrics.admin_rejected.inc();
            return Response::Overloaded;
        }
        // Counted at admission, so a STATS snapshot includes itself.
        inner.metrics.admin_requests.inc();
        let wall = Instant::now();
        let resp = self.admin_exec(req);
        inner
            .metrics
            .admin_request_ns
            .record(wall.elapsed().as_nanos() as u64);
        if inner.max_admin > 0 {
            inner.admin_inflight.fetch_sub(1, Ordering::SeqCst);
        }
        resp
    }

    fn admin_exec(&self, req: &Request) -> Response {
        let inner = &self.inner;
        match req {
            // Read-only verbs work in every lifecycle state, including a
            // drain — that is precisely when an operator needs them.
            Request::Stats => Response::Stats(inner.mtm.telemetry().snapshot().to_json()),
            Request::Health => {
                let (queue_depth, inflight, draining) = {
                    let q = inner.queue.lock();
                    (q.pending.len() as u64, q.inflight as u64, q.draining)
                };
                Response::Health(HealthInfo {
                    uptime_ms: inner.started.elapsed().as_millis() as u64,
                    conns: inner.conns.load(Ordering::SeqCst) as u64,
                    queue_depth,
                    inflight,
                    outstanding_log_words: inner.mtm.outstanding_log_words(),
                    draining,
                })
            }
            // Mutating verbs respect the lifecycle: nothing runs against a
            // stopped or dead machine.
            Request::Checkpoint | Request::Grow(_) if self.is_stopped() => {
                Response::Err("service unavailable".to_string())
            }
            Request::Checkpoint => {
                let wall = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| inner.mtm.checkpoint())) {
                    Ok(st) => Response::CkptDone(CkptSummary {
                        reclaimed_words: st.reclaimed_words,
                        outstanding_before: st.outstanding_before,
                        outstanding_after: st.outstanding_after,
                        duration_ns: wall.elapsed().as_nanos() as u64,
                    }),
                    Err(payload) => Response::Err(inner.died(&*payload, "checkpoint")),
                }
            }
            Request::Grow(bytes) => {
                match catch_unwind(AssertUnwindSafe(|| inner.mtm.grow_heap(*bytes))) {
                    Ok(Ok(st)) => Response::Grown(GrowInfo {
                        grown_bytes: st.grown_bytes,
                        large_capacity_bytes: st.large_capacity,
                    }),
                    Ok(Err(e)) => Response::Err(format!("grow failed: {e}")),
                    Err(payload) => Response::Err(inner.died(&*payload, "grow")),
                }
            }
            _ => Response::Err("not an admin request".to_string()),
        }
    }

    /// Admission check for a new TCP connection: registers it unless the
    /// `max_conns` bound is hit. A `true` must be paired with
    /// [`KvService::conn_closed`]. The count feeds HEALTH's `conns` field.
    pub(crate) fn conn_opened(&self) -> bool {
        let max = self.inner.max_conns;
        if max > 0 && self.inner.conns.load(Ordering::SeqCst) >= max {
            return false;
        }
        self.inner.conns.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// A transaction thread of the connection's own, if the runtime has a
    /// free slot: its batches run on it (see [`Ticket::wait_on`]), and
    /// dropping it when the connection ends returns the slot.
    pub(crate) fn conn_thread(&self) -> Option<TxThread> {
        self.inner.mtm.register_thread().ok()
    }

    /// Unregisters a connection admitted by [`KvService::conn_opened`].
    pub(crate) fn conn_closed(&self) {
        self.inner.conns.fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn metrics(&self) -> &SvcMetrics {
        &self.inner.metrics
    }
}

/// Executes one batch as a single durable transaction, producing one
/// response per request. The closure re-runs wholesale on conflict
/// retry, so responses are computed from the transaction that actually
/// committed.
fn exec_batch(
    table: &PHashTable,
    th: &mut TxThread,
    batch: &[PendingReq],
) -> Result<Vec<Response>, mnemosyne::TxError> {
    th.atomic(|tx| {
        let mut out = Vec::with_capacity(batch.len());
        for p in batch {
            let resp = match &p.req {
                Request::Ping => Response::Pong,
                // The TCP layer answers SHUTDOWN itself; a direct submit
                // is acknowledged as a no-op.
                Request::Shutdown => Response::Ok,
                Request::Get(k) => match table.get_in(tx, k)? {
                    Some(v) => Response::Value(v),
                    None => Response::NotFound,
                },
                Request::Put(k, v) => {
                    table.put_in(tx, k, v)?;
                    Response::Ok
                }
                Request::Del(k) => {
                    if table.remove_in(tx, k)? {
                        Response::Ok
                    } else {
                        Response::NotFound
                    }
                }
                // The ENTRIES opcode and count take 5 bytes of the frame.
                Request::Scan(prefix, limit) => Response::Entries(table.scan_prefix_in(
                    tx,
                    prefix,
                    *limit as usize,
                    MAX_FRAME - 5,
                )?),
                // Admin verbs are routed around the queue by submit();
                // reaching the data path would be a dispatch bug.
                Request::Stats | Request::Checkpoint | Request::Health | Request::Grow(_) => {
                    Response::Err("admin request on the data path".to_string())
                }
            };
            out.push(resp);
        }
        Ok(out)
    })
}
