//! The request batcher: worker threads that coalesce queued requests
//! into one durable transaction per batch.
//!
//! Every submitted request becomes a [`Ticket`]; worker threads drain the
//! shared queue up to [`SvcConfig::max_batch`] entries at a time and
//! execute the whole batch inside ONE `atomic` block. A client's request
//! is acknowledged only after that transaction's commit returns — i.e.
//! after its redo record is fenced onto SCM — so an acknowledged write is
//! durable by construction, and N batched writes cost one redo-append
//! fence (and one truncating fence) instead of N of each.
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
use std::thread::JoinHandle;
use std::time::Instant;

use mnemosyne::{crash_payload, Error, Mnemosyne, MtmRuntime, TxThread};
use mnemosyne_obs::{Counter, Histogram, Telemetry, Unit};
use mnemosyne_pds::PHashTable;
use parking_lot::{Condvar, Mutex};

use crate::proto::{CkptSummary, GrowInfo, HealthInfo, Request, Response};

/// Tuning for a [`KvService`].
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Batcher worker threads; each holds one transaction-runtime slot,
    /// so the stack must be booted with `max_threads >= workers + 1`
    /// (the extra slot covers setup/diagnostic threads).
    pub workers: usize,
    /// Most requests folded into one durable transaction.
    pub max_batch: usize,
    /// Group-commit window: a worker that wakes to fewer than
    /// `max_batch` queued requests waits up to this long for more to
    /// arrive before committing, trading that much p50 latency for much
    /// larger (cheaper-per-request) batches. Zero commits immediately.
    pub batch_window: std::time::Duration,
    /// Hash-table buckets (created on first boot; a reopened table keeps
    /// its original bucket count).
    pub buckets: u64,
    /// `pstatic` name of the table root — one service per name.
    pub table: String,
    /// Admission control: most requests allowed to wait in the batcher
    /// queue. Submissions past the bound are answered
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
    /// bypass the batcher queue and run on their connection's reader
    /// thread, so observability stays responsive while the data plane is
    /// saturated or draining — this bound keeps a flood of them from
    /// monopolising connection threads instead. Excess admin requests are
    /// answered [`Response::Overloaded`]. Zero disables the bound.
    pub max_admin: usize,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            workers: 2,
            max_batch: 64,
            batch_window: std::time::Duration::from_micros(100),
            buckets: 256,
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

struct TicketCell {
    slot: Mutex<Option<Response>>,
    cv: Condvar,
}

impl TicketCell {
    fn new() -> TicketCell {
        TicketCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, resp: Response) {
        *self.slot.lock() = Some(resp);
        self.cv.notify_all();
    }
}

/// A pending response: returned by [`KvService::submit`], redeemed with
/// [`Ticket::wait`]. Submitting without waiting is how connections
/// pipeline — responses still come back in submission order per ticket.
pub struct Ticket(Arc<TicketCell>);

impl Ticket {
    /// A ticket that is already answered (protocol errors, admin ops).
    pub fn ready(resp: Response) -> Ticket {
        let cell = Arc::new(TicketCell::new());
        cell.complete(resp);
        Ticket(cell)
    }

    /// Blocks until the request's batch commits (or fails) and returns
    /// the response.
    pub fn wait(self) -> Response {
        let mut slot = self.0.slot.lock();
        loop {
            if let Some(resp) = slot.take() {
                return resp;
            }
            self.0.cv.wait(&mut slot);
        }
    }
}

struct PendingReq {
    req: Request,
    cell: Arc<TicketCell>,
}

struct QueueState {
    pending: VecDeque<PendingReq>,
    /// Requests a worker has pulled off the queue but not yet answered.
    /// [`KvService::drain`] waits for both this and `pending` to hit
    /// zero before acknowledging a shutdown.
    inflight: usize,
    /// Draining for shutdown: new submissions are answered
    /// [`Response::Draining`]; queued and in-flight work still commits.
    draining: bool,
    /// Graceful stop: workers drain what is queued, then exit.
    stop: bool,
    /// The machine died (injected crash or worker panic): fail
    /// everything immediately, nothing further commits.
    dead: bool,
}

struct Inner {
    mtm: Arc<MtmRuntime>,
    table: PHashTable,
    max_batch: usize,
    batch_window: std::time::Duration,
    max_queue: usize,
    max_conns: usize,
    max_admin: usize,
    queue: Mutex<QueueState>,
    cv: Condvar,
    metrics: SvcMetrics,
    workers: Mutex<Vec<JoinHandle<()>>>,
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
    fn mark_dead(&self, why: &str) {
        let drained: Vec<PendingReq> = {
            let mut q = self.queue.lock();
            q.dead = true;
            q.stop = true;
            q.pending.drain(..).collect()
        };
        self.cv.notify_all();
        for p in drained {
            p.cell.complete(Response::Err(why.to_string()));
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
}

/// A persistent key-value service: a [`PHashTable`] fronted by batching
/// workers. Cheap to clone (shared state); the TCP layer in
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
    /// Opens (or recovers) the table and starts the batcher workers.
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
        drop(th);
        if resumed {
            metrics.recoveries.inc();
        }
        let inner = Arc::new(Inner {
            mtm: Arc::clone(m.mtm()),
            table,
            max_batch: config.max_batch.max(1),
            batch_window: config.batch_window,
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
            cv: Condvar::new(),
            metrics,
            workers: Mutex::new(Vec::new()),
            admin_inflight: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            started: Instant::now(),
        });
        let svc = KvService { inner };
        for _ in 0..config.workers {
            svc.spawn_worker();
        }
        Ok(svc)
    }

    /// Adds one batcher worker. Normally called by [`KvService::start`];
    /// exposed so tests can queue requests first and then watch a single
    /// worker fold them into one commit.
    pub fn spawn_worker(&self) {
        let inner = Arc::clone(&self.inner);
        let join = std::thread::spawn(move || worker_loop(&inner));
        self.inner.workers.lock().push(join);
    }

    /// Enqueues a request for the next commit batch. Never blocks; the
    /// returned [`Ticket`] resolves once the batch commits. On a stopped
    /// or dead service the ticket resolves immediately with an error.
    ///
    /// Admin requests ([`Request::is_admin`]) never enter the batch queue:
    /// they execute synchronously on the calling thread (the admin side
    /// path) and come back as an already-resolved ticket.
    pub fn submit(&self, req: Request) -> Ticket {
        if req.is_admin() {
            return Ticket::ready(self.admin(&req));
        }
        let cell = Arc::new(TicketCell::new());
        let ticket = Ticket(Arc::clone(&cell));
        {
            let mut q = self.inner.queue.lock();
            if q.stop || q.dead {
                drop(q);
                cell.complete(Response::Err("service unavailable".to_string()));
                return ticket;
            }
            if q.draining {
                drop(q);
                cell.complete(Response::Draining);
                return ticket;
            }
            if self.inner.max_queue > 0 && q.pending.len() >= self.inner.max_queue {
                drop(q);
                self.inner.metrics.overload_shed.inc();
                cell.complete(Response::Overloaded);
                return ticket;
            }
            q.pending.push_back(PendingReq { req, cell });
        }
        self.inner.cv.notify_one();
        ticket
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
    /// [`Response::Draining`], then this blocks until every queued and
    /// in-flight request has been committed and answered. Returns `false`
    /// if the machine died instead (nothing more will commit). The
    /// workers stay up — call [`KvService::stop`] afterwards.
    ///
    /// This is what makes an acknowledged SHUTDOWN meaningful: by the
    /// time the ack frame leaves the server, every write the service
    /// accepted has either been durably committed or answered with an
    /// error — none are silently dropped on the floor.
    pub fn drain(&self) -> bool {
        let mut q = self.inner.queue.lock();
        q.draining = true;
        while !q.pending.is_empty() || q.inflight > 0 {
            if q.dead {
                return false;
            }
            // Workers share this condvar, so a submit's notify_one may
            // have landed here instead of on a worker: re-notify and use
            // a timed wait rather than risk a lost wakeup.
            self.inner.cv.notify_one();
            self.inner
                .cv
                .wait_for(&mut q, std::time::Duration::from_millis(1));
        }
        let dead = q.dead;
        drop(q);
        if !dead {
            self.inner.metrics.drains.inc();
        }
        !dead
    }

    /// Graceful stop: already-queued requests are still committed and
    /// acknowledged, then the workers exit and are joined. New submissions
    /// fail immediately. Idempotent.
    pub fn stop(&self) {
        {
            let mut q = self.inner.queue.lock();
            q.stop = true;
        }
        self.inner.cv.notify_all();
        let joins: Vec<JoinHandle<()>> = self.inner.workers.lock().drain(..).collect();
        for j in joins {
            let _ = j.join();
        }
    }

    /// Executes an admin request on the calling (connection reader)
    /// thread — the **admin side path**. Admin requests never queue
    /// behind the data plane, so STATS and HEALTH stay responsive while
    /// the batcher is saturated or draining; a dedicated inflight bound
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
                Request::Scan(prefix, limit) => {
                    Response::Entries(table.scan_prefix_in(tx, prefix, *limit as usize)?)
                }
                // Admin verbs are routed around the batcher by submit();
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

/// Blocks until a batch of queued requests is available and claims it
/// (bumping `inflight`), or returns `None` when the worker should exit
/// (stop with an empty queue, or machine death). A short queue is given
/// [`SvcConfig::batch_window`] to coalesce before the batch is cut.
fn next_batch(inner: &Arc<Inner>) -> Option<Vec<PendingReq>> {
    let mut q = inner.queue.lock();
    loop {
        loop {
            if q.dead {
                return None;
            }
            if !q.pending.is_empty() {
                break;
            }
            if q.stop {
                return None;
            }
            inner.cv.wait(&mut q);
        }
        // Group-commit window: waking to a short queue, give arrivals
        // a beat to coalesce — each extra request folded here rides
        // the same redo-append fence. Skipped while draining a stop,
        // and cut short the moment the batch fills.
        if !q.stop && q.pending.len() < inner.max_batch && !inner.batch_window.is_zero() {
            let deadline = Instant::now() + inner.batch_window;
            while !q.stop && !q.dead && q.pending.len() < inner.max_batch {
                let Some(left) = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                if inner.cv.wait_for(&mut q, left).timed_out() {
                    break;
                }
            }
            if q.dead {
                return None;
            }
            // Another worker may have raced away with the queue during
            // the wait; go back to sleeping if so.
            if q.pending.is_empty() {
                continue;
            }
        }
        let n = q.pending.len().min(inner.max_batch);
        q.inflight += n;
        return Some(q.pending.drain(..n).collect());
    }
}

/// Returns a claimed batch's `inflight` slots and wakes a drain that may
/// be waiting for the count to hit zero.
fn finish_batch(inner: &Arc<Inner>, n: usize) {
    {
        let mut q = inner.queue.lock();
        q.inflight -= n;
    }
    inner.cv.notify_all();
}

fn worker_loop(inner: &Arc<Inner>) {
    let mut th = match inner.mtm.register_thread() {
        Ok(th) => th,
        Err(e) => {
            inner.mark_dead(&format!("no transaction slot for worker: {e}"));
            return;
        }
    };
    while let Some(batch) = next_batch(inner) {
        // More work may remain for an idle sibling.
        inner.cv.notify_one();

        let timer = th.pmem().stopwatch();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            exec_batch(&inner.table, &mut th, &batch)
        }));
        let mut died = false;
        match outcome {
            Ok(Ok(replies)) => {
                let ns = th.pmem().elapsed_ns(&timer);
                inner.metrics.batch_size.record(batch.len() as u64);
                inner.metrics.requests.add(batch.len() as u64);
                for (p, resp) in batch.iter().zip(replies) {
                    inner.metrics.request_ns.record(ns);
                    p.cell.complete(resp);
                }
            }
            Ok(Err(e)) => {
                // The transaction failed cleanly: nothing was applied and
                // nothing is acknowledged; the service keeps serving.
                let why = format!("transaction failed: {e}");
                for p in &batch {
                    p.cell.complete(Response::Err(why.clone()));
                }
            }
            Err(payload) => {
                // The batch did NOT commit, so failing it keeps the ack
                // invariant.
                let why = inner.died(&*payload, "worker executing a batch");
                for p in &batch {
                    p.cell.complete(Response::Err(why.clone()));
                }
                died = true;
            }
        }
        finish_batch(inner, batch.len());
        if died {
            return;
        }
        // On oversubscribed cores the worker that just finished is the
        // one still scheduled; hand the core to a sibling before
        // re-claiming so it does not monopolise the queue.
        std::thread::yield_now();
    }
}
