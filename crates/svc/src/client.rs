//! A small blocking client for the `mnemosyned` protocol.
//!
//! [`Client`] offers both a synchronous call-per-method surface
//! ([`Client::get`], [`Client::put`], …) and a split pipelined surface
//! ([`Client::send`] / [`Client::recv`]) where any number of requests
//! can be in flight; responses arrive in request order.
//!
//! The typed surface returns [`ClientError`], which distinguishes the
//! server's degradation signals ([`ClientError::Overloaded`],
//! [`ClientError::Draining`]) from hard failures. Overload is always
//! safe to retry — the server sheds *before* enqueueing — and
//! [`Client::set_retry`] makes the typed calls do so themselves with
//! bounded exponential backoff.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{
    read_response, write_request, CkptSummary, FrameError, GrowInfo, HealthInfo, ProtoError,
    Request, Response,
};

/// Why a typed client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, hangup).
    Io(std::io::Error),
    /// The byte stream violated the framing protocol.
    Frame(FrameError),
    /// The server shed the request under admission control. It was
    /// never enqueued, so retrying (after backoff) is always safe.
    Overloaded,
    /// The server is draining for shutdown and admits no new work.
    Draining,
    /// The server answered with an error message.
    Server(String),
    /// The server answered with a response that does not match the
    /// request — a protocol bug on one side or the other.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "protocol error: {e}"),
            ClientError::Overloaded => write!(f, "server overloaded (request shed, retry later)"),
            ClientError::Draining => write!(f, "server draining for shutdown"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Unexpected(resp) => write!(f, "unexpected response: {resp}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            ProtoError::Frame(e) => ClientError::Frame(e),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Exponential backoff for attempt `attempt` (0-based), capped at 250ms
/// so a bounded retry budget stays bounded in wall time too.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16))
        .min(Duration::from_millis(250))
}

/// A blocking connection to a `mnemosyned` server.
pub struct Client {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    /// Requests sent but not yet answered.
    in_flight: usize,
    /// Extra attempts for a typed call answered `Overloaded` (0 = off).
    retries: u32,
    /// Base backoff delay, doubled per retry.
    backoff: Duration,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    /// Socket connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let r = BufReader::new(stream.try_clone()?);
        Ok(Client {
            r,
            w: BufWriter::new(stream),
            in_flight: 0,
            retries: 0,
            backoff: Duration::from_millis(1),
        })
    }

    /// Connects with bounded exponential backoff: up to `attempts` tries
    /// total, sleeping `base`, `2*base`, `4*base`, … (capped at 250ms)
    /// between them. Covers the restart window of a supervised daemon.
    ///
    /// # Errors
    /// The last connect failure, once the budget is spent.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        attempts: u32,
        base: Duration,
    ) -> std::io::Result<Client> {
        let mut attempt = 0u32;
        loop {
            match Client::connect(&addr) {
                Ok(c) => return Ok(c),
                Err(e) if attempt + 1 < attempts.max(1) => {
                    std::thread::sleep(backoff_delay(base, attempt));
                    attempt += 1;
                    drop(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Makes the typed calls retry an [`Response::Overloaded`] answer up
    /// to `retries` extra times, backing off exponentially from `base`.
    /// Safe by construction: the server sheds before enqueueing, so a
    /// retried request can never double-apply.
    pub fn set_retry(&mut self, retries: u32, base: Duration) {
        self.retries = retries;
        self.backoff = base;
    }

    /// Queues a request without waiting for its response (buffered; use
    /// [`Client::flush`] or [`Client::recv`] to push it out).
    ///
    /// # Errors
    /// Socket write failures.
    pub fn send(&mut self, req: &Request) -> Result<(), ProtoError> {
        write_request(&mut self.w, req)?;
        self.in_flight += 1;
        Ok(())
    }

    /// Flushes buffered requests to the socket.
    ///
    /// # Errors
    /// Socket write failures.
    pub fn flush(&mut self) -> Result<(), ProtoError> {
        self.w.flush()?;
        Ok(())
    }

    /// Receives the next in-order response, flushing first so the
    /// matching request is actually on the wire.
    ///
    /// # Errors
    /// Socket failures, or the server hanging up mid-response.
    pub fn recv(&mut self) -> Result<Response, ProtoError> {
        self.w.flush()?;
        match read_response(&mut self.r)? {
            Some(resp) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                Ok(resp)
            }
            None => Err(ProtoError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Requests sent but not yet answered on this connection.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            self.send(req)?;
            let resp = self.recv()?;
            if matches!(resp, Response::Overloaded) && attempt < self.retries {
                std::thread::sleep(backoff_delay(self.backoff, attempt));
                attempt += 1;
                continue;
            }
            return Ok(resp);
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(fail(other)),
        }
    }

    /// Looks up `key`.
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&Request::Get(key.to_vec()))? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            other => Err(fail(other)),
        }
    }

    /// Durably stores `key = value`; when this returns `Ok` the write is
    /// committed on the server.
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        match self.call(&Request::Put(key.to_vec(), value.to_vec()))? {
            Response::Ok => Ok(()),
            other => Err(fail(other)),
        }
    }

    /// Durably removes `key`; `Ok(true)` when it existed.
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    pub fn del(&mut self, key: &[u8]) -> Result<bool, ClientError> {
        match self.call(&Request::Del(key.to_vec()))? {
            Response::Ok => Ok(true),
            Response::NotFound => Ok(false),
            other => Err(fail(other)),
        }
    }

    /// Lists up to `limit` entries whose key starts with `prefix`
    /// (0 = unlimited).
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    #[allow(clippy::type_complexity)]
    pub fn scan(
        &mut self,
        prefix: &[u8],
        limit: u32,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, ClientError> {
        match self.call(&Request::Scan(prefix.to_vec(), limit))? {
            Response::Entries(entries) => Ok(entries),
            other => Err(fail(other)),
        }
    }

    /// Asks the daemon to drain (commit everything accepted), then power
    /// down gracefully. `Ok` means every previously acknowledged write
    /// is settled.
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(fail(other)),
        }
    }

    /// Fetches the server's full telemetry registry as an
    /// `mnemosyne-telemetry-v1` JSON snapshot (admin side path — works
    /// even while the server drains). Parse it with
    /// `mnemosyne_obs::TelemetrySnapshot::from_json`.
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(fail(other)),
        }
    }

    /// Forces a checkpoint pass on the server: an asynchronous redo
    /// backlog is drained (synchronous redo logs empty themselves at
    /// commit) and the outstanding redo backlog is reported.
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    pub fn checkpoint(&mut self) -> Result<CkptSummary, ClientError> {
        match self.call(&Request::Checkpoint)? {
            Response::CkptDone(s) => Ok(s),
            other => Err(fail(other)),
        }
    }

    /// Liveness and load report: uptime, connection count, queue depth,
    /// outstanding log words, drain state (admin side path — works even
    /// while the server drains).
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply.
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        match self.call(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(fail(other)),
        }
    }

    /// Grows the server's heap online by (at least) `bytes` bytes of
    /// large-object capacity — no restart. Crash-atomic on the server: a
    /// failure mid-grow recovers to either the old or the new capacity.
    ///
    /// # Errors
    /// Socket/protocol failures, overload shedding, or a server-side
    /// error reply (e.g. address space exhausted).
    pub fn grow(&mut self, bytes: u64) -> Result<GrowInfo, ClientError> {
        match self.call(&Request::Grow(bytes))? {
            Response::Grown(g) => Ok(g),
            other => Err(fail(other)),
        }
    }
}

fn fail(resp: Response) -> ClientError {
    match resp {
        Response::Err(e) => ClientError::Server(e),
        Response::Overloaded => ClientError::Overloaded,
        Response::Draining => ClientError::Draining,
        other => ClientError::Unexpected(format!("{other:?}")),
    }
}
