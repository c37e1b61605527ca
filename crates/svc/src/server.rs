//! The TCP front end: accepts connections and pumps framed requests
//! into a [`KvService`].
//!
//! A served connection costs exactly one thread, which loops: block for
//! one request frame, take every further frame that is already whole in
//! the read buffer, submit them all, then redeem the tickets in order —
//! running the combiner itself when its answer is not in yet — writing
//! each reply, and flush once. That is the pipelining contract: a client
//! may have any number of requests in flight and responses always come
//! back in request order. The thread never blocks on a partial frame
//! while it holds unanswered tickets, so a half-sent request cannot hold
//! back the replies to the whole ones before it.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::proto::{frame_ready, read_request, write_response, ProtoError, Request, Response};
use crate::service::{KvService, Ticket};

struct ServerShared {
    svc: KvService,
    stop: AtomicBool,
    /// Set when a client sends SHUTDOWN (or by [`KvServer::request_shutdown`]);
    /// the daemon main loop waits on it to begin an orderly power-down.
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

impl ServerShared {
    fn request_shutdown(&self) {
        *self.shutdown.lock() = true;
        self.shutdown_cv.notify_all();
    }
}

/// A listening `mnemosyned` server. Dropping it does NOT stop the
/// threads — call [`KvServer::stop`].
pub struct KvServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl KvServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections on a background thread.
    ///
    /// # Errors
    /// Socket bind failures.
    pub fn bind(svc: KvService, addr: &str) -> std::io::Result<KvServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            svc,
            stop: AtomicBool::new(false),
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(KvServer {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until some client sends SHUTDOWN or
    /// [`KvServer::request_shutdown`] is called.
    pub fn wait_shutdown_requested(&self) {
        let mut flag = self.shared.shutdown.lock();
        while !*flag {
            self.shared.shutdown_cv.wait(&mut flag);
        }
    }

    /// Asks the daemon loop to power down, as if a client had sent
    /// SHUTDOWN.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Stops accepting, force-closes the remaining connections, and joins
    /// every server thread. The underlying [`KvService`] keeps running —
    /// stop it separately.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
        let conns: Vec<(TcpStream, JoinHandle<()>)> = self.shared.conns.lock().drain(..).collect();
        for (stream, join) in conns {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = join.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        if !shared.svc.conn_opened() {
            // Over the connection bound: refuse with one typed frame
            // instead of accepting work we can't serve (or silently
            // hanging the client in the kernel backlog).
            shared.svc.metrics().overload_conns.inc();
            let mut w = BufWriter::new(&stream);
            let _ = write_response(&mut w, &Response::Overloaded);
            let _ = w.flush();
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.svc.metrics().conns.inc();
        let handle = match stream.try_clone() {
            Ok(h) => h,
            Err(_) => {
                shared.svc.conn_closed();
                continue;
            }
        };
        let join = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || serve_conn(stream, &shared))
        };
        shared.conns.lock().push((handle, join));
    }
}

fn serve_conn(stream: TcpStream, shared: &Arc<ServerShared>) {
    let shutdown = serve_requests(&stream, &shared.svc);
    // The conns registry holds a clone of this socket for forced stop;
    // shut the socket itself down so the peer sees EOF the moment its
    // connection is done (poisoned frame, service shutdown), not when
    // the whole server stops.
    let _ = stream.shutdown(Shutdown::Both);
    shared.svc.conn_closed();
    // Only now: asking sooner lets the daemon's `KvServer::stop` close
    // this socket before the SHUTDOWN ack is flushed, and the ack
    // arrives as EOF.
    if shutdown {
        shared.request_shutdown();
    }
}

/// Serves requests until the connection ends; returns whether it ended
/// with SHUTDOWN (whose ack is then the last reply written).
fn serve_requests(stream: &TcpStream, svc: &KvService) -> bool {
    let mut reader = BufReader::new(stream);
    let mut w = BufWriter::new(stream);
    let mut tickets = Vec::new();
    loop {
        // Block for one frame, then take every frame already whole in
        // the buffer; `end` is set when the connection ends after them.
        let end = loop {
            let ticket = match read_request(&mut reader) {
                Ok(Some(Request::Shutdown)) => {
                    // Drain before acking: every request queued anywhere
                    // on the service commits (or fails) first, so the
                    // SHUTDOWN ack means "all accepted writes are settled
                    // and no new work will be admitted".
                    let ack = if svc.drain() {
                        Response::Ok
                    } else {
                        Response::Err("service unavailable".to_string())
                    };
                    tickets.push(Ticket::ready(ack));
                    break Some(true);
                }
                Ok(Some(req)) => svc.submit(req),
                // Clean EOF (the client hung up between frames) or a
                // broken transport.
                Ok(None) | Err(ProtoError::Io(_)) => break Some(false),
                Err(ProtoError::Frame(e)) => {
                    // A malformed frame poisons the stream (framing is
                    // lost); answer once, then drop the connection.
                    tickets.push(Ticket::ready(Response::Err(format!("bad frame: {e}"))));
                    break Some(false);
                }
            };
            tickets.push(ticket);
            if !frame_ready(reader.buffer()) {
                break None;
            }
        };
        // Redeem every ticket even once the peer is gone, so each
        // accepted request still runs; then flush the replies at once.
        let mut written = true;
        for ticket in tickets.drain(..) {
            let resp = ticket.wait();
            written = written && write_response(&mut w, &resp).is_ok();
        }
        let written = written && w.flush().is_ok();
        match end {
            Some(shutdown) => return shutdown,
            None if !written => return false,
            None => {}
        }
    }
}
