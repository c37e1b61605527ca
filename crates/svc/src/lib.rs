//! `mnemosyned`: a persistent key-value service over the Mnemosyne
//! stack.
//!
//! This crate is the serving tier of the reproduction — the layer the
//! paper's "applications" section gestures at but never builds. It
//! answers the question *what does Mnemosyne buy a real server?* by
//! fronting the persistent hash table ([`mnemosyne_pds::PHashTable`])
//! with a network service whose durability story is exactly the stack's:
//! an acknowledged write has a committed redo record on SCM, full stop.
//!
//! Three pieces:
//!
//! - [`proto`] — a length-prefixed binary framing
//!   (`[len u32][opcode u8][body]`) with GET/PUT/DEL/SCAN/PING/SHUTDOWN
//!   data requests and STATS/CHECKPOINT/HEALTH/GROW admin requests (see
//!   PROTOCOL.md for the byte layout). Decoding is total: truncated,
//!   oversized, or garbage bytes yield typed [`proto::FrameError`]s,
//!   never panics.
//! - [`service`] — the group-commit combiner. Requests join one FIFO
//!   queue; a thread waiting for its answer takes the service's one
//!   combiner and runs up to a batch of queued requests — its own and
//!   others' — in ONE durable transaction, so N writes share one
//!   redo-append fence and one truncating fence, and one connection's
//!   pipelined requests run in the order they were sent. Admin requests
//!   bypass the queue on a bounded side path, so observability stays
//!   responsive under load or drain.
//! - [`server`]/[`client`] — a TCP front end with one thread per
//!   connection and pipelining (many requests in flight, responses in
//!   request order), and the matching blocking client.
//!
//! Telemetry: `svc.requests`, `svc.conns`, `svc.recoveries`,
//! `svc.batch_size`, `svc.request_ns`, the degradation counters
//! `svc.overload.shed`, `svc.overload.conns_rejected` and `svc.drains`,
//! and the admin side path's `svc.admin.requests`, `svc.admin.rejected`
//! and `svc.admin.request_ns` (see METRICS.md).
//!
//! Binaries: `mnemosyned` (the daemon) and `kvctl` (a one-shot CLI
//! client). Acknowledged writes survive a graceful restart (SHUTDOWN,
//! then the same `--dir`) and an injected-crash reboot from the media
//! image, which is what the crash sweeps exercise. They do not survive
//! `kill -9`: the simulated SCM is process memory, and only a graceful
//! shutdown writes it to `scm.img`.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod service;

pub use client::{Client, ClientError};
pub use proto::{CkptSummary, FrameError, GrowInfo, HealthInfo, ProtoError, Request, Response};
pub use server::KvServer;
pub use service::{KvService, SvcConfig, Ticket};
