//! The `mnemosyned` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [len: u32 LE] [opcode: u8] [body: len-1 bytes]
//! ```
//!
//! `len` counts the opcode plus body and is bounded by [`MAX_FRAME`], so
//! a hostile or corrupt peer cannot make the server allocate unbounded
//! memory. Variable-length fields inside a body are `u32 LE` lengths
//! followed by raw bytes. Multi-frame pipelining is the norm: a client
//! may write any number of request frames before reading responses, and
//! the server answers strictly in request order per connection.
//!
//! Decoding never panics on hostile input: every malformed shape maps to
//! a typed [`FrameError`] (property-tested in `tests/proto_props.rs`).

use std::io::{self, Read, Write};

/// Hard upper bound on a frame's declared payload length (opcode + body).
pub const MAX_FRAME: usize = 1 << 20;

/// Request opcodes (first payload byte).
mod op {
    pub const PING: u8 = 0x01;
    pub const GET: u8 = 0x02;
    pub const PUT: u8 = 0x03;
    pub const DEL: u8 = 0x04;
    pub const SCAN: u8 = 0x05;
    pub const SHUTDOWN: u8 = 0x06;
    pub const STATS: u8 = 0x07;
    pub const CHECKPOINT: u8 = 0x08;
    pub const HEALTH: u8 = 0x09;
    pub const GROW: u8 = 0x0A;

    pub const PONG: u8 = 0x81;
    pub const OK: u8 = 0x82;
    pub const NOT_FOUND: u8 = 0x83;
    pub const VALUE: u8 = 0x84;
    pub const ENTRIES: u8 = 0x85;
    pub const ERR: u8 = 0x86;
    pub const OVERLOADED: u8 = 0x87;
    pub const DRAINING: u8 = 0x88;
    pub const STATS_SNAPSHOT: u8 = 0x89;
    pub const CKPT_DONE: u8 = 0x8A;
    pub const HEALTH_INFO: u8 = 0x8B;
    pub const GROWN: u8 = 0x8C;
}

/// Everything that can be wrong with a frame's bytes. Typed so callers
/// (and property tests) can distinguish hostile input from I/O failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the declared frame or field does.
    Truncated {
        /// Bytes the declared shape requires.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// Declared payload length.
        len: usize,
    },
    /// The length prefix declares an empty payload (no opcode byte).
    Empty,
    /// The opcode byte is not one this protocol defines.
    UnknownOpcode(u8),
    /// The body is longer than its opcode's fields account for.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// An error message field is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {MAX_FRAME} cap"
                )
            }
            FrameError::Empty => write!(f, "empty frame payload"),
            FrameError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            FrameError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A framing failure at the socket level: either the connection broke or
/// the peer sent a malformed frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Io(io::Error),
    /// Malformed frame from the peer.
    Frame(FrameError),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "I/O error: {e}"),
            ProtoError::Frame(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<FrameError> for ProtoError {
    fn from(e: FrameError) -> Self {
        ProtoError::Frame(e)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Look up a key.
    Get(Vec<u8>),
    /// Insert or replace a key.
    Put(Vec<u8>, Vec<u8>),
    /// Remove a key.
    Del(Vec<u8>),
    /// List up to `limit` entries whose key starts with the prefix
    /// (`0` = no limit beyond the frame cap).
    Scan(Vec<u8>, u32),
    /// Ask the daemon to checkpoint and exit gracefully.
    Shutdown,
    /// Admin: export the live telemetry registry as a
    /// `mnemosyne-telemetry-v1` JSON snapshot ([`Response::Stats`]).
    /// Served on the admin side path, even while the server drains.
    Stats,
    /// Admin: run one checkpoint pass right now (sweep the allocator
    /// logs; the redo logs empty themselves at commit), answered with
    /// [`Response::CkptDone`].
    Checkpoint,
    /// Admin: liveness + load report ([`Response::Health`]). Served on
    /// the admin side path, even while the server drains.
    Health,
    /// Admin: grow the persistent heap online by at least this many
    /// bytes, without a restart ([`Response::Grown`]). Growth is atomic:
    /// a crash mid-grow recovers to either the old or the new capacity.
    Grow(u64),
}

/// Whether a request is an admin verb — routed around the request queue
/// onto the bounded admin side path, never behind data-plane traffic.
impl Request {
    /// True for [`Request::Stats`], [`Request::Checkpoint`],
    /// [`Request::Health`] and [`Request::Grow`].
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            Request::Stats | Request::Checkpoint | Request::Health | Request::Grow(_)
        )
    }
}

/// Result of an on-demand checkpoint ([`Response::CkptDone`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CkptSummary {
    /// Log words durably reclaimed (redo logs plus the allocator log).
    pub reclaimed_words: u64,
    /// Outstanding redo-log words when the pass started.
    pub outstanding_before: u64,
    /// Outstanding redo-log words when it finished.
    pub outstanding_after: u64,
    /// Wall-clock duration of the pass in nanoseconds.
    pub duration_ns: u64,
}

/// Liveness and load report ([`Response::Health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthInfo {
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
    /// Live TCP connections.
    pub conns: u64,
    /// Requests waiting in the request queue.
    pub queue_depth: u64,
    /// Requests claimed by the running combiner batch, not yet answered.
    pub inflight: u64,
    /// Redo-log words fenced but not yet truncated — what a crash right
    /// now would replay.
    pub outstanding_log_words: u64,
    /// Whether the service is draining for shutdown (data-plane requests
    /// are refused with [`Response::Draining`]; admin reads still work).
    pub draining: bool,
}

/// Result of an online heap growth ([`Response::Grown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GrowInfo {
    /// Bytes this call added (page-rounded; when a grow interrupted by a
    /// crash left a formatted-but-uncounted extension behind, the next
    /// grow re-adopts it and reports *its* size, not the requested one).
    pub grown_bytes: u64,
    /// Total large-object capacity after the grow.
    pub large_capacity_bytes: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The operation succeeded (PUT, successful DEL, SHUTDOWN).
    Ok,
    /// The key was absent (GET, DEL).
    NotFound,
    /// The key's value (GET).
    Value(Vec<u8>),
    /// Matching key/value pairs (SCAN).
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
    /// The request failed; the payload says why.
    Err(String),
    /// Admission control shed the request (queue or connection limit).
    /// The request was **never enqueued**, so retrying it is always
    /// safe; clients should back off exponentially first.
    Overloaded,
    /// The server is draining for shutdown and accepts no new work.
    /// Like [`Response::Overloaded`], the request was never enqueued.
    Draining,
    /// The live telemetry registry as `mnemosyne-telemetry-v1` JSON
    /// (answer to [`Request::Stats`]).
    Stats(String),
    /// Checkpoint results (answer to [`Request::Checkpoint`]).
    CkptDone(CkptSummary),
    /// Liveness/load report (answer to [`Request::Health`]).
    Health(HealthInfo),
    /// Heap growth results (answer to [`Request::Grow`]).
    Grown(GrowInfo),
}

/// Cursor over a frame payload, enforcing bounds on every read.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(FrameError::Oversized { len: usize::MAX })?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated {
                needed: end,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Wraps an encoded payload in the length prefix.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Splits one frame off the front of `buf`: validates the length prefix
/// and returns `(payload, total_consumed)`.
fn split_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Truncated {
            needed: 4,
            got: buf.len(),
        });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if buf.len() < 4 + len {
        return Err(FrameError::Truncated {
            needed: 4 + len,
            got: buf.len(),
        });
    }
    Ok((&buf[4..4 + len], 4 + len))
}

impl Request {
    /// Serialises to one full frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Request::Ping => p.push(op::PING),
            Request::Get(k) => {
                p.push(op::GET);
                put_bytes(&mut p, k);
            }
            Request::Put(k, v) => {
                p.push(op::PUT);
                put_bytes(&mut p, k);
                put_bytes(&mut p, v);
            }
            Request::Del(k) => {
                p.push(op::DEL);
                put_bytes(&mut p, k);
            }
            Request::Scan(prefix, limit) => {
                p.push(op::SCAN);
                put_bytes(&mut p, prefix);
                p.extend_from_slice(&limit.to_le_bytes());
            }
            Request::Shutdown => p.push(op::SHUTDOWN),
            Request::Stats => p.push(op::STATS),
            Request::Checkpoint => p.push(op::CHECKPOINT),
            Request::Health => p.push(op::HEALTH),
            Request::Grow(bytes) => {
                p.push(op::GROW);
                p.extend_from_slice(&bytes.to_le_bytes());
            }
        }
        frame(p)
    }

    /// Decodes one frame from the front of `buf`, returning the request
    /// and the bytes consumed (so pipelined frames can follow).
    ///
    /// # Errors
    /// A typed [`FrameError`] for every malformed shape; never panics.
    pub fn decode(buf: &[u8]) -> Result<(Request, usize), FrameError> {
        let (payload, used) = split_frame(buf)?;
        Ok((Self::decode_payload(payload)?, used))
    }

    /// Decodes a frame payload (the bytes after the length prefix).
    ///
    /// # Errors
    /// A typed [`FrameError`] for every malformed shape; never panics.
    pub fn decode_payload(payload: &[u8]) -> Result<Request, FrameError> {
        let mut r = Reader::new(payload);
        let opcode = r.take(1)?[0];
        let req = match opcode {
            op::PING => Request::Ping,
            op::GET => Request::Get(r.bytes()?),
            op::PUT => {
                let k = r.bytes()?;
                let v = r.bytes()?;
                Request::Put(k, v)
            }
            op::DEL => Request::Del(r.bytes()?),
            op::SCAN => {
                let prefix = r.bytes()?;
                let limit = r.u32()?;
                Request::Scan(prefix, limit)
            }
            op::SHUTDOWN => Request::Shutdown,
            op::STATS => Request::Stats,
            op::CHECKPOINT => Request::Checkpoint,
            op::HEALTH => Request::Health,
            op::GROW => Request::Grow(r.u64()?),
            other => return Err(FrameError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises to one full frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Response::Pong => p.push(op::PONG),
            Response::Ok => p.push(op::OK),
            Response::NotFound => p.push(op::NOT_FOUND),
            Response::Value(v) => {
                p.push(op::VALUE);
                put_bytes(&mut p, v);
            }
            Response::Entries(entries) => {
                p.push(op::ENTRIES);
                p.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (k, v) in entries {
                    put_bytes(&mut p, k);
                    put_bytes(&mut p, v);
                }
            }
            Response::Err(msg) => {
                p.push(op::ERR);
                put_bytes(&mut p, msg.as_bytes());
            }
            Response::Overloaded => p.push(op::OVERLOADED),
            Response::Draining => p.push(op::DRAINING),
            Response::Stats(json) => {
                p.push(op::STATS_SNAPSHOT);
                put_bytes(&mut p, json.as_bytes());
            }
            Response::CkptDone(c) => {
                p.push(op::CKPT_DONE);
                p.extend_from_slice(&c.reclaimed_words.to_le_bytes());
                p.extend_from_slice(&c.outstanding_before.to_le_bytes());
                p.extend_from_slice(&c.outstanding_after.to_le_bytes());
                p.extend_from_slice(&c.duration_ns.to_le_bytes());
            }
            Response::Health(h) => {
                p.push(op::HEALTH_INFO);
                p.extend_from_slice(&h.uptime_ms.to_le_bytes());
                p.extend_from_slice(&h.conns.to_le_bytes());
                p.extend_from_slice(&h.queue_depth.to_le_bytes());
                p.extend_from_slice(&h.inflight.to_le_bytes());
                p.extend_from_slice(&h.outstanding_log_words.to_le_bytes());
                p.push(h.draining as u8);
            }
            Response::Grown(g) => {
                p.push(op::GROWN);
                p.extend_from_slice(&g.grown_bytes.to_le_bytes());
                p.extend_from_slice(&g.large_capacity_bytes.to_le_bytes());
            }
        }
        frame(p)
    }

    /// Decodes one frame from the front of `buf`, returning the response
    /// and the bytes consumed.
    ///
    /// # Errors
    /// A typed [`FrameError`] for every malformed shape; never panics.
    pub fn decode(buf: &[u8]) -> Result<(Response, usize), FrameError> {
        let (payload, used) = split_frame(buf)?;
        Ok((Self::decode_payload(payload)?, used))
    }

    /// Decodes a frame payload (the bytes after the length prefix).
    ///
    /// # Errors
    /// A typed [`FrameError`] for every malformed shape; never panics.
    pub fn decode_payload(payload: &[u8]) -> Result<Response, FrameError> {
        let mut r = Reader::new(payload);
        let opcode = r.take(1)?[0];
        let resp = match opcode {
            op::PONG => Response::Pong,
            op::OK => Response::Ok,
            op::NOT_FOUND => Response::NotFound,
            op::VALUE => Response::Value(r.bytes()?),
            op::ENTRIES => {
                let n = r.u32()? as usize;
                let mut entries = Vec::new();
                for _ in 0..n {
                    let k = r.bytes()?;
                    let v = r.bytes()?;
                    entries.push((k, v));
                }
                Response::Entries(entries)
            }
            op::ERR => {
                let raw = r.bytes()?;
                let msg = String::from_utf8(raw).map_err(|_| FrameError::BadUtf8)?;
                Response::Err(msg)
            }
            op::OVERLOADED => Response::Overloaded,
            op::DRAINING => Response::Draining,
            op::STATS_SNAPSHOT => {
                let raw = r.bytes()?;
                let json = String::from_utf8(raw).map_err(|_| FrameError::BadUtf8)?;
                Response::Stats(json)
            }
            op::CKPT_DONE => Response::CkptDone(CkptSummary {
                reclaimed_words: r.u64()?,
                outstanding_before: r.u64()?,
                outstanding_after: r.u64()?,
                duration_ns: r.u64()?,
            }),
            op::HEALTH_INFO => Response::Health(HealthInfo {
                uptime_ms: r.u64()?,
                conns: r.u64()?,
                queue_depth: r.u64()?,
                inflight: r.u64()?,
                outstanding_log_words: r.u64()?,
                draining: r.take(1)?[0] != 0,
            }),
            op::GROWN => Response::Grown(GrowInfo {
                grown_bytes: r.u64()?,
                large_capacity_bytes: r.u64()?,
            }),
            other => return Err(FrameError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Whether `buf` starts with a whole frame, or with a length prefix that
/// is already bad: either way, reading one frame from it cannot block.
pub(crate) fn frame_ready(buf: &[u8]) -> bool {
    !matches!(split_frame(buf), Err(FrameError::Truncated { .. }))
}

/// Reads one frame payload from a stream. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer hung up between requests).
///
/// # Errors
/// [`ProtoError::Io`] on transport failure (including EOF mid-frame),
/// [`ProtoError::Frame`] on a bad length prefix.
fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no more frames" from "died mid-frame" by hand: a clean
    // shutdown ends exactly on a frame boundary.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(ProtoError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                )))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::Frame(FrameError::Oversized { len }));
    }
    if len == 0 {
        return Err(ProtoError::Frame(FrameError::Empty));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Reads one request frame; `Ok(None)` on clean EOF.
///
/// # Errors
/// See [`ProtoError`].
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ProtoError> {
    match read_frame(r)? {
        Some(payload) => Ok(Some(Request::decode_payload(&payload)?)),
        None => Ok(None),
    }
}

/// Reads one response frame; `Ok(None)` on clean EOF.
///
/// # Errors
/// See [`ProtoError`].
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, ProtoError> {
    match read_frame(r)? {
        Some(payload) => Ok(Some(Response::decode_payload(&payload)?)),
        None => Ok(None),
    }
}

/// Writes one request frame (no flush; callers batch then flush).
///
/// # Errors
/// Transport failure.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    w.write_all(&req.encode())
}

/// Writes one response frame (no flush; callers batch then flush).
///
/// # Errors
/// Transport failure.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    w.write_all(&resp.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_variants() {
        let cases = [
            Request::Ping,
            Request::Get(b"k".to_vec()),
            Request::Put(b"key".to_vec(), b"value".to_vec()),
            Request::Del(vec![]),
            Request::Scan(b"pre".to_vec(), 17),
            Request::Shutdown,
            Request::Stats,
            Request::Checkpoint,
            Request::Health,
            Request::Grow(16 << 20),
        ];
        for req in cases {
            let bytes = req.encode();
            let (back, used) = Request::decode(&bytes).unwrap();
            assert_eq!(back, req);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        let cases = [
            Response::Pong,
            Response::Ok,
            Response::NotFound,
            Response::Value(b"v".to_vec()),
            Response::Entries(vec![(b"a".to_vec(), b"1".to_vec()), (vec![], vec![])]),
            Response::Err("boom".to_string()),
            Response::Overloaded,
            Response::Draining,
            Response::Stats("{\"schema\":\"mnemosyne-telemetry-v1\"}".to_string()),
            Response::CkptDone(CkptSummary {
                reclaimed_words: 1,
                outstanding_before: 2,
                outstanding_after: 3,
                duration_ns: u64::MAX,
            }),
            Response::Health(HealthInfo {
                uptime_ms: 12,
                conns: 3,
                queue_depth: 400,
                inflight: 5,
                outstanding_log_words: 67,
                draining: true,
            }),
            Response::Grown(GrowInfo {
                grown_bytes: 8 << 20,
                large_capacity_bytes: 12 << 20,
            }),
        ];
        for resp in cases {
            let bytes = resp.encode();
            let (back, used) = Response::decode(&bytes).unwrap();
            assert_eq!(back, resp);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn oversized_and_empty_frames_are_typed_errors() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        buf.push(op::PING);
        assert!(matches!(
            Request::decode(&buf),
            Err(FrameError::Oversized { .. })
        ));
        assert_eq!(Request::decode(&0u32.to_le_bytes()), Err(FrameError::Empty));
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut buf = Request::Ping.encode();
        buf.extend(Request::Get(b"x".to_vec()).encode());
        let (first, used) = Request::decode(&buf).unwrap();
        assert_eq!(first, Request::Ping);
        let (second, _) = Request::decode(&buf[used..]).unwrap();
        assert_eq!(second, Request::Get(b"x".to_vec()));
    }
}
