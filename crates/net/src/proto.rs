//! The wire protocol, version 8: length-prefixed frames.
//!
//! Every frame is `u32` little-endian payload length, then the payload;
//! the payload's first byte is the opcode. Strings and integers inside
//! payloads use `gdk::codec`'s primitives (length-prefixed UTF-8,
//! little-endian fixed-width ints), and a result page carries its
//! columns as [`gdk::codec::put_column`] bodies — the encoding of the
//! durable vault's tiles, so one codec serves disk and wire.
//!
//! ```text
//! frame    := len:u32  payload[len]
//! payload  := opcode:u8 body
//! trailer  := report:12×u64 has_trace:u8 [trace:str]
//!
//! client → server                           server → client
//!   0x01 Hello     ver:u16 client:str         0x81 HelloOk      ver:u16 server:str sid:u64
//!   0x02 Query     flags:u8 epoch:u64 pos:u64 sql:str
//!                                             0x82 Error        code:u16 message:str trailer
//!   0x03 Prepare   name:str sql:str           0x83 Affected     n:u64 epoch:u64 pos:u64 trailer
//!   0x05 Ping                                 0x84 ResultHeader ncols:u16 (name:str tag:u8 dim:u8)*
//!   0x06 Close                                0x85 ResultPage   rows:u32 (tag:u8 body)*ncols
//!   0x07 Shutdown                             0x86 ResultDone   rows:u64 pages:u32 trailer
//!   0x0A ExecBound flags:u8 name:str n:u16 value*
//!                                             0x87 Pong
//!   0x0B Deallocate name:str                  0x88 Ok           (Shutdown ack)
//!   0x0F ReplHello gen:u64 pos:u64            0x8A StmtOk       nparams:u16 (Prepare ack)
//!   0x10 ReplAck   gen:u64 pos:u64            0x8D ReplRecord   gen:u64 durable:u64
//!                                                               has:u8 [end:u64 payload]
//!                                             0x8E ReplSnapshot kind:u8 body
//! ```
//!
//! A `ResultPage` column body is `seq:u64 len:u64` for a void column
//! and otherwise `n:u64` plus `n` fixed-width cells (nil sentinels in
//! place, doubles as IEEE bits); a string column's cells are `u32`
//! indices into a page-local dictionary that follows them.
//!
//! A query answer is either one `Error`, one `Affected`, or a
//! `ResultHeader`, zero or more `ResultPage`s and a closing `ResultDone`.
//! Each of the three closing frames ends with a [`Trailer`]: the
//! session's [`ExecReport`] and, while the session traces, the rendered
//! span tree of its last statement — so a client's report and trace
//! cost no round trip of their own. `Query` and `ExecBound` carry a
//! `flags` byte whose bit 0 asks for tracing; any other bit is a
//! protocol error.
//!
//! `Query` carries a monotonic-read token ahead of the SQL
//! (`(0,0)` = none) and `Affected` carries the write's durable WAL
//! position — the token a later replica read presents to guarantee
//! read-your-writes. The replication frames stream a primary's
//! acknowledged WAL to a replica: the replica opens with `ReplHello`
//! (its applied position), the primary answers with `ReplRecord`s
//! (payload-less ones are durable-position heartbeats) or a multi-frame
//! `ReplSnapshot` bootstrap (Begin → per-file File/Chunk… → End) when
//! the replica's generation no longer exists on the primary, and the
//! replica acknowledges applied positions with `ReplAck`.
//!
//! The handshake (`Hello`/`HelloOk`) must be the first exchange on a
//! connection; the server rejects anything else with `Error` and hangs up.
//!
//! Prepared statements: `Prepare` compiles the statement server-side
//! (acked by `StmtOk` with the bind-slot count), `ExecBound` executes
//! it with codec-encoded scalar values (`n = 0` for none), and
//! `Deallocate` frees it — re-executions reuse the server's cached
//! plan, so one `ExecBound` round trip repeats, never parsing or
//! optimisation.

use sciql::ErrorCode;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version spoken by this build. A server answers every
/// `Hello` with the version it speaks; the client requires an exact
/// match.
pub const PROTO_VERSION: u16 = 8;

/// Upper bound on a single frame (64 MiB): a defence against a corrupt
/// or hostile length prefix allocating unbounded memory, not a result
/// size limit — large results stream as many pages.
pub const MAX_FRAME: u32 = 64 << 20;

/// Rows per result page the server emits. Small enough to stream, large
/// enough that the frame overhead vanishes.
pub const PAGE_ROWS: usize = 1024;

/// Frame opcodes (first payload byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Client handshake.
    Hello = 0x01,
    /// Execute one SQL statement.
    Query = 0x02,
    /// Compile a named statement in the session.
    Prepare = 0x03,
    /// Liveness probe.
    Ping = 0x05,
    /// Orderly session end.
    Close = 0x06,
    /// Ask the server to shut down gracefully.
    Shutdown = 0x07,
    /// Execute a prepared statement with the values the frame carries.
    ExecBound = 0x0A,
    /// Drop a prepared statement.
    Deallocate = 0x0B,
    /// Replica handshake: announce the applied WAL position and switch
    /// the session into replication streaming.
    ReplHello = 0x0F,
    /// Replica acknowledgement of its durably applied WAL position.
    ReplAck = 0x10,
    /// Server handshake answer.
    HelloOk = 0x81,
    /// Statement (or protocol) failure; the session survives.
    Error = 0x82,
    /// DDL/DML acknowledgement with affected count.
    Affected = 0x83,
    /// Result-set column metadata.
    ResultHeader = 0x84,
    /// One page of result rows.
    ResultPage = 0x85,
    /// End of result set.
    ResultDone = 0x86,
    /// Ping answer.
    Pong = 0x87,
    /// Shutdown acknowledgement.
    Ok = 0x88,
    /// Prepare acknowledgement carrying the statement's bind-slot count.
    StmtOk = 0x8A,
    /// One shipped WAL record (or a payload-less durable-position
    /// heartbeat) from primary to replica.
    ReplRecord = 0x8D,
    /// One frame of a multi-frame replica bootstrap file transfer.
    ReplSnapshot = 0x8E,
}

impl Op {
    /// Parse an opcode byte.
    pub fn from_u8(b: u8) -> Option<Op> {
        Some(match b {
            0x01 => Op::Hello,
            0x02 => Op::Query,
            0x03 => Op::Prepare,
            0x05 => Op::Ping,
            0x06 => Op::Close,
            0x07 => Op::Shutdown,
            0x0A => Op::ExecBound,
            0x0B => Op::Deallocate,
            0x0F => Op::ReplHello,
            0x10 => Op::ReplAck,
            0x81 => Op::HelloOk,
            0x82 => Op::Error,
            0x83 => Op::Affected,
            0x84 => Op::ResultHeader,
            0x85 => Op::ResultPage,
            0x86 => Op::ResultDone,
            0x87 => Op::Pong,
            0x88 => Op::Ok,
            0x8A => Op::StmtOk,
            0x8D => Op::ReplRecord,
            0x8E => Op::ReplSnapshot,
            _ => return None,
        })
    }
}

/// Client- and server-side protocol errors.
#[derive(Debug)]
pub enum NetError {
    /// Socket failure.
    Io(io::Error),
    /// The peer violated the framing or sent something unexpected.
    Protocol(String),
    /// The server reported a statement error (the session survives).
    /// Carries the stable [`ErrorCode`] the embedded engine would have
    /// produced for the same failure, so a remote parse error is
    /// indistinguishable from a local one.
    Server {
        /// Stable error code from the wire.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
    /// Handshake version mismatch.
    Version {
        /// Version this build speaks.
        ours: u16,
        /// Version the peer answered with.
        theirs: u16,
    },
}

impl NetError {
    /// Construct a [`NetError::Protocol`].
    pub fn protocol(m: impl Into<String>) -> Self {
        NetError::Protocol(m.into())
    }

    /// The stable [`ErrorCode`] this error maps into.
    pub fn code(&self) -> ErrorCode {
        match self {
            NetError::Io(_) => ErrorCode::Io,
            NetError::Protocol(_) => ErrorCode::Protocol,
            NetError::Server { code, .. } => *code,
            NetError::Version { .. } => ErrorCode::Version,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network I/O error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Server { message, .. } => write!(f, "server error: {message}"),
            NetError::Version { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: we speak {ours}, peer speaks {theirs}"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Net result type.
pub type NetResult<T> = std::result::Result<T, NetError>;

/// Write one frame (length prefix + payload) in a single write, then
/// flush — on a `TCP_NODELAY` socket two writes would be two segments.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> NetResult<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    put_frame(&mut frame, |p| p.extend_from_slice(payload))?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Append one frame to `out` with its payload written in place by
/// `payload` (opcode first): the length prefix is reserved, then
/// patched. Returns the payload length; a payload over [`MAX_FRAME`] is
/// taken back out of `out` and refused.
pub fn put_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> NetResult<usize> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = out.len() - at - 4;
    match u32::try_from(len).ok().filter(|&l| l <= MAX_FRAME) {
        Some(l) => {
            out[at..at + 4].copy_from_slice(&l.to_le_bytes());
            Ok(len)
        }
        None => {
            out.truncate(at);
            Err(NetError::protocol("outgoing frame exceeds MAX_FRAME"))
        }
    }
}

/// Read one complete frame, blocking. Returns `None` on a clean EOF at a
/// frame boundary (the peer hung up between frames).
pub fn read_frame(r: &mut impl Read) -> NetResult<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(NetError::protocol(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame reader for sockets with a read timeout: the server
/// uses this to poll its shutdown flag between (and *during*) frames
/// without losing partially received bytes.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Pull bytes from `r` once and return the next complete frame if one
    /// is buffered. `Ok(None)` means "no full frame yet" (including read
    /// timeouts); `Err(UnexpectedEof)` is a peer hangup — clean if
    /// [`FrameBuffer::is_empty`], mid-frame otherwise.
    pub fn poll_frame(&mut self, r: &mut impl Read) -> NetResult<Option<Vec<u8>>> {
        if let Some(f) = self.take_frame()? {
            return Ok(Some(f));
        }
        let mut chunk = [0u8; 16 * 1024];
        match r.read(&mut chunk) {
            Ok(0) => Err(NetError::Io(io::Error::from(io::ErrorKind::UnexpectedEof))),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.take_frame()
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Is the buffer at a frame boundary (no partial frame pending)?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Is at least one complete frame already buffered? The server uses
    /// this to pipeline: replies are held back (coalesced into one
    /// socket write) for as long as the client still has a decodable
    /// request waiting. An oversized length prefix counts as "complete"
    /// so the next [`FrameBuffer::poll_frame`] reports the error
    /// immediately instead of stalling behind a held-back flush.
    pub fn has_complete_frame(&self) -> bool {
        if self.buf.len() < 4 {
            return false;
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        len > MAX_FRAME || self.buf.len() >= 4 + len as usize
    }

    /// Bytes of a partial frame received so far (the server treats a
    /// growing count as wire activity, so a slow upload is not reaped
    /// as idle mid-transfer).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    fn take_frame(&mut self) -> NetResult<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(NetError::protocol(format!(
                "incoming frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
            )));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// Payload builders (the tiny bodies; result frames reuse core's encoding).
// ---------------------------------------------------------------------------

/// `Hello` payload.
pub fn hello(client: &str) -> Vec<u8> {
    let mut p = vec![Op::Hello as u8];
    gdk::codec::put_u16(&mut p, PROTO_VERSION);
    gdk::codec::put_str(&mut p, client);
    p
}

/// `HelloOk` payload.
pub fn hello_ok(server: &str, session_id: u64) -> Vec<u8> {
    let mut p = vec![Op::HelloOk as u8];
    gdk::codec::put_u16(&mut p, PROTO_VERSION);
    gdk::codec::put_str(&mut p, server);
    gdk::codec::put_u64(&mut p, session_id);
    p
}

/// A monotonic-read token: `(WAL generation, byte position)`. A write
/// acknowledgement carries the position its durability reached; a
/// replica read presenting the token is served only once the replica
/// has applied at least that much. `(0, 0)` means "no constraint".
pub type WalToken = (u64, u64);

/// Does an applied position satisfy a required token? A newer
/// generation satisfies any older-generation token: the checkpoint that
/// rotated the WAL captured everything the token named.
pub fn token_satisfied(applied: WalToken, required: WalToken) -> bool {
    sciql::commit::covers(applied, required)
}

/// Read a request's `flags` byte: bit 0 asks for tracing, and any other
/// bit is refused.
fn read_flags(r: &mut gdk::codec::Reader<'_>, what: &str) -> NetResult<bool> {
    match r.u8() {
        Ok(0) => Ok(false),
        Ok(1) => Ok(true),
        _ => Err(NetError::protocol(format!("malformed {what}: flags"))),
    }
}

/// `Query` payload: the tracing flag, the monotonic-read token
/// (`(0, 0)` = none), then SQL.
pub fn query(trace: bool, token: WalToken, sql: &str) -> Vec<u8> {
    let mut p = vec![Op::Query as u8, trace as u8];
    gdk::codec::put_u64(&mut p, token.0);
    gdk::codec::put_u64(&mut p, token.1);
    gdk::codec::put_str(&mut p, sql);
    p
}

/// Decode a `Query` body into its tracing flag, token and SQL text.
pub fn read_query(body: &[u8]) -> NetResult<(bool, WalToken, String)> {
    let mut r = gdk::codec::Reader::new(body);
    let trace = read_flags(&mut r, "Query")?;
    let bad = |_| NetError::protocol("malformed Query");
    let epoch = r.u64().map_err(bad)?;
    let pos = r.u64().map_err(bad)?;
    let sql = r.str().map_err(bad)?;
    Ok((trace, (epoch, pos), sql))
}

/// `Prepare` payload.
pub fn prepare(name: &str, sql: &str) -> Vec<u8> {
    let mut p = vec![Op::Prepare as u8];
    gdk::codec::put_str(&mut p, name);
    gdk::codec::put_str(&mut p, sql);
    p
}

/// `ExecBound` payload: the tracing flag, the statement name and its
/// slot-ordered scalar values, encoded with the same versioned value
/// codec the vault uses (bit-exact round trip, nil sentinels included).
pub fn exec_bound(trace: bool, name: &str, values: &[gdk::Value]) -> Vec<u8> {
    let mut p = vec![Op::ExecBound as u8, trace as u8];
    gdk::codec::put_str(&mut p, name);
    gdk::codec::put_u16(&mut p, values.len() as u16);
    for v in values {
        gdk::codec::encode_value(v, &mut p);
    }
    p
}

/// Decode an `ExecBound` body into its tracing flag, the statement name
/// and the values. A value takes at least one byte, so the count cannot
/// reserve more than the bytes that follow it.
pub fn read_exec_bound(body: &[u8]) -> NetResult<(bool, String, Vec<gdk::Value>)> {
    let mut r = gdk::codec::Reader::new(body);
    let trace = read_flags(&mut r, "ExecBound")?;
    let bad = |_| NetError::protocol("malformed ExecBound");
    let name = r.str().map_err(bad)?;
    let n = r.u16().map_err(bad)? as usize;
    let mut values = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        values.push(gdk::codec::decode_value(&mut r).map_err(bad)?);
    }
    if r.remaining() != 0 {
        return Err(NetError::protocol("malformed ExecBound: trailing bytes"));
    }
    Ok((trace, name, values))
}

/// `Deallocate` payload (answered with `Affected(1)` if the statement
/// existed, `Affected(0)` otherwise).
pub fn deallocate(name: &str) -> Vec<u8> {
    let mut p = vec![Op::Deallocate as u8];
    gdk::codec::put_str(&mut p, name);
    p
}

/// `StmtOk` payload (Prepare acknowledgement).
pub fn stmt_ok(nparams: u16) -> Vec<u8> {
    let mut p = vec![Op::StmtOk as u8];
    gdk::codec::put_u16(&mut p, nparams);
    p
}

/// Decode a `StmtOk` body.
pub fn read_stmt_ok(body: &[u8]) -> NetResult<u16> {
    gdk::codec::Reader::new(body)
        .u16()
        .map_err(|_| NetError::protocol("malformed StmtOk"))
}

/// Bare single-opcode payload (`Ping`, `Close`, `Shutdown`, `Pong`, `Ok`).
pub fn bare(op: Op) -> Vec<u8> {
    vec![op as u8]
}

/// `Error` payload: stable code, message and trailer.
pub fn error(code: ErrorCode, message: &str, trailer: &Trailer) -> Vec<u8> {
    let mut p = vec![Op::Error as u8];
    gdk::codec::put_u16(&mut p, code.as_u16());
    gdk::codec::put_str(&mut p, message);
    put_trailer(&mut p, trailer);
    p
}

/// Decode an `Error` body into the [`NetError::Server`] it reports and
/// its trailer.
pub fn read_error(body: &[u8]) -> NetResult<(NetError, Trailer)> {
    let mut r = gdk::codec::Reader::new(body);
    let bad = |_| NetError::protocol("malformed Error");
    let code = ErrorCode::from_u16(r.u16().map_err(bad)?);
    let message = r.str().map_err(bad)?;
    let trailer = read_trailer(r.take(r.remaining()).map_err(bad)?)?;
    Ok((NetError::Server { code, message }, trailer))
}

/// `Affected` payload: the count, the session's newest durable WAL
/// position — the monotonic-read token the client hands to replica
/// reads (`(0, 0)` on in-memory engines) — and the trailer.
pub fn affected(n: u64, token: WalToken, trailer: &Trailer) -> Vec<u8> {
    let mut p = vec![Op::Affected as u8];
    gdk::codec::put_u64(&mut p, n);
    gdk::codec::put_u64(&mut p, token.0);
    gdk::codec::put_u64(&mut p, token.1);
    put_trailer(&mut p, trailer);
    p
}

/// Decode an `Affected` body into the count, its token and the trailer.
pub fn read_affected(body: &[u8]) -> NetResult<(u64, WalToken, Trailer)> {
    let mut r = gdk::codec::Reader::new(body);
    let bad = |_| NetError::protocol("malformed Affected");
    let n = r.u64().map_err(bad)?;
    let epoch = r.u64().map_err(bad)?;
    let pos = r.u64().map_err(bad)?;
    let trailer = read_trailer(r.take(r.remaining()).map_err(bad)?)?;
    Ok((n, (epoch, pos), trailer))
}

/// `ReplHello` / `ReplAck` payload: the replica's applied position.
pub fn repl_position(op: Op, pos: WalToken) -> Vec<u8> {
    debug_assert!(matches!(op, Op::ReplHello | Op::ReplAck));
    let mut p = vec![op as u8];
    gdk::codec::put_u64(&mut p, pos.0);
    gdk::codec::put_u64(&mut p, pos.1);
    p
}

/// Decode a `ReplHello`/`ReplAck` body.
pub fn read_repl_position(body: &[u8]) -> NetResult<WalToken> {
    let mut r = gdk::codec::Reader::new(body);
    let bad = |_| NetError::protocol("malformed replication position");
    let generation = r.u64().map_err(bad)?;
    let pos = r.u64().map_err(bad)?;
    Ok((generation, pos))
}

/// `ReplRecord` payload: generation, the primary's durable position,
/// and (unless this is a heartbeat) one WAL record — its end byte
/// position and raw payload, appended verbatim by the replica.
pub fn repl_record(generation: u64, durable: u64, record: Option<(u64, &[u8])>) -> Vec<u8> {
    let mut p = vec![Op::ReplRecord as u8];
    gdk::codec::put_u64(&mut p, generation);
    gdk::codec::put_u64(&mut p, durable);
    match record {
        None => gdk::codec::put_u8(&mut p, 0),
        Some((end, payload)) => {
            gdk::codec::put_u8(&mut p, 1);
            gdk::codec::put_u64(&mut p, end);
            p.extend_from_slice(payload);
        }
    }
    p
}

/// Decode a `ReplRecord` body into `(generation, durable, record)`.
#[allow(clippy::type_complexity)]
pub fn read_repl_record(body: &[u8]) -> NetResult<(u64, u64, Option<(u64, Vec<u8>)>)> {
    let mut r = gdk::codec::Reader::new(body);
    let bad = |_| NetError::protocol("malformed ReplRecord");
    let generation = r.u64().map_err(bad)?;
    let durable = r.u64().map_err(bad)?;
    let record = match r.u8().map_err(bad)? {
        0 => None,
        1 => {
            let end = r.u64().map_err(bad)?;
            let rest = r.take(r.remaining()).map_err(bad)?.to_vec();
            Some((end, rest))
        }
        _ => return Err(NetError::protocol("malformed ReplRecord")),
    };
    Ok((generation, durable, record))
}

/// One frame of a multi-frame `ReplSnapshot` bootstrap transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplSnapshotFrame {
    /// Transfer opens: target generation, the capped WAL's durable
    /// position, and how many files follow.
    Begin {
        /// The image's checkpoint generation.
        generation: u64,
        /// WAL byte position the image ends at.
        durable: u64,
        /// Number of `File` announcements that follow.
        files: u32,
    },
    /// Next file: its vault-dir-relative path and total byte size
    /// (delivered as zero or more `Chunk`s).
    File {
        /// Dir-relative path (e.g. `cols/c3.col`).
        name: String,
        /// Total file size in bytes.
        size: u64,
    },
    /// A run of bytes of the current file, in order.
    Chunk(Vec<u8>),
    /// Transfer complete; streaming resumes with `ReplRecord`s.
    End,
}

/// `ReplSnapshot` payload.
pub fn repl_snapshot(frame: &ReplSnapshotFrame) -> Vec<u8> {
    let mut p = vec![Op::ReplSnapshot as u8];
    match frame {
        ReplSnapshotFrame::Begin {
            generation,
            durable,
            files,
        } => {
            gdk::codec::put_u8(&mut p, 0);
            gdk::codec::put_u64(&mut p, *generation);
            gdk::codec::put_u64(&mut p, *durable);
            gdk::codec::put_u32(&mut p, *files);
        }
        ReplSnapshotFrame::File { name, size } => {
            gdk::codec::put_u8(&mut p, 1);
            gdk::codec::put_str(&mut p, name);
            gdk::codec::put_u64(&mut p, *size);
        }
        ReplSnapshotFrame::Chunk(bytes) => {
            gdk::codec::put_u8(&mut p, 2);
            p.extend_from_slice(bytes);
        }
        ReplSnapshotFrame::End => gdk::codec::put_u8(&mut p, 3),
    }
    p
}

/// Decode a `ReplSnapshot` body.
pub fn read_repl_snapshot(body: &[u8]) -> NetResult<ReplSnapshotFrame> {
    let mut r = gdk::codec::Reader::new(body);
    let bad = |_| NetError::protocol("malformed ReplSnapshot");
    Ok(match r.u8().map_err(bad)? {
        0 => ReplSnapshotFrame::Begin {
            generation: r.u64().map_err(bad)?,
            durable: r.u64().map_err(bad)?,
            files: r.u32().map_err(bad)?,
        },
        1 => ReplSnapshotFrame::File {
            name: r.str().map_err(bad)?,
            size: r.u64().map_err(bad)?,
        },
        2 => ReplSnapshotFrame::Chunk(r.take(r.remaining()).map_err(bad)?.to_vec()),
        3 => ReplSnapshotFrame::End,
        _ => return Err(NetError::protocol("malformed ReplSnapshot")),
    })
}

/// Execution report for a session's most recent statement, as carried by
/// every [`Trailer`]: the interpreter counters plus the optimizer pipeline's
/// `PassStats` highlights, so a remote `\timing` shows the same numbers
/// as an embedded one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// MAL instructions executed.
    pub instructions: u64,
    /// Instructions that ran with more than one worker thread.
    pub par_instructions: u64,
    /// Largest worker-thread count any instruction used.
    pub max_threads: u64,
    /// MAL instructions before the optimizer pipeline.
    pub instrs_before_opt: u64,
    /// MAL instructions after the optimizer pipeline.
    pub instrs_after_opt: u64,
    /// Instructions eliminated by the shrinking passes.
    pub eliminated: u64,
    /// Fusion rewrites applied (candprop + select→project + select→aggregate).
    pub fused: u64,
    /// Intermediates the fused kernels never materialised.
    pub intermediates_avoided: u64,
    /// Approximate bytes those intermediates would have occupied.
    pub bytes_not_materialized: u64,
    /// 1 when the statement reused a cached compiled plan (prepared
    /// re-execution), 0 otherwise.
    pub plan_cache_hits: u64,
    /// Column tiles whose zone maps excluded them from range scans.
    pub tiles_skipped: u64,
    /// Tuples the interpreter's instructions produced in total.
    pub tuples_produced: u64,
}

impl ExecReport {
    /// Build the report from the engine's last-statement record — the
    /// one conversion both the server's trailers and the embedded
    /// driver use, so the two transports can never drift.
    pub fn from_last_exec(last: &sciql::LastExec) -> ExecReport {
        ExecReport {
            instructions: last.exec.instructions as u64,
            par_instructions: last.exec.par_instructions as u64,
            max_threads: last.exec.max_threads as u64,
            instrs_before_opt: last.instrs_before_opt as u64,
            instrs_after_opt: last.instrs_after_opt as u64,
            eliminated: last.opt.total_removed() as u64,
            fused: last.opt.fusions() as u64,
            intermediates_avoided: last.exec.intermediates_avoided as u64,
            bytes_not_materialized: last.exec.bytes_not_materialized as u64,
            plan_cache_hits: last.exec.plan_cache_hits as u64,
            tiles_skipped: last.exec.tiles_skipped as u64,
            tuples_produced: last.exec.tuples_produced as u64,
        }
    }

    /// View this report as the renderer-ready [`sciql_obs::ExecSummary`]
    /// (optionally with a client-measured wall time), so `\timing`
    /// output is byte-identical embedded and over the wire.
    pub fn summary(&self, wall_ms: Option<f64>) -> sciql_obs::ExecSummary {
        sciql_obs::ExecSummary {
            wall_ms,
            instructions: self.instructions,
            tuples_produced: self.tuples_produced,
            par_instructions: self.par_instructions,
            max_threads: self.max_threads,
            instrs_before_opt: self.instrs_before_opt,
            instrs_after_opt: self.instrs_after_opt,
            eliminated: self.eliminated,
            fused: self.fused,
            intermediates_avoided: self.intermediates_avoided,
            bytes_not_materialized: self.bytes_not_materialized,
            plan_cache_hits: self.plan_cache_hits,
            tiles_skipped: self.tiles_skipped,
        }
    }
}

/// What closes every statement answer (`Affected`, `ResultDone`,
/// `Error`): the session's last execution report and, while the session
/// traces, the rendered span tree of its last statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trailer {
    /// The session's most recent execution.
    pub report: ExecReport,
    /// The rendered span tree, when the statement was traced.
    pub trace: Option<String>,
}

/// Append a trailer: the report's 12 `u64`s, then `has_trace:u8` and
/// the trace text.
pub fn put_trailer(p: &mut Vec<u8>, trailer: &Trailer) {
    // Exhaustive destructuring, deliberately without `..`: adding a
    // field to `ExecReport` refuses to compile until it is wired
    // through the codec here (and in `read_trailer`).
    let ExecReport {
        instructions,
        par_instructions,
        max_threads,
        instrs_before_opt,
        instrs_after_opt,
        eliminated,
        fused,
        intermediates_avoided,
        bytes_not_materialized,
        plan_cache_hits,
        tiles_skipped,
        tuples_produced,
    } = trailer.report;
    for v in [
        instructions,
        par_instructions,
        max_threads,
        instrs_before_opt,
        instrs_after_opt,
        eliminated,
        fused,
        intermediates_avoided,
        bytes_not_materialized,
        plan_cache_hits,
        tiles_skipped,
        tuples_produced,
    ] {
        gdk::codec::put_u64(p, v);
    }
    match &trailer.trace {
        None => gdk::codec::put_u8(p, 0),
        Some(text) => {
            gdk::codec::put_u8(p, 1);
            gdk::codec::put_str(p, text);
        }
    }
}

/// Decode a trailer that fills `body` exactly: a short body or trailing
/// bytes (a field-count drift between peer builds) is a protocol error,
/// never silently zeroed fields.
pub fn read_trailer(body: &[u8]) -> NetResult<Trailer> {
    let mut r = gdk::codec::Reader::new(body);
    let bad = |_| NetError::protocol("malformed trailer");
    let mut next = || r.u64().map_err(bad);
    let report = ExecReport {
        instructions: next()?,
        par_instructions: next()?,
        max_threads: next()?,
        instrs_before_opt: next()?,
        instrs_after_opt: next()?,
        eliminated: next()?,
        fused: next()?,
        intermediates_avoided: next()?,
        bytes_not_materialized: next()?,
        plan_cache_hits: next()?,
        tiles_skipped: next()?,
        tuples_produced: next()?,
    };
    let trace = match r.u8().map_err(bad)? {
        0 => None,
        1 => Some(r.str().map_err(bad)?),
        _ => return Err(NetError::protocol("malformed trailer: trace flag")),
    };
    if r.remaining() != 0 {
        return Err(NetError::protocol("malformed trailer: trailing bytes"));
    }
    Ok(Trailer { report, trace })
}

/// `ResultDone` payload: the row and page counts the client checks its
/// reassembly against, then the trailer.
pub fn result_done(rows: u64, pages: u32, trailer: &Trailer) -> Vec<u8> {
    let mut p = vec![Op::ResultDone as u8];
    gdk::codec::put_u64(&mut p, rows);
    gdk::codec::put_u32(&mut p, pages);
    put_trailer(&mut p, trailer);
    p
}

/// Decode a `ResultDone` body into rows, pages and the trailer.
pub fn read_result_done(body: &[u8]) -> NetResult<(u64, u32, Trailer)> {
    let mut r = gdk::codec::Reader::new(body);
    let bad = |_| NetError::protocol("malformed ResultDone");
    let rows = r.u64().map_err(bad)?;
    let pages = r.u32().map_err(bad)?;
    let trailer = read_trailer(r.take(r.remaining()).map_err(bad)?)?;
    Ok((rows, pages, trailer))
}

/// Split a received payload into opcode and body.
pub fn split(payload: &[u8]) -> NetResult<(Op, &[u8])> {
    let (&first, body) = payload
        .split_first()
        .ok_or_else(|| NetError::protocol("empty frame"))?;
    let op = Op::from_u8(first)
        .ok_or_else(|| NetError::protocol(format!("unknown opcode {first:#04x}")))?;
    Ok((op, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &query(false, (0, 0), "SELECT 1")).unwrap();
        write_frame(&mut wire, &bare(Op::Ping)).unwrap();
        let mut r = &wire[..];
        let f1 = read_frame(&mut r).unwrap().unwrap();
        let (op, body) = split(&f1).unwrap();
        assert_eq!(op, Op::Query);
        assert_eq!(
            read_query(body).unwrap(),
            (false, (0, 0), "SELECT 1".into())
        );
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(split(&f2).unwrap().0, Op::Ping);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// Length and payload leave in one `write` call, so a request on a
    /// `TCP_NODELAY` socket is one segment, not two.
    #[test]
    fn a_frame_is_one_write() {
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payloads = [
            query(false, (0, 0), "SELECT 1"),
            exec_bound(true, "s", &[gdk::Value::Int(7)]),
        ];
        let mut w = Counting::default();
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut w, p).unwrap();
            assert_eq!(w.writes, i + 1, "frame {i}");
        }
        let mut r = &w.bytes[..];
        for p in &payloads {
            assert_eq!(&read_frame(&mut r).unwrap().unwrap(), p);
        }
    }

    #[test]
    fn put_frame_patches_the_length() {
        let mut out = vec![0xAA];
        let n = put_frame(&mut out, |p| p.extend_from_slice(&[Op::Pong as u8, 1, 2])).unwrap();
        assert_eq!(n, 3);
        assert_eq!(out, [0xAA, 3, 0, 0, 0, Op::Pong as u8, 1, 2]);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(NetError::Protocol(_))
        ));
        let mut fb = FrameBuffer::new();
        assert!(matches!(
            fb.poll_frame(&mut &wire[..]),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &query(false, (0, 0), "SELECT 42")).unwrap();
        let mut fb = FrameBuffer::new();
        // Feed one byte at a time: no frame until the last byte arrives.
        let mut got = None;
        for i in 0..wire.len() {
            let mut one = &wire[i..i + 1];
            if let Some(f) = fb.poll_frame(&mut one).unwrap() {
                assert_eq!(i, wire.len() - 1, "frame must complete on the last byte");
                got = Some(f);
            } else {
                assert!(!fb.is_empty() || i < 3);
            }
        }
        let (op, _) = split(&got.expect("frame")).unwrap();
        assert_eq!(op, Op::Query);
    }

    #[test]
    fn replication_frames_roundtrip() {
        let f = query(true, (3, 512), "SELECT 1");
        let (op, body) = split(&f).unwrap();
        assert_eq!(op, Op::Query);
        assert_eq!(
            read_query(body).unwrap(),
            (true, (3, 512), "SELECT 1".into())
        );

        let f = affected(7, (2, 99), &Trailer::default());
        let (_, body) = split(&f).unwrap();
        assert_eq!(
            read_affected(body).unwrap(),
            (7, (2, 99), Trailer::default())
        );

        let f = repl_position(Op::ReplHello, (1, 64));
        let (op, body) = split(&f).unwrap();
        assert_eq!(op, Op::ReplHello);
        assert_eq!(read_repl_position(body).unwrap(), (1, 64));

        let f = repl_record(4, 200, Some((180, b"payload")));
        let (op, body) = split(&f).unwrap();
        assert_eq!(op, Op::ReplRecord);
        assert_eq!(
            read_repl_record(body).unwrap(),
            (4, 200, Some((180, b"payload".to_vec())))
        );
        let f = repl_record(4, 200, None);
        let (_, body) = split(&f).unwrap();
        assert_eq!(read_repl_record(body).unwrap(), (4, 200, None));

        for frame in [
            ReplSnapshotFrame::Begin {
                generation: 2,
                durable: 4096,
                files: 3,
            },
            ReplSnapshotFrame::File {
                name: "cols/c7.col".into(),
                size: 12,
            },
            ReplSnapshotFrame::Chunk(vec![1, 2, 3]),
            ReplSnapshotFrame::End,
        ] {
            let f = repl_snapshot(&frame);
            let (op, body) = split(&f).unwrap();
            assert_eq!(op, Op::ReplSnapshot);
            assert_eq!(read_repl_snapshot(body).unwrap(), frame);
        }

        assert!(token_satisfied((1, 10), (1, 10)));
        assert!(token_satisfied((2, 0), (1, 999)), "newer generation wins");
        assert!(!token_satisfied((1, 9), (1, 10)));
    }

    #[test]
    fn mid_frame_hangup_is_detected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &query(false, (0, 0), "SELECT 1")).unwrap();
        wire.truncate(wire.len() - 2);
        let mut fb = FrameBuffer::new();
        let mut r = &wire[..];
        assert!(fb.poll_frame(&mut r).unwrap().is_none());
        assert!(!fb.is_empty(), "partial frame pending");
        match fb.poll_frame(&mut r) {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF, got {other:?}"),
        }
    }
}
