//! The TCP server: one accept loop, one thread and one [`EngineSession`]
//! per client, all multiplexed onto a shared [`SharedEngine`].
//!
//! Reads run concurrently on `Arc` column snapshots; writes serialize
//! through the engine's single-writer connection (per-statement WAL
//! durability when the vault is attached). Shutdown is graceful: the
//! accept loop stops, in-flight statements finish, idle sessions are
//! closed, and `ServerHandle::wait` returns once every handler exited.
//!
//! The accept loop blocks in `accept()`; a shutdown wakes it with a
//! loopback connection to its own port. A replication link blocks on
//! the engine's published WAL watermark and ships the moment a write is
//! durable.

use crate::proto::{self, FrameBuffer, NetError, NetResult, Op, PAGE_ROWS};
use crate::stop::{wake_accept, Stop, ACCEPT_RETRY};
use gdk::codec::Reader;
use sciql::{EngineSession, ErrorCode, Mark, QueryResult, SessionMeter, SharedEngine};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a read carrying a monotonic-read token may be held before
/// it is refused with [`ErrorCode::ReplicaLagging`].
const TOKEN_WAIT: Duration = Duration::from_secs(2);

/// An idle replication link sends a heartbeat after this long without
/// shipping anything.
const HEARTBEAT: Duration = Duration::from_millis(500);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Rows per result page.
    pub page_rows: usize,
    /// Soft byte bound per result page: a page closes once its cells
    /// reach this (see `ResultSet::page_rows`), so wide string rows
    /// cannot balloon a page past the wire's frame limit. Keep it well
    /// under `proto::MAX_FRAME`.
    pub page_bytes: usize,
    /// Close a session after this long without wire activity
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Give up on a client that stops draining its socket after this
    /// long (`None` = block forever — a dead peer then pins its handler
    /// thread and stalls [`ServerHandle::wait`]).
    pub write_timeout: Option<Duration>,
    /// Server name announced in the handshake.
    pub name: String,
    /// Admission control: connections beyond this many concurrent
    /// sessions are refused with a [`ErrorCode::ServerBusy`] error frame
    /// instead of being accepted (`0` = unlimited). A refusal is typed
    /// and retryable — the listener queue never converts overload into
    /// a thread-spawn panic.
    pub max_sessions: usize,
    /// Per-statement result quota: a result set whose encoded body
    /// (header + pages) would exceed this many bytes is cut off with a
    /// [`ErrorCode::QuotaExceeded`] error frame (`0` = unlimited). The
    /// session survives — only the offending statement fails.
    pub max_result_bytes_per_session: usize,
    /// Admission bound on the group-commit queue: a write arriving while
    /// this many writers already await the group fsync is refused with
    /// [`ErrorCode::ServerBusy`] *before* executing (`0` = unlimited).
    pub max_queued_writes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            page_rows: PAGE_ROWS,
            page_bytes: 1 << 20,
            idle_timeout: Some(Duration::from_secs(300)),
            write_timeout: Some(Duration::from_secs(30)),
            name: format!("sciql-net/{}", env!("CARGO_PKG_VERSION")),
            max_sessions: 1024,
            max_result_bytes_per_session: 0,
            max_queued_writes: 4096,
        }
    }
}

/// Shared server state (accept loop + every session handler).
struct Shared {
    engine: Arc<SharedEngine>,
    config: ServerConfig,
    /// The listening address, for the shutdown's wake-up connection.
    addr: SocketAddr,
    shutdown: Stop,
    active_sessions: AtomicU64,
}

impl Shared {
    /// Request a graceful shutdown: raise the flag, wake replication
    /// links parked on the watermark, and unblock the accept loop with a
    /// loopback connection to the listening port.
    fn shut_down(&self) {
        self.shutdown.stop();
        self.engine.watermark().wake();
        wake_accept(self.addr);
    }
}

/// A bound, not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) over a shared
    /// engine, with default tuning.
    pub fn bind(engine: Arc<SharedEngine>, addr: impl ToSocketAddrs) -> NetResult<Server> {
        Self::bind_with_config(engine, addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit tuning.
    pub fn bind_with_config(
        engine: Arc<SharedEngine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> NetResult<Server> {
        let listener = TcpListener::bind(addr)?;
        engine.set_max_queued_writes(config.max_queued_writes);
        Ok(Server {
            shared: Arc::new(Shared {
                engine,
                config,
                addr: listener.local_addr()?,
                shutdown: Stop::default(),
                active_sessions: AtomicU64::new(0),
            }),
            listener,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> NetResult<SocketAddr> {
        Ok(self.shared.addr)
    }

    /// Start serving on a background accept thread and return a handle
    /// for shutdown/wait.
    pub fn serve(self) -> NetResult<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handlers = Arc::clone(&handlers);
        let accept = std::thread::Builder::new()
            .name("sciql-net-accept".into())
            .spawn(move || {
                // Blocks in accept(); a shutdown wakes it by connecting.
                loop {
                    let accepted = listener.accept();
                    if shared.shutdown.is_stopped() {
                        break;
                    }
                    match accepted {
                        Ok((stream, peer)) => {
                            // Admission: the session count is claimed
                            // *here*, before the handler thread runs, so
                            // a burst of connections cannot race past
                            // the limit between accept and spawn.
                            let limit = shared.config.max_sessions;
                            if limit > 0
                                && shared.active_sessions.load(Ordering::SeqCst) >= limit as u64
                            {
                                refuse(stream, &shared.config, "session limit reached");
                                continue;
                            }
                            shared.active_sessions.fetch_add(1, Ordering::SeqCst);
                            let refusal = stream.try_clone().ok();
                            let session_shared = Arc::clone(&shared);
                            let spawned = std::thread::Builder::new()
                                .name(format!("sciql-net-{peer}"))
                                .spawn(move || {
                                    serve_session(&session_shared, stream);
                                    session_shared
                                        .active_sessions
                                        .fetch_sub(1, Ordering::SeqCst);
                                });
                            match spawned {
                                Ok(h) => {
                                    let mut hs = accept_handlers.lock().unwrap();
                                    hs.retain(|h| !h.is_finished());
                                    hs.push(h);
                                }
                                // Thread exhaustion is overload, not a
                                // reason to kill the accept loop: the
                                // client gets a typed, retryable refusal.
                                Err(_) => {
                                    shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
                                    if let Some(s) = refusal {
                                        refuse(s, &shared.config, "cannot spawn a session thread");
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            shared.shutdown.wait(ACCEPT_RETRY);
                        }
                    }
                }
            })
            .expect("spawn accept thread");
        Ok(ServerHandle {
            addr,
            shared: self.shared,
            accept: Some(accept),
            handlers,
        })
    }
}

/// Controls a serving server: request shutdown, wait for drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has a shutdown been requested (by [`ServerHandle::shutdown`] or a
    /// client `Shutdown` frame)?
    pub fn shutting_down(&self) -> bool {
        self.shared.shutdown.is_stopped()
    }

    /// Sessions currently connected.
    pub fn active_sessions(&self) -> u64 {
        self.shared.active_sessions.load(Ordering::SeqCst)
    }

    /// Request a graceful shutdown (idempotent, non-blocking): stop
    /// accepting, let in-flight statements finish, close sessions.
    pub fn shutdown(&self) {
        self.shared.shut_down();
    }

    /// Block until the accept loop and every session handler have
    /// exited. Returns the shared engine so the caller can checkpoint or
    /// reopen it embedded.
    pub fn wait(mut self) -> Arc<SharedEngine> {
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
        loop {
            let hs: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handlers.lock().unwrap());
            if hs.is_empty() {
                break;
            }
            for h in hs {
                h.join().ok();
            }
        }
        Arc::clone(&self.shared.engine)
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::wait`].
    pub fn stop(self) -> Arc<SharedEngine> {
        self.shutdown();
        self.wait()
    }
}

/// Why a session ended (drives the farewell, if any).
enum SessionEnd {
    /// Client sent `Close` or hung up cleanly.
    Closed,
    /// Server is shutting down.
    Shutdown,
    /// No frame within the idle timeout.
    Idle,
    /// Socket or framing failure — nothing more can be said to the peer.
    Broken,
}

/// Turn away a connection before its session starts: a best-effort
/// typed `ServerBusy` error frame — so the peer's driver surfaces a
/// retryable refusal instead of a dead socket — then hang up.
fn refuse(mut stream: TcpStream, config: &ServerConfig, why: &str) {
    stream.set_write_timeout(config.write_timeout).ok();
    stream.set_nodelay(true).ok();
    let message = format!("connection refused: {why}");
    proto::write_frame(
        &mut stream,
        &proto::error(ErrorCode::ServerBusy, &message, &proto::Trailer::default()),
    )
    .ok();
}

/// Byte-metering socket wrapper: every read and write a session makes
/// feeds the global `bytes_in`/`bytes_out` counters and the session's
/// own meter (the `bytes_in`/`bytes_out` columns of `sys.sessions`).
struct Metered<'a> {
    stream: &'a mut TcpStream,
    meter: sciql::SessionMeter,
}

impl std::io::Read for Metered<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = std::io::Read::read(self.stream, buf)?;
        sciql_obs::global().bytes_in.add(n as u64);
        self.meter.add_in(n as u64);
        Ok(n)
    }
}

impl std::io::Write for Metered<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.stream.write(buf)?;
        sciql_obs::global().bytes_out.add(n as u64);
        self.meter.add_out(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Reply backlog bound: a pipelined session's held-back replies are
/// pushed to the socket once they exceed this many bytes, so a large
/// result set streams instead of buffering whole in memory.
const WIRE_FLUSH_BYTES: usize = 256 * 1024;

/// Reply coalescer for pipelined sessions. `proto::write_frame` flushes
/// after every frame; here that flush is a no-op (below the backlog
/// bound) and actual transmission happens in [`Wire::flush_wire`], which
/// the session loop calls only once no complete request frame remains
/// buffered — so a client that sent N statements back-to-back gets its
/// N replies in one socket write.
struct Wire<'a> {
    inner: Metered<'a>,
    out: Vec<u8>,
}

impl std::io::Read for Wire<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::io::Read::read(&mut self.inner, buf)
    }
}

impl std::io::Write for Wire<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.len() >= WIRE_FLUSH_BYTES {
            self.flush_wire()
        } else {
            Ok(())
        }
    }
}

impl Wire<'_> {
    /// Push every held-back reply byte onto the socket.
    fn flush_wire(&mut self) -> std::io::Result<()> {
        if !self.out.is_empty() {
            self.inner.write_all(&self.out)?;
            self.out.clear();
        }
        self.inner.flush()
    }
}

/// One client from handshake to hangup.
fn serve_session(shared: &Shared, mut stream: TcpStream) {
    // A short read timeout turns the blocking socket into a poll loop:
    // between (and during) frames the handler keeps checking the
    // shutdown flag and the idle clock. The write timeout bounds how
    // long a client that stops draining its socket can pin this thread
    // (and hence how long a graceful shutdown can take).
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();
    stream.set_write_timeout(shared.config.write_timeout).ok();
    stream.set_nodelay(true).ok();
    let gauge = &sciql_obs::global().sessions_open;
    gauge.inc();
    let session_peer = stream.peer_addr();
    let mut session = shared.engine.session();
    if let Ok(peer) = session_peer {
        session.set_peer(&peer.to_string());
    }
    let meter = session.meter();
    let mut wire = Wire {
        inner: Metered {
            stream: &mut stream,
            meter,
        },
        out: Vec::new(),
    };
    let end = session_loop(shared, &mut wire, &mut session);
    // Best-effort farewell; the peer may already be gone.
    let farewell = match end {
        SessionEnd::Closed | SessionEnd::Broken => None,
        SessionEnd::Shutdown => Some("server shutting down"),
        SessionEnd::Idle => Some("idle timeout exceeded"),
    };
    if let Some(msg) = farewell {
        refuse_request(&mut wire, &session, ErrorCode::Connection, msg);
    }
    wire.flush_wire().ok();
    gauge.dec();
}

/// The trailer closing a reply: the session's last report, plus its
/// trace when the reply answers a statement of a tracing session.
fn trailer(session: &EngineSession, statement: bool) -> proto::Trailer {
    proto::Trailer {
        report: proto::ExecReport::from_last_exec(session.last_exec()),
        trace: match session.last_trace() {
            Some(t) if statement && session.tracing() => Some(t.render()),
            _ => None,
        },
    }
}

/// An `Error` frame outside a statement (handshake, malformed request,
/// farewell): the session's unchanged report and no trace. Returns
/// `false`, for the callers that end the session on it.
fn refuse_request(
    stream: &mut Wire<'_>,
    session: &EngineSession,
    code: ErrorCode,
    message: &str,
) -> bool {
    let frame = proto::error(code, message, &trailer(session, false));
    proto::write_frame(stream, &frame).ok();
    false
}

fn session_loop(shared: &Shared, stream: &mut Wire<'_>, session: &mut EngineSession) -> SessionEnd {
    let mut fb = FrameBuffer::new();
    let mut greeted = false;
    let mut last_activity = Instant::now();
    loop {
        // Pipelining: replies stay coalesced while the client still has
        // a complete request frame buffered; the batch goes out in one
        // socket write before this thread blocks on the next read.
        if !fb.has_complete_frame() && stream.flush_wire().is_err() {
            return SessionEnd::Broken;
        }
        if shared.shutdown.is_stopped() {
            return SessionEnd::Shutdown;
        }
        if let Some(limit) = shared.config.idle_timeout {
            if last_activity.elapsed() > limit {
                return SessionEnd::Idle;
            }
        }
        let buffered_before = fb.buffered_bytes();
        let frame = match fb.poll_frame(stream) {
            Ok(Some(f)) => f,
            Ok(None) => {
                // A partial frame trickling in is activity too: a slow
                // upload must not be reaped as idle mid-transfer.
                if fb.buffered_bytes() != buffered_before {
                    last_activity = Instant::now();
                }
                continue;
            }
            Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return SessionEnd::Closed;
            }
            Err(_) => return SessionEnd::Broken,
        };
        last_activity = Instant::now();
        let (op, body) = match proto::split(&frame) {
            Ok(x) => x,
            Err(e) => {
                refuse_request(stream, session, ErrorCode::Protocol, &e.to_string());
                return SessionEnd::Broken;
            }
        };
        if !greeted {
            let mut r = Reader::new(body);
            let refusal = if op != Op::Hello {
                Some("handshake required: first frame must be Hello")
            } else if r.u16().is_err() || r.str().is_err() {
                Some("malformed Hello")
            } else {
                None
            };
            if let Some(why) = refusal {
                refuse_request(stream, session, ErrorCode::Protocol, why);
                return SessionEnd::Broken;
            }
            // Versioning: we always answer with the version we speak;
            // an incompatible client hangs up after inspecting it.
            if proto::write_frame(stream, &proto::hello_ok(&shared.config.name, session.id()))
                .is_err()
            {
                return SessionEnd::Broken;
            }
            greeted = true;
            continue;
        }
        let ok = match op {
            Op::Ping => proto::write_frame(stream, &proto::bare(Op::Pong)).is_ok(),
            Op::Close => return SessionEnd::Closed,
            Op::Shutdown => {
                shared.shut_down();
                proto::write_frame(stream, &proto::bare(Op::Ok)).ok();
                return SessionEnd::Shutdown;
            }
            Op::Query => match proto::read_query(body) {
                Ok((trace, token, sql)) => {
                    session.set_tracing(trace);
                    if token != (0, 0)
                        && !session.wait_for_token(token, Instant::now() + TOKEN_WAIT)
                    {
                        lagging_reply(stream, shared, session, token)
                    } else {
                        let result = session.execute(&sql);
                        answer(stream, shared, session, result)
                    }
                }
                Err(e) => refuse_request(stream, session, ErrorCode::Protocol, &e.to_string()),
            },
            Op::ExecBound => match proto::read_exec_bound(body) {
                Ok((trace, name, values)) => {
                    session.set_tracing(trace);
                    let result = session.execute_prepared(&name, &values);
                    answer(stream, shared, session, result)
                }
                Err(e) => refuse_request(stream, session, ErrorCode::Protocol, &e.to_string()),
            },
            Op::Prepare => {
                let mut r = Reader::new(body);
                match (r.str(), r.str()) {
                    (Ok(name), Ok(sql)) => match session.prepare(&name, &sql) {
                        Ok(nparams) => {
                            proto::write_frame(stream, &proto::stmt_ok(nparams as u16)).is_ok()
                        }
                        Err(e) => {
                            let frame =
                                proto::error(e.code(), &e.to_string(), &trailer(session, false));
                            proto::write_frame(stream, &frame).is_ok()
                        }
                    },
                    _ => refuse_request(stream, session, ErrorCode::Protocol, "malformed Prepare"),
                }
            }
            Op::Deallocate => match Reader::new(body).str() {
                Ok(name) => {
                    let existed = session.deallocate(&name);
                    let token = session.last_commit_token().unwrap_or((0, 0));
                    let frame = proto::affected(existed as u64, token, &trailer(session, false));
                    proto::write_frame(stream, &frame).is_ok()
                }
                Err(_) => {
                    refuse_request(stream, session, ErrorCode::Protocol, "malformed Deallocate")
                }
            },
            Op::ReplHello => {
                // The session turns into a replication link: from here
                // on this socket speaks only ReplRecord/ReplSnapshot
                // (outbound) and ReplAck (inbound), until hangup.
                return match proto::read_repl_position(body) {
                    Ok(pos) => serve_replication(shared, stream, &mut fb, pos),
                    Err(e) => {
                        refuse_request(stream, session, ErrorCode::Protocol, &e.to_string());
                        SessionEnd::Broken
                    }
                };
            }
            other => refuse_request(
                stream,
                session,
                ErrorCode::Protocol,
                &format!("unexpected client opcode {other:?}"),
            ),
        };
        if !ok {
            return SessionEnd::Broken;
        }
    }
}

/// Answer a token-constrained read the replica could not serve within
/// [`TOKEN_WAIT`]: a typed refusal instead of stale rows.
fn lagging_reply(
    stream: &mut Wire<'_>,
    shared: &Shared,
    session: &EngineSession,
    token: proto::WalToken,
) -> bool {
    let (agen, apos) = shared.engine.applied_position();
    let message = format!(
        "replica lagging: applied WAL position ({agen}, {apos}) has not reached \
         the requested read token ({}, {}) — retry, or read from the primary",
        token.0, token.1
    );
    let frame = proto::error(
        ErrorCode::ReplicaLagging,
        &message,
        &trailer(session, false),
    );
    proto::write_frame(stream, &frame).is_ok()
}

/// A snapshot transfer's two failure modes.
enum ShipError {
    /// The engine could not produce the image (reported to the peer).
    Engine(sciql::EngineError),
    /// The socket died mid-transfer (nothing more can be said).
    Io,
}

/// Send the primary's full vault image as a chunked `ReplSnapshot`
/// transfer (Begin, then per file a `File` announcement and its
/// `Chunk`s, then `End`). Returns the image's `(generation, durable)`.
fn ship_snapshot(shared: &Shared, stream: &mut Wire<'_>) -> Result<(u64, u64), ShipError> {
    // Chunks stay well under MAX_FRAME so a big column file cannot
    // produce an oversized frame.
    const CHUNK: usize = 4 << 20;
    let image = shared.engine.vault_image().map_err(ShipError::Engine)?;
    let send = |stream: &mut Wire<'_>, f: &proto::ReplSnapshotFrame| {
        proto::write_frame(stream, &proto::repl_snapshot(f)).map_err(|_| ShipError::Io)
    };
    send(
        stream,
        &proto::ReplSnapshotFrame::Begin {
            generation: image.generation,
            durable: image.durable,
            files: image.files.len() as u32,
        },
    )?;
    for (name, bytes) in &image.files {
        send(
            stream,
            &proto::ReplSnapshotFrame::File {
                name: name.clone(),
                size: bytes.len() as u64,
            },
        )?;
        for chunk in bytes.chunks(CHUNK) {
            send(stream, &proto::ReplSnapshotFrame::Chunk(chunk.to_vec()))?;
        }
    }
    send(stream, &proto::ReplSnapshotFrame::End)?;
    stream.flush_wire().map_err(|_| ShipError::Io)?;
    Ok((image.generation, image.durable))
}

/// What a replication link's shipper and its ack reader share.
struct Link {
    /// Generation and position shipped so far.
    generation: u64,
    shipped: u64,
    /// The primary's durable position as of the last ship.
    durable: u64,
    /// The position the replica last acknowledged as applied.
    acked: proto::WalToken,
    /// Why the replica side ended the link, once it has.
    end: Option<SessionEnd>,
}

impl Link {
    /// Publish this link's positions to `sys.replication`.
    fn publish(&self, peer: &str) {
        sciql_obs::replication().upsert(sciql_obs::ReplLink {
            role: sciql_obs::ReplRole::Primary,
            peer: peer.to_owned(),
            generation: self.generation,
            shipped: self.shipped,
            applied: if self.acked.0 == self.generation {
                self.acked.1
            } else {
                0
            },
            durable: self.durable,
        });
    }
}

/// Stream acknowledged WAL records to a connected replica until it
/// hangs up or the server shuts down. Entered when a session's first
/// post-handshake frame is `ReplHello` (carrying the replica's applied
/// position). A replica on another generation — the primary
/// checkpointed — or ahead of the durable WAL is re-bootstrapped with
/// a full snapshot; otherwise only records at or below the durable
/// watermark are shipped, so a primary crash can never leave a replica
/// *ahead* of what the primary recovers.
///
/// The session thread ships; a second thread reads the replica's
/// `ReplAck`s and its hangup off a clone of the socket.
fn serve_replication(
    shared: &Shared,
    stream: &mut Wire<'_>,
    fb: &mut FrameBuffer,
    hello: proto::WalToken,
) -> SessionEnd {
    if !shared.engine.is_persistent() {
        let frame = proto::error(
            ErrorCode::Statement,
            "replication requires a persistent (vault-backed) primary",
            &proto::Trailer::default(),
        );
        proto::write_frame(stream, &frame).ok();
        stream.flush_wire().ok();
        return SessionEnd::Closed;
    }
    let peer = stream
        .inner
        .stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let Ok(rx) = stream.inner.stream.try_clone() else {
        return SessionEnd::Broken;
    };
    let (fb, meter) = (std::mem::take(fb), stream.inner.meter.clone());
    let link = Mutex::new(Link {
        generation: hello.0,
        shipped: hello.1,
        durable: hello.1,
        acked: hello,
        end: None,
    });
    let end = std::thread::scope(|scope| {
        let reader = std::thread::Builder::new()
            .name(format!("sciql-repl-acks-{peer}"))
            .spawn_scoped(scope, || read_acks(shared, rx, fb, meter, &link, &peer));
        if reader.is_err() {
            return SessionEnd::Broken;
        }
        let end = ship(shared, stream, hello, &link, &peer);
        // The reader's blocking read returns once the read side is shut.
        stream.inner.stream.shutdown(Shutdown::Read).ok();
        end
    });
    sciql_obs::replication().remove(sciql_obs::ReplRole::Primary, &peer);
    end
}

/// The replica's half of a link: acknowledgements until it hangs up.
/// The end of the link wakes the shipper off the watermark.
fn read_acks(
    shared: &Shared,
    mut rx: TcpStream,
    mut fb: FrameBuffer,
    meter: SessionMeter,
    link: &Mutex<Link>,
    peer: &str,
) {
    rx.set_read_timeout(None).ok();
    let mut rx = Metered {
        stream: &mut rx,
        meter,
    };
    let end = loop {
        match fb.poll_frame(&mut rx) {
            Ok(Some(frame)) => match proto::split(&frame) {
                Ok((Op::ReplAck, body)) => {
                    if let Ok(pos) = proto::read_repl_position(body) {
                        let mut l = link.lock().unwrap_or_else(|e| e.into_inner());
                        l.acked = pos;
                        l.publish(peer);
                    }
                }
                Ok((Op::Close, _)) => break SessionEnd::Closed,
                _ => break SessionEnd::Broken,
            },
            Ok(None) => {}
            Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                break SessionEnd::Closed;
            }
            Err(_) => break SessionEnd::Broken,
        }
    };
    link.lock().unwrap_or_else(|e| e.into_inner()).end = Some(end);
    shared.engine.watermark().wake();
}

/// The primary's half of a link: park on the watermark until it passes
/// what was shipped, then ship exactly the new WAL bytes; a heartbeat
/// when idle.
fn ship(
    shared: &Shared,
    stream: &mut Wire<'_>,
    hello: proto::WalToken,
    link: &Mutex<Link>,
    peer: &str,
) -> SessionEnd {
    let watermark = shared.engine.watermark();
    let (mut repl_gen, mut sent) = hello;
    let mut last_send = Instant::now();
    loop {
        // Look before checking the exits: a wake after this look makes
        // the wait below return at once.
        let mark = watermark.mark();
        if shared.shutdown.is_stopped() {
            return SessionEnd::Shutdown;
        }
        if let Some(end) = link.lock().unwrap_or_else(|e| e.into_inner()).end.take() {
            return end;
        }
        let (gen, durable) = mark.position();
        let current = gen == repl_gen && sent <= durable;
        if current && sent == durable {
            if last_send.elapsed() < HEARTBEAT {
                watermark.wait_past(mark, last_send + HEARTBEAT);
                continue;
            }
            // Heartbeat: keeps the replica's durable/lag view fresh and
            // detects a dead peer even when the primary is idle.
            let hb = proto::repl_record(gen, durable, None);
            if proto::write_frame(stream, &hb).is_err() || stream.flush_wire().is_err() {
                return SessionEnd::Broken;
            }
        } else {
            let tail = if current {
                match ship_tail(shared, stream, mark, sent) {
                    Ok(tail) => tail,
                    Err(end) => return end,
                }
            } else {
                None
            };
            match tail {
                Some(end) => sent = end,
                // Another generation, ahead of the durable WAL, or the
                // generation rotated away under the tail read: bootstrap.
                None => match ship_snapshot(shared, stream) {
                    Ok((g, d)) => {
                        (repl_gen, sent) = (g, d);
                        link.lock().unwrap_or_else(|e| e.into_inner()).acked = (g, d);
                    }
                    Err(ShipError::Engine(e)) => {
                        let frame =
                            proto::error(e.code(), &e.to_string(), &proto::Trailer::default());
                        proto::write_frame(stream, &frame).ok();
                        stream.flush_wire().ok();
                        return SessionEnd::Broken;
                    }
                    Err(ShipError::Io) => return SessionEnd::Broken,
                },
            }
        }
        last_send = Instant::now();
        let mut l = link.lock().unwrap_or_else(|e| e.into_inner());
        (l.generation, l.shipped, l.durable) = (repl_gen, sent, durable.max(sent));
        l.publish(peer);
    }
}

/// Ship the WAL records between `sent` and the published durable
/// position `mark`. Returns the new shipped position, or `None` when the
/// generation rotated away before or during the read, or no whole
/// record starts at `sent` (the replica's log does not line up with
/// this one).
fn ship_tail(
    shared: &Shared,
    stream: &mut Wire<'_>,
    mark: Mark,
    sent: u64,
) -> Result<Option<u64>, SessionEnd> {
    let (gen, durable) = mark.position();
    let records = match shared.engine.wal_tail(gen, sent, durable) {
        Ok(Some(records)) => records,
        Ok(None) => return Ok(None),
        Err(e) => {
            let frame = proto::error(e.code(), &e.to_string(), &proto::Trailer::default());
            proto::write_frame(stream, &frame).ok();
            stream.flush_wire().ok();
            return Err(SessionEnd::Broken);
        }
    };
    let m = sciql_obs::global();
    for r in &records {
        let frame = proto::repl_record(gen, durable, Some((r.end, &r.payload)));
        proto::write_frame(stream, &frame).map_err(|_| SessionEnd::Broken)?;
        m.repl_records_shipped.inc();
    }
    m.repl_ship_delay_ns.observe(mark.at.elapsed());
    stream.flush_wire().map_err(|_| SessionEnd::Broken)?;
    Ok(records.last().map(|r| r.end))
}

/// Stream one statement's outcome: `Affected`, an `Error`, or header +
/// pages + done, each closing frame carrying the session's trailer.
/// Returns `false` when the socket died.
fn answer(
    stream: &mut Wire<'_>,
    shared: &Shared,
    session: &EngineSession,
    result: sciql::Result<QueryResult>,
) -> bool {
    let frame = match result {
        Err(e) => proto::error(e.code(), &e.to_string(), &trailer(session, true)),
        Ok(QueryResult::Affected(n)) => {
            let token = session.last_commit_token().unwrap_or((0, 0));
            proto::affected(n as u64, token, &trailer(session, true))
        }
        Ok(QueryResult::Rows(rs)) => {
            // The quota counts header and page bodies, opcodes aside.
            let header = rs.encode_header();
            let mut sent = header.len();
            let framed = proto::put_frame(&mut stream.out, |p| {
                p.push(Op::ResultHeader as u8);
                p.extend_from_slice(&header);
            });
            if framed.is_err() {
                return false;
            }
            // Each page is encoded once, straight into the reply buffer,
            // and closes at page_rows rows *or* page_bytes of cells,
            // whichever comes first, so no row mix can push a frame past
            // MAX_FRAME; the buffer goes out whenever it passes
            // WIRE_FLUSH_BYTES, so only about one flush worth of pages is
            // ever held.
            let limit = shared.config.max_result_bytes_per_session;
            let (total, mut row, mut npages) = (rs.row_count(), 0, 0u32);
            while row < total {
                let n = rs.page_rows(row, shared.config.page_rows, shared.config.page_bytes);
                let at = stream.out.len();
                let Ok(len) = proto::put_frame(&mut stream.out, |p| {
                    p.push(Op::ResultPage as u8);
                    rs.put_page(row..row + n, p);
                }) else {
                    return false;
                };
                sent += len - 1;
                if limit > 0 && sent > limit {
                    // Quota: take the page back and cut the stream with
                    // a typed mid-stream error (wire-legal inside a
                    // result stream). Only the statement fails; the
                    // session stays aligned.
                    stream.out.truncate(at);
                    let message =
                        format!("result set exceeds max_result_bytes_per_session ({limit} bytes)");
                    let frame =
                        proto::error(ErrorCode::QuotaExceeded, &message, &trailer(session, true));
                    return proto::write_frame(stream, &frame).is_ok();
                }
                if stream.flush().is_err() {
                    return false;
                }
                row += n;
                npages += 1;
            }
            proto::result_done(total as u64, npages, &trailer(session, true))
        }
    };
    proto::write_frame(stream, &frame).is_ok()
}
