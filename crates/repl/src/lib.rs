//! # sciql-repl — WAL-shipping replication, replica side
//!
//! A replica is an ordinary vault-backed engine that never executes
//! writes of its own: it connects to a primary `sciql-net` server,
//! announces its applied WAL position (`ReplHello`), and appends every
//! `ReplRecord` the primary ships *verbatim* to its own WAL before
//! replaying it — the same append-then-replay path crash recovery
//! uses. Because the WAL framing is deterministic, the replica's vault
//! is a byte-identical twin of the primary's, and its own WAL length
//! *is* its durably applied position: a replica killed mid-stream
//! reopens, recovers its WAL exactly like a crashed primary would, and
//! resumes shipping from where its disk actually got to. No sidecar
//! position file exists to drift out of sync.
//!
//! When the replica's generation no longer exists on the primary (the
//! primary checkpointed and garbage-collected the old WAL) the primary
//! re-bootstraps it with a chunked `ReplSnapshot` file transfer. The
//! transfer stages into a scratch subdirectory and renames `MANIFEST`
//! into place *last*: a replica killed mid-bootstrap reopens as a fresh
//! vault (a missing `MANIFEST` means "fresh" to the store) and simply
//! bootstraps again. The engine lock is held for the whole swap, so a
//! concurrent read blocks rather than observing a half-installed image.
//!
//! Everything one socket read delivers is applied as one **burst**,
//! under one engine-lock acquisition: the records are appended to the
//! replica's WAL, fsynced once, applied in order, and only then is the
//! burst's end published on the engine's watermark and acknowledged
//! upstream. The tailer blocks in `read` between bursts; an idle
//! primary sends heartbeats, which are acknowledged too. [`Replica::stop`]
//! wakes a tailer blocked in `read` by shutting its socket down. The
//! two [`ReplicaConfig`] fields are the pause before redialling a lost
//! primary (`reconnect_backoff`, cut short by a stop) and the client
//! name sent in the handshake (`name`); acknowledgements need no timer.
//!
//! Reads against the replica go through the normal server or embedded
//! session paths; writes are refused by the engine's read-only guard.
//! Monotonic reads ride on the wire's read token: a write acknowledged by
//! the primary carries its durable WAL position, and a replica read
//! presenting that token waits (bounded) on the watermark until the
//! replica has applied at least that much.
//!
//! ```no_run
//! use sciql_repl::Replica;
//!
//! let replica = Replica::connect("/var/lib/sciql-replica", "127.0.0.1:4444").unwrap();
//! let mut session = replica.engine().session();
//! // Read-only queries; writes fail with a read-only error.
//! let rs = session.execute("SELECT COUNT(*) FROM t").unwrap();
//! replica.stop();
//! ```

#![warn(missing_docs)]

use sciql::{Connection, SharedEngine};
use sciql_net::proto::{self, FrameBuffer, Op, ReplSnapshotFrame, WalToken, PROTO_VERSION};
use sciql_net::Stop;
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Replication errors: the local engine or the link to the primary.
#[derive(Debug)]
pub enum ReplError {
    /// The replica's own engine failed (open, apply, bootstrap).
    Engine(sciql::EngineError),
    /// The connection to the primary failed.
    Net(sciql_net::NetError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Engine(e) => write!(f, "replica engine: {e}"),
            ReplError::Net(e) => write!(f, "replication link: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<sciql::EngineError> for ReplError {
    fn from(e: sciql::EngineError) -> Self {
        ReplError::Engine(e)
    }
}
impl From<sciql_net::NetError> for ReplError {
    fn from(e: sciql_net::NetError) -> Self {
        ReplError::Net(e)
    }
}

/// Replica result type.
pub type ReplResult<T> = Result<T, ReplError>;

/// Tailer tuning knobs. Acknowledgements need none: the tailer acks
/// after every applied burst and every heartbeat.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Delay before redialling a lost primary ([`Replica::stop`] cuts
    /// it short).
    pub reconnect_backoff: Duration,
    /// Client name announced in the handshake.
    pub name: String,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            reconnect_backoff: Duration::from_millis(500),
            name: "sciql-replica".into(),
        }
    }
}

/// The tailer's stop signal and its live link to the primary, which a
/// stop shuts down so a tailer blocked in `read` returns at once.
#[derive(Debug, Default)]
struct Control {
    stop: Stop,
    link: Mutex<Option<TcpStream>>,
}

impl Control {
    /// Keep a handle on `stream` for [`Control::stop`] to shut down.
    /// `Ok(false)` when the stop came first.
    fn attach(&self, stream: &TcpStream) -> std::io::Result<bool> {
        let mut link = self.link.lock().unwrap_or_else(|e| e.into_inner());
        if self.stop.is_stopped() {
            return Ok(false);
        }
        *link = Some(stream.try_clone()?);
        Ok(true)
    }

    /// Raise the stop flag (ending any reconnect backoff) and shut the
    /// live link down. The flag goes up first, so a link attached
    /// concurrently is either refused or shut here.
    fn stop(&self) {
        self.stop.stop();
        let link = self.link.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(s) = link {
            s.shutdown(Shutdown::Both).ok();
        }
    }
}

/// A read-only engine kept in sync with a primary by a background
/// tailer thread. Dropping the handle stops the tailer;
/// [`Replica::stop`] additionally detaches the vault so the data
/// directory's `LOCK` is released for the next process.
pub struct Replica {
    engine: Arc<SharedEngine>,
    primary: String,
    control: Arc<Control>,
    tailer: Option<JoinHandle<()>>,
}

impl Replica {
    /// Open (or create) the replica vault at `dir` — recovering its own
    /// WAL first, exactly like a crashed primary — and start tailing
    /// the primary at `primary_addr` with default tuning.
    pub fn connect(dir: impl Into<PathBuf>, primary_addr: &str) -> ReplResult<Replica> {
        Self::connect_with_config(dir, primary_addr, ReplicaConfig::default())
    }

    /// [`Replica::connect`] with explicit tuning.
    pub fn connect_with_config(
        dir: impl Into<PathBuf>,
        primary_addr: &str,
        config: ReplicaConfig,
    ) -> ReplResult<Replica> {
        let dir = dir.into();
        let engine = SharedEngine::open_replica(&dir)?;
        let control = Arc::new(Control::default());
        let tailer = {
            let engine = Arc::clone(&engine);
            let control = Arc::clone(&control);
            let primary = primary_addr.to_string();
            let config = config.clone();
            std::thread::Builder::new()
                .name("sciql-repl-tailer".into())
                .spawn(move || tailer_loop(&engine, &primary, &config, &control))
                .expect("spawn replication tailer")
        };
        Ok(Replica {
            engine,
            primary: primary_addr.to_string(),
            control,
            tailer: Some(tailer),
        })
    }

    /// The replica's shared engine: open read sessions on it, serve it
    /// over `sciql_net::Server`, or inspect `sys.replication`.
    pub fn engine(&self) -> &Arc<SharedEngine> {
        &self.engine
    }

    /// The primary address this replica tails.
    pub fn primary(&self) -> &str {
        &self.primary
    }

    /// The replica's applied `(generation, WAL bytes)`: the end of the
    /// last burst it executed.
    pub fn applied(&self) -> WalToken {
        self.engine.applied_position()
    }

    /// Clean shutdown: stop the tailer, deregister the replication
    /// link, and detach the vault so the data directory's `LOCK` is
    /// released even while other `Arc` handles to the engine live on
    /// (those keep working, over an empty in-memory state).
    pub fn stop(mut self) {
        self.shutdown();
        let mut conn = self.engine.connection();
        let old = std::mem::replace(&mut *conn, Connection::new());
        drop(conn);
        drop(old);
    }

    fn shutdown(&mut self) {
        self.control.stop();
        if let Some(h) = self.tailer.take() {
            h.join().ok();
        }
        sciql_obs::replication().remove(sciql_obs::ReplRole::Replica, &self.primary);
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Dial, handshake, tail; redial on any failure until stopped.
fn tailer_loop(
    engine: &Arc<SharedEngine>,
    primary: &str,
    config: &ReplicaConfig,
    control: &Control,
) {
    while !control.stop.is_stopped() {
        if tail_once(engine, primary, config, control).is_err() {
            control.stop.wait(config.reconnect_backoff);
        }
    }
}

/// Publish this replica's view of the link to `sys.replication`.
fn publish(primary: &str, applied: WalToken, durable: u64) {
    sciql_obs::replication().upsert(sciql_obs::ReplLink {
        role: sciql_obs::ReplRole::Replica,
        peer: primary.to_string(),
        generation: applied.0,
        shipped: applied.1,
        applied: applied.1,
        durable,
    });
}

/// One connection lifetime: handshake, `ReplHello`, apply the stream.
fn tail_once(
    engine: &Arc<SharedEngine>,
    primary: &str,
    config: &ReplicaConfig,
    control: &Control,
) -> ReplResult<()> {
    let mut stream = TcpStream::connect(primary).map_err(sciql_net::NetError::Io)?;
    stream.set_nodelay(true).ok();
    if !control.attach(&stream).map_err(sciql_net::NetError::Io)? {
        return Ok(());
    }
    proto::write_frame(&mut stream, &proto::hello(&config.name))?;
    let frame = proto::read_frame(&mut stream)?
        .ok_or_else(|| ReplError::Net(sciql_net::NetError::protocol("primary hung up")))?;
    match proto::split(&frame)? {
        (Op::HelloOk, body) => {
            let theirs = gdk::codec::Reader::new(body)
                .u16()
                .map_err(|_| sciql_net::NetError::protocol("malformed HelloOk"))?;
            if theirs != PROTO_VERSION {
                return Err(ReplError::Net(sciql_net::NetError::Version {
                    ours: PROTO_VERSION,
                    theirs,
                }));
            }
        }
        (Op::Error, body) => return Err(ReplError::Net(proto::read_error(body)?.0)),
        (op, _) => {
            return Err(ReplError::Net(sciql_net::NetError::protocol(format!(
                "expected HelloOk, got {op:?}"
            ))))
        }
    }
    // Resume from what the replica's own WAL holds, executed or not:
    // those records are on disk and must not be shipped twice.
    let applied = engine.connection().wal_applied();
    proto::write_frame(&mut stream, &proto::repl_position(Op::ReplHello, applied))?;
    let mut fb = FrameBuffer::new();
    let mut bootstrap: Option<Bootstrap<'_>> = None;
    let mut primary_durable = applied.1;
    publish(primary, applied, primary_durable);
    loop {
        // Block until the primary sends something, then take every frame
        // that read completed.
        let Some(first) = fb.poll_frame(&mut stream)? else {
            continue;
        };
        let mut frames = vec![first];
        while fb.has_complete_frame() {
            frames.extend(fb.poll_frame(&mut stream)?);
        }
        let mut burst = Burst::default();
        let mut ack = false;
        for frame in &frames {
            match proto::split(frame)? {
                (Op::ReplRecord, body) => {
                    let (generation, durable, record) = proto::read_repl_record(body)?;
                    primary_durable = durable;
                    match record {
                        Some((end, payload)) => burst.push(generation, end, payload),
                        None => ack = true,
                    }
                }
                (Op::ReplSnapshot, body) => {
                    ack |= burst.apply(engine, bootstrap.is_some())?;
                    let f = proto::read_repl_snapshot(body)?;
                    ack |= matches!(f, ReplSnapshotFrame::End);
                    apply_snapshot_frame(engine, &mut bootstrap, f)?;
                }
                (Op::Error, body) => return Err(ReplError::Net(proto::read_error(body)?.0)),
                (op, _) => {
                    return Err(ReplError::Net(sciql_net::NetError::protocol(format!(
                        "unexpected {op:?} on a replication link"
                    ))))
                }
            }
        }
        ack |= burst.apply(engine, bootstrap.is_some())?;
        // While a bootstrap holds the engine lock there is nothing
        // meaningful to acknowledge.
        if ack && bootstrap.is_none() {
            let applied = engine.applied_position();
            proto::write_frame(&mut stream, &proto::repl_position(Op::ReplAck, applied))?;
            stream.flush().map_err(sciql_net::NetError::Io)?;
            publish(primary, applied, primary_durable.max(applied.1));
        }
    }
}

/// The WAL records one socket read delivered, in order.
#[derive(Default)]
struct Burst {
    payloads: Vec<Vec<u8>>,
    /// Generation and end position of the last record, per the primary.
    generation: u64,
    end: u64,
}

impl Burst {
    fn push(&mut self, generation: u64, end: u64, payload: Vec<u8>) {
        self.payloads.push(payload);
        (self.generation, self.end) = (generation, end);
    }

    /// Append, fsync and execute the burst under one engine-lock
    /// acquisition, then publish its end on the watermark — only now
    /// may a token waiter see it. Returns whether there was anything.
    fn apply(&mut self, engine: &SharedEngine, bootstrapping: bool) -> ReplResult<bool> {
        if self.payloads.is_empty() {
            return Ok(false);
        }
        if bootstrapping {
            return Err(ReplError::Net(sciql_net::NetError::protocol(
                "WAL record in the middle of a snapshot transfer",
            )));
        }
        let (generation, pos) = {
            let mut conn = engine.connection();
            conn.apply_replicated(&self.payloads)?;
            conn.wal_applied()
        };
        self.payloads.clear();
        if pos != self.end {
            // Byte parity broken — the stream cannot be trusted record
            // by record any more. Drop the link; the redial announces
            // the diverged position and the primary answers with a
            // fresh bootstrap.
            return Err(ReplError::Net(sciql_net::NetError::protocol(format!(
                "replica WAL diverged: applied to byte {pos}, primary says {} \
                 (generation {})",
                self.end, self.generation
            ))));
        }
        engine.watermark().publish(generation, pos);
        Ok(true)
    }
}

/// Scratch subdirectory a `ReplSnapshot` transfer stages into before
/// the rename-into-place on `End`. A leftover from a killed bootstrap
/// is wiped by the next `Begin`.
const STAGING: &str = ".repl-incoming";

/// In-flight `ReplSnapshot` transfer. Holds the engine lock for the
/// whole swap: concurrent reads block instead of observing the window
/// where the old state is gone and the new one not yet installed.
struct Bootstrap<'a> {
    guard: MutexGuard<'a, Connection>,
    dir: PathBuf,
    staging: PathBuf,
    /// Dir-relative paths received so far.
    received: Vec<PathBuf>,
    /// The file currently streaming in: destination handle and bytes
    /// still expected.
    current: Option<(std::fs::File, u64)>,
    files_left: u32,
}

/// Advance a bootstrap with one `ReplSnapshot` frame.
fn apply_snapshot_frame<'a>(
    engine: &'a Arc<SharedEngine>,
    bootstrap: &mut Option<Bootstrap<'a>>,
    frame: ReplSnapshotFrame,
) -> ReplResult<()> {
    let io_err = |e: std::io::Error| ReplError::Net(sciql_net::NetError::Io(e));
    match frame {
        ReplSnapshotFrame::Begin { files, .. } => {
            let dir = engine
                .data_dir()
                .ok_or_else(|| sciql::EngineError::msg("replica engine lost its vault"))?;
            // Detach the vault (releasing its LOCK lease on `dir`) but
            // keep holding the connection lock until End.
            let mut guard = engine.connection();
            let old = std::mem::replace(&mut *guard, Connection::new());
            drop(old);
            let staging = dir.join(STAGING);
            std::fs::remove_dir_all(&staging).ok();
            std::fs::create_dir_all(&staging).map_err(io_err)?;
            *bootstrap = Some(Bootstrap {
                guard,
                dir,
                staging,
                received: Vec::new(),
                current: None,
                files_left: files,
            });
        }
        ReplSnapshotFrame::File { name, size } => {
            let b = bootstrap
                .as_mut()
                .ok_or_else(|| sciql_net::NetError::protocol("snapshot File before Begin"))?;
            if b.files_left == 0 {
                return Err(ReplError::Net(sciql_net::NetError::protocol(
                    "snapshot announced more files than Begin declared",
                )));
            }
            if b.current.as_ref().is_some_and(|(_, left)| *left > 0) {
                return Err(ReplError::Net(sciql_net::NetError::protocol(
                    "snapshot File before the previous file completed",
                )));
            }
            b.files_left -= 1;
            // Reject traversal: every path must stay inside the vault.
            let rel = PathBuf::from(&name);
            if rel.is_absolute() || rel.components().any(|c| c.as_os_str() == "..") {
                return Err(ReplError::Net(sciql_net::NetError::protocol(format!(
                    "snapshot names a path outside the vault: {name:?}"
                ))));
            }
            let path = b.staging.join(&rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).map_err(io_err)?;
            }
            let file = std::fs::File::create(&path).map_err(io_err)?;
            b.received.push(rel);
            b.current = Some((file, size));
        }
        ReplSnapshotFrame::Chunk(bytes) => {
            let b = bootstrap
                .as_mut()
                .ok_or_else(|| sciql_net::NetError::protocol("snapshot Chunk before Begin"))?;
            let (file, left) = b
                .current
                .as_mut()
                .ok_or_else(|| sciql_net::NetError::protocol("snapshot Chunk before File"))?;
            if (bytes.len() as u64) > *left {
                return Err(ReplError::Net(sciql_net::NetError::protocol(
                    "snapshot Chunk overruns its File size",
                )));
            }
            file.write_all(&bytes).map_err(io_err)?;
            *left -= bytes.len() as u64;
        }
        ReplSnapshotFrame::End => {
            let mut b = bootstrap
                .take()
                .ok_or_else(|| sciql_net::NetError::protocol("snapshot End before Begin"))?;
            if b.files_left != 0 || b.current.as_ref().is_some_and(|(_, left)| *left > 0) {
                return Err(ReplError::Net(sciql_net::NetError::protocol(
                    "snapshot ended before every announced byte arrived",
                )));
            }
            if let Some((file, _)) = b.current.take() {
                file.sync_all().map_err(io_err)?;
            }
            // Clear the old image (everything except the staging dir),
            // then rename the received files into place — MANIFEST
            // last, so a kill anywhere in this sequence leaves a dir
            // the store opens as "fresh" and the next connection simply
            // bootstraps again.
            for entry in std::fs::read_dir(&b.dir).map_err(io_err)? {
                let entry = entry.map_err(io_err)?;
                if entry.file_name() == STAGING {
                    continue;
                }
                let p = entry.path();
                if entry.file_type().map_err(io_err)?.is_dir() {
                    std::fs::remove_dir_all(&p).map_err(io_err)?;
                } else {
                    std::fs::remove_file(&p).map_err(io_err)?;
                }
            }
            b.received.sort_by_key(|rel| rel.as_os_str() == "MANIFEST");
            for rel in &b.received {
                let to = b.dir.join(rel);
                if let Some(parent) = to.parent() {
                    std::fs::create_dir_all(parent).map_err(io_err)?;
                }
                std::fs::rename(b.staging.join(rel), &to).map_err(io_err)?;
            }
            std::fs::remove_dir_all(&b.staging).ok();
            // Swap the received image in; reopening replays its WAL
            // through the same recovery path a restart uses. The new
            // image may sit behind the old one, so the watermark is
            // reset, not advanced.
            *b.guard = Connection::open_replica(&b.dir)?;
            let (generation, pos) = b.guard.wal_applied();
            engine.watermark().reset(generation, pos);
        }
    }
    Ok(())
}
