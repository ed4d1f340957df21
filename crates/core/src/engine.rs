//! The shared engine: one process-wide database multiplexing many
//! concurrent sessions.
//!
//! The embedded [`Connection`] owns the process — exactly one user at a
//! time. A [`SharedEngine`] lifts the same state behind an `Arc` so that
//! N sessions (local threads or `sciql-net` socket handlers) share it
//! concurrently:
//!
//! * **Reads** take the engine lock just long enough to clone the `Arc`
//!   of the connection's image — one reference-count bump, whatever the
//!   number of objects — into an [`EngineSnapshot`], then run the whole
//!   Fig-2 pipeline *outside* the lock. Readers never block each other,
//!   and a long scan never blocks a writer. Every statement sees a
//!   consistent point-in-time image: no torn reads, ever.
//! * **Writes** serialize through the single [`Connection`], which keeps
//!   the vault's single-writer WAL discipline: a mutating statement
//!   appends its WAL record under the lock and is made durable by the
//!   group committer after the lock is released, before it is
//!   acknowledged. A write goes
//!   through `Arc::make_mut` on the image, then on the store it changes,
//!   then on each column it changes. An image no reader holds is written
//!   in place. While a reader holds it, the writer copies the image's
//!   shell (the catalog and one `Arc` per store), the written store's
//!   column list, and the columns it writes; the reader keeps its image.
//!
//! Per-session state (statement counters, [`LastExec`] stats, prepared
//! statements with their compiled-plan caches, the tracing flag) lives
//! in [`EngineSession`]; everything shared lives in the engine. Every
//! statement a session executes enters through the session runner in
//! [`crate::exec`], the same one the embedded connection uses.

use crate::commit::{covers, GroupCommitter, Watermark};
use crate::exec::{self, Image, Reach, Request, SessionState};
use crate::result::ResultSet;
use crate::session::{Connection, LastExec, QueryResult, SessionConfig};
use crate::sysview::{SessionRow, SysData};
use crate::Result;
use gdk::Value;
use sciql_catalog::Catalog;
use sciql_obs::Trace;
use sciql_parser::ast::Stmt;
use sciql_store::WalRecord;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A consistent point-in-time image of the database: the writer's
/// published image, shared by `Arc`. Taking one is a reference-count
/// bump under the engine lock; holding one makes the writer copy what it
/// changes (see the module docs), so a snapshot never sees a later write.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub(crate) image: Arc<Image>,
}

impl EngineSnapshot {
    /// The catalog as of this snapshot.
    pub fn catalog(&self) -> &Catalog {
        &self.image.catalog
    }
}

/// A consistent copy of a vault's durable on-disk image — what a
/// replication bootstrap transfers, file by file.
#[derive(Debug)]
pub struct VaultImage {
    /// The image's checkpoint generation.
    pub generation: u64,
    /// WAL byte position the image's (capped) log ends at.
    pub durable: u64,
    /// `(dir-relative path, contents)` per file: MANIFEST, snapshot
    /// catalog, capped WAL, referenced tile files.
    pub files: Vec<(String, Vec<u8>)>,
}

/// Cumulative engine counters (monitoring, REPL `\stats`, the server's
/// shutdown report).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Statements executed across all sessions.
    pub statements: u64,
    /// Of those, SELECTs served from lock-free snapshots.
    pub snapshot_reads: u64,
    /// Rows produced by all SELECTs.
    pub rows_returned: u64,
}

#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    sessions_opened: AtomicU64,
    pub(crate) statements: AtomicU64,
    pub(crate) snapshot_reads: AtomicU64,
    pub(crate) rows_returned: AtomicU64,
}

/// Live-session registry entry: the row a session contributes to the
/// `sys.sessions` view while it is open.
#[derive(Debug)]
pub(crate) struct SessionInfo {
    id: u64,
    peer: Mutex<String>,
    pub(crate) queries: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    started: Instant,
}

/// A cloneable handle feeding one session's byte counters. The network
/// server wraps each socket in a meter so `sys.sessions` reports
/// per-session traffic; counts survive until the session closes.
#[derive(Debug, Clone)]
pub struct SessionMeter(Arc<SessionInfo>);

impl SessionMeter {
    /// Count `n` bytes received from the client.
    pub fn add_in(&self, n: u64) {
        self.0.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` bytes sent to the client.
    pub fn add_out(&self, n: u64) {
        self.0.bytes_out.fetch_add(n, Ordering::Relaxed);
    }
}

/// A process-wide engine shared by N concurrent sessions: many readers
/// over `Arc` column snapshots, writes serialized through the (optionally
/// vault-backed) single [`Connection`] and made durable by its group
/// committer.
pub struct SharedEngine {
    conn: Mutex<Connection>,
    pub(crate) stats: AtomicStats,
    next_session: AtomicU64,
    /// Open sessions, in creation order (the `sys.sessions` view).
    sessions: Mutex<Vec<Arc<SessionInfo>>>,
    /// The connection's group committer, reached without the lock for
    /// admission and the durability wait.
    pub(crate) group: Arc<GroupCommitter>,
    /// The published WAL position, shared with the connection's write
    /// path and the group committer.
    watermark: Arc<Watermark>,
    /// The vault directory, for reading the WAL tail without the lock.
    dir: Option<PathBuf>,
}

impl SharedEngine {
    /// Share an existing connection (embedded, in-memory or durable).
    pub fn new(conn: Connection) -> Arc<Self> {
        Arc::new(SharedEngine {
            watermark: Arc::clone(&conn.watermark),
            group: Arc::clone(&conn.group_commit),
            dir: conn.vault.as_ref().map(|v| v.dir().to_path_buf()),
            conn: Mutex::new(conn),
            stats: AtomicStats::default(),
            next_session: AtomicU64::new(1),
            sessions: Mutex::new(Vec::new()),
        })
    }

    /// In-memory shared engine with the default execution configuration.
    pub fn in_memory() -> Arc<Self> {
        Self::new(Connection::new())
    }

    /// Open (or create) a durable shared engine over the vault at `path`
    /// (recovery semantics of [`Connection::open`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<Self>> {
        Ok(Self::new(Connection::open(path)?))
    }

    /// [`SharedEngine::open`] with an explicit execution configuration.
    pub fn open_with_config(path: impl AsRef<Path>, cfg: SessionConfig) -> Result<Arc<Self>> {
        Ok(Self::new(Connection::open_with_config(path, cfg)?))
    }

    /// Open the vault at `path` as a read-only **replication replica**
    /// (see [`Connection::open_replica`]): reads serve from snapshots as
    /// usual, user writes are refused, and new state arrives only via
    /// [`Connection::apply_replicated`] on the underlying connection.
    pub fn open_replica(path: impl AsRef<Path>) -> Result<Arc<Self>> {
        Ok(Self::new(Connection::open_replica(path)?))
    }

    /// Is this engine a read-only replication replica?
    pub fn is_replica(&self) -> bool {
        self.lock().is_read_only()
    }

    /// The vault directory backing this engine, if persistent.
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.lock().vault.as_ref().map(|v| v.dir().to_path_buf())
    }

    /// The engine's durable WAL position — the monotonic-read token
    /// `(generation, byte position)` stamped onto write acknowledgements
    /// and the upper bound of what the replication shipper may send. It
    /// is the published [`Watermark`]: whichever of the group committer
    /// or a checkpoint made a write durable moved it. Read without the
    /// engine lock; `(0, 0)` for in-memory engines.
    pub fn durable_position(&self) -> (u64, u64) {
        self.watermark.get()
    }

    /// A replica's applied position `(generation, byte position)`: the
    /// end of the last shipped burst it has executed, which by byte
    /// parity is the primary's position of the same record. The same
    /// published [`Watermark`] as [`SharedEngine::durable_position`] —
    /// on a replica, a record is published only once it is executed.
    pub fn applied_position(&self) -> (u64, u64) {
        self.watermark.get()
    }

    /// The engine's published WAL position, to wait on: the replication
    /// shipper waits for it to pass what it has sent, a replica publishes
    /// each executed burst on it, token-carrying reads wait for it to
    /// cover their token.
    pub fn watermark(&self) -> &Watermark {
        &self.watermark
    }

    /// Read the WAL records of generation `generation` whose frames lie
    /// in `[from, to)`, for shipping to a replica. `to` must not exceed
    /// the durable position: an unacknowledged record must never reach a
    /// replica, or a primary crash could leave the replica *ahead*. Only
    /// those bytes are read, and without the engine lock — bytes below
    /// the durable watermark never change. `Ok(None)` when a checkpoint
    /// rotated the generation away before or during the read; the caller
    /// ships a snapshot instead.
    pub fn wal_tail(&self, generation: u64, from: u64, to: u64) -> Result<Option<Vec<WalRecord>>> {
        let Some(dir) = &self.dir else {
            return Err(crate::EngineError::msg(
                "replication requires a persistent engine",
            ));
        };
        let path = sciql_store::wal_file_path(dir, generation);
        let records = match sciql_store::read_wal_from(&path, from, to) {
            Ok(records) => records,
            Err(sciql_store::StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(None)
            }
            Err(e) => return Err(crate::EngineError::Store(e)),
        };
        Ok((self.watermark.get().0 == generation).then_some(records))
    }

    /// A consistent copy of the vault's current durable on-disk image,
    /// for bootstrapping a replica that is on the wrong generation (the
    /// primary checkpointed) or behind the GC horizon. The WAL file is
    /// capped at the durable position so unacknowledged records do not
    /// ship.
    pub fn vault_image(&self) -> Result<VaultImage> {
        let conn = self.lock();
        let Some(v) = conn.vault.as_ref() else {
            return Err(crate::EngineError::msg(
                "replication requires a persistent engine",
            ));
        };
        // The watermark is on the vault's generation: opening and every
        // checkpoint publish there, under this lock.
        let generation = v.generation();
        let (published, durable) = self.watermark.get();
        debug_assert_eq!(published, generation, "watermark behind the vault");
        let wal_name = format!("wal-{generation}.log");
        let mut files = Vec::new();
        for rel in v.snapshot_file_set() {
            let path = v.dir().join(&rel);
            let mut bytes = std::fs::read(&path).map_err(|e| {
                crate::EngineError::msg(format!(
                    "replication snapshot: read {}: {e}",
                    path.display()
                ))
            })?;
            if rel.as_os_str() == wal_name.as_str() {
                bytes.truncate(durable as usize);
            }
            files.push((rel.to_string_lossy().into_owned(), bytes));
        }
        Ok(VaultImage {
            generation,
            durable,
            files,
        })
    }

    /// Start a new session over this engine.
    pub fn session(self: &Arc<Self>) -> EngineSession {
        self.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        sciql_obs::global().sessions_opened.inc();
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let info = Arc::new(SessionInfo {
            id,
            peer: Mutex::new("embedded".to_owned()),
            queries: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            started: Instant::now(),
        });
        self.sessions_lock().push(Arc::clone(&info));
        EngineSession {
            engine: Arc::clone(self),
            info,
            state: SessionState {
                id,
                slow_query_ns: self.lock().slow_query_ns(),
                ..SessionState::default()
            },
        }
    }

    /// Take a consistent point-in-time snapshot (brief lock).
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            image: Arc::clone(&self.lock().image),
        }
    }

    /// The state the `sys.*` views surface: the vault's counters (a
    /// second brief lock) and the live sessions.
    pub(crate) fn sys_data(&self) -> SysData {
        let vault = self.lock().vault_stats();
        SysData {
            vault,
            sessions: self.session_rows(),
        }
    }

    fn sessions_lock(&self) -> MutexGuard<'_, Vec<Arc<SessionInfo>>> {
        self.sessions.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The `sys.sessions` rows of every currently open session.
    fn session_rows(&self) -> Vec<SessionRow> {
        self.sessions_lock()
            .iter()
            .map(|s| SessionRow {
                id: s.id,
                peer: s.peer.lock().unwrap_or_else(|p| p.into_inner()).clone(),
                queries: s.queries.load(Ordering::Relaxed),
                bytes_in: s.bytes_in.load(Ordering::Relaxed),
                bytes_out: s.bytes_out.load(Ordering::Relaxed),
                uptime_ns: u64::try_from(s.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            })
            .collect()
    }

    /// Exclusive access to the underlying connection (the single-writer
    /// path; also used for maintenance like `checkpoint`).
    pub fn connection(&self) -> MutexGuard<'_, Connection> {
        self.lock()
    }

    fn lock(&self) -> MutexGuard<'_, Connection> {
        // A poisoned mutex means a writer panicked mid-statement. The
        // stores themselves are never left torn (copy-on-write installs
        // whole columns), so continuing with the current state is sound.
        self.conn.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Write a vault checkpoint (see [`Connection::checkpoint`]).
    pub fn checkpoint(&self) -> Result<()> {
        self.lock().checkpoint()
    }

    /// Bound the group-commit queue: while `max_queued_writes` writers
    /// await durability, new writes are refused with
    /// [`crate::EngineError::Busy`] before executing (`0` = unbounded,
    /// the default).
    pub fn set_max_queued_writes(&self, max_queued_writes: usize) {
        self.group.set_max_queued(max_queued_writes);
    }

    /// Writers currently parked in the group-commit queue.
    pub fn write_queue_depth(&self) -> usize {
        self.group.queue_depth()
    }

    /// Is the engine backed by a durable vault?
    pub fn is_persistent(&self) -> bool {
        self.lock().is_persistent()
    }

    /// Cumulative engine counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            sessions_opened: self.stats.sessions_opened.load(Ordering::Relaxed),
            statements: self.stats.statements.load(Ordering::Relaxed),
            snapshot_reads: self.stats.snapshot_reads.load(Ordering::Relaxed),
            rows_returned: self.stats.rows_returned.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEngine")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Per-session counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Statements executed in this session.
    pub statements: u64,
    /// Rows returned to this session.
    pub rows_returned: u64,
    /// Statements that failed.
    pub errors: u64,
}

/// One client's view of a [`SharedEngine`]: session-scoped statistics and
/// prepared statements over the shared state. Sessions are cheap; the
/// `sciql-net` server creates one per accepted socket.
pub struct EngineSession {
    pub(crate) engine: Arc<SharedEngine>,
    /// This session's row in the live `sys.sessions` view.
    pub(crate) info: Arc<SessionInfo>,
    pub(crate) state: SessionState,
}

impl EngineSession {
    /// Session id (unique within the engine's lifetime).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The engine this session runs over.
    pub fn engine(&self) -> &Arc<SharedEngine> {
        &self.engine
    }

    /// Label this session with its client address — the `peer` column of
    /// the `sys.sessions` view (defaults to `"embedded"`).
    pub fn set_peer(&self, peer: &str) {
        *self.info.peer.lock().unwrap_or_else(|p| p.into_inner()) = peer.to_owned();
    }

    /// A byte-counting handle for this session's transport, feeding the
    /// `bytes_in`/`bytes_out` columns of `sys.sessions`.
    pub fn meter(&self) -> SessionMeter {
        SessionMeter(Arc::clone(&self.info))
    }

    /// Statistics of this session's most recent statement.
    pub fn last_exec(&self) -> &LastExec {
        &self.state.last
    }

    /// Enable or disable per-statement span tracing for this session
    /// (the tracing bit of a protocol request and the repl's `\trace`).
    pub fn set_tracing(&mut self, on: bool) {
        self.state.set_tracing(on);
    }

    /// Is per-statement tracing enabled?
    pub fn tracing(&self) -> bool {
        self.state.trace_enabled
    }

    /// The span tree of this session's most recent traced statement.
    pub fn last_trace(&self) -> Option<&Trace> {
        self.state.last_trace.as_ref()
    }

    /// This session's counters.
    pub fn stats(&self) -> SessionStats {
        self.state.stats
    }

    /// Execute one statement. SELECTs and EXPLAINs run on a lock-free
    /// snapshot (many sessions in parallel); everything else serializes
    /// through the engine's single-writer connection and is durable — by
    /// a group-commit fsync it may share — before this returns.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        exec::run(&mut Reach::Shared(self), Request::Sql(sql))
    }

    /// Execute a semicolon-separated script, one result per statement.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        exec::run_script(&mut Reach::Shared(self), sql)
    }

    /// Execute a SELECT and return its rows.
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        self.execute(sql)?.rows()
    }

    /// Execute a parsed statement (see [`EngineSession::execute`]).
    pub fn execute_stmt(&mut self, stmt: &Stmt) -> Result<QueryResult> {
        exec::run(&mut Reach::Shared(self), Request::Stmt(stmt))
    }

    /// Prepare a named statement: parsed now, and (for SELECTs) compiled
    /// once into a parameterised plan on first execution. Returns the
    /// number of `?`/`:name` bind slots.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<usize> {
        self.state.prepare(name, sql)
    }

    /// Execute a statement previously stashed with
    /// [`EngineSession::prepare`], binding `params` into its `?`/`:name`
    /// slots (pass `&[]` for a parameter-free statement).
    ///
    /// SELECTs run the cached compiled plan against a fresh lock-free
    /// snapshot — a cache hit skips parse, bind and the optimizer
    /// pipeline (`ExecStats::plan_cache_hits`). Mutating statements
    /// inline the values as literals and serialize through the engine's
    /// single-writer connection like any other write.
    pub fn execute_prepared(&mut self, name: &str, params: &[Value]) -> Result<QueryResult> {
        exec::run(&mut Reach::Shared(self), Request::Prepared(name, params))
    }

    /// The monotonic-read token of this session's newest acknowledged
    /// write: `(generation, WAL byte position)`, durable when handed
    /// out. A reader presenting it to a replica is guaranteed to see
    /// this write (or wait / fail `ReplicaLagging`). `None` until the
    /// session writes on a persistent engine.
    pub fn last_commit_token(&self) -> Option<(u64, u64)> {
        self.state.commit_token
    }

    /// Hold a read until the engine's published position covers the
    /// monotonic-read `token` — on a replica, until the writer's
    /// acknowledged write has been applied — or `deadline` passes.
    /// Returns whether the token is covered. Every such wait lands in the
    /// `repl_token_wait_ns` histogram; when the read had to wait, its
    /// trace opens with a `repl.token_wait` span.
    pub fn wait_for_token(&mut self, token: (u64, u64), deadline: Instant) -> bool {
        let t0 = Instant::now();
        let wm = &self.engine.watermark;
        let mut seen = wm.mark();
        let waited = !covers(seen.position(), token);
        while !covers(seen.position(), token) && Instant::now() < deadline {
            seen = wm.wait_past(seen, deadline);
        }
        let held = t0.elapsed();
        sciql_obs::global().repl_token_wait_ns.observe(held);
        let ok = covers(seen.position(), token);
        if ok && waited {
            self.state.held = Some((t0, held));
        }
        ok
    }

    /// Drop a prepared statement; `true` if it existed.
    pub fn deallocate(&mut self, name: &str) -> bool {
        self.state.prepared.remove(name)
    }
}

impl Drop for EngineSession {
    fn drop(&mut self) {
        // Deregister from the live `sys.sessions` view.
        self.engine
            .sessions_lock()
            .retain(|s| s.id != self.state.id);
    }
}

impl std::fmt::Debug for EngineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSession")
            .field("id", &self.state.id)
            .field("statements", &self.state.stats.statements)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_connection() -> Connection {
        let mut conn = Connection::new();
        conn.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)",
        )
        .unwrap();
        conn.execute("UPDATE m SET v = x + y").unwrap();
        conn
    }

    fn seeded() -> Arc<SharedEngine> {
        SharedEngine::new(seeded_connection())
    }

    #[test]
    fn sessions_share_state() {
        let engine = seeded();
        let mut a = engine.session();
        let mut b = engine.session();
        assert_ne!(a.id(), b.id());
        a.execute("UPDATE m SET v = 7 WHERE x = 0").unwrap();
        let n = b
            .query("SELECT COUNT(*) FROM m WHERE v = 7")
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(n.as_i64(), Some(4));
    }

    #[test]
    fn snapshot_isolates_readers_from_later_writes() {
        let engine = seeded();
        let snap = engine.snapshot();
        engine.session().execute("UPDATE m SET v = 99").unwrap();
        let sel =
            match sciql_parser::parse_statement("SELECT COUNT(*) FROM m WHERE v = 99").unwrap() {
                Stmt::Select(s) => s,
                _ => unreachable!(),
            };
        let (rs, _) = exec::execute_select(
            &sel,
            &snap.image,
            &SysData::default,
            &mut sciql_obs::Tracer::off(),
        )
        .unwrap();
        assert_eq!(rs.scalar().unwrap().as_i64(), Some(0), "pre-write image");
        let mut s = engine.session();
        let n = s
            .query("SELECT COUNT(*) FROM m WHERE v = 99")
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(n.as_i64(), Some(16), "fresh snapshot sees the write");
    }

    /// With no reader alive, a partial UPDATE writes its column in place
    /// (`write_columns`' scatter arm). While a snapshot is held, the
    /// writer copies the column and the snapshot keeps the old values.
    #[test]
    fn a_column_is_copied_only_while_a_reader_holds_it() {
        let engine = seeded();
        let column = || Arc::as_ptr(&engine.connection().array_store("m").unwrap().attrs[0]);
        let mut s = engine.session();
        s.query("SELECT COUNT(*) FROM m WHERE v > 2").unwrap();
        let before = column();
        s.execute("UPDATE m SET v = 7 WHERE x = 1").unwrap();
        assert_eq!(column(), before, "no reader alive: written in place");
        let snap = engine.snapshot();
        s.execute("UPDATE m SET v = 8 WHERE x = 1").unwrap();
        assert_ne!(column(), before, "a held snapshot: copied");
        let sel = match sciql_parser::parse_statement("SELECT COUNT(*) FROM m WHERE v = 7").unwrap()
        {
            Stmt::Select(s) => s,
            _ => unreachable!(),
        };
        let (rs, _) = exec::execute_select(
            &sel,
            &snap.image,
            &SysData::default,
            &mut sciql_obs::Tracer::off(),
        )
        .unwrap();
        assert_eq!(rs.scalar().unwrap().as_i64(), Some(4), "snapshot keeps 7s");
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let engine = seeded();
        // Start from a constant image: a reader that wins the race
        // against the writer's first update must not see `x + y`.
        engine.session().execute("UPDATE m SET v = -1").unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut s = engine.session();
                for i in 0..20 {
                    if t == 0 {
                        // the writer: whole-array constant updates
                        s.execute(&format!("UPDATE m SET v = {i}")).unwrap();
                    } else {
                        // readers: a torn read would see two constants
                        let rs = s.query("SELECT [x], [y], v FROM m").unwrap();
                        let vals: Vec<_> = (0..rs.row_count()).map(|r| rs.get(r, 2)).collect();
                        assert!(
                            vals.windows(2).all(|w| w[0] == w[1])
                                || vals.iter().all(|v| v.as_i64().is_some()),
                        );
                        let first = &vals[0];
                        assert!(vals.iter().all(|v| v == first), "torn read: {vals:?}");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(engine.stats().snapshot_reads >= 60);
    }

    /// EXPLAIN and EXPLAIN ANALYZE are reads: they run on a snapshot and
    /// never meet write admission, so a full commit queue that refuses
    /// every write still lets them answer.
    #[test]
    fn explain_reads_a_snapshot_even_when_writes_are_refused() {
        let mut conn = seeded_connection();
        conn.group_commit = Arc::new(GroupCommitter::saturated());
        let engine = SharedEngine::new(conn);
        let mut s = engine.session();
        assert!(matches!(
            s.execute("UPDATE m SET v = 1"),
            Err(crate::EngineError::Busy(_))
        ));
        let before = engine.stats().snapshot_reads;
        for sql in [
            "EXPLAIN SELECT v FROM m WHERE x > 1",
            "EXPLAIN ANALYZE SELECT v FROM m WHERE x > 1",
        ] {
            let plan = s.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert!(plan.row_count() > 0, "{sql}");
        }
        assert_eq!(engine.stats().snapshot_reads, before + 2);
    }

    #[test]
    fn prepared_statements_are_per_session() {
        let engine = seeded();
        let mut a = engine.session();
        let mut b = engine.session();
        a.prepare("q", "SELECT COUNT(*) FROM m").unwrap();
        assert_eq!(
            a.execute_prepared("q", &[])
                .unwrap()
                .rows()
                .unwrap()
                .scalar()
                .unwrap()
                .as_i64(),
            Some(16)
        );
        assert!(b.execute_prepared("q", &[]).is_err(), "not visible to b");
        assert!(a.prepare("bad", "SELEC nonsense").is_err());
        assert!(a.deallocate("q"));
        assert!(!a.deallocate("q"));
    }
}
