//! The unified SciQL driver: **one** connection surface over every
//! transport the workspace offers.
//!
//! [`Sciql::connect`] takes a URL and returns a [`Conn`] over one of
//! three backends:
//!
//! | URL | backend |
//! |-----|---------|
//! | `mem:` | local: embedded in-memory [`sciql::Connection`] |
//! | `file:<path>` | local: embedded durable connection over the vault at `<path>` (WAL + checkpoints + crash recovery) |
//! | `tcp://host:port` | remote [`sciql_net::Client`] speaking wire protocol v8 |
//! | `tcp://primary,replica1,…` | routed: writes to the primary, SELECTs round-robin over the replicas with monotonic-read tokens |
//!
//! [`Sciql::attach`] opens the other kind of local connection: a session
//! on an in-process [`sciql::SharedEngine`] (many concurrent driver
//! connections over one shared database).
//!
//! Whatever the transport, the API is the same: `execute` for DDL/DML,
//! `query` for SELECTs returning a [`Rows`] cursor with typed
//! [`Row::get`] accessors, and **bound-parameter prepared statements** —
//! [`Conn::prepare`] compiles a statement with `?` / `:name`
//! placeholders once, and each [`Conn::query_bound`] /
//! [`Conn::execute_bound`] fills the parameter slots without re-parsing
//! or re-optimising (embedded: an in-process plan cache; remote: one
//! `ExecBound` frame against the server's cache). Errors from
//! every layer unify into [`SciqlError`] with stable [`ErrorCode`]s, so
//! a parse error looks the same whether it happened in-process or on a
//! server.
//!
//! ```
//! use sciql_repro::driver::Sciql;
//! use sciql_repro::params;
//!
//! let mut conn = Sciql::connect("mem:").unwrap();
//! conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], \
//!               v INT DEFAULT 0)").unwrap();
//! conn.execute("UPDATE m SET v = x + y").unwrap();
//! let stmt = conn.prepare("SELECT COUNT(*) FROM m WHERE v < ?").unwrap();
//! let mut rows = conn.query_bound(&stmt, params![3]).unwrap();
//! let n: i64 = rows.next_row().unwrap().get(0).unwrap();
//! assert_eq!(n, 6); // cells with x + y < 3
//! ```

use gdk::Value;
use sciql::{
    Connection, EngineSession, ErrorCode, QueryResult, ResultSet, SessionConfig, SharedEngine,
};
use sciql_net::{Client, NetError, NetReply};
use sciql_parser::ast::ParamRef;
use std::fmt;
use std::sync::Arc;

/// Driver result type.
pub type Result<T> = std::result::Result<T, SciqlError>;

// ---------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------

/// The unified driver error: every failure from every layer — parser,
/// binder, catalog, interpreter, kernels, durable store, wire protocol —
/// maps into one of these variants, and each variant corresponds to
/// exactly one stable [`ErrorCode`]. The mapping is
/// transport-independent: a server-side parse error surfaces as the same
/// [`SciqlError::Parse`] an embedded session produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SciqlError {
    /// Lexical or syntax error ([`ErrorCode::Parse`]).
    Parse(String),
    /// Name resolution / type-check error ([`ErrorCode::Bind`]).
    Bind(String),
    /// Unknown or duplicate schema object ([`ErrorCode::Catalog`]).
    Catalog(String),
    /// Runtime execution error ([`ErrorCode::Exec`]).
    Exec(String),
    /// BAT kernel error ([`ErrorCode::Kernel`]).
    Kernel(String),
    /// Durable-store error ([`ErrorCode::Storage`]).
    Storage(String),
    /// Bind-parameter error: unbound slot, uncoercible value, unknown
    /// `:name` ([`ErrorCode::Param`]).
    Param(String),
    /// Statement-level misuse ([`ErrorCode::Statement`]).
    Statement(String),
    /// Network I/O failure ([`ErrorCode::Io`]).
    Io(String),
    /// Wire-protocol violation ([`ErrorCode::Protocol`]).
    Protocol(String),
    /// Protocol version mismatch ([`ErrorCode::Version`]).
    Version(String),
    /// Driver misuse: bad URL, wrong result shape, closed connection
    /// ([`ErrorCode::Connection`]).
    Connection(String),
    /// Admission control refused the request — session limit or full
    /// write queue; safe to retry ([`ErrorCode::ServerBusy`]).
    ServerBusy(String),
    /// A per-session resource quota was exceeded
    /// ([`ErrorCode::QuotaExceeded`]).
    QuotaExceeded(String),
    /// A replica could not satisfy a monotonic-read token within its
    /// bounded wait — retry, or read from the primary
    /// ([`ErrorCode::ReplicaLagging`]).
    ReplicaLagging(String),
    /// Anything that should not happen ([`ErrorCode::Internal`]).
    Internal(String),
}

impl SciqlError {
    /// The stable error code of this variant.
    pub fn code(&self) -> ErrorCode {
        match self {
            SciqlError::Parse(_) => ErrorCode::Parse,
            SciqlError::Bind(_) => ErrorCode::Bind,
            SciqlError::Catalog(_) => ErrorCode::Catalog,
            SciqlError::Exec(_) => ErrorCode::Exec,
            SciqlError::Kernel(_) => ErrorCode::Kernel,
            SciqlError::Storage(_) => ErrorCode::Storage,
            SciqlError::Param(_) => ErrorCode::Param,
            SciqlError::Statement(_) => ErrorCode::Statement,
            SciqlError::Io(_) => ErrorCode::Io,
            SciqlError::Protocol(_) => ErrorCode::Protocol,
            SciqlError::Version(_) => ErrorCode::Version,
            SciqlError::Connection(_) => ErrorCode::Connection,
            SciqlError::ServerBusy(_) => ErrorCode::ServerBusy,
            SciqlError::QuotaExceeded(_) => ErrorCode::QuotaExceeded,
            SciqlError::ReplicaLagging(_) => ErrorCode::ReplicaLagging,
            SciqlError::Internal(_) => ErrorCode::Internal,
        }
    }

    /// The error message without the code prefix.
    pub fn message(&self) -> &str {
        match self {
            SciqlError::Parse(m)
            | SciqlError::Bind(m)
            | SciqlError::Catalog(m)
            | SciqlError::Exec(m)
            | SciqlError::Kernel(m)
            | SciqlError::Storage(m)
            | SciqlError::Param(m)
            | SciqlError::Statement(m)
            | SciqlError::Io(m)
            | SciqlError::Protocol(m)
            | SciqlError::Version(m)
            | SciqlError::Connection(m)
            | SciqlError::ServerBusy(m)
            | SciqlError::QuotaExceeded(m)
            | SciqlError::ReplicaLagging(m)
            | SciqlError::Internal(m) => m,
        }
    }

    /// Build the variant matching a stable code (the wire → driver
    /// direction).
    pub fn from_code(code: ErrorCode, message: impl Into<String>) -> SciqlError {
        let m = message.into();
        match code {
            ErrorCode::Parse => SciqlError::Parse(m),
            ErrorCode::Bind => SciqlError::Bind(m),
            ErrorCode::Catalog => SciqlError::Catalog(m),
            ErrorCode::Exec => SciqlError::Exec(m),
            ErrorCode::Kernel => SciqlError::Kernel(m),
            ErrorCode::Storage => SciqlError::Storage(m),
            ErrorCode::Param => SciqlError::Param(m),
            ErrorCode::Statement => SciqlError::Statement(m),
            ErrorCode::Io => SciqlError::Io(m),
            ErrorCode::Protocol => SciqlError::Protocol(m),
            ErrorCode::Version => SciqlError::Version(m),
            ErrorCode::Connection => SciqlError::Connection(m),
            ErrorCode::ServerBusy => SciqlError::ServerBusy(m),
            ErrorCode::QuotaExceeded => SciqlError::QuotaExceeded(m),
            ErrorCode::ReplicaLagging => SciqlError::ReplicaLagging(m),
            ErrorCode::Internal => SciqlError::Internal(m),
        }
    }
}

impl fmt::Display for SciqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code(), self.message())
    }
}

impl std::error::Error for SciqlError {}

impl From<sciql::EngineError> for SciqlError {
    fn from(e: sciql::EngineError) -> Self {
        SciqlError::from_code(e.code(), e.to_string())
    }
}

impl From<NetError> for SciqlError {
    fn from(e: NetError) -> Self {
        SciqlError::from_code(e.code(), e.to_string())
    }
}

// ---------------------------------------------------------------------
// transports
// ---------------------------------------------------------------------

/// A statement's outcome, transport-independent.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// DDL/DML: affected cells/rows.
    Affected(u64),
    /// SELECT: a result set.
    Rows(ResultSet),
}

impl Outcome {
    fn from_query_result(r: QueryResult) -> Outcome {
        match r {
            QueryResult::Affected(n) => Outcome::Affected(n as u64),
            QueryResult::Rows(rs) => Outcome::Rows(rs),
        }
    }

    fn from_net_reply(r: NetReply) -> Outcome {
        match r {
            NetReply::Affected(n) => Outcome::Affected(n),
            NetReply::Rows(rs) => Outcome::Rows(rs),
        }
    }
}

/// What a [`Conn`] needs from a backend: the local sessions, the TCP
/// client, and the replica-routing TCP client.
trait Transport {
    /// Execute one statement.
    fn execute(&mut self, sql: &str) -> Result<Outcome>;
    /// Execute a batch of statements; replies are positional
    /// (`result[i]` answers `sqls[i]`) and a refused statement lands as
    /// the `Err` in its own slot without aborting the batch. The
    /// default runs statements one at a time; pipelining transports
    /// (TCP) override it to ship the whole batch in one round trip.
    fn execute_batch(&mut self, sqls: &[&str]) -> Result<Vec<Result<Outcome>>> {
        Ok(sqls.iter().map(|sql| self.execute(sql)).collect())
    }
    /// Prepare a named statement; returns its bind-slot count.
    fn prepare(&mut self, name: &str, sql: &str) -> Result<usize>;
    /// Execute a prepared statement with slot-ordered bound values.
    fn execute_prepared(&mut self, name: &str, params: &[Value]) -> Result<Outcome>;
    /// Drop a prepared statement; `true` if it existed.
    fn deallocate(&mut self, name: &str) -> Result<bool>;
    /// Short backend tag for diagnostics (`"mem"`, `"file"`, `"tcp"`,
    /// `"engine"`).
    fn kind(&self) -> &'static str;
    /// Orderly shutdown of the backend.
    fn close(&mut self) -> Result<()>;

    /// The in-process session behind this transport, if it is a local
    /// one: what EXPLAIN, checkpoints, storage reports and the
    /// embedded-connection escape hatch operate on.
    fn local(&mut self) -> Option<&mut Local> {
        None
    }

    /// Liveness probe. Local transports answer trivially; the TCP
    /// transport does a real `Ping`/`Pong` round trip.
    fn ping(&mut self) -> Result<()> {
        Ok(())
    }

    /// Execution report of the most recent statement (the same numbers
    /// whether they were measured in-process or carried by the last
    /// answer's trailer).
    fn last_report(&mut self) -> Result<sciql_net::ExecReport>;

    /// Ask a remote server to shut down gracefully (TCP only).
    fn shutdown_server(&mut self) -> Result<()> {
        Err(SciqlError::Connection(format!(
            "shutdown_server is not supported by the {} transport",
            self.kind()
        )))
    }

    /// Switch per-statement query tracing on or off for this connection.
    fn set_tracing(&mut self, on: bool) -> Result<()>;

    /// Rendered span tree of the most recent traced statement, or
    /// `None` when tracing is off / nothing ran yet.
    fn last_trace_text(&mut self) -> Result<Option<String>>;
}

/// Render the repl-style storage report for a connection; `skipped` is
/// the tiles the reporting session's most recent query skipped.
fn storage_report_of(conn: &Connection, skipped: usize) -> String {
    use sciql_catalog::SchemaObject;
    use std::fmt::Write as _;
    let mut out = String::new();
    if conn.catalog().is_empty() {
        out.push_str("no schema objects\n");
    }
    for obj in conn.catalog().iter() {
        match obj {
            SchemaObject::Array(a) => match conn.array_store(&a.name) {
                Ok(s) => {
                    let (tiles, dirty) = s.tile_stats();
                    let _ = writeln!(
                        out,
                        "array {:<12} {} dims, {} attrs, {} cells, {} tile(s) ({} dirty)",
                        a.name,
                        a.dims.len(),
                        a.attrs.len(),
                        s.cell_count(),
                        tiles,
                        dirty
                    );
                }
                Err(_) => {
                    let _ = writeln!(out, "array {:<12} (unbounded, not materialised)", a.name);
                }
            },
            SchemaObject::Table(t) => {
                if let Ok(s) = conn.table_store(&t.name) {
                    let (tiles, dirty) = s.tile_stats();
                    let _ = writeln!(
                        out,
                        "table {:<12} {} columns, {} rows, {} tile(s) ({} dirty)",
                        t.name,
                        t.columns.len(),
                        s.row_count(),
                        tiles,
                        dirty
                    );
                }
            }
        }
    }
    match conn.vault_stats() {
        Some(v) => {
            let _ = writeln!(
                out,
                "vault: generation {}, {} WAL record(s) ({} bytes), {} column(s) in {} tile file(s)",
                v.generation, v.wal_records, v.wal_bytes, v.columns, v.tile_files
            );
            let _ = writeln!(
                out,
                "vault: last checkpoint rewrote {} tile(s), reused {}",
                v.tiles_rewritten, v.tiles_reused
            );
        }
        None => out.push_str("vault: none (in-memory session)\n"),
    }
    let _ = writeln!(
        out,
        "scan:  last query skipped {skipped} tile(s) via zone maps"
    );
    out
}

/// Local transport: a session in this process — an embedded
/// [`Connection`] of its own (`mem:` / `file:`), or an [`EngineSession`]
/// attached to a shared engine. Both enter every statement through the
/// same core session runner and answer to the same method names.
// One `Local` lives in each connection's `Box<dyn Transport>`; the
// variants' size difference costs nothing there.
#[allow(clippy::large_enum_variant)]
enum Local {
    Embedded {
        conn: Connection,
        kind: &'static str,
    },
    Attached(EngineSession),
}

/// Evaluate `$call` on whichever session a [`Local`] holds.
macro_rules! on_session {
    ($local:expr, $s:ident => $call:expr) => {
        match $local {
            Local::Embedded { conn: $s, .. } => $call,
            Local::Attached($s) => $call,
        }
    };
}

impl Local {
    /// Run `f` on the database connection: the embedded one, or the
    /// attached engine's single writer (locked for the duration).
    fn with_connection<R>(&mut self, f: impl FnOnce(&mut Connection) -> R) -> R {
        match self {
            Local::Embedded { conn, .. } => f(conn),
            Local::Attached(session) => f(&mut session.engine().connection()),
        }
    }

    /// The repl-style report of stored objects and vault health.
    fn storage_report(&mut self) -> String {
        let skipped = on_session!(self, s => s.last_exec().exec.tiles_skipped);
        self.with_connection(|c| storage_report_of(c, skipped))
    }
}

impl Transport for Local {
    fn execute(&mut self, sql: &str) -> Result<Outcome> {
        Ok(Outcome::from_query_result(
            on_session!(self, s => s.execute(sql))?,
        ))
    }
    fn prepare(&mut self, name: &str, sql: &str) -> Result<usize> {
        Ok(on_session!(self, s => s.prepare(name, sql))?)
    }
    fn execute_prepared(&mut self, name: &str, params: &[Value]) -> Result<Outcome> {
        Ok(Outcome::from_query_result(
            on_session!(self, s => s.execute_prepared(name, params))?,
        ))
    }
    fn deallocate(&mut self, name: &str) -> Result<bool> {
        Ok(on_session!(self, s => s.deallocate(name)))
    }
    fn kind(&self) -> &'static str {
        match self {
            Local::Embedded { kind, .. } => kind,
            Local::Attached(_) => "engine",
        }
    }
    fn close(&mut self) -> Result<()> {
        // An embedded vault is checkpointed on the way out; an attached
        // engine outlives this session and checkpoints on its own terms.
        match self {
            Local::Embedded { conn, .. } if conn.is_persistent() => Ok(conn.checkpoint()?),
            _ => Ok(()),
        }
    }
    fn local(&mut self) -> Option<&mut Local> {
        Some(self)
    }
    fn last_report(&mut self) -> Result<sciql_net::ExecReport> {
        let last = on_session!(self, s => s.last_exec());
        Ok(sciql_net::ExecReport::from_last_exec(last))
    }
    fn set_tracing(&mut self, on: bool) -> Result<()> {
        on_session!(self, s => s.set_tracing(on));
        Ok(())
    }
    fn last_trace_text(&mut self) -> Result<Option<String>> {
        Ok(on_session!(self, s => s.last_trace()).map(|t| t.render()))
    }
}

/// Network transport: a wire-protocol [`Client`].
struct Tcp {
    client: Option<Client>,
}

impl Tcp {
    fn client(&mut self) -> Result<&mut Client> {
        self.client
            .as_mut()
            .ok_or_else(|| SciqlError::Connection("connection is closed".into()))
    }
}

impl Transport for Tcp {
    fn execute(&mut self, sql: &str) -> Result<Outcome> {
        Ok(Outcome::from_net_reply(self.client()?.execute(sql)?))
    }
    fn execute_batch(&mut self, sqls: &[&str]) -> Result<Vec<Result<Outcome>>> {
        let replies = self.client()?.execute_pipelined(sqls)?;
        Ok(replies
            .into_iter()
            .map(|r| r.map(Outcome::from_net_reply).map_err(SciqlError::from))
            .collect())
    }
    fn prepare(&mut self, name: &str, sql: &str) -> Result<usize> {
        Ok(self.client()?.prepare(name, sql)? as usize)
    }
    fn execute_prepared(&mut self, name: &str, params: &[Value]) -> Result<Outcome> {
        Ok(Outcome::from_net_reply(
            self.client()?.execute_bound(name, params)?,
        ))
    }
    fn deallocate(&mut self, name: &str) -> Result<bool> {
        Ok(self.client()?.deallocate(name)?)
    }
    fn kind(&self) -> &'static str {
        "tcp"
    }
    fn close(&mut self) -> Result<()> {
        if let Some(c) = self.client.take() {
            c.close()?;
        }
        Ok(())
    }
    fn ping(&mut self) -> Result<()> {
        Ok(self.client()?.ping()?)
    }
    fn last_report(&mut self) -> Result<sciql_net::ExecReport> {
        Ok(self.client()?.last_report())
    }
    fn shutdown_server(&mut self) -> Result<()> {
        let c = self
            .client
            .take()
            .ok_or_else(|| SciqlError::Connection("connection is closed".into()))?;
        Ok(c.shutdown_server()?)
    }
    fn set_tracing(&mut self, on: bool) -> Result<()> {
        self.client()?.set_tracing(on);
        Ok(())
    }
    fn last_trace_text(&mut self) -> Result<Option<String>> {
        Ok(self.client()?.last_trace().map(str::to_owned))
    }
}

/// Should this statement run on a replica? Reads are `SELECT`s and
/// `EXPLAIN`s; everything else (DDL, DML, COPY) must see the primary.
fn is_read_sql(sql: &str) -> bool {
    let head: String = sql
        .trim_start()
        .chars()
        .take(8)
        .collect::<String>()
        .to_ascii_uppercase();
    head.starts_with("SELECT") || head.starts_with("EXPLAIN")
}

/// Multi-endpoint network transport (`tcp://primary,replica1,...`):
/// writes, prepared statements and diagnostics go to the primary;
/// SELECTs round-robin across the replica endpoints, each carrying the
/// monotonic-read token from the primary's most recent write
/// acknowledgement — so a read that follows a write never observes a
/// replica state older than that write. All-read batches fan out across
/// every replica concurrently. Report and trace come from the endpoint
/// that answered last.
struct Routed {
    primary: Tcp,
    replicas: Vec<Tcp>,
    next: usize,
    /// The endpoint that answered the last statement: 0 is the primary,
    /// `i + 1` replica `i`.
    last: usize,
}

impl Routed {
    /// Pick the next read endpoint (round-robin) with the write token
    /// staged on it.
    fn read_client(&mut self) -> Result<&mut Client> {
        let token = self.primary.client()?.last_token();
        let idx = self.next % self.replicas.len();
        self.next = self.next.wrapping_add(1);
        self.last = idx + 1;
        let c = self.replicas[idx].client()?;
        c.set_read_token(token);
        Ok(c)
    }

    /// Every endpoint, the primary first.
    fn endpoints(&mut self) -> impl Iterator<Item = &mut Tcp> {
        std::iter::once(&mut self.primary).chain(self.replicas.iter_mut())
    }

    /// The endpoint that answered the last statement.
    fn answered(&mut self) -> &mut Tcp {
        match self.last {
            0 => &mut self.primary,
            i => &mut self.replicas[i - 1],
        }
    }

    /// Run `f` on the primary, which then answered last.
    fn on_primary<R>(&mut self, f: impl FnOnce(&mut Tcp) -> R) -> R {
        self.last = 0;
        f(&mut self.primary)
    }
}

impl Transport for Routed {
    fn execute(&mut self, sql: &str) -> Result<Outcome> {
        if is_read_sql(sql) && !self.replicas.is_empty() {
            Ok(Outcome::from_net_reply(self.read_client()?.execute(sql)?))
        } else {
            self.on_primary(|p| p.execute(sql))
        }
    }
    fn execute_batch(&mut self, sqls: &[&str]) -> Result<Vec<Result<Outcome>>> {
        // Mixed batches keep their statement order observable only on
        // one session — route them whole to the primary.
        if self.replicas.is_empty() || !sqls.iter().all(|s| is_read_sql(s)) {
            return self.on_primary(|p| p.execute_batch(sqls));
        }
        let token = self.primary.client()?.last_token();
        // Stride the batch across every endpoint — the primary serves
        // reads too (it trivially satisfies any token it issued): each
        // slice pipelines on its own connection, so the batch costs the
        // slowest slice, not the sum of all round trips.
        let n = self.replicas.len() + 1;
        if let Some(last_slot) = sqls.len().checked_sub(1) {
            self.last = last_slot % n;
        }
        let mut targets: Vec<&mut Tcp> = self.endpoints().collect();
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..sqls.len() {
            assigned[i % n].push(i);
        }
        let mut slots: Vec<Option<Result<Outcome>>> = sqls.iter().map(|_| None).collect();
        let mut fanout_err = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                targets
                    .iter_mut()
                    .zip(&assigned)
                    .filter(|(_, idxs)| !idxs.is_empty())
                    .map(|(t, idxs)| {
                        scope.spawn(move || -> Result<Vec<(usize, Result<Outcome>)>> {
                            let c = t.client()?;
                            c.set_read_token(token);
                            let subset: Vec<&str> = idxs.iter().map(|&i| sqls[i]).collect();
                            let replies = c.execute_pipelined(&subset)?;
                            Ok(idxs
                                .iter()
                                .copied()
                                .zip(replies.into_iter().map(|r| {
                                    r.map(Outcome::from_net_reply).map_err(SciqlError::from)
                                }))
                                .collect())
                        })
                    })
                    .collect();
            for h in handles {
                match h.join() {
                    Ok(Ok(pairs)) => {
                        for (i, r) in pairs {
                            slots[i] = Some(r);
                        }
                    }
                    Ok(Err(e)) => fanout_err = Some(e),
                    Err(_) => {
                        fanout_err =
                            Some(SciqlError::Internal("read fan-out thread panicked".into()))
                    }
                }
            }
        });
        if let Some(e) = fanout_err {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every read slice reported back"))
            .collect())
    }
    fn prepare(&mut self, name: &str, sql: &str) -> Result<usize> {
        self.primary.prepare(name, sql)
    }
    fn execute_prepared(&mut self, name: &str, params: &[Value]) -> Result<Outcome> {
        self.on_primary(|p| p.execute_prepared(name, params))
    }
    fn deallocate(&mut self, name: &str) -> Result<bool> {
        self.primary.deallocate(name)
    }
    fn kind(&self) -> &'static str {
        "tcp-routed"
    }
    fn close(&mut self) -> Result<()> {
        for r in &mut self.replicas {
            r.close().ok();
        }
        self.primary.close()
    }
    fn ping(&mut self) -> Result<()> {
        self.endpoints().try_for_each(Tcp::ping)
    }
    fn last_report(&mut self) -> Result<sciql_net::ExecReport> {
        self.answered().last_report()
    }
    fn shutdown_server(&mut self) -> Result<()> {
        self.primary.shutdown_server()
    }
    fn set_tracing(&mut self, on: bool) -> Result<()> {
        self.endpoints().try_for_each(|e| e.set_tracing(on))
    }
    fn last_trace_text(&mut self) -> Result<Option<String>> {
        self.answered().last_trace_text()
    }
}

// ---------------------------------------------------------------------
// connect
// ---------------------------------------------------------------------

/// The driver entry point: [`Sciql::connect`] and [`Sciql::attach`].
pub struct Sciql;

impl Sciql {
    /// Open a connection from a URL — `mem:`, `file:<path>`, or
    /// `tcp://host:port` — with the default execution configuration.
    pub fn connect(url: &str) -> Result<Conn> {
        Self::connect_with_config(url, SessionConfig::default())
    }

    /// [`Sciql::connect`] with an explicit embedded execution
    /// configuration (thread count, parallel threshold, optimizer
    /// level). For `tcp://` URLs the configuration lives server-side and
    /// `cfg` is ignored.
    pub fn connect_with_config(url: &str, cfg: SessionConfig) -> Result<Conn> {
        let transport: Box<dyn Transport + Send> = if url == "mem:" || url == "mem" {
            Box::new(Local::Embedded {
                conn: Connection::with_config(cfg),
                kind: "mem",
            })
        } else if let Some(path) = url.strip_prefix("file:") {
            if path.is_empty() {
                return Err(SciqlError::Connection(
                    "file: URL needs a vault directory path, e.g. file:./mydb".into(),
                ));
            }
            Box::new(Local::Embedded {
                conn: Connection::open_with_config(path, cfg)?,
                kind: "file",
            })
        } else if let Some(addr) = url.strip_prefix("tcp://") {
            let endpoints: Vec<&str> = addr
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            match endpoints.split_first() {
                None => {
                    return Err(SciqlError::Connection(
                        "tcp:// URL needs host:port, e.g. tcp://127.0.0.1:5000 \
                         (add replicas comma-separated: tcp://primary,replica1,replica2)"
                            .into(),
                    ));
                }
                Some((primary, [])) => Box::new(Tcp {
                    client: Some(Client::connect_named(primary, "sciql-driver")?),
                }),
                Some((primary, replicas)) => {
                    let primary = Tcp {
                        client: Some(Client::connect_named(primary, "sciql-driver")?),
                    };
                    let replicas = replicas
                        .iter()
                        .map(|a| {
                            Ok(Tcp {
                                client: Some(Client::connect_named(a, "sciql-driver-read")?),
                            })
                        })
                        .collect::<Result<Vec<Tcp>>>()?;
                    Box::new(Routed {
                        primary,
                        replicas,
                        next: 0,
                        last: 0,
                    })
                }
            }
        } else {
            return Err(SciqlError::Connection(format!(
                "unsupported URL {url:?}: expected mem:, file:<path> or tcp://host:port"
            )));
        };
        Ok(Conn {
            transport,
            id: fresh_conn_id(),
            next_stmt: 0,
        })
    }

    /// Open a driver connection as a new session on an in-process
    /// [`SharedEngine`] — N such connections share one database with
    /// snapshot-isolated reads.
    pub fn attach(engine: &Arc<SharedEngine>) -> Conn {
        Conn {
            transport: Box::new(Local::Attached(engine.session())),
            id: fresh_conn_id(),
            next_stmt: 0,
        }
    }
}

// ---------------------------------------------------------------------
// the connection
// ---------------------------------------------------------------------

/// Process-unique connection ids, used to pin [`Statement`] handles to
/// the connection that prepared them.
static NEXT_CONN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_conn_id() -> u64 {
    NEXT_CONN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// One open driver connection: the same API over a local session, a
/// TCP client, or a replica-routing TCP client.
pub struct Conn {
    transport: Box<dyn Transport + Send>,
    id: u64,
    next_stmt: u64,
}

impl Conn {
    /// Short backend tag (`"mem"`, `"file"`, `"tcp"`, `"engine"`).
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Execute a statement and return either rows or an affected count.
    pub fn run(&mut self, sql: &str) -> Result<Outcome> {
        self.transport.execute(sql)
    }

    /// Execute a batch of statements — pipelined into one round trip on
    /// the TCP transport, one at a time elsewhere. Replies are
    /// positional: `result[i]` answers `sqls[i]`, and a statement the
    /// backend refuses (parse error, [`SciqlError::ServerBusy`],
    /// [`SciqlError::QuotaExceeded`]) fills its own slot without
    /// aborting the rest of the batch.
    pub fn run_batch(&mut self, sqls: &[&str]) -> Result<Vec<Result<Outcome>>> {
        self.transport.execute_batch(sqls)
    }

    /// Execute DDL/DML; returns the affected cell/row count. Fails with
    /// [`SciqlError::Statement`] if the statement produced rows — use
    /// [`Conn::query`] for SELECTs.
    pub fn execute(&mut self, sql: &str) -> Result<u64> {
        match self.run(sql)? {
            Outcome::Affected(n) => Ok(n),
            Outcome::Rows(_) => Err(SciqlError::Statement(
                "statement produced rows; use query()".into(),
            )),
        }
    }

    /// Execute a SELECT; returns a [`Rows`] cursor. Fails with
    /// [`SciqlError::Statement`] if the statement did not produce rows.
    pub fn query(&mut self, sql: &str) -> Result<Rows> {
        match self.run(sql)? {
            Outcome::Rows(rs) => Ok(Rows::new(rs)),
            Outcome::Affected(_) => Err(SciqlError::Statement(
                "statement did not produce rows; use execute()".into(),
            )),
        }
    }

    /// Prepare a statement with `?` / `:name` placeholders. The
    /// statement is parsed (and validated) immediately; SELECT plans
    /// compile once on first execution and re-executions reuse the
    /// cached plan with fresh parameter values.
    pub fn prepare(&mut self, sql: &str) -> Result<Statement> {
        // Parse locally to learn the slot layout (works identically for
        // every transport — the same parser assigns the same slots).
        let stmt =
            sciql_parser::parse_statement(sql).map_err(|e| SciqlError::Parse(e.to_string()))?;
        let params = stmt.params();
        let name = format!("__driver_stmt_{}", self.next_stmt);
        self.next_stmt += 1;
        let nparams = self.transport.prepare(&name, sql)?;
        if nparams != params.len() {
            return Err(SciqlError::Internal(format!(
                "transport reports {nparams} bind slots, parser found {}",
                params.len()
            )));
        }
        Ok(Statement {
            conn_id: self.id,
            name,
            sql: sql.to_owned(),
            params,
        })
    }

    /// Execute a prepared statement with slot-ordered values; rows or
    /// affected count.
    pub fn run_bound(&mut self, stmt: &Statement, params: &[Value]) -> Result<Outcome> {
        self.check_owned(stmt)?;
        if params.len() < stmt.param_count() {
            return Err(SciqlError::Param(format!(
                "statement has {} parameter(s), {} bound",
                stmt.param_count(),
                params.len()
            )));
        }
        self.transport.execute_prepared(&stmt.name, params)
    }

    /// Execute prepared DDL/DML with bound values; the affected count.
    pub fn execute_bound(&mut self, stmt: &Statement, params: &[Value]) -> Result<u64> {
        match self.run_bound(stmt, params)? {
            Outcome::Affected(n) => Ok(n),
            Outcome::Rows(_) => Err(SciqlError::Statement(
                "statement produced rows; use query_bound()".into(),
            )),
        }
    }

    /// Execute a prepared SELECT with bound values; a [`Rows`] cursor.
    pub fn query_bound(&mut self, stmt: &Statement, params: &[Value]) -> Result<Rows> {
        match self.run_bound(stmt, params)? {
            Outcome::Rows(rs) => Ok(Rows::new(rs)),
            Outcome::Affected(_) => Err(SciqlError::Statement(
                "statement did not produce rows; use execute_bound()".into(),
            )),
        }
    }

    /// Execute a prepared statement binding parameters **by name**:
    /// `[(":lo", v1), ("hi", v2)]` (the leading `:` is optional,
    /// matching is case-insensitive). Positional `?` slots cannot be
    /// bound by name.
    pub fn run_named(&mut self, stmt: &Statement, params: &[(&str, Value)]) -> Result<Outcome> {
        self.check_owned(stmt)?;
        let values = stmt.resolve_named(params)?;
        self.transport.execute_prepared(&stmt.name, &values)
    }

    /// Drop a prepared statement, freeing its cached plan on the
    /// backend (embedded registry or server session). The handle is
    /// consumed; long-lived connections that prepare many statements
    /// should deallocate the ones they are done with.
    pub fn deallocate(&mut self, stmt: Statement) -> Result<bool> {
        self.check_owned(&stmt)?;
        self.transport.deallocate(&stmt.name)
    }

    /// A [`Statement`] only works on the connection that prepared it —
    /// generated names are connection-local, so a foreign handle would
    /// silently address an unrelated statement.
    fn check_owned(&self, stmt: &Statement) -> Result<()> {
        if stmt.conn_id != self.id {
            return Err(SciqlError::Statement(
                "statement was prepared on a different connection".into(),
            ));
        }
        Ok(())
    }

    /// The local session behind this connection, or the refusal of
    /// `what` (a subject and its verb) naming the transport.
    fn local(&mut self, what: &str) -> Result<&mut Local> {
        let kind = self.transport.kind();
        self.transport.local().ok_or_else(|| {
            SciqlError::Connection(format!("{what} not supported by the {kind} transport"))
        })
    }

    /// EXPLAIN a SELECT: logical plan plus generated and optimised MAL
    /// (local transports only).
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        Ok(self
            .local("EXPLAIN is")?
            .with_connection(|c| c.explain(sql))?)
    }

    /// Write a durability checkpoint (local transports only).
    pub fn checkpoint(&mut self) -> Result<()> {
        Ok(self
            .local("checkpoint is")?
            .with_connection(|c| c.checkpoint())?)
    }

    /// Human-readable report of stored objects and vault health
    /// (local transports only).
    pub fn storage_report(&mut self) -> Result<String> {
        Ok(self.local("storage reports are")?.storage_report())
    }

    /// Escape hatch to the in-process [`Connection`] behind a `mem:` or
    /// `file:` transport (`None` for remote and shared-engine backends).
    /// Needed by bulk ingestion paths that bypass SQL, e.g. the imaging
    /// data vault.
    pub fn embedded_connection(&mut self) -> Option<&mut Connection> {
        match self.transport.local()? {
            Local::Embedded { conn, .. } => Some(conn),
            Local::Attached(_) => None,
        }
    }

    /// Liveness round trip (a real `Ping` frame over TCP; trivial for
    /// in-process transports).
    pub fn ping(&mut self) -> Result<()> {
        self.transport.ping()
    }

    /// Execution report of this connection's most recent statement —
    /// interpreter counters, optimizer pass summary and the plan-cache
    /// flag, identical in shape across transports. Over `tcp://` it is
    /// the last answer's trailer: no round trip.
    pub fn last_report(&mut self) -> Result<sciql_net::ExecReport> {
        self.transport.last_report()
    }

    /// Ask the remote server to shut down gracefully (TCP transports
    /// only; in-process transports refuse and the connection stays
    /// usable). After a successful shutdown the connection is spent.
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.transport.shutdown_server()
    }

    /// Switch per-statement query tracing on or off. While on, every
    /// statement records a span tree readable with
    /// [`Conn::last_trace_text`] (the repl's `\trace on`). Over `tcp://`
    /// the setting rides on each request and the trace on each answer.
    pub fn set_tracing(&mut self, on: bool) -> Result<()> {
        self.transport.set_tracing(on)
    }

    /// Rendered span tree of this connection's most recent traced
    /// statement, or `None` when tracing is off / nothing ran yet.
    pub fn last_trace_text(&mut self) -> Result<Option<String>> {
        self.transport.last_trace_text()
    }

    /// Orderly shutdown: checkpoints a `file:` vault, closes a `tcp://`
    /// socket. Dropping a [`Conn`] without calling this is safe (the
    /// vault recovers from its WAL), just less tidy.
    pub fn close(mut self) -> Result<()> {
        self.transport.close()
    }
}

impl fmt::Debug for Conn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Conn")
            .field("transport", &self.transport.kind())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// prepared statement handles
// ---------------------------------------------------------------------

/// A prepared statement handle returned by [`Conn::prepare`]. Cheap to
/// keep around; execute it any number of times with
/// [`Conn::query_bound`] / [`Conn::execute_bound`].
#[derive(Debug, Clone)]
pub struct Statement {
    /// Id of the [`Conn`] that prepared this statement (handles are not
    /// transferable between connections).
    conn_id: u64,
    name: String,
    sql: String,
    params: Vec<ParamRef>,
}

impl Statement {
    /// The statement text this handle was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Number of bind slots (`?` and distinct `:name`s).
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The slot of a named parameter (leading `:` optional,
    /// case-insensitive).
    pub fn param_slot(&self, name: &str) -> Option<usize> {
        sciql_parser::ast::named_param_slot(&self.params, name)
    }

    /// Resolve a name→value list into a slot-ordered value vector.
    fn resolve_named(&self, params: &[(&str, Value)]) -> Result<Vec<Value>> {
        let mut values = vec![Value::Null; self.params.len()];
        let mut bound = vec![false; self.params.len()];
        for (name, v) in params {
            let slot = self.param_slot(name).ok_or_else(|| {
                SciqlError::Param(format!("statement has no parameter named {name:?}"))
            })?;
            values[slot] = v.clone();
            bound[slot] = true;
        }
        if let Some(k) = bound.iter().position(|b| !b) {
            let p = &self.params[k];
            return Err(SciqlError::Param(match &p.name {
                Some(n) => format!("parameter :{n} is not bound"),
                None => format!(
                    "positional parameter {} cannot be bound by name; use query_bound",
                    k + 1
                ),
            }));
        }
        Ok(values)
    }
}

// ---------------------------------------------------------------------
// rows + typed accessors
// ---------------------------------------------------------------------

/// A cursor over a query result, shared by every transport (the remote
/// side reassembles the same [`ResultSet`] from wire pages that the
/// embedded side returns directly — byte-identical, by test).
#[derive(Debug, Clone)]
pub struct Rows {
    rs: ResultSet,
    cursor: usize,
}

impl Rows {
    fn new(rs: ResultSet) -> Rows {
        Rows { rs, cursor: 0 }
    }

    /// Total row count.
    pub fn row_count(&self) -> usize {
        self.rs.row_count()
    }

    /// Column count.
    pub fn column_count(&self) -> usize {
        self.rs.column_count()
    }

    /// Column names in output order.
    pub fn column_names(&self) -> Vec<&str> {
        self.rs.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Advance the cursor and return the next row, or `None` at the end.
    pub fn next_row(&mut self) -> Option<Row<'_>> {
        if self.cursor >= self.rs.row_count() {
            return None;
        }
        let idx = self.cursor;
        self.cursor += 1;
        Some(Row { rs: &self.rs, idx })
    }

    /// Random access to a row without moving the cursor.
    pub fn row(&self, idx: usize) -> Option<Row<'_>> {
        (idx < self.rs.row_count()).then_some(Row { rs: &self.rs, idx })
    }

    /// The underlying result set (column-oriented access, rendering,
    /// wire encoding).
    pub fn result_set(&self) -> &ResultSet {
        &self.rs
    }

    /// Unwrap into the underlying result set.
    pub fn into_result_set(self) -> ResultSet {
        self.rs
    }
}

/// One row of a [`Rows`] cursor.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    rs: &'a ResultSet,
    idx: usize,
}

impl Row<'_> {
    /// The raw value at column `col`.
    pub fn value(&self, col: usize) -> Value {
        self.rs.get(self.idx, col)
    }

    /// Typed access: `row.get::<i64>(0)?`. NULL converts only into
    /// `Option<T>` (and [`Value`] itself).
    pub fn get<T: FromSql>(&self, col: usize) -> Result<T> {
        if col >= self.rs.column_count() {
            return Err(SciqlError::Statement(format!(
                "column {col} out of range ({} columns)",
                self.rs.column_count()
            )));
        }
        T::from_sql(&self.rs.get(self.idx, col))
    }

    /// Typed access by column name (case-insensitive).
    pub fn get_by_name<T: FromSql>(&self, name: &str) -> Result<T> {
        let col = self.rs.column_index(name).ok_or_else(|| {
            SciqlError::Statement(format!("no column named {name:?} in the result"))
        })?;
        self.get(col)
    }
}

/// Conversion from a SQL scalar into a Rust type (the typed side of
/// [`Row::get`]).
pub trait FromSql: Sized {
    /// Convert, failing with [`SciqlError::Statement`] on a type or NULL
    /// mismatch.
    fn from_sql(v: &Value) -> Result<Self>;
}

fn from_sql_err<T>(v: &Value, what: &str) -> Result<T> {
    Err(SciqlError::Statement(format!(
        "cannot read {} as {what}",
        if v.is_null() {
            "NULL".to_owned()
        } else {
            format!("{v:?}")
        }
    )))
}

impl FromSql for i64 {
    fn from_sql(v: &Value) -> Result<i64> {
        v.as_i64().map_or_else(|| from_sql_err(v, "i64"), Ok)
    }
}

impl FromSql for i32 {
    fn from_sql(v: &Value) -> Result<i32> {
        let wide = i64::from_sql(v)?;
        i32::try_from(wide).map_err(|_| SciqlError::Statement(format!("{wide} overflows i32")))
    }
}

impl FromSql for f64 {
    fn from_sql(v: &Value) -> Result<f64> {
        v.as_f64().map_or_else(|| from_sql_err(v, "f64"), Ok)
    }
}

impl FromSql for bool {
    fn from_sql(v: &Value) -> Result<bool> {
        v.as_bool().map_or_else(|| from_sql_err(v, "bool"), Ok)
    }
}

impl FromSql for String {
    fn from_sql(v: &Value) -> Result<String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => from_sql_err(other, "String"),
        }
    }
}

impl FromSql for Value {
    fn from_sql(v: &Value) -> Result<Value> {
        Ok(v.clone())
    }
}

impl<T: FromSql> FromSql for Option<T> {
    fn from_sql(v: &Value) -> Result<Option<T>> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_sql(v).map(Some)
        }
    }
}

/// Build a slot-ordered parameter slice from mixed Rust values:
/// `params![3, "name", 2.5]`. Each element goes through
/// [`gdk::Value::from`]; use `Option<T>` (or `gdk::Value::Null`) for SQL
/// NULL.
#[macro_export]
macro_rules! params {
    () => {
        &[] as &[$crate::gdk::Value]
    };
    ($($v:expr),+ $(,)?) => {
        &[$($crate::gdk::Value::from($v)),+][..]
    };
}
