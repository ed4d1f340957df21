//! The session: parse → bind → algebra → MAL → optimizers → interpreter,
//! the full pipeline of the paper's Fig 2.

use crate::commit::{CommitTicket, GroupCommitter, Watermark};
use crate::exec::{self, DbView, Reach, Request, SessionState};
use crate::result::ResultSet;
use crate::storage::{ArrayStore, TableStore};
use crate::sysview::SysData;
use crate::{EngineError, Result};
use gdk::{Bat, Value};
use mal::{ExecStats, OptConfig, PassStats};
use sciql_algebra::{CodegenOptions, Plan};
use sciql_catalog::Catalog;
use sciql_catalog::SchemaObject;
use sciql_obs::{SpanId, Trace, Tracer};
use sciql_parser::ast::{SelectStmt, Stmt};
use sciql_store::{CheckpointColumn, CheckpointObject, ColumnDirt, ReplayOp, Vault, VaultStats};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// DDL/DML: number of affected cells/rows.
    Affected(usize),
    /// SELECT: a result set.
    Rows(ResultSet),
}

impl QueryResult {
    /// Unwrap a row result.
    pub fn rows(self) -> Result<ResultSet> {
        match self {
            QueryResult::Rows(r) => Ok(r),
            QueryResult::Affected(_) => Err(EngineError::msg("statement did not produce rows")),
        }
    }
    /// Unwrap an affected-count result.
    pub fn affected(self) -> Result<usize> {
        match self {
            QueryResult::Affected(n) => Ok(n),
            QueryResult::Rows(_) => Err(EngineError::msg("statement produced rows")),
        }
    }
}

/// Statistics of the most recent query execution (optimizer ablation and
/// benchmarking hooks).
#[derive(Debug, Clone, Default)]
pub struct LastExec {
    /// Interpreter counters (including per-instruction thread counts and
    /// the fused kernels' avoided-materialization accounting).
    pub exec: ExecStats,
    /// Optimizer pass report.
    pub opt: PassStats,
    /// MAL instructions before optimization.
    pub instrs_before_opt: usize,
    /// MAL instructions after optimization.
    pub instrs_after_opt: usize,
}

/// Session-level execution settings, threaded from the connection
/// through [`CodegenOptions`] into the MAL interpreter's slice driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Worker threads for parallel-safe BAT instructions (`1` = serial).
    pub threads: usize,
    /// Minimum BAT length before a kernel goes parallel.
    pub parallel_threshold: usize,
    /// MAL optimizer pipeline level: `0` = off (execute the naive
    /// generated plan), `1` = classic shrinking passes (constant folding,
    /// CSE, alias removal, DCE), `2` = full pipeline with candidate
    /// propagation and select→project / select→aggregate kernel fusion.
    pub opt_level: u8,
    /// Consult per-tile zone maps to skip non-matching tiles in range
    /// and theta selections. Results are identical either way; the
    /// differential tests pin that down by toggling this.
    pub zone_skip: bool,
    /// Slow-query threshold, wall nanoseconds. Statements at least this
    /// slow are flagged `slow` in `sys.query_log` and leave a full span
    /// trace behind ([`Connection::last_trace`]) even when tracing is
    /// otherwise off. `0` (the default) disables the slow-query log.
    /// Changing this never invalidates cached plans. Sessions of a
    /// [`crate::SharedEngine`] adopt the engine's value when they open.
    pub slow_query_ns: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        let par = gdk::ParConfig::default();
        SessionConfig {
            threads: par.threads,
            parallel_threshold: par.parallel_threshold,
            opt_level: 2,
            zone_skip: par.zone_skip,
            slow_query_ns: 0,
        }
    }
}

impl SessionConfig {
    /// A config that executes every instruction serially.
    pub fn serial() -> Self {
        SessionConfig {
            threads: 1,
            parallel_threshold: usize::MAX,
            ..SessionConfig::default()
        }
    }

    /// `threads` workers with the default threshold.
    pub fn with_threads(threads: usize) -> Self {
        SessionConfig {
            threads: threads.max(1),
            ..SessionConfig::default()
        }
    }

    /// Default execution with an explicit optimizer level.
    pub fn with_opt_level(opt_level: u8) -> Self {
        SessionConfig {
            opt_level,
            ..SessionConfig::default()
        }
    }
}

/// A SciQL session over an in-memory database: catalog + BAT storage +
/// MAL pipeline settings.
pub struct Connection {
    pub(crate) catalog: Catalog,
    pub(crate) arrays: HashMap<String, ArrayStore>,
    pub(crate) tables: HashMap<String, TableStore>,
    pub(crate) opt_config: OptConfig,
    pub(crate) codegen: CodegenOptions,
    /// The connection's own (embedded) session. Sessions of a
    /// [`crate::SharedEngine`] bring their own state and use this
    /// connection only as the single writer.
    pub(crate) session: SessionState,
    /// Durable backing store; `None` for a purely in-memory session.
    pub(crate) vault: Option<Vault>,
    /// True while WAL operations are replayed at open (suppresses
    /// re-logging them).
    pub(crate) replaying: bool,
    /// Read-only replica mode: user-issued mutating statements are
    /// refused; the only write path is [`Connection::apply_replicated`],
    /// which replays records shipped off a primary's WAL.
    pub(crate) read_only: bool,
    /// Group-commit coordinator, when the owning [`crate::SharedEngine`]
    /// enabled it. `None` (embedded default) keeps the classic
    /// per-statement fsync.
    pub(crate) group_commit: Option<Arc<GroupCommitter>>,
    /// Ticket of the last group-appended statement, awaiting redemption
    /// via [`Connection::take_pending_commit`] outside the engine lock.
    pending_commit: Option<CommitTicket>,
    /// Where the synchronous write path and checkpoints publish the
    /// durable WAL position; a [`crate::SharedEngine`] shares it with its
    /// group committer, its shipper and its token waiters.
    pub(crate) watermark: Arc<Watermark>,
}

impl Default for Connection {
    fn default() -> Self {
        Self::new()
    }
}

impl Connection {
    /// Fresh empty session with the default (hardware-sized) parallel
    /// configuration.
    pub fn new() -> Self {
        Self::with_config(SessionConfig::default())
    }

    /// Fresh empty session with an explicit execution configuration.
    pub fn with_config(cfg: SessionConfig) -> Self {
        let mut conn = Connection {
            catalog: Catalog::new(),
            arrays: HashMap::new(),
            tables: HashMap::new(),
            opt_config: OptConfig::default(),
            codegen: CodegenOptions::default(),
            session: SessionState::default(),
            vault: None,
            replaying: false,
            read_only: false,
            group_commit: None,
            pending_commit: None,
            watermark: Arc::default(),
        };
        conn.set_session_config(cfg);
        conn
    }

    /// Open (or create) a **durable** session backed by the vault
    /// directory `path`, with the default execution configuration.
    ///
    /// Recovery runs here: the newest checkpoint is loaded and the WAL
    /// tail replayed, so the returned connection sees every statement
    /// that was acknowledged before the last shutdown or crash (a torn
    /// final WAL record from a crash mid-write is truncated away).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_config(path, SessionConfig::default())
    }

    /// [`Connection::open`] with an explicit execution configuration.
    pub fn open_with_config(path: impl AsRef<Path>, cfg: SessionConfig) -> Result<Self> {
        let (vault, recovered) = Vault::open(path).map_err(EngineError::Store)?;
        let mut conn = Self::with_config(cfg);
        for obj in recovered.objects {
            conn.catalog
                .create(obj.def.clone())
                .map_err(EngineError::Catalog)?;
            let key = obj.def.name().to_ascii_lowercase();
            match (obj.def, obj.columns) {
                (SchemaObject::Array(def), Some(cols)) => {
                    let nd = def.dims.len();
                    let na = def.attrs.len();
                    if cols.len() != nd + na {
                        return Err(EngineError::msg(format!(
                            "recovered array {:?} has {} columns, schema says {}",
                            def.name,
                            cols.len(),
                            nd + na
                        )));
                    }
                    let mut bats: Vec<Arc<Bat>> =
                        cols.into_iter().map(|c| Arc::new(c.bat)).collect();
                    let attrs = bats.split_off(nd);
                    conn.arrays.insert(
                        key,
                        ArrayStore {
                            def,
                            dims: bats,
                            attrs,
                            dirty_dims: vec![ColumnDirt::Clean; nd],
                            dirty_attrs: vec![ColumnDirt::Clean; na],
                            mutations: 0,
                        },
                    );
                }
                (SchemaObject::Table(def), Some(cols)) => {
                    if cols.len() != def.columns.len() {
                        return Err(EngineError::msg(format!(
                            "recovered table {:?} has {} columns, schema says {}",
                            def.name,
                            cols.len(),
                            def.columns.len()
                        )));
                    }
                    let n = cols.len();
                    conn.tables.insert(
                        key,
                        TableStore {
                            def,
                            cols: cols.into_iter().map(|c| Arc::new(c.bat)).collect(),
                            dirty_cols: vec![ColumnDirt::Clean; n],
                            mutations: 0,
                        },
                    );
                }
                (_, None) => {} // catalog-only (unmaterialised array)
            }
        }
        conn.vault = Some(vault);
        conn.replaying = true;
        let replay: Result<()> = recovered.ops.iter().try_for_each(|op| match op {
            ReplayOp::Sql(sql) => conn.execute(sql).map(|_| ()),
            ReplayOp::CopyBatch {
                target,
                start,
                columns,
            } => conn.apply_copy_batch(target, *start, columns),
        });
        conn.replaying = false;
        replay?;
        conn.publish_durable();
        Ok(conn)
    }

    /// Open the vault at `path` as a read-only **replication replica**.
    ///
    /// Recovery is identical to [`Connection::open`] — the replica's own
    /// WAL holds a byte-identical prefix of the primary's, so replaying
    /// it restores exactly the applied state, and its byte length *is*
    /// the replica's durably applied position. Afterwards the session
    /// refuses user-issued mutating statements; new records arrive only
    /// through [`Connection::apply_replicated`].
    pub fn open_replica(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_replica_with_config(path, SessionConfig::default())
    }

    /// [`Connection::open_replica`] with an explicit execution
    /// configuration.
    pub fn open_replica_with_config(path: impl AsRef<Path>, cfg: SessionConfig) -> Result<Self> {
        let mut conn = Self::open_with_config(path, cfg)?;
        conn.read_only = true;
        Ok(conn)
    }

    /// Is this session a read-only replication replica?
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Append a burst of WAL records shipped off a primary to this
    /// replica's own log with one fsync (the records survive a crash
    /// before they are acknowledged upstream), then apply them in order
    /// through the recovery path. Returns the replica's WAL byte position
    /// after the burst, which equals the primary's position of its last
    /// record because WAL framing is deterministic.
    ///
    /// Records are decoded before anything is appended, so a record the
    /// replica cannot parse never enters its log. The append happens
    /// before the apply: if the process dies in between, reopening the
    /// vault replays the records — exactly-once by construction, with no
    /// sidecar position file. A record that fails to apply does not stop
    /// the ones after it; the first failure is returned.
    pub fn apply_replicated(&mut self, payloads: &[Vec<u8>]) -> Result<u64> {
        let Some(v) = self.vault.as_ref() else {
            return Err(EngineError::msg(
                "replication apply requires a persistent connection",
            ));
        };
        let wal_path = sciql_store::wal_file_path(v.dir(), v.generation());
        let first = v.stats().wal_records as usize;
        let ops = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| sciql_store::decode_replay_op(p, &wal_path, first + i))
            .collect::<sciql_store::StoreResult<Vec<_>>>()
            .map_err(EngineError::Store)?;
        let vault = self.vault.as_mut().expect("checked above");
        let pos = vault.append_raw(payloads).map_err(EngineError::Store)?;
        let was = self.replaying;
        self.replaying = true;
        let mut failed = None;
        for op in &ops {
            let applied = match op {
                ReplayOp::Sql(sql) => self.execute(sql).map(|_| ()),
                ReplayOp::CopyBatch {
                    target,
                    start,
                    columns,
                } => self.apply_copy_batch(target, *start, columns),
            };
            match applied {
                Ok(()) => sciql_obs::global().repl_records_applied.inc(),
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        self.replaying = was;
        failed.map_or(Ok(pos), Err)
    }

    /// `(generation, WAL byte position)` of the vault — on a replica,
    /// the durably applied replication position. `(0, 0)` in memory.
    pub fn wal_applied(&self) -> (u64, u64) {
        self.vault
            .as_ref()
            .map(|v| (v.generation(), v.wal_position()))
            .unwrap_or((0, 0))
    }

    /// Is this session backed by a durable vault?
    pub fn is_persistent(&self) -> bool {
        self.vault.is_some()
    }

    /// Vault health counters, if persistent.
    pub fn vault_stats(&self) -> Option<VaultStats> {
        self.vault.as_ref().map(Vault::stats)
    }

    /// Crash injection for the recovery tests: the next checkpoint fails
    /// after writing `after_tiles` tile files, before the manifest flips.
    #[doc(hidden)]
    pub fn set_checkpoint_fault(&mut self, after_tiles: u64) {
        if let Some(v) = self.vault.as_mut() {
            v.set_checkpoint_fault(after_tiles);
        }
    }

    /// Write a checkpoint: every dirty *tile* (tracked per tile by the
    /// copy-on-write update paths in [`ArrayStore`]/[`TableStore`]) is
    /// rewritten, clean tiles keep their files, the catalog snapshot —
    /// including each tile's zone map — is refreshed, and the WAL is
    /// rotated. After this returns, recovery no longer needs the old
    /// log.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.read_only {
            // A checkpoint rotates the WAL generation; a replica's
            // generation must stay in byte-parity lockstep with its
            // primary's, so replicas never checkpoint locally — they
            // re-bootstrap when the primary rotates.
            return Err(EngineError::msg(
                "read-only replica: checkpoints happen on the primary",
            ));
        }
        let Some(vault) = self.vault.as_mut() else {
            return Err(EngineError::msg(
                "checkpoint requires a persistent connection (Connection::open)",
            ));
        };
        let mut objects: Vec<CheckpointObject<'_>> = Vec::with_capacity(self.catalog.len());
        for obj in self.catalog.iter() {
            let key = obj.name().to_ascii_lowercase();
            let columns = match obj {
                SchemaObject::Array(def) => self.arrays.get(&key).map(|s| {
                    def.dims
                        .iter()
                        .zip(&s.dims)
                        .zip(&s.dirty_dims)
                        .map(|((d, bat), dirt)| CheckpointColumn {
                            name: d.name.as_str(),
                            bat,
                            dirt: dirt.clone(),
                        })
                        .chain(def.attrs.iter().zip(&s.attrs).zip(&s.dirty_attrs).map(
                            |((a, bat), dirt)| CheckpointColumn {
                                name: a.name.as_str(),
                                bat,
                                dirt: dirt.clone(),
                            },
                        ))
                        .collect()
                }),
                SchemaObject::Table(def) => self.tables.get(&key).map(|s| {
                    def.columns
                        .iter()
                        .zip(&s.cols)
                        .zip(&s.dirty_cols)
                        .map(|((c, bat), dirt)| CheckpointColumn {
                            name: c.name.as_str(),
                            bat,
                            dirt: dirt.clone(),
                        })
                        .collect()
                }),
            };
            objects.push(CheckpointObject { def: obj, columns });
        }
        vault.checkpoint(&objects).map_err(EngineError::Store)?;
        let new_gen = vault.generation();
        self.watermark.publish(new_gen, vault.wal_durable());
        for s in self.arrays.values_mut() {
            s.mark_clean();
        }
        for s in self.tables.values_mut() {
            s.mark_clean();
        }
        if let Some(gc) = &self.group_commit {
            // The rotation is the epoch boundary: the snapshot made every
            // previously appended record durable, so parked group-commit
            // writers are released and the stale WAL handle dropped.
            gc.advance_epoch(new_gen);
        }
        self.pending_commit = None;
        Ok(())
    }

    /// Configure the MAL optimizer pipeline per pass (finer-grained than
    /// `SessionConfig::opt_level`; used by the ablation bench and tests).
    pub fn set_optimizer(&mut self, cfg: OptConfig) {
        self.opt_config = cfg;
    }

    /// Configure code generation (candidate-pushdown ablation switch).
    /// The session's parallel settings are preserved — change those via
    /// [`Connection::set_session_config`].
    pub fn set_codegen(&mut self, cfg: CodegenOptions) {
        let keep = self.session_config();
        self.codegen = cfg;
        self.set_session_config(keep);
    }

    /// Reconfigure execution: the parallel settings and the optimizer
    /// level flow through [`CodegenOptions`] into the MAL pipeline and
    /// the interpreter's slice driver. The per-pass configuration is
    /// rebuilt from `opt_level` only when the level actually changes, so
    /// a custom [`Connection::set_optimizer`] ablation survives
    /// unrelated reconfiguration (e.g. a thread-count change).
    pub fn set_session_config(&mut self, cfg: SessionConfig) {
        self.codegen.par = gdk::ParConfig {
            threads: cfg.threads.max(1),
            parallel_threshold: cfg.parallel_threshold,
            zone_skip: cfg.zone_skip,
        };
        if cfg.opt_level != self.codegen.opt_level {
            self.opt_config = OptConfig::level(cfg.opt_level);
        }
        self.codegen.opt_level = cfg.opt_level;
        self.session.slow_query_ns = cfg.slow_query_ns;
    }

    /// The session's current execution configuration.
    pub fn session_config(&self) -> SessionConfig {
        let par = self.codegen.par;
        SessionConfig {
            threads: par.threads,
            parallel_threshold: par.parallel_threshold,
            opt_level: self.codegen.opt_level,
            zone_skip: par.zone_skip,
            slow_query_ns: self.session.slow_query_ns,
        }
    }

    /// Set the slow-query threshold (wall nanoseconds; 0 disables).
    /// While armed, every statement is traced so a slow one leaves its
    /// full span tree in [`Connection::last_trace`], and crossings are
    /// flagged in `sys.query_log`.
    pub fn set_slow_query_ns(&mut self, ns: u64) {
        self.session.slow_query_ns = ns;
    }

    /// The current slow-query threshold (0 = off).
    pub fn slow_query_ns(&self) -> u64 {
        self.session.slow_query_ns
    }

    /// Out-of-snapshot state the `sys.*` synthesizers need (vault
    /// counters; the shared engine adds its session registry).
    pub(crate) fn sys_data(&self) -> SysData {
        SysData {
            vault: self.vault_stats(),
            sessions: Vec::new(),
        }
    }

    /// The connection's own session state next to read access to its
    /// live stores — embedded reads run in place, no snapshot.
    pub(crate) fn split(&mut self) -> (&mut SessionState, DbView<'_>) {
        let view = DbView {
            opt_config: self.opt_config,
            codegen: &self.codegen,
            catalog: &self.catalog,
            arrays: &self.arrays,
            tables: &self.tables,
            sys: Cow::Owned(self.sys_data()),
        };
        (&mut self.session, view)
    }

    /// Statistics of the last executed SELECT.
    pub fn last_exec(&self) -> &LastExec {
        &self.session.last
    }

    /// The catalog (read-only view).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        exec::run(&mut Reach::Exclusive(self), Request::Sql(sql))
    }

    /// Enable or disable per-statement span tracing on this session
    /// (the repl's `\trace on|off`). Off by default; when off, the
    /// tracing machinery never reads the clock.
    pub fn set_tracing(&mut self, on: bool) {
        self.session.set_tracing(on);
    }

    /// Is per-statement tracing enabled?
    pub fn tracing(&self) -> bool {
        self.session.trace_enabled
    }

    /// The span tree of the most recent statement, if it was traced
    /// (tracing enabled, or an `EXPLAIN ANALYZE`).
    pub fn last_trace(&self) -> Option<&Trace> {
        self.session.last_trace.as_ref()
    }

    /// Execute a semicolon-separated script, returning one result per
    /// statement.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        exec::run_script(&mut Reach::Exclusive(self), sql)
    }

    /// Prepare a named statement: parsed now, and (for SELECTs) compiled
    /// once into a parameterised plan on first execution. Returns the
    /// number of `?`/`:name` bind slots. Re-preparing a name replaces it.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<usize> {
        self.session.prepare(name, sql)
    }

    /// Execute a prepared statement with bound parameter values (slot
    /// order; see [`crate::Prepared::param_slot`] for named lookup).
    ///
    /// SELECTs run the cached compiled plan — a cache hit skips parse,
    /// bind and the optimizer pipeline entirely, reported as
    /// `ExecStats::plan_cache_hits` in [`Connection::last_exec`].
    /// Mutating statements inline the values as literals and take the
    /// ordinary (WAL-logged) dispatch path.
    pub fn execute_prepared(&mut self, name: &str, params: &[Value]) -> Result<QueryResult> {
        exec::run(&mut Reach::Exclusive(self), Request::Prepared(name, params))
    }

    /// Drop a prepared statement; `true` if it existed.
    pub fn deallocate(&mut self, name: &str) -> bool {
        self.session.prepared.remove(name)
    }

    /// Execute a SELECT and return its rows.
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        self.execute(sql)?.rows()
    }

    /// Execute a SELECT and coerce the result to an array view.
    pub fn query_array(&mut self, sql: &str) -> Result<crate::result::ArrayView> {
        self.query(sql)?.to_array_view()
    }

    /// Execute a parsed statement.
    ///
    /// On a persistent connection, every *mutating* statement that
    /// succeeds is appended to the write-ahead log (as its canonical
    /// printed text — the parser's printer round-trips) and synced
    /// before this returns: an acknowledged statement survives a crash.
    pub fn execute_stmt(&mut self, stmt: &Stmt) -> Result<QueryResult> {
        exec::run(&mut Reach::Exclusive(self), Request::Stmt(stmt))
    }

    /// Execute a mutating statement on this connection — the single
    /// writer — and log it: `text` is the statement's canonical printed
    /// form, appended to the WAL when the statement succeeds.
    ///
    /// Cell statements are all-or-nothing, but a table `INSERT … VALUES`
    /// applies row by row: one whose third row does not cast has applied
    /// two. Such a statement is never WAL-logged — replaying it would
    /// reproduce the error, not the partial effect — so on failure the
    /// session re-syncs the vault with a checkpoint of the actual
    /// in-memory state. The same fallback covers a WAL append that itself
    /// fails after a successful statement.
    pub(crate) fn write_stmt(
        &mut self,
        stmt: &Stmt,
        text: &str,
        tracer: &mut Tracer,
    ) -> Result<QueryResult> {
        if self.read_only && !self.replaying {
            return Err(EngineError::msg(
                "read-only replica: route writes to the primary",
            ));
        }
        // COPY logs its own per-batch WAL records as it streams (see
        // `crate::copy`), so it is excluded from statement-level logging.
        let logged = !matches!(stmt, Stmt::Copy { .. }) && !self.replaying && self.vault.is_some();
        let before = logged.then(|| self.mutation_epoch());
        let outcome = match self.dispatch_stmt(stmt) {
            Ok(result) => {
                if logged {
                    let sp = tracer.open(SpanId::ROOT, "wal.append");
                    let append = self.log_statement(text);
                    tracer.close(sp);
                    if append.is_err() {
                        // The WAL is unavailable; a checkpoint captures the
                        // acknowledged effect directly, keeping the
                        // durability promise without the log record.
                        self.checkpoint()?;
                    }
                }
                Ok(result)
            }
            Err(e) => {
                if logged && before != Some(self.mutation_epoch()) {
                    // The failed statement partially applied before
                    // erroring. It cannot be WAL-logged (replay would hit
                    // the same error, not the partial effect), so snapshot
                    // the live state; if that also fails, say so rather
                    // than letting recovery silently diverge.
                    if let Err(ce) = self.checkpoint() {
                        return Err(EngineError::msg(format!(
                            "statement failed ({e}) after partially applying, and the \
                             re-sync checkpoint also failed ({ce}): durable state lags \
                             the session until a checkpoint succeeds"
                        )));
                    }
                }
                Err(e)
            }
        };
        // Replayed records are published by whoever replays them — a
        // replica only once its whole burst has executed.
        if !self.replaying {
            self.publish_durable();
        }
        outcome
    }

    /// Publish the vault's synchronously durable WAL position (fsyncing
    /// appends: per-statement durability, COPY batches). Under group
    /// commit the committer publishes what its fsyncs cover.
    fn publish_durable(&self) {
        if let Some(v) = &self.vault {
            self.watermark.publish(v.generation(), v.wal_durable());
        }
    }

    /// Append an acknowledged statement to the WAL. Per-statement
    /// durability fsyncs before returning; under group commit the record
    /// is appended unsynced and a [`CommitTicket`] is stashed for the
    /// session runner to redeem — *outside* the connection lock — before
    /// the statement is acknowledged to its client.
    fn log_statement(&mut self, text: &str) -> sciql_store::StoreResult<()> {
        let grouped = self.group_commit.is_some();
        let vault = self.vault.as_mut().expect("logged statements have a vault");
        if !grouped {
            return vault.append_statement(text);
        }
        let pos = vault.append_statement_nosync(text)?;
        let handle = vault.wal_sync_handle()?;
        let epoch = vault.generation();
        self.pending_commit = Some(CommitTicket { epoch, pos, handle });
        Ok(())
    }

    /// Take the [`CommitTicket`] of the statement just executed, if the
    /// session runs under group commit. The caller must redeem it with
    /// [`GroupCommitter::wait_durable`] before acknowledging the
    /// statement, and must do so after releasing the connection lock so
    /// concurrent writers share the fsync.
    pub fn take_pending_commit(&mut self) -> Option<CommitTicket> {
        self.pending_commit.take()
    }

    /// A fingerprint of everything a statement can mutate: the catalog's
    /// schema version plus every store's monotonic mutation counter.
    /// Unchanged fingerprint ⇒ the statement had no effect.
    fn mutation_epoch(&self) -> (u64, u64) {
        let stores: u64 = self
            .arrays
            .values()
            .map(|s| s.mutations)
            .chain(self.tables.values().map(|s| s.mutations))
            .sum();
        (self.catalog.version(), stores)
    }

    fn dispatch_stmt(&mut self, stmt: &Stmt) -> Result<QueryResult> {
        match stmt {
            Stmt::Select(_) | Stmt::Explain { .. } => {
                unreachable!("the session runner executes reads without the writer")
            }
            Stmt::CreateTable { name, columns } => {
                self.create_table(name, columns)?;
                Ok(QueryResult::Affected(0))
            }
            Stmt::CreateArray { name, columns } => {
                let cells = self.create_array(name, columns)?;
                Ok(QueryResult::Affected(cells))
            }
            Stmt::Drop { name, array } => {
                self.drop_object(name, *array)?;
                Ok(QueryResult::Affected(0))
            }
            Stmt::AlterDimension {
                array,
                dimension,
                range,
            } => {
                let cells = self.alter_dimension(array, dimension, range)?;
                Ok(QueryResult::Affected(cells))
            }
            Stmt::Insert {
                table,
                columns,
                source,
            } => Ok(QueryResult::Affected(self.insert(
                table,
                columns.as_deref(),
                source,
            )?)),
            Stmt::Delete { table, filter } => {
                Ok(QueryResult::Affected(self.delete(table, filter.as_ref())?))
            }
            Stmt::Update {
                table,
                sets,
                filter,
            } => Ok(QueryResult::Affected(self.update(
                table,
                sets,
                filter.as_ref(),
            )?)),
            Stmt::Copy {
                target,
                path,
                format,
            } => Ok(QueryResult::Affected(
                self.copy_into(target, path, *format)?,
            )),
        }
    }

    /// EXPLAIN: the logical plan and the (optimised) MAL program text.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = exec::parse_one(sql)?;
        let sel = match stmt {
            Stmt::Select(sel) => sel,
            Stmt::Explain {
                stmt: inner,
                analyze: false,
            } => match *inner {
                Stmt::Select(sel) => sel,
                _ => return Err(EngineError::msg("EXPLAIN supports SELECT statements")),
            },
            _ => return Err(EngineError::msg("EXPLAIN supports SELECT statements")),
        };
        exec::explain_select(&sel, &self.catalog, &self.codegen, self.opt_config)
    }

    /// Run a SELECT through the full pipeline (the `INSERT … SELECT`
    /// executor's source).
    pub fn run_select(&mut self, sel: &SelectStmt) -> Result<ResultSet> {
        let (state, view) = self.split();
        let (rs, last) = exec::execute_select(sel, &view, &mut Tracer::off())?;
        state.last = last;
        Ok(rs)
    }

    /// Compile and execute a logical plan (the DML executors' reads).
    pub(crate) fn run_plan(&mut self, plan: &Plan) -> Result<ResultSet> {
        let (state, view) = self.split();
        let (rs, last) = exec::execute_plan(plan, &view, &mut Tracer::off())?;
        state.last = last;
        Ok(rs)
    }

    /// Bulk-load an array directly from column data — the reproduction's
    /// stand-in for MonetDB's (Geo)TIFF Data Vault [Ivanova et al., SSDBM
    /// 2012], which the demo uses to ingest images without the SQL INSERT
    /// path. Dimension BATs are generated; attribute BATs are adopted
    /// as-is (their length must equal the cell count).
    pub fn bulk_load_array(
        &mut self,
        name: &str,
        dims: &[(&str, sciql_catalog::DimSpec)],
        attrs: Vec<(&str, Bat)>,
    ) -> Result<()> {
        use sciql_catalog::{ArrayDef, ColumnMeta as CatColumn, DimensionDef, SchemaObject};
        let def = ArrayDef {
            name: name.to_owned(),
            dims: dims
                .iter()
                .map(|(n, r)| DimensionDef {
                    name: (*n).to_owned(),
                    ty: gdk::ScalarType::Int,
                    range: Some(*r),
                })
                .collect(),
            attrs: attrs
                .iter()
                .map(|(n, b)| CatColumn {
                    name: (*n).to_owned(),
                    ty: b.tail_type(),
                    default: None,
                })
                .collect(),
        };
        let cells = def
            .cell_count()
            .ok_or_else(|| EngineError::msg("bulk load requires fixed ranges"))?;
        for (n, b) in &attrs {
            if b.len() != cells {
                return Err(EngineError::msg(format!(
                    "attribute {n:?} has {} values, array has {cells} cells",
                    b.len()
                )));
            }
        }
        self.catalog
            .create(SchemaObject::Array(def.clone()))
            .map_err(EngineError::Catalog)?;
        let mut store = ArrayStore::create(def)?;
        store.attrs = attrs.into_iter().map(|(_, b)| Arc::new(b)).collect();
        self.arrays.insert(name.to_ascii_lowercase(), store);
        // A bulk load bypasses SQL, so it cannot be replayed from the
        // logical WAL — snapshot it immediately instead.
        if self.vault.is_some() && !self.replaying {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Direct read access to a stored array (tests, demos and the image
    /// pipeline use this to avoid the SQL round trip).
    pub fn array_store(&self, name: &str) -> Result<&ArrayStore> {
        self.arrays
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::msg(format!("array {name:?} is not materialised")))
    }

    /// Direct read access to a stored table.
    pub fn table_store(&self, name: &str) -> Result<&TableStore> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::msg(format!("no such table {name:?}")))
    }
}

/// A one-text-column result set (EXPLAIN output), one row per line.
pub(crate) fn text_rows(column: &str, lines: impl IntoIterator<Item = String>) -> ResultSet {
    let mut bat = Bat::with_capacity(gdk::ScalarType::Str, 0);
    for line in lines {
        bat.push(&Value::Str(line)).expect("text rows are pushable");
    }
    ResultSet {
        columns: vec![crate::result::ColumnMeta {
            name: column.to_owned(),
            ty: gdk::ScalarType::Str,
            dimensional: false,
        }],
        bats: vec![Arc::new(bat)],
    }
}
