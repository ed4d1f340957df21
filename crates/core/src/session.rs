//! The session: parse → bind → algebra → MAL → optimizers → interpreter,
//! the full pipeline of the paper's Fig 2.

use crate::commit::{CommitTicket, GroupCommitter, Watermark};
use crate::exec::{self, Binding, Image, Reach, Request, SessionState};
use crate::result::ResultSet;
use crate::storage::{ArrayStore, ColumnWrites, TableStore};
use crate::sysview::SysData;
use crate::{EngineError, Result};
use gdk::{Bat, Candidates, Value};
use mal::{ExecStats, OptConfig, PassStats};
use sciql_algebra::CodegenOptions;
use sciql_catalog::Catalog;
use sciql_catalog::{ColumnMeta, SchemaObject};
use sciql_obs::{SpanId, Trace, Tracer};
use sciql_parser::ast::{SelectStmt, Stmt};
use sciql_store::{
    encode_replay_op, CheckpointColumn, CheckpointObject, ColumnDirt, ReplayOp, Vault, VaultStats,
};
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
    /// The database: what every read sees and every write changes (see
    /// [`Image`]). A [`crate::SharedEngine`] publishes it to its readers
    /// by `Arc` clone.
    pub(crate) image: Arc<Image>,
    /// The connection's own (embedded) session. Sessions of a
    /// [`crate::SharedEngine`] bring their own state and use this
    /// connection only as the single writer.
    pub(crate) session: SessionState,
    /// Durable backing store; `None` for a purely in-memory session.
    pub(crate) vault: Option<Vault>,
    /// Read-only replica mode: user-issued mutating statements are
    /// refused; the only write path is [`Connection::apply_replicated`],
    /// which replays records shipped off a primary's WAL.
    pub(crate) read_only: bool,
    /// Makes every logged write durable; shared with the owning
    /// [`crate::SharedEngine`], whose sessions redeem their tickets on it.
    pub(crate) group_commit: Arc<GroupCommitter>,
    /// Ticket of the last logged write, awaiting redemption by the
    /// session runner outside the writer lock.
    pending_commit: Option<CommitTicket>,
    /// The durable WAL position, published by opening the vault, by the
    /// group committer and by checkpoints; a [`crate::SharedEngine`]
    /// shares it with its shipper and its token waiters.
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
        let watermark = Arc::default();
        let mut conn = Connection {
            image: Arc::default(),
            session: SessionState::default(),
            vault: None,
            read_only: false,
            group_commit: Arc::new(GroupCommitter::new(Arc::clone(&watermark))),
            pending_commit: None,
            watermark,
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
        let image = conn.image_mut();
        for obj in recovered.objects {
            image
                .catalog
                .create(obj.def.clone())
                .map_err(EngineError::Catalog)?;
            let Some(cols) = obj.columns else {
                continue; // catalog-only (unmaterialised array)
            };
            // The vault holds attributes and table columns only: a
            // dimension is its `DimSpec`, regenerated with its shape.
            let (kind, stored) = match &obj.def {
                SchemaObject::Array(def) => ("array", def.attrs.len()),
                SchemaObject::Table(def) => ("table", def.columns.len()),
            };
            let name = obj.def.name();
            if cols.len() != stored {
                return Err(EngineError::msg(format!(
                    "recovered {kind} {name:?} has {} columns, schema says {stored}",
                    cols.len()
                )));
            }
            let key = name.to_ascii_lowercase();
            let cols: Vec<Arc<Bat>> = cols.into_iter().map(|c| Arc::new(c.bat)).collect();
            match obj.def {
                SchemaObject::Array(def) => {
                    let cells = def.cell_count().unwrap_or(0);
                    if let Some(c) = cols.iter().find(|c| c.len() != cells) {
                        return Err(EngineError::msg(format!(
                            "recovered array {:?} has a column of {} cells, schema says {cells}",
                            def.name,
                            c.len()
                        )));
                    }
                    let store = ArrayStore::with_attrs(def, cols, ColumnDirt::Clean)?;
                    image.arrays.insert(key, Arc::new(store));
                }
                SchemaObject::Table(def) => {
                    let dirty_cols = vec![ColumnDirt::Clean; cols.len()];
                    let store = TableStore {
                        def,
                        cols,
                        dirty_cols,
                    };
                    image.tables.insert(key, Arc::new(store));
                }
            }
        }
        conn.vault = Some(vault);
        if let (_, Some(e)) = conn.replay(recovered.ops) {
            return Err(e);
        }
        // Everything recovered is on disk: the watermark starts there.
        let (generation, pos) = conn.wal_applied();
        conn.watermark.publish(generation, pos);
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
        let (applied, failed) = self.replay(ops);
        sciql_obs::global().repl_records_applied.add(applied as u64);
        failed.map_or(Ok(pos), Err)
    }

    /// Apply logged records in order without logging them again
    /// (recovery, replication apply). A data change goes straight to
    /// [`Connection::change`] and a schema statement is parsed and handed
    /// to [`Connection::ddl`]: neither enters the session runner, so
    /// replay counts no statement and plans nothing. A record that fails
    /// does not stop the ones after it. Tables leave with fresh zone
    /// maps, as after a live COPY. Returns how many records applied and
    /// the first failure.
    fn replay(&mut self, ops: Vec<ReplayOp>) -> (usize, Option<EngineError>) {
        let (mut applied, mut failed) = (0, None);
        for op in ops {
            let done = match op {
                ReplayOp::Sql(sql) => {
                    exec::parse_one(&sql).and_then(|s| self.ddl(&s, &sql, None).map(drop))
                }
                op => self.change(op, None),
            };
            match done {
                Ok(()) => applied += 1,
                Err(e) => failed = failed.or(Some(e)),
            }
        }
        for key in self.image.tables.keys() {
            self.install_zone_maps(key);
        }
        (applied, failed)
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

    /// Write a checkpoint: every dirty *tile* of an array attribute or a
    /// table column (tracked per tile by the copy-on-write update paths
    /// in [`ArrayStore`]/[`TableStore`]) is rewritten, clean tiles keep
    /// their files, the catalog snapshot — including each tile's zone
    /// map — is refreshed, and the WAL is rotated. Dimensions are not
    /// written: opening the vault regenerates them from their `DimSpec`.
    /// After this returns, recovery no longer needs the old log.
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
        let image = &self.image;
        let objects: Vec<CheckpointObject<'_>> = (image.catalog.iter())
            .map(|obj| {
                let key = obj.name().to_ascii_lowercase();
                let columns = match obj {
                    SchemaObject::Array(def) => (image.arrays.get(&key))
                        .map(|s| stored_columns(&def.attrs, &s.attrs, &s.dirty_attrs)),
                    SchemaObject::Table(def) => (image.tables.get(&key))
                        .map(|s| stored_columns(&def.columns, &s.cols, &s.dirty_cols)),
                };
                CheckpointObject { def: obj, columns }
            })
            .collect();
        vault.checkpoint(&objects).map_err(EngineError::Store)?;
        let new_gen = vault.generation();
        self.watermark.publish(new_gen, vault.wal_position());
        // Only dirty stores are marked clean, so a clean store that a
        // reader holds is not copied.
        let image = self.image_mut();
        for s in image.arrays.values_mut().filter(|s| s.dirty_columns() > 0) {
            Arc::make_mut(s).mark_clean();
        }
        for s in image.tables.values_mut().filter(|s| s.dirty_columns() > 0) {
            Arc::make_mut(s).mark_clean();
        }
        // The rotation is the epoch boundary: the snapshot made every
        // previously appended record durable, so parked writers are
        // released and the stale WAL handle dropped.
        self.group_commit.advance_epoch(new_gen);
        self.pending_commit = None;
        Ok(())
    }

    /// Configure the MAL optimizer pipeline per pass (finer-grained than
    /// `SessionConfig::opt_level`; the optimizer tests switch single
    /// passes off with it).
    pub fn set_optimizer(&mut self, cfg: OptConfig) {
        self.image_mut().opt_config = cfg;
    }

    /// Configure code generation (candidate-pushdown ablation switch).
    /// The session's parallel settings are preserved — change those via
    /// [`Connection::set_session_config`].
    pub fn set_codegen(&mut self, cfg: CodegenOptions) {
        let keep = self.session_config();
        self.image_mut().codegen = cfg;
        self.set_session_config(keep);
    }

    /// Reconfigure execution: the parallel settings and the optimizer
    /// level flow through [`CodegenOptions`] into the MAL pipeline and
    /// the interpreter's slice driver. The per-pass configuration is
    /// rebuilt from `opt_level` only when the level actually changes, so
    /// a custom [`Connection::set_optimizer`] ablation survives
    /// unrelated reconfiguration (e.g. a thread-count change).
    pub fn set_session_config(&mut self, cfg: SessionConfig) {
        let image = self.image_mut();
        image.codegen.par = gdk::ParConfig {
            threads: cfg.threads.max(1),
            parallel_threshold: cfg.parallel_threshold,
            zone_skip: cfg.zone_skip,
        };
        if cfg.opt_level != image.codegen.opt_level {
            image.opt_config = OptConfig::level(cfg.opt_level);
        }
        image.codegen.opt_level = cfg.opt_level;
        self.session.slow_query_ns = cfg.slow_query_ns;
    }

    /// The session's current execution configuration.
    pub fn session_config(&self) -> SessionConfig {
        let codegen = &self.image.codegen;
        let par = codegen.par;
        SessionConfig {
            threads: par.threads,
            parallel_threshold: par.parallel_threshold,
            opt_level: codegen.opt_level,
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

    /// The image for writing. Unshared, it is written in place; while a
    /// reader holds it, the writer first gets its own copy of the shell:
    /// the catalog and an `Arc` bump per store.
    pub(crate) fn image_mut(&mut self) -> &mut Image {
        Arc::make_mut(&mut self.image)
    }

    /// Array store `name` for writing. Only this store is copied (its
    /// column `Arc`s and its dirt) when a reader still holds it.
    pub(crate) fn array_mut(&mut self, name: &str) -> Result<&mut ArrayStore> {
        let store = self.image_mut().arrays.get_mut(&name.to_ascii_lowercase());
        let missing = || EngineError::msg(format!("array {name:?} not materialised"));
        store.map(Arc::make_mut).ok_or_else(missing)
    }

    /// Table store `name` for writing (see [`Connection::array_mut`]).
    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut TableStore> {
        let store = self.image_mut().tables.get_mut(&name.to_ascii_lowercase());
        let missing = || EngineError::msg(format!("no such table {name:?}"));
        store.map(Arc::make_mut).ok_or_else(missing)
    }

    /// Statistics of the last executed SELECT.
    pub fn last_exec(&self) -> &LastExec {
        &self.session.last
    }

    /// The catalog (read-only view).
    pub fn catalog(&self) -> &Catalog {
        &self.image.catalog
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

    /// Prepare a named statement: parsed now, and (for a SELECT, UPDATE
    /// or DELETE) compiled once into a parameterised plan on first
    /// execution. Returns the number of `?`/`:name` bind slots; a
    /// statement other than SELECT, INSERT, UPDATE or DELETE that has
    /// any is refused. Re-preparing a name replaces it.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<usize> {
        self.session.prepare(name, sql)
    }

    /// Execute a prepared statement with bound parameter values (slot
    /// order; see [`crate::Prepared::param_slot`] for named lookup).
    ///
    /// A SELECT, UPDATE or DELETE runs its cached compiled plan — a
    /// cache hit skips parse, bind and the optimizer pipeline entirely,
    /// reported as `ExecStats::plan_cache_hits` in
    /// [`Connection::last_exec`]. An INSERT evaluates its rows with the
    /// values. A write is logged, like any other, as the values it
    /// stored.
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
    /// succeeds is in the write-ahead log — a schema statement as its
    /// canonical printed text, a data change as the values it stored —
    /// and made durable by the group committer before this returns: an
    /// acknowledged statement survives a crash.
    pub fn execute_stmt(&mut self, stmt: &Stmt) -> Result<QueryResult> {
        exec::run(&mut Reach::Exclusive(self), Request::Stmt(stmt))
    }

    /// Execute a mutating statement on this connection — the single
    /// writer — with `binding`'s values in its slots. A schema statement
    /// is logged as its canonical printed text; every data change
    /// reaches the stores, and the log, through [`Connection::change`].
    /// Cell statements and `INSERT` are all-or-nothing; a COPY applies
    /// and logs batch by batch, so a failing batch leaves the batches
    /// before it applied and logged.
    pub(crate) fn write_stmt(
        &mut self,
        stmt: &Stmt,
        binding: Binding<'_>,
        tracer: &mut Tracer,
    ) -> Result<QueryResult> {
        self.writable()?;
        let n = match stmt {
            Stmt::Insert {
                table,
                columns,
                source,
            } => self.insert(table, columns.as_deref(), source, binding.params, tracer)?,
            Stmt::Delete { table, filter } => {
                self.delete(table, filter.as_ref(), binding, tracer)?
            }
            Stmt::Update {
                table,
                sets,
                filter,
            } => self.update(table, sets, filter.as_ref(), binding, tracer)?,
            Stmt::Copy {
                target,
                path,
                format,
            } => self.copy_into(target, path, *format, tracer)?,
            _ => self.ddl(stmt, &stmt.to_string(), Some(tracer))?,
        };
        Ok(QueryResult::Affected(n))
    }

    /// Refuse a user write on a read-only replica.
    fn writable(&self) -> Result<()> {
        if self.read_only {
            return Err(EngineError::msg(
                "read-only replica: route writes to the primary",
            ));
        }
        Ok(())
    }

    /// Execute a schema statement and, with `log`, append `text` to the
    /// WAL (see [`Connection::log`]). Returns the affected cell count.
    pub(crate) fn ddl(
        &mut self,
        stmt: &Stmt,
        text: &str,
        log: Option<&mut Tracer>,
    ) -> Result<usize> {
        let n = match stmt {
            Stmt::CreateTable { name, columns } => self.create_table(name, columns).map(|_| 0)?,
            Stmt::CreateArray { name, columns } => self.create_array(name, columns)?,
            Stmt::Drop { name, array } => self.drop_object(name, *array).map(|_| 0)?,
            Stmt::AlterDimension {
                array,
                dimension,
                range,
            } => self.alter_dimension(array, dimension, range)?,
            _ => return Err(EngineError::msg(format!("not a schema statement: {text}"))),
        };
        if let Some(tracer) = log.filter(|_| self.vault.is_some()) {
            self.log(&encode_replay_op(&ReplayOp::Sql(text.to_owned())), tracer)?;
        }
        Ok(n)
    }

    /// The one way a data change reaches the stores: check `op` against
    /// the image and apply it in memory; then, with `log` and a vault,
    /// append that same record to the WAL (see [`Connection::log`]).
    /// Nothing is encoded without a vault. A record that does not fit —
    /// an unknown target, a position past the cell or row count, a column
    /// index out of range, a value column of another length than `at` or
    /// of another type than its column — changes nothing.
    pub(crate) fn change(&mut self, op: ReplayOp, log: Option<&mut Tracer>) -> Result<()> {
        let record = (log.filter(|_| self.vault.is_some())).map(|t| (t, encode_replay_op(&op)));
        self.apply(op)?;
        match record {
            Some((tracer, payload)) => self.log(&payload, tracer),
            None => Ok(()),
        }
    }

    /// Check and apply one data change in memory.
    fn apply(&mut self, op: ReplayOp) -> Result<()> {
        let (target, at, columns) = match op {
            ReplayOp::Write {
                target,
                at,
                columns,
            } => (target, at, Some(columns)),
            ReplayOp::Delete { target, at } => (target, at, None),
            ReplayOp::Sql(_) => return Err(EngineError::msg("a SQL record is not a data change")),
        };
        let key = target.to_ascii_lowercase();
        let array = self.image.arrays.get(&key);
        let (metas, rows) = match (array, self.image.tables.get(&key)) {
            (Some(a), _) => (&a.def.attrs, a.cell_count()),
            (_, Some(t)) => (&t.def.columns, t.row_count()),
            _ => {
                return Err(EngineError::msg(format!(
                    "no stored array or table {target:?}"
                )))
            }
        };
        let grows = array.is_none();
        let append = check_change(&target, metas, rows, grows, &at, columns.as_ref())?;
        if !grows {
            let store = self.array_mut(&key)?;
            return match columns {
                Some(writes) => store.write_attrs(&at, writes),
                None => store.punch_holes(&at),
            };
        }
        let store = self.table_mut(&key)?;
        match columns {
            Some(writes) if append => {
                let batch: Vec<Bat> = (writes.into_iter())
                    .map(|(_, b)| Arc::unwrap_or_clone(b))
                    .collect();
                store.append_batch(&batch).map(drop)
            }
            Some(writes) => store.write_cols(&at, writes),
            None => store.retain_positions(&Candidates::all(rows).difference(&at)),
        }
    }

    /// Append one record `payload` to the vault's WAL, unsynced, and
    /// stage its commit ticket. If the append fails after the memory
    /// write, a checkpoint captures the effect instead, keeping the
    /// durability promise without the record.
    fn log(&mut self, payload: &[u8], tracer: &mut Tracer) -> Result<()> {
        let vault = self.vault.as_mut().expect("only a vault logs");
        let sp = tracer.open(SpanId::ROOT, "wal.append");
        let append = (vault.append_nosync(payload)).and_then(|pos| self.stage_commit(pos));
        tracer.close(sp);
        if append.is_err() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Stage the ticket of a WAL record just appended up to `pos` — it
    /// replaces any earlier one of the same statement, as a COPY's last
    /// batch covers its first. The session runner takes it with
    /// [`Connection::take_pending_commit`] and redeems it on the
    /// [`GroupCommitter`] once the writer lock is released, before the
    /// statement is acknowledged.
    pub(crate) fn stage_commit(&mut self, pos: u64) -> sciql_store::StoreResult<()> {
        let vault = self.vault.as_ref().expect("logged writes have a vault");
        let handle = vault.wal_sync_handle()?;
        let epoch = vault.generation();
        self.pending_commit = Some(CommitTicket { epoch, pos, handle });
        Ok(())
    }

    /// Take the [`CommitTicket`] of the statement just executed, if it
    /// logged anything.
    pub(crate) fn take_pending_commit(&mut self) -> Option<CommitTicket> {
        self.pending_commit.take()
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
        exec::explain_select(&sel, &self.image)
    }

    /// Run a SELECT through the full pipeline with `params` in its slots
    /// (the `INSERT … SELECT` executor's source).
    pub(crate) fn run_select(&mut self, sel: &SelectStmt, params: &[Value]) -> Result<ResultSet> {
        let sys = || SysData::of(self.vault.as_ref());
        let tracer = &mut Tracer::off();
        let (rs, last) = exec::execute_select(sel, params, &self.image, &sys, tracer)?;
        self.session.last = last;
        Ok(rs)
    }

    /// Bulk-load an array from column data — the reproduction's stand-in
    /// for MonetDB's (Geo)TIFF Data Vault [Ivanova et al., SSDBM 2012],
    /// which the demo uses to ingest images without the SQL INSERT path.
    /// Each attribute's length must equal the cell count of the fixed
    /// `dims`; a refused load changes nothing. The load is the
    /// `CREATE ARRAY` of `dims` (typed INT) and `attrs`, then the
    /// attributes stored tile by tile as a binary COPY stores them: with
    /// a vault it is logged as those same records, shipped to replicas
    /// as records, and durable when this returns. It is not a statement,
    /// so `sys.query_log` gains no row.
    pub fn bulk_load_array(
        &mut self,
        name: &str,
        dims: &[(&str, sciql_catalog::DimSpec)],
        attrs: Vec<(&str, Bat)>,
    ) -> Result<()> {
        self.writable()?;
        let cells = (dims.iter())
            .try_fold(1usize, |n, (_, r)| n.checked_mul(r.len()))
            .ok_or_else(|| EngineError::msg("bulk load requires fixed ranges"))?;
        for (n, b) in &attrs {
            if b.len() != cells {
                return Err(EngineError::msg(format!(
                    "attribute {n:?} has {} values, array has {cells} cells",
                    b.len()
                )));
            }
        }
        let columns: Vec<String> = (dims.iter())
            .map(|(n, r)| format!("{n} INT DIMENSION[{}:{}:{}]", r.start, r.step, r.stop))
            .chain(
                attrs
                    .iter()
                    .map(|(n, b)| format!("{n} {}", b.tail_type().sql_name())),
            )
            .collect();
        let text = format!("CREATE ARRAY {name} ({})", columns.join(", "));
        // Recovery and replicas parse the logged text: it must print back
        // as itself, the canonical text of this very statement.
        let create = (exec::parse_one(&text).ok())
            .filter(|s| s.to_string() == text)
            .ok_or_else(|| EngineError::msg(format!("bulk load: {text:?} does not read back")))?;
        let tracer = &mut Tracer::off();
        self.ddl(&create, &text, Some(tracer))?;
        let key = name.to_ascii_lowercase();
        let cols: Vec<Bat> = attrs.into_iter().map(|(_, b)| b).collect();
        self.ingest_tiles(&key, &cols, tracer)?;
        self.install_zone_maps(&key);
        (self.take_pending_commit()).map_or(Ok(()), |t| self.group_commit.wait_durable(t))
    }

    /// Direct read access to a stored array (tests, demos and the image
    /// pipeline use this to avoid the SQL round trip).
    pub fn array_store(&self, name: &str) -> Result<&ArrayStore> {
        self.image
            .arrays
            .get(&name.to_ascii_lowercase())
            .map(Arc::as_ref)
            .ok_or_else(|| EngineError::msg(format!("array {name:?} is not materialised")))
    }

    /// Direct read access to a stored table.
    pub fn table_store(&self, name: &str) -> Result<&TableStore> {
        self.image
            .tables
            .get(&name.to_ascii_lowercase())
            .map(Arc::as_ref)
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

/// The columns a checkpoint hands the vault for one store: an array's
/// attributes or a table's columns, each with its tile dirt.
fn stored_columns<'a>(
    metas: &'a [ColumnMeta],
    bats: &'a [Arc<Bat>],
    dirt: &[ColumnDirt],
) -> Vec<CheckpointColumn<'a>> {
    (metas.iter().zip(bats).zip(dirt))
        .map(|((c, bat), dirt)| CheckpointColumn {
            name: c.name.as_str(),
            bat,
            dirt: dirt.clone(),
        })
        .collect()
}

/// Check a data change against its target's stored columns `metas`,
/// each `rows` long: `at` lies below `rows` — or, on a table (`grows`),
/// it may be the dense run right after them, an append that writes every
/// column in order — and each value column is as long as `at`, of its
/// column's stored type. Returns whether the change appends.
fn check_change(
    target: &str,
    metas: &[ColumnMeta],
    rows: usize,
    grows: bool,
    at: &Candidates,
    columns: Option<&ColumnWrites>,
) -> Result<bool> {
    let bad = |what: String| EngineError::msg(format!("{target:?}: {what}"));
    let append = grows
        && columns.is_some()
        && matches!(at, Candidates::Dense { first, .. } if *first == rows as u64);
    let last = at.len().checked_sub(1).map(|i| at.get(i));
    if let Some(last) = last.filter(|&p| !append && p >= rows as u64) {
        return Err(bad(format!("position {last} is past its {rows} rows")));
    }
    let columns = columns.map_or(&[][..], Vec::as_slice);
    if append && !columns.iter().map(|c| c.0).eq(0..metas.len()) {
        return Err(bad("an append must write every column in order".into()));
    }
    for (k, values) in columns {
        let meta = metas
            .get(*k)
            .ok_or_else(|| bad(format!("no stored column {k}")))?;
        let ty = values.tail_type();
        if values.len() != at.len() || ty != meta.ty {
            return Err(bad(format!(
                "{} {ty} values for {} positions of column {:?} ({})",
                values.len(),
                at.len(),
                meta.name,
                meta.ty
            )));
        }
    }
    Ok(append)
}
