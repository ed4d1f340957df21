//! The statement executor and the session runner: the **only** place a
//! statement is entered, whichever shell it arrives through — the
//! embedded [`Connection`], a multiplexed [`EngineSession`], and hence
//! every driver transport.
//!
//! `run` takes a `Reach` (the session's state plus a way to reach the
//! database) and a `Request` (statement text, a parsed statement, or a
//! prepared name + values) and does everything in between: parse,
//! read-vs-write classification, execution, the observability tap and
//! the session's bookkeeping. README § *Statement lifecycle* states the
//! contract and names the test pinning each invariant.
//!
//! Every SELECT, prepared or ad hoc, runs a cached plan when it can: the
//! bound, optimised MAL program compiled **once** with
//! [`mal::Arg::Param`] slots, which each execution fills with its own
//! values — no re-bind, no re-optimise.
//!
//! - A [`Prepared`] SELECT keeps its plan, with a slot for each
//!   `?`/`:name` placeholder; re-executing it also skips the parse.
//! - An ad-hoc SELECT (text or script, on any transport) is looked up in
//!   the session's bounded `PlanCache` under its lifted form
//!   ([`SelectStmt::lift_literals`]): every literal that is a direct
//!   operand of `=`, `<>`, `<`, `<=`, `>`, `>=` or a `BETWEEN` bound in
//!   the WHERE clause becomes a slot typed as the literal itself, so the
//!   next statement that differs only in those literals reruns the plan.
//!   `NULL` and literals anywhere else (projections, `CASE`, `IN`
//!   lists, slices, tiles, `LIMIT`) are part of the key.
//! - `EXPLAIN` and `EXPLAIN ANALYZE` plan the statement as written, so
//!   they show the unlifted plan; `sys.query_log` logs the statement
//!   with its own literals.
//!
//! A cached plan is invalidated by schema changes (catalog version,
//! unique in the process) and by execution reconfiguration (optimizer
//! level, thread count), never by data changes: programs reference
//! stored columns by name through `sql.bind`, so a cached plan always
//! sees the current column versions.
//!
//! Mutating prepared statements take the other path: bound values are
//! inlined into the AST as literals and the statement is dispatched like
//! any other write. The WAL never sees that text: a data change is logged
//! as the values it stored.

use crate::commit::GroupCommitter;
use crate::engine::{EngineSession, SessionStats};
use crate::result::ResultSet;
use crate::session::{text_rows, Connection, LastExec, QueryResult};
use crate::storage::{ArrayStore, TableStore};
use crate::sysview::{self, SysData};
use crate::{EngineError, Result};
use gdk::{Bat, ScalarType, Value};
use mal::{Binder as MalBinder, ExecStats, Interpreter, MalValue, OptConfig, PassStats, Program};
use sciql_algebra::bind::literal_value;
use sciql_algebra::{compile, rewrite, Binder, CodegenOptions, ColInfo, Plan};
use sciql_catalog::Catalog;
use sciql_obs::{SpanId, Trace, Tracer};
use sciql_parser::ast::{Expr, Literal, ParamRef, SelectStmt, Stmt};
use sciql_parser::{parse_statement, parse_statements};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parse exactly one statement.
pub(crate) fn parse_one(sql: &str) -> Result<Stmt> {
    parse_statement(sql).map_err(EngineError::Parse)
}

// ---------------------------------------------------------------------
// prepared statements
// ---------------------------------------------------------------------

/// A prepared statement: parsed once, and for SELECTs compiled once into
/// a parameterised MAL program that re-executes without re-planning.
#[derive(Debug, Clone)]
pub struct Prepared {
    stmt: Stmt,
    sql: String,
    params: Vec<ParamRef>,
    cache: Option<CachedPlan>,
}

/// The compiled-once artefact of a cached SELECT (a prepared statement,
/// or an ad-hoc statement's lifted form), plus everything the validity
/// check needs.
#[derive(Debug, Clone)]
struct CachedPlan {
    prog: Program,
    schema: Vec<ColInfo>,
    catalog_version: u64,
    opt_config: OptConfig,
    codegen: CodegenOptions,
    opt_report: PassStats,
    instrs_before: usize,
    instrs_after: usize,
    /// `sys.*` views the plan scans — their contents are synthesized
    /// fresh on every execution (the compiled program is reusable, the
    /// introspection data is not).
    sys_views: Vec<String>,
}

impl Prepared {
    /// Parse `sql` into a prepared statement (plan compilation is lazy:
    /// it happens on first execution, against the catalog of that
    /// moment).
    pub fn new(sql: &str) -> Result<Prepared> {
        let stmt = parse_one(sql)?;
        let params = stmt.params();
        Ok(Prepared {
            stmt,
            sql: sql.to_owned(),
            params,
            cache: None,
        })
    }

    /// The original statement text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The parsed statement.
    pub fn statement(&self) -> &Stmt {
        &self.stmt
    }

    /// Number of bind-parameter slots.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Per-slot parameter descriptors (slot order).
    pub fn params(&self) -> &[ParamRef] {
        &self.params
    }

    /// Resolve a `:name` to its slot (leading `:` optional,
    /// case-insensitive).
    pub fn param_slot(&self, name: &str) -> Option<usize> {
        sciql_parser::ast::named_param_slot(&self.params, name)
    }

    /// Is this a SELECT (plan-cached) statement?
    pub fn is_select(&self) -> bool {
        matches!(self.stmt, Stmt::Select(_))
    }

    /// Fail unless enough parameter values are bound.
    pub fn check_params(&self, params: &[Value]) -> Result<()> {
        if params.len() < self.params.len() {
            return Err(EngineError::Mal(mal::MalError::unbound_param(
                self.params.len() - 1,
                params.len(),
            )));
        }
        Ok(())
    }
}

/// A session's named prepared statements (names are case-insensitive).
#[derive(Debug, Default)]
pub(crate) struct PreparedSet {
    map: HashMap<String, Prepared>,
}

/// The map key of a statement name. Every execution looks its statement
/// up, so an already-lowercase name — all driver-generated ones are —
/// is used as is instead of being copied.
fn prepared_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Most ad-hoc SELECT plans one session keeps; past it, the least
/// recently used one goes.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 256;

/// A session's ad-hoc SELECT plans, keyed on the statement's lifted form
/// (see [`SelectStmt::lift_literals`]) and the types of its lifted
/// literals.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    map: HashMap<PlanKey, (u64, CachedPlan)>,
    /// Bumped on every insert; an entry's stamp says when it last ran.
    clock: u64,
}

type PlanKey = (String, Vec<ScalarType>);

impl PlanCache {
    /// Take out the plan for `key`, if any; [`PlanCache::put`] returns it.
    fn take(&mut self, key: &PlanKey) -> Option<CachedPlan> {
        self.map.remove(key).map(|(_, plan)| plan)
    }

    fn put(&mut self, key: PlanKey, plan: CachedPlan) {
        if self.map.len() >= PLAN_CACHE_CAPACITY {
            let oldest = self.map.iter().min_by_key(|(_, (stamp, _))| *stamp);
            if let Some(oldest) = oldest.map(|(k, _)| k.clone()) {
                self.map.remove(&oldest);
            }
        }
        self.clock += 1;
        self.map.insert(key, (self.clock, plan));
    }
}

impl PreparedSet {
    /// Parse and stash a statement under `name`; returns its parameter
    /// count. Re-preparing an existing name replaces it.
    fn insert(&mut self, name: &str, sql: &str) -> Result<usize> {
        let prep = Prepared::new(sql)?;
        let n = prep.param_count();
        self.map.insert(prepared_key(name).into_owned(), prep);
        Ok(n)
    }

    /// Look up a statement for execution.
    fn get_mut(&mut self, name: &str) -> Result<&mut Prepared> {
        self.map
            .get_mut(&*prepared_key(name))
            .ok_or_else(|| EngineError::msg(format!("no prepared statement named {name:?}")))
    }

    /// Drop a statement; `true` if it existed.
    pub(crate) fn remove(&mut self, name: &str) -> bool {
        self.map.remove(&*prepared_key(name)).is_some()
    }
}

// ---------------------------------------------------------------------
// the Fig-2 pipeline tail, split for plan caching
// ---------------------------------------------------------------------

/// The database a statement reads: the catalog, the stores and the
/// pipeline settings. A [`Connection`] owns it as an `Arc<Image>`. An
/// exclusive read borrows it; a shared read takes an `Arc` clone under
/// the engine lock and executes outside it. Writes go through
/// `Arc::make_mut`, on the image and then on the one store they change,
/// so a write copies a store's column list only while a reader holds it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Image {
    pub(crate) catalog: Catalog,
    pub(crate) arrays: HashMap<String, Arc<ArrayStore>>,
    pub(crate) tables: HashMap<String, Arc<TableStore>>,
    pub(crate) opt_config: OptConfig,
    pub(crate) codegen: CodegenOptions,
}

/// Builds the state the `sys.*` views surface, for the rare plan that
/// scans one.
pub(crate) type Sys<'a> = &'a dyn Fn() -> SysData;

/// Compile + optimise a logical plan, with `codegen` and per-pass
/// `optimize` spans. Returns the program, the optimizer's per-pass
/// stats and the instruction counts before/after optimization.
fn compile_plan(
    plan: &Plan,
    image: &Image,
    tracer: &mut Tracer,
) -> Result<(Program, PassStats, usize, usize)> {
    let sp = tracer.open(SpanId::ROOT, "codegen");
    let mut prog: Program = compile(plan, &image.codegen)?;
    tracer.note(sp, "instrs", prog.instrs.len() as u64);
    tracer.close(sp);
    let (report, before, after) = optimise(&mut prog, image, tracer);
    Ok((prog, report, before, after))
}

/// Run the session's optimizer pipeline over `prog` under an `optimize`
/// span: the per-pass stats and the instruction counts before/after.
fn optimise(prog: &mut Program, image: &Image, tracer: &mut Tracer) -> (PassStats, usize, usize) {
    let before = prog.instrs.len();
    let sp = tracer.open(SpanId::ROOT, "optimize");
    let report = mal::optimise_traced(prog, image.opt_config, tracer, sp);
    let after = prog.instrs.len();
    tracer.note(sp, "instrs", after as u64);
    tracer.close(sp);
    (report, before, after)
}

/// Optimise and run the read of a cell statement
/// ([`sciql_algebra::compile_cells`]): its results in order, as MAL
/// values.
pub(crate) fn execute_cells(
    mut prog: Program,
    image: &Image,
    tracer: &mut Tracer,
) -> Result<(Vec<MalValue>, LastExec)> {
    let (opt, before, after) = optimise(&mut prog, image, tracer);
    let (outs, exec) = run_mal(&prog, &image.tables, image, &[], tracer)?;
    let last = LastExec {
        exec,
        opt,
        instrs_before_opt: before,
        instrs_after_opt: after,
    };
    Ok((outs.into_iter().map(|(_, v)| v).collect(), last))
}

/// Interpret `prog` over the image's arrays and `tables` under a `mal`
/// span, filling its parameter slots from `params`.
fn run_mal(
    prog: &Program,
    tables: &HashMap<String, Arc<TableStore>>,
    image: &Image,
    params: &[Value],
    tracer: &mut Tracer,
) -> Result<(Vec<(String, MalValue)>, ExecStats)> {
    let storage = StorageBinder {
        arrays: &image.arrays,
        tables,
    };
    let interp = Interpreter::with_config(&storage, image.codegen.par);
    let sp = tracer.open(SpanId::ROOT, "mal");
    let ran = interp.run_traced(prog, params, tracer, sp);
    tracer.close(sp);
    let (outs, exec) = ran.map_err(EngineError::Mal)?;
    sciql_obs::global()
        .tiles_skipped
        .add(exec.tiles_skipped as u64);
    if tracer.is_on() {
        tracer.note(sp, "instructions", exec.instructions as u64);
        tracer.note(sp, "threads", exec.max_threads as u64);
        if exec.tiles_skipped > 0 {
            tracer.note(sp, "tiles_skipped", exec.tiles_skipped as u64);
        }
        if exec.intermediates_avoided > 0 {
            tracer.note(
                sp,
                "intermediates_avoided",
                exec.intermediates_avoided as u64,
            );
        }
    }
    Ok((outs, exec))
}

/// Execute a compiled program against the image's stores (plus freshly
/// synthesized `sys_views`), filling its parameter slots from `params`,
/// and shape the outputs into a [`ResultSet`] using the plan's schema.
fn run_program(
    prog: &Program,
    schema: &[ColInfo],
    sys_views: &[String],
    image: &Image,
    sys: Sys<'_>,
    params: &[Value],
    tracer: &mut Tracer,
) -> Result<(ResultSet, ExecStats)> {
    let augmented;
    let tables = if sys_views.is_empty() {
        &image.tables
    } else {
        augmented = sysview::augment_tables(sys_views, image, &sys())?;
        &augmented
    };
    let (outs, exec) = run_mal(prog, tables, image, params, tracer)?;
    let sp = tracer.open(SpanId::ROOT, "result");
    let mut columns = Vec::with_capacity(schema.len());
    let mut bats: Vec<Arc<Bat>> = Vec::with_capacity(schema.len());
    for ((label, val), info) in outs.into_iter().zip(schema) {
        let b = match val {
            MalValue::Bat(b) => b,
            MalValue::Scalar(v) => {
                let ty = v.scalar_type().unwrap_or(info.ty);
                let mut nb = Bat::with_capacity(ty, 1);
                nb.push(&v).map_err(EngineError::Gdk)?;
                Arc::new(nb)
            }
            other => {
                return Err(EngineError::msg(format!(
                    "result column {label:?} is not a BAT ({})",
                    other.kind()
                )))
            }
        };
        columns.push(crate::result::ColumnMeta {
            name: label,
            ty: b.tail_type(),
            dimensional: info.dimensional,
        });
        bats.push(b);
    }
    let rs = ResultSet { columns, bats };
    if tracer.is_on() {
        tracer.note(sp, "rows", rs.row_count() as u64);
        tracer.note(sp, "cols", rs.column_count() as u64);
    }
    tracer.close(sp);
    Ok((rs, exec))
}

/// Bind + rewrite a SELECT into a logical plan, under `bind` and
/// `rewrite` spans. Placeholder slot `k` is typed `slot_types[k]` when
/// given, by its context otherwise.
fn plan_select(
    sel: &SelectStmt,
    catalog: &Catalog,
    slot_types: &[ScalarType],
    tracer: &mut Tracer,
) -> Result<Plan> {
    let sp = tracer.open(SpanId::ROOT, "bind");
    let bound = Binder::new(catalog)
        .with_slot_types(slot_types)
        .bind_select(sel);
    tracer.close(sp);
    let sp = tracer.open(SpanId::ROOT, "rewrite");
    let plan = rewrite(bound?);
    tracer.close(sp);
    Ok(plan)
}

/// Run a SELECT through the full Fig-2 pipeline, past every plan cache
/// (`EXPLAIN ANALYZE`, `INSERT … SELECT`).
pub(crate) fn execute_select(
    sel: &SelectStmt,
    image: &Image,
    sys: Sys<'_>,
    tracer: &mut Tracer,
) -> Result<(ResultSet, LastExec)> {
    let plan = plan_select(sel, &image.catalog, &[], tracer)?;
    let (prog, report, before, after) = compile_plan(&plan, image, tracer)?;
    let sys_views = sysview::sys_scans(&plan);
    let (rs, exec) = run_program(&prog, &plan.schema(), &sys_views, image, sys, &[], tracer)?;
    let last = LastExec {
        exec,
        opt: report,
        instrs_before_opt: before,
        instrs_after_opt: after,
    };
    Ok((rs, last))
}

impl CachedPlan {
    /// Plan and compile `sel` against `image`.
    fn compile(
        sel: &SelectStmt,
        slot_types: &[ScalarType],
        image: &Image,
        tracer: &mut Tracer,
    ) -> Result<CachedPlan> {
        let plan = plan_select(sel, &image.catalog, slot_types, tracer)?;
        let (prog, opt_report, instrs_before, instrs_after) = compile_plan(&plan, image, tracer)?;
        Ok(CachedPlan {
            prog,
            schema: plan.schema(),
            catalog_version: image.catalog.version(),
            opt_config: image.opt_config,
            codegen: image.codegen,
            opt_report,
            instrs_before,
            instrs_after,
            sys_views: sysview::sys_scans(&plan),
        })
    }

    /// Was the plan compiled against `image`'s schema and settings?
    fn valid_for(&self, image: &Image) -> bool {
        self.catalog_version == image.catalog.version()
            && self.opt_config == image.opt_config
            && self.codegen == image.codegen
    }
}

/// Execute `sel` through the plan in `slot`, compiling it into the slot
/// first unless the plan there is still valid for `image`.
/// `ExecStats::plan_cache_hits` reports which path ran. `params` fill
/// the plan's placeholder slots; `slot_types` types those a lifted
/// literal left (a prepared statement's take their type from context).
fn execute_cached(
    slot: &mut Option<CachedPlan>,
    sel: &SelectStmt,
    slot_types: &[ScalarType],
    params: &[Value],
    image: &Image,
    sys: Sys<'_>,
    tracer: &mut Tracer,
) -> Result<(ResultSet, LastExec)> {
    let hit = slot.as_ref().is_some_and(|c| c.valid_for(image));
    let m = sciql_obs::global();
    if hit {
        m.plan_cache_hits.inc();
    } else {
        m.plan_cache_misses.inc();
        *slot = Some(CachedPlan::compile(sel, slot_types, image, tracer)?);
    }
    let cache = slot.as_ref().expect("compiled above");
    if tracer.is_on() {
        tracer.note(SpanId::ROOT, "plan_cache_hit", u64::from(hit));
    }
    let (rs, mut exec) = run_program(
        &cache.prog,
        &cache.schema,
        &cache.sys_views,
        image,
        sys,
        params,
        tracer,
    )?;
    exec.plan_cache_hits = usize::from(hit);
    let last = LastExec {
        exec,
        opt: cache.opt_report,
        instrs_before_opt: cache.instrs_before,
        instrs_after_opt: cache.instrs_after,
    };
    Ok((rs, last))
}

/// Execute a prepared SELECT with bound parameters, reusing its compiled
/// plan while that is still valid.
fn execute_prepared_select(
    prep: &mut Prepared,
    params: &[Value],
    image: &Image,
    sys: Sys<'_>,
    tracer: &mut Tracer,
) -> Result<(ResultSet, LastExec)> {
    let Stmt::Select(sel) = &prep.stmt else {
        return Err(EngineError::msg(
            "execute_prepared_select requires a SELECT statement",
        ));
    };
    execute_cached(&mut prep.cache, sel, &[], params, image, sys, tracer)
}

/// Execute an ad-hoc SELECT through the session's plan cache: its lifted
/// form is planned once, and every later statement that differs from it
/// only in lifted literals runs that plan with its own literals bound.
fn execute_adhoc_select(
    plans: &mut PlanCache,
    sel: &SelectStmt,
    image: &Image,
    sys: Sys<'_>,
    tracer: &mut Tracer,
) -> Result<(ResultSet, LastExec)> {
    let Some((lifted, literals)) = sel.lift_literals() else {
        // Placeholders of its own: nothing binds them, so let the
        // pipeline report the unbound slot as it always has.
        return execute_select(sel, image, sys, tracer);
    };
    let values: Vec<Value> = literals.iter().map(literal_value).collect();
    let types = values
        .iter()
        .map(|v| v.scalar_type().expect("NULL is never lifted"))
        .collect();
    let key = (lifted.to_string(), types);
    let mut slot = plans.take(&key);
    let result = execute_cached(&mut slot, &lifted, &key.1, &values, image, sys, tracer);
    if let Some(plan) = slot {
        plans.put(key, plan);
    }
    result
}

/// EXPLAIN: the logical plan and the generated and optimised MAL text.
pub(crate) fn explain_select(sel: &SelectStmt, image: &Image) -> Result<String> {
    let plan = rewrite(Binder::new(&image.catalog).bind_select(sel)?);
    let mut prog = compile(&plan, &image.codegen)?;
    let before = prog.to_text();
    let cfg = image.opt_config;
    mal::optimise_traced(&mut prog, cfg, &mut Tracer::off(), SpanId::ROOT);
    let after = prog.to_text();
    Ok(format!(
        "-- logical plan\n{}\n-- MAL (generated)\n{before}\n-- MAL (optimised)\n{after}",
        plan.explain()
    ))
}

// ---------------------------------------------------------------------
// the session runner: the one place a statement is entered
// ---------------------------------------------------------------------

/// Everything a statement reads or leaves behind that is not the
/// database itself. A [`Connection`] owns one (the embedded session);
/// every [`EngineSession`] owns one.
#[derive(Debug, Default)]
pub(crate) struct SessionState {
    /// Stamped into `sys.query_log` records (0 = embedded connection).
    pub(crate) id: u64,
    /// Statistics of the most recent statement.
    pub(crate) last: LastExec,
    /// Named prepared statements (a SELECT keeps its compiled plan).
    pub(crate) prepared: PreparedSet,
    /// Compiled plans of ad-hoc SELECTs, by lifted form.
    pub(crate) plans: PlanCache,
    /// When set, every statement records a span trace.
    pub(crate) trace_enabled: bool,
    /// The span tree of the most recent traced statement.
    pub(crate) last_trace: Option<Trace>,
    /// Slow-query threshold in wall nanoseconds (0 = off). While armed,
    /// every statement is traced so a slow one can keep its span tree.
    pub(crate) slow_query_ns: u64,
    /// Statements entered, rows returned, requests failed.
    pub(crate) stats: SessionStats,
    /// `(generation, WAL position)` of this session's newest
    /// acknowledged write — the monotonic-read token its replies carry.
    pub(crate) commit_token: Option<(u64, u64)>,
    /// A monotonic-read token wait that held the next statement: when it
    /// started and how long it took. The statement's trace opens with it.
    pub(crate) held: Option<(Instant, Duration)>,
}

impl SessionState {
    /// Switch per-statement tracing; switching off drops the last trace.
    pub(crate) fn set_tracing(&mut self, on: bool) {
        self.trace_enabled = on;
        if !on {
            self.last_trace = None;
        }
    }

    /// A tracer for the next statement: on when tracing is enabled or
    /// the slow-query log is armed (a fast statement's forced trace is
    /// discarded afterwards); otherwise off, and the clock is never read.
    /// A token wait that held the statement becomes its first span.
    fn tracer(&mut self, label: &str) -> Tracer {
        let held = self.held.take();
        if !(self.trace_enabled || self.slow_query_ns > 0) {
            return Tracer::off();
        }
        match held {
            Some((since, waited)) => {
                let mut tracer = Tracer::on_since(label, since);
                tracer.record(SpanId::ROOT, "repl.token_wait", waited);
                tracer
            }
            None => Tracer::on(label),
        }
    }

    /// Parse and stash a named statement; returns its bind-slot count.
    pub(crate) fn prepare(&mut self, name: &str, sql: &str) -> Result<usize> {
        self.prepared
            .insert(name, sql)
            .inspect_err(|_| self.stats.errors += 1)
    }
}

/// A session plus its way to reach the database.
pub(crate) enum Reach<'a> {
    /// The connection's own session: its stores are read in place and
    /// each write is made durable before it returns.
    Exclusive(&'a mut Connection),
    /// A session over a shared engine: reads run on a point-in-time
    /// snapshot outside the engine lock, writes go through the locked
    /// single writer and the group-commit queue.
    Shared(&'a mut EngineSession),
}

/// What a session asks [`run`] to execute.
pub(crate) enum Request<'a> {
    /// Statement text, parsed here under the trace's `parse` span.
    Sql(&'a str),
    /// An already parsed statement.
    Stmt(&'a Stmt),
    /// A prepared statement by name, with slot-ordered values.
    Prepared(&'a str, &'a [Value]),
}

impl Reach<'_> {
    fn state(&mut self) -> &mut SessionState {
        match self {
            Reach::Exclusive(conn) => &mut conn.session,
            Reach::Shared(sess) => &mut sess.state,
        }
    }

    fn count_statement(&mut self) {
        self.state().stats.statements += 1;
        if let Reach::Shared(sess) = self {
            sess.engine.stats.statements.fetch_add(1, Ordering::Relaxed);
            sess.info.queries.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_rows(&mut self, n: u64) {
        self.state().stats.rows_returned += n;
        if let Reach::Shared(sess) = self {
            sess.engine
                .stats
                .rows_returned
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Run `f` against one consistent image of the database: the
    /// connection's own when exclusive, an `Arc` of the engine's (taken
    /// under a brief lock, read outside it) when shared.
    fn read<R>(&mut self, f: impl FnOnce(&mut SessionState, &Image, Sys<'_>) -> R) -> R {
        match self {
            Reach::Exclusive(conn) => {
                let vault = conn.vault.as_ref();
                f(&mut conn.session, &conn.image, &|| SysData::of(vault))
            }
            Reach::Shared(sess) => {
                let engine = &sess.engine;
                engine.stats.snapshot_reads.fetch_add(1, Ordering::Relaxed);
                let snap = engine.snapshot();
                f(&mut sess.state, &snap.image, &|| engine.sys_data())
            }
        }
    }

    /// Run `f` on the single writer, holding the engine lock when shared.
    fn with_writer<R>(&mut self, f: impl FnOnce(&mut Connection) -> R) -> R {
        match self {
            Reach::Exclusive(conn) => f(conn),
            Reach::Shared(sess) => f(&mut sess.engine.connection()),
        }
    }

    fn group_committer(&self) -> Arc<GroupCommitter> {
        match self {
            Reach::Exclusive(conn) => Arc::clone(&conn.group_commit),
            Reach::Shared(sess) => Arc::clone(&sess.engine.group),
        }
    }
}

/// The single statement entry point: resolve the request, execute it
/// under the observability tap, settle the session's counters.
pub(crate) fn run(reach: &mut Reach<'_>, req: Request<'_>) -> Result<QueryResult> {
    let result = resolve(reach, req);
    match &result {
        Ok(QueryResult::Rows(rs)) => reach.count_rows(rs.row_count() as u64),
        Ok(QueryResult::Affected(_)) => {}
        Err(_) => reach.state().stats.errors += 1,
    }
    result
}

/// Execute a semicolon-separated script, one result per statement.
pub(crate) fn run_script(reach: &mut Reach<'_>, sql: &str) -> Result<Vec<QueryResult>> {
    let stmts = parse_statements(sql).map_err(|e| {
        sciql_obs::global().queries_failed.inc();
        reach.state().stats.errors += 1;
        EngineError::Parse(e)
    })?;
    stmts
        .iter()
        .map(|stmt| run(reach, Request::Stmt(stmt)))
        .collect()
}

/// Turn a request into a statement and execute it. A request that fails
/// here (syntax error, unknown prepared name, unbindable values) was
/// never entered: it counts as a session error but not as a statement.
fn resolve(reach: &mut Reach<'_>, req: Request<'_>) -> Result<QueryResult> {
    let state = reach.state();
    match req {
        Request::Stmt(stmt) => execute_stmt(reach, stmt, None),
        Request::Sql(sql) => {
            let mut tracer = state.tracer(sql);
            let sp = tracer.open(SpanId::ROOT, "parse");
            let parsed = parse_one(sql);
            tracer.close(sp);
            let stmt = parsed.inspect_err(|_| sciql_obs::global().queries_failed.inc())?;
            execute_stmt(reach, &stmt, Some(tracer))
        }
        Request::Prepared(name, params) => {
            let prep = state.prepared.get_mut(name)?;
            prep.check_params(params)?;
            if !prep.is_select() {
                let stmt = bind_params_into(prep.statement(), params);
                return execute_stmt(reach, &stmt, None);
            }
            let (text, kind) = (prep.sql().to_owned(), stmt_kind(prep.statement()));
            observed(reach, text, kind, None, |reach, _, tracer| {
                reach.read(|state, image, sys| {
                    let prep = state.prepared.get_mut(name)?;
                    let (rs, last) = execute_prepared_select(prep, params, image, sys, tracer)?;
                    state.last = last;
                    Ok(QueryResult::Rows(rs))
                })
            })
        }
    }
}

/// Execute a parsed statement. Read-vs-write is decided here, once:
/// `SELECT` and `EXPLAIN` read one consistent image; everything else
/// takes the write sequence.
fn execute_stmt(
    reach: &mut Reach<'_>,
    stmt: &Stmt,
    parse_tracer: Option<Tracer>,
) -> Result<QueryResult> {
    // Rendered once: the same text labels the trace, goes to the WAL
    // (for a schema statement) and lands in the query log.
    observed(
        reach,
        stmt.to_string(),
        stmt_kind(stmt),
        parse_tracer,
        |reach, text, tracer| match stmt {
            Stmt::Select(_) | Stmt::Explain { .. } => {
                reach.read(|state, image, sys| run_read(state, image, sys, stmt, tracer))
            }
            _ => run_write(reach, stmt, text, tracer),
        },
    )
}

/// The observability tap around one entered statement: it lands in the
/// global query-latency histogram, a by-kind counter and the
/// ring-buffered query log (`sys.query_log`); at or over the session's
/// slow-query threshold it is flagged slow and keeps its span trace even
/// with tracing off. `tracer` is the one that timed the parse, when the
/// statement arrived as text.
fn observed(
    reach: &mut Reach<'_>,
    text: String,
    (kind, counter): (&'static str, &'static sciql_obs::Counter),
    tracer: Option<Tracer>,
    body: impl FnOnce(&mut Reach<'_>, &str, &mut Tracer) -> Result<QueryResult>,
) -> Result<QueryResult> {
    reach.count_statement();
    let mut tracer = tracer.unwrap_or_else(|| reach.state().tracer(&text));
    let started_us = sciql_obs::now_unix_us();
    let t0 = Instant::now();
    let result = body(reach, &text, &mut tracer);
    let wall = t0.elapsed();
    let m = sciql_obs::global();
    m.query_ns.observe(wall);
    match &result {
        Ok(_) => counter.inc(),
        Err(_) => m.queries_failed.inc(),
    }
    let state = reach.state();
    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    let slow = state.slow_query_ns > 0 && wall_ns >= state.slow_query_ns;
    if let Some(trace) = tracer.finish() {
        // A forced (slow-log) trace is only worth keeping when it
        // actually caught a slow statement.
        if state.trace_enabled || slow {
            state.last_trace = Some(trace);
        }
    }
    let (rows, tiles_skipped, plan_cache_hit) = match &result {
        Ok(QueryResult::Rows(rs)) => (
            rs.row_count() as u64,
            state.last.exec.tiles_skipped as u64,
            state.last.exec.plan_cache_hits > 0,
        ),
        Ok(QueryResult::Affected(n)) => (*n as u64, 0, false),
        Err(_) => (0, 0, false),
    };
    sciql_obs::query_log().record(sciql_obs::QueryRecord {
        id: 0,
        session: state.id,
        kind,
        text,
        started_us,
        wall_ns,
        rows,
        plan_cache_hit,
        tiles_skipped,
        slow,
        error: result.as_ref().err().map(|e| e.to_string()),
    });
    result
}

/// The `sys.query_log` kind tag of a statement and the by-kind counter
/// it lands in when it succeeds.
fn stmt_kind(stmt: &Stmt) -> (&'static str, &'static sciql_obs::Counter) {
    let m = sciql_obs::global();
    match stmt {
        Stmt::Select(_) => ("select", &m.queries_select),
        Stmt::Explain { .. } => ("explain", &m.queries_select),
        Stmt::Insert { .. } | Stmt::Delete { .. } | Stmt::Update { .. } | Stmt::Copy { .. } => {
            ("dml", &m.queries_dml)
        }
        Stmt::CreateTable { .. }
        | Stmt::CreateArray { .. }
        | Stmt::Drop { .. }
        | Stmt::AlterDimension { .. } => ("ddl", &m.queries_ddl),
    }
}

/// Run a read — `SELECT`, `EXPLAIN` or `EXPLAIN ANALYZE` — against one
/// consistent image. Plain EXPLAIN renders the plan without running it;
/// EXPLAIN ANALYZE executes the SELECT under its own tracer and renders
/// the measured span tree. Either way the result is a one-text-column
/// row set, so it travels over the wire like any other query result.
fn run_read(
    state: &mut SessionState,
    image: &Image,
    sys: Sys<'_>,
    stmt: &Stmt,
    tracer: &mut Tracer,
) -> Result<QueryResult> {
    let (sel, explain) = match stmt {
        Stmt::Select(sel) => (sel, None),
        Stmt::Explain { analyze, stmt } => match &**stmt {
            Stmt::Select(sel) => (sel, Some(*analyze)),
            _ => return Err(EngineError::msg("EXPLAIN supports SELECT statements")),
        },
        _ => unreachable!("execute_stmt sends only reads here"),
    };
    let rs = match explain {
        None => {
            let (rs, last) = execute_adhoc_select(&mut state.plans, sel, image, sys, tracer)?;
            state.last = last;
            rs
        }
        Some(false) => {
            let text = explain_select(sel, image)?;
            // Nothing ran: the previous statement's numbers are not this one's.
            state.last = LastExec::default();
            text_rows("explain", text.lines().map(str::to_owned))
        }
        Some(true) => {
            let mut measured = Tracer::on(sel.to_string());
            let (rs, last) = execute_select(sel, image, sys, &mut measured)?;
            state.last = last;
            let mut trace = measured.finish().expect("tracing was on");
            trace.note(SpanId::ROOT, "rows", rs.row_count() as u64);
            let lines = trace.render_lines();
            state.last_trace = Some(trace);
            text_rows("explain analyze", lines)
        }
    };
    Ok(QueryResult::Rows(rs))
}

/// The write sequence, the same for both kinds of reach: admission
/// control *before* anything executes; execution and the WAL append on
/// the single writer (under the engine lock, when shared); the
/// durability wait *after* the lock is released and *before* the
/// statement is acknowledged, so concurrent writers share one fsync.
/// A statement that logged nothing (in memory, or failed) has no ticket
/// and nothing to wait for; a failed COPY that logged its earlier
/// batches waits for them too.
fn run_write(
    reach: &mut Reach<'_>,
    stmt: &Stmt,
    text: &str,
    tracer: &mut Tracer,
) -> Result<QueryResult> {
    let group = reach.group_committer();
    group.admit()?;
    let (result, last, position, ticket) = reach.with_writer(|conn| {
        let result = conn.write_stmt(stmt, text, tracer);
        // The DML executors leave their plan's statistics on the
        // writer; they belong to the session that issued the statement.
        let last = std::mem::take(&mut conn.session.last);
        (result, last, conn.wal_applied(), conn.take_pending_commit())
    });
    let state = reach.state();
    state.last = last;
    if result.is_ok() && position != (0, 0) {
        state.commit_token = Some(position);
    }
    match ticket {
        Some(ticket) => group.wait_durable(ticket).and(result),
        None => result,
    }
}

/// Resolves `sql.bind` against the session storage.
struct StorageBinder<'a> {
    arrays: &'a HashMap<String, Arc<ArrayStore>>,
    tables: &'a HashMap<String, Arc<TableStore>>,
}

impl MalBinder for StorageBinder<'_> {
    fn bind(&self, object: &str, column: &str) -> mal::Result<MalValue> {
        let key = object.to_ascii_lowercase();
        if let Some(a) = self.arrays.get(&key) {
            if let Some(k) = a.def.dim_index(column) {
                return Ok(MalValue::Bat(a.dims[k].clone()));
            }
            if let Some(k) = a.def.attr_index(column) {
                return Ok(MalValue::Bat(a.attrs[k].clone()));
            }
            return Err(mal::MalError::msg(format!(
                "array {object:?} has no column {column:?}"
            )));
        }
        if let Some(t) = self.tables.get(&key) {
            if let Some(k) = t.def.column_index(column) {
                return Ok(MalValue::Bat(t.cols[k].clone()));
            }
            return Err(mal::MalError::msg(format!(
                "table {object:?} has no column {column:?}"
            )));
        }
        Err(mal::MalError::msg(format!(
            "no storage for object {object:?}"
        )))
    }
}

// ---------------------------------------------------------------------
// parameter inlining (the DML path)
// ---------------------------------------------------------------------

/// Turn a bound value back into an AST literal.
fn value_to_literal(v: &Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Bit(b) => Literal::Bool(*b),
        Value::Int(i) => Literal::Int(*i as i64),
        Value::Lng(i) => Literal::Int(*i),
        Value::Oid(o) => Literal::Int(*o as i64),
        Value::Dbl(d) => Literal::Float(*d),
        Value::Str(s) => Literal::Str(s.clone()),
    }
}

/// Inline bound parameter values into a statement as literals: a
/// mutating prepared statement runs as the parameter-free statement. Its
/// data changes are logged as the values they stored, so any double —
/// ±inf included — survives recovery and replication. The caller has
/// checked that every slot has a value.
fn bind_params_into(stmt: &Stmt, params: &[Value]) -> Stmt {
    stmt.map_params(&mut |p| {
        params
            .get(p.slot)
            .map(|v| Expr::Literal(value_to_literal(v)))
    })
}
