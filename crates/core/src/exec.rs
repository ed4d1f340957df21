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
//! Every SELECT, prepared or ad hoc, and every prepared UPDATE and
//! DELETE runs a cached plan when it can: the bound, optimised MAL
//! program compiled **once** with [`mal::Arg::Param`] slots, which each
//! execution fills with its own values — no re-bind, no re-optimise.
//!
//! - A [`Prepared`] statement keeps its plan, with a slot for each
//!   `?`/`:name` placeholder; re-executing it also skips the parse. A
//!   SELECT's slots are typed by their context; an UPDATE's or DELETE's
//!   (its cell program, see [`sciql_algebra::compile_cells`]) by the
//!   bound values' own types, so it compares and stores exactly as the
//!   statement with those values written as literals would, and a new
//!   combination of value types recompiles. A write binds an integer in
//!   the INT range as an INT, as the literal would be. A prepared INSERT
//!   evaluates its `VALUES` rows, or runs its SELECT, with the bound
//!   values. A placeholder in a constant position (a cell or tile
//!   offset, a slice bound) is folded into the plan as its value, so
//!   that plan reruns only for the same values.
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
use sciql_algebra::{compile, rewrite, Binder, CodegenOptions, ColInfo};
use sciql_catalog::Catalog;
use sciql_obs::{SpanId, Trace, Tracer};
use sciql_parser::ast::{Literal, ParamRef, SelectStmt, Stmt};
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

/// A prepared statement: parsed once, and for a SELECT, UPDATE or DELETE
/// compiled once into a parameterised MAL program that re-executes
/// without re-planning.
#[derive(Debug, Clone)]
pub struct Prepared {
    stmt: Stmt,
    sql: String,
    params: Vec<ParamRef>,
    cache: Option<CachedPlan>,
}

/// The compiled-once artefact of a prepared statement or an ad-hoc
/// SELECT's lifted form, plus everything the validity check needs.
#[derive(Debug, Clone)]
pub(crate) struct CachedPlan {
    prog: Program,
    schema: Vec<ColInfo>,
    catalog_version: u64,
    opt_config: OptConfig,
    codegen: CodegenOptions,
    /// The types the slots were compiled for; empty when their context
    /// typed them (a prepared SELECT).
    slot_types: Vec<Option<ScalarType>>,
    /// The bound values, when the binder folded one of them into the
    /// plan as a constant ([`Binder::folded_params`]); empty otherwise.
    constants: Vec<Value>,
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
    /// moment). Only a SELECT, INSERT, UPDATE or DELETE binds values: a
    /// placeholder in any other statement is refused here.
    pub fn new(sql: &str) -> Result<Prepared> {
        let stmt = parse_one(sql)?;
        let params = stmt.params();
        let binds = matches!(
            stmt,
            Stmt::Select(_) | Stmt::Insert { .. } | Stmt::Update { .. } | Stmt::Delete { .. }
        );
        if let Some(p) = params.first().filter(|_| !binds) {
            let why = "only SELECT, INSERT, UPDATE and DELETE take parameters".into();
            return Err(EngineError::Mal(mal::MalError::BadParam(p.slot, why)));
        }
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

type PlanKey = (String, Vec<Option<ScalarType>>);

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

    /// Take out a statement for execution, with its key;
    /// [`PreparedSet::put`] returns it.
    fn take(&mut self, name: &str) -> Result<(String, Prepared)> {
        self.map
            .remove_entry(&*prepared_key(name))
            .ok_or_else(|| EngineError::msg(format!("no prepared statement named {name:?}")))
    }

    fn put(&mut self, key: String, prep: Prepared) {
        self.map.insert(key, prep);
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

/// The slot types of bound values: each value's own type, `None` for a
/// NULL (see [`Binder::with_slot_types`]).
fn slot_types(params: &[Value]) -> Vec<Option<ScalarType>> {
    params.iter().map(Value::scalar_type).collect()
}

/// `v` as the literal of it: an integer in the INT range is an INT (see
/// [`literal_value`]), so a write computes and stores a bound value as
/// the statement with the value written in does.
fn as_literal(v: &Value) -> Value {
    match v {
        Value::Lng(n) => literal_value(&Literal::Int(*n)),
        other => other.clone(),
    }
}

/// Run the read of a cell statement ([`sciql_algebra::compile_cells`])
/// with `params` in its slots: its results in order, as MAL values.
/// `compile` generates the program with the binder for the bound
/// values; a prepared statement passes its plan `slot`, and the program
/// there is reused while it is valid.
pub(crate) fn execute_cells(
    slot: Option<&mut Option<CachedPlan>>,
    params: &[Value],
    image: &Image,
    compile: impl FnOnce(&Binder<'_>) -> Result<Program>,
) -> Result<(Vec<MalValue>, LastExec)> {
    let types = slot_types(params);
    let tracer = &mut Tracer::off();
    let build = |tracer: &mut Tracer| {
        let binder = Binder::new(&image.catalog)
            .with_slot_types(&types)
            .with_params(params);
        let prog = compile(&binder)?;
        Ok(CachedPlan::new(
            prog, &binder, &types, params, image, tracer,
        ))
    };
    let fresh;
    let (plan, hit) = match slot {
        Some(slot) => cached(slot, &types, params, image, tracer, build)?,
        None => {
            fresh = build(tracer)?;
            (&fresh, false)
        }
    };
    let (outs, mut exec) = run_mal(&plan.prog, &image.tables, image, params, tracer)?;
    exec.plan_cache_hits = usize::from(hit);
    Ok((
        outs.into_iter().map(|(_, v)| v).collect(),
        plan.last_exec(exec),
    ))
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

/// Execute a compiled SELECT plan against the image's stores (plus
/// freshly synthesized `sys.*` views), filling its parameter slots from
/// `params`, and shape the outputs into a [`ResultSet`] using the plan's
/// schema.
fn run_program(
    plan: &CachedPlan,
    image: &Image,
    sys: Sys<'_>,
    params: &[Value],
    tracer: &mut Tracer,
) -> Result<(ResultSet, ExecStats)> {
    let augmented;
    let tables = if plan.sys_views.is_empty() {
        &image.tables
    } else {
        augmented = sysview::augment_tables(&plan.sys_views, image, &sys())?;
        &augmented
    };
    let (outs, exec) = run_mal(&plan.prog, tables, image, params, tracer)?;
    let sp = tracer.open(SpanId::ROOT, "result");
    let schema = &plan.schema;
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

/// Run a SELECT through the full Fig-2 pipeline, past every plan cache
/// (`EXPLAIN ANALYZE`, `INSERT … SELECT`), with `params` in its slots.
pub(crate) fn execute_select(
    sel: &SelectStmt,
    params: &[Value],
    image: &Image,
    sys: Sys<'_>,
    tracer: &mut Tracer,
) -> Result<(ResultSet, LastExec)> {
    let plan = CachedPlan::compile(sel, &slot_types(params), params, image, tracer)?;
    let (rs, exec) = run_program(&plan, image, sys, params, tracer)?;
    Ok((rs, plan.last_exec(exec)))
}

impl CachedPlan {
    /// Optimise `prog`, generated against `image` by `binder` with its
    /// slots typed `slot_types` and valued `params`, into a plan that
    /// scans no `sys.*` view and has no result schema (a cell program's).
    fn new(
        mut prog: Program,
        binder: &Binder<'_>,
        slot_types: &[Option<ScalarType>],
        params: &[Value],
        image: &Image,
        tracer: &mut Tracer,
    ) -> CachedPlan {
        let (opt_report, instrs_before, instrs_after) = optimise(&mut prog, image, tracer);
        CachedPlan {
            prog,
            schema: Vec::new(),
            catalog_version: image.catalog.version(),
            opt_config: image.opt_config,
            codegen: image.codegen,
            slot_types: slot_types.to_vec(),
            constants: if binder.folded_params() {
                params.to_vec()
            } else {
                Vec::new()
            },
            opt_report,
            instrs_before,
            instrs_after,
            sys_views: Vec::new(),
        }
    }

    /// Bind, rewrite, generate and optimise `sel` against `image`, under
    /// a span per phase. Placeholder slot `k` is typed `slot_types[k]`
    /// when given, by its context otherwise, and valued `params[k]` in a
    /// constant position.
    fn compile(
        sel: &SelectStmt,
        slot_types: &[Option<ScalarType>],
        params: &[Value],
        image: &Image,
        tracer: &mut Tracer,
    ) -> Result<CachedPlan> {
        let sp = tracer.open(SpanId::ROOT, "bind");
        let binder = Binder::new(&image.catalog)
            .with_slot_types(slot_types)
            .with_params(params);
        let bound = binder.bind_select(sel);
        tracer.close(sp);
        let sp = tracer.open(SpanId::ROOT, "rewrite");
        let plan = rewrite(bound?);
        tracer.close(sp);
        let sp = tracer.open(SpanId::ROOT, "codegen");
        let prog: Program = compile(&plan, &image.codegen)?;
        tracer.note(sp, "instrs", prog.instrs.len() as u64);
        tracer.close(sp);
        Ok(CachedPlan {
            schema: plan.schema(),
            sys_views: sysview::sys_scans(&plan),
            ..Self::new(prog, &binder, slot_types, params, image, tracer)
        })
    }

    /// Was the plan compiled against `image`'s schema and settings, with
    /// its slots typed `slot_types`, and for `params` if it folded them?
    fn valid_for(
        &self,
        image: &Image,
        slot_types: &[Option<ScalarType>],
        params: &[Value],
    ) -> bool {
        self.catalog_version == image.catalog.version()
            && self.opt_config == image.opt_config
            && self.codegen == image.codegen
            && self.slot_types == slot_types
            && (self.constants.is_empty() || self.constants == params)
    }

    /// The statistics of one execution of this plan.
    fn last_exec(&self, exec: ExecStats) -> LastExec {
        LastExec {
            exec,
            opt: self.opt_report,
            instrs_before_opt: self.instrs_before,
            instrs_after_opt: self.instrs_after,
        }
    }
}

/// The plan in `slot`, compiled there first by `compile` unless the plan
/// there is still valid for `image`, `slot_types` and `params`, and
/// whether it was; the hit or miss is counted and noted on the trace.
fn cached<'s>(
    slot: &'s mut Option<CachedPlan>,
    slot_types: &[Option<ScalarType>],
    params: &[Value],
    image: &Image,
    tracer: &mut Tracer,
    compile: impl FnOnce(&mut Tracer) -> Result<CachedPlan>,
) -> Result<(&'s CachedPlan, bool)> {
    let hit = slot
        .as_ref()
        .is_some_and(|c| c.valid_for(image, slot_types, params));
    let m = sciql_obs::global();
    if hit {
        m.plan_cache_hits.inc();
    } else {
        m.plan_cache_misses.inc();
        *slot = Some(compile(tracer)?);
    }
    if tracer.is_on() {
        tracer.note(SpanId::ROOT, "plan_cache_hit", u64::from(hit));
    }
    Ok((slot.as_ref().expect("compiled above"), hit))
}

/// Execute `sel` through the plan in `slot` (see [`cached`]).
/// `ExecStats::plan_cache_hits` reports which path ran. `params` fill
/// the plan's placeholder slots; `slot_types` types those a lifted
/// literal left (a prepared statement's take their type from context).
fn execute_cached(
    slot: &mut Option<CachedPlan>,
    sel: &SelectStmt,
    slot_types: &[Option<ScalarType>],
    params: &[Value],
    image: &Image,
    sys: Sys<'_>,
    tracer: &mut Tracer,
) -> Result<(ResultSet, LastExec)> {
    let compile = |tracer: &mut Tracer| CachedPlan::compile(sel, slot_types, params, image, tracer);
    let (plan, hit) = cached(slot, slot_types, params, image, tracer, compile)?;
    let (rs, mut exec) = run_program(plan, image, sys, params, tracer)?;
    exec.plan_cache_hits = usize::from(hit);
    Ok((rs, plan.last_exec(exec)))
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
        return execute_select(sel, &[], image, sys, tracer);
    };
    let values: Vec<Value> = literals.iter().map(literal_value).collect();
    let key = (lifted.to_string(), slot_types(&values));
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
    /// Named prepared statements (a SELECT, UPDATE or DELETE keeps its
    /// compiled plan).
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

/// The values bound to a statement's `?`/`:name` slots and, for a
/// prepared statement, the slot its compiled plan is kept in. An ad-hoc
/// statement has neither.
#[derive(Default)]
pub(crate) struct Binding<'a> {
    pub(crate) params: &'a [Value],
    pub(crate) plan: Option<&'a mut Option<CachedPlan>>,
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
            // Out of the session while it runs: an exclusive session's
            // writer is the connection that holds the session.
            let (key, mut prep) = state.prepared.take(name)?;
            let result = prep.check_params(params).and_then(|()| {
                let Prepared {
                    stmt, sql, cache, ..
                } = &mut prep;
                let binding = Binding {
                    params,
                    plan: Some(cache),
                };
                observed(
                    reach,
                    sql.clone(),
                    stmt_kind(stmt),
                    None,
                    |reach, tracer| dispatch(reach, stmt, binding, tracer),
                )
            });
            reach.state().prepared.put(key, prep);
            result
        }
    }
}

/// Execute a parsed statement, labelled with its printed text.
fn execute_stmt(
    reach: &mut Reach<'_>,
    stmt: &Stmt,
    parse_tracer: Option<Tracer>,
) -> Result<QueryResult> {
    observed(
        reach,
        stmt.to_string(),
        stmt_kind(stmt),
        parse_tracer,
        |reach, tracer| dispatch(reach, stmt, Binding::default(), tracer),
    )
}

/// Execute `stmt` with `binding`. Read-vs-write is decided here, once:
/// `SELECT` and `EXPLAIN` read one consistent image; everything else
/// takes the write sequence.
fn dispatch(
    reach: &mut Reach<'_>,
    stmt: &Stmt,
    binding: Binding<'_>,
    tracer: &mut Tracer,
) -> Result<QueryResult> {
    match stmt {
        Stmt::Select(_) | Stmt::Explain { .. } => {
            reach.read(|state, image, sys| run_read(state, image, sys, stmt, binding, tracer))
        }
        _ => run_write(reach, stmt, binding, tracer),
    }
}

/// The observability tap around one entered statement: it lands in the
/// global query-latency histogram, a by-kind counter and the
/// ring-buffered query log (`sys.query_log`); at or over the session's
/// slow-query threshold it is flagged slow and keeps its span trace even
/// with tracing off. `text` labels the trace and the log record; `tracer`
/// is the one that timed the parse, when the statement arrived as text.
fn observed(
    reach: &mut Reach<'_>,
    text: String,
    (kind, counter): (&'static str, &'static sciql_obs::Counter),
    tracer: Option<Tracer>,
    body: impl FnOnce(&mut Reach<'_>, &mut Tracer) -> Result<QueryResult>,
) -> Result<QueryResult> {
    reach.count_statement();
    let mut tracer = tracer.unwrap_or_else(|| reach.state().tracer(&text));
    let started_us = sciql_obs::now_unix_us();
    let t0 = Instant::now();
    let result = body(reach, &mut tracer);
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
    let (rows, tiles_skipped) = match &result {
        Ok(QueryResult::Rows(rs)) => (rs.row_count() as u64, state.last.exec.tiles_skipped as u64),
        Ok(QueryResult::Affected(n)) => (*n as u64, 0),
        Err(_) => (0, 0),
    };
    let plan_cache_hit = result.is_ok() && state.last.exec.plan_cache_hits > 0;
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
    binding: Binding<'_>,
    tracer: &mut Tracer,
) -> Result<QueryResult> {
    let (sel, explain) = match stmt {
        Stmt::Select(sel) => (sel, None),
        Stmt::Explain { analyze, stmt } => match &**stmt {
            Stmt::Select(sel) => (sel, Some(*analyze)),
            _ => return Err(EngineError::msg("EXPLAIN supports SELECT statements")),
        },
        _ => unreachable!("dispatch sends only reads here"),
    };
    let rs = match explain {
        None => {
            let (rs, last) = match binding.plan {
                Some(slot) => execute_cached(slot, sel, &[], binding.params, image, sys, tracer)?,
                None => execute_adhoc_select(&mut state.plans, sel, image, sys, tracer)?,
            };
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
            let (rs, last) = execute_select(sel, &[], image, sys, &mut measured)?;
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
    binding: Binding<'_>,
    tracer: &mut Tracer,
) -> Result<QueryResult> {
    let group = reach.group_committer();
    group.admit()?;
    let params: Vec<Value> = binding.params.iter().map(as_literal).collect();
    let binding = Binding {
        params: &params,
        plan: binding.plan,
    };
    let (result, last, position, ticket) = reach.with_writer(|conn| {
        // The DML executors leave the statistics of the plan they ran,
        // if any, on the writer; they belong to the session that issued
        // the statement.
        conn.session.last = LastExec::default();
        let result = conn.write_stmt(stmt, binding, tracer);
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
