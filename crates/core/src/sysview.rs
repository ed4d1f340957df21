//! Scan-time synthesis of the `sys.*` system views.
//!
//! The *definitions* live in [`sciql_catalog::sysview`] (so the binder
//! resolves `SELECT … FROM sys.metrics` like any table scan); the
//! *contents* are built here, as ordinary BAT-backed [`TableStore`]s,
//! at the moment a plan that references them executes. The executor
//! ([`crate::exec`]) walks the bound plan for `sys.`-prefixed table
//! scans and, only when it finds any, gathers the [`SysData`] and runs
//! against an augmented copy of the image's table map — a few `Arc`
//! bumps plus the synthesized views.
//!
//! Because the views materialise as plain columns, every relational
//! operator composes with them (WHERE, LIKE, ORDER BY, GROUP BY,
//! joins) and they flow over every transport unchanged — the paper's
//! stance that the engine's own state should be reachable *through the
//! query language*, applied to the reproduction's observability layer.

use crate::exec::Image;
use crate::storage::{ArrayStore, TableStore};
use crate::{EngineError, Result};
use gdk::zonemap::{ZoneMap, TILE_ROWS};
use gdk::{Bat, Value};
use sciql_algebra::Plan;
use sciql_catalog::{Catalog, SchemaObject, TableDef};
use sciql_store::{ColumnDirt, Vault, VaultStats};
use std::collections::HashMap;
use std::sync::Arc;

/// One live session's counters, as a `sys.sessions` row. The shared
/// engine's session registry produces these when a read scans
/// `sys.sessions`; an embedded [`crate::Connection`] reports none.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SessionRow {
    /// Session id (unique within the engine's lifetime).
    pub id: u64,
    /// Peer address (`embedded` for in-process sessions).
    pub peer: String,
    /// Statements this session has executed.
    pub queries: u64,
    /// Bytes received from this session's socket.
    pub bytes_in: u64,
    /// Bytes sent to this session's socket.
    pub bytes_out: u64,
    /// Nanoseconds since the session opened.
    pub uptime_ns: u64,
}

/// Everything the synthesizers need beyond the image: state that lives
/// outside it (vault counters, the live session registry), gathered
/// when a plan that scans `sys.*` executes.
#[derive(Debug, Clone, Default)]
pub(crate) struct SysData {
    /// Vault counters, when the engine is persistent.
    pub vault: Option<VaultStats>,
    /// Live sessions (shared engine only).
    pub sessions: Vec<SessionRow>,
}

impl SysData {
    /// What a connection reports on its own: its vault's counters.
    pub(crate) fn of(vault: Option<&Vault>) -> SysData {
        SysData {
            vault: vault.map(Vault::stats),
            sessions: Vec::new(),
        }
    }
}

/// Lowercased names of every `sys.*` table the plan scans (deduplicated;
/// empty for the overwhelmingly common plan that touches none).
pub(crate) fn sys_scans(plan: &Plan) -> Vec<String> {
    let mut names = Vec::new();
    collect_scans(plan, &mut names);
    names.sort();
    names.dedup();
    names
}

fn collect_scans(plan: &Plan, out: &mut Vec<String>) {
    match plan {
        Plan::Unit | Plan::ScanArray { .. } => {}
        Plan::ScanTable { name, .. } => {
            let key = name.to_ascii_lowercase();
            if sciql_catalog::sysview::is_sys_name(&key) {
                out.push(key);
            }
        }
        Plan::Cross { left, right } | Plan::EquiJoin { left, right, .. } => {
            collect_scans(left, out);
            collect_scans(right, out);
        }
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Tile { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => collect_scans(input, out),
    }
}

/// The image's table map, extended with a freshly synthesized store
/// for every system view in `names`. Cloning the map is cheap: each
/// store is an `Arc` bump.
pub(crate) fn augment_tables(
    names: &[String],
    image: &Image,
    sys: &SysData,
) -> Result<HashMap<String, Arc<TableStore>>> {
    let mut augmented = image.tables.clone();
    for name in names {
        augmented.insert(name.clone(), Arc::new(synthesize(name, image, sys)?));
    }
    Ok(augmented)
}

/// Build one system view's contents as a [`TableStore`].
pub(crate) fn synthesize(name: &str, image: &Image, sys: &SysData) -> Result<TableStore> {
    let Some(SchemaObject::Table(def)) = sciql_catalog::sysview::get(name) else {
        return Err(EngineError::msg(format!("unknown system view {name:?}")));
    };
    let rows = match def.name.as_str() {
        "sys.metrics" => metrics_rows(),
        "sys.histograms" => histogram_rows(),
        "sys.sessions" => session_rows(&sys.sessions),
        "sys.query_log" => query_log_rows(),
        "sys.tables" => table_rows(&image.catalog),
        "sys.columns" => column_rows(&image.catalog),
        "sys.tiles" => tile_rows(&image.arrays, &image.tables),
        "sys.wal" => wal_rows(sys.vault.as_ref()),
        "sys.replication" => replication_rows(),
        other => {
            return Err(EngineError::msg(format!(
                "system view {other:?} has no synthesizer"
            )))
        }
    };
    store_from_rows(def, rows)
}

/// Assemble a row list into an ordinary table store matching `def`.
fn store_from_rows(def: &TableDef, rows: Vec<Vec<Value>>) -> Result<TableStore> {
    let mut cols: Vec<Bat> = def
        .columns
        .iter()
        .map(|c| Bat::with_capacity(c.ty, rows.len()))
        .collect();
    for row in &rows {
        debug_assert_eq!(row.len(), cols.len(), "ragged sys view row");
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v).map_err(EngineError::Gdk)?;
        }
    }
    Ok(TableStore {
        def: def.clone(),
        cols: cols.into_iter().map(Arc::new).collect(),
        dirty_cols: vec![ColumnDirt::Clean; def.columns.len()],
    })
}

fn lng(v: u64) -> Value {
    Value::Lng(v as i64)
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// `sys.metrics`: one row per registry metric, with its HELP text — the
/// relational face of the Prometheus exposition. A histogram's value is
/// its observation count; `sys.histograms` has its buckets.
fn metrics_rows() -> Vec<Vec<Value>> {
    let snap = sciql_obs::global().snapshot();
    let help = |n: &str| s(sciql_obs::metric_help(n).unwrap_or(""));
    let mut rows =
        Vec::with_capacity(snap.counters.len() + snap.gauges.len() + snap.histograms.len());
    for (n, v) in &snap.counters {
        rows.push(vec![s(n.clone()), s("counter"), lng(*v), help(n)]);
    }
    for (n, v) in &snap.gauges {
        rows.push(vec![s(n.clone()), s("gauge"), Value::Lng(*v), help(n)]);
    }
    for (n, h) in &snap.histograms {
        rows.push(vec![s(n.clone()), s("histogram"), lng(h.count), help(n)]);
    }
    rows
}

/// `sys.histograms`: cumulative bucket counts per latency histogram.
/// The overflow (`+Inf`) bucket has no upper bound, so its
/// `bucket_le_ns` is NULL; its count equals the histogram's total.
fn histogram_rows() -> Vec<Vec<Value>> {
    let snap = sciql_obs::global().snapshot();
    let mut rows = Vec::new();
    for (n, h) in &snap.histograms {
        let mut cum = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            cum += c;
            let le = h.bounds().get(i).map(|&b| lng(b)).unwrap_or(Value::Null);
            rows.push(vec![s(n.clone()), le, lng(cum)]);
        }
    }
    rows
}

/// `sys.sessions`: the live session registry.
fn session_rows(sessions: &[SessionRow]) -> Vec<Vec<Value>> {
    sessions
        .iter()
        .map(|r| {
            vec![
                lng(r.id),
                s(r.peer.clone()),
                lng(r.queries),
                lng(r.bytes_in),
                lng(r.bytes_out),
                lng(r.uptime_ns),
            ]
        })
        .collect()
}

/// `sys.query_log`: the history ring, oldest first.
fn query_log_rows() -> Vec<Vec<Value>> {
    sciql_obs::query_log()
        .snapshot()
        .into_iter()
        .map(|r| {
            vec![
                lng(r.id),
                lng(r.session),
                s(r.kind),
                s(r.text),
                Value::Lng(r.started_us),
                lng(r.wall_ns),
                lng(r.rows),
                Value::Bit(r.plan_cache_hit),
                lng(r.tiles_skipped),
                Value::Bit(r.slow),
                r.error.map(Value::Str).unwrap_or(Value::Null),
            ]
        })
        .collect()
}

/// Objects listed by `sys.tables`/`sys.columns`: user objects first
/// (name order), then the system views themselves — the catalog is
/// self-describing.
fn listed_objects(catalog: &Catalog) -> Vec<&SchemaObject> {
    let mut objs: Vec<&SchemaObject> = catalog.iter().collect();
    objs.sort_by(|a, b| a.name().cmp(b.name()));
    objs.extend(sciql_catalog::sysview::definitions());
    objs
}

fn object_kind(obj: &SchemaObject) -> &'static str {
    match obj {
        SchemaObject::Array(_) => "array",
        SchemaObject::Table(t) if t.name.starts_with("sys.") => "system view",
        SchemaObject::Table(_) => "table",
    }
}

fn object_column_count(obj: &SchemaObject) -> usize {
    match obj {
        SchemaObject::Array(a) => a.dims.len() + a.attrs.len(),
        SchemaObject::Table(t) => t.columns.len(),
    }
}

/// `sys.tables`: one row per catalog object (and per system view).
fn table_rows(catalog: &Catalog) -> Vec<Vec<Value>> {
    listed_objects(catalog)
        .into_iter()
        .map(|obj| {
            vec![
                s(obj.name()),
                s(object_kind(obj)),
                lng(object_column_count(obj) as u64),
            ]
        })
        .collect()
}

/// `sys.columns`: one row per column, dimensions first for arrays.
fn column_rows(catalog: &Catalog) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for obj in listed_objects(catalog) {
        let mut pos = 0u64;
        let mut push = |name: &str, ty: gdk::ScalarType, dimensional: bool, pos: &mut u64| {
            rows.push(vec![
                s(obj.name()),
                s(name),
                s(ty.to_string()),
                Value::Bit(dimensional),
                lng(*pos),
            ]);
            *pos += 1;
        };
        match obj {
            SchemaObject::Array(a) => {
                for d in &a.dims {
                    push(&d.name, d.ty, true, &mut pos);
                }
                for c in &a.attrs {
                    push(&c.name, c.ty, false, &mut pos);
                }
            }
            SchemaObject::Table(t) => {
                for c in &t.columns {
                    push(&c.name, c.ty, false, &mut pos);
                }
            }
        }
    }
    rows
}

/// `sys.tiles`: the per-tile zone map of every stored column — table
/// columns and array attributes; dimensions are generated, so they have
/// no tiles — built with the vault's tile size, the same min/max/nil
/// statistics the zone-skipping scan consults. Values project to
/// doubles; string columns report NULL bounds.
fn tile_rows(
    arrays: &HashMap<String, Arc<ArrayStore>>,
    tables: &HashMap<String, Arc<TableStore>>,
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    let mut push_column = |object: &str, column: &str, bat: &Bat| {
        let zm = ZoneMap::build(bat, TILE_ROWS);
        for (t, e) in zm.entries.iter().enumerate() {
            let bound = |v: &Option<Value>| {
                v.as_ref()
                    .and_then(Value::as_f64)
                    .map(Value::Dbl)
                    .unwrap_or(Value::Null)
            };
            rows.push(vec![
                s(object),
                s(column),
                lng(t as u64),
                lng(e.rows as u64),
                lng(e.nils as u64),
                bound(&e.min),
                bound(&e.max),
            ]);
        }
    };
    let mut anames: Vec<&String> = arrays.keys().collect();
    anames.sort();
    for key in anames {
        let a = &arrays[key];
        for (c, bat) in a.def.attrs.iter().zip(&a.attrs) {
            push_column(&a.def.name, &c.name, bat);
        }
    }
    let mut tnames: Vec<&String> = tables.keys().collect();
    tnames.sort();
    for key in tnames {
        let t = &tables[key];
        for (c, bat) in t.def.columns.iter().zip(&t.cols) {
            push_column(&t.def.name, &c.name, bat);
        }
    }
    rows
}

/// `sys.wal`: one row when a vault is attached (WAL byte position,
/// process-wide append/fsync counters, checkpoint generation); empty
/// for in-memory engines.
fn wal_rows(vault: Option<&VaultStats>) -> Vec<Vec<Value>> {
    let Some(v) = vault else {
        return Vec::new();
    };
    let m = sciql_obs::global();
    vec![vec![
        lng(v.wal_bytes),
        lng(m.wal_appends.get()),
        lng(m.wal_fsyncs.get()),
        lng(v.generation),
    ]]
}

/// `sys.replication`: one row per live replication link from the global
/// registry — on a primary, one per connected replica; on a replica,
/// its upstream link. Empty when the process is not replicating.
fn replication_rows() -> Vec<Vec<Value>> {
    sciql_obs::replication()
        .snapshot()
        .into_iter()
        .map(|l| {
            vec![
                s(l.role.name()),
                s(l.peer.clone()),
                lng(l.generation),
                lng(l.shipped),
                lng(l.applied),
                lng(l.durable),
                lng(l.lag_bytes()),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Connection;

    #[test]
    fn plan_walk_finds_sys_scans() {
        let conn = Connection::new();
        let stmt = sciql_parser::parse_statement(
            "SELECT name, value FROM sys.metrics WHERE name LIKE 'wal%' ORDER BY name",
        )
        .unwrap();
        let sciql_parser::ast::Stmt::Select(sel) = stmt else {
            unreachable!()
        };
        let binder = sciql_algebra::Binder::new(conn.catalog());
        let plan = sciql_algebra::rewrite(binder.bind_select(&sel).unwrap());
        assert_eq!(sys_scans(&plan), vec!["sys.metrics".to_owned()]);
    }

    #[test]
    fn synthesized_views_match_their_definitions() {
        let mut conn = Connection::new();
        conn.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        conn.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)",
        )
        .unwrap();
        let sys = SysData::default();
        for def in sciql_catalog::sysview::definitions() {
            let name = def.name();
            let store = synthesize(name, &conn.image, &sys).unwrap();
            assert_eq!(store.cols.len(), object_column_count(def), "{name}");
            let rows = store.row_count();
            for (c, meta) in store.cols.iter().zip(match def {
                SchemaObject::Table(t) => &t.columns,
                _ => unreachable!("sys views are tables"),
            }) {
                assert_eq!(c.len(), rows, "{name}.{} is ragged", meta.name);
                assert_eq!(c.tail_type(), meta.ty, "{name}.{} type drift", meta.name);
            }
        }
    }

    #[test]
    fn tiles_view_agrees_with_store_accounting() {
        let mut conn = Connection::new();
        conn.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)",
        )
        .unwrap();
        let store = synthesize("sys.tiles", &conn.image, &SysData::default()).unwrap();
        let (total, _) = conn.array_store("m").unwrap().tile_stats();
        assert_eq!(store.row_count(), total, "one sys.tiles row per tile");
        // Dimensions are generated, never stored: only `v` has tiles.
        let columns: Vec<Value> = store.cols[1].iter_values().collect();
        assert_eq!(columns, vec![s("v")], "sys.tiles lists stored tiles only");
    }
}
