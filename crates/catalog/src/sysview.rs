//! `sys.*` system views: the engine's introspection surface, exposed
//! as ordinary relational tables.
//!
//! Following the paper's design — SciQL/MonetDB keeps catalog and
//! runtime state queryable through the query language itself — every
//! view here is a [`TableDef`] whose name lives in the reserved `sys.`
//! schema. The *definitions* are static (this module); the *contents*
//! are synthesized as BATs at scan time by the execution layer, so the
//! views compose with WHERE / ORDER BY / aggregates and flow over
//! every transport unchanged.
//!
//! [`Catalog::get`](crate::Catalog::get) falls back to these
//! definitions for any `sys.`-prefixed lookup, and
//! [`Catalog::create`](crate::Catalog::create) rejects user objects in
//! the reserved schema.

use gdk::ScalarType;
use std::sync::OnceLock;

use crate::schema::{ColumnMeta, SchemaObject, TableDef};

/// Is this name inside the reserved `sys.` schema?
pub fn is_sys_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.starts_with("sys.") || lower == "sys"
}

fn col(name: &str, ty: ScalarType) -> ColumnMeta {
    ColumnMeta {
        name: name.to_owned(),
        ty,
        default: None,
    }
}

fn table(name: &str, cols: Vec<ColumnMeta>) -> SchemaObject {
    SchemaObject::Table(TableDef {
        name: name.to_owned(),
        columns: cols,
    })
}

/// Every system view definition, in name order.
///
/// | view | one row per |
/// |------|-------------|
/// | `sys.metrics` | registry counter/gauge/histogram (name, kind, value, help) |
/// | `sys.histograms` | latency histogram bucket (cumulative) |
/// | `sys.sessions` | live session (id, peer, queries, bytes, uptime) |
/// | `sys.query_log` | recently executed statement |
/// | `sys.tables` | catalog object |
/// | `sys.columns` | column/dimension of a catalog object |
/// | `sys.tiles` | stored tile (table column or array attribute) with its zone-map entry |
/// | `sys.wal` | the vault (position, appends, fsyncs, generation) |
/// | `sys.replication` | live replication link (role, peer, positions, lag) |
pub fn definitions() -> &'static [SchemaObject] {
    static DEFS: OnceLock<Vec<SchemaObject>> = OnceLock::new();
    DEFS.get_or_init(|| {
        vec![
            table(
                "sys.metrics",
                vec![
                    col("name", ScalarType::Str),
                    col("kind", ScalarType::Str),
                    col("value", ScalarType::Lng),
                    col("help", ScalarType::Str),
                ],
            ),
            table(
                "sys.histograms",
                vec![
                    col("name", ScalarType::Str),
                    col("bucket_le_ns", ScalarType::Lng),
                    col("count", ScalarType::Lng),
                ],
            ),
            table(
                "sys.sessions",
                vec![
                    col("id", ScalarType::Lng),
                    col("peer", ScalarType::Str),
                    col("queries", ScalarType::Lng),
                    col("bytes_in", ScalarType::Lng),
                    col("bytes_out", ScalarType::Lng),
                    col("uptime_ns", ScalarType::Lng),
                ],
            ),
            table(
                "sys.query_log",
                vec![
                    col("id", ScalarType::Lng),
                    col("session", ScalarType::Lng),
                    col("kind", ScalarType::Str),
                    col("text", ScalarType::Str),
                    col("started_us", ScalarType::Lng),
                    col("wall_ns", ScalarType::Lng),
                    col("rows", ScalarType::Lng),
                    col("plan_cache_hit", ScalarType::Bit),
                    col("tiles_skipped", ScalarType::Lng),
                    col("slow", ScalarType::Bit),
                    col("error", ScalarType::Str),
                ],
            ),
            table(
                "sys.tables",
                vec![
                    col("name", ScalarType::Str),
                    col("kind", ScalarType::Str),
                    col("columns", ScalarType::Lng),
                ],
            ),
            table(
                "sys.columns",
                vec![
                    col("table_name", ScalarType::Str),
                    col("column_name", ScalarType::Str),
                    col("type", ScalarType::Str),
                    col("dimensional", ScalarType::Bit),
                    col("position", ScalarType::Lng),
                ],
            ),
            table(
                "sys.tiles",
                vec![
                    col("object", ScalarType::Str),
                    col("column", ScalarType::Str),
                    col("tile", ScalarType::Lng),
                    col("rows", ScalarType::Lng),
                    col("nils", ScalarType::Lng),
                    col("min", ScalarType::Dbl),
                    col("max", ScalarType::Dbl),
                ],
            ),
            table(
                "sys.wal",
                vec![
                    col("position", ScalarType::Lng),
                    col("appends", ScalarType::Lng),
                    col("fsyncs", ScalarType::Lng),
                    col("generation", ScalarType::Lng),
                ],
            ),
            table(
                "sys.replication",
                vec![
                    col("role", ScalarType::Str),
                    col("peer", ScalarType::Str),
                    col("generation", ScalarType::Lng),
                    col("shipped", ScalarType::Lng),
                    col("applied", ScalarType::Lng),
                    col("durable", ScalarType::Lng),
                    col("lag_bytes", ScalarType::Lng),
                ],
            ),
        ]
    })
}

/// Look up a system view definition by (case-insensitive) name.
pub fn get(name: &str) -> Option<&'static SchemaObject> {
    definitions()
        .iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_names_resolve() {
        assert!(get("sys.metrics").is_some());
        assert!(get("SYS.Metrics").is_some());
        assert!(get("sys.nope").is_none());
        assert!(is_sys_name("sys.metrics"));
        assert!(is_sys_name("SYS.ANYTHING"));
        assert!(!is_sys_name("system_table"));
    }

    #[test]
    fn views_are_tables_with_columns() {
        for d in definitions() {
            let SchemaObject::Table(t) = d else {
                panic!("system views must be tables");
            };
            assert!(t.name.starts_with("sys."));
            assert!(!t.columns.is_empty());
        }
    }
}
