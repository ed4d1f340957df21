//! Layer probes: each times one layer's public entry point on a
//! statement (or result, or column) the workload itself uses. Nothing
//! here reaches into the engine; a probe is a second call from outside.

use crate::harness::{per_round_us, Layers};
use crate::trace::Recorder;
use sciql_repro::algebra::{compile, rewrite, Binder, CodegenOptions, Plan};
use sciql_repro::catalog::Catalog;
use sciql_repro::mal::{self, OptConfig, Registry};
use sciql_repro::parser::ast::{InsertSource, Stmt};
use sciql_repro::parser::parse_statement;
use sciql_repro::sciql::result::ResultSetBuilder;
use sciql_repro::sciql::ResultSet;
use std::hint::black_box;

/// Span names the probes record. A layer's time per round is the sum of
/// its spans in that round.
pub const PARSE: &str = "parser.parse";
pub const BIND: &str = "algebra.bind";
pub const CODEGEN: &str = "algebra.codegen";
pub const OPT: &str = "mal.opt";
pub const EXEC: &str = "core.exec";
pub const KERNEL: &str = "gdk.kernel";
pub const ENCODE: &str = "core.result.encode";
pub const DECODE: &str = "core.result.decode";

/// Optimizer rewrites seen by the planning probes of one traced pass.
#[derive(Default)]
pub struct PlanCounts {
    pub instrs_removed: u64,
    pub fusions: u64,
}

/// What planning a statement needs besides its text.
pub struct Planner {
    registry: Registry,
    codegen: CodegenOptions,
    opt: OptConfig,
    pub counts: PlanCounts,
}

impl Planner {
    /// The engine's default pipeline: full optimizer, default threads.
    pub fn new() -> Planner {
        let codegen = CodegenOptions::default();
        Planner {
            registry: mal::prims::default_registry(),
            opt: OptConfig::level(codegen.opt_level),
            codegen,
            counts: PlanCounts::default(),
        }
    }

    /// Parse `sql`, then bind, generate and optimise whatever plan the
    /// statement runs: a SELECT, the SELECT feeding an INSERT, or the
    /// SET/WHERE projection of an UPDATE. One span per stage.
    pub fn probe(
        &mut self,
        catalog: &Catalog,
        sql: &str,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let stmt = rec
            .span(PARSE, |_| parse_statement(black_box(sql)))
            .map_err(|e| format!("parse probe {sql:?}: {e}"))?;
        let binder = Binder::new(catalog);
        let bound = rec.span(BIND, |_| match &stmt {
            Stmt::Select(sel) => binder.bind_select(sel).map(rewrite).map(Some),
            Stmt::Insert {
                source: InsertSource::Select(sel),
                ..
            } => binder.bind_select(sel).map(rewrite).map(Some),
            Stmt::Update {
                table,
                sets,
                filter,
            } => (|| {
                let (scan, scope) = binder.scope_for(table)?;
                let mut items = Vec::with_capacity(sets.len() + 1);
                for (i, (_, e)) in sets.iter().enumerate() {
                    items.push((format!("set_{i}"), binder.bind_expr(&scope, e)?, false));
                }
                if let Some(f) = filter {
                    items.push(("pred".to_owned(), binder.bind_expr(&scope, f)?, false));
                }
                Ok(Some(Plan::Project {
                    input: Box::new(scan),
                    items,
                }))
            })(),
            _ => Ok(None),
        });
        let Some(plan) = bound.map_err(|e| format!("bind probe {sql:?}: {e}"))? else {
            return Ok(());
        };
        let mut prog = rec
            .span(CODEGEN, |_| compile(&plan, &self.codegen))
            .map_err(|e| format!("codegen probe {sql:?}: {e}"))?;
        let stats = rec.span(OPT, |_| mal::optimise(&mut prog, &self.registry, self.opt));
        black_box(&prog);
        self.counts.instrs_removed += stats.total_removed() as u64;
        self.counts.fusions += stats.fusions() as u64;
        Ok(())
    }
}

/// Rows per result page on the wire.
const PAGE_ROWS: usize = sciql_repro::net::proto::PAGE_ROWS;

/// Encode `rs` into its wire header and pages, then rebuild a result set
/// from those bytes; returns the encoded size.
pub fn probe_result_codec(rs: &ResultSet, rec: &mut Recorder) -> Result<usize, String> {
    let (header, pages) = rec.span(ENCODE, |_| (rs.encode_header(), rs.encode_pages(PAGE_ROWS)));
    let bytes = header.len() + pages.iter().map(Vec::len).sum::<usize>();
    let rebuilt = rec.span(DECODE, |_| -> Result<ResultSet, String> {
        let mut b = ResultSetBuilder::from_header(&header).map_err(|e| e.to_string())?;
        for p in &pages {
            b.push_page(p).map_err(|e| e.to_string())?;
        }
        Ok(b.finish())
    })?;
    if rebuilt.row_count() != rs.row_count() {
        return Err(format!(
            "result codec probe: {} rows in, {} out",
            rs.row_count(),
            rebuilt.row_count()
        ));
    }
    Ok(bytes)
}

/// The layer metrics that are plain per-round sums of probe spans, plus
/// the optimizer's rewrite counts.
pub fn sum_probe_layers(rec: &Recorder, plan: &PlanCounts, out: &mut Layers) {
    let us = |name: &'static str| per_round_us(rec, |n| n == name);
    out.insert("parser.parse_us", us(PARSE));
    out.insert("algebra.bind_us", us(BIND));
    out.insert("algebra.codegen_us", us(CODEGEN));
    out.insert("mal.opt_us", us(OPT));
    out.insert("gdk.kernel_us", us(KERNEL));
    out.insert("core.result.encode_us", us(ENCODE));
    out.insert("core.result.decode_us", us(DECODE));
    out.insert("mal.instrs_removed", plan.instrs_removed as f64);
    out.insert("mal.fusions", plan.fusions as f64);
}

/// Fill the ledger shares from the layer times already in `out`:
/// planning and kernel time as shares of the round, and what no directly
/// timed layer call accounts for. `attributed_us` is the per-round sum
/// of those directly timed calls.
pub fn ledger(rec: &Recorder, attributed_us: f64, out: &mut Layers) {
    let round_us = per_round_us(rec, |n| n == "round");
    out.insert("ledger.planning_share", planning_us(out) / round_us);
    out.insert("ledger.kernel_share", out["gdk.kernel_us"] / round_us);
    out.insert("ledger.unattributed_share", 1.0 - attributed_us / round_us);
}

/// Parse + bind + codegen + optimise per round, from the sums
/// [`sum_probe_layers`] left in `out`.
pub fn planning_us(out: &Layers) -> f64 {
    [
        "parser.parse_us",
        "algebra.bind_us",
        "algebra.codegen_us",
        "mal.opt_us",
    ]
    .iter()
    .map(|k| out[k])
    .sum()
}
