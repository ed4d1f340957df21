//! The one renderer for per-statement execution reports.
//!
//! The repl's `\timing` and the driver both feed an [`ExecSummary`]
//! (built from the execution report a reply's trailer carries) through
//! [`render_exec_summary`], so an embedded session and a `tcp://`
//! session print byte-identical reports for the same numbers.

use std::fmt::Write as _;

/// Transport-agnostic statement execution summary. Mirrors the wire
/// execution report one-to-one, plus the optional client-measured wall
/// time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecSummary {
    /// Client-side wall time, milliseconds (if measured).
    pub wall_ms: Option<f64>,
    /// MAL instructions interpreted.
    pub instructions: u64,
    /// Result tuples produced.
    pub tuples_produced: u64,
    /// Instructions that ran on more than one thread.
    pub par_instructions: u64,
    /// Peak kernel thread count.
    pub max_threads: u64,
    /// MAL program length before optimization.
    pub instrs_before_opt: u64,
    /// MAL program length after optimization.
    pub instrs_after_opt: u64,
    /// Instructions removed by the optimizer.
    pub eliminated: u64,
    /// Instructions fused by the optimizer.
    pub fused: u64,
    /// Intermediates the optimizer avoided materializing.
    pub intermediates_avoided: u64,
    /// Bytes not materialized thanks to avoided intermediates.
    pub bytes_not_materialized: u64,
    /// Plan-cache hits for this statement (0 = compiled fresh).
    pub plan_cache_hits: u64,
    /// Tiles skipped by zone-map pruning.
    pub tiles_skipped: u64,
}

/// Render the canonical multi-line execution report.
pub fn render_exec_summary(s: &ExecSummary) -> String {
    let mut out = String::new();
    let _ = write!(out, "Time: ");
    if let Some(ms) = s.wall_ms {
        let _ = write!(out, "{ms:.3} ms ");
    }
    let _ = writeln!(
        out,
        "({} instr, {} tuple(s), {} parallel, max {} thread(s), plan cache {})",
        s.instructions,
        s.tuples_produced,
        s.par_instructions,
        s.max_threads,
        if s.plan_cache_hits > 0 { "HIT" } else { "miss" }
    );
    let _ = writeln!(
        out,
        "Opt:  {} -> {} instr ({} eliminated, {} fused); \
         {} intermediate(s) not materialized ({} bytes)",
        s.instrs_before_opt,
        s.instrs_after_opt,
        s.eliminated,
        s.fused,
        s.intermediates_avoided,
        s.bytes_not_materialized
    );
    if s.tiles_skipped > 0 {
        let _ = writeln!(
            out,
            "Scan: {} tile(s) skipped via zone maps",
            s.tiles_skipped
        );
    }
    out
}
