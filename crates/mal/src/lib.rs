//! # mal — a MonetDB Assembly Language work-alike
//!
//! MAL is "the primary textual interface to the MonetDB kernel … the target
//! language for all MonetDB query compiler front-ends" (paper §3). This
//! crate provides:
//!
//! * [`ir::Program`] — straight-line SSA-ish instruction sequences over
//!   the closed [`ir::Prim`] opcode set, with a MAL-text printer for
//!   `EXPLAIN`;
//! * [`interp::Interpreter`] — executes programs by dispatching each
//!   opcode to its kernel through one `match` ([`prims::call`]),
//!   resolving `sql.bind` through a caller-supplied [`interp::Binder`];
//! * [`prims`] — the standard library (`algebra`, `batcalc`, `group`,
//!   `aggr`, `bat`, and the paper's new `array.series` / `array.filler`);
//! * [`opt`] — the optimizer pipeline (constant folding, CSE, alias
//!   removal, DCE, candidate propagation, select→project and
//!   select→aggregate kernel fusion) with per-pass ablation switches and
//!   a coarse `opt_level` selector.

#![warn(missing_docs)]

pub mod interp;
pub mod ir;
pub mod opt;
pub mod prims;
pub mod registry;

pub use interp::{Binder, EmptyBinder, ExecStats, Interpreter, MalValue};
pub use ir::{Arg, Instr, MalType, Prim, Program, VarId};
pub use opt::{optimise, optimise_traced, OptConfig, PassStats};
pub use registry::Registry;

use std::fmt;

/// Errors raised by MAL compilation or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum MalError {
    /// Kernel-level error.
    Gdk(gdk::GdkError),
    /// A bind-parameter slot was referenced but no value was supplied:
    /// `(slot, bound)` — the zero-based slot and how many values the
    /// caller actually bound.
    UnboundParam(usize, usize),
    /// A bound value could not be coerced to its slot's declared type:
    /// `(slot, detail)`.
    BadParam(usize, String),
    /// Interpreter or primitive error.
    Msg(String),
}

impl MalError {
    /// Construct a message error.
    pub fn msg(m: impl Into<String>) -> Self {
        MalError::Msg(m.into())
    }

    /// Construct an unbound-parameter error.
    pub fn unbound_param(slot: usize, bound: usize) -> Self {
        MalError::UnboundParam(slot, bound)
    }
}

impl fmt::Display for MalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalError::Gdk(e) => write!(f, "{e}"),
            MalError::UnboundParam(slot, bound) => write!(
                f,
                "parameter {} is not bound ({} value(s) supplied)",
                slot + 1,
                bound
            ),
            MalError::BadParam(slot, detail) => {
                write!(f, "cannot bind parameter {}: {detail}", slot + 1)
            }
            MalError::Msg(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for MalError {}

impl From<gdk::GdkError> for MalError {
    fn from(e: gdk::GdkError) -> Self {
        MalError::Gdk(e)
    }
}

/// MAL result type.
pub type Result<T> = std::result::Result<T, MalError>;
