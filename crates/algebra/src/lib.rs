//! # sciql-algebra — binder, logical algebra and MAL code generation
//!
//! The middle of the paper's Fig 2 pipeline: the SQL/SciQL compiler takes a
//! parsed statement, resolves it against the catalog ([`bind::Binder`]),
//! produces relational algebra extended with array operators
//! ([`plan::Plan`]), and lowers it to MAL ([`malgen::compile`]).

#![warn(missing_docs)]

pub mod bexpr;
pub mod bind;
pub mod malgen;
pub mod plan;
pub mod rewrite;

pub use bexpr::{AggCall, BExpr};
pub use bind::{array_shape, eval_const, linear_offset, Binder, Scope};
pub use malgen::{compile, compile_cells, CodegenOptions};
pub use plan::{ColInfo, Plan};
pub use rewrite::rewrite;

use std::fmt;

/// Errors raised during binding or code generation.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgebraError {
    /// Name resolution / semantic error.
    Bind(String),
    /// Type error.
    Type(String),
    /// Catalog error.
    Catalog(sciql_catalog::CatalogError),
    /// Kernel error during constant evaluation.
    Gdk(gdk::GdkError),
    /// Internal invariant violation.
    Internal(String),
}

impl AlgebraError {
    /// Binding error.
    pub fn bind(m: impl Into<String>) -> Self {
        AlgebraError::Bind(m.into())
    }
    /// Type error.
    pub fn type_error(m: impl Into<String>) -> Self {
        AlgebraError::Type(m.into())
    }
    /// Internal error.
    pub fn internal(m: impl Into<String>) -> Self {
        AlgebraError::Internal(m.into())
    }
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::Bind(m) => write!(f, "binding error: {m}"),
            AlgebraError::Type(m) => write!(f, "type error: {m}"),
            AlgebraError::Catalog(e) => write!(f, "catalog error: {e}"),
            AlgebraError::Gdk(e) => write!(f, "kernel error: {e}"),
            AlgebraError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl From<sciql_catalog::CatalogError> for AlgebraError {
    fn from(e: sciql_catalog::CatalogError) -> Self {
        AlgebraError::Catalog(e)
    }
}

impl From<gdk::GdkError> for AlgebraError {
    fn from(e: gdk::GdkError) -> Self {
        AlgebraError::Gdk(e)
    }
}

/// Algebra result type.
pub type Result<T> = std::result::Result<T, AlgebraError>;
