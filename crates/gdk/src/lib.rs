//! # gdk — a column kernel in the style of MonetDB's GDK
//!
//! This crate is the storage and execution substrate for the SciQL
//! reproduction. It provides:
//!
//! * [`Bat`] — the Binary Association Table: a typed, contiguous column with
//!   a virtual dense head, exactly the representation the SciQL paper builds
//!   arrays on (one BAT per dimension, one per attribute — Fig 3);
//! * [`Candidates`] — sorted oid sets used to push selections through
//!   operator pipelines without materialisation;
//! * vectorised relational operators: selection ([`select`]), projection /
//!   positional fetch ([`project`]), joins ([`join`]), grouping ([`group`]),
//!   aggregation ([`aggregate`]), sorting ([`sort`]) and element-wise
//!   arithmetic ([`arith`]);
//! * the two MAL primitives the paper introduces for array materialisation,
//!   [`Bat::series`] (`array.series`) and [`Bat::filler`] (`array.filler`).
//!
//! NULLs are stored in-band as GDK-style nil sentinels ([`types`]).

#![warn(missing_docs)]

pub mod aggregate;
pub mod arith;
pub mod bat;
pub mod candidates;
pub mod codec;
pub mod fused;
pub mod group;
pub mod join;
pub mod like;
pub mod par;
pub mod project;
pub mod select;
pub mod sort;
pub mod strheap;
pub mod types;
pub mod value;
pub mod zonemap;

pub use bat::{Bat, ColumnData, Shape};
pub use candidates::Candidates;
pub use par::ParConfig;
pub use types::{Oid, ScalarType};
pub use value::Value;
pub use zonemap::{ZoneEntry, ZoneMap, TILE_ROWS};

use std::fmt;

/// Errors raised by kernel operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GdkError {
    /// Operand types do not match the operator.
    TypeMismatch(String),
    /// Structurally invalid request (lengths, ranges, overflow…).
    Invalid(String),
    /// Arithmetic overflow or division by zero.
    Arithmetic(String),
}

impl GdkError {
    /// Construct a [`GdkError::TypeMismatch`].
    pub fn type_mismatch(msg: impl Into<String>) -> Self {
        GdkError::TypeMismatch(msg.into())
    }
    /// Construct a [`GdkError::Invalid`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        GdkError::Invalid(msg.into())
    }
    /// Construct a [`GdkError::Arithmetic`].
    pub fn arithmetic(msg: impl Into<String>) -> Self {
        GdkError::Arithmetic(msg.into())
    }
}

impl fmt::Display for GdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdkError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            GdkError::Invalid(m) => write!(f, "invalid operation: {m}"),
            GdkError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
        }
    }
}

impl std::error::Error for GdkError {}

/// Kernel result type.
pub type Result<T> = std::result::Result<T, GdkError>;
