//! # sciql — array data processing inside an RDBMS
//!
//! A from-scratch Rust reproduction of *SciQL: Array Data Processing
//! Inside an RDBMS* (Zhang, Kersten, Manegold — SIGMOD 2013): an SQL
//! engine in which **arrays are first-class citizens next to tables**.
//!
//! The stack mirrors the paper's Fig 2:
//!
//! ```text
//! SciQL query ─▶ parser (sciql-parser) ─▶ binder + relational algebra
//!   (sciql-algebra) ─▶ MAL generator ─▶ MAL optimizers ─▶ MAL
//!   interpreter (mal) ─▶ GDK BAT kernel (gdk)
//! ```
//!
//! # Quickstart
//!
//! ```
//! use sciql::Connection;
//!
//! let mut conn = Connection::new();
//! // The 4×4 matrix from Fig 1(a) of the paper:
//! conn.execute(
//!     "CREATE ARRAY matrix (
//!        x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4],
//!        v INT DEFAULT 0)",
//! ).unwrap();
//! // The guarded update of Fig 1(b):
//! conn.execute(
//!     "UPDATE matrix SET v = CASE WHEN x > y THEN x + y \
//!      WHEN x < y THEN x - y ELSE 0 END",
//! ).unwrap();
//! let rs = conn.query("SELECT x, y, v FROM matrix WHERE x = 3").unwrap();
//! assert_eq!(rs.row_count(), 4);
//! ```

#![warn(missing_docs)]

pub mod commit;
pub mod copy;
pub mod ddl;
pub mod dml;
pub mod engine;
pub mod exec;
pub mod result;
pub mod session;
pub mod storage;
mod sysview;

#[cfg(test)]
mod tests;

pub use commit::{CommitTicket, GroupCommitter, Mark, Watermark};
pub use copy::write_copy_binary;
pub use engine::{
    EngineSession, EngineSnapshot, EngineStats, SessionMeter, SessionStats, SharedEngine,
    VaultImage,
};
pub use exec::Prepared;
pub use result::{ArrayView, ColumnMeta, ResultSet};
pub use session::{Connection, LastExec, QueryResult, SessionConfig};
pub use storage::{ArrayStore, TableStore};

use std::fmt;

/// Stable, transport-independent error codes. Every error the stack can
/// produce — parser, binder, catalog, interpreter, kernels, durable
/// store, network — maps to exactly one code, and the code survives the
/// wire: a server-side parse error reaches a remote driver as the same
/// [`ErrorCode::Parse`] an embedded session produces. The numeric values
/// are part of the public API and never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// Lexical or syntax error (1001).
    Parse = 1001,
    /// Name resolution / type-check error (1002).
    Bind = 1002,
    /// Catalog error: unknown or duplicate schema object (1003).
    Catalog = 1003,
    /// Runtime execution error in the MAL interpreter (1004).
    Exec = 1004,
    /// BAT kernel error — overflow, division by zero, bad cast (1005).
    Kernel = 1005,
    /// Durable-store error: I/O or on-disk corruption (1006).
    Storage = 1006,
    /// Bind-parameter error: unbound slot or uncoercible value (1007).
    Param = 1007,
    /// Statement-level misuse: unknown prepared name, rows/affected
    /// mismatch, and other engine-reported conditions (1008).
    Statement = 1008,
    /// Network transport I/O failure (1101).
    Io = 1101,
    /// Wire-protocol violation (1102).
    Protocol = 1102,
    /// Protocol version mismatch (1103).
    Version = 1103,
    /// Driver-level misuse: bad URL, closed connection (1104).
    Connection = 1104,
    /// Admission control refused the request: the server is at its
    /// session limit or the write queue is full — retry later (1105).
    ServerBusy = 1105,
    /// A per-session resource quota was exceeded, e.g. a result set
    /// larger than `max_result_bytes_per_session` (1106).
    QuotaExceeded = 1106,
    /// A replica could not satisfy a monotonic-read token within the
    /// bounded wait: it has not yet applied the writer's acknowledged
    /// WAL position — retry, or read from the primary (1107).
    ReplicaLagging = 1107,
    /// Anything that should not happen (1999).
    Internal = 1999,
}

impl ErrorCode {
    /// The wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Parse a wire code; unknown codes land on
    /// [`ErrorCode::Internal`] so old clients survive new servers.
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1001 => ErrorCode::Parse,
            1002 => ErrorCode::Bind,
            1003 => ErrorCode::Catalog,
            1004 => ErrorCode::Exec,
            1005 => ErrorCode::Kernel,
            1006 => ErrorCode::Storage,
            1007 => ErrorCode::Param,
            1008 => ErrorCode::Statement,
            1101 => ErrorCode::Io,
            1102 => ErrorCode::Protocol,
            1103 => ErrorCode::Version,
            1104 => ErrorCode::Connection,
            1105 => ErrorCode::ServerBusy,
            1106 => ErrorCode::QuotaExceeded,
            1107 => ErrorCode::ReplicaLagging,
            _ => ErrorCode::Internal,
        }
    }

    /// Stable lowercase name (used in error display).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Bind => "bind",
            ErrorCode::Catalog => "catalog",
            ErrorCode::Exec => "exec",
            ErrorCode::Kernel => "kernel",
            ErrorCode::Storage => "storage",
            ErrorCode::Param => "param",
            ErrorCode::Statement => "statement",
            ErrorCode::Io => "io",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Version => "version",
            ErrorCode::Connection => "connection",
            ErrorCode::ServerBusy => "server_busy",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::ReplicaLagging => "replica_lagging",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.as_u16())
    }
}

/// Engine errors, aggregating every layer of the stack.
#[derive(Debug)]
pub enum EngineError {
    /// Lexer/parser error.
    Parse(sciql_parser::ParseError),
    /// Binder/codegen error.
    Algebra(sciql_algebra::AlgebraError),
    /// Catalog error.
    Catalog(sciql_catalog::CatalogError),
    /// MAL execution error.
    Mal(mal::MalError),
    /// Kernel error.
    Gdk(gdk::GdkError),
    /// Durable-store error (I/O or on-disk corruption).
    Store(sciql_store::StoreError),
    /// Admission control refused the statement (write queue full);
    /// nothing was executed — the client may retry.
    Busy(String),
    /// A per-session resource quota was exceeded.
    Quota(String),
    /// Engine-level error.
    Msg(String),
}

impl EngineError {
    /// Engine-level error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        EngineError::Msg(m.into())
    }

    /// The stable [`ErrorCode`] this error maps into (the same code a
    /// remote driver receives over the wire).
    pub fn code(&self) -> ErrorCode {
        match self {
            EngineError::Parse(_) => ErrorCode::Parse,
            EngineError::Algebra(sciql_algebra::AlgebraError::Catalog(_)) => ErrorCode::Catalog,
            EngineError::Algebra(sciql_algebra::AlgebraError::Internal(_)) => ErrorCode::Internal,
            EngineError::Algebra(_) => ErrorCode::Bind,
            EngineError::Catalog(_) => ErrorCode::Catalog,
            EngineError::Mal(mal::MalError::UnboundParam(..))
            | EngineError::Mal(mal::MalError::BadParam(..)) => ErrorCode::Param,
            EngineError::Mal(_) => ErrorCode::Exec,
            EngineError::Gdk(_) => ErrorCode::Kernel,
            EngineError::Store(_) => ErrorCode::Storage,
            EngineError::Busy(_) => ErrorCode::ServerBusy,
            EngineError::Quota(_) => ErrorCode::QuotaExceeded,
            EngineError::Msg(_) => ErrorCode::Statement,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Algebra(e) => write!(f, "{e}"),
            EngineError::Catalog(e) => write!(f, "{e}"),
            EngineError::Mal(e) => write!(f, "execution error: {e}"),
            EngineError::Gdk(e) => write!(f, "kernel error: {e}"),
            EngineError::Store(e) => write!(f, "{e}"),
            EngineError::Busy(m) => write!(f, "server busy: {m}"),
            EngineError::Quota(m) => write!(f, "quota exceeded: {m}"),
            EngineError::Msg(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<sciql_parser::ParseError> for EngineError {
    fn from(e: sciql_parser::ParseError) -> Self {
        EngineError::Parse(e)
    }
}
impl From<sciql_algebra::AlgebraError> for EngineError {
    fn from(e: sciql_algebra::AlgebraError) -> Self {
        EngineError::Algebra(e)
    }
}
impl From<sciql_catalog::CatalogError> for EngineError {
    fn from(e: sciql_catalog::CatalogError) -> Self {
        EngineError::Catalog(e)
    }
}
impl From<mal::MalError> for EngineError {
    fn from(e: mal::MalError) -> Self {
        EngineError::Mal(e)
    }
}
impl From<gdk::GdkError> for EngineError {
    fn from(e: gdk::GdkError) -> Self {
        EngineError::Gdk(e)
    }
}
impl From<sciql_store::StoreError> for EngineError {
    fn from(e: sciql_store::StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// Engine result type.
pub type Result<T> = std::result::Result<T, EngineError>;
