//! # sciql-net — serving SciQL over the network
//!
//! The paper's engine lives inside MonetDB and is reached over the MAPI
//! socket protocol by many concurrent clients. This crate is that fourth
//! layer for the reproduction: a pure-`std` TCP server that multiplexes
//! N concurrent client sessions onto one process-wide
//! [`SharedEngine`](sciql::SharedEngine), and a blocking [`Client`] for
//! tests, the driver's `tcp://` transport and embedding.
//!
//! * Wire format: length-prefixed, versioned frames ([`proto`]); result
//!   sets stream as a header frame plus row pages encoded with the same
//!   `gdk::codec` primitives the durable vault uses.
//! * Concurrency: SELECTs run on lock-free `Arc` column snapshots (no
//!   reader ever blocks another), mutating statements serialize through
//!   the engine's single-writer connection with per-statement WAL
//!   durability when a vault is attached.
//! * Lifecycle: handshake with version check, per-session prepared
//!   texts, ping, idle timeouts, and graceful shutdown (client-requested
//!   or [`ServerHandle::shutdown`]) that drains in-flight statements.
//!
//! ```no_run
//! use sciql::SharedEngine;
//! use sciql_net::{Client, Server};
//!
//! let engine = SharedEngine::in_memory();
//! let handle = Server::bind(engine, "127.0.0.1:0").unwrap().serve().unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.execute("CREATE TABLE t (a INT)").unwrap();
//! let rows = client.query("SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(rows.row_count(), 1);
//! client.shutdown_server().unwrap();
//! handle.wait();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod proto;
pub mod server;
pub mod stop;

pub use client::{Client, NetReply};
pub use http::{MetricsEndpoint, MetricsHandle};
pub use proto::{
    ExecReport, NetError, NetResult, ReplSnapshotFrame, Trailer, WalToken, PROTO_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stop::Stop;
