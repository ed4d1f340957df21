//! The blocking client: connect, handshake, send statements, reassemble
//! paged results into a [`ResultSet`].

use crate::proto::{self, NetError, NetResult, Op, PROTO_VERSION};
use gdk::codec::Reader;
use sciql::result::ResultSetBuilder;
use sciql::ResultSet;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A statement's outcome as seen over the wire.
#[derive(Debug, Clone)]
pub enum NetReply {
    /// DDL/DML: affected cells/rows.
    Affected(u64),
    /// SELECT: the reassembled result set.
    Rows(ResultSet),
}

impl NetReply {
    /// Unwrap a row result.
    pub fn rows(self) -> NetResult<ResultSet> {
        match self {
            NetReply::Rows(r) => Ok(r),
            NetReply::Affected(_) => Err(NetError::protocol("statement did not produce rows")),
        }
    }

    /// Unwrap an affected-count result.
    pub fn affected(self) -> NetResult<u64> {
        match self {
            NetReply::Affected(n) => Ok(n),
            NetReply::Rows(_) => Err(NetError::protocol("statement produced rows")),
        }
    }
}

/// A connected, handshaken session with a `sciql-net` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    session_id: u64,
    server: String,
    /// Set after an I/O or framing failure mid-exchange. Once the reply
    /// stream may be desynchronized (e.g. a timed-out read whose answer
    /// later lands in the socket), attributing the *next* reply to the
    /// *next* request would silently return wrong results — so every
    /// further call fails instead. Statement errors do not poison.
    broken: bool,
    /// Monotonic-read token sent with every `Query`. `(0, 0)`
    /// means unconstrained; a replica holds a constrained read until it
    /// has applied at least this WAL position.
    read_token: proto::WalToken,
    /// The newest durable WAL position acknowledged by this session's
    /// writes — what a write's `Affected` reply carried last.
    last_token: proto::WalToken,
}

impl Client {
    /// Connect and perform the `Hello`/`HelloOk` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> NetResult<Client> {
        Self::connect_named(addr, "sciql-net-client")
    }

    /// [`Client::connect`] announcing a client name (shows up in server
    /// diagnostics).
    pub fn connect_named(addr: impl ToSocketAddrs, name: &str) -> NetResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // A safety net so a dead server never hangs the client forever.
        // A statement that genuinely takes longer trips it too — that
        // poisons the connection (see `broken`) rather than risking a
        // desynchronized reply stream; reconnect and retry in that case.
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let mut client = Client {
            stream,
            session_id: 0,
            server: String::new(),
            broken: false,
            read_token: (0, 0),
            last_token: (0, 0),
        };
        proto::write_frame(&mut client.stream, &proto::hello(name))?;
        let frame = client.expect_frame()?;
        let (op, body) = proto::split(&frame)?;
        match op {
            Op::HelloOk => {
                let mut r = Reader::new(body);
                let theirs = r
                    .u16()
                    .map_err(|_| NetError::protocol("malformed HelloOk"))?;
                if theirs != PROTO_VERSION {
                    return Err(NetError::Version {
                        ours: PROTO_VERSION,
                        theirs,
                    });
                }
                client.server = r
                    .str()
                    .map_err(|_| NetError::protocol("malformed HelloOk"))?;
                client.session_id = r
                    .u64()
                    .map_err(|_| NetError::protocol("malformed HelloOk"))?;
                Ok(client)
            }
            Op::Error => Err(proto::read_error(body)),
            other => Err(NetError::protocol(format!(
                "expected HelloOk, got {other:?}"
            ))),
        }
    }

    /// Server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Server name from the handshake.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// Require every subsequent `Query` on this connection to observe at
    /// least this WAL position (monotonic reads against a replica).
    /// `(0, 0)` clears the constraint.
    pub fn set_read_token(&mut self, token: proto::WalToken) {
        self.read_token = token;
    }

    /// The durable WAL position acknowledged by this session's most
    /// recent write (`(0, 0)` before any write, or on an in-memory
    /// server). Hand it to a replica client via
    /// [`Client::set_read_token`] to read your own writes.
    pub fn last_token(&self) -> proto::WalToken {
        self.last_token
    }

    /// Is this connection poisoned by an earlier I/O or framing failure?
    /// A broken client refuses further statements; reconnect instead.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Run one request/reply exchange with poison discipline: refuse if
    /// already broken, and break on any failure that can leave the
    /// reply stream out of step (everything except a server-reported
    /// statement error, after which the stream is still aligned).
    fn exchange<T>(&mut self, f: impl FnOnce(&mut Self) -> NetResult<T>) -> NetResult<T> {
        if self.broken {
            return Err(NetError::protocol(
                "connection is broken by an earlier failure; reconnect",
            ));
        }
        let result = f(self);
        if let Err(e) = &result {
            if !matches!(e, NetError::Server { .. }) {
                self.broken = true;
            }
        }
        result
    }

    /// Execute one statement.
    pub fn execute(&mut self, sql: &str) -> NetResult<NetReply> {
        self.exchange(|c| {
            let token = c.read_token;
            proto::write_frame(&mut c.stream, &proto::query(token, sql))?;
            c.read_reply()
        })
    }

    /// Execute a SELECT and return its rows.
    pub fn query(&mut self, sql: &str) -> NetResult<ResultSet> {
        self.execute(sql)?.rows()
    }

    /// Execute a batch of statements pipelined: every `Query` frame goes
    /// out in one socket write, then all replies are read back in order
    /// — the whole batch costs one round trip instead of one per
    /// statement. Replies are positional: `result[i]` answers `sqls[i]`.
    /// A statement the server refuses (parse error, quota, busy) lands
    /// as the `Err` in its own slot and the batch keeps going — the
    /// server answers every frame, so the reply stream stays aligned.
    /// Only a transport failure aborts (and poisons the connection).
    pub fn execute_pipelined(&mut self, sqls: &[&str]) -> NetResult<Vec<NetResult<NetReply>>> {
        self.exchange(|c| {
            let mut batch = Vec::new();
            for sql in sqls {
                proto::write_frame(&mut batch, &proto::query(c.read_token, sql))?;
            }
            std::io::Write::write_all(&mut c.stream, &batch)?;
            let mut replies = Vec::with_capacity(sqls.len());
            for _ in sqls {
                match c.read_reply() {
                    Err(e @ NetError::Server { .. }) => replies.push(Err(e)),
                    Err(transport) => return Err(transport),
                    Ok(r) => replies.push(Ok(r)),
                }
            }
            Ok(replies)
        })
    }

    /// Prepare a named statement in the server-side session. The server
    /// parses it immediately (and compiles SELECTs once, on first
    /// execution); returns the number of `?`/`:name` bind slots.
    pub fn prepare(&mut self, name: &str, sql: &str) -> NetResult<u16> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::prepare(name, sql))?;
            let frame = c.expect_frame()?;
            match proto::split(&frame)? {
                (Op::StmtOk, body) => proto::read_stmt_ok(body),
                (Op::Error, body) => Err(proto::read_error(body)),
                (op, _) => Err(NetError::protocol(format!("expected StmtOk, got {op:?}"))),
            }
        })
    }

    /// Execute a statement previously stashed with [`Client::prepare`]
    /// (no parameters; use [`Client::execute_bound`] to bind values).
    pub fn execute_prepared(&mut self, name: &str) -> NetResult<NetReply> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::exec_prepared(name))?;
            c.read_reply()
        })
    }

    /// Stage bound parameter values for a prepared statement (slot
    /// order). The values travel codec-encoded and bit-exact; they stay
    /// staged until the next [`Client::bind`] for the same name.
    pub fn bind(&mut self, name: &str, params: &[gdk::Value]) -> NetResult<()> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::bind(name, params))?;
            let frame = c.expect_frame()?;
            match proto::split(&frame)? {
                (Op::Ok, _) => Ok(()),
                (Op::Error, body) => Err(proto::read_error(body)),
                (op, _) => Err(NetError::protocol(format!("expected Ok, got {op:?}"))),
            }
        })
    }

    /// Execute a prepared statement with the values staged by the last
    /// [`Client::bind`] (server-side cached plan, no re-planning).
    pub fn exec_bound(&mut self, name: &str) -> NetResult<NetReply> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::exec_bound(name))?;
            c.read_reply()
        })
    }

    /// [`Client::bind`] + [`Client::exec_bound`] pipelined: both frames
    /// go out in one socket write and both replies are read afterwards,
    /// so a bound re-execution costs one round trip, not two. If the
    /// bind is refused, the exec answer (also an error — the values never
    /// staged) is drained to keep the reply stream aligned and the bind
    /// error is returned.
    pub fn execute_bound(&mut self, name: &str, params: &[gdk::Value]) -> NetResult<NetReply> {
        self.exchange(|c| {
            let mut batch = Vec::new();
            proto::write_frame(&mut batch, &proto::bind(name, params))?;
            proto::write_frame(&mut batch, &proto::exec_bound(name))?;
            std::io::Write::write_all(&mut c.stream, &batch)?;
            let frame = c.expect_frame()?;
            let bind_err = match proto::split(&frame)? {
                (Op::Ok, _) => None,
                (Op::Error, body) => Some(proto::read_error(body)),
                (op, _) => {
                    return Err(NetError::protocol(format!("expected Ok, got {op:?}")));
                }
            };
            let reply = c.read_reply();
            match (bind_err, reply) {
                // Bind refused: the exec answer is a statement error
                // too; report the root cause. A transport-level failure
                // on the second read still wins so the poison discipline
                // sees it.
                (Some(e), Ok(_) | Err(NetError::Server { .. })) => Err(e),
                (Some(_), Err(other)) => Err(other),
                (None, r) => r,
            }
        })
    }

    /// Drop a prepared statement server-side; `true` if it existed.
    pub fn deallocate(&mut self, name: &str) -> NetResult<bool> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::deallocate(name))?;
            match c.read_reply()? {
                NetReply::Affected(n) => Ok(n > 0),
                other => Err(NetError::protocol(format!(
                    "unexpected Deallocate reply {other:?}"
                ))),
            }
        })
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> NetResult<()> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::bare(Op::Ping))?;
            let frame = c.expect_frame()?;
            match proto::split(&frame)? {
                (Op::Pong, _) => Ok(()),
                (op, _) => Err(NetError::protocol(format!("expected Pong, got {op:?}"))),
            }
        })
    }

    /// Execution report for this session's most recent statement: the
    /// interpreter counters and the optimizer pipeline's pass summary
    /// (what a local `LastExec` would show).
    pub fn last_stats(&mut self) -> NetResult<proto::ExecReport> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::bare(Op::Stats))?;
            let frame = c.expect_frame()?;
            match proto::split(&frame)? {
                (Op::StatsReply, body) => proto::read_stats_reply(body),
                (Op::Error, body) => Err(proto::read_error(body)),
                (op, _) => Err(NetError::protocol(format!(
                    "expected StatsReply, got {op:?}"
                ))),
            }
        })
    }

    /// Snapshot of the server's engine-wide metrics registry: query
    /// counters by kind, latency histograms (query, WAL fsync,
    /// checkpoint), plan-cache hit/miss, tile churn, live sessions and
    /// wire byte counts.
    pub fn metrics(&mut self) -> NetResult<sciql_obs::MetricsSnapshot> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::bare(Op::Metrics))?;
            let frame = c.expect_frame()?;
            match proto::split(&frame)? {
                (Op::MetricsReply, body) => proto::read_metrics_reply(body),
                (Op::Error, body) => Err(proto::read_error(body)),
                (op, _) => Err(NetError::protocol(format!(
                    "expected MetricsReply, got {op:?}"
                ))),
            }
        })
    }

    /// Switch per-session query tracing on or off server-side. While
    /// on, every statement this session executes records a span tree;
    /// fetch the latest with [`Client::fetch_trace`].
    pub fn set_tracing(&mut self, on: bool) -> NetResult<()> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::trace_enable(on))?;
            let frame = c.expect_frame()?;
            match proto::split(&frame)? {
                (Op::Ok, _) => Ok(()),
                (Op::Error, body) => Err(proto::read_error(body)),
                (op, _) => Err(NetError::protocol(format!("expected Ok, got {op:?}"))),
            }
        })
    }

    /// The rendered span tree of this session's most recent traced
    /// statement, or `None` when tracing was off / nothing ran yet.
    pub fn fetch_trace(&mut self) -> NetResult<Option<String>> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::bare(Op::TraceFetch))?;
            let frame = c.expect_frame()?;
            match proto::split(&frame)? {
                (Op::TraceReply, body) => proto::read_trace_reply(body),
                (Op::Error, body) => Err(proto::read_error(body)),
                (op, _) => Err(NetError::protocol(format!(
                    "expected TraceReply, got {op:?}"
                ))),
            }
        })
    }

    /// Ask the server to shut down gracefully (in-flight statements of
    /// other sessions finish first).
    pub fn shutdown_server(mut self) -> NetResult<()> {
        proto::write_frame(&mut self.stream, &proto::bare(Op::Shutdown))?;
        let frame = self.expect_frame()?;
        match proto::split(&frame)? {
            (Op::Ok, _) => Ok(()),
            (op, _) => Err(NetError::protocol(format!("expected Ok, got {op:?}"))),
        }
    }

    /// Orderly hangup.
    pub fn close(mut self) -> NetResult<()> {
        proto::write_frame(&mut self.stream, &proto::bare(Op::Close))
    }

    fn expect_frame(&mut self) -> NetResult<Vec<u8>> {
        proto::read_frame(&mut self.stream)?.ok_or_else(|| NetError::protocol("server hung up"))
    }

    /// Read one statement answer: `Affected`, `Error`, `Ok` (mapped to
    /// `Affected(0)`), or header + pages + done.
    fn read_reply(&mut self) -> NetResult<NetReply> {
        let frame = self.expect_frame()?;
        let (op, body) = proto::split(&frame)?;
        match op {
            Op::Error => Err(proto::read_error(body)),
            Op::Ok => Ok(NetReply::Affected(0)),
            Op::Affected => {
                let (n, token) = proto::read_affected(body)?;
                if token != (0, 0) {
                    self.last_token = token;
                }
                Ok(NetReply::Affected(n))
            }
            Op::ResultHeader => {
                let mut builder = ResultSetBuilder::from_header(body)
                    .map_err(|e| NetError::protocol(e.to_string()))?;
                let mut pages_seen: u32 = 0;
                loop {
                    let frame = self.expect_frame()?;
                    let (op, body) = proto::split(&frame)?;
                    match op {
                        Op::ResultPage => {
                            builder
                                .push_page(body)
                                .map_err(|e| NetError::protocol(e.to_string()))?;
                            pages_seen += 1;
                        }
                        Op::ResultDone => {
                            let mut r = Reader::new(body);
                            let rows = r
                                .u64()
                                .map_err(|_| NetError::protocol("malformed ResultDone"))?;
                            let pages = r
                                .u32()
                                .map_err(|_| NetError::protocol("malformed ResultDone"))?;
                            if pages != pages_seen || rows != builder.row_count() as u64 {
                                return Err(NetError::protocol(format!(
                                    "result stream torn: server sent {rows} rows in {pages} \
                                     pages, received {} rows in {pages_seen} pages",
                                    builder.row_count()
                                )));
                            }
                            return Ok(NetReply::Rows(builder.finish()));
                        }
                        Op::Error => return Err(proto::read_error(body)),
                        other => {
                            return Err(NetError::protocol(format!(
                                "unexpected {other:?} inside a result stream"
                            )))
                        }
                    }
                }
            }
            other => Err(NetError::protocol(format!(
                "unexpected statement reply {other:?}"
            ))),
        }
    }
}
