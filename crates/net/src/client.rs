//! The blocking client: connect, handshake, send statements, reassemble
//! paged results into a [`ResultSet`], and keep the report and trace
//! each answer's trailer carries.

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
    /// Ask the server to trace each statement (bit 0 of the request's
    /// `flags`).
    tracing: bool,
    /// The trailer of the last statement answer.
    last: proto::Trailer,
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
            tracing: false,
            last: proto::Trailer::default(),
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
            Op::Error => Err(proto::read_error(body)?.0),
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
            let payload = proto::query(c.tracing, c.read_token, sql);
            proto::write_frame(&mut c.stream, &payload)?;
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
                proto::write_frame(&mut batch, &proto::query(c.tracing, c.read_token, sql))?;
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
                (Op::Error, body) => Err(proto::read_error(body)?.0),
                (op, _) => Err(NetError::protocol(format!("expected StmtOk, got {op:?}"))),
            }
        })
    }

    /// Execute a prepared statement with slot-ordered values (none for
    /// a statement without parameters): one `ExecBound` frame against
    /// the server's cached plan, no re-planning. The values travel
    /// codec-encoded and bit-exact.
    pub fn execute_bound(&mut self, name: &str, params: &[gdk::Value]) -> NetResult<NetReply> {
        self.exchange(|c| {
            let payload = proto::exec_bound(c.tracing, name, params);
            proto::write_frame(&mut c.stream, &payload)?;
            c.read_reply()
        })
    }

    /// Drop a prepared statement server-side; `true` if it existed.
    pub fn deallocate(&mut self, name: &str) -> NetResult<bool> {
        self.exchange(|c| {
            proto::write_frame(&mut c.stream, &proto::deallocate(name))?;
            // Not a statement: its trailer does not replace the last
            // report and trace, as an embedded deallocation leaves them.
            let frame = c.expect_frame()?;
            match proto::split(&frame)? {
                (Op::Affected, body) => Ok(proto::read_affected(body)?.0 > 0),
                (Op::Error, body) => Err(proto::read_error(body)?.0),
                (op, _) => Err(NetError::protocol(format!("expected Affected, got {op:?}"))),
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

    /// Execution report of this session's most recent statement, as the
    /// last statement answer's trailer carried it (what a local
    /// `LastExec` would show). No round trip.
    pub fn last_report(&self) -> proto::ExecReport {
        self.last.report
    }

    /// Ask the server to trace every following statement (or stop).
    /// Switching off drops the last trace, as an embedded session does.
    /// No round trip: the setting rides on each request.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.last.trace = None;
        }
    }

    /// The rendered span tree of this session's most recent statement,
    /// or `None` when tracing was off. No round trip.
    pub fn last_trace(&self) -> Option<&str> {
        self.last.trace.as_deref()
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

    /// Take a statement answer's trailer as this session's last report
    /// and trace.
    fn settle(&mut self, mut trailer: proto::Trailer) {
        if !self.tracing {
            trailer.trace = None;
        }
        self.last = trailer;
    }

    /// Decode a statement's `Error` answer and settle its trailer.
    fn statement_error(&mut self, body: &[u8]) -> NetError {
        match proto::read_error(body) {
            Ok((e, trailer)) => {
                self.settle(trailer);
                e
            }
            Err(malformed) => malformed,
        }
    }

    /// Read one statement answer: `Affected`, `Error`, or header + pages
    /// + done.
    fn read_reply(&mut self) -> NetResult<NetReply> {
        let frame = self.expect_frame()?;
        let (op, body) = proto::split(&frame)?;
        match op {
            Op::Error => Err(self.statement_error(body)),
            Op::Affected => {
                let (n, token, trailer) = proto::read_affected(body)?;
                if token != (0, 0) {
                    self.last_token = token;
                }
                self.settle(trailer);
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
                            let (rows, pages, trailer) = proto::read_result_done(body)?;
                            if pages != pages_seen || rows != builder.row_count() as u64 {
                                return Err(NetError::protocol(format!(
                                    "result stream torn: server sent {rows} rows in {pages} \
                                     pages, received {} rows in {pages_seen} pages",
                                    builder.row_count()
                                )));
                            }
                            self.settle(trailer);
                            return Ok(NetReply::Rows(builder.finish()));
                        }
                        Op::Error => return Err(self.statement_error(body)),
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
