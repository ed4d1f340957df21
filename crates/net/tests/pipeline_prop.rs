//! Property: pipelining is invisible in the reply stream. For any batch
//! of statements — including ones the server refuses mid-pipeline — the
//! raw reply bytes of a client that ships every request frame in one
//! socket write are identical, statement for statement and in order, to
//! those of a client that sends one frame at a time and waits. This is
//! the contract drivers rely on to batch without round trips: replies
//! are positional, an error frame occupies exactly its statement's
//! slot, and coalesced flushing never reorders or merges frames.

use proptest::prelude::*;
use sciql::SharedEngine;
use sciql_net::proto::{self, Op};
use sciql_net::Server;
use std::io::Write as _;
use std::net::TcpStream;

/// Statement pool the batches draw from: mutations, single- and
/// multi-row SELECTs, a parse error and a catalog error (the
/// mid-pipeline refusals).
const POOL: &[&str] = &[
    "INSERT INTO t VALUES (1, 'one')",
    "INSERT INTO t VALUES (2, 'two')",
    "UPDATE t SET s = 'x' WHERE a = 1",
    "SELECT a, s FROM t",
    "SELECT COUNT(*) FROM t",
    "SELECT a + a, s FROM t WHERE a > 1",
    "SELEC nonsense",
    "SELECT ghost FROM nowhere",
];

/// Connect and perform the Hello/HelloOk handshake on a raw socket.
fn handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).ok();
    proto::write_frame(&mut s, &proto::hello("pipeline-prop")).unwrap();
    let f = proto::read_frame(&mut s).unwrap().expect("HelloOk");
    let (op, _) = proto::split(&f).unwrap();
    assert_eq!(op, Op::HelloOk);
    s
}

/// Read exactly one statement's reply off the socket, concatenating its
/// frames: a single `Ok`/`Affected`/`Error`, or `ResultHeader` +
/// pages + (`ResultDone` | mid-stream `Error`).
fn read_statement_reply(r: &mut TcpStream) -> Vec<u8> {
    let first = proto::read_frame(r).unwrap().expect("reply frame");
    let (op, _) = proto::split(&first).unwrap();
    let mut out = first;
    if op == Op::ResultHeader {
        loop {
            let f = proto::read_frame(r).unwrap().expect("result frame");
            let (op, _) = proto::split(&f).unwrap();
            out.extend_from_slice(&f);
            if matches!(op, Op::ResultDone | Op::Error) {
                break;
            }
        }
    }
    out
}

/// Run `sqls` against a fresh in-memory server — pipelined (every
/// request frame in one socket write, replies read afterwards) or one
/// frame at a time — returning each statement's raw reply bytes.
fn run(sqls: &[&str], pipelined: bool) -> Vec<Vec<u8>> {
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut s = handshake(handle.addr());
    let mut replies = Vec::with_capacity(sqls.len());
    if pipelined {
        let mut batch = Vec::new();
        for sql in sqls {
            proto::write_frame(&mut batch, &proto::query(false, (0, 0), sql)).unwrap();
        }
        s.write_all(&batch).unwrap();
        for _ in sqls {
            replies.push(read_statement_reply(&mut s));
        }
    } else {
        for sql in sqls {
            proto::write_frame(&mut s, &proto::query(false, (0, 0), sql)).unwrap();
            replies.push(read_statement_reply(&mut s));
        }
    }
    proto::write_frame(&mut s, &proto::bare(Op::Close)).unwrap();
    drop(s);
    handle.stop();
    replies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn pipelined_replies_byte_identical_and_in_order(
        picks in proptest::collection::vec(0usize..POOL.len(), 1..10)
    ) {
        // Both runs start from identical state (their own fresh engine,
        // the same leading CREATE), so reply bytes must agree exactly.
        let mut sqls = vec!["CREATE TABLE t (a INT, s VARCHAR)"];
        sqls.extend(picks.iter().map(|&i| POOL[i]));
        let piped = run(&sqls, true);
        let solo = run(&sqls, false);
        prop_assert_eq!(piped.len(), solo.len());
        for (i, (p, s)) in piped.iter().zip(&solo).enumerate() {
            prop_assert_eq!(p, s, "statement {} ({:?}) replies diverge", i, sqls[i]);
        }
    }
}
