//! Byte-mutation fuzzing of the decoders that read untrusted bytes: the
//! result header and page decoders a client runs on whatever its socket
//! delivers, the request and reply frame decoders of both ends of the
//! wire, the tile decoder a vault runs on whatever its disk holds, and
//! the WAL record decoder a replica runs on whatever its primary ships.
//! Truncation at every offset, a flipped byte at every offset,
//! hostile counts, dictionary indices past the heap and unknown column
//! tags must each come back as `Err` (a flip may also land on another
//! well-formed input) — never as a panic — and no decoder may allocate
//! more than its input could justify before `Reader::take` has proven
//! the bytes exist.

use gdk::codec::{crc32, decode_bat, encode_bat};
use gdk::strheap::StrHeap;
use gdk::types::{dbl_nil, INT_NIL, LNG_NIL, OID_NIL};
use gdk::Candidates;
use gdk::{Bat, ColumnData, ScalarType, Value};
use sciql::result::{ColumnMeta, ResultSet, ResultSetBuilder};
use sciql::{Connection, ErrorCode};
use sciql_net::proto::{self, ExecReport, Op, ReplSnapshotFrame, Trailer};
use sciql_store::{decode_replay_op, encode_replay_op, ReplayOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The system allocator, recording the largest single request the
/// current thread makes.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// Run one decode of `input`: it must not panic, and no allocation may
/// exceed what `input.len()` bytes can stand for (a generous multiple
/// covers dictionary hash tables and vector growth; a count taken on
/// trust would ask for gigabytes). Returns whether it succeeded.
fn probe<T, E>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> Result<T, E>) -> bool {
    LARGEST.with(|m| m.set(0));
    let ok = catch_unwind(AssertUnwindSafe(|| decode(input).is_ok()))
        .unwrap_or_else(|_| panic!("{what}: decoder panicked on {input:02x?}"));
    let largest = LARGEST.with(Cell::get);
    let bound = 64 * input.len() + (64 << 10);
    assert!(
        largest <= bound,
        "{what}: allocated {largest} bytes for a {}-byte input",
        input.len()
    );
    ok
}

/// Every prefix shorter than the input fails; every single-byte flip is
/// survived.
fn mutate(what: &str, input: &[u8], decode: impl Fn(&[u8]) -> bool) {
    mutate_with(what, input, true, decode);
}

/// Every prefix and every single-byte flip is survived; with `strict`,
/// every prefix shorter than the input must also fail (a format whose
/// last field runs to the end of its input cannot promise that).
fn mutate_with(what: &str, input: &[u8], strict: bool, decode: impl Fn(&[u8]) -> bool) {
    for cut in 0..input.len() {
        let prefix = &input[..cut];
        let ok = probe(what, prefix, |b| decode(b).then_some(()).ok_or(()));
        assert!(
            !(strict && ok),
            "{what}: accepted a truncation at byte {cut}"
        );
    }
    for at in 0..input.len() {
        for flip in [0xFF, 0x01, 0x80] {
            let mut bytes = input.to_vec();
            bytes[at] ^= flip;
            probe(what, &bytes, |b| decode(b).then_some(()).ok_or(()));
        }
    }
}

fn meta(name: &str, ty: ScalarType) -> ColumnMeta {
    ColumnMeta {
        name: name.into(),
        ty,
        dimensional: false,
    }
}

/// One column of every type, with nils, a NaN payload, duplicate and
/// empty strings and a void column.
fn every_type() -> ResultSet {
    let n = 7;
    let strs = ["dup", "", "dup", "x", "", "dup", "wide"];
    ResultSet {
        columns: vec![
            meta("b", ScalarType::Bit),
            meta("i", ScalarType::Int),
            meta("l", ScalarType::Lng),
            meta("d", ScalarType::Dbl),
            meta("o", ScalarType::OidT),
            meta("s", ScalarType::Str),
            meta("v", ScalarType::OidT),
        ],
        bats: vec![
            Bat::from_bits((0..n).map(|i| (i % 3 != 0).then_some(i % 2 == 0)).collect()),
            Bat::from_ints(
                (0..n as i32)
                    .map(|i| if i == 2 { INT_NIL } else { i - 3 })
                    .collect(),
            ),
            Bat::from_lngs(
                (0..n as i64)
                    .map(|i| if i == 4 { LNG_NIL } else { i << 40 })
                    .collect(),
            ),
            Bat::from_dbls(
                (0..n)
                    .map(|i| match i {
                        1 => dbl_nil(),
                        5 => f64::from_bits(0x7ff8_0000_0000_0042),
                        _ => i as f64 / 4.0,
                    })
                    .collect(),
            ),
            Bat::from_oids(
                (0..n as u64)
                    .map(|i| if i == 3 { OID_NIL } else { i * 9 })
                    .collect(),
            ),
            Bat::from_strs(
                strs.iter()
                    .enumerate()
                    .map(|(i, s)| (i != 3).then_some(*s))
                    .collect(),
            ),
            Bat::dense(100, n),
        ]
        .into_iter()
        .map(Arc::new)
        .collect(),
    }
}

fn push(header: &[u8], page: &[u8]) -> bool {
    let mut b = ResultSetBuilder::from_header(header).expect("well-formed header");
    b.push_page(page).is_ok()
}

#[test]
fn result_headers_survive_mutation() {
    let header = every_type().encode_header();
    assert!(ResultSetBuilder::from_header(&header).is_ok());
    mutate("from_header", &header, |b| {
        ResultSetBuilder::from_header(b).is_ok()
    });
    // A column count far beyond the bytes that follow it.
    let mut hostile = u16::MAX.to_le_bytes().to_vec();
    hostile.extend_from_slice(&header[2..]);
    assert!(!probe(
        "from_header",
        &hostile,
        ResultSetBuilder::from_header
    ));
}

#[test]
fn result_pages_survive_mutation() {
    let rs = every_type();
    let header = rs.encode_header();
    let pages = rs.encode_pages(3);
    assert_eq!(pages.len(), 3);
    for page in &pages {
        assert!(push(&header, page));
        mutate("push_page", page, |b| push(&header, b));
    }
}

/// Hand-built pages for a one-column header of type `ty`.
fn page_for(ty: ScalarType, page: &[u8]) -> bool {
    let rs = ResultSet {
        columns: vec![meta("c", ty)],
        bats: vec![Arc::new(Bat::new(ty))],
    };
    probe("push_page", page, |p| {
        ResultSetBuilder::from_header(&rs.encode_header())
            .unwrap()
            .push_page(p)
    })
}

fn cat(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

#[test]
fn hostile_row_counts_are_refused() {
    let max32 = u32::MAX.to_le_bytes();
    let max64 = u64::MAX.to_le_bytes();
    // u32::MAX rows in a 9-byte page.
    assert!(!page_for(ScalarType::Int, &cat(&[&max32, &[2], &max32])));
    // The column agrees with the page, but its cells are not there.
    let n = (u32::MAX as u64).to_le_bytes();
    for (ty, tag) in [
        (ScalarType::Bit, 1),
        (ScalarType::Int, 2),
        (ScalarType::Lng, 3),
        (ScalarType::Dbl, 4),
        (ScalarType::OidT, 5),
        (ScalarType::Str, 6),
    ] {
        assert!(!page_for(ty, &cat(&[&max32, &[tag], &n])), "{ty}");
        assert!(!page_for(ty, &cat(&[&max32, &[tag], &max64])), "{ty}");
    }
    // A void column may claim any length — but it must match the page,
    // fit its sequence, and be the header's type.
    let void = |seq: u64, len: u64| cat(&[&max32, &[0], &seq.to_le_bytes(), &len.to_le_bytes()]);
    assert!(page_for(ScalarType::OidT, &void(7, u32::MAX as u64)));
    assert!(!page_for(
        ScalarType::OidT,
        &void(u64::MAX - 3, u32::MAX as u64)
    ));
    assert!(!page_for(ScalarType::OidT, &void(7, 5)));
    assert!(!page_for(ScalarType::Int, &void(7, u32::MAX as u64)));
    // A header with no columns cannot turn a row count into memory.
    let none = ResultSet {
        columns: vec![],
        bats: vec![],
    };
    let mut b = ResultSetBuilder::from_header(&none.encode_header()).unwrap();
    assert!(probe("push_page", &max32, |p| b.push_page(p)));
}

#[test]
fn string_indices_beyond_the_page_heap_are_refused() {
    let rows = 2u32.to_le_bytes();
    let count = 2u64.to_le_bytes();
    let heap = cat(&[&1u64.to_le_bytes(), &1u32.to_le_bytes(), b"a"]);
    let idx = |i: u32| cat(&[&0u32.to_le_bytes(), &i.to_le_bytes()]);
    let page = |i: u32| cat(&[&rows, &[6], &count, &idx(i), &heap]);
    assert!(
        page_for(ScalarType::Str, &page(u32::MAX)),
        "nil is no index"
    );
    for bad in [1, 2, u32::MAX - 1] {
        assert!(!page_for(ScalarType::Str, &page(bad)), "index {bad}");
    }
}

#[test]
fn unknown_column_tags_are_refused() {
    let rs = every_type();
    let header = rs.encode_header();
    let page = rs.encode_page(0, 2);
    // The first column body starts right after the row count.
    for tag in 7..=u8::MAX {
        let mut bad = page.clone();
        bad[4] = tag;
        assert!(!probe("push_page", &bad, |p| {
            ResultSetBuilder::from_header(&header).unwrap().push_page(p)
        }));
    }
    let mut tile = encode_bat(&Bat::from_ints(vec![1, 2]));
    tile[14] = 7;
    restamp(&mut tile);
    assert!(!probe("decode_bat", &tile, decode_bat));
}

/// Recompute a tile's trailing checksum after editing its content.
fn restamp(tile: &mut [u8]) {
    let n = tile.len();
    let crc = crc32(&tile[..n - 4]);
    tile[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn tiles_survive_mutation() {
    let rs = every_type();
    let mut tiles: Vec<Bat> = rs.bats.iter().map(|b| (**b).clone()).collect();
    let mut heap = StrHeap::new();
    let (a, _) = (heap.intern("a"), heap.intern("unreferenced"));
    tiles.push(Bat::from_data(ColumnData::Str {
        idx: vec![a, a],
        heap,
    }));
    for tile in &tiles {
        let bytes = encode_bat(tile);
        assert!(decode_bat(&bytes).is_ok());
        // The checksum catches every flip; with the checksum re-stamped
        // the structural decoder itself must hold.
        mutate("decode_bat", &bytes, |b| decode_bat(b).is_ok());
        for at in 0..bytes.len() - 4 {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xFF;
            restamp(&mut flipped);
            probe("decode_bat", &flipped, decode_bat);
        }
    }
    // Hostile counts behind a valid checksum.
    for (tag, count) in [(2u8, u64::MAX), (3, 1 << 61), (6, u32::MAX as u64)] {
        let mut tile = cat(&[b"SBAT", &1u16.to_le_bytes(), &0u64.to_le_bytes(), &[tag]]);
        tile.extend_from_slice(&count.to_le_bytes());
        tile.extend_from_slice(&[0; 4]);
        restamp(&mut tile);
        assert!(!probe("decode_bat", &tile, decode_bat), "tag {tag}");
    }
}

/// The request and reply frames of protocol v8, cut and flipped at every
/// offset: each decoder answers `Err` or `Ok`, never panics, and stays
/// within the allocation bound.
#[test]
fn wire_frames_survive_mutation() {
    let trailer = Trailer {
        report: ExecReport {
            instructions: 9,
            plan_cache_hits: 1,
            tuples_produced: 1 << 40,
            ..ExecReport::default()
        },
        trace: Some("trace: SELECT 1\n  parse 1.0µs".into()),
    };
    let values = [
        Value::Null,
        Value::Int(-3),
        Value::Str("it's".into()),
        Value::Dbl(f64::NAN),
    ];
    type Decode = fn(&[u8]) -> bool;
    // (decoder, frame, decode the body, does every cut fail?) — a
    // record or chunk runs to the end of its frame, so a cut there can
    // leave another well-formed frame.
    let cases: Vec<(&str, Vec<u8>, Decode, bool)> = vec![
        (
            "read_query",
            proto::query(true, (3, 9), "SELECT 1"),
            |b| proto::read_query(b).is_ok(),
            true,
        ),
        (
            "read_exec_bound",
            proto::exec_bound(true, "q", &values),
            |b| proto::read_exec_bound(b).is_ok(),
            true,
        ),
        (
            "read_affected",
            proto::affected(2, (1, 64), &trailer),
            |b| proto::read_affected(b).is_ok(),
            true,
        ),
        (
            "read_error",
            proto::error(ErrorCode::Exec, "boom", &trailer),
            |b| proto::read_error(b).is_ok(),
            true,
        ),
        (
            "read_result_done",
            proto::result_done(5, 1, &trailer),
            |b| proto::read_result_done(b).is_ok(),
            true,
        ),
        (
            "read_stmt_ok",
            proto::stmt_ok(3),
            |b| proto::read_stmt_ok(b).is_ok(),
            true,
        ),
        (
            "read_repl_position",
            proto::repl_position(Op::ReplAck, (2, 80)),
            |b| proto::read_repl_position(b).is_ok(),
            true,
        ),
        (
            "read_repl_record",
            proto::repl_record(4, 200, None),
            |b| proto::read_repl_record(b).is_ok(),
            false,
        ),
        (
            "read_repl_record",
            proto::repl_record(4, 200, Some((180, b"payload"))),
            |b| proto::read_repl_record(b).is_ok(),
            false,
        ),
    ];
    let snapshots = [
        ReplSnapshotFrame::Begin {
            generation: 2,
            durable: 4096,
            files: 3,
        },
        ReplSnapshotFrame::File {
            name: "cols/c7.col".into(),
            size: 12,
        },
        ReplSnapshotFrame::Chunk(vec![1, 2, 3]),
        ReplSnapshotFrame::End,
    ];
    let snapshot_cases = snapshots.iter().map(|f| {
        let decode: Decode = |b| proto::read_repl_snapshot(b).is_ok();
        ("read_repl_snapshot", proto::repl_snapshot(f), decode, false)
    });
    for (what, frame, decode, strict) in cases.into_iter().chain(snapshot_cases) {
        let body = &frame[1..];
        assert!(decode(body), "{what}: the well-formed body");
        mutate_with(what, body, strict, decode);
        mutate_with("split", &frame, false, |p| proto::split(p).is_ok());
    }
    let mut bytes = Vec::new();
    proto::put_trailer(&mut bytes, &trailer);
    mutate("read_trailer", &bytes, |b| proto::read_trailer(b).is_ok());
}

/// `ExecBound` claiming 65 535 values with none present: the count must
/// not reserve room for values whose bytes never arrived.
#[test]
fn exec_bound_claiming_65535_values_with_none_present() {
    let mut body = vec![0];
    gdk::codec::put_str(&mut body, "q");
    body.extend_from_slice(&u16::MAX.to_le_bytes());
    assert!(!probe("read_exec_bound", &body, proto::read_exec_bound));
}

/// A replica's WAL apply (decode, append, apply) over `record`: it must
/// not panic, and the decode must stay within the allocation bound.
/// Returns the apply's error, if the record decoded and was refused.
fn apply_record(conn: &mut Connection, what: &str, record: &[u8]) -> Option<String> {
    let wal = std::path::Path::new("wal-0.log");
    if !probe(what, record, |b| decode_replay_op(b, wal, 0)) {
        return None;
    }
    let applied = catch_unwind(AssertUnwindSafe(|| {
        conn.apply_replicated(&[record.to_vec()])
    }));
    let applied = applied.unwrap_or_else(|_| panic!("{what}: apply panicked on {record:02x?}"));
    applied.err().map(|e| e.to_string())
}

/// WAL records — a schema statement, a write and a delete — cut at every
/// offset and flipped at every bit. Each decodes to a typed error, or to a
/// record the engine applies or refuses with a typed error; and the
/// engine refuses every way a well-formed record can misfit its target.
#[test]
fn wal_records_survive_mutation() {
    let dir = std::env::temp_dir().join(format!("sciql-walfuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut conn = Connection::open(&dir).unwrap();
    conn.execute_script(
        "CREATE ARRAY g (x INT DIMENSION[0:1:4], v INT DEFAULT 0, s TEXT); \
         CREATE TABLE t (a INT, b DOUBLE);",
    )
    .unwrap();
    for k in 0..400 {
        conn.execute(&format!("INSERT INTO t VALUES ({k}, 0.5)"))
            .unwrap();
    }
    let ints = |v: Vec<i32>| Arc::new(Bat::from_ints(v));
    let write = |target: &str, at: Candidates, columns| ReplayOp::Write {
        target: target.into(),
        at,
        columns,
    };
    let records = [
        ReplayOp::Sql("CREATE TABLE u (a INT)".into()),
        write(
            "g",
            Candidates::List(vec![0, 2]),
            vec![
                (0, ints(vec![7, 8])),
                (1, Arc::new(Bat::from_strs(vec![Some("a"), None]))),
            ],
        ),
        ReplayOp::Delete {
            target: "t".into(),
            at: Candidates::Dense { first: 3, len: 1 },
        },
    ];
    for op in &records {
        let bytes = encode_replay_op(op);
        assert_eq!(
            apply_record(&mut conn, "well-formed", &bytes),
            None,
            "{op:?}"
        );
        for cut in 0..bytes.len() {
            apply_record(&mut conn, "truncated", &bytes[..cut]);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            apply_record(&mut conn, "flipped", &flipped);
        }
    }
    // Every misfit of a well-formed record is refused, naming the fault.
    let g = |at: Vec<u64>, columns| write("g", Candidates::List(at), columns);
    let refusals = [
        (
            write("nosuch", Candidates::all(1), vec![]),
            "no stored array or table",
        ),
        (
            g(vec![1, 4], vec![(0, ints(vec![1, 2]))]),
            "position 4 is past its 4 rows",
        ),
        (g(vec![0], vec![(5, ints(vec![1]))]), "no stored column 5"),
        (
            g(vec![0, 1], vec![(0, ints(vec![1, 2, 3]))]),
            "3 int values for 2 positions",
        ),
        (
            g(vec![0], vec![(0, Arc::new(Bat::from_dbls(vec![1.5])))]),
            "1 dbl values for 1 positions of column \"v\" (int)",
        ),
        (
            ReplayOp::Delete {
                target: "t".into(),
                at: Candidates::List(vec![5, 10_000]),
            },
            "position 10000 is past",
        ),
    ];
    for (op, fault) in refusals {
        let err = apply_record(&mut conn, "misfit", &encode_replay_op(&op));
        assert!(
            err.as_ref().is_some_and(|e| e.contains(fault)),
            "{op:?}: {err:?}"
        );
    }
    // Positions that do not strictly increase never decode.
    let unordered = encode_replay_op(&g(vec![2, 1], vec![(0, ints(vec![1, 2]))]));
    let wal = std::path::Path::new("wal-0.log");
    let err = decode_replay_op(&unordered, wal, 0)
        .unwrap_err()
        .to_string();
    assert!(err.contains("strictly increasing"), "{err}");
    drop(conn);
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `COPY t FROM <source>` over `bytes`: it must return `Ok` or a
/// typed error, never panic, and a COPY that fails — every source here
/// is a single batch — leaves `t` as it was. A table a COPY changed is
/// reset to its one seed row.
fn copy_source(conn: &mut Connection, source: &std::path::Path, format: &str, bytes: &[u8]) {
    let pages = |conn: &mut Connection| {
        let rs = conn.query("SELECT a, s FROM t").unwrap();
        let mut out = rs.encode_header();
        out.extend(rs.encode_pages(64).into_iter().flatten());
        out
    };
    std::fs::write(source, bytes).unwrap();
    let before = pages(conn);
    let copy = format!("COPY t FROM '{}' (FORMAT {format})", source.display());
    let done = catch_unwind(AssertUnwindSafe(|| conn.execute(&copy)))
        .unwrap_or_else(|_| panic!("COPY ({format}) panicked on {bytes:02x?}"));
    if done.is_ok() {
        conn.execute_script(
            "DROP TABLE t; CREATE TABLE t (a INT, s TEXT); INSERT INTO t VALUES (0, 'seed');",
        )
        .unwrap();
    } else {
        assert_eq!(pages(conn), before, "a failed COPY changed t: {bytes:02x?}");
    }
}

/// COPY sources are untrusted files: a two-column SCPY file and a quoted
/// CSV file, cut at every offset, and the SCPY file flipped at every bit
/// of its header and first column body.
#[test]
fn copy_sources_survive_mutation() {
    let dir = std::env::temp_dir().join(format!("sciql-copyfuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut conn = Connection::new();
    conn.execute_script("CREATE TABLE t (a INT, s TEXT); INSERT INTO t VALUES (0, 'seed');")
        .unwrap();
    let scpy = dir.join("rows.scpy");
    let cols = [
        Bat::from_ints(vec![1, -2, INT_NIL, 40_000]),
        Bat::from_strs(vec![Some("a"), None, Some("say \"hi\""), Some("x,y")]),
    ];
    sciql::write_copy_binary(&scpy, &cols).unwrap();
    let binary = std::fs::read(&scpy).unwrap();
    let csv = b"1,a\n-2,\n,\"say \"\"hi\"\"\"\n40000,\"x,y\"\n".to_vec();
    for (format, bytes) in [("binary", &binary), ("csv", &csv)] {
        for cut in 0..=bytes.len() {
            copy_source(&mut conn, &scpy, format, &bytes[..cut]);
        }
    }
    // Magic, version and column count, the first column's length and
    // its body.
    let first_column = 14 + u32::from_le_bytes(binary[10..14].try_into().unwrap()) as usize;
    for bit in 0..first_column * 8 {
        let mut flipped = binary.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        copy_source(&mut conn, &scpy, "binary", &flipped);
    }
    std::fs::remove_dir_all(&dir).ok();
}
