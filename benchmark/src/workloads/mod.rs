//! The four workloads. Each module generates its inputs from the seed,
//! sets the database up through the same surface a user has (driver
//! URLs, SQL, COPY files), and checks every answer against native code.

pub mod array_query;
pub mod array_update;
pub mod durable_write;
pub mod tcp_stream;

use crate::harness::{Ctx, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sciql_repro::driver::{Conn, Outcome, Sciql, SciqlError};
use sciql_repro::gdk::Bat;
use sciql_repro::imaging::{synth, GreyImage};
use sciql_repro::life::Board;
use sciql_repro::sciql::ResultSet;
use std::path::{Path, PathBuf};

/// Side of the square `matrix` and `img` arrays (1M cells each).
pub const N: usize = 1024;
/// Side of the square `life` board.
pub const LIFE_N: usize = 256;

/// Seed-derived inputs of one workload, generated once per run and
/// shared by its repeated set-ups. The engine only ever sees the SQL
/// and COPY files made from them.
pub enum Inputs {
    Arrays(ArrayInputs),
    Stream(tcp_stream::StreamInputs),
    Durable(durable_write::DurableInputs),
}

impl Inputs {
    pub fn generate(workload: &str, ctx: &Ctx) -> Result<Inputs, String> {
        match workload {
            "array-update" | "array-query" => ArrayInputs::generate(ctx).map(Inputs::Arrays),
            "tcp-stream" => tcp_stream::StreamInputs::generate(ctx).map(Inputs::Stream),
            "durable-write" => durable_write::DurableInputs::generate(ctx).map(Inputs::Durable),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

/// Build a fresh database for `workload` and hand back its clients.
pub fn setup<'a>(
    workload: &str,
    ctx: &Ctx,
    inputs: &'a Inputs,
) -> Result<Box<dyn Workload + 'a>, String> {
    match (workload, inputs) {
        ("array-update", Inputs::Arrays(i)) => {
            Ok(Box::new(array_update::ArrayUpdate::setup(ctx, i)?))
        }
        ("array-query", Inputs::Arrays(i)) => Ok(Box::new(array_query::ArrayQuery::setup(ctx, i)?)),
        ("tcp-stream", Inputs::Stream(i)) => Ok(Box::new(tcp_stream::TcpStream::setup(ctx, i)?)),
        ("durable-write", Inputs::Durable(i)) => {
            Ok(Box::new(durable_write::DurableWrite::setup(ctx, i)?))
        }
        (other, _) => Err(format!(
            "workload {other:?} given another workload's inputs"
        )),
    }
}

/// Inputs of the two `array-*` workloads: a synthetic terrain image and
/// a random Life board, the latter also as a COPY file.
pub struct ArrayInputs {
    pub img: GreyImage,
    pub board: Board,
    pub board_copy: PathBuf,
}

impl ArrayInputs {
    fn generate(ctx: &Ctx) -> Result<ArrayInputs, String> {
        let img = synth::terrain(N, N, ctx.seed);
        let mut board = Board::new(LIFE_N, LIFE_N);
        board.randomise(&mut StdRng::seed_from_u64(ctx.seed), 0.3);
        let board_copy = ctx.tmp.join("life.scpy");
        write_copy(&board_copy, &[Bat::from_ints(board_cells(&board))])?;
        Ok(ArrayInputs {
            img,
            board,
            board_copy,
        })
    }
}

/// The board as the `life` array stores it: one 0/1 INT per cell,
/// x-major.
pub fn board_cells(board: &Board) -> Vec<i32> {
    board
        .iter_cells()
        .map(|(_, _, alive)| alive as i32)
        .collect()
}

/// The Fig-1(b) guarded value of cell `(x, y)` with the round's `k`
/// added on the upper branch.
pub fn guarded(x: i32, y: i32, k: i32) -> i32 {
    match x.cmp(&y) {
        std::cmp::Ordering::Greater => x + y + k,
        std::cmp::Ordering::Less => x - y,
        std::cmp::Ordering::Equal => 0,
    }
}

/// The Fig-1(b) guarded UPDATE text for round constant `k`.
pub fn guarded_update_sql(k: i32) -> String {
    format!(
        "UPDATE matrix SET v = CASE WHEN x > y THEN x + y + {k} \
         WHEN x < y THEN x - y ELSE 0 END"
    )
}

pub fn create_square_array_sql(name: &str, n: usize) -> String {
    format!(
        "CREATE ARRAY {name} (x INT DIMENSION[0:1:{n}], y INT DIMENSION[0:1:{n}], v INT DEFAULT 0)"
    )
}

pub fn copy_sql(target: &str, path: &Path) -> String {
    format!("COPY {target} FROM '{}' (FORMAT binary)", path.display())
}

/// Load the data the two `array-*` workloads share into `conn` (a `mem:`
/// connection, or the `file:` twin whose image gives recovery time and
/// space): `matrix` with the Fig-1(b) contents, `img` through the
/// imaging data vault, `life` by COPY.
pub fn load_arrays(conn: &mut Conn, inputs: &ArrayInputs) -> Result<(), String> {
    run(conn, &create_square_array_sql("matrix", N))?;
    run(conn, &guarded_update_sql(0))?;
    let embedded = conn
        .embedded_connection()
        .ok_or("array workloads need an embedded connection")?;
    sciql_repro::imaging::vault::load_image(embedded, "img", &inputs.img)
        .map_err(|e| format!("load img: {e}"))?;
    run(conn, &create_square_array_sql("life", LIFE_N))?;
    run(conn, &copy_sql("life", &inputs.board_copy))?;
    Ok(())
}

/// Persist an in-memory workload's database: load the same data into a
/// `file:` connection on `dir` and close it (which checkpoints).
pub fn persist_twin(
    dir: &Path,
    load: impl FnOnce(&mut Conn) -> Result<(), String>,
) -> Result<(), String> {
    let url = format!("file:{}", dir.display());
    let mut twin = Sciql::connect(&url).map_err(|e| format!("{url}: {e}"))?;
    load(&mut twin)?;
    twin.close().map_err(|e| format!("close {url}: {e}"))
}

/// User bytes the shared array data holds: one INT per cell.
pub const ARRAY_USER_BYTES: u64 = 4 * (2 * N * N + LIFE_N * LIFE_N) as u64;

pub fn write_copy(path: &Path, cols: &[Bat]) -> Result<(), String> {
    sciql_repro::sciql::write_copy_binary(path, cols)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Run a statement, naming it in the error.
pub fn run(conn: &mut Conn, sql: &str) -> Result<Outcome, String> {
    conn.run(sql).map_err(|e| stmt_err(sql, e))
}

/// Run a statement that must return rows.
pub fn rows(conn: &mut Conn, sql: &str) -> Result<ResultSet, String> {
    match run(conn, sql)? {
        Outcome::Rows(rs) => Ok(rs),
        Outcome::Affected(n) => Err(format!("{sql:?} affected {n} instead of returning rows")),
    }
}

/// Run DML that must affect exactly `want` cells or rows.
pub fn affect(conn: &mut Conn, sql: &str, want: u64) -> Result<(), String> {
    match run(conn, sql)? {
        Outcome::Affected(n) if n == want => Ok(()),
        Outcome::Affected(n) => Err(format!("{sql:?} affected {n}, expected {want}")),
        Outcome::Rows(_) => Err(format!("{sql:?} returned rows")),
    }
}

pub fn stmt_err(sql: &str, e: SciqlError) -> String {
    let head: String = sql.chars().take(80).collect();
    format!("{head:?}: {e}")
}

/// The INT column `col` of a result as a slice.
pub fn ints(rs: &ResultSet, col: usize) -> Result<&[i32], String> {
    rs.bats
        .get(col)
        .and_then(|b| b.as_ints())
        .ok_or_else(|| format!("result column {col} is not INT"))
}

/// A one-row, one-column result's value as `i64`.
pub fn scalar(rs: &ResultSet) -> Result<i64, String> {
    if rs.row_count() != 1 {
        return Err(format!("expected one row, got {}", rs.row_count()));
    }
    rs.get(0, 0)
        .as_i64()
        .ok_or_else(|| format!("scalar is {:?}", rs.get(0, 0)))
}

/// Do two results hold the same columns and rows?
pub fn same_rows(a: &ResultSet, b: &ResultSet) -> bool {
    a.columns == b.columns
        && a.bats.len() == b.bats.len()
        && a.bats.iter().zip(&b.bats).all(|(x, y)| **x == **y)
}

/// The attribute column `v` of stored array `name`, read straight from
/// the embedded connection's store.
pub fn stored_ints<'a>(
    conn: &'a sciql_repro::sciql::Connection,
    name: &str,
) -> Result<&'a [i32], String> {
    conn.array_store(name)
        .map_err(|e| e.to_string())?
        .attrs
        .first()
        .and_then(|b| b.as_ints())
        .ok_or_else(|| format!("array {name} has no INT attribute"))
}

/// A deterministic per-client generator.
pub fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client as u64)
}

/// `n` pseudo-random intensities in `0..256`.
pub fn intensities(rng: &mut StdRng, n: usize) -> Vec<i32> {
    (0..n).map(|_| rng.gen_range(0..256)).collect()
}
