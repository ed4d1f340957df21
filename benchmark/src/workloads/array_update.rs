//! `array-update`: the paper's write-side array operations, embedded.
//!
//! One client on a `mem:` connection. A round is the Fig-1 guarded
//! UPDATE over the 1M-cell `matrix`, one sparse UPDATE inside a single
//! tile, an in-place invert of the 1M-pixel `img`, and one Life
//! generation on a 256×256 board.

use super::{
    affect, board_cells, client_rng, guarded, guarded_update_sql, load_arrays, persist_twin,
    stored_ints, ArrayInputs, ARRAY_USER_BYTES, LIFE_N, N,
};
use crate::harness::{per_round_us, Client, Ctx, Layers, Workload};
use crate::layers::{self, Planner};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use sciql_repro::driver::{Conn, Sciql};
use sciql_repro::gdk::arith::{binop, cmpop, BinOp, CmpOp, Operand};
use sciql_repro::gdk::select::{rangeselect, thetaselect};
use sciql_repro::gdk::{project, Bat, Value};
use sciql_repro::imaging::{ops, GreyImage};
use sciql_repro::life::{Board, SciqlLife};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

const INVERT_SQL: &str = "INSERT INTO img SELECT [x], [y], 255 - v FROM img";

/// The sparse update of one round: `v + 1` on row `x`, columns `lo..=hi`.
#[derive(Clone, Copy)]
struct Sparse {
    x: i32,
    lo: i32,
    hi: i32,
}

impl Sparse {
    fn sql(self) -> String {
        format!(
            "UPDATE matrix SET v = v + 1 WHERE x = {} AND y BETWEEN {} AND {}",
            self.x, self.lo, self.hi
        )
    }
}

struct UpdateClient {
    conn: Conn,
    life: SciqlLife,
    rng: StdRng,
    round: u64,
    /// What the last round wrote, for the check and the probes.
    last: Option<(i32, Sparse)>,
    // Independent native twins of the three arrays.
    matrix: Vec<i32>,
    img: GreyImage,
    board: Board,
}

impl Client for UpdateClient {
    fn next_round(&self) -> u64 {
        self.round
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let k = self.round as i32 + 1;
        let lo = self.rng.gen_range(0..N as i32 - 64);
        let sparse = Sparse {
            x: self.rng.gen_range(0..N as i32),
            lo,
            hi: lo + self.rng.gen_range(1..64),
        };
        self.round += 1;
        self.last = Some((k, sparse));
        let cells = (N * N) as u64;
        rec.span("stmt.guarded_update", |_| {
            affect(&mut self.conn, &guarded_update_sql(k), cells)
        })?;
        rec.span("stmt.sparse_update", |_| {
            affect(
                &mut self.conn,
                &sparse.sql(),
                (sparse.hi - sparse.lo + 1) as u64,
            )
        })?;
        rec.span("stmt.invert", |_| affect(&mut self.conn, INVERT_SQL, cells))?;
        rec.span("stmt.life_step", |_| self.life.step())
            .map_err(|e| format!("life step: {e}"))
    }

    fn check(&mut self) -> Result<(), String> {
        let (k, sparse) = self.last.ok_or("check before any round")?;
        for x in 0..N {
            for y in 0..N {
                self.matrix[x * N + y] = guarded(x as i32, y as i32, k);
            }
        }
        for y in sparse.lo..=sparse.hi {
            self.matrix[sparse.x as usize * N + y as usize] += 1;
        }
        self.img = ops::invert(&self.img);
        self.board = self.board.step();

        let embedded = self.conn.embedded_connection().ok_or("not embedded")?;
        if stored_ints(embedded, "matrix")? != self.matrix.as_slice() {
            return Err("matrix differs from the native guarded + sparse update".into());
        }
        if stored_ints(embedded, "img")? != self.img.pixels.as_slice() {
            return Err("img differs from imaging::ops::invert".into());
        }
        if stored_ints(self.life.connection(), "life")? != board_cells(&self.board).as_slice() {
            return Err("life differs from life::Board::step".into());
        }
        Ok(())
    }
}

pub struct ArrayUpdate<'a> {
    client: UpdateClient,
    planner: Planner,
    inputs: &'a ArrayInputs,
}

impl<'a> ArrayUpdate<'a> {
    pub fn setup(ctx: &Ctx, inputs: &'a ArrayInputs) -> Result<ArrayUpdate<'a>, String> {
        let mut conn = Sciql::connect("mem:").map_err(|e| e.to_string())?;
        load_arrays(&mut conn, inputs)?;
        // SciqlLife owns its board and connection; the copy in `conn`
        // stays untouched and keeps the data equal to array-query's.
        let mut life = SciqlLife::new(LIFE_N, LIFE_N).map_err(|e| e.to_string())?;
        life.connection()
            .execute(&super::copy_sql("life", &inputs.board_copy))
            .map_err(|e| format!("load life: {e}"))?;
        let matrix = (0..N * N)
            .map(|i| guarded((i / N) as i32, (i % N) as i32, 0))
            .collect();
        Ok(ArrayUpdate {
            client: UpdateClient {
                conn,
                life,
                rng: client_rng(ctx.seed, 0),
                round: 0,
                last: None,
                matrix,
                img: inputs.img.clone(),
                board: inputs.board.clone(),
            },
            planner: Planner::new(),
            inputs,
        })
    }
}

/// The least kernel work the round's four statements imply, as direct
/// `gdk` calls on the stored columns themselves: the arithmetic and
/// comparisons of the guarded CASE, the select + project + add of the
/// sparse update, the subtraction of the invert, and eight additions
/// over the board for the 3×3 neighbour sum.
fn kernel_floor(
    x: &Bat,
    y: &Bat,
    v: &Bat,
    img: &Bat,
    life: &Bat,
    k: i32,
    sparse: Sparse,
) -> Result<(), String> {
    let e = |e: sciql_repro::gdk::GdkError| format!("kernel floor: {e}");
    let (cx, cy) = (Operand::Col(x), Operand::Col(y));
    let (k, one, white) = (Value::Int(k), Value::Int(1), Value::Int(255));
    let sum = binop(BinOp::Add, cx, cy).map_err(e)?;
    black_box(binop(BinOp::Add, Operand::Col(&sum), Operand::Scalar(&k)).map_err(e)?);
    black_box(binop(BinOp::Sub, cx, cy).map_err(e)?);
    black_box(cmpop(CmpOp::Gt, cx, cy).map_err(e)?);
    black_box(cmpop(CmpOp::Lt, cx, cy).map_err(e)?);

    let row = thetaselect(x, None, &Value::Int(sparse.x), CmpOp::Eq).map_err(e)?;
    let cells = rangeselect(
        y,
        Some(&row),
        &Value::Int(sparse.lo),
        &Value::Int(sparse.hi),
        true,
        true,
        false,
    )
    .map_err(e)?;
    let old = project::project(&cells, v).map_err(e)?;
    black_box(binop(BinOp::Add, Operand::Col(&old), Operand::Scalar(&one)).map_err(e)?);

    black_box(binop(BinOp::Sub, Operand::Scalar(&white), Operand::Col(img)).map_err(e)?);

    let mut acc = life.clone();
    for _ in 0..8 {
        acc = binop(BinOp::Add, Operand::Col(&acc), Operand::Col(life)).map_err(e)?;
    }
    black_box(acc);
    Ok(())
}

impl Workload for ArrayUpdate<'_> {
    fn clients(&mut self) -> Vec<&mut dyn Client> {
        vec![&mut self.client]
    }

    fn warmup_rounds(&self) -> u64 {
        3
    }

    fn persist(&mut self, dir: &Path) -> Result<u64, String> {
        persist_twin(dir, |twin| load_arrays(twin, self.inputs))?;
        Ok(ARRAY_USER_BYTES)
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let (k, sparse) = self.client.last.ok_or("probe before any round")?;
        let embedded = self
            .client
            .conn
            .embedded_connection()
            .ok_or("not embedded")?;
        for sql in [guarded_update_sql(k), sparse.sql(), INVERT_SQL.to_owned()] {
            self.planner.probe(embedded.catalog(), &sql, rec)?;
        }
        let store = |name: &str| embedded.array_store(name).map_err(|e| e.to_string());
        let matrix = store("matrix")?;
        let (x, y, v): (Arc<Bat>, Arc<Bat>, Arc<Bat>) = (
            Arc::clone(&matrix.dims[0]),
            Arc::clone(&matrix.dims[1]),
            Arc::clone(&matrix.attrs[0]),
        );
        let img = Arc::clone(&store("img")?.attrs[0]);
        let life = Arc::clone(&store("life")?.attrs[0]);
        rec.span(layers::KERNEL, |_| {
            kernel_floor(&x, &y, &v, &img, &life, k, sparse)
        })
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) -> Result<(), String> {
        layers::sum_probe_layers(rec, &self.planner.counts, out);
        // DML cannot be re-executed without changing state, so execution
        // is what the statements took beyond planning them.
        let stmts = per_round_us(rec, |n| n.starts_with("stmt."));
        let planning = layers::planning_us(out);
        let exec = stmts - planning;
        let kernel = out["gdk.kernel_us"];
        out.insert("core.exec_us", exec);
        out.insert("gdk.sql_over_kernel", exec / kernel);
        // Directly timed: planning and the kernel floor. The rest of the
        // round is inside core (CASE evaluation, dimension BATs,
        // copy-on-write, dirt tracking) and cannot be split from outside.
        layers::ledger(rec, planning + kernel, out);
        Ok(())
    }

    fn close(self: Box<Self>) {}
}
