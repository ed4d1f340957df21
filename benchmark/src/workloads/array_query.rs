//! `array-query`: the read side of the same arrays, embedded.
//!
//! One client on a `mem:` connection holding the data `array-update`
//! writes. A round is a filtered count, a half-array projection, a group
//! sum, the Fig-1(e) tiling average, and then a burst of point
//! statements on a small array — half through a prepared handle (plan
//! cache hit), half as fresh text (parse + bind + optimise every time).

use super::{
    client_rng, create_square_array_sql, guarded, ints, load_arrays, persist_twin, rows, run,
    scalar, ArrayInputs, ARRAY_USER_BYTES, LIFE_N, N,
};
use crate::harness::{per_round_us, Client, Counters, Ctx, Layers, Workload};
use crate::layers::{self, Planner};
use crate::stats::median;
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use sciql_repro::driver::{Conn, Sciql, Statement};
use sciql_repro::gdk::aggregate::{grouped, AggFunc};
use sciql_repro::gdk::arith::{binop, BinOp, CmpOp, Operand};
use sciql_repro::gdk::group::group_by;
use sciql_repro::gdk::select::thetaselect;
use sciql_repro::gdk::{fused, project, Value};
use sciql_repro::params;
use sciql_repro::sciql::{ResultSet, SessionConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Side of the small `pts` array the point statements read.
const PTS_N: usize = 32;
/// Point statements per round, half prepared and half fresh text.
const POINTS: usize = 8192;

const GROUP_SUM_SQL: &str = "SELECT x, SUM(v) FROM matrix GROUP BY x";
const TILING_SQL: &str = "SELECT [x], [y], AVG(v) FROM life GROUP BY life[x:x+2][y:y+2]";
const POINT_SQL: &str = "SELECT v FROM pts WHERE x = ? AND y = ?";

fn count_sql(t: i32) -> String {
    format!("SELECT COUNT(v) FROM matrix WHERE v > {t}")
}

fn half_sql(x0: i32) -> String {
    format!("SELECT v FROM matrix WHERE x > {x0}")
}

fn point_sql(x: i32, y: i32) -> String {
    format!("SELECT v FROM pts WHERE x = {x} AND y = {y}")
}

/// The constants one round drew and the answers it got back.
struct Round {
    t: i32,
    x0: i32,
    points: Vec<(i32, i32)>,
    count: i64,
    half: ResultSet,
    sums: ResultSet,
    tiles: ResultSet,
    point_values: Vec<i64>,
}

struct QueryClient {
    conn: Conn,
    point: Statement,
    rng: StdRng,
    round: u64,
    last: Option<Round>,
    /// Native copies of the stored data the answers are checked against.
    matrix: Vec<i32>,
    life: Vec<i32>,
}

impl Client for QueryClient {
    fn next_round(&self) -> u64 {
        self.round
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let t = self.rng.gen_range(64..192);
        let x0 = self.rng.gen_range(448..576);
        let points: Vec<(i32, i32)> = (0..POINTS)
            .map(|_| {
                (
                    self.rng.gen_range(0..PTS_N as i32),
                    self.rng.gen_range(0..PTS_N as i32),
                )
            })
            .collect();
        self.round += 1;
        let conn = &mut self.conn;
        let count = rec.span("stmt.count", |_| scalar(&rows(conn, &count_sql(t))?))?;
        let half = rec.span("stmt.half_scan", |_| rows(conn, &half_sql(x0)))?;
        let sums = rec.span("stmt.group_sum", |_| rows(conn, GROUP_SUM_SQL))?;
        let tiles = rec.span("stmt.tiling", |_| rows(conn, TILING_SQL))?;
        let mut point_values = Vec::with_capacity(POINTS);
        for (i, &(x, y)) in points.iter().enumerate() {
            let rs = if i % 2 == 0 {
                rec.span("stmt.point_prepared", |_| {
                    conn.query_bound(&self.point, params![x, y])
                        .map(|r| r.into_result_set())
                        .map_err(|e| format!("prepared point: {e}"))
                })?
            } else {
                rec.span("stmt.point_text", |_| rows(conn, &point_sql(x, y)))?
            };
            point_values.push(scalar(&rs)?);
        }
        self.last = Some(Round {
            t,
            x0,
            points,
            count,
            half,
            sums,
            tiles,
            point_values,
        });
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let r = self.last.as_ref().ok_or("check before any round")?;
        let want = self.matrix.iter().filter(|&&v| v > r.t).count() as i64;
        if r.count != want {
            return Err(format!(
                "COUNT(v > {}) = {}, native says {want}",
                r.t, r.count
            ));
        }
        let tail = &self.matrix[(r.x0 as usize + 1) * N..];
        if ints(&r.half, 0)? != tail {
            return Err(format!(
                "SELECT v WHERE x > {} differs from the native slice",
                r.x0
            ));
        }
        if r.sums.row_count() != N {
            return Err(format!("group sum has {} rows", r.sums.row_count()));
        }
        for i in 0..N {
            let x = r
                .sums
                .get(i, 0)
                .as_i64()
                .ok_or("group key is not a number")? as usize;
            let want: i64 = self.matrix[x * N..(x + 1) * N]
                .iter()
                .map(|&v| v as i64)
                .sum();
            if r.sums.get(i, 1).as_i64() != Some(want) {
                return Err(format!(
                    "SUM(v) of x = {x} is {:?}, native says {want}",
                    r.sums.get(i, 1)
                ));
            }
        }
        if r.tiles.row_count() != LIFE_N * LIFE_N {
            return Err(format!("tiling has {} rows", r.tiles.row_count()));
        }
        let (tx, ty) = (ints(&r.tiles, 0)?, ints(&r.tiles, 1)?);
        let avg = r.tiles.bats[2].as_dbls().ok_or("tile AVG is not DOUBLE")?;
        for i in 0..tx.len() {
            let (x, y) = (tx[i] as usize, ty[i] as usize);
            let (mut sum, mut n) = (0i64, 0i64);
            for cx in x..(x + 2).min(LIFE_N) {
                for cy in y..(y + 2).min(LIFE_N) {
                    sum += self.life[cx * LIFE_N + cy] as i64;
                    n += 1;
                }
            }
            if (avg[i] - sum as f64 / n as f64).abs() > 1e-9 {
                return Err(format!(
                    "tile AVG at ({x},{y}) is {}, native says {sum}/{n}",
                    avg[i]
                ));
            }
        }
        for (&(x, y), &v) in r.points.iter().zip(&r.point_values) {
            if v != (x * PTS_N as i32 + y) as i64 {
                return Err(format!("pts[{x}][{y}] read {v}"));
            }
        }
        Ok(())
    }
}

pub struct ArrayQuery<'a> {
    client: QueryClient,
    planner: Planner,
    inputs: &'a ArrayInputs,
    /// Prepared twins of the four scans, for the execution probe.
    scans: [Statement; 4],
    exec_counts: Counters,
}

impl<'a> ArrayQuery<'a> {
    pub fn setup(ctx: &Ctx, inputs: &'a ArrayInputs) -> Result<ArrayQuery<'a>, String> {
        let mut conn = Sciql::connect("mem:").map_err(|e| e.to_string())?;
        load_arrays(&mut conn, inputs)?;
        run(&mut conn, &create_square_array_sql("pts", PTS_N))?;
        run(&mut conn, &format!("UPDATE pts SET v = x * {PTS_N} + y"))?;
        let mut prepare = |sql: &str| conn.prepare(sql).map_err(|e| super::stmt_err(sql, e));
        let point = prepare(POINT_SQL)?;
        let scans = [
            prepare("SELECT COUNT(v) FROM matrix WHERE v > ?")?,
            prepare("SELECT v FROM matrix WHERE x > ?")?,
            prepare(GROUP_SUM_SQL)?,
            prepare(TILING_SQL)?,
        ];
        let matrix = (0..N * N)
            .map(|i| guarded((i / N) as i32, (i % N) as i32, 0))
            .collect();
        Ok(ArrayQuery {
            client: QueryClient {
                conn,
                point,
                rng: client_rng(ctx.seed, 0),
                round: 0,
                last: None,
                matrix,
                life: super::board_cells(&inputs.board),
            },
            planner: Planner::new(),
            inputs,
            scans,
            exec_counts: Counters::new(),
        })
    }

    /// Re-execute the round's statements through prepared handles —
    /// `Connection::execute_prepared` skips parse, bind and optimise —
    /// and add up what `last_exec()` reports for each.
    fn probe_exec(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let r = self.client.last.as_ref().ok_or("probe before any round")?;
        let conn = &mut self.client.conn;
        let scan_params: [Vec<Value>; 4] = [
            vec![Value::Int(r.t)],
            vec![Value::Int(r.x0)],
            vec![],
            vec![],
        ];
        let mut exec = |stmt: &Statement, p: &[Value], rec: &mut Recorder| -> Result<(), String> {
            rec.span(layers::EXEC, |_| conn.query_bound(stmt, p).map(black_box))
                .map_err(|e| format!("exec probe {:?}: {e}", stmt.sql()))?;
            let report = conn.last_report().map_err(|e| e.to_string())?;
            for (name, n) in [
                ("core.tuples_produced", report.tuples_produced),
                ("core.tiles_skipped", report.tiles_skipped),
                ("core.intermediates_avoided", report.intermediates_avoided),
                ("core.plan_cache_hits", report.plan_cache_hits),
            ] {
                *self.exec_counts.entry(name).or_insert(0) += n;
            }
            Ok(())
        };
        for (stmt, p) in self.scans.iter().zip(&scan_params) {
            exec(stmt, p, rec)?;
        }
        // The prepared half of the points already ran exactly this call
        // inside the round; replay the text half.
        for &(x, y) in r.points.iter().skip(1).step_by(2) {
            exec(&self.client.point, params![x, y], rec)?;
        }
        Ok(())
    }

    /// The least kernel work the four scans imply, as direct `gdk` calls
    /// on the stored columns.
    fn probe_kernels(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let r = self.client.last.as_ref().ok_or("probe before any round")?;
        let embedded = self
            .client
            .conn
            .embedded_connection()
            .ok_or("not embedded")?;
        let matrix = embedded.array_store("matrix").map_err(|e| e.to_string())?;
        let (x, v) = (Arc::clone(&matrix.dims[0]), Arc::clone(&matrix.attrs[0]));
        let life = Arc::clone(
            &embedded
                .array_store("life")
                .map_err(|e| e.to_string())?
                .attrs[0],
        );
        let (t, x0) = (Value::Int(r.t), Value::Int(r.x0));
        rec.span(
            layers::KERNEL,
            |_| -> Result<(), sciql_repro::gdk::GdkError> {
                black_box(fused::theta_select_aggregate(
                    AggFunc::Count,
                    &v,
                    &v,
                    None,
                    &t,
                    CmpOp::Gt,
                )?);
                let upper = thetaselect(&x, None, &x0, CmpOp::Gt)?;
                black_box(project::project(&upper, &v)?);
                let groups = group_by(&x, None, None)?;
                black_box(grouped(AggFunc::Sum, &v, &groups)?);
                let mut acc = (*life).clone();
                for _ in 0..3 {
                    acc = binop(BinOp::Add, Operand::Col(&acc), Operand::Col(&life))?;
                }
                black_box(acc);
                Ok(())
            },
        )
        .map_err(|e| format!("kernel floor: {e}"))
    }

    /// The filtered count at the default thread count against the same
    /// statement with `SessionConfig::serial()`.
    fn par_ratio(&mut self) -> Result<f64, String> {
        let r = self.client.last.as_ref().ok_or("probe before any round")?;
        let sql = count_sql(r.t);
        let embedded = self
            .client
            .conn
            .embedded_connection()
            .ok_or("not embedded")?;
        let mut time = |cfg: SessionConfig| -> Result<f64, String> {
            embedded.set_session_config(cfg);
            let mut secs = Vec::with_capacity(9);
            for _ in 0..9 {
                let t0 = Instant::now();
                black_box(embedded.query(&sql).map_err(|e| e.to_string())?);
                secs.push(t0.elapsed().as_secs_f64());
            }
            Ok(median(&secs))
        };
        let serial = time(SessionConfig::serial())?;
        let parallel = time(SessionConfig::default())?;
        Ok(parallel / serial)
    }
}

impl Workload for ArrayQuery<'_> {
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
        let r = self.client.last.as_ref().ok_or("probe before any round")?;
        let mut texts = vec![
            count_sql(r.t),
            half_sql(r.x0),
            GROUP_SUM_SQL.to_owned(),
            TILING_SQL.to_owned(),
        ];
        texts.extend(
            r.points
                .iter()
                .skip(1)
                .step_by(2)
                .map(|&(x, y)| point_sql(x, y)),
        );
        let embedded = self
            .client
            .conn
            .embedded_connection()
            .ok_or("not embedded")?;
        for sql in &texts {
            self.planner.probe(embedded.catalog(), sql, rec)?;
        }
        // Driver overhead: the fresh-text points again, straight on the
        // embedded connection instead of through `Conn::run`.
        for sql in &texts[4..] {
            rec.span("core.connection_execute", |_| {
                embedded.execute(sql).map(black_box)
            })
            .map_err(|e| e.to_string())?;
        }
        self.probe_exec(rec)?;
        self.probe_kernels(rec)
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) -> Result<(), String> {
        layers::sum_probe_layers(rec, &self.planner.counts, out);
        for (name, n) in &self.exec_counts {
            out.insert(name, *n as f64);
        }
        let exec = per_round_us(rec, |n| n == layers::EXEC);
        let through_driver = per_round_us(rec, |n| n == "stmt.point_text");
        let direct = per_round_us(rec, |n| n == "core.connection_execute");
        let overhead = (through_driver - direct) / (POINTS / 2) as f64;
        out.insert("core.exec_us", exec);
        out.insert("driver.overhead_us", overhead);
        out.insert("gdk.sql_over_kernel", exec / out["gdk.kernel_us"]);
        out.insert("gdk.par_ratio", self.par_ratio()?);
        // Directly timed: planning of every fresh text, execution of
        // every statement (prepared re-execution), the driver hop. The
        // prepared half of the points ran as `stmt.point_prepared`, which
        // is that same execution call, so it counts as timed too.
        let prepared = per_round_us(rec, |n| n == "stmt.point_prepared");
        let attributed =
            layers::planning_us(out) + exec + prepared + overhead * (POINTS / 2) as f64;
        layers::ledger(rec, attributed, out);
        Ok(())
    }

    fn close(self: Box<Self>) {}
}
