//! `tcp-stream`: result streaming and round trips over loopback tcp.
//!
//! An in-memory `SharedEngine` behind an in-process `sciql_net::Server`,
//! one connection. `frames(fid, px, v)` holds 64 frames of 8192 pixels,
//! COPY-loaded in frame order so `fid` is clustered one frame per tile.
//! A round is four 64k-row selects, sixteen 4k-row selects, 16 prepared
//! scalar round trips (a frame's metadata from the 64-row `frame_meta`)
//! and one pipelined batch of 16 such scalars as text.
//!
//! The mix is bulk-heavy on purpose. A loopback round trip in this VM
//! costs 40–110 µs depending on where the host schedules the two vCPUs,
//! and that drifts over minutes; with the 82 trips per 15 ms round first
//! tried (one big select, 64 scalars) the end-to-end numbers moved by a
//! quarter between sessions. With encode, flush and decode of result
//! pages carrying the round they move by a few percent, and the cost of
//! a trip stays visible in `net.rtt_us` and `stmt.scalar_prepared`.

use super::{
    affect, client_rng, copy_sql, intensities, persist_twin, rows, run, same_rows, write_copy,
};
use crate::harness::{per_round_us, Client, Counters, Ctx, Layers, Workload};
use crate::layers::{self, Planner};
use crate::stats::median;
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use sciql_repro::driver::{Conn, Outcome, Sciql, Statement};
use sciql_repro::gdk::arith::CmpOp;
use sciql_repro::gdk::select::{rangeselect, thetaselect};
use sciql_repro::gdk::{project, zonemap, Bat, Value};
use sciql_repro::net::{Server, ServerHandle};
use sciql_repro::params;
use sciql_repro::sciql::{ResultSet, SharedEngine};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const FRAMES: usize = 64;
/// Pixels per frame: exactly one storage tile.
const FRAME_PX: usize = 8192;
const BIG_SELECTS: usize = 4;
const SMALL_SELECTS: usize = 16;
const SCALARS: usize = 16;
const BATCH: usize = 16;

/// The scalar round trips look a frame's metadata up in a 64-row table:
/// next to no engine work, so the trip itself is what is timed.
const GAIN_SQL: &str = "SELECT gain FROM frame_meta WHERE fid = ?";

fn big_sql(a: i32) -> String {
    format!(
        "SELECT fid, px, v FROM frames WHERE fid BETWEEN {a} AND {}",
        a + 7
    )
}

fn small_sql(f: i32) -> String {
    format!("SELECT fid, px, v FROM frames WHERE fid = {f} AND px < 4096")
}

fn gain_sql(f: i32) -> String {
    format!("SELECT gain FROM frame_meta WHERE fid = {f}")
}

/// The frame stream as a COPY file.
pub struct StreamInputs {
    copy: PathBuf,
}

impl StreamInputs {
    pub fn generate(ctx: &Ctx) -> Result<StreamInputs, String> {
        let n = FRAMES * FRAME_PX;
        let fid = (0..n).map(|i| (i / FRAME_PX) as i32).collect();
        let px = (0..n).map(|i| (i % FRAME_PX) as i32).collect();
        let v = intensities(&mut client_rng(ctx.seed, 0), n);
        let copy = ctx.tmp.join("frames.scpy");
        write_copy(
            &copy,
            &[Bat::from_ints(fid), Bat::from_ints(px), Bat::from_ints(v)],
        )?;
        Ok(StreamInputs { copy })
    }
}

fn load_frames(conn: &mut Conn, inputs: &StreamInputs) -> Result<(), String> {
    run(conn, "CREATE TABLE frames (fid INT, px INT, v INT)")?;
    affect(
        conn,
        &copy_sql("frames", &inputs.copy),
        (FRAMES * FRAME_PX) as u64,
    )?;
    run(conn, "CREATE TABLE frame_meta (fid INT, gain INT)")?;
    let meta: Vec<String> = (0..FRAMES)
        .map(|f| format!("({f}, {})", f * 3 + 1))
        .collect();
    let insert = format!("INSERT INTO frame_meta VALUES {}", meta.join(", "));
    affect(conn, &insert, FRAMES as u64)
}

/// User bytes `load_frames` stores: the INT values of both tables.
const USER_BYTES: u64 = (FRAMES * FRAME_PX * 3 * 4 + FRAMES * 2 * 4) as u64;

/// What one round asked for; enough to ask the twin the same.
struct Asked {
    big: Vec<i32>,
    small: Vec<i32>,
    scalars: Vec<i32>,
    batch: Vec<i32>,
}

impl Asked {
    fn draw(rng: &mut StdRng) -> Asked {
        let mut frames = |n: usize| (0..n).map(|_| rng.gen_range(0..FRAMES as i32)).collect();
        Asked {
            small: frames(SMALL_SELECTS),
            scalars: frames(SCALARS),
            batch: frames(BATCH),
            big: (0..BIG_SELECTS)
                .map(|_| rng.gen_range(0..FRAMES as i32 - 7))
                .collect(),
        }
    }
}

/// Run the round's statements on `conn`, which may be the tcp connection
/// or the embedded twin, and return every result in statement order.
fn ask(
    conn: &mut Conn,
    gain: &Statement,
    asked: &Asked,
    rec: &mut Recorder,
) -> Result<Vec<ResultSet>, String> {
    let mut out = Vec::with_capacity(BIG_SELECTS + SMALL_SELECTS + SCALARS + BATCH);
    for &a in &asked.big {
        out.push(rec.span("stmt.select_64k", |_| rows(conn, &big_sql(a)))?);
    }
    for &f in &asked.small {
        out.push(rec.span("stmt.select_4k", |_| rows(conn, &small_sql(f)))?);
    }
    for &f in &asked.scalars {
        out.push(rec.span("stmt.scalar_prepared", |_| {
            conn.query_bound(gain, params![f])
                .map(|r| r.into_result_set())
                .map_err(|e| format!("prepared scalar: {e}"))
        })?);
    }
    let texts: Vec<String> = asked.batch.iter().map(|&f| gain_sql(f)).collect();
    let batch: Vec<&str> = texts.iter().map(String::as_str).collect();
    let replies = rec
        .span("stmt.batch_16", |_| conn.run_batch(&batch))
        .map_err(|e| format!("pipelined batch: {e}"))?;
    for reply in replies {
        match reply.map_err(|e| format!("pipelined scalar: {e}"))? {
            Outcome::Rows(rs) => out.push(rs),
            Outcome::Affected(_) => return Err("pipelined scalar returned no rows".into()),
        }
    }
    Ok(out)
}

struct StreamClient {
    conn: Conn,
    gain: Statement,
    /// A session on the same engine without the wire: answers the tcp
    /// rows are compared with.
    twin: Conn,
    twin_gain: Statement,
    rng: StdRng,
    round: u64,
    last: Option<(Asked, Vec<ResultSet>)>,
}

impl Client for StreamClient {
    fn next_round(&self) -> u64 {
        self.round
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let asked = Asked::draw(&mut self.rng);
        self.round += 1;
        let got = ask(&mut self.conn, &self.gain, &asked, rec)?;
        self.last = Some((asked, got));
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let (asked, got) = self.last.as_ref().ok_or("check before any round")?;
        let want = ask(&mut self.twin, &self.twin_gain, asked, &mut Recorder::off())?;
        if let Some(rs) = got[..BIG_SELECTS]
            .iter()
            .find(|rs| rs.row_count() != 8 * FRAME_PX)
        {
            return Err(format!("64k select returned {} rows", rs.row_count()));
        }
        match got.iter().zip(&want).position(|(a, b)| !same_rows(a, b)) {
            None => Ok(()),
            Some(i) => Err(format!(
                "statement {i} of the round differs from the embedded twin"
            )),
        }
    }
}

pub struct TcpStream<'a> {
    client: StreamClient,
    server: ServerHandle,
    engine: Arc<SharedEngine>,
    inputs: &'a StreamInputs,
    planner: Planner,
    codec_bytes: u64,
    codec_rows: u64,
}

impl<'a> TcpStream<'a> {
    pub fn setup(ctx: &Ctx, inputs: &'a StreamInputs) -> Result<TcpStream<'a>, String> {
        let engine = SharedEngine::in_memory();
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
            .and_then(Server::serve)
            .map_err(|e| format!("serve: {e}"))?;
        let url = format!("tcp://{}", server.addr());
        // The accept loop polls every 20 ms, and that must not decide the
        // set-up time by luck. So: one connection, made before the load
        // (after it, the connect would round the whole set-up up to the
        // next poll and turn a millisecond of load noise into a 20 ms
        // step), and made once the accept thread is surely in its first
        // sleep (racing its start-up, the connect is picked up either at
        // once or 20 ms later).
        std::thread::sleep(Duration::from_millis(2));
        let mut conn = Sciql::connect(&url).map_err(|e| format!("{url}: {e}"))?;
        load_frames(&mut conn, inputs)?;
        let gain = conn.prepare(GAIN_SQL).map_err(|e| e.to_string())?;
        let mut twin = Sciql::attach(&engine);
        let twin_gain = twin.prepare(GAIN_SQL).map_err(|e| e.to_string())?;
        Ok(TcpStream {
            client: StreamClient {
                conn,
                gain,
                twin,
                twin_gain,
                rng: client_rng(ctx.seed, 1),
                round: 0,
                last: None,
            },
            server,
            engine,
            inputs,
            planner: Planner::new(),
            codec_bytes: 0,
            codec_rows: 0,
        })
    }
}

impl Workload for TcpStream<'_> {
    fn clients(&mut self) -> Vec<&mut dyn Client> {
        vec![&mut self.client]
    }

    fn warmup_rounds(&self) -> u64 {
        10
    }

    fn persist(&mut self, dir: &Path) -> Result<u64, String> {
        persist_twin(dir, |twin| load_frames(twin, self.inputs))?;
        Ok(USER_BYTES)
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let (asked, got) = self.client.last.as_ref().ok_or("probe before any round")?;
        // The same round without the wire.
        rec.span("twin.round", |_| {
            ask(
                &mut self.client.twin,
                &self.client.twin_gain,
                asked,
                &mut Recorder::off(),
            )
        })?;
        for rs in got {
            self.codec_bytes += layers::probe_result_codec(rs, rec)? as u64;
            self.codec_rows += rs.row_count() as u64;
        }
        // Back to back, so all but the first find the session thread awake
        // the way the round's own statements do. A ping leaves no trace
        // in the session.
        for _ in 0..8 {
            rec.span("net.ping", |_| self.client.conn.ping())
                .map_err(|e| format!("ping: {e}"))?;
        }

        let mut texts: Vec<String> = asked.big.iter().map(|&a| big_sql(a)).collect();
        texts.extend(asked.small.iter().map(|&f| small_sql(f)));
        texts.extend(asked.batch.iter().map(|&f| gain_sql(f)));
        let (fid, px, v, meta_fid, meta_gain) = {
            let guard = self.engine.connection();
            for sql in &texts {
                self.planner.probe(guard.catalog(), sql, rec)?;
            }
            let cols = |t: &str| {
                guard
                    .table_store(t)
                    .map(|s| &s.cols)
                    .map_err(|e| e.to_string())
            };
            let (frames, meta) = (cols("frames")?, cols("frame_meta")?);
            (
                Arc::clone(&frames[0]),
                Arc::clone(&frames[1]),
                Arc::clone(&frames[2]),
                Arc::clone(&meta[0]),
                Arc::clone(&meta[1]),
            )
        };
        // Kernel floor, zone maps consulted as the engine does: the range
        // select and three projections of each 64k-row statement, the
        // same for each 4k-row one, a point select + fetch per scalar.
        type Gdk = Result<(), sciql_repro::gdk::GdkError>;
        let one_frame = |f: i32| {
            let f = Value::Int(f);
            let tile = zonemap::restrict_theta(&fid, &f, CmpOp::Eq);
            (f, tile.map(|(cand, _)| cand))
        };
        rec.span(layers::KERNEL, |rec| -> Gdk {
            rec.span("gdk.kernel.select_64k", |_| -> Gdk {
                for &a in &asked.big {
                    let (lo, hi) = (Value::Int(a), Value::Int(a + 7));
                    let tiles = zonemap::restrict_range(&fid, &lo, &hi, true, true, false);
                    let tiles = tiles.as_ref().map(|(cand, _)| cand);
                    let cand = rangeselect(&fid, tiles, &lo, &hi, true, true, false)?;
                    for col in [&fid, &px, &v] {
                        black_box(project::project(&cand, col)?);
                    }
                }
                Ok(())
            })?;
            rec.span("gdk.kernel.select_4k", |_| -> Gdk {
                for &f in &asked.small {
                    let (f, tile) = one_frame(f);
                    let frame = thetaselect(&fid, tile.as_ref(), &f, CmpOp::Eq)?;
                    let cand = thetaselect(&px, Some(&frame), &Value::Int(4096), CmpOp::Lt)?;
                    for col in [&fid, &px, &v] {
                        black_box(project::project(&cand, col)?);
                    }
                }
                Ok(())
            })?;
            rec.span("gdk.kernel.scalars", |_| -> Gdk {
                for &f in asked.scalars.iter().chain(&asked.batch) {
                    let row = thetaselect(&meta_fid, None, &Value::Int(f), CmpOp::Eq)?;
                    black_box(project::project(&row, &meta_gain)?);
                }
                Ok(())
            })
        })
        .map_err(|e| format!("kernel floor: {e}"))
    }

    fn counters(&mut self) -> Result<Counters, String> {
        let m = sciql_repro::obs::global();
        Ok(Counters::from([
            ("net.bytes_in", m.bytes_in.get()),
            ("net.bytes_out", m.bytes_out.get()),
            ("core.tiles_skipped", m.tiles_skipped.get()),
        ]))
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) -> Result<(), String> {
        layers::sum_probe_layers(rec, &self.planner.counts, out);
        let round = per_round_us(rec, |n| n == "round");
        let twin = per_round_us(rec, |n| n == "twin.round");
        let (encode, decode) = (out["core.result.encode_us"], out["core.result.decode_us"]);
        let rtt: Vec<f64> = rec
            .durations("net.ping")
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        let rtt = median(&rtt);
        out.insert("core.exec_us", twin);
        out.insert(
            "core.result.bytes_per_row",
            self.codec_bytes as f64 / self.codec_rows as f64,
        );
        out.insert("net.rtt_us", rtt);
        out.insert("net.wire_us", round - twin - encode - decode);
        out.insert("net.tcp_over_embedded", round / twin);
        // Directly timed: the twin round (parse, plan and execute without
        // the wire), the result codec both ways, and one ping per round
        // trip as the wire's floor.
        let round_trips = (BIG_SELECTS + SMALL_SELECTS + SCALARS + 1) as f64;
        layers::ledger(rec, twin + encode + decode + rtt * round_trips, out);
        Ok(())
    }

    fn close(self: Box<Self>) {
        let TcpStream { client, server, .. } = *self;
        // The session first: the server waits for its handlers to end.
        drop(client);
        server.stop();
    }
}
