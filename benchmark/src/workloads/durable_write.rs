//! `durable-write`: the observatory frame stream against a durable,
//! replicated server.
//!
//! A `file:` vault served over tcp with group commit on, one
//! `sciql_repl::Replica` attached and itself served for reads. Two
//! clients, each with its own `frames_<c>` table and 256×256 `scene_<c>`
//! array. A round is one 8192-row binary COPY (one tile), 32 prepared
//! single-cell UPDATEs, one 64×64 windowed read, and a read-back of the
//! last written cell through the routed `tcp://primary,replica` URL,
//! which waits on the monotonic-read token. Client 0 checkpoints every
//! 32 rounds.

use super::{
    affect, client_rng, copy_sql, create_square_array_sql, intensities, ints, rows, run, scalar,
    write_copy,
};
use crate::harness::{copy_vault, Client, Counters, Ctx, Layers, Workload};
use crate::layers::{self, Planner};
use crate::stats::median;
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use sciql_repro::driver::{Conn, Sciql, Statement};
use sciql_repro::gdk::arith::CmpOp;
use sciql_repro::gdk::select::{rangeselect, thetaselect};
use sciql_repro::gdk::{project, Bat, Value};
use sciql_repro::imaging::synth;
use sciql_repro::net::proto::token_satisfied;
use sciql_repro::net::{Client as NetClient, Server, ServerHandle};
use sciql_repro::params;
use sciql_repro::repl::Replica;
use sciql_repro::sciql::{Connection, ResultSet, SharedEngine};
use sciql_repro::store::Vault;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const SCENE_N: usize = 256;
const WINDOW: usize = 64;
/// Rows per frame: exactly one storage tile.
const FRAME_PX: usize = 8192;
const UPDATES: usize = 32;
const CHECKPOINT_EVERY: u64 = 32;
/// User bytes one round writes: the frame's three INT columns and the
/// updated cells.
const ROUND_USER_BYTES: u64 = (FRAME_PX * 3 * 4 + UPDATES * 4) as u64;

fn update_sql(c: usize) -> String {
    format!("UPDATE scene_{c} SET v = ? WHERE x = ? AND y = ?")
}

fn window_sql(c: usize, x0: usize, y0: usize) -> String {
    format!(
        "SELECT [x], [y], v FROM scene_{c}[{x0}:{}][{y0}:{}]",
        x0 + WINDOW,
        y0 + WINDOW
    )
}

fn readback_sql(c: usize, x: i32, y: i32) -> String {
    format!("SELECT v FROM scene_{c} WHERE x = {x} AND y = {y}")
}

/// Each client's initial scene, as pixels and as a COPY file.
pub struct DurableInputs {
    scenes: Vec<(Vec<i32>, PathBuf)>,
}

impl DurableInputs {
    pub fn generate(ctx: &Ctx) -> Result<DurableInputs, String> {
        let scenes = (0..CLIENTS)
            .map(|c| {
                let img = synth::terrain(SCENE_N, SCENE_N, ctx.seed + c as u64);
                let path = ctx.tmp.join(format!("scene_{c}.scpy"));
                write_copy(&path, &[Bat::from_ints(img.pixels.clone())])?;
                Ok((img.pixels, path))
            })
            .collect::<Result<_, String>>()?;
        Ok(DurableInputs { scenes })
    }
}

/// What the last round wrote and read.
struct LastRound {
    cells: Vec<(i32, i32, i32)>,
    window: (usize, usize, ResultSet),
    read_back: i64,
}

struct WriteClient {
    id: usize,
    /// COPY and the windowed read go straight to the primary.
    primary: Conn,
    /// Cell UPDATEs and the read-back share the routed connection, so the
    /// read carries the token of the writes it follows.
    routed: Conn,
    update: Statement,
    engine: Arc<SharedEngine>,
    rng: StdRng,
    round: u64,
    /// COPY file of the frame the next round ingests.
    frame: PathBuf,
    last: Option<LastRound>,
    // Native record of everything acknowledged so far.
    scene: Vec<i32>,
    frame_rows: u64,
    frame_sum: i64,
    next_frame_sum: i64,
}

impl WriteClient {
    /// Write the COPY file of the next round's frame (between rounds,
    /// outside the timed call).
    fn stage_frame(&mut self) -> Result<(), String> {
        let v = intensities(&mut self.rng, FRAME_PX);
        self.next_frame_sum = v.iter().map(|&p| p as i64).sum();
        write_copy(
            &self.frame,
            &[
                Bat::from_ints(vec![self.round as i32; FRAME_PX]),
                Bat::from_ints((0..FRAME_PX as i32).collect()),
                Bat::from_ints(v),
            ],
        )
    }
}

impl Client for WriteClient {
    fn next_round(&self) -> u64 {
        self.round
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let c = self.id;
        let round = self.round;
        self.round += 1;
        let cells: Vec<(i32, i32, i32)> = (0..UPDATES)
            .map(|_| {
                (
                    self.rng.gen_range(0..SCENE_N as i32),
                    self.rng.gen_range(0..SCENE_N as i32),
                    self.rng.gen_range(0..256),
                )
            })
            .collect();
        let x0 = self.rng.gen_range(0..SCENE_N - WINDOW);
        let y0 = self.rng.gen_range(0..SCENE_N - WINDOW);

        rec.span("stmt.copy_frame", |_| {
            affect(
                &mut self.primary,
                &copy_sql(&format!("frames_{c}"), &self.frame),
                FRAME_PX as u64,
            )
        })?;
        for &(x, y, v) in &cells {
            rec.span("stmt.cell_update", |_| {
                match self.routed.execute_bound(&self.update, params![v, x, y]) {
                    Ok(1) => Ok(()),
                    Ok(n) => Err(format!("cell update affected {n} cells")),
                    Err(e) => Err(format!("cell update: {e}")),
                }
            })?;
        }
        let window = rec.span("stmt.window_read", |_| {
            rows(&mut self.primary, &window_sql(c, x0, y0))
        })?;
        let (x, y, _) = cells[UPDATES - 1];
        let read_back = rec.span("stmt.read_back", |_| {
            scalar(&rows(&mut self.routed, &readback_sql(c, x, y))?)
        })?;
        if c == 0 && round % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            rec.span("stmt.checkpoint", |_| self.engine.checkpoint())
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        self.last = Some(LastRound {
            cells,
            window: (x0, y0, window),
            read_back,
        });
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("check before any round")?;
        self.frame_rows += FRAME_PX as u64;
        self.frame_sum += self.next_frame_sum;
        for &(x, y, v) in &last.cells {
            self.scene[x as usize * SCENE_N + y as usize] = v;
        }
        let (x0, y0, window) = &last.window;
        if window.row_count() != WINDOW * WINDOW {
            return Err(format!("window read returned {} rows", window.row_count()));
        }
        let (wx, wy, wv) = (ints(window, 0)?, ints(window, 1)?, ints(window, 2)?);
        for i in 0..wv.len() {
            let (x, y) = (wx[i] as usize, wy[i] as usize);
            let inside = (*x0..x0 + WINDOW).contains(&x) && (*y0..y0 + WINDOW).contains(&y);
            if !inside || wv[i] != self.scene[x * SCENE_N + y] {
                return Err(format!("window cell ({x},{y}) read {}", wv[i]));
            }
        }
        let (x, y, v) = last.cells[UPDATES - 1];
        if last.read_back != v as i64 {
            return Err(format!(
                "read-back of ({x},{y}) through the replica saw {}, wrote {v}",
                last.read_back
            ));
        }
        self.stage_frame()
    }
}

pub struct DurableWrite {
    clients: Vec<WriteClient>,
    engine: Arc<SharedEngine>,
    primary_server: ServerHandle,
    replica: Replica,
    replica_server: ServerHandle,
    primary_dir: PathBuf,
    tmp: PathBuf,
    planner: Planner,
    /// A vault of the harness's own for timing WAL appends and fsyncs.
    scratch: Vault,
    /// A plain protocol client for the ack → applied lag probe.
    lag_client: NetClient,
    lag_seq: u64,
    codec_bytes: u64,
    codec_rows: u64,
    /// Group-commit counters at the end of set-up; the two-client
    /// warm-up is measured against them.
    commit_base: (u64, u64, u64),
    commit_warm: Option<(f64, f64)>,
}

fn commit_counters() -> (u64, u64, u64) {
    let m = sciql_repro::obs::global();
    let batch = m.group_commit_batch.snapshot();
    (batch.sum_ns, batch.count, m.wal_fsyncs_saved.get())
}

impl DurableWrite {
    pub fn setup(ctx: &Ctx, inputs: &DurableInputs) -> Result<DurableWrite, String> {
        let primary_dir = ctx.fresh_dir("primary")?;
        let replica_dir = ctx.fresh_dir("replica")?;
        let engine = SharedEngine::open(&primary_dir).map_err(|e| format!("open vault: {e}"))?;
        let primary_server = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
            .and_then(Server::serve)
            .map_err(|e| format!("serve primary: {e}"))?;
        let primary_addr = primary_server.addr().to_string();
        let replica = Replica::connect(&replica_dir, &primary_addr)
            .map_err(|e| format!("attach replica: {e}"))?;
        let replica_server = Server::bind(Arc::clone(replica.engine()), "127.0.0.1:0")
            .and_then(Server::serve)
            .map_err(|e| format!("serve replica: {e}"))?;
        let primary_url = format!("tcp://{primary_addr}");
        let routed_url = format!("{primary_url},{}", replica_server.addr());

        // Every connection before any load: each connect waits out an
        // accept loop's 20 ms poll, and back to back those waits are the
        // same every time instead of depending on where a load ended.
        let mut conns = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let primary = Sciql::connect(&primary_url).map_err(|e| e.to_string())?;
            let routed = Sciql::connect(&routed_url).map_err(|e| e.to_string())?;
            conns.push((primary, routed));
        }
        let mut lag_client =
            NetClient::connect(primary_server.addr()).map_err(|e| format!("lag client: {e}"))?;

        let mut clients = Vec::with_capacity(CLIENTS);
        for ((c, (pixels, scene_copy)), (mut primary, mut routed)) in
            inputs.scenes.iter().enumerate().zip(conns)
        {
            run(
                &mut primary,
                &format!("CREATE TABLE frames_{c} (fid INT, px INT, v INT)"),
            )?;
            run(
                &mut primary,
                &create_square_array_sql(&format!("scene_{c}"), SCENE_N),
            )?;
            affect(
                &mut primary,
                &copy_sql(&format!("scene_{c}"), scene_copy),
                (SCENE_N * SCENE_N) as u64,
            )?;
            let update = routed.prepare(&update_sql(c)).map_err(|e| e.to_string())?;
            let mut client = WriteClient {
                id: c,
                primary,
                routed,
                update,
                engine: Arc::clone(&engine),
                rng: client_rng(ctx.seed, c),
                round: 0,
                frame: ctx.tmp.join(format!("frame_{c}.scpy")),
                last: None,
                scene: pixels.clone(),
                frame_rows: 0,
                frame_sum: 0,
                next_frame_sum: 0,
            };
            client.stage_frame()?;
            clients.push(client);
        }
        lag_client
            .execute("CREATE TABLE lag_probe (n INT)")
            .map_err(|e| format!("lag table: {e}"))?;
        let (scratch, _) = Vault::open(ctx.fresh_dir("scratch-vault")?)
            .map_err(|e| format!("scratch vault: {e}"))?;
        let w = DurableWrite {
            clients,
            engine,
            primary_server,
            replica,
            replica_server,
            primary_dir,
            tmp: ctx.tmp.clone(),
            planner: Planner::new(),
            scratch,
            lag_client,
            lag_seq: 0,
            codec_bytes: 0,
            codec_rows: 0,
            commit_base: commit_counters(),
            commit_warm: None,
        };
        // Checkpoint the bulk-loaded scenes, as a deployment would: the
        // vault starts the rounds with a snapshot and an empty WAL.
        w.engine
            .checkpoint()
            .map_err(|e| format!("checkpoint after load: {e}"))?;
        w.wait_caught_up()?;
        Ok(w)
    }

    /// Block until the replica has applied everything the primary
    /// acknowledged.
    fn wait_caught_up(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let durable = self.engine.durable_position();
            if self.replica.applied() == durable {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "replica stuck at {:?}, primary durable at {durable:?}",
                    self.replica.applied()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn user_bytes(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| (SCENE_N * SCENE_N * 4) as u64 + c.round * ROUND_USER_BYTES)
            .sum()
    }
}

impl Workload for DurableWrite {
    fn clients(&mut self) -> Vec<&mut dyn Client> {
        self.clients
            .iter_mut()
            .map(|c| c as &mut dyn Client)
            .collect()
    }

    fn warmup_rounds(&self) -> u64 {
        // Short of client 0's first checkpoint: the persisted image is
        // then the set-up's snapshot plus a WAL tail of exactly these
        // rounds, however the two clients interleave.
        8
    }

    fn persist(&mut self, dir: &Path) -> Result<u64, String> {
        self.wait_caught_up()?;
        copy_vault(&self.primary_dir, dir).map_err(|e| format!("copy vault: {e}"))?;
        Ok(self.user_bytes())
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let c = &self.clients[0];
        let last = c.last.as_ref().ok_or("probe before any round")?;
        let (x0, y0, window) = &last.window;
        let (x, y, _) = last.cells[UPDATES - 1];
        let update_texts: Vec<String> = last
            .cells
            .iter()
            .map(|&(x, y, v)| format!("UPDATE scene_0 SET v = {v} WHERE x = {x} AND y = {y}"))
            .collect();

        // Store: what the WAL pays per acknowledged cell update — one
        // append and, with a single writer, one fsync.
        let handle = self.scratch.wal_sync_handle().map_err(|e| e.to_string())?;
        for sql in &update_texts {
            rec.span("store.wal_append", |_| {
                self.scratch.append_statement_nosync(sql)
            })
            .map_err(|e| format!("wal append probe: {e}"))?;
            rec.span("store.fsync", |_| handle.sync())
                .map_err(|e| format!("fsync probe: {e}"))?;
        }

        // Planning and kernels of the round's statements.
        let mut texts = update_texts;
        texts.push(window_sql(0, *x0, *y0));
        texts.push(readback_sql(0, x, y));
        let (sx, sy, sv) = {
            let guard = self.engine.connection();
            for sql in &texts {
                self.planner.probe(guard.catalog(), sql, rec)?;
            }
            let scene = guard.array_store("scene_0").map_err(|e| e.to_string())?;
            (
                Arc::clone(&scene.dims[0]),
                Arc::clone(&scene.dims[1]),
                Arc::clone(&scene.attrs[0]),
            )
        };
        let cells = last.cells.clone();
        let (x0, y0) = (*x0 as i32, *y0 as i32);
        rec.span(
            layers::KERNEL,
            |_| -> Result<(), sciql_repro::gdk::GdkError> {
                let int = Value::Int;
                let xs = rangeselect(
                    &sx,
                    None,
                    &int(x0),
                    &int(x0 + WINDOW as i32),
                    true,
                    false,
                    false,
                )?;
                let win = rangeselect(
                    &sy,
                    Some(&xs),
                    &int(y0),
                    &int(y0 + WINDOW as i32),
                    true,
                    false,
                    false,
                )?;
                for col in [&sx, &sy, &sv] {
                    black_box(project::project(&win, col)?);
                }
                // One point select per cell update, one more for the read-back.
                for &(x, y, _) in cells.iter().chain(cells.last()) {
                    let row = thetaselect(&sx, None, &int(x), CmpOp::Eq)?;
                    black_box(thetaselect(&sy, Some(&row), &int(y), CmpOp::Eq)?);
                }
                Ok(())
            },
        )
        .map_err(|e| format!("kernel floor: {e}"))?;

        self.codec_bytes += layers::probe_result_codec(window, rec)? as u64;
        self.codec_rows += window.row_count() as u64;

        // Replication: from the primary's acknowledgement of a write to
        // the replica having applied it.
        self.lag_seq += 1;
        self.lag_client
            .execute(&format!("INSERT INTO lag_probe VALUES ({})", self.lag_seq))
            .map_err(|e| format!("lag probe insert: {e}"))?;
        let token = self.lag_client.last_token();
        rec.span("repl.apply_lag", |_| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !token_satisfied(self.replica.applied(), token) {
                if Instant::now() >= deadline {
                    return Err("replica never applied the lag probe".to_owned());
                }
                std::hint::spin_loop();
            }
            Ok(())
        })?;
        rec.span("net.ping", |_| self.lag_client.ping())
            .map_err(|e| format!("ping: {e}"))
    }

    fn counters(&mut self) -> Result<Counters, String> {
        if self.commit_warm.is_none() {
            let (sum0, count0, saved0) = self.commit_base;
            let (sum, count, saved) = commit_counters();
            let batches = count.saturating_sub(count0).max(1) as f64;
            self.commit_warm = Some((
                sum.saturating_sub(sum0) as f64 / batches,
                saved.saturating_sub(saved0) as f64,
            ));
        }
        self.wait_caught_up()?;
        let m = sciql_repro::obs::global();
        let wal_bytes = self
            .engine
            .connection()
            .vault_stats()
            .map_or(0, |s| s.wal_bytes);
        Ok(Counters::from([
            ("store.wal_appends", m.wal_appends.get()),
            ("store.wal_fsyncs", m.wal_fsyncs.get()),
            ("store.tiles_rewritten", m.tiles_rewritten.get()),
            ("store.tiles_reused", m.tiles_reused.get()),
            ("repl.records_shipped", m.repl_records_shipped.get()),
            ("net.bytes_in", m.bytes_in.get()),
            ("net.bytes_out", m.bytes_out.get()),
            // WAL bytes for now; `layers` divides by the user bytes.
            ("store.wal_bytes_per_user_byte", wal_bytes),
        ]))
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) -> Result<(), String> {
        layers::sum_probe_layers(rec, &self.planner.counts, out);
        let per_call_us = |name: &str| {
            let us: Vec<f64> = rec
                .durations(name)
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect();
            median(&us)
        };
        let (append, fsync) = (per_call_us("store.wal_append"), per_call_us("store.fsync"));
        let (rtt, lag) = (per_call_us("net.ping"), per_call_us("repl.apply_lag"));
        out.insert("store.wal_append_us", append);
        out.insert("store.fsync_us", fsync);
        out.insert("net.rtt_us", rtt);
        out.insert("repl.apply_lag_ms", lag / 1e3);
        out.insert(
            "core.result.bytes_per_row",
            self.codec_bytes as f64 / self.codec_rows as f64,
        );
        let rounds = rec.durations("round").len() as u64;
        if let Some(wal) = out.get_mut("store.wal_bytes_per_user_byte") {
            *wal /= (rounds * ROUND_USER_BYTES) as f64;
        }
        let (batch_mean, saved) = self.commit_warm.unwrap_or((0.0, 0.0));
        out.insert("core.commit.batch_mean", batch_mean);
        out.insert("core.commit.fsyncs_saved", saved);

        // Store entry points on the live vault: a cold `Vault::open` of a
        // copy (snapshot load + WAL scan), then a checkpoint.
        self.wait_caught_up()?;
        let copy = self.tmp.join("open-probe");
        std::fs::remove_dir_all(&copy).ok();
        copy_vault(&self.primary_dir, &copy).map_err(|e| format!("copy vault: {e}"))?;
        let t0 = Instant::now();
        let opened = Vault::open(&copy).map_err(|e| format!("open probe: {e}"))?;
        out.insert("store.open_ms", t0.elapsed().as_secs_f64() * 1e3);
        drop(opened);
        let t0 = Instant::now();
        self.engine
            .checkpoint()
            .map_err(|e| format!("checkpoint probe: {e}"))?;
        out.insert("store.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3);

        // Directly timed per round: WAL append + fsync per cell update,
        // planning and kernels, the window's codec, one ping per round
        // trip, and the replica's apply lag the read-back waits out.
        let round_trips = (1 + UPDATES + 2) as f64;
        let attributed = UPDATES as f64 * (append + fsync)
            + layers::planning_us(out)
            + out["gdk.kernel_us"]
            + out["core.result.encode_us"]
            + out["core.result.decode_us"]
            + rtt * round_trips
            + lag;
        layers::ledger(rec, attributed, out);
        Ok(())
    }

    /// Durability: keep only the bytes flushed by now, reopen, and find
    /// every acknowledged frame and cell; then compare the replica's
    /// vault with the primary's.
    fn final_check(&mut self) -> Result<(), String> {
        self.wait_caught_up()?;
        let (gen, durable) = self.engine.durable_position();
        let copy = self.tmp.join("durability");
        std::fs::remove_dir_all(&copy).ok();
        copy_vault(&self.primary_dir, &copy).map_err(|e| format!("copy vault: {e}"))?;
        // Killing a process leaves the page cache intact, so the check
        // itself discards what was never fsynced.
        let wal = sciql_repro::store::wal_file_path(&copy, gen);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .map_err(|e| format!("open {}: {e}", wal.display()))?;
        let on_disk = file.metadata().map_err(|e| e.to_string())?.len();
        file.set_len(on_disk.min(durable))
            .map_err(|e| format!("truncate WAL copy: {e}"))?;
        drop(file);

        let mut reopened = Connection::open(&copy).map_err(|e| format!("reopen: {e}"))?;
        for c in &self.clients {
            let id = c.id;
            let mut one = |sql: String| -> Result<i64, String> {
                scalar(&reopened.query(&sql).map_err(|e| format!("{sql}: {e}"))?)
            };
            let rows = one(format!("SELECT COUNT(*) FROM frames_{id}"))?;
            if rows != c.frame_rows as i64 {
                return Err(format!(
                    "after reopen frames_{id} has {rows} rows, {} were acknowledged",
                    c.frame_rows
                ));
            }
            if rows > 0 {
                let sum = one(format!("SELECT SUM(v) FROM frames_{id}"))?;
                if sum != c.frame_sum {
                    return Err(format!(
                        "after reopen frames_{id} sums to {sum}, not {}",
                        c.frame_sum
                    ));
                }
            }
            if super::stored_ints(&reopened, &format!("scene_{id}"))? != c.scene.as_slice() {
                return Err(format!(
                    "after reopen scene_{id} lost acknowledged cell updates"
                ));
            }
        }
        drop(reopened);

        let primary = self.engine.vault_image().map_err(|e| e.to_string())?;
        let replica = self
            .replica
            .engine()
            .vault_image()
            .map_err(|e| e.to_string())?;
        if primary.files.len() != replica.files.len() {
            return Err(format!(
                "replica vault has {} files, primary {}",
                replica.files.len(),
                primary.files.len()
            ));
        }
        for ((name, bytes), (rname, rbytes)) in primary.files.iter().zip(&replica.files) {
            if name != rname || bytes != rbytes {
                return Err(format!(
                    "replica vault differs from the primary at {name} / {rname}"
                ));
            }
        }
        Ok(())
    }

    fn close(self: Box<Self>) {
        let DurableWrite {
            clients,
            lag_client,
            replica,
            replica_server,
            primary_server,
            ..
        } = *self;
        drop(clients);
        lag_client.close().ok();
        replica.stop();
        replica_server.stop();
        primary_server.stop();
    }
}
