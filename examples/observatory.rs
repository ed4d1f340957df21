//! The paper's motivating use case (§1): "a full-fledged scientific
//! information system … should blend measurements with static and derived
//! metadata about the instruments and observations. It therefore calls for
//! a strong symbiosis of the relational paradigm and array paradigm."
//!
//! This example builds a tiny virtual observatory over the **unified
//! driver API**: an `instruments` TABLE (relational metadata), a 2-D
//! measurement ARRAY per scene, and combined queries that join them —
//! metadata-driven slab selection, per-instrument statistics computed
//! with one bound-parameter prepared statement, and a quality report
//! written back through prepared DML. The frame stream itself lands via
//! `COPY … (FORMAT binary)` — tiled bulk ingest instead of an INSERT
//! loop — with a timing printout comparing the two and a zone-map
//! skip-scan over the result.
//!
//! Run with: `cargo run --example observatory`

use sciql_repro::driver::Sciql;
use sciql_repro::gdk::Bat;
use sciql_repro::imaging::synth;
use sciql_repro::params;
use std::time::Instant;

fn main() {
    let mut conn = Sciql::connect("mem:").expect("in-memory connect");

    // --- relational side: instrument & scene metadata ------------------
    for stmt in [
        "CREATE TABLE instruments (iid INT, name VARCHAR, band VARCHAR, noise INT)",
        "INSERT INTO instruments VALUES \
           (1, 'VIS-A', 'visible', 2), \
           (2, 'NIR-B', 'near-infrared', 5)",
        "CREATE TABLE scenes (sid INT, iid INT, day INT, cloud INT)",
        "INSERT INTO scenes VALUES \
           (100, 1, 12, 8), \
           (101, 2, 12, 35), \
           (102, 1, 13, 2)",
    ] {
        conn.execute(stmt).expect("metadata");
    }

    // --- array side: one measurement array per scene (Data Vault) ------
    // Bulk image ingestion skips the SQL statement path (it is logged as
    // CREATE ARRAY plus the tile writes of a binary COPY); it needs the
    // embedded connection behind the driver.
    let embedded = conn
        .embedded_connection()
        .expect("mem: transport is embedded");
    for (sid, seed) in [(100u64, 7u64), (101, 8), (102, 9)] {
        let img = synth::terrain(48, 48, seed);
        sciql_repro::imaging::vault::load_image(embedded, &format!("scene_{sid}"), &img)
            .expect("load scene");
    }

    // --- bulk ingest: a night of frames via COPY -----------------------
    // The raw detector stream is one row per pixel event (frame id,
    // pixel offset, intensity). COPY lands it tile-by-tile in a single
    // statement; a per-row INSERT loop is the strawman it replaces.
    conn.execute("CREATE TABLE frames (fid INT, px INT, v INT)")
        .expect("frames table");
    let (mut fid, mut px, mut v) = (Vec::new(), Vec::new(), Vec::new());
    for f in 0..6i32 {
        let img = synth::terrain(64, 64, 20 + f as u64);
        for (i, cell) in img.pixels.iter().enumerate() {
            fid.push(f);
            px.push(i as i32);
            v.push(*cell);
        }
    }
    let nrows = fid.len();
    let sample: Vec<(i32, i32, i32)> = (0..512).map(|i| (fid[i], px[i], v[i])).collect();
    let path = std::env::temp_dir().join(format!("sciql-observatory-{}.scpy", std::process::id()));
    sciql_repro::sciql::write_copy_binary(
        &path,
        &[Bat::from_ints(fid), Bat::from_ints(px), Bat::from_ints(v)],
    )
    .expect("write frame stream");
    let t0 = Instant::now();
    conn.execute(&format!(
        "COPY frames FROM '{}' (FORMAT binary)",
        path.display()
    ))
    .expect("copy frames");
    let copy_s = t0.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    // The same pixels one INSERT at a time, on a small sample — enough
    // to compare per-row cost without waiting on the full stream.
    conn.execute("CREATE TABLE frames_slow (fid INT, px INT, v INT)")
        .expect("strawman table");
    let t0 = Instant::now();
    for (f, p, val) in &sample {
        conn.execute(&format!("INSERT INTO frames_slow VALUES ({f}, {p}, {val})"))
            .expect("insert row");
    }
    let insert_s = t0.elapsed().as_secs_f64();
    let copy_rate = nrows as f64 / copy_s;
    let insert_rate = sample.len() as f64 / insert_s;
    println!(
        "frame ingest: COPY {nrows} rows in {:.1} ms ({:.0} rows/s)",
        copy_s * 1e3,
        copy_rate
    );
    println!(
        "              INSERT loop {} rows in {:.1} ms ({:.0} rows/s) — COPY is {:.0}x faster",
        sample.len(),
        insert_s * 1e3,
        insert_rate,
        copy_rate / insert_rate
    );
    // Frames arrive in time order, so fid is clustered across tiles and
    // a point probe lets the per-tile zone maps skip most of the table.
    let mut rows = conn
        .query("SELECT COUNT(*) FROM frames WHERE fid = 5")
        .expect("skip scan");
    let hits: i64 = rows.next_row().unwrap().get(0).unwrap();
    let skipped = conn.last_report().map(|r| r.tiles_skipped).unwrap_or(0);
    println!("              probe fid=5: {hits} rows, {skipped} tile(s) skipped via zone maps");

    // --- symbiosis 1: metadata query drives array processing -----------
    // Find the clearest scene, then compute its intensity statistics
    // straight from the array.
    let best: i64 = {
        let mut rows = conn
            .query("SELECT sid FROM scenes ORDER BY cloud LIMIT 1")
            .unwrap();
        rows.next_row().unwrap().get(0).unwrap()
    };
    println!("clearest scene: {best}");
    let stats = conn
        .query(&format!(
            "SELECT MIN(v), MAX(v), CAST(AVG(v) AS INT), COUNT(*) FROM scene_{best}"
        ))
        .unwrap();
    println!("  min/max/avg/cells: {:?}", stats.result_set().row(0));

    // --- symbiosis 2: join table metadata against array cells ----------
    // Per-instrument mean intensity across all of that instrument's
    // scenes (a table↔table join selecting which arrays to aggregate).
    println!("per-instrument mean intensity:");
    let mut per_instrument = conn
        .query(
            "SELECT i.name AS name, s.sid AS sid FROM instruments i, scenes s \
             WHERE i.iid = s.iid ORDER BY sid",
        )
        .unwrap();
    let mut pairs: Vec<(String, i64)> = Vec::new();
    while let Some(row) = per_instrument.next_row() {
        pairs.push((
            row.get_by_name("name").unwrap(),
            row.get_by_name("sid").unwrap(),
        ));
    }
    for (name, sid) in pairs {
        let mut rows = conn
            .query(&format!("SELECT AVG(v) FROM scene_{sid}"))
            .unwrap();
        let mean: f64 = rows.next_row().unwrap().get(0).unwrap();
        println!("  {name:<8} scene {sid}: mean {mean:.1}");
    }

    // --- symbiosis 3: structural grouping for a quality report ---------
    // Local 3×3 variance proxy (max - min per tile) on each scene; count
    // rough cells — written back into a relational table through a
    // prepared INSERT with bound parameters.
    conn.execute("CREATE TABLE quality (sid INT, rough_cells INT)")
        .unwrap();
    let record = conn
        .prepare("INSERT INTO quality VALUES (:sid, :rough)")
        .unwrap();
    for sid in [100i64, 101, 102] {
        let mut rows = conn
            .query(&format!(
                "SELECT [x], [y], MAX(v) - MIN(v) AS spread FROM scene_{sid} \
                 GROUP BY scene_{sid}[x-1:x+2][y-1:y+2]"
            ))
            .unwrap();
        let mut rough_cells = 0i64;
        while let Some(row) = rows.next_row() {
            if row.get::<Option<i64>>(2).unwrap().unwrap_or(0) > 12 {
                rough_cells += 1;
            }
        }
        conn.execute_bound(&record, params![sid, rough_cells])
            .unwrap();
    }
    let report = conn
        .query(
            "SELECT s.sid AS sid, s.cloud AS cloud, q.rough_cells AS rough \
             FROM scenes s, quality q WHERE s.sid = q.sid ORDER BY sid",
        )
        .unwrap();
    println!("scene quality report (metadata ⋈ derived array statistics):");
    println!("{}", report.result_set().render());
}
