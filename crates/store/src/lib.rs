//! # sciql-store — durable BAT vault
//!
//! Persistence substrate for the SciQL reproduction: the paper's MonetDB
//! base keeps every BAT as a consecutive on-disk array, and its data
//! vaults assume columns that outlive a session. This crate supplies that
//! durability in pure `std`:
//!
//! * **Checkpoints** — a catalog snapshot (schemas + dimension specs,
//!   via `sciql-catalog`'s binary serde) plus column data split into
//!   fixed-size **tiles** (one checksummed `gdk::codec` frame per tile).
//!   The columns are table columns and array attributes: a dimension is
//!   its spec in the catalog, never data. The snapshot records each
//!   tile's zone-map statistics (row count, nil count, min/max), and a
//!   clean tile keeps its file across checkpoints — only dirty tiles are
//!   rewritten.
//! * **Write-ahead log** — an append-only log of the mutating operations
//!   acknowledged since the last checkpoint (schema statements as text,
//!   data changes as the positions and values they stored), with
//!   per-record checksums and explicit sync points.
//! * **Recovery** — load the newest snapshot tile by tile, then replay
//!   the WAL tail; a torn final record (crash mid-write) is detected and
//!   truncated, and tile files orphaned by a crashed checkpoint are
//!   swept.
//!
//! On-disk layout of a vault directory:
//!
//! ```text
//! <db>/
//!   MANIFEST              current generation (written atomically)
//!   snapshot-<gen>.cat    catalog + tile references + zone maps + checksum
//!   wal-<gen>.log         operations since checkpoint <gen>
//!   cols/c<id>.col        one encoded BAT tile per column-tile version
//! ```
//!
//! The engine crate (`sciql`) owns the logical side: it decides *what* to
//! log and hands over columns with per-tile dirt at checkpoint time. This
//! crate owns the files, framing, checksums and the atomic generation
//! switch.

#![warn(missing_docs)]

pub mod snapshot;
pub mod wal;

pub use snapshot::{SnapshotColumn, SnapshotData, SnapshotObject, SnapshotTile};
pub use wal::{read_wal_from, WalRecord};

use gdk::codec::{
    decode_bat, encode_bat, put_column, put_str, put_u32, put_u8, read_column, CodecError, Reader,
    StrDict,
};
use gdk::zonemap::{ZoneEntry, ZoneMap, TILE_ROWS};
use gdk::{Bat, Candidates, ColumnData, Value};
use sciql_catalog::SchemaObject;
use snapshot::{read_snapshot, write_snapshot};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::{scan_wal_for, WalWriter};

/// Errors raised by the vault.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// On-disk content failed validation (checksum, framing, schema).
    Corrupt(String),
    /// The vault directory is already opened by a live process.
    Locked {
        /// Pid recorded in the lock file.
        pid: u32,
    },
}

impl StoreError {
    /// Construct a [`StoreError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        StoreError::Corrupt(msg.into())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Locked { pid } => {
                write!(f, "vault is already open in process {pid}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

/// Store result type.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// Write `bytes` to `path` atomically (tmp + rename) and durably (data
/// and directory synced).
pub(crate) fn write_file_durably(path: &Path, bytes: &[u8]) -> StoreResult<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))?;
    Ok(())
}

fn sync_dir(dir: &Path) -> StoreResult<()> {
    // Directory fsync is how the rename itself is made durable on POSIX;
    // on platforms where opening a directory fails, skip it.
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-tile dirt tracking (shared vocabulary with the engine).
// ---------------------------------------------------------------------------

/// What changed in a column since the last checkpoint, at tile
/// granularity. The engine keeps one of these per column and the vault
/// rewrites only the tiles it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnDirt {
    /// Nothing changed: every tile may keep its file.
    Clean,
    /// Everything changed (bulk replacement, unknown extent): rewrite all
    /// tiles.
    All,
    /// Per-tile dirty flags, indexed by tile number. Tiles beyond the
    /// vector's length count as dirty (they are new growth).
    Tiles(Vec<bool>),
}

impl ColumnDirt {
    /// Is tile `tile` dirty?
    pub fn tile_dirty(&self, tile: usize) -> bool {
        match self {
            ColumnDirt::Clean => false,
            ColumnDirt::All => true,
            ColumnDirt::Tiles(v) => v.get(tile).copied().unwrap_or(true),
        }
    }

    /// Is any tile dirty? (`Tiles` with no flag set counts as clean.)
    pub fn any_dirty(&self) -> bool {
        match self {
            ColumnDirt::Clean => false,
            ColumnDirt::All => true,
            ColumnDirt::Tiles(v) => v.iter().any(|&d| d),
        }
    }

    /// Mark every tile holding one of the rows `at` dirty, once per tile,
    /// growing the flag vector as needed.
    pub fn mark_cells(&mut self, at: &Candidates) {
        match at {
            Candidates::Dense { first, len } if *len > 0 => {
                let first = *first as usize;
                (first / TILE_ROWS..=(first + len - 1) / TILE_ROWS).for_each(|t| self.mark_tile(t));
            }
            _ => {
                let mut last = None;
                for t in at.iter().map(|row| row as usize / TILE_ROWS) {
                    if last != Some(t) {
                        self.mark_tile(t);
                        last = Some(t);
                    }
                }
            }
        }
    }

    /// Mark tile `tile` dirty.
    pub fn mark_tile(&mut self, tile: usize) {
        match self {
            ColumnDirt::All => {}
            ColumnDirt::Clean => {
                let mut v = vec![false; tile + 1];
                v[tile] = true;
                *self = ColumnDirt::Tiles(v);
            }
            ColumnDirt::Tiles(v) => {
                if v.len() <= tile {
                    v.resize(tile + 1, false);
                }
                v[tile] = true;
            }
        }
    }

    /// Mark every tile dirty.
    pub fn mark_all(&mut self) {
        *self = ColumnDirt::All;
    }

    /// Dirty tiles among the first `n_tiles` (for `\stats`-style
    /// reporting; `All` counts every tile).
    pub fn dirty_count(&self, n_tiles: usize) -> usize {
        match self {
            ColumnDirt::Clean => 0,
            ColumnDirt::All => n_tiles,
            ColumnDirt::Tiles(v) => (0..n_tiles)
                .filter(|&i| self.tile_dirty(i) || i >= v.len())
                .count(),
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery output / checkpoint input (the neutral data model shared with
// the engine).
// ---------------------------------------------------------------------------

/// A recovered column: its name and loaded BAT (tiles concatenated, zone
/// map from the snapshot installed).
#[derive(Debug)]
pub struct RecoveredColumn {
    /// Column name (array attribute or table column).
    pub name: String,
    /// Loaded column data.
    pub bat: Bat,
}

/// A recovered schema object.
#[derive(Debug)]
pub struct RecoveredObject {
    /// Schema definition.
    pub def: SchemaObject,
    /// Columns in storage order (arrays: attributes; tables: columns), or
    /// `None` for catalog-only objects.
    pub columns: Option<Vec<RecoveredColumn>>,
}

/// One logged operation to replay on top of the checkpoint image. DDL
/// is logged as its statement text; every data change is logged as what
/// it stored, so replay re-applies it without parsing or planning.
#[derive(Debug)]
pub enum ReplayOp {
    /// A schema statement, as printed text.
    Sql(String),
    /// Values stored into `target` at the positions `at`: each
    /// `(column, values)` pair holds one stored-type value per position,
    /// in order. On a table, the dense run that starts at its row count
    /// appends every column; any other run overwrites existing rows.
    Write {
        /// Target object name.
        target: String,
        /// Cell or row positions, strictly increasing.
        at: Candidates,
        /// Stored-column index (array attribute or table column) and
        /// the values written there.
        columns: Vec<(usize, Arc<Bat>)>,
    },
    /// Cells of an array set to nil at `at`, or rows of a table removed.
    Delete {
        /// Target object name.
        target: String,
        /// Cell or row positions, strictly increasing.
        at: Candidates,
    },
}

/// Everything needed to rebuild a session: the checkpoint image plus the
/// WAL tail to replay on top of it.
#[derive(Debug)]
pub struct Recovered {
    /// Objects from the newest snapshot.
    pub objects: Vec<RecoveredObject>,
    /// Operations logged after that snapshot, in commit order.
    pub ops: Vec<ReplayOp>,
}

/// One column handed to [`Vault::checkpoint`].
#[derive(Debug)]
pub struct CheckpointColumn<'a> {
    /// Column name, unique within its object.
    pub name: &'a str,
    /// Current column data.
    pub bat: &'a Bat,
    /// Which tiles changed since the last checkpoint. Clean tiles reuse
    /// their existing file.
    pub dirt: ColumnDirt,
}

/// One object handed to [`Vault::checkpoint`].
#[derive(Debug)]
pub struct CheckpointObject<'a> {
    /// Schema definition.
    pub def: &'a SchemaObject,
    /// Columns in storage order (arrays: attributes; tables: columns), or
    /// `None` for catalog-only objects.
    pub columns: Option<Vec<CheckpointColumn<'a>>>,
}

/// Vault health counters (REPL `\stats`, monitoring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VaultStats {
    /// Current checkpoint generation.
    pub generation: u64,
    /// WAL records since that checkpoint.
    pub wal_records: u64,
    /// WAL size in bytes.
    pub wal_bytes: u64,
    /// Columns referenced by the current snapshot.
    pub columns: usize,
    /// Tile files referenced by the current snapshot.
    pub tile_files: usize,
    /// Tile files rewritten by the most recent checkpoint of this
    /// process (0 before the first).
    pub tiles_rewritten: u64,
    /// Tile files reused (kept clean) by the most recent checkpoint.
    pub tiles_reused: u64,
}

// ---------------------------------------------------------------------------
// WAL payload tagging.
// ---------------------------------------------------------------------------

const TAG_SQL: u8 = 0x01;
const TAG_WRITE: u8 = 0x02;
const TAG_DELETE: u8 = 0x03;

/// Positions as one column body: a void column for a dense run, an oid
/// column otherwise.
fn put_at(at: &Candidates, out: &mut Vec<u8>) {
    let data = match at {
        Candidates::Dense { first, len } => ColumnData::Void {
            seq: *first,
            len: *len,
        },
        Candidates::List(v) => ColumnData::Oid(v.clone()),
    };
    put_column(&data, 0..at.len(), StrDict::Used, out);
}

/// Encode one record payload: a tag, then the statement text, or the
/// target name, the positions and (for a write) each column's index and
/// values as [`put_column`] bodies.
pub fn encode_replay_op(op: &ReplayOp) -> Vec<u8> {
    let mut out = Vec::new();
    match op {
        ReplayOp::Sql(sql) => {
            put_u8(&mut out, TAG_SQL);
            out.extend_from_slice(sql.as_bytes());
        }
        ReplayOp::Write {
            target,
            at,
            columns,
        } => {
            out.reserve(64 + columns.len() * at.len() * 8);
            put_u8(&mut out, TAG_WRITE);
            put_str(&mut out, target);
            put_at(at, &mut out);
            put_u32(&mut out, columns.len() as u32);
            for (k, values) in columns {
                put_u32(&mut out, *k as u32);
                put_column(values.data(), 0..values.len(), StrDict::Used, &mut out);
            }
        }
        ReplayOp::Delete { target, at } => {
            put_u8(&mut out, TAG_DELETE);
            put_str(&mut out, target);
            put_at(at, &mut out);
        }
    }
    out
}

/// Decode one WAL record payload into its logical operation. Public so a
/// replication replica can interpret records shipped off another vault's
/// log; `wal` and `record` only label errors (a replica passes *its own*
/// log's path, so corruption reports name the replica's data dir).
/// Structure is checked here (tags, counts, increasing positions); whether
/// a record fits the database it is applied to is the engine's check.
pub fn decode_replay_op(payload: &[u8], wal: &Path, record: usize) -> StoreResult<ReplayOp> {
    let bad =
        |what: &str| StoreError::corrupt(format!("WAL {} record {record}: {what}", wal.display()));
    let Some((&tag, rest)) = payload.split_first() else {
        return Err(bad("empty record"));
    };
    match tag {
        TAG_SQL => {
            return String::from_utf8(rest.to_vec())
                .map(ReplayOp::Sql)
                .map_err(|_| bad("non-UTF-8 statement text"))
        }
        TAG_WRITE | TAG_DELETE => {}
        other => return Err(bad(&format!("unknown record tag 0x{other:02x}"))),
    }
    let mut r = Reader::new(rest);
    let target = r.str()?;
    let at = match read_column(&mut r)? {
        ColumnData::Void { seq, len } => Candidates::Dense { first: seq, len },
        ColumnData::Oid(v) if v.windows(2).all(|w| w[0] < w[1]) => Candidates::List(v),
        _ => return Err(bad("positions are not a strictly increasing oid column")),
    };
    let op = if tag == TAG_DELETE {
        ReplayOp::Delete { target, at }
    } else {
        let mut columns = Vec::new();
        for _ in 0..r.u32()? {
            let k = r.u32()? as usize;
            // A stored-type column carries its values; a void one could
            // claim any length without the bytes for it.
            match read_column(&mut r)? {
                ColumnData::Void { .. } => return Err(bad("a value column is void")),
                data => columns.push((k, Arc::new(Bat::from_data(data)))),
            }
        }
        ReplayOp::Write {
            target,
            at,
            columns,
        }
    };
    if r.remaining() != 0 {
        return Err(bad("trailing bytes after the record"));
    }
    Ok(op)
}

/// Path of generation `gen`'s WAL file inside a vault directory — the
/// file a replication shipper tails with [`read_wal_from`].
pub fn wal_file_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen}.log"))
}

// ---------------------------------------------------------------------------
// The vault.
// ---------------------------------------------------------------------------

/// RAII guard on the vault's `LOCK` file: created exclusively at open,
/// removed when the vault (or a failed open) drops.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        fs::remove_file(&self.path).ok();
    }
}

impl LockGuard {
    /// Take the single-writer lock on `dir`, or report who holds it. A
    /// lock left behind by a crashed process (its pid no longer alive)
    /// is broken automatically.
    fn acquire(dir: &Path) -> StoreResult<LockGuard> {
        let path = dir.join("LOCK");
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    f.write_all(std::process::id().to_string().as_bytes())?;
                    f.sync_all()?;
                    return Ok(LockGuard { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let pid = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok())
                        .unwrap_or(0);
                    if pid != 0 && process_alive(pid) {
                        return Err(StoreError::Locked { pid });
                    }
                    // Stale lock from a crashed process: break it and retry.
                    fs::remove_file(&path).ok();
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(StoreError::corrupt("could not break stale vault lock"))
    }
}

/// Is a process with this pid currently running? Uses `/proc` where it
/// exists; elsewhere the answer is conservatively `true` (a stale lock
/// then needs manual removal rather than risking two writers).
fn process_alive(pid: u32) -> bool {
    let proc_dir = Path::new("/proc");
    if proc_dir.is_dir() {
        proc_dir.join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Tile references of one persisted column, as of the current snapshot.
#[derive(Debug, Clone)]
struct ColRef {
    tile_rows: u32,
    /// `(tile file id, rows in tile)` in row order.
    tiles: Vec<(u64, u64)>,
}

/// A durable column vault rooted at one directory.
#[derive(Debug)]
pub struct Vault {
    dir: PathBuf,
    gen: u64,
    wal: WalWriter,
    next_col_id: u64,
    /// `"object\u{0}column"` (lowercased) → tile references, as of the
    /// current snapshot.
    refs: HashMap<String, ColRef>,
    tiles_rewritten: u64,
    tiles_reused: u64,
    /// Test hook: fail the checkpoint after this many tile files have
    /// been written (before the MANIFEST switch), simulating a crash
    /// mid-checkpoint. One-shot.
    fault_after_tiles: Option<u64>,
    /// Held for the vault's lifetime; releases `LOCK` on drop.
    _lock: LockGuard,
}

fn col_key(object: &str, column: &str) -> String {
    format!(
        "{}\u{0}{}",
        object.to_ascii_lowercase(),
        column.to_ascii_lowercase()
    )
}

/// Split a stored column (an attribute or table column — the engine
/// hands over no dimensions) into its checkpoint tile plan: the tile
/// size plus one zone entry per tile. An empty column still gets one
/// empty tile so its type survives the round-trip.
fn tile_plan(bat: &Bat) -> (u32, Vec<ZoneEntry>) {
    let zm = bat.ensure_zone_map(TILE_ROWS);
    if zm.entries.is_empty() {
        (
            zm.tile_rows as u32,
            vec![ZoneEntry {
                rows: 0,
                nils: 0,
                min: None,
                max: None,
            }],
        )
    } else {
        (zm.tile_rows as u32, zm.entries.clone())
    }
}

impl Vault {
    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("MANIFEST")
    }
    fn snapshot_path(dir: &Path, gen: u64) -> PathBuf {
        dir.join(format!("snapshot-{gen}.cat"))
    }
    fn wal_path(dir: &Path, gen: u64) -> PathBuf {
        wal_file_path(dir, gen)
    }
    fn col_path(dir: &Path, id: u64) -> PathBuf {
        dir.join("cols").join(format!("c{id}.col"))
    }

    /// Open (or initialise) a vault at `dir` and recover its state: the
    /// newest checkpoint image plus the intact WAL tail. A torn final WAL
    /// record is truncated away; tile files orphaned by a crashed
    /// checkpoint are removed.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<(Vault, Recovered)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(dir.join("cols"))?;
        // Single writer per vault: a second process opening the same
        // directory would interleave WAL frames and garbage-collect
        // tile files the first one still references.
        let lock = LockGuard::acquire(&dir)?;
        let manifest = Self::manifest_path(&dir);
        if !manifest.exists() {
            // Fresh vault (or a crash before the very first MANIFEST write,
            // in which case nothing was ever acknowledged): initialise
            // generation 0 with an empty snapshot and WAL.
            write_snapshot(&Self::snapshot_path(&dir, 0), &SnapshotData::default())?;
            let wal = WalWriter::create(&Self::wal_path(&dir, 0))?;
            write_file_durably(&manifest, b"sciql-store v1\ngen 0\n")?;
            let vault = Vault {
                dir,
                gen: 0,
                wal,
                next_col_id: 0,
                refs: HashMap::new(),
                tiles_rewritten: 0,
                tiles_reused: 0,
                fault_after_tiles: None,
                _lock: lock,
            };
            return Ok((
                vault,
                Recovered {
                    objects: Vec::new(),
                    ops: Vec::new(),
                },
            ));
        }
        let gen = Self::read_manifest(&manifest)?;
        let snap = read_snapshot(&Self::snapshot_path(&dir, gen))?;
        let mut refs = HashMap::new();
        let mut objects = Vec::with_capacity(snap.objects.len());
        for so in snap.objects {
            let columns = match &so.columns {
                None => None,
                Some(cols) => {
                    let mut out = Vec::with_capacity(cols.len());
                    for col in cols {
                        let bat = Self::load_column(&dir, col)?;
                        refs.insert(
                            col_key(so.def.name(), &col.name),
                            ColRef {
                                tile_rows: col.tile_rows,
                                tiles: col.tiles.iter().map(|t| (t.id, t.rows)).collect(),
                            },
                        );
                        out.push(RecoveredColumn {
                            name: col.name.clone(),
                            bat,
                        });
                    }
                    Some(out)
                }
            };
            objects.push(RecoveredObject {
                def: so.def,
                columns,
            });
        }
        let wal_path = Self::wal_path(&dir, gen);
        let (ops, wal) = if wal_path.exists() {
            // Errors name this vault's own data dir: a replica replaying
            // records shipped off a primary must report *its* directory,
            // not the one the records were born in.
            let scan = scan_wal_for(&wal_path, Some(&dir))?;
            let ops = scan
                .records
                .iter()
                .enumerate()
                .map(|(i, r)| decode_replay_op(r, &wal_path, i))
                .collect::<StoreResult<Vec<_>>>()?;
            let n = ops.len() as u64;
            (ops, WalWriter::open_valid(&wal_path, scan.valid_len, n)?)
        } else {
            // Crash between MANIFEST switch and WAL creation cannot happen
            // (the WAL is created first), but tolerate a missing log.
            (Vec::new(), WalWriter::create(&wal_path)?)
        };
        let vault = Vault {
            dir,
            gen,
            wal,
            next_col_id: snap.next_col_id,
            refs,
            tiles_rewritten: 0,
            tiles_reused: 0,
            fault_after_tiles: None,
            _lock: lock,
        };
        // A crash between the MANIFEST switch and a checkpoint's cleanup
        // can leave the previous generation's files behind — and a crash
        // *during* a checkpoint leaves tile files no snapshot references.
        // Sweep both now.
        vault.gc_generations();
        vault.gc_columns();
        Ok((vault, Recovered { objects, ops }))
    }

    /// Load one column: decode its tiles in row order, concatenate them
    /// into a column allocated once at the snapshot's row count, and
    /// install the snapshot's zone map on the result.
    fn load_column(dir: &Path, col: &SnapshotColumn) -> StoreResult<Bat> {
        let mut tiles = Vec::with_capacity(col.tiles.len());
        for t in &col.tiles {
            let path = Self::col_path(dir, t.id);
            let mut bytes = Vec::new();
            File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .map_err(|e| {
                    StoreError::corrupt(format!("tile file {} unreadable: {e}", path.display()))
                })?;
            let tile = decode_bat(&bytes)
                .map_err(|e| StoreError::corrupt(format!("tile file {}: {e}", path.display())))?;
            if tile.len() as u64 != t.rows {
                return Err(StoreError::corrupt(format!(
                    "tile file {} holds {} rows, snapshot says {}",
                    path.display(),
                    tile.len(),
                    t.rows
                )));
            }
            tiles.push(tile);
        }
        // The row count is the decoded tiles', not the snapshot's word.
        let rows: usize = tiles.iter().map(Bat::len).sum();
        let mut tiles = tiles.into_iter().zip(&col.tiles);
        let (mut bat, _) = tiles
            .next()
            .ok_or_else(|| StoreError::corrupt(format!("column {} has no tiles", col.name)))?;
        bat.reserve(rows - bat.len());
        for (tile, t) in tiles {
            bat.append_bat(&tile).map_err(|e| {
                StoreError::corrupt(format!(
                    "tile file {} does not extend column {}: {e}",
                    Self::col_path(dir, t.id).display(),
                    col.name
                ))
            })?;
        }
        if !bat.is_empty() {
            bat.install_zone_map(ZoneMap {
                tile_rows: col.tile_rows as usize,
                entries: col
                    .tiles
                    .iter()
                    .map(|t| ZoneEntry {
                        rows: t.rows as usize,
                        nils: t.nils as usize,
                        min: match &t.min {
                            Value::Null => None,
                            v => Some(v.clone()),
                        },
                        max: match &t.max {
                            Value::Null => None,
                            v => Some(v.clone()),
                        },
                    })
                    .collect(),
            });
        }
        Ok(bat)
    }

    /// Delete snapshot/WAL files of any generation other than the
    /// current one.
    fn gc_generations(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let gen = name
                .strip_prefix("snapshot-")
                .and_then(|r| r.strip_suffix(".cat"))
                .or_else(|| {
                    name.strip_prefix("wal-")
                        .and_then(|r| r.strip_suffix(".log"))
                })
                .and_then(|g| g.parse::<u64>().ok());
            if gen.is_some_and(|g| g != self.gen) {
                fs::remove_file(entry.path()).ok();
            }
        }
    }

    fn read_manifest(path: &Path) -> StoreResult<u64> {
        let text = fs::read_to_string(path).map_err(|e| {
            StoreError::corrupt(format!("manifest {} unreadable: {e}", path.display()))
        })?;
        for line in text.lines() {
            if let Some(gen) = line.strip_prefix("gen ") {
                return gen.trim().parse().map_err(|_| {
                    StoreError::corrupt(format!(
                        "manifest {}: generation {gen:?} is not a number",
                        path.display()
                    ))
                });
            }
        }
        Err(StoreError::corrupt(format!(
            "manifest {} missing generation line",
            path.display()
        )))
    }

    /// Append one statement to the WAL *without* forcing it to disk
    /// (see [`Vault::append_nosync`]).
    pub fn append_statement_nosync(&mut self, sql: &str) -> StoreResult<u64> {
        self.append_nosync(&encode_replay_op(&ReplayOp::Sql(sql.to_owned())))
    }

    /// Append one record payload ([`encode_replay_op`]) to the WAL
    /// *without* forcing it to disk. Returns the log's byte position after
    /// the record: once any later fsync of this generation's log covers
    /// that position (see [`Vault::wal_sync_handle`]), the record survives
    /// a crash. The caller owns durability; nothing may be acknowledged
    /// before then.
    pub fn append_nosync(&mut self, payload: &[u8]) -> StoreResult<u64> {
        self.wal.append(payload)?;
        sciql_obs::global().wal_appends.inc();
        Ok(self.wal.bytes())
    }

    /// A shareable fsync handle on the *current* generation's WAL, for
    /// the group committer to fsync outside the writer's lock.
    /// Invalidated (harmlessly) by the next [`Vault::checkpoint`], which
    /// rotates the log after making every appended record durable via
    /// the snapshot itself.
    pub fn wal_sync_handle(&self) -> StoreResult<wal::WalSyncHandle> {
        self.wal.sync_handle()
    }

    /// Fsync the WAL, feeding the global fsync counter and latency
    /// histogram.
    fn synced_to_disk(&mut self) -> StoreResult<()> {
        let t0 = std::time::Instant::now();
        let r = self.wal.sync();
        let m = sciql_obs::global();
        m.wal_fsyncs.inc();
        m.wal_fsync_ns.observe(t0.elapsed());
        r
    }

    /// Append a burst of already-encoded WAL record payloads verbatim,
    /// in order, and force them to disk with one fsync — the replication
    /// replica's apply path. Because WAL framing is deterministic,
    /// appending the primary's payload sequence reproduces the primary's
    /// byte offsets exactly, so the returned position (the log's byte
    /// length after the last record) *is* the replica's durable
    /// position. Errors name this vault's data dir — the replica's, not
    /// the shipping primary's.
    pub fn append_raw<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> StoreResult<u64> {
        for payload in payloads {
            self.wal.append(payload.as_ref()).map_err(|e| {
                StoreError::corrupt(format!(
                    "replicated record append failed (data dir {}): {e}",
                    self.dir.display()
                ))
            })?;
            sciql_obs::global().wal_appends.inc();
        }
        self.synced_to_disk()?;
        Ok(self.wal.bytes())
    }

    /// Byte length of the current generation's WAL — the position a
    /// write is durable at once an fsync covers it. Everything recovered
    /// at open and everything before a checkpoint is durable.
    pub fn wal_position(&self) -> u64 {
        self.wal.bytes()
    }

    /// The files that constitute this vault's current durable image, as
    /// dir-relative paths: MANIFEST, the generation's snapshot catalog
    /// and WAL, and every tile file the snapshot references. A
    /// replication bootstrap copies exactly these (capping the WAL at
    /// the durable position so unacknowledged records do not ship).
    pub fn snapshot_file_set(&self) -> Vec<PathBuf> {
        let mut files = vec![
            PathBuf::from("MANIFEST"),
            PathBuf::from(format!("snapshot-{}.cat", self.gen)),
            PathBuf::from(format!("wal-{}.log", self.gen)),
        ];
        let mut ids: Vec<u64> = self
            .refs
            .values()
            .flat_map(|c| c.tiles.iter().map(|&(id, _)| id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        files.extend(
            ids.into_iter()
                .map(|id| PathBuf::from("cols").join(format!("c{id}.col"))),
        );
        files
    }

    /// Write a new checkpoint generation: dirty (or never-persisted)
    /// tiles get new tile files, clean ones keep theirs; then the
    /// snapshot — with each tile's zone-map statistics — is written, the
    /// WAL rotated, and the MANIFEST atomically switched. Old generations
    /// and orphaned tile files are removed afterwards.
    pub fn checkpoint(&mut self, objects: &[CheckpointObject<'_>]) -> StoreResult<()> {
        let t0 = std::time::Instant::now();
        let new_gen = self.gen + 1;
        let mut new_refs = HashMap::new();
        let mut snap_objects = Vec::with_capacity(objects.len());
        let mut written: u64 = 0;
        let mut reused: u64 = 0;
        for obj in objects {
            let columns = match &obj.columns {
                None => None,
                Some(cols) => {
                    let mut out = Vec::with_capacity(cols.len());
                    for col in cols {
                        let key = col_key(obj.def.name(), col.name);
                        let (tile_rows, entries) = tile_plan(col.bat);
                        let prev = self
                            .refs
                            .get(&key)
                            .filter(|p| p.tile_rows == tile_rows)
                            .cloned();
                        let mut tiles = Vec::with_capacity(entries.len());
                        let mut start = 0usize;
                        for (i, e) in entries.iter().enumerate() {
                            let reusable = !col.dirt.tile_dirty(i)
                                && prev
                                    .as_ref()
                                    .and_then(|p| p.tiles.get(i))
                                    .is_some_and(|&(_, rows)| rows == e.rows as u64);
                            let id = if reusable {
                                reused += 1;
                                prev.as_ref().unwrap().tiles[i].0
                            } else {
                                if self.fault_after_tiles == Some(written) {
                                    self.fault_after_tiles = None;
                                    return Err(StoreError::corrupt(
                                        "injected checkpoint fault (test hook)",
                                    ));
                                }
                                let id = self.next_col_id;
                                self.next_col_id += 1;
                                let tile = gdk::project::slice(col.bat, start, start + e.rows)
                                    .map_err(|e| StoreError::corrupt(e.to_string()))?;
                                let bytes = encode_bat(&tile);
                                let path = Self::col_path(&self.dir, id);
                                let mut f = File::create(&path)?;
                                f.write_all(&bytes)?;
                                f.sync_all()?;
                                written += 1;
                                id
                            };
                            tiles.push(SnapshotTile {
                                id,
                                rows: e.rows as u64,
                                nils: e.nils as u64,
                                min: e.min.clone().unwrap_or(Value::Null),
                                max: e.max.clone().unwrap_or(Value::Null),
                            });
                            start += e.rows;
                        }
                        new_refs.insert(
                            key,
                            ColRef {
                                tile_rows,
                                tiles: tiles.iter().map(|t| (t.id, t.rows)).collect(),
                            },
                        );
                        out.push(SnapshotColumn {
                            name: col.name.to_owned(),
                            tile_rows,
                            tiles,
                        });
                    }
                    Some(out)
                }
            };
            snap_objects.push(SnapshotObject {
                def: obj.def.clone(),
                columns,
            });
        }
        sync_dir(&self.dir.join("cols"))?;
        write_snapshot(
            &Self::snapshot_path(&self.dir, new_gen),
            &SnapshotData {
                next_col_id: self.next_col_id,
                objects: snap_objects,
            },
        )?;
        // A fresh WAL for the new generation must exist before the
        // MANIFEST points at it.
        let new_wal = WalWriter::create(&Self::wal_path(&self.dir, new_gen))?;
        write_file_durably(
            &Self::manifest_path(&self.dir),
            format!("sciql-store v1\ngen {new_gen}\n").as_bytes(),
        )?;
        // The switch is durable — everything from older generations is
        // garbage now.
        self.gen = new_gen;
        self.wal = new_wal;
        self.refs = new_refs;
        self.tiles_rewritten = written;
        self.tiles_reused = reused;
        self.gc_generations();
        self.gc_columns();
        let m = sciql_obs::global();
        m.checkpoints.inc();
        m.checkpoint_ns.observe(t0.elapsed());
        m.tiles_rewritten.add(written);
        m.tiles_reused.add(reused);
        Ok(())
    }

    /// Delete tile files no snapshot references — including files left
    /// behind by a checkpoint that failed before its MANIFEST switch.
    fn gc_columns(&self) {
        let live: std::collections::HashSet<u64> = self
            .refs
            .values()
            .flat_map(|c| c.tiles.iter().map(|&(id, _)| id))
            .collect();
        let Ok(entries) = fs::read_dir(self.dir.join("cols")) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix('c'))
                .and_then(|n| n.strip_suffix(".col"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            if !live.contains(&id) {
                fs::remove_file(entry.path()).ok();
            }
        }
    }

    /// Remove tile files orphaned by an aborted checkpoint without
    /// waiting for the next successful one (the sweep [`Vault::open`]
    /// and [`Vault::checkpoint`] already run).
    pub fn gc_orphaned_tiles(&self) {
        self.gc_columns();
    }

    /// Fail the next checkpoint after `after_tiles` tile files have been
    /// written, before the MANIFEST switch — simulates a crash
    /// mid-checkpoint. One-shot; crash-recovery tests only.
    #[doc(hidden)]
    pub fn set_checkpoint_fault(&mut self, after_tiles: u64) {
        self.fault_after_tiles = Some(after_tiles);
    }

    /// Vault directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Health counters.
    pub fn stats(&self) -> VaultStats {
        VaultStats {
            generation: self.gen,
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            columns: self.refs.len(),
            tile_files: self.refs.values().map(|c| c.tiles.len()).sum(),
            tiles_rewritten: self.tiles_rewritten,
            tiles_reused: self.tiles_reused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciql_catalog::{ColumnMeta, TableDef};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "sciql-vault-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&d).ok();
        d
    }

    fn int_table(name: &str) -> SchemaObject {
        SchemaObject::Table(TableDef {
            name: name.into(),
            columns: vec![ColumnMeta {
                name: "a".into(),
                ty: gdk::ScalarType::Int,
                default: None,
            }],
        })
    }

    #[test]
    fn open_sweeps_stale_generations_and_orphan_columns() {
        let dir = tmp_dir("gc");
        {
            let (mut vault, _) = Vault::open(&dir).unwrap();
            vault
                .append_statement_nosync("CREATE TABLE t (a INT)")
                .unwrap();
        }
        // Simulate a checkpoint that crashed after writing its files but
        // before the MANIFEST switch, plus debris from older crashes.
        fs::write(dir.join("snapshot-99.cat"), b"half-written").unwrap();
        fs::write(dir.join("wal-99.log"), b"half-written").unwrap();
        fs::write(dir.join("cols").join("c7.col"), b"orphan").unwrap();
        let (vault, recovered) = Vault::open(&dir).unwrap();
        assert_eq!(vault.generation(), 0);
        assert!(matches!(&recovered.ops[..], [ReplayOp::Sql(s)] if s == "CREATE TABLE t (a INT)"));
        assert!(!dir.join("snapshot-99.cat").exists());
        assert!(!dir.join("wal-99.log").exists());
        assert!(!dir.join("cols").join("c7.col").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_open_is_rejected_while_locked() {
        let dir = tmp_dir("lock");
        let (vault, _) = Vault::open(&dir).unwrap();
        match Vault::open(&dir) {
            Err(StoreError::Locked { pid }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(vault);
        // Released on drop — and a stale lock from a dead process is broken.
        fs::write(dir.join("LOCK"), b"999999999").unwrap();
        let (vault, _) = Vault::open(&dir).unwrap();
        drop(vault);
        assert!(!dir.join("LOCK").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_reuses_clean_column_files() {
        let dir = tmp_dir("reuse");
        let (mut vault, _) = Vault::open(&dir).unwrap();
        let def = int_table("t");
        let bat = Bat::from_ints(vec![1, 2, 3]);
        let obj = |dirt: ColumnDirt| CheckpointObject {
            def: &def,
            columns: Some(vec![CheckpointColumn {
                name: "a",
                bat: &bat,
                dirt,
            }]),
        };
        vault.checkpoint(&[obj(ColumnDirt::All)]).unwrap();
        let first: Vec<_> = fs::read_dir(dir.join("cols"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        vault.checkpoint(&[obj(ColumnDirt::Clean)]).unwrap();
        let second: Vec<_> = fs::read_dir(dir.join("cols"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(first, second, "clean column must keep its file");
        assert_eq!(vault.stats().tiles_reused, 1);
        vault.checkpoint(&[obj(ColumnDirt::All)]).unwrap();
        let third: Vec<_> = fs::read_dir(dir.join("cols"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_ne!(first, third, "dirty column must be rewritten");
        assert_eq!(third.len(), 1, "old version garbage-collected");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rewrites_only_dirty_tiles() {
        let dir = tmp_dir("tiles");
        let (mut vault, _) = Vault::open(&dir).unwrap();
        let def = int_table("t");
        // Three tiles with a custom zone map so the test stays small.
        let bat = Bat::from_ints((0..10).collect());
        bat.install_zone_map(gdk::ZoneMap::build(&bat, 4));
        fn obj<'a>(def: &'a SchemaObject, dirt: ColumnDirt, bat: &'a Bat) -> CheckpointObject<'a> {
            CheckpointObject {
                def,
                columns: Some(vec![CheckpointColumn {
                    name: "a",
                    bat,
                    dirt,
                }]),
            }
        }
        vault
            .checkpoint(&[obj(&def, ColumnDirt::All, &bat)])
            .unwrap();
        assert_eq!(vault.stats().tile_files, 3);
        assert_eq!(vault.stats().tiles_rewritten, 3);
        // Only tile 1 dirty: exactly one file is rewritten.
        let bat2 = bat.clone();
        bat2.install_zone_map(gdk::ZoneMap::build(&bat2, 4));
        vault
            .checkpoint(&[obj(
                &def,
                ColumnDirt::Tiles(vec![false, true, false]),
                &bat2,
            )])
            .unwrap();
        let s = vault.stats();
        assert_eq!((s.tiles_rewritten, s.tiles_reused), (1, 2));
        drop(vault);
        // And the column survives the round-trip with its zone map.
        let (_vault, recovered) = Vault::open(&dir).unwrap();
        let col = &recovered.objects[0].columns.as_ref().unwrap()[0];
        assert_eq!(col.bat.as_ints().unwrap(), (0..10).collect::<Vec<_>>());
        let zm = col.bat.zone_map().expect("zone map installed on load");
        assert_eq!(zm.tile_rows, 4);
        assert_eq!(zm.entries.len(), 3);
        assert_eq!(zm.entries[1].min, Some(Value::Int(4)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_and_delete_records_roundtrip_through_the_wal() {
        let dir = tmp_dir("records");
        let strs = Bat::from_strs(vec![Some("b"), None, Some("b")]);
        let ops = [
            ReplayOp::Write {
                target: "t".into(),
                at: Candidates::Dense { first: 0, len: 3 },
                columns: vec![
                    (1, Arc::new(strs)),
                    (0, Arc::new(Bat::from_ints(vec![1, 2, 3]))),
                ],
            },
            ReplayOp::Delete {
                target: "t".into(),
                at: Candidates::List(vec![0, 2]),
            },
        ];
        {
            let (mut vault, _) = Vault::open(&dir).unwrap();
            vault
                .append_statement_nosync("CREATE TABLE t (a INT, s TEXT)")
                .unwrap();
            for op in &ops {
                vault.append_nosync(&encode_replay_op(op)).unwrap();
            }
        }
        let (_vault, recovered) = Vault::open(&dir).unwrap();
        assert_eq!(recovered.ops.len(), 3);
        for (want, got) in ops.iter().zip(&recovered.ops[1..]) {
            assert_eq!(format!("{want:?}"), format!("{got:?}"));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aborted_checkpoint_leaves_recoverable_state_and_no_orphans() {
        let dir = tmp_dir("fault");
        let (mut vault, _) = Vault::open(&dir).unwrap();
        let def = int_table("t");
        let bat = Bat::from_ints((0..10).collect());
        bat.install_zone_map(gdk::ZoneMap::build(&bat, 4));
        vault
            .append_statement_nosync("CREATE TABLE t (a INT)")
            .unwrap();
        vault.set_checkpoint_fault(2);
        let err = vault
            .checkpoint(&[CheckpointObject {
                def: &def,
                columns: Some(vec![CheckpointColumn {
                    name: "a",
                    bat: &bat,
                    dirt: ColumnDirt::All,
                }]),
            }])
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The failed checkpoint wrote 2 tile files nothing references.
        assert_eq!(fs::read_dir(dir.join("cols")).unwrap().count(), 2);
        assert_eq!(vault.generation(), 0);
        vault.gc_orphaned_tiles();
        assert_eq!(fs::read_dir(dir.join("cols")).unwrap().count(), 0);
        drop(vault);
        // Reopen: the WAL tail is intact, the vault is at generation 0.
        let (vault, recovered) = Vault::open(&dir).unwrap();
        assert_eq!(vault.generation(), 0);
        assert_eq!(recovered.ops.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
