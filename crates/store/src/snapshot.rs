//! Checkpoint snapshot files.
//!
//! A snapshot is the durable image of one checkpoint generation: the full
//! catalog (every [`SchemaObject`], serialized via `sciql-catalog`'s
//! binary serde) plus, per materialised object, the list of *tile* files
//! holding its BATs. A column is stored as a sequence of fixed-size tiles
//! (`cols/c<id>.col`, one encoded BAT fragment each) and the snapshot
//! carries each tile's zone-map statistics — row count, nil count,
//! min/max — so scans can skip tiles without touching their files and
//! checkpoints can rewrite only the tiles that changed.
//!
//! Framing: `SNAP` magic, format version, payload, trailing CRC-32. The
//! file is written to a temporary name and atomically renamed into place.

use crate::{StoreError, StoreResult};
use gdk::codec::{
    crc32, decode_value, encode_value, put_str, put_u16, put_u32, put_u64, put_u8, Reader,
};
use gdk::Value;
use sciql_catalog::serde::{decode_object, encode_object};
use sciql_catalog::SchemaObject;
use std::fs::File;
use std::io::Read as _;
use std::path::Path;

const SNAP_MAGIC: [u8; 4] = *b"SNAP";
/// Format version. Version 3 stores an array's attributes only (its
/// dimensions are their specs in the catalog); older snapshots, which also
/// stored dimension columns, are refused by this number.
const SNAP_VERSION: u16 = 3;

/// One tile of a persisted column: the file id of its encoded BAT
/// fragment plus the zone-map statistics recorded at checkpoint time.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotTile {
    /// Tile file id (`cols/c<id>.col`).
    pub id: u64,
    /// Rows in this tile.
    pub rows: u64,
    /// Nil rows in this tile.
    pub nils: u64,
    /// Smallest non-nil value; [`Value::Null`] when the tile is all nil.
    pub min: Value,
    /// Largest non-nil value; [`Value::Null`] when the tile is all nil.
    pub max: Value,
}

/// One persisted column: its name, the tile size it was split with, and
/// its tiles in row order.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotColumn {
    /// Column name (array attribute or table column).
    pub name: String,
    /// Tile size (rows per tile) used to split this column.
    pub tile_rows: u32,
    /// Tiles in row order (tile 0 holds rows `0..tile_rows`).
    pub tiles: Vec<SnapshotTile>,
}

/// One object in a snapshot: its definition and, when materialised, the
/// ordered column list (arrays: attributes; tables: columns).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotObject {
    /// Schema definition.
    pub def: SchemaObject,
    /// Columns in storage order; `None` for catalog-only objects
    /// (unbounded arrays not yet materialised).
    pub columns: Option<Vec<SnapshotColumn>>,
}

/// The decoded content of a snapshot file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotData {
    /// Next unused tile file id.
    pub next_col_id: u64,
    /// All schema objects at checkpoint time.
    pub objects: Vec<SnapshotObject>,
}

/// Serialize and atomically write a snapshot to `path`.
pub fn write_snapshot(path: &Path, data: &SnapshotData) -> StoreResult<()> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAP_MAGIC);
    put_u16(&mut out, SNAP_VERSION);
    put_u64(&mut out, data.next_col_id);
    put_u32(&mut out, data.objects.len() as u32);
    for obj in &data.objects {
        encode_object(&obj.def, &mut out);
        match &obj.columns {
            None => put_u8(&mut out, 0),
            Some(cols) => {
                put_u8(&mut out, 1);
                put_u32(&mut out, cols.len() as u32);
                for col in cols {
                    put_str(&mut out, &col.name);
                    put_u32(&mut out, col.tile_rows);
                    put_u32(&mut out, col.tiles.len() as u32);
                    for t in &col.tiles {
                        put_u64(&mut out, t.id);
                        put_u64(&mut out, t.rows);
                        put_u64(&mut out, t.nils);
                        encode_value(&t.min, &mut out);
                        encode_value(&t.max, &mut out);
                    }
                }
            }
        }
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    crate::write_file_durably(path, &out)
}

/// Read and verify a snapshot file.
pub fn read_snapshot(path: &Path) -> StoreResult<SnapshotData> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 4 + 2 + 8 + 4 + 4 {
        return Err(StoreError::corrupt(format!(
            "snapshot {} truncated at byte {} (header incomplete)",
            path.display(),
            bytes.len()
        )));
    }
    let (content, tail) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(tail.try_into().unwrap());
    let actual = crc32(content);
    if expected != actual {
        return Err(StoreError::corrupt(format!(
            "snapshot {} checksum mismatch over bytes 0..{}",
            path.display(),
            content.len()
        )));
    }
    let mut r = Reader::new(content);
    let magic = r.take(4)?;
    if magic != SNAP_MAGIC {
        return Err(StoreError::corrupt(format!(
            "snapshot {} has bad magic at byte 0",
            path.display()
        )));
    }
    let version = r.u16()?;
    if version != SNAP_VERSION {
        return Err(StoreError::corrupt(format!(
            "snapshot {} has unsupported version {version}",
            path.display()
        )));
    }
    let next_col_id = r.u64()?;
    let n = r.u32()? as usize;
    let mut objects = Vec::with_capacity(n);
    for _ in 0..n {
        let def = decode_object(&mut r)?;
        let columns = match r.u8()? {
            0 => None,
            1 => {
                let nc = r.u32()? as usize;
                let mut cols = Vec::with_capacity(nc);
                for _ in 0..nc {
                    let name = r.str()?;
                    let tile_rows = r.u32()?;
                    let nt = r.u32()? as usize;
                    let mut tiles = Vec::with_capacity(nt);
                    for _ in 0..nt {
                        tiles.push(SnapshotTile {
                            id: r.u64()?,
                            rows: r.u64()?,
                            nils: r.u64()?,
                            min: decode_value(&mut r)?,
                            max: decode_value(&mut r)?,
                        });
                    }
                    cols.push(SnapshotColumn {
                        name,
                        tile_rows,
                        tiles,
                    });
                }
                Some(cols)
            }
            other => {
                return Err(StoreError::corrupt(format!(
                    "snapshot {}: bad column flag {other}",
                    path.display()
                )))
            }
        };
        objects.push(SnapshotObject { def, columns });
    }
    if r.remaining() != 0 {
        return Err(StoreError::corrupt(format!(
            "snapshot {} has {} trailing bytes",
            path.display(),
            r.remaining()
        )));
    }
    Ok(SnapshotData {
        next_col_id,
        objects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdk::ScalarType;
    use sciql_catalog::{ArrayDef, ColumnMeta, DimSpec, DimensionDef, TableDef};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "sciql-snap-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample() -> SnapshotData {
        SnapshotData {
            next_col_id: 7,
            objects: vec![
                SnapshotObject {
                    def: SchemaObject::Array(ArrayDef {
                        name: "m".into(),
                        dims: vec![DimensionDef {
                            name: "x".into(),
                            ty: ScalarType::Int,
                            range: Some(DimSpec::new(0, 1, 4).unwrap()),
                        }],
                        attrs: vec![ColumnMeta {
                            name: "v".into(),
                            ty: ScalarType::Int,
                            default: None,
                        }],
                    }),
                    columns: Some(vec![
                        SnapshotColumn {
                            name: "x".into(),
                            tile_rows: 4,
                            tiles: vec![SnapshotTile {
                                id: 3,
                                rows: 4,
                                nils: 0,
                                min: Value::Int(0),
                                max: Value::Int(3),
                            }],
                        },
                        SnapshotColumn {
                            name: "v".into(),
                            tile_rows: 4,
                            tiles: vec![
                                SnapshotTile {
                                    id: 5,
                                    rows: 4,
                                    nils: 1,
                                    min: Value::Dbl(-1.5),
                                    max: Value::Str("zz".into()),
                                },
                                SnapshotTile {
                                    id: 6,
                                    rows: 2,
                                    nils: 2,
                                    min: Value::Null,
                                    max: Value::Null,
                                },
                            ],
                        },
                    ]),
                },
                SnapshotObject {
                    def: SchemaObject::Table(TableDef {
                        name: "t".into(),
                        columns: vec![],
                    }),
                    columns: Some(vec![]),
                },
                SnapshotObject {
                    def: SchemaObject::Array(ArrayDef {
                        name: "unbounded".into(),
                        dims: vec![DimensionDef {
                            name: "i".into(),
                            ty: ScalarType::Int,
                            range: None,
                        }],
                        attrs: vec![ColumnMeta {
                            name: "v".into(),
                            ty: ScalarType::Dbl,
                            default: None,
                        }],
                    }),
                    columns: None,
                },
            ],
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let p = tmp("roundtrip.cat");
        let data = sample();
        write_snapshot(&p, &data).unwrap();
        assert_eq!(read_snapshot(&p).unwrap(), data);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn snapshot_corruption_detected() {
        let p = tmp("corrupt.cat");
        write_snapshot(&p, &sample()).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&p, &bytes).unwrap();
        let err = read_snapshot(&p).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains("corrupt.cat"), "error names the file: {err}");
        std::fs::remove_file(&p).ok();
    }
}
