//! COPY bulk ingest: `COPY <target> FROM '<path>' (FORMAT csv|binary)`.
//!
//! The streaming path of the tiled store. Rows are read from the source
//! file and applied in batches of one tile ([`gdk::zonemap::TILE_ROWS`]
//! rows): each batch is one data change through `Connection::change` —
//! stored in memory (only the tiles the new rows land in are marked
//! dirty) and logged as the same **one** `Write` record every other data
//! change uses — so a million-row load costs hundreds of WAL records
//! instead of a million, and recovery replays the batches bit-for-bit
//! without re-reading the source file. The records are appended unsynced;
//! the COPY's commit ticket is its last batch's position, so the whole
//! load costs the fsync of one write.
//!
//! Targets: a **table** appends the rows; an **array** overwrites its
//! attribute values in row-major cell order and requires exactly
//! `cell_count` rows. After a COPY the affected columns carry fresh zone
//! maps, so tile-skipping scans work immediately (not only after a
//! checkpoint round trip).
//!
//! Batches are the atomicity unit — COPY is the one statement that can
//! partly apply: a parse error in batch *n* leaves batches `0..n` applied
//! *and logged*, and the COPY's ticket is redeemed on error too, so
//! durable state never diverges from memory. A batch whose append fails
//! is captured by a checkpoint instead, as for every data change.

use crate::session::Connection;
use crate::{EngineError, Result};
use gdk::codec::{decode_bat, encode_bat};
use gdk::zonemap::TILE_ROWS;
use gdk::{Bat, Candidates, Oid, ScalarType, Value};
use sciql_obs::Tracer;
use sciql_parser::ast::CopyFormat;
use std::io::{BufRead, Read as _};
use std::path::Path;
use std::sync::Arc;

/// Magic of the binary COPY file format: `SCPY`, u16 version, u32 column
/// count, then per column `[u32 len][gdk::codec::encode_bat bytes]`.
const COPY_MAGIC: [u8; 4] = *b"SCPY";
const COPY_VERSION: u16 = 1;

/// Write aligned columns as a binary COPY file — the format
/// `COPY … (FORMAT binary)` ingests. Exposed so tests, benches and the
/// examples can produce ingest files without a CSV detour.
pub fn write_copy_binary(path: impl AsRef<Path>, cols: &[Bat]) -> Result<()> {
    let rows = cols.first().map_or(0, |b| b.len());
    if cols.iter().any(|b| b.len() != rows) {
        return Err(EngineError::msg("binary COPY columns are not aligned"));
    }
    let mut out = Vec::new();
    out.extend_from_slice(&COPY_MAGIC);
    out.extend_from_slice(&COPY_VERSION.to_le_bytes());
    out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    for b in cols {
        let bytes = encode_bat(b);
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    std::fs::write(path, out).map_err(|e| EngineError::msg(format!("binary COPY write: {e}")))
}

fn read_copy_binary(path: &str, ncols: usize) -> Result<Vec<Bat>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| EngineError::msg(format!("COPY source {path:?}: {e}")))?;
    let bad = |what: String| EngineError::msg(format!("COPY source {path:?}: {what}"));
    if bytes.len() < 10 || bytes[..4] != COPY_MAGIC {
        return Err(bad("not a binary COPY file (bad magic)".into()));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != COPY_VERSION {
        return Err(bad(format!("unsupported binary COPY version {version}")));
    }
    let n = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    if n != ncols {
        return Err(bad(format!("file has {n} columns, target has {ncols}")));
    }
    let mut cols = Vec::with_capacity(n);
    let mut pos = 10usize;
    for k in 0..n {
        if bytes.len() - pos < 4 {
            return Err(bad(format!("truncated at column {k} (byte offset {pos})")));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if bytes.len() - pos < len {
            return Err(bad(format!("truncated at column {k} (byte offset {pos})")));
        }
        let b = decode_bat(&bytes[pos..pos + len])
            .map_err(|e| bad(format!("column {k} (byte offset {pos}): {e}")))?;
        pos += len;
        cols.push(b);
    }
    let rows = cols.first().map_or(0, |b| b.len());
    if cols.iter().any(|b| b.len() != rows) {
        return Err(bad("columns are not aligned".into()));
    }
    Ok(cols)
}

/// Split one CSV line into `(field, was_quoted)` pairs: comma-separated,
/// double-quote quoting with `""` as the escaped quote.
fn csv_fields(line: &str) -> Vec<(String, bool)> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut saw_quote = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' => {
                quoted = true;
                saw_quote = true;
            }
            ',' if !quoted => {
                fields.push((std::mem::take(&mut cur), saw_quote));
                saw_quote = false;
            }
            c => cur.push(c),
        }
    }
    fields.push((cur, saw_quote));
    fields
}

/// Parse one CSV field by target column type. Empty fields and the bare
/// word `NULL` (unquoted, any case) are nil; quoting protects literal
/// `NULL` strings.
fn parse_field(raw: &str, quoted: bool, ty: ScalarType) -> Option<Value> {
    let t = raw.trim();
    if !quoted && (t.is_empty() || t.eq_ignore_ascii_case("null")) {
        return Some(Value::Null);
    }
    match ty {
        ScalarType::Str => Some(Value::Str(raw.to_owned())),
        ScalarType::Bit => match t.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Some(Value::Bit(true)),
            "false" | "f" | "0" => Some(Value::Bit(false)),
            _ => None,
        },
        ScalarType::OidT => t.parse::<Oid>().ok().map(Value::Oid),
        ScalarType::Int | ScalarType::Lng | ScalarType::Dbl => Value::Str(t.to_owned()).cast(ty),
    }
}

impl Connection {
    /// Execute `COPY target FROM path (FORMAT …)`; returns rows ingested.
    pub(crate) fn copy_into(
        &mut self,
        target: &str,
        path: &str,
        format: CopyFormat,
        tracer: &mut Tracer,
    ) -> Result<usize> {
        let key = target.to_ascii_lowercase();
        let types: Vec<ScalarType> = (self.stored(target)?.iter())
            .map(|c| c.tail_type())
            .collect();
        let mut total = 0usize;
        match format {
            CopyFormat::Binary => {
                let cols = read_copy_binary(path, types.len())?;
                total = self.ingest_tiles(&key, &cols, tracer)?;
            }
            CopyFormat::Csv => {
                let file = std::fs::File::open(path)
                    .map_err(|e| EngineError::msg(format!("COPY source {path:?}: {e}")))?;
                let reader = std::io::BufReader::new(file);
                let fresh = |types: &[ScalarType]| -> Vec<Bat> {
                    types
                        .iter()
                        .map(|&ty| Bat::with_capacity(ty, TILE_ROWS))
                        .collect()
                };
                let mut batch = fresh(&types);
                let mut rows_in_batch = 0usize;
                for (lineno, line) in reader.lines().enumerate() {
                    let line =
                        line.map_err(|e| EngineError::msg(format!("COPY source {path:?}: {e}")))?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    let fields = csv_fields(&line);
                    if fields.len() != types.len() {
                        return Err(EngineError::msg(format!(
                            "COPY source {path:?} line {}: {} fields, target has {} columns",
                            lineno + 1,
                            fields.len(),
                            types.len()
                        )));
                    }
                    for (((f, quoted), &ty), b) in fields.iter().zip(&types).zip(batch.iter_mut()) {
                        let v = parse_field(f, *quoted, ty).ok_or_else(|| {
                            EngineError::msg(format!(
                                "COPY source {path:?} line {}: {f:?} is not a {}",
                                lineno + 1,
                                ty.name()
                            ))
                        })?;
                        b.push(&v).map_err(EngineError::Gdk)?;
                    }
                    rows_in_batch += 1;
                    if rows_in_batch == TILE_ROWS {
                        let full = std::mem::replace(&mut batch, fresh(&types));
                        total += self.ingest(&key, total, full, tracer)?;
                        rows_in_batch = 0;
                    }
                }
                if rows_in_batch > 0 {
                    total += self.ingest(&key, total, batch, tracer)?;
                }
            }
        }
        if let Some(a) = self.image.arrays.get(&key) {
            let cells = a.cell_count();
            if total != cells {
                return Err(EngineError::msg(format!(
                    "COPY into array {target:?} supplied {total} rows, array has {cells} cells \
                     (the overwritten prefix stays applied)"
                )));
            }
        }
        self.install_zone_maps(&key);
        Ok(total)
    }

    /// Store the aligned columns `cols` into `key` tile by tile, so each
    /// WAL record stays one tile: one logged change per [`TILE_ROWS`]
    /// rows (see [`Connection::ingest`]). Returns the rows stored. A
    /// binary COPY and [`Connection::bulk_load_array`] both store
    /// through this.
    pub(crate) fn ingest_tiles(
        &mut self,
        key: &str,
        cols: &[Bat],
        tracer: &mut Tracer,
    ) -> Result<usize> {
        let rows = cols.first().map_or(0, |b| b.len());
        let mut total = 0usize;
        while total < rows {
            let end = (total + TILE_ROWS).min(rows);
            let batch: Vec<Bat> = cols
                .iter()
                .map(|b| gdk::project::slice(b, total, end))
                .collect::<std::result::Result<_, _>>()
                .map_err(EngineError::Gdk)?;
            total += self.ingest(key, total, batch, tracer)?;
        }
        Ok(total)
    }

    /// Store one batch as one logged change: appended to a table, or
    /// written to an array's cells from `done` — the rows already
    /// ingested — on, in row-major order.
    fn ingest(
        &mut self,
        key: &str,
        done: usize,
        batch: Vec<Bat>,
        tracer: &mut Tracer,
    ) -> Result<usize> {
        let len = batch.first().map_or(0, |b| b.len());
        let first = self.image.tables.get(key).map_or(done, |t| t.row_count()) as Oid;
        let writes = batch.into_iter().map(Arc::new).enumerate().collect();
        self.write(key, Candidates::Dense { first, len }, writes, tracer)?;
        Ok(len)
    }

    /// Build fresh zone maps on the target's stored columns (a table's
    /// columns, an array's attributes) so tile-skipping scans work
    /// immediately after ingest.
    pub(crate) fn install_zone_maps(&self, key: &str) {
        let cols = (self.image.tables.get(key).map(|t| &t.cols))
            .or_else(|| self.image.arrays.get(key).map(|a| &a.attrs));
        for c in cols.into_iter().flatten().filter(|c| !c.is_empty()) {
            c.ensure_zone_map(TILE_ROWS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_line_splitting() {
        let plain = |s: &str| (s.to_owned(), false);
        assert_eq!(
            csv_fields("1,2,3"),
            vec![plain("1"), plain("2"), plain("3")]
        );
        assert_eq!(
            csv_fields(r#"1,"a,b","say ""hi""""#),
            vec![
                plain("1"),
                ("a,b".into(), true),
                (r#"say "hi""#.into(), true)
            ]
        );
        assert_eq!(csv_fields("x,,z"), vec![plain("x"), plain(""), plain("z")]);
    }

    #[test]
    fn field_parsing_honours_types_and_nil() {
        assert_eq!(
            parse_field("42", false, ScalarType::Int),
            Some(Value::Int(42))
        );
        assert_eq!(parse_field("", false, ScalarType::Int), Some(Value::Null));
        assert_eq!(
            parse_field("NULL", false, ScalarType::Dbl),
            Some(Value::Null)
        );
        assert_eq!(
            parse_field("NULL", true, ScalarType::Str),
            Some(Value::Str("NULL".into()))
        );
        assert_eq!(parse_field("x", false, ScalarType::Int), None);
        assert_eq!(
            parse_field("true", false, ScalarType::Bit),
            Some(Value::Bit(true))
        );
        assert_eq!(
            parse_field("7", false, ScalarType::OidT),
            Some(Value::Oid(7))
        );
    }
}
