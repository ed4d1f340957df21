//! The append-only logical write-ahead log.
//!
//! One WAL file exists per checkpoint generation and records, in order,
//! every mutating operation acknowledged since that checkpoint — the
//! text of a schema statement, or the positions and values a data change
//! stored (the payload tagging lives in the crate root; this module only
//! frames bytes).
//! Records are framed as
//!
//! ```text
//! [u32 payload length][u32 CRC-32 of payload][payload bytes]
//! ```
//!
//! after an 8-byte file header (`SWAL` magic + version). Every
//! [`WalWriter::append`] followed by [`WalWriter::sync`] is a *sync
//! point*: once `sync` returns, the record survives a crash. Recovery
//! reads records until the first incomplete or checksum-failing frame —
//! a torn tail from a crash mid-write — and truncates the file there, so
//! the log always ends on a record boundary.

use crate::{StoreError, StoreResult};
use gdk::codec::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

const WAL_MAGIC: [u8; 4] = *b"SWAL";
const WAL_VERSION: u16 = 3;
const HEADER_LEN: u64 = 8; // magic + version + 2 reserved bytes

/// Append handle on the active WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    records: u64,
    bytes: u64,
}

impl WalWriter {
    /// Create a fresh, empty WAL file (truncating any previous content)
    /// and durably write its header.
    pub fn create(path: &Path) -> StoreResult<Self> {
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&[0, 0]);
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            records: 0,
            bytes: HEADER_LEN,
        })
    }

    /// Open an existing WAL for appending after recovery validated it up
    /// to `valid_len` bytes (`records` whole records). Anything beyond —
    /// a torn tail — is truncated away first.
    pub fn open_valid(path: &Path, valid_len: u64, records: u64) -> StoreResult<Self> {
        if valid_len < HEADER_LEN {
            // The crash tore the header itself; extending with zeros would
            // leave bad magic that poisons the *next* open. Rewrite the
            // file from scratch instead.
            return Self::create(path);
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        let mut w = WalWriter {
            file,
            records,
            bytes: valid_len,
        };
        w.file.seek(SeekFrom::End(0))?;
        Ok(w)
    }

    /// Append one record. Not durable until the next [`WalWriter::sync`].
    pub fn append(&mut self, payload: &[u8]) -> StoreResult<()> {
        let len = u32::try_from(payload.len())
            .map_err(|_| StoreError::corrupt("WAL record too large"))?;
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Force everything appended so far to stable storage — a sync point.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Records appended to this generation's log (including recovered ones).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Valid byte length of the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// A shareable sync handle on this log's file, for a group-commit
    /// thread to fsync *outside* whatever lock guards the writer. The
    /// handle is a duplicated descriptor on the same open file, so
    /// [`WalSyncHandle::sync`] makes every byte appended before the call
    /// durable, exactly like [`WalWriter::sync`] would.
    pub fn sync_handle(&self) -> StoreResult<WalSyncHandle> {
        Ok(WalSyncHandle {
            file: Arc::new(self.file.try_clone()?),
        })
    }
}

/// A clonable fsync-only handle on a WAL file (see
/// [`WalWriter::sync_handle`]). Holding one keeps the underlying
/// descriptor open even across WAL rotation; syncing a stale handle is
/// harmless (the rotated file is already durable).
#[derive(Debug, Clone)]
pub struct WalSyncHandle {
    file: Arc<File>,
}

impl WalSyncHandle {
    /// Force everything appended to the log before this call to stable
    /// storage — the group-commit sync point.
    pub fn sync(&self) -> StoreResult<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Payloads of every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset of the end of the last intact record; everything after
    /// is a torn tail to truncate.
    pub valid_len: u64,
}

/// One framed WAL record with the byte offset its frame *ends* at — the
/// log position a replica reports once it has durably applied the
/// record. Because framing is deterministic (`[len][crc][payload]` after
/// a fixed header), a replica appending the same payload sequence to its
/// own log reaches the same end offsets as the primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Byte offset just past this record's frame.
    pub end: u64,
    /// The record payload.
    pub payload: Vec<u8>,
}

/// Read a WAL file, stopping at the first torn or corrupt frame.
pub fn scan_wal(path: &Path) -> StoreResult<WalScan> {
    scan_wal_for(path, None)
}

/// [`scan_wal`] with the owning data directory named in every error, so
/// recovery of a *replica's* log reports the replica's own data dir —
/// not the primary the records originally came from.
pub fn scan_wal_for(path: &Path, data_dir: Option<&Path>) -> StoreResult<WalScan> {
    let (records, valid_len) = scan_frames(path, data_dir)?;
    Ok(WalScan {
        records: records.into_iter().map(|r| r.payload).collect(),
        valid_len,
    })
}

/// Read the intact records whose frames lie in the byte range
/// `[from, to)` of the log, with end offsets — the primary's
/// WAL-shipping tail read. `from` must be a record boundary (the header
/// length, or some record's end); only the bytes of the range are read
/// and checksummed, so a ship costs what was written since the last one,
/// not the whole log. Pass `u64::MAX` as `to` to read to the end of the
/// file. A torn tail ends the read cleanly; a checksum failure with
/// intact bytes after it inside the range is corruption, exactly as in
/// recovery.
pub fn read_wal_from(path: &Path, from: u64, to: u64) -> StoreResult<Vec<WalRecord>> {
    if from < HEADER_LEN {
        // From the top: the header needs checking too.
        let (mut records, _) = scan_frames(path, None)?;
        records.retain(|r| r.end <= to);
        return Ok(records);
    }
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(from))?;
    let mut buf = Vec::new();
    file.take(to.saturating_sub(from)).read_to_end(&mut buf)?;
    Ok(parse_frames(&buf, from, path, None)?.0)
}

fn in_dir(data_dir: Option<&Path>) -> String {
    match data_dir {
        Some(d) => format!(" (data dir {})", d.display()),
        None => String::new(),
    }
}

fn scan_frames(path: &Path, data_dir: Option<&Path>) -> StoreResult<(Vec<WalRecord>, u64)> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if buf.len() < HEADER_LEN as usize {
        // Crash during header write: treat as an empty log.
        return Ok((Vec::new(), 0));
    }
    if buf[..4] != WAL_MAGIC {
        return Err(StoreError::corrupt(format!(
            "WAL {} has bad magic{}",
            path.display(),
            in_dir(data_dir)
        )));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != WAL_VERSION {
        return Err(StoreError::corrupt(format!(
            "WAL {} has unsupported version {version}{}",
            path.display(),
            in_dir(data_dir)
        )));
    }
    parse_frames(&buf[HEADER_LEN as usize..], HEADER_LEN, path, data_dir)
}

/// Parse the frames in `buf`, which holds the log's bytes from file
/// offset `base` on. Returns the intact records and the file offset the
/// last one ends at.
fn parse_frames(
    buf: &[u8],
    base: u64,
    path: &Path,
    data_dir: Option<&Path>,
) -> StoreResult<(Vec<WalRecord>, u64)> {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut pos = 0usize;
    loop {
        if buf.len() - pos < 8 {
            break; // incomplete frame header
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if buf.len() - pos - 8 < len {
            break; // payload torn off mid-write
        }
        let payload = &buf[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            // At the physical end of the file this is a torn tail — a
            // record that crashed mid-write and was never acknowledged —
            // and truncating it is the correct recovery. With intact
            // bytes *following* the bad frame, it is corruption of
            // acknowledged data; silently dropping the rest of the log
            // would lose synced statements, so fail loudly instead.
            let frame_end = pos + 8 + len;
            if frame_end < buf.len() {
                return Err(StoreError::corrupt(format!(
                    "WAL {} record {} at byte offset {} failed its checksum with {} \
                     intact bytes after it — mid-log corruption, not a torn tail{}",
                    path.display(),
                    records.len(),
                    base + pos as u64,
                    buf.len() - frame_end,
                    in_dir(data_dir)
                )));
            }
            break; // torn tail: stop replay at the last sync point
        }
        pos += 8 + len;
        records.push(WalRecord {
            end: base + pos as u64,
            payload: payload.to_vec(),
        });
    }
    Ok((records, base + pos as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "sciql-wal-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn append_scan_roundtrip() {
        let p = tmp("roundtrip.log");
        let mut w = WalWriter::create(&p).unwrap();
        w.append(b"CREATE TABLE t (a INT)").unwrap();
        w.append(b"INSERT INTO t VALUES (1)").unwrap();
        w.sync().unwrap();
        let scan = scan_wal(&p).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], b"CREATE TABLE t (a INT)");
        assert_eq!(scan.valid_len, w.bytes());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_appendable() {
        let p = tmp("torn.log");
        let mut w = WalWriter::create(&p).unwrap();
        w.append(b"good one").unwrap();
        w.sync().unwrap();
        let good_len = w.bytes();
        drop(w);
        // Simulate a crash mid-record: a frame header claiming 100 bytes
        // followed by only a few.
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(b"stub").unwrap();
        drop(f);
        let scan = scan_wal(&p).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, good_len);
        // Reopening truncates the tail and appends cleanly after it.
        let mut w = WalWriter::open_valid(&p, scan.valid_len, 1).unwrap();
        w.append(b"after recovery").unwrap();
        w.sync().unwrap();
        let scan = scan_wal(&p).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1], b"after recovery");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_header_is_rewritten_not_zero_padded() {
        let p = tmp("torn-header.log");
        // Crash mid-header: only 3 of the 8 header bytes made it to disk.
        std::fs::write(&p, b"SWA").unwrap();
        let scan = scan_wal(&p).unwrap();
        assert_eq!((scan.records.len(), scan.valid_len), (0, 0));
        let mut w = WalWriter::open_valid(&p, scan.valid_len, 0).unwrap();
        w.append(b"first after header loss").unwrap();
        w.sync().unwrap();
        drop(w);
        // The next open must see a valid header and the record.
        let scan = scan_wal(&p).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0], b"first after header loss");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn corrupt_tail_record_is_dropped() {
        let p = tmp("corrupt.log");
        let mut w = WalWriter::create(&p).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip a byte inside the *last* record's payload: physically
        // indistinguishable from a crash mid-write, so it is dropped.
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let scan = scan_wal(&p).unwrap();
        assert_eq!(scan.records.len(), 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_silent_truncation() {
        let p = tmp("midlog.log");
        let mut w = WalWriter::create(&p).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second acknowledged statement").unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip a byte inside the *first* record's payload: acknowledged
        // data follows it, so recovery must refuse rather than silently
        // discard the tail.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[HEADER_LEN as usize + 9] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(scan_wal(&p), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&p).ok();
    }

    /// A log of `n` records `rec-0 … rec-{n-1}`, synced.
    fn log_of(name: &str, n: usize) -> (std::path::PathBuf, WalWriter) {
        let p = tmp(name);
        let mut w = WalWriter::create(&p).unwrap();
        for i in 0..n {
            w.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        w.sync().unwrap();
        (p, w)
    }

    #[test]
    fn tail_read_from_mid_log_matches_full_scan() {
        let (p, w) = log_of("tail-mid.log", 6);
        let full = read_wal_from(&p, 0, u64::MAX).unwrap();
        assert_eq!(full.len(), 6);
        assert_eq!(full.last().unwrap().end, w.bytes());
        for k in 0..full.len() {
            let tail = read_wal_from(&p, full[k].end, u64::MAX).unwrap();
            assert_eq!(tail, full[k + 1..], "tail after record {k}");
        }
        // A capped read stops at the cap, on a record boundary.
        let capped = read_wal_from(&p, full[1].end, full[4].end).unwrap();
        assert_eq!(capped, full[2..5]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn tail_read_stops_cleanly_at_a_torn_tail() {
        let (p, w) = log_of("tail-torn.log", 3);
        let good = w.bytes();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(&50u32.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"half a rec").unwrap();
        drop(f);
        let full = read_wal_from(&p, 0, u64::MAX).unwrap();
        assert_eq!(full.len(), 3);
        assert_eq!(full[2].end, good);
        let tail = read_wal_from(&p, full[0].end, u64::MAX).unwrap();
        assert_eq!(tail, full[1..]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn tail_read_reports_mid_log_corruption() {
        let (p, w) = log_of("tail-crc.log", 4);
        let full = read_wal_from(&p, 0, u64::MAX).unwrap();
        drop(w);
        // Flip a payload byte of record 2: record 3 stays intact after it.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[full[1].end as usize + 9] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_wal_from(&p, full[0].end, u64::MAX),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(scan_wal(&p), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn tail_read_at_end_of_file_is_empty() {
        let (p, w) = log_of("tail-end.log", 2);
        assert!(read_wal_from(&p, w.bytes(), u64::MAX).unwrap().is_empty());
        assert!(read_wal_from(&p, w.bytes(), w.bytes()).unwrap().is_empty());
        std::fs::remove_file(&p).ok();
    }
}
