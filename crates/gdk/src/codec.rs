//! Versioned binary codec for columns and scalar values.
//!
//! This is the wire format of the durable BAT vault (`sciql-store`): every
//! GDK column type — the numeric vectors, void heads, nil sentinels and
//! dictionary-encoded string columns — round-trips bit-exactly through
//! [`encode_bat`] / [`decode_bat`]. Each encoded column carries a magic
//! tag, a format version and a trailing CRC-32 checksum so a torn or
//! corrupted file is detected at load time instead of silently producing
//! wrong answers.
//!
//! The typed payload between that framing is one column *body*
//! ([`put_column`] / [`read_column`]), and it is the only column
//! encoding in the system: vault tiles, binary COPY files and the result
//! pages `sciql-net` streams are all made of it.
//!
//! All integers are little-endian. Doubles travel as their IEEE-754 bit
//! pattern (`f64::to_bits`), which preserves the NaN nil sentinel exactly.

use crate::bat::{Bat, ColumnData};
use crate::strheap::{StrHeap, STR_NIL_IDX};
use crate::types::ScalarType;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Magic prefix of an encoded column.
pub const BAT_MAGIC: [u8; 4] = *b"SBAT";
/// Current column format version.
pub const BAT_VERSION: u16 = 1;

/// Errors raised while decoding persisted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    Truncated,
    /// The magic prefix did not match.
    BadMagic([u8; 4]),
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The trailing checksum did not match the content.
    Checksum {
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
    /// Structurally invalid content.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("input truncated"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Checksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: file says {expected:#010x}, content is {actual:#010x}"
                )
            }
            CodecError::Invalid(m) => write!(f, "invalid content: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Codec result type.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — the per-column checksum.
// ---------------------------------------------------------------------------

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE) of `bytes`, sixteen bytes per step (slicing-by-16).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for b in &mut chunks {
        let a = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize];
        for (j, &byte) in b[4..].iter().enumerate() {
            c ^= t[11 - j][byte as usize];
        }
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Primitive little-endian writers (plain helpers over Vec<u8>).
// ---------------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
/// Append a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(
        out,
        u32::try_from(s.len()).expect("string too long for codec"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// Sequential reader over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> CodecResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Invalid("non-UTF-8 string".into()))
    }

    /// Read a `usize` encoded as `u64`, rejecting values that do not fit.
    pub fn read_len(&mut self) -> CodecResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("length overflow".into()))
    }
}

// ---------------------------------------------------------------------------
// Scalar types and boxed values.
// ---------------------------------------------------------------------------

/// Stable on-disk tag of a scalar type.
pub fn type_tag(t: ScalarType) -> u8 {
    match t {
        ScalarType::Bit => 0,
        ScalarType::Int => 1,
        ScalarType::Lng => 2,
        ScalarType::Dbl => 3,
        ScalarType::OidT => 4,
        ScalarType::Str => 5,
    }
}

/// Inverse of [`type_tag`].
pub fn type_from_tag(tag: u8) -> CodecResult<ScalarType> {
    Ok(match tag {
        0 => ScalarType::Bit,
        1 => ScalarType::Int,
        2 => ScalarType::Lng,
        3 => ScalarType::Dbl,
        4 => ScalarType::OidT,
        5 => ScalarType::Str,
        other => return Err(CodecError::Invalid(format!("unknown type tag {other}"))),
    })
}

/// Encode one boxed scalar value (used for catalog DEFAULTs).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bit(b) => {
            put_u8(out, 1);
            put_u8(out, *b as u8);
        }
        Value::Int(x) => {
            put_u8(out, 2);
            put_u32(out, *x as u32);
        }
        Value::Lng(x) => {
            put_u8(out, 3);
            put_i64(out, *x);
        }
        Value::Dbl(x) => {
            put_u8(out, 4);
            put_u64(out, x.to_bits());
        }
        Value::Oid(x) => {
            put_u8(out, 5);
            put_u64(out, *x);
        }
        Value::Str(s) => {
            put_u8(out, 6);
            put_str(out, s);
        }
    }
}

/// Decode one boxed scalar value.
pub fn decode_value(r: &mut Reader<'_>) -> CodecResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bit(r.u8()? != 0),
        2 => Value::Int(r.u32()? as i32),
        3 => Value::Lng(r.i64()?),
        4 => Value::Dbl(f64::from_bits(r.u64()?)),
        5 => Value::Oid(r.u64()?),
        6 => Value::Str(r.str()?),
        other => return Err(CodecError::Invalid(format!("unknown value tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Column bodies: the one typed encoding of vault tiles, binary COPY files
// and result pages.
// ---------------------------------------------------------------------------

const TAG_VOID: u8 = 0;
const TAG_BIT: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_LNG: u8 = 3;
const TAG_DBL: u8 = 4;
const TAG_OID: u8 = 5;
const TAG_STR: u8 = 6;

/// Which dictionary a string column body carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrDict {
    /// The column's heap as stored, every entry in index order: a
    /// whole-column body is then the vault tile payload byte for byte.
    Stored,
    /// Only the entries the encoded rows use, numbered in first-use
    /// order — what a result page carries, so a page never drags along
    /// the heap of the column it was projected from.
    Used,
}

/// Append rows `rows` of `data` as one column body: a type tag, then
/// either `seq:u64 len:u64` for a void column (its sequence from
/// `rows.start` on) or `n:u64` and the `n` cells as little-endian
/// fixed-width values — nil sentinels in place, doubles as their IEEE
/// bits — where a string column's cells are `u32` dictionary indices
/// followed by the dictionary (`count:u64`, then length-prefixed
/// entries; see [`StrDict`]).
pub fn put_column(data: &ColumnData, rows: Range<usize>, dict: StrDict, out: &mut Vec<u8>) {
    match data {
        ColumnData::Void { seq, .. } => {
            put_u8(out, TAG_VOID);
            put_u64(out, seq + rows.start as u64);
            put_u64(out, rows.len() as u64);
        }
        ColumnData::Bit(v) => put_fixed(out, TAG_BIT, &v[rows], |x| [*x as u8]),
        ColumnData::Int(v) => put_fixed(out, TAG_INT, &v[rows], |x| x.to_le_bytes()),
        ColumnData::Lng(v) => put_fixed(out, TAG_LNG, &v[rows], |x| x.to_le_bytes()),
        ColumnData::Dbl(v) => put_fixed(out, TAG_DBL, &v[rows], |x| x.to_bits().to_le_bytes()),
        ColumnData::Oid(v) => put_fixed(out, TAG_OID, &v[rows], |x| x.to_le_bytes()),
        ColumnData::Str { idx, heap } => match dict {
            StrDict::Stored => {
                put_fixed(out, TAG_STR, &idx[rows], |x| x.to_le_bytes());
                encode_strheap(heap, out);
            }
            StrDict::Used => {
                let mut local: HashMap<u32, u32> = HashMap::new();
                let mut used: Vec<&str> = Vec::new();
                let idx: Vec<u32> = idx[rows]
                    .iter()
                    .map(|&i| match heap.get(i) {
                        None => STR_NIL_IDX,
                        Some(s) => *local.entry(i).or_insert_with(|| {
                            used.push(s);
                            used.len() as u32 - 1
                        }),
                    })
                    .collect();
                put_fixed(out, TAG_STR, &idx, |x| x.to_le_bytes());
                put_u64(out, used.len() as u64);
                for s in used {
                    put_str(out, s);
                }
            }
        },
    }
}

/// Tag, count, then each value's `W` bytes.
fn put_fixed<T, const W: usize>(
    out: &mut Vec<u8>,
    tag: u8,
    vals: &[T],
    bytes: impl Fn(&T) -> [u8; W],
) {
    put_u8(out, tag);
    put_u64(out, vals.len() as u64);
    let at = out.len();
    out.resize(at + vals.len() * W, 0);
    for (dst, x) in out[at..].chunks_exact_mut(W).zip(vals) {
        dst.copy_from_slice(&bytes(x));
    }
}

/// Read one column body written by [`put_column`]. Every count is
/// checked against the bytes that remain before anything is allocated;
/// an unknown tag, a void sequence running past `u64::MAX` and a string
/// index beyond its dictionary are errors.
pub fn read_column(r: &mut Reader<'_>) -> CodecResult<ColumnData> {
    Ok(match r.u8()? {
        TAG_VOID => {
            let seq = r.u64()?;
            let len = r.read_len()?;
            if seq.checked_add(len as u64).is_none() {
                return Err(CodecError::Invalid(format!(
                    "void sequence {seq} + {len} overflows"
                )));
            }
            ColumnData::Void { seq, len }
        }
        TAG_BIT => ColumnData::Bit(read_fixed(r, |[b]: [u8; 1]| b as i8)?),
        TAG_INT => ColumnData::Int(read_fixed(r, i32::from_le_bytes)?),
        TAG_LNG => ColumnData::Lng(read_fixed(r, i64::from_le_bytes)?),
        TAG_DBL => ColumnData::Dbl(read_fixed(r, |b| f64::from_bits(u64::from_le_bytes(b)))?),
        TAG_OID => ColumnData::Oid(read_fixed(r, u64::from_le_bytes)?),
        TAG_STR => {
            let idx = read_fixed(r, u32::from_le_bytes)?;
            let heap = decode_strheap(r)?;
            if let Some(&i) = idx
                .iter()
                .find(|&&i| i != STR_NIL_IDX && i as usize >= heap.distinct())
            {
                return Err(CodecError::Invalid(format!(
                    "string index {i} beyond heap of {} entries",
                    heap.distinct()
                )));
            }
            ColumnData::Str { idx, heap }
        }
        other => return Err(CodecError::Invalid(format!("unknown column tag {other}"))),
    })
}

/// A count, then that many `W`-byte values converted in one pass over
/// bytes [`Reader::take`] has already proven present.
fn read_fixed<T, const W: usize>(
    r: &mut Reader<'_>,
    from: impl Fn([u8; W]) -> T,
) -> CodecResult<Vec<T>> {
    let n = r.read_len()?;
    let bytes = r.take(n.checked_mul(W).ok_or(CodecError::Truncated)?)?;
    Ok(bytes
        .chunks_exact(W)
        .map(|c| {
            let mut a = [0u8; W];
            a.copy_from_slice(c);
            from(a)
        })
        .collect())
}

/// Encode a whole column: magic, version, head sequence, its
/// [`put_column`] body and a trailing CRC-32 of everything before it.
pub fn encode_bat(b: &Bat) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + b.len() * 8);
    out.extend_from_slice(&BAT_MAGIC);
    put_u16(&mut out, BAT_VERSION);
    put_u64(&mut out, b.hseq);
    put_column(b.data(), 0..b.len(), StrDict::Stored, &mut out);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decode a column previously produced by [`encode_bat`], verifying the
/// checksum first.
pub fn decode_bat(bytes: &[u8]) -> CodecResult<Bat> {
    if bytes.len() < BAT_MAGIC.len() + 2 + 8 + 1 + 4 {
        return Err(CodecError::Truncated);
    }
    let (content, tail) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(tail.try_into().unwrap());
    let actual = crc32(content);
    if expected != actual {
        return Err(CodecError::Checksum { expected, actual });
    }
    let mut r = Reader::new(content);
    let magic: [u8; 4] = r.take(4)?.try_into().unwrap();
    if magic != BAT_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != BAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let hseq = r.u64()?;
    let data = read_column(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after column payload",
            r.remaining()
        )));
    }
    let mut b = Bat::from_data(data);
    b.hseq = hseq;
    Ok(b)
}

/// Encode a string dictionary: entry count, then each distinct string in
/// index order.
pub fn encode_strheap(h: &StrHeap, out: &mut Vec<u8>) {
    put_u64(out, h.distinct() as u64);
    for s in h.iter() {
        put_str(out, s);
    }
}

/// Decode a string dictionary by re-interning every entry in index order;
/// the resulting heap assigns identical indices, so offset columns remain
/// valid.
pub fn decode_strheap(r: &mut Reader<'_>) -> CodecResult<StrHeap> {
    let n = r.read_len()?;
    let mut h = StrHeap::new();
    for i in 0..n {
        let s = r.str()?;
        let idx = h.intern(&s);
        if idx as usize != i {
            return Err(CodecError::Invalid(format!(
                "duplicate heap entry {s:?} at index {i}"
            )));
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{dbl_nil, BIT_NIL, INT_NIL, LNG_NIL, OID_NIL};

    /// Nil-aware bit-exact column equality: type, head sequence, density,
    /// and every position (via boxed values, so the NaN nil compares equal).
    fn assert_bat_eq(a: &Bat, b: &Bat) {
        assert_eq!(a.tail_type(), b.tail_type(), "tail type");
        assert_eq!(a.hseq, b.hseq, "head sequence");
        assert_eq!(a.is_dense(), b.is_dense(), "density");
        assert_eq!(a.len(), b.len(), "length");
        for i in 0..a.len() {
            assert_eq!(a.is_nil_at(i), b.is_nil_at(i), "nil flag at {i}");
            if !a.is_nil_at(i) {
                assert_eq!(a.get(i), b.get(i), "value at {i}");
            }
        }
    }

    fn roundtrip(b: &Bat) -> Bat {
        let bytes = encode_bat(b);
        let back = decode_bat(&bytes).expect("decode");
        assert_bat_eq(b, &back);
        back
    }

    #[test]
    fn roundtrip_every_type() {
        roundtrip(&Bat::from_ints(vec![1, -2, INT_NIL, i32::MAX]));
        roundtrip(&Bat::from_lngs(vec![1 << 40, LNG_NIL, -9]));
        roundtrip(&Bat::from_dbls(vec![2.5, dbl_nil(), -0.0, f64::INFINITY]));
        roundtrip(&Bat::from_oids(vec![0, 7, OID_NIL]));
        roundtrip(&Bat::from_bits(vec![Some(true), Some(false), None]));
        roundtrip(&Bat::from_strs(vec![Some("a"), None, Some("b"), Some("a")]));
    }

    #[test]
    fn roundtrip_empty_bats() {
        for ty in [
            ScalarType::Bit,
            ScalarType::Int,
            ScalarType::Lng,
            ScalarType::Dbl,
            ScalarType::OidT,
            ScalarType::Str,
        ] {
            roundtrip(&Bat::new(ty));
        }
        roundtrip(&Bat::dense(0, 0));
    }

    #[test]
    fn roundtrip_all_nil_columns() {
        roundtrip(&Bat::from_opt_ints(vec![None, None, None]));
        roundtrip(&Bat::from_opt_dbls(vec![None, None]));
        roundtrip(&Bat::from_data(ColumnData::Bit(vec![BIT_NIL; 4])));
        roundtrip(&Bat::from_strs::<&str>(vec![None, None]));
    }

    #[test]
    fn roundtrip_void_heads() {
        roundtrip(&Bat::dense(42, 1000));
        let mut b = Bat::dense(0, 5);
        b.hseq = 99;
        roundtrip(&b);
    }

    #[test]
    fn roundtrip_string_duplicate_offsets() {
        // Duplicate values share one heap entry; nil mixes in.
        let b = Bat::from_strs(vec![
            Some("dup"),
            Some("other"),
            Some("dup"),
            None,
            Some("dup"),
            Some(""),
        ]);
        let back = roundtrip(&b);
        // The decoded offset column must still deduplicate: three distinct
        // entries ("dup", "other", ""), five non-nil offsets.
        if let ColumnData::Str { idx, heap } = back.data() {
            assert_eq!(heap.distinct(), 3);
            assert_eq!(idx[0], idx[2]);
            assert_eq!(idx[0], idx[4]);
            assert_eq!(idx[3], STR_NIL_IDX);
        } else {
            panic!("not a string column");
        }
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut bytes = encode_bat(&Bat::from_ints(vec![1, 2, 3]));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            decode_bat(&bytes),
            Err(CodecError::Checksum { .. })
        ));
    }

    #[test]
    fn truncation_and_bad_magic_detected() {
        let bytes = encode_bat(&Bat::from_ints(vec![1, 2, 3]));
        assert!(decode_bat(&bytes[..4]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        // Magic is covered by the checksum, so either error is acceptable;
        // it must not decode.
        assert!(decode_bat(&bad).is_err());
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = encode_bat(&Bat::from_ints(vec![1]));
        // Bump the version field and re-stamp the checksum.
        bytes[4] = 99;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_bat(&bytes), Err(CodecError::UnsupportedVersion(99)));
    }

    #[test]
    fn value_codec_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bit(true),
            Value::Int(-7),
            Value::Lng(1 << 50),
            Value::Dbl(2.5),
            Value::Oid(9),
            Value::Str("it's".into()),
        ];
        let mut out = Vec::new();
        for v in &vals {
            encode_value(v, &mut out);
        }
        let mut r = Reader::new(&out);
        for v in &vals {
            assert_eq!(&decode_value(&mut r).unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    /// Tile (and binary COPY) bytes are a storage format: these are the
    /// bytes every column type encoded to before tiles and result pages
    /// shared one body codec, and vaults written then must keep opening.
    #[test]
    fn encode_bat_bytes_are_pinned() {
        let mut void = Bat::dense(5, 3);
        void.hseq = 7;
        let mut heap = StrHeap::new();
        let (a, _unused, empty) = (heap.intern("a"), heap.intern("zz"), heap.intern(""));
        let cases = [
            (
                void,
                "5342415401000700000000000000000500000000000000030000000000000043a80cca",
            ),
            (
                Bat::from_bits(vec![Some(true), Some(false), None]),
                "5342415401000000000000000000010300000000000000010080f1d47042",
            ),
            (
                Bat::from_ints(vec![1, -2, INT_NIL]),
                "534241540100000000000000000002030000000000000001000000feffffff0000008017e8ff6d",
            ),
            (
                Bat::from_lngs(vec![1 << 40, LNG_NIL]),
                "534241540100000000000000000003020000000000000000000000000100000000000000000080\
                 802cc5e3",
            ),
            (
                Bat::from_dbls(vec![
                    2.5,
                    dbl_nil(),
                    f64::from_bits(0x7ff8_0000_0000_0001),
                    -0.0,
                ]),
                "53424154010000000000000000000404000000000000000000000000000440000000000000f87f\
                 010000000000f87f0000000000000080a3624c70",
            ),
            (
                Bat::from_oids(vec![0, 9, OID_NIL]),
                "534241540100000000000000000005030000000000000000000000000000000900000000000000\
                 ffffffffffffffff6fd20a7f",
            ),
            (
                Bat::from_data(ColumnData::Str {
                    idx: vec![a, STR_NIL_IDX, empty, a],
                    heap,
                }),
                "534241540100000000000000000006040000000000000000000000ffffffff0200000000000000\
                 03000000000000000100000061020000007a7a000000003789ec12",
            ),
        ];
        for (b, want) in cases {
            let got: String = encode_bat(&b).iter().map(|x| format!("{x:02x}")).collect();
            assert_eq!(got, want, "{:?}", b.tail_type());
        }
    }

    #[test]
    fn column_bodies_of_a_row_range() {
        let s = Bat::from_strs(vec![Some("x"), Some("y"), None, Some("y"), Some("z")]);
        let mut out = Vec::new();
        put_column(s.data(), 1..4, StrDict::Used, &mut out);
        let back = Bat::from_data(read_column(&mut Reader::new(&out)).unwrap());
        assert_eq!(back.to_values(), s.to_values()[1..4]);
        let ColumnData::Str { heap, .. } = back.data() else {
            panic!("str column")
        };
        assert_eq!(
            heap.iter().collect::<Vec<_>>(),
            ["y"],
            "only the used entries"
        );

        let mut out = Vec::new();
        put_column(Bat::dense(10, 8).data(), 3..6, StrDict::Used, &mut out);
        let back = read_column(&mut Reader::new(&out)).unwrap();
        assert_eq!(back, ColumnData::Void { seq: 13, len: 3 });

        let ints = Bat::from_ints(vec![4, INT_NIL, -1]);
        let mut out = Vec::new();
        put_column(ints.data(), 2..3, StrDict::Used, &mut out);
        assert_eq!(
            read_column(&mut Reader::new(&out)).unwrap(),
            ColumnData::Int(vec![-1])
        );
    }

    #[test]
    fn hostile_column_bodies_are_rejected() {
        // A count far beyond the bytes present, one that overflows the
        // byte length, a void sequence past u64::MAX, an unknown tag.
        let mut huge = vec![TAG_LNG];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut big = vec![TAG_INT];
        big.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let mut void = vec![TAG_VOID];
        void.extend_from_slice(&u64::MAX.to_le_bytes());
        void.extend_from_slice(&2u64.to_le_bytes());
        for bytes in [huge, big, void, vec![9]] {
            assert!(read_column(&mut Reader::new(&bytes)).is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC-32 loop the sliced one must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_bytewise_for_every_short_length() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..=64 {
            assert_eq!(
                crc32(&bytes[..n]),
                crc32_bytewise(&bytes[..n]),
                "length {n}"
            );
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random slices at odd start offsets: alignment and the tail
        /// after the last sixteen-byte step change nothing.
        #[test]
        fn crc32_matches_bytewise_on_random_slices(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            start in 0usize..40,
        ) {
            let start = (start | 1).min(bytes.len());
            let s = &bytes[start..];
            proptest::prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }
}
