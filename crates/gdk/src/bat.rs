//! The Binary Association Table (BAT).
//!
//! Following MonetDB's design [Boncz 2002], a BAT is logically a two-column
//! table `(head oid, tail value)`; physically the head is almost always a
//! *void* (virtual oid) column — a dense sequence starting at `hseq` — so a
//! BAT degenerates to a single typed, contiguous vector. This is exactly the
//! property the SciQL paper exploits: "BATs ... are physically represented as
//! consecutive C arrays, \[which\] suggested MonetDB as a good basis to
//! implement SciQL".

use crate::candidates::Candidates;
use crate::strheap::{StrHeap, STR_NIL_IDX};
use crate::types::{dbl_nil, is_dbl_nil, Oid, ScalarType, BIT_NIL, INT_NIL, LNG_NIL, OID_NIL};
use crate::value::Value;
use crate::zonemap::ZoneMap;
use crate::{GdkError, Result};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Physical tail storage of a BAT.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Virtual dense oid sequence `seq, seq+1, …, seq+len-1` — never
    /// materialised. Used for BAT heads and for array dimensions that happen
    /// to be dense.
    Void {
        /// First oid of the sequence.
        seq: Oid,
        /// Sequence length.
        len: usize,
    },
    /// Booleans, stored GDK-style as `i8` with [`BIT_NIL`] for NULL.
    Bit(Vec<i8>),
    /// 32-bit integers with [`INT_NIL`] for NULL.
    Int(Vec<i32>),
    /// 64-bit integers with [`LNG_NIL`] for NULL.
    Lng(Vec<i64>),
    /// Doubles with NaN for NULL.
    Dbl(Vec<f64>),
    /// Materialised oids with [`OID_NIL`] for NULL.
    Oid(Vec<Oid>),
    /// Dictionary-encoded strings.
    Str {
        /// Heap indices, [`STR_NIL_IDX`] for NULL.
        idx: Vec<u32>,
        /// The dictionary.
        heap: StrHeap,
    },
}

/// A BAT: dense (virtual) head starting at `hseq` plus a typed tail column.
#[derive(Debug, Clone)]
pub struct Bat {
    /// First head oid. Tail position `i` is addressed by oid `hseq + i`.
    pub hseq: Oid,
    data: ColumnData,
    /// Optional per-tile zone map (see [`crate::zonemap`]). Installed by
    /// bulk ingest and checkpoint load, dropped by any tail mutation.
    zones: OnceLock<Arc<ZoneMap>>,
    /// The arithmetic form of a column [`Bat::series`] generated, kept
    /// until a tail mutation drops it, like `zones`.
    shape: Option<Shape>,
}

/// The five numbers of `array.series(start, step, stop, n, m)`: cell `i`
/// holds `start + step * ((i / n) % count)`, and there are
/// `count * n * m` cells. A selection over a column with a shape finds
/// its hits by arithmetic instead of reading the column
/// ([`crate::select`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// First value.
    pub start: i64,
    /// Distance between consecutive values (non-zero).
    pub step: i64,
    /// Number of distinct values.
    pub count: usize,
    /// Times each value repeats consecutively.
    pub n: usize,
    /// Times the whole sequence repeats.
    pub m: usize,
}

// Zone maps are derived statistics: two BATs are equal iff their logical
// content is, regardless of whether either has a map installed.
impl PartialEq for Bat {
    fn eq(&self, other: &Self) -> bool {
        self.hseq == other.hseq && self.data == other.data
    }
}

impl Bat {
    /// Empty BAT of tail type `ty` with head sequence base 0.
    pub fn new(ty: ScalarType) -> Self {
        Self::with_capacity(ty, 0)
    }

    /// Empty BAT with reserved capacity.
    pub fn with_capacity(ty: ScalarType, cap: usize) -> Self {
        let data = match ty {
            ScalarType::Bit => ColumnData::Bit(Vec::with_capacity(cap)),
            ScalarType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            ScalarType::Lng => ColumnData::Lng(Vec::with_capacity(cap)),
            ScalarType::Dbl => ColumnData::Dbl(Vec::with_capacity(cap)),
            ScalarType::OidT => ColumnData::Oid(Vec::with_capacity(cap)),
            ScalarType::Str => ColumnData::Str {
                idx: Vec::with_capacity(cap),
                heap: StrHeap::new(),
            },
        };
        Bat {
            hseq: 0,
            data,
            zones: OnceLock::new(),
            shape: None,
        }
    }

    /// A void BAT: the dense sequence `seq .. seq+len`.
    pub fn dense(seq: Oid, len: usize) -> Self {
        Bat {
            hseq: 0,
            data: ColumnData::Void { seq, len },
            zones: OnceLock::new(),
            shape: None,
        }
    }

    /// Wrap existing column data.
    pub fn from_data(data: ColumnData) -> Self {
        Bat {
            hseq: 0,
            data,
            zones: OnceLock::new(),
            shape: None,
        }
    }

    /// Build an `int` BAT from plain values.
    pub fn from_ints(v: Vec<i32>) -> Self {
        Bat::from_data(ColumnData::Int(v))
    }

    /// Build an `int` BAT from optional values (`None` → nil).
    pub fn from_opt_ints(v: Vec<Option<i32>>) -> Self {
        Bat::from_data(ColumnData::Int(
            v.into_iter().map(|x| x.unwrap_or(INT_NIL)).collect(),
        ))
    }

    /// Build a `lng` BAT.
    pub fn from_lngs(v: Vec<i64>) -> Self {
        Bat::from_data(ColumnData::Lng(v))
    }

    /// Build a `dbl` BAT.
    pub fn from_dbls(v: Vec<f64>) -> Self {
        Bat::from_data(ColumnData::Dbl(v))
    }

    /// Build a `dbl` BAT from optional values.
    pub fn from_opt_dbls(v: Vec<Option<f64>>) -> Self {
        Bat::from_data(ColumnData::Dbl(
            v.into_iter().map(|x| x.unwrap_or(dbl_nil())).collect(),
        ))
    }

    /// Build an `oid` BAT.
    pub fn from_oids(v: Vec<Oid>) -> Self {
        Bat::from_data(ColumnData::Oid(v))
    }

    /// Build a `bit` BAT from optional booleans.
    pub fn from_bits(v: Vec<Option<bool>>) -> Self {
        Bat::from_data(ColumnData::Bit(
            v.into_iter()
                .map(|x| x.map(|b| b as i8).unwrap_or(BIT_NIL))
                .collect(),
        ))
    }

    /// Build a `str` BAT from optional strings.
    pub fn from_strs<S: AsRef<str>>(v: Vec<Option<S>>) -> Self {
        let mut heap = StrHeap::new();
        let idx = v
            .into_iter()
            .map(|s| s.map(|s| heap.intern(s.as_ref())).unwrap_or(STR_NIL_IDX))
            .collect();
        Bat::from_data(ColumnData::Str { idx, heap })
    }

    /// Build a BAT of type `ty` from boxed values; NULLs become nils.
    pub fn from_values(ty: ScalarType, vals: &[Value]) -> Result<Self> {
        let mut b = Bat::with_capacity(ty, vals.len());
        for v in vals {
            b.push(v)?;
        }
        Ok(b)
    }

    /// `array.series(start, step, stop, n, m)` — materialise a dimension BAT.
    ///
    /// Generates the values `start, start+step, …` in `[start, stop)`; each
    /// value is repeated `n` times consecutively, and the whole sequence is
    /// repeated `m` times (Fig 3 of the paper: a 4×4 array's `x` dimension is
    /// `series(0,1,4,4,1)`, its `y` dimension `series(0,1,4,1,4)`). The BAT
    /// keeps the five numbers as its [`Shape`].
    pub fn series(start: i64, step: i64, stop: i64, n: usize, m: usize) -> Result<Self> {
        if step == 0 {
            return Err(GdkError::invalid("series step must be non-zero"));
        }
        let count = crate::bat::series_len(start, step, stop);
        count
            .checked_mul(n)
            .and_then(|v| v.checked_mul(m))
            .ok_or_else(|| GdkError::invalid("series size overflow"))?;
        // Every value lies in `[start, stop)`, so the wrapping arithmetic
        // never actually wraps.
        let value = |j: usize| start.wrapping_add(step.wrapping_mul(j as i64));
        let (lowest, highest) = match count {
            0 => (0, 0),
            c if step > 0 => (start, value(c - 1)),
            c => (value(c - 1), start),
        };
        // Dimension values that fit in `int` are stored as int, matching the
        // paper's `array.series(...) :bat[:oid,:int]` signature.
        let mut b = if lowest > i32::MIN as i64 && highest <= i32::MAX as i64 {
            Bat::from_ints(repeated((0..count).map(|j| value(j) as i32), n, m))
        } else {
            Bat::from_lngs(repeated((0..count).map(value), n, m))
        };
        // A cell holding the nil sentinel reads as NULL, which the
        // arithmetic form would not know.
        b.shape = (lowest != LNG_NIL).then_some(Shape {
            start,
            step,
            count,
            n,
            m,
        });
        Ok(b)
    }

    /// `array.filler(cnt, v)` — materialise an attribute BAT holding `cnt`
    /// copies of the default value `v` (a NULL `v` gives an `int` column).
    pub fn filler(cnt: usize, v: &Value) -> Result<Self> {
        Self::constant(v.scalar_type().unwrap_or(ScalarType::Int), cnt, v)
    }

    /// `cnt` copies of `v` stored as tail type `ty` (nils for NULL): `v`
    /// is cast once, then repeated.
    pub fn constant(ty: ScalarType, cnt: usize, v: &Value) -> Result<Self> {
        let mut one = Bat::with_capacity(ty, 1);
        one.push(v)?;
        if cnt == 0 {
            return Ok(Bat::new(ty));
        }
        Ok(Bat::from_data(match one.data {
            ColumnData::Bit(x) => ColumnData::Bit(vec![x[0]; cnt]),
            ColumnData::Int(x) => ColumnData::Int(vec![x[0]; cnt]),
            ColumnData::Lng(x) => ColumnData::Lng(vec![x[0]; cnt]),
            ColumnData::Dbl(x) => ColumnData::Dbl(vec![x[0]; cnt]),
            ColumnData::Oid(x) => ColumnData::Oid(vec![x[0]; cnt]),
            ColumnData::Str { idx, heap } => ColumnData::Str {
                idx: vec![idx[0]; cnt],
                heap,
            },
            ColumnData::Void { .. } => unreachable!("with_capacity never builds a void column"),
        }))
    }

    /// Tail type.
    pub fn tail_type(&self) -> ScalarType {
        match &self.data {
            ColumnData::Void { .. } => ScalarType::OidT,
            ColumnData::Bit(_) => ScalarType::Bit,
            ColumnData::Int(_) => ScalarType::Int,
            ColumnData::Lng(_) => ScalarType::Lng,
            ColumnData::Dbl(_) => ScalarType::Dbl,
            ColumnData::Oid(_) => ScalarType::OidT,
            ColumnData::Str { .. } => ScalarType::Str,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Void { len, .. } => *len,
            ColumnData::Bit(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Lng(v) => v.len(),
            ColumnData::Dbl(v) => v.len(),
            ColumnData::Oid(v) => v.len(),
            ColumnData::Str { idx, .. } => idx.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the raw column data.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Mutably borrow the raw column data. Drops any installed zone map —
    /// the caller may rewrite the tail arbitrarily.
    pub fn data_mut(&mut self) -> &mut ColumnData {
        self.touched();
        &mut self.data
    }

    /// Drop what a tail mutation makes stale: the zone map and the shape.
    fn touched(&mut self) {
        self.zones.take();
        self.shape = None;
    }

    /// The arithmetic form of this column, while its tail is still what
    /// [`Bat::series`] generated.
    pub fn shape(&self) -> Option<&Shape> {
        self.shape.as_ref()
    }

    /// Take ownership of the raw column data.
    pub fn into_data(self) -> ColumnData {
        self.data
    }

    /// The installed per-tile zone map, if any.
    pub fn zone_map(&self) -> Option<&Arc<ZoneMap>> {
        self.zones.get()
    }

    /// Install a zone map (no-op if one is already installed). Callers
    /// build maps where the data is walked anyway — bulk ingest,
    /// checkpoint write, and checkpoint load.
    pub fn install_zone_map(&self, zm: impl Into<Arc<ZoneMap>>) {
        let _ = self.zones.set(zm.into());
    }

    /// Ensure a zone map with the given tile size is installed, building
    /// one over the current content if absent.
    pub fn ensure_zone_map(&self, tile_rows: usize) -> &Arc<ZoneMap> {
        if self.zones.get().is_none() {
            let _ = self.zones.set(Arc::new(ZoneMap::build(self, tile_rows)));
        }
        self.zones.get().expect("just installed")
    }

    /// Is this a virtual (void) column?
    pub fn is_dense(&self) -> bool {
        matches!(self.data, ColumnData::Void { .. })
    }

    /// Value at position `i` (not oid — subtract `hseq` first if needed).
    pub fn get(&self, i: usize) -> Value {
        debug_assert!(
            i < self.len(),
            "position {i} out of range (len {})",
            self.len()
        );
        match &self.data {
            ColumnData::Void { seq, .. } => Value::Oid(seq + i as Oid),
            ColumnData::Bit(v) => {
                let x = v[i];
                if x == BIT_NIL {
                    Value::Null
                } else {
                    Value::Bit(x != 0)
                }
            }
            ColumnData::Int(v) => {
                let x = v[i];
                if x == INT_NIL {
                    Value::Null
                } else {
                    Value::Int(x)
                }
            }
            ColumnData::Lng(v) => {
                let x = v[i];
                if x == LNG_NIL {
                    Value::Null
                } else {
                    Value::Lng(x)
                }
            }
            ColumnData::Dbl(v) => {
                let x = v[i];
                if is_dbl_nil(x) {
                    Value::Null
                } else {
                    Value::Dbl(x)
                }
            }
            ColumnData::Oid(v) => {
                let x = v[i];
                if x == OID_NIL {
                    Value::Null
                } else {
                    Value::Oid(x)
                }
            }
            ColumnData::Str { idx, heap } => match heap.get(idx[i]) {
                None => Value::Null,
                Some(s) => Value::Str(s.to_owned()),
            },
        }
    }

    /// Is position `i` nil?
    pub fn is_nil_at(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Void { .. } => false,
            ColumnData::Bit(v) => v[i] == BIT_NIL,
            ColumnData::Int(v) => v[i] == INT_NIL,
            ColumnData::Lng(v) => v[i] == LNG_NIL,
            ColumnData::Dbl(v) => is_dbl_nil(v[i]),
            ColumnData::Oid(v) => v[i] == OID_NIL,
            ColumnData::Str { idx, .. } => idx[i] == STR_NIL_IDX,
        }
    }

    /// Cell `i` as an exact integer, the view [`Value::as_i64`] takes of
    /// `get(i)` without boxing it: `None` for nil and for `dbl` and `str`
    /// cells.
    #[inline]
    pub fn i64_at(&self, i: usize) -> Option<i64> {
        match &self.data {
            ColumnData::Void { seq, .. } => Some((seq + i as Oid) as i64),
            ColumnData::Bit(v) => (v[i] != BIT_NIL).then_some(i64::from(v[i] != 0)),
            ColumnData::Int(v) => (v[i] != INT_NIL).then_some(i64::from(v[i])),
            ColumnData::Lng(v) => (v[i] != LNG_NIL).then_some(v[i]),
            ColumnData::Oid(v) => (v[i] != OID_NIL).then_some(v[i] as i64),
            ColumnData::Dbl(_) | ColumnData::Str { .. } => None,
        }
    }

    /// Count of non-nil tuples.
    pub fn count_non_nil(&self) -> usize {
        (0..self.len()).filter(|&i| !self.is_nil_at(i)).count()
    }

    /// Append a value, casting to the tail type. Appending to a void BAT is
    /// an error (void columns are virtual).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        let ty = self.tail_type();
        let cast = v.cast(ty).ok_or_else(|| cannot_store(v, ty))?;
        self.touched();
        match (&mut self.data, cast) {
            (ColumnData::Void { .. }, _) => {
                return Err(GdkError::invalid("cannot append to a void BAT"))
            }
            (ColumnData::Bit(vec), Value::Null) => vec.push(BIT_NIL),
            (ColumnData::Bit(vec), Value::Bit(b)) => vec.push(b as i8),
            (ColumnData::Int(vec), Value::Null) => vec.push(INT_NIL),
            (ColumnData::Int(vec), Value::Int(x)) => vec.push(x),
            (ColumnData::Lng(vec), Value::Null) => vec.push(LNG_NIL),
            (ColumnData::Lng(vec), Value::Lng(x)) => vec.push(x),
            (ColumnData::Dbl(vec), Value::Null) => vec.push(dbl_nil()),
            (ColumnData::Dbl(vec), Value::Dbl(x)) => vec.push(x),
            (ColumnData::Oid(vec), Value::Null) => vec.push(OID_NIL),
            (ColumnData::Oid(vec), Value::Oid(x)) => vec.push(x),
            (ColumnData::Str { idx, .. }, Value::Null) => idx.push(STR_NIL_IDX),
            (ColumnData::Str { idx, heap }, Value::Str(s)) => idx.push(heap.intern(&s)),
            _ => unreachable!("cast guarantees matching variant"),
        }
        Ok(())
    }

    /// Overwrite position `i` with `v` (BATreplace). The BAT must not be void.
    pub fn set(&mut self, i: usize, v: &Value) -> Result<()> {
        if i >= self.len() {
            return Err(GdkError::invalid(format!(
                "replace position {i} out of range (len {})",
                self.len()
            )));
        }
        let ty = self.tail_type();
        let cast = v.cast(ty).ok_or_else(|| cannot_store(v, ty))?;
        self.touched();
        match (&mut self.data, cast) {
            (ColumnData::Void { .. }, _) => {
                return Err(GdkError::invalid("cannot update a void BAT"))
            }
            (ColumnData::Bit(vec), Value::Null) => vec[i] = BIT_NIL,
            (ColumnData::Bit(vec), Value::Bit(b)) => vec[i] = b as i8,
            (ColumnData::Int(vec), Value::Null) => vec[i] = INT_NIL,
            (ColumnData::Int(vec), Value::Int(x)) => vec[i] = x,
            (ColumnData::Lng(vec), Value::Null) => vec[i] = LNG_NIL,
            (ColumnData::Lng(vec), Value::Lng(x)) => vec[i] = x,
            (ColumnData::Dbl(vec), Value::Null) => vec[i] = dbl_nil(),
            (ColumnData::Dbl(vec), Value::Dbl(x)) => vec[i] = x,
            (ColumnData::Oid(vec), Value::Null) => vec[i] = OID_NIL,
            (ColumnData::Oid(vec), Value::Oid(x)) => vec[i] = x,
            (ColumnData::Str { idx, .. }, Value::Null) => idx[i] = STR_NIL_IDX,
            (ColumnData::Str { idx, heap }, Value::Str(s)) => idx[i] = heap.intern(&s),
            _ => unreachable!("cast guarantees matching variant"),
        }
        Ok(())
    }

    /// Scatter-update (BATreplace): `tail[at[i]] = values[i]`, each value
    /// converted as [`Bat::set`] converts it. Every position and every
    /// conversion is checked before the first cell changes, so a failing
    /// scatter leaves the column as it was; the first value that does not
    /// fit names itself in the error.
    pub fn scatter(&mut self, at: &Candidates, values: &Bat) -> Result<()> {
        if at.len() != values.len() {
            return Err(GdkError::invalid(format!(
                "replace: {} positions vs {} values",
                at.len(),
                values.len()
            )));
        }
        if at.is_empty() {
            return Ok(());
        }
        let last = at.get(at.len() - 1) as usize;
        if last >= self.len() {
            return Err(GdkError::invalid(format!(
                "replace position {last} out of range (len {})",
                self.len()
            )));
        }
        self.write_tail(values, TailWrite::At(at))
    }

    /// Overwrite every cell: [`Bat::scatter`] over all positions.
    pub fn overwrite(&mut self, values: &Bat) -> Result<()> {
        self.scatter(&Candidates::all(self.len()), values)
    }

    /// Append all tuples of `other`, converted as [`Bat::push`] converts
    /// one value — all of them or, if one does not fit, none.
    pub fn append_bat(&mut self, other: &Bat) -> Result<()> {
        if other.is_empty() {
            return Ok(());
        }
        self.write_tail(other, TailWrite::Append)
    }

    /// Make room for `additional` more cells without changing any (a void
    /// column stores none).
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::Void { .. } => {}
            ColumnData::Bit(v) => v.reserve(additional),
            ColumnData::Int(v) => v.reserve(additional),
            ColumnData::Lng(v) => v.reserve(additional),
            ColumnData::Dbl(v) => v.reserve(additional),
            ColumnData::Oid(v) => v.reserve(additional),
            ColumnData::Str { idx, .. } => idx.reserve(additional),
        }
    }

    /// This column as tail type `ty`, every cell converted the way
    /// [`Value::cast`] converts it and nils kept nil: borrowed when no
    /// conversion is needed, `Err(row)` for the first cell that does not
    /// fit. Every pair of `bit`/`int`/`lng`/`dbl`/`oid`/void columns runs
    /// as a typed slice loop — a pair `Value::cast` does not define fails
    /// on its first non-nil cell. Only strings convert boxed values.
    pub fn coerced(&self, ty: ScalarType) -> std::result::Result<Cow<'_, Bat>, usize> {
        if self.tail_type() == ty && !self.is_dense() {
            return Ok(Cow::Borrowed(self));
        }
        use ScalarType as T;
        let (int_nil, lng_nil, bit_nil) = (|x| x == INT_NIL, |x| x == LNG_NIL, |x| x == BIT_NIL);
        let (oid_nil, dbl_nil_at) = (|x| x == OID_NIL, is_dbl_nil);
        // A computed `int`/`lng` equal to its nil sentinel is out of range.
        let to_int = |x: i64| {
            (
                x as i32,
                (x <= i64::from(INT_NIL)) | (x > i64::from(i32::MAX)),
            )
        };
        let oid_to_lng = |x: Oid| (x as i64, x > i64::MAX as Oid);
        let oid_to_int = |x: Oid| (x as i32, x > i32::MAX as Oid);
        // `Value::cast` rounds a `dbl` before range-checking it; the bounds
        // exclude the nil and `2^63`, which `i64` cannot hold.
        let dbl_to_int = |x: f64| {
            let r = x.round();
            (
                r as i32,
                !((r > f64::from(INT_NIL)) & (r <= f64::from(i32::MAX))),
            )
        };
        let dbl_to_lng = |x: f64| {
            let r = x.round();
            (r as i64, !((r > LNG_NIL as f64) & (r < i64::MAX as f64)))
        };
        let data = match (&self.data, ty) {
            (ColumnData::Int(v), T::Lng) => {
                ColumnData::Lng(convert(v, int_nil, LNG_NIL, |x| (i64::from(x), false))?)
            }
            (ColumnData::Int(v), T::Dbl) => {
                ColumnData::Dbl(convert(v, int_nil, dbl_nil(), |x| (f64::from(x), false))?)
            }
            (ColumnData::Int(v), T::Bit) => {
                ColumnData::Bit(convert(v, int_nil, BIT_NIL, |x| (i8::from(x != 0), false))?)
            }
            (ColumnData::Int(v), T::OidT) => {
                ColumnData::Oid(convert(v, int_nil, OID_NIL, |x| (x as Oid, x < 0))?)
            }
            (ColumnData::Lng(v), T::Int) => ColumnData::Int(convert(v, lng_nil, INT_NIL, to_int)?),
            (ColumnData::Lng(v), T::Dbl) => {
                ColumnData::Dbl(convert(v, lng_nil, dbl_nil(), |x| (x as f64, false))?)
            }
            (ColumnData::Lng(v), T::OidT) => {
                ColumnData::Oid(convert(v, lng_nil, OID_NIL, |x| (x as Oid, x < 0))?)
            }
            (ColumnData::Dbl(v), T::Int) => {
                ColumnData::Int(convert(v, dbl_nil_at, INT_NIL, dbl_to_int)?)
            }
            (ColumnData::Dbl(v), T::Lng) => {
                ColumnData::Lng(convert(v, dbl_nil_at, LNG_NIL, dbl_to_lng)?)
            }
            (ColumnData::Bit(v), T::Int) => ColumnData::Int(convert(v, bit_nil, INT_NIL, |x| {
                (i32::from(x != 0), false)
            })?),
            (ColumnData::Bit(v), T::Lng) => ColumnData::Lng(convert(v, bit_nil, LNG_NIL, |x| {
                (i64::from(x != 0), false)
            })?),
            (ColumnData::Oid(v), T::Int) => {
                ColumnData::Int(convert(v, oid_nil, INT_NIL, oid_to_int)?)
            }
            (ColumnData::Oid(v), T::Lng) => {
                ColumnData::Lng(convert(v, oid_nil, LNG_NIL, oid_to_lng)?)
            }
            (ColumnData::Oid(v), T::Dbl) => {
                ColumnData::Dbl(convert(v, oid_nil, dbl_nil(), |x| (x as f64, false))?)
            }
            (ColumnData::Void { .. }, T::OidT | T::Int | T::Lng | T::Dbl | T::Bit) => {
                return self
                    .materialise()
                    .coerced(ty)
                    .map(|b| Cow::Owned(b.into_owned()));
            }
            // Pairs `Value::cast` does not define: every non-nil cell fails.
            (ColumnData::Lng(v), T::Bit) => ColumnData::Bit(undefined(v, lng_nil, BIT_NIL)?),
            (ColumnData::Dbl(v), T::Bit) => ColumnData::Bit(undefined(v, dbl_nil_at, BIT_NIL)?),
            (ColumnData::Dbl(v), T::OidT) => ColumnData::Oid(undefined(v, dbl_nil_at, OID_NIL)?),
            (ColumnData::Bit(v), T::Dbl) => ColumnData::Dbl(undefined(v, bit_nil, dbl_nil())?),
            (ColumnData::Bit(v), T::OidT) => ColumnData::Oid(undefined(v, bit_nil, OID_NIL)?),
            (ColumnData::Oid(v), T::Bit) => ColumnData::Bit(undefined(v, oid_nil, BIT_NIL)?),
            _ => {
                let mut out = Bat::with_capacity(ty, self.len());
                for i in 0..self.len() {
                    let v = self.get(i).cast(ty).ok_or(i)?;
                    out.push(&v).map_err(|_| i)?;
                }
                return Ok(Cow::Owned(out));
            }
        };
        Ok(Cow::Owned(Bat::from_data(data)))
    }

    /// Write `src` into this column's tail at `how`, after converting it to
    /// the tail type. Strings are re-interned into this column's heap.
    fn write_tail(&mut self, src: &Bat, how: TailWrite<'_>) -> Result<()> {
        let ty = self.tail_type();
        let src = src
            .coerced(ty)
            .map_err(|row| cannot_store(&src.get(row), ty))?;
        match (self.data_mut(), src.data()) {
            (ColumnData::Void { .. }, _) => {
                return Err(GdkError::invalid(match how {
                    TailWrite::Append => "cannot append to a void BAT",
                    TailWrite::At(_) => "cannot update a void BAT",
                }))
            }
            (ColumnData::Bit(d), ColumnData::Bit(s)) => how.apply(d, s),
            (ColumnData::Int(d), ColumnData::Int(s)) => how.apply(d, s),
            (ColumnData::Lng(d), ColumnData::Lng(s)) => how.apply(d, s),
            (ColumnData::Dbl(d), ColumnData::Dbl(s)) => how.apply(d, s),
            (ColumnData::Oid(d), ColumnData::Oid(s)) => how.apply(d, s),
            (ColumnData::Str { idx, heap }, ColumnData::Str { idx: s, heap: from }) => {
                how.apply(idx, &reintern(s, from, heap))
            }
            _ => unreachable!("coerced to the tail type"),
        }
        Ok(())
    }

    /// Materialise a void column into a real oid vector; no-op otherwise.
    pub fn materialise(&self) -> Bat {
        match &self.data {
            ColumnData::Void { seq, len } => {
                Bat::from_oids((0..*len as Oid).map(|i| seq + i).collect())
            }
            _ => self.clone(),
        }
    }

    /// Iterate boxed values (slow path; operators use typed fast paths).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Typed view helpers for fast paths.
    pub fn as_ints(&self) -> Option<&[i32]> {
        match &self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }
    /// Typed `lng` slice, if this is a lng BAT.
    pub fn as_lngs(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Lng(v) => Some(v),
            _ => None,
        }
    }
    /// Typed `dbl` slice, if this is a dbl BAT.
    pub fn as_dbls(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Dbl(v) => Some(v),
            _ => None,
        }
    }
    /// Typed `oid` slice, if this is a materialised oid BAT.
    pub fn as_oids(&self) -> Option<&[Oid]> {
        match &self.data {
            ColumnData::Oid(v) => Some(v),
            _ => None,
        }
    }
    /// Typed `bit` slice, if this is a bit BAT.
    pub fn as_bits(&self) -> Option<&[i8]> {
        match &self.data {
            ColumnData::Bit(v) => Some(v),
            _ => None,
        }
    }

    /// Collect boxed values (test/display convenience).
    pub fn to_values(&self) -> Vec<Value> {
        self.iter_values().collect()
    }
}

/// The error [`Bat::set`] raises when `v` does not fit a `ty` column.
pub fn cannot_store(v: &Value, ty: ScalarType) -> GdkError {
    GdkError::type_mismatch(format!("cannot store {v} into {ty} BAT"))
}

/// Where [`Bat::write_tail`] puts a same-typed source tail.
#[derive(Clone, Copy)]
enum TailWrite<'a> {
    /// Overwrite the cells at these positions (aligned with the source).
    At(&'a Candidates),
    /// Append after the last cell.
    Append,
}

impl TailWrite<'_> {
    fn apply<T: Copy>(self, dst: &mut Vec<T>, src: &[T]) {
        match self {
            TailWrite::At(Candidates::Dense { first, len }) => {
                let first = *first as usize;
                dst[first..first + len].copy_from_slice(src);
            }
            TailWrite::At(Candidates::List(at)) => {
                for (&p, &x) in at.iter().zip(src) {
                    dst[p as usize] = x;
                }
            }
            TailWrite::Append => dst.extend_from_slice(src),
        }
    }
}

/// `idx` (indices into `from`) as indices into `heap`, interning each
/// distinct string the first time it appears — the order a cell-by-cell
/// copy would intern them in. The memo of strings already interned is as
/// large as the smaller of `from` and `idx`.
fn reintern(idx: &[u32], from: &StrHeap, heap: &mut StrHeap) -> Vec<u32> {
    let mut intern = |i: u32| heap.intern(from.get(i).expect("a non-nil index"));
    if from.distinct() <= idx.len() {
        let mut memo = vec![STR_NIL_IDX; from.distinct()];
        idx.iter()
            .map(|&i| {
                if i == STR_NIL_IDX {
                    return i;
                }
                let m = &mut memo[i as usize];
                if *m == STR_NIL_IDX {
                    *m = intern(i);
                }
                *m
            })
            .collect()
    } else {
        let mut memo = HashMap::with_capacity(idx.len());
        idx.iter()
            .map(|&i| {
                if i == STR_NIL_IDX {
                    return i;
                }
                *memo.entry(i).or_insert_with(|| intern(i))
            })
            .collect()
    }
}

/// A string column of the rows `idx` of a column with dictionary `heap`:
/// sharing a copy of `heap` when the rows use every string in it, else
/// with a heap of only the strings they use, so that a slice costs what
/// its rows hold and not what the whole column holds.
pub(crate) fn str_rows(idx: Vec<u32>, heap: &StrHeap) -> ColumnData {
    let uses_all = idx.len() >= heap.distinct() && {
        let mut used = vec![false; heap.distinct()];
        for &i in &idx {
            if i != STR_NIL_IDX {
                used[i as usize] = true;
            }
        }
        used.iter().all(|&u| u)
    };
    if uses_all {
        return ColumnData::Str {
            idx,
            heap: heap.clone(),
        };
    }
    let mut own = StrHeap::new();
    let idx = reintern(&idx, heap, &mut own);
    ColumnData::Str { idx, heap: own }
}

/// Nil-preserving typed conversion: `f` gives a cell's converted value
/// and whether it is out of range. The loop has no branch per cell; a
/// column with an out-of-range cell is scanned again for `Err(row)` of
/// the first one.
fn convert<S: Copy, T: Copy>(
    src: &[S],
    is_nil: impl Fn(S) -> bool,
    nil: T,
    f: impl Fn(S) -> (T, bool),
) -> std::result::Result<Vec<T>, usize> {
    let mut bad = false;
    let out = src
        .iter()
        .map(|&x| {
            let (nil_at, (v, e)) = (is_nil(x), f(x));
            bad |= !nil_at & e;
            if nil_at {
                nil
            } else {
                v
            }
        })
        .collect();
    if bad {
        return Err(src
            .iter()
            .position(|&x| !is_nil(x) && f(x).1)
            .expect("a flagged conversion has a failing cell"));
    }
    Ok(out)
}

/// A conversion with no value mapping: all nils, or the first non-nil
/// cell as the error.
fn undefined<S: Copy, T: Copy>(
    src: &[S],
    is_nil: impl Fn(S) -> bool,
    nil: T,
) -> std::result::Result<Vec<T>, usize> {
    convert(src, is_nil, nil, |_| (nil, true))
}

/// `values`, each repeated `n` times, the whole repeated `m` times.
fn repeated<T: Copy>(values: impl Iterator<Item = T>, n: usize, m: usize) -> Vec<T> {
    let mut out = Vec::new();
    if m > 0 {
        for v in values {
            out.extend(std::iter::repeat_n(v, n));
        }
        let period = out.len();
        out.reserve(period * (m - 1));
        for _ in 1..m {
            out.extend_from_within(..period);
        }
    }
    out
}

/// Number of values in the right-open interval `[start, stop)` with `step`.
pub fn series_len(start: i64, step: i64, stop: i64) -> usize {
    if step > 0 {
        if stop <= start {
            0
        } else {
            (((stop - start) + step - 1) / step) as usize
        }
    } else if stop >= start {
        0
    } else {
        (((start - stop) + (-step) - 1) / (-step)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_matches_fig3() {
        // Fig 3: x: array.series(0,1,4,4,1); y: array.series(0,1,4,1,4)
        let x = Bat::series(0, 1, 4, 4, 1).unwrap();
        let y = Bat::series(0, 1, 4, 1, 4).unwrap();
        let xi: Vec<i32> = x.as_ints().unwrap().to_vec();
        let yi: Vec<i32> = y.as_ints().unwrap().to_vec();
        assert_eq!(xi, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        assert_eq!(yi, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn series_matches_the_cell_loop() {
        let big = 1i64 << 40;
        for (start, step, stop) in [(0, 1, 5), (7, -3, -6), (-big, big, big), (3, 2, 3)] {
            for (n, m) in [(1, 1), (3, 2), (0, 4), (2, 0)] {
                let mut want = Vec::new();
                for _ in 0..m {
                    for j in 0..series_len(start, step, stop) as i64 {
                        want.extend(std::iter::repeat_n(Value::from(start + step * j), n));
                    }
                }
                let b = Bat::series(start, step, stop, n, m).unwrap();
                let got: Vec<Value> = b
                    .iter_values()
                    .map(|v| Value::from(v.as_i64().unwrap()))
                    .collect();
                assert_eq!(got, want, "series({start}, {step}, {stop}, {n}, {m})");
                assert_eq!(
                    b.tail_type() == ScalarType::Int,
                    start.abs() < big,
                    "{start}"
                );
            }
        }
    }

    #[test]
    fn filler_matches_fig3() {
        let v = Bat::filler(16, &Value::Int(0)).unwrap();
        assert_eq!(v.len(), 16);
        assert!(v.iter_values().all(|x| x == Value::Int(0)));
    }

    #[test]
    fn series_len_edges() {
        assert_eq!(series_len(0, 1, 4), 4);
        assert_eq!(series_len(0, 2, 5), 3);
        assert_eq!(series_len(4, 1, 4), 0);
        assert_eq!(series_len(5, -1, 0), 5);
        assert_eq!(series_len(-1, 1, 5), 6);
    }

    #[test]
    fn negative_range_series() {
        // Fig 1(f): dimension range [-1:1:5]
        let d = Bat::series(-1, 1, 5, 1, 1).unwrap();
        assert_eq!(
            d.as_ints().unwrap(),
            &[-1, 0, 1, 2, 3, 4],
            "right-open [-1,5) with step 1"
        );
    }

    #[test]
    fn push_get_roundtrip_all_types() {
        let cases: Vec<(ScalarType, Value)> = vec![
            (ScalarType::Bit, Value::Bit(true)),
            (ScalarType::Int, Value::Int(-7)),
            (ScalarType::Lng, Value::Lng(1 << 40)),
            (ScalarType::Dbl, Value::Dbl(2.5)),
            (ScalarType::OidT, Value::Oid(42)),
            (ScalarType::Str, Value::Str("abc".into())),
        ];
        for (ty, v) in cases {
            let mut b = Bat::new(ty);
            b.push(&v).unwrap();
            b.push(&Value::Null).unwrap();
            assert_eq!(b.get(0), v, "type {ty}");
            assert_eq!(b.get(1), Value::Null, "type {ty}");
            assert!(b.is_nil_at(1));
            assert!(!b.is_nil_at(0));
            assert_eq!(b.count_non_nil(), 1);
        }
    }

    #[test]
    fn void_materialisation() {
        let v = Bat::dense(10, 4);
        assert!(v.is_dense());
        assert_eq!(v.get(2), Value::Oid(12));
        let m = v.materialise();
        assert_eq!(m.as_oids().unwrap(), &[10, 11, 12, 13]);
        assert!(!m.is_dense());
    }

    #[test]
    fn set_and_scatter() {
        let mut b = Bat::from_ints(vec![1, 2, 3, 4]);
        b.set(1, &Value::Null).unwrap();
        assert_eq!(b.get(1), Value::Null);
        let at = Candidates::from_sorted(vec![0, 3]);
        b.scatter(&at, &Bat::from_ints(vec![9, 8])).unwrap();
        assert_eq!(
            b.to_values(),
            vec![Value::Int(9), Value::Null, Value::Int(3), Value::Int(8)]
        );
        assert!(b.scatter(&at, &Bat::from_ints(vec![1])).is_err());
        assert!(b.set(99, &Value::Int(0)).is_err());
        let past_end = Candidates::from_sorted(vec![2, 4]);
        assert!(b.scatter(&past_end, &Bat::from_ints(vec![0, 0])).is_err());
        // A value that does not fit fails the whole scatter, naming itself.
        let big = Bat::from_lngs(vec![5, 1 << 40]);
        assert_eq!(
            b.scatter(&at, &big).unwrap_err(),
            GdkError::type_mismatch("cannot store 1099511627776 into int BAT")
        );
        assert_eq!(b.get(0), Value::Int(9), "nothing written");
        b.overwrite(&Bat::from_dbls(vec![0.4, 1.6, f64::NAN, -2.5]))
            .unwrap();
        assert_eq!(
            b.to_values(),
            vec![Value::Int(0), Value::Int(2), Value::Null, Value::Int(-3)]
        );
    }

    #[test]
    fn string_writes_reintern_into_the_target_heap() {
        let mut b = Bat::from_strs(vec![Some("a"), Some("b"), None]);
        let src = Bat::from_strs(vec![Some("c"), None, Some("a")]);
        b.overwrite(&src).unwrap();
        b.append_bat(&src).unwrap();
        assert_eq!(b.to_values(), [src.to_values(), src.to_values()].concat());
        let ColumnData::Str { heap, .. } = b.data() else {
            panic!("str column")
        };
        assert_eq!(heap.iter().collect::<Vec<_>>(), ["a", "b", "c"]);
    }

    #[test]
    fn constant_columns() {
        let d = Bat::constant(ScalarType::Dbl, 3, &Value::Int(2)).unwrap();
        assert_eq!(d.as_dbls().unwrap(), &[2.0; 3]);
        let nil = Bat::constant(ScalarType::Lng, 2, &Value::Null).unwrap();
        assert_eq!(nil.as_lngs().unwrap(), &[LNG_NIL; 2]);
        assert!(Bat::constant(ScalarType::Int, 2, &Value::Str("x".into())).is_err());
        assert!(Bat::constant(ScalarType::Str, 0, &Value::Int(1))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn push_type_errors() {
        let mut b = Bat::new(ScalarType::Int);
        assert!(b.push(&Value::Str("xyz".into())).is_err());
        let mut v = Bat::dense(0, 3);
        assert!(v.push(&Value::Oid(5)).is_err());
    }

    #[test]
    fn append_bat_casts() {
        let mut l = Bat::new(ScalarType::Lng);
        l.append_bat(&Bat::from_ints(vec![1, 2])).unwrap();
        assert_eq!(l.as_lngs().unwrap(), &[1i64, 2]);
        // All or nothing: the second value does not fit an int column.
        let mut i = Bat::from_ints(vec![7]);
        assert!(i.append_bat(&Bat::from_lngs(vec![1, 1 << 33])).is_err());
        assert_eq!(i.as_ints().unwrap(), &[7]);
        let mut v = Bat::dense(0, 3);
        assert!(v.append_bat(&Bat::new(ScalarType::OidT)).is_ok());
        assert!(v.append_bat(&Bat::from_oids(vec![3])).is_err());
    }
}
