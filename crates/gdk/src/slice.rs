//! Zero-copy column views.
//!
//! A [`BatSlice`] is a borrowed window `[off, off+len)` over a [`Bat`]'s
//! tail. It never copies column data: the typed accessors return
//! sub-slices of the underlying contiguous vectors (exactly the
//! "consecutive C arrays" property the SciQL paper leans on). The same
//! property is what lets the kernels hand disjoint `&v[range]` windows of
//! one column to the [`crate::par`] drivers' worker threads without
//! materialising per-thread BATs; [`chunk_ranges`] cuts those windows.

use crate::bat::{Bat, ColumnData};
use crate::strheap::StrHeap;
use crate::types::{Oid, ScalarType};
use crate::value::Value;

/// A borrowed, zero-copy window over a BAT's tail column.
#[derive(Debug, Clone, Copy)]
pub struct BatSlice<'a> {
    bat: &'a Bat,
    off: usize,
    len: usize,
}

impl<'a> BatSlice<'a> {
    /// View of positions `[off, off+len)`; the window must lie inside the
    /// BAT.
    pub fn new(bat: &'a Bat, off: usize, len: usize) -> Self {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= bat.len()),
            "slice [{off}, {off}+{len}) out of range (len {})",
            bat.len()
        );
        BatSlice { bat, off, len }
    }

    /// View of the whole BAT.
    pub fn full(bat: &'a Bat) -> Self {
        BatSlice {
            bat,
            off: 0,
            len: bat.len(),
        }
    }

    /// The underlying BAT.
    pub fn bat(&self) -> &'a Bat {
        self.bat
    }

    /// First position of the window within the BAT.
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Window length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tail type of the underlying column.
    pub fn tail_type(&self) -> ScalarType {
        self.bat.tail_type()
    }

    /// Boxed value at window position `i`.
    pub fn get(&self, i: usize) -> Value {
        debug_assert!(i < self.len);
        self.bat.get(self.off + i)
    }

    /// Is window position `i` nil?
    pub fn is_nil_at(&self, i: usize) -> bool {
        self.bat.is_nil_at(self.off + i)
    }

    /// Typed `int` window, if this is an int column.
    pub fn as_ints(&self) -> Option<&'a [i32]> {
        match self.bat.data() {
            ColumnData::Int(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    /// Typed `lng` window.
    pub fn as_lngs(&self) -> Option<&'a [i64]> {
        match self.bat.data() {
            ColumnData::Lng(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    /// Typed `dbl` window.
    pub fn as_dbls(&self) -> Option<&'a [f64]> {
        match self.bat.data() {
            ColumnData::Dbl(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    /// Typed `bit` window.
    pub fn as_bits(&self) -> Option<&'a [i8]> {
        match self.bat.data() {
            ColumnData::Bit(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    /// Typed `oid` window (materialised oid columns only).
    pub fn as_oids(&self) -> Option<&'a [Oid]> {
        match self.bat.data() {
            ColumnData::Oid(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    /// Dictionary-index window plus the shared heap, for string columns.
    pub fn as_strs(&self) -> Option<(&'a [u32], &'a StrHeap)> {
        match self.bat.data() {
            ColumnData::Str { idx, heap } => Some((&idx[self.off..self.off + self.len], heap)),
            _ => None,
        }
    }

    /// For a void (virtual dense) column: the first oid of this window.
    pub fn void_seq(&self) -> Option<Oid> {
        match self.bat.data() {
            ColumnData::Void { seq, .. } => Some(seq + self.off as Oid),
            _ => None,
        }
    }

    /// Narrow the window to `[from, from+len)` relative to this window.
    pub fn narrow(&self, from: usize, len: usize) -> BatSlice<'a> {
        assert!(from + len <= self.len, "narrow out of range");
        BatSlice {
            bat: self.bat,
            off: self.off + from,
            len,
        }
    }
}

/// Split `[0, n)` into `k` near-equal contiguous ranges (the leading
/// `n % k` ranges are one element longer). `k` is clamped to `[1, n]`
/// except when `n == 0`, which yields a single empty range.
// The `vec![0..0]` below really is a one-element vector holding an empty
// range, not a mistaken attempt to collect a range's elements.
#[allow(clippy::single_range_in_vec_init)]
pub fn chunk_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return vec![0..0];
    }
    let k = k.clamp(1, n);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::Bat;

    #[test]
    fn typed_windows_share_storage() {
        let b = Bat::from_ints(vec![1, 2, 3, 4, 5]);
        let s = BatSlice::new(&b, 1, 3);
        assert_eq!(s.as_ints().unwrap(), &[2, 3, 4]);
        assert_eq!(s.get(0), Value::Int(2));
        assert_eq!(s.len(), 3);
        let whole = b.as_ints().unwrap();
        let window = s.as_ints().unwrap();
        assert!(std::ptr::eq(&whole[1], &window[0]), "zero-copy view");
        let n = s.narrow(1, 2);
        assert_eq!(n.as_ints().unwrap(), &[3, 4]);
    }

    #[test]
    fn void_and_str_windows() {
        let v = Bat::dense(10, 6);
        let s = BatSlice::new(&v, 2, 3);
        assert_eq!(s.void_seq(), Some(12));
        assert_eq!(s.get(0), Value::Oid(12));

        let b = Bat::from_strs(vec![Some("a"), None, Some("b")]);
        let s = BatSlice::full(&b);
        let (idx, heap) = s.as_strs().unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(heap.get(idx[0]), Some("a"));
        assert_eq!(heap.get(idx[1]), None);
        assert!(s.is_nil_at(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = Bat::from_ints(vec![1]);
        let _ = BatSlice::new(&b, 1, 1);
    }

    #[test]
    fn chunking() {
        assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(chunk_ranges(2, 8), vec![0..1, 1..2]);
        assert_eq!(chunk_ranges(0, 4), vec![0..0]);
        let total: usize = chunk_ranges(1_000_003, 8).iter().map(|r| r.len()).sum();
        assert_eq!(total, 1_000_003);
    }
}
