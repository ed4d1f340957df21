//! Value-based grouping (`BATgroup`).
//!
//! Grouping is *refinable*: grouping a second column given the group ids of
//! the first yields the compound grouping, which is how multi-column
//! `GROUP BY` is executed column-at-a-time in MonetDB. NULLs form their own
//! single group (SQL semantics).

use crate::bat::{Bat, ColumnData};
use crate::candidates::Candidates;
use crate::types::{Oid, BIT_NIL};
use crate::{GdkError, Result};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Result of a grouping pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups {
    /// Group id per input row (aligned with the candidate order used).
    pub ids: Vec<u64>,
    /// Number of distinct groups.
    pub ngroups: u64,
    /// For each group, the oid of its first member (the "extent"), used to
    /// fetch representative key values.
    pub extents: Vec<Oid>,
}

impl Groups {
    /// Histogram: number of rows in each group.
    pub fn sizes(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.ngroups as usize];
        for &g in &self.ids {
            h[g as usize] += 1;
        }
        h
    }
}

/// The key of one row: its previous group id and its cell's canonical
/// bits (see [`group_by_windows`]).
pub(crate) type Key = (u64, u64);

/// A multiplicative hasher for [`Key`]s: one multiply per word, the high
/// half folded into the low bits the table indexes with.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by [`Key`]s.
pub(crate) type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// Grouping of one window of rows: window-local group ids in
/// first-occurrence order plus, per local group, its key and the oid of
/// its first member. One window's grouping *is* the serial result;
/// [`crate::par::group_windows`] renumbers several into one.
pub(crate) struct LocalGroups {
    pub(crate) ids: Vec<u64>,
    pub(crate) keys: Vec<Key>,
    pub(crate) firsts: Vec<Oid>,
}

fn local_group(rows: Range<usize>, key_at: impl Fn(usize) -> (Key, Oid)) -> LocalGroups {
    let mut map = KeyMap::default();
    let mut out = LocalGroups {
        ids: Vec::with_capacity(rows.len()),
        keys: Vec::new(),
        firsts: Vec::new(),
    };
    for i in rows {
        let (key, oid) = key_at(i);
        let g = match map.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                out.keys.push(key);
                out.firsts.push(oid);
                *e.insert(out.firsts.len() as u64 - 1)
            }
        };
        out.ids.push(g);
    }
    out
}

/// A `dbl` cell as a grouping key: equal values share a key (`-0.0` is
/// `0.0`) and every NaN is the one nil.
#[inline]
fn dbl_key(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        (x + 0.0).to_bits()
    }
}

/// Group the tail of `b`, optionally restricted to `cand` and refining a
/// previous grouping `prev` (whose `ids` must be aligned with the same
/// candidate order).
pub fn group_by(b: &Bat, cand: Option<&Candidates>, prev: Option<&Groups>) -> Result<Groups> {
    group_by_windows(b, cand, prev, 1)
}

/// [`group_by`] over `k` windows of rows.
///
/// Every row's key is its previous group id and one `u64` per cell, the
/// cell's bits made canonical so that two cells share them exactly when
/// they are equal and all nils share one: an integer's value, a `dbl`'s
/// [`dbl_key`], a `bit`'s truth, a string's dictionary index (the heap
/// holds each distinct string once).
pub(crate) fn group_by_windows(
    b: &Bat,
    cand: Option<&Candidates>,
    prev: Option<&Groups>,
    k: usize,
) -> Result<Groups> {
    let n = cand.map_or(b.len(), Candidates::len);
    if let Some(p) = prev {
        if p.ids.len() != n {
            return Err(GdkError::invalid(format!(
                "group refinement: {} previous ids vs {} rows",
                p.ids.len(),
                n
            )));
        }
    }
    fn by(
        rows: Range<usize>,
        cand: Option<&Candidates>,
        prev: Option<&Groups>,
        cell_key: impl Fn(usize) -> u64,
    ) -> LocalGroups {
        local_group(rows, |i| {
            let o = cand.map_or(i as Oid, |c| c.get(i));
            let pg = prev.map_or(0, |p| p.ids[i]);
            ((pg, cell_key(o as usize)), o)
        })
    }
    Ok(crate::par::group_windows(n, k, |rows| match b.data() {
        ColumnData::Void { seq, .. } => by(rows, cand, prev, |o| seq + o as Oid),
        ColumnData::Bit(v) => by(rows, cand, prev, |o| match v[o] {
            BIT_NIL => 2,
            x => u64::from(x != 0),
        }),
        ColumnData::Int(v) => by(rows, cand, prev, |o| v[o] as u64),
        ColumnData::Lng(v) => by(rows, cand, prev, |o| v[o] as u64),
        ColumnData::Dbl(v) => by(rows, cand, prev, |o| dbl_key(v[o])),
        ColumnData::Oid(v) => by(rows, cand, prev, |o| v[o]),
        ColumnData::Str { idx, .. } => by(rows, cand, prev, |o| u64::from(idx[o])),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_column_groups() {
        let b = Bat::from_ints(vec![5, 3, 5, 3, 7]);
        let g = group_by(&b, None, None).unwrap();
        assert_eq!(g.ngroups, 3);
        assert_eq!(g.ids, vec![0, 1, 0, 1, 2]);
        assert_eq!(g.extents, vec![0, 1, 4]);
        assert_eq!(g.sizes(), vec![2, 2, 1]);
    }

    #[test]
    fn nulls_form_one_group() {
        let b = Bat::from_opt_ints(vec![None, Some(1), None]);
        let g = group_by(&b, None, None).unwrap();
        assert_eq!(g.ngroups, 2);
        assert_eq!(g.ids[0], g.ids[2]);
        assert_ne!(g.ids[0], g.ids[1]);
    }

    #[test]
    fn refinement_compound_grouping() {
        // (a,b) pairs: (1,x) (1,y) (2,x) (1,x)
        let a = Bat::from_ints(vec![1, 1, 2, 1]);
        let b = Bat::from_strs(vec![Some("x"), Some("y"), Some("x"), Some("x")]);
        let g1 = group_by(&a, None, None).unwrap();
        let g2 = group_by(&b, None, Some(&g1)).unwrap();
        assert_eq!(g2.ngroups, 3);
        assert_eq!(g2.ids[0], g2.ids[3]);
        assert_ne!(g2.ids[0], g2.ids[1]);
        assert_ne!(g2.ids[0], g2.ids[2]);
    }

    #[test]
    fn grouping_with_candidates() {
        let b = Bat::from_ints(vec![1, 2, 1, 2, 3]);
        let c = Candidates::from_vec(vec![1, 3, 4]);
        let g = group_by(&b, Some(&c), None).unwrap();
        assert_eq!(g.ngroups, 2);
        assert_eq!(g.ids, vec![0, 0, 1]);
        assert_eq!(g.extents, vec![1, 4]);
    }

    #[test]
    fn refinement_length_mismatch_errors() {
        let a = Bat::from_ints(vec![1, 2]);
        let b = Bat::from_ints(vec![1, 2, 3]);
        let g1 = group_by(&a, None, None).unwrap();
        assert!(group_by(&b, None, Some(&g1)).is_err());
    }

    #[test]
    fn cross_width_values_group_together() {
        let b = Bat::from_dbls(vec![1.0, 1.0, 2.5]);
        let g = group_by(&b, None, None).unwrap();
        assert_eq!(g.ngroups, 2);
    }
}
