//! Per-tile zone maps: min/max/nil statistics over fixed-size column tiles.
//!
//! A column is logically split into tiles of [`TILE_ROWS`] consecutive
//! positions; each tile carries `(rows, nils, min, max)`. Range and theta
//! selections consult the map before scanning and restrict the scan to the
//! tiles whose value interval intersects the predicate — tiles that cannot
//! contain a qualifying row are skipped entirely. Skipping is expressed as
//! a [`Candidates`] restriction handed to the unchanged scan kernels, so a
//! skip-scan returns byte-identical results to the full scan: a skipped
//! tile contributes no qualifying rows by construction, and the surviving
//! positions keep their original order.
//!
//! Zone maps are built at bulk-ingest and checkpoint time (where the data
//! is walked anyway) and persisted next to the tile files; they are *not*
//! built lazily on scan, so ephemeral intermediates never pay for them.

use crate::bat::{Bat, ColumnData};
use crate::candidates::Candidates;
use crate::strheap::STR_NIL_IDX;
use crate::types::{is_dbl_nil, Oid, BIT_NIL, INT_NIL, LNG_NIL, OID_NIL};
use crate::value::Value;
use std::cmp::Ordering;

/// Rows per tile. 8192 ints = 32 KiB per tile file payload — large enough
/// to amortise framing, small enough that selective scans skip aggressively.
pub const TILE_ROWS: usize = 8192;

/// Statistics for one tile of a column.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneEntry {
    /// Rows in this tile (== tile size except for the last tile).
    pub rows: usize,
    /// Nil rows in this tile.
    pub nils: usize,
    /// Smallest non-nil value, `None` when the tile is all nil.
    pub min: Option<Value>,
    /// Largest non-nil value, `None` when the tile is all nil.
    pub max: Option<Value>,
}

impl ZoneEntry {
    /// An entry for an all-nil tile.
    pub fn all_nil(rows: usize) -> ZoneEntry {
        ZoneEntry {
            rows,
            nils: rows,
            min: None,
            max: None,
        }
    }
}

/// The zone map of one column: one [`ZoneEntry`] per tile, in tile order.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Tile size the map was built with.
    pub tile_rows: usize,
    /// Per-tile statistics, tile 0 first.
    pub entries: Vec<ZoneEntry>,
}

impl ZoneMap {
    /// Build the zone map of `b` with the given tile size.
    pub fn build(b: &Bat, tile_rows: usize) -> ZoneMap {
        assert!(tile_rows > 0, "tile_rows must be positive");
        let len = b.len();
        let n_tiles = len.div_ceil(tile_rows);
        let mut entries = Vec::with_capacity(n_tiles);
        for t in 0..n_tiles {
            let start = t * tile_rows;
            let end = (start + tile_rows).min(len);
            entries.push(tile_entry(b, start, end));
        }
        ZoneMap { tile_rows, entries }
    }

    /// Total rows covered by the map.
    pub fn total_rows(&self) -> usize {
        self.entries.iter().map(|e| e.rows).sum()
    }

    /// Restrict a range predicate (`lo`/`hi` bounds as in
    /// [`crate::select::rangeselect`]; a NULL bound is unbounded) to the
    /// tiles that may contain qualifying rows. Returns the candidate
    /// restriction plus the number of tiles skipped, or `None` when
    /// nothing can be skipped profitably (the caller then runs the
    /// ordinary full scan). Correctness never depends on the answer:
    /// a skipped tile provably holds no qualifying row.
    pub fn restrict_range(
        &self,
        len: usize,
        lo: &Value,
        hi: &Value,
        li: bool,
        hi_incl: bool,
        anti: bool,
    ) -> Option<(Candidates, usize)> {
        if self.total_rows() != len {
            return None; // stale map — never restrict on mismatched stats
        }
        let mut keep: Vec<bool> = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            keep.push(tile_may_qualify(e, lo, hi, li, hi_incl, anti)?);
        }
        let skipped = keep.iter().filter(|&&k| !k).count();
        if skipped == 0 {
            return None;
        }
        let kept_rows: usize = self
            .entries
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(e, _)| e.rows)
            .sum();
        // Single contiguous run of kept tiles → a Dense candidate range,
        // free to build at any skip ratio.
        let first_kept = keep.iter().position(|&k| k);
        let last_kept = keep.iter().rposition(|&k| k);
        match (first_kept, last_kept) {
            (None, None) => return Some((Candidates::none(), skipped)),
            (Some(a), Some(z)) if keep[a..=z].iter().all(|&k| k) => {
                let first = a * self.tile_rows;
                let run_len = ((z + 1) * self.tile_rows).min(len) - first;
                return Some((
                    Candidates::Dense {
                        first: first as Oid,
                        len: run_len,
                    },
                    skipped,
                ));
            }
            _ => {}
        }
        // Scattered kept tiles need a materialised position list; only
        // worth it when at least half the rows are skipped.
        if kept_rows * 2 > len {
            return None;
        }
        let mut positions: Vec<Oid> = Vec::with_capacity(kept_rows);
        for (t, &k) in keep.iter().enumerate() {
            if k {
                let start = t * self.tile_rows;
                let end = (start + self.tile_rows).min(len);
                positions.extend((start as Oid)..(end as Oid));
            }
        }
        Some((Candidates::from_sorted(positions), skipped))
    }
}

/// Can a tile with stats `e` contain a row qualifying under the range
/// predicate? `None` means the stats are not comparable with the bounds
/// (mixed types) — the caller must fall back to a full scan.
fn tile_may_qualify(
    e: &ZoneEntry,
    lo: &Value,
    hi: &Value,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> Option<bool> {
    // Nils never qualify, so an all-nil tile is always skippable.
    let (min, max) = match (&e.min, &e.max) {
        (Some(mn), Some(mx)) => (mn, mx),
        _ => return Some(false),
    };
    if !anti {
        // Tile disjoint from [lo, hi] on either side → skip.
        if !lo.is_null() {
            match max.sql_cmp(lo)? {
                Ordering::Less => return Some(false),
                Ordering::Equal if !li => return Some(false),
                _ => {}
            }
        }
        if !hi.is_null() {
            match min.sql_cmp(hi)? {
                Ordering::Greater => return Some(false),
                Ordering::Equal if !hi_incl => return Some(false),
                _ => {}
            }
        }
        Some(true)
    } else {
        // Anti-range qualifies outside [lo, hi]; skip only when every
        // non-nil value in the tile lies inside the range.
        let all_ge = lo.is_null()
            || match min.sql_cmp(lo)? {
                Ordering::Greater => true,
                Ordering::Equal => li,
                Ordering::Less => false,
            };
        let all_le = hi.is_null()
            || match max.sql_cmp(hi)? {
                Ordering::Less => true,
                Ordering::Equal => hi_incl,
                Ordering::Greater => false,
            };
        Some(!(all_ge && all_le))
    }
}

/// Compute the [`ZoneEntry`] for positions `start..end` of `b`.
fn tile_entry(b: &Bat, start: usize, end: usize) -> ZoneEntry {
    let rows = end - start;
    match b.data() {
        ColumnData::Void { seq, .. } => ZoneEntry {
            rows,
            nils: 0,
            min: Some(Value::Oid(seq + start as Oid)),
            max: Some(Value::Oid(seq + (end - 1) as Oid)),
        },
        ColumnData::Int(v) => typed_entry(&v[start..end], |&x| x == INT_NIL, |&x| Value::Int(x)),
        ColumnData::Lng(v) => typed_entry(&v[start..end], |&x| x == LNG_NIL, |&x| Value::Lng(x)),
        ColumnData::Oid(v) => typed_entry(&v[start..end], |&x| x == OID_NIL, |&x| Value::Oid(x)),
        ColumnData::Bit(v) => {
            typed_entry(&v[start..end], |&x| x == BIT_NIL, |&x| Value::Bit(x != 0))
        }
        ColumnData::Dbl(v) => {
            let slice = &v[start..end];
            let mut nils = 0usize;
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut seen = false;
            for &x in slice {
                if is_dbl_nil(x) {
                    nils += 1;
                } else {
                    seen = true;
                    if x < min {
                        min = x;
                    }
                    if x > max {
                        max = x;
                    }
                }
            }
            ZoneEntry {
                rows,
                nils,
                min: seen.then_some(Value::Dbl(min)),
                max: seen.then_some(Value::Dbl(max)),
            }
        }
        ColumnData::Str { idx, heap } => {
            let mut nils = 0usize;
            let mut min: Option<&str> = None;
            let mut max: Option<&str> = None;
            for &i in &idx[start..end] {
                if i == STR_NIL_IDX {
                    nils += 1;
                    continue;
                }
                let s = heap.get(i).expect("non-nil index resolves");
                min = Some(match min {
                    Some(m) if m <= s => m,
                    _ => s,
                });
                max = Some(match max {
                    Some(m) if m >= s => m,
                    _ => s,
                });
            }
            ZoneEntry {
                rows,
                nils,
                min: min.map(|s| Value::Str(s.to_owned())),
                max: max.map(|s| Value::Str(s.to_owned())),
            }
        }
    }
}

fn typed_entry<T: PartialOrd + Copy>(
    slice: &[T],
    is_nil: impl Fn(&T) -> bool,
    boxed: impl Fn(&T) -> Value,
) -> ZoneEntry {
    let mut vals = slice.iter().filter(|x| !is_nil(x));
    let bounds = vals.next().map(|&first| {
        vals.fold((first, first), |(lo, hi), &x| {
            (if x < lo { x } else { lo }, if x > hi { x } else { hi })
        })
    });
    ZoneEntry {
        rows: slice.len(),
        nils: slice.iter().filter(|x| is_nil(x)).count(),
        min: bounds.as_ref().map(|(lo, _)| boxed(lo)),
        max: bounds.as_ref().map(|(_, hi)| boxed(hi)),
    }
}

/// Consult `b`'s zone map (if one is installed and current) to restrict a
/// range predicate. Returns `(candidates, tiles_skipped)` when at least one
/// tile can be skipped, `None` otherwise.
pub fn restrict_range(
    b: &Bat,
    lo: &Value,
    hi: &Value,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> Option<(Candidates, usize)> {
    b.zone_map()?
        .restrict_range(b.len(), lo, hi, li, hi_incl, anti)
}

/// Consult `b`'s zone map to restrict a theta predicate `tail <op> val`.
pub fn restrict_theta(
    b: &Bat,
    val: &Value,
    op: crate::arith::CmpOp,
) -> Option<(Candidates, usize)> {
    if val.is_null() {
        return None; // kernel already returns the empty set
    }
    let (lo, hi, li, hi_incl, anti) = crate::select::theta_bounds(val, op);
    restrict_range(b, &lo, &hi, li, hi_incl, anti)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::CmpOp;
    use crate::select::{rangeselect, thetaselect};

    /// Clustered data: tile t holds values in [t*100, t*100+99].
    fn clustered(tiles: usize, tile_rows: usize) -> Bat {
        let mut v = Vec::with_capacity(tiles * tile_rows);
        for t in 0..tiles {
            for i in 0..tile_rows {
                v.push((t * 100 + i % 100) as i32);
            }
        }
        let b = Bat::from_ints(v);
        b.install_zone_map(ZoneMap::build(&b, tile_rows));
        b
    }

    #[test]
    fn build_stats_per_tile() {
        let b = Bat::from_opt_ints(vec![Some(5), None, Some(-3), Some(8), None, None]);
        let zm = ZoneMap::build(&b, 3);
        assert_eq!(zm.entries.len(), 2);
        assert_eq!(zm.entries[0].nils, 1);
        assert_eq!(zm.entries[0].min, Some(Value::Int(-3)));
        assert_eq!(zm.entries[0].max, Some(Value::Int(5)));
        assert_eq!(zm.entries[1].nils, 2);
        assert_eq!(zm.entries[1].min, Some(Value::Int(8)));
        assert_eq!(zm.total_rows(), 6);
    }

    #[test]
    fn all_nil_tile_has_no_bounds() {
        let b = Bat::from_opt_ints(vec![None, None]);
        let zm = ZoneMap::build(&b, 2);
        assert_eq!(zm.entries[0], ZoneEntry::all_nil(2));
    }

    #[test]
    fn restrict_matches_full_scan() {
        let tile = 4;
        let b = clustered(8, tile);
        for (lo, hi, li, hi_incl, anti) in [
            (Value::Int(200), Value::Int(320), true, true, false),
            (Value::Int(200), Value::Int(320), false, false, false),
            (Value::Null, Value::Int(150), true, true, false),
            (Value::Int(650), Value::Null, true, true, false),
            (Value::Int(100), Value::Int(600), true, true, true),
            (Value::Int(-5), Value::Int(-1), true, true, false),
        ] {
            let full = rangeselect(&b, None, &lo, &hi, li, hi_incl, anti).unwrap();
            let restricted =
                b.zone_map()
                    .unwrap()
                    .restrict_range(b.len(), &lo, &hi, li, hi_incl, anti);
            if let Some((cand, skipped)) = restricted {
                assert!(skipped > 0);
                let narrowed = rangeselect(&b, Some(&cand), &lo, &hi, li, hi_incl, anti).unwrap();
                assert_eq!(
                    narrowed.to_vec(),
                    full.to_vec(),
                    "restriction changed the result for [{lo}, {hi}] li={li} hi_incl={hi_incl} anti={anti}"
                );
            }
        }
    }

    #[test]
    fn contiguous_run_is_dense() {
        let b = clustered(8, 4);
        let (cand, skipped) = b
            .zone_map()
            .unwrap()
            .restrict_range(
                b.len(),
                &Value::Int(200),
                &Value::Int(320),
                true,
                true,
                false,
            )
            .unwrap();
        assert!(matches!(cand, Candidates::Dense { .. }));
        assert_eq!(skipped, 6, "tiles 0,1 and 4..8 are disjoint from [200,320]");
    }

    #[test]
    fn theta_restriction_skips_and_agrees() {
        let b = clustered(16, 4);
        let (cand, skipped) = restrict_theta(&b, &Value::Int(302), CmpOp::Eq).unwrap();
        assert_eq!(skipped, 15);
        let full = thetaselect(&b, None, &Value::Int(302), CmpOp::Eq).unwrap();
        let fast = thetaselect(&b, Some(&cand), &Value::Int(302), CmpOp::Eq).unwrap();
        assert!(!full.is_empty());
        assert_eq!(fast.to_vec(), full.to_vec());
    }

    #[test]
    fn stale_map_is_ignored() {
        let mut b = clustered(4, 4);
        assert!(b.zone_map().is_some());
        b.push(&Value::Int(9999)).unwrap(); // mutation drops the map
        assert!(b.zone_map().is_none());
        assert!(restrict_theta(&b, &Value::Int(9999), CmpOp::Eq).is_none());
    }

    #[test]
    fn anti_range_skips_fully_covered_tiles() {
        // Every value in tiles 1..3 lies inside [100, 299]; anti-select
        // can skip exactly those.
        let b = clustered(4, 4);
        let (cand, skipped) = b
            .zone_map()
            .unwrap()
            .restrict_range(
                b.len(),
                &Value::Int(100),
                &Value::Int(299),
                true,
                true,
                true,
            )
            .unwrap();
        assert_eq!(skipped, 2);
        let full = rangeselect(
            &b,
            None,
            &Value::Int(100),
            &Value::Int(299),
            true,
            true,
            true,
        )
        .unwrap();
        let fast = rangeselect(
            &b,
            Some(&cand),
            &Value::Int(100),
            &Value::Int(299),
            true,
            true,
            true,
        )
        .unwrap();
        assert_eq!(fast.to_vec(), full.to_vec());
    }

    #[test]
    fn string_zones() {
        let b = Bat::from_strs(vec![
            Some("apple"),
            Some("beet"),
            Some("carrot"),
            Some("date"),
        ]);
        b.install_zone_map(ZoneMap::build(&b, 2));
        let (cand, skipped) = restrict_theta(&b, &Value::Str("beet".into()), CmpOp::Eq).unwrap();
        assert_eq!(skipped, 1);
        let full = thetaselect(&b, None, &Value::Str("beet".into()), CmpOp::Eq).unwrap();
        let fast = thetaselect(&b, Some(&cand), &Value::Str("beet".into()), CmpOp::Eq).unwrap();
        assert_eq!(fast.to_vec(), full.to_vec());
    }

    #[test]
    fn scattered_tiles_only_restrict_when_profitable() {
        // Alternating tiles qualify → scattered; exactly half the rows
        // kept → List restriction allowed.
        let tile = 4;
        let mut v = Vec::new();
        for t in 0..8 {
            let base = if t % 2 == 0 { 0 } else { 1000 };
            for i in 0..tile {
                v.push(base + i as i32);
            }
        }
        let b = Bat::from_ints(v);
        b.install_zone_map(ZoneMap::build(&b, tile));
        let r = b.zone_map().unwrap().restrict_range(
            b.len(),
            &Value::Int(1000),
            &Value::Null,
            true,
            true,
            false,
        );
        let (cand, skipped) = r.unwrap();
        assert_eq!(skipped, 4);
        assert_eq!(cand.len(), 16);
    }
}
