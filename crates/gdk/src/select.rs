//! Selection operators producing candidate lists.
//!
//! `BATselect` in GDK: scan a BAT (optionally restricted by an incoming
//! candidate list) and return the head oids of qualifying tuples as a new
//! candidate list. Nil values never qualify (SQL semantics).

use crate::arith::CmpOp;
use crate::bat::{Bat, ColumnData, Shape};
use crate::candidates::Candidates;
use crate::types::{Oid, BIT_NIL};
use crate::value::Value;
use crate::{GdkError, Result};
use std::cmp::Ordering;

/// Theta-select: all tuples where `tail <op> val` holds.
pub fn thetaselect(
    b: &Bat,
    cand: Option<&Candidates>,
    val: &Value,
    op: CmpOp,
) -> Result<Candidates> {
    if val.is_null() {
        // Comparison with NULL is never true.
        return Ok(Candidates::none());
    }
    let (lo, hi, li, hi_incl, anti) = theta_bounds(val, op);
    rangeselect(b, cand, &lo, &hi, li, hi_incl, anti)
}

/// Lower a theta comparison to range-select bounds `(lo, hi, li,
/// hi_incl, anti)`; shared with the parallel driver so the two paths
/// cannot drift. The caller handles NULL comparison values.
pub(crate) fn theta_bounds(val: &Value, op: CmpOp) -> (Value, Value, bool, bool, bool) {
    match op {
        CmpOp::Eq => (val.clone(), val.clone(), true, true, false),
        CmpOp::Ne => (val.clone(), val.clone(), true, true, true),
        CmpOp::Lt => (Value::Null, val.clone(), true, false, false),
        CmpOp::Le => (Value::Null, val.clone(), true, true, false),
        CmpOp::Gt => (val.clone(), Value::Null, false, true, false),
        CmpOp::Ge => (val.clone(), Value::Null, true, true, false),
    }
}

/// Range-select: tuples whose tail lies in the interval between `lo` and
/// `hi`; a NULL bound means unbounded on that side. `li`/`hi_incl` control
/// bound inclusivity; `anti` negates the predicate (nils still excluded).
/// A column with a [`Shape`] is answered by arithmetic, without reading it.
pub fn rangeselect(
    b: &Bat,
    cand: Option<&Candidates>,
    lo: &Value,
    hi: &Value,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> Result<Candidates> {
    if let Some(hits) = shape_select(b, cand, lo, hi, li, hi_incl, anti) {
        return Ok(hits);
    }
    // Monomorphized per-shape scans: the hot path must not pay a virtual
    // call per element.
    if let ColumnData::Int(vals) = b.data() {
        let range = int_range(lo, hi, li, hi_incl)?;
        return Ok(scan(b.len(), cand, |pos| {
            int_in_range(vals[pos], range, anti)
        }));
    }
    if let ColumnData::Void { seq, .. } = b.data() {
        let range = int_range(lo, hi, li, hi_incl)?;
        let seq = *seq as i64;
        return Ok(scan(b.len(), cand, |pos| {
            i64_in_range(seq + pos as i64, range, anti)
        }));
    }
    // Bit masks (a DML predicate, `x = true`) with numeric bounds; any
    // other bound compares as a boxed value below. A cell is false, true
    // or nil, so the bounds reduce to which of false/true qualify and the
    // scan compares bytes.
    if let (ColumnData::Bit(bits), Ok(range)) = (b.data(), int_range(lo, hi, li, hi_incl)) {
        let holds = |v: i64| i64_in_range(v, range, anti);
        return Ok(match (holds(0), holds(1)) {
            (false, false) => Hits::default().finish(),
            (false, true) => scan(b.len(), cand, |pos| bits[pos] != 0 && bits[pos] != BIT_NIL),
            (true, false) => scan(b.len(), cand, |pos| bits[pos] == 0),
            (true, true) => scan(b.len(), cand, |pos| bits[pos] != BIT_NIL),
        });
    }
    Ok(scan(b.len(), cand, |pos| {
        generic_in_range(&b.get(pos), lo, hi, li, hi_incl, anti)
    }))
}

/// Int-column element test (nil sentinel never qualifies).
#[inline]
pub(crate) fn int_in_range(x: i32, range: (i64, i64), anti: bool) -> bool {
    x != crate::types::INT_NIL && i64_in_range(x as i64, range, anti)
}

/// Integral range test shared by the int and void fast paths, over an
/// [`int_range`].
#[inline]
pub(crate) fn i64_in_range(x: i64, (l, h): (i64, i64), anti: bool) -> bool {
    (l <= x && x <= h) != anti
}

/// Generic (boxed-value) range test.
#[inline]
pub(crate) fn generic_in_range(
    v: &Value,
    lo: &Value,
    hi: &Value,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> bool {
    if v.is_null() {
        return false;
    }
    let ge = if lo.is_null() {
        true
    } else {
        match v.sql_cmp(lo) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Equal) => li,
            _ => false,
        }
    };
    let le = if hi.is_null() {
        true
    } else {
        match v.sql_cmp(hi) {
            Some(Ordering::Less) => true,
            Some(Ordering::Equal) => hi_incl,
            _ => false,
        }
    };
    (ge && le) != anti
}

/// The integers `x` with `lo <(=) x <(=) hi`, compared the way
/// [`Value::sql_cmp`] compares an integer with each bound, as the
/// inclusive range `(l, h)`; `l > h` when no integer qualifies. A
/// fractional bound compares as `f64` does: `x > 2.5` is `x >= 3`, and
/// `x = 2.5` holds for no `x`. A NULL bound is unbounded; a non-numeric
/// one is an error.
pub(crate) fn int_range(lo: &Value, hi: &Value, li: bool, hi_incl: bool) -> Result<(i64, i64)> {
    const NONE: (i64, i64) = (i64::MAX, i64::MIN);
    let holds =
        |x: i64, bound: &Value, side: Ordering, incl: bool| match Value::Lng(x).sql_cmp(bound) {
            Some(Ordering::Equal) => incl,
            o => o == Some(side),
        };
    let l = match lo {
        Value::Null => Some(i64::MIN),
        Value::Dbl(_) => least(|x| holds(x, lo, Ordering::Greater, li)),
        _ => numeric(lo)?.checked_add(i64::from(!li)),
    };
    let h = match hi {
        Value::Null => Some(i64::MAX),
        // One less than the least `x` above the bound.
        Value::Dbl(_) => match least(|x| !holds(x, hi, Ordering::Less, hi_incl)) {
            None => Some(i64::MAX),
            Some(above) => above.checked_sub(1),
        },
        _ => numeric(hi)?.checked_sub(i64::from(!hi_incl)),
    };
    Ok(match (l, h) {
        (Some(l), Some(h)) => (l, h),
        _ => NONE,
    })
}

/// An integral bound, or the error a non-numeric one raises.
fn numeric(v: &Value) -> Result<i64> {
    v.as_i64()
        .ok_or_else(|| GdkError::type_mismatch("non-numeric bound on int select"))
}

/// The least `x` for which `up` holds, `up` being false below some point
/// and true from there on; `None` when it never holds.
fn least(up: impl Fn(i64) -> bool) -> Option<i64> {
    // `up(b)` holds and `up(a)` does not, or `a` is below every i64.
    let (mut a, mut b) = (i64::MIN as i128 - 1, i64::MAX as i128);
    if !up(i64::MAX) {
        return None;
    }
    while b - a > 1 {
        let mid = a + (b - a) / 2;
        if up(mid as i64) {
            b = mid;
        } else {
            a = mid;
        }
    }
    Some(b as i64)
}

/// The hits of a range predicate over a column with a [`Shape`], found
/// by arithmetic without reading the column: equal to the scan of the
/// same values. `None` when `b` has no shape or a bound is not numeric;
/// the caller then scans, and reports the error the column's type gives.
pub(crate) fn shape_select(
    b: &Bat,
    cand: Option<&Candidates>,
    lo: &Value,
    hi: &Value,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> Option<Candidates> {
    let s = b.shape()?;
    let range = int_range(lo, hi, li, hi_incl).ok()?;
    Some(shaped(s, cand, range, anti))
}

/// [`shape_select`] once the bounds are an [`int_range`].
fn shaped(s: &Shape, cand: Option<&Candidates>, range: (i64, i64), anti: bool) -> Candidates {
    let period = s.count * s.n;
    let total = period * s.m;
    // Each repetition of the sequence holds the same hits: the offsets
    // of the qualifying values, or for `anti` the offsets around them.
    let (ja, jb) = value_indices(s, range);
    let (a, z) = (ja * s.n, jb * s.n);
    let runs = if anti {
        [(0, a), (z, period)]
    } else {
        [(a, z), (0, 0)]
    };
    let mut out = Hits::default();
    match cand {
        _ if total == 0 => {}
        None => {
            for base in (0..total).step_by(period) {
                for (x, y) in runs {
                    out.push_run((base + x) as Oid, y.saturating_sub(x));
                }
            }
        }
        Some(Candidates::Dense { first, len }) => {
            let (lo, hi) = (
                (*first as usize).min(total),
                (*first as usize + len).min(total),
            );
            let mut base = lo - lo % period;
            while base < hi {
                for (x, y) in runs {
                    let (x, y) = ((base + x).max(lo), (base + y).min(hi));
                    out.push_run(x as Oid, y.saturating_sub(x));
                }
                base += period;
            }
        }
        Some(Candidates::List(list)) => {
            let mut base = 0;
            for &o in list {
                let o = o as usize;
                if o >= total {
                    break;
                }
                while o >= base + period {
                    base += period;
                }
                if runs.iter().any(|&(x, y)| base + x <= o && o < base + y) {
                    out.push(o as Oid);
                }
            }
        }
    }
    out.finish()
}

/// The indices `ja..jb` of the values `start + step * j` (`j < count`)
/// that lie in the inclusive `range`.
fn value_indices(s: &Shape, (l, h): (i64, i64)) -> (usize, usize) {
    let (start, step) = (s.start as i128, s.step as i128);
    // `start + step*j >= l` bounds j from below for a positive step and
    // from above for a negative one; likewise `<= h`.
    let (from, to) = if step > 0 { (l, h) } else { (h, l) };
    let ja = -floor_div(start - from as i128, step);
    let jb = floor_div(to as i128 - start, step) + 1;
    let ja = ja.clamp(0, s.count as i128) as usize;
    let jb = jb.clamp(0, s.count as i128) as usize;
    if l > h || ja >= jb {
        (0, 0)
    } else {
        (ja, jb)
    }
}

/// `a / b` rounded towards negative infinity.
fn floor_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Select tuples whose tail is nil.
pub fn select_nil(b: &Bat, cand: Option<&Candidates>) -> Candidates {
    scan(b.len(), cand, |pos| b.is_nil_at(pos))
}

/// Select tuples whose tail is not nil.
pub fn select_non_nil(b: &Bat, cand: Option<&Candidates>) -> Candidates {
    scan(b.len(), cand, |pos| !b.is_nil_at(pos))
}

/// Convert a `bit` mask BAT into the candidate list of its `true` positions
/// (nil counts as false). The mask is aligned with `cand` when given,
/// otherwise with positions `0..len`.
pub fn mask_to_cands(mask: &Bat, cand: Option<&Candidates>) -> Result<Candidates> {
    let bits = mask
        .as_bits()
        .ok_or_else(|| GdkError::type_mismatch("mask_to_cands expects a bit BAT"))?;
    match cand {
        None => Ok(Candidates::from_sorted(
            bits.iter()
                .enumerate()
                .filter(|(_, &b)| b == 1)
                .map(|(i, _)| i as Oid)
                .collect(),
        )),
        Some(c) => {
            if c.len() != bits.len() {
                return Err(GdkError::invalid(format!(
                    "mask length {} does not match candidate count {}",
                    bits.len(),
                    c.len()
                )));
            }
            Ok(Candidates::from_sorted(
                (0..bits.len())
                    .filter(|&i| bits[i] == 1)
                    .map(|i| c.get(i))
                    .collect(),
            ))
        }
    }
}

/// The qualifying oids in order. A run with no gap stays a dense range;
/// the oid vector is only built once a gap appears.
fn scan<F: Fn(usize) -> bool>(len: usize, cand: Option<&Candidates>, pred: F) -> Candidates {
    let mut out = Hits::default();
    match cand {
        None => {
            for pos in 0..len {
                if pred(pos) {
                    out.push(pos as Oid);
                }
            }
        }
        Some(c) => {
            for o in c.iter() {
                let pos = o as usize;
                if pos < len && pred(pos) {
                    out.push(o);
                }
            }
        }
    }
    out.finish()
}

/// Accumulator of [`scan`]: equal to collecting every hit into a vector
/// and calling [`Candidates::from_sorted`].
#[derive(Default)]
struct Hits {
    first: Oid,
    run: usize,
    list: Option<Vec<Oid>>,
}

impl Hits {
    #[inline]
    fn push(&mut self, o: Oid) {
        match &mut self.list {
            Some(v) => v.push(o),
            None if self.run == 0 => (self.first, self.run) = (o, 1),
            None if o == self.first + self.run as Oid => self.run += 1,
            None => {
                let mut v: Vec<Oid> = (self.first..self.first + self.run as Oid).collect();
                v.push(o);
                self.list = Some(v);
            }
        }
    }

    /// Push the oids `first .. first + len`.
    fn push_run(&mut self, first: Oid, len: usize) {
        match &mut self.list {
            _ if len == 0 => {}
            None if self.run == 0 => (self.first, self.run) = (first, len),
            None if first == self.first + self.run as Oid => self.run += len,
            list => list
                .get_or_insert_with(|| (self.first..self.first + self.run as Oid).collect())
                .extend(first..first + len as Oid),
        }
    }

    fn finish(self) -> Candidates {
        match self.list {
            Some(v) => Candidates::List(v),
            None if self.run == 0 => Candidates::List(Vec::new()),
            None => Candidates::Dense {
                first: self.first,
                len: self.run,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints() -> Bat {
        Bat::from_opt_ints(vec![Some(5), None, Some(-3), Some(8), Some(0), Some(5)])
    }

    #[test]
    fn theta_eq_ne() {
        let b = ints();
        assert_eq!(
            thetaselect(&b, None, &Value::Int(5), CmpOp::Eq)
                .unwrap()
                .to_vec(),
            vec![0, 5]
        );
        // NE excludes nils too
        assert_eq!(
            thetaselect(&b, None, &Value::Int(5), CmpOp::Ne)
                .unwrap()
                .to_vec(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn theta_ranges() {
        let b = ints();
        assert_eq!(
            thetaselect(&b, None, &Value::Int(0), CmpOp::Gt)
                .unwrap()
                .to_vec(),
            vec![0, 3, 5]
        );
        assert_eq!(
            thetaselect(&b, None, &Value::Int(0), CmpOp::Le)
                .unwrap()
                .to_vec(),
            vec![2, 4]
        );
    }

    #[test]
    fn range_both_bounds() {
        let b = ints();
        let c = rangeselect(&b, None, &Value::Int(0), &Value::Int(5), true, true, false).unwrap();
        assert_eq!(c.to_vec(), vec![0, 4, 5]);
        let anti = rangeselect(&b, None, &Value::Int(0), &Value::Int(5), true, true, true).unwrap();
        assert_eq!(anti.to_vec(), vec![2, 3], "anti-select still drops nil");
    }

    #[test]
    fn with_candidates() {
        let b = ints();
        let cand = Candidates::from_vec(vec![0, 2, 3]);
        assert_eq!(
            thetaselect(&b, Some(&cand), &Value::Int(0), CmpOp::Gt)
                .unwrap()
                .to_vec(),
            vec![0, 3]
        );
    }

    #[test]
    fn null_comparison_empty() {
        let b = ints();
        assert!(thetaselect(&b, None, &Value::Null, CmpOp::Eq)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn nil_selects() {
        let b = ints();
        assert_eq!(select_nil(&b, None).to_vec(), vec![1]);
        assert_eq!(select_non_nil(&b, None).len(), 5);
    }

    #[test]
    fn dense_select() {
        let v = Bat::dense(10, 6); // oids 10..16
        let c = thetaselect(&v, None, &Value::Lng(12), CmpOp::Ge).unwrap();
        assert_eq!(c.to_vec(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn string_select() {
        let b = Bat::from_strs(vec![Some("b"), None, Some("a"), Some("c")]);
        let c = thetaselect(&b, None, &Value::Str("b".into()), CmpOp::Ge).unwrap();
        assert_eq!(c.to_vec(), vec![0, 3]);
    }

    #[test]
    fn mask_conversion() {
        let m = Bat::from_bits(vec![Some(true), Some(false), None, Some(true)]);
        assert_eq!(mask_to_cands(&m, None).unwrap().to_vec(), vec![0, 3]);
        let c = Candidates::from_vec(vec![4, 5, 6, 9]);
        assert_eq!(mask_to_cands(&m, Some(&c)).unwrap().to_vec(), vec![4, 9]);
        assert!(mask_to_cands(&Bat::from_ints(vec![1]), None).is_err());
    }

    #[test]
    fn bit_mask_select_stays_dense_without_gaps() {
        let all = Bat::from_bits(vec![Some(true); 5]);
        let t = Value::Bit(true);
        assert_eq!(
            thetaselect(&all, None, &t, CmpOp::Eq).unwrap(),
            Candidates::Dense { first: 0, len: 5 }
        );
        let m = Bat::from_bits(vec![Some(true), None, Some(false), Some(true)]);
        assert_eq!(
            thetaselect(&m, None, &t, CmpOp::Eq).unwrap(),
            Candidates::List(vec![0, 3])
        );
        assert_eq!(
            thetaselect(&m, None, &t, CmpOp::Ne).unwrap().to_vec(),
            vec![2],
            "nil never qualifies"
        );
        // A fractional bound compares as a boxed value instead of failing.
        assert_eq!(
            thetaselect(&m, None, &Value::Dbl(0.5), CmpOp::Gt)
                .unwrap()
                .to_vec(),
            vec![0, 3]
        );
    }

    #[test]
    fn fractional_bounds_compare_like_sql_cmp() {
        let b = ints(); // 5, nil, -3, 8, 0, 5
        let sel = |v: f64, op| thetaselect(&b, None, &Value::Dbl(v), op).unwrap().to_vec();
        assert_eq!(sel(2.5, CmpOp::Gt), vec![0, 3, 5], "x > 2.5 is x >= 3");
        assert_eq!(sel(2.5, CmpOp::Le), vec![2, 4]);
        assert_eq!(sel(-3.0, CmpOp::Le), vec![2], "an integral double is exact");
        assert_eq!(sel(5.5, CmpOp::Eq), Vec::<Oid>::new(), "no int equals 5.5");
        assert_eq!(
            sel(5.5, CmpOp::Ne),
            vec![0, 2, 3, 4, 5],
            "nil still excluded"
        );
        assert_eq!(sel(f64::NAN, CmpOp::Lt), Vec::<Oid>::new());
        assert_eq!(sel(1e300, CmpOp::Lt), vec![0, 2, 3, 4, 5]);
        let v = Bat::dense(10, 4);
        let got = thetaselect(&v, None, &Value::Dbl(11.5), CmpOp::Ge).unwrap();
        assert_eq!(got.to_vec(), vec![2, 3]);
        assert!(thetaselect(&b, None, &Value::Str("x".into()), CmpOp::Gt).is_err());
    }

    #[test]
    fn int_range_normalises_every_bound_kind() {
        let r = |lo: Value, hi: Value, li, hi_incl| int_range(&lo, &hi, li, hi_incl).unwrap();
        assert_eq!(
            r(Value::Null, Value::Null, true, true),
            (i64::MIN, i64::MAX)
        );
        assert_eq!(r(Value::Int(3), Value::Lng(9), false, false), (4, 8));
        assert_eq!(r(Value::Dbl(-2.5), Value::Dbl(2.5), true, true), (-2, 2));
        let (l, h) = r(Value::Lng(i64::MAX), Value::Null, false, true);
        assert!(l > h, "nothing lies above i64::MAX");
        let (l, h) = r(Value::Dbl(f64::NAN), Value::Null, true, true);
        assert!(l > h, "NaN compares with nothing");
    }

    /// Every shaped selection equals the scan of the same values.
    #[test]
    fn shaped_selects_match_the_scan() {
        let cands = [
            None,
            Some(Candidates::Dense { first: 3, len: 20 }),
            Some(Candidates::from_vec(vec![0, 4, 5, 11, 17, 29, 30, 99])),
        ];
        for (start, step, stop, n, m) in [(0, 1, 4, 2, 3), (7, -2, -4, 1, 5), (-3, 3, 9, 3, 1)] {
            let shaped = Bat::series(start, step, stop, n, m).unwrap();
            assert!(shaped.shape().is_some());
            let plain = Bat::from_data(shaped.data().clone());
            for cand in &cands {
                for v in [-5.0, -1.0, 0.0, 1.5, 2.0, 3.0, 7.0] {
                    for op in [
                        CmpOp::Eq,
                        CmpOp::Ne,
                        CmpOp::Lt,
                        CmpOp::Le,
                        CmpOp::Gt,
                        CmpOp::Ge,
                    ] {
                        let val = Value::Dbl(v);
                        assert_eq!(
                            thetaselect(&shaped, cand.as_ref(), &val, op),
                            thetaselect(&plain, cand.as_ref(), &val, op),
                            "series({start},{step},{stop},{n},{m}) {op:?} {v} {cand:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_shape_gives_ranges_and_lasts_until_a_write() {
        // x of a 4x4 array: 0 0 0 0 1 1 1 1 …; y: 0 1 2 3 0 1 2 3 …
        let x = Bat::series(0, 1, 4, 4, 1).unwrap();
        let y = Bat::series(0, 1, 4, 1, 4).unwrap();
        let row = thetaselect(&x, None, &Value::Int(2), CmpOp::Eq).unwrap();
        assert_eq!(row, Candidates::Dense { first: 8, len: 4 });
        let cell = thetaselect(&y, Some(&row), &Value::Int(1), CmpOp::Eq).unwrap();
        assert_eq!(cell, Candidates::Dense { first: 9, len: 1 });
        let not_one = thetaselect(&y, None, &Value::Int(0), CmpOp::Ne).unwrap();
        assert_eq!(
            not_one.to_vec(),
            vec![1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15]
        );
        let mut written = x.clone();
        assert!(written.shape().is_some(), "a copy keeps the shape");
        written.set(0, &Value::Int(9)).unwrap();
        assert!(written.shape().is_none(), "a write drops it");
    }
}
