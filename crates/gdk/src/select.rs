//! Selection operators producing candidate lists.
//!
//! `BATselect` in GDK: scan a BAT (optionally restricted by an incoming
//! candidate list) and return the head oids of qualifying tuples as a new
//! candidate list. Nil values never qualify (SQL semantics).

use crate::arith::CmpOp;
use crate::bat::{Bat, ColumnData};
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
pub fn rangeselect(
    b: &Bat,
    cand: Option<&Candidates>,
    lo: &Value,
    hi: &Value,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> Result<Candidates> {
    // Monomorphized per-shape scans: the hot path must not pay a virtual
    // call per element.
    if let ColumnData::Int(vals) = b.data() {
        let lo_i = bound_as_i64(lo)?;
        let hi_i = bound_as_i64(hi)?;
        return Ok(scan(b.len(), cand, |pos| {
            int_in_range(vals[pos], lo_i, hi_i, li, hi_incl, anti)
        }));
    }
    if let ColumnData::Void { seq, .. } = b.data() {
        let lo_i = bound_as_i64(lo)?;
        let hi_i = bound_as_i64(hi)?;
        let seq = *seq as i64;
        return Ok(scan(b.len(), cand, |pos| {
            i64_in_range(seq + pos as i64, lo_i, hi_i, li, hi_incl, anti)
        }));
    }
    // Bit masks (a DML predicate, `x = true`) with integral bounds; any
    // other bound compares as a boxed value below. A cell is false, true
    // or nil, so the bounds reduce to which of false/true qualify and the
    // scan compares bytes.
    if let (ColumnData::Bit(bits), Ok(lo_i), Ok(hi_i)) =
        (b.data(), bound_as_i64(lo), bound_as_i64(hi))
    {
        let holds = |v: i64| i64_in_range(v, lo_i, hi_i, li, hi_incl, anti);
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
pub(crate) fn int_in_range(
    x: i32,
    lo_i: Option<i64>,
    hi_i: Option<i64>,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> bool {
    if x == crate::types::INT_NIL {
        return false;
    }
    i64_in_range(x as i64, lo_i, hi_i, li, hi_incl, anti)
}

/// Integral range test shared by the int and void fast paths.
#[inline]
pub(crate) fn i64_in_range(
    x: i64,
    lo_i: Option<i64>,
    hi_i: Option<i64>,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> bool {
    let ge = lo_i.is_none_or(|l| if li { x >= l } else { x > l });
    let le = hi_i.is_none_or(|h| if hi_incl { x <= h } else { x < h });
    (ge && le) != anti
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

pub(crate) fn bound_as_i64(v: &Value) -> Result<Option<i64>> {
    if v.is_null() {
        return Ok(None);
    }
    match v {
        Value::Dbl(_) => Err(GdkError::type_mismatch(
            "fractional bound on int select; cast first",
        )),
        other => other
            .as_i64()
            .map(Some)
            .ok_or_else(|| GdkError::type_mismatch("non-numeric bound on int select")),
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
    fn fractional_bound_rejected() {
        let b = ints();
        assert!(thetaselect(&b, None, &Value::Dbl(1.5), CmpOp::Gt).is_err());
    }
}
