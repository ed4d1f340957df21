//! Fused kernels: select→project and select→aggregate in one pass.
//!
//! The MAL optimizer's fusion passes rewrite `thetaselect` + `projection`
//! (+ scalar aggregate) chains into single instructions backed by these
//! kernels, so the candidate list — and for aggregates the projected
//! payload BAT — is never materialised. Each kernel is defined as *the
//! composition of the serial kernels it replaces*:
//! `theta_select_project(b, …, payload)` produces exactly
//! `project(thetaselect(b, …), payload)` and `theta_select_aggregate`
//! produces exactly `scalar(func, project(…))`, including error behaviour
//! (out-of-range projection oids, SUM overflow at the same prefix, the
//! earlier of the two when both occur), which the differential tests pin
//! down. The aggregate itself is [`crate::aggregate`]'s one state, fed
//! one group.
//!
//! Predicates use the same `*_in_range` helpers the selection scan
//! monomorphizes — so the qualifying sets cannot drift — dispatched here
//! through the `with_range_pred!` macro so each shape gets a concrete closure
//! (no virtual call per element on the hot path). A selection column with
//! a [`crate::bat::Shape`] is not read at all: its hits come from
//! [`crate::select`]'s arithmetic, and the kernel walks them serially.

use crate::aggregate::{with_agg_push, AggFunc, AggState};
use crate::bat::{Bat, ColumnData};
use crate::candidates::Candidates;
use crate::project::oob;
use crate::select::{shape_select, theta_bounds};
use crate::types::ScalarType;
use crate::value::Value;
use crate::Result;
use std::ops::Range;

/// Bind `$pred` to a *concrete* per-shape range-predicate closure and
/// evaluate `$body` with it — one monomorphized copy of the body per
/// column shape, sharing the `select::*_in_range` element tests with
/// the plain selection scan.
macro_rules! with_range_pred {
    ($b:expr, $lo:expr, $hi:expr, $li:expr, $hi_incl:expr, $anti:expr, |$pred:ident| $body:expr) => {{
        let b = $b;
        match b.data() {
            ColumnData::Int(vals) => {
                let range = crate::select::int_range($lo, $hi, $li, $hi_incl)?;
                let $pred = |pos: usize| crate::select::int_in_range(vals[pos], range, $anti);
                $body
            }
            ColumnData::Void { seq, .. } => {
                let range = crate::select::int_range($lo, $hi, $li, $hi_incl)?;
                let seq = *seq as i64;
                let $pred =
                    |pos: usize| crate::select::i64_in_range(seq + pos as i64, range, $anti);
                $body
            }
            _ => {
                let $pred = |pos: usize| {
                    crate::select::generic_in_range(&b.get(pos), $lo, $hi, $li, $hi_incl, $anti)
                };
                $body
            }
        }
    }};
}

/// Bytes one tail element of type `t` occupies in a materialised BAT
/// (strings count their dictionary index). Used for the "bytes not
/// materialized" accounting the fused kernels report upward.
pub fn elem_width(t: ScalarType) -> usize {
    match t {
        ScalarType::Bit => 1,
        ScalarType::Int | ScalarType::Str => 4,
        ScalarType::Lng | ScalarType::Dbl | ScalarType::OidT => 8,
    }
}

/// Walk window `rows` of the selection domain (all of `b`, or the
/// incoming candidate list) in order, calling `hit` with each qualifying
/// position. A qualifying position beyond the payload is the
/// out-of-range error `project` would raise.
///
/// The dominant shape — full-domain scan over a payload at least as long
/// as the selection column — needs no per-element range check, so that
/// loop is a plain `if pred { hit }` like the selection scan itself.
#[inline]
fn for_each_hit(
    (len, plen): (usize, usize),
    cand: Option<&Candidates>,
    rows: Range<usize>,
    pred: impl Fn(usize) -> bool,
    mut hit: impl FnMut(usize),
) -> Result<()> {
    match cand {
        None if plen >= len => {
            for pos in rows {
                if pred(pos) {
                    hit(pos);
                }
            }
        }
        _ => {
            for i in rows {
                let pos = cand.map_or(i, |c| c.get(i) as usize);
                if pos < len && pred(pos) {
                    if pos >= plen {
                        return Err(oob(pos, plen));
                    }
                    hit(pos);
                }
            }
        }
    }
    Ok(())
}

/// Fused theta-select + project: one pass over `b`'s selection domain,
/// emitting `payload` values at qualifying positions. Equivalent to
/// `project(&thetaselect(b, cand, val, op)?, payload)` without
/// materialising the candidate list (NULL comparison value selects
/// nothing).
pub fn theta_select_project(
    b: &Bat,
    cand: Option<&Candidates>,
    val: &Value,
    op: crate::arith::CmpOp,
    payload: &Bat,
) -> Result<Bat> {
    theta_select_project_windows(b, cand, val, op, payload, 1).map(|(out, _)| out)
}

/// [`theta_select_project`] over `k` windows of the selection domain,
/// concatenated in window order; returns the window count used.
pub(crate) fn theta_select_project_windows(
    b: &Bat,
    cand: Option<&Candidates>,
    val: &Value,
    op: crate::arith::CmpOp,
    payload: &Bat,
    k: usize,
) -> Result<(Bat, usize)> {
    if val.is_null() {
        return Ok((crate::project::project(&Candidates::none(), payload)?, 1));
    }
    let (lo, hi, li, hi_incl, anti) = theta_bounds(val, op);
    if let Some(hits) = shape_select(b, cand, &lo, &hi, li, hi_incl, anti) {
        return Ok((crate::project::project(&hits, payload)?, 1));
    }
    let out = with_range_pred!(b, &lo, &hi, li, hi_incl, anti, |pred| {
        select_project_with(b.len(), cand, payload, k, pred)
    })?;
    Ok((out, k))
}

/// The select→project walk, generic over the (monomorphized) predicate.
fn select_project_with(
    len: usize,
    cand: Option<&Candidates>,
    payload: &Bat,
    k: usize,
    pred: impl Fn(usize) -> bool + Sync,
) -> Result<Bat> {
    let n = cand.map_or(len, Candidates::len);
    let lens = (len, payload.len());
    // The payload values at the qualifying positions, typed.
    macro_rules! kept {
        (|$pos:ident| $fetch:expr) => {
            crate::par::concat_windows(n, k, |rows| {
                let mut out = Vec::new();
                for_each_hit(lens, cand, rows, &pred, |$pos| out.push($fetch))?;
                Ok(out)
            })?
        };
    }
    Ok(Bat::from_data(match payload.data() {
        ColumnData::Void { seq, .. } => ColumnData::Oid(kept!(|p| seq + p as crate::types::Oid)),
        ColumnData::Bit(v) => ColumnData::Bit(kept!(|p| v[p])),
        ColumnData::Int(v) => ColumnData::Int(kept!(|p| v[p])),
        ColumnData::Lng(v) => ColumnData::Lng(kept!(|p| v[p])),
        ColumnData::Dbl(v) => ColumnData::Dbl(kept!(|p| v[p])),
        ColumnData::Oid(v) => ColumnData::Oid(kept!(|p| v[p])),
        // Share the dictionary by cloning, exactly like `project`.
        ColumnData::Str { idx, heap } => ColumnData::Str {
            idx: kept!(|p| idx[p]),
            heap: heap.clone(),
        },
    }))
}

/// The select→aggregate walk, generic over the (monomorphized)
/// predicate: one group of `func` over the qualifying payload positions,
/// folded per window and merged in window order. Returns the value, the
/// qualifying count and the window count used. A walk that fails reports
/// its error unless the `SUM` over the rows before it had already
/// overflowed — first failing row wins, as in the unfused chain.
fn select_aggregate_with(
    func: AggFunc,
    payload: &Bat,
    len: usize,
    cand: Option<&Candidates>,
    k: usize,
    pred: impl Fn(usize) -> bool + Sync,
) -> Result<(Value, usize, usize)> {
    let empty = AggState::new(func, payload.tail_type(), 1)?;
    let k = if empty.mergeable() { k } else { 1 };
    let lens = (len, payload.len());
    let ((state, selected), status) = crate::par::reduce_windows(
        cand.map_or(len, Candidates::len),
        k,
        (empty, 0usize),
        |(state, selected), rows| {
            with_agg_push!(state, payload, |push| for_each_hit(
                lens,
                cand,
                rows,
                &pred,
                |pos| {
                    *selected += 1;
                    push(0, pos);
                }
            ))
        },
        |(state, selected), (later, later_selected)| {
            state.merge(later);
            *selected += later_selected;
        },
    );
    Ok((state.finish(status)?.get(0), selected, k))
}

/// Candidate-propagated scalar aggregate: aggregate `payload` at the
/// candidate positions without materialising the projected BAT.
/// Equivalent to `scalar(func, project(cand, payload))`.
pub fn project_aggregate(func: AggFunc, payload: &Bat, cand: &Candidates) -> Result<Value> {
    project_aggregate_windows(func, payload, cand, 1).map(|(v, _)| v)
}

/// [`project_aggregate`] over `k` windows of the candidate list; returns
/// the window count used.
pub(crate) fn project_aggregate_windows(
    func: AggFunc,
    payload: &Bat,
    cand: &Candidates,
    k: usize,
) -> Result<(Value, usize)> {
    // A selection that keeps every candidate, over an unbounded column.
    let (v, _, k) = select_aggregate_with(func, payload, usize::MAX, Some(cand), k, |_| true)?;
    Ok((v, k))
}

/// Fully fused select→project→aggregate: one pass over `b`'s selection
/// domain, aggregating `payload` at qualifying positions. Neither the
/// candidate list nor the projected BAT is materialised. Returns the
/// aggregate plus the qualifying-tuple count (for the "bytes not
/// materialized" accounting). Equivalent to
/// `scalar(func, project(&thetaselect(b, cand, val, op)?, payload))`.
pub fn theta_select_aggregate(
    func: AggFunc,
    payload: &Bat,
    b: &Bat,
    cand: Option<&Candidates>,
    val: &Value,
    op: crate::arith::CmpOp,
) -> Result<(Value, usize)> {
    theta_select_aggregate_windows(func, payload, b, cand, val, op, 1)
        .map(|(v, selected, _)| (v, selected))
}

/// [`theta_select_aggregate`] over `k` windows of the selection domain;
/// returns `(value, selected, windows used)`.
pub(crate) fn theta_select_aggregate_windows(
    func: AggFunc,
    payload: &Bat,
    b: &Bat,
    cand: Option<&Candidates>,
    val: &Value,
    op: crate::arith::CmpOp,
    k: usize,
) -> Result<(Value, usize, usize)> {
    if val.is_null() {
        // Nothing qualifies; up-front type validation still applies (as
        // the unfused aggregate over the empty projection would).
        return select_aggregate_with(func, payload, 0, None, 1, |_| false);
    }
    let (lo, hi, li, hi_incl, anti) = theta_bounds(val, op);
    if let Some(hits) = shape_select(b, cand, &lo, &hi, li, hi_incl, anti) {
        return select_aggregate_with(func, payload, usize::MAX, Some(&hits), 1, |_| true);
    }
    with_range_pred!(b, &lo, &hi, li, hi_incl, anti, |pred| {
        select_aggregate_with(func, payload, b.len(), cand, k, pred)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::CmpOp;
    use crate::project::project;
    use crate::select::thetaselect;

    fn unfused_sp(b: &Bat, cand: Option<&Candidates>, val: &Value, op: CmpOp, p: &Bat) -> Bat {
        project(&thetaselect(b, cand, val, op).unwrap(), p).unwrap()
    }

    #[test]
    fn select_project_matches_unfused() {
        let b = Bat::from_opt_ints(vec![Some(5), None, Some(-3), Some(8), Some(0), Some(5)]);
        let p = Bat::from_strs(vec![Some("a"), Some("b"), None, Some("d"), Some("e"), None]);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let fused = theta_select_project(&b, None, &Value::Int(0), op, &p).unwrap();
            let plain = unfused_sp(&b, None, &Value::Int(0), op, &p);
            assert_eq!(fused.to_values(), plain.to_values(), "{op:?}");
        }
        let cand = Candidates::from_vec(vec![0, 2, 3, 5]);
        let fused = theta_select_project(&b, Some(&cand), &Value::Int(4), CmpOp::Gt, &p).unwrap();
        let plain = unfused_sp(&b, Some(&cand), &Value::Int(4), CmpOp::Gt, &p);
        assert_eq!(fused.to_values(), plain.to_values());
    }

    #[test]
    fn select_project_null_value_is_empty() {
        let b = Bat::from_ints(vec![1, 2]);
        let p = Bat::from_ints(vec![10, 20]);
        let out = theta_select_project(&b, None, &Value::Null, CmpOp::Eq, &p).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.tail_type(), ScalarType::Int);
    }

    #[test]
    fn select_project_oob_errors_like_project() {
        let b = Bat::from_ints(vec![1, 2, 3]);
        let short = Bat::from_ints(vec![10]);
        let fused = theta_select_project(&b, None, &Value::Int(1), CmpOp::Gt, &short).unwrap_err();
        let plain = project(
            &thetaselect(&b, None, &Value::Int(1), CmpOp::Gt).unwrap(),
            &short,
        )
        .unwrap_err();
        assert_eq!(fused, plain);
    }

    #[test]
    fn project_aggregate_matches_unfused() {
        let p = Bat::from_opt_ints(vec![Some(3), None, Some(7), Some(-2), Some(7)]);
        let cand = Candidates::from_vec(vec![0, 1, 2, 4]);
        for f in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let fused = project_aggregate(f, &p, &cand).unwrap();
            let plain = crate::aggregate::scalar(f, &project(&cand, &p).unwrap()).unwrap();
            assert_eq!(fused, plain, "{f:?}");
        }
    }

    #[test]
    fn select_aggregate_matches_unfused() {
        let b = Bat::from_opt_ints((0..200).map(|i| (i % 9 != 0).then_some(i % 40)).collect());
        let p = Bat::from_opt_ints((0..200).map(|i| (i % 7 != 0).then_some(i - 100)).collect());
        for f in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let (fused, n) =
                theta_select_aggregate(f, &p, &b, None, &Value::Int(20), CmpOp::Lt).unwrap();
            let cand = thetaselect(&b, None, &Value::Int(20), CmpOp::Lt).unwrap();
            let plain = crate::aggregate::scalar(f, &project(&cand, &p).unwrap()).unwrap();
            assert_eq!(fused, plain, "{f:?}");
            assert_eq!(n, cand.len(), "{f:?}");
        }
        // NULL comparison value: empty selection.
        let (v, n) =
            theta_select_aggregate(AggFunc::Count, &p, &b, None, &Value::Null, CmpOp::Eq).unwrap();
        assert_eq!(v, Value::Lng(0));
        assert_eq!(n, 0);
    }

    #[test]
    fn fused_sum_overflow_matches_unfused() {
        let b = Bat::from_ints(vec![1, 1, 1]);
        let p = Bat::from_lngs(vec![i64::MAX, i64::MAX, -1]);
        let fused = theta_select_aggregate(AggFunc::Sum, &p, &b, None, &Value::Int(0), CmpOp::Gt)
            .unwrap_err();
        let cand = thetaselect(&b, None, &Value::Int(0), CmpOp::Gt).unwrap();
        let plain = crate::aggregate::scalar(AggFunc::Sum, &project(&cand, &p).unwrap());
        assert_eq!(Err(fused), plain);
    }

    #[test]
    fn string_sum_rejected_like_unfused() {
        let p = Bat::from_strs(vec![Some("a")]);
        assert!(project_aggregate(AggFunc::Sum, &p, &Candidates::all(1)).is_err());
    }

    #[test]
    fn widths() {
        assert_eq!(elem_width(ScalarType::Bit), 1);
        assert_eq!(elem_width(ScalarType::Int), 4);
        assert_eq!(elem_width(ScalarType::Lng), 8);
    }
}
