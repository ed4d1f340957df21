//! `algebra.*` — selections, projections, joins, slices, sorting.

use crate::interp::MalValue;
use crate::registry::ExecCtx;
use crate::{MalError, Result};
use gdk::arith::CmpOp;
use gdk::candidates::Candidates;
use gdk::{join, project, select, sort, zonemap, Bat, Value};
use std::sync::Arc;

pub(crate) fn cmp_from_str(s: &str) -> Result<CmpOp> {
    Ok(match s {
        "==" | "=" => CmpOp::Eq,
        "!=" | "<>" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return Err(MalError::msg(format!("unknown comparison operator {s:?}"))),
    })
}

fn opt_cand(args: &[MalValue], i: usize) -> Result<Option<std::sync::Arc<Candidates>>> {
    match args.get(i) {
        Some(MalValue::Cand(c)) => Ok(Some(c.clone())),
        Some(other) => Err(MalError::msg(format!(
            "argument {i} must be a candidate list, got {}",
            other.kind()
        ))),
        None => Ok(None),
    }
}

fn as_bool(v: &Value, what: &str) -> Result<bool> {
    v.as_bool()
        .ok_or_else(|| MalError::msg(format!("{what} must be a boolean")))
}

/// Consult `b`'s zone map and narrow an unrestricted theta-selection to
/// the tiles that may hold qualifying rows. Only fires when no explicit
/// candidate list restricts the scan already, the session has
/// zone-skipping enabled and `b` has no [`gdk::Shape`] (its selection
/// reads no tile at all); results are identical either way.
pub(crate) fn zone_restrict_theta(
    ctx: &ExecCtx,
    b: &Bat,
    cand: Option<Arc<Candidates>>,
    val: &Value,
    op: CmpOp,
) -> Option<Arc<Candidates>> {
    if cand.is_none() && ctx.par.zone_skip && b.shape().is_none() {
        if let Some((zc, skipped)) = zonemap::restrict_theta(b, val, op) {
            ctx.note_tiles_skipped(skipped);
            return Some(Arc::new(zc));
        }
    }
    cand
}

/// Range-predicate variant of [`zone_restrict_theta`].
#[allow(clippy::too_many_arguments)]
fn zone_restrict_range(
    ctx: &ExecCtx,
    b: &Bat,
    cand: Option<Arc<Candidates>>,
    lo: &Value,
    hi: &Value,
    li: bool,
    hi_incl: bool,
    anti: bool,
) -> Option<Arc<Candidates>> {
    if cand.is_none() && ctx.par.zone_skip && b.shape().is_none() {
        if let Some((zc, skipped)) = zonemap::restrict_range(b, lo, hi, li, hi_incl, anti) {
            ctx.note_tiles_skipped(skipped);
            return Some(Arc::new(zc));
        }
    }
    cand
}

/// `algebra.thetaselect(b, [cand,] val, op:str) :cand`
pub(super) fn thetaselect(args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("thetaselect: missing BAT"))?
        .as_bat()?;
    let (cand, val_i) = if args.len() == 4 {
        (opt_cand(args, 1)?, 2)
    } else if args.len() == 3 {
        (None, 1)
    } else {
        return Err(MalError::msg("thetaselect takes 3 or 4 arguments"));
    };
    let val = args[val_i].as_scalar()?;
    let Value::Str(op) = args[val_i + 1].as_scalar()? else {
        return Err(MalError::msg("thetaselect operator must be a string"));
    };
    let op = cmp_from_str(op)?;
    let cand = zone_restrict_theta(ctx, b, cand, val, op);
    let (c, threads) = gdk::par::thetaselect(b, cand.as_deref(), val, op, &ctx.par)?;
    ctx.note_threads(threads);
    Ok(vec![MalValue::cand(c)])
}

/// `algebra.select(b, [cand,] lo, hi, li:bit, hi_incl:bit, anti:bit) :cand`
pub(super) fn select(args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("select: missing BAT"))?
        .as_bat()?;
    let (cand, base) = if args.len() == 7 {
        (opt_cand(args, 1)?, 2)
    } else if args.len() == 6 {
        (None, 1)
    } else {
        return Err(MalError::msg("select takes 6 or 7 arguments"));
    };
    let lo = args[base].as_scalar()?;
    let hi = args[base + 1].as_scalar()?;
    let li = as_bool(args[base + 2].as_scalar()?, "li")?;
    let hi_incl = as_bool(args[base + 3].as_scalar()?, "hi")?;
    let anti = as_bool(args[base + 4].as_scalar()?, "anti")?;
    let cand = zone_restrict_range(ctx, b, cand, lo, hi, li, hi_incl, anti);
    let (c, threads) =
        gdk::par::rangeselect(b, cand.as_deref(), lo, hi, li, hi_incl, anti, &ctx.par)?;
    ctx.note_threads(threads);
    Ok(vec![MalValue::cand(c)])
}

/// `algebra.selectnonnil(b [, cand]) :cand`
pub(super) fn selectnonnil(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("selectnonnil: missing BAT"))?
        .as_bat()?;
    let cand = opt_cand(args, 1)?;
    Ok(vec![MalValue::cand(select::select_non_nil(
        b,
        cand.as_deref(),
    ))])
}

/// `algebra.selectnil(b [, cand]) :cand`
pub(super) fn selectnil(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("selectnil: missing BAT"))?
        .as_bat()?;
    let cand = opt_cand(args, 1)?;
    Ok(vec![MalValue::cand(select::select_nil(b, cand.as_deref()))])
}

/// `algebra.maskselect(mask:bat[bit] [, cand]) :cand` — bit mask to candidates
pub(super) fn maskselect(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let m = args
        .first()
        .ok_or_else(|| MalError::msg("maskselect: missing mask"))?
        .as_bat()?;
    let cand = opt_cand(args, 1)?;
    Ok(vec![MalValue::cand(select::mask_to_cands(
        m,
        cand.as_deref(),
    )?)])
}

/// `algebra.selectproject(b, [cand,] val, op:str, payload) :bat` — fused
/// thetaselect + projection: the candidate list is never materialised.
/// Emitted by the optimizer's select→project fusion pass.
pub(super) fn selectproject(args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("selectproject: missing BAT"))?
        .as_bat()?;
    let (cand, val_i) = if args.len() == 5 {
        (opt_cand(args, 1)?, 2)
    } else if args.len() == 4 {
        (None, 1)
    } else {
        return Err(MalError::msg("selectproject takes 4 or 5 arguments"));
    };
    let val = args[val_i].as_scalar()?;
    let Value::Str(op) = args[val_i + 1].as_scalar()? else {
        return Err(MalError::msg("selectproject operator must be a string"));
    };
    let op = cmp_from_str(op)?;
    let payload = args[val_i + 2].as_bat()?;
    let cand = zone_restrict_theta(ctx, b, cand, val, op);
    let (out, threads) =
        gdk::par::theta_select_project(b, cand.as_deref(), val, op, payload, &ctx.par)?;
    ctx.note_threads(threads);
    // The unfused pair would have materialised one candidate list of
    // the qualifying oids.
    ctx.note_avoided(1, out.len() * std::mem::size_of::<gdk::Oid>());
    Ok(vec![MalValue::bat(out)])
}

/// `algebra.projection(cand|oidbat, b) :bat`
pub(super) fn projection(args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    if args.len() != 2 {
        return Err(MalError::msg("projection takes 2 arguments"));
    }
    let b = args[1].as_bat()?;
    match &args[0] {
        MalValue::Cand(c) => {
            let (p, threads) = gdk::par::project(c, b, &ctx.par)?;
            ctx.note_threads(threads);
            Ok(vec![MalValue::bat(p)])
        }
        MalValue::Bat(oids) => Ok(vec![MalValue::bat(project::project_oids(oids, b)?)]),
        other => Err(MalError::msg(format!(
            "projection head must be candidates or oid BAT, got {}",
            other.kind()
        ))),
    }
}

/// `algebra.join(l, r [, lcand, rcand]) :(bat[oid], bat[oid])`
pub(super) fn join(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let l = args
        .first()
        .ok_or_else(|| MalError::msg("join: missing left"))?
        .as_bat()?;
    let rr = args
        .get(1)
        .ok_or_else(|| MalError::msg("join: missing right"))?
        .as_bat()?;
    let lc = opt_cand(args, 2)?;
    let rc = opt_cand(args, 3)?;
    let j = join::hashjoin(l, rr, lc.as_deref(), rc.as_deref())?;
    Ok(vec![
        MalValue::bat(Bat::from_oids(j.left)),
        MalValue::bat(Bat::from_oids(j.right)),
    ])
}

/// `algebra.joinn(l1, r1, l2, r2, …) :(bat[oid], bat[oid])` — multi-key
/// equi-join on aligned (left, right) key pairs.
pub(super) fn joinn(args: &[MalValue]) -> Result<Vec<MalValue>> {
    if args.is_empty() || !args.len().is_multiple_of(2) {
        return Err(MalError::msg("joinn takes (lkey, rkey) pairs"));
    }
    let k = args.len() / 2;
    let mut lkeys = Vec::with_capacity(k);
    let mut rkeys = Vec::with_capacity(k);
    for i in 0..k {
        lkeys.push(args[2 * i].as_bat()?.as_ref());
        rkeys.push(args[2 * i + 1].as_bat()?.as_ref());
    }
    let j = join::hashjoin_multi(&lkeys, &rkeys)?;
    Ok(vec![
        MalValue::bat(Bat::from_oids(j.left)),
        MalValue::bat(Bat::from_oids(j.right)),
    ])
}

/// `algebra.leftjoin(l, r [, lcand, rcand])`
pub(super) fn leftjoin(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let l = args
        .first()
        .ok_or_else(|| MalError::msg("leftjoin: missing left"))?
        .as_bat()?;
    let rr = args
        .get(1)
        .ok_or_else(|| MalError::msg("leftjoin: missing right"))?
        .as_bat()?;
    let lc = opt_cand(args, 2)?;
    let rc = opt_cand(args, 3)?;
    let j = join::leftjoin(l, rr, lc.as_deref(), rc.as_deref())?;
    Ok(vec![
        MalValue::bat(Bat::from_oids(j.left)),
        MalValue::bat(Bat::from_oids(j.right)),
    ])
}

/// `algebra.semijoin(l, r [, lcand, rcand]) :cand`
pub(super) fn semijoin(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let l = args
        .first()
        .ok_or_else(|| MalError::msg("semijoin: missing left"))?
        .as_bat()?;
    let rr = args
        .get(1)
        .ok_or_else(|| MalError::msg("semijoin: missing right"))?
        .as_bat()?;
    let lc = opt_cand(args, 2)?;
    let rc = opt_cand(args, 3)?;
    let c = join::semijoin(l, rr, lc.as_deref(), rc.as_deref())?;
    Ok(vec![MalValue::cand(c)])
}

/// `algebra.crossproduct(l, r [, lcand, rcand]) :(bat[oid], bat[oid])`
pub(super) fn crossproduct(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let l = args
        .first()
        .ok_or_else(|| MalError::msg("crossproduct: missing left"))?
        .as_bat()?;
    let rr = args
        .get(1)
        .ok_or_else(|| MalError::msg("crossproduct: missing right"))?
        .as_bat()?;
    let lc = opt_cand(args, 2)?;
    let rc = opt_cand(args, 3)?;
    let j = join::cross(l.len(), rr.len(), lc.as_deref(), rc.as_deref())?;
    Ok(vec![
        MalValue::bat(Bat::from_oids(j.left)),
        MalValue::bat(Bat::from_oids(j.right)),
    ])
}

/// `algebra.slice(b, lo:lng, hi:lng) :bat` — positions `[lo, hi)`
pub(super) fn slice(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("slice: missing BAT"))?
        .as_bat()?;
    let lo = args
        .get(1)
        .ok_or_else(|| MalError::msg("slice: missing lo"))?
        .as_scalar()?
        .as_i64()
        .ok_or_else(|| MalError::msg("slice lo must be integral"))?;
    let hi = args
        .get(2)
        .ok_or_else(|| MalError::msg("slice: missing hi"))?
        .as_scalar()?
        .as_i64()
        .ok_or_else(|| MalError::msg("slice hi must be integral"))?;
    let lo = usize::try_from(lo).map_err(|_| MalError::msg("slice lo must be >= 0"))?;
    let hi = usize::try_from(hi).map_err(|_| MalError::msg("slice hi must be >= 0"))?;
    Ok(vec![MalValue::bat(project::slice(b, lo, hi)?)])
}

/// `algebra.sort(b, desc:bit, nils_last:bit) :(bat, bat[oid] permutation)`
pub(super) fn sort(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("sort: missing BAT"))?
        .as_bat()?;
    let desc = as_bool(
        args.get(1)
            .ok_or_else(|| MalError::msg("sort: missing desc flag"))?
            .as_scalar()?,
        "desc",
    )?;
    let nils_last = as_bool(
        args.get(2)
            .ok_or_else(|| MalError::msg("sort: missing nils_last flag"))?
            .as_scalar()?,
        "nils_last",
    )?;
    let perm = sort::sort_perm(
        b.len(),
        &[sort::SortKey {
            bat: b,
            desc,
            nils_last,
        }],
    )?;
    let sorted = sort::apply_perm(b, &perm)?;
    let perm_bat = Bat::from_oids(perm.into_iter().map(|p| p as gdk::Oid).collect());
    Ok(vec![MalValue::bat(sorted), MalValue::bat(perm_bat)])
}

/// `algebra.sortperm(key1, desc1:bit, key2, desc2, …) :bat[oid]` — the
/// permutation ordering rows by the keys, most significant first
/// (ORDER BY kernel; nils sort first ascending, MonetDB-style).
pub(super) fn sortperm(args: &[MalValue]) -> Result<Vec<MalValue>> {
    if args.is_empty() || !args.len().is_multiple_of(2) {
        return Err(MalError::msg("sortperm takes (key, desc) pairs"));
    }
    let nkeys = args.len() / 2;
    let mut keys = Vec::with_capacity(nkeys);
    for i in 0..nkeys {
        let bat = args[2 * i].as_bat()?;
        let desc = args[2 * i + 1]
            .as_scalar()?
            .as_bool()
            .ok_or_else(|| MalError::msg("sortperm desc flag must be boolean"))?;
        keys.push((bat, desc));
    }
    let len = keys[0].0.len();
    for (b, _) in &keys {
        if b.len() != len {
            return Err(MalError::msg("sortperm keys misaligned"));
        }
    }
    let sort_keys: Vec<sort::SortKey<'_>> = keys
        .iter()
        .map(|(b, desc)| sort::SortKey {
            bat: b,
            desc: *desc,
            nils_last: false,
        })
        .collect();
    let perm = sort::sort_perm(len, &sort_keys)?;
    Ok(vec![MalValue::bat(Bat::from_oids(
        perm.into_iter().map(|p| p as gdk::Oid).collect(),
    ))])
}

/// `algebra.count(b)` — tuple count (including nils)
pub(super) fn count(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("count: missing BAT"))?
        .as_bat()?;
    Ok(vec![MalValue::Scalar(Value::Lng(b.len() as i64))])
}

/// `algebra.candlist(b:bat[oid])` — turn a sorted oid BAT into candidates
pub(super) fn candlist(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("candlist: missing BAT"))?
        .as_bat()?;
    let oids = b.as_oids().map(<[gdk::Oid]>::to_vec).unwrap_or_else(|| {
        b.iter_values()
            .filter_map(|v| v.as_i64().map(|x| x as gdk::Oid))
            .collect()
    });
    Ok(vec![MalValue::cand(Candidates::from_vec(oids))])
}

/// `algebra.densecand(first:lng, len:lng)` — dense candidate range
pub(super) fn densecand(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let first = args
        .first()
        .ok_or_else(|| MalError::msg("densecand: missing first"))?
        .as_scalar()?
        .as_i64()
        .ok_or_else(|| MalError::msg("densecand first must be integral"))?;
    let len = args
        .get(1)
        .ok_or_else(|| MalError::msg("densecand: missing len"))?
        .as_scalar()?
        .as_i64()
        .ok_or_else(|| MalError::msg("densecand len must be integral"))?;
    Ok(vec![MalValue::cand(Candidates::Dense {
        first: first as gdk::Oid,
        len: len as usize,
    })])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prim;

    fn call(op: Prim, args: &[MalValue]) -> Result<Vec<MalValue>> {
        crate::prims::call(op, args, &ExecCtx::serial())
    }

    #[test]
    fn thetaselect_variants() {
        let b = MalValue::bat(Bat::from_ints(vec![3, 1, 4, 1, 5]));
        let out = call(
            Prim::ThetaSelect,
            &[
                b.clone(),
                MalValue::Scalar(Value::Int(1)),
                MalValue::Scalar(Value::Str("==".into())),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_cand().unwrap().to_vec(), vec![1, 3]);

        let cand = MalValue::cand(Candidates::from_vec(vec![0, 1, 2]));
        let out = call(
            Prim::ThetaSelect,
            &[
                b,
                cand,
                MalValue::Scalar(Value::Int(1)),
                MalValue::Scalar(Value::Str(">".into())),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_cand().unwrap().to_vec(), vec![0, 2]);
    }

    #[test]
    fn projection_and_join() {
        let b = MalValue::bat(Bat::from_ints(vec![10, 20, 30]));
        let c = MalValue::cand(Candidates::from_vec(vec![2, 0]));
        // from_vec sorts: [0, 2]
        let out = call(Prim::Projection, &[c, b.clone()]).unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_ints().unwrap(), &[10, 30]);

        let l = MalValue::bat(Bat::from_ints(vec![20, 99]));
        let out = call(Prim::Join, &[l, b]).unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_oids().unwrap(), &[0]);
        assert_eq!(out[1].as_bat().unwrap().as_oids().unwrap(), &[1]);
    }

    #[test]
    fn slice_sort_count() {
        let b = MalValue::bat(Bat::from_ints(vec![3, 1, 2]));
        let out = call(
            Prim::Slice,
            &[
                b.clone(),
                MalValue::Scalar(Value::Lng(1)),
                MalValue::Scalar(Value::Lng(3)),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_ints().unwrap(), &[1, 2]);

        let out = call(
            Prim::Sort,
            &[
                b.clone(),
                MalValue::Scalar(Value::Bit(false)),
                MalValue::Scalar(Value::Bit(false)),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_ints().unwrap(), &[1, 2, 3]);
        assert_eq!(out[1].as_bat().unwrap().as_oids().unwrap(), &[1, 2, 0]);

        let out = call(Prim::Count, &[b]).unwrap();
        assert!(matches!(out[0], MalValue::Scalar(Value::Lng(3))));
    }

    #[test]
    fn maskselect_and_densecand() {
        let m = MalValue::bat(Bat::from_bits(vec![Some(true), Some(false), Some(true)]));
        let out = call(Prim::MaskSelect, &[m]).unwrap();
        assert_eq!(out[0].as_cand().unwrap().to_vec(), vec![0, 2]);

        let out = call(
            Prim::DenseCand,
            &[
                MalValue::Scalar(Value::Lng(5)),
                MalValue::Scalar(Value::Lng(3)),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_cand().unwrap().to_vec(), vec![5, 6, 7]);
    }

    #[test]
    fn crossproduct_sizes() {
        let l = MalValue::bat(Bat::from_ints(vec![1, 2]));
        let r2 = MalValue::bat(Bat::from_ints(vec![7, 8, 9]));
        let out = call(Prim::CrossProduct, &[l, r2]).unwrap();
        assert_eq!(out[0].as_bat().unwrap().len(), 6);
    }

    #[test]
    fn bad_arity_is_error() {
        let b = MalValue::bat(Bat::from_ints(vec![1]));
        assert!(call(Prim::ThetaSelect, &[b]).is_err());
    }
}
