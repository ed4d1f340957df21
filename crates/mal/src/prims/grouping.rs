//! `group.*` and `aggr.*` — grouping and grouped aggregation.

use crate::interp::MalValue;
use crate::registry::ExecCtx;
use crate::{MalError, Result};
use gdk::aggregate::AggFunc;

/// `aggr.subX(vals:bat, groups:grp)` :bat — one tuple per group.
pub(super) fn subagg(func: AggFunc, args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    if args.len() != 2 {
        return Err(MalError::msg("grouped aggregate takes (vals, groups)"));
    }
    let vals = args[0].as_bat()?;
    let g = args[1].as_grp()?;
    let (out, threads) = gdk::par::grouped(func, vals, g, &ctx.par)?;
    ctx.note_threads(threads);
    Ok(vec![MalValue::bat(out)])
}

/// `aggr.X(vals:bat [, cand])` :scalar — with a candidate list the
/// aggregate runs over the candidate positions directly (the optimizer's
/// candidate-propagation pass rewrites `aggr.X(projection(cand, vals))`
/// into this form, skipping the projected intermediate).
pub(super) fn agg(func: AggFunc, args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    let vals = args
        .first()
        .ok_or_else(|| MalError::msg("scalar aggregate takes (vals [, cand])"))?
        .as_bat()?;
    match args.len() {
        1 => {
            let (out, threads) = gdk::par::scalar(func, vals, &ctx.par)?;
            ctx.note_threads(threads);
            Ok(vec![MalValue::Scalar(out)])
        }
        2 => {
            let cand = args[1].as_cand()?;
            let (out, threads) = gdk::par::project_aggregate(func, vals, cand, &ctx.par)?;
            ctx.note_threads(threads);
            ctx.note_avoided(1, cand.len() * gdk::fused::elem_width(vals.tail_type()));
            Ok(vec![MalValue::Scalar(out)])
        }
        _ => Err(MalError::msg("scalar aggregate takes (vals [, cand])")),
    }
}

/// `aggr.selectagg(func:str, payload, b, [cand,] val, op:str)` :scalar —
/// the fully fused select→project→aggregate: neither the candidate list
/// nor the projected payload BAT is materialised. Emitted by the
/// optimizer's select→aggregate fusion pass.
pub(super) fn selectagg(args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    let Some(MalValue::Scalar(gdk::Value::Str(fname))) = args.first() else {
        return Err(MalError::msg(
            "selectagg: first argument names the function",
        ));
    };
    let func = AggFunc::from_name(fname)
        .ok_or_else(|| MalError::msg(format!("selectagg: unknown aggregate {fname:?}")))?;
    let payload = args
        .get(1)
        .ok_or_else(|| MalError::msg("selectagg: missing payload"))?
        .as_bat()?;
    let b = args
        .get(2)
        .ok_or_else(|| MalError::msg("selectagg: missing selection BAT"))?
        .as_bat()?;
    let (cand, val_i) = if args.len() == 6 {
        (
            match &args[3] {
                MalValue::Cand(c) => Some(c.clone()),
                other => {
                    return Err(MalError::msg(format!(
                        "selectagg candidate must be a candidate list, got {}",
                        other.kind()
                    )))
                }
            },
            4,
        )
    } else if args.len() == 5 {
        (None, 3)
    } else {
        return Err(MalError::msg("selectagg takes 5 or 6 arguments"));
    };
    let val = args[val_i].as_scalar()?;
    let gdk::Value::Str(opname) = args[val_i + 1].as_scalar()? else {
        return Err(MalError::msg("selectagg operator must be a string"));
    };
    let op = crate::prims::algebra::cmp_from_str(opname)?;
    let cand = crate::prims::algebra::zone_restrict_theta(ctx, b, cand, val, op);
    let (out, threads, selected) =
        gdk::par::theta_select_aggregate(func, payload, b, cand.as_deref(), val, op, &ctx.par)?;
    ctx.note_threads(threads);
    // The unfused chain would have materialised the candidate list
    // plus the projected payload BAT.
    ctx.note_avoided(
        2,
        selected * (std::mem::size_of::<gdk::Oid>() + gdk::fused::elem_width(payload.tail_type())),
    );
    Ok(vec![MalValue::Scalar(out)])
}

/// `group.group(b [, cand]) :grp`
pub(super) fn group(args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("group: missing BAT"))?
        .as_bat()?;
    let cand = match args.get(1) {
        Some(MalValue::Cand(c)) => Some(c.clone()),
        None => None,
        Some(other) => {
            return Err(MalError::msg(format!(
                "group candidate must be a candidate list, got {}",
                other.kind()
            )))
        }
    };
    let (g, threads) = gdk::par::group_by(b, cand.as_deref(), None, &ctx.par)?;
    ctx.note_threads(threads);
    Ok(vec![MalValue::grp(g)])
}

/// `group.subgroup(b, prev:grp [, cand]) :grp` — refine a grouping
pub(super) fn subgroup(args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("subgroup: missing BAT"))?
        .as_bat()?;
    let prev = args
        .get(1)
        .ok_or_else(|| MalError::msg("subgroup: missing previous grouping"))?
        .as_grp()?;
    let cand = match args.get(2) {
        Some(MalValue::Cand(c)) => Some(c.clone()),
        None => None,
        Some(other) => {
            return Err(MalError::msg(format!(
                "subgroup candidate must be a candidate list, got {}",
                other.kind()
            )))
        }
    };
    let (g, threads) = gdk::par::group_by(b, cand.as_deref(), Some(prev), &ctx.par)?;
    ctx.note_threads(threads);
    Ok(vec![MalValue::grp(g)])
}

/// `group.extents(g:grp) :bat[oid]` — representative oid per group
pub(super) fn extents(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let g = args
        .first()
        .ok_or_else(|| MalError::msg("extents: missing grouping"))?
        .as_grp()?;
    Ok(vec![MalValue::bat(gdk::Bat::from_oids(g.extents.clone()))])
}

/// `group.extentcand(g:grp) :cand` — extents as candidate list
pub(super) fn extentcand(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let g = args
        .first()
        .ok_or_else(|| MalError::msg("extentcand: missing grouping"))?
        .as_grp()?;
    Ok(vec![MalValue::cand(gdk::Candidates::from_vec(
        g.extents.clone(),
    ))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prim;

    fn call(op: Prim, args: &[MalValue]) -> Result<Vec<MalValue>> {
        crate::prims::call(op, args, &ExecCtx::serial())
    }
    use gdk::{Bat, Value};

    #[test]
    fn group_then_aggregate() {
        let keys = MalValue::bat(Bat::from_ints(vec![1, 2, 1]));
        let g = call(Prim::Group, &[keys]).unwrap();
        let vals = MalValue::bat(Bat::from_ints(vec![10, 20, 30]));
        let s = call(Prim::SubAgg(AggFunc::Sum), &[vals, g[0].clone()]).unwrap();
        assert_eq!(s[0].as_bat().unwrap().as_lngs().unwrap(), &[40, 20]);
        let ext = call(Prim::Extents, &[g[0].clone()]).unwrap();
        assert_eq!(ext[0].as_bat().unwrap().as_oids().unwrap(), &[0, 1]);
    }

    #[test]
    fn subgroup_refines() {
        let a = MalValue::bat(Bat::from_ints(vec![1, 1, 2]));
        let b = MalValue::bat(Bat::from_ints(vec![9, 8, 9]));
        let g1 = call(Prim::Group, &[a]).unwrap();
        let g2 = call(Prim::SubGroup, &[b, g1[0].clone()]).unwrap();
        assert_eq!(g2[0].as_grp().unwrap().ngroups, 3);
    }

    #[test]
    fn scalar_aggregates() {
        let vals = MalValue::bat(Bat::from_opt_ints(vec![Some(2), None, Some(4)]));
        let out = call(Prim::Agg(AggFunc::Avg), std::slice::from_ref(&vals)).unwrap();
        assert!(matches!(out[0], MalValue::Scalar(Value::Dbl(v)) if v == 3.0));
        let out = call(Prim::Agg(AggFunc::Count), &[vals]).unwrap();
        assert!(matches!(out[0], MalValue::Scalar(Value::Lng(2))));
    }
}
