//! The standard primitive library.
//!
//! Modules mirror MonetDB's MAL module layout:
//! * `array` — the two primitives the paper introduces (`series`, `filler`)
//!   and the two tiles lower to (`shift`, `tileagg`);
//! * `algebra` — selections, projections, joins, slicing, sorting;
//! * `group` / `aggr` — grouping and grouped aggregation;
//! * `batcalc` — element-wise and scalar arithmetic;
//! * `bat` — BAT construction.
//!
//! [`call`] is the one dispatch point: a `match` from each [`Prim`]
//! opcode to its kernel.

pub(crate) mod algebra;
mod array;
mod batcalc;
mod batmod;
mod grouping;

use crate::interp::MalValue;
use crate::ir::Prim;
use crate::registry::{ExecCtx, Registry};
use crate::{MalError, Result};

/// Run the kernel behind `op` on evaluated arguments. `sql.bind` has no
/// kernel here: the interpreter resolves it through its storage binder.
pub fn call(op: Prim, args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    use Prim::*;
    match op {
        Bind => Err(MalError::msg("sql.bind is resolved by the storage binder")),
        Pass => batmod::pass(args),
        Series => array::series(args),
        Filler => array::filler(args),
        Shift => array::shift(args),
        TileAgg => array::tileagg(args, ctx),
        ThetaSelect => algebra::thetaselect(args, ctx),
        Select => algebra::select(args, ctx),
        SelectNonNil => algebra::selectnonnil(args),
        SelectNil => algebra::selectnil(args),
        MaskSelect => algebra::maskselect(args),
        SelectProject => algebra::selectproject(args, ctx),
        Projection => algebra::projection(args, ctx),
        Join => algebra::join(args),
        JoinN => algebra::joinn(args),
        LeftJoin => algebra::leftjoin(args),
        SemiJoin => algebra::semijoin(args),
        CrossProduct => algebra::crossproduct(args),
        Slice => algebra::slice(args),
        Sort => algebra::sort(args),
        SortPerm => algebra::sortperm(args),
        Count => algebra::count(args),
        CandList => algebra::candlist(args),
        DenseCand => algebra::densecand(args),
        Bin(o) => batcalc::binop(o, args, ctx),
        Cmp(o) => batcalc::cmp(o, args, ctx),
        Cast(t) => batcalc::cast(t, args),
        And => batcalc::and(args),
        Or => batcalc::or(args),
        Not => batcalc::not(args),
        IsNil => batcalc::isnil(args),
        Neg => batcalc::neg(args),
        Abs => batcalc::abs(args),
        Like => batcalc::like(args),
        Fill => batcalc::fill(args),
        IfThenElse => batcalc::ifthenelse(args),
        New => batmod::new(args),
        Dense => batmod::dense(args),
        Materialise => batmod::materialise(args),
        Single => batmod::single(args),
        Group => grouping::group(args, ctx),
        SubGroup => grouping::subgroup(args, ctx),
        Extents => grouping::extents(args),
        ExtentCand => grouping::extentcand(args),
        SubAgg(f) => grouping::subagg(f, args, ctx),
        Agg(f) => grouping::agg(f, args, ctx),
        SelectAgg => grouping::selectagg(args, ctx),
    }
}

/// The empty [`Registry`] the standalone `benchmark/` crate still asks
/// for; see its documentation.
pub fn default_registry() -> Registry {
    Registry
}
