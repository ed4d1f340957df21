//! MAL code generation: lowers a logical [`Plan`] to a [`mal::Program`].
//!
//! The generated code follows MonetDB's column-at-a-time style: every plan
//! column is one BAT variable; filters produce candidate lists (when the
//! candidate-pushdown fast path applies) or bit masks; tiling lowers to the
//! `array.shift` kernel plus element-wise accumulation, so a k-cell tile
//! costs k shifted passes instead of a k-way self-join.

use crate::bexpr::{AggCall, BExpr};
use crate::plan::Plan;
use crate::{AlgebraError, Result};
use gdk::aggregate::AggFunc;
use gdk::arith::{BinOp as GBinOp, CmpOp};
use gdk::{ScalarType, Value};
use mal::{Arg, MalType, Prim, Program, VarId};
use sciql_parser::ast::BinOp;

/// Code-generation options: the candidate-pushdown ablation switch plus
/// the session's execution settings, which ride through codegen to the
/// interpreter (`par` sizes the slice driver that parallel-safe opcodes
/// run on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Compile simple `col <op> const` conjunctions into `thetaselect`
    /// candidate chains instead of bit masks (MonetDB's native style).
    pub candidate_pushdown: bool,
    /// MAL optimizer pipeline level the session runs after codegen
    /// (`0` = off, `1` = classic shrinking passes, `2` = full pipeline
    /// with candidate propagation and kernel fusion). Codegen itself
    /// ignores it; it rides here so the session's execution settings
    /// travel as one value from `Connection` to the interpreter.
    pub opt_level: u8,
    /// Slice-driver configuration for parallel-safe instructions: worker
    /// threads, the length below which a kernel stays serial, and
    /// zone-map tile skipping.
    pub par: gdk::ParConfig,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            candidate_pushdown: true,
            opt_level: 2,
            par: gdk::ParConfig::default(),
        }
    }
}

/// Output of generating one plan node.
struct NodeOut<'p> {
    /// One MAL variable per output column (aligned BATs).
    cols: Vec<VarId>,
    /// Dense array shape, when the columns are still in cell order.
    shape: Option<Vec<usize>>,
    /// True for the row-less Unit input.
    unit: bool,
    /// The plan node whose output these columns are, for typing
    /// expressions over them (set once the node is generated).
    plan: Option<&'p Plan>,
}

/// Compile a plan into a MAL program whose results are the plan's schema
/// columns, labelled by name.
pub fn compile(plan: &Plan, opts: &CodegenOptions) -> Result<Program> {
    let mut prog = Program::new("query");
    let out = gen(&mut prog, plan, opts)?;
    let schema = plan.schema();
    if out.unit {
        return Err(AlgebraError::internal(
            "top-level Unit plan produced no columns",
        ));
    }
    for (col, info) in out.cols.iter().zip(&schema) {
        prog.add_result(info.name.clone(), *col);
    }
    Ok(prog)
}

fn gen<'p>(prog: &mut Program, plan: &'p Plan, opts: &CodegenOptions) -> Result<NodeOut<'p>> {
    let mut out = gen_node(prog, plan, opts)?;
    out.plan = Some(plan);
    Ok(out)
}

fn gen_node<'p>(prog: &mut Program, plan: &'p Plan, opts: &CodegenOptions) -> Result<NodeOut<'p>> {
    match plan {
        Plan::Unit => Ok(NodeOut {
            cols: vec![],
            shape: None,
            unit: true,
            plan: None,
        }),
        Plan::ScanTable { name, schema } => {
            let cols = schema
                .iter()
                .map(|c| {
                    prog.emit(
                        Prim::Bind,
                        vec![
                            Arg::Const(Value::Str(name.clone())),
                            Arg::Const(Value::Str(c.name.clone())),
                        ],
                        MalType::Bat(c.ty),
                    )
                })
                .collect();
            Ok(NodeOut {
                cols,
                shape: None,
                unit: false,
                plan: None,
            })
        }
        Plan::ScanArray {
            name,
            schema,
            shape,
            ..
        } => {
            let cols = schema
                .iter()
                .map(|c| {
                    prog.emit(
                        Prim::Bind,
                        vec![
                            Arg::Const(Value::Str(name.clone())),
                            Arg::Const(Value::Str(c.name.clone())),
                        ],
                        MalType::Bat(c.ty),
                    )
                })
                .collect();
            Ok(NodeOut {
                cols,
                shape: Some(shape.clone()),
                unit: false,
                plan: None,
            })
        }
        Plan::Cross { left, right } => {
            let l = gen(prog, left, opts)?;
            let r = gen(prog, right, opts)?;
            let (Some(&l0), Some(&r0)) = (l.cols.first(), r.cols.first()) else {
                return Err(AlgebraError::internal("cross product over empty schema"));
            };
            let oids = prog.emit_multi(
                Prim::CrossProduct,
                vec![Arg::Var(l0), Arg::Var(r0)],
                &[
                    MalType::Bat(ScalarType::OidT),
                    MalType::Bat(ScalarType::OidT),
                ],
            );
            let mut cols = Vec::with_capacity(l.cols.len() + r.cols.len());
            for &c in &l.cols {
                cols.push(prog.emit(
                    Prim::Projection,
                    vec![Arg::Var(oids[0]), Arg::Var(c)],
                    MalType::Any,
                ));
            }
            for &c in &r.cols {
                cols.push(prog.emit(
                    Prim::Projection,
                    vec![Arg::Var(oids[1]), Arg::Var(c)],
                    MalType::Any,
                ));
            }
            Ok(NodeOut {
                cols,
                shape: None,
                unit: false,
                plan: None,
            })
        }
        Plan::EquiJoin {
            left,
            right,
            lkeys,
            rkeys,
            residual,
        } => {
            let l = gen(prog, left, opts)?;
            let r = gen(prog, right, opts)?;
            let mut args = Vec::with_capacity(lkeys.len() * 2);
            for (lk, rk) in lkeys.iter().zip(rkeys) {
                let lv = emit_expr(prog, &l, lk)?;
                let lv = force_bat(prog, &l, lv)?;
                let rv = emit_expr(prog, &r, rk)?;
                let rv = force_bat(prog, &r, rv)?;
                args.push(Arg::Var(lv));
                args.push(Arg::Var(rv));
            }
            let oids = prog.emit_multi(
                Prim::JoinN,
                args,
                &[
                    MalType::Bat(ScalarType::OidT),
                    MalType::Bat(ScalarType::OidT),
                ],
            );
            let mut cols = Vec::with_capacity(l.cols.len() + r.cols.len());
            for &c in &l.cols {
                cols.push(prog.emit(
                    Prim::Projection,
                    vec![Arg::Var(oids[0]), Arg::Var(c)],
                    MalType::Any,
                ));
            }
            for &c in &r.cols {
                cols.push(prog.emit(
                    Prim::Projection,
                    vec![Arg::Var(oids[1]), Arg::Var(c)],
                    MalType::Any,
                ));
            }
            let joined = NodeOut {
                cols,
                shape: None,
                unit: false,
                plan: Some(plan),
            };
            match residual {
                None => Ok(joined),
                Some(pred) => {
                    let mask = emit_expr(prog, &joined, pred)?;
                    let mask = force_bat(prog, &joined, mask)?;
                    let cand = prog.emit(Prim::MaskSelect, vec![Arg::Var(mask)], MalType::Cand);
                    let cols = joined
                        .cols
                        .iter()
                        .map(|&c| {
                            prog.emit(
                                Prim::Projection,
                                vec![Arg::Var(cand), Arg::Var(c)],
                                MalType::Any,
                            )
                        })
                        .collect();
                    Ok(NodeOut {
                        cols,
                        shape: None,
                        unit: false,
                        plan: None,
                    })
                }
            }
        }
        Plan::Filter { input, pred } => {
            let inp = gen(prog, input, opts)?;
            Ok(gen_filter(prog, &inp, pred, opts)?.1)
        }
        Plan::Project { input, items } => {
            let inp = gen(prog, input, opts)?;
            let mut cols = Vec::with_capacity(items.len());
            for (_, e, _) in items {
                let a = emit_expr(prog, &inp, e)?;
                let v = if inp.unit {
                    let scalar = arg_to_var_scalar(prog, a);
                    prog.emit(Prim::Single, vec![Arg::Var(scalar)], MalType::Any)
                } else {
                    force_bat(prog, &inp, a)?
                };
                cols.push(v);
            }
            Ok(NodeOut {
                cols,
                shape: inp.shape,
                unit: false,
                plan: None,
            })
        }
        Plan::Aggregate { input, keys, aggs } => gen_aggregate(prog, input, keys, aggs, opts),
        Plan::Tile {
            input,
            offsets,
            aggs,
        } => gen_tile(prog, input, offsets, aggs, opts),
        Plan::Distinct { input } => {
            let inp = gen(prog, input, opts)?;
            if inp.cols.is_empty() {
                return Ok(inp);
            }
            let mut g = prog.emit(Prim::Group, vec![Arg::Var(inp.cols[0])], MalType::Groups);
            for &c in &inp.cols[1..] {
                g = prog.emit(
                    Prim::SubGroup,
                    vec![Arg::Var(c), Arg::Var(g)],
                    MalType::Groups,
                );
            }
            let ext = prog.emit(
                Prim::Extents,
                vec![Arg::Var(g)],
                MalType::Bat(ScalarType::OidT),
            );
            let cols = inp
                .cols
                .iter()
                .map(|&c| {
                    prog.emit(
                        Prim::Projection,
                        vec![Arg::Var(ext), Arg::Var(c)],
                        MalType::Any,
                    )
                })
                .collect();
            Ok(NodeOut {
                cols,
                shape: None,
                unit: false,
                plan: None,
            })
        }
        Plan::Sort { input, keys } => {
            let inp = gen(prog, input, opts)?;
            let mut args = Vec::with_capacity(keys.len() * 2);
            for (k, desc) in keys {
                let a = emit_expr(prog, &inp, k)?;
                let v = force_bat(prog, &inp, a)?;
                args.push(Arg::Var(v));
                args.push(Arg::Const(Value::Bit(*desc)));
            }
            let perm = prog.emit(Prim::SortPerm, args, MalType::Bat(ScalarType::OidT));
            let cols = inp
                .cols
                .iter()
                .map(|&c| {
                    prog.emit(
                        Prim::Projection,
                        vec![Arg::Var(perm), Arg::Var(c)],
                        MalType::Any,
                    )
                })
                .collect();
            Ok(NodeOut {
                cols,
                shape: None,
                unit: false,
                plan: None,
            })
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            let inp = gen(prog, input, opts)?;
            let lo = *offset as i64;
            let hi = match limit {
                Some(l) => lo + *l as i64,
                None => i64::MAX,
            };
            let cols = inp
                .cols
                .iter()
                .map(|&c| {
                    prog.emit(
                        Prim::Slice,
                        vec![
                            Arg::Var(c),
                            Arg::Const(Value::Lng(lo)),
                            Arg::Const(Value::Lng(hi)),
                        ],
                        MalType::Any,
                    )
                })
                .collect();
            Ok(NodeOut {
                cols,
                shape: None,
                unit: false,
                plan: None,
            })
        }
    }
}

// ----------------------------------------------------------------------
// aggregation
// ----------------------------------------------------------------------

fn gen_aggregate<'p>(
    prog: &mut Program,
    input: &'p Plan,
    keys: &[BExpr],
    aggs: &[AggCall],
    opts: &CodegenOptions,
) -> Result<NodeOut<'p>> {
    let inp = gen(prog, input, opts)?;
    if inp.unit {
        return Err(AlgebraError::bind("aggregation requires a FROM clause"));
    }
    let agg_arg = |prog: &mut Program, inp: &NodeOut, a: &AggCall| -> Result<VarId> {
        match &a.arg {
            Some(e) => {
                let v = emit_expr(prog, inp, e)?;
                force_bat(prog, inp, v)
            }
            None => {
                // COUNT(*): a never-nil constant column.
                let t = inp.cols[0];
                Ok(prog.emit(
                    Prim::Fill,
                    vec![Arg::Var(t), Arg::Const(Value::Int(1))],
                    MalType::Bat(ScalarType::Int),
                ))
            }
        }
    };
    if keys.is_empty() {
        // Scalar aggregation: one output row.
        let mut cols = Vec::with_capacity(aggs.len());
        for a in aggs {
            let arg = agg_arg(prog, &inp, a)?;
            let s = prog.emit(Prim::Agg(a.func), vec![Arg::Var(arg)], MalType::Any);
            cols.push(prog.emit(Prim::Single, vec![Arg::Var(s)], MalType::Any));
        }
        return Ok(NodeOut {
            cols,
            shape: None,
            unit: false,
            plan: None,
        });
    }
    // Evaluate keys, group-refine, aggregate.
    let mut key_vars = Vec::with_capacity(keys.len());
    for k in keys {
        let a = emit_expr(prog, &inp, k)?;
        key_vars.push(force_bat(prog, &inp, a)?);
    }
    let mut g = prog.emit(Prim::Group, vec![Arg::Var(key_vars[0])], MalType::Groups);
    for &k in &key_vars[1..] {
        g = prog.emit(
            Prim::SubGroup,
            vec![Arg::Var(k), Arg::Var(g)],
            MalType::Groups,
        );
    }
    let ext = prog.emit(
        Prim::Extents,
        vec![Arg::Var(g)],
        MalType::Bat(ScalarType::OidT),
    );
    let mut cols = Vec::with_capacity(keys.len() + aggs.len());
    for &k in &key_vars {
        cols.push(prog.emit(
            Prim::Projection,
            vec![Arg::Var(ext), Arg::Var(k)],
            MalType::Any,
        ));
    }
    for a in aggs {
        let arg = agg_arg(prog, &inp, a)?;
        cols.push(prog.emit(
            Prim::SubAgg(a.func),
            vec![Arg::Var(arg), Arg::Var(g)],
            MalType::Any,
        ));
    }
    Ok(NodeOut {
        cols,
        shape: None,
        unit: false,
        plan: None,
    })
}

// ----------------------------------------------------------------------
// structural grouping (tiling)
// ----------------------------------------------------------------------

fn gen_tile<'p>(
    prog: &mut Program,
    input: &'p Plan,
    offsets: &[Vec<i64>],
    aggs: &[AggCall],
    opts: &CodegenOptions,
) -> Result<NodeOut<'p>> {
    let inp = gen(prog, input, opts)?;
    let shape = inp
        .shape
        .clone()
        .ok_or_else(|| AlgebraError::internal("tiling requires dense array alignment"))?;
    let in_tys: Vec<ScalarType> = input.schema().iter().map(|c| c.ty).collect();
    let mut cols = inp.cols.clone();
    for a in aggs {
        let (arg, arg_ty) = match &a.arg {
            Some(e) => {
                let v = emit_expr(prog, &inp, e)?;
                (
                    force_bat(prog, &inp, v)?,
                    e.infer_type(&in_tys).unwrap_or(ScalarType::Int),
                )
            }
            None => (
                prog.emit(
                    Prim::Fill,
                    vec![Arg::Var(inp.cols[0]), Arg::Const(Value::Int(1))],
                    MalType::Bat(ScalarType::Int),
                ),
                ScalarType::Int,
            ),
        };
        let out = gen_tile_agg(prog, arg, arg_ty, a.func, offsets, &shape)?;
        cols.push(out);
    }
    Ok(NodeOut {
        cols,
        shape: inp.shape,
        unit: false,
        plan: None,
    })
}

fn shift_args(arg: VarId, shape: &[usize], off: &[i64]) -> Vec<Arg> {
    let mut args = Vec::with_capacity(1 + shape.len() * 2);
    args.push(Arg::Var(arg));
    for &n in shape {
        args.push(Arg::Const(Value::Lng(n as i64)));
    }
    for &d in off {
        args.push(Arg::Const(Value::Lng(d)));
    }
    args
}

/// Lower one tile aggregate to shifted element-wise accumulation. Holes
/// (nil cells) and out-of-range cells contribute nothing, matching the
/// paper's aggregation rule.
fn gen_tile_agg(
    prog: &mut Program,
    arg: VarId,
    arg_ty: ScalarType,
    func: AggFunc,
    offsets: &[Vec<i64>],
    shape: &[usize],
) -> Result<VarId> {
    match func {
        AggFunc::Sum | AggFunc::Count | AggFunc::Avg => {
            // Accumulate wide: dbl for dbl inputs, lng otherwise (dodging
            // int overflow).
            let (wide_ty, zero) = if arg_ty == ScalarType::Dbl {
                (ScalarType::Dbl, Value::Dbl(0.0))
            } else {
                (ScalarType::Lng, Value::Lng(0))
            };
            let wide = prog.emit(
                Prim::Cast(wide_ty),
                vec![Arg::Var(arg)],
                MalType::Bat(wide_ty),
            );
            let mut sum = prog.emit(
                Prim::Fill,
                vec![Arg::Var(wide), Arg::Const(zero.clone())],
                MalType::Bat(wide_ty),
            );
            let mut cnt = prog.emit(
                Prim::Fill,
                vec![Arg::Var(wide), Arg::Const(Value::Lng(0))],
                MalType::Bat(ScalarType::Lng),
            );
            for off in offsets {
                let s = prog.emit(
                    Prim::Shift,
                    shift_args(wide, shape, off),
                    MalType::Bat(wide_ty),
                );
                let m = prog.emit(
                    Prim::IsNil,
                    vec![Arg::Var(s)],
                    MalType::Bat(ScalarType::Bit),
                );
                let contrib = prog.emit(
                    Prim::IfThenElse,
                    vec![Arg::Var(m), Arg::Const(zero.clone()), Arg::Var(s)],
                    MalType::Bat(wide_ty),
                );
                sum = prog.emit(
                    Prim::Bin(GBinOp::Add),
                    vec![Arg::Var(sum), Arg::Var(contrib)],
                    MalType::Bat(ScalarType::Lng),
                );
                let one = prog.emit(
                    Prim::IfThenElse,
                    vec![
                        Arg::Var(m),
                        Arg::Const(Value::Lng(0)),
                        Arg::Const(Value::Lng(1)),
                    ],
                    MalType::Bat(ScalarType::Lng),
                );
                cnt = prog.emit(
                    Prim::Bin(GBinOp::Add),
                    vec![Arg::Var(cnt), Arg::Var(one)],
                    MalType::Bat(ScalarType::Lng),
                );
            }
            let empty = prog.emit(
                Prim::Cmp(CmpOp::Eq),
                vec![Arg::Var(cnt), Arg::Const(Value::Lng(0))],
                MalType::Bat(ScalarType::Bit),
            );
            Ok(match func {
                AggFunc::Count => cnt,
                AggFunc::Sum => prog.emit(
                    Prim::IfThenElse,
                    vec![Arg::Var(empty), Arg::Const(Value::Null), Arg::Var(sum)],
                    MalType::Bat(ScalarType::Lng),
                ),
                AggFunc::Avg => {
                    let sumd = prog.emit(
                        Prim::Cast(ScalarType::Dbl),
                        vec![Arg::Var(sum)],
                        MalType::Bat(ScalarType::Dbl),
                    );
                    let cntd = prog.emit(
                        Prim::Cast(ScalarType::Dbl),
                        vec![Arg::Var(cnt)],
                        MalType::Bat(ScalarType::Dbl),
                    );
                    let safe = prog.emit(
                        Prim::IfThenElse,
                        vec![Arg::Var(empty), Arg::Const(Value::Dbl(1.0)), Arg::Var(cntd)],
                        MalType::Bat(ScalarType::Dbl),
                    );
                    let avg = prog.emit(
                        Prim::Bin(GBinOp::Div),
                        vec![Arg::Var(sumd), Arg::Var(safe)],
                        MalType::Bat(ScalarType::Dbl),
                    );
                    prog.emit(
                        Prim::IfThenElse,
                        vec![Arg::Var(empty), Arg::Const(Value::Null), Arg::Var(avg)],
                        MalType::Bat(ScalarType::Dbl),
                    )
                }
                _ => unreachable!(),
            })
        }
        AggFunc::Min | AggFunc::Max => {
            let mut acc = prog.emit(
                Prim::Shift,
                shift_args(arg, shape, &offsets[0]),
                MalType::Any,
            );
            for off in &offsets[1..] {
                let s = prog.emit(Prim::Shift, shift_args(arg, shape, off), MalType::Any);
                let s_ok = prog.emit(
                    Prim::IsNil,
                    vec![Arg::Var(s)],
                    MalType::Bat(ScalarType::Bit),
                );
                let s_ok = prog.emit(
                    Prim::Not,
                    vec![Arg::Var(s_ok)],
                    MalType::Bat(ScalarType::Bit),
                );
                let acc_nil = prog.emit(
                    Prim::IsNil,
                    vec![Arg::Var(acc)],
                    MalType::Bat(ScalarType::Bit),
                );
                let better = prog.emit(
                    Prim::Cmp(if func == AggFunc::Min {
                        CmpOp::Lt
                    } else {
                        CmpOp::Gt
                    }),
                    vec![Arg::Var(s), Arg::Var(acc)],
                    MalType::Bat(ScalarType::Bit),
                );
                let take = prog.emit(
                    Prim::Or,
                    vec![Arg::Var(acc_nil), Arg::Var(better)],
                    MalType::Bat(ScalarType::Bit),
                );
                let cond = prog.emit(
                    Prim::And,
                    vec![Arg::Var(s_ok), Arg::Var(take)],
                    MalType::Bat(ScalarType::Bit),
                );
                acc = prog.emit(
                    Prim::IfThenElse,
                    vec![Arg::Var(cond), Arg::Var(s), Arg::Var(acc)],
                    MalType::Any,
                );
            }
            Ok(acc)
        }
    }
}

// ----------------------------------------------------------------------
// filters
// ----------------------------------------------------------------------

/// Lower a filter over `inp`: the candidate list of the rows `pred`
/// selects, and `inp`'s columns at those rows.
fn gen_filter<'p>(
    prog: &mut Program,
    inp: &NodeOut<'p>,
    pred: &BExpr,
    opts: &CodegenOptions,
) -> Result<(VarId, NodeOut<'p>)> {
    if inp.unit {
        return Err(AlgebraError::internal("cannot filter the Unit input"));
    }
    let cand = if opts.candidate_pushdown {
        gen_filter_candidates(prog, inp, pred)?
    } else {
        None
    };
    let cand = match cand {
        Some(c) => c,
        None => {
            // A constant predicate (`WHERE NULL`) broadcasts as a bit.
            let mask = emit_expr(prog, inp, pred)?;
            let mask = force_bit_bat(prog, inp, mask)?;
            prog.emit(Prim::MaskSelect, vec![Arg::Var(mask)], MalType::Cand)
        }
    };
    let cols = inp
        .cols
        .iter()
        .map(|&c| {
            prog.emit(
                Prim::Projection,
                vec![Arg::Var(cand), Arg::Var(c)],
                MalType::Any,
            )
        })
        .collect();
    // The rows keep the input's schema.
    let rows = NodeOut {
        cols,
        shape: None,
        unit: false,
        plan: inp.plan,
    };
    Ok((cand, rows))
}

/// Compile the read of a cell statement (`UPDATE`, `DELETE`) over `scan`:
/// the rows `pred` selects, lowered as a [`Plan::Filter`]'s predicate
/// is, as the candidate-list result `at` (absent without a predicate),
/// then each of `items` at those rows as `e0`, `e1`, …. An item that
/// reads a neighbouring cell needs the whole aligned scan, so it is
/// computed over every row and projected.
pub fn compile_cells(
    scan: &Plan,
    pred: Option<&BExpr>,
    items: &[BExpr],
    opts: &CodegenOptions,
) -> Result<Program> {
    let mut prog = Program::new("cells");
    let inp = gen(&mut prog, scan, opts)?;
    let filtered = pred
        .map(|p| gen_filter(&mut prog, &inp, p, opts))
        .transpose()?;
    if let Some((cand, _)) = &filtered {
        prog.add_result("at", *cand);
    }
    for (i, e) in items.iter().enumerate() {
        let v = match &filtered {
            Some((_, rows)) if !e.contains_shift() => {
                let a = emit_expr(&mut prog, rows, e)?;
                force_bat(&mut prog, rows, a)?
            }
            _ => {
                let a = emit_expr(&mut prog, &inp, e)?;
                let all = force_bat(&mut prog, &inp, a)?;
                match &filtered {
                    Some((cand, _)) => prog.emit(
                        Prim::Projection,
                        vec![Arg::Var(*cand), Arg::Var(all)],
                        MalType::Any,
                    ),
                    None => all,
                }
            }
        };
        prog.add_result(format!("e{i}"), v);
    }
    Ok(prog)
}

/// Try the candidate-chain fast path: a conjunction of `col <op> const`
/// predicates compiles to chained `thetaselect` calls.
fn gen_filter_candidates(prog: &mut Program, inp: &NodeOut, pred: &BExpr) -> Result<Option<VarId>> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(pred, &mut conjuncts);
    let mut simple = Vec::with_capacity(conjuncts.len());
    for c in &conjuncts {
        match as_simple_cmp(c) {
            Some(s) => simple.push(s),
            None => return Ok(None),
        }
    }
    let mut cand: Option<VarId> = None;
    for (col, op, v) in simple {
        let opname = match op {
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            _ => unreachable!("as_simple_cmp filters"),
        };
        let mut args = vec![Arg::Var(inp.cols[col])];
        if let Some(c) = cand {
            args.push(Arg::Var(c));
        }
        args.push(match v {
            CmpRhs::Const(v) => Arg::Const(v),
            CmpRhs::Param { slot, ty } => {
                prog.declare_param(slot, ty);
                Arg::Param(slot)
            }
        });
        args.push(Arg::Const(Value::Str(opname.into())));
        cand = Some(prog.emit(Prim::ThetaSelect, args, MalType::Cand));
    }
    Ok(cand)
}

/// The right-hand side of a pushed-down `col <op> rhs` predicate: an
/// inlined constant or a bind-parameter slot.
enum CmpRhs {
    Const(Value),
    Param { slot: usize, ty: Option<ScalarType> },
}

fn collect_conjuncts<'e>(e: &'e BExpr, out: &mut Vec<&'e BExpr>) {
    match e {
        BExpr::Bin {
            op: BinOp::And,
            l,
            r,
        } => {
            collect_conjuncts(l, out);
            collect_conjuncts(r, out);
        }
        other => out.push(other),
    }
}

fn as_simple_cmp(e: &BExpr) -> Option<(usize, BinOp, CmpRhs)> {
    let BExpr::Bin { op, l, r } = e else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    let rhs = |e: &BExpr| -> Option<CmpRhs> {
        match e {
            BExpr::Const(v) => Some(CmpRhs::Const(v.clone())),
            BExpr::Param { slot, ty } => Some(CmpRhs::Param {
                slot: *slot,
                ty: *ty,
            }),
            _ => None,
        }
    };
    match (l.as_ref(), r.as_ref()) {
        (BExpr::Col(c), other) => rhs(other).map(|v| (*c, *op, v)),
        (other, BExpr::Col(c)) => rhs(other).map(|v| (*c, flip(*op), v)),
        _ => None,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

// ----------------------------------------------------------------------
// expressions
// ----------------------------------------------------------------------

/// The `batcalc` opcode of a binary SQL operator.
fn binop_prim(op: BinOp) -> Prim {
    match op {
        BinOp::Add => Prim::Bin(GBinOp::Add),
        BinOp::Sub => Prim::Bin(GBinOp::Sub),
        BinOp::Mul => Prim::Bin(GBinOp::Mul),
        BinOp::Div => Prim::Bin(GBinOp::Div),
        BinOp::Mod => Prim::Bin(GBinOp::Mod),
        BinOp::Eq => Prim::Cmp(CmpOp::Eq),
        BinOp::Ne => Prim::Cmp(CmpOp::Ne),
        BinOp::Lt => Prim::Cmp(CmpOp::Lt),
        BinOp::Le => Prim::Cmp(CmpOp::Le),
        BinOp::Gt => Prim::Cmp(CmpOp::Gt),
        BinOp::Ge => Prim::Cmp(CmpOp::Ge),
        BinOp::And => Prim::And,
        BinOp::Or => Prim::Or,
    }
}

/// Emit MAL code for an expression; returns a variable or a constant.
fn emit_expr(prog: &mut Program, inp: &NodeOut, e: &BExpr) -> Result<Arg> {
    Ok(match e {
        BExpr::Const(v) => Arg::Const(v.clone()),
        BExpr::Param { slot, ty } => {
            prog.declare_param(*slot, *ty);
            Arg::Param(*slot)
        }
        BExpr::Col(i) => {
            Arg::Var(*inp.cols.get(*i).ok_or_else(|| {
                AlgebraError::internal(format!("column {i} out of codegen range"))
            })?)
        }
        BExpr::Shift { col, deltas } => {
            let shape = inp.shape.as_ref().ok_or_else(|| {
                AlgebraError::bind("relative cell reference used where cell alignment is lost")
            })?;
            let v = inp.cols[*col];
            Arg::Var(prog.emit(Prim::Shift, shift_args(v, shape, deltas), MalType::Any))
        }
        BExpr::Bin { op, l, r } => {
            let la = emit_expr(prog, inp, l)?;
            let ra = emit_expr(prog, inp, r)?;
            // Fold constant subtrees here so CASE conditions and Unit-input
            // projections stay scalar.
            if let (Arg::Const(lv), Arg::Const(rv)) = (&la, &ra) {
                if let Some(v) = fold_const_bin(*op, lv, rv)? {
                    return Ok(Arg::Const(v));
                }
            }
            if op.is_boolean() {
                // and/or require bit BATs on both sides.
                let lv = force_bit_bat(prog, inp, la)?;
                let rv = force_bit_bat(prog, inp, ra)?;
                Arg::Var(prog.emit(
                    binop_prim(*op),
                    vec![Arg::Var(lv), Arg::Var(rv)],
                    MalType::Bat(ScalarType::Bit),
                ))
            } else {
                Arg::Var(prog.emit(binop_prim(*op), vec![la, ra], MalType::Any))
            }
        }
        BExpr::Neg(x) => {
            let a = emit_expr(prog, inp, x)?;
            Arg::Var(prog.emit(Prim::Neg, vec![a], MalType::Any))
        }
        BExpr::Not(x) => {
            let a = emit_expr(prog, inp, x)?;
            let v = force_bit_bat(prog, inp, a)?;
            Arg::Var(prog.emit(Prim::Not, vec![Arg::Var(v)], MalType::Bat(ScalarType::Bit)))
        }
        BExpr::Abs(x) => {
            let a = emit_expr(prog, inp, x)?;
            Arg::Var(prog.emit(Prim::Abs, vec![a], MalType::Any))
        }
        BExpr::IsNull { e, negated } => {
            let a = emit_expr(prog, inp, e)?;
            match a {
                Arg::Const(v) => Arg::Const(Value::Bit(v.is_null() != *negated)),
                a @ (Arg::Var(_) | Arg::Param(_)) => {
                    // Parameters broadcast like constants so the nil mask
                    // stays aligned with the input columns.
                    let v = force_bat(prog, inp, a)?;
                    let m = prog.emit(
                        Prim::IsNil,
                        vec![Arg::Var(v)],
                        MalType::Bat(ScalarType::Bit),
                    );
                    if *negated {
                        Arg::Var(prog.emit(
                            Prim::Not,
                            vec![Arg::Var(m)],
                            MalType::Bat(ScalarType::Bit),
                        ))
                    } else {
                        Arg::Var(m)
                    }
                }
            }
        }
        BExpr::Like {
            e,
            pattern,
            negated,
        } => {
            let a = emit_expr(prog, inp, e)?;
            match a {
                Arg::Const(Value::Str(s)) => {
                    Arg::Const(Value::Bit(gdk::like::like_match(&s, pattern) != *negated))
                }
                Arg::Const(Value::Null) => Arg::Const(Value::Null),
                Arg::Const(v) => {
                    return Err(AlgebraError::type_error(format!(
                        "LIKE requires a string operand, got {v}"
                    )))
                }
                a @ (Arg::Var(_) | Arg::Param(_)) => {
                    let v = force_bat(prog, inp, a)?;
                    let m = prog.emit(
                        Prim::Like,
                        vec![Arg::Var(v), Arg::Const(Value::Str(pattern.clone()))],
                        MalType::Bat(ScalarType::Bit),
                    );
                    if *negated {
                        Arg::Var(prog.emit(
                            Prim::Not,
                            vec![Arg::Var(m)],
                            MalType::Bat(ScalarType::Bit),
                        ))
                    } else {
                        Arg::Var(m)
                    }
                }
            }
        }
        BExpr::Case { whens, else_ } => {
            let mut acc = emit_expr(prog, inp, else_)?;
            // Arms whose constant condition folded them away, and the
            // first one whose condition folded to true.
            let mut folded = vec![false; whens.len()];
            let mut taken = None;
            for (i, (cond, then)) in whens.iter().enumerate().rev() {
                let c = emit_expr(prog, inp, cond)?;
                let t = emit_expr(prog, inp, then)?;
                match c {
                    Arg::Const(v) => {
                        // Constant condition: fold immediately (first
                        // matching WHEN wins, so later folds are overridden
                        // by this earlier one).
                        folded[i] = true;
                        if v.as_bool() == Some(true) {
                            acc = t;
                            taken = Some(i);
                        }
                    }
                    c @ (Arg::Var(_) | Arg::Param(_)) => {
                        let mask = force_bit_bat(prog, inp, c)?;
                        acc = Arg::Var(prog.emit(
                            Prim::IfThenElse,
                            vec![Arg::Var(mask), t, acc],
                            MalType::Any,
                        ));
                    }
                }
            }
            if folded.contains(&true) {
                // A folded arm still counts towards the CASE's type: when
                // the arms left over promote to something narrower, cast.
                let live = BExpr::Case {
                    whens: whens[..taken.unwrap_or(whens.len())]
                        .iter()
                        .zip(&folded)
                        .filter(|(_, &f)| !f)
                        .map(|(arm, _)| arm.clone())
                        .collect(),
                    else_: Box::new(
                        taken.map_or_else(|| (**else_).clone(), |i| whens[i].1.clone()),
                    ),
                };
                let tys: Vec<ScalarType> = inp
                    .plan
                    .map(|p| p.schema().iter().map(|c| c.ty).collect())
                    .unwrap_or_default();
                if let (Ok(ty), Ok(live_ty)) = (e.infer_type(&tys), live.infer_type(&tys)) {
                    if ty != live_ty {
                        acc = match acc {
                            Arg::Const(v) => Arg::Const(v.cast(ty).unwrap_or(v)),
                            // Cast the broadcast column, not the scalar.
                            a @ Arg::Param(_) if !inp.unit => {
                                let bat = force_bat(prog, inp, a)?;
                                emit_cast(prog, Arg::Var(bat), ty)
                            }
                            a => emit_cast(prog, a, ty),
                        };
                    }
                }
            }
            acc
        }
        BExpr::Cast { e, ty } => {
            let a = emit_expr(prog, inp, e)?;
            emit_cast(prog, a, *ty)
        }
    })
}

/// Emit a cast of `a` to `ty`.
fn emit_cast(prog: &mut Program, a: Arg, ty: ScalarType) -> Arg {
    Arg::Var(prog.emit(Prim::Cast(ty), vec![a], MalType::Any))
}

/// Evaluate a binary operator over two constants, SQL semantics.
fn fold_const_bin(op: BinOp, l: &Value, r: &Value) -> Result<Option<Value>> {
    Ok(Some(match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let Prim::Bin(gop) = binop_prim(op) else {
                unreachable!("arithmetic operators map to batcalc arithmetic")
            };
            gdk::arith::scalar_binop(gop, l, r).map_err(AlgebraError::Gdk)?
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            match l.sql_cmp(r) {
                None => Value::Null,
                Some(ord) => Value::Bit(match op {
                    BinOp::Eq => ord == std::cmp::Ordering::Equal,
                    BinOp::Ne => ord != std::cmp::Ordering::Equal,
                    BinOp::Lt => ord == std::cmp::Ordering::Less,
                    BinOp::Le => ord != std::cmp::Ordering::Greater,
                    BinOp::Gt => ord == std::cmp::Ordering::Greater,
                    BinOp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                }),
            }
        }
        BinOp::And => match (l.as_bool(), r.as_bool()) {
            (Some(false), _) | (_, Some(false)) => Value::Bit(false),
            (Some(true), Some(true)) => Value::Bit(true),
            _ => Value::Null,
        },
        BinOp::Or => match (l.as_bool(), r.as_bool()) {
            (Some(true), _) | (_, Some(true)) => Value::Bit(true),
            (Some(false), Some(false)) => Value::Bit(false),
            _ => Value::Null,
        },
    }))
}

/// Materialise an expression result as a BAT aligned with the input
/// columns (broadcast constants through `batcalc.fill`).
fn force_bat(prog: &mut Program, inp: &NodeOut, a: Arg) -> Result<VarId> {
    match a {
        Arg::Var(v) if !is_scalar(prog, v) => Ok(v),
        a => {
            // A parameter, or arithmetic over parameters and constants,
            // resolves to a scalar at execution time, so it broadcasts
            // exactly like an inlined constant.
            let t = *inp.cols.first().ok_or_else(|| {
                AlgebraError::internal("cannot broadcast a constant without input columns")
            })?;
            Ok(prog.emit(Prim::Fill, vec![Arg::Var(t), a], MalType::Any))
        }
    }
}

/// Is `v` computed from parameters and constants only, so a scalar at
/// execution time? Only [`emit_expr`]'s scalar operators leave such a
/// variable: every other one reads a column.
fn is_scalar(prog: &Program, v: VarId) -> bool {
    let Some(instr) = prog.instrs.iter().rev().find(|i| i.results.contains(&v)) else {
        return false;
    };
    matches!(
        instr.op,
        Prim::Bin(_) | Prim::Cmp(_) | Prim::Neg | Prim::Abs | Prim::Cast(_)
    ) && instr
        .args
        .iter()
        .all(|a| !matches!(a, Arg::Var(w) if !is_scalar(prog, *w)))
}

fn force_bit_bat(prog: &mut Program, inp: &NodeOut, a: Arg) -> Result<VarId> {
    match &a {
        Arg::Const(v) => {
            let as_bit = Value::Bit(v.as_bool().unwrap_or(false));
            force_bat(prog, inp, Arg::Const(as_bit))
        }
        Arg::Var(_) | Arg::Param(_) => force_bat(prog, inp, a),
    }
}

/// Turn a constant into a variable holding the scalar (for `bat.single`).
fn arg_to_var_scalar(prog: &mut Program, a: Arg) -> VarId {
    match a {
        Arg::Var(v) => v,
        a @ (Arg::Const(_) | Arg::Param(_)) => prog.emit(Prim::Pass, vec![a], MalType::Any),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::Binder;
    use sciql_catalog::{ArrayDef, Catalog, ColumnMeta, DimSpec, DimensionDef, SchemaObject};
    use sciql_parser::ast::Stmt;
    use sciql_parser::parse_statement;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.create(SchemaObject::Array(ArrayDef {
            name: "m".into(),
            dims: vec![
                DimensionDef {
                    name: "x".into(),
                    ty: ScalarType::Int,
                    range: Some(DimSpec::new(0, 1, 4).unwrap()),
                },
                DimensionDef {
                    name: "y".into(),
                    ty: ScalarType::Int,
                    range: Some(DimSpec::new(0, 1, 4).unwrap()),
                },
            ],
            attrs: vec![ColumnMeta {
                name: "v".into(),
                ty: ScalarType::Int,
                default: Some(Value::Int(0)),
            }],
        }))
        .unwrap();
        c
    }

    fn compile_sql(sql: &str, opts: &CodegenOptions) -> Program {
        let c = cat();
        let b = Binder::new(&c);
        let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let plan = b.bind_select(&sel).unwrap();
        compile(&plan, opts).unwrap()
    }

    #[test]
    fn simple_filter_uses_thetaselect() {
        let p = compile_sql("SELECT v FROM m WHERE x > 1", &CodegenOptions::default());
        let text = p.to_text();
        assert!(text.contains("algebra.thetaselect"), "{text}");
        assert!(!text.contains("maskselect"), "{text}");
    }

    #[test]
    fn param_filter_stays_on_thetaselect_fast_path() {
        // `x > ?` compiles to the same candidate chain as `x > 1`, with
        // the parameter slot in the compared-value position and the
        // slot's type inferred from the column.
        let p = compile_sql("SELECT v FROM m WHERE x > ?", &CodegenOptions::default());
        let text = p.to_text();
        assert!(text.contains("algebra.thetaselect"), "{text}");
        assert!(text.contains("?0"), "{text}");
        assert_eq!(p.params, vec![Some(ScalarType::Int)]);
    }

    #[test]
    fn params_in_projection_and_named_slots() {
        let p = compile_sql(
            "SELECT v + :delta FROM m WHERE x BETWEEN :lo AND :hi",
            &CodegenOptions::default(),
        );
        assert_eq!(p.params.len(), 3, "{:?}", p.params);
        // lo/hi adopt the dimension's int type from context.
        assert_eq!(p.params[1], Some(ScalarType::Int));
        assert_eq!(p.params[2], Some(ScalarType::Int));
    }

    #[test]
    fn candidate_ablation_switches_to_masks() {
        let p = compile_sql(
            "SELECT v FROM m WHERE x > 1",
            &CodegenOptions {
                candidate_pushdown: false,
                ..CodegenOptions::default()
            },
        );
        let text = p.to_text();
        assert!(text.contains("maskselect"), "{text}");
        assert!(!text.contains("thetaselect"), "{text}");
    }

    #[test]
    fn complex_filter_falls_back_to_mask() {
        let p = compile_sql(
            "SELECT v FROM m WHERE x + y > 2",
            &CodegenOptions::default(),
        );
        assert!(p.to_text().contains("maskselect"));
    }

    #[test]
    fn conjunction_chains_candidates() {
        let p = compile_sql(
            "SELECT v FROM m WHERE x > 0 AND y <= 2",
            &CodegenOptions::default(),
        );
        let text = p.to_text();
        assert_eq!(text.matches("thetaselect").count(), 2, "{text}");
    }

    #[test]
    fn tiling_lowers_to_shifts() {
        let p = compile_sql(
            "SELECT [x], [y], AVG(v) FROM m GROUP BY m[x:x+2][y:y+2]",
            &CodegenOptions::default(),
        );
        let text = p.to_text();
        assert_eq!(text.matches("array.shift").count(), 4, "2×2 tile: {text}");
        assert!(text.contains("batcalc.div"), "AVG divides: {text}");
    }

    #[test]
    fn group_by_compiles_to_group_chain() {
        let p = compile_sql(
            "SELECT v, COUNT(*) FROM m GROUP BY v",
            &CodegenOptions::default(),
        );
        let text = p.to_text();
        assert!(text.contains("group.group"), "{text}");
        assert!(text.contains("aggr.subcount"), "{text}");
    }

    #[test]
    fn order_by_emits_sortperm() {
        let p = compile_sql(
            "SELECT v FROM m ORDER BY v DESC LIMIT 2",
            &CodegenOptions::default(),
        );
        let text = p.to_text();
        assert!(text.contains("algebra.sortperm"), "{text}");
        assert!(text.contains("algebra.slice"), "{text}");
    }

    #[test]
    fn select_without_from_uses_single() {
        let p = compile_sql("SELECT 1 + 2", &CodegenOptions::default());
        assert!(p.to_text().contains("bat.single"), "{}", p.to_text());
    }
}
