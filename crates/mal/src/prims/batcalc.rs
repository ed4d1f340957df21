//! `batcalc.*` and `calc.*` — element-wise and scalar arithmetic.
//!
//! Every binary operator accepts any mix of BAT and scalar operands
//! (`batcalc` broadcasts scalars), so the code generator does not need
//! distinct spellings.

use crate::interp::MalValue;
use crate::registry::Registry;
use crate::{MalError, Result};
use gdk::arith::{self, BinOp, CmpOp, Operand};
use gdk::{Bat, ScalarType, Value};

fn operand(v: &MalValue) -> Result<Operand<'_>> {
    match v {
        MalValue::Bat(b) => Ok(Operand::Col(b)),
        MalValue::Scalar(s) => Ok(Operand::Scalar(s)),
        other => Err(MalError::msg(format!(
            "arithmetic operand must be BAT or scalar, got {}",
            other.kind()
        ))),
    }
}

fn bin_args(args: &[MalValue]) -> Result<(Operand<'_>, Operand<'_>)> {
    if args.len() != 2 {
        return Err(MalError::msg("binary operator takes 2 arguments"));
    }
    Ok((operand(&args[0])?, operand(&args[1])?))
}

fn both_scalar(args: &[MalValue]) -> Option<(&Value, &Value)> {
    match (args.first(), args.get(1)) {
        (Some(MalValue::Scalar(a)), Some(MalValue::Scalar(b))) => Some((a, b)),
        _ => None,
    }
}

fn register_binop(r: &mut Registry, name: &'static str, op: BinOp) {
    r.register("batcalc", name, move |args, ctx| {
        if let Some((a, b)) = both_scalar(args) {
            return Ok(vec![MalValue::Scalar(arith::scalar_binop(op, a, b)?)]);
        }
        let (a, b) = bin_args(args)?;
        let (out, threads) = gdk::par::binop(op, a, b, &ctx.par)?;
        ctx.note_threads(threads);
        Ok(vec![MalValue::bat(out)])
    });
}

fn register_cmp(r: &mut Registry, name: &'static str, op: CmpOp) {
    r.register("batcalc", name, move |args, ctx| {
        if let Some((a, b)) = both_scalar(args) {
            let v = match a.sql_cmp(b) {
                None => Value::Null,
                Some(ord) => Value::Bit(match op {
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                }),
            };
            return Ok(vec![MalValue::Scalar(v)]);
        }
        let (a, b) = bin_args(args)?;
        let (out, threads) = gdk::par::cmpop(op, a, b, &ctx.par)?;
        ctx.note_threads(threads);
        Ok(vec![MalValue::bat(out)])
    });
}

fn register_cast(r: &mut Registry, name: &'static str, to: ScalarType) {
    r.register("batcalc", name, move |args, _ctx| match args.first() {
        Some(MalValue::Bat(b)) => Ok(vec![MalValue::bat(arith::cast_bat(b, to)?)]),
        Some(MalValue::Scalar(s)) => {
            let v = s
                .cast(to)
                .ok_or_else(|| MalError::msg(format!("cannot cast {s} to {to}")))?;
            Ok(vec![MalValue::Scalar(v)])
        }
        _ => Err(MalError::msg("cast takes one BAT or scalar argument")),
    });
}

/// Register the `batcalc` module.
pub fn register(r: &mut Registry) {
    register_binop(r, "add", BinOp::Add);
    register_binop(r, "sub", BinOp::Sub);
    register_binop(r, "mul", BinOp::Mul);
    register_binop(r, "div", BinOp::Div);
    register_binop(r, "mod", BinOp::Mod);
    register_cmp(r, "eq", CmpOp::Eq);
    register_cmp(r, "ne", CmpOp::Ne);
    register_cmp(r, "lt", CmpOp::Lt);
    register_cmp(r, "le", CmpOp::Le);
    register_cmp(r, "gt", CmpOp::Gt);
    register_cmp(r, "ge", CmpOp::Ge);
    register_cast(r, "int", ScalarType::Int);
    register_cast(r, "lng", ScalarType::Lng);
    register_cast(r, "dbl", ScalarType::Dbl);
    register_cast(r, "str", ScalarType::Str);
    register_cast(r, "bit", ScalarType::Bit);
    register_cast(r, "oid", ScalarType::OidT);

    r.register("batcalc", "and", |args, _ctx| {
        if args.len() != 2 {
            return Err(MalError::msg("and takes 2 arguments"));
        }
        Ok(vec![MalValue::bat(arith::and(
            args[0].as_bat()?,
            args[1].as_bat()?,
        )?)])
    });
    r.register("batcalc", "or", |args, _ctx| {
        if args.len() != 2 {
            return Err(MalError::msg("or takes 2 arguments"));
        }
        Ok(vec![MalValue::bat(arith::or(
            args[0].as_bat()?,
            args[1].as_bat()?,
        )?)])
    });
    r.register("batcalc", "not", |args, _ctx| {
        Ok(vec![MalValue::bat(arith::not(
            args.first()
                .ok_or_else(|| MalError::msg("not: missing argument"))?
                .as_bat()?,
        )?)])
    });
    r.register("batcalc", "isnil", |args, _ctx| {
        Ok(vec![MalValue::bat(arith::isnull(
            args.first()
                .ok_or_else(|| MalError::msg("isnil: missing argument"))?
                .as_bat()?,
        ))])
    });
    r.register("batcalc", "neg", |args, _ctx| match args.first() {
        Some(MalValue::Bat(b)) => Ok(vec![MalValue::bat(arith::neg(b)?)]),
        Some(MalValue::Scalar(s)) => {
            let v = arith::scalar_binop(BinOp::Sub, &Value::Int(0), s)?;
            Ok(vec![MalValue::Scalar(v)])
        }
        _ => Err(MalError::msg("neg takes one argument")),
    });
    r.register("batcalc", "abs", |args, _ctx| match args.first() {
        Some(MalValue::Bat(b)) => Ok(vec![MalValue::bat(arith::abs(b)?)]),
        Some(MalValue::Scalar(s)) => {
            let v = if s.is_null() {
                Value::Null
            } else {
                match s {
                    Value::Int(x) => Value::Int(x.abs()),
                    Value::Lng(x) => Value::Lng(x.abs()),
                    Value::Dbl(x) => Value::Dbl(x.abs()),
                    other => return Err(MalError::msg(format!("abs of non-numeric {other}"))),
                }
            };
            Ok(vec![MalValue::Scalar(v)])
        }
        _ => Err(MalError::msg("abs takes one argument")),
    });

    // batcalc.like(col:bat[str], pattern:str) — SQL LIKE mask
    // (nil-preserving; `%`/`_` wildcards, `\` escapes).
    r.register("batcalc", "like", |args, _ctx| {
        if args.len() != 2 {
            return Err(MalError::msg("like takes (column, pattern)"));
        }
        let b = args[0].as_bat()?;
        let pat = match args[1].as_scalar()? {
            Value::Str(s) => s.clone(),
            other => {
                return Err(MalError::msg(format!(
                    "like pattern must be a string, got {other}"
                )))
            }
        };
        Ok(vec![MalValue::bat(gdk::like::like(b, &pat)?)])
    });

    // batcalc.fill(template:bat, v) — constant column aligned with template.
    r.register("batcalc", "fill", |args, _ctx| {
        if args.len() != 2 {
            return Err(MalError::msg("fill takes (template, value)"));
        }
        let t = args[0].as_bat()?;
        let v = args[1].as_scalar()?;
        Ok(vec![MalValue::bat(Bat::filler(t.len(), v)?)])
    });

    // batcalc.ifthenelse(mask:bat[bit], then, else) — SQL CASE kernel.
    // `then`/`else` may be BATs (aligned) or scalars (broadcast); a nil
    // mask entry selects the else branch (CASE's unknown-is-false rule).
    r.register("batcalc", "ifthenelse", |args, _ctx| {
        if args.len() != 3 {
            return Err(MalError::msg("ifthenelse takes 3 arguments"));
        }
        let mask = args[0].as_bat()?;
        let n = mask
            .as_bits()
            .ok_or_else(|| MalError::msg("ifthenelse mask must be a bit BAT"))?
            .len();
        fn branch(arg: &MalValue, n: usize) -> Result<Operand<'_>> {
            match arg {
                MalValue::Bat(b) if b.len() != n => {
                    Err(MalError::msg("ifthenelse branch misaligned with mask"))
                }
                MalValue::Bat(_) | MalValue::Scalar(_) => operand(arg),
                other => Err(MalError::msg(format!(
                    "ifthenelse branch must be BAT or scalar, got {}",
                    other.kind()
                ))),
            }
        }
        let out = arith::ifthenelse(mask, branch(&args[1], n)?, branch(&args[2], n)?)
            .map_err(|e| MalError::msg(format!("ifthenelse: {e}")))?;
        Ok(vec![MalValue::bat(out)])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prims::default_registry;

    fn call(f: &str, args: &[MalValue]) -> Result<Vec<MalValue>> {
        let r = default_registry();
        let p = r.lookup("batcalc", f)?;
        p(args, &crate::registry::ExecCtx::serial())
    }

    #[test]
    fn add_bat_scalar_and_scalar_scalar() {
        let b = MalValue::bat(Bat::from_ints(vec![1, 2]));
        let out = call("add", &[b, MalValue::Scalar(Value::Int(5))]).unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_ints().unwrap(), &[6, 7]);

        let out = call(
            "add",
            &[
                MalValue::Scalar(Value::Int(2)),
                MalValue::Scalar(Value::Int(3)),
            ],
        )
        .unwrap();
        assert!(matches!(out[0], MalValue::Scalar(Value::Int(5))));
    }

    #[test]
    fn cmp_produces_bits() {
        let b = MalValue::bat(Bat::from_ints(vec![1, 5]));
        let out = call("gt", &[b, MalValue::Scalar(Value::Int(3))]).unwrap();
        assert_eq!(
            out[0].as_bat().unwrap().to_values(),
            vec![Value::Bit(false), Value::Bit(true)]
        );
        let out = call(
            "le",
            &[
                MalValue::Scalar(Value::Int(1)),
                MalValue::Scalar(Value::Int(1)),
            ],
        )
        .unwrap();
        assert!(matches!(out[0], MalValue::Scalar(Value::Bit(true))));
    }

    #[test]
    fn casts_bat_and_scalar() {
        let b = MalValue::bat(Bat::from_ints(vec![3]));
        let out = call("dbl", &[b]).unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_dbls().unwrap(), &[3.0]);
        let out = call("str", &[MalValue::Scalar(Value::Int(7))]).unwrap();
        assert!(matches!(&out[0], MalValue::Scalar(Value::Str(s)) if s == "7"));
    }

    #[test]
    fn ifthenelse_broadcast() {
        let mask = MalValue::bat(Bat::from_bits(vec![Some(true), Some(false), None]));
        let out = call(
            "ifthenelse",
            &[
                mask,
                MalValue::Scalar(Value::Int(1)),
                MalValue::Scalar(Value::Int(0)),
            ],
        )
        .unwrap();
        assert_eq!(
            out[0].as_bat().unwrap().as_ints().unwrap(),
            &[1, 0, 0],
            "nil mask selects else branch"
        );
    }

    #[test]
    fn ifthenelse_bat_branches() {
        let mask = MalValue::bat(Bat::from_bits(vec![Some(true), Some(false)]));
        let t = MalValue::bat(Bat::from_ints(vec![10, 20]));
        let e = MalValue::bat(Bat::from_ints(vec![-10, -20]));
        let out = call("ifthenelse", &[mask, t, e]).unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_ints().unwrap(), &[10, -20]);
    }

    #[test]
    fn ifthenelse_promotes_branch_types() {
        let mask = MalValue::bat(Bat::from_bits(vec![Some(true), Some(false)]));
        let out = call(
            "ifthenelse",
            &[
                mask,
                MalValue::Scalar(Value::Int(1)),
                MalValue::Scalar(Value::Dbl(0.5)),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_dbls().unwrap(), &[1.0, 0.5]);
    }

    #[test]
    fn neg_abs_scalar() {
        let out = call("neg", &[MalValue::Scalar(Value::Int(4))]).unwrap();
        assert!(matches!(out[0], MalValue::Scalar(Value::Int(-4))));
        let out = call("abs", &[MalValue::Scalar(Value::Dbl(-1.5))]).unwrap();
        assert!(matches!(out[0], MalValue::Scalar(Value::Dbl(v)) if v == 1.5));
    }

    #[test]
    fn boolean_ops() {
        let a = MalValue::bat(Bat::from_bits(vec![Some(true), Some(false)]));
        let b = MalValue::bat(Bat::from_bits(vec![Some(true), Some(true)]));
        let out = call("and", &[a.clone(), b]).unwrap();
        assert_eq!(
            out[0].as_bat().unwrap().to_values(),
            vec![Value::Bit(true), Value::Bit(false)]
        );
        let out = call("not", &[a]).unwrap();
        assert_eq!(
            out[0].as_bat().unwrap().to_values(),
            vec![Value::Bit(false), Value::Bit(true)]
        );
    }
}
