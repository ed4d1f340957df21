//! `bat.*` and `language.*` — BAT construction, materialisation and the
//! alias pseudo-instruction used by the optimizer pipeline.

use crate::interp::MalValue;
use crate::{MalError, Result};
use gdk::{Bat, ScalarType, Value};

/// `bat.new(type:str)` — empty BAT of the named type
pub(super) fn new(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let ty = match args.first() {
        Some(v) => match v.as_scalar()? {
            Value::Str(s) => ScalarType::from_sql_name(s)
                .or(match s.as_str() {
                    "int" => Some(ScalarType::Int),
                    "lng" => Some(ScalarType::Lng),
                    "dbl" => Some(ScalarType::Dbl),
                    "str" => Some(ScalarType::Str),
                    "bit" => Some(ScalarType::Bit),
                    "oid" => Some(ScalarType::OidT),
                    _ => None,
                })
                .ok_or_else(|| MalError::msg(format!("unknown type name {s:?}")))?,
            other => {
                return Err(MalError::msg(format!(
                    "bat.new type must be a string, got {other}"
                )))
            }
        },
        None => return Err(MalError::msg("bat.new takes a type name")),
    };
    Ok(vec![MalValue::bat(Bat::new(ty))])
}

/// `bat.dense(seq:lng, len:lng)` — void BAT
pub(super) fn dense(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let seq = args
        .first()
        .ok_or_else(|| MalError::msg("dense: missing seq"))?
        .as_scalar()?
        .as_i64()
        .ok_or_else(|| MalError::msg("dense seq must be integral"))?;
    let len = args
        .get(1)
        .ok_or_else(|| MalError::msg("dense: missing len"))?
        .as_scalar()?
        .as_i64()
        .ok_or_else(|| MalError::msg("dense len must be integral"))?;
    let seq = u64::try_from(seq).map_err(|_| MalError::msg("dense seq must be >= 0"))?;
    let len = usize::try_from(len).map_err(|_| MalError::msg("dense len must be >= 0"))?;
    Ok(vec![MalValue::bat(Bat::dense(seq, len))])
}

/// `bat.materialise(b)` — void → explicit oids
pub(super) fn materialise(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let b = args
        .first()
        .ok_or_else(|| MalError::msg("materialise: missing BAT"))?
        .as_bat()?;
    Ok(vec![MalValue::bat(b.materialise())])
}

/// `bat.single(v)` — one-tuple BAT holding a scalar
pub(super) fn single(args: &[MalValue]) -> Result<Vec<MalValue>> {
    let v = args
        .first()
        .ok_or_else(|| MalError::msg("single: missing value"))?
        .as_scalar()?;
    let ty = v.scalar_type().unwrap_or(ScalarType::Int);
    let mut b = Bat::with_capacity(ty, 1);
    b.push(v).map_err(MalError::Gdk)?;
    Ok(vec![MalValue::bat(b)])
}

/// `language.pass(v)` — identity (alias), used by optimizer rewrites
pub(super) fn pass(args: &[MalValue]) -> Result<Vec<MalValue>> {
    args.first()
        .cloned()
        .map(|v| vec![v])
        .ok_or_else(|| MalError::msg("pass: missing argument"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ExecCtx;
    use crate::Prim;

    fn call(op: Prim, args: &[MalValue]) -> Result<Vec<MalValue>> {
        crate::prims::call(op, args, &ExecCtx::serial())
    }

    #[test]
    fn new_and_single() {
        let out = call(Prim::New, &[MalValue::Scalar(Value::Str("int".into()))]).unwrap();
        assert_eq!(out[0].as_bat().unwrap().len(), 0);
        assert_eq!(out[0].as_bat().unwrap().tail_type(), ScalarType::Int);

        let out = call(Prim::Single, &[MalValue::Scalar(Value::Dbl(1.5))]).unwrap();
        assert_eq!(out[0].as_bat().unwrap().as_dbls().unwrap(), &[1.5]);
    }

    #[test]
    fn dense_and_materialise() {
        let out = call(
            Prim::Dense,
            &[
                MalValue::Scalar(Value::Lng(4)),
                MalValue::Scalar(Value::Lng(3)),
            ],
        )
        .unwrap();
        let m = call(Prim::Materialise, &out).unwrap();
        assert_eq!(m[0].as_bat().unwrap().as_oids().unwrap(), &[4, 5, 6]);
    }

    #[test]
    fn pass_is_identity() {
        let out = call(Prim::Pass, &[MalValue::Scalar(Value::Int(9))]).unwrap();
        assert!(matches!(out[0], MalValue::Scalar(Value::Int(9))));
    }

    #[test]
    fn unknown_type_name_errors() {
        assert!(call(Prim::New, &[MalValue::Scalar(Value::Str("quux".into()))]).is_err());
    }
}
