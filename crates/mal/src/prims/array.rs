//! `array.*` — the two MAL primitives the SciQL paper adds (§3):
//!
//! ```text
//! command array.series(start:int, step:int, stop:int, N:int, M:int) :bat[:oid,:int]
//! pattern array.filler(cnt:lng, v:any_1) :bat[:oid,:any_1]
//! ```

use crate::interp::MalValue;
use crate::{MalError, Result};
use gdk::{Bat, Value};

fn arg_i64(args: &[MalValue], i: usize, what: &str) -> Result<i64> {
    args.get(i)
        .ok_or_else(|| MalError::msg(format!("missing argument {i} ({what})")))?
        .as_scalar()?
        .as_i64()
        .ok_or_else(|| MalError::msg(format!("argument {i} ({what}) must be integral")))
}

pub(super) fn series(args: &[MalValue]) -> Result<Vec<MalValue>> {
    if args.len() != 5 {
        return Err(MalError::msg(
            "array.series(start, step, stop, N, M) takes 5 arguments",
        ));
    }
    let start = arg_i64(args, 0, "start")?;
    let step = arg_i64(args, 1, "step")?;
    let stop = arg_i64(args, 2, "stop")?;
    let n = usize::try_from(arg_i64(args, 3, "N")?)
        .map_err(|_| MalError::msg("N must be non-negative"))?;
    let m = usize::try_from(arg_i64(args, 4, "M")?)
        .map_err(|_| MalError::msg("M must be non-negative"))?;
    Ok(vec![MalValue::bat(Bat::series(start, step, stop, n, m)?)])
}

pub(super) fn filler(args: &[MalValue]) -> Result<Vec<MalValue>> {
    if args.len() != 2 {
        return Err(MalError::msg("array.filler(cnt, v) takes 2 arguments"));
    }
    let cnt = usize::try_from(arg_i64(args, 0, "cnt")?)
        .map_err(|_| MalError::msg("cnt must be non-negative"))?;
    let v = args[1].as_scalar()?;
    Ok(vec![MalValue::bat(Bat::filler(cnt, v)?)])
}

/// `array.shift(v, n_0, …, n_{k-1}, d_0, …, d_{k-1})` — positional shift of
/// an attribute BAT laid out in row-major cell order over a k-dimensional
/// array of shape (n_0, …, n_{k-1}). Output position p holds the value at
/// the cell displaced by (d_0, …, d_{k-1}); cells outside the array
/// dimension ranges come out nil, which is exactly the paper's rule that
/// out-of-range cells "are ignored by the aggregation functions".
pub(super) fn shift(args: &[MalValue]) -> Result<Vec<MalValue>> {
    if args.len() < 3 || !(args.len() - 1).is_multiple_of(2) {
        return Err(MalError::msg(
            "array.shift(v, sizes…, deltas…) needs 1+2k arguments",
        ));
    }
    let k = (args.len() - 1) / 2;
    let v = args[0].as_bat()?;
    let mut sizes = Vec::with_capacity(k);
    let mut deltas = Vec::with_capacity(k);
    for i in 0..k {
        let n = arg_i64(args, 1 + i, "size")?;
        if n < 0 {
            return Err(MalError::msg("array.shift sizes must be non-negative"));
        }
        sizes.push(n as usize);
        deltas.push(arg_i64(args, 1 + k + i, "delta")?);
    }
    let total: usize = sizes.iter().product();
    if v.len() != total {
        return Err(MalError::msg(format!(
            "array.shift: BAT has {} tuples but shape implies {}",
            v.len(),
            total
        )));
    }
    Ok(vec![MalValue::bat(shift_bat(v, &sizes, &deltas)?)])
}

/// Core of `array.shift`: row-major positional shift with nil padding.
///
/// The hot loop of tiling, so the common tail types take vectorised paths
/// that copy contiguous runs instead of boxing every cell.
pub fn shift_bat(v: &Bat, sizes: &[usize], deltas: &[i64]) -> crate::Result<Bat> {
    use gdk::types::{dbl_nil, INT_NIL, LNG_NIL};
    use gdk::ColumnData;
    match v.data() {
        ColumnData::Int(src) => Ok(Bat::from_ints(shift_typed(src, sizes, deltas, INT_NIL))),
        ColumnData::Lng(src) => Ok(Bat::from_lngs(shift_typed(src, sizes, deltas, LNG_NIL))),
        ColumnData::Dbl(src) => Ok(Bat::from_dbls(shift_typed(src, sizes, deltas, dbl_nil()))),
        _ => shift_generic(v, sizes, deltas),
    }
}

/// Typed shift: for each output cell, the source position is
/// `pos + Σ delta_i * stride_i` when every shifted coordinate stays in
/// range; runs along the innermost dimension are copied as slices.
fn shift_typed<T: Copy>(src: &[T], sizes: &[usize], deltas: &[i64], nil: T) -> Vec<T> {
    let total: usize = sizes.iter().product();
    let mut out = vec![nil; total];
    if total == 0 {
        return out;
    }
    let k = sizes.len();
    let mut strides = vec![1usize; k];
    for i in (0..k.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * sizes[i + 1];
    }
    // Valid output range per dimension: coord + delta ∈ [0, size).
    let mut lo = vec![0i64; k];
    let mut hi = vec![0i64; k];
    for i in 0..k {
        lo[i] = (-deltas[i]).max(0);
        hi[i] = (sizes[i] as i64 - deltas[i]).min(sizes[i] as i64);
        if lo[i] >= hi[i] {
            return out; // nothing in range
        }
    }
    let flat_delta: i64 = deltas
        .iter()
        .zip(&strides)
        .map(|(&d, &s)| d * s as i64)
        .collect::<Vec<i64>>()
        .iter()
        .sum();
    // Iterate the outer dimensions over their valid windows; copy the
    // innermost run as one slice.
    let inner = k - 1;
    let run_lo = lo[inner] as usize;
    let run_len = (hi[inner] - lo[inner]) as usize;
    let mut coords: Vec<i64> = lo[..inner].to_vec();
    loop {
        let base: usize = coords
            .iter()
            .zip(&strides[..inner])
            .map(|(&c, &s)| c as usize * s)
            .sum::<usize>()
            + run_lo;
        let src_base = (base as i64 + flat_delta) as usize;
        out[base..base + run_len].copy_from_slice(&src[src_base..src_base + run_len]);
        // Odometer over the outer dims within [lo, hi).
        let mut i = inner;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            coords[i] += 1;
            if coords[i] < hi[i] {
                break;
            }
            coords[i] = lo[i];
        }
    }
}

fn shift_generic(v: &Bat, sizes: &[usize], deltas: &[i64]) -> crate::Result<Bat> {
    let total: usize = sizes.iter().product();
    let mut out = Bat::with_capacity(v.tail_type(), total);
    let mut strides = vec![1usize; sizes.len()];
    for i in (0..sizes.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * sizes[i + 1];
    }
    let mut coords = vec![0usize; sizes.len()];
    for _pos in 0..total {
        // Source coordinates = coords + deltas.
        let mut src = 0usize;
        let mut ok = true;
        for (i, &c) in coords.iter().enumerate() {
            let s = c as i64 + deltas[i];
            if s < 0 || s >= sizes[i] as i64 {
                ok = false;
                break;
            }
            src += s as usize * strides[i];
        }
        let val = if ok { v.get(src) } else { Value::Null };
        out.push(&val).map_err(crate::MalError::Gdk)?;
        // Increment odometer.
        for i in (0..coords.len()).rev() {
            coords[i] += 1;
            if coords[i] < sizes[i] {
                break;
            }
            coords[i] = 0;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ExecCtx;
    use crate::Prim;

    fn call(op: Prim, args: &[MalValue]) -> Result<Vec<MalValue>> {
        crate::prims::call(op, args, &ExecCtx::serial())
    }
    use gdk::Value;

    #[test]
    fn series_primitive() {
        let args: Vec<MalValue> = [0, 1, 4, 1, 4]
            .iter()
            .map(|&v| MalValue::Scalar(Value::Int(v)))
            .collect();
        let out = call(Prim::Series, &args).unwrap();
        let b = out[0].as_bat().unwrap();
        assert_eq!(
            b.as_ints().unwrap(),
            &[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]
        );
    }

    #[test]
    fn filler_primitive() {
        let out = call(
            Prim::Filler,
            &[
                MalValue::Scalar(Value::Lng(3)),
                MalValue::Scalar(Value::Dbl(0.5)),
            ],
        )
        .unwrap();
        assert_eq!(
            out[0].as_bat().unwrap().as_dbls().unwrap(),
            &[0.5, 0.5, 0.5]
        );
    }

    #[test]
    fn shift_2d_neighbours() {
        // 3×3 array 0..9 in row-major order; shift by (-1, 0) = value of the
        // upper neighbour (x-1), nil on the first row.
        let v = Bat::from_ints((0..9).collect());
        let s = shift_bat(&v, &[3, 3], &[-1, 0]).unwrap();
        assert_eq!(
            s.to_values(),
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Int(0),
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4),
                Value::Int(5),
            ]
        );
        // shift by (0, 1): right neighbour, nil on the last column.
        let s = shift_bat(&v, &[3, 3], &[0, 1]).unwrap();
        assert_eq!(
            s.to_values(),
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::Null,
                Value::Int(4),
                Value::Int(5),
                Value::Null,
                Value::Int(7),
                Value::Int(8),
                Value::Null,
            ]
        );
    }

    #[test]
    fn shift_identity_and_1d() {
        let v = Bat::from_ints(vec![5, 6, 7]);
        let s = shift_bat(&v, &[3], &[0]).unwrap();
        assert_eq!(s.to_values(), v.to_values());
        let s = shift_bat(&v, &[3], &[2]).unwrap();
        assert_eq!(s.to_values(), vec![Value::Int(7), Value::Null, Value::Null]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The vectorised typed shift must agree with the generic boxed
        /// path on arbitrary shapes, deltas and nil patterns.
        #[test]
        fn typed_shift_matches_generic(
            w in 1usize..6,
            h in 1usize..6,
            d in 1usize..4,
            dx in -6i64..6,
            dy in -6i64..6,
            dz in -4i64..4,
            nil_mask in proptest::collection::vec(proptest::bool::weighted(0.2), 0..200),
        ) {
            let total = w * h * d;
            let vals: Vec<Option<i32>> = (0..total)
                .map(|i| {
                    if nil_mask.get(i).copied().unwrap_or(false) {
                        None
                    } else {
                        Some(i as i32)
                    }
                })
                .collect();
            let b = Bat::from_opt_ints(vals);
            let sizes = [w, h, d];
            let deltas = [dx, dy, dz];
            let fast = shift_bat(&b, &sizes, &deltas).unwrap();
            let slow = shift_generic(&b, &sizes, &deltas).unwrap();
            proptest::prop_assert_eq!(fast.to_values(), slow.to_values());
        }
    }

    #[test]
    fn shift_primitive_checks_shape() {
        let v = MalValue::bat(Bat::from_ints(vec![1, 2, 3]));
        // shape 2×2 ≠ 3 tuples
        let args = [
            v,
            MalValue::Scalar(Value::Int(2)),
            MalValue::Scalar(Value::Int(2)),
            MalValue::Scalar(Value::Int(0)),
            MalValue::Scalar(Value::Int(0)),
        ];
        assert!(call(Prim::Shift, &args).is_err());
    }

    #[test]
    fn arity_errors() {
        assert!(call(Prim::Series, &[MalValue::Scalar(Value::Int(0))]).is_err());
        assert!(call(
            Prim::Filler,
            &[
                MalValue::Scalar(Value::Lng(-1)),
                MalValue::Scalar(Value::Int(0))
            ]
        )
        .is_err());
    }
}
