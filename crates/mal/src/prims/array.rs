//! `array.*` — the two MAL primitives the SciQL paper adds (§3):
//!
//! ```text
//! command array.series(start:int, step:int, stop:int, N:int, M:int) :bat[:oid,:int]
//! pattern array.filler(cnt:lng, v:any_1) :bat[:oid,:any_1]
//! ```
//!
//! plus the two that structural grouping lowers to: `array.shift`, one
//! positional shift per tile cell (the opt-0 lowering), and
//! `array.tileagg`, a whole tile aggregate in one pass.

use crate::interp::MalValue;
use crate::registry::ExecCtx;
use crate::{MalError, Result};
use gdk::aggregate::AggFunc;
use gdk::{Bat, ParConfig, Value};
use std::ops::Range;

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
    let strides = strides_of(sizes);
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

/// Row-major strides of `sizes`.
fn strides_of(sizes: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; sizes.len()];
    for i in (0..sizes.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * sizes[i + 1];
    }
    strides
}

/// `array.tileagg(v, func, k, n_0, …, n_{k-1}, offsets…)` — the tile
/// aggregate `func` (`"sum"`, `"count"`, `"avg"`, `"min"` or `"max"`) of
/// every cell of a k-dimensional array of shape (n_0, …, n_{k-1}), whose
/// tile is the cells at the positional offsets (k values each, in the
/// order given). `k` comes first because the argument count alone does
/// not fix it.
///
/// It returns exactly what the `array.shift` chain the code generator
/// emits at opt level 0 returns, bit for bit, and fails where it fails:
/// every cell folds its tile's cells in offset order, out-of-range and
/// nil cells are absent, and an offset that misses a cell still passes
/// over it as the chain's `add` of 0 does. SUM and AVG add `int`/`lng`
/// as `lng` (an overflow, or a sum equal to the `lng` nil, is the
/// chain's "integer overflow") and `dbl` as `dbl`; MIN/MAX keep the
/// input type and replace only on a strict `<`/`>`.
pub(super) fn tileagg(args: &[MalValue], ctx: &ExecCtx) -> Result<Vec<MalValue>> {
    let usage = "array.tileagg(v, func, k, sizes…, offsets…)";
    let (Some(v), Some(MalValue::Scalar(Value::Str(fname)))) = (args.first(), args.get(1)) else {
        return Err(MalError::msg(format!(
            "{usage}: needs a BAT and a function name"
        )));
    };
    let v = v.as_bat()?;
    let func = AggFunc::from_name(fname)
        .ok_or_else(|| MalError::msg(format!("{usage}: unknown aggregate {fname:?}")))?;
    let k = usize::try_from(arg_i64(args, 2, "k")?)
        .ok()
        .filter(|&k| k > 0 && args.len() >= 3 + k && (args.len() - 3 - k).is_multiple_of(k))
        .ok_or_else(|| MalError::msg(format!("{usage}: k must match the arguments")))?;
    let mut sizes = Vec::with_capacity(k);
    for i in 0..k {
        sizes.push(
            usize::try_from(arg_i64(args, 3 + i, "size")?)
                .map_err(|_| MalError::msg("array.tileagg sizes must be non-negative"))?,
        );
    }
    let offsets = (3 + k..args.len())
        .map(|i| arg_i64(args, i, "offset"))
        .collect::<Result<Vec<i64>>>()?;
    let tiles = Tiles::new(sizes, offsets);
    if v.len() != tiles.total {
        return Err(MalError::msg(format!(
            "array.tileagg: BAT has {} tuples but shape implies {}",
            v.len(),
            tiles.total
        )));
    }
    let (out, threads) = tiles.aggregate(func, v, &ctx.par)?;
    ctx.note_threads(threads);
    Ok(vec![MalValue::bat(out)])
}

/// The geometry of a tile aggregate: the array's shape, its strides and
/// the tile's positional offsets, `k` values each.
struct Tiles {
    sizes: Vec<usize>,
    strides: Vec<usize>,
    offsets: Vec<i64>,
    total: usize,
}

impl Tiles {
    fn new(sizes: Vec<usize>, offsets: Vec<i64>) -> Self {
        Tiles {
            strides: strides_of(&sizes),
            total: sizes.iter().product(),
            sizes,
            offsets,
        }
    }

    /// The typed kernel for `func` over `v`'s tail.
    fn aggregate(&self, func: AggFunc, v: &Bat, par: &ParConfig) -> gdk::Result<(Bat, usize)> {
        use gdk::types::{dbl_nil, INT_NIL, LNG_NIL};
        use gdk::ColumnData::{Dbl, Int, Lng};
        let int_nil = |x: i32| x == INT_NIL;
        let lng_nil = |x: i64| x == LNG_NIL;
        let sum = |sum: i64, cnt: i64| if cnt == 0 { LNG_NIL } else { sum };
        let avg = |sum: i64, cnt: i64| {
            if cnt == 0 {
                dbl_nil()
            } else {
                sum as f64 / cnt as f64
            }
        };
        let min = func == AggFunc::Min;
        Ok(match (func, v.data()) {
            (AggFunc::Count, Int(s)) => lngs(self.rows(s, par, |n| Count::new(n, int_nil))?),
            (AggFunc::Count, Lng(s)) => lngs(self.rows(s, par, |n| Count::new(n, lng_nil))?),
            (AggFunc::Count, Dbl(s)) => lngs(self.rows(s, par, |n| Count::new(n, f64::is_nan))?),
            // An `int` tile of fewer than 2^32 cells cannot leave the
            // `lng` range, so its sums go unchecked.
            (AggFunc::Sum, Int(s)) => lngs(self.rows(s, par, |n| LngSum::new(n, false, sum))?),
            (AggFunc::Sum, Lng(s)) => lngs(self.rows(s, par, |n| LngSum::new(n, true, sum))?),
            (AggFunc::Avg, Int(s)) => dbls(self.rows(s, par, |n| LngSum::new(n, false, avg))?),
            (AggFunc::Avg, Lng(s)) => dbls(self.rows(s, par, |n| LngSum::new(n, true, avg))?),
            (AggFunc::Sum | AggFunc::Avg, Dbl(s)) => {
                let avg = func == AggFunc::Avg;
                dbls(self.rows(s, par, |n| DblSum::new(n, avg))?)
            }
            (AggFunc::Min | AggFunc::Max, Int(s)) => {
                let (out, k) = self.rows(s, par, |n| Best::new(n, min, INT_NIL, int_nil))?;
                (Bat::from_ints(out), k)
            }
            (AggFunc::Min | AggFunc::Max, Lng(s)) => {
                lngs(self.rows(s, par, |n| Best::new(n, min, LNG_NIL, lng_nil))?)
            }
            (AggFunc::Min | AggFunc::Max, Dbl(s)) => {
                dbls(self.rows(s, par, |n| Best::new(n, min, dbl_nil(), f64::is_nan))?)
            }
            _ => {
                return Err(gdk::GdkError::type_mismatch(format!(
                    "array.tileagg takes int, lng or dbl, not {}",
                    v.tail_type()
                )))
            }
        })
    }

    /// The row loop. The output is cut into rows along the innermost
    /// dimension, split over `gdk::par` windows. For each row
    /// the window's accumulators are reset; for each offset in order, the
    /// run of in-range source cells is folded into the matching cells
    /// and the cells the offset misses are passed over; then the row is
    /// written. An overflow a fold flags is the chain's `lng` error.
    fn rows<T: Sync, A: RowFold<T>>(
        &self,
        src: &[T],
        par: &ParConfig,
        make: impl Fn(usize) -> A + Sync,
    ) -> gdk::Result<(Vec<A::Out>, usize)> {
        let k = self.sizes.len();
        let inner = k - 1;
        let n = self.sizes[inner];
        if self.total == 0 {
            return Ok((Vec::new(), 1));
        }
        gdk::par::map_rows(self.total / n, n, par, |rows, out| {
            let mut acc = make(n);
            let mut coords = vec![0i64; inner];
            let mut bad = false;
            for (row, out) in rows.zip(out.chunks_exact_mut(n)) {
                let mut rest = row;
                for i in (0..inner).rev() {
                    coords[i] = (rest % self.sizes[i]) as i64;
                    rest /= self.sizes[i];
                }
                acc.reset();
                for (t, off) in self.offsets.chunks_exact(k).enumerate() {
                    // The source row, when every outer coordinate lands
                    // inside the array.
                    let mut base = 0i64;
                    let mut inside = true;
                    for i in 0..inner {
                        let c = coords[i].saturating_add(off[i]);
                        inside &= c >= 0 && c < self.sizes[i] as i64;
                        base = base.wrapping_add(c.wrapping_mul(self.strides[i] as i64));
                    }
                    let d = off[inner];
                    let lo = d.saturating_neg().clamp(0, n as i64) as usize;
                    let hi = (n as i64).saturating_sub(d).clamp(0, n as i64) as usize;
                    if !inside || lo >= hi {
                        acc.missed(0..n);
                        continue;
                    }
                    let start = (base + lo as i64 + d) as usize;
                    bad |= acc.fold(t, lo..hi, &src[start..start + (hi - lo)]);
                    acc.missed(0..lo);
                    acc.missed(hi..n);
                }
                acc.finish(out);
            }
            if bad {
                return Err(gdk::GdkError::arithmetic("integer overflow"));
            }
            Ok(())
        })
    }
}

fn lngs((out, k): (Vec<i64>, usize)) -> (Bat, usize) {
    (Bat::from_lngs(out), k)
}

fn dbls((out, k): (Vec<f64>, usize)) -> (Bat, usize) {
    (Bat::from_dbls(out), k)
}

/// One row's accumulators of a tile aggregate over source cells `T`,
/// driven by [`Tiles::rows`].
trait RowFold<T> {
    type Out: Copy + Default + Send;
    /// Start a row.
    fn reset(&mut self);
    /// Fold offset `t`'s source cells `src` into the row's cells `cells`;
    /// true flags a `lng` overflow.
    fn fold(&mut self, t: usize, cells: Range<usize>, src: &[T]) -> bool;
    /// Pass over the cells an offset misses.
    fn missed(&mut self, _cells: Range<usize>) {}
    /// Write the row.
    fn finish(&self, out: &mut [Self::Out]);
}

/// COUNT: the non-nil cells.
struct Count<N> {
    nil: N,
    cnt: Vec<i64>,
}

impl<N> Count<N> {
    fn new(n: usize, nil: N) -> Self {
        Count {
            nil,
            cnt: vec![0; n],
        }
    }
}

impl<T: Copy, N: Fn(T) -> bool> RowFold<T> for Count<N> {
    type Out = i64;
    fn reset(&mut self) {
        self.cnt.fill(0);
    }
    fn fold(&mut self, _: usize, cells: Range<usize>, src: &[T]) -> bool {
        for (c, &x) in self.cnt[cells].iter_mut().zip(src) {
            *c += i64::from(!(self.nil)(x));
        }
        false
    }
    fn finish(&self, out: &mut [i64]) {
        out.copy_from_slice(&self.cnt);
    }
}

/// An `int`/`lng` cell as a `lng` summand: its value, or `None` for nil.
trait Summand: Copy {
    fn summand(self) -> Option<i64>;
}

impl Summand for i32 {
    #[inline]
    fn summand(self) -> Option<i64> {
        (self != gdk::types::INT_NIL).then_some(i64::from(self))
    }
}

impl Summand for i64 {
    #[inline]
    fn summand(self) -> Option<i64> {
        (self != gdk::types::LNG_NIL).then_some(self)
    }
}

/// SUM and AVG of `int`/`lng`, added as `lng` (checked unless the input
/// cannot overflow) and finished by `fin(sum, count)`.
struct LngSum<F> {
    checked: bool,
    fin: F,
    sum: Vec<i64>,
    cnt: Vec<i64>,
}

impl<F> LngSum<F> {
    fn new(n: usize, checked: bool, fin: F) -> Self {
        LngSum {
            checked,
            fin,
            sum: vec![0; n],
            cnt: vec![0; n],
        }
    }
}

impl<T: Summand, O: Copy + Default + Send, F: Fn(i64, i64) -> O> RowFold<T> for LngSum<F> {
    type Out = O;
    fn reset(&mut self) {
        self.sum.fill(0);
        self.cnt.fill(0);
    }
    fn fold(&mut self, _: usize, cells: Range<usize>, src: &[T]) -> bool {
        let cells = self.sum[cells.clone()].iter_mut().zip(&mut self.cnt[cells]);
        let mut bad = false;
        if self.checked {
            for ((s, c), &x) in cells.zip(src) {
                let v = x.summand();
                let (r, o) = s.overflowing_add(v.unwrap_or(0));
                // A sum equal to the nil is out of range, as in `batcalc.add`.
                bad |= o | (r == gdk::types::LNG_NIL);
                *s = r;
                *c += i64::from(v.is_some());
            }
        } else {
            for ((s, c), &x) in cells.zip(src) {
                let v = x.summand();
                *s += v.unwrap_or(0);
                *c += i64::from(v.is_some());
            }
        }
        bad
    }
    fn finish(&self, out: &mut [O]) {
        for ((o, &s), &c) in out.iter_mut().zip(&self.sum).zip(&self.cnt) {
            *o = (self.fin)(s, c);
        }
    }
}

/// SUM and AVG of `dbl`. The chain's `add` turns a nil running sum into
/// the canonical nil at every offset, the ones that miss the cell
/// included, so a NaN keeps the bits of its `+` only when the last offset
/// made it.
struct DblSum {
    avg: bool,
    sum: Vec<f64>,
    cnt: Vec<i64>,
}

impl DblSum {
    fn new(n: usize, avg: bool) -> Self {
        DblSum {
            avg,
            sum: vec![0.0; n],
            cnt: vec![0; n],
        }
    }
}

impl RowFold<f64> for DblSum {
    type Out = f64;
    fn reset(&mut self) {
        self.sum.fill(0.0);
        self.cnt.fill(0);
    }
    fn fold(&mut self, _: usize, cells: Range<usize>, src: &[f64]) -> bool {
        let cells = self.sum[cells.clone()].iter_mut().zip(&mut self.cnt[cells]);
        for ((s, c), &x) in cells.zip(src) {
            let keep = !x.is_nan();
            *s = if s.is_nan() {
                gdk::types::dbl_nil()
            } else {
                *s + if keep { x } else { 0.0 }
            };
            *c += i64::from(keep);
        }
        false
    }
    fn missed(&mut self, cells: Range<usize>) {
        for s in &mut self.sum[cells] {
            if s.is_nan() {
                *s = gdk::types::dbl_nil();
            }
        }
    }
    fn finish(&self, out: &mut [f64]) {
        for ((o, &s), &c) in out.iter_mut().zip(&self.sum).zip(&self.cnt) {
            *o = if c == 0 || (self.avg && s.is_nan()) {
                gdk::types::dbl_nil()
            } else if self.avg {
                s / c as f64
            } else {
                s
            };
        }
    }
}

/// MIN and MAX: the first offset's cell (nil when it misses), then each
/// later non-nil cell that is strictly better than a non-nil running
/// value, or replaces a nil one.
struct Best<T, N> {
    min: bool,
    nil_value: T,
    nil: N,
    acc: Vec<T>,
}

impl<T: Copy, N> Best<T, N> {
    fn new(n: usize, min: bool, nil_value: T, nil: N) -> Self {
        Best {
            min,
            nil_value,
            nil,
            acc: vec![nil_value; n],
        }
    }
}

impl<T, N> RowFold<T> for Best<T, N>
where
    T: Copy + Default + Send + PartialOrd,
    N: Fn(T) -> bool,
{
    type Out = T;
    fn reset(&mut self) {
        self.acc.fill(self.nil_value);
    }
    fn fold(&mut self, t: usize, cells: Range<usize>, src: &[T]) -> bool {
        let acc = &mut self.acc[cells];
        if t == 0 {
            acc.copy_from_slice(src);
            return false;
        }
        let nil = &self.nil;
        for (a, &x) in acc.iter_mut().zip(src) {
            let better = if self.min { x < *a } else { x > *a };
            if !nil(x) && (nil(*a) || better) {
                *a = x;
            }
        }
        false
    }
    fn finish(&self, out: &mut [T]) {
        out.copy_from_slice(&self.acc);
    }
}

fn shift_generic(v: &Bat, sizes: &[usize], deltas: &[i64]) -> crate::Result<Bat> {
    let total: usize = sizes.iter().product();
    let mut out = Bat::with_capacity(v.tail_type(), total);
    let strides = strides_of(sizes);
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

    fn tileagg_args(v: Bat, func: &str, sizes: &[i64], offsets: &[i64]) -> Vec<MalValue> {
        let mut args = vec![
            MalValue::bat(v),
            MalValue::Scalar(Value::Str(func.into())),
            MalValue::Scalar(Value::Lng(sizes.len() as i64)),
        ];
        let consts = sizes.iter().chain(offsets);
        args.extend(consts.map(|&n| MalValue::Scalar(Value::Lng(n))));
        args
    }

    #[test]
    fn tileagg_primitive() {
        // 3×3 array 0..9 with a hole at 4; the tile is the cell, its right
        // neighbour and the two below them.
        let mut cells: Vec<Option<i32>> = (0..9).map(Some).collect();
        cells[4] = None;
        let v = Bat::from_opt_ints(cells);
        let tile = [0, 0, 0, 1, 1, 0, 1, 1];
        let run = |func: &str| {
            let args = tileagg_args(v.clone(), func, &[3, 3], &tile);
            call(Prim::TileAgg, &args).unwrap()[0]
                .as_bat()
                .unwrap()
                .to_values()
        };
        let lngs = |xs: &[i64]| xs.iter().map(|&x| Value::Lng(x)).collect::<Vec<_>>();
        assert_eq!(run("sum"), lngs(&[4, 8, 7, 16, 20, 13, 13, 15, 8]));
        assert_eq!(run("count"), lngs(&[3, 3, 2, 3, 3, 2, 2, 2, 1]));
        assert_eq!(
            run("max")[..3],
            [Value::Int(3), Value::Int(5), Value::Int(5)]
        );
        assert_eq!(run("min")[8], Value::Int(8));
        assert_eq!(run("avg")[2], Value::Dbl(3.5));
        // A tile with no cells: SUM is nil, COUNT 0.
        let args = tileagg_args(v.clone(), "sum", &[3, 3], &[]);
        let out = call(Prim::TileAgg, &args).unwrap();
        assert!(out[0]
            .as_bat()
            .unwrap()
            .to_values()
            .iter()
            .all(Value::is_null));
    }

    #[test]
    fn tileagg_errors() {
        let v = Bat::from_lngs(vec![i64::MAX, 1]);
        // A lng sum that overflows is the chain's error.
        let err = call(
            Prim::TileAgg,
            &tileagg_args(v.clone(), "sum", &[2], &[0, 1]),
        );
        assert!(err.unwrap_err().to_string().contains("integer overflow"));
        // k must fit the argument count; the function must exist; the
        // shape must match; strings have no tile aggregate.
        let mut args = tileagg_args(v.clone(), "sum", &[2], &[0]);
        args[2] = MalValue::Scalar(Value::Lng(3));
        assert!(call(Prim::TileAgg, &args).is_err());
        assert!(call(
            Prim::TileAgg,
            &tileagg_args(v.clone(), "median", &[2], &[0])
        )
        .is_err());
        assert!(call(Prim::TileAgg, &tileagg_args(v, "sum", &[3], &[0])).is_err());
        let s = Bat::from_strs(vec![Some("a"), Some("b")]);
        assert!(call(Prim::TileAgg, &tileagg_args(s, "count", &[2], &[0])).is_err());
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
