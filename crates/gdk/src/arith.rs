//! Element-wise arithmetic, comparison and boolean logic (`batcalc`).
//!
//! All operators propagate nil: any nil operand yields a nil result
//! (three-valued logic for the boolean operators). Numeric promotion
//! follows [`crate::types::ScalarType::promote`]; integer overflow and
//! division by zero raise [`crate::GdkError::Arithmetic`], as MonetDB does.

use crate::bat::{Bat, ColumnData};
use crate::types::{dbl_nil, is_dbl_nil, ScalarType, BIT_NIL, INT_NIL, LNG_NIL};
use crate::value::Value;
use crate::{GdkError, Result};
use std::borrow::Cow;
use std::ops::Range;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division for integral operands).
    Div,
    /// Modulo (integral operands only).
    Mod,
}

impl BinOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
    /// Swap sides: `a op b` == `b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// One operand of an element-wise operation: a column or a scalar
/// broadcast over the column length.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// Column operand.
    Col(&'a Bat),
    /// Scalar operand, broadcast.
    Scalar(&'a Value),
}

impl<'a> Operand<'a> {
    fn len(&self) -> Option<usize> {
        match self {
            Operand::Col(b) => Some(b.len()),
            Operand::Scalar(_) => None,
        }
    }
    fn value_at(&self, i: usize) -> Value {
        match self {
            Operand::Col(b) => b.get(i),
            Operand::Scalar(v) => (*v).clone(),
        }
    }
    fn scalar_type(&self) -> Option<ScalarType> {
        match self {
            Operand::Col(b) => Some(b.tail_type()),
            Operand::Scalar(v) => v.scalar_type(),
        }
    }
}

pub(crate) fn common_len(a: &Operand<'_>, b: &Operand<'_>) -> Result<usize> {
    match (a.len(), b.len()) {
        (Some(x), Some(y)) => {
            if x != y {
                Err(GdkError::invalid(format!(
                    "element-wise op on misaligned columns ({x} vs {y})"
                )))
            } else {
                Ok(x)
            }
        }
        (Some(x), None) | (None, Some(x)) => Ok(x),
        (None, None) => Err(GdkError::invalid(
            "element-wise op needs at least one column operand",
        )),
    }
}

/// Scalar-level arithmetic with SQL nil semantics (used by the fallback
/// path and by the expression interpreter for constants).
pub fn scalar_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let ta = a
        .scalar_type()
        .ok_or_else(|| GdkError::type_mismatch("untyped operand"))?;
    let tb = b
        .scalar_type()
        .ok_or_else(|| GdkError::type_mismatch("untyped operand"))?;
    let rt = ta.promote(tb).ok_or_else(|| {
        GdkError::type_mismatch(format!("cannot apply {} to {ta} and {tb}", op.symbol()))
    })?;
    match rt {
        ScalarType::Dbl => Ok(Value::Dbl(dbl_op(
            op,
            a.as_f64().unwrap(),
            b.as_f64().unwrap(),
        )?)),
        _ => {
            let r = lng_op(op, a.as_i64().unwrap(), b.as_i64().unwrap())?;
            if rt == ScalarType::Int {
                i32::try_from(r)
                    .map(Value::Int)
                    .map_err(|_| GdkError::arithmetic("int overflow"))
            } else {
                Ok(Value::Lng(r))
            }
        }
    }
}

/// The integral branch of [`scalar_binop`].
#[inline]
fn lng_op(op: BinOp, x: i64, y: i64) -> Result<i64> {
    match op {
        BinOp::Add => x.checked_add(y),
        BinOp::Sub => x.checked_sub(y),
        BinOp::Mul => x.checked_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(GdkError::arithmetic("division by zero"));
            }
            x.checked_div(y)
        }
        BinOp::Mod => {
            if y == 0 {
                return Err(GdkError::arithmetic("modulo by zero"));
            }
            x.checked_rem(y)
        }
    }
    .ok_or_else(|| GdkError::arithmetic("integer overflow"))
}

/// The dbl branch of [`scalar_binop`].
#[inline]
fn dbl_op(op: BinOp, x: f64, y: f64) -> Result<f64> {
    Ok(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                return Err(GdkError::arithmetic("division by zero"));
            }
            x / y
        }
        BinOp::Mod => {
            if y == 0.0 {
                return Err(GdkError::arithmetic("modulo by zero"));
            }
            x % y
        }
    })
}

// ---------------------------------------------------------------------
// Typed slice kernels
// ---------------------------------------------------------------------

/// Cell type of the typed slice kernels (`int`, `lng`, `dbl`).
trait Num: Copy + Default + Send + Sync {
    /// The in-band nil.
    const NIL: Self;
    fn is_nil(self) -> bool;
    /// `x op y` for non-nil operands.
    fn apply(op: BinOp, x: Self, y: Self) -> Result<Self>;
    /// Exact integral view; `None` for `dbl`.
    fn as_i64(self) -> Option<i64>;
    fn as_f64(self) -> f64;
    fn into_bat(v: Vec<Self>) -> Bat;
}

impl Num for i32 {
    const NIL: i32 = INT_NIL;
    fn is_nil(self) -> bool {
        self == INT_NIL
    }
    fn apply(op: BinOp, x: i32, y: i32) -> Result<i32> {
        int_op(op, x, y)
    }
    fn as_i64(self) -> Option<i64> {
        Some(self as i64)
    }
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn into_bat(v: Vec<i32>) -> Bat {
        Bat::from_ints(v)
    }
}

impl Num for i64 {
    const NIL: i64 = LNG_NIL;
    fn is_nil(self) -> bool {
        self == LNG_NIL
    }
    fn apply(op: BinOp, x: i64, y: i64) -> Result<i64> {
        lng_op(op, x, y)
    }
    fn as_i64(self) -> Option<i64> {
        Some(self)
    }
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn into_bat(v: Vec<i64>) -> Bat {
        Bat::from_lngs(v)
    }
}

impl Num for f64 {
    const NIL: f64 = f64::NAN;
    fn is_nil(self) -> bool {
        is_dbl_nil(self)
    }
    fn apply(op: BinOp, x: f64, y: f64) -> Result<f64> {
        dbl_op(op, x, y)
    }
    fn as_i64(self) -> Option<i64> {
        None
    }
    fn as_f64(self) -> f64 {
        self
    }
    fn into_bat(v: Vec<f64>) -> Bat {
        Bat::from_dbls(v)
    }
}

/// One operand of a typed slice kernel. Only column cells carry in-band
/// nils: a scalar is a number even when it equals the sentinel
/// (`Value::Dbl(NaN)` and `Value::Lng(i64::MIN)` are not SQL NULL).
#[derive(Clone, Copy)]
enum Side<'a, T> {
    Col(&'a [T]),
    Scalar(T),
}

impl<T: Copy> Side<'_, T> {
    fn window(self, r: &Range<usize>) -> Self {
        match self {
            Side::Col(v) => Side::Col(&v[r.clone()]),
            scalar => scalar,
        }
    }
}

/// A numeric operand resolved to its cell type.
#[derive(Clone, Copy)]
enum NumSide<'a> {
    Int(Side<'a, i32>),
    Lng(Side<'a, i64>),
    Dbl(Side<'a, f64>),
}

fn num_side(o: Operand<'_>) -> Option<NumSide<'_>> {
    Some(match o {
        Operand::Col(b) => match b.data() {
            ColumnData::Int(v) => NumSide::Int(Side::Col(v)),
            ColumnData::Lng(v) => NumSide::Lng(Side::Col(v)),
            ColumnData::Dbl(v) => NumSide::Dbl(Side::Col(v)),
            _ => return None,
        },
        Operand::Scalar(Value::Int(x)) => NumSide::Int(Side::Scalar(*x)),
        Operand::Scalar(Value::Lng(x)) => NumSide::Lng(Side::Scalar(*x)),
        Operand::Scalar(Value::Dbl(x)) => NumSide::Dbl(Side::Scalar(*x)),
        Operand::Scalar(_) => return None,
    })
}

/// The slice kernel: `out[i] = f(a[i], b[i])`, `nil` where a column cell
/// is nil. `out` is as long as the column windows.
fn zip_into<A: Num, B: Num, O: Copy>(
    a: Side<'_, A>,
    b: Side<'_, B>,
    nil: O,
    out: &mut [O],
    f: impl Fn(A, B) -> Result<O>,
) -> Result<()> {
    match (a, b) {
        (Side::Col(xs), Side::Col(ys)) => {
            for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                *o = if x.is_nil() || y.is_nil() {
                    nil
                } else {
                    f(x, y)?
                };
            }
        }
        (Side::Col(xs), Side::Scalar(y)) => {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = if x.is_nil() { nil } else { f(x, y)? };
            }
        }
        (Side::Scalar(x), Side::Col(ys)) => {
            for (o, &y) in out.iter_mut().zip(ys) {
                *o = if y.is_nil() { nil } else { f(x, y)? };
            }
        }
        (Side::Scalar(_), Side::Scalar(_)) => {
            unreachable!("element-wise kernels take at least one column")
        }
    }
    Ok(())
}

/// [`zip_into`] over `k` windows of one fresh `n`-long output.
fn zip_windows<A: Num, B: Num, O: Copy + Default + Send + Sync>(
    n: usize,
    k: usize,
    a: Side<'_, A>,
    b: Side<'_, B>,
    nil: O,
    f: impl Fn(A, B) -> Result<O> + Sync,
) -> Result<Vec<O>> {
    crate::par::map_windows(n, k, |r, out| {
        zip_into(a.window(&r), b.window(&r), nil, out, &f)
    })
}

fn typed_binop<T: Num>(
    op: BinOp,
    a: Side<'_, T>,
    b: Side<'_, T>,
    n: usize,
    k: usize,
) -> Result<(Bat, usize)> {
    let out = zip_windows(n, k, a, b, T::NIL, |x, y| T::apply(op, x, y))?;
    Ok((T::into_bat(out), k))
}

/// Element-wise binary arithmetic with broadcasting.
pub fn binop(op: BinOp, a: Operand<'_>, b: Operand<'_>) -> Result<Bat> {
    binop_windows(op, a, b, 1).map(|(out, _)| out)
}

/// [`binop`] over `k` windows; returns the window count actually used
/// (1 for the shapes without a typed slice kernel).
pub(crate) fn binop_windows(
    op: BinOp,
    a: Operand<'_>,
    b: Operand<'_>,
    k: usize,
) -> Result<(Bat, usize)> {
    let len = common_len(&a, &b)?;
    let ta = a.scalar_type();
    let tb = b.scalar_type();
    let rt = match (ta, tb) {
        (Some(x), Some(y)) => x.promote(y).ok_or_else(|| {
            GdkError::type_mismatch(format!("cannot apply {} to {x} and {y}", op.symbol()))
        })?,
        // NULL scalar operand: result is all-nil of the other side's type.
        (Some(x), None) | (None, Some(x)) => {
            let rt = x.promote(x).unwrap_or(x);
            return Ok((Bat::constant(rt, len, &Value::Null)?, 1));
        }
        (None, None) => return Err(GdkError::type_mismatch("untyped operands")),
    };

    // Same-typed numeric operands (dimension arithmetic is the hot loop
    // of tiling) run the typed slice kernel.
    match (num_side(a), num_side(b)) {
        (Some(NumSide::Int(x)), Some(NumSide::Int(y))) => {
            // The one scalar sentinel that *is* nil: `int` ⊕ INT_NIL.
            if matches!(x, Side::Scalar(INT_NIL)) || matches!(y, Side::Scalar(INT_NIL)) {
                return Ok((Bat::from_ints(vec![INT_NIL; len]), 1));
            }
            return typed_binop(op, x, y, len, k);
        }
        (Some(NumSide::Lng(x)), Some(NumSide::Lng(y))) => return typed_binop(op, x, y, len, k),
        (Some(NumSide::Dbl(x)), Some(NumSide::Dbl(y))) => return typed_binop(op, x, y, len, k),
        _ => {}
    }

    // Generic path: mixed widths, oid and void operands.
    let mut out = Bat::with_capacity(rt, len);
    for i in 0..len {
        let (x, y) = (a.value_at(i), b.value_at(i));
        let r = if x.is_null() || y.is_null() {
            Value::Null
        } else {
            scalar_binop(op, &x, &y)?
        };
        out.push(&r)?;
    }
    Ok((out, 1))
}

#[inline]
fn int_op(op: BinOp, x: i32, y: i32) -> Result<i32> {
    let r = match op {
        BinOp::Add => x.checked_add(y),
        BinOp::Sub => x.checked_sub(y),
        BinOp::Mul => x.checked_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(GdkError::arithmetic("division by zero"));
            }
            x.checked_div(y)
        }
        BinOp::Mod => {
            if y == 0 {
                return Err(GdkError::arithmetic("modulo by zero"));
            }
            x.checked_rem(y)
        }
    }
    .ok_or_else(|| GdkError::arithmetic("int overflow"))?;
    if r == INT_NIL {
        return Err(GdkError::arithmetic("int overflow"));
    }
    Ok(r)
}

/// Exact ordering of two numeric cells: integral pairs compare as `i64`
/// (`f64` has 53 bits of mantissa), anything involving a `dbl` as `f64`
/// (`None` for a NaN scalar). Agrees with [`Value::sql_cmp`].
#[inline]
fn num_cmp<A: Num, B: Num>(x: A, y: B) -> Option<std::cmp::Ordering> {
    match (x.as_i64(), y.as_i64()) {
        (Some(x), Some(y)) => Some(x.cmp(&y)),
        _ => x.as_f64().partial_cmp(&y.as_f64()),
    }
}

fn typed_cmp<A: Num, B: Num>(
    op: CmpOp,
    a: Side<'_, A>,
    b: Side<'_, B>,
    n: usize,
    k: usize,
) -> Result<Vec<i8>> {
    zip_windows(n, k, a, b, BIT_NIL, |x, y| {
        Ok(num_cmp(x, y).map_or(BIT_NIL, |ord| cmp_holds(op, ord) as i8))
    })
}

/// [`typed_cmp`] once the right operand's cell type is resolved too.
fn typed_cmp_rhs<A: Num>(
    op: CmpOp,
    a: Side<'_, A>,
    b: NumSide<'_>,
    n: usize,
    k: usize,
) -> Result<Vec<i8>> {
    match b {
        NumSide::Int(b) => typed_cmp(op, a, b, n, k),
        NumSide::Lng(b) => typed_cmp(op, a, b, n, k),
        NumSide::Dbl(b) => typed_cmp(op, a, b, n, k),
    }
}

/// Element-wise comparison, producing a `bit` BAT (nil where either side is
/// nil — three-valued logic).
pub fn cmpop(op: CmpOp, a: Operand<'_>, b: Operand<'_>) -> Result<Bat> {
    cmpop_windows(op, a, b, 1).map(|(out, _)| out)
}

/// [`cmpop`] over `k` windows; returns the window count actually used
/// (1 for the shapes without a typed slice kernel).
pub(crate) fn cmpop_windows(
    op: CmpOp,
    a: Operand<'_>,
    b: Operand<'_>,
    k: usize,
) -> Result<(Bat, usize)> {
    let len = common_len(&a, &b)?;
    if let (Some(x), Some(y)) = (num_side(a), num_side(b)) {
        // The one scalar sentinel that *is* nil: `int` column ⋚ INT_NIL.
        if let (NumSide::Int(Side::Col(_)), NumSide::Int(Side::Scalar(INT_NIL))) = (x, y) {
            return Ok((Bat::from_data(ColumnData::Bit(vec![BIT_NIL; len])), 1));
        }
        let out = match x {
            NumSide::Int(x) => typed_cmp_rhs(op, x, y, len, k),
            NumSide::Lng(x) => typed_cmp_rhs(op, x, y, len, k),
            NumSide::Dbl(x) => typed_cmp_rhs(op, x, y, len, k),
        }?;
        return Ok((Bat::from_data(ColumnData::Bit(out)), k));
    }
    // Generic path: strings, bits, oids, void columns, NULL scalars.
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let (x, y) = (a.value_at(i), b.value_at(i));
        match x.sql_cmp(&y) {
            None => out.push(BIT_NIL),
            Some(ord) => out.push(cmp_holds(op, ord) as i8),
        }
    }
    Ok((Bat::from_data(ColumnData::Bit(out)), 1))
}

#[inline]
fn cmp_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// `CASE` over a `bit` mask (`batcalc.ifthenelse`): `then[i]` where
/// `mask[i]` is true, `otherwise[i]` where it is false or nil (unknown is
/// not true). Either branch may be a column aligned with the mask or a
/// broadcast scalar. The result type is the branches' promoted type — the
/// `then` type when they do not promote, `int` for two NULLs.
///
/// `int`/`lng`/`dbl`/`bit` results whose branches convert without loss
/// run as one slice loop over both branches converted up front; any other
/// shape converts the selected value cell by cell, so a value that does
/// not fit fails only where the mask selects it.
pub fn ifthenelse(mask: &Bat, then: Operand<'_>, otherwise: Operand<'_>) -> Result<Bat> {
    let bits = mask
        .as_bits()
        .ok_or_else(|| GdkError::type_mismatch("ifthenelse mask must be a bit BAT"))?;
    let n = bits.len();
    if [then, otherwise]
        .iter()
        .any(|o| o.len().is_some_and(|l| l != n))
    {
        return Err(GdkError::invalid("ifthenelse branch misaligned with mask"));
    }
    let ty = match (then.scalar_type(), otherwise.scalar_type()) {
        (Some(a), Some(b)) => a.promote(b).unwrap_or(a),
        (Some(a), None) | (None, Some(a)) => a,
        (None, None) => ScalarType::Int,
    };
    // A scalar branch converts to a one-cell column, which `pick` below
    // broadcasts.
    fn column<'b>(o: Operand<'b>, ty: ScalarType) -> Option<Cow<'b, Bat>> {
        match o {
            Operand::Col(b) => b.coerced(ty).ok(),
            Operand::Scalar(v) => Bat::constant(ty, 1, v).ok().map(Cow::Owned),
        }
    }
    if matches!(
        ty,
        ScalarType::Int | ScalarType::Lng | ScalarType::Dbl | ScalarType::Bit
    ) {
        if let (Some(t), Some(e)) = (column(then, ty), column(otherwise, ty)) {
            fn pick<T: Copy>(mask: &[i8], t: &[T], e: &[T]) -> Vec<T> {
                let choose = |m: i8, x: T, y: T| if m == 1 { x } else { y };
                match (t, e) {
                    (&[x], &[y]) => mask.iter().map(|&m| choose(m, x, y)).collect(),
                    (&[x], e) => mask.iter().zip(e).map(|(&m, &y)| choose(m, x, y)).collect(),
                    (t, &[y]) => mask.iter().zip(t).map(|(&m, &x)| choose(m, x, y)).collect(),
                    (t, e) => mask
                        .iter()
                        .zip(t.iter().zip(e))
                        .map(|(&m, (&x, &y))| choose(m, x, y))
                        .collect(),
                }
            }
            let data = match (t.data(), e.data()) {
                (ColumnData::Int(t), ColumnData::Int(e)) => ColumnData::Int(pick(bits, t, e)),
                (ColumnData::Lng(t), ColumnData::Lng(e)) => ColumnData::Lng(pick(bits, t, e)),
                (ColumnData::Dbl(t), ColumnData::Dbl(e)) => ColumnData::Dbl(pick(bits, t, e)),
                (ColumnData::Bit(t), ColumnData::Bit(e)) => ColumnData::Bit(pick(bits, t, e)),
                _ => unreachable!("both branches converted to {ty}"),
            };
            return Ok(Bat::from_data(data));
        }
    }
    let mut out = Bat::with_capacity(ty, n);
    for (i, &m) in bits.iter().enumerate() {
        let branch = if m == 1 { then } else { otherwise };
        out.push(&branch.value_at(i))?;
    }
    Ok(out)
}

/// Three-valued AND of two bit BATs.
pub fn and(a: &Bat, b: &Bat) -> Result<Bat> {
    bool_op(a, b, |x, y| match (x, y) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    })
}

/// Three-valued OR of two bit BATs.
pub fn or(a: &Bat, b: &Bat) -> Result<Bat> {
    bool_op(a, b, |x, y| match (x, y) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    })
}

fn bool_op(
    a: &Bat,
    b: &Bat,
    f: impl Fn(Option<bool>, Option<bool>) -> Option<bool>,
) -> Result<Bat> {
    let (av, bv) = match (a.as_bits(), b.as_bits()) {
        (Some(x), Some(y)) => (x, y),
        _ => return Err(GdkError::type_mismatch("boolean op expects bit BATs")),
    };
    if av.len() != bv.len() {
        return Err(GdkError::invalid("boolean op on misaligned columns"));
    }
    let to_opt = |x: i8| {
        if x == BIT_NIL {
            None
        } else {
            Some(x != 0)
        }
    };
    let out: Vec<i8> = av
        .iter()
        .zip(bv)
        .map(|(&x, &y)| match f(to_opt(x), to_opt(y)) {
            None => BIT_NIL,
            Some(b) => b as i8,
        })
        .collect();
    Ok(Bat::from_data(ColumnData::Bit(out)))
}

/// Three-valued NOT.
pub fn not(a: &Bat) -> Result<Bat> {
    let av = a
        .as_bits()
        .ok_or_else(|| GdkError::type_mismatch("NOT expects a bit BAT"))?;
    Ok(Bat::from_data(ColumnData::Bit(
        av.iter()
            .map(|&x| if x == BIT_NIL { BIT_NIL } else { 1 - x })
            .collect(),
    )))
}

/// `IS NULL` as a bit BAT (never nil itself).
pub fn isnull(a: &Bat) -> Bat {
    Bat::from_data(ColumnData::Bit(
        (0..a.len()).map(|i| a.is_nil_at(i) as i8).collect(),
    ))
}

/// Unary numeric negation.
pub fn neg(a: &Bat) -> Result<Bat> {
    match a.data() {
        ColumnData::Int(v) => {
            let mut out = Vec::with_capacity(v.len());
            for &x in v {
                if x == INT_NIL {
                    out.push(INT_NIL);
                } else {
                    out.push(
                        x.checked_neg()
                            .filter(|&r| r != INT_NIL)
                            .ok_or_else(|| GdkError::arithmetic("int overflow"))?,
                    );
                }
            }
            Ok(Bat::from_ints(out))
        }
        ColumnData::Lng(v) => {
            let mut out = Vec::with_capacity(v.len());
            for &x in v {
                if x == LNG_NIL {
                    out.push(LNG_NIL);
                } else {
                    out.push(
                        x.checked_neg()
                            .filter(|&r| r != LNG_NIL)
                            .ok_or_else(|| GdkError::arithmetic("lng overflow"))?,
                    );
                }
            }
            Ok(Bat::from_lngs(out))
        }
        ColumnData::Dbl(v) => Ok(Bat::from_dbls(v.iter().map(|&x| -x).collect())),
        _ => Err(GdkError::type_mismatch("negation on non-numeric column")),
    }
}

/// Absolute value.
pub fn abs(a: &Bat) -> Result<Bat> {
    match a.data() {
        ColumnData::Int(v) => {
            let mut out = Vec::with_capacity(v.len());
            for &x in v {
                if x == INT_NIL {
                    out.push(INT_NIL);
                } else {
                    out.push(
                        x.checked_abs()
                            .ok_or_else(|| GdkError::arithmetic("int overflow"))?,
                    );
                }
            }
            Ok(Bat::from_ints(out))
        }
        ColumnData::Lng(v) => {
            let mut out = Vec::with_capacity(v.len());
            for &x in v {
                if x == LNG_NIL {
                    out.push(LNG_NIL);
                } else {
                    out.push(
                        x.checked_abs()
                            .ok_or_else(|| GdkError::arithmetic("lng overflow"))?,
                    );
                }
            }
            Ok(Bat::from_lngs(out))
        }
        ColumnData::Dbl(v) => Ok(Bat::from_dbls(v.iter().map(|&x| x.abs()).collect())),
        _ => Err(GdkError::type_mismatch("abs on non-numeric column")),
    }
}

/// Cast a whole column to another type.
pub fn cast_bat(a: &Bat, to: ScalarType) -> Result<Bat> {
    if a.tail_type() == to && !a.is_dense() {
        return Ok(a.clone());
    }
    // Int→Dbl fast path.
    if let (ColumnData::Int(v), ScalarType::Dbl) = (a.data(), to) {
        return Ok(Bat::from_dbls(
            v.iter()
                .map(|&x| if x == INT_NIL { dbl_nil() } else { x as f64 })
                .collect(),
        ));
    }
    // Dbl→Int fast path (rounding).
    if let (ColumnData::Dbl(v), ScalarType::Int) = (a.data(), to) {
        let mut out = Vec::with_capacity(v.len());
        for &x in v {
            if is_dbl_nil(x) {
                out.push(INT_NIL);
            } else {
                let r = x.round();
                if r < i32::MIN as f64 + 1.0 || r > i32::MAX as f64 {
                    return Err(GdkError::arithmetic("cast out of int range"));
                }
                out.push(r as i32);
            }
        }
        return Ok(Bat::from_ints(out));
    }
    let mut out = Bat::with_capacity(to, a.len());
    for i in 0..a.len() {
        let v = a.get(i);
        let c = v
            .cast(to)
            .ok_or_else(|| GdkError::type_mismatch(format!("cannot cast {v} to {to}")))?;
        out.push(&c)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_col_scalar_ops() {
        let a = Bat::from_ints(vec![1, 2, 3]);
        let r = binop(
            BinOp::Add,
            Operand::Col(&a),
            Operand::Scalar(&Value::Int(10)),
        )
        .unwrap();
        assert_eq!(r.as_ints().unwrap(), &[11, 12, 13]);
        let r = binop(
            BinOp::Sub,
            Operand::Scalar(&Value::Int(10)),
            Operand::Col(&a),
        )
        .unwrap();
        assert_eq!(r.as_ints().unwrap(), &[9, 8, 7]);
        let r = binop(
            BinOp::Mod,
            Operand::Col(&a),
            Operand::Scalar(&Value::Int(2)),
        )
        .unwrap();
        assert_eq!(r.as_ints().unwrap(), &[1, 0, 1]);
    }

    #[test]
    fn col_col_with_nils() {
        let a = Bat::from_opt_ints(vec![Some(4), None, Some(6)]);
        let b = Bat::from_ints(vec![2, 2, 2]);
        let r = binop(BinOp::Div, Operand::Col(&a), Operand::Col(&b)).unwrap();
        assert_eq!(
            r.to_values(),
            vec![Value::Int(2), Value::Null, Value::Int(3)]
        );
    }

    #[test]
    fn promotion_to_dbl() {
        let a = Bat::from_ints(vec![1, 3]);
        let r = binop(
            BinOp::Div,
            Operand::Col(&a),
            Operand::Scalar(&Value::Dbl(2.0)),
        )
        .unwrap();
        assert_eq!(r.as_dbls().unwrap(), &[0.5, 1.5]);
    }

    #[test]
    fn int_division_truncates() {
        let a = Bat::from_ints(vec![7]);
        let r = binop(
            BinOp::Div,
            Operand::Col(&a),
            Operand::Scalar(&Value::Int(2)),
        )
        .unwrap();
        assert_eq!(r.as_ints().unwrap(), &[3]);
    }

    #[test]
    fn division_by_zero_errors() {
        let a = Bat::from_ints(vec![1]);
        assert!(binop(
            BinOp::Div,
            Operand::Col(&a),
            Operand::Scalar(&Value::Int(0))
        )
        .is_err());
        assert!(scalar_binop(BinOp::Mod, &Value::Dbl(1.0), &Value::Dbl(0.0)).is_err());
    }

    #[test]
    fn overflow_detected() {
        let a = Bat::from_ints(vec![i32::MAX]);
        assert!(binop(
            BinOp::Add,
            Operand::Col(&a),
            Operand::Scalar(&Value::Int(1))
        )
        .is_err());
    }

    #[test]
    fn null_scalar_operand_gives_all_nil() {
        let a = Bat::from_ints(vec![1, 2]);
        let r = binop(BinOp::Add, Operand::Col(&a), Operand::Scalar(&Value::Null)).unwrap();
        assert!(r.iter_values().all(|v| v.is_null()));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn comparisons_three_valued() {
        let a = Bat::from_opt_ints(vec![Some(1), None, Some(3)]);
        let r = cmpop(CmpOp::Lt, Operand::Col(&a), Operand::Scalar(&Value::Int(2))).unwrap();
        assert_eq!(
            r.to_values(),
            vec![Value::Bit(true), Value::Null, Value::Bit(false)]
        );
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
    }

    #[test]
    fn boolean_logic_tables() {
        let t = Bat::from_bits(vec![Some(true), Some(true), Some(false), None]);
        let u = Bat::from_bits(vec![Some(true), Some(false), Some(false), Some(false)]);
        assert_eq!(
            and(&t, &u).unwrap().to_values(),
            vec![
                Value::Bit(true),
                Value::Bit(false),
                Value::Bit(false),
                Value::Bit(false) // nil AND false = false
            ]
        );
        assert_eq!(
            or(&t, &u).unwrap().to_values(),
            vec![
                Value::Bit(true),
                Value::Bit(true),
                Value::Bit(false),
                Value::Null // nil OR false = nil
            ]
        );
        assert_eq!(
            not(&t).unwrap().to_values(),
            vec![
                Value::Bit(false),
                Value::Bit(false),
                Value::Bit(true),
                Value::Null
            ]
        );
    }

    #[test]
    fn isnull_mask() {
        let a = Bat::from_opt_ints(vec![Some(1), None]);
        assert_eq!(
            isnull(&a).to_values(),
            vec![Value::Bit(false), Value::Bit(true)]
        );
    }

    #[test]
    fn neg_abs() {
        let a = Bat::from_opt_ints(vec![Some(-3), Some(4), None]);
        assert_eq!(
            neg(&a).unwrap().to_values(),
            vec![Value::Int(3), Value::Int(-4), Value::Null]
        );
        assert_eq!(
            abs(&a).unwrap().to_values(),
            vec![Value::Int(3), Value::Int(4), Value::Null]
        );
        let d = Bat::from_dbls(vec![-1.5]);
        assert_eq!(neg(&d).unwrap().as_dbls().unwrap(), &[1.5]);
    }

    #[test]
    fn casts() {
        let a = Bat::from_opt_ints(vec![Some(2), None]);
        let d = cast_bat(&a, ScalarType::Dbl).unwrap();
        assert_eq!(d.get(0), Value::Dbl(2.0));
        assert_eq!(d.get(1), Value::Null);
        let back = cast_bat(&d, ScalarType::Int).unwrap();
        assert_eq!(back.to_values(), a.to_values());
        let s = cast_bat(&a, ScalarType::Str).unwrap();
        assert_eq!(s.get(0), Value::Str("2".into()));
    }

    #[test]
    fn misaligned_columns_error() {
        let a = Bat::from_ints(vec![1]);
        let b = Bat::from_ints(vec![1, 2]);
        assert!(binop(BinOp::Add, Operand::Col(&a), Operand::Col(&b)).is_err());
        assert!(and(&Bat::from_bits(vec![Some(true)]), &Bat::from_bits(vec![])).is_err());
    }

    #[test]
    fn dense_operand() {
        let v = Bat::dense(0, 4); // oids 0..4 promote to lng
        let r = binop(
            BinOp::Mul,
            Operand::Col(&v),
            Operand::Scalar(&Value::Int(3)),
        )
        .unwrap();
        assert_eq!(r.tail_type(), ScalarType::Lng);
        assert_eq!(r.as_lngs().unwrap(), &[0, 3, 6, 9]);
    }
}
