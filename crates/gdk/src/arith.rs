//! Element-wise arithmetic, comparison and boolean logic (`batcalc`).
//!
//! All operators propagate nil: any nil operand yields a nil result
//! (three-valued logic for the boolean operators). Numeric promotion
//! follows [`crate::types::ScalarType::promote`]; integer overflow and
//! division by zero raise [`crate::GdkError::Arithmetic`], as MonetDB does.

use crate::bat::{Bat, ColumnData};
use crate::strheap::STR_NIL_IDX;
use crate::types::{is_dbl_nil, ScalarType, BIT_NIL, INT_NIL, LNG_NIL, OID_NIL};
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
/// path and by the expression interpreter for constants). An integral
/// result equal to its type's nil sentinel is an overflow, as in the
/// column kernels: the sentinel is never a value.
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
                    .ok()
                    .filter(|&r| r != INT_NIL)
                    .map(Value::Int)
                    .ok_or_else(|| GdkError::arithmetic("int overflow"))
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
    .filter(|&r| r != LNG_NIL)
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
//
// One monomorphised loop per (operator, cell type, operand shape). A loop
// has no branch, no `Result` and no `Value` per cell: it computes every
// row (wrapping), selects the nil where a column cell is nil and ORs a
// per-row "out of range" flag over the non-nil rows. A window whose flag
// is set replays the same cell function to find its first failing row
// and raises that row's error, so errors are the ones a checked serial
// scan raises.

/// Cell type of the typed slice kernels (`int`, `lng`, `dbl`).
trait Num: Copy + Default + PartialOrd + Send + Sync {
    /// The in-band nil.
    const NIL: Self;
    /// The error of an out-of-range result.
    const OVERFLOW: &'static str;
    fn is_nil(self) -> bool;
    /// Does a comparison with this cell have no answer (a NaN)?
    fn unordered(self) -> bool;
    // The cell functions: the wrapped result and whether it is out of
    // range — overflowed, equal to the nil, or divided by zero.
    fn add(x: Self, y: Self) -> (Self, bool);
    fn sub(x: Self, y: Self) -> (Self, bool);
    fn mul(x: Self, y: Self) -> (Self, bool);
    fn div(x: Self, y: Self) -> (Self, bool);
    fn rem(x: Self, y: Self) -> (Self, bool);
    fn into_bat(v: Vec<Self>) -> Bat;
}

/// Integral addition and subtraction: the wrapped result, which
/// overflowed when it has the wrong sign (a form the loop vectorises).
macro_rules! int_adds {
    ($t:ty) => {
        #[inline]
        fn add(x: $t, y: $t) -> ($t, bool) {
            let r = x.wrapping_add(y);
            (r, (((x ^ r) & (y ^ r)) < 0) | (r == Self::NIL))
        }
        #[inline]
        fn sub(x: $t, y: $t) -> ($t, bool) {
            let r = x.wrapping_sub(y);
            (r, (((x ^ y) & (x ^ r)) < 0) | (r == Self::NIL))
        }
    };
}

/// Integral division and remainder: a zero divisor is replaced by 1 so
/// the row computes something, and flagged.
macro_rules! int_divs {
    ($t:ty) => {
        #[inline]
        fn div(x: $t, y: $t) -> ($t, bool) {
            let (r, o) = x.overflowing_div(if y == 0 { 1 } else { y });
            (r, (y == 0) | o | (r == Self::NIL))
        }
        #[inline]
        fn rem(x: $t, y: $t) -> ($t, bool) {
            let (r, o) = x.overflowing_rem(if y == 0 { 1 } else { y });
            (r, (y == 0) | o | (r == Self::NIL))
        }
    };
}

impl Num for i32 {
    const NIL: i32 = INT_NIL;
    const OVERFLOW: &'static str = "int overflow";
    #[inline]
    fn is_nil(self) -> bool {
        self == INT_NIL
    }
    #[inline]
    fn unordered(self) -> bool {
        false
    }
    int_adds!(i32);
    #[inline]
    fn mul(x: i32, y: i32) -> (i32, bool) {
        let r = i64::from(x) * i64::from(y);
        (
            r as i32,
            (r <= i64::from(INT_NIL)) | (r > i64::from(i32::MAX)),
        )
    }
    int_divs!(i32);
    fn into_bat(v: Vec<i32>) -> Bat {
        Bat::from_ints(v)
    }
}

impl Num for i64 {
    const NIL: i64 = LNG_NIL;
    const OVERFLOW: &'static str = "integer overflow";
    #[inline]
    fn is_nil(self) -> bool {
        self == LNG_NIL
    }
    #[inline]
    fn unordered(self) -> bool {
        false
    }
    int_adds!(i64);
    #[inline]
    fn mul(x: i64, y: i64) -> (i64, bool) {
        let (r, o) = x.overflowing_mul(y);
        (r, o | (r == LNG_NIL))
    }
    int_divs!(i64);
    fn into_bat(v: Vec<i64>) -> Bat {
        Bat::from_lngs(v)
    }
}

impl Num for f64 {
    const NIL: f64 = f64::NAN;
    /// Never raised: the `dbl` cell functions flag only zero divisors.
    const OVERFLOW: &'static str = "dbl overflow";
    #[inline]
    fn is_nil(self) -> bool {
        is_dbl_nil(self)
    }
    #[inline]
    fn unordered(self) -> bool {
        self.is_nan()
    }
    #[inline]
    fn add(x: f64, y: f64) -> (f64, bool) {
        (x + y, false)
    }
    #[inline]
    fn sub(x: f64, y: f64) -> (f64, bool) {
        (x - y, false)
    }
    #[inline]
    fn mul(x: f64, y: f64) -> (f64, bool) {
        (x * y, false)
    }
    #[inline]
    fn div(x: f64, y: f64) -> (f64, bool) {
        (x / y, y == 0.0)
    }
    #[inline]
    fn rem(x: f64, y: f64) -> (f64, bool) {
        (x % y, y == 0.0)
    }
    fn into_bat(v: Vec<f64>) -> Bat {
        Bat::from_dbls(v)
    }
}

/// A cell type that widens into `T` for a mixed-width kernel: the value
/// promotion of [`scalar_binop`] and [`Value::sql_cmp`]. A nil is read on
/// the narrow side, before widening.
trait Lift<T>: Num {
    fn lift(self) -> T;
}

macro_rules! lifts {
    ($($from:ty => $to:ty),*) => {$(
        impl Lift<$to> for $from {
            #[inline]
            fn lift(self) -> $to {
                self as $to
            }
        }
    )*};
}
lifts!(i32 => i32, i32 => i64, i32 => f64, i64 => i64, i64 => f64, f64 => f64);

/// One operand of a typed slice kernel. Only column cells carry in-band
/// nils: a scalar is a number even when it equals the sentinel
/// (`Value::Dbl(NaN)` and `Value::Lng(i64::MIN)` are not SQL NULL).
#[derive(Clone, Copy)]
enum Side<'a, T> {
    Col(&'a [T]),
    Scalar(T),
}

impl<T: Num> Side<'_, T> {
    fn window(self, r: &Range<usize>) -> Self {
        match self {
            Side::Col(v) => Side::Col(&v[r.clone()]),
            scalar => scalar,
        }
    }
    /// Row `i` and whether it is nil.
    fn at(self, i: usize) -> (T, bool) {
        match self {
            Side::Col(v) => (v[i], v[i].is_nil()),
            Side::Scalar(x) => (x, false),
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

/// A kernel over two numeric operands, run at their promoted cell type.
trait PairKernel {
    type Out;
    fn run<A: Lift<T>, B: Lift<T>, T: Num>(self, a: Side<'_, A>, b: Side<'_, B>) -> Self::Out;
}

/// Run `kernel` at the promoted type of `a` and `b`: `int` with `int`,
/// `lng` with `int` or `lng`, `dbl` with anything.
fn promoted<K: PairKernel>(kernel: K, a: NumSide<'_>, b: NumSide<'_>) -> K::Out {
    use NumSide::{Dbl, Int, Lng};
    match (a, b) {
        (Int(a), Int(b)) => kernel.run::<_, _, i32>(a, b),
        (Int(a), Lng(b)) => kernel.run::<_, _, i64>(a, b),
        (Lng(a), Int(b)) => kernel.run::<_, _, i64>(a, b),
        (Lng(a), Lng(b)) => kernel.run::<_, _, i64>(a, b),
        (Int(a), Dbl(b)) => kernel.run::<_, _, f64>(a, b),
        (Lng(a), Dbl(b)) => kernel.run::<_, _, f64>(a, b),
        (Dbl(a), Int(b)) => kernel.run::<_, _, f64>(a, b),
        (Dbl(a), Lng(b)) => kernel.run::<_, _, f64>(a, b),
        (Dbl(a), Dbl(b)) => kernel.run::<_, _, f64>(a, b),
    }
}

/// The slice loop of every element-wise kernel: `cell(out[i], nil, x, y)`
/// per row, where `nil` says a column cell of the row is nil. One loop
/// per operand shape, so a scalar is lifted once.
#[inline]
fn zip_rows<A: Lift<T>, B: Lift<T>, T: Num, O>(
    a: Side<'_, A>,
    b: Side<'_, B>,
    out: &mut [O],
    mut cell: impl FnMut(&mut O, bool, T, T),
) {
    match (a, b) {
        (Side::Col(xs), Side::Col(ys)) => {
            for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                cell(o, x.is_nil() | y.is_nil(), x.lift(), y.lift());
            }
        }
        (Side::Col(xs), Side::Scalar(y)) => {
            let y = y.lift();
            for (o, &x) in out.iter_mut().zip(xs) {
                cell(o, x.is_nil(), x.lift(), y);
            }
        }
        (Side::Scalar(x), Side::Col(ys)) => {
            let x = x.lift();
            for (o, &y) in out.iter_mut().zip(ys) {
                cell(o, y.is_nil(), x, y.lift());
            }
        }
        (Side::Scalar(_), Side::Scalar(_)) => {
            unreachable!("element-wise kernels take at least one column")
        }
    }
}

/// Arithmetic over `k` windows of one fresh `n`-long output.
struct Arith {
    op: BinOp,
    n: usize,
    k: usize,
}

impl PairKernel for Arith {
    type Out = Result<Bat>;
    fn run<A: Lift<T>, B: Lift<T>, T: Num>(self, a: Side<'_, A>, b: Side<'_, B>) -> Result<Bat> {
        let Arith { op, n, k } = self;
        let out = match op {
            BinOp::Add => arith_windows(op, a, b, n, k, T::add),
            BinOp::Sub => arith_windows(op, a, b, n, k, T::sub),
            BinOp::Mul => arith_windows(op, a, b, n, k, T::mul),
            BinOp::Div => arith_windows(op, a, b, n, k, T::div),
            BinOp::Mod => arith_windows(op, a, b, n, k, T::rem),
        }?;
        Ok(T::into_bat(out))
    }
}

fn arith_windows<A: Lift<T>, B: Lift<T>, T: Num>(
    op: BinOp,
    a: Side<'_, A>,
    b: Side<'_, B>,
    n: usize,
    k: usize,
    f: impl Fn(T, T) -> (T, bool) + Copy + Sync,
) -> Result<Vec<T>> {
    crate::par::map_windows(n, k, |r, out| {
        let (a, b) = (a.window(&r), b.window(&r));
        let mut bad = false;
        zip_rows(a, b, out, |o, nil, x, y| {
            let (v, e) = f(x, y);
            bad |= !nil & e;
            *o = if nil { T::NIL } else { v };
        });
        if bad {
            return Err(first_error(op, a, b, out.len(), f));
        }
        Ok(())
    })
}

/// The error of the first non-nil row `f` flags in a window: a zero
/// divisor if that row has one, an overflow otherwise. Runs only once a
/// window has failed.
fn first_error<A: Lift<T>, B: Lift<T>, T: Num>(
    op: BinOp,
    a: Side<'_, A>,
    b: Side<'_, B>,
    len: usize,
    f: impl Fn(T, T) -> (T, bool),
) -> GdkError {
    let divisor = (0..len)
        .find_map(|i| {
            let ((x, xn), (y, yn)) = (a.at(i), b.at(i));
            let (x, y) = (x.lift(), y.lift());
            (!xn && !yn && f(x, y).1).then_some(y)
        })
        .expect("a flagged window has a failing row");
    GdkError::arithmetic(match op {
        BinOp::Div if divisor == T::default() => "division by zero",
        BinOp::Mod if divisor == T::default() => "modulo by zero",
        _ => T::OVERFLOW,
    })
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

    if let (Some(x), Some(y)) = (num_side(a), num_side(b)) {
        // The one scalar sentinel that *is* nil: `int` ⊕ INT_NIL.
        if let (NumSide::Int(_), NumSide::Int(Side::Scalar(INT_NIL)))
        | (NumSide::Int(Side::Scalar(INT_NIL)), NumSide::Int(_)) = (x, y)
        {
            return Ok((Bat::from_ints(vec![INT_NIL; len]), 1));
        }
        return Ok((promoted(Arith { op, n: len, k }, x, y)?, k));
    }

    // Generic path: oid and void operands.
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

/// Comparison over `k` windows of one fresh `n`-long `bit` output.
struct Compare {
    op: CmpOp,
    n: usize,
    k: usize,
}

impl PairKernel for Compare {
    type Out = Vec<i8>;
    fn run<A: Lift<T>, B: Lift<T>, T: Num>(self, a: Side<'_, A>, b: Side<'_, B>) -> Vec<i8> {
        let Compare { op, n, k } = self;
        match op {
            CmpOp::Eq => cmp_windows(a, b, n, k, |x: T, y: T| x == y),
            CmpOp::Ne => cmp_windows(a, b, n, k, |x: T, y: T| x != y),
            CmpOp::Lt => cmp_windows(a, b, n, k, |x: T, y: T| x < y),
            CmpOp::Le => cmp_windows(a, b, n, k, |x: T, y: T| x <= y),
            CmpOp::Gt => cmp_windows(a, b, n, k, |x: T, y: T| x > y),
            CmpOp::Ge => cmp_windows(a, b, n, k, |x: T, y: T| x >= y),
        }
    }
}

/// `out[i] = holds(x, y)`, nil where a column cell is nil or a `dbl` is
/// NaN. Agrees with [`Value::sql_cmp`]: integral pairs compare exactly,
/// anything involving a `dbl` as `f64`.
fn cmp_windows<A: Lift<T>, B: Lift<T>, T: Num>(
    a: Side<'_, A>,
    b: Side<'_, B>,
    n: usize,
    k: usize,
    holds: impl Fn(T, T) -> bool + Sync,
) -> Vec<i8> {
    let out = crate::par::map_windows(n, k, |r, out| {
        zip_rows(a.window(&r), b.window(&r), out, |o, nil, x, y| {
            let nil = nil | x.unordered() | y.unordered();
            *o = if nil { BIT_NIL } else { holds(x, y) as i8 };
        });
        Ok(())
    });
    out.expect("comparisons cannot fail")
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
        let out = promoted(Compare { op, n: len, k }, x, y);
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

/// Is this `bit` cell true (not false, not nil)?
#[inline]
fn is_true(x: i8) -> bool {
    (x != 0) & (x != BIT_NIL)
}

/// Three-valued AND of two bit BATs.
pub fn and(a: &Bat, b: &Bat) -> Result<Bat> {
    bool_op(a, b, |x, y| {
        if (x == 0) | (y == 0) {
            0
        } else if (x == BIT_NIL) | (y == BIT_NIL) {
            BIT_NIL
        } else {
            1
        }
    })
}

/// Three-valued OR of two bit BATs.
pub fn or(a: &Bat, b: &Bat) -> Result<Bat> {
    bool_op(a, b, |x, y| {
        if is_true(x) | is_true(y) {
            1
        } else if (x == BIT_NIL) | (y == BIT_NIL) {
            BIT_NIL
        } else {
            0
        }
    })
}

fn bool_op(a: &Bat, b: &Bat, f: impl Fn(i8, i8) -> i8) -> Result<Bat> {
    let (av, bv) = match (a.as_bits(), b.as_bits()) {
        (Some(x), Some(y)) => (x, y),
        _ => return Err(GdkError::type_mismatch("boolean op expects bit BATs")),
    };
    if av.len() != bv.len() {
        return Err(GdkError::invalid("boolean op on misaligned columns"));
    }
    let out = av.iter().zip(bv).map(|(&x, &y)| f(x, y)).collect();
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
    fn mask<T: Copy + PartialEq>(v: &[T], nil: T) -> Vec<i8> {
        v.iter().map(|&x| i8::from(x == nil)).collect()
    }
    let out = match a.data() {
        ColumnData::Void { len, .. } => vec![0; *len],
        ColumnData::Bit(v) => mask(v, BIT_NIL),
        ColumnData::Int(v) => mask(v, INT_NIL),
        ColumnData::Lng(v) => mask(v, LNG_NIL),
        ColumnData::Dbl(v) => v.iter().map(|&x| i8::from(is_dbl_nil(x))).collect(),
        ColumnData::Oid(v) => mask(v, OID_NIL),
        ColumnData::Str { idx, .. } => mask(idx, STR_NIL_IDX),
    };
    Bat::from_data(ColumnData::Bit(out))
}

/// Unary numeric negation. It cannot overflow: the one integer whose
/// negation does not fit is the nil, which wraps to itself.
pub fn neg(a: &Bat) -> Result<Bat> {
    match a.data() {
        ColumnData::Int(v) => Ok(Bat::from_ints(v.iter().map(|x| x.wrapping_neg()).collect())),
        ColumnData::Lng(v) => Ok(Bat::from_lngs(v.iter().map(|x| x.wrapping_neg()).collect())),
        ColumnData::Dbl(v) => Ok(Bat::from_dbls(v.iter().map(|&x| -x).collect())),
        _ => Err(GdkError::type_mismatch("negation on non-numeric column")),
    }
}

/// Absolute value; like [`neg`], it cannot overflow.
pub fn abs(a: &Bat) -> Result<Bat> {
    match a.data() {
        ColumnData::Int(v) => Ok(Bat::from_ints(v.iter().map(|x| x.wrapping_abs()).collect())),
        ColumnData::Lng(v) => Ok(Bat::from_lngs(v.iter().map(|x| x.wrapping_abs()).collect())),
        ColumnData::Dbl(v) => Ok(Bat::from_dbls(v.iter().map(|&x| x.abs()).collect())),
        _ => Err(GdkError::type_mismatch("abs on non-numeric column")),
    }
}

/// Cast a whole column to another type, every cell as [`Value::cast`]
/// casts it (the typed loops of [`Bat::coerced`]). The first cell that
/// does not convert names itself in the error; a `dbl` out of `int` range
/// raises "cast out of int range".
pub fn cast_bat(a: &Bat, to: ScalarType) -> Result<Bat> {
    a.coerced(to).map(Cow::into_owned).map_err(|row| {
        if (a.tail_type(), to) == (ScalarType::Dbl, ScalarType::Int) {
            GdkError::arithmetic("cast out of int range")
        } else {
            GdkError::type_mismatch(format!("cannot cast {} to {to}", a.get(row)))
        }
    })
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
