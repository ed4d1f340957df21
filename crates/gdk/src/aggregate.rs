//! Grouped and scalar aggregation.
//!
//! SQL semantics throughout: nils are skipped; an all-nil (or empty) group
//! aggregates to NULL, except COUNT which yields 0. This is the behaviour
//! the paper leans on for tiling: "holes and cells outside the array
//! dimension ranges are ignored by the aggregation functions" (Fig 1(e)).

use crate::bat::Bat;
use crate::group::Groups;
use crate::types::{dbl_nil, ScalarType, LNG_NIL};
use crate::value::Value;
use crate::{GdkError, Result};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(v)` — non-nil count (`COUNT(*)` is compiled as COUNT over a
    /// nil-free column).
    Count,
    /// `SUM(v)`; int sums widen to lng, dbl stays dbl.
    Sum,
    /// `AVG(v)`; always dbl.
    Avg,
    /// `MIN(v)`; input type preserved.
    Min,
    /// `MAX(v)`; input type preserved.
    Max,
}

impl AggFunc {
    /// Parse an aggregate function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }

    /// Result type given the input type.
    pub fn result_type(self, input: ScalarType) -> Result<ScalarType> {
        Ok(match self {
            AggFunc::Count => ScalarType::Lng,
            AggFunc::Avg => {
                if !input.is_numeric() {
                    return Err(GdkError::type_mismatch("AVG requires a numeric input"));
                }
                ScalarType::Dbl
            }
            AggFunc::Sum => match input {
                ScalarType::Int | ScalarType::Lng => ScalarType::Lng,
                ScalarType::Dbl => ScalarType::Dbl,
                _ => return Err(GdkError::type_mismatch("SUM requires a numeric input")),
            },
            AggFunc::Min | AggFunc::Max => input,
        })
    }
}

/// Running integral `SUM` of one group over one window of rows: the
/// window's total plus the extrema of its running prefix, in `i128` so the
/// window arithmetic itself cannot overflow. A serial scan `checked_add`s
/// an `i64` in row order and fails at the first prefix outside `i64`;
/// carrying the extrema through [`AggState::merge`] lets the check happen
/// once, at the end, with exactly that outcome.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LngSum {
    sum: i128,
    /// Smallest / largest value the running sum took (0 before any row).
    lo: i128,
    hi: i128,
    seen: bool,
}

impl LngSum {
    #[inline]
    pub(crate) fn add(&mut self, x: i64) {
        self.sum += x as i128;
        self.lo = self.lo.min(self.sum);
        self.hi = self.hi.max(self.sum);
        self.seen = true;
    }
}

/// Per-group state of the one aggregate `func` computes over `input`.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    /// `COUNT`: non-nil rows.
    Count(Vec<i64>),
    /// `SUM` over `int`/`lng` (widens to `lng`, checked).
    LngSum(Vec<LngSum>),
    /// `SUM` over `dbl` and every `AVG`: float sum and non-nil count.
    DblSum(Vec<(f64, u64)>),
    /// `MIN`/`MAX`: best value so far, NULL before the first.
    Best(Vec<Value>),
}

/// The one aggregate state: `ngroups` groups of `func` over an `input`
/// column. Rows are pushed in scan order ([`with_agg_push!`]), states of
/// consecutive windows [`merge`](AggState::merge) left to right, and
/// [`finish`](AggState::finish) yields one tuple per group. The serial
/// kernels use one window; [`crate::par`] uses `k`.
#[derive(Debug, Clone)]
pub(crate) struct AggState {
    pub(crate) func: AggFunc,
    input: ScalarType,
    pub(crate) acc: Acc,
}

impl AggState {
    /// Empty state; rejects non-numeric `SUM`/`AVG` inputs up front.
    pub(crate) fn new(func: AggFunc, input: ScalarType, ngroups: usize) -> Result<Self> {
        let acc = match (func, func.result_type(input)?) {
            (AggFunc::Count, _) => Acc::Count(vec![0; ngroups]),
            (AggFunc::Sum, ScalarType::Lng) => Acc::LngSum(vec![LngSum::default(); ngroups]),
            (AggFunc::Sum | AggFunc::Avg, _) => Acc::DblSum(vec![(0.0, 0); ngroups]),
            (AggFunc::Min | AggFunc::Max, _) => Acc::Best(vec![Value::Null; ngroups]),
        };
        Ok(AggState { func, input, acc })
    }

    /// Can states of consecutive windows be merged with bit-identical
    /// results? Float addition is not associative, so float `SUM` and
    /// `AVG` must see every row in one window.
    pub(crate) fn mergeable(&self) -> bool {
        !matches!(self.acc, Acc::DblSum(_))
    }

    /// Fold in the state of the rows that directly follow this state's.
    pub(crate) fn merge(&mut self, later: AggState) {
        match (&mut self.acc, later.acc) {
            (Acc::Count(a), Acc::Count(b)) => {
                for (a, b) in a.iter_mut().zip(b) {
                    *a += b;
                }
            }
            (Acc::LngSum(a), Acc::LngSum(b)) => {
                for (a, b) in a.iter_mut().zip(b) {
                    a.lo = a.lo.min(a.sum + b.lo);
                    a.hi = a.hi.max(a.sum + b.hi);
                    a.sum += b.sum;
                    a.seen |= b.seen;
                }
            }
            (Acc::Best(a), Acc::Best(b)) => {
                for (a, b) in a.iter_mut().zip(b) {
                    if !b.is_null() && replaces(self.func, a, &b) {
                        *a = b;
                    }
                }
            }
            _ => unreachable!("merge of unmergeable or mismatched aggregate states"),
        }
    }

    /// One tuple per group, in group-id order: NULL for an empty or
    /// all-nil group, except `COUNT` which yields 0. `status` is how the
    /// scan that fed this state ended; a `SUM` whose running prefix left
    /// `i64` before the scan failed reports the overflow, as a serial scan
    /// would have stopped there first.
    pub(crate) fn finish(self, status: Result<()>) -> Result<Bat> {
        let out_of_i64 = |s: &LngSum| s.lo < i64::MIN as i128 || s.hi > i64::MAX as i128;
        if matches!(&self.acc, Acc::LngSum(sums) if sums.iter().any(out_of_i64)) {
            return Err(GdkError::arithmetic("SUM overflow"));
        }
        status?;
        let avg = self.func == AggFunc::Avg;
        Ok(match self.acc {
            Acc::Count(counts) => Bat::from_lngs(counts),
            Acc::LngSum(sums) => Bat::from_lngs(
                sums.iter()
                    .map(|s| if s.seen { s.sum as i64 } else { LNG_NIL })
                    .collect(),
            ),
            Acc::DblSum(sums) => Bat::from_dbls(
                sums.iter()
                    .map(|&(sum, n)| match n {
                        0 => dbl_nil(),
                        _ if avg => sum / n as f64,
                        _ => sum,
                    })
                    .collect(),
            ),
            Acc::Best(best) => Bat::from_values(self.input, &best)?,
        })
    }
}

/// `MIN`/`MAX` replacement rule: strictly better, first wins ties.
pub(crate) fn replaces(func: AggFunc, slot: &Value, candidate: &Value) -> bool {
    match slot.sql_cmp(candidate) {
        None => true, // slot still NULL
        Some(ord) if func == AggFunc::Min => ord == std::cmp::Ordering::Greater,
        Some(ord) => ord == std::cmp::Ordering::Less,
    }
}

/// Bind `$push` to a concrete `FnMut(group, pos)` that folds `vals[pos]`
/// into group `group` of `$state`, and evaluate `$body` with it — one
/// monomorphized copy of the body per state/column shape, so the scan
/// loop around it has no per-row dispatch. Pushing never fails: the
/// integral `SUM` check is deferred to [`AggState::finish`].
macro_rules! with_agg_push {
    ($state:expr, $vals:expr, |$push:ident| $body:expr) => {{
        let state: &mut $crate::aggregate::AggState = $state;
        let vals: &$crate::bat::Bat = $vals;
        let func = state.func;
        match (&mut state.acc, vals.data()) {
            ($crate::aggregate::Acc::Count(counts), _) => {
                let mut $push = |g: usize, pos: usize| {
                    if !vals.is_nil_at(pos) {
                        counts[g] += 1;
                    }
                };
                $body
            }
            ($crate::aggregate::Acc::LngSum(sums), $crate::bat::ColumnData::Int(v)) => {
                let mut $push = |g: usize, pos: usize| {
                    if v[pos] != $crate::types::INT_NIL {
                        sums[g].add(v[pos] as i64);
                    }
                };
                $body
            }
            ($crate::aggregate::Acc::LngSum(sums), $crate::bat::ColumnData::Lng(v)) => {
                let mut $push = |g: usize, pos: usize| {
                    if v[pos] != $crate::types::LNG_NIL {
                        sums[g].add(v[pos]);
                    }
                };
                $body
            }
            ($crate::aggregate::Acc::LngSum(_), _) => {
                unreachable!("integral SUM state over a non-integral column")
            }
            ($crate::aggregate::Acc::DblSum(sums), _) => {
                let mut $push = |g: usize, pos: usize| {
                    if let Some(x) = vals.get(pos).as_f64() {
                        sums[g].0 += x;
                        sums[g].1 += 1;
                    }
                };
                $body
            }
            ($crate::aggregate::Acc::Best(best), _) => {
                let mut $push = |g: usize, pos: usize| {
                    let v = vals.get(pos);
                    if !v.is_null() && $crate::aggregate::replaces(func, &best[g], &v) {
                        best[g] = v;
                    }
                };
                $body
            }
        }
    }};
}
pub(crate) use with_agg_push;

/// Grouped aggregation: `vals` must be aligned with `groups.ids` (i.e. the
/// caller already projected values through the same candidate list). The
/// result has one tuple per group, in group-id order.
pub fn grouped(func: AggFunc, vals: &Bat, groups: &Groups) -> Result<Bat> {
    grouped_windows(func, vals, groups, 1).map(|(out, _)| out)
}

/// [`grouped`] over `k` windows of rows; returns the window count used.
pub(crate) fn grouped_windows(
    func: AggFunc,
    vals: &Bat,
    groups: &Groups,
    k: usize,
) -> Result<(Bat, usize)> {
    if vals.len() != groups.ids.len() {
        return Err(GdkError::invalid(format!(
            "aggregate: {} values vs {} group ids",
            vals.len(),
            groups.ids.len()
        )));
    }
    fold_windows(func, vals, groups.ngroups as usize, k, |i| {
        groups.ids[i] as usize
    })
}

/// Ungrouped (scalar) aggregate over a whole BAT.
pub fn scalar(func: AggFunc, vals: &Bat) -> Result<Value> {
    scalar_windows(func, vals, 1).map(|(v, _)| v)
}

/// [`scalar`] over `k` windows of rows; returns the window count used.
pub(crate) fn scalar_windows(func: AggFunc, vals: &Bat, k: usize) -> Result<(Value, usize)> {
    let (out, k) = fold_windows(func, vals, 1, k, |_| 0)?;
    Ok((out.get(0), k))
}

/// Aggregate every row of `vals` into group `group_of(row)`.
fn fold_windows(
    func: AggFunc,
    vals: &Bat,
    ngroups: usize,
    k: usize,
    group_of: impl Fn(usize) -> usize + Sync,
) -> Result<(Bat, usize)> {
    let empty = AggState::new(func, vals.tail_type(), ngroups)?;
    let k = if empty.mergeable() { k } else { 1 };
    let (state, status) = crate::par::reduce_windows(
        vals.len(),
        k,
        empty,
        |state, rows| {
            with_agg_push!(state, vals, |push| for i in rows {
                push(group_of(i), i);
            });
            Ok(())
        },
        AggState::merge,
    );
    Ok((state.finish(status)?, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_by;

    fn setup() -> (Bat, Groups) {
        // groups by key: [a a b b b] with values [1 nil 2 4 nil]
        let keys = Bat::from_strs(vec![Some("a"), Some("a"), Some("b"), Some("b"), Some("b")]);
        let vals = Bat::from_opt_ints(vec![Some(1), None, Some(2), Some(4), None]);
        let g = group_by(&keys, None, None).unwrap();
        (vals, g)
    }

    #[test]
    fn count_skips_nils() {
        let (vals, g) = setup();
        let c = grouped(AggFunc::Count, &vals, &g).unwrap();
        assert_eq!(c.as_lngs().unwrap(), &[1, 2]);
    }

    #[test]
    fn sum_widens_to_lng() {
        let (vals, g) = setup();
        let s = grouped(AggFunc::Sum, &vals, &g).unwrap();
        assert_eq!(s.tail_type(), ScalarType::Lng);
        assert_eq!(s.as_lngs().unwrap(), &[1, 6]);
    }

    #[test]
    fn avg_is_dbl_and_ignores_nils() {
        let (vals, g) = setup();
        let a = grouped(AggFunc::Avg, &vals, &g).unwrap();
        assert_eq!(a.to_values(), vec![Value::Dbl(1.0), Value::Dbl(3.0)]);
    }

    #[test]
    fn min_max_preserve_type() {
        let (vals, g) = setup();
        let mn = grouped(AggFunc::Min, &vals, &g).unwrap();
        let mx = grouped(AggFunc::Max, &vals, &g).unwrap();
        assert_eq!(mn.to_values(), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(mx.to_values(), vec![Value::Int(1), Value::Int(4)]);
    }

    #[test]
    fn all_nil_group_is_null_but_count_zero() {
        let keys = Bat::from_ints(vec![1, 2]);
        let vals = Bat::from_opt_ints(vec![Some(5), None]);
        let g = group_by(&keys, None, None).unwrap();
        assert_eq!(
            grouped(AggFunc::Sum, &vals, &g).unwrap().to_values(),
            vec![Value::Lng(5), Value::Null]
        );
        assert_eq!(
            grouped(AggFunc::Count, &vals, &g).unwrap().to_values(),
            vec![Value::Lng(1), Value::Lng(0)]
        );
        assert_eq!(
            grouped(AggFunc::Avg, &vals, &g).unwrap().to_values(),
            vec![Value::Dbl(5.0), Value::Null]
        );
    }

    #[test]
    fn scalar_aggregates() {
        let vals = Bat::from_opt_ints(vec![Some(3), None, Some(7)]);
        assert_eq!(scalar(AggFunc::Sum, &vals).unwrap(), Value::Lng(10));
        assert_eq!(scalar(AggFunc::Count, &vals).unwrap(), Value::Lng(2));
        assert_eq!(scalar(AggFunc::Avg, &vals).unwrap(), Value::Dbl(5.0));
        assert_eq!(scalar(AggFunc::Min, &vals).unwrap(), Value::Int(3));
        let empty = Bat::from_ints(vec![]);
        assert_eq!(scalar(AggFunc::Max, &empty).unwrap(), Value::Null);
        assert_eq!(scalar(AggFunc::Count, &empty).unwrap(), Value::Lng(0));
    }

    #[test]
    fn dbl_sum() {
        let vals = Bat::from_dbls(vec![1.5, 2.5]);
        assert_eq!(scalar(AggFunc::Sum, &vals).unwrap(), Value::Dbl(4.0));
    }

    #[test]
    fn misaligned_inputs_error() {
        let (_, g) = setup();
        let short = Bat::from_ints(vec![1]);
        assert!(grouped(AggFunc::Sum, &short, &g).is_err());
    }

    #[test]
    fn string_min_max() {
        let keys = Bat::from_ints(vec![1, 1]);
        let vals = Bat::from_strs(vec![Some("b"), Some("a")]);
        let g = group_by(&keys, None, None).unwrap();
        assert_eq!(
            grouped(AggFunc::Min, &vals, &g).unwrap().get(0),
            Value::Str("a".into())
        );
        assert!(grouped(AggFunc::Sum, &vals, &g).is_err());
    }

    #[test]
    fn names_parse() {
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
