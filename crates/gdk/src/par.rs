//! Slice-parallel kernel driver.
//!
//! This module knows how to cut an input domain into windows and how to
//! put window results back together; it knows nothing about cells. Nil,
//! overflow, promotion and tie-break rules live in the serial kernel
//! modules and nowhere else. Every entry point is
//!
//! ```text
//! split [0, n) into k windows  →  serial kernel per window  →  merge in window order
//! ```
//!
//! with one of three merge shapes:
//!
//! * **map** (`map_windows`) — the output length is known up front, so
//!   each window writes its own disjoint `&mut` slice of one output
//!   vector (element-wise arithmetic and comparison, projection);
//! * **concat** (`concat_windows`) — each window returns the values it
//!   kept and the parts are appended in window order (selection, fused
//!   select→project);
//! * **ordered reduce** (`reduce_windows`) — each window folds into its
//!   own mergeable state and the states are merged left to right
//!   (aggregates; grouping merges window-local group ids with
//!   `merge_groups`).
//!
//! Windows are near-equal and contiguous (`chunk_ranges`), window 0 runs
//! on the calling thread and the rest on scoped threads. Because windows are processed and merged in input order — and an error
//! surfaces from the earliest failing window — results and errors are
//! identical to a serial left-to-right scan (`tests/kernel_properties.rs`
//! pins this down across thread counts). A kernel whose operand types
//! must be resolved before it can run (`arith`, `project`, `group`,
//! `aggregate`, `fused`) has a crate-private `*_windows(…, k)` form that
//! calls a driver with the window count; its public serial form is that
//! same code with `k = 1`.
//!
//! Inputs shorter than [`ParConfig::parallel_threshold`] run as one
//! window, as does any shape a kernel cannot merge exactly — float
//! `SUM`/`AVG` stay serial because float addition is not associative —
//! and any selection over a column with a [`crate::bat::Shape`], which
//! reads no cell.
//! Each wrapper reports the window count actually used so the MAL
//! interpreter can record per-instruction parallelism in its `ExecStats`.

use crate::aggregate::{self, AggFunc};
use crate::arith::{self, BinOp, CmpOp, Operand};
use crate::bat::{Bat, ColumnData};
use crate::candidates::Candidates;
use crate::group::{Groups, KeyMap, LocalGroups};
use crate::select;
use crate::types::Oid;
use crate::value::Value;
use crate::{fused, group, Result};
use std::ops::Range;

/// Parallel execution configuration, threaded down from the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Maximum worker threads per kernel invocation. `0` or `1` disables
    /// parallelism.
    pub threads: usize,
    /// Minimum input length before a kernel goes parallel; shorter inputs
    /// run the serial path (thread spawn costs more than the scan).
    pub parallel_threshold: usize,
    /// Consult per-tile zone maps to skip non-matching tiles in range and
    /// theta selections (see [`crate::zonemap`]). Results are identical
    /// either way; disable to pin down differential behaviour.
    pub zone_skip: bool,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            parallel_threshold: 64 * 1024,
            zone_skip: true,
        }
    }
}

impl ParConfig {
    /// A config that always runs serially.
    pub fn serial() -> Self {
        ParConfig {
            threads: 1,
            parallel_threshold: usize::MAX,
            zone_skip: true,
        }
    }

    /// `threads` workers with the default threshold.
    pub fn with_threads(threads: usize) -> Self {
        ParConfig {
            threads: threads.max(1),
            ..ParConfig::default()
        }
    }

    /// Number of workers a kernel over `n` tuples will use.
    pub fn threads_for(&self, n: usize) -> usize {
        if self.threads <= 1 || n < self.parallel_threshold.max(2) {
            1
        } else {
            self.threads.min(n)
        }
    }
}

// ---------------------------------------------------------------------
// The three window drivers
// ---------------------------------------------------------------------

/// Split `[0, n)` into `k` near-equal contiguous ranges (the leading
/// `n % k` ranges are one element longer). `k` is clamped to `[1, n]`
/// except when `n == 0`, which yields a single empty range.
// The `vec![0..0]` below really is a one-element vector holding an empty
// range, not a mistaken attempt to collect a range's elements.
#[allow(clippy::single_range_in_vec_init)]
fn chunk_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return vec![0..0];
    }
    let k = k.clamp(1, n);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `f` on each item, item 0 on the calling thread and every other on
/// its own scoped thread, and collect the results in item order.
fn scatter<I: Send, R: Send>(items: Vec<I>, f: impl Fn(I) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let first = items.next().expect("at least one window");
    if items.len() == 0 {
        return vec![f(first)];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for h in handles {
            out.push(h.join().expect("parallel kernel worker panicked"));
        }
        out
    })
}

/// Map shape: `f(window, out)` fills the window's slice of one `n`-long
/// output. The earliest failing window's error wins, as in a serial scan.
pub(crate) fn map_windows<O: Copy + Default + Send>(
    n: usize,
    k: usize,
    f: impl Fn(Range<usize>, &mut [O]) -> Result<()> + Sync,
) -> Result<Vec<O>> {
    map_units(n, 1, k, f)
}

/// Map shape over `units` units of `width` output cells each: `f(units,
/// out)` fills the cells of a window of whole units.
fn map_units<O: Copy + Default + Send>(
    units: usize,
    width: usize,
    k: usize,
    f: impl Fn(Range<usize>, &mut [O]) -> Result<()> + Sync,
) -> Result<Vec<O>> {
    let mut out = vec![O::default(); units * width];
    let mut rest = out.as_mut_slice();
    let mut windows = Vec::new();
    for r in chunk_ranges(units, k) {
        let (head, tail) = rest.split_at_mut(r.len() * width);
        windows.push((r, head));
        rest = tail;
    }
    scatter(windows, |(r, w)| f(r, w))
        .into_iter()
        .collect::<Result<()>>()?;
    Ok(out)
}

/// Concat shape: `f(window)` returns what the window kept; the parts are
/// appended in window order.
pub(crate) fn concat_windows<T: Send>(
    n: usize,
    k: usize,
    f: impl Fn(Range<usize>) -> Result<Vec<T>> + Sync,
) -> Result<Vec<T>> {
    let mut parts = scatter(chunk_ranges(n, k), f).into_iter();
    let mut out = parts.next().expect("at least one window")?;
    for p in parts {
        out.append(&mut p?);
    }
    Ok(out)
}

/// Ordered-reduce shape: every window folds into its own copy of `empty`
/// and the states are merged left to right. A window that fails still
/// hands back what it folded before the failing row: the result is the
/// merged state up to and including the first failing window plus that
/// window's error, so the caller can tell whether a failure of its own
/// (an overflowing running sum) came first.
pub(crate) fn reduce_windows<S: Clone + Send>(
    n: usize,
    k: usize,
    empty: S,
    fold: impl Fn(&mut S, Range<usize>) -> Result<()> + Sync,
    mut merge: impl FnMut(&mut S, S),
) -> (S, Result<()>) {
    let ranges = chunk_ranges(n, k);
    let states = vec![empty; ranges.len()];
    let mut parts = scatter(ranges.into_iter().zip(states).collect(), |(r, mut s)| {
        let status = fold(&mut s, r);
        (s, status)
    })
    .into_iter();
    let (mut acc, mut status) = parts.next().expect("at least one window");
    for (s, st) in parts {
        if status.is_err() {
            break;
        }
        merge(&mut acc, s);
        status = st;
    }
    (acc, status)
}

/// Renumber window-local groupings into one global grouping.
///
/// Global ids are assigned in first-occurrence order: windows are visited
/// in input order and window-local ids are already ordered by first
/// occurrence, so the assignment order equals a serial scan's.
fn merge_groups(mut locals: Vec<LocalGroups>, n: usize) -> Groups {
    if locals.len() == 1 {
        let only = locals.pop().expect("one window");
        return Groups {
            ngroups: only.firsts.len() as u64,
            extents: only.firsts,
            ids: only.ids,
        };
    }
    let mut global = KeyMap::default();
    let mut extents: Vec<Oid> = Vec::new();
    let mut ids = Vec::with_capacity(n);
    for local in locals {
        let mut mapping = Vec::with_capacity(local.keys.len());
        for (key, first) in local.keys.into_iter().zip(local.firsts) {
            let next = extents.len() as u64;
            let g = *global.entry(key).or_insert(next);
            if g == next {
                extents.push(first);
            }
            mapping.push(g);
        }
        ids.extend(local.ids.iter().map(|&lid| mapping[lid as usize]));
    }
    Groups {
        ngroups: extents.len() as u64,
        extents,
        ids,
    }
}

/// Window-local groupings of `[0, n)` over `k` windows, merged.
pub(crate) fn group_windows(
    n: usize,
    k: usize,
    local: impl Fn(Range<usize>) -> LocalGroups + Sync,
) -> Groups {
    merge_groups(scatter(chunk_ranges(n, k), local), n)
}

// ---------------------------------------------------------------------
// Per-kernel wrappers: pick the window count, report it back
// ---------------------------------------------------------------------

/// Window `r` of a selection domain as a candidate list.
fn window_cands(cand: Option<&Candidates>, r: Range<usize>) -> Candidates {
    match cand {
        Some(c) => c.slice(r),
        None => Candidates::Dense {
            first: r.start as Oid,
            len: r.len(),
        },
    }
}

/// Parallel [`select::rangeselect`]: each window runs the serial kernel
/// restricted to its sub-candidates, and the (already sorted) window
/// results concatenate.
#[allow(clippy::too_many_arguments)]
pub fn rangeselect(
    b: &Bat,
    cand: Option<&Candidates>,
    lo: &Value,
    hi: &Value,
    li: bool,
    hi_incl: bool,
    anti: bool,
    cfg: &ParConfig,
) -> Result<(Candidates, usize)> {
    // A column with a shape is answered by arithmetic: nothing to split.
    if let Some(hits) = select::shape_select(b, cand, lo, hi, li, hi_incl, anti) {
        return Ok((hits, 1));
    }
    let n = cand.map_or(b.len(), Candidates::len);
    let k = cfg.threads_for(n);
    if k == 1 {
        return Ok((select::rangeselect(b, cand, lo, hi, li, hi_incl, anti)?, 1));
    }
    let oids = concat_windows(n, k, |r| {
        let sub = window_cands(cand, r);
        Ok(select::rangeselect(b, Some(&sub), lo, hi, li, hi_incl, anti)?.to_vec())
    })?;
    Ok((Candidates::from_sorted(oids), k))
}

/// Parallel [`select::thetaselect`].
pub fn thetaselect(
    b: &Bat,
    cand: Option<&Candidates>,
    val: &Value,
    op: CmpOp,
    cfg: &ParConfig,
) -> Result<(Candidates, usize)> {
    if val.is_null() {
        return Ok((Candidates::none(), 1));
    }
    let (lo, hi, li, hi_incl, anti) = select::theta_bounds(val, op);
    rangeselect(b, cand, &lo, &hi, li, hi_incl, anti, cfg)
}

/// Parallel [`crate::project::project`].
pub fn project(cand: &Candidates, b: &Bat, cfg: &ParConfig) -> Result<(Bat, usize)> {
    let k = cfg.threads_for(cand.len());
    Ok((crate::project::project_windows(cand, b, k)?, k))
}

/// Parallel [`arith::binop`]; shapes without a typed slice kernel run as
/// one window.
pub fn binop(op: BinOp, a: Operand<'_>, b: Operand<'_>, cfg: &ParConfig) -> Result<(Bat, usize)> {
    let k = cfg.threads_for(arith::common_len(&a, &b)?);
    arith::binop_windows(op, a, b, k)
}

/// Parallel [`arith::cmpop`]; shapes without a typed slice kernel run as
/// one window.
pub fn cmpop(op: CmpOp, a: Operand<'_>, b: Operand<'_>, cfg: &ParConfig) -> Result<(Bat, usize)> {
    let k = cfg.threads_for(arith::common_len(&a, &b)?);
    arith::cmpop_windows(op, a, b, k)
}

/// Parallel [`crate::group::group_by`].
pub fn group_by(
    b: &Bat,
    cand: Option<&Candidates>,
    prev: Option<&Groups>,
    cfg: &ParConfig,
) -> Result<(Groups, usize)> {
    let k = cfg.threads_for(cand.map_or(b.len(), Candidates::len));
    Ok((group::group_by_windows(b, cand, prev, k)?, k))
}

/// Parallel [`aggregate::grouped`]; aggregates without an exact merge
/// (see [`aggregate`]) run as one window.
pub fn grouped(
    func: AggFunc,
    vals: &Bat,
    groups: &Groups,
    cfg: &ParConfig,
) -> Result<(Bat, usize)> {
    aggregate::grouped_windows(func, vals, groups, cfg.threads_for(groups.ids.len()))
}

/// Parallel [`aggregate::scalar`].
pub fn scalar(func: AggFunc, vals: &Bat, cfg: &ParConfig) -> Result<(Value, usize)> {
    aggregate::scalar_windows(func, vals, cfg.threads_for(vals.len()))
}

/// Map shape for a kernel outside this crate whose output cells come in
/// rows that must not be split (the MAL `array.tileagg`, which walks
/// each run along an array's innermost dimension): `f(rows, out)` fills
/// the `rows.len() * row_len` cells of whole rows `rows`. Returns the
/// output and the window count used.
pub fn map_rows<O: Copy + Default + Send>(
    rows: usize,
    row_len: usize,
    cfg: &ParConfig,
    f: impl Fn(Range<usize>, &mut [O]) -> Result<()> + Sync,
) -> Result<(Vec<O>, usize)> {
    let k = cfg.threads_for(rows * row_len).min(rows.max(1));
    Ok((map_units(rows, row_len, k, f)?, k))
}

/// Parallel [`fused::theta_select_project`].
pub fn theta_select_project(
    b: &Bat,
    cand: Option<&Candidates>,
    val: &Value,
    op: CmpOp,
    payload: &Bat,
    cfg: &ParConfig,
) -> Result<(Bat, usize)> {
    let k = cfg.threads_for(cand.map_or(b.len(), Candidates::len));
    fused::theta_select_project_windows(b, cand, val, op, payload, k)
}

/// Parallel [`fused::theta_select_aggregate`]. Returns
/// `(value, threads, selected)`.
pub fn theta_select_aggregate(
    func: AggFunc,
    payload: &Bat,
    b: &Bat,
    cand: Option<&Candidates>,
    val: &Value,
    op: CmpOp,
    cfg: &ParConfig,
) -> Result<(Value, usize, usize)> {
    let k = cfg.threads_for(cand.map_or(b.len(), Candidates::len));
    let (v, selected, k) =
        fused::theta_select_aggregate_windows(func, payload, b, cand, val, op, k)?;
    Ok((v, k, selected))
}

/// Parallel [`fused::project_aggregate`] (candidate-propagated scalar
/// aggregate).
pub fn project_aggregate(
    func: AggFunc,
    payload: &Bat,
    cand: &Candidates,
    cfg: &ParConfig,
) -> Result<(Value, usize)> {
    fused::project_aggregate_windows(func, payload, cand, cfg.threads_for(cand.len()))
}

// Compile-time proof that the shared-nothing driver may move these
// across threads.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Bat>();
    _assert_send_sync::<ColumnData>();
    _assert_send_sync::<crate::strheap::StrHeap>();
    _assert_send_sync::<Candidates>();
    _assert_send_sync::<Groups>();
    _assert_send_sync::<Value>();
    _assert_send_sync::<ParConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GdkError;

    fn force(k: usize) -> ParConfig {
        ParConfig {
            threads: k,
            parallel_threshold: 1,
            zone_skip: true,
        }
    }

    #[test]
    fn threads_for_respects_threshold() {
        let cfg = ParConfig {
            threads: 8,
            parallel_threshold: 100,
            zone_skip: true,
        };
        assert_eq!(cfg.threads_for(99), 1);
        assert_eq!(cfg.threads_for(100), 8);
        assert_eq!(ParConfig::serial().threads_for(1 << 20), 1);
        assert_eq!(ParConfig::with_threads(4).threads, 4);
    }

    #[test]
    fn chunking() {
        assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(chunk_ranges(2, 8), vec![0..1, 1..2]);
        assert_eq!(chunk_ranges(0, 4), vec![0..0]);
        let total: usize = chunk_ranges(1_000_003, 8).iter().map(|r| r.len()).sum();
        assert_eq!(total, 1_000_003);
    }

    #[test]
    fn map_fills_disjoint_windows_and_reports_the_earliest_error() {
        let out = map_windows(10, 3, |r, w: &mut [usize]| {
            for (slot, i) in w.iter_mut().zip(r) {
                *slot = i * i;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        let err = map_windows(10, 5, |r, _: &mut [u8]| {
            if r.start >= 4 {
                Err(GdkError::invalid(format!("window at {}", r.start)))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, GdkError::invalid("window at 4"));
        assert_eq!(map_windows(0, 4, |_, _: &mut [u8]| Ok(())).unwrap(), vec![]);
    }

    #[test]
    fn concat_appends_in_window_order() {
        let odd = concat_windows(11, 4, |r| Ok(r.filter(|i| i % 2 == 1).collect())).unwrap();
        assert_eq!(odd, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn reduce_stops_at_the_first_failing_window() {
        let fold = |fail_from: usize| {
            move |seen: &mut Vec<usize>, r: Range<usize>| {
                for i in r {
                    if i >= fail_from {
                        return Err(GdkError::invalid(format!("row {i}")));
                    }
                    seen.push(i);
                }
                Ok(())
            }
        };
        let merge = |a: &mut Vec<usize>, mut b: Vec<usize>| a.append(&mut b);
        let (seen, status) = reduce_windows(12, 4, Vec::new(), fold(usize::MAX), merge);
        assert_eq!((seen, status), ((0..12).collect(), Ok(())));
        // Rows 7.. fail: windows [6,9) and [9,12) both do, the earlier wins
        // and nothing after its failing row is merged.
        let (seen, status) = reduce_windows(12, 4, Vec::new(), fold(7), merge);
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
        assert_eq!(status, Err(GdkError::invalid("row 7")));
    }

    /// Every wrapper reports the window count it used; shapes a kernel
    /// cannot split or merge exactly report 1.
    #[test]
    fn wrappers_report_windows_used() {
        let ints = Bat::from_opt_ints((0..600).map(|i| (i % 7 != 0).then_some(i % 50)).collect());
        let strs = Bat::from_strs((0..600).map(|i| Some(format!("s{}", i % 17))).collect());
        let three = Value::Int(3);
        let cand = Candidates::from_vec((0..600).step_by(3).collect());
        let cfg = force(4);
        assert_eq!(
            thetaselect(&ints, None, &three, CmpOp::Ge, &cfg).unwrap().1,
            4
        );
        assert_eq!(project(&cand, &strs, &cfg).unwrap().1, 4);
        assert_eq!(group_by(&strs, None, None, &cfg).unwrap().1, 4);
        let (col, by) = (Operand::Col(&ints), Operand::Scalar(&three));
        assert_eq!(binop(BinOp::Mul, col, by, &cfg).unwrap().1, 4);
        assert_eq!(cmpop(CmpOp::Lt, by, col, &cfg).unwrap().1, 4);
        // No typed slice kernel for strings: one window.
        let s = Value::Str("s3".into());
        assert_eq!(
            cmpop(CmpOp::Eq, Operand::Col(&strs), Operand::Scalar(&s), &cfg)
                .unwrap()
                .1,
            1
        );
        let (p, k) = theta_select_project(&ints, None, &three, CmpOp::Gt, &strs, &cfg).unwrap();
        assert_eq!(
            (p.len(), k),
            (
                ints.to_values()
                    .iter()
                    .filter(|v| v.as_i64() > Some(3))
                    .count(),
                4
            )
        );
        let g = group::group_by(&ints, None, None).unwrap();
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            // AVG stays serial for float determinism.
            let want = if func == AggFunc::Avg { 1 } else { 4 };
            assert_eq!(grouped(func, &ints, &g, &cfg).unwrap().1, want, "{func:?}");
            assert_eq!(scalar(func, &ints, &cfg).unwrap().1, want, "{func:?}");
            assert_eq!(
                project_aggregate(func, &ints, &cand, &cfg).unwrap().1,
                want,
                "{func:?}"
            );
            let (_, k, _) =
                theta_select_aggregate(func, &ints, &ints, None, &three, CmpOp::Lt, &cfg).unwrap();
            assert_eq!(k, want, "{func:?}");
        }
        // Below the threshold everything is one window.
        assert_eq!(
            scalar(AggFunc::Sum, &ints, &ParConfig::with_threads(4))
                .unwrap()
                .1,
            1
        );
    }
}
