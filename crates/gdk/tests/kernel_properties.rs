//! Property-based tests of the column-kernel invariants.

use gdk::arith::{self, BinOp, CmpOp, Operand};
use gdk::{aggregate, group, join, project, select, sort, Bat, Candidates, Value};
use proptest::prelude::*;

fn opt_ints(max_len: usize) -> impl Strategy<Value = Vec<Option<i32>>> {
    proptest::collection::vec(proptest::option::weighted(0.85, -1000i32..1000), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// thetaselect(=) ∪ thetaselect(≠) = all non-nil positions, disjoint.
    #[test]
    fn select_eq_ne_partition(data in opt_ints(200), needle in -1000i32..1000) {
        let b = Bat::from_opt_ints(data.clone());
        let eq = select::thetaselect(&b, None, &Value::Int(needle), CmpOp::Eq).unwrap();
        let ne = select::thetaselect(&b, None, &Value::Int(needle), CmpOp::Ne).unwrap();
        prop_assert!(eq.intersect(&ne).is_empty());
        let union = eq.union(&ne);
        let non_nil = select::select_non_nil(&b, None);
        prop_assert_eq!(union.to_vec(), non_nil.to_vec());
    }

    /// Range select equals the filter-based definition.
    #[test]
    fn rangeselect_matches_definition(
        data in opt_ints(200),
        lo in -1000i32..1000,
        width in 0i32..500,
    ) {
        let hi = lo.saturating_add(width);
        let b = Bat::from_opt_ints(data.clone());
        let got = select::rangeselect(
            &b, None, &Value::Int(lo), &Value::Int(hi), true, false, false,
        )
        .unwrap();
        let want: Vec<u64> = data
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some_and(|x| x >= lo && x < hi))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got.to_vec(), want);
    }

    /// Projection through a candidate list preserves values.
    #[test]
    fn projection_preserves_values(data in opt_ints(200)) {
        let b = Bat::from_opt_ints(data.clone());
        let every_other: Vec<u64> =
            (0..data.len() as u64).filter(|i| i % 2 == 0).collect();
        let cand = Candidates::from_sorted(every_other.clone());
        let p = project::project(&cand, &b).unwrap();
        prop_assert_eq!(p.len(), every_other.len());
        for (k, &o) in every_other.iter().enumerate() {
            prop_assert_eq!(p.get(k), b.get(o as usize));
        }
    }

    /// Hash join agrees with the nested-loop definition (nil never joins).
    #[test]
    fn hashjoin_matches_nested_loop(l in opt_ints(60), r in opt_ints(60)) {
        let lb = Bat::from_opt_ints(l.clone());
        let rb = Bat::from_opt_ints(r.clone());
        let j = join::hashjoin(&lb, &rb, None, None).unwrap();
        let mut got: Vec<(u64, u64)> =
            j.left.iter().cloned().zip(j.right.iter().cloned()).collect();
        got.sort_unstable();
        let mut want = Vec::new();
        for (i, lv) in l.iter().enumerate() {
            for (k, rv) in r.iter().enumerate() {
                if let (Some(a), Some(b)) = (lv, rv) {
                    if a == b {
                        want.push((i as u64, k as u64));
                    }
                }
            }
        }
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Sorting produces an ordered permutation (nils first).
    #[test]
    fn sort_is_ordered_permutation(data in opt_ints(200)) {
        let b = Bat::from_opt_ints(data.clone());
        let s = sort::sorted(&b).unwrap();
        prop_assert_eq!(s.len(), b.len());
        prop_assert!(sort::is_sorted(&s));
        let mut want = data.clone();
        want.sort_by(|a, b| match (a, b) {
            (None, None) => std::cmp::Ordering::Equal,
            (None, _) => std::cmp::Ordering::Less,
            (_, None) => std::cmp::Ordering::Greater,
            (Some(x), Some(y)) => x.cmp(y),
        });
        let got: Vec<Option<i32>> = s
            .iter_values()
            .map(|v| v.as_i64().map(|x| x as i32))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Grouped sums partition the scalar sum; counts partition the rows.
    #[test]
    fn grouped_aggregates_partition(data in opt_ints(150), modulo in 1i32..7) {
        let keys = Bat::from_ints(
            (0..data.len() as i32).map(|i| i % modulo).collect(),
        );
        let vals = Bat::from_opt_ints(data.clone());
        let g = group::group_by(&keys, None, None).unwrap();
        let sums = aggregate::grouped(aggregate::AggFunc::Sum, &vals, &g).unwrap();
        let counts = aggregate::grouped(aggregate::AggFunc::Count, &vals, &g).unwrap();
        let total_sum: i64 = sums.iter_values().filter_map(|v| v.as_i64()).sum();
        let want_sum: i64 = data.iter().flatten().map(|&v| i64::from(v)).sum();
        let have_any = data.iter().any(Option::is_some);
        if have_any {
            prop_assert_eq!(total_sum, want_sum);
        }
        let total_count: i64 =
            counts.iter_values().filter_map(|v| v.as_i64()).sum();
        prop_assert_eq!(total_count, data.iter().flatten().count() as i64);
    }

    /// Element-wise add/sub round-trips and propagates nil.
    #[test]
    fn arith_roundtrip(data in opt_ints(200), delta in -500i32..500) {
        let b = Bat::from_opt_ints(data.clone());
        let plus = arith::binop(
            BinOp::Add,
            Operand::Col(&b),
            Operand::Scalar(&Value::Int(delta)),
        )
        .unwrap();
        let back = arith::binop(
            BinOp::Sub,
            Operand::Col(&plus),
            Operand::Scalar(&Value::Int(delta)),
        )
        .unwrap();
        prop_assert_eq!(back.to_values(), b.to_values());
        for (i, v) in data.iter().enumerate() {
            prop_assert_eq!(plus.is_nil_at(i), v.is_none());
        }
    }

    /// Candidate set algebra: intersect/union/difference behave like sets.
    #[test]
    fn candidate_set_algebra(
        a in proptest::collection::btree_set(0u64..100, 0..40),
        b in proptest::collection::btree_set(0u64..100, 0..40),
    ) {
        let ca = Candidates::from_sorted(a.iter().cloned().collect());
        let cb = Candidates::from_sorted(b.iter().cloned().collect());
        let inter: Vec<u64> = a.intersection(&b).cloned().collect();
        let uni: Vec<u64> = a.union(&b).cloned().collect();
        let diff: Vec<u64> = a.difference(&b).cloned().collect();
        prop_assert_eq!(ca.intersect(&cb).to_vec(), inter);
        prop_assert_eq!(ca.union(&cb).to_vec(), uni);
        prop_assert_eq!(ca.difference(&cb).to_vec(), diff);
    }

    /// series length × repetitions = total tuples; values stay on-grid.
    #[test]
    fn series_shape(start in -50i64..50, step in 1i64..5, count in 0i64..30,
                    n in 1usize..4, m in 1usize..4) {
        let stop = start + step * count;
        let b = Bat::series(start, step, stop, n, m).unwrap();
        prop_assert_eq!(b.len(), count as usize * n * m);
        for v in b.iter_values() {
            let x = v.as_i64().unwrap();
            prop_assert!((x - start) % step == 0);
            prop_assert!(x >= start && x < stop.max(start));
        }
    }
}

// ---------------------------------------------------------------------
// Differential tests: every parallelized kernel family must produce
// bit-identical results to the serial path, across thread counts and on
// nil-heavy, empty and void-headed inputs.
// ---------------------------------------------------------------------

use gdk::aggregate::AggFunc;
use gdk::par::{self, ParConfig};

/// Thread counts the differential suite sweeps (1 = the parallel driver's
/// own serial path).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn forced(threads: usize) -> ParConfig {
    ParConfig {
        threads,
        parallel_threshold: 1,
        zone_skip: true,
    }
}

/// Nil-heavy columns: ~60% nils.
fn nil_heavy_ints(max_len: usize) -> impl Strategy<Value = Vec<Option<i32>>> {
    proptest::collection::vec(proptest::option::weighted(0.4, -1000i32..1000), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// select: parallel thetaselect ≡ serial on int data for every
    /// comparison operator and thread count.
    #[test]
    fn par_select_matches_serial(data in nil_heavy_ints(300), needle in -1000i32..1000) {
        let b = Bat::from_opt_ints(data);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let serial = select::thetaselect(&b, None, &Value::Int(needle), op).unwrap();
            for t in THREAD_COUNTS {
                let (got, _) =
                    par::thetaselect(&b, None, &Value::Int(needle), op, &forced(t)).unwrap();
                prop_assert_eq!(&got, &serial, "op {:?} threads {}", op, t);
            }
        }
    }

    /// select with an incoming candidate list chunked across threads.
    #[test]
    fn par_select_with_candidates(data in opt_ints(300), lo in -1000i32..0, width in 0i32..900) {
        let b = Bat::from_opt_ints(data.clone());
        let cand = Candidates::from_sorted(
            (0..data.len() as u64).filter(|i| i % 3 != 1).collect(),
        );
        let hi = lo.saturating_add(width);
        let serial = select::rangeselect(
            &b, Some(&cand), &Value::Int(lo), &Value::Int(hi), true, false, false,
        )
        .unwrap();
        for t in THREAD_COUNTS {
            let (got, _) = par::rangeselect(
                &b, Some(&cand), &Value::Int(lo), &Value::Int(hi), true, false, false,
                &forced(t),
            )
            .unwrap();
            prop_assert_eq!(&got, &serial, "threads {}", t);
        }
    }

    /// project: parallel candidate projection ≡ serial, including string
    /// dictionaries and void-headed inputs.
    #[test]
    fn par_project_matches_serial(data in opt_ints(300)) {
        let ints = Bat::from_opt_ints(data.clone());
        let strs = Bat::from_strs(
            data.iter()
                .map(|v| v.map(|x| format!("k{}", x % 13)))
                .collect(),
        );
        let void = Bat::dense(7, data.len());
        let cand = Candidates::from_sorted(
            (0..data.len() as u64).filter(|i| i % 2 == 0).collect(),
        );
        for b in [&ints, &strs, &void] {
            let serial = project::project(&cand, b).unwrap();
            for t in THREAD_COUNTS {
                let (got, _) = par::project(&cand, b, &forced(t)).unwrap();
                prop_assert_eq!(got.to_values(), serial.to_values(), "threads {}", t);
            }
        }
    }

    /// arith: parallel binop/cmpop ≡ serial for col×scalar and col×col
    /// int shapes with nils.
    #[test]
    fn par_arith_matches_serial(
        data in nil_heavy_ints(300),
        other in -500i32..500,
    ) {
        let a = Bat::from_opt_ints(data.clone());
        let b = Bat::from_opt_ints(data.iter().rev().cloned().collect());
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul] {
            let serial = arith::binop(op, Operand::Col(&a), Operand::Scalar(&Value::Int(other)))
                .unwrap();
            for t in THREAD_COUNTS {
                let (got, _) = par::binop(
                    op,
                    Operand::Col(&a),
                    Operand::Scalar(&Value::Int(other)),
                    &forced(t),
                )
                .unwrap();
                prop_assert_eq!(got.to_values(), serial.to_values(), "{:?} threads {}", op, t);
            }
            let serial = arith::binop(op, Operand::Col(&a), Operand::Col(&b)).unwrap();
            for t in THREAD_COUNTS {
                let (got, _) =
                    par::binop(op, Operand::Col(&a), Operand::Col(&b), &forced(t)).unwrap();
                prop_assert_eq!(got.to_values(), serial.to_values(), "{:?} threads {}", op, t);
            }
        }
        for op in [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq] {
            let serial = arith::cmpop(op, Operand::Col(&a), Operand::Scalar(&Value::Int(other)))
                .unwrap();
            for t in THREAD_COUNTS {
                let (got, _) = par::cmpop(
                    op,
                    Operand::Col(&a),
                    Operand::Scalar(&Value::Int(other)),
                    &forced(t),
                )
                .unwrap();
                prop_assert_eq!(got.to_values(), serial.to_values(), "{:?} threads {}", op, t);
            }
        }
    }

    /// dbl arithmetic: nil (NaN) propagation must match serial bit-for-bit.
    #[test]
    fn par_dbl_arith_matches_serial(data in proptest::collection::vec(
        proptest::option::weighted(0.7, -100i32..100), 0..200,
    )) {
        let a = Bat::from_opt_dbls(
            data.iter().map(|v| v.map(|x| x as f64 / 4.0)).collect(),
        );
        let serial = arith::binop(
            BinOp::Mul, Operand::Col(&a), Operand::Scalar(&Value::Dbl(1.5)),
        )
        .unwrap();
        for t in THREAD_COUNTS {
            let (got, _) = par::binop(
                BinOp::Mul, Operand::Col(&a), Operand::Scalar(&Value::Dbl(1.5)), &forced(t),
            )
            .unwrap();
            prop_assert_eq!(got.to_values(), serial.to_values(), "threads {}", t);
        }
    }

    /// group: parallel two-phase grouping produces the exact serial ids,
    /// extents and group count — including refinement of a previous
    /// grouping (multi-column GROUP BY).
    #[test]
    fn par_group_matches_serial(data in nil_heavy_ints(300), modulo in 1i32..8) {
        let b = Bat::from_opt_ints(data.clone());
        let serial = group::group_by(&b, None, None).unwrap();
        for t in THREAD_COUNTS {
            let (got, _) = par::group_by(&b, None, None, &forced(t)).unwrap();
            prop_assert_eq!(&got, &serial, "threads {}", t);
        }
        // Refinement: group a second column under the first grouping.
        let second = Bat::from_ints((0..data.len() as i32).map(|i| i % modulo).collect());
        let refined_serial = group::group_by(&second, None, Some(&serial)).unwrap();
        for t in THREAD_COUNTS {
            let (got, _) = par::group_by(&second, None, Some(&serial), &forced(t)).unwrap();
            prop_assert_eq!(&got, &refined_serial, "refined threads {}", t);
        }
    }

    /// aggregate: COUNT / SUM / MIN / MAX grouped and scalar parallel
    /// paths ≡ serial (AVG is serial by design and must still agree).
    #[test]
    fn par_aggregate_matches_serial(data in nil_heavy_ints(300), modulo in 1i32..8) {
        let vals = Bat::from_opt_ints(data.clone());
        let keys = Bat::from_ints((0..data.len() as i32).map(|i| i % modulo).collect());
        let g = group::group_by(&keys, None, None).unwrap();
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            let serial = aggregate::grouped(func, &vals, &g).unwrap();
            for t in THREAD_COUNTS {
                let (got, _) = par::grouped(func, &vals, &g, &forced(t)).unwrap();
                prop_assert_eq!(
                    got.to_values(), serial.to_values(), "{:?} threads {}", func, t
                );
            }
            let serial_scalar = aggregate::scalar(func, &vals).unwrap();
            for t in THREAD_COUNTS {
                let (got, _) = par::scalar(func, &vals, &forced(t)).unwrap();
                prop_assert_eq!(&got, &serial_scalar, "{:?} threads {}", func, t);
            }
        }
    }
}

/// Fixed edge cases the random sweeps may miss: empty inputs, all-nil
/// columns, and void-headed (virtual oid) BATs through every family.
#[test]
fn par_edge_cases_match_serial() {
    let empty = Bat::from_ints(vec![]);
    let all_nil = Bat::from_opt_ints(vec![None; 64]);
    let void = Bat::dense(5, 64);
    for t in THREAD_COUNTS {
        let cfg = forced(t);
        for b in [&empty, &all_nil, &void] {
            // select
            let serial = select::thetaselect(b, None, &Value::Lng(10), CmpOp::Ge).unwrap();
            let (got, _) = par::thetaselect(b, None, &Value::Lng(10), CmpOp::Ge, &cfg).unwrap();
            assert_eq!(got, serial, "select threads {t}");
            // project
            let cand = Candidates::from_sorted((0..b.len() as u64).collect());
            let serial = project::project(&cand, b).unwrap();
            let (got, _) = par::project(&cand, b, &cfg).unwrap();
            assert_eq!(got.to_values(), serial.to_values(), "project threads {t}");
            // group
            let serial = group::group_by(b, None, None).unwrap();
            let (got, _) = par::group_by(b, None, None, &cfg).unwrap();
            assert_eq!(got, serial, "group threads {t}");
            // aggregate (scalar over the whole column)
            for func in [AggFunc::Count, AggFunc::Min, AggFunc::Max] {
                let serial = aggregate::scalar(func, b).unwrap();
                let (got, _) = par::scalar(func, b, &cfg).unwrap();
                assert_eq!(got, serial, "{func:?} threads {t}");
            }
        }
        // arith on the all-nil column (empty handled by zero-length fill)
        for b in [&empty, &all_nil] {
            let serial =
                arith::binop(BinOp::Add, Operand::Col(b), Operand::Scalar(&Value::Int(1))).unwrap();
            let (got, _) = par::binop(
                BinOp::Add,
                Operand::Col(b),
                Operand::Scalar(&Value::Int(1)),
                &cfg,
            )
            .unwrap();
            assert_eq!(got.to_values(), serial.to_values(), "arith threads {t}");
        }
    }
}

/// Scalar nil-sentinel asymmetry: the serial int-column × int-scalar
/// fast path treats `INT_NIL` as nil on both sides, while the generic
/// path compares scalar sentinels (`Value::Int(INT_NIL)`,
/// `Value::Lng(i64::MIN)`) numerically. The parallel driver must
/// reproduce both behaviours exactly.
#[test]
fn par_cmp_scalar_sentinels_match_serial() {
    use gdk::types::{INT_NIL, LNG_NIL};
    let int_col = Bat::from_opt_ints((0..200).map(|i| (i % 5 != 0).then_some(i - 100)).collect());
    let lng_col = Bat::from_lngs((0..200).map(|i| i as i64 - 100).collect());
    let cases: [(&Bat, Value); 4] = [
        (&int_col, Value::Int(INT_NIL)), // fast path: all-nil mask
        (&lng_col, Value::Int(INT_NIL)), // generic: numeric -2^31
        (&lng_col, Value::Lng(LNG_NIL)), // generic: numeric -2^63
        (&int_col, Value::Lng(LNG_NIL)),
    ];
    for (col, scalar) in &cases {
        for op in [CmpOp::Gt, CmpOp::Eq, CmpOp::Le] {
            let serial = arith::cmpop(op, Operand::Col(col), Operand::Scalar(scalar)).unwrap();
            for t in THREAD_COUNTS {
                let (got, _) =
                    par::cmpop(op, Operand::Col(col), Operand::Scalar(scalar), &forced(t)).unwrap();
                assert_eq!(
                    got.to_values(),
                    serial.to_values(),
                    "{scalar:?} {op:?} threads {t}"
                );
            }
            // Scalar on the left exercises the generic path either way.
            let serial = arith::cmpop(op, Operand::Scalar(scalar), Operand::Col(col)).unwrap();
            for t in THREAD_COUNTS {
                let (got, _) =
                    par::cmpop(op, Operand::Scalar(scalar), Operand::Col(col), &forced(t)).unwrap();
                assert_eq!(
                    got.to_values(),
                    serial.to_values(),
                    "left {scalar:?} {op:?} threads {t}"
                );
            }
        }
    }
}

/// Serial SUM detects overflow on the *running prefix*, not the final
/// total; the parallel merge must reproduce that via per-window prefix
/// extrema. And a NaN scalar divisor flows into the kernel (it is not
/// SQL NULL), so division-by-zero errors must not be masked.
#[test]
fn par_sum_prefix_overflow_and_nan_scalar_match_serial() {
    // [MAX, 1, -2]: prefix overflows at the second element even though
    // the total fits in i64.
    let vals = Bat::from_lngs(vec![i64::MAX, 1, -2]);
    let serial = aggregate::scalar(AggFunc::Sum, &vals).unwrap_err();
    for t in THREAD_COUNTS {
        let par_err = par::scalar(AggFunc::Sum, &vals, &forced(t)).unwrap_err();
        assert_eq!(par_err, serial, "threads {t}");
    }
    let keys = Bat::from_ints(vec![0, 0, 0]);
    let g = group::group_by(&keys, None, None).unwrap();
    let serial = aggregate::grouped(AggFunc::Sum, &vals, &g).unwrap_err();
    for t in THREAD_COUNTS {
        let par_err = par::grouped(AggFunc::Sum, &vals, &g, &forced(t)).unwrap_err();
        assert_eq!(par_err, serial, "grouped threads {t}");
    }
    // A total that fits and whose prefixes all fit must still succeed.
    let ok_vals = Bat::from_lngs(vec![i64::MAX - 10, 5, -7]);
    let serial = aggregate::scalar(AggFunc::Sum, &ok_vals).unwrap();
    for t in THREAD_COUNTS {
        let (got, _) = par::scalar(AggFunc::Sum, &ok_vals, &forced(t)).unwrap();
        assert_eq!(got, serial, "ok threads {t}");
    }

    // NaN scalar ÷ column containing 0.0: serial raises division by
    // zero (scalar NaN is a number, and the divisor is the column).
    let col = Bat::from_dbls(vec![1.0, 0.0, 2.0]);
    let nan = Value::Dbl(f64::NAN);
    let serial = arith::binop(BinOp::Div, Operand::Scalar(&nan), Operand::Col(&col)).unwrap_err();
    for t in THREAD_COUNTS {
        let par_err = par::binop(
            BinOp::Div,
            Operand::Scalar(&nan),
            Operand::Col(&col),
            &forced(t),
        )
        .unwrap_err();
        assert_eq!(par_err, serial, "nan-div threads {t}");
    }
    // NaN scalar through a non-erroring op: NaN result, same as serial.
    let serial = arith::binop(BinOp::Add, Operand::Col(&col), Operand::Scalar(&nan)).unwrap();
    for t in THREAD_COUNTS {
        let (got, _) = par::binop(
            BinOp::Add,
            Operand::Col(&col),
            Operand::Scalar(&nan),
            &forced(t),
        )
        .unwrap();
        assert_eq!(got.to_values(), serial.to_values(), "nan-add threads {t}");
    }
}

// ---------------------------------------------------------------------
// Thread differentials for the remaining parallel entry points: every
// element-wise shape (`lng`, `dbl`, mixed widths, scalar on either side,
// sentinel and NaN scalars) and the fused select→project / select→
// aggregate kernels — results *and* errors equal the serial kernel's.
// ---------------------------------------------------------------------

use gdk::{fused, GdkError};

const BIN_OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const AGG_FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

/// A kernel result made comparable: the output type plus its values (a
/// `dbl` nil reads back as NULL, so NaN outputs compare equal), or the
/// error.
fn outcome(r: gdk::Result<Bat>) -> Result<(gdk::ScalarType, Vec<Value>), GdkError> {
    r.map(|b| (b.tail_type(), b.to_values()))
}

/// Every arithmetic and comparison operator over `a ⊕ b`, at every
/// thread count, against the serial kernel.
fn assert_elementwise_matches_serial(a: Operand<'_>, b: Operand<'_>) {
    for op in BIN_OPS {
        let serial = outcome(arith::binop(op, a, b));
        for t in THREAD_COUNTS {
            let got = outcome(par::binop(op, a, b, &forced(t)).map(|(out, _)| out));
            assert_eq!(got, serial, "{a:?} {op:?} {b:?} threads {t}");
        }
    }
    for op in CMP_OPS {
        let serial = outcome(arith::cmpop(op, a, b));
        for t in THREAD_COUNTS {
            let got = outcome(par::cmpop(op, a, b, &forced(t)).map(|(out, _)| out));
            assert_eq!(got, serial, "{a:?} {op:?} {b:?} threads {t}");
        }
    }
}

/// `lng` cells that reach the overflow and division edge cases: small
/// values, zero, and both ends of the range.
fn edgy_lngs(max_len: usize) -> impl Strategy<Value = Vec<Option<i64>>> {
    proptest::collection::vec(
        proptest::option::weighted(
            0.8,
            prop_oneof![
                -50i64..50,
                Just(0i64),
                Just(i64::MAX),
                Just(i64::MIN + 1),
                (1i64 << 53)..(1i64 << 53) + 4,
            ],
        ),
        0..max_len,
    )
}

fn lng_bat(data: &[Option<i64>]) -> Bat {
    Bat::from_lngs(
        data.iter()
            .map(|v| v.unwrap_or(gdk::types::LNG_NIL))
            .collect(),
    )
}

fn edgy_dbls(max_len: usize) -> impl Strategy<Value = Vec<Option<f64>>> {
    proptest::collection::vec(
        proptest::option::weighted(
            0.8,
            prop_oneof![(-40i32..40).prop_map(|x| f64::from(x) / 4.0), Just(0.0f64)],
        ),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `lng` columns against each other and against scalars on either
    /// side, including the `lng` nil sentinel passed *as a scalar* (a
    /// number there, not NULL).
    #[test]
    fn par_lng_elementwise_matches_serial(data in edgy_lngs(120), s in -3i64..4) {
        let a = lng_bat(&data);
        let b = lng_bat(&data.iter().rev().cloned().collect::<Vec<_>>());
        assert_elementwise_matches_serial(Operand::Col(&a), Operand::Col(&b));
        for scalar in [Value::Lng(s), Value::Lng(i64::MAX), Value::Lng(gdk::types::LNG_NIL)] {
            assert_elementwise_matches_serial(Operand::Col(&a), Operand::Scalar(&scalar));
            assert_elementwise_matches_serial(Operand::Scalar(&scalar), Operand::Col(&a));
        }
    }

    /// `dbl` columns, with zero divisors and NaN scalars (a NaN scalar is
    /// a number, only column cells carry in-band nils).
    #[test]
    fn par_dbl_elementwise_matches_serial(data in edgy_dbls(120), s in -3i32..4) {
        let a = Bat::from_opt_dbls(data.clone());
        let b = Bat::from_opt_dbls(data.iter().rev().cloned().collect());
        assert_elementwise_matches_serial(Operand::Col(&a), Operand::Col(&b));
        for scalar in [Value::Dbl(f64::from(s) / 2.0), Value::Dbl(f64::NAN)] {
            assert_elementwise_matches_serial(Operand::Col(&a), Operand::Scalar(&scalar));
            assert_elementwise_matches_serial(Operand::Scalar(&scalar), Operand::Col(&a));
        }
    }

    /// Mixed-width operands promote exactly as the serial kernel does:
    /// `int`×`lng`, `int`×`dbl`, `lng`×`dbl`, column or scalar on either
    /// side, plus the `int` sentinel as a scalar and SQL NULL.
    #[test]
    fn par_mixed_width_elementwise_matches_serial(
        ints in nil_heavy_ints(120),
        s in -3i32..4,
    ) {
        let n = ints.len();
        let i = Bat::from_opt_ints(ints.clone());
        let l = lng_bat(
            &(0..n).map(|k| (k % 5 != 0).then_some(k as i64 - 7)).collect::<Vec<_>>(),
        );
        let d = Bat::from_opt_dbls((0..n).map(|k| (k % 4 != 0).then_some(k as f64 / 2.0)).collect());
        let i2 = Bat::from_opt_ints(ints.iter().rev().cloned().collect());
        for (x, y) in [(&i, &i2), (&i, &l), (&l, &i), (&i, &d), (&d, &l)] {
            assert_elementwise_matches_serial(Operand::Col(x), Operand::Col(y));
        }
        let scalars = [
            Value::Int(s),
            Value::Lng(i64::from(s)),
            Value::Dbl(f64::from(s)),
            Value::Int(gdk::types::INT_NIL),
            Value::Null,
        ];
        for scalar in &scalars {
            for col in [&i, &l, &d] {
                assert_elementwise_matches_serial(Operand::Col(col), Operand::Scalar(scalar));
                assert_elementwise_matches_serial(Operand::Scalar(scalar), Operand::Col(col));
            }
        }
    }

    /// Fused select→project over every payload shape, with and without an
    /// incoming candidate list, including the out-of-range error a
    /// too-short payload raises.
    #[test]
    fn par_select_project_matches_serial(data in nil_heavy_ints(200), needle in -1000i32..1000) {
        let n = data.len();
        let b = Bat::from_opt_ints(data.clone());
        let ints = Bat::from_opt_ints(data.iter().rev().cloned().collect());
        let strs = Bat::from_strs(data.iter().map(|v| v.map(|x| format!("k{}", x % 13))).collect());
        let dbls = Bat::from_opt_dbls(data.iter().map(|v| v.map(|x| f64::from(x) / 8.0)).collect());
        let void = Bat::dense(3, n);
        let short = Bat::from_ints(vec![1; n / 2]);
        let cand = Candidates::from_sorted((0..n as u64).filter(|i| i % 3 != 1).collect());
        for payload in [&ints, &strs, &dbls, &void, &short] {
            for c in [None, Some(&cand)] {
                for op in CMP_OPS {
                    let val = Value::Int(needle);
                    let serial = outcome(fused::theta_select_project(&b, c, &val, op, payload));
                    for t in THREAD_COUNTS {
                        let got = outcome(
                            par::theta_select_project(&b, c, &val, op, payload, &forced(t))
                                .map(|(out, _)| out),
                        );
                        prop_assert_eq!(&got, &serial, "{:?} threads {}", op, t);
                    }
                }
            }
        }
    }

    /// Fused select→aggregate and candidate-propagated aggregate: every
    /// function over `int`, `lng` (prefix overflow) and `dbl` payloads,
    /// value, qualifying count and error all equal to the serial kernel.
    #[test]
    fn par_fused_aggregates_match_serial(
        data in nil_heavy_ints(200),
        lngs in edgy_lngs(200),
        needle in -1000i32..1000,
    ) {
        let n = data.len().min(lngs.len());
        let b = Bat::from_opt_ints(data[..n].to_vec());
        let ints = Bat::from_opt_ints(data[..n].iter().rev().cloned().collect());
        let big = lng_bat(&lngs[..n]);
        let dbls = Bat::from_opt_dbls(data[..n].iter().map(|v| v.map(|x| f64::from(x) / 8.0)).collect());
        let short = Bat::from_ints(vec![1; n / 2]);
        let cand = Candidates::from_sorted((0..n as u64).filter(|i| i % 3 != 1).collect());
        let val = Value::Int(needle);
        for payload in [&ints, &big, &dbls, &short] {
            for func in AGG_FUNCS {
                for c in [None, Some(&cand)] {
                    for op in [CmpOp::Lt, CmpOp::Ge, CmpOp::Ne] {
                        let serial = fused::theta_select_aggregate(func, payload, &b, c, &val, op);
                        for t in THREAD_COUNTS {
                            let got = par::theta_select_aggregate(
                                func, payload, &b, c, &val, op, &forced(t),
                            )
                            .map(|(v, _, selected)| (v, selected));
                            prop_assert_eq!(&got, &serial, "{:?} {:?} threads {}", func, op, t);
                        }
                    }
                }
                let serial = fused::project_aggregate(func, payload, &cand);
                for t in THREAD_COUNTS {
                    let got = par::project_aggregate(func, payload, &cand, &forced(t))
                        .map(|(v, _)| v);
                    prop_assert_eq!(&got, &serial, "{:?} threads {}", func, t);
                }
            }
        }
    }
}

/// Integral comparisons are exact: two `lng` values that differ only
/// below `f64`'s 53-bit mantissa still order correctly, column × scalar
/// and column × column, at every thread count.
#[test]
fn lng_comparison_is_exact_beyond_f64_precision() {
    const BIG: i64 = (1 << 53) + 1; // 9007199254740993, not representable in f64
    let a = Bat::from_lngs(vec![BIG; 64]);
    let b = Bat::from_lngs(vec![BIG - 1; 64]);
    let scalar = Value::Lng(BIG - 1);
    assert_eq!(
        Value::Lng(BIG).sql_cmp(&scalar),
        Some(std::cmp::Ordering::Greater)
    );
    for t in THREAD_COUNTS {
        for (rhs, what) in [
            (Operand::Scalar(&scalar), "col × scalar"),
            (Operand::Col(&b), "col × col"),
        ] {
            let (gt, _) = par::cmpop(CmpOp::Gt, Operand::Col(&a), rhs, &forced(t)).unwrap();
            let (eq, _) = par::cmpop(CmpOp::Eq, Operand::Col(&a), rhs, &forced(t)).unwrap();
            assert_eq!(
                gt.to_values(),
                vec![Value::Bit(true); 64],
                "{what} threads {t}"
            );
            assert_eq!(
                eq.to_values(),
                vec![Value::Bit(false); 64],
                "{what} threads {t}"
            );
        }
    }
    assert_eq!(
        arith::cmpop(CmpOp::Gt, Operand::Col(&a), Operand::Col(&b))
            .unwrap()
            .to_values(),
        vec![Value::Bit(true); 64]
    );
}

/// First failing row wins, whichever kind of failure it is: a `SUM`
/// prefix that overflows *before* an out-of-range projection reports the
/// overflow, and the other way round, at every thread count.
#[test]
fn fused_aggregate_reports_the_first_failing_row() {
    let n = 96usize;
    let b = Bat::from_ints(vec![1; n]);
    let val = Value::Int(0);
    // Overflow at row 1, payload ends at row 60.
    let mut early = vec![0i64; 60];
    early[0] = i64::MAX;
    early[1] = 1;
    // Payload ends at row 60 with no overflow before it; rows that would
    // overflow lie beyond the end and are never reached.
    let late = vec![1i64; 60];
    for (payload, want) in [
        (Bat::from_lngs(early), GdkError::arithmetic("SUM overflow")),
        (
            Bat::from_lngs(late),
            GdkError::invalid("projection oid 60 out of range (len 60)"),
        ),
    ] {
        let serial =
            fused::theta_select_aggregate(AggFunc::Sum, &payload, &b, None, &val, CmpOp::Gt)
                .unwrap_err();
        assert_eq!(serial, want);
        let cand = Candidates::all(n);
        assert_eq!(
            fused::project_aggregate(AggFunc::Sum, &payload, &cand).unwrap_err(),
            want
        );
        for t in THREAD_COUNTS {
            let cfg = forced(t);
            let got = par::theta_select_aggregate(
                AggFunc::Sum,
                &payload,
                &b,
                None,
                &val,
                CmpOp::Gt,
                &cfg,
            )
            .unwrap_err();
            assert_eq!(got, want, "select→aggregate threads {t}");
            let got = par::project_aggregate(AggFunc::Sum, &payload, &cand, &cfg).unwrap_err();
            assert_eq!(got, want, "project→aggregate threads {t}");
        }
    }
}

// ---------------------------------------------------------------------
// Typed write-path kernels against their boxed references: conversion
// (`Bat::coerced`), scatter / overwrite / append, constant columns, the
// `bit` select path and `ifthenelse` — values, nil sentinels, NaN and
// errors alike.
// ---------------------------------------------------------------------

use gdk::types::{INT_NIL, LNG_NIL};
use gdk::ScalarType;

const TYPES: [ScalarType; 6] = [
    ScalarType::Bit,
    ScalarType::Int,
    ScalarType::Lng,
    ScalarType::Dbl,
    ScalarType::OidT,
    ScalarType::Str,
];

/// One column per type from the same edgy cells: `int` (cells beyond its
/// range become nil), `lng`, `dbl` (halved, so `.5` rounding shows up),
/// `bit`, `oid` and `str`.
fn typed_columns(data: &[Option<i64>]) -> Vec<Bat> {
    vec![
        Bat::from_opt_ints(
            data.iter()
                .map(|v| {
                    v.and_then(|x| i32::try_from(x).ok())
                        .filter(|&x| x != INT_NIL)
                })
                .collect(),
        ),
        lng_bat(data),
        Bat::from_opt_dbls(data.iter().map(|v| v.map(|x| x as f64 / 2.0)).collect()),
        Bat::from_bits(data.iter().map(|v| v.map(|x| x % 2 != 0)).collect()),
        Bat::from_oids(
            data.iter()
                .map(|v| v.map_or(gdk::types::OID_NIL, |x| x.unsigned_abs()))
                .collect(),
        ),
        Bat::from_strs(
            data.iter()
                .map(|v| v.map(|x| format!("{}", x % 7)))
                .collect(),
        ),
    ]
}

/// The boxed reference conversion: one `Value::cast` + `push` per cell.
fn boxed_coerce(b: &Bat, ty: ScalarType) -> Result<Bat, usize> {
    let mut out = Bat::with_capacity(ty, b.len());
    for i in 0..b.len() {
        let v = b.get(i).cast(ty).ok_or(i)?;
        out.push(&v).map_err(|_| i)?;
    }
    Ok(out)
}

/// Scalars that reach every branch-conversion edge.
fn edge_scalars() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(3),
        Value::Int(INT_NIL),
        Value::Lng(LNG_NIL),
        Value::Lng(3_000_000_000),
        Value::Dbl(2.5),
        Value::Dbl(f64::NAN),
        Value::Bit(true),
        Value::Str("s".into()),
    ]
}

/// The boxed `ifthenelse` reference.
fn boxed_ifthenelse(bits: &[i8], t: Operand<'_>, e: Operand<'_>) -> gdk::Result<Bat> {
    let ty_of = |o: &Operand<'_>| match o {
        Operand::Col(b) => Some(b.tail_type()),
        Operand::Scalar(v) => v.scalar_type(),
    };
    let ty = match (ty_of(&t), ty_of(&e)) {
        (Some(a), Some(b)) => a.promote(b).unwrap_or(a),
        (Some(a), None) | (None, Some(a)) => a,
        (None, None) => ScalarType::Int,
    };
    let at = |o: &Operand<'_>, i: usize| match o {
        Operand::Col(b) => b.get(i),
        Operand::Scalar(v) => (*v).clone(),
    };
    let mut out = Bat::with_capacity(ty, bits.len());
    for (i, &m) in bits.iter().enumerate() {
        out.push(&if m == 1 { at(&t, i) } else { at(&e, i) })?;
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `coerced` ≡ a `Value::cast` per cell, for every type pair: same
    /// result type and values, or the same first failing row.
    #[test]
    fn typed_coerce_matches_boxed_cast(data in edgy_lngs(60)) {
        for src in typed_columns(&data) {
            for ty in TYPES {
                let got = src.coerced(ty).map(|b| (b.tail_type(), b.to_values()));
                let want = boxed_coerce(&src, ty).map(|b| (b.tail_type(), b.to_values()));
                prop_assert_eq!(got, want, "{:?} -> {:?}", src.tail_type(), ty);
            }
        }
    }

    /// `scatter` and `append_bat` ≡ a `set` / `push` per cell when every
    /// value fits; otherwise they fail on the first value that does not
    /// and leave the target untouched.
    #[test]
    fn typed_scatter_and_append_match_boxed_writes(data in edgy_lngs(60)) {
        let cols = typed_columns(&data);
        let at: Vec<u64> = (0..data.len() as u64).filter(|i| i % 3 != 1).collect();
        let cand = Candidates::from_sorted(at.clone());
        for target in &cols {
            for src in &cols {
                let values = project::project(&cand, src).unwrap();
                let mut want = target.clone();
                let boxed: gdk::Result<()> = at
                    .iter()
                    .enumerate()
                    .try_for_each(|(k, &p)| want.set(p as usize, &values.get(k)));
                let mut got = target.clone();
                let typed = got.scatter(&cand, &values);
                prop_assert_eq!(&typed, &boxed);
                let want = if boxed.is_ok() { want } else { target.clone() };
                prop_assert_eq!(got.to_values(), want.to_values());

                let mut want = target.clone();
                let boxed: gdk::Result<()> = (0..src.len()).try_for_each(|i| want.push(&src.get(i)));
                let mut got = target.clone();
                prop_assert_eq!(got.append_bat(src), boxed.clone());
                let want = if boxed.is_ok() { want } else { target.clone() };
                prop_assert_eq!(got.to_values(), want.to_values());
            }
            if target.len() == data.len() {
                let mut got = target.clone();
                got.overwrite(&cols[2]).ok();
                let mut want = target.clone();
                let boxed: gdk::Result<()> =
                    (0..data.len()).try_for_each(|i| want.set(i, &cols[2].get(i)));
                if boxed.is_ok() {
                    prop_assert_eq!(got.to_values(), want.to_values());
                }
            }
        }
    }

    /// `bit` mask selection ≡ the boxed comparison definition.
    #[test]
    fn bit_select_matches_boxed_definition(
        bits in proptest::collection::vec(proptest::option::weighted(0.8, any::<bool>()), 0..120),
    ) {
        let mask = Bat::from_bits(bits.clone());
        for val in [Value::Bit(true), Value::Bit(false), Value::Int(1), Value::Dbl(0.5)] {
            for op in CMP_OPS {
                let got = select::thetaselect(&mask, None, &val, op).unwrap().to_vec();
                let holds = |o: std::cmp::Ordering| match op {
                    CmpOp::Eq => o.is_eq(),
                    CmpOp::Ne => o.is_ne(),
                    CmpOp::Lt => o.is_lt(),
                    CmpOp::Le => o.is_le(),
                    CmpOp::Gt => o.is_gt(),
                    CmpOp::Ge => o.is_ge(),
                };
                let want: Vec<u64> = (0..bits.len())
                    .filter(|&i| mask.get(i).sql_cmp(&val).is_some_and(holds))
                    .map(|i| i as u64)
                    .collect();
                prop_assert_eq!(got, want, "{:?} {:?}", op, val);
            }
        }
    }

    /// `ifthenelse` ≡ the boxed push loop over every branch shape: column
    /// or scalar, every type, nil sentinels and NaN as scalars.
    #[test]
    fn typed_ifthenelse_matches_boxed_loop(data in edgy_lngs(60)) {
        let cols = typed_columns(&data);
        let mask = &cols[3];
        let bits = mask.as_bits().unwrap();
        let scalars = edge_scalars();
        let mut branches: Vec<Operand<'_>> = cols.iter().map(Operand::Col).collect();
        branches.extend(scalars.iter().map(Operand::Scalar));
        for &t in &branches {
            for &e in &branches {
                let got = outcome(arith::ifthenelse(mask, t, e));
                let want = outcome(boxed_ifthenelse(bits, t, e));
                prop_assert_eq!(got, want, "{:?} / {:?}", t, e);
            }
        }
    }

    /// Constant columns ≡ `n` pushes of the value.
    #[test]
    fn constant_matches_repeated_push(n in 0usize..40) {
        for ty in TYPES {
            for v in edge_scalars() {
                let got = Bat::constant(ty, n, &v).map(|b| b.to_values());
                let mut want = Bat::with_capacity(ty, n);
                let boxed = (0..n.max(1)).try_for_each(|_| want.push(&v));
                prop_assert_eq!(got, boxed.map(|_| want.to_values()[..n].to_vec()), "{:?} {:?}", ty, v);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shaped selections: a column `Bat::series` generated carries its five
// numbers, and a selection over it is answered by arithmetic. It must
// equal the scan of the same values without a shape, in results and in
// errors, at every thread count.
// ---------------------------------------------------------------------

/// Comparison values of every kind a selection may meet: NULL, ints,
/// values beyond `int`, fractional and huge doubles, NaN and a string.
fn bound(pick: usize, k: i64, frac: f64) -> Value {
    match pick % 9 {
        0 => Value::Null,
        1 => Value::Int(k as i32),
        2 => Value::Lng(k * (1 << 33)),
        3 => Value::Dbl(k as f64 + frac),
        4 => Value::Dbl(k as f64),
        5 => Value::Dbl(if k < 0 { -1e300 } else { 1e300 }),
        6 => Value::Lng(if k < 0 { i64::MIN } else { i64::MAX }),
        7 => Value::Dbl(f64::NAN),
        _ => Value::Str("k".into()),
    }
}

/// A candidate list over a column of `len` rows: none, a dense range or
/// a sorted list, either of which may reach past the column.
fn cands_for(kind: usize, len: usize, seed: u64) -> Option<Candidates> {
    let first = seed % (len as u64 + 3);
    match kind % 3 {
        0 => None,
        1 => Some(Candidates::Dense {
            first,
            len: (seed / 7) as usize % (len + 4),
        }),
        _ => Some(Candidates::from_vec(
            (0..len as u64 + 4)
                .filter(|i| !(i * 7 + seed).is_multiple_of(3))
                .collect(),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shaped_selects_match_the_scan(
        big in proptest::bool::weighted(0.3),
        start in -40i64..40,
        step in prop_oneof![-5i64..0, 2i64..6, Just(1i64)],
        count in 0i64..14,
        n in 0usize..4,
        m in 0usize..4,
        picks in proptest::collection::vec((0usize..9, -60i64..60, 0.05f64..0.95), 2),
        flags in (0usize..8, 0usize..3, 0u64..1000),
    ) {
        let start = if big { start + (1 << 40) } else { start };
        let shaped = Bat::series(start, step, start + step * count, n, m).unwrap();
        prop_assert!(shaped.shape().is_some());
        let plain = Bat::from_data(shaped.data().clone());
        let len = plain.len();
        let (lo, hi) = (bound(picks[0].0, picks[0].1, picks[0].2), bound(picks[1].0, picks[1].1, picks[1].2));
        let (li, hi_incl, anti) = (flags.0 & 1 == 1, flags.0 & 2 == 2, flags.0 & 4 == 4);
        let cand = cands_for(flags.1, len, flags.2);
        let c = cand.as_ref();
        let payload = Bat::from_ints((0..(len + flags.2 as usize % 3).saturating_sub(1) as i32).collect());
        for t in THREAD_COUNTS {
            let cfg = forced(t);
            let range = |b: &Bat| par::rangeselect(b, c, &lo, &hi, li, hi_incl, anti, &cfg).map(|r| r.0);
            prop_assert_eq!(range(&shaped), range(&plain), "range threads {}", t);
            for op in CMP_OPS {
                let theta = |b: &Bat| par::thetaselect(b, c, &lo, op, &cfg).map(|r| r.0);
                prop_assert_eq!(theta(&shaped), theta(&plain), "{:?} threads {}", op, t);
                let sp = |b: &Bat| outcome(par::theta_select_project(b, c, &lo, op, &payload, &cfg).map(|r| r.0));
                prop_assert_eq!(sp(&shaped), sp(&plain), "selectproject {:?} threads {}", op, t);
                for func in AGG_FUNCS {
                    let sa = |b: &Bat| par::theta_select_aggregate(func, &payload, b, c, &lo, op, &cfg)
                        .map(|(v, _, selected)| (v, selected));
                    prop_assert_eq!(sa(&shaped), sa(&plain), "selectagg {:?} {:?} threads {}", func, op, t);
                }
            }
        }
        // The serial kernels agree too, and a shaped select with a
        // numeric bound reads no column and so spawns no thread.
        prop_assert_eq!(
            select::rangeselect(&shaped, c, &lo, &hi, li, hi_incl, anti),
            select::rangeselect(&plain, c, &lo, &hi, li, hi_incl, anti)
        );
        if !matches!(hi, Value::Str(_)) {
            let (_, threads) = par::thetaselect(&shaped, c, &hi, CmpOp::Ge, &forced(8)).unwrap();
            prop_assert_eq!(threads, 1);
        }
    }
}

// ---------------------------------------------------------------------
// The typed `batcalc` kernels against a per-cell scalar reference. Every
// operator, cast target and boolean kernel over every `int`/`lng`/`dbl`
// column and scalar pairing, at 1, 2 and 7 windows: the kernel must give
// the type and values of a loop over `scalar_binop`, `Value::cast` and
// `Value::sql_cmp`, or that loop's first error. The cells reach both ends
// of each range (so overflow, and results equal to the nil sentinel,
// show), zero divisors, nils and NaN scalars.
// ---------------------------------------------------------------------

/// Window counts the reference suite runs the kernels at.
const WINDOWS: [usize; 3] = [1, 2, 7];

/// A cell of the reference suite: nil, a small value, or one end of the
/// column type's range (`MIN + 1`, the smallest non-nil, or `MAX`).
#[derive(Debug, Clone, Copy)]
enum Edge {
    Small(i8),
    Low,
    High,
}

fn edges(max_len: usize) -> impl Strategy<Value = Vec<Option<Edge>>> {
    proptest::collection::vec(
        proptest::option::weighted(
            0.75,
            prop_oneof![
                (-4i8..5).prop_map(Edge::Small),
                (-4i8..5).prop_map(Edge::Small),
                Just(Edge::Low),
                Just(Edge::High),
            ],
        ),
        0..max_len,
    )
}

/// One `int`, `lng` and `dbl` column from the same cells (`dbl` cells
/// are halved, so fractions and the range ends of `f64` show up).
fn edge_columns(cells: &[Option<Edge>]) -> [Bat; 3] {
    let pick = |small: fn(i8) -> i64, low: i64, high: i64| {
        move |c: &Option<Edge>| match c {
            None => None,
            Some(Edge::Small(x)) => Some(small(*x)),
            Some(Edge::Low) => Some(low),
            Some(Edge::High) => Some(high),
        }
    };
    let int = pick(i64::from, i64::from(i32::MIN + 1), i64::from(i32::MAX));
    let lng = pick(i64::from, i64::MIN + 1, i64::MAX);
    [
        Bat::from_opt_ints(cells.iter().map(|c| int(c).map(|x| x as i32)).collect()),
        lng_bat(&cells.iter().map(lng).collect::<Vec<_>>()),
        Bat::from_opt_dbls(
            cells
                .iter()
                .map(|c| match c {
                    None => None,
                    Some(Edge::Small(x)) => Some(f64::from(*x) / 2.0),
                    Some(Edge::Low) => Some(f64::MIN),
                    Some(Edge::High) => Some(f64::MAX),
                })
                .collect(),
        ),
    ]
}

/// Scalars of every numeric type: zero divisors, ±1, both range ends
/// and, for `dbl`, NaN and `-0.0`.
fn edge_numeric_scalars() -> Vec<Value> {
    vec![
        Value::Int(0),
        Value::Int(-1),
        Value::Int(2),
        Value::Int(i32::MIN + 1),
        Value::Int(i32::MAX),
        Value::Lng(0),
        Value::Lng(-1),
        Value::Lng(i64::MIN + 1),
        Value::Lng(i64::MAX),
        Value::Dbl(0.0),
        Value::Dbl(-0.0),
        Value::Dbl(1.5),
        Value::Dbl(f64::NAN),
        Value::Dbl(f64::MAX),
    ]
}

/// Row `i` of an operand as a value (a nil cell is NULL).
fn cell(o: &Operand<'_>, i: usize) -> Value {
    match o {
        Operand::Col(b) => b.get(i),
        Operand::Scalar(v) => (*v).clone(),
    }
}

fn operand_type(o: &Operand<'_>) -> ScalarType {
    match o {
        Operand::Col(b) => b.tail_type(),
        Operand::Scalar(v) => v.scalar_type().expect("typed scalar"),
    }
}

fn operand_len(a: &Operand<'_>, b: &Operand<'_>) -> usize {
    match (a, b) {
        (Operand::Col(x), _) | (_, Operand::Col(x)) => x.len(),
        _ => unreachable!("one side is a column"),
    }
}

/// The reference arithmetic: `scalar_binop` per row, NULL where a side
/// is NULL, pushed into a column of the promoted type.
fn scalar_binop_loop(op: BinOp, a: Operand<'_>, b: Operand<'_>) -> gdk::Result<Bat> {
    let ty = operand_type(&a).promote(operand_type(&b)).unwrap();
    let mut out = Bat::with_capacity(ty, operand_len(&a, &b));
    for i in 0..operand_len(&a, &b) {
        let (x, y) = (cell(&a, i), cell(&b, i));
        let r = if x.is_null() || y.is_null() {
            Value::Null
        } else {
            arith::scalar_binop(op, &x, &y)?
        };
        out.push(&r)?;
    }
    Ok(out)
}

/// The reference comparison: `sql_cmp` per row, nil where it has no
/// answer.
fn sql_cmp_loop(op: CmpOp, a: Operand<'_>, b: Operand<'_>) -> Bat {
    use std::cmp::Ordering::{Equal, Greater, Less};
    Bat::from_bits(
        (0..operand_len(&a, &b))
            .map(|i| {
                cell(&a, i).sql_cmp(&cell(&b, i)).map(|ord| match op {
                    CmpOp::Eq => ord == Equal,
                    CmpOp::Ne => ord != Equal,
                    CmpOp::Lt => ord == Less,
                    CmpOp::Le => ord != Greater,
                    CmpOp::Gt => ord == Greater,
                    CmpOp::Ge => ord != Less,
                })
            })
            .collect(),
    )
}

/// The reference cast: `Value::cast` per cell; the first cell that does
/// not convert fails with the error `cast_bat` documents for the pair.
fn value_cast_loop(b: &Bat, to: ScalarType) -> gdk::Result<Bat> {
    let mut out = Bat::with_capacity(to, b.len());
    for v in b.iter_values() {
        match v.cast(to) {
            Some(c) => out.push(&c)?,
            None if (b.tail_type(), to) == (ScalarType::Dbl, ScalarType::Int) => {
                return Err(GdkError::arithmetic("cast out of int range"))
            }
            None => return Err(GdkError::type_mismatch(format!("cannot cast {v} to {to}"))),
        }
    }
    Ok(out)
}

/// Every arithmetic and comparison operator over `a ⊕ b`, at every
/// window count, against the scalar reference.
fn assert_matches_scalar_reference(a: Operand<'_>, b: Operand<'_>) {
    for op in BIN_OPS {
        let want = outcome(scalar_binop_loop(op, a, b));
        for k in WINDOWS {
            let got = outcome(par::binop(op, a, b, &forced(k)).map(|(out, _)| out));
            assert_eq!(got, want, "{a:?} {op:?} {b:?} windows {k}");
        }
    }
    for op in CMP_OPS {
        let want = outcome(Ok(sql_cmp_loop(op, a, b)));
        for k in WINDOWS {
            let got = outcome(par::cmpop(op, a, b, &forced(k)).map(|(out, _)| out));
            assert_eq!(got, want, "{a:?} {op:?} {b:?} windows {k}");
        }
    }
}

/// The reference three-valued logic over `Option<bool>`.
fn bool_loop(a: &Bat, b: &Bat, f: fn(Option<bool>, Option<bool>) -> Option<bool>) -> Bat {
    Bat::from_bits(
        (0..a.len())
            .map(|i| f(a.get(i).as_bool(), b.get(i).as_bool()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arithmetic and comparison over every column/column, column/scalar
    /// and scalar/column pairing of `int`, `lng` and `dbl`.
    #[test]
    fn typed_elementwise_matches_scalar_reference(cells in edges(40)) {
        let cols = edge_columns(&cells);
        let reversed: Vec<_> = cells.iter().rev().cloned().collect();
        let others = edge_columns(&reversed);
        for x in &cols {
            for y in &others {
                assert_matches_scalar_reference(Operand::Col(x), Operand::Col(y));
            }
            for s in &edge_numeric_scalars() {
                assert_matches_scalar_reference(Operand::Col(x), Operand::Scalar(s));
                assert_matches_scalar_reference(Operand::Scalar(s), Operand::Col(x));
            }
        }
    }

    /// `cast_bat` to every target, `isnull`, `ifthenelse` over every
    /// numeric branch pairing and `and`/`or`/`not` against per-cell
    /// loops.
    #[test]
    fn typed_casts_and_logic_match_scalar_reference(cells in edges(40)) {
        let cols = edge_columns(&cells);
        for src in &cols {
            for to in TYPES {
                prop_assert_eq!(
                    outcome(arith::cast_bat(src, to)),
                    outcome(value_cast_loop(src, to)),
                    "{:?} -> {:?}", src.tail_type(), to
                );
            }
            let nulls: Vec<_> = src.iter_values().map(|v| Some(v.is_null())).collect();
            prop_assert_eq!(arith::isnull(src).to_values(), Bat::from_bits(nulls).to_values());
        }
        let masks: Vec<Bat> = [CmpOp::Lt, CmpOp::Ge]
            .iter()
            .map(|&op| arith::cmpop(op, Operand::Col(&cols[0]), Operand::Scalar(&Value::Int(1))).unwrap())
            .collect();
        let bits = masks[0].as_bits().unwrap();
        let scalars = edge_numeric_scalars();
        let branches: Vec<Operand<'_>> = cols
            .iter()
            .map(Operand::Col)
            .chain(scalars.iter().map(Operand::Scalar))
            .collect();
        for &t in &branches {
            for &e in &branches {
                prop_assert_eq!(
                    outcome(arith::ifthenelse(&masks[0], t, e)),
                    outcome(boxed_ifthenelse(bits, t, e)),
                    "{:?} / {:?}", t, e
                );
            }
        }
        let (m, n) = (&masks[0], &masks[1]);
        for (x, y) in [(m, n), (n, m), (m, m)] {
            prop_assert_eq!(
                arith::and(x, y).unwrap().to_values(),
                bool_loop(x, y, |p, q| match (p, q) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                })
                .to_values()
            );
            prop_assert_eq!(
                arith::or(x, y).unwrap().to_values(),
                bool_loop(x, y, |p, q| match (p, q) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
                .to_values()
            );
        }
        let negated: Vec<_> = m.iter_values().map(|v| v.as_bool().map(|b| !b)).collect();
        prop_assert_eq!(arith::not(m).unwrap().to_values(), Bat::from_bits(negated).to_values());
    }
}

/// The reference grouping: rows numbered in first-occurrence order of
/// `(previous group id, join::hash_key(cell))`.
fn hash_key_group_ids(b: &Bat, prev: Option<&group::Groups>) -> Vec<u64> {
    let mut ids = std::collections::HashMap::new();
    (0..b.len())
        .map(|i| {
            let key = (prev.map_or(0, |p| p.ids[i]), join::hash_key(&b.get(i)));
            let next = ids.len() as u64;
            *ids.entry(key).or_insert(next)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `group_by`, first or refining, puts two rows in one group exactly
    /// when `hash_key` gives their cells (and previous groups) one key:
    /// nils together, `-0.0` with `0.0`, `dbl`s beyond 2^53 by their bits.
    #[test]
    fn group_by_matches_hash_key_grouping(
        cells in proptest::collection::vec((0usize..8, -3i64..4), 0..80),
    ) {
        let dbl = |(kind, x): &(usize, i64)| match kind {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => (1i64 << 53) as f64 + (*x as f64) * 2.0,
            _ => *x as f64 / 2.0,
        };
        let cols = [
            Bat::from_dbls(cells.iter().map(dbl).collect()),
            Bat::from_opt_ints(cells.iter().map(|&(k, x)| (k != 0).then_some(x as i32)).collect()),
            lng_bat(&cells.iter().map(|&(k, x)| (k != 0).then_some(x << 40)).collect::<Vec<_>>()),
            Bat::from_bits(cells.iter().map(|&(k, x)| (k != 0).then_some(x > 0)).collect()),
            Bat::from_strs(cells.iter().map(|&(k, x)| (k != 0).then(|| format!("s{x}"))).collect()),
        ];
        for first in &cols {
            let g = group::group_by(first, None, None).unwrap();
            prop_assert_eq!(&g.ids, &hash_key_group_ids(first, None));
            for second in &cols {
                let want = hash_key_group_ids(second, Some(&g));
                for k in WINDOWS {
                    let (got, _) = par::group_by(second, None, Some(&g), &forced(k)).unwrap();
                    prop_assert_eq!(&got.ids, &want, "{:?} windows {}", second.tail_type(), k);
                }
            }
        }
    }
}
