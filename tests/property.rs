//! Property-based tests: SciQL query semantics checked against
//! brute-force reference implementations on randomly generated arrays.

use gdk::Value;
use proptest::prelude::*;
use sciql::Connection;

/// Build a session holding a `w × h` int array with the given cell
/// values (None = hole).
fn array_session(w: usize, h: usize, cells: &[Option<i32>]) -> Connection {
    let mut c = Connection::new();
    c.execute(&format!(
        "CREATE ARRAY a (x INT DIMENSION[0:1:{w}], y INT DIMENSION[0:1:{h}], v INT)"
    ))
    .unwrap();
    for x in 0..w {
        for y in 0..h {
            if let Some(v) = cells[x * h + y] {
                c.execute(&format!("INSERT INTO a VALUES ({x}, {y}, {v})"))
                    .unwrap();
            }
        }
    }
    c
}

/// Brute-force tile aggregation reference: for each anchor, gather values
/// at anchor+offsets that are in range and non-hole.
fn reference_tile_sum(
    w: usize,
    h: usize,
    cells: &[Option<i32>],
    offsets: &[(i64, i64)],
) -> Vec<Option<i64>> {
    let mut out = Vec::with_capacity(w * h);
    for x in 0..w as i64 {
        for y in 0..h as i64 {
            let mut sum = 0i64;
            let mut any = false;
            for &(dx, dy) in offsets {
                let (nx, ny) = (x + dx, y + dy);
                if nx >= 0 && ny >= 0 && (nx as usize) < w && (ny as usize) < h {
                    if let Some(v) = cells[nx as usize * h + ny as usize] {
                        sum += i64::from(v);
                        any = true;
                    }
                }
            }
            out.push(any.then_some(sum));
        }
    }
    out
}

fn small_grid() -> impl Strategy<Value = (usize, usize, Vec<Option<i32>>)> {
    (2usize..6, 2usize..6).prop_flat_map(|(w, h)| {
        proptest::collection::vec(proptest::option::weighted(0.8, -20i32..20), w * h)
            .prop_map(move |cells| (w, h, cells))
    })
}

/// Render a query result as exact wire bytes (header + pages), the
/// representation the optimizer-ablation property compares.
fn result_pages(c: &mut Connection, sql: &str) -> Result<Vec<u8>, String> {
    let rs = c.query(sql).map_err(|e| e.to_string())?;
    let mut bytes = rs.encode_header();
    for page in rs.encode_pages(5) {
        bytes.extend_from_slice(&page);
    }
    Ok(bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random Fig-2 pipelines produce byte-identical result pages with
    /// and without each individual optimizer pass: the full pipeline
    /// minus any one pass, the pass alone, and the empty pipeline all
    /// agree with the naive plan.
    #[test]
    fn optimizer_passes_preserve_result_pages(
        (w, h, cells) in small_grid(),
        threshold in -20i32..20,
        agg_ix in 0usize..5,
    ) {
        use mal::OptConfig;
        let agg = ["SUM", "COUNT", "AVG", "MIN", "MAX"][agg_ix];
        let queries = [
            format!("SELECT v FROM a WHERE v > {threshold}"),
            format!("SELECT {agg}(v) FROM a WHERE v <= {threshold}"),
            format!("SELECT {agg}(v + 1) FROM a WHERE x > 1 AND v < {threshold}"),
            "SELECT [x], [y], SUM(v) FROM a GROUP BY a[x:x+2][y:y+2]".to_owned(),
            format!("SELECT v, {agg}(v) FROM a GROUP BY v"),
        ];
        // Each single pass toggled on alone, and off from the full set.
        let toggles: [fn(&mut OptConfig) -> &mut bool; 7] = [
            |c| &mut c.constfold,
            |c| &mut c.cse,
            |c| &mut c.alias,
            |c| &mut c.dce,
            |c| &mut c.candprop,
            |c| &mut c.fuse_select_project,
            |c| &mut c.fuse_select_aggregate,
        ];
        let mut configs = vec![OptConfig::none(), OptConfig::full()];
        for t in &toggles {
            let mut only = OptConfig::none();
            *t(&mut only) = true;
            let mut all_but = OptConfig::full();
            *t(&mut all_but) = false;
            configs.push(only);
            configs.push(all_but);
        }
        let mut c = array_session(w, h, &cells);
        for sql in &queries {
            c.set_optimizer(OptConfig::none());
            let expect = result_pages(&mut c, sql);
            for cfg in &configs {
                c.set_optimizer(*cfg);
                let got = result_pages(&mut c, sql);
                prop_assert_eq!(
                    &got, &expect,
                    "pages diverged for {:?} under {:?}", sql, cfg
                );
            }
        }
    }

    /// SciQL 2×2 tiling SUM equals the brute-force reference, including
    /// hole and boundary handling.
    #[test]
    fn tiling_sum_matches_reference((w, h, cells) in small_grid()) {
        let mut c = array_session(w, h, &cells);
        let rs = c
            .query("SELECT [x], [y], SUM(v) FROM a GROUP BY a[x:x+2][y:y+2]")
            .unwrap();
        prop_assert_eq!(rs.row_count(), w * h);
        let view = rs.to_array_view().unwrap();
        let want = reference_tile_sum(w, h, &cells, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        for x in 0..w {
            for y in 0..h {
                let got = view.at(&[x as i64, y as i64]).cloned().unwrap();
                let expect = match want[x * h + y] {
                    None => Value::Null,
                    Some(s) => Value::Lng(s),
                };
                prop_assert_eq!(got, expect, "anchor ({}, {})", x, y);
            }
        }
    }

    /// Tiling COUNT counts exactly the in-range non-hole tile cells.
    #[test]
    fn tiling_count_matches_reference((w, h, cells) in small_grid()) {
        let mut c = array_session(w, h, &cells);
        let rs = c
            .query("SELECT [x], [y], COUNT(v) FROM a GROUP BY a[x-1:x+2][y-1:y+2]")
            .unwrap();
        let view = rs.to_array_view().unwrap();
        for x in 0..w as i64 {
            for y in 0..h as i64 {
                let mut expect = 0i64;
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let (nx, ny) = (x + dx, y + dy);
                        if nx >= 0
                            && ny >= 0
                            && (nx as usize) < w
                            && (ny as usize) < h
                            && cells[nx as usize * h + ny as usize].is_some()
                        {
                            expect += 1;
                        }
                    }
                }
                prop_assert_eq!(
                    view.at(&[x, y]).cloned().unwrap(),
                    Value::Lng(expect),
                    "anchor ({}, {})", x, y
                );
            }
        }
    }

    /// Grouped SUM partitions the total: Σ(group sums) = overall sum.
    #[test]
    fn group_sums_partition_total((w, h, cells) in small_grid()) {
        let mut c = array_session(w, h, &cells);
        let total = c
            .query("SELECT SUM(v) FROM a")
            .unwrap()
            .scalar()
            .unwrap();
        let rs = c.query("SELECT v MOD 3, SUM(v) FROM a GROUP BY v MOD 3").unwrap();
        let group_total: i64 = rs
            .rows()
            .filter_map(|r| r[1].as_i64())
            .sum();
        let want = total.as_i64().unwrap_or(0);
        prop_assert_eq!(group_total, want);
    }

    /// ORDER BY yields a sorted permutation of the same multiset.
    #[test]
    fn order_by_is_sorted_permutation((w, h, cells) in small_grid()) {
        let mut c = array_session(w, h, &cells);
        let unsorted = c.query("SELECT v FROM a").unwrap();
        let sorted = c.query("SELECT v FROM a ORDER BY v").unwrap();
        prop_assert_eq!(unsorted.row_count(), sorted.row_count());
        let mut want: Vec<Option<i64>> =
            unsorted.rows().map(|r| r[0].as_i64()).collect();
        want.sort();
        let got: Vec<Option<i64>> = sorted.rows().map(|r| r[0].as_i64()).collect();
        prop_assert_eq!(got, want, "NULLs sort first, then ascending");
    }

    /// DELETE + COUNT bookkeeping: holes plus survivors equals cells.
    #[test]
    fn delete_bookkeeping((w, h, cells) in small_grid(), threshold in -20i32..20) {
        let mut c = array_session(w, h, &cells);
        c.execute(&format!("DELETE FROM a WHERE v < {threshold}")).unwrap();
        let holes = c
            .query("SELECT COUNT(*) FROM a WHERE v IS NULL")
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap();
        let survivors = c
            .query("SELECT COUNT(v) FROM a")
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap();
        prop_assert_eq!(holes + survivors, (w * h) as i64);
        // Survivors all respect the predicate.
        let bad = c
            .query(&format!("SELECT COUNT(*) FROM a WHERE v < {threshold}"))
            .unwrap()
            .scalar()
            .unwrap();
        prop_assert_eq!(bad, Value::Lng(0));
    }

    /// Array→table→array round trip preserves every non-hole cell.
    #[test]
    fn coercion_roundtrip((w, h, cells) in small_grid()) {
        let mut c = array_session(w, h, &cells);
        c.execute("CREATE TABLE t (x INT, y INT, v INT)").unwrap();
        c.execute("INSERT INTO t SELECT x, y, v FROM a").unwrap();
        c.execute("CREATE ARRAY b (x INT DIMENSION[0:1:64], y INT DIMENSION[0:1:64], v INT)")
            .unwrap();
        c.execute("INSERT INTO b SELECT [x], [y], v FROM t").unwrap();
        for x in 0..w {
            for y in 0..h {
                let orig = c
                    .query(&format!("SELECT v FROM a WHERE x = {x} AND y = {y}"))
                    .unwrap()
                    .scalar()
                    .unwrap();
                let back = c
                    .query(&format!("SELECT v FROM b WHERE x = {x} AND y = {y}"))
                    .unwrap()
                    .scalar()
                    .unwrap();
                prop_assert_eq!(orig, back, "cell ({}, {})", x, y);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The tile oracle: every aggregate over int/lng/dbl cells on 1-, 2- and
// 3-D arrays with steps ±1 and ±2, against a native per-cell reference
// that reads tile bounds as dimension values.
// ---------------------------------------------------------------------

use gdk::types::{INT_NIL, LNG_NIL};
use gdk::{Bat, ScalarType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sciql::SessionConfig;
use sciql_catalog::DimSpec;

const AGGS: [&str; 5] = ["SUM", "COUNT", "AVG", "MIN", "MAX"];

/// One generated tiling: the array's dimensions as `(start, step, len)`,
/// its attribute type and cells (row-major; the type's nil sentinel, or
/// any NaN for `dbl`, is a hole), and the tile's value bounds
/// `[lo, hi)` per dimension relative to the anchor.
#[derive(Debug)]
struct TileCase {
    dims: Vec<(i64, i64, usize)>,
    ty: ScalarType,
    ints: Vec<i64>,
    dbls: Vec<f64>,
    tile: Vec<(i64, i64)>,
}

impl TileCase {
    fn generate(seed: u64) -> TileCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let ndims = rng.gen_range(1usize..=3);
        let max_len = [8, 5, 4][ndims - 1];
        let dims: Vec<(i64, i64, usize)> = (0..ndims)
            .map(|_| {
                let step = [1, -1, 2, -2][rng.gen_range(0usize..4)];
                (rng.gen_range(-4i64..=4), step, rng.gen_range(1..=max_len))
            })
            .collect();
        let tile = (0..ndims)
            .map(|_| {
                let lo = rng.gen_range(-3i64..=2);
                (lo, lo + rng.gen_range(1i64..=4))
            })
            .collect();
        let cells: usize = dims.iter().map(|d| d.2).product();
        let ty = [ScalarType::Int, ScalarType::Lng, ScalarType::Dbl][rng.gen_range(0usize..3)];
        // How often a `lng` cell is near its range's ends: a share of the
        // cases overflows, the rest sums.
        let big_p = [0.0, 0.1, 0.5][rng.gen_range(0usize..3)];
        let mut ints = Vec::new();
        let mut dbls = Vec::new();
        for _ in 0..cells {
            let hole = rng.gen_bool(0.2);
            match ty {
                ScalarType::Int => ints.push(if hole {
                    i64::from(INT_NIL)
                } else if rng.gen_bool(0.1) {
                    [i64::from(i32::MAX), i64::from(i32::MIN) + 1][rng.gen_range(0usize..2)]
                } else {
                    rng.gen_range(-20i64..20)
                }),
                ScalarType::Lng => ints.push(if hole {
                    LNG_NIL
                } else if rng.gen_bool(big_p) {
                    let big = [i64::MAX, i64::MIN + 1, 1 << 62, -(1 << 62), 1 << 61];
                    big[rng.gen_range(0usize..big.len())]
                } else {
                    rng.gen_range(-20i64..20)
                }),
                _ => dbls.push(if hole {
                    // The canonical nil, the hardware's default NaN and
                    // payload NaNs: every NaN is a hole.
                    let nans = [
                        f64::NAN,
                        f64::from_bits(0xFFF8_0000_0000_0000),
                        f64::from_bits(0x7FF0_0000_0000_0001),
                        f64::from_bits(0x7FF8_0000_0000_0123),
                    ];
                    nans[rng.gen_range(0usize..nans.len())]
                } else if rng.gen_bool(0.3) {
                    let edge = [
                        0.0,
                        -0.0,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        1e308,
                        -1e308,
                        0.1,
                        0.2,
                        0.3,
                        0.7,
                    ];
                    edge[rng.gen_range(0usize..edge.len())]
                } else {
                    // Tenths round, so the order of addition shows.
                    rng.gen_range(-80i64..80) as f64 / 10.0
                }),
            }
        }
        TileCase {
            dims,
            ty,
            ints,
            dbls,
            tile,
        }
    }

    fn dim_name(k: usize) -> String {
        format!("d{k}")
    }

    fn load(&self, c: &mut Connection) {
        let dims: Vec<(String, DimSpec)> = self
            .dims
            .iter()
            .enumerate()
            .map(|(k, &(start, step, len))| {
                let spec = DimSpec::new(start, step, start + step * len as i64).unwrap();
                (Self::dim_name(k), spec)
            })
            .collect();
        let dims: Vec<(&str, DimSpec)> = dims.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let col = match self.ty {
            ScalarType::Int => Bat::from_ints(self.ints.iter().map(|&x| x as i32).collect()),
            ScalarType::Lng => Bat::from_lngs(self.ints.clone()),
            _ => Bat::from_dbls(self.dbls.clone()),
        };
        c.bulk_load_array("a", &dims, vec![("v", col)]).unwrap();
    }

    /// `a[d0-1:d0+2][d1+1]…`: a point where the bounds hold one value.
    fn tile_sql(&self, agg: &str) -> String {
        let rel = |k: usize, o: i64| {
            let d = Self::dim_name(k);
            if o < 0 {
                format!("{d}-{}", -o)
            } else {
                format!("{d}+{o}")
            }
        };
        let dims: Vec<String> = (0..self.dims.len())
            .map(|k| format!("[{}]", Self::dim_name(k)))
            .collect();
        let idx: String = self
            .tile
            .iter()
            .enumerate()
            .map(|(k, &(lo, hi))| {
                if hi == lo + 1 {
                    format!("[{}]", rel(k, lo))
                } else {
                    format!("[{}:{}]", rel(k, lo), rel(k, hi))
                }
            })
            .collect();
        format!(
            "SELECT {}, {agg}(v) FROM a GROUP BY a{idx}",
            dims.join(", ")
        )
    }

    /// Each cell's dimension values, row-major.
    fn coords(&self) -> Vec<Vec<i64>> {
        let mut out: Vec<Vec<i64>> = vec![Vec::new()];
        for &(start, step, len) in &self.dims {
            out = out
                .into_iter()
                .flat_map(|c| {
                    (0..len as i64).map(move |i| {
                        let mut c = c.clone();
                        c.push(start + step * i);
                        c
                    })
                })
                .collect();
        }
        out
    }

    /// The reference: per anchor, the non-nil cells whose values lie in
    /// the tile's value box, folded in row-major order (which is the
    /// order of their positional offsets). `Err` when a `lng` running sum
    /// leaves the `lng` range or hits its nil.
    fn reference(&self, agg: &str) -> Result<Vec<Value>, ()> {
        let coords = self.coords();
        let mut out = Vec::with_capacity(coords.len());
        for anchor in &coords {
            let members: Vec<usize> = (0..coords.len())
                .filter(|&q| {
                    (coords[q].iter().zip(anchor).zip(&self.tile))
                        .all(|((&v, &a), &(lo, hi))| a + lo <= v && v < a + hi)
                })
                .filter(|&q| match self.ty {
                    ScalarType::Dbl => !self.dbls[q].is_nan(),
                    ScalarType::Int => self.ints[q] != i64::from(INT_NIL),
                    _ => self.ints[q] != LNG_NIL,
                })
                .collect();
            let n = members.len() as i64;
            out.push(match (agg, self.ty) {
                ("COUNT", _) => Value::Lng(n),
                (_, _) if n == 0 => Value::Null,
                ("SUM" | "AVG", ScalarType::Dbl) => {
                    let sum = members.iter().fold(0.0, |s, &q| s + self.dbls[q]);
                    let v = if agg == "AVG" { sum / n as f64 } else { sum };
                    if v.is_nan() {
                        Value::Null
                    } else {
                        Value::Dbl(v)
                    }
                }
                ("SUM" | "AVG", _) => {
                    let mut sum = 0i64;
                    for &q in &members {
                        sum = sum
                            .checked_add(self.ints[q])
                            .filter(|&s| s != LNG_NIL)
                            .ok_or(())?;
                    }
                    if agg == "AVG" {
                        Value::Dbl(sum as f64 / n as f64)
                    } else {
                        Value::Lng(sum)
                    }
                }
                (_, ty) => {
                    let min = agg == "MIN";
                    let best = |a: usize, b: usize| {
                        let better = if ty == ScalarType::Dbl {
                            let (x, y) = (self.dbls[b], self.dbls[a]);
                            if min {
                                x < y
                            } else {
                                x > y
                            }
                        } else {
                            let (x, y) = (self.ints[b], self.ints[a]);
                            if min {
                                x < y
                            } else {
                                x > y
                            }
                        };
                        if better {
                            b
                        } else {
                            a
                        }
                    };
                    let q = members.iter().copied().reduce(best).unwrap();
                    match ty {
                        ScalarType::Dbl => Value::Dbl(self.dbls[q]),
                        ScalarType::Int => Value::Int(self.ints[q] as i32),
                        _ => Value::Lng(self.ints[q]),
                    }
                }
            });
        }
        Ok(out)
    }
}

/// Values equal, `dbl`s bit for bit.
fn same_value(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::Dbl(a), Value::Dbl(b)) => a.to_bits() == b.to_bits(),
        _ => got == want,
    }
}

/// Values equal, with a `dbl` NaN read as NULL and `-0.0` as `0.0`.
fn same_number(got: &Value, want: &Value) -> bool {
    let norm = |v: &Value| match v {
        Value::Dbl(x) if x.is_nan() => Value::Null,
        Value::Dbl(x) if *x == 0.0 => Value::Dbl(0.0),
        v => v.clone(),
    };
    same_value(&norm(got), &norm(want))
}

fn tile_configs() -> Vec<SessionConfig> {
    let mut out = Vec::new();
    for opt_level in [0, 2] {
        for threads in [1, 8] {
            out.push(SessionConfig {
                threads,
                parallel_threshold: 1,
                opt_level,
                ..SessionConfig::default()
            });
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every tile aggregate equals the native reference, and its result
    /// pages (or its error) are byte-identical at opt{0,2} × threads{1,8}:
    /// the shift chain and `array.tileagg` agree bit for bit.
    #[test]
    fn tile_aggregates_match_the_native_reference(seed in proptest::prelude::any::<u64>()) {
        let case = TileCase::generate(seed);
        let mut conns: Vec<Connection> = tile_configs()
            .into_iter()
            .map(|cfg| {
                let mut c = Connection::with_config(cfg);
                case.load(&mut c);
                c
            })
            .collect();
        for agg in AGGS {
            let sql = case.tile_sql(agg);
            let want = case.reference(agg);
            let mut first: Option<Result<Vec<u8>, String>> = None;
            for (i, c) in conns.iter_mut().enumerate() {
                let got = result_pages(c, &sql);
                match (&want, &got) {
                    (Ok(want), Ok(_)) => {
                        let rs = c.query(&sql).unwrap();
                        let col = rs.column_count() - 1;
                        prop_assert_eq!(rs.row_count(), want.len(), "{}", sql);
                        for (r, w) in want.iter().enumerate() {
                            let g = rs.get(r, col);
                            prop_assert!(
                                same_value(&g, w),
                                "{:?} config {}: {} row {}: got {:?}, want {:?}",
                                case, i, sql, r, g, w
                            );
                        }
                    }
                    (Err(()), Err(e)) => {
                        prop_assert!(e.contains("integer overflow"), "{}: {}", sql, e);
                    }
                    _ => prop_assert!(false, "{:?} config {}: {}: got {:?}, want {:?}", case, i, sql, got.as_ref().err(), want.as_ref().err()),
                }
                // Pages at every configuration equal the first's; errors
                // agree up to the instruction that raised them.
                match (&first, &got) {
                    (None, _) => first = Some(got),
                    (Some(Ok(a)), Ok(b)) => prop_assert!(a == b, "{:?} config {}: {}: pages differ", case, i, sql),
                    (Some(Err(a)), Err(b)) => prop_assert_eq!(
                        a.rsplit(": ").next(), b.rsplit(": ").next(), "{}", sql
                    ),
                    _ => prop_assert!(false, "{}: outcome differs at config {}", sql, i),
                }
            }
        }
    }

    /// Metamorphic: the tile aggregate at each anchor equals the same
    /// aggregate over the slice `a[x+lo:x+hi]…` of that anchor's tile
    /// bounds. (AVG over BIGINT is left out: a tile adds it as `lng`, a
    /// plain aggregate as `dbl`.)
    #[test]
    fn tile_aggregates_equal_slice_aggregates(seed in proptest::prelude::any::<u64>()) {
        let case = TileCase::generate(seed);
        let mut c = Connection::with_config(SessionConfig {
            threads: 8,
            parallel_threshold: 1,
            ..SessionConfig::default()
        });
        case.load(&mut c);
        let coords = case.coords();
        for agg in AGGS {
            if agg == "AVG" && case.ty == ScalarType::Lng {
                continue;
            }
            let sql = case.tile_sql(agg);
            let Ok(rs) = c.query(&sql) else {
                prop_assert!(case.reference(agg).is_err(), "{}", sql);
                continue;
            };
            let col = rs.column_count() - 1;
            for (r, anchor) in coords.iter().enumerate() {
                let slices: String = (anchor.iter().zip(&case.tile))
                    .map(|(&a, &(lo, hi))| format!("[{}:{}]", a + lo, a + hi))
                    .collect();
                let slice_sql = format!("SELECT {agg}(v) FROM a{slices}");
                let want = c.query(&slice_sql).unwrap().scalar().unwrap();
                let got = rs.get(r, col);
                prop_assert!(
                    same_number(&got, &want),
                    "{:?}: {} at {:?} = {:?}, {} = {:?}", case, sql, anchor, got, slice_sql, want
                );
            }
        }
    }
}
