//! Differential oracle for cell DML.
//!
//! A seeded generator writes `UPDATE`, `INSERT … SELECT` and `DELETE`
//! statements over two small arrays (1–3 dimensions, non-zero starts,
//! steps other than 1, negative ranges) and one table, and runs each
//! statement twice: in the engine, and in a deliberately naive model —
//! every column a `Vec<Option<Value>>`, every statement a loop over cells,
//! no BATs and no MAL. After every statement the stored cells, the
//! `Affected` count or the error text must agree, at optimizer levels 0
//! and 2 × 1 and 8 threads.
//!
//! A statement's WHERE runs first, on every row; its other expressions
//! run only on the rows the WHERE selects, in the model as in the
//! engine. The generator writes expressions that overflow on some rows
//! (`2147483645 + x`, `x * 1000000000`) and keeps a statement whose
//! overflow falls only on rows its WHERE excludes: such a statement must
//! succeed. Only the store casts may fail: the generator rejects a
//! statement that overflows in its WHERE or on a selected row. After a
//! failed statement the model adopts the engine's state, so this suite
//! compares what a failure reports, not what it leaves behind
//! (`core::tests` pins that cell DML leaves nothing behind).

use gdk::{ScalarType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sciql::{Connection, QueryResult, SessionConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

const DIM_NAMES: [&str; 3] = ["x", "y", "z"];
/// The attributes of both arrays: name, type, default.
const ATTRS: [(&str, ScalarType, Option<f64>); 3] = [
    ("v", ScalarType::Int, Some(0.0)),
    ("w", ScalarType::Int, None),
    ("d", ScalarType::Dbl, Some(0.5)),
];
const ARRAYS: [&str; 2] = ["p", "q"];
/// The table's columns, both `INT`; `b` defaults to 5.
const TABLE_COLS: [&str; 2] = ["a", "b"];

// ---------------------------------------------------------------------
// Expressions: printed as SQL, evaluated by the model
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum E {
    Col(&'static str),
    Int(i32),
    Lng(i64),
    Dbl(f64),
    Null,
    Bin(Box<E>, char, Box<E>),
    Case(Vec<(C, E)>, Box<E>),
}

#[derive(Clone, Debug)]
enum C {
    Cmp(E, &'static str, E),
    And(Box<C>, Box<C>),
}

/// The model's overflow signal: the generator rejects such statements.
#[derive(Debug)]
struct Overflow;

/// Rows on which an expression overflowed but which the statement's
/// WHERE excluded, so the statement went ahead (only [`script`] reads
/// it, by difference).
static EXCLUDED_OVERFLOWS: AtomicUsize = AtomicUsize::new(0);

type Cell = Option<Value>;

fn bin(a: E, op: char, b: E) -> E {
    E::Bin(Box::new(a), op, Box::new(b))
}

/// An integer literal (negative ones as a subtraction).
fn lit(i: i64) -> E {
    if i >= 0 {
        E::Int(i as i32)
    } else {
        bin(E::Int(0), '-', E::Int(-i as i32))
    }
}

fn rank(t: ScalarType) -> u8 {
    match t {
        ScalarType::Int => 0,
        ScalarType::Lng => 1,
        _ => 2,
    }
}

fn wider(a: Option<ScalarType>, b: Option<ScalarType>) -> Option<ScalarType> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if rank(x) >= rank(y) { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// `v` as a value of type `t` (numeric widening only).
fn widen(v: Value, t: Option<ScalarType>) -> Value {
    match (v, t) {
        (Value::Int(i), Some(ScalarType::Lng)) => Value::Lng(i64::from(i)),
        (Value::Int(i), Some(ScalarType::Dbl)) => Value::Dbl(f64::from(i)),
        (Value::Lng(l), Some(ScalarType::Dbl)) => Value::Dbl(l as f64),
        (v, _) => v,
    }
}

fn col_type(name: &str) -> ScalarType {
    if name == "d" {
        ScalarType::Dbl
    } else {
        ScalarType::Int
    }
}

impl E {
    fn sql(&self) -> String {
        match self {
            E::Col(n) => (*n).to_owned(),
            E::Int(i) => i.to_string(),
            E::Lng(l) => l.to_string(),
            E::Dbl(d) => format!("{d:?}"),
            E::Null => "NULL".into(),
            E::Bin(a, op, b) => format!("({} {op} {})", a.sql(), b.sql()),
            E::Case(arms, other) => {
                let arms: String = arms
                    .iter()
                    .map(|(c, e)| format!("WHEN {} THEN {} ", c.sql(), e.sql()))
                    .collect();
                format!("CASE {arms}ELSE {} END", other.sql())
            }
        }
    }

    /// Static type (`None` for NULL), the way the engine promotes.
    fn ty(&self) -> Option<ScalarType> {
        match self {
            E::Col(n) => Some(col_type(n)),
            E::Int(_) => Some(ScalarType::Int),
            E::Lng(_) => Some(ScalarType::Lng),
            E::Dbl(_) => Some(ScalarType::Dbl),
            E::Null => None,
            E::Bin(a, _, b) => wider(a.ty(), b.ty()),
            E::Case(arms, other) => arms.iter().fold(other.ty(), |t, (_, e)| wider(e.ty(), t)),
        }
    }

    /// Evaluate over one row; every branch is evaluated, as the engine
    /// evaluates every branch over every row.
    fn eval(&self, env: &dyn Fn(&str) -> Cell) -> Result<Cell, Overflow> {
        Ok(match self {
            E::Col(n) => env(n),
            E::Int(i) => Some(Value::Int(*i)),
            E::Lng(l) => Some(Value::Lng(*l)),
            E::Dbl(d) => Some(Value::Dbl(*d)),
            E::Null => None,
            E::Bin(a, op, b) => {
                let (x, y) = (a.eval(env)?, b.eval(env)?);
                let (Some(x), Some(y)) = (x, y) else {
                    return Ok(None);
                };
                Some(arith(&x, *op, &y)?)
            }
            E::Case(arms, other) => {
                let ty = self.ty();
                let mut picked = None;
                for (c, e) in arms {
                    let (hit, v) = (c.eval(env)?, e.eval(env)?);
                    if picked.is_none() && hit == Some(true) {
                        picked = Some(v);
                    }
                }
                let other = other.eval(env)?;
                picked.unwrap_or(other).map(|v| widen(v, ty))
            }
        })
    }

    /// Does the expression read a column?
    fn reads(&self) -> bool {
        match self {
            E::Col(_) => true,
            E::Int(_) | E::Lng(_) | E::Dbl(_) | E::Null => false,
            E::Bin(a, _, b) => a.reads() || b.reads(),
            E::Case(arms, other) => {
                other.reads() || arms.iter().any(|(c, e)| c.reads() || e.reads())
            }
        }
    }

    /// The overflow of a part that reads no column: the engine computes
    /// such a part once, whichever rows the statement selects.
    fn check_constants(&self) -> Result<(), Overflow> {
        match self {
            E::Bin(a, _, b) if self.reads() => {
                a.check_constants()?;
                b.check_constants()
            }
            E::Case(arms, other) => {
                for (c, e) in arms {
                    c.check_constants()?;
                    e.check_constants()?;
                }
                other.check_constants()
            }
            e if !e.reads() => e.eval(&|_| None).map(|_| ()),
            _ => Ok(()),
        }
    }
}

fn arith(x: &Value, op: char, y: &Value) -> Result<Value, Overflow> {
    let i64_op = |a: i64, b: i64| match op {
        '+' => a.checked_add(b),
        '-' => a.checked_sub(b),
        _ => a.checked_mul(b),
    };
    Ok(match (x, y) {
        (Value::Dbl(_), _) | (_, Value::Dbl(_)) => {
            let (a, b) = (x.as_f64().unwrap(), y.as_f64().unwrap());
            Value::Dbl(match op {
                '+' => a + b,
                '-' => a - b,
                _ => a * b,
            })
        }
        (Value::Lng(_), _) | (_, Value::Lng(_)) => {
            Value::Lng(i64_op(x.as_i64().unwrap(), y.as_i64().unwrap()).ok_or(Overflow)?)
        }
        _ => {
            let r = i64_op(x.as_i64().unwrap(), y.as_i64().unwrap()).ok_or(Overflow)?;
            Value::Int(
                i32::try_from(r)
                    .ok()
                    .filter(|&r| r != i32::MIN)
                    .ok_or(Overflow)?,
            )
        }
    })
}

impl C {
    fn sql(&self) -> String {
        match self {
            C::Cmp(a, op, b) => format!("{} {op} {}", a.sql(), b.sql()),
            C::And(a, b) => format!("({} AND {})", a.sql(), b.sql()),
        }
    }

    fn reads(&self) -> bool {
        match self {
            C::Cmp(a, _, b) => a.reads() || b.reads(),
            C::And(a, b) => a.reads() || b.reads(),
        }
    }

    fn check_constants(&self) -> Result<(), Overflow> {
        match self {
            C::Cmp(a, _, b) => a.check_constants().and(b.check_constants()),
            C::And(a, b) => a.check_constants().and(b.check_constants()),
        }
    }

    /// Three-valued: `None` is unknown.
    fn eval(&self, env: &dyn Fn(&str) -> Cell) -> Result<Option<bool>, Overflow> {
        Ok(match self {
            C::Cmp(a, op, b) => {
                let (Some(x), Some(y)) = (a.eval(env)?, b.eval(env)?) else {
                    return Ok(None);
                };
                let ord = match (x.as_i64(), y.as_i64()) {
                    (Some(i), Some(j)) => i.cmp(&j),
                    _ => x
                        .as_f64()
                        .unwrap()
                        .partial_cmp(&y.as_f64().unwrap())
                        .unwrap(),
                };
                Some(match *op {
                    "=" => ord.is_eq(),
                    "<>" => ord.is_ne(),
                    "<" => ord.is_lt(),
                    "<=" => ord.is_le(),
                    ">" => ord.is_gt(),
                    _ => ord.is_ge(),
                })
            }
            C::And(a, b) => match (a.eval(env)?, b.eval(env)?) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
        })
    }
}

/// `v` stored into a `ty` column, or the value that does not fit.
fn store(v: Cell, ty: ScalarType) -> Result<Cell, Value> {
    let Some(v) = v else { return Ok(None) };
    Ok(Some(match (ty, &v) {
        (ScalarType::Dbl, _) => Value::Dbl(v.as_f64().unwrap()),
        (_, Value::Int(_)) => v,
        (_, Value::Lng(l)) => Value::Int(i32::try_from(*l).map_err(|_| v.clone())?),
        (_, Value::Dbl(f)) => {
            let r = f.round();
            if r < i32::MIN as f64 || r > i32::MAX as f64 {
                return Err(v);
            }
            Value::Int(r as i32)
        }
        _ => unreachable!("numeric values only"),
    })
    .filter(|v| *v != Value::Int(i32::MIN)))
}

fn cannot_store(v: &Value, ty: ScalarType) -> String {
    format!("kernel error: type mismatch: cannot store {v} into {ty} BAT")
}

// ---------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Dim {
    start: i64,
    step: i64,
    len: usize,
}

impl Dim {
    fn value(&self, i: usize) -> i64 {
        self.start + self.step * i as i64
    }
}

#[derive(Clone, Debug)]
struct ArrayModel {
    name: &'static str,
    dims: Vec<Dim>,
    /// Per attribute, per cell (row-major).
    attrs: Vec<Vec<Cell>>,
}

impl ArrayModel {
    fn cells(&self) -> usize {
        self.dims.iter().map(|d| d.len).product()
    }

    fn coords(&self, mut pos: usize) -> Vec<i64> {
        let mut out = vec![0; self.dims.len()];
        for (k, d) in self.dims.iter().enumerate().rev() {
            out[k] = d.value(pos % d.len);
            pos /= d.len;
        }
        out
    }

    fn position(&self, coords: &[i64]) -> Option<usize> {
        let mut pos = 0;
        for (d, &c) in self.dims.iter().zip(coords) {
            pos = pos * d.len + (0..d.len).find(|&i| d.value(i) == c)?;
        }
        Some(pos)
    }

    fn lookup(&self, pos: usize, name: &str) -> Cell {
        if let Some(k) = DIM_NAMES[..self.dims.len()].iter().position(|n| *n == name) {
            return Some(Value::Int(self.coords(pos)[k] as i32));
        }
        let k = ATTRS.iter().position(|a| a.0 == name).expect("known name");
        self.attrs[k][pos].clone()
    }

    fn create_sql(&self) -> String {
        let dims: Vec<String> = self
            .dims
            .iter()
            .zip(DIM_NAMES)
            .map(|(d, n)| {
                format!(
                    "{n} INT DIMENSION[{}:{}:{}]",
                    d.start,
                    d.step,
                    d.value(d.len)
                )
            })
            .collect();
        format!(
            "CREATE ARRAY {} ({}, v INT DEFAULT 0, w INT, d DOUBLE DEFAULT 0.5)",
            self.name,
            dims.join(", ")
        )
    }
}

#[derive(Clone, Debug)]
struct Model {
    arrays: Vec<ArrayModel>,
    /// The table, per column.
    table: Vec<Vec<Cell>>,
}

#[derive(Clone, Debug)]
enum Stmt {
    Update {
        arr: usize,
        sets: Vec<(usize, E)>,
        filter: Option<C>,
    },
    Delete {
        arr: usize,
        filter: Option<C>,
    },
    InsertSelect {
        into: usize,
        from: usize,
        dims: Vec<E>,
        vals: Vec<E>,
        filter: Option<C>,
    },
    TableUpdate {
        col: usize,
        value: E,
        filter: Option<C>,
    },
    TableDelete {
        filter: Option<C>,
    },
    /// `INSERT INTO t [(b)] SELECT … FROM array`: `vals` fill the table
    /// columns positionally, or only `b` when there is one.
    TableInsertSelect {
        from: usize,
        vals: Vec<E>,
        filter: Option<C>,
    },
    /// `INSERT INTO t VALUES …`: a value past INT fails the statement.
    TableValues(Vec<[i64; 2]>),
}

fn where_sql(filter: &Option<C>) -> String {
    filter
        .as_ref()
        .map(|c| format!(" WHERE {}", c.sql()))
        .unwrap_or_default()
}

fn list(es: &[E]) -> String {
    es.iter().map(E::sql).collect::<Vec<_>>().join(", ")
}

impl Stmt {
    fn sql(&self) -> String {
        match self {
            Stmt::Update { arr, sets, filter } => {
                let sets: Vec<String> = sets
                    .iter()
                    .map(|(k, e)| format!("{} = {}", ATTRS[*k].0, e.sql()))
                    .collect();
                format!(
                    "UPDATE {} SET {}{}",
                    ARRAYS[*arr],
                    sets.join(", "),
                    where_sql(filter)
                )
            }
            Stmt::Delete { arr, filter } => {
                format!("DELETE FROM {}{}", ARRAYS[*arr], where_sql(filter))
            }
            Stmt::InsertSelect {
                into,
                from,
                dims,
                vals,
                filter,
            } => {
                let dims: Vec<String> = dims.iter().map(|e| format!("[{}]", e.sql())).collect();
                format!(
                    "INSERT INTO {} SELECT {}, {} FROM {}{}",
                    ARRAYS[*into],
                    dims.join(", "),
                    list(vals),
                    ARRAYS[*from],
                    where_sql(filter)
                )
            }
            Stmt::TableUpdate { col, value, filter } => format!(
                "UPDATE t SET {} = {}{}",
                TABLE_COLS[*col],
                value.sql(),
                where_sql(filter)
            ),
            Stmt::TableDelete { filter } => format!("DELETE FROM t{}", where_sql(filter)),
            Stmt::TableInsertSelect { from, vals, filter } => format!(
                "INSERT INTO t {}SELECT {} FROM {}{}",
                if vals.len() == 1 { "(b) " } else { "" },
                list(vals),
                ARRAYS[*from],
                where_sql(filter)
            ),
            Stmt::TableValues(rows) => {
                let rows: Vec<String> = rows.iter().map(|[a, b]| format!("({a}, {b})")).collect();
                format!("INSERT INTO t VALUES {}", rows.join(", "))
            }
        }
    }
}

/// Selected rows, each with the values of a statement's expressions.
type Hits = Vec<(usize, Vec<Cell>)>;

/// The rows of `n` (read through `lookup(row, name)`) that `filter`
/// selects, with `es` evaluated on each. The filter is evaluated on every
/// row, the expressions only on the rows it selects: an overflow in the
/// filter, on a selected row or in a part that reads no column rejects
/// the statement; one on an excluded row is only counted.
fn scan(
    n: usize,
    lookup: impl Fn(usize, &str) -> Cell,
    es: &[&E],
    filter: &Option<C>,
) -> Result<Hits, Overflow> {
    for e in es {
        e.check_constants()?;
    }
    if let Some(c) = filter {
        c.check_constants()?;
    }
    let mut out = Vec::new();
    for row in 0..n {
        let env = |name: &str| lookup(row, name);
        let hit = match filter {
            Some(c) => c.eval(&env)? == Some(true),
            None => true,
        };
        let vals = es
            .iter()
            .map(|e| e.eval(&env))
            .collect::<Result<Vec<_>, _>>();
        match (hit, vals) {
            (true, vals) => out.push((row, vals?)),
            (false, Err(Overflow)) => {
                EXCLUDED_OVERFLOWS.fetch_add(1, Ordering::Relaxed);
            }
            (false, Ok(_)) => {}
        }
    }
    Ok(out)
}

/// [`scan`] over every cell of `arr`.
fn scan_array(arr: &ArrayModel, es: &[&E], filter: &Option<C>) -> Result<Hits, Overflow> {
    scan(arr.cells(), |pos, n| arr.lookup(pos, n), es, filter)
}

/// [`scan`] over the table's rows.
fn scan_table(table: &[Vec<Cell>], es: &[&E], filter: &Option<C>) -> Result<Hits, Overflow> {
    let col = |n: &str| TABLE_COLS.iter().position(|c| *c == n).unwrap();
    scan(
        table[0].len(),
        |row, n| table[col(n)][row].clone(),
        es,
        filter,
    )
}

impl Model {
    /// Apply `stmt`: the `Affected` count or the error text. `Err(None)`
    /// means an expression overflowed (the generator rejects those).
    fn apply(&mut self, stmt: &Stmt) -> Result<Result<usize, String>, Overflow> {
        match stmt {
            Stmt::Update { arr, sets, filter } => {
                let a = &self.arrays[*arr];
                let es: Vec<&E> = sets.iter().map(|(_, e)| e).collect();
                let hits = scan_array(a, &es, filter)?;
                let mut writes = Vec::new();
                for (k, (attr, _)) in sets.iter().enumerate() {
                    for (pos, vals) in &hits {
                        match store(vals[k].clone(), ATTRS[*attr].1) {
                            Ok(v) => writes.push((*attr, *pos, v)),
                            Err(bad) => return Ok(Err(cannot_store(&bad, ATTRS[*attr].1))),
                        }
                    }
                }
                let a = &mut self.arrays[*arr];
                for (attr, pos, v) in writes {
                    a.attrs[attr][pos] = v;
                }
                Ok(Ok(hits.len()))
            }
            Stmt::Delete { arr, filter } => {
                let hits = scan_array(&self.arrays[*arr], &[], filter)?;
                let a = &mut self.arrays[*arr];
                for (pos, _) in &hits {
                    for attr in &mut a.attrs {
                        attr[*pos] = None;
                    }
                }
                Ok(Ok(hits.len()))
            }
            Stmt::InsertSelect {
                into,
                from,
                dims,
                vals,
                filter,
            } => {
                let es: Vec<&E> = dims.iter().chain(vals).collect();
                let rows = scan_array(&self.arrays[*from], &es, filter)?;
                let target = &self.arrays[*into];
                let nd = target.dims.len();
                if rows.is_empty() {
                    return Ok(Err(format!(
                        "INSERT into array needs at least {} columns (dims + one attribute)",
                        nd + 1
                    )));
                }
                let mut writes = Vec::new();
                for (_, row) in &rows {
                    let coords: Option<Vec<i64>> = row[..nd]
                        .iter()
                        .map(|c| match c {
                            Some(Value::Int(i)) => Some(i64::from(*i)),
                            Some(Value::Lng(l)) => Some(*l),
                            _ => None,
                        })
                        .collect();
                    let Some(coords) = coords else {
                        return Ok(Err("dimension value must be integral".into()));
                    };
                    let Some(pos) = target.position(&coords) else {
                        return Ok(Err(format!(
                            "cell {coords:?} is outside the dimension ranges of {:?}",
                            target.name
                        )));
                    };
                    for (attr, v) in row[nd..].iter().enumerate().take(ATTRS.len()) {
                        match store(v.clone(), ATTRS[attr].1) {
                            Ok(v) => writes.push((attr, pos, v)),
                            Err(bad) => return Ok(Err(cannot_store(&bad, ATTRS[attr].1))),
                        }
                    }
                }
                let target = &mut self.arrays[*into];
                for (attr, pos, v) in writes {
                    target.attrs[attr][pos] = v;
                }
                Ok(Ok(rows.len()))
            }
            Stmt::TableUpdate { col, value, filter } => {
                let hits = scan_table(&self.table, &[value], filter)?;
                let mut writes = Vec::new();
                for (row, vals) in &hits {
                    match store(vals[0].clone(), ScalarType::Int) {
                        Ok(v) => writes.push((*row, v)),
                        Err(bad) => return Ok(Err(cannot_store(&bad, ScalarType::Int))),
                    }
                }
                for (row, v) in writes {
                    self.table[*col][row] = v;
                }
                Ok(Ok(hits.len()))
            }
            Stmt::TableDelete { filter } => {
                let hits = scan_table(&self.table, &[], filter)?;
                let gone: Vec<usize> = hits.iter().map(|(r, _)| *r).collect();
                for col in &mut self.table {
                    let mut row = 0;
                    col.retain(|_| {
                        row += 1;
                        !gone.contains(&(row - 1))
                    });
                }
                Ok(Ok(gone.len()))
            }
            Stmt::TableInsertSelect { from, vals, filter } => {
                let es: Vec<&E> = vals.iter().collect();
                let rows = scan_array(&self.arrays[*from], &es, filter)?;
                let slots: Vec<usize> = if vals.len() == 1 { vec![1] } else { vec![0, 1] };
                let mut appended = Vec::new();
                for (_, row) in &rows {
                    let mut full = vec![None, Some(Value::Int(5))];
                    for (v, &slot) in row.iter().zip(&slots) {
                        match store(v.clone(), ScalarType::Int) {
                            Ok(v) => full[slot] = v,
                            Err(bad) => {
                                return Ok(Err(format!(
                                    "value {bad} does not fit column {:?} (int)",
                                    TABLE_COLS[slot]
                                )))
                            }
                        }
                    }
                    appended.push(full);
                }
                for full in appended {
                    for (col, v) in self.table.iter_mut().zip(full) {
                        col.push(v);
                    }
                }
                Ok(Ok(rows.len()))
            }
            Stmt::TableValues(rows) => {
                // Every row is converted before the one append.
                let cells = rows.iter().flat_map(|r| r.iter().enumerate());
                if let Some((slot, bad)) = cells.clone().find(|(_, v)| i32::try_from(**v).is_err())
                {
                    return Ok(Err(format!(
                        "value {bad} does not fit column {:?} (int)",
                        TABLE_COLS[slot]
                    )));
                }
                for (slot, v) in cells {
                    self.table[slot].push(Some(Value::Int(*v as i32)));
                }
                Ok(Ok(rows.len()))
            }
        }
    }

    /// The engine's stored state, in the model's shape.
    fn read(&mut self, conn: &Connection) {
        for a in &mut self.arrays {
            let store = conn.array_store(a.name).unwrap();
            a.attrs = store.attrs.iter().map(|b| cells(b)).collect();
        }
        let t = conn.table_store("t").unwrap();
        self.table = t.cols.iter().map(|b| cells(b)).collect();
    }
}

fn cells(b: &gdk::Bat) -> Vec<Cell> {
    b.iter_values()
        .map(|v| (!v.is_null()).then_some(v))
        .collect()
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn gen_e(rng: &mut StdRng, names: &[&'static str], depth: u32) -> E {
    match rng.gen_range(0..if depth == 0 { 3 } else { 7 }) {
        0 | 1 => E::Col(pick(rng, names)),
        2 => E::Int(rng.gen_range(0..6)),
        3 | 4 => bin(
            gen_e(rng, names, depth - 1),
            pick(rng, &['+', '-']),
            gen_e(rng, names, depth - 1),
        ),
        5 => bin(
            gen_e(rng, names, depth - 1),
            '*',
            E::Int(rng.gen_range(0..3)),
        ),
        _ => {
            let arms = (0..rng.gen_range(1..3))
                .map(|_| (gen_c(rng, names), gen_e(rng, names, depth - 1)))
                .collect();
            E::Case(arms, Box::new(gen_e(rng, names, depth - 1)))
        }
    }
}

/// A condition; usually its left side reads a column, sometimes it is
/// a constant comparison the code generator folds away (the `CASE` keeps
/// the folded arm's type all the same).
fn gen_c(rng: &mut StdRng, names: &[&'static str]) -> C {
    if rng.gen_bool(0.15) {
        return C::Cmp(
            E::Int(rng.gen_range(0..4)),
            pick(rng, &["=", "<>", "<"]),
            E::Int(rng.gen_range(0..4)),
        );
    }
    let col = E::Col(pick(rng, names));
    let cmp = C::Cmp(
        if rng.gen_bool(0.5) {
            col
        } else {
            bin(col, pick(rng, &['+', '-']), gen_e(rng, names, 0))
        },
        pick(rng, &["=", "<>", "<", "<=", ">", ">="]),
        gen_e(rng, names, 1),
    );
    if rng.gen_bool(0.2) {
        C::And(Box::new(cmp), Box::new(gen_c(rng, names)))
    } else {
        cmp
    }
}

/// No filter, a random one, one on a single value of the first column,
/// or (rarely) one nothing passes.
fn gen_filter(rng: &mut StdRng, names: &[&'static str]) -> Option<C> {
    match rng.gen_range(0..20) {
        0..=6 => None,
        7 => Some(C::Cmp(E::Col(names[0]), ">", E::Int(1000))),
        8..=12 => Some(C::Cmp(E::Col(names[0]), "=", lit(rng.gen_range(-3..4)))),
        _ => Some(gen_c(rng, names)),
    }
}

/// A value to store: sometimes `lng` or `dbl`, so the store cast rounds
/// or overflows, and sometimes an `int` sum or product that overflows on
/// some rows.
fn gen_value(rng: &mut StdRng, names: &[&'static str], null_ok: bool) -> E {
    let e = gen_e(rng, names, 2);
    match rng.gen_range(0..16) {
        6 | 7 => bin(E::Int(2_147_483_645), '+', E::Col(pick(rng, names))),
        8 | 9 => bin(E::Col(pick(rng, names)), '*', E::Int(1_000_000_000)),
        0 => bin(e, '+', E::Lng(3_000_000_000)),
        1 => bin(e, '*', E::Dbl(1e10)),
        2 => bin(e, '+', E::Dbl(0.5)),
        3 => bin(e, '*', E::Dbl(1.5)),
        4 => bin(
            bin(e, '+', E::Lng(3_000_000_000)),
            '-',
            E::Lng(3_000_000_000),
        ),
        5 if null_ok => E::Null,
        _ => e,
    }
}

fn array_names(arr: &ArrayModel) -> Vec<&'static str> {
    DIM_NAMES[..arr.dims.len()]
        .iter()
        .copied()
        .chain(ATTRS.iter().map(|a| a.0))
        .collect()
}

fn gen_stmt(rng: &mut StdRng, m: &Model) -> Stmt {
    let arr = rng.gen_range(0..2);
    let names = array_names(&m.arrays[arr]);
    match rng.gen_range(0..20) {
        0..=5 => {
            let first = rng.gen_range(0..ATTRS.len());
            let mut sets = vec![(first, gen_value(rng, &names, true))];
            if rng.gen_bool(0.3) {
                sets.push(((first + 1) % ATTRS.len(), gen_value(rng, &names, true)));
            }
            Stmt::Update {
                arr,
                sets,
                filter: gen_filter(rng, &names),
            }
        }
        6 | 7 => Stmt::Delete {
            arr,
            filter: gen_filter(rng, &names),
        },
        8..=13 => {
            // From itself or from the other array (same dimensionality,
            // other ranges).
            let from = if rng.gen_bool(0.7) { arr } else { 1 - arr };
            let src = &m.arrays[from];
            let nd = src.dims.len();
            let dims = (0..nd)
                .map(|k| match rng.gen_range(0..10) {
                    0 | 1 => {
                        // shifted by one grid step (or one unit)
                        let d = &src.dims[k];
                        bin(E::Col(DIM_NAMES[k]), '+', lit(pick(rng, &[d.step, 1, -1])))
                    }
                    2 => E::Col(DIM_NAMES[(k + 1) % nd]), // permuted
                    3 => {
                        // every row onto one cell of this dimension
                        let d = &m.arrays[arr].dims[k];
                        let c = d.value(rng.gen_range(0..d.len));
                        bin(bin(E::Col(DIM_NAMES[k]), '*', E::Int(0)), '+', lit(c))
                    }
                    4 if rng.gen_bool(0.3) => bin(E::Col(DIM_NAMES[k]), '*', E::Dbl(1.0)),
                    _ => E::Col(DIM_NAMES[k]),
                })
                .collect();
            let src_names = array_names(src);
            let vals = (0..rng.gen_range(1..=ATTRS.len()))
                .map(|_| gen_value(rng, &src_names, false))
                .collect();
            Stmt::InsertSelect {
                into: arr,
                from,
                dims,
                vals,
                filter: gen_filter(rng, &src_names),
            }
        }
        14 | 15 => {
            let vals = (0..rng.gen_range(1..3))
                .map(|_| gen_value(rng, &names, false))
                .collect();
            Stmt::TableInsertSelect {
                from: arr,
                vals,
                filter: gen_filter(rng, &names),
            }
        }
        16 | 17 => Stmt::TableUpdate {
            col: rng.gen_range(0..2),
            value: gen_value(rng, &TABLE_COLS, true),
            filter: gen_filter(rng, &TABLE_COLS),
        },
        18 => Stmt::TableDelete {
            filter: gen_filter(rng, &TABLE_COLS),
        },
        _ => {
            let rows = rng.gen_range(1..4);
            // Now and then a value that does not fit INT.
            let mut value = || match rng.gen_range(0..12) {
                0 => 3_000_000_000,
                _ => rng.gen_range(-5..6),
            };
            Stmt::TableValues((0..rows).map(|_| [value(), value()]).collect())
        }
    }
}

fn gen_world(rng: &mut StdRng) -> Model {
    let nd = rng.gen_range(1..=3);
    let arrays = ARRAYS
        .iter()
        .map(|&name| {
            let dims: Vec<Dim> = (0..nd)
                .map(|_| Dim {
                    start: rng.gen_range(-3..4),
                    step: pick(rng, &[1, 1, 2, 3, -1, -2]),
                    len: rng.gen_range(1..=4),
                })
                .collect();
            let cells = dims.iter().map(|d| d.len).product();
            let attrs = ATTRS
                .iter()
                .map(|(_, ty, default)| {
                    let v = default.map(|d| match ty {
                        ScalarType::Dbl => Value::Dbl(d),
                        _ => Value::Int(d as i32),
                    });
                    vec![v; cells]
                })
                .collect();
            ArrayModel { name, dims, attrs }
        })
        .collect();
    Model {
        arrays,
        table: vec![Vec::new(), Vec::new()],
    }
}

// ---------------------------------------------------------------------
// The differential run
// ---------------------------------------------------------------------

const SEEDS: u64 = 40;
const STMTS: usize = 14;

fn configs() -> Vec<SessionConfig> {
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

/// One seed's starting state and statement script, generated against the
/// model alone so every configuration runs the same script, plus how
/// many of its statements overflow only on rows their WHERE excludes. A
/// statement that overflows anywhere else is drawn again.
fn script(seed: u64) -> (Model, Vec<Stmt>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = gen_world(&mut rng);
    let mut model = start.clone();
    let (mut steps, mut excluded) = (Vec::new(), 0);
    while steps.len() < STMTS {
        let stmt = gen_stmt(&mut rng, &model);
        let mut next = model.clone();
        let before = EXCLUDED_OVERFLOWS.load(Ordering::Relaxed);
        if let Ok(outcome) = next.apply(&stmt) {
            excluded += usize::from(EXCLUDED_OVERFLOWS.load(Ordering::Relaxed) > before);
            if outcome.is_ok() {
                model = next;
            }
            steps.push(stmt);
        }
    }
    (start, steps, excluded)
}

#[test]
fn cell_dml_matches_the_naive_model() {
    let (mut failures, mut statements, mut excluded) = (0, 0, 0);
    for seed in 0..SEEDS {
        let (start, steps, overflowing) = script(seed);
        excluded += overflowing;
        for cfg in configs() {
            let mut conn = Connection::with_config(cfg);
            for a in &start.arrays {
                conn.execute(&a.create_sql()).unwrap();
            }
            conn.execute("CREATE TABLE t (a INT, b INT DEFAULT 5)")
                .unwrap();
            let mut model = start.clone();
            for stmt in &steps {
                let sql = stmt.sql();
                let ctx = format!(
                    "seed {seed}, opt {}, threads {}: {sql}",
                    cfg.opt_level, cfg.threads
                );
                let mut next = model.clone();
                let want = next.apply(stmt);
                let got = match conn.execute(&sql) {
                    Ok(QueryResult::Affected(n)) => Ok(n),
                    Ok(QueryResult::Rows(_)) => panic!("{ctx}: returned rows"),
                    Err(e) => Err(e.to_string()),
                };
                statements += 1;
                // Only reachable once the model adopted a state the
                // script was not generated against.
                let Ok(want) = want else {
                    model.read(&conn);
                    continue;
                };
                assert_eq!(got, want, "{ctx}");
                // A failed statement applies nothing: the model stays.
                match got {
                    Ok(_) => model = next,
                    Err(_) => failures += 1,
                }
                let mut engine = model.clone();
                engine.read(&conn);
                assert_eq!(
                    format!("{:?}", engine.arrays),
                    format!("{:?}", model.arrays),
                    "{ctx}: array cells"
                );
                assert_eq!(engine.table, model.table, "{ctx}: table rows");
            }
        }
    }
    // The generator must reach the failure paths, but not live there.
    assert!(
        failures > 0 && failures < statements / 2,
        "{failures} of {statements} statements failed"
    );
    assert!(
        excluded >= SEEDS as usize / 4,
        "only {excluded} statements overflow on rows their WHERE excludes"
    );
}
