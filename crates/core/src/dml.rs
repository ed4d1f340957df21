//! DML executors: INSERT / UPDATE / DELETE over tables *and* arrays.
//!
//! On arrays the semantics follow §2 of the paper: all cells always exist,
//! so INSERT overwrites cells at the given positions, DELETE punches NULL
//! holes, and UPDATE may use dimensions as bound variables in guarded
//! (CASE) expressions.
//!
//! The executors never leave the column world: a WHERE becomes a
//! candidate list the way a SELECT's filter does, before any SET
//! expression runs, and SET runs only at those rows; SET and SELECT
//! result columns are converted to their target types whole, and the
//! statement reaches the store as one record — the positions and the
//! stored-type values it writes — through `Connection::change`, which
//! also logs that record. Statements are all-or-nothing: every position
//! and every conversion is checked before the first write.

use crate::session::Connection;
use crate::storage::{coerce, converted, ArrayStore, ColumnWrites};
use crate::{EngineError, Result};
use gdk::bat::cannot_store;
use gdk::{project, Bat, Candidates, Oid, ScalarType, Value};
use mal::MalValue;
use sciql_algebra::{compile_cells, eval_const, Binder};
use sciql_catalog::{ArrayDef, SchemaObject, TableDef};
use sciql_obs::Tracer;
use sciql_parser::ast::{DimRange, Expr, InsertSource, Literal, Stmt};
use sciql_store::ReplayOp;
use std::sync::Arc;

const NOT_INTEGRAL: &str = "dimension value must be integral";

/// A failure at `row`, kept if no earlier row has failed: the statement
/// reports the failure a row-by-row executor would have hit first.
fn keep_first(
    failed: &mut Option<(usize, EngineError)>,
    row: usize,
    e: impl FnOnce() -> EngineError,
) {
    if failed.as_ref().is_none_or(|(r, _)| row < *r) {
        *failed = Some((row, e()));
    }
}

/// The rows an INSERT writes, as groups of aligned columns: a query
/// result is one group, a VALUES list one single-row group per row (each
/// value a column of its own type).
type RowGroups = Vec<Vec<Arc<Bat>>>;

fn group_rows(cols: &[Arc<Bat>]) -> usize {
    cols.first().map_or(0, |b| b.len())
}

/// Cell positions and attribute columns (converted to the stored types)
/// of one group of INSERT rows. `dim_slots` names the group's column per
/// dimension, `attrs` pairs a column with the attribute it fills. The
/// earliest failing row fails the group; within a row the dimensions fail
/// first, then the attributes in column order.
fn check_cells(
    store: &ArrayStore,
    table: &str,
    cols: &[Arc<Bat>],
    dim_slots: &[usize],
    attrs: &[(usize, usize)],
) -> Result<(Vec<Oid>, ColumnWrites)> {
    let n = group_rows(cols);
    if n == 0 {
        return Ok(Default::default());
    }
    let dims = dim_slots
        .iter()
        .map(|&s| cols.get(s).map(|b| &**b))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| EngineError::msg(NOT_INTEGRAL))?;
    let (pos, mut failed) = match store.def.cell_positions(n, &dims) {
        Ok(pos) => (pos, None),
        Err(row) => {
            let e = match dims
                .iter()
                .map(|b| b.i64_at(row))
                .collect::<Option<Vec<_>>>()
            {
                None => EngineError::msg(NOT_INTEGRAL),
                Some(c) => EngineError::msg(format!(
                    "cell {c:?} is outside the dimension ranges of {table:?}"
                )),
            };
            (Vec::new(), Some((row, e)))
        }
    };
    let writes = convert_attrs(store, cols, attrs, &mut failed);
    match failed {
        Some((_, e)) => Err(e),
        None => Ok((pos, writes)),
    }
}

/// The attribute columns of one group of INSERT rows converted to the
/// stored types; a failing row is kept in `failed` (see [`keep_first`]).
fn convert_attrs(
    store: &ArrayStore,
    cols: &[Arc<Bat>],
    attrs: &[(usize, usize)],
    failed: &mut Option<(usize, EngineError)>,
) -> ColumnWrites {
    let mut writes = Vec::with_capacity(attrs.len());
    for &(slot, attr) in attrs {
        let ty = store.attrs[attr].tail_type();
        match cols.get(slot).map(|b| coerce(b, ty)) {
            Some(Ok(values)) => writes.push((attr, values)),
            Some(Err(row)) => keep_first(failed, row, || {
                cannot_store(&cols[slot].get(row), ty).into()
            }),
            None => keep_first(failed, 0, || EngineError::msg("row too short")),
        }
    }
    writes
}

impl Connection {
    // ------------------------------------------------------------------
    // UPDATE
    // ------------------------------------------------------------------

    /// The rows `filter` selects in `table` (every row without one) and
    /// `exprs` at those rows, against its current state. The WHERE runs
    /// first, through the path a SELECT's takes, so an expression is
    /// evaluated, and can fail, only on the rows it selects.
    fn select_rows(
        &mut self,
        table: &str,
        exprs: &[&Expr],
        filter: Option<&Expr>,
    ) -> Result<(Candidates, Vec<Arc<Bat>>)> {
        let prog = {
            let binder = Binder::new(self.catalog());
            let (scan, scope) = binder.scope_for(table)?;
            let bind = |e: &Expr| binder.bind_expr(&scope, e);
            let items = exprs
                .iter()
                .map(|e| bind(e))
                .collect::<std::result::Result<Vec<_>, _>>()?;
            let pred = filter.map(bind).transpose()?;
            compile_cells(&scan, pred.as_ref(), &items, &self.image.codegen)?
        };
        let mut outs = self.run_cells(prog)?.into_iter();
        let at = match filter.and_then(|_| outs.next()) {
            Some(MalValue::Cand(c)) => Some(Arc::unwrap_or_clone(c)),
            Some(v) => return Err(EngineError::msg(format!("cell positions: {}", v.kind()))),
            None => None,
        };
        let values = outs
            .map(|v| Ok(Arc::clone(v.as_bat()?)))
            .collect::<Result<Vec<_>>>()?;
        let n = values.first().map_or(0, |b| b.len());
        Ok((at.unwrap_or_else(|| Candidates::all(n)), values))
    }

    /// The stored columns of `table`: an array's attributes or a table's
    /// columns.
    pub(crate) fn stored(&self, table: &str) -> Result<&[Arc<Bat>]> {
        self.catalog().get(table).map_err(EngineError::Catalog)?;
        let key = table.to_ascii_lowercase();
        match (self.image.arrays.get(&key), self.image.tables.get(&key)) {
            (Some(a), _) => Ok(&a.attrs),
            (_, Some(t)) => Ok(&t.cols),
            _ => Err(EngineError::msg(format!("{table:?} is not materialised"))),
        }
    }

    /// Store `writes` at `at` in `table` as one logged change, each
    /// column converted first to the stored type of the column it goes to.
    pub(crate) fn write(
        &mut self,
        table: &str,
        at: Candidates,
        writes: ColumnWrites,
        tracer: &mut Tracer,
    ) -> Result<()> {
        let columns = converted(self.stored(table)?, writes)?;
        let target = table.to_owned();
        self.change(
            ReplayOp::Write {
                target,
                at,
                columns,
            },
            Some(tracer),
        )
    }

    pub(crate) fn update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<&Expr>,
        tracer: &mut Tracer,
    ) -> Result<usize> {
        let targets = sets
            .iter()
            .map(|(col, _)| self.resolve_update_target(table, col))
            .collect::<Result<Vec<_>>>()?;
        let exprs: Vec<&Expr> = sets.iter().map(|(_, e)| e).collect();
        let (at, values) = self.select_rows(table, &exprs, filter)?;
        let n = at.len();
        if n > 0 {
            self.write(table, at, targets.into_iter().zip(values).collect(), tracer)?;
        }
        Ok(n)
    }

    fn resolve_update_target(&self, table: &str, col: &str) -> Result<usize> {
        match self.catalog().get(table).map_err(EngineError::Catalog)? {
            SchemaObject::Array(a) => {
                if a.dim_index(col).is_some() {
                    return Err(EngineError::msg(format!(
                        "cannot UPDATE dimension {col:?}; use ALTER ARRAY to change ranges"
                    )));
                }
                a.attr_index(col).ok_or_else(|| {
                    EngineError::msg(format!("array {table:?} has no attribute {col:?}"))
                })
            }
            SchemaObject::Table(t) => t
                .column_index(col)
                .ok_or_else(|| EngineError::msg(format!("table {table:?} has no column {col:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // DELETE
    // ------------------------------------------------------------------

    /// DELETE: the selected cells of an array become holes, the selected
    /// rows of a table go.
    pub(crate) fn delete(
        &mut self,
        table: &str,
        filter: Option<&Expr>,
        tracer: &mut Tracer,
    ) -> Result<usize> {
        let at = match filter {
            Some(f) => self.select_rows(table, &[], Some(f))?.0,
            None => Candidates::all(group_rows(self.stored(table)?)),
        };
        let n = at.len();
        if n > 0 {
            let target = table.to_owned();
            self.change(ReplayOp::Delete { target, at }, Some(tracer))?;
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // INSERT
    // ------------------------------------------------------------------

    pub(crate) fn insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
        tracer: &mut Tracer,
    ) -> Result<usize> {
        // Read every row first: INSERT INTO t SELECT … FROM t must see the
        // pre-insert state.
        let groups: RowGroups = match source {
            InsertSource::Values(rows) => rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|e| {
                            let v = eval_const(e)?;
                            let ty = v.scalar_type().unwrap_or(ScalarType::Int);
                            Ok(Arc::new(Bat::from_values(ty, &[v])?))
                        })
                        .collect()
                })
                .collect::<Result<_>>()?,
            InsertSource::Select(sel) => vec![self.run_select(sel)?.bats],
        };
        match self
            .catalog()
            .get(table)
            .map_err(EngineError::Catalog)?
            .clone()
        {
            SchemaObject::Table(def) => {
                self.insert_into_table(table, &def, columns, &groups, tracer)
            }
            SchemaObject::Array(def) => {
                self.insert_into_array(table, &def, columns, &groups, tracer)
            }
        }
    }

    /// Table INSERT: every row group is converted — unlisted columns take
    /// their defaults — before the one append, so a row that does not fit
    /// fails the statement and appends nothing.
    fn insert_into_table(
        &mut self,
        table: &str,
        def: &TableDef,
        columns: Option<&[String]>,
        groups: &RowGroups,
        tracer: &mut Tracer,
    ) -> Result<usize> {
        let mapping: Vec<usize> = match columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    def.column_index(c).ok_or_else(|| {
                        EngineError::msg(format!("table {table:?} has no column {c:?}"))
                    })
                })
                .collect::<Result<_>>()?,
            None => (0..def.columns.len()).collect(),
        };
        let mut rows: Option<Vec<Bat>> = None;
        for cols in groups {
            let n = group_rows(cols);
            if n == 0 {
                continue;
            }
            if cols.len() != mapping.len() {
                return Err(EngineError::msg(format!(
                    "row has {} values, expected {}",
                    cols.len(),
                    mapping.len()
                )));
            }
            let mut batch = def
                .columns
                .iter()
                .map(|c| Bat::constant(c.ty, n, c.default.as_ref().unwrap_or(&Value::Null)))
                .collect::<gdk::Result<Vec<_>>>()?;
            let mut failed = None;
            for (values, &slot) in cols.iter().zip(&mapping) {
                let c = &def.columns[slot];
                match values.coerced(c.ty) {
                    Ok(v) => batch[slot] = v.into_owned(),
                    Err(row) => keep_first(&mut failed, row, || {
                        let v = values.get(row);
                        EngineError::msg(format!(
                            "value {v} does not fit column {:?} ({})",
                            c.name, c.ty
                        ))
                    }),
                }
            }
            if let Some((_, e)) = failed {
                return Err(e);
            }
            match &mut rows {
                None => rows = Some(batch),
                Some(rows) => {
                    for (all, b) in rows.iter_mut().zip(&batch) {
                        all.append_bat(b)?;
                    }
                }
            }
        }
        let Some(rows) = rows else {
            return Ok(0);
        };
        let len = rows.first().map_or(0, Bat::len);
        let first = self.table_store(table)?.row_count() as Oid;
        let writes = rows.into_iter().map(Arc::new).enumerate().collect();
        self.write(table, Candidates::Dense { first, len }, writes, tracer)?;
        Ok(len)
    }

    fn insert_into_array(
        &mut self,
        table: &str,
        def: &ArrayDef,
        columns: Option<&[String]>,
        groups: &RowGroups,
        tracer: &mut Tracer,
    ) -> Result<usize> {
        // Column mapping: an explicit list must cover all dimensions;
        // positional order is dims then attrs.
        let ndims = def.dims.len();
        let (dim_slots, attrs): (Vec<usize>, Vec<(usize, usize)>) = match columns {
            Some(cols) => {
                let mut dim_slots = vec![usize::MAX; ndims];
                let mut attrs = Vec::new();
                for (i, c) in cols.iter().enumerate() {
                    if let Some(k) = def.dim_index(c) {
                        dim_slots[k] = i;
                    } else if let Some(k) = def.attr_index(c) {
                        attrs.push((i, k));
                    } else {
                        return Err(EngineError::msg(format!(
                            "array {table:?} has no column {c:?}"
                        )));
                    }
                }
                if dim_slots.contains(&usize::MAX) {
                    return Err(EngineError::msg(
                        "INSERT into an array must supply every dimension",
                    ));
                }
                (dim_slots, attrs)
            }
            None => {
                let arity = groups
                    .iter()
                    .find(|g| group_rows(g) > 0)
                    .map_or(ndims, Vec::len);
                if arity < ndims + 1 {
                    return Err(EngineError::msg(format!(
                        "INSERT into array needs at least {} columns (dims + one attribute)",
                        ndims + 1
                    )));
                }
                let nattrs = (arity - ndims).min(def.attrs.len());
                (
                    (0..ndims).collect(),
                    (0..nattrs).map(|k| (ndims + k, k)).collect(),
                )
            }
        };
        self.ensure_materialised(table, groups, &dim_slots, tracer)?;
        let store = self.array_store(table)?;
        // An in-place rewrite (`INSERT INTO a SELECT [x], [y], f(v) FROM a`)
        // hands back the array's own dimension BATs, so row i is cell i:
        // no positions to compute or check.
        if let [cols] = groups.as_slice() {
            let n = group_rows(cols);
            let own_grid = dim_slots
                .iter()
                .zip(&store.dims)
                .all(|(&s, d)| cols.get(s).is_some_and(|c| Arc::ptr_eq(c, d)));
            if n > 0 && own_grid {
                let mut failed = None;
                let writes = convert_attrs(store, cols, &attrs, &mut failed);
                if let Some((_, e)) = failed {
                    return Err(e);
                }
                self.write(table, Candidates::all(n), writes, tracer)?;
                return Ok(n);
            }
        }
        // Every group is checked before the first write.
        let mut pos = Vec::new();
        let mut writes: Option<ColumnWrites> = None;
        for cols in groups {
            let (p, w) = check_cells(store, table, cols, &dim_slots, &attrs)?;
            pos.extend(p);
            match &mut writes {
                None => writes = Some(w),
                Some(acc) => {
                    for ((_, a), (_, b)) in acc.iter_mut().zip(w) {
                        Arc::make_mut(a).append_bat(&b)?;
                    }
                }
            }
        }
        let n = pos.len();
        if let Some(mut writes) = writes.filter(|_| n > 0) {
            let (at, rows) = Candidates::for_scatter(pos);
            if let Some(rows) = rows {
                let rows = Bat::from_oids(rows);
                for (_, v) in &mut writes {
                    *v = Arc::new(project::project_oids(&rows, v)?);
                }
            }
            self.write(table, at, writes, tracer)?;
        }
        Ok(n)
    }

    /// An unbounded array gets its ranges derived from the first INSERT:
    /// "an unbounded array with actual size derived from the dimension
    /// column expressions" (§2). Each derived range is set — and logged —
    /// as the `ALTER ARRAY … SET RANGE` it is equivalent to; the last one
    /// materialises the array.
    fn ensure_materialised(
        &mut self,
        table: &str,
        groups: &RowGroups,
        dim_slots: &[usize],
        tracer: &mut Tracer,
    ) -> Result<()> {
        if self.image.arrays.contains_key(&table.to_ascii_lowercase()) {
            return Ok(());
        }
        let def = self
            .catalog()
            .get_array(table)
            .map_err(EngineError::Catalog)?
            .clone();
        if groups.iter().all(|g| group_rows(g) == 0) {
            return Err(EngineError::msg(format!(
                "cannot derive ranges for unbounded array {table:?} from zero rows"
            )));
        }
        for (d, &slot) in def.dims.iter().zip(dim_slots) {
            if d.range.is_some() {
                continue;
            }
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            for g in groups {
                for i in 0..group_rows(g) {
                    let v = g.get(slot).and_then(|b| b.i64_at(i));
                    let v = v.ok_or_else(|| EngineError::msg(NOT_INTEGRAL))?;
                    (lo, hi) = (lo.min(v), hi.max(v));
                }
            }
            let int = |v: i64| Expr::Literal(Literal::Int(v));
            let alter = Stmt::AlterDimension {
                array: def.name.clone(),
                dimension: d.name.clone(),
                range: DimRange {
                    start: int(lo),
                    step: int(1),
                    stop: int(hi + 1),
                },
            };
            self.ddl(&alter, &alter.to_string(), Some(tracer))?;
        }
        Ok(())
    }
}
