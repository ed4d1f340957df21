//! Physical storage: arrays and tables as collections of BATs.
//!
//! "Per array, we use one BAT for each dimension and one BAT for each
//! non-dimensional attribute" (paper §3, Fig 3). Fixed arrays are
//! materialised before first use with `array.series` / `array.filler`.
//! Columns are reference-counted so a query result can alias storage
//! without copying; updates go through copy-on-write.
//!
//! Every data change reaches a store as one columnar write: a candidate
//! list of positions plus one value column per written column (see
//! [`ArrayStore::write_attrs`]), applied by `Connection::change`.

use crate::{EngineError, Result};
use gdk::bat::cannot_store;
use gdk::zonemap::TILE_ROWS;
use gdk::{project, Bat, Candidates, Oid, ScalarType, Value};
use sciql_catalog::{ArrayDef, DimSpec, TableDef};
use sciql_store::ColumnDirt;
use std::borrow::Cow;
use std::sync::Arc;

/// Tiles a column of `len` rows occupies (at the vault's tile size).
pub fn tile_count(len: usize) -> usize {
    len.div_ceil(TILE_ROWS).max(1)
}

/// One statement's column writes: each column's index with its values,
/// aligned with the positions the statement writes.
pub type ColumnWrites = Vec<(usize, Arc<Bat>)>;

/// `values` as a `ty` column — the same `Arc` when no conversion is
/// needed — or the first row that does not fit.
pub(crate) fn coerce(values: &Arc<Bat>, ty: ScalarType) -> std::result::Result<Arc<Bat>, usize> {
    Ok(match values.coerced(ty)? {
        Cow::Borrowed(_) => Arc::clone(values),
        Cow::Owned(b) => Arc::new(b),
    })
}

/// `writes` converted to the types of the columns they go to. A store
/// converts before it changes anything, so a value that does not fit
/// fails the statement and leaves the store as it was.
pub(crate) fn converted(cols: &[Arc<Bat>], writes: ColumnWrites) -> Result<ColumnWrites> {
    writes
        .into_iter()
        .map(|(k, v)| {
            let ty = cols[k].tail_type();
            let cast = coerce(&v, ty).map_err(|row| cannot_store(&v.get(row), ty))?;
            Ok((k, cast))
        })
        .collect()
}

/// Apply one statement's (converted) writes: each `(k, values)` stores
/// `values`, aligned with `at`, into column `k`. A column is copied
/// (copy-on-write) at most once and its dirt marked once per touched
/// tile; a write covering every cell marks the column all-dirty and
/// adopts a fixed-width `values` instead of copying it.
fn write_columns(
    cols: &mut [Arc<Bat>],
    dirt: &mut [ColumnDirt],
    at: &Candidates,
    writes: ColumnWrites,
) -> Result<()> {
    for (k, values) in writes {
        let col = &mut cols[k];
        if *at == Candidates::all(col.len()) {
            if values.hseq == 0 && !col.is_dense() && values.tail_type() != ScalarType::Str {
                *col = values;
            } else {
                Arc::make_mut(col).overwrite(&values)?;
            }
            dirt[k].mark_all();
        } else {
            Arc::make_mut(col).scatter(at, &values)?;
            dirt[k].mark_cells(at);
        }
    }
    Ok(())
}

/// A stored array: materialised dimension BATs plus attribute BATs, all of
/// length `cell_count`, in row-major cell order. Only the attributes are
/// persisted; the dimensions are regenerated from the definition.
#[derive(Debug, Clone)]
pub struct ArrayStore {
    /// Definition (kept in sync with the catalog).
    pub def: ArrayDef,
    /// One BAT per dimension (Fig 3: generated by `array.series`).
    pub dims: Vec<Arc<Bat>>,
    /// One BAT per attribute (Fig 3: generated by `array.filler`).
    pub attrs: Vec<Arc<Bat>>,
    /// Per-attribute dirt: which tiles changed since the vault last
    /// checkpointed the column? The copy-on-write update paths mark the
    /// touched tiles so a checkpoint rewrites only what changed.
    /// Dimensions have none: they are generated from their `DimSpec`,
    /// never stored.
    pub dirty_attrs: Vec<ColumnDirt>,
}

impl ArrayStore {
    /// Materialise a fixed array: exactly the three-statement MAL sequence
    /// of the paper's Fig 3, generalised to any dimensionality.
    pub fn create(def: ArrayDef) -> Result<Self> {
        let count = def.cell_count().ok_or_else(|| {
            EngineError::msg(format!(
                "array {:?} has unbounded dimensions; it cannot be materialised yet",
                def.name
            ))
        })?;
        let mut attrs = Vec::with_capacity(def.attrs.len());
        for a in &def.attrs {
            let v = a.default.clone().unwrap_or(Value::Null);
            let bat = Bat::constant(a.ty, count, &v)
                .map_err(|_| EngineError::msg(format!("default {v} does not fit {}", a.ty)))?;
            attrs.push(Arc::new(bat));
        }
        Self::with_attrs(def, attrs, ColumnDirt::All)
    }

    /// A store of `def`'s fixed grid holding `attrs`, every attribute
    /// with dirt `dirt`. The dimension columns are generated (Fig 3's
    /// `array.series`), so each carries its shape and a selection on a
    /// dimension is arithmetic.
    pub(crate) fn with_attrs(
        def: ArrayDef,
        attrs: Vec<Arc<Bat>>,
        dirt: ColumnDirt,
    ) -> Result<Self> {
        let dims = (def.dims.iter().enumerate())
            .map(|(k, d)| {
                let fixed = d.range.zip(def.series_factors(k));
                let (r, (n, m)) = fixed.ok_or_else(|| {
                    EngineError::msg(format!("array {:?} has unbounded dimensions", def.name))
                })?;
                Ok(Arc::new(Bat::series(r.start, r.step, r.stop, n, m)?))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ArrayStore {
            dirty_attrs: vec![dirt; attrs.len()],
            def,
            dims,
            attrs,
        })
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.dims.first().map_or(0, |d| d.len())
    }

    /// Row-major shape.
    pub fn shape(&self) -> Vec<usize> {
        self.def
            .dims
            .iter()
            .map(|d| d.range.map(|r| r.len()).unwrap_or(0))
            .collect()
    }

    /// Write attribute columns at the cells `at` names: each
    /// `(attr, values)` pair stores `values` (aligned with `at`) as one
    /// mutation of the store (see `write_columns`).
    pub fn write_attrs(&mut self, at: &Candidates, writes: ColumnWrites) -> Result<()> {
        let writes = converted(&self.attrs, writes)?;
        write_columns(&mut self.attrs, &mut self.dirty_attrs, at, writes)
    }

    /// Punch holes: set every attribute to NULL at the given positions
    /// (the SciQL DELETE, §2: "The DELETE statement creates holes by
    /// assigning a NULL value for all qualified cells").
    pub fn punch_holes(&mut self, at: &Candidates) -> Result<()> {
        let holes = self
            .attrs
            .iter()
            .enumerate()
            .map(|(k, a)| {
                Ok((
                    k,
                    Arc::new(Bat::constant(a.tail_type(), at.len(), &Value::Null)?),
                ))
            })
            .collect::<Result<_>>()?;
        self.write_attrs(at, holes)
    }

    /// Change one dimension's range (ALTER ARRAY … SET RANGE): rebuild the
    /// storage on the new grid, keeping values of cells whose coordinates
    /// survive and filling new cells with the attribute defaults
    /// (Fig 1(f)).
    pub fn re_range(&mut self, dim: usize, new_range: DimSpec) -> Result<()> {
        let mut new_def = self.def.clone();
        new_def.dims[dim].range = Some(new_range);
        let new_store = ArrayStore::create(new_def)?;
        let old = std::mem::replace(self, new_store);
        // Every surviving cell as a (new position, old position) pair.
        let mut pairs: Vec<(Oid, Oid)> = Vec::new();
        for pos in 0..old.cell_count() {
            let coords = old
                .def
                .coords_of(pos)
                .ok_or_else(|| EngineError::msg("corrupt array coordinates"))?;
            if let Some(np) = self.def.position_of(&coords) {
                pairs.push((np as Oid, pos as Oid));
            }
        }
        pairs.sort_unstable();
        let at = Candidates::from_sorted(pairs.iter().map(|p| p.0).collect());
        let from = Bat::from_oids(pairs.into_iter().map(|p| p.1).collect());
        let survivors = old
            .attrs
            .iter()
            .enumerate()
            .map(|(k, a)| Ok((k, Arc::new(project::project_oids(&from, a)?))))
            .collect::<Result<_>>()?;
        self.write_attrs(&at, survivors)
    }

    /// Mark every attribute as persisted (called after a checkpoint).
    pub fn mark_clean(&mut self) {
        self.dirty_attrs.fill(ColumnDirt::Clean);
    }

    /// Number of columns a checkpoint would touch.
    pub fn dirty_columns(&self) -> usize {
        dirty_columns(&self.dirty_attrs)
    }

    /// `(total tiles, dirty tiles)` across the stored (attribute) columns.
    pub fn tile_stats(&self) -> (usize, usize) {
        tile_stats(self.cell_count(), &self.dirty_attrs)
    }
}

/// How many of the columns with dirt `dirt` a checkpoint would touch.
fn dirty_columns(dirt: &[ColumnDirt]) -> usize {
    dirt.iter().filter(|d| d.any_dirty()).count()
}

/// `(total tiles, dirty tiles)` of the stored columns with dirt `dirt`,
/// each `rows` long.
fn tile_stats(rows: usize, dirt: &[ColumnDirt]) -> (usize, usize) {
    let n = tile_count(rows);
    (n * dirt.len(), dirt.iter().map(|d| d.dirty_count(n)).sum())
}

/// A stored table: one BAT per column, aligned.
#[derive(Debug, Clone)]
pub struct TableStore {
    /// Definition.
    pub def: TableDef,
    /// One BAT per column.
    pub cols: Vec<Arc<Bat>>,
    /// Per-column tile dirt for the vault (see [`ArrayStore`]).
    pub dirty_cols: Vec<ColumnDirt>,
}

impl TableStore {
    /// Empty table.
    pub fn create(def: TableDef) -> Self {
        let cols: Vec<Arc<Bat>> = def
            .columns
            .iter()
            .map(|c| Arc::new(Bat::new(c.ty)))
            .collect();
        let n = cols.len();
        TableStore {
            def,
            cols,
            dirty_cols: vec![ColumnDirt::All; n],
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.cols.first().map_or(0, |c| c.len())
    }

    /// Append a pre-built batch of rows — the COPY and INSERT path.
    /// `batch` holds one aligned BAT per column; only the tiles the new
    /// rows land in are marked dirty.
    pub fn append_batch(&mut self, batch: &[Bat]) -> Result<usize> {
        if batch.len() != self.cols.len() {
            return Err(EngineError::msg(format!(
                "batch has {} columns, table {:?} has {}",
                batch.len(),
                self.def.name,
                self.cols.len()
            )));
        }
        let rows = batch.first().map_or(0, |b| b.len());
        if batch.iter().any(|b| b.len() != rows) {
            return Err(EngineError::msg("batch columns are not aligned"));
        }
        let start = self.row_count();
        let at = Candidates::Dense {
            first: start as Oid,
            len: rows,
        };
        for (k, (c, b)) in self.cols.iter_mut().zip(batch).enumerate() {
            self.dirty_cols[k].mark_cells(&at);
            Arc::make_mut(c).append_bat(b)?;
        }
        Ok(rows)
    }

    /// Keep only the rows at `keep` positions (in order) — the DELETE
    /// executor's rebuild.
    pub fn retain_positions(&mut self, keep: &Candidates) -> Result<()> {
        for (k, c) in self.cols.iter_mut().enumerate() {
            // Every surviving row may shift position: all tiles change.
            self.dirty_cols[k].mark_all();
            *c = Arc::new(project::project(keep, c)?);
        }
        Ok(())
    }

    /// Write columns at the rows `at` names — the UPDATE executor's
    /// counterpart of [`ArrayStore::write_attrs`].
    pub fn write_cols(&mut self, at: &Candidates, writes: ColumnWrites) -> Result<()> {
        let writes = converted(&self.cols, writes)?;
        write_columns(&mut self.cols, &mut self.dirty_cols, at, writes)
    }

    /// Mark every column as persisted (called after a checkpoint).
    pub fn mark_clean(&mut self) {
        self.dirty_cols.fill(ColumnDirt::Clean);
    }

    /// Number of columns a checkpoint would touch.
    pub fn dirty_columns(&self) -> usize {
        dirty_columns(&self.dirty_cols)
    }

    /// `(total tiles, dirty tiles)` across all columns.
    pub fn tile_stats(&self) -> (usize, usize) {
        tile_stats(self.row_count(), &self.dirty_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdk::ScalarType;
    use sciql_catalog::{ColumnMeta, DimensionDef};

    fn matrix_def() -> ArrayDef {
        ArrayDef {
            name: "matrix".into(),
            dims: vec![
                DimensionDef {
                    name: "x".into(),
                    ty: ScalarType::Int,
                    range: Some(DimSpec::new(0, 1, 4).unwrap()),
                },
                DimensionDef {
                    name: "y".into(),
                    ty: ScalarType::Int,
                    range: Some(DimSpec::new(0, 1, 4).unwrap()),
                },
            ],
            attrs: vec![ColumnMeta {
                name: "v".into(),
                ty: ScalarType::Int,
                default: Some(Value::Int(0)),
            }],
        }
    }

    #[test]
    fn create_materialises_fig3_layout() {
        let s = ArrayStore::create(matrix_def()).unwrap();
        assert_eq!(s.cell_count(), 16);
        assert_eq!(
            s.dims[0].as_ints().unwrap(),
            &[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
        );
        assert_eq!(
            s.dims[1].as_ints().unwrap(),
            &[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]
        );
        assert!(s.attrs[0].iter_values().all(|v| v == Value::Int(0)));
    }

    #[test]
    fn default_null_when_omitted() {
        let mut def = matrix_def();
        def.attrs[0].default = None;
        let s = ArrayStore::create(def).unwrap();
        assert!(s.attrs[0].iter_values().all(|v| v.is_null()));
    }

    impl ArrayStore {
        /// A whole cell (attribute values) by coordinates.
        fn cell(&self, coords: &[i64]) -> Option<Vec<Value>> {
            let pos = self.def.position_of(coords)?;
            Some(self.attrs.iter().map(|a| a.get(pos)).collect())
        }
    }

    /// Store `v` into attribute 0 of the cell at `coords`.
    fn set_cell(s: &mut ArrayStore, coords: &[i64], v: Value) {
        let p = s.def.position_of(coords).unwrap() as Oid;
        let values = Arc::new(Bat::from_values(ScalarType::Int, &[v]).unwrap());
        s.write_attrs(&Candidates::from_sorted(vec![p]), vec![(0, values)])
            .unwrap();
    }

    #[test]
    fn write_and_punch() {
        let mut s = ArrayStore::create(matrix_def()).unwrap();
        let alias = s.attrs[0].clone(); // simulate an outstanding result
        set_cell(&mut s, &[1, 1], Value::Int(9));
        assert_eq!(s.attrs[0].get(5), Value::Int(9));
        assert_eq!(alias.get(5), Value::Int(0), "copy-on-write preserved alias");
        assert_eq!(
            s.dirty_attrs[0],
            ColumnDirt::All,
            "fresh columns start dirty"
        );
        s.punch_holes(&Candidates::from_sorted(vec![5, 6])).unwrap();
        assert!(s.attrs[0].get(5).is_null());
        assert!(s.attrs[0].get(6).is_null());
        // A write covering every cell adopts a same-typed column outright.
        let whole = Arc::new(Bat::from_ints((0..16).collect()));
        s.mark_clean();
        s.write_attrs(&Candidates::all(16), vec![(0, Arc::clone(&whole))])
            .unwrap();
        assert!(Arc::ptr_eq(&s.attrs[0], &whole));
        assert_eq!(s.dirty_attrs[0], ColumnDirt::All);
    }

    #[test]
    fn writes_mark_only_touched_tiles() {
        let mut def = matrix_def();
        def.dims[0].range = Some(DimSpec::new(0, 1, 3 * TILE_ROWS as i64).unwrap());
        def.dims[1].range = Some(DimSpec::new(0, 1, 1).unwrap());
        let mut s = ArrayStore::create(def).unwrap();
        s.mark_clean();
        let t = TILE_ROWS as Oid;
        let at = Candidates::from_sorted(vec![3, 5, 2 * t + 1]);
        s.write_attrs(&at, vec![(0, Arc::new(Bat::from_ints(vec![1, 2, 3])))])
            .unwrap();
        assert_eq!(s.dirty_attrs[0], ColumnDirt::Tiles(vec![true, false, true]));
        s.mark_clean();
        let run = Candidates::Dense {
            first: t - 1,
            len: 2,
        };
        s.write_attrs(&run, vec![(0, Arc::new(Bat::from_ints(vec![4, 5])))])
            .unwrap();
        assert_eq!(s.dirty_attrs[0], ColumnDirt::Tiles(vec![true, true]));
        assert_eq!(s.attrs[0].get(t as usize), Value::Int(5));
    }

    #[test]
    fn re_range_matches_fig1f() {
        // Fig 1(c) state on a 4×4 grid, then expand both dims to [-1:1:5).
        let mut s = ArrayStore::create(matrix_def()).unwrap();
        // give cell (0,0) value -3 and (3,3) nil, like Fig 1(c)
        set_cell(&mut s, &[0, 0], Value::Int(-3));
        set_cell(&mut s, &[3, 3], Value::Null);
        s.re_range(0, DimSpec::new(-1, 1, 5).unwrap()).unwrap();
        s.re_range(1, DimSpec::new(-1, 1, 5).unwrap()).unwrap();
        assert_eq!(s.cell_count(), 36);
        // Old values preserved at the same coordinates.
        assert_eq!(s.cell(&[0, 0]).unwrap()[0], Value::Int(-3));
        assert!(s.cell(&[3, 3]).unwrap()[0].is_null());
        // Border cells get the default 0 (Fig 1(f) shows a zero border).
        assert_eq!(s.cell(&[-1, -1]).unwrap()[0], Value::Int(0));
        assert_eq!(s.cell(&[4, 4]).unwrap()[0], Value::Int(0));
    }

    #[test]
    fn re_range_shrink_drops_cells() {
        let mut s = ArrayStore::create(matrix_def()).unwrap();
        set_cell(&mut s, &[3, 0], Value::Int(7));
        set_cell(&mut s, &[1, 2], Value::Int(5));
        s.re_range(0, DimSpec::new(0, 1, 2).unwrap()).unwrap();
        assert_eq!(s.cell_count(), 8);
        assert!(s.cell(&[3, 0]).is_none(), "coordinate now out of range");
        assert_eq!(s.cell(&[1, 2]).unwrap()[0], Value::Int(5));
        // A reversed grid keeps every value at its coordinates.
        s.re_range(1, DimSpec::new(3, -1, -1).unwrap()).unwrap();
        assert_eq!(s.cell(&[1, 2]).unwrap()[0], Value::Int(5));
        assert_eq!(s.cell(&[0, 3]).unwrap()[0], Value::Int(0));
    }

    #[test]
    fn table_append_retain_update() {
        let def = TableDef {
            name: "t".into(),
            columns: vec![
                ColumnMeta {
                    name: "a".into(),
                    ty: ScalarType::Int,
                    default: None,
                },
                ColumnMeta {
                    name: "b".into(),
                    ty: ScalarType::Str,
                    default: None,
                },
            ],
        };
        let mut t = TableStore::create(def);
        let strs = Bat::from_strs(vec![Some("one"), Some("two"), Some("three")]);
        t.append_batch(&[Bat::from_ints(vec![1, 2, 3]), strs])
            .unwrap();
        assert_eq!(t.row_count(), 3);
        assert!(t.append_batch(&[Bat::from_ints(vec![1])]).is_err());
        t.retain_positions(&Candidates::from_sorted(vec![0, 2]))
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cols[0].as_ints().unwrap(), &[1, 3]);
        let thirty = Arc::new(Bat::from_ints(vec![30]));
        t.write_cols(&Candidates::from_sorted(vec![1]), vec![(0, thirty)])
            .unwrap();
        assert_eq!(t.cols[0].as_ints().unwrap(), &[1, 30]);
    }

    #[test]
    fn nil_default_columns_have_the_attribute_type() {
        let mut def = matrix_def();
        def.attrs[0].ty = ScalarType::Dbl;
        def.attrs[0].default = None;
        let s = ArrayStore::create(def).unwrap();
        assert_eq!(s.attrs[0].tail_type(), ScalarType::Dbl);
        assert!(s.attrs[0].iter_values().all(|v| v.is_null()));
    }
}
