//! Schema objects: tables, arrays, dimensions, attributes.

use gdk::{Bat, Oid, ScalarType, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The source of every [`Catalog::version`]: one process-wide counter, so
/// no two schema states share a version, not even across catalogs — a
/// replica bootstrap replaces its engine's whole catalog, and a plan
/// cached against the old one must not match the new one.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Errors raised by catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// Object already exists.
    AlreadyExists(String),
    /// Object not found.
    NotFound(String),
    /// Structurally invalid definition.
    Invalid(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::AlreadyExists(n) => write!(f, "object {n:?} already exists"),
            CatalogError::NotFound(n) => write!(f, "object {n:?} does not exist"),
            CatalogError::Invalid(m) => write!(f, "invalid definition: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// A concrete (fixed) dimension range `[start : step : stop)`.
///
/// "The interval `[start, stop)` is right-open. A dimension is fixed if all
/// three expressions of its dimension range are specified by literal
/// values; otherwise, it is unbounded" (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimSpec {
    /// First dimension value.
    pub start: i64,
    /// Step between consecutive values (non-zero).
    pub step: i64,
    /// Exclusive stop.
    pub stop: i64,
}

impl DimSpec {
    /// Create a spec, validating the step.
    pub fn new(start: i64, step: i64, stop: i64) -> Result<Self, CatalogError> {
        if step == 0 {
            return Err(CatalogError::Invalid(
                "dimension step must be non-zero".into(),
            ));
        }
        Ok(DimSpec { start, step, stop })
    }

    /// Number of valid dimension values.
    pub fn len(&self) -> usize {
        gdk::bat::series_len(self.start, self.step, self.stop)
    }

    /// True when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th dimension value.
    pub fn value_at(&self, i: usize) -> i64 {
        self.start + self.step * i as i64
    }

    /// The position of dimension value `v`, if `v` is on the grid.
    pub fn index_of(&self, v: i64) -> Option<usize> {
        let d = v.checked_sub(self.start)?;
        if self.step == 1 {
            // The common grid, without a division.
            return (d >= 0 && v < self.stop).then_some(d as usize);
        }
        if d % self.step != 0 {
            return None;
        }
        let i = d / self.step;
        if i < 0 || i as usize >= self.len() {
            None
        } else {
            Some(i as usize)
        }
    }

    /// Iterate all dimension values in order.
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.len()).map(move |i| self.value_at(i))
    }
}

/// One array dimension: a named direction with an optional fixed range.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionDef {
    /// Dimension name (e.g. `x`, `y`, `time`).
    pub name: String,
    /// Value type (integral).
    pub ty: ScalarType,
    /// Fixed range, or `None` for an unbounded dimension.
    pub range: Option<DimSpec>,
}

/// A non-dimensional column (table column or array cell attribute).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Column name.
    pub name: String,
    /// Value type.
    pub ty: ScalarType,
    /// DEFAULT value; for arrays, "omitting the default implies a NULL"
    /// (§2).
    pub default: Option<Value>,
}

/// A relational table definition.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnMeta>,
}

impl TableDef {
    /// Position of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// An array definition: dimensions plus cell attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDef {
    /// Array name.
    pub name: String,
    /// Dimensions in declaration order. The first dimension varies slowest
    /// in the cell order (Fig 3 row-major layout).
    pub dims: Vec<DimensionDef>,
    /// Cell attributes in declaration order.
    pub attrs: Vec<ColumnMeta>,
}

impl ArrayDef {
    /// Is every dimension fixed?
    pub fn is_fixed(&self) -> bool {
        self.dims.iter().all(|d| d.range.is_some())
    }

    /// Total number of cells (fixed arrays only).
    pub fn cell_count(&self) -> Option<usize> {
        self.dims
            .iter()
            .map(|d| d.range.map(|r| r.len()))
            .try_fold(1usize, |acc, l| l.and_then(|l| acc.checked_mul(l)))
    }

    /// Dimension index by name.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims
            .iter()
            .position(|d| d.name.eq_ignore_ascii_case(name))
    }

    /// Attribute index by name.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs
            .iter()
            .position(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Linear cell position of the given dimension values (row-major,
    /// first dimension slowest), if all are on-grid.
    pub fn position_of(&self, coords: &[i64]) -> Option<usize> {
        if coords.len() != self.dims.len() {
            return None;
        }
        let mut pos = 0usize;
        for (d, &c) in self.dims.iter().zip(coords) {
            let r = d.range?;
            let i = r.index_of(c)?;
            pos = pos * r.len() + i;
        }
        Some(pos)
    }

    /// [`ArrayDef::position_of`] for `n` rows of whole columns: `coords`
    /// holds one column of dimension values per dimension, and row `i`
    /// lands on cell `Ok(..)[i]`. `Err(row)` names the first row whose
    /// values are not integral or not on the grid (an unbounded dimension
    /// has no grid: row 0).
    pub fn cell_positions(&self, n: usize, coords: &[&Bat]) -> Result<Vec<Oid>, usize> {
        let mut pos = vec![0 as Oid; n];
        let mut bad = n;
        for (d, col) in self.dims.iter().zip(coords) {
            let Some(r) = d.range else { return Err(0) };
            let len = r.len() as Oid;
            for (i, p) in pos[..bad].iter_mut().enumerate() {
                match col.i64_at(i).and_then(|c| r.index_of(c)) {
                    Some(ix) => *p = *p * len + ix as Oid,
                    None => {
                        bad = i;
                        break;
                    }
                }
            }
        }
        if bad < n {
            Err(bad)
        } else {
            Ok(pos)
        }
    }

    /// Dimension values at a linear cell position.
    pub fn coords_of(&self, mut pos: usize) -> Option<Vec<i64>> {
        let mut out = vec![0i64; self.dims.len()];
        for (k, d) in self.dims.iter().enumerate().rev() {
            let r = d.range?;
            let n = r.len();
            if n == 0 {
                return None;
            }
            out[k] = r.value_at(pos % n);
            pos /= n;
        }
        if pos == 0 {
            Some(out)
        } else {
            None
        }
    }

    /// The `(N, M)` repetition factors of dimension `k` for
    /// `array.series` (paper §3): `N` = product of the sizes of the faster
    /// dimensions, `M` = product of the sizes of the slower dimensions.
    pub fn series_factors(&self, k: usize) -> Option<(usize, usize)> {
        let sizes: Option<Vec<usize>> =
            self.dims.iter().map(|d| d.range.map(|r| r.len())).collect();
        let sizes = sizes?;
        if k >= sizes.len() {
            return None;
        }
        let n = sizes[k + 1..].iter().product();
        let m = sizes[..k].iter().product();
        Some((n, m))
    }
}

/// A named schema object.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaObject {
    /// A relational table.
    Table(TableDef),
    /// A SciQL array.
    Array(ArrayDef),
}

impl SchemaObject {
    /// Object name.
    pub fn name(&self) -> &str {
        match self {
            SchemaObject::Table(t) => &t.name,
            SchemaObject::Array(a) => &a.name,
        }
    }
}

/// The catalog: named schema objects. Name matching is case-insensitive
/// (SQL identifiers fold).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    objects: BTreeMap<String, SchemaObject>,
    version: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Register an object. Names in the reserved `sys.` schema are
    /// rejected — they belong to the built-in system views.
    pub fn create(&mut self, obj: SchemaObject) -> Result<(), CatalogError> {
        if crate::sysview::is_sys_name(obj.name()) {
            return Err(CatalogError::Invalid(format!(
                "{:?} is in the reserved sys schema",
                obj.name()
            )));
        }
        let key = Self::key(obj.name());
        if self.objects.contains_key(&key) {
            return Err(CatalogError::AlreadyExists(obj.name().to_owned()));
        }
        self.objects.insert(key, obj);
        self.bump_version();
        Ok(())
    }

    /// Drop an object.
    pub fn drop_object(&mut self, name: &str) -> Result<SchemaObject, CatalogError> {
        let obj = self
            .objects
            .remove(&Self::key(name))
            .ok_or_else(|| CatalogError::NotFound(name.to_owned()))?;
        self.bump_version();
        Ok(obj)
    }

    /// The schema's version: 0 for an empty, never-changed catalog, and
    /// a fresh value after every successful schema change (create, drop,
    /// dimension alteration). The value is unique in the process, so
    /// equal versions mean the same schema even across catalog
    /// instances: callers detect "did anything change?" without diffing
    /// object lists.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn bump_version(&mut self) {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up an object. Names in the reserved `sys.` schema fall
    /// back to the built-in system view definitions
    /// ([`crate::sysview`]), so `SELECT … FROM sys.metrics` binds like
    /// any table scan.
    pub fn get(&self, name: &str) -> Result<&SchemaObject, CatalogError> {
        if let Some(obj) = self.objects.get(&Self::key(name)) {
            return Ok(obj);
        }
        if let Some(view) = crate::sysview::get(name) {
            return Ok(view);
        }
        Err(CatalogError::NotFound(name.to_owned()))
    }

    /// Look up an array specifically.
    pub fn get_array(&self, name: &str) -> Result<&ArrayDef, CatalogError> {
        match self.get(name)? {
            SchemaObject::Array(a) => Ok(a),
            SchemaObject::Table(_) => Err(CatalogError::Invalid(format!(
                "{name:?} is a table, not an array"
            ))),
        }
    }

    /// Look up a table specifically.
    pub fn get_table(&self, name: &str) -> Result<&TableDef, CatalogError> {
        match self.get(name)? {
            SchemaObject::Table(t) => Ok(t),
            SchemaObject::Array(_) => Err(CatalogError::Invalid(format!(
                "{name:?} is an array, not a table"
            ))),
        }
    }

    /// Replace the range of one dimension (ALTER ARRAY … SET RANGE).
    pub fn alter_dimension(
        &mut self,
        array: &str,
        dim: &str,
        range: DimSpec,
    ) -> Result<(), CatalogError> {
        let obj = self
            .objects
            .get_mut(&Self::key(array))
            .ok_or_else(|| CatalogError::NotFound(array.to_owned()))?;
        let SchemaObject::Array(a) = obj else {
            return Err(CatalogError::Invalid(format!("{array:?} is not an array")));
        };
        let k = a
            .dim_index(dim)
            .ok_or_else(|| CatalogError::NotFound(format!("{array}.{dim}")))?;
        a.dims[k].range = Some(range);
        self.bump_version();
        Ok(())
    }

    /// Iterate objects in name order.
    pub fn iter(&self) -> impl Iterator<Item = &SchemaObject> {
        self.objects.values()
    }

    /// True when the object exists.
    pub fn contains(&self, name: &str) -> bool {
        self.objects.contains_key(&Self::key(name))
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> ArrayDef {
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
    fn dimspec_basics() {
        let d = DimSpec::new(0, 1, 4).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.index_of(2), Some(2));
        assert_eq!(d.index_of(4), None, "stop is exclusive");
        assert_eq!(d.index_of(-1), None);
        assert!(DimSpec::new(0, 0, 4).is_err());

        let s = DimSpec::new(0, 2, 7).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.values().collect::<Vec<_>>(), vec![0, 2, 4, 6]);
        assert_eq!(s.index_of(3), None, "off-grid value");
        assert_eq!(s.index_of(6), Some(3));

        let neg = DimSpec::new(-1, 1, 5).unwrap();
        assert_eq!(neg.len(), 6);
        assert_eq!(neg.index_of(-1), Some(0));
    }

    #[test]
    fn row_major_positions_match_fig3() {
        let a = matrix();
        assert_eq!(a.cell_count(), Some(16));
        // Fig 3: position = x*4 + y.
        assert_eq!(a.position_of(&[0, 0]), Some(0));
        assert_eq!(a.position_of(&[0, 3]), Some(3));
        assert_eq!(a.position_of(&[1, 0]), Some(4));
        assert_eq!(a.position_of(&[3, 3]), Some(15));
        assert_eq!(a.position_of(&[4, 0]), None);
        assert_eq!(a.coords_of(7), Some(vec![1, 3]));
        assert_eq!(a.coords_of(16), None);
    }

    #[test]
    fn column_positions_match_position_of() {
        let a = matrix();
        let x = Bat::from_lngs(vec![0, 3, 1]);
        let y = Bat::from_ints(vec![0, 3, 2]);
        assert_eq!(a.cell_positions(3, &[&x, &y]), Ok(vec![0, 15, 6]));
        // The first row off the grid, or not integral, is named.
        let y_off = Bat::from_ints(vec![0, 4, 9]);
        assert_eq!(a.cell_positions(3, &[&x, &y_off]), Err(1));
        let x_frac = Bat::from_dbls(vec![0.0, 1.0, 2.0]);
        assert_eq!(a.cell_positions(3, &[&x_frac, &y]), Err(0));
        let y_nil = Bat::from_opt_ints(vec![Some(1), Some(1), None]);
        assert_eq!(a.cell_positions(3, &[&x, &y_nil]), Err(2));
        assert_eq!(
            a.cell_positions(0, &[&Bat::from_ints(vec![]); 2]),
            Ok(vec![])
        );
    }

    #[test]
    fn series_factors_match_fig3() {
        let a = matrix();
        // x: series(0,1,4,4,1) — N=4, M=1; y: series(0,1,4,1,4) — N=1, M=4.
        assert_eq!(a.series_factors(0), Some((4, 1)));
        assert_eq!(a.series_factors(1), Some((1, 4)));
        assert_eq!(a.series_factors(2), None);
    }

    #[test]
    fn catalog_crud() {
        let mut c = Catalog::new();
        c.create(SchemaObject::Array(matrix())).unwrap();
        assert!(c.contains("MATRIX"), "case-insensitive");
        assert!(c.create(SchemaObject::Array(matrix())).is_err());
        assert!(c.get_array("matrix").is_ok());
        assert!(c.get_table("matrix").is_err());
        assert!(c.get("nope").is_err());
        c.drop_object("Matrix").unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn alter_dimension_updates_range() {
        let mut c = Catalog::new();
        c.create(SchemaObject::Array(matrix())).unwrap();
        c.alter_dimension("matrix", "x", DimSpec::new(-1, 1, 5).unwrap())
            .unwrap();
        let a = c.get_array("matrix").unwrap();
        assert_eq!(a.dims[0].range.unwrap().len(), 6);
        assert!(c
            .alter_dimension("matrix", "zz", DimSpec::new(0, 1, 2).unwrap())
            .is_err());
    }

    #[test]
    fn unbounded_array_has_no_cell_count() {
        let mut a = matrix();
        a.dims[1].range = None;
        assert!(!a.is_fixed());
        assert_eq!(a.cell_count(), None);
        assert_eq!(a.position_of(&[0, 0]), None);
    }

    #[test]
    fn three_dimensional_positions() {
        let a = ArrayDef {
            name: "cube".into(),
            dims: (0..3)
                .map(|i| DimensionDef {
                    name: format!("d{i}"),
                    ty: ScalarType::Int,
                    range: Some(DimSpec::new(0, 1, 3).unwrap()),
                })
                .collect(),
            attrs: vec![],
        };
        assert_eq!(a.cell_count(), Some(27));
        assert_eq!(a.position_of(&[1, 2, 0]), Some(9 + 2 * 3));
        assert_eq!(a.series_factors(0), Some((9, 1)));
        assert_eq!(a.series_factors(1), Some((3, 3)));
        assert_eq!(a.series_factors(2), Some((1, 9)));
        for p in 0..27 {
            let c = a.coords_of(p).unwrap();
            assert_eq!(a.position_of(&c), Some(p), "roundtrip {p}");
        }
    }
}
