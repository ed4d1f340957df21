//! DDL executors: CREATE TABLE / CREATE ARRAY / DROP / ALTER ARRAY.

use crate::session::Connection;
use crate::storage::{ArrayStore, TableStore};
use crate::{EngineError, Result};
use gdk::{ScalarType, Value};
use sciql_algebra::eval_const;
use sciql_catalog::{ArrayDef, ColumnMeta, DimSpec, DimensionDef, SchemaObject, TableDef};
use sciql_parser::ast::{ColumnDef, ColumnKind, DimRange};
use std::sync::Arc;

fn parse_type(name: &str) -> Result<ScalarType> {
    ScalarType::from_sql_name(name)
        .ok_or_else(|| EngineError::msg(format!("unknown type {name:?}")))
}

fn const_default(e: &sciql_parser::ast::Expr, ty: ScalarType) -> Result<Value> {
    let v = eval_const(e).map_err(EngineError::Algebra)?;
    v.cast(ty)
        .ok_or_else(|| EngineError::msg(format!("DEFAULT value {v} does not fit type {ty}")))
}

/// Evaluate a `[start:step:stop]` range into a concrete [`DimSpec`].
pub fn eval_dim_range(r: &DimRange) -> Result<DimSpec> {
    let start = eval_const(&r.start)
        .map_err(EngineError::Algebra)?
        .as_i64()
        .ok_or_else(|| EngineError::msg("dimension start must be integral"))?;
    let step = eval_const(&r.step)
        .map_err(EngineError::Algebra)?
        .as_i64()
        .ok_or_else(|| EngineError::msg("dimension step must be integral"))?;
    let stop = eval_const(&r.stop)
        .map_err(EngineError::Algebra)?
        .as_i64()
        .ok_or_else(|| EngineError::msg("dimension stop must be integral"))?;
    DimSpec::new(start, step, stop).map_err(EngineError::Catalog)
}

impl Connection {
    pub(crate) fn create_table(&mut self, name: &str, columns: &[ColumnDef]) -> Result<()> {
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            let ty = parse_type(&c.type_name)?;
            let ColumnKind::Attribute { default } = &c.kind else {
                return Err(EngineError::msg(
                    "DIMENSION columns are only allowed in arrays",
                ));
            };
            let default = default.as_ref().map(|e| const_default(e, ty)).transpose()?;
            cols.push(ColumnMeta {
                name: c.name.clone(),
                ty,
                default,
            });
        }
        let def = TableDef {
            name: name.to_owned(),
            columns: cols,
        };
        let image = self.image_mut();
        image
            .catalog
            .create(SchemaObject::Table(def.clone()))
            .map_err(EngineError::Catalog)?;
        let store = Arc::new(TableStore::create(def));
        image.tables.insert(name.to_ascii_lowercase(), store);
        Ok(())
    }

    /// CREATE ARRAY: register the definition and — for fixed arrays —
    /// materialise the BATs immediately ("the materialisation of the fixed
    /// arrays before their first use", §3). Returns the number of
    /// materialised cells.
    pub(crate) fn create_array(&mut self, name: &str, columns: &[ColumnDef]) -> Result<usize> {
        let mut dims = Vec::new();
        let mut attrs = Vec::new();
        for c in columns {
            let ty = parse_type(&c.type_name)?;
            match &c.kind {
                ColumnKind::Dimension { range } => {
                    if !ty.is_numeric() || ty == ScalarType::Dbl {
                        return Err(EngineError::msg(format!(
                            "dimension {:?} must have an integral type",
                            c.name
                        )));
                    }
                    let range = range.as_ref().map(eval_dim_range).transpose()?;
                    dims.push(DimensionDef {
                        name: c.name.clone(),
                        ty,
                        range,
                    });
                }
                ColumnKind::Attribute { default } => {
                    let default = default.as_ref().map(|e| const_default(e, ty)).transpose()?;
                    attrs.push(ColumnMeta {
                        name: c.name.clone(),
                        ty,
                        default,
                    });
                }
            }
        }
        if attrs.is_empty() {
            return Err(EngineError::msg(
                "an array needs at least one non-dimensional attribute",
            ));
        }
        let def = ArrayDef {
            name: name.to_owned(),
            dims,
            attrs,
        };
        self.image_mut()
            .catalog
            .create(SchemaObject::Array(def.clone()))
            .map_err(EngineError::Catalog)?;
        self.materialise(def)
    }

    /// Build a fixed array's storage and install it; returns the number
    /// of materialised cells (0 for an array that is not fixed yet).
    pub(crate) fn materialise(&mut self, def: ArrayDef) -> Result<usize> {
        if !def.is_fixed() {
            return Ok(0);
        }
        let key = def.name.to_ascii_lowercase();
        let store = ArrayStore::create(def)?;
        let cells = store.cell_count();
        self.image_mut().arrays.insert(key, Arc::new(store));
        Ok(cells)
    }

    pub(crate) fn drop_object(&mut self, name: &str, array: bool) -> Result<()> {
        let obj = self
            .catalog()
            .get(name)
            .map_err(EngineError::Catalog)?
            .clone();
        match (&obj, array) {
            (SchemaObject::Array(_), false) => {
                return Err(EngineError::msg(format!(
                    "{name:?} is an array; use DROP ARRAY"
                )))
            }
            (SchemaObject::Table(_), true) => {
                return Err(EngineError::msg(format!(
                    "{name:?} is a table; use DROP TABLE"
                )))
            }
            _ => {}
        }
        let image = self.image_mut();
        image
            .catalog
            .drop_object(name)
            .map_err(EngineError::Catalog)?;
        let key = name.to_ascii_lowercase();
        image.arrays.remove(&key);
        image.tables.remove(&key);
        Ok(())
    }

    /// ALTER ARRAY … ALTER DIMENSION … SET RANGE. Returns the new cell
    /// count.
    pub(crate) fn alter_dimension(
        &mut self,
        array: &str,
        dimension: &str,
        range: &DimRange,
    ) -> Result<usize> {
        let spec = eval_dim_range(range)?;
        let catalog = &mut self.image_mut().catalog;
        catalog
            .alter_dimension(array, dimension, spec)
            .map_err(EngineError::Catalog)?;
        let def = catalog
            .get_array(array)
            .map_err(EngineError::Catalog)?
            .clone();
        if !self.image.arrays.contains_key(&array.to_ascii_lowercase()) {
            // Previously unbounded array: materialise if now fixed.
            return self.materialise(def);
        }
        let k = def
            .dim_index(dimension)
            .ok_or_else(|| EngineError::msg("dimension vanished"))?;
        let store = self.array_mut(array)?;
        store.re_range(k, spec)?;
        Ok(store.cell_count())
    }
}
