//! The binder (semantic analyzer): resolves names against the catalog,
//! type-checks expressions, extracts tile offsets, and produces a logical
//! [`Plan`].

use crate::bexpr::{AggCall, BExpr};
use crate::plan::{ColInfo, Plan};
use crate::{AlgebraError, Result};
use gdk::aggregate::AggFunc;
use gdk::{ScalarType, Value};
use sciql_catalog::{ArrayDef, Catalog, SchemaObject};
use sciql_parser::ast::{
    BinOp, Expr, GroupBy, Literal, Projection, SelectStmt, TableRef, TileIndex, UnaryOp,
};
use std::cell::Cell;

/// Everything visible to expression binding.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Combined input columns (qualifiers filled in).
    pub cols: Vec<ColInfo>,
    /// Arrays in scope, for cell references and tiling.
    pub arrays: Vec<ArrayScope>,
}

/// An array visible in the FROM clause.
#[derive(Debug, Clone)]
pub struct ArrayScope {
    /// Catalog name.
    pub name: String,
    /// Alias (defaults to the name).
    pub alias: String,
    /// Index of the array's first column in the combined schema.
    pub col_base: usize,
    /// Number of dimensions.
    pub ndims: usize,
    /// Number of attributes.
    pub nattrs: usize,
    /// Row-major shape.
    pub shape: Vec<usize>,
    /// Dimension steps in order: a cell or tile offset is written in
    /// dimension values, and `step` values make one position.
    pub steps: Vec<i64>,
    /// Dimension names in order.
    pub dim_names: Vec<String>,
}

impl Scope {
    /// Resolve a column reference to its position.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name.eq_ignore_ascii_case(name)
                    && qualifier.is_none_or(|q| {
                        c.qualifier
                            .as_deref()
                            .is_some_and(|cq| cq.eq_ignore_ascii_case(q))
                    })
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(AlgebraError::bind(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            _ => Err(AlgebraError::bind(format!("ambiguous column {name:?}"))),
        }
    }

    fn array_by_alias(&self, alias: &str) -> Option<&ArrayScope> {
        self.arrays
            .iter()
            .find(|a| a.alias.eq_ignore_ascii_case(alias) || a.name.eq_ignore_ascii_case(alias))
    }
}

/// Evaluate a constant expression (DDL literals, dimension ranges,
/// `INSERT … VALUES` rows); placeholder slot `k` takes `params[k]`.
pub fn eval_const(e: &Expr, params: &[Value]) -> Result<Value> {
    eval_with_env(e, &|_name| None, params)
}

/// Evaluate an expression whose only variables are supplied by `env`
/// and whose placeholders are filled from `params`.
pub fn eval_with_env(
    e: &Expr,
    env: &dyn Fn(&str) -> Option<Value>,
    params: &[Value],
) -> Result<Value> {
    match e {
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Param(p) => params
            .get(p.slot)
            .cloned()
            .ok_or_else(|| AlgebraError::bind(format!("parameter {} is not bound", p.slot + 1))),
        Expr::Column {
            qualifier: None,
            name,
        } => env(name).ok_or_else(|| AlgebraError::bind(format!("{name:?} is not a constant"))),
        Expr::Column { qualifier, name } => Err(AlgebraError::bind(format!(
            "{}.{name} is not a constant",
            qualifier.as_deref().unwrap_or("")
        ))),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => {
            let v = eval_with_env(expr, env, params)?;
            gdk::arith::scalar_binop(gdk::arith::BinOp::Sub, &Value::Int(0), &v)
                .map_err(AlgebraError::Gdk)
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_with_env(lhs, env, params)?;
            let r = eval_with_env(rhs, env, params)?;
            let gop = match op {
                BinOp::Add => gdk::arith::BinOp::Add,
                BinOp::Sub => gdk::arith::BinOp::Sub,
                BinOp::Mul => gdk::arith::BinOp::Mul,
                BinOp::Div => gdk::arith::BinOp::Div,
                BinOp::Mod => gdk::arith::BinOp::Mod,
                other => {
                    return Err(AlgebraError::bind(format!(
                        "operator {other:?} not allowed in constant expressions"
                    )))
                }
            };
            gdk::arith::scalar_binop(gop, &l, &r).map_err(AlgebraError::Gdk)
        }
        other => Err(AlgebraError::bind(format!(
            "expression {other} is not constant"
        ))),
    }
}

/// Turn an AST literal into a kernel value. An integer is an INT when it
/// fits one and is not the INT nil sentinel (`-2147483648`), else a BIGINT.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(v) => match i32::try_from(*v) {
            Ok(i) if i != gdk::types::INT_NIL => Value::Int(i),
            _ => Value::Lng(*v),
        },
        Literal::Float(v) => Value::Dbl(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bit(*b),
        Literal::Null => Value::Null,
    }
}

/// Extract the constant offset of a tile/cell index expression relative to
/// the anchor variable `var`: the expression must be `var + c` shaped
/// (linear in `var` with coefficient 1). Placeholder slot `k` takes
/// `params[k]`.
pub fn linear_offset(e: &Expr, var: &str, params: &[Value]) -> Result<i64> {
    let eval_at = |x: i64| -> Result<i64> {
        let env = |name: &str| name.eq_ignore_ascii_case(var).then_some(Value::Lng(x));
        let v = eval_with_env(e, &env, params)?;
        v.as_i64().ok_or_else(|| {
            AlgebraError::bind(format!("index expression must be integral, got {v}"))
        })
    };
    let v0 = eval_at(0)?;
    let v1 = eval_at(1)?;
    if v1 - v0 != 1 {
        return Err(AlgebraError::bind(format!(
            "index expression must be '{var} + constant' (coefficient 1)"
        )));
    }
    Ok(v0)
}

/// The positional delta of a value offset along a dimension of step
/// `step`: `offset / step` when `step` divides it, else none, for then
/// no cell lies at that offset.
fn point_position(offset: i64, step: i64) -> Option<i64> {
    (offset % step == 0).then(|| offset / step)
}

/// The positional deltas `d` a value offset range `[lo, hi)` covers along
/// a dimension of step `step`: every `d` with `lo ≤ d·step < hi`, in
/// ascending order.
fn range_positions(lo: i64, hi: i64, step: i64) -> Vec<i64> {
    let s = step.abs();
    if step > 0 {
        let ceil = |v: i64| -(-v).div_euclid(s);
        (ceil(lo)..ceil(hi)).collect()
    } else {
        // d·step ∈ [lo, hi) ⇔ d·|step| ∈ (−hi, −lo].
        ((-hi).div_euclid(s) + 1..=(-lo).div_euclid(s)).collect()
    }
}

/// The binder.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    slot_types: &'a [Option<ScalarType>],
    params: &'a [Value],
    folded: Cell<bool>,
}

impl<'a> Binder<'a> {
    /// New binder over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Binder {
            catalog,
            slot_types: &[],
            params: &[],
            folded: Cell::new(false),
        }
    }

    /// Type placeholder slot `k` as `slot_types[k]` instead of by its
    /// context. A slot that holds a lifted literal or a bound value takes
    /// the value's own type, so the plan compares and stores exactly as
    /// the literal would; a NULL (`None`) stays untyped, as `NULL` does.
    pub fn with_slot_types(self, slot_types: &'a [Option<ScalarType>]) -> Self {
        Binder { slot_types, ..self }
    }

    /// Fill the placeholders of constant positions (cell and tile
    /// offsets, slice bounds) from `params`: the plan holds their values,
    /// not their slots (see [`Binder::folded_params`]).
    pub fn with_params(self, params: &'a [Value]) -> Self {
        Binder { params, ..self }
    }

    /// Did a bound value become a constant of the plan? Such a plan holds
    /// only for the values it was bound with.
    pub fn folded_params(&self) -> bool {
        self.folded.get()
    }

    /// The value of `e` in a constant position.
    fn constant(&self, e: &Expr) -> Result<Value> {
        self.note_params(e);
        eval_const(e, self.params)
    }

    /// [`linear_offset`] of `e` relative to `var`.
    fn offset(&self, e: &Expr, var: &str) -> Result<i64> {
        self.note_params(e);
        linear_offset(e, var, self.params)
    }

    fn note_params(&self, e: &Expr) {
        e.walk(&mut |e| {
            if matches!(e, Expr::Param(_)) {
                self.folded.set(true);
            }
        });
    }

    /// The type slot `slot` was given up front, if it was given one.
    fn slot_type(&self, slot: usize) -> Option<Option<ScalarType>> {
        self.slot_types.get(slot).copied()
    }

    /// Bind a full SELECT statement into a plan. Returns the plan; its
    /// schema carries the `dimensional` flags for array coercion.
    pub fn bind_select(&self, sel: &SelectStmt) -> Result<Plan> {
        let (base, scope) = self.bind_from(&sel.from)?;

        // Structural grouping takes a dedicated path.
        if let Some(GroupBy::Structural(tiles)) = &sel.group_by {
            return self.bind_tile_query(sel, tiles, base, &scope);
        }

        let has_aggs = sel
            .projections
            .iter()
            .any(|p| matches!(p, Projection::Item { expr, .. } if expr.contains_aggregate()))
            || sel.having.as_ref().is_some_and(Expr::contains_aggregate)
            || matches!(&sel.group_by, Some(GroupBy::Value(_)));

        if !has_aggs {
            if sel.having.is_some() {
                return Err(AlgebraError::bind("HAVING requires GROUP BY"));
            }
            return self.bind_plain_query(sel, base, scope);
        }
        self.bind_value_aggregate_query(sel, base, scope)
    }

    /// Build the scan plan and scope for a single named object (used by
    /// the DML executors to evaluate SET/WHERE expressions over a scan).
    pub fn scope_for(&self, name: &str) -> Result<(Plan, Scope)> {
        self.bind_from(&[TableRef {
            name: name.to_owned(),
            alias: None,
            slices: vec![],
        }])
    }

    // ------------------------------------------------------------------
    // FROM
    // ------------------------------------------------------------------

    fn bind_from(&self, from: &[TableRef]) -> Result<(Plan, Scope)> {
        if from.is_empty() {
            return Ok((Plan::Unit, Scope::default()));
        }
        let mut plan: Option<Plan> = None;
        let mut scope = Scope::default();
        for tr in from {
            let (p, item_cols, arr) = self.bind_table_ref(tr, scope.cols.len())?;
            scope.cols.extend(item_cols);
            if let Some(a) = arr {
                scope.arrays.push(a);
            }
            plan = Some(match plan {
                None => p,
                Some(prev) => Plan::Cross {
                    left: Box::new(prev),
                    right: Box::new(p),
                },
            });
        }
        Ok((plan.expect("from non-empty"), scope))
    }

    fn bind_table_ref(
        &self,
        tr: &TableRef,
        col_base: usize,
    ) -> Result<(Plan, Vec<ColInfo>, Option<ArrayScope>)> {
        let alias = tr.alias.clone().unwrap_or_else(|| tr.name.clone());
        match self.catalog.get(&tr.name).map_err(AlgebraError::Catalog)? {
            SchemaObject::Table(t) => {
                if !tr.slices.is_empty() {
                    return Err(AlgebraError::bind(format!(
                        "cannot slice table {:?} (slabs apply to arrays)",
                        tr.name
                    )));
                }
                let schema: Vec<ColInfo> = t
                    .columns
                    .iter()
                    .map(|c| ColInfo {
                        name: c.name.clone(),
                        qualifier: Some(alias.clone()),
                        ty: c.ty,
                        dimensional: false,
                    })
                    .collect();
                Ok((
                    Plan::ScanTable {
                        name: t.name.clone(),
                        schema: schema.clone(),
                    },
                    schema,
                    None,
                ))
            }
            SchemaObject::Array(a) => {
                let a = a.clone();
                let shape = array_shape(&a)?;
                let mut schema: Vec<ColInfo> = Vec::new();
                for d in &a.dims {
                    schema.push(ColInfo {
                        name: d.name.clone(),
                        qualifier: Some(alias.clone()),
                        ty: d.ty,
                        dimensional: false,
                    });
                }
                for at in &a.attrs {
                    schema.push(ColInfo {
                        name: at.name.clone(),
                        qualifier: Some(alias.clone()),
                        ty: at.ty,
                        dimensional: false,
                    });
                }
                let mut plan = Plan::ScanArray {
                    name: a.name.clone(),
                    schema: schema.clone(),
                    shape: shape.clone(),
                    ndims: a.dims.len(),
                };
                // Slab bounds become filters on the dimension columns.
                if !tr.slices.is_empty() {
                    if tr.slices.len() != a.dims.len() {
                        return Err(AlgebraError::bind(format!(
                            "array {:?} has {} dimensions but {} slices given",
                            tr.name,
                            a.dims.len(),
                            tr.slices.len()
                        )));
                    }
                    let mut pred: Option<BExpr> = None;
                    for (k, s) in tr.slices.iter().enumerate() {
                        let col = BExpr::Col(col_base_offset(col_base, k));
                        if let Some(lo) = &s.lo {
                            let v = self.constant(lo)?;
                            let p = BExpr::bin(BinOp::Ge, col.clone(), BExpr::Const(v));
                            pred = Some(and_opt(pred, p));
                        }
                        if let Some(hi) = &s.hi {
                            let v = self.constant(hi)?;
                            let p = BExpr::bin(BinOp::Lt, col.clone(), BExpr::Const(v));
                            pred = Some(and_opt(pred, p));
                        }
                    }
                    if let Some(p) = pred {
                        // Slice predicates are relative to this table ref's
                        // own columns; rebase to local positions for the
                        // Filter directly above the scan.
                        let local = p.remap_cols(&|i| i - col_base);
                        plan = Plan::Filter {
                            input: Box::new(plan),
                            pred: local,
                        };
                    }
                }
                let arr_scope = ArrayScope {
                    name: a.name.clone(),
                    alias,
                    col_base,
                    ndims: a.dims.len(),
                    nattrs: a.attrs.len(),
                    shape,
                    steps: a
                        .dims
                        .iter()
                        .map(|d| d.range.map_or(1, |r| r.step))
                        .collect(),
                    dim_names: a.dims.iter().map(|d| d.name.clone()).collect(),
                };
                Ok((plan, schema, Some(arr_scope)))
            }
        }
    }

    // ------------------------------------------------------------------
    // plain (non-aggregate) queries
    // ------------------------------------------------------------------

    fn bind_plain_query(&self, sel: &SelectStmt, base: Plan, scope: Scope) -> Result<Plan> {
        let mut plan = base;
        // WHERE below projections; shifts inside the predicate are legal
        // because Filter's predicate is evaluated against its (aligned)
        // input.
        if let Some(w) = &sel.where_clause {
            let pred = self.bind_expr(&scope, w)?;
            plan = Plan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        let items = self.bind_projections(&scope, &sel.projections)?;
        // If any projected expression reads neighbouring cells, it must be
        // computed before filtering destroys the dense cell alignment:
        // rebuild as Scan → Project(pre) → Filter → Project(pick).
        let any_shift = items.iter().any(|(_, e, _)| e.contains_shift());
        if any_shift && sel.where_clause.is_some() {
            let Plan::Filter { input, pred } = plan else {
                unreachable!("built above")
            };
            let ncols = scope.cols.len();
            let mut pre_items: Vec<(String, BExpr, bool)> = scope
                .cols
                .iter()
                .enumerate()
                .map(|(i, c)| (format!("_c{i}"), BExpr::Col(i), c.dimensional))
                .collect();
            for (k, (name, e, dim)) in items.iter().enumerate() {
                pre_items.push((format!("_p{k}_{name}"), e.clone(), *dim));
            }
            let pre = Plan::Project {
                input,
                items: pre_items,
            };
            let filtered = Plan::Filter {
                input: Box::new(pre),
                pred, // column positions unchanged: pass-through prefix
            };
            let pick: Vec<(String, BExpr, bool)> = items
                .iter()
                .enumerate()
                .map(|(k, (name, _, dim))| (name.clone(), BExpr::Col(ncols + k), *dim))
                .collect();
            plan = Plan::Project {
                input: Box::new(filtered),
                items: pick,
            };
        } else {
            plan = Plan::Project {
                input: Box::new(plan),
                items,
            };
        }
        self.finish_select(sel, plan)
    }

    // ------------------------------------------------------------------
    // value-based aggregation
    // ------------------------------------------------------------------

    fn bind_value_aggregate_query(
        &self,
        sel: &SelectStmt,
        base: Plan,
        scope: Scope,
    ) -> Result<Plan> {
        let mut plan = base;
        if let Some(w) = &sel.where_clause {
            if w.contains_aggregate() {
                return Err(AlgebraError::bind("aggregates are not allowed in WHERE"));
            }
            let pred = self.bind_expr(&scope, w)?;
            plan = Plan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        let key_asts: Vec<Expr> = match &sel.group_by {
            Some(GroupBy::Value(es)) => es.clone(),
            None => vec![],
            Some(GroupBy::Structural(_)) => unreachable!("handled earlier"),
        };
        let keys: Vec<BExpr> = key_asts
            .iter()
            .map(|e| self.bind_expr(&scope, e))
            .collect::<Result<_>>()?;
        let mut aggs: Vec<AggCall> = Vec::new();
        // Projections over the group schema.
        let mut items: Vec<(String, BExpr, bool)> = Vec::new();
        for (i, p) in sel.projections.iter().enumerate() {
            match p {
                Projection::Wildcard => {
                    return Err(AlgebraError::bind("SELECT * is not allowed with GROUP BY"))
                }
                Projection::Item {
                    expr,
                    alias,
                    dimensional,
                } => {
                    let bound = self.bind_group_expr(&scope, &key_asts, &keys, &mut aggs, expr)?;
                    let name = alias.clone().unwrap_or_else(|| default_label(expr, i));
                    items.push((name, bound, *dimensional));
                }
            }
        }
        let having = sel
            .having
            .as_ref()
            .map(|h| self.bind_group_expr(&scope, &key_asts, &keys, &mut aggs, h))
            .transpose()?;
        let agg_plan = Plan::Aggregate {
            input: Box::new(plan),
            keys,
            aggs,
        };
        let mut plan = agg_plan;
        if let Some(h) = having {
            plan = Plan::Filter {
                input: Box::new(plan),
                pred: h,
            };
        }
        plan = Plan::Project {
            input: Box::new(plan),
            items,
        };
        self.finish_select(sel, plan)
    }

    // ------------------------------------------------------------------
    // structural grouping (tiling)
    // ------------------------------------------------------------------

    fn bind_tile_query(
        &self,
        sel: &SelectStmt,
        tiles: &[sciql_parser::ast::TileRef],
        base: Plan,
        scope: &Scope,
    ) -> Result<Plan> {
        if sel.where_clause.is_some() {
            return Err(AlgebraError::bind(
                "WHERE is not supported with structural grouping; filter anchors with HAVING",
            ));
        }
        if scope.arrays.len() != 1 || !matches!(base, Plan::ScanArray { .. }) {
            return Err(AlgebraError::bind(
                "structural grouping requires a single array in FROM",
            ));
        }
        let arr = &scope.arrays[0];
        // Extract tile cell offsets.
        let mut offsets: Vec<Vec<i64>> = Vec::new();
        for t in tiles {
            if !t.array.eq_ignore_ascii_case(&arr.alias) && !t.array.eq_ignore_ascii_case(&arr.name)
            {
                return Err(AlgebraError::bind(format!(
                    "tile references array {:?} which is not the FROM array {:?}",
                    t.array, arr.name
                )));
            }
            if t.indices.len() != arr.ndims {
                return Err(AlgebraError::bind(format!(
                    "tile has {} indices but array {:?} has {} dimensions",
                    t.indices.len(),
                    arr.name,
                    arr.ndims
                )));
            }
            // Per-dimension positional offset lists, then cartesian
            // product. A point no position names leaves its list, and so
            // this tile reference, empty.
            let mut per_dim: Vec<Vec<i64>> = Vec::with_capacity(arr.ndims);
            for (k, idx) in t.indices.iter().enumerate() {
                let (var, step) = (&arr.dim_names[k], arr.steps[k]);
                match idx {
                    TileIndex::Point(e) => per_dim.push(
                        point_position(self.offset(e, var)?, step)
                            .into_iter()
                            .collect(),
                    ),
                    TileIndex::Range(lo, hi) => {
                        let l = self.offset(lo, var)?;
                        let h = self.offset(hi, var)?;
                        if h <= l {
                            return Err(AlgebraError::bind(
                                "empty tile range (stop must exceed start)",
                            ));
                        }
                        per_dim.push(range_positions(l, h, step));
                    }
                }
            }
            cartesian(&per_dim, &mut offsets);
        }
        offsets.sort();
        offsets.dedup();

        // Bind aggregates and projections over the tile output schema.
        let mut aggs: Vec<AggCall> = Vec::new();
        let mut items: Vec<(String, BExpr, bool)> = Vec::new();
        for (i, p) in sel.projections.iter().enumerate() {
            match p {
                Projection::Wildcard => {
                    return Err(AlgebraError::bind(
                        "SELECT * is not allowed with structural grouping",
                    ))
                }
                Projection::Item {
                    expr,
                    alias,
                    dimensional,
                } => {
                    let bound = self.bind_tile_expr(scope, &mut aggs, expr)?;
                    let name = alias.clone().unwrap_or_else(|| default_label(expr, i));
                    items.push((name, bound, *dimensional));
                }
            }
        }
        let having = sel
            .having
            .as_ref()
            .map(|h| self.bind_tile_expr(scope, &mut aggs, h))
            .transpose()?;

        let mut plan = Plan::Tile {
            input: Box::new(base),
            offsets,
            aggs,
        };
        if let Some(h) = having {
            plan = Plan::Filter {
                input: Box::new(plan),
                pred: h,
            };
        }
        plan = Plan::Project {
            input: Box::new(plan),
            items,
        };
        self.finish_select(sel, plan)
    }

    /// Bind an expression in tile context: plain columns refer to the
    /// anchor cell (pass-through columns of the Tile output), aggregates
    /// become tile aggregates.
    fn bind_tile_expr(&self, scope: &Scope, aggs: &mut Vec<AggCall>, e: &Expr) -> Result<BExpr> {
        let arr = &scope.arrays[0];
        let base_cols = arr.ndims + arr.nattrs;
        match e {
            Expr::Func { name, args, star } => {
                if let Some(func) = AggFunc::from_name(name) {
                    let arg = if *star {
                        None
                    } else {
                        if args.len() != 1 {
                            return Err(AlgebraError::bind(format!(
                                "{name} takes exactly one argument"
                            )));
                        }
                        Some(self.bind_expr(scope, &args[0])?)
                    };
                    let call = AggCall { func, arg };
                    let idx = match aggs.iter().position(|a| *a == call) {
                        Some(i) => i,
                        None => {
                            aggs.push(call);
                            aggs.len() - 1
                        }
                    };
                    return Ok(BExpr::Col(base_cols + idx));
                }
                self.bind_scalar_parts(scope, e, &mut |sub| self.bind_tile_expr(scope, aggs, sub))
            }
            _ => self.bind_scalar_parts(scope, e, &mut |sub| self.bind_tile_expr(scope, aggs, sub)),
        }
    }

    /// Bind an expression in value-group context: whole sub-expressions
    /// matching a GROUP BY key become key column refs; aggregates become
    /// aggregate column refs; any other bare column is an error.
    fn bind_group_expr(
        &self,
        scope: &Scope,
        key_asts: &[Expr],
        keys: &[BExpr],
        aggs: &mut Vec<AggCall>,
        e: &Expr,
    ) -> Result<BExpr> {
        // Whole expression equals a grouping key?
        if let Some(i) = key_asts.iter().position(|k| k == e) {
            return Ok(BExpr::Col(i));
        }
        match e {
            Expr::Func { name, args, star } => {
                if let Some(func) = AggFunc::from_name(name) {
                    let arg = if *star {
                        None
                    } else {
                        if args.len() != 1 {
                            return Err(AlgebraError::bind(format!(
                                "{name} takes exactly one argument"
                            )));
                        }
                        Some(self.bind_expr(scope, &args[0])?)
                    };
                    let call = AggCall { func, arg };
                    let idx = match aggs.iter().position(|a| *a == call) {
                        Some(i) => i,
                        None => {
                            aggs.push(call);
                            aggs.len() - 1
                        }
                    };
                    return Ok(BExpr::Col(keys.len() + idx));
                }
                self.bind_scalar_parts(scope, e, &mut |sub| {
                    self.bind_group_expr(scope, key_asts, keys, aggs, sub)
                })
            }
            Expr::Column { qualifier, name } => Err(AlgebraError::bind(format!(
                "column {}{name} must appear in GROUP BY or inside an aggregate",
                qualifier
                    .as_deref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default()
            ))),
            Expr::Literal(l) => Ok(BExpr::Const(literal_value(l))),
            _ => self.bind_scalar_parts(scope, e, &mut |sub| {
                self.bind_group_expr(scope, key_asts, keys, aggs, sub)
            }),
        }
    }

    /// Structural recursion over non-leaf expression shapes; `rec` binds
    /// the children in the caller's context.
    fn bind_scalar_parts(
        &self,
        scope: &Scope,
        e: &Expr,
        rec: &mut dyn FnMut(&Expr) -> Result<BExpr>,
    ) -> Result<BExpr> {
        // Contextual bind-parameter typing: a `?`/`:name` next to a
        // column or literal adopts that sibling's type, so `v < ?`
        // compiles to the same typed kernel call as `v < 3`. A parameter
        // with no typed sibling stays untyped (the kernels coerce the
        // scalar at run time). A slot typed up front keeps its type.
        let hint = |sibling: &Expr| -> Option<ScalarType> {
            match sibling {
                Expr::Column { qualifier, name } => scope
                    .resolve(qualifier.as_deref(), name)
                    .ok()
                    .map(|i| scope.cols[i].ty),
                Expr::Literal(l) => literal_value(l).scalar_type(),
                _ => None,
            }
        };
        let operand = |e: &Expr,
                       sibling: &Expr,
                       rec: &mut dyn FnMut(&Expr) -> Result<BExpr>|
         -> Result<BExpr> {
            match e {
                Expr::Param(p) => Ok(BExpr::Param {
                    slot: p.slot,
                    ty: self.slot_type(p.slot).unwrap_or_else(|| hint(sibling)),
                }),
                other => rec(other),
            }
        };
        match e {
            Expr::Literal(l) => Ok(BExpr::Const(literal_value(l))),
            Expr::Param(p) => Ok(BExpr::Param {
                slot: p.slot,
                ty: self.slot_type(p.slot).flatten(),
            }),
            Expr::Column { qualifier, name } => {
                scope.resolve(qualifier.as_deref(), name).map(BExpr::Col)
            }
            Expr::Cell { array, indices } => self.bind_cell(scope, array, indices),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => Ok(BExpr::Neg(Box::new(rec(expr)?))),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => Ok(BExpr::Not(Box::new(rec(expr)?))),
            Expr::Binary { op, lhs, rhs } => Ok(BExpr::bin(
                *op,
                operand(lhs, rhs, rec)?,
                operand(rhs, lhs, rec)?,
            )),
            Expr::IsNull { expr, negated } => Ok(BExpr::IsNull {
                e: Box::new(rec(expr)?),
                negated: *negated,
            }),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let e0 = rec(expr)?;
                let lo_b = operand(lo, expr, rec)?;
                let hi_b = operand(hi, expr, rec)?;
                let both = BExpr::bin(
                    BinOp::And,
                    BExpr::bin(BinOp::Ge, e0.clone(), lo_b),
                    BExpr::bin(BinOp::Le, e0, hi_b),
                );
                Ok(if *negated {
                    BExpr::Not(Box::new(both))
                } else {
                    both
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let Expr::Literal(Literal::Str(pat)) = pattern.as_ref() else {
                    return Err(AlgebraError::bind("LIKE pattern must be a string literal"));
                };
                Ok(BExpr::Like {
                    e: Box::new(rec(expr)?),
                    pattern: pat.clone(),
                    negated: *negated,
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let e0 = rec(expr)?;
                let mut acc: Option<BExpr> = None;
                for item in list {
                    let eq = BExpr::bin(BinOp::Eq, e0.clone(), operand(item, expr, rec)?);
                    acc = Some(match acc {
                        None => eq,
                        Some(prev) => BExpr::bin(BinOp::Or, prev, eq),
                    });
                }
                let any = acc.ok_or_else(|| AlgebraError::bind("empty IN list"))?;
                Ok(if *negated {
                    BExpr::Not(Box::new(any))
                } else {
                    any
                })
            }
            Expr::Case {
                operand,
                whens,
                else_,
            } => {
                let mut bound_whens = Vec::with_capacity(whens.len());
                for (w, t) in whens {
                    let cond = match operand {
                        // Simple CASE: operand = when-value.
                        Some(op) => BExpr::bin(BinOp::Eq, rec(op)?, rec(w)?),
                        None => rec(w)?,
                    };
                    bound_whens.push((cond, rec(t)?));
                }
                let else_b = match else_ {
                    Some(e) => rec(e)?,
                    None => BExpr::Const(Value::Null),
                };
                Ok(BExpr::Case {
                    whens: bound_whens,
                    else_: Box::new(else_b),
                })
            }
            Expr::Func { name, args, star } => {
                if AggFunc::from_name(name).is_some() {
                    return Err(AlgebraError::bind(format!(
                        "aggregate {name} is not allowed here"
                    )));
                }
                if *star {
                    return Err(AlgebraError::bind("'*' argument outside COUNT"));
                }
                match name.as_str() {
                    "ABS" => {
                        if args.len() != 1 {
                            return Err(AlgebraError::bind("ABS takes one argument"));
                        }
                        Ok(BExpr::Abs(Box::new(rec(&args[0])?)))
                    }
                    "MOD" => {
                        if args.len() != 2 {
                            return Err(AlgebraError::bind("MOD takes two arguments"));
                        }
                        Ok(BExpr::bin(BinOp::Mod, rec(&args[0])?, rec(&args[1])?))
                    }
                    other => Err(AlgebraError::bind(format!("unknown function {other}"))),
                }
            }
            Expr::Cast { expr, ty } => {
                let target = ScalarType::from_sql_name(ty)
                    .ok_or_else(|| AlgebraError::bind(format!("unknown type {ty:?} in CAST")))?;
                Ok(BExpr::Cast {
                    e: Box::new(rec(expr)?),
                    ty: target,
                })
            }
        }
    }

    /// Bind an expression over a plain scope (no grouping).
    pub fn bind_expr(&self, scope: &Scope, e: &Expr) -> Result<BExpr> {
        if e.contains_aggregate() {
            // Leaf aggregates are rejected by bind_scalar_parts; this gives
            // a nicer message for the common case.
            if let Expr::Func { name, .. } = e {
                if AggFunc::from_name(name).is_some() {
                    return Err(AlgebraError::bind(format!(
                        "aggregate {name} requires GROUP BY context"
                    )));
                }
            }
        }
        let mut rec = |sub: &Expr| self.bind_expr(scope, sub);
        self.bind_scalar_parts(scope, e, &mut rec)
    }

    /// Bind a relative cell reference `arr[x-1][y]`.
    fn bind_cell(&self, scope: &Scope, array: &str, indices: &[Expr]) -> Result<BExpr> {
        let arr = scope.array_by_alias(array).ok_or_else(|| {
            AlgebraError::bind(format!("array {array:?} is not in scope for cell access"))
        })?;
        if indices.len() != arr.ndims {
            return Err(AlgebraError::bind(format!(
                "cell reference has {} indices, array {:?} has {} dimensions",
                indices.len(),
                arr.name,
                arr.ndims
            )));
        }
        if arr.nattrs != 1 {
            return Err(AlgebraError::bind(format!(
                "cell reference to {:?} is ambiguous: the array has {} attributes",
                arr.name, arr.nattrs
            )));
        }
        // A value offset no position names reads nil everywhere: a shift
        // by the dimension's length leaves every cell out of range.
        let mut deltas = Vec::with_capacity(indices.len());
        for (k, idx) in indices.iter().enumerate() {
            let offset = self.offset(idx, &arr.dim_names[k])?;
            deltas.push(point_position(offset, arr.steps[k]).unwrap_or(arr.shape[k] as i64));
        }
        let attr_col = arr.col_base + arr.ndims; // the single attribute
        if deltas.iter().all(|&d| d == 0) {
            return Ok(BExpr::Col(attr_col));
        }
        Ok(BExpr::Shift {
            col: attr_col,
            deltas,
        })
    }

    fn bind_projections(
        &self,
        scope: &Scope,
        projections: &[Projection],
    ) -> Result<Vec<(String, BExpr, bool)>> {
        let mut items = Vec::new();
        for (i, p) in projections.iter().enumerate() {
            match p {
                Projection::Wildcard => {
                    for (c, col) in scope.cols.iter().enumerate() {
                        items.push((col.name.clone(), BExpr::Col(c), col.dimensional));
                    }
                }
                Projection::Item {
                    expr,
                    alias,
                    dimensional,
                } => {
                    let bound = self.bind_expr(scope, expr)?;
                    let name = alias.clone().unwrap_or_else(|| default_label(expr, i));
                    items.push((name, bound, *dimensional));
                }
            }
        }
        Ok(items)
    }

    /// Apply DISTINCT / ORDER BY / LIMIT above a bound projection.
    fn finish_select(&self, sel: &SelectStmt, mut plan: Plan) -> Result<Plan> {
        if sel.distinct {
            plan = Plan::Distinct {
                input: Box::new(plan),
            };
        }
        if !sel.order_by.is_empty() {
            // ORDER BY binds over the output schema (labels); keys naming
            // non-projected input columns are carried as hidden columns
            // through the top Project and stripped afterwards (standard
            // SQL `SELECT v FROM m ORDER BY x`).
            let out_schema = plan.schema();
            let order_scope = Scope {
                cols: out_schema.clone(),
                arrays: vec![],
            };
            let mut keys: Vec<(BExpr, bool)> = Vec::with_capacity(sel.order_by.len());
            let mut hidden: Vec<(String, BExpr, bool)> = Vec::new();
            for o in &sel.order_by {
                match self.bind_expr(&order_scope, &o.expr) {
                    Ok(k) => keys.push((k, o.desc)),
                    Err(outer_err) => {
                        // Fall back to the Project's input scope.
                        let Plan::Project { input, items } = &plan else {
                            return Err(outer_err);
                        };
                        let in_scope = Scope {
                            cols: input.schema(),
                            arrays: vec![],
                        };
                        let k = self.bind_expr(&in_scope, &o.expr).map_err(|_| outer_err)?;
                        let pos = out_schema.len() + hidden.len();
                        hidden.push((format!("_order_{}", hidden.len()), k, false));
                        keys.push((BExpr::Col(pos), o.desc));
                        let _ = items;
                    }
                }
            }
            if !hidden.is_empty() {
                let Plan::Project { input, mut items } = plan else {
                    unreachable!("checked above")
                };
                let visible = items.len();
                items.extend(hidden);
                let widened = Plan::Project { input, items };
                let sorted = Plan::Sort {
                    input: Box::new(widened),
                    keys,
                };
                // Strip the hidden columns again.
                let pick: Vec<(String, BExpr, bool)> = out_schema
                    .iter()
                    .take(visible)
                    .enumerate()
                    .map(|(i, c)| (c.name.clone(), BExpr::Col(i), c.dimensional))
                    .collect();
                plan = Plan::Project {
                    input: Box::new(sorted),
                    items: pick,
                };
            } else {
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys,
                };
            }
        }
        if sel.limit.is_some() || sel.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: sel.limit,
                offset: sel.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }
}

/// Compute the dense shape of a fixed array; unbounded arrays cannot be
/// scanned.
pub fn array_shape(a: &ArrayDef) -> Result<Vec<usize>> {
    a.dims
        .iter()
        .map(|d| {
            d.range.map(|r| r.len()).ok_or_else(|| {
                AlgebraError::bind(format!(
                    "array {:?} has unbounded dimension {:?}; materialise it first",
                    a.name, d.name
                ))
            })
        })
        .collect()
}

fn default_label(e: &Expr, i: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col_{i}"),
    }
}

fn and_opt(acc: Option<BExpr>, next: BExpr) -> BExpr {
    match acc {
        None => next,
        Some(prev) => BExpr::bin(BinOp::And, prev, next),
    }
}

fn col_base_offset(base: usize, k: usize) -> usize {
    base + k
}

fn cartesian(per_dim: &[Vec<i64>], out: &mut Vec<Vec<i64>>) {
    let mut acc: Vec<Vec<i64>> = vec![vec![]];
    for dim in per_dim {
        let mut next = Vec::with_capacity(acc.len() * dim.len());
        for prefix in &acc {
            for &d in dim {
                let mut v = prefix.clone();
                v.push(d);
                next.push(v);
            }
        }
        acc = next;
    }
    out.extend(acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciql_catalog::{ColumnMeta, DimSpec, DimensionDef, TableDef};
    use sciql_parser::ast::Stmt;
    use sciql_parser::parse_statement;

    fn test_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(SchemaObject::Array(ArrayDef {
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
        }))
        .unwrap();
        c.create(SchemaObject::Table(TableDef {
            name: "boxes".into(),
            columns: vec![
                ColumnMeta {
                    name: "x1".into(),
                    ty: ScalarType::Int,
                    default: None,
                },
                ColumnMeta {
                    name: "x2".into(),
                    ty: ScalarType::Int,
                    default: None,
                },
            ],
        }))
        .unwrap();
        c
    }

    fn bind(sql: &str) -> Result<Plan> {
        let cat = test_catalog();
        let b = Binder::new(&cat);
        let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("expected SELECT");
        };
        b.bind_select(&sel)
    }

    #[test]
    fn plain_scan_project() {
        let p = bind("SELECT x, y, v FROM matrix").unwrap();
        let s = p.schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].name, "v");
        assert!(p.explain().contains("ScanArray matrix"));
    }

    #[test]
    fn where_becomes_filter() {
        let p = bind("SELECT v FROM matrix WHERE x > y").unwrap();
        assert!(p.explain().contains("Filter"));
    }

    #[test]
    fn paper_tiling_query_binds() {
        let p = bind(
            "SELECT [x], [y], AVG(v) FROM matrix \
             GROUP BY matrix[x:x+2][y:y+2] \
             HAVING x MOD 2 = 1 AND y MOD 2 = 1",
        )
        .unwrap();
        let text = p.explain();
        assert!(text.contains("Tile cells=4 aggs=1"), "{text}");
        assert!(text.contains("Filter"), "HAVING becomes a filter: {text}");
        let s = p.schema();
        assert!(s[0].dimensional && s[1].dimensional);
        assert_eq!(s[2].ty, ScalarType::Dbl);
    }

    #[test]
    fn game_of_life_step_binds() {
        let p = bind(
            "SELECT [x], [y], CASE WHEN v = 1 AND SUM(v) - v IN (2, 3) THEN 1 \
             WHEN v = 0 AND SUM(v) - v = 3 THEN 1 ELSE 0 END \
             FROM matrix GROUP BY matrix[x-1:x+2][y-1:y+2]",
        )
        .unwrap();
        assert!(
            p.explain().contains("Tile cells=9 aggs=1"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn point_list_tiles() {
        let p = bind(
            "SELECT [x], [y], SUM(v) FROM matrix \
             GROUP BY matrix[x][y], matrix[x+1][y], matrix[x][y+1]",
        )
        .unwrap();
        assert!(p.explain().contains("Tile cells=3"), "{}", p.explain());
    }

    #[test]
    fn cell_shift_binding() {
        let p = bind("SELECT [x], [y], v - matrix[x-1][y] FROM matrix").unwrap();
        assert!(p.explain().contains("Project"));
        // Zero-delta cell ref folds to a plain column.
        let p2 = bind("SELECT v - matrix[x][y] FROM matrix").unwrap();
        let Plan::Project { items, .. } = &p2 else {
            panic!()
        };
        assert!(!items[0].1.contains_shift());
    }

    #[test]
    fn shift_below_filter_restructuring() {
        let p = bind("SELECT v - matrix[x-1][y] FROM matrix WHERE x > 0").unwrap();
        // Expect Project(pick) → Filter → Project(pre) → Scan.
        let Plan::Project { input, .. } = &p else {
            panic!()
        };
        let Plan::Filter { input: f_in, .. } = input.as_ref() else {
            panic!("expected Filter under final Project: {}", p.explain())
        };
        assert!(matches!(f_in.as_ref(), Plan::Project { .. }));
    }

    #[test]
    fn value_group_by() {
        let p = bind("SELECT v, COUNT(*) FROM matrix GROUP BY v HAVING COUNT(*) > 1").unwrap();
        let text = p.explain();
        assert!(text.contains("Aggregate keys=1 aggs=1"), "{text}");
    }

    #[test]
    fn group_by_violations() {
        assert!(bind("SELECT x, SUM(v) FROM matrix GROUP BY y").is_err());
        assert!(bind("SELECT SUM(v) FROM matrix WHERE SUM(v) > 1").is_err());
        assert!(bind("SELECT v FROM matrix HAVING v > 1").is_err());
    }

    #[test]
    fn scalar_aggregate_without_group() {
        let p = bind("SELECT COUNT(*), AVG(v) FROM matrix").unwrap();
        assert!(
            p.explain().contains("Aggregate keys=0 aggs=2"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn cross_join_table_array() {
        let p = bind("SELECT v FROM matrix, boxes WHERE x BETWEEN x1 AND x2").unwrap();
        assert!(p.explain().contains("Cross"), "{}", p.explain());
    }

    #[test]
    fn slices_become_filters() {
        let p = bind("SELECT v FROM matrix[1:3][0:2]").unwrap();
        assert!(p.explain().contains("Filter"), "{}", p.explain());
    }

    #[test]
    fn tile_errors() {
        assert!(
            bind("SELECT [x], [y], AVG(v) FROM matrix GROUP BY other[x][y]").is_err(),
            "tile over wrong array"
        );
        assert!(
            bind("SELECT [x], AVG(v) FROM matrix GROUP BY matrix[x]").is_err(),
            "wrong index count"
        );
        assert!(
            bind("SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x][y]").is_err(),
            "empty range"
        );
        assert!(
            bind(
                "SELECT [x], [y], AVG(v) FROM matrix \
                 WHERE v > 0 GROUP BY matrix[x:x+2][y:y+2]"
            )
            .is_err(),
            "WHERE with tiling unsupported"
        );
        assert!(
            bind("SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[2*x][y]").is_err(),
            "non-unit coefficient"
        );
    }

    #[test]
    fn linear_offsets() {
        use sciql_parser::parse_expression;
        assert_eq!(
            linear_offset(&parse_expression("x").unwrap(), "x", &[]).unwrap(),
            0
        );
        assert_eq!(
            linear_offset(&parse_expression("x+2").unwrap(), "x", &[]).unwrap(),
            2
        );
        assert_eq!(
            linear_offset(&parse_expression("x-1").unwrap(), "x", &[]).unwrap(),
            -1
        );
        assert!(linear_offset(&parse_expression("2*x").unwrap(), "x", &[]).is_err());
        assert!(linear_offset(&parse_expression("y+1").unwrap(), "x", &[]).is_err());
    }

    #[test]
    fn order_by_and_limit() {
        let p = bind("SELECT v FROM matrix ORDER BY v DESC LIMIT 3 OFFSET 1").unwrap();
        let text = p.explain();
        assert!(text.contains("Sort"), "{text}");
        assert!(text.contains("Limit limit=Some(3) offset=1"), "{text}");
    }

    #[test]
    fn distinct_node() {
        let p = bind("SELECT DISTINCT v FROM matrix").unwrap();
        assert!(p.explain().contains("Distinct"));
    }

    #[test]
    fn unknown_names_error() {
        assert!(bind("SELECT nope FROM matrix").is_err());
        assert!(bind("SELECT v FROM missing").is_err());
        assert!(bind("SELECT boxes.x1 FROM matrix").is_err());
    }

    #[test]
    fn select_without_from() {
        let p = bind("SELECT 1 + 2").unwrap();
        assert!(p.explain().contains("Unit"));
    }
}
