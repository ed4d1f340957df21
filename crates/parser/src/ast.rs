//! Abstract syntax tree of the SciQL language.

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// SQL NULL.
    Null,
}

/// Binary operators (arithmetic, comparison, boolean).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` / `MOD`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Is this a comparison operator?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
    /// Is this a boolean connective?
    pub fn is_boolean(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Boolean NOT.
    Not,
}

/// A bind-parameter placeholder in a statement: `?` (positional) or
/// `:name` (named). Slots are assigned by the parser in first-appearance
/// order; every occurrence of the same `:name` shares one slot, while
/// each `?` gets a fresh one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamRef {
    /// Zero-based bind slot (the position in the value list the driver
    /// supplies at execute time).
    pub slot: usize,
    /// The `:name`, if this was a named placeholder (`None` for `?`).
    pub name: Option<String>,
}

/// Find the slot of a named parameter in a slot-descriptor list. The
/// leading `:` is optional and matching is case-insensitive — the one
/// lookup rule every layer (engine prepared statements, driver
/// handles) shares.
pub fn named_param_slot(params: &[ParamRef], name: &str) -> Option<usize> {
    let key = name.trim_start_matches(':').to_ascii_lowercase();
    params
        .iter()
        .find(|p| p.name.as_deref() == Some(key.as_str()))
        .map(|p| p.slot)
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Literal),
    /// A `?` / `:name` bind-parameter placeholder.
    Param(ParamRef),
    /// Column (or dimension) reference, optionally qualified
    /// (`m.v` or `v`).
    Column {
        /// Table/array qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Relative cell reference `A[x-1][y]` — SciQL's positional access to
    /// neighbouring cells (used by e.g. EdgeDetection).
    Cell {
        /// Array name.
        array: String,
        /// One index expression per dimension.
        indices: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi` (inclusive bounds).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        lo: Box<Expr>,
        /// Upper bound.
        hi: Box<Expr>,
        /// `NOT BETWEEN`?
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` (`%` any run, `_` one character,
    /// `\` escapes).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern operand (a string literal in well-formed queries;
        /// the binder enforces this).
        pattern: Box<Expr>,
        /// `NOT LIKE`?
        negated: bool,
    },
    /// `expr [NOT] IN (v, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN`?
        negated: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Optional comparison operand (simple CASE).
        operand: Option<Box<Expr>>,
        /// `(when, then)` pairs, evaluated in order ("the first predicate
        /// that holds dictates the cell values" — paper §2).
        whens: Vec<(Expr, Expr)>,
        /// ELSE branch.
        else_: Option<Box<Expr>>,
    },
    /// Function call — aggregate or scalar.
    Func {
        /// Function name (uppercased at parse time).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `COUNT(*)`.
        star: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// SQL type name.
        ty: String,
    },
}

impl Expr {
    /// Convenience: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }
    /// Convenience: bare column.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_owned(),
        }
    }
    /// Convenience: binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }
    /// Does this expression contain an aggregate function call?
    pub fn contains_aggregate(&self) -> bool {
        const AGGS: [&str; 5] = ["SUM", "AVG", "COUNT", "MIN", "MAX"];
        match self {
            Expr::Func { name, args, .. } => {
                AGGS.contains(&name.as_str()) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Binary { lhs, rhs, .. } => lhs.contains_aggregate() || rhs.contains_aggregate(),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.contains_aggregate()
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_aggregate() || lo.contains_aggregate() || hi.contains_aggregate()
            }
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Case {
                operand,
                whens,
                else_,
            } => {
                operand.as_deref().is_some_and(Expr::contains_aggregate)
                    || whens
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || else_.as_deref().is_some_and(Expr::contains_aggregate)
            }
            _ => false,
        }
    }
}

impl Expr {
    /// Pre-order walk over this expression and every sub-expression.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => {}
            Expr::Cell { indices, .. } => {
                for i in indices {
                    i.walk(f);
                }
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.walk(f)
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.walk(f);
                lo.walk(f);
                hi.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Case {
                operand,
                whens,
                else_,
            } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in whens {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }
}

/// One projection in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`.
    Wildcard,
    /// An expression, optionally aliased; `dimensional` marks the SciQL
    /// `[expr]` coercion qualifier that turns the output into an array
    /// dimension.
    Item {
        /// Projected expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
        /// Wrapped in `[ ]`?
        dimensional: bool,
    },
}

/// A slice bound pair `[lo:hi]` on a FROM-clause array reference
/// (right-open, either side optional).
#[derive(Debug, Clone, PartialEq)]
pub struct SliceRange {
    /// Lower bound (inclusive), `None` = from the start.
    pub lo: Option<Expr>,
    /// Upper bound (exclusive), `None` = to the end.
    pub hi: Option<Expr>,
}

/// A table or array reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Object name.
    pub name: String,
    /// `AS alias`.
    pub alias: Option<String>,
    /// Array slab bounds, one per dimension (`img[0:100][0:100]`).
    pub slices: Vec<SliceRange>,
}

/// One index of a structural-grouping tile.
#[derive(Debug, Clone, PartialEq)]
pub enum TileIndex {
    /// Single cell offset, e.g. `[x]` or `[x+1]`.
    Point(Expr),
    /// Right-open range, e.g. `[x:x+2]` or `[x-1:x+2]`.
    Range(Expr, Expr),
}

/// A tile reference in a structural GROUP BY:
/// `matrix[x:x+2][y:y+2]` or `matrix[x-1][y]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRef {
    /// Array being tiled.
    pub array: String,
    /// One index per dimension.
    pub indices: Vec<TileIndex>,
}

/// GROUP BY clause: classic value-based, or SciQL structural tiling.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupBy {
    /// `GROUP BY expr, …` (SQL:2003 value grouping).
    Value(Vec<Expr>),
    /// `GROUP BY arr[…][…], …` (SciQL structural grouping; the first
    /// point-index expressions name the anchor variables).
    Structural(Vec<TileRef>),
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<Projection>,
    /// FROM items (comma = cross join; explicit JOIN is desugared by the
    /// parser into FROM items + WHERE conjuncts).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY clause.
    pub group_by: Option<GroupBy>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// OFFSET row count.
    pub offset: Option<u64>,
}

/// Dimension range `[start:step:stop]` (right-open `[start, stop)`).
#[derive(Debug, Clone, PartialEq)]
pub struct DimRange {
    /// First value.
    pub start: Expr,
    /// Step.
    pub step: Expr,
    /// Exclusive stop.
    pub stop: Expr,
}

/// Kind of a column in a CREATE statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnKind {
    /// Plain table attribute / array cell value, with optional DEFAULT
    /// (omitting the default implies NULL — paper §2).
    Attribute {
        /// DEFAULT expression.
        default: Option<Expr>,
    },
    /// Array dimension; `None` range means unbounded.
    Dimension {
        /// `[start:step:stop]` constraint.
        range: Option<DimRange>,
    },
}

/// One column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// SQL type name (`INT`, `DOUBLE`, …).
    pub type_name: String,
    /// Dimension vs attribute.
    pub kind: ColumnKind,
}

/// INSERT data source.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO … SELECT …`.
    Select(Box<SelectStmt>),
}

/// Top-level statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `CREATE TABLE name (col type [DEFAULT v], …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Columns.
        columns: Vec<ColumnDef>,
    },
    /// `CREATE ARRAY name (dim type DIMENSION[…], …, attr type [DEFAULT v])`.
    CreateArray {
        /// Array name.
        name: String,
        /// Dimensions and attributes, in declaration order.
        columns: Vec<ColumnDef>,
    },
    /// `DROP TABLE name` / `DROP ARRAY name`.
    Drop {
        /// Object name.
        name: String,
        /// Was it spelled `DROP ARRAY`?
        array: bool,
    },
    /// `ALTER ARRAY name ALTER DIMENSION dim SET RANGE [a:s:b]`.
    AlterDimension {
        /// Array name.
        array: String,
        /// Dimension name.
        dimension: String,
        /// New range.
        range: DimRange,
    },
    /// INSERT.
    Insert {
        /// Target object.
        table: String,
        /// Explicit column list.
        columns: Option<Vec<String>>,
        /// Data source.
        source: InsertSource,
    },
    /// DELETE (on arrays: punches NULL holes).
    Delete {
        /// Target object.
        table: String,
        /// WHERE predicate.
        filter: Option<Expr>,
    },
    /// UPDATE.
    Update {
        /// Target object.
        table: String,
        /// SET assignments.
        sets: Vec<(String, Expr)>,
        /// WHERE predicate.
        filter: Option<Expr>,
    },
    /// `COPY target FROM 'path' (FORMAT csv|binary)` — streaming bulk
    /// ingest from a file.
    Copy {
        /// Target table or array.
        target: String,
        /// Source file path (as written; resolved by the executor).
        path: String,
        /// Input file format.
        format: CopyFormat,
    },
    /// SELECT query.
    Select(SelectStmt),
    /// `EXPLAIN [ANALYZE] <statement>` — plan inspection. Plain
    /// `EXPLAIN` renders the plan without running it; `EXPLAIN ANALYZE`
    /// executes the statement and returns its timed span tree.
    Explain {
        /// Execute and measure (`EXPLAIN ANALYZE`)?
        analyze: bool,
        /// The statement being explained.
        stmt: Box<Stmt>,
    },
}

/// Input format of a COPY statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyFormat {
    /// Comma-separated text, one row per line, empty field or `NULL` for
    /// nil.
    Csv,
    /// The engine's binary batch format (`gdk::codec` framed BATs).
    Binary,
}

impl SelectStmt {
    /// Pre-order walk over every expression in the statement (projection
    /// list, FROM slices, WHERE, GROUP BY, HAVING, ORDER BY).
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        for p in &self.projections {
            if let Projection::Item { expr, .. } = p {
                expr.walk(f);
            }
        }
        for t in &self.from {
            for s in &t.slices {
                if let Some(lo) = &s.lo {
                    lo.walk(f);
                }
                if let Some(hi) = &s.hi {
                    hi.walk(f);
                }
            }
        }
        if let Some(w) = &self.where_clause {
            w.walk(f);
        }
        match &self.group_by {
            Some(GroupBy::Value(es)) => {
                for e in es {
                    e.walk(f);
                }
            }
            Some(GroupBy::Structural(tiles)) => {
                for t in tiles {
                    for i in &t.indices {
                        match i {
                            TileIndex::Point(e) => e.walk(f),
                            TileIndex::Range(a, b) => {
                                a.walk(f);
                                b.walk(f);
                            }
                        }
                    }
                }
            }
            None => {}
        }
        if let Some(h) = &self.having {
            h.walk(f);
        }
        for o in &self.order_by {
            o.expr.walk(f);
        }
    }

    /// The statement with its comparison literals lifted out, for plan
    /// caching: statements that differ only in those literals lift to
    /// the same statement. A literal is lifted where it is a direct
    /// operand of `=`, `<>`, `<`, `<=`, `>` or `>=`, or a `BETWEEN` bound,
    /// in the WHERE clause, and its other operand reads a column (so
    /// `1 = 1` still folds). It becomes a `?` placeholder, numbered in
    /// pre-order, and comes back in slot order; a negated number is
    /// lifted as its negative value. `NULL` and every literal anywhere
    /// else (projections, `CASE`, `IN` lists, slices, tiles, `LIMIT`)
    /// stay in place. `None` when the statement has placeholders of its
    /// own.
    pub fn lift_literals(&self) -> Option<(SelectStmt, Vec<Literal>)> {
        let mut has_params = false;
        self.walk_exprs(&mut |e| has_params |= matches!(e, Expr::Param(_)));
        if has_params {
            return None;
        }
        let mut lifted = self.clone();
        let mut literals = Vec::new();
        if let Some(w) = &mut lifted.where_clause {
            lift_comparisons(w, &mut literals);
        }
        Some((lifted, literals))
    }
}

/// Does the expression read a column or a cell?
fn reads_column(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |e| found |= matches!(e, Expr::Column { .. } | Expr::Cell { .. }));
    found
}

/// Lift the comparison literals of a WHERE predicate (see
/// [`SelectStmt::lift_literals`]), descending through the boolean and
/// comparison structure only.
fn lift_comparisons(e: &mut Expr, out: &mut Vec<Literal>) {
    match e {
        Expr::Binary { op, lhs, rhs } => {
            if op.is_comparison() {
                let (lhs_reads, rhs_reads) = (reads_column(lhs), reads_column(rhs));
                if rhs_reads {
                    lift_operand(lhs, out);
                }
                if lhs_reads {
                    lift_operand(rhs, out);
                }
            }
            lift_comparisons(lhs, out);
            lift_comparisons(rhs, out);
        }
        Expr::Between { expr, lo, hi, .. } => {
            if reads_column(expr) {
                lift_operand(lo, out);
                lift_operand(hi, out);
            }
            lift_comparisons(expr, out);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => lift_comparisons(expr, out),
        _ => {}
    }
}

/// Replace a non-NULL literal operand by the next placeholder slot.
fn lift_operand(e: &mut Expr, out: &mut Vec<Literal>) {
    let literal = match e {
        Expr::Literal(Literal::Null) => return,
        Expr::Literal(l) => l.clone(),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match **expr {
            Expr::Literal(Literal::Int(v)) => match v.checked_neg() {
                Some(v) => Literal::Int(v),
                None => return,
            },
            Expr::Literal(Literal::Float(v)) => Literal::Float(-v),
            _ => return,
        },
        _ => return,
    };
    *e = Expr::Param(ParamRef {
        slot: out.len(),
        name: None,
    });
    out.push(literal);
}

impl Stmt {
    /// Pre-order walk over every expression in the statement.
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match self {
            Stmt::Select(s) => s.walk_exprs(f),
            Stmt::Explain { stmt, .. } => stmt.walk_exprs(f),
            Stmt::CreateTable { columns, .. } | Stmt::CreateArray { columns, .. } => {
                for c in columns {
                    match &c.kind {
                        ColumnKind::Attribute { default: Some(d) } => d.walk(f),
                        ColumnKind::Attribute { default: None } => {}
                        ColumnKind::Dimension { range } => {
                            if let Some(r) = range {
                                r.start.walk(f);
                                r.step.walk(f);
                                r.stop.walk(f);
                            }
                        }
                    }
                }
            }
            Stmt::Drop { .. } | Stmt::Copy { .. } => {}
            Stmt::AlterDimension { range, .. } => {
                range.start.walk(f);
                range.step.walk(f);
                range.stop.walk(f);
            }
            Stmt::Insert { source, .. } => match source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            e.walk(f);
                        }
                    }
                }
                InsertSource::Select(s) => s.walk_exprs(f),
            },
            Stmt::Delete { filter, .. } => {
                if let Some(p) = filter {
                    p.walk(f);
                }
            }
            Stmt::Update { sets, filter, .. } => {
                for (_, e) in sets {
                    e.walk(f);
                }
                if let Some(p) = filter {
                    p.walk(f);
                }
            }
        }
    }

    /// The statement's bind parameters, one entry per slot in slot order.
    /// Every occurrence of the same `:name` shares a slot, so the result
    /// is dense: `result[k].slot == k`.
    pub fn params(&self) -> Vec<ParamRef> {
        let mut by_slot: Vec<ParamRef> = Vec::new();
        self.walk_exprs(&mut |e| {
            if let Expr::Param(p) = e {
                if !by_slot.iter().any(|q| q.slot == p.slot) {
                    by_slot.push(p.clone());
                }
            }
        });
        by_slot.sort_by_key(|p| p.slot);
        by_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let e = Expr::bin(
            BinOp::Sub,
            Expr::Func {
                name: "SUM".into(),
                args: vec![Expr::col("v")],
                star: false,
            },
            Expr::col("v"),
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("v").contains_aggregate());
        let nested = Expr::Case {
            operand: None,
            whens: vec![(
                Expr::col("a"),
                Expr::Func {
                    name: "MAX".into(),
                    args: vec![Expr::col("v")],
                    star: false,
                },
            )],
            else_: None,
        };
        assert!(nested.contains_aggregate());
    }

    #[test]
    fn lifts_only_where_comparison_literals() {
        let sql = "SELECT v + 1 FROM m WHERE x = 3 AND -y BETWEEN -2 AND 2.5 AND 1 = 1 \
                   AND 'a' <> s AND w = NULL AND v IN (1, 2) \
                   AND CASE WHEN v > 7 THEN TRUE END LIMIT 5";
        let Stmt::Select(sel) = crate::parse_statement(sql).unwrap() else {
            panic!("a SELECT")
        };
        let (lifted, literals) = sel.lift_literals().unwrap();
        assert_eq!(
            literals,
            [
                Literal::Int(3),
                Literal::Int(-2),
                Literal::Float(2.5),
                Literal::Str("a".into())
            ]
        );
        assert_eq!(
            lifted.to_string(),
            "SELECT (v + 1) FROM m WHERE (((((((x = ?) AND ((-(y)) BETWEEN (?) AND (?))) \
             AND (1 = 1)) AND (? <> s)) AND (w = NULL)) AND ((v) IN (1, 2))) \
             AND CASE WHEN (v > 7) THEN TRUE END) LIMIT 5"
        );
        let Stmt::Select(with_param) =
            crate::parse_statement("SELECT v FROM m WHERE x = ?").unwrap()
        else {
            panic!("a SELECT")
        };
        assert!(with_param.lift_literals().is_none());
        // The parser folds `-5` itself; a built AST may not have.
        let negated = |e: Expr| Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(e),
        };
        let built = SelectStmt {
            where_clause: Some(Expr::bin(BinOp::Gt, Expr::col("x"), negated(Expr::int(5)))),
            ..with_param
        };
        let (lifted, literals) = built.lift_literals().unwrap();
        assert_eq!(literals, [Literal::Int(-5)]);
        assert_eq!(lifted.to_string(), "SELECT v FROM m WHERE (x > ?)");
    }

    #[test]
    fn op_classification() {
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_boolean());
        assert!(!BinOp::Lt.is_boolean());
    }
}
