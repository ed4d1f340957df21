//! Recursive-descent parser for SciQL.

use crate::ast::*;
use crate::lexer::tokenize;
use crate::token::{Keyword, Token, TokenKind};
use crate::ParseError;

/// Parse a semicolon-separated script into statements.
pub fn parse_statements(input: &str) -> Result<Vec<Stmt>, ParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser::new(toks);
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.check(&TokenKind::Eof) {
            break;
        }
        // Parameter slots are scoped per statement: `SELECT ?; SELECT ?`
        // is two single-parameter statements.
        p.reset_params();
        out.push(p.statement()?);
        if !p.check(&TokenKind::Eof) && !p.check(&TokenKind::Semicolon) {
            return Err(p.unexpected("';' or end of input"));
        }
    }
    Ok(out)
}

/// Parse exactly one statement.
pub fn parse_statement(input: &str) -> Result<Stmt, ParseError> {
    let stmts = parse_statements(input)?;
    match stmts.len() {
        1 => Ok(stmts.into_iter().next().expect("len checked")),
        0 => Err(ParseError::at(0, "empty input")),
        n => Err(ParseError::at(
            0,
            format!("expected one statement, found {n}"),
        )),
    }
}

/// Parse a standalone expression (testing / tooling convenience).
pub fn parse_expression(input: &str) -> Result<Expr, ParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser::new(toks);
    let e = p.expr()?;
    if !p.check(&TokenKind::Eof) {
        return Err(p.unexpected("end of input"));
    }
    Ok(e)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Bind slots assigned so far in the current statement.
    param_slots: usize,
    /// `:name` → slot (names are case-insensitive; stored lowercased).
    named_params: Vec<(String, usize)>,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Parser {
        Parser {
            toks,
            pos: 0,
            param_slots: 0,
            named_params: Vec::new(),
        }
    }

    /// Start a fresh per-statement parameter slot space.
    fn reset_params(&mut self) {
        self.param_slots = 0;
        self.named_params.clear();
    }

    /// Assign a fresh positional slot (`?`).
    fn positional_param(&mut self) -> ParamRef {
        let slot = self.param_slots;
        self.param_slots += 1;
        ParamRef { slot, name: None }
    }

    /// Resolve (or assign) the slot of a `:name` parameter.
    fn named_param(&mut self, name: &str) -> ParamRef {
        let key = name.to_ascii_lowercase();
        let slot = match self.named_params.iter().find(|(n, _)| *n == key) {
            Some((_, s)) => *s,
            None => {
                let s = self.param_slots;
                self.param_slots += 1;
                self.named_params.push((key.clone(), s));
                s
            }
        };
        ParamRef {
            slot,
            name: Some(key),
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }
    fn peek_ahead(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.toks.len() - 1);
        &self.toks[i].kind
    }
    fn offset(&self) -> usize {
        self.toks[self.pos].offset
    }
    fn advance(&mut self) -> TokenKind {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }
    fn check(&self, k: &TokenKind) -> bool {
        self.peek() == k
    }
    fn check_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }
    fn eat(&mut self, k: &TokenKind) -> bool {
        if self.check(k) {
            self.advance();
            true
        } else {
            false
        }
    }
    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }
    fn expect(&mut self, k: &TokenKind) -> Result<(), ParseError> {
        if self.eat(k) {
            Ok(())
        } else {
            Err(self.unexpected(&k.to_string()))
        }
    }
    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("{kw:?}")))
        }
    }
    fn unexpected(&self, wanted: &str) -> ParseError {
        ParseError::at(
            self.offset(),
            format!("expected {wanted}, found {}", self.peek()),
        )
    }
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }
    /// An identifier in expression-operator position (`MOD`).
    fn peek_is_word(&self, word: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(word))
    }

    // ------------------------------------------------------------------
    // statements
    // ------------------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::EXPLAIN) => self.explain_stmt(),
            TokenKind::Keyword(Keyword::SELECT) => Ok(Stmt::Select(self.select()?)),
            TokenKind::Keyword(Keyword::CREATE) => self.create(),
            TokenKind::Keyword(Keyword::DROP) => self.drop_stmt(),
            TokenKind::Keyword(Keyword::ALTER) => self.alter(),
            TokenKind::Keyword(Keyword::INSERT) => self.insert(),
            TokenKind::Keyword(Keyword::DELETE) => self.delete(),
            TokenKind::Keyword(Keyword::UPDATE) => self.update(),
            TokenKind::Keyword(Keyword::COPY) => self.copy_stmt(),
            _ => Err(self.unexpected("a statement")),
        }
    }

    // EXPLAIN [ANALYZE] statement
    fn explain_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw(Keyword::EXPLAIN)?;
        let analyze = self.eat_kw(Keyword::ANALYZE);
        if matches!(self.peek(), TokenKind::Keyword(Keyword::EXPLAIN)) {
            return Err(ParseError::at(
                self.offset(),
                "EXPLAIN cannot be nested".to_owned(),
            ));
        }
        let stmt = self.statement()?;
        Ok(Stmt::Explain {
            analyze,
            stmt: Box::new(stmt),
        })
    }

    // COPY target FROM 'path' [(FORMAT csv|binary)]
    fn copy_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw(Keyword::COPY)?;
        let target = self.ident()?;
        self.expect_kw(Keyword::FROM)?;
        let path = match self.peek().clone() {
            TokenKind::Str(s) => {
                self.advance();
                s
            }
            _ => return Err(self.unexpected("a quoted file path")),
        };
        let format = if self.eat(&TokenKind::LParen) {
            self.expect_kw(Keyword::FORMAT)?;
            let word = self.ident()?;
            let format = match word.to_ascii_lowercase().as_str() {
                "csv" => CopyFormat::Csv,
                "binary" => CopyFormat::Binary,
                _ => {
                    return Err(ParseError::at(
                        self.offset(),
                        format!("unknown COPY format {word:?} (expected csv or binary)"),
                    ))
                }
            };
            self.expect(&TokenKind::RParen)?;
            format
        } else {
            CopyFormat::Csv
        };
        Ok(Stmt::Copy {
            target,
            path,
            format,
        })
    }

    fn create(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw(Keyword::CREATE)?;
        let array = if self.eat_kw(Keyword::ARRAY) {
            true
        } else {
            self.expect_kw(Keyword::TABLE)?;
            false
        };
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.column_def(array)?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        if array {
            if !columns
                .iter()
                .any(|c| matches!(c.kind, ColumnKind::Dimension { .. }))
            {
                return Err(ParseError::at(
                    self.offset(),
                    "an ARRAY needs at least one DIMENSION column",
                ));
            }
            Ok(Stmt::CreateArray { name, columns })
        } else {
            if columns
                .iter()
                .any(|c| matches!(c.kind, ColumnKind::Dimension { .. }))
            {
                return Err(ParseError::at(
                    self.offset(),
                    "DIMENSION columns are only allowed in CREATE ARRAY",
                ));
            }
            Ok(Stmt::CreateTable { name, columns })
        }
    }

    fn column_def(&mut self, in_array: bool) -> Result<ColumnDef, ParseError> {
        let name = self.ident()?;
        let type_name = self.ident()?;
        if self.eat_kw(Keyword::DIMENSION) {
            if !in_array {
                return Err(ParseError::at(
                    self.offset(),
                    "DIMENSION columns are only allowed in CREATE ARRAY",
                ));
            }
            let range = if self.check(&TokenKind::LBracket) {
                Some(self.dim_range()?)
            } else {
                None
            };
            return Ok(ColumnDef {
                name,
                type_name,
                kind: ColumnKind::Dimension { range },
            });
        }
        let default = if self.eat_kw(Keyword::DEFAULT) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(ColumnDef {
            name,
            type_name,
            kind: ColumnKind::Attribute { default },
        })
    }

    fn dim_range(&mut self) -> Result<DimRange, ParseError> {
        self.expect(&TokenKind::LBracket)?;
        let start = self.expr()?;
        self.expect(&TokenKind::Colon)?;
        let step = self.expr()?;
        self.expect(&TokenKind::Colon)?;
        let stop = self.expr()?;
        self.expect(&TokenKind::RBracket)?;
        Ok(DimRange { start, step, stop })
    }

    fn drop_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw(Keyword::DROP)?;
        let array = if self.eat_kw(Keyword::ARRAY) {
            true
        } else {
            self.expect_kw(Keyword::TABLE)?;
            false
        };
        let name = self.ident()?;
        Ok(Stmt::Drop { name, array })
    }

    fn alter(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw(Keyword::ALTER)?;
        self.expect_kw(Keyword::ARRAY)?;
        let array = self.ident()?;
        self.expect_kw(Keyword::ALTER)?;
        self.expect_kw(Keyword::DIMENSION)?;
        let dimension = self.ident()?;
        self.expect_kw(Keyword::SET)?;
        self.expect_kw(Keyword::RANGE)?;
        let range = self.dim_range()?;
        Ok(Stmt::AlterDimension {
            array,
            dimension,
            range,
        })
    }

    fn insert(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw(Keyword::INSERT)?;
        self.expect_kw(Keyword::INTO)?;
        let table = self.ident()?;
        let columns = if self.check(&TokenKind::LParen) {
            self.advance();
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            Some(cols)
        } else {
            None
        };
        let source = if self.eat_kw(Keyword::VALUES) {
            let mut rows = Vec::new();
            loop {
                self.expect(&TokenKind::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                rows.push(row);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.check_kw(Keyword::SELECT) {
            InsertSource::Select(Box::new(self.select()?))
        } else {
            return Err(self.unexpected("VALUES or SELECT"));
        };
        Ok(Stmt::Insert {
            table,
            columns,
            source,
        })
    }

    fn delete(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw(Keyword::DELETE)?;
        self.expect_kw(Keyword::FROM)?;
        let table = self.ident()?;
        let filter = if self.eat_kw(Keyword::WHERE) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete { table, filter })
    }

    fn update(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw(Keyword::UPDATE)?;
        let table = self.ident()?;
        self.expect_kw(Keyword::SET)?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw(Keyword::WHERE) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            filter,
        })
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    fn select(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_kw(Keyword::SELECT)?;
        let distinct = self.eat_kw(Keyword::DISTINCT);
        let mut projections = Vec::new();
        loop {
            projections.push(self.projection()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        let mut joined_filters: Vec<Expr> = Vec::new();
        if self.eat_kw(Keyword::FROM) {
            loop {
                from.push(self.table_ref()?);
                // Desugar explicit joins into FROM items + WHERE conjuncts.
                loop {
                    let cross = self.check_kw(Keyword::CROSS);
                    let inner = self.check_kw(Keyword::INNER) || self.check_kw(Keyword::JOIN);
                    if self.check_kw(Keyword::LEFT) {
                        return Err(ParseError::at(
                            self.offset(),
                            "LEFT OUTER JOIN is not supported",
                        ));
                    }
                    if !(cross || inner) {
                        break;
                    }
                    self.eat_kw(Keyword::CROSS);
                    self.eat_kw(Keyword::INNER);
                    self.expect_kw(Keyword::JOIN)?;
                    from.push(self.table_ref()?);
                    if self.eat_kw(Keyword::ON) {
                        joined_filters.push(self.expr()?);
                    } else if !cross {
                        return Err(self.unexpected("ON"));
                    }
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut where_clause = if self.eat_kw(Keyword::WHERE) {
            Some(self.expr()?)
        } else {
            None
        };
        for f in joined_filters {
            where_clause = Some(match where_clause {
                None => f,
                Some(w) => Expr::bin(BinOp::And, w, f),
            });
        }
        let group_by = if self.eat_kw(Keyword::GROUP) {
            self.expect_kw(Keyword::BY)?;
            Some(self.group_by()?)
        } else {
            None
        };
        let having = if self.eat_kw(Keyword::HAVING) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::ORDER) {
            self.expect_kw(Keyword::BY)?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw(Keyword::DESC) {
                    true
                } else {
                    self.eat_kw(Keyword::ASC);
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(Keyword::LIMIT) {
            Some(self.unsigned()?)
        } else {
            None
        };
        let offset = if self.eat_kw(Keyword::OFFSET) {
            Some(self.unsigned()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn unsigned(&mut self) -> Result<u64, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(v) if v >= 0 => {
                self.advance();
                Ok(v as u64)
            }
            _ => Err(self.unexpected("a non-negative integer")),
        }
    }

    fn projection(&mut self) -> Result<Projection, ParseError> {
        if self.check(&TokenKind::Star) {
            self.advance();
            return Ok(Projection::Wildcard);
        }
        // SciQL dimension qualifier: [expr] — but `[` can only start a
        // projection here (cell refs start with an identifier).
        if self.check(&TokenKind::LBracket) {
            self.advance();
            let expr = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            let alias = self.alias()?;
            return Ok(Projection::Item {
                expr,
                alias,
                dimensional: true,
            });
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(Projection::Item {
            expr,
            alias,
            dimensional: false,
        })
    }

    fn alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw(Keyword::AS) {
            return Ok(Some(self.ident()?));
        }
        if let TokenKind::Ident(s) = self.peek().clone() {
            self.advance();
            return Ok(Some(s));
        }
        Ok(None)
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let mut name = self.ident()?;
        // Schema-qualified name (`sys.metrics`): the dot joins into one
        // catalog key, mirroring how the catalog stores system views.
        if self.check(&TokenKind::Dot) && matches!(self.peek_ahead(1), TokenKind::Ident(_)) {
            self.advance();
            let rest = self.ident()?;
            name = format!("{name}.{rest}");
        }
        let mut slices = Vec::new();
        while self.check(&TokenKind::LBracket) {
            self.advance();
            let lo = if self.check(&TokenKind::Colon) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&TokenKind::Colon)?;
            let hi = if self.check(&TokenKind::RBracket) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&TokenKind::RBracket)?;
            slices.push(SliceRange { lo, hi });
        }
        let alias = self.alias()?;
        Ok(TableRef {
            name,
            alias,
            slices,
        })
    }

    fn group_by(&mut self) -> Result<GroupBy, ParseError> {
        // Structural grouping: identifier immediately followed by '['.
        if matches!(self.peek(), TokenKind::Ident(_)) && *self.peek_ahead(1) == TokenKind::LBracket
        {
            let mut tiles = Vec::new();
            loop {
                tiles.push(self.tile_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            return Ok(GroupBy::Structural(tiles));
        }
        let mut exprs = Vec::new();
        loop {
            exprs.push(self.expr()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(GroupBy::Value(exprs))
    }

    fn tile_ref(&mut self) -> Result<TileRef, ParseError> {
        let array = self.ident()?;
        let mut indices = Vec::new();
        while self.check(&TokenKind::LBracket) {
            self.advance();
            let first = self.expr()?;
            if self.eat(&TokenKind::Colon) {
                let second = self.expr()?;
                indices.push(TileIndex::Range(first, second));
            } else {
                indices.push(TileIndex::Point(first));
            }
            self.expect(&TokenKind::RBracket)?;
        }
        if indices.is_empty() {
            return Err(self.unexpected("'[' (tile index)"));
        }
        Ok(TileRef { array, indices })
    }

    // ------------------------------------------------------------------
    // expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw(Keyword::OR) {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw(Keyword::AND) {
            let rhs = self.not_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw(Keyword::NOT) {
            let e = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            });
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        // IS [NOT] NULL
        if self.eat_kw(Keyword::IS) {
            let negated = self.eat_kw(Keyword::NOT);
            self.expect_kw(Keyword::NULL)?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] BETWEEN / IN / LIKE
        let negated = if self.check_kw(Keyword::NOT)
            && (matches!(self.peek_ahead(1), TokenKind::Keyword(Keyword::BETWEEN))
                || matches!(self.peek_ahead(1), TokenKind::Keyword(Keyword::IN))
                || matches!(self.peek_ahead(1), TokenKind::Keyword(Keyword::LIKE)))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw(Keyword::BETWEEN) {
            let lo = self.add_expr()?;
            self.expect_kw(Keyword::AND)?;
            let hi = self.add_expr()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_kw(Keyword::LIKE) {
            let pattern = self.add_expr()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw(Keyword::IN) {
            self.expect(&TokenKind::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if negated {
            return Err(self.unexpected("BETWEEN, IN or LIKE after NOT"));
        }
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.mul_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ if self.peek_is_word("MOD") => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.unary_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::Minus) {
            let e = self.unary_expr()?;
            // Fold negative literals immediately.
            return Ok(match e {
                Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&TokenKind::Plus) {
            return self.unary_expr();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Int(v)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Float(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::Str(s)))
            }
            TokenKind::Keyword(Keyword::TRUE) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(true)))
            }
            TokenKind::Keyword(Keyword::FALSE) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(false)))
            }
            TokenKind::Keyword(Keyword::NULL) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            TokenKind::Question => {
                self.advance();
                let p = self.positional_param();
                Ok(Expr::Param(p))
            }
            // `:name` only ever starts an expression as a named bind
            // parameter (range/slice colons are consumed by their own
            // grammar rules before an expression is parsed).
            TokenKind::Colon => {
                self.advance();
                let name = self.ident()?;
                let p = self.named_param(&name);
                Ok(Expr::Param(p))
            }
            TokenKind::Keyword(Keyword::CASE) => self.case_expr(),
            TokenKind::Keyword(Keyword::CAST) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect_kw(Keyword::AS)?;
                let ty = self.ident()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(e),
                    ty,
                })
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.advance();
                // Function call?
                if self.check(&TokenKind::LParen) {
                    self.advance();
                    if self.check(&TokenKind::Star) {
                        self.advance();
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Func {
                            name: name.to_ascii_uppercase(),
                            args: vec![],
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if !self.check(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Func {
                        name: name.to_ascii_uppercase(),
                        args,
                        star: false,
                    });
                }
                // Relative cell reference A[e][e]…?
                if self.check(&TokenKind::LBracket) {
                    let mut indices = Vec::new();
                    while self.check(&TokenKind::LBracket) {
                        self.advance();
                        indices.push(self.expr()?);
                        self.expect(&TokenKind::RBracket)?;
                    }
                    return Ok(Expr::Cell {
                        array: name,
                        indices,
                    });
                }
                // Qualified column m.v?
                if self.check(&TokenKind::Dot) {
                    self.advance();
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name,
                })
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn case_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw(Keyword::CASE)?;
        let operand = if self.check_kw(Keyword::WHEN) {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut whens = Vec::new();
        while self.eat_kw(Keyword::WHEN) {
            let w = self.expr()?;
            self.expect_kw(Keyword::THEN)?;
            let t = self.expr()?;
            whens.push((w, t));
        }
        if whens.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_ = if self.eat_kw(Keyword::ELSE) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw(Keyword::END)?;
        Ok(Expr::Case {
            operand,
            whens,
            else_,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_create_array() {
        // The exact statement from §2 of the paper.
        let s = parse_statement(
            "CREATE ARRAY matrix (\
             x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], \
             v INT DEFAULT 0);",
        )
        .unwrap();
        let Stmt::CreateArray { name, columns } = s else {
            panic!("expected CreateArray")
        };
        assert_eq!(name, "matrix");
        assert_eq!(columns.len(), 3);
        assert!(matches!(
            columns[0].kind,
            ColumnKind::Dimension { range: Some(_) }
        ));
        assert!(matches!(
            &columns[2].kind,
            ColumnKind::Attribute {
                default: Some(Expr::Literal(Literal::Int(0)))
            }
        ));
    }

    #[test]
    fn paper_guarded_update() {
        let s = parse_statement(
            "UPDATE matrix SET v = CASE \
             WHEN x > y THEN x + y WHEN x < y THEN x - y ELSE 0 END;",
        )
        .unwrap();
        let Stmt::Update { sets, .. } = s else {
            panic!("expected Update")
        };
        let Expr::Case { whens, else_, .. } = &sets[0].1 else {
            panic!("expected CASE")
        };
        assert_eq!(whens.len(), 2);
        assert!(else_.is_some());
    }

    #[test]
    fn paper_insert_select_with_dimension_qualifiers() {
        let s =
            parse_statement("INSERT INTO matrix SELECT [x], [y], x * y FROM matrix WHERE x = y;")
                .unwrap();
        let Stmt::Insert {
            source: InsertSource::Select(sel),
            ..
        } = s
        else {
            panic!("expected Insert..Select")
        };
        assert_eq!(sel.projections.len(), 3);
        assert!(matches!(
            sel.projections[0],
            Projection::Item {
                dimensional: true,
                ..
            }
        ));
        assert!(matches!(
            sel.projections[2],
            Projection::Item {
                dimensional: false,
                ..
            }
        ));
    }

    #[test]
    fn paper_structural_group_by() {
        let s = parse_statement(
            "SELECT [x], [y], AVG(v) FROM matrix \
             GROUP BY matrix[x:x+2][y:y+2] \
             HAVING x MOD 2 = 1 AND y MOD 2 = 1;",
        )
        .unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        let Some(GroupBy::Structural(tiles)) = &sel.group_by else {
            panic!("expected structural group by")
        };
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].array, "matrix");
        assert_eq!(tiles[0].indices.len(), 2);
        assert!(matches!(tiles[0].indices[0], TileIndex::Range(_, _)));
        assert!(sel.having.is_some());
    }

    #[test]
    fn tile_point_list_form() {
        let s = parse_statement(
            "SELECT [x], [y], SUM(v) FROM a GROUP BY a[x][y], a[x+1][y], a[x][y+1]",
        )
        .unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        let Some(GroupBy::Structural(tiles)) = &sel.group_by else {
            panic!()
        };
        assert_eq!(tiles.len(), 3);
        assert!(matches!(tiles[0].indices[0], TileIndex::Point(_)));
    }

    #[test]
    fn paper_alter_dimension() {
        let s =
            parse_statement("ALTER ARRAY matrix ALTER DIMENSION x SET RANGE [-1:1:5];").unwrap();
        let Stmt::AlterDimension {
            array,
            dimension,
            range,
        } = s
        else {
            panic!()
        };
        assert_eq!(array, "matrix");
        assert_eq!(dimension, "x");
        assert_eq!(range.start, Expr::Literal(Literal::Int(-1)));
        assert_eq!(range.stop, Expr::Literal(Literal::Int(5)));
    }

    #[test]
    fn cell_references() {
        let e = parse_expression("v - img[x-1][y]").unwrap();
        let Expr::Binary { rhs, .. } = e else {
            panic!()
        };
        let Expr::Cell { array, indices } = *rhs else {
            panic!("expected cell ref")
        };
        assert_eq!(array, "img");
        assert_eq!(indices.len(), 2);
    }

    #[test]
    fn precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Add,
                Expr::int(1),
                Expr::bin(BinOp::Mul, Expr::int(2), Expr::int(3))
            )
        );
        let e = parse_expression("a OR b AND c = 1").unwrap();
        let Expr::Binary { op: BinOp::Or, .. } = e else {
            panic!("OR should be outermost")
        };
        let e = parse_expression("(1 + 2) * 3").unwrap();
        let Expr::Binary { op: BinOp::Mul, .. } = e else {
            panic!("parens should override")
        };
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expression("-3").unwrap(), Expr::int(-3));
        assert_eq!(
            parse_expression("-2.5").unwrap(),
            Expr::Literal(Literal::Float(-2.5))
        );
    }

    #[test]
    fn is_null_between_in() {
        assert!(matches!(
            parse_expression("v IS NULL").unwrap(),
            Expr::IsNull { negated: false, .. }
        ));
        assert!(matches!(
            parse_expression("v IS NOT NULL").unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
        assert!(matches!(
            parse_expression("x BETWEEN 1 AND 3").unwrap(),
            Expr::Between { negated: false, .. }
        ));
        assert!(matches!(
            parse_expression("x NOT IN (1, 2)").unwrap(),
            Expr::InList { negated: true, .. }
        ));
    }

    #[test]
    fn joins_desugar_to_where() {
        let s =
            parse_statement("SELECT a.v FROM a INNER JOIN b ON a.x = b.x WHERE a.v > 0").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        let w = sel.where_clause.unwrap();
        let Expr::Binary { op: BinOp::And, .. } = w else {
            panic!("join condition must be ANDed into WHERE")
        };
    }

    #[test]
    fn from_slices() {
        let s = parse_statement("SELECT v FROM img[0:100][50:150]").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.from[0].slices.len(), 2);
        let s = parse_statement("SELECT v FROM img[:100][50:]").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert!(sel.from[0].slices[0].lo.is_none());
        assert!(sel.from[0].slices[1].hi.is_none());
    }

    #[test]
    fn order_limit_offset() {
        let s = parse_statement("SELECT v FROM t ORDER BY v DESC, x LIMIT 10 OFFSET 5").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].desc);
        assert!(!sel.order_by[1].desc);
        assert_eq!(sel.limit, Some(10));
        assert_eq!(sel.offset, Some(5));
    }

    #[test]
    fn insert_values_multi_row() {
        let s = parse_statement("INSERT INTO t (x, v) VALUES (1, 2), (3, 4)").unwrap();
        let Stmt::Insert {
            columns,
            source: InsertSource::Values(rows),
            ..
        } = s
        else {
            panic!()
        };
        assert_eq!(columns.unwrap(), vec!["x", "v"]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn multiple_statements() {
        let stmts =
            parse_statements("CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT x FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn errors_are_located() {
        let err = parse_statement("SELECT FROM t").unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");
        assert!(parse_statement("CREATE TABLE t (x INT DIMENSION[0:1:2])").is_err());
        assert!(
            parse_statement("CREATE ARRAY a (v INT)").is_err(),
            "array needs a dimension"
        );
        assert!(parse_statement("SELECT a FROM t LEFT JOIN u ON a = b").is_err());
    }

    #[test]
    fn count_star() {
        let e = parse_expression("COUNT(*)").unwrap();
        assert!(matches!(e, Expr::Func { star: true, .. }));
    }

    #[test]
    fn cast_expression() {
        let e = parse_expression("CAST(v AS DOUBLE)").unwrap();
        let Expr::Cast { ty, .. } = e else { panic!() };
        assert_eq!(ty, "DOUBLE");
    }

    #[test]
    fn positional_params_get_fresh_slots() {
        let s = parse_statement("SELECT v FROM t WHERE x > ? AND y < ?").unwrap();
        let ps = s.params();
        assert_eq!(ps.len(), 2);
        assert_eq!(
            ps[0],
            ParamRef {
                slot: 0,
                name: None
            }
        );
        assert_eq!(
            ps[1],
            ParamRef {
                slot: 1,
                name: None
            }
        );
    }

    #[test]
    fn named_params_share_slots() {
        let s = parse_statement("SELECT v FROM t WHERE x > :lo AND y < :hi AND v <> :lo").unwrap();
        let ps = s.params();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].name.as_deref(), Some("lo"));
        assert_eq!(ps[1].name.as_deref(), Some("hi"));
        // Named params are case-insensitive.
        let s2 = parse_statement("SELECT v FROM t WHERE x > :LO AND y < :lo").unwrap();
        assert_eq!(s2.params().len(), 1);
    }

    #[test]
    fn mixed_params_allocate_in_appearance_order() {
        let s = parse_statement("SELECT v FROM t WHERE a = ? AND b = :n AND c = ?").unwrap();
        let ps = s.params();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[1].name.as_deref(), Some("n"));
        assert!(ps[0].name.is_none() && ps[2].name.is_none());
    }

    #[test]
    fn param_slots_reset_per_statement() {
        let stmts = parse_statements("SELECT ? FROM t; SELECT ? FROM t").unwrap();
        assert_eq!(stmts[0].params().len(), 1);
        assert_eq!(stmts[1].params(), stmts[0].params());
    }

    #[test]
    fn params_in_dml_and_between() {
        let s = parse_statement("UPDATE t SET v = ? WHERE x BETWEEN :lo AND :hi").unwrap();
        assert_eq!(s.params().len(), 3);
        let s = parse_statement("INSERT INTO t VALUES (?, ?), (?, :x)").unwrap();
        assert_eq!(s.params().len(), 4);
        let s = parse_statement("DELETE FROM t WHERE v IN (?, ?, ?)").unwrap();
        assert_eq!(s.params().len(), 3);
    }

    #[test]
    fn slice_colons_are_not_named_params() {
        // `[x:x+2]` ranges and `[:100]` open slices keep their meaning.
        let s = parse_statement("SELECT v FROM img[:100][50:]").unwrap();
        assert!(s.params().is_empty());
        let s = parse_statement("SELECT [x], SUM(v) FROM a GROUP BY a[x:x+2][y]").unwrap();
        assert!(s.params().is_empty());
        // A parenthesised named param works inside a slice bound.
        let s = parse_statement("SELECT v FROM img[(:lo):(:hi)]").unwrap();
        assert_eq!(s.params().len(), 2);
    }

    #[test]
    fn simple_case_with_operand() {
        let e = parse_expression("CASE v WHEN 1 THEN 'a' ELSE 'b' END").unwrap();
        let Expr::Case { operand, .. } = e else {
            panic!()
        };
        assert!(operand.is_some());
    }
}
