//! Recursive-descent SQL parser.
//!
//! Text is read one `;`-terminated statement at a time: [`P`] pulls a
//! statement's tokens from the lexer into one reused buffer, parses them,
//! and moves on. Every entry point — [`parse_statement`], [`parse_script`],
//! [`split_script`] and the engine's streaming dump load — is a caller of
//! that one iterator, so there is one definition of where a statement ends.

use super::ast::*;
use super::lexer::{error_at, Lexer, Token};
use crate::error::DbError;
use crate::value::{DataType, Value};
use std::ops::Range;

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse_statement(src: &str) -> Result<Stmt, DbError> {
    let mut p = P::new(src);
    let stmt = p.next().unwrap_or_else(|| Err(p.err(EXPECTED_STATEMENT)))?;
    if p.next_span()?.is_some() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Parse one SQL expression — a condition handed over as text, to be used
/// as the filter of many selections ([`crate::Engine::scan`]).
pub fn parse_expr(src: &str) -> Result<SqlExpr, DbError> {
    let mut p = P::new(src);
    if p.next_span()?.is_none() {
        return Err(p.err("expected an expression"));
    }
    let expr = p.expr()?;
    if p.pos < p.toks.len() || p.next_span()?.is_some() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(expr)
}

/// Parse a `;`-separated script into statements. String literals may
/// contain semicolons — splitting happens at the token level.
pub fn parse_script(src: &str) -> Result<Vec<Stmt>, DbError> {
    P::new(src).collect()
}

/// The statements of a script, each parsed when the iterator reaches it,
/// beside its source text: from the previous statement's `;` to its own (or
/// to its last token), trimmed.
pub(crate) fn statements(src: &str) -> impl Iterator<Item = Result<(Stmt, &str), DbError>> + '_ {
    let mut p = P::new(src);
    std::iter::from_fn(move || {
        let stmt = p.next()?;
        Some(stmt.map(|stmt| (stmt, src[p.start..p.end].trim())))
    })
}

/// Split a `;`-separated script into the *source text* of each statement,
/// preserving spans verbatim (unlike [`parse_script`], which returns ASTs):
/// a span runs from the previous statement's `;` to its own, trimmed, so it
/// keeps the comments around its tokens. Statements without a token are
/// dropped. Text the lexer rejects is returned as the last span, for
/// [`parse_statement`] to report.
pub fn split_script(src: &str) -> Vec<String> {
    let mut p = P::new(src);
    let mut out = Vec::new();
    loop {
        let span = match p.next_span() {
            Ok(Some(span)) => span,
            Ok(None) => return out,
            Err(_) => p.start..src.len(),
        };
        out.push(src[span].trim().to_string());
    }
}

const EXPECTED_STATEMENT: &str = "expected CREATE, DROP, INSERT, SELECT, UPDATE, DELETE or EXPLAIN";

/// The parser: the statements of `src`, as an iterator.
struct P<'a> {
    src: &'a str,
    lexer: Lexer<'a>,
    /// Tokens of the current statement with their byte offsets.
    toks: Vec<(usize, Token<'a>)>,
    pos: usize,
    /// Where the current statement's span starts: after the previous `;`.
    start: usize,
    /// Where its tokens end: at its `;`, or after its last token.
    end: usize,
    /// The lexer rejected the text: there is no next statement.
    failed: bool,
}

impl Iterator for P<'_> {
    type Item = Result<Stmt, DbError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_span() {
            Ok(None) => None,
            Ok(Some(_)) => Some(self.statement().and_then(|stmt| {
                if self.pos < self.toks.len() {
                    return Err(self.err("trailing tokens after statement"));
                }
                Ok(stmt)
            })),
            Err(e) => Some(Err(e)),
        }
    }
}

impl<'a> P<'a> {
    fn new(src: &'a str) -> Self {
        P {
            src,
            lexer: Lexer::new(src),
            toks: Vec::new(),
            pos: 0,
            start: 0,
            end: 0,
            failed: false,
        }
    }

    /// Read the tokens of the next statement that has any into the buffer;
    /// returns its source span, or `None` at the end of the text.
    fn next_span(&mut self) -> Result<Option<Range<usize>>, DbError> {
        self.toks.clear();
        self.pos = 0;
        self.start = self.lexer.offset();
        while !self.failed {
            match self.lexer.next_token() {
                Ok(Some((at, Token::Sym(";")))) if self.toks.is_empty() => self.start = at + 1,
                Ok(Some((at, Token::Sym(";")))) => {
                    self.end = at;
                    return Ok(Some(self.start..at));
                }
                Ok(Some(tok)) => {
                    self.toks.push(tok);
                    self.end = self.lexer.offset();
                }
                Ok(None) if self.toks.is_empty() => break,
                Ok(None) => return Ok(Some(self.start..self.src.len())),
                Err(e) => {
                    self.failed = true;
                    return Err(e);
                }
            }
        }
        Ok(None)
    }

    /// `msg`, with the token the parser stopped at and where it is.
    fn err(&self, msg: &str) -> DbError {
        let at = self.toks.get(self.pos).map_or(self.end, |t| t.0);
        // Its text is what the lexer reads there again.
        let mut rest = Lexer::new(&self.src[at..]);
        match rest.next_token() {
            Ok(Some((skipped, _))) => {
                let token = &self.src[at + skipped..at + rest.offset()];
                error_at(self.src, at + skipped, &format!("{msg}, found '{token}'"))
            }
            _ => error_at(self.src, at, &format!("{msg}, found end of input")),
        }
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.toks.get(self.pos).map(|t| &t.1)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), DbError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    fn ident(&mut self) -> Result<String, DbError> {
        match self.peek() {
            Some(Token::Word(w)) if !is_reserved(w) => {
                let w = w.to_string();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.err("expected an identifier")),
        }
    }

    fn statement(&mut self) -> Result<Stmt, DbError> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("INDEX") {
                self.create_index(false)
            } else if self.eat_kw("ORDERED") {
                self.expect_kw("INDEX")?;
                self.create_index(true)
            } else {
                self.create_table()
            }
        } else if self.eat_kw("DROP") {
            self.drop_table()
        } else if self.eat_kw("INSERT") {
            self.insert()
        } else if self.peek_kw("SELECT") {
            Ok(Stmt::Select(self.select()?))
        } else if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            Ok(Stmt::Explain {
                analyze,
                select: self.select()?,
            })
        } else if self.eat_kw("UPDATE") {
            self.update()
        } else if self.eat_kw("DELETE") {
            self.delete()
        } else if self.eat_kw("BEGIN") {
            self.eat_kw("TRANSACTION");
            Ok(Stmt::Begin)
        } else if self.eat_kw("COMMIT") {
            self.eat_kw("TRANSACTION");
            Ok(Stmt::Commit)
        } else if self.eat_kw("ROLLBACK") {
            self.eat_kw("TRANSACTION");
            Ok(Stmt::Rollback)
        } else {
            Err(self.err(EXPECTED_STATEMENT))
        }
    }

    fn create_table(&mut self) -> Result<Stmt, DbError> {
        let temp = self.eat_kw("TEMP") || self.eat_kw("TEMPORARY");
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_word = match self.peek() {
                Some(&Token::Word(w)) => w,
                _ => return Err(self.err("expected a column type")),
            };
            let dtype = DataType::from_sql_name(ty_word)
                .ok_or_else(|| self.err(&format!("unknown type '{ty_word}'")))?;
            self.pos += 1;
            let mut nullable = true;
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                nullable = false;
            } else if self.eat_kw("NULL") {
                // explicit nullable
            }
            columns.push(ColumnDef {
                name: col,
                dtype,
                nullable,
            });
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        // Accepted and ignored: every table has the one (columnar) layout.
        if self.eat_kw("USING") {
            self.expect_kw("COLUMNAR")?;
        }
        Ok(Stmt::CreateTable {
            name,
            temp,
            if_not_exists,
            columns,
        })
    }

    fn create_index(&mut self, ordered: bool) -> Result<Stmt, DbError> {
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym("(")?;
        let column = self.ident()?;
        self.expect_sym(")")?;
        Ok(Stmt::CreateIndex {
            name,
            table,
            column,
            if_not_exists,
            ordered,
        })
    }

    fn drop_table(&mut self) -> Result<Stmt, DbError> {
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Stmt::DropTable { name, if_exists })
    }

    fn insert(&mut self) -> Result<Stmt, DbError> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_sym("(") {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        // Rows of one statement are equally long: size each like the last.
        let mut arity = 0;
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::with_capacity(arity);
            loop {
                row.push(match self.literal_cell() {
                    Some(lit) => lit,
                    None => self.expr()?,
                });
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            arity = row.len();
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Stmt::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Stmt, DbError> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Stmt, DbError> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete {
            table,
            where_clause,
        })
    }

    fn select(&mut self) -> Result<SelectStmt, DbError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            if self.eat_sym("*") {
                items.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else {
                    match self.peek() {
                        // Implicit alias: bare identifier directly after expr.
                        Some(Token::Word(w)) if !is_reserved(w) && !w.contains('.') => {
                            let w = w.to_string();
                            self.pos += 1;
                            Some(w)
                        }
                        _ => None,
                    }
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }

        let mut from = None;
        let mut joins = Vec::new();
        if self.eat_kw("FROM") {
            from = Some(self.ident()?);
            while self.eat_kw("JOIN") || (self.eat_kw("INNER") && self.eat_kw("JOIN")) {
                let table = self.ident()?;
                self.expect_kw("ON")?;
                let left_col = self.ident()?;
                self.expect_sym("=")?;
                let right_col = self.ident()?;
                joins.push(JoinClause {
                    table,
                    left_col,
                    right_col,
                });
            }
        }

        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let (column, position) = match self.peek() {
                    Some(&Token::Int(n)) => {
                        if n < 1 {
                            return Err(self.err("ORDER BY position must be >= 1"));
                        }
                        self.pos += 1;
                        (String::new(), Some(n as usize))
                    }
                    _ => {
                        // Accept function-call shaped keys like avg(bw):
                        // consume the textual form of a full expression.
                        let e = self.expr()?;
                        (e.to_string_for_order(), None)
                    }
                };
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey {
                    column,
                    position,
                    desc,
                });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }

        let limit = if self.eat_kw("LIMIT") {
            match self.peek() {
                Some(&Token::Int(n)) => {
                    self.pos += 1;
                    Some(n as usize)
                }
                _ => return Err(self.err("LIMIT expects a non-negative integer")),
            }
        } else {
            None
        };

        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    // Expression grammar: or > and > not > cmp > add > mul > unary > primary
    fn expr(&mut self) -> Result<SqlExpr, DbError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = SqlExpr::Binary("OR", Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = SqlExpr::Binary("AND", Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, DbError> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(SqlExpr::Unary(UnOp::Not, Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<SqlExpr, DbError> {
        let lhs = self.add_expr()?;

        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] IN / [NOT] LIKE
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(SqlExpr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.peek() {
                Some(Token::Str(s)) => s.to_string(),
                _ => return Err(self.err("LIKE expects a string literal")),
            };
            self.pos += 1;
            return Ok(SqlExpr::Like {
                expr: Box::new(lhs),
                pattern,
                negated,
            });
        }
        if negated {
            return Err(self.err("expected IN or LIKE after NOT"));
        }

        for (sym, op) in [
            ("=", "="),
            ("<>", "<>"),
            ("!=", "<>"),
            ("<=", "<="),
            (">=", ">="),
            ("<", "<"),
            (">", ">"),
        ] {
            if self.eat_sym(sym) {
                let rhs = self.add_expr()?;
                return Ok(SqlExpr::Binary(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut lhs = self.mul_expr()?;
        loop {
            if self.eat_sym("+") {
                let rhs = self.mul_expr()?;
                lhs = SqlExpr::Binary("+", Box::new(lhs), Box::new(rhs));
            } else if self.eat_sym("-") {
                let rhs = self.mul_expr()?;
                lhs = SqlExpr::Binary("-", Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut lhs = self.unary_expr()?;
        loop {
            if self.eat_sym("*") {
                let rhs = self.unary_expr()?;
                lhs = SqlExpr::Binary("*", Box::new(lhs), Box::new(rhs));
            } else if self.eat_sym("/") {
                let rhs = self.unary_expr()?;
                lhs = SqlExpr::Binary("/", Box::new(lhs), Box::new(rhs));
            } else if self.eat_sym("%") {
                let rhs = self.unary_expr()?;
                lhs = SqlExpr::Binary("%", Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary_expr(&mut self) -> Result<SqlExpr, DbError> {
        if self.eat_sym("-") {
            // A numeric literal takes its sign here: the lexer reads
            // magnitudes, and `i64::MIN` has no positive counterpart to
            // negate afterwards.
            if let Some(v) = self.peek().and_then(|t| literal(t, true)) {
                self.pos += 1;
                return Ok(SqlExpr::Lit(v));
            }
            let inner = self.unary_expr()?;
            return Ok(SqlExpr::Unary(UnOp::Neg, Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr, DbError> {
        if let Some(v) = self.peek().and_then(|t| literal(t, false)) {
            self.pos += 1;
            return Ok(SqlExpr::Lit(v));
        }
        match self.peek() {
            Some(Token::Int(m)) => Err(self.err(&format!("bad numeric literal '{m}'"))),
            Some(Token::Sym("(")) => {
                self.pos += 1;
                let inner = self.expr()?;
                self.expect_sym(")")?;
                Ok(inner)
            }
            Some(&Token::Word(w)) => {
                if is_reserved(w) {
                    return Err(self.err(&format!("unexpected keyword '{w}'")));
                }
                self.pos += 1;
                if self.eat_sym("(") {
                    // Function call.
                    let name = w.to_ascii_lowercase();
                    if self.eat_sym("*") {
                        self.expect_sym(")")?;
                        return Ok(SqlExpr::Func {
                            name,
                            args: vec![SqlExpr::Lit(Value::Int(1))],
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                        self.expect_sym(")")?;
                    }
                    Ok(SqlExpr::Func {
                        name,
                        args,
                        star: false,
                    })
                } else {
                    Ok(SqlExpr::Col(w.to_string()))
                }
            }
            _ => Err(self.err("expected an expression")),
        }
    }

    /// A cell that is one literal token, optionally signed, directly
    /// followed by `,` or `)` — every cell of a dumped or logged INSERT —
    /// read without the expression descent; [`P::expr`] builds the same
    /// `Lit`.
    fn literal_cell(&mut self) -> Option<SqlExpr> {
        let neg = matches!(self.peek(), Some(Token::Sym("-")));
        let at = self.pos + usize::from(neg);
        if !matches!(self.toks.get(at + 1)?.1, Token::Sym("," | ")")) {
            return None;
        }
        let v = literal(&self.toks[at].1, neg)?;
        self.pos = at + 1;
        Some(SqlExpr::Lit(v))
    }
}

/// The value of a literal token — negated if `neg`, which only a number can
/// be. `None` for any other token, and for an integer that does not fit.
fn literal(tok: &Token<'_>, neg: bool) -> Option<Value> {
    Some(match tok {
        Token::Int(m) if neg => Value::Int(0i64.checked_sub_unsigned(*m)?),
        Token::Int(m) => Value::Int(i64::try_from(*m).ok()?),
        Token::Float(v) => Value::Float(if neg { -v } else { *v }),
        _ if neg => return None,
        Token::Str(s) => Value::Text(s.to_string()),
        Token::Word(w) if w.eq_ignore_ascii_case("NULL") => Value::Null,
        Token::Word(w) if w.eq_ignore_ascii_case("TRUE") => Value::Bool(true),
        Token::Word(w) if w.eq_ignore_ascii_case("FALSE") => Value::Bool(false),
        _ => return None,
    })
}

impl SqlExpr {
    /// Textual form used to match ORDER BY keys against output column names:
    /// bare columns stay bare, everything else uses `Display`.
    pub(crate) fn to_string_for_order(&self) -> String {
        match self {
            SqlExpr::Col(c) => c.clone(),
            other => other.to_string(),
        }
    }
}

/// Is `w` an SQL keyword of this dialect? Exposed so that upper layers
/// (perfbase variable names become column names) can refuse collisions.
pub fn is_reserved(w: &str) -> bool {
    const KW: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "ORDER",
        "LIMIT",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "LIKE",
        "AS",
        "JOIN",
        "INNER",
        "ON",
        "CREATE",
        "DROP",
        "TABLE",
        "INSERT",
        "INTO",
        "VALUES",
        "UPDATE",
        "SET",
        "DELETE",
        "DISTINCT",
        "TEMP",
        "TEMPORARY",
        "IF",
        "EXISTS",
        "ASC",
        "DESC",
        "TRUE",
        "FALSE",
    ];
    KW.iter().any(|k| w.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::corpus;
    use crate::test_common::Rng;

    #[test]
    fn txn_control_statements() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Stmt::Begin);
        assert_eq!(parse_statement("begin transaction;").unwrap(), Stmt::Begin);
        assert_eq!(parse_statement("COMMIT").unwrap(), Stmt::Commit);
        assert_eq!(parse_statement("COMMIT TRANSACTION").unwrap(), Stmt::Commit);
        assert_eq!(parse_statement("rollback").unwrap(), Stmt::Rollback);
        // BEGIN/COMMIT/ROLLBACK stay unreserved: usable as identifiers.
        assert!(parse_statement("CREATE TABLE commit (x INTEGER)").is_ok());
        assert!(parse_statement("BEGIN COMMIT").is_err());
    }

    #[test]
    fn split_script_respects_literals_and_comments() {
        let parts = split_script(
            "INSERT INTO t VALUES ('a;b'); -- c; d\nSELECT 1;\n E'x\\n;y';; UPDATE t SET a = ''';'",
        );
        assert_eq!(
            parts,
            vec![
                "INSERT INTO t VALUES ('a;b')",
                "-- c; d\nSELECT 1",
                "E'x\\n;y'",
                "UPDATE t SET a = ''';'",
            ]
        );
        assert!(split_script("  ;; \n").is_empty());
    }

    #[test]
    fn one_scanner_defines_statement_boundaries() {
        // `split_script` used to scan quotes itself, took any quote after an
        // `e` for the start of an `E'…'` literal, and found one statement.
        let src = "SELECT a FROM t WHERE s LIKE'x\\';SELECT 2";
        assert_eq!(parse_script(src).unwrap().len(), 2);
        assert_eq!(
            split_script(src),
            ["SELECT a FROM t WHERE s LIKE'x\\'", "SELECT 2"]
        );
        // A statement is tokens: a comment alone is none, and text the lexer
        // rejects stays one last span for `parse_statement` to report.
        assert_eq!(split_script("SELECT 1; -- done\n"), ["SELECT 1"]);
        assert_eq!(
            split_script("SELECT 1;\nSELECT ?; x"),
            ["SELECT 1", "SELECT ?; x"]
        );
        // Over the whole corpus and random text, both count the same.
        let mut texts = corpus::scripts();
        let mut rng = Rng::new(2);
        for _ in 0..500 {
            let parts = (0..rng.below(6)).map(|_| {
                let i = rng.below(corpus::STATEMENTS.len() as u64) as usize;
                [
                    corpus::STATEMENTS[i],
                    [";", " ; ", "\n", "'"][rng.below(4) as usize],
                ]
            });
            texts.push(parts.flatten().collect());
        }
        let mut parsed = 0;
        for src in &texts {
            let spans = split_script(src);
            assert_eq!(statements(src).count(), spans.len(), "{src:?}");
            if let Ok(stmts) = parse_script(src) {
                assert_eq!(stmts.len(), spans.len(), "{src:?}");
                // And each span is that statement.
                for (span, stmt) in spans.iter().zip(&stmts) {
                    assert_eq!(&parse_statement(span).unwrap(), stmt, "{span:?}");
                }
                parsed += stmts.len();
            }
        }
        assert!(parsed > 200, "{parsed}");
    }

    #[test]
    fn statements_end_at_a_semicolon_only() {
        // Two statements need a `;` between them, in every entry point.
        assert!(parse_script("BEGIN COMMIT").is_err());
        assert!(parse_script("SELECT 1 SELECT 2").is_err());
        assert_eq!(
            parse_script("BEGIN; COMMIT").unwrap(),
            [Stmt::Begin, Stmt::Commit]
        );
        assert!(parse_statement("BEGIN; COMMIT").is_err());
        assert!(parse_statement("").is_err());
        assert_eq!(
            parse_statement(" ; ").unwrap_err().to_string(),
            format!("SQL parse error: {EXPECTED_STATEMENT}, found ';' (line 1, column 2)")
        );
        assert_eq!(parse_statement(";BEGIN;;").unwrap(), Stmt::Begin);
    }

    #[test]
    fn errors_say_where() {
        let msg = |src: &str| match parse_statement(src) {
            Err(DbError::Parse(m)) => m,
            other => panic!("{src:?}: {other:?}"),
        };
        let three_lines = "SELECT fs, avg(bw)\n  FROM runs\n  WHERE (größe > 1 ORDER BY fs";
        assert_eq!(
            msg(three_lines),
            "expected ')', found 'ORDER' (line 3, column 20)"
        );
        assert_eq!(
            msg("SELECT a FROM t WHERE"),
            "expected an expression, found end of input (line 1, column 22)"
        );
        assert_eq!(
            msg("INSERT INTO t VALUES (1;"),
            "expected ')', found ';' (line 1, column 24)"
        );
        assert_eq!(
            msg("SELECT 1;\nSELECT 'open"),
            "unterminated string literal (line 2, column 8)"
        );
        assert_eq!(
            msg("SELEKT 1"),
            format!("{EXPECTED_STATEMENT}, found 'SELEKT' (line 1, column 1)")
        );
        assert_eq!(
            msg("SELECT 1; DROP TABLE t"),
            "trailing tokens after statement, found 'DROP' (line 1, column 11)"
        );
        assert!(msg("SELECT 'it''s' 'x'").contains("found ''x'' (line 1, column 16)"));
    }

    #[test]
    fn integer_literals_span_the_whole_i64_range() {
        let lits = |src: &str| match parse_statement(src).unwrap() {
            Stmt::Insert { mut rows, .. } => rows.remove(0),
            other => panic!("{other:?}"),
        };
        let int = |v| SqlExpr::Lit(Value::Int(v));
        assert_eq!(
            lits("INSERT INTO t VALUES (-9223372036854775808, 9223372036854775807, -5, - 0)"),
            [int(i64::MIN), int(i64::MAX), int(-5), int(0)]
        );
        // The literal cells of an INSERT and the expression grammar build
        // the same tree.
        assert_eq!(
            lits("INSERT INTO t VALUES ((-9223372036854775808), -1.5 + 0, (-2))"),
            [
                int(i64::MIN),
                SqlExpr::Binary(
                    "+",
                    Box::new(SqlExpr::Lit(Value::Float(-1.5))),
                    Box::new(int(0))
                ),
                int(-2)
            ]
        );
        assert_eq!(
            lits("INSERT INTO t VALUES (- -3, -x)"),
            [
                SqlExpr::Unary(UnOp::Neg, Box::new(int(-3))),
                SqlExpr::Unary(UnOp::Neg, Box::new(SqlExpr::Col("x".into())))
            ]
        );
        // A second minus is an operator on the folded literal — evaluating
        // it is an overflow error, see `expr::negate`.
        assert_eq!(
            lits("INSERT INTO t VALUES (- -9223372036854775808, -(-9223372036854775808))"),
            [
                SqlExpr::Unary(UnOp::Neg, Box::new(int(i64::MIN))),
                SqlExpr::Unary(UnOp::Neg, Box::new(int(i64::MIN)))
            ]
        );
        // One past either end is no literal, bare or signed.
        for src in [
            "INSERT INTO t VALUES (9223372036854775808)",
            "INSERT INTO t VALUES (-9223372036854775809)",
            "SELECT 9223372036854775808",
            "SELECT 1 - -9223372036854775809",
        ] {
            let err = parse_statement(src).unwrap_err().to_string();
            assert!(
                err.contains("bad numeric literal '92233720368547758"),
                "{err}"
            );
        }
    }

    #[test]
    fn every_prefix_of_a_statement_parses_or_errs() {
        for stmt in corpus::statements_to_truncate() {
            parse_statement(&stmt).unwrap();
            for (cut, _) in stmt.char_indices() {
                let prefix = &stmt[..cut];
                let _ = parse_statement(prefix);
                assert_eq!(statements(prefix).count(), split_script(prefix).len());
            }
        }
    }

    #[test]
    fn create_table_forms() {
        let s = parse_statement(
            "CREATE TEMP TABLE IF NOT EXISTS t (a INTEGER NOT NULL, b FLOAT, c TEXT NULL)",
        )
        .unwrap();
        match s {
            Stmt::CreateTable {
                name,
                temp,
                if_not_exists,
                columns,
            } => {
                assert_eq!(name, "t");
                assert!(temp);
                assert!(if_not_exists);
                assert_eq!(columns.len(), 3);
                assert!(!columns[0].nullable);
                assert!(columns[1].nullable);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_using_columnar() {
        // The clause of older dumps and logs parses to the plain statement.
        assert_eq!(
            parse_statement("CREATE TABLE t (a INTEGER, fs TEXT) USING COLUMNAR").unwrap(),
            parse_statement("CREATE TABLE t (a INTEGER, fs TEXT)").unwrap()
        );
        // Case-insensitive, and an incomplete USING clause is an error.
        assert!(matches!(
            parse_statement("create table t (a integer) using columnar"),
            Ok(Stmt::CreateTable { .. })
        ));
        assert!(parse_statement("CREATE TABLE t (a INTEGER) USING").is_err());
        assert!(parse_statement("CREATE TABLE t (a INTEGER) USING ROWSTORE").is_err());
    }

    #[test]
    fn create_index_forms() {
        let s = parse_statement("CREATE INDEX IF NOT EXISTS ix_run ON pb_runs (run_id)").unwrap();
        match s {
            Stmt::CreateIndex {
                name,
                table,
                column,
                if_not_exists,
                ordered,
            } => {
                assert_eq!(name, "ix_run");
                assert_eq!(table, "pb_runs");
                assert_eq!(column, "run_id");
                assert!(if_not_exists);
                assert!(!ordered);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("CREATE INDEX ON t (a)").is_err());
        assert!(parse_statement("CREATE INDEX i ON t ()").is_err());
    }

    #[test]
    fn create_ordered_index_forms() {
        let s = parse_statement("CREATE ORDERED INDEX IF NOT EXISTS ix_bw ON runs (bw)").unwrap();
        match s {
            Stmt::CreateIndex {
                name,
                table,
                column,
                if_not_exists,
                ordered,
            } => {
                assert_eq!(name, "ix_bw");
                assert_eq!(table, "runs");
                assert_eq!(column, "bw");
                assert!(if_not_exists);
                assert!(ordered);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("CREATE ORDERED TABLE t (a INTEGER)").is_err());
        // ORDERED is not reserved: it stays usable as an identifier.
        parse_statement("SELECT ordered FROM t WHERE ordered = 1").unwrap();
        parse_statement("CREATE TABLE ordered (a INTEGER)").unwrap();
    }

    #[test]
    fn explain_forms() {
        let s = parse_statement("EXPLAIN SELECT * FROM runs WHERE run_id = 3").unwrap();
        match s {
            Stmt::Explain { analyze, select } => {
                assert!(!analyze);
                assert_eq!(select.from.as_deref(), Some("runs"));
            }
            other => panic!("{other:?}"),
        }
        let s = parse_statement("EXPLAIN ANALYZE SELECT count(*) FROM runs").unwrap();
        assert!(matches!(s, Stmt::Explain { analyze: true, .. }));
        // Only SELECTs can be explained.
        assert!(parse_statement("EXPLAIN INSERT INTO t VALUES (1)").is_err());
        // EXPLAIN/ANALYZE are not reserved: both stay usable as identifiers.
        parse_statement("SELECT explain, analyze FROM t WHERE explain = 1").unwrap();
        parse_statement("CREATE TABLE explain (analyze INTEGER)").unwrap();
    }

    #[test]
    fn insert_multi_row() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Stmt::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_full_clause_set() {
        let s = parse_statement(
            "SELECT DISTINCT fs, avg(bw) AS abw FROM runs JOIN meta ON runs.id = meta.id \
             WHERE n >= 4 AND fs IN ('ufs','nfs') GROUP BY fs ORDER BY abw DESC, 1 LIMIT 10",
        )
        .unwrap();
        match s {
            Stmt::Select(sel) => {
                assert!(sel.distinct);
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.from.as_deref(), Some("runs"));
                assert_eq!(sel.joins.len(), 1);
                assert_eq!(sel.joins[0].left_col, "runs.id");
                assert!(sel.where_clause.is_some());
                assert_eq!(sel.group_by, vec!["fs"]);
                assert_eq!(sel.order_by.len(), 2);
                assert!(sel.order_by[0].desc);
                assert_eq!(sel.order_by[1].position, Some(1));
                assert_eq!(sel.limit, Some(10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_star() {
        let s = parse_statement("SELECT count(*) FROM t").unwrap();
        match s {
            Stmt::Select(sel) => match &sel.items[0] {
                SelectItem::Expr {
                    expr: SqlExpr::Func { name, star, .. },
                    ..
                } => {
                    assert_eq!(name, "count");
                    assert!(*star);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_alone() {
        let e = parse_expr("mode IN ('write', 'it''s') AND s_chunk >= -5").unwrap();
        let Stmt::Select(sel) =
            parse_statement("SELECT 1 FROM t WHERE mode IN ('write', 'it''s') AND s_chunk >= -5")
                .unwrap()
        else {
            panic!("not a select");
        };
        assert_eq!(Some(e), sel.where_clause);
        for bad in ["", "a = 1 b", "a = 1; b = 2", "a =", "SELECT 1", "'open"] {
            assert!(parse_expr(bad).is_err(), "{bad}");
        }
        assert_eq!(parse_expr(" a ; ").unwrap(), SqlExpr::Col("a".into()));
    }

    #[test]
    fn where_operators() {
        for src in [
            "SELECT a FROM t WHERE a IS NULL",
            "SELECT a FROM t WHERE a IS NOT NULL",
            "SELECT a FROM t WHERE a NOT IN (1,2)",
            "SELECT a FROM t WHERE name LIKE 'bio_%'",
            "SELECT a FROM t WHERE name NOT LIKE '%run1'",
            "SELECT a FROM t WHERE NOT (a = 1 OR b <> 2)",
            "SELECT a FROM t WHERE a % 2 = 0",
        ] {
            parse_statement(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn update_delete() {
        parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").unwrap();
        parse_statement("DELETE FROM t WHERE id IN (1, 2, 3)").unwrap();
        parse_statement("DELETE FROM t").unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELEKT 1").is_err());
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("INSERT INTO t").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_statement("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse_statement("SELECT 1 extra junk everywhere (").is_err());
    }

    #[test]
    fn select_without_from() {
        let s = parse_statement("SELECT 1 + 2 AS three").unwrap();
        match s {
            Stmt::Select(sel) => {
                assert!(sel.from.is_none());
                match &sel.items[0] {
                    SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("three")),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }
}
