//! SQL abstract syntax tree.

use crate::value::{DataType, Value};
use std::fmt;

/// A complete statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `CREATE TABLE [IF NOT EXISTS] name (cols)` — a trailing
    /// `USING COLUMNAR` (written by older dumps and logs, when the layout
    /// was a per-table choice) parses and means nothing.
    CreateTable {
        /// Table name.
        name: String,
        /// Swallow the "already exists" error.
        if_not_exists: bool,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `DROP TABLE [IF EXISTS] name`
    DropTable {
        /// Table name.
        name: String,
        /// Swallow the "no such table" error.
        if_exists: bool,
    },
    /// `INSERT INTO name [(cols)] VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// The rows, flat.
        values: Values,
    },
    /// A SELECT query.
    Select(SelectStmt),
    /// `EXPLAIN [ANALYZE] <select>` — render the access plan the
    /// optimizer would choose (and, with ANALYZE, execute the query and
    /// report actual row counts).
    Explain {
        /// Execute the query and report actuals.
        analyze: bool,
        /// The explained SELECT.
        select: SelectStmt,
    },
    /// `UPDATE name SET col = expr, ... [WHERE ...]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, SqlExpr)>,
        /// Row filter.
        where_clause: Option<SqlExpr>,
    },
    /// `DELETE FROM name [WHERE ...]`
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        where_clause: Option<SqlExpr>,
    },
    /// `BEGIN [TRANSACTION]` — open an explicit multi-statement write
    /// transaction (handled by the engine's transaction API, not by
    /// single-statement execution).
    Begin,
    /// `COMMIT [TRANSACTION]` — commit the open transaction.
    Commit,
    /// `ROLLBACK [TRANSACTION]` — discard the open transaction.
    Rollback,
    /// `CREATE [ORDERED] INDEX [IF NOT EXISTS] name ON table (column)` — a
    /// secondary index for `WHERE column = <const>` point lookups; the
    /// ORDERED variant additionally serves `IN (...)` probes cheaply and
    /// range conjuncts (`<`, `<=`, `>`, `>=`, BETWEEN-shaped pairs).
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
        /// Swallow the "already exists" error.
        if_not_exists: bool,
        /// Sorted (range-capable) index variant.
        ordered: bool,
    },
}

/// The rows of an `INSERT … VALUES`, flat: one compact `ValueCell` per
/// value in row-major order, the text of every string literal in one buffer,
/// and the constant expressions that are not one literal in a side list. Rows
/// are `arity` cells long; where each row ends is kept only once a row of
/// another length (a ragged row, which the INSERT reports) has been read.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Values {
    cells: Vec<ValueCell>,
    /// Cells of the first row.
    arity: usize,
    rows: usize,
    /// Where each row ends in `cells`; empty while every row is `arity` long.
    ends: Vec<usize>,
    text: String,
    exprs: Vec<SqlExpr>,
}

/// One value of an INSERT: a literal, or a constant expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ValueCell {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// A string literal: bytes `start..end` of [`Values`]'s text.
    Text {
        start: usize,
        end: usize,
    },
    /// The constant expression at this index of [`Values`]'s side list.
    Expr(usize),
}

impl Values {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when there is no row.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The cells of row `r`.
    pub(crate) fn row(&self, r: usize) -> &[ValueCell] {
        if self.ends.is_empty() {
            &self.cells[r * self.arity..(r + 1) * self.arity]
        } else {
            let start = if r == 0 { 0 } else { self.ends[r - 1] };
            &self.cells[start..self.ends[r]]
        }
    }

    /// Every row, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[ValueCell]> {
        (0..self.rows).map(|r| self.row(r))
    }

    /// The text of a [`ValueCell::Text`] cell.
    pub(crate) fn text(&self, start: usize, end: usize) -> &str {
        &self.text[start..end]
    }

    /// The constant expressions, in the order their cells appear.
    pub(crate) fn exprs(&self) -> &[SqlExpr] {
        &self.exprs
    }

    /// Append a cell to the row being read.
    pub(crate) fn push(&mut self, cell: ValueCell) {
        self.cells.push(cell);
    }

    /// The cell of string literal `s`, its text copied to the buffer.
    pub(crate) fn text_cell(&mut self, s: &str) -> ValueCell {
        let start = self.text.len();
        self.text.push_str(s);
        ValueCell::Text {
            start,
            end: self.text.len(),
        }
    }

    /// Append a constant expression's cell to the row being read.
    pub(crate) fn push_expr(&mut self, e: SqlExpr) {
        self.cells.push(ValueCell::Expr(self.exprs.len()));
        self.exprs.push(e);
    }

    /// End the row being read. After the first row, room is made for the
    /// cells of `rows_to_come` more rows like it.
    pub(crate) fn end_row(&mut self, rows_to_come: usize) {
        let start = match self.ends.last() {
            Some(&end) => end,
            None => self.rows * self.arity,
        };
        let len = self.cells.len() - start;
        if self.rows == 0 {
            self.arity = len;
            self.cells.reserve(len * rows_to_come);
        } else if len != self.arity || !self.ends.is_empty() {
            if self.ends.is_empty() {
                self.ends = (1..=self.rows).map(|r| r * self.arity).collect();
            }
            self.ends.push(self.cells.len());
        }
        self.rows += 1;
    }
}

/// Column definition inside CREATE TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// NULL allowed?
    pub nullable: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// DISTINCT flag.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Base table (None for table-less `SELECT 1+1`).
    pub from: Option<String>,
    /// INNER JOINs applied left-to-right.
    pub joins: Vec<JoinClause>,
    /// Row filter.
    pub where_clause: Option<SqlExpr>,
    /// Grouping column names.
    pub group_by: Vec<String>,
    /// Sort keys, applied to the projected output.
    pub order_by: Vec<OrderKey>,
    /// Row limit.
    pub limit: Option<usize>,
}

/// One item in the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// `JOIN table ON left = right` (equality joins only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinClause {
    /// Joined table name.
    pub table: String,
    /// Column from either side.
    pub left_col: String,
    /// Column from the other side.
    pub right_col: String,
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// Output column name, or 1-based position when `position` is set.
    pub column: String,
    /// 1-based positional reference (`ORDER BY 2`).
    pub position: Option<usize>,
    /// Descending?
    pub desc: bool,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// SQL expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Literal value.
    Lit(Value),
    /// Column reference (possibly `table.column`).
    Col(String),
    /// Unary operation.
    Unary(UnOp, Box<SqlExpr>),
    /// Binary operation; the operator is its SQL spelling
    /// (`=, <>, <, <=, >, >=, +, -, *, /, %, AND, OR`).
    Binary(&'static str, Box<SqlExpr>, Box<SqlExpr>),
    /// Function call — scalar or aggregate, decided by the executor.
    /// `count(*)` is represented as `Func("count", [Lit(Int(1))], star=true)`.
    Func {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<SqlExpr>,
        /// Was written as `f(*)`.
        star: bool,
    },
    /// `x IN (a, b, c)` / `x NOT IN (...)`.
    InList {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// Candidate list.
        list: Vec<SqlExpr>,
        /// NOT IN.
        negated: bool,
    },
    /// `x IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// IS NOT NULL.
        negated: bool,
    },
    /// `x [NOT] LIKE 'pat%'` with `%` and `_` wildcards.
    Like {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// Pattern literal.
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
}

impl SqlExpr {
    /// Does this expression (transitively) contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            SqlExpr::Func { name, args, .. } => {
                crate::aggregate::AggKind::from_name(name).is_some()
                    || args.iter().any(SqlExpr::contains_aggregate)
            }
            SqlExpr::Unary(_, x) => x.contains_aggregate(),
            SqlExpr::Binary(_, l, r) => l.contains_aggregate() || r.contains_aggregate(),
            SqlExpr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(SqlExpr::contains_aggregate)
            }
            SqlExpr::IsNull { expr, .. } | SqlExpr::Like { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }
}

impl fmt::Display for SqlExpr {
    /// Canonical textual form — used to derive output column names, e.g.
    /// `avg(bw)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Lit(Value::Text(s)) => write!(f, "'{s}'"),
            SqlExpr::Lit(v) => write!(f, "{v}"),
            SqlExpr::Col(c) => f.write_str(c),
            SqlExpr::Unary(UnOp::Neg, x) => write!(f, "-{x}"),
            SqlExpr::Unary(UnOp::Not, x) => write!(f, "NOT {x}"),
            SqlExpr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            SqlExpr::Func { name, args, star } => {
                if *star {
                    write!(f, "{name}(*)")
                } else {
                    let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                    write!(f, "{name}({})", parts.join(", "))
                }
            }
            SqlExpr::InList {
                expr,
                list,
                negated,
            } => {
                let parts: Vec<String> = list.iter().map(|a| a.to_string()).collect();
                write!(
                    f,
                    "{expr} {}IN ({})",
                    if *negated { "NOT " } else { "" },
                    parts.join(", ")
                )
            }
            SqlExpr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            SqlExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(
                    f,
                    "{expr} {}LIKE '{pattern}'",
                    if *negated { "NOT " } else { "" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = SqlExpr::Func {
            name: "avg".into(),
            args: vec![SqlExpr::Col("bw".into())],
            star: false,
        };
        assert_eq!(e.to_string(), "avg(bw)");
        let b = SqlExpr::Binary("*", Box::new(e), Box::new(SqlExpr::Lit(Value::Int(2))));
        assert_eq!(b.to_string(), "(avg(bw) * 2)");
    }

    fn values(src: &str) -> Values {
        match crate::sql::parse_statement(src).unwrap() {
            Stmt::Insert { values, .. } => values,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn values_are_flat_and_keep_row_ends_only_when_ragged() {
        let v = values("INSERT INTO t VALUES (1, 'it''s'), (-2, E'a\\nb'), (NULL, '')");
        assert_eq!((v.len(), v.arity, v.ends.len()), (3, 2, 0));
        assert_eq!(v.text, "it'sa\nb");
        assert_eq!(
            v.rows().map(<[ValueCell]>::to_vec).collect::<Vec<_>>(),
            [
                vec![ValueCell::Int(1), ValueCell::Text { start: 0, end: 4 }],
                vec![ValueCell::Int(-2), ValueCell::Text { start: 4, end: 7 }],
                vec![ValueCell::Null, ValueCell::Text { start: 7, end: 7 }],
            ]
        );
        // A ragged row keeps every row's end, the ones before it included.
        let v = values("INSERT INTO t VALUES (1, 2), (3, 4), (5), (6, 7, 8), (9, 10)");
        let lengths: Vec<usize> = v.rows().map(<[ValueCell]>::len).collect();
        assert_eq!(lengths, [2, 2, 1, 3, 2]);
        assert_eq!(v.ends, [2, 4, 5, 8, 10]);
        // A cell that is not one literal is a constant expression.
        let v = values("INSERT INTO t VALUES (1 + 2, -(3), TRUE, 2.5)");
        assert_eq!(v.exprs().len(), 2);
        assert_eq!(
            v.row(0),
            [
                ValueCell::Expr(0),
                ValueCell::Expr(1),
                ValueCell::Bool(true),
                ValueCell::Float(2.5)
            ]
        );
    }

    #[test]
    fn aggregate_detection() {
        let agg = SqlExpr::Func {
            name: "max".into(),
            args: vec![SqlExpr::Col("x".into())],
            star: false,
        };
        assert!(agg.contains_aggregate());
        let scalar = SqlExpr::Func {
            name: "abs".into(),
            args: vec![SqlExpr::Col("x".into())],
            star: false,
        };
        assert!(!scalar.contains_aggregate());
        let nested = SqlExpr::Binary("+", Box::new(agg), Box::new(scalar));
        assert!(nested.contains_aggregate());
    }
}
