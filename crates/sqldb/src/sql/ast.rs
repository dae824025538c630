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
        /// Row value expressions (must be constant).
        rows: Vec<Vec<SqlExpr>>,
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
