//! The oracle: an executor of SELECT written to be plainly right rather
//! than fast — every table turned into rows, every expression interpreted
//! row by row and name by name, joins as nested loops, groups as lists of
//! rows. The equivalence suites hold `Engine::query` to it, results and
//! errors alike, and `microbench` times the engine against it.
//!
//! It shares with `sqldb` the SQL parser, values and value keys, the scalar
//! primitives of `sqldb::expr` and the names of the aggregates
//! (`sqldb::aggregate::AggKind`) — and none of the engine's executor, its
//! aggregate kernels included: every aggregate is folded here row by row
//! ([`fold`]), so a bug there has no second copy here to hide behind.

// Included by several test binaries and by `microbench`; not every one uses
// every function.
#![allow(dead_code)]

use sqldb::aggregate::AggKind;
use sqldb::expr::{binary_values, like_match, negate, scalar_fn, truthy};
use sqldb::sql::{self, SelectItem, SelectStmt, SqlExpr, Stmt, UnOp};
use sqldb::{DbError, Engine, ResultSet, Snapshot, Table, Value, ValueKey};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

type Row = Vec<Value>;

/// Where the oracle finds the tables a statement names.
pub trait Catalog {
    /// The version of `name` the statement reads.
    fn pin(&self, name: &str) -> Result<Arc<Table>, DbError>;
}

/// The live engine: each table at its current version.
impl Catalog for Engine {
    fn pin(&self, name: &str) -> Result<Arc<Table>, DbError> {
        self.pin_table(name)
    }
}

/// A snapshot: each table at the version it pinned.
impl Catalog for Snapshot {
    fn pin(&self, name: &str) -> Result<Arc<Table>, DbError> {
        self.table(name)
    }
}

/// Run the SELECT `text` over `catalog`.
pub fn query(catalog: &impl Catalog, text: &str) -> Result<ResultSet, DbError> {
    match sql::parse_statement(text)? {
        Stmt::Select(sel) => select(catalog, &sel),
        _ => Err(DbError::Execution(
            "query() only accepts SELECT statements".into(),
        )),
    }
}

/// FROM/JOIN → WHERE → GROUP BY and aggregates, or projection → DISTINCT →
/// ORDER BY → LIMIT, each step over all the rows the last one left.
pub fn select(catalog: &impl Catalog, sel: &SelectStmt) -> Result<ResultSet, DbError> {
    let (names, mut rows) = relation(catalog, sel)?;
    if let Some(filter) = &sel.where_clause {
        let mut kept = Vec::new();
        for row in rows {
            if truthy(&eval(filter, &names, &row)?) {
                kept.push(row);
            }
        }
        rows = kept;
    }
    let aggregating = !sel.group_by.is_empty()
        || sel.items.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        });
    let out = if aggregating {
        aggregate(sel, &names, &rows)?
    } else {
        let project = |row: &Row| items(sel, &names, row, |expr| eval(expr, &names, row));
        rows.iter().map(project).collect::<Result<_, _>>()?
    };
    finish(sel, output_names(sel, &names), out)
}

/// The column names and rows a statement reads: none and one empty row
/// without FROM, the table's own, or — with joins — `table.column` names
/// and, per join left to right, every pair of rows whose keys are equal
/// and not NULL. Every table is pinned before any join runs.
fn relation(catalog: &impl Catalog, sel: &SelectStmt) -> Result<(Vec<String>, Vec<Row>), DbError> {
    let Some(from) = &sel.from else {
        return Ok((Vec::new(), vec![Vec::new()]));
    };
    let base = catalog.pin(from)?;
    let joined = sel
        .joins
        .iter()
        .map(|j| Ok((j, catalog.pin(&j.table)?)))
        .collect::<Result<Vec<_>, DbError>>()?;
    if joined.is_empty() {
        return Ok((base.schema.names(), base.to_rows()));
    }
    let qualified = |table: &Table, name: &str| -> Vec<String> {
        let columns = table.schema.names().into_iter();
        columns.map(|c| format!("{name}.{c}")).collect()
    };
    let (mut names, mut rows) = (qualified(&base, from), base.to_rows());
    for (j, table) in joined {
        let more = qualified(&table, &j.table);
        let found =
            |left: &str, right: &str| Some((position(&names, left)?, position(&more, right)?));
        let (l, r) = found(&j.left_col, &j.right_col)
            .or_else(|| found(&j.right_col, &j.left_col))
            .ok_or_else(|| {
                DbError::NoSuchColumn(format!(
                    "join keys {} / {} not found",
                    j.left_col, j.right_col
                ))
            })?;
        let right = table.to_rows();
        let mut out = Vec::new();
        for row in &rows {
            for other in &right {
                if !row[l].is_null() && !other[r].is_null() && row[l].sql_eq(&other[r]) {
                    out.push(row.iter().chain(other).cloned().collect());
                }
            }
        }
        names.extend(more);
        if let Some(i) = (0..names.len()).find(|&i| names[..i].contains(&names[i])) {
            let name = &names[i];
            return Err(DbError::Type(format!("duplicate column name '{name}'")));
        }
        rows = out;
    }
    Ok((names, rows))
}

/// The column `name` refers to: an exact match, else the first column
/// named its unqualified part, else the first whose unqualified part it is.
fn position(names: &[String], name: &str) -> Option<usize> {
    fn bare(n: &str) -> &str {
        n.rsplit('.').next().unwrap_or(n)
    }
    names
        .iter()
        .position(|n| n == name)
        .or_else(|| names.iter().position(|n| n == bare(name)))
        .or_else(|| names.iter().position(|n| bare(n) == bare(name)))
}

/// Evaluate `expr` over `row`, whose columns are `names`, resolving every
/// name as it is met.
pub fn eval(expr: &SqlExpr, names: &[String], row: &[Value]) -> Result<Value, DbError> {
    let value = |e: &SqlExpr| eval(e, names, row);
    match expr {
        SqlExpr::Lit(v) => Ok(v.clone()),
        SqlExpr::Col(name) => position(names, name)
            .map(|i| row[i].clone())
            .ok_or_else(|| DbError::NoSuchColumn(name.clone())),
        SqlExpr::Unary(UnOp::Neg, x) => negate(value(x)?),
        SqlExpr::Unary(UnOp::Not, x) => Ok(Value::Bool(!truthy(&value(x)?))),
        SqlExpr::Binary("AND", l, r) => Ok(Value::Bool(truthy(&value(l)?) && truthy(&value(r)?))),
        SqlExpr::Binary("OR", l, r) => Ok(Value::Bool(truthy(&value(l)?) || truthy(&value(r)?))),
        SqlExpr::Binary(op, l, r) => binary_values(op, value(l)?, value(r)?),
        SqlExpr::Func { name, args, .. } => {
            if AggKind::from_name(name).is_some() {
                return Err(DbError::Execution(format!(
                    "aggregate function {name}() is not allowed in this context"
                )));
            }
            let args = args.iter().map(value).collect::<Result<Vec<_>, _>>()?;
            scalar_fn(name, &args)
        }
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = value(expr)?;
            if v.is_null() {
                return Ok(Value::Bool(false));
            }
            for item in list {
                if v.sql_eq(&value(item)?) {
                    return Ok(Value::Bool(!negated));
                }
            }
            Ok(Value::Bool(*negated))
        }
        SqlExpr::IsNull { expr, negated } => Ok(Value::Bool(value(expr)?.is_null() != *negated)),
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let matched = match value(expr)? {
                Value::Null => false,
                Value::Text(s) => like_match(&s, pattern),
                other => like_match(&other.to_string(), pattern),
            };
            Ok(Value::Bool(matched != *negated))
        }
    }
}

/// The select list over one row: `*` is `star`'s cells, an expression
/// whatever `value` makes of it.
fn items(
    sel: &SelectStmt,
    names: &[String],
    star: &[Value],
    mut value: impl FnMut(&SqlExpr) -> Result<Value, DbError>,
) -> Result<Row, DbError> {
    let mut out = Vec::with_capacity(names.len());
    for item in &sel.items {
        match item {
            SelectItem::Star => out.extend(star.iter().cloned()),
            SelectItem::Expr { expr, .. } => out.push(value(expr)?),
        }
    }
    Ok(out)
}

/// Group the rows by the GROUP BY columns (value-key equality, groups in
/// first-seen order; without a key one group, even of no rows), then per
/// group evaluate each item over the group's first row (NULLs when it has
/// none) with every aggregate call replaced by its value over the group.
fn aggregate(sel: &SelectStmt, names: &[String], rows: &[Row]) -> Result<Vec<Row>, DbError> {
    let keys = sel
        .group_by
        .iter()
        .map(|g| position(names, g).ok_or_else(|| DbError::NoSuchColumn(g.clone())))
        .collect::<Result<Vec<_>, _>>()?;
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    if keys.is_empty() {
        groups.push(rows.iter().collect());
    } else {
        let mut group_of: HashMap<Vec<ValueKey>, usize> = HashMap::new();
        for row in rows {
            let key = keys.iter().map(|&i| ValueKey::of(&row[i])).collect();
            let g = *group_of.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(row);
        }
    }
    let nulls = vec![Value::Null; names.len()];
    let mut out = Vec::with_capacity(groups.len());
    for group in &groups {
        let first = group.first().copied().unwrap_or(&nulls);
        out.push(items(sel, names, first, |expr| {
            eval(&substitute(expr, names, group)?, names, first)
        })?);
    }
    Ok(out)
}

/// `expr` with every aggregate call — its argument not looked into —
/// replaced by the literal value of the aggregate over `group`.
fn substitute(expr: &SqlExpr, names: &[String], group: &[&Row]) -> Result<SqlExpr, DbError> {
    let sub = |e: &SqlExpr| substitute(e, names, group);
    let boxed = |e: &SqlExpr| sub(e).map(Box::new);
    Ok(match expr {
        SqlExpr::Func { name, args, star } => match AggKind::from_name(name) {
            Some(kind) => {
                let [arg] = args.as_slice() else {
                    return Err(DbError::Type(format!(
                        "aggregate {name}() expects exactly one argument"
                    )));
                };
                let values = group.iter().map(|row| eval(arg, names, row));
                SqlExpr::Lit(fold(kind, values.collect::<Result<_, _>>()?)?)
            }
            None => SqlExpr::Func {
                name: name.clone(),
                args: args.iter().map(sub).collect::<Result<_, _>>()?,
                star: *star,
            },
        },
        SqlExpr::Unary(op, x) => SqlExpr::Unary(*op, boxed(x)?),
        SqlExpr::Binary(op, l, r) => SqlExpr::Binary(op, boxed(l)?, boxed(r)?),
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => SqlExpr::InList {
            expr: boxed(expr)?,
            list: list.iter().map(sub).collect::<Result<_, _>>()?,
            negated: *negated,
        },
        SqlExpr::IsNull { expr, negated } => SqlExpr::IsNull {
            expr: boxed(expr)?,
            negated: *negated,
        },
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => SqlExpr::Like {
            expr: boxed(expr)?,
            pattern: pattern.clone(),
            negated: *negated,
        },
        SqlExpr::Lit(_) | SqlExpr::Col(_) => expr.clone(),
    })
}

/// The aggregate `kind` of a group's `values`, one row at a time. NULLs are
/// skipped. `count` counts what is left, `first` keeps the first, `min` and
/// `max` the first of the least and of the greatest (`Value::total_cmp`);
/// every other kind reads each value as an `f64` and fails on TEXT. With no
/// value left, `count` is 0 and every other kind NULL. `sum` adds from 0,
/// `prod` multiplies from 1; `avg` is Welford's running mean,
/// `variance` (NULL below two values) and `stddev` its sample variance
/// from the running sum of squared deviations; `median` the middle value of
/// the sorted inputs, or the mean of the middle two.
fn fold(kind: AggKind, mut values: Vec<Value>) -> Result<Value, DbError> {
    values.retain(|v| !v.is_null());
    let n = values.len();
    let mut xs = match kind {
        AggKind::Count | AggKind::Min | AggKind::Max | AggKind::First => Vec::new(),
        _ => values
            .iter()
            .map(|v| {
                v.as_f64().ok_or_else(|| {
                    DbError::Type(format!(
                        "aggregate {}() applied to non-numeric value",
                        kind.name()
                    ))
                })
            })
            .collect::<Result<Vec<f64>, _>>()?,
    };
    let Some(first) = values.first() else {
        return Ok(match kind {
            AggKind::Count => Value::Int(0),
            _ => Value::Null,
        });
    };
    let keep = |wanted: Ordering| {
        let pick = |kept: &Value, v: &Value| v.total_cmp(kept) == wanted;
        values
            .iter()
            .fold(first, |kept, v| if pick(kept, v) { v } else { kept })
    };
    let (mut mean, mut m2) = (0.0, 0.0);
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
    }
    let variance = m2 / (n as f64 - 1.0);
    Ok(match kind {
        AggKind::Count => Value::Int(n as i64),
        AggKind::First => first.clone(),
        AggKind::Min => keep(Ordering::Less).clone(),
        AggKind::Max => keep(Ordering::Greater).clone(),
        AggKind::Sum => Value::Float(xs.iter().fold(0.0, |sum, x| sum + x)),
        AggKind::Prod => Value::Float(xs.iter().fold(1.0, |prod, x| prod * x)),
        AggKind::Avg => Value::Float(mean),
        AggKind::Variance | AggKind::StdDev if n < 2 => Value::Null,
        AggKind::Variance => Value::Float(variance),
        AggKind::StdDev => Value::Float(variance.sqrt()),
        AggKind::Median => {
            xs.sort_by(f64::total_cmp);
            match n % 2 {
                1 => Value::Float(xs[n / 2]),
                _ => Value::Float((xs[n / 2 - 1] + xs[n / 2]) / 2.0),
            }
        }
    })
}

/// The output column names: a table's for `*`, else the alias, else the
/// column's own name, else the expression's text.
fn output_names(sel: &SelectStmt, names: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Star => out.extend(names.iter().cloned()),
            SelectItem::Expr { alias: Some(a), .. } => out.push(a.clone()),
            SelectItem::Expr {
                expr: SqlExpr::Col(c),
                ..
            } => out.push(c.clone()),
            SelectItem::Expr { expr, .. } => out.push(expr.to_string()),
        }
    }
    out
}

/// DISTINCT (value-key equality, first kept), ORDER BY (a 1-based position
/// or an output name, exact or unqualified; a stable sort, NULL first) and
/// LIMIT.
fn finish(
    sel: &SelectStmt,
    columns: Vec<String>,
    mut rows: Vec<Row>,
) -> Result<ResultSet, DbError> {
    if sel.distinct {
        let mut seen = HashSet::new();
        rows.retain(|row| seen.insert(row.iter().map(ValueKey::of).collect::<Vec<_>>()));
    }
    let mut keys = Vec::new();
    for key in &sel.order_by {
        let at = match key.position {
            Some(p) if p == 0 || p > columns.len() => {
                return Err(DbError::Execution(format!(
                    "ORDER BY position {p} out of range"
                )))
            }
            Some(p) => p - 1,
            None => {
                let name = key.column.as_str();
                // `mbps` names `bw.mbps`, and `bw.mbps` names `mbps`.
                let unqualified = |c: &str| {
                    c.rsplit('.').next() == Some(name) || name.rsplit('.').next() == Some(c)
                };
                columns
                    .iter()
                    .position(|c| c == name)
                    .or_else(|| columns.iter().position(|c| unqualified(c)))
                    .ok_or_else(|| DbError::NoSuchColumn(key.column.clone()))?
            }
        };
        keys.push((at, key.desc));
    }
    rows.sort_by(|a, b| {
        let order = |&(at, desc): &(usize, bool)| {
            let o = a[at].total_cmp(&b[at]);
            if desc {
                o.reverse()
            } else {
                o
            }
        };
        keys.iter()
            .map(order)
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    if let Some(n) = sel.limit {
        rows.truncate(n);
    }
    Ok(ResultSet::new(columns, rows))
}
