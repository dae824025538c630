//! Expression compilation: one-time lowering of [`SqlExpr`] trees into
//! evaluators with pre-resolved column indices — the engine's one scalar
//! evaluator (WHERE, projections, aggregate arguments and items, UPDATE
//! values, INSERT constants).
//!
//! Names are resolved with [`Schema::index_of`] once per statement; a
//! [`CompiledExpr`] then evaluates directly against a `&[Value]` row slice.
//! The value-level operator logic ([`crate::expr::binary_values`],
//! [`crate::expr::scalar_fn`], [`crate::expr::truthy`], the LIKE matcher)
//! lives in [`crate::expr`], and errors stay lazy — an unknown column or
//! function inside a short-circuited `AND`/`OR` branch errors only if that
//! branch is actually evaluated.

use crate::aggregate::AggKind;
use crate::error::DbError;
use crate::expr::{binary_values, negate, scalar_fn, truthy, LikePattern};
use crate::schema::Schema;
use crate::sql::{SqlExpr, UnOp};
use crate::value::Value;

/// A compiled row expression. Built once per statement with [`compile`],
/// evaluated per row with [`CompiledExpr::eval`].
#[derive(Debug, Clone)]
pub(crate) enum CompiledExpr {
    /// Literal value.
    Lit(Value),
    /// Column reference resolved to a row index.
    Col(usize),
    /// Column reference that did not resolve; errors (`NoSuchColumn`) when
    /// evaluated.
    BadCol(String),
    /// Arithmetic negation.
    Neg(Box<CompiledExpr>),
    /// Logical NOT.
    Not(Box<CompiledExpr>),
    /// Short-circuit AND (NULL treated as false).
    And(Box<CompiledExpr>, Box<CompiledExpr>),
    /// Short-circuit OR.
    Or(Box<CompiledExpr>, Box<CompiledExpr>),
    /// Non-logical binary operator (comparison / arithmetic).
    Binary(&'static str, Box<CompiledExpr>, Box<CompiledExpr>),
    /// Scalar function call. Aggregates and unknown functions error when
    /// evaluated.
    Func {
        /// Lower-cased function name.
        name: String,
        /// Compiled arguments.
        args: Vec<CompiledExpr>,
        /// True when `name` is an aggregate (rejected at eval time).
        is_aggregate: bool,
    },
    /// `x [NOT] IN (...)`.
    InList {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// Candidate list.
        list: Vec<CompiledExpr>,
        /// NOT IN.
        negated: bool,
    },
    /// `x IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// IS NOT NULL.
        negated: bool,
    },
    /// `x [NOT] LIKE 'pat'`.
    Like {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// Pattern literal, tokenized once at compile time.
        pattern: LikePattern,
        /// NOT LIKE.
        negated: bool,
    },
}

/// Lower `expr` against `schema`. Never fails: unresolved names become
/// [`CompiledExpr::BadCol`], which errors only if evaluated.
pub(crate) fn compile(expr: &SqlExpr, schema: &Schema) -> CompiledExpr {
    compile_reading(expr, schema, &mut |_, _| None)
}

/// [`compile`], except that each outermost aggregate call — `kind` over
/// `call`, its arguments not looked into — reads the column `aggregate`
/// answers for it: the aggregate's value, placed after the row's own
/// columns by whoever computed it.
pub(crate) fn compile_reading(
    expr: &SqlExpr,
    schema: &Schema,
    aggregate: &mut dyn FnMut(AggKind, &SqlExpr) -> Option<usize>,
) -> CompiledExpr {
    let mut lower = |e: &SqlExpr| Box::new(compile_reading(e, schema, aggregate));
    match expr {
        SqlExpr::Lit(v) => CompiledExpr::Lit(v.clone()),
        SqlExpr::Col(name) => match schema.index_of(name) {
            Some(i) => CompiledExpr::Col(i),
            None => CompiledExpr::BadCol(name.clone()),
        },
        SqlExpr::Unary(UnOp::Neg, x) => CompiledExpr::Neg(lower(x)),
        SqlExpr::Unary(UnOp::Not, x) => CompiledExpr::Not(lower(x)),
        SqlExpr::Binary("AND", l, r) => CompiledExpr::And(lower(l), lower(r)),
        SqlExpr::Binary("OR", l, r) => CompiledExpr::Or(lower(l), lower(r)),
        SqlExpr::Binary(op, l, r) => CompiledExpr::Binary(op, lower(l), lower(r)),
        SqlExpr::Func { name, args, .. } => {
            let kind = AggKind::from_name(name);
            match kind.and_then(|kind| aggregate(kind, expr)) {
                Some(column) => CompiledExpr::Col(column),
                None => CompiledExpr::Func {
                    name: name.clone(),
                    args: (args.iter())
                        .map(|a| compile_reading(a, schema, aggregate))
                        .collect(),
                    is_aggregate: kind.is_some(),
                },
            }
        }
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => CompiledExpr::InList {
            expr: lower(expr),
            list: list.iter().map(|e| *lower(e)).collect(),
            negated: *negated,
        },
        SqlExpr::IsNull { expr, negated } => CompiledExpr::IsNull {
            expr: lower(expr),
            negated: *negated,
        },
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => CompiledExpr::Like {
            expr: lower(expr),
            pattern: LikePattern::parse(pattern),
            negated: *negated,
        },
    }
}

impl CompiledExpr {
    /// Evaluate against one row slice.
    pub(crate) fn eval(&self, row: &[Value]) -> Result<Value, DbError> {
        match self {
            CompiledExpr::Lit(v) => Ok(v.clone()),
            CompiledExpr::Col(i) => Ok(row[*i].clone()),
            CompiledExpr::BadCol(name) => Err(DbError::NoSuchColumn(name.clone())),
            CompiledExpr::Neg(x) => negate(x.eval(row)?),
            CompiledExpr::Not(x) => Ok(Value::Bool(!truthy(&x.eval(row)?))),
            CompiledExpr::And(l, r) => {
                if !truthy(&l.eval(row)?) {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(truthy(&r.eval(row)?)))
            }
            CompiledExpr::Or(l, r) => {
                if truthy(&l.eval(row)?) {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(truthy(&r.eval(row)?)))
            }
            CompiledExpr::Binary(op, l, r) => {
                let lv = l.eval(row)?;
                let rv = r.eval(row)?;
                binary_values(op, lv, rv)
            }
            CompiledExpr::Func {
                name,
                args,
                is_aggregate,
            } => {
                if *is_aggregate {
                    return Err(DbError::Execution(format!(
                        "aggregate function {name}() is not allowed in this context"
                    )));
                }
                let vals: Result<Vec<Value>, DbError> = args.iter().map(|a| a.eval(row)).collect();
                scalar_fn(name, &vals?)
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let mut found = false;
                for item in list {
                    let w = item.eval(row)?;
                    if v.sql_eq(&w) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            CompiledExpr::IsNull { expr, negated } => {
                Ok(Value::Bool(expr.eval(row)?.is_null() != *negated))
            }
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                let matched = match &v {
                    Value::Text(s) => pattern.matches(s),
                    Value::Null => false,
                    other => pattern.matches(&other.to_string()),
                };
                Ok(Value::Bool(matched != *negated))
            }
        }
    }

    /// Evaluate as a WHERE predicate.
    pub(crate) fn matches(&self, row: &[Value]) -> Result<bool, DbError> {
        Ok(truthy(&self.eval(row)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::sql::{parse_statement, Stmt};
    use crate::test_common::oracle;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("n", DataType::Int),
        ])
        .unwrap()
    }

    fn where_expr(src: &str) -> SqlExpr {
        match parse_statement(&format!("SELECT a FROM t WHERE {src}")).unwrap() {
            Stmt::Select(s) => s.where_clause.unwrap(),
            other => panic!("{other:?}"),
        }
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(4),
            Value::Float(2.5),
            Value::Text("ufs".into()),
            Value::Null,
        ]
    }

    /// Compiled evaluation and the oracle's interpreter agree (values and
    /// errors) on a catalogue of expression shapes.
    #[test]
    fn agrees_with_interpreter() {
        let schema = schema();
        let r = row();
        for src in [
            "a = 4",
            "a < b",
            "s = 'ufs' AND a >= 4",
            "s = 'nfs' OR b > 2",
            "n = 0",
            "n <> 0",
            "n IS NULL",
            "a IS NOT NULL",
            "a + 1 = 5",
            "a / 8 = 0.5",
            "a % 3 = 1",
            "-a = -4",
            "- -9223372036854775808 = 1",
            "-(-9223372036854775808) = 1",
            "a * b = 10.0",
            "9223372036854775807 + a = 1",
            "-9223372036854775807 - a = 1",
            "a * 4611686018427387904 = 1",
            "(-9223372036854775807 - 1) % (a - 5) = 0",
            "n + 1 IS NULL",
            "s IN ('nfs', 'ufs')",
            "s NOT IN ('nfs')",
            "s LIKE 'uf%'",
            "s NOT LIKE 'n%'",
            "abs(-2) = 2",
            "upper(s) = 'UFS'",
            "length(s) = 3",
            "coalesce(n, a) = 4",
            "round(b) = 3",
            "NOT (a = 1 OR b <> 2)",
            "a / 0 = 1",
            "a % 0 = 1",
            "sqrt(-1) = 1",
            "zzz = 1",
            "avg(a) = 1",
            "nope(a) = 1",
        ] {
            let e = where_expr(src);
            let compiled = compile(&e, &schema).eval(&r);
            let interpreted = oracle::eval(&e, &schema.names(), &r);
            match (&compiled, &interpreted) {
                (Ok(c), Ok(i)) => assert_eq!(c, i, "{src}"),
                (Err(c), Err(i)) => assert_eq!(c, i, "{src}"),
                other => panic!("{src}: {other:?}"),
            }
        }
    }

    /// Errors on a short-circuited branch stay lazy: the unknown column is
    /// never reached.
    #[test]
    fn short_circuit_keeps_errors_lazy() {
        let schema = schema();
        let r = row();
        let e = where_expr("a = 0 AND zzz = 1");
        assert_eq!(compile(&e, &schema).eval(&r).unwrap(), Value::Bool(false));
        let e = where_expr("a = 4 OR zzz = 1");
        assert_eq!(compile(&e, &schema).eval(&r).unwrap(), Value::Bool(true));
        let e = where_expr("a = 4 AND zzz = 1");
        assert!(matches!(
            compile(&e, &schema).eval(&r),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    /// Qualified-name fallbacks resolve like `Schema::index_of`.
    #[test]
    fn qualified_resolution() {
        let schema = Schema::new(vec![
            Column::new("t.id", DataType::Int),
            Column::new("u.id", DataType::Int),
        ])
        .unwrap();
        let r = vec![Value::Int(1), Value::Int(2)];
        let e = where_expr("id = 1");
        assert_eq!(compile(&e, &schema).eval(&r).unwrap(), Value::Bool(true));
        let e = where_expr("u.id = 2");
        assert_eq!(compile(&e, &schema).eval(&r).unwrap(), Value::Bool(true));
    }
}
