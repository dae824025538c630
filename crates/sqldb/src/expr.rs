//! The scalar primitives of SQL evaluation: truthiness, negation, the
//! comparison and arithmetic operators, the scalar functions and LIKE, each
//! over values already evaluated. The engine's one evaluator of expressions
//! (compiled once per statement) is built on them; they are public so that a
//! second, independent evaluator — the test oracle — can share exactly these
//! and nothing else.

use crate::error::DbError;
use crate::value::Value;

/// Truthiness for WHERE: NULL and zero are false.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Bool(b) => *b,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Timestamp(t) => *t != 0,
        Value::Text(s) => !s.is_empty(),
    }
}

/// Unary minus. `i64::MIN` is a literal (`- -9223372036854775808`) and has
/// no negation: that is an error, not a wrap-around.
pub fn negate(v: Value) -> Result<Value, DbError> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => i
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| DbError::Execution(format!("integer overflow negating {i}"))),
        Value::Float(f) => Ok(Value::Float(-f)),
        other => Err(DbError::Type(format!("cannot negate {other}"))),
    }
}

/// Apply a non-logical binary operator (a comparison or arithmetic; `AND`
/// and `OR` short-circuit in the evaluator) to two evaluated operands.
pub fn binary_values(op: &str, lv: Value, rv: Value) -> Result<Value, DbError> {
    match op {
        "=" => Ok(Value::Bool(lv.sql_eq(&rv))),
        "<>" => Ok(Value::Bool(
            !lv.is_null() && !rv.is_null() && !lv.sql_eq(&rv),
        )),
        "<" | "<=" | ">" | ">=" => {
            if lv.is_null() || rv.is_null() {
                return Ok(Value::Bool(false));
            }
            let ord = lv.total_cmp(&rv);
            let b = match op {
                "<" => ord.is_lt(),
                "<=" => ord.is_le(),
                ">" => ord.is_gt(),
                _ => ord.is_ge(),
            };
            Ok(Value::Bool(b))
        }
        "+" | "-" | "*" | "/" | "%" => {
            if lv.is_null() || rv.is_null() {
                return Ok(Value::Null);
            }
            // Text concatenation with '+' is deliberately unsupported.
            if let (Value::Int(a), Value::Int(b)) = (&lv, &rv) {
                let int = |result: Option<i64>| {
                    result.map(Value::Int).ok_or_else(|| {
                        DbError::Execution(format!("integer overflow in {a} {op} {b}"))
                    })
                };
                return match op {
                    "+" => int(a.checked_add(*b)),
                    "-" => int(a.checked_sub(*b)),
                    "*" => int(a.checked_mul(*b)),
                    "%" => {
                        if *b == 0 {
                            Err(DbError::Execution("modulo by zero".into()))
                        } else {
                            int(a.checked_rem(*b))
                        }
                    }
                    _ => {
                        if *b == 0 {
                            Err(DbError::Execution("division by zero".into()))
                        } else {
                            Ok(Value::Float(*a as f64 / *b as f64))
                        }
                    }
                };
            }
            let a = lv
                .as_f64()
                .ok_or_else(|| DbError::Type(format!("non-numeric operand {lv} for '{op}'")))?;
            let b = rv
                .as_f64()
                .ok_or_else(|| DbError::Type(format!("non-numeric operand {rv} for '{op}'")))?;
            match op {
                "+" => Ok(Value::Float(a + b)),
                "-" => Ok(Value::Float(a - b)),
                "*" => Ok(Value::Float(a * b)),
                "/" => {
                    if b == 0.0 {
                        Err(DbError::Execution("division by zero".into()))
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                _ => {
                    if b == 0.0 {
                        Err(DbError::Execution("modulo by zero".into()))
                    } else {
                        Ok(Value::Float(a % b))
                    }
                }
            }
        }
        other => Err(DbError::Execution(format!("unknown operator '{other}'"))),
    }
}

/// Is `name` a scalar function [`scalar_fn`] can dispatch? Used by the
/// index planner to prove an expression cannot raise a name error.
pub(crate) fn is_known_scalar(name: &str) -> bool {
    matches!(
        name,
        "abs" | "sqrt" | "floor" | "ceil" | "round" | "upper" | "lower" | "length" | "coalesce"
    )
}

/// Scalar (non-aggregate) SQL function dispatch over evaluated arguments.
pub fn scalar_fn(name: &str, args: &[Value]) -> Result<Value, DbError> {
    let one_num = |args: &[Value]| -> Result<Option<f64>, DbError> {
        if args.len() != 1 {
            return Err(DbError::Type(format!("{name}() expects one argument")));
        }
        if args[0].is_null() {
            return Ok(None);
        }
        args[0]
            .as_f64()
            .map(Some)
            .ok_or_else(|| DbError::Type(format!("{name}() expects a numeric argument")))
    };
    match name {
        "abs" => Ok(one_num(args)?
            .map(|x| Value::Float(x.abs()))
            .unwrap_or(Value::Null)),
        "sqrt" => match one_num(args)? {
            None => Ok(Value::Null),
            Some(x) if x < 0.0 => Err(DbError::Execution("sqrt of negative value".into())),
            Some(x) => Ok(Value::Float(x.sqrt())),
        },
        "floor" => Ok(one_num(args)?
            .map(|x| Value::Float(x.floor()))
            .unwrap_or(Value::Null)),
        "ceil" => Ok(one_num(args)?
            .map(|x| Value::Float(x.ceil()))
            .unwrap_or(Value::Null)),
        "round" => Ok(one_num(args)?
            .map(|x| Value::Float(x.round()))
            .unwrap_or(Value::Null)),
        "upper" | "lower" => {
            if args.len() != 1 {
                return Err(DbError::Type(format!("{name}() expects one argument")));
            }
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => {
                    let s = v.to_string();
                    Ok(Value::Text(if name == "upper" {
                        s.to_uppercase()
                    } else {
                        s.to_lowercase()
                    }))
                }
            }
        }
        "length" => {
            if args.len() != 1 {
                return Err(DbError::Type("length() expects one argument".into()));
            }
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Int(v.to_string().chars().count() as i64)),
            }
        }
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        other => Err(DbError::Execution(format!("unknown function '{other}'"))),
    }
}

/// One element of a parsed LIKE pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LikeTok {
    /// `%` — any run of characters (consecutive `%` collapse to one).
    Percent,
    /// `_` — exactly one character.
    Any,
    /// A literal character (possibly produced by an escape).
    Lit(char),
}

/// A parsed LIKE pattern: `%` matches any run, `_` any single character,
/// and a backslash escapes the next character (`\%`, `\_`, `\\`) so
/// filenames containing `%` or `_` stay filterable. Parsed once per
/// statement by the compiled evaluator; matching uses the two-pointer
/// greedy wildcard algorithm — worst case O(|s|·|pattern|), never the
/// exponential backtracking of the naive recursion.
#[derive(Debug, Clone)]
pub struct LikePattern {
    toks: Vec<LikeTok>,
}

impl LikePattern {
    /// Parse `pattern` (infallible: a trailing lone `\` is a literal).
    pub fn parse(pattern: &str) -> LikePattern {
        let mut toks = Vec::new();
        let mut chars = pattern.chars();
        while let Some(c) = chars.next() {
            match c {
                '%' => {
                    if toks.last() != Some(&LikeTok::Percent) {
                        toks.push(LikeTok::Percent);
                    }
                }
                '_' => toks.push(LikeTok::Any),
                '\\' => toks.push(LikeTok::Lit(chars.next().unwrap_or('\\'))),
                c => toks.push(LikeTok::Lit(c)),
            }
        }
        LikePattern { toks }
    }

    /// Does `s` match the pattern?
    pub fn matches(&self, s: &str) -> bool {
        let sc: Vec<char> = s.chars().collect();
        // Greedy two-pointer scan: on a mismatch, fall back to the most
        // recent `%` and let it absorb one more character. Each fallback
        // only ever moves the `%` anchor forward, so the scan is bounded
        // by |s|·|toks| instead of exploring every split recursively.
        let (mut si, mut pi) = (0usize, 0usize);
        let mut anchor: Option<(usize, usize)> = None; // (% token, chars absorbed)
        while si < sc.len() {
            if pi < self.toks.len() {
                match self.toks[pi] {
                    LikeTok::Percent => {
                        anchor = Some((pi, si));
                        pi += 1;
                        continue;
                    }
                    LikeTok::Any => {
                        si += 1;
                        pi += 1;
                        continue;
                    }
                    LikeTok::Lit(c) if sc[si] == c => {
                        si += 1;
                        pi += 1;
                        continue;
                    }
                    LikeTok::Lit(_) => {}
                }
            }
            match anchor {
                Some((api, asi)) => {
                    anchor = Some((api, asi + 1));
                    si = asi + 1;
                    pi = api + 1;
                }
                None => return false,
            }
        }
        // Only trailing `%` may remain unconsumed.
        self.toks[pi..].iter().all(|t| *t == LikeTok::Percent)
    }
}

/// SQL LIKE with `%` (any run), `_` (any single char) and `\` escapes.
/// One-shot convenience wrapper; hot paths precompile via [`LikePattern`].
pub fn like_match(s: &str, pattern: &str) -> bool {
    LikePattern::parse(pattern).matches(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::schema::{Column, Schema};
    use crate::sql::{parse_statement, SqlExpr, Stmt};
    use crate::value::DataType;

    fn ctx_schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("n", DataType::Int),
        ])
        .unwrap()
    }

    fn eval_where(src: &str, row: &[Value]) -> Value {
        let stmt = parse_statement(&format!("SELECT a FROM t WHERE {src}")).unwrap();
        let e = match stmt {
            Stmt::Select(s) => s.where_clause.unwrap(),
            other => panic!("{other:?}"),
        };
        compile(&e, &ctx_schema()).eval(row).unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(4),
            Value::Float(2.5),
            Value::Text("ufs".into()),
            Value::Null,
        ]
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_where("a = 4", &row()), Value::Bool(true));
        assert_eq!(eval_where("a < b", &row()), Value::Bool(false));
        assert_eq!(eval_where("b <= 2.5", &row()), Value::Bool(true));
        assert_eq!(eval_where("s = 'ufs'", &row()), Value::Bool(true));
        assert_eq!(eval_where("s <> 'nfs'", &row()), Value::Bool(true));
    }

    #[test]
    fn null_comparisons_false() {
        assert_eq!(eval_where("n = 0", &row()), Value::Bool(false));
        assert_eq!(eval_where("n <> 0", &row()), Value::Bool(false));
        assert_eq!(eval_where("n < 5", &row()), Value::Bool(false));
        assert_eq!(eval_where("n IS NULL", &row()), Value::Bool(true));
        assert_eq!(eval_where("a IS NOT NULL", &row()), Value::Bool(true));
    }

    #[test]
    fn arithmetic_types() {
        assert_eq!(eval_where("a + 1 = 5", &row()), Value::Bool(true));
        assert_eq!(eval_where("a / 8 = 0.5", &row()), Value::Bool(true)); // int / int -> float
        assert_eq!(eval_where("a % 3 = 1", &row()), Value::Bool(true));
        assert_eq!(eval_where("-a = -4", &row()), Value::Bool(true));
        assert_eq!(eval_where("a * b = 10.0", &row()), Value::Bool(true));
    }

    #[test]
    fn negating_i64_min_is_an_error() {
        assert_eq!(
            eval_where("-(-9223372036854775807) = 9223372036854775807", &row()),
            Value::Bool(true)
        );
        // `i64::MIN` is a literal, so SQL text can ask for its negation.
        for src in ["- -9223372036854775808", "-(-9223372036854775808)"] {
            let stmt = parse_statement(&format!("SELECT a FROM t WHERE {src} = 1")).unwrap();
            let Stmt::Select(sel) = stmt else {
                panic!("{stmt:?}")
            };
            assert_eq!(
                compile(&sel.where_clause.unwrap(), &ctx_schema()).eval(&row()),
                Err(DbError::Execution(
                    "integer overflow negating -9223372036854775808".into()
                )),
                "{src}"
            );
        }
    }

    #[test]
    fn integer_overflow_is_an_error() {
        for (a, op, b) in [
            (i64::MAX, "+", 1),
            (i64::MIN, "-", 1),
            (i64::MAX, "*", 2),
            (i64::MIN, "%", -1),
        ] {
            assert_eq!(
                binary_values(op, Value::Int(a), Value::Int(b)),
                Err(DbError::Execution(format!(
                    "integer overflow in {a} {op} {b}"
                ))),
            );
        }
        let max = Value::Int(i64::MAX);
        assert_eq!(binary_values("+", max.clone(), Value::Int(0)), Ok(max));
        assert_eq!(
            binary_values("%", Value::Int(i64::MIN), Value::Int(2)),
            Ok(Value::Int(0))
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(eval_where("n + 1 IS NULL", &row()), Value::Bool(true));
    }

    #[test]
    fn in_list_and_like() {
        assert_eq!(eval_where("s IN ('nfs', 'ufs')", &row()), Value::Bool(true));
        assert_eq!(eval_where("s NOT IN ('nfs')", &row()), Value::Bool(true));
        assert_eq!(eval_where("s LIKE 'uf%'", &row()), Value::Bool(true));
        assert_eq!(eval_where("s LIKE '_fs'", &row()), Value::Bool(true));
        assert_eq!(eval_where("s NOT LIKE 'n%'", &row()), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval_where("abs(-2) = 2", &row()), Value::Bool(true));
        assert_eq!(eval_where("upper(s) = 'UFS'", &row()), Value::Bool(true));
        assert_eq!(eval_where("length(s) = 3", &row()), Value::Bool(true));
        assert_eq!(eval_where("coalesce(n, a) = 4", &row()), Value::Bool(true));
        assert_eq!(eval_where("round(b) = 3", &row()), Value::Bool(true));
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%"));
        assert!(like_match("abc", "a%c"));
        assert!(like_match("abc", "%b%"));
        assert!(!like_match("abc", "a%d"));
        assert!(like_match("a%b", "a%b")); // '%' in text matches via wildcard
        assert!(like_match("bio_T10_N4", "bio%N_"));
        // Runs of '%' collapse; '%' also matches across the whole string.
        assert!(like_match("abc", "%%"));
        assert!(like_match("abc", "a%%c"));
        assert!(!like_match("abc", "%%d"));
        // Greedy fallback must not overshoot: last 'a' before the suffix.
        assert!(like_match("aXaYaZ", "%a_"));
        assert!(!like_match("aXaYaZb", "%a_"));
    }

    #[test]
    fn like_escapes_match_literal_wildcards() {
        // `\%` and `\_` match the literal character, not the wildcard.
        assert!(like_match("100%", "100\\%"));
        assert!(!like_match("100x", "100\\%"));
        assert!(like_match("a_b", "a\\_b"));
        assert!(!like_match("axb", "a\\_b"));
        // `\\` matches a literal backslash.
        assert!(like_match("a\\b", "a\\\\b"));
        // Escaped literal of an ordinary char is just that char.
        assert!(like_match("abc", "a\\bc"));
        // A trailing lone backslash matches a literal backslash.
        assert!(like_match("a\\", "a\\"));
        // Escapes compose with real wildcards.
        assert!(like_match("rate_50%_new", "rate\\_%\\%\\_new"));
        assert!(!like_match("rate-50%-new", "rate\\_%\\%\\_new"));
    }

    /// The old recursive matcher exploded exponentially on stacked `%a`
    /// groups over a non-matching string. The two-pointer rewrite is
    /// O(|s|·|pattern|); this input must finish orders of magnitude under
    /// the 100ms acceptance bound (the old code took minutes).
    #[test]
    fn like_pathological_pattern_is_fast() {
        let s = "a".repeat(2000);
        let pattern = format!("{}b", "%a".repeat(30));
        let start = std::time::Instant::now();
        assert!(!like_match(&s, &pattern));
        // Matching variant of the same shape, same budget.
        let s_match = format!("{}b", "a".repeat(2000));
        assert!(like_match(&s_match, &pattern));
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "pathological LIKE took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn unknown_column_errors() {
        let e = SqlExpr::Col("zzz".into());
        assert!(matches!(
            compile(&e, &ctx_schema()).eval(&row()),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn aggregate_rejected_in_row_context() {
        let e = SqlExpr::Func {
            name: "avg".into(),
            args: vec![SqlExpr::Col("a".into())],
            star: false,
        };
        assert!(compile(&e, &ctx_schema()).eval(&row()).is_err());
    }

    #[test]
    fn division_by_zero() {
        let e = parse_statement("SELECT a FROM t WHERE a / 0 = 1").unwrap();
        let w = match e {
            Stmt::Select(s) => s.where_clause.unwrap(),
            other => panic!("{other:?}"),
        };
        assert!(compile(&w, &ctx_schema()).eval(&row()).is_err());
    }
}
