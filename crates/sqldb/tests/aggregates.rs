//! Aggregate answers pinned to the bytes an earlier build wrote.
//!
//! The oracle of the equivalence suites folds with the engine's own
//! `Accumulator`, so a change to a fold moves both sides of that comparison
//! at once. `fixtures/aggregates/` was written by the build at commit
//! `3252529` (the last that fed every aggregate one `Value` per cell through
//! one fold for all kinds) by running this file's test there with `BLESS=1`:
//! `db.sql` is the dump of the table [`seeded`] builds — INTEGER, FLOAT,
//! BOOLEAN, TIMESTAMP and TEXT cells with NULL, NaN, ±inf, ±0.0, ±2^53±1 and
//! the i64 extremes — and `expected.txt` holds each of [`STATEMENTS`] and
//! that build's `Debug` answer to it, error or result set.

use sqldb::{Engine, Value};
use std::path::PathBuf;

/// Every `AggKind` over every column type, the `agg(*)` forms, 0, 1 and 2
/// keys, with and without WHERE, empty inputs and all-NULL groups.
const STATEMENTS: [&str; 42] = [
    "SELECT count(*), count(i), count(f), count(b), count(t), count(s) FROM a",
    "SELECT sum(i), sum(f), sum(b), sum(t) FROM a",
    "SELECT avg(i), avg(f), avg(b), avg(t) FROM a",
    "SELECT min(i), max(i), min(f), max(f) FROM a",
    "SELECT min(b), max(b), min(t), max(t), min(s), max(s) FROM a",
    "SELECT stddev(i), stddev(f), variance(i), variance(f), stddev(b), variance(t) FROM a",
    "SELECT prod(i), prod(f), prod(b), prod(t) FROM a",
    "SELECT first(i), first(f), first(b), first(t), first(s) FROM a",
    "SELECT median(i), median(f), median(b), median(t) FROM a",
    "SELECT count(*), sum(*), avg(*), min(*), max(*), prod(*), first(*), median(*), \
     stddev(*), variance(*) FROM a",
    "SELECT sum(s) FROM a",
    "SELECT avg(s), median(s) FROM a",
    "SELECT stddev(f), variance(f), avg(f), sum(f) FROM a WHERE f > -1e300 AND f < 1e300",
    "SELECT k, count(*), count(f), sum(f), avg(f) FROM a GROUP BY k",
    "SELECT k, min(f), max(f), min(i), max(i) FROM a GROUP BY k",
    "SELECT k, stddev(f), variance(f), prod(f), median(f) FROM a GROUP BY k",
    "SELECT k, first(s), min(s), max(s), first(t), min(t), max(t) FROM a GROUP BY k",
    "SELECT k, sum(b), min(b), max(b), avg(b), first(b) FROM a GROUP BY k",
    "SELECT k, sum(i), avg(i), stddev(i), variance(i), prod(i), median(i) FROM a GROUP BY k",
    "SELECT k, count(*), max(*), sum(*), first(*) FROM a GROUP BY k",
    "SELECT g, count(*), sum(f), min(i), max(i), first(s) FROM a GROUP BY g",
    "SELECT f, count(*), sum(i), min(t), max(s) FROM a GROUP BY f",
    "SELECT b, count(*), avg(f), max(s), min(i) FROM a GROUP BY b",
    "SELECT t, count(*), max(b), median(f) FROM a GROUP BY t",
    "SELECT k, g, count(*), sum(f), avg(i), min(s), max(t) FROM a GROUP BY k, g",
    "SELECT g, b, stddev(f), variance(i), prod(b), median(t), first(f) FROM a GROUP BY g, b",
    "SELECT k, count(*), avg(f), sum(i) FROM a WHERE g = 1 GROUP BY k",
    "SELECT count(*), min(i), max(i), sum(i) FROM a WHERE i > 0",
    "SELECT k, g, min(f), max(f), count(s) FROM a WHERE s LIKE 'a%' GROUP BY k, g",
    "SELECT k, sum(f), max(i) FROM a WHERE i % 3 = 1 GROUP BY k",
    "SELECT count(*), sum(f), avg(f), min(s), max(i), stddev(f), variance(f), prod(f), \
     first(s), median(f) FROM a WHERE g > 1000",
    "SELECT k, count(*), sum(f) FROM a WHERE g > 1000 GROUP BY k",
    "SELECT k, count(f), sum(f), avg(f), min(f), max(s), stddev(f), prod(f), first(s), \
     median(f), min(b), max(t) FROM a WHERE k = 'nulls' GROUP BY k",
    "SELECT k, sum(f * 2), avg(f + 0), max(i + 0), min(t + 0) FROM a GROUP BY k",
    "SELECT k, sum(f) + count(*), max(f) - min(f) FROM a GROUP BY k",
    "SELECT count(1), count(NULL), sum(2), max('z'), min(TRUE) FROM a",
    "SELECT k, sum(s) FROM a GROUP BY k",
    "SELECT k, stddev(s) FROM a WHERE k = 'nulls' GROUP BY k",
    "SELECT min(i), max(i) FROM a WHERE i > 9007199254740000",
    "SELECT k, min(i), max(i), first(i) FROM a WHERE i < -9007199254740000 GROUP BY k",
    "SELECT k, avg(f) FROM a GROUP BY k ORDER BY 2 DESC",
    "SELECT g, count(*), first(b), median(b), variance(t), min(*) FROM a GROUP BY g",
];

/// The table the fixture's dump holds: 64 rows whose cells cycle through
/// the hard cases at different strides, so every group sees a mix, and a
/// group `nulls` whose cells are all NULL.
fn seeded() -> Engine {
    const BIG: i64 = 1 << 53;
    let ints = [
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Int(BIG - 1),
        Value::Int(BIG),
        Value::Int(BIG + 1),
        Value::Null,
        Value::Int(-BIG - 1),
        Value::Int(-BIG + 1),
        Value::Int(i64::MAX),
        Value::Int(i64::MIN),
        Value::Int(42),
        Value::Int(-BIG),
    ];
    // Finite, non-zero floats everywhere; NaN, ±inf, 1e300 and the zeros
    // only in some rows, so that most groups keep finite sums and products.
    let floats = [
        Value::Float(1.5),
        Value::Null,
        Value::Float(-2.25),
        Value::Float(-1e-300),
        Value::Float(0.1),
        Value::Float(9_007_199_254_740_993.0),
        Value::Float(3.0),
        Value::Float(1e15 + 0.3),
        Value::Float(10.0 / 3.0),
        Value::Float(-7.75),
        Value::Float(1e-3),
    ];
    let special_float = |r: usize| match r {
        3 => Some(0.0),
        4 => Some(-0.0),
        8 => Some(-0.0),
        13 => Some(f64::NAN),
        29 => Some(f64::INFINITY),
        40 => Some(f64::NEG_INFINITY),
        49 => Some(1e300),
        _ => None,
    };
    let bools = [Value::Bool(true), Value::Bool(false), Value::Null];
    let stamps = [
        Value::Timestamp(1_100_000_000),
        Value::Timestamp(0),
        Value::Null,
        Value::Timestamp(-86_400),
        Value::Timestamp(BIG + 1),
        Value::Timestamp(BIG),
        Value::Timestamp(1_100_000_001),
    ];
    let texts = [
        Value::Text("a".into()),
        Value::Text("b".into()),
        Value::Text(String::new()),
        Value::Text("it's".into()),
        Value::Null,
        Value::Text("zz".into()),
        Value::Text("A".into()),
        Value::Text("ünï".into()),
        Value::Text("ab".into()),
    ];
    let keys = [
        Value::Text("a".into()),
        Value::Text("b".into()),
        Value::Text("c".into()),
        Value::Null,
        Value::Text("a".into()),
    ];
    let e = Engine::new();
    e.execute(
        "CREATE TABLE a (k TEXT, g INTEGER, i INTEGER, f FLOAT, b BOOLEAN, t TIMESTAMP, s TEXT)",
    )
    .unwrap();
    let mut rows = Vec::new();
    for r in 0..64usize {
        let g = match r % 7 {
            6 => Value::Null,
            n => Value::Int(n as i64 % 3),
        };
        if r % 11 == 5 {
            let nulls = vec![Value::Null; 5];
            rows.push([vec![Value::Text("nulls".into()), g], nulls].concat());
            continue;
        }
        rows.push(vec![
            keys[r % keys.len()].clone(),
            g,
            ints[r % ints.len()].clone(),
            special_float(r)
                .map_or_else(|| floats[(3 * r + 1) % floats.len()].clone(), Value::Float),
            bools[(r / 2) % bools.len()].clone(),
            stamps[(5 * r) % stamps.len()].clone(),
            texts[(7 * r + 2) % texts.len()].clone(),
        ]);
    }
    e.insert_rows("a", rows).unwrap();
    e
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/aggregates")
        .join(name)
}

/// Each statement and the engine's `Debug` answer to it.
fn answers(e: &Engine, statements: &[&str]) -> String {
    let mut text = String::new();
    for sql in statements {
        text.push_str(&format!("-- {sql}\n{:?}\n", e.query(sql)));
    }
    text
}

#[test]
fn aggregates_answer_what_the_parent_build_answered() {
    if std::env::var("BLESS").is_ok() {
        let dump = seeded().dump_sql();
        let loaded = Engine::from_sql_dump(&dump).unwrap();
        assert_eq!(loaded.dump_sql(), dump, "the dump is not a fixpoint");
        std::fs::create_dir_all(fixture("")).unwrap();
        std::fs::write(fixture("db.sql"), &dump).unwrap();
        std::fs::write(fixture("expected.txt"), answers(&loaded, &STATEMENTS)).unwrap();
        return;
    }
    let dump = std::fs::read_to_string(fixture("db.sql")).unwrap();
    let e = Engine::from_sql_dump(&dump).unwrap();
    let expected = std::fs::read_to_string(fixture("expected.txt")).unwrap();
    let statements: Vec<&str> = expected
        .lines()
        .filter_map(|l| l.strip_prefix("-- "))
        .collect();
    assert_eq!(statements, STATEMENTS, "the fixture lists other statements");
    let got = answers(&e, &statements);
    for (g, w) in got.lines().zip(expected.lines()) {
        assert_eq!(g, w);
    }
    assert_eq!(got, expected);
}
