//! Aggregate answers pinned to the bytes an earlier build wrote.
//!
//! The engine folds a column slot in typed kernels of its own, one loop per
//! aggregate kind and column type; the oracle of the equivalence suites
//! folds through `Accumulator::update`, one `Value` at a time. Those suites
//! therefore compare two separate implementations of every recurrence, and
//! these fixtures pin both to the answers of builds that predate the
//! kernels.
//!
//! `fixtures/aggregates/` was written by the build at commit `3252529` (the
//! last that fed every aggregate one `Value` per cell through one fold for
//! all kinds) by running [`aggregates_answer_what_the_parent_build_answered`]
//! there with `BLESS=1`: `db.sql` is the dump of the table [`seeded`] builds
//! — INTEGER, FLOAT, BOOLEAN, TIMESTAMP and TEXT cells with NULL, NaN, ±inf,
//! ±0.0, ±2^53±1 and the i64 extremes — and `expected.txt` holds each of
//! [`STATEMENTS`] and that build's `Debug` answer to it, error or result set.
//! Its table has 64 rows, one chunk.
//!
//! `fixtures/aggregates_chunks/expected.txt` was written the same way by the
//! build at commit `e05e3f9` (the last that fed every column slot one cell
//! at a time through `Accumulator::fold`), running
//! [`aggregates_over_many_chunks_answer_what_the_parent_build_answered`]:
//! the answers to [`CHUNKED_STATEMENTS`] over the 2·4096+7 rows [`chunked`]
//! builds, where NULL runs and the hard numbers sit across chunk edges.

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
        .join("tests/fixtures")
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
        std::fs::create_dir_all(fixture("aggregates")).unwrap();
        std::fs::write(fixture("aggregates/db.sql"), &dump).unwrap();
        std::fs::write(
            fixture("aggregates/expected.txt"),
            answers(&loaded, &STATEMENTS),
        )
        .unwrap();
        return;
    }
    let dump = std::fs::read_to_string(fixture("aggregates/db.sql")).unwrap();
    let e = Engine::from_sql_dump(&dump).unwrap();
    let expected = std::fs::read_to_string(fixture("aggregates/expected.txt")).unwrap();
    let statements: Vec<&str> = expected
        .lines()
        .filter_map(|l| l.strip_prefix("-- "))
        .collect();
    assert_eq!(statements, STATEMENTS, "the fixture lists other statements");
    assert_answers(&e, &statements, &expected);
}

/// `e`'s answers to `statements` are `expected`, line by line.
fn assert_answers(e: &Engine, statements: &[&str], expected: &str) {
    let got = answers(e, statements);
    for (g, w) in got.lines().zip(expected.lines()) {
        assert_eq!(g, w);
    }
    assert_eq!(got, expected);
}

/// Every kind over every column type across chunk edges, with 0, 1 and 2
/// keys, and WHERE selections that leave gaps inside a chunk (`g = 1`,
/// `i % 5 <> 0`) and whole stretches across one (`r` ranges).
const CHUNKED_STATEMENTS: &[&str] = &[
    "SELECT count(*), count(r), count(i), count(f), count(b), count(t), count(s), count(k) FROM c",
    "SELECT sum(i), sum(f), sum(b), sum(t), avg(i), avg(f), avg(b), avg(t) FROM c",
    "SELECT min(i), max(i), min(f), max(f), min(b), max(b), min(t), max(t), min(s), max(s) \
     FROM c",
    "SELECT stddev(i), stddev(f), stddev(b), stddev(t), variance(i), variance(f), variance(b), \
     variance(t) FROM c",
    "SELECT prod(i), prod(f), prod(b), prod(t), median(i), median(f), median(b), median(t) \
     FROM c",
    "SELECT first(i), first(f), first(b), first(t), first(s), first(k) FROM c",
    "SELECT sum(s) FROM c",
    "SELECT prod(s), stddev(s) FROM c",
    "SELECT median(s) FROM c",
    "SELECT sum(s), avg(s), median(s), variance(s), count(s), min(s) FROM c WHERE r >= 8180",
    "SELECT count(*), sum(f), avg(f), stddev(f), min(f), max(f) FROM c WHERE k <> 'edge'",
    "SELECT count(f), min(f), max(f), first(f), sum(f) FROM c WHERE f >= 0.0",
    "SELECT count(f), min(f), max(f), first(f), sum(f) FROM c WHERE f <= 0.0",
    "SELECT count(*), avg(f), variance(f), min(i), max(i), sum(t), min(s), max(s) \
     FROM c WHERE r >= 4000 AND r < 4200",
    "SELECT count(*), avg(i), avg(f), median(f), first(s), max(t) \
     FROM c WHERE r % 4096 < 9 OR r % 4096 > 4087",
    "SELECT count(*), avg(f), sum(i), min(f), max(s), first(b) FROM c WHERE g = 1",
    "SELECT count(*), sum(f), stddev(i), min(t), max(b), first(t) FROM c WHERE i % 5 <> 0",
    "SELECT count(*), sum(f), avg(f), min(s), max(i), stddev(f), prod(f), first(s), median(f) \
     FROM c WHERE r < 0",
    "SELECT k, count(*), count(i), count(f), count(b), count(t), count(s) FROM c GROUP BY k",
    "SELECT k, sum(i), sum(f), sum(b), sum(t), avg(i), avg(f), avg(b), avg(t) FROM c GROUP BY k",
    "SELECT k, min(i), max(i), min(f), max(f), min(b), max(b), min(t), max(t), min(s), max(s) \
     FROM c GROUP BY k",
    "SELECT k, stddev(i), stddev(f), stddev(b), stddev(t), variance(i), variance(f), \
     variance(b), variance(t) FROM c GROUP BY k",
    "SELECT k, prod(i), prod(f), prod(b), prod(t), median(i), median(f), median(b), median(t) \
     FROM c GROUP BY k",
    "SELECT k, first(i), first(f), first(b), first(t), first(s), first(g) FROM c GROUP BY k",
    "SELECT k, count(s), sum(s) FROM c GROUP BY k",
    "SELECT k, avg(s) FROM c WHERE r >= 8180 GROUP BY k",
    "SELECT k, count(*), max(*), sum(*), avg(*), first(*) FROM c GROUP BY k",
    "SELECT g, count(*), sum(f), avg(f), min(f), max(f), min(s), max(s), median(i) \
     FROM c GROUP BY g",
    "SELECT b, count(*), sum(i), avg(t), min(i), max(t), first(s), variance(f) \
     FROM c GROUP BY b",
    "SELECT s, count(*), avg(f), min(f), max(f), first(i), median(t) FROM c GROUP BY s",
    "SELECT k, g, count(*), count(f), sum(f), avg(f), min(f), max(f), stddev(f) \
     FROM c GROUP BY k, g",
    "SELECT k, g, min(i), max(i), avg(i), min(s), max(s), first(t), prod(b) \
     FROM c GROUP BY k, g",
    "SELECT g, b, sum(t), min(t), max(t), avg(b), median(f), first(f) FROM c GROUP BY g, b",
    "SELECT k, count(f), min(f), max(f), first(f) FROM c WHERE f >= 0.0 GROUP BY k",
    "SELECT k, count(f), min(f), max(f), first(f) FROM c WHERE f <= 0.0 GROUP BY k",
    "SELECT k, count(*), avg(f), stddev(f), min(i), max(i), min(s), max(s), median(t) \
     FROM c WHERE r >= 4000 AND r < 4200 GROUP BY k",
    "SELECT k, g, count(*), sum(f), avg(i), min(f), max(f), first(s) \
     FROM c WHERE r >= 8150 GROUP BY k, g",
    "SELECT k, count(*), avg(f), variance(f), min(t), max(s) FROM c WHERE g = 1 GROUP BY k",
    "SELECT k, g, sum(f), avg(f), max(i), min(b), first(t) FROM c WHERE i % 5 <> 0 GROUP BY k, g",
    "SELECT k, count(*), sum(f), min(f), max(s) FROM c WHERE r < 0 GROUP BY k",
    "SELECT k, sum(f * 2), avg(f + 0), max(i + 0), min(t + 0) FROM c GROUP BY k",
    "SELECT k, sum(f) + count(*), max(f) - min(f), avg(i) / 2 FROM c GROUP BY k",
];

/// The table of [`CHUNKED_STATEMENTS`]: 2·4096+7 rows, `r` the row number.
/// Ordinary cells come from a fixed generator; NaN, ±inf and ±0.0 in `f` sit
/// on both sides of the first chunk edge, ±2^53±1 and the i64 extremes in
/// `i` and `t` on both sides of the second, and every column has a NULL run
/// across an edge. The first rows enter the TEXT dictionaries out of string
/// order, so a code order is not a string order.
fn chunked() -> Engine {
    const ROWS: usize = 2 * 4096 + 7;
    const BIG: i64 = 1 << 53;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let keys = ["ufs", "nfs", "xfs", "btrfs", "", "ext4"];
    let texts = ["m", "zz", "a", "B", "", "ünï", "it's", "ab", "Z"];
    let text = |s: &str| Value::Text(s.to_string());
    let e = Engine::new();
    e.execute(
        "CREATE TABLE c (r INTEGER, k TEXT, g INTEGER, i INTEGER, f FLOAT, b BOOLEAN, \
         t TIMESTAMP, s TEXT)",
    )
    .unwrap();
    let mut rows = Vec::with_capacity(ROWS);
    for r in 0..ROWS {
        let (x, y) = (next(), next());
        let k = match r {
            4093..=4098 | 8189..=8195 => text("edge"),
            _ if r % 13 == 4 => Value::Null,
            _ => text(keys[(r * 5 / 3) % keys.len()]),
        };
        let g = match r % 11 {
            10 => Value::Null,
            _ => Value::Int(((r / 3) % 4) as i64),
        };
        let i = match r {
            4090..=4102 => Value::Null,
            8189 => Value::Int(BIG - 1),
            8190 => Value::Int(BIG),
            8191 => Value::Int(BIG + 1),
            8192 => Value::Int(-BIG - 1),
            8193 => Value::Int(-BIG + 1),
            8194 => Value::Int(i64::MAX),
            8195 => Value::Int(i64::MIN),
            _ => Value::Int(x as i64 % 2_000_001 - 1_000_000),
        };
        let f = match r {
            100 | 4096 => Value::Float(0.0),
            4095 | 5000 => Value::Float(-0.0),
            4093 | 4098 => Value::Float(f64::NAN),
            4094 => Value::Float(f64::INFINITY),
            4097 => Value::Float(f64::NEG_INFINITY),
            8186..=8196 => Value::Null,
            _ if r % 17 == 3 => Value::Null,
            _ if r % 29 == 7 => Value::Float((y % 1000) as f64 * 1e12 + 0.1),
            _ => Value::Float((y % 2_000_001) as f64 / 1000.0 - 1000.0),
        };
        let b = match r {
            4080..=4111 => Value::Null,
            _ if r % 19 == 2 => Value::Null,
            _ => Value::Bool((x >> 7) % 3 == 0),
        };
        let t = match r {
            4085..=4100 => Value::Null,
            8190 => Value::Timestamp(BIG + 1),
            8191 => Value::Timestamp(-BIG - 1),
            8192 => Value::Timestamp(BIG - 1),
            _ => Value::Timestamp(1_100_000_000 + (y % 86_400) as i64),
        };
        let s = match r {
            8180.. => Value::Null,
            _ if r % 23 == 9 => Value::Null,
            _ => text(texts[(r * 7 + 3) % texts.len()]),
        };
        rows.push(vec![Value::Int(r as i64), k, g, i, f, b, t, s]);
    }
    e.insert_rows("c", rows).unwrap();
    e
}

#[test]
fn aggregates_over_many_chunks_answer_what_the_parent_build_answered() {
    let e = chunked();
    let path = fixture("aggregates_chunks/expected.txt");
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(fixture("aggregates_chunks")).unwrap();
        std::fs::write(&path, answers(&e, CHUNKED_STATEMENTS)).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap();
    let statements: Vec<&str> = expected
        .lines()
        .filter_map(|l| l.strip_prefix("-- "))
        .collect();
    assert_eq!(
        statements, CHUNKED_STATEMENTS,
        "the fixture lists other statements"
    );
    assert_answers(&e, &statements, &expected);
}
