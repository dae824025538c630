//! Randomized tests for the database engine: SQL-computed aggregates and
//! filters must agree with independently computed oracles.

mod common;

use std::ops::Bound;

use common::Rng;
use sqldb::{Column, DataType, Engine, Schema, Table, Value, ValueKey};

fn load(values: &[(i64, f64, bool)]) -> Engine {
    let db = Engine::new();
    db.execute("CREATE TABLE t (k INTEGER, v FLOAT, flag BOOLEAN)")
        .unwrap();
    for (k, v, b) in values {
        db.execute(&format!("INSERT INTO t VALUES ({k}, {v:?}, {b})"))
            .unwrap();
    }
    db
}

fn random_rows(
    rng: &mut Rng,
    max_k: i64,
    span: f64,
    min: usize,
    max: usize,
) -> Vec<(i64, f64, bool)> {
    let n = min + rng.below((max - min) as u64 + 1) as usize;
    (0..n)
        .map(|_| (rng.int(0, max_k), rng.float(-span, span), rng.bool()))
        .collect()
}

/// count / sum / min / max via SQL equal the straightforward fold.
#[test]
fn aggregates_match_oracle() {
    let mut rng = Rng::new(0xA66);
    for _ in 0..100 {
        let vals = random_rows(&mut rng, 5, 100.0, 1, 49);
        let db = load(&vals);
        let rs = db
            .query("SELECT count(*), sum(v), min(v), max(v), avg(v) FROM t")
            .unwrap();
        let row = &rs.rows()[0];
        assert_eq!(&row[0], &Value::Int(vals.len() as i64));
        let sum: f64 = vals.iter().map(|x| x.1).sum();
        let min = vals.iter().map(|x| x.1).fold(f64::INFINITY, f64::min);
        let max = vals.iter().map(|x| x.1).fold(f64::NEG_INFINITY, f64::max);
        let avg = sum / vals.len() as f64;
        let get = |v: &Value| v.as_f64().unwrap();
        assert!((get(&row[1]) - sum).abs() < 1e-6);
        assert!((get(&row[2]) - min).abs() < 1e-12);
        assert!((get(&row[3]) - max).abs() < 1e-12);
        assert!((get(&row[4]) - avg).abs() < 1e-6);
    }
}

/// GROUP BY partitions the rows: per-group counts sum to the total, and
/// each group's count matches the oracle.
#[test]
fn group_by_partitions() {
    let mut rng = Rng::new(0x9B0);
    for _ in 0..100 {
        let vals = random_rows(&mut rng, 4, 10.0, 1, 59);
        let db = load(&vals);
        let rs = db
            .query("SELECT k, count(*) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        let mut total = 0i64;
        for row in rs.rows() {
            let k = row[0].as_i64().unwrap();
            let c = row[1].as_i64().unwrap();
            let expect = vals.iter().filter(|x| x.0 == k).count() as i64;
            assert_eq!(c, expect);
            total += c;
        }
        assert_eq!(total, vals.len() as i64);
    }
}

/// WHERE filtering equals the oracle predicate.
#[test]
fn where_filter_matches() {
    let mut rng = Rng::new(0xF17);
    for _ in 0..100 {
        let vals = random_rows(&mut rng, 10, 10.0, 0, 49);
        let threshold = rng.int(-10, 10);
        let db = load(&vals);
        let rs = db
            .query(&format!(
                "SELECT count(*) FROM t WHERE k >= {threshold} AND flag = TRUE"
            ))
            .unwrap();
        let expect = vals.iter().filter(|x| x.0 >= threshold && x.2).count() as i64;
        assert_eq!(&rs.rows()[0][0], &Value::Int(expect));
    }
}

/// ORDER BY yields a sorted column; LIMIT never yields more rows than
/// asked for; DISTINCT never yields duplicates.
#[test]
fn order_limit_distinct() {
    let mut rng = Rng::new(0x0DD);
    for _ in 0..100 {
        let vals = random_rows(&mut rng, 6, 10.0, 0, 39);
        let limit = rng.below(20) as usize;
        let db = load(&vals);
        let rs = db
            .query(&format!("SELECT v FROM t ORDER BY v LIMIT {limit}"))
            .unwrap();
        assert!(rs.len() <= limit);
        let col: Vec<f64> = rs.rows().iter().map(|r| r[0].as_f64().unwrap()).collect();
        assert!(col.windows(2).all(|w| w[0] <= w[1]));

        let rs = db.query("SELECT DISTINCT k FROM t").unwrap();
        let mut ks: Vec<i64> = rs.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        let n = ks.len();
        ks.sort_unstable();
        ks.dedup();
        assert_eq!(n, ks.len());
    }
}

/// DELETE removes exactly the matching rows.
#[test]
fn delete_matches_oracle() {
    let mut rng = Rng::new(0xDE1);
    for _ in 0..100 {
        let vals = random_rows(&mut rng, 5, 10.0, 0, 39);
        let cut = rng.int(0, 5);
        let db = load(&vals);
        let removed = db
            .execute(&format!("DELETE FROM t WHERE k = {cut}"))
            .unwrap();
        let expect_removed = vals.iter().filter(|x| x.0 == cut).count();
        assert_eq!(removed, expect_removed);
        assert_eq!(db.row_count("t").unwrap(), vals.len() - expect_removed);
    }
}

/// Text round-trips through SQL string literals unharmed (including
/// embedded quotes).
#[test]
fn text_roundtrip() {
    let mut rng = Rng::new(0x7E7);
    for _ in 0..200 {
        let s = rng.printable(30);
        let db = Engine::new();
        db.execute("CREATE TABLE s (x TEXT)").unwrap();
        let quoted = s.replace('\'', "''");
        db.execute(&format!("INSERT INTO s VALUES ('{quoted}')"))
            .unwrap();
        let rs = db.query("SELECT x FROM s").unwrap();
        assert_eq!(&rs.rows()[0][0], &Value::Text(s));
    }
}

/// Is `key` inside the `[lo, hi]` window under [`ValueKey`]'s total order?
/// Oracle for `Table::range_lookup`.
fn in_window(key: &ValueKey, lo: &Bound<ValueKey>, hi: &Bound<ValueKey>) -> bool {
    use std::cmp::Ordering;
    let lo_ok = match lo {
        Bound::Unbounded => true,
        Bound::Included(b) => key.cmp(b) != Ordering::Less,
        Bound::Excluded(b) => key.cmp(b) == Ordering::Greater,
    };
    let hi_ok = match hi {
        Bound::Unbounded => true,
        Bound::Included(b) => key.cmp(b) != Ordering::Greater,
        Bound::Excluded(b) => key.cmp(b) == Ordering::Less,
    };
    lo_ok && hi_ok
}

/// Row positions whose `column` key equals / falls inside the probe, by
/// brute-force scan over the `Vec<Row>` model. NULL keys never match (not
/// indexed).
fn scan_eq(rows: &[Vec<Value>], column: usize, key: &ValueKey) -> Vec<usize> {
    rows.iter()
        .enumerate()
        .filter(|(_, r)| {
            let k = ValueKey::of(&r[column]);
            !k.is_null() && k == *key
        })
        .map(|(i, _)| i)
        .collect()
}

fn scan_range(
    rows: &[Vec<Value>],
    column: usize,
    lo: &Bound<ValueKey>,
    hi: &Bound<ValueKey>,
) -> Vec<usize> {
    rows.iter()
        .enumerate()
        .filter(|(_, r)| {
            let k = ValueKey::of(&r[column]);
            !k.is_null() && in_window(&k, lo, hi)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Incremental index maintenance under interleaved random insert / delete /
/// update batches: after every mutation, the table holds the rows of an
/// in-test `Vec<Row>` model put through the same mutations, and each point
/// probe and range probe returns the positions a full scan of the model
/// finds.
///
/// Columns: `k` ordered int index (duplicate-heavy), `v` ordered float index
/// (occasional NaN / NULL), `s` hash index (small alphabet).
#[test]
fn index_maintenance_matches_full_scan() {
    let mut rng = Rng::new(0x1DE7);
    for _case in 0..15 {
        let mut t = Table::new(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Float),
                Column::new("s", DataType::Text),
            ])
            .unwrap(),
        );
        t.create_index("ix_k", "k", true).unwrap();
        // Start `v` as a hash index and upgrade mid-run below.
        t.create_index("ix_v", "v", false).unwrap();
        t.create_index("ix_s", "s", false).unwrap();
        let mut model: Vec<Vec<Value>> = Vec::new();
        // Positions of the model rows matching `pred` — the selection step.
        let select = |model: &[Vec<Value>], pred: &dyn Fn(&[Value]) -> bool| -> Vec<usize> {
            (0..model.len()).filter(|&p| pred(&model[p])).collect()
        };

        fn mk_row(rng: &mut Rng) -> Vec<Value> {
            let k = Value::Int(rng.int(0, 12));
            let v = match rng.below(12) {
                0 => Value::Null,
                1 => Value::Float(f64::NAN),
                2 => Value::Float(-0.0),
                _ => Value::Float(rng.float(-50.0, 50.0)),
            };
            let s = if rng.below(10) == 0 {
                Value::Null
            } else {
                let len = 1 + rng.below(2) as usize;
                Value::Text(rng.string_from(b"abc", len))
            };
            vec![k, v, s]
        }

        for step in 0..40 {
            if step == 20 {
                // Upgrade the hash index on `v` to ordered, in place.
                t.create_index("ix_v_again", "v", true).unwrap();
                assert!(t.has_ordered_index_on(1));
            }
            match rng.below(4) {
                // Insert a batch (insert_all: the atomic path).
                0 | 1 => {
                    let batch: Vec<Vec<Value>> =
                        (0..1 + rng.below(8)).map(|_| mk_row(&mut rng)).collect();
                    let n = batch.len();
                    model.extend(batch.iter().cloned());
                    assert_eq!(t.insert_all(batch).unwrap(), n);
                }
                // Delete rows matching a random predicate.
                2 => {
                    let cut = rng.int(0, 12);
                    let by_k = rng.bool();
                    let thr = rng.float(-50.0, 50.0);
                    let doomed = |r: &[Value]| {
                        if by_k {
                            r[0] == Value::Int(cut)
                        } else {
                            matches!(r[1], Value::Float(f) if f < thr)
                        }
                    };
                    let at = select(&model, &doomed);
                    assert_eq!(t.delete_positions(&at), at.len());
                    model.retain(|r| !doomed(r));
                }
                // Update: rewrite indexed columns of matching rows.
                _ => {
                    let target = rng.int(0, 12);
                    let newk = rng.int(0, 12);
                    let newv = if rng.below(8) == 0 {
                        f64::NAN
                    } else {
                        rng.float(-50.0, 50.0)
                    };
                    let at = select(&model, &|r| r[0] == Value::Int(target));
                    let new = vec![
                        Value::Int(newk),
                        Value::Float(newv),
                        Value::Text("z".into()),
                    ];
                    for &p in &at {
                        model[p] = new.clone();
                    }
                    let n = t.update_positions(&at, &[0, 1, 2], vec![new; at.len()]);
                    assert_eq!(n.unwrap(), at.len());
                }
            }

            assert_eq!(t.to_rows(), model, "rows after step {step}");
            // Point probes: every live key, plus probes that should miss.
            for col in [0usize, 1, 2] {
                let mut keys: Vec<ValueKey> = model
                    .iter()
                    .map(|r| ValueKey::of(&r[col]))
                    .filter(|k| !k.is_null())
                    .collect();
                keys.sort();
                keys.dedup();
                for key in &keys {
                    assert_eq!(
                        t.index_lookup(col, key).unwrap(),
                        scan_eq(&model, col, key).as_slice(),
                        "col {col} key {key:?} after step {step}",
                    );
                }
                assert_eq!(
                    t.index_lookup(col, &ValueKey::of(&Value::Null)).unwrap(),
                    &[] as &[usize]
                );
            }
            assert_eq!(
                t.index_lookup(0, &ValueKey::of(&Value::Int(999))).unwrap(),
                &[] as &[usize]
            );

            // Range probes on the ordered int index (and the float index
            // once upgraded), random bound kinds, inverted bounds included.
            for _ in 0..6 {
                let (col, a, b) = if rng.bool() || step < 20 {
                    let a = ValueKey::of(&Value::Int(rng.int(-2, 14)));
                    let b = ValueKey::of(&Value::Int(rng.int(-2, 14)));
                    (0usize, a, b)
                } else {
                    let a = ValueKey::of(&Value::Float(rng.float(-60.0, 60.0)));
                    let b = ValueKey::of(&Value::Float(if rng.below(8) == 0 {
                        f64::NAN
                    } else {
                        rng.float(-60.0, 60.0)
                    }));
                    (1usize, a, b)
                };
                let mk = |rng: &mut Rng, k: ValueKey| match rng.below(3) {
                    0 => Bound::Included(k),
                    1 => Bound::Excluded(k),
                    _ => Bound::Unbounded,
                };
                let lo = mk(&mut rng, a);
                let hi = mk(&mut rng, b);
                let got = t
                    .range_lookup(col, as_bound_ref(&lo), as_bound_ref(&hi))
                    .expect("ordered index present");
                assert_eq!(
                    got,
                    scan_range(&model, col, &lo, &hi),
                    "range {lo:?}..{hi:?} step {step}"
                );
            }
        }
    }
}

fn as_bound_ref(b: &Bound<ValueKey>) -> Bound<&ValueKey> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// The SQL planner's index paths (`=`, `IN`, ranges over an ordered index)
/// return the same result sets as the same queries against an unindexed
/// copy of the data.
#[test]
fn planned_queries_match_unindexed_copy() {
    let mut rng = Rng::new(0x9A7E);
    for _case in 0..10 {
        let indexed = Engine::new();
        let plain = Engine::new();
        for db in [&indexed, &plain] {
            db.execute("CREATE TABLE t (k INTEGER, v FLOAT, s TEXT)")
                .unwrap();
        }
        indexed
            .execute("CREATE ORDERED INDEX ix_k ON t (k)")
            .unwrap();
        indexed.execute("CREATE INDEX ix_s ON t (s)").unwrap();
        for _ in 0..rng.below(120) + 20 {
            let k = rng.int(0, 25);
            let v = rng.float(-10.0, 10.0);
            let s = rng.string_from(b"abcd", 1);
            let stmt = format!("INSERT INTO t VALUES ({k}, {v:?}, '{s}')");
            indexed.execute(&stmt).unwrap();
            plain.execute(&stmt).unwrap();
        }
        let a = rng.int(0, 25);
        let b = rng.int(0, 25);
        let queries = [
            format!("SELECT k, v, s FROM t WHERE k = {a} ORDER BY v, s"),
            format!("SELECT k, s FROM t WHERE k IN ({a}, {b}, 99) ORDER BY k, s"),
            format!(
                "SELECT k FROM t WHERE k >= {} AND k < {} ORDER BY k",
                a.min(b),
                a.max(b)
            ),
            format!(
                "SELECT k FROM t WHERE k >= {} AND k <= {} ORDER BY k",
                a.min(b),
                a.max(b)
            ),
            format!("SELECT count(*) FROM t WHERE k > {a} AND s IN ('a', 'b')"),
            format!(
                "SELECT k FROM t WHERE k > {} AND k < {} ORDER BY k",
                a.max(b),
                a.min(b)
            ),
        ];
        for q in &queries {
            let want = plain.query(q).unwrap();
            let got = indexed.query(q).unwrap();
            assert_eq!(got.rows(), want.rows(), "{q}");
        }
        // Mutate through SQL, then re-check a probe query.
        for db in [&indexed, &plain] {
            db.execute(&format!("DELETE FROM t WHERE k = {a}")).unwrap();
            db.execute(&format!("UPDATE t SET k = {b} WHERE v < 0.0"))
                .unwrap();
        }
        let q = format!("SELECT k, v, s FROM t WHERE k IN ({a}, {b}) ORDER BY k, v, s");
        assert_eq!(
            indexed.query(&q).unwrap().rows(),
            plain.query(&q).unwrap().rows()
        );
    }
}

/// SQL `UPDATE` and `DELETE` find their rows through the selection step
/// SELECT uses. Statements whose WHERE clause is index-served, vectorizable
/// over a full scan, or left to the scalar filter (`OR`, expressions) each
/// leave the table — rows, affected-row count and both indexes — equal to
/// a `Vec<Row>` model put through the same change.
#[test]
fn sql_update_delete_match_row_model() {
    let mut rng = Rng::new(0x5E1);
    for _case in 0..10 {
        let db = Engine::new();
        db.execute("CREATE TABLE t (k INTEGER, v FLOAT, s TEXT)")
            .unwrap();
        db.execute("CREATE ORDERED INDEX ix_k ON t (k)").unwrap();
        db.execute("CREATE INDEX ix_s ON t (s)").unwrap();
        let mut model: Vec<Vec<Value>> = (0..60 + rng.below(120))
            .map(|_| {
                let k = if rng.below(12) == 0 {
                    Value::Null
                } else {
                    Value::Int(rng.int(0, 12))
                };
                let v = match rng.below(12) {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    _ => Value::Float(rng.float(-50.0, 50.0)),
                };
                vec![k, v, Value::Text(rng.string_from(b"abc", 1))]
            })
            .collect();
        db.insert_rows("t", model.clone()).unwrap();

        for step in 0..12 {
            let a = rng.int(0, 12);
            let b = rng.int(0, 12);
            let thr = rng.float(-50.0, 50.0);
            let int = |v: &Value| v.as_i64().filter(|_| !v.is_null());
            let float = |v: &Value| v.as_f64().filter(|_| !v.is_null());
            // (statement, matching rows of the model, the change or None
            // for DELETE).
            type Pred<'a> = Box<dyn Fn(&[Value]) -> bool + 'a>;
            type Change<'a> = Box<dyn Fn(&mut Vec<Value>) + 'a>;
            let (sql, hit, change): (String, Pred, Option<Change>) = match step % 6 {
                // Index-served.
                0 => (
                    format!("DELETE FROM t WHERE k = {a}"),
                    Box::new(|r| int(&r[0]) == Some(a)),
                    None,
                ),
                3 => (
                    format!("UPDATE t SET k = {b}, s = 'z' WHERE k IN ({a}, {})", a + 1),
                    Box::new(|r| int(&r[0]).is_some_and(|k| k == a || k == a + 1)),
                    Some(Box::new(|r| {
                        r[0] = Value::Int(b);
                        r[2] = Value::Text("z".into());
                    })),
                ),
                // Vectorizable full scan.
                1 => (
                    format!("DELETE FROM t WHERE v < {thr:?} AND s <> 'b'"),
                    Box::new(|r| {
                        float(&r[1]).is_some_and(|v| v < thr) && r[2] != Value::Text("b".into())
                    }),
                    None,
                ),
                4 => (
                    format!("UPDATE t SET s = 'big', k = NULL WHERE v >= {thr:?}"),
                    // NaN sorts above every number.
                    Box::new(|r| float(&r[1]).is_some_and(|v| v >= thr || v.is_nan())),
                    Some(Box::new(|r| {
                        r[2] = Value::Text("big".into());
                        r[0] = Value::Null;
                    })),
                ),
                // Scalar-filter fallback: OR, expressions over columns.
                2 => (
                    format!("DELETE FROM t WHERE k = {a} OR v > {thr:?}"),
                    Box::new(|r| {
                        int(&r[0]) == Some(a) || float(&r[1]).is_some_and(|v| v > thr || v.is_nan())
                    }),
                    None,
                ),
                _ => (
                    format!("UPDATE t SET k = k + 1, v = v * 2.0 WHERE k + 1 > {a}"),
                    Box::new(|r| int(&r[0]).is_some_and(|k| k + 1 > a)),
                    Some(Box::new(|r| {
                        r[0] = Value::Int(int(&r[0]).unwrap() + 1);
                        r[1] = float(&r[1]).map_or(Value::Null, |v| Value::Float(v * 2.0));
                    })),
                ),
            };
            let affected = model.iter().filter(|r| hit(r)).count();
            match &change {
                None => model.retain(|r| !hit(r)),
                Some(f) => model.iter_mut().filter(|r| hit(r)).for_each(f),
            }
            assert_eq!(db.execute(&sql).unwrap(), affected, "{sql}");

            let t = db.pin_table("t").unwrap();
            assert_eq!(
                format!("{:?}", t.to_rows()),
                format!("{model:?}"),
                "rows after {sql}"
            );
            for col in [0usize, 2] {
                let mut keys: Vec<ValueKey> = model
                    .iter()
                    .map(|r| ValueKey::of(&r[col]))
                    .filter(|k| !k.is_null())
                    .collect();
                keys.push(ValueKey::of(&Value::Int(a)));
                keys.push(ValueKey::of(&Value::Text("z".into())));
                keys.sort();
                keys.dedup();
                for key in &keys {
                    assert_eq!(
                        t.index_lookup(col, key).unwrap(),
                        scan_eq(&model, col, key).as_slice(),
                        "col {col} key {key:?} after {sql}",
                    );
                }
            }
            let (lo, hi) = (
                Bound::Included(ValueKey::of(&Value::Int(a.min(b)))),
                Bound::Excluded(ValueKey::of(&Value::Int(a.max(b)))),
            );
            assert_eq!(
                t.range_lookup(0, as_bound_ref(&lo), as_bound_ref(&hi))
                    .unwrap(),
                scan_range(&model, 0, &lo, &hi),
                "range after {sql}"
            );
        }
    }
}

/// Every query in the corpus returns byte-identical results from the
/// optimized pipeline and the reference executor — including NULLs, NaN
/// and -0.0 payloads, dictionary-encoded text, aggregate outputs, and
/// queries that fall off the vectorized path (OR predicates, expression
/// projections). Results are compared through their debug rendering, which
/// distinguishes Int from Float and -0.0 from 0.0 and treats two NaNs as
/// equal text — stricter than `Value`'s `==` for this purpose. The same
/// rendering must survive a dump round trip.
#[test]
fn columnar_copy_matches_row_store() {
    let mut rng = Rng::new(0xC01);
    for _case in 0..12 {
        let db = Engine::new();
        db.execute("CREATE TABLE t (k INTEGER, v FLOAT, s TEXT, ok BOOLEAN)")
            .unwrap();

        let n = 40 + rng.below(260);
        let data: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                let k = if rng.below(12) == 0 {
                    Value::Null
                } else {
                    Value::Int(rng.int(-5, 20))
                };
                let v = match rng.below(12) {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 => Value::Float(-0.0),
                    _ => Value::Float(rng.float(-100.0, 100.0)),
                };
                let s = if rng.below(8) == 0 {
                    Value::Null
                } else {
                    let len = 1 + rng.below(2) as usize;
                    Value::Text(rng.string_from(b"abc", len))
                };
                let ok = if rng.below(12) == 0 {
                    Value::Null
                } else {
                    Value::Bool(rng.bool())
                };
                vec![k, v, s, ok]
            })
            .collect();
        db.insert_rows("t", data).unwrap();

        let a = rng.int(-5, 20);
        let thr = rng.float(-100.0, 100.0);
        let corpus = [
            "SELECT * FROM t".to_string(),
            format!("SELECT count(*), sum(v), min(v), max(v), avg(v) FROM t WHERE k >= {a}"),
            "SELECT s, count(*), avg(v) FROM t GROUP BY s ORDER BY s".to_string(),
            format!("SELECT k, count(*) FROM t WHERE v > {thr:?} GROUP BY k ORDER BY k"),
            format!("SELECT k, v FROM t WHERE s = 'a' AND v <= {thr:?}"),
            "SELECT k FROM t WHERE s IN ('a', 'b', 'zz')".to_string(),
            "SELECT k FROM t WHERE s NOT IN ('a', 'ca')".to_string(),
            "SELECT k FROM t WHERE s LIKE 'a%'".to_string(),
            "SELECT k FROM t WHERE s IS NULL".to_string(),
            "SELECT k, v FROM t WHERE v IS NOT NULL AND ok = TRUE".to_string(),
            format!("SELECT k + 1, v * 2.0 FROM t WHERE k > {a}"),
            "SELECT DISTINCT s FROM t ORDER BY s".to_string(),
            format!("SELECT k, v FROM t WHERE k = {a} OR v < {thr:?}"),
            "SELECT min(s), max(s) FROM t".to_string(),
            "SELECT k, v FROM t ORDER BY v DESC LIMIT 7".to_string(),
            format!("SELECT ok, count(*), sum(k) FROM t WHERE v <> {thr:?} GROUP BY ok"),
        ];
        let check = |tag: &str| {
            let restored = Engine::from_sql_dump(&db.dump_sql()).unwrap();
            for q in &corpus {
                let render = |rs: Result<sqldb::ResultSet, sqldb::DbError>| {
                    let rs = rs.unwrap_or_else(|e| panic!("{tag}: {q}: {e:?}"));
                    format!("{:?}", rs.rows())
                };
                let want = render(db.query_reference(q));
                assert_eq!(render(db.query(q)), want, "{tag}: {q}");
                assert_eq!(render(restored.query(q)), want, "{tag} restored: {q}");
            }
        };
        check("fresh");

        // Mutations keep the two pipelines (and the dump) equivalent.
        db.execute(&format!("DELETE FROM t WHERE k = {a}")).unwrap();
        db.execute(&format!(
            "UPDATE t SET s = 'mut', v = 1.5 WHERE v > {thr:?}"
        ))
        .unwrap();
        check("mutated");
    }
}

/// The SQL parser never panics on arbitrary input.
#[test]
fn parser_total() {
    let mut rng = Rng::new(0x90F);
    let db = Engine::new();
    for _ in 0..500 {
        let junk = rng.printable(64);
        let _ = db.execute(&junk);
        let _ = db.query(&junk);
    }
}
