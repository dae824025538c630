//! Equivalence between the optimized pipeline (`Engine::query`: compiled
//! expressions, column-at-a-time scans, index lookups, hash joins, one
//! grouping) and the oracle (`common::oracle`: tables as rows, interpreted
//! evaluation, nested-loop joins, groups as lists of rows), which shares no
//! executor code with it.
//!
//! Both must return byte-identical result sets — same rows, same order —
//! for every query the engine accepts, and the same error for every query
//! it refuses.

mod common;

use common::{oracle, Rng};
use sqldb::{Engine, ResultSet, Value};

const FS_NAMES: [&str; 4] = ["ufs", "nfs", "pvfs", "unknown"];

/// Index setup for the randomized `runs` table.
#[derive(Clone, Copy, PartialEq)]
enum Ix {
    None,
    Hash,
    Ordered,
}

/// Engine with a randomized `runs` table (and an index on `run_index` per
/// `ix`), plus a small `hosts` table for joins.
fn random_engine(rng: &mut Rng, rows: usize, ix: Ix) -> Engine {
    let e = Engine::new();
    e.execute("CREATE TABLE runs (run_index INTEGER, fs TEXT, nodes INTEGER, bw FLOAT)")
        .unwrap();
    let mut data = Vec::with_capacity(rows);
    for _ in 0..rows {
        let null_slot = rng.below(8); // sprinkle NULLs across all columns
        data.push(vec![
            if null_slot == 0 {
                Value::Null
            } else {
                Value::Int(rng.int(0, 20))
            },
            if null_slot == 1 {
                Value::Null
            } else {
                Value::Text(FS_NAMES[rng.below(4) as usize].to_string())
            },
            if null_slot == 2 {
                Value::Null
            } else {
                Value::Int(1 << rng.below(5))
            },
            if null_slot == 3 {
                Value::Null
            } else {
                Value::Float(rng.float(0.0, 1000.0))
            },
        ]);
    }
    e.insert_rows("runs", data).unwrap();
    match ix {
        Ix::None => {}
        Ix::Hash => {
            e.execute("CREATE INDEX ix_eq_run_index ON runs (run_index)")
                .unwrap();
        }
        Ix::Ordered => {
            e.execute("CREATE ORDERED INDEX ix_eq_run_index ON runs (run_index)")
                .unwrap();
        }
    }
    e.execute("CREATE TABLE hosts (node_id INTEGER, rack TEXT)")
        .unwrap();
    let hosts: Vec<Vec<Value>> = (0..6)
        .map(|i| vec![Value::Int(1 << i), Value::Text(format!("rack{}", i % 3))])
        .collect();
    e.insert_rows("hosts", hosts).unwrap();
    e
}

fn assert_equivalent(e: &Engine, sql: &str) {
    let optimized: Result<ResultSet, _> = e.query(sql);
    let reference: Result<ResultSet, _> = oracle::query(e, sql);
    match (optimized, reference) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "result mismatch on: {sql}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "error mismatch on: {sql}"),
        (a, b) => panic!("outcome mismatch on {sql}: optimized={a:?} reference={b:?}"),
    }
}

/// Query shapes covering every optimized code path: point lookups,
/// compiled filters, projections, fast and general aggregation, DISTINCT,
/// ORDER BY, LIMIT.
fn query_corpus(rng: &mut Rng) -> Vec<String> {
    let k = rng.int(0, 20);
    let b = rng.float(0.0, 1000.0);
    vec![
        format!("SELECT * FROM runs WHERE run_index = {k}"),
        format!("SELECT * FROM runs WHERE {k} = run_index"),
        format!("SELECT fs, bw FROM runs WHERE run_index = {k} AND bw > {b:.3}"),
        format!("SELECT * FROM runs WHERE run_index = {k} OR bw > {b:.3}"),
        format!("SELECT count(*), avg(bw), min(bw), max(bw) FROM runs WHERE run_index = {k}"),
        format!("SELECT run_index, bw * 2 + 1 FROM runs WHERE bw > {b:.3} ORDER BY 2 DESC"),
        "SELECT fs, count(*), sum(bw) FROM runs GROUP BY fs ORDER BY fs".to_string(),
        "SELECT fs, nodes, avg(bw) FROM runs GROUP BY fs, nodes ORDER BY fs, nodes".to_string(),
        format!("SELECT fs, avg(bw) + 1 FROM runs WHERE nodes >= 4 GROUP BY fs ORDER BY fs"),
        "SELECT DISTINCT fs, nodes FROM runs ORDER BY fs, nodes LIMIT 7".to_string(),
        "SELECT DISTINCT bw FROM runs".to_string(),
        format!("SELECT upper(fs), abs(bw - {b:.3}) FROM runs WHERE fs IS NOT NULL LIMIT 11"),
        "SELECT * FROM runs WHERE fs LIKE 'u%' ORDER BY run_index, bw".to_string(),
        format!("SELECT * FROM runs WHERE nodes IN (1, 4, 16) AND run_index <> {k}"),
        "SELECT count(*) FROM runs WHERE fs = 'ufs' AND NOT (nodes = 2)".to_string(),
        "SELECT stddev(bw), variance(bw), median(bw) FROM runs".to_string(),
        format!("SELECT run_index FROM runs WHERE run_index = {k} LIMIT 2"),
        "SELECT run_index + nodes FROM runs WHERE bw IS NULL".to_string(),
        // IN lists and range conjuncts: served by the ordered index when one
        // exists, by the compiled scan otherwise — results must not differ.
        format!(
            "SELECT * FROM runs WHERE run_index IN ({k}, {}, 99)",
            rng.int(0, 20)
        ),
        format!("SELECT * FROM runs WHERE run_index IN ({k}, {k}, NULL)"),
        format!("SELECT count(*) FROM runs WHERE run_index NOT IN ({k}, 3)"),
        format!(
            "SELECT * FROM runs WHERE run_index >= {} AND run_index < {}",
            k / 2,
            k + 4
        ),
        format!("SELECT * FROM runs WHERE {k} > run_index"),
        format!("SELECT fs, sum(bw) FROM runs WHERE run_index > {k} GROUP BY fs ORDER BY fs"),
        format!(
            "SELECT * FROM runs WHERE run_index > {} AND run_index < {}",
            k + 4,
            k / 2
        ),
        format!("SELECT * FROM runs WHERE run_index <= {k} AND bw > {b:.3}"),
        "SELECT * FROM runs WHERE run_index < NULL".to_string(),
        "SELECT * FROM runs WHERE run_index < 'text'".to_string(),
    ]
}

#[test]
fn randomized_single_table_equivalence() {
    let mut rng = Rng::new(0xE051);
    for round in 0..24 {
        let rows = rng.int(0, 120) as usize;
        let ix = [Ix::None, Ix::Hash, Ix::Ordered][round % 3];
        let e = random_engine(&mut rng, rows, ix);
        for sql in query_corpus(&mut rng) {
            assert_equivalent(&e, &sql);
        }
    }
}

#[test]
fn join_equivalence_both_build_sides() {
    let mut rng = Rng::new(0x0101);
    // runs larger than hosts → build on hosts; reversed FROM order → build
    // flips to the accumulated side. Both must match the nested loop.
    for rows in [0, 1, 5, 40, 200] {
        let e = random_engine(&mut rng, rows, Ix::None);
        for sql in [
            "SELECT runs.fs, hosts.rack FROM runs JOIN hosts ON runs.nodes = hosts.node_id",
            "SELECT hosts.rack, runs.bw FROM hosts JOIN runs ON hosts.node_id = runs.nodes",
            "SELECT hosts.rack, count(*), avg(runs.bw) FROM runs \
             JOIN hosts ON runs.nodes = hosts.node_id GROUP BY hosts.rack ORDER BY hosts.rack",
            "SELECT DISTINCT hosts.rack FROM runs JOIN hosts ON runs.nodes = hosts.node_id",
        ] {
            assert_equivalent(&e, sql);
        }
    }
}

#[test]
fn index_maintenance_keeps_equivalence_through_mutations() {
    let mut rng = Rng::new(0x0DE1);
    let e = random_engine(&mut rng, 60, Ix::Ordered);
    let probes = |e: &Engine| {
        for k in [0, 3, 7, 19, 99] {
            assert_equivalent(e, &format!("SELECT * FROM runs WHERE run_index = {k}"));
            assert_equivalent(
                e,
                &format!("SELECT count(*), sum(bw) FROM runs WHERE run_index = {k}"),
            );
            assert_equivalent(
                e,
                &format!("SELECT * FROM runs WHERE run_index IN ({k}, 5)"),
            );
            assert_equivalent(
                e,
                &format!(
                    "SELECT * FROM runs WHERE run_index >= {k} AND run_index < {}",
                    k + 6
                ),
            );
        }
        assert_equivalent(e, "SELECT * FROM runs WHERE run_index = NULL");
        assert_equivalent(e, "SELECT * FROM runs WHERE run_index = 'text'");
        assert_equivalent(
            e,
            "SELECT * FROM runs WHERE run_index > 10 AND run_index < 3",
        );
    };
    probes(&e);
    // INSERT, including NULL keys.
    e.execute("INSERT INTO runs VALUES (3, 'ufs', 4, 1.5), (NULL, 'nfs', 2, 2.5)")
        .unwrap();
    probes(&e);
    // DELETE shifts row positions under the index.
    e.execute("DELETE FROM runs WHERE nodes = 4").unwrap();
    probes(&e);
    // UPDATE rewrites indexed keys (including to NULL).
    e.execute("UPDATE runs SET run_index = 7 WHERE fs = 'pvfs'")
        .unwrap();
    e.execute("UPDATE runs SET run_index = NULL WHERE fs = 'nfs'")
        .unwrap();
    probes(&e);
}

#[test]
fn large_table_scan_is_exact_for_plain_queries() {
    // 10k rows: plain filter/project and min/max/count aggregation are
    // order- and bit-exact against the reference executor.
    let mut rng = Rng::new(0x0B16);
    let e = random_engine(&mut rng, 10_000, Ix::Ordered);
    assert_equivalent(&e, "SELECT run_index, fs, bw FROM runs WHERE bw > 500.0");
    assert_equivalent(
        &e,
        "SELECT * FROM runs WHERE fs = 'ufs' ORDER BY bw DESC LIMIT 20",
    );
    assert_equivalent(
        &e,
        "SELECT count(*), min(bw), max(bw) FROM runs WHERE nodes >= 4",
    );
    assert_equivalent(&e, "SELECT fs, count(*) FROM runs GROUP BY fs ORDER BY fs");
    assert_equivalent(&e, "SELECT * FROM runs WHERE run_index = 13");
    assert_equivalent(&e, "SELECT * FROM runs WHERE run_index IN (2, 13, 17)");
    assert_equivalent(
        &e,
        "SELECT * FROM runs WHERE run_index >= 5 AND run_index <= 9",
    );
}

/// NaN rows under ORDER BY, GROUP BY, and ordered-index range scans: the
/// comparator fix makes NaN a real key that sorts last, groups as one key,
/// and stays consistent between the index path and the filter evaluator.
#[test]
fn nan_rows_are_deterministic_under_sort_group_and_index() {
    let e = Engine::new();
    e.execute("CREATE TABLE t (id INTEGER, x FLOAT)").unwrap();
    let mut rows = Vec::new();
    for i in 0..40 {
        let x = match i % 5 {
            0 => Value::Float(f64::NAN),
            1 => Value::Null,
            _ => Value::Float((i % 7) as f64 - 3.0),
        };
        rows.push(vec![Value::Int(i), x]);
    }
    e.insert_rows("t", rows).unwrap();
    e.execute("CREATE ORDERED INDEX ix_x ON t (x)").unwrap();

    // ORDER BY is deterministic and total: repeated queries agree exactly,
    // ascending is the reverse of descending, and NaN sorts after numbers.
    let asc = e.query("SELECT id, x FROM t ORDER BY x, id").unwrap();
    let asc2 = e.query("SELECT id, x FROM t ORDER BY x, id").unwrap();
    assert_eq!(asc, asc2);
    let desc = e
        .query("SELECT id, x FROM t ORDER BY x DESC, id DESC")
        .unwrap();
    let mut rev = desc.rows().to_vec();
    rev.reverse();
    assert_eq!(asc.rows(), rev.as_slice());
    let xs: Vec<&Value> = asc.rows().iter().map(|r| &r[1]).collect();
    let first_nan = xs
        .iter()
        .position(|v| matches!(v, Value::Float(f) if f.is_nan()))
        .unwrap();
    assert!(
        xs[first_nan..]
            .iter()
            .all(|v| matches!(v, Value::Float(f) if f.is_nan())),
        "NaN rows must sort last: {xs:?}"
    );

    // GROUP BY: all NaN rows collapse into one group with the right count.
    let gs = e
        .query("SELECT x, count(*) FROM t GROUP BY x ORDER BY x")
        .unwrap();
    let nan_groups: Vec<_> = gs
        .rows()
        .iter()
        .filter(|r| matches!(&r[0], Value::Float(f) if f.is_nan()))
        .collect();
    assert_eq!(nan_groups.len(), 1);
    assert_eq!(nan_groups[0][1], Value::Int(8));

    // Ordered-index range scans agree with the reference evaluator even
    // when NaN keys sit at the top of the index.
    assert_equivalent(&e, "SELECT id FROM t WHERE x > 1.0");
    assert_equivalent(&e, "SELECT id FROM t WHERE x >= -3.0 AND x < 2.0");
    assert_equivalent(&e, "SELECT id FROM t WHERE x IN (0.0, 2.0)");
}

#[test]
fn large_table_parallel_float_aggregates_within_tolerance() {
    let mut rng = Rng::new(0xF10A7);
    let e = random_engine(&mut rng, 10_000, Ix::None);
    let sql = "SELECT fs, avg(bw), sum(bw), stddev(bw) FROM runs GROUP BY fs ORDER BY fs";
    let a = e.query(sql).unwrap();
    let b = oracle::query(&e, sql).unwrap();
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.rows().iter().zip(b.rows()) {
        assert_eq!(ra[0], rb[0]);
        for (va, vb) in ra[1..].iter().zip(&rb[1..]) {
            match (va.as_f64(), vb.as_f64()) {
                (Some(x), Some(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() / scale < 1e-9, "{va:?} vs {vb:?} in {sql}");
                }
                _ => assert_eq!(va, vb, "{sql}"),
            }
        }
    }
}

/// Key values where grouping is easy to get wrong: NULL in every column,
/// `0.0`/`-0.0`, `1`/`1.0`, NaN of either sign, integral and non-integral
/// floats and one beyond the `i64` range, integers either side of 2^53 and at
/// the `i64` extremes (a range no direct table spans), a narrow range of
/// small integers with negatives (`n`, one that a direct table spans), and
/// text the dictionary first sees in a later batch.
fn key_row(rng: &mut Rng, batch: usize) -> Vec<Value> {
    const BIG: i64 = 1 << 53;
    let floats = [
        Value::Null,
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(0.5),
        Value::Float(-2.25),
        Value::Float(f64::INFINITY),
        Value::Float(9.3e18),
        Value::Int(BIG + 1),
        Value::Int(-BIG - 1),
    ];
    let ints = [
        Value::Null,
        Value::Int(0),
        Value::Float(1.0),
        Value::Int(1),
        Value::Int(-7),
        Value::Int(BIG - 1),
        Value::Int(BIG),
        Value::Int(BIG + 1),
        Value::Int(-BIG - 1),
        Value::Int(-BIG + 1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
    ];
    let text = match rng.below(4) {
        0 => Value::Null,
        1 => Value::Text(format!("new{batch}_{}", rng.below(3))),
        _ => Value::Text(["ufs", "nfs", "", "it's"][rng.below(4) as usize].into()),
    };
    let v = match rng.below(10) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        _ => Value::Float(rng.int(-4, 40) as f64 / 4.0),
    };
    let b = match rng.below(3) {
        0 => Value::Null,
        n => Value::Bool(n == 1),
    };
    let stamps = [
        Value::Null,
        Value::Int(0),
        Value::Int(BIG),
        Value::Int(BIG + 1),
        Value::Int(-BIG - 1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
    ];
    let t = match rng.below(10) {
        n @ 0..=6 => stamps[n as usize].clone(),
        _ => Value::Int(rng.int(-86_400, 86_400)),
    };
    let n = match rng.below(8) {
        0 => Value::Null,
        _ => Value::Int(rng.int(-3, 4)),
    };
    vec![
        floats[rng.below(floats.len() as u64) as usize].clone(),
        ints[rng.below(ints.len() as u64) as usize].clone(),
        text,
        v,
        b,
        t,
        n,
    ]
}

/// Every aggregate kind over one argument: a column of each type, `*`,
/// and the results Debug-exact against the oracle, errors included.
fn every_kind_over(args: &[&str], select: &str, group: &str) -> Vec<String> {
    const KINDS: [&str; 10] = [
        "count", "sum", "avg", "min", "max", "stddev", "variance", "prod", "first", "median",
    ];
    let mut out = Vec::new();
    for kind in KINDS {
        for arg in args {
            out.push(format!("SELECT {select}{kind}({arg}) FROM g{group}"));
        }
        let calls: Vec<String> = args.iter().map(|arg| format!("{kind}({arg})")).collect();
        out.push(format!("SELECT {select}{} FROM g{group}", calls.join(", ")));
    }
    out
}

/// One grouping for every aggregating statement: over the same keys, the
/// column-at-a-time shape (`k, sum(v)`) and shapes that compute on
/// aggregates or evaluate arguments (`k, sum(v) + 0, max(v * 2)`, `*`) give
/// the oracle's answer — the same groups in the same first-seen order,
/// Debug-exact — and the same error where there is one. The key sets reach
/// every way a key column is coded (TEXT, a narrow and a wide integer range,
/// FLOAT, BOOLEAN, NULL in each) and both ways codes combine: 3 and 4 keys
/// whose code product outgrows a direct table over the later batches.
#[test]
fn one_grouping_for_fast_and_general_aggregation() {
    let mut rng = Rng::new(0x6_0001);
    let e = Engine::new();
    e.execute(
        "CREATE TABLE g (k FLOAT, i INTEGER, s TEXT, v FLOAT, b BOOLEAN, t TIMESTAMP, n INTEGER)",
    )
    .unwrap();
    let debug = |r: &Result<ResultSet, sqldb::DbError>| format!("{r:?}");
    let vectorized = |q: &str| {
        let plan = e.query(&format!("EXPLAIN {q}")).unwrap();
        let plan = format!("{:?}", plan.rows());
        ["full", "partial", "none"]
            .into_iter()
            .find(|how| plan.contains(&format!("vectorized={how}")))
    };
    for batch in 0..6 {
        let rows = (0..rng.below(30)).map(|_| key_row(&mut rng, batch));
        e.insert_rows("g", rows.collect()).unwrap();
        for keys in [
            "",
            "k",
            "i",
            "s",
            "b",
            "t",
            "n",
            "k, s",
            "i, k",
            "n, s",
            "s, i, k",
            "t, b",
            "t, i, v",
            "k, n, t, i",
            "v, t, s, k",
        ] {
            let (select, group) = match keys {
                "" => (String::new(), String::new()),
                keys => (format!("{keys}, "), format!(" GROUP BY {keys}")),
            };
            let fast = format!("SELECT {select}sum(v), count(*), min(v) FROM g{group}");
            let general = format!("SELECT {select}sum(v) + 0, max(v * 2), count(s) FROM g{group}");
            for q in [&fast, &general] {
                let (got, want) = (e.query(q), oracle::query(&e, q));
                assert_eq!(debug(&got), debug(&want), "batch {batch}: {q}");
            }
            // Both shapes see the same groups, in the same order.
            let width = keys.split(", ").filter(|k| !k.is_empty()).count();
            let groups = |q: &str| {
                let rows = e.query(q).unwrap().into_rows();
                let keys = rows.into_iter().map(|r| r[..width].to_vec());
                format!("{:?}", keys.collect::<Vec<_>>())
            };
            assert_eq!(groups(&fast), groups(&general), "batch {batch}: {keys}");
            assert_eq!(vectorized(&fast), Some("full"), "{fast}");
            assert_eq!(vectorized(&general), Some("partial"), "{general}");
            for q in [
                format!(
                    "SELECT *{} FROM g{group}",
                    if keys.is_empty() { ", count(*)" } else { "" }
                ),
                format!("SELECT count(*), {select}first(s) AS f FROM g{group}"),
                format!("SELECT {select}sum(v) FROM g WHERE v > 8.0{group}"),
                format!("SELECT {select}avg(v) FROM g WHERE v > 8.0{group} ORDER BY 1 LIMIT 3"),
                format!("SELECT {select}count(1), count(NULL), sum(2) FROM g{group}"),
                // Errors: non-numeric input, arity, nested aggregates, an
                // unknown column — and none where no group is evaluated.
                format!("SELECT {select}sum(s) FROM g{group}"),
                format!("SELECT {select}sum(v, v) FROM g{group}"),
                format!("SELECT {select}sum(max(v)) FROM g{group}"),
                format!("SELECT {select}zzz, count(*) FROM g{group}"),
                format!("SELECT {select}sum(1 / (v - 2.0)), max(sqrt(v - 5.0)) FROM g{group}"),
                format!("SELECT {select}max(sqrt(v - 5.0)) + sum(1 / (v - 2.0)) FROM g{group}"),
                format!("SELECT {select}zzz FROM g WHERE v > 1e9{group}"),
                format!("SELECT {select}sum(zzz) FROM g WHERE v > 1e9{group}"),
            ]
            .into_iter()
            .chain(every_kind_over(
                &["k", "i", "s", "v", "b", "t", "n", "*"],
                &select,
                &group,
            )) {
                let (got, want) = (e.query(&q), oracle::query(&e, &q));
                assert_eq!(debug(&got), debug(&want), "batch {batch}: {q}");
            }
        }
    }

    // Two integers beyond 2^53 that round to one f64: `min` and `max` tell
    // them apart in either order of arrival (compared as f64, `lo`'s min
    // and `hi`'s max would be the tie's first, the wrong one).
    const BIG: i64 = 1 << 53;
    let e = Engine::new();
    e.execute("CREATE TABLE g (k TEXT, i INTEGER, t TIMESTAMP)")
        .unwrap();
    let rows = [("lo", BIG + 1), ("lo", BIG), ("hi", BIG), ("hi", BIG + 1)];
    let rows = rows.map(|(k, i)| vec![Value::Text(k.into()), Value::Int(i), Value::Int(i)]);
    e.insert_rows("g", rows.to_vec()).unwrap();
    let q = "SELECT k, min(i), max(i), min(t), max(t) FROM g GROUP BY k";
    let (got, want) = (e.query(q), oracle::query(&e, q));
    assert_eq!(debug(&got), debug(&want), "{q}");
    let exact = |k: &str| {
        let (lo, hi) = (Value::Int(BIG), Value::Int(BIG + 1));
        let (tlo, thi) = (Value::Timestamp(BIG), Value::Timestamp(BIG + 1));
        vec![Value::Text(k.into()), lo, hi, tlo, thi]
    };
    assert_eq!(got.unwrap().into_rows(), [exact("lo"), exact("hi")]);
}

/// The oracle shares no executor code: all it takes from `sqldb` is the
/// parser, values, the scalar primitives, `Accumulator` and the tables it
/// reads — so a bug in the executor has no copy on the other side of the
/// comparison.
#[test]
fn the_oracle_shares_no_executor_code() {
    let source = include_str!("common/oracle.rs");
    let allowed = [
        "use sqldb::aggregate::{Accumulator, AggKind};",
        "use sqldb::expr::{binary_values, like_match, negate, scalar_fn, truthy};",
        "use sqldb::sql::{self, SelectItem, SelectStmt, SqlExpr, Stmt, UnOp};",
        "use sqldb::{DbError, Engine, ResultSet, Snapshot, Table, Value, ValueKey};",
    ];
    let uses: Vec<&str> = source
        .lines()
        .filter(|l| l.starts_with("use sqldb"))
        .collect();
    assert_eq!(uses, allowed);
    // Nor does it call the engine's executor through a public door.
    for word in [
        "crate::",
        "exec::",
        "compile",
        ".select(",
        ".query(",
        ".query_at(",
    ] {
        assert!(!source.contains(word), "{word}");
    }
}
