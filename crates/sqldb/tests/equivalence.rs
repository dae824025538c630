//! Equivalence between the optimized pipeline (`Engine::query`: compiled
//! expressions, streaming scans, index point lookups, hash joins, parallel
//! segments) and the reference pipeline (`Engine::query_reference`:
//! snapshots, interpreted evaluation, nested-loop joins).
//!
//! Both must return byte-identical result sets — same rows, same order —
//! for every query the engine accepts. Tables stay below the parallel-scan
//! threshold except in the dedicated large-table tests, so comparisons are
//! exact (parallel float aggregation may differ in the last ulp).

mod common;

use common::Rng;
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
    let reference: Result<ResultSet, _> = e.query_reference(sql);
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
    let b = e.query_reference(sql).unwrap();
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
