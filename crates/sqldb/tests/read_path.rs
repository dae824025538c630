//! One read path: whichever door a SELECT comes through — SQL text on the
//! live engine, at a snapshot, in a transaction; a statement value over a
//! pinned table or on a cluster node — one function executes it, so it
//! returns the same rows, opens one `query` span, counts as one query, and
//! `EXPLAIN` shows the plan that function ran (DESIGN.md "The read path").
//!
//! The counts come from the program's own counters and spans, which are
//! process-wide: every test of this binary — each one runs queries — holds
//! [`telemetry`].
//!
//! The second half pins joined SELECTs against the reference executor and
//! against `fixtures/read_path/join_corpus.tsv`, written by the build at
//! commit `352842c` (the last with a row-wise join and a second pipeline
//! behind it) by running this file's `join_corpus_*` test there with
//! `BLESS=1`.

mod common;

use common::{select, Rng};
use sqldb::cluster::{Cluster, LatencyModel};
use sqldb::{Engine, ResultSet, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests: they read, or move, process-wide counters and spans.
fn telemetry() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    let all = obs::counters_snapshot();
    all.iter().find(|(n, _)| *n == name).expect("counter").1
}

/// Every `plan.*` and `scan.*` counter, by name.
fn plan_and_scan_counters() -> Vec<(&'static str, u64)> {
    obs::counters_snapshot()
        .into_iter()
        .filter(|(n, _)| n.starts_with("plan.") || n.starts_with("scan."))
        .collect()
}

/// How far each `plan.*` / `scan.*` counter moves over `run`.
fn moved(run: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let before = plan_and_scan_counters();
    run();
    let after = plan_and_scan_counters();
    before
        .iter()
        .zip(&after)
        .map(|(b, a)| (b.0, a.1 - b.1))
        .collect()
}

/// 60 rows; a hash index on `id`, an ordered one on `nodes`.
fn runs(e: &Engine) {
    e.execute("CREATE TABLE runs (id INTEGER NOT NULL, fs TEXT, nodes INTEGER, bw FLOAT)")
        .unwrap();
    let fs = ["ufs", "nfs", "pvfs"];
    let rows: Vec<Vec<Value>> = (0..60i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Text(fs[i as usize % 3].into()),
                Value::Int(1 << (i % 5)),
                Value::Float(i as f64 * 1.5),
            ]
        })
        .collect();
    e.insert_rows("runs", rows).unwrap();
    e.execute("CREATE INDEX ix_id ON runs (id)").unwrap();
    e.execute("CREATE ORDERED INDEX ox_nodes ON runs (nodes)")
        .unwrap();
}

// ---- every door, one function ---------------------------------------------

/// (a) The same statement through each of the five doors: the same rows, one
/// `query` span, one tick of `sql.queries_run`.
#[test]
fn every_door_runs_the_statement_once_and_traces_it_once() {
    let _held = telemetry();
    let cluster = Cluster::new(2, LatencyModel::none());
    let e: Arc<Engine> = cluster.node(1).engine.clone();
    runs(&e);
    let text = "SELECT fs, count(*), avg(bw) FROM runs WHERE nodes >= 2 GROUP BY fs ORDER BY fs";
    let sel = select(text);
    let snapshot = e.snapshot();
    let pinned = e.pin_table("runs").unwrap();
    let mut txn = e.begin_txn();

    type Door<'a> = (&'a str, Box<dyn FnMut() -> ResultSet + 'a>);
    let doors: Vec<Door<'_>> = vec![
        ("Engine::query", Box::new(|| e.query(text).unwrap())),
        (
            "Engine::query_at",
            Box::new(|| e.query_at(&snapshot, text).unwrap()),
        ),
        ("Transaction::query", Box::new(|| txn.query(text).unwrap())),
        ("Table::select", Box::new(|| pinned.select(&sel).unwrap())),
        (
            "Cluster::select",
            Box::new(|| cluster.select(1, 0, "runs", &sel).unwrap()),
        ),
    ];
    let expected = e.query_reference(text).unwrap();
    assert_eq!(expected.len(), 3);
    let traces = obs::TraceCollector::new();
    obs::set_sink(Some(traces.clone()));
    for (door, mut run) in doors {
        let (spans, queries) = (traces.len(), counter("sql.queries_run"));
        let rows = run();
        let opened = traces.records()[spans..]
            .iter()
            .filter(|s| s.name == "query")
            .count();
        assert_eq!(rows, expected, "{door}");
        assert_eq!(opened, 1, "{door}: `query` spans");
        assert_eq!(counter("sql.queries_run") - queries, 1, "{door}");
    }
    obs::set_sink(None);
}

/// (b) `EXPLAIN` plans and runs nothing: no `plan.*` or `scan.*` counter
/// moves. `EXPLAIN ANALYZE` runs the statement once: they move by what the
/// statement alone moves them.
#[test]
fn explain_counts_nothing_and_analyze_counts_one_run() {
    let _held = telemetry();
    let e = Engine::new();
    runs(&e);
    for text in [
        "SELECT bw FROM runs WHERE nodes >= 2 AND nodes < 8 AND bw > 10.0",
        "SELECT * FROM runs WHERE id = 7",
        "SELECT fs FROM runs WHERE id IN (1, 3, 5, 99) AND nodes = 8",
        "SELECT fs, avg(bw) FROM runs GROUP BY fs",
        "SELECT id + 1 FROM runs WHERE fs = 'ufs' OR nodes = 8",
        "SELECT max(nodes), min(nodes) FROM runs",
        "SELECT * FROM runs WHERE id = 'text'",
    ] {
        let plain = moved(|| drop(e.query(text).unwrap()));
        assert!(plain.iter().any(|(_, n)| *n > 0), "{text}: {plain:?}");
        let explained = moved(|| drop(e.query(&format!("EXPLAIN {text}")).unwrap()));
        assert!(
            explained.iter().all(|(_, n)| *n == 0),
            "EXPLAIN {text}: {explained:?}"
        );
        let analyzed = moved(|| drop(e.query(&format!("EXPLAIN ANALYZE {text}")).unwrap()));
        assert_eq!(analyzed, plain, "EXPLAIN ANALYZE {text}");
    }
}

/// (c) A joined SELECT reads every row of its inputs, and says so.
#[test]
fn a_join_accounts_for_the_rows_it_reads() {
    let _held = telemetry();
    let e = Engine::new();
    runs(&e);
    e.execute("CREATE TABLE hosts (nodes INTEGER, rack TEXT)")
        .unwrap();
    e.execute("INSERT INTO hosts VALUES (1, 'r0'), (2, 'r0'), (4, 'r1'), (8, 'r1'), (32, 'r2')")
        .unwrap();
    let (visited, scans) = (counter("scan.rows_visited"), counter("plan.full_scan"));
    let rs = e
        .query(
            "SELECT hosts.rack, count(*) FROM runs JOIN hosts ON runs.nodes = hosts.nodes \
             GROUP BY hosts.rack ORDER BY hosts.rack",
        )
        .unwrap();
    assert_eq!(rs.render_tsv(), "hosts.rack\tcount(*)\nr0\t24\nr1\t24\n");
    assert!(counter("scan.rows_visited") - visited >= 60 + 5);
    assert!(counter("plan.full_scan") - scans >= 1);
}

// ---- joins: the reference executor and the parent build's bytes -----------

/// The tables the join corpus reads: INTEGER keys against FLOAT keys (`1`
/// against `1.0`, `0` against `-0.0`), `-0.0` against `0.0`, TEXT keys, NULLs
/// on both sides of every key, a table larger and one smaller than `a`, and
/// an empty one.
fn join_db(rng: &mut Rng) -> Engine {
    let e = Engine::new();
    e.execute("CREATE TABLE a (k INTEGER, s TEXT, v FLOAT)")
        .unwrap();
    e.execute("CREATE TABLE b (k FLOAT, t TEXT, w INTEGER)")
        .unwrap();
    e.execute("CREATE TABLE c (t TEXT, z FLOAT)").unwrap();
    e.execute("CREATE TABLE f (k FLOAT, u TEXT)").unwrap();
    e.execute("CREATE TABLE big (k INTEGER, tag TEXT)").unwrap();
    e.execute("CREATE TABLE none (k INTEGER, q TEXT)").unwrap();
    let text = |rng: &mut Rng, of: &[&str]| match rng.below(of.len() as u64 + 1) as usize {
        i if i == of.len() => Value::Null,
        i => Value::Text(of[i].into()),
    };
    let a = (0..40)
        .map(|_| {
            let k = match rng.below(10) {
                9 => Value::Null,
                k => Value::Int(k as i64),
            };
            let v = Value::Float((rng.float(-50.0, 50.0) * 4.0).round() / 4.0);
            vec![k, text(rng, &["x", "y", "z"]), v]
        })
        .collect();
    e.insert_rows("a", a).unwrap();
    let b_keys = [0.0, -0.0, 1.0, 2.0, 2.5, 3.0, 7.0];
    let b = (0..25)
        .map(|_| {
            let k = match rng.below(b_keys.len() as u64 + 1) as usize {
                i if i == b_keys.len() => Value::Null,
                i => Value::Float(b_keys[i]),
            };
            vec![
                k,
                text(rng, &["1", "x", "p", "q"]),
                Value::Int(rng.int(-5, 6)),
            ]
        })
        .collect();
    e.insert_rows("b", b).unwrap();
    let c = (0..10)
        .map(|i| {
            vec![
                text(rng, &["x", "y", "p", "1"]),
                Value::Float(i as f64 / 2.0),
            ]
        })
        .collect();
    e.insert_rows("c", c).unwrap();
    e.execute(
        "INSERT INTO f VALUES (0.0, 'plus'), (-0.0, 'minus'), (1.0, 'one'), (NULL, 'null'), \
         (2.5, 'half'), (-0.0, 'minus2')",
    )
    .unwrap();
    let big = (0..120)
        .map(|i| {
            vec![
                Value::Int(rng.int(0, 12)),
                Value::Text(format!("g{}", i % 7)),
            ]
        })
        .collect();
    e.insert_rows("big", big).unwrap();
    e
}

/// Joined statements over [`join_db`]: every key pairing the tables offer,
/// one-to-many, a three-table chain, either side the smaller, empty inputs,
/// and WHERE / GROUP BY / ORDER BY / LIMIT / DISTINCT over qualified and
/// unqualified names — through the vectorised and the scalar filter, the
/// fast and the general aggregation, column and expression projections —
/// plus the statements every executor must refuse alike.
fn join_corpus(rng: &mut Rng) -> Vec<String> {
    let v = format!("{:?}", (rng.float(-20.0, 20.0) * 2.0).round() / 2.0);
    let w = rng.int(-3, 4);
    let k = rng.int(0, 8);
    let fixed = [
        // 1 against 1.0, 0 against -0.0, NULL keys on both sides.
        "SELECT a.k, b.k, a.s, b.t FROM a JOIN b ON a.k = b.k",
        "SELECT * FROM a JOIN b ON b.k = a.k",
        "SELECT count(*) FROM a JOIN b ON k = k",
        // -0.0 against 0.0, FLOAT to FLOAT.
        "SELECT * FROM b JOIN f ON b.k = f.k",
        "SELECT f.u, b.k, f.k FROM f JOIN b ON f.k = b.k",
        "SELECT b.k, count(*), sum(b.w) FROM b JOIN f ON b.k = f.k GROUP BY b.k",
        "SELECT f.k, count(*) FROM b JOIN f ON b.k = f.k GROUP BY f.k ORDER BY 2 DESC, 1",
        // TEXT against number: '1' is not 1.
        "SELECT a.k, c.t FROM a JOIN c ON a.k = c.t",
        "SELECT count(*), max(c.z) FROM c JOIN b ON c.t = b.k",
        // TEXT keys, one-to-many both ways.
        "SELECT a.s, c.z FROM a JOIN c ON a.s = c.t",
        "SELECT c.t, a.v FROM c JOIN a ON c.t = a.s",
        "SELECT s, count(*), avg(z) FROM a JOIN c ON s = c.t GROUP BY s ORDER BY s",
        // A three-table chain, and one hanging both joins off the base.
        "SELECT a.k, b.t, c.z FROM a JOIN b ON a.k = b.k JOIN c ON b.t = c.t",
        "SELECT a.s, b.w, c.z FROM a JOIN b ON a.k = b.k JOIN c ON a.s = c.t ORDER BY 3, 2, 1",
        "SELECT c.t, count(*), sum(a.v) FROM a JOIN b ON a.k = b.k JOIN c ON b.t = c.t \
         GROUP BY c.t ORDER BY c.t",
        "SELECT count(*) FROM a JOIN b ON a.k = b.k JOIN f ON b.k = f.k JOIN big ON big.k = a.k",
        // Either side the smaller.
        "SELECT a.k, big.tag FROM a JOIN big ON a.k = big.k",
        "SELECT big.tag, a.s FROM big JOIN a ON big.k = a.k",
        "SELECT big.tag, count(*), min(a.v), max(a.v) FROM big JOIN a ON big.k = a.k \
         GROUP BY big.tag ORDER BY big.tag",
        "SELECT tag, median(v), stddev(v), first(s) FROM a JOIN big ON a.k = big.k GROUP BY tag",
        // Empty inputs, either side; the global group survives them.
        "SELECT * FROM a JOIN none ON a.k = none.k",
        "SELECT * FROM none JOIN a ON none.k = a.k",
        "SELECT count(*), sum(a.v), max(none.q) FROM a JOIN none ON a.k = none.k",
        "SELECT none.q, count(*) FROM none JOIN a ON none.k = a.k GROUP BY none.q",
        "SELECT a.k FROM a JOIN none ON a.k = none.k JOIN b ON b.k = a.k",
        // DISTINCT, expressions over aggregates and over columns.
        "SELECT DISTINCT b.t FROM a JOIN b ON a.k = b.k ORDER BY b.t",
        "SELECT DISTINCT a.s, b.t FROM a JOIN b ON a.k = b.k",
        "SELECT a.s, sum(b.w) + 1 AS s1, count(*) * 2 FROM a JOIN b ON a.k = b.k GROUP BY a.s",
        "SELECT a.s, b.t, sum(a.v) + 0 FROM a JOIN b ON a.k = b.k GROUP BY a.s, b.t \
         ORDER BY a.s, b.t",
        "SELECT a.v * b.w AS vw, upper(a.s) FROM a JOIN b ON a.k = b.k ORDER BY vw, 2 LIMIT 9",
        "SELECT avg(a.v) * 2, min(b.t) FROM a JOIN b ON a.k = b.k",
        // Refused alike.
        "SELECT * FROM a JOIN b ON a.nope = b.k",
        "SELECT a.nope FROM a JOIN b ON a.k = b.k",
        "SELECT a.k FROM a JOIN b ON a.k = b.k WHERE nope > 1",
        "SELECT count(*) FROM a JOIN b ON a.k = b.k GROUP BY nope",
        "SELECT a.k FROM a JOIN b ON a.k = b.k ORDER BY nope",
        "SELECT a.k FROM a JOIN a ON a.k = a.k",
        "SELECT a.k FROM a JOIN missing ON a.k = missing.k",
        "SELECT a.k FROM missing JOIN a ON a.k = missing.k",
    ];
    let mut corpus: Vec<String> = fixed.iter().map(|s| s.to_string()).collect();
    corpus.extend([
        // WHERE through the vectorised atoms, qualified and not.
        format!("SELECT a.k, a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.v > {v}"),
        format!("SELECT k, v, w FROM a JOIN b ON a.k = b.k WHERE v <= {v} AND w <> {w}"),
        format!("SELECT a.s, b.t FROM a JOIN b ON a.k = b.k WHERE a.s = 'x' AND b.w >= {w}"),
        format!("SELECT a.k FROM a JOIN b ON a.k = b.k WHERE a.k IN ({k}, 1, 99) AND t LIKE '%'"),
        "SELECT a.k, b.t FROM a JOIN b ON a.k = b.k WHERE a.s IS NULL AND b.t IS NOT NULL"
            .to_string(),
        format!("SELECT a.k FROM a JOIN b ON a.k = b.k WHERE b.k = {k} OR a.s NOT LIKE 'x'"),
        // WHERE through the scalar filter.
        format!("SELECT a.k, a.s, b.t FROM a JOIN b ON a.k = b.k WHERE a.s = 'x' OR b.w > {w}"),
        format!("SELECT a.k FROM a JOIN b ON a.k = b.k WHERE a.v + b.w > {v}"),
        format!("SELECT s, count(*) FROM a JOIN b ON a.k = b.k WHERE NOT (w = {w}) GROUP BY s"),
        // GROUP BY / ORDER BY / LIMIT.
        format!(
            "SELECT s, sum(w), avg(v) FROM a JOIN b ON a.k = b.k WHERE v > {v} GROUP BY s \
             ORDER BY s"
        ),
        format!(
            "SELECT a.s, count(*), avg(b.w) FROM a JOIN b ON a.k = b.k WHERE b.w >= {w} \
             GROUP BY a.s ORDER BY 2 DESC, a.s LIMIT 3"
        ),
        format!(
            "SELECT big.k, count(*) FROM big JOIN a ON big.k = a.k WHERE a.v < {v} \
             GROUP BY big.k ORDER BY count(*) DESC, big.k LIMIT 4"
        ),
        format!(
            "SELECT a.k, b.w FROM a JOIN b ON a.k = b.k ORDER BY w DESC, k LIMIT {}",
            k + 1
        ),
        format!("SELECT tag, v FROM big JOIN a ON big.k = a.k WHERE big.k = {k} ORDER BY v, tag"),
    ]);
    corpus
}

/// What both executors answer for `sql`, after checking they agree row for
/// row (`Debug` tells `-0.0` from `0.0`); the rendering the fixture holds.
fn answered(e: &Engine, sql: &str) -> String {
    let (optimized, reference) = (e.query(sql), e.query_reference(sql));
    assert_eq!(
        format!("{optimized:?}"),
        format!("{reference:?}"),
        "optimized and reference disagree on: {sql}"
    );
    match optimized {
        Ok(rs) => rs.render_tsv(),
        Err(err) => format!("error: {err}\n"),
    }
}

/// (d) The join corpus equals the reference executor row for row, and the
/// bytes the build before this suite answered.
#[test]
fn join_corpus_matches_the_reference_executor_and_the_parent_build() {
    let _held = telemetry();
    let mut text = String::new();
    for seed in 1..=3u64 {
        let mut rng = Rng::new(0x6a6f_696e ^ seed);
        let e = join_db(&mut rng);
        for sql in join_corpus(&mut rng) {
            text.push_str(&format!("-- seed {seed}: {sql}\n{}", answered(&e, &sql)));
        }
    }
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/read_path/join_corpus.tsv");
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap();
    if text != expected {
        let at = text
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        panic!(
            "join corpus drifted from {} at line {}:\n got: {:?}\nwant: {:?}",
            path.display(),
            at + 1,
            text.lines().nth(at),
            expected.lines().nth(at)
        );
    }
}
