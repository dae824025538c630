//! What a write transaction costs, in counts — no clock involved.
//!
//! `add_run` is one transaction. It must cost what it touches, not what the
//! database holds: the 21st run and the 401st pin no catalog snapshot, copy
//! no table, visit the same rows and parse the same statements — unsharded
//! and on a 4-node cluster. (Before transactions pinned lazily, BEGIN pinned
//! every table, the first touch of `pb_runs` deep-copied it, and the next run
//! id was a scan of it.) A transaction that only appends copies nothing at
//! all, however large the table. This is the only test of its binary because
//! the counters are process-wide.

use perfbase::core::experiment::{ExperimentDb, ExperimentDef, Meta, VarKind, Variable};
use perfbase::obs;
use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::{Column, DataType, Engine, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

const COUNTERS: [&str; 5] = [
    "mvcc.snapshots_pinned",
    "mvcc.cow_clones",
    "scan.rows_visited",
    "sql.statements_parsed",
    "txn.conflicts",
];

fn counters() -> [u64; 5] {
    let all = obs::counters_snapshot();
    COUNTERS.map(|name| all.iter().find(|(n, _)| *n == name).expect("counter").1)
}

/// Increase of [`COUNTERS`] over `work`.
fn cost_of(work: impl FnOnce()) -> [u64; 5] {
    let before = counters();
    work();
    let after = counters();
    std::array::from_fn(|i| after[i] - before[i])
}

fn experiment() -> ExperimentDb {
    let mut def = ExperimentDef::new(
        Meta {
            name: "guard".into(),
            ..Meta::default()
        },
        "demo",
    );
    def.add_variable(Variable::new("fs", VarKind::Parameter, DataType::Text).once())
        .unwrap();
    def.add_variable(Variable::new("chunk", VarKind::Parameter, DataType::Int))
        .unwrap();
    def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
        .unwrap();
    ExperimentDb::create(Arc::new(Engine::new()), def).unwrap()
}

fn add_run(db: &ExperimentDb) -> i64 {
    let once: HashMap<String, Value> = [("fs".to_string(), Value::Text("ufs".into()))].into();
    let datasets: Vec<HashMap<String, Value>> = (0..24)
        .map(|i| {
            [
                ("chunk".to_string(), Value::Int(1 << i)),
                ("bw".to_string(), Value::Float(i as f64 * 1.5)),
            ]
            .into()
        })
        .collect();
    db.add_run_recorded(&once, &datasets, 0, &[("hash", "file")])
        .unwrap()
}

/// Cost of one `add_run` into a catalog of 20 runs, and of 400.
fn add_run_costs(db: &ExperimentDb) -> ([u64; 5], [u64; 5]) {
    (1..=20).for_each(|id| assert_eq!(add_run(db), id));
    let small = cost_of(|| assert_eq!(add_run(db), 21));
    (22..=400).for_each(|id| assert_eq!(add_run(db), id));
    let large = cost_of(|| assert_eq!(add_run(db), 401));
    (small, large)
}

#[test]
fn a_write_transaction_costs_what_it_touches() {
    // Unsharded: the `max(run_id)` query is the one statement parsed, and it
    // is answered from the end of the ordered index.
    let db = experiment();
    let (small, large) = add_run_costs(&db);
    assert_eq!(small, [0, 0, 0, 1, 0], "{COUNTERS:?}");
    assert_eq!(large, small, "the 401st run costs what the 21st did");

    // On a 4-node cluster the same, wherever the run is placed: `DELETE FROM
    // pb_shards WHERE run_id = …` is an index probe that selects nothing and
    // copies nothing (statements a transaction buffers are not counted as
    // parsed — only the statement entry points of the engine count).
    let db = experiment();
    let cluster = Cluster::with_frontend(db.engine().clone(), 4, LatencyModel::none());
    db.attach_cluster(Arc::new(cluster)).unwrap();
    let (small, large) = add_run_costs(&db);
    assert_eq!(small, [0, 0, 0, 1, 0], "{COUNTERS:?}");
    assert_eq!(large, small, "sharded");

    // BEGIN … COMMIT leaves a table the transaction did not name alone: no
    // pin is taken on it, let alone kept.
    let engine = db.engine().clone();
    let untouched = engine.pin_table("pb_meta").unwrap();
    let pins = Arc::strong_count(&untouched);
    let mut txn = engine.begin_txn();
    assert_eq!(Arc::strong_count(&untouched), pins);
    txn.execute("DELETE FROM pb_users WHERE name = 'nobody'")
        .unwrap();
    assert_eq!(txn.query("SELECT count(*) FROM pb_runs").unwrap().len(), 1);
    assert_eq!(Arc::strong_count(&untouched), pins);
    txn.commit().unwrap();
    assert_eq!(Arc::strong_count(&untouched), pins);

    // What a session's `/ingest` does inside a transaction — the schema as
    // the transaction sees it, then `insert_rows` — for 250 rows into a
    // 100 000-row table: nothing is copied when the rows are buffered, and
    // the commit appends them in place (nobody else pins the table).
    let engine = Arc::new(Engine::new());
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::new("v", DataType::Float),
    ])
    .unwrap();
    engine.create_table("samples", schema).unwrap();
    let rows = |from: i64, n: i64| -> Vec<Vec<Value>> {
        (from..from + n)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect()
    };
    engine.insert_rows("samples", rows(0, 100_000)).unwrap();
    engine
        .execute("CREATE INDEX ix_samples ON samples (id)")
        .unwrap();
    let version = Arc::as_ptr(&engine.pin_table("samples").unwrap());
    let cost = cost_of(|| {
        let mut txn = engine.begin_txn();
        for batch in 0..2 {
            assert_eq!(txn.table_schema("samples").unwrap().arity(), 2);
            let n = txn.insert_rows("samples", rows(100_000 + batch * 250, 250));
            assert_eq!(n.unwrap(), 250);
        }
        txn.commit().unwrap();
    });
    assert_eq!(cost, [0, 0, 0, 0, 0], "{COUNTERS:?}");
    let after = engine.pin_table("samples").unwrap();
    assert_eq!(after.len(), 100_500);
    assert_eq!(Arc::as_ptr(&after), version, "appended in place");
    // Read-your-own-writes is kept: a SELECT folds the buffered rows into a
    // private copy — the one copy, made when it is needed.
    let cost = cost_of(|| {
        let mut txn = engine.begin_txn();
        txn.insert_rows("samples", rows(200_000, 250)).unwrap();
        let seen = txn.query("SELECT count(*) FROM samples").unwrap();
        assert_eq!(seen.rows()[0][0], Value::Int(100_750));
        txn.rollback();
    });
    assert_eq!(cost[1], 1, "mvcc.cow_clones");
    assert_eq!(engine.row_count("samples").unwrap(), 100_500);
}
