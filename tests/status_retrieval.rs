//! Status retrieval (paper §3.4) read as a source: the contents a variable
//! took and the holes of a parameter sweep come from one run source each,
//! keyed by the key identity of `core`, on a single engine and on a sharded
//! experiment alike; listing runs is one read of `pb_runs`. The statement
//! counts are process-wide, so the tests of this binary take turns
//! ([`counters`]).

use perfbase::core::experiment::{ExperimentDb, ExperimentDef, Meta, VarKind, Variable};
use perfbase::core::status::{list_runs, missing_sweep_points, observed_values, RunCriteria};
use perfbase::obs;
use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::{DataType, Engine, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests: they read process-wide counters.
fn counters() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// An experiment with run-level `fs` (TEXT) and `nodes` (INTEGER), and
/// data-set `chunk` (INTEGER), `tag` (TEXT) and `bw` (FLOAT).
fn empty_db() -> ExperimentDb {
    let mut def = ExperimentDef::new(
        Meta {
            name: "status".into(),
            ..Meta::default()
        },
        "u",
    );
    let vars = [
        Variable::new("fs", VarKind::Parameter, DataType::Text).once(),
        Variable::new("nodes", VarKind::Parameter, DataType::Int).once(),
        Variable::new("chunk", VarKind::Parameter, DataType::Int),
        Variable::new("tag", VarKind::Parameter, DataType::Text),
        Variable::new("bw", VarKind::ResultValue, DataType::Float),
    ];
    for v in vars {
        def.add_variable(v).unwrap();
    }
    ExperimentDb::create(Arc::new(Engine::new()), def).unwrap()
}

/// Store a run of `fs` on `nodes` whose data sets are `(chunk, tag)`.
fn add(db: &ExperimentDb, fs: &str, nodes: i64, sets: &[(i64, Value)]) {
    let once: HashMap<String, Value> = [
        ("fs".to_string(), Value::Text(fs.into())),
        ("nodes".to_string(), Value::Int(nodes)),
    ]
    .into();
    let datasets: Vec<HashMap<String, Value>> = sets
        .iter()
        .map(|(chunk, tag)| {
            [
                ("chunk".to_string(), Value::Int(*chunk)),
                ("tag".to_string(), tag.clone()),
                ("bw".to_string(), Value::Float(*chunk as f64 / 8.0)),
            ]
            .into()
        })
        .collect();
    db.add_run(&once, &datasets, 1_000 + nodes).unwrap();
}

/// `runs` runs, seeded: `fs` cycles through three file systems, `nodes`
/// through two counts, and each run holds two or three of four chunk sizes
/// under one of three tags, one of them NULL.
fn campaign(runs: i64) -> ExperimentDb {
    let db = empty_db();
    let tags = [
        Value::Text("a".into()),
        Value::Text("NULL".into()),
        Value::Null,
    ];
    for r in 0..runs {
        let fs = ["ufs", "nfs", "pvfs"][(r % 3) as usize];
        let tag = &tags[(r % tags.len() as i64) as usize];
        let sets: Vec<(i64, Value)> = (0..2 + r % 2)
            .map(|k| (1 << (10 + (r + k) % 4), tag.clone()))
            .collect();
        add(&db, fs, 4 << (r % 2), &sets);
    }
    db
}

fn ints(values: &[i64]) -> Vec<Value> {
    values.iter().map(|&i| Value::Int(i)).collect()
}

#[test]
fn an_integer_data_set_parameter_is_ordered_numerically() {
    let _turn = counters();
    let db = empty_db();
    let tag = Value::Text("a".into());
    add(&db, "ufs", 4, &[(10, tag.clone()), (11, tag.clone())]);
    add(
        &db,
        "nfs",
        4,
        &[(12, tag.clone()), (13, tag.clone()), (9, tag)],
    );
    assert_eq!(
        observed_values(&db, "chunk").unwrap(),
        ints(&[9, 10, 11, 12, 13])
    );
}

#[test]
fn a_text_parameter_holding_the_word_null_and_null_answers_both() {
    let _turn = counters();
    let db = empty_db();
    add(
        &db,
        "ufs",
        4,
        &[(1, Value::Text("NULL".into())), (2, Value::Null)],
    );
    add(
        &db,
        "ufs",
        8,
        &[(1, Value::Null), (2, Value::Text("b".into()))],
    );
    assert_eq!(
        observed_values(&db, "tag").unwrap(),
        vec![
            Value::Null,
            Value::Text("NULL".into()),
            Value::Text("b".into())
        ]
    );
}

#[test]
fn missing_sweep_points_cross_a_run_level_and_a_data_set_parameter() {
    let _turn = counters();
    let db = empty_db();
    let tag = Value::Text("a".into());
    add(&db, "ufs", 4, &[(1024, tag.clone()), (2048, tag.clone())]);
    add(&db, "nfs", 4, &[(1024, tag)]);
    let holes = |params: &[&str]| -> Vec<Vec<(String, Value)>> {
        let holes = missing_sweep_points(&db, params).unwrap();
        holes.into_iter().map(|h| h.combination).collect()
    };
    let nfs = ("fs".to_string(), Value::Text("nfs".into()));
    let chunk = ("chunk".to_string(), Value::Int(2048));
    assert_eq!(
        holes(&["fs", "chunk"]),
        vec![vec![nfs.clone(), chunk.clone()]]
    );
    assert_eq!(holes(&["chunk", "fs"]), vec![vec![chunk, nfs]]);
    assert!(holes(&["nodes", "chunk"]).is_empty());
}

/// Everything status retrieval answers about `db`.
fn status_of(db: &ExperimentDb) -> String {
    let mut out = format!("{:?}\n", list_runs(db, &RunCriteria::default()).unwrap());
    for p in ["fs", "nodes", "chunk", "tag", "bw"] {
        out.push_str(&format!("{p}: {:?}\n", observed_values(db, p).unwrap()));
    }
    for params in [
        &["fs", "nodes"][..],
        &["fs", "chunk"],
        &["tag", "nodes", "chunk"],
    ] {
        let holes = missing_sweep_points(db, params).unwrap();
        out.push_str(&format!("{params:?}: {holes:?}\n"));
    }
    out
}

#[test]
fn a_sharded_experiment_answers_what_the_unsharded_one_does() {
    let _turn = counters();
    let db = campaign(10);
    let unsharded = status_of(&db);
    let nodes = Cluster::with_frontend(db.engine().clone(), 3, LatencyModel::none());
    db.attach_cluster(Arc::new(nodes)).unwrap();
    assert_eq!(status_of(&db), unsharded);
}

/// Statements parsed by `f`.
fn parsed<T>(f: impl FnOnce() -> T) -> u64 {
    let before = obs::get(obs::Counter::StmtParsed);
    f();
    obs::get(obs::Counter::StmtParsed) - before
}

/// However many runs there are, listing them parses one statement, the
/// contents of a variable one, and the holes of a sweep over `k` parameters
/// `k + 1`: one per axis and one for the combinations the runs have.
#[test]
fn status_retrieval_parses_no_statement_per_run_or_grid_point() {
    let _turn = counters();
    for runs in [3, 30] {
        let db = campaign(runs);
        let listed = list_runs(&db, &RunCriteria::default()).unwrap();
        assert_eq!(listed.len(), runs as usize);
        assert_eq!(parsed(|| list_runs(&db, &RunCriteria::default())), 1);
        for p in ["fs", "chunk"] {
            assert_eq!(parsed(|| observed_values(&db, p).unwrap()), 1, "{p}");
        }
        for params in [&["chunk"][..], &["fs", "nodes"], &["fs", "tag", "chunk"]] {
            let k = params.len() as u64;
            let holes = missing_sweep_points(&db, params).unwrap();
            assert_eq!(
                parsed(|| missing_sweep_points(&db, params).unwrap()),
                k + 1,
                "{params:?}, {} hole(s), {runs} runs",
                holes.len()
            );
        }
    }
}
