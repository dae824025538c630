//! Many writers, one experiment: `add_run` from several threads.
//!
//! Before run ids were taken inside the run's own transaction, `next_run_id`
//! was read outside it: of 4 threads × 200 `add_run`s on one `ExperimentDb`
//! a third failed with `transaction conflict: table pb_rundata_<n> was
//! modified concurrently`, and dozens of the runs that were stored held
//! another call's data sets — a loser that began after the winner had
//! committed found `pb_rundata_<id>`, dropped it as an "orphan" and published
//! a second `pb_runs` row under the same id (sharded, the owner's table was
//! overwritten before anyone had won). Now: N × M calls, N × M distinct ids,
//! every run its own data, no error — unsharded and on a 4-node cluster, on
//! one handle and on two handles over one engine.

use perfbase::core::experiment::{ExperimentDb, ExperimentDef, Meta, VarKind, Variable};
use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::{DataType, Engine, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

const THREADS: i64 = 4;
const RUNS_PER_THREAD: i64 = 60;
const DATASETS: i64 = 3;

fn definition() -> ExperimentDef {
    let mut def = ExperimentDef::new(
        Meta {
            name: "writers".into(),
            ..Meta::default()
        },
        "demo",
    );
    def.add_variable(Variable::new("tag", VarKind::Parameter, DataType::Int).once())
        .unwrap();
    def.add_variable(Variable::new("owner", VarKind::Parameter, DataType::Int))
        .unwrap();
    def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
        .unwrap();
    def
}

/// The run with tag `tag`: every data set names the tag again, so a run that
/// holds another call's data shows.
fn add_tagged(db: &ExperimentDb, tag: i64) -> perfbase::core::Result<i64> {
    let once: HashMap<String, Value> = [("tag".to_string(), Value::Int(tag))].into();
    let datasets: Vec<HashMap<String, Value>> = (0..DATASETS)
        .map(|i| {
            [
                ("owner".to_string(), Value::Int(tag)),
                ("bw".to_string(), Value::Float(i as f64)),
            ]
            .into()
        })
        .collect();
    db.add_run(&once, &datasets, 1_101_234_630)
}

/// `THREADS` writers, thread `t` using `handles[t % handles.len()]`.
fn hammer(handles: &[ExperimentDb]) {
    let ids: Vec<Vec<i64>> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = &handles[t as usize % handles.len()];
                scope.spawn(move || {
                    (0..RUNS_PER_THREAD)
                        .map(|j| {
                            add_tagged(db, t * 1000 + j)
                                .unwrap_or_else(|e| panic!("writer {t} run {j}: {e}"))
                        })
                        .collect::<Vec<i64>>()
                })
            })
            .collect();
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let total = (THREADS * RUNS_PER_THREAD) as usize;
    let distinct: BTreeSet<i64> = ids.iter().flatten().copied().collect();
    assert_eq!(distinct.len(), total, "run ids handed out twice");
    assert_eq!(distinct, (1..=total as i64).collect(), "ids are 1..=N×M");

    let db = &handles[0];
    assert_eq!(db.run_ids().unwrap().len(), total, "one pb_runs row per id");
    for (t, thread_ids) in ids.iter().enumerate() {
        for (j, &id) in thread_ids.iter().enumerate() {
            let tag = Value::Int(t as i64 * 1000 + j as i64);
            let summary = db.run_summary(id).unwrap();
            assert_eq!(summary.once_values[0].1, tag, "run {id}");
            let (_, rows) = db.run_datasets(id).unwrap();
            assert_eq!(rows.len(), DATASETS as usize, "run {id}");
            assert!(
                rows.iter().all(|r| r[0] == tag),
                "run {id} holds another call's data: {rows:?}"
            );
        }
    }
}

fn shard(db: &ExperimentDb, nodes: usize) {
    let cluster = Cluster::with_frontend(db.engine().clone(), nodes, LatencyModel::none());
    db.attach_cluster(Arc::new(cluster)).unwrap();
}

#[test]
fn concurrent_add_run_on_one_handle() {
    let db = ExperimentDb::create(Arc::new(Engine::new()), definition()).unwrap();
    hammer(&[db]);
}

#[test]
fn concurrent_add_run_on_a_four_node_cluster() {
    let db = ExperimentDb::create(Arc::new(Engine::new()), definition()).unwrap();
    shard(&db, 4);
    hammer(std::slice::from_ref(&db));
    // Runs went where the shard map says, and nowhere else.
    let sh = db.sharding().unwrap();
    for id in db.run_ids().unwrap() {
        let table = format!("pb_rundata_{id}");
        let owner = sh.owner_of(id);
        for node in 0..4 {
            let there = sh.cluster().node(node).engine.has_table(&table);
            assert_eq!(there, node == owner, "{table} on node {node}");
        }
    }
}

/// Two `ExperimentDb`s over one engine do not share a writer lock: a loser's
/// `TxnConflict` — at the first touch of the winner's data table, or at
/// commit on `pb_runs` — is retried with the next id, never surfaced, and
/// never costs the winner its data.
#[test]
fn concurrent_add_run_on_two_handles_over_one_engine() {
    let engine = Arc::new(Engine::new());
    let first = ExperimentDb::create(engine.clone(), definition()).unwrap();
    let second = ExperimentDb::open(engine).unwrap();
    hammer(&[first, second]);
}
