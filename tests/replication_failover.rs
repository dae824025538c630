//! Replicated-cluster failover equivalence (ISSUE 8 acceptance): with
//! `--replicas 1` on a 4-node cluster, killing any single non-frontend
//! node mid-workload loses zero committed rows, and every query spec the
//! executor supports returns byte-identical artifacts after the failover —
//! with aggregation pushdown on or off.
//!
//! Two fault models:
//!
//! * an in-memory cluster (no WALs, writes mirrored synchronously) killed
//!   between workloads — every backend takes a turn as the victim;
//! * a WAL-backed cluster whose victim is killed *mid-shipment* during an
//!   import stream — committed (published) runs must survive intact, the
//!   interrupted run must never have been published.

use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::Importer;
use perfbase::core::input::input_description_from_str;
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::QueryRunner;
use perfbase::core::xmldef;
use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::sql::{parse_statement, SelectStmt, Stmt};
use perfbase::sqldb::{Engine, ReplOptions, SyncPolicy};
use perfbase::workloads::beffio::{simulate, BeffIoConfig, Technique};
use std::path::PathBuf;
use std::sync::Arc;

const EXPERIMENT: &str = include_str!("../crates/bench/data/b_eff_io_experiment.xml");
const INPUT: &str = include_str!("../crates/bench/data/b_eff_io_input.xml");
const FIG7_QUERY: &str = include_str!("../crates/bench/data/b_eff_io_query.xml");

/// `SELECT count(*)`, for a run's data table wherever it lives.
fn count_rows() -> SelectStmt {
    match parse_statement("SELECT count(*)").unwrap() {
        Stmt::Select(sel) => sel,
        other => panic!("not a SELECT: {other:?}"),
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p =
            std::env::temp_dir().join(format!("perfbase_replfail_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Import `reps` repetitions per technique (2 × reps runs, 24 data rows
/// each) into a fresh in-memory experiment database.
fn campaign_db(reps: u32) -> ExperimentDb {
    let def = xmldef::definition_from_str(EXPERIMENT).unwrap();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_229_830);
    for technique in [Technique::ListBased, Technique::ListLess] {
        for rep in 1..=reps {
            let run = simulate(BeffIoConfig {
                technique,
                run_index: rep,
                seed: u64::from(rep) * 7 + technique.file_tag().len() as u64,
                ..BeffIoConfig::default()
            });
            importer
                .import_file(&desc, &run.filename(), &run.render())
                .unwrap();
        }
    }
    db
}

/// Attach a latency-free replicated `nodes`-node cluster (node 0 = the
/// db's own engine, one replica per shard).
fn shard_replicated(db: &ExperimentDb, nodes: usize) -> Arc<Cluster> {
    let cluster = Arc::new(Cluster::with_frontend(
        db.engine().clone(),
        nodes,
        LatencyModel::none(),
    ));
    db.attach_cluster_replicated(
        cluster.clone(),
        ReplOptions {
            replicas: 1,
            ..ReplOptions::default()
        },
    )
    .unwrap();
    cluster
}

/// One spec per query shape the executor supports (the same 16 the
/// sharded-equivalence suite runs): pushable aggregations, fallbacks,
/// reduce chains, transforms, combiners, run filters, and passthrough.
fn equivalence_specs() -> Vec<(&'static str, String)> {
    let simple = |name: &str, op: &str| {
        format!(
            r#"<query name="{name}"><source id="s">
                 <parameter name="technique" carry="true"/>
                 <parameter name="s_chunk" carry="true"/>
                 <parameter name="mode" carry="true"/>
                 <value name="b_separate"/>
               </source>
               <operator id="a" type="{op}" input="s"/>
               <output id="o" input="a" format="csv"/></query>"#
        )
    };
    vec![
        ("avg_grouped", simple("avg_grouped", "avg")),
        ("sum_grouped", simple("sum_grouped", "sum")),
        ("min_grouped", simple("min_grouped", "min")),
        ("max_grouped", simple("max_grouped", "max")),
        ("count_grouped", simple("count_grouped", "count")),
        ("median_fallback", simple("median_fallback", "median")),
        ("stddev_fallback", simple("stddev_fallback", "stddev")),
        (
            "reduce_all",
            r#"<query name="reduce_all"><source id="s">
                 <parameter name="fs" value="ufs"/>
                 <value name="b_separate"/>
               </source>
               <operator id="a" type="avg" input="s"/>
               <output id="o" input="a" format="csv"/></query>"#
                .to_string(),
        ),
        (
            "reduce_chain",
            r#"<query name="reduce_chain"><source id="s">
                 <parameter name="s_chunk" carry="true"/>
                 <value name="b_separate"/>
               </source>
               <operator id="m" type="max" input="s"/>
               <operator id="g" type="max" input="m"/>
               <output id="o" input="g" format="csv"/></query>"#
                .to_string(),
        ),
        (
            "scale_then_sum",
            r#"<query name="scale_then_sum"><source id="s">
                 <parameter name="mode" carry="true"/>
                 <value name="b_separate"/>
               </source>
               <operator id="x" type="scale" input="s" arg="2.0"/>
               <operator id="a" type="sum" input="x"/>
               <output id="o" input="a" format="csv"/></query>"#
                .to_string(),
        ),
        (
            "run_id_filter",
            r#"<query name="run_id_filter"><source id="s">
                 <run ids="1,3"/>
                 <parameter name="mode" carry="true"/>
                 <value name="b_separate"/>
               </source>
               <operator id="a" type="avg" input="s"/>
               <output id="o" input="a" format="csv"/></query>"#
                .to_string(),
        ),
        (
            "multi_value_avg",
            r#"<query name="multi_value_avg"><source id="s">
                 <parameter name="s_chunk" carry="true"/>
                 <value name="b_scatter"/>
                 <value name="b_separate"/>
               </source>
               <operator id="a" type="avg" input="s"/>
               <output id="o" input="a" format="csv"/></query>"#
                .to_string(),
        ),
        (
            "in_filter_avg",
            r#"<query name="in_filter_avg"><source id="s">
                 <parameter name="mode" op="in" value="write,read"/>
                 <parameter name="s_chunk" op="ge" value="1024" carry="true"/>
                 <value name="b_separate"/>
               </source>
               <operator id="a" type="avg" input="s"/>
               <output id="o" input="a" format="csv"/></query>"#
                .to_string(),
        ),
        (
            "source_to_output",
            r#"<query name="source_to_output"><source id="s">
                 <parameter name="technique" value="listless"/>
                 <parameter name="s_chunk" carry="true"/>
                 <parameter name="mode" carry="true"/>
                 <value name="b_separate"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#
                .to_string(),
        ),
        (
            "combiner",
            r#"<query name="combiner">
               <source id="a">
                 <parameter name="technique" value="listbased"/>
                 <parameter name="s_chunk" carry="true"/>
                 <value name="b_separate"/>
               </source>
               <source id="b">
                 <parameter name="technique" value="listless"/>
                 <parameter name="s_chunk" carry="true"/>
                 <value name="b_separate"/>
               </source>
               <operator id="ma" type="avg" input="a"/>
               <operator id="mb" type="avg" input="b"/>
               <combiner id="c" input="ma,mb" suffixes="_old,_new"/>
               <output id="o" input="c" format="csv"/></query>"#
                .to_string(),
        ),
        ("fig7", FIG7_QUERY.to_string()),
    ]
}

/// Run `spec` on `db` and return the artifacts of every output element,
/// sorted by element id and concatenated.
fn artifacts(db: &ExperimentDb, spec: &str, pushdown: bool) -> String {
    let out = QueryRunner::new(db)
        .pushdown(pushdown)
        .run(query_from_str(spec).unwrap())
        .unwrap();
    let mut ids: Vec<&String> = out.artifacts.keys().collect();
    ids.sort();
    ids.iter()
        .map(|id| format!("[{id}]\n{}\n", out.artifacts[id.as_str()]))
        .collect()
}

/// Kill every backend in turn: each time, failover must promote the
/// victim's replica and all 16 specs must stay byte-identical to the
/// unsharded reference — pushdown on and off.
#[test]
fn every_spec_survives_killing_any_backend() {
    let specs = equivalence_specs();
    let plain = campaign_db(2);
    let want: Vec<String> = specs
        .iter()
        .map(|(_, spec)| artifacts(&plain, spec, true))
        .collect();

    for victim in 1..4usize {
        let db = campaign_db(2);
        let cluster = shard_replicated(&db, 4);

        // Replicated reads are equivalent before any fault, and some of
        // them are actually served by replicas.
        for ((name, spec), want) in specs.iter().zip(&want) {
            assert_eq!(
                &artifacts(&db, spec, true),
                want,
                "{name} replicated, pre-kill"
            );
        }
        let repl = db.sharding().unwrap().replicator().unwrap().clone();
        assert!(
            repl.report().replica_reads > 0,
            "replicas must serve a share of the reads"
        );

        cluster.kill_node(victim);
        let p = db.fail_over(victim).unwrap();
        assert_eq!(p.dead, victim);
        assert_ne!(p.promoted, victim);
        assert!(p.promoted >= 1, "frontend must never be promoted");

        for ((name, spec), want) in specs.iter().zip(&want) {
            let pushed = artifacts(&db, spec, true);
            assert_eq!(&pushed, want, "{name} with pushdown, victim {victim}");
            let fetched = artifacts(&db, spec, false);
            assert_eq!(&fetched, want, "{name} without pushdown, victim {victim}");
        }
        assert_eq!(repl.report().failovers, 1);
    }
}

/// Imports keep working after a failover: new runs land on the promoted
/// node (the dead node's hash placements redirect), and queries stay
/// equivalent with the enlarged campaign.
#[test]
fn imports_resume_on_the_promoted_node() {
    let db = campaign_db(1);
    let cluster = shard_replicated(&db, 4);
    cluster.kill_node(1);
    db.fail_over(1).unwrap();

    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_300_000);
    for rep in 5..=8 {
        let run = simulate(BeffIoConfig {
            technique: Technique::ListLess,
            run_index: rep,
            seed: u64::from(rep) * 31,
            ..BeffIoConfig::default()
        });
        importer
            .import_file(&desc, &run.filename(), &run.render())
            .unwrap();
    }
    let sh = db.sharding().unwrap();
    for run_id in db.run_ids().unwrap() {
        let owner = sh.owner_of(run_id);
        assert_ne!(owner, 1, "run {run_id} still routed to the dead node");
        let rs = db.select_run_data(run_id, &count_rows()).unwrap();
        assert_eq!(format!("{}", rs.rows()[0][0]), "24", "run {run_id}");
    }

    // The same campaign imported unsharded gives the same artifacts.
    let reference = campaign_db(1);
    let ref_importer = Importer::new(&reference).at_time(1_101_300_000);
    for rep in 5..=8 {
        let run = simulate(BeffIoConfig {
            technique: Technique::ListLess,
            run_index: rep,
            seed: u64::from(rep) * 31,
            ..BeffIoConfig::default()
        });
        ref_importer
            .import_file(&desc, &run.filename(), &run.render())
            .unwrap();
    }
    let spec = &equivalence_specs()[0].1;
    assert_eq!(
        artifacts(&db, spec, true),
        artifacts(&reference, spec, true)
    );
}

/// WAL-backed mid-shipment kill: the victim dies while shipping an
/// import's frames to its replica. Every *published* run keeps all 24 of
/// its rows through the failover; the interrupted run was never
/// published.
#[test]
fn mid_import_kill_loses_no_committed_rows() {
    let dir = TempDir::new("midimport");
    let db = campaign_db(1);
    let cluster = Arc::new(Cluster::with_frontend(
        db.engine().clone(),
        4,
        LatencyModel::none(),
    ));
    cluster
        .attach_wal_dir_with(&dir.0, |i| cluster.node_wal_options(i, SyncPolicy::Always))
        .unwrap();
    db.attach_cluster_replicated(
        cluster.clone(),
        ReplOptions {
            replicas: 1,
            ..ReplOptions::default()
        },
    )
    .unwrap();

    let victim = 1usize;
    // Enough budget that several imports commit, small enough that an
    // import stream to the victim dies mid-shipment.
    cluster.node_failpoint(victim).arm_ship_kill(5);

    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_300_000);
    let mut imported = 0usize;
    let mut killed = false;
    for rep in 10..30u32 {
        let run = simulate(BeffIoConfig {
            technique: Technique::ListBased,
            run_index: rep,
            seed: u64::from(rep) * 13,
            ..BeffIoConfig::default()
        });
        match importer.import_file(&desc, &run.filename(), &run.render()) {
            Ok(_) => imported += 1,
            Err(e) => {
                assert!(e.to_string().contains("simulated crash"), "{e}");
                killed = true;
                break;
            }
        }
    }
    assert!(killed, "the ship kill never fired across 20 imports");
    assert!(imported > 0, "no import committed before the kill");
    assert!(!cluster.node_alive(victim));

    let committed = db.run_ids().unwrap();
    assert_eq!(
        committed.len(),
        2 + imported,
        "a run was published without its data committed, or lost"
    );

    let p = db.fail_over(victim).unwrap();
    assert_ne!(p.promoted, victim);
    for run_id in committed {
        let rs = db.select_run_data(run_id, &count_rows()).unwrap();
        assert_eq!(
            format!("{}", rs.rows()[0][0]),
            "24",
            "committed run {run_id} lost rows in the failover"
        );
    }
}
