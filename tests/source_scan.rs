//! The cost of a source element, in counts — no clock involved.
//!
//! A source element scans one table per matching run, but issues O(1) SQL
//! statements: the `pb_runs` query. The program's own counters must say so,
//! and must keep saying what the statement-per-run source element said about
//! the rows it visits. So does a source fused with its aggregation on a
//! sharded experiment: the partial SELECT each run's node answers is one
//! value, built once. The counters are process-wide, so the tests of this
//! binary take turns ([`counters`]).

use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::Importer;
use perfbase::core::input::input_description_from_str;
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::QueryRunner;
use perfbase::core::xmldef;
use perfbase::obs;
use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::Engine;
use perfbase::workloads::beffio::{simulate, BeffIoConfig, FsType, Technique};
use std::sync::{Arc, Mutex, MutexGuard};

const EXPERIMENT: &str = include_str!("../crates/bench/data/b_eff_io_experiment.xml");
const INPUT: &str = include_str!("../crates/bench/data/b_eff_io_input.xml");
const FIG7_QUERY: &str = include_str!("../crates/bench/data/b_eff_io_query.xml");
/// Data sets per run of the b_eff_io campaign.
const ROWS: u64 = 24;

/// Serializes the tests: they read process-wide counters.
fn counters() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// 3 file systems × 2 techniques × `reps` runs — the benchmark's campaign.
fn campaign_db(reps: u32) -> ExperimentDb {
    let def = xmldef::definition_from_str(EXPERIMENT).unwrap();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_229_830);
    for rep in 1..=reps {
        for fs in [FsType::Ufs, FsType::Nfs, FsType::Pvfs] {
            for technique in [Technique::ListBased, Technique::ListLess] {
                let run = simulate(BeffIoConfig {
                    fs,
                    technique,
                    run_index: rep,
                    seed: u64::from(rep) * 6 + fs as u64 * 2 + technique as u64,
                    ..BeffIoConfig::default()
                });
                importer
                    .import_file(&desc, &run.filename(), &run.render())
                    .unwrap();
            }
        }
    }
    db
}

/// Increase of `(sql.statements_parsed, scan.rows_visited, statements of the
/// select class)` over one run of the Fig. 7 spec.
fn fig7_counts(db: &ExperimentDb) -> (u64, u64, u64) {
    let read = || {
        let counter = |name: &str| {
            let all = obs::counters_snapshot();
            all.iter().find(|(n, _)| *n == name).expect("counter").1
        };
        let select = obs::class_snapshot()
            .into_iter()
            .find(|c| c.class == "select")
            .expect("select class");
        (
            counter("sql.statements_parsed"),
            counter("scan.rows_visited"),
            select.statements,
        )
    };
    let before = read();
    let out = QueryRunner::new(db)
        .run(query_from_str(FIG7_QUERY).unwrap())
        .unwrap();
    assert_eq!(out.artifacts.len(), 3);
    let after = read();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

#[test]
fn a_source_element_costs_o1_statements_and_the_same_rows() {
    let _turn = counters();
    let (small, large) = (campaign_db(1), campaign_db(10));
    let (parsed_6, visited_6, selects_6) = fig7_counts(&small);
    let (parsed_60, visited_60, selects_60) = fig7_counts(&large);

    // Statements do not grow with the runs: the two `pb_runs` queries (used
    // to be one more per scanned run, and one per aggregation).
    assert_eq!(parsed_6, parsed_60);
    assert_eq!(parsed_6, 2);

    // Rows visited are what they were: each source reads `pb_runs` (all
    // runs) and the tables of its `reps` matching runs; each of the two
    // aggregations reads a source vector. 21 600 at 1200 runs — the
    // benchmark's `sqldb.exec.rows_visited_per_fig7`.
    let visited = |runs: u64, reps: u64| 2 * runs + 2 * reps * ROWS + 2 * reps * ROWS;
    assert_eq!(visited_6, visited(6, 1));
    assert_eq!(visited_60, visited(60, 10));
    assert_eq!(visited(1200, 200), 21_600);

    // Every scanned run table and each of the two aggregations — run by the
    // engine over a source vector, nothing parsed — still counts as a
    // statement of the select class (what `perfbase query --stats-export`
    // reports).
    assert_eq!(selects_6, parsed_6 + 2 + 2);
    assert_eq!(selects_60, parsed_60 + 2 * 10 + 2);
}

/// A source fused with its aggregation on a sharded experiment (aggregation
/// pushdown) parses what the unsharded pair parses — the `pb_runs`
/// statement — however many runs answer a partial SELECT: 3 of them or 30.
/// It used to render and parse one statement per run.
#[test]
fn a_pushed_down_aggregation_parses_no_statement_per_run() {
    let _turn = counters();
    let spec = r#"<query name="pushed"><source id="s">
             <parameter name="technique" value="listbased"/>
             <parameter name="mode" value="read"/>
             <parameter name="s_chunk" carry="true"/>
             <value name="b_separate"/>
           </source>
           <operator id="a" type="avg" input="s"/>
           <output id="o" input="a" format="csv"/></query>"#;
    let parsed = |reps: u32| {
        let db = campaign_db(reps);
        let unsharded = QueryRunner::new(&db)
            .run(query_from_str(spec).unwrap())
            .unwrap();
        let nodes = Cluster::with_frontend(db.engine().clone(), 4, LatencyModel::none());
        db.attach_cluster(Arc::new(nodes)).unwrap();
        let before = (
            obs::get(obs::Counter::StmtParsed),
            obs::get(obs::Counter::DagPushdownFused),
        );
        let out = QueryRunner::new(&db)
            .run(query_from_str(spec).unwrap())
            .unwrap();
        assert_eq!(out.artifacts, unsharded.artifacts);
        assert_eq!(obs::get(obs::Counter::DagPushdownFused) - before.1, 1);
        let moved = out.transfer.expect("a sharded run reports its transfer");
        assert!(moved.rows > 0, "no partial crossed a link: {moved:?}");
        obs::get(obs::Counter::StmtParsed) - before.0
    };
    let (parsed_3, parsed_30) = (parsed(1), parsed(10));
    assert_eq!(parsed_3, parsed_30);
    assert_eq!(parsed_3, 1);
}

/// A source of the benchmark's `sweep` shape — `fs` restricts the runs,
/// `mode = 'write'` each run's data sets — scans its runs as one batch: the
/// data-set restriction is compiled once (`scan.filter_binds`), not once per
/// run table, since every run table binds it alike.
#[test]
fn a_sweep_source_compiles_its_filter_once() {
    let _turn = counters();
    let spec = r#"<query name="sweep1"><source id="s">
             <parameter name="fs" value="ufs"/>
             <parameter name="mode" value="write"/>
             <parameter name="s_chunk" carry="true"/>
             <value name="b_separate"/>
           </source>
           <output id="o" input="s" format="csv"/></query>"#;
    for reps in [1, 10] {
        let db = campaign_db(reps);
        let select = || {
            let all = obs::class_snapshot();
            all.into_iter()
                .find(|c| c.class == "select")
                .map_or(0, |c| c.statements)
        };
        let before = (obs::get(obs::Counter::ScanFilterBinds), select());
        let out = QueryRunner::new(&db)
            .run(query_from_str(spec).unwrap())
            .unwrap();
        assert_eq!(out.artifacts.len(), 1);
        // The `pb_runs` statement and one per scanned `ufs` run table.
        assert_eq!(select() - before.1, 1 + 2 * u64::from(reps));
        assert_eq!(
            obs::get(obs::Counter::ScanFilterBinds) - before.0,
            1,
            "{reps} reps"
        );
    }
}
