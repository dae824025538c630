//! Execution-mode equivalence: every query spec must return byte-identical
//! artifacts whether its elements run inline, on threads or placed across
//! worker nodes, and whether the experiment's run data lives on the
//! frontend alone or is sharded across a simulated cluster — with
//! aggregation pushdown on or off.
//!
//! The campaign is the paper's b_eff_io experiment (Fig. 5) imported from
//! deterministic simulated benchmark output, so the suite exercises the
//! same data every Fig. 7/8 query runs over.

use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::Importer;
use perfbase::core::input::input_description_from_str;
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::{QueryOutcome, QueryRunner};
use perfbase::core::xmldef;
use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::{Engine, Value};
use perfbase::workloads::beffio::{simulate, BeffIoConfig, FsType, Technique};
use std::sync::Arc;

const EXPERIMENT: &str = include_str!("../crates/bench/data/b_eff_io_experiment.xml");
const INPUT: &str = include_str!("../crates/bench/data/b_eff_io_input.xml");
const FIG7_QUERY: &str = include_str!("../crates/bench/data/b_eff_io_query.xml");

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

/// Attach a latency-free `nodes`-node cluster (node 0 = the db's own
/// engine), spreading the run data across the simulated nodes.
fn shard(db: &ExperimentDb, nodes: usize) {
    let cluster = Arc::new(Cluster::with_frontend(
        db.engine().clone(),
        nodes,
        LatencyModel::none(),
    ));
    db.attach_cluster(cluster).unwrap();
}

/// One spec per query shape the executor supports: pushable aggregations
/// (count/sum/min/max and the AVG → SUM/COUNT rewrite), non-decomposable
/// fallbacks (median/stddev), reduce chains, row-wise transforms,
/// combiners, run filters, and raw source-to-output passthrough.
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
        // The edges of the pushdown merge. A full reduction over a source
        // that matches no run: one row, 0 for count and NULL otherwise.
        (
            "empty_reductions",
            ["count", "sum", "min", "max", "avg"]
                .map(|op| {
                    format!(
                        r#"<source id="s_{op}">
                             <parameter name="fs" value="unknown"/>
                             <value name="b_separate"/>
                           </source>
                           <operator id="{op}" type="{op}" input="s_{op}"/>
                           <output id="o_{op}" input="{op}" format="csv"/>"#
                    )
                })
                .iter()
                .fold(r#"<query name="empty_reductions">"#.to_string(), |q, e| {
                    q + e
                })
                + "</query>",
        ),
        // A run-level carry beside a data-set restriction that some runs
        // match nothing of: their partial counts 0 rows and adds no group.
        (
            "sparse_runs",
            r#"<query name="sparse_runs"><source id="s">
                 <parameter name="technique" carry="true"/>
                 <parameter name="b_separate" op="gt" value="1200"/>
                 <value name="b_separate"/>
               </source>
               <operator id="a" type="avg" input="s"/>
               <output id="o" input="a" format="csv"/></query>"#
                .to_string(),
        ),
    ]
}

/// Every vector of `out` by element id: its parameters, values and typed
/// columns, then every cell, a FLOAT as its bits — so two runs that render
/// the same rounded artifacts but differ in a last bit read differently.
fn vector_bits(out: &QueryOutcome) -> String {
    let mut ids: Vec<&String> = out.vectors.keys().collect();
    ids.sort();
    let mut all = String::new();
    for id in ids {
        let v = &out.vectors[id];
        let columns = v.table.schema.columns.iter();
        let types: Vec<_> = columns.map(|c| (&c.name, c.dtype)).collect();
        all.push_str(&format!("[{id}] {:?} {:?} {types:?}\n", v.params, v.values));
        for row in v.table.to_rows() {
            for cell in row {
                match cell {
                    Value::Float(f) => all.push_str(&format!(" f{:016x}", f.to_bits())),
                    other => all.push_str(&format!(" {other:?}")),
                }
            }
            all.push('\n');
        }
    }
    all
}

/// The Fig. 7 shape in miniature: two independent source → max chains
/// joined by a binary operator — two elements per wave, so threads and
/// placement both have something to spread.
const FIG7ISH: &str = r#"<query name="fig7ish">
  <source id="s_old">
    <parameter name="technique" value="listbased"/>
    <parameter name="s_chunk" carry="true"/>
    <parameter name="mode" carry="true"/>
    <value name="b_separate"/>
  </source>
  <source id="s_new">
    <parameter name="technique" value="listless"/>
    <parameter name="s_chunk" carry="true"/>
    <parameter name="mode" carry="true"/>
    <value name="b_separate"/>
  </source>
  <operator id="max_old" type="max" input="s_old"/>
  <operator id="max_new" type="max" input="s_new"/>
  <operator id="rel" type="above" input="max_new,max_old"/>
  <output id="o" input="rel" format="csv"/>
</query>"#;

/// Every execution mode must produce byte-identical artifacts, vectors that
/// agree to the bit ([`vector_bits`]), the same `timings` ids in the same
/// order, and the interconnect traffic the two
/// separate runners produced before they were merged — and write nothing:
/// the commit epoch and the catalog of the frontend and of every node of the
/// placement and the sharding cluster are what they were before the run.
#[test]
fn every_mode_of_the_one_runner_agrees() {
    let mut specs = equivalence_specs();
    specs.push(("fig7ish", FIG7ISH.to_string()));
    // (name, threads, elements placed over N worker nodes, run data sharded
    // over N nodes (0 = no cluster), pushdown, interconnect traffic summed
    // over the corpus as (messages, rows) — measured at the commit before
    // the two runners were merged, plus the `empty_reductions` and
    // `sparse_runs` specs as measured at the commit before the pushdown
    // merge became a `Table::select`).
    let modes = [
        ("inline", false, 0, 0, true, (0, 0)),
        ("threads", true, 0, 0, true, (0, 0)),
        ("placed/1", true, 1, 0, true, (0, 0)),
        ("placed/2", true, 2, 0, true, (49, 1813)),
        ("placed/4", true, 4, 0, true, (60, 2181)),
        ("sharded/1", false, 0, 1, true, (0, 0)),
        ("sharded/2", false, 0, 2, true, (33, 570)),
        ("sharded/4", false, 0, 4, true, (51, 870)),
        ("sharded/1 fetch", false, 0, 1, false, (0, 0)),
        ("sharded/2 fetch", false, 0, 2, false, (33, 725)),
        ("sharded/4 fetch", false, 0, 4, false, (51, 1123)),
        // Combinations the merge makes reachable. The knobs are orthogonal:
        // traffic equals the single-knob counterpart's, and the sum of both
        // when a placement and a sharding cluster are charged.
        ("placed/2 inline", false, 2, 0, true, (49, 1813)),
        ("sharded/4 threads", true, 0, 4, true, (51, 870)),
        // = placed/2 + sharded/2 fetch
        ("placed/2 on sharded/2", true, 2, 2, false, (82, 2538)),
    ];

    let mut want: Vec<(String, String, Vec<String>)> = Vec::new();
    for (mode, threads, placement, shards, pushdown, traffic) in modes {
        let db = campaign_db(2);
        if shards > 0 {
            shard(&db, shards);
        }
        let workers = (placement > 0).then(|| Cluster::new(placement, LatencyModel::none()));
        let sharding = db.sharding();
        let clusters = [
            workers.as_ref(),
            sharding.as_ref().map(|sh| &**sh.cluster()),
        ];
        let written = || -> Vec<(u64, Vec<String>)> {
            let nodes = clusters
                .iter()
                .flatten()
                .flat_map(|c| (0..c.len()).map(|i| &*c.node(i).engine));
            std::iter::once(&**db.engine())
                .chain(nodes)
                .map(|e| (e.epoch(), e.table_names()))
                .collect()
        };
        let (mut messages, mut rows) = (0, 0);
        for (k, (name, spec)) in specs.iter().enumerate() {
            let mut runner = QueryRunner::new(&db).parallel(threads).pushdown(pushdown);
            if let Some(c) = &workers {
                runner = runner.on_cluster(c);
            }
            let before = written();
            let out = runner.run(query_from_str(spec).unwrap()).unwrap();
            assert_eq!(written(), before, "{name} wrote in mode {mode}");
            let mut ids: Vec<&String> = out.artifacts.keys().collect();
            ids.sort();
            let artifacts: String = ids
                .iter()
                .map(|id| format!("[{id}]\n{}\n", out.artifacts[id.as_str()]))
                .collect();
            let vectors = vector_bits(&out);
            let order: Vec<String> = out.timings.iter().map(|t| t.id.clone()).collect();
            if want.len() == k {
                want.push((artifacts, vectors, order));
            } else {
                assert_eq!(artifacts, want[k].0, "{name} artifacts in mode {mode}");
                assert_eq!(vectors, want[k].1, "{name} vectors in mode {mode}");
                assert_eq!(order, want[k].2, "{name} timings order in mode {mode}");
            }
            assert_eq!(
                out.transfer.is_some(),
                placement + shards > 0,
                "{name} {mode}"
            );
            if let Some(t) = out.transfer {
                messages += t.messages;
                rows += t.rows;
            }
        }
        assert_eq!((messages, rows), traffic, "corpus traffic in mode {mode}");
    }
}

/// Every artifact of the equivalence corpus and of the benchmark's query set
/// (`fig7`, `solidity`, `sweep`, `formats`) over a seeded 12-run campaign —
/// 3 file systems × 2 techniques × 2 repetitions, so every filter of the
/// query set selects something.
fn corpus_artifacts(threads: bool, shards: usize) -> String {
    let def = xmldef::definition_from_str(EXPERIMENT).unwrap();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_229_830);
    let mut seed = 15;
    for rep in 1..=2 {
        for fs in [FsType::Ufs, FsType::Nfs, FsType::Pvfs] {
            for technique in [Technique::ListBased, Technique::ListLess] {
                seed += 1;
                let run = simulate(BeffIoConfig {
                    fs,
                    technique,
                    run_index: rep,
                    seed,
                    ..BeffIoConfig::default()
                });
                importer
                    .import_file(&desc, &run.filename(), &run.render())
                    .unwrap();
            }
        }
    }
    if shards > 0 {
        shard(&db, shards);
    }
    let mut specs = equivalence_specs();
    specs.push(("fig7ish", FIG7ISH.to_string()));
    for (name, xml) in [
        ("solidity", include_str!("../benchmark/data/solidity.xml")),
        ("sweep", include_str!("../benchmark/data/sweep.xml")),
        ("formats", include_str!("../benchmark/data/formats.xml")),
    ] {
        specs.push((name, xml.to_string()));
    }
    let mut all = String::new();
    for (name, spec) in &specs {
        let out = QueryRunner::new(&db)
            .parallel(threads)
            .pushdown(false)
            .run(query_from_str(spec).unwrap())
            .unwrap();
        let mut ids: Vec<&String> = out.artifacts.keys().collect();
        ids.sort();
        for id in ids {
            all.push_str(&format!("== {name} [{id}] ==\n{}\n", out.artifacts[id]));
        }
    }
    all
}

/// Same answers as the statement-per-run source element. The fixture was
/// written by the build at commit `3dfd9e8` — the last whose source element
/// sent one SELECT per run and assembled the vector row by row — by running
/// `corpus_artifacts(false, 0)` there and saving what it returns; the
/// artifacts of `empty_reductions` and `sparse_runs` were added the same
/// way, by that build over the corpus that holds them. The typed scan must
/// reproduce it byte for byte, unsharded and over remote shards.
#[test]
fn source_scan_matches_the_statement_per_run_build() {
    let want = include_str!("fixtures/source_scan/artifacts.txt");
    let headers = want.lines().filter(|l| l.starts_with("== ")).count();
    assert_eq!(
        headers, 34,
        "the fixture holds every artifact of the corpus"
    );
    for (threads, shards) in [(false, 0), (true, 0), (false, 4)] {
        let got = corpus_artifacts(threads, shards);
        assert!(
            got == want,
            "artifacts differ from the parent build's (threads={threads} shards={shards})"
        );
    }
}

#[test]
fn pushdown_moves_at_least_10x_fewer_rows() {
    // 8 runs × 24 data rows; the full-reduction AVG ships one partial row
    // per remote run instead of its 24 raw rows.
    let db = campaign_db(4);
    shard(&db, 4);
    let spec = r#"<query name="ratio"><source id="s">
         <value name="b_separate"/>
       </source>
       <operator id="a" type="avg" input="s"/>
       <output id="o" input="a" format="csv"/></query>"#;
    let pushed = QueryRunner::new(&db)
        .run(query_from_str(spec).unwrap())
        .unwrap();
    let fetched = QueryRunner::new(&db)
        .pushdown(false)
        .run(query_from_str(spec).unwrap())
        .unwrap();
    assert_eq!(pushed.artifacts["o"], fetched.artifacts["o"]);
    let tp = pushed.transfer.unwrap();
    let tf = fetched.transfer.unwrap();
    assert!(tp.rows > 0, "partials must cross the link");
    assert!(
        tf.rows >= 10 * tp.rows,
        "expected >=10x fewer rows pushed: {} vs {}",
        tp.rows,
        tf.rows
    );
}

/// Run-data tables are shipped to their owning shard on attach — and back
/// to the frontend on detach. Aggregation pushdown over the shards returns
/// the same artifact as frontend materialization while moving fewer rows,
/// so the vectorized path and the pushdown planner compose.
#[test]
fn pushdown_over_columnar_shards_matches_and_keeps_layout() {
    let db = campaign_db(2);
    shard(&db, 4);
    let sh = db.sharding().unwrap();
    let cluster = sh.cluster().clone();
    let mut placed = 0;
    for run_id in db.run_ids().unwrap() {
        let owner = sh.map().node_of(run_id).expect("every run is placed");
        let table = format!("pb_rundata_{run_id}");
        let eng = &cluster.node(owner).engine;
        assert!(eng.has_table(&table), "{table} is not on node {owner}");
        placed += 1;
    }
    assert!(placed > 0, "campaign must place runs");

    let spec = r#"<query name="colshard"><source id="s">
         <parameter name="technique" carry="true"/>
         <parameter name="s_chunk" carry="true"/>
         <value name="b_separate"/>
       </source>
       <operator id="a" type="avg" input="s"/>
       <output id="o" input="a" format="csv"/></query>"#;
    let pushed = QueryRunner::new(&db)
        .run(query_from_str(spec).unwrap())
        .unwrap();
    let fetched = QueryRunner::new(&db)
        .pushdown(false)
        .run(query_from_str(spec).unwrap())
        .unwrap();
    assert_eq!(pushed.artifacts["o"], fetched.artifacts["o"]);
    let (tp, tf) = (pushed.transfer.unwrap(), fetched.transfer.unwrap());
    assert!(
        tp.rows < tf.rows,
        "pushdown over columnar shards must move fewer rows ({} vs {})",
        tp.rows,
        tf.rows
    );

    db.detach_cluster().unwrap();
    for run_id in db.run_ids().unwrap() {
        let table = format!("pb_rundata_{run_id}");
        assert!(
            db.engine().has_table(&table),
            "{table} did not return to the frontend on detach"
        );
    }
}

#[test]
fn lan_latency_is_charged_per_query() {
    let db = campaign_db(2);
    let cluster = Arc::new(Cluster::with_frontend(
        db.engine().clone(),
        4,
        LatencyModel::lan(),
    ));
    db.attach_cluster(cluster).unwrap();
    let spec = r#"<query name="lat"><source id="s">
         <value name="b_separate"/>
       </source>
       <operator id="a" type="sum" input="s"/>
       <output id="o" input="a" format="csv"/></query>"#;
    let out = QueryRunner::new(&db)
        .run(query_from_str(spec).unwrap())
        .unwrap();
    let t = out.transfer.unwrap();
    assert!(t.messages > 0);
    assert!(
        !t.simulated.is_zero(),
        "lan latency model must accrue simulated time"
    );
}

#[test]
fn shard_map_is_stable_across_reattach_and_growth() {
    let db = campaign_db(2);
    shard(&db, 2);
    let before = db.sharding().unwrap().map().assignments();
    db.detach_cluster().unwrap();

    // Re-attach with more nodes: existing runs must keep their placement
    // (recorded in pb_shards), only unplaced runs may land on new nodes.
    shard(&db, 4);
    let after = db.sharding().unwrap().map().assignments();
    for (run, node) in &before {
        let kept = after.iter().find(|(r, _)| r == run).map(|(_, n)| *n);
        assert_eq!(kept, Some(*node), "run {run} moved when the cluster grew");
    }
    db.detach_cluster().unwrap();
}

#[test]
fn new_runs_land_on_their_owning_node() {
    let db = campaign_db(1);
    shard(&db, 4);
    let sh = db.sharding().unwrap();
    let cluster = sh.cluster().clone();
    let before = cluster.stats();

    // Import two more runs while sharded: their data tables must appear on
    // the node the shard map assigns, with the shipment charged.
    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_300_000);
    for rep in 5..=6 {
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
        let owner = sh.map().node_of(run_id).expect("every run is placed");
        let table = format!("pb_rundata_{run_id}");
        for node in 0..4 {
            assert_eq!(
                cluster.node(node).engine.has_table(&table),
                node == owner,
                "run {run_id} table on node {node}, owner {owner}"
            );
        }
    }
    let delta = cluster.stats().delta_since(&before);
    assert!(
        delta.rows > 0 || delta.messages > 0,
        "remote imports charge the link"
    );
    db.detach_cluster().unwrap();
    // After detaching, everything is back on the frontend.
    for run_id in db.run_ids().unwrap() {
        assert!(db.engine().has_table(&format!("pb_rundata_{run_id}")));
    }
}
