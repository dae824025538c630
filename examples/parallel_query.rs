//! Query parallelisation (paper §4.3, Fig. 3): run the same query with the
//! one `QueryRunner` — sequentially, thread-parallel (`.parallel(true)`) and
//! distributed over a simulated database cluster (`.on_cluster(&cluster)`)
//! — and report timings, the source-element time fraction, and the
//! simulated socket traffic.
//!
//! Run with: `cargo run --release --example parallel_query`

use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::Importer;
use perfbase::core::input::input_description_from_str;
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::QueryRunner;
use perfbase::core::xmldef;
use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::Engine;
use perfbase::workloads::beffio::{simulate, BeffIoConfig, FsType, Technique};
use std::sync::Arc;
use std::time::Instant;

const EXPERIMENT: &str = include_str!("../crates/bench/data/b_eff_io_experiment.xml");
const INPUT: &str = include_str!("../crates/bench/data/b_eff_io_input.xml");

/// A parameter-sweep-shaped query: one source + aggregation chain per file
/// system, then a combining stage — this is the "significant degree of
/// parallelism" case of §4.3.
fn sweep_query() -> String {
    let mut elements = String::new();
    let mut combine_inputs = Vec::new();
    for fs in ["ufs", "nfs", "pvfs"] {
        for mode in ["write", "rewrite", "read"] {
            let id = format!("{fs}_{mode}");
            elements.push_str(&format!(
                r#"<source id="s_{id}">
                     <parameter name="fs" value="{fs}"/>
                     <parameter name="mode" value="{mode}"/>
                     <parameter name="s_chunk" carry="true"/>
                     <value name="b_separate"/>
                   </source>
                   <operator id="avg_{id}" type="avg" input="s_{id}"/>
                   <operator id="top_{id}" type="max" input="avg_{id}"/>
                "#
            ));
            combine_inputs.push(format!("top_{id}"));
        }
    }
    // Reduce all nine per-configuration maxima into a single best number.
    elements.push_str(&format!(
        r#"<operator id="best" type="max" input="{}"/>
           <output id="o" input="best" format="csv"/>"#,
        combine_inputs.join(",")
    ));
    format!("<query name=\"sweep\">{elements}</query>")
}

fn main() {
    // --- build a data set covering the sweep --------------------------------
    let def = xmldef::definition_from_str(EXPERIMENT).unwrap();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_229_830);
    let mut seed = 1;
    for fs in [FsType::Ufs, FsType::Nfs, FsType::Pvfs] {
        for rep in 1..=4u32 {
            let run = simulate(BeffIoConfig {
                fs,
                technique: Technique::ListBased,
                run_index: rep,
                seed,
                ..BeffIoConfig::default()
            });
            importer
                .import_file(&desc, &run.filename(), &run.render())
                .unwrap();
            seed += 1;
        }
    }
    println!("imported {} runs", db.run_ids().unwrap().len());

    let spec = sweep_query();

    // --- sequential ----------------------------------------------------------
    let t = Instant::now();
    let seq = QueryRunner::new(&db)
        .run(query_from_str(&spec).unwrap())
        .unwrap();
    let t_seq = t.elapsed();
    println!(
        "sequential:      {t_seq:>10.3?}  (source fraction {:.1}%)",
        seq.source_time_fraction() * 100.0
    );

    // --- predicted scaling from the profiled run -------------------------------
    // Wall-clock thread speedup needs more cores than this host may have
    // (the paper's cluster had many nodes); the makespan model schedules
    // the *measured* element timings onto N nodes under the Fig. 3
    // placement and socket-cost model.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("(this host has {cores} core(s); predicted cluster scaling from profile:)");
    let dag = perfbase::core::query::QueryDag::build(query_from_str(&spec).unwrap()).unwrap();
    let serial: std::time::Duration = seq.timings.iter().map(|t| t.wall).sum();
    for nodes in [2usize, 4, 8] {
        let makespan = perfbase::core::query::parallel::simulated_makespan(
            &dag,
            &seq.timings,
            nodes,
            LatencyModel::fast_interconnect(),
        );
        println!(
            "  {nodes} nodes: predicted {makespan:>10.3?}  ({:.2}x)",
            serial.as_secs_f64() / makespan.as_secs_f64()
        );
    }

    // --- thread-parallel ------------------------------------------------------
    let t = Instant::now();
    let par = QueryRunner::new(&db)
        .parallel(true)
        .run(query_from_str(&spec).unwrap())
        .unwrap();
    let t_par = t.elapsed();
    println!("thread-parallel: {t_par:>10.3?}");
    assert_eq!(seq.artifacts["o"], par.artifacts["o"], "results must agree");

    // --- distributed over a simulated cluster ---------------------------------
    for nodes in [2usize, 4, 8] {
        let cluster = Cluster::new(nodes, LatencyModel::fast_interconnect());
        let t = Instant::now();
        let dist = QueryRunner::new(&db)
            .parallel(true)
            .on_cluster(&cluster)
            .run(query_from_str(&spec).unwrap())
            .unwrap();
        let elapsed = t.elapsed();
        let stats = cluster.stats();
        println!(
            "cluster n={nodes}:     {elapsed:>10.3?}  ({} messages, {} rows, {:?} socket time)",
            stats.messages, stats.rows, stats.simulated
        );
        assert_eq!(
            seq.artifacts["o"], dist.artifacts["o"],
            "results must agree"
        );
    }

    println!("\nbest observed bandwidth series:\n{}", seq.artifacts["o"]);
}
