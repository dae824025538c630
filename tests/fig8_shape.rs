//! Fig. 8 reproduction (experiment F8): the relative-difference bar chart
//! of list-less vs. list-based non-contiguous I/O.
//!
//! The paper's finding: "this plot shows a scenario in which the new
//! list-less technique is about 60% slower than the old list-based
//! technique for large read accesses. In fact, this was a performance
//! bug." We assert that exact *shape* from the query artifacts:
//!
//! * the relative difference is ≈ −60 % for large non-contiguous reads,
//! * positive (list-less wins) for non-contiguous writes/rewrites,
//! * ≈ 0 for contiguous patterns (the technique only touches
//!   non-contiguous I/O).

use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::Importer;
use perfbase::core::input::input_description_from_str;
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::QueryRunner;
use perfbase::core::xmldef;
use perfbase::sqldb::Engine;
use perfbase::workloads::beffio::{simulate, BeffIoConfig, Technique};
use std::sync::Arc;

const EXPERIMENT: &str = include_str!("../crates/bench/data/b_eff_io_experiment.xml");
const INPUT: &str = include_str!("../crates/bench/data/b_eff_io_input.xml");
const QUERY: &str = include_str!("../crates/bench/data/b_eff_io_query.xml");

/// Run the whole §5 campaign and collect (s_chunk, mode, relative %) rows
/// from the gnuplot artifact's inline data block (the artifact is what a
/// user keeps of a query).
fn fig8_rows_from_artifact() -> Vec<(i64, String, f64)> {
    let def = xmldef::definition_from_str(EXPERIMENT).unwrap();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_229_830);
    for technique in [Technique::ListBased, Technique::ListLess] {
        for rep in 1..=5u32 {
            let run = simulate(BeffIoConfig {
                technique,
                run_index: rep,
                seed: u64::from(rep) * 31 + technique.file_tag().len() as u64,
                ..BeffIoConfig::default()
            });
            importer
                .import_file(&desc, &run.filename(), &run.render())
                .unwrap();
        }
    }
    let out = QueryRunner::new(&db)
        .run(query_from_str(QUERY).unwrap())
        .unwrap();
    let gp = &out.artifacts["plot"];

    // Rows inside the $data << EOD ... EOD block look like:  "1032/read" -59.9
    let mut rows = Vec::new();
    let mut in_data = false;
    for line in gp.lines() {
        if line.starts_with("$data") {
            in_data = true;
            continue;
        }
        if line == "EOD" {
            break;
        }
        if !in_data {
            continue;
        }
        let (tick, value) = line.split_once(' ').expect("data line");
        let tick = tick.trim_matches('"');
        let (chunk, mode) = tick.split_once('/').expect("chunk/mode tick");
        rows.push((
            chunk.parse::<i64>().expect("chunk"),
            mode.to_string(),
            value.trim().parse::<f64>().expect("value"),
        ));
    }
    rows
}

#[test]
fn fig8_shape_holds() {
    let rows = fig8_rows_from_artifact();
    // 8 chunk sizes × 3 modes.
    assert_eq!(rows.len(), 24);

    let rel = |chunk: i64, mode: &str| -> f64 {
        rows.iter()
            .find(|(c, m, _)| *c == chunk && m == mode)
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("row for {chunk}/{mode}"))
    };

    // 1. The headline regression: large non-contiguous reads ≈ -60 %.
    let big_read = rel(1_048_584, "read");
    assert!(
        (-70.0..=-45.0).contains(&big_read),
        "expected ≈-60% for large non-contiguous reads, got {big_read}%"
    );

    // 2. The technique wins on non-contiguous writes and rewrites.
    for mode in ["write", "rewrite"] {
        for chunk in [1032i64, 32_776, 1_048_584] {
            let v = rel(chunk, mode);
            assert!(v > 5.0, "{chunk}/{mode}: expected a win, got {v}%");
        }
    }
    // …and on small non-contiguous reads.
    for chunk in [1032i64, 32_776] {
        let v = rel(chunk, "read");
        assert!(v > 5.0, "{chunk}/read: expected a win, got {v}%");
    }

    // 3. Contiguous patterns are unaffected (differences are pure noise).
    for mode in ["write", "rewrite", "read"] {
        for chunk in [32i64, 1024, 32_768, 1_048_576, 2_097_152] {
            let v = rel(chunk, mode);
            assert!(
                v.abs() < 25.0,
                "{chunk}/{mode}: contiguous pattern should be ~0, got {v}%"
            );
        }
    }
}

#[test]
fn fig8_chart_is_presentable_unedited() {
    // The paper stresses that Fig. 8 was "shown unedited as it was created
    // by perfbase. All labels and the legend are derived from the
    // experiment definition and the query specification".
    let def = xmldef::definition_from_str(EXPERIMENT).unwrap();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db);
    for technique in [Technique::ListBased, Technique::ListLess] {
        let run = simulate(BeffIoConfig {
            technique,
            ..BeffIoConfig::default()
        });
        importer
            .import_file(&desc, &run.filename(), &run.render())
            .unwrap();
    }
    let out = QueryRunner::new(&db)
        .run(query_from_str(QUERY).unwrap())
        .unwrap();
    let gp = &out.artifacts["plot"];
    assert!(gp.contains(
        "set title \"Relative difference of performance of two algorithms for non-contiguous I/O\""
    ));
    assert!(gp.contains("set ylabel \"list-less relative to list-based [%]\""));
    // x label comes from the experiment definition's synopses.
    assert!(gp.contains("amount of data that is written or read"));
    assert!(gp.contains("set style data histogram"));
    assert!(gp.contains("plot $data"));
}
