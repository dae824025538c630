//! Direct coverage of the cluster transfer accounting: every cross-node
//! shipment charges one header/schema message plus one payload message,
//! across 1/2/4-node clusters, and the sharded query path moves fewer rows
//! with aggregation pushdown on than off.

use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::Engine;

fn seeded_cluster(nodes: usize, rows: usize) -> Cluster {
    let c = Cluster::new(nodes, LatencyModel::none());
    let e = &c.node(0).engine;
    e.execute("CREATE TABLE src (id INTEGER, v FLOAT)").unwrap();
    let values: Vec<String> = (0..rows).map(|i| format!("({i}, {i}.5)")).collect();
    e.execute(&format!("INSERT INTO src VALUES {}", values.join(",")))
        .unwrap();
    c
}

#[test]
fn copy_table_charges_header_plus_payload_per_node() {
    for nodes in [1usize, 2, 4] {
        let c = seeded_cluster(nodes, 10);
        c.reset_stats();
        for dst in 1..nodes {
            let moved = c.copy_table(0, "src", dst, "src").unwrap();
            assert_eq!(moved, 10);
        }
        let s = c.stats();
        let shipments = (nodes - 1) as u64;
        // Two messages per shipment: the header/schema round trip (0 rows)
        // and the row payload.
        assert_eq!(s.messages, 2 * shipments, "nodes={nodes}");
        assert_eq!(s.rows, 10 * shipments, "nodes={nodes}");
    }
}

#[test]
fn same_node_copy_is_free() {
    let c = seeded_cluster(2, 5);
    c.reset_stats();
    c.copy_table(0, "src", 0, "src_copy").unwrap();
    let s = c.stats();
    assert_eq!(s.messages, 0);
    assert_eq!(s.rows, 0);
    assert!(c.node(0).engine.has_table("src_copy"));
}

#[test]
fn empty_table_shipment_is_not_free() {
    let c = Cluster::new(2, LatencyModel::none());
    c.node(0)
        .engine
        .execute("CREATE TABLE empty (x INTEGER)")
        .unwrap();
    c.reset_stats();
    c.copy_table(0, "empty", 1, "empty").unwrap();
    let s = c.stats();
    // Header/schema round trip + zero-row payload: two messages, no rows.
    assert_eq!(s.messages, 2);
    assert_eq!(s.rows, 0);
}

#[test]
fn materialize_and_fetch_accounting() {
    let c = seeded_cluster(2, 8);
    c.reset_stats();

    // A table materialised on the node that consumes it.
    assert_eq!(c.copy_table(0, "src", 1, "pb_tmp_m").unwrap(), 8);
    let s = c.stats();
    assert_eq!(s.messages, 2, "materialize = header + payload");
    assert_eq!(s.rows, 8);

    // Remote fetch charges one payload message; local fetch charges none.
    c.reset_stats();
    let fetched = c
        .fetch(1, 0, "SELECT * FROM pb_tmp_m WHERE id < 4")
        .unwrap();
    assert_eq!(fetched.len(), 4);
    assert_eq!(c.stats().messages, 1);
    assert_eq!(c.stats().rows, 4);

    c.reset_stats();
    c.fetch(0, 0, "SELECT * FROM src").unwrap();
    assert_eq!(c.stats().messages, 0);
}

#[test]
fn delta_since_subtracts_earlier_snapshot() {
    let c = seeded_cluster(2, 6);
    c.reset_stats();
    c.copy_table(0, "src", 1, "src").unwrap();
    let earlier = c.stats();
    c.copy_table(0, "src", 1, "src2").unwrap();
    let delta = c.stats().delta_since(&earlier);
    assert_eq!(delta.messages, 2);
    assert_eq!(delta.rows, 6);
}

/// Build an engine holding a small campaign, shard it over `nodes`, run one
/// decomposable aggregation, and return the transfer rows moved.
fn sharded_query_rows(nodes: usize, pushdown: bool) -> u64 {
    use perfbase::core::experiment::ExperimentDb;
    use perfbase::core::import::Importer;
    use perfbase::core::input::input_description_from_str;
    use perfbase::core::query::spec::query_from_str;
    use perfbase::core::query::QueryRunner;
    use perfbase::core::xmldef::definition_from_str;
    use perfbase::workloads::beffio::{simulate, BeffIoConfig, Technique};
    use std::sync::Arc;

    let def =
        definition_from_str(include_str!("../crates/bench/data/b_eff_io_experiment.xml")).unwrap();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
    let desc = input_description_from_str(include_str!("../crates/bench/data/b_eff_io_input.xml"))
        .unwrap();
    for rep in 1..=4u32 {
        let run = simulate(BeffIoConfig {
            technique: Technique::ListBased,
            run_index: rep,
            seed: u64::from(rep),
            ..BeffIoConfig::default()
        });
        Importer::new(&db)
            .at_time(1_100_000_000 + i64::from(rep))
            .import_file(&desc, &run.filename(), &run.render())
            .unwrap();
    }

    let cluster = Arc::new(Cluster::with_frontend(
        db.engine().clone(),
        nodes,
        LatencyModel::none(),
    ));
    db.attach_cluster(cluster).unwrap();
    // A fully-decomposable reduction: pushdown ships one AVG partial per
    // remote run instead of each run's raw data rows.
    let spec = query_from_str(
        r#"<query name="rows_moved"><source id="s">
             <value name="b_separate"/>
           </source>
           <operator id="a" type="avg" input="s"/>
           <output id="o" input="a" format="csv"/></query>"#,
    )
    .unwrap();
    let outcome = QueryRunner::new(&db).pushdown(pushdown).run(spec).unwrap();
    db.detach_cluster().unwrap();
    outcome
        .transfer
        .expect("sharded query reports transfer")
        .rows
}

#[test]
fn pushdown_moves_fewer_rows_than_materialization() {
    for nodes in [2usize, 4] {
        let with_pushdown = sharded_query_rows(nodes, true);
        let without = sharded_query_rows(nodes, false);
        assert!(
            with_pushdown < without,
            "nodes={nodes}: pushdown moved {with_pushdown} rows, \
             materialization moved {without}"
        );
    }
}
