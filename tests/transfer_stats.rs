//! Direct coverage of the cluster transfer accounting: every cross-node
//! shipment charges one header/schema message plus one payload message,
//! across 1/2/4-node clusters, and the sharded query path moves fewer rows
//! with aggregation pushdown on than off.

use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::sql::{parse_statement, SelectStmt, Stmt};
use perfbase::sqldb::Engine;
use std::sync::Arc;

/// A cluster whose node `node` holds `src (id, v)` with `rows` rows.
fn select(text: &str) -> SelectStmt {
    match parse_statement(text).unwrap() {
        Stmt::Select(sel) => sel,
        other => panic!("not a SELECT: {other:?}"),
    }
}

fn seeded_cluster(nodes: usize, node: usize, rows: usize) -> Cluster {
    let c = Cluster::new(nodes, LatencyModel::none());
    let e = &c.node(node).engine;
    e.execute("CREATE TABLE src (id INTEGER, v FLOAT)").unwrap();
    let values: Vec<String> = (0..rows).map(|i| format!("({i}, {i}.5)")).collect();
    e.execute(&format!("INSERT INTO src VALUES {}", values.join(",")))
        .unwrap();
    c
}

#[test]
fn shipment_charges_header_plus_payload_per_node() {
    for nodes in [1usize, 2, 4] {
        let c = Cluster::new(nodes, LatencyModel::none());
        for _dst in 1..nodes {
            c.charge_shipment(10);
        }
        let s = c.stats();
        let shipments = (nodes - 1) as u64;
        // Two messages per shipment: the header/schema round trip (0 rows)
        // and the row payload.
        assert_eq!(s.messages, 2 * shipments, "nodes={nodes}");
        assert_eq!(s.rows, 10 * shipments, "nodes={nodes}");
    }
}

/// A vector whose consumers sit on the node that produced it is handed
/// over, not shipped: a query placed on a one-node cluster charges nothing,
/// and neither does a read on the node that holds the table.
#[test]
fn same_node_copy_is_free() {
    use perfbase::core::query::spec::query_from_str;
    use perfbase::core::query::QueryRunner;
    let db = campaign_db();
    let spec = r#"<query name="on_node"><source id="s">
           <parameter name="s_chunk" carry="true"/><value name="b_separate"/>
         </source>
         <operator id="lo" type="min" input="s"/>
         <operator id="hi" type="max" input="s"/>
         <operator id="d" type="diff" input="hi,lo"/>
         <output id="o" input="d" format="csv"/></query>"#;
    let placed = |nodes: usize| {
        let c = Cluster::new(nodes, LatencyModel::none());
        let out = QueryRunner::new(&db).on_cluster(&c);
        out.run(query_from_str(spec).unwrap()).unwrap().transfer
    };
    assert_eq!(placed(1), Some(Default::default()));
    assert!(placed(3).expect("placed runs report transfer").messages > 0);

    let c = seeded_cluster(2, 1, 5);
    c.select(1, 1, "src", &select("SELECT * FROM src")).unwrap();
    c.scan(1, 1, "src", None, |_, rows| Ok(rows.len())).unwrap();
    assert_eq!(c.stats(), Default::default());
}

#[test]
fn empty_table_shipment_is_not_free() {
    let c = Cluster::new(2, LatencyModel::none());
    c.charge_shipment(0);
    let s = c.stats();
    // Header/schema round trip + zero-row payload: two messages, no rows.
    assert_eq!(s.messages, 2);
    assert_eq!(s.rows, 0);
}

#[test]
fn materialize_and_fetch_accounting() {
    // A table on the node that consumes it, shipped there as a whole.
    let c = seeded_cluster(2, 1, 8);
    c.charge_shipment(8);
    let s = c.stats();
    assert_eq!(s.messages, 2, "shipment = header + payload");
    assert_eq!(s.rows, 8);

    // Remote fetch charges one payload message; local fetch charges none.
    c.reset_stats();
    let fetched = c
        .select(1, 0, "src", &select("SELECT * FROM src WHERE id < 4"))
        .unwrap();
    assert_eq!(fetched.len(), 4);
    assert_eq!(c.stats().messages, 1);
    assert_eq!(c.stats().rows, 4);

    c.reset_stats();
    c.select(1, 1, "src", &select("SELECT * FROM src")).unwrap();
    assert_eq!(c.stats().messages, 0);
}

#[test]
fn delta_since_subtracts_earlier_snapshot() {
    let c = Cluster::new(2, LatencyModel::none());
    c.charge_shipment(6);
    let earlier = c.stats();
    c.charge_shipment(6);
    let delta = c.stats().delta_since(&earlier);
    assert_eq!(delta.messages, 2);
    assert_eq!(delta.rows, 6);
}

/// An engine holding a small b_eff_io campaign (four list-based runs).
fn campaign_db() -> perfbase::core::experiment::ExperimentDb {
    use perfbase::core::experiment::ExperimentDb;
    use perfbase::core::import::Importer;
    use perfbase::core::input::input_description_from_str;
    use perfbase::core::xmldef::definition_from_str;
    use perfbase::workloads::beffio::{simulate, BeffIoConfig, Technique};

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
    db
}

/// Shard the small campaign over `nodes`, run one decomposable aggregation,
/// and return the transfer rows moved.
fn sharded_query_rows(nodes: usize, pushdown: bool) -> u64 {
    use perfbase::core::query::spec::query_from_str;
    use perfbase::core::query::QueryRunner;

    let db = campaign_db();
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
