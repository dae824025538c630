//! Scaling prediction for parallel query execution (paper §4.3, Fig. 3).
//!
//! The runner itself — threads, element placement, sharding — is
//! [`super::exec::QueryRunner`]; this module only turns its measured
//! timings into the paper's scaling curve.

use super::exec::ElementTiming;
use super::QueryDag;

/// Predicted wall-clock of executing measured per-element timings on an
/// `nodes`-node cluster under the Fig. 3 placement (wave-synchronous,
/// round-robin assignment, output vectors shipped to the consuming node).
///
/// This turns one *sequential* profiling run into the paper's scaling
/// curve: the host running this reproduction may have a single core, but
/// the element durations and output row counts are real measurements, and
/// the interconnect cost comes from the same [`sqldb::cluster::LatencyModel`] the live
/// cluster simulation charges. Per wave, each node works through its
/// assigned elements serially; a node consuming an off-node input first
/// pays the socket cost for that input's rows; the wave ends when the
/// slowest node finishes.
pub fn simulated_makespan(
    dag: &QueryDag,
    timings: &[ElementTiming],
    nodes: usize,
    latency: sqldb::cluster::LatencyModel,
) -> std::time::Duration {
    use std::time::Duration;
    let nodes = nodes.max(1);
    let timing_of = |i: usize| {
        let id = &dag.spec.elements[i].id;
        timings.iter().find(|t| &t.id == id)
    };
    let node_of = |i: usize| i % nodes;

    let mut makespan = Duration::ZERO;
    for wave in dag.waves() {
        let mut busy = vec![Duration::ZERO; nodes];
        for &i in &wave {
            let n = node_of(i);
            let mut cost = timing_of(i).map_or(Duration::ZERO, |t| t.wall);
            for &j in &dag.input_idx[i] {
                if node_of(j) != n {
                    cost += latency.cost(timing_of(j).map_or(0, |t| t.rows));
                }
            }
            busy[n] += cost;
        }
        makespan += busy.into_iter().max().unwrap_or(Duration::ZERO);
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::exec::tests::{seeded_db, FIG7ISH};
    use crate::query::spec::query_from_str;
    use crate::query::QueryRunner;
    use sqldb::cluster::LatencyModel;

    #[test]
    fn makespan_shrinks_with_nodes_and_respects_latency() {
        let db = seeded_db();
        let out = QueryRunner::new(&db)
            .run(query_from_str(FIG7ISH).unwrap())
            .unwrap();
        let dag = crate::query::QueryDag::build(query_from_str(FIG7ISH).unwrap()).unwrap();
        let m1 = simulated_makespan(&dag, &out.timings, 1, LatencyModel::none());
        let m2 = simulated_makespan(&dag, &out.timings, 2, LatencyModel::none());
        let total: std::time::Duration = out.timings.iter().map(|t| t.wall).sum();
        // One node = the full serial work; two nodes strictly less (the two
        // source/operator chains are independent).
        assert_eq!(m1, total);
        assert!(m2 < m1, "2-node makespan {m2:?} must beat 1-node {m1:?}");
        // Latency makes distribution more expensive, never cheaper.
        let m2_lan = simulated_makespan(&dag, &out.timings, 2, LatencyModel::lan());
        assert!(m2_lan >= m2);
    }
}
