//! Run-data sharding across the simulated cluster (paper Fig. 3 at data
//! scale).
//!
//! When an [`ExperimentDb`](super::ExperimentDb) is attached to a
//! [`Cluster`], each per-run data table (`pb_rundata_<id>`) migrates to the
//! node a [`ShardMap`] deterministically assigns to the run id. The
//! frontend node (index 0) keeps the run index (`pb_runs`), all metadata
//! tables, and the shard map itself — persisted as `pb_shards(run_id,
//! node)` so placements survive re-attachment and stay stable when the
//! cluster grows.
//!
//! The query layer (`core::query::exec`) consults this context to decide
//! where a run's data lives: a source scans each run *on the node that
//! holds it*, and the answer is charged to the cluster's
//! [`TransferStats`](sqldb::cluster::TransferStats) as the selected rows, or
//! as the reduced partials when the source is fused with a pushable
//! aggregation.

use sqldb::cluster::{Cluster, ShardMap};
use sqldb::{Engine, Replicator};
use std::sync::Arc;

/// The sharding context of an experiment database: the attached cluster
/// plus the run-id → node map, and — when replication is enabled — the
/// [`Replicator`] that ships each primary's WAL frames to its replicas
/// and routes reads across them. Handed out as an `Arc` by
/// [`ExperimentDb::sharding`](super::ExperimentDb::sharding).
pub struct Sharding {
    cluster: Arc<Cluster>,
    map: ShardMap,
    repl: Option<Arc<Replicator>>,
}

impl Sharding {
    /// New context over `cluster` with placements from `map`.
    pub(crate) fn new(cluster: Arc<Cluster>, map: ShardMap) -> Self {
        Sharding {
            cluster,
            map,
            repl: None,
        }
    }

    /// New replicated context: `repl` ships WAL frames and routes reads.
    pub(crate) fn with_replication(
        cluster: Arc<Cluster>,
        map: ShardMap,
        repl: Arc<Replicator>,
    ) -> Self {
        Sharding {
            cluster,
            map,
            repl: Some(repl),
        }
    }

    /// The replication controller, when `--replicas` > 0.
    pub fn replicator(&self) -> Option<&Arc<Replicator>> {
        self.repl.as_ref()
    }

    /// The node to *serve a read* of `run_id`'s data: with replication,
    /// round-robin across the owner and its fresh replicas (stale or dead
    /// replicas fall back to the owner); without, the owner itself.
    pub fn read_node_of(&self, run_id: i64) -> usize {
        let owner = self.owner_of(run_id);
        match &self.repl {
            Some(r) => r.read_node_for(owner),
            None => owner,
        }
    }

    /// The attached cluster (for transfer stats and cross-node fetches).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The run-id → node shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The node owning `run_id`'s data table, assigning one deterministically
    /// if the run was never placed.
    pub fn owner_of(&self, run_id: i64) -> usize {
        self.map.place(run_id)
    }

    /// The engine of the node owning `run_id`'s data table.
    pub fn engine_of(&self, run_id: i64) -> &Arc<Engine> {
        &self.cluster.node(self.owner_of(run_id)).engine
    }
}

impl std::fmt::Debug for Sharding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharding")
            .field("nodes", &self.cluster.len())
            .field("assignments", &self.map.assignments().len())
            .field("replicas", &self.map.replicas())
            .finish()
    }
}
