//! Simulated database cluster (paper §4.3, Fig. 3) with run-data sharding.
//!
//! The paper proposes distributing perfbase query elements across cluster
//! nodes, each running an independent database server; an element's output
//! table lives **on the node that consumes it**, and remote access happens
//! "via sockets, possibly using a high-speed interconnection network".
//!
//! We do not have a cluster, so this module simulates one: every [`Node`]
//! owns an independent [`Engine`], and all cross-node data movement goes
//! through [`Cluster::select`] / [`Cluster::scan`] — or, for data an upper
//! layer holds itself (a query element's output vector), is charged through
//! [`Cluster::charge_transfer`] / [`Cluster::charge_shipment`] — at a
//! configurable socket-latency cost (a real `thread::sleep`, so wall-clock
//! benchmarks see it), recorded in the transfer statistics. Same-node access
//! is free, exactly like the paper's placement argument.
//!
//! Beyond element-level placement, the cluster supports **data-level
//! sharding**: a [`ShardMap`] deterministically assigns each run id to an
//! owning node, so the per-run `pb_rundata_<id>` tables can be distributed
//! across the cluster and aggregations can execute where the data lives
//! (Fig. 3 at data scale). The frontend node (index 0) always keeps the
//! run index (`pb_runs`) and the shard map itself; [`Cluster::with_frontend`]
//! builds a cluster whose node 0 *is* an existing experiment engine, so
//! the same database can be queried sharded or unsharded.
#![warn(missing_docs)]

use crate::engine::{Engine, ResultSet};
use crate::error::DbError;
use crate::sql::{SelectStmt, SqlExpr};
use crate::sync::Mutex;
use crate::table::Table;
use crate::wal::{IoFailpoint, RecoveryReport, SyncPolicy, WalOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Cost model for the simulated interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed cost per message (connection + round trip).
    pub per_message: Duration,
    /// Marginal cost per transferred row.
    pub per_row: Duration,
}

impl LatencyModel {
    /// No simulated latency (unit tests).
    pub fn none() -> Self {
        LatencyModel {
            per_message: Duration::ZERO,
            per_row: Duration::ZERO,
        }
    }

    /// A gigabit-Ethernet-like LAN: ~100 µs per message, ~1 µs per row.
    pub fn lan() -> Self {
        LatencyModel {
            per_message: Duration::from_micros(100),
            per_row: Duration::from_micros(1),
        }
    }

    /// A high-speed interconnect (the paper's preferred option): ~10 µs per
    /// message, ~100 ns per row.
    pub fn fast_interconnect() -> Self {
        LatencyModel {
            per_message: Duration::from_micros(10),
            per_row: Duration::from_nanos(100),
        }
    }

    /// Total cost of moving `rows` rows in one message.
    pub fn cost(&self, rows: usize) -> Duration {
        self.per_message + self.per_row * rows as u32
    }
}

/// Aggregate transfer statistics for a cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Cross-node messages sent.
    pub messages: u64,
    /// Rows moved between nodes.
    pub rows: u64,
    /// Total simulated socket time.
    pub simulated: Duration,
}

impl TransferStats {
    /// Traffic accrued since `earlier` (a snapshot taken from the same
    /// cluster) — the per-query accounting used by
    /// `QueryOutcome::transfer`.
    pub fn delta_since(&self, earlier: &TransferStats) -> TransferStats {
        TransferStats {
            messages: self.messages.saturating_sub(earlier.messages),
            rows: self.rows.saturating_sub(earlier.rows),
            simulated: self.simulated.saturating_sub(earlier.simulated),
        }
    }
}

/// Deterministic placement of run ids onto cluster nodes.
///
/// New runs are placed by an FNV-1a hash of the run id modulo the node
/// count; every placement decision is **recorded**, and recorded
/// assignments always win over the hash. That makes the map *stable under
/// node-count changes*: reattaching a grown cluster keeps every existing
/// run where its data already lives (only ids whose recorded node no
/// longer exists are re-hashed), so growing from 2 to 4 nodes never
/// reshuffles old data.
#[derive(Debug)]
pub struct ShardMap {
    nodes: usize,
    /// Replica copies each shard keeps beyond its primary (0 = none).
    replicas: usize,
    assigned: Mutex<HashMap<i64, usize>>,
    /// Failover redirects: a retired (dead) node and the node promoted in
    /// its place. [`ShardMap::place`] follows these so a *new* run id
    /// whose hash lands on a dead node is assigned to its successor.
    retired: Mutex<HashMap<usize, usize>>,
}

impl ShardMap {
    /// An empty map over `nodes` nodes (`nodes >= 1`).
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 1, "a shard map needs at least one node");
        ShardMap {
            nodes,
            replicas: 0,
            assigned: Mutex::new(HashMap::new()),
            retired: Mutex::new(HashMap::new()),
        }
    }

    /// The same map, with each shard keeping `replicas` replica copies on
    /// nodes distinct from the primary (capped by the backend count — see
    /// [`crate::repl::replica_nodes`]).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Replica copies per shard (0 = unreplicated).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The nodes holding replica copies of `primary`'s shards.
    pub fn replica_nodes(&self, primary: usize) -> Vec<usize> {
        crate::repl::replica_nodes(primary, self.nodes, self.replicas)
    }

    /// Fail node `from` over to node `to`: every run assigned to `from` is
    /// reassigned to `to`, and a redirect is recorded so future hash
    /// placements that land on `from` also resolve to `to`. Returns the
    /// run ids that moved, sorted.
    pub fn reassign_node(&self, from: usize, to: usize) -> Vec<i64> {
        let mut moved = Vec::new();
        {
            let mut a = self.assigned.lock();
            for (&run_id, node) in a.iter_mut() {
                if *node == from {
                    *node = to;
                    moved.push(run_id);
                }
            }
        }
        self.retired.lock().insert(from, to);
        moved.sort_unstable();
        moved
    }

    /// A map over `nodes` nodes seeded with previously recorded
    /// assignments (e.g. reloaded from the frontend's `pb_shards` table).
    /// Assignments pointing at a node index `>= nodes` are dropped and
    /// will be re-hashed on the next [`ShardMap::place`].
    pub fn with_assignments(
        nodes: usize,
        existing: impl IntoIterator<Item = (i64, usize)>,
    ) -> Self {
        let map = ShardMap::new(nodes);
        {
            let mut a = map.assigned.lock();
            for (run_id, node) in existing {
                if node < nodes {
                    a.insert(run_id, node);
                }
            }
        }
        map
    }

    /// Number of nodes this map distributes over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The owning node for `run_id`, assigning (and recording) one via the
    /// deterministic hash if the run was never placed before. Hash
    /// placements landing on a failed-over node follow its recorded
    /// redirect (chains allowed: two successive failovers compose).
    pub fn place(&self, run_id: i64) -> usize {
        let node = {
            let mut a = self.assigned.lock();
            match a.get(&run_id) {
                Some(&n) => n,
                None => {
                    let n = self.resolve_retired(Self::hash_node(run_id, self.nodes));
                    a.insert(run_id, n);
                    n
                }
            }
        };
        // Recorded assignments were rewritten by reassign_node, but guard
        // against a record that raced in pointing at a retired node.
        self.resolve_retired(node)
    }

    /// Follow failover redirects until a live (never-retired) node is
    /// reached; chains compose across successive failovers.
    fn resolve_retired(&self, mut node: usize) -> usize {
        let retired = self.retired.lock();
        let mut hops = 0;
        while let Some(&to) = retired.get(&node) {
            node = to;
            hops += 1;
            if hops > self.nodes {
                break; // defensive: a redirect cycle
            }
        }
        node
    }

    /// The recorded owner of `run_id`, if it was ever placed.
    pub fn node_of(&self, run_id: i64) -> Option<usize> {
        self.assigned.lock().get(&run_id).copied()
    }

    /// Drop the recorded assignment for `run_id` (run deletion).
    pub fn remove(&self, run_id: i64) {
        self.assigned.lock().remove(&run_id);
    }

    /// All recorded `(run_id, node)` assignments, sorted by run id.
    pub fn assignments(&self) -> Vec<(i64, usize)> {
        let mut v: Vec<(i64, usize)> = self.assigned.lock().iter().map(|(&r, &n)| (r, n)).collect();
        v.sort_unstable();
        v
    }

    /// The pure hash placement (FNV-1a over the run id's bytes, modulo
    /// `nodes`) — deterministic across processes and platforms.
    pub fn hash_node(run_id: i64, nodes: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in run_id.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % nodes as u64) as usize
    }
}

/// One cluster node: an id plus its own database engine.
#[derive(Debug)]
pub struct Node {
    /// Node index within the cluster.
    pub id: usize,
    /// The node-local database server. Shared (`Arc`) so node 0 can be an
    /// existing experiment engine (see [`Cluster::with_frontend`]).
    pub engine: Arc<Engine>,
}

/// A set of independent database nodes joined by a simulated interconnect.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Arc<Node>>,
    latency: LatencyModel,
    stats: Mutex<TransferStats>,
    /// One whole-node kill switch per node, distinct from any failpoint
    /// shared through [`WalOptions`]: tripping `failpoints[i]` models the
    /// death of node `i` alone, while the WAL-options failpoint may be
    /// shared by every node's log (the crash-consistency suites rely on
    /// that sharing). [`Cluster::node_wal_options`] builds per-node WAL
    /// options around these, so killing a node also kills its log.
    failpoints: Vec<Arc<IoFailpoint>>,
}

impl Cluster {
    /// Build a cluster of `n` fresh nodes (`n >= 1`). Node 0 plays the role
    /// of the frontend node holding the persistent experiment data.
    pub fn new(n: usize, latency: LatencyModel) -> Self {
        Self::build(n, latency, None)
    }

    /// Build a cluster whose frontend node (index 0) is `frontend` — an
    /// existing engine already holding experiment data — plus `n - 1`
    /// fresh backend nodes. This is the entry point for data sharding: the
    /// experiment database stays where it is and `pb_rundata_<id>` tables
    /// migrate to their owning nodes.
    pub fn with_frontend(frontend: Arc<Engine>, n: usize, latency: LatencyModel) -> Self {
        Self::build(n, latency, Some(frontend))
    }

    fn build(n: usize, latency: LatencyModel, frontend: Option<Arc<Engine>>) -> Self {
        assert!(n >= 1, "a cluster needs at least one node");
        let nodes = (0..n)
            .map(|id| {
                let engine = match (&frontend, id) {
                    (Some(f), 0) => f.clone(),
                    _ => Arc::new(Engine::new()),
                };
                Arc::new(Node { id, engine })
            })
            .collect();
        let failpoints = (0..n).map(|_| Arc::new(IoFailpoint::none())).collect();
        Cluster {
            nodes,
            latency,
            stats: Mutex::new(TransferStats::default()),
            failpoints,
        }
    }

    /// The whole-node kill switch for node `i`.
    pub fn node_failpoint(&self, i: usize) -> &Arc<IoFailpoint> {
        &self.failpoints[i]
    }

    /// Is node `i` still up? (Its kill switch has not been tripped.)
    pub fn node_alive(&self, i: usize) -> bool {
        !self.failpoints[i].is_crashed()
    }

    /// Kill node `i`: every further fetch from it fails, replication stops
    /// shipping to (or from) it, and — when its WAL was attached through
    /// [`Cluster::node_wal_options`] — its log dies with it.
    pub fn kill_node(&self, i: usize) {
        self.failpoints[i].kill();
    }

    /// WAL options wired to node `i`'s kill switch: a log attached with
    /// these dies when [`Cluster::kill_node`] trips the node.
    pub fn node_wal_options(&self, i: usize, sync: SyncPolicy) -> WalOptions {
        WalOptions {
            sync,
            failpoint: self.failpoints[i].clone(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: clusters have ≥ 1 node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Shared handle to node `i`.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        &self.nodes[i]
    }

    /// The frontend node (index 0).
    pub fn frontend(&self) -> &Arc<Node> {
        &self.nodes[0]
    }

    /// The interconnect cost model this cluster charges.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> TransferStats {
        *self.stats.lock()
    }

    /// Reset transfer statistics to zero (e.g. after the uncharged initial
    /// shard placement, so stats reflect query traffic only).
    pub fn reset_stats(&self) {
        *self.stats.lock() = TransferStats::default();
    }

    /// Publicly charge one cross-node message of `rows` rows — used by
    /// upper layers that move data between nodes through their own code
    /// path (e.g. perfbase handing an element's output vector to the
    /// consuming node).
    pub fn charge_transfer(&self, rows: usize) {
        self.charge(rows);
    }

    /// Charge a full table shipment: one header/schema round-trip message
    /// plus one payload message of `rows` rows (two messages — so even an
    /// empty table is not free). This is what a copy of an element's output
    /// vector for one more consuming node costs, and import-time routing of a
    /// new run's data to its owning node.
    pub fn charge_shipment(&self, rows: usize) {
        obs::incr(obs::Counter::ClusterShipments);
        obs::record(obs::Hist::ShipmentRows, rows as u64);
        self.charge(0); // header/schema round trip
        self.charge(rows);
    }

    fn charge(&self, rows: usize) {
        obs::incr(obs::Counter::ClusterMessages);
        obs::add(obs::Counter::ClusterRowsShipped, rows as u64);
        let cost = self.latency.cost(rows);
        {
            let mut s = self.stats.lock();
            s.messages += 1;
            s.rows += rows as u64;
            s.simulated += cost;
        }
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
    }

    /// Attach one write-ahead log per node, stored as `node<i>.wal` under
    /// `dir`, recovering each node's state first: if a checkpoint dump
    /// (`node<i>.sql`) exists and the node's engine is still empty, the
    /// dump is loaded, then every valid WAL frame is replayed and any torn
    /// tail truncated. Nodes that already carry a WAL (typically the
    /// frontend, opened durably by the experiment layer) are skipped —
    /// their slot in the returned report vector is `None`.
    pub fn attach_wal_dir(
        &self,
        dir: &Path,
        opts: &WalOptions,
    ) -> Result<Vec<Option<RecoveryReport>>, DbError> {
        self.attach_wal_dir_with(dir, |_| opts.clone())
    }

    /// Like [`Cluster::attach_wal_dir`], but with per-node WAL options —
    /// the replication suites pass `|i| cluster.node_wal_options(i, sync)`
    /// so each node's log is wired to that node's own kill switch.
    pub fn attach_wal_dir_with(
        &self,
        dir: &Path,
        opts_for: impl Fn(usize) -> WalOptions,
    ) -> Result<Vec<Option<RecoveryReport>>, DbError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| DbError::Io(format!("create {}: {e}", dir.display())))?;
        let mut reports = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            if node.engine.has_wal() {
                reports.push(None);
                continue;
            }
            let dump_path = self.node_dump_path(dir, node.id);
            let mut ckpt_seq = 0;
            if dump_path.exists() && node.engine.table_names().is_empty() {
                // The file's checkpoint stamp tells recovery which log
                // frames it already reflects (a crash between the rename
                // and the compaction leaves them in the log too — they must
                // not be double-applied).
                ckpt_seq = node.engine.restore(&dump_path)?.stamp.unwrap_or(0);
            }
            let wal_path = self.node_wal_path(dir, node.id);
            let report = node
                .engine
                .recover(&dump_path, &wal_path, opts_for(node.id), ckpt_seq)?;
            reports.push(Some(report));
        }
        Ok(reports)
    }

    /// Checkpoint every WAL-attached node: write its dump to `node<i>.sql`
    /// under `dir` and compact its log. Returns total frames dropped.
    pub fn checkpoint_wals(&self, dir: &Path) -> Result<u64, DbError> {
        let mut dropped = 0;
        for node in &self.nodes {
            if node.engine.has_wal() {
                dropped += node.engine.checkpoint(&self.node_dump_path(dir, node.id))?;
            }
        }
        Ok(dropped)
    }

    /// Force every node's pending WAL frames to stable storage — backend
    /// nodes first, the frontend (node 0) last. The frontend's log carries
    /// the publishing `pb_runs` insert, which must never become durable
    /// before the data frames it references on the backends; syncing in
    /// this order preserves the "data first, `pb_runs` last" write-order
    /// contract across the independent per-node logs. (Group-commit
    /// windows on independent logs cannot guarantee cross-log ordering in
    /// between syncs — this barrier is where the ordering is enforced.)
    pub fn sync_wals(&self) -> Result<(), DbError> {
        for node in self.nodes.iter().rev() {
            node.engine.wal_sync()?;
        }
        Ok(())
    }

    /// The WAL file for node `id` under `dir`.
    pub fn node_wal_path(&self, dir: &Path, id: usize) -> PathBuf {
        dir.join(format!("node{id}.wal"))
    }

    /// The checkpoint dump for node `id` under `dir`.
    pub fn node_dump_path(&self, dir: &Path, id: usize) -> PathBuf {
        dir.join(format!("node{id}.sql"))
    }

    /// Ask node `src` for something on behalf of node `dst`: a dead node
    /// answers nothing, and an answer that crosses nodes is charged as one
    /// message of the `rows` it carries.
    fn ask<T>(
        &self,
        src: usize,
        dst: usize,
        ask: impl FnOnce(&Engine) -> Result<T, DbError>,
        rows: impl Fn(&T) -> usize,
    ) -> Result<T, DbError> {
        if !self.node_alive(src) {
            return Err(DbError::Io(format!("node {src} is down")));
        }
        let mut span = obs::span("cluster.fetch");
        let answer = ask(&self.nodes[src].engine)?;
        let n = rows(&answer);
        span.annotate(|| format!("src={src} dst={dst} rows={n}"));
        if src != dst {
            self.charge(n);
        }
        Ok(answer)
    }

    /// Run the statement `sel` over `table` on node `src`
    /// ([`Table::select`] of the version the node pins: nothing is parsed,
    /// `sel.from` is not looked at) and return the result *here* (i.e. to the
    /// caller's node `dst`), charging socket cost when `src != dst`.
    pub fn select(
        &self,
        src: usize,
        dst: usize,
        table: &str,
        sel: &SelectStmt,
    ) -> Result<ResultSet, DbError> {
        let run = |engine: &Engine| engine.pin_table(table)?.select(sel);
        self.ask(src, dst, run, ResultSet::len)
    }

    /// The selection step of [`Cluster::select`] alone: select the rows of
    /// `table` on node `src` that satisfy `filter` ([`Engine::scan`] of a
    /// batch of one) and hand the pinned table and the positions to the
    /// caller's node `dst`. The answer is charged as one message of the rows
    /// it carries, which `carried` counts on `src` over the pinned table and
    /// the selection: the selected rows when they travel as they are, fewer
    /// when `src` reduces them first.
    pub fn scan(
        &self,
        src: usize,
        dst: usize,
        table: &str,
        filter: Option<&SqlExpr>,
        carried: impl Fn(&Table, &[usize]) -> Result<usize, DbError>,
    ) -> Result<(Arc<Table>, Vec<usize>), DbError> {
        let scan = |engine: &Engine| {
            let mut found = None;
            engine
                .scan(&[table], filter, |_, pinned, positions| {
                    let rows = carried(pinned, positions)?;
                    found = Some((pinned.clone(), positions.to_vec(), rows));
                    Ok(())
                })
                .map_err(|(_, e)| e)?;
            Ok(found.expect("a batch of one table is one call"))
        };
        let (pinned, positions, _) = self.ask(src, dst, scan, |answer| answer.2)?;
        Ok((pinned, positions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_common::select;
    use crate::value::Value;

    #[test]
    fn nodes_are_independent() {
        let c = Cluster::new(2, LatencyModel::none());
        c.node(0)
            .engine
            .execute("CREATE TABLE t (x INTEGER)")
            .unwrap();
        assert!(c.node(0).engine.has_table("t"));
        assert!(!c.node(1).engine.has_table("t"));
    }

    #[test]
    fn with_frontend_shares_engine() {
        let e = Arc::new(Engine::new());
        e.execute("CREATE TABLE t (x INTEGER)").unwrap();
        let c = Cluster::with_frontend(e.clone(), 3, LatencyModel::none());
        assert_eq!(c.len(), 3);
        assert!(Arc::ptr_eq(&c.frontend().engine, &e));
        assert!(c.node(0).engine.has_table("t"));
        assert!(!c.node(1).engine.has_table("t"));
        assert!(!c.node(2).engine.has_table("t"));
    }

    #[test]
    fn shipment_charges_header_plus_payload() {
        let c = Cluster::new(2, LatencyModel::none());
        c.charge_shipment(3);
        let s = c.stats();
        // Header/schema round trip + row payload.
        assert_eq!(s.messages, 2);
        assert_eq!(s.rows, 3);
    }

    #[test]
    fn empty_table_copy_still_charges_header() {
        let c = Cluster::new(2, LatencyModel::lan());
        c.charge_shipment(0);
        let s = c.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.rows, 0);
        // Two messages cost two per-message latencies even with no rows.
        assert_eq!(s.simulated, LatencyModel::lan().per_message * 2);
    }

    #[test]
    fn fetch_remote_charges() {
        let c = Cluster::new(2, LatencyModel::none());
        c.node(0)
            .engine
            .execute("CREATE TABLE t (x INTEGER)")
            .unwrap();
        c.node(0)
            .engine
            .execute("INSERT INTO t VALUES (1),(2)")
            .unwrap();
        let rs = c.select(0, 1, "t", &select("SELECT x FROM t")).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(c.stats().messages, 1);
        // Local fetch: no message.
        c.select(0, 0, "t", &select("SELECT x FROM t")).unwrap();
        assert_eq!(c.stats().messages, 1);
    }

    /// `scan` is `select` without the statement: same liveness check, same
    /// charge (one message, the selected rows), nothing for a local read.
    #[test]
    fn scan_charges_what_fetch_charges() {
        let selected = |_: &Table, positions: &[usize]| Ok(positions.len());
        let c = Cluster::new(2, LatencyModel::none());
        let engine = &c.node(1).engine;
        engine.execute("CREATE TABLE t (x INTEGER)").unwrap();
        engine.execute("INSERT INTO t VALUES (1),(2),(3)").unwrap();
        let filter = crate::sql::parse_expr("x >= 2").unwrap();
        let fetched = c
            .select(1, 0, "t", &select("SELECT x FROM t WHERE x >= 2"))
            .unwrap();
        let by_fetch = c.stats();
        c.reset_stats();
        let (pinned, positions) = c.scan(1, 0, "t", Some(&filter), selected).unwrap();
        assert_eq!(c.stats(), by_fetch);
        assert_eq!((by_fetch.messages, by_fetch.rows), (1, 2));
        let rows: Vec<_> = positions.iter().map(|&p| pinned.row(p)).collect();
        assert_eq!(rows, fetched.rows());
        c.scan(1, 1, "t", None, selected).unwrap();
        assert_eq!(c.stats(), by_fetch, "a local scan is free");
        c.kill_node(1);
        let down = c.scan(1, 0, "t", None, selected).unwrap_err();
        let refused = c.select(1, 0, "t", &select("SELECT x FROM t"));
        assert_eq!(down, refused.unwrap_err());
        assert_eq!(c.stats(), by_fetch, "a dead node answers nothing");
    }

    /// An answer reduced on its node is charged the rows it carries, and a
    /// count that fails is the scan's error, charged nothing.
    #[test]
    fn scan_charges_what_its_answer_carries() {
        let c = Cluster::new(2, LatencyModel::none());
        let engine = &c.node(1).engine;
        engine.execute("CREATE TABLE t (x INTEGER)").unwrap();
        engine.execute("INSERT INTO t VALUES (1),(1),(2)").unwrap();
        let by = ["x".to_string()];
        let (_, positions) = c.scan(1, 0, "t", None, |t, p| t.groups(p, &by)).unwrap();
        assert_eq!(positions.len(), 3);
        assert_eq!((c.stats().messages, c.stats().rows), (1, 2));
        let nope = ["y".to_string()];
        let err = c.scan(1, 0, "t", None, |t, p| t.groups(p, &nope));
        assert_eq!(err.unwrap_err(), DbError::NoSuchColumn("y".into()));
        assert_eq!((c.stats().messages, c.stats().rows), (1, 2));
    }

    #[test]
    fn latency_cost_arithmetic() {
        let m = LatencyModel::lan();
        assert_eq!(m.cost(0), Duration::from_micros(100));
        assert_eq!(m.cost(1000), Duration::from_micros(1100));
        assert_eq!(LatencyModel::none().cost(1_000_000), Duration::ZERO);
    }

    #[test]
    fn stats_delta_and_reset() {
        let c = Cluster::new(2, LatencyModel::none());
        c.charge_shipment(2);
        let before = c.stats();
        c.charge_shipment(2);
        let d = c.stats().delta_since(&before);
        assert_eq!(d.messages, 2);
        assert_eq!(d.rows, 2);
        c.reset_stats();
        assert_eq!(c.stats(), TransferStats::default());
    }

    #[test]
    fn per_node_wals_recover_each_node() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_cluster_wal_unit");
        std::fs::remove_dir_all(&dir).ok();
        let opts = WalOptions::with_sync(SyncPolicy::Off);

        let c = Cluster::new(3, LatencyModel::none());
        let reports = c.attach_wal_dir(&dir, &opts).unwrap();
        assert!(reports.iter().all(|r| r.is_some()));
        for (i, node) in [0usize, 1, 2].into_iter().enumerate() {
            c.node(node)
                .engine
                .execute("CREATE TABLE t (x INTEGER)")
                .unwrap();
            c.node(node)
                .engine
                .execute(&format!("INSERT INTO t VALUES ({i}), ({})", i * 10))
                .unwrap();
        }
        c.sync_wals().unwrap();
        drop(c);

        // "Restart": fresh engines, same WAL directory.
        let c2 = Cluster::new(3, LatencyModel::none());
        let reports = c2.attach_wal_dir(&dir, &opts).unwrap();
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().frames_replayed, 2, "node {i}");
        }
        for node in 0..3 {
            let rs = c2
                .node(node)
                .engine
                .query("SELECT count(*) FROM t")
                .unwrap();
            assert_eq!(rs.rows()[0][0], Value::Int(2), "node {node}");
        }

        // Checkpoint compacts every log; a third restart loads the dumps.
        c2.checkpoint_wals(&dir).unwrap();
        assert!(c2.node(1).engine.wal_frames() == 0);
        drop(c2);
        let c3 = Cluster::new(3, LatencyModel::none());
        let reports = c3.attach_wal_dir(&dir, &opts).unwrap();
        for r in &reports {
            assert_eq!(
                r.as_ref().unwrap().frames_replayed,
                0,
                "post-checkpoint log is empty"
            );
        }
        for node in 0..3 {
            assert_eq!(c3.node(node).engine.row_count("t").unwrap(), 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attach_wal_dir_skips_nodes_with_wal() {
        use crate::wal::{SyncPolicy, Wal};
        let dir = std::env::temp_dir().join("perfbase_cluster_wal_skip");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let opts = WalOptions::with_sync(SyncPolicy::Off);
        let frontend = Arc::new(Engine::new());
        let wal = Wal::create(&dir.join("frontend.wal"), opts.clone(), 1).unwrap();
        frontend.attach_wal(wal);
        let c = Cluster::with_frontend(frontend, 2, LatencyModel::none());
        let reports = c.attach_wal_dir(&dir, &opts).unwrap();
        assert!(reports[0].is_none(), "frontend already has a WAL");
        assert!(reports[1].is_some());
        assert!(!dir.join("node0.wal").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_map_is_deterministic() {
        let m1 = ShardMap::new(4);
        let m2 = ShardMap::new(4);
        for id in 0..64 {
            assert_eq!(m1.place(id), m2.place(id));
            assert_eq!(m1.place(id), ShardMap::hash_node(id, 4));
            assert!(m1.place(id) < 4);
        }
        // All four nodes get some share of 64 sequential ids.
        let mut used = [false; 4];
        for id in 0..64 {
            used[m1.place(id)] = true;
        }
        assert!(used.iter().all(|&u| u), "placement skews: {used:?}");
    }

    #[test]
    fn shard_map_stable_when_cluster_grows() {
        let small = ShardMap::new(2);
        let placed: Vec<(i64, usize)> = (1..=16).map(|id| (id, small.place(id))).collect();
        // Grow to 4 nodes, seeding the recorded assignments: every existing
        // run keeps its node even though the hash over 4 nodes differs.
        let grown = ShardMap::with_assignments(4, placed.clone());
        for &(id, node) in &placed {
            assert_eq!(grown.place(id), node, "run {id} moved on grow");
        }
        // A fresh run may use the whole grown cluster.
        assert_eq!(grown.place(1000), ShardMap::hash_node(1000, 4));
    }

    #[test]
    fn shard_map_rehashes_only_displaced_runs_on_shrink() {
        let big = ShardMap::new(4);
        let placed: Vec<(i64, usize)> = (1..=32).map(|id| (id, big.place(id))).collect();
        let shrunk = ShardMap::with_assignments(2, placed.clone());
        for &(id, node) in &placed {
            if node < 2 {
                assert_eq!(
                    shrunk.place(id),
                    node,
                    "run {id} moved although its node survived"
                );
            } else {
                assert_eq!(shrunk.place(id), ShardMap::hash_node(id, 2));
            }
        }
    }

    #[test]
    fn shard_map_remove_and_assignments() {
        let m = ShardMap::new(3);
        m.place(1);
        m.place(2);
        assert_eq!(m.node_of(1), Some(ShardMap::hash_node(1, 3)));
        m.remove(1);
        assert_eq!(m.node_of(1), None);
        let a = m.assignments();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].0, 2);
    }
}
