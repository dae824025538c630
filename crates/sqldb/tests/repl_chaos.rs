//! Chaos suite for shard replication and failover (ISSUE 8).
//!
//! The property under test: a replica is always a *prefix-consistent* copy
//! of its primary at a known WAL sequence number, no matter where a node
//! death lands — mid-shipment, mid-compaction, or mid-promotion. After
//! every failover the promoted replica's state is byte-identical
//! (`dump_sql`) to a fresh engine executing exactly the statements the
//! primary shipped before dying.
//!
//! Kill points exercised (all whole-node kills via the per-node
//! [`IoFailpoint`] the cluster owns):
//!
//! * primary killed mid-shipment after k frames
//!   ([`IoFailpoint::arm_ship_kill`]), for a sweep of k;
//! * primary killed mid-compaction, between the checkpoint dump rename
//!   and the log truncation ([`IoFailpoint::arm_compact_kill`]);
//! * the most-caught-up replica killed while replaying its unapplied tail
//!   during promotion ([`IoFailpoint::arm_promotion_kill`]) — failover
//!   must fall back to the next candidate.
//!
//! Plus the satellite regression: frames buffered under the lag budget
//! must survive a checkpoint — the pre-compaction barrier ships and
//! applies them *before* compaction drops them from the log.

mod common;

use sqldb::cluster::{Cluster, LatencyModel};
use sqldb::{Engine, ReplOptions, Replicator, SyncPolicy};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p =
            std::env::temp_dir().join(format!("perfbase_replchaos_{tag}_{}", std::process::id()));
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

/// A deterministic import-like workload: DDL, an index, inserts (some with
/// escaped text), updates and deletes — every statement appends exactly
/// one WAL frame, so frame seq n is statement n.
fn workload() -> Vec<String> {
    let mut stmts = vec![
        "CREATE TABLE runs (id INTEGER, tag TEXT, bw FLOAT)".to_string(),
        "CREATE INDEX IF NOT EXISTS ix_runs_id ON runs (id)".to_string(),
    ];
    for i in 0..20i64 {
        stmts.push(format!(
            "INSERT INTO runs VALUES ({i}, 'fs{}', {}.5)",
            i % 3,
            100 + i
        ));
        if i % 5 == 2 {
            stmts.push(format!(
                "INSERT INTO runs VALUES ({i}, E'it''s\\ttag', NULL)"
            ));
        }
        if i % 7 == 3 {
            stmts.push(format!(
                "UPDATE runs SET bw = bw + 1.0 WHERE id = {}",
                i / 2
            ));
        }
        if i % 9 == 4 {
            stmts.push(format!("DELETE FROM runs WHERE id = {}", i - 4));
        }
    }
    stmts
}

/// A cluster with one WAL per node, each wired to that node's own kill
/// switch, plus a replicator over it.
fn repl_cluster(dir: &TempDir, nodes: usize, opts: ReplOptions) -> (Arc<Cluster>, Arc<Replicator>) {
    let cluster = Arc::new(Cluster::new(nodes, LatencyModel::none()));
    cluster
        .attach_wal_dir_with(&dir.0, |i| cluster.node_wal_options(i, SyncPolicy::Off))
        .unwrap();
    let repl = Replicator::attach(&cluster, opts);
    (cluster, repl)
}

/// The reference state for a shipped prefix: a fresh engine executing
/// exactly `full_log[..n]`.
fn reference_dump(full_log: &[String], n: usize) -> String {
    let eng = Engine::new();
    for s in &full_log[..n] {
        eng.execute(s).unwrap();
    }
    eng.dump_sql()
}

/// Baseline sanity: with commits flowing, a replica is a byte-identical
/// copy of its primary, and reads round-robin across both.
#[test]
fn committed_frames_replicate_byte_identically() {
    let dir = TempDir::new("baseline");
    let (cluster, repl) = repl_cluster(&dir, 4, ReplOptions::default());
    let full_log = workload();

    let primary = &cluster.node(1).engine;
    for (i, s) in full_log.iter().enumerate() {
        primary.execute(s).unwrap();
        if i % 3 == 2 {
            primary.wal_sync().unwrap();
        }
    }
    primary.wal_sync().unwrap();

    assert_eq!(
        cluster.node(2).engine.dump_sql(),
        primary.dump_sql(),
        "replica must be byte-identical to its primary after commit"
    );
    let rep = repl.report();
    assert_eq!(rep.frames_shipped, full_log.len() as u64);
    assert_eq!(rep.frames_applied, full_log.len() as u64);
}

/// Satellite regression: frames buffered below the lag budget must not be
/// lost when the primary checkpoints. The pre-compaction barrier ships
/// and applies them before the log is truncated.
#[test]
fn compaction_barrier_ships_pending_frames_before_truncation() {
    let dir = TempDir::new("compactbarrier");
    let (cluster, repl) = repl_cluster(
        &dir,
        4,
        ReplOptions {
            replicas: 1,
            lag_budget: 1000, // nothing ships on its own
        },
    );
    let full_log = workload();
    let primary = &cluster.node(1).engine;
    for s in &full_log {
        primary.execute(s).unwrap();
    }
    // Every frame is still pending: nothing shipped, nothing applied.
    assert_eq!(repl.report().frames_shipped, 0);

    // Checkpoint compacts the log. Without the barrier these frames would
    // vanish from the log *and* from the replica's future.
    let dropped = primary.checkpoint(&dir.0.join("node1.sql")).unwrap();
    assert_eq!(dropped, full_log.len() as u64);
    assert_eq!(primary.wal_frames(), 0, "log must be compacted");

    let rep = repl.report();
    assert!(rep.compact_barriers >= 1, "{rep:?}");
    assert_eq!(rep.frames_shipped, full_log.len() as u64);
    assert_eq!(rep.frames_applied, full_log.len() as u64);
    assert_eq!(
        cluster.node(2).engine.dump_sql(),
        reference_dump(&full_log, full_log.len()),
        "compaction must not drop frames the replica never saw"
    );
}

/// Kill the primary mid-shipment after k frames, for a sweep of k. The
/// promoted replica must equal a fresh engine executing exactly the
/// k-statement shipped prefix — never a torn or reordered state.
#[test]
fn kill_primary_mid_shipment_promotes_the_shipped_prefix() {
    let full_log = workload();
    for k in [0usize, 1, 2, 5, 9, 17, full_log.len() - 1] {
        let dir = TempDir::new(&format!("shipkill{k}"));
        let (cluster, repl) = repl_cluster(
            &dir,
            4,
            ReplOptions {
                replicas: 1,
                lag_budget: 1, // ship every frame as it is appended
            },
        );
        cluster.node_failpoint(1).arm_ship_kill(k as u64);

        let primary = &cluster.node(1).engine;
        for s in &full_log {
            if let Err(e) = primary.execute(s) {
                assert!(e.to_string().contains("simulated crash"), "{e}");
                break;
            }
        }
        assert!(!cluster.node_alive(1), "ship kill must trip the node");

        let p = repl.promote(&cluster, 1).unwrap();
        assert_eq!((p.dead, p.promoted), (1, 2), "k={k}");
        assert_eq!(p.applied_seq, k as u64, "k={k}");
        assert_eq!(
            cluster.node(2).engine.dump_sql(),
            reference_dump(&full_log, k),
            "promoted replica must equal the shipped prefix, k={k}"
        );
        // The dead node serves nothing; the promoted one serves its shard.
        let count = common::select("SELECT count(*) FROM runs");
        assert!(cluster.select(1, 0, "runs", &count).is_err());
        assert_eq!(repl.report().failovers, 1);
    }
}

/// Kill the primary mid-compaction (between the checkpoint dump rename and
/// the log truncation). Everything committed before the checkpoint has
/// already crossed the commit barrier, so failover loses nothing.
#[test]
fn kill_primary_mid_compaction_loses_no_committed_frames() {
    let dir = TempDir::new("compactkill");
    let (cluster, repl) = repl_cluster(&dir, 4, ReplOptions::default());
    let full_log = workload();
    let primary = &cluster.node(1).engine;
    for s in &full_log {
        primary.execute(s).unwrap();
    }
    primary.wal_sync().unwrap();

    cluster.node_failpoint(1).arm_compact_kill();
    let err = primary.checkpoint(&dir.0.join("node1.sql")).unwrap_err();
    assert!(err.to_string().contains("simulated crash"), "{err}");
    assert!(!cluster.node_alive(1), "compact kill must trip the node");

    let p = repl.promote(&cluster, 1).unwrap();
    assert_eq!(p.promoted, 2);
    assert_eq!(p.frames_replayed, 0, "commit barrier already applied all");
    assert_eq!(
        cluster.node(2).engine.dump_sql(),
        reference_dump(&full_log, full_log.len()),
        "no committed frame may be lost to a mid-compaction kill"
    );
}

/// Kill the most-caught-up replica while it replays its unapplied tail
/// during promotion: failover must skip the dead candidate and promote
/// the next one, which replays the same tail successfully.
#[test]
fn kill_candidate_mid_promotion_falls_back_to_next_replica() {
    let dir = TempDir::new("promokill");
    let (cluster, repl) = repl_cluster(
        &dir,
        5, // 4 backends: node 1's replicas are nodes 2 and 3
        ReplOptions {
            replicas: 2,
            lag_budget: 1,
        },
    );
    let full_log = workload();
    let primary = &cluster.node(1).engine;
    for s in &full_log {
        primary.execute(s).unwrap();
    }
    // No commit: both replicas hold the full tail shipped-but-unapplied.
    let stream = repl.stream(1).unwrap();
    assert_eq!(stream.replica_node_ids(), vec![2, 3]);
    let (shipped, applied) = stream.replica_progress(2).unwrap();
    assert_eq!((shipped, applied), (full_log.len() as u64, 0));

    cluster.kill_node(1);
    cluster.node_failpoint(2).arm_promotion_kill();
    let p = repl.promote(&cluster, 1).unwrap();
    assert_eq!(p.promoted, 3, "first candidate died, second must win");
    assert_eq!(p.frames_replayed, full_log.len() as u64);
    assert!(!cluster.node_alive(2), "the armed candidate is dead");
    assert_eq!(
        cluster.node(3).engine.dump_sql(),
        reference_dump(&full_log, full_log.len()),
        "fallback candidate must replay the identical tail"
    );

    // With the whole replica set gone, promotion reports failure loudly.
    cluster.kill_node(3);
    assert!(repl.promote(&cluster, 1).is_err());
}

/// Multiple primaries shipping concurrently (each backend is both a
/// primary for its shard and a replica for its neighbor) must not
/// deadlock or cross streams: each replica ends byte-identical to its own
/// primary.
#[test]
fn every_backend_ships_its_own_stream_without_interference() {
    let dir = TempDir::new("allprimaries");
    let (cluster, repl) = repl_cluster(&dir, 4, ReplOptions::default());

    for node in 1..4usize {
        let eng = &cluster.node(node).engine;
        eng.execute(&format!("CREATE TABLE shard_{node} (x INTEGER, s TEXT)"))
            .unwrap();
        for r in 0..6i64 {
            eng.execute(&format!("INSERT INTO shard_{node} VALUES ({r}, 'n{node}')"))
                .unwrap();
        }
        eng.wal_sync().unwrap();
    }

    // Ring replica of node n is node (n % 3) + 1; each replica holds its
    // primary's shard table alongside its own.
    for node in 1..4usize {
        let replica = (node % 3) + 1;
        let rs = cluster
            .node(replica)
            .engine
            .query(&format!("SELECT count(*) FROM shard_{node}"))
            .unwrap();
        assert_eq!(format!("{}", rs.rows()[0][0]), "6", "replica of {node}");
    }
    let rep = repl.report();
    assert_eq!(rep.frames_shipped, rep.frames_applied);
    assert_eq!(rep.frames_shipped, 3 * 7);
}
