//! Shard replication and failover via WAL log shipping.
//!
//! Each backend node's write-ahead log already records every committed
//! mutation in order. This module turns that log into a replication
//! stream: a [`ShipStream`] installed as the node's [`FrameTap`] buffers
//! appended frames (up to a configurable *lag budget*), ships them —
//! sequence-numbered and CRC-re-verified with the same `frame_crc` the
//! log itself uses — to the node's replicas over the simulated
//! interconnect, and applies them on the replica engines through the
//! normal replay path. A replica is therefore always a *prefix-consistent*
//! copy of its primary at a known WAL sequence number.
//!
//! Three properties fall out of where the tap hooks sit in the log:
//!
//! * **Commit barrier** — `on_commit` fires right after the primary's
//!   fsync, shipping and applying everything buffered, so by the time a
//!   commit is durable on the primary its replicas have applied it.
//! * **Compaction barrier** — `pre_compact` ships and applies pending
//!   frames *before* checkpoint compaction drops them from the log, so a
//!   frame can never be compacted away before every live replica has it;
//!   a group still open there (an append failed part-way through it) is
//!   abandoned, as the compaction ends it on the primary.
//! * **Unlogged apply** — replicas apply shipped statements through
//!   [`crate::Engine`]'s unlogged replay, never through their own logged execute
//!   path. Two primaries shipping to each other under their own WAL
//!   mutexes would otherwise deadlock (each holding its log while waiting
//!   to log into the other's). The cost: a replica's copy is
//!   memory-resident until it is promoted and checkpointed.
//!
//! Multi-statement transactions ship like any other frames, and a replica
//! reads what it is shipped the way recovery reads a log — through a
//! `wal::UnitReader`, which holds a frame group until its commit marker
//! arrives and hands it over as one unit. A group whose commit never ships
//! (primary died mid-transaction) is abandoned at promotion — replicas
//! never surface a partial transaction.
//!
//! Reads load-balance across primary and fresh replicas round-robin; a
//! replica that has not applied every frame its primary ever appended
//! fails the *freshness gate* and the read falls back to the primary.
//!
//! Failover: when a node dies ([`crate::cluster::Cluster::kill_node`], or
//! any [`crate::wal::IoFailpoint`] trip — including mid-shipment),
//! [`Replicator::promote`]
//! picks the most-caught-up live replica, replays its shipped-but-unapplied
//! tail (CRC-checked, with its own mid-promotion kill point), and reports
//! the promotion so the caller can rewrite the
//! [`crate::cluster::ShardMap`] and resume.
#![warn(missing_docs)]

use crate::cluster::Cluster;
use crate::error::DbError;
use crate::record::FrameRef;
use crate::sync::Mutex;
use crate::wal::{frame_crc, FrameTap, IoFailpoint, UnitReader};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Configuration for a [`Replicator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplOptions {
    /// Replica copies per shard beyond the primary (capped by the backend
    /// count — there is no point replicating a shard onto its own node).
    pub replicas: usize,
    /// Frames a primary may buffer before shipping mid-window. Commits
    /// and compactions always flush regardless, so the budget only trades
    /// shipment batching against how far a replica can trail between
    /// commits.
    pub lag_budget: usize,
}

impl Default for ReplOptions {
    fn default() -> Self {
        ReplOptions {
            replicas: 1,
            lag_budget: 8,
        }
    }
}

/// The nodes holding replica copies of `primary`'s shards: the next
/// `replicas` backends on the ring of backend nodes `1..nodes`, skipping
/// the primary itself. The frontend (node 0) is never a primary here —
/// it keeps the run index, not shard data — and never hosts replicas.
/// Returns at most `nodes - 2` replicas (the distinct backends available).
pub fn replica_nodes(primary: usize, nodes: usize, replicas: usize) -> Vec<usize> {
    if primary == 0 || primary >= nodes || nodes <= 2 || replicas == 0 {
        return Vec::new();
    }
    let backends = nodes - 1;
    (1..=replicas.min(backends - 1))
        .map(|k| (primary - 1 + k) % backends + 1)
        .collect()
}

/// One in-flight replication frame: the WAL frame's sequence number, its
/// stored CRC (re-verified on every hop), and its payload — the record.
#[derive(Debug, Clone)]
struct Frame {
    seq: u64,
    crc: u32,
    record: Vec<u8>,
}

/// Per-replica shipping state, owned by the primary's [`ShipStream`].
#[derive(Debug)]
struct ReplicaState {
    /// Node index hosting this replica.
    node: usize,
    /// Frames shipped but not yet applied (the replica's unapplied tail).
    inbox: Mutex<Vec<Frame>>,
    /// Reads the shipped frames as units. The group it holds open between
    /// two shipments is a transaction this replica shows nothing of, and
    /// `applied_seq` stays below it — the replica fails the freshness gate
    /// until the group commits.
    reader: Mutex<UnitReader<Frame>>,
    /// Highest sequence number shipped to this replica.
    shipped_seq: AtomicU64,
    /// Highest sequence number applied on this replica's engine.
    applied_seq: AtomicU64,
}

/// Point-in-time replication totals, aggregated over every stream by
/// [`Replicator::report`] (independent of the `obs` enable switch, like
/// the cluster's transfer stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplReport {
    /// Frames shipped, counted once per replica each frame reached.
    pub frames_shipped: u64,
    /// Shipped frames applied on replica engines (including promotion
    /// tail replays).
    pub frames_applied: u64,
    /// Shipped statements that failed on a replica — counted, not fatal. A
    /// primary ships only what it applied, so each one is a replica that no
    /// longer matches its primary.
    pub apply_errors: u64,
    /// Shard reads routed to a replica.
    pub replica_reads: u64,
    /// Shard reads served by the primary.
    pub primary_reads: u64,
    /// Reads that skipped a stale replica (freshness-gate fallback).
    pub stale_fallbacks: u64,
    /// Completed promotions.
    pub failovers: u64,
    /// Pre-compaction barriers taken.
    pub compact_barriers: u64,
}

/// The replication stream of one primary node: buffers that node's WAL
/// frames and fans them out to its replicas. Installed as the primary
/// engine's [`FrameTap`]; also the read-routing authority for the
/// primary's shards.
pub struct ShipStream {
    primary: usize,
    /// Weak: the stream is held by the primary engine's WAL (via the tap)
    /// and by the [`Replicator`]; a strong cluster handle here would cycle
    /// (cluster → node → engine → wal → tap → cluster).
    cluster: Weak<Cluster>,
    lag_budget: usize,
    /// Appended-but-unshipped frames.
    pending: Mutex<Vec<Frame>>,
    /// Highest sequence number the primary ever appended.
    last_seq: AtomicU64,
    replicas: Vec<Arc<ReplicaState>>,
    /// Round-robin cursor for read routing.
    rr: AtomicUsize,
    /// Set when this stream's primary adopts another node's shards through
    /// a promotion: the adopted tables exist only on the primary, so reads
    /// must stop round-robining onto replicas that never had them.
    degraded: AtomicBool,
    // Report totals (always on, unlike obs counters).
    frames_shipped: AtomicU64,
    frames_applied: AtomicU64,
    apply_errors: AtomicU64,
    replica_reads: AtomicU64,
    primary_reads: AtomicU64,
    stale_fallbacks: AtomicU64,
    compact_barriers: AtomicU64,
}

impl std::fmt::Debug for ShipStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShipStream")
            .field("primary", &self.primary)
            .field("replicas", &self.replicas)
            .field("last_seq", &self.last_seq)
            .finish_non_exhaustive()
    }
}

impl ShipStream {
    fn new(
        primary: usize,
        cluster: Weak<Cluster>,
        lag_budget: usize,
        replicas: Vec<usize>,
    ) -> Self {
        ShipStream {
            primary,
            cluster,
            lag_budget: lag_budget.max(1),
            pending: Mutex::new(Vec::new()),
            last_seq: AtomicU64::new(0),
            replicas: replicas
                .into_iter()
                .map(|node| {
                    Arc::new(ReplicaState {
                        node,
                        inbox: Mutex::new(Vec::new()),
                        reader: Mutex::new(UnitReader::default()),
                        shipped_seq: AtomicU64::new(0),
                        applied_seq: AtomicU64::new(0),
                    })
                })
                .collect(),
            rr: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            frames_shipped: AtomicU64::new(0),
            frames_applied: AtomicU64::new(0),
            apply_errors: AtomicU64::new(0),
            replica_reads: AtomicU64::new(0),
            primary_reads: AtomicU64::new(0),
            stale_fallbacks: AtomicU64::new(0),
            compact_barriers: AtomicU64::new(0),
        }
    }

    /// The node this stream ships from.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// Ship every pending frame to the live replicas. Each frame passes
    /// the primary's ship kill point and a CRC re-verification before any
    /// replica sees it; on a mid-shipment kill the already-shipped prefix
    /// stays shipped and the remainder dies with the primary.
    fn ship(&self) -> Result<(), DbError> {
        let Some(cluster) = self.cluster.upgrade() else {
            return Ok(());
        };
        let mut pending = self.pending.lock();
        if pending.is_empty() {
            return Ok(());
        }
        let t_ship = Instant::now();
        let fp = cluster.node_failpoint(self.primary).clone();
        let live: Vec<&Arc<ReplicaState>> = self
            .replicas
            .iter()
            .filter(|r| cluster.node_alive(r.node))
            .collect();
        let mut shipped = 0usize;
        let mut killed = None;
        for frame in pending.iter() {
            if let Err(e) = fp.admit_ship() {
                killed = Some(e);
                break;
            }
            if frame_crc(frame.seq, &frame.record) != frame.crc {
                killed = Some(DbError::Io(format!(
                    "replication frame {} failed CRC re-verification",
                    frame.seq
                )));
                break;
            }
            for r in &live {
                r.inbox.lock().push(frame.clone());
                r.shipped_seq.store(frame.seq, Ordering::SeqCst);
            }
            shipped += 1;
        }
        if shipped > 0 {
            self.frames_shipped
                .fetch_add((shipped * live.len()) as u64, Ordering::Relaxed);
            obs::add(
                obs::Counter::ReplFramesShipped,
                (shipped * live.len()) as u64,
            );
            // One header+payload shipment per replica per batch — frames
            // travel together, amortizing the per-message cost.
            for r in &live {
                let _ = r;
                cluster.charge_shipment(shipped);
            }
        }
        pending.drain(..shipped);
        obs::set(obs::Counter::ReplShipLag, pending.len() as u64);
        obs::record_duration(obs::Hist::ReplShipNs, t_ship.elapsed());
        match killed {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Apply every shipped-but-unapplied frame on the live replicas.
    fn apply_inboxes(&self) {
        let Some(cluster) = self.cluster.upgrade() else {
            return;
        };
        for r in &self.replicas {
            if cluster.node_alive(r.node) {
                self.apply_inbox(&cluster, r, None)
                    .expect("only a promotion's checks can fail");
            }
        }
    }

    /// Apply `r`'s shipped-but-unapplied frames, unit by unit, through the
    /// unlogged replay path; returns the statements applied. Statement
    /// errors are tolerated exactly like WAL recovery tolerates them —
    /// counted in `apply_errors`, not fatal; a primary ships none of its own
    /// making — it logs no statement it rejects — so each one is a replica
    /// that no longer matches its primary. In a promotion, `promoting` is the
    /// replica node's failpoint: every frame passes its mid-promotion kill
    /// point and a CRC check first.
    fn apply_inbox(
        &self,
        cluster: &Cluster,
        r: &ReplicaState,
        promoting: Option<&IoFailpoint>,
    ) -> Result<u64, DbError> {
        let frames: Vec<Frame> = std::mem::take(&mut *r.inbox.lock());
        let engine = &cluster.node(r.node).engine;
        let mut reader = r.reader.lock();
        let (mut applied, mut room) = (0, Vec::new());
        for frame in frames {
            if let Some(fp) = promoting {
                fp.admit_promotion()?;
                if frame_crc(frame.seq, &frame.record) != frame.crc {
                    return Err(DbError::Io(format!(
                        "promotion tail frame {} failed CRC re-verification",
                        frame.seq
                    )));
                }
            }
            let seq = frame.seq;
            if let Some(unit) = reader.push(frame.record.first().copied(), frame) {
                // A shipped frame has no place in a file: its byte offsets
                // count from the start of its record.
                let records = unit.iter().map(|f| FrameRef {
                    seq: f.seq,
                    at: 0,
                    payload: &f.record,
                });
                let errors = engine.replay_unlogged(records, &mut room);
                self.apply_errors.fetch_add(errors, Ordering::Relaxed);
                obs::add(obs::Counter::ReplApplyErrors, errors);
                r.applied_seq.store(seq, Ordering::SeqCst);
                let n = unit.len() as u64;
                self.frames_applied.fetch_add(n, Ordering::Relaxed);
                obs::add(obs::Counter::ReplFramesApplied, n);
                applied += n;
            }
        }
        Ok(applied)
    }

    /// Route one shard read: round-robin over the live primary and every
    /// *fresh* live replica (freshness gate: the replica has applied every
    /// frame the primary ever appended). With nothing live, returns the
    /// primary and lets the fetch fail loudly.
    pub fn read_node(&self) -> usize {
        let Some(cluster) = self.cluster.upgrade() else {
            return self.primary;
        };
        if self.degraded.load(Ordering::SeqCst) {
            // The primary holds shards (adopted in a failover) its replicas
            // never received; only it can serve every read.
            self.primary_reads.fetch_add(1, Ordering::Relaxed);
            obs::incr(obs::Counter::ReplPrimaryReads);
            return self.primary;
        }
        let last = self.last_seq.load(Ordering::SeqCst);
        let mut candidates = Vec::with_capacity(1 + self.replicas.len());
        if cluster.node_alive(self.primary) {
            candidates.push(self.primary);
        }
        let mut skipped_stale = false;
        for r in &self.replicas {
            if !cluster.node_alive(r.node) {
                continue;
            }
            if r.applied_seq.load(Ordering::SeqCst) >= last {
                candidates.push(r.node);
            } else {
                skipped_stale = true;
            }
        }
        if candidates.is_empty() {
            return self.primary;
        }
        let pick = candidates[self.rr.fetch_add(1, Ordering::Relaxed) % candidates.len()];
        if pick == self.primary {
            self.primary_reads.fetch_add(1, Ordering::Relaxed);
            obs::incr(obs::Counter::ReplPrimaryReads);
            if skipped_stale {
                self.stale_fallbacks.fetch_add(1, Ordering::Relaxed);
                obs::incr(obs::Counter::ReplStaleFallbacks);
            }
        } else {
            self.replica_reads.fetch_add(1, Ordering::Relaxed);
            obs::incr(obs::Counter::ReplReplicaReads);
        }
        pick
    }

    /// Every replica node of this stream, shipped state aside.
    pub fn replica_node_ids(&self) -> Vec<usize> {
        self.replicas.iter().map(|r| r.node).collect()
    }

    /// `(shipped_seq, applied_seq)` for the replica hosted on `node`.
    pub fn replica_progress(&self, node: usize) -> Option<(u64, u64)> {
        self.replicas.iter().find(|r| r.node == node).map(|r| {
            (
                r.shipped_seq.load(Ordering::SeqCst),
                r.applied_seq.load(Ordering::SeqCst),
            )
        })
    }
}

impl FrameTap for ShipStream {
    fn on_frame(&self, seq: u64, crc: u32, record: &[u8]) -> Result<(), DbError> {
        self.last_seq.store(seq, Ordering::SeqCst);
        let lag = {
            let mut pending = self.pending.lock();
            pending.push(Frame {
                seq,
                crc,
                record: record.to_vec(),
            });
            pending.len()
        };
        obs::set(obs::Counter::ReplShipLag, lag as u64);
        if lag >= self.lag_budget {
            self.ship()?;
        }
        Ok(())
    }

    fn on_commit(&self) -> Result<(), DbError> {
        self.ship()?;
        self.apply_inboxes();
        Ok(())
    }

    fn pre_compact(&self) -> Result<(), DbError> {
        self.compact_barriers.fetch_add(1, Ordering::Relaxed);
        obs::incr(obs::Counter::ReplCompactBarriers);
        self.ship()?;
        self.apply_inboxes();
        // The primary writes a group under one hold of its log, so a group
        // still open here is one an append failed part-way through: it
        // never commits, and the compaction clears the poison that kept
        // the primary from acking behind it. Left open, it would swallow
        // the writes acked after the checkpoint.
        for r in &self.replicas {
            r.reader.lock().abandon();
        }
        Ok(())
    }

    /// Frames the log took back were never applied — a replica applies at
    /// a commit barrier, after the fsync that did not happen — so they go
    /// from the pending list and from every inbox, unseen.
    fn on_undo(&self, seq: u64) {
        self.pending.lock().retain(|f| f.seq < seq);
        for r in &self.replicas {
            r.inbox.lock().retain(|f| f.seq < seq);
            r.shipped_seq.fetch_min(seq - 1, Ordering::SeqCst);
        }
        self.last_seq.fetch_min(seq - 1, Ordering::SeqCst);
    }
}

/// The outcome of one failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// The node that died.
    pub dead: usize,
    /// The replica node promoted in its place.
    pub promoted: usize,
    /// Frames from the promoted replica's unapplied tail replayed during
    /// the promotion.
    pub frames_replayed: u64,
    /// The promoted node's applied WAL sequence after the tail replay —
    /// the sequence number the new primary is consistent at.
    pub applied_seq: u64,
}

/// The cluster-wide replication controller: one [`ShipStream`] per
/// backend node, installed as that node's WAL [`FrameTap`] where a log is
/// attached. Owns read routing and failover.
#[derive(Debug)]
pub struct Replicator {
    streams: HashMap<usize, Arc<ShipStream>>,
    opts: ReplOptions,
    failovers: AtomicU64,
}

impl Replicator {
    /// Build the streams for every backend node of `cluster` and install
    /// each as that node's WAL tap (nodes without a WAL keep their stream
    /// for read routing only — callers mirroring writes by hand keep the
    /// replicas exact, so the freshness gate trivially passes).
    pub fn attach(cluster: &Arc<Cluster>, opts: ReplOptions) -> Arc<Replicator> {
        let mut streams = HashMap::new();
        for node in 1..cluster.len() {
            let replicas = replica_nodes(node, cluster.len(), opts.replicas);
            if replicas.is_empty() {
                continue;
            }
            let stream = Arc::new(ShipStream::new(
                node,
                Arc::downgrade(cluster),
                opts.lag_budget,
                replicas,
            ));
            cluster
                .node(node)
                .engine
                .wal_set_tap(Some(stream.clone() as Arc<dyn FrameTap>));
            streams.insert(node, stream);
        }
        Arc::new(Replicator {
            streams,
            opts,
            failovers: AtomicU64::new(0),
        })
    }

    /// Remove every installed tap (the streams stop receiving frames).
    /// Call before detaching a replicated cluster so the engine-held taps
    /// don't outlive the cluster they point at.
    pub fn detach(&self, cluster: &Cluster) {
        for &node in self.streams.keys() {
            cluster.node(node).engine.wal_set_tap(None);
        }
    }

    /// The options this replicator was attached with.
    pub fn options(&self) -> ReplOptions {
        self.opts
    }

    /// The stream shipping from `node`, if it has replicas.
    pub fn stream(&self, node: usize) -> Option<&Arc<ShipStream>> {
        self.streams.get(&node)
    }

    /// The node to serve a shard read owned by `owner`: the owner's
    /// stream routes round-robin across primary and fresh replicas;
    /// owners without replicas serve their own reads.
    pub fn read_node_for(&self, owner: usize) -> usize {
        match self.streams.get(&owner) {
            Some(s) => s.read_node(),
            None => owner,
        }
    }

    /// Fail `dead` over to its most-caught-up live replica: replay that
    /// replica's shipped-but-unapplied tail (CRC-checked, passing the
    /// candidate's mid-promotion kill point per frame) and return the
    /// [`Promotion`]. A candidate that dies mid-promotion is skipped and
    /// the next-most-caught-up replica is tried. The caller rewrites the
    /// [`crate::cluster::ShardMap`] with the result.
    pub fn promote(&self, cluster: &Arc<Cluster>, dead: usize) -> Result<Promotion, DbError> {
        let t_failover = Instant::now();
        let stream = self.streams.get(&dead).ok_or_else(|| {
            DbError::Io(format!(
                "node {dead} has no replication stream to promote from"
            ))
        })?;
        let mut candidates: Vec<&Arc<ReplicaState>> = stream
            .replicas
            .iter()
            .filter(|r| cluster.node_alive(r.node))
            .collect();
        candidates.sort_by_key(|r| std::cmp::Reverse(r.shipped_seq.load(Ordering::SeqCst)));
        for cand in candidates {
            match Self::replay_tail(cluster, stream, cand) {
                Ok(frames_replayed) => {
                    // The promoted node now owns shards its own replicas
                    // never received: pin its stream's reads to it.
                    if let Some(s) = self.streams.get(&cand.node) {
                        s.degraded.store(true, Ordering::SeqCst);
                    }
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                    obs::incr(obs::Counter::ReplFailovers);
                    obs::record_duration(obs::Hist::ReplFailoverNs, t_failover.elapsed());
                    return Ok(Promotion {
                        dead,
                        promoted: cand.node,
                        frames_replayed,
                        applied_seq: cand.applied_seq.load(Ordering::SeqCst),
                    });
                }
                // The candidate died mid-promotion: its kill point tripped
                // its own failpoint, so it drops out of every subsequent
                // liveness check. Try the next one.
                Err(_) => continue,
            }
        }
        Err(DbError::Io(format!(
            "no live replica of node {dead} survived promotion"
        )))
    }

    /// Apply `cand`'s unapplied tail through the replay path. Every frame
    /// passes the candidate node's promotion kill point and a CRC check.
    fn replay_tail(
        cluster: &Arc<Cluster>,
        stream: &ShipStream,
        cand: &ReplicaState,
    ) -> Result<u64, DbError> {
        let fp = cluster.node_failpoint(cand.node).clone();
        fp.check_alive()?;
        let replayed = stream.apply_inbox(cluster, cand, Some(&fp))?;
        // A group the reader still holds open is a transaction whose commit
        // marker never shipped before the primary died: the primary may
        // never have made it durable, so the promoted copy must not show
        // any of its effects.
        cand.reader.lock().abandon();
        Ok(replayed)
    }

    /// Aggregate replication totals across every stream.
    pub fn report(&self) -> ReplReport {
        let mut rep = ReplReport {
            failovers: self.failovers.load(Ordering::Relaxed),
            ..ReplReport::default()
        };
        for stream in self.streams.values() {
            rep.frames_shipped += stream.frames_shipped.load(Ordering::Relaxed);
            rep.frames_applied += stream.frames_applied.load(Ordering::Relaxed);
            rep.apply_errors += stream.apply_errors.load(Ordering::Relaxed);
            rep.replica_reads += stream.replica_reads.load(Ordering::Relaxed);
            rep.primary_reads += stream.primary_reads.load(Ordering::Relaxed);
            rep.stale_fallbacks += stream.stale_fallbacks.load(Ordering::Relaxed);
            rep.compact_barriers += stream.compact_barriers.load(Ordering::Relaxed);
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LatencyModel;
    use crate::wal::SyncPolicy;
    use crate::Value;

    #[test]
    fn replica_placement_ring() {
        // Frontend never replicates; no backends to spare → empty.
        assert!(replica_nodes(0, 4, 1).is_empty());
        assert!(replica_nodes(1, 2, 1).is_empty());
        assert!(replica_nodes(1, 4, 0).is_empty());
        // 4 nodes (3 backends): each backend's replica is the next one.
        assert_eq!(replica_nodes(1, 4, 1), vec![2]);
        assert_eq!(replica_nodes(2, 4, 1), vec![3]);
        assert_eq!(replica_nodes(3, 4, 1), vec![1]);
        // Two replicas: the next two on the ring, never the primary.
        assert_eq!(replica_nodes(1, 4, 2), vec![2, 3]);
        assert_eq!(replica_nodes(3, 4, 2), vec![1, 2]);
        // Request more replicas than distinct backends exist: capped.
        assert_eq!(replica_nodes(1, 4, 7), vec![2, 3]);
        for primary in 1..8 {
            for r in replica_nodes(primary, 8, 3) {
                assert_ne!(r, primary, "replica on its own primary");
                assert!(r >= 1, "frontend hosting a replica");
            }
        }
    }

    fn wal_cluster(dir: &std::path::Path, n: usize) -> Arc<Cluster> {
        std::fs::remove_dir_all(dir).ok();
        let cluster = Arc::new(Cluster::new(n, LatencyModel::none()));
        cluster
            .attach_wal_dir_with(dir, |i| cluster.node_wal_options(i, SyncPolicy::Off))
            .unwrap();
        cluster
    }

    #[test]
    fn commit_barrier_ships_and_applies() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_commit");
        let cluster = wal_cluster(&dir, 4);
        let repl = Replicator::attach(&cluster, ReplOptions::default());

        let primary = &cluster.node(1).engine;
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        primary.execute("INSERT INTO t VALUES (1),(2),(3)").unwrap();
        // SyncPolicy::Off: nothing shipped yet below the lag budget.
        primary.wal_sync().unwrap();

        let replica = &cluster.node(2).engine;
        assert_eq!(replica.row_count("t").unwrap(), 3);
        let (shipped, applied) = repl.stream(1).unwrap().replica_progress(2).unwrap();
        assert_eq!(shipped, applied);
        assert!(applied >= 2);

        // The freshness gate passes, so reads round-robin over both.
        let picks: Vec<usize> = (0..4).map(|_| repl.read_node_for(1)).collect();
        assert!(picks.contains(&1) && picks.contains(&2), "{picks:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_floats_reach_the_replica() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_nonfinite");
        let cluster = wal_cluster(&dir, 4);
        let _repl = Replicator::attach(&cluster, ReplOptions::default());
        let primary = &cluster.node(1).engine;
        primary.execute("CREATE TABLE t (v FLOAT)").unwrap();
        let vals = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 2.5];
        let rows = vals.iter().map(|v| vec![Value::Float(*v)]).collect();
        primary.insert_rows("t", rows).unwrap();
        primary.wal_sync().unwrap();
        let (_, shipped) = cluster.node(2).engine.read_snapshot("t").unwrap();
        let bits = |v: &Value| v.as_f64().map(f64::to_bits);
        let got: Vec<_> = shipped.iter().map(|r| bits(&r[0])).collect();
        let want: Vec<_> = vals.iter().map(|v| Some(v.to_bits())).collect();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn i64_min_reaches_the_replica() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_i64min");
        let cluster = wal_cluster(&dir, 4);
        let _repl = Replicator::attach(&cluster, ReplOptions::default());
        let primary = &cluster.node(1).engine;
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        let rows = vec![vec![Value::Int(i64::MIN)], vec![Value::Int(7)]];
        primary.insert_rows("t", rows.clone()).unwrap();
        primary.wal_sync().unwrap();
        let (_, shipped) = cluster.node(2).engine.read_snapshot("t").unwrap();
        assert_eq!(shipped, rows);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A replica that no longer matches its primary — a table dropped on
    /// it behind the stream's back — fails the shipped write it cannot
    /// apply: the report counts it, and `applied_seq` still moves past it.
    #[test]
    fn a_shipped_write_the_replica_cannot_apply_is_counted() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_apply_errors");
        let cluster = wal_cluster(&dir, 4);
        let repl = Replicator::attach(&cluster, ReplOptions::default());
        let primary = &cluster.node(1).engine;
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        primary.wal_sync().unwrap();
        assert_eq!(repl.report().apply_errors, 0);
        let counted = obs::get(obs::Counter::ReplApplyErrors);
        cluster.node(2).engine.drop_table("t", false).unwrap();
        primary.execute("INSERT INTO t VALUES (1)").unwrap();
        primary.wal_sync().unwrap();
        assert_eq!(repl.report().apply_errors, 1);
        assert!(obs::get(obs::Counter::ReplApplyErrors) > counted);
        let (shipped, applied) = repl.stream(1).unwrap().replica_progress(2).unwrap();
        assert_eq!(shipped, applied, "applied_seq moves past the failed frame");
        repl.detach(&cluster);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A replica applies a shipped INSERT in place beside a reader that
    /// pins the table: the append goes to a copy of the pinned version —
    /// its tail chunks, and its dictionary for the new strings — and the
    /// reader's snapshot reads what it read before, cell for cell.
    #[test]
    fn a_replica_apply_beside_a_pinned_reader_leaves_its_snapshot_alone() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_pinned_apply");
        let cluster = wal_cluster(&dir, 4);
        let repl = Replicator::attach(&cluster, ReplOptions::default());
        let primary = &cluster.node(1).engine;
        primary
            .execute("CREATE TABLE t (x INTEGER NOT NULL, s TEXT, f FLOAT)")
            .unwrap();
        primary
            .execute("INSERT INTO t VALUES (1, 'ufs', 0.5), (2, NULL, NULL), (3, 'nfs', 1.5)")
            .unwrap();
        primary.wal_sync().unwrap();
        let replica = &cluster.node(2).engine;
        let snap = replica.snapshot();
        let pinned = |snap: &crate::Snapshot| snap.table("t").unwrap().store().to_rows();
        let before = pinned(&snap);
        assert_eq!(before.len(), 3);
        let clones = obs::get(obs::Counter::MvccCowClones);
        let rows = (4..70).map(|i| {
            let s = ["ufs", "pvfs", "xfs"][i as usize % 3];
            vec![Value::Int(i), Value::Text(s.into()), Value::Null]
        });
        primary.insert_rows("t", rows.collect()).unwrap();
        primary.wal_sync().unwrap();
        assert_eq!(repl.report().apply_errors, 0);
        assert!(
            obs::get(obs::Counter::MvccCowClones) > clones,
            "no copy made"
        );
        assert_eq!(replica.row_count("t").unwrap(), 69);
        assert_eq!(pinned(&snap), before, "the pinned version changed");
        assert_eq!(snap.row_count("t").unwrap(), 3);
        assert_eq!(replica.dump_sql(), primary.dump_sql());
        repl.detach(&cluster);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lag_budget_ships_without_commit() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_lag");
        let cluster = wal_cluster(&dir, 3 + 1);
        let repl = Replicator::attach(
            &cluster,
            ReplOptions {
                replicas: 1,
                lag_budget: 2,
            },
        );
        let primary = &cluster.node(1).engine;
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        primary.execute("INSERT INTO t VALUES (1)").unwrap();
        // Two frames ≥ budget: shipped to the inbox, but not yet applied.
        let stream = repl.stream(1).unwrap();
        let (shipped, applied) = stream.replica_progress(2).unwrap();
        assert!(shipped >= 2, "lag budget did not trigger a shipment");
        assert_eq!(applied, 0, "apply must wait for the commit barrier");
        // A stale replica fails the freshness gate: reads stay primary.
        for _ in 0..4 {
            assert_eq!(repl.read_node_for(1), 1);
        }
        assert!(repl.report().stale_fallbacks > 0);
        primary.wal_sync().unwrap();
        assert_eq!(cluster.node(2).engine.row_count("t").unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_replica_is_skipped_and_dead_primary_routes_to_replica() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_dead");
        let cluster = wal_cluster(&dir, 4);
        let repl = Replicator::attach(&cluster, ReplOptions::default());
        let primary = &cluster.node(1).engine;
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        primary.wal_sync().unwrap();

        cluster.kill_node(2);
        // Shipping to a dead replica is a no-op, not an error.
        primary.execute("INSERT INTO t VALUES (7)").unwrap();
        primary.wal_sync().unwrap();
        for _ in 0..4 {
            assert_eq!(repl.read_node_for(1), 1, "dead replica served a read");
        }
        let sel = crate::test_common::select("SELECT x FROM t");
        assert!(cluster.select(2, 0, "t", &sel).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn txn_groups_apply_atomically_and_partial_ship_is_discarded() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_txn");
        let cluster = wal_cluster(&dir, 4);
        let repl = Replicator::attach(
            &cluster,
            ReplOptions {
                replicas: 1,
                lag_budget: 1, // ship every frame immediately
            },
        );
        let primary = cluster.node(1).engine.clone();
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        primary.wal_sync().unwrap();

        // A committed transaction reaches the replica whole: markers are
        // consumed, the three inserts apply as one unit on the commit
        // barrier, and the freshness gate passes afterwards.
        let mut txn = primary.begin_txn();
        txn.execute("INSERT INTO t VALUES (1)").unwrap();
        txn.execute("INSERT INTO t VALUES (2)").unwrap();
        txn.execute("INSERT INTO t VALUES (3)").unwrap();
        txn.commit().unwrap();
        primary.wal_sync().unwrap();
        assert_eq!(cluster.node(2).engine.row_count("t").unwrap(), 3);
        let (shipped, applied) = repl.stream(1).unwrap().replica_progress(2).unwrap();
        assert_eq!(shipped, applied, "commit marker must advance applied_seq");

        // Primary dies mid-transaction: begin + two statements ship, the
        // commit marker never does. Promotion must discard the buffered
        // group — the promoted copy shows none of its effects.
        cluster.node_failpoint(1).arm_frame_kill(3);
        let mut txn = primary.begin_txn();
        txn.execute("INSERT INTO t VALUES (10)").unwrap();
        txn.execute("INSERT INTO t VALUES (11)").unwrap();
        txn.execute("INSERT INTO t VALUES (12)").unwrap();
        assert!(txn.commit().is_err(), "wal crash must fail the commit");
        let p = repl.promote(&cluster, 1).unwrap();
        assert_eq!(p.promoted, 2);
        assert_eq!(p.frames_replayed, 0, "partial group must not replay");
        assert_eq!(cluster.node(2).engine.row_count("t").unwrap(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An append fails part-way through a group after its begin marker and
    /// first statement shipped; a checkpoint clears the primary's poison.
    /// The replica gives the group up at the compaction barrier, so the
    /// write the primary acks after the checkpoint survives a failover.
    #[test]
    fn a_checkpoint_ends_a_failed_group_on_the_replicas() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_poison_ckpt");
        std::fs::remove_dir_all(&dir).ok();
        let cluster = Arc::new(Cluster::new(4, LatencyModel::none()));
        // Node 1's log takes the CREATE, the first INSERT, the begin marker
        // and the group's first INSERT; the group's second INSERT fails
        // half-written.
        let failing = Arc::new(IoFailpoint::append_error_after(4));
        cluster
            .attach_wal_dir_with(&dir, |i| match i {
                1 => crate::wal::WalOptions {
                    sync: SyncPolicy::Off,
                    failpoint: failing.clone(),
                },
                _ => cluster.node_wal_options(i, SyncPolicy::Off),
            })
            .unwrap();
        let repl = Replicator::attach(
            &cluster,
            ReplOptions {
                replicas: 1,
                lag_budget: 1, // ship every frame immediately
            },
        );
        let primary = cluster.node(1).engine.clone();
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        primary.execute("INSERT INTO t VALUES (1)").unwrap();
        let mut txn = primary.begin_txn();
        txn.execute("INSERT INTO t VALUES (2)").unwrap();
        txn.execute("INSERT INTO t VALUES (3)").unwrap();
        assert!(txn.commit().is_err(), "the append error fails the commit");
        assert!(primary.execute("INSERT INTO t VALUES (9)").is_err());
        cluster.checkpoint_wals(&dir).unwrap();
        primary.execute("INSERT INTO t VALUES (4)").unwrap();
        primary.wal_sync().unwrap();

        cluster.kill_node(1);
        let p = repl.promote(&cluster, 1).unwrap();
        assert_eq!(p.promoted, 2);
        let rs = cluster
            .node(2)
            .engine
            .query("SELECT x FROM t ORDER BY x")
            .unwrap();
        assert_eq!(rs.rows(), [[Value::Int(1)], [Value::Int(4)]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A group the primary's log took back — its tap refused the commit
    /// marker after the begin marker and its statements had shipped — is
    /// dropped from every replica's inbox too: the autocommit write after
    /// it is not swallowed into a dead group, and the promoted replica
    /// holds exactly what the primary acknowledged.
    #[test]
    fn a_group_the_log_took_back_is_dropped_on_the_replicas() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_undo");
        std::fs::remove_dir_all(&dir).ok();
        let cluster = Arc::new(Cluster::new(4, LatencyModel::none()));
        // Node 1's log takes the CREATE, the first INSERT, the begin marker
        // and the group's two INSERTs; the tap refuses the commit marker.
        let refusing = Arc::new(IoFailpoint::tap_error_after(5));
        cluster
            .attach_wal_dir_with(&dir, |i| match i {
                1 => crate::wal::WalOptions {
                    sync: SyncPolicy::Off,
                    failpoint: refusing.clone(),
                },
                _ => cluster.node_wal_options(i, SyncPolicy::Off),
            })
            .unwrap();
        let repl = Replicator::attach(
            &cluster,
            ReplOptions {
                replicas: 1,
                lag_budget: 1, // ship every frame immediately
            },
        );
        let primary = cluster.node(1).engine.clone();
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        primary.execute("INSERT INTO t VALUES (1)").unwrap();
        let mut txn = primary.begin_txn();
        txn.execute("INSERT INTO t VALUES (2)").unwrap();
        txn.execute("INSERT INTO t VALUES (3)").unwrap();
        assert!(txn.commit().is_err(), "the tap refused the commit marker");
        assert!(!primary.wal_poisoned(), "the log took the group back");
        primary.execute("INSERT INTO t VALUES (4)").unwrap();
        primary.wal_sync().unwrap();

        cluster.kill_node(1);
        let p = repl.promote(&cluster, 1).unwrap();
        assert_eq!(p.promoted, 2);
        let rs = cluster
            .node(2)
            .engine
            .query("SELECT x FROM t ORDER BY x")
            .unwrap();
        assert_eq!(rs.rows(), [[Value::Int(1)], [Value::Int(4)]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn promotion_replays_unapplied_tail() {
        let dir = std::env::temp_dir().join("perfbase_repl_unit_promote");
        let cluster = wal_cluster(&dir, 4);
        let repl = Replicator::attach(
            &cluster,
            ReplOptions {
                replicas: 1,
                lag_budget: 1, // ship every frame immediately
            },
        );
        let primary = &cluster.node(1).engine;
        primary.execute("CREATE TABLE t (x INTEGER)").unwrap();
        primary.execute("INSERT INTO t VALUES (1),(2)").unwrap();
        // No commit: both frames sit shipped-but-unapplied in the inbox.
        let (shipped, applied) = repl.stream(1).unwrap().replica_progress(2).unwrap();
        assert_eq!((shipped, applied), (2, 0));

        cluster.kill_node(1);
        let p = repl.promote(&cluster, 1).unwrap();
        assert_eq!(p.dead, 1);
        assert_eq!(p.promoted, 2);
        assert_eq!(p.frames_replayed, 2);
        assert_eq!(p.applied_seq, 2);
        let rs = cluster
            .node(2)
            .engine
            .query("SELECT count(x) FROM t")
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(2));
        assert_eq!(repl.report().failovers, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
