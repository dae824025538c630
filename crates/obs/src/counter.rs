//! Named engine counters: pre-allocated relaxed atomics, one per metric.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// One engine counter. The wire/report name (`area.metric`) is
        /// returned by [`Counter::name`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)+];

            /// Report name, `area.metric`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// Statements parsed by the SQL front-end.
    StmtParsed => "sql.statements_parsed",
    /// Statements executed through `Engine::execute`.
    StmtExecuted => "sql.statements_executed",
    /// SELECT/EXPLAIN queries answered through `Engine::query`.
    QueriesRun => "sql.queries_run",
    /// Planner chose a hash-index point lookup.
    PlanPointLookup => "plan.point_lookup",
    /// Planner chose an ordered-index IN-list probe.
    PlanInList => "plan.in_list",
    /// Planner chose an ordered-index range window.
    PlanRangeWindow => "plan.range_window",
    /// Planner answered a `min`/`max`-only SELECT from the ends of an
    /// ordered index.
    PlanIndexEnd => "plan.index_end",
    /// Planner fell back to a full table scan.
    PlanFullScan => "plan.full_scan",
    /// Planner proved the predicate can never match (no scan at all).
    PlanFalsified => "plan.falsified",
    /// Individual index probes issued (one per key, so an IN-list of k
    /// keys counts k).
    IndexProbes => "plan.index_probes",
    /// Candidate rows produced by index access paths before the residual
    /// filter runs.
    IndexCandidateRows => "plan.index_candidate_rows",
    /// Rows checked by the residual filter after an index access path.
    ResidualChecks => "plan.residual_checks",
    /// Rows dropped by the residual filter.
    ResidualDrops => "plan.residual_drops",
    /// Rows visited by full table scans.
    ScanRowsVisited => "scan.rows_visited",
    /// Single-table selections (SELECT, UPDATE, DELETE) whose WHERE clause
    /// ran column-at-a-time.
    VectorizedScans => "scan.vectorized",
    /// Single-table selections whose WHERE clause didn't vectorize (the
    /// compiled scalar filter ran per candidate row).
    VectorizedFallbacks => "scan.vectorized_fallback",
    /// WHERE clauses compiled against a table by a selection step outside a
    /// SELECT (`Engine::scan`, UPDATE, DELETE). A batch of tables scanned
    /// with one filter compiles it once, and again only for a table that
    /// binds it differently.
    ScanFilterBinds => "scan.filter_binds",
    /// Frames appended to the write-ahead log.
    WalAppends => "wal.appends",
    /// Payload bytes appended to the write-ahead log.
    WalAppendBytes => "wal.append_bytes",
    /// fsync calls issued by the write-ahead log.
    WalFsyncs => "wal.fsyncs",
    /// SQL statements a log replay parsed: the `Sql` records, which a
    /// version-2 log holds only for statements other than CREATE TABLE and
    /// INSERT.
    WalReplayParsed => "wal.replay_statements_parsed",
    /// Node-to-node shipments (header + payload message pairs).
    ClusterShipments => "cluster.shipments",
    /// Simulated interconnect messages charged.
    ClusterMessages => "cluster.messages",
    /// Rows moved across the simulated interconnect.
    ClusterRowsShipped => "cluster.rows_shipped",
    /// Query-DAG elements executed.
    DagElements => "dag.elements",
    /// Source/operator pairs fused into a sharded aggregation pushdown.
    DagPushdownFused => "dag.pushdown_fused",
    /// Remote shards materialised on the frontend (pushdown fallback).
    DagShardsMaterialized => "dag.shards_materialized",
    /// Heap bytes of all tables: column vectors, null bitmaps and
    /// dictionaries (gauge, refreshed by `Engine::refresh_memory_gauges`).
    MemColumnarBytes => "mem.columnar_bytes",
    /// Dictionary bytes across all TEXT columns (gauge).
    MemDictBytes => "mem.dict_bytes",
    /// Dictionary entries across all TEXT columns (gauge).
    MemDictEntries => "mem.dict_entries",
    /// Catalog snapshots pinned by readers (`Engine::snapshot`).
    MvccSnapshotsPinned => "mvcc.snapshots_pinned",
    /// Copy-on-write table clones forced because a pinned snapshot still
    /// referenced the version a writer wanted to mutate.
    MvccCowClones => "mvcc.cow_clones",
    /// Bytes a write copied because another version shared what it wrote:
    /// the version's chunk lists and indexes, the column chunks it changed,
    /// a dictionary it grew.
    MvccCowBytes => "mvcc.cow_bytes",
    /// Current commit epoch (gauge; bumped once per applied mutation).
    MvccEpoch => "mvcc.epoch",
    /// HTTP requests accepted by the server front end.
    HttpRequests => "http.requests",
    /// Requests answered 503: admission queue full, queue wait timed out,
    /// the session table was full, or the connection limit was exceeded.
    HttpRejectedOverload => "http.rejected_503",
    /// Open client connections (gauge).
    HttpActiveConns => "http.active_conns",
    /// Statements waiting in the admission queue (gauge).
    HttpQueueDepth => "http.queue_depth",
    /// Registered query sessions holding a pinned snapshot (gauge).
    HttpSessions => "http.sessions",
    /// Sessions reclaimed by the idle-TTL sweep (`--session-ttl`).
    HttpSessionsExpired => "http.sessions_expired",
    /// WAL frames shipped from a primary to a replica (one count per
    /// frame per replica it reached).
    ReplFramesShipped => "repl.frames_shipped",
    /// Shipped frames applied on a replica through the replay path.
    ReplFramesApplied => "repl.frames_applied",
    /// Shipped statements that failed on a replica: it no longer matches
    /// its primary.
    ReplApplyErrors => "repl.apply_errors",
    /// Frames buffered on primaries awaiting shipment (gauge; the
    /// instantaneous ship lag, refreshed on every append and ship).
    ReplShipLag => "repl.ship_lag",
    /// Shard reads the frontend routed to a replica instead of the primary.
    ReplReplicaReads => "repl.replica_reads",
    /// Shard reads served by the primary (replica stale, dead, or its
    /// round-robin turn).
    ReplPrimaryReads => "repl.primary_reads",
    /// Replica reads that fell back to the primary because the replica was
    /// behind the last committed sequence (freshness gate).
    ReplStaleFallbacks => "repl.stale_fallbacks",
    /// Completed failovers (a replica promoted to primary).
    ReplFailovers => "repl.failovers",
    /// Pre-compaction barriers that shipped pending frames before the log
    /// dropped them.
    ReplCompactBarriers => "repl.compact_barriers",
    /// Multi-statement transactions committed.
    TxnCommits => "txn.commits",
    /// Multi-statement transactions rolled back (explicitly or by drop).
    TxnRollbacks => "txn.rollbacks",
    /// Transactions aborted by the first-writer-wins conflict check.
    TxnConflicts => "txn.conflicts",
}

const N: usize = Counter::ALL.len();

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; N] = [ZERO; N];

/// Add `n` to a counter (relaxed; no-op when stats are disabled).
#[inline]
pub fn add(c: Counter, n: u64) {
    // The n == 0 check skips the atomic RMW for the common hot-path case
    // of "nothing to report" (e.g. zero residual drops on an exact index
    // probe).
    if n != 0 && crate::stats_enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Increment a counter by one.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Overwrite a counter — for gauge-style values such as the calibrated
/// parallel-scan threshold. Stored even when stats are disabled, so
/// calibration results are always inspectable.
#[inline]
pub fn set(c: Counter, v: u64) {
    COUNTERS[c as usize].store(v, Ordering::Relaxed);
}

/// Current value of a counter.
#[inline]
pub fn get(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

/// Snapshot of every counter as `(name, value)` pairs, in declaration
/// order (zeros included — callers filter).
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    Counter::ALL.iter().map(|&c| (c.name(), get(c))).collect()
}

pub(crate) fn reset_counters() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_roundtrip() {
        let _g = crate::test_guard();
        crate::set_stats_enabled(true);
        let before = get(Counter::IndexProbes);
        add(Counter::IndexProbes, 3);
        incr(Counter::IndexProbes);
        assert_eq!(get(Counter::IndexProbes), before + 4);
    }

    #[test]
    fn gauge_set_bypasses_enable_switch() {
        set(Counter::MvccEpoch, 4096);
        assert_eq!(get(Counter::MvccEpoch), 4096);
    }

    #[test]
    fn snapshot_names_are_unique() {
        let snap = counters_snapshot();
        assert_eq!(snap.len(), Counter::ALL.len());
        let mut names: Vec<_> = snap.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }
}
