//! `sqldb` — an embedded, thread-safe relational database engine.
//!
//! perfbase stores all persistent data in an SQL database; the original used
//! a PostgreSQL server (paper §4.2). This crate is the in-process substitute:
//! it provides typed tables, an SQL text front-end (lexer → parser →
//! planner → executor), grouping and aggregation, temporary tables, and a
//! simulated multi-node [`cluster`] used to reproduce the paper's query
//! parallelisation experiment (Fig. 3).
//!
//! Design decisions mirror what perfbase actually needs:
//!
//! * Query elements hand each other **tables as values** — a [`Table`] is a
//!   self-contained column store that need not live in any catalog, and
//!   [`Table::select`] runs a single-table statement over it.
//! * Source elements perform **shared read access** on run tables while each
//!   element builds only its own output table — so tables are individually
//!   `RwLock`-guarded, pinned by `Arc`, and the engine itself is `Sync`.
//! * Operators lean on **in-database aggregation** (`avg`, `stddev`, …)
//!   because that beats row-at-a-time processing in the frontend language —
//!   the claim benchmarked by the `microbench` binary in the bench crate.
//! * Point lookups on run/hash columns dominate the import and query paths —
//!   so tables support **secondary hash indexes** (`CREATE INDEX`) and
//!   **ordered indexes** (`CREATE ORDERED INDEX`) that additionally serve
//!   `IN (...)` lists and range conjuncts, SELECTs compile their
//!   expressions once per statement, and equi-joins hash the smaller side
//!   (see DESIGN.md "Query execution pipeline").
//!
//! Concurrent analysts are served with **MVCC snapshot reads**: every
//! committed mutation bumps a global epoch, [`Engine::snapshot`] pins the
//! current version of every table (one `Arc` clone each, taken under a
//! shared commit gate so the set is transaction-consistent), and writers
//! copy-on-write any table a snapshot still pins. Readers never block
//! writers and vice versa; see [`Snapshot`] and [`Engine::query_at`].
//!
//! Multi-statement write transactions ([`Engine::begin_txn`]) pin no
//! snapshot: a table is pinned the first time the transaction names it, if
//! it is still the version that was current at BEGIN (a conflict otherwise),
//! so a transaction costs what it touches. They buffer statement effects
//! against those versions (read-your-own-writes via [`Transaction::query`];
//! rows merely appended are buffered, not applied to a copy) and commit
//! them atomically: one WAL frame group framed by begin/commit markers
//! (replayed all-or-nothing on recovery), one catalog swap, one epoch tick.
//! Conflicts are first-writer-wins.
//!
//! Not implemented (not needed by perfbase): NULL-aware three-valued logic
//! (NULL comparisons are false), and subqueries.
//!
//! # Example
//!
//! ```
//! use sqldb::Engine;
//! let db = Engine::new();
//! db.execute("CREATE TABLE runs (id INTEGER, fs TEXT, bw FLOAT)").unwrap();
//! db.execute("INSERT INTO runs VALUES (1, 'ufs', 214.5), (2, 'nfs', 98.1), (3, 'ufs', 222.0)").unwrap();
//! let rows = db.query("SELECT fs, avg(bw) FROM runs GROUP BY fs ORDER BY fs").unwrap();
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows.column_names(), &["fs", "avg(bw)"]);
//! ```

pub mod aggregate;
pub mod cluster;
mod column;
mod compile;
mod dump;
mod engine;
mod error;
mod exec;
mod expr;
pub mod repl;
mod schema;
mod snapshot;
pub mod sql;
pub mod sync;
mod table;
mod txn;
mod value;
pub mod wal;

pub use column::{Cell, TableMemory};
pub use engine::{Engine, ResultSet};
pub use error::DbError;
pub use repl::{Promotion, ReplOptions, ReplReport, Replicator};
pub use schema::{Column, Schema};
pub use snapshot::Snapshot;
pub use table::Table;
pub use txn::Transaction;
pub use value::{format_timestamp, parse_timestamp, DataType, Value, ValueKey};
pub use wal::{FrameTap, IoFailpoint, RecoveryReport, SyncPolicy, Wal, WalOptions};

/// The helpers of the suites under `tests/` (the seeded generator, a SELECT
/// parsed to a value), for the unit tests too — which is why the crate goes
/// by the name the integration tests know it under.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;
#[cfg(test)]
extern crate self as sqldb;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Engine {
        let db = Engine::new();
        db.execute("CREATE TABLE bw (run INTEGER, fs TEXT, chunk INTEGER, mode TEXT, mbps FLOAT)")
            .unwrap();
        db.execute(
            "INSERT INTO bw VALUES \
             (1, 'ufs', 1024, 'write', 59.0), \
             (1, 'ufs', 1024, 'read', 227.1), \
             (1, 'ufs', 2097152, 'read', 516.5), \
             (2, 'nfs', 1024, 'write', 11.2), \
             (2, 'nfs', 1024, 'read', 88.4), \
             (2, 'nfs', 2097152, 'read', 120.9)",
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_select_where() {
        let db = sample_db();
        let rs = db
            .query("SELECT mbps FROM bw WHERE fs = 'ufs' AND mode = 'read' ORDER BY mbps")
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows()[0][0], Value::Float(227.1));
        assert_eq!(rs.rows()[1][0], Value::Float(516.5));
    }

    #[test]
    fn end_to_end_group_aggregate() {
        let db = sample_db();
        let rs = db
            .query("SELECT fs, max(mbps), count(mbps) FROM bw GROUP BY fs ORDER BY fs")
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(
            rs.rows()[0],
            vec![
                Value::Text("nfs".into()),
                Value::Float(120.9),
                Value::Int(3)
            ]
        );
        assert_eq!(
            rs.rows()[1],
            vec![
                Value::Text("ufs".into()),
                Value::Float(516.5),
                Value::Int(3)
            ]
        );
    }

    #[test]
    fn end_to_end_join() {
        let db = sample_db();
        db.execute("CREATE TABLE meta (run INTEGER, host TEXT)")
            .unwrap();
        db.execute("INSERT INTO meta VALUES (1, 'grisu0'), (2, 'grisu1')")
            .unwrap();
        let rs = db
            .query(
                "SELECT meta.host, bw.mbps FROM bw JOIN meta ON bw.run = meta.run \
                 WHERE bw.mode = 'write' ORDER BY bw.mbps DESC",
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows()[0][0], Value::Text("grisu0".into()));
    }

    #[test]
    fn end_to_end_update_delete() {
        let db = sample_db();
        let n = db
            .execute("UPDATE bw SET mbps = 0.0 WHERE fs = 'nfs'")
            .unwrap();
        assert_eq!(n, 3);
        let n = db.execute("DELETE FROM bw WHERE mbps = 0.0").unwrap();
        assert_eq!(n, 3);
        let rs = db.query("SELECT count(run) FROM bw").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn temp_tables_listed_separately() {
        let db = Engine::new();
        db.execute("CREATE TABLE perm (x INTEGER)").unwrap();
        db.execute("CREATE TEMP TABLE tmp1 (x INTEGER)").unwrap();
        assert!(db.table_names().contains(&"perm".to_string()));
        assert!(db.table_names().contains(&"tmp1".to_string()));
        assert!(db.temp_table_names().contains(&"tmp1".to_string()));
        assert!(!db.temp_table_names().contains(&"perm".to_string()));
        db.execute("DROP TABLE tmp1").unwrap();
        assert!(!db.table_names().contains(&"tmp1".to_string()));
        assert!(db.temp_table_names().is_empty());
        assert!(db.table_names().contains(&"perm".to_string()));
    }
}
