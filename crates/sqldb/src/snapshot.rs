//! MVCC snapshots: an immutable, epoch-stamped view of the whole catalog.
//!
//! [`Engine::snapshot`](crate::Engine::snapshot) pins the current version
//! of every table — one `Arc` clone per table, taken while holding the
//! engine's commit gate shared, so the set is *transaction-consistent*: it
//! reflects every statement up to its epoch and nothing after. Readers
//! holding a snapshot never block writers and are never blocked by them;
//! writers that mutate a pinned table copy it first (copy-on-write), so
//! the pinned version — column store, dictionaries and indexes — stays
//! frozen for the snapshot's lifetime.
//!
//! Sessions pin the whole catalog this way; a write transaction does not
//! ([`crate::txn`] pins table by table, at first touch, and is a view of its
//! own).
#![warn(missing_docs)]

use crate::error::DbError;
use crate::table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// A pinned, read-only view of every table at one commit epoch.
///
/// Cheap to clone (the table versions are shared, not copied) and safe to
/// send across threads; queries run against it with
/// [`Engine::query_at`](crate::Engine::query_at).
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    tables: HashMap<String, Arc<Table>>,
}

impl Snapshot {
    pub(crate) fn new(epoch: u64, tables: HashMap<String, Arc<Table>>) -> Snapshot {
        Snapshot { epoch, tables }
    }

    /// The commit epoch this snapshot was pinned at. Two snapshots with
    /// the same epoch observe identical data.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned version of one table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, DbError> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Does the snapshot contain `name`?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Row count of a table at this snapshot.
    pub fn row_count(&self, name: &str) -> Result<usize, DbError> {
        Ok(self.table(name)?.len())
    }

    /// All table names in the snapshot (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }
}

/// A snapshot as a view: every table at the version it pinned.
impl crate::exec::View for &Snapshot {
    fn pin(&mut self, name: &str) -> Result<Arc<Table>, DbError> {
        self.table(name)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use crate::value::Value;

    #[test]
    fn snapshot_is_frozen_at_its_epoch() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let snap = db.snapshot();
        let epoch = snap.epoch();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        db.execute("CREATE TABLE u (b INTEGER)").unwrap();

        // The snapshot still sees two rows and no table `u`.
        assert_eq!(snap.row_count("t").unwrap(), 2);
        assert!(!snap.has_table("u"));
        assert_eq!(snap.epoch(), epoch);
        let rs = db.query_at(&snap, "SELECT count(*) FROM t").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(2));
        // The live engine has moved on.
        assert_eq!(db.row_count("t").unwrap(), 3);
        assert!(db.epoch() > epoch);
    }

    #[test]
    fn snapshot_survives_table_drop() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (7)").unwrap();
        let snap = db.snapshot();
        db.execute("DROP TABLE t").unwrap();
        assert!(!db.has_table("t"));
        let rs = db.query_at(&snap, "SELECT a FROM t").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(7));
    }

    #[test]
    fn missing_table_reports_no_such_table() {
        let db = Engine::new();
        let snap = db.snapshot();
        assert!(db.query_at(&snap, "SELECT * FROM nope").is_err());
        assert!(snap.table("nope").is_err());
        assert_eq!(snap.table_names(), Vec::<String>::new());
    }
}
