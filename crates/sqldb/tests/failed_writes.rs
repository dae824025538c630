//! A write the client was told failed leaves no trace a reopen finds
//! (DESIGN.md §4n). The frames of the write are whole in the log when the
//! error comes — the log's tap refuses the last of them, or the fsync after
//! them fails — and the log takes them back: the file is cut to where the
//! write began, the next write is numbered from there, and recovery finds
//! neither the write nor a dead group.

use sqldb::{Engine, IoFailpoint, SyncPolicy, Value, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perfbase_failed_writes_{}_{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable engine on `dir/db.{ckpt,wal}`, every frame fsynced, faults
/// from `fp`.
fn open(dir: &Path, fp: IoFailpoint) -> (Engine, sqldb::RecoveryReport) {
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        failpoint: Arc::new(fp),
    };
    Engine::open_durable(&dir.join("db.ckpt"), &dir.join("db.wal"), opts).unwrap()
}

/// `t`'s rows after a reopen, and that the reopen discarded nothing.
fn reopened(dir: &Path) -> Vec<i64> {
    let (db, report) = open(dir, IoFailpoint::none());
    assert_eq!(report.txn_frames_discarded, 0, "{report:?}");
    assert_eq!(report.torn_bytes, 0, "{report:?}");
    let rows = db.query("SELECT a FROM t ORDER BY a").unwrap();
    rows.rows().iter().map(|r| r[0].as_i64().unwrap()).collect()
}

/// Frames 1 (CREATE) and 2 (INSERT 1) go; the tap refuses frame 3, the
/// INSERT of 2, and then the commit marker of a transaction's group.
#[test]
fn a_write_whose_tap_refuses_it_answers_an_error_and_is_not_recovered() {
    let dir = scratch("tap");
    let (db, _) = open(&dir, IoFailpoint::tap_error_after(2));
    let db = Arc::new(db);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(db.execute("INSERT INTO t VALUES (2)").is_err());
    assert!(!db.wal_poisoned(), "the log took the frame back");
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    drop(db);

    // The begin marker and the group's two statements go; its commit
    // marker is refused.
    let (db, _) = open(&dir, IoFailpoint::tap_error_after(3));
    let db = Arc::new(db);
    let mut txn = db.begin_txn();
    txn.insert_rows("t", vec![vec![Value::Int(4)]]).unwrap();
    txn.execute("CREATE TABLE u (b INTEGER)").unwrap();
    assert!(txn.commit().is_err());
    assert!(!db.wal_poisoned());
    db.insert_rows("t", vec![vec![Value::Int(5)]]).unwrap();
    drop(db);
    assert_eq!(reopened(&dir), [1, 3, 5]);
    let (db, _) = open(&dir, IoFailpoint::none());
    assert!(!db.has_table("u"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Fsyncs 1 (CREATE) and 2 (INSERT 1) go; the one after INSERT 2 fails,
/// and then the one after a transaction's group.
#[test]
fn a_write_whose_fsync_fails_answers_an_error_and_is_not_recovered() {
    let dir = scratch("fsync");
    let (db, _) = open(&dir, IoFailpoint::fsync_error_after(2));
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(db.execute("INSERT INTO t VALUES (2)").is_err());
    assert!(!db.wal_poisoned(), "the log took the frame back");
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    drop(db);

    let (db, _) = open(&dir, IoFailpoint::fsync_error_after(0));
    let db = Arc::new(db);
    let mut txn = db.begin_txn();
    txn.insert_rows("t", vec![vec![Value::Int(4)]]).unwrap();
    txn.execute("CREATE TABLE u (b INTEGER)").unwrap();
    assert!(txn.commit().is_err());
    db.insert_rows("t", vec![vec![Value::Int(5)]]).unwrap();
    drop(db);
    assert_eq!(reopened(&dir), [1, 3, 5]);
    std::fs::remove_dir_all(&dir).ok();
}
