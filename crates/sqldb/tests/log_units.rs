//! A log is a sequence of whole units, and it ends where its last whole
//! unit ends (DESIGN.md §4n).
//!
//! The first half pins what must not move: `fixtures/log_units/` holds three
//! logs the build at commit `2a2f210` wrote (the last with two
//! implementations of the grouping rule) and, for each, the dump that build
//! recovered it to and the `RecoveryReport` it gave — `groups.wal` was
//! written by its engine, the other two frame by frame. The second half is a
//! seeded crash-and-reopen model: random autocommit statements and
//! transactions against a model of what was *acknowledged*, a log device
//! that dies or fails at a random frame, then reopen and carry on — on one
//! node, and through a replicated cluster.

mod common;

use common::Rng;
use sqldb::cluster::{Cluster, LatencyModel};
use sqldb::{Engine, IoFailpoint, RecoveryReport, ReplOptions, Replicator, SyncPolicy, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("perfbase_log_units_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable engine on `dir/db.wal` alone (no test here checkpoints), its
/// log writing through `failpoint`.
fn open(dir: &Path, failpoint: IoFailpoint) -> (Arc<Engine>, RecoveryReport) {
    let opts = WalOptions {
        sync: SyncPolicy::Off,
        failpoint: Arc::new(failpoint),
    };
    let (db, report) =
        Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts).unwrap();
    (Arc::new(db), report)
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("db.wal")).unwrap().len()
}

// ---- old logs read as before ------------------------------------------------

/// Each parent-written log recovers to the parent's catalog and report, and
/// is then converted: nothing appends to a version-1 log.
#[test]
fn parent_written_logs_recover_byte_identically() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/log_units");
    let dir = scratch("fixtures");
    for name in ["groups", "stray_commit", "begin_in_group"] {
        let fixture = |ext: &str| fixtures.join(format!("{name}.{ext}"));
        let log = std::fs::read(fixture("wal")).unwrap();
        std::fs::write(dir.join("db.wal"), &log).unwrap();
        let (db, report) = open(&dir, IoFailpoint::none());
        let want_dump = std::fs::read_to_string(fixture("sql")).unwrap();
        assert!(db.dump_sql() == want_dump, "{name}: dump");
        let want_report = std::fs::read_to_string(fixture("report")).unwrap();
        assert_eq!(format!("{report:?}\n"), want_report, "{name}");
        // A version-1 log is converted once, by a checkpoint right after
        // its replay: the typed file holds the catalog, stamped where the
        // log ended, and the log is a version-2 header and nothing else.
        drop(db);
        let mut header = b"PBWL".to_vec();
        header.extend_from_slice(&2u32.to_le_bytes());
        header.extend_from_slice(&report.next_seq.to_le_bytes());
        assert!(
            std::fs::read(dir.join("db.wal")).unwrap() == header,
            "{name}"
        );
        let (loaded, stamp) = Engine::load_checkpoint(&dir.join("db.sql")).unwrap();
        assert_eq!(stamp, Some(report.next_seq), "{name}");
        assert!(loaded.dump_sql() == want_dump, "{name}: checkpoint");
        let (db, again) = open(&dir, IoFailpoint::none());
        assert!(db.dump_sql() == want_dump, "{name}: reopened");
        assert_eq!((again.frames_replayed, again.txn_frames_discarded), (0, 0));
        assert_eq!((again.torn_bytes, again.next_seq), (0, report.next_seq));
        drop(db);
        std::fs::remove_file(dir.join("db.sql")).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- the crash-and-reopen model ---------------------------------------------

/// One unit of work: a statement in autocommit, or a transaction.
struct Unit {
    txn: bool,
    stmts: Vec<String>,
}

impl Unit {
    /// An autocommit statement, or a transaction of 1–4, over the tables of
    /// [`SETUP`]; `next_id` numbers the rows of `t`.
    fn random(rng: &mut Rng, next_id: &mut i64) -> Unit {
        let txn = rng.below(5) < 2;
        let stmts = (0..if txn { 1 + rng.below(4) } else { 1 })
            .map(|_| match rng.below(8) {
                0 => format!("DELETE FROM t WHERE id = {}", rng.int(0, *next_id + 1)),
                1 | 2 => format!(
                    "UPDATE t SET v = 'u{}' WHERE id = {}",
                    rng.below(100),
                    rng.int(0, *next_id + 1)
                ),
                3 => format!("INSERT INTO u VALUES ({}.5)", rng.below(1000)),
                _ => {
                    *next_id += 1;
                    format!("INSERT INTO t VALUES ({next_id}, 'v{}')", rng.below(100))
                }
            })
            .collect();
        Unit { txn, stmts }
    }

    /// Run on `db`; `Ok` is the acknowledgement.
    fn run(&self, db: &Arc<Engine>) -> Result<(), sqldb::DbError> {
        if !self.txn {
            return db.execute(&self.stmts[0]).map(drop);
        }
        let mut txn = db.begin_txn();
        for s in &self.stmts {
            txn.execute(s).unwrap();
        }
        txn.commit()
    }

    /// Record an acknowledged unit in the model.
    fn acknowledged(&self, model: &Engine) {
        for s in &self.stmts {
            model.execute(s).unwrap();
        }
    }
}

const SETUP: [&str; 2] = [
    "CREATE TABLE t (id INTEGER, v TEXT)",
    "CREATE TABLE u (x FLOAT)",
];

#[test]
fn acknowledged_is_recovered_over_any_number_of_reopens() {
    let dir = scratch("model");
    let mut dead_groups = 0;
    for seed in 0..200u64 {
        let mut rng = Rng::new(0x0010_c0f0 + seed);
        std::fs::remove_file(dir.join("db.wal")).ok();
        let model = Engine::new();
        let mut next_id = 0;
        let (db, _) = open(&dir, IoFailpoint::none());
        for s in SETUP {
            db.execute(s).unwrap();
            model.execute(s).unwrap();
        }
        drop(db);
        // The file's length the last time a unit was acknowledged.
        let mut acked_len = wal_len(&dir);

        for round in 0..1 + rng.below(4) {
            let ctx = format!("seed {seed} round {round}");
            let (db, report) = open(&dir, IoFailpoint::none());
            assert!(db.dump_sql() == model.dump_sql(), "{ctx}: tables");
            assert_eq!(report.replay_errors, 0, "{ctx}");
            assert_eq!(wal_len(&dir), acked_len, "{ctx}: the log's end");
            dead_groups += u64::from(report.txn_frames_discarded > 0);
            drop(db);

            // Recovery is idempotent on the file: what the first open cut
            // off, the second does not find.
            let at = rng.below(10);
            let failpoint = if rng.bool() {
                IoFailpoint::crash_after_frames(at)
            } else {
                IoFailpoint::append_error_after(at)
            };
            let (db, again) = open(&dir, failpoint);
            assert_eq!(
                (again.txn_frames_discarded, again.torn_bytes, wal_len(&dir)),
                (0, 0, acked_len),
                "{ctx}: second open"
            );

            let mut failed = false;
            for _ in 0..6 {
                let unit = Unit::random(&mut rng, &mut next_id);
                match unit.run(&db) {
                    // Every statement here is logged, and nothing is
                    // acknowledged behind a failed append — by a process
                    // that died, or by one that lives with a poisoned log.
                    Ok(()) => {
                        assert!(!failed, "{ctx}: acknowledged behind a failure");
                        unit.acknowledged(&model);
                        acked_len = wal_len(&dir);
                    }
                    Err(_) => failed = true,
                }
            }
        }
        let (db, _) = open(&dir, IoFailpoint::none());
        assert!(db.dump_sql() == model.dump_sql(), "seed {seed}: tables");
        assert_eq!(wal_len(&dir), acked_len, "seed {seed}: the log's end");
    }
    assert!(dead_groups > 40, "only {dead_groups} opens cut a group off");
    std::fs::remove_dir_all(&dir).ok();
}

/// The same sequences on node 1 of a cluster that keeps two replicas of it
/// (nodes 2 and 3), shipping every second frame: a replica reads what it is
/// shipped through the reader recovery uses.
#[test]
fn replicas_show_whole_units_only() {
    let dir = scratch("cluster");
    let opts = ReplOptions {
        replicas: 2,
        lag_budget: 2,
    };
    for seed in 0..100u64 {
        let mut rng = Rng::new(0x0010_c0f0 + seed);
        std::fs::remove_dir_all(&dir).ok();
        let cluster = Arc::new(Cluster::new(4, LatencyModel::none()));
        cluster
            .attach_wal_dir_with(&dir, |i| cluster.node_wal_options(i, SyncPolicy::Off))
            .unwrap();
        let repl = Replicator::attach(&cluster, opts);
        let primary = cluster.node(1).engine.clone();
        let model = Engine::new();
        for s in SETUP {
            primary.execute(s).unwrap();
            model.execute(s).unwrap();
        }
        primary.wal_sync().unwrap();
        let mut next_id = 0;
        for i in 0..rng.below(12) {
            let unit = Unit::random(&mut rng, &mut next_id);
            unit.run(&primary).unwrap();
            unit.acknowledged(&model);
            // Between barriers a replica may hold a group open, and then
            // shows none of it; at the barrier it has applied every unit.
            primary.wal_sync().unwrap();
            let want = primary.dump_sql();
            for node in [2, 3] {
                let progress = repl.stream(1).unwrap().replica_progress(node).unwrap();
                assert_eq!(progress.0, progress.1, "seed {seed} unit {i}: node {node}");
                let replica = cluster.node(node).engine.dump_sql();
                assert!(replica == want, "seed {seed} unit {i}: node {node}");
            }
        }

        // The primary dies inside a commit, after the begin marker and
        // before the commit marker, with the frames so far partly shipped.
        let doomed = Unit {
            txn: true,
            stmts: (0..2 + rng.below(3))
                .map(|i| format!("INSERT INTO t VALUES ({}, 'doomed')", 1000 + i))
                .collect(),
        };
        let kept = 1 + rng.below(doomed.stmts.len() as u64 + 1);
        cluster.node_failpoint(1).arm_frame_kill(kept);
        assert!(doomed.run(&primary).is_err());
        let promotion = repl.promote(&cluster, 1).unwrap();
        assert_eq!(promotion.frames_replayed, 0, "seed {seed}: kept {kept}");
        let promoted = cluster.node(promotion.promoted).engine.dump_sql();
        assert!(promoted == model.dump_sql(), "seed {seed}: kept {kept}");
        repl.detach(&cluster);
    }
    std::fs::remove_dir_all(&dir).ok();
}
