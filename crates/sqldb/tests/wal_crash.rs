//! Crash-consistency suite for the write-ahead log.
//!
//! The property under test: no matter where a crash lands — between
//! statements, in the middle of a frame write, or as byte-level truncation
//! of the log file — recovery yields exactly a *prefix* of the logged
//! statement sequence, and the recovered engine state is identical to a
//! fresh engine executing that same prefix. Zero partially-applied
//! statements, ever.
//!
//! The suite drives well over 50 distinct kill points (the ISSUE 3
//! acceptance floor) across four fault families:
//!
//! * clean crash after k frames ([`IoFailpoint::crash_after_frames`]),
//! * torn write at byte N ([`IoFailpoint::torn_write_after`]),
//! * byte-level truncation of a complete log (simulating a kernel that
//!   flushed only part of the tail page),
//! * a kill inside checkpoint, after the dump rename but before the log
//!   compaction ([`IoFailpoint::crash_before_compact`]) — the window where
//!   dump and log both hold every frame and a naive recovery would apply
//!   each statement twice.

use sqldb::cluster::{Cluster, LatencyModel};
use sqldb::{sql_record, Engine, IoFailpoint, SyncPolicy, Wal, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p =
            std::env::temp_dir().join(format!("perfbase_walcrash_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Tiny deterministic PRNG (xorshift64*) so kill points are randomized but
/// reproducible without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A deterministic import-like workload: DDL, indexed inserts (some with
/// text that needs escaped literals), updates, deletes, and a drop. Every
/// statement is durable, so the logged sequence equals this list exactly.
fn workload() -> Vec<String> {
    let mut stmts = vec![
        "CREATE TABLE runs (id INTEGER, tag TEXT, bw FLOAT)".to_string(),
        "CREATE INDEX IF NOT EXISTS ix_runs_id ON runs (id)".to_string(),
        "CREATE TABLE notes (run INTEGER, body TEXT)".to_string(),
    ];
    for i in 0..24i64 {
        stmts.push(format!(
            "INSERT INTO runs VALUES ({i}, 'fs{}', {}.5)",
            i % 3,
            100 + i
        ));
        if i % 5 == 0 {
            // Embedded newline, tab and quote: exercises E'…' literals on
            // the replay path.
            stmts.push(format!(
                "INSERT INTO notes VALUES ({i}, E'line1\\nit''s\\ttabbed')"
            ));
        }
        if i % 7 == 3 {
            stmts.push(format!(
                "UPDATE runs SET bw = bw + 1.0 WHERE id = {}",
                i / 2
            ));
        }
        if i % 9 == 4 {
            stmts.push(format!("DELETE FROM notes WHERE run = {}", i - 4));
        }
    }
    stmts.push("DROP TABLE notes".to_string());
    stmts
}

/// The frames a log takes from running `full_log` with no fault, as the
/// SQL text they stand for: one per statement.
fn logged(full_log: &[String]) -> Vec<String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = TempDir::new(&format!("logged_{n}"));
    run_until_crash(
        &dir.path("full.wal"),
        Arc::new(IoFailpoint::none()),
        full_log,
    );
    let frames = Wal::open_recover(&dir.path("full.wal"), WalOptions::default(), 1)
        .unwrap()
        .1;
    let frames = frames.statements();
    assert_eq!(frames.len(), full_log.len(), "one frame per statement");
    frames
}

/// Recover `wal_path` and assert the core crash-consistency property:
/// the surviving frames are exactly those of `full_log[..n]` for some n,
/// and replaying them reaches the same state as executing that prefix on a
/// fresh engine. Returns the recovered prefix length.
fn recover_and_check(wal_path: &Path, full_log: &[String]) -> usize {
    let (wal, stmts, report) = Wal::open_recover(wal_path, WalOptions::default(), 1).unwrap();
    drop(wal);
    let stmts = stmts.statements();
    assert_eq!(stmts.len() as u64, report.frames_replayed);
    assert!(
        stmts.len() <= full_log.len(),
        "recovered {} statements from a {}-statement workload",
        stmts.len(),
        full_log.len()
    );
    assert_eq!(
        stmts[..],
        logged(full_log)[..stmts.len()],
        "recovered log must be an exact prefix of the written sequence"
    );

    let replayed = Engine::new();
    for s in &stmts {
        replayed.execute(s).unwrap();
    }
    let reference = Engine::new();
    for s in &full_log[..stmts.len()] {
        reference.execute(s).unwrap();
    }
    assert_eq!(
        replayed.dump_sql(),
        reference.dump_sql(),
        "recovered state must equal a fresh prefix execution"
    );
    stmts.len()
}

/// Apply the workload through an engine whose WAL is armed with `fp`,
/// stopping at the first simulated-crash error (as a dying process would).
fn run_until_crash(wal_path: &Path, fp: Arc<IoFailpoint>, full_log: &[String]) {
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        failpoint: fp,
    };
    let wal = Wal::create(wal_path, opts, 1).unwrap();
    let eng = Engine::new();
    eng.attach_wal(wal);
    for s in full_log {
        if let Err(e) = eng.execute(s) {
            assert!(e.to_string().contains("simulated crash"), "{e}");
            break;
        }
    }
    // The "process" dies here: the engine and its WAL are dropped with
    // whatever the fault left on disk.
}

#[test]
fn fifty_plus_randomized_kill_points_recover_a_consistent_prefix() {
    let dir = TempDir::new("killpoints");
    let full_log = workload();
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    let mut kill_points = 0usize;

    // Family 1: clean crash after k frames. Recovery must surface exactly
    // the k statements that made it to the log.
    for k in (0..full_log.len() as u64).step_by(2) {
        let wal_path = dir.path(&format!("frames_{k}.wal"));
        run_until_crash(
            &wal_path,
            Arc::new(IoFailpoint::crash_after_frames(k)),
            &full_log,
        );
        let n = recover_and_check(&wal_path, &full_log);
        assert_eq!(
            n as u64, k,
            "with sync=always, every appended frame survives"
        );
        kill_points += 1;
    }

    // A clean full run, as the reference for byte-level faults.
    let master = dir.path("master.wal");
    run_until_crash(&master, Arc::new(IoFailpoint::none()), &full_log);
    let master_bytes = std::fs::read(&master).unwrap();
    assert_eq!(recover_and_check(&master, &full_log), full_log.len());
    let len = master_bytes.len() as u64;

    // Family 2: torn write at a randomized byte budget. The append that
    // crosses the budget leaves a partial frame; recovery truncates it.
    for i in 0..20 {
        let budget = 17 + rng.below(len - 17);
        let wal_path = dir.path(&format!("torn_{i}.wal"));
        run_until_crash(
            &wal_path,
            Arc::new(IoFailpoint::torn_write_after(budget)),
            &full_log,
        );
        recover_and_check(&wal_path, &full_log);
        kill_points += 1;
    }

    // Family 3: byte-level truncation of the complete log — including
    // mid-header cuts (t < 16), which must rebuild an empty log rather
    // than error.
    for i in 0..25 {
        let t = rng.below(len + 1) as usize;
        let wal_path = dir.path(&format!("trunc_{i}.wal"));
        std::fs::write(&wal_path, &master_bytes[..t]).unwrap();
        recover_and_check(&wal_path, &full_log);
        kill_points += 1;
    }

    assert!(
        kill_points >= 50,
        "only {kill_points} kill points exercised"
    );
}

/// The checkpoint kill point: `Engine::checkpoint` renames the new dump
/// into place and only then compacts the log. A crash in between leaves
/// dump AND log both holding every frame — recovery must skip the frames
/// the dump's recorded checkpoint sequence already covers instead of
/// double-applying them (every INSERT would otherwise be duplicated).
#[test]
fn kill_between_checkpoint_dump_and_compaction_never_double_applies() {
    let dir = TempDir::new("ckptkill");
    let full_log = workload();

    for (i, k) in [1usize, 3, 7, 12, 20, full_log.len()]
        .into_iter()
        .enumerate()
    {
        let dump = dir.path(&format!("ckpt_{i}.sql"));
        let wal_path = dir.path(&format!("ckpt_{i}.wal"));
        let fp = Arc::new(IoFailpoint::crash_before_compact());
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            failpoint: fp.clone(),
        };
        let (eng, _) = Engine::open_durable(&dump, &wal_path, opts).unwrap();
        for s in &full_log[..k] {
            eng.execute(s).unwrap();
        }
        let err = eng.checkpoint(&dump).unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(
            fp.is_crashed(),
            "checkpoint kill point must trip the failpoint"
        );
        drop(eng);

        // Restart: the dump reflects all k statements and the log still
        // holds all k frames — each statement must be applied exactly once.
        let (eng2, report) =
            Engine::open_durable(&dump, &wal_path, WalOptions::with_sync(SyncPolicy::Always))
                .unwrap();
        assert_eq!(
            report.frames_skipped, k as u64,
            "every logged frame is already in the dump"
        );
        assert_eq!(report.frames_replayed, 0, "nothing left to replay");
        assert_eq!(
            report.replay_errors, 0,
            "skipped frames must not even be attempted"
        );
        let reference = Engine::new();
        for s in &full_log[..k] {
            reference.execute(s).unwrap();
        }
        assert_eq!(
            eng2.dump_sql(),
            reference.dump_sql(),
            "checkpoint kill point k={k}"
        );
    }
}

/// After a checkpoint kill, the database keeps working: the stale log
/// segment is skipped on open, new writes append behind it, and the next
/// clean checkpoint folds everything and compacts the log for real.
#[test]
fn recovery_after_checkpoint_kill_continues_the_log() {
    let dir = TempDir::new("ckptresume");
    let full_log = workload();
    let dump = dir.path("db.sql");
    let wal_path = dir.path("db.wal");
    let half = full_log.len() / 2;

    let fp = Arc::new(IoFailpoint::crash_before_compact());
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        failpoint: fp,
    };
    let (eng, _) = Engine::open_durable(&dump, &wal_path, opts).unwrap();
    for s in &full_log[..half] {
        eng.execute(s).unwrap();
    }
    assert!(eng.checkpoint(&dump).is_err(), "armed kill point must fire");
    drop(eng);

    // Restart, finish the workload, checkpoint cleanly this time.
    let (eng2, report) =
        Engine::open_durable(&dump, &wal_path, WalOptions::with_sync(SyncPolicy::Always)).unwrap();
    assert_eq!(report.frames_skipped, half as u64);
    for s in &full_log[half..] {
        eng2.execute(s).unwrap();
    }
    eng2.checkpoint(&dump).unwrap();
    drop(eng2);

    let (eng3, report) =
        Engine::open_durable(&dump, &wal_path, WalOptions::with_sync(SyncPolicy::Always)).unwrap();
    assert_eq!(
        report.frames_skipped, 0,
        "clean checkpoint compacted the log"
    );
    assert_eq!(report.frames_replayed, 0);
    let reference = Engine::new();
    for s in &full_log {
        reference.execute(s).unwrap();
    }
    assert_eq!(eng3.dump_sql(), reference.dump_sql());
}

#[test]
fn short_reads_during_recovery_are_torn_tails_not_errors() {
    let dir = TempDir::new("shortread");
    let full_log = workload();
    let master = dir.path("master.wal");
    run_until_crash(&master, Arc::new(IoFailpoint::none()), &full_log);
    let len = std::fs::metadata(&master).unwrap().len();

    let mut rng = Rng(0x5eed_cafe_f00d_0002);
    for i in 0..8 {
        let budget = 16 + rng.below(len - 16);
        let wal_path = dir.path(&format!("sr_{i}.wal"));
        std::fs::copy(&master, &wal_path).unwrap();
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            failpoint: Arc::new(IoFailpoint::short_read_after(budget)),
        };
        let (wal, stmts, _) = Wal::open_recover(&wal_path, opts, 1).unwrap();
        drop(wal);
        let stmts = stmts.statements();
        assert!(stmts.len() <= full_log.len());
        assert_eq!(stmts[..], logged(&full_log)[..stmts.len()]);
    }
}

/// An import-like workload as an older build logged it: `USING COLUMNAR`
/// DDL (accepted and ignored now), inserts with NULL cells (null bitmaps), repeated tags (dictionary
/// codes), and updates/deletes that rewrite the typed vectors in place.
fn columnar_workload() -> Vec<String> {
    let mut stmts = vec![
        "CREATE TABLE runs (id INTEGER, tag TEXT, bw FLOAT) USING COLUMNAR".to_string(),
        "CREATE INDEX IF NOT EXISTS ix_runs_tag ON runs (tag)".to_string(),
    ];
    for i in 0..20i64 {
        stmts.push(format!(
            "INSERT INTO runs VALUES ({i}, 'fs{}', {}.25)",
            i % 3,
            50 + i
        ));
        if i % 4 == 1 {
            stmts.push(format!("INSERT INTO runs VALUES ({i}, NULL, NULL)"));
        }
        if i % 6 == 3 {
            stmts.push(format!(
                "UPDATE runs SET bw = bw * 2.0 WHERE id = {}",
                i / 2
            ));
        }
        if i % 8 == 5 {
            stmts.push(format!("DELETE FROM runs WHERE id = {}", i - 5));
        }
    }
    stmts
}

/// A log holding the old `USING COLUMNAR` DDL rides the same WAL frames as
/// any other, so every crash family must recover a consistent prefix here
/// too — with the vectorized path live on the recovered table and the
/// clause gone from its dump.
#[test]
fn columnar_tables_survive_kill_points_and_checkpoint_kill() {
    let dir = TempDir::new("columnar");
    let full_log = columnar_workload();
    let mut rng = Rng(0x5eed_cafe_f00d_0003);

    // Clean crash after k frames.
    for k in (0..full_log.len() as u64).step_by(3) {
        let wal_path = dir.path(&format!("col_frames_{k}.wal"));
        run_until_crash(
            &wal_path,
            Arc::new(IoFailpoint::crash_after_frames(k)),
            &full_log,
        );
        assert_eq!(recover_and_check(&wal_path, &full_log) as u64, k);
    }

    // Clean full run as the byte-fault reference, then torn writes.
    let master = dir.path("col_master.wal");
    run_until_crash(&master, Arc::new(IoFailpoint::none()), &full_log);
    assert_eq!(recover_and_check(&master, &full_log), full_log.len());
    let len = std::fs::metadata(&master).unwrap().len();
    for i in 0..10 {
        let budget = 17 + rng.below(len - 17);
        let wal_path = dir.path(&format!("col_torn_{i}.wal"));
        run_until_crash(
            &wal_path,
            Arc::new(IoFailpoint::torn_write_after(budget)),
            &full_log,
        );
        recover_and_check(&wal_path, &full_log);
    }

    // The clause is read, never written: the dump drops it, and EXPLAIN
    // reports the vectorized path like for any table.
    let (wal, stmts, _) = Wal::open_recover(&master, WalOptions::default(), 1).unwrap();
    drop(wal);
    let stmts = stmts.statements();
    let eng = Engine::new();
    for s in &stmts {
        eng.execute(s).unwrap();
    }
    assert!(!eng.dump_sql().contains("USING"));
    let plan = eng
        .query("EXPLAIN SELECT tag, count(*) FROM runs GROUP BY tag")
        .unwrap();
    let text = plan
        .rows()
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains(" vectorized=full "), "{text}");

    // Checkpoint kill between the dump rename and the log compaction:
    // every frame is both in the dump and in the log, and must be applied
    // exactly once on restart.
    let dump = dir.path("col_ckpt.sql");
    let wal_path = dir.path("col_ckpt.wal");
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        failpoint: Arc::new(IoFailpoint::crash_before_compact()),
    };
    let (eng, _) = Engine::open_durable(&dump, &wal_path, opts).unwrap();
    for s in &full_log {
        eng.execute(s).unwrap();
    }
    assert!(eng.checkpoint(&dump).is_err(), "armed kill point must fire");
    drop(eng);
    let (eng2, report) =
        Engine::open_durable(&dump, &wal_path, WalOptions::with_sync(SyncPolicy::Always)).unwrap();
    assert_eq!(report.frames_skipped, full_log.len() as u64);
    assert_eq!(report.frames_replayed, 0);
    let reference = Engine::new();
    for s in &full_log {
        reference.execute(s).unwrap();
    }
    assert_eq!(eng2.dump_sql(), reference.dump_sql());
}

/// Transaction kill points: a 3-statement transaction commits as five
/// frames (begin marker, three statements, commit marker). Crash the log
/// after each of the six possible frame counts and recover — every kill
/// point before the commit marker must leave *zero* transaction effects
/// (the filtered recovery discards the unterminated group), and only the
/// kill point after the commit marker shows the full transaction.
#[test]
fn txn_kill_points_recover_all_or_nothing() {
    let dir = TempDir::new("txnkill");
    let setup = [
        "CREATE TABLE t (id INTEGER, s TEXT)",
        "INSERT INTO t VALUES (0, 'seed')",
    ];
    let txn_stmts = [
        "INSERT INTO t VALUES (1, 'a')",
        "UPDATE t SET s = 'seeded' WHERE id = 0",
        "INSERT INTO t VALUES (2, 'b')",
    ];
    let txn_frames = txn_stmts.len() as u64 + 2; // begin + stmts + commit

    for k in 0..=txn_frames {
        let dump = dir.path(&format!("txn_{k}.sql"));
        let wal_path = dir.path(&format!("txn_{k}.wal"));
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            failpoint: Arc::new(IoFailpoint::crash_after_frames(setup.len() as u64 + k)),
        };
        let (eng, _) = Engine::open_durable(&dump, &wal_path, opts).unwrap();
        let eng = Arc::new(eng);
        for s in setup {
            eng.execute(s).unwrap();
        }
        let mut txn = eng.begin_txn();
        for s in txn_stmts {
            txn.execute(s).unwrap();
        }
        let commit = txn.commit();
        if k < txn_frames {
            let e = commit.unwrap_err();
            assert!(e.to_string().contains("simulated crash"), "k={k}: {e}");
        } else {
            commit.unwrap();
        }
        drop(eng);

        let (eng2, report) =
            Engine::open_durable(&dump, &wal_path, WalOptions::with_sync(SyncPolicy::Always))
                .unwrap();
        assert_eq!(report.replay_errors, 0, "k={k}");
        let reference = Arc::new(Engine::new());
        for s in setup {
            reference.execute(s).unwrap();
        }
        if k == txn_frames {
            // The commit marker made it to the log: all three statements
            // replay, as if the reference committed the same transaction.
            let mut t = reference.begin_txn();
            for s in txn_stmts {
                t.execute(s).unwrap();
            }
            t.commit().unwrap();
            assert_eq!(report.txn_frames_discarded, 0, "k={k}");
            assert_eq!(eng2.row_count("t").unwrap(), 3, "k={k}");
        } else {
            // Any earlier kill point: the k logged transaction frames
            // (begin marker + k-1 statements, or nothing for k=0) are
            // discarded wholesale — the seed row is untouched.
            assert_eq!(report.txn_frames_discarded, k, "k={k}");
            assert_eq!(eng2.row_count("t").unwrap(), 1, "k={k}");
            let rs = eng2.query("SELECT s FROM t WHERE id = 0").unwrap();
            assert_eq!(format!("{}", rs.rows()[0][0]), "seed", "k={k}");
        }
        assert_eq!(
            eng2.dump_sql(),
            reference.dump_sql(),
            "txn kill point k={k} must be all-or-nothing"
        );
    }
}

/// Transaction atomicity at the 1-, 2- and 4-node sizes named by the
/// issue: every node commits one transaction cleanly, then the last node
/// dies mid-way through a second transaction (after the begin marker and
/// one statement frame). On restart the victim shows only the committed
/// transaction — no partial second-transaction effects — while the other
/// nodes, whose logs share nothing with the victim's, keep both.
#[test]
fn txn_cluster_kill_points_at_1_2_4_nodes() {
    for nodes in [1usize, 2, 4] {
        let dir = TempDir::new(&format!("txncluster{nodes}"));
        let sync = SyncPolicy::Always;

        let c = Cluster::new(nodes, LatencyModel::none());
        c.attach_wal_dir_with(&dir.0, |i| c.node_wal_options(i, sync))
            .unwrap();
        for i in 0..nodes {
            let mut t = c.node(i).engine.begin_txn();
            t.execute("CREATE TABLE t (x INTEGER)").unwrap();
            t.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            t.execute("INSERT INTO t VALUES (100)").unwrap();
            t.commit().unwrap();
        }

        // Arm only the victim's log: its next transaction gets its begin
        // marker and first statement to disk, then the log dies.
        let victim = nodes - 1;
        c.node_failpoint(victim).arm_frame_kill(2);
        for i in 0..nodes {
            let mut t = c.node(i).engine.begin_txn();
            t.execute("INSERT INTO t VALUES (7)").unwrap();
            t.execute("INSERT INTO t VALUES (8)").unwrap();
            let r = t.commit();
            if i == victim {
                let e = r.unwrap_err();
                assert!(e.to_string().contains("simulated crash"), "{e}");
            } else {
                r.unwrap();
            }
        }
        drop(c);

        let c2 = Cluster::new(nodes, LatencyModel::none());
        let reports = c2
            .attach_wal_dir(&dir.0, &WalOptions::with_sync(sync))
            .unwrap();
        for (i, report) in reports.iter().enumerate() {
            let expect = if i == victim { 2 } else { 4 };
            assert_eq!(
                c2.node(i).engine.row_count("t").unwrap(),
                expect,
                "node {i} of {nodes}"
            );
            let r = report.as_ref().unwrap();
            let discarded = if i == victim { 2 } else { 0 };
            assert_eq!(r.txn_frames_discarded, discarded, "node {i} of {nodes}");
            assert_eq!(r.replay_errors, 0, "node {i} of {nodes}");
        }
    }
}

/// Prefix property at the cluster level: each node keeps its own log, and
/// a torn tail on one node must not disturb the others. Exercised at the
/// 1-, 2- and 4-node sizes named by the issue.
#[test]
fn cluster_recovery_at_1_2_4_nodes() {
    for nodes in [1usize, 2, 4] {
        let dir = TempDir::new(&format!("cluster{nodes}"));
        let opts = WalOptions::with_sync(SyncPolicy::Always);

        let c = Cluster::new(nodes, LatencyModel::none());
        c.attach_wal_dir(&dir.0, &opts).unwrap();
        for i in 0..nodes {
            let eng = &c.node(i).engine;
            eng.execute("CREATE TABLE t (x INTEGER, s TEXT)").unwrap();
            for r in 0..=i as i64 {
                eng.execute(&format!("INSERT INTO t VALUES ({r}, 'node{i}')"))
                    .unwrap();
            }
        }
        drop(c);

        // Tear the last node's log mid-tail: it loses its final insert but
        // must still recover cleanly; other nodes recover everything.
        let victim = nodes - 1;
        let victim_wal = dir.path(&format!("node{victim}.wal"));
        let wal_len = std::fs::metadata(&victim_wal).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim_wal)
            .unwrap();
        f.set_len(wal_len - 3).unwrap();
        drop(f);

        let c2 = Cluster::new(nodes, LatencyModel::none());
        let reports = c2.attach_wal_dir(&dir.0, &opts).unwrap();
        for (i, r) in reports.iter().enumerate() {
            let r = r.as_ref().unwrap();
            let expect = if i == victim {
                i as u64 + 1
            } else {
                i as u64 + 2
            };
            assert_eq!(r.frames_replayed, expect, "node {i} of {nodes}");
            if i == victim {
                assert!(r.torn_bytes > 0, "victim must report the torn tail");
            }
        }
        for i in 0..nodes {
            let expect = if i == victim { i as i64 } else { i as i64 + 1 };
            let rs = c2.node(i).engine.query("SELECT count(*) FROM t").unwrap();
            assert_eq!(
                format!("{}", rs.rows()[0][0]),
                format!("{expect}"),
                "node {i} of {nodes}"
            );
        }
    }
}

// ---- a dump and the log that continues it ---------------------------------

/// A checkpointed database (its dump records checkpoint sequence 4) holding
/// rows 1..=3 of `t`; returns the dump and log paths.
fn checkpointed(dir: &TempDir) -> (PathBuf, PathBuf) {
    let (dump, wal) = (dir.path("db.sql"), dir.path("db.wal"));
    let (db, _) = Engine::open_durable(&dump, &wal, WalOptions::default()).unwrap();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    db.checkpoint(&dump).unwrap();
    let (_, stamp) = Engine::load_checkpoint(&dump).unwrap();
    assert_eq!(stamp, Some(4));
    (dump, wal)
}

/// Acked ⇒ recovered includes the first write after a restore: a dump opened
/// without its log (or with a log whose header a crash in `create` tore)
/// starts a log at the dump's checkpoint sequence. It used to start at 1, and
/// the next open skipped the acked frames as "already checkpointed".
#[test]
fn a_dump_restored_without_its_log_keeps_acknowledged_writes() {
    for torn_header in [false, true] {
        let dir = TempDir::new(if torn_header { "torn_header" } else { "no_log" });
        let (dump, wal) = checkpointed(&dir);
        if torn_header {
            let header = std::fs::read(&wal).unwrap();
            std::fs::write(&wal, &header[..7]).unwrap();
        } else {
            std::fs::remove_file(&wal).unwrap();
        }
        let (db, report) = Engine::open_durable(&dump, &wal, WalOptions::default()).unwrap();
        assert_eq!((report.start_seq, report.next_seq), (4, 4), "{report:?}");
        assert_eq!(report.frames_replayed, 0);
        db.execute("DELETE FROM t WHERE a = 1").unwrap();
        db.execute("INSERT INTO t VALUES (4)").unwrap();
        db.wal_sync().unwrap();
        drop(db);
        let (db, report) = Engine::open_durable(&dump, &wal, WalOptions::default()).unwrap();
        assert_eq!(report.frames_skipped, 0, "{report:?}");
        assert_eq!(report.frames_replayed, 2, "{report:?}");
        let rows = db.query("SELECT a FROM t ORDER BY a").unwrap();
        assert_eq!(rows.render_tsv(), "a\n2\n3\n4\n");
    }
}

/// A log that ends below the dump's checkpoint sequence is some other
/// dump's: it is refused, naming both numbers, and left as it was — its
/// next frames would be numbered into the range recovery skips.
#[test]
fn a_log_that_ends_below_the_dumps_checkpoint_is_refused() {
    let dir = TempDir::new("stale_log");
    let (dump, wal) = checkpointed(&dir);
    // The log of a younger database: two frames, sequences 1 and 2.
    let mut stale = Wal::create(&wal, WalOptions::default(), 1).unwrap();
    stale
        .append(&sql_record("CREATE TABLE other (b INTEGER)"))
        .unwrap();
    stale
        .append(&sql_record("INSERT INTO other VALUES (1)"))
        .unwrap();
    stale.sync().unwrap();
    drop(stale);
    let before = std::fs::read(&wal).unwrap();
    let err = Engine::open_durable(&dump, &wal, WalOptions::default()).unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("ends at sequence 3") && text.contains("checkpoint sequence 4"),
        "{text}"
    );
    assert_eq!(std::fs::read(&wal).unwrap(), before, "refused ⇒ untouched");
    // The dump's own log — compacted, or not yet (a crash between the dump
    // rename and the compaction) — ends at the checkpoint sequence or above.
    std::fs::remove_file(&wal).unwrap();
    let mut own = Wal::create(&wal, WalOptions::default(), 1).unwrap();
    for stmt in [
        "CREATE TABLE t (a INTEGER)",
        "INSERT INTO t VALUES (1), (2)",
        "INSERT INTO t VALUES (3)",
        "INSERT INTO t VALUES (4)",
    ] {
        own.append(&sql_record(stmt)).unwrap();
    }
    own.sync().unwrap();
    drop(own);
    let (db, report) = Engine::open_durable(&dump, &wal, WalOptions::default()).unwrap();
    assert_eq!((report.frames_skipped, report.frames_replayed), (3, 1));
    assert_eq!(db.row_count("t").unwrap(), 4);
}

/// A poisoned log's dead group — the begin marker and the statements of a
/// commit whose append failed part-way — lies below the floor of the
/// checkpoint that cleared the poison. When that checkpoint is killed before
/// its compaction, the group stays in the file, and the reopen must read it
/// as checkpointed, not as a group still open: a statement acknowledged
/// behind it is a unit of its own, kept in the file and in the catalog, and
/// the next write is numbered after it.
#[test]
fn a_dead_group_below_the_checkpoint_holds_no_later_frame() {
    /// Refuses the frame with sequence number 4: the group's first INSERT.
    struct RefusesFour;
    impl sqldb::FrameTap for RefusesFour {
        fn on_frame(&self, seq: u64, _crc: u32, _record: &[u8]) -> Result<(), sqldb::DbError> {
            match seq {
                4 => Err(sqldb::DbError::Io("tap refused the frame".into())),
                _ => Ok(()),
            }
        }
    }
    let dir = TempDir::new("dead_group");
    let (dump, wal) = (dir.path("db.sql"), dir.path("db.wal"));
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        failpoint: Arc::new(IoFailpoint::crash_before_compact()),
    };
    let db = Arc::new(Engine::open_durable(&dump, &wal, opts).unwrap().0);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(db.wal_set_tap(Some(Arc::new(RefusesFour))));
    let mut txn = db.begin_txn();
    txn.execute("INSERT INTO t VALUES (2)").unwrap();
    txn.execute("INSERT INTO t VALUES (3)").unwrap();
    assert!(txn.commit().is_err());
    assert!(
        db.wal_poisoned(),
        "the begin marker and frame 4 are in the file"
    );
    assert!(db.checkpoint(&dump).is_err(), "armed kill point must fire");
    drop(db);

    let sync = || WalOptions::with_sync(SyncPolicy::Always);
    let (db, report) = Engine::open_durable(&dump, &wal, sync()).unwrap();
    assert_eq!(
        (report.frames_skipped, report.next_seq),
        (4, 5),
        "{report:?}"
    );
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    drop(db);
    let before = std::fs::read(&wal).unwrap();

    let (db, report) = Engine::open_durable(&dump, &wal, sync()).unwrap();
    let after = std::fs::read(&wal).unwrap();
    assert!(
        after == before,
        "an acknowledged frame was cut: {} → {} bytes",
        before.len(),
        after.len()
    );
    assert_eq!(
        (report.frames_replayed, report.txn_frames_discarded),
        (1, 0),
        "{report:?}"
    );
    assert_eq!(
        report.next_seq, 6,
        "the next write is numbered after 7's frame"
    );
    db.execute("INSERT INTO t VALUES (8)").unwrap();
    drop(db);

    let (db, report) = Engine::open_durable(&dump, &wal, sync()).unwrap();
    assert_eq!(
        (report.frames_replayed, report.next_seq),
        (2, 7),
        "{report:?}"
    );
    let rows = db.query("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(rows.render_tsv(), "a\n1\n7\n8\n");
}

/// Read by hand with its checkpoint's floor, the log that
/// `a_dead_group_below_the_checkpoint_holds_no_later_frame` leaves keeps
/// every frame: the dead group below the floor is returned as it is, not
/// read as a group that swallows the acknowledged statements behind it,
/// and the file is not cut.
#[test]
fn a_log_read_with_its_checkpoints_floor_keeps_the_frames_behind_a_dead_group() {
    /// Refuses the frame with sequence number 4: the group's first INSERT.
    struct RefusesFour;
    impl sqldb::FrameTap for RefusesFour {
        fn on_frame(&self, seq: u64, _crc: u32, _record: &[u8]) -> Result<(), sqldb::DbError> {
            match seq {
                4 => Err(sqldb::DbError::Io("tap refused the frame".into())),
                _ => Ok(()),
            }
        }
    }
    let dir = TempDir::new("dead_group_by_hand");
    let (dump, wal) = (dir.path("db.sql"), dir.path("db.wal"));
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        failpoint: Arc::new(IoFailpoint::crash_before_compact()),
    };
    let db = Arc::new(Engine::open_durable(&dump, &wal, opts).unwrap().0);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(db.wal_set_tap(Some(Arc::new(RefusesFour))));
    let mut txn = db.begin_txn();
    txn.execute("INSERT INTO t VALUES (2)").unwrap();
    txn.execute("INSERT INTO t VALUES (3)").unwrap();
    assert!(txn.commit().is_err());
    assert!(db.checkpoint(&dump).is_err(), "armed kill point must fire");
    drop(db);
    let sync = || WalOptions::with_sync(SyncPolicy::Always);
    for value in [7, 8] {
        let db = Engine::open_durable(&dump, &wal, sync()).unwrap().0;
        db.execute(&format!("INSERT INTO t VALUES ({value})"))
            .unwrap();
    }

    let copy = dir.path("copy.wal");
    std::fs::copy(&wal, &copy).unwrap();
    let before = std::fs::metadata(&copy).unwrap().len();
    assert_eq!(before, 271, "the log of six frames");
    let (_, stamp) = Engine::load_checkpoint(&dump).unwrap();
    assert_eq!(stamp, Some(5));
    let (log, frames, report) = Wal::open_recover(&copy, sync(), stamp.unwrap_or(1)).unwrap();
    drop(log);
    assert_eq!(
        frames.statements(),
        [
            "CREATE TABLE t (a INTEGER)",
            "INSERT INTO t VALUES (1)",
            "--TXN BEGIN",
            "INSERT INTO t VALUES (2)",
            "INSERT INTO t VALUES (7)",
            "INSERT INTO t VALUES (8)",
        ]
    );
    assert_eq!(
        (report.frames_skipped, report.txn_frames_discarded),
        (4, 0),
        "{report:?}"
    );
    assert_eq!(std::fs::metadata(&copy).unwrap().len(), before, "cut");
}
