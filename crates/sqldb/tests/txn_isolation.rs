//! What a lazily pinning transaction may see, checked without a clock.
//!
//! A [`Transaction`] pins nothing at BEGIN; it pins a table the first time a
//! statement names it, and only if the live version is the one that was
//! current at BEGIN (every published version carries the epoch that
//! published it). The first half of this file pins each place a version is
//! stamped: changed, dropped, dropped-and-recreated or created after BEGIN
//! means [`DbError::TxnConflict`] at first touch. The second half runs random
//! interleavings of two transactions and an autocommit writer against a
//! model in which a transaction reads the catalog *as of its BEGIN* plus its
//! own writes: every statement answers what the model answers or a conflict,
//! every commit is all or nothing, and the log replays to the live state.

mod common;

use common::Rng;
use sqldb::{DbError, Engine, SyncPolicy, Transaction, Value, WalOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn engine_with(tables: &[&str]) -> Arc<Engine> {
    let db = Arc::new(Engine::new());
    for t in tables {
        db.execute(&format!("CREATE TABLE {t} (a INTEGER)"))
            .unwrap();
        db.execute(&format!("INSERT INTO {t} VALUES (1), (2)"))
            .unwrap();
    }
    db
}

fn is_conflict<T: std::fmt::Debug>(r: Result<T, DbError>) -> bool {
    matches!(r, Err(DbError::TxnConflict(_)))
}

fn count(txn: &mut Transaction, table: &str) -> Result<i64, DbError> {
    let rs = txn.query(&format!("SELECT count(*) FROM {table}"))?;
    Ok(rs.rows()[0][0].as_i64().unwrap())
}

// ---- the stamp sites ------------------------------------------------------

/// Each of the five copy-on-write sites stamps the version it leaves in the
/// slot — in place (nobody pins the table) as well as on a copy.
#[test]
fn a_table_changed_after_begin_conflicts_at_first_touch() {
    type Change = (&'static str, fn(&Engine));
    let changes: [Change; 5] = [
        ("INSERT", |db| {
            db.execute("INSERT INTO t VALUES (3)").unwrap();
        }),
        ("insert_rows", |db| {
            db.insert_rows("t", vec![vec![Value::Int(3)]]).unwrap();
        }),
        ("UPDATE", |db| {
            db.execute("UPDATE t SET a = 9 WHERE a = 1").unwrap();
        }),
        ("DELETE", |db| {
            db.execute("DELETE FROM t WHERE a = 1").unwrap();
        }),
        ("CREATE INDEX", |db| {
            db.execute("CREATE INDEX ix ON t (a)").unwrap();
        }),
    ];
    for (what, change) in changes {
        for reader_pins in [false, true] {
            let db = engine_with(&["t", "other"]);
            let mut txn = db.begin_txn();
            let reader = reader_pins.then(|| db.pin_table("t").unwrap());
            change(&db);
            assert!(is_conflict(count(&mut txn, "t")), "{what} query");
            assert!(is_conflict(txn.table_schema("t")), "{what} schema");
            assert!(
                is_conflict(txn.execute("INSERT INTO t VALUES (4)")),
                "{what}"
            );
            assert!(is_conflict(txn.insert_rows("t", vec![vec![Value::Int(4)]])));
            // The conflicting statements left nothing behind; the rest of
            // the catalog is still the transaction's to use.
            assert_eq!(txn.statements_buffered(), 0);
            assert_eq!(count(&mut txn, "other").unwrap(), 2);
            txn.execute("INSERT INTO other VALUES (3)").unwrap();
            txn.commit().unwrap();
            assert_eq!(db.row_count("other").unwrap(), 3);
            drop(reader);
        }
    }
}

#[test]
fn a_table_dropped_recreated_or_created_after_begin_conflicts() {
    // Dropped.
    let db = engine_with(&["t"]);
    let mut txn = db.begin_txn();
    db.execute("DROP TABLE t").unwrap();
    assert!(is_conflict(count(&mut txn, "t")));
    assert!(is_conflict(txn.execute("CREATE TABLE t (a INTEGER)")));
    // Dropped and recreated: the name is there, the version is new.
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    assert!(is_conflict(count(&mut txn, "t")));
    drop(txn);

    // Created (by statement, programmatically, by another transaction's
    // commit).
    let creates: [fn(&Arc<Engine>); 3] = [
        |db| {
            db.execute("CREATE TABLE u (a INTEGER)").unwrap();
        },
        |db| {
            let schema = db.pin_table("t").unwrap().schema.clone();
            db.create_table("u", schema).unwrap();
        },
        |db| {
            let mut other = db.begin_txn();
            other.execute("CREATE TABLE u (a INTEGER)").unwrap();
            other.commit().unwrap();
        },
    ];
    for create in creates {
        let db = engine_with(&["t"]);
        let mut txn = db.begin_txn();
        create(&db);
        assert!(is_conflict(count(&mut txn, "u")));
        assert!(is_conflict(txn.execute("CREATE TABLE u (a INTEGER)")));
        assert_eq!(txn.statements_buffered(), 0);
    }

    // The catalog keeps one removal epoch, not one per name: after any
    // removal since BEGIN an absent name may have been there at BEGIN.
    let db = engine_with(&["t", "gone"]);
    let mut txn = db.begin_txn();
    db.execute("DROP TABLE gone").unwrap();
    assert!(is_conflict(count(&mut txn, "never_was")));
    // Without one, absent means absent at BEGIN.
    let mut txn = db.begin_txn();
    assert!(matches!(
        count(&mut txn, "never_was"),
        Err(DbError::NoSuchTable(_))
    ));
}

#[test]
fn versions_published_by_a_commit_are_stamped() {
    let db = engine_with(&["swapped", "appended", "dropped"]);
    let mut reader = db.begin_txn();
    let mut writer = db.begin_txn();
    writer
        .execute("UPDATE swapped SET a = 7 WHERE a = 1")
        .unwrap();
    writer.execute("INSERT INTO appended VALUES (3)").unwrap();
    writer.execute("DROP TABLE dropped").unwrap();
    writer.commit().unwrap();
    for t in ["swapped", "appended", "dropped"] {
        assert!(is_conflict(count(&mut reader, t)), "{t}");
    }
    // A transaction that begins now reads all of it.
    let mut after = db.begin_txn();
    assert_eq!(count(&mut after, "appended").unwrap(), 3);
    assert!(matches!(
        count(&mut after, "dropped"),
        Err(DbError::NoSuchTable(_))
    ));
}

/// First-writer-wins is about the tables a transaction touched: others may
/// change under it, and a pinned table is frozen, not lost.
#[test]
fn untouched_tables_changing_concurrently_do_not_conflict() {
    let db = engine_with(&["mine", "theirs", "read"]);
    let mut txn = db.begin_txn();
    assert_eq!(count(&mut txn, "read").unwrap(), 2);
    txn.execute("INSERT INTO mine VALUES (3)").unwrap();
    db.execute("INSERT INTO theirs VALUES (3)").unwrap();
    db.execute("CREATE TABLE new_one (a INTEGER)").unwrap();
    // Pinned at first touch: still the version as of BEGIN.
    db.execute("INSERT INTO read VALUES (3)").unwrap();
    assert_eq!(count(&mut txn, "read").unwrap(), 2);
    txn.commit().unwrap();
    assert_eq!(db.row_count("mine").unwrap(), 3);
    assert_eq!(db.row_count("theirs").unwrap(), 3);
    assert_eq!(db.row_count("read").unwrap(), 3);
}

/// An accepted statement that changes nothing still ran against one version
/// of its table, and the log carries it: the table joins the conflict check,
/// or the log would replay to a different end than the live catalog reached.
/// A rejected statement leaves no trace — no log entry, so nothing to check.
#[test]
fn a_statement_without_effect_still_joins_the_conflict_check() {
    let statements = [
        "DELETE FROM t WHERE a = 3",
        "UPDATE t SET a = 0 WHERE a = 3",
        "CREATE TABLE IF NOT EXISTS t (a INTEGER)",
    ];
    for statement in statements {
        let db = engine_with(&["t"]);
        let mut txn = db.begin_txn();
        txn.execute(statement).unwrap();
        assert_eq!(txn.statements_buffered(), 1, "{statement}");
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        assert!(is_conflict(txn.commit()), "{statement}");
    }
    let rejected = [
        (
            "INSERT INTO t VALUES ('not a number')",
            "INSERT INTO t VALUES (3)",
        ),
        ("INSERT INTO u VALUES (1)", "CREATE TABLE u (a INTEGER)"),
    ];
    for (statement, meanwhile) in rejected {
        let db = engine_with(&["t", "other"]);
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO other VALUES (3)").unwrap();
        assert!(txn.execute(statement).is_err());
        assert_eq!(txn.statements_buffered(), 1, "{statement}");
        db.execute(meanwhile).unwrap();
        txn.commit().unwrap();
    }
}

// ---- random interleavings against a model ---------------------------------

const TABLES: [&str; 3] = ["t0", "t1", "t2"];

/// Table name → rows (sorted), for the tables that exist.
type Catalog = BTreeMap<&'static str, Vec<i64>>;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(&'static str, i64),
    /// `SET a = a + 100 WHERE a = v`
    Update(&'static str, i64),
    Delete(&'static str, i64),
    Create(&'static str),
    Drop(&'static str),
}

impl Op {
    fn random(rng: &mut Rng) -> Op {
        let t = TABLES[rng.below(3) as usize];
        let v = rng.int(0, 4);
        match rng.below(10) {
            0..=3 => Op::Insert(t, v),
            4..=5 => Op::Update(t, v),
            6..=7 => Op::Delete(t, v),
            8 => Op::Create(t),
            _ => Op::Drop(t),
        }
    }

    fn table(self) -> &'static str {
        match self {
            Op::Insert(t, _)
            | Op::Update(t, _)
            | Op::Delete(t, _)
            | Op::Create(t)
            | Op::Drop(t) => t,
        }
    }

    fn sql(self) -> String {
        match self {
            Op::Insert(t, v) => format!("INSERT INTO {t} VALUES ({v})"),
            Op::Update(t, v) => format!("UPDATE {t} SET a = a + 100 WHERE a = {v}"),
            Op::Delete(t, v) => format!("DELETE FROM {t} WHERE a = {v}"),
            Op::Create(t) => format!("CREATE TABLE {t} (a INTEGER)"),
            Op::Drop(t) => format!("DROP TABLE {t}"),
        }
    }

    /// Apply to the model; `Err(())` where the engine answers an error.
    fn apply(self, cat: &mut Catalog) -> Result<usize, ()> {
        match self {
            Op::Create(t) => match cat.contains_key(t) {
                true => Err(()),
                false => {
                    cat.insert(t, Vec::new());
                    Ok(0)
                }
            },
            Op::Drop(t) => cat.remove(t).map(|_| 0).ok_or(()),
            Op::Insert(t, v) => {
                let rows = cat.get_mut(t).ok_or(())?;
                rows.push(v);
                rows.sort_unstable();
                Ok(1)
            }
            Op::Update(t, v) => {
                let rows = cat.get_mut(t).ok_or(())?;
                let hit = rows.iter_mut().filter(|a| **a == v);
                let n = hit.map(|a| *a += 100).count();
                rows.sort_unstable();
                Ok(n)
            }
            Op::Delete(t, v) => {
                let rows = cat.get_mut(t).ok_or(())?;
                let before = rows.len();
                rows.retain(|a| *a != v);
                Ok(before - rows.len())
            }
        }
    }
}

/// A transaction beside what the model says it sees.
struct Open {
    txn: Transaction,
    /// The catalog as of BEGIN.
    base: Catalog,
    /// `base` with the transaction's own writes.
    view: Catalog,
    /// Tables the transaction changed.
    wrote: BTreeSet<&'static str>,
}

fn rows_of(rs: &sqldb::ResultSet) -> Vec<i64> {
    rs.rows().iter().map(|r| r[0].as_i64().unwrap()).collect()
}

/// The live catalog, read table by table.
fn live(db: &Engine) -> Catalog {
    let mut cat = Catalog::new();
    for t in TABLES {
        if let Ok(rs) = db.query(&format!("SELECT a FROM {t} ORDER BY a")) {
            cat.insert(t, rows_of(&rs));
        }
    }
    cat
}

#[test]
fn random_interleavings_match_the_as_of_begin_model() {
    let dir = std::env::temp_dir().join(format!("perfbase_txn_isolation_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let opts = || WalOptions::with_sync(SyncPolicy::Off);
    let (mut conflicts, mut commits, mut reads) = (0, 0, 0);
    for case in 0..150u64 {
        let mut rng = Rng::new(0x7158 + case);
        let (dump, wal) = (
            dir.join(format!("{case}.sql")),
            dir.join(format!("{case}.wal")),
        );
        let (db, _) = Engine::open_durable(&dump, &wal, opts()).unwrap();
        let db = Arc::new(db);
        let mut committed = Catalog::new();
        for t in &TABLES[..2] {
            Op::Create(t).apply(&mut committed).unwrap();
            db.execute(&Op::Create(t).sql()).unwrap();
        }
        let mut open: [Option<Open>; 2] = [None, None];
        for step in 0..40 {
            let at = format!("case {case} step {step}");
            let who = rng.below(3) as usize;
            if who == 2 {
                // The autocommit writer: what it does is committed at once.
                let op = Op::random(&mut rng);
                let got = db.execute(&op.sql());
                assert_eq!(got.ok(), op.apply(&mut committed).ok(), "{at} {op:?}");
            } else if let Some(mut t) = open[who].take() {
                match rng.below(10) {
                    0 => {
                        t.txn.rollback();
                    }
                    1 | 2 => match t.txn.commit() {
                        Ok(()) => {
                            commits += 1;
                            // First writer wins: nothing it wrote to was
                            // changed under it. All of it is there now.
                            for name in t.wrote {
                                assert_eq!(committed.get(name), t.base.get(name), "{at} {name}");
                                match t.view.get(name) {
                                    Some(rows) => committed.insert(name, rows.clone()),
                                    None => committed.remove(name),
                                };
                            }
                        }
                        // None of it is (checked below).
                        Err(DbError::TxnConflict(_)) => conflicts += 1,
                        Err(e) => panic!("{at}: {e}"),
                    },
                    3..=5 => {
                        let name = TABLES[rng.below(3) as usize];
                        let got = t.txn.query(&format!("SELECT a FROM {name} ORDER BY a"));
                        match (got, t.view.get(name)) {
                            (Err(DbError::TxnConflict(_)), _) => conflicts += 1,
                            (Ok(rs), Some(rows)) => {
                                reads += 1;
                                assert_eq!(&rows_of(&rs), rows, "{at} {name}")
                            }
                            (Err(DbError::NoSuchTable(_)), None) => {}
                            (got, want) => panic!("{at} {name}: {got:?}, model {want:?}"),
                        }
                        open[who] = Some(t);
                    }
                    _ => {
                        let op = Op::random(&mut rng);
                        match t.txn.execute(&op.sql()) {
                            Err(DbError::TxnConflict(_)) => conflicts += 1,
                            got => {
                                let want = op.apply(&mut t.view);
                                assert_eq!(got.ok(), want.ok(), "{at} {op:?}");
                                if want.is_ok() {
                                    t.wrote.insert(op.table());
                                }
                            }
                        }
                        open[who] = Some(t);
                    }
                }
            } else {
                open[who] = Some(Open {
                    txn: db.begin_txn(),
                    base: committed.clone(),
                    view: committed.clone(),
                    wrote: BTreeSet::new(),
                });
            }
            // Commits are all or nothing, and nothing else changes anything.
            assert_eq!(live(&db), committed, "{at}");
        }
        drop(open);
        // What the log holds replays to what the catalog reached.
        db.wal_sync().unwrap();
        let reached = db.dump_sql();
        drop(db);
        let (replayed, _) = Engine::open_durable(&dump, &wal, opts()).unwrap();
        assert_eq!(replayed.dump_sql(), reached, "case {case}");
    }
    // The generator reaches every outcome.
    assert!(conflicts > 50 && commits > 50 && reads > 50);
    std::fs::remove_dir_all(&dir).ok();
}
