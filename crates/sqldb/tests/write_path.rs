//! One write path: whichever door a write comes through — SQL text, a
//! programmatic call, a transaction's COMMIT, a script, a replayed frame — it
//! gets the same verdict, the same log entry and the same effect (DESIGN.md
//! "The write path").
//!
//! The first half drives random sequences of accepted and rejected DDL/DML
//! through every door and compares what is left behind. The second half pins
//! the bytes against `fixtures/write_path/`, written by the build at commit
//! `4cdcdcc` (the last with one implementation of each statement per door)
//! by running [`build`] below there: `db.sql` is a checkpoint dump,
//! `accepted.wal` the log tail of `build(dir, false)`, `doomed.wal` the tail
//! of `build(dir, true)` — that build logged a statement before it knew
//! whether it would apply, so its log holds six frames that fail on every
//! replay — and `expected.sql` the `dump_sql()` both runs ended in. Since
//! checkpoints are typed, the checkpoint [`build`] writes is pinned against
//! `fixtures/checkpoint/db.ckpt`, written by the first build that wrote
//! typed checkpoints, and read back to `db.sql`'s catalog and stamp.

mod common;

use common::Rng;
use sqldb::{Column, DataType, Engine, Schema, SyncPolicy, Transaction, Value, Wal, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn opts() -> WalOptions {
    WalOptions::with_sync(SyncPolicy::Off)
}

/// A fresh directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("perfbase_write_path_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable engine on `dir/db.{sql,wal}`.
fn open(dir: &Path) -> (Arc<Engine>, sqldb::RecoveryReport) {
    let (db, report) =
        Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts()).unwrap();
    (Arc::new(db), report)
}

/// The payload of every frame in the log at `path`, markers included.
fn frames(path: &Path) -> Vec<String> {
    let copy = path.with_extension("read");
    std::fs::copy(path, &copy).unwrap();
    Wal::open_recover(&copy, opts(), 1).unwrap().1.statements()
}

// ---- every door, one outcome ----------------------------------------------

const TABLES: [&str; 3] = ["t0", "t1", "s0"];

fn schema(wide: bool) -> Schema {
    let mut columns = vec![
        Column::not_null("id", DataType::Int),
        Column::new("v", DataType::Float),
    ];
    if wide {
        columns.push(Column::new("s", DataType::Text));
    }
    Schema::new(columns).unwrap()
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        other => panic!("{other:?}"),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create {
        table: &'static str,
        if_not_exists: bool,
        wide: bool,
    },
    Drop {
        table: &'static str,
        if_exists: bool,
    },
    Insert {
        table: &'static str,
        rows: Vec<Vec<Value>>,
    },
    Update {
        table: &'static str,
        column: &'static str,
        value: Value,
        id: i64,
    },
    Delete {
        table: &'static str,
        column: &'static str,
        id: i64,
    },
    Index {
        name: &'static str,
        table: &'static str,
        column: &'static str,
        ordered: bool,
        if_not_exists: bool,
    },
}

impl Op {
    /// Mostly statements that apply; every kind of refusal now and then: a
    /// table that exists or does not, NULL in `id`, text in `v`, the wrong
    /// number of values, an unknown column, an index name that is taken.
    fn random(rng: &mut Rng) -> Op {
        let table = TABLES[rng.below(3) as usize];
        let value = |rng: &mut Rng| match rng.below(8) {
            0 => Value::Null,
            1 => Value::Text("abc".into()),
            2 => Value::Int(rng.int(-3, 4)),
            _ => Value::Float(rng.int(0, 40) as f64 / 4.0),
        };
        match rng.below(16) {
            0..=2 => Op::Create {
                table,
                if_not_exists: rng.below(3) == 0,
                wide: rng.below(6) > 0,
            },
            3 => Op::Drop {
                table,
                if_exists: rng.bool(),
            },
            4..=8 => {
                let wide = rng.below(6) > 0;
                let rows = (0..rng.below(4)).map(|_| {
                    let id = match rng.below(12) {
                        0 => Value::Null,
                        _ => Value::Int(rng.int(0, 6)),
                    };
                    let mut row = vec![id, value(rng)];
                    if wide {
                        let s = ["x", "it's", "", "a;b"][rng.below(4) as usize];
                        row.push(Value::Text(s.into()));
                    }
                    row
                });
                Op::Insert {
                    table,
                    rows: rows.collect(),
                }
            }
            9..=11 => Op::Update {
                table,
                column: ["v", "v", "s", "id", "nope"][rng.below(5) as usize],
                value: value(rng),
                id: rng.int(0, 8),
            },
            12..=13 => Op::Delete {
                table,
                column: ["id", "id", "id", "nope"][rng.below(4) as usize],
                id: rng.int(0, 8),
            },
            _ => Op::Index {
                name: ["ix_a", "ix_b"][rng.below(2) as usize],
                table,
                column: ["id", "v", "nope"][rng.below(3) as usize],
                ordered: rng.bool(),
                if_not_exists: rng.below(3) == 0,
            },
        }
    }

    fn sql(&self) -> String {
        match self {
            Op::Create {
                table,
                if_not_exists,
                wide,
            } => format!(
                "CREATE TABLE {}{table} (id INTEGER NOT NULL, v FLOAT{})",
                if *if_not_exists { "IF NOT EXISTS " } else { "" },
                if *wide { ", s TEXT" } else { "" },
            ),
            Op::Drop { table, if_exists } => format!(
                "DROP TABLE {}{table}",
                if *if_exists { "IF EXISTS " } else { "" }
            ),
            Op::Insert { table, rows } => {
                let tuples: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        let cells: Vec<String> = r.iter().map(literal).collect();
                        format!("({})", cells.join(", "))
                    })
                    .collect();
                format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
            }
            Op::Update {
                table,
                column,
                value,
                id,
            } => format!(
                "UPDATE {table} SET {column} = {} WHERE id = {id}",
                literal(value)
            ),
            Op::Delete { table, column, id } => {
                format!("DELETE FROM {table} WHERE {column} = {id}")
            }
            Op::Index {
                name,
                table,
                column,
                ordered,
                if_not_exists,
            } => format!(
                "CREATE {}INDEX {}{name} ON {table} ({column})",
                if *ordered { "ORDERED " } else { "" },
                if *if_not_exists { "IF NOT EXISTS " } else { "" },
            ),
        }
    }

    /// Through the engine's programmatic method where there is one.
    fn call(&self, db: &Engine) -> Option<usize> {
        match self {
            Op::Create {
                table,
                if_not_exists,
                wide,
            } => db
                .create_table_opts(table, schema(*wide), *if_not_exists)
                .ok()
                .map(|()| 0),
            Op::Drop { table, if_exists } => db.drop_table(table, *if_exists).ok().map(|()| 0),
            // `INSERT … VALUES` with no tuple is not SQL; as a call it is an
            // accepted write of nothing.
            Op::Insert { table, rows } => db.insert_rows(table, rows.clone()).ok(),
            Op::Index {
                name,
                table,
                column,
                ordered,
                if_not_exists: false,
            } => db
                .create_index_opts(name, table, column, *ordered)
                .ok()
                .map(|()| 0),
            _ => db.execute(&self.sql()).ok(),
        }
    }

    /// Through the transaction's programmatic method where there is one.
    fn call_in(&self, txn: &mut Transaction) -> Option<usize> {
        match self {
            Op::Create {
                table,
                if_not_exists: false,
                wide,
            } => txn.create_table(table, schema(*wide)).ok().map(|()| 0),
            Op::Drop { table, if_exists } => txn.drop_table(table, *if_exists).ok().map(|()| 0),
            Op::Insert { table, rows } => txn.insert_rows(table, rows.clone()).ok(),
            _ => txn.execute(&self.sql()).ok(),
        }
    }
}

/// A case: mostly there is a table to write to.
fn random_case(rng: &mut Rng) -> Vec<Op> {
    let create = |table| Op::Create {
        table,
        if_not_exists: false,
        wide: true,
    };
    let mut ops: Vec<Op> = TABLES[rng.below(2) as usize..]
        .iter()
        .map(|t| create(t))
        .collect();
    ops.extend((0..40).map(|_| Op::random(rng)));
    // An INSERT needs a tuple to be SQL text.
    ops.retain(|op| !matches!(op, Op::Insert { rows, .. } if rows.is_empty()));
    ops
}

#[test]
fn every_door_leaves_the_same_catalog_and_the_same_log() {
    let dir = scratch("doors");
    let (mut accepted, mut rejected, mut skipped) = (0, 0, 0);
    for case in 0..40u64 {
        let ops = random_case(&mut Rng::new(0x17_0000 + case));
        let sub = |door: &str| {
            let d = dir.join(format!("{case}_{door}"));
            std::fs::create_dir_all(&d).unwrap();
            d
        };

        // (a) `execute`, statement by statement: the reference verdicts.
        let dir_a = sub("execute");
        let (db, _) = open(&dir_a);
        let mut verdicts = Vec::new();
        for op in &ops {
            let (epoch, logged) = (db.epoch(), db.wal_frames());
            let got = db.execute(&op.sql()).ok();
            match got {
                Some(_) => {
                    accepted += 1;
                    assert_eq!(db.epoch(), epoch + 1, "case {case} {op:?}");
                    assert!(db.wal_frames() <= logged + 1);
                    if db.wal_frames() == logged {
                        skipped += 1;
                    }
                }
                None => {
                    rejected += 1;
                    assert_eq!(
                        db.epoch(),
                        epoch,
                        "rejected, yet ticked: case {case} {op:?}"
                    );
                    assert_eq!(db.wal_frames(), logged, "rejected, yet logged: {op:?}");
                }
            }
            verdicts.push(got);
        }
        db.wal_sync().unwrap();
        let reached = db.dump_sql();
        drop(db);
        let log_a = frames(&dir_a.join("db.wal"));

        // (b) The programmatic method where one exists.
        let db = Engine::new();
        for (op, want) in ops.iter().zip(&verdicts) {
            let epoch = db.epoch();
            assert_eq!(&op.call(&db), want, "case {case} call {op:?}");
            assert_eq!(db.epoch(), epoch + u64::from(want.is_some()));
        }
        assert_eq!(db.dump_sql(), reached, "case {case}: calls");

        // (c) One transaction, then COMMIT.
        for calls in [false, true] {
            let dir_c = sub(if calls { "txn_calls" } else { "txn" });
            let (db, _) = open(&dir_c);
            let mut txn = db.begin_txn();
            for (op, want) in ops.iter().zip(&verdicts) {
                let epoch = db.epoch();
                let got = match calls {
                    false => txn.execute(&op.sql()).ok(),
                    true => op.call_in(&mut txn),
                };
                assert_eq!(&got, want, "case {case} txn {op:?}");
                assert_eq!(db.epoch(), epoch);
            }
            assert_eq!(db.wal_frames(), 0, "nothing is logged before COMMIT");
            let epoch = db.epoch();
            txn.commit().unwrap();
            assert_eq!(db.epoch(), epoch + 1, "one tick per COMMIT");
            db.wal_sync().unwrap();
            assert_eq!(db.dump_sql(), reached, "case {case}: transaction");
            drop(db);
            if !calls {
                let log_c = frames(&dir_c.join("db.wal"));
                let mut framed = log_a.clone();
                if framed.len() > 1 {
                    framed.insert(0, "--TXN BEGIN".into());
                    framed.push("--TXN COMMIT".into());
                }
                assert_eq!(log_c, framed, "case {case}");
            }
        }

        // (d) `execute_script`: each run of accepted statements as one
        // script, each rejected statement alone.
        let dir_d = sub("script");
        let (db, _) = open(&dir_d);
        let mut script = String::new();
        for (op, want) in ops.iter().zip(&verdicts) {
            match want {
                Some(_) => script += &format!("{};\n", op.sql()),
                None => {
                    db.execute_script(&std::mem::take(&mut script)).unwrap();
                    assert!(db.execute_script(&op.sql()).is_err());
                }
            }
        }
        db.execute_script(&script).unwrap();
        assert_eq!(db.dump_sql(), reached, "case {case}: script");
        db.wal_sync().unwrap();
        drop(db);
        assert_eq!(frames(&dir_d.join("db.wal")), log_a, "case {case}: script");

        // (e) A fresh engine replaying the log of (a), and of (d).
        for replayed in [dir_a, dir_d] {
            let (db, report) = open(&replayed);
            assert_eq!(report.replay_errors, 0, "case {case}");
            assert_eq!(report.frames_replayed, log_a.len() as u64);
            assert_eq!(db.dump_sql(), reached, "case {case}: replay");
        }
    }
    // The generator reaches every outcome.
    assert!(
        accepted > 800 && rejected > 400 && skipped > 10,
        "{accepted} {rejected} {skipped}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `execute_script` is `execute` per statement: with a log attached, what it
/// acknowledges is in the log.
#[test]
fn a_script_run_with_a_log_attached_is_logged() {
    let dir = scratch("script_logged");
    let (db, _) = open(&dir);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let logged = db.wal_frames();
    let n = db
        .execute_script("INSERT INTO t VALUES (1); -- two\nINSERT INTO t VALUES (2);")
        .unwrap();
    assert_eq!(n, 2, "both rows are acknowledged");
    assert_eq!(db.wal_frames(), logged + 2);
    db.wal_sync().unwrap();
    drop(db);
    let (db, report) = open(&dir);
    assert_eq!(report.replay_errors, 0);
    assert_eq!(db.row_count("t").unwrap(), 2, "acknowledged ⇒ recovered");
    std::fs::remove_dir_all(&dir).ok();
}

/// There is one kind of table. `CREATE TEMP TABLE` is refused by name at
/// every door a statement comes through — `execute`, `execute_script`, a
/// transaction, a dump line, a replayed frame — and leaves no frame, no
/// epoch tick and no table behind.
#[test]
fn temp_is_refused_at_every_door_and_leaves_no_trace() {
    let dir = scratch("temp");
    let (db, _) = open(&dir);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let before = (db.wal_frames(), db.epoch(), db.dump_sql());
    let named = |e: sqldb::DbError, word: &str| {
        let e = e.to_string();
        assert!(
            e.contains(&format!("{word} tables are not supported")),
            "{e}"
        );
    };
    for word in ["TEMP", "TEMPORARY", "temp"] {
        let stmt = format!("CREATE {word} TABLE scratch (x INTEGER)");
        let word = word.to_ascii_uppercase();
        named(db.execute(&stmt).unwrap_err(), &word);
        let script = format!("INSERT INTO t VALUES (1); {stmt}");
        named(db.execute_script(&script).unwrap_err(), &word);
        let mut txn = db.begin_txn();
        named(txn.execute(&stmt).unwrap_err(), &word);
        assert_eq!(txn.statements_buffered(), 0);
        txn.commit().unwrap();
        assert_eq!(
            (db.wal_frames(), db.epoch(), db.dump_sql()),
            before,
            "{stmt}"
        );
        let dump = format!("{}{stmt};\n", before.2);
        named(Engine::from_sql_dump(&dump).unwrap_err(), &word);
    }
    drop(db);
    // A frame no build ever wrote: it fails on replay, and nothing else.
    let (mut log, ..) = Wal::open_recover(&dir.join("db.wal"), opts(), 1).unwrap();
    log.append(&sqldb::sql_record("CREATE TEMP TABLE scratch (x INTEGER)"))
        .unwrap();
    log.sync().unwrap();
    drop(log);
    let (db, report) = open(&dir);
    assert_eq!((report.frames_replayed, report.replay_errors), (2, 1));
    assert_eq!(
        db.wal_frames(),
        before.0 + 1,
        "only the frame written above"
    );
    assert_eq!((db.epoch(), db.dump_sql()), (before.1, before.2));
    std::fs::remove_dir_all(&dir).ok();
}

// ---- the parent's bytes -----------------------------------------------------

/// Statements a correct engine refuses: NULL in a NOT NULL column, a table
/// that does not exist, a column that does not exist.
const DOOMED: [&str; 3] = [
    "INSERT INTO t VALUES (NULL, 1, 'n')",
    "INSERT INTO missing VALUES (1)",
    "UPDATE t SET nope = 1",
];

struct Built {
    /// The checkpoint on disk.
    checkpoint: Vec<u8>,
    /// The log tail after it.
    wal: Vec<u8>,
    /// `dump_sql()` after the last write.
    reached: String,
}

/// Accepted statements of every kind through every door — with each no-op
/// the log carries and each it skips — over a checkpoint dump; `doomed` adds
/// the refused ones, autocommit and inside the marker group.
fn build(dir: &Path, doomed: bool) -> Built {
    let (dump, wal) = (dir.join("db.sql"), dir.join("db.wal"));
    let (db, _) = open(dir);
    let refused = |run: &mut dyn FnMut(&str) -> bool| {
        for stmt in DOOMED.iter().filter(|_| doomed) {
            assert!(!run(stmt), "{stmt}");
        }
    };
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b TEXT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'it''s'), (3, NULL, E'line\\nbreak')")
        .unwrap();
    db.checkpoint(&dump).unwrap();

    // SQL text, autocommit.
    for stmt in [
        "CREATE TABLE IF NOT EXISTS t (id INTEGER)", // a no-op the log carries
        "UPDATE t SET a = 11 WHERE id = 1",
        "UPDATE t SET a = 0 WHERE id = 99", // no row: carried
        "DELETE FROM t WHERE id = 99",      // no row: carried
        "CREATE INDEX ix_t_a ON t (a)",
        "CREATE INDEX ix_again ON t (a)",      // covered: skipped
        "CREATE ORDERED INDEX ix_up ON t (a)", // an upgrade
        "CREATE INDEX IF NOT EXISTS ix_t_a ON t (b)", // name taken: carried
        "DROP TABLE IF EXISTS nope",           // no table: skipped
    ] {
        db.execute(stmt).unwrap();
    }
    refused(&mut |stmt| db.execute(stmt).is_ok());

    // Programmatic calls, autocommit.
    let p = Schema::new(vec![
        Column::not_null("k", DataType::Int),
        Column::new("v", DataType::Float),
        Column::new("note", DataType::Text),
    ])
    .unwrap();
    db.create_table("p", p.clone()).unwrap();
    let row = |k: i64, v: Value, note: &str| vec![Value::Int(k), v, Value::Text(note.into())];
    db.insert_rows(
        "p",
        vec![
            row(1, Value::Int(2), "coerced"),
            row(2, Value::Float(f64::INFINITY), "tab\there"),
            row(3, Value::Null, ""),
        ],
    )
    .unwrap();
    db.insert_rows("p", Vec::new()).unwrap(); // no row: skipped
    db.create_index_opts("ix_p", "p", "v", true).unwrap();
    db.create_index("ix_p2", "p", "v").unwrap(); // covered: skipped
    if doomed {
        assert!(db
            .insert_rows("p", vec![row(4, Value::Text("x".into()), "")])
            .is_err());
    }

    // A transaction of SQL text: one marker group.
    let mut txn = db.begin_txn();
    txn.execute("INSERT INTO t VALUES (4, 40, 'four')").unwrap();
    refused(&mut |stmt| txn.execute(stmt).is_ok());
    txn.execute("UPDATE t SET b = 'q' WHERE id = 2").unwrap();
    txn.execute("DELETE FROM t WHERE id = 3").unwrap();
    txn.execute("DELETE FROM t WHERE id = 3").unwrap(); // no row now: carried
    txn.execute("CREATE TABLE u (k TEXT)").unwrap();
    txn.commit().unwrap();

    // A transaction of programmatic calls.
    let mut txn = db.begin_txn();
    txn.create_table("cd", p).unwrap();
    txn.insert_rows("cd", vec![row(7, Value::Int(-1), "it's")])
        .unwrap();
    txn.drop_table("p", false).unwrap();
    txn.commit().unwrap();

    // One statement needs no markers.
    let mut txn = db.begin_txn();
    txn.execute("INSERT INTO u VALUES ('solo')").unwrap();
    txn.commit().unwrap();
    db.drop_table("cd", false).unwrap();

    db.wal_sync().unwrap();
    Built {
        checkpoint: std::fs::read(&dump).unwrap(),
        wal: std::fs::read(&wal).unwrap(),
        reached: db.dump_sql(),
    }
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/write_path")
        .join(name)
}

/// The frames of accepted statements, and the dumps, are the parent's byte
/// for byte — and refused statements add nothing to either. The checkpoint
/// holds what the parent's `db.sql` held, catalog and stamp, and its typed
/// bytes are pinned.
#[test]
fn accepted_statements_are_logged_and_dumped_as_the_parent_did() {
    let typed = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint/db.ckpt");
    for doomed in [false, true] {
        let dir = scratch(if doomed { "build_doomed" } else { "build" });
        let built = build(&dir, doomed);
        let expect = |name: &str| std::fs::read(fixture(name)).unwrap();
        let (loaded, stamp) = Engine::load_checkpoint(&dir.join("db.sql")).unwrap();
        let stamped = format!("\n-- wal-checkpoint-seq: {}\n", stamp.unwrap());
        assert_eq!(
            loaded.dump_sql().replacen('\n', &stamped, 1).as_bytes(),
            expect("db.sql"),
            "doomed={doomed}"
        );
        assert!(
            built.checkpoint == std::fs::read(&typed).unwrap(),
            "doomed={doomed}: checkpoint bytes differ"
        );
        assert_eq!(
            built.reached.as_bytes(),
            expect("expected.sql"),
            "doomed={doomed}"
        );
        // The log is typed records now: the parent's `accepted.wal` still
        // recovers (below), and `records.wal` pins what this build writes.
        assert!(
            built.wal == expect("records.wal"),
            "doomed={doomed}: log bytes differ"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A log the parent wrote — doomed frames and all — recovers as it did there:
/// the same catalog, the same count of frames that fail.
#[test]
fn a_parent_written_log_with_doomed_frames_still_recovers() {
    // (log, frames replayed, of which failing): the parent's own report.
    // `records.wal` is `accepted.wal` as this build writes it.
    for (log, replayed, errors) in [
        ("accepted.wal", 20, 0),
        ("doomed.wal", 26, 6),
        ("records.wal", 20, 0),
    ] {
        let dir = scratch(log);
        std::fs::copy(fixture("db.sql"), dir.join("db.sql")).unwrap();
        std::fs::copy(fixture(log), dir.join("db.wal")).unwrap();
        let (db, report) = open(&dir);
        assert_eq!(report.frames_replayed, replayed, "{log}");
        assert_eq!(report.replay_errors, errors, "{log}");
        assert_eq!(report.txn_frames_discarded, 0);
        let expected = std::fs::read_to_string(fixture("expected.sql")).unwrap();
        assert_eq!(db.dump_sql(), expected, "{log}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
