//! Every INSERT door gives the verdict, the stored cells, the count and the
//! log text the build before INSERTs became column batches gave.
//!
//! `fixtures/insert_batches/expected.txt` was written by the build at commit
//! `24e0f86` (the last that turned every INSERT into rows, validated them row
//! by row and transposed them) by running this file's test there with
//! `BLESS=1`. For each case it holds, door by door, the error text of a
//! rejected write, or the affected count, the table as `Debug` (which tells
//! `-0.0` from `0.0` and shows NaN) and the frame text the log took for an
//! accepted one — since the log holds typed records, the statement a SQL
//! door's frame stands for, once the frame is shown to be the batch the
//! table holds. The SQL cases go through `execute`, `execute_script`, a
//! transaction's `execute` and COMMIT, a dump load and a WAL replay; the row
//! cases through `insert_rows` and a transaction's `insert_rows` and COMMIT,
//! and their rendered frame is then read back through the SQL doors.
//!
//! The cases: ragged rows (first row short, a later row short or long, with
//! and without a column list), NOT NULL, every pair of `Value::coerce`,
//! succeeding and failing, constant expressions and their errors beside
//! type errors of earlier rows, `i64::MIN`, `'NaN'`, `E'…'` and empty text —
//! and pairs of errors that only a row-major check reports in this order.

use sqldb::{sql_record, Engine, SyncPolicy, Value, Wal, WalOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every type; NOT NULL on an INTEGER and a TEXT column.
const CREATE: &str = "CREATE TABLE t (i INTEGER NOT NULL, f FLOAT, s TEXT, b BOOLEAN, \
                      ts TIMESTAMP, k TEXT NOT NULL)";

/// INSERT statements, accepted and rejected.
const SQL_CASES: &[&str] = &[
    // Exact matches, NULLs, edges.
    "INSERT INTO t VALUES (1, 2.5, 'a', TRUE, 1101234630, 'k')",
    "INSERT INTO t VALUES (-9223372036854775808, -0.0, '', FALSE, -1, ''), \
     (9223372036854775807, 5e-324, E'line\\none', NULL, NULL, 'it''s')",
    "INSERT INTO t VALUES (2, NULL, NULL, NULL, NULL, 'n')",
    "INSERT INTO t VALUES (3, 'NaN', 'x', TRUE, 0, 'a'), (4, 'inf', 'y', FALSE, 1, 'b'), \
     (5, '-inf', 'x', TRUE, 2, 'a')",
    // Coercions into INTEGER.
    "INSERT INTO t (i, k) VALUES (3.0, 'a'), (TRUE, 'b'), (' 42 ', 'c'), (-0.0, 'd')",
    "INSERT INTO t (i, k) VALUES (3.5, 'a')",
    "INSERT INTO t (i, k) VALUES ('x', 'a')",
    "INSERT INTO t (i, k) VALUES ('NaN', 'a')",
    "INSERT INTO t (i, k) VALUES ('1.0', 'a')",
    // Into FLOAT.
    "INSERT INTO t (i, f, k) VALUES (1, 7, 'a'), (2, ' 2.25 ', 'b'), (3, -9223372036854775808, 'c')",
    "INSERT INTO t (i, f, k) VALUES (1, TRUE, 'a')",
    "INSERT INTO t (i, f, k) VALUES (1, 'x', 'a')",
    // Into TEXT.
    "INSERT INTO t (i, s, k) VALUES (1, 7, 2.0), (2, 2.5, TRUE), (3, FALSE, -0.0), \
     (4, 1e300, 0.1)",
    // Into BOOLEAN.
    "INSERT INTO t (i, b, k) VALUES (1, 0, 'a'), (2, 5, 'b'), (3, 'yes', 'c'), \
     (4, ' OFF ', 'd'), (5, 't', 'e'), (6, '0', 'f')",
    "INSERT INTO t (i, b, k) VALUES (1, 'maybe', 'a')",
    "INSERT INTO t (i, b, k) VALUES (1, 1.0, 'a')",
    // Into TIMESTAMP.
    "INSERT INTO t (i, ts, k) VALUES (1, '2004-11-23 18:30:30', 'a'), (2, '1970-01-01', 'b'), \
     (3, -5, 'c')",
    "INSERT INTO t (i, ts, k) VALUES (1, 'x', 'a')",
    "INSERT INTO t (i, ts, k) VALUES (1, 1.0, 'a')",
    "INSERT INTO t (i, ts, k) VALUES (1, TRUE, 'a')",
    // NOT NULL: written, and left out of a column list.
    "INSERT INTO t VALUES (NULL, 1.0, 'a', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 1.0, 'a', TRUE, 1, NULL)",
    "INSERT INTO t (i) VALUES (1)",
    "INSERT INTO t (k) VALUES ('a')",
    "INSERT INTO t (f, k) VALUES (1.5, 'a')",
    // Column lists: any order, unknown names, counts.
    "INSERT INTO t (k, ts, i) VALUES ('z', 9, 8), ('y', NULL, 7)",
    "INSERT INTO t (i, zz) VALUES (1, 'a')",
    "INSERT INTO t (i, k) VALUES (1, 'a'), (2)",
    "INSERT INTO t (i, k) VALUES (1), (2, 'b')",
    "INSERT INTO t (i, k) VALUES (1, 'a', 3)",
    "INSERT INTO t (zz) VALUES (1, 2)",
    "INSERT INTO t (i, zz) VALUES ('x', 1)",
    // Ragged rows without a column list.
    "INSERT INTO t VALUES (1, 2.0), (2, 2.0, 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 2.0, 's', TRUE, 1, 'k'), (2, 2.0, 's'), (3, 2.0, 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 2.0, 's', TRUE, 1, 'k'), (2, 2.0, 's', TRUE, 1, 'k', 7)",
    "INSERT INTO t VALUES (1, 2.0, 's', TRUE, 1, 'k'), (2), (3, 'x', 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES ('x', 2.0), (2, 'y', 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 'y', 's', TRUE, 1, 'k'), (2, 2.0)",
    // Two errors: row-major order decides which is reported.
    "INSERT INTO t VALUES (1, 'bad', 's', TRUE, 1, 'k'), ('bad', 2.0, 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 2.0, 's', TRUE, 1, NULL), (NULL, 2.0, 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 2.0, 's', 'maybe', 1, 'k'), (2, 'x', 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 2.0, 's', TRUE, 'x', NULL)",
    "INSERT INTO t VALUES (NULL, 'x', 's', TRUE, 1, 'k')",
    "INSERT INTO t (k, i) VALUES (NULL, 'x')",
    "INSERT INTO t (k, i) VALUES ('a', 1), (NULL, 'x')",
    // Constant expressions.
    "INSERT INTO t VALUES (1 + 2, 3 * 1.5, 'a', NOT FALSE, 10 - 4, 'k'), \
     (abs(-4), (2.5), 'b', 1 = 1, -(3), 'k'), (- 5, -1.5 + 0, NULL, NULL, (7), 'c')",
    "INSERT INTO t (i, k) VALUES (- -9223372036854775807, 'a'), (-(-3), 'b')",
    "INSERT INTO t VALUES (1, 'bad', 's', TRUE, 1, 'k'), (2, 2.0, 's', TRUE, 1, 'k'), \
     (9223372036854775807 + 1, 2.0, 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 2.0), (2, 2.0, 's', TRUE, 1, 'k'), \
     (3, 2.0, 's', TRUE, 1, zz)",
    "INSERT INTO t (i, k) VALUES (1, 'a', 3), (9223372036854775807 * 2, 'b')",
    "INSERT INTO t (i, k) VALUES (9223372036854775807 * 2, 'b'), (1, 'a', 3)",
    "INSERT INTO t (i, zz) VALUES (1, 2), (- -9223372036854775808, 3)",
    "INSERT INTO t VALUES (1, 1 / 0, 's', TRUE, 1, 'k')",
    "INSERT INTO t VALUES (1, 2.0, 's', TRUE, 1, 'k' + 1)",
    "INSERT INTO nope VALUES (1)",
];

/// Batches of `insert_rows`: every `Value` variant into every column type.
fn row_cases() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    use Value::*;
    let full = |i: i64, f: Value, s: Value, b: Value, ts: Value, k: &str| {
        vec![Int(i), f, s, b, ts, Text(k.into())]
    };
    let ok = || {
        full(
            1,
            Float(1.0),
            Text("s".into()),
            Bool(true),
            Timestamp(1),
            "k",
        )
    };
    vec![
        ("empty batch", vec![]),
        (
            "exact",
            vec![
                ok(),
                full(
                    i64::MIN,
                    Float(-0.0),
                    Text("".into()),
                    Bool(false),
                    Timestamp(i64::MAX),
                    "",
                ),
            ],
        ),
        (
            "floats",
            vec![
                full(1, Float(f64::NAN), Null, Null, Null, "a"),
                full(2, Float(f64::INFINITY), Null, Null, Null, "b"),
                full(3, Float(f64::NEG_INFINITY), Null, Null, Null, "a"),
                full(4, Float(5e-324), Null, Null, Null, "a"),
            ],
        ),
        (
            "text with escapes",
            vec![full(
                1,
                Null,
                Text("a\nb\t'c'\\\0".into()),
                Null,
                Null,
                "E'x'",
            )],
        ),
        (
            "into INTEGER",
            vec![
                full(1, Null, Null, Null, Null, "a"),
                vec![Float(3.0), Null, Null, Null, Null, Text("b".into())],
                vec![Bool(true), Null, Null, Null, Null, Text("c".into())],
                vec![
                    Text(" 12 ".into()),
                    Null,
                    Null,
                    Null,
                    Null,
                    Text("d".into()),
                ],
            ],
        ),
        (
            "Float into INTEGER",
            vec![vec![Float(0.5), Null, Null, Null, Null, Text("a".into())]],
        ),
        (
            "NaN into INTEGER",
            vec![vec![
                Float(f64::NAN),
                Null,
                Null,
                Null,
                Null,
                Text("a".into()),
            ]],
        ),
        (
            "inf into INTEGER",
            vec![vec![
                Float(f64::INFINITY),
                Null,
                Null,
                Null,
                Null,
                Text("a".into()),
            ]],
        ),
        (
            "Timestamp into INTEGER",
            vec![vec![Timestamp(5), Null, Null, Null, Null, Text("a".into())]],
        ),
        (
            "Text into INTEGER",
            vec![vec![
                Text("1e3".into()),
                Null,
                Null,
                Null,
                Null,
                Text("a".into()),
            ]],
        ),
        (
            "into FLOAT",
            vec![
                full(1, Int(-7), Null, Null, Null, "a"),
                full(2, Text("NaN".into()), Null, Null, Null, "a"),
                full(3, Text(" -0.0 ".into()), Null, Null, Null, "a"),
                full(4, Int(i64::MAX), Null, Null, Null, "a"),
            ],
        ),
        (
            "Bool into FLOAT",
            vec![full(1, Bool(true), Null, Null, Null, "a")],
        ),
        (
            "Timestamp into FLOAT",
            vec![full(1, Timestamp(3), Null, Null, Null, "a")],
        ),
        (
            "Text into FLOAT",
            vec![full(1, Text("1,5".into()), Null, Null, Null, "a")],
        ),
        (
            "into TEXT",
            vec![
                full(1, Null, Int(-3), Null, Null, "a"),
                full(2, Null, Float(2.0), Null, Null, "a"),
                full(3, Null, Float(f64::NAN), Null, Null, "a"),
                full(4, Null, Bool(false), Null, Null, "a"),
                full(5, Null, Timestamp(1_101_234_630), Null, Null, "a"),
                vec![Int(6), Null, Null, Null, Null, Float(-0.0)],
            ],
        ),
        (
            "into BOOLEAN",
            vec![
                full(1, Null, Null, Int(0), Null, "a"),
                full(2, Null, Null, Int(-2), Null, "a"),
                full(3, Null, Null, Text("No".into()), Null, "a"),
                full(4, Null, Null, Text("on".into()), Null, "a"),
            ],
        ),
        (
            "Float into BOOLEAN",
            vec![full(1, Null, Null, Float(1.0), Null, "a")],
        ),
        (
            "Timestamp into BOOLEAN",
            vec![full(1, Null, Null, Timestamp(1), Null, "a")],
        ),
        (
            "Text into BOOLEAN",
            vec![full(1, Null, Null, Text("2".into()), Null, "a")],
        ),
        (
            "into TIMESTAMP",
            vec![
                full(1, Null, Null, Null, Int(-1), "a"),
                full(2, Null, Null, Null, Text("2004-11-23T18:30:30".into()), "a"),
            ],
        ),
        (
            "Float into TIMESTAMP",
            vec![full(1, Null, Null, Null, Float(1.0), "a")],
        ),
        (
            "Bool into TIMESTAMP",
            vec![full(1, Null, Null, Null, Bool(true), "a")],
        ),
        (
            "Text into TIMESTAMP",
            vec![full(1, Null, Null, Null, Text("2004-13-01".into()), "a")],
        ),
        (
            "NULL into NOT NULL INTEGER",
            vec![ok(), vec![Null, Null, Null, Null, Null, Text("a".into())]],
        ),
        (
            "NULL into NOT NULL TEXT",
            vec![vec![Int(1), Null, Null, Null, Null, Null]],
        ),
        ("first row short", vec![vec![Int(1)], ok()]),
        ("later row short", vec![ok(), ok(), vec![Int(1), Null]]),
        (
            "later row long",
            vec![ok(), {
                let mut r = ok();
                r.push(Null);
                r
            }],
        ),
        ("no cells", vec![vec![]]),
        (
            "row-major: FLOAT in row 1 before INTEGER in row 2",
            vec![
                full(1, Text("bad".into()), Null, Null, Null, "a"),
                vec![Text("bad".into()), Null, Null, Null, Null, Text("a".into())],
            ],
        ),
        (
            "row-major: cell in row 1 before arity in row 2",
            vec![
                full(1, Null, Null, Text("bad".into()), Null, "a"),
                vec![Int(1)],
            ],
        ),
        (
            "row-major: arity in row 1 before cell in row 2",
            vec![
                vec![Int(1)],
                vec![Text("bad".into()), Null, Null, Null, Null, Null],
            ],
        ),
        (
            "row-major: NOT NULL in row 1 before coercion in row 2",
            vec![
                vec![Int(1), Null, Null, Null, Null, Null],
                full(2, Text("bad".into()), Null, Null, Null, "a"),
            ],
        ),
        (
            "row-major: coercion before NOT NULL in one row",
            vec![vec![Int(1), Text("bad".into()), Null, Null, Null, Null]],
        ),
    ]
}

fn opts() -> WalOptions {
    WalOptions::with_sync(SyncPolicy::Off)
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/insert_batches")
        .join(name)
}

/// A fresh directory under the system temp dir.
fn scratch() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "perfbase_insert_batches_{}_{n}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The payload of every frame of the log at `path` after the first (the
/// CREATE TABLE), markers included.
fn frames_after_create(path: &Path) -> Vec<String> {
    let copy = path.with_extension("read");
    std::fs::copy(path, &copy).unwrap();
    let mut frames = Wal::open_recover(&copy, opts(), 1).unwrap().1.statements();
    assert_eq!(frames.remove(0), CREATE);
    frames
}

/// A durable engine holding the empty table, on a fresh directory.
fn durable() -> (Arc<Engine>, PathBuf) {
    let dir = scratch();
    let (db, _) = Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts()).unwrap();
    db.execute(CREATE).unwrap();
    (Arc::new(db), dir)
}

/// What a door left: the error, or the count, the table and the frames.
/// A door of SQL text passes its `source`: the log holds the batch the
/// statement appended, not its text (DESIGN.md §4c), so its frames must be
/// the table's rows as the dump writes them, and the line names the
/// statement they stand for, which is what the parent's log held.
fn outcome(
    result: Result<usize, sqldb::DbError>,
    db: &Engine,
    dir: &Path,
    source: Option<&str>,
) -> String {
    let frames = frames_after_create(&dir.join("db.wal"));
    let rows = db.read_snapshot("t").unwrap().1;
    match result {
        Err(e) => {
            assert!(frames.is_empty(), "a rejected write left {frames:?}");
            assert!(rows.is_empty(), "a rejected write left {rows:?}");
            format!("error: {e}")
        }
        Ok(n) => {
            let frames = match source {
                Some(text) => {
                    let dump = db.dump_sql();
                    let stored = dump.lines().filter(|l| l.starts_with("INSERT INTO t "));
                    let stored: Vec<&str> = stored.map(|l| l.trim_end_matches(';')).collect();
                    assert_eq!(frames, stored, "the log took the batch the table holds");
                    vec![text.to_string()]
                }
                None => frames,
            };
            format!("ok {n}\n    rows {rows:?}\n    frames {frames:?}")
        }
    }
}

/// The table a dump or a log leaves behind, and how many statements failed.
fn loaded(db: Result<Engine, sqldb::DbError>, replay_errors: Option<u64>) -> String {
    match db {
        Err(e) => format!("error: {e}"),
        Ok(db) => {
            let rows = db.read_snapshot("t").unwrap().1;
            match replay_errors {
                Some(n) => format!("replay errors {n}\n    rows {rows:?}"),
                None => format!("rows {rows:?}"),
            }
        }
    }
}

/// The SQL doors for one INSERT text.
fn sql_doors(out: &mut String, insert: &str) {
    let (db, dir) = durable();
    let r = db.execute(insert);
    writeln!(out, "  execute: {}", outcome(r, &db, &dir, Some(insert))).unwrap();

    let (db, dir) = durable();
    let r = db.execute_script(&format!("{insert};"));
    let source = Some(insert);
    writeln!(out, "  execute_script: {}", outcome(r, &db, &dir, source)).unwrap();

    let (db, dir) = durable();
    let mut txn = db.begin_txn();
    let r = txn.execute(insert).and_then(|n| txn.commit().map(|()| n));
    writeln!(
        out,
        "  transaction: {}",
        outcome(r, &db, &dir, Some(insert))
    )
    .unwrap();

    let dump = format!("{CREATE};\n{insert};\n");
    writeln!(
        out,
        "  dump load: {}",
        loaded(Engine::from_sql_dump(&dump), None)
    )
    .unwrap();

    let dir = scratch();
    let (sql, wal) = (dir.join("db.sql"), dir.join("db.wal"));
    let mut log = Wal::create(&wal, opts(), 1).unwrap();
    log.append(&sql_record(CREATE)).unwrap();
    log.append(&sql_record(insert)).unwrap();
    drop(log);
    let db = Engine::open_durable(&sql, &wal, opts()).map(|(db, report)| {
        assert_eq!(report.frames_replayed, 2);
        (db, report.replay_errors)
    });
    let errors = db.as_ref().ok().map(|d| d.1);
    writeln!(out, "  wal replay: {}", loaded(db.map(|d| d.0), errors)).unwrap();
}

/// The row doors for one batch; the frame an accepted one is logged as then
/// goes through the SQL doors.
fn row_doors(out: &mut String, rows: Vec<Vec<Value>>) {
    let (db, dir) = durable();
    let r = db.insert_rows("t", rows.clone());
    let accepted = r.is_ok();
    writeln!(out, "  insert_rows: {}", outcome(r, &db, &dir, None)).unwrap();
    let frames = frames_after_create(&dir.join("db.wal"));

    let (db, dir) = durable();
    let mut txn = db.begin_txn();
    let r = txn
        .insert_rows("t", rows)
        .and_then(|n| txn.commit().map(|()| n));
    let outcome = outcome(r, &db, &dir, None);
    writeln!(out, "  transaction insert_rows: {outcome}").unwrap();

    if let (true, [frame]) = (accepted, frames.as_slice()) {
        writeln!(out, "  its frame, read back:").unwrap();
        sql_doors(out, frame);
    }
}

fn answers() -> String {
    let mut out = String::new();
    for insert in SQL_CASES {
        writeln!(out, "-- {insert}").unwrap();
        sql_doors(&mut out, insert);
    }
    for (name, rows) in row_cases() {
        writeln!(out, "-- rows: {name}").unwrap();
        row_doors(&mut out, rows);
    }
    out
}

#[test]
fn every_insert_door_answers_what_the_parent_build_answered() {
    let got = answers();
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(fixture("")).unwrap();
        std::fs::write(fixture("expected.txt"), &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(fixture("expected.txt")).unwrap();
    for (k, (want, have)) in expected.lines().zip(got.lines()).enumerate() {
        assert_eq!(have, want, "line {} of expected.txt", k + 1);
    }
    assert_eq!(got.lines().count(), expected.lines().count());
}
