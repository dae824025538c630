//! The INSERT writer prints every byte the build before it printed numbers
//! by its own rule.
//!
//! `fixtures/dump_numbers/expected.txt` was written by the build at commit
//! `cf83a6f` (the last that printed every float with `{:?}` and every
//! integer with `Display`) by running this file's test there with `BLESS=1`.
//! It holds the dump of one seeded table — FLOAT cells of every shape the
//! writer tells apart (short decimals, 17-digit floats, both sides of each
//! edge of its rule, zeros, subnormals, the extremes, the non-finite ones),
//! INTEGER, TIMESTAMP, BOOLEAN and TEXT cells, and NULLs in every column —
//! and, door by door, the frames the log took when the same rows were
//! inserted through it. Read back, the dump and every frame give the seeded
//! cells bit for bit.

mod common;

use common::Rng;
use sqldb::{Engine, SyncPolicy, Value, Wal, WalOptions};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const CREATE: &str =
    "CREATE TABLE t (id INTEGER NOT NULL, f FLOAT, i INTEGER, ts TIMESTAMP, b BOOLEAN, s TEXT)";

/// Rows in the seeded table.
const ROWS: usize = 160;

/// One seeded FLOAT cell: every eighth of them an edge, the rest short
/// decimals like a measurement file's, or floats of 17 digits.
fn float(rng: &mut Rng) -> f64 {
    const EDGES: [f64; 16] = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e-4,
        1e16,
        (1u64 << 50) as f64,
        (1u64 << 53) as f64,
        1e15,
        0.1,
        1.0,
        123456789.0,
    ];
    let sign = if rng.bool() { 1.0 } else { -1.0 };
    match rng.below(8) {
        0 => {
            // An edge, or one of its neighbours; a NaN is the one the text
            // holds.
            let edge = EDGES[rng.below(16) as usize];
            let step = rng.int(-1, 2);
            let f = f64::from_bits(edge.to_bits().wrapping_add_signed(step));
            if f.is_nan() {
                f64::NAN
            } else {
                f
            }
        }
        1 | 2 => sign * rng.int(1, 1_000_000) as f64 / 3.0,
        3 => sign * 10f64.powf(rng.float(-6.0, 18.0)),
        _ => {
            let digits = rng.below(7) as u32 + 1;
            let m = rng.below(10u64.pow(digits));
            sign * format!("{m}e-{}", rng.below(8)).parse::<f64>().unwrap()
        }
    }
}

/// The seeded rows: a NULL in every column but `id` now and then.
fn rows() -> Vec<Vec<Value>> {
    const TEXT: [&str; 6] = ["ufs", "it's", "a\nb", "", "größe", "x y"];
    let mut rng = Rng::new(0xd0_5eed);
    (0..ROWS)
        .map(|id| {
            let mut row = vec![
                Value::Int(id as i64),
                Value::Float(float(&mut rng)),
                Value::Int(match rng.below(4) {
                    0 => [i64::MIN, i64::MAX, 0, -1][rng.below(4) as usize],
                    _ => rng.next_u64() as i64 >> rng.below(64),
                }),
                Value::Timestamp(rng.int(-100_000, 2_000_000_000)),
                Value::Bool(rng.bool()),
                Value::Text(TEXT[rng.below(6) as usize].to_string()),
            ];
            for cell in &mut row[1..] {
                if rng.below(8) == 0 {
                    *cell = Value::Null;
                }
            }
            row
        })
        .collect()
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dump_numbers/expected.txt")
}

fn opts() -> WalOptions {
    WalOptions::with_sync(SyncPolicy::Off)
}

/// A durable engine holding the empty table, on a fresh directory.
fn durable(name: &str) -> (Arc<Engine>, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "perfbase_dump_numbers_{}_{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (db, _) = Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts()).unwrap();
    db.execute(CREATE).unwrap();
    (Arc::new(db), dir)
}

/// The payload of every frame of the log in `dir` after the CREATE TABLE.
fn frames(db: Arc<Engine>, dir: &PathBuf) -> Vec<String> {
    drop(db);
    let mut frames = Wal::open_recover(&dir.join("db.wal"), opts(), 1)
        .unwrap()
        .1
        .statements();
    std::fs::remove_dir_all(dir).ok();
    assert_eq!(frames.remove(0), CREATE);
    frames
}

/// The dump of the seeded table, and the frames of each door.
fn render() -> String {
    let mut out = String::new();
    let db = Engine::new();
    db.execute(CREATE).unwrap();
    db.insert_rows("t", rows()).unwrap();
    let dump = db.dump_sql();
    writeln!(out, "== dump").unwrap();
    out.push_str(&dump);
    let inserts: Vec<&str> = dump
        .lines()
        .filter(|l| l.starts_with("INSERT"))
        .map(|l| l.trim_end_matches(';'))
        .collect();

    let mut doors: Vec<(&str, Vec<String>)> = Vec::new();
    let (db, dir) = durable("insert_rows");
    db.insert_rows("t", rows()).unwrap();
    doors.push(("insert_rows", frames(db, &dir)));

    let (db, dir) = durable("txn_insert_rows");
    let mut txn = db.begin_txn();
    txn.insert_rows("t", rows()).unwrap();
    txn.commit().unwrap();
    doors.push(("transaction insert_rows", frames(db, &dir)));

    let (db, dir) = durable("execute");
    for insert in &inserts {
        db.execute(insert).unwrap();
    }
    doors.push(("execute", frames(db, &dir)));

    let (db, dir) = durable("execute_script");
    db.execute_script(&inserts.join(";\n")).unwrap();
    doors.push(("execute_script", frames(db, &dir)));

    let (db, dir) = durable("txn_execute");
    let mut txn = db.begin_txn();
    for insert in &inserts {
        txn.execute(insert).unwrap();
    }
    txn.commit().unwrap();
    doors.push(("transaction execute", frames(db, &dir)));

    for (door, frames) in doors {
        writeln!(out, "== frames: {door}").unwrap();
        for frame in frames {
            writeln!(out, "{frame}").unwrap();
        }
    }
    out
}

/// `rows` with every float as its bit pattern, so that `-0.0` and `0.0`
/// differ and NaN equals itself.
fn bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        v => format!("{v:?}"),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

#[test]
fn the_writer_prints_the_bytes_the_parent_build_printed() {
    let got = render();
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(fixture().parent().unwrap()).unwrap();
        std::fs::write(fixture(), &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(fixture()).unwrap();
    for (k, (want, have)) in expected.lines().zip(got.lines()).enumerate() {
        assert_eq!(have, want, "line {} of expected.txt", k + 1);
    }
    assert_eq!(got.lines().count(), expected.lines().count());
}

/// The fixture's dump, and each door's frames as a script, load the seeded
/// cells bit for bit.
#[test]
fn the_fixture_reads_back_to_the_seeded_cells() {
    let expected = std::fs::read_to_string(fixture()).unwrap();
    let want = bits(&rows());
    let mut sections = expected.split("== ").filter(|s| !s.is_empty());
    let dump = sections.next().unwrap().strip_prefix("dump\n").unwrap();
    let db = Engine::from_sql_dump(dump).unwrap();
    assert_eq!(bits(&db.read_snapshot("t").unwrap().1), want, "dump");
    let mut doors = 0;
    for section in sections {
        let (door, frames) = section.split_once('\n').unwrap();
        let script: String = frames
            .lines()
            .filter(|f| f.starts_with("INSERT"))
            .map(|f| format!("{f};\n"))
            .collect();
        let db = Engine::from_sql_dump(&format!("{CREATE};\n{script}")).unwrap();
        assert_eq!(bits(&db.read_snapshot("t").unwrap().1), want, "{door}");
        doors += 1;
    }
    assert_eq!(doors, 5);
}
