//! A log INSERT replays straight from its frame into the live table
//! (DESIGN.md §4c): a check pass over the frame's bytes against the table's
//! schema, then its cells appended column by column. Replayed, a batch
//! leaves what the same rows sent through `Engine::insert_rows` leave —
//! into a table empty or holding rows, its dictionary a prefix of the
//! table's or not — and a record refused in its last column leaves no
//! trace, in the table or in its indexes, while the record after it
//! applies.

mod common;

use common::log::{frames, reseal};
use common::Rng;
use sqldb::{Engine, SyncPolicy, Value, WalOptions};
use std::path::{Path, PathBuf};

fn opts() -> WalOptions {
    WalOptions::with_sync(SyncPolicy::Off)
}

/// A fresh directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("perfbase_log_replay_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Open the engine of `dir` durably: its checkpoint, then its log.
fn open(dir: &Path) -> (Engine, sqldb::RecoveryReport) {
    Engine::open_durable(&dir.join("db.ckpt"), &dir.join("db.wal"), opts()).unwrap()
}

const SCHEMA: &str = "CREATE TABLE t (i INTEGER NOT NULL, f FLOAT, s TEXT, b BOOLEAN, \
                      ts TIMESTAMP, k TEXT NOT NULL); \
                      CREATE ORDERED INDEX ix_i ON t (i); CREATE INDEX ix_k ON t (k)";

/// The words of column `k` for a batch of `rows`: first `entries` distinct
/// words — the first entries of `dict`, the column's dictionary, in its
/// order when `prefix`, so that the batch's dictionary is a prefix of the
/// table's, reversed otherwise; new words where `dict` has too few — then
/// words drawn from them. `dict` takes the new words in the order of their
/// first use, as the table's dictionary does.
fn words(
    rng: &mut Rng,
    rows: usize,
    dict: &mut Vec<String>,
    entries: usize,
    prefix: bool,
) -> Vec<String> {
    let mut pick: Vec<String> = dict.iter().take(entries).cloned().collect();
    let known = dict.len();
    pick.extend((pick.len()..entries).map(|n| format!("w{}", known + n)));
    if !prefix {
        pick.reverse();
    }
    let mut cells = pick.clone();
    cells.truncate(rows);
    while cells.len() < rows {
        cells.push(pick[rng.below(pick.len() as u64) as usize].clone());
    }
    for w in &cells {
        if !dict.contains(w) {
            dict.push(w.clone());
        }
    }
    cells
}

/// A batch of `rows` rows of `t`: every type, NULLs in each nullable column
/// at a rate of its own, column `s` drawn from a pool of 20 words, column
/// `k` from [`words`].
fn batch(
    rng: &mut Rng,
    rows: usize,
    dict: &mut Vec<String>,
    entries: usize,
    prefix: bool,
) -> Vec<Vec<Value>> {
    let rates: Vec<u64> = (0..4).map(|_| rng.below(4)).collect();
    let k = words(rng, rows, dict, entries, prefix);
    k.into_iter()
        .map(|k| {
            let i = Value::Int(rng.int(-1 << 50, 1 << 50));
            let f = Value::Float(rng.float(-1e6, 1e6));
            let s = Value::Text(format!("p{}", rng.below(20)));
            let b = Value::Bool(rng.bool());
            let ts = Value::Timestamp(rng.int(-1 << 40, 1 << 40));
            let mut row = vec![i, f, s, b, ts, Value::Text(k)];
            for (c, rate) in rates.iter().enumerate() {
                if rng.below(4) < *rate {
                    row[1 + c] = Value::Null;
                }
            }
            row
        })
        .collect()
}

/// What the indexes of `t` answer in `e`: for each word, the rows its `k`
/// index finds, and the first rows in `i` order.
fn looked_up(e: &Engine, dict: &[String]) -> Vec<String> {
    let mut out: Vec<String> = dict
        .iter()
        .map(|w| {
            let q = format!("SELECT i, s FROM t WHERE k = '{w}' ORDER BY i");
            e.query(&q).unwrap().render_tsv()
        })
        .collect();
    let q = "SELECT i, k FROM t ORDER BY i LIMIT 20";
    out.push(e.query(q).unwrap().render_tsv());
    out
}

/// Random batches replayed from the log leave the catalog the same rows
/// leave through `insert_rows`: into `t` empty (the first batch of a log
/// replayed alone) and holding rows (every later batch, and every batch
/// behind a checkpoint), each batch of 1 to 130 rows — 65 or more in every
/// round, so that a bitmap takes two words and a batch's bits land at every
/// offset inside a word — its dictionary a prefix of the table's or not,
/// and of more than 8 entries in every round.
#[test]
fn replayed_batches_leave_what_insert_rows_leaves() {
    for seed in 0..6 {
        let mut rng = Rng::new(0x4e91_a7c3 + seed);
        let dir = scratch(&format!("parity_{seed}"));
        let (db, _) = open(&dir);
        let reference = Engine::new();
        db.execute_script(SCHEMA).unwrap();
        reference.execute_script(SCHEMA).unwrap();
        let mut dict = Vec::new();
        let mut sizes: Vec<usize> = vec![70, 1, 9, 65];
        sizes.extend((0..8).map(|_| 1 + rng.below(130) as usize));
        for (n, rows) in sizes.into_iter().enumerate() {
            let entries = if n == 2 {
                12
            } else {
                1 + rng.below(10) as usize
            };
            let rows_of = batch(&mut rng, rows, &mut dict, entries, n % 2 == 1);
            db.insert_rows("t", rows_of.clone()).unwrap();
            reference.insert_rows("t", rows_of).unwrap();
            // Half-way, a checkpoint: the rest replays into a table it
            // restores, whose dictionary it compacted.
            if n == 6 {
                drop(db_reopened(&dir, &reference, &dict, seed));
                db.checkpoint(&dir.join("db.ckpt")).unwrap();
            }
        }
        drop(db);
        drop(db_reopened(&dir, &reference, &dict, seed));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Reopen a copy of `dir` and check it against `reference`.
fn db_reopened(dir: &Path, reference: &Engine, dict: &[String], seed: u64) -> Engine {
    let copy = dir.join("copy");
    std::fs::create_dir_all(&copy).unwrap();
    for file in ["db.ckpt", "db.wal"] {
        std::fs::remove_file(copy.join(file)).ok();
        if dir.join(file).exists() {
            std::fs::copy(dir.join(file), copy.join(file)).unwrap();
        }
    }
    let (e, report) = open(&copy);
    assert_eq!(report.replay_errors, 0, "seed {seed}");
    assert!(report.frames_replayed > 0, "seed {seed}");
    assert!(e.dump_sql() == reference.dump_sql(), "seed {seed}");
    assert_eq!(
        looked_up(&e, dict),
        looked_up(reference, dict),
        "seed {seed}"
    );
    e
}

/// How a record is made to fail in its last column.
#[derive(Debug, Clone, Copy)]
enum Refused {
    /// Its last TEXT code points past the dictionary.
    Code,
    /// It holds a NULL in a column the replayed CREATE TABLE declares NOT
    /// NULL.
    Null,
}

/// A record refused in its last column — its INTEGER column walked and
/// fine — changes neither the table nor its indexes and counts one replay
/// error; the record after it applies.
#[test]
fn a_record_refused_in_its_last_column_leaves_no_trace() {
    for refused in [Refused::Code, Refused::Null] {
        let dir = scratch(&format!("refused_{refused:?}"));
        let (db, _) = open(&dir);
        let indexes = "CREATE ORDERED INDEX ix_i ON t (i); CREATE INDEX ix_s ON t (s)";
        db.execute("CREATE TABLE t (i INTEGER, s TEXT)").unwrap();
        db.execute_script(indexes).unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        let doomed = match refused {
            Refused::Code => "INSERT INTO t VALUES (3, 'c'), (4, 'd')",
            Refused::Null => "INSERT INTO t VALUES (3, 'c'), (4, NULL)",
        };
        db.execute(doomed).unwrap();
        db.execute("INSERT INTO t VALUES (5, 'e'), (6, 'a')")
            .unwrap();
        db.wal_sync().unwrap();
        drop(db);

        let mut log = std::fs::read(dir.join("db.wal")).unwrap();
        let frames = frames(&log);
        assert_eq!(frames.len(), 6, "CREATE TABLE, 2 indexes, 3 INSERTs");
        // The byte to change: the last code of the doomed record, or the NOT
        // NULL flag of `s` at the end of the CREATE TABLE record.
        let frame = match refused {
            Refused::Code => frames[4],
            Refused::Null => frames[0],
        };
        let end = frame.payload_at() + frame.len;
        match refused {
            Refused::Code => log[end - 4..end].copy_from_slice(&7u32.to_le_bytes()),
            Refused::Null => log[end - 1] = 1,
        }
        reseal(&mut log, frame);
        std::fs::write(dir.join("db.wal"), &log).unwrap();

        let (db, report) = open(&dir);
        assert_eq!(report.replay_errors, 1, "{refused:?}");
        let reference = Engine::new();
        reference
            .execute(match refused {
                Refused::Code => "CREATE TABLE t (i INTEGER, s TEXT)",
                Refused::Null => "CREATE TABLE t (i INTEGER, s TEXT NOT NULL)",
            })
            .unwrap();
        reference.execute_script(indexes).unwrap();
        reference
            .execute_script(
                "INSERT INTO t VALUES (1, 'a'), (2, 'b'); INSERT INTO t VALUES (5, 'e'), (6, 'a')",
            )
            .unwrap();
        assert!(db.dump_sql() == reference.dump_sql(), "{refused:?}");
        let lookups = |e: &Engine| -> Vec<String> {
            let by_i = (1..=6).map(|i| format!("SELECT s FROM t WHERE i = {i}"));
            let by_s =
                ["a", "b", "c", "d", "e"].map(|s| format!("SELECT i FROM t WHERE s = '{s}'"));
            let ranged = "SELECT i FROM t WHERE i >= 2 ORDER BY i".to_string();
            let queries = by_i.chain(by_s).chain([ranged]);
            queries.map(|q| e.query(&q).unwrap().render_tsv()).collect()
        };
        assert_eq!(lookups(&db), lookups(&reference), "{refused:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
