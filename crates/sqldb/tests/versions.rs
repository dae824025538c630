//! Table versions: what a reader pins never moves, and a write beside it
//! copies only the chunks it touches (DESIGN.md §4e, §4f).
//!
//! Three parts. A seeded version model interleaves pins (a pinned table, a
//! snapshot, an open transaction), INSERT batches sized to cross chunk
//! boundaries, UPDATE and DELETE of random positions, `CREATE INDEX` and the
//! release of pins in random order, and after every step compares every
//! pinned version, the live table and a fixed query list against the model
//! and the reference executor. The copy bound pins what a 250-row append
//! under a pin costs in `mvcc.cow_bytes`. And `fixtures/versions/` was
//! written by the build at commit `ad6be92` (the last with one `Vec` per
//! column) by running [`build`] below there: `db.sql` is the dump of the
//! engine `build` leaves, `db.wal` its log, and `expected.txt` that build's
//! answers to [`QUERIES`].

mod common;

use common::{oracle, Rng};
use sqldb::{Engine, Snapshot, SyncPolicy, Table, Transaction, Value, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

type Row = Vec<Value>;

/// Rows per column chunk: the engine's private `CHUNK_ROWS` (column.rs).
const CHUNK_ROWS: usize = 4096;

/// The copy bound reads the process-wide counters, which every write under
/// a pin moves: it runs alone, the model halves side by side.
static COUNTERS: RwLock<()> = RwLock::new(());

/// A fresh directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbase_versions_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn counter(name: &str) -> u64 {
    obs::counters_snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no counter {name}"))
        .1
}

// ---- the version model ----------------------------------------------------

/// Batch sizes of an INSERT: a few rows, or enough to end a chunk one short,
/// exactly, one over, or two chunks on.
const BATCHES: [usize; 7] = [
    1,
    3,
    250,
    CHUNK_ROWS - 1,
    CHUNK_ROWS,
    CHUNK_ROWS + 1,
    2 * CHUNK_ROWS + 7,
];

/// Compared with the reference executor after every step.
const MODEL_QUERIES: [&str; 2] = [
    "SELECT s, count(*), sum(v) FROM t GROUP BY s ORDER BY s",
    "SELECT count(*) FROM t WHERE s = 's1' AND v > 100.0",
];

/// How a reader holds a version of `t`.
enum Hold {
    Table(Arc<Table>),
    Snapshot(Snapshot),
    Txn(Transaction),
}

/// A reader's hold and the rows it must keep seeing.
struct Pin {
    hold: Hold,
    rows: Arc<Vec<Row>>,
}

impl Pin {
    fn seen(&mut self) -> Vec<Row> {
        match &mut self.hold {
            Hold::Table(t) => t.to_rows(),
            Hold::Snapshot(s) => s.table("t").unwrap().to_rows(),
            Hold::Txn(txn) => txn.query("SELECT * FROM t").unwrap().into_rows(),
        }
    }
}

struct Model {
    rng: Rng,
    db: Arc<Engine>,
    /// The live table's rows, in position order (ids ascend).
    live: Arc<Vec<Row>>,
    pins: Vec<Pin>,
    next_id: i64,
    next_text: usize,
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Text(s) => format!("'{s}'"),
        Value::Float(f) => format!("{f:?}"),
        other => other.to_string(),
    }
}

impl Model {
    fn new(seed: u64) -> Model {
        let db = Arc::new(Engine::new());
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, s TEXT, v FLOAT)")
            .unwrap();
        Model {
            rng: Rng::new(seed),
            db,
            live: Arc::new(Vec::new()),
            pins: Vec::new(),
            next_id: 0,
            next_text: 0,
        }
    }

    /// A TEXT cell: NULL, a string new to the dictionary, or a common one.
    fn text(&mut self) -> Value {
        match self.rng.below(10) {
            0 => Value::Null,
            1 => {
                self.next_text += 1;
                Value::Text(format!("n{}", self.next_text))
            }
            _ => Value::Text(format!("s{}", self.rng.below(4))),
        }
    }

    fn float(&mut self) -> Value {
        match self.rng.below(8) {
            0 => Value::Null,
            _ => Value::Float(self.rng.below(1000) as f64 / 4.0),
        }
    }

    fn pin(&mut self) {
        let hold = match self.rng.below(3) {
            0 => Hold::Table(self.db.pin_table("t").unwrap()),
            1 => Hold::Snapshot(self.db.snapshot()),
            _ => {
                let mut txn = self.db.begin_txn();
                // A transaction pins a table the first time it names it.
                txn.query("SELECT count(*) FROM t").unwrap();
                Hold::Txn(txn)
            }
        };
        self.pins.push(Pin {
            hold,
            rows: self.live.clone(),
        });
    }

    fn insert(&mut self) {
        // One batch in three crosses chunk edges, and none once the table
        // holds a chunk: every check costs what the table holds.
        let (few, edges) = BATCHES.split_at(3);
        let sizes = if self.live.len() < CHUNK_ROWS && self.rng.below(3) == 0 {
            edges
        } else {
            few
        };
        let n = sizes[self.rng.below(sizes.len() as u64) as usize];
        let rows: Vec<Row> = (0..n)
            .map(|_| {
                self.next_id += 1;
                vec![Value::Int(self.next_id), self.text(), self.float()]
            })
            .collect();
        assert_eq!(self.db.insert_rows("t", rows.clone()).unwrap(), n);
        Arc::make_mut(&mut self.live).extend(rows);
    }

    /// Ids of up to eight random positions.
    fn some_ids(&mut self) -> Vec<i64> {
        let n = self.live.len() as u64;
        let mut ids: Vec<i64> = (0..1 + self.rng.below(8))
            .map(|_| self.live[self.rng.below(n) as usize][0].as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn update(&mut self) {
        let ids = self.some_ids();
        let (s, v) = (self.text(), self.float());
        let list: Vec<String> = ids.iter().map(i64::to_string).collect();
        let sql = format!(
            "UPDATE t SET s = {}, v = {} WHERE id IN ({})",
            literal(&s),
            literal(&v),
            list.join(", ")
        );
        assert_eq!(self.db.execute(&sql).unwrap(), ids.len(), "{sql}");
        for row in Arc::make_mut(&mut self.live) {
            if ids.binary_search(&row[0].as_i64().unwrap()).is_ok() {
                row[1] = s.clone();
                row[2] = v.clone();
            }
        }
    }

    fn delete(&mut self) {
        let (sql, gone): (String, Box<dyn Fn(i64) -> bool>) = if self.rng.bool() {
            let ids = self.some_ids();
            let list: Vec<String> = ids.iter().map(i64::to_string).collect();
            let sql = format!("DELETE FROM t WHERE id IN ({})", list.join(", "));
            (sql, Box::new(move |id| ids.binary_search(&id).is_ok()))
        } else {
            // A stretch of up to a chunk and a half.
            let from = self.live[self.rng.below(self.live.len() as u64) as usize][0]
                .as_i64()
                .unwrap();
            let to = from + 1 + self.rng.below(CHUNK_ROWS as u64 * 3 / 2) as i64;
            let sql = format!("DELETE FROM t WHERE id >= {from} AND id < {to}");
            (sql, Box::new(move |id| (from..to).contains(&id)))
        };
        let before = self.live.len();
        Arc::make_mut(&mut self.live).retain(|r| !gone(r[0].as_i64().unwrap()));
        assert_eq!(
            self.db.execute(&sql).unwrap(),
            before - self.live.len(),
            "{sql}"
        );
    }

    fn index(&mut self) {
        let sql = if self.rng.bool() {
            "CREATE INDEX ix_s ON t (s)"
        } else {
            "CREATE ORDERED INDEX ix_id ON t (id)"
        };
        self.db.execute(sql).unwrap();
    }

    fn release(&mut self) {
        let at = self.rng.below(self.pins.len() as u64) as usize;
        self.pins.swap_remove(at);
    }

    fn step(&mut self) {
        match self.rng.below(10) {
            0 | 1 if self.pins.len() < 3 => self.pin(),
            2..=4 => self.insert(),
            5 | 6 if !self.live.is_empty() => self.update(),
            7 if !self.live.is_empty() => self.delete(),
            8 => self.index(),
            _ if !self.pins.is_empty() => self.release(),
            _ => self.insert(),
        }
    }

    fn check(&mut self, seed: u64, step: usize) {
        for (k, pin) in self.pins.iter_mut().enumerate() {
            assert!(
                pin.seen() == *pin.rows,
                "seed {seed} step {step}: pin {k} moved"
            );
        }
        assert!(
            self.db.pin_table("t").unwrap().to_rows() == *self.live,
            "seed {seed} step {step}: the live table differs from the model"
        );
        for q in MODEL_QUERIES {
            assert_eq!(
                self.db.query(q).unwrap(),
                oracle::query(&*self.db, q).unwrap(),
                "seed {seed} step {step}: {q}"
            );
        }
    }
}

fn run_model(seeds: std::ops::Range<u64>) {
    let _counters = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    for seed in seeds {
        let mut model = Model::new(seed);
        for step in 0..5 {
            model.step();
            model.check(seed, step);
        }
    }
}

#[test]
fn pinned_versions_never_move_and_the_live_table_follows_the_model_seeds_0_to_99() {
    run_model(0..100);
}

#[test]
fn pinned_versions_never_move_and_the_live_table_follows_the_model_seeds_100_to_199() {
    run_model(100..200);
}

// ---- the copy bound -------------------------------------------------------

#[test]
fn a_pinned_append_copies_at_most_one_chunk_per_column() {
    let _counters = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    const ROWS: usize = 100_000;
    let db = Engine::new();
    db.execute("CREATE TABLE samples (id INTEGER NOT NULL, grp INTEGER, fs TEXT, val FLOAT)")
        .unwrap();
    let row = |i: usize| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % 10) as i64),
            Value::Text(["nfs", "pvfs", "ufs"][i % 3].into()),
            Value::Float(i as f64 / 8.0),
        ]
    };
    db.insert_rows("samples", (0..ROWS).map(row).collect())
        .unwrap();
    let pinned = db.pin_table("samples").unwrap();
    let (clones, bytes) = (counter("mvcc.cow_clones"), counter("mvcc.cow_bytes"));
    db.insert_rows("samples", (ROWS..ROWS + 250).map(row).collect())
        .unwrap();
    let copied = counter("mvcc.cow_bytes") - bytes;
    assert_eq!(counter("mvcc.cow_clones") - clones, 1, "one pinned write");
    // DESIGN.md §4e: per column one chunk (8-byte cells at most) and its
    // null words, and 8 bytes per chunk of the version's chunk lists (a
    // column's cells and its null bitmap: two lists).
    let chunks = ROWS.div_ceil(CHUNK_ROWS);
    let bound = 4 * (CHUNK_ROWS * 8 + CHUNK_ROWS / 8) + 4 * 2 * chunks * 8;
    assert!(
        copied > 0 && copied <= bound as u64,
        "a 250-row append under a pin copied {copied} bytes (bound {bound})"
    );
    assert_eq!(pinned.len(), ROWS);
    assert_eq!(db.row_count("samples").unwrap(), ROWS + 250);
    assert!(pinned
        .to_rows()
        .iter()
        .enumerate()
        .all(|(i, r)| *r == row(i)));
}

// ---- what the parent build wrote -------------------------------------------

/// Rows [`build`] leaves: three full chunks and five rows.
const FIXTURE_ROWS: usize = 3 * CHUNK_ROWS + 5;

const QUERIES: [&str; 12] = [
    "SELECT count(*), count(s), count(v), count(ok), sum(id), min(id), max(id), sum(v) FROM t",
    "SELECT s, count(*), sum(v), min(id) FROM t GROUP BY s ORDER BY s",
    "SELECT ok, count(*) FROM t GROUP BY ok ORDER BY ok",
    "SELECT * FROM t WHERE id >= 3995 AND id < 8102 ORDER BY id",
    "SELECT * FROM t WHERE id >= 12280 AND id < 12300",
    "SELECT * FROM t WHERE id IN (0, 4095, 4096, 8191, 8192, 12287, 12288, 16391) ORDER BY id",
    "SELECT id, v FROM t WHERE s = 'fresh' ORDER BY id",
    "SELECT count(*) FROM t WHERE v IS NULL AND s IS NOT NULL",
    "SELECT id, s FROM t WHERE v > 400.0 AND s LIKE 'k1%' AND ok = TRUE ORDER BY id LIMIT 12",
    "SELECT DISTINCT s FROM t ORDER BY s",
    "EXPLAIN SELECT * FROM t WHERE id >= 12280 AND id < 12300",
    "EXPLAIN SELECT s, count(*) FROM t WHERE s = 'fresh' GROUP BY s",
];

fn fixture_row(i: usize) -> String {
    let s = match i % 7 {
        3 => "NULL".to_string(),
        _ => format!("'k{}'", i % 13),
    };
    let v = match i % 11 {
        5 => "NULL".to_string(),
        _ => format!("{:?}", (i % 1000) as f64 * 0.5),
    };
    let ok = match i % 5 {
        0 => "NULL",
        1 | 3 => "TRUE",
        _ => "FALSE",
    };
    format!("({i}, {s}, {v}, {ok})")
}

/// The fixture's history, on a durable engine logging to `dir/db.wal`:
/// batches that end a chunk one short, add one row, end the next one over
/// and run two chunks on; a deleted stretch across two chunk boundaries;
/// an UPDATE writing text new to the dictionary and NULLs into every chunk;
/// an ordered and a hash index.
fn build(dir: &Path) -> Engine {
    let opts = WalOptions::with_sync(SyncPolicy::Off);
    let (db, _) = Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts).unwrap();
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, s TEXT, v FLOAT, ok BOOLEAN)")
        .unwrap();
    db.execute("CREATE ORDERED INDEX ix_t_id ON t (id)")
        .unwrap();
    let mut next = 0;
    for n in [CHUNK_ROWS - 1, 1, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7] {
        let rows: Vec<String> = (next..next + n).map(fixture_row).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        next += n;
    }
    db.execute("DELETE FROM t WHERE id >= 4000 AND id < 8099")
        .unwrap();
    db.execute("UPDATE t SET s = 'fresh', v = NULL WHERE id % 1000 = 7")
        .unwrap();
    db.execute("CREATE INDEX ix_t_s ON t (s)").unwrap();
    assert_eq!(db.row_count("t").unwrap(), FIXTURE_ROWS);
    db
}

fn answers(db: &Engine) -> String {
    QUERIES
        .iter()
        .map(|q| format!("-- {q}\n{}", db.query(q).unwrap().render_tsv()))
        .collect()
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/versions")
        .join(name)
}

fn read(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).unwrap()
}

#[test]
fn the_parent_dump_loads_to_its_answers_and_resaves_byte_identically() {
    let dump = read("db.sql");
    let db = Engine::from_sql_dump(&dump).unwrap();
    assert_eq!(db.row_count("t").unwrap(), FIXTURE_ROWS);
    assert_eq!(answers(&db), read("expected.txt"));
    assert!(db.dump_sql() == dump, "the re-saved dump differs");
}

#[test]
fn the_parent_log_recovers_to_its_answers_and_resaves_byte_identically() {
    let dir = scratch("recover");
    std::fs::copy(fixture("db.wal"), dir.join("db.wal")).unwrap();
    let opts = WalOptions::with_sync(SyncPolicy::Off);
    let (db, report) =
        Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts).unwrap();
    assert_eq!((report.frames_replayed, report.replay_errors), (9, 0));
    assert_eq!(answers(&db), read("expected.txt"));
    assert!(
        db.dump_sql() == read("db.sql"),
        "the recovered dump differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn this_build_writes_the_parent_log_and_dump() {
    let dir = scratch("rebuild");
    let db = build(&dir);
    assert_eq!(answers(&db), read("expected.txt"));
    assert!(db.dump_sql() == read("db.sql"), "the dump differs");
    drop(db);
    // The log is typed records now: the parent's `db.wal` still recovers
    // (above), and the bytes this build writes are pinned by `records.wal`,
    // which recovers to the same answers.
    let log = std::fs::read(dir.join("db.wal")).unwrap();
    assert!(
        log == std::fs::read(fixture("records.wal")).unwrap(),
        "the log differs"
    );
    std::fs::remove_dir_all(&dir).ok();
    let dir = scratch("rebuild_records");
    std::fs::copy(fixture("records.wal"), dir.join("db.wal")).unwrap();
    let opts = WalOptions::with_sync(SyncPolicy::Off);
    let (db, report) =
        Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts).unwrap();
    assert_eq!((report.frames_replayed, report.replay_errors), (9, 0));
    assert_eq!(answers(&db), read("expected.txt"));
    assert!(
        db.dump_sql() == read("db.sql"),
        "the recovered dump differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}
