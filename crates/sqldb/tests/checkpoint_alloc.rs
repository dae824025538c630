//! A typed checkpoint's reader sizes nothing from a count before it has
//! checked the count against the bytes left. A counting global allocator
//! (std only) records the largest block one load asks for; with every 4- and
//! 8-byte field of a small checkpoint overwritten by a huge or a merely too
//! large count, no load may ask for more than a small multiple of the file.
//! The same holds for the records of the log: with every 4- and 8-byte
//! field of a small log so overwritten — the frame's CRC made to match
//! again, so that the record reader is what meets the count — no reopen
//! asks for a block over 64 KiB.
//!
//! The same allocator counts blocks: replaying a log INSERT appends it
//! straight from the frame's bytes, so a reopen that replays 1 000 one-row
//! records into a table holding rows makes fewer than 64 allocations more
//! than the same reopen of an empty log — the tables' columns growing, not a
//! batch built and freed per record.
//!
//! A load pays per column, not per name, bitmap and dictionary: loading the
//! typed checkpoint of a 60-run campaign makes fewer than 30 allocations
//! per table, the data tables read in a row sharing one schema, and a
//! dictionary where theirs are equal; a column without NULLs holds no
//! bitmap words.
//!
//! Blocks are recorded per thread: the test harness allocates on threads of
//! its own while a test runs.

mod common;

use common::campaign_dump;
use common::log::{every_record_kind, frames, reseal};
use sqldb::{Engine, SyncPolicy, Value, WalOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// The largest block loading `path` asked for, and whether it loaded.
fn largest_block(path: &std::path::Path) -> (usize, bool) {
    LARGEST.with(|l| l.set(0));
    let loaded = Engine::load_from_file(path).is_ok();
    (LARGEST.with(Cell::get), loaded)
}

#[test]
fn no_count_sizes_an_allocation_before_it_is_checked() {
    let dir = std::env::temp_dir().join(format!("perfbase_ckpt_alloc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.ckpt");
    let e = Engine::new();
    e.execute_script(
        "CREATE TABLE a (i INTEGER NOT NULL, f FLOAT, s TEXT, b BOOLEAN, t TIMESTAMP); \
         INSERT INTO a VALUES (1, 1.5, 'x', TRUE, 10), (2, NULL, NULL, NULL, NULL), \
         (3, 2.5, 'y', FALSE, 20); \
         CREATE ORDERED INDEX ix_i ON a (i); CREATE INDEX ix_s ON a (s); \
         CREATE TABLE b (s TEXT)",
    )
    .unwrap();
    let rows = (0..70).map(|i| vec![Value::Text(format!("w{}", i % 7))]);
    e.insert_rows("b", rows.collect()).unwrap();
    e.checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let (whole, loaded) = largest_block(&path);
    assert!(loaded);
    let bound = (16 * bytes.len()).max(64 << 10);
    assert!(
        whole <= bound,
        "{whole} bytes in one block for the intact file"
    );

    let mut refused = 0;
    for at in 0..bytes.len() {
        for width in [4, 8] {
            if at + width > bytes.len() {
                continue;
            }
            let huge = vec![0xff; width];
            let too_large = (1u64 << (3 * width)).to_le_bytes()[..width].to_vec();
            for value in [huge, too_large] {
                let mut mutated = bytes.clone();
                mutated[at..at + width].copy_from_slice(&value);
                std::fs::write(&path, &mutated).unwrap();
                let (largest, loaded) = largest_block(&path);
                assert!(
                    largest <= bound,
                    "{largest} bytes in one block with {value:02x?} at byte {at}"
                );
                refused += usize::from(!loaded);
            }
        }
    }
    assert!(
        refused > bytes.len(),
        "only {refused} mutated files refused"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_record_count_sizes_an_allocation_before_it_is_checked() {
    let dir = std::env::temp_dir().join(format!("perfbase_log_alloc_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    drop(every_record_kind(&dir));
    let log = std::fs::read(dir.join("db.wal")).unwrap();
    let frames = frames(&log);
    let (dump, wal) = (dir.join("db.sql"), dir.join("db.wal"));
    let reopen = |bytes: &[u8]| {
        std::fs::remove_file(&dump).ok();
        std::fs::write(&wal, bytes).unwrap();
        LARGEST.with(|l| l.set(0));
        let report = Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off))
            .unwrap()
            .1;
        (LARGEST.with(Cell::get), report.replay_errors)
    };
    let bound = 64 << 10;
    let (whole, errors) = reopen(&log);
    assert_eq!(errors, 0);
    assert!(
        whole <= bound,
        "{whole} bytes in one block for the intact log"
    );

    let mut refused = 0;
    for frame in &frames {
        for at in frame.payload_at()..frame.payload_at() + frame.len {
            for width in [4, 8] {
                if at + width > frame.payload_at() + frame.len {
                    continue;
                }
                let huge = vec![0xff; width];
                let too_large = (1u64 << (3 * width)).to_le_bytes()[..width].to_vec();
                for value in [huge, too_large] {
                    let mut mutated = log.clone();
                    mutated[at..at + width].copy_from_slice(&value);
                    reseal(&mut mutated, *frame);
                    let (largest, errors) = reopen(&mutated);
                    assert!(
                        largest <= bound,
                        "{largest} bytes in one block with {value:02x?} at byte {at}"
                    );
                    refused += usize::from(errors > 0);
                }
            }
        }
    }
    assert!(refused > log.len(), "only {refused} mutated logs refused");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replaying_one_row_inserts_allocates_nothing_per_record() {
    let dir = std::env::temp_dir().join(format!("perfbase_replay_alloc_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (ckpt, wal) = (dir.join("db.ckpt"), dir.join("db.wal"));
    let opts = || WalOptions::with_sync(SyncPolicy::Off);
    let db = Engine::open_durable(&ckpt, &wal, opts()).unwrap().0;
    db.execute("CREATE TABLE t (i INTEGER NOT NULL, s TEXT, f FLOAT)")
        .unwrap();
    let words = ["ufs", "nfs", "pvfs"];
    let row = |i: i64| {
        let s = Value::Text(words[i as usize % 3].to_string());
        vec![Value::Int(i), s, Value::Float(i as f64 / 2.0)]
    };
    db.insert_rows("t", (0..100).map(row).collect()).unwrap();
    db.checkpoint(&ckpt).unwrap();
    let empty = std::fs::read(&wal).unwrap();
    for i in 100..1_100 {
        db.insert_rows("t", vec![row(i)]).unwrap();
    }
    db.wal_sync().unwrap();
    drop(db);
    let full = std::fs::read(&wal).unwrap();

    // The allocations of a reopen of `log` on this thread, and its rows.
    let reopen = |log: &[u8]| {
        std::fs::write(&wal, log).unwrap();
        COUNT.with(|c| c.set(0));
        let (db, report) = Engine::open_durable(&ckpt, &wal, opts()).unwrap();
        let made = COUNT.with(Cell::get);
        assert_eq!(report.replay_errors, 0);
        (made, db.row_count("t").unwrap())
    };
    let (base, rows) = reopen(&empty);
    assert_eq!(rows, 100);
    let (replayed, rows) = reopen(&full);
    assert_eq!(rows, 1_100);
    assert!(
        replayed - base < 64,
        "1 000 one-row records replayed with {} allocations ({base} for an empty log)",
        replayed - base
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_typed_load_allocates_per_column_not_per_name() {
    let dir = std::env::temp_dir().join(format!("perfbase_load_alloc_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.ckpt");
    let e = Engine::from_sql_dump(&campaign_dump(60)).unwrap();
    e.checkpoint(&path).unwrap();
    let tables = e.table_names().len();
    assert_eq!(tables, 61);
    drop(e);
    COUNT.with(|c| c.set(0));
    let back = Engine::load_from_file(&path).unwrap();
    let made = COUNT.with(Cell::get);
    assert_eq!(back.table_names().len(), tables);
    assert!(
        made < 30 * tables,
        "{made} allocations to load {tables} tables ({} a table)",
        made / tables
    );
    std::fs::remove_dir_all(&dir).ok();
}
