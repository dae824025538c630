//! The log carries typed records (DESIGN.md §4c): one per frame, a tag byte
//! and its body. A log this build writes reopens to the catalog that wrote
//! it, parsing SQL only for the statements it carries as text; and the
//! record reader is total on hostile bytes — a log cut at any byte, a byte
//! flipped anywhere in a payload whose CRC is then made to match again, a
//! count or length field set to all ones: no panic, and every record it
//! refuses is refused with the frame's sequence number and a byte offset
//! inside that frame.

mod common;

use common::log::{count_fields, every_record_kind, frames, reseal, Frame};
use common::Rng;
use sqldb::{Engine, SyncPolicy, Wal, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The replay counter is process-wide: the tests here that replay run one
/// at a time.
static REPLAY: Mutex<()> = Mutex::new(());

fn opts() -> WalOptions {
    WalOptions::with_sync(SyncPolicy::Off)
}

/// A fresh directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perfbase_log_records_{}_{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The log of [`every_record_kind`], and the catalog it was written from.
fn written() -> (Vec<u8>, String) {
    let dir = scratch("written");
    let db = every_record_kind(&dir);
    let dump = db.dump_sql();
    drop(db);
    let log = std::fs::read(dir.join("db.wal")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (log, dump)
}

/// Reopen `log` alone in `dir`: the catalog and the report.
fn reopen(dir: &Path, log: &[u8]) -> (Engine, sqldb::RecoveryReport) {
    std::fs::remove_file(dir.join("db.sql")).ok();
    std::fs::write(dir.join("db.wal"), log).unwrap();
    Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts()).unwrap()
}

/// Each frame of `log` as the SQL text it stands for — a record the reader
/// refuses as `-- ` and its error.
fn statements(dir: &Path, log: &[u8]) -> Vec<String> {
    let copy = dir.join("read.wal");
    std::fs::write(&copy, log).unwrap();
    Wal::open_recover(&copy, opts(), 1).unwrap().1.statements()
}

/// The sequence number and byte offset a refused record's error names.
fn named(error: &str) -> (u64, usize) {
    let rest = &error[error.find("WAL frame ").expect(error) + "WAL frame ".len()..];
    let (seq, rest) = rest.split_once(", byte ").expect(error);
    let at = rest.split_once(':').expect(error).0;
    (seq.parse().expect(error), at.parse().expect(error))
}

/// Every refused record among `statements` names its own frame, and a byte
/// of it; returns how many were refused.
fn check_refusals(statements: &[String], frames: &[Frame]) -> usize {
    let mut refused = 0;
    for (text, frame) in statements.iter().zip(frames) {
        if text.starts_with("-- ") {
            let (seq, at) = named(text);
            assert_eq!(seq, frame.seq, "{text}");
            let inside = frame.payload_at()..=frame.payload_at() + frame.len;
            assert!(inside.contains(&at), "{text}: not in {inside:?}");
            refused += 1;
        }
    }
    refused
}

fn replay_parsed() -> u64 {
    obs::get(obs::Counter::WalReplayParsed)
}

#[test]
fn every_record_kind_reopens_to_the_catalog_that_wrote_it() {
    let _one = REPLAY.lock().unwrap();
    let (log, dump) = written();
    assert_eq!(&log[..8], b"PBWL\x02\0\0\0", "a version-2 log");
    let frames = frames(&log);
    let mut tags: Vec<u8> = frames.iter().map(|f| f.payload(&log)[0]).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(
        tags,
        [1, 2, 3, 4, 5],
        "Begin, Commit, Sql, CreateTable, Insert"
    );
    let dir = scratch("reopen");
    let text = statements(&dir, &log);
    assert_eq!(check_refusals(&text, &frames), 0, "{text:?}");
    // The statements carried as text: UPDATE, DELETE, CREATE INDEX, DROP.
    let sql = frames.iter().filter(|f| f.payload(&log)[0] == 3).count() as u64;
    assert_eq!(sql, 4);
    let parsed = replay_parsed();
    let (db, report) = reopen(&dir, &log);
    assert_eq!(
        replay_parsed() - parsed,
        sql,
        "only the Sql records are parsed"
    );
    assert_eq!((report.replay_errors, report.txn_frames_discarded), (0, 0));
    assert!(db.dump_sql() == dump, "the reopened catalog differs");

    // A log of CREATE TABLE and INSERT alone parses nothing on reopen.
    drop(db);
    let db = Engine::open_durable(&dir.join("x.sql"), &dir.join("x.wal"), opts())
        .unwrap()
        .0;
    db.execute("CREATE TABLE r (a INTEGER, s TEXT)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO r VALUES ({i}, 'r{i}'), (NULL, NULL)"))
            .unwrap();
    }
    let dump = db.dump_sql();
    drop(db);
    let parsed = replay_parsed();
    let (db, report) =
        Engine::open_durable(&dir.join("x.sql"), &dir.join("x.wal"), opts()).unwrap();
    assert_eq!(report.frames_replayed, 21);
    assert_eq!(replay_parsed() - parsed, 0, "no statement parsed");
    assert!(db.dump_sql() == dump);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_log_cut_at_every_byte_reopens_to_a_prefix() {
    let _one = REPLAY.lock().unwrap();
    let (log, _) = written();
    let whole = frames(&log).len() as u64;
    let dir = scratch("cut");
    for cut in 0..=log.len() {
        let (_, report) = reopen(&dir, &log[..cut]);
        assert_eq!(report.replay_errors, 0, "cut at {cut}");
        assert!(report.frames_replayed <= whole, "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_byte_flips_are_refused_by_the_record_reader() {
    let _one = REPLAY.lock().unwrap();
    let (log, _) = written();
    let frames = frames(&log);
    let dir = scratch("flips");
    let mut rng = Rng::new(0x7ec0_4d42);
    let mut refused = 0;
    for _ in 0..4000 {
        let mut mutated = log.clone();
        let frame = frames[rng.below(frames.len() as u64) as usize];
        let at = frame.payload_at() + rng.below(frame.len as u64) as usize;
        mutated[at] ^= 1 + rng.below(255) as u8;
        reseal(&mut mutated, frame);
        // A flipped Sql body that is not UTF-8 cuts the log there; every
        // other frame reaches the record reader.
        refused += check_refusals(&statements(&dir, &mutated), &frames);
        reopen(&dir, &mutated);
    }
    assert!(refused > 1000, "only {refused} flipped records refused");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_count_and_length_set_to_all_ones_is_refused() {
    let _one = REPLAY.lock().unwrap();
    let (log, _) = written();
    let frames = frames(&log);
    let dir = scratch("ones");
    let mut fields = 0;
    for (k, frame) in frames.iter().enumerate() {
        for (at, width) in count_fields(frame.payload(&log)) {
            let mut mutated = log.clone();
            let at = frame.payload_at() + at;
            mutated[at..at + width].fill(0xff);
            reseal(&mut mutated, *frame);
            let text = statements(&dir, &mutated);
            assert_eq!(check_refusals(&text, &frames), 1, "field at {at}");
            assert!(text[k].starts_with("-- "), "field at {at}: {}", text[k]);
            // What needed the refused record fails after it.
            let (_, report) = reopen(&dir, &mutated);
            assert!(report.replay_errors >= 1, "field at {at}");
            fields += 1;
        }
        // The frame's own length: the frame no longer validates, and the
        // log ends before it.
        let mut mutated = log.clone();
        mutated[frame.at..frame.at + 4].fill(0xff);
        let (_, report) = reopen(&dir, &mutated);
        assert!(report.torn_bytes > 0, "frame {}", frame.seq);
        assert_eq!(report.replay_errors, 0, "frame {}", frame.seq);
    }
    assert!(fields > 30, "only {fields} count fields");
    std::fs::remove_dir_all(&dir).ok();
}
