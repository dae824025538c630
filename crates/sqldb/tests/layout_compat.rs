//! Files written before every table became a column store keep loading.
//!
//! `fixtures/layout_compat/` was written by the build at commit `c8d8e3a`
//! (the last one with a per-table layout choice): `db.sql` is a checkpoint
//! dump and `db.wal` the log tail after it. Between them they hold plain and
//! `USING COLUMNAR` tables (created through SQL and through the programmatic
//! API), a hash and two ordered indexes, NULLs, `E'…'` text, an UPDATE, a
//! DELETE, an INSERT that fails on replay, and one framed transaction.
//! `expected.txt` is that build's answer to a fixed query list, taken from
//! the live engine right after the last write.

use sqldb::{Engine, SyncPolicy, WalOptions};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/layout_compat")
        .join(name)
}

#[test]
fn parent_written_dump_and_wal_load_and_answer_identically() {
    // Recovery truncates and reattaches the log: work on a copy.
    let dir = std::env::temp_dir().join(format!("perfbase_layout_compat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (dump, wal) = (dir.join("db.sql"), dir.join("db.wal"));
    std::fs::copy(fixture("db.sql"), &dump).unwrap();
    std::fs::copy(fixture("db.wal"), &wal).unwrap();
    let written = std::fs::read_to_string(&dump).unwrap()
        + &String::from_utf8_lossy(&std::fs::read(&wal).unwrap());
    assert_eq!(
        written.matches("USING COLUMNAR").count(),
        3,
        "fixture lost its layout clauses"
    );

    let (db, report) =
        Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
    assert_eq!(
        report.frames_replayed, 12,
        "14 frames minus two txn markers"
    );
    assert_eq!(
        report.replay_errors, 1,
        "the NOT NULL violation fails again"
    );
    assert_eq!(report.txn_frames_discarded, 0);

    let expected = std::fs::read_to_string(fixture("expected.txt")).unwrap();
    let mut answers = String::new();
    for q in expected.lines().filter_map(|l| {
        l.strip_prefix("-- SELECT")
            .map(|rest| format!("SELECT{rest}"))
    }) {
        answers.push_str(&format!("-- {q}\n{}", db.query(&q).unwrap().render_tsv()));
    }
    assert_eq!(answers, expected);

    // Re-saved, the clause is gone and the dump is a fixpoint.
    let resaved = db.dump_sql();
    assert!(!resaved.contains("USING"), "{resaved}");
    let reloaded = Engine::from_sql_dump(&resaved).unwrap();
    assert_eq!(reloaded.dump_sql(), resaved);
    std::fs::remove_dir_all(&dir).ok();
}
