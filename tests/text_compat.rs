//! The SQL text the engine writes is a file format: dump lines and WAL frame
//! payloads written by one build are read by every later one, and tools diff
//! them. This pins the bytes.
//!
//! `fixtures/text_compat/` was written by the build at commit `0a09b29` —
//! the last whose writer built a `Vec<String>` per row and `join`ed it — by
//! running [`build`] below there and saving what it returns: `dump.sql` is
//! `dump_sql()` of a 12-run b_eff_io campaign plus a table of edge values of
//! every kind, `frames.wal` the log the same work left (the `CREATE TABLE`
//! and `INSERT` text of every programmatic write, framed). The writer of
//! this build must produce both byte for byte — but for the two differences
//! [`as_written_now`] spells out — and read both as the parent did. Since
//! the log holds typed records, its frames are compared as the text they
//! stand for, and `records.wal` pins the bytes this build writes; the
//! parent's `frames.wal` must still replay.

use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::Importer;
use perfbase::core::input::input_description_from_str;
use perfbase::core::xmldef::definition_from_str;
use perfbase::sqldb::{Column, DataType, Engine, Schema, SyncPolicy, Value, Wal, WalOptions};
use perfbase::workloads::beffio::{simulate, BeffIoConfig, FsType, Technique};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/text_compat")
        .join(name)
}

/// One row per edge: integers at both ends of the range, floats that need
/// every digit, an exponent or quotes, and text holding everything the
/// literal syntax gives a meaning to.
fn edge_rows() -> Vec<Vec<Value>> {
    let ints = [i64::MAX, i64::MIN, 0, -1, 1_101_234_630, 7];
    let floats = [
        0.0,
        -0.0,
        5e-324,
        1e300,
        -1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e21,
        0.1,
        -214.516,
        1e-7,
    ];
    let texts = [
        "",
        "it's",
        "''",
        "back\\slash",
        "a;b -- c",
        "line\nbreak",
        "cr\r tab\t nul\0",
        "\\n stays \\ literal\n",
        "\u{1}\u{7f}",
        "größe 日本",
        "trailing E",
        "e'",
    ];
    (0..12)
        .map(|i| {
            vec![
                Value::Int(ints[i % ints.len()]),
                Value::Float(floats[i]),
                Value::Text(texts[i].into()),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Bool(i % 2 == 0)
                },
                Value::Timestamp(ints[(i + 1) % ints.len()]),
            ]
        })
        .collect()
}

/// The campaign and the edge table, written durably into `dir`; returns the
/// dump text and the bytes of the log.
fn build(dir: &Path) -> (String, Vec<u8>) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    let (dump, wal) = (dir.join("db.sql"), dir.join("db.wal"));
    let opts = WalOptions::with_sync(SyncPolicy::Off);
    let (engine, _) = Engine::open_durable(&dump, &wal, opts).unwrap();
    let engine = Arc::new(engine);
    let def =
        definition_from_str(include_str!("../crates/bench/data/b_eff_io_experiment.xml")).unwrap();
    let desc = input_description_from_str(include_str!("../crates/bench/data/b_eff_io_input.xml"))
        .unwrap();
    let db = ExperimentDb::create(engine.clone(), def).unwrap();
    let importer = Importer::new(&db).at_time(1_101_234_630);
    let mut seed = 14;
    for rep in 1..=2u32 {
        for fs in [FsType::Ufs, FsType::Nfs, FsType::Pvfs] {
            for technique in [Technique::ListBased, Technique::ListLess] {
                seed += 1;
                let run = simulate(BeffIoConfig {
                    fs,
                    technique,
                    run_index: rep,
                    seed,
                    ..BeffIoConfig::default()
                });
                let report = importer
                    .import_file(&desc, &run.filename(), &run.render())
                    .unwrap();
                assert_eq!(report.runs_created.len(), 1);
            }
        }
    }
    let kinds = [
        DataType::Int,
        DataType::Float,
        DataType::Text,
        DataType::Bool,
        DataType::Timestamp,
    ];
    let mut columns: Vec<Column> = kinds
        .iter()
        .enumerate()
        .map(|(i, t)| Column::new(&format!("c{i}"), *t))
        .collect();
    columns.insert(0, Column::not_null("id", DataType::Int));
    engine
        .create_table("edges", Schema::new(columns).unwrap())
        .unwrap();
    let rows = edge_rows().into_iter().zip(0..).map(|(mut row, id)| {
        row.insert(0, Value::Int(id));
        row
    });
    engine.insert_rows("edges", rows.collect()).unwrap();
    engine.wal_sync().unwrap();
    (engine.dump_sql(), std::fs::read(&wal).unwrap())
}

/// The statements framed in `log`, in order.
fn statements(log: &[u8], scratch: &Path) -> Vec<String> {
    std::fs::write(scratch, log).unwrap();
    let opts = WalOptions::with_sync(SyncPolicy::Off);
    let (_, frames, report) = Wal::open_recover(scratch, opts, 1).unwrap();
    assert_eq!(report.torn_bytes, 0);
    frames.statements()
}

/// What this build writes differs from what `0a09b29` wrote in two places,
/// and nowhere else: `pb_ix_runs_run_id` is an ordered index (the next run id
/// is read off its end), and the `pb_imports` row of an import commits with
/// its run — the `INSERT` stands before the group's commit marker instead of
/// after it, as a frame of its own.
fn as_written_now(mut statements: Vec<String>) -> Vec<String> {
    let index = "CREATE INDEX IF NOT EXISTS pb_ix_runs_run_id ";
    for i in 0..statements.len() {
        if let Some(rest) = statements[i].strip_prefix(index) {
            statements[i] = format!("CREATE ORDERED INDEX IF NOT EXISTS pb_ix_runs_run_id {rest}");
        }
        if statements[i].starts_with("INSERT INTO pb_imports ") {
            assert_eq!(statements[i - 1], "--TXN COMMIT");
            statements.swap(i - 1, i);
        }
    }
    statements
}

#[test]
fn dump_and_frames_are_the_bytes_the_parent_build_wrote() {
    let dir = std::env::temp_dir().join(format!("perfbase_text_compat_{}", std::process::id()));
    let (dump, frames) = build(&dir);
    let want_dump = std::fs::read_to_string(fixture("dump.sql")).unwrap();
    let want_frames = std::fs::read(fixture("frames.wal")).unwrap();
    assert!(want_dump.len() > 20_000 && want_frames.len() > 20_000);
    let ordered = want_dump.replace(
        "CREATE INDEX pb_ix_runs_run_id ",
        "CREATE ORDERED INDEX pb_ix_runs_run_id ",
    );
    assert!(dump == ordered, "dump differs from the parent's");
    let scratch = dir.join("frames.wal");
    let written = statements(&frames, &scratch);
    let want = as_written_now(statements(&want_frames, &scratch));
    assert!(written == want, "log differs from the parent's");
    // The log is typed records now: it reads as the parent's text, and its
    // bytes are pinned by `records.wal`.
    let want_records = std::fs::read(fixture("records.wal")).unwrap();
    assert!(frames == want_records, "log bytes differ from records.wal");

    // Read back — the dump alone, and the log alone replayed into an empty
    // engine — the parent's bytes give the state they were written from.
    let loaded = Engine::from_sql_dump(&want_dump).unwrap();
    assert_eq!(loaded.dump_sql(), want_dump);
    let (none, wal) = (dir.join("none.sql"), dir.join("replay.wal"));
    std::fs::write(&wal, &want_frames).unwrap();
    let (replayed, report) =
        Engine::open_durable(&none, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
    assert_eq!(report.replay_errors, 0);
    assert_eq!(replayed.dump_sql(), want_dump);
    std::fs::write(&wal, &want_records).unwrap();
    let (replayed, report) = Engine::open_durable(
        &dir.join("none2.sql"),
        &wal,
        WalOptions::with_sync(SyncPolicy::Off),
    )
    .unwrap();
    assert_eq!(report.replay_errors, 0);
    assert_eq!(replayed.dump_sql(), ordered);
    std::fs::remove_dir_all(&dir).ok();
}
