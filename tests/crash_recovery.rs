//! Kill-during-import crash recovery, end to end through the CLI.
//!
//! `perfbase input --wal` logs every statement to `<db>.wal` before it is
//! applied. These tests import with the log enabled, kill the import at a
//! deterministic frame count (`--crash-after-frames`, wired to the
//! [`sqldb::IoFailpoint`] fault injector), and verify that
//!
//! * the SQL dump on disk is untouched by the crashed import,
//! * `perfbase checkpoint` replays the surviving log prefix into a
//!   database that every read command still accepts, and
//! * a clean `--wal` import is indistinguishable from a plain one.

use perfbase::cli::run;
use perfbase::workloads::beffio::{simulate, BeffIoConfig, Technique};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("perfbase_crash_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    fn write(&self, name: &str, content: &str) -> String {
        let p = self.path(name);
        std::fs::write(&p, content).unwrap();
        p
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn cli(args: &[&str]) -> Result<String, String> {
    run(args.iter().map(|s| s.to_string()).collect())
}

/// Create an empty b_eff_io campaign database; returns (db path, input
/// description path).
fn setup_campaign(dir: &TempDir, tag: &str) -> (String, String) {
    let def = dir.write(
        &format!("exp_{tag}.xml"),
        include_str!("../crates/bench/data/b_eff_io_experiment.xml"),
    );
    let input = dir.write(
        &format!("input_{tag}.xml"),
        include_str!("../crates/bench/data/b_eff_io_input.xml"),
    );
    let dbfile = dir.path(&format!("exp_{tag}.pbdb"));
    let out = cli(&["setup", "--def", &def, "--db", &dbfile, "--user", "demo"]).unwrap();
    assert!(out.contains("created experiment 'b_eff_io'"), "{out}");
    (dbfile, input)
}

/// Generate measurement files for one technique.
fn gen_files(dir: &TempDir, technique: Technique, reps: u32) -> Vec<String> {
    (1..=reps)
        .map(|rep| {
            let run = simulate(BeffIoConfig {
                technique,
                run_index: rep,
                seed: u64::from(rep) + technique.file_tag().len() as u64,
                ..BeffIoConfig::default()
            });
            dir.write(&run.filename(), &run.render())
        })
        .collect()
}

fn import(db: &str, input: &str, files: &[String], extra: &[&str]) -> Result<String, String> {
    let mut argv = vec![
        "input".to_string(),
        "--db".into(),
        db.to_string(),
        "--desc".into(),
        input.to_string(),
        "--user".into(),
        "demo".into(),
        "--at".into(),
        "2004-11-23 18:30:30".into(),
    ];
    argv.extend(extra.iter().map(|s| s.to_string()));
    argv.extend(files.iter().cloned());
    run(argv)
}

/// The `runs:` count printed by `perfbase info`.
fn run_count(db: &str) -> usize {
    let out = cli(&["info", "--db", db]).unwrap();
    let line = out
        .lines()
        .find(|l| l.starts_with("runs:"))
        .unwrap_or_else(|| panic!("{out}"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn wal_import_matches_plain_import() {
    let dir = TempDir::new("clean");
    let batch1 = gen_files(&dir, Technique::ListBased, 2);
    let batch2 = gen_files(&dir, Technique::ListLess, 2);

    let (db_wal, input_wal) = setup_campaign(&dir, "wal");
    let (db_plain, input_plain) = setup_campaign(&dir, "plain");

    for (batch, sync) in [(&batch1, "always"), (&batch2, "group")] {
        let out = import(&db_wal, &input_wal, batch, &["--wal", "--sync", sync]).unwrap();
        assert!(out.contains("imported 2 run(s)"), "{out}");
        let out = import(&db_plain, &input_plain, batch, &[]).unwrap();
        assert!(out.contains("imported 2 run(s)"), "{out}");
    }

    // A successful --wal import checkpoints: the log is compacted back to
    // its 16-byte header and the dump alone carries the data.
    let wal_file = format!("{db_wal}.wal");
    assert_eq!(
        std::fs::metadata(&wal_file).unwrap().len(),
        16,
        "log not compacted"
    );

    assert_eq!(run_count(&db_wal), 4);
    assert_eq!(run_count(&db_plain), 4);
    let ls_wal = cli(&["ls", "--db", &db_wal]).unwrap();
    let ls_plain = cli(&["ls", "--db", &db_plain]).unwrap();
    assert_eq!(ls_wal, ls_plain, "WAL import must be invisible to readers");
}

#[test]
fn kill_during_import_then_checkpoint_recovers_a_consistent_db() {
    let dir = TempDir::new("kill");
    let (db, input) = setup_campaign(&dir, "kill");
    let batch1 = gen_files(&dir, Technique::ListBased, 2);
    let batch2 = gen_files(&dir, Technique::ListLess, 2);

    let out = import(&db, &input, &batch1, &["--wal", "--sync", "always"]).unwrap();
    assert!(out.contains("imported 2 run(s)"), "{out}");
    assert_eq!(run_count(&db), 2);
    let dump_before = cli(&["dump", "--db", &db]).unwrap();

    // Kill the second import after 7 logged statements.
    let err = import(
        &db,
        &input,
        &batch2,
        &["--wal", "--sync", "always", "--crash-after-frames", "7"],
    )
    .unwrap_err();
    assert!(err.contains("simulated crash"), "{err}");

    // The crash never reached the checkpoint: the dump on disk is exactly
    // the pre-import state, and readers see 2 runs.
    assert_eq!(cli(&["dump", "--db", &db]).unwrap(), dump_before);
    assert_eq!(run_count(&db), 2);

    // Recovery: replay the committed prefix of the 7 logged frames into
    // the dump and compact. A run's publish is a WAL transaction group,
    // so a kill landing inside a group replays fewer than 7 statements:
    // the unterminated tail is reported as discarded, and the BEGIN/COMMIT
    // markers of completed groups are consumed silently — replayed plus
    // discarded stays within the 7 frames on disk, all of which compact.
    let out = cli(&["checkpoint", "--db", &db]).unwrap();
    let replayed: u64 = out
        .split("recovered ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{out}"));
    let discarded: u64 = match out.split_once(" uncommitted transaction frame(s) discarded") {
        None => 0,
        Some((head, _)) => head
            .rsplit(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{out}")),
    };
    assert!(
        (1..=7).contains(&(replayed + discarded)),
        "replayed {replayed} + discarded {discarded} out of range: {out}"
    );
    assert!(out.contains("0 replay error(s)"), "{out}");
    assert!(out.contains("7 log frame(s) compacted"), "{out}");

    // The recovered database is a consistent prefix: every read command
    // still works, nothing was half-applied at the statement level.
    // Runs publish atomically (their import is a WAL transaction group),
    // so the prefix shows only fully-imported runs — somewhere between
    // none and both of the killed batch.
    let runs_after = run_count(&db);
    assert!(
        (2..=4).contains(&runs_after),
        "prefix can publish at most the two killed runs: {runs_after}"
    );
    cli(&["ls", "--db", &db]).unwrap();
    cli(&["dump", "--db", &db]).unwrap();

    // A second checkpoint is a no-op on a clean log.
    let out = cli(&["checkpoint", "--db", &db]).unwrap();
    assert!(!out.contains("recovered"), "{out}");
    assert!(out.contains("0 log frame(s) compacted"), "{out}");

    // The interrupted batch can be imported afterwards, without `--force`:
    // a run and its `pb_imports` row are one commit, so the files whose runs
    // the prefix holds are skipped as duplicates and the others imported.
    let out = import(&db, &input, &batch2, &["--wal"]).unwrap();
    let missing = 4 - runs_after;
    assert!(out.contains(&format!("imported {missing} run(s)")), "{out}");
    assert_eq!(out.contains("duplicate"), missing < 2, "{out}");
    assert_eq!(run_count(&db), 4);
}

// ---- all or nothing, at every frame ---------------------------------------

use perfbase::core::experiment::ExperimentDb;
use perfbase::core::import::{content_hash, Importer};
use perfbase::core::input::input_description_from_str;
use perfbase::sqldb::{IoFailpoint, SyncPolicy, WalOptions};
use std::path::Path;
use std::sync::Arc;

/// Options whose log dies, cleanly, after `frames` more frames.
fn dying_after(frames: u64) -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        failpoint: Arc::new(IoFailpoint::crash_after_frames(frames)),
    }
}

/// `(name, content)` of `n` measurement files.
fn measurements(n: u32) -> Vec<(String, String)> {
    (1..=n)
        .map(|rep| {
            let run = simulate(BeffIoConfig {
                run_index: rep,
                seed: u64::from(rep),
                ..BeffIoConfig::default()
            });
            (run.filename(), run.render())
        })
        .collect()
}

/// The experiment at `path`, reopened after the crash, holds every run
/// entirely or not at all: a `pb_runs` row, its data table and its
/// `pb_imports` row stand or fall together. Returns the run ids.
fn whole_runs(db: &ExperimentDb) -> Vec<i64> {
    let ids = db.run_ids().unwrap();
    let recorded = db
        .engine()
        .query("SELECT run_id FROM pb_imports ORDER BY run_id")
        .unwrap();
    let recorded: Vec<i64> = recorded
        .rows()
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert_eq!(recorded, ids, "pb_imports rows and pb_runs rows differ");
    let tables = db.engine().table_names();
    let data: Vec<&String> = tables
        .iter()
        .filter(|t| t.starts_with("pb_rundata_"))
        .collect();
    let want: Vec<String> = ids.iter().map(|id| format!("pb_rundata_{id}")).collect();
    assert_eq!(data, want.iter().collect::<Vec<_>>(), "data tables");
    for id in &ids {
        assert_eq!(db.run_summary(*id).unwrap().datasets, 24, "run {id}");
    }
    ids
}

/// §3.2 after a crash: "importing the same input file more than once is not
/// possible without explicit confirmation". The run used to be recovered
/// without its `pb_imports` row (a commit of its own, after the run's), and
/// the file was imported a second time.
#[test]
fn an_import_killed_at_any_frame_is_all_or_nothing() {
    let dir = TempDir::new("import_frames");
    let (template, input) = setup_campaign(&dir, "frames");
    let desc = input_description_from_str(&std::fs::read_to_string(input).unwrap()).unwrap();
    let files = measurements(2);
    // An import is one group of 6 frames: the markers, the data table's
    // CREATE and INSERT, the pb_runs row, the pb_imports row.
    for kill_after in 1..=13 {
        let path = dir.path(&format!("frames_{kill_after}.pbdb"));
        std::fs::copy(&template, &path).unwrap();
        let (db, _) =
            ExperimentDb::open_durable(Path::new(&path), dying_after(kill_after)).unwrap();
        let importer = Importer::new(&db);
        let acked: Vec<bool> = files
            .iter()
            .map(|(name, content)| importer.import_file(&desc, name, content).is_ok())
            .collect();
        assert_eq!(
            acked,
            [kill_after >= 6, kill_after >= 12],
            "kill after {kill_after}"
        );
        drop(db);

        // Second round: an autocommit frame acknowledged after the reopen is
        // not behind the killed group at the next one.
        let (db, _) = ExperimentDb::open_durable(Path::new(&path), WalOptions::default()).unwrap();
        db.record_import("by-hand", "by-hand.txt", 0).unwrap();
        drop(db);
        let (db, _) = ExperimentDb::open_durable(Path::new(&path), WalOptions::default()).unwrap();
        assert!(
            db.is_imported("by-hand").unwrap(),
            "kill after {kill_after}"
        );
        db.engine()
            .execute("DELETE FROM pb_imports WHERE hash = 'by-hand'")
            .unwrap();

        let ids = whole_runs(&db);
        let stored = acked.iter().filter(|a| **a).count();
        assert_eq!(ids.len(), stored, "acked ⇒ recovered, unacked ⇒ absent");
        // What is there is known by its hash; what is not can be imported.
        let importer = Importer::new(&db);
        for ((name, content), was_stored) in files.iter().zip(acked) {
            assert_eq!(db.is_imported(&content_hash(content)).unwrap(), was_stored);
            let report = importer.import_file(&desc, name, content).unwrap();
            assert_eq!(report.duplicates_skipped, usize::from(was_stored));
            assert_eq!(report.runs_created.len(), usize::from(!was_stored));
        }
        assert_eq!(whole_runs(&db).len(), 2, "kill after {kill_after}");
    }
}

/// `delete_run` used to be four commits: killed after the first, the run was
/// gone, its data table orphaned and its hash still recorded — the file was
/// refused as a duplicate of a run that no longer existed.
#[test]
fn a_delete_killed_at_any_frame_is_all_or_nothing() {
    let dir = TempDir::new("delete_frames");
    let (template, input) = setup_campaign(&dir, "delete");
    let desc = input_description_from_str(&std::fs::read_to_string(input).unwrap()).unwrap();
    let files = measurements(2);
    {
        let path = Path::new(&template);
        let (db, _) = ExperimentDb::open_durable(path, WalOptions::default()).unwrap();
        let importer = Importer::new(&db);
        for (name, content) in &files {
            importer.import_file(&desc, name, content).unwrap();
        }
        db.checkpoint(path).unwrap();
    }
    // One group of 5 frames: the markers, the DELETEs on pb_runs and
    // pb_imports, the DROP of the data table.
    for kill_after in 1..=6 {
        let path = dir.path(&format!("delete_{kill_after}.pbdb"));
        std::fs::copy(&template, &path).unwrap();
        let (db, _) =
            ExperimentDb::open_durable(Path::new(&path), dying_after(kill_after)).unwrap();
        let acked = db.delete_run(1).is_ok();
        assert_eq!(acked, kill_after >= 5, "kill after {kill_after}");
        drop(db);

        let (db, _) = ExperimentDb::open_durable(Path::new(&path), WalOptions::default()).unwrap();
        let ids = whole_runs(&db);
        assert_eq!(ids, if acked { vec![2] } else { vec![1, 2] });
        // A deleted run's file can be imported again, unforced.
        let (name, content) = &files[0];
        let report = Importer::new(&db)
            .import_file(&desc, name, content)
            .unwrap();
        assert_eq!(report.runs_created.len(), usize::from(acked));
        assert_eq!(whole_runs(&db).len(), 2);
    }
}

/// A checkpointed experiment file copied without its `.wal`: `delete_run`
/// was acknowledged and, after the next open, undone — the new log started at
/// sequence 1 and recovery skipped its frames as "already checkpointed".
#[test]
fn an_experiment_restored_without_its_log_keeps_acknowledged_writes() {
    let dir = TempDir::new("restored");
    let (original, input) = setup_campaign(&dir, "restored");
    let desc = input_description_from_str(&std::fs::read_to_string(input).unwrap()).unwrap();
    {
        let path = Path::new(&original);
        let (db, _) = ExperimentDb::open_durable(path, WalOptions::default()).unwrap();
        let importer = Importer::new(&db);
        for (name, content) in &measurements(2) {
            importer.import_file(&desc, name, content).unwrap();
        }
        db.checkpoint(path).unwrap();
    }
    let restored = dir.path("restored_copy.pbdb");
    std::fs::copy(&original, &restored).unwrap();
    let dump = std::fs::read_to_string(&restored).unwrap();
    assert!(dump.contains("-- wal-checkpoint-seq: "), "checkpointed");
    assert!(!ExperimentDb::wal_path(Path::new(&restored)).exists());

    let (db, _) = ExperimentDb::open_durable(Path::new(&restored), WalOptions::default()).unwrap();
    db.delete_run(1).unwrap();
    db.durability_sync().unwrap();
    drop(db);
    let (db, report) =
        ExperimentDb::open_durable(Path::new(&restored), WalOptions::default()).unwrap();
    assert_eq!(report.frames_skipped, 0, "{report:?}");
    assert!(report.frames_replayed > 0, "{report:?}");
    assert_eq!(whole_runs(&db), [2]);
}
