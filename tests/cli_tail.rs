//! `perfbase input` appends its runs to the database file as one log unit
//! behind the checkpoint image (DESIGN.md §4i), and the durable path
//! (`--wal`, which checkpoints) folds that tail into the image: plain,
//! `--wal` and plain inputs read back as the same three inputs made plain.

use perfbase::cli::run;
use perfbase::workloads::beffio::{simulate, BeffIoConfig, Technique};
use std::path::{Path, PathBuf};

fn cli(args: &[&str]) -> String {
    run(args.iter().map(|s| s.to_string()).collect()).unwrap()
}

/// Write the b_eff_io run outputs `reps` into `dir`; returns their paths.
fn runs(dir: &Path, reps: std::ops::Range<u32>) -> Vec<String> {
    reps.map(|rep| {
        let run = simulate(BeffIoConfig {
            technique: [Technique::ListBased, Technique::ListLess][rep as usize % 2],
            run_index: rep,
            seed: u64::from(rep),
            ..BeffIoConfig::default()
        });
        let path = dir.join(run.filename());
        std::fs::write(&path, run.render()).unwrap();
        path.display().to_string()
    })
    .collect()
}

/// A 40-run experiment in `dir/<name>.pbdb`, then an input of each of
/// `later` in turn, with `--wal` where it says so.
fn campaign(dir: &Path, name: &str, later: &[(&str, bool)]) -> PathBuf {
    let def = dir.join("exp.xml");
    let desc = dir.join("input.xml").display().to_string();
    let db = dir.join(format!("{name}.pbdb"));
    let db_arg = db.display().to_string();
    cli(&[
        "setup",
        "--def",
        &def.display().to_string(),
        "--db",
        &db_arg,
    ]);
    let input = |files: &[String], wal: bool| {
        let mut argv = vec!["input", "--db", &db_arg, "--desc", &desc, "--user", "demo"];
        argv.extend(["--at", "2004-11-23 18:30:30"]);
        if wal {
            argv.push("--wal");
        }
        argv.extend(files.iter().map(String::as_str));
        cli(&argv)
    };
    let preload = runs(&dir.join("preload"), 0..40);
    assert!(input(&preload, false).contains("imported 40 run(s)"));
    for (file, wal) in later {
        let before = std::fs::read(&db).unwrap();
        assert!(input(&[file.to_string()], *wal).contains("imported 1 run(s)"));
        let after = std::fs::read(&db).unwrap();
        // A plain input appends; the durable one checkpoints.
        assert_eq!(after.starts_with(&before), !wal, "{file} wal={wal}");
    }
    db
}

#[test]
fn plain_then_wal_then_plain_input_reads_as_three_plain_imports() {
    let dir = std::env::temp_dir().join(format!("perfbase_cli_tail_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for sub in ["preload", "later"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
    }
    std::fs::write(
        dir.join("exp.xml"),
        include_str!("../crates/bench/data/b_eff_io_experiment.xml"),
    )
    .unwrap();
    std::fs::write(
        dir.join("input.xml"),
        include_str!("../crates/bench/data/b_eff_io_input.xml"),
    )
    .unwrap();
    let later = runs(&dir.join("later"), 100..103);
    let mixed = [(&*later[0], false), (&*later[1], true), (&*later[2], false)];
    let plain = [
        (&*later[0], false),
        (&*later[1], false),
        (&*later[2], false),
    ];
    let (a, b) = (
        campaign(&dir, "mixed", &mixed),
        campaign(&dir, "plain", &plain),
    );
    let (a, b) = (a.display().to_string(), b.display().to_string());
    let ls = |db: &str| cli(&["ls", "--db", db, "--user", "demo"]);
    assert!(ls(&a).starts_with("43 run(s)"), "{}", ls(&a));
    assert_eq!(ls(&a), ls(&b));
    let dump = |db: &str| cli(&["dump", "--db", db, "--user", "demo"]);
    assert!(dump(&a) == dump(&b), "the dumps differ");
    std::fs::remove_dir_all(&dir).ok();
}
