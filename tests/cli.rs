//! End-to-end tests of the `perfbase` CLI frontend: setup → input →
//! query/info/ls/missing → delete, against real files in a temp directory.

use perfbase::cli::run;
use perfbase::workloads::beffio::{simulate, BeffIoConfig, Technique};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("perfbase_cli_{tag}_{}", std::process::id()));
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

fn setup_campaign(dir: &TempDir) -> String {
    let def = dir.write(
        "exp.xml",
        include_str!("../crates/bench/data/b_eff_io_experiment.xml"),
    );
    let input = dir.write(
        "input.xml",
        include_str!("../crates/bench/data/b_eff_io_input.xml"),
    );
    let dbfile = dir.path("exp.pbdb");

    let out = cli(&["setup", "--def", &def, "--db", &dbfile, "--user", "demo"]).unwrap();
    assert!(out.contains("created experiment 'b_eff_io'"), "{out}");

    // Generate and import 2×2 output files.
    let mut files = Vec::new();
    for technique in [Technique::ListBased, Technique::ListLess] {
        for rep in 1..=2u32 {
            let run = simulate(BeffIoConfig {
                technique,
                run_index: rep,
                seed: u64::from(rep) + technique.file_tag().len() as u64,
                ..BeffIoConfig::default()
            });
            files.push(dir.write(&run.filename(), &run.render()));
        }
    }
    let mut argv = vec![
        "input".to_string(),
        "--db".into(),
        dbfile.clone(),
        "--desc".into(),
        input,
        "--user".into(),
        "demo".into(),
        "--at".into(),
        "2004-11-23 18:30:30".into(),
    ];
    argv.extend(files);
    let out = run(argv).unwrap();
    assert!(out.contains("imported 4 run(s)"), "{out}");
    dbfile
}

#[test]
fn full_cli_workflow() {
    let dir = TempDir::new("workflow");
    let dbfile = setup_campaign(&dir);

    // info
    let out = cli(&["info", "--db", &dbfile]).unwrap();
    assert!(out.contains("experiment: b_eff_io"));
    assert!(out.contains("runs:       4"));

    // ls with parameter filter
    let out = cli(&["ls", "--db", &dbfile, "--param", "technique=listless"]).unwrap();
    assert!(out.starts_with("2 run(s)"), "{out}");
    assert!(out.contains("technique=listless"));

    // query (Fig. 7)
    let spec = dir.write(
        "q.xml",
        include_str!("../crates/bench/data/b_eff_io_query.xml"),
    );
    let out = cli(&[
        "query",
        "--db",
        &dbfile,
        "--spec",
        &spec,
        "--user",
        "demo",
        "--timings",
    ])
    .unwrap();
    assert!(out.contains("== output element 'plot' =="));
    assert!(out.contains("set style data histogram"));
    assert!(out.contains("source fraction:"), "{out}");

    // parallel query gives the same artifact content (modulo the transfer
    // statistics, which only cluster runs report)
    let artifacts = |s: &str| s.split("== transfer ==").next().unwrap().to_string();
    let seq = cli(&["query", "--db", &dbfile, "--spec", &spec, "--user", "demo"]).unwrap();
    let par = cli(&[
        "query",
        "--db",
        &dbfile,
        "--spec",
        &spec,
        "--user",
        "demo",
        "--parallel",
        "--nodes",
        "3",
    ])
    .unwrap();
    assert!(par.contains("== transfer =="), "{par}");
    assert_eq!(seq, artifacts(&par));

    // sharded query (no --parallel): run data spread over 3 nodes,
    // aggregations pushed down — identical artifacts again
    let sharded = cli(&[
        "query",
        "--db",
        &dbfile,
        "--spec",
        &spec,
        "--user",
        "demo",
        "--nodes",
        "3",
        "--latency",
        "none",
    ])
    .unwrap();
    assert!(sharded.contains("== transfer =="), "{sharded}");
    assert_eq!(seq, artifacts(&sharded));

    // ... and with pushdown disabled (pure fallback materialization)
    let fallback = cli(&[
        "query",
        "--db",
        &dbfile,
        "--spec",
        &spec,
        "--user",
        "demo",
        "--nodes",
        "3",
        "--latency",
        "none",
        "--no-pushdown",
    ])
    .unwrap();
    assert_eq!(seq, artifacts(&fallback));

    // missing: one axis has full coverage
    let out = cli(&["missing", "--db", &dbfile, "technique", "fs"]).unwrap();
    assert!(out.contains("no holes"), "{out}");

    // delete requires admin
    let err = cli(&["delete", "--db", &dbfile, "--run", "1", "--user", "mallory"]).unwrap_err();
    assert!(err.contains("not authorised"), "{err}");
    let out = cli(&["delete", "--db", &dbfile, "--run", "1", "--user", "demo"]).unwrap();
    assert!(out.contains("deleted run 1"));
    let out = cli(&["info", "--db", &dbfile]).unwrap();
    assert!(out.contains("runs:       3"));
}

/// `--parallel --trace`: the one runner opens one `element` span per DAG
/// element on whichever thread executes it. Element ids are unique to this
/// test because the span sink is process-global and other tests run
/// queries concurrently.
#[test]
fn parallel_trace_has_one_element_span_per_element() {
    let dir = TempDir::new("partrace");
    let dbfile = setup_campaign(&dir);
    let ids = [
        "trc_old",
        "trc_new",
        "trc_max_old",
        "trc_max_new",
        "trc_rel",
        "trc_out",
    ];
    let spec = dir.write(
        "traced.xml",
        r#"<query name="traced">
          <source id="trc_old">
            <parameter name="technique" value="listbased"/>
            <parameter name="s_chunk" carry="true"/>
            <value name="b_separate"/>
          </source>
          <source id="trc_new">
            <parameter name="technique" value="listless"/>
            <parameter name="s_chunk" carry="true"/>
            <value name="b_separate"/>
          </source>
          <operator id="trc_max_old" type="max" input="trc_old"/>
          <operator id="trc_max_new" type="max" input="trc_new"/>
          <operator id="trc_rel" type="above" input="trc_max_new,trc_max_old"/>
          <output id="trc_out" input="trc_rel" format="csv"/>
        </query>"#,
    );
    let trace = dir.path("trace.txt");
    let base = ["query", "--db", &dbfile, "--spec", &spec, "--user", "demo"];
    let seq = cli(&base).unwrap();
    let par = cli(&[&base[..], &["--parallel", "--trace", &trace]].concat()).unwrap();
    assert_eq!(seq, par, "--parallel output is byte-identical");
    let tree = std::fs::read_to_string(&trace).unwrap();
    assert!(tree.contains("dag query=traced elements=6"), "{tree}");
    for id in ids {
        let spans = tree
            .lines()
            .filter(|l| l.trim_start().starts_with(&format!("element id={id} ")))
            .count();
        assert_eq!(spans, 1, "element span of {id} in:\n{tree}");
    }
    // A source element says how many runs matched and how many rows it kept.
    for id in ["trc_old", "trc_new"] {
        let line = format!("element id={id} kind=source runs=2 rows=48");
        assert!(tree.contains(&line), "{line} in:\n{tree}");
    }
}

#[test]
fn duplicate_import_blocked_until_forced() {
    let dir = TempDir::new("dup");
    let dbfile = setup_campaign(&dir);
    let input = dir.path("input.xml");
    let run = simulate(BeffIoConfig::default());
    let f = dir.write("again.out", &run.render());
    // This content hash was imported during setup (same config/seed as
    // listbased rep 1? No — different seed, so first import succeeds).
    let out = cli(&[
        "input",
        "--db",
        &dbfile,
        "--desc",
        &input,
        "--user",
        "demo",
        "--fixed",
        "technique=listbased",
        "--fixed",
        "fs=ufs",
        &f,
    ])
    .unwrap();
    assert!(out.contains("imported 1 run(s)"), "{out}");
    // Re-import: duplicate.
    let out = cli(&[
        "input",
        "--db",
        &dbfile,
        "--desc",
        &input,
        "--user",
        "demo",
        "--fixed",
        "technique=listbased",
        "--fixed",
        "fs=ufs",
        &f,
    ])
    .unwrap();
    assert!(out.contains("skipped 1 duplicate"), "{out}");
    // Forced: goes through.
    let out = cli(&[
        "input",
        "--db",
        &dbfile,
        "--desc",
        &input,
        "--user",
        "demo",
        "--force",
        "--fixed",
        "technique=listbased",
        "--fixed",
        "fs=ufs",
        &f,
    ])
    .unwrap();
    assert!(out.contains("imported 1 run(s)"), "{out}");
}

#[test]
fn access_control_on_input() {
    let dir = TempDir::new("acl");
    let dbfile = setup_campaign(&dir);
    let input = dir.path("input.xml");
    let f = dir.path("bio_T10_N4_listbased_ufs_grisu_run1"); // exists from setup
    let err = cli(&[
        "input", "--db", &dbfile, "--desc", &input, "--user", "eve", &f,
    ])
    .unwrap_err();
    assert!(err.contains("not authorised"), "{err}");
}

#[test]
fn check_command_validates_control_files() {
    let dir = TempDir::new("check");
    let def = dir.write(
        "exp.xml",
        include_str!("../crates/bench/data/b_eff_io_experiment.xml"),
    );
    let out = cli(&["check", "--kind", "experiment", &def]).unwrap();
    assert!(
        out.contains("OK: experiment 'b_eff_io' with 16 variables"),
        "{out}"
    );

    let q = dir.write(
        "q.xml",
        include_str!("../crates/bench/data/b_eff_io_query.xml"),
    );
    let out = cli(&["check", "--kind", "query", &q]).unwrap();
    assert!(out.contains("OK: query"), "{out}");

    let bad = dir.write(
        "bad.xml",
        "<query><operator id=\"o\" type=\"max\" input=\"ghost\"/></query>",
    );
    let err = cli(&["check", "--kind", "query", &bad]).unwrap_err();
    assert!(err.contains("unknown input"), "{err}");
}

#[test]
fn dump_is_replayable_sql() {
    let dir = TempDir::new("dump");
    let dbfile = setup_campaign(&dir);
    let dump = cli(&["dump", "--db", &dbfile]).unwrap();
    assert!(dump.contains("CREATE TABLE pb_runs"));
    assert!(dump.contains("CREATE TABLE pb_rundata_1"));
    let engine = perfbase::sqldb::Engine::from_sql_dump(&dump).unwrap();
    assert_eq!(engine.row_count("pb_runs").unwrap(), 4);
}

#[test]
fn sql_script_errors_are_located_in_the_script() {
    let dir = TempDir::new("sqlpos");
    let dbfile = setup_campaign(&dir);
    // Two statements over three lines; the second does not parse.
    let script = "CREATE TABLE note (id INTEGER);\nINSERT INTO note\n  VALUES (1, );";
    let e = cli(&["sql", "--db", &dbfile, script]).unwrap_err();
    assert!(
        e.contains("expected an expression, found ')' (line 3, column 14)"),
        "{e}"
    );
    // And the first did not run.
    let e = cli(&["sql", "--db", &dbfile, "SELECT count(*) FROM note"]).unwrap_err();
    assert!(e.contains("note"), "{e}");
    let script = script.replace(", )", ")");
    cli(&["sql", "--db", &dbfile, &script]).unwrap();
    let out = cli(&["sql", "--db", &dbfile, "SELECT count(*) FROM note"]).unwrap();
    assert!(out.ends_with("1\n"), "{out}");
}

#[test]
fn update_command_evolves_definition() {
    let dir = TempDir::new("update");
    let dbfile = setup_campaign(&dir);
    // New definition: add a parameter.
    let mut xml: String = include_str!("../crates/bench/data/b_eff_io_experiment.xml").to_string();
    xml = xml.replace(
        "</experiment>",
        "<parameter occurence=\"once\"><name>os_release</name><datatype>string</datatype></parameter></experiment>",
    );
    let def2 = dir.write("exp2.xml", &xml);
    let out = cli(&["update", "--db", &dbfile, "--def", &def2, "--user", "demo"]).unwrap();
    assert!(out.contains("1 variable(s) added, 0 removed"), "{out}");
    let info = cli(&["info", "--db", &dbfile]).unwrap();
    assert!(info.contains("os_release"));
    // Runs survive evolution.
    assert!(info.contains("runs:       4"));
}

#[test]
fn show_displays_run_content() {
    let dir = TempDir::new("show");
    let dbfile = setup_campaign(&dir);
    let out = cli(&["show", "--db", &dbfile, "--run", "1", "--user", "demo"]).unwrap();
    assert!(
        out.starts_with("run 1 (imported 2004-11-23 18:30:30)"),
        "{out}"
    );
    assert!(out.contains("technique"));
    assert!(out.contains("24 data set(s)"));
    assert!(out.contains("b_scatter"));
    // 24 data rows + header + preamble lines.
    assert!(out.lines().count() > 30, "{out}");
    assert!(cli(&["show", "--db", &dbfile, "--run", "999", "--user", "demo"]).is_err());
}

#[test]
fn suspect_screens_for_anomalies() {
    let dir = TempDir::new("suspect");
    let dbfile = setup_campaign(&dir);
    // Clean campaign data (low ufs noise): no 3σ deviations expected.
    let out = cli(&[
        "suspect",
        "--db",
        &dbfile,
        "--user",
        "demo",
        "--value",
        "b_separate",
        "--group",
        "technique,mode,s_chunk",
        "--min-samples",
        "2",
    ])
    .unwrap();
    assert!(
        out.contains("no anomalies") || out.contains("unstable"),
        "{out}"
    );

    // Tighten the thresholds until everything is suspicious.
    let out = cli(&[
        "suspect",
        "--db",
        &dbfile,
        "--user",
        "demo",
        "--value",
        "b_separate",
        "--group",
        "technique,mode,s_chunk",
        "--min-samples",
        "2",
        "--threshold",
        "0.5",
        "--max-rel-stddev",
        "0.0001",
    ])
    .unwrap();
    assert!(
        out.contains("deviating value(s)") || out.contains("unstable"),
        "{out}"
    );

    // Unknown value column is a clean error.
    let err = cli(&[
        "suspect", "--db", &dbfile, "--user", "demo", "--value", "zzz", "--group", "mode",
    ])
    .unwrap_err();
    assert!(err.contains("zzz"), "{err}");
}

#[test]
fn helpful_errors() {
    assert!(cli(&[]).is_err());
    assert!(cli(&["frobnicate"])
        .unwrap_err()
        .contains("unknown command"));
    assert!(cli(&["setup"]).unwrap_err().contains("--def"));
    assert!(
        cli(&["query", "--db", "/nonexistent/x.pbdb", "--spec", "y"])
            .unwrap_err()
            .contains("cannot read")
    );
    let help = cli(&["help"]).unwrap();
    assert!(help.contains("usage:"));
}
