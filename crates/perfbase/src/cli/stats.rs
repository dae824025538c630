//! `perfbase stats` — engine telemetry inspection and self-hosted export.
//!
//! * `perfbase stats` prints the process-wide counters, histograms and
//!   per-statement-class matrix collected by the `obs` crate.
//! * `perfbase stats --reset` prints them and then zeroes every metric.
//! * `perfbase stats --export-experiment --out DIR` dogfoods perfbase on
//!   itself: it writes an experiment description, an input description and
//!   a run file under `DIR` so the collected metrics can be imported with
//!   `perfbase setup` + `perfbase input` and analysed through the normal
//!   query DAG.
//!
//! Metrics are process-wide but not cross-process: a bare `perfbase stats`
//! invocation reports only its own (idle) process. To export the metrics
//! of an actual workload, pass `--stats-export DIR` to `input` or `query`,
//! which runs the same export after the command's work, in-process.

use super::args::{Args, OptSpec};
use super::{err, open_db, user_of, with};
use perfbase_core::experiment::{ExperimentDef, Meta, Person, VarKind, Variable};
use perfbase_core::xmldef;
use sqldb::DataType;
use std::path::Path;

/// Entry point for the `stats` command.
pub(super) fn cmd_stats(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[
            OptSpec {
                name: "reset",
                takes_value: false,
            },
            OptSpec {
                name: "export-experiment",
                takes_value: false,
            },
            OptSpec {
                name: "out",
                takes_value: true,
            },
        ]),
    )
    .map_err(err)?;

    if a.flag("export-experiment") {
        let dir = Path::new(a.get("out").unwrap_or("."));
        return export_experiment(dir, &user_of(&a));
    }

    // With --db, load the database and report per-table memory (table
    // bytes, dictionary size); this also refreshes the
    // `mem.*` gauges, so they appear in the counter listing below.
    let mem = match a.get("db") {
        Some(path) => {
            let db = open_db(path)?;
            Some(memory_section(&db.engine().refresh_memory_gauges()))
        }
        None => None,
    };

    let mut out = obs::render_stats();
    if let Some(mem) = mem {
        out.push_str(&mem);
    }
    if a.flag("reset") {
        obs::reset();
        return Ok(format!("{out}\n(metrics reset)\n"));
    }
    Ok(out)
}

/// Render the per-table memory report.
fn memory_section(report: &[(String, sqldb::TableMemory)]) -> String {
    let mut out = String::from("\nTable memory:\n");
    out.push_str(&format!(
        "  {:<24} {:>8} {:>12} {:>10} {:>10}\n",
        "table", "rows", "bytes", "dict_ents", "dict_bytes"
    ));
    for (name, m) in report {
        out.push_str(&format!(
            "  {:<24} {:>8} {:>12} {:>10} {:>10}\n",
            name, m.rows, m.bytes, m.dict_entries, m.dict_bytes,
        ));
    }
    out
}

/// The experiment definition describing the exported telemetry: one run of
/// the perfbase process itself, with one data-set tuple per statement
/// class.
fn telemetry_definition(user: &str) -> Result<ExperimentDef, String> {
    let meta = Meta {
        name: "perfbase_telemetry".to_string(),
        project: "perfbase".to_string(),
        synopsis: "Self-hosted perfbase engine telemetry".to_string(),
        description: "Per-statement-class engine metrics (statement counts, \
                      execution latency, write-ahead-log traffic) exported by \
                      `perfbase stats --export-experiment`."
            .to_string(),
        performed_by: Person {
            name: user.to_string(),
            organization: "perfbase".to_string(),
        },
    };
    let mut def = ExperimentDef::new(meta, user);
    let vars = [
        Variable::new("host", VarKind::Parameter, DataType::Text)
            .once()
            .with_synopsis("host the metrics were collected on"),
        Variable::new("stmt_class", VarKind::Parameter, DataType::Text)
            .with_synopsis("statement class (select, insert, ddl, ...)"),
        Variable::new("stmt_count", VarKind::ResultValue, DataType::Int)
            .with_synopsis("statements executed in this class"),
        Variable::new("exec_avg_us", VarKind::ResultValue, DataType::Float)
            .with_synopsis("mean execution latency per statement, microseconds"),
        Variable::new("wal_appends", VarKind::ResultValue, DataType::Int)
            .with_synopsis("write-ahead-log frames appended"),
        Variable::new("wal_fsyncs", VarKind::ResultValue, DataType::Int)
            .with_synopsis("write-ahead-log fsync calls attributed to this class"),
        Variable::new("fsync_avg_us", VarKind::ResultValue, DataType::Float)
            .with_synopsis("mean fsync latency attributed to this class, microseconds"),
    ];
    for v in vars {
        def.add_variable(v).map_err(err)?;
    }
    Ok(def)
}

/// Input description matching [`telemetry_run_file`]: `host` from its named
/// line, the class table from the whitespace-separated block after the
/// header row.
const TELEMETRY_INPUT_XML: &str = r#"<?xml version="1.0"?>
<input>
  <named>
    <variable>host</variable>
    <match>host =</match>
  </named>
  <tabular>
    <start match="class statements exec_avg_us"/>
    <column index="1"><variable>stmt_class</variable></column>
    <column index="2"><variable>stmt_count</variable></column>
    <column index="3"><variable>exec_avg_us</variable></column>
    <column index="4"><variable>wal_appends</variable></column>
    <column index="5"><variable>wal_fsyncs</variable></column>
    <column index="6"><variable>fsync_avg_us</variable></column>
  </tabular>
</input>
"#;

/// Render the current per-class telemetry as a perfbase run file.
fn telemetry_run_file() -> String {
    let mut out = String::from("perfbase engine telemetry export\nhost = local\n\n");
    out.push_str("class statements exec_avg_us wal_appends wal_fsyncs fsync_avg_us\n");
    for c in obs::class_snapshot() {
        out.push_str(&format!(
            "{} {} {:.3} {} {} {:.3}\n",
            c.class,
            c.statements,
            c.exec_avg_ns() / 1000.0,
            c.wal_appends,
            c.wal_fsyncs,
            c.fsync_avg_ns() / 1000.0,
        ));
    }
    out
}

/// Write the three export files under `dir` and report what was written.
/// Also reachable from `input`/`query` via `--stats-export DIR`, so the
/// export captures the process that actually did the work (metrics are
/// per-process; a standalone `perfbase stats` process has none).
pub(super) fn export_experiment(dir: &Path, user: &str) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let def = telemetry_definition(user)?;
    let files = [
        (
            "telemetry_experiment.xml",
            xmldef::definition_to_string(&def),
        ),
        ("telemetry_input.xml", TELEMETRY_INPUT_XML.to_string()),
        ("telemetry_run.txt", telemetry_run_file()),
    ];
    let mut out = String::new();
    for (name, content) in files {
        let path = dir.join(name);
        // Atomic replace: write to a temp file in the same directory,
        // fsync, then rename over the target — a crash mid-export leaves
        // either the old file or the new one, never a truncated mix.
        let tmp = dir.join(format!(".{name}.tmp"));
        let write_result = std::fs::write(&tmp, content)
            .and_then(|()| std::fs::File::open(&tmp)?.sync_all())
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = write_result {
            let _ = std::fs::remove_file(&tmp);
            return Err(err(e));
        }
        out.push_str(&format!("wrote {}\n", path.display()));
    }
    out.push_str(
        "import with: perfbase setup --def telemetry_experiment.xml --db telemetry.pbdb \
         && perfbase input --db telemetry.pbdb --desc telemetry_input.xml telemetry_run.txt\n",
    );
    Ok(out)
}
