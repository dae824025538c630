//! The `perfbase` command-line frontend (paper §4: "it is invoked by
//! providing the perfbase command (like setup, input or query) plus
//! required arguments").
//!
//! Commands:
//!
//! * `setup --def exp.xml --db file` — create an experiment database
//! * `update --def exp.xml --db file --user U` — evolve the definition
//! * `input --db file --desc input.xml [--user U] [--force] [--policy P]
//!   [--fixed var=value] [--merge] [--wal] [--sync always|group|off]
//!   files…` — import runs; with `--wal` every statement is written to a
//!   write-ahead log (`file.wal`) before it is applied, so a crash in the
//!   middle of an import loses at most the unsynced tail
//! * `checkpoint --db file` — replay any leftover write-ahead log into the
//!   database, rewrite the SQL dump atomically and compact the log
//! * `query --db file --spec query.xml [--user U] [--parallel] [--nodes N]
//!   [--replicas R] [--latency none|lan|fast] [--no-pushdown] [--timings]`
//!   — without `--parallel`, `--nodes N` shards the run data across an
//!   N-node simulated cluster and pushes aggregations to the data
//!   (transfer statistics are printed after the outputs); `--replicas R`
//!   additionally keeps R replica copies of each shard, serves reads from
//!   fresh replicas round-robin, and prints a `== replication ==` report
//! * `info --db file` / `ls --db file [--param name=value] [--since/--until]`
//! * `missing --db file param…` — sweep-hole detection
//! * `delete --db file --run N --user U`
//! * `show --db file --run N` — display a run's variable contents (§3.4)
//! * `check --kind experiment|input|query file` — validate a control file
//! * `dump --db file` — print the SQL dump
//! * `suspect --db file --value V --group p1,p2` — anomaly screening (§6)
//! * `stats [--db file] [--reset] [--export-experiment --out dir]` — print
//!   the process-wide engine telemetry; with `--db`, also one line per
//!   table (`table rows bytes dict_ents dict_bytes`); with
//!   `--export-experiment`, write the
//!   metrics as a perfbase experiment (definition + input description +
//!   run file) so they can be imported and queried through perfbase itself
//! * `serve --db file [--addr A] [--threads N] [--max-sessions N]
//!   [--queue N] [--session-ttl SECS] [--wal --sync P]` — serve the
//!   database over HTTP for concurrent analysts (see `docs/HTTP_API.md`);
//!   prints `listening on ADDR` immediately and blocks until a client
//!   posts `/shutdown`, then saves (or checkpoints) the database;
//!   `--session-ttl` expires idle sessions (rolling back their open
//!   transactions)
//! * `sql --db file 'SQL…'` — run one SELECT and print it as TSV,
//!   byte-identical to the server's `/query` response body; or run a
//!   `;`-separated script atomically inside one write transaction
//!   (`BEGIN`/`COMMIT`/`ROLLBACK` honored, SELECTs see the
//!   transaction's own writes); the script is parsed whole before any of
//!   it runs, and a statement that does not parse is reported with what
//!   was expected, the token found instead and its line and column in the
//!   script as passed: `SQL parse error: expected ')', found 'FROM'
//!   (line 2, column 7)`
//!
//! `query` additionally accepts `--trace file`, writing the span tree of
//! the query's execution (DAG elements, SQL statements, cluster traffic)
//! to `file`. Because telemetry is per-process, `input` and `query` also
//! accept `--stats-export dir`, running the `--export-experiment` export
//! after the work completes — the way to capture a real workload's
//! metrics from the command line.
//!
//! Every command returns its textual output, making the frontend fully
//! testable without process spawning.

pub mod args;
mod serve;
mod stats;

use args::{Args, OptSpec};
use perfbase_core::experiment::{AccessLevel, ExperimentDb};
use perfbase_core::import::{Importer, MissingPolicy};
use perfbase_core::input::input_description_from_str;
use perfbase_core::query::spec::query_from_str;
use perfbase_core::query::QueryRunner;
use perfbase_core::status::{self, RunCriteria};
use perfbase_core::xmldef;
use sqldb::cluster::{Cluster, LatencyModel};
use sqldb::{Engine, IoFailpoint, RecoveryReport, ReplOptions, SyncPolicy, WalOptions};
use std::path::Path;
use std::sync::Arc;

/// Run one CLI invocation; `argv` excludes the program name.
pub fn run(argv: Vec<String>) -> Result<String, String> {
    let mut it = argv.into_iter();
    let command = it.next().ok_or_else(usage)?;
    let rest: Vec<String> = it.collect();
    match command.as_str() {
        "setup" => cmd_setup(rest),
        "update" => cmd_update(rest),
        "input" => cmd_input(rest),
        "checkpoint" => cmd_checkpoint(rest),
        "query" => cmd_query(rest),
        "info" => cmd_info(rest),
        "ls" => cmd_ls(rest),
        "missing" => cmd_missing(rest),
        "delete" => cmd_delete(rest),
        "check" => cmd_check(rest),
        "dump" => cmd_dump(rest),
        "show" => cmd_show(rest),
        "suspect" => cmd_suspect(rest),
        "stats" => stats::cmd_stats(rest),
        "serve" => serve::cmd_serve(rest),
        "sql" => serve::cmd_sql(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: perfbase <setup|update|input|checkpoint|query|info|ls|show|missing|delete|check|dump|suspect|stats|serve|sql> [options]\n\
     run `perfbase help` for details"
        .to_string()
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn open_db(path: &str) -> Result<ExperimentDb, String> {
    let engine = Engine::load_from_file(Path::new(path)).map_err(err)?;
    ExperimentDb::open(Arc::new(engine)).map_err(err)
}

fn save_db(db: &ExperimentDb, path: &str) -> Result<(), String> {
    db.engine().save_to_file(Path::new(path)).map_err(err)
}

/// Build [`WalOptions`] from `--sync` and the fault-injection flag
/// `--crash-after-frames` (used by the crash-recovery recipes to simulate
/// a process kill mid-import).
fn wal_options(a: &Args) -> Result<WalOptions, String> {
    let sync = match a.get("sync").unwrap_or("group") {
        "always" => SyncPolicy::Always,
        "group" => SyncPolicy::group_default(),
        "off" => SyncPolicy::Off,
        other => {
            return Err(format!(
                "bad --sync '{other}' (expected always, group or off)"
            ))
        }
    };
    let failpoint = match a.get("crash-after-frames") {
        Some(n) => {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad --crash-after-frames '{n}'"))?;
            Arc::new(IoFailpoint::crash_after_frames(n))
        }
        None => Arc::new(IoFailpoint::none()),
    };
    Ok(WalOptions { sync, failpoint })
}

/// Open a database with its write-ahead log attached, replaying any frames
/// a previous crash left behind.
fn open_db_durable(path: &str, opts: WalOptions) -> Result<(ExperimentDb, RecoveryReport), String> {
    ExperimentDb::open_durable(Path::new(path), opts).map_err(err)
}

/// One-line human summary of a recovery, or `None` if the log was clean.
fn recovery_summary(report: &RecoveryReport) -> Option<String> {
    if report.frames_replayed == 0
        && report.frames_skipped == 0
        && report.torn_bytes == 0
        && report.replay_errors == 0
        && report.txn_frames_discarded == 0
    {
        return None;
    }
    let mut out = format!(
        "recovered {} frame(s) from write-ahead log ({} torn byte(s) truncated, {} replay error(s))",
        report.frames_replayed, report.torn_bytes, report.replay_errors
    );
    if report.frames_skipped > 0 {
        out.push_str(&format!(
            "; {} already-checkpointed frame(s) skipped",
            report.frames_skipped
        ));
    }
    if report.txn_frames_discarded > 0 {
        out.push_str(&format!(
            "; {} uncommitted transaction frame(s) discarded",
            report.txn_frames_discarded
        ));
    }
    Some(out)
}

const COMMON: &[OptSpec] = &[
    OptSpec {
        name: "db",
        takes_value: true,
    },
    OptSpec {
        name: "user",
        takes_value: true,
    },
];

fn with(extra: &[OptSpec]) -> Vec<OptSpec> {
    COMMON.iter().chain(extra).copied().collect()
}

fn user_of(a: &Args) -> String {
    a.get("user")
        .map(str::to_string)
        .unwrap_or_else(|| "anonymous".to_string())
}

fn cmd_setup(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[OptSpec {
            name: "def",
            takes_value: true,
        }]),
    )
    .map_err(err)?;
    let def_path = a.require("def").map_err(err)?;
    let db_path = a.require("db").map_err(err)?;
    let xml = std::fs::read_to_string(def_path).map_err(err)?;
    let mut def = xmldef::definition_from_str(&xml).map_err(err)?;
    if let Some(user) = a.get("user") {
        def.grant(user, AccessLevel::Admin);
    }
    let name = def.meta.name.clone();
    let vars = def.variables.len();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).map_err(err)?;
    save_db(&db, db_path)?;
    Ok(format!(
        "created experiment '{name}' with {vars} variables in {db_path}"
    ))
}

fn cmd_update(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[OptSpec {
            name: "def",
            takes_value: true,
        }]),
    )
    .map_err(err)?;
    let db_path = a.require("db").map_err(err)?;
    let xml = std::fs::read_to_string(a.require("def").map_err(err)?).map_err(err)?;
    let new_def = xmldef::definition_from_str(&xml).map_err(err)?;
    let db = open_db(db_path)?;
    db.check_access(&user_of(&a), AccessLevel::Admin)
        .map_err(err)?;
    let mut added = 0;
    let mut removed = 0;
    db.update_definition(|def| {
        // Evolution: adopt meta/users from the new definition; add new
        // variables, drop vanished ones, replace changed ones.
        def.meta = new_def.meta.clone();
        def.users = new_def.users.clone();
        let old_names: Vec<String> = def.variables.iter().map(|v| v.name.clone()).collect();
        for name in &old_names {
            if new_def.variable(name).is_none() {
                def.remove_variable(name)?;
                removed += 1;
            }
        }
        for v in &new_def.variables {
            if def.variable(&v.name).is_some() {
                def.modify_variable(v.clone())?;
            } else {
                def.add_variable(v.clone())?;
                added += 1;
            }
        }
        Ok(())
    })
    .map_err(err)?;
    save_db(&db, db_path)?;
    Ok(format!(
        "updated definition: {added} variable(s) added, {removed} removed"
    ))
}

fn cmd_input(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[
            OptSpec {
                name: "desc",
                takes_value: true,
            },
            OptSpec {
                name: "policy",
                takes_value: true,
            },
            OptSpec {
                name: "fixed",
                takes_value: true,
            },
            OptSpec {
                name: "at",
                takes_value: true,
            },
            OptSpec {
                name: "force",
                takes_value: false,
            },
            OptSpec {
                name: "merge",
                takes_value: false,
            },
            OptSpec {
                name: "wal",
                takes_value: false,
            },
            OptSpec {
                name: "sync",
                takes_value: true,
            },
            OptSpec {
                name: "crash-after-frames",
                takes_value: true,
            },
            OptSpec {
                name: "stats-export",
                takes_value: true,
            },
        ]),
    )
    .map_err(err)?;
    let db_path = a.require("db").map_err(err)?;
    let (db, recovery) = if a.flag("wal") {
        let (db, report) = open_db_durable(db_path, wal_options(&a)?)?;
        (db, Some(report))
    } else {
        (open_db(db_path)?, None)
    };
    db.check_access(&user_of(&a), AccessLevel::Input)
        .map_err(err)?;

    let policy = match a.get("policy").unwrap_or("allow") {
        "allow" => MissingPolicy::AllowMissing,
        "discard" => MissingPolicy::DiscardIncomplete,
        "fail" => MissingPolicy::FailIncomplete,
        other => return Err(format!("unknown policy '{other}' (allow|discard|fail)")),
    };
    let now = match a.get("at") {
        Some(t) => sqldb::parse_timestamp(t).ok_or_else(|| format!("bad --at time '{t}'"))?,
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs() as i64)
            .unwrap_or(0),
    };
    let importer = Importer::new(&db)
        .with_policy(policy)
        .force_duplicates(a.flag("force"))
        .at_time(now);

    let descs = a.get_all("desc");
    if descs.is_empty() {
        return Err("missing required option --desc".to_string());
    }
    let files = a.positionals();
    if files.is_empty() {
        return Err("no input files given".to_string());
    }

    let load_desc = |path: &str| -> Result<perfbase_core::input::InputDescription, String> {
        let xml = std::fs::read_to_string(path).map_err(err)?;
        let mut desc = input_description_from_str(&xml).map_err(err)?;
        for fv in a.get_all("fixed") {
            let (var, content) = fv
                .split_once('=')
                .ok_or_else(|| format!("--fixed expects var=value, got '{fv}'"))?;
            desc.set_fixed_value(var, content);
        }
        Ok(desc)
    };

    let report = if a.flag("merge") {
        // Mapping d: one description per file, one merged run.
        if descs.len() != files.len() {
            return Err(format!(
                "--merge needs one --desc per file ({} descs, {} files)",
                descs.len(),
                files.len()
            ));
        }
        let parsed: Result<Vec<_>, String> = descs.iter().map(|d| load_desc(d)).collect();
        let parsed = parsed?;
        let contents: Result<Vec<String>, String> = files
            .iter()
            .map(|f| std::fs::read_to_string(f).map_err(err))
            .collect();
        let contents = contents?;
        let sources: Vec<(&perfbase_core::input::InputDescription, &str, &str)> = parsed
            .iter()
            .zip(files)
            .zip(&contents)
            .map(|((d, f), c)| (d, f.as_str(), c.as_str()))
            .collect();
        importer.import_merged(&sources).map_err(err)?
    } else {
        if descs.len() != 1 {
            return Err("exactly one --desc expected without --merge".to_string());
        }
        let desc = load_desc(&descs[0])?;
        let contents: Result<Vec<String>, String> = files
            .iter()
            .map(|f| std::fs::read_to_string(f).map_err(err))
            .collect();
        let contents = contents?;
        let pairs: Vec<(&str, &str)> = files
            .iter()
            .zip(&contents)
            .map(|(f, c)| (f.as_str(), c.as_str()))
            .collect();
        importer.import_files(&desc, &pairs).map_err(err)?
    };

    if db.engine().has_wal() {
        // The log already holds every statement durably; fold it into the
        // dump and compact so the next open starts from a clean checkpoint.
        db.checkpoint(Path::new(db_path)).map_err(err)?;
    } else {
        save_db(&db, db_path)?;
    }
    let mut out = String::new();
    if let Some(line) = recovery.as_ref().and_then(recovery_summary) {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!(
        "imported {} run(s), discarded {}, skipped {} duplicate file(s)",
        report.runs_created.len(),
        report.runs_discarded,
        report.duplicates_skipped
    ));
    if let Some(dir) = a.get("stats-export") {
        out.push('\n');
        out.push_str(&stats::export_experiment(Path::new(dir), &user_of(&a))?);
    }
    Ok(out)
}

fn cmd_checkpoint(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[OptSpec {
            name: "sync",
            takes_value: true,
        }]),
    )
    .map_err(err)?;
    let db_path = a.require("db").map_err(err)?;
    let (db, report) = open_db_durable(db_path, wal_options(&a)?)?;
    let frames = db.checkpoint(Path::new(db_path)).map_err(err)?;
    let mut out = String::new();
    if let Some(line) = recovery_summary(&report) {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!(
        "checkpointed {db_path}: {frames} log frame(s) compacted"
    ));
    Ok(out)
}

/// Parse a `--latency` option value into a [`LatencyModel`].
fn latency_model(a: &Args, default: LatencyModel) -> Result<LatencyModel, String> {
    match a.get("latency") {
        None => Ok(default),
        Some("none") => Ok(LatencyModel::none()),
        Some("lan") => Ok(LatencyModel::lan()),
        Some("fast") => Ok(LatencyModel::fast_interconnect()),
        Some(other) => Err(format!(
            "bad --latency '{other}' (expected none, lan or fast)"
        )),
    }
}

fn cmd_query(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[
            OptSpec {
                name: "spec",
                takes_value: true,
            },
            OptSpec {
                name: "nodes",
                takes_value: true,
            },
            OptSpec {
                name: "latency",
                takes_value: true,
            },
            OptSpec {
                name: "replicas",
                takes_value: true,
            },
            OptSpec {
                name: "parallel",
                takes_value: false,
            },
            OptSpec {
                name: "no-pushdown",
                takes_value: false,
            },
            OptSpec {
                name: "timings",
                takes_value: false,
            },
            OptSpec {
                name: "trace",
                takes_value: true,
            },
            OptSpec {
                name: "stats-export",
                takes_value: true,
            },
        ]),
    )
    .map_err(err)?;
    let db = open_db(a.require("db").map_err(err)?)?;
    db.check_access(&user_of(&a), AccessLevel::Query)
        .map_err(err)?;
    let xml = std::fs::read_to_string(a.require("spec").map_err(err)?).map_err(err)?;
    let spec = query_from_str(&xml).map_err(err)?;
    let nodes = a
        .get("nodes")
        .map(|n| n.parse::<usize>().map_err(|_| "bad --nodes".to_string()))
        .transpose()?
        .map(|n| n.max(1));

    let run_query = || -> Result<_, String> { run_query_outcome(&a, &db, spec, nodes) };
    let (outcome, replication) = if let Some(path) = a.get("trace") {
        // Collect the span tree for this query only: attach the sink,
        // run, detach before any error propagates.
        let collector = obs::TraceCollector::new();
        obs::set_sink(Some(collector.clone()));
        let result = run_query();
        obs::set_sink(None);
        std::fs::write(path, collector.render()).map_err(err)?;
        result?
    } else {
        run_query()?
    };

    let mut ids: Vec<&String> = outcome.artifacts.keys().collect();
    ids.sort();
    let mut out = String::new();
    for id in ids {
        out.push_str(&format!("== output element '{id}' ==\n"));
        out.push_str(&outcome.artifacts[id]);
        out.push('\n');
    }
    if let Some(t) = &outcome.transfer {
        out.push_str(&format!(
            "== transfer ==\n{} message(s), {} row(s) moved, {:?} simulated latency\n",
            t.messages, t.rows, t.simulated
        ));
    }
    if let Some(rep) = &replication {
        out.push_str(rep);
    }
    if a.flag("timings") {
        out.push_str("== element timings ==\n");
        for t in &outcome.timings {
            out.push_str(&format!("{:<10} {:<8} {:?}\n", t.id, t.kind, t.wall));
        }
        out.push_str(&format!(
            "source fraction: {:.1}%\n",
            outcome.source_time_fraction() * 100.0
        ));
    }
    if let Some(dir) = a.get("stats-export") {
        out.push_str(&stats::export_experiment(Path::new(dir), &user_of(&a))?);
    }
    Ok(out)
}

/// Execute a parsed query spec with the runner settings the `query`
/// command's flags select: `--parallel` puts each wave's elements on
/// threads and, with `--nodes`, places them round-robin over worker nodes
/// (the experiment data stays on the frontend); `--nodes` alone shards the
/// run data across the cluster and pushes decomposable aggregations to the
/// owning nodes.
fn run_query_outcome(
    a: &Args,
    db: &ExperimentDb,
    spec: perfbase_core::query::spec::QuerySpec,
    nodes: Option<usize>,
) -> Result<(perfbase_core::query::QueryOutcome, Option<String>), String> {
    let parallel = a.flag("parallel");
    let (placement_nodes, shard_nodes) = if parallel {
        (nodes, None)
    } else {
        (None, nodes)
    };
    let placement = match placement_nodes {
        Some(n) => Some(Cluster::new(
            n,
            latency_model(a, LatencyModel::fast_interconnect())?,
        )),
        None => None,
    };
    if let Some(n) = shard_nodes {
        let replicas = a
            .get("replicas")
            .map(|r| r.parse::<usize>().map_err(|_| "bad --replicas".to_string()))
            .transpose()?
            .unwrap_or(0);
        let latency = latency_model(a, LatencyModel::lan())?;
        let cluster = Arc::new(Cluster::with_frontend(db.engine().clone(), n, latency));
        db.attach_cluster_replicated(
            cluster,
            ReplOptions {
                replicas,
                ..ReplOptions::default()
            },
        )
        .map_err(err)?;
    }

    let mut runner = QueryRunner::new(db)
        .pushdown(!a.flag("no-pushdown"))
        .parallel(parallel);
    if let Some(cluster) = &placement {
        runner = runner.on_cluster(cluster);
    }
    let outcome = runner.run(spec).map_err(err)?;

    // The replication report must be read before detach drops the
    // replicator with the sharding context.
    let replication = db
        .sharding()
        .and_then(|sh| sh.replicator().map(|r| r.report()))
        .map(|rep| {
            format!(
                "== replication ==\n\
                 {} frame(s) shipped, {} applied, {} replica read(s), \
                 {} primary read(s), {} stale fallback(s), {} failover(s)\n",
                rep.frames_shipped,
                rep.frames_applied,
                rep.replica_reads,
                rep.primary_reads,
                rep.stale_fallbacks,
                rep.failovers
            )
        });
    if shard_nodes.is_some() {
        db.detach_cluster().map_err(err)?;
    }
    Ok((outcome, replication))
}

fn cmd_info(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(argv, &with(&[])).map_err(err)?;
    let db = open_db(a.require("db").map_err(err)?)?;
    status::experiment_info(&db).map_err(err)
}

fn cmd_ls(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[
            OptSpec {
                name: "param",
                takes_value: true,
            },
            OptSpec {
                name: "since",
                takes_value: true,
            },
            OptSpec {
                name: "until",
                takes_value: true,
            },
        ]),
    )
    .map_err(err)?;
    let db = open_db(a.require("db").map_err(err)?)?;
    let mut criteria = RunCriteria::default();
    for p in a.get_all("param") {
        let (name, value) = p
            .split_once('=')
            .ok_or_else(|| format!("--param expects name=value, got '{p}'"))?;
        criteria
            .parameter_equals
            .push((name.to_string(), value.to_string()));
    }
    if let Some(s) = a.get("since") {
        criteria.since = sqldb::parse_timestamp(s);
    }
    if let Some(u) = a.get("until") {
        criteria.until = sqldb::parse_timestamp(u);
    }
    let runs = status::list_runs(&db, &criteria).map_err(err)?;
    let mut out = format!("{} run(s)\n", runs.len());
    for r in runs {
        let params: Vec<String> = r
            .once_values
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        out.push_str(&format!(
            "run {:>4}  imported {}  datasets {:>5}  {}\n",
            r.run_id,
            sqldb::format_timestamp(r.created),
            r.datasets,
            params.join(" ")
        ));
    }
    Ok(out)
}

fn cmd_missing(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(argv, &with(&[])).map_err(err)?;
    let db = open_db(a.require("db").map_err(err)?)?;
    let params: Vec<&str> = a.positionals().iter().map(String::as_str).collect();
    if params.is_empty() {
        return Err("missing: name the sweep parameters, e.g. `missing --db f fs nodes`".into());
    }
    let holes = status::missing_sweep_points(&db, &params).map_err(err)?;
    if holes.is_empty() {
        return Ok("no holes: every observed parameter combination has runs\n".to_string());
    }
    let mut out = format!("{} missing combination(s):\n", holes.len());
    for h in holes {
        let combo: Vec<String> = h
            .combination
            .iter()
            .map(|(p, v)| format!("{p}={v}"))
            .collect();
        out.push_str(&format!("  {}\n", combo.join(" ")));
    }
    Ok(out)
}

fn cmd_delete(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[OptSpec {
            name: "run",
            takes_value: true,
        }]),
    )
    .map_err(err)?;
    let db_path = a.require("db").map_err(err)?;
    let db = open_db(db_path)?;
    db.check_access(&user_of(&a), AccessLevel::Admin)
        .map_err(err)?;
    let run: i64 = a
        .require("run")
        .map_err(err)?
        .parse()
        .map_err(|_| "bad --run id".to_string())?;
    db.delete_run(run).map_err(err)?;
    save_db(&db, db_path)?;
    Ok(format!("deleted run {run}"))
}

fn cmd_check(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &[OptSpec {
            name: "kind",
            takes_value: true,
        }],
    )
    .map_err(err)?;
    let kind = a.require("kind").map_err(err)?;
    let file = a
        .positionals()
        .first()
        .ok_or_else(|| "check: name the control file".to_string())?;
    let xml = std::fs::read_to_string(file).map_err(err)?;
    match kind {
        "experiment" => {
            let def = xmldef::definition_from_str(&xml).map_err(err)?;
            Ok(format!(
                "OK: experiment '{}' with {} variables",
                def.meta.name,
                def.variables.len()
            ))
        }
        "input" => {
            let desc = input_description_from_str(&xml).map_err(err)?;
            Ok(format!(
                "OK: input description with {} locations",
                desc.locations.len()
            ))
        }
        "query" => {
            let spec = query_from_str(&xml).map_err(err)?;
            perfbase_core::query::QueryDag::build(spec.clone()).map_err(err)?;
            Ok(format!(
                "OK: query '{}' with {} elements",
                spec.name,
                spec.elements.len()
            ))
        }
        other => Err(format!("unknown kind '{other}' (experiment|input|query)")),
    }
}

fn cmd_dump(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(argv, &with(&[])).map_err(err)?;
    let db = open_db(a.require("db").map_err(err)?)?;
    Ok(db.engine().dump_sql())
}

/// `perfbase show` — §3.4: "see the actual content of variables for a
/// run": the run constants plus the full data-set table.
fn cmd_show(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[OptSpec {
            name: "run",
            takes_value: true,
        }]),
    )
    .map_err(err)?;
    let db = open_db(a.require("db").map_err(err)?)?;
    db.check_access(&user_of(&a), AccessLevel::Query)
        .map_err(err)?;
    let run: i64 = a
        .require("run")
        .map_err(err)?
        .parse()
        .map_err(|_| "bad --run id".to_string())?;
    let s = db.run_summary(run).map_err(err)?;
    let mut out = format!(
        "run {} (imported {})\n",
        s.run_id,
        sqldb::format_timestamp(s.created)
    );
    for (name, value) in &s.once_values {
        out.push_str(&format!("  {name:<14} = {value}\n"));
    }
    let (cols, rows) = db.run_datasets(run).map_err(err)?;
    out.push_str(&format!("{} data set(s)\n", rows.len()));
    if !rows.is_empty() {
        let mut widths: Vec<usize> = cols.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let header: Vec<String> = cols.clone();
        out.push_str(&format!("  {}\n", fmt_row(&header)));
        for row in &cells {
            out.push_str(&format!("  {}\n", fmt_row(row)));
        }
    }
    Ok(out)
}

/// `perfbase suspect` — the §6 outlook feature: automatically screen one
/// result value for deviating runs and unstable parameter combinations.
fn cmd_suspect(argv: Vec<String>) -> Result<String, String> {
    use perfbase_core::anomaly::{screen_experiment, AnomalyConfig};
    use perfbase_core::query::spec::{Filter, FilterOp, RunFilter, SourceSpec};
    let a = Args::parse(
        argv,
        &with(&[
            OptSpec {
                name: "value",
                takes_value: true,
            },
            OptSpec {
                name: "group",
                takes_value: true,
            },
            OptSpec {
                name: "param",
                takes_value: true,
            },
            OptSpec {
                name: "threshold",
                takes_value: true,
            },
            OptSpec {
                name: "max-rel-stddev",
                takes_value: true,
            },
            OptSpec {
                name: "min-samples",
                takes_value: true,
            },
        ]),
    )
    .map_err(err)?;
    let db = open_db(a.require("db").map_err(err)?)?;
    db.check_access(&user_of(&a), AccessLevel::Query)
        .map_err(err)?;

    let value = a.require("value").map_err(err)?.to_string();
    let carry: Vec<String> = a
        .require("group")
        .map_err(err)?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let mut filters = Vec::new();
    for p in a.get_all("param") {
        let (name, v) = p
            .split_once('=')
            .ok_or_else(|| format!("--param expects name=value, got '{p}'"))?;
        filters.push(Filter {
            parameter: name.to_string(),
            op: FilterOp::Eq,
            value: v.to_string(),
        });
    }
    let mut config = AnomalyConfig::default();
    if let Some(t) = a.get("threshold") {
        config.threshold = t.parse().map_err(|_| "bad --threshold".to_string())?;
    }
    if let Some(t) = a.get("max-rel-stddev") {
        config.max_rel_stddev = t.parse().map_err(|_| "bad --max-rel-stddev".to_string())?;
    }
    if let Some(t) = a.get("min-samples") {
        config.min_samples = t.parse().map_err(|_| "bad --min-samples".to_string())?;
    }

    let source = SourceSpec {
        filters,
        run_filter: RunFilter::default(),
        carry,
        values: vec![value],
    };
    let report = screen_experiment(&db, &source, &config).map_err(err)?;
    Ok(report.render())
}
