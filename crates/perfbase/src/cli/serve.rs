//! `perfbase serve` — put the experiment database on the network — and
//! `perfbase sql` — run one SQL SELECT from the shell.
//!
//! `serve` opens the database (optionally with its write-ahead log), hands
//! the engine to the [`pbserver`] front end, prints a `listening on ADDR`
//! line immediately (scripts parse it to learn the bound port when
//! `--addr` uses port 0), and blocks until a client posts `/shutdown`. On
//! clean shutdown the database is saved (or checkpointed, with `--wal`)
//! before the command returns.
//!
//! `sql` exists so shell scripts can diff server responses against the
//! CLI: both render results through the same `ResultSet::render_tsv`, so
//! a `/query` response body and `perfbase sql` output for the same
//! statement are byte-identical.

use super::args::{Args, OptSpec};
use super::{err, open_db, open_db_durable, recovery_summary, save_db, wal_options, with};
use pbserver::{Server, ServerConfig};
use std::io::Write;
use std::path::Path;

/// `perfbase serve --db FILE [--addr A] [--threads N] [--max-sessions N]
/// [--queue N] [--session-ttl SECS] [--wal] [--sync P]`.
pub fn cmd_serve(argv: Vec<String>) -> Result<String, String> {
    let a = Args::parse(
        argv,
        &with(&[
            OptSpec {
                name: "addr",
                takes_value: true,
            },
            OptSpec {
                name: "threads",
                takes_value: true,
            },
            OptSpec {
                name: "max-sessions",
                takes_value: true,
            },
            OptSpec {
                name: "queue",
                takes_value: true,
            },
            OptSpec {
                name: "session-ttl",
                takes_value: true,
            },
            OptSpec {
                name: "wal",
                takes_value: false,
            },
            OptSpec {
                name: "sync",
                takes_value: true,
            },
        ]),
    )
    .map_err(err)?;
    let db_path = a.require("db").map_err(err)?;
    let mut config = ServerConfig {
        addr: a.get("addr").unwrap_or("127.0.0.1:7381").to_string(),
        ..ServerConfig::default()
    };
    if let Some(t) = a.get("threads") {
        config.threads = t.parse().map_err(|_| format!("bad --threads '{t}'"))?;
    }
    if let Some(m) = a.get("max-sessions") {
        config.max_sessions = m.parse().map_err(|_| format!("bad --max-sessions '{m}'"))?;
    }
    if let Some(q) = a.get("queue") {
        config.queue = q.parse().map_err(|_| format!("bad --queue '{q}'"))?;
    }
    if let Some(t) = a.get("session-ttl") {
        let secs: u64 = t
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or_else(|| format!("bad --session-ttl '{t}' (positive seconds)"))?;
        config.session_ttl = Some(std::time::Duration::from_secs(secs));
    }

    let (db, recovery) = if a.flag("wal") {
        let (db, report) = open_db_durable(db_path, wal_options(&a)?)?;
        (db, Some(report))
    } else {
        (open_db(db_path)?, None)
    };
    let handle = Server::start(db.engine().clone(), config).map_err(err)?;

    // Announce the bound address right away — scripts block on this line.
    let mut stdout = std::io::stdout();
    if let Some(line) = recovery.as_ref().and_then(recovery_summary) {
        let _ = writeln!(stdout, "{line}");
    }
    let _ = writeln!(stdout, "listening on {}", handle.addr());
    let _ = stdout.flush();

    // Park until a client posts /shutdown (or the process is killed).
    handle.join();

    // Clean shutdown: persist everything the served sessions ingested.
    if db.engine().has_wal() {
        db.checkpoint(Path::new(db_path)).map_err(err)?;
    } else {
        save_db(&db, db_path)?;
    }
    Ok(format!("server stopped; {db_path} saved"))
}

/// `perfbase sql --db FILE 'SQL…'` — run one SELECT (or
/// `EXPLAIN [ANALYZE]`) and print it as TSV, the server's wire format; or
/// run a `;`-separated script. A script executes inside one write
/// transaction: writes buffer and publish atomically, SELECTs run at the
/// transaction's view (read-your-own-writes), and explicit
/// `BEGIN`/`COMMIT`/`ROLLBACK` statements control the boundaries (`BEGIN`
/// is a no-op since a transaction is already open; a trailing open
/// transaction commits implicitly — end with `ROLLBACK` to discard). The
/// database file is rewritten only if something committed.
pub fn cmd_sql(argv: Vec<String>) -> Result<String, String> {
    use sqldb::sql::{parse_script, parse_statement, split_script, Stmt};
    let a = Args::parse(argv, &with(&[])).map_err(err)?;
    let db_path = a.require("db").map_err(err)?;
    let db = open_db(db_path)?;
    let stmts = a.positionals();
    if stmts.len() != 1 {
        return Err(
            "sql: exactly one SQL argument expected (a statement or ';'-separated script)"
                .to_string(),
        );
    }
    // Parsed whole before anything runs, so that a syntax error is located
    // in the text the user passed, not in one statement cut out of it.
    parse_script(&stmts[0]).map_err(err)?;
    let script = split_script(&stmts[0]);
    // Single SELECT: the historical fast path, byte-identical to /query.
    if script.len() == 1 {
        if let Ok(Stmt::Select(_) | Stmt::Explain { .. }) = parse_statement(&script[0]) {
            let rs = db.engine().query(&script[0]).map_err(err)?;
            return Ok(rs.render_tsv());
        }
    }
    let engine = db.engine().clone();
    let mut txn = engine.begin_txn();
    let mut committed = false;
    let mut out = String::new();
    for stmt in &script {
        match parse_statement(stmt).map_err(err)? {
            Stmt::Select(_) | Stmt::Explain { .. } => {
                out.push_str(&txn.query(stmt).map_err(err)?.render_tsv());
            }
            Stmt::Begin => {} // the script already runs in a transaction
            Stmt::Commit => {
                txn.commit().map_err(err)?;
                committed = true;
                txn = engine.begin_txn();
            }
            Stmt::Rollback => {
                txn.rollback();
                txn = engine.begin_txn();
            }
            _ => {
                txn.execute(stmt).map_err(err)?;
            }
        }
    }
    if txn.statements_buffered() > 0 {
        txn.commit().map_err(err)?;
        committed = true;
    }
    if committed {
        save_db(&db, db_path)?;
    }
    Ok(out)
}
