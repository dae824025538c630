//! End-to-end tests of the HTTP front end over real sockets: every
//! endpoint, the documented error codes (including 503 under overload),
//! session-pinned repeatable reads, and clean shutdown.

use pbserver::{Server, ServerConfig, ServerHandle};
use sqldb::{Engine, IoFailpoint, SyncPolicy, WalOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Send one request on a fresh connection; return (status, headers, body).
fn call(
    handle: &ServerHandle,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // A request nobody answers fails its test instead of hanging it.
    let patience = std::time::Duration::from_secs(20);
    stream.set_read_timeout(Some(patience)).unwrap();
    let mut req = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    req.push_str(body);
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, resp_body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, head.to_string(), resp_body.to_string())
}

fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim().eq_ignore_ascii_case(name)).then(|| v.trim().to_string())
    })
}

fn serve_sample() -> (Arc<Engine>, ServerHandle) {
    let engine = Arc::new(Engine::new());
    engine
        .execute("CREATE TABLE runs (run_index INTEGER, fs TEXT, bw FLOAT)")
        .unwrap();
    engine
        .execute("INSERT INTO runs VALUES (1, 'ufs', 214.5), (2, 'nfs', 98.1)")
        .unwrap();
    let handle = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    (engine, handle)
}

#[test]
fn health_epoch_query_and_stats_roundtrip() {
    let (engine, handle) = serve_sample();

    let (status, head, body) = call(&handle, "GET", "/health", &[], "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert_eq!(
        header_value(&head, "X-Epoch").unwrap(),
        engine.epoch().to_string()
    );

    let (status, _, body) = call(&handle, "GET", "/epoch", &[], "");
    assert_eq!(status, 200);
    assert_eq!(body.trim(), engine.epoch().to_string());

    let (status, head, body) = call(
        &handle,
        "POST",
        "/query",
        &[],
        "SELECT fs, bw FROM runs ORDER BY fs DESC",
    );
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(body, "fs\tbw\nufs\t214.5\nnfs\t98.1\n");
    assert_eq!(header_value(&head, "X-Rows").unwrap(), "2");
    // The wire body is exactly the engine's own TSV rendering.
    assert_eq!(
        body,
        engine
            .query("SELECT fs, bw FROM runs ORDER BY fs DESC")
            .unwrap()
            .render_tsv()
    );

    let (status, _, body) = call(&handle, "POST", "/query", &[], "EXPLAIN SELECT * FROM runs");
    assert_eq!(status, 200);
    assert!(body.contains("Scan runs"), "explain output: {body}");

    let (status, _, body) = call(
        &handle,
        "POST",
        "/query",
        &[],
        "EXPLAIN ANALYZE SELECT count(*) FROM runs",
    );
    assert_eq!(status, 200);
    assert!(body.contains("Rows returned: 1"), "analyze output: {body}");

    let (status, _, body) = call(&handle, "GET", "/stats", &[], "");
    assert_eq!(status, 200);
    assert!(body.contains("== server =="), "stats output: {body}");
    assert!(body.contains("active_connections"));

    handle.stop();
    handle.join();
}

/// A log is poisoned when an append fails part-way: every write is refused
/// until a checkpoint. `/health` answers 503 naming that state for as long
/// as it lasts, and `ok` again once a checkpoint clears it.
#[test]
fn health_reports_a_poisoned_log_until_a_checkpoint() {
    let dir = std::env::temp_dir().join(format!("pbserver_health_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (dump, log) = (dir.join("exp.sql"), dir.join("exp.sql.wal"));
    // The CREATE and the first INSERT reach the log; the next append fails
    // with half its frame written.
    let opts = WalOptions {
        sync: SyncPolicy::Off,
        failpoint: Arc::new(IoFailpoint::append_error_after(2)),
    };
    let engine = Arc::new(Engine::open_durable(&dump, &log, opts).unwrap().0);
    engine
        .execute("CREATE TABLE runs (run_index INTEGER, fs TEXT)")
        .unwrap();
    engine
        .execute("INSERT INTO runs VALUES (1, 'ufs')")
        .unwrap();
    let handle = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    let ingest = || {
        call(
            &handle,
            "POST",
            "/ingest?table=runs",
            &[],
            "run_index\tfs\n2\tnfs\n",
        )
    };
    assert_eq!(call(&handle, "GET", "/health", &[], "").2, "ok\n");

    let (status, _, body) = ingest();
    assert_eq!(status, 400, "body: {body}");
    let (status, head, body) = call(&handle, "GET", "/health", &[], "");
    assert_eq!(status, 503);
    assert!(body.starts_with("log poisoned:"), "body: {body}");
    assert_eq!(
        header_value(&head, "X-Epoch").unwrap(),
        engine.epoch().to_string()
    );
    assert_eq!(ingest().0, 400, "a poisoned log refuses every write");
    assert_eq!(call(&handle, "GET", "/health", &[], "").0, 503);

    engine.checkpoint(&dump).unwrap();
    assert_eq!(call(&handle, "GET", "/health", &[], "").2, "ok\n");
    let (status, _, body) = ingest();
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(engine.row_count("runs").unwrap(), 2);

    handle.stop();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_is_atomic_and_queryable() {
    let (engine, handle) = serve_sample();

    let (status, head, body) = call(
        &handle,
        "POST",
        "/ingest?table=runs",
        &[],
        "fs\tbw\trun_index\npvfs\t55.5\t3\npvfs\t66.6\t4\n",
    );
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("inserted 2 row(s)"));
    assert_eq!(
        header_value(&head, "X-Epoch").unwrap(),
        engine.epoch().to_string()
    );
    assert_eq!(engine.row_count("runs").unwrap(), 4);

    let (status, _, body) = call(
        &handle,
        "POST",
        "/query",
        &[],
        "SELECT count(*) FROM runs WHERE fs = 'pvfs'",
    );
    assert_eq!(status, 200);
    assert_eq!(body, "count(*)\n2\n");

    handle.stop();
    handle.join();
}

#[test]
fn sessions_give_repeatable_reads() {
    let (engine, handle) = serve_sample();

    let (status, head, body) = call(&handle, "POST", "/session", &[], "");
    assert_eq!(status, 200);
    let id = body.trim().to_string();
    let pinned_epoch = header_value(&head, "X-Epoch").unwrap();

    // A later import must not be visible inside the session.
    engine
        .execute("INSERT INTO runs VALUES (3, 'pvfs', 1.0)")
        .unwrap();
    let sql = "SELECT count(*) FROM runs";
    let (_, head, body) = call(&handle, "POST", "/query", &[("X-Session", &id)], sql);
    assert_eq!(body, "count(*)\n2\n", "session must see the pinned epoch");
    assert_eq!(header_value(&head, "X-Epoch").unwrap(), pinned_epoch);
    let (_, _, live) = call(&handle, "POST", "/query", &[], sql);
    assert_eq!(live, "count(*)\n3\n", "live read sees the import");

    // Listing shows the session; closing removes it.
    let (_, _, listing) = call(&handle, "GET", "/session", &[], "");
    assert!(
        listing.contains(&format!("{id}\t{pinned_epoch}")),
        "{listing}"
    );
    let (status, _, _) = call(&handle, "POST", &format!("/session/close?id={id}"), &[], "");
    assert_eq!(status, 200);
    let (status, _, _) = call(&handle, "POST", "/query", &[("X-Session", &id)], sql);
    assert_eq!(status, 404, "closed session must be gone");

    handle.stop();
    handle.join();
}

#[test]
fn transactions_are_atomic_over_http() {
    let (engine, handle) = serve_sample();
    let epoch_before = engine.epoch();

    let (_, _, body) = call(&handle, "POST", "/session", &[], "");
    let id = body.trim().to_string();
    let sess: &[(&str, &str)] = &[("X-Session", &id)];

    // Multi-request import wrapped in one transaction.
    let (status, _, _) = call(&handle, "POST", "/begin", sess, "");
    assert_eq!(status, 200);
    let (status, _, _) = call(&handle, "POST", "/begin", sess, "");
    assert_eq!(status, 409, "second /begin must be refused");
    let (status, _, body) = call(
        &handle,
        "POST",
        "/ingest?table=runs",
        sess,
        "run_index\tfs\tbw\n3\tpvfs\t55.5\n",
    );
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("buffered 1 row(s)"), "{body}");
    let (status, _, _) = call(
        &handle,
        "POST",
        "/ingest?table=runs",
        sess,
        "run_index\tfs\tbw\n4\tpvfs\t66.6\n",
    );
    assert_eq!(status, 200);

    // Read-your-own-writes inside the session; invisible outside it.
    let sql = "SELECT count(*) FROM runs";
    let (_, _, own) = call(&handle, "POST", "/query", sess, sql);
    assert_eq!(own, "count(*)\n4\n", "txn must see its own ingests");
    let (_, _, live) = call(&handle, "POST", "/query", &[], sql);
    assert_eq!(live, "count(*)\n2\n", "uncommitted rows leaked");
    assert_eq!(engine.epoch(), epoch_before, "buffering must not commit");

    // Commit publishes everything in one epoch tick.
    let (status, head, _) = call(&handle, "POST", "/commit", sess, "");
    assert_eq!(status, 200);
    assert_eq!(engine.epoch(), epoch_before + 1, "exactly one epoch tick");
    assert_eq!(
        header_value(&head, "X-Epoch").unwrap(),
        engine.epoch().to_string()
    );
    let (_, _, live) = call(&handle, "POST", "/query", &[], sql);
    assert_eq!(live, "count(*)\n4\n");
    let (status, _, _) = call(&handle, "POST", "/commit", sess, "");
    assert_eq!(status, 409, "no transaction open after commit");

    // Rollback leaves the catalog untouched.
    let before = engine.dump_sql();
    call(&handle, "POST", "/begin", sess, "");
    call(
        &handle,
        "POST",
        "/ingest?table=runs",
        sess,
        "run_index\tfs\tbw\n9\tzfs\t1.0\n",
    );
    let (status, _, _) = call(&handle, "POST", "/rollback", sess, "");
    assert_eq!(status, 200);
    assert_eq!(engine.dump_sql(), before, "rollback must discard all");

    // Dropping the session rolls an open transaction back too.
    call(&handle, "POST", "/begin", sess, "");
    call(
        &handle,
        "POST",
        "/ingest?table=runs",
        sess,
        "run_index\tfs\tbw\n9\tzfs\t1.0\n",
    );
    let (status, _, _) = call(&handle, "POST", &format!("/session/close?id={id}"), &[], "");
    assert_eq!(status, 200);
    assert_eq!(engine.dump_sql(), before, "session drop must roll back");

    // Transaction endpoints without a session are a client error.
    let (status, _, _) = call(&handle, "POST", "/begin", &[], "");
    assert_eq!(status, 400);

    handle.stop();
    handle.join();
}

#[test]
fn txn_conflict_answers_409_with_zero_effects() {
    let (engine, handle) = serve_sample();
    let (_, _, body) = call(&handle, "POST", "/session", &[], "");
    let id = body.trim().to_string();
    let sess: &[(&str, &str)] = &[("X-Session", &id)];

    call(&handle, "POST", "/begin", sess, "");
    call(
        &handle,
        "POST",
        "/ingest?table=runs",
        sess,
        "run_index\tfs\tbw\n3\tpvfs\t55.5\n",
    );
    // A concurrent autocommit write to the same table wins the race.
    engine
        .execute("INSERT INTO runs VALUES (7, 'zfs', 9.9)")
        .unwrap();
    let (status, _, body) = call(&handle, "POST", "/commit", sess, "");
    assert_eq!(status, 409, "body: {body}");
    assert!(body.contains("conflict"), "{body}");
    let (_, _, live) = call(&handle, "POST", "/query", &[], "SELECT count(*) FROM runs");
    assert_eq!(live, "count(*)\n3\n", "conflicted txn must apply nothing");

    handle.stop();
    handle.join();
}

/// A transaction meets a table published after its BEGIN at the statement
/// that first names it: `/query` and `/ingest` answer 409 there, as `/commit`
/// would have, and leave the transaction open for `/rollback`.
#[test]
fn txn_conflict_is_409_on_the_endpoint_that_detects_it() {
    let (engine, handle) = serve_sample();
    engine.execute("CREATE TABLE notes (body TEXT)").unwrap();
    let (_, _, body) = call(&handle, "POST", "/session", &[], "");
    let id = body.trim().to_string();
    let sess: &[(&str, &str)] = &[("X-Session", &id)];
    let batch = "run_index\tfs\tbw\n3\tpvfs\t55.5\n";

    call(&handle, "POST", "/begin", sess, "");
    // Buffered before the race: the transaction has something to lose.
    let (status, _, _) = call(
        &handle,
        "POST",
        "/ingest?table=notes",
        sess,
        "body\nkept?\n",
    );
    assert_eq!(status, 200);
    engine
        .execute("INSERT INTO runs VALUES (7, 'zfs', 9.9)")
        .unwrap();
    let (status, _, body) = call(&handle, "POST", "/query", sess, "SELECT count(*) FROM runs");
    assert_eq!(status, 409, "body: {body}");
    assert!(body.contains("transaction conflict"), "{body}");
    let (status, _, body) = call(&handle, "POST", "/ingest?table=runs", sess, batch);
    assert_eq!(status, 409, "body: {body}");
    // Other errors are still 400, and a session without a transaction
    // reads its snapshot as before.
    let (status, _, _) = call(&handle, "POST", "/query", sess, "SELECT nope FROM notes");
    assert_eq!(status, 400);
    // The transaction is still open — what it buffered is still there —
    // and the client's way out is /rollback, then the whole of it again.
    let (status, _, body) = call(
        &handle,
        "POST",
        "/query",
        sess,
        "SELECT count(*) FROM notes",
    );
    assert_eq!((status, body.as_str()), (200, "count(*)\n1\n"));
    let (status, _, _) = call(&handle, "POST", "/rollback", sess, "");
    assert_eq!(status, 200);
    call(&handle, "POST", "/begin", sess, "");
    let (status, _, _) = call(&handle, "POST", "/ingest?table=runs", sess, batch);
    assert_eq!(status, 200);
    let (status, _, _) = call(&handle, "POST", "/commit", sess, "");
    assert_eq!(status, 200);
    assert_eq!(engine.row_count("runs").unwrap(), 4);
    assert_eq!(engine.row_count("notes").unwrap(), 0);

    handle.stop();
    handle.join();
}

#[test]
fn bad_ingest_batch_has_zero_effects() {
    // Satellite regression: a batch with one bad row must leave the table,
    // the epoch, and an open transaction's buffer untouched.
    let (engine, handle) = serve_sample();
    let epoch = engine.epoch();
    let (status, _, body) = call(
        &handle,
        "POST",
        "/ingest?table=runs",
        &[],
        "run_index\tfs\tbw\n5\tufs\t1.0\n6\tufs\tnot-a-float\n",
    );
    assert_eq!(status, 400, "body: {body}");
    assert_eq!(engine.row_count("runs").unwrap(), 2, "partial batch landed");
    assert_eq!(engine.epoch(), epoch);

    // Same through an open transaction.
    let (_, _, body) = call(&handle, "POST", "/session", &[], "");
    let id = body.trim().to_string();
    let sess: &[(&str, &str)] = &[("X-Session", &id)];
    call(&handle, "POST", "/begin", sess, "");
    let (status, _, _) = call(
        &handle,
        "POST",
        "/ingest?table=runs",
        sess,
        "run_index\tfs\tbw\n5\tufs\t1.0\n6\tufs\tnot-a-float\n",
    );
    assert_eq!(status, 400);
    let (_, _, own) = call(&handle, "POST", "/query", sess, "SELECT count(*) FROM runs");
    assert_eq!(own, "count(*)\n2\n", "rejected batch left rows in the txn");
    call(&handle, "POST", "/commit", sess, "");
    assert_eq!(engine.row_count("runs").unwrap(), 2);

    handle.stop();
    handle.join();
}

#[test]
fn a_tsv_header_naming_a_column_twice_is_refused() {
    // `/ingest` used to map both fields of `a\ta` onto one column, the last
    // silently winning; `INSERT INTO t (a, a)` is refused. Now the batch is
    // too, on both branches, with nothing inserted, buffered or logged.
    let dir = std::env::temp_dir().join(format!("pbserver_twice_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = WalOptions {
        sync: SyncPolicy::Off,
        failpoint: Arc::new(IoFailpoint::none()),
    };
    let (dump, log) = (dir.join("exp.sql"), dir.join("exp.sql.wal"));
    let engine = Arc::new(Engine::open_durable(&dump, &log, opts).unwrap().0);
    engine
        .execute("CREATE TABLE runs (run_index INTEGER, fs TEXT, bw FLOAT)")
        .unwrap();
    engine
        .execute("INSERT INTO runs VALUES (1, 'ufs', 214.5)")
        .unwrap();
    let handle = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    let (epoch, frames) = (engine.epoch(), engine.wal_frames());

    let (status, _, body) = call(
        &handle,
        "POST",
        "/ingest?table=runs",
        &[],
        "run_index\tfs\trun_index\n5\tnfs\t6\n",
    );
    assert_eq!(status, 400, "body: {body}");
    assert!(
        body.contains("column 'run_index' is named twice"),
        "body: {body}"
    );
    assert_eq!(engine.row_count("runs").unwrap(), 1);
    assert_eq!((engine.epoch(), engine.wal_frames()), (epoch, frames));

    let (_, _, body) = call(&handle, "POST", "/session", &[], "");
    let id = body.trim().to_string();
    let sess: &[(&str, &str)] = &[("X-Session", &id)];
    call(&handle, "POST", "/begin", sess, "");
    let (status, _, body) = call(
        &handle,
        "POST",
        "/ingest?table=runs",
        sess,
        "fs\tbw\t fs\nnfs\t1.0\tpvfs\n",
    );
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("column 'fs' is named twice"), "body: {body}");
    let (_, _, own) = call(&handle, "POST", "/query", sess, "SELECT count(*) FROM runs");
    assert_eq!(own, "count(*)\n1\n", "the refused batch was buffered");
    assert_eq!(call(&handle, "POST", "/commit", sess, "").0, 200);
    assert_eq!(engine.row_count("runs").unwrap(), 1);
    assert_eq!((engine.epoch(), engine.wal_frames()), (epoch, frames));

    handle.stop();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_sessions_expire_and_roll_back() {
    let engine = Arc::new(Engine::new());
    engine.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let handle = Server::start(
        engine.clone(),
        ServerConfig {
            session_ttl: Some(std::time::Duration::from_millis(300)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let before = engine.dump_sql();

    let (_, _, body) = call(&handle, "POST", "/session", &[], "");
    let id = body.trim().to_string();
    let sess: &[(&str, &str)] = &[("X-Session", &id)];
    call(&handle, "POST", "/begin", sess, "");
    call(&handle, "POST", "/ingest?table=t", sess, "a\n1\n");

    // Idle past the TTL: the sweeper expires the session and rolls the
    // transaction back.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        let (status, _, _) = call(&handle, "POST", "/query", sess, "SELECT 1");
        if status == 404 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session never expired"
        );
        // Note: this poll itself touches the session, so only stop
        // touching once we are past the TTL.
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
    assert_eq!(engine.dump_sql(), before, "expired txn must roll back");

    handle.stop();
    handle.join();
}

#[test]
fn error_codes_match_the_documentation() {
    let (_engine, handle) = serve_sample();

    let (status, _, _) = call(&handle, "GET", "/nope", &[], "");
    assert_eq!(status, 404);
    let (status, _, _) = call(&handle, "GET", "/query", &[], "");
    assert_eq!(status, 405);
    let (status, _, body) = call(&handle, "POST", "/query", &[], "SELEC oops");
    assert_eq!(status, 400, "body: {body}");
    let (status, _, _) = call(&handle, "POST", "/query", &[], "");
    assert_eq!(status, 400);
    let (status, _, _) = call(
        &handle,
        "POST",
        "/query",
        &[("X-Session", "999")],
        "SELECT 1",
    );
    assert_eq!(status, 404);
    let (status, _, _) = call(
        &handle,
        "POST",
        "/query",
        &[("X-Session", "zzz")],
        "SELECT 1",
    );
    assert_eq!(status, 400);
    let (status, _, _) = call(&handle, "POST", "/ingest?table=runs", &[], "zzz\n1\n");
    assert_eq!(status, 400);
    let (status, _, _) = call(&handle, "POST", "/ingest", &[], "a\n1\n");
    assert_eq!(status, 400);

    handle.stop();
    handle.join();
}

/// Integer arithmetic that overflows is the statement's error, not a panic,
/// and costs no place at the gate: after `threads + 1` of them the next
/// request is still admitted and answered.
#[test]
fn overflowing_arithmetic_answers_400_and_costs_no_worker() {
    let (_engine, handle) = serve_sample();
    let hostile = [
        "SELECT 9223372036854775807 + 1",
        "SELECT run_index * 9223372036854775807 FROM runs",
        "SELECT (-9223372036854775807 - 1) % (run_index - 2) FROM runs",
        "SELECT -9223372036854775807 - run_index FROM runs",
    ];
    for sql in hostile
        .iter()
        .cycle()
        .take(ServerConfig::default().threads + 1)
    {
        let (status, _, body) = call(&handle, "POST", "/query", &[], sql);
        assert_eq!(status, 400, "{sql}: {body}");
        assert!(body.contains("integer overflow in "), "{sql}: {body}");
    }
    let (status, _, body) = call(&handle, "POST", "/query", &[], "SELECT count(*) FROM runs");
    assert_eq!((status, body.as_str()), (200, "count(*)\n2\n"));

    handle.stop();
    handle.join();
}

/// A request with more header lines than the server keeps is refused with
/// 400, and the server goes on answering.
#[test]
fn more_than_100_header_lines_answer_400() {
    let (_engine, handle) = serve_sample();
    // The status answering a GET /health with `n` header lines. The server
    // may close with part of the request unread, so a reset after the
    // answer is no error here.
    let status_with = |n: usize| -> u16 {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let patience = std::time::Duration::from_secs(20);
        stream.set_read_timeout(Some(patience)).unwrap();
        let mut req = String::from("GET /health HTTP/1.1\r\nConnection: close\r\n");
        for i in 1..n {
            req.push_str(&format!("X-Filler-{i}: x\r\n"));
        }
        req.push_str("\r\n");
        stream.write_all(req.as_bytes()).unwrap();
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let raw = String::from_utf8_lossy(&raw);
        let status = raw.split_whitespace().nth(1).expect("a status line");
        status.parse().unwrap()
    };
    assert_eq!(status_with(100), 200);
    assert_eq!(status_with(101), 400);
    assert_eq!(status_with(1000), 400);
    let (status, _, body) = call(&handle, "POST", "/query", &[], "SELECT count(*) FROM runs");
    assert_eq!((status, body.as_str()), (200, "count(*)\n2\n"));

    handle.stop();
    handle.join();
}

#[test]
fn session_table_overflow_answers_503() {
    let engine = Arc::new(Engine::new());
    engine.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let handle = Server::start(
        engine,
        ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    assert_eq!(call(&handle, "POST", "/session", &[], "").0, 200);
    assert_eq!(call(&handle, "POST", "/session", &[], "").0, 200);
    let (status, head, _) = call(&handle, "POST", "/session", &[], "");
    assert_eq!(status, 503);
    assert_eq!(header_value(&head, "Retry-After").unwrap(), "1");

    handle.stop();
    handle.join();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let (_engine, handle) = serve_sample();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    for i in 0..3 {
        let body = "SELECT count(*) FROM runs";
        let req = format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        // Read exactly one response: headers then Content-Length bytes.
        let mut buf = Vec::new();
        let mut b = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut b).unwrap();
            buf.push(b[0]);
        }
        let head = String::from_utf8_lossy(&buf).to_string();
        assert!(head.starts_with("HTTP/1.1 200"), "request {i}: {head}");
        let len: usize = header_value(&head, "Content-Length")
            .unwrap()
            .parse()
            .unwrap();
        let mut body_buf = vec![0u8; len];
        stream.read_exact(&mut body_buf).unwrap();
        assert_eq!(String::from_utf8_lossy(&body_buf), "count(*)\n2\n");
    }
    drop(stream);
    handle.stop();
    handle.join();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let (_engine, handle) = serve_sample();
    let (status, _, body) = call(&handle, "POST", "/shutdown", &[], "");
    assert_eq!(status, 200);
    assert_eq!(body, "shutting down\n");
    assert!(handle.stopping());
    handle.join();
}
