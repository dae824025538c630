//! `pbserver` — the std-only network front end for concurrent analysts.
//!
//! perfbase was built around one analyst at one terminal; the MVCC work in
//! `sqldb` (snapshot-pinned reads, copy-on-write table versions) makes the
//! engine safe for many. This crate puts a wire on it: a hand-rolled
//! HTTP/1.1 server over [`std::net::TcpListener`] — no external
//! dependencies — exposing ingest, query, `EXPLAIN [ANALYZE]`, session and
//! stats endpoints. The full wire format is documented in
//! `docs/HTTP_API.md`; `perfbase serve` is the CLI entry point.
//!
//! Three layers:
//!
//! * **Connections** ([`http`]) — one lightweight handler thread per
//!   client, capped at `max_sessions` (excess connections get an immediate
//!   503 and are closed). Handlers parse requests and write responses;
//!   they do no engine work.
//! * **Admission** ([`gate`]) — a fixed pool of `threads` workers drains a
//!   bounded queue of parsed statements. A full queue answers 503 at the
//!   door, so overload sheds load instead of accumulating it.
//! * **Sessions** ([`session`]) — `POST /session` pins an MVCC snapshot;
//!   queries carrying `X-Session` run at that frozen epoch (repeatable
//!   reads) while imports keep committing. A session can open an explicit
//!   write transaction (`POST /begin` … `/commit` / `/rollback`): while
//!   it is open, the session's queries and ingests route through the
//!   transaction (read-your-own-writes), and closing or expiring the
//!   session rolls an uncommitted transaction back.
//!
//! Every response carries `X-Epoch`, the commit epoch the request
//! observed, so clients can reason about freshness.

#![warn(missing_docs)]

pub mod gate;
pub mod http;
pub mod session;

use gate::{GatePool, Refused};
use http::{ReadOutcome, Request, Response};
use session::{Session, SessionTable};
use sqldb::{DataType, DbError, Engine, Schema, Value};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a parked keep-alive connection wakes to check the shutdown
/// flag. Doubles as the accept loop's liveness bound after [`ServerHandle::stop`].
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// Server tuning knobs; see `perfbase serve --help` for the CLI mapping.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7381` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads executing statements (the admission pool).
    pub threads: usize,
    /// Cap on concurrent client connections *and* on registered sessions.
    pub max_sessions: usize,
    /// Bounded admission queue: statements waiting for a worker.
    pub queue: usize,
    /// Expire sessions idle longer than this (open transactions roll
    /// back). `None` (the default) disables the sweep.
    pub session_ttl: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_sessions: 64,
            queue: 128,
            session_ttl: None,
        }
    }
}

/// Shared server state: the engine plus everything the endpoints need.
struct Inner {
    engine: Arc<Engine>,
    sessions: SessionTable,
    pool: GatePool,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    max_conns: usize,
    addr: SocketAddr,
}

/// A running server. Obtained from [`Server::start`]; stop it with
/// [`ServerHandle::stop`] + [`ServerHandle::join`] (or let a client
/// `POST /shutdown`).
pub struct ServerHandle {
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    sweep_thread: Option<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `config.addr`, spawn the accept loop and the worker pool, and
    /// return immediately. The engine stays fully usable in-process while
    /// being served.
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            engine,
            sessions: SessionTable::new(config.max_sessions),
            pool: GatePool::new(config.threads, config.queue),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            max_conns: config.max_sessions.max(1),
            addr,
        });
        let accept_inner = inner.clone();
        let accept_thread = std::thread::Builder::new()
            .name("pbserver-accept".to_string())
            .spawn(move || accept_loop(listener, accept_inner))?;
        let sweep_thread = match config.session_ttl {
            Some(ttl) => {
                let sweep_inner = inner.clone();
                Some(
                    std::thread::Builder::new()
                        .name("pbserver-sweep".to_string())
                        .spawn(move || {
                            while !sweep_inner.shutdown.load(Ordering::Acquire) {
                                std::thread::sleep(POLL_INTERVAL.min(ttl));
                                sweep_inner.sessions.sweep_expired(ttl);
                            }
                        })?,
                )
            }
            None => None,
        };
        Ok(ServerHandle {
            inner,
            accept_thread: Some(accept_thread),
            sweep_thread,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Begin shutdown: stop accepting, let in-flight requests finish.
    /// Returns without waiting; call [`ServerHandle::join`] to block until
    /// every connection has drained.
    pub fn stop(&self) {
        self.inner.begin_shutdown();
    }

    /// Has shutdown been requested (by [`ServerHandle::stop`] or a client's
    /// `POST /shutdown`)?
    pub fn stopping(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }

    /// Wait for the accept loop, every connection handler, and the worker
    /// pool to finish. Call after [`ServerHandle::stop`] (or to park until
    /// a client shuts the server down).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.sweep_thread.take() {
            let _ = t.join();
        }
    }
}

impl Inner {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            // Wake the accept loop out of its blocking accept().
            let _ = TcpStream::connect(self.addr);
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Connection cap: shed the connection with a 503 before spawning.
        if inner.active_conns.load(Ordering::Acquire) >= inner.max_conns {
            obs::incr(obs::Counter::HttpRejectedOverload);
            let mut stream = stream;
            let _ = Response::text(503, "connection limit reached, retry later\n")
                .with_header("Retry-After", "1")
                .write(&mut stream, false);
            continue;
        }
        inner.active_conns.fetch_add(1, Ordering::AcqRel);
        obs::set(
            obs::Counter::HttpActiveConns,
            inner.active_conns.load(Ordering::Acquire) as u64,
        );
        let conn_inner = inner.clone();
        if let Ok(h) = std::thread::Builder::new()
            .name("pbserver-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &conn_inner);
                conn_inner.active_conns.fetch_sub(1, Ordering::AcqRel);
                obs::set(
                    obs::Counter::HttpActiveConns,
                    conn_inner.active_conns.load(Ordering::Acquire) as u64,
                );
            })
        {
            handlers.push(h);
        } else {
            inner.active_conns.fetch_sub(1, Ordering::AcqRel);
        }
        // Opportunistically reap finished handlers so the vector doesn't
        // grow without bound on long-lived servers.
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: handlers poll the shutdown flag every POLL_INTERVAL and exit.
    for h in handlers {
        let _ = h.join();
    }
    inner.pool.shutdown();
}

fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader) {
            ReadOutcome::TimedOut => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::Bad(msg) => {
                let _ =
                    Response::text(400, format!("bad request: {msg}\n")).write(&mut writer, false);
                return;
            }
            ReadOutcome::Request(req) => {
                obs::incr(obs::Counter::HttpRequests);
                let keep = req.keep_alive() && !is_shutdown_request(&req);
                let response = route(inner, req);
                if response.write(&mut writer, keep).is_err() || !keep {
                    return;
                }
            }
        }
    }
}

fn is_shutdown_request(req: &Request) -> bool {
    req.path == "/shutdown"
}

/// Dispatch one request. Cheap endpoints run inline on the connection
/// thread; engine work goes through the admission pool.
fn route(inner: &Arc<Inner>, req: Request) -> Response {
    let started = Instant::now();
    let epoch = inner.engine.epoch();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => timed(obs::Hist::HttpOtherNs, started, {
            let health = match inner.engine.wal_poisoned() {
                false => Response::ok("ok\n"),
                true => Response::text(
                    503,
                    "log poisoned: an append failed part-way; writes are refused until a \
                     checkpoint\n",
                ),
            };
            health.with_header("X-Epoch", epoch.to_string())
        }),
        ("GET", "/epoch") => timed(obs::Hist::HttpOtherNs, started, {
            Response::ok(format!("{epoch}\n")).with_header("X-Epoch", epoch.to_string())
        }),
        ("POST", "/session") => timed(obs::Hist::HttpOtherNs, started, open_session(inner)),
        ("GET", "/session") => timed(obs::Hist::HttpOtherNs, started, list_sessions(inner)),
        ("POST", "/session/close") | ("DELETE", "/session") => {
            timed(obs::Hist::HttpOtherNs, started, close_session(inner, &req))
        }
        ("POST", "/shutdown") => timed(obs::Hist::HttpOtherNs, started, {
            inner.begin_shutdown();
            Response::ok("shutting down\n")
        }),
        ("POST", "/begin") => pooled(inner, req, started, obs::Hist::HttpOtherNs, run_begin),
        ("POST", "/commit") => pooled(inner, req, started, obs::Hist::HttpOtherNs, run_commit),
        ("POST", "/rollback") => pooled(inner, req, started, obs::Hist::HttpOtherNs, run_rollback),
        ("POST", "/query") => pooled(inner, req, started, obs::Hist::HttpQueryNs, run_query),
        ("POST", "/ingest") => pooled(inner, req, started, obs::Hist::HttpIngestNs, run_ingest),
        ("GET", "/stats") => pooled(inner, req, started, obs::Hist::HttpStatsNs, run_stats),
        ("GET", "/query") | ("GET", "/ingest") => Response::text(405, "use POST\n"),
        _ => Response::text(
            404,
            format!("no such endpoint: {} {}\n", req.method, req.path),
        ),
    }
}

fn timed(h: obs::Hist, started: Instant, r: Response) -> Response {
    obs::record_duration(h, started.elapsed());
    r
}

/// Run `f(inner, req)` on the admission pool and wait for its response.
/// The recorded latency includes the queue wait — that's the number an
/// analyst experiences.
fn pooled(
    inner: &Arc<Inner>,
    req: Request,
    started: Instant,
    hist: obs::Hist,
    f: fn(&Inner, &Request) -> Response,
) -> Response {
    let (tx, rx) = mpsc::channel();
    let job_inner = inner.clone();
    let submitted = inner.pool.submit(Box::new(move || {
        let _ = tx.send(f(&job_inner, &req));
    }));
    match submitted {
        Ok(()) => {
            // Accepted jobs always run (the pool drains on shutdown), so
            // this recv only fails if the job panicked: a defect in this
            // program, not load — 500, and the worker lives on.
            let r = rx
                .recv()
                .unwrap_or_else(|_| Response::text(500, "internal error: the request panicked\n"));
            obs::record_duration(hist, started.elapsed());
            r
        }
        Err(refused) => {
            obs::incr(obs::Counter::HttpRejectedOverload);
            let msg = match refused {
                Refused::QueueFull => "admission queue full, retry later\n",
                Refused::ShuttingDown => "server is shutting down\n",
            };
            Response::text(503, msg).with_header("Retry-After", "1")
        }
    }
}

// ---- endpoint bodies (run on pool workers) -------------------------------

/// `POST /query` — body is one SELECT or `EXPLAIN [ANALYZE] SELECT`.
/// With `X-Session: <id>` the statement runs at that session's pinned
/// snapshot — or, when the session has an open transaction, at the
/// transaction's view (read-your-own-writes). Otherwise it reads the
/// latest committed state.
fn run_query(inner: &Inner, req: &Request) -> Response {
    let sql = match req.body_utf8() {
        Ok(s) => s.trim(),
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    if sql.is_empty() {
        return Response::text(400, "empty query body\n");
    }
    let session = match session_of(inner, req) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let (result, epoch) = match &session {
        Some(sess) => {
            let mut txn = sess.txn();
            match txn.as_mut() {
                Some(t) => (t.query(sql), t.base_epoch()),
                None => {
                    drop(txn);
                    let snap = sess.snapshot();
                    (inner.engine.query_at(&snap, sql), snap.epoch())
                }
            }
        }
        None => (inner.engine.query(sql), inner.engine.epoch()),
    };
    match result {
        Ok(rs) => Response::ok(rs.render_tsv())
            .with_header("X-Epoch", epoch.to_string())
            .with_header("X-Rows", rs.len().to_string()),
        Err(e) => statement_error("query", &e),
    }
}

/// The answer to a statement the engine refused: 400, except that a
/// [`DbError::TxnConflict`] is 409 on whichever endpoint detects it — a
/// transaction meets a table published after its BEGIN at the statement
/// that first names it, not only at `/commit`. The transaction stays open:
/// the client rolls back and retries the whole of it, as after a failed
/// `/commit`.
fn statement_error(what: &str, e: &DbError) -> Response {
    let status = match e {
        DbError::TxnConflict(_) => 409,
        _ => 400,
    };
    Response::text(status, format!("{what} error: {e}\n"))
}

/// The session named by `X-Session`, `None` without the header.
fn session_of(inner: &Inner, req: &Request) -> Result<Option<Arc<Session>>, Response> {
    let Some(raw) = req.header("x-session") else {
        return Ok(None);
    };
    let id: u64 = raw
        .trim()
        .parse()
        .map_err(|_| Response::text(400, format!("bad X-Session id {raw:?}\n")))?;
    match inner.sessions.session(id) {
        Some(sess) => Ok(Some(sess)),
        None => Err(Response::text(404, format!("no such session {id}\n"))),
    }
}

/// Like [`session_of`], but the header is mandatory (the transaction
/// endpoints are meaningless without a session to hold the state).
fn required_session(inner: &Inner, req: &Request) -> Result<Arc<Session>, Response> {
    match session_of(inner, req)? {
        Some(sess) => Ok(sess),
        None => Err(Response::text(
            400,
            "transaction endpoints need an X-Session header (POST /session first)\n",
        )),
    }
}

/// `POST /begin` — open a write transaction on the request's session.
/// One per session: a second `/begin` answers 409.
fn run_begin(inner: &Inner, req: &Request) -> Response {
    let sess = match required_session(inner, req) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let mut txn = sess.txn();
    if txn.is_some() {
        return Response::text(409, "transaction already open on this session\n");
    }
    let t = inner.engine.begin_txn();
    let epoch = t.base_epoch();
    *txn = Some(t);
    Response::ok("begun\n").with_header("X-Epoch", epoch.to_string())
}

/// `POST /commit` — atomically publish the session's open transaction.
/// A first-writer-wins conflict answers 409 (zero effects; retry the
/// whole transaction); no open transaction also answers 409.
fn run_commit(inner: &Inner, req: &Request) -> Response {
    let sess = match required_session(inner, req) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let taken = sess.txn().take();
    match taken {
        None => Response::text(409, "no open transaction on this session\n"),
        Some(t) => match t.commit() {
            Ok(()) => {
                Response::ok("committed\n").with_header("X-Epoch", inner.engine.epoch().to_string())
            }
            Err(e @ DbError::TxnConflict(_)) => Response::text(409, format!("{e}\n")),
            Err(e) => Response::text(400, format!("commit error: {e}\n")),
        },
    }
}

/// `POST /rollback` — discard the session's open transaction.
fn run_rollback(inner: &Inner, req: &Request) -> Response {
    let sess = match required_session(inner, req) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let taken = sess.txn().take();
    match taken {
        None => Response::text(409, "no open transaction on this session\n"),
        Some(t) => {
            t.rollback();
            Response::ok("rolled back\n").with_header("X-Epoch", inner.engine.epoch().to_string())
        }
    }
}

/// `POST /ingest?table=T` — body is TSV: a header line naming columns,
/// then one row per line. The whole body is inserted as **one atomic
/// batch** (validated in full before anything is appended or logged): a
/// concurrent snapshot sees all of it or none of it. With an open
/// transaction on the request's session, the batch buffers into the
/// transaction instead of committing — visible to the session's own
/// queries, published only by `/commit`.
fn run_ingest(inner: &Inner, req: &Request) -> Response {
    let Some(table) = req.param("table") else {
        return Response::text(400, "missing ?table= parameter\n");
    };
    let body = match req.body_utf8() {
        Ok(s) => s,
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    let session = match session_of(inner, req) {
        Ok(s) => s,
        Err(r) => return r,
    };
    if let Some(sess) = &session {
        let mut txn = sess.txn();
        if let Some(t) = txn.as_mut() {
            // Schema from the transaction's view: a table created earlier
            // in the transaction is a valid ingest target.
            let schema = match t.table_schema(table) {
                Ok(s) => s,
                Err(e) => return statement_error("ingest", &e),
            };
            let rows = match parse_tsv_rows(&schema, table, body) {
                Ok(rows) => rows,
                Err(e) => return Response::text(400, format!("ingest error: {e}\n")),
            };
            let n = rows.len();
            return match t.insert_rows(table, rows) {
                Ok(_) => Response::ok(format!(
                    "buffered {n} row(s) into {table} (transaction open)\n"
                ))
                .with_header("X-Epoch", t.base_epoch().to_string()),
                Err(e) => statement_error("ingest", &e),
            };
        }
    }
    let schema = match inner.engine.pin_table(table) {
        Ok(t) => t.schema.clone(),
        Err(e) => return statement_error("ingest", &e),
    };
    let rows = match parse_tsv_rows(&schema, table, body) {
        Ok(rows) => rows,
        Err(e) => return Response::text(400, format!("ingest error: {e}\n")),
    };
    let n = rows.len();
    match inner.engine.insert_rows(table, rows) {
        Ok(_) => {
            let epoch = inner.engine.epoch();
            Response::ok(format!("inserted {n} row(s) into {table}\n"))
                .with_header("X-Epoch", epoch.to_string())
        }
        Err(e) => statement_error("ingest", &e),
    }
}

/// `GET /stats` — a server block (connections, queue, sessions) followed
/// by the full process-wide telemetry report.
fn run_stats(inner: &Inner, _req: &Request) -> Response {
    let mut out = String::new();
    out.push_str("== server ==\n");
    out.push_str(&format!(
        "active_connections               {:>12}\n",
        inner.active_conns.load(Ordering::Acquire)
    ));
    out.push_str(&format!(
        "admission_queue_depth            {:>12}\n",
        inner.pool.depth()
    ));
    out.push_str(&format!(
        "sessions                         {:>12}\n",
        inner.sessions.len()
    ));
    out.push_str(&format!(
        "epoch                            {:>12}\n",
        inner.engine.epoch()
    ));
    out.push('\n');
    out.push_str(&obs::render_stats());
    Response::ok(out).with_header("X-Epoch", inner.engine.epoch().to_string())
}

fn open_session(inner: &Inner) -> Response {
    let snap = inner.engine.snapshot();
    let epoch = snap.epoch();
    match inner.sessions.open(snap) {
        Some(id) => Response::ok(format!("{id}\n")).with_header("X-Epoch", epoch.to_string()),
        None => {
            obs::incr(obs::Counter::HttpRejectedOverload);
            Response::text(503, "session table full\n").with_header("Retry-After", "1")
        }
    }
}

fn list_sessions(inner: &Inner) -> Response {
    let mut out = String::from("session\tepoch\n");
    for (id, epoch) in inner.sessions.list() {
        out.push_str(&format!("{id}\t{epoch}\n"));
    }
    Response::ok(out).with_header("X-Epoch", inner.engine.epoch().to_string())
}

fn close_session(inner: &Inner, req: &Request) -> Response {
    let id = req
        .param("id")
        .or_else(|| req.header("x-session"))
        .and_then(|s| s.trim().parse::<u64>().ok());
    match id {
        Some(id) if inner.sessions.close(id) => Response::ok("closed\n"),
        Some(id) => Response::text(404, format!("no such session {id}\n")),
        None => Response::text(400, "missing ?id= or X-Session\n"),
    }
}

/// Parse a TSV ingest body against a table schema (`table` only names the
/// error messages). The header names a subset of the table's columns (any
/// order); unnamed columns become NULL.
fn parse_tsv_rows(schema: &Schema, table: &str, body: &str) -> Result<Vec<Vec<Value>>, String> {
    let mut lines = body.lines();
    let header = lines.next().ok_or("empty body (need a TSV header line)")?;
    let cols: Vec<usize> = header
        .split('\t')
        .map(|name| {
            schema
                .index_of(name.trim())
                .ok_or_else(|| format!("no column '{}' in table '{table}'", name.trim()))
        })
        .collect::<Result<_, _>>()?;
    let mut rows = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != cols.len() {
            return Err(format!(
                "line {}: {} field(s), header has {}",
                lineno + 2,
                fields.len(),
                cols.len()
            ));
        }
        let mut row = vec![Value::Null; schema.arity()];
        for (&ci, field) in cols.iter().zip(&fields) {
            row[ci] = parse_value(schema.columns[ci].dtype, field)
                .map_err(|e| format!("line {}: {e}", lineno + 2))?;
        }
        rows.push(row);
    }
    Ok(rows)
}

/// One TSV cell → a typed [`Value`]. `NULL` (exact) is the null literal.
fn parse_value(dtype: DataType, s: &str) -> Result<Value, String> {
    if s == "NULL" {
        return Ok(Value::Null);
    }
    match dtype {
        DataType::Int => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("bad INTEGER {s:?}")),
        DataType::Float => s
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad FLOAT {s:?}")),
        DataType::Bool => match s {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(format!("bad BOOL {s:?} (true|false)")),
        },
        DataType::Timestamp => sqldb::parse_timestamp(s)
            .or_else(|| s.parse::<i64>().ok())
            .map(Value::Timestamp)
            .ok_or_else(|| format!("bad TIMESTAMP {s:?}")),
        DataType::Text => Ok(Value::Text(s.to_string())),
    }
}

// Re-exported so the stress harness and tests can exercise overload paths
// without going through a socket.
#[doc(hidden)]
pub use gate::Refused as AdmissionRefused;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_parsing_covers_all_types() {
        assert_eq!(parse_value(DataType::Int, "42"), Ok(Value::Int(42)));
        assert_eq!(parse_value(DataType::Float, "1.5"), Ok(Value::Float(1.5)));
        assert_eq!(parse_value(DataType::Text, "NULL"), Ok(Value::Null));
        assert_eq!(
            parse_value(DataType::Text, "ufs"),
            Ok(Value::Text("ufs".into()))
        );
        assert_eq!(parse_value(DataType::Bool, "true"), Ok(Value::Bool(true)));
        assert!(parse_value(DataType::Int, "x").is_err());
        assert!(parse_value(DataType::Timestamp, "2024-01-01 00:00:00").is_ok());
        assert_eq!(
            parse_value(DataType::Timestamp, "12345"),
            Ok(Value::Timestamp(12345))
        );
    }

    #[test]
    fn tsv_rows_parse_against_schema() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c FLOAT)")
            .unwrap();
        let schema = db.pin_table("t").unwrap().schema.clone();
        let rows = parse_tsv_rows(&schema, "t", "c\ta\n1.5\t7\nNULL\t8\n").unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(7), Value::Null, Value::Float(1.5)],
                vec![Value::Int(8), Value::Null, Value::Null],
            ]
        );
        assert!(parse_tsv_rows(&schema, "t", "zzz\n1\n").is_err());
        assert!(parse_tsv_rows(&schema, "t", "a\tb\n1\n").is_err(), "arity");
    }
}
